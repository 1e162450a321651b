//! On-disk JSON cache for cell results.
//!
//! Format: one file per cell, named `<fnv1a64(store_key)>.json`, whose
//! body embeds the full store key. Loads verify the embedded key
//! against the requested one, so a hash collision or a stale file is a
//! cache miss, never a wrong result. Floats are encoded as the hex of
//! their IEEE-754 bits (`"3ff0000000000000"`) so every value
//! round-trips bit-exactly — a warm-cache report is byte-identical to
//! the cold run that produced it. Bump [`crate::cell::KEY_VERSION`]
//! (which is part of every store key) to invalidate all entries when
//! execution semantics change.

use crate::store::{AccumulateOutcome, CellResult};
use crate::vfs::{commit_durable, Vfs};
use mpr_beam::{CampaignResult, SdcLabel};
use mpr_fault::InjectionReport;
use mpr_metrics::{CrossSection, OutcomeCounts};
use mpr_obs::fnv1a64;
use mpr_obs::json::{self, str_json, Value};
use mpr_softfloat::Precision;
use std::path::{Path, PathBuf};

/// Identifies the file layout, independent of the cell-key version.
const FORMAT: &str = "mpr-exp-cache-v1";

/// The cache file path for a store key.
pub fn entry_path(dir: &Path, store_key: &str) -> PathBuf {
    dir.join(format!("{:016x}.json", fnv1a64(store_key.as_bytes())))
}

/// Serializes and commits one entry through the durable
/// [`commit_durable`] protocol (tmp write, file fsync, rename, parent
/// fsync), so a completed save survives a crash and a failed one
/// leaves only a sweepable `*.tmp`. The caller decides what an I/O
/// failure means — the engine degrades to memoization but *counts* the
/// lost warm-start bytes (`engine.cache_write_failed`) instead of
/// silently swallowing them.
pub fn save(
    vfs: &dyn Vfs,
    dir: &Path,
    store_key: &str,
    result: &CellResult,
) -> std::io::Result<()> {
    let path = entry_path(dir, store_key);
    let body = serialize(store_key, result);
    commit_durable(vfs, &path, body.as_bytes())
}

/// The result of reading one cache entry.
#[derive(Debug)]
pub enum LoadOutcome {
    /// A verified entry for the requested key.
    Hit(CellResult),
    /// No usable entry: the file is absent, or it is a *valid* entry
    /// that simply is not ours — another format version, or another
    /// store key behind the same file-name hash. Valid foreign files
    /// are left alone.
    Miss,
    /// The file exists but cannot be decoded: a truncated write, bit
    /// rot, or hand edits. The store quarantines it so a damaged entry
    /// is inspected once, not re-parsed on every lookup.
    Corrupt,
}

/// Loads one entry, classifying the answer as a hit, an honest miss,
/// or a corrupt file (see [`LoadOutcome`]).
///
/// A read error (absent file, or an injected read failure) is a miss —
/// the engine re-executes the cell. Bytes that arrive but do not
/// decode — invalid UTF-8, torn JSON, a flipped bit — are corruption,
/// and the store quarantines the file.
pub fn load(vfs: &dyn Vfs, path: &Path, store_key: &str) -> LoadOutcome {
    let Ok(bytes) = vfs.read(path) else {
        return LoadOutcome::Miss;
    };
    let Ok(body) = String::from_utf8(bytes) else {
        return LoadOutcome::Corrupt;
    };
    let Ok(value) = json::parse(&body) else {
        return LoadOutcome::Corrupt;
    };
    match (
        value.get("format").and_then(Value::as_str),
        value.get("key").and_then(Value::as_str),
    ) {
        (Some(format), Some(key)) => {
            // A well-formed file claiming a different format version or
            // key is a legitimate miss, never quarantined.
            if format != FORMAT || key != store_key {
                return LoadOutcome::Miss;
            }
        }
        _ => return LoadOutcome::Corrupt,
    }
    match value.get("result").and_then(decode_result) {
        Some(result) => LoadOutcome::Hit(result),
        None => LoadOutcome::Corrupt,
    }
}

/// Decodes the `result` object of a verified entry.
fn decode_result(result: &Value) -> Option<CellResult> {
    let str_of = |k: &str| result.get(k)?.as_str();
    let u64_of = |k: &str| result.get(k)?.as_u64();
    let f64_of = |k: &str| hex_f64(result.get(k)?);
    let f64s_of =
        |k: &str| -> Option<Vec<f64>> { result.get(k)?.as_arr()?.iter().map(hex_f64).collect() };
    match str_of("kind")? {
        "beam" => Some(CellResult::Beam(CampaignResult {
            device: str_of("device")?.to_string(),
            workload: str_of("workload")?.to_string(),
            precision: parse_precision(str_of("precision")?)?,
            exec_time_s: f64_of("exec_time_s")?,
            runs: f64_of("runs")?,
            fluence: f64_of("fluence")?,
            candidates: u64_of("candidates")?,
            // Adaptive-only fields; absent on fixed-path entries, where
            // every candidate executed under the session fluence.
            executed: match result.get("executed") {
                Some(v) => v.as_u64()?,
                None => u64_of("candidates")?,
            },
            sdc: CrossSection::new(
                u64_of("sdc_events")?,
                match result.get("sdc_fluence") {
                    Some(v) => hex_f64(v)?,
                    None => f64_of("fluence")?,
                },
            ),
            due: CrossSection::new(u64_of("due_events")?, f64_of("fluence")?),
            severities: f64s_of("severities")?,
            labels: result
                .get("labels")?
                .as_arr()?
                .iter()
                .map(|l| l.as_str().and_then(intern_label))
                .collect::<Option<Vec<_>>>()?,
        })),
        "inject" => Some(CellResult::Inject(InjectionReport {
            workload: str_of("workload")?.to_string(),
            precision: parse_precision(str_of("precision")?)?,
            counts: OutcomeCounts::new(u64_of("masked")?, u64_of("sdc")?, u64_of("due")?),
            severities: f64s_of("severities")?,
        })),
        "accumulate" => Some(CellResult::Accumulate(AccumulateOutcome {
            sdc_probability: f64_of("sdc_probability")?,
            corruption_extent: f64_of("corruption_extent")?,
            trials: u64_of("trials")? as u32,
        })),
        _ => None,
    }
}

/// Floats are stored as quoted bit-hex strings.
fn hex_f64(value: &Value) -> Option<f64> {
    match value.as_str()? {
        s if s.len() == 16 => u64::from_str_radix(s, 16).ok().map(f64::from_bits),
        _ => None,
    }
}

/// Maps a stored label back to the engine's static label strings.
///
/// SDC labels are `&'static str` by design (they are interned name
/// tags, not data); only labels produced by a named [`crate::ClassifierId`]
/// can appear in a cache entry, so an unknown label means a foreign or
/// corrupt file and the load is rejected.
fn intern_label(label: &str) -> Option<SdcLabel> {
    const KNOWN: [SdcLabel; 4] = ["critical", "tolerable", "detection", "classification"];
    KNOWN.iter().find(|&&k| k == label).copied()
}

fn parse_precision(name: &str) -> Option<Precision> {
    match name {
        "double" => Some(Precision::Double),
        "single" => Some(Precision::Single),
        "half" => Some(Precision::Half),
        _ => None,
    }
}

// --- serialization ---------------------------------------------------------

fn serialize(store_key: &str, result: &CellResult) -> String {
    let mut out = String::with_capacity(512);
    out.push_str("{\n");
    field(&mut out, "format", &str_json(FORMAT));
    field(&mut out, "key", &str_json(store_key));
    out.push_str("  \"result\": {\n");
    match result {
        CellResult::Beam(r) => {
            field2(&mut out, "kind", &str_json("beam"));
            field2(&mut out, "device", &str_json(&r.device));
            field2(&mut out, "workload", &str_json(&r.workload));
            field2(&mut out, "precision", &str_json(r.precision.name()));
            field2(&mut out, "exec_time_s", &f64_json(r.exec_time_s));
            field2(&mut out, "runs", &f64_json(r.runs));
            field2(&mut out, "fluence", &f64_json(r.fluence));
            field2(&mut out, "candidates", &r.candidates.to_string());
            // Adaptive-only fields, emitted only when they differ from
            // the fixed-path defaults: fixed entries keep their
            // pre-adaptive bytes, so no KEY_VERSION bump and zero cache
            // invalidation.
            if r.executed != r.candidates {
                field2(&mut out, "executed", &r.executed.to_string());
            }
            if r.sdc.fluence().to_bits() != r.fluence.to_bits() {
                field2(&mut out, "sdc_fluence", &f64_json(r.sdc.fluence()));
            }
            field2(&mut out, "sdc_events", &r.sdc.events().to_string());
            field2(&mut out, "due_events", &r.due.events().to_string());
            field2(&mut out, "severities", &f64_vec_json(&r.severities));
            let labels: Vec<String> = r.labels.iter().map(|l| str_json(l)).collect();
            last_field2(&mut out, "labels", &format!("[{}]", labels.join(",")));
        }
        CellResult::Inject(r) => {
            field2(&mut out, "kind", &str_json("inject"));
            field2(&mut out, "workload", &str_json(&r.workload));
            field2(&mut out, "precision", &str_json(r.precision.name()));
            field2(&mut out, "masked", &r.counts.masked.to_string());
            field2(&mut out, "sdc", &r.counts.sdc.to_string());
            field2(&mut out, "due", &r.counts.due.to_string());
            last_field2(&mut out, "severities", &f64_vec_json(&r.severities));
        }
        CellResult::Accumulate(r) => {
            field2(&mut out, "kind", &str_json("accumulate"));
            field2(&mut out, "sdc_probability", &f64_json(r.sdc_probability));
            field2(
                &mut out,
                "corruption_extent",
                &f64_json(r.corruption_extent),
            );
            last_field2(&mut out, "trials", &r.trials.to_string());
        }
    }
    out.push_str("  }\n}\n");
    out
}

fn field(out: &mut String, name: &str, value: &str) {
    out.push_str(&format!("  \"{name}\": {value},\n"));
}

fn field2(out: &mut String, name: &str, value: &str) {
    out.push_str(&format!("    \"{name}\": {value},\n"));
}

fn last_field2(out: &mut String, name: &str, value: &str) {
    out.push_str(&format!("    \"{name}\": {value}\n"));
}

/// Floats travel as the hex of their bits, quoted, for exact round-trip.
fn f64_json(v: f64) -> String {
    format!("\"{:016x}\"", v.to_bits())
}

fn f64_vec_json(vs: &[f64]) -> String {
    let items: Vec<String> = vs.iter().map(|v| f64_json(*v)).collect();
    format!("[{}]", items.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::RealFs;

    fn sample_beam() -> CellResult {
        CellResult::Beam(CampaignResult {
            device: "NVIDIA Titan V".to_string(),
            workload: "MxM".to_string(),
            precision: Precision::Single,
            exec_time_s: 0.1 + 0.2, // a value that does not print exactly
            runs: 3.5e5,
            fluence: 1.25e9,
            candidates: 400,
            executed: 400,
            sdc: CrossSection::new(37, 1.25e9),
            due: CrossSection::new(5, 1.25e9),
            severities: vec![1e-8, 0.25, f64::INFINITY],
            labels: vec!["tolerable", "critical"],
        })
    }

    #[test]
    fn beam_round_trips_bit_exactly() {
        let dir = std::env::temp_dir().join("mpr-exp-cache-test-beam");
        let key = "seed=0000000000000007;v1;dev=titan-v;wl=gemm:12;p=single;k=beam";
        save(&RealFs, &dir, key, &sample_beam()).expect("save");
        let loaded = load(&RealFs, &entry_path(&dir, key), key);
        let (CellResult::Beam(orig), LoadOutcome::Hit(CellResult::Beam(got))) =
            (sample_beam(), loaded)
        else {
            // mpr-allow: panic-hygiene -- test asserts the variant round-trips
            panic!("beam entry failed to load");
        };
        assert_eq!(got.device, orig.device);
        assert_eq!(got.precision, orig.precision);
        assert_eq!(got.exec_time_s.to_bits(), orig.exec_time_s.to_bits());
        assert_eq!(got.fluence.to_bits(), orig.fluence.to_bits());
        assert_eq!(got.candidates, orig.candidates);
        assert_eq!(got.sdc.events(), orig.sdc.events());
        assert_eq!(got.due.events(), orig.due.events());
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got.severities), bits(&orig.severities));
        assert_eq!(got.labels, orig.labels);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn adaptive_beam_round_trips_and_fixed_bytes_are_unchanged() {
        // A fixed-path result must serialize without the adaptive-only
        // fields — their presence would invalidate every pre-adaptive
        // cache entry.
        let key = "seed=0000000000000007;v2;dev=titan-v;wl=gemm:12;p=single;k=beam";
        let fixed = serialize(key, &sample_beam());
        assert!(!fixed.contains("executed"), "fixed entries gain no field");
        assert!(!fixed.contains("sdc_fluence"));

        // An adaptive result (early-stopped, reweighted cross section)
        // round-trips both extra fields bit-exactly.
        let dir = std::env::temp_dir().join("mpr-exp-cache-test-adaptive");
        let adaptive = CellResult::Beam(CampaignResult {
            device: "NVIDIA Titan V".to_string(),
            workload: "MxM".to_string(),
            precision: Precision::Single,
            exec_time_s: 0.3,
            runs: 3.5e5,
            fluence: 1.25e9,
            candidates: 400,
            executed: 64,
            sdc: CrossSection::new(37, 2.17e8),
            due: CrossSection::new(5, 1.25e9),
            severities: vec![0.25],
            labels: vec![],
        });
        let body = serialize(key, &adaptive);
        assert!(body.contains("\"executed\": 64"));
        assert!(body.contains("sdc_fluence"));
        save(&RealFs, &dir, key, &adaptive).expect("save");
        let LoadOutcome::Hit(CellResult::Beam(got)) = load(&RealFs, &entry_path(&dir, key), key)
        else {
            // mpr-allow: panic-hygiene -- test asserts the variant round-trips
            panic!("adaptive beam entry failed to load");
        };
        assert_eq!(got.executed, 64);
        assert_eq!(got.candidates, 400);
        assert_eq!(got.sdc.events(), 37);
        assert_eq!(got.sdc.fluence().to_bits(), 2.17e8f64.to_bits());
        assert_eq!(got.due.fluence().to_bits(), 1.25e9f64.to_bits());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn key_mismatch_is_a_miss() {
        let dir = std::env::temp_dir().join("mpr-exp-cache-test-miss");
        let key = "seed=0000000000000001;v1;dev=a;wl=b;p=half;k=acc:k=1,t=2";
        save(
            &RealFs,
            &dir,
            key,
            &CellResult::Accumulate(AccumulateOutcome {
                sdc_probability: 1.0,
                corruption_extent: 0.5,
                trials: 2,
            }),
        )
        .expect("save");
        // Same file, different expected key: an honest miss, never a
        // quarantine candidate — the file is valid, just not ours.
        assert!(matches!(
            load(&RealFs, &entry_path(&dir, key), "seed=ff;other"),
            LoadOutcome::Miss
        ));
        assert!(matches!(
            load(&RealFs, &entry_path(&dir, key), key),
            LoadOutcome::Hit(_)
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn damaged_files_classify_as_corrupt() {
        let dir = std::env::temp_dir().join("mpr-exp-cache-test-corrupt");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let key = "seed=0000000000000009;v1;dev=a;wl=b;p=half;k=acc:k=1,t=2";
        let path = entry_path(&dir, key);

        // Absent file: a miss, not corruption.
        assert!(matches!(load(&RealFs, &path, key), LoadOutcome::Miss));

        // Truncated JSON: corrupt.
        std::fs::write(&path, "{\"format\": \"mpr-exp-cache-v1\", \"key").expect("write");
        assert!(matches!(load(&RealFs, &path, key), LoadOutcome::Corrupt));

        // Well-formed JSON with the right key but a broken result
        // payload: corrupt.
        std::fs::write(
            &path,
            format!(
                "{{\"format\": {}, \"key\": {}, \"result\": {{\"kind\": \"beam\"}}}}",
                str_json(FORMAT),
                str_json(key)
            ),
        )
        .expect("write");
        assert!(matches!(load(&RealFs, &path, key), LoadOutcome::Corrupt));

        // A different format version: a miss (foreign, left alone).
        std::fs::write(
            &path,
            format!(
                "{{\"format\": \"mpr-exp-cache-v99\", \"key\": {}, \"result\": {{}}}}",
                str_json(key)
            ),
        )
        .expect("write");
        assert!(matches!(load(&RealFs, &path, key), LoadOutcome::Miss));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn save_surfaces_io_errors() {
        // A cache "directory" that is actually a file: create_dir_all
        // (or the write) must fail, and the caller gets to count it.
        let blocker = std::env::temp_dir().join("mpr-exp-cache-test-blocked");
        std::fs::write(&blocker, "not a directory").expect("write blocker");
        let err = save(
            &RealFs,
            &blocker,
            "seed=00;v1;k",
            &CellResult::Accumulate(AccumulateOutcome {
                sdc_probability: 0.0,
                corruption_extent: 0.0,
                trials: 1,
            }),
        );
        assert!(err.is_err());
        let _ = std::fs::remove_file(&blocker);
    }

    #[test]
    fn inject_round_trips() {
        let dir = std::env::temp_dir().join("mpr-exp-cache-test-inject");
        let key = "seed=0000000000000002;v1;dev=knc-3120a;wl=lud:16;p=double;k=inj";
        let orig = CellResult::Inject(InjectionReport {
            workload: "LUD".to_string(),
            precision: Precision::Double,
            counts: OutcomeCounts::new(300, 99, 1),
            severities: vec![0.001, 2.0],
        });
        save(&RealFs, &dir, key, &orig).expect("save");
        let LoadOutcome::Hit(CellResult::Inject(got)) = load(&RealFs, &entry_path(&dir, key), key)
        else {
            // mpr-allow: panic-hygiene -- test asserts the variant round-trips
            panic!("inject entry failed to load");
        };
        assert_eq!(got.counts, OutcomeCounts::new(300, 99, 1));
        assert_eq!(got.workload, "LUD");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_megabyte_of_non_ascii_loads() {
        // String decoding is linear: a 1 MiB device name is an ordinary hit.
        let dir = std::env::temp_dir().join("mpr-exp-cache-test-wide");
        let key = "seed=0000000000000005;v2;dev=é;wl=gemm:12;p=single;k=beam";
        let CellResult::Beam(mut wide) = sample_beam() else {
            // mpr-allow: panic-hygiene -- test fixture is a beam result
            panic!("sample is a beam result");
        };
        wide.device = "é".repeat(512 * 1024);
        save(&RealFs, &dir, key, &CellResult::Beam(wide.clone())).expect("save");
        let LoadOutcome::Hit(CellResult::Beam(got)) = load(&RealFs, &entry_path(&dir, key), key)
        else {
            // mpr-allow: panic-hygiene -- test asserts the variant round-trips
            panic!("wide beam entry failed to load");
        };
        assert_eq!(got.device, wide.device);
        assert!(matches!(
            load(&RealFs, &entry_path(&dir, key), "seed=05;other"),
            LoadOutcome::Miss
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn foreign_labels_are_rejected() {
        assert_eq!(intern_label("critical"), Some("critical"));
        assert_eq!(intern_label("made-up"), None);
    }
}
