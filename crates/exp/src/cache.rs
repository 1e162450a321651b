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
use mpr_obs::json::{str_json, Reader};
use mpr_softfloat::Precision;
use std::borrow::Cow;
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
/// decode — invalid UTF-8, torn JSON, a flipped bit, a missing or
/// ill-typed field — are corruption, and the store quarantines the
/// file.
pub fn load(vfs: &dyn Vfs, path: &Path, store_key: &str) -> LoadOutcome {
    match vfs.read(path) {
        Ok(bytes) => decode(&bytes, store_key),
        Err(_) => LoadOutcome::Miss,
    }
}

/// Classifies an entry's bytes in one typed pass over the JSON, with no
/// tree in between.
fn decode(bytes: &[u8], store_key: &str) -> LoadOutcome {
    let Ok(body) = std::str::from_utf8(bytes) else {
        return LoadOutcome::Corrupt;
    };
    let Ok((format, key, result)) = read_entry(body) else {
        return LoadOutcome::Corrupt;
    };
    match (format, key) {
        // A well-formed file claiming a different format version or key
        // is a legitimate miss, never quarantined.
        (Some(format), Some(key)) if format != FORMAT || key != store_key => LoadOutcome::Miss,
        (Some(_), Some(_)) => result.map_or(LoadOutcome::Corrupt, LoadOutcome::Hit),
        _ => LoadOutcome::Corrupt,
    }
}

/// An entry's `format`, `key` and decoded `result`, each `None` when
/// absent or ill-typed.
type Entry<'a> = (
    Option<Cow<'a, str>>,
    Option<Cow<'a, str>>,
    Option<CellResult>,
);

/// Reads a whole entry document. Members may come in any order, unknown
/// ones are skipped, and a repeated key takes its last value, as a
/// parsed tree would.
fn read_entry(body: &str) -> Result<Entry<'_>, String> {
    let mut r = Reader::new(body);
    let (mut format, mut key, mut result) = (None, None, None);
    if r.object()? {
        while let Some(name) = r.next_key()? {
            match &*name {
                "format" => format = r.str()?,
                "key" => key = r.str()?,
                "result" => result = read_result(&mut r)?,
                _ => r.skip()?,
            }
        }
    }
    r.finish()?;
    Ok((format, key, result))
}

/// Every `result` member some kind of entry reads, each `None` until
/// read well-typed.
#[derive(Default)]
struct Fields<'a> {
    kind: Option<Cow<'a, str>>,
    device: Option<Cow<'a, str>>,
    workload: Option<Cow<'a, str>>,
    precision: Option<Precision>,
    exec_time_s: Option<f64>,
    runs: Option<f64>,
    fluence: Option<f64>,
    candidates: Option<u64>,
    /// Adaptive-only, so absence is no error: `None` when absent,
    /// `Some(None)` when ill-typed.
    executed: Option<Option<u64>>,
    /// Adaptive-only, like `executed`.
    sdc_fluence: Option<Option<f64>>,
    sdc_events: Option<u64>,
    due_events: Option<u64>,
    severities: Option<Vec<f64>>,
    labels: Option<Vec<SdcLabel>>,
    masked: Option<u64>,
    sdc: Option<u64>,
    due: Option<u64>,
    sdc_probability: Option<f64>,
    corruption_extent: Option<f64>,
    trials: Option<u64>,
}

/// Reads the `result` object of an entry; `None` when it is not an
/// object or misses a field its kind needs.
fn read_result(r: &mut Reader<'_>) -> Result<Option<CellResult>, String> {
    if !r.object()? {
        return Ok(None);
    }
    let mut f = Fields::default();
    while let Some(name) = r.next_key()? {
        match &*name {
            "kind" => f.kind = r.str()?,
            "device" => f.device = r.str()?,
            "workload" => f.workload = r.str()?,
            "precision" => f.precision = r.str()?.and_then(|p| parse_precision(&p)),
            "exec_time_s" => f.exec_time_s = hex_f64(r)?,
            "runs" => f.runs = hex_f64(r)?,
            "fluence" => f.fluence = hex_f64(r)?,
            "candidates" => f.candidates = r.u64()?,
            "executed" => f.executed = Some(r.u64()?),
            "sdc_fluence" => f.sdc_fluence = Some(hex_f64(r)?),
            "sdc_events" => f.sdc_events = r.u64()?,
            "due_events" => f.due_events = r.u64()?,
            "severities" => f.severities = array_of(r, hex_f64)?,
            "labels" => f.labels = array_of(r, |r| Ok(r.str()?.and_then(|l| intern_label(&l))))?,
            "masked" => f.masked = r.u64()?,
            "sdc" => f.sdc = r.u64()?,
            "due" => f.due = r.u64()?,
            "sdc_probability" => f.sdc_probability = hex_f64(r)?,
            "corruption_extent" => f.corruption_extent = hex_f64(r)?,
            "trials" => f.trials = r.u64()?,
            _ => r.skip()?,
        }
    }
    Ok(f.build())
}

impl Fields<'_> {
    fn build(self) -> Option<CellResult> {
        match &*self.kind? {
            "beam" => {
                let fluence = self.fluence?;
                let candidates = self.candidates?;
                Some(CellResult::Beam(CampaignResult {
                    device: self.device?.into_owned(),
                    workload: self.workload?.into_owned(),
                    precision: self.precision?,
                    exec_time_s: self.exec_time_s?,
                    runs: self.runs?,
                    fluence,
                    candidates,
                    // Adaptive-only fields; absent on fixed-path entries,
                    // where every candidate executed under the session
                    // fluence.
                    executed: self.executed.unwrap_or(Some(candidates))?,
                    sdc: cross_section(
                        self.sdc_events?,
                        self.sdc_fluence.unwrap_or(Some(fluence))?,
                    )?,
                    due: cross_section(self.due_events?, fluence)?,
                    severities: self.severities?,
                    labels: self.labels?,
                }))
            }
            "inject" => Some(CellResult::Inject(InjectionReport {
                workload: self.workload?.into_owned(),
                precision: self.precision?,
                counts: OutcomeCounts::new(self.masked?, self.sdc?, self.due?),
                severities: self.severities?,
            })),
            "accumulate" => Some(CellResult::Accumulate(AccumulateOutcome {
                sdc_probability: self.sdc_probability?,
                corruption_extent: self.corruption_extent?,
                trials: u32::try_from(self.trials?).ok()?,
            })),
            _ => None,
        }
    }
}

/// A stored cross section, or `None` for a fluence no campaign yields
/// (zero, negative or non-finite), which [`CrossSection::new`] rejects
/// by panicking.
fn cross_section(events: u64, fluence: f64) -> Option<CrossSection> {
    (fluence.is_finite() && fluence > 0.0).then(|| CrossSection::new(events, fluence))
}

/// An array whose every element `item` reads well-typed; `None` (with
/// the rest of the array still checked) otherwise.
fn array_of<'a, T>(
    r: &mut Reader<'a>,
    mut item: impl FnMut(&mut Reader<'a>) -> Result<Option<T>, String>,
) -> Result<Option<Vec<T>>, String> {
    if !r.array()? {
        return Ok(None);
    }
    let mut out = Some(Vec::new());
    while r.next_item()? {
        match (item(r)?, &mut out) {
            (Some(v), Some(items)) => items.push(v),
            _ => out = None,
        }
    }
    Ok(out)
}

/// Floats are stored as quoted bit-hex strings of exactly 16 hex digits.
fn hex_f64(r: &mut Reader<'_>) -> Result<Option<f64>, String> {
    Ok(r.str()?.and_then(|s| f64_of_hex(&s)))
}

fn f64_of_hex(s: &str) -> Option<f64> {
    // Exactly 16 digits: `from_str_radix` would also take a sign.
    let (high, low) = s.as_bytes().split_first_chunk::<8>()?;
    let low: &[u8; 8] = low.try_into().ok()?;
    Some(f64::from_bits(
        u64::from(hex8(*high)?) << 32 | u64::from(hex8(*low)?),
    ))
}

/// Eight ASCII hex digits, most significant first, as a 32-bit value;
/// `None` unless every byte is one of `0-9a-fA-F`. All eight bytes are
/// tested and converted at once: once every byte is known to be ASCII
/// (below 0x80), adding a per-byte bias sets a byte's top bit exactly
/// when it clears a bound, and no byte carries into its neighbour.
fn hex8(digits: [u8; 8]) -> Option<u32> {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const TOPS: u64 = 0x8080_8080_8080_8080;
    let w = u64::from_be_bytes(digits);
    if w & TOPS != 0 {
        return None;
    }
    // Top bit set in each byte that is at least `lo`, or more than `hi`.
    let at_least = |w: u64, lo: u64| w + (0x80 - lo) * ONES;
    let above = |w: u64, hi: u64| w + (0x7F - hi) * ONES;
    let decimal = at_least(w, b'0'.into()) & !above(w, b'9'.into());
    let lower = w | (0x20 * ONES);
    let letter = at_least(lower, b'a'.into()) & !above(lower, b'f'.into());
    if (decimal | letter) & TOPS != TOPS {
        return None;
    }
    // A digit's value is its low nibble, a letter's that plus 9
    // (`a` = 0x61 -> 10); only letters have bit 6 set.
    let mut v = (w & (0x0F * ONES)) + ((w >> 6) & ONES) * 9;
    // Pack the eight nibbles, one per byte, into the low 32 bits.
    v = (v | v >> 4) & 0x00FF_00FF_00FF_00FF;
    v = (v | v >> 8) & 0x0000_FFFF_0000_FFFF;
    v = (v | v >> 16) & 0x0000_0000_FFFF_FFFF;
    u32::try_from(v).ok()
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

/// The tree decoder [`decode`] replaced: [`json::parse`] into a
/// [`Value`], then field lookups. Kept as the oracle the one-pass
/// decoder is checked against. It differs from the decoder it came from
/// only in building cross sections through [`cross_section`], since
/// [`CrossSection::new`] panics on the hostile fluences these tests feed
/// it.
#[cfg(test)]
mod oracle {
    use super::*;
    use mpr_obs::json::{self, Value};

    pub(super) fn decode(bytes: &[u8], store_key: &str) -> LoadOutcome {
        let Ok(body) = std::str::from_utf8(bytes) else {
            return LoadOutcome::Corrupt;
        };
        let Ok(value) = json::parse(body) else {
            return LoadOutcome::Corrupt;
        };
        match (
            value.get("format").and_then(Value::as_str),
            value.get("key").and_then(Value::as_str),
        ) {
            (Some(format), Some(key)) => {
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

    fn decode_result(result: &Value) -> Option<CellResult> {
        let str_of = |k: &str| result.get(k)?.as_str();
        let u64_of = |k: &str| result.get(k)?.as_u64();
        let f64_of = |k: &str| hex_f64(result.get(k)?);
        let f64s_of = |k: &str| -> Option<Vec<f64>> {
            result.get(k)?.as_arr()?.iter().map(hex_f64).collect()
        };
        match str_of("kind")? {
            "beam" => Some(CellResult::Beam(CampaignResult {
                device: str_of("device")?.to_string(),
                workload: str_of("workload")?.to_string(),
                precision: parse_precision(str_of("precision")?)?,
                exec_time_s: f64_of("exec_time_s")?,
                runs: f64_of("runs")?,
                fluence: f64_of("fluence")?,
                candidates: u64_of("candidates")?,
                executed: match result.get("executed") {
                    Some(v) => v.as_u64()?,
                    None => u64_of("candidates")?,
                },
                sdc: cross_section(
                    u64_of("sdc_events")?,
                    match result.get("sdc_fluence") {
                        Some(v) => hex_f64(v)?,
                        None => f64_of("fluence")?,
                    },
                )?,
                due: cross_section(u64_of("due_events")?, f64_of("fluence")?)?,
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

    fn hex_f64(value: &Value) -> Option<f64> {
        match value.as_str()? {
            s if s.len() == 16 => u64::from_str_radix(s, 16).ok().map(f64::from_bits),
            _ => None,
        }
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "fixtures plant raw, torn and corrupt files beneath the Vfs layer and clean up after themselves"
)]
mod tests {
    use super::*;
    use crate::vfs::RealFs;
    use mpr_obs::json::{self, Value, MAX_DEPTH};

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
            panic!("sample is a beam result");
        };
        wide.device = "é".repeat(512 * 1024);
        save(&RealFs, &dir, key, &CellResult::Beam(wide.clone())).expect("save");
        let LoadOutcome::Hit(CellResult::Beam(got)) = load(&RealFs, &entry_path(&dir, key), key)
        else {
            panic!("wide beam entry failed to load");
        };
        assert_eq!(got.device, wide.device);
        assert!(matches!(
            load(&RealFs, &entry_path(&dir, key), "seed=05;other"),
            LoadOutcome::Miss
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// One entry of each shape a run writes, under its store key.
    fn fixtures() -> Vec<(&'static str, CellResult)> {
        let CellResult::Beam(mut adaptive) = sample_beam() else {
            panic!("sample is a beam result");
        };
        adaptive.executed = 64;
        adaptive.sdc = CrossSection::new(37, 2.17e8);
        adaptive.device = "Titan \"V\" \\ é 😀\n\t\u{1}".to_string();
        vec![
            (
                "seed=0000000000000007;v2;dev=titan-v;wl=gemm:12;p=single;k=beam",
                sample_beam(),
            ),
            (
                "seed=0000000000000007;v2;dev=\"titan-v\";wl=gemm:12;p=single;k=beam;b:64",
                CellResult::Beam(adaptive),
            ),
            (
                "seed=0000000000000002;v2;dev=knc-3120a;wl=lud:16;p=double;k=inj",
                CellResult::Inject(InjectionReport {
                    workload: "LUD".to_string(),
                    precision: Precision::Half,
                    counts: OutcomeCounts::new(300, 99, 1),
                    severities: vec![0.001, -0.0, f64::NAN],
                }),
            ),
            (
                "seed=0000000000000001;v2;dev=zynq;wl=gemm:8;p=half;k=acc:k=4,t=6",
                CellResult::Accumulate(AccumulateOutcome {
                    sdc_probability: 0.5,
                    corruption_extent: 1.0 / 3.0,
                    trials: 6,
                }),
            ),
        ]
    }

    /// The two intended differences from the oracle: a `+` sign where a
    /// hex float's first digit belongs, and a `trials` count past
    /// `u32::MAX`. Both decode to a wrong value in the tree decoder.
    fn known_difference(body: &[u8]) -> bool {
        fn signed_hex(v: &Value) -> bool {
            match v {
                Value::Str(s) => {
                    s.len() == 16 && s.starts_with('+') && u64::from_str_radix(s, 16).is_ok()
                }
                Value::Arr(items) => items.iter().any(signed_hex),
                Value::Obj(members) => members.values().any(signed_hex),
                _ => false,
            }
        }
        let Some(value) = std::str::from_utf8(body)
            .ok()
            .and_then(|b| json::parse(b).ok())
        else {
            return false;
        };
        let trials = value.get("result").and_then(|r| r.get("trials"));
        signed_hex(&value) || trials.and_then(Value::as_u64).unwrap_or(0) > u64::from(u32::MAX)
    }

    /// The one-pass decoder and the tree oracle classify `body` alike,
    /// and agree bit for bit on a hit.
    fn agrees(body: &[u8], store_key: &str) {
        let (got, want) = (decode(body, store_key), oracle::decode(body, store_key));
        let shown = || String::from_utf8_lossy(body).into_owned();
        match (&got, &want) {
            (LoadOutcome::Hit(a), LoadOutcome::Hit(b)) => assert_eq!(
                serialize(store_key, a),
                serialize(store_key, b),
                "{}",
                shown()
            ),
            (LoadOutcome::Miss, LoadOutcome::Miss)
            | (LoadOutcome::Corrupt, LoadOutcome::Corrupt) => {}
            (LoadOutcome::Corrupt, LoadOutcome::Hit(_)) if known_difference(body) => {}
            _ => panic!("decoder {got:?} but oracle {want:?} on {}", shown()),
        }
    }

    fn render(members: &[(String, String)]) -> String {
        let items: Vec<String> = members
            .iter()
            .map(|(k, v)| format!("{}:{v}", str_json(k)))
            .collect();
        format!("{{{}}}", items.join(","))
    }

    fn members(value: &Value) -> Vec<(String, String)> {
        value
            .as_obj()
            .expect("an object")
            .iter()
            .map(|(k, v)| (k.clone(), v.to_string()))
            .collect()
    }

    /// The same entry with its members rearranged: `top` and `result`
    /// are the member lists, rendered compactly.
    fn entry_text(top: &[(String, String)], result: &[(String, String)]) -> String {
        let mut top = top.to_vec();
        for (k, v) in &mut top {
            if k == "result" {
                *v = render(result);
            }
        }
        render(&top)
    }

    #[test]
    fn hostile_bytes_decode_as_the_tree_oracle_does() {
        for (key, result) in fixtures() {
            let body = serialize(key, &result).into_bytes();
            assert!(matches!(decode(&body, key), LoadOutcome::Hit(_)));
            agrees(&body, key);
            agrees(&body, "seed=ff;other");
            for cut in 0..body.len() {
                agrees(&body[..cut], key);
            }
            for i in 0..body.len() {
                for bit in 0..8 {
                    let mut flipped = body.clone();
                    flipped[i] ^= 1 << bit;
                    agrees(&flipped, key);
                }
                for c in *b"+-\"\\{}[],:0f " {
                    let mut swapped = body.clone();
                    swapped[i] = c;
                    agrees(&swapped, key);
                }
            }
        }
    }

    #[test]
    fn rearranged_entries_decode_as_the_tree_oracle_does() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        for (key, result) in fixtures() {
            let tree = json::parse(&serialize(key, &result)).expect("entry parses");
            let top = members(&tree);
            let inner = members(tree.get("result").expect("result member"));
            let reversed = |v: &[(String, String)]| v.iter().rev().cloned().collect::<Vec<_>>();
            let with = |v: &[(String, String)], at: usize, k: &str, text: String| {
                let mut v = v.to_vec();
                v.insert(at, (k.to_string(), text));
                v
            };
            let mut texts = vec![
                entry_text(&top, &inner),
                entry_text(&reversed(&top), &reversed(&inner)),
                entry_text(
                    &with(
                        &top,
                        0,
                        "zz",
                        r#"{"a":[1,"x",null,true,{"b":-2.5e3}]}"#.into(),
                    ),
                    &with(&inner, inner.len(), "unknown", r#"["é",{}]"#.into()),
                ),
                entry_text(&with(&top, 3, "key", str_json("seed=ff;other")), &inner),
                entry_text(&with(&top, 0, "key", str_json("seed=ff;other")), &inner),
                entry_text(&with(&top, 0, "format", "null".into()), &inner),
                entry_text(&with(&top, 3, "format", "7".into()), &inner),
                entry_text(&with(&top, 3, "result", "[]".into()), &inner),
                entry_text(&with(&top, 1, "deep", nested(10_000)), &inner),
            ];
            for (i, (name, _)) in inner.iter().enumerate() {
                // A repeated key takes its last value, a missing one is
                // missing, and a wrong type is a wrong type.
                texts.push(entry_text(&top, &with(&inner, 0, name, "null".into())));
                texts.push(entry_text(
                    &top,
                    &with(&inner, inner.len(), name, "null".into()),
                ));
                texts.push(entry_text(
                    &top,
                    &with(&inner, inner.len(), name, "\"0\"".into()),
                ));
                let mut dropped = inner.clone();
                dropped.remove(i);
                texts.push(entry_text(&top, &dropped));
            }
            // Escapes where the writer put literal characters.
            let escaped = entry_text(&top, &inner)
                .replace('é', "\\u00e9")
                .replace('😀', "\\ud83d\\ude00")
                .replace("Titan", "\\u0054itan");
            texts.push(escaped);
            for text in &texts {
                agrees(text.as_bytes(), key);
            }
            let at_cap = entry_text(&top, &with(&inner, 0, "deep", nested(MAX_DEPTH - 2)));
            let past_cap = entry_text(&top, &with(&inner, 0, "deep", nested(MAX_DEPTH - 1)));
            assert!(matches!(
                decode(at_cap.as_bytes(), key),
                LoadOutcome::Hit(_)
            ));
            assert!(matches!(
                decode(past_cap.as_bytes(), key),
                LoadOutcome::Corrupt
            ));
        }
    }

    #[test]
    fn escaped_device_names_load_unescaped() {
        let (key, result) = fixtures().swap_remove(1);
        let body = serialize(key, &result)
            .replace('é', "\\u00e9")
            .replace('😀', "\\ud83d\\ude00");
        let (LoadOutcome::Hit(CellResult::Beam(got)), CellResult::Beam(want)) =
            (decode(body.as_bytes(), key), result)
        else {
            panic!("escaped entry failed to load");
        };
        assert_eq!(got.device, want.device);
    }

    #[test]
    fn hex_digits_decode_like_from_str_radix() {
        let reference = |s: &[u8]| {
            let s = std::str::from_utf8(s).ok()?;
            let digits = s.len() == 16 && s.bytes().all(|b| b.is_ascii_hexdigit());
            digits.then(|| u64::from_str_radix(s, 16).ok()).flatten()
        };
        for valid in [
            "3ff0000000000000",
            "0123456789abcdef",
            "FEDCBA9876543210",
            "fFfFfFfFfFfFfFfF",
        ] {
            for i in 0..16 {
                for b in 0..=255u8 {
                    let mut s = valid.as_bytes().to_vec();
                    s[i] = b;
                    let got = std::str::from_utf8(&s).ok().and_then(f64_of_hex);
                    assert_eq!(got.map(f64::to_bits), reference(&s), "{s:?}");
                }
            }
        }
        for short in [
            "",
            "+3ff000000000000",
            "3ff000000000000",
            "3ff00000000000000",
            "é3ff00000000000",
        ] {
            assert_eq!(f64_of_hex(short), None, "{short:?}");
        }
    }

    /// Loads `text` from a real file, as a store would.
    fn load_text(tag: &str, key: &str, text: &str) -> LoadOutcome {
        let dir = std::env::temp_dir().join(format!("mpr-exp-cache-test-{tag}"));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = entry_path(&dir, key);
        std::fs::write(&path, text).expect("write");
        let outcome = load(&RealFs, &path, key);
        let _ = std::fs::remove_dir_all(&dir);
        outcome
    }

    #[test]
    fn out_of_range_trials_are_corrupt() {
        let key = "seed=0000000000000001;v2;dev=zynq;wl=gemm:8;p=half;k=acc:k=4,t=6";
        let body = serialize(
            key,
            &CellResult::Accumulate(AccumulateOutcome {
                sdc_probability: 0.5,
                corruption_extent: 0.25,
                trials: 1,
            }),
        );
        let wrapped = body.replace("\"trials\": 1", "\"trials\": 4294967297");
        assert_ne!(wrapped, body);
        assert!(matches!(
            load_text("trials", key, &wrapped),
            LoadOutcome::Corrupt
        ));
    }

    #[test]
    fn hex_floats_need_sixteen_digits() {
        let key = "seed=0000000000000001;v2;dev=zynq;wl=gemm:8;p=half;k=acc:k=4,t=6";
        let body = serialize(
            key,
            &CellResult::Accumulate(AccumulateOutcome {
                sdc_probability: 1.0,
                corruption_extent: 0.25,
                trials: 6,
            }),
        );
        // Sixteen characters but fifteen digits: `from_str_radix` takes
        // the sign and reads 0x3ff000000000000, a different float.
        let signed = body.replace("\"3ff0000000000000\"", "\"+3ff000000000000\"");
        assert_ne!(signed, body);
        assert!(matches!(
            load_text("signed-hex", key, &signed),
            LoadOutcome::Corrupt
        ));
    }

    #[test]
    fn impossible_fluences_are_corrupt_not_a_panic() {
        let (key, result) = fixtures().swap_remove(0);
        let body = serialize(key, &result);
        let fluence = format!("\"{:016x}\"", 1.25e9f64.to_bits());
        for bad in [-1.25e9, 0.0, f64::INFINITY, f64::NAN] {
            let text = body.replace(&fluence, &format!("\"{:016x}\"", f64::to_bits(bad)));
            assert_ne!(text, body);
            assert!(
                matches!(load_text("fluence", key, &text), LoadOutcome::Corrupt),
                "{bad}"
            );
        }
    }

    #[test]
    fn foreign_labels_are_rejected() {
        assert_eq!(intern_label("critical"), Some("critical"));
        assert_eq!(intern_label("made-up"), None);
    }
}
