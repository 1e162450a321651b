//! The campaign manifest: a per-cache-directory ledger of cell
//! statuses that makes campaigns resumable.
//!
//! The result cache already memoizes *successful* cells; the manifest
//! adds what the cache cannot express — which cells failed or hung,
//! after how many attempts, and under which plan — so a `--resume` run
//! can name exactly the subset it will re-execute and a CLI can render
//! the previous run's failure table without re-running anything.
//!
//! One `manifest.json` lives at the root of the cache directory. It is
//! written with the same tmp+rename discipline as cache entries and
//! *merged* on write: cells recorded by earlier plans against the same
//! directory are preserved, so several studies can share one cache. A
//! plan whose statuses the ledger already holds leaves the file alone.

use crate::vfs::{commit_durable, RealFs, Vfs};
use mpr_obs::json::{str_json, Reader};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

/// Identifies the manifest layout, independent of cache and key versions.
const FORMAT: &str = "mpr-exp-manifest-v1";

/// The manifest file name inside a cache directory.
pub const MANIFEST_FILE: &str = "manifest.json";

/// The manifest path for a cache directory.
pub fn manifest_path(dir: &Path) -> PathBuf {
    dir.join(MANIFEST_FILE)
}

/// Final status of one cell in the ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellState {
    /// The cell completed and its result is in the cache.
    Ok,
    /// The cell exhausted its attempts panicking.
    Failed,
    /// The cell exhausted its attempts against the watchdog deadline.
    Hung,
    /// The run was cancelled before (or while) the cell executed; a
    /// resume re-runs it from scratch.
    Cancelled,
}

impl CellState {
    /// Canonical token stored in the manifest.
    pub fn token(&self) -> &'static str {
        match self {
            CellState::Ok => "ok",
            CellState::Failed => "failed",
            CellState::Hung => "hung",
            CellState::Cancelled => "cancelled",
        }
    }

    fn parse(s: &str) -> Option<CellState> {
        match s {
            "ok" => Some(CellState::Ok),
            "failed" => Some(CellState::Failed),
            "hung" => Some(CellState::Hung),
            "cancelled" => Some(CellState::Cancelled),
            _ => None,
        }
    }
}

impl fmt::Display for CellState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.token())
    }
}

/// One cell's ledger entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellStatus {
    /// Final status of the cell's last run.
    pub state: CellState,
    /// Attempts the last run made (0 = served from cache, never
    /// re-executed).
    pub attempts: u32,
    /// Human-readable detail (the failure message; empty for `ok`).
    pub detail: String,
}

/// The campaign ledger for one cache directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// FNV-1a hash over the sorted unique store keys of the most
    /// recent plan that changed the ledger. A plan that records only
    /// statuses the ledger already holds does not rewrite it, so this
    /// is not necessarily the last plan run against the directory.
    /// Nothing reads it back; it tells a reader of the file which plan
    /// wrote it.
    pub plan_hash: u64,
    /// Store key → status, across every plan that used this directory.
    pub cells: BTreeMap<String, CellStatus>,
}

/// Classification of the bytes found at the manifest path.
#[cfg_attr(test, derive(Debug, PartialEq))]
enum Decoded {
    /// A well-formed ledger in our format.
    Ours(Manifest),
    /// Well-formed, but another format version — left alone.
    Foreign,
    /// Undecodable: quarantine it.
    Corrupt,
}

impl Manifest {
    /// An empty ledger for a plan.
    pub fn new(plan_hash: u64) -> Manifest {
        Manifest {
            plan_hash,
            cells: BTreeMap::new(),
        }
    }

    /// Records (or overwrites) one cell's status.
    pub fn record(&mut self, store_key: impl Into<String>, status: CellStatus) {
        self.cells.insert(store_key.into(), status);
    }

    /// Store keys whose last run did not complete, in sorted order —
    /// the exact subset a `--resume` run re-executes.
    pub fn unfinished(&self) -> Vec<&str> {
        self.cells
            .iter()
            .filter(|(_, s)| s.state != CellState::Ok)
            .map(|(k, _)| k.as_str())
            .collect()
    }

    /// Reads the ledger from a cache directory (see
    /// [`Manifest::load_traced`]; this is the [`RealFs`] convenience
    /// form that drops the quarantine flag).
    pub fn load(dir: &Path) -> Option<Manifest> {
        Manifest::load_traced(&RealFs, dir).0
    }

    /// Reads the ledger from a cache directory, reporting whether a
    /// damaged one was quarantined.
    ///
    /// Absent or foreign (other format version) manifests load as
    /// `(None, false)` — nothing is wrong, there is just no ledger for
    /// us. Bytes that exist but do not decode — a torn write, bit rot —
    /// are moved aside to `manifest.json.corrupt` exactly like a
    /// corrupt cache entry, returning `(None, true)`: resume then
    /// falls back to the cache-driven path (missing entries
    /// re-execute), so a damaged ledger costs re-planning, never a
    /// wrong answer.
    pub fn load_traced(vfs: &dyn Vfs, dir: &Path) -> (Option<Manifest>, bool) {
        let path = manifest_path(dir);
        let Ok(bytes) = vfs.read(&path) else {
            return (None, false);
        };
        match Manifest::decode(&bytes) {
            Decoded::Ours(manifest) => (Some(manifest), false),
            Decoded::Foreign => (None, false),
            Decoded::Corrupt => {
                let quarantine = path.with_extension("json.corrupt");
                if vfs.rename(&path, &quarantine).is_ok() {
                    eprintln!(
                        "mpr-exp: quarantined corrupt manifest {} -> {}",
                        path.display(),
                        quarantine.display()
                    );
                    (None, true)
                } else {
                    (None, false)
                }
            }
        }
    }

    /// Classifies a ledger's bytes in one typed pass over the JSON, with
    /// no tree in between.
    fn decode(bytes: &[u8]) -> Decoded {
        let Ok(body) = std::str::from_utf8(bytes) else {
            return Decoded::Corrupt;
        };
        let Ok((format, plan_hash, cells)) = read_ledger(body) else {
            return Decoded::Corrupt;
        };
        match (format.as_deref(), plan_hash, cells) {
            (Some(format), _, _) if format != FORMAT => Decoded::Foreign,
            (Some(_), Some(plan_hash), Some(cells)) => Decoded::Ours(Manifest { plan_hash, cells }),
            _ => Decoded::Corrupt,
        }
    }

    /// Writes the ledger crash-durably via [`commit_durable`] on the
    /// real filesystem.
    pub fn save(&self, dir: &Path) -> std::io::Result<()> {
        self.save_on(&RealFs, dir)
    }

    /// Writes the ledger crash-durably (tmp write, file fsync, rename,
    /// parent-directory fsync) through an explicit filesystem.
    pub fn save_on(&self, vfs: &dyn Vfs, dir: &Path) -> std::io::Result<()> {
        commit_durable(vfs, &manifest_path(dir), self.serialize().as_bytes())
    }

    fn serialize(&self) -> String {
        let mut out = String::with_capacity(256 + self.cells.len() * 128);
        out.push_str("{\n");
        out.push_str(&format!("  \"format\": {},\n", str_json(FORMAT)));
        out.push_str(&format!("  \"plan_hash\": \"{:016x}\",\n", self.plan_hash));
        out.push_str("  \"cells\": {");
        let mut first = true;
        for (key, status) in &self.cells {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "\n    {}: {{\"status\": {}, \"attempts\": {}, \"detail\": {}}}",
                str_json(key),
                str_json(status.state.token()),
                status.attempts,
                str_json(&status.detail)
            ));
        }
        out.push_str("\n  }\n}\n");
        out
    }
}

/// A ledger's `format`, `plan_hash` and `cells`, each `None` when
/// absent or ill-typed.
type Ledger<'a> = (
    Option<Cow<'a, str>>,
    Option<u64>,
    Option<BTreeMap<String, CellStatus>>,
);

/// Reads a whole ledger document. Members may come in any order, unknown
/// ones are skipped, and a repeated key takes its last value, as a
/// parsed tree would.
fn read_ledger(body: &str) -> Result<Ledger<'_>, String> {
    let mut r = Reader::new(body);
    let (mut format, mut plan_hash, mut cells) = (None, None, None);
    if r.object()? {
        while let Some(name) = r.next_key()? {
            match &*name {
                "format" => format = r.str()?,
                "plan_hash" => plan_hash = r.str()?.and_then(|h| u64::from_str_radix(&h, 16).ok()),
                "cells" => cells = read_cells(&mut r)?,
                _ => r.skip()?,
            }
        }
    }
    r.finish()?;
    Ok((format, plan_hash, cells))
}

/// The `cells` object; `None` when it is no object or any cell's last
/// entry is ill-formed (an earlier duplicate does not count, as it
/// would not in a parsed tree).
fn read_cells(r: &mut Reader<'_>) -> Result<Option<BTreeMap<String, CellStatus>>, String> {
    if !r.object()? {
        return Ok(None);
    }
    let mut cells = BTreeMap::new();
    while let Some(key) = r.next_key()? {
        let status = read_status(r)?;
        cells.insert(key.into_owned(), status);
    }
    Ok(cells
        .into_iter()
        .map(|(key, status)| Some((key, status?)))
        .collect())
}

fn read_status(r: &mut Reader<'_>) -> Result<Option<CellStatus>, String> {
    if !r.object()? {
        return Ok(None);
    }
    let (mut state, mut attempts, mut detail) = (None, None, None);
    while let Some(name) = r.next_key()? {
        match &*name {
            "status" => state = r.str()?.and_then(|s| CellState::parse(&s)),
            "attempts" => attempts = r.u64()?.and_then(|n| u32::try_from(n).ok()),
            "detail" => detail = r.str()?,
            _ => r.skip()?,
        }
    }
    Ok(state
        .zip(attempts)
        .zip(detail)
        .map(|((state, attempts), detail)| CellStatus {
            state,
            attempts,
            detail: detail.into_owned(),
        }))
}

/// The tree decoder [`Manifest::decode`] replaced: [`json::parse`]
/// into a [`Value`](json::Value), then field lookups. Kept as the
/// oracle the one-pass decoder is checked against.
#[cfg(test)]
fn decode_tree(bytes: &[u8]) -> Decoded {
    use mpr_obs::json;
    let Ok(body) = std::str::from_utf8(bytes) else {
        return Decoded::Corrupt;
    };
    let decoded = (|| {
        let value = json::parse(body).ok()?;
        if value.get("format")?.as_str()? != FORMAT {
            return Some(Decoded::Foreign);
        }
        let plan_hash = u64::from_str_radix(value.get("plan_hash")?.as_str()?, 16).ok()?;
        let mut cells = BTreeMap::new();
        for (key, entry) in value.get("cells")?.as_obj()? {
            cells.insert(
                key.clone(),
                CellStatus {
                    state: CellState::parse(entry.get("status")?.as_str()?)?,
                    attempts: u32::try_from(entry.get("attempts")?.as_u64()?).ok()?,
                    detail: entry.get("detail")?.as_str()?.to_string(),
                },
            );
        }
        Some(Decoded::Ours(Manifest { plan_hash, cells }))
    })();
    decoded.unwrap_or(Decoded::Corrupt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpr_obs::json::MAX_DEPTH;

    fn sample() -> Manifest {
        let mut m = Manifest::new(0xDEAD_BEEF_0123_4567);
        m.record(
            "seed=01;v2;dev=a",
            CellStatus {
                state: CellState::Ok,
                attempts: 1,
                detail: String::new(),
            },
        );
        m.record(
            "seed=01;v2;dev=b",
            CellStatus {
                state: CellState::Failed,
                attempts: 3,
                detail: "panicked: staged \"golden\" failure".to_string(),
            },
        );
        m.record(
            "seed=01;v2;dev=c",
            CellStatus {
                state: CellState::Hung,
                attempts: 2,
                detail: "hung: exceeded the 0.05s watchdog deadline".to_string(),
            },
        );
        m
    }

    fn agrees(bytes: &[u8]) {
        assert_eq!(
            Manifest::decode(bytes),
            decode_tree(bytes),
            "{}",
            String::from_utf8_lossy(bytes)
        );
    }

    #[test]
    fn hostile_ledgers_decode_as_the_tree_oracle_does() {
        let mut m = sample();
        m.record(
            "seed=01;v2;dev=\"é\\😀\"",
            CellStatus {
                state: CellState::Cancelled,
                attempts: u32::MAX,
                detail: "\u{1}\t".to_string(),
            },
        );
        let body = m.serialize().into_bytes();
        assert_eq!(Manifest::decode(&body), Decoded::Ours(m));
        for cut in 0..body.len() {
            agrees(&body[..cut]);
        }
        for i in 0..body.len() {
            for bit in 0..8 {
                let mut flipped = body.clone();
                flipped[i] ^= 1 << bit;
                agrees(&flipped);
            }
            for c in *b"+-\"\\{}[],:0f " {
                let mut swapped = body.clone();
                swapped[i] = c;
                agrees(&swapped);
            }
        }
    }

    #[test]
    fn rearranged_ledgers_decode_as_the_tree_oracle_does() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        // One `cells` member, with its fields out of the written order.
        let cell = |key: &str, status: &str, attempts: &str, extra: &str| {
            format!(
                r#""{key}": {{{extra}"attempts": {attempts}, "detail": "dé", "status": {status}}}"#
            )
        };
        let ledger = |head: &str, cells: &str, tail: &str| {
            format!(
                r#"{{{head}"cells": {{{cells}}}, "plan_hash": "00000000000000ff", "format": "mpr-exp-manifest-v1"{tail}}}"#
            )
        };
        let ok = cell("a", "\"ok\"", "1", "");
        let bad = cell("a", "7", "1", "");
        let at_cap = ledger(
            "",
            &cell(
                "a",
                "\"ok\"",
                "1",
                &format!("\"n\": {}, ", nested(MAX_DEPTH - 3)),
            ),
            "",
        );
        let past_cap = ledger(
            "",
            &cell(
                "a",
                "\"ok\"",
                "1",
                &format!("\"n\": {}, ", nested(MAX_DEPTH - 2)),
            ),
            "",
        );
        let texts = [
            ledger("", &ok, ""),
            ledger(r#""zz": [1, {"y": null}], "#, &ok, r#", "aa": "x""#),
            ledger("", &cell("a", "\"ok\"", "1", r#""u": [true], "#), ""),
            // A repeated cell or field takes its last value.
            ledger("", &format!("{bad}, {ok}"), ""),
            ledger("", &format!("{ok}, {bad}"), ""),
            ledger("", &cell("a", "\"ok\"", "1", r#""status": 7, "#), ""),
            ledger("", &cell("a", "\"ok\"", "4294967296", ""), ""),
            ledger("", &cell("a", "\"ok\"", "-1", ""), ""),
            ledger("", &cell("a", "\"lost\"", "1", ""), ""),
            ledger("", "\"a\": []", ""),
            ledger(r#""format": 7, "#, &ok, ""),
            ledger("", &ok, r#", "format": 7"#),
            ledger("", &ok, r#", "format": "mpr-exp-manifest-v9""#),
            ledger("", "\"a\": 1", r#", "format": "mpr-exp-manifest-v9""#),
            ledger("", &ok, r#", "plan_hash": "xyz""#),
            ledger("", &ok, r#", "plan_hash": "+f""#),
            ledger("", &ok, r#", "cells": null"#),
            ledger("", &cell("\\u0061\\ud83d\\ude00", "\"hung\"", "2", ""), ""),
            ledger(&format!("\"n\": {}, ", nested(10_000)), &ok, ""),
            format!("{} ", ledger("", &ok, "")),
            "[]".to_string(),
            at_cap.clone(),
            past_cap.clone(),
        ];
        for text in &texts {
            agrees(text.as_bytes());
        }
        assert!(matches!(
            Manifest::decode(at_cap.as_bytes()),
            Decoded::Ours(_)
        ));
        assert_eq!(Manifest::decode(past_cap.as_bytes()), Decoded::Corrupt);
    }

    /// Absolute ledger bytes, captured before the JSON module moved.
    #[test]
    fn manifest_bytes_are_pinned() {
        let mut m = Manifest::new(0x0123_4567_89AB_CDEF);
        m.record(
            "seed=01;v2;dev=a",
            CellStatus {
                state: CellState::Ok,
                attempts: 0,
                detail: String::new(),
            },
        );
        m.record(
            "seed=01;v2;dev=\"b\"",
            CellStatus {
                state: CellState::Failed,
                attempts: 3,
                detail: "panicked:\u{7}\r\n\"é\"".to_string(),
            },
        );
        assert_eq!(
            m.serialize(),
            "{\n  \"format\": \"mpr-exp-manifest-v1\",\n  \"plan_hash\": \"0123456789abcdef\",\n  \"cells\": {\n    \
             \"seed=01;v2;dev=\\\"b\\\"\": {\"status\": \"failed\", \"attempts\": 3, \"detail\": \"panicked:\\u0007\\r\\n\\\"é\\\"\"},\n    \
             \"seed=01;v2;dev=a\": {\"status\": \"ok\", \"attempts\": 0, \"detail\": \"\"}\n  }\n}\n"
        );
    }

    #[test]
    fn round_trips_through_disk() {
        let dir = std::env::temp_dir().join("mpr-exp-manifest-test-rt");
        let m = sample();
        m.save(&dir).expect("save");
        let loaded = Manifest::load(&dir).expect("load");
        assert_eq!(loaded, m);
        assert_eq!(
            loaded.unfinished(),
            vec!["seed=01;v2;dev=b", "seed=01;v2;dev=c"]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn absent_or_damaged_manifests_load_as_none() {
        let dir = std::env::temp_dir().join("mpr-exp-manifest-test-bad");
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(Manifest::load_traced(&RealFs, &dir), (None, false));
        std::fs::create_dir_all(&dir).expect("mkdir");

        // Torn bytes: quarantined to manifest.json.corrupt.
        std::fs::write(manifest_path(&dir), "{\"format\": \"mpr-exp-man").expect("write");
        assert_eq!(Manifest::load_traced(&RealFs, &dir), (None, true));
        assert!(!manifest_path(&dir).exists(), "damaged ledger moved aside");
        let quarantine = manifest_path(&dir).with_extension("json.corrupt");
        assert!(quarantine.exists());
        // The quarantined bytes are never re-parsed.
        assert_eq!(Manifest::load_traced(&RealFs, &dir), (None, false));

        // A future format version is ignored, not quarantined.
        std::fs::write(
            manifest_path(&dir),
            "{\"format\": \"mpr-exp-manifest-v99\", \"plan_hash\": \"00\", \"cells\": {}}",
        )
        .expect("write");
        assert_eq!(Manifest::load_traced(&RealFs, &dir), (None, false));
        assert!(manifest_path(&dir).exists(), "foreign ledger left alone");

        // Invalid UTF-8 counts as corruption too.
        std::fs::remove_file(&quarantine).expect("clear quarantine");
        std::fs::write(manifest_path(&dir), [0xFFu8, 0xFE, b'{']).expect("write");
        assert_eq!(Manifest::load_traced(&RealFs, &dir), (None, true));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn deeply_nested_manifest_is_quarantined() {
        let dir = std::env::temp_dir().join("mpr-exp-manifest-test-deep");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let body = format!("{{\"format\": {}", "[".repeat(100_000));
        std::fs::write(manifest_path(&dir), body).expect("write");
        assert_eq!(Manifest::load_traced(&RealFs, &dir), (None, true));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cancelled_state_round_trips() {
        let dir = std::env::temp_dir().join("mpr-exp-manifest-test-cancel");
        let _ = std::fs::remove_dir_all(&dir);
        let mut m = Manifest::new(0x7);
        m.record(
            "seed=01;v2;dev=z",
            CellStatus {
                state: CellState::Cancelled,
                attempts: 0,
                detail: "cancelled: run shut down before the cell executed".to_string(),
            },
        );
        m.save(&dir).expect("save");
        let loaded = Manifest::load(&dir).expect("load");
        assert_eq!(loaded, m);
        assert_eq!(loaded.unfinished(), vec!["seed=01;v2;dev=z"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn record_overwrites_and_merge_preserves() {
        // The engine's merge-on-write: load prior, record this plan's
        // cells, save. Cells from other plans survive.
        let dir = std::env::temp_dir().join("mpr-exp-manifest-test-merge");
        sample().save(&dir).expect("save");
        let mut next = Manifest::load(&dir).expect("load");
        next.plan_hash = 0x42;
        next.record(
            "seed=01;v2;dev=b",
            CellStatus {
                state: CellState::Ok,
                attempts: 2,
                detail: String::new(),
            },
        );
        next.save(&dir).expect("save");
        let merged = Manifest::load(&dir).expect("load");
        assert_eq!(merged.plan_hash, 0x42);
        assert_eq!(merged.cells.len(), 3, "other plans' cells preserved");
        assert_eq!(merged.unfinished(), vec!["seed=01;v2;dev=c"]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
