//! The result store: in-memory memoization plus an optional on-disk
//! JSON cache, shared by every figure of a study.

use crate::cache;
use crate::cell::CellKey;
use crate::vfs::{RealFs, Vfs};
use mpr_beam::CampaignResult;
use mpr_fault::InjectionReport;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// The outcome of an FPGA error-accumulation cell: `trials` runs with
/// `faults` stuck-at configuration upsets piled up in each.
#[derive(Debug, Clone, PartialEq)]
pub struct AccumulateOutcome {
    /// Fraction of trials whose output was corrupted.
    pub sdc_probability: f64,
    /// Mean fraction of output elements corrupted, among SDC trials.
    pub corruption_extent: f64,
    /// Number of trials behind the estimate.
    pub trials: u32,
}

/// The result of one executed (or cached) experiment cell.
#[derive(Debug, Clone)]
pub enum CellResult {
    /// A beam campaign outcome.
    Beam(CampaignResult),
    /// A fault-injection campaign outcome.
    Inject(InjectionReport),
    /// An error-accumulation sweep point.
    Accumulate(AccumulateOutcome),
}

impl CellResult {
    /// The beam campaign result inside.
    ///
    /// # Panics
    ///
    /// Panics if the cell was not a beam cell — a plan-construction bug.
    #[expect(clippy::panic, reason = "documented under `# Panics`")]
    pub fn beam(&self) -> &CampaignResult {
        match self {
            CellResult::Beam(r) => r,
            other => panic!("expected a beam result, got {other:?}"),
        }
    }

    /// The injection report inside.
    ///
    /// # Panics
    ///
    /// Panics if the cell was not an injection cell.
    #[expect(clippy::panic, reason = "documented under `# Panics`")]
    pub fn inject(&self) -> &InjectionReport {
        match self {
            CellResult::Inject(r) => r,
            other => panic!("expected an injection result, got {other:?}"),
        }
    }

    /// The accumulation outcome inside.
    ///
    /// # Panics
    ///
    /// Panics if the cell was not an accumulation cell.
    #[expect(clippy::panic, reason = "documented under `# Panics`")]
    pub fn accumulate(&self) -> &AccumulateOutcome {
        match self {
            CellResult::Accumulate(r) => r,
            other => panic!("expected an accumulation result, got {other:?}"),
        }
    }
}

/// Where a [`ResultStore::lookup_traced`] answer came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LookupSource {
    /// Served by the in-memory memo table.
    Memory,
    /// Served by the on-disk cache (and promoted to memory).
    Disk,
    /// Not cached anywhere; the cell must execute.
    Miss,
    /// A disk entry existed but was corrupt; it was quarantined to
    /// `<name>.corrupt` and the cell must execute.
    CorruptQuarantined,
}

/// Memoized results and golden outputs for one study.
///
/// The store is keyed by the *store key* — the base seed plus the
/// cell's canonical encoding — so a single store can safely serve
/// studies at different seeds (and an on-disk cache directory can be
/// shared across runs and seeds). Golden outputs are memoized
/// separately per (workload × precision): a golden run is seed- and
/// device-independent, so every cell sharing that pair reuses one run.
pub struct ResultStore {
    results: Mutex<BTreeMap<String, CellResult>>,
    goldens: Mutex<BTreeMap<String, Arc<Vec<f64>>>>,
    cache_dir: Option<PathBuf>,
    vfs: Arc<dyn Vfs>,
    executed: AtomicU64,
    mem_hits: AtomicU64,
    disk_hits: AtomicU64,
    quarantined: AtomicU64,
    tmp_swept: AtomicU64,
}

impl std::fmt::Debug for ResultStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResultStore")
            .field("cache_dir", &self.cache_dir)
            .field("executed", &self.executed())
            .field("mem_hits", &self.mem_hits())
            .field("disk_hits", &self.disk_hits())
            .field("quarantined", &self.quarantined())
            .finish()
    }
}

impl Default for ResultStore {
    fn default() -> Self {
        ResultStore::in_memory()
    }
}

impl ResultStore {
    /// A purely in-memory store.
    pub fn in_memory() -> ResultStore {
        ResultStore {
            results: Mutex::new(BTreeMap::new()),
            goldens: Mutex::new(BTreeMap::new()),
            cache_dir: None,
            vfs: Arc::new(RealFs),
            executed: AtomicU64::new(0),
            mem_hits: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            tmp_swept: AtomicU64::new(0),
        }
    }

    /// A store backed by an on-disk JSON cache directory (created on
    /// first write). Disk entries survive the process, so repeated
    /// reports are incremental.
    pub fn with_cache_dir(dir: impl Into<PathBuf>) -> ResultStore {
        ResultStore::with_cache_dir_on(dir, Arc::new(RealFs))
    }

    /// [`ResultStore::with_cache_dir`] with an explicit filesystem —
    /// the seam where the chaos layer plugs in. Opening the store
    /// sweeps stale `*.tmp` files a crashed writer left behind (the
    /// durable-commit protocol guarantees they are the *only* possible
    /// residue); the count is retrievable via
    /// [`ResultStore::take_tmp_swept`].
    pub fn with_cache_dir_on(dir: impl Into<PathBuf>, vfs: Arc<dyn Vfs>) -> ResultStore {
        let dir = dir.into();
        let mut swept = 0u64;
        if let Ok(entries) = vfs.read_dir(&dir) {
            for path in entries {
                let is_tmp = path.extension().is_some_and(|e| e == "tmp");
                if is_tmp && vfs.remove_file(&path).is_ok() {
                    swept += 1;
                }
            }
        }
        ResultStore {
            cache_dir: Some(dir),
            vfs,
            tmp_swept: AtomicU64::new(swept),
            ..ResultStore::in_memory()
        }
    }

    /// The filesystem this store's disk traffic routes through.
    pub fn vfs(&self) -> Arc<dyn Vfs> {
        Arc::clone(&self.vfs)
    }

    /// The disk cache directory, if any.
    pub fn cache_dir(&self) -> Option<&Path> {
        self.cache_dir.as_deref()
    }

    /// The store key for a cell under a base seed.
    pub fn store_key(base_seed: u64, key: &CellKey) -> String {
        format!("seed={base_seed:016x};{}", key.canonical())
    }

    /// Looks a cell up, consulting memory first and then the disk
    /// cache. Disk entries embed their full store key and are verified
    /// against it on load; a mismatch (hash collision or stale format)
    /// is a miss, never a wrong answer.
    pub fn lookup(&self, store_key: &str) -> Option<CellResult> {
        self.lookup_traced(store_key).0
    }

    /// [`ResultStore::lookup`], additionally reporting where the answer
    /// came from so callers can record cache telemetry.
    #[expect(
        clippy::expect_used,
        reason = "a poisoned store lock means a worker already panicked; propagating is the only sound option"
    )]
    pub fn lookup_traced(&self, store_key: &str) -> (Option<CellResult>, LookupSource) {
        if let Some(hit) = self.results.lock().expect("store lock").get(store_key) {
            self.mem_hits.fetch_add(1, Ordering::Relaxed);
            return (Some(hit.clone()), LookupSource::Memory);
        }
        let Some(dir) = self.cache_dir.as_ref() else {
            return (None, LookupSource::Miss);
        };
        let path = cache::entry_path(dir, store_key);
        let loaded = match cache::load(self.vfs.as_ref(), &path, store_key) {
            cache::LoadOutcome::Hit(result) => result,
            cache::LoadOutcome::Miss => return (None, LookupSource::Miss),
            cache::LoadOutcome::Corrupt => {
                // Quarantine in place (rename is atomic) so the damaged
                // bytes stay inspectable but are never re-parsed, then
                // fall through to recomputation.
                let quarantine = path.with_extension("corrupt");
                if self.vfs.rename(&path, &quarantine).is_ok() {
                    self.quarantined.fetch_add(1, Ordering::Relaxed);
                    eprintln!(
                        "mpr-exp: quarantined corrupt cache entry {} -> {}",
                        path.display(),
                        quarantine.display()
                    );
                }
                return (None, LookupSource::CorruptQuarantined);
            }
        };
        self.disk_hits.fetch_add(1, Ordering::Relaxed);
        let mut results = self.results.lock().expect("store lock");
        results.insert(store_key.to_string(), loaded.clone());
        (Some(loaded), LookupSource::Disk)
    }

    /// Records a freshly executed result, writing it through to the
    /// disk cache when one is configured. The result is memoized in
    /// memory unconditionally; the returned error reports a failed disk
    /// write so callers can count the lost warm-start bytes instead of
    /// silently losing them.
    pub fn insert(&self, store_key: &str, result: CellResult) -> std::io::Result<()> {
        self.executed.fetch_add(1, Ordering::Relaxed);
        let disk = match &self.cache_dir {
            Some(dir) => cache::save(self.vfs.as_ref(), dir, store_key, &result),
            None => Ok(()),
        };
        #[expect(
            clippy::expect_used,
            reason = "a poisoned store lock means a worker already panicked; propagating is the only sound option"
        )]
        let mut results = self.results.lock().expect("store lock");
        results.insert(store_key.to_string(), result);
        disk
    }

    /// A point-in-time snapshot of every memoized result, in sorted
    /// store-key order (deterministic across thread schedules and
    /// cache temperatures). Reports use this to enumerate what a study
    /// actually executed — e.g. the per-cell convergence table —
    /// without re-threading results through every figure.
    pub fn snapshot(&self) -> Vec<(String, CellResult)> {
        #[expect(
            clippy::expect_used,
            reason = "a poisoned store lock means a worker already panicked; propagating is the only sound option"
        )]
        let results = self.results.lock().expect("store lock");
        results
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }

    /// The golden output for a (workload × precision) pair, computing
    /// it with `compute` on first request and reusing it afterwards.
    pub fn golden(&self, golden_key: &str, compute: impl FnOnce() -> Vec<f64>) -> Arc<Vec<f64>> {
        {
            #[expect(
                clippy::expect_used,
                reason = "a poisoned store lock means a worker already panicked; propagating is the only sound option"
            )]
            let map = self.goldens.lock().expect("golden lock");
            if let Some(hit) = map.get(golden_key) {
                return Arc::clone(hit);
            }
        }
        // Compute outside the lock; a racing duplicate computes the
        // same deterministic value and the first insert wins.
        let value = Arc::new(compute());
        #[expect(
            clippy::expect_used,
            reason = "a poisoned store lock means a worker already panicked; propagating is the only sound option"
        )]
        let mut map = self.goldens.lock().expect("golden lock");
        Arc::clone(map.entry(golden_key.to_string()).or_insert(value))
    }

    /// How many cells this store actually executed (cache misses).
    pub fn executed(&self) -> u64 {
        self.executed.load(Ordering::Relaxed)
    }

    /// How many lookups were served from memory.
    pub fn mem_hits(&self) -> u64 {
        self.mem_hits.load(Ordering::Relaxed)
    }

    /// How many lookups were served from the disk cache.
    pub fn disk_hits(&self) -> u64 {
        self.disk_hits.load(Ordering::Relaxed)
    }

    /// How many corrupt disk entries this store quarantined.
    pub fn quarantined(&self) -> u64 {
        self.quarantined.load(Ordering::Relaxed)
    }

    /// Takes (and resets) the count of stale `*.tmp` files swept when
    /// the store opened, so the engine reports each sweep exactly once.
    pub fn take_tmp_swept(&self) -> u64 {
        self.tmp_swept.swap(0, Ordering::Relaxed)
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "fixtures plant raw, torn and corrupt files beneath the Vfs layer and clean up after themselves"
)]
mod tests {
    use super::*;

    #[test]
    fn golden_is_computed_once() {
        let store = ResultStore::in_memory();
        let mut calls = 0;
        let a = store.golden("gemm:12@single", || {
            calls += 1;
            vec![1.0, 2.0]
        });
        let b = store.golden("gemm:12@single", || panic!("golden recomputed"));
        assert_eq!(calls, 1);
        assert_eq!(a, b);
    }

    #[test]
    fn memoization_counts_hits() {
        let store = ResultStore::in_memory();
        let key = "seed=0000000000000001;v1;dev=x;wl=y;p=single;k=acc:k=1,t=1";
        assert!(store.lookup(key).is_none());
        store
            .insert(
                key,
                CellResult::Accumulate(AccumulateOutcome {
                    sdc_probability: 0.5,
                    corruption_extent: 0.25,
                    trials: 4,
                }),
            )
            .expect("in-memory insert never fails");
        let hit = store.lookup(key);
        assert!(hit.is_some());
        assert_eq!(store.executed(), 1);
        assert_eq!(store.mem_hits(), 1);
        assert_eq!(store.disk_hits(), 0);
    }

    #[test]
    fn corrupt_disk_entries_are_quarantined_once() {
        let dir = std::env::temp_dir().join("mpr-exp-store-test-quarantine");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let store = ResultStore::with_cache_dir(&dir);
        let key = "seed=0000000000000003;v2;dev=x;wl=y;p=half;k=acc:k=1,t=1";
        let path = cache::entry_path(&dir, key);
        std::fs::write(&path, "{\"format\": \"mpr-exp-cache-v1\", trunc").expect("write");

        let (hit, source) = store.lookup_traced(key);
        assert!(hit.is_none());
        assert_eq!(source, LookupSource::CorruptQuarantined);
        assert_eq!(store.quarantined(), 1);
        assert!(!path.exists(), "damaged file moved aside");
        assert!(path.with_extension("corrupt").exists());

        // The quarantined bytes are never re-parsed: the next lookup is
        // an ordinary miss.
        let (again, source) = store.lookup_traced(key);
        assert!(again.is_none());
        assert_eq!(source, LookupSource::Miss);
        assert_eq!(store.quarantined(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn deeply_nested_entry_is_quarantined_not_a_stack_overflow() {
        let dir = std::env::temp_dir().join("mpr-exp-store-test-deep");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let store = ResultStore::with_cache_dir(&dir);
        let key = "seed=0000000000000004;v2;dev=x;wl=y;p=half;k=acc:k=1,t=1";
        let path = cache::entry_path(&dir, key);
        let body = format!("{{\"format\": {}", "[".repeat(100_000));
        std::fs::write(&path, body).expect("write");
        assert!(matches!(
            cache::load(&RealFs, &path, key),
            cache::LoadOutcome::Corrupt
        ));

        let (hit, source) = store.lookup_traced(key);
        assert!(hit.is_none());
        assert_eq!(source, LookupSource::CorruptQuarantined);
        assert!(path.with_extension("corrupt").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn opening_a_store_sweeps_stale_tmp_files() {
        let dir = std::env::temp_dir().join("mpr-exp-store-test-sweep");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let key = "seed=000000000000000a;v2;dev=x;wl=y;p=half;k=acc:k=1,t=1";
        {
            let seeder = ResultStore::with_cache_dir(&dir);
            seeder
                .insert(
                    key,
                    CellResult::Accumulate(AccumulateOutcome {
                        sdc_probability: 0.5,
                        corruption_extent: 0.5,
                        trials: 1,
                    }),
                )
                .expect("insert");
        }
        // Residue of two crashed commits alongside the committed entry.
        std::fs::write(dir.join("aaaa.json.tmp"), "torn").expect("write");
        std::fs::write(dir.join("bbbb.json.tmp"), "torn").expect("write");
        let store = ResultStore::with_cache_dir(&dir);
        assert_eq!(store.take_tmp_swept(), 2);
        assert_eq!(store.take_tmp_swept(), 0, "reported exactly once");
        assert!(!dir.join("aaaa.json.tmp").exists());
        assert!(!dir.join("bbbb.json.tmp").exists());
        assert!(store.lookup(key).is_some(), "committed entry intact");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn insert_reports_disk_write_failures() {
        // Point the cache at a path occupied by a regular file: the
        // disk write fails, the memoization still works.
        let blocker = std::env::temp_dir().join("mpr-exp-store-test-blocked");
        std::fs::write(&blocker, "not a directory").expect("write blocker");
        let store = ResultStore::with_cache_dir(&blocker);
        let key = "seed=0000000000000004;v2;dev=x;wl=y;p=half;k=acc:k=1,t=1";
        let result = CellResult::Accumulate(AccumulateOutcome {
            sdc_probability: 1.0,
            corruption_extent: 1.0,
            trials: 1,
        });
        assert!(store.insert(key, result).is_err());
        assert!(store.lookup(key).is_some(), "memoization survives");
        let _ = std::fs::remove_file(&blocker);
    }
}
