//! The virtual filesystem boundary: every byte the engine persists —
//! cache entries, quarantines, the campaign manifest — moves through
//! the [`Vfs`] trait, so the persistence layer can be subjected to the
//! same hostile treatment the kernels get from fault injection.
//!
//! Two implementations ship:
//!
//! * [`RealFs`] — the passthrough to `std::fs`, plus the durability
//!   primitives (`sync_file`, `sync_dir`) the commit path needs.
//! * [`ChaosFs`] — a deterministic fault injector wrapping any inner
//!   `Vfs`. Faults are drawn from a seeded splitmix64 schedule keyed by
//!   *operation identity* — `(operation kind, file name, per-name
//!   occurrence index)` — never by global arrival order, so the same
//!   `--chaos-seed` injects the same faults regardless of thread count
//!   or which worker touches the file first. Directory-level
//!   operations have no distinguishing name and collapse to one
//!   identity per operation kind. The one arrival-order knob is the
//!   simulated crash point (`crash_at`): a fail-stop kill after the
//!   first K operations, exact under one thread and approximate above.
//!
//! The durable commit discipline lives here too: [`commit_durable`]
//! writes `tmp` → fsyncs the file → renames into place → fsyncs the
//! parent directory, so a committed entry survives a power cut and a
//! torn write is only ever visible as a stale `*.tmp` the store sweeps
//! on open.
#![expect(
    clippy::disallowed_methods,
    reason = "this module is the Vfs layer; RealFs is the one sanctioned home of direct std::fs calls in mpr-exp"
)]

use mpr_obs::{fnv1a64, mix_seed, splitmix64};
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Filesystem operations the persistence layer is allowed to perform.
///
/// Each method is one *operation* from the chaos layer's point of
/// view: one schedule draw, one potential fault, one trace line.
pub trait Vfs: Send + Sync + std::fmt::Debug {
    /// Reads a file's full contents.
    ///
    /// # Errors
    ///
    /// Propagates the underlying (or injected) I/O error.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;

    /// Writes a file's full contents (create or truncate).
    ///
    /// # Errors
    ///
    /// Propagates the underlying (or injected) I/O error; an injected
    /// torn write may leave a prefix of `bytes` behind.
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;

    /// Atomically renames `from` to `to`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying (or injected) I/O error.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;

    /// Removes a file.
    ///
    /// # Errors
    ///
    /// Propagates the underlying (or injected) I/O error.
    fn remove_file(&self, path: &Path) -> io::Result<()>;

    /// Creates a directory and its ancestors.
    ///
    /// # Errors
    ///
    /// Propagates the underlying (or injected) I/O error.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;

    /// Flushes a file's contents and metadata to stable storage.
    ///
    /// # Errors
    ///
    /// Propagates the underlying (or injected) I/O error.
    fn sync_file(&self, path: &Path) -> io::Result<()>;

    /// Flushes a directory, making completed renames in it durable.
    ///
    /// # Errors
    ///
    /// Propagates the underlying (or injected) I/O error.
    fn sync_dir(&self, path: &Path) -> io::Result<()>;

    /// Lists a directory's entries, sorted by path so iteration order
    /// never depends on the underlying filesystem.
    ///
    /// # Errors
    ///
    /// Propagates the underlying (or injected) I/O error.
    fn read_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>>;
}

/// The passthrough [`Vfs`]: real files, plus real fsync.
#[derive(Debug, Default, Clone, Copy)]
pub struct RealFs;

impl Vfs for RealFs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        std::fs::write(path, bytes)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        std::fs::create_dir_all(path)
    }

    fn sync_file(&self, path: &Path) -> io::Result<()> {
        std::fs::File::open(path)?.sync_all()
    }

    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        // On Linux a directory opens as a plain handle and sync_all
        // issues the fsync that makes completed renames durable.
        std::fs::File::open(path)?.sync_all()
    }

    fn read_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(path)?
            .filter_map(Result::ok)
            .map(|e| e.path())
            .collect();
        entries.sort();
        Ok(entries)
    }
}

/// Commits `bytes` to `path` crash-durably: parent created, `tmp`
/// written and fsynced, renamed into place, parent directory fsynced.
/// After this returns `Ok`, the entry survives a power cut; if it
/// returns `Err`, the only possible residue is a `*.tmp` file the
/// store's open-time sweep removes — the destination is either the old
/// content or the new, never a torn mix.
///
/// # Errors
///
/// Propagates the first failing operation's error. The tmp file is
/// deliberately *not* cleaned up here: under an injected crash no
/// cleanup code runs either, and the sweep is the recovery path both
/// cases share.
pub fn commit_durable(vfs: &dyn Vfs, path: &Path, bytes: &[u8]) -> io::Result<()> {
    let parent = path
        .parent()
        .ok_or_else(|| io::Error::other("commit path has no parent directory"))?;
    vfs.create_dir_all(parent)?;
    let file_name = path
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or_else(|| io::Error::other("commit path has no file name"))?;
    let tmp = path.with_file_name(format!("{file_name}.tmp"));
    vfs.write(&tmp, bytes)?;
    vfs.sync_file(&tmp)?;
    vfs.rename(&tmp, path)?;
    vfs.sync_dir(parent)
}

/// Knobs of the deterministic fault schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosConfig {
    /// Seed of the splitmix64 fault schedule.
    pub seed: u64,
    /// Per-operation fault probability in `[0, 1]`.
    pub rate: f64,
    /// Fail-stop crash point: the first `crash_at` operations execute,
    /// every later one fails as if the process had been killed.
    pub crash_at: Option<u64>,
}

impl ChaosConfig {
    /// A schedule that injects nothing (useful for counting operations).
    pub fn quiet(seed: u64) -> ChaosConfig {
        ChaosConfig {
            seed,
            rate: 0.0,
            crash_at: None,
        }
    }
}

/// Injected fault kinds, in counter order.
const FAULT_KINDS: [&str; 7] = [
    "write_fail",
    "torn_write",
    "enospc",
    "read_fail",
    "bit_flip",
    "rename_fail",
    "op_fail",
];

const WRITE_FAIL: usize = 0;
const TORN_WRITE: usize = 1;
const ENOSPC: usize = 2;
const READ_FAIL: usize = 3;
const BIT_FLIP: usize = 4;
const RENAME_FAIL: usize = 5;
const OP_FAIL: usize = 6;

/// A point-in-time snapshot of a [`ChaosFs`]'s accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosStats {
    /// Operations that reached the chaos layer.
    pub ops: u64,
    /// Injected faults per kind, in a stable order.
    pub injected: Vec<(&'static str, u64)>,
    /// Operations that executed cleanly (no fault, no crash).
    pub survived: u64,
    /// Whether the simulated crash point was reached.
    pub crashed: bool,
}

impl ChaosStats {
    /// Total injected faults across every kind.
    pub fn injected_total(&self) -> u64 {
        self.injected.iter().map(|(_, n)| n).sum()
    }
}

/// A [`Vfs`] that injects deterministic faults in front of an inner
/// filesystem. See the module docs for the schedule's identity keying
/// and the crash model.
pub struct ChaosFs {
    inner: Arc<dyn Vfs>,
    cfg: ChaosConfig,
    /// Global arrival-order operation counter (drives `crash_at`).
    ops: AtomicU64,
    crashed: AtomicBool,
    /// Per `(operation, name)` occurrence counters — the deterministic
    /// part of an operation's identity.
    seq: Mutex<BTreeMap<String, u64>>,
    injected: [AtomicU64; 7],
    survived: AtomicU64,
    /// Human-readable per-operation log, in arrival order. Entries name
    /// only file names (never full paths), so traces compare across
    /// runs in different directories.
    trace: Mutex<Vec<String>>,
}

impl std::fmt::Debug for ChaosFs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChaosFs")
            .field("cfg", &self.cfg)
            .field("ops", &self.ops.load(Ordering::Relaxed))
            .field("crashed", &self.crashed.load(Ordering::Relaxed))
            .finish()
    }
}

/// What the schedule decided for one operation.
enum Decision {
    /// Execute the inner operation untouched.
    Clean,
    /// Inject a fault; the entropy picks the kind, torn lengths, and
    /// flipped bits.
    Fault(u64),
}

impl ChaosFs {
    /// A chaos layer over the real filesystem.
    pub fn new(cfg: ChaosConfig) -> ChaosFs {
        ChaosFs::over(Arc::new(RealFs), cfg)
    }

    /// A chaos layer over an arbitrary inner [`Vfs`].
    pub fn over(inner: Arc<dyn Vfs>, cfg: ChaosConfig) -> ChaosFs {
        ChaosFs {
            inner,
            cfg,
            ops: AtomicU64::new(0),
            crashed: AtomicBool::new(false),
            seq: Mutex::new(BTreeMap::new()),
            injected: std::array::from_fn(|_| AtomicU64::new(0)),
            survived: AtomicU64::new(0),
            trace: Mutex::new(Vec::new()),
        }
    }

    /// The configured schedule.
    pub fn config(&self) -> ChaosConfig {
        self.cfg
    }

    /// Snapshot of operation/fault accounting.
    pub fn stats(&self) -> ChaosStats {
        ChaosStats {
            ops: self.ops.load(Ordering::Relaxed),
            injected: FAULT_KINDS
                .iter()
                .zip(&self.injected)
                .map(|(name, n)| (*name, n.load(Ordering::Relaxed)))
                .collect(),
            survived: self.survived.load(Ordering::Relaxed),
            crashed: self.crashed.load(Ordering::Relaxed),
        }
    }

    /// The per-operation log in arrival order (thread-dependent).
    #[expect(
        clippy::expect_used,
        reason = "a poisoned trace lock means a sibling holder panicked; the trace is then meaningless"
    )]
    pub fn trace(&self) -> Vec<String> {
        self.trace.lock().expect("chaos trace lock").clone()
    }

    /// The per-operation log sorted lexically — identical across thread
    /// counts for the same schedule, the form tests compare.
    pub fn trace_sorted(&self) -> Vec<String> {
        let mut t = self.trace();
        t.sort_unstable();
        t
    }

    /// The identity name of a path: its file name, or `<dir>` for
    /// directory-level operations (which have no stable name — temp
    /// directories differ across runs).
    fn name_of(path: &Path, dir_op: bool) -> String {
        if dir_op {
            return "<dir>".to_string();
        }
        path.file_name()
            .and_then(|n| n.to_str())
            .map_or_else(|| "<dir>".to_string(), str::to_string)
    }

    /// One schedule draw. Increments the arrival counter, applies the
    /// fail-stop crash, then decides the operation's fate from its
    /// identity alone.
    fn draw(&self, op: &'static str, name: &str) -> io::Result<Decision> {
        let idx = self.ops.fetch_add(1, Ordering::Relaxed);
        if self.crashed.load(Ordering::Relaxed) || self.cfg.crash_at.is_some_and(|k| idx >= k) {
            self.crashed.store(true, Ordering::Relaxed);
            self.log(op, name, "crashed");
            return Err(io::Error::other(format!(
                "chaos: simulated crash (operation {idx} past crash point)"
            )));
        }
        if self.cfg.rate <= 0.0 {
            return Ok(Decision::Clean);
        }
        let n = if name == "<dir>" {
            // Directory operations collapse to one identity per kind;
            // see the module docs.
            0
        } else {
            #[expect(
                clippy::expect_used,
                reason = "a poisoned schedule lock means a sibling holder panicked; determinism is already lost"
            )]
            let mut seq = self.seq.lock().expect("chaos schedule lock");
            let slot = seq.entry(format!("{op}:{name}")).or_insert(0);
            let n = *slot;
            *slot += 1;
            n
        };
        let identity = format!("{op}:{name}:{n}");
        let r = mix_seed(self.cfg.seed, fnv1a64(identity.as_bytes()));
        // 53 uniform bits → [0, 1); compare against the fault rate.
        let unit = (r >> 11) as f64 / (1u64 << 53) as f64;
        if unit < self.cfg.rate {
            Ok(Decision::Fault(splitmix64(r)))
        } else {
            Ok(Decision::Clean)
        }
    }

    fn log(&self, op: &str, name: &str, outcome: &str) {
        #[expect(
            clippy::expect_used,
            reason = "a poisoned trace lock means a sibling holder panicked; the trace is then meaningless"
        )]
        let mut t = self.trace.lock().expect("chaos trace lock");
        t.push(format!("{op} {name} -> {outcome}"));
    }

    fn inject(&self, kind: usize) {
        if let Some(counter) = self.injected.get(kind) {
            counter.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Fault-kind label without a panicking index: a bogus kind (none
    /// exist today) degrades to a generic label instead of an unwind.
    fn fault_name(kind: usize) -> &'static str {
        FAULT_KINDS.get(kind).copied().unwrap_or("fault")
    }

    fn clean(&self, op: &'static str, name: &str) {
        self.survived.fetch_add(1, Ordering::Relaxed);
        self.log(op, name, "ok");
    }

    fn fail(&self, op: &'static str, name: &str, kind: usize) -> io::Error {
        self.inject(kind);
        self.log(op, name, ChaosFs::fault_name(kind));
        let errkind = if kind == ENOSPC {
            io::ErrorKind::StorageFull
        } else {
            io::ErrorKind::Other
        };
        io::Error::new(
            errkind,
            format!(
                "chaos: injected {} on {op} {name}",
                ChaosFs::fault_name(kind)
            ),
        )
    }
}

impl Vfs for ChaosFs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let name = ChaosFs::name_of(path, false);
        match self.draw("read", &name)? {
            Decision::Clean => {
                let bytes = self.inner.read(path)?;
                self.clean("read", &name);
                Ok(bytes)
            }
            Decision::Fault(extra) => {
                if extra.is_multiple_of(2) {
                    return Err(self.fail("read", &name, READ_FAIL));
                }
                // Bit rot: the read succeeds but one bit lies. An
                // unreadable or empty file degrades to a plain failure.
                let mut bytes = self
                    .inner
                    .read(path)
                    .map_err(|_| self.fail("read", &name, READ_FAIL))?;
                if bytes.is_empty() {
                    return Err(self.fail("read", &name, READ_FAIL));
                }
                let bit = (extra >> 8) % (bytes.len() as u64 * 8);
                if let Some(byte) = bytes.get_mut((bit / 8) as usize) {
                    *byte ^= 1 << (bit % 8);
                }
                self.inject(BIT_FLIP);
                self.log("read", &name, ChaosFs::fault_name(BIT_FLIP));
                Ok(bytes)
            }
        }
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let name = ChaosFs::name_of(path, false);
        match self.draw("write", &name)? {
            Decision::Clean => {
                self.inner.write(path, bytes)?;
                self.clean("write", &name);
                Ok(())
            }
            Decision::Fault(extra) => match extra % 3 {
                0 => Err(self.fail("write", &name, WRITE_FAIL)),
                1 => {
                    // Torn write: half the bytes land, then the error.
                    let half = bytes.get(..bytes.len() / 2).unwrap_or(&[]);
                    let _ = self.inner.write(path, half);
                    Err(self.fail("write", &name, TORN_WRITE))
                }
                _ => {
                    // ENOSPC after N bytes: a schedule-derived prefix
                    // fits, the rest does not.
                    let keep = if bytes.is_empty() {
                        0
                    } else {
                        ((extra >> 2) % bytes.len() as u64) as usize
                    };
                    let prefix = bytes.get(..keep).unwrap_or(&[]);
                    let _ = self.inner.write(path, prefix);
                    Err(self.fail("write", &name, ENOSPC))
                }
            },
        }
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let name = ChaosFs::name_of(to, false);
        match self.draw("rename", &name)? {
            Decision::Clean => {
                self.inner.rename(from, to)?;
                self.clean("rename", &name);
                Ok(())
            }
            Decision::Fault(_) => Err(self.fail("rename", &name, RENAME_FAIL)),
        }
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        let name = ChaosFs::name_of(path, false);
        match self.draw("remove", &name)? {
            Decision::Clean => {
                self.inner.remove_file(path)?;
                self.clean("remove", &name);
                Ok(())
            }
            Decision::Fault(_) => Err(self.fail("remove", &name, OP_FAIL)),
        }
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        let name = ChaosFs::name_of(path, true);
        match self.draw("mkdir", &name)? {
            Decision::Clean => {
                self.inner.create_dir_all(path)?;
                self.clean("mkdir", &name);
                Ok(())
            }
            Decision::Fault(_) => Err(self.fail("mkdir", &name, OP_FAIL)),
        }
    }

    fn sync_file(&self, path: &Path) -> io::Result<()> {
        let name = ChaosFs::name_of(path, false);
        match self.draw("syncfile", &name)? {
            Decision::Clean => {
                self.inner.sync_file(path)?;
                self.clean("syncfile", &name);
                Ok(())
            }
            Decision::Fault(_) => Err(self.fail("syncfile", &name, OP_FAIL)),
        }
    }

    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        let name = ChaosFs::name_of(path, true);
        match self.draw("syncdir", &name)? {
            Decision::Clean => {
                self.inner.sync_dir(path)?;
                self.clean("syncdir", &name);
                Ok(())
            }
            Decision::Fault(_) => Err(self.fail("syncdir", &name, OP_FAIL)),
        }
    }

    fn read_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        let name = ChaosFs::name_of(path, true);
        match self.draw("readdir", &name)? {
            Decision::Clean => {
                let entries = self.inner.read_dir(path)?;
                self.clean("readdir", &name);
                Ok(entries)
            }
            Decision::Fault(_) => Err(self.fail("readdir", &name, OP_FAIL)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mpr-exp-vfs-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn commit_durable_orders_the_durability_protocol() {
        let dir = temp_dir("commit");
        let chaos = ChaosFs::new(ChaosConfig::quiet(1));
        let path = dir.join("entry.json");
        commit_durable(&chaos, &path, b"payload").expect("commit");
        assert_eq!(std::fs::read(&path).expect("read back"), b"payload");
        assert!(!path.with_file_name("entry.json.tmp").exists());
        // The exact protocol, in order: mkdir, tmp write, tmp fsync,
        // rename, parent fsync.
        assert_eq!(
            chaos.trace(),
            vec![
                "mkdir <dir> -> ok",
                "write entry.json.tmp -> ok",
                "syncfile entry.json.tmp -> ok",
                "rename entry.json -> ok",
                "syncdir <dir> -> ok",
            ]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_point_is_fail_stop() {
        let dir = temp_dir("crash");
        let chaos = ChaosFs::new(ChaosConfig {
            seed: 2,
            rate: 0.0,
            crash_at: Some(2),
        });
        let path = dir.join("entry.json");
        // Ops 0 and 1 (mkdir, write) execute; op 2 (syncfile) and every
        // later op fail as if the process had died.
        let err = commit_durable(&chaos, &path, b"payload").expect_err("must crash");
        assert!(err.to_string().contains("simulated crash"), "{err}");
        assert!(chaos.stats().crashed);
        assert!(!path.exists(), "rename never ran");
        assert!(path.with_file_name("entry.json.tmp").exists(), "torn tmp");
        // Once crashed, even a fresh operation fails.
        assert!(chaos.read(&path).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn schedule_is_a_pure_function_of_identity() {
        // Two independent chaos layers over different directories draw
        // identical fault sequences for the same operation identities.
        let cfg = ChaosConfig {
            seed: 0xC4A0_55ED,
            rate: 0.5,
            crash_at: None,
        };
        let run = |tag: &str| {
            let dir = temp_dir(tag);
            std::fs::create_dir_all(&dir).expect("mkdir");
            let chaos = ChaosFs::new(cfg);
            for i in 0..8 {
                let path = dir.join(format!("{i:02}.json"));
                let _ = chaos.write(&path, b"abcdefgh");
                let _ = chaos.read(&path);
            }
            let trace = chaos.trace();
            let _ = std::fs::remove_dir_all(&dir);
            trace
        };
        let a = run("sched-a");
        let b = run("sched-b");
        assert_eq!(a, b);
        // At 50% the schedule must actually inject something.
        assert!(a.iter().any(|l| !l.ends_with("ok")), "{a:?}");
    }

    #[test]
    fn repeated_ops_on_one_name_draw_distinct_faults() {
        let dir = temp_dir("seq");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let chaos = ChaosFs::new(ChaosConfig {
            seed: 77,
            rate: 0.5,
            crash_at: None,
        });
        let path = dir.join("same.json");
        let outcomes: Vec<bool> = (0..16).map(|_| chaos.write(&path, b"x").is_ok()).collect();
        // The per-name occurrence index advances the schedule: at 50%
        // the same file must see both outcomes across 16 writes.
        assert!(outcomes.iter().any(|&ok| ok), "{outcomes:?}");
        assert!(outcomes.iter().any(|&ok| !ok), "{outcomes:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_flips_corrupt_exactly_one_bit() {
        let dir = temp_dir("flip");
        std::fs::create_dir_all(&dir).expect("mkdir");
        std::fs::write(dir.join("a.json"), vec![0u8; 64]).expect("seed file");
        // Scan seeds until the schedule flips a read of `a.json`.
        for seed in 0..256u64 {
            let chaos = ChaosFs::new(ChaosConfig {
                seed,
                rate: 0.9,
                crash_at: None,
            });
            if let Ok(bytes) = chaos.read(&dir.join("a.json")) {
                let flipped: u32 = bytes.iter().map(|b| b.count_ones()).sum();
                if flipped == 1 {
                    let _ = std::fs::remove_dir_all(&dir);
                    return;
                }
            }
        }
        panic!("no seed in 0..256 produced a bit flip");
    }

    #[test]
    fn stats_account_for_every_op() {
        let dir = temp_dir("stats");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let chaos = ChaosFs::new(ChaosConfig {
            seed: 3,
            rate: 0.5,
            crash_at: None,
        });
        for i in 0..12 {
            let _ = chaos.write(&dir.join(format!("{i}.json")), b"payload");
        }
        let stats = chaos.stats();
        assert_eq!(stats.ops, 12);
        assert_eq!(stats.survived + stats.injected_total(), 12);
        assert!(stats.injected_total() > 0, "{stats:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn real_fs_read_dir_is_sorted() {
        let dir = temp_dir("sorted");
        std::fs::create_dir_all(&dir).expect("mkdir");
        for name in ["c.json", "a.json", "b.json"] {
            std::fs::write(dir.join(name), b"x").expect("write");
        }
        let names: Vec<String> = RealFs
            .read_dir(&dir)
            .expect("read_dir")
            .iter()
            .filter_map(|p| p.file_name().and_then(|n| n.to_str()).map(str::to_string))
            .collect();
        assert_eq!(names, vec!["a.json", "b.json", "c.json"]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
