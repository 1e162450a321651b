//! Crash-consistency property suite: the persistence layer must
//! converge to byte-identical artifacts no matter where a crash lands,
//! which faults the chaos schedule injects, or when the run is
//! cancelled.
//!
//! The central property (`a_crash_at_every_operation_is_recoverable`)
//! simulates a fail-stop crash at *every* filesystem operation of a
//! campaign in turn, restarts on a clean filesystem, and asserts the
//! recovered cache is byte-identical to an untroubled run's. Cache
//! entries are compared byte-wise; the manifest is compared
//! structurally (a resumed run legitimately records different attempt
//! counts) and must report nothing unfinished.
//!
//! Hostile tags are process-global; this file uses the 0xE0_00xx range.
#![expect(
    clippy::expect_used,
    reason = "test helpers outside `#[test]` fns report a broken fixture by panicking"
)]

use mixed_precision_reliability::exp::{
    CellKey, CellKind, CellState, ChaosConfig, ChaosFs, DeviceId, Engine, ExperimentPlan,
    FailureKind, Manifest, ResultStore, WorkloadId,
};
use mixed_precision_reliability::fault::hostile::HostileMode;
use mixed_precision_reliability::kernels::MicroKernelOp;
use mixed_precision_reliability::softfloat::Precision;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

fn accumulate_cell(workload: WorkloadId, precision: Precision) -> CellKey {
    CellKey {
        device: DeviceId::Zynq7000,
        workload,
        precision,
        kind: CellKind::Accumulate {
            faults: 4,
            trials: 6,
        },
    }
}

/// A small plan with more than one commit per run: two workloads at
/// two precisions.
fn small_plan() -> ExperimentPlan {
    let mut plan = ExperimentPlan::new();
    for workload in [
        WorkloadId::Gemm { dim: 8 },
        WorkloadId::Micro {
            op: MicroKernelOp::Add,
            threads: 32,
            iters: 256,
        },
    ] {
        for precision in [Precision::Single, Precision::Half] {
            plan.push(accumulate_cell(workload, precision));
        }
    }
    plan
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("mpr_crash_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Cache-entry bytes keyed by file name, excluding the manifest.
fn cache_bytes(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut out = BTreeMap::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return out;
    };
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        if name == "manifest.json" || !name.ends_with(".json") {
            continue;
        }
        out.insert(name, std::fs::read(entry.path()).expect("read cache entry"));
    }
    out
}

fn engine_on(dir: &Path, threads: usize) -> Engine {
    Engine::new(2019)
        .with_threads(threads)
        .with_store(Arc::new(ResultStore::with_cache_dir(dir)))
}

fn chaos_engine_on(dir: &Path, threads: usize, cfg: ChaosConfig) -> (Engine, Arc<ChaosFs>) {
    let chaos = Arc::new(ChaosFs::new(cfg));
    let engine = Engine::new(2019)
        .with_threads(threads)
        .with_store(Arc::new(ResultStore::with_cache_dir_on(dir, chaos.clone())));
    (engine, chaos)
}

/// Asserts the directory's manifest exists, parses, and records every
/// cell as finished.
fn assert_manifest_settled(dir: &Path) {
    let manifest = Manifest::load(dir).expect("manifest present after recovery");
    assert!(
        manifest.unfinished().is_empty(),
        "unfinished cells after recovery: {:?}",
        manifest.unfinished()
    );
}

/// The tentpole property: simulate a fail-stop crash at every
/// filesystem operation of the campaign in turn; after each crash,
/// restart on a clean filesystem and assert the recovered artifacts
/// are byte-identical to an untroubled run's.
#[test]
fn a_crash_at_every_operation_is_recoverable() {
    let plan = small_plan();

    // Golden artifacts from an untroubled run.
    let golden_dir = temp_dir("golden");
    engine_on(&golden_dir, 1).run(&plan);
    let golden = cache_bytes(&golden_dir);
    assert!(!golden.is_empty(), "golden run must persist entries");

    // Probe the operation count with a quiet (observe-only) schedule.
    let probe_dir = temp_dir("probe");
    let (engine, chaos) = chaos_engine_on(&probe_dir, 1, ChaosConfig::quiet(9));
    engine.run(&plan);
    let total_ops = chaos.stats().ops;
    assert!(
        total_ops > 10,
        "expected a real op sequence, got {total_ops}"
    );

    for k in 0..=total_ops {
        let dir = temp_dir(&format!("op{k}"));
        let (engine, chaos) = chaos_engine_on(
            &dir,
            1,
            ChaosConfig {
                seed: 9,
                rate: 0.0,
                crash_at: Some(k),
            },
        );
        // The in-memory results must survive any persistence outcome.
        let results = engine.try_run(&plan);
        assert!(
            results.iter().all(Result::is_ok),
            "crash at op {k} leaked into cell results"
        );
        assert!(
            k >= total_ops || chaos.stats().crashed,
            "crash point {k} never reached"
        );
        drop(engine);

        // Restart on a clean filesystem and resume.
        engine_on(&dir, 1).run(&plan);
        assert_eq!(
            cache_bytes(&dir),
            golden,
            "artifacts diverge after crash at op {k}"
        );
        assert_manifest_settled(&dir);
        std::fs::remove_dir_all(&dir).ok();
    }
    std::fs::remove_dir_all(&golden_dir).ok();
    std::fs::remove_dir_all(&probe_dir).ok();
}

/// The same seed must inject the same faults — independent of thread
/// count and of the directory the run persists into — and the
/// recovered artifacts must be identical.
#[test]
fn chaos_schedule_is_deterministic_across_thread_counts() {
    let plan = small_plan();
    let cfg = ChaosConfig {
        seed: 0xC0FFEE,
        rate: 0.15,
        crash_at: None,
    };

    let mut snapshots = Vec::new();
    let mut recovered = Vec::new();
    for threads in [1, 2, 5] {
        let dir = temp_dir(&format!("det{threads}"));
        let (engine, chaos) = chaos_engine_on(&dir, threads, cfg);
        engine.run(&plan);
        let stats = chaos.stats();
        snapshots.push((threads, chaos.trace_sorted(), stats.injected, stats.ops));
        // Recovery must converge regardless of what the storm hit.
        engine_on(&dir, threads).run(&plan);
        assert_manifest_settled(&dir);
        recovered.push(cache_bytes(&dir));
        std::fs::remove_dir_all(&dir).ok();
    }
    let (_, first_trace, first_injected, first_ops) = &snapshots[0];
    assert!(
        first_injected.iter().map(|(_, n)| n).sum::<u64>() > 0,
        "rate 0.15 over this plan should inject at least one fault"
    );
    for (threads, trace, injected, ops) in &snapshots[1..] {
        assert_eq!(trace, first_trace, "trace diverges at {threads} threads");
        assert_eq!(
            injected, first_injected,
            "fault mix diverges at {threads} threads"
        );
        assert_eq!(ops, first_ops, "op count diverges at {threads} threads");
    }
    for bytes in &recovered[1..] {
        assert_eq!(
            bytes, &recovered[0],
            "recovered artifacts diverge across thread counts"
        );
    }
}

/// A corrupt manifest ledger is quarantined, resume re-runs exactly
/// the uncached subset, and a fresh valid manifest replaces the bad
/// one.
#[test]
fn corrupt_manifest_is_quarantined_and_resume_completes() {
    let plan = {
        let mut plan = ExperimentPlan::new();
        plan.push(accumulate_cell(
            WorkloadId::Gemm { dim: 8 },
            Precision::Single,
        ));
        plan.push(accumulate_cell(
            WorkloadId::Gemm { dim: 8 },
            Precision::Half,
        ));
        plan
    };
    let dir = temp_dir("corrupt");

    // Seed the cache with only the first cell.
    let seeder = {
        let mut p = ExperimentPlan::new();
        p.push(plan.cells()[0].clone());
        p
    };
    engine_on(&dir, 1).run(&seeder);

    // Torn ledger: garbage where the manifest should be.
    std::fs::write(dir.join("manifest.json"), b"{\"format\":\"mpr-exp-man")
        .expect("write garbage manifest");

    let engine = engine_on(&dir, 1);
    let results = engine.try_run(&plan);
    assert!(results.iter().all(Result::is_ok));
    assert_eq!(
        engine.store().executed(),
        1,
        "only the uncached cell re-executes; the bad ledger never triggers a full re-run"
    );
    assert!(
        dir.join("manifest.json.corrupt").exists(),
        "bad ledger is preserved for forensics, not deleted"
    );
    let manifest = Manifest::load(&dir).expect("fresh manifest written");
    assert_eq!(manifest.cells.len(), 2);
    assert!(manifest
        .cells
        .values()
        .all(|status| status.state == CellState::Ok));
    std::fs::remove_dir_all(&dir).ok();
}

/// Every durable commit follows write-tmp, fsync-file, rename,
/// fsync-dir — observed through a quiet chaos layer's trace.
#[test]
fn durable_commits_follow_the_tmp_fsync_rename_protocol() {
    let plan = {
        let mut p = ExperimentPlan::new();
        p.push(accumulate_cell(
            WorkloadId::Gemm { dim: 8 },
            Precision::Double,
        ));
        p
    };
    let dir = temp_dir("protocol");
    let (engine, chaos) = chaos_engine_on(&dir, 1, ChaosConfig::quiet(3));
    engine.run(&plan);
    let trace = chaos.trace();

    // Two commits happen (cache entry, then manifest); spot-check the
    // manifest's commit obeys the protocol order within the trace.
    let idx = |needle: &str| {
        trace
            .iter()
            .position(|line| line == needle)
            .unwrap_or_else(|| panic!("`{needle}` missing from trace {trace:#?}"))
    };
    let write_tmp = idx("write manifest.json.tmp -> ok");
    let sync_tmp = idx("syncfile manifest.json.tmp -> ok");
    let rename = idx("rename manifest.json -> ok");
    let sync_dir = trace
        .iter()
        .rposition(|line| line == "syncdir <dir> -> ok")
        .expect("parent directory fsync present");
    assert!(
        write_tmp < sync_tmp && sync_tmp < rename && rename < sync_dir,
        "durability protocol out of order: {trace:#?}"
    );
    // The cache entry commit follows the same shape with a hashed name.
    assert!(
        trace
            .iter()
            .filter(|line| line.starts_with("syncfile ") && line.ends_with(".tmp -> ok"))
            .count()
            >= 2,
        "both commits fsync their tmp file: {trace:#?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Stale `*.tmp` residue from a crashed commit is swept when the store
/// opens, and real entries survive the sweep.
#[test]
fn stale_tmp_files_are_swept_on_store_open() {
    let plan = {
        let mut p = ExperimentPlan::new();
        p.push(accumulate_cell(
            WorkloadId::Gemm { dim: 8 },
            Precision::Single,
        ));
        p
    };
    let dir = temp_dir("sweep");
    engine_on(&dir, 1).run(&plan);
    let entries_before = cache_bytes(&dir);
    std::fs::write(dir.join("0123456789abcdef.json.tmp"), b"torn").expect("tmp residue");
    std::fs::write(dir.join("manifest.json.tmp"), b"torn").expect("tmp residue");

    let store = ResultStore::with_cache_dir(&dir);
    assert_eq!(store.take_tmp_swept(), 2, "both stale tmp files swept");
    assert!(!dir.join("0123456789abcdef.json.tmp").exists());
    assert!(!dir.join("manifest.json.tmp").exists());
    assert_eq!(
        cache_bytes(&dir),
        entries_before,
        "the sweep never touches committed entries"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A pre-cancelled engine completes nothing, consumes no attempt
/// budget, and flushes a manifest whose cancelled cells drive an exact
/// resume.
#[test]
fn cancelled_run_is_resumable() {
    let plan = small_plan();
    let dir = temp_dir("cancel");

    let engine = engine_on(&dir, 1);
    engine.cancel_token().cancel();
    let results = engine.try_run(&plan);
    for result in &results {
        match result {
            Err(failure) => {
                assert_eq!(failure.kind, FailureKind::Cancelled);
                assert_eq!(failure.attempts, 0, "no budget burned before start");
            }
            Ok(_) => panic!("pre-cancelled run completed a cell"),
        }
    }
    let manifest = Manifest::load(&dir).expect("cancelled run still flushes the ledger");
    assert!(manifest
        .cells
        .values()
        .all(|status| status.state == CellState::Cancelled));

    // Resume without the cancel: everything completes, and the final
    // artifacts match an untroubled run byte for byte.
    engine_on(&dir, 1).run(&plan);
    assert_manifest_settled(&dir);
    let clean_dir = temp_dir("cancel_clean");
    engine_on(&clean_dir, 1).run(&plan);
    assert_eq!(cache_bytes(&dir), cache_bytes(&clean_dir));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&clean_dir).ok();
}

/// A cancel landing mid-run finishes in-flight cells, cancels the
/// rest, and resumes to a byte-identical final state.
#[test]
fn mid_run_cancel_finishes_in_flight_cells_and_resumes() {
    let slow = accumulate_cell(
        WorkloadId::Hostile {
            tag: 0xE0_0010,
            mode: HostileMode::SlowStrike { millis: 40 },
        },
        Precision::Single,
    );
    let fast = accumulate_cell(WorkloadId::Gemm { dim: 8 }, Precision::Single);
    let mut plan = ExperimentPlan::new();
    plan.push(slow.clone());
    plan.push(fast.clone());

    let dir = temp_dir("midcancel");
    let engine = engine_on(&dir, 1);
    let token = engine.cancel_token();
    let canceller = std::thread::spawn(move || {
        std::thread::sleep(std::time::Duration::from_millis(15));
        token.cancel();
    });
    let results = engine.try_run(&plan);
    canceller.join().expect("canceller joins");
    let cancelled = results
        .iter()
        .filter(|r| matches!(r, Err(f) if f.kind == FailureKind::Cancelled))
        .count();
    assert!(
        cancelled >= 1,
        "the 15ms cancel should land before the plan drains: {results:?}"
    );

    // Resume: the fresh engine has no cancel; the run completes and
    // matches a never-cancelled run byte for byte.
    engine_on(&dir, 1).run(&plan);
    assert_manifest_settled(&dir);
    let clean_dir = temp_dir("midcancel_clean");
    engine_on(&clean_dir, 1).run(&plan);
    assert_eq!(cache_bytes(&dir), cache_bytes(&clean_dir));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&clean_dir).ok();
}
