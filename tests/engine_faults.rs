//! Hostile-workload tests for the engine's fault-tolerance harness:
//! per-cell isolation (healthy siblings of a failing cell complete),
//! deterministic retry (a recovered cell is byte-identical to an
//! untroubled run), watchdog classification of hung cells, and
//! checkpoint/resume through the campaign manifest.
//!
//! Every test uses its own hostile tag: the staged-failure registry is
//! keyed by tag and process-global, so tags must never be shared
//! between tests (they run in one test binary).
#![expect(
    clippy::expect_used,
    reason = "test helpers outside `#[test]` fns report a broken fixture by panicking"
)]

use mixed_precision_reliability::exp::{
    CellKey, CellKind, DeviceId, Engine, ExperimentPlan, FailureKind, Manifest, ResultStore,
    WorkloadId,
};
use mixed_precision_reliability::fault::hostile::HostileMode;
use mixed_precision_reliability::softfloat::Precision;
use std::sync::Arc;
use std::time::Duration;

fn hostile_cell(tag: u64, mode: HostileMode) -> CellKey {
    CellKey {
        device: DeviceId::TitanV,
        workload: WorkloadId::Hostile { tag, mode },
        precision: Precision::Single,
        kind: CellKind::Accumulate {
            faults: 2,
            trials: 4,
        },
    }
}

fn healthy_cell(precision: Precision) -> CellKey {
    CellKey {
        device: DeviceId::Zynq7000,
        workload: WorkloadId::Gemm { dim: 8 },
        precision,
        kind: CellKind::Accumulate {
            faults: 4,
            trials: 6,
        },
    }
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("mpr_faults_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Sorted (name, bytes) pairs of every cache entry in a directory.
fn cache_entries(dir: &std::path::Path) -> Vec<(String, Vec<u8>)> {
    let mut entries: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .expect("cache dir")
        .map(|e| e.expect("dir entry"))
        .filter(|e| e.path().extension().is_some_and(|x| x == "json"))
        .filter(|e| e.file_name() != "manifest.json")
        .map(|e| {
            (
                e.file_name().to_string_lossy().into_owned(),
                std::fs::read(e.path()).expect("read entry"),
            )
        })
        .collect();
    entries.sort();
    entries
}

#[test]
fn healthy_cells_complete_when_a_sibling_keeps_panicking() {
    // K-of-N failure plan: one cell panics on every attempt, three are
    // healthy. The healthy three must complete; the failure must be
    // structured, not a propagated panic.
    let mut plan = ExperimentPlan::new();
    plan.push(healthy_cell(Precision::Double));
    plan.push(hostile_cell(
        0xFA_0001,
        HostileMode::FlakyGolden { panics: u32::MAX },
    ));
    plan.push(healthy_cell(Precision::Single));
    plan.push(healthy_cell(Precision::Half));

    let engine = Engine::new(41).with_retries(1);
    let results = engine.try_run(&plan);
    assert_eq!(results.len(), 4);
    assert!(results[0].is_ok() && results[2].is_ok() && results[3].is_ok());
    let failure = results[1].as_ref().expect_err("hostile cell must fail");
    assert_eq!(failure.attempts, 2, "one attempt plus one retry");
    assert!(matches!(failure.kind, FailureKind::Panicked { .. }));
    assert!(failure.cell.contains("hostile"), "{}", failure.cell);
    assert_eq!(engine.store().executed(), 3, "healthy cells all executed");
}

#[test]
fn recovered_cells_are_byte_identical_to_untroubled_runs() {
    // Seed determinism: a retry reuses the cell's seed unchanged. The flaky
    // registry stages exactly one panic for this tag, so the first
    // engine needs a retry while the second (same key, same seed,
    // staged panics already consumed) runs clean. Their cache bytes
    // must match exactly.
    let key = hostile_cell(0xFA_0002, HostileMode::FlakyGolden { panics: 1 });

    let dir_a = temp_dir("retry_a");
    let recovered = Engine::new(43)
        .with_retries(2)
        .with_store(Arc::new(ResultStore::with_cache_dir(&dir_a)))
        .try_run_one(&key)
        .expect("retry must recover");

    let dir_b = temp_dir("retry_b");
    let clean = Engine::new(43)
        .with_store(Arc::new(ResultStore::with_cache_dir(&dir_b)))
        .try_run_one(&key)
        .expect("staged panics are spent; this run is clean");

    assert_eq!(recovered.accumulate().trials, clean.accumulate().trials);
    let (a, b) = (cache_entries(&dir_a), cache_entries(&dir_b));
    assert_eq!(a.len(), 1);
    assert_eq!(a, b, "recovered result must be byte-identical");

    std::fs::remove_dir_all(&dir_a).ok();
    std::fs::remove_dir_all(&dir_b).ok();
}

#[test]
fn hung_cells_are_classified_by_the_watchdog() {
    // Each dispatch stalls 400ms; the watchdog fires at 50ms. The
    // cooperative poll runs at strike-batch (here: trial) granularity,
    // so the cell is abandoned after the first trial, not mid-flight.
    let key = hostile_cell(0xFA_0003, HostileMode::SlowStrike { millis: 400 });
    let engine = Engine::new(47)
        .with_retries(1)
        .with_cell_timeout(Some(Duration::from_millis(50)));
    let failure = engine.try_run_one(&key).expect_err("cell must hang");
    assert_eq!(failure.attempts, 2);
    let FailureKind::Hung { timeout_s } = failure.kind else {
        panic!("expected Hung, got {:?}", failure.kind);
    };
    assert!((timeout_s - 0.05).abs() < 1e-9, "{timeout_s}");
    assert_eq!(engine.store().executed(), 0, "no partial result published");
}

#[test]
fn slow_but_not_stuck_cells_pass_an_ample_watchdog() {
    // The watchdog must not misclassify ordinary work: with a deadline
    // far above the cell's real cost, everything completes.
    let mut plan = ExperimentPlan::new();
    plan.push(healthy_cell(Precision::Double));
    plan.push(hostile_cell(0xFA_0004, HostileMode::WellBehaved));
    let engine = Engine::new(53).with_cell_timeout(Some(Duration::from_secs(120)));
    assert!(engine.try_run(&plan).iter().all(Result::is_ok));
}

#[test]
fn resume_re_executes_exactly_the_failed_subset() {
    let dir = temp_dir("resume");
    let flaky = hostile_cell(0xFA_0005, HostileMode::FlakyGolden { panics: 1 });
    let mut plan = ExperimentPlan::new();
    plan.push(healthy_cell(Precision::Double));
    plan.push(flaky.clone());
    plan.push(healthy_cell(Precision::Single));
    plan.push(healthy_cell(Precision::Half));

    // First run: no retries, so the flaky cell fails; the three healthy
    // cells land in the cache and the manifest records all four.
    let first = Engine::new(59).with_store(Arc::new(ResultStore::with_cache_dir(&dir)));
    let results = first.try_run(&plan);
    assert_eq!(results.iter().filter(|r| r.is_ok()).count(), 3);
    let manifest = Manifest::load(&dir).expect("manifest written");
    assert_eq!(manifest.cells.len(), 4);
    assert_eq!(manifest.unfinished().len(), 1, "exactly the flaky cell");
    let healthy_bytes = cache_entries(&dir);
    assert_eq!(healthy_bytes.len(), 3);

    // Resume: a fresh engine over the same cache. The staged panic is
    // spent, so the flaky cell now succeeds — and it is the *only*
    // cell that executes; the healthy three replay from disk
    // byte-identically.
    let second = Engine::new(59).with_store(Arc::new(ResultStore::with_cache_dir(&dir)));
    let resumed = second.try_run(&plan);
    assert!(resumed.iter().all(Result::is_ok));
    assert_eq!(second.store().executed(), 1, "only the failed cell re-ran");
    assert_eq!(second.store().disk_hits(), 3);
    let after = cache_entries(&dir);
    assert_eq!(after.len(), 4);
    for (name, bytes) in &healthy_bytes {
        let replayed = after.iter().find(|(n, _)| n == name).expect("entry kept");
        assert_eq!(&replayed.1, bytes, "{name} changed across resume");
    }
    let manifest = Manifest::load(&dir).expect("manifest rewritten");
    assert!(manifest.unfinished().is_empty(), "ledger now all ok");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn failure_outcomes_are_thread_count_invariant() {
    // An always-failing cell misbehaves identically on every attempt,
    // so the whole result vector — successes and structured failures
    // alike — must not depend on the worker-thread count. (The staged
    // panic *message* carries a process-global attempt number, so the
    // comparison covers results, failing cell, and attempt counts.)
    let run = |threads: usize| {
        let mut plan = ExperimentPlan::new();
        plan.push(healthy_cell(Precision::Double));
        plan.push(hostile_cell(
            0xFA_0006,
            HostileMode::FlakyGolden { panics: u32::MAX },
        ));
        plan.push(healthy_cell(Precision::Single));
        let engine = Engine::new(61).with_threads(threads);
        engine
            .try_run(&plan)
            .iter()
            .map(|r| match r {
                Ok(v) => format!("ok:{v:?}"),
                Err(f) => format!("err:{}:{} attempts", f.cell, f.attempts),
            })
            .collect::<Vec<_>>()
            .join("\n")
    };
    let baseline = run(1);
    assert_eq!(baseline, run(2));
    assert_eq!(baseline, run(5));
}
