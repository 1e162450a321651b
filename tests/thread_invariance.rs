//! Regression: campaign results and the on-disk cache must be
//! byte-identical regardless of the worker-thread count.
//!
//! Workers used to push severities and labels in per-worker stride
//! order, so the *vector order* inside a `CampaignResult` depended on
//! `--threads` even when the multiset of events did not. Aggregate
//! tables masked the bug; the raw vectors and the cached bytes exposed
//! it. Campaigns now tag every event with its strike index and merge in
//! strike order, making the raw result thread-invariant.
#![expect(
    clippy::expect_used,
    reason = "test helpers outside `#[test]` fns report a broken fixture by panicking"
)]

use mixed_precision_reliability::exp::{
    CellKey, CellKind, ClassifierId, DeviceId, Engine, ResultStore, SamplingPlan, WorkloadId,
};
use mixed_precision_reliability::fault::FaultModel;
use mixed_precision_reliability::softfloat::Precision;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

/// A classified beam cell: exercises severity order AND label order.
fn beam_cell() -> CellKey {
    CellKey {
        device: DeviceId::TitanV,
        workload: WorkloadId::Yolo,
        precision: Precision::Half,
        kind: CellKind::Beam {
            hours: 10.0,
            target_candidates: 160,
            classifier: ClassifierId::YoloDetections,
            sampling: SamplingPlan::Fixed,
        },
    }
}

/// An injection cell: exercises the fault campaign's merge path.
fn inject_cell() -> CellKey {
    CellKey {
        device: DeviceId::Knc3120a,
        workload: WorkloadId::Gemm { dim: 10 },
        precision: Precision::Single,
        kind: CellKind::Inject {
            injections: 200,
            model: FaultModel::SingleBit,
            live_fraction: 1.0,
            sampling: SamplingPlan::Fixed,
        },
    }
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("mpr_threadinv_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Every *result* cache file under `dir`, keyed by relative path.
/// `manifest.json` is excluded: it is run bookkeeping whose `attempts`
/// field legitimately changes between a cold run (1) and a warm replay
/// (0); its thread invariance is asserted separately on cold runs.
fn cache_bytes(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut files = BTreeMap::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d).expect("cache dir") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                stack.push(path);
            } else if path.file_name().is_some_and(|n| n != "manifest.json") {
                let rel = path
                    .strip_prefix(dir)
                    .expect("under cache dir")
                    .to_string_lossy()
                    .into_owned();
                files.insert(rel, std::fs::read(&path).expect("cache file"));
            }
        }
    }
    files
}

/// The exact observable surface of one run: raw event vectors (bit
/// patterns, not rounded displays) plus the bytes the cache persisted.
struct RunTrace {
    beam_severities: Vec<u64>,
    beam_labels: Vec<String>,
    inject_severities: Vec<u64>,
    cache: BTreeMap<String, Vec<u8>>,
}

fn run_cold(threads: usize, dir: &Path) -> RunTrace {
    let store = Arc::new(ResultStore::with_cache_dir(dir));
    let engine = Engine::new(99).with_threads(threads).with_store(store);
    let beam = engine.run_one(&beam_cell());
    let beam = beam.beam();
    let inject = engine.run_one(&inject_cell());
    let inject = inject.inject();
    RunTrace {
        beam_severities: beam.severities.iter().map(|s| s.to_bits()).collect(),
        beam_labels: beam.labels.iter().map(|l| l.to_string()).collect(),
        inject_severities: inject.severities.iter().map(|s| s.to_bits()).collect(),
        cache: cache_bytes(dir),
    }
}

#[test]
fn raw_campaign_vectors_and_cache_bytes_are_thread_invariant() {
    let base_dir = temp_dir("t1");
    let baseline = run_cold(1, &base_dir);
    assert!(
        !baseline.beam_severities.is_empty(),
        "cell must observe SDC events for the order to matter"
    );
    assert_eq!(baseline.beam_severities.len(), baseline.beam_labels.len());
    assert!(!baseline.cache.is_empty(), "cache must persist the cells");

    for threads in [2, 5] {
        let dir = temp_dir(&format!("t{threads}"));
        let trace = run_cold(threads, &dir);
        assert_eq!(
            trace.beam_severities, baseline.beam_severities,
            "beam severity order must not depend on threads={threads}"
        );
        assert_eq!(
            trace.beam_labels, baseline.beam_labels,
            "beam label order must not depend on threads={threads}"
        );
        assert_eq!(
            trace.inject_severities, baseline.inject_severities,
            "injection severity order must not depend on threads={threads}"
        );
        assert_eq!(
            trace.cache, baseline.cache,
            "on-disk cache bytes must not depend on threads={threads}"
        );
        assert_eq!(
            std::fs::read(dir.join("manifest.json")).ok(),
            std::fs::read(base_dir.join("manifest.json")).ok(),
            "cold-run manifest bytes must not depend on threads={threads}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    // Warm disk: a fresh store over the same directory replays both
    // cells without executing and leaves every byte untouched.
    let warm_store = Arc::new(ResultStore::with_cache_dir(&base_dir));
    let warm = Engine::new(99)
        .with_threads(5)
        .with_store(warm_store.clone());
    let beam = warm.run_one(&beam_cell());
    let inject = warm.run_one(&inject_cell());
    assert_eq!(warm_store.executed(), 0, "warm rerun must execute nothing");
    assert_eq!(warm_store.disk_hits(), 2);
    assert_eq!(
        beam.beam()
            .severities
            .iter()
            .map(|s| s.to_bits())
            .collect::<Vec<_>>(),
        baseline.beam_severities
    );
    assert_eq!(
        beam.beam()
            .labels
            .iter()
            .map(|l| l.to_string())
            .collect::<Vec<_>>(),
        baseline.beam_labels
    );
    assert_eq!(
        inject
            .inject()
            .severities
            .iter()
            .map(|s| s.to_bits())
            .collect::<Vec<_>>(),
        baseline.inject_severities
    );
    assert_eq!(cache_bytes(&base_dir), baseline.cache);

    std::fs::remove_dir_all(&base_dir).ok();
}
