//! The campaign telemetry contract: the names, scopes and counts of the
//! events a plan records. `e2ebench`'s per-layer metrics and
//! `mpr report --profile` read these names, so a refactor of the
//! campaign drivers must leave them where they are.
//!
//! One fixed beam cell, one fixed injection cell and one adaptive
//! injection cell run through an `Engine` at two worker threads, and an
//! accumulation cell in a plan of its own. Every `Count` event is
//! pinned with its value; every `Time` and `Gauge` event by name and
//! scope (their values are timings).

use mixed_precision_reliability::exp::{
    CellKey, CellKind, DeviceId, Engine, ExperimentPlan, SamplingConfig, SamplingPlan, WorkloadId,
};
use mixed_precision_reliability::fault::FaultModel;
use mixed_precision_reliability::obs::{JsonlRecorder, Metric};
use mixed_precision_reliability::softfloat::Precision;
use std::sync::Arc;

#[test]
fn campaign_events_keep_their_names_scopes_and_counts() {
    let cells = [
        (
            "beam",
            CellKey::beam(
                DeviceId::TitanV,
                WorkloadId::Gemm { dim: 8 },
                Precision::Single,
                10.0,
                150,
                SamplingPlan::Fixed,
            ),
        ),
        (
            "inject",
            CellKey::inject(
                WorkloadId::Gemm { dim: 8 },
                Precision::Single,
                300,
                FaultModel::SingleBit,
                1.0,
                SamplingPlan::Fixed,
            ),
        ),
        (
            "adaptive",
            CellKey::inject(
                WorkloadId::Gemm { dim: 10 },
                Precision::Half,
                600,
                FaultModel::SingleBit,
                1.0,
                SamplingPlan::Adaptive(SamplingConfig::quick()),
            ),
        ),
    ];
    let (counts, timed) = events_of(&cells);
    assert_eq!(counts, COUNTS, "count events moved");
    assert_eq!(timed, TIMED, "time or gauge events moved");
}

#[test]
fn accumulation_cells_record_a_campaign_span() {
    let cells = [(
        "accumulate",
        CellKey {
            device: DeviceId::Zynq7000,
            workload: WorkloadId::Gemm { dim: 8 },
            precision: Precision::Double,
            kind: CellKind::Accumulate {
                faults: 4,
                trials: 30,
            },
        },
    )];
    let (counts, timed) = events_of(&cells);
    assert_eq!(
        counts,
        [
            "accumulate.sdc <accumulate> 27",
            "accumulate.trials <accumulate> 30",
            "cache.miss <accumulate> 1",
            "golden.compute gemm:8@double 1",
            "plan.requests  1",
            "plan.unique  1",
        ],
        "count events moved"
    );
    assert_eq!(
        timed,
        [
            "time campaign.wall <accumulate>",
            "time cell.exec <accumulate>",
            "time cell.queue <accumulate>",
            "time cell.total <accumulate>",
            "time plan.wall ",
        ],
        "time or gauge events moved"
    );
}

/// Runs the named `cells` as one plan through an `Engine` at two worker
/// threads and returns the sorted `name scope count` lines of its
/// `Count` events and `kind name scope` lines of its `Time` and `Gauge`
/// events, with each cell's scope shown as `<name>`.
fn events_of(cells: &[(&str, CellKey)]) -> (Vec<String>, Vec<String>) {
    let rec = Arc::new(JsonlRecorder::new());
    let engine = Engine::new(2019).with_threads(2).with_recorder(rec.clone());
    let mut plan = ExperimentPlan::new();
    for (_, key) in cells {
        plan.push(key.clone());
    }
    assert_eq!(engine.run(&plan).len(), cells.len());

    // Scopes are canonical cell keys (or golden keys); name each cell
    // by its role so the pin reads as a table.
    let alias = |scope: &str| -> String {
        cells
            .iter()
            .find(|(_, key)| key.canonical() == scope)
            .map_or_else(|| scope.to_string(), |(name, _)| format!("<{name}>"))
    };
    let mut counts = Vec::new();
    let mut timed = Vec::new();
    for e in rec.events() {
        match e.metric {
            Metric::Count(n) => counts.push(format!("{} {} {n}", e.name, alias(&e.scope))),
            Metric::Time(_) => timed.push(format!("time {} {}", e.name, alias(&e.scope))),
            Metric::Gauge(_) => timed.push(format!("gauge {} {}", e.name, alias(&e.scope))),
        }
    }
    counts.sort();
    timed.sort();
    (counts, timed)
}

/// `name scope count` of every `Count` event, sorted. A zero count
/// records no event.
const COUNTS: &[&str] = &[
    "beam.candidates <beam> 156",
    "beam.due <beam> 3",
    "beam.executed <beam> 156",
    "beam.masked <beam> 1",
    "beam.sdc <beam> 152",
    "cache.miss <adaptive> 1",
    "cache.miss <beam> 1",
    "cache.miss <inject> 1",
    "golden.compute gemm:10@half 1",
    "golden.compute gemm:8@single 1",
    "golden.reuse gemm:8@single 1",
    "inject.executed <adaptive> 32",
    "inject.executed <inject> 300",
    "inject.injections <adaptive> 600",
    "inject.injections <inject> 300",
    "inject.masked <adaptive> 1",
    "inject.masked <inject> 3",
    "inject.sdc <adaptive> 31",
    "inject.sdc <inject> 297",
    "inject.strikes_saved <adaptive> 568",
    "plan.requests  3",
    "plan.unique  3",
];

/// `kind name scope` of every `Time` and `Gauge` event, sorted: one
/// `*.worker_busy` per worker per round.
const TIMED: &[&str] = &[
    "gauge beam.ci_width <beam>",
    "gauge beam.strikes_per_s <beam>",
    "gauge beam.utilization <beam>",
    "gauge inject.ci_width <adaptive>",
    "gauge inject.ci_width <inject>",
    "gauge inject.strikes_per_s <adaptive>",
    "gauge inject.strikes_per_s <inject>",
    "gauge inject.utilization <adaptive>",
    "gauge inject.utilization <inject>",
    "time beam.worker_busy <beam>",
    "time beam.worker_busy <beam>",
    "time campaign.wall <adaptive>",
    "time campaign.wall <beam>",
    "time campaign.wall <inject>",
    "time cell.exec <adaptive>",
    "time cell.exec <beam>",
    "time cell.exec <inject>",
    "time cell.queue <adaptive>",
    "time cell.queue <beam>",
    "time cell.queue <inject>",
    "time cell.total <adaptive>",
    "time cell.total <beam>",
    "time cell.total <inject>",
    "time inject.worker_busy <adaptive>",
    "time inject.worker_busy <adaptive>",
    "time inject.worker_busy <inject>",
    "time inject.worker_busy <inject>",
    "time plan.wall ",
];
