//! Quickstart: measure how data precision changes the simulated
//! reliability of one benchmark on one device.
//!
//! Runs a beam campaign for the MxM kernel on the Volta GPU model at
//! double, single, and half precision, then reports the three headline
//! metrics of the paper: FIT (error rate), MEBF (performance-reliability
//! trade-off), and the fraction of errors a 1% output tolerance forgives.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use mixed_precision_reliability::exp::{
    CellKey, CellKind, ClassifierId, DeviceId, Engine, ExperimentPlan, SamplingPlan, WorkloadId,
};
use mixed_precision_reliability::metrics::Table;
use mixed_precision_reliability::softfloat::Precision;

fn main() {
    let engine = Engine::new(42);
    let gemm = WorkloadId::Gemm { dim: 16 };

    println!("device: NVIDIA Titan V (model)");
    println!(
        "workload: MxM 16x16 ({} fault sites per run)\n",
        gemm.build().site_count(Precision::Single)
    );

    // One experiment cell per precision; the engine runs the three
    // campaigns, each spread over every worker thread, and memoizes
    // them under their cell keys.
    let mut plan = ExperimentPlan::new();
    for precision in Precision::ALL {
        plan.push(CellKey {
            device: DeviceId::TitanV,
            workload: gemm,
            precision,
            kind: CellKind::Beam {
                hours: 10.0,
                target_candidates: 1500,
                classifier: ClassifierId::None,
                sampling: SamplingPlan::Fixed,
            },
        });
    }
    let results = engine.run(&plan);

    let mut table = Table::new(vec![
        "precision",
        "exec time [s]",
        "SDC FIT [a.u.]",
        "DUE FIT [a.u.]",
        "MEBF [a.u.]",
        "tolerable @1% TRE",
    ])
    .with_title("MxM on the Titan V model under simulated beam");

    for (precision, cell) in Precision::ALL.iter().zip(&results) {
        let result = cell.beam();
        table.row(vec![
            precision.to_string(),
            format!("{:.3}", result.exec_time_s),
            format!("{:.3e}", result.fit_sdc().au()),
            format!("{:.3e}", result.fit_due().au()),
            format!("{:.3e}", result.mebf().executions()),
            format!(
                "{:.1}%",
                result.tre_curve().tolerable_fraction(0.01) * 100.0
            ),
        ]);
    }

    println!("{table}");
    println!(
        "Reading: half precision finishes faster and exposes fewer bits, so it\n\
         completes the most executions between failures — but when it does fail,\n\
         fewer of its errors are small enough to tolerate (the paper's core result)."
    );
}
