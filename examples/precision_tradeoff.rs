//! Precision advisor: sweep every (device, benchmark, precision)
//! configuration of the study and report which precision maximizes the
//! Mean Executions Between Failures — the question a system designer
//! would actually ask of this library.
//!
//! ```text
//! cargo run --release --example precision_tradeoff
//! ```
#![expect(
    clippy::expect_used,
    reason = "an example aborts with a message on a broken invariant"
)]

use mixed_precision_reliability::exp::{
    CellKey, DeviceId, Engine, ExperimentPlan, SamplingPlan, WorkloadId,
};
use mixed_precision_reliability::kernels::MicroKernelOp;
use mixed_precision_reliability::metrics::Table;
use mixed_precision_reliability::softfloat::Precision;

fn main() {
    let engine = Engine::new(7);

    let gemm = WorkloadId::Gemm { dim: 14 };
    let lavamd = WorkloadId::LavaMd {
        boxes: 2,
        particles: 3,
        knc_unit: false,
    };
    let lavamd_knc = WorkloadId::LavaMd {
        boxes: 2,
        particles: 3,
        knc_unit: true,
    };
    let lud = WorkloadId::Lud { dim: 16 };
    let micro_fma = WorkloadId::Micro {
        op: MicroKernelOp::Fma,
        threads: 16,
        iters: 128,
    };

    let configs: [(DeviceId, &str, WorkloadId); 7] = [
        (DeviceId::TitanV, "Micro-FMA", micro_fma),
        (DeviceId::TitanV, "LavaMD", lavamd),
        (DeviceId::TitanV, "MxM", gemm),
        (DeviceId::Knc3120a, "LavaMD", lavamd_knc),
        (DeviceId::Knc3120a, "MxM", gemm),
        (DeviceId::Knc3120a, "LUD", lud),
        (DeviceId::Zynq7000, "MxM", gemm),
    ];

    // Every supported cell of the survey goes into one plan, so the
    // engine runs the whole sweep in one pass, each campaign on every
    // worker thread (note the KNC and FPGA rows reuse the same MxM
    // workload — only the device column differs).
    let mut plan = ExperimentPlan::new();
    let mut requested = Vec::new();
    for (device, _, workload) in &configs {
        for precision in Precision::ALL {
            let cell = CellKey::beam(
                *device,
                *workload,
                precision,
                10.0,
                800,
                SamplingPlan::Fixed,
            );
            if cell.supported() {
                plan.push(cell.clone());
                requested.push(Some(cell));
            } else {
                requested.push(None);
            }
        }
    }
    let mut results = engine.run(&plan).into_iter();

    let mut table = Table::new(vec![
        "device",
        "benchmark",
        "MEBF double",
        "MEBF single",
        "MEBF half",
        "best",
    ])
    .with_title("Which precision completes the most executions between failures?");

    for (i, (device, name, _)) in configs.iter().enumerate() {
        let mut cells = vec![device.token().to_string(), name.to_string()];
        let mut best: Option<(Precision, f64)> = None;
        for (p, precision) in Precision::ALL.iter().enumerate() {
            if requested[3 * i + p].is_none() {
                cells.push("n/a".to_string());
                continue;
            }
            let result = results.next().expect("one result per supported cell");
            let mebf = result.beam().mebf().executions();
            cells.push(format!("{mebf:.2e}"));
            if best.is_none_or(|(_, b)| mebf > b) {
                best = Some((*precision, mebf));
            }
        }
        let (winner, _) = best.expect("at least one supported precision");
        cells.push(winner.to_string());
        table.row(cells);
    }

    println!("{table}");
    println!(
        "Note the one inversion: on the Xeon Phi, MxM's prefetcher favors double\n\
         precision enough that double wins MEBF despite single's wider vectors —\n\
         the paper's Table 2 / Figure 9 crossover."
    );
}
