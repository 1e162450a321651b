//! What if the paper's GPU had ECC?
//!
//! The Titan V the paper irradiates ships without ECC; the same GV100
//! silicon in the Tesla V100 protects its register file and caches with
//! SECDED. The authors had to *triplicate their output data in HBM2* to
//! work around it (Section 3.2). This example answers the question the
//! fixed hardware could not: how much of each benchmark's FIT was
//! protectable array state vs naked arithmetic logic?
//!
//! ```text
//! cargo run --release --example ecc_what_if
//! ```

use mixed_precision_reliability::exp::{
    CellKey, DeviceId, Engine, ExperimentPlan, SamplingPlan, WorkloadId,
};
use mixed_precision_reliability::kernels::MicroKernelOp;
use mixed_precision_reliability::metrics::Table;
use mixed_precision_reliability::softfloat::Precision;

fn main() {
    let engine = Engine::new(99);

    let cases: [(&str, WorkloadId); 3] = [
        (
            "Micro-FMA",
            WorkloadId::Micro {
                op: MicroKernelOp::Fma,
                threads: 16,
                iters: 128,
            },
        ),
        ("MxM", WorkloadId::Gemm { dim: 14 }),
        ("YOLOv3", WorkloadId::Yolo),
    ];

    // Both GPU variants of every benchmark go into one plan: the engine
    // executes the 18 unique cells one after another, each campaign on
    // every worker thread.
    let mut plan = ExperimentPlan::new();
    for device in [DeviceId::TitanV, DeviceId::TeslaV100] {
        for (_, workload) in &cases {
            for precision in Precision::ALL {
                plan.push(CellKey::beam(
                    device,
                    *workload,
                    precision,
                    10.0,
                    900,
                    SamplingPlan::Fixed,
                ));
            }
        }
    }
    let results = engine.run(&plan);
    let (bare, ecc) = results.split_at(9);

    let mut table = Table::new(vec![
        "benchmark",
        "precision",
        "SDC FIT no ECC",
        "SDC FIT ECC",
        "reduction",
        "DUE change",
    ])
    .with_title("Titan V vs Tesla V100 (ECC) under the same beam");

    for (c, (name, _)) in cases.iter().enumerate() {
        for (p, precision) in Precision::ALL.iter().enumerate() {
            let b = bare[3 * c + p].beam();
            let e = ecc[3 * c + p].beam();
            table.row(vec![
                name.to_string(),
                precision.to_string(),
                format!("{:.2e}", b.fit_sdc().au()),
                format!("{:.2e}", e.fit_sdc().au()),
                format!("{:.1}x", b.fit_sdc().au() / e.fit_sdc().au()),
                format!(
                    "{:+.0}%",
                    (e.fit_due().au() / b.fit_due().au() - 1.0) * 100.0
                ),
            ]);
        }
    }

    println!("{table}");
    println!(
        "ECC pays off in proportion to how much of the exposure is array state:\n\
         the memory-bound MxM collapses, the register-resident microbenchmark\n\
         keeps most of its FIT (arithmetic logic has no parity), and some of\n\
         what ECC removes comes back as detected-uncorrectable DUEs."
    );
}
