//! Object-detection criticality study (the paper's Figure 11c): how
//! often does a transient fault in the detector change *what is
//! detected* rather than just perturbing scores — and how does the data
//! precision change that?
//!
//! ```text
//! cargo run --release --example yolo_criticality
//! ```

use mixed_precision_reliability::exp::{
    CellKey, DeviceId, Engine, ExperimentPlan, SamplingPlan, WorkloadId,
};
use mixed_precision_reliability::metrics::Table;
use mixed_precision_reliability::nn::TinyYolo;
use mixed_precision_reliability::softfloat::Precision;

fn main() {
    let engine = Engine::new(3);

    // Show what the fault-free detector sees.
    let golden = TinyYolo::decode(&WorkloadId::Yolo.build().run_golden(Precision::Single));
    println!("fault-free detections on the synthetic scene:");
    for d in &golden {
        println!(
            "  class {} score {:.2} box center ({:.1}, {:.1}) size {:.1}x{:.1}",
            d.class, d.score, d.bbox[0], d.bbox[1], d.bbox[2], d.bbox[3]
        );
    }
    println!();

    // `CellKey::beam` gives YOLO its detection classifier, and the named
    // classifier rides inside the cell key, so these are the same cells
    // the full study's Figures 10-13 execute — at a shared seed the
    // results would come straight from the cache.
    let mut plan = ExperimentPlan::new();
    for precision in Precision::ALL {
        plan.push(CellKey::beam(
            DeviceId::TitanV,
            WorkloadId::Yolo,
            precision,
            10.0,
            1200,
            SamplingPlan::Fixed,
        ));
    }
    let results = engine.run(&plan);

    let mut table = Table::new(vec![
        "precision",
        "SDCs",
        "tolerable",
        "detection changed",
        "classification changed",
    ])
    .with_title("YOLO-style detector under simulated beam (Titan V model)");

    for (precision, cell) in Precision::ALL.iter().zip(&results) {
        let result = cell.beam();
        let fractions = result.label_fractions();
        let get = |label: &str| {
            fractions
                .iter()
                .find(|(l, _)| *l == label)
                .map_or(0.0, |(_, f)| *f)
        };
        table.row(vec![
            precision.to_string(),
            result.sdc.events().to_string(),
            format!("{:.1}%", get("tolerable") * 100.0),
            format!("{:.1}%", get("detection") * 100.0),
            format!("{:.1}%", get("classification") * 100.0),
        ]);
    }

    println!("{table}");
    println!(
        "Most corruptions only nudge scores; the critical ones grow as precision\n\
         shrinks because a flipped bit perturbs a larger share of a narrow value\n\
         (paper Section 6.3, Figure 11c)."
    );
}
