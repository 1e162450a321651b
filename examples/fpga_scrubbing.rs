//! FPGA persistence ablation: what if the device were *not* reprogrammed
//! after each observed error?
//!
//! The paper reprograms the FPGA at every observed output error and
//! argues that letting configuration-memory faults accumulate would only
//! produce a stream of corrupted outputs (Section 4). This example
//! makes that argument quantitative with the [`PeriodicHook`] persistent
//! fault model: one struck processing element keeps corrupting every
//! operation mapped to it, run after run, until a scrub rewrites the
//! configuration memory.
//!
//! ```text
//! cargo run --release --example fpga_scrubbing
//! ```
#![expect(
    clippy::expect_used,
    reason = "an example aborts with a message on a broken invariant"
)]

use mixed_precision_reliability::arch::Fpga;
use mixed_precision_reliability::fault::hook::PeriodicHook;
use mixed_precision_reliability::fault::{ValueFault, Workload};
use mixed_precision_reliability::kernels::Gemm;
use mixed_precision_reliability::metrics::Table;
use mixed_precision_reliability::softfloat::Precision;

fn main() {
    let fpga = Fpga::zynq7000();
    let gemm = Gemm::new(12);
    let precision = Precision::Single;

    let pes = fpga
        .pe_count("MxM", precision)
        .expect("MxM is a studied design");
    let golden = gemm.run_golden(precision);

    // A configuration strike rewires PE 3: flip bit 28 of everything it
    // computes. Without scrubbing the corruption repeats every run.
    let strike_pe = 3 % pes;
    let fault = ValueFault::BitFlip(28);

    let mut table = Table::new(vec!["run", "corrupted outputs", "note"]).with_title(format!(
        "Persistent fault in 1 of {pes} PEs on the FPGA MxM circuit (single precision)"
    ));

    let scrub_period = 4; // scrub every 4th run
    for run in 0..8u32 {
        let scrubbed_this_run = run % scrub_period == 0 && run > 0;
        let outputs = if scrubbed_this_run {
            golden.clone() // scrub restored the bitstream
        } else {
            let mut hook = PeriodicHook::new(strike_pe, pes, fault);
            gemm.dispatch(precision, &mut hook)
        };
        let corrupted = outputs
            .iter()
            .zip(&golden)
            .filter(|(a, b)| a.to_bits() != b.to_bits())
            .count();
        table.row(vec![
            run.to_string(),
            format!("{corrupted}/{}", golden.len()),
            if scrubbed_this_run {
                "configuration scrub".to_string()
            } else if corrupted > 0 {
                "stuck PE corrupts its output stripe".to_string()
            } else {
                "fault latent (not sensitized)".to_string()
            },
        ]);
    }

    println!("{table}");
    println!(
        "Every unscrubbed run re-emits the same corrupted stripe: persistent\n\
         faults produce a stream of errors, so the paper's reprogram-on-error\n\
         policy (or periodic scrubbing) is what keeps the FIT measurement —\n\
         and any deployed FPGA — meaningful."
    );
}
