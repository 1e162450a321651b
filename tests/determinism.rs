//! Reproducibility: every stochastic component is a pure function of its
//! seed, across thread counts and repeated runs.

use mixed_precision_reliability::arch::VoltaGpu;
use mixed_precision_reliability::beam::{expose, BeamSession};
use mixed_precision_reliability::fault::Workload;
use mixed_precision_reliability::fault::{inject, FaultModel, StrikeRunner};
use mixed_precision_reliability::kernels::{profiles, Gemm, LavaMd, Lud, Micro, MicroKernelOp};
use mixed_precision_reliability::softfloat::Precision;

#[test]
fn golden_runs_are_bit_identical() {
    let kernels: Vec<Box<dyn Workload>> = vec![
        Box::new(Gemm::new(10)),
        Box::new(LavaMd::new(2, 2)),
        Box::new(Lud::new(12)),
        Box::new(Micro::new(MicroKernelOp::Fma, 4, 64)),
    ];
    for k in &kernels {
        for p in Precision::ALL {
            if !k.supports(p) {
                continue;
            }
            let a = k.run_golden(p);
            let b = k.run_golden(p);
            let a_bits: Vec<u64> = a.iter().map(|v| v.to_bits()).collect();
            let b_bits: Vec<u64> = b.iter().map(|v| v.to_bits()).collect();
            assert_eq!(a_bits, b_bits, "{} at {p}", k.name());
        }
    }
}

#[test]
fn injection_campaigns_replay_exactly() {
    let gemm = Gemm::new(10);
    let golden = gemm.run_golden(Precision::Half);
    let run = |threads| {
        let ctx = StrikeRunner {
            seed: 99,
            threads,
            ..StrikeRunner::new(&gemm, Precision::Half, &golden)
        };
        inject(&ctx, 150, FaultModel::pipeline(0.2), 1.0).expect("clean run")
    };
    let a = run(1);
    let b = run(4);
    let c = run(9);
    assert_eq!(a.counts, b.counts);
    assert_eq!(b.counts, c.counts);
}

#[test]
fn beam_campaigns_replay_exactly() {
    let gpu = VoltaGpu::titan_v();
    let micro = Micro::new(MicroKernelOp::Add, 8, 64);
    let prof = profiles::micro(MicroKernelOp::Add);
    let golden = micro.run_golden(Precision::Single);
    let run = |threads: usize| {
        let ctx = StrikeRunner {
            seed: 7,
            threads,
            ..StrikeRunner::new(&micro, Precision::Single, &golden)
        };
        let s = BeamSession::quick().with_target_candidates(200);
        expose(&ctx, &gpu, &prof, s, None).expect("clean run")
    };
    let a = run(1);
    let b = run(8);
    assert_eq!(a.sdc.events(), b.sdc.events());
    assert_eq!(a.due.events(), b.due.events());
    assert_eq!(a.candidates, b.candidates);
    let mut sa = a.severities.clone();
    let mut sb = b.severities.clone();
    sa.sort_by(f64::total_cmp);
    sb.sort_by(f64::total_cmp);
    assert_eq!(sa, sb);
}

#[test]
fn studies_with_equal_seeds_agree() {
    use mixed_precision_reliability::core::Study;
    let a = Study::quick(31).fig5_fpga_mebf();
    let b = Study::quick(31).fig5_fpga_mebf();
    assert_eq!(a.mxm_mebf, b.mxm_mebf);
    assert_eq!(a.mnist_mebf, b.mnist_mebf);
    let c = Study::quick(32).fig5_fpga_mebf();
    assert_ne!(a.mxm_mebf, c.mxm_mebf, "different seeds must differ");
}
