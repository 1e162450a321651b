//! Batched strike execution: campaign results must be
//! byte-identical for *any* strike batch size, at any thread count.
//!
//! Batching regroups strike *execution* — it never moves an RNG draw.
//! Each strike's stream is still seeded from `(seed, strike index)`,
//! sites and faults are drawn in the gather phase in exactly the old
//! per-strike order, and every observation is tagged with its strike
//! index before the merge sorts on it. So batch size, like thread
//! count, is a pure performance knob: severities, labels, counts, and
//! therefore the cached campaign bytes cannot depend on it.

use mixed_precision_reliability::arch::{Fpga, VoltaGpu};
use mixed_precision_reliability::beam::{expose, BeamSession};
use mixed_precision_reliability::fault::{inject, FaultModel, StrikeRunner, Workload};
use mixed_precision_reliability::kernels::{profiles, Gemm, LavaMd, Lud, Micro, MicroKernelOp};
use mixed_precision_reliability::obs::fnv1a64;
use mixed_precision_reliability::softfloat::Precision;

/// FNV-1a over the little-endian bit patterns — bit-exact, NaN-safe.
fn hash_f64s(v: &[f64]) -> u64 {
    let mut bytes = Vec::with_capacity(v.len() * 8);
    for x in v {
        bytes.extend_from_slice(&x.to_bits().to_le_bytes());
    }
    fnv1a64(&bytes)
}

const BATCHES: [usize; 3] = [1, 7, 64];
const THREADS: [usize; 2] = [1, 3];

#[test]
fn injection_results_are_invariant_to_batch_size_and_threads() {
    // Every campaign gets a freshly built workload, so its per-precision
    // replay caches (Micro's chain checkpoints, LavaMD's golden terms,
    // LUD's tail checkpoints) start empty and are filled lazily by
    // whichever strike worker arrives first.
    type Build = fn() -> Box<dyn Workload>;
    let cases: [(&str, Build, Precision); 5] = [
        ("gemm half", || Box::new(Gemm::new(8)), Precision::Half),
        ("gemm single", || Box::new(Gemm::new(8)), Precision::Single),
        ("lud double", || Box::new(Lud::new(10)), Precision::Double),
        (
            "micro-fma half",
            || Box::new(Micro::new(MicroKernelOp::Fma, 8, 64)),
            Precision::Half,
        ),
        (
            "lavamd single",
            || Box::new(LavaMd::new(3, 2)),
            Precision::Single,
        ),
    ];
    for (name, build, precision) in cases {
        let campaign = |threads: usize, batch: usize| {
            let workload = build();
            let golden = workload.run_golden(precision);
            let ctx = StrikeRunner {
                seed: 42,
                threads,
                strike_batch: batch,
                ..StrikeRunner::new(workload.as_ref(), precision, &golden)
            };
            inject(&ctx, 220, FaultModel::SingleBit, 1.0).expect("clean run")
        };
        let baseline = campaign(1, 1);
        assert!(
            baseline.counts.sdc > 0,
            "{name}: cell must observe SDCs for the order to matter"
        );
        for threads in THREADS {
            for batch in BATCHES {
                let r = campaign(threads, batch);
                assert_eq!(
                    (r.counts.masked, r.counts.sdc, r.counts.due),
                    (
                        baseline.counts.masked,
                        baseline.counts.sdc,
                        baseline.counts.due
                    ),
                    "{name}: counts moved at threads={threads} batch={batch}"
                );
                assert_eq!(
                    hash_f64s(&r.severities),
                    hash_f64s(&baseline.severities),
                    "{name}: severity bits moved at threads={threads} batch={batch}"
                );
            }
        }
    }
}

#[test]
fn beam_results_are_invariant_to_batch_size_and_threads() {
    let gemm = Gemm::new(8);
    let fpga = Fpga::zynq7000();
    let gpu = VoltaGpu::titan_v();
    let fpga_profile = profiles::mxm_fpga();
    let gpu_profile = profiles::mxm_gpu();
    let golden_half = gemm.run_golden(Precision::Half);
    let golden_single = gemm.run_golden(Precision::Single);
    let session = BeamSession::quick().with_target_candidates(150);

    // One persistent-fault (FPGA) and one transient (GPU) campaign:
    // the two fault-draw branches of the gather phase.
    type CampaignFn<'a> = &'a dyn Fn(usize, usize) -> (u64, u64, u64);
    let runs: [(&str, CampaignFn); 2] = [
        ("fpga half", &|threads, batch| {
            let ctx = StrikeRunner {
                seed: 11,
                threads,
                strike_batch: batch,
                ..StrikeRunner::new(&gemm, Precision::Half, &golden_half)
            };
            let r = expose(&ctx, &fpga, &fpga_profile, session, None).expect("clean run");
            (r.candidates, r.sdc.events(), hash_f64s(&r.severities))
        }),
        ("gpu single", &|threads, batch| {
            let ctx = StrikeRunner {
                seed: 13,
                threads,
                strike_batch: batch,
                ..StrikeRunner::new(&gemm, Precision::Single, &golden_single)
            };
            let r = expose(&ctx, &gpu, &gpu_profile, session, None).expect("clean run");
            (r.candidates, r.sdc.events(), hash_f64s(&r.severities))
        }),
    ];
    for (name, run) in runs {
        let baseline = run(1, 1);
        assert!(baseline.1 > 0, "{name}: campaign must observe SDCs");
        for threads in THREADS {
            for batch in BATCHES {
                assert_eq!(
                    run(threads, batch),
                    baseline,
                    "{name}: beam results moved at threads={threads} batch={batch}"
                );
            }
        }
    }
}
