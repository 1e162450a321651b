//! The adaptive-sampling contract (DESIGN.md §4k): stratified
//! allocation with sequential early stopping must be a pure function of
//! completed-round statistics keyed by strike index — byte-identical
//! across worker-thread counts and strike-batch sizes — while the fixed
//! path stays byte-identical to its pre-adaptive pins and the study's
//! headline conclusions survive the smaller strike budgets.
//!
//! Four layers of evidence:
//!
//! 1. adaptive campaigns (beam and inject) swept over threads 1/2/5 x
//!    strike batches 1/7/64, compared bit-for-bit;
//! 2. the fixed path re-asserted against fingerprints captured before
//!    adaptive sampling existed, plus absolute adaptive fingerprints;
//! 3. a quick-scale study run twice — fixed vs adaptive — with the
//!    FPGA figure conclusions (FIT ordering, TRE monotonicity, MEBF
//!    crossovers) required to agree while adaptive executes fewer
//!    strikes;
//! 4. the engine's cross-cell reallocation observed end to end: a
//!    converged cell's spare budget reruns an unconverged cell under a
//!    boosted-budget key, timed and counted like any other cache miss.
#![expect(
    clippy::expect_used,
    reason = "test helpers outside `#[test]` fns report a broken fixture by panicking"
)]

use mixed_precision_reliability::arch::{Fpga, VoltaGpu};
use mixed_precision_reliability::beam::{BeamCampaign, BeamSession};
use mixed_precision_reliability::core::Study;
use mixed_precision_reliability::exp::{
    CellKey, CellKind, ClassifierId, DeviceId, Engine, ExperimentPlan, ResultStore, SamplingConfig,
    SamplingPlan, WorkloadId,
};
use mixed_precision_reliability::fault::{FaultModel, InjectionCampaign};
use mixed_precision_reliability::kernels::{profiles, Gemm};
use mixed_precision_reliability::obs::{fnv1a64, JsonlRecorder, Metric};
use mixed_precision_reliability::softfloat::Precision;
use std::sync::Arc;

/// FNV-1a over the little-endian bit patterns — bit-exact, NaN-safe.
fn hash_f64s(v: &[f64]) -> u64 {
    let mut bytes = Vec::with_capacity(v.len() * 8);
    for x in v {
        bytes.extend_from_slice(&x.to_bits().to_le_bytes());
    }
    fnv1a64(&bytes)
}

#[test]
fn adaptive_beam_is_thread_and_batch_invariant() {
    let gemm8 = Gemm::new(8);
    let fpga = Fpga::zynq7000();
    let profile = profiles::mxm_fpga();
    let run = |threads: usize, batch: usize| {
        let mut session = BeamSession::quick(11).with_target_candidates(150);
        session.threads = threads;
        BeamCampaign::new(&fpga, &gemm8, &profile, Precision::Half)
            .session(session)
            .strike_batch(batch)
            .sampling(SamplingPlan::Adaptive(SamplingConfig::quick()))
            .run()
    };
    let baseline = run(1, 64);
    assert!(
        baseline.executed < baseline.candidates,
        "adaptive must stop early on a cell this rich in SDCs \
         (executed {} of {})",
        baseline.executed,
        baseline.candidates
    );
    assert!(
        baseline.ci_width() <= SamplingConfig::quick().ci_width,
        "early stop must only fire once the CI target is met"
    );
    for threads in [1usize, 2, 5] {
        for batch in [1usize, 7, 64] {
            let r = run(threads, batch);
            assert_eq!(
                (r.candidates, r.executed, r.sdc.events(), r.due.events()),
                (
                    baseline.candidates,
                    baseline.executed,
                    baseline.sdc.events(),
                    baseline.due.events()
                ),
                "adaptive beam counts moved at threads={threads} batch={batch}"
            );
            assert_eq!(
                hash_f64s(&r.severities),
                hash_f64s(&baseline.severities),
                "adaptive beam severity bits moved at threads={threads} batch={batch}"
            );
        }
    }
}

#[test]
fn adaptive_inject_is_thread_and_batch_invariant() {
    let gemm8 = Gemm::new(8);
    let run = |threads: usize, batch: usize| {
        InjectionCampaign::new(&gemm8, Precision::Single)
            .injections(300)
            .seed(42)
            .threads(threads)
            .strike_batch(batch)
            .sampling(SamplingPlan::Adaptive(SamplingConfig::quick()))
            .run()
    };
    let baseline = run(1, 64);
    assert!(
        baseline.counts.total() < 300,
        "adaptive must stop early on a cell this rich in SDCs \
         (executed {} of 300)",
        baseline.counts.total()
    );
    for threads in [1usize, 2, 5] {
        for batch in [1usize, 7, 64] {
            let r = run(threads, batch);
            assert_eq!(
                r.counts, baseline.counts,
                "adaptive inject counts moved at threads={threads} batch={batch}"
            );
            assert_eq!(
                hash_f64s(&r.severities),
                hash_f64s(&baseline.severities),
                "adaptive inject severity bits moved at threads={threads} batch={batch}"
            );
        }
    }
}

#[test]
fn fixed_path_still_matches_pre_adaptive_pins() {
    // The fixed path is the reference oracle: introducing the adaptive
    // engine must not move a single previously observable bit.
    let gemm8 = Gemm::new(8);
    let fpga = Fpga::zynq7000();
    let profile = profiles::mxm_fpga();
    let r = BeamCampaign::new(&fpga, &gemm8, &profile, Precision::Half)
        .session(BeamSession::quick(11).with_target_candidates(150))
        .run();
    assert_eq!((r.candidates, r.sdc.events()), (140, 57));
    assert_eq!(r.executed, r.candidates, "fixed path executes everything");
    assert_eq!(hash_f64s(&r.severities), 0xd45db3cac3cc6f2f);

    let gpu = VoltaGpu::titan_v();
    let profile = profiles::mxm_gpu();
    let r = BeamCampaign::new(&gpu, &gemm8, &profile, Precision::Single)
        .session(BeamSession::quick(13).with_target_candidates(150))
        .run();
    assert_eq!((r.candidates, r.sdc.events()), (141, 140));
    assert_eq!(hash_f64s(&r.severities), 0x6082250a062807dd);

    let r = InjectionCampaign::new(&gemm8, Precision::Single)
        .injections(300)
        .seed(42)
        .threads(3)
        .run();
    assert_eq!((r.counts.masked, r.counts.sdc, r.counts.due), (7, 293, 0));
    assert_eq!(hash_f64s(&r.severities), 0x956ad637fbb2021f);

    // Adaptive cells pinned as absolute bytes too, so a refactor of the
    // strike loop is checked against fixed values rather than only
    // against itself across threads x batch.
    let profile = profiles::mxm_fpga();
    let r = BeamCampaign::new(&fpga, &gemm8, &profile, Precision::Half)
        .session(BeamSession::quick(11).with_target_candidates(150))
        .sampling(SamplingPlan::Adaptive(SamplingConfig::quick()))
        .run();
    assert_eq!((r.executed, r.sdc.events()), (64, 25));
    assert_eq!(hash_f64s(&r.severities), 0xf42f981702878d1a);
    // The stratified rate rescales the SDC fluence; pin its bits too.
    assert_eq!(r.sdc.fluence().to_bits(), 4544921889275888042);

    let r = InjectionCampaign::new(&gemm8, Precision::Single)
        .injections(300)
        .seed(42)
        .threads(3)
        .sampling(SamplingPlan::Adaptive(SamplingConfig::quick()))
        .run();
    assert_eq!((r.counts.total(), r.counts.sdc), (32, 32));
    assert_eq!(hash_f64s(&r.severities), 0x997748504385431f);
}

/// Indices of `xs` sorted ascending by value — the ordering a reader
/// takes away from a figure, robust to small estimate shifts.
fn rank3(xs: &[f64; 3]) -> [usize; 3] {
    let mut idx = [0usize, 1, 2];
    idx.sort_by(|&a, &b| xs[a].partial_cmp(&xs[b]).expect("finite figure values"));
    idx
}

#[test]
fn quick_study_conclusions_survive_adaptive_budgets() {
    let fixed = Study::quick(2019).with_threads(2);
    let adaptive = Study::quick(2019)
        .with_sampling(SamplingPlan::Adaptive(SamplingConfig::quick()))
        .with_threads(2);

    // Figure 3: the FIT ordering across precisions is the headline.
    let (f3, a3) = (fixed.fig3_fpga_fit(), adaptive.fig3_fpga_fit());
    assert_eq!(rank3(&f3.mxm_fit), rank3(&a3.mxm_fit), "fig3 MxM ordering");
    assert_eq!(
        rank3(&f3.mnist_fit),
        rank3(&a3.mnist_fit),
        "fig3 MNIST ordering"
    );

    // Figure 4: surviving FIT fractions shrink as the tolerated error
    // grows, under either sampling plan.
    let (f4, a4) = (fixed.fig4_fpga_tre(), adaptive.fig4_fpga_tre());
    for fig in [&f4, &a4] {
        let (loose, tight) = (fig.surviving_at(1e-1), fig.surviving_at(1e-4));
        for i in 0..3 {
            assert!(
                loose[i] <= tight[i],
                "fig4 surviving fraction must not grow with tolerance"
            );
        }
    }

    // Figure 5: the sign of each MEBF crossover vs double is the
    // paper's takeaway; both plans must agree on it.
    let (f5, a5) = (fixed.fig5_fpga_mebf(), adaptive.fig5_fpga_mebf());
    for (f, a) in [
        (&f5.mxm_mebf, &a5.mxm_mebf),
        (&f5.mnist_mebf, &a5.mnist_mebf),
    ] {
        for i in 1..3 {
            assert_eq!(
                f[i] >= f[0],
                a[i] >= a[0],
                "fig5 MEBF crossover direction flipped under adaptive sampling"
            );
        }
    }

    // And the budget actually shrank: across the study's beam cells,
    // adaptive executed strictly fewer strikes than it was budgeted.
    let mut budget = 0u64;
    let mut executed = 0u64;
    for (_, result) in adaptive.engine().store().snapshot() {
        if let mixed_precision_reliability::exp::CellResult::Beam(r) = result {
            budget += r.candidates;
            executed += r.executed;
        }
    }
    assert!(
        executed < budget,
        "adaptive study must save strikes (executed {executed} of {budget})"
    );
}

#[test]
fn engine_reallocates_spare_budget_into_boosted_reruns() {
    // Two adaptive cells under one plan, tuned so the SDC-rich GEMM
    // cell converges with strikes to spare while its sibling exhausts
    // the same budget without reaching the (deliberately tight) CI
    // target. The engine must reinvest the spare strikes by rerunning
    // the noisy cell under a boosted-budget key.
    let config = SamplingConfig::quick().with_ci_width(0.3);
    let rich = CellKey {
        device: DeviceId::Knc3120a,
        workload: WorkloadId::Gemm { dim: 10 },
        precision: Precision::Single,
        kind: CellKind::Inject {
            injections: 600,
            model: FaultModel::SingleBit,
            live_fraction: 1.0,
            sampling: SamplingPlan::Adaptive(config),
        },
    };
    let noisy = CellKey {
        device: DeviceId::Zynq7000,
        workload: WorkloadId::Gemm { dim: 8 },
        precision: Precision::Half,
        kind: CellKind::Beam {
            hours: 4.0,
            target_candidates: 150,
            classifier: ClassifierId::None,
            sampling: SamplingPlan::Adaptive(config),
        },
    };
    let store = Arc::new(ResultStore::in_memory());
    let rec = Arc::new(JsonlRecorder::new());
    let engine = Engine::new(99)
        .with_threads(2)
        .with_store(store.clone())
        .with_recorder(rec.clone());
    let mut plan = ExperimentPlan::new();
    plan.push(rich.clone());
    plan.push(noisy.clone());
    let results = engine.run(&plan);
    assert_eq!(results.len(), 2);

    let boosted: Vec<String> = store
        .snapshot()
        .into_iter()
        .map(|(key, _)| key)
        .filter(|key| key.contains(";b:") && !key.contains(";b:-"))
        .collect();
    assert_eq!(
        boosted.len(),
        1,
        "exactly the noisy cell reruns under a boosted-budget key, got {boosted:?}"
    );
    assert!(
        boosted[0].contains("k=beam"),
        "the beam cell was the unconverged one: {}",
        boosted[0]
    );

    // The boosted rerun is timed like any other executed cell: every
    // cache miss, phase 1 or phase 2, leaves exactly one `cell.total`.
    let events = rec.events();
    let scopes_of = |name: &str| -> Vec<&str> {
        events
            .iter()
            .filter(|e| e.name == name)
            .map(|e| e.scope.as_str())
            .collect()
    };
    let granted = scopes_of("plan.realloc_granted");
    assert_eq!(granted.len(), 1, "one boosted cell: {granted:?}");
    let totals = scopes_of("cell.total");
    assert!(
        totals.contains(&granted[0]),
        "the boosted cell {} records a cell.total, got {totals:?}",
        granted[0]
    );
    let misses: u64 = events
        .iter()
        .filter(|e| e.name == "cache.miss")
        .map(|e| match e.metric {
            Metric::Count(n) => n,
            _ => 0,
        })
        .sum();
    assert_eq!(totals.len() as u64, misses, "one cell.total per cache miss");

    // The returned plan slot carries the boosted rerun: it pushed past
    // the original budget the phase-1 attempt exhausted.
    let beam = results[1].beam();
    assert!(
        beam.executed > 0 && beam.candidates > 0,
        "boosted rerun must produce a populated result"
    );
}
