//! The beam campaign driver.

use crate::BeamSession;
use mpr_arch::{Device, WorkloadProfile};
use mpr_fault::{CampaignError, FaultModel, StrikeRunner};
use mpr_metrics::sampling::rel_ci_width;
use mpr_metrics::{CrossSection, FitRate, Mebf, TreCurve};
use mpr_obs::{mix_seed, Counter};
use mpr_softfloat::Precision;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A classification of one SDC's end-user impact, attached by an
/// optional domain classifier (MNIST: tolerable/critical; YOLOv3:
/// tolerable/detection/classification — paper Figures 3 and 11c).
pub type SdcLabel = &'static str;

/// A domain classifier: maps `(golden, faulty)` outputs to an [`SdcLabel`].
pub type SdcClassifier = dyn Fn(&[f64], &[f64]) -> SdcLabel + Sync;

/// Runs a beam campaign on `ctx`: `session` hours of `device` running
/// the context's workload, whose execution is described by `profile`.
///
/// Strikes arrive as a Poisson process over the device's exposure;
/// each compute strike is resolved by injecting a fault into a live
/// execution (a stuck bit on the FPGA, whose configuration strikes
/// persist), each control strike is a DUE. `classifier`, when given,
/// labels every SDC from its `(golden, corrupted)` outputs. Under an
/// adaptive plan the candidate count is the strike budget, and the SDC
/// fluence is rescaled so `events / fluence` stays unbiased.
///
/// # Panics
///
/// Panics if the device does not support the context's precision, and
/// as [`StrikeRunner::run`] does.
///
/// # Errors
///
/// As [`StrikeRunner::run`]: watchdog cancellation and worker panics.
pub fn expose(
    ctx: &StrikeRunner<'_>,
    device: &dyn Device,
    profile: &WorkloadProfile,
    session: BeamSession,
    classifier: Option<&SdcClassifier>,
) -> Result<CampaignResult, CampaignError> {
    let precision = ctx.precision;
    assert!(
        device.supports(precision),
        "{} has no {precision}-precision hardware",
        device.name()
    );
    let exec_time = device.exec_time(profile, precision);
    let exposure = device.exposure(profile, precision);
    let (seconds, fluence, compute_mean, due_mean) = session.dose(&exposure);
    let width = precision.total_bits();
    let model = FaultModel::pipeline(exposure.pipeline_fraction);
    let persistent = exposure.persistence.is_some();

    // Campaign-level sampling stream: a full splitmix64 avalanche
    // of (seed, salt), not the old collision-prone `seed ^ salt`.
    let mut rng = StdRng::seed_from_u64(mix_seed(ctx.seed, 0xBEA0_0000));
    let candidates = poisson(compute_mean, &mut rng);
    let due_events = poisson(due_mean, &mut rng);

    // Resolve candidate strikes by injection, in parallel.
    let strikes = ctx.run(
        "beam",
        candidates,
        due_events,
        |rng| {
            Some(if persistent {
                // FPGA configuration strike: a rewired LUT or routing
                // pip acts as a stuck bit on one operation slot. The
                // paper reprograms at each observed error and runs are
                // deterministic, so one run decides the strike's fate.
                FaultModel::StuckBit.sample(width, rng)
            } else {
                // Transient strike in a live register / datapath value.
                model.sample(width, rng)
            })
        },
        |out, severity| {
            (
                severity,
                classifier.map(|classify| classify(ctx.golden, out)),
            )
        },
    )?;
    Counter::new(ctx.recorder, "beam.candidates", ctx.scope).add(candidates);
    Counter::new(ctx.recorder, "beam.due", ctx.scope).add(due_events);
    let executed = strikes.executed;
    let sdc_events = strikes.observed.len() as u64;
    let severities: Vec<f64> = strikes.observed.iter().map(|&(s, _)| s).collect();
    let labels: Vec<SdcLabel> = strikes.observed.iter().filter_map(|&(_, l)| l).collect();

    // The SDC cross section always reads `events / fluence`. On the
    // fixed path the full fluence applies. On the adaptive path the
    // raw event count reflects a stratified, early-stopped sample,
    // so the stored fluence is adjusted until `events / fluence`
    // equals the unbiased estimate scaled to the full candidate
    // population: `rate * candidates / session_fluence`. Keeping the
    // raw integer count means `fit_ci95` still sees the true number
    // of observations.
    let sdc_fluence = match strikes.rate {
        None => fluence,
        Some(rate) => {
            if sdc_events > 0 && rate > 0.0 && candidates > 0 {
                sdc_events as f64 * fluence / (rate * candidates as f64)
            } else if executed > 0 && candidates > 0 {
                // No SDCs observed: scale the exposure to the strikes
                // actually spent, preserving the zero-event upper bound.
                fluence * executed as f64 / candidates as f64
            } else {
                fluence
            }
        }
    };

    Ok(CampaignResult {
        device: device.name().to_string(),
        workload: ctx.workload.name().to_string(),
        precision,
        exec_time_s: exec_time,
        runs: seconds / exec_time,
        fluence,
        candidates,
        executed,
        sdc: CrossSection::new(sdc_events, sdc_fluence),
        due: CrossSection::new(due_events, fluence),
        severities,
        labels,
    })
}

/// Poisson sample via inversion for small means and normal approximation
/// for large ones (means here range from tens to tens of thousands).
fn poisson(mean: f64, rng: &mut StdRng) -> u64 {
    assert!(mean.is_finite() && mean >= 0.0, "mean must be >= 0");
    if mean == 0.0 {
        return 0;
    }
    if mean < 50.0 {
        let limit = (-mean).exp();
        let mut k = 0u64;
        let mut p = 1.0;
        loop {
            p *= rng.gen::<f64>();
            if p <= limit {
                return k;
            }
            k += 1;
        }
    }
    // Normal approximation with continuity correction.
    let (u1, u2) = (rng.gen::<f64>(), rng.gen::<f64>());
    let z = (-2.0 * u1.max(1e-12).ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    (mean + z * mean.sqrt()).round().max(0.0) as u64
}

/// The outcome of one beam campaign.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// Device name.
    pub device: String,
    /// Workload name.
    pub workload: String,
    /// Precision tested.
    pub precision: Precision,
    /// Per-execution wall time (seconds).
    pub exec_time_s: f64,
    /// Executions completed during the session.
    pub runs: f64,
    /// Accumulated fluence (a.u.).
    pub fluence: f64,
    /// Compute strike candidates the session produced (the fixed budget).
    pub candidates: u64,
    /// Strikes actually executed: equals `candidates` on the fixed
    /// path, fewer once adaptive early stopping converges.
    pub executed: u64,
    /// SDC cross section.
    pub sdc: CrossSection,
    /// DUE cross section.
    pub due: CrossSection,
    /// Worst relative error of each SDC.
    pub severities: Vec<f64>,
    /// Domain labels of each SDC (when a classifier was attached).
    pub labels: Vec<SdcLabel>,
}

impl CampaignResult {
    /// SDC FIT rate in arbitrary units.
    pub fn fit_sdc(&self) -> FitRate {
        self.sdc.fit_au()
    }

    /// DUE FIT rate in arbitrary units.
    pub fn fit_due(&self) -> FitRate {
        self.due.fit_au()
    }

    /// Combined failure rate (SDC + DUE).
    pub fn fit_total(&self) -> FitRate {
        FitRate::from_au(self.fit_sdc().au() + self.fit_due().au())
    }

    /// Mean Executions Between Failures for this configuration.
    pub fn mebf(&self) -> Mebf {
        Mebf::from_fit(self.fit_total(), self.exec_time_s)
    }

    /// TRE curve over the campaign's SDC severities.
    pub fn tre_curve(&self) -> TreCurve {
        TreCurve::from_errors(self.severities.clone())
    }

    /// Relative 95% CI width over the observed SDC count (infinite for
    /// a zero-event campaign).
    pub fn ci_width(&self) -> f64 {
        rel_ci_width(self.sdc.events())
    }

    /// Fraction of SDCs carrying each domain label, in first-seen order.
    pub fn label_fractions(&self) -> Vec<(SdcLabel, f64)> {
        let mut counts: Vec<(SdcLabel, u64)> = Vec::new();
        for &l in &self.labels {
            match counts.iter_mut().find(|(o, _)| *o == l) {
                Some((_, c)) => *c += 1,
                None => counts.push((l, 1)),
            }
        }
        let total = self.labels.len().max(1) as f64;
        counts
            .into_iter()
            .map(|(l, c)| (l, c as f64 / total))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpr_arch::{Fpga, VoltaGpu, XeonPhiKnc};
    use mpr_fault::Workload;
    use mpr_kernels::{profiles, Gemm, Lud, Micro, MicroKernelOp};
    use mpr_softfloat::ulp::max_relative_error;

    /// A quick-session campaign expecting `target` compute strikes.
    fn campaign(
        device: &dyn Device,
        workload: &dyn Workload,
        profile: &WorkloadProfile,
        precision: Precision,
        seed: u64,
        target: u64,
        classifier: Option<&SdcClassifier>,
    ) -> CampaignResult {
        let golden = workload.run_golden(precision);
        let ctx = StrikeRunner {
            seed,
            ..StrikeRunner::new(workload, precision, &golden)
        };
        let session = BeamSession::quick().with_target_candidates(target);
        expose(&ctx, device, profile, session, classifier).expect("clean run")
    }

    #[test]
    fn poisson_small_and_large_means() {
        let mut rng = StdRng::seed_from_u64(1);
        let small: f64 = (0..2000)
            .map(|_| poisson(3.0, &mut rng) as f64)
            .sum::<f64>()
            / 2000.0;
        assert!((small - 3.0).abs() < 0.2, "mean {small}");
        let large: f64 = (0..500)
            .map(|_| poisson(400.0, &mut rng) as f64)
            .sum::<f64>()
            / 500.0;
        assert!((large - 400.0).abs() < 5.0, "mean {large}");
        assert_eq!(poisson(0.0, &mut rng), 0);
    }

    #[test]
    fn campaign_is_deterministic_in_the_seed() {
        let gpu = VoltaGpu::titan_v();
        let micro = Micro::new(MicroKernelOp::Add, 16, 64);
        let profile = profiles::micro(MicroKernelOp::Add);
        let run = |seed| campaign(&gpu, &micro, &profile, Precision::Single, seed, 120, None);
        let a = run(5);
        let b = run(5);
        assert_eq!(a.sdc.events(), b.sdc.events());
        assert_eq!(a.due.events(), b.due.events());
        let c = run(6);
        assert!(
            c.sdc.events() != a.sdc.events() || c.severities != a.severities,
            "different seeds should differ"
        );
    }

    #[test]
    fn fit_estimate_is_flux_independent() {
        // Doubling the target candidates (i.e. the flux) must not move
        // the cross section materially, only tighten it.
        let gpu = VoltaGpu::titan_v();
        let micro = Micro::new(MicroKernelOp::Mul, 16, 64);
        let profile = profiles::micro(MicroKernelOp::Mul);
        let lo = campaign(&gpu, &micro, &profile, Precision::Half, 3, 400, None);
        let hi = campaign(&gpu, &micro, &profile, Precision::Half, 3, 1600, None);
        let ratio = lo.fit_sdc().au() / hi.fit_sdc().au();
        assert!((0.8..1.25).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn knc_campaign_counts_both_event_classes() {
        let knc = XeonPhiKnc::coprocessor_3120a();
        let lud = Lud::new(16);
        let profile = profiles::lud_knc();
        let r = campaign(&knc, &lud, &profile, Precision::Double, 7, 200, None);
        assert!(r.sdc.events() > 0);
        assert!(r.due.events() > 0, "KNC control strikes cause DUEs");
        assert_eq!(r.severities.len() as u64, r.sdc.events());
    }

    #[test]
    fn fpga_campaign_uses_persistent_faults_and_never_dues() {
        let fpga = Fpga::zynq7000();
        let gemm = Gemm::new(12);
        let profile = profiles::mxm_fpga();
        let r = campaign(&fpga, &gemm, &profile, Precision::Half, 11, 150, None);
        assert_eq!(r.due.events(), 0, "no DUEs observed on the FPGA");
        // Stuck-at faults are sensitized by roughly half the operand
        // patterns; MxM has no structural masking beyond that.
        let rate = r.sdc.events() as f64 / r.candidates as f64;
        assert!((0.2..0.95).contains(&rate), "SDC rate {rate}");
    }

    #[test]
    #[should_panic(expected = "no half-precision hardware")]
    fn knc_half_campaign_rejected() {
        let knc = XeonPhiKnc::coprocessor_3120a();
        let lud = Lud::new(8);
        let profile = profiles::lud_knc();
        let _ = campaign(&knc, &lud, &profile, Precision::Half, 0, 50, None);
    }

    #[test]
    fn classifier_labels_every_sdc() {
        let gpu = VoltaGpu::titan_v();
        let gemm = Gemm::new(10);
        let profile = profiles::mxm_gpu();
        let classify = |golden: &[f64], out: &[f64]| -> SdcLabel {
            if max_relative_error(out, golden) > 0.01 {
                "large"
            } else {
                "small"
            }
        };
        let r = campaign(
            &gpu,
            &gemm,
            &profile,
            Precision::Single,
            13,
            200,
            Some(&classify),
        );
        assert_eq!(r.labels.len() as u64, r.sdc.events());
        let fractions = r.label_fractions();
        let total: f64 = fractions.iter().map(|(_, f)| f).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn mebf_combines_fit_and_time() {
        let gpu = VoltaGpu::titan_v();
        let micro = Micro::new(MicroKernelOp::Fma, 16, 64);
        let profile = profiles::micro(MicroKernelOp::Fma);
        let r = campaign(&gpu, &micro, &profile, Precision::Double, 17, 150, None);
        let expect = Mebf::from_fit(r.fit_total(), r.exec_time_s);
        assert_eq!(r.mebf(), expect);
        assert!(r.runs > 0.0);
    }
}
