//! The beam campaign driver.

use crate::BeamSession;
use mpr_arch::{Device, WorkloadProfile};
use mpr_fault::{resolve_threads, CampaignError, FaultModel, StrikeRunner, Workload};
use mpr_metrics::sampling::{rel_ci_width, SamplingPlan};
use mpr_metrics::{CrossSection, FitRate, Mebf, TreCurve};
use mpr_obs::{mix_seed, CancelToken, Counter, Gauge, Recorder, Timer, NULL_RECORDER};
use mpr_softfloat::Precision;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A classification of one SDC's end-user impact, attached by an
/// optional domain classifier (MNIST: tolerable/critical; YOLOv3:
/// tolerable/detection/classification — paper Figures 3 and 11c).
pub type SdcLabel = &'static str;

/// A domain classifier: maps `(golden, faulty)` outputs to an [`SdcLabel`].
pub type SdcClassifier = dyn Fn(&[f64], &[f64]) -> SdcLabel + Sync;

/// One beam campaign: device x workload x precision x session.
pub struct BeamCampaign<'a> {
    device: &'a dyn Device,
    workload: &'a dyn Workload,
    profile: &'a WorkloadProfile,
    precision: Precision,
    session: BeamSession,
    strike_batch: usize,
    sampling: SamplingPlan,
    classifier: Option<&'a SdcClassifier>,
    golden: Option<&'a [f64]>,
    recorder: &'a dyn Recorder,
    scope: String,
    cancel: CancelToken,
}

impl std::fmt::Debug for BeamCampaign<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BeamCampaign")
            .field("device", &self.device.name())
            .field("workload", &self.workload.name())
            .field("precision", &self.precision)
            .field("session", &self.session)
            .field("strike_batch", &self.strike_batch)
            .field("sampling", &self.sampling)
            .field("has_classifier", &self.classifier.is_some())
            .finish()
    }
}

impl<'a> BeamCampaign<'a> {
    /// Stages a campaign with the paper-scale session.
    ///
    /// # Panics
    ///
    /// Panics if the device or workload does not support the precision.
    pub fn new(
        device: &'a dyn Device,
        workload: &'a dyn Workload,
        profile: &'a WorkloadProfile,
        precision: Precision,
    ) -> BeamCampaign<'a> {
        assert!(
            device.supports(precision),
            "{} has no {precision}-precision hardware",
            device.name()
        );
        assert!(
            workload.supports(precision),
            "{} has no {precision}-precision implementation",
            workload.name()
        );
        BeamCampaign {
            device,
            workload,
            profile,
            precision,
            session: BeamSession::paper(0),
            strike_batch: 64,
            sampling: SamplingPlan::Fixed,
            classifier: None,
            golden: None,
            recorder: &NULL_RECORDER,
            scope: String::new(),
            cancel: CancelToken::unlimited(),
        }
    }

    /// Sets the beam session.
    pub fn session(mut self, session: BeamSession) -> Self {
        self.session = session;
        self
    }

    /// Sets how many candidate strikes a worker hands to
    /// [`Workload::run_strike_batch`] per kernel pass (default 64).
    /// Batch size never changes results: per-strike RNG streams are
    /// derived from `(seed, strike index)` and every observation is
    /// tagged with its index, so any batch size is byte-identical.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero.
    pub fn strike_batch(mut self, batch: usize) -> Self {
        assert!(batch > 0, "strike batch must be at least 1");
        self.strike_batch = batch;
        self
    }

    /// Selects the sampling plan (default [`SamplingPlan::Fixed`], the
    /// reference oracle). Under [`SamplingPlan::Adaptive`] the campaign
    /// proceeds in fixed-size decision rounds: strikes are allocated
    /// across contiguous site strata by Neyman allocation from the
    /// observed per-stratum SDC variance, and the cell stops as soon as
    /// the relative `poisson_ci95` width of its SDC count crosses the
    /// configured target. Every decision is a pure function of
    /// completed-round statistics keyed by strike index, so adaptive
    /// results stay byte-identical across `--threads` and
    /// `strike_batch` (DESIGN.md §4k).
    pub fn sampling(mut self, plan: SamplingPlan) -> Self {
        self.sampling = plan;
        self
    }

    /// Attaches a domain classifier labelling each SDC from
    /// `(golden, corrupted)` outputs.
    pub fn classifier(mut self, classifier: &'a SdcClassifier) -> Self {
        self.classifier = Some(classifier);
        self
    }

    /// Supplies a precomputed golden output, skipping the internal
    /// golden run. The caller must pass exactly
    /// `workload.run_golden(precision)` — the engine memoizes this per
    /// (workload × precision) so shared cells pay for it once.
    pub fn golden(mut self, golden: &'a [f64]) -> Self {
        self.golden = Some(golden);
        self
    }

    /// Attaches an observability recorder; every event this campaign
    /// records carries `scope` (typically the canonical cell key).
    /// Telemetry is read-only metadata — it never perturbs the
    /// campaign's RNG streams or results.
    pub fn telemetry(mut self, recorder: &'a dyn Recorder, scope: impl Into<String>) -> Self {
        self.recorder = recorder;
        self.scope = scope.into();
        self
    }

    /// Attaches a watchdog token (defaults to unlimited). Workers poll
    /// it at every batch boundary and again after every reported strike
    /// (so slow workloads on the default strike-at-a-time path keep
    /// per-strike granularity) and bail out cooperatively when it
    /// fires; [`BeamCampaign::try_run`] then reports
    /// [`CampaignError::Cancelled`]. No thread is ever detached.
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = token;
        self
    }

    /// Runs the campaign.
    ///
    /// # Panics
    ///
    /// Panics if the campaign is cancelled by its watchdog token or a
    /// worker panics; callers that need to survive either use
    /// [`BeamCampaign::try_run`].
    #[expect(clippy::panic, reason = "documented under `# Panics`")]
    pub fn run(&self) -> CampaignResult {
        match self.try_run() {
            Ok(result) => result,
            Err(e) => panic!("{e}"),
        }
    }

    /// Runs the campaign, reporting watchdog cancellation and worker
    /// panics as structured errors instead of unwinding. On `Err` all
    /// partial work is discarded; a retried campaign with the same seed
    /// is byte-identical to an untroubled first run.
    pub fn try_run(&self) -> Result<CampaignResult, CampaignError> {
        let rec = self.recorder;
        let wall = Timer::start(rec, "campaign.wall", self.scope.clone());
        let exec_time = self.device.exec_time(self.profile, self.precision);
        let exposure = self.device.exposure(self.profile, self.precision);
        let seconds = self.session.hours * 3600.0;
        // Flux chosen so the expected compute-strike count hits the
        // session target; the cross section (events / fluence) does not
        // depend on it.
        let flux = self.session.target_candidates as f64 / (exposure.compute * seconds);
        let fluence = flux * seconds;

        let golden_owned;
        let golden: &[f64] = match self.golden {
            Some(g) => g,
            None => {
                golden_owned = self.workload.run_golden(self.precision);
                &golden_owned
            }
        };
        let width = self.precision.total_bits();
        let model = FaultModel::pipeline(exposure.pipeline_fraction);
        let persistent = exposure.persistence.is_some();

        // Campaign-level sampling stream: a full splitmix64 avalanche
        // of (seed, salt), not the old collision-prone `seed ^ salt`.
        let mut rng = StdRng::seed_from_u64(mix_seed(self.session.seed, 0xBEA0_0000));
        let candidates = poisson(flux * exposure.compute * seconds, &mut rng);
        let due_events = poisson(flux * exposure.due * seconds, &mut rng);

        // Resolve candidate strikes by injection, in parallel.
        let runner = StrikeRunner {
            workload: self.workload,
            precision: self.precision,
            golden,
            seed: self.session.seed,
            budget: candidates,
            sampling: self.sampling,
            threads: resolve_threads(self.session.threads),
            strike_batch: self.strike_batch,
            cancel: &self.cancel,
            recorder: rec,
            busy_timer: "beam.worker_busy",
            scope: &self.scope,
        };
        let strikes = runner.run(
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
                let label = self.classifier.map(|classify| classify(golden, out));
                (severity, label)
            },
        );
        let strikes = match strikes {
            Ok(s) => s,
            Err(e) => {
                wall.cancel();
                return Err(e);
            }
        };
        let executed = strikes.executed;
        let sdc_events = strikes.observed.len() as u64;
        let severities: Vec<f64> = strikes.observed.iter().map(|&(s, _)| s).collect();
        let labels: Vec<SdcLabel> = strikes.observed.iter().filter_map(|&(_, l)| l).collect();

        Counter::new(rec, "beam.candidates", &self.scope).add(candidates);
        Counter::new(rec, "beam.executed", &self.scope).add(executed);
        Counter::new(rec, "beam.sdc", &self.scope).add(sdc_events);
        Counter::new(rec, "beam.due", &self.scope).add(due_events);
        // The masked tally covers the executed strikes only, and DUEs
        // come out of it rather than hiding inside it (they used to be
        // counted as masked). The DUE cross section is drawn from an
        // independent control-logic exposure, so in rare quick-scale
        // sessions the draw exceeds the quiet pool — the tally clamps
        // so the fates always partition the executed strikes.
        let quiet = executed - sdc_events;
        let due_tally = due_events.min(quiet);
        let masked = quiet - due_tally;
        assert_eq!(
            masked + sdc_events + due_tally,
            executed,
            "strike fates must sum to the executed strikes"
        );
        Counter::new(rec, "beam.masked", &self.scope).add(masked);
        Counter::new(rec, "beam.strikes_saved", &self.scope)
            .add(candidates.saturating_sub(executed));
        let width_now = rel_ci_width(sdc_events);
        if width_now.is_finite() {
            Gauge::new(rec, "beam.ci_width", &self.scope).set(width_now);
        }
        let wall_s = wall.stop();
        if wall_s > 0.0 {
            // Executed strikes, not candidates: under early stopping the
            // two diverge and the old formula overstated throughput.
            Gauge::new(rec, "beam.strikes_per_s", &self.scope).set(executed as f64 / wall_s);
            Gauge::new(rec, "beam.utilization", &self.scope)
                .set(strikes.busy_s / (strikes.workers as f64 * wall_s));
        }

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
            device: self.device.name().to_string(),
            workload: self.workload.name().to_string(),
            precision: self.precision,
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

    /// Strikes the sampling plan saved against the fixed budget.
    pub fn strikes_saved(&self) -> u64 {
        self.candidates.saturating_sub(self.executed)
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
    use mpr_kernels::{profiles, Gemm, Lud, Micro, MicroKernelOp};
    use mpr_softfloat::ulp::max_relative_error;

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
        let run = |seed| {
            BeamCampaign::new(&gpu, &micro, &profile, Precision::Single)
                .session(BeamSession::quick(seed).with_target_candidates(120))
                .run()
        };
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
        let lo = BeamCampaign::new(&gpu, &micro, &profile, Precision::Half)
            .session(BeamSession::quick(3).with_target_candidates(400))
            .run();
        let hi = BeamCampaign::new(&gpu, &micro, &profile, Precision::Half)
            .session(BeamSession::quick(3).with_target_candidates(1600))
            .run();
        let ratio = lo.fit_sdc().au() / hi.fit_sdc().au();
        assert!((0.8..1.25).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn knc_campaign_counts_both_event_classes() {
        let knc = XeonPhiKnc::coprocessor_3120a();
        let lud = Lud::new(16);
        let profile = profiles::lud_knc();
        let r = BeamCampaign::new(&knc, &lud, &profile, Precision::Double)
            .session(BeamSession::quick(7).with_target_candidates(200))
            .run();
        assert!(r.sdc.events() > 0);
        assert!(r.due.events() > 0, "KNC control strikes cause DUEs");
        assert_eq!(r.severities.len() as u64, r.sdc.events());
    }

    #[test]
    fn fpga_campaign_uses_persistent_faults_and_never_dues() {
        let fpga = Fpga::zynq7000();
        let gemm = Gemm::new(12);
        let profile = profiles::mxm_fpga();
        let r = BeamCampaign::new(&fpga, &gemm, &profile, Precision::Half)
            .session(BeamSession::quick(11).with_target_candidates(150))
            .run();
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
        let _ = BeamCampaign::new(&knc, &lud, &profile, Precision::Half);
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
        let r = BeamCampaign::new(&gpu, &gemm, &profile, Precision::Single)
            .session(BeamSession::quick(13).with_target_candidates(200))
            .classifier(&classify)
            .run();
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
        let r = BeamCampaign::new(&gpu, &micro, &profile, Precision::Double)
            .session(BeamSession::quick(17).with_target_candidates(150))
            .run();
        let expect = Mebf::from_fit(r.fit_total(), r.exec_time_s);
        assert_eq!(r.mebf(), expect);
        assert!(r.runs > 0.0);
    }
}
