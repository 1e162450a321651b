//! Seeded, parallel fault-injection campaigns.

use crate::{resolve_threads, FaultModel, StrikeRunner, ValueFault, Workload};
use mpr_metrics::sampling::{rel_ci_width, SamplingPlan};
use mpr_metrics::{OutcomeCounts, TreCurve, Vulnerability};
use mpr_obs::{CancelToken, Counter, Gauge, Recorder, Timer, NULL_RECORDER};
use mpr_softfloat::Precision;
use rand::Rng;

/// Why a campaign driver failed to produce a report.
///
/// Both campaign drivers (`mpr-fault` injection and `mpr-beam`
/// exposure) share this error: the experiment engine maps it onto its
/// per-cell failure record, so a single bad cell never tears down a
/// whole plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CampaignError {
    /// The cancellation token fired before every strike completed.
    /// All partial work is discarded — a cancelled campaign yields no
    /// result bytes, so determinism of *completed* campaigns is never
    /// at stake.
    Cancelled,
    /// A worker thread panicked; the captured panic message follows.
    WorkerPanic(String),
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignError::Cancelled => write!(f, "campaign cancelled by watchdog"),
            CampaignError::WorkerPanic(msg) => write!(f, "campaign worker panicked: {msg}"),
        }
    }
}

impl std::error::Error for CampaignError {}

/// A fault-injection campaign: `n` independent injections into random
/// dynamic sites of a workload, each classified against the golden run.
///
/// This mirrors the paper's CAROL-FI methodology (Section 3.3): more than
/// 2,000 faults per application and data type, one fault per execution,
/// outcome scored by output comparison. Campaigns are deterministic in
/// the seed and run on the shared [`StrikeRunner`].
///
/// # Example
///
/// ```rust
/// # use mpr_fault::{FaultModel, InjectionCampaign, Workload};
/// # use mpr_fault::hook::{FaultHook, HookExt};
/// # use mpr_softfloat::{FloatExt, Precision};
/// # #[derive(Debug)]
/// # struct W;
/// # impl Workload for W {
/// #     fn name(&self) -> &'static str { "w" }
/// #     fn dispatch(&self, _p: Precision, hook: &mut dyn FaultHook) -> Vec<f64> {
/// #         let mut acc = 0f32;
/// #         for i in 0..32 { acc = hook.touch(acc + i as f32); }
/// #         vec![acc as f64]
/// #     }
/// # }
/// let report = InjectionCampaign::new(&W, Precision::Single)
///     .injections(100)
///     .seed(1)
///     .run();
/// let repeat = InjectionCampaign::new(&W, Precision::Single)
///     .injections(100)
///     .seed(1)
///     .run();
/// assert_eq!(report.counts, repeat.counts); // seeded determinism
/// ```
pub struct InjectionCampaign<'a> {
    workload: &'a dyn Workload,
    precision: Precision,
    injections: u64,
    seed: u64,
    model: FaultModel,
    live_fraction: f64,
    threads: usize,
    strike_batch: usize,
    sampling: SamplingPlan,
    golden: Option<&'a [f64]>,
    recorder: &'a dyn Recorder,
    scope: String,
    cancel: CancelToken,
}

impl std::fmt::Debug for InjectionCampaign<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InjectionCampaign")
            .field("workload", &self.workload.name())
            .field("precision", &self.precision)
            .field("injections", &self.injections)
            .field("seed", &self.seed)
            .field("model", &self.model)
            .field("live_fraction", &self.live_fraction)
            .field("threads", &self.threads)
            .field("strike_batch", &self.strike_batch)
            .field("sampling", &self.sampling)
            .finish()
    }
}

impl<'a> InjectionCampaign<'a> {
    /// Creates a campaign against `workload` at `precision` with default
    /// settings: 2,000 injections (the paper's minimum per configuration),
    /// single-bit flips, seed 0.
    ///
    /// # Panics
    ///
    /// Panics if the workload does not support the precision.
    pub fn new(workload: &'a dyn Workload, precision: Precision) -> InjectionCampaign<'a> {
        assert!(
            workload.supports(precision),
            "{} does not support {precision} precision",
            workload.name()
        );
        InjectionCampaign {
            workload,
            precision,
            injections: 2000,
            seed: 0,
            model: FaultModel::SingleBit,
            live_fraction: 1.0,
            threads: resolve_threads(0),
            strike_batch: 64,
            sampling: SamplingPlan::Fixed,
            golden: None,
            recorder: &NULL_RECORDER,
            scope: String::new(),
            cancel: CancelToken::unlimited(),
        }
    }

    /// Sets the number of injections.
    pub fn injections(mut self, n: u64) -> Self {
        self.injections = n;
        self
    }

    /// Sets the RNG seed; identical seeds reproduce identical campaigns.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the fault model.
    pub fn model(mut self, model: FaultModel) -> Self {
        self.model = model;
        self
    }

    /// Fraction of *register bit-flip* injections that land in live
    /// state. Architectural injection campaigns pick registers blindly;
    /// a flip in a dead or stale register is trivially masked (SASSIFI /
    /// CAROL-FI behave the same way). Wide pipeline corruptions always
    /// hit an in-flight operation and ignore this fraction.
    ///
    /// # Panics
    ///
    /// Panics if outside `(0, 1]`.
    pub fn live_fraction(mut self, fraction: f64) -> Self {
        assert!(
            fraction > 0.0 && fraction <= 1.0,
            "live fraction must be in (0,1], got {fraction}"
        );
        self.live_fraction = fraction;
        self
    }

    /// Overrides the worker-thread count (defaults to the machine's
    /// available parallelism).
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn threads(mut self, threads: usize) -> Self {
        assert!(threads > 0, "need at least one worker thread");
        self.threads = threads;
        self
    }

    /// Sets how many live strikes a worker hands to
    /// [`Workload::run_strike_batch`] per kernel pass (default 64).
    /// Batch size never changes results: per-strike RNG streams are
    /// derived from `(seed, injection index)` and every observation is
    /// tagged with its index, so `strike_batch(1)` and `strike_batch(64)`
    /// are byte-identical.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero.
    pub fn strike_batch(mut self, batch: usize) -> Self {
        assert!(batch > 0, "strike batch must be at least 1");
        self.strike_batch = batch;
        self
    }

    /// Selects the strike-sampling strategy. [`SamplingPlan::Fixed`]
    /// (the default) executes every requested injection and is the
    /// reference oracle. [`SamplingPlan::Adaptive`] runs injections in
    /// rounds over stratified site ranges, reallocates each round by
    /// observed per-stratum SDC variance (Neyman allocation), and stops
    /// once the SDC-count confidence interval is narrower than the
    /// configured target — `injections` then acts as the strike budget.
    /// All adaptive decisions derive from completed-round statistics
    /// keyed by injection index, so results stay byte-identical across
    /// thread counts and strike batches.
    pub fn sampling(mut self, plan: SamplingPlan) -> Self {
        self.sampling = plan;
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
    /// per-injection granularity) and bail out cooperatively when it
    /// fires; [`InjectionCampaign::try_run`] then reports
    /// [`CampaignError::Cancelled`]. No thread is ever detached.
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = token;
        self
    }

    /// Runs the campaign and collects the report.
    ///
    /// # Panics
    ///
    /// Panics if the campaign is cancelled by its watchdog token or a
    /// worker panics; callers that need to survive either use
    /// [`InjectionCampaign::try_run`].
    #[expect(clippy::panic, reason = "documented under `# Panics`")]
    pub fn run(&self) -> InjectionReport {
        match self.try_run() {
            Ok(report) => report,
            // mpr-allow: panic-reachability -- this is the documented contract of the convenience wrapper: it fires at the campaign boundary, after all cells drained, never inside a retried cell
            Err(e) => panic!("{e}"),
        }
    }

    /// Runs the campaign, reporting watchdog cancellation and worker
    /// panics as structured errors instead of unwinding. On `Err` all
    /// partial work is discarded; a retried campaign with the same seed
    /// is byte-identical to an untroubled first run.
    pub fn try_run(&self) -> Result<InjectionReport, CampaignError> {
        let rec = self.recorder;
        let wall = Timer::start(rec, "campaign.wall", self.scope.clone());
        let golden_owned;
        let golden: &[f64] = match self.golden {
            Some(g) => g,
            None => {
                golden_owned = self.workload.run_golden(self.precision);
                &golden_owned
            }
        };
        let width = self.precision.total_bits();
        let runner = StrikeRunner {
            workload: self.workload,
            precision: self.precision,
            golden,
            seed: self.seed,
            budget: self.injections,
            sampling: self.sampling,
            threads: self.threads,
            strike_batch: self.strike_batch,
            cancel: &self.cancel,
            recorder: rec,
            busy_timer: "inject.worker_busy",
            scope: &self.scope,
        };
        let strikes = runner.run(
            |rng| {
                // A register flip lands in dead state with probability
                // `1 - live_fraction`: it counts as executed and masked
                // without running.
                let fault = self.model.sample(width, rng);
                let dead = matches!(fault, ValueFault::BitFlip(_))
                    && self.live_fraction < 1.0
                    && !rng.gen_bool(self.live_fraction);
                (!dead).then_some(fault)
            },
            |_, severity| severity,
        );
        let strikes = match strikes {
            Ok(s) => s,
            Err(e) => {
                wall.cancel();
                return Err(e);
            }
        };
        let executed = strikes.executed;
        let sdc = strikes.observed.len() as u64;
        let counts = OutcomeCounts {
            masked: executed - sdc,
            sdc,
            due: 0,
        };

        Counter::new(rec, "inject.injections", &self.scope).add(self.injections);
        Counter::new(rec, "inject.executed", &self.scope).add(executed);
        Counter::new(rec, "inject.strikes_saved", &self.scope)
            .add(self.injections.saturating_sub(executed));
        Counter::new(rec, "inject.sdc", &self.scope).add(counts.sdc);
        Counter::new(rec, "inject.due", &self.scope).add(counts.due);
        Counter::new(rec, "inject.masked", &self.scope).add(counts.masked);
        let ci_now = rel_ci_width(counts.sdc);
        if ci_now.is_finite() {
            Gauge::new(rec, "inject.ci_width", &self.scope).set(ci_now);
        }
        let wall_s = wall.stop();
        if wall_s > 0.0 {
            // Executed strikes, not the requested budget: an adaptive
            // campaign that stops early must not inflate throughput with
            // injections it never ran.
            Gauge::new(rec, "inject.strikes_per_s", &self.scope).set(executed as f64 / wall_s);
            Gauge::new(rec, "inject.utilization", &self.scope)
                .set(strikes.busy_s / (strikes.workers as f64 * wall_s));
        }

        Ok(InjectionReport {
            workload: self.workload.name().to_string(),
            precision: self.precision,
            counts,
            severities: strikes.observed,
        })
    }
}

/// The result of an [`InjectionCampaign`].
#[derive(Debug, Clone)]
pub struct InjectionReport {
    /// Workload name.
    pub workload: String,
    /// Precision the campaign ran at.
    pub precision: Precision,
    /// Outcome tallies (injection campaigns produce masked/SDC only;
    /// DUEs are a beam-level phenomenon modeled in `mpr-beam`).
    pub counts: OutcomeCounts,
    /// Worst relative error of each SDC, in injection order.
    pub severities: Vec<f64>,
}

impl InjectionReport {
    /// AVF/PVF estimate for this campaign.
    pub fn vulnerability(&self) -> Vulnerability {
        Vulnerability::from_counts(self.counts)
    }

    /// Severity distribution of the observed SDCs as a TRE curve.
    pub fn tre_curve(&self) -> TreCurve {
        TreCurve::from_errors(self.severities.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::testutil::Dot;

    #[test]
    fn campaign_is_deterministic_across_thread_counts() {
        let w = Dot(16);
        let one = InjectionCampaign::new(&w, Precision::Single)
            .injections(64)
            .seed(11)
            .threads(1)
            .run();
        let many = InjectionCampaign::new(&w, Precision::Single)
            .injections(64)
            .seed(11)
            .threads(7)
            .run();
        assert_eq!(one.counts, many.counts);
        // Severities come out in injection order regardless of the
        // thread interleaving, so the raw vectors match bit for bit.
        let a: Vec<u64> = one.severities.iter().map(|s| s.to_bits()).collect();
        let b: Vec<u64> = many.severities.iter().map(|s| s.to_bits()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let w = Dot(16);
        let a = InjectionCampaign::new(&w, Precision::Half)
            .injections(128)
            .seed(1)
            .run();
        let b = InjectionCampaign::new(&w, Precision::Half)
            .injections(128)
            .seed(2)
            .run();
        // Outcome counts may coincide, but severity lists almost surely
        // differ for live workloads.
        assert_ne!(a.severities, b.severities);
    }

    #[test]
    fn all_injections_are_classified() {
        let w = Dot(16);
        let r = InjectionCampaign::new(&w, Precision::Double)
            .injections(100)
            .run();
        assert_eq!(r.counts.total(), 100);
        assert_eq!(r.counts.sdc as usize, r.severities.len());
        assert_eq!(r.counts.due, 0);
    }

    #[test]
    fn severities_feed_a_tre_curve() {
        let w = Dot(32);
        let r = InjectionCampaign::new(&w, Precision::Half)
            .injections(300)
            .seed(5)
            .run();
        let curve = r.tre_curve();
        assert_eq!(curve.event_count() as u64, r.counts.sdc);
        // Survival at zero tolerance counts every SDC with nonzero error.
        assert!(curve.surviving_fraction(0.0) <= 1.0);
    }

    #[test]
    fn single_bit_flips_in_double_are_often_benign_in_magnitude() {
        // The mechanism behind the paper's TRE trends: most double-precision
        // mantissa bits are far below 0.1% relative significance.
        let w = Dot(32);
        let double = InjectionCampaign::new(&w, Precision::Double)
            .injections(400)
            .seed(9)
            .run();
        let half = InjectionCampaign::new(&w, Precision::Half)
            .injections(400)
            .seed(9)
            .run();
        let d_reduction = double.tre_curve().tolerable_fraction(1e-3);
        let h_reduction = half.tre_curve().tolerable_fraction(1e-3);
        assert!(
            d_reduction > h_reduction,
            "double {d_reduction} must tolerate more than half {h_reduction}"
        );
    }

    #[test]
    #[should_panic(expected = "does not support")]
    fn unsupported_precision_rejected() {
        #[derive(Debug)]
        struct NoHalf;
        impl Workload for NoHalf {
            fn name(&self) -> &str {
                "nohalf"
            }
            fn dispatch(&self, _p: Precision, _hook: &mut dyn crate::hook::FaultHook) -> Vec<f64> {
                vec![]
            }
            fn supports(&self, p: Precision) -> bool {
                p != Precision::Half
            }
        }
        let _ = InjectionCampaign::new(&NoHalf, Precision::Half);
    }
}
