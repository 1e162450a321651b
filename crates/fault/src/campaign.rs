//! The injection and error-accumulation drivers.

use crate::hook::MultiStrikeHook;
use crate::{FaultModel, StrikeRunner, ValueFault};
use mpr_metrics::{OutcomeCounts, TreCurve, Vulnerability};
use mpr_obs::{Counter, SplitMix, Timer};
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

/// Runs a CAROL-FI injection campaign on `ctx`: `injections`
/// independent faults drawn from `model`, one per execution of the
/// workload at a random dynamic site, each classified against the
/// golden run (paper Section 3.3: more than 2,000 faults per
/// application and data type). Under an adaptive plan `injections` is
/// the strike budget.
///
/// `live_fraction` is the fraction of *register bit-flip* injections
/// that land in live state. Architectural injection campaigns pick
/// registers blindly; a flip in a dead or stale register is trivially
/// masked (SASSIFI / CAROL-FI behave the same way). Wide pipeline
/// corruptions always hit an in-flight operation and ignore this
/// fraction.
///
/// # Example
///
/// ```rust
/// # use mpr_fault::{inject, FaultModel, StrikeRunner, Workload};
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
/// let golden = W.run_golden(Precision::Single);
/// let ctx = StrikeRunner {
///     seed: 1,
///     ..StrikeRunner::new(&W, Precision::Single, &golden)
/// };
/// let report = inject(&ctx, 100, FaultModel::SingleBit, 1.0)?;
/// let repeat = inject(&ctx, 100, FaultModel::SingleBit, 1.0)?;
/// assert_eq!(report.counts, repeat.counts); // seeded determinism
/// # Ok::<(), mpr_fault::CampaignError>(())
/// ```
///
/// # Panics
///
/// Panics if `live_fraction` is outside `(0, 1]`, and as
/// [`StrikeRunner::run`] does.
///
/// # Errors
///
/// As [`StrikeRunner::run`]: watchdog cancellation and worker panics.
pub fn inject(
    ctx: &StrikeRunner<'_>,
    injections: u64,
    model: FaultModel,
    live_fraction: f64,
) -> Result<InjectionReport, CampaignError> {
    assert!(
        live_fraction > 0.0 && live_fraction <= 1.0,
        "live fraction must be in (0,1], got {live_fraction}"
    );
    let width = ctx.precision.total_bits();
    let strikes = ctx.run(
        "inject",
        injections,
        0,
        |rng| {
            // A register flip lands in dead state with probability
            // `1 - live_fraction`: it counts as executed and masked
            // without running.
            let fault = model.sample(width, rng);
            let dead = matches!(fault, ValueFault::BitFlip(_))
                && live_fraction < 1.0
                && !rng.gen_bool(live_fraction);
            (!dead).then_some(fault)
        },
        |_, severity| severity,
    )?;
    let sdc = strikes.observed.len() as u64;
    let counts = OutcomeCounts {
        masked: strikes.executed - sdc,
        sdc,
        due: 0,
    };
    Counter::new(ctx.recorder, "inject.injections", ctx.scope).add(injections);
    Counter::new(ctx.recorder, "inject.due", ctx.scope).add(counts.due);
    Ok(InjectionReport {
        workload: ctx.workload.name().to_string(),
        precision: ctx.precision,
        counts,
        severities: strikes.observed,
    })
}

/// Runs an FPGA error-accumulation campaign on `ctx`: `trials`
/// executions, each with `faults` stuck-at configuration upsets piled
/// up at once (the regime the paper avoids by reprogramming at each
/// observed error, Section 4). Trials run one after another, and every
/// site, bit and polarity comes from one sequential [`SplitMix`]
/// stream of the context's seed; the context's sampling plan, threads
/// and batching do not apply. A trial runs through
/// [`Workload::dispatch`](crate::Workload::dispatch) with a
/// [`MultiStrikeHook`], which lets every fault-free span of sites pass
/// untouched ([`FaultHook::skip`](crate::hook::FaultHook::skip)).
///
/// Records `campaign.wall` (unless cancelled), `accumulate.trials` and
/// `accumulate.sdc` under the context's scope.
///
/// # Panics
///
/// Panics if a fault is drawn on a workload without fault sites.
///
/// # Errors
///
/// [`CampaignError::Cancelled`] if the watchdog fires.
pub fn accumulate(
    ctx: &StrikeRunner<'_>,
    faults: u32,
    trials: u32,
) -> Result<AccumulateOutcome, CampaignError> {
    let wall = Timer::start(ctx.recorder, "campaign.wall", ctx.scope);
    let sites = ctx.workload.site_count(ctx.precision);
    let width = ctx.precision.total_bits();
    let mut rng = SplitMix::new(ctx.seed);
    let mut sdc = 0u64;
    let mut corrupted_sum = 0.0;
    for _ in 0..trials {
        // Watchdog poll at trial granularity: one trial is a full
        // workload run, the accumulation loop's strike batch.
        if ctx.cancel.is_cancelled() {
            wall.cancel();
            return Err(CampaignError::Cancelled);
        }
        let strikes: Vec<(u64, ValueFault)> = (0..faults)
            .map(|_| {
                let site = rng.next_u64() % sites;
                let bit = (rng.next_u64() % width as u64) as u32;
                let fault = if rng.next_u64().is_multiple_of(2) {
                    ValueFault::StuckHigh(bit)
                } else {
                    ValueFault::StuckLow(bit)
                };
                (site, fault)
            })
            .collect();
        let out = ctx
            .workload
            .dispatch(ctx.precision, &mut MultiStrikeHook::new(strikes));
        let corrupted = out
            .iter()
            .zip(ctx.golden)
            .filter(|(a, b)| a.to_bits() != b.to_bits())
            .count();
        if corrupted > 0 {
            sdc += 1;
            corrupted_sum += corrupted as f64 / ctx.golden.len().max(1) as f64;
        }
    }
    Counter::new(ctx.recorder, "accumulate.trials", ctx.scope).add(u64::from(trials));
    Counter::new(ctx.recorder, "accumulate.sdc", ctx.scope).add(sdc);
    wall.stop();
    Ok(AccumulateOutcome {
        sdc_probability: sdc as f64 / trials.max(1) as f64,
        corruption_extent: if sdc > 0 {
            corrupted_sum / sdc as f64
        } else {
            0.0
        },
        trials,
    })
}

/// The outcome of an [`accumulate`] campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct AccumulateOutcome {
    /// Fraction of trials whose output was corrupted.
    pub sdc_probability: f64,
    /// Mean fraction of output elements corrupted, among SDC trials.
    pub corruption_extent: f64,
    /// Number of trials behind the estimate.
    pub trials: u32,
}

/// The result of an [`inject`] campaign.
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
    use crate::Workload;

    /// A single-bit campaign of `n` injections.
    fn run(w: &dyn Workload, p: Precision, n: u64, seed: u64, threads: usize) -> InjectionReport {
        let golden = w.run_golden(p);
        let ctx = StrikeRunner {
            seed,
            threads,
            ..StrikeRunner::new(w, p, &golden)
        };
        inject(&ctx, n, FaultModel::SingleBit, 1.0).expect("clean run")
    }

    #[test]
    fn campaign_is_deterministic_across_thread_counts() {
        let w = Dot(16);
        let one = run(&w, Precision::Single, 64, 11, 1);
        let many = run(&w, Precision::Single, 64, 11, 7);
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
        let a = run(&w, Precision::Half, 128, 1, 0);
        let b = run(&w, Precision::Half, 128, 2, 0);
        // Outcome counts may coincide, but severity lists almost surely
        // differ for live workloads.
        assert_ne!(a.severities, b.severities);
    }

    #[test]
    fn all_injections_are_classified() {
        let w = Dot(16);
        let r = run(&w, Precision::Double, 100, 0, 0);
        assert_eq!(r.counts.total(), 100);
        assert_eq!(r.counts.sdc as usize, r.severities.len());
        assert_eq!(r.counts.due, 0);
    }

    #[test]
    fn severities_feed_a_tre_curve() {
        let w = Dot(32);
        let r = run(&w, Precision::Half, 300, 5, 0);
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
        let double = run(&w, Precision::Double, 400, 9, 0);
        let half = run(&w, Precision::Half, 400, 9, 0);
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
        let _ = run(&NoHalf, Precision::Half, 1, 0, 0);
    }
}
