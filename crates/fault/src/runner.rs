//! The one strike loop behind both campaign drivers.
//!
//! CAROL-FI injection and beam exposure share their inner loop: draw
//! one fault per execution, run the workload, compare the output with
//! the golden run. [`StrikeRunner`] owns that loop — worker threads,
//! batching, cancellation, panic capture and the strike-index merge —
//! and a driver supplies only what differs: how a strike's fault is
//! drawn and what it records about a corrupted output.

use crate::{CampaignError, ValueFault, Workload};
use mpr_metrics::sampling::{Planner, SamplingPlan};
use mpr_obs::{mix_seed, panic_message, CancelToken, Recorder, Timer};
use mpr_softfloat::ulp::sdc_severity;
use mpr_softfloat::Precision;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, Ordering};

/// Executes a campaign's strikes, fixed or adaptive, in parallel rounds.
///
/// Strike `i` draws from its own `StdRng::seed_from_u64(mix_seed(seed,
/// i))` stream: first the site (uniform over its slot's stratum), then
/// the driver's fault. Workers stride over a round's slots, hand the
/// gathered strikes to [`Workload::run_strike_batch`], score each output
/// against the golden run in one [`sdc_severity`] pass, and tag every
/// corrupted one with its strike index; the merge sorts on that index.
/// Results are therefore byte-identical for every `threads` and
/// `strike_batch`.
///
/// [`SamplingPlan::Fixed`] is one round of `budget` slots over the
/// single stratum `(0, sites)`. [`SamplingPlan::Adaptive`] runs the
/// rounds a [`Planner`] schedules, feeding each round's per-stratum
/// tallies back before asking for the next.
pub struct StrikeRunner<'a> {
    /// The workload under test.
    pub workload: &'a dyn Workload,
    /// Precision every strike runs at.
    pub precision: Precision,
    /// Exactly `workload.run_golden(precision)`.
    pub golden: &'a [f64],
    /// Campaign seed; strike `i` draws from `mix_seed(seed, i)`.
    pub seed: u64,
    /// Strikes a fixed plan executes; the default cap of an adaptive one.
    pub budget: u64,
    /// How the budget is spent.
    pub sampling: SamplingPlan,
    /// Maximum worker threads per round.
    pub threads: usize,
    /// Live strikes per [`Workload::run_strike_batch`] call.
    pub strike_batch: usize,
    /// Polled at every batch boundary and after every reported strike.
    pub cancel: &'a CancelToken,
    /// Receives one `busy_timer` event per worker per round.
    pub recorder: &'a dyn Recorder,
    /// Name of the per-worker busy timer (`inject.worker_busy`, ...).
    pub busy_timer: &'a str,
    /// Scope attached to every busy-timer event.
    pub scope: &'a str,
}

impl std::fmt::Debug for StrikeRunner<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StrikeRunner")
            .field("workload", &self.workload.name())
            .field("precision", &self.precision)
            .field("seed", &self.seed)
            .field("budget", &self.budget)
            .field("sampling", &self.sampling)
            .field("threads", &self.threads)
            .field("strike_batch", &self.strike_batch)
            .finish_non_exhaustive()
    }
}

/// Resolves a worker-thread budget: `0` asks for every available core
/// (4 when the platform cannot tell), any other count is taken as is.
pub fn resolve_threads(threads: usize) -> usize {
    match threads {
        0 => std::thread::available_parallelism().map_or(4, |n| n.get()),
        n => n,
    }
}

/// What a [`StrikeRunner`] hands back to its driver.
#[derive(Debug)]
pub struct Strikes<T> {
    /// One observation per corrupted strike, in strike-index order.
    pub observed: Vec<T>,
    /// Strikes executed, dead ones included.
    pub executed: u64,
    /// Stratified per-strike SDC rate `sum_h W_h * e_h / n_h`; adaptive
    /// plans only.
    pub rate: Option<f64>,
    /// Summed worker-busy seconds (zero under a disabled recorder).
    pub busy_s: f64,
    /// Worker threads available to a round: `threads`, capped by the
    /// budget, at least one.
    pub workers: usize,
}

impl StrikeRunner<'_> {
    /// Runs every strike the plan schedules. `fault` draws a strike's
    /// fault after its site; `None` marks a dead strike, which counts as
    /// executed but never runs. Each output is compared with the golden
    /// run and scored in the same pass ([`sdc_severity`]); `observe` runs
    /// on corrupted outputs only and receives the output together with
    /// its severity, `max_relative_error(out, golden)`.
    ///
    /// # Panics
    ///
    /// Panics, before any worker starts, if the workload exposes no
    /// fault sites.
    ///
    /// # Errors
    ///
    /// [`CampaignError::Cancelled`] if the token fires before the last
    /// strike completes, [`CampaignError::WorkerPanic`] if a worker
    /// panics (a workload returning an output whose length differs from
    /// the golden run's is one such panic). Partial work is discarded
    /// either way, so a retry with the same seed is byte-identical to an
    /// untroubled run.
    pub fn run<T, F, O>(&self, fault: F, observe: O) -> Result<Strikes<T>, CampaignError>
    where
        T: Send,
        F: Fn(&mut StdRng) -> Option<ValueFault> + Sync,
        O: Fn(&[f64], f64) -> T + Sync,
    {
        let sites = self.workload.site_count(self.precision);
        assert!(sites > 0, "workload exposes no fault sites");
        let nthreads = self.threads.min(self.budget.max(1) as usize);
        let mut tagged = Vec::new();
        let mut busy_s = 0.0;
        let (executed, rate) = match self.sampling {
            SamplingPlan::Fixed => {
                let range = |_| (0, sites);
                (tagged, busy_s) =
                    self.round(self.budget as usize, 0, &range, nthreads, &fault, &observe)?;
                (self.budget, None)
            }
            SamplingPlan::Adaptive(config) => {
                let mut planner = Planner::new(sites, self.budget, config);
                let bounds = planner.bounds().to_vec();
                // Global strike index of the round's slot 0.
                let mut base = 0u64;
                while let Some(schedule) = planner.next_round() {
                    #[expect(
                        clippy::indexing_slicing,
                        reason = "`round` asks only for slots below `schedule.len()`, and schedule entries index the planner's own bounds table"
                    )]
                    let range = |slot: usize| bounds[schedule[slot]];
                    let (round, busy) =
                        self.round(schedule.len(), base, &range, nthreads, &fault, &observe)?;
                    busy_s += busy;
                    // Commit the round: every slot executed (a cancelled
                    // round returned above) and each SDC maps back to its
                    // stratum through the slot it ran in.
                    let mut executed_by = vec![0u64; bounds.len()];
                    let mut events_by = vec![0u64; bounds.len()];
                    #[expect(
                        clippy::indexing_slicing,
                        reason = "schedule entries index the bounds table both tallies are sized by, and every observation index lies in `base..base + schedule.len()`"
                    )]
                    {
                        for &h in &schedule {
                            executed_by[h] += 1;
                        }
                        for &(i, _) in &round {
                            events_by[schedule[(i - base) as usize]] += 1;
                        }
                    }
                    planner.complete_round(&executed_by, &events_by);
                    tagged.extend(round);
                    base += schedule.len() as u64;
                }
                (planner.executed(), Some(planner.weighted_rate()))
            }
        };
        tagged.sort_by_key(|&(i, _)| i);
        Ok(Strikes {
            observed: tagged.into_iter().map(|(_, o)| o).collect(),
            executed,
            rate,
            busy_s,
            workers: nthreads,
        })
    }

    /// Runs one round of `slots` strikes with global indices `base +
    /// slot` on scoped workers striding over the slots; slot `s` draws
    /// its site from the `(lo, len)` range `range(s)`. Returns the
    /// index-tagged observations and the summed busy seconds.
    fn round<T, R, F, O>(
        &self,
        slots: usize,
        base: u64,
        range: &R,
        nthreads: usize,
        fault: &F,
        observe: &O,
    ) -> Result<(Vec<(u64, T)>, f64), CampaignError>
    where
        T: Send,
        R: Fn(usize) -> (u64, u64) + Sync,
        F: Fn(&mut StdRng) -> Option<ValueFault> + Sync,
        O: Fn(&[f64], f64) -> T + Sync,
    {
        let stride = nthreads.min(slots).max(1);
        // Set by a worker only when it actually bailed out early, so a
        // deadline that expires just after the last strike completes
        // does not spuriously cancel a finished round.
        let aborted = AtomicBool::new(false);
        let mut tagged = Vec::new();
        let mut busy_s = 0.0;
        let mut worker_panic = None;
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..stride)
                .map(|first| {
                    let aborted = &aborted;
                    scope.spawn(move || {
                        let busy = Timer::start(self.recorder, self.busy_timer, self.scope);
                        let mut observed = Vec::new();
                        let mut batch: Vec<(u64, ValueFault)> =
                            Vec::with_capacity(self.strike_batch);
                        let mut indices: Vec<u64> = Vec::with_capacity(self.strike_batch);
                        let mut slot = first;
                        while slot < slots {
                            // Watchdog poll at the batch boundary; the
                            // execute callback polls again after every
                            // strike, so slow workloads on the default
                            // strike-at-a-time path keep per-strike
                            // granularity.
                            if self.cancel.is_cancelled() {
                                aborted.store(true, Ordering::Relaxed);
                                break;
                            }
                            // Gather: each strike draws its site, then its
                            // fault, from its own stream. Batching regroups
                            // execution, never the draws.
                            batch.clear();
                            indices.clear();
                            while slot < slots && batch.len() < self.strike_batch {
                                let index = base + slot as u64;
                                let mut rng = StdRng::seed_from_u64(mix_seed(self.seed, index));
                                let (lo, len) = range(slot);
                                let site = if len == 0 {
                                    lo
                                } else {
                                    lo + rng.gen_range(0..len)
                                };
                                if let Some(f) = fault(&mut rng) {
                                    batch.push((site, f));
                                    indices.push(index);
                                }
                                slot += stride;
                            }
                            if batch.is_empty() {
                                continue;
                            }
                            // Execute: results arrive in any order and are
                            // keyed back to their strike index.
                            let mut bailed = false;
                            self.workload.run_strike_batch(
                                self.precision,
                                &batch,
                                self.golden,
                                &mut |b, out| {
                                    if let Some(severity) = sdc_severity(out, self.golden) {
                                        #[expect(
                                            clippy::indexing_slicing,
                                            reason = "the batch contract keys callbacks by batch position (`b < batch.len() == indices.len()`); an out-of-range `b` is a workload-override bug the differential tests pin, not a recoverable strike failure"
                                        )]
                                        observed.push((indices[b], observe(out, severity)));
                                    }
                                    if self.cancel.is_cancelled() {
                                        bailed = true;
                                        return false;
                                    }
                                    true
                                },
                            );
                            if bailed {
                                aborted.store(true, Ordering::Relaxed);
                                break;
                            }
                        }
                        (observed, busy.stop())
                    })
                })
                .collect();
            for h in handles {
                // Every handle is joined even after a panic or abort: the
                // scope never re-raises, and the payload feeds the
                // structured failure path instead of a backtrace.
                match h.join() {
                    Ok((observed, busy)) => {
                        tagged.extend(observed);
                        busy_s += busy;
                    }
                    Err(payload) => worker_panic = Some(panic_message(payload)),
                }
            }
        });
        if let Some(msg) = worker_panic {
            return Err(CampaignError::WorkerPanic(msg));
        }
        if aborted.load(Ordering::Relaxed) {
            return Err(CampaignError::Cancelled);
        }
        Ok((tagged, busy_s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::testutil::Dot;
    use crate::FaultModel;
    use mpr_metrics::sampling::SamplingConfig;
    use mpr_obs::NULL_RECORDER;
    use mpr_softfloat::ulp::max_relative_error;
    use std::sync::atomic::AtomicUsize;

    /// Every failure-path test covers both plans.
    fn plans() -> [SamplingPlan; 2] {
        [
            SamplingPlan::Fixed,
            SamplingPlan::Adaptive(SamplingConfig::quick()),
        ]
    }

    /// Runs `budget` single-bit strikes against `workload` on two
    /// workers, batch 4; `observe` sees each corrupted output.
    fn run(
        workload: &dyn Workload,
        sampling: SamplingPlan,
        budget: u64,
        cancel: &CancelToken,
        observe: &(dyn Fn(&[f64], f64) -> f64 + Sync),
    ) -> Result<Strikes<f64>, CampaignError> {
        let golden = workload.run_golden(Precision::Single);
        StrikeRunner {
            workload,
            precision: Precision::Single,
            golden: &golden,
            seed: 11,
            budget,
            sampling,
            threads: 2,
            strike_batch: 4,
            cancel,
            recorder: &NULL_RECORDER,
            busy_timer: "test.worker_busy",
            scope: "",
        }
        .run(|rng| Some(FaultModel::SingleBit.sample(32, rng)), observe)
    }

    fn bits(s: &Strikes<f64>) -> (u64, Vec<u64>) {
        (s.executed, s.observed.iter().map(|v| v.to_bits()).collect())
    }

    #[test]
    fn observe_receives_each_corrupted_outputs_severity() {
        let golden = Dot(16).run_golden(Precision::Single);
        for plan in plans() {
            let observe = |out: &[f64], severity: f64| {
                let want = max_relative_error(out, &golden);
                assert_eq!(severity.to_bits(), want.to_bits(), "{plan:?}");
                severity
            };
            let strikes =
                run(&Dot(16), plan, 64, &CancelToken::unlimited(), &observe).expect("clean run");
            assert!(!strikes.observed.is_empty(), "{plan:?}");
        }
    }

    #[test]
    fn pre_fired_token_cancels_without_panicking() {
        for plan in plans() {
            let token = CancelToken::unlimited();
            token.cancel();
            let err = run(&Dot(16), plan, 64, &token, &|out, _| out[0])
                .expect_err("runner must report cancellation");
            assert_eq!(err, CampaignError::Cancelled, "{plan:?}");
        }
    }

    #[test]
    fn worker_panic_becomes_structured_error() {
        #[derive(Debug)]
        struct Exploding;
        impl Workload for Exploding {
            fn name(&self) -> &str {
                "exploding"
            }
            fn dispatch(&self, _p: Precision, _hook: &mut dyn crate::hook::FaultHook) -> Vec<f64> {
                panic!("strike handler exploded")
            }
            fn site_count(&self, _p: Precision) -> u64 {
                8
            }
            fn run_golden(&self, _p: Precision) -> Vec<f64> {
                vec![0.0]
            }
        }
        for plan in plans() {
            let err = run(&Exploding, plan, 4, &CancelToken::unlimited(), &|out, _| {
                out[0]
            })
            .expect_err("runner must report the panic");
            assert_eq!(
                err,
                CampaignError::WorkerPanic("strike handler exploded".to_string()),
                "{plan:?}"
            );
        }
    }

    #[test]
    fn retry_after_cancellation_is_byte_identical_to_clean_run() {
        let unlimited = CancelToken::unlimited();
        for plan in plans() {
            let clean = run(&Dot(16), plan, 64, &unlimited, &|out, _| out[0]).expect("clean run");
            assert!(!clean.observed.is_empty(), "{plan:?}");
            // A cancelled attempt leaves no residue: re-running with the
            // same seed reproduces the clean run bit for bit.
            let token = CancelToken::unlimited();
            token.cancel();
            let _ = run(&Dot(16), plan, 64, &token, &|out, _| out[0]);
            let retried = run(&Dot(16), plan, 64, &unlimited, &|out, _| out[0]).expect("retry");
            assert_eq!(bits(&clean), bits(&retried), "{plan:?}");
        }
    }

    #[test]
    fn cancel_from_the_observe_callback_discards_the_partial_run() {
        // The token fires mid-batch, at the third corrupted strike. Each
        // worker polls after every strike, so with two workers at most
        // one more corrupted strike is observed before both stop. Every
        // observation from the third on cancels, so the other worker
        // cannot slip strikes in between the third count and the cancel.
        for plan in plans() {
            let token = CancelToken::unlimited();
            let seen = AtomicUsize::new(0);
            let observe = |out: &[f64], _: f64| {
                if seen.fetch_add(1, Ordering::Relaxed) + 1 >= 3 {
                    token.cancel();
                }
                out[0]
            };
            let err = run(&Dot(16), plan, 64, &token, &observe)
                .expect_err("runner must report cancellation");
            assert_eq!(err, CampaignError::Cancelled, "{plan:?}");
            assert!((3..=4).contains(&seen.load(Ordering::Relaxed)), "{plan:?}");
        }
    }

    #[test]
    #[should_panic(expected = "workload exposes no fault sites")]
    fn zero_site_workload_is_rejected_before_any_worker_starts() {
        let _ = run(
            &Dot(0),
            SamplingPlan::Fixed,
            8,
            &CancelToken::unlimited(),
            &|out, _| out[0],
        );
    }
}
