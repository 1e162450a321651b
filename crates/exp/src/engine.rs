//! The experiment engine: plans, deduplication, cell execution (one
//! cell at a time, its strikes spread over every worker thread), and
//! the fault-tolerance harness (per-cell isolation, watchdog timeouts,
//! deterministic retry, and the resume manifest).

use crate::cell::{CellKey, CellKind};
use crate::failure::{failure_table, CellFailure, FailureKind};
use crate::manifest::{CellState, CellStatus, Manifest};
use crate::store::{CellResult, LookupSource, ResultStore};
use mpr_beam::{expose, BeamSession};
use mpr_fault::{accumulate, inject, CampaignError, StrikeRunner};
use mpr_metrics::sampling::{largest_remainder, rel_ci_width, SamplingPlan};
use mpr_obs::{
    fnv1a64, panic_message, CancelToken, Counter, Metric, NullRecorder, Recorder, Timer,
};
use std::collections::BTreeMap;
use std::panic::AssertUnwindSafe;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// An ordered list of requested cells.
///
/// Push every cell a figure needs — duplicates are welcome and cheap:
/// the engine executes each *unique* cell once and hands every
/// requester a handle to that one result. Results come back in request
/// order.
#[derive(Debug, Default, Clone)]
pub struct ExperimentPlan {
    cells: Vec<CellKey>,
}

impl ExperimentPlan {
    /// An empty plan.
    pub fn new() -> ExperimentPlan {
        ExperimentPlan::default()
    }

    /// Requests a cell; returns its index into the result vector.
    pub fn push(&mut self, key: CellKey) -> usize {
        self.cells.push(key);
        self.cells.len() - 1
    }

    /// The requested cells, in request order.
    pub fn cells(&self) -> &[CellKey] {
        &self.cells
    }

    /// Number of requested cells (duplicates included).
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the plan is empty.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Number of *unique* cells the plan would execute.
    pub fn unique_count(&self) -> usize {
        let mut seen: BTreeMap<String, ()> = BTreeMap::new();
        for c in &self.cells {
            seen.insert(c.canonical(), ());
        }
        seen.len()
    }
}

/// One unique cell's outcome plus the attempts its last run made
/// (0 = served from cache, never re-executed this run).
type CellOutcome = (Result<CellResult, CellFailure>, u32);

/// Executes experiment plans against a [`ResultStore`].
///
/// The engine owns the study's base seed and thread budget. There is
/// one level of parallelism: cells execute one after another, and each
/// campaign's [`StrikeRunner`](mpr_fault::StrikeRunner) spreads its
/// strikes over the whole budget. Every cell derives its RNG stream
/// from `(base seed, cell key)` alone, and the campaign layers are
/// thread-count invariant, so results are bit-identical for any thread
/// count and any request order.
///
/// # Fault tolerance
///
/// Each cell body runs isolated under `catch_unwind`: a panicking or
/// hung cell becomes a structured [`CellFailure`] in that cell's slot
/// while every healthy cell in the plan still completes. Failed cells
/// are retried up to [`Engine::with_retries`] times with the *same*
/// per-cell seed — a successful retry is byte-identical to an
/// untroubled first run. [`Engine::with_cell_timeout`] arms the paper's
/// board-watchdog analogue: a cell exceeding the deadline is cancelled
/// cooperatively at strike-batch granularity and recorded as hung.
/// When a disk cache is attached, a `manifest.json` ledger records
/// per-cell status so `--resume` runs re-execute exactly the
/// failed/missing subset.
#[derive(Clone)]
pub struct Engine {
    seed: u64,
    threads: usize,
    retries: u32,
    cell_timeout: Option<Duration>,
    cancel: CancelToken,
    store: Arc<ResultStore>,
    recorder: Arc<dyn Recorder>,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("seed", &self.seed)
            .field("threads", &self.threads)
            .field("retries", &self.retries)
            .field("cell_timeout", &self.cell_timeout)
            .field("store", &self.store)
            .finish()
    }
}

impl Engine {
    /// An engine with a fresh in-memory store and automatic threading.
    pub fn new(seed: u64) -> Engine {
        Engine {
            seed,
            threads: 0,
            retries: 0,
            cell_timeout: None,
            cancel: CancelToken::unlimited(),
            store: Arc::new(ResultStore::in_memory()),
            recorder: Arc::new(NullRecorder),
        }
    }

    /// Overrides the worker-thread budget every campaign spreads its
    /// strikes over (0 = available parallelism).
    pub fn with_threads(mut self, threads: usize) -> Engine {
        self.threads = threads;
        self
    }

    /// Number of times a failed or hung cell is re-attempted (default
    /// 0). Retries reuse the cell's seed unchanged, so the
    /// seed-determinism contract holds: a retry that succeeds is
    /// byte-identical to a first run that never failed.
    pub fn with_retries(mut self, retries: u32) -> Engine {
        self.retries = retries;
        self
    }

    /// Arms a per-cell watchdog deadline (`None` = no deadline, the
    /// default). A cell attempt exceeding it is cancelled at the next
    /// strike-batch boundary — no thread is ever detached — and
    /// recorded as hung.
    pub fn with_cell_timeout(mut self, timeout: Option<Duration>) -> Engine {
        self.cell_timeout = timeout;
        self
    }

    /// The plan-level shutdown token: firing it (from a signal thread,
    /// a strike worker, or a deadline) makes the engine stop starting
    /// new cells, lets the in-flight cell cancel cooperatively at its
    /// next batch boundary, and still flushes the campaign manifest — so
    /// an interrupted run is always resumable. This is the process's
    /// SIGINT analogue: the workspace is `unsafe`-free, so an actual
    /// signal handler cannot be installed; a front end that catches
    /// SIGINT fires this token instead.
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Attaches a (possibly shared, possibly disk-backed) result store.
    pub fn with_store(mut self, store: Arc<ResultStore>) -> Engine {
        self.store = store;
        self
    }

    /// Attaches an observability recorder; the engine and the campaigns
    /// it runs record plan, cache, timing, and throughput events into
    /// it. Telemetry never perturbs RNG streams or results.
    pub fn with_recorder(mut self, recorder: Arc<dyn Recorder>) -> Engine {
        self.recorder = recorder;
        self
    }

    /// The attached observability recorder.
    pub fn recorder(&self) -> &Arc<dyn Recorder> {
        &self.recorder
    }

    /// The engine's base seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The engine's result store.
    pub fn store(&self) -> &Arc<ResultStore> {
        &self.store
    }

    /// The configured retry budget per cell.
    pub fn retries(&self) -> u32 {
        self.retries
    }

    /// The configured per-cell watchdog deadline.
    pub fn cell_timeout(&self) -> Option<Duration> {
        self.cell_timeout
    }

    /// Runs a plan: dedups the requested cells, executes the unique
    /// misses one after another (each on every worker thread), and
    /// returns one result per request, in request order.
    ///
    /// # Panics
    ///
    /// Panics with a rendered per-cell failure table if any cell
    /// exhausts its attempts. Figures and tables are pure views over a
    /// fully resolved plan, so for them an unresolved cell is fatal by
    /// design; callers that must survive partial failure (the CLI's
    /// campaign commands, the hostile-harness example) use
    /// [`Engine::try_run`]. Healthy cells are already written through
    /// to the disk cache before this panic, so a later `--resume` run
    /// re-executes only the failed subset.
    #[expect(clippy::panic, reason = "documented under `# Panics`")]
    pub fn run(&self, plan: &ExperimentPlan) -> Vec<CellResult> {
        let results = self.try_run(plan);
        let mut failures: Vec<CellFailure> = Vec::new();
        for failed in results.iter().filter_map(|r| r.as_ref().err()) {
            if !failures.iter().any(|seen| seen.cell == failed.cell) {
                failures.push(failed.clone());
            }
        }
        if !failures.is_empty() {
            panic!(
                "{} of {} cells failed\n{}",
                failures.len(),
                plan.unique_count(),
                failure_table(&failures)
            );
        }
        results.into_iter().filter_map(Result::ok).collect()
    }

    /// Runs a plan fault-tolerantly: every healthy cell completes and
    /// returns `Ok`; each cell that exhausted its attempt budget
    /// returns `Err` with its structured failure. Results come back in
    /// request order (duplicate requests of a failed cell share the
    /// failure). When the store has a cache directory, the campaign
    /// manifest is updated with every cell's status.
    ///
    /// Unique cells resolve one at a time, in request order: a store hit
    /// is served as is, and a miss runs its campaign on the engine's
    /// worker threads before the next cell starts.
    pub fn try_run(&self, plan: &ExperimentPlan) -> Vec<Result<CellResult, CellFailure>> {
        let rec = &*self.recorder;
        let wall = Timer::start(rec, "plan.wall", "");
        // Dedup while preserving first-seen order.
        let mut unique: Vec<&CellKey> = Vec::new();
        let mut canonicals: Vec<String> = Vec::new();
        let mut index_of: BTreeMap<String, usize> = BTreeMap::new();
        let mut request_to_unique = Vec::with_capacity(plan.len());
        for key in plan.cells() {
            let canonical = key.canonical();
            let idx = *index_of.entry(canonical.clone()).or_insert_with(|| {
                unique.push(key);
                canonicals.push(canonical);
                unique.len() - 1
            });
            request_to_unique.push(idx);
        }
        let store_keys: Vec<String> = unique
            .iter()
            .map(|key| ResultStore::store_key(self.seed, key))
            .collect();
        Counter::new(rec, "plan.requests", "").add(plan.len() as u64);
        Counter::new(rec, "plan.unique", "").add(unique.len() as u64);
        Counter::new(rec, "plan.dedup_saved", "").add((plan.len() - unique.len()) as u64);
        let swept = self.store.take_tmp_swept();
        if swept > 0 {
            Counter::new(rec, "engine.cache_tmp_swept", "").add(swept);
        }

        // One level of parallelism: cells resolve one after another, in
        // request order, and each miss spreads its campaign's strikes
        // over every worker thread. The engine itself spawns nothing.
        let mut outcomes: Vec<CellOutcome> = Vec::with_capacity(unique.len());
        for ((key, store_key), canonical) in unique.iter().zip(&store_keys).zip(&canonicals) {
            outcomes.push(match self.lookup(store_key, canonical) {
                Some(result) => (Ok(result), 0),
                None => self.execute_and_insert(key, store_key, canonical, &wall),
            });
        }

        // Cross-cell budget reallocation (adaptive cells only): strikes
        // that converged cells left unspent flow to the plan's noisiest
        // unconverged cells, which rerun with a boosted budget under a
        // *new* cell key (a bigger budget is a different experiment, so
        // it caches separately). The grant schedule is a pure function
        // of the phase-1 results, so the two-phase run inherits their
        // determinism across thread counts and cache temperatures.
        self.reallocate_spare_budget(&unique, &mut outcomes, &wall);

        if let Some(dir) = self.store.cache_dir() {
            self.write_manifest(dir, &store_keys, &outcomes);
        }

        #[expect(
            clippy::indexing_slicing,
            reason = "every request maps to an index of `unique`, and `outcomes` holds one entry per unique cell"
        )]
        let results = request_to_unique
            .into_iter()
            .map(|i| outcomes[i].0.clone())
            .collect();
        results
    }

    /// Looks a cell up in the store and counts where the answer came
    /// from under the cell's canonical key. A corrupt entry is
    /// quarantined and counted as a miss. A lookup that goes to the
    /// disk cache (hit, miss or quarantine) is timed as `cache.read`.
    fn lookup(&self, store_key: &str, canonical: &str) -> Option<CellResult> {
        let rec = &*self.recorder;
        let read = self.cache_timer("cache.read", canonical);
        let (hit, source) = self.store.lookup_traced(store_key);
        if let Some(read) = read {
            if source == LookupSource::Memory {
                read.cancel();
            } else {
                read.stop();
            }
        }
        let counter = match source {
            LookupSource::Memory => "cache.mem_hit",
            LookupSource::Disk => "cache.disk_hit",
            LookupSource::Miss => "cache.miss",
            LookupSource::CorruptQuarantined => {
                Counter::new(rec, "engine.cache_quarantined", canonical).incr();
                "cache.miss"
            }
        };
        Counter::new(rec, counter, canonical).incr();
        hit
    }

    /// Executes a cache miss, records its `cell.queue` (plan start until
    /// execution began), `cell.exec` and `cell.total` timers, and writes
    /// a success through to the store. A cell reached after the plan
    /// token fired is not started: it is recorded cancelled with zero
    /// attempts, fully resumable.
    fn execute_and_insert(
        &self,
        key: &CellKey,
        store_key: &str,
        canonical: &str,
        wall: &Timer,
    ) -> CellOutcome {
        let rec = &*self.recorder;
        if self.cancel.is_cancelled() {
            Counter::new(rec, "engine.cell_cancelled", canonical).incr();
            let cancelled = CellFailure {
                cell: canonical.to_string(),
                attempts: 0,
                kind: FailureKind::Cancelled,
            };
            return (Err(cancelled), 0);
        }
        let queued_s = wall.elapsed_s();
        if rec.enabled() {
            rec.record("cell.queue", canonical, Metric::Time(queued_s));
        }
        let exec = Timer::start(rec, "cell.exec", canonical);
        let outcome = self.execute_with_recovery(key, canonical);
        let exec_s = exec.stop();
        if rec.enabled() {
            rec.record("cell.total", canonical, Metric::Time(queued_s + exec_s));
        }
        if let (Ok(result), _) = &outcome {
            let write = self.cache_timer("cache.write", canonical);
            let saved = self.store.insert(store_key, result.clone());
            drop(write);
            if let Err(e) = saved {
                Counter::new(rec, "engine.cache_write_failed", canonical).incr();
                eprintln!("mpr-exp: failed to write cache entry for {canonical}: {e}");
            }
        }
        outcome
    }

    /// A timer for disk-cache traffic under a cell's canonical key, or
    /// `None` (no clock read, no allocation) without a cache dir or an
    /// enabled recorder.
    fn cache_timer(&self, name: &'static str, canonical: &str) -> Option<Timer<'_>> {
        let rec = &*self.recorder;
        (rec.enabled() && self.store.cache_dir().is_some())
            .then(|| Timer::start(rec, name, canonical))
    }

    /// Convenience: runs a single cell through the store.
    ///
    /// # Panics
    ///
    /// Panics with the rendered failure table if the cell exhausts its
    /// attempts (see [`Engine::run`]).
    #[expect(
        clippy::expect_used,
        reason = "a one-cell plan returns exactly one result"
    )]
    pub fn run_one(&self, key: &CellKey) -> CellResult {
        let mut plan = ExperimentPlan::new();
        plan.push(key.clone());
        self.run(&plan).into_iter().next().expect("one result")
    }

    /// Convenience: runs a single cell fault-tolerantly.
    #[expect(
        clippy::expect_used,
        reason = "a one-cell plan returns exactly one result"
    )]
    pub fn try_run_one(&self, key: &CellKey) -> Result<CellResult, CellFailure> {
        let mut plan = ExperimentPlan::new();
        plan.push(key.clone());
        self.try_run(&plan).into_iter().next().expect("one result")
    }

    /// Phase-2 budget reallocation across a resolved plan (see
    /// [`Engine::try_run`]). Converged adaptive cells donate their
    /// unspent strikes to a plan-level pool; the pool is apportioned
    /// over the unconverged adaptive cells by largest-remainder
    /// rounding on their CI widths (noisier cells draw more), and each
    /// granted cell reruns with its budget raised by the grant. A
    /// failed boost never degrades the plan — the phase-1 result stays
    /// in place.
    fn reallocate_spare_budget(
        &self,
        unique: &[&CellKey],
        outcomes: &mut [CellOutcome],
        wall: &Timer,
    ) {
        let rec = &*self.recorder;
        if self.cancel.is_cancelled() {
            return;
        }
        let mut pool: u64 = 0;
        // (outcome slot, cell key, effective strike budget, noisiness weight)
        let mut needy: Vec<(&mut CellOutcome, &CellKey, u64, f64)> = Vec::new();
        for (&key, slot) in unique.iter().zip(outcomes.iter_mut()) {
            let SamplingPlan::Adaptive(config) = key.kind.sampling() else {
                continue;
            };
            let (Ok(result), _) = &*slot else {
                continue;
            };
            let (budget, executed, width) = match result {
                CellResult::Beam(r) => (
                    config.budget.unwrap_or(r.candidates),
                    r.executed,
                    rel_ci_width(r.sdc.events()),
                ),
                CellResult::Inject(r) => {
                    let CellKind::Inject { injections, .. } = key.kind else {
                        continue;
                    };
                    (
                        config.budget.unwrap_or(injections),
                        r.counts.total(),
                        rel_ci_width(r.counts.sdc),
                    )
                }
                CellResult::Accumulate(_) => continue,
            };
            if width <= config.ci_width {
                pool += budget.saturating_sub(executed);
            } else {
                // Noisiness rank: a zero-event cell (infinite width)
                // outranks every finite width, which tops out near 3.9
                // at one observed event.
                let weight = if width.is_finite() { width } else { 4.0 };
                needy.push((slot, key, budget, weight));
            }
        }
        if pool == 0 || needy.is_empty() {
            return;
        }
        let weights: Vec<f64> = needy.iter().map(|&(_, _, _, w)| w).collect();
        let grants = largest_remainder(&weights, pool);
        Counter::new(rec, "plan.realloc_pool", "").add(pool);
        for ((slot, key, budget, _), extra) in needy.into_iter().zip(grants) {
            if extra == 0 || self.cancel.is_cancelled() {
                continue;
            }
            let boosted = CellKey {
                kind: key.kind.with_sampling_budget(budget + extra),
                ..key.clone()
            };
            let canonical = boosted.canonical();
            Counter::new(rec, "plan.realloc_granted", &canonical).add(extra);
            let store_key = ResultStore::store_key(self.seed, &boosted);
            let outcome = match self.lookup(&store_key, &canonical) {
                Some(result) => (Ok(result), 0),
                None => self.execute_and_insert(&boosted, &store_key, &canonical, wall),
            };
            if outcome.0.is_ok() {
                *slot = outcome;
            }
        }
    }

    /// Merges this run's per-cell statuses into the cache directory's
    /// campaign manifest (cells recorded by other plans survive). A
    /// ledger this run leaves unchanged is not committed again: a warm
    /// rerun records the same statuses, and rewriting them would cost
    /// two fsyncs per plan for no new byte. An absent, foreign or
    /// quarantined manifest is always written.
    fn write_manifest(&self, dir: &Path, store_keys: &[String], outcomes: &[CellOutcome]) {
        let vfs = self.store.vfs();
        let (prior, quarantined) = Manifest::load_traced(vfs.as_ref(), dir);
        if quarantined {
            Counter::new(&*self.recorder, "engine.manifest_quarantined", "").incr();
        }
        let mut changed = prior.is_none();
        let mut manifest = prior.unwrap_or_else(|| Manifest::new(0));
        for (store_key, (result, attempts)) in store_keys.iter().zip(outcomes) {
            let status = match result {
                Ok(_) => CellStatus {
                    state: CellState::Ok,
                    attempts: *attempts,
                    detail: String::new(),
                },
                Err(failure) => CellStatus {
                    state: match failure.kind {
                        FailureKind::Hung { .. } => CellState::Hung,
                        FailureKind::Panicked { .. } => CellState::Failed,
                        FailureKind::Cancelled => CellState::Cancelled,
                    },
                    attempts: *attempts,
                    detail: failure.kind.to_string(),
                },
            };
            if manifest.cells.get(store_key) != Some(&status) {
                changed = true;
                manifest.record(store_key.clone(), status);
            }
        }
        if !changed {
            return;
        }
        // Plan hash: order-independent over the unique store keys, so
        // figure reordering does not read as a different campaign.
        let mut sorted: Vec<&str> = store_keys.iter().map(String::as_str).collect();
        sorted.sort_unstable();
        let mut hashed = String::new();
        for key in sorted {
            hashed.push_str(key);
            hashed.push('\n');
        }
        manifest.plan_hash = fnv1a64(hashed.as_bytes());
        if let Err(e) = manifest.save_on(vfs.as_ref(), dir) {
            eprintln!(
                "mpr-exp: failed to write campaign manifest in {}: {e}",
                dir.display()
            );
        }
    }

    /// Executes one cell under the isolation harness: `catch_unwind`
    /// per attempt, a fresh watchdog token per attempt, and up to
    /// `retries` re-attempts with the unchanged per-cell seed.
    fn execute_with_recovery(&self, key: &CellKey, canonical: &str) -> CellOutcome {
        let rec = &*self.recorder;
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            // The attempt's watchdog is a *child* of the plan token: a
            // plan-level shutdown reaches every in-flight cell at its
            // next batch-boundary poll, while a per-cell deadline never
            // touches the plan.
            let token = self.cancel.child(self.cell_timeout);
            // Unwind safety, without `unsafe` (the workspace forbids
            // it): `catch_unwind` wants `UnwindSafe`, which `&self`
            // is not because `dyn Recorder` may hold interior
            // mutability. The safe `AssertUnwindSafe` wrapper is sound
            // here because an aborted attempt cannot leave observable
            // broken state:
            // * results reach the store only after the cell body has
            //   returned, so no partial result is ever published;
            // * golden outputs are computed outside the store's lock
            //   and inserted only on success, so the goldens map never
            //   holds a partial vector;
            // * the store's mutexes poison only if their *holder*
            //   panics, and every lock region is a short insert/clone
            //   — cell bodies run lock-free;
            // * the recorder is append-only telemetry; a lost or
            //   duplicated event never feeds back into results.
            let outcome =
                std::panic::catch_unwind(AssertUnwindSafe(|| self.execute(key, canonical, &token)));
            let kind = match outcome {
                Ok(Ok(result)) => return (Ok(result), attempt),
                Ok(Err(CampaignError::Cancelled)) => {
                    // Disambiguate who fired: a plan-level shutdown is
                    // not a hang, consumes no retry, and ends the cell
                    // immediately in a resumable state.
                    if self.cancel.is_cancelled() {
                        Counter::new(rec, "engine.cell_cancelled", canonical).incr();
                        return (
                            Err(CellFailure {
                                cell: canonical.to_string(),
                                attempts: attempt,
                                kind: FailureKind::Cancelled,
                            }),
                            attempt,
                        );
                    }
                    FailureKind::Hung {
                        timeout_s: token.timeout_s().unwrap_or(0.0),
                    }
                }
                Ok(Err(CampaignError::WorkerPanic(message))) => FailureKind::Panicked { message },
                Err(payload) => FailureKind::Panicked {
                    message: panic_message(payload),
                },
            };
            if attempt <= self.retries {
                Counter::new(rec, "engine.retry", canonical).incr();
                continue;
            }
            let counter = match kind {
                FailureKind::Hung { .. } => "engine.cell_hung",
                FailureKind::Panicked { .. } => "engine.cell_failed",
                FailureKind::Cancelled => "engine.cell_cancelled",
            };
            Counter::new(rec, counter, canonical).incr();
            return (
                Err(CellFailure {
                    cell: canonical.to_string(),
                    attempts: attempt,
                    kind,
                }),
                attempt,
            );
        }
    }

    /// Executes one cell: builds its one campaign context (memoized
    /// golden run, cell seed, sampling plan, worker threads, telemetry
    /// scope and the attempt's watchdog token) and hands it to the
    /// cell kind's driver.
    fn execute(
        &self,
        key: &CellKey,
        canonical: &str,
        token: &CancelToken,
    ) -> Result<CellResult, CampaignError> {
        let rec = &*self.recorder;
        let workload = key.workload.build();
        let golden_key = key.workload.golden_key(key.precision);
        let computed = AtomicBool::new(false);
        let golden = self.store.golden(&golden_key, || {
            computed.store(true, Ordering::Relaxed);
            workload.run_golden(key.precision)
        });
        let counter = if computed.load(Ordering::Relaxed) {
            "golden.compute"
        } else {
            "golden.reuse"
        };
        Counter::new(rec, counter, &golden_key).incr();
        let ctx = StrikeRunner {
            seed: key.cell_seed(self.seed),
            sampling: key.kind.sampling(),
            threads: self.threads,
            recorder: rec,
            scope: canonical,
            cancel: token.clone(),
            ..StrikeRunner::new(workload.as_ref(), key.precision, &golden)
        };
        match key.kind {
            CellKind::Beam {
                hours,
                target_candidates,
                classifier,
                ..
            } => {
                let device = key.device.build();
                let profile = key.workload.profile(key.device);
                let session = BeamSession {
                    hours,
                    target_candidates,
                };
                expose(
                    &ctx,
                    device.as_ref(),
                    &profile,
                    session,
                    classifier.classifier(),
                )
                .map(|r| CellResult::Beam(Arc::new(r)))
            }
            CellKind::Inject {
                injections,
                model,
                live_fraction,
                ..
            } => inject(&ctx, injections, model, live_fraction)
                .map(|r| CellResult::Inject(Arc::new(r))),
            CellKind::Accumulate { faults, trials } => {
                accumulate(&ctx, faults, trials).map(CellResult::Accumulate)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::{ClassifierId, DeviceId, WorkloadId};
    use mpr_fault::hostile::HostileMode;
    use mpr_fault::FaultModel;
    use mpr_metrics::SamplingPlan;
    use mpr_softfloat::Precision;

    fn micro_cell(p: Precision) -> CellKey {
        CellKey {
            device: DeviceId::TitanV,
            workload: WorkloadId::Micro {
                op: mpr_kernels::MicroKernelOp::Add,
                threads: 8,
                iters: 32,
            },
            precision: p,
            kind: CellKind::Beam {
                hours: 10.0,
                target_candidates: 80,
                classifier: ClassifierId::None,
                sampling: SamplingPlan::Fixed,
            },
        }
    }

    #[test]
    fn duplicate_requests_execute_once() {
        let engine = Engine::new(3);
        let mut plan = ExperimentPlan::new();
        plan.push(micro_cell(Precision::Single));
        plan.push(micro_cell(Precision::Single));
        plan.push(micro_cell(Precision::Half));
        assert_eq!(plan.unique_count(), 2);
        let results = engine.run(&plan);
        assert_eq!(results.len(), 3);
        assert_eq!(engine.store().executed(), 2);
        // The duplicate requests received the same outcome.
        assert_eq!(
            results[0].beam().sdc.events(),
            results[1].beam().sdc.events()
        );
    }

    #[test]
    fn duplicate_requests_share_one_stored_payload() {
        let engine = Engine::new(3);
        let inject = CellKey {
            device: DeviceId::Knc3120a,
            workload: WorkloadId::Lud { dim: 10 },
            precision: Precision::Double,
            kind: CellKind::Inject {
                injections: 40,
                model: FaultModel::SingleBit,
                live_fraction: 1.0,
                sampling: SamplingPlan::Fixed,
            },
        };
        let mut plan = ExperimentPlan::new();
        plan.push(micro_cell(Precision::Single));
        plan.push(inject.clone());
        plan.push(micro_cell(Precision::Single));
        plan.push(inject.clone());
        let cold = engine.run(&plan);
        // The second run is served from memory.
        let warm = engine.run(&plan);
        let snapshot = engine.store().snapshot();
        for (i, key) in plan.cells().iter().enumerate() {
            let store_key = ResultStore::store_key(3, key);
            let (_, stored) = snapshot
                .iter()
                .find(|(k, _)| *k == store_key)
                .expect("cell in snapshot");
            assert!(cold[i].shares_payload(stored), "cold request {i}");
            assert!(warm[i].shares_payload(stored), "warm request {i}");
        }
        assert_eq!(engine.store().executed(), 2);
    }

    #[test]
    fn every_cell_gets_the_whole_thread_budget() {
        // One level of parallelism: each cell's campaign runs its one
        // fixed round on all three workers, so every cell scope records
        // three busy timers.
        let rec = Arc::new(mpr_obs::JsonlRecorder::new());
        let engine = Engine::new(3).with_threads(3).with_recorder(rec.clone());
        let mut plan = ExperimentPlan::new();
        plan.push(micro_cell(Precision::Single));
        plan.push(micro_cell(Precision::Double));
        engine.run(&plan);
        for key in plan.cells() {
            let scope = key.canonical();
            let busy = rec
                .events()
                .iter()
                .filter(|e| e.name == "beam.worker_busy" && e.scope == scope)
                .count();
            assert_eq!(busy, 3, "{scope}");
        }
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "the fixture clears its temporary cache dir beneath the Vfs layer"
    )]
    fn disk_traffic_is_timed_per_cell_only_with_a_cache_dir() {
        let dir = std::env::temp_dir().join(format!(
            "mpr-exp-engine-test-cache-timers-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut plan = ExperimentPlan::new();
        plan.push(micro_cell(Precision::Single));
        plan.push(micro_cell(Precision::Half));
        let scopes: Vec<String> = plan.cells().iter().map(CellKey::canonical).collect();
        // The scopes of every `name` timer a run recorded, in order.
        let timed = |store: ResultStore, runs: usize, name: &str| {
            let rec = Arc::new(mpr_obs::JsonlRecorder::new());
            let engine = Engine::new(9)
                .with_store(Arc::new(store))
                .with_recorder(rec.clone());
            for _ in 0..runs {
                engine.run(&plan);
            }
            rec.events()
                .into_iter()
                .filter(|e| e.name == name && matches!(e.metric, Metric::Time(_)))
                .map(|e| e.scope)
                .collect::<Vec<_>>()
        };
        // Cold: every miss reads the disk, then writes its entry.
        let disk = || ResultStore::with_cache_dir(&dir);
        assert_eq!(timed(disk(), 1, "cache.read"), scopes);
        assert!(timed(disk(), 1, "cache.write").is_empty(), "all on disk");
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(timed(disk(), 1, "cache.write"), scopes);
        // Warm: each cell is read from disk once; the rerun's memory
        // hits read nothing, and nothing is written.
        assert_eq!(timed(disk(), 2, "cache.read"), scopes);
        assert!(timed(disk(), 2, "cache.write").is_empty());
        // Without a cache dir, no disk timer at all.
        assert!(timed(ResultStore::in_memory(), 1, "cache.read").is_empty());
        assert!(timed(ResultStore::in_memory(), 1, "cache.write").is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rerun_is_served_from_memory() {
        let engine = Engine::new(5);
        let key = CellKey {
            device: DeviceId::Knc3120a,
            workload: WorkloadId::Lud { dim: 10 },
            precision: Precision::Double,
            kind: CellKind::Inject {
                injections: 40,
                model: FaultModel::SingleBit,
                live_fraction: 1.0,
                sampling: SamplingPlan::Fixed,
            },
        };
        let a = engine.run_one(&key);
        let b = engine.run_one(&key);
        assert_eq!(engine.store().executed(), 1);
        assert!(engine.store().mem_hits() >= 1);
        assert_eq!(a.inject().counts, b.inject().counts);
    }

    #[test]
    fn thread_counts_do_not_change_results() {
        let run = |threads| {
            let engine = Engine::new(11).with_threads(threads);
            let mut plan = ExperimentPlan::new();
            plan.push(micro_cell(Precision::Single));
            plan.push(micro_cell(Precision::Double));
            let r = engine.run(&plan);
            (
                r[0].beam().sdc.events(),
                r[1].beam().sdc.events(),
                r[0].beam().severities.len(),
            )
        };
        let one = run(1);
        assert_eq!(one, run(2));
        assert_eq!(one, run(8));
    }

    #[test]
    fn accumulation_cells_execute() {
        let engine = Engine::new(7);
        let key = CellKey {
            device: DeviceId::Zynq7000,
            workload: WorkloadId::Gemm { dim: 8 },
            precision: Precision::Half,
            kind: CellKind::Accumulate {
                faults: 16,
                trials: 10,
            },
        };
        let r = engine.run_one(&key);
        let acc = r.accumulate();
        assert!(acc.sdc_probability > 0.5, "{acc:?}");
        assert_eq!(acc.trials, 10);
    }

    #[test]
    fn failing_cell_is_isolated_and_classified() {
        // Tag is unique to this test: the flaky registry is
        // process-global.
        let key = CellKey {
            device: DeviceId::TitanV,
            workload: WorkloadId::Hostile {
                tag: 0xE0_0001,
                mode: HostileMode::FlakyGolden { panics: 99 },
            },
            precision: Precision::Single,
            kind: CellKind::Accumulate {
                faults: 2,
                trials: 2,
            },
        };
        let engine = Engine::new(13);
        let failure = engine.try_run_one(&key).expect_err("cell must fail");
        assert_eq!(failure.attempts, 1);
        assert!(matches!(failure.kind, FailureKind::Panicked { .. }));
        assert!(
            failure.kind.to_string().contains("staged golden failure"),
            "{}",
            failure.kind
        );
        assert_eq!(engine.store().executed(), 0, "no partial result published");
    }

    #[test]
    fn retry_recovers_a_flaky_cell_with_the_same_seed() {
        let cell = |tag| CellKey {
            device: DeviceId::TitanV,
            workload: WorkloadId::Hostile {
                tag,
                mode: HostileMode::FlakyGolden { panics: 1 },
            },
            precision: Precision::Single,
            kind: CellKind::Accumulate {
                faults: 2,
                trials: 4,
            },
        };
        let engine = Engine::new(17).with_retries(1);
        let recovered = engine
            .try_run_one(&cell(0xE0_0002))
            .expect("retry must recover");
        // Without retries the same schedule fails outright.
        let strict = Engine::new(17);
        assert!(strict.try_run_one(&cell(0xE0_0003)).is_err());
        // The recovered result uses the unchanged per-cell seed, so it
        // matches a clean never-failing run of the same kernel modulo
        // the mode token. (Exact byte equality across modes is covered
        // by the integration tests via cache bytes.)
        assert!(recovered.accumulate().trials == 4);
    }
}
