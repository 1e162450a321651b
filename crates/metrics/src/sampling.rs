//! Adaptive sampling: stratified Neyman allocation and sequential early
//! stopping for campaign drivers.
//!
//! The paper's FIT/SDC figures are counting statistics, so most of a
//! fixed strike budget goes to confirming what the Poisson confidence
//! interval already knows. This module supplies the *decision* layer
//! shared by the beam and injection drivers:
//!
//! * [`SamplingConfig`] / [`SamplingPlan`] — the knob surface
//!   (`--adaptive`, `--ci-width`, `--strike-budget`);
//! * [`Planner`] — a per-cell sequential planner that allocates each
//!   round of strikes across fault-site strata (Neyman allocation from
//!   observed per-stratum SDC variance) and stops the cell once the
//!   relative `poisson_ci95` width crosses the target;
//! * [`largest_remainder`] — the deterministic integer apportionment
//!   both allocations use.
//!
//! Every decision is a pure function of completed-round statistics keyed
//! by strike index — never wall-clock, worker id, or arrival order — so
//! adaptive campaigns are byte-identical across thread counts and strike
//! batch sizes (DESIGN.md §4k).

use crate::stats::poisson_ci95;

/// Strikes per decision round. A round is the atomic unit of adaptive
/// execution: workers resolve a whole round in parallel, then the
/// planner recomputes the CI width and the next round's allocation from
/// the merged, index-sorted statistics. The constant is part of the
/// determinism contract — changing it changes adaptive results.
pub const ROUND_STRIKES: u32 = 32;

/// Default number of contiguous fault-site strata. Site spaces are laid
/// out region-major (operand regions first, then the compute chain), so
/// equal contiguous ranges track the operand/chain x lane structure.
pub const DEFAULT_STRATA: u32 = 4;

/// Tuning for one adaptive campaign cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SamplingConfig {
    /// Target relative 95% CI width on the SDC count (the `hi - lo`
    /// multiplier spread of [`poisson_ci95`]). The cell stops once its
    /// width is at or below this target.
    pub ci_width: f64,
    /// Maximum strikes the cell may execute. `None` leaves the driver's
    /// fixed budget (the candidate count) as the cap.
    pub budget: Option<u64>,
    /// Number of contiguous site strata.
    pub strata: u32,
    /// Strikes per decision round.
    pub round: u32,
}

impl SamplingConfig {
    /// A config with the given CI-width target and default strata/round
    /// geometry.
    ///
    /// # Panics
    ///
    /// Panics if `ci_width` is not strictly positive and finite.
    pub fn new(ci_width: f64) -> SamplingConfig {
        assert!(
            ci_width.is_finite() && ci_width > 0.0,
            "ci-width must be positive, got {ci_width}"
        );
        SamplingConfig {
            ci_width,
            budget: None,
            strata: DEFAULT_STRATA,
            round: ROUND_STRIKES,
        }
    }

    /// Quick-scale preset: a loose 0.8 relative width, reached after a
    /// few tens of SDCs.
    pub fn quick() -> SamplingConfig {
        SamplingConfig::new(0.8)
    }

    /// Paper-scale preset: a 0.25 relative width (roughly 250 SDCs).
    pub fn paper() -> SamplingConfig {
        SamplingConfig::new(0.25)
    }

    /// Caps the cell's strike budget.
    pub fn with_budget(mut self, budget: u64) -> SamplingConfig {
        self.budget = Some(budget);
        self
    }

    /// Overrides the CI-width target.
    ///
    /// # Panics
    ///
    /// Panics if `ci_width` is not strictly positive and finite.
    pub fn with_ci_width(mut self, ci_width: f64) -> SamplingConfig {
        assert!(
            ci_width.is_finite() && ci_width > 0.0,
            "ci-width must be positive, got {ci_width}"
        );
        self.ci_width = ci_width;
        self
    }
}

/// How a campaign spends its strike budget.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum SamplingPlan {
    /// The reference oracle: every candidate strike executes, uniform
    /// over the whole site space. Byte-identical to the pre-adaptive
    /// drivers.
    #[default]
    Fixed,
    /// Stratified allocation with sequential early stopping.
    Adaptive(SamplingConfig),
}

/// Per-stratum tallies over completed rounds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StratumStats {
    /// Strikes executed in this stratum.
    pub executed: u64,
    /// SDC events observed in this stratum.
    pub events: u64,
}

impl StratumStats {
    /// Smoothed per-strike SDC standard deviation `sqrt(p(1-p))` with a
    /// half-event prior, so an all-quiet or all-loud stratum keeps a
    /// nonzero weight and can recover from an unlucky pilot.
    pub fn smoothed_sd(&self) -> f64 {
        let p = (self.events as f64 + 0.5) / (self.executed as f64 + 1.0);
        (p * (1.0 - p)).sqrt()
    }
}

/// Relative 95% CI width for a Poisson count: the `hi - lo` multiplier
/// spread of [`poisson_ci95`]. Zero events carry no rate information in
/// multiplier form, so the width is infinite — a cell with no SDCs runs
/// to its budget rather than stopping on a vacuous interval.
pub fn rel_ci_width(events: u64) -> f64 {
    if events == 0 {
        return f64::INFINITY;
    }
    let (lo, hi) = poisson_ci95(events);
    hi - lo
}

/// Splits `sites` into `k` contiguous `(lo, len)` strata; the remainder
/// of the division goes one site at a time to the lowest-index strata.
/// Strata beyond the site count come back empty (`len == 0`).
///
/// # Panics
///
/// Panics if `k` is zero.
pub fn strata_bounds(sites: u64, k: u32) -> Vec<(u64, u64)> {
    assert!(k > 0, "need at least one stratum");
    let k64 = u64::from(k);
    let base = sites / k64;
    let rem = sites % k64;
    let mut bounds = Vec::with_capacity(k as usize);
    let mut lo = 0u64;
    for h in 0..k64 {
        let len = base + u64::from(h < rem);
        bounds.push((lo, len));
        lo += len;
    }
    bounds
}

/// Apportions `total` integer strikes across strata proportionally to
/// `weights` by the largest-remainder method: floors first, then the
/// leftover strikes go to the largest fractional parts, ties broken by
/// the lower stratum index. Every stratum with positive weight gets at
/// least one strike when `total` allows. Fully deterministic — no RNG,
/// no iteration-order dependence.
pub fn largest_remainder(weights: &[f64], total: u64) -> Vec<u64> {
    let n = weights.len();
    if n == 0 || total == 0 {
        return vec![0; n];
    }
    let sum: f64 = weights.iter().filter(|w| w.is_finite() && **w > 0.0).sum();
    // Degenerate weights fall back to a uniform split.
    let uniform = vec![1.0; n];
    let (weights, sum) = if sum > 0.0 {
        (weights, sum)
    } else {
        (&uniform[..], n as f64)
    };
    let mut alloc = vec![0u64; n];
    let mut fracs: Vec<(f64, usize)> = Vec::with_capacity(n);
    let mut assigned = 0u64;
    for (h, w) in weights.iter().enumerate() {
        let w = if w.is_finite() && *w > 0.0 { *w } else { 0.0 };
        let ideal = total as f64 * w / sum;
        let floor = ideal.floor() as u64;
        alloc[h] = floor;
        assigned += floor;
        fracs.push((ideal - floor as f64, h));
    }
    // Stable sort by descending fraction; ties keep index order.
    fracs.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
    let mut leftover = total.saturating_sub(assigned);
    for &(_, h) in &fracs {
        if leftover == 0 {
            break;
        }
        alloc[h] += 1;
        leftover -= 1;
    }
    // Floor of one strike per positively-weighted stratum, funded by the
    // largest allocations (ties: lower index donates last).
    let weighted: Vec<usize> = (0..n).filter(|&h| weights[h] > 0.0).collect();
    if total >= weighted.len() as u64 {
        for &h in &weighted {
            while alloc[h] == 0 {
                let donor = (0..n)
                    .filter(|&d| alloc[d] > 1)
                    .max_by(|&a, &b| alloc[a].cmp(&alloc[b]).then(b.cmp(&a)));
                match donor {
                    Some(d) => {
                        alloc[d] -= 1;
                        alloc[h] += 1;
                    }
                    None => break,
                }
            }
        }
    }
    alloc
}

/// The sequential planner for one adaptive campaign cell.
///
/// Drivers alternate [`Planner::next_round`] (get the slot -> stratum
/// schedule for the next round) with [`Planner::complete_round`] (feed
/// back per-stratum executed/event tallies). All state advances only at
/// round boundaries, from merged statistics — the planner never sees
/// wall-clock time, worker ids, or arrival order.
#[derive(Debug, Clone)]
pub struct Planner {
    config: SamplingConfig,
    bounds: Vec<(u64, u64)>,
    stats: Vec<StratumStats>,
    budget: u64,
    executed: u64,
    events: u64,
}

impl Planner {
    /// Creates a planner over `sites` fault sites with `budget` as the
    /// default strike cap. A budget set in the config *replaces* the
    /// default — it may exceed it, which is how cross-cell reallocation
    /// boosts an unconverged cell past its own candidate count.
    pub fn new(sites: u64, budget: u64, config: SamplingConfig) -> Planner {
        let budget = config.budget.unwrap_or(budget);
        let bounds = strata_bounds(sites, config.strata);
        let stats = vec![StratumStats::default(); bounds.len()];
        Planner {
            config,
            bounds,
            stats,
            budget,
            executed: 0,
            events: 0,
        }
    }

    /// The `(lo, len)` site range of each stratum.
    pub fn bounds(&self) -> &[(u64, u64)] {
        &self.bounds
    }

    /// Strikes executed over completed rounds.
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// SDC events observed over completed rounds.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// The strike cap in force for this cell.
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Current relative CI width over the observed SDC count.
    pub fn ci_width(&self) -> f64 {
        rel_ci_width(self.events)
    }

    /// Whether the cell has reached its CI-width target.
    pub fn converged(&self) -> bool {
        self.ci_width() <= self.config.ci_width
    }

    /// Unbiased stratified per-strike SDC rate: `sum_h W_h * e_h / n_h`
    /// over sampled strata, with `W_h` the stratum's share of the site
    /// space. Strata not yet sampled contribute the rate of the sampled
    /// remainder (their weight is renormalized away).
    pub fn weighted_rate(&self) -> f64 {
        let sites: u64 = self.bounds.iter().map(|&(_, len)| len).sum();
        if sites == 0 || self.executed == 0 {
            return 0.0;
        }
        let mut rate = 0.0;
        let mut covered = 0.0;
        for (h, stats) in self.stats.iter().enumerate() {
            if stats.executed == 0 {
                continue;
            }
            let w = self.bounds[h].1 as f64 / sites as f64;
            rate += w * stats.events as f64 / stats.executed as f64;
            covered += w;
        }
        if covered > 0.0 {
            rate / covered
        } else {
            0.0
        }
    }

    /// The slot -> stratum schedule for the next round, or `None` once
    /// the cell converged or exhausted its budget. The pilot round is
    /// allocated proportionally to stratum size; every later round by
    /// Neyman allocation, `n_h` proportional to `W_h * s_h` with `s_h`
    /// the smoothed observed SDC standard deviation.
    pub fn next_round(&self) -> Option<Vec<usize>> {
        if self.converged() || self.executed >= self.budget {
            return None;
        }
        let n = u64::from(self.config.round).min(self.budget - self.executed);
        let weights: Vec<f64> = self
            .bounds
            .iter()
            .zip(&self.stats)
            .map(|(&(_, len), stats)| {
                let w = len as f64;
                if self.executed == 0 {
                    w
                } else {
                    w * stats.smoothed_sd()
                }
            })
            .collect();
        let alloc = largest_remainder(&weights, n);
        let mut schedule = Vec::with_capacity(n as usize);
        for (h, &count) in alloc.iter().enumerate() {
            schedule.extend(std::iter::repeat_n(h, count as usize));
        }
        Some(schedule)
    }

    /// Commits a completed round: `executed_by_stratum[h]` strikes ran in
    /// stratum `h` (usually the schedule's tally) and `events_by_stratum[h]`
    /// of them were SDCs.
    ///
    /// # Panics
    ///
    /// Panics if the slices do not have one entry per stratum.
    pub fn complete_round(&mut self, executed_by_stratum: &[u64], events_by_stratum: &[u64]) {
        assert_eq!(executed_by_stratum.len(), self.stats.len(), "stratum count");
        assert_eq!(events_by_stratum.len(), self.stats.len(), "stratum count");
        for (h, stats) in self.stats.iter_mut().enumerate() {
            stats.executed += executed_by_stratum[h];
            stats.events += events_by_stratum[h];
            self.executed += executed_by_stratum[h];
            self.events += events_by_stratum[h];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strata_cover_the_site_space_exactly() {
        for (sites, k) in [(100u64, 4u32), (103, 4), (7, 3), (2, 4), (1, 1)] {
            let bounds = strata_bounds(sites, k);
            assert_eq!(bounds.len(), k as usize);
            let mut expect_lo = 0;
            for &(lo, len) in &bounds {
                assert_eq!(lo, expect_lo, "sites={sites} k={k}");
                expect_lo += len;
            }
            assert_eq!(expect_lo, sites, "strata must partition the sites");
            // No stratum deviates from the even split by more than one.
            let lens: Vec<u64> = bounds.iter().map(|&(_, l)| l).collect();
            let (min, max) = (lens.iter().min().unwrap(), lens.iter().max().unwrap());
            assert!(max - min <= 1);
        }
    }

    #[test]
    fn largest_remainder_is_exact_and_deterministic() {
        let w = [1.0, 1.0, 1.0, 1.0];
        assert_eq!(largest_remainder(&w, 32), vec![8, 8, 8, 8]);
        // Remainders go to the largest fractions, ties to lower index.
        assert_eq!(largest_remainder(&w, 30), vec![8, 8, 7, 7]);
        // Ideal shares 7.5 / 2.5 tie on the fraction; the lower index
        // takes the leftover strike.
        let w = [3.0, 1.0];
        assert_eq!(largest_remainder(&w, 10), vec![8, 2]);
        // Totals always add up.
        for total in 0..50u64 {
            let alloc = largest_remainder(&[0.3, 2.1, 0.0, 5.5], total);
            assert_eq!(alloc.iter().sum::<u64>(), total, "total={total}");
            assert_eq!(alloc[2], 0, "zero-weight stratum gets nothing");
        }
    }

    #[test]
    fn largest_remainder_floors_positive_weights() {
        // A tiny but positive weight still gets one strike when the
        // total allows — no stratum starves out of the pilot forever.
        let alloc = largest_remainder(&[100.0, 0.001, 100.0, 0.001], 32);
        assert!(alloc.iter().all(|&n| n >= 1), "{alloc:?}");
        assert_eq!(alloc.iter().sum::<u64>(), 32);
    }

    #[test]
    fn degenerate_weights_fall_back_to_uniform() {
        assert_eq!(largest_remainder(&[0.0, 0.0, 0.0], 9), vec![3, 3, 3]);
        assert_eq!(
            largest_remainder(&[f64::NAN, f64::INFINITY, -1.0], 3),
            vec![1, 1, 1]
        );
    }

    #[test]
    fn rel_ci_width_decreases_and_zero_is_infinite() {
        assert_eq!(rel_ci_width(0), f64::INFINITY);
        let mut prev = rel_ci_width(1);
        for k in 2..200u64 {
            let w = rel_ci_width(k);
            assert!(w <= prev + 1e-12, "width must not grow at k={k}");
            prev = w;
        }
        // ~30 events cross the loose quick target, ~250 the paper one.
        assert!(rel_ci_width(30) < 0.8 && rel_ci_width(20) > 0.7);
        assert!(rel_ci_width(250) < 0.25 && rel_ci_width(200) > 0.25);
    }

    #[test]
    fn planner_pilot_is_proportional_then_neyman_shifts_weight() {
        let config = SamplingConfig::new(0.1);
        let mut planner = Planner::new(400, 10_000, config);
        let pilot = planner.next_round().expect("pilot round");
        assert_eq!(pilot.len(), 32);
        let mut per = [0u64; 4];
        for &h in &pilot {
            per[h] += 1;
        }
        assert_eq!(per, [8, 8, 8, 8], "equal strata get a proportional pilot");

        // Stratum 2 shows all the variance: half its strikes are SDCs,
        // everything else is quiet. Neyman must favor it next round.
        planner.complete_round(&per, &[0, 0, 4, 0]);
        let round = planner.next_round().expect("second round");
        let mut per2 = [0u64; 4];
        for &h in &round {
            per2[h] += 1;
        }
        assert!(per2[2] > per2[0], "{per2:?}");
        assert!(per2[2] > per2[3], "{per2:?}");
        assert!(per2.iter().all(|&n| n >= 1), "floor of one: {per2:?}");
    }

    #[test]
    fn planner_stops_on_convergence_and_budget() {
        let config = SamplingConfig::new(0.8);
        let mut planner = Planner::new(100, 64, config);
        // Burn the budget without events: never converges, stops at 64.
        let r1 = planner.next_round().expect("round 1");
        planner.complete_round(&tally(&r1, 4), &[0; 4]);
        let r2 = planner.next_round().expect("round 2");
        assert_eq!(planner.executed(), 32);
        planner.complete_round(&tally(&r2, 4), &[0; 4]);
        assert_eq!(planner.executed(), 64);
        assert!(!planner.converged());
        assert!(planner.next_round().is_none(), "budget exhausted");

        // A loud cell converges long before the budget.
        let mut planner = Planner::new(100, 10_000, config);
        let r1 = planner.next_round().expect("round 1");
        planner.complete_round(&tally(&r1, 4), &[8, 8, 8, 8]);
        assert_eq!(planner.events(), 32);
        assert!(planner.converged(), "32 events beat a 0.8 width");
        assert!(planner.next_round().is_none());
    }

    #[test]
    fn weighted_rate_is_stratum_weighted() {
        let config = SamplingConfig::new(0.1);
        let mut planner = Planner::new(100, 1000, config);
        // Oversample stratum 0 at a high rate; the weighted estimate
        // must stay pinned to the per-stratum rates, not the pooled one.
        planner.complete_round(&[30, 10, 10, 10], &[30, 0, 0, 0]);
        let rate = planner.weighted_rate();
        assert!((rate - 0.25).abs() < 1e-12, "rate {rate}");
        // The raw pooled fraction would be 30/60 = 0.5 — biased.
        let pooled = planner.events() as f64 / planner.executed() as f64;
        assert!((pooled - 0.5).abs() < 1e-12);
    }

    #[test]
    fn config_budget_replaces_the_driver_default() {
        let config = SamplingConfig::new(0.01).with_budget(40);
        let planner = Planner::new(100, 1000, config);
        assert_eq!(planner.budget(), 40);
        // A boosted cell may exceed its own candidate count.
        let config = SamplingConfig::new(0.01).with_budget(5000);
        let planner = Planner::new(100, 1000, config);
        assert_eq!(planner.budget(), 5000);
        let planner = Planner::new(100, 1000, SamplingConfig::new(0.01));
        assert_eq!(planner.budget(), 1000, "unset budget keeps the default");
    }

    #[test]
    #[should_panic(expected = "ci-width must be positive")]
    fn zero_ci_width_rejected() {
        let _ = SamplingConfig::new(0.0);
    }

    fn tally(schedule: &[usize], k: usize) -> Vec<u64> {
        let mut per = vec![0u64; k];
        for &h in schedule {
            per[h] += 1;
        }
        per
    }
}
