//! Aggregation of a profile log into per-metric, per-scope totals.
//!
//! [`summarize`] folds an event stream into a [`ProfileSummary`]:
//! counters sum, timers accumulate `(count, sum, min, max)`, gauges
//! keep their last-and-extreme levels. `BTreeMap`s keep every listing
//! deterministic, so rendered reports are stable across runs of the
//! same log.

use crate::record::{Event, Metric};
use std::collections::BTreeMap;

/// Accumulated statistics for one `(metric, scope)` series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Aggregate {
    /// Number of recorded events.
    pub count: u64,
    /// Sum of all values.
    pub sum: f64,
    /// Smallest value.
    pub min: f64,
    /// Largest value.
    pub max: f64,
}

impl Aggregate {
    fn absorb(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    fn seed(v: f64) -> Aggregate {
        Aggregate {
            count: 1,
            sum: v,
            min: v,
            max: v,
        }
    }

    /// Arithmetic mean of the recorded values.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

type Series = BTreeMap<String, BTreeMap<String, Aggregate>>;

/// A folded profile log: totals per metric name and scope.
#[derive(Debug, Clone, Default)]
pub struct ProfileSummary {
    counters: Series,
    times: Series,
    gauges: Series,
    /// Number of events folded in.
    pub events: usize,
    /// Span of the log in seconds (first to last timestamp).
    pub span_s: f64,
}

impl ProfileSummary {
    fn series(&mut self, metric: Metric) -> &mut Series {
        match metric {
            Metric::Count(_) => &mut self.counters,
            Metric::Time(_) => &mut self.times,
            Metric::Gauge(_) => &mut self.gauges,
        }
    }

    fn absorb(&mut self, ev: &Event) {
        let v = match ev.metric {
            Metric::Count(n) => n as f64,
            Metric::Gauge(v) | Metric::Time(v) => v,
        };
        self.series(ev.metric)
            .entry(ev.name.clone())
            .or_default()
            .entry(ev.scope.clone())
            .and_modify(|a| a.absorb(v))
            .or_insert_with(|| Aggregate::seed(v));
        self.events += 1;
    }

    /// Total of a counter across all scopes.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.counters
            .get(name)
            .map_or(0.0, |scopes| scopes.values().map(|a| a.sum).sum())
            .round() as u64
    }

    /// Aggregate of timer `name` under one specific `scope`, if present.
    pub fn time_scope(&self, name: &str, scope: &str) -> Option<Aggregate> {
        self.times.get(name).and_then(|s| s.get(scope)).copied()
    }

    /// Per-scope aggregates of a timer, sorted by total time descending
    /// (ties broken by scope name, so the order is deterministic).
    pub fn scopes_by_time(&self, name: &str) -> Vec<(&str, Aggregate)> {
        let mut rows: Vec<(&str, Aggregate)> =
            self.times.get(name).map_or_else(Vec::new, |scopes| {
                scopes.iter().map(|(s, a)| (s.as_str(), *a)).collect()
            });
        rows.sort_by(|(sa, a), (sb, b)| {
            b.sum
                .partial_cmp(&a.sum)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| sa.cmp(sb))
        });
        rows
    }

    /// Per-scope aggregates of a gauge, in scope order.
    pub fn gauge_scopes(&self, name: &str) -> Vec<(&str, Aggregate)> {
        self.gauges.get(name).map_or_else(Vec::new, |scopes| {
            scopes.iter().map(|(s, a)| (s.as_str(), *a)).collect()
        })
    }
}

/// Folds an event stream into per-metric, per-scope aggregates.
pub fn summarize(events: &[Event]) -> ProfileSummary {
    let mut summary = ProfileSummary::default();
    for ev in events {
        summary.absorb(ev);
    }
    if let (Some(first), Some(last)) = (events.first(), events.last()) {
        let (lo, hi) = events.iter().fold((first.t_us, last.t_us), |(lo, hi), e| {
            (lo.min(e.t_us), hi.max(e.t_us))
        });
        summary.span_s = (hi - lo) as f64 / 1e6;
    }
    summary
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t_us: u64, name: &str, scope: &str, metric: Metric) -> Event {
        Event {
            t_us,
            name: name.to_string(),
            scope: scope.to_string(),
            metric,
        }
    }

    #[test]
    fn counters_sum_per_scope_and_overall() {
        let events = vec![
            ev(0, "cache.mem_hit", "a", Metric::Count(2)),
            ev(1, "cache.mem_hit", "a", Metric::Count(1)),
            ev(2, "cache.mem_hit", "b", Metric::Count(4)),
            ev(3, "cache.miss", "a", Metric::Count(1)),
        ];
        let s = summarize(&events);
        assert_eq!(s.counter_total("cache.mem_hit"), 7);
        assert_eq!(s.counter_total("cache.miss"), 1);
        assert_eq!(s.counter_total("absent"), 0);
        assert_eq!(s.events, 4);
    }

    #[test]
    fn timers_rank_scopes_by_total_descending() {
        let events = vec![
            ev(0, "cell.exec", "fast", Metric::Time(0.25)),
            ev(1, "cell.exec", "slow", Metric::Time(2.0)),
            ev(2, "cell.exec", "slow", Metric::Time(1.0)),
            ev(3, "cell.exec", "mid", Metric::Time(1.5)),
        ];
        let s = summarize(&events);
        let ranked = s.scopes_by_time("cell.exec");
        let order: Vec<&str> = ranked.iter().map(|(sc, _)| *sc).collect();
        assert_eq!(order, vec!["slow", "mid", "fast"]);
        assert_eq!(ranked[0].1.count, 2);
        assert_eq!(ranked[0].1.sum, 3.0);
        assert_eq!(ranked[0].1.min, 1.0);
        assert_eq!(ranked[0].1.max, 2.0);
        assert_eq!(ranked[0].1.mean(), 1.5);
        assert!(s.scopes_by_time("absent").is_empty());
    }

    #[test]
    fn gauges_and_span_are_tracked() {
        let events = vec![
            ev(1_000_000, "beam.strikes_per_s", "", Metric::Gauge(10.0)),
            ev(3_500_000, "beam.strikes_per_s", "", Metric::Gauge(30.0)),
        ];
        let s = summarize(&events);
        assert_eq!(s.span_s, 2.5);
        let g = s.gauge_scopes("beam.strikes_per_s");
        assert_eq!(g.len(), 1);
        assert_eq!(g[0].1.mean(), 20.0);
    }

    #[test]
    fn adaptive_sampling_ledger_balances() {
        // The adaptive drivers publish a strike ledger: per cell,
        // requested == executed + saved; across the plan, the
        // reallocation pool is fully apportioned into grants. A report
        // built from the profile log must be able to re-check both
        // invariants from counters alone.
        let cell_a = "dev=fpga;k=beam";
        let cell_b = "dev=gpu;k=beam";
        let events = vec![
            ev(0, "inject.injections", cell_a, Metric::Count(400)),
            ev(1, "inject.executed", cell_a, Metric::Count(96)),
            ev(2, "inject.strikes_saved", cell_a, Metric::Count(304)),
            ev(3, "inject.injections", cell_b, Metric::Count(400)),
            ev(4, "inject.executed", cell_b, Metric::Count(400)),
            ev(5, "inject.strikes_saved", cell_b, Metric::Count(0)),
            ev(6, "plan.realloc_pool", "", Metric::Count(304)),
            ev(7, "plan.realloc_granted", cell_b, Metric::Count(304)),
            ev(8, "inject.ci_width", cell_a, Metric::Gauge(0.74)),
        ];
        let s = summarize(&events);
        for cell in [cell_a, cell_b] {
            let of = |name: &str| {
                s.counters
                    .get(name)
                    .and_then(|scopes| scopes.get(cell))
                    .map_or(0.0, |a| a.sum)
            };
            assert_eq!(
                of("inject.injections"),
                of("inject.executed") + of("inject.strikes_saved"),
                "strike ledger must balance for {cell}"
            );
        }
        assert_eq!(
            s.counter_total("plan.realloc_pool"),
            s.counter_total("plan.realloc_granted"),
            "spare budget must be fully apportioned"
        );
        let widths = s.gauge_scopes("inject.ci_width");
        assert_eq!(widths.len(), 1);
        assert!(widths[0].1.mean() <= 0.8, "quick preset target met");
    }

    #[test]
    fn empty_log_summarizes_to_zeroes() {
        let s = summarize(&[]);
        assert_eq!(s.events, 0);
        assert_eq!(s.span_s, 0.0);
        assert_eq!(s.counter_total("anything"), 0);
        assert!(s.scopes_by_time("anything").is_empty());
    }
}
