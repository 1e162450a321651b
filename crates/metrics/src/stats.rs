//! Small statistics toolbox: confidence intervals for counting
//! experiments and basic descriptive statistics.

/// Wilson score interval for a binomial proportion at ~95% confidence.
///
/// Used for AVF/PVF estimates: `successes` SDCs out of `trials`
/// injections. Returns `(low, high)`; degenerate inputs (zero trials)
/// yield `(0.0, 1.0)`.
///
/// ```rust
/// use mpr_metrics::stats::wilson_ci95;
/// let (lo, hi) = wilson_ci95(50, 100);
/// assert!(lo < 0.5 && 0.5 < hi);
/// assert!(hi - lo < 0.25);
/// ```
pub fn wilson_ci95(successes: u64, trials: u64) -> (f64, f64) {
    if trials == 0 {
        return (0.0, 1.0);
    }
    let z = 1.959964; // 97.5th percentile of the standard normal
    let n = trials as f64;
    let p = successes as f64 / n;
    let z2 = z * z;
    let denom = 1.0 + z2 / n;
    let center = (p + z2 / (2.0 * n)) / denom;
    let margin = (z / denom) * ((p * (1.0 - p) / n) + z2 / (4.0 * n * n)).sqrt();
    ((center - margin).max(0.0), (center + margin).min(1.0))
}

/// Approximate 95% confidence interval for a Poisson rate with `events`
/// observations, expressed as multipliers on the point estimate.
///
/// Uses the normal approximation on the square-root scale, which is
/// accurate for the tens-to-thousands of events the campaigns produce.
///
/// **Zero events are a hazard for this parameterization**: the point
/// estimate is zero, so *any* multiplier pair collapses the interval to
/// `(0, 0)` when applied. Callers with a possibly-zero count must use
/// [`poisson_ci95_counts`], which returns absolute event-count bounds
/// instead. For zero events this function returns `(0.0, 3.7)` — the
/// exact bounds *in counts*, which are **not** usable as multipliers.
pub fn poisson_ci95(events: u64) -> (f64, f64) {
    if events == 0 {
        return (0.0, 3.7);
    }
    let k = events as f64;
    let z = 1.959964;
    // Square-root (variance-stabilizing) transform: sqrt(k) +- z/2.
    let lo = (k.sqrt() - z / 2.0).max(0.0).powi(2) / k;
    let hi = (k.sqrt() + z / 2.0).powi(2) / k;
    (lo, hi)
}

/// Approximate 95% confidence interval for a Poisson count, in absolute
/// event counts rather than multipliers on the point estimate.
///
/// Divides cleanly by an exposure (fluence, time) to bound a rate, and —
/// unlike [`poisson_ci95`] — stays meaningful at zero observed events:
/// the upper bound is the exact `3.7` events of a zero count (the
/// classic rule-of-three-style limit), so a clean campaign still yields
/// a positive upper FIT bound.
///
/// ```rust
/// use mpr_metrics::stats::poisson_ci95_counts;
/// let (lo, hi) = poisson_ci95_counts(0);
/// assert_eq!(lo, 0.0);
/// assert!(hi > 3.0); // zero observed events still bound the rate
/// ```
pub fn poisson_ci95_counts(events: u64) -> (f64, f64) {
    if events == 0 {
        return (0.0, 3.7);
    }
    let (lo, hi) = poisson_ci95(events);
    let k = events as f64;
    (k * lo, k * hi)
}

/// Arithmetic mean. Empty input yields NaN.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wilson_interval_contains_point_estimate() {
        for (s, n) in [(0u64, 10u64), (1, 10), (5, 10), (10, 10), (500, 2000)] {
            let p = s as f64 / n as f64;
            let (lo, hi) = wilson_ci95(s, n);
            assert!(lo <= p + 1e-12 && p <= hi + 1e-12, "s={s} n={n}");
            assert!((0.0..=1.0).contains(&lo) && (0.0..=1.0).contains(&hi));
        }
    }

    #[test]
    fn wilson_interval_narrows_with_more_trials() {
        let (lo1, hi1) = wilson_ci95(10, 100);
        let (lo2, hi2) = wilson_ci95(100, 1000);
        assert!(hi2 - lo2 < hi1 - lo1);
    }

    #[test]
    fn wilson_zero_trials() {
        assert_eq!(wilson_ci95(0, 0), (0.0, 1.0));
    }

    #[test]
    fn poisson_interval_brackets_unity() {
        for k in [1u64, 10, 100, 1000] {
            let (lo, hi) = poisson_ci95(k);
            assert!(lo < 1.0 && 1.0 < hi, "k={k}");
        }
        // More events -> tighter multiplier interval.
        let (lo_small, hi_small) = poisson_ci95(10);
        let (lo_big, hi_big) = poisson_ci95(1000);
        assert!(hi_big - lo_big < hi_small - lo_small);
    }

    #[test]
    fn poisson_zero_events() {
        let (lo, hi) = poisson_ci95(0);
        assert_eq!(lo, 0.0);
        assert!(hi > 3.0);
    }

    #[test]
    fn poisson_zero_events_exact_upper_limit() {
        // The zero-count bounds are absolute counts, not multipliers:
        // both interval forms must agree on the exact 3.7-event limit.
        assert_eq!(poisson_ci95(0), (0.0, 3.7));
        assert_eq!(poisson_ci95_counts(0), (0.0, 3.7));
    }

    #[test]
    fn poisson_single_event() {
        // k=1 on the sqrt scale: lo = (1 - z/2)^2, hi = (1 + z/2)^2.
        let z: f64 = 1.959964;
        let (lo, hi) = poisson_ci95(1);
        assert!((lo - (1.0 - z / 2.0).powi(2)).abs() < 1e-12);
        assert!((hi - (1.0 + z / 2.0).powi(2)).abs() < 1e-12);
        assert!(lo > 0.0 && lo < 0.001, "lo {lo}");
        assert!((3.5..4.0).contains(&hi), "hi {hi}");
        // Count form is just the multiplier form scaled by k=1.
        assert_eq!(poisson_ci95_counts(1), poisson_ci95(1));
    }

    #[test]
    fn poisson_large_count_matches_normal_approximation() {
        // For large k the sqrt-scale interval must converge to the
        // plain normal approximation k +- z*sqrt(k): relative width
        // 2z/sqrt(k). At 1e4 events the two agree to a few percent.
        let z = 1.959964;
        for k in [10_000u64, 100_000, 1_000_000] {
            let (lo, hi) = poisson_ci95(k);
            let width = hi - lo;
            let normal = 2.0 * z / (k as f64).sqrt();
            assert!(
                (width / normal - 1.0).abs() < 0.05,
                "k={k}: sqrt-scale width {width} vs normal {normal}"
            );
            // And the interval is centered near unity (small skew only).
            assert!((0.5 * (lo + hi) - 1.0).abs() < 0.01, "k={k}");
        }
    }

    #[test]
    fn poisson_width_is_monotone_in_event_count() {
        let mut prev = f64::INFINITY;
        for k in 1..2000u64 {
            let (lo, hi) = poisson_ci95(k);
            assert!(hi - lo <= prev + 1e-12, "width grew at k={k}");
            prev = hi - lo;
        }
    }

    #[test]
    fn descriptive_statistics() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(mean(&xs), 2.5);
        assert!(mean(&[]).is_nan());
    }
}
