//! Property tests for the metric invariants.

use mpr_metrics::stats::{poisson_ci95, wilson_ci95};
use mpr_metrics::{CrossSection, FitRate, Mebf, OutcomeCounts, TreCurve};
use proptest::prelude::*;

/// Values a severity vector draws from besides arbitrary floats: signed
/// zeros, infinities, NaNs of both signs, subnormals and the grid's own
/// thresholds, so ties and duplicates are common.
const SPECIAL: [f64; 14] = [
    0.0,
    -0.0,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::NAN,
    -f64::NAN,
    5e-324,
    -5e-324,
    f64::MIN_POSITIVE / 2.0,
    1e-6,
    1e-3,
    1e-2,
    0.1,
    1.0,
];

fn severity() -> impl Strategy<Value = f64> {
    prop_oneof![
        (0usize..SPECIAL.len()).prop_map(|i| SPECIAL[i]),
        any::<f64>(),
        0.0f64..1.0,
    ]
}

/// The sorted curve `TreCurve` used to be: NaN as `+inf`, sorted by
/// `total_cmp`, the tolerable prefix found by `partition_point`.
fn sorted_surviving_fraction(errors: &[f64], tre: f64) -> f64 {
    let mut sorted: Vec<f64> = errors
        .iter()
        .map(|&e| if e.is_nan() { f64::INFINITY } else { e })
        .collect();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() {
        return 0.0;
    }
    let tolerable = sorted.partition_point(|&e| e <= tre);
    (sorted.len() - tolerable) as f64 / sorted.len() as f64
}

proptest! {
    #[test]
    fn tre_curve_matches_the_sorted_oracle(
        errors in proptest::collection::vec(severity(), 0..64),
        picks in proptest::collection::vec(0usize..64, 0..8),
        extra in severity(),
    ) {
        let curve = TreCurve::from_errors(errors.clone());
        prop_assert_eq!(curve.event_count(), errors.len());
        // Exact ties (thresholds drawn from the vector itself), the
        // standard grid, a NaN threshold and one more drawn value.
        let mut thresholds: Vec<f64> = picks
            .iter()
            .filter_map(|&i| errors.get(i).copied())
            .collect();
        thresholds.extend(TreCurve::standard_grid());
        thresholds.extend([f64::NAN, -f64::NAN, extra]);
        for tre in thresholds {
            let want = sorted_surviving_fraction(&errors, tre);
            let got = curve.surviving_fraction(tre);
            prop_assert_eq!(got.to_bits(), want.to_bits(), "tre {:?}", tre);
            prop_assert_eq!(
                curve.tolerable_fraction(tre).to_bits(),
                (1.0 - want).to_bits(),
                "tre {:?}", tre
            );
        }
    }

    #[test]
    fn tre_curve_is_monotone_nonincreasing(
        errors in proptest::collection::vec(0.0f64..10.0, 0..200),
        a in 0.0f64..1.0,
        b in 0.0f64..1.0,
    ) {
        let curve = TreCurve::from_errors(errors);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(curve.surviving_fraction(lo) >= curve.surviving_fraction(hi));
        prop_assert!((0.0..=1.0).contains(&curve.surviving_fraction(a)));
        // Survival + tolerable always partition unity.
        let s = curve.surviving_fraction(a) + curve.tolerable_fraction(a);
        if curve.event_count() > 0 {
            prop_assert!((s - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn tre_curve_extremes(errors in proptest::collection::vec(1e-12f64..100.0, 1..100)) {
        let curve = TreCurve::from_errors(errors.clone());
        // Below the smallest error everything survives; at or above the
        // largest nothing does.
        let min = errors.iter().cloned().fold(f64::MAX, f64::min);
        let max = errors.iter().cloned().fold(f64::MIN, f64::max);
        prop_assert_eq!(curve.surviving_fraction(min * 0.5), 1.0);
        prop_assert_eq!(curve.surviving_fraction(max), 0.0);
    }

    #[test]
    fn wilson_interval_is_ordered_and_bounded(s in 0u64..5000, extra in 0u64..5000) {
        let n = s + extra;
        let (lo, hi) = wilson_ci95(s, n);
        prop_assert!(lo <= hi);
        prop_assert!((0.0..=1.0).contains(&lo) && (0.0..=1.0).contains(&hi));
        if n > 0 {
            let p = s as f64 / n as f64;
            prop_assert!(lo <= p + 1e-12 && p <= hi + 1e-12);
        }
    }

    #[test]
    fn poisson_interval_tightens_with_counts(k in 1u64..100000) {
        let (lo, hi) = poisson_ci95(k);
        let (lo2, hi2) = poisson_ci95(k * 4);
        prop_assert!(lo < 1.0 && 1.0 < hi);
        prop_assert!(hi2 - lo2 <= hi - lo + 1e-12);
    }

    #[test]
    fn poisson_width_is_monotone_nonincreasing(k in 1u64..1_000_000) {
        // Adjacent counts: one more event never widens the interval.
        // This is what sequential early stopping leans on — once a cell
        // crosses the width target it can never un-converge.
        let (lo, hi) = poisson_ci95(k);
        let (lo2, hi2) = poisson_ci95(k + 1);
        prop_assert!(hi2 - lo2 <= hi - lo + 1e-12, "width grew at k={k}");
        // CrossSection::fit_ci95 inherits the same monotonicity at a
        // fixed fluence.
        let a = CrossSection::new(k, 1e9).fit_ci95();
        let b = CrossSection::new(k + 1, 1e9).fit_ci95();
        let (wa, wb) = (a.1.au() - a.0.au(), b.1.au() - b.0.au());
        // Widths in counts scale by k, so compare relative widths.
        let point_a = CrossSection::new(k, 1e9).fit_au().au();
        let point_b = CrossSection::new(k + 1, 1e9).fit_au().au();
        prop_assert!(wb / point_b <= wa / point_a + 1e-12);
    }

    #[test]
    fn sampling_allocation_is_exact_and_floored(
        weights in proptest::collection::vec(0.0f64..100.0, 1..8),
        total in 0u64..500,
    ) {
        let alloc = mpr_metrics::sampling::largest_remainder(&weights, total);
        prop_assert_eq!(alloc.iter().sum::<u64>(), total);
        let positive = weights.iter().filter(|w| **w > 0.0).count() as u64;
        if total >= positive && positive > 0 {
            for (h, w) in weights.iter().enumerate() {
                if *w > 0.0 {
                    prop_assert!(alloc[h] >= 1, "stratum {h} starved: {alloc:?}");
                }
            }
        }
    }

    #[test]
    fn cross_section_merge_is_event_weighted(
        e1 in 0u64..1000, f1 in 1.0f64..1e6,
        e2 in 0u64..1000, f2 in 1.0f64..1e6,
    ) {
        let a = CrossSection::new(e1, f1);
        let b = CrossSection::new(e2, f2);
        let m = a.merge(&b);
        prop_assert_eq!(m.events(), e1 + e2);
        // The pooled rate lies between the two rates (or equals both).
        let (rmin, rmax) = if a.rate() <= b.rate() {
            (a.rate(), b.rate())
        } else {
            (b.rate(), a.rate())
        };
        prop_assert!(m.rate() >= rmin - 1e-18 && m.rate() <= rmax + 1e-18);
    }

    #[test]
    fn mebf_is_antitone_in_fit_and_time(
        fit1 in 1e-3f64..1e3, fit2 in 1e-3f64..1e3,
        t1 in 1e-3f64..1e3, t2 in 1e-3f64..1e3,
    ) {
        let m11 = Mebf::from_fit(FitRate::from_au(fit1), t1);
        let m21 = Mebf::from_fit(FitRate::from_au(fit2), t1);
        if fit1 < fit2 {
            prop_assert!(m11 > m21);
        }
        let m12 = Mebf::from_fit(FitRate::from_au(fit1), t2);
        if t1 < t2 {
            prop_assert!(m11 > m12);
        }
        // MEBF depends only on the product fit x time.
        let a = Mebf::from_fit(FitRate::from_au(fit1 * 2.0), t1);
        let b = Mebf::from_fit(FitRate::from_au(fit1), t1 * 2.0);
        prop_assert!((a.executions() / b.executions() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn outcome_counts_sum_matches_parts(
        parts in proptest::collection::vec((0u64..100, 0u64..100, 0u64..100), 0..20)
    ) {
        let total: OutcomeCounts = parts
            .iter()
            .map(|&(m, s, d)| OutcomeCounts::new(m, s, d))
            .sum();
        let expect = parts.iter().fold((0, 0, 0), |acc, &(m, s, d)| {
            (acc.0 + m, acc.1 + s, acc.2 + d)
        });
        prop_assert_eq!(total, OutcomeCounts::new(expect.0, expect.1, expect.2));
        let fsum = total.masked_fraction() + total.sdc_fraction() + total.due_fraction();
        if total.total() > 0 {
            prop_assert!((fsum - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn fit_scaling_composes(base in 0.0f64..1e6, f1 in 0.0f64..1.0, f2 in 0.0f64..1.0) {
        let fit = FitRate::from_au(base);
        let a = fit.scaled(f1).scaled(f2);
        let b = fit.scaled(f1 * f2);
        prop_assert!((a.au() - b.au()).abs() <= 1e-9 * base.max(1.0));
    }
}
