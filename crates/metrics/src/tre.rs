//! Tolerated Relative Error analysis.

/// The severity distribution of a campaign's SDC events, queried as "what
/// fraction of errors would a user tolerating relative error `t` still
/// count as failures?" (paper, Section 3.2 and Figures 4, 8, 11).
///
/// Each SDC event contributes its **worst** per-element relative error;
/// an event is tolerable at threshold `t` when that worst error is `<= t`.
///
/// The curve keeps the severities in the order given and sorts nothing:
/// a figure asks a handful of thresholds of a few thousand events, and
/// a counting pass per query costs less than one sort. The derived
/// `PartialEq` therefore compares severities in that order, so two
/// curves over the same events listed differently are unequal.
///
/// # Example
///
/// ```rust
/// use mpr_metrics::TreCurve;
///
/// let curve = TreCurve::from_errors(vec![1e-5, 1e-4, 1e-2, f64::INFINITY]);
/// assert_eq!(curve.surviving_fraction(0.0), 1.0);   // strict users see all 4
/// assert_eq!(curve.surviving_fraction(1e-3), 0.5);  // two become tolerable
/// assert_eq!(curve.surviving_fraction(1.0), 0.25);  // NaN/inf never tolerable
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TreCurve {
    /// Worst relative error of each SDC event, in the order given, with
    /// NaN stored as `+inf`.
    errors: Vec<f64>,
}

impl TreCurve {
    /// Builds a curve from the per-event worst relative errors.
    /// NaN severities are treated as infinitely wrong.
    pub fn from_errors(mut errors: Vec<f64>) -> TreCurve {
        for e in &mut errors {
            if e.is_nan() {
                *e = f64::INFINITY;
            }
        }
        TreCurve { errors }
    }

    /// Number of SDC events behind the curve.
    pub fn event_count(&self) -> usize {
        self.errors.len()
    }

    /// Fraction of events still counted as errors at tolerance `tre`
    /// (an event survives unless its severity is `<= tre`, so a NaN
    /// `tre` tolerates nothing). With no events the curve is
    /// identically zero. One pass over the events.
    pub fn surviving_fraction(&self, tre: f64) -> f64 {
        if self.errors.is_empty() {
            return 0.0;
        }
        let tolerable = self.errors.iter().filter(|&&e| e <= tre).count();
        (self.errors.len() - tolerable) as f64 / self.errors.len() as f64
    }

    /// Fraction of events that become tolerable at tolerance `tre` — the
    /// "FIT reduction" the paper plots.
    pub fn tolerable_fraction(&self, tre: f64) -> f64 {
        1.0 - self.surviving_fraction(tre)
    }

    /// The standard tolerance grid: `0` plus six decades from 1e-6 to 0.1.
    pub fn standard_grid() -> [f64; 7] {
        [0.0, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn curve_is_monotone_nonincreasing() {
        let curve = TreCurve::from_errors(vec![1e-6, 5e-4, 5e-4, 0.3, 2.0]);
        let samples = TreCurve::standard_grid().map(|t| curve.surviving_fraction(t));
        for w in samples.windows(2) {
            assert!(w[1] <= w[0], "survival must not increase with TRE");
        }
    }

    #[test]
    fn empty_curve_is_zero() {
        let curve = TreCurve::from_errors(vec![]);
        assert_eq!(curve.surviving_fraction(0.0), 0.0);
        assert_eq!(curve.event_count(), 0);
    }

    #[test]
    fn boundary_is_inclusive_for_tolerance() {
        // An error exactly at the threshold is tolerated (|err| <= t).
        let curve = TreCurve::from_errors(vec![0.1]);
        assert_eq!(curve.surviving_fraction(0.1), 0.0);
        assert_eq!(curve.surviving_fraction(0.0999), 1.0);
    }

    #[test]
    fn nan_severity_never_tolerated() {
        let curve = TreCurve::from_errors(vec![f64::NAN]);
        assert_eq!(curve.surviving_fraction(1e9), 1.0);
    }

    #[test]
    fn zero_severity_events_are_tolerable_even_at_zero() {
        // An "SDC" whose numeric severity is 0 (e.g. -0.0 vs +0.0 bit
        // mismatch) is tolerable at TRE 0.
        let curve = TreCurve::from_errors(vec![0.0, 0.5]);
        assert_eq!(curve.surviving_fraction(0.0), 0.5);
    }
}
