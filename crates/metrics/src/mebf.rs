//! Mean Executions Between Failures.

use crate::FitRate;
use std::fmt;

/// Mean Executions Between Failures: how many correct executions complete
/// before a failure, the paper's performance-reliability trade-off metric.
///
/// MEBF couples the error *rate* (FIT, per unit time) with the execution
/// *time*: `MEBF = 1 / (FIT x t_exec)` up to unit normalization — a slow
/// code at a given FIT completes fewer executions between failures than a
/// fast one (paper, Section 3.2, citing Rech et al. DSN 2014). Because
/// FIT is in arbitrary units, MEBF is too; only ratios matter.
///
/// # Example
///
/// ```rust
/// use mpr_metrics::{FitRate, Mebf};
///
/// let double = Mebf::from_fit(FitRate::from_au(10.0), 2.0);
/// let half = Mebf::from_fit(FitRate::from_au(5.0), 1.0);
/// // Half precision: half the FIT and half the time -> 4x the MEBF.
/// assert!((half.ratio_to(double) - 4.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Mebf(f64);

impl Mebf {
    /// Computes MEBF from a FIT rate and the per-execution wall time in
    /// seconds.
    ///
    /// # Panics
    ///
    /// Panics if `exec_time_s` is not strictly positive and finite.
    pub fn from_fit(fit: FitRate, exec_time_s: f64) -> Mebf {
        assert!(
            exec_time_s.is_finite() && exec_time_s > 0.0,
            "execution time must be positive, got {exec_time_s}"
        );
        if fit.au() == 0.0 {
            return Mebf(f64::INFINITY);
        }
        // Failures per hour (a.u.) x hours per execution = failures per
        // execution; MEBF is its reciprocal.
        let failures_per_exec = fit.au() * (exec_time_s / 3600.0);
        Mebf(1.0 / failures_per_exec)
    }

    /// Executions completed between failures (arbitrary units).
    pub fn executions(&self) -> f64 {
        self.0
    }

    /// Ratio of this MEBF to a baseline.
    pub fn ratio_to(&self, baseline: Mebf) -> f64 {
        self.0 / baseline.0
    }
}

impl fmt::Display for Mebf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_infinite() {
            f.write_str("inf executions (a.u.)")
        } else {
            write!(f, "{:.3e} executions (a.u.)", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mebf_decreases_with_fit_and_time() {
        let base = Mebf::from_fit(FitRate::from_au(1.0), 1.0);
        let worse_fit = Mebf::from_fit(FitRate::from_au(2.0), 1.0);
        let slower = Mebf::from_fit(FitRate::from_au(1.0), 2.0);
        assert!(worse_fit < base);
        assert!(slower < base);
        assert_eq!(worse_fit, slower); // FIT and time trade off symmetrically
    }

    #[test]
    fn zero_fit_means_infinite_mebf() {
        let m = Mebf::from_fit(FitRate::from_au(0.0), 1.0);
        assert!(m.executions().is_infinite());
    }

    #[test]
    #[should_panic(expected = "execution time must be positive")]
    fn rejects_nonpositive_time() {
        let _ = Mebf::from_fit(FitRate::from_au(1.0), 0.0);
    }

    #[test]
    fn display_is_nonempty() {
        let m = Mebf::from_fit(FitRate::from_au(2.0), 0.5);
        assert!(m.to_string().contains("executions"));
    }
}
