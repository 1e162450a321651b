//! The contract between benchmarks and the fault-injection machinery.

use crate::hook::{FaultHook, GoldenHook, InjectHook, NullHook};
use crate::ValueFault;
use mpr_softfloat::Precision;

/// An injectable benchmark: one algorithm, runnable at any supported
/// precision, with every intermediate value exposed as a fault site.
///
/// Implementors write [`Workload::dispatch`] to route the requested
/// precision to a generic kernel that threads a [`FaultHook`] through its
/// computation; the provided methods derive everything the campaigns
/// need from that single entry point.
///
/// # Oracle and fast path
///
/// The contract has exactly one reference and one fast path:
///
/// * [`Workload::dispatch`] is the **oracle**. `site_count`,
///   `run_golden` and `run_with_fault` are conveniences over it (a
///   [`GoldenHook`], a [`NullHook`], an [`InjectHook`]); kernels may
///   override them only to monomorphize the same dispatch, never to
///   compute anything else.
/// * [`Workload::run_strike_batch`] is the **fast path** — the only way
///   campaigns execute strikes. The default runs each strike through
///   `run_with_fault`; performance-critical workloads override it with
///   golden-prefix replay (copy every output element the fault provably
///   cannot reach, recompute only the dirty slice) and batch-wide
///   amortization.
///
/// The two must agree **bit for bit**: every batch result is
/// byte-identical to `run_with_fault` for the same strike, so campaign
/// results, and therefore the cached campaign bytes, never depend on
/// which path executed a strike. `tests/fast_path.rs` sweeps exactly
/// that property.
pub trait Workload: Sync {
    /// Benchmark name as used in the paper's tables ("MxM", "LavaMD", ...).
    fn name(&self) -> &str;

    /// Runs the algorithm at `precision`, passing every intermediate
    /// value through `hook`, and returns the output vector widened to
    /// `f64` (exact for all studied formats).
    fn dispatch(&self, precision: Precision, hook: &mut dyn FaultHook) -> Vec<f64>;

    /// Whether this workload can execute at `precision` (the Xeon Phi
    /// kernels, for example, have no half-precision variant).
    fn supports(&self, _precision: Precision) -> bool {
        true
    }

    /// Number of dynamic fault sites in one execution.
    fn site_count(&self, precision: Precision) -> u64 {
        let mut hook = GoldenHook::new();
        let _ = self.dispatch(precision, &mut hook);
        hook.sites()
    }

    /// The fault-free output.
    fn run_golden(&self, precision: Precision) -> Vec<f64> {
        let mut hook = NullHook;
        self.dispatch(precision, &mut hook)
    }

    /// Runs with `fault` applied to dynamic site `site`.
    fn run_with_fault(&self, precision: Precision, site: u64, fault: ValueFault) -> Vec<f64> {
        let mut hook = InjectHook::new(site, fault);
        self.dispatch(precision, &mut hook)
    }

    /// Batched strike execution, the fast path: runs every
    /// `(site, fault)` strike in `strikes` and hands each result to
    /// `each(index, output)` exactly once, where `index` is the strike's
    /// position in `strikes` and `output` is byte-identical to
    /// `run_with_fault(precision, site, fault)`.
    ///
    /// Results may arrive in **any order** — batched implementations
    /// group strikes by site region so one golden-prefix replay (or,
    /// for LUD, one checkpoint restore per elimination step) is
    /// amortized across the whole batch. Callers must key their
    /// bookkeeping on `index`, never on arrival order (the campaigns
    /// already tag observations by strike index for thread invariance,
    /// so batch-order invariance falls out of the same discipline).
    ///
    /// `each` returns `false` to request cancellation: the workload
    /// stops issuing callbacks as soon as practical (the default
    /// strike-at-a-time loop checks between strikes, preserving
    /// per-strike cancel granularity for slow or hostile workloads;
    /// batched overrides may finish the in-flight region first).
    ///
    /// `golden` must be exactly `self.run_golden(precision)`; the
    /// default ignores it and re-runs the whole workload per strike.
    fn run_strike_batch(
        &self,
        precision: Precision,
        strikes: &[(u64, ValueFault)],
        golden: &[f64],
        each: &mut dyn FnMut(usize, &[f64]) -> bool,
    ) {
        let _ = golden;
        for (index, &(site, fault)) in strikes.iter().enumerate() {
            if !each(index, &self.run_with_fault(precision, site, fault)) {
                return;
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use mpr_softfloat::FloatExt;

    /// A small deterministic workload used by the unit tests: a dot
    /// product of fixed vectors.
    #[derive(Debug)]
    pub struct Dot(pub usize);

    impl Dot {
        fn run<F: FloatExt>(&self, hook: &mut dyn FaultHook) -> Vec<f64> {
            let mut acc = F::zero();
            for i in 0..self.0 {
                let a = F::from_f64(0.25 + i as f64 * 0.5);
                let b = F::from_f64(1.5 - i as f64 * 0.25);
                let prod = hook.touch(a * b);
                acc = hook.touch(acc + prod);
            }
            vec![acc.to_f64()]
        }
    }

    impl Workload for Dot {
        fn name(&self) -> &str {
            "dot"
        }

        fn dispatch(&self, precision: Precision, hook: &mut dyn FaultHook) -> Vec<f64> {
            match precision {
                Precision::Double => self.run::<f64>(hook),
                Precision::Single => self.run::<f32>(hook),
                Precision::Half => self.run::<mpr_softfloat::Half>(hook),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::Dot;
    use super::*;

    #[test]
    fn site_count_is_deterministic_and_positive() {
        let w = Dot(8);
        let n = w.site_count(Precision::Single);
        assert_eq!(n, 16); // two touches per iteration
        assert_eq!(n, w.site_count(Precision::Single));
        // Same algorithm, same site count across precisions.
        assert_eq!(n, w.site_count(Precision::Double));
        assert_eq!(n, w.site_count(Precision::Half));
    }

    #[test]
    fn golden_runs_are_reproducible() {
        let w = Dot(8);
        for p in Precision::ALL {
            assert_eq!(w.run_golden(p), w.run_golden(p));
        }
    }

    #[test]
    fn lower_precision_golden_approximates_double() {
        let w = Dot(8);
        let d = w.run_golden(Precision::Double)[0];
        let s = w.run_golden(Precision::Single)[0];
        let h = w.run_golden(Precision::Half)[0];
        assert!((s - d).abs() / d.abs() < 1e-6);
        assert!((h - d).abs() / d.abs() < 1e-2);
        // And the representational error grows as precision shrinks.
        assert!((h - d).abs() >= (s - d).abs());
    }

    #[test]
    fn sign_flip_at_final_site_negates_contribution() {
        let w = Dot(4);
        let golden = w.run_golden(Precision::Double)[0];
        let last_site = w.site_count(Precision::Double) - 1;
        let faulty = w.run_with_fault(Precision::Double, last_site, ValueFault::BitFlip(63))[0];
        assert_eq!(faulty, -golden);
    }

    #[test]
    fn fault_past_the_end_is_masked() {
        let w = Dot(4);
        let golden = w.run_golden(Precision::Half);
        let faulty = w.run_with_fault(Precision::Half, 10_000, ValueFault::BitFlip(0));
        assert_eq!(golden, faulty);
    }

    #[test]
    fn default_strike_batch_matches_run_with_fault_and_honors_cancel() {
        let w = Dot(6);
        let p = Precision::Single;
        let golden = w.run_golden(p);
        let strikes: Vec<(u64, ValueFault)> = (0..8)
            .map(|i| (i as u64, ValueFault::BitFlip((i % 30) as u32)))
            .collect();
        let mut seen = vec![None; strikes.len()];
        w.run_strike_batch(p, &strikes, &golden, &mut |index, out| {
            seen[index] = Some(out.to_vec());
            true
        });
        for (i, &(site, fault)) in strikes.iter().enumerate() {
            assert_eq!(
                seen[i].as_deref(),
                Some(&w.run_with_fault(p, site, fault)[..]),
                "strike {i}"
            );
        }
        // A `false` return stops the default loop between strikes.
        let mut calls = 0;
        w.run_strike_batch(p, &strikes, &golden, &mut |_, _| {
            calls += 1;
            calls < 3
        });
        assert_eq!(calls, 3);
    }
}
