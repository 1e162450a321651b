//! The Micro-ADD / Micro-MUL / Micro-FMA synthetic kernels.

use crate::monomorphic_workload;
use crate::util::{gen_value, strike_each, to_u64};
use mpr_fault::hook::{FaultHook, HookExt, InjectHook};
use mpr_fault::{ValueFault, Workload};
use mpr_softfloat::{FloatExt, Precision};

/// Which arithmetic operation a microbenchmark stresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MicroKernelOp {
    /// Dependent additions.
    Add,
    /// Dependent multiplications.
    Mul,
    /// Dependent fused multiply-adds.
    Fma,
}

impl MicroKernelOp {
    /// All three microbenchmark operations.
    pub const ALL: [MicroKernelOp; 3] =
        [MicroKernelOp::Add, MicroKernelOp::Mul, MicroKernelOp::Fma];

    /// Paper-style name ("Micro-ADD", ...).
    pub const fn name(self) -> &'static str {
        match self {
            MicroKernelOp::Add => "Micro-ADD",
            MicroKernelOp::Mul => "Micro-MUL",
            MicroKernelOp::Fma => "Micro-FMA",
        }
    }
}

/// A register-resident dependent chain of one arithmetic operation per
/// thread — the paper's microbenchmarks, "designed to minimize the
/// stress on GPU's components other than the thread's ALU" (Section 3.1).
///
/// The chain constants alternate so the accumulator stays bounded at
/// every precision (no overflow in binary16, no exponent drift that
/// would asymmetrically absorb faults): ADD alternates `±0.25`, MUL
/// alternates `x1.25 / x0.8`, FMA composes both.
///
/// # Example
///
/// ```rust
/// use mpr_fault::Workload;
/// use mpr_kernels::{Micro, MicroKernelOp};
/// use mpr_softfloat::Precision;
///
/// let micro = Micro::new(MicroKernelOp::Fma, 16, 64);
/// let out = micro.run_golden(Precision::Half);
/// assert_eq!(out.len(), 16); // one accumulator per thread
/// assert!(out.iter().all(|v| v.is_finite()));
/// ```
#[derive(Debug, Clone)]
pub struct Micro {
    op: MicroKernelOp,
    threads: usize,
    iters: usize,
}

impl Micro {
    /// Creates a microbenchmark with `threads` independent chains of
    /// `iters` operations.
    ///
    /// # Panics
    ///
    /// Panics if `threads` or `iters` is zero.
    pub fn new(op: MicroKernelOp, threads: usize, iters: usize) -> Micro {
        assert!(threads > 0 && iters > 0, "need threads > 0 and iters > 0");
        Micro { op, threads, iters }
    }

    /// The stressed operation.
    pub fn op(&self) -> MicroKernelOp {
        self.op
    }

    /// One thread's dependent chain — shared by the full run and the
    /// replay so both touch identical values in identical order.
    ///
    /// Alternating constants with a slight asymmetry: the chain stays
    /// bounded (the pair products/sums are near identity) but never
    /// cancels exactly, so every step's value is distinct. All
    /// constants are exactly representable in binary16.
    fn chain<F: FloatExt, H: FaultHook + ?Sized>(&self, t: u64, hook: &mut H) -> F {
        let mul_up = F::from_f64(1.25);
        let mul_down = F::from_f64(0.796875);
        let add_up = F::from_f64(0.25);
        let add_down = F::from_f64(0.125);
        let mut x = F::from_f64(gen_value(0x3C0, t, 0.5, 1.5));
        for i in 0..self.iters {
            let even = i % 2 == 0;
            x = hook.touch(match self.op {
                MicroKernelOp::Add => {
                    if even {
                        x + add_up
                    } else {
                        x - add_down
                    }
                }
                MicroKernelOp::Mul => {
                    if even {
                        x * mul_up
                    } else {
                        x * mul_down
                    }
                }
                MicroKernelOp::Fma => {
                    if even {
                        x.mul_add(mul_up, add_up)
                    } else {
                        x.mul_add(mul_down, -add_down)
                    }
                }
            });
        }
        x
    }

    fn run<F: FloatExt, H: FaultHook + ?Sized>(&self, hook: &mut H) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.threads);
        for t in crate::util::index_range(self.threads) {
            out.push(self.chain::<F, H>(t, hook).to_f64());
        }
        out
    }

    /// Golden-prefix replay: the chains are independent, so a strike in
    /// thread `t`'s chain replays only that chain.
    fn replay<F: FloatExt>(
        &self,
        site: u64,
        fault: ValueFault,
        golden: &[f64],
        out: &mut Vec<f64>,
    ) {
        out.clear();
        out.extend_from_slice(golden);
        let iters = to_u64(self.iters);
        if site >= to_u64(self.threads) * iters {
            return; // past the last dynamic site: the fault never fires
        }
        let t = site / iters;
        let mut hook = InjectHook::new(site - t * iters, fault);
        out[t as usize] = self.chain::<F, _>(t, &mut hook).to_f64();
    }
}

impl Workload for Micro {
    fn name(&self) -> &str {
        self.op.name()
    }

    monomorphic_workload!();

    fn run_strike_batch(
        &self,
        precision: Precision,
        strikes: &[(u64, ValueFault)],
        golden: &[f64],
        each: &mut dyn FnMut(usize, &[f64]) -> bool,
    ) {
        let replay = match precision {
            Precision::Double => Self::replay::<f64>,
            Precision::Single => Self::replay::<f32>,
            Precision::Half => Self::replay::<mpr_softfloat::Half>,
        };
        strike_each(strikes, 0..strikes.len(), each, |site, fault, out| {
            replay(self, site, fault, golden, out)
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpr_fault::ValueFault;

    #[test]
    fn site_count_is_threads_times_iters() {
        for op in MicroKernelOp::ALL {
            let m = Micro::new(op, 8, 32);
            for p in Precision::ALL {
                assert_eq!(m.site_count(p), 8 * 32, "{op:?} {p}");
            }
        }
    }

    #[test]
    fn accumulators_stay_bounded_everywhere() {
        for op in MicroKernelOp::ALL {
            let m = Micro::new(op, 16, 1024);
            for p in Precision::ALL {
                let out = m.run_golden(p);
                assert!(
                    out.iter().all(|v| v.is_finite() && v.abs() < 3.0e2),
                    "{op:?} {p}: {out:?}"
                );
            }
        }
    }

    #[test]
    fn mid_chain_fault_propagates_to_thread_output() {
        for op in MicroKernelOp::ALL {
            let m = Micro::new(op, 4, 64);
            let golden = m.run_golden(Precision::Single);
            // Strike thread 1's accumulator mid-chain with a high bit.
            let site = 64 + 30;
            let faulty = m.run_with_fault(Precision::Single, site, ValueFault::BitFlip(30));
            assert_ne!(golden[1], faulty[1], "{op:?}");
            assert_eq!(golden[0], faulty[0], "{op:?}: other threads untouched");
            assert_eq!(golden[2], faulty[2], "{op:?}");
        }
    }

    #[test]
    fn fma_chain_differs_from_mul_and_add() {
        let add = Micro::new(MicroKernelOp::Add, 4, 32).run_golden(Precision::Double);
        let mul = Micro::new(MicroKernelOp::Mul, 4, 32).run_golden(Precision::Double);
        let fma = Micro::new(MicroKernelOp::Fma, 4, 32).run_golden(Precision::Double);
        assert_ne!(add, mul);
        assert_ne!(mul, fma);
    }

    #[test]
    fn op_names_match_the_paper() {
        assert_eq!(MicroKernelOp::Add.name(), "Micro-ADD");
        assert_eq!(MicroKernelOp::Mul.name(), "Micro-MUL");
        assert_eq!(MicroKernelOp::Fma.name(), "Micro-FMA");
    }
}
