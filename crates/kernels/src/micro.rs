//! The Micro-ADD / Micro-MUL / Micro-FMA synthetic kernels.

use crate::util::{strike_each, to_u64, PrecisionCache};
use mpr_fault::hook::{FaultHook, HookExt};
use mpr_fault::{dispatch_precision, gen_value, monomorphic_workload, ValueFault, Workload};
use mpr_softfloat::{FloatExt, Precision};

/// Steps between cached golden chain values: replay resumes fewer than
/// this many steps before the struck one, and the faulty chain can only
/// be seen to rejoin the golden one at these boundaries. One word per
/// stride per thread keeps the cache an eighth of a per-step trace.
const CHECKPOINT_STRIDE: usize = 8;

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
/// Each chain starts from a value in `[0.5, 1.5)` and alternates two
/// binary16-exact constants per operation, slightly asymmetric so no
/// step pair cancels exactly:
///
/// * ADD alternates `+0.25 / −0.125`, drifting by `+0.125` per pair
///   (about `+32` over 512 steps);
/// * MUL alternates `×1.25 / ×0.796875`, a factor of `0.99609375` per
///   pair (about `×0.37` over 512 steps);
/// * FMA alternates `x·1.25 + 0.25 / x·0.796875 − 0.125`, the affine
///   map `x ↦ 0.99609375·x + 0.07421875` per pair, which contracts
///   toward its fixed point `19`.
///
/// The accumulator stays finite and far from binary16 overflow at the
/// sizes the study runs.
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
    /// Per precision: golden chain checkpoints (see [`Micro::replay`]).
    cache: PrecisionCache<Vec<u64>>,
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
        Micro {
            op,
            threads,
            iters,
            cache: PrecisionCache::new(),
        }
    }

    /// The stressed operation.
    pub fn op(&self) -> MicroKernelOp {
        self.op
    }

    /// Step `i` of a chain, before its hook touch — the one definition
    /// the full run, the checkpoint builder and the replay all call, so
    /// every path computes identical values in identical order.
    ///
    /// All constants are exactly representable in binary16.
    #[inline(always)]
    fn step<F: FloatExt>(&self, i: usize, x: F) -> F {
        let even = i.is_multiple_of(2);
        match self.op {
            MicroKernelOp::Add => {
                if even {
                    x + F::from_f64(0.25)
                } else {
                    x - F::from_f64(0.125)
                }
            }
            MicroKernelOp::Mul => {
                if even {
                    x * F::from_f64(1.25)
                } else {
                    x * F::from_f64(0.796875)
                }
            }
            MicroKernelOp::Fma => {
                if even {
                    x.mul_add(F::from_f64(1.25), F::from_f64(0.25))
                } else {
                    x.mul_add(F::from_f64(0.796875), -F::from_f64(0.125))
                }
            }
        }
    }

    /// Thread `t`'s chain seed.
    fn start<F: FloatExt>(t: u64) -> F {
        F::from_f64(gen_value(0x3C0, t, 0.5, 1.5))
    }

    fn run<F: FloatExt, H: FaultHook + ?Sized>(&self, hook: &mut H) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.threads);
        for t in crate::util::index_range(self.threads) {
            let mut x = Self::start::<F>(t);
            for i in 0..self.iters {
                x = hook.touch(self.step(i, x));
            }
            out.push(x.to_f64());
        }
        out
    }

    /// Golden chain bits before every [`CHECKPOINT_STRIDE`]-th step,
    /// thread-major, computed once per precision.
    fn checkpoints<F: FloatExt>(&self) -> &[u64] {
        self.cache.get_or_init(F::PRECISION, || {
            let per_thread = self.iters.div_ceil(CHECKPOINT_STRIDE);
            let mut bits = Vec::with_capacity(self.threads * per_thread);
            for t in crate::util::index_range(self.threads) {
                let mut x = Self::start::<F>(t);
                for i in 0..self.iters {
                    if i.is_multiple_of(CHECKPOINT_STRIDE) {
                        bits.push(x.to_bits_u64());
                    }
                    x = self.step(i, x);
                }
            }
            bits
        })
    }

    /// Golden-prefix replay of one strike. Chains are independent, so
    /// only the struck thread `t` is recomputed: resume from the golden
    /// checkpoint at or before the struck step, apply the fault there
    /// (`InjectHook` semantics), then run the rest with no hook. At each
    /// later checkpoint the faulty value is compared with the golden
    /// one; once the bits match, the remainder of the chain is the
    /// golden one, so the golden output stands (the fault was masked).
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
        let checkpoints = self.checkpoints::<F>();
        let t = (site / iters) as usize;
        let struck = (site % iters) as usize;
        let chain = &checkpoints[t * self.iters.div_ceil(CHECKPOINT_STRIDE)..];
        let resume = struck - struck % CHECKPOINT_STRIDE;
        let mut x = F::from_bits_u64(chain[resume / CHECKPOINT_STRIDE]);
        for i in resume..struck {
            x = self.step(i, x);
        }
        let width = F::PRECISION.total_bits();
        x = F::from_bits_u64(fault.apply(self.step(struck, x).to_bits_u64(), width));
        for i in struck + 1..self.iters {
            if i.is_multiple_of(CHECKPOINT_STRIDE)
                && x.to_bits_u64() == chain[i / CHECKPOINT_STRIDE]
            {
                return; // rejoined the golden chain
            }
            x = self.step(i, x);
        }
        out[t] = x.to_f64();
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
        dispatch_precision!(precision, F => {
            strike_each(strikes, 0..strikes.len(), each, |site, fault, out| {
                self.replay::<F>(site, fault, golden, out)
            })
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
    fn replay_matches_naive_at_every_site() {
        // 20 steps: checkpoints before steps 0, 8 and 16, so strikes hit
        // step 0, the last step before a checkpoint (7, 15), the first
        // after one (8, 16) and a partial final stride.
        for op in MicroKernelOp::ALL {
            let m = Micro::new(op, 3, 20);
            for p in Precision::ALL {
                let width = p.total_bits();
                let sites = m.site_count(p);
                let mut strikes = Vec::new();
                for fault in [ValueFault::BitFlip(0), ValueFault::BitFlip(width - 2)] {
                    strikes.extend((0..sites + 2).map(|site| (site, fault)));
                }
                let masked = crate::util::assert_batch_matches_naive(&m, p, &strikes);
                // Strikes past the end are masked by construction; beyond
                // them, some must rejoin the golden chain and some not.
                assert!(masked > 4, "{op:?} {p}: no strike rejoined");
                assert!(masked < strikes.len(), "{op:?} {p}: every strike masked");
            }
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
