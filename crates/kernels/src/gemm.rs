//! The MxM / GEMM kernel.

use crate::util::{index_range, strike_each, to_u64, PrecisionCache};
use mpr_fault::hook::{FaultHook, HookExt, InjectHook, NullHook};
use mpr_fault::{gen_value, monomorphic_workload, ValueFault, Workload};
use mpr_softfloat::{wide, FloatExt, Half, Precision};

/// Square matrix multiplication `C = A x B`, the paper's MxM benchmark —
/// a chain of fused multiply-adds per output element.
///
/// Fault sites: every input element (a strike while the value sits in
/// memory) and every FMA result (a strike in the datapath or the
/// accumulator register): `2 n^2 + n^3` sites per run.
///
/// # Example
///
/// ```rust
/// use mpr_fault::Workload;
/// use mpr_kernels::Gemm;
/// use mpr_softfloat::Precision;
///
/// let gemm = Gemm::new(4);
/// let c = gemm.run_golden(Precision::Double);
/// // All entries are sums of 4 products of values in [0.25, 1.75).
/// assert!(c.iter().all(|&v| v > 4.0 * 0.0625 && v < 4.0 * 3.0625));
/// ```
#[derive(Debug, Clone)]
pub struct Gemm {
    n: usize,
    seed: u64,
    inputs: PrecisionCache<Vec<u64>>,
}

impl Gemm {
    /// Creates an `n x n` multiplication with the default input seed.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: usize) -> Gemm {
        assert!(n > 0, "matrix dimension must be positive");
        Gemm {
            n,
            seed: 0xA0,
            inputs: PrecisionCache::new(),
        }
    }

    /// Overrides the deterministic input seed.
    pub fn with_seed(mut self, seed: u64) -> Gemm {
        self.seed = seed;
        self.inputs = PrecisionCache::new();
        self
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Input bits at `F`'s precision — `a` then `b`, row-major —
    /// generated once and reused across a campaign's whole strike batch.
    fn input_bits<F: FloatExt>(&self) -> &[u64] {
        self.inputs.get_or_init(F::PRECISION, || {
            let n2 = self.n * self.n;
            // Inputs in [0.25, 1.75): dot products stay well inside the
            // binary16 range for the proxy sizes used here.
            let mut bits = Vec::with_capacity(2 * n2);
            for i in index_range(n2) {
                bits.push(F::from_f64(gen_value(self.seed, i, 0.25, 1.75)).to_bits_u64());
            }
            for i in index_range(n2) {
                bits.push(F::from_f64(gen_value(self.seed ^ 0xB, i, 0.25, 1.75)).to_bits_u64());
            }
            bits
        })
    }

    /// One output element's FMA chain — shared by the full run and the
    /// golden-prefix replay so both touch identical values in identical
    /// order (`a_at(k)` is `A[i][k]`, `b_at(k)` is `B[k][j]`).
    #[inline]
    fn element<F: FloatExt, H: FaultHook + ?Sized>(
        n: usize,
        a_at: impl Fn(usize) -> F,
        b_at: impl Fn(usize) -> F,
        hook: &mut H,
    ) -> F {
        let mut acc = F::zero();
        for k in 0..n {
            acc = hook.touch(a_at(k).mul_add(b_at(k), acc));
        }
        acc
    }

    /// The oracle run. Each span of sites — each `n`-load row of `A`
    /// and `B`, then each output element's `n`-FMA chain — is offered
    /// to [`FaultHook::skip`] first: a span the hook lets pass untouched
    /// runs hook-free (an element comes from its row of `C`, computed
    /// once by [`wide::row_fma`] when first needed), and only a refused
    /// span is touched value by value.
    fn run<F: FloatExt, H: FaultHook + ?Sized>(&self, hook: &mut H) -> Vec<f64> {
        let n = self.n;
        let span = to_u64(n);
        let load = |&w: &u64| F::from_bits_u64(w);
        let mut load_rows = |bits: &[u64]| {
            let mut m: Vec<F> = Vec::with_capacity(bits.len());
            for row in bits.chunks_exact(n) {
                if hook.skip(span) {
                    m.extend(row.iter().map(load));
                } else {
                    m.extend(row.iter().map(|w| hook.touch(load(w))));
                }
            }
            m
        };
        // `A` and `B` in allocations of their own: one shared buffer
        // made GEMM-32's f64 golden ~20% slower (7.3 → 8.7 µs, release,
        // 2 vCPUs).
        let (a, b) = self.input_bits::<F>().split_at(n * n);
        let (a, b) = (load_rows(a), load_rows(b));

        let mut row = vec![F::zero(); n];
        let mut c = Vec::with_capacity(n * n);
        for arow in a.chunks_exact(n) {
            let mut computed = false;
            for j in 0..n {
                let v = if hook.skip(span) {
                    if !computed {
                        computed = true;
                        row.fill(F::zero());
                        wide::row_fma(arow, &b, &mut row);
                    }
                    row[j]
                } else {
                    Self::element(n, |k| arow[k], |k| b[k * n + j], hook)
                };
                c.push(v.to_f64());
            }
        }
        c
    }

    /// Golden-prefix replay: an input strike at site `s < 2n^2` dirties
    /// one row (`A`) or one column (`B`) of `C`; an FMA strike dirties a
    /// single element. Everything else is copied from `golden`.
    fn replay<F: FloatExt>(
        &self,
        site: u64,
        fault: ValueFault,
        golden: &[f64],
        out: &mut Vec<f64>,
    ) {
        let n = self.n;
        let n2 = n * n;
        let (n2u, nu) = (to_u64(n2), to_u64(n));
        out.clear();
        out.extend_from_slice(golden);
        if site >= 2 * n2u + n2u * nu {
            return; // past the last dynamic site: the fault never fires
        }
        let width = F::PRECISION.total_bits();
        let bits = self.input_bits::<F>();
        let at = |idx: usize| F::from_bits_u64(bits[idx]);
        if site < n2u {
            // A[i][col] strike: row i of C recomputed with the faulted value.
            let idx = site as usize;
            let (i, col) = (idx / n, idx % n);
            let mut arow: Vec<F> = (0..n).map(|k| at(i * n + k)).collect();
            arow[col] = F::from_bits_u64(fault.apply(bits[idx], width));
            for j in 0..n {
                // mpr-allow: fault-site -- `element` routes every FMA through the replay's NullHook; the full run already counted these sites
                out[i * n + j] =
                    Self::element(n, |k| arow[k], |k| at(n2 + k * n + j), &mut NullHook).to_f64();
            }
        } else if site < 2 * n2u {
            // B[row][j] strike: column j of C recomputed.
            let idx = (site - n2u) as usize;
            let (row, j) = (idx / n, idx % n);
            let mut bcol: Vec<F> = (0..n).map(|k| at(n2 + k * n + j)).collect();
            bcol[row] = F::from_bits_u64(fault.apply(bits[n2 + idx], width));
            for i in 0..n {
                // mpr-allow: fault-site -- `element` routes every FMA through the replay's NullHook; the full run already counted these sites
                out[i * n + j] =
                    Self::element(n, |k| at(i * n + k), |k| bcol[k], &mut NullHook).to_f64();
            }
        } else {
            // FMA strike: replay one element's chain with a local inject
            // hook whose cursor starts at the chain's first site.
            let r = site - 2 * n2u;
            let e = (r / nu) as usize;
            let (i, j) = (e / n, e % n);
            let mut hook = InjectHook::new(r % nu, fault);
            out[e] =
                Self::element(n, |k| at(i * n + k), |k| at(n2 + k * n + j), &mut hook).to_f64();
        }
    }

    /// Batched half-precision strikes through wide binary16 lanes
    /// (DESIGN.md §4i). Strikes are grouped by site region:
    ///
    /// * `A`/`B` input strikes recompute their dirty stripe of `C` with
    ///   [`wide::row_fma`] — the faulted input row (`A`) or column (`B`)
    ///   multiplies contiguous rows (`B` rows directly; `A` columns via
    ///   a transpose built once per batch), so the `k` loop runs `n`
    ///   lanes wide.
    /// * FMA-chain strikes pack [`wide::LANES`] strikes per pass in
    ///   structure-of-arrays form: lane `s` holds strike `s`'s
    ///   accumulator, each `k` step gathers the lanes' `A`/`B` operands,
    ///   runs one `mul_add` per lane, and applies lane `s`'s fault when
    ///   its chain position comes up.
    ///
    /// Every lane runs the scalar `Half::mul_add`, so the outputs match
    /// `run_with_fault` byte-for-byte. The exact binary16 product
    /// commutes (and every NaN is canonical), which is why `B`-column
    /// strikes may broadcast the `B` value over transposed `A` rows.
    fn run_half_batch(
        &self,
        strikes: &[(u64, ValueFault)],
        golden: &[f64],
        each: &mut dyn FnMut(usize, &[f64]) -> bool,
    ) {
        let n = self.n;
        let n2 = n * n;
        let (n2u, nu) = (to_u64(n2), to_u64(n));
        let limit = 2 * n2u + n2u * nu;
        let load =
            |bits: &[u64]| -> Vec<Half> { bits.iter().map(|&w| Half::from_bits_u64(w)).collect() };
        let (a, b) = self.input_bits::<Half>().split_at(n2);
        let (a, b) = (load(a), load(b));
        let strike =
            |fault: ValueFault, v: Half| Half::from_bits_u64(fault.apply(v.to_bits_u64(), 16));
        let mut a_col: Option<Vec<Half>> = None; // column-major A, built on demand
        let mut acc = vec![Half::ZERO; n];
        let mut stripe = vec![Half::ZERO; n];
        let mut chain: Vec<usize> = Vec::new();

        // One golden refresh per batch; each strike dirties at most one
        // row, column, or element of `C`, records the touched indices,
        // and the next strike restores exactly those instead of
        // re-copying the whole output.
        let mut out: Vec<f64> = Vec::with_capacity(golden.len());
        out.extend_from_slice(golden);
        let mut dirty: Vec<usize> = Vec::with_capacity(n);

        for (index, &(site, fault)) in strikes.iter().enumerate() {
            if site >= 2 * n2u && site < limit {
                chain.push(index);
                continue;
            }
            for d in dirty.drain(..) {
                out[d] = golden[d];
            }
            if site < n2u {
                // A[i][col] strike: row i of C from the struck A row.
                let idx = site as usize;
                let (i, col) = (idx / n, idx % n);
                stripe.copy_from_slice(&a[i * n..(i + 1) * n]);
                stripe[col] = strike(fault, a[idx]);
                acc.fill(Half::ZERO);
                wide::row_fma(&stripe, &b, &mut acc);
                for j in 0..n {
                    out[i * n + j] = acc[j].to_f64();
                    dirty.push(i * n + j);
                }
            } else if site < 2 * n2u {
                // B[row][j] strike: column j of C from the struck B
                // column over transposed-A rows (the exact product
                // commutes).
                let idx = (site - n2u) as usize;
                let (row, j) = (idx / n, idx % n);
                let at =
                    a_col.get_or_insert_with(|| (0..n2).map(|t| a[(t % n) * n + t / n]).collect());
                for (k, v) in stripe.iter_mut().enumerate() {
                    *v = b[k * n + j];
                }
                stripe[row] = strike(fault, b[idx]);
                acc.fill(Half::ZERO);
                wide::row_fma(&stripe, at, &mut acc);
                for i in 0..n {
                    out[i * n + j] = acc[i].to_f64();
                    dirty.push(i * n + j);
                }
            }
            // else: past the last dynamic site — masked, pure golden.
            if !each(index, &out) {
                return;
            }
        }

        // FMA-chain strikes: SoA lanes, LANES strikes per kernel pass.
        if chain.is_empty() {
            return;
        }
        for d in dirty.drain(..) {
            out[d] = golden[d];
        }
        let mut dirty: Option<usize> = None;
        let mut av = [Half::ZERO; wide::LANES];
        let mut bv = [Half::ZERO; wide::LANES];
        let mut lane_acc = [Half::ZERO; wide::LANES];
        // Per-lane site decode, hoisted out of the k loop (three
        // divisions per lane per step would dominate the pass). Fixed
        // arrays keep the per-step lane loops at a constant trip count
        // the compiler can unroll; short tail groups pad with lane 0's
        // operands and a chain position of `n` (never struck), and the
        // writeback below ignores the padding lanes.
        let mut a_base = [0usize; wide::LANES];
        let mut b_off = [0usize; wide::LANES];
        let mut elem = [0usize; wide::LANES];
        let mut pos = [0usize; wide::LANES];
        for group in chain.chunks(wide::LANES) {
            let m = group.len();
            lane_acc.fill(Half::ZERO);
            a_base[m..].fill(0);
            b_off[m..].fill(0);
            pos[m..].fill(n);
            for (s, &index) in group.iter().enumerate() {
                let r = strikes[index].0 - 2 * n2u;
                let e = (r / nu) as usize;
                a_base[s] = (e / n) * n;
                b_off[s] = e % n;
                elem[s] = e;
                pos[s] = (r % nu) as usize;
            }
            for k in 0..n {
                let brow = k * n;
                for s in 0..wide::LANES {
                    av[s] = a[a_base[s] + k];
                    bv[s] = b[brow + b_off[s]];
                }
                for ((c, &x), &y) in lane_acc.iter_mut().zip(&av).zip(&bv) {
                    *c = x.mul_add(y, *c);
                }
                for s in 0..m {
                    if pos[s] == k {
                        lane_acc[s] = strike(strikes[group[s]].1, lane_acc[s]);
                    }
                }
            }
            for (s, &index) in group.iter().enumerate() {
                if let Some(d) = dirty.take() {
                    out[d] = golden[d];
                }
                out[elem[s]] = lane_acc[s].to_f64();
                dirty = Some(elem[s]);
                if !each(index, &out) {
                    return;
                }
            }
        }
    }
}

impl Workload for Gemm {
    fn name(&self) -> &str {
        "MxM"
    }

    monomorphic_workload!();

    /// Half precision packs strikes into wide binary16 lanes; `f32` and
    /// `f64` replay strike by strike. Batching them as well measured
    /// 1.8x faster single strikes (5.2 → 9.2 M/s, release, 2 vCPUs),
    /// which trips `strike_throughput`'s `gemm_half_vs_single_ratio
    /// <= 2.0` gate (2.34): the gate divides by single's per-strike
    /// golden copy, so it holds `replay` here until it is re-aimed.
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
            Precision::Half => return self.run_half_batch(strikes, golden, each),
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
    fn site_count_is_inputs_plus_fmas() {
        let g = Gemm::new(6);
        for p in Precision::ALL {
            assert_eq!(g.site_count(p), 2 * 36 + 216, "{p}");
        }
    }

    #[test]
    fn golden_matches_reference_double() {
        let g = Gemm::new(5);
        let n = 5;
        // Independent reference computation without hooks or FMA.
        let a: Vec<f64> = (0..25).map(|i| gen_value(0xA0, i, 0.25, 1.75)).collect();
        let b: Vec<f64> = (0..25)
            .map(|i| gen_value(0xA0 ^ 0xB, i, 0.25, 1.75))
            .collect();
        let c = g.run_golden(Precision::Double);
        for i in 0..n {
            for j in 0..n {
                let want: f64 = (0..n).map(|k| a[i * n + k] * b[k * n + j]).sum();
                let got = c[i * n + j];
                assert!((got - want).abs() < 1e-12, "c[{i}][{j}] {got} vs {want}");
            }
        }
    }

    #[test]
    fn precision_ladder_of_accuracy() {
        let g = Gemm::new(12);
        let d = g.run_golden(Precision::Double);
        let s = g.run_golden(Precision::Single);
        let h = g.run_golden(Precision::Half);
        let err = |xs: &[f64]| -> f64 {
            xs.iter()
                .zip(&d)
                .map(|(x, y)| ((x - y) / y).abs())
                .fold(0.0, f64::max)
        };
        assert!(err(&s) < 1e-5);
        assert!(err(&h) < 2e-2, "half error {}", err(&h));
        assert!(err(&h) > err(&s));
    }

    #[test]
    fn input_fault_corrupts_a_row_or_column_stripe() {
        let g = Gemm::new(6);
        let golden = g.run_golden(Precision::Single);
        // Site 0 is a[0][0]: a large flip corrupts row 0 of C only.
        let faulty = g.run_with_fault(Precision::Single, 0, ValueFault::BitFlip(30));
        let changed: Vec<usize> = (0..36).filter(|&i| faulty[i] != golden[i]).collect();
        assert!(!changed.is_empty());
        assert!(
            changed.iter().all(|&i| i < 6),
            "only row 0 affected: {changed:?}"
        );
        assert_eq!(changed.len(), 6, "a[0][0] feeds all 6 row-0 outputs");
    }

    #[test]
    fn accumulator_fault_corrupts_one_element() {
        let g = Gemm::new(6);
        let golden = g.run_golden(Precision::Double);
        // The last FMA site belongs to c[5][5] only.
        let last = g.site_count(Precision::Double) - 1;
        let faulty = g.run_with_fault(Precision::Double, last, ValueFault::BitFlip(62));
        let changed: Vec<usize> = (0..36).filter(|&i| faulty[i] != golden[i]).collect();
        assert_eq!(changed, vec![35]);
    }

    #[test]
    fn batch_matches_naive_bit_for_bit_at_every_site() {
        // Every site region — A inputs, B inputs, FMA chains, masked —
        // through the batch (binary16's wide lanes, f32/f64 replay),
        // against the naive injected run.
        let g = Gemm::new(7);
        for p in Precision::ALL {
            let width = p.total_bits();
            let strikes: Vec<(u64, ValueFault)> = (0..g.site_count(p) + 2)
                .map(|site| {
                    let bit = (site % u64::from(width)) as u32;
                    let fault = match site % 4 {
                        0 => ValueFault::BitFlip(bit),
                        1 => ValueFault::StuckHigh(bit),
                        // exponent mangling: infs/NaNs
                        2 => ValueFault::XorMask(0x7C00 << (width - 16)),
                        _ => ValueFault::ByteCorrupt {
                            byte: (site % 2) as u32,
                            xor: 0x81,
                        },
                    };
                    (site, fault)
                })
                .collect();
            crate::util::assert_batch_matches_naive(&g, p, &strikes);
        }
    }

    #[test]
    fn batch_cancellation_stops_midway() {
        let g = Gemm::new(5);
        let p = Precision::Half;
        let golden = g.run_golden(p);
        let strikes: Vec<(u64, ValueFault)> =
            (0..20).map(|s| (s * 9, ValueFault::BitFlip(10))).collect();
        let mut calls = 0;
        g.run_strike_batch(p, &strikes, &golden, &mut |_, _| {
            calls += 1;
            calls < 4
        });
        assert!(calls >= 4 && calls < strikes.len(), "stopped after {calls}");
    }

    #[test]
    fn different_seeds_give_different_outputs() {
        let a = Gemm::new(4).run_golden(Precision::Double);
        let b = Gemm::new(4).with_seed(99).run_golden(Precision::Double);
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_dimension_rejected() {
        let _ = Gemm::new(0);
    }
}
