//! The MxM / GEMM kernel.

use crate::util::{index_range, strike_each, to_u64, PrecisionCache};
use mpr_fault::hook::{FaultHook, HookExt, InjectHook, NullHook};
use mpr_fault::{gen_value, monomorphic_workload, ValueFault, Workload};
use mpr_softfloat::{wide, FloatExt, Precision};

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

    /// The oracle run. Each span of sites — the `2n^2` input loads, then
    /// each output element's `n`-FMA chain — is offered to
    /// [`FaultHook::skip`] first: a span the hook lets pass untouched
    /// runs hook-free (an element comes from its row's [`RowLanes`]),
    /// and only a refused span is touched value by value.
    fn run<F: FloatExt, H: FaultHook + ?Sized>(&self, hook: &mut H) -> Vec<f64> {
        let n = self.n;
        let n2 = n * n;
        let bits = self.input_bits::<F>();
        let load = |&w: &u64| F::from_bits_u64(w);
        let (a, b): (Vec<F>, Vec<F>) = if hook.skip(2 * to_u64(n2)) {
            (
                bits[..n2].iter().map(load).collect(),
                bits[n2..].iter().map(load).collect(),
            )
        } else {
            (
                bits[..n2].iter().map(|w| hook.touch(load(w))).collect(),
                bits[n2..].iter().map(|w| hook.touch(load(w))).collect(),
            )
        };

        let chain = to_u64(n);
        let mut lanes = RowLanes::new(n, &a, &b);
        let mut c = Vec::with_capacity(n2);
        for (i, arow) in a.chunks_exact(n).enumerate() {
            for j in 0..n {
                let v = if hook.skip(chain) {
                    lanes.row(i)[j]
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

    /// Batched half-precision strikes through the wide binary16 lanes
    /// (DESIGN.md §4i). Strikes are grouped by site region:
    ///
    /// * `A`/`B` input strikes recompute their dirty stripe of `C` with
    ///   [`mpr_softfloat::wide::fma_broadcast`] — the faulted input
    ///   multiplies a contiguous row (`B` rows directly; `A` columns via
    ///   a transpose built once per batch), so the `k` loop runs `n`
    ///   lanes wide instead of `n` scalar bit-twiddles.
    /// * FMA-chain strikes pack [`mpr_softfloat::wide::LANES`] strikes
    ///   per pass in structure-of-arrays form: lane `s` holds strike
    ///   `s`'s accumulator, each `k` step gathers the lane's `A`/`B`
    ///   operands and applies lane `s`'s fault when its chain position
    ///   comes up — one vectorized [`mpr_softfloat::wide::fma`] per
    ///   step serves the whole group.
    ///
    /// Every lane runs the scalar `Half::mul_add`, so the outputs match
    /// `run_with_fault` byte-for-byte. The exact binary16 product
    /// commutes, which is why `B`-column strikes may broadcast the `B`
    /// value over transposed `A` rows.
    fn run_half_batch(
        &self,
        strikes: &[(u64, ValueFault)],
        golden: &[f64],
        each: &mut dyn FnMut(usize, &[f64]) -> bool,
    ) {
        use mpr_softfloat::Half;
        let n = self.n;
        let n2 = n * n;
        let (n2u, nu) = (to_u64(n2), to_u64(n));
        let limit = 2 * n2u + n2u * nu;
        let bits = self.input_bits::<Half>();
        let a16: Vec<u16> = bits[..n2].iter().map(|&w| w as u16).collect();
        let b16: Vec<u16> = bits[n2..].iter().map(|&w| w as u16).collect();
        let mut a_col: Option<Vec<u16>> = None; // column-major A, built on demand
        let mut acc = vec![0u16; n];
        let mut stripe = vec![0u16; n];
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
                // A[i][col] strike: row i of C, B rows broadcast-FMA'd.
                let idx = site as usize;
                let (i, col) = (idx / n, idx % n);
                stripe.copy_from_slice(&a16[i * n..(i + 1) * n]);
                stripe[col] = fault.apply(u64::from(a16[idx]), 16) as u16;
                half_row(&stripe, &b16, &mut acc);
                for j in 0..n {
                    out[i * n + j] = Half::from_bits(acc[j]).to_f64();
                    dirty.push(i * n + j);
                }
            } else if site < 2 * n2u {
                // B[row][j] strike: column j of C, transposed-A rows
                // broadcast-FMA'd (the exact product commutes).
                let idx = (site - n2u) as usize;
                let (row, j) = (idx / n, idx % n);
                let at = a_col.get_or_insert_with(|| {
                    let mut t = vec![0u16; n2];
                    for r in 0..n {
                        for c in 0..n {
                            t[c * n + r] = a16[r * n + c];
                        }
                    }
                    t
                });
                for (k, v) in stripe.iter_mut().enumerate() {
                    *v = b16[k * n + j];
                }
                stripe[row] = fault.apply(u64::from(b16[idx]), 16) as u16;
                half_row(&stripe, at, &mut acc);
                for i in 0..n {
                    out[i * n + j] = Half::from_bits(acc[i]).to_f64();
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
        let mut av = [0u16; wide::LANES];
        let mut bv = [0u16; wide::LANES];
        let mut lane_acc = [0u16; wide::LANES];
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
            lane_acc.iter_mut().for_each(|v| *v = 0);
            a_base[m..].iter_mut().for_each(|v| *v = 0);
            b_off[m..].iter_mut().for_each(|v| *v = 0);
            pos[m..].iter_mut().for_each(|v| *v = n);
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
                    av[s] = a16[a_base[s] + k];
                    bv[s] = b16[brow + b_off[s]];
                }
                wide::fma(&av, &bv, &mut lane_acc);
                for s in 0..m {
                    if pos[s] == k {
                        lane_acc[s] = strikes[group[s]].1.apply(u64::from(lane_acc[s]), 16) as u16;
                    }
                }
            }
            for (s, &index) in group.iter().enumerate() {
                if let Some(d) = dirty.take() {
                    out[d] = golden[d];
                }
                out[elem[s]] = Half::from_bits(lane_acc[s]).to_f64();
                dirty = Some(elem[s]);
                if !each(index, &out) {
                    return;
                }
            }
        }
    }
}

/// One binary16 row of a matrix product: `acc[j]` becomes
/// `sum_k x[k] * rows[k][j]` for row-major `rows`, each lane the
/// `k`-ordered FMA chain from `+0` that [`Gemm::element`] runs.
fn half_row(x: &[u16], rows: &[u16], acc: &mut [u16]) {
    acc.fill(0);
    for (&xk, row) in x.iter().zip(rows.chunks_exact(acc.len())) {
        wide::fma_broadcast(xk, row, acc);
    }
}

/// The rows of `C` as lanes over one run's (possibly struck) inputs:
/// lane `j` of row `i` runs element `(i, j)`'s FMA chain in `k` order,
/// so it equals [`Gemm::element`] under a pass-through hook bit for
/// bit. binary16 rows run [`half_row`] over bit patterns; f32 and f64
/// rows run a plain `mul_add` loop the autovectorizer widens. A row is
/// computed when its first element is asked for, so a hook that
/// refuses every chain costs no lane work.
struct RowLanes<'m, F> {
    n: usize,
    a: &'m [F],
    b: &'m [F],
    /// `A` and `B` as bit patterns (binary16 only), built with the
    /// first row.
    a16: Vec<u16>,
    b16: Vec<u16>,
    acc16: Vec<u16>,
    row: Vec<F>,
    /// Which row `row` holds.
    at: Option<usize>,
}

impl<'m, F: FloatExt> RowLanes<'m, F> {
    fn new(n: usize, a: &'m [F], b: &'m [F]) -> Self {
        RowLanes {
            n,
            a,
            b,
            a16: Vec::new(),
            b16: Vec::new(),
            acc16: vec![0; n],
            row: Vec::with_capacity(n),
            at: None,
        }
    }

    /// Row `i` of `C`.
    fn row(&mut self, i: usize) -> &[F] {
        if self.at != Some(i) {
            self.at = Some(i);
            let n = self.n;
            let rows = i * n..(i + 1) * n;
            self.row.clear();
            if F::PRECISION == Precision::Half {
                if self.b16.is_empty() {
                    let bits = |m: &[F]| m.iter().map(|v| v.to_bits_u64() as u16).collect();
                    self.a16 = bits(self.a);
                    self.b16 = bits(self.b);
                }
                half_row(&self.a16[rows], &self.b16, &mut self.acc16);
                let lane = |&h: &u16| F::from_bits_u64(u64::from(h));
                self.row.extend(self.acc16.iter().map(lane));
            } else {
                self.row.resize(n, F::zero());
                let row = &mut self.row[..];
                for (&x, brow) in self.a[rows].iter().zip(self.b.chunks_exact(n)) {
                    for (acc, &y) in row.iter_mut().zip(brow) {
                        *acc = x.mul_add(y, *acc);
                    }
                }
            }
        }
        &self.row
    }
}

impl Workload for Gemm {
    fn name(&self) -> &str {
        "MxM"
    }

    monomorphic_workload!();

    /// Half precision packs strikes into wide binary16 lanes; the
    /// native-float replays already compile to vectorizable loops, so
    /// they replay strike by strike (which also preserves per-strike
    /// cancel granularity where batching buys nothing).
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
    fn half_batch_matches_naive_bit_for_bit_at_every_site() {
        // Every site region — A inputs, B inputs, FMA chains, masked —
        // through the wide-lane batch, against the naive injected run.
        let g = Gemm::new(7);
        let p = Precision::Half;
        let golden = g.run_golden(p);
        let sites = g.site_count(p);
        let strikes: Vec<(u64, ValueFault)> = (0..sites + 2)
            .map(|site| {
                let fault = match site % 4 {
                    0 => ValueFault::BitFlip((site % 16) as u32),
                    1 => ValueFault::StuckHigh((site % 16) as u32),
                    2 => ValueFault::XorMask(0x7C00), // exponent mangling: infs/NaNs
                    _ => ValueFault::ByteCorrupt {
                        byte: (site % 2) as u32,
                        xor: 0x81,
                    },
                };
                (site, fault)
            })
            .collect();
        let mut got: Vec<Option<Vec<f64>>> = vec![None; strikes.len()];
        g.run_strike_batch(p, &strikes, &golden, &mut |idx, out| {
            got[idx] = Some(out.to_vec());
            true
        });
        for (idx, &(site, fault)) in strikes.iter().enumerate() {
            let want = g.run_with_fault(p, site, fault);
            let got = got[idx].as_ref().expect("every strike reported");
            let same = got
                .iter()
                .zip(&want)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "site {site} fault {fault:?}");
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
