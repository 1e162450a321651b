//! The LUD (LU decomposition) kernel.

use crate::monomorphic_workload;
use crate::util::{gen_value, strike_each, to_u64, PrecisionCache};
use mpr_fault::hook::{FaultHook, HookExt, InjectHook, NullHook};
use mpr_fault::{ValueFault, Workload};
use mpr_softfloat::{FloatExt, Precision};

/// Per-precision replay state: exact input and golden-output bits plus
/// strided tail checkpoints.
///
/// The fast path never stores a full pre-step matrix per elimination
/// step (that grows as O(n³) bits). Instead it leans on the Doolittle
/// dependence structure: row `m` is final after step `m - 1` and only
/// then serves as a pivot row, so the golden *output* doubles as every
/// pivot row any replay will ever read. The only intermediate state a
/// strike needs is "rows below the fault row just before it pivots",
/// and a handful of strided checkpoints bound that reconstruction to a
/// short replay (DESIGN.md §4i).
struct LudCache {
    input_bits: Vec<u64>,
    golden_bits: Vec<u64>,
    /// Checkpoint stride in elimination steps: `max(1, n / 8)`.
    stride: usize,
    /// `(step, rows)` pairs: `rows` holds the bits of rows
    /// `step + 1 .. n` immediately **before** elimination step `step`,
    /// for `step = 0, stride, 2·stride, ...` — O(n²) words total.
    checkpoints: Vec<(usize, Vec<u64>)>,
}

/// Where a flat dynamic-site index lands in the Doolittle schedule.
enum StrikePlan {
    /// Past the last dynamic touch: the fault never fires.
    Masked,
    /// Input element `(row, col)`: the corrupt bits enter at load time.
    Input { row: usize, col: usize },
    /// A touch inside elimination `step`, in `row`'s block: `pos` 0 is
    /// the division factor, `pos` q ≥ 1 the update of column `step + q`.
    Elim { step: usize, row: usize, pos: usize },
}

/// LU decomposition of a diagonally dominant matrix (Doolittle, no
/// pivoting) — the paper's "highly CPU-bound" Rodinia code, tested on
/// the Xeon Phi only (Section 3.1).
///
/// The matrix is generated diagonally dominant so the factorization is
/// numerically stable at every precision; the output is the packed `L\U`
/// matrix. Fault sites: each input element, each elimination factor
/// (a division), and each Schur-complement update (an FMA).
///
/// # Example
///
/// ```rust
/// use mpr_fault::Workload;
/// use mpr_kernels::Lud;
/// use mpr_softfloat::Precision;
///
/// let lud = Lud::new(8);
/// assert_eq!(lud.run_golden(Precision::Double).len(), 64);
/// // The KNC kernels have no half-precision variant (paper Section 3.1).
/// assert!(!lud.supports(Precision::Half));
/// ```
#[derive(Debug, Clone)]
pub struct Lud {
    n: usize,
    seed: u64,
    cache: PrecisionCache<LudCache>,
}

impl Lud {
    /// Creates an `n x n` decomposition.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn new(n: usize) -> Lud {
        assert!(n >= 2, "decomposition needs at least a 2x2 matrix");
        Lud {
            n,
            seed: 0x10D,
            cache: PrecisionCache::new(),
        }
    }

    /// Overrides the deterministic input seed.
    pub fn with_seed(mut self, seed: u64) -> Lud {
        self.seed = seed;
        self.cache = PrecisionCache::new();
        self
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Input bits, golden bits, and strided checkpoints at `F`'s
    /// precision, computed once and reused across a campaign's strikes.
    fn cache<F: FloatExt>(&self) -> &LudCache {
        self.cache.get_or_init(F::PRECISION, || {
            let n = self.n;
            let mut input_bits = Vec::with_capacity(n * n);
            for i in 0..n {
                for j in 0..n {
                    let idx = to_u64(i * n + j);
                    // mpr-allow: precision-leak -- diagonal-dominance offset is f64 master-domain input synthesis, cast once below
                    let diag = if i == j { n as f64 } else { 0.0 };
                    // mpr-allow: fault-site -- f64 master-domain input synthesis; the run touches every input when loading the cached bits
                    input_bits.push(
                        F::from_f64(gen_value(self.seed, idx, 0.0, 1.0) + diag).to_bits_u64(),
                    );
                }
            }
            let mut a: Vec<F> = input_bits.iter().map(|&w| F::from_bits_u64(w)).collect();
            let stride = (n / 8).max(1);
            let mut checkpoints = Vec::new();
            for k in 0..n - 1 {
                if k % stride == 0 {
                    let rows: Vec<u64> = a[(k + 1) * n..].iter().map(|v| v.to_bits_u64()).collect();
                    checkpoints.push((k, rows));
                }
                Self::eliminate_step(&mut a, n, k, &mut NullHook);
            }
            let golden_bits = a.iter().map(|v| v.to_bits_u64()).collect();
            LudCache {
                input_bits,
                golden_bits,
                stride,
                checkpoints,
            }
        })
    }

    /// First dynamic site of elimination step `k`: `n^2` input sites,
    /// then step `m` contributes `(n-1-m)` factors each followed by
    /// `(n-1-m)` updates. Closed form — with `j = n - m` the per-step
    /// count is `j(j-1)`, so the prefix sum telescopes to
    /// `S(n) - S(n-k)` where `S(x) = x(x^2-1)/3` — because the replay
    /// planner runs this once per strike (an O(k) rescan here used to
    /// dominate short replays).
    fn step_base(n: u64, k: u64) -> u64 {
        let s = |x: u64| x * (x * x - 1) / 3;
        n * n + s(n) - s(n - k)
    }

    /// Resolves a flat site index to its place in the schedule.
    fn plan(n: u64, site: u64) -> StrikePlan {
        if site < n * n {
            StrikePlan::Input {
                row: (site / n) as usize,
                col: (site % n) as usize,
            }
        } else if site >= Self::step_base(n, n - 1) {
            StrikePlan::Masked
        } else {
            // Largest step whose first site is <= the strike site:
            // `step_base` is strictly increasing in `k`, so binary
            // search between step 0 (base `n^2 <= site`) and step
            // `n - 1` (base `> site`, checked above).
            let (mut lo, mut hi) = (0, n - 1);
            while lo + 1 < hi {
                let mid = lo + (hi - lo) / 2;
                if Self::step_base(n, mid) <= site {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            let k = lo;
            let within = site - Self::step_base(n, k);
            let block = n - k; // one factor + (n-1-k) updates per row
            StrikePlan::Elim {
                step: k as usize,
                row: (k + 1 + within / block) as usize,
                pos: (within % block) as usize,
            }
        }
    }

    /// One Doolittle elimination step over the whole matrix: every row
    /// below the pivot row `k`, top to bottom, through [`eliminate_row`].
    #[inline]
    fn eliminate_step<F: FloatExt, H: FaultHook + ?Sized>(
        a: &mut [F],
        n: usize,
        k: usize,
        hook: &mut H,
    ) {
        let (top, below) = a.split_at_mut((k + 1) * n);
        let pivot = &top[k * n..];
        for row in below.chunks_exact_mut(n) {
            eliminate_row(row, pivot, k, hook);
        }
    }

    fn eliminate_from<F: FloatExt, H: FaultHook + ?Sized>(
        a: &mut [F],
        n: usize,
        k0: usize,
        hook: &mut H,
    ) {
        for k in k0..n - 1 {
            Self::eliminate_step(a, n, k, hook);
        }
    }

    fn run<F: FloatExt, H: FaultHook + ?Sized>(&self, hook: &mut H) -> Vec<f64> {
        let n = self.n;
        let cache = self.cache::<F>();
        let mut a: Vec<F> = cache
            .input_bits
            .iter()
            .map(|&w| hook.touch(F::from_bits_u64(w)))
            .collect();
        Self::eliminate_from(&mut a, n, 0, hook);
        a.iter().map(|v| v.to_f64()).collect()
    }
}

/// Elimination step `k` on one row below the pivot row: the factor
/// `row[k] / pivot[k]` replaces `row[k]`, then every column `j > k`
/// takes the Schur update `row[j] - factor * pivot[j]` (one FMA), each
/// value touched in that order. The full run, the checkpoint builder and
/// every replay go through this one loop, so they all touch identical
/// values in identical order; under [`NullHook`] it is a plain slice
/// loop the compiler vectorizes.
#[inline]
fn eliminate_row<F: FloatExt, H: FaultHook + ?Sized>(
    row: &mut [F],
    pivot: &[F],
    k: usize,
    hook: &mut H,
) {
    let factor = hook.touch(row[k] / pivot[k]);
    row[k] = factor;
    // Indices over two equal-length slices: the bounds checks fold away,
    // so the `NullHook` loop vectorizes. A `zip` form vectorizes too but
    // measured about 1.7x slower under `InjectHook` (AVX-512 host).
    let pivot = &pivot[..row.len()];
    for j in k + 1..row.len() {
        row[j] = hook.touch((-factor).mul_add(pivot[j], row[j]));
    }
}

/// Scratch state for row-confined strike replay, reusable across every
/// strike in a batch (the golden decode and the tail reconstruction are
/// the amortizable parts; see DESIGN.md §4i).
///
/// The replay rests on the row-confinement property of Doolittle
/// elimination: a fault landing in row `i` stays confined to row `i`
/// until step `i`, because each step's updates read only the row itself
/// and the pivot row — and every pivot row `m < i` is untouched by the
/// fault and already equal to the golden *output* row `m` (row `m` is
/// final after step `m - 1`). So a strike replays as: track row `i`
/// alone against golden pivot rows (O(n) per step), rebuild rows below
/// `i` from the nearest strided checkpoint (a short replay of at most
/// `stride` steps) or by advancing the previous strike's tail, and only
/// then fall back to full trailing elimination from step `i`.
struct LudReplayer<'a, F: FloatExt> {
    n: usize,
    cache: &'a LudCache,
    /// Golden output decoded to `F` — every pivot row any replay reads.
    golden: Vec<F>,
    /// The tracked (faulted) row.
    row: Vec<F>,
    /// Workspace for the trailing elimination, persistent across
    /// strikes. Only rows `i ..` are (re)written per strike: the
    /// elimination from step `i` reads pivot rows `k >= i` and writes
    /// rows below them, so whatever a previous strike left in rows
    /// `0 .. i` is never read.
    mat: Vec<F>,
    /// Fault row the cached tail was reconstructed for (`usize::MAX`
    /// when empty): rows `tail_row + 1 .. n` just before step
    /// `tail_row`. Strikes sharing a fault row share the tail, and a
    /// later fault row in the same checkpoint span advances it.
    tail_row: usize,
    tail: Vec<F>,
    /// First row of the caller's `out` buffer that may hold computed
    /// (non-golden) values from an earlier strike, `usize::MAX` before
    /// the first strike. Rows `0 .. out_dirty_from` are exactly golden,
    /// so a strike at fault row `i` only restores rows
    /// `out_dirty_from .. i` instead of re-copying the whole output —
    /// and the batch path's sort by fault row keeps that span short.
    out_dirty_from: usize,
}

impl<'a, F: FloatExt> LudReplayer<'a, F> {
    fn new(n: usize, cache: &'a LudCache) -> LudReplayer<'a, F> {
        LudReplayer {
            n,
            cache,
            golden: cache
                .golden_bits
                .iter()
                .map(|&w| F::from_bits_u64(w))
                .collect(),
            row: vec![F::zero(); n],
            mat: vec![F::zero(); n * n],
            tail_row: usize::MAX,
            tail: Vec::new(),
            out_dirty_from: usize::MAX,
        }
    }

    /// The checkpoint with the largest step `<= k`.
    fn checkpoint_at_or_before(&self, k: usize) -> &'a (usize, Vec<u64>) {
        let idx = (k / self.cache.stride).min(self.cache.checkpoints.len() - 1);
        &self.cache.checkpoints[idx]
    }

    /// Forwards the tracked row (as row `i`) through elimination steps
    /// `from .. to`, reading pivot rows from the golden output.
    fn forward_row(&mut self, from: usize, to: usize) {
        let n = self.n;
        for m in from..to {
            eliminate_row(
                &mut self.row,
                &self.golden[m * n..(m + 1) * n],
                m,
                &mut NullHook,
            );
        }
    }

    /// Reconstructs rows `i + 1 .. n` as they stand just before step
    /// `i`, with a short clean replay against golden pivot rows. The
    /// replay starts from the cached tail of an earlier fault row in the
    /// same checkpoint span when there is one (batches arrive sorted by
    /// fault row, so there usually is), else from the nearest strided
    /// checkpoint. Cached — consecutive strikes with the same fault row
    /// reuse it.
    fn build_tail(&mut self, i: usize) {
        if self.tail_row == i {
            return;
        }
        let n = self.n;
        let (t0, rows) = self.checkpoint_at_or_before(i);
        let from = if (*t0..i).contains(&self.tail_row) {
            // Rows `tail_row + 1 ..= i` leave the tail; the rest already
            // stand before step `tail_row`.
            self.tail.drain(..(i - self.tail_row) * n);
            self.tail_row
        } else {
            let skip = (i - t0) * n; // checkpoint starts at row t0 + 1
            self.tail.clear();
            self.tail
                .extend(rows[skip..].iter().map(|&w| F::from_bits_u64(w)));
            *t0
        };
        for m in from..i {
            let pivot = &self.golden[m * n..(m + 1) * n];
            for row in self.tail.chunks_exact_mut(n) {
                eliminate_row(row, pivot, m, &mut NullHook);
            }
        }
        self.tail_row = i;
    }

    /// Finishes a strike whose tracked row `i` is faulted and forwarded
    /// to step `from`: confines it up to its pivot step, assembles the
    /// matrix, runs the trailing elimination, and writes `out`.
    fn finish(&mut self, i: usize, from: usize, out: &mut [f64]) {
        let n = self.n;
        self.forward_row(from, i);
        if i == n - 1 {
            // The last row never pivots: the damage is the row itself.
            for (j, v) in self.row.iter().enumerate() {
                out[i * n + j] = v.to_f64();
            }
            return;
        }
        self.build_tail(i);
        self.mat[i * n..(i + 1) * n].copy_from_slice(&self.row);
        self.mat[(i + 1) * n..].copy_from_slice(&self.tail);
        // Trailing elimination from step `i`, hook-free so the Schur
        // updates vectorize.
        Lud::eliminate_from(&mut self.mat, n, i, &mut NullHook);
        for (o, v) in out[i * n..].iter_mut().zip(&self.mat[i * n..]) {
            *o = v.to_f64();
        }
    }

    /// Runs one strike, byte-identical to the naive injected run.
    ///
    /// Successive calls must reuse the same `out` buffer: the replayer
    /// tracks which of its rows still hold golden values and restores
    /// only the span a strike actually dirtied.
    fn strike(&mut self, site: u64, fault: ValueFault, golden_f64: &[f64], out: &mut Vec<f64>) {
        let n = self.n;
        if self.out_dirty_from == usize::MAX || out.len() != golden_f64.len() {
            out.clear();
            out.extend_from_slice(golden_f64);
            self.out_dirty_from = n;
        }
        let plan = Lud::plan(to_u64(n), site);
        // Rows the strike will not overwrite must read golden: restore
        // the still-dirty prefix span left by the previous strike.
        let fault_row = match plan {
            StrikePlan::Masked => n,
            StrikePlan::Input { row, .. } | StrikePlan::Elim { row, .. } => row,
        };
        if self.out_dirty_from < fault_row {
            let lo = self.out_dirty_from * n;
            let hi = fault_row * n;
            out[lo..hi].copy_from_slice(&golden_f64[lo..hi]);
        }
        self.out_dirty_from = fault_row;
        match plan {
            StrikePlan::Masked => {}
            StrikePlan::Input { row: i, col: c } => {
                let width = F::PRECISION.total_bits();
                self.row.clear();
                self.row.extend(
                    self.cache.input_bits[i * n..(i + 1) * n]
                        .iter()
                        .map(|&w| F::from_bits_u64(w)),
                );
                self.row[c] =
                    F::from_bits_u64(fault.apply(self.cache.input_bits[i * n + c], width));
                self.finish(i, 0, out);
            }
            StrikePlan::Elim {
                step: k,
                row: i,
                pos,
            } => {
                let (t0, rows) = self.checkpoint_at_or_before(k);
                let off = (i - t0 - 1) * n;
                self.row.clear();
                self.row
                    .extend(rows[off..off + n].iter().map(|&w| F::from_bits_u64(w)));
                let t0 = *t0;
                self.forward_row(t0, k);
                // The faulted step: touch 0 is the factor, touch q >= 1
                // the update of column `k + q`.
                eliminate_row(
                    &mut self.row,
                    &self.golden[k * n..(k + 1) * n],
                    k,
                    &mut InjectHook::new(to_u64(pos), fault),
                );
                self.finish(i, k + 1, out);
            }
        }
    }
}

impl Workload for Lud {
    fn name(&self) -> &str {
        "LUD"
    }

    monomorphic_workload!();

    /// The paper implements LUD "using single and double precision" on
    /// the KNC only.
    fn supports(&self, precision: Precision) -> bool {
        precision != Precision::Half
    }

    /// Batched strikes: one golden decode per batch, strikes sorted by
    /// (fault row, site) so the tail reconstruction — the only per-strike
    /// state heavier than one row — is shared between strikes that hit
    /// the same row, and checkpoint reads stay cache-local.
    fn run_strike_batch(
        &self,
        precision: Precision,
        strikes: &[(u64, ValueFault)],
        golden: &[f64],
        each: &mut dyn FnMut(usize, &[f64]) -> bool,
    ) {
        fn go<F: FloatExt>(
            lud: &Lud,
            strikes: &[(u64, ValueFault)],
            golden: &[f64],
            each: &mut dyn FnMut(usize, &[f64]) -> bool,
        ) {
            let n = to_u64(lud.n);
            let mut order: Vec<usize> = (0..strikes.len()).collect();
            order.sort_by_cached_key(|&idx| {
                let site = strikes[idx].0;
                let row = match Lud::plan(n, site) {
                    StrikePlan::Masked => usize::MAX,
                    StrikePlan::Input { row, .. } | StrikePlan::Elim { row, .. } => row,
                };
                (row, site, idx)
            });
            let mut replayer = LudReplayer::<F>::new(lud.n, lud.cache::<F>());
            strike_each(strikes, order, each, |site, fault, out| {
                replayer.strike(site, fault, golden, out)
            });
        }
        match precision {
            Precision::Double => go::<f64>(self, strikes, golden, each),
            Precision::Single => go::<f32>(self, strikes, golden, each),
            Precision::Half => go::<mpr_softfloat::Half>(self, strikes, golden, each),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpr_fault::ValueFault;

    /// Multiplies the packed LU back together.
    fn reconstruct(lu: &[f64], n: usize) -> Vec<f64> {
        let l = |i: usize, j: usize| -> f64 {
            use std::cmp::Ordering;
            match i.cmp(&j) {
                Ordering::Greater => lu[i * n + j],
                Ordering::Equal => 1.0,
                Ordering::Less => 0.0,
            }
        };
        let u = |i: usize, j: usize| -> f64 {
            if i <= j {
                lu[i * n + j]
            } else {
                0.0
            }
        };
        let mut out = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                out[i * n + j] = (0..n).map(|k| l(i, k) * u(k, j)).sum();
            }
        }
        out
    }

    #[test]
    fn lu_reconstructs_the_input() {
        let n = 8;
        let lud = Lud::new(n);
        let lu = lud.run_golden(Precision::Double);
        let prod = reconstruct(&lu, n);
        for i in 0..n {
            for j in 0..n {
                let idx = (i * n + j) as u64;
                let mut want = gen_value(0x10D, idx, 0.0, 1.0);
                if i == j {
                    want += n as f64;
                }
                assert!(
                    (prod[i * n + j] - want).abs() < 1e-10,
                    "A[{i}][{j}]: {} vs {want}",
                    prod[i * n + j]
                );
            }
        }
    }

    #[test]
    fn site_counts_match_doolittle_arithmetic() {
        let n = 7u64;
        let lud = Lud::new(n as usize);
        // n^2 inputs + sum_k (n-k-1) factors + (n-k-1)^2 updates.
        let elim: u64 = (0..n - 1).map(|k| (n - 1 - k) + (n - 1 - k).pow(2)).sum();
        assert_eq!(lud.site_count(Precision::Double), n * n + elim);
    }

    #[test]
    fn single_close_to_double() {
        let lud = Lud::new(10);
        let d = lud.run_golden(Precision::Double);
        let s = lud.run_golden(Precision::Single);
        for (a, b) in d.iter().zip(&s) {
            assert!((a - b).abs() < 1e-4 * a.abs().max(1.0));
        }
    }

    #[test]
    fn pivot_fault_spreads_downstream() {
        let n = 8;
        let lud = Lud::new(n);
        let golden = lud.run_golden(Precision::Double);
        // Corrupt the very first input element (the first pivot).
        let faulty = lud.run_with_fault(Precision::Double, 0, ValueFault::BitFlip(61));
        let changed = (0..n * n).filter(|&i| faulty[i] != golden[i]).count();
        // The first pivot feeds every elimination step: most of the
        // matrix is corrupted.
        assert!(changed > n * n / 2, "only {changed} entries changed");
    }

    /// Runs `strikes` as one batch and checks every result against the
    /// naive injected run, bit for bit.
    fn assert_batch_matches_naive(lud: &Lud, p: Precision, strikes: &[(u64, ValueFault)]) {
        let golden = lud.run_golden(p);
        let mut got: Vec<Option<Vec<f64>>> = vec![None; strikes.len()];
        lud.run_strike_batch(p, strikes, &golden, &mut |idx, out| {
            assert!(got[idx].is_none(), "strike {idx} reported twice");
            got[idx] = Some(out.to_vec());
            true
        });
        for (idx, &(site, fault)) in strikes.iter().enumerate() {
            let want = lud.run_with_fault(p, site, fault);
            let got = got[idx].as_ref().expect("callback ran for every strike");
            assert_eq!(got.len(), want.len());
            let same = got
                .iter()
                .zip(&want)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(
                same,
                "strike {idx} site {site} fault {fault:?} precision {p:?}"
            );
        }
    }

    #[test]
    fn batch_matches_naive_bit_for_bit_at_every_site() {
        // Every dynamic site — inputs, factors, updates, and the
        // masked region past the end — in one batch. At n = 9 the
        // checkpoint stride is 1; at n = 24 it is 3, so tails are
        // replayed from a checkpoint and advanced from an earlier row.
        for n in [9, 24] {
            let lud = Lud::new(n);
            for p in [Precision::Double, Precision::Single] {
                let sites = lud.site_count(p);
                let strikes: Vec<(u64, ValueFault)> = (0..sites + 3)
                    .map(|site| {
                        let fault = match site % 3 {
                            0 => ValueFault::BitFlip((site % 31) as u32),
                            1 if site % 2 == 0 => ValueFault::StuckHigh((site % 23) as u32),
                            1 => ValueFault::StuckLow((site % 23) as u32),
                            _ => ValueFault::XorMask(0x8000_0401 ^ site),
                        };
                        (site, fault)
                    })
                    .collect();
                assert_batch_matches_naive(&lud, p, &strikes);
            }
        }
    }

    #[test]
    fn tail_advances_across_checkpoint_boundaries() {
        // n = 24 keeps checkpoints before steps 0, 3, 6, ..., 21. Fault
        // rows ascend with gaps of one and two, so some tails advance
        // within a span, some restart from the next checkpoint, and a
        // row struck twice reuses its tail.
        let n = 24;
        let lud = Lud::new(n);
        assert_eq!(lud.cache::<f64>().stride, 3);
        let elim = |k: usize, row: usize, pos: usize| {
            Lud::step_base(to_u64(n), to_u64(k)) + to_u64((row - k - 1) * (n - k) + pos)
        };
        let mut strikes = Vec::new();
        for row in [1, 2, 4, 5, 6, 8, 9, 11, 14, 15, 17, 20, 21, 22] {
            strikes.push((elim(row - 1, row, 0), ValueFault::BitFlip(52)));
            strikes.push((elim(row / 2, row, 1), ValueFault::XorMask(0x40_0000)));
            strikes.push((to_u64(row * n + row % 7), ValueFault::BitFlip(20)));
        }
        for p in [Precision::Double, Precision::Single] {
            assert_batch_matches_naive(&lud, p, &strikes);
        }
    }

    #[test]
    fn scattered_batch_matches_naive() {
        let lud = Lud::new(12);
        let p = Precision::Single;
        let sites = lud.site_count(p);
        // A scattered batch: inputs, early/late steps, repeats, masked.
        let strikes: Vec<(u64, ValueFault)> = (0..40)
            .map(|s| {
                (
                    (s * 31 + 7) % (sites + 2),
                    ValueFault::BitFlip(((s * 13) % 52) as u32),
                )
            })
            .collect();
        assert_batch_matches_naive(&lud, p, &strikes);
    }

    #[test]
    fn checkpoint_memory_is_quadratic_not_cubic() {
        let n = 32;
        let lud = Lud::new(n);
        let _ = lud.run_golden(Precision::Double);
        let cache = lud.cache::<f64>();
        let words: usize = cache.checkpoints.iter().map(|(_, rows)| rows.len()).sum();
        // Strided tails: well under the n^3-ish footprint of a full
        // per-step snapshot scheme ((n-1) * n^2 = 31744 words here).
        assert!(words <= 8 * n * n, "checkpoints hold {words} words");
        assert!(!cache.checkpoints.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least a 2x2")]
    fn tiny_matrix_rejected() {
        let _ = Lud::new(1);
    }
}
