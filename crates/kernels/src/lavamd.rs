//! The LavaMD particle-potential kernel.

use crate::monomorphic_workload;
use crate::util::{gen_value, index_range, strike_each, to_u64, PrecisionCache};
use mpr_fault::hook::{FaultHook, HookExt, InjectHook, NullHook};
use mpr_fault::{ValueFault, Workload};
use mpr_softfloat::math::exp_terms;
use mpr_softfloat::{FloatExt, Precision};

/// Per-precision replay state: the exact input bits (interleaved
/// `px, py, pz, q` per particle, matching dynamic-site order) plus each
/// particle's first interaction-region site.
struct LavaCache {
    input_bits: Vec<u64>,
    /// `base[pi]` is the first dynamic site of particle `pi`'s
    /// interaction region; `base[particle_count]` is the total site
    /// count.
    base: Vec<u64>,
}

/// LavaMD: particle potentials in a 3D grid of boxes under a cutoff
/// exponential interaction (Rodinia), "representative of multi-physics
/// particle dynamics codes" (paper Section 3.1).
///
/// For every particle the kernel accumulates, over all particles of the
/// neighboring boxes, `q_j * exp(-a2 * r^2)`. The exponential is
/// evaluated **in precision** with an explicitly hooked Horner polynomial
/// ([`LavaMd::exp_hooked`]): the double-precision evaluation runs a
/// 14-term recurrence whose high-order terms are ~1e-17, so an exponent-
/// bit flip on one of those tiny intermediates inflates it by up to
/// 2^±1024 and wrecks the output — whereas the 5-term half-precision
/// recurrence can amplify a term by at most 2^16. This size-dependent
/// amplification is the paper's "transcendental stress" that makes
/// double-precision LavaMD *worse* than single under TRE on the Xeon Phi
/// (Section 5.3).
#[derive(Debug, Clone)]
pub struct LavaMd {
    boxes_per_dim: usize,
    particles_per_box: usize,
    seed: u64,
    transcendental_unit: bool,
    cache: PrecisionCache<LavaCache>,
}

impl LavaMd {
    /// Creates a grid of `boxes_per_dim`^3 boxes with
    /// `particles_per_box` particles each.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(boxes_per_dim: usize, particles_per_box: usize) -> LavaMd {
        assert!(boxes_per_dim > 0, "need at least one box");
        assert!(particles_per_box > 0, "need at least one particle per box");
        LavaMd {
            boxes_per_dim,
            particles_per_box,
            seed: 0x1ABA,
            transcendental_unit: false,
            cache: PrecisionCache::new(),
        }
    }

    /// Overrides the deterministic input seed.
    pub fn with_seed(mut self, seed: u64) -> LavaMd {
        self.seed = seed;
        self.cache = PrecisionCache::new();
        self
    }

    /// The Xeon Phi variant: the exponential executes in the VPU's
    /// *dedicated transcendental unit* (paper Section 6.3) instead of a
    /// software polynomial. The unit's internal polynomial state is not
    /// addressable as program values; what the beam sees is its narrow
    /// fixed-point **table-select stage**, exercised for more cycles by
    /// the extended-precision double evaluation (Harrison et al. report
    /// roughly 3x the latency of single). A fault there shifts the table
    /// entry — a large output error regardless of which bit flipped —
    /// which is what makes double-precision LavaMD criticality *worse*
    /// than single on the KNC (paper Section 5.3, Figure 8).
    pub fn for_knc(mut self) -> LavaMd {
        self.transcendental_unit = true;
        self.cache = PrecisionCache::new();
        self
    }

    /// Cycles the transcendental unit's table-select stage is occupied
    /// per `exp`, by precision.
    fn unit_cycles(precision: Precision) -> usize {
        match precision {
            Precision::Double => 24,
            Precision::Single => 8,
            Precision::Half => 6,
        }
    }

    /// Evaluates `exp(u2)` through the dedicated-unit model: the result
    /// is computed exactly (the unit's internal polynomial is opaque to
    /// software), but its 4-bit table-select field passes through the
    /// fault hook once per occupied cycle. A corrupted nibble displaces
    /// the value by `2^(b-4)` — always a significant fraction of the
    /// result.
    fn exp_unit<F: FloatExt, H: FaultHook + ?Sized>(u2: F, hook: &mut H) -> F {
        let exact = u2.exp().to_f64();
        // Fixed-point staging of the top bits: exp output is in (0, 1]
        // for LavaMD's non-positive arguments.
        // mpr-allow: precision-leak -- fixed-point staging models the opaque hardware unit's datapath, which software cannot retarget by precision
        let staged0 = (exact * 16.0).round().clamp(0.0, 15.0) as u64;
        // mpr-allow: precision-leak -- fixed-point staging models the opaque hardware unit's datapath, which software cannot retarget by precision
        let residue = exact - staged0 as f64 / 16.0;
        let mut staged = staged0;
        for _ in 0..Self::unit_cycles(F::PRECISION) {
            staged = hook.touch_bits(staged, 4);
        }
        // Recombine the (possibly displaced) table entry with the fine
        // polynomial part; fault free this is exactly `exact`.
        F::from_f64(staged as f64 / 16.0 + residue)
    }

    /// Total number of particles.
    pub fn particle_count(&self) -> usize {
        self.boxes_per_dim.pow(3) * self.particles_per_box
    }

    /// In-precision `exp(x)` with every intermediate exposed to the
    /// fault hook. With a pass-through hook this matches
    /// [`mpr_softfloat::math::exp_poly`] except that argument reduction
    /// is skipped: LavaMD arguments are cutoff to `[-2, 0]`, inside the
    /// polynomial's convergence range, like real MD inner loops that
    /// inline the reduced kernel.
    pub fn exp_hooked<F: FloatExt, H: FaultHook + ?Sized>(x: F, hook: &mut H) -> F {
        let terms = exp_terms(F::PRECISION);
        let mut acc = F::zero();
        for k in (1..=terms).rev() {
            let coeff = F::from_f64(1.0 / factorial(k as u32));
            acc = hook.touch(acc.mul_add(x, coeff));
        }
        hook.touch(acc.mul_add(x, F::one()))
    }

    /// Input bits and per-particle region bases at `F`'s precision,
    /// computed once and reused across a campaign's strike batch.
    fn cache<F: FloatExt>(&self) -> &LavaCache {
        self.cache.get_or_init(F::PRECISION, || {
            let nb = self.boxes_per_dim;
            let par = self.particles_per_box;
            let total = self.particle_count();
            let mut input_bits = Vec::with_capacity(4 * total);
            for i in index_range(total) {
                // mpr-allow: precision-leak -- component ranges are f64 master-domain input synthesis; each value crosses into `F` through from_f64 below
                for (c, (lo, hi)) in [(0.0, 1.0), (0.0, 1.0), (0.0, 1.0), (0.25, 1.0)]
                    .into_iter()
                    .enumerate()
                {
                    let v = gen_value(self.seed, 4 * i + to_u64(c), lo, hi);
                    input_bits.push(F::from_f64(v).to_bits_u64());
                }
            }
            // Touches per interaction: r2 + u2 + the exp evaluation + the
            // accumulating FMA.
            let exp_touches = if self.transcendental_unit {
                Self::unit_cycles(F::PRECISION)
            } else {
                exp_terms(F::PRECISION) + 1
            };
            let per_interaction = to_u64(3 + exp_touches);
            let mut base = Vec::with_capacity(total + 1);
            let mut acc = 4 * to_u64(total);
            for pi in 0..total {
                base.push(acc);
                let hb = pi / par;
                let (hx, hy, hz) = (hb % nb, (hb / nb) % nb, hb / (nb * nb));
                let nbrs = neighbor_range(hx, nb).count()
                    * neighbor_range(hy, nb).count()
                    * neighbor_range(hz, nb).count();
                // mpr-allow: fault-site -- u64 site-count bookkeeping, not in-precision arithmetic
                acc += to_u64(nbrs * par - 1) * per_interaction;
            }
            base.push(acc);
            LavaCache { input_bits, base }
        })
    }

    /// One particle's potential — shared by the full run and the replay
    /// so both touch identical values in identical order.
    fn potential<F: FloatExt, H: FaultHook + ?Sized>(
        &self,
        pi: usize,
        px: &[F],
        py: &[F],
        pz: &[F],
        q: &[F],
        hook: &mut H,
    ) -> F {
        let nb = self.boxes_per_dim;
        let par = self.particles_per_box;
        let hb = pi / par;
        let (hx, hy, hz) = (hb % nb, (hb / nb) % nb, hb / (nb * nb));
        // Cutoff constant chosen so u2 stays in [-0.75, 0], inside the
        // unreduced polynomial's accurate range at every precision.
        let a2 = F::from_f64(0.25);
        let mut v = F::zero();
        // Neighbor boxes, clamped at the grid edge (Rodinia visits the
        // 27-neighborhood; duplicates from clamping are skipped).
        for nbx in neighbor_range(hx, nb) {
            for nby in neighbor_range(hy, nb) {
                for nbz in neighbor_range(hz, nb) {
                    let nbox = nbz * nb * nb + nby * nb + nbx;
                    for j in 0..par {
                        let pj = nbox * par + j;
                        if pj == pi {
                            continue;
                        }
                        let dx = px[pi] - px[pj];
                        let dy = py[pi] - py[pj];
                        let dz = pz[pi] - pz[pj];
                        // r^2 via two FMAs and one MUL: the
                        // MUL-dominated inner loop of the paper.
                        let r2 = hook.touch(dx.mul_add(dx, dy.mul_add(dy, dz * dz)));
                        let u2 = hook.touch(-(a2 * r2));
                        let e = if self.transcendental_unit {
                            Self::exp_unit(u2, hook)
                        } else {
                            Self::exp_hooked(u2, hook)
                        };
                        v = hook.touch(q[pj].mul_add(e, v));
                    }
                }
            }
        }
        v
    }

    /// Materializes the particle state vectors from the cached bits,
    /// without advancing any hook.
    fn load_particles<F: FloatExt>(&self, bits: &[u64]) -> (Vec<F>, Vec<F>, Vec<F>, Vec<F>) {
        let total = self.particle_count();
        let mut px = Vec::with_capacity(total);
        let mut py = Vec::with_capacity(total);
        let mut pz = Vec::with_capacity(total);
        let mut q = Vec::with_capacity(total);
        for i in 0..total {
            px.push(F::from_bits_u64(bits[4 * i]));
            py.push(F::from_bits_u64(bits[4 * i + 1]));
            pz.push(F::from_bits_u64(bits[4 * i + 2]));
            q.push(F::from_bits_u64(bits[4 * i + 3]));
        }
        (px, py, pz, q)
    }

    fn run<F: FloatExt, H: FaultHook + ?Sized>(&self, hook: &mut H) -> Vec<f64> {
        let total = self.particle_count();
        let cache = self.cache::<F>();

        // Particle state: position within the unit box plus charge.
        let mut px = Vec::with_capacity(total);
        let mut py = Vec::with_capacity(total);
        let mut pz = Vec::with_capacity(total);
        let mut q = Vec::with_capacity(total);
        for i in 0..total {
            px.push(hook.touch(F::from_bits_u64(cache.input_bits[4 * i])));
            py.push(hook.touch(F::from_bits_u64(cache.input_bits[4 * i + 1])));
            pz.push(hook.touch(F::from_bits_u64(cache.input_bits[4 * i + 2])));
            q.push(hook.touch(F::from_bits_u64(cache.input_bits[4 * i + 3])));
        }

        let mut out = Vec::with_capacity(total);
        for pi in 0..total {
            out.push(self.potential(pi, &px, &py, &pz, &q, hook).to_f64());
        }
        out
    }

    /// Golden-prefix replay: an input strike on particle `p` dirties
    /// only the potentials of particles whose neighborhood contains
    /// `p`'s box (the clamped ranges are symmetric, so that is exactly
    /// the boxes Chebyshev-adjacent to `p`'s); an interaction-region
    /// strike dirties a single particle's potential, replayed with a
    /// local inject hook.
    fn replay<F: FloatExt>(
        &self,
        site: u64,
        fault: ValueFault,
        golden: &[f64],
        out: &mut Vec<f64>,
    ) {
        out.clear();
        out.extend_from_slice(golden);
        let cache = self.cache::<F>();
        let total = self.particle_count();
        // mpr-allow: panic-hygiene -- the cache builder unconditionally pushes the terminal base entry
        if site >= *cache.base.last().expect("base is never empty") {
            return; // past the last dynamic site: the fault never fires
        }
        let (mut px, mut py, mut pz, mut q) = self.load_particles::<F>(&cache.input_bits);
        if site < 4 * to_u64(total) {
            let idx = site as usize;
            let (pp, component) = (idx / 4, idx % 4);
            let width = F::PRECISION.total_bits();
            let faulted = F::from_bits_u64(fault.apply(cache.input_bits[idx], width));
            match component {
                0 => px[pp] = faulted,
                1 => py[pp] = faulted,
                2 => pz[pp] = faulted,
                _ => q[pp] = faulted,
            }
            let nb = self.boxes_per_dim;
            let par = self.particles_per_box;
            let pb = pp / par;
            let (bx, by, bz) = (pb % nb, (pb / nb) % nb, pb / (nb * nb));
            for nbx in neighbor_range(bx, nb) {
                for nby in neighbor_range(by, nb) {
                    for nbz in neighbor_range(bz, nb) {
                        let bbox = nbz * nb * nb + nby * nb + nbx;
                        for j in 0..par {
                            let pi = bbox * par + j;
                            out[pi] = self
                                .potential(pi, &px, &py, &pz, &q, &mut NullHook)
                                .to_f64();
                        }
                    }
                }
            }
        } else {
            let pi = cache.base.partition_point(|&b| b <= site) - 1;
            let mut hook = InjectHook::new(site - cache.base[pi], fault);
            out[pi] = self.potential(pi, &px, &py, &pz, &q, &mut hook).to_f64();
        }
    }
}

fn factorial(k: u32) -> f64 {
    (1..=k).map(f64::from).product()
}

fn neighbor_range(c: usize, nb: usize) -> std::ops::RangeInclusive<usize> {
    c.saturating_sub(1)..=(c + 1).min(nb - 1)
}

impl Workload for LavaMd {
    fn name(&self) -> &str {
        "LavaMD"
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
    use mpr_fault::hook::GoldenHook;

    #[test]
    fn exp_hooked_matches_exp_poly_without_faults() {
        for i in 0..=20 {
            let x = -2.0 + i as f64 * 0.1; // LavaMD argument range
            let mut hook = GoldenHook::new();
            let via_hook = LavaMd::exp_hooked(x, &mut hook).to_f64();
            // exp_poly with |x| <= ln2/2 skips reduction too; compare to
            // libm within polynomial truncation error.
            assert!(
                (via_hook - x.exp()).abs() / x.exp() < 1e-4,
                "x={x} got={via_hook}"
            );
            assert!(hook.sites() > 0);
        }
    }

    #[test]
    fn exp_sites_grow_with_precision() {
        // The double polynomial is deeper: more fault sites per call —
        // the mechanism behind the KNC LavaMD criticality inversion.
        let count = |p: Precision| {
            let lava = LavaMd::new(1, 2);
            lava.site_count(p)
        };
        assert!(count(Precision::Double) > count(Precision::Single));
        assert!(count(Precision::Single) > count(Precision::Half));
    }

    #[test]
    fn potentials_are_positive_and_bounded() {
        let lava = LavaMd::new(2, 4);
        let out = lava.run_golden(Precision::Double);
        assert_eq!(out.len(), 32);
        // Each interaction contributes q*exp(-u) in (0, 1]; with 31
        // possible partners the potential is bounded by ~31.
        assert!(out.iter().all(|&v| v > 0.0 && v < 32.0));
    }

    #[test]
    fn half_precision_tracks_double_loosely() {
        let lava = LavaMd::new(2, 3);
        let d = lava.run_golden(Precision::Double);
        let h = lava.run_golden(Precision::Half);
        for (a, b) in d.iter().zip(&h) {
            assert!(((a - b) / a).abs() < 0.05, "{a} vs {b}");
        }
    }

    #[test]
    fn edge_boxes_have_fewer_neighbors() {
        assert_eq!(neighbor_range(0, 4), 0..=1);
        assert_eq!(neighbor_range(1, 4), 0..=2);
        assert_eq!(neighbor_range(3, 4), 2..=3);
        assert_eq!(neighbor_range(0, 1), 0..=0);
    }

    #[test]
    fn deterministic_across_runs() {
        let lava = LavaMd::new(2, 3);
        assert_eq!(
            lava.run_golden(Precision::Single),
            lava.run_golden(Precision::Single)
        );
    }
}
