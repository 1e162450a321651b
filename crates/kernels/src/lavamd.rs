//! The LavaMD particle-potential kernel.

use crate::util::{index_range, strike_each, to_u64, PrecisionCache};
use mpr_fault::hook::{FaultHook, HookExt, InjectHook, NullHook};
use mpr_fault::{dispatch_precision, gen_value, monomorphic_workload, ValueFault, Workload};
use mpr_softfloat::math::{exp_horner, exp_terms};
use mpr_softfloat::{FloatExt, Precision};

/// One particle as the kernel reads it: position `x, y, z`, then charge
/// `q` — also the order the run loads (and touches) the four inputs.
type Particle<F> = [F; 4];

/// One golden interaction, as a replay suffix needs it: the partner's
/// charge `q`, the interaction's `exp` value `e`, and the running
/// potential `v` after its accumulating FMA (bits at the cache's
/// precision).
#[derive(Clone, Copy)]
struct Term {
    q: u64,
    e: u64,
    v: u64,
}

/// Per-precision golden interaction state for [`LavaMd::replay`].
struct GoldenTerms {
    /// Every interaction, particle-major in partner-walk order.
    terms: Vec<Term>,
    /// `first[pi]` indexes particle `pi`'s first interaction in `terms`;
    /// `first[particle_count]` is `terms.len()`.
    first: Vec<usize>,
    /// Hook touches per interaction: `r²`, `u²`, the `exp` evaluation
    /// and the accumulating FMA.
    per_interaction: u64,
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
    /// Per precision: the input bits, interleaved `x, y, z, q` per
    /// particle (dynamic-site order).
    inputs: PrecisionCache<Vec<u64>>,
    /// Per precision: the golden interaction terms.
    golden: PrecisionCache<GoldenTerms>,
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
            inputs: PrecisionCache::new(),
            golden: PrecisionCache::new(),
        }
    }

    /// Overrides the deterministic input seed.
    pub fn with_seed(mut self, seed: u64) -> LavaMd {
        self.seed = seed;
        self.inputs = PrecisionCache::new();
        self.golden = PrecisionCache::new();
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
        self.golden = PrecisionCache::new();
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
        exp_horner(x, |v| hook.touch(v))
    }

    /// Input bits at `F`'s precision, generated once and reused by every
    /// run and strike.
    fn inputs<F: FloatExt>(&self) -> &[u64] {
        self.inputs.get_or_init(F::PRECISION, || {
            let mut bits = Vec::with_capacity(4 * self.particle_count());
            for i in index_range(self.particle_count()) {
                // mpr-allow: precision-leak -- component ranges are f64 master-domain input synthesis; each value crosses into `F` through from_f64 below
                for (c, (lo, hi)) in [(0.0, 1.0), (0.0, 1.0), (0.0, 1.0), (0.25, 1.0)]
                    .into_iter()
                    .enumerate()
                {
                    let v = gen_value(self.seed, 4 * i + to_u64(c), lo, hi);
                    bits.push(F::from_f64(v).to_bits_u64());
                }
            }
            bits
        })
    }

    /// Every interaction's golden `(q, e, v)` at `F`'s precision,
    /// recorded by one hook-free pass of the same partner walk the run
    /// executes.
    fn golden_terms<F: FloatExt>(&self) -> &GoldenTerms {
        self.golden.get_or_init(F::PRECISION, || {
            let inputs = self.inputs::<F>();
            let total = self.particle_count();
            let mut terms = Vec::new();
            let mut first = Vec::with_capacity(total + 1);
            for pi in 0..total {
                first.push(terms.len());
                let record = |q: F, e: F, v: F| {
                    terms.push(Term {
                        q: q.to_bits_u64(),
                        e: e.to_bits_u64(),
                        v: v.to_bits_u64(),
                    });
                };
                self.potential(pi, |j| particle(inputs, j), &mut NullHook, record);
            }
            first.push(terms.len());
            let exp_touches = if self.transcendental_unit {
                Self::unit_cycles(F::PRECISION)
            } else {
                exp_terms(F::PRECISION) + 1
            };
            GoldenTerms {
                terms,
                first,
                per_interaction: to_u64(3 + exp_touches),
            }
        })
    }

    /// The partner walk of particle `pi`: every particle of the
    /// neighboring boxes except `pi` itself, in the kernel's order.
    /// Rodinia visits the 27-neighborhood; boxes at the grid edge clamp
    /// it, and the clamped ranges are symmetric — `pj` is a partner of
    /// `pi` iff `pi` is a partner of `pj`.
    fn partners(&self, pi: usize) -> impl Iterator<Item = usize> {
        let nb = self.boxes_per_dim;
        let par = self.particles_per_box;
        let hb = pi / par;
        let (hx, hy, hz) = (hb % nb, (hb / nb) % nb, hb / (nb * nb));
        neighbor_range(hx, nb)
            .flat_map(move |nbx| neighbor_range(hy, nb).map(move |nby| (nbx, nby)))
            .flat_map(move |(nbx, nby)| {
                neighbor_range(hz, nb).flat_map(move |nbz| {
                    let nbox = nbz * nb * nb + nby * nb + nbx;
                    nbox * par..(nbox + 1) * par
                })
            })
            .filter(move |&pj| pj != pi)
    }

    /// One interaction of particle `i` with partner `j`, every
    /// intermediate hooked: `r²`, `u² = −a²·r²`, the `exp(u²)`
    /// evaluation, then the accumulating FMA `v' = q_j·e + v`. Returns
    /// `(e, v')`. The one interaction body of the full run, the golden
    /// cache builder and every replay.
    #[inline(always)]
    fn interact<F: FloatExt, H: FaultHook + ?Sized>(
        &self,
        i: Particle<F>,
        j: Particle<F>,
        v: F,
        hook: &mut H,
    ) -> (F, F) {
        // Cutoff constant chosen so u2 stays in [-0.75, 0], inside the
        // unreduced polynomial's accurate range at every precision.
        let a2 = F::from_f64(0.25);
        let dx = i[0] - j[0];
        let dy = i[1] - j[1];
        let dz = i[2] - j[2];
        // r^2 via two FMAs and one MUL: the MUL-dominated inner loop of
        // the paper.
        let r2 = hook.touch(dx.mul_add(dx, dy.mul_add(dy, dz * dz)));
        let u2 = hook.touch(-(a2 * r2));
        let e = if self.transcendental_unit {
            Self::exp_unit(u2, hook)
        } else {
            Self::exp_hooked(u2, hook)
        };
        (e, hook.touch(j[3].mul_add(e, v)))
    }

    /// Particle `pi`'s potential: [`Self::interact`] over the partner
    /// walk, reading particle state through `particle` and reporting
    /// each interaction's `(q_j, e, v)` to `each`.
    fn potential<F: FloatExt, H: FaultHook + ?Sized>(
        &self,
        pi: usize,
        particle: impl Fn(usize) -> Particle<F>,
        hook: &mut H,
        mut each: impl FnMut(F, F, F),
    ) -> F {
        let me = particle(pi);
        let mut v = F::zero();
        for pj in self.partners(pi) {
            let other = particle(pj);
            let e;
            (e, v) = self.interact(me, other, v, hook);
            each(other[3], e, v);
        }
        v
    }

    fn run<F: FloatExt, H: FaultHook + ?Sized>(&self, hook: &mut H) -> Vec<f64> {
        let particles: Vec<Particle<F>> = self
            .inputs::<F>()
            .chunks_exact(4)
            .map(|c| {
                let mut load = |bits: u64| hook.touch(F::from_bits_u64(bits));
                [load(c[0]), load(c[1]), load(c[2]), load(c[3])]
            })
            .collect();
        (0..particles.len())
            .map(|pi| {
                self.potential(pi, |j| particles[j], hook, |_, _, _| {})
                    .to_f64()
            })
            .collect()
    }

    /// Golden-prefix replay of one strike, resuming at the struck
    /// interaction. Each interaction's `e` depends only on the two
    /// particles' positions, so after the struck op a particle's
    /// potential differs from the golden run only through its carried
    /// `v`: the rest of its walk is a hook-free suffix of plain FMAs
    /// `v = q_j·e_j + v` over the cached golden terms, and the golden
    /// output stands as soon as `v` equals the golden running potential
    /// at the same point (the fault was masked).
    ///
    /// * An interaction strike recomputes the struck interaction under
    ///   an `InjectHook` rebased to it, from the golden partial sum.
    /// * An input strike on particle `p` recomputes `p`'s own potential
    ///   in full. By the walk's symmetry every other dirty particle is
    ///   a partner of `p`, and it changes in exactly one interaction,
    ///   `(pi, p)`, which it recomputes before the same suffix.
    fn replay<F: FloatExt>(
        &self,
        site: u64,
        fault: ValueFault,
        golden: &[f64],
        out: &mut Vec<f64>,
    ) {
        out.clear();
        out.extend_from_slice(golden);
        let inputs = self.inputs::<F>();
        let g = self.golden_terms::<F>();
        let input_sites = to_u64(inputs.len());
        if site < input_sites {
            let idx = site as usize;
            let p = idx / 4;
            let mut faulty = particle::<F>(inputs, p);
            let width = F::PRECISION.total_bits();
            faulty[idx % 4] = F::from_bits_u64(fault.apply(inputs[idx], width));
            let read = |j| if j == p { faulty } else { particle(inputs, j) };
            out[p] = self
                .potential(p, read, &mut NullHook, |_, _, _| {})
                .to_f64();
            for pi in self.partners(p) {
                // The walk is symmetric, so `p` is one of `pi`'s partners.
                let k = g.first[pi] + self.partners(pi).take_while(|&j| j != p).count();
                let (_, v) = self.interact(
                    particle::<F>(inputs, pi),
                    faulty,
                    g.before(pi, k),
                    &mut NullHook,
                );
                g.finish(pi, k, v, out);
            }
        } else {
            let offset = site - input_sites;
            let k = (offset / g.per_interaction) as usize;
            if k >= g.terms.len() {
                return; // past the last dynamic site: the fault never fires
            }
            let pi = g.first.partition_point(|&f| f <= k) - 1;
            #[expect(
                clippy::expect_used,
                reason = "`first` was built from the same walk, so interaction `k` has a partner"
            )]
            let pj = self
                .partners(pi)
                .nth(k - g.first[pi])
                .expect("interaction within the walk");
            let mut hook = InjectHook::new(offset % g.per_interaction, fault);
            let (_, v) = self.interact(
                particle::<F>(inputs, pi),
                particle(inputs, pj),
                g.before(pi, k),
                &mut hook,
            );
            g.finish(pi, k, v, out);
        }
    }
}

impl GoldenTerms {
    /// Particle `pi`'s golden running potential before its interaction
    /// `k`.
    fn before<F: FloatExt>(&self, pi: usize, k: usize) -> F {
        if k == self.first[pi] {
            F::zero()
        } else {
            F::from_bits_u64(self.terms[k - 1].v)
        }
    }

    /// Completes particle `pi`'s potential from `v`, its faulty running
    /// value after interaction `k`: the hook-free suffix over the golden
    /// terms, writing `out[pi]` unless `v` rejoins the golden value.
    fn finish<F: FloatExt>(&self, pi: usize, k: usize, mut v: F, out: &mut [f64]) {
        let suffix = &self.terms[k..self.first[pi + 1]];
        for (n, t) in suffix.iter().enumerate() {
            if n > 0 {
                // mpr-allow: fault-site -- hook-free suffix: the full run counted these sites, and after the struck one only the carried `v` differs from golden
                v = F::from_bits_u64(t.q).mul_add(F::from_bits_u64(t.e), v);
            }
            if v.to_bits_u64() == t.v {
                return; // rejoined the golden path: out[pi] stays golden
            }
        }
        out[pi] = v.to_f64();
    }
}

/// Particle `j`'s state from the cached input bits.
fn particle<F: FloatExt>(inputs: &[u64], j: usize) -> Particle<F> {
    std::array::from_fn(|c| F::from_bits_u64(inputs[4 * j + c]))
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
    fn replay_matches_naive_at_input_and_interaction_sites() {
        // A 3x3x3 grid: the center box has the full 27-box neighborhood,
        // edge and corner boxes clamp it.
        for lava in [LavaMd::new(3, 1), LavaMd::new(3, 1).for_knc()] {
            for p in Precision::ALL.into_iter().filter(|&p| lava.supports(p)) {
                let width = p.total_bits();
                let inputs = to_u64(4 * lava.particle_count());
                let sites = lava.site_count(p);
                let mut strikes = Vec::new();
                for fault in [ValueFault::BitFlip(0), ValueFault::BitFlip(width - 3)] {
                    let interaction = (inputs..sites + 2).step_by(7);
                    strikes.extend((0..inputs).chain(interaction).map(|site| (site, fault)));
                }
                let masked = crate::util::assert_batch_matches_naive(&lava, p, &strikes);
                assert!(masked > 2, "{p}: no strike rejoined");
                assert!(masked < strikes.len(), "{p}: every strike masked");
            }
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
