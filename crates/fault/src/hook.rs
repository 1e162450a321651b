//! Execution instrumentation: every intermediate value a kernel produces
//! flows through a [`FaultHook`], making it an addressable fault site.
//!
//! A kernel writes its inner loop once:
//!
//! ```text
//! acc = hook.touch(acc.mul_add(a, b));
//! ```
//!
//! and the same code path serves three purposes:
//!
//! * [`GoldenHook`] passes values through untouched while counting them —
//!   one run yields both the golden output and the dynamic site count;
//! * [`InjectHook`] corrupts exactly one site (a transient strike);
//! * [`PeriodicHook`] corrupts every site handled by one physical
//!   processing element (a *persistent* FPGA configuration-memory fault:
//!   with `P`-way hardware parallelism, PE `p` executes the operations
//!   whose dynamic index is congruent to `p` mod `P`, and a corrupted PE
//!   mangles all of them until the device is reprogrammed).
//!
//! A kernel with a faster hook-free form of a span of sites asks
//! [`FaultHook::skip`] first and touches the span one value at a time
//! only when the hook refuses.

use crate::ValueFault;
use mpr_softfloat::FloatExt;

/// Receives every intermediate value of a workload execution.
///
/// Object-safe by operating on raw representation bits, so campaigns
/// can hold `&mut dyn FaultHook` at the [`Workload::dispatch`]
/// boundary. Workload code takes the hook generically
/// (`H: FaultHook + ?Sized`) and touches typed values through
/// [`HookExt::touch`]: with a concrete hook each touch compiles to a
/// static — usually inlined — call, and only the `dispatch`
/// instantiation with `H = dyn FaultHook` pays a virtual call.
/// [`monomorphic_workload!`](crate::monomorphic_workload) generates
/// both instantiations from one `run<F, H>`.
///
/// [`Workload::dispatch`]: crate::Workload::dispatch
pub trait FaultHook {
    /// Processes the `width`-bit value `bits`, returning the (possibly
    /// corrupted) replacement.
    fn touch_bits(&mut self, bits: u64, width: u32) -> u64;

    /// Asks to advance past the next `n` sites as if each were touched
    /// and passed through unchanged. On `true` the hook has done so and
    /// the caller computes the span without touching it; on `false`
    /// nothing changed and the caller touches the span as usual.
    ///
    /// A hook accepts only when it would return every one of those
    /// values unchanged and needs none of them: [`NullHook`] and
    /// [`GoldenHook`] always (the latter counts the `n` sites),
    /// [`InjectHook`] and [`MultiStrikeHook`] when no pending strike
    /// lies in the span. [`PeriodicHook`] and [`TracingHook`] keep this
    /// default. A refusal is always safe: the touched path is the
    /// oracle, and a kernel's skipped path must match it bit for bit.
    fn skip(&mut self, n: u64) -> bool {
        let _ = n;
        false
    }
}

/// The one typed touch, blanket-implemented for every hook, concrete or
/// `dyn`. This is the monomorphized half of the hook protocol: a kernel
/// or network layer written as `fn f<F: FloatExt, H: FaultHook + ?Sized>`
/// pays a virtual call per touch only when instantiated with
/// `dyn FaultHook`; instantiated with [`NullHook`] / [`InjectHook`] /
/// [`GoldenHook`] the touch inlines to (at most) a cursor increment and
/// a compare.
pub trait HookExt: FaultHook {
    /// Typed pass-through: every call advances the dynamic site cursor.
    #[inline]
    fn touch<F: FloatExt>(&mut self, v: F) -> F {
        F::from_bits_u64(self.touch_bits(v.to_bits_u64(), F::PRECISION.total_bits()))
    }
}

impl<H: FaultHook + ?Sized> HookExt for H {}

/// Pure pass-through: no counting, no corruption. Golden runs through a
/// monomorphized dispatch path with a `NullHook` compile to the bare
/// kernel arithmetic — the hook disappears entirely under inlining.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullHook;

impl FaultHook for NullHook {
    #[inline]
    fn touch_bits(&mut self, bits: u64, _width: u32) -> u64 {
        bits
    }

    #[inline]
    fn skip(&mut self, _n: u64) -> bool {
        true
    }
}

/// Counts sites and never corrupts: produces the golden output and the
/// dynamic site count in one run.
#[derive(Debug, Default)]
pub struct GoldenHook {
    sites: u64,
}

impl GoldenHook {
    /// Creates a fresh counting hook.
    pub fn new() -> GoldenHook {
        GoldenHook::default()
    }

    /// Number of sites seen so far.
    pub fn sites(&self) -> u64 {
        self.sites
    }
}

impl FaultHook for GoldenHook {
    #[inline]
    fn touch_bits(&mut self, bits: u64, _width: u32) -> u64 {
        self.sites += 1;
        bits
    }

    #[inline]
    fn skip(&mut self, n: u64) -> bool {
        self.sites += n;
        true
    }
}

/// Applies one fault at one dynamic site — a transient particle strike.
#[derive(Debug)]
pub struct InjectHook {
    target: u64,
    fault: ValueFault,
    cursor: u64,
    hit: bool,
}

impl InjectHook {
    /// Corrupts the value at dynamic site `target` with `fault`.
    pub fn new(target: u64, fault: ValueFault) -> InjectHook {
        InjectHook {
            target,
            fault,
            cursor: 0,
            hit: false,
        }
    }

    /// `true` once the targeted site has been reached and corrupted.
    pub fn fired(&self) -> bool {
        self.hit
    }
}

impl FaultHook for InjectHook {
    #[inline]
    fn touch_bits(&mut self, bits: u64, width: u32) -> u64 {
        let site = self.cursor;
        self.cursor += 1;
        if site == self.target {
            self.hit = true;
            self.fault.apply(bits, width)
        } else {
            bits
        }
    }

    #[inline]
    fn skip(&mut self, n: u64) -> bool {
        let clear = !span(self.cursor, n).contains(&self.target);
        if clear {
            self.cursor += n;
        }
        clear
    }
}

/// The sites `[cursor, cursor + n)` a skip would pass over.
#[inline]
fn span(cursor: u64, n: u64) -> std::ops::Range<u64> {
    cursor..cursor.saturating_add(n)
}

/// Corrupts every site executed by one physical processing element — the
/// persistent-fault model for FPGA configuration-memory strikes.
#[derive(Debug)]
pub struct PeriodicHook {
    offset: u64,
    period: u64,
    fault: ValueFault,
    cursor: u64,
    hits: u64,
}

impl PeriodicHook {
    /// Corrupts sites congruent to `offset` modulo `period` (the
    /// operations mapped to one of `period` physical PEs).
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero or `offset >= period`.
    pub fn new(offset: u64, period: u64, fault: ValueFault) -> PeriodicHook {
        assert!(period > 0, "period must be positive");
        assert!(offset < period, "offset {offset} must be < period {period}");
        PeriodicHook {
            offset,
            period,
            fault,
            cursor: 0,
            hits: 0,
        }
    }

    /// Number of operations corrupted so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }
}

impl FaultHook for PeriodicHook {
    #[inline]
    fn touch_bits(&mut self, bits: u64, width: u32) -> u64 {
        let site = self.cursor;
        self.cursor += 1;
        if site % self.period == self.offset {
            self.hits += 1;
            self.fault.apply(bits, width)
        } else {
            bits
        }
    }
}

/// Applies several independent transient faults in one execution — the
/// error-*accumulation* scenario the paper's FPGA methodology explicitly
/// avoids by reprogramming at each observed error (Section 4), and the
/// regime a device without scrubbing would drift into.
#[derive(Debug)]
pub struct MultiStrikeHook {
    /// Sorted (site, fault) pairs still to fire.
    strikes: Vec<(u64, ValueFault)>,
    cursor: u64,
    fired: usize,
}

impl MultiStrikeHook {
    /// Creates a hook applying each `(site, fault)` pair. Duplicate
    /// sites apply their faults in sequence.
    pub fn new(mut strikes: Vec<(u64, ValueFault)>) -> MultiStrikeHook {
        strikes.sort_by_key(|&(site, _)| site);
        MultiStrikeHook {
            strikes,
            cursor: 0,
            fired: 0,
        }
    }

    /// How many strikes have fired so far.
    pub fn fired(&self) -> usize {
        self.fired
    }
}

impl FaultHook for MultiStrikeHook {
    #[inline]
    fn touch_bits(&mut self, bits: u64, width: u32) -> u64 {
        let site = self.cursor;
        self.cursor += 1;
        let mut out = bits;
        while let Some(&(s, fault)) = self.strikes.get(self.fired) {
            if s != site {
                break;
            }
            out = fault.apply(out, width);
            self.fired += 1;
        }
        out
    }

    /// Strikes fire in site order, so the next pending one is the only
    /// one that can lie in the span.
    #[inline]
    fn skip(&mut self, n: u64) -> bool {
        let clear = self
            .strikes
            .get(self.fired)
            .is_none_or(|&(site, _)| !span(self.cursor, n).contains(&site));
        if clear {
            self.cursor += n;
        }
        clear
    }
}

/// Observes values without corrupting them: collects the magnitude
/// census of a workload's fault-site population, which explains *where*
/// a kernel is vulnerable (e.g. the tiny high-order Horner terms of a
/// double-precision transcendental).
#[derive(Debug, Default)]
pub struct TracingHook {
    sites: u64,
    zeros: u64,
    subnormal_or_tiny: u64,
    log2_magnitudes: Vec<i32>,
}

impl TracingHook {
    /// Creates a fresh tracer.
    pub fn new() -> TracingHook {
        TracingHook::default()
    }

    /// Number of sites observed.
    pub fn sites(&self) -> u64 {
        self.sites
    }

    /// Sites holding exactly zero.
    pub fn zeros(&self) -> u64 {
        self.zeros
    }

    /// Floor of log2 |value| for every nonzero finite site, in order.
    pub fn log2_magnitudes(&self) -> &[i32] {
        &self.log2_magnitudes
    }

    /// Fraction of sites whose magnitude is below `2^threshold_log2` —
    /// the "tiny intermediate" share whose exponent-bit corruption is
    /// catastrophic.
    pub fn tiny_fraction(&self, threshold_log2: i32) -> f64 {
        if self.sites == 0 {
            return 0.0;
        }
        let tiny = self
            .log2_magnitudes
            .iter()
            .filter(|&&m| m < threshold_log2)
            .count() as u64
            + self.zeros
            + self.subnormal_or_tiny;
        tiny as f64 / self.sites as f64
    }
}

impl FaultHook for TracingHook {
    fn touch_bits(&mut self, bits: u64, width: u32) -> u64 {
        self.sites += 1;
        // Interpret through f64 for a uniform magnitude scale: widths
        // below 64 are widened exactly by the caller's representation.
        let v = match width {
            64 => f64::from_bits(bits),
            32 => f32::from_bits(bits as u32) as f64,
            16 => mpr_softfloat::Half::from_bits(bits as u16).to_f64(),
            _ => bits as f64, // fixed-point staging registers
        };
        if v == 0.0 {
            self.zeros += 1;
        } else if !v.is_finite() || v.abs() < 1e-300 {
            self.subnormal_or_tiny += 1;
        } else {
            self.log2_magnitudes.push(v.abs().log2().floor() as i32);
        }
        bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpr_softfloat::Half;

    fn run_chain(hook: &mut dyn FaultHook) -> f64 {
        let mut acc = 0.0f64;
        for i in 1..=10 {
            acc = hook.touch(acc + i as f64);
        }
        acc
    }

    /// `run_chain`, asking to skip each `span`-site stretch first and
    /// summing an accepted stretch untouched. Returns the result and
    /// the number of accepted skips.
    fn run_chain_skipping(hook: &mut dyn FaultHook, span: u64) -> (f64, u64) {
        let mut acc = 0.0f64;
        let mut accepted = 0;
        let mut first = 1;
        while first <= 10 {
            let stretch = first..(first + span).min(11);
            if hook.skip(stretch.end - stretch.start) {
                accepted += 1;
                for i in stretch.clone() {
                    acc += i as f64;
                }
            } else {
                for i in stretch.clone() {
                    acc = hook.touch(acc + i as f64);
                }
            }
            first = stretch.end;
        }
        (acc, accepted)
    }

    #[test]
    fn pass_through_hooks_accept_every_skip() {
        assert_eq!(run_chain_skipping(&mut NullHook, 3), (55.0, 4));
        let mut golden = GoldenHook::new();
        assert_eq!(run_chain_skipping(&mut golden, 3), (55.0, 4));
        assert_eq!(golden.sites(), 10, "skipped sites are counted");
    }

    #[test]
    fn inject_hook_refuses_a_skip_over_its_target() {
        let mut hook = InjectHook::new(4, ValueFault::BitFlip(63));
        assert!(!hook.skip(5), "sites 0..5 hold the target");
        assert!(hook.skip(4), "the refusal left the cursor at 0");
        assert!(!hook.skip(1));
        let _ = hook.touch(15.0f64);
        assert!(hook.fired(), "the next touch is site 4");
        assert!(hook.skip(1_000), "nothing is pending once fired");
        // Stretches 0..3 and 6..10 skip; 3..6 runs touched and fires.
        let mut hook = InjectHook::new(4, ValueFault::BitFlip(63));
        assert_eq!(run_chain_skipping(&mut hook, 3), (25.0, 3));
        let mut past = InjectHook::new(1000, ValueFault::BitFlip(0));
        assert_eq!(run_chain_skipping(&mut past, 3), (55.0, 4));
        assert!(!past.fired());
    }

    #[test]
    fn multi_strike_refuses_a_skip_over_any_pending_strike() {
        let strikes = vec![(2, ValueFault::BitFlip(63)), (7, ValueFault::BitFlip(63))];
        let mut hook = MultiStrikeHook::new(strikes.clone());
        assert!(!hook.skip(3));
        assert!(hook.skip(2), "the refusal left the cursor at 0");
        assert!(!hook.skip(1));
        let _ = hook.touch(6.0f64);
        assert_eq!(hook.fired(), 1);
        assert!(hook.skip(4), "sites 3..7 are clear");
        assert!(!hook.skip(1));
        let _ = hook.touch(24.0f64);
        assert!(hook.skip(1_000), "nothing is pending once both fired");
        // Stretches 2..4 and 6..8 run touched; the result matches the
        // touch-by-touch chain.
        let mut hook = MultiStrikeHook::new(strikes);
        assert_eq!(run_chain_skipping(&mut hook, 2), (-5.0, 3));
        assert_eq!(hook.fired(), 2);
        // Two strikes on one site: both fire in the touched stretch.
        let mut hook = MultiStrikeHook::new(vec![
            (4, ValueFault::BitFlip(63)),
            (4, ValueFault::BitFlip(63)),
        ]);
        assert_eq!(run_chain_skipping(&mut hook, 5), (55.0, 1));
        assert_eq!(hook.fired(), 2);
    }

    #[test]
    fn periodic_and_tracing_hooks_refuse_every_skip() {
        let mut periodic = PeriodicHook::new(0, 2, ValueFault::BitFlip(63));
        let mut plain = PeriodicHook::new(0, 2, ValueFault::BitFlip(63));
        assert_eq!(
            run_chain_skipping(&mut periodic, 3),
            (run_chain(&mut plain), 0)
        );
        assert_eq!(periodic.hits(), 5);
        let mut tracing = TracingHook::new();
        assert_eq!(run_chain_skipping(&mut tracing, 3), (55.0, 0));
        assert_eq!(tracing.sites(), 10);
    }

    #[test]
    fn golden_hook_counts_and_preserves() {
        let mut hook = GoldenHook::new();
        let out = run_chain(&mut hook);
        assert_eq!(out, 55.0);
        assert_eq!(hook.sites(), 10);
    }

    #[test]
    fn inject_hook_hits_exactly_one_site() {
        // Flip the sign bit of the value at site 4 (the partial sum 15).
        let mut hook = InjectHook::new(4, ValueFault::BitFlip(63));
        let out = run_chain(&mut hook);
        assert!(hook.fired());
        // 1+2+3+4+5 = 15 negated, then +6..+10 = 40 - 15 - 15 = 25... i.e.
        // final = 55 - 2*15.
        assert_eq!(out, 25.0);
    }

    #[test]
    fn inject_hook_past_the_end_never_fires() {
        let mut hook = InjectHook::new(1000, ValueFault::BitFlip(0));
        let out = run_chain(&mut hook);
        assert_eq!(out, 55.0);
        assert!(!hook.fired());
    }

    #[test]
    fn periodic_hook_corrupts_every_pe_operation() {
        // Period 2, offset 0: sites 0,2,4,6,8 are corrupted.
        let mut hook = PeriodicHook::new(0, 2, ValueFault::BitFlip(63));
        let _ = run_chain(&mut hook);
        assert_eq!(hook.hits(), 5);
    }

    #[test]
    #[should_panic(expected = "must be < period")]
    fn periodic_hook_validates_offset() {
        let _ = PeriodicHook::new(3, 2, ValueFault::BitFlip(0));
    }

    #[test]
    fn multi_strike_applies_each_fault_once() {
        let mut hook = MultiStrikeHook::new(vec![
            (2, ValueFault::BitFlip(63)),
            (7, ValueFault::BitFlip(63)),
        ]);
        let out = run_chain(&mut hook);
        assert_eq!(hook.fired(), 2);
        // Accumulated faults compose: site 2 negates the partial sum 6
        // (downstream state shifts by -12), so site 7 holds 24, not 36;
        // negating it yields 55 - 12 - 48 = -5.
        assert_eq!(out, -5.0);
    }

    #[test]
    fn multi_strike_stacks_duplicate_sites() {
        // Two sign flips on the same site cancel.
        let mut hook = MultiStrikeHook::new(vec![
            (4, ValueFault::BitFlip(63)),
            (4, ValueFault::BitFlip(63)),
        ]);
        let out = run_chain(&mut hook);
        assert_eq!(out, 55.0);
        assert_eq!(hook.fired(), 2);
    }

    #[test]
    fn tracing_hook_census() {
        let mut hook = TracingHook::new();
        let out = run_chain(&mut hook);
        assert_eq!(out, 55.0, "tracing never corrupts");
        assert_eq!(hook.sites(), 10);
        assert_eq!(hook.zeros(), 0);
        // Partial sums 1..=55: log2 magnitudes from 0 to 5.
        assert_eq!(hook.log2_magnitudes().len(), 10);
        assert_eq!(hook.log2_magnitudes()[0], 0);
        assert_eq!(*hook.log2_magnitudes().last().unwrap(), 5);
        // Everything is >= 1, so nothing is tiny below 2^0.
        assert_eq!(hook.tiny_fraction(0), 0.0);
        assert!(hook.tiny_fraction(6) > 0.99);
    }

    #[test]
    fn touch_respects_value_width() {
        // A bit-31 flip on a Half must be rejected by the width check...
        // so the fault constructor masks to the width instead: flipping
        // bit 31 of a 16-bit value wraps onto bit 15 (sign).
        let mut hook = InjectHook::new(0, ValueFault::BitFlip(15));
        let h: Half = (&mut hook as &mut dyn FaultHook).touch(Half::ONE);
        assert_eq!(h.to_f64(), -1.0);
    }
}
