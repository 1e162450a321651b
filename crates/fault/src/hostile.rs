//! Hostile instrumented workloads for exercising the harness's own
//! fault tolerance.
//!
//! The paper treats harness failures — hung boards, watchdog resets,
//! crashed runs — as first-class measurement events. These workloads
//! let the test suite and CI reproduce those events on demand inside
//! the simulator: a [`HostileWorkload`] computes a perfectly ordinary
//! deterministic kernel, but misbehaves in one controlled way chosen
//! by its [`HostileMode`].
//!
//! Two properties keep the seed-determinism contract intact:
//!
//! * Misbehavior is *attempt-dependent, output-independent*. A
//!   [`HostileMode::FlakyGolden`] workload panics on its first N golden
//!   runs and then computes the exact same bytes a never-failing run
//!   would have; a [`HostileMode::SlowStrike`] workload only wastes
//!   wall-clock time. Retried cells are therefore byte-identical to
//!   clean first runs.
//! * Flakiness is tracked in a process-global registry keyed by the
//!   workload's `tag`, not in `&self` — campaign drivers hold the
//!   workload behind `&dyn Workload` and may run golden on any thread.
//!   Distinct tags have independent failure schedules, so concurrent
//!   tests never interfere.

use crate::hook::{FaultHook, GoldenHook, HookExt};
use crate::Workload;
use mpr_softfloat::{FloatExt, Precision};
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Duration;

/// How many values the hostile kernel folds; small enough that even a
/// deliberately slow strike keeps test campaigns cheap.
const KERNEL_LEN: usize = 24;

/// Process-global invocation registry for [`HostileMode::FlakyGolden`]:
/// tag → number of golden runs attempted so far. Entries persist for
/// the life of the process, so tests must use distinct tags.
static GOLDEN_ATTEMPTS: Mutex<BTreeMap<u64, u32>> = Mutex::new(BTreeMap::new());

/// The one controlled way a [`HostileWorkload`] misbehaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum HostileMode {
    /// The golden run panics on the first `panics` attempts (per tag),
    /// then succeeds forever after — the classic crash-on-first-boot
    /// device that a bounded retry recovers.
    FlakyGolden {
        /// Number of leading golden runs that panic.
        panics: u32,
    },
    /// Every dispatch sleeps `millis` before computing, so a campaign
    /// over this workload blows any watchdog deadline shorter than
    /// `millis x strikes` — while still completing each strike, which
    /// is what lets the cooperative cancellation poll fire. Nothing
    /// here ever blocks forever.
    SlowStrike {
        /// Milliseconds each dispatch sleeps before computing.
        millis: u64,
    },
    /// No misbehavior at all: a healthy control cell with the same
    /// kernel, for plans that mix healthy and hostile cells.
    WellBehaved,
}

/// A deterministic dot-product-style workload with scripted
/// misbehavior. See the [module docs](self) for the determinism
/// argument.
#[derive(Debug, Clone, Copy)]
pub struct HostileWorkload {
    tag: u64,
    mode: HostileMode,
}

impl HostileWorkload {
    /// Creates a hostile workload. `tag` seeds the kernel's constants
    /// (distinct tags compute distinct outputs) and keys the flaky
    /// registry (distinct tags fail independently).
    pub fn new(tag: u64, mode: HostileMode) -> HostileWorkload {
        HostileWorkload { tag, mode }
    }

    /// The registry / kernel tag.
    pub fn tag(&self) -> u64 {
        self.tag
    }

    /// The scripted misbehavior.
    pub fn mode(&self) -> HostileMode {
        self.mode
    }

    fn run<F: FloatExt, H: FaultHook + ?Sized>(&self, hook: &mut H) -> Vec<f64> {
        // An ordinary fold with tag-dependent but exactly representable
        // coefficients, every intermediate exposed as a fault site.
        let mut acc = F::zero();
        for i in 0..KERNEL_LEN {
            let a = F::from_f64(0.25 + ((self.tag >> (i % 16)) & 3) as f64 * 0.5);
            let b = F::from_f64(1.5 - i as f64 * 0.0625);
            let prod = hook.touch(a * b);
            acc = hook.touch(acc + prod);
        }
        vec![acc.to_f64()]
    }
}

impl Workload for HostileWorkload {
    fn name(&self) -> &str {
        "hostile"
    }

    fn dispatch(&self, precision: Precision, hook: &mut dyn FaultHook) -> Vec<f64> {
        if let HostileMode::SlowStrike { millis } = self.mode {
            std::thread::sleep(Duration::from_millis(millis));
        }
        crate::dispatch_precision!(self, precision, hook)
    }

    /// The fault-free output.
    ///
    /// # Panics
    ///
    /// In [`HostileMode::FlakyGolden`] mode the first `panics` calls
    /// (per tag, process-wide) panic deliberately; later calls succeed
    /// with the same bytes a never-failing run would produce.
    #[expect(
        clippy::expect_used,
        clippy::panic,
        reason = "documented under `# Panics`"
    )]
    fn run_golden(&self, precision: Precision) -> Vec<f64> {
        if let HostileMode::FlakyGolden { panics } = self.mode {
            let mut registry = GOLDEN_ATTEMPTS.lock().expect("hostile registry lock");
            let attempt = registry.entry(self.tag).or_insert(0);
            *attempt += 1;
            if *attempt <= panics {
                let n = *attempt;
                drop(registry);
                panic!(
                    "hostile workload {:#018x}: staged golden failure {n}/{panics}",
                    self.tag
                );
            }
        }
        let mut hook = GoldenHook::new();
        self.dispatch(precision, &mut hook)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flaky_golden_panics_then_recovers_with_identical_bytes() {
        let flaky = HostileWorkload::new(0xF1A2, HostileMode::FlakyGolden { panics: 2 });
        for n in 1..=2 {
            let err = std::panic::catch_unwind(|| flaky.run_golden(Precision::Single))
                .expect_err("staged failure");
            let msg = err.downcast_ref::<String>().expect("string payload");
            assert!(msg.contains(&format!("{n}/2")), "message {msg}");
        }
        let recovered = flaky.run_golden(Precision::Single);
        // Identical bytes to a never-failing workload with the same tag.
        let clean = HostileWorkload::new(0xF1A2, HostileMode::WellBehaved);
        let clean_out = clean.run_golden(Precision::Single);
        let a: Vec<u64> = recovered.iter().map(|v| v.to_bits()).collect();
        let b: Vec<u64> = clean_out.iter().map(|v| v.to_bits()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn tags_fail_independently_and_shape_the_output() {
        let a = HostileWorkload::new(0xA11CE, HostileMode::FlakyGolden { panics: 1 });
        let b = HostileWorkload::new(0xB0B, HostileMode::WellBehaved);
        // b's golden runs are untouched by a's failure schedule.
        let out_b = b.run_golden(Precision::Double);
        assert!(std::panic::catch_unwind(|| a.run_golden(Precision::Double)).is_err());
        assert_eq!(out_b, b.run_golden(Precision::Double));
        // Distinct tags compute distinct kernels.
        assert_ne!(out_b, a.run_golden(Precision::Double));
    }

    #[test]
    fn slow_strike_completes_each_dispatch() {
        let slow = HostileWorkload::new(7, HostileMode::SlowStrike { millis: 1 });
        let healthy = HostileWorkload::new(7, HostileMode::WellBehaved);
        assert_eq!(
            slow.run_golden(Precision::Half),
            healthy.run_golden(Precision::Half),
            "sleeping never changes the computed bytes"
        );
        assert!(slow.site_count(Precision::Half) > 0);
    }
}
