//! # mpr-kernels
//!
//! The benchmark kernels of the study (paper Section 3.1), written once
//! and executed at double, single, and half precision:
//!
//! * [`Gemm`] — the MxM matrix multiply, "representative of highly
//!   arithmetic compute bound codes and the core of feature extraction in
//!   CNNs"; FMA dominated.
//! * [`LavaMd`] — particle-potential computation over a 3D box grid
//!   (Rodinia's lavaMD), >50% multiplications plus a transcendental
//!   exponential per interaction, evaluated **in precision** so the
//!   deeper double-precision polynomial exposes more (and tinier)
//!   intermediate values to faults — the mechanism behind the paper's
//!   inverted LavaMD criticality on the Xeon Phi (Section 5.3).
//! * [`Lud`] — LU decomposition (Doolittle), the CPU-bound Rodinia code.
//! * [`Micro`] — the Micro-ADD/MUL/FMA register-resident dependent
//!   chains designed to stress only the arithmetic cores.
//!
//! Each kernel implements [`mpr_fault::Workload`]: every intermediate
//! value passes through the fault hook, so a campaign can flip any bit of
//! any dynamic value. The executed kernels are *scaled-down proxies* (a
//! 32x32 GEMM propagates faults the same way a 2048x2048 one does); the
//! full-scale execution-time/exposure numbers live in each kernel's
//! [`mpr_arch::WorkloadProfile`].
//!
//! # Example
//!
//! ```rust
//! use mpr_fault::Workload;
//! use mpr_kernels::Gemm;
//! use mpr_softfloat::Precision;
//!
//! let gemm = Gemm::new(8);
//! let golden = gemm.run_golden(Precision::Half);
//! assert_eq!(golden.len(), 64);
//! assert_eq!(gemm.site_count(Precision::Half), 2 * 64 + 8 * 8 * 8);
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

mod gemm;
mod lavamd;
mod lud;
mod micro;
pub mod profiles;
pub(crate) mod util;

pub use gemm::Gemm;
pub use lavamd::LavaMd;
pub use lud::Lud;
pub use micro::{Micro, MicroKernelOp};

/// Dispatches a generic `run<F, H>` method on a runtime
/// [`mpr_softfloat::Precision`]. The hook type is inferred at the call
/// site, so the same macro serves the `dyn` campaign boundary and the
/// statically dispatched golden/site-count/strike runs.
macro_rules! dispatch_precision {
    ($self:ident, $precision:ident, $hook:expr) => {
        match $precision {
            mpr_softfloat::Precision::Double => $self.run::<f64, _>($hook),
            mpr_softfloat::Precision::Single => $self.run::<f32, _>($hook),
            mpr_softfloat::Precision::Half => $self.run::<mpr_softfloat::Half, _>($hook),
        }
    };
}
pub(crate) use dispatch_precision;

/// Generates the oracle half of [`mpr_fault::Workload`] for a kernel
/// whose `run` is generic over both the float format and the hook type:
/// the `dyn` `dispatch` campaigns hold, plus `site_count`, `run_golden`
/// and `run_with_fault` overrides that expand `dispatch_precision!`
/// with the concrete hook, so golden runs and reference strikes compile
/// to static calls instead of one virtual call per touch. The same
/// `run` executes either way, so the overrides are bit-identical to the
/// trait defaults. Expand inside an `impl Workload for ...` block; the
/// fast path (`run_strike_batch`) is written per kernel.
macro_rules! monomorphic_workload {
    () => {
        fn dispatch(
            &self,
            precision: mpr_softfloat::Precision,
            // mpr-allow: fault-site -- the one virtual dispatch boundary the hook protocol keeps: campaigns hold workloads as trait objects
            hook: &mut dyn mpr_fault::hook::FaultHook,
        ) -> Vec<f64> {
            crate::dispatch_precision!(self, precision, hook)
        }

        fn site_count(&self, precision: mpr_softfloat::Precision) -> u64 {
            let mut hook = mpr_fault::hook::GoldenHook::new();
            let _ = crate::dispatch_precision!(self, precision, &mut hook);
            hook.sites()
        }

        fn run_golden(&self, precision: mpr_softfloat::Precision) -> Vec<f64> {
            crate::dispatch_precision!(self, precision, &mut mpr_fault::hook::NullHook)
        }

        fn run_with_fault(
            &self,
            precision: mpr_softfloat::Precision,
            site: u64,
            fault: mpr_fault::ValueFault,
        ) -> Vec<f64> {
            let mut hook = mpr_fault::hook::InjectHook::new(site, fault);
            crate::dispatch_precision!(self, precision, &mut hook)
        }
    };
}
pub(crate) use monomorphic_workload;
