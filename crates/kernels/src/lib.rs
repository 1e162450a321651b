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
