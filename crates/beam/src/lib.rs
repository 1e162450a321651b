//! # mpr-beam
//!
//! The accelerated neutron-beam campaign simulator — the stand-in for
//! the paper's ChipIR irradiation (Section 3.2).
//!
//! The [`expose`] driver pairs a [`mpr_arch::Device`] with the
//! workload and precision of a campaign context
//! ([`mpr_fault::StrikeRunner`]) and simulates a [`BeamSession`]'s
//! hours of beam time: strikes arrive as a Poisson process over the device's
//! exposed resources; each *compute* strike is resolved by injecting a
//! fault into a live execution and comparing against the golden output
//! (SDC or masked), each *control* strike is a DUE, and on the FPGA
//! compute strikes are **persistent** — the struck processing element
//! corrupts every operation mapped to it until the device is
//! reprogrammed, which (like the paper) happens at each observed error.
//!
//! The observable is the cross section `events / fluence`, scaled to a
//! FIT rate in arbitrary units. The simulated flux only controls the
//! counting statistics, never the estimate, mirroring how accelerated
//! testing extrapolates to the terrestrial flux.
//!
//! # Example
//!
//! ```rust
//! use mpr_arch::VoltaGpu;
//! use mpr_beam::{expose, BeamSession};
//! use mpr_fault::{StrikeRunner, Workload};
//! use mpr_kernels::{profiles, Micro, MicroKernelOp};
//! use mpr_softfloat::Precision;
//!
//! let gpu = VoltaGpu::titan_v();
//! let micro = Micro::new(MicroKernelOp::Mul, 32, 256);
//! let profile = profiles::micro(MicroKernelOp::Mul);
//! let golden = micro.run_golden(Precision::Half);
//! let ctx = StrikeRunner {
//!     seed: 42,
//!     ..StrikeRunner::new(&micro, Precision::Half, &golden)
//! };
//! let result = expose(&ctx, &gpu, &profile, BeamSession::quick(), None)?;
//! assert!(result.sdc.events() > 0, "strikes must produce some SDCs");
//! assert!(result.fit_sdc().au() > 0.0);
//! # Ok::<(), mpr_fault::CampaignError>(())
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]
#![warn(clippy::indexing_slicing)]

mod campaign;
mod session;

pub use campaign::{expose, CampaignResult, SdcClassifier, SdcLabel};
pub use session::BeamSession;
