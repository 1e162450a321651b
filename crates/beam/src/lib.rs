//! # mpr-beam
//!
//! The accelerated neutron-beam campaign simulator — the stand-in for
//! the paper's ChipIR irradiation (Section 3.2).
//!
//! A campaign pairs a [`mpr_arch::Device`] with a
//! [`mpr_fault::Workload`] at one precision and simulates `hours` of
//! beam time: strikes arrive as a Poisson process over the device's
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
//! use mpr_beam::{BeamCampaign, BeamSession};
//! use mpr_kernels::{profiles, Micro, MicroKernelOp};
//! use mpr_softfloat::Precision;
//!
//! let gpu = VoltaGpu::titan_v();
//! let micro = Micro::new(MicroKernelOp::Mul, 32, 256);
//! let profile = profiles::micro(MicroKernelOp::Mul);
//! let result = BeamCampaign::new(&gpu, &micro, &profile, Precision::Half)
//!     .session(BeamSession::quick(42))
//!     .run();
//! assert!(result.sdc.events() > 0, "strikes must produce some SDCs");
//! assert!(result.fit_sdc().au() > 0.0);
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]
#![warn(clippy::indexing_slicing)]

mod campaign;
mod session;

pub use campaign::{BeamCampaign, CampaignResult, SdcClassifier, SdcLabel};
pub use session::BeamSession;
