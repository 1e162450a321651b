//! # mpr-fault
//!
//! The software fault-injection layer of the study, playing the role of
//! CAROL-FI (Oliveira et al., CF'17) in the paper's methodology: it
//! perturbs one value of a *live execution* of a benchmark and classifies
//! the outcome against the fault-free golden run.
//!
//! The crate defines:
//!
//! * [`ValueFault`] — what happens to a struck value (single/double bit
//!   flip, byte corruption, wide datapath corruption).
//! * [`FaultModel`] — distribution over [`ValueFault`]s used by a campaign.
//! * [`Workload`] — the contract a benchmark implements to be injectable:
//!   enumerate dynamic fault sites, run golden, run with one fault applied
//!   at a chosen site.
//! * [`hook`] — the instrumentation used by kernels to expose every
//!   intermediate value as a fault site with a single code path for
//!   golden, counting, and injected runs.
//! * [`StrikeRunner`] — one campaign's context (workload, precision,
//!   golden run, seed, sampling plan, threads, batching, telemetry,
//!   watchdog) and the one strike loop behind every driver: seeded
//!   draws, batched parallel execution, cancellation, panic capture,
//!   the strike-index merge, fixed or adaptive, and the shared
//!   telemetry tail.
//! * [`inject`] — the injection driver: N seeded injections on the
//!   context, producing outcome counts, AVF/PVF estimates, and the
//!   per-SDC severity list that feeds the TRE analysis.
//! * [`accumulate`] — the error-accumulation driver: serial trials with
//!   several stuck-at faults piled up in each.
//!
//! # Example
//!
//! ```rust
//! use mpr_fault::{inject, FaultModel, StrikeRunner, Workload};
//! use mpr_fault::hook::{FaultHook, HookExt};
//! use mpr_softfloat::{FloatExt, Precision};
//!
//! /// A toy workload: sum of 1..=8 computed in the requested precision.
//! #[derive(Debug)]
//! struct Sum8;
//!
//! impl Sum8 {
//!     // Generic over the hook as well as the format: the campaign's
//!     // `dyn` boundary and the concrete golden/strike hooks run the
//!     // same code, the latter without a virtual call per touch.
//!     fn run<F: FloatExt, H: FaultHook + ?Sized>(&self, hook: &mut H) -> Vec<f64> {
//!         let mut acc = F::zero();
//!         for i in 1..=8 {
//!             acc = hook.touch(acc + F::from_f64(i as f64));
//!         }
//!         vec![acc.to_f64()]
//!     }
//! }
//!
//! impl Workload for Sum8 {
//!     fn name(&self) -> &'static str { "sum8" }
//!     mpr_fault::monomorphic_workload!();
//! }
//!
//! let golden = Sum8.run_golden(Precision::Single);
//! let ctx = StrikeRunner {
//!     seed: 7,
//!     ..StrikeRunner::new(&Sum8, Precision::Single, &golden)
//! };
//! let report = inject(&ctx, 200, FaultModel::single_bit(), 1.0)?;
//! assert_eq!(report.counts.total(), 200);
//! // Most single-bit flips in a live accumulator reach the output.
//! assert!(report.vulnerability().factor() > 0.5);
//! # Ok::<(), mpr_fault::CampaignError>(())
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]
#![warn(clippy::indexing_slicing)]

mod campaign;
pub mod hook;
pub mod hostile;
mod model;
mod runner;
mod workload;

pub use campaign::{accumulate, inject, AccumulateOutcome, CampaignError, InjectionReport};
pub use model::{FaultModel, ValueFault};
/// The workspace's one splitmix64 mixer and input generator, for
/// workload crates that synthesize deterministic inputs with them.
pub use mpr_obs::{gen_value, splitmix64};
pub use runner::{StrikeRunner, Strikes};
pub use workload::Workload;

// The exported macros name the precision and float types through
// `$crate`, so an expanding crate needs no mpr-softfloat path of its own.
#[doc(hidden)]
pub use mpr_softfloat as __softfloat;
