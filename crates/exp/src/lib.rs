//! Cell-keyed experiment engine for the mixed-precision reliability
//! study.
//!
//! The paper's evaluation is a grid of (device × workload × precision)
//! campaigns that many figures project in different ways. This crate
//! names each point of that grid with a [`CellKey`], collects requests
//! into an [`ExperimentPlan`], and lets an [`Engine`] execute the
//! *unique* cells exactly once — one after another, each campaign
//! spreading its strikes over every worker thread — memoized in
//! a [`ResultStore`], and optionally persisted to an on-disk JSON
//! cache so repeated reports are incremental. Figures become pure
//! views over plan results.
//!
//! Determinism contract: a cell's RNG stream is a pure function of the
//! study base seed and the cell key (via splitmix64 mixing), and the
//! campaign layers are thread-count invariant, so results are
//! bit-identical across thread counts, request orders, and cache
//! temperatures.
//!
//! Fault tolerance: each cell body runs isolated under `catch_unwind`
//! with an optional watchdog deadline and a deterministic retry budget
//! ([`Engine::try_run`] returns per-cell `Result`s; a panicking or hung
//! cell becomes a structured [`CellFailure`] while every healthy cell
//! completes). Disk-backed stores additionally keep a [`Manifest`]
//! ledger so interrupted campaigns resume with exactly the
//! failed/missing subset.
//!
//! Crash consistency: every byte the engine persists routes through
//! the [`Vfs`] trait. Cache and manifest commits use the durable
//! tmp-fsync-rename-fsync protocol ([`commit_durable`]), stores sweep
//! stale `*.tmp` residue on open, and [`ChaosFs`] can subject the whole
//! persistence layer to a deterministic seeded fault schedule — torn
//! writes, ENOSPC, bit-flipped reads, simulated mid-commit crashes —
//! to prove a resumed run converges to byte-identical artifacts.
//!
//! ```rust
//! use mpr_exp::{
//!     CellKey, CellKind, ClassifierId, DeviceId, Engine, ExperimentPlan, SamplingPlan, WorkloadId,
//! };
//! use mpr_softfloat::Precision;
//!
//! let engine = Engine::new(2019);
//! let mut plan = ExperimentPlan::new();
//! for p in [Precision::Single, Precision::Half] {
//!     plan.push(CellKey {
//!         device: DeviceId::TitanV,
//!         workload: WorkloadId::Gemm { dim: 8 },
//!         precision: p,
//!         kind: CellKind::Beam {
//!             hours: 10.0,
//!             target_candidates: 60,
//!             classifier: ClassifierId::None,
//!             sampling: SamplingPlan::Fixed,
//!         },
//!     });
//! }
//! let results = engine.run(&plan);
//! assert_eq!(results.len(), 2);
//! assert_eq!(engine.store().executed(), 2);
//! ```

#![deny(missing_docs)]
#![warn(clippy::indexing_slicing)]

mod cache;
mod cell;
mod engine;
mod failure;
mod manifest;
mod store;
mod vfs;

pub use cell::{CellKey, CellKind, ClassifierId, DeviceId, WorkloadId, KEY_VERSION};
pub use engine::{Engine, ExperimentPlan};
pub use failure::{failure_table, CellFailure, FailureKind};
pub use manifest::{manifest_path, CellState, CellStatus, Manifest, MANIFEST_FILE};
/// Re-exported from [`mpr_metrics::sampling`] so plan builders can pick a
/// strike-sampling strategy without depending on the metrics crate directly.
pub use mpr_metrics::{SamplingConfig, SamplingPlan};
/// Re-exported from [`mpr_obs::seed`], the workspace's shared
/// seed-derivation scheme (kept here for backwards compatibility).
pub use mpr_obs::{fnv1a64, mix_seed, splitmix64, SplitMix};
pub use store::{AccumulateOutcome, CellResult, LookupSource, ResultStore};
pub use vfs::{commit_durable, ChaosConfig, ChaosFs, ChaosStats, RealFs, Vfs};
