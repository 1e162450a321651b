//! Structured observability for the measurement stack.
//!
//! Every campaign in this workspace is an accounting exercise —
//! fluence, strike counts, SDC/DUE tallies over simulated beam-hours —
//! yet until this crate the simulator ran those campaigns as a black
//! box. `mpr-obs` threads a [`Recorder`] through the experiment engine
//! and the beam/fault campaigns so a study run can explain where it
//! spent its time and what its caches saved.
//!
//! The crate is deliberately at the bottom of the dependency graph
//! (std only): `mpr-beam`, `mpr-fault`, `mpr-exp`, and `mpr-core` all
//! record into it, and it also hosts the [`seed`] module — the single
//! audited seed-derivation scheme those same crates share — the
//! [`json`] module every JSON reader and writer in the workspace uses,
//! plus the fault-tolerance primitives ([`CancelToken`],
//! [`panic_message`]) that the campaign drivers and the experiment
//! engine use to survive panicking or hung cells.
//!
//! Two recorders ship built in:
//!
//! * [`NullRecorder`] — the default. [`Recorder::enabled`] returns
//!   `false`, so instrumentation sites skip clock reads entirely and
//!   an unprofiled run pays only a branch per event site.
//! * [`JsonlRecorder`] — buffers events and flushes them as one
//!   append-only JSONL file (one event per line, monotonic-relative
//!   timestamps, atomic tmp+rename write; escaped and parsed by the
//!   same [`json`] code as `mpr-exp`'s disk cache).
//!
//! ```rust
//! use mpr_obs::{summarize, Counter, JsonlRecorder, Metric, Recorder, Timer};
//!
//! let rec = JsonlRecorder::new();
//! let hits = Counter::new(&rec, "cache.mem_hit", "");
//! hits.add(3);
//! let t = Timer::start(&rec, "cell.exec", "v2;dev=titan-v");
//! t.stop();
//! let events = rec.events();
//! let summary = summarize(&events);
//! assert_eq!(summary.counter_total("cache.mem_hit"), 3);
//! ```

#![deny(missing_docs)]

mod harness;
pub mod json;
mod jsonl;
mod record;
pub mod seed;
mod summary;

pub use harness::{panic_message, CancelToken};
pub use jsonl::{parse_line, read_log, JsonlRecorder};
pub use record::{Counter, Event, Gauge, Metric, NullRecorder, Recorder, Timer, NULL_RECORDER};
pub use seed::{fnv1a64, gen_value, mix_seed, splitmix64, SplitMix};
pub use summary::{summarize, Aggregate, ProfileSummary};
