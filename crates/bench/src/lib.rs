//! # mpr-bench
//!
//! The gate benchmarks CI runs (both `harness = false` binaries that
//! check their own results and exit nonzero on a miss):
//!
//! * `strike_throughput` — naive vs per-strike replay vs batched strike
//!   execution per workload, gated on per-workload speedup floors;
//!   writes `BENCH_strikes.json`.
//! * `adaptive_sampling` — fixed vs adaptive campaigns at one seed,
//!   gated on the strikes-saved ratio and CI-width targets; writes
//!   `BENCH_sampling.json`.
//!
//! Run one with `cargo bench -p mpr-bench --bench <name> [-- --quick]`.
//! The tables and figures themselves come from `mpr report` or the
//! `paper_report` example; the whole-study benchmark is the separate
//! `e2ebench/` package.
