//! Clean twin of `src/bin/bad.rs`: the sanctioned placements. A panic
//! that is part of a documented contract carries a justified
//! `#[expect]`, telemetry that reads a clock says why in a module-level
//! `#[expect]`, results live in ordered collections, lookups that may
//! miss use `get` rather than indexing, and test code unwraps, expects,
//! panics and indexes freely.
#![warn(clippy::indexing_slicing)]

use std::collections::BTreeMap;

/// Calibration lookup that reports a missing key as a value.
pub fn lookup(table: &BTreeMap<String, f64>, key: &str) -> Option<f64> {
    table.get(key).copied()
}

/// The index of the largest logit.
///
/// # Panics
///
/// Panics if `logits` is empty.
#[expect(clippy::expect_used, reason = "documented under `# Panics`")]
pub fn argmax(logits: &[f64]) -> usize {
    logits
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)
        .expect("nonempty logits")
}

/// Profile timestamps.
pub mod telemetry {
    #![expect(
        clippy::disallowed_types,
        reason = "timestamps are observability metadata; they never feed results"
    )]

    use std::time::Instant;

    /// Microseconds since `origin`.
    pub fn elapsed_us(origin: Instant) -> u128 {
        origin.elapsed().as_micros()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn asserts_freely() {
        let mut table = BTreeMap::new();
        table.insert("gemm".to_string(), 2.5);
        assert_eq!(lookup(&table, "gemm").unwrap(), 2.5);
        let logits = [0.1, 0.7, 0.2];
        assert_eq!(logits[argmax(&logits)], 0.7);
        let parsed: Result<u64, std::num::ParseIntError> = "7".parse();
        if parsed.expect("digits") != 7 {
            panic!("parse changed its mind");
        }
    }
}
