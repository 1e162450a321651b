//! Clean twin of `bad_panic_reach.rs`: the hot path uses checked
//! indexing with an explicit fallback, and the documented panic lives
//! on a cold path no campaign root reaches. Must produce zero
//! findings.

fn run_strike_batch(table: &[usize], k: usize) -> usize {
    checked_lookup(table, k)
}

fn checked_lookup(table: &[usize], k: usize) -> usize {
    match table.get(k + 1) {
        Some(v) => *v,
        None => 0,
    }
}

/// # Panics
///
/// Panics when `k` is out of range. Only used by offline tooling,
/// never called from a campaign root.
fn cold_assert(table: &[usize], k: usize) -> usize {
    if k >= table.len() {
        panic!("bad site index {k}");
    }
    table[k]
}
