//! Known-bad fixture for PH004 panic-reachability: a documented panic
//! contract and a variable-index site, both reachable from a strike
//! fast-path root. The documentation satisfies the panic contract —
//! PH004 is what notices the hot path can still hit them.

fn run_strike_batch(table: &[usize], k: usize) -> usize {
    lookup(table, k)
}

/// # Panics
///
/// Panics when `k` is out of range.
fn lookup(table: &[usize], k: usize) -> usize {
    if k >= table.len() {
        panic!("bad site index {k}");
    }
    table[k + 1]
}
