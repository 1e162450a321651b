//! Known-bad fixture for DT004 determinism-taint: both PR 3 bug
//! shapes, written so that no single line names a clock, an ambient
//! RNG or a hash-ordered type — only the flow-sensitive pass sees the
//! nondeterminism.

/// PR 3 bug shape 1: thread-stride workers pushing into a shared
/// result vector in completion order. Element order ends up depending
/// on `--threads` because nothing ties an element to its strike index.
fn collect_strided(worker: usize, threads: usize, out: &mut Vec<u64>) {
    for i in (worker..256).step_by(threads) {
        out.push(strike_result(i));
    }
}

fn strike_result(i: usize) -> u64 {
    i as u64
}

/// PR 3 bug shape 2: a per-strike seed derived with multiply-XOR
/// arithmetic instead of a full avalanche; neighbouring strikes get
/// correlated low bits and the fault sample is no longer independent.
fn correlated_seed(seed: u64, strike: u64) -> u64 {
    let derived = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ strike;
    let stream = seed_from_u64(derived);
    stream
}
