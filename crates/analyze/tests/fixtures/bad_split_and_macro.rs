//! Fixture for the leaks line-scoped token lints cannot see: the
//! offending statements are split across physical lines, or sit inside
//! a macro invocation body. Scanned twice by the tests — once under a
//! kernel-crate path (PL005 must fire, PL001-PL004 must not) and once
//! under a campaign-crate path (DT004 must fire on the stride push and
//! on the three-line weak seed).

monomorphic_workload! {
    fn narrowed_strike(golden: &[f64], i: usize) -> f32 {
        let master = golden[i];
        let out = master as f32;
        out
    }
}

monomorphic_workload! {
    fn strided_collect(worker: usize, threads: usize, out: &mut Vec<u64>) {
        for i in (worker..128).step_by(threads) {
            out.push(one_strike(i));
        }
    }
}

fn one_strike(i: usize) -> u64 {
    i as u64
}

/// The weak derivation is one *statement* but three physical lines;
/// any per-line pattern sees only fragments of it.
fn split_seed(seed: u64, strike: u64) -> u64 {
    let derived = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ strike;
    let stream = seed_from_u64(derived);
    stream
}
