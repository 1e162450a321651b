//! Clean twin of `bad_stale_file_allow.rs`: the same file-wide allow,
//! justified and load-bearing — it suppresses the real DT004 findings
//! below, so allow-hygiene stays quiet.
//! mpr-allow-file: determinism-taint -- the pre-avalanche seed schedule, kept verbatim as the oracle its replacement is checked against

fn legacy_seed(seed: u64, strike: u64) -> u64 {
    let derived = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ strike;
    let stream = seed_from_u64(derived);
    stream
}

fn legacy_strided(worker: usize, threads: usize, out: &mut Vec<u64>) {
    for i in (worker..256).step_by(threads) {
        out.push(legacy_seed(7, i as u64));
    }
}
