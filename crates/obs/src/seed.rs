//! Seed derivation: splitmix64 mixing and FNV-1a canonical hashing.
//!
//! This is the workspace's single audited seed-derivation scheme. The
//! study's previous `seed ^ salt` derivation collides trivially
//! (`seed == salt` yields 0 for every figure), and the campaigns'
//! previous per-strike `seed * C ^ i` derivation gave adjacent strikes
//! near-identical seed bits (correlated streams). Every seed handed to
//! a campaign — per cell, per strike, per injection — now goes through
//! a full splitmix64 avalanche, so related base seeds and salts produce
//! unrelated streams. `mpr-exp`, `mpr-beam`, and `mpr-fault` all
//! derive through these functions.

/// One splitmix64 step: a full-avalanche 64-bit mix of the input.
///
/// Every output bit depends on every input bit, so `mix(s) ^ mix(s+1)`
/// behaves like an unrelated random pair — unlike the previous
/// `seed ^ salt` scheme.
#[inline]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic value in `[lo, hi)` derived from `(seed, index)`, the
/// workloads' one input generator. Every output lands on a 2^-20 grid,
/// so it is exact in single and double precision and rounds once into
/// half.
pub fn gen_value(seed: u64, index: u64, lo: f64, hi: f64) -> f64 {
    let bits = splitmix64(seed.wrapping_mul(0x5851_F42D_4C95_7F2D) ^ index);
    let unit = (bits >> 44) as f64 / (1u64 << 20) as f64;
    lo + unit * (hi - lo)
}

/// Derives a campaign seed from a base seed and a salt.
///
/// Both inputs are avalanched before combining, so neither
/// `mix_seed(s, s)` nor nearby salts collapse the stream. This is also
/// the per-strike derivation: `mix_seed(session_seed, strike_index)`
/// gives every strike an unrelated RNG stream even for adjacent
/// indices.
pub fn mix_seed(seed: u64, salt: u64) -> u64 {
    splitmix64(seed ^ splitmix64(salt))
}

/// A tiny deterministic generator for cheap sweeps that need far fewer
/// random bits than a full campaign (the accumulation ablation).
#[derive(Debug)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator whose stream is a pure function of `seed`.
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// FNV-1a hash of a byte string; the canonical experiment-cell hash.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_seed_does_not_collapse_on_equal_inputs() {
        // The old `seed ^ salt` scheme mapped every (s, s) pair to 0.
        assert_ne!(mix_seed(7, 7), 0);
        assert_ne!(mix_seed(7, 7), mix_seed(8, 8));
        assert_ne!(mix_seed(1, 2), mix_seed(2, 1));
    }

    #[test]
    fn adjacent_salts_produce_unrelated_streams() {
        // The per-strike derivation must not hand adjacent strikes
        // correlated seed bits (the old `seed * C ^ i` scheme differed
        // in only the low bits for adjacent `i`).
        for i in 0..64u64 {
            let a = mix_seed(42, i);
            let b = mix_seed(42, i + 1);
            let differing = (a ^ b).count_ones();
            assert!(differing > 16, "i={i}: {a:016x} vs {b:016x}");
        }
    }

    #[test]
    fn splitmix_reference_values_are_pinned() {
        // Pin the stream so cache keys and campaign seeds stay stable
        // across refactors (reference: Vigna's splitmix64.c, seed 0).
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(1), 0x910A_2DEC_8902_5CC1);
        let mut g = SplitMix::new(0);
        assert_eq!(g.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(g.next_u64(), 0x6E78_9E6A_A1B9_65F4);
    }

    #[test]
    fn generator_is_deterministic() {
        assert_eq!(gen_value(1, 2, 0.0, 1.0), gen_value(1, 2, 0.0, 1.0));
        assert_ne!(gen_value(1, 2, 0.0, 1.0), gen_value(1, 3, 0.0, 1.0));
        assert_ne!(gen_value(1, 2, 0.0, 1.0), gen_value(2, 2, 0.0, 1.0));
    }

    #[test]
    fn generated_values_stay_in_range() {
        for i in 0..1000 {
            let v = gen_value(7, i, 0.25, 1.75);
            assert!((0.25..1.75).contains(&v), "i={i} v={v}");
        }
    }

    #[test]
    fn generated_values_spread_over_the_range() {
        let n = 1000;
        let mean: f64 = (0..n).map(|i| gen_value(3, i, 0.0, 1.0)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.05, "mean={mean}");
    }

    #[test]
    fn fnv_is_stable() {
        assert_eq!(fnv1a64(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xAF63_DC4C_8601_EC8C);
        assert_ne!(fnv1a64(b"cell-a"), fnv1a64(b"cell-b"));
    }
}
