//! The integer reference implementation of binary16, kept as the test
//! oracle for the production kernels in `convert.rs` and `fma.rs`.
//!
//! Nothing here is fast or branch-free; everything here is obviously
//! exact. Narrowing decomposes the source into an exact integer
//! magnitude and rounds once with [`round_pack_f16`]; the fused
//! multiply-add aligns the exact 22-bit product and the addend in `i128`
//! fixed point and rounds the exact sum once. The differential tests
//! below hold every production conversion and operation to these
//! bodies — exhaustively where 2^16 or 2^32 cases fit, by grids and
//! edge-biased property tests elsewhere, plus two `#[ignore]`d sweeps
//! over all 2^32 `f32` patterns and all 2^32 operand pairs (run them
//! with `cargo test --release -p mpr-softfloat -- --include-ignored`).
//!
//! NaN results narrow to the canonical `0x7E00` here too, so bit
//! equality is the contract everywhere, NaNs included.

use super::Half;

/// Right-shifts `mag` by `shift`, rounding to nearest-even with a sticky
/// bit (all shifted-out information participates in the rounding decision).
fn rshift_rne(mag: u128, shift: u32) -> u128 {
    if shift == 0 {
        return mag;
    }
    if shift >= 128 {
        // The value is strictly below half an ULP of the target position
        // (magnitudes are < 2^127 in practice), so it rounds to zero.
        return 0;
    }
    let half = 1u128 << (shift - 1);
    let rem = mag & ((1u128 << shift) - 1);
    let q = mag >> shift;
    if rem > half || (rem == half && (q & 1) == 1) {
        q + 1
    } else {
        q
    }
}

/// Rounds the positive magnitude `mag * 2^lsb_exp` to binary16 (RNE) and
/// returns the bit pattern without a sign. Returns `0x7C00` (infinity) on
/// overflow; underflow goes gradually through subnormals to zero.
fn round_pack_f16(mag: u128, lsb_exp: i32) -> u16 {
    if mag == 0 {
        return 0;
    }
    let top = 127 - mag.leading_zeros() as i32; // position of the leading 1
    let e = lsb_exp + top; // unbiased exponent of the value

    if e >= -14 {
        // Normal candidate: produce an 11-bit significand (implicit bit kept).
        let sig = if top >= 10 {
            rshift_rne(mag, (top - 10) as u32)
        } else {
            mag << (10 - top)
        };
        // Rounding may carry the significand from 0x7FF to 0x800; the
        // combined encode below absorbs the carry into the exponent field.
        let mut e = e;
        let mut sig = sig;
        if sig == 0x800 {
            sig = 0x400;
            e += 1;
        }
        if e > 15 {
            return 0x7C00;
        }
        debug_assert!((0x400..0x800).contains(&sig));
        (((e + 14) as u16) << 10) + sig as u16
    } else {
        // Subnormal candidate: the target LSB sits at 2^-24 regardless of
        // the value's own exponent.
        let shift = -24 - lsb_exp;
        let sig = if shift >= 0 {
            rshift_rne(mag, shift as u32)
        } else {
            mag << (-shift)
        };
        // `sig == 0x400` after rounding means the value rounded up to the
        // smallest normal; the plain encode is already correct for that.
        debug_assert!(sig <= 0x400);
        sig as u16
    }
}

/// Decomposes a finite nonzero `f64` into `(negative, magnitude, lsb_exp)`
/// such that the value equals `±magnitude * 2^lsb_exp` exactly.
fn decompose_f64(v: f64) -> (bool, u128, i32) {
    let bits = v.to_bits();
    let neg = bits >> 63 != 0;
    let e = ((bits >> 52) & 0x7FF) as i32;
    let frac = bits & ((1u64 << 52) - 1);
    if e == 0 {
        (neg, frac as u128, -1074)
    } else {
        (neg, (frac | (1 << 52)) as u128, e - 1075)
    }
}

/// Same decomposition for `f32`.
fn decompose_f32(v: f32) -> (bool, u128, i32) {
    let bits = v.to_bits();
    let neg = bits >> 31 != 0;
    let e = ((bits >> 23) & 0xFF) as i32;
    let frac = bits & ((1u32 << 23) - 1);
    if e == 0 {
        (neg, frac as u128, -149)
    } else {
        (neg, (frac | (1 << 23)) as u128, e - 150)
    }
}

/// Decomposes a finite `Half` into `(negative, significand, lsb_exp)` with
/// `value == ±significand * 2^lsb_exp` exactly. Zero yields `(sign, 0, _)`.
fn decompose(h: Half) -> (bool, u32, i32) {
    let neg = h.is_sign_negative();
    let e = h.exp_field() as i32;
    let f = h.frac_field() as u32;
    if e == 0 {
        (neg, f, -24)
    } else {
        (neg, f | 0x400, e - 25)
    }
}

/// Reference `f64 -> binary16`: one rounding of the exact magnitude.
pub(super) fn from_f64(v: f64) -> Half {
    if v.is_nan() {
        return Half::NAN;
    }
    if v.is_infinite() {
        return if v > 0.0 {
            Half::INFINITY
        } else {
            Half::NEG_INFINITY
        };
    }
    let (neg, mag, lsb_exp) = decompose_f64(v);
    let bits = round_pack_f16(mag, lsb_exp);
    Half::from_bits(if neg { bits | 0x8000 } else { bits })
}

/// Reference `f32 -> binary16`: one rounding of the exact magnitude.
pub(super) fn from_f32(v: f32) -> Half {
    if v.is_nan() {
        return Half::NAN;
    }
    if v.is_infinite() {
        return if v > 0.0 {
            Half::INFINITY
        } else {
            Half::NEG_INFINITY
        };
    }
    let (neg, mag, lsb_exp) = decompose_f32(v);
    let bits = round_pack_f16(mag, lsb_exp);
    Half::from_bits(if neg { bits | 0x8000 } else { bits })
}

/// Reference exact widening to `f32`.
pub(super) fn to_f32(h: Half) -> f32 {
    let sign = if h.is_sign_negative() { -1.0f32 } else { 1.0 };
    match (h.exp_field(), h.frac_field()) {
        (0, 0) => sign * 0.0,
        // Subnormal: frac * 2^-24, exact in f32.
        (0, f) => sign * f as f32 * f32::from_bits(0x3380_0000), // 2^-24
        (0x1F, 0) => sign * f32::INFINITY,
        (0x1F, _) => f32::NAN,
        (e, f) => {
            // (1024 + f) * 2^(e - 25); both factors exact in f32.
            let sig = (1024 + f) as f32;
            sign * sig * f32::from_bits(((e as i32 - 25 + 127) as u32) << 23)
        }
    }
}

/// Reference exact widening to `f64`.
pub(super) fn to_f64(h: Half) -> f64 {
    let sign = if h.is_sign_negative() { -1.0f64 } else { 1.0 };
    match (h.exp_field(), h.frac_field()) {
        (0, 0) => sign * 0.0,
        (0, f) => sign * f as f64 * 2f64.powi(-24),
        (0x1F, 0) => sign * f64::INFINITY,
        (0x1F, _) => f64::NAN,
        (e, f) => sign * (1024 + f) as f64 * 2f64.powi(e as i32 - 25),
    }
}

/// Reference fused multiply-add `a * b + c`: the 11x11-bit product is
/// exact in 22 bits, the addend is aligned into a shared fixed-point
/// frame (the binary16 exponent range spans < 80 bits, so `i128` holds
/// every intermediate exactly), and the sum is rounded **once**.
pub(super) fn fma(a: Half, b: Half, c: Half) -> Half {
    // IEEE-754 special-case ladder.
    if a.is_nan() || b.is_nan() || c.is_nan() {
        return Half::NAN;
    }
    let prod_neg = a.is_sign_negative() ^ b.is_sign_negative();
    if a.is_infinite() || b.is_infinite() {
        if a.is_zero() || b.is_zero() {
            return Half::NAN; // 0 * inf
        }
        if c.is_infinite() && (c.is_sign_negative() != prod_neg) {
            return Half::NAN; // inf - inf
        }
        return if prod_neg {
            Half::NEG_INFINITY
        } else {
            Half::INFINITY
        };
    }
    if c.is_infinite() {
        return c;
    }

    let (_, ma, ea) = decompose(a);
    let (_, mb, eb) = decompose(b);
    let (cn, mc, ec) = decompose(c);

    // Exact product: <= 22 bits of significand.
    let mp = (ma as i128) * (mb as i128);
    let ep = ea + eb;

    if mp == 0 && mc == 0 {
        // Zero result from zero inputs: IEEE sign rules. (-0)+(+0)=+0
        // under RNE unless both terms are negative.
        return if prod_neg && cn {
            Half::NEG_ZERO
        } else {
            Half::ZERO
        };
    }

    // Align both terms to the smaller LSB exponent. Exponent span:
    // ep in [-48, 10], ec in [-24, 5] -> shift <= 58; operands <= 22
    // bits, so everything fits comfortably in i128.
    let e0 = ep.min(ec);
    let tp = (if prod_neg { -mp } else { mp }) << (ep - e0) as u32;
    let tc = (if cn { -(mc as i128) } else { mc as i128 }) << (ec - e0) as u32;
    let sum = tp + tc;

    if sum == 0 {
        // Exact cancellation of nonzero terms: RNE gives +0.
        return Half::ZERO;
    }
    let neg = sum < 0;
    let bits = round_pack_f16(sum.unsigned_abs(), e0);
    Half::from_bits(if neg { bits | 0x8000 } else { bits })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wide;
    use proptest::prelude::*;

    fn h(bits: u16) -> Half {
        Half::from_bits(bits)
    }

    fn oracle_fma(a: u16, b: u16, c: u16) -> u16 {
        fma(h(a), h(b), h(c)).to_bits()
    }

    /// `a + b` is `fma(a, 1, b)`, rounded once from exact integers.
    fn oracle_add(a: u16, b: u16) -> u16 {
        oracle_fma(a, Half::ONE.to_bits(), b)
    }

    /// `a * b` is `fma(a, b, -0)`: a `-0` addend changes no product,
    /// zero products included (IEEE: `x + -0 == x` for every `x`).
    fn oracle_mul(a: u16, b: u16) -> u16 {
        oracle_fma(a, b, Half::NEG_ZERO.to_bits())
    }

    #[test]
    fn widen_matches_oracle_for_all_bit_patterns() {
        for bits in 0u16..=u16::MAX {
            let x = h(bits);
            assert_eq!(
                x.to_f32().to_bits(),
                to_f32(x).to_bits(),
                "to_f32 {bits:#06x}"
            );
            assert_eq!(
                x.to_f64().to_bits(),
                to_f64(x).to_bits(),
                "to_f64 {bits:#06x}"
            );
        }
    }

    /// Every non-NaN binary16 value and the exact midpoint between each
    /// finite value and its finite bit-successor (the RNE ties), widened
    /// by `widen`. Both are exact in `f32` (a tie needs 12 bits). The
    /// infinities are centers too: their probes are the largest finite
    /// wide values and the lowest-payload signalling NaNs, the edges of
    /// the narrowing NaN test.
    fn centers(widen: fn(Half) -> f64) -> impl Iterator<Item = f64> {
        (0u16..=u16::MAX).flat_map(move |bits| {
            let (lo, hi) = (h(bits), h(bits.wrapping_add(1)));
            let tie = (lo.is_finite() && hi.is_finite()).then(|| (widen(lo) + widen(hi)) / 2.0);
            (!lo.is_nan()).then(|| widen(lo)).into_iter().chain(tie)
        })
    }

    #[test]
    fn narrow_matches_oracle_around_every_half() {
        // Every binary16 value and every tie between neighbours,
        // nudged by a few f32 ULPs in each direction, crosses every
        // rounding boundary (ties, carries, subnormal threshold,
        // overflow threshold).
        for center in centers(|x| f64::from(to_f32(x))) {
            let base = (center as f32).to_bits();
            for delta in [-2i64, -1, 0, 1, 2] {
                let probe = base as i64 + delta;
                if !(0..=u32::MAX as i64).contains(&probe) {
                    continue;
                }
                let f = f32::from_bits(probe as u32);
                assert_eq!(
                    Half::from_f32(f).to_bits(),
                    from_f32(f).to_bits(),
                    "f={f:?} ({probe:#010x})"
                );
            }
        }
    }

    #[test]
    fn narrow_matches_oracle_on_specials_and_random_patterns() {
        for f in [
            0.0f32,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
            f32::MIN_POSITIVE,
            f32::MAX,
            65519.999,
            65520.0,
            65521.0,
            -65520.0,
            2f32.powi(-24),
            2f32.powi(-25),
            1.5 * 2f32.powi(-25),
        ] {
            assert_eq!(
                Half::from_f32(f).to_bits(),
                from_f32(f).to_bits(),
                "f={f:?}"
            );
        }
        // A cheap xorshift sweep over arbitrary f32 bit patterns.
        let mut x = 0x2545F491_4F6CDD1Du64;
        for _ in 0..200_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let f = f32::from_bits(x as u32);
            assert_eq!(
                Half::from_f32(f).to_bits(),
                from_f32(f).to_bits(),
                "f={f:?} ({:#010x})",
                x as u32
            );
        }
    }

    #[test]
    fn narrow64_matches_oracle_around_every_half() {
        // Same boundary sweep as the f32 narrow test, in f64 ULPs.
        for center in centers(to_f64) {
            let base = center.to_bits();
            for delta in [-2i128, -1, 0, 1, 2] {
                let probe = base as i128 + delta;
                if !(0..=u64::MAX as i128).contains(&probe) {
                    continue;
                }
                let f = f64::from_bits(probe as u64);
                assert_eq!(
                    Half::from_f64(f).to_bits(),
                    from_f64(f).to_bits(),
                    "f={f:?} ({probe:#018x})"
                );
            }
        }
    }

    #[test]
    fn narrow64_matches_oracle_on_specials_and_random_patterns() {
        for f in [
            0.0f64,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
            f64::MIN_POSITIVE,
            f64::MAX,
            65519.999,
            // The overflow tie: rounds to infinity under RNE.
            65520.0,
            65521.0,
            -65520.0,
            2f64.powi(-24),
            2f64.powi(-25),
            1.5 * 2f64.powi(-25),
            // Below half the smallest subnormal: rounds to zero.
            2f64.powi(-26),
            2f64.powi(-1000),
        ] {
            assert_eq!(
                Half::from_f64(f).to_bits(),
                from_f64(f).to_bits(),
                "f={f:?}"
            );
        }
        let mut x = 0x9E3779B9_7F4A7C15u64;
        for _ in 0..200_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let f = f64::from_bits(x);
            assert_eq!(
                Half::from_f64(f).to_bits(),
                from_f64(f).to_bits(),
                "f={f:?} ({x:#018x})"
            );
        }
    }

    #[test]
    fn fma_matches_oracle_on_grid() {
        // Two grids over every kind of pattern (normals, subnormals,
        // zeros, infinities, NaNs): stride-251 multiplier and
        // multiplicand against a spread of addends, and stride 419 on
        // all three operands.
        for (ab_step, c_step) in [(251, 4099), (419, 419)] {
            let vals: Vec<u16> = (0..=u16::MAX).step_by(ab_step).collect();
            for &a in &vals {
                for &b in &vals {
                    for c in (0..=u16::MAX).step_by(c_step) {
                        let got = h(a).mul_add(h(b), h(c)).to_bits();
                        assert_eq!(got, oracle_fma(a, b, c), "a={a:#06x} b={b:#06x} c={c:#06x}");
                    }
                }
            }
        }
    }

    #[test]
    fn fma_nan_and_zero_sign_cases() {
        let nan = Half::NAN.to_bits();
        let inf = Half::INFINITY.to_bits();
        let zero = Half::ZERO.to_bits();
        let neg_zero = Half::NEG_ZERO.to_bits();
        let one = Half::ONE.to_bits();
        let neg_one = Half::NEG_ONE.to_bits();
        for (a, b, c) in [
            // NaN cases: all canonicalize to the positive quiet NaN.
            (nan, one, one),
            (zero, inf, one),
            (inf, one, inf | 0x8000),
            // Zero-sign rules.
            (zero, one, zero),
            (neg_zero, one, zero),
            (neg_zero, one, neg_zero),
            (one, one, neg_one),
            (zero, neg_zero, zero),
            (zero, neg_zero, neg_zero),
        ] {
            assert_eq!(
                h(a).mul_add(h(b), h(c)).to_bits(),
                oracle_fma(a, b, c),
                "a={a:#06x} b={b:#06x} c={c:#06x}"
            );
        }
    }

    /// The RNE tie everyone gets wrong: a product landing exactly on a
    /// binary16 tie, perturbed by a tiny addend the intermediate must
    /// not lose. (`0x2b24 * 0xfb00` is exactly `-3199.0`, the tie
    /// between `-3198` and `-3200`; adding the small positive `0x06dd`
    /// must break the tie toward `-3198`.)
    #[test]
    fn fma_keeps_tiny_addend_next_to_a_product_tie() {
        let (a, b, c) = (0x2b24u16, 0xfb00u16, 0x06ddu16);
        let mut acc = [c];
        wide::fma(&[a], &[b], &mut acc);
        assert_eq!(acc[0], h(a).mul_add(h(b), h(c)).to_bits());
        assert_eq!(acc[0], oracle_fma(a, b, c));
        assert_eq!(acc[0], 0xEA3F); // -3198, not the naive tie-to-even -3200
    }

    /// Any bit pattern: normals, subnormals, zeros, infinities, NaNs.
    fn any_bits() -> impl Strategy<Value = u16> {
        any::<u16>()
    }

    /// Biased toward the edge regions where rounding bugs live:
    /// subnormals (exp field 0), values near the overflow boundary,
    /// infinities, NaNs with varied payloads, and plain normals.
    fn edgy_bits() -> impl Strategy<Value = u16> {
        prop_oneof![
            // Subnormals and zeros of both signs.
            (any::<u16>(), any::<bool>())
                .prop_map(|(m, s)| (m & 0x03FF) | if s { 0x8000 } else { 0 }),
            // Smallest normals: exponent field 1.
            (any::<u16>(), any::<bool>())
                .prop_map(|(m, s)| 0x0400 | (m & 0x03FF) | if s { 0x8000 } else { 0 }),
            // Largest finite magnitudes: exponent field 30.
            (any::<u16>(), any::<bool>())
                .prop_map(|(m, s)| 0x7800 | (m & 0x03FF) | if s { 0x8000 } else { 0 }),
            // Infinities and NaNs with arbitrary payloads.
            (any::<u16>(), any::<bool>())
                .prop_map(|(m, s)| 0x7C00 | (m & 0x03FF) | if s { 0x8000 } else { 0 }),
            // Anything at all.
            any::<u16>(),
        ]
    }

    /// Mantissa patterns that make RNE ties likely under add/mul: low
    /// bits cleared so exact halves fall on rounding boundaries.
    fn tie_prone_bits() -> impl Strategy<Value = u16> {
        (0u16..0x20, 0u16..0x40, any::<bool>()).prop_map(|(e, m, s)| {
            let exp = (e % 31) << 10;
            // Sparse mantissas (a few high bits) produce products whose
            // discarded tail is exactly half an ULP.
            let mant = (m & 0x7) << 7 | (m >> 3) & 1;
            exp | mant | if s { 0x8000 } else { 0 }
        })
    }

    /// Checks `+ - *` on every (a, b) lane against the oracle.
    fn check_binary_ops(a: &[u16], b: &[u16]) {
        for (&x, &y) in a.iter().zip(b) {
            let (hx, hy) = (h(x), h(y));
            assert_eq!((hx + hy).to_bits(), oracle_add(x, y), "{x:#06x} + {y:#06x}");
            assert_eq!(
                (hx - hy).to_bits(),
                oracle_add(x, y ^ 0x8000),
                "{x:#06x} - {y:#06x}"
            );
            assert_eq!((hx * hy).to_bits(), oracle_mul(x, y), "{x:#06x} * {y:#06x}");
        }
    }

    /// Checks the scalar FMA, `wide::fma`, and `wide::row_fma` over a
    /// one-row matrix against the oracle on every (a, b, c) lane.
    fn check_fma_ops(a: &[u16], b: &[u16], c: &[u16]) {
        let mut acc = c.to_vec();
        wide::fma(a, b, &mut acc);
        let mut racc: Vec<Half> = c.iter().map(|&v| h(v)).collect();
        let row: Vec<Half> = b.iter().map(|&v| h(v)).collect();
        wide::row_fma(&[h(a[0])], &row, &mut racc);
        for i in 0..a.len() {
            let want = oracle_fma(a[i], b[i], c[i]);
            assert_eq!(
                h(a[i]).mul_add(h(b[i]), h(c[i])).to_bits(),
                want,
                "mul_add lane {i}: a={:#06x} b={:#06x} c={:#06x}",
                a[i],
                b[i],
                c[i]
            );
            assert_eq!(acc[i], want, "wide::fma lane {i}");
            assert_eq!(
                racc[i].to_bits(),
                oracle_fma(a[0], b[i], c[i]),
                "wide::row_fma lane {i}"
            );
        }
    }

    proptest! {
        #[test]
        fn binary_ops_match_oracle_on_arbitrary_lanes(
            a in proptest::collection::vec(any_bits(), 1..48),
            seed in any::<u64>(),
        ) {
            // Derive b from a and a seed so lengths always match.
            let b: Vec<u16> = a
                .iter()
                .enumerate()
                .map(|(i, &x)| x ^ (seed.rotate_left(i as u32) as u16))
                .collect();
            check_binary_ops(&a, &b);
        }

        #[test]
        fn binary_ops_match_oracle_on_edge_lanes(
            a in proptest::collection::vec(edgy_bits(), 48..49),
            b in proptest::collection::vec(edgy_bits(), 48..49),
        ) {
            check_binary_ops(&a, &b);
        }

        #[test]
        fn binary_ops_match_oracle_on_tie_prone_lanes(
            a in proptest::collection::vec(tie_prone_bits(), 48..49),
            b in proptest::collection::vec(tie_prone_bits(), 48..49),
        ) {
            check_binary_ops(&a, &b);
        }

        #[test]
        fn fma_matches_oracle_on_arbitrary_lanes(
            a in proptest::collection::vec(any_bits(), 1..48),
            seed in any::<u64>(),
        ) {
            let b: Vec<u16> = a
                .iter()
                .enumerate()
                .map(|(i, &x)| x ^ (seed.rotate_left(i as u32) as u16))
                .collect();
            let c: Vec<u16> = a
                .iter()
                .enumerate()
                .map(|(i, &x)| x.wrapping_add((seed.rotate_right(i as u32 + 7)) as u16))
                .collect();
            check_fma_ops(&a, &b, &c);
        }

        #[test]
        fn fma_matches_oracle_on_edge_lanes(
            a in proptest::collection::vec(edgy_bits(), 1..48),
            b0 in proptest::collection::vec(edgy_bits(), 48..49),
            c0 in proptest::collection::vec(edgy_bits(), 48..49),
        ) {
            check_fma_ops(&a, &b0[..a.len()], &c0[..a.len()]);
        }

        #[test]
        fn fma_matches_oracle_on_tie_prone_lanes(
            a in proptest::collection::vec(tie_prone_bits(), 1..48),
            b0 in proptest::collection::vec(tie_prone_bits(), 48..49),
            c0 in proptest::collection::vec(tie_prone_bits(), 48..49),
        ) {
            check_fma_ops(&a, &b0[..a.len()], &c0[..a.len()]);
        }

        #[test]
        fn nan_and_infinity_lanes_match_oracle(
            payload in 1u16..0x0400,
            sign in any::<bool>(),
            x in any_bits(),
        ) {
            let s = if sign { 0x8000 } else { 0 };
            let (nan, inf) = (0x7C00 | payload | s, 0x7C00 | s);
            check_binary_ops(&[nan, x, inf, x, inf], &[x, nan, x, inf, inf]);
            check_fma_ops(
                &[nan, x, x, inf, x, inf],
                &[x, x, nan, x, inf, inf],
                &[x, nan, x, x, x, x],
            );
        }
    }

    /// Runs `body(i)` for every `i` in `0..outer`, strided over one
    /// scoped thread per available core.
    fn sweep(outer: u32, body: impl Fn(u32) + Sync) {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        std::thread::scope(|s| {
            for t in 0..threads {
                let body = &body;
                s.spawn(move || (t as u32..outer).step_by(threads).for_each(body));
            }
        });
    }

    #[test]
    #[ignore = "exhaustive over 2^32 f32 patterns; about a minute in release"]
    fn from_f32_matches_oracle_for_every_f32() {
        sweep(1 << 16, |hi| {
            for lo in 0..=u16::MAX as u32 {
                let f = f32::from_bits(hi << 16 | lo);
                assert_eq!(
                    Half::from_f32(f).to_bits(),
                    from_f32(f).to_bits(),
                    "f={f:?} ({:#010x})",
                    f.to_bits()
                );
            }
        });
    }

    #[test]
    #[ignore = "exhaustive over 2^32 operand pairs; minutes in release"]
    fn add_sub_mul_div_match_oracle_for_every_pair() {
        sweep(1 << 16, |a| {
            let (a, x) = (a as u16, h(a as u16));
            for b in 0..=u16::MAX {
                let y = h(b);
                assert_eq!((x + y).to_bits(), oracle_add(a, b), "{a:#06x} + {b:#06x}");
                assert_eq!(
                    (x - y).to_bits(),
                    oracle_add(a, b ^ 0x8000),
                    "{a:#06x} - {b:#06x}"
                );
                assert_eq!((x * y).to_bits(), oracle_mul(a, b), "{a:#06x} * {b:#06x}");
                assert_eq!(
                    (x / y).to_bits(),
                    from_f64(to_f64(x) / to_f64(y)).to_bits(),
                    "{a:#06x} / {b:#06x}"
                );
            }
        });
    }
}
