//! Fused multiply-add for binary16.
//!
//! `a * b + c` is evaluated in `f64`: the product of two binary16
//! significands has at most 22 bits, so the widened `f64` multiply is
//! **exact**, and the following `f64` add rounds the exact product-sum
//! once to 53 bits — wide enough (the aligned sum needs `p' >= 46`) that
//! [`Half::from_f64`]'s rounding straight to binary16 yields the fused
//! operation's single rounding. `f32` is *not* wide enough: a product
//! landing exactly on a binary16 tie with a tiny addend loses the
//! tiebreak in 24 bits. No `f64::mul_add` either: it lowers to a libm
//! call on targets without a hardware FMA unit, and the plain
//! `mul + add` is already exact up to that one rounding. The exact
//! `i128` reference this is proven against lives in the test-only
//! `oracle` module.

use super::Half;

impl Half {
    /// Fused multiply-add: `self * a + b` with a single rounding. Every
    /// NaN-producing case returns the canonical NaN `0x7E00`.
    ///
    /// ```rust
    /// use mpr_softfloat::Half;
    /// // 255 * 257 = 65535 overflows the format before adding, but the
    /// // fused form subtracts first conceptually: round(255*257 - 65504).
    /// let x = Half::from_f32(255.0);
    /// let y = Half::from_f32(257.0);
    /// let fused = x.mul_add(y, -Half::MAX);
    /// assert_eq!(fused.to_f32(), 31.0); // exact: 65535 - 65504
    /// // whereas the unfused form overflows to +inf then NaNs:
    /// assert!(((x * y) + -Half::MAX).is_nan() || ((x * y) + -Half::MAX).is_infinite());
    /// ```
    #[inline(always)]
    pub fn mul_add(self, a: Half, b: Half) -> Half {
        Half::from_f64(self.to_f64() * a.to_f64() + b.to_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fused_recovers_the_exact_rounding_residual() {
        // The canonical FMA idiom: r = fma(x, x, -round(x*x)) is the exact
        // rounding error of the product. Unfused arithmetic always yields
        // zero; the fused form recovers the lost 2^-20 term.
        let x = Half::from_bits(0x3C01); // 1 + 2^-10
        let rounded = x * x; // 1 + 2^-9 (the 2^-20 term is rounded away)
        let residual = x.mul_add(x, -rounded);
        assert_eq!(residual.to_f64(), 2f64.powi(-20), "exact residual");
        let unfused = x * x - rounded;
        assert!(unfused.is_zero(), "mul+add cannot see the residual");
    }

    #[test]
    fn special_cases() {
        let inf = Half::INFINITY;
        assert!(Half::ZERO.mul_add(inf, Half::ONE).is_nan());
        assert!(inf.mul_add(Half::ONE, Half::NEG_INFINITY).is_nan());
        assert_eq!(inf.mul_add(Half::ONE, Half::ONE), inf);
        assert_eq!(Half::ONE.mul_add(Half::ONE, inf), inf);
        assert!(Half::NAN.mul_add(Half::ONE, Half::ONE).is_nan());
        assert_eq!(Half::TWO.mul_add(Half::TWO, Half::NEG_ONE).to_f32(), 3.0);
    }

    #[test]
    fn zero_sign_rules() {
        // (+0 * +1) + +0 = +0 ; (-0 * +1) + +0 = +0 ; (-0 * +1) + -0 = -0
        assert_eq!(Half::ZERO.mul_add(Half::ONE, Half::ZERO).to_bits(), 0x0000);
        assert_eq!(
            Half::NEG_ZERO.mul_add(Half::ONE, Half::ZERO).to_bits(),
            0x0000
        );
        assert_eq!(
            Half::NEG_ZERO.mul_add(Half::ONE, Half::NEG_ZERO).to_bits(),
            0x8000
        );
        // Exact cancellation gives +0 under round-to-nearest.
        assert_eq!(
            Half::ONE.mul_add(Half::ONE, Half::NEG_ONE).to_bits(),
            0x0000
        );
    }

    #[test]
    fn overflow_to_infinity() {
        assert_eq!(Half::MAX.mul_add(Half::TWO, Half::ZERO), Half::INFINITY);
        assert_eq!(Half::MIN.mul_add(Half::TWO, Half::ZERO), Half::NEG_INFINITY);
    }

    #[test]
    fn subnormal_products_survive() {
        // min_subnormal * 0.5 underflows to a tie with zero -> rounds to 0,
        // but adding min_subnormal first keeps the information: the fused
        // result of tiny*0.5 + tiny is 1.5*tiny, rounding to 2*tiny (even).
        let tiny = Half::MIN_POSITIVE_SUBNORMAL;
        let half = Half::from_f32(0.5);
        let fused = tiny.mul_add(half, tiny);
        assert_eq!(fused.to_bits(), 0x0002);
        let unfused = tiny * half + tiny;
        assert_eq!(unfused.to_bits(), 0x0001, "unfused loses the product");
    }
}
