//! Binary16 arithmetic.
//!
//! `+ - * /` and `sqrt` are computed in `f32` and rounded back. Because
//! `f32` carries 24 significand bits and binary16 carries 11, the
//! `p' >= 2p + 2` condition of Figueroa's double-rounding theorem holds
//! with equality, so the two roundings collapse to one: every result below
//! is the correctly rounded binary16 result. The tests in this module
//! cross-check `+`, `*` and `/` against the exact integer reference in the
//! test-only `oracle` module (which also sweeps every operand pair).

use super::Half;

impl Half {
    /// Correctly rounded addition (used by the `+` operator).
    #[inline]
    pub(crate) fn add_impl(self, rhs: Half) -> Half {
        Half::from_f32(self.to_f32() + rhs.to_f32())
    }

    /// Correctly rounded subtraction.
    #[inline]
    pub(crate) fn sub_impl(self, rhs: Half) -> Half {
        Half::from_f32(self.to_f32() - rhs.to_f32())
    }

    /// Correctly rounded multiplication.
    #[inline]
    pub(crate) fn mul_impl(self, rhs: Half) -> Half {
        Half::from_f32(self.to_f32() * rhs.to_f32())
    }

    /// Correctly rounded division.
    #[inline]
    pub(crate) fn div_impl(self, rhs: Half) -> Half {
        Half::from_f32(self.to_f32() / rhs.to_f32())
    }

    /// Remainder with the sign semantics of Rust's `%` on primitives.
    ///
    /// The exact remainder of two binary16 values is always representable
    /// in binary16, and `f32 % f32` is exact, so no rounding occurs at all.
    #[inline]
    pub(crate) fn rem_impl(self, rhs: Half) -> Half {
        Half::from_f32(self.to_f32() % rhs.to_f32())
    }

    /// Correctly rounded square root.
    ///
    /// ```rust
    /// use mpr_softfloat::Half;
    /// assert_eq!(Half::from_f32(9.0).sqrt().to_f32(), 3.0);
    /// assert!(Half::from_f32(-1.0).sqrt().is_nan());
    /// ```
    pub fn sqrt(self) -> Half {
        Half::from_f32(self.to_f32().sqrt())
    }

    /// Reciprocal, correctly rounded.
    pub fn recip(self) -> Half {
        Half::ONE.div_impl(self)
    }

    /// Largest integer less than or equal to `self`.
    ///
    /// Exact: every binary16 value's floor is binary16-representable
    /// (values with |x| >= 1024 are already integers).
    pub fn floor(self) -> Half {
        Half::from_f32(self.to_f32().floor())
    }

    /// Smallest integer greater than or equal to `self`.
    pub fn ceil(self) -> Half {
        Half::from_f32(self.to_f32().ceil())
    }

    /// Integer part (rounds toward zero).
    pub fn trunc(self) -> Half {
        Half::from_f32(self.to_f32().trunc())
    }

    /// Fractional part: `self - self.trunc()`.
    pub fn fract(self) -> Half {
        self.sub_impl(self.trunc())
    }

    /// Rounds half-way cases away from zero (like `f32::round`).
    pub fn round(self) -> Half {
        Half::from_f32(self.to_f32().round())
    }

    /// Raises to an integer power by binary exponentiation in binary16
    /// (each intermediate product is rounded, as in-precision hardware
    /// would).
    pub fn powi(self, mut n: i32) -> Half {
        let mut base = if n < 0 { self.recip() } else { self };
        if n < 0 {
            n = -n;
        }
        let mut acc = Half::ONE;
        while n > 0 {
            if n & 1 == 1 {
                acc = acc.mul_impl(base);
            }
            base = base.mul_impl(base);
            n >>= 1;
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::super::oracle;
    use super::*;
    use std::hint::black_box;

    /// All finite binary16 values, coarsely strided for exhaustive-ish
    /// pair testing at reasonable cost.
    fn sample_values(stride: u16) -> Vec<Half> {
        (0..=u16::MAX)
            .step_by(stride as usize)
            .map(Half::from_bits)
            .filter(|h| h.is_finite())
            .collect()
    }

    #[test]
    fn addition_matches_exact_reference() {
        // a + b == fma(a, 1, b) which is rounded once from exact integers.
        for &a in &sample_values(97) {
            for &b in &sample_values(131) {
                let fast = a + b;
                let exact = oracle::fma(a, Half::ONE, b);
                assert_eq!(
                    fast.to_bits(),
                    exact.to_bits(),
                    "a={a:?} b={b:?} fast={fast:?} exact={exact:?}"
                );
            }
        }
    }

    #[test]
    fn multiplication_matches_exact_reference() {
        // a * b == fma(a, b, -0): adding -0 changes no product, not even
        // the sign of a zero one (IEEE: x + (-0) == x for every x).
        for &a in &sample_values(101) {
            for &b in &sample_values(127) {
                let fast = a * b;
                let exact = oracle::fma(a, b, Half::NEG_ZERO);
                assert_eq!(fast.to_bits(), exact.to_bits(), "a={a:?} b={b:?}");
            }
        }
    }

    #[test]
    fn division_agrees_with_f64_single_rounding() {
        // f64 has 53 >= 2*11+2 significand bits, so rounding the f64
        // quotient once is also the correctly rounded result; both paths
        // must agree bit-for-bit.
        for &a in &sample_values(89) {
            for &b in &sample_values(113) {
                let via_f32 = a / b;
                let via_f64 = oracle::from_f64(oracle::to_f64(a) / oracle::to_f64(b));
                assert_eq!(via_f32.to_bits(), via_f64.to_bits(), "a={a:?} b={b:?}");
            }
        }
    }

    #[test]
    fn sqrt_exhaustive_against_f64() {
        for bits in 0..=u16::MAX {
            let h = Half::from_bits(bits);
            let via_f32 = h.sqrt();
            let via_f64 = oracle::from_f64(oracle::to_f64(h).sqrt());
            assert_eq!(via_f32.to_bits(), via_f64.to_bits(), "bits={bits:#06x}");
        }
    }

    #[test]
    fn special_value_arithmetic() {
        let inf = Half::INFINITY;
        assert!((inf - inf).is_nan());
        assert!((Half::ZERO * inf).is_nan());
        assert!((Half::ZERO / Half::ZERO).is_nan());
        assert_eq!(Half::ONE / Half::ZERO, inf);
        assert_eq!(Half::NEG_ONE / Half::ZERO, Half::NEG_INFINITY);
        assert_eq!(inf + inf, inf);
        assert!((Half::NAN + Half::ONE).is_nan());
        assert!((Half::MAX + Half::MAX).is_infinite());
    }

    #[test]
    fn nan_results_are_canonical() {
        // Opaque operands keep the compiler from folding these, so the
        // host's default NaN (negative on x86) reaches the narrowing.
        let (zero, one, inf) = (
            black_box(Half::ZERO),
            black_box(Half::ONE),
            black_box(Half::INFINITY),
        );
        let neg_nan = black_box(Half::from_bits(0xFE01));
        let results = [
            inf - inf,
            inf + -inf,
            zero * inf,
            zero / zero,
            inf / inf,
            one % zero,
            inf % one,
            (-one).sqrt(),
            neg_nan + one,
            zero.mul_add(inf, one),
            inf.mul_add(one, -inf),
            neg_nan.mul_add(one, one),
            Half::from_f32(black_box(-f32::NAN)),
            Half::from_f32(black_box(0.0f32) / black_box(0.0f32)),
            Half::from_f64(black_box(-f64::NAN)),
            Half::from_f64(black_box(f64::INFINITY) - black_box(f64::INFINITY)),
        ];
        for (i, r) in results.into_iter().enumerate() {
            assert_eq!(r.to_bits(), Half::NAN.to_bits(), "case {i}: {r:?}");
        }
    }

    #[test]
    fn subnormal_arithmetic() {
        let tiny = Half::MIN_POSITIVE_SUBNORMAL;
        assert_eq!(tiny + tiny, Half::from_bits(0x0002));
        assert_eq!(tiny * Half::TWO, Half::from_bits(0x0002));
        // Gradual underflow: MIN_POSITIVE / 2 is subnormal, not zero.
        let halved = Half::MIN_POSITIVE / Half::TWO;
        assert!(halved.is_subnormal());
        assert_eq!(halved.to_f64(), 2f64.powi(-15));
    }

    #[test]
    fn remainder_is_exact() {
        let a = Half::from_f32(7.5);
        let b = Half::from_f32(2.0);
        assert_eq!((a % b).to_f32(), 1.5);
        assert_eq!((-a % b).to_f32(), -1.5);
    }

    #[test]
    fn powi_basics() {
        assert_eq!(Half::TWO.powi(10).to_f32(), 1024.0);
        assert_eq!(Half::TWO.powi(0), Half::ONE);
        assert_eq!(Half::TWO.powi(-1).to_f32(), 0.5);
        assert!(Half::TWO.powi(16).is_infinite());
    }

    #[test]
    fn rounding_family_is_exact_for_all_values() {
        for bits in (0..=u16::MAX).step_by(7) {
            let h = Half::from_bits(bits);
            if !h.is_finite() {
                continue;
            }
            let v = h.to_f64();
            assert_eq!(h.floor().to_f64(), v.floor(), "floor {v}");
            assert_eq!(h.ceil().to_f64(), v.ceil(), "ceil {v}");
            assert_eq!(h.trunc().to_f64(), v.trunc(), "trunc {v}");
            assert_eq!(h.round().to_f64(), v.round(), "round {v}");
        }
    }

    #[test]
    fn fract_plus_trunc_reassembles() {
        for v in [2.75f64, -2.75, 0.5, -0.5, 1023.5] {
            let h = Half::from_f64(v);
            assert_eq!((h.trunc() + h.fract()).to_f64(), v, "{v}");
        }
        assert_eq!(Half::from_f64(2.75).fract().to_f64(), 0.75);
        assert_eq!(Half::from_f64(-2.75).fract().to_f64(), -0.75);
    }

    #[test]
    fn recip_of_extremes() {
        assert_eq!(Half::INFINITY.recip(), Half::ZERO);
        assert_eq!(Half::ZERO.recip(), Half::INFINITY);
        // 1/MAX is subnormal but nonzero.
        assert!(Half::MAX.recip().to_f64() > 0.0);
    }
}
