//! Conversions between binary16 and the native formats — the crate's one
//! binary16 rounding implementation.
//!
//! Widening conversions (`to_f32`, `to_f64`) are exact. Narrowing
//! conversions round to nearest-even in a single rounding: `from_f64` does
//! **not** go through `f32` because `f64 -> f32 -> f16` can double-round
//! (e.g. a value just above a binary16 tie that rounds *onto* the tie in
//! binary32 and then rounds the wrong way). Both narrowing paths instead
//! round the source's own bit pattern once, branch-free: every operation
//! of [`Half`] (and every lane of [`crate::wide`]) funnels through these
//! four kernels, so they are `#[inline(always)]` and free of data-dependent
//! branches the autovectorizer could not map onto SIMD selects.
//!
//! Every NaN narrows to the canonical positive quiet NaN `0x7E00`, so a
//! result's bits never depend on the sign of the host's default NaN.
//! The integer reference implementation these kernels are proven against
//! lives in the test-only `oracle` module.

use super::Half;

impl Half {
    /// Converts an `f64` to binary16 with a single round-to-nearest-even.
    ///
    /// Same structure as [`Half::from_f32`], rebased: the exponent offset
    /// is `1023 - 15 = 1008`, the mantissa drop is `52 - 10 = 42` bits,
    /// and the subnormal magic constant is `2^28` (whose ULP is the
    /// binary16 subnormal LSB `2^-24`).
    ///
    /// ```rust
    /// use mpr_softfloat::Half;
    /// assert_eq!(Half::from_f64(1.0), Half::ONE);
    /// assert!(Half::from_f64(1e9).is_infinite());
    /// assert_eq!(Half::from_f64(-0.0).to_bits(), 0x8000);
    /// assert_eq!(Half::from_f64(-f64::NAN).to_bits(), 0x7E00);
    /// ```
    #[inline(always)]
    pub fn from_f64(v: f64) -> Half {
        let bits = v.to_bits();
        let sign = ((bits >> 48) & 0x8000) as u16;
        let u = bits & 0x7FFF_FFFF_FFFF_FFFF;
        let mant_odd = (u >> 42) & 1;
        let norm = (u
            .wrapping_sub(1008u64 << 52)
            .wrapping_add((1u64 << 41) - 1)
            .wrapping_add(mant_odd)
            >> 42) as u16;
        let sub = (f64::from_bits(u) + f64::from_bits(1051u64 << 52))
            .to_bits()
            .wrapping_sub(1051u64 << 52) as u16;
        let mag = if u >= 1039u64 << 52 {
            // >= 2^16: overflow or infinity.
            0x7C00
        } else if u < 1009u64 << 52 {
            // < 2^-14: subnormal or zero.
            sub
        } else {
            norm
        };
        if u > 0x7FF0_0000_0000_0000 {
            Half::NAN
        } else {
            Half(sign | mag)
        }
    }

    /// Converts an `f32` to binary16 with a single round-to-nearest-even.
    #[inline(always)]
    pub fn from_f32(v: f32) -> Half {
        let bits = v.to_bits();
        let sign = ((bits >> 16) & 0x8000) as u16;
        let u = bits & 0x7FFF_FFFF;
        // Normal path: rebase the exponent by -112 and round by nudging
        // with half-ULP-minus-one plus the mantissa-odd bit before the
        // shift; the carry ripples into the exponent field, taking values
        // that round past 65504 to the infinity encoding for free.
        let mant_odd = (u >> 13) & 1;
        let norm = (u
            .wrapping_sub(0x3800_0000)
            .wrapping_add(0xFFF)
            .wrapping_add(mant_odd)
            >> 13) as u16;
        // Subnormal path: adding 0.5 (whose ULP, 2^-24, is the binary16
        // subnormal LSB) makes the f32 adder perform the RNE alignment;
        // the rounded significand then sits in the low mantissa bits.
        let sub = (f32::from_bits(u) + f32::from_bits(0x3F00_0000))
            .to_bits()
            .wrapping_sub(0x3F00_0000) as u16;
        let mag = if u >= 0x4780_0000 {
            // >= 2^16: overflow or infinity.
            0x7C00
        } else if u < 0x3880_0000 {
            // < 2^-14: subnormal or zero.
            sub
        } else {
            norm
        };
        if u > 0x7F80_0000 {
            Half::NAN
        } else {
            Half(sign | mag)
        }
    }

    /// Exact widening conversion to `f32`; every NaN widens to the
    /// positive quiet `f32::NAN`.
    #[inline(always)]
    pub fn to_f32(self) -> f32 {
        let hu = u32::from(self.0);
        let sign = (hu & 0x8000) << 16;
        let mag = (hu & 0x7FFF) << 13;
        // Bits 23..28 of `mag` hold the binary16 exponent field, so the
        // shifted value reads as 2^-112 times the binary16 value; one
        // exact multiply restores the scale (subnormal halves become
        // normal f32s, the product is always exact).
        let scaled = (f32::from_bits(mag) * f32::from_bits(0x7780_0000)).to_bits();
        let bits = if hu & 0x7C00 != 0x7C00 {
            sign | scaled
        } else if hu & 0x03FF == 0 {
            sign | 0x7F80_0000
        } else {
            f32::NAN.to_bits()
        };
        f32::from_bits(bits)
    }

    /// Exact widening conversion to `f64`.
    #[inline(always)]
    pub fn to_f64(self) -> f64 {
        f64::from(self.to_f32())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn widening_is_exact_for_all_bit_patterns() {
        for bits in 0u16..=u16::MAX {
            let h = Half::from_bits(bits);
            if h.is_nan() {
                assert!(h.to_f32().is_nan());
                assert!(h.to_f64().is_nan());
                continue;
            }
            let f32v = h.to_f32();
            let f64v = h.to_f64();
            assert_eq!(f32v as f64, f64v, "bits {bits:#06x}");
            // Round-tripping a widened value must be the identity.
            assert_eq!(Half::from_f32(f32v).to_bits(), bits, "f32 trip {bits:#06x}");
            assert_eq!(Half::from_f64(f64v).to_bits(), bits, "f64 trip {bits:#06x}");
        }
    }

    #[test]
    fn known_constants() {
        assert_eq!(Half::from_f64(1.0).to_bits(), 0x3C00);
        assert_eq!(Half::from_f64(-2.0).to_bits(), 0xC000);
        assert_eq!(Half::from_f64(65504.0).to_bits(), 0x7BFF);
        assert_eq!(Half::from_f64(2f64.powi(-14)).to_bits(), 0x0400);
        assert_eq!(Half::from_f64(2f64.powi(-24)).to_bits(), 0x0001);
        assert_eq!(Half::from_f64(0.5).to_bits(), 0x3800);
        assert_eq!(Half::from_f64(0.333251953125).to_bits(), 0x3555);
    }

    #[test]
    fn rounding_to_nearest_even() {
        // 2049 is exactly between 2048 and 2050 (ULP = 2 at this scale);
        // RNE picks the even significand 2048.
        assert_eq!(Half::from_f64(2049.0).to_f64(), 2048.0);
        // 2051 is between 2050 and 2052; picks 2052 (even).
        assert_eq!(Half::from_f64(2051.0).to_f64(), 2052.0);
        // Just above the tie must round up.
        assert_eq!(Half::from_f64(2049.0001).to_f64(), 2050.0);
    }

    #[test]
    fn overflow_and_underflow() {
        // Largest value that still rounds to MAX: halfway to 65536 is 65520.
        assert_eq!(Half::from_f64(65519.999).to_bits(), 0x7BFF);
        assert!(Half::from_f64(65520.0).is_infinite()); // tie rounds to even=Inf
        assert!(Half::from_f64(1e30).is_infinite());
        // Half the smallest subnormal is a tie with zero: rounds to 0 (even).
        assert_eq!(Half::from_f64(2f64.powi(-25)).to_bits(), 0x0000);
        assert_eq!(Half::from_f64(2f64.powi(-25) * 1.0001).to_bits(), 0x0001);
        assert_eq!(Half::from_f64(-2f64.powi(-26)).to_bits(), 0x8000);
    }

    #[test]
    fn double_rounding_trap_is_avoided() {
        // This value rounds to a binary16 tie when first rounded to f32,
        // which would then round-to-even the wrong way. 1 + 2^-11 + 2^-26
        // must round UP to 1 + 2^-10 in one step.
        let v = 1.0 + 2f64.powi(-11) + 2f64.powi(-26);
        assert_eq!(Half::from_f64(v).to_bits(), 0x3C01);
        // Whereas the exact tie rounds down to even.
        assert_eq!(Half::from_f64(1.0 + 2f64.powi(-11)).to_bits(), 0x3C00);
    }

    #[test]
    fn nan_and_inf_conversions() {
        assert!(Half::from_f64(f64::NAN).is_nan());
        assert_eq!(Half::from_f64(f64::INFINITY), Half::INFINITY);
        assert_eq!(Half::from_f64(f64::NEG_INFINITY), Half::NEG_INFINITY);
        assert!(Half::from_f32(f32::NAN).is_nan());
    }

    #[test]
    fn signed_zero_is_preserved() {
        assert_eq!(Half::from_f64(0.0).to_bits(), 0x0000);
        assert_eq!(Half::from_f64(-0.0).to_bits(), 0x8000);
        assert_eq!(
            Half::from_bits(0x8000).to_f64().to_bits(),
            (-0.0f64).to_bits()
        );
    }

    #[test]
    fn from_f32_matches_from_f64_for_f32_inputs() {
        // f32 -> f16 and (f32 as f64) -> f16 must agree everywhere.
        let mut x = 1.0f32;
        for i in 0..20_000u32 {
            x = x * 1.001 + i as f32 * 1e-6;
            if !x.is_finite() {
                break;
            }
            assert_eq!(Half::from_f32(x), Half::from_f64(x as f64), "x={x}");
            assert_eq!(Half::from_f32(-x), Half::from_f64(-(x as f64)));
        }
    }
}
