//! The [`Half`] binary16 type.

mod arith;
mod convert;
mod fma;
mod ops;
#[cfg(test)]
mod oracle;

pub use ops::ParseHalfError;

use core::num::FpCategory;

/// An IEEE-754 binary16 ("half precision") floating-point number.
///
/// Layout: 1 sign bit, 5 exponent bits (bias 15), 10 fraction bits.
/// All arithmetic is correctly rounded to nearest-even, including gradual
/// underflow to subnormals. Addition, subtraction, multiplication, division
/// and square root are computed through `f32` — with 24 significand bits
/// `f32` satisfies the `p' >= 2p + 2` double-rounding-innocuity bound for
/// 11-bit operands (Figueroa, 1995), so the results are identical to a
/// direct single rounding. The fused multiply-add widens to `f64`, where
/// the binary16 product is exact, and rounds once (see [`Half::mul_add`]).
/// Every operation therefore rests on four branch-free kernels — the
/// `to_f32`/`to_f64` widenings and the `from_f32`/`from_f64` narrowings —
/// which are the crate's only binary16 rounding code; an exact integer
/// reference implementation exists only in the tests, as their oracle.
/// Every NaN result is the canonical quiet NaN `0x7E00`, whatever the
/// host's default NaN.
///
/// # Example
///
/// ```rust
/// use mpr_softfloat::Half;
///
/// let a = Half::from_f32(1.5);
/// let b = Half::from_f32(2.25);
/// assert_eq!((a + b).to_f32(), 3.75);
/// assert_eq!(Half::MAX.to_f32(), 65504.0);
/// assert!((Half::MAX + Half::ONE).to_f32().is_infinite() == false); // 65504+1 rounds back to MAX
/// assert!((Half::MAX + Half::MAX).is_infinite());
/// ```
///
/// # Mixed precision is a type error
///
/// `Half` does arithmetic only with `Half`, and no float type coerces
/// to or from it, so rustc rejects any expression or call that mixes
/// precisions; a value crosses only through a named conversion
/// (`to_f32`, `from_f64`, ...). `mpr analyze` relies on this and
/// checks only what the type checker accepts: `as` narrowings and
/// cross-width `from_bits`. Each block below must fail to compile.
/// Stable rustdoc does not check the error codes they name, so the
/// block after them, the same lines with each mix replaced by its
/// named conversion, pins that the prelude itself still compiles:
///
/// ```compile_fail,E0277
/// # use mpr_softfloat::Half;
/// let _ = Half::ONE * 2.0f32;
/// ```
///
/// ```compile_fail,E0277
/// # use mpr_softfloat::Half;
/// let _ = Half::ONE + 2.0f64;
/// ```
///
/// ```compile_fail,E0308
/// # use mpr_softfloat::Half;
/// fn single(x: f32) -> f32 {
///     x
/// }
/// let _ = single(Half::ONE);
/// ```
///
/// ```
/// # use mpr_softfloat::Half;
/// let _ = Half::ONE * Half::from_f32(2.0);
/// let _ = Half::ONE + Half::from_f64(2.0);
/// fn single(x: f32) -> f32 {
///     x
/// }
/// let _ = single(Half::ONE.to_f32());
/// ```
#[derive(Clone, Copy, Default)]
pub struct Half(u16);

impl PartialEq for Half {
    /// IEEE value equality: `NaN != NaN` and `+0 == -0`.
    #[inline]
    fn eq(&self, other: &Half) -> bool {
        self.to_f32() == other.to_f32()
    }
}

impl PartialOrd for Half {
    #[inline]
    fn partial_cmp(&self, other: &Half) -> Option<core::cmp::Ordering> {
        self.to_f32().partial_cmp(&other.to_f32())
    }
}

impl Half {
    /// Positive zero.
    pub const ZERO: Half = Half(0x0000);
    /// Negative zero.
    pub const NEG_ZERO: Half = Half(0x8000);
    /// One.
    pub const ONE: Half = Half(0x3C00);
    /// Negative one.
    pub const NEG_ONE: Half = Half(0xBC00);
    /// Two.
    pub const TWO: Half = Half(0x4000);
    /// Positive infinity.
    pub const INFINITY: Half = Half(0x7C00);
    /// Negative infinity.
    pub const NEG_INFINITY: Half = Half(0xFC00);
    /// Canonical quiet NaN.
    pub const NAN: Half = Half(0x7E00);
    /// Largest finite value: `65504.0`.
    pub const MAX: Half = Half(0x7BFF);
    /// Most negative finite value: `-65504.0`.
    pub const MIN: Half = Half(0xFBFF);
    /// Smallest positive normal value: `2^-14`.
    pub const MIN_POSITIVE: Half = Half(0x0400);
    /// Smallest positive subnormal value: `2^-24`.
    pub const MIN_POSITIVE_SUBNORMAL: Half = Half(0x0001);
    /// Machine epsilon: `2^-10`, the gap between 1.0 and the next value.
    pub const EPSILON: Half = Half(0x1400);

    /// Number of significand bits, including the implicit leading bit.
    pub const MANTISSA_DIGITS: u32 = 11;
    /// Exponent bias.
    pub const EXP_BIAS: i32 = 15;

    /// Creates a half from its raw bit pattern.
    ///
    /// ```rust
    /// use mpr_softfloat::Half;
    /// assert_eq!(Half::from_bits(0x3C00), Half::ONE);
    /// ```
    #[inline]
    pub const fn from_bits(bits: u16) -> Half {
        Half(bits)
    }

    /// Returns the raw bit pattern.
    #[inline]
    pub const fn to_bits(self) -> u16 {
        self.0
    }

    /// The sign bit (`true` for negative, including `-0.0` and negative NaN).
    #[inline]
    pub const fn is_sign_negative(self) -> bool {
        self.0 & 0x8000 != 0
    }

    /// The sign bit complement.
    #[inline]
    pub const fn is_sign_positive(self) -> bool {
        !self.is_sign_negative()
    }

    /// Raw biased exponent field (0..=31).
    #[inline]
    pub(crate) const fn exp_field(self) -> u16 {
        (self.0 >> 10) & 0x1F
    }

    /// Raw fraction field (10 bits).
    #[inline]
    pub(crate) const fn frac_field(self) -> u16 {
        self.0 & 0x3FF
    }

    /// `true` if the value is NaN.
    #[inline]
    pub const fn is_nan(self) -> bool {
        self.exp_field() == 0x1F && self.frac_field() != 0
    }

    /// `true` if the value is positive or negative infinity.
    #[inline]
    pub const fn is_infinite(self) -> bool {
        self.exp_field() == 0x1F && self.frac_field() == 0
    }

    /// `true` if the value is neither infinite nor NaN.
    #[inline]
    pub const fn is_finite(self) -> bool {
        self.exp_field() != 0x1F
    }

    /// `true` if the value is subnormal (nonzero with a zero exponent field).
    #[inline]
    pub const fn is_subnormal(self) -> bool {
        self.exp_field() == 0 && self.frac_field() != 0
    }

    /// `true` if the value is `+0.0` or `-0.0`.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 & 0x7FFF == 0
    }

    /// Floating-point category of the value.
    pub const fn classify(self) -> FpCategory {
        match (self.exp_field(), self.frac_field()) {
            (0, 0) => FpCategory::Zero,
            (0, _) => FpCategory::Subnormal,
            (0x1F, 0) => FpCategory::Infinite,
            (0x1F, _) => FpCategory::Nan,
            _ => FpCategory::Normal,
        }
    }

    /// Absolute value (clears the sign bit; works on NaN payloads too).
    #[inline]
    pub const fn abs(self) -> Half {
        Half(self.0 & 0x7FFF)
    }

    /// Returns a value with the magnitude of `self` and the sign of `sign`.
    #[inline]
    pub const fn copysign(self, sign: Half) -> Half {
        Half((self.0 & 0x7FFF) | (sign.0 & 0x8000))
    }

    /// IEEE-754 `maximumNumber`: NaN loses against a number.
    pub fn max(self, other: Half) -> Half {
        if self.is_nan() {
            other
        } else if other.is_nan() || self.to_f32() >= other.to_f32() {
            self
        } else {
            other
        }
    }

    /// IEEE-754 `minimumNumber`: NaN loses against a number.
    pub fn min(self, other: Half) -> Half {
        if self.is_nan() {
            other
        } else if other.is_nan() || self.to_f32() <= other.to_f32() {
            self
        } else {
            other
        }
    }

    /// Total ordering over bit patterns per IEEE-754 `totalOrder`.
    ///
    /// Useful for sorting slices that may contain NaN.
    pub fn total_cmp(&self, other: &Half) -> core::cmp::Ordering {
        // Flip negative values so the bit patterns order like the values.
        fn key(h: Half) -> i32 {
            let b = h.0 as i32;
            if b & 0x8000 != 0 {
                // Map -0 to -1, -max to more negative: IEEE totalOrder
                // places -0 strictly below +0.
                0x7FFF - b
            } else {
                b
            }
        }
        key(*self).cmp(&key(*other))
    }

    /// Flips bit `bit` (0 = LSB of the fraction, 15 = sign) of the
    /// representation — the elementary fault model of the study.
    ///
    /// # Panics
    ///
    /// Panics if `bit >= 16`.
    #[inline]
    pub fn flip_bit(self, bit: u32) -> Half {
        assert!(bit < 16, "binary16 has 16 bits, got bit index {bit}");
        Half(self.0 ^ (1 << bit))
    }
}
