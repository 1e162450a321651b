//! The [`FloatExt`] abstraction over the three studied precisions.

use crate::{math, Half, Precision};
use core::fmt;
use core::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A floating-point type at one of the studied precisions.
///
/// Every benchmark kernel (`mpr-kernels`) and neural-network layer
/// (`mpr-nn`) in the reproduction is written once against this trait and
/// then executed at double, single, and half precision — exactly how the
/// paper keeps "the same algorithm" across precisions (Section 3.1) so
/// that reliability differences are attributable to the data type alone.
///
/// The trait deliberately exposes the *bit representation*
/// ([`FloatExt::to_bits_u64`], [`FloatExt::flip_bit`]): the fault injector
/// flips representation bits, which is the fault model of both the beam
/// experiments and CAROL-FI.
///
/// # Example
///
/// ```rust
/// use mpr_softfloat::{FloatExt, Half};
///
/// fn horner<F: FloatExt>(coeffs: &[F], x: F) -> F {
///     coeffs.iter().rev().fold(F::zero(), |acc, &c| acc.mul_add(x, c))
/// }
///
/// let c64 = [1.0f64, 2.0, 3.0];
/// let c16: Vec<Half> = c64.iter().map(|&v| Half::from_f64(v)).collect();
/// assert_eq!(horner(&c64, 2.0), 17.0);
/// assert_eq!(horner(&c16, Half::from_f64(2.0)).to_f64(), 17.0);
/// ```
pub trait FloatExt:
    Copy
    + PartialEq
    + PartialOrd
    + fmt::Debug
    + fmt::Display
    + Send
    + Sync
    + 'static
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + DivAssign
{
    /// Which of the three studied formats this type is.
    const PRECISION: Precision;

    /// Additive identity.
    fn zero() -> Self;

    /// Multiplicative identity.
    fn one() -> Self;

    /// Conversion from `f64` (rounds once to the target precision).
    fn from_f64(v: f64) -> Self;

    /// Widening conversion to `f64` (exact for all three formats).
    fn to_f64(self) -> f64;

    /// The raw representation, zero-extended to 64 bits.
    fn to_bits_u64(self) -> u64;

    /// Builds a value from the low `total_bits` of `bits`.
    fn from_bits_u64(bits: u64) -> Self;

    /// Flips representation bit `bit` (0 = LSB). The elementary transient
    /// fault.
    ///
    /// # Panics
    ///
    /// Panics if `bit >= Self::PRECISION.total_bits()`.
    fn flip_bit(self, bit: u32) -> Self {
        let width = Self::PRECISION.total_bits();
        assert!(bit < width, "bit {bit} out of range for {width}-bit float");
        Self::from_bits_u64(self.to_bits_u64() ^ (1 << bit))
    }

    /// Fused multiply-add `self * a + b` with a single rounding.
    fn mul_add(self, a: Self, b: Self) -> Self;

    /// Correctly rounded square root.
    fn sqrt(self) -> Self;

    /// Absolute value.
    fn abs(self) -> Self;

    /// `true` if NaN.
    fn is_nan(self) -> bool;

    /// `true` if positive or negative infinity.
    fn is_infinite(self) -> bool;

    /// `true` if neither infinite nor NaN.
    fn is_finite(self) -> bool;

    /// IEEE `maximumNumber` (NaN loses).
    fn max(self, other: Self) -> Self;

    /// IEEE `minimumNumber` (NaN loses).
    fn min(self, other: Self) -> Self;

    /// Exponential, evaluated as an **in-precision polynomial** (argument
    /// reduction plus Horner evaluation whose every intermediate is rounded
    /// to this precision).
    ///
    /// GPUs evaluate `exp` in software and the Xeon Phi in its dedicated
    /// transcendental unit with a precision-dependent polynomial depth
    /// (paper Sections 5.3, 6.3); running the polynomial in-precision makes
    /// every intermediate term a fault site and reproduces the paper's
    /// criticality asymmetry between double and single LavaMD.
    fn exp(self) -> Self {
        math::exp_poly(self)
    }

    /// Multiplies by `2^n` exactly (saturating to infinity / zero at the
    /// format's range limits).
    fn ldexp(self, n: i32) -> Self;
}

impl FloatExt for f64 {
    const PRECISION: Precision = Precision::Double;

    fn zero() -> Self {
        0.0
    }
    fn one() -> Self {
        1.0
    }
    fn from_f64(v: f64) -> Self {
        v
    }
    fn to_f64(self) -> f64 {
        self
    }
    fn to_bits_u64(self) -> u64 {
        self.to_bits()
    }
    fn from_bits_u64(bits: u64) -> Self {
        f64::from_bits(bits)
    }
    fn mul_add(self, a: Self, b: Self) -> Self {
        f64::mul_add(self, a, b)
    }
    fn sqrt(self) -> Self {
        f64::sqrt(self)
    }
    fn abs(self) -> Self {
        f64::abs(self)
    }
    fn is_nan(self) -> bool {
        f64::is_nan(self)
    }
    fn is_infinite(self) -> bool {
        f64::is_infinite(self)
    }
    fn is_finite(self) -> bool {
        f64::is_finite(self)
    }
    fn max(self, other: Self) -> Self {
        f64::max(self, other)
    }
    fn min(self, other: Self) -> Self {
        f64::min(self, other)
    }
    fn ldexp(self, n: i32) -> Self {
        self * 2f64.powi(n)
    }
}

impl FloatExt for f32 {
    const PRECISION: Precision = Precision::Single;

    fn zero() -> Self {
        0.0
    }
    fn one() -> Self {
        1.0
    }
    fn from_f64(v: f64) -> Self {
        v as f32
    }
    fn to_f64(self) -> f64 {
        self as f64
    }
    fn to_bits_u64(self) -> u64 {
        self.to_bits() as u64
    }
    fn from_bits_u64(bits: u64) -> Self {
        f32::from_bits(bits as u32)
    }
    fn mul_add(self, a: Self, b: Self) -> Self {
        f32::mul_add(self, a, b)
    }
    fn sqrt(self) -> Self {
        f32::sqrt(self)
    }
    fn abs(self) -> Self {
        f32::abs(self)
    }
    fn is_nan(self) -> bool {
        f32::is_nan(self)
    }
    fn is_infinite(self) -> bool {
        f32::is_infinite(self)
    }
    fn is_finite(self) -> bool {
        f32::is_finite(self)
    }
    fn max(self, other: Self) -> Self {
        f32::max(self, other)
    }
    fn min(self, other: Self) -> Self {
        f32::min(self, other)
    }
    fn ldexp(self, n: i32) -> Self {
        self * 2f32.powi(n)
    }
}

// `#[inline]` throughout: without it, generic `F::mul_add` over `Half` is an out-of-line call from other crates (GEMM-32's binary16 golden ran 238–244 µs, against 40–42 µs inlined, release, 2 vCPUs).
impl FloatExt for Half {
    const PRECISION: Precision = Precision::Half;

    #[inline]
    fn zero() -> Self {
        Half::ZERO
    }
    #[inline]
    fn one() -> Self {
        Half::ONE
    }
    #[inline]
    fn from_f64(v: f64) -> Self {
        Half::from_f64(v)
    }
    #[inline]
    fn to_f64(self) -> f64 {
        Half::to_f64(self)
    }
    #[inline]
    fn to_bits_u64(self) -> u64 {
        self.to_bits() as u64
    }
    #[inline]
    fn from_bits_u64(bits: u64) -> Self {
        Half::from_bits(bits as u16)
    }
    #[inline]
    fn mul_add(self, a: Self, b: Self) -> Self {
        Half::mul_add(self, a, b)
    }
    #[inline]
    fn sqrt(self) -> Self {
        Half::sqrt(self)
    }
    #[inline]
    fn abs(self) -> Self {
        Half::abs(self)
    }
    #[inline]
    fn is_nan(self) -> bool {
        Half::is_nan(self)
    }
    #[inline]
    fn is_infinite(self) -> bool {
        Half::is_infinite(self)
    }
    #[inline]
    fn is_finite(self) -> bool {
        Half::is_finite(self)
    }
    #[inline]
    fn max(self, other: Self) -> Self {
        Half::max(self, other)
    }
    #[inline]
    fn min(self, other: Self) -> Self {
        Half::min(self, other)
    }
    #[inline]
    fn ldexp(self, n: i32) -> Self {
        // Split the scale so that intermediate powers of two stay finite
        // within the tiny binary16 exponent range.
        let mut v = self;
        let mut n = n;
        while n > 14 {
            v *= Half::from_f64(2f64.powi(14));
            n -= 14;
        }
        while n < -14 {
            v *= Half::from_f64(2f64.powi(-14));
            n += 14;
        }
        v * Half::from_f64(2f64.powi(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn half_is_send_sync() {
        assert_send_sync::<Half>();
    }

    #[test]
    fn generic_arithmetic_agrees_with_native() {
        fn poly<F: FloatExt>(x: F) -> F {
            x.mul_add(x, F::one()) - x
        }
        assert_eq!(poly(3.0f64), 7.0);
        assert_eq!(poly(3.0f32), 7.0);
        assert_eq!(poly(Half::from_f64(3.0)).to_f64(), 7.0);
    }

    #[test]
    fn bit_round_trips() {
        for v in [-1.5f64, 0.0, 2.75, 1e10] {
            assert_eq!(f64::from_bits_u64(v.to_bits_u64()), v);
            let s = v as f32;
            assert_eq!(f32::from_bits_u64(s.to_bits_u64()), s);
            let h = Half::from_f64(v);
            assert_eq!(Half::from_bits_u64(h.to_bits_u64()).to_bits(), h.to_bits());
        }
    }

    #[test]
    fn flip_bit_is_involutive() {
        for bit in 0..16 {
            let h = Half::from_f64(1.25);
            assert_eq!(h.flip_bit(bit).flip_bit(bit).to_bits(), h.to_bits());
        }
        for bit in [0u32, 22, 31] {
            let s = 1.25f32;
            assert_eq!(s.flip_bit(bit).flip_bit(bit).to_bits(), s.to_bits());
        }
        for bit in [0u32, 51, 63] {
            let d = 1.25f64;
            assert_eq!(d.flip_bit(bit).flip_bit(bit).to_bits(), d.to_bits());
        }
    }

    #[test]
    fn flip_sign_bit() {
        assert_eq!(1.0f64.flip_bit(63), -1.0);
        assert_eq!(1.0f32.flip_bit(31), -1.0);
        assert_eq!(Half::ONE.flip_bit(15).to_f64(), -1.0);
    }

    #[test]
    #[should_panic(expected = "bit index 16")]
    fn flip_bit_out_of_range_panics() {
        let _ = Half::ONE.flip_bit(16);
    }

    #[test]
    fn ldexp_scales_exactly() {
        assert_eq!(1.5f64.ldexp(3), 12.0);
        assert_eq!(1.5f32.ldexp(-2), 0.375);
        assert_eq!(Half::from_f64(1.5).ldexp(3).to_f64(), 12.0);
        // Large half scale crosses several chunks without overflowing early.
        assert_eq!(Half::from_f64(1.0).ldexp(15).to_f64(), 32768.0);
        assert_eq!(Half::from_f64(1.0).ldexp(-24).to_f64(), 2f64.powi(-24));
        assert!(Half::from_f64(1.0).ldexp(17).is_infinite());
    }

    #[test]
    fn precision_constants_match() {
        assert_eq!(<f64 as FloatExt>::PRECISION, Precision::Double);
        assert_eq!(<f32 as FloatExt>::PRECISION, Precision::Single);
        assert_eq!(<Half as FloatExt>::PRECISION, Precision::Half);
    }
}
