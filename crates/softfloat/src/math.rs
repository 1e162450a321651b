//! In-precision transcendental functions.
//!
//! The paper attributes the inverted criticality of LavaMD on the Xeon Phi
//! (single tolerates faults *better* than double, Section 5.3) to the
//! transcendental exponential: the double-precision evaluation runs a
//! deeper polynomial, so more in-flight intermediate values exist and a
//! corrupted term is amplified through more multiply-accumulate steps. To
//! reproduce that mechanism instead of hard-coding it, `exp` here is an
//! argument-reduction + Horner evaluation whose every operation is rounded
//! in the target precision and whose polynomial degree grows with the
//! precision, like real libm kernels (cf. Harrison et al., "The
//! computation of transcendental functions on the IA-64 architecture").

use crate::{FloatExt, Precision};

/// Number of polynomial terms the in-precision `exp` evaluates.
///
/// Chosen as the minimal Taylor depth whose truncation error on the
/// reduced interval `|r| <= ln(2)/2` is below the format's epsilon.
pub const fn exp_terms(precision: Precision) -> usize {
    match precision {
        Precision::Half => 5,    // error ~4e-5 < 2^-10
        Precision::Single => 8,  // error ~5e-9 < 2^-23
        Precision::Double => 14, // error ~4e-18 < 2^-52
    }
}

/// `1/k!` for every Taylor coefficient `exp` evaluates (`k <= 14`), in
/// the f64 master domain. Each `k!` up to `14!` is below 2^53, so the
/// running product is exact and every coefficient is `1/k!` rounded
/// once; [`exp_horner`] rounds it once more into the target format,
/// like a libm coefficient table.
const INV_FACTORIAL: [f64; 15] = {
    let mut table = [1.0; 15];
    let mut factorial = 1.0;
    let mut k = 1;
    while k < table.len() {
        factorial *= k as f64;
        table[k] = 1.0 / factorial;
        k += 1;
    }
    table
};

/// Cody-Waite two-term split of `ln 2` per precision: `hi` is exact in
/// the target format (top bits only), so `x - n*hi` is computed without
/// cancellation noise, and `lo` is the residual correction.
const fn ln2_split(precision: Precision) -> (f64, f64) {
    match precision {
        Precision::Half => (0.693359375, -2.1219444005469057e-4),
        Precision::Single => (0.693145751953125, 1.4286067653301193e-6),
        Precision::Double => (0.6931471803691238, 1.9082149292705877e-10),
    }
}

/// In-precision argument reduction for `exp`: returns `(n, r)` with
/// `x = n*ln2 + r` and `|r| <= ln2/2`, so `exp(x) = exp(r) * 2^n`.
pub fn exp_reduce<F: FloatExt>(x: F) -> (i32, F) {
    let log2e = F::from_f64(std::f64::consts::LOG2_E);
    let n = (x * log2e).to_f64().round() as i32;
    let (ln2_hi, ln2_lo) = ln2_split(F::PRECISION);
    let nf = F::from_f64(n as f64);
    (n, (x - nf * F::from_f64(ln2_hi)) - nf * F::from_f64(ln2_lo))
}

/// `exp(r)` for a reduced argument: the truncated Taylor series of
/// [`exp_terms`] terms by Horner's rule, entirely in `F`. Each of the
/// `exp_terms + 1` multiply-accumulate results passes through `touch`,
/// which is how a fault hook exposes the polynomial's intermediates as
/// fault sites; the identity closure gives the plain polynomial.
#[inline(always)]
pub fn exp_horner<F: FloatExt>(r: F, mut touch: impl FnMut(F) -> F) -> F {
    let mut acc = F::zero();
    for k in (1..=exp_terms(F::PRECISION)).rev() {
        acc = touch(acc.mul_add(r, F::from_f64(INV_FACTORIAL[k])));
    }
    touch(acc.mul_add(r, F::one()))
}

/// `exp(x)` by argument reduction and an in-precision Horner polynomial.
///
/// Accuracy: a few ULP of the target precision over the format's finite
/// range (verified by the tests below); overflow saturates to `+inf`,
/// deep underflow to `+0`.
///
/// # Example
///
/// ```rust
/// use mpr_softfloat::{math::exp_poly, Half};
/// let e = exp_poly(Half::from_f64(1.0)).to_f64();
/// assert!((e - std::f64::consts::E).abs() < 3e-3);
/// ```
pub fn exp_poly<F: FloatExt>(x: F) -> F {
    if x.is_nan() {
        return x;
    }
    if x.is_infinite() {
        return if x.to_f64() > 0.0 { x } else { F::zero() };
    }

    // Saturate outside the format's representable range *before* the
    // reduction: for inputs like -f16::MAX the reduction itself would
    // overflow in-precision and poison the polynomial.
    let (ovf, udf) = match F::PRECISION {
        Precision::Half => (12.0, -18.0),
        Precision::Single => (90.0, -106.0),
        Precision::Double => (710.0, -746.0),
    };
    let xf = x.to_f64();
    if xf > ovf {
        return F::from_f64(f64::INFINITY);
    }
    if xf < udf {
        return F::zero();
    }

    let (n, r) = exp_reduce(x);
    exp_horner(r, |v| v).ldexp(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Half;

    #[test]
    fn exp_double_accuracy() {
        for i in -600..=600 {
            let x = i as f64 * 0.5;
            let got = exp_poly(x);
            let want = x.exp();
            if want.is_infinite() || want == 0.0 {
                assert_eq!(got, want, "x={x}");
            } else {
                let rel = ((got - want) / want).abs();
                assert!(rel < 1e-14, "x={x} got={got} want={want} rel={rel}");
            }
        }
    }

    #[test]
    fn exp_single_accuracy() {
        for i in -160..=160 {
            let x = i as f32 * 0.5;
            let got = exp_poly(x);
            let want = (x as f64).exp() as f32;
            if want.is_infinite() || want == 0.0 {
                continue;
            }
            let rel = ((got - want) / want).abs();
            assert!(rel < 1e-5, "x={x} got={got} want={want}");
        }
    }

    #[test]
    fn exp_half_accuracy() {
        for i in -20..=20 {
            let x = Half::from_f64(i as f64 * 0.5);
            let got = exp_poly(x).to_f64();
            let want = x.to_f64().exp();
            if want > Half::MAX.to_f64() {
                continue;
            }
            let rel = if want == 0.0 {
                got.abs()
            } else {
                ((got - want) / want).abs()
            };
            assert!(rel < 6e-3, "x={x} got={got} want={want}");
        }
    }

    #[test]
    fn exp_specials() {
        assert!(exp_poly(f64::NAN).is_nan());
        assert_eq!(exp_poly(f64::INFINITY), f64::INFINITY);
        assert_eq!(exp_poly(f64::NEG_INFINITY), 0.0);
        assert_eq!(exp_poly(0.0f64), 1.0);
        assert_eq!(exp_poly(Half::ZERO).to_f64(), 1.0);
        // Overflow saturation.
        assert!(exp_poly(Half::from_f64(50.0)).is_infinite());
        assert!(exp_poly(800.0f64).is_infinite());
        assert_eq!(exp_poly(-800.0f64), 0.0);
        // f16::MAX as input must terminate promptly and saturate.
        assert!(exp_poly(Half::MAX).is_infinite());
        assert_eq!(exp_poly(-Half::MAX).to_f64(), 0.0);
    }

    #[test]
    fn exp_series_terms_are_pinned() {
        // The deepest coefficient any precision evaluates (k = 14 for
        // double) must stay bit-identical: a table change that moved it
        // would silently move every golden output downstream.
        assert_eq!(
            INV_FACTORIAL[14].to_bits(),
            (1.0f64 / 87_178_291_200.0).to_bits()
        );
        assert_eq!(INV_FACTORIAL[8].to_bits(), (1.0f64 / 40320.0).to_bits());
        assert_eq!(INV_FACTORIAL[5].to_bits(), (1.0f64 / 120.0).to_bits());
        assert_eq!(INV_FACTORIAL[1], 1.0);
    }

    #[test]
    fn term_counts_grow_with_precision() {
        assert!(exp_terms(Precision::Half) < exp_terms(Precision::Single));
        assert!(exp_terms(Precision::Single) < exp_terms(Precision::Double));
        assert!(exp_terms(Precision::Double) < INV_FACTORIAL.len());
    }
}
