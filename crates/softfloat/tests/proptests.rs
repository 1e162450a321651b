//! Property-based tests for the binary16 soft-float.
//!
//! The key oracle: for binary16 operands, computing in `f64` and rounding
//! once is the correctly rounded result (53 significand bits satisfy the
//! `p' >= 2p + 2` double-rounding bound for p = 11), so every operation
//! implemented in the crate must agree with the f64 path bit-for-bit.

use mpr_softfloat::ulp::{relative_error, ulp_distance};
use mpr_softfloat::Half;
use proptest::prelude::*;

/// Any bit pattern, including NaNs, infinities, and subnormals.
fn any_half() -> impl Strategy<Value = Half> {
    any::<u16>().prop_map(Half::from_bits)
}

/// Finite values only.
fn finite_half() -> impl Strategy<Value = Half> {
    any_half().prop_filter("finite", |h| h.is_finite())
}

fn agree(a: Half, b: Half) -> bool {
    (a.is_nan() && b.is_nan()) || a.to_bits() == b.to_bits()
}

proptest! {
    #[test]
    fn widening_then_narrowing_is_identity(h in any_half()) {
        prop_assert!(agree(Half::from_f64(h.to_f64()), h));
        prop_assert!(agree(Half::from_f32(h.to_f32()), h));
    }

    #[test]
    fn narrowing_is_monotone(a in any::<f64>(), b in any::<f64>()) {
        prop_assume!(a.is_finite() && b.is_finite() && a <= b);
        let ha = Half::from_f64(a);
        let hb = Half::from_f64(b);
        prop_assert!(ha.to_f64() <= hb.to_f64(), "rounding must preserve order");
    }

    #[test]
    fn narrowing_is_correctly_rounded(v in any::<f64>()) {
        prop_assume!(v.is_finite());
        let h = Half::from_f64(v);
        if h.is_finite() {
            // No other binary16 value may be strictly closer to v.
            let err = (h.to_f64() - v).abs();
            for delta in [-1i32, 1] {
                let bits = h.to_bits() as i32 + delta;
                if (0..=0xFFFF).contains(&bits) {
                    let n = Half::from_bits(bits as u16);
                    if n.is_finite() {
                        prop_assert!((n.to_f64() - v).abs() >= err,
                            "neighbor {n:?} closer to {v} than {h:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn add_matches_f64_reference(a in any_half(), b in any_half()) {
        let want = Half::from_f64(a.to_f64() + b.to_f64());
        prop_assert!(agree(a + b, want), "a={a:?} b={b:?}");
    }

    #[test]
    fn sub_matches_f64_reference(a in any_half(), b in any_half()) {
        let want = Half::from_f64(a.to_f64() - b.to_f64());
        prop_assert!(agree(a - b, want), "a={a:?} b={b:?}");
    }

    #[test]
    fn mul_matches_f64_reference(a in any_half(), b in any_half()) {
        let want = Half::from_f64(a.to_f64() * b.to_f64());
        prop_assert!(agree(a * b, want), "a={a:?} b={b:?}");
    }

    #[test]
    fn div_matches_f64_reference(a in any_half(), b in any_half()) {
        let want = Half::from_f64(a.to_f64() / b.to_f64());
        prop_assert!(agree(a / b, want), "a={a:?} b={b:?}");
    }

    #[test]
    fn fma_matches_f64_reference(a in any_half(), b in any_half(), c in any_half()) {
        let want = Half::from_f64(a.to_f64().mul_add(b.to_f64(), c.to_f64()));
        let got = a.mul_add(b, c);
        // Zero results may differ in sign between fma paths only when the
        // f64 reference also produced a signed zero; require same magnitude
        // class and same value otherwise.
        if got.is_zero() && want.is_zero() {
            return Ok(());
        }
        prop_assert!(agree(got, want), "a={a:?} b={b:?} c={c:?} got={got:?} want={want:?}");
    }

    #[test]
    fn addition_is_commutative(a in any_half(), b in any_half()) {
        prop_assert!(agree(a + b, b + a));
    }

    #[test]
    fn multiplication_is_commutative(a in any_half(), b in any_half()) {
        prop_assert!(agree(a * b, b * a));
    }

    #[test]
    fn add_identity(a in finite_half()) {
        // x + 0 == x except that -0 + +0 == +0.
        if !a.is_zero() {
            prop_assert!(agree(a + Half::ZERO, a));
        }
        prop_assert!(agree(a * Half::ONE, a));
    }

    #[test]
    fn negation_is_exact(a in any_half()) {
        prop_assert!(agree(-(-a), a));
        if a.is_finite() && !a.is_zero() {
            prop_assert!(agree(a + (-a), Half::ZERO));
        }
    }

    #[test]
    fn sqrt_squares_back(a in finite_half()) {
        prop_assume!(!a.is_sign_negative());
        let r = a.sqrt();
        if r.is_finite() && !r.is_zero() {
            // sqrt is correctly rounded, so squaring back lands within a
            // couple of ULP of the original.
            prop_assert!(ulp_distance(r * r, a) <= 2, "a={a:?} r={r:?}");
        }
    }

    #[test]
    fn flip_bit_changes_exactly_one_bit(h in any_half(), bit in 0u32..16) {
        let flipped = h.flip_bit(bit);
        prop_assert_eq!((flipped.to_bits() ^ h.to_bits()).count_ones(), 1);
        prop_assert_eq!(flipped.flip_bit(bit).to_bits(), h.to_bits());
    }

    #[test]
    fn mantissa_flip_relative_error_bounded(bit in 0u32..10) {
        // A mantissa flip on a normal value cannot exceed 2^-(10-bit-...)
        // relative error ~ 2^(bit-10); verifies the mechanism behind the
        // TRE trends.
        let h = Half::from_f64(1.5);
        let rel = relative_error(h.flip_bit(bit).to_f64(), h.to_f64());
        prop_assert!(rel <= 2f64.powi(bit as i32 - 10), "bit={bit} rel={rel}");
        prop_assert!(rel > 0.0);
    }

    #[test]
    fn exp_poly_double_near_libm(x in -300f64..300f64) {
        let got = mpr_softfloat::math::exp_poly(x);
        let want = x.exp();
        let rel = relative_error(got, want);
        prop_assert!(rel < 1e-13, "x={x} got={got} want={want}");
    }

    #[test]
    fn total_cmp_is_total_order(a in any_half(), b in any_half(), c in any_half()) {
        use std::cmp::Ordering;
        // Antisymmetry.
        prop_assert_eq!(a.total_cmp(&b), b.total_cmp(&a).reverse());
        // Transitivity (spot form).
        if a.total_cmp(&b) != Ordering::Greater && b.total_cmp(&c) != Ordering::Greater {
            prop_assert!(a.total_cmp(&c) != Ordering::Greater);
        }
    }
}
