//! Wide FMA lanes: the slice shapes batched kernels, row products and
//! network layers run their inner loops through.
//!
//! Lanes hold values of one [`FloatExt`] type — `f64`, `f32` or
//! [`Half`] — and every lane is that type's scalar `mul_add`, so a
//! slice form is bit-identical to the scalar chain it replaces.
//! [`row_fma`] is the matrix-row primitive: GEMM's rows of `C`, and
//! the output rows of a convolution, one call per kernel tap from the
//! bias row; [`fma`] is the elementwise binary16 step over `u16` bit
//! patterns.
//!
//! # Contract
//!
//! Every lane **is** the scalar `mul_add`. For [`Half`] it inlines down
//! to the branch-free widen/narrow kernels every binary16 operation
//! shares, which the autovectorizer maps onto SIMD float units — which
//! is why `impl FloatExt for Half` marks every method `#[inline]`.
//! There is no second binary16 implementation to keep in sync; the
//! crate's tests hold the one implementation to an exact integer oracle
//! (DESIGN.md §4i).

use crate::{FloatExt, Half};

/// Natural lane count for batched kernels: 16 lanes of binary16 fill a
/// 256-bit vector after widening to `f32` pairs on common targets.
pub const LANES: usize = 16;

/// Elementwise fused multiply-accumulate over bit patterns:
/// `acc[i] = fma(a[i], b[i], acc[i])`, each lane `Half::mul_add`.
///
/// # Panics
///
/// Panics if the slice lengths differ.
///
/// ```rust
/// use mpr_softfloat::{wide, Half};
/// let a = [Half::TWO.to_bits(); 4];
/// let b = [Half::from_f32(1.5).to_bits(); 4];
/// let mut acc = [Half::ONE.to_bits(); 4];
/// wide::fma(&a, &b, &mut acc);
/// assert!(acc.iter().all(|&o| Half::from_bits(o).to_f32() == 4.0));
/// ```
#[inline]
pub fn fma(a: &[u16], b: &[u16], acc: &mut [u16]) {
    assert!(
        a.len() == b.len() && b.len() == acc.len(),
        "wide lanes need equal lengths, got {}/{}/{}",
        a.len(),
        b.len(),
        acc.len()
    );
    for ((&x, &y), c) in a.iter().zip(b).zip(acc.iter_mut()) {
        *c = Half::from_bits(x)
            .mul_add(Half::from_bits(y), Half::from_bits(*c))
            .to_bits();
    }
}

/// One row of a matrix product, accumulated onto `acc`: for row-major
/// `rows` with `acc.len()` columns, `acc[j] = fma(x[k], rows[k][j],
/// acc[j])` for `k` in order. From a zeroed `acc`, lane `j` is exactly
/// the `k`-ordered FMA chain `sum_k x[k] * rows[k][j]` from `+0` (a
/// GEMM row of `C`); from a bias row, a one-coefficient call per step
/// extends chains that start at the bias (a convolution's output row).
///
/// # Panics
///
/// Panics if `acc` is empty or `rows.len() != x.len() * acc.len()`.
///
/// ```rust
/// use mpr_softfloat::{wide, Half};
/// let h = Half::from_f32;
/// let rows = [h(1.0), h(2.0), h(3.0), h(4.0)]; // [[1, 2], [3, 4]]
/// let mut acc = [Half::ZERO; 2];
/// wide::row_fma(&[h(1.0), h(0.5)], &rows, &mut acc);
/// assert_eq!(acc.map(Half::to_f32), [2.5, 4.0]);
/// ```
#[inline]
pub fn row_fma<F: FloatExt>(x: &[F], rows: &[F], acc: &mut [F]) {
    assert_eq!(
        rows.len(),
        x.len() * acc.len(),
        "wide lanes need one row per coefficient"
    );
    for (&xk, row) in x.iter().zip(rows.chunks_exact(acc.len())) {
        for (c, &y) in acc.iter_mut().zip(row) {
            *c = xk.mul_add(y, *c);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `row_fma` against the scalar `k`-ordered `mul_add` chain from a
    /// non-zero accumulator, over `F`'s bit patterns.
    fn row_fma_matches_scalar<F: FloatExt>(pattern: impl Fn(usize) -> F) {
        let (k, n) = (5, 37);
        let x: Vec<F> = (0..k).map(|i| pattern(i * 13 + 1)).collect();
        let rows: Vec<F> = (0..k * n).map(|i| pattern(i * 31 + 7)).collect();
        let acc0: Vec<F> = (0..n).map(|i| pattern(i * 17 + 3)).collect();
        let mut acc = acc0.clone();
        row_fma(&x, &rows, &mut acc);
        for j in 0..n {
            let want = (0..k).fold(acc0[j], |c, kk| x[kk].mul_add(rows[kk * n + j], c));
            assert_eq!(acc[j].to_bits_u64(), want.to_bits_u64(), "lane {j}");
        }
    }

    #[test]
    fn slice_forms_agree_with_scalar_mul_add() {
        let a: Vec<u16> = (0..=u16::MAX).step_by(97).collect();
        let n = a.len();
        let b: Vec<u16> = (0..n).map(|i| a[(i * 31 + 7) % n]).collect();
        let acc0: Vec<u16> = (0..n).map(|i| a[(i * 17 + 3) % n]).collect();
        let mut acc = acc0.clone();
        fma(&a, &b, &mut acc);
        for i in 0..n {
            let (x, y, z) = (
                Half::from_bits(a[i]),
                Half::from_bits(b[i]),
                Half::from_bits(acc0[i]),
            );
            assert_eq!(acc[i], x.mul_add(y, z).to_bits(), "fma lane {i}");
        }
        // Spread patterns over each format's whole bit space, so NaNs,
        // infinities and subnormals of both signs come up.
        let spread =
            |i: usize, bits: u32| (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - bits);
        row_fma_matches_scalar(|i| f64::from_bits(spread(i, 64)));
        row_fma_matches_scalar(|i| f32::from_bits(spread(i, 32) as u32));
        row_fma_matches_scalar(|i| Half::from_bits(spread(i, 16) as u16));
    }

    #[test]
    #[should_panic(expected = "equal lengths")]
    fn mismatched_lengths_rejected() {
        let mut acc = [0u16; 2];
        fma(&[0; 3], &[0; 3], &mut acc);
    }

    #[test]
    #[should_panic(expected = "one row per coefficient")]
    fn row_fma_rejects_a_short_matrix() {
        let mut acc = [0.0f32; 2];
        row_fma(&[1.0; 3], &[0.0; 5], &mut acc);
    }
}
