//! Wide binary16 FMA lanes over bit-pattern slices.
//!
//! Campaign strike batches spend nearly all of their half-precision time
//! in tight FMA loops over independent lanes. This module gives those
//! loops a slice shape: lanes are `u16` bit patterns, not
//! [`Half`] values, because batched kernels keep their fault state as
//! structure-of-arrays bit planes (`Half::to_bits`/`from_bits` are free).
//!
//! # Contract
//!
//! Every lane **is** [`Half::mul_add`]: the loops below call it, and it
//! inlines down to the branch-free widen/narrow kernels every `Half`
//! operation shares, which the autovectorizer maps onto SIMD float
//! units. There is no second binary16 implementation to keep in sync;
//! the crate's tests hold the one implementation to an exact integer
//! oracle (DESIGN.md §4i).

use crate::Half;

/// Natural lane count for batched kernels: 16 lanes of binary16 fill a
/// 256-bit vector after widening to `f32` pairs on common targets.
pub const LANES: usize = 16;

#[inline(always)]
fn fma_lane(a: u16, b: u16, c: u16) -> u16 {
    Half::from_bits(a)
        .mul_add(Half::from_bits(b), Half::from_bits(c))
        .to_bits()
}

/// Elementwise fused multiply-accumulate over bit patterns:
/// `acc[i] = fma(a[i], b[i], acc[i])`, each lane `Half::mul_add`. This
/// is the batched kernels' dot-product step.
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
        *c = fma_lane(x, y, *c);
    }
}

/// Broadcast fused multiply-accumulate:
/// `acc[i] = fma(a, b[i], acc[i])` — the GEMM row-recompute step, where
/// one faulted `A` element multiplies a contiguous `B` row.
///
/// # Panics
///
/// Panics if the slice lengths differ.
#[inline]
pub fn fma_broadcast(a: u16, b: &[u16], acc: &mut [u16]) {
    assert_eq!(b.len(), acc.len(), "wide lanes need equal lengths");
    for (&y, c) in b.iter().zip(acc.iter_mut()) {
        *c = fma_lane(a, y, *c);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_forms_agree_with_scalar_mul_add() {
        let a: Vec<u16> = (0..=u16::MAX).step_by(97).collect();
        let n = a.len();
        let b: Vec<u16> = (0..n).map(|i| a[(i * 31 + 7) % n]).collect();
        let acc0: Vec<u16> = (0..n).map(|i| a[(i * 17 + 3) % n]).collect();
        let mut acc = acc0.clone();
        fma(&a, &b, &mut acc);
        let coef = Half::from_f32(1.25).to_bits();
        let mut bacc = acc0.clone();
        fma_broadcast(coef, &b, &mut bacc);
        for i in 0..n {
            let (x, y, z) = (
                Half::from_bits(a[i]),
                Half::from_bits(b[i]),
                Half::from_bits(acc0[i]),
            );
            assert_eq!(acc[i], x.mul_add(y, z).to_bits(), "fma lane {i}");
            assert_eq!(
                bacc[i],
                Half::from_bits(coef).mul_add(y, z).to_bits(),
                "fma_broadcast lane {i}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "equal lengths")]
    fn mismatched_lengths_rejected() {
        let mut acc = [0u16; 2];
        fma(&[0; 3], &[0; 3], &mut acc);
    }
}
