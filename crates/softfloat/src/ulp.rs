//! ULP distances and the relative-error measure behind the TRE analysis.
//!
//! The paper scores every Silent Data Corruption by how far the corrupted
//! output strays from the expected value, then asks which fraction of SDCs
//! a user tolerating a given relative error would still accept (Tolerated
//! Relative Error, Section 3.2). [`relative_error`] is that measure,
//! [`max_relative_error`] its per-run reference, and [`sdc_severity`] the
//! one-pass form campaigns run: it decides whether an output is corrupted
//! and scores it in the same sweep.

use crate::FloatExt;

/// Relative error `|observed - expected| / |expected|`.
///
/// Edge conventions chosen to make TRE classification conservative:
/// a NaN or infinite observation is *infinitely* wrong; a corrupted value
/// against an expected zero is infinitely wrong unless it is also zero.
///
/// ```rust
/// use mpr_softfloat::ulp::relative_error;
/// assert_eq!(relative_error(101.0, 100.0), 0.01);
/// assert_eq!(relative_error(0.0, 0.0), 0.0);
/// assert_eq!(relative_error(f64::NAN, 1.0), f64::INFINITY);
/// assert_eq!(relative_error(1.0, 0.0), f64::INFINITY);
/// ```
pub fn relative_error(observed: f64, expected: f64) -> f64 {
    if observed.to_bits() == expected.to_bits() {
        return 0.0;
    }
    if !observed.is_finite() || !expected.is_finite() {
        return f64::INFINITY;
    }
    if expected == 0.0 {
        return if observed == 0.0 { 0.0 } else { f64::INFINITY };
    }
    ((observed - expected) / expected).abs()
}

/// Largest relative error across paired elements — the per-run severity of
/// an SDC event. Lengths must match.
///
/// This is the reference definition; campaigns score strikes with
/// [`sdc_severity`], which folds the corruption test into the same pass.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn max_relative_error(observed: &[f64], expected: &[f64]) -> f64 {
    assert_eq!(
        observed.len(),
        expected.len(),
        "output vectors must be the same length"
    );
    observed
        .iter()
        .zip(expected)
        .map(|(&o, &e)| relative_error(o, e))
        .fold(0.0, f64::max)
}

/// Elements [`sdc_severity`] compares and scores at a time.
const CHUNK: usize = 8;

/// One pass that both detects and scores an SDC: `None` when `observed`
/// is bit-identical to `expected` (the strike was masked), otherwise
/// `Some(max_relative_error(observed, expected))`, bit for bit.
///
/// Bit-identical chunks of eight elements are skipped after one
/// compare. A chunk that differs is scored without a branch per
/// element: `|(o - e) / e|` already is [`relative_error`] wherever it is
/// not NaN, and a NaN quotient (a NaN or infinite operand, or zero over
/// zero) means 0 when `o == e` or the bits match and infinity otherwise.
/// Every score is a non-NaN value `>= 0`, so the lane-wise maximum
/// equals the sequential fold.
///
/// ```rust
/// use mpr_softfloat::ulp::sdc_severity;
/// assert_eq!(sdc_severity(&[1.0, 2.0], &[1.0, 2.0]), None);
/// assert_eq!(sdc_severity(&[1.0, 2.2], &[1.0, 2.0]), Some(0.10000000000000009));
/// // Different bits, same value: corrupted, but with severity 0.
/// assert_eq!(sdc_severity(&[-0.0], &[0.0]), Some(0.0));
/// ```
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn sdc_severity(observed: &[f64], expected: &[f64]) -> Option<f64> {
    assert_eq!(
        observed.len(),
        expected.len(),
        "output vectors must be the same length"
    );
    let mut worst = [0.0f64; CHUNK];
    let mut corrupted = false;
    let split = observed.len() - observed.len() % CHUNK;
    let (body, tail) = observed.split_at(split);
    let (golden_body, golden_tail) = expected.split_at(split);
    for (o, e) in body
        .chunks_exact(CHUNK)
        .zip(golden_body.chunks_exact(CHUNK))
    {
        let diff = o
            .iter()
            .zip(e)
            .fold(0, |acc, (o, e)| acc | (o.to_bits() ^ e.to_bits()));
        if diff != 0 {
            corrupted = true;
            for ((w, &o), &e) in worst.iter_mut().zip(o).zip(e) {
                *w = score(*w, o, e);
            }
        }
    }
    for ((w, &o), &e) in worst.iter_mut().zip(tail).zip(golden_tail) {
        corrupted |= o.to_bits() != e.to_bits();
        *w = score(*w, o, e);
    }
    corrupted.then(|| worst.into_iter().fold(0.0, f64::max))
}

/// `max(worst, relative_error(o, e))` for `worst >= 0`, written as
/// selects so a chunk's lanes vectorize.
#[inline(always)]
fn score(worst: f64, o: f64, e: f64) -> f64 {
    let q = ((o - e) / e).abs();
    let r = if q.is_nan() && o != e && o.to_bits() != e.to_bits() {
        f64::INFINITY
    } else {
        q
    };
    // A NaN `r` (the remaining zero-severity cases) leaves `worst` as is.
    if r > worst {
        r
    } else {
        worst
    }
}

/// Number of representable values between `a` and `b` in the format of
/// `F`, treating the pair symmetrically. NaN against anything is `u64::MAX`.
///
/// ```rust
/// use mpr_softfloat::{ulp::ulp_distance, Half};
/// assert_eq!(ulp_distance(1.0f64, 1.0f64), 0);
/// assert_eq!(ulp_distance(1.0f32, f32::from_bits(1.0f32.to_bits() + 3)), 3);
/// assert_eq!(ulp_distance(Half::ONE, -Half::ONE), 2 * 0x3C00);
/// ```
pub fn ulp_distance<F: FloatExt>(a: F, b: F) -> u64 {
    if a.is_nan() || b.is_nan() {
        return u64::MAX;
    }
    let width = F::PRECISION.total_bits();
    let to_ordered = |v: F| -> i64 {
        let bits = v.to_bits_u64() as i64;
        let sign_bit = 1i64 << (width - 1);
        if bits & sign_bit != 0 {
            sign_bit - bits
        } else {
            bits
        }
    };
    // The difference of two ordered keys can exceed i64 (e.g. +inf vs -inf
    // in binary64), so widen before subtracting.
    (to_ordered(a) as i128 - to_ordered(b) as i128).unsigned_abs() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Half;

    #[test]
    fn relative_error_basics() {
        assert_eq!(relative_error(110.0, 100.0), 0.1);
        assert_eq!(relative_error(90.0, 100.0), 0.1);
        assert_eq!(relative_error(-90.0, -100.0), 0.1);
        assert_eq!(relative_error(5.0, 5.0), 0.0);
    }

    #[test]
    fn relative_error_edge_cases() {
        assert_eq!(relative_error(f64::INFINITY, 1.0), f64::INFINITY);
        assert_eq!(relative_error(1.0, f64::NAN), f64::INFINITY);
        assert_eq!(relative_error(0.0, 1.0), 1.0);
        assert_eq!(relative_error(-0.0, 0.0), 0.0); // same value, different bits
                                                    // Identical NaN bit patterns count as "no corruption": the output
                                                    // byte-compares equal to the golden output.
        assert_eq!(relative_error(f64::NAN, f64::NAN), 0.0);
    }

    #[test]
    fn max_relative_error_picks_worst_element() {
        let golden = [1.0, 2.0, 4.0];
        let observed = [1.0, 2.2, 4.0];
        assert!((max_relative_error(&observed, &golden) - 0.1).abs() < 1e-12);
        assert_eq!(max_relative_error(&golden, &golden), 0.0);
    }

    #[test]
    #[should_panic(expected = "same length")]
    fn max_relative_error_length_mismatch_panics() {
        let _ = max_relative_error(&[1.0], &[1.0, 2.0]);
    }

    /// The two-pass reference: a bit compare,
    /// then [`max_relative_error`] on a corrupted output.
    fn two_pass(observed: &[f64], expected: &[f64]) -> Option<u64> {
        let corrupted = observed
            .iter()
            .zip(expected)
            .any(|(o, e)| o.to_bits() != e.to_bits());
        corrupted.then(|| max_relative_error(observed, expected).to_bits())
    }

    fn one_pass(observed: &[f64], expected: &[f64]) -> Option<u64> {
        sdc_severity(observed, expected).map(f64::to_bits)
    }

    #[test]
    fn sdc_severity_matches_two_pass_on_edge_pairs() {
        let nan = f64::from_bits(0x7FF8_0000_0000_0000);
        let payload = f64::from_bits(0x7FF8_0000_0000_0001);
        let tiny = f64::from_bits(1);
        let pairs = [
            (-0.0, 0.0),
            (0.0, -0.0),
            (1.0, 0.0),
            (-1e-300, -0.0),
            (nan, nan),
            (payload, nan),
            (nan, 1.0),
            (1.0, payload),
            (-payload, -payload),
            (f64::INFINITY, f64::INFINITY),
            (f64::NEG_INFINITY, f64::INFINITY),
            (f64::INFINITY, 1.0),
            (1.0, f64::NEG_INFINITY),
            (nan, f64::INFINITY),
            (tiny, f64::from_bits(2)),
            (tiny, 0.0),
            (0.0, tiny),
            (-tiny, tiny),
            (f64::MAX, -f64::MAX),
            (f64::MAX, tiny),
            (1.5, 1.0),
        ];
        // Nineteen elements: two full chunks and a three-element tail,
        // so every pair is tried in a chunk and in the tail, next to
        // unchanged NaN, infinite and zero elements that must score 0.
        let mut golden: Vec<f64> = (0..19).map(|i| f64::from(i) - 4.5).collect();
        golden[1] = payload;
        golden[10] = f64::NEG_INFINITY;
        golden[17] = 0.0;
        for &(o, e) in &pairs {
            for at in 0..golden.len() {
                let mut expected = golden.clone();
                expected[at] = e;
                let mut observed = expected.clone();
                observed[at] = o;
                assert_eq!(
                    one_pass(&observed, &expected),
                    two_pass(&observed, &expected),
                    "{o:?} vs {e:?} at {at}"
                );
            }
        }
        assert_eq!(sdc_severity(&[-0.0], &[0.0]), Some(0.0));
        assert_eq!(sdc_severity(&[nan], &[nan]), None);
        assert_eq!(sdc_severity(&[payload], &[nan]), Some(f64::INFINITY));
        assert_eq!(sdc_severity(&[], &[]), None);
    }

    #[test]
    fn sdc_severity_sees_corruption_only_in_the_tail_chunk() {
        let golden: Vec<f64> = (1..=13).map(f64::from).collect();
        assert_eq!(sdc_severity(&golden, &golden), None);
        for at in 8..13 {
            let mut observed = golden.clone();
            observed[at] *= 1.25;
            assert_eq!(sdc_severity(&observed, &golden), Some(0.25), "at {at}");
        }
    }

    #[test]
    #[should_panic(expected = "same length")]
    fn sdc_severity_length_mismatch_panics() {
        let _ = sdc_severity(&[1.0, 2.0], &[1.0]);
    }

    proptest::proptest! {
        #[test]
        fn sdc_severity_matches_two_pass(
            bits in proptest::collection::vec(proptest::prelude::any::<u64>(), 0..40),
            flips in proptest::collection::vec(proptest::prelude::any::<u64>(), 0..40),
            dense in proptest::prelude::any::<bool>(),
        ) {
            // Golden values from raw bits (NaNs, infinities, subnormals
            // included); corruption flips one bit per chosen element,
            // sparsely (a few elements) or densely (nearly all).
            let expected: Vec<f64> = bits.iter().map(|&b| f64::from_bits(b)).collect();
            let mut observed = expected.clone();
            let hits = if dense { flips.len() } else { 3 };
            for (k, &f) in flips.iter().take(hits).enumerate() {
                let at = if dense { k } else { (f >> 6) as usize % 40 };
                if let Some(v) = observed.get_mut(at) {
                    *v = f64::from_bits(v.to_bits() ^ (1 << (f % 64)));
                }
            }
            proptest::prop_assert_eq!(
                one_pass(&observed, &expected),
                two_pass(&observed, &expected)
            );
        }
    }

    #[test]
    fn ulp_distance_adjacent_values() {
        let one = 1.0f64;
        let next = f64::from_bits(one.to_bits() + 1);
        assert_eq!(ulp_distance(one, next), 1);
        assert_eq!(ulp_distance(next, one), 1);
        let h1 = Half::ONE;
        let h2 = Half::from_bits(h1.to_bits() + 1);
        assert_eq!(ulp_distance(h1, h2), 1);
    }

    #[test]
    fn ulp_distance_across_zero() {
        // +0 and -0 are adjacent in the ordered mapping (distance 0 would
        // also be defensible; we count the signed-zero gap as 0).
        assert_eq!(ulp_distance(0.0f64, -0.0f64), 0);
        let tiny = f64::from_bits(1);
        assert_eq!(ulp_distance(tiny, -tiny), 2);
    }

    #[test]
    fn ulp_distance_nan() {
        assert_eq!(ulp_distance(f64::NAN, 1.0), u64::MAX);
        assert_eq!(ulp_distance(Half::NAN, Half::ONE), u64::MAX);
    }
}
