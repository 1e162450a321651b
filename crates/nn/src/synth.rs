//! Deterministic synthetic weights and datasets.
//!
//! The paper runs MNIST digits and the Caltech pedestrian dataset; those
//! pixels are not redistributable inputs of this reproduction and their
//! provenance does not affect the criticality mechanics. These
//! generators produce deterministic stand-ins: structured "digit"
//! patterns and "scene" images with class-typical textures, plus network
//! weights drawn from a seeded generator and *shared across precisions*
//! (the paper casts one set of single-precision weights; retraining per
//! precision would confound the comparison — Section 3.1).
//!
//! mpr-allow-file: precision-leak -- generators run in the f64 master domain by design; every value crosses into F exactly once at a from_f64 boundary so all precisions see the same inputs

use crate::Tensor;
use mpr_fault::{gen_value, splitmix64};
use mpr_softfloat::FloatExt;

/// Weight vector scaled by `1/sqrt(fan_in)`, centered on zero.
pub(crate) fn gen_weights<F: FloatExt>(seed: u64, n: usize, fan_in: usize) -> Vec<F> {
    let scale = 1.0 / (fan_in as f64).sqrt();
    (0..n as u64)
        .map(|i| F::from_f64(gen_value(seed, i, -scale, scale)))
        .collect()
}

/// A synthetic "handwritten digit": a class-dependent stroke pattern on
/// a dark background with deterministic pixel noise, `1 x size x size`.
pub(crate) fn digit_image<F: FloatExt>(class: usize, seed: u64, size: usize) -> Tensor<F> {
    Tensor::from_fn(1, size, size, |_, y, x| {
        // Class-dependent stroke: a band whose orientation and offset
        // depend on the digit class, vaguely like stroke statistics.
        let phase = (class * 7) % 10;
        let stroke = match class % 4 {
            0 => y.abs_diff(size / 2) <= 1,     // horizontal bar
            1 => x.abs_diff(size / 2) <= 1,     // vertical bar
            2 => x.abs_diff(y) <= 1,            // diagonal
            _ => x.abs_diff(size - 1 - y) <= 1, // anti-diagonal
        };
        let ring = y.abs_diff(phase) + x.abs_diff(phase) <= size / 3;
        let base = if stroke || ring { 0.9 } else { 0.05 };
        let noise = gen_value(seed, (y * size + x) as u64, -0.04, 0.04);
        F::from_f64(base + noise)
    })
}

/// A synthetic road "scene": textured background with `n_objects`
/// class-typed rectangles, `3 x size x size`.
pub(crate) fn scene_image<F: FloatExt>(seed: u64, size: usize, n_objects: usize) -> Tensor<F> {
    // Object placements derived from the seed.
    let objects: Vec<(usize, usize, usize, usize)> = (0..n_objects as u64)
        .map(|i| {
            let cx = (splitmix64(seed ^ (i * 3 + 1)) as usize) % (size - 6) + 3;
            let cy = (splitmix64(seed ^ (i * 3 + 2)) as usize) % (size - 6) + 3;
            let class = (splitmix64(seed ^ (i * 3 + 3)) as usize) % 3;
            let half_w = 2 + class;
            (cx, cy, class, half_w)
        })
        .collect();
    Tensor::from_fn(3, size, size, |c, y, x| {
        let mut v = 0.1 + 0.05 * ((x + y + c) % 3) as f64; // background texture
        for &(cx, cy, class, half_w) in &objects {
            if x.abs_diff(cx) <= half_w && y.abs_diff(cy) <= half_w {
                // Class-typical color signature per channel.
                v = if c == class { 0.85 } else { 0.25 };
            }
        }
        let noise = gen_value(seed, ((c * size + y) * size + x) as u64, -0.03, 0.03);
        F::from_f64(v + noise)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weights_are_deterministic_and_scaled() {
        let a: Vec<f64> = gen_weights(1, 100, 25);
        let b: Vec<f64> = gen_weights(1, 100, 25);
        assert_eq!(a, b);
        assert!(a.iter().all(|w| w.abs() <= 0.2));
        let c: Vec<f64> = gen_weights(2, 100, 25);
        assert_ne!(a, c);
    }

    #[test]
    fn weights_cast_consistently_across_precisions() {
        use mpr_softfloat::Half;
        let d: Vec<f64> = gen_weights(9, 50, 16);
        let h: Vec<Half> = gen_weights(9, 50, 16);
        for (x, y) in d.iter().zip(&h) {
            // Same underlying value, rounded once into half.
            assert_eq!(Half::from_f64(*x).to_bits(), y.to_bits());
        }
    }

    #[test]
    fn digit_images_differ_by_class() {
        let a: Tensor<f64> = digit_image(0, 5, 16);
        let b: Tensor<f64> = digit_image(1, 5, 16);
        assert_ne!(a.to_f64_vec(), b.to_f64_vec());
        assert!(a.to_f64_vec().iter().all(|&v| (-0.1..=1.0).contains(&v)));
    }

    #[test]
    fn scenes_have_objects_and_background() {
        let s: Tensor<f64> = scene_image(3, 16, 2);
        let v = s.to_f64_vec();
        assert!(v.iter().any(|&p| p > 0.7), "object pixels present");
        assert!(v.iter().any(|&p| p < 0.3), "background present");
        assert_eq!(s.shape(), (3, 16, 16));
    }
}
