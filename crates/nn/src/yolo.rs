//! The TinyYolo single-shot detector.

use crate::layers::{conv2d, leaky_relu, maxpool2, sigmoid, ConvWeights};
use crate::synth::{gen_weights, scene_image};
use crate::{Detection, Tensor};
use mpr_fault::hook::{FaultHook, HookExt};
use mpr_fault::{monomorphic_workload, Workload};
use mpr_softfloat::FloatExt;

/// Grid side of the detection head.
const GRID: usize = 5;
/// Object classes (enough that class posteriors compete closely,
/// like a trained detector's near-confusable categories).
const CLASSES: usize = 6;
/// Output channels per grid cell: objectness + 4 box terms + classes.
const HEAD_CH: usize = 5 + CLASSES;
/// Detection confidence threshold.
const SCORE_THRESHOLD: f64 = 0.55;

/// A compact YOLO-style single-shot detector, the stand-in for the
/// paper's YOLOv3 runs (Section 3.1).
///
/// Backbone: `conv 3->8 (3x3)` + leaky ReLU + pool, `conv 8->16 (3x3)` +
/// leaky ReLU; head: `conv 16->8 (1x1)` onto a 5x5 grid, one box per
/// cell with objectness and class scores squashed by an in-precision
/// sigmoid (GPUs evaluate the exponential in software, so its
/// intermediates are fault sites).
///
/// As a [`Workload`] its output is the raw head tensor; decode with
/// [`TinyYolo::decode`] and score SDCs with
/// [`crate::classify_detections`] into the paper's tolerable /
/// detection-changed / classification-changed categories (Figure 11c).
///
/// # Example
///
/// ```rust
/// use mpr_fault::Workload;
/// use mpr_nn::TinyYolo;
/// use mpr_softfloat::Precision;
///
/// let yolo = TinyYolo::new();
/// let out = yolo.run_golden(Precision::Single);
/// let detections = TinyYolo::decode(&out);
/// assert!(!detections.is_empty(), "the synthetic scene has objects");
/// ```
#[derive(Debug, Clone)]
pub struct TinyYolo {
    seed: u64,
    scene: u64,
}

impl TinyYolo {
    /// The default detector on the default synthetic scene.
    pub fn new() -> TinyYolo {
        // Seed/scene pair chosen so the fault-free detector finds the
        // scene's objects identically at all three precisions, with
        // confident objectness and competitive class posteriors.
        TinyYolo {
            seed: 0x3CBF,
            scene: 5,
        }
    }

    /// Overrides the weight seed.
    pub fn with_seed(mut self, seed: u64) -> TinyYolo {
        self.seed = seed;
        self
    }

    fn run<F: FloatExt, H: FaultHook + ?Sized>(&self, hook: &mut H) -> Vec<f64> {
        let input: Tensor<F> = scene_image(self.scene, 14, 2);

        let conv1 = ConvWeights::new(
            gen_weights(self.seed ^ 1, 8 * 3 * 9, 27),
            gen_weights(self.seed ^ 2, 8, 27),
            3,
            8,
            3,
        );
        let conv2 = ConvWeights::new(
            gen_weights(self.seed ^ 3, 16 * 8 * 9, 72),
            gen_weights(self.seed ^ 4, 16, 72),
            8,
            16,
            3,
        );
        let mut head_kernels: Vec<F> = gen_weights(self.seed ^ 5, HEAD_CH * 16, 16);
        let mut head_biases: Vec<F> = gen_weights(self.seed ^ 6, HEAD_CH, 16);
        // A trained detector is *confident*: objectness saturates toward
        // 0/1 instead of skimming the threshold. Widen the objectness
        // logit range by scaling its head channel; class channels stay at
        // unit scale so their posteriors compete closely (near-confusable
        // categories), as in a real multi-class detector.
        let obj_gain = F::from_f64(20.0);
        for w in head_kernels.iter_mut().take(16) {
            // mpr-allow: fault-site -- weight synthesis precedes injection; campaigns count sites from the first conv2d
            *w *= obj_gain;
        }
        head_biases[0] *= obj_gain;
        let head = ConvWeights::new(head_kernels, head_biases, 16, HEAD_CH, 1);

        let x = conv2d(&input, &conv1, hook); // 8 x 12 x 12
        let x = leaky_relu(&x, hook);
        let x = maxpool2(&x, hook); // 8 x 6 x 6... pooled from 12
        let x = conv2d(&x, &conv2, hook); // 16 x 4 x 4
        let x = leaky_relu(&x, hook);
        // Upsample-free head: GRID must match the spatial size plus one
        // ring, so run the head per cell over a 5x5 sampling of the 4x4
        // map with clamped coordinates (a cheap anchor grid).
        let mut out = Vec::with_capacity(HEAD_CH * GRID * GRID);
        let (_, fh, fw) = x.shape();
        for gy in 0..GRID {
            for gx in 0..GRID {
                let sy = gy.min(fh - 1);
                let sx = gx.min(fw - 1);
                for ch in 0..HEAD_CH {
                    // 1x1 convolution at the sampled cell.
                    let mut acc: F = head.biases[ch];
                    for i in 0..16 {
                        acc = hook.touch(head.kernels[ch * 16 + i].mul_add(x.get(i, sy, sx), acc));
                    }
                    // Squash objectness, offsets, and class scores; leave
                    // width/height terms raw (channels 3, 4).
                    let v = if ch == 3 || ch == 4 {
                        hook.touch(acc)
                    } else {
                        sigmoid(acc, hook)
                    };
                    out.push(v.to_f64());
                }
            }
        }
        out
    }

    /// Decodes a raw head output (as produced by the workload run) into
    /// thresholded detections with greedy non-maximum suppression.
    ///
    /// # Panics
    ///
    /// Panics if the output length is not `GRID*GRID*HEAD_CH`.
    pub fn decode(output: &[f64]) -> Vec<Detection> {
        assert_eq!(output.len(), GRID * GRID * HEAD_CH, "malformed head output");
        let mut candidates = Vec::new();
        for gy in 0..GRID {
            for gx in 0..GRID {
                let base = (gy * GRID + gx) * HEAD_CH;
                let obj = output[base];
                let detected = obj > SCORE_THRESHOLD;
                if !detected {
                    continue; // NaN objectness never detects
                }
                let cx = gx as f64 + output[base + 1];
                let cy = gy as f64 + output[base + 2];
                // Exponential box decode, clamped to the canvas like
                // YOLO's anchor scaling.
                let w = output[base + 3].exp().clamp(0.2, GRID as f64);
                let h = output[base + 4].exp().clamp(0.2, GRID as f64);
                #[expect(
                    clippy::expect_used,
                    reason = "the head emits `CLASSES` > 0 scores per cell"
                )]
                let (class, &score) = output[base + 5..base + 5 + CLASSES]
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .expect("nonempty class list");
                candidates.push(Detection {
                    class,
                    score: obj * score.max(0.0),
                    bbox: [cx, cy, w, h],
                });
            }
        }
        // Greedy NMS at IoU 0.5.
        candidates.sort_by(|a, b| b.score.total_cmp(&a.score));
        let mut kept: Vec<Detection> = Vec::new();
        for c in candidates {
            if kept.iter().all(|k| k.iou(&c) < 0.5) {
                kept.push(c);
            }
        }
        kept
    }
}

impl Default for TinyYolo {
    fn default() -> Self {
        TinyYolo::new()
    }
}

impl Workload for TinyYolo {
    fn name(&self) -> &str {
        "YOLOv3"
    }

    monomorphic_workload!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{classify_detections, DetectionImpact};
    use mpr_fault::ValueFault;
    use mpr_softfloat::Precision;

    #[test]
    fn head_output_has_the_declared_shape() {
        let yolo = TinyYolo::new();
        for p in Precision::ALL {
            let out = yolo.run_golden(p);
            assert_eq!(out.len(), GRID * GRID * HEAD_CH);
            assert!(out.iter().all(|v| v.is_finite()), "{p}");
        }
    }

    #[test]
    fn golden_detections_stable_across_precisions() {
        let yolo = TinyYolo::new();
        let d = TinyYolo::decode(&yolo.run_golden(Precision::Double));
        let s = TinyYolo::decode(&yolo.run_golden(Precision::Single));
        let h = TinyYolo::decode(&yolo.run_golden(Precision::Half));
        // Precision casting alone must not change what is detected
        // (paper: <2% accuracy change without faults).
        assert_eq!(classify_detections(&d, &s), DetectionImpact::Tolerable);
        assert_eq!(classify_detections(&d, &h), DetectionImpact::Tolerable);
    }

    #[test]
    fn decode_thresholds_objectness() {
        let mut out = vec![0.0; GRID * GRID * HEAD_CH];
        assert!(TinyYolo::decode(&out).is_empty());
        // Turn on one confident cell.
        out[0] = 0.9; // objectness of cell (0,0)
        out[5] = 0.8; // class 0 score
        let dets = TinyYolo::decode(&out);
        assert_eq!(dets.len(), 1);
        assert_eq!(dets[0].class, 0);
    }

    #[test]
    fn nan_objectness_is_never_detected() {
        let mut out = vec![0.0; GRID * GRID * HEAD_CH];
        out[0] = f64::NAN;
        assert!(TinyYolo::decode(&out).is_empty());
    }

    #[test]
    fn nms_suppresses_duplicates() {
        let mut out = vec![0.0; GRID * GRID * HEAD_CH];
        // Two adjacent cells detecting overlapping large boxes.
        for base in [0, HEAD_CH] {
            out[base] = 0.9;
            out[base + 3] = 1.2; // w = e^1.2
            out[base + 4] = 1.2;
            out[base + 5] = 0.7;
        }
        // Their centers differ by ~1 cell but boxes are ~3.3 wide.
        let dets = TinyYolo::decode(&out);
        assert_eq!(dets.len(), 1, "NMS keeps the best of the pair");
    }

    #[test]
    fn faults_can_change_detections() {
        let yolo = TinyYolo::new();
        let golden = TinyYolo::decode(&yolo.run_golden(Precision::Half));
        let sites = yolo.site_count(Precision::Half);
        let mut changed = 0;
        for t in 0..40u64 {
            let site = t * sites / 40;
            let out = yolo.run_with_fault(Precision::Half, site, ValueFault::BitFlip(14));
            if classify_detections(&golden, &TinyYolo::decode(&out)) != DetectionImpact::Tolerable {
                changed += 1;
            }
        }
        assert!(changed > 0, "high exponent-bit flips must matter");
    }

    #[test]
    fn site_count_precision_independent() {
        let yolo = TinyYolo::new();
        let d = yolo.site_count(Precision::Double);
        // Half/single share the count except for exp-polynomial depth in
        // the sigmoids, which is precision dependent.
        assert!(d >= yolo.site_count(Precision::Single));
        assert!(yolo.site_count(Precision::Single) >= yolo.site_count(Precision::Half));
    }
}
