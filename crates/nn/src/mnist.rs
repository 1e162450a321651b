//! The MNIST LeNet-style classifier.

use crate::layers::{conv2d, dense, maxpool2, relu, ConvWeights};
use crate::synth::{digit_image, gen_weights};
use crate::Tensor;
use mpr_fault::hook::FaultHook;
use mpr_fault::{monomorphic_workload, Workload};
use mpr_softfloat::{FloatExt, Precision};

/// A LeNet-style convolutional digit classifier — the CNN the paper
/// synthesizes on the FPGA (Section 3.1, "a topology very similar to
/// LeNet").
///
/// Topology (on a 16x16 proxy canvas): `conv 1->4 (5x5)` + leaky ReLU +
/// 2x2 max pool, `conv 4->8 (3x3)` + leaky ReLU + 2x2 max pool,
/// `dense 32->10`. Weights are generated once from a seed and cast into
/// each precision; the network is *not retrained* per precision,
/// matching the paper's methodology.
///
/// As a [`Workload`] its output is the 10 class logits; an SDC is
/// *critical* when the arg-max class changes
/// ([`crate::classify_logits`]).
#[derive(Debug, Clone)]
pub struct Mnist {
    seed: u64,
    digit: usize,
}

impl Mnist {
    /// The default classifier instance (digit class 3, default seed).
    pub fn new() -> Mnist {
        Mnist {
            seed: 0x313,
            digit: 3,
        }
    }

    /// Classifies a different synthetic digit class (0..=9).
    ///
    /// # Panics
    ///
    /// Panics if `digit > 9`.
    pub fn with_digit(mut self, digit: usize) -> Mnist {
        assert!(digit <= 9, "MNIST has classes 0..=9");
        self.digit = digit;
        self
    }

    /// Overrides the weight/data seed.
    pub fn with_seed(mut self, seed: u64) -> Mnist {
        self.seed = seed;
        self
    }

    fn run<F: FloatExt, H: FaultHook + ?Sized>(&self, hook: &mut H) -> Vec<f64> {
        let input: Tensor<F> = digit_image(self.digit, self.seed ^ 0xD161, 16);

        let conv1 = ConvWeights::new(
            gen_weights(self.seed ^ 1, 4 * 25, 25),
            gen_weights(self.seed ^ 2, 4, 25),
            1,
            4,
            5,
        );
        let conv2 = ConvWeights::new(
            gen_weights(self.seed ^ 3, 8 * 4 * 9, 36),
            gen_weights(self.seed ^ 4, 8, 36),
            4,
            8,
            3,
        );
        let fc_w: Vec<F> = gen_weights(self.seed ^ 5, 10 * 32, 32);
        let fc_b: Vec<F> = gen_weights(self.seed ^ 6, 10, 32);

        let x = conv2d(&input, &conv1, hook); // 4 x 12 x 12
        let x = relu(&x, hook);
        let x = maxpool2(&x, hook); // 4 x 6 x 6
        let x = conv2d(&x, &conv2, hook); // 8 x 4 x 4
        let x = relu(&x, hook);
        let x = maxpool2(&x, hook); // 8 x 2 x 2
        let logits = dense(x.as_slice(), &fc_w, &fc_b, hook);
        logits.iter().map(|v| v.to_f64()).collect()
    }

    /// Fraction of a synthetic digit batch on which the fault-free
    /// network at `precision` agrees with its own `reference`-precision
    /// classification.
    ///
    /// This is the paper's accuracy-consistency check (Section 3.1: "the
    /// accuracy of the half precision version is less than 2% lower than
    /// the double one") — the weights are cast, never retrained, so any
    /// disagreement is pure rounding.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero.
    pub fn batch_agreement(&self, precision: Precision, reference: Precision, batch: usize) -> f64 {
        assert!(batch > 0, "need at least one image");
        let mut agree = 0usize;
        for i in 0..batch {
            let instance = self
                .clone()
                .with_digit(i % 10)
                .with_seed(self.seed ^ ((i as u64 / 10) << 16));
            if instance.golden_class(precision) == instance.golden_class(reference) {
                agree += 1;
            }
        }
        agree as f64 / batch as f64
    }

    /// The class the fault-free network assigns at the given precision.
    #[expect(
        clippy::expect_used,
        reason = "the classifier head always emits ten logits"
    )]
    pub fn golden_class(&self, precision: Precision) -> usize {
        let logits = self.run_golden(precision);
        logits
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .expect("ten logits")
    }
}

impl Default for Mnist {
    fn default() -> Self {
        Mnist::new()
    }
}

impl Workload for Mnist {
    fn name(&self) -> &str {
        "MNIST"
    }

    monomorphic_workload!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpr_fault::ValueFault;

    #[test]
    fn outputs_ten_finite_logits() {
        let m = Mnist::new();
        for p in Precision::ALL {
            let logits = m.run_golden(p);
            assert_eq!(logits.len(), 10);
            assert!(logits.iter().all(|v| v.is_finite()), "{p}: {logits:?}");
        }
    }

    #[test]
    fn classification_is_stable_across_precisions() {
        // Casting weights to lower precision must not change the
        // fault-free classification (the paper reports <2% accuracy loss).
        let m = Mnist::new();
        let d = m.golden_class(Precision::Double);
        assert_eq!(m.golden_class(Precision::Single), d);
        assert_eq!(m.golden_class(Precision::Half), d);
    }

    #[test]
    fn site_count_is_substantial_and_precision_independent() {
        let m = Mnist::new();
        let n = m.site_count(Precision::Single);
        assert!(n > 10_000, "enough fault sites: {n}");
        assert_eq!(n, m.site_count(Precision::Double));
        assert_eq!(n, m.site_count(Precision::Half));
    }

    #[test]
    fn site_count_is_the_sum_of_the_layer_table() {
        // conv1 4x12x12 chains of 25, ReLU, pool 4x6x6, conv2 8x4x4
        // chains of 36, ReLU, pool 8x2x2, dense 10x32: 20,208 sites.
        let layers: [u64; 7] = [14_400, 576, 144, 4_608, 128, 32, 320];
        for p in Precision::ALL {
            assert_eq!(Mnist::new().site_count(p), layers.iter().sum(), "{p}");
        }
    }

    #[test]
    fn many_faults_are_masked_by_pooling_and_relu() {
        // The paper's FPGA result: CNNs naturally mask a significant
        // fraction of faults. Flip a low mantissa bit at scattered sites
        // and count unchanged outputs.
        let m = Mnist::new();
        let golden = m.run_golden(Precision::Single);
        let sites = m.site_count(Precision::Single);
        let mut masked = 0;
        let trials = 60;
        for t in 0..trials {
            let site = (t * sites) / trials;
            let out = m.run_with_fault(Precision::Single, site, ValueFault::BitFlip(8));
            if out == golden {
                masked += 1;
            }
        }
        assert!(masked > trials / 4, "only {masked}/{trials} masked");
    }

    #[test]
    fn precision_casting_barely_moves_accuracy() {
        // Paper Section 3.1: casting the weights costs < 2% accuracy.
        let m = Mnist::new();
        let half = m.batch_agreement(Precision::Half, Precision::Double, 40);
        let single = m.batch_agreement(Precision::Single, Precision::Double, 40);
        assert!(half >= 0.98, "half agreement {half}");
        assert!(single >= 0.98, "single agreement {single}");
        assert_eq!(
            m.batch_agreement(Precision::Double, Precision::Double, 10),
            1.0
        );
    }

    #[test]
    fn different_digits_produce_different_logits() {
        let a = Mnist::new().with_digit(1).run_golden(Precision::Double);
        let b = Mnist::new().with_digit(7).run_golden(Precision::Double);
        assert_ne!(a, b);
    }
}
