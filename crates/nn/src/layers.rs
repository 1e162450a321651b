//! Precision-generic network layers with fault-site instrumentation.
//!
//! Every multiply-accumulate, activation, and pooling decision is a
//! fault site of the [`FaultHook`], so a beam strike can land anywhere
//! in the network's dataflow. [`conv2d`] offers each output row's FMA
//! chains to [`FaultHook::skip`] and runs an accepted row hook-free as
//! [`wide::row_fma`] lanes; every other site is touched one value at a
//! time. Max-pooling and ReLU are the *natural masking* mechanisms the
//! paper credits for the CNN's low architectural vulnerability
//! (Section 4.1): a corrupted value that is not the pool maximum, or
//! that is negative going into ReLU, never reaches the output.

use crate::Tensor;
use mpr_fault::hook::{FaultHook, HookExt};
use mpr_softfloat::math::{exp_horner, exp_reduce};
use mpr_softfloat::{wide, FloatExt};

/// Weights of one convolution layer: `out_ch` kernels of
/// `in_ch x k x k`, plus biases.
#[derive(Debug, Clone)]
pub struct ConvWeights<F> {
    /// Kernel tensor, flattened `[out_ch][in_ch][k][k]`.
    pub kernels: Vec<F>,
    /// One bias per output channel.
    pub biases: Vec<F>,
    /// Input channels.
    pub in_ch: usize,
    /// Output channels.
    pub out_ch: usize,
    /// Kernel side length.
    pub k: usize,
}

impl<F: FloatExt> ConvWeights<F> {
    /// Validates the dimensions.
    ///
    /// # Panics
    ///
    /// Panics if the buffer sizes do not match the declared shape.
    pub fn new(kernels: Vec<F>, biases: Vec<F>, in_ch: usize, out_ch: usize, k: usize) -> Self {
        assert_eq!(kernels.len(), out_ch * in_ch * k * k, "kernel buffer size");
        assert_eq!(biases.len(), out_ch, "bias buffer size");
        ConvWeights {
            kernels,
            biases,
            in_ch,
            out_ch,
            k,
        }
    }

    #[inline]
    fn kernel(&self, o: usize, i: usize, dy: usize, dx: usize) -> F {
        self.kernels[((o * self.in_ch + i) * self.k + dy) * self.k + dx]
    }
}

/// Valid (no padding) stride-1 2-D convolution.
///
/// Fault sites: one per FMA, `out_ch * oh * ow * in_ch * k^2` in all,
/// in `(o, y, x, i, dy, dx)` order; each output element is the chain
/// `bias[o]`, then `kernel(o, i, dy, dx).mul_add(input[i][y + dy][x +
/// dx], acc)` over `(i, dy, dx)`. Each output row `(o, y)` — `ow`
/// consecutive chains — is offered to [`FaultHook::skip`] first. An
/// accepted row runs hook-free as `ow` [`wide::row_fma`] lanes started
/// at the bias, one call per `(i, dy, dx)` over a contiguous input row
/// slice. A refused row offers each chain on its own: an accepted chain
/// takes its lane from the row, computed once when first needed, and
/// only a refused chain is touched value by value. Every lane is the
/// scalar chain, so the output bits do not depend on which path ran.
///
/// # Panics
///
/// Panics if the input is smaller than the kernel or the channel counts
/// disagree.
pub fn conv2d<F: FloatExt, H: FaultHook + ?Sized>(
    input: &Tensor<F>,
    w: &ConvWeights<F>,
    hook: &mut H,
) -> Tensor<F> {
    let (in_ch, h, width) = input.shape();
    assert_eq!(in_ch, w.in_ch, "channel mismatch");
    assert!(h >= w.k && width >= w.k, "input smaller than kernel");
    let oh = h - w.k + 1;
    let ow = width - w.k + 1;
    let chain = (in_ch * w.k * w.k) as u64;
    let src = input.as_slice();
    let row_lanes = |o: usize, y: usize, lanes: &mut [F]| {
        lanes.fill(w.biases[o]);
        for i in 0..in_ch {
            for dy in 0..w.k {
                let start = (i * h + y + dy) * width;
                for dx in 0..w.k {
                    let b = &src[start + dx..start + dx + ow];
                    wide::row_fma(&[w.kernel(o, i, dy, dx)], b, lanes);
                }
            }
        }
    };
    let mut out = Tensor::zeros(w.out_ch, oh, ow);
    let mut lanes = vec![F::zero(); ow];
    for o in 0..w.out_ch {
        for y in 0..oh {
            let row_clear = hook.skip(ow as u64 * chain);
            let mut computed = false;
            for x in 0..ow {
                let v = if row_clear || hook.skip(chain) {
                    if !computed {
                        computed = true;
                        row_lanes(o, y, &mut lanes);
                    }
                    lanes[x]
                } else {
                    let mut acc = w.biases[o];
                    for i in 0..in_ch {
                        for dy in 0..w.k {
                            for dx in 0..w.k {
                                acc = hook.touch(
                                    w.kernel(o, i, dy, dx)
                                        .mul_add(input.get(i, y + dy, x + dx), acc),
                                );
                            }
                        }
                    }
                    acc
                };
                out.set(o, y, x, v);
            }
        }
    }
    out
}

/// 2x2 max pooling with stride 2 (trailing odd row/column dropped).
pub fn maxpool2<F: FloatExt, H: FaultHook + ?Sized>(input: &Tensor<F>, hook: &mut H) -> Tensor<F> {
    let (c, h, w) = input.shape();
    let (oh, ow) = (h / 2, w / 2);
    assert!(oh > 0 && ow > 0, "input too small to pool");
    let mut out = Tensor::zeros(c, oh, ow);
    for ch in 0..c {
        for y in 0..oh {
            for x in 0..ow {
                let m = input
                    .get(ch, 2 * y, 2 * x)
                    .max(input.get(ch, 2 * y, 2 * x + 1))
                    .max(input.get(ch, 2 * y + 1, 2 * x))
                    .max(input.get(ch, 2 * y + 1, 2 * x + 1));
                out.set(ch, y, x, hook.touch(m));
            }
        }
    }
    out
}

/// ReLU: negatives become exactly zero — with max pooling, the CNN's
/// main natural fault-masking mechanism (paper Section 4.1).
pub fn relu<F: FloatExt, H: FaultHook + ?Sized>(input: &Tensor<F>, hook: &mut H) -> Tensor<F> {
    let (c, h, w) = input.shape();
    let mut out = Tensor::zeros(c, h, w);
    for ch in 0..c {
        for y in 0..h {
            for x in 0..w {
                let v = input.get(ch, y, x);
                let a = if v > F::zero() { v } else { F::zero() };
                out.set(ch, y, x, hook.touch(a));
            }
        }
    }
    out
}

/// Leaky ReLU (slope 0.125 — exactly representable at every precision).
pub fn leaky_relu<F: FloatExt, H: FaultHook + ?Sized>(
    input: &Tensor<F>,
    hook: &mut H,
) -> Tensor<F> {
    let (c, h, w) = input.shape();
    let slope = F::from_f64(0.125);
    let mut out = Tensor::zeros(c, h, w);
    for ch in 0..c {
        for y in 0..h {
            for x in 0..w {
                let v = input.get(ch, y, x);
                let a = if v >= F::zero() { v } else { v * slope };
                out.set(ch, y, x, hook.touch(a));
            }
        }
    }
    out
}

/// Fully connected layer: `out[j] = b[j] + sum_i w[j][i] * in[i]`.
///
/// # Panics
///
/// Panics if the weight matrix does not match the input length.
pub fn dense<F: FloatExt, H: FaultHook + ?Sized>(
    input: &[F],
    weights: &[F],
    biases: &[F],
    hook: &mut H,
) -> Vec<F> {
    let n_out = biases.len();
    assert_eq!(weights.len(), n_out * input.len(), "weight matrix shape");
    let mut out = Vec::with_capacity(n_out);
    for j in 0..n_out {
        let mut acc = biases[j];
        for (i, &v) in input.iter().enumerate() {
            acc = hook.touch(weights[j * input.len() + i].mul_add(v, acc));
        }
        out.push(acc);
    }
    out
}

/// Argument magnitude beyond which `exp` has saturated at every studied
/// precision and no in-range polynomial executes.
const EXP_ARG_LIMIT: f64 = 80.0;

/// In-precision `exp` with every intermediate exposed to the fault hook:
/// argument reduction, a precision-deep Horner recurrence, and the final
/// scale. GPUs evaluate transcendentals in software (paper Section 6.3),
/// so these intermediates are real fault sites.
pub fn exp_hooked<F: FloatExt, H: FaultHook + ?Sized>(x: F, hook: &mut H) -> F {
    if x.is_nan() || x.is_infinite() {
        return x.exp();
    }
    let xf = x.to_f64();
    if !(-EXP_ARG_LIMIT..=EXP_ARG_LIMIT).contains(&xf) {
        return x.exp(); // saturated: no in-range polynomial executes
    }
    let (n, r) = exp_reduce(x);
    exp_horner(hook.touch(r), |v| hook.touch(v)).ldexp(n)
}

/// Logistic sigmoid `1 / (1 + exp(-x))`, evaluated in precision with the
/// exponential's intermediates exposed as fault sites (see
/// [`exp_hooked`]).
pub fn sigmoid<F: FloatExt, H: FaultHook + ?Sized>(x: F, hook: &mut H) -> F {
    let e = exp_hooked(-x, hook);
    let e = hook.touch(e);
    hook.touch(F::one() / (F::one() + e))
}

/// Numerically stable in-precision softmax: subtracts the maximum before
/// exponentiating, so binary16 never overflows.
///
/// # Panics
///
/// Panics if `logits` is empty.
pub fn softmax<F: FloatExt, H: FaultHook + ?Sized>(logits: &[F], hook: &mut H) -> Vec<F> {
    assert!(!logits.is_empty(), "softmax needs at least one logit");
    let max = logits.iter().fold(logits[0], |m, &v| m.max(v));
    let mut exps = Vec::with_capacity(logits.len());
    let mut sum = F::zero();
    for &l in logits {
        let shifted = hook.touch(l - max);
        let e = exp_hooked(shifted, hook);
        let e = hook.touch(e);
        sum = hook.touch(sum + e);
        exps.push(e);
    }
    exps.into_iter().map(|e| hook.touch(e / sum)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpr_fault::hook::GoldenHook;
    use mpr_softfloat::Half;

    fn hook() -> GoldenHook {
        GoldenHook::new()
    }

    #[test]
    fn conv_identity_kernel_shifts_nothing() {
        // A 1x1 kernel of weight 1 reproduces the input.
        let input: Tensor<f64> = Tensor::from_fn(1, 3, 3, |_, y, x| (y * 3 + x) as f64);
        let w = ConvWeights::new(vec![1.0], vec![0.0], 1, 1, 1);
        let mut h = hook();
        let out = conv2d(&input, &w, &mut h);
        assert_eq!(out.to_f64_vec(), input.to_f64_vec());
        assert_eq!(h.sites(), 9);
    }

    /// Counts every touch and keeps the default `skip`, which refuses:
    /// the touch-by-touch oracle.
    #[derive(Default)]
    struct Refusing(u64);

    impl FaultHook for Refusing {
        fn touch_bits(&mut self, bits: u64, _width: u32) -> u64 {
            self.0 += 1;
            bits
        }
    }

    #[test]
    fn conv_site_counts_are_closed_form() {
        // (in_ch, input side, out_ch, k) of the networks' convolutions:
        // MNIST conv1 and conv2, YOLO conv1 and conv2.
        for (in_ch, side, out_ch, k) in [(1, 16, 4, 5), (4, 6, 8, 3), (3, 14, 8, 3), (8, 6, 16, 3)]
        {
            let input: Tensor<f32> = Tensor::from_fn(in_ch, side, side, |c, y, x| {
                ((c * 7 + y * 3 + x) % 11) as f32 - 5.0
            });
            let w = ConvWeights::new(
                crate::synth::gen_weights(0x5EED, out_ch * in_ch * k * k, in_ch * k * k),
                crate::synth::gen_weights(0xB1A5, out_ch, in_ch * k * k),
                in_ch,
                out_ch,
                k,
            );
            let o = side - k + 1;
            let want = (out_ch * o * o * in_ch * k * k) as u64;
            let mut golden = GoldenHook::new();
            let mut refusing = Refusing::default();
            let skipped = conv2d(&input, &w, &mut golden);
            let touched = conv2d(&input, &w, &mut refusing);
            assert_eq!(
                (golden.sites(), refusing.0),
                (want, want),
                "{in_ch}->{out_ch} {k}x{k}"
            );
            let bits =
                |t: &Tensor<f32>| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&skipped), bits(&touched), "{in_ch}->{out_ch} {k}x{k}");
        }
    }

    #[test]
    fn conv_box_filter_sums_windows() {
        let input: Tensor<f64> = Tensor::from_fn(1, 3, 3, |_, _, _| 1.0);
        let w = ConvWeights::new(vec![1.0; 4], vec![0.5], 1, 1, 2);
        let mut h = hook();
        let out = conv2d(&input, &w, &mut h);
        assert_eq!(out.shape(), (1, 2, 2));
        assert!(out.to_f64_vec().iter().all(|&v| v == 4.5));
    }

    #[test]
    fn conv_multi_channel_accumulates() {
        let input: Tensor<f64> = Tensor::from_fn(2, 2, 2, |c, _, _| (c + 1) as f64);
        // Two input channels, one output, 1x1 kernels of weight 1 and 10.
        let w = ConvWeights::new(vec![1.0, 10.0], vec![0.0], 2, 1, 1);
        let out = conv2d(&input, &w, &mut hook());
        assert!(out.to_f64_vec().iter().all(|&v| v == 21.0));
    }

    #[test]
    fn maxpool_picks_window_maxima() {
        let input: Tensor<f64> = Tensor::from_fn(1, 4, 4, |_, y, x| (y * 4 + x) as f64);
        let out = maxpool2(&input, &mut hook());
        assert_eq!(out.to_f64_vec(), vec![5.0, 7.0, 13.0, 15.0]);
    }

    #[test]
    fn maxpool_masks_non_maximum_corruption() {
        // The masking mechanism: corrupt a non-max value, pool output is
        // unchanged.
        let mut input: Tensor<f64> = Tensor::from_fn(1, 2, 2, |_, y, x| (y * 2 + x) as f64);
        let golden = maxpool2(&input, &mut hook()).to_f64_vec();
        input.set(0, 0, 0, 1.5); // below the max (3.0)
        let corrupted = maxpool2(&input, &mut hook()).to_f64_vec();
        assert_eq!(golden, corrupted);
    }

    #[test]
    fn relu_zeroes_negatives_exactly() {
        let input: Tensor<f64> = Tensor::from_fn(1, 1, 3, |_, _, x| x as f64 - 1.0);
        let out = relu(&input, &mut hook());
        assert_eq!(out.to_f64_vec(), vec![0.0, 0.0, 1.0]);
    }

    #[test]
    fn relu_masks_negative_corruption() {
        // A corrupted value that stays negative is annihilated.
        let a: Tensor<f64> = Tensor::from_fn(1, 1, 1, |_, _, _| -2.0);
        let b: Tensor<f64> = Tensor::from_fn(1, 1, 1, |_, _, _| -7.0);
        assert_eq!(
            relu(&a, &mut hook()).to_f64_vec(),
            relu(&b, &mut hook()).to_f64_vec()
        );
    }

    #[test]
    fn leaky_relu_scales_negatives() {
        let input: Tensor<f64> =
            Tensor::from_fn(1, 1, 2, |_, _, x| if x == 0 { -8.0 } else { 8.0 });
        let out = leaky_relu(&input, &mut hook());
        assert_eq!(out.to_f64_vec(), vec![-1.0, 8.0]);
    }

    #[test]
    fn dense_matches_reference() {
        let input = [1.0f64, 2.0];
        let weights = [1.0, 0.0, 0.0, 1.0, 1.0, 1.0]; // 3x2
        let biases = [0.0, 0.0, 0.5];
        let out = dense(&input, &weights, &biases, &mut hook());
        assert_eq!(out, vec![1.0, 2.0, 3.5]);
    }

    #[test]
    fn sigmoid_behaves() {
        let mut h = hook();
        let mid: f64 = sigmoid(0.0, &mut h);
        assert!((mid - 0.5).abs() < 1e-12);
        assert!(sigmoid(6.0f64, &mut h) > 0.99);
        assert!(sigmoid(-6.0f64, &mut h) < 0.01);
        let half = sigmoid(Half::from_f64(1.0), &mut h).to_f64();
        assert!((half - 0.7311).abs() < 5e-3);
    }

    #[test]
    fn softmax_normalizes_and_preserves_rank() {
        let logits = [1.0f64, 3.0, 2.0];
        let p = softmax(&logits, &mut hook());
        let sum: f64 = p.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert!(p[1] > p[2] && p[2] > p[0], "{p:?}");
        // Matches the closed form.
        let want1 = (3.0f64 - 3.0).exp()
            / ((1.0f64 - 3.0).exp() + (3.0f64 - 3.0).exp() + (2.0f64 - 3.0).exp());
        assert!((p[1] - want1).abs() < 1e-9);
    }

    #[test]
    fn softmax_is_overflow_safe_in_half() {
        use mpr_softfloat::Half;
        // Logits near the binary16 ceiling: the max-shift keeps exps finite.
        let logits = [Half::from_f64(10.0), Half::from_f64(11.0)];
        let p = softmax(&logits, &mut hook());
        assert!(p.iter().all(|v| v.to_f64().is_finite()));
        let sum: f64 = p.iter().map(|v| v.to_f64()).sum();
        assert!((sum - 1.0).abs() < 1e-2, "sum={sum}");
    }

    #[test]
    fn exp_hooked_matches_exp_poly_fault_free() {
        use mpr_softfloat::math::exp_poly;
        for i in -40..=40 {
            let x = i as f64 * 0.5;
            let via_hook = exp_hooked(x, &mut hook());
            let direct = exp_poly(x);
            assert!(
                (via_hook - direct).abs() <= 1e-12 * direct.max(1e-300),
                "x={x}: {via_hook} vs {direct}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "channel mismatch")]
    fn conv_validates_channels() {
        let input: Tensor<f64> = Tensor::zeros(2, 3, 3);
        let w = ConvWeights::new(vec![1.0], vec![0.0], 1, 1, 1);
        let _ = conv2d(&input, &w, &mut hook());
    }
}
