//! # mpr-nn
//!
//! The neural-network workloads of the study, written once over
//! [`mpr_softfloat::FloatExt`] and executed at double, single, and half
//! precision with every multiply-accumulate exposed as a fault site:
//!
//! * [`Mnist`] — a LeNet-style convolutional classifier (the circuit the
//!   paper synthesizes on the FPGA). Criticality: an SDC is **critical**
//!   when the predicted class changes, **tolerable** when only the
//!   scores move (paper Section 4.1).
//! * [`TinyYolo`] — a compact YOLO-style single-shot detector standing in
//!   for YOLOv3 (paper Section 3.1). Criticality: **tolerable**, a
//!   **detection change** (boxes appear/move/vanish), or a
//!   **classification change** (paper Figure 11c).
//!
//! Mirroring the paper's methodology, the networks are *not retrained
//! per precision*: one set of weights is generated deterministically and
//! cast into each precision ("we keep the same weights of the single
//! precision version and convert them" — Section 3.1). The datasets are
//! synthetic, deterministic stand-ins (documented in DESIGN.md): the
//! criticality analysis needs a classifier and a detector, not
//! provenance-correct pixels.
//!
//! # Example
//!
//! ```rust
//! use mpr_fault::Workload;
//! use mpr_nn::{classify_logits, ClassificationImpact, Mnist};
//! use mpr_softfloat::Precision;
//!
//! let mnist = Mnist::new();
//! let logits = mnist.run_golden(Precision::Half);
//! assert_eq!(logits.len(), 10);
//! // Un-corrupted output classifies identically to itself.
//! assert_eq!(
//!     classify_logits(&logits, &logits),
//!     ClassificationImpact::Tolerable
//! );
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

mod criticality;
pub mod layers;
mod mnist;
pub mod profiles;
mod synth;
mod tensor;
mod yolo;

pub use criticality::{
    classify_detections, classify_logits, ClassificationImpact, Detection, DetectionImpact,
};
pub use mnist::Mnist;
pub use tensor::Tensor;
pub use yolo::TinyYolo;
