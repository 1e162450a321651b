//! # mpr-softfloat
//!
//! Bit-exact IEEE-754 floating-point substrate for the mixed-precision
//! reliability study.
//!
//! The paper "Reliability Evaluation of Mixed-Precision Architectures"
//! (HPCA 2019) executes the same kernels in double (binary64), single
//! (binary32), and half (binary16) precision and studies how transient
//! faults propagate in each. Rust has no native `f16` arithmetic, so this
//! crate implements **binary16 from scratch** ([`Half`]): conversions,
//! add/sub/mul/div/rem, square root, and a fused multiply-add. All
//! operations are correctly rounded (round-to-nearest-even), including
//! subnormals, signed zeros, infinities, and NaN propagation (every NaN
//! result is the canonical `0x7E00`). There is one implementation: four
//! branch-free widen/narrow kernels under every operation, the FMA
//! computed in `f64` where the binary16 product is exact. An exact
//! integer reference implementation lives only in the tests, which hold
//! the kernels to it bit for bit (exhaustively over every `f32` pattern
//! and every operand pair of `+ - * /` in the `#[ignore]`d release
//! sweeps).
//!
//! On top of the concrete types the crate provides:
//!
//! * [`FloatExt`] — one trait unifying `f64`, `f32`, and [`Half`] so every
//!   benchmark kernel in the study is written once, generic over precision.
//! * [`Precision`] — runtime precision selector with format metadata.
//! * [`ulp`] — ULP distances and relative-error helpers used by the
//!   Tolerated-Relative-Error (TRE) analysis.
//! * [`math`] — in-precision transcendental functions (polynomial `exp`)
//!   whose intermediate values live in the target precision, mirroring how
//!   GPUs evaluate transcendentals in software (paper, Section 6.3).
//! * [`wide`] — FMA lanes over slices, each lane the scalar `mul_add`:
//!   [`wide::row_fma`], one row of a matrix product at any precision,
//!   and the binary16 bit-pattern step [`wide::fma`].
//!
//! # Example
//!
//! ```rust
//! use mpr_softfloat::{Half, FloatExt, Precision};
//!
//! // The same dot product at three precisions.
//! fn dot<F: FloatExt>(a: &[F], b: &[F]) -> F {
//!     a.iter().zip(b).fold(F::zero(), |acc, (&x, &y)| acc.mul_add(F::one(), x * y))
//! }
//!
//! let xs64: Vec<f64> = vec![0.1, 0.2, 0.3];
//! let xs16: Vec<Half> = xs64.iter().map(|&v| Half::from_f64(v)).collect();
//! let d64 = dot(&xs64, &xs64);
//! let d16 = dot(&xs16, &xs16);
//! // Half precision carries ~3 decimal digits.
//! assert!((d16.to_f64() - d64).abs() < 1e-3);
//! assert_eq!(Precision::Half.total_bits(), 16);
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

mod half;
pub mod math;
mod precision;
mod traits;
pub mod ulp;
pub mod wide;

pub use half::{Half, ParseHalfError};
pub use precision::Precision;
pub use traits::FloatExt;
