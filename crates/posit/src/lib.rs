//! Software posit (type-III unum) arithmetic.
//!
//! This crate implements the number system underlying *"Training Deep Neural
//! Networks Using Posit Number System"* (Lu et al., SOCC 2019):
//!
//! * [`PositFormat`] — a runtime-parameterised `(n, es)` posit format with a
//!   bit-exact codec ([`PositFormat::decode`] / [`PositFormat::encode_fields`])
//!   and correctly-rounded arithmetic (add/sub/mul/div/sqrt/fused ops) built on
//!   exact integer internals;
//! * [`Rounding`] — the three float→posit rounding modes used in the paper and
//!   its ablations: round-to-nearest-even (posit standard), round-to-zero
//!   (the paper's Algorithm 1) and stochastic rounding;
//! * [`quant::PositQuantizer`] — the paper's `P(n,es)(·)` operator
//!   (Algorithm 1): an `f32 → f32` quantizer that clips to
//!   `[minpos, maxpos]`, flushes `|x| < minpos` to zero and truncates the
//!   exponent/fraction fields to the available widths;
//! * [`Quire`] — an exact fixed-point accumulator for fused dot products
//!   (the EMAC of Deep Positron, used to validate the hardware MAC);
//! * [`Posit`] — a zero-cost const-generic typed wrapper with operator
//!   overloads, plus aliases [`P8E0`], [`P8E1`], [`P8E2`], [`P16E1`],
//!   [`P16E2`], [`P32E2`], [`P32E3`] and the paper's Table I format [`P5E1`];
//! * [`tables`] — regenerates Table I of the paper exactly.
//!
//! # Quick example
//!
//! ```
//! use posit::{PositFormat, Rounding, P16E1};
//!
//! // Runtime format, as used by the training quantizer.
//! let fmt = PositFormat::new(16, 1)?;
//! let bits = fmt.from_f64(3.1415926, Rounding::NearestEven);
//! assert!((fmt.to_f64(bits) - 3.1415926).abs() < 1e-3);
//!
//! // Typed wrapper with operator overloads.
//! let a = P16E1::from_f64(1.5);
//! let b = P16E1::from_f64(0.25);
//! assert_eq!((a + b).to_f64(), 1.75);
//! # Ok::<(), posit::InvalidFormatError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arith;
mod error;
mod format;
pub mod lut;
pub mod quant;
pub mod quire;
mod rational;
mod round;
pub mod tables;
mod typed;
mod value;

pub mod exact;

pub use error::InvalidFormatError;
pub use format::{FieldLayout, PositFormat};
pub use quant::{PositQuantizer, ScaledQuantizer};
pub use quire::{NarrowQuire, Quire, Sum256};
pub use rational::Dyadic;
pub use round::Rounding;
pub use typed::{Posit, P16E1, P16E2, P32E2, P32E3, P5E1, P8E0, P8E1, P8E2};
pub use value::{Decoded, PositValue, Sign};
