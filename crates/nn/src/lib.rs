//! Neural-network layers with the explicit forward/backward dataflow of the
//! paper's Fig. 3.
//!
//! Each [`Layer`] exposes `forward(A^{l-1}) → A^l` and
//! `backward(E^l) → E^{l-1}` (accumulating `ΔW` into its parameters) —
//! exactly the three tensor kinds (`A`, `E`, `ΔW`) the paper's posit
//! transformation `P(·)` is inserted around. The `posit-train` crate wraps
//! these layers; this crate is precision-agnostic FP32.
//!
//! Contents: [`Conv2d`], [`BatchNorm2d`], [`Linear`], [`ReLU`],
//! [`MaxPool2d`], [`GlobalAvgPool`], [`Flatten`], [`Sequential`],
//! [`Residual`]; [`SoftmaxCrossEntropy`]; [`Sgd`] with [`StepLr`];
//! accuracy/loss [`metrics`]; Kaiming [`init`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bn;
pub mod checkpoint;
mod conv;
pub mod init;
mod layer;
mod linear;
mod loss;
pub mod metrics;
mod optim;
mod param;
mod pool;

pub use bn::BatchNorm2d;
pub use conv::Conv2d;
pub use layer::{no_input_grad, Flatten, Layer, LayerKind, ReLU, Residual, Sequential};
pub use linear::Linear;
pub use loss::SoftmaxCrossEntropy;
pub use optim::{Sgd, StepLr};
pub use param::{GradBatch, Param};
pub use pool::{GlobalAvgPool, MaxPool2d};
