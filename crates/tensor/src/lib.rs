//! Minimal tensor substrate for the posit-dnn reproduction.
//!
//! The paper simulates posit training on FP32 GPUs; this crate provides the
//! compute substrate: a contiguous row-major [`Tensor`] with dual-domain
//! [`storage`] (dense f32 or packed posit code words), a blocked,
//! thread-parallel f32 [`gemm`], a posit-domain GEMM family with exact
//! quire accumulation ([`posit_gemm`]) that consumes packed planes
//! directly, the [`Backend`] switch dispatching between them over
//! dual-domain [`Operand`]s, im2col convolution ([`conv`]), pooling
//! ([`pool`]) and the seeded RNG helpers ([`rng`]) everything else builds
//! on. Determinism: every parallel split is static, every reduction order
//! fixed, every random stream explicitly seeded.

// `deny` rather than `forbid`: the persistent worker pool in [`workers`]
// needs one narrowly-scoped lifetime erasure (the standard scoped-pool
// technique) behind a module-level allow; everything else stays safe.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod backend;
pub mod conv;
pub mod gemm;
pub mod grad_accum;
pub mod pool;
pub mod posit_gemm;
pub mod rng;
pub mod storage;
mod tensor;
pub mod workers;

pub use backend::{Backend, Layout, Operand, PreparedOperand, Rhs};
pub use gemm::par_map_indexed;
pub use grad_accum::GradQuireBuf;
pub use posit_gemm::{PositGemm, PositPlane};
pub use storage::{PackedBits, Storage, StorageDomain, StorageError};
pub use tensor::Tensor;
pub use workers::serial_scope;
