//! The paper's contribution: training DNNs in the posit number system.
//!
//! This crate implements §III of *"Training Deep Neural Networks Using
//! Posit Number System"* (Lu et al., SOCC 2019) on top of the `posit`,
//! `posit-tensor`, `posit-nn`, `posit-data` and `posit-models` substrates:
//!
//! * the **`P(n,es)` insertion points** of Fig. 3 — [`Quantized`] wraps any
//!   layer and quantizes activations `A`, errors `E`, weight gradients
//!   `ΔW` and weights `W` at exactly the paper's dataflow edges
//!   ([`QuantBuilder`] threads the wrapper through whole models);
//! * **warm-up training** — the first 1–5 epochs run in FP32
//!   ([`Phase::Fp32`]), with scale calibration in the last warm-up epoch
//!   ([`Phase::Calibrate`]);
//! * **distribution-based shifting** (Eq. 2–3) — the layer-wise scale
//!   factor `Sf = 2^(center + σ)` with
//!   `center = round(mean(log2 |x|))`, `σ = 2` ([`scale`]);
//! * **dynamic-range adjustment** — per-tensor-class `es` selection
//!   ([`es_select`]), defaulting to the paper's `es = 1` for
//!   weights/activations and `es = 2` for errors/gradients;
//! * the **training harness** ([`Trainer`]) reproducing Table III's
//!   configurations, plus the Fig. 2 histogram capture ([`stats`]).
//!
//! ```no_run
//! use posit_train::{QuantSpec, RunOptions, TrainConfig, Trainer};
//! use posit_data::SyntheticCifar;
//!
//! let gen = SyntheticCifar::new(16, 42);
//! let train = gen.train(2000, 1);
//! let test = gen.test(500, 1);
//! let config = TrainConfig::cifar_scaled(8, 10).with_quant(QuantSpec::cifar_paper());
//! let report = Trainer::resnet(&config)
//!     .run(RunOptions::new(&train, &test, &config))
//!     .unwrap();
//! println!("posit accuracy: {:.2}%", 100.0 * report.final_test_acc);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
pub mod es_select;
mod quantized;
pub mod scale;
pub mod stats;
mod trainer;

pub use config::{
    ClassFormats, ComputeBackend, ConfigError, MasterWeights, QuantSpec, TensorClass, TrainConfig,
};
pub use quantized::{Phase, QuantBuilder, QuantControl, Quantized};
pub use trainer::{EpochStats, InputQuantizer, RunError, RunOptions, TrainReport, Trainer};
