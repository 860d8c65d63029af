//! Quantization and training configuration (Table III of the paper).

use posit::{PositFormat, Rounding};
use posit_nn::{LayerKind, StepLr};
use posit_tensor::Backend;
use std::error::Error;
use std::fmt;

/// Which kernel family executes the CONV/FC GEMMs — the trainer-facing
/// switch over [`posit_tensor::Backend`].
///
/// * `F32`: the paper's GPU-simulation setup — GEMMs run in f32, posit
///   quantization happens only at the Fig. 3 tensor edges.
/// * `PositQuire`: the decode-once posit kernels with exact quire
///   accumulation and a single rounding per output element — the numerics
///   the paper's EMAC hardware argument is about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ComputeBackend {
    /// f32 kernels (default; the paper's simulation).
    #[default]
    F32,
    /// Decode-once posit GEMM with quire accumulation.
    PositQuire,
}

impl ComputeBackend {
    /// Parse a CLI flag value (`f32` | `posit-quire`).
    pub fn parse(s: &str) -> Option<ComputeBackend> {
        match s {
            "f32" => Some(ComputeBackend::F32),
            "posit-quire" => Some(ComputeBackend::PositQuire),
            _ => None,
        }
    }

    /// The stable flag name.
    pub fn name(&self) -> &'static str {
        match self {
            ComputeBackend::F32 => "f32",
            ComputeBackend::PositQuire => "posit-quire",
        }
    }

    /// Instantiate the tensor-level backend for a direction's format.
    pub fn tensor_backend(&self, fmt: PositFormat, rounding: Rounding) -> Backend {
        match self {
            ComputeBackend::F32 => Backend::F32,
            ComputeBackend::PositQuire => Backend::PositQuire { fmt, rounding },
        }
    }
}

/// The four tensor classes of the Fig. 3 dataflow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TensorClass {
    /// Layer weights `W` (forward + update path).
    Weight,
    /// Activations `A` (forward path).
    Activation,
    /// Back-propagated errors `E` (backward path).
    Error,
    /// Weight gradients `ΔW` (backward → update path).
    WeightGrad,
}

impl TensorClass {
    /// All classes, in Fig. 3 order.
    pub const ALL: [TensorClass; 4] = [
        TensorClass::Weight,
        TensorClass::Activation,
        TensorClass::Error,
        TensorClass::WeightGrad,
    ];
}

/// Posit formats for the four tensor classes of one layer family.
///
/// The paper's §III-B rule: "es to be 1 for all weights and activations,
/// and 2 for all gradients and errors".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClassFormats {
    /// Format for `W`.
    pub weight: PositFormat,
    /// Format for `A`.
    pub activation: PositFormat,
    /// Format for `E`.
    pub error: PositFormat,
    /// Format for `ΔW`.
    pub weight_grad: PositFormat,
}

impl ClassFormats {
    /// Same word size everywhere, the paper's es rule: `(n,1)` forward /
    /// update, `(n,2)` backward.
    pub fn paper_rule(n: u32) -> ClassFormats {
        ClassFormats {
            weight: PositFormat::of(n, 1),
            activation: PositFormat::of(n, 1),
            error: PositFormat::of(n, 2),
            weight_grad: PositFormat::of(n, 2),
        }
    }

    /// Uniform format for every class (for ablations).
    pub fn uniform(fmt: PositFormat) -> ClassFormats {
        ClassFormats {
            weight: fmt,
            activation: fmt,
            error: fmt,
            weight_grad: fmt,
        }
    }

    /// The format assigned to a class.
    pub fn format(&self, class: TensorClass) -> PositFormat {
        match class {
            TensorClass::Weight => self.weight,
            TensorClass::Activation => self.activation,
            TensorClass::Error => self.error,
            TensorClass::WeightGrad => self.weight_grad,
        }
    }
}

/// Where the authoritative weight copy lives between steps.
///
/// Fig. 3c shows `W_p, ΔW_p → update → W → P(·) → W_p` without stating
/// whether the FP32 `W` persists. Keeping an FP32 master (as in
/// Micikevicius et al., the paper's \[9\]) avoids a systematic
/// round-to-zero ratchet: truncation is magnitude-decreasing, so applying
/// sub-ULP updates directly to posit weights can only shrink them. The
/// posit-master variant is kept as the A5 ablation, which demonstrates
/// exactly that drift.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MasterWeights {
    /// FP32 master; posit weights are the compute view (default).
    #[default]
    Fp32,
    /// Posit master: the quantized weights are authoritative (A5 ablation).
    Posit,
}

/// Full quantization policy: per-layer-family formats plus the method's
/// switches (rounding mode, σ, scaling on/off).
#[derive(Debug, Clone)]
pub struct QuantSpec {
    /// Formats for CONV (and FC) layers.
    pub conv: ClassFormats,
    /// Formats for BN layers.
    pub bn: ClassFormats,
    /// Rounding mode of the `P(·)` operator (paper: round-to-zero).
    pub rounding: Rounding,
    /// The σ of Eq. 2 (paper: 2).
    pub sigma: i32,
    /// Enable the Eq. 2–3 distribution-based shifting (ablation switch).
    pub scaling: bool,
    /// Seed for stochastic rounding streams (A4 ablation).
    pub sr_seed: u64,
    /// Master-weight policy (A5 ablation switch).
    pub master: MasterWeights,
    /// Kernel family for the CONV/FC GEMMs.
    pub backend: ComputeBackend,
}

impl QuantSpec {
    /// Table III, CIFAR-10 column: posit(8,1)/(8,2) for CONV layers,
    /// posit(16,1)/(16,2) for BN layers, round-to-zero, σ = 2.
    pub fn cifar_paper() -> QuantSpec {
        QuantSpec {
            conv: ClassFormats::paper_rule(8),
            bn: ClassFormats::paper_rule(16),
            rounding: Rounding::ToZero,
            sigma: 2,
            scaling: true,
            sr_seed: 0x5EED,
            master: MasterWeights::default(),
            backend: ComputeBackend::default(),
        }
    }

    /// Table III, ImageNet column: posit(16,1) forward/update and
    /// posit(16,2) backward for every layer.
    pub fn imagenet_paper() -> QuantSpec {
        QuantSpec {
            conv: ClassFormats::paper_rule(16),
            bn: ClassFormats::paper_rule(16),
            rounding: Rounding::ToZero,
            sigma: 2,
            scaling: true,
            sr_seed: 0x5EED,
            master: MasterWeights::default(),
            backend: ComputeBackend::default(),
        }
    }

    /// Uniform format for all layers and classes (ablations).
    pub fn uniform(fmt: PositFormat) -> QuantSpec {
        QuantSpec {
            conv: ClassFormats::uniform(fmt),
            bn: ClassFormats::uniform(fmt),
            rounding: Rounding::ToZero,
            sigma: 2,
            scaling: true,
            sr_seed: 0x5EED,
            master: MasterWeights::default(),
            backend: ComputeBackend::default(),
        }
    }

    /// Disable Eq. 2–3 shifting (A2 ablation).
    pub fn without_scaling(mut self) -> QuantSpec {
        self.scaling = false;
        self
    }

    /// Replace the rounding mode (A4 ablation).
    pub fn with_rounding(mut self, rounding: Rounding) -> QuantSpec {
        self.rounding = rounding;
        self
    }

    /// Replace σ (scale-shift sweep).
    pub fn with_sigma(mut self, sigma: i32) -> QuantSpec {
        self.sigma = sigma;
        self
    }

    /// Replace the master-weight policy (A5 ablation).
    pub fn with_master(mut self, master: MasterWeights) -> QuantSpec {
        self.master = master;
        self
    }

    /// Select the GEMM kernel family (backend A/B switch).
    pub fn with_backend(mut self, backend: ComputeBackend) -> QuantSpec {
        self.backend = backend;
        self
    }

    /// The formats used for a given layer kind (FC follows CONV; structural
    /// layers inherit CONV formats for their activation/error edges).
    pub fn formats_for(&self, kind: LayerKind) -> ClassFormats {
        match kind {
            LayerKind::BatchNorm => self.bn,
            _ => self.conv,
        }
    }
}

/// A full training run configuration.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Total epochs.
    pub epochs: usize,
    /// FP32 warm-up epochs (paper: 1 on CIFAR, 5 on ImageNet); the last
    /// warm-up epoch doubles as the scale-calibration epoch.
    pub warmup_epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Learning-rate schedule.
    pub schedule: StepLr,
    /// SGD momentum (paper: 0.9).
    pub momentum: f32,
    /// Weight decay.
    pub weight_decay: f32,
    /// Global seed (init, shuffling, data noise).
    pub seed: u64,
    /// Quantization policy; `None` = FP32 baseline.
    pub quant: Option<QuantSpec>,
    /// ResNet stage base width (the CPU-budget scaling knob).
    pub base_width: usize,
    /// Classes in the task.
    pub num_classes: usize,
    /// Parameter names to capture histograms for (Fig. 2), e.g.
    /// `"conv1.weight"`.
    pub hist_params: Vec<String>,
    /// Epochs (0-based) at which histograms are captured.
    pub hist_epochs: Vec<usize>,
    /// Static loss scale `S` (Micikevicius et al. \[9\], the alternative the
    /// paper's layer-wise Eq. 2–3 shifting replaces): the loss gradient is
    /// multiplied by `S` before backward and weight gradients divided by
    /// `S` before the update. `1.0` disables it (the paper's setting).
    pub loss_scale: f32,
    /// Data-parallel lanes: each posit-phase mini-batch is split into this
    /// many row shards whose gradients are reduced by an exact quire
    /// all-reduce, so the result is bit-identical to the serial run for
    /// *any* lane count. `1` (default) disables sharding. Values above 1
    /// require the posit-quire backend (see [`TrainConfig::validate`]).
    pub data_parallel: usize,
    /// Gradient-accumulation micro-batches per optimizer step, on the same
    /// exact-quire machinery as `data_parallel` (a step sees
    /// `grad_accum_steps × data_parallel` contiguous shards). `1` (default)
    /// disables accumulation.
    pub grad_accum_steps: usize,
}

/// A structurally invalid [`TrainConfig`], caught by
/// [`TrainConfig::validate`] before it can surface as a panic deep inside
/// the data loader or an empty training phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// `batch_size == 0`: no batch can ever be formed.
    ZeroBatchSize,
    /// `epochs == 0`: the schedule contains no training phase at all.
    ZeroEpochs,
    /// A quantization policy is attached but `warmup_epochs >= epochs`:
    /// the posit phase the policy exists for would run for zero epochs.
    EmptyPositPhase {
        /// Configured warm-up length.
        warmup_epochs: usize,
        /// Configured total epochs.
        epochs: usize,
    },
    /// `data_parallel == 0` or `grad_accum_steps == 0`: a step needs at
    /// least one lane and one micro-batch.
    ZeroShards,
    /// Data parallelism / gradient accumulation was requested in a setup
    /// that cannot reduce gradients exactly, so the bit-for-bit guarantee
    /// the feature exists for would silently not hold.
    DataParallelUnsupported {
        /// What the setup is missing.
        reason: &'static str,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroBatchSize => {
                write!(f, "batch_size must be positive (got 0)")
            }
            ConfigError::ZeroEpochs => {
                write!(f, "epochs must be positive (got 0)")
            }
            ConfigError::EmptyPositPhase {
                warmup_epochs,
                epochs,
            } => write!(
                f,
                "quantization is configured but the posit phase is empty: \
                 warmup_epochs ({warmup_epochs}) >= epochs ({epochs})"
            ),
            ConfigError::ZeroShards => {
                write!(
                    f,
                    "data_parallel and grad_accum_steps must be positive (got 0)"
                )
            }
            ConfigError::DataParallelUnsupported { reason } => {
                write!(f, "exact data parallelism unsupported: {reason}")
            }
        }
    }
}

impl Error for ConfigError {}

impl TrainConfig {
    /// Check the config for phase splits that would panic or silently
    /// no-op downstream: a zero batch size (the loader cannot form a
    /// batch), zero epochs (no phase runs at all), and a quantization
    /// policy whose posit phase is empty because the warm-up swallows
    /// every epoch.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] found.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.batch_size == 0 {
            return Err(ConfigError::ZeroBatchSize);
        }
        if self.epochs == 0 {
            return Err(ConfigError::ZeroEpochs);
        }
        if self.quant.is_some() && self.warmup_epochs >= self.epochs {
            return Err(ConfigError::EmptyPositPhase {
                warmup_epochs: self.warmup_epochs,
                epochs: self.epochs,
            });
        }
        if self.data_parallel == 0 || self.grad_accum_steps == 0 {
            return Err(ConfigError::ZeroShards);
        }
        if self.data_parallel > 1 || self.grad_accum_steps > 1 {
            // The bit-for-bit guarantee rests on exact quire reduction, so
            // sharding is only offered where it can actually hold.
            let quant = self
                .quant
                .as_ref()
                .ok_or(ConfigError::DataParallelUnsupported {
                    reason: "requires a quantized run on the posit-quire backend",
                })?;
            if quant.backend != ComputeBackend::PositQuire {
                return Err(ConfigError::DataParallelUnsupported {
                    reason: "requires the posit-quire backend (f32 sums are order-dependent)",
                });
            }
            if quant.rounding == Rounding::Stochastic {
                return Err(ConfigError::DataParallelUnsupported {
                    reason: "stochastic rounding consumes a serial random stream per edge",
                });
            }
            if self.warmup_epochs == 0 {
                return Err(ConfigError::DataParallelUnsupported {
                    reason: "needs >= 1 warm-up epoch so scales calibrate on unsharded batches",
                });
            }
        }
        Ok(())
    }

    /// A scaled-down CIFAR-style run: `base`-width ResNet, short schedule
    /// mirroring the paper's CIFAR shape (warm-up 1 epoch, SGD momentum
    /// 0.9, step decay).
    pub fn cifar_scaled(base: usize, epochs: usize) -> TrainConfig {
        TrainConfig {
            epochs,
            warmup_epochs: 1,
            batch_size: 32,
            schedule: StepLr::new(0.05, vec![epochs * 6 / 10, epochs * 8 / 10], 0.1),
            momentum: 0.9,
            weight_decay: 5e-4,
            seed: 1,
            quant: None,
            base_width: base,
            num_classes: 10,
            hist_params: vec!["conv1.weight".into(), "layer4.0.bn1.weight".into()],
            hist_epochs: vec![],
            loss_scale: 1.0,
            data_parallel: 1,
            grad_accum_steps: 1,
        }
    }

    /// A scaled-down ImageNet-style run (warm-up 5 epochs like the paper).
    pub fn imagenet_scaled(base: usize, classes: usize, epochs: usize) -> TrainConfig {
        TrainConfig {
            warmup_epochs: 5.min(epochs / 3).max(1),
            num_classes: classes,
            ..TrainConfig::cifar_scaled(base, epochs)
        }
    }

    /// Attach a quantization policy (builder style).
    pub fn with_quant(mut self, spec: QuantSpec) -> TrainConfig {
        self.quant = Some(spec);
        self
    }

    /// Override the warm-up length (A1 ablation).
    pub fn with_warmup(mut self, epochs: usize) -> TrainConfig {
        self.warmup_epochs = epochs;
        self
    }

    /// Override the seed.
    pub fn with_seed(mut self, seed: u64) -> TrainConfig {
        self.seed = seed;
        self
    }

    /// Capture histograms for Fig. 2 at the given epochs.
    pub fn with_histograms(mut self, epochs: Vec<usize>) -> TrainConfig {
        self.hist_epochs = epochs;
        self
    }

    /// Enable static loss scaling (comparison against Eq. 2–3 shifting).
    ///
    /// # Panics
    ///
    /// Panics unless `scale` is finite and positive.
    pub fn with_loss_scale(mut self, scale: f32) -> TrainConfig {
        assert!(scale.is_finite() && scale > 0.0, "invalid loss scale");
        self.loss_scale = scale;
        self
    }

    /// Shard each posit-phase mini-batch across `lanes` data-parallel
    /// lanes with exact quire all-reduce (bit-identical to serial).
    pub fn with_data_parallel(mut self, lanes: usize) -> TrainConfig {
        self.data_parallel = lanes;
        self
    }

    /// Split each optimizer step into `steps` gradient-accumulation
    /// micro-batches on the exact-quire machinery.
    pub fn with_grad_accum(mut self, steps: usize) -> TrainConfig {
        self.grad_accum_steps = steps;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_rule_formats() {
        let f = ClassFormats::paper_rule(8);
        assert_eq!(f.format(TensorClass::Weight), PositFormat::of(8, 1));
        assert_eq!(f.format(TensorClass::Activation), PositFormat::of(8, 1));
        assert_eq!(f.format(TensorClass::Error), PositFormat::of(8, 2));
        assert_eq!(f.format(TensorClass::WeightGrad), PositFormat::of(8, 2));
    }

    #[test]
    fn cifar_spec_matches_table3_footnote() {
        // "posit (8,1) for CONV layers forward pass and weight update,
        //  posit (8,2) for CONV layers backward pass. posit (16,1) for BN
        //  layers forward pass and weight update, posit (16,2) for BN
        //  layers backward pass."
        let s = QuantSpec::cifar_paper();
        assert_eq!(s.conv.weight, PositFormat::of(8, 1));
        assert_eq!(s.conv.error, PositFormat::of(8, 2));
        assert_eq!(s.bn.weight, PositFormat::of(16, 1));
        assert_eq!(s.bn.error, PositFormat::of(16, 2));
        assert_eq!(s.rounding, Rounding::ToZero);
        assert_eq!(s.sigma, 2);
        assert!(s.scaling);
        assert_eq!(s.formats_for(LayerKind::Conv).weight, PositFormat::of(8, 1));
        assert_eq!(
            s.formats_for(LayerKind::Linear).weight,
            PositFormat::of(8, 1)
        );
        assert_eq!(
            s.formats_for(LayerKind::BatchNorm).weight,
            PositFormat::of(16, 1)
        );
    }

    #[test]
    fn imagenet_spec_matches_table3_footnote() {
        // "posit (16,1) for forward pass and weight update, posit (16,2)
        //  for backward pass."
        let s = QuantSpec::imagenet_paper();
        assert_eq!(s.conv.weight, PositFormat::of(16, 1));
        assert_eq!(s.conv.error, PositFormat::of(16, 2));
        assert_eq!(s.bn.weight, PositFormat::of(16, 1));
    }

    #[test]
    fn compute_backend_flag_round_trip() {
        for b in [ComputeBackend::F32, ComputeBackend::PositQuire] {
            assert_eq!(ComputeBackend::parse(b.name()), Some(b));
        }
        assert_eq!(ComputeBackend::parse("fp64"), None);
        assert_eq!(ComputeBackend::default(), ComputeBackend::F32);
        let s = QuantSpec::cifar_paper().with_backend(ComputeBackend::PositQuire);
        assert_eq!(s.backend, ComputeBackend::PositQuire);
        // The tensor-level instantiation carries the format through.
        let fmt = PositFormat::of(8, 1);
        assert_eq!(
            s.backend.tensor_backend(fmt, Rounding::ToZero),
            Backend::PositQuire {
                fmt,
                rounding: Rounding::ToZero
            }
        );
        assert_eq!(
            ComputeBackend::F32.tensor_backend(fmt, Rounding::ToZero),
            Backend::F32
        );
    }

    #[test]
    fn validate_rejects_degenerate_phase_splits() {
        let ok = TrainConfig::cifar_scaled(4, 10);
        assert!(ok.validate().is_ok());
        let mut zb = ok.clone();
        zb.batch_size = 0;
        assert_eq!(zb.validate(), Err(ConfigError::ZeroBatchSize));
        assert!(zb
            .validate()
            .unwrap_err()
            .to_string()
            .contains("batch_size"));
        let mut ze = ok.clone();
        ze.epochs = 0;
        assert_eq!(ze.validate(), Err(ConfigError::ZeroEpochs));
        // Quantized run whose warm-up swallows every epoch: the posit
        // phase the policy exists for would never run.
        let qp = TrainConfig::cifar_scaled(4, 3)
            .with_quant(QuantSpec::cifar_paper())
            .with_warmup(3);
        assert_eq!(
            qp.validate(),
            Err(ConfigError::EmptyPositPhase {
                warmup_epochs: 3,
                epochs: 3
            })
        );
        assert!(qp
            .validate()
            .unwrap_err()
            .to_string()
            .contains("posit phase is empty"));
        // The same split without a quantization policy is a plain FP32 run.
        let fp = TrainConfig::cifar_scaled(4, 3).with_warmup(5);
        assert!(fp.validate().is_ok());
        // Warm-up 0 with quant is the A1 ablation, not an error.
        let a1 = TrainConfig::cifar_scaled(4, 3)
            .with_quant(QuantSpec::cifar_paper())
            .with_warmup(0);
        assert!(a1.validate().is_ok());
    }

    #[test]
    fn validate_gates_data_parallelism() {
        let quire = QuantSpec::cifar_paper().with_backend(ComputeBackend::PositQuire);
        let ok = TrainConfig::cifar_scaled(4, 3)
            .with_quant(quire.clone())
            .with_data_parallel(4)
            .with_grad_accum(2);
        assert!(ok.validate().is_ok());
        // Lanes/accum of 1 are always fine — they are the serial run.
        assert!(TrainConfig::cifar_scaled(4, 3).validate().is_ok());
        let mut zs = ok.clone();
        zs.data_parallel = 0;
        assert_eq!(zs.validate(), Err(ConfigError::ZeroShards));
        let mut zg = ok.clone();
        zg.grad_accum_steps = 0;
        assert_eq!(zg.validate(), Err(ConfigError::ZeroShards));
        // Sharding without the exact-reduction substrate is refused.
        let fp32 = TrainConfig::cifar_scaled(4, 3).with_data_parallel(2);
        assert!(matches!(
            fp32.validate(),
            Err(ConfigError::DataParallelUnsupported { .. })
        ));
        let f32_kernels = TrainConfig::cifar_scaled(4, 3)
            .with_quant(QuantSpec::cifar_paper().with_backend(ComputeBackend::F32))
            .with_grad_accum(2);
        assert!(matches!(
            f32_kernels.validate(),
            Err(ConfigError::DataParallelUnsupported { .. })
        ));
        let sr = TrainConfig::cifar_scaled(4, 3)
            .with_quant(quire.clone().with_rounding(Rounding::Stochastic))
            .with_data_parallel(2);
        assert!(matches!(
            sr.validate(),
            Err(ConfigError::DataParallelUnsupported { .. })
        ));
        let no_warmup = TrainConfig::cifar_scaled(4, 3)
            .with_quant(quire)
            .with_warmup(0)
            .with_data_parallel(2);
        let err = no_warmup.validate().unwrap_err();
        assert!(err.to_string().contains("warm-up"), "{err}");
    }

    #[test]
    fn builders() {
        let s = QuantSpec::cifar_paper().without_scaling().with_sigma(0);
        assert!(!s.scaling);
        assert_eq!(s.sigma, 0);
        let c = TrainConfig::cifar_scaled(8, 20)
            .with_warmup(0)
            .with_seed(7)
            .with_histograms(vec![0, 5]);
        assert_eq!(c.warmup_epochs, 0);
        assert_eq!(c.seed, 7);
        assert_eq!(c.hist_epochs, vec![0, 5]);
        let i = TrainConfig::imagenet_scaled(8, 30, 15);
        assert_eq!(i.warmup_epochs, 5);
        assert_eq!(i.num_classes, 30);
    }
}
