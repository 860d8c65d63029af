//! The training harness: warm-up → calibration → posit phases, per
//! §III-B/III-C of the paper.

use crate::config::{ConfigError, QuantSpec, TrainConfig};
use crate::quantized::{Phase, QuantBuilder, QuantControl};
use crate::scale;
use crate::stats::HistogramRecorder;
use posit_data::{DataLoader, Dataset};
use posit_models::{lenet, resnet_scaled, LayerBuilder, PlainBuilder};
use posit_nn::{checkpoint, metrics, Layer, Sequential, Sgd, SoftmaxCrossEntropy};
use posit_store::{read_tensor, write_tensor, Store, StoreError};
use posit_tensor::rng::{Prng, PrngState};
use posit_tensor::Tensor;
use std::error::Error;
use std::fmt;

/// Per-epoch record.
#[derive(Debug, Clone)]
pub struct EpochStats {
    /// 0-based epoch.
    pub epoch: usize,
    /// Phase the epoch ran in.
    pub phase: &'static str,
    /// Learning rate used.
    pub lr: f32,
    /// Mean training loss.
    pub train_loss: f64,
    /// Training top-1 accuracy.
    pub train_acc: f64,
    /// Held-out top-1 accuracy.
    pub test_acc: f64,
}

/// The outcome of a training run.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Per-epoch records.
    pub epochs: Vec<EpochStats>,
    /// Accuracy after the final epoch.
    pub final_test_acc: f64,
    /// Best held-out accuracy over the run (the paper reports validate
    /// top-1).
    pub best_test_acc: f64,
    /// Fig. 2 histogram snapshots (if requested).
    pub histograms: HistogramRecorder,
}

/// Why [`Trainer::run`] failed.
#[derive(Debug)]
pub enum RunError {
    /// The config failed [`TrainConfig::validate`]; no step ran.
    Config(ConfigError),
    /// The checkpoint store failed (I/O, corrupt checkpoint).
    Store(StoreError),
}

impl From<ConfigError> for RunError {
    fn from(e: ConfigError) -> RunError {
        RunError::Config(e)
    }
}

impl From<StoreError> for RunError {
    fn from(e: StoreError) -> RunError {
        RunError::Store(e)
    }
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Config(e) => write!(f, "invalid TrainConfig: {e}"),
            RunError::Store(e) => write!(f, "checkpoint store: {e}"),
        }
    }
}

impl Error for RunError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            RunError::Config(e) => Some(e),
            RunError::Store(e) => Some(e),
        }
    }
}

/// The `A^0` input-edge quantizer of Fig. 3, shared by the trainer's
/// train/eval loops and the inference server (`posit-serve`): in the posit
/// phase, shift by the Eq. 2 scale exponent — calibrated once from the
/// first tensor seen, then frozen — and quantize every element to the CONV
/// activation format in place.
///
/// The frozen exponent is what makes batched and single-sample inference
/// bit-identical: after calibration, quantization is a fixed per-element
/// map, independent of how many rows share the tensor.
#[derive(Debug, Clone, Default)]
pub struct InputQuantizer {
    exp: Option<i32>,
}

impl InputQuantizer {
    /// An uncalibrated quantizer: the first posit-phase tensor it sees
    /// fixes the scale exponent.
    pub fn new() -> InputQuantizer {
        InputQuantizer { exp: None }
    }

    /// Resume from a known exponent (`None` = still uncalibrated).
    pub fn with_exp(exp: Option<i32>) -> InputQuantizer {
        InputQuantizer { exp }
    }

    /// The frozen exponent, if calibrated.
    pub fn exp(&self) -> Option<i32> {
        self.exp
    }

    /// Quantize `x` in place when `phase` is posit; other phases pass
    /// through untouched.
    pub fn apply(&mut self, x: &mut Tensor, spec: &QuantSpec, phase: Phase) {
        if phase != Phase::Posit {
            return;
        }
        let exp = match self.exp {
            Some(e) => e,
            None => {
                let e = if spec.scaling {
                    scale::scale_exp(x.data(), spec.sigma).unwrap_or(0)
                } else {
                    0
                };
                self.exp = Some(e);
                e
            }
        };
        let mut state = spec.sr_seed ^ 0xA0;
        let _edge = posit_obs::enabled().then(|| posit_obs::push_edge_label("input.a0"));
        scale::shifted_quantize_slice(
            x.data_mut(),
            &spec.conv.activation,
            exp,
            spec.rounding,
            &mut state,
        );
    }
}

/// A per-epoch observer attached via [`RunOptions::observed`].
type EpochObserver<'a> = Box<dyn FnMut(&EpochStats) + 'a>;

/// Options for [`Trainer::run`]: the datasets and config every run needs,
/// plus the two attachments the old entry points hard-coded into separate
/// methods — an optional checkpoint store (per-epoch checkpointing +
/// bit-exact resume) and an optional per-epoch observer (live progress).
pub struct RunOptions<'a> {
    train: &'a Dataset,
    test: &'a Dataset,
    config: &'a TrainConfig,
    store: Option<&'a dyn Store>,
    on_epoch: Option<EpochObserver<'a>>,
}

impl<'a> RunOptions<'a> {
    /// A plain run over `train`/`test` under `config`: no checkpoint
    /// store, no observer.
    pub fn new(train: &'a Dataset, test: &'a Dataset, config: &'a TrainConfig) -> RunOptions<'a> {
        RunOptions {
            train,
            test,
            config,
            store: None,
            on_epoch: None,
        }
    }

    /// Checkpoint the full training state into `store` after every epoch
    /// and resume from the newest checkpoint found there (see
    /// [`Trainer::run`] for the exact-resume contract).
    pub fn resumable(mut self, store: &'a dyn Store) -> RunOptions<'a> {
        self.store = Some(store);
        self
    }

    /// Invoke `f` after every completed epoch.
    pub fn on_epoch(mut self, f: impl FnMut(&EpochStats) + 'a) -> RunOptions<'a> {
        self.on_epoch = Some(Box::new(f));
        self
    }
}

/// Orchestrates one training run of a (possibly quantized) network.
pub struct Trainer {
    net: Sequential,
    control: Option<QuantControl>,
    input_q: InputQuantizer,
}

impl Trainer {
    /// Build the config's scaled ResNet, wrapped with the quantization
    /// policy if one is configured.
    pub fn resnet(config: &TrainConfig) -> Trainer {
        Trainer::build(config, |b, rng| {
            resnet_scaled(b, config.base_width, config.num_classes, rng)
        })
    }

    /// Build the config's LeNet on `in_channels × side × side` inputs
    /// (`side >= 16`), wrapped with the quantization policy if one is
    /// configured. Unlike the ResNet it has no batch normalization.
    pub fn lenet(config: &TrainConfig, in_channels: usize, side: usize) -> Trainer {
        Trainer::build(config, |b, rng| {
            lenet(b, in_channels, side, config.num_classes, rng)
        })
    }

    /// Build `model` from the config's seed with plain layers, or with
    /// [`Quantized`](crate::quantized::Quantized) ones sharing one control
    /// if a quantization policy is configured.
    fn build(
        config: &TrainConfig,
        model: impl FnOnce(&mut dyn LayerBuilder, &mut Prng) -> Sequential,
    ) -> Trainer {
        let mut rng = Prng::seed(config.seed);
        match &config.quant {
            None => Trainer::from_net(model(&mut PlainBuilder, &mut rng), None),
            Some(spec) => {
                let mut qb = QuantBuilder::new(spec.clone());
                let control = qb.control();
                Trainer::from_net(model(&mut qb, &mut rng), Some(control))
            }
        }
    }

    /// Wrap an externally built network (the control must be the one its
    /// quantized layers share, or `None` for FP32).
    ///
    /// Nothing reads `E^0`, the error at the network input, so the net's
    /// first layer is told to skip its input gradient
    /// ([`Layer::set_needs_input_grad`]): `net.backward` returns
    /// [`posit_nn::no_input_grad`]. It is set once, at build time.
    pub fn from_net(mut net: Sequential, control: Option<QuantControl>) -> Trainer {
        net.set_needs_input_grad(false);
        Trainer {
            net,
            control,
            input_q: InputQuantizer::new(),
        }
    }

    /// The network (e.g. for inspection after training).
    pub fn net(&self) -> &Sequential {
        &self.net
    }

    /// Mutable access to the network (diagnostics, custom eval loops).
    pub fn net_mut(&mut self) -> &mut Sequential {
        &mut self.net
    }

    /// Phase for a 0-based epoch under the config's warm-up policy: FP32
    /// for epochs before the last warm-up epoch, Calibrate on the last
    /// warm-up epoch, Posit afterwards.
    pub fn phase_for_epoch(config: &TrainConfig, epoch: usize) -> Phase {
        if config.quant.is_none() {
            return Phase::Fp32;
        }
        let w = config.warmup_epochs;
        if w == 0 || epoch >= w {
            Phase::Posit
        } else if epoch + 1 == w {
            Phase::Calibrate
        } else {
            Phase::Fp32
        }
    }

    fn phase_name(p: Phase) -> &'static str {
        match p {
            Phase::Fp32 => "fp32",
            Phase::Calibrate => "calibrate",
            Phase::Posit => "posit",
        }
    }

    /// Quantize the input batch (the `A^0` edge of Fig. 3) when in the
    /// posit phase, using the CONV activation format.
    fn quantize_input(&mut self, x: &mut Tensor, config: &TrainConfig) {
        let Some(spec) = &config.quant else { return };
        let Some(control) = &self.control else { return };
        self.input_q.apply(x, spec, control.phase());
    }

    /// One optimizer step: one exact gradient batch. The forward and
    /// backward passes add each weight and bias gradient into the one
    /// accumulator every parameter owns for the batch, and
    /// `end_grad_batch` rounds each exact sum once into the parameter
    /// gradients before the update.
    ///
    /// Returns `(mean loss, top-1 accuracy)` for the batch.
    fn step(
        &mut self,
        x: &Tensor,
        t: &[usize],
        loss_fn: &SoftmaxCrossEntropy,
        opt: &mut Sgd,
    ) -> (f64, f64) {
        opt.zero_grad(&mut self.net.params_mut());
        self.net.begin_grad_batch(t.len());
        let y = self.net.forward(x, true).into_f32();
        let (loss, g) = loss_fn.forward(&y, t);
        let acc = metrics::top1_accuracy(&y, t);
        self.net.backward(&g);
        self.net.end_grad_batch();
        opt.step(&mut self.net.params_mut());
        (loss, acc)
    }

    /// Eval-mode inference on one batch: quantize the `A^0` input edge
    /// (posit phase) and run the forward pass, returning dense f32 logits.
    /// The shared plumbing behind [`Trainer::evaluate`] and the
    /// `posit-serve` batch executor; packed posit logits (quire backend)
    /// decode once here, at the top of the dataflow.
    pub fn infer(&mut self, x: &Tensor, config: &TrainConfig) -> Tensor {
        let mut x = x.clone();
        self.quantize_input(&mut x, config);
        self.net.forward(&x, false).into_f32()
    }

    /// Evaluate top-1 accuracy on a dataset (eval mode; in the posit phase
    /// this is posit inference).
    pub fn evaluate(&mut self, data: &Dataset, config: &TrainConfig) -> f64 {
        let mut loader = DataLoader::new(data, config.batch_size, false, 0);
        let mut meter = metrics::Meter::new();
        for (x, t) in loader.epoch() {
            let y = self.infer(&x, config);
            meter.update(metrics::top1_accuracy(&y, &t), t.len() as f64);
        }
        meter.mean()
    }

    /// Run the full schedule described by `opts` and return the report —
    /// the single training entry point.
    ///
    /// The optional attachments of [`RunOptions`] recover the old entry
    /// points: [`RunOptions::on_epoch`] for live progress, and
    /// [`RunOptions::resumable`] to checkpoint the *full* training state
    /// into a store after every epoch and resume from the newest
    /// checkpoint found there. The per-epoch checkpoint is a v2 store
    /// checkpoint of the network (packed posit masters land natively,
    /// bit-identical) plus the trainer state the next epoch depends on:
    /// optimizer velocity, the data-loader shuffle stream, the calibrated
    /// Eq. 2 scales and stochastic-rounding streams of every `Quantized`
    /// wrapper, BN running statistics, the cached input scale and the
    /// per-epoch report so far. A run killed between epochs and
    /// relaunched with the same arguments therefore continues
    /// **bit-exactly**: the final parameters and metrics equal the
    /// uninterrupted run's. (Histogram capture is the one exception: a
    /// resumed run only records snapshots for the epochs it executes.)
    ///
    /// # Errors
    ///
    /// [`RunError::Config`] if the config fails [`TrainConfig::validate`]
    /// (a zero batch size or an empty training/posit phase), before any
    /// step runs; [`RunError::Store`] for store failures (I/O, corrupt
    /// checkpoint). A valid run without a store cannot fail.
    pub fn run(&mut self, opts: RunOptions<'_>) -> Result<TrainReport, RunError> {
        let RunOptions {
            train,
            test,
            config,
            store,
            on_epoch,
        } = opts;
        let mut cb = on_epoch;
        let mut noop = |_: &EpochStats| {};
        let observer: &mut dyn FnMut(&EpochStats) = match &mut cb {
            Some(f) => &mut **f,
            None => &mut noop,
        };
        self.run_impl(train, test, config, store, observer)
    }

    fn run_impl(
        &mut self,
        train: &Dataset,
        test: &Dataset,
        config: &TrainConfig,
        store: Option<&dyn Store>,
        on_epoch: &mut dyn FnMut(&EpochStats),
    ) -> Result<TrainReport, RunError> {
        config.validate()?;
        let loss_fn = SoftmaxCrossEntropy::new();
        let mut opt = Sgd::new(config.schedule.lr_at(0))
            .momentum(config.momentum)
            .weight_decay(config.weight_decay);
        let mut loader = DataLoader::new(train, config.batch_size, true, config.seed ^ 0xDA7A);
        let mut recorder = HistogramRecorder::new(config.hist_params.clone(), 32);
        let mut report = TrainReport {
            epochs: Vec::new(),
            final_test_acc: 0.0,
            best_test_acc: 0.0,
            histograms: HistogramRecorder::default(),
        };
        let mut start_epoch = 0;
        if let Some(store) = store {
            if let Some(epoch) = self.resume_from(store, &mut opt, &mut loader, &mut report)? {
                start_epoch = epoch;
            }
        }
        let step_hist =
            posit_obs::enabled().then(|| posit_obs::Registry::global().histogram("train.step_ns"));
        for epoch in start_epoch..config.epochs {
            let phase = Self::phase_for_epoch(config, epoch);
            if let Some(c) = &self.control {
                c.set_phase(phase);
            }
            let lr = config.schedule.lr_at(epoch);
            opt.set_lr(lr);
            let mut loss_meter = metrics::Meter::new();
            let mut acc_meter = metrics::Meter::new();
            for (mut x, t) in loader.epoch() {
                let _step = step_hist.as_ref().map(posit_obs::Span::start);
                self.quantize_input(&mut x, config);
                let (l, acc) = self.step(&x, &t, &loss_fn, &mut opt);
                loss_meter.update(l, t.len() as f64);
                acc_meter.update(acc, t.len() as f64);
            }
            let test_acc = self.evaluate(test, config);
            if config.hist_epochs.contains(&epoch) {
                recorder.capture(&self.net, epoch);
            }
            let stats = EpochStats {
                epoch,
                phase: Self::phase_name(phase),
                lr,
                train_loss: loss_meter.mean(),
                train_acc: acc_meter.mean(),
                test_acc,
            };
            on_epoch(&stats);
            if posit_obs::enabled() {
                obs_epoch_export(&stats);
            }
            report.epochs.push(stats);
            report.best_test_acc = report.best_test_acc.max(test_acc);
            report.final_test_acc = test_acc;
            if let Some(store) = store {
                self.save_checkpoint(store, epoch + 1, &opt, &loader, &report)?;
            }
        }
        report.histograms = recorder;
        Ok(report)
    }

    /// Crash recovery: scan committed checkpoint epochs newest-first,
    /// deeply validating each candidate (state CRC, network arrays,
    /// velocity arrays) and falling back past torn or corrupt epochs to
    /// the newest fully-committed one. Returns the epoch to resume from,
    /// `None` for a fresh store. On success, checkpoint keys of every
    /// *other* epoch — a crash's partial newer epoch, a half-reclaimed
    /// older one, a corrupt candidate that was skipped — are swept.
    ///
    /// When every committed candidate fails validation, the newest
    /// failure surfaces as a typed error: silently restarting from
    /// scratch would discard a run the caller believes is resumable.
    fn resume_from(
        &mut self,
        store: &dyn Store,
        opt: &mut Sgd,
        loader: &mut DataLoader<'_>,
        report: &mut TrainReport,
    ) -> Result<Option<usize>, StoreError> {
        let candidates = resume::committed_epochs(store)?;
        let mut first_err = None;
        for (tried, &epoch) in candidates.iter().enumerate() {
            match self.load_epoch(store, epoch, opt, loader, report) {
                Ok(()) => {
                    let swept = resume::sweep_except(store, epoch)?;
                    if posit_obs::enabled() {
                        let reg = posit_obs::Registry::global();
                        reg.counter("train.resume.fallbacks").add(tried as u64);
                        reg.counter("train.resume.swept_keys").add(swept);
                    }
                    return Ok(Some(epoch));
                }
                // Only a torn or corrupt epoch justifies falling back to
                // older data. A transient/IO failure might clear on retry —
                // resuming from an older epoch instead would silently lose
                // committed progress, so it surfaces immediately.
                Err(e @ (StoreError::Corrupt(_) | StoreError::MissingKey(_))) => {
                    first_err = first_err.or(Some(e));
                }
                Err(e) => return Err(e),
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(None),
        }
    }

    /// Load one checkpoint epoch into the trainer: network parameters,
    /// optimizer velocity, loader RNG, input quantizer and epoch history.
    /// Trainer-visible state (loader, quantizer, report) is only touched
    /// after every read has succeeded, so a failed candidate leaves the
    /// next (older) candidate free to load cleanly.
    fn load_epoch(
        &mut self,
        store: &dyn Store,
        epoch: usize,
        opt: &mut Sgd,
        loader: &mut DataLoader<'_>,
        report: &mut TrainReport,
    ) -> Result<(), StoreError> {
        let state = resume::load_epoch(store, epoch)?;
        checkpoint::read(
            &mut self.net,
            checkpoint::Source::Store {
                store,
                prefix: &resume::net_prefix(epoch),
            },
        )
        .map_err(|e| checkpoint_error(&format!("resume epoch {epoch}"), e))?;
        let mut velocity = Vec::with_capacity(state.velocity_count);
        for i in 0..state.velocity_count {
            velocity.push(read_tensor(store, &resume::velocity_prefix(epoch, i))?);
        }
        opt.set_velocity(velocity);
        loader.set_rng_state(state.loader_rng);
        self.input_q = InputQuantizer::with_exp(state.input_scale_exp);
        report.best_test_acc = 0.0;
        report.final_test_acc = 0.0;
        for s in &state.epochs {
            report.best_test_acc = report.best_test_acc.max(s.test_acc);
            report.final_test_acc = s.test_acc;
        }
        report.epochs = state.epochs;
        Ok(())
    }

    /// Write the epoch-boundary checkpoint: network (v2 store checkpoint,
    /// posit masters native) + trainer state, all under epoch-stamped
    /// prefixes. The state record is committed last and is the *only*
    /// pointer to the new epoch's arrays, so a process killed anywhere
    /// inside this function leaves the previous epoch's checkpoint fully
    /// intact and referenced — never a mixed-epoch net.
    ///
    /// Verify-before-reclaim: the superseded epoch is deleted only after
    /// the freshly-written epoch has been read back end to end (state
    /// CRC, network arrays, velocity arrays). A write the store silently
    /// corrupted therefore surfaces *now*, while the previous epoch still
    /// exists as a recovery point — never after it has been reclaimed.
    fn save_checkpoint(
        &mut self,
        store: &dyn Store,
        next_epoch: usize,
        opt: &Sgd,
        loader: &DataLoader<'_>,
        report: &TrainReport,
    ) -> Result<(), StoreError> {
        checkpoint::write(
            &self.net,
            checkpoint::Sink::Store {
                store,
                prefix: &resume::net_prefix(next_epoch),
            },
            checkpoint::Version::V2,
        )?;
        for (i, v) in opt.velocity().iter().enumerate() {
            write_tensor(store, &resume::velocity_prefix(next_epoch, i), v)?;
        }
        let state = resume::TrainerState {
            next_epoch,
            input_scale_exp: self.input_q.exp(),
            loader_rng: loader.rng_state(),
            velocity_count: opt.velocity().len(),
            epochs: report.epochs.clone(),
        };
        store.set(&resume::state_key(next_epoch), &resume::serialize(&state))?;
        self.verify_epoch(store, next_epoch, &state)?;
        // Commit point passed and verified: the old epoch is
        // unreferenced, reclaim it. (A kill during cleanup leaves
        // unreferenced keys — the next resume sweeps them.)
        if next_epoch >= 2 {
            resume::delete_epoch(store, next_epoch - 1)?;
        }
        Ok(())
    }

    /// Read the just-written checkpoint epoch back end to end. Every
    /// plane is CRC-protected, so a successful read is bit-identical to
    /// what was written — re-reading into the live net is a no-op on
    /// success and a typed error on any corruption.
    fn verify_epoch(
        &mut self,
        store: &dyn Store,
        epoch: usize,
        expect: &resume::TrainerState,
    ) -> Result<(), StoreError> {
        let state = resume::load_epoch(store, epoch)?;
        if state.velocity_count != expect.velocity_count
            || state.epochs.len() != expect.epochs.len()
        {
            return Err(StoreError::Corrupt(format!(
                "checkpoint epoch {epoch} read back a different state record"
            )));
        }
        checkpoint::read(
            &mut self.net,
            checkpoint::Source::Store {
                store,
                prefix: &resume::net_prefix(epoch),
            },
        )
        .map_err(|e| checkpoint_error(&format!("checkpoint epoch {epoch} verify"), e))?;
        for i in 0..state.velocity_count {
            read_tensor(store, &resume::velocity_prefix(epoch, i))?;
        }
        Ok(())
    }
}

/// A JSON number for a possibly non-finite float (a diverged run has NaN
/// loss; `null` keeps the line parseable).
/// Classify a failed checkpoint read for the recovery scanner. Only
/// corruption-class causes (bad framing, checksum mismatches, missing
/// records) become [`StoreError::Corrupt`] — the signal that falling
/// back to an older epoch is justified. Infrastructure faults (I/O,
/// transient, out-of-space) pass through unchanged: they say nothing
/// about the epoch's integrity, and mislabeling them would make recovery
/// silently discard committed progress.
fn checkpoint_error(ctx: &str, e: checkpoint::LoadError) -> StoreError {
    match e {
        checkpoint::LoadError::Store(
            s @ (StoreError::Io(_) | StoreError::Transient(_) | StoreError::Full(_)),
        ) => s,
        other => StoreError::Corrupt(format!("{ctx}: {other}")),
    }
}

fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// Append observability lines to the sink selected by
/// `POSIT_OBS_TRAIN_LOG`: the named file (append mode) when set, stderr
/// otherwise. Write errors are swallowed — telemetry must never fail a
/// training run.
fn obs_write_lines(text: &str) {
    use std::io::Write;
    match std::env::var_os("POSIT_OBS_TRAIN_LOG") {
        Some(path) => {
            if let Ok(mut f) = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&path)
            {
                let _ = f.write_all(text.as_bytes());
            }
        }
        None => {
            let _ = std::io::stderr().write_all(text.as_bytes());
        }
    }
}

/// Export one epoch's observability record as NDJSON: an `"event":
/// "epoch"` summary line (loss, accuracy, learning rate) followed by a
/// full dump of the global metric registry — kernel-path counters,
/// per-layer quantization-edge health, and the `train.step_ns` span
/// histogram, cumulative as of this epoch boundary.
fn obs_epoch_export(stats: &EpochStats) {
    let mut out = format!(
        "{{\"event\": \"epoch\", \"epoch\": {}, \"phase\": \"{}\", \"lr\": {}, \
         \"train_loss\": {}, \"train_acc\": {}, \"test_acc\": {}}}\n",
        stats.epoch,
        stats.phase,
        json_f64(stats.lr as f64),
        json_f64(stats.train_loss),
        json_f64(stats.train_acc),
        json_f64(stats.test_acc),
    );
    out.push_str(&posit_obs::Registry::global().snapshot().to_ndjson());
    obs_write_lines(&out);
}

/// Serialization of the trainer-side resume state (everything outside the
/// network that the next epoch depends on).
mod resume {
    use super::{EpochStats, PrngState, Store, StoreError};

    const STATE_MAGIC: &[u8; 4] = b"PTS1";
    /// Epoch-record cap a parser will believe (far above any real run).
    const MAX_EPOCHS: usize = 1 << 20;

    /// The network checkpoint prefix for the state that *enters* `epoch`.
    pub(super) fn net_prefix(epoch: usize) -> String {
        format!("net/e{epoch}")
    }

    pub(super) fn velocity_prefix(epoch: usize, i: usize) -> String {
        format!("trainer/velocity/e{epoch}/{i}")
    }

    /// The epoch-stamped trainer-state key — the commit record of one
    /// checkpoint epoch. Recovery scans these newest-first.
    pub(super) fn state_key(epoch: usize) -> String {
        format!("trainer/state/e{epoch}")
    }

    /// The epoch a checkpoint key belongs to, or `None` for keys that are
    /// not ours (the sweep must never delete what it cannot attribute).
    fn epoch_of(key: &str, prefix: &str) -> Option<usize> {
        key.strip_prefix(prefix)?.split('/').next()?.parse().ok()
    }

    /// Checkpoint-key prefixes, each stripping to `{epoch}[/…]`.
    const EPOCH_PREFIXES: [&str; 3] = ["net/e", "trainer/velocity/e", "trainer/state/e"];

    /// Every epoch with a committed state record, newest first.
    pub(super) fn committed_epochs(store: &dyn Store) -> Result<Vec<usize>, StoreError> {
        let mut epochs: Vec<usize> = store
            .list_prefix("trainer/state/e")?
            .iter()
            .filter_map(|k| epoch_of(k, "trainer/state/e"))
            .collect();
        epochs.sort_unstable();
        epochs.dedup();
        epochs.reverse();
        Ok(epochs)
    }

    /// Drop every key of a superseded epoch's checkpoint.
    pub(super) fn delete_epoch(store: &dyn Store, epoch: usize) -> Result<(), StoreError> {
        for prefix in [
            format!("{}/", net_prefix(epoch)),
            format!("trainer/velocity/e{epoch}/"),
        ] {
            for key in store.list_prefix(&prefix)? {
                store.delete(&key)?;
            }
        }
        store.delete(&state_key(epoch))
    }

    /// Sweep every checkpoint key that does not belong to the epoch the
    /// run resumed from: partial newer epochs a crash left behind, and
    /// half-reclaimed older ones. Returns the number of keys deleted.
    pub(super) fn sweep_except(store: &dyn Store, keep: usize) -> Result<u64, StoreError> {
        let mut swept = 0;
        for prefix in EPOCH_PREFIXES {
            for key in store.list_prefix(prefix)? {
                if epoch_of(&key, prefix).is_some_and(|e| e != keep) {
                    store.delete(&key)?;
                    swept += 1;
                }
            }
        }
        Ok(swept)
    }

    pub(super) struct TrainerState {
        pub next_epoch: usize,
        pub input_scale_exp: Option<i32>,
        pub loader_rng: PrngState,
        pub velocity_count: usize,
        pub epochs: Vec<EpochStats>,
    }

    fn phase_code(name: &str) -> u8 {
        match name {
            "fp32" => 0,
            "calibrate" => 1,
            _ => 2,
        }
    }

    fn phase_name(code: u8) -> &'static str {
        match code {
            0 => "fp32",
            1 => "calibrate",
            _ => "posit",
        }
    }

    pub(super) fn serialize(s: &TrainerState) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(STATE_MAGIC);
        out.extend_from_slice(&(s.next_epoch as u64).to_le_bytes());
        out.push(s.input_scale_exp.is_some() as u8);
        out.extend_from_slice(&s.input_scale_exp.unwrap_or(0).to_le_bytes());
        for w in s.loader_rng.words {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out.push(s.loader_rng.spare.is_some() as u8);
        out.extend_from_slice(&s.loader_rng.spare.unwrap_or(0.0).to_le_bytes());
        out.extend_from_slice(&(s.velocity_count as u64).to_le_bytes());
        out.extend_from_slice(&(s.epochs.len() as u64).to_le_bytes());
        for e in &s.epochs {
            out.extend_from_slice(&(e.epoch as u64).to_le_bytes());
            out.push(phase_code(e.phase));
            out.extend_from_slice(&e.lr.to_le_bytes());
            out.extend_from_slice(&e.train_loss.to_le_bytes());
            out.extend_from_slice(&e.train_acc.to_le_bytes());
            out.extend_from_slice(&e.test_acc.to_le_bytes());
        }
        // CRC trailer: the bit-exact-resume guarantee hinges on this blob,
        // so bit rot here must be as loud as in any chunk.
        out.extend_from_slice(&posit_store::crc32(&out).to_le_bytes());
        out
    }

    struct Reader<'a>(&'a [u8]);

    impl<'a> Reader<'a> {
        fn take(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
            if self.0.len() < n {
                return Err(StoreError::Corrupt("trainer state truncated".into()));
            }
            let (head, rest) = self.0.split_at(n);
            self.0 = rest;
            Ok(head)
        }
        fn u8(&mut self) -> Result<u8, StoreError> {
            Ok(self.take(1)?[0])
        }
        fn u64(&mut self) -> Result<u64, StoreError> {
            Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
        }
        fn i32(&mut self) -> Result<i32, StoreError> {
            Ok(i32::from_le_bytes(self.take(4)?.try_into().expect("len 4")))
        }
        fn f32(&mut self) -> Result<f32, StoreError> {
            Ok(f32::from_le_bytes(self.take(4)?.try_into().expect("len 4")))
        }
        fn f64(&mut self) -> Result<f64, StoreError> {
            Ok(f64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
        }
    }

    /// Load and validate the state record committed for `epoch`.
    pub(super) fn load_epoch(store: &dyn Store, epoch: usize) -> Result<TrainerState, StoreError> {
        let key = state_key(epoch);
        let Some(mut bytes) = store.get(&key)? else {
            return Err(StoreError::MissingKey(key));
        };
        if bytes.len() < 4 {
            return Err(StoreError::Corrupt(
                "trainer state shorter than its checksum".into(),
            ));
        }
        let body = bytes.len() - 4;
        let stored = u32::from_le_bytes(bytes[body..].try_into().expect("len 4"));
        if stored != posit_store::crc32(&bytes[..body]) {
            return Err(StoreError::Corrupt(
                "trainer state failed its checksum".into(),
            ));
        }
        bytes.truncate(body);
        let mut r = Reader(&bytes);
        if r.take(4)? != STATE_MAGIC {
            return Err(StoreError::Corrupt("bad trainer-state magic".into()));
        }
        let next_epoch = r.u64()? as usize;
        let has_scale = r.u8()? != 0;
        let scale = r.i32()?;
        let mut words = [0u64; 4];
        for w in &mut words {
            *w = r.u64()?;
        }
        let has_spare = r.u8()? != 0;
        let spare = r.f32()?;
        let velocity_count = r.u64()? as usize;
        let n_epochs = r.u64()? as usize;
        if n_epochs > MAX_EPOCHS || velocity_count > MAX_EPOCHS {
            return Err(StoreError::Corrupt("implausible trainer state".into()));
        }
        let mut epochs = Vec::with_capacity(n_epochs);
        for _ in 0..n_epochs {
            let epoch = r.u64()? as usize;
            let phase = phase_name(r.u8()?);
            let lr = r.f32()?;
            let train_loss = r.f64()?;
            let train_acc = r.f64()?;
            let test_acc = r.f64()?;
            epochs.push(EpochStats {
                epoch,
                phase,
                lr,
                train_loss,
                train_acc,
                test_acc,
            });
        }
        if !r.0.is_empty() {
            return Err(StoreError::Corrupt("trailing trainer-state bytes".into()));
        }
        if next_epoch != epoch {
            return Err(StoreError::Corrupt(format!(
                "trainer state under {key} claims epoch {next_epoch}"
            )));
        }
        Ok(TrainerState {
            next_epoch,
            input_scale_exp: has_scale.then_some(scale),
            loader_rng: PrngState {
                words,
                spare: has_spare.then_some(spare),
            },
            velocity_count,
            epochs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::QuantSpec;
    use posit_data::SyntheticCifar;

    fn tiny_data() -> (Dataset, Dataset) {
        let gen = SyntheticCifar::new(8, 11);
        (gen.train(320, 1), gen.test(80, 1))
    }

    #[test]
    fn phase_schedule() {
        let cfg = TrainConfig::cifar_scaled(4, 10).with_quant(QuantSpec::cifar_paper());
        assert_eq!(Trainer::phase_for_epoch(&cfg, 0), Phase::Calibrate); // warmup=1
        assert_eq!(Trainer::phase_for_epoch(&cfg, 1), Phase::Posit);
        let cfg5 = cfg.clone().with_warmup(3);
        assert_eq!(Trainer::phase_for_epoch(&cfg5, 0), Phase::Fp32);
        assert_eq!(Trainer::phase_for_epoch(&cfg5, 1), Phase::Fp32);
        assert_eq!(Trainer::phase_for_epoch(&cfg5, 2), Phase::Calibrate);
        assert_eq!(Trainer::phase_for_epoch(&cfg5, 3), Phase::Posit);
        let cfg0 = cfg.clone().with_warmup(0);
        assert_eq!(Trainer::phase_for_epoch(&cfg0, 0), Phase::Posit);
        let fp32 = TrainConfig::cifar_scaled(4, 10);
        assert_eq!(Trainer::phase_for_epoch(&fp32, 5), Phase::Fp32);
    }

    #[test]
    fn built_nets_skip_the_network_input_error() {
        // Nothing reads E^0: every constructor tells the net's first layer
        // to skip its input gradient, so a backward through the whole net
        // returns the documented empty tensor — plain and quantized,
        // LeNet and ResNet.
        let plain = TrainConfig::cifar_scaled(4, 1);
        let quant = plain.clone().with_quant(QuantSpec::cifar_paper());
        let mut rng = Prng::seed(5);
        let trainers = [
            (Trainer::lenet(&plain, 3, 16), 16),
            (Trainer::lenet(&quant, 3, 16), 16),
            (Trainer::resnet(&plain), 8),
            (Trainer::resnet(&quant), 8),
        ];
        for (mut t, side) in trainers {
            let x = Tensor::rand_normal(&[2, 3, side, side], 0.0, 1.0, &mut rng);
            let y = t.net_mut().forward(&x, true);
            let e0 = t.net_mut().backward(&Tensor::ones(y.shape()));
            assert_eq!(e0.shape(), posit_nn::no_input_grad().shape());
            // The first layer still gets its ΔW.
            assert!(t.net().params()[0].grad.max_abs() > 0.0);
        }
    }

    #[test]
    fn fp32_baseline_learns_tiny_task() {
        let (train, test) = tiny_data();
        let config = TrainConfig::cifar_scaled(4, 8).with_seed(3);
        let mut t = Trainer::resnet(&config);
        let report = t.run(RunOptions::new(&train, &test, &config)).unwrap();
        assert_eq!(report.epochs.len(), 8);
        assert!(
            report.final_test_acc > 0.4,
            "fp32 baseline too weak (chance is 0.1): {:?}",
            report.epochs.last()
        );
        // Loss must come down.
        assert!(report.epochs.last().unwrap().train_loss < report.epochs[0].train_loss);
    }

    #[test]
    fn posit_training_tracks_fp32_on_tiny_task() {
        let (train, test) = tiny_data();
        let base_cfg = TrainConfig::cifar_scaled(4, 6).with_seed(3);
        let mut fp32 = Trainer::resnet(&base_cfg);
        let fp32_report = fp32.run(RunOptions::new(&train, &test, &base_cfg)).unwrap();

        let posit_cfg = base_cfg.clone().with_quant(QuantSpec::cifar_paper());
        let mut posit = Trainer::resnet(&posit_cfg);
        let posit_report = posit
            .run(RunOptions::new(&train, &test, &posit_cfg))
            .unwrap();

        // The paper's headline: no (material) accuracy loss.
        assert!(
            posit_report.final_test_acc >= fp32_report.final_test_acc - 0.15,
            "posit {:.3} vs fp32 {:.3}",
            posit_report.final_test_acc,
            fp32_report.final_test_acc,
        );
        // Phases recorded as expected.
        assert_eq!(posit_report.epochs[0].phase, "calibrate");
        assert_eq!(posit_report.epochs[1].phase, "posit");
    }

    #[test]
    fn run_returns_a_typed_config_error() {
        let (train, test) = tiny_data();
        let mut cfg = TrainConfig::cifar_scaled(4, 2);
        cfg.batch_size = 0;
        let err = Trainer::resnet(&cfg)
            .run(RunOptions::new(&train, &test, &cfg).on_epoch(|_| panic!("no epoch may run")))
            .unwrap_err();
        assert!(
            matches!(err, RunError::Config(ConfigError::ZeroBatchSize)),
            "{err:?}"
        );
        let source = err.source().expect("a config error has a source");
        assert_eq!(source.to_string(), ConfigError::ZeroBatchSize.to_string());
    }

    // The two checks below surface the error the way a CLI does, through
    // its `Display`, which must carry the config field at fault.
    #[test]
    #[should_panic(expected = "batch_size must be positive")]
    fn run_rejects_zero_batch_size_up_front() {
        let (train, test) = tiny_data();
        let mut cfg = TrainConfig::cifar_scaled(4, 2);
        cfg.batch_size = 0;
        Trainer::resnet(&cfg)
            .run(RunOptions::new(&train, &test, &cfg))
            .unwrap_or_else(|e| panic!("{e}"));
    }

    #[test]
    #[should_panic(expected = "posit phase is empty")]
    fn run_rejects_empty_posit_phase_up_front() {
        let (train, test) = tiny_data();
        let cfg = TrainConfig::cifar_scaled(4, 2)
            .with_quant(QuantSpec::cifar_paper())
            .with_warmup(2);
        Trainer::resnet(&cfg)
            .run(RunOptions::new(&train, &test, &cfg))
            .unwrap_or_else(|e| panic!("{e}"));
    }

    #[test]
    fn resident_posit_training_tracks_fp32_on_tiny_task() {
        use crate::config::ComputeBackend;
        // The table3-style smoke for the packed path: quire backend with
        // posit-resident weights/activations must train to parity with the
        // FP32 baseline on the tiny task (the acceptance bar for the
        // storage refactor — packed bits flowing end-to-end through the
        // Fig. 3 loop without breaking accuracy).
        let (train, test) = tiny_data();
        let base_cfg = TrainConfig::cifar_scaled(4, 4).with_seed(3);
        let fp32_report = Trainer::resnet(&base_cfg)
            .run(RunOptions::new(&train, &test, &base_cfg))
            .unwrap();
        let posit_cfg = base_cfg
            .clone()
            .with_quant(QuantSpec::cifar_paper().with_backend(ComputeBackend::PositQuire));
        let posit_report = Trainer::resnet(&posit_cfg)
            .run(RunOptions::new(&train, &test, &posit_cfg))
            .unwrap();
        assert!(
            posit_report.final_test_acc >= fp32_report.final_test_acc - 0.15,
            "resident posit {:.3} vs fp32 {:.3}",
            posit_report.final_test_acc,
            fp32_report.final_test_acc,
        );
        assert_eq!(posit_report.epochs[1].phase, "posit");
    }

    #[test]
    fn killed_and_resumed_run_matches_uninterrupted_bit_exactly() {
        use crate::config::{ComputeBackend, MasterWeights};
        use posit_store::MemoryStore;
        // The acceptance bar for checkpoint v2 + trainer resume: under the
        // quire backend with posit-resident masters, a run killed after
        // epoch 2 of 3 and resumed from the store reproduces the
        // uninterrupted run's trajectory, final metrics and final packed
        // parameters bit-exactly.
        let (train, test) = tiny_data();
        let cfg = TrainConfig::cifar_scaled(4, 3).with_seed(3).with_quant(
            QuantSpec::cifar_paper()
                .with_backend(ComputeBackend::PositQuire)
                .with_master(MasterWeights::Posit),
        );

        let mut uninterrupted = Trainer::resnet(&cfg);
        let full = uninterrupted
            .run(RunOptions::new(&train, &test, &cfg))
            .unwrap();

        // "Kill after epoch 2": run the same schedule truncated to two
        // epochs, checkpointing into the store (the LR schedule, phases and
        // shuffle stream are epoch-indexed, so the prefix is identical).
        let store = MemoryStore::new();
        let mut cfg_prefix = cfg.clone();
        cfg_prefix.epochs = 2;
        let partial = Trainer::resnet(&cfg_prefix)
            .run(RunOptions::new(&train, &test, &cfg_prefix).resumable(&store))
            .unwrap();
        assert_eq!(partial.epochs.len(), 2);

        // Resume in a *fresh process stand-in*: new trainer, full config,
        // same store.
        let mut resumed_trainer = Trainer::resnet(&cfg);
        let resumed = resumed_trainer
            .run(RunOptions::new(&train, &test, &cfg).resumable(&store))
            .unwrap();

        assert_eq!(resumed.epochs.len(), full.epochs.len());
        for (a, b) in full.epochs.iter().zip(&resumed.epochs) {
            assert_eq!(a.epoch, b.epoch);
            assert_eq!(a.phase, b.phase);
            assert_eq!(
                a.train_loss.to_bits(),
                b.train_loss.to_bits(),
                "epoch {} train loss drifted",
                a.epoch
            );
            assert_eq!(a.train_acc.to_bits(), b.train_acc.to_bits());
            assert_eq!(a.test_acc.to_bits(), b.test_acc.to_bits());
        }
        assert_eq!(
            full.final_test_acc.to_bits(),
            resumed.final_test_acc.to_bits()
        );
        assert_eq!(
            full.best_test_acc.to_bits(),
            resumed.best_test_acc.to_bits()
        );
        // Final parameters: bit-identical packed planes (posit masters).
        for (pa, pb) in uninterrupted
            .net()
            .params()
            .iter()
            .zip(resumed_trainer.net().params())
        {
            assert_eq!(pa.name, pb.name);
            match (pa.value.posit_bits(), pb.value.posit_bits()) {
                (Some(a), Some(b)) => assert_eq!(a, b, "{} packed plane drifted", pa.name),
                (None, None) => assert_eq!(
                    pa.value.data(),
                    pb.value.data(),
                    "{} f32 master drifted",
                    pa.name
                ),
                _ => panic!("{}: storage domains disagree", pa.name),
            }
        }
    }

    #[test]
    fn checkpointing_does_not_perturb_the_run() {
        use posit_store::MemoryStore;
        // A resumable run over an empty store must produce exactly what a
        // plain run produces — saving checkpoints consumes no randomness.
        let (train, test) = tiny_data();
        let cfg = TrainConfig::cifar_scaled(4, 2)
            .with_seed(5)
            .with_quant(QuantSpec::cifar_paper());
        let plain = Trainer::resnet(&cfg)
            .run(RunOptions::new(&train, &test, &cfg))
            .unwrap();
        let store = MemoryStore::new();
        let resumable = Trainer::resnet(&cfg)
            .run(RunOptions::new(&train, &test, &cfg).resumable(&store))
            .unwrap();
        for (a, b) in plain.epochs.iter().zip(&resumable.epochs) {
            assert_eq!(a.train_loss.to_bits(), b.train_loss.to_bits());
            assert_eq!(a.test_acc.to_bits(), b.test_acc.to_bits());
        }
        // And a no-op resume (checkpoint already at config.epochs) leaves
        // the report intact without training further.
        let resumed = Trainer::resnet(&cfg)
            .run(
                RunOptions::new(&train, &test, &cfg)
                    .resumable(&store)
                    .on_epoch(|_| panic!("no epochs left to run")),
            )
            .unwrap();
        assert_eq!(resumed.epochs.len(), cfg.epochs);
        assert_eq!(
            resumed.final_test_acc.to_bits(),
            resumable.final_test_acc.to_bits()
        );
        // Bit rot in the trainer-state record is a loud checksum error —
        // with no older epoch left to fall back to, resume must refuse
        // rather than silently restart from scratch.
        let state_key = format!("trainer/state/e{}", cfg.epochs);
        let mut bytes = store.get(&state_key).unwrap().unwrap();
        bytes[8] ^= 0x40; // inside the payload, not the trailer
        store.set(&state_key, &bytes).unwrap();
        let err = Trainer::resnet(&cfg)
            .run(RunOptions::new(&train, &test, &cfg).resumable(&store))
            .unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
    }

    #[test]
    fn histograms_captured_at_requested_epochs() {
        let (train, test) = tiny_data();
        let config = TrainConfig::cifar_scaled(4, 2)
            .with_seed(5)
            .with_histograms(vec![0, 1]);
        let mut t = Trainer::resnet(&config);
        let report = t.run(RunOptions::new(&train, &test, &config)).unwrap();
        // two params tracked × two epochs
        assert_eq!(report.histograms.snapshots().len(), 4);
        assert_eq!(report.histograms.for_param("conv1.weight").len(), 2);
    }
}
