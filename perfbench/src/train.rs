//! The training workloads: LeNet with posit(8,1)/(8,2) and an MLP with
//! posit(16,1)/(16,2), both trained with `Trainer::run` on the
//! posit-quire backend and, for comparison, on the f32 backend.

use crate::expected;
use crate::stats::{self, Report};
use crate::trace::{self, Kind, Recorder, Span, TimedStore};
use posit_dnn::data::{DataLoader, Dataset, SyntheticCifar};
use posit_dnn::nn::StepLr;
use posit_dnn::store::{MemoryStore, Store};
use posit_dnn::tensor::rng::Prng;
use posit_dnn::train::{
    ComputeBackend, EpochStats, QuantBuilder, QuantSpec, RunOptions, TrainConfig, Trainer,
};
use std::sync::Arc;
use std::time::Instant;

/// Image side of the synthetic CIFAR stand-in (3 × 16 × 16).
pub const SIDE: usize = 16;
/// Mini-batch size of every training workload.
pub const BATCH: usize = 32;
/// Epochs that count as set-up: the FP32 warm-up/calibration epoch and
/// the first posit epoch.
pub const SETUP_EPOCHS: usize = 2;
/// Distinct training sets; `--seed` picks one.
pub const VARIANTS: u64 = 4;
/// Set-up repetitions whose median is `setup_s`.
pub const SETUP_REPS: usize = 3;

/// Network of a training workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Model {
    /// `posit_models::lenet` on 3 × 16 × 16 images.
    LeNet,
    /// `posit_models::mlp` 768 → 256 → 128 → 10 on the flattened images.
    Mlp,
}

/// One training workload.
pub struct TrainWorkload {
    /// Workload name.
    pub name: &'static str,
    /// Short prefix of its traced metrics.
    pub prefix: &'static str,
    /// Network.
    pub model: Model,
    /// The paper's quantization recipe for it.
    pub spec: fn() -> QuantSpec,
    /// Training samples per epoch.
    pub n_train: usize,
    /// Held-out samples evaluated after every epoch.
    pub n_test: usize,
    /// Constant learning rate.
    pub lr: f32,
}

/// LeNet, posit(8,1) forward/update and (8,2) backward (Table III CIFAR).
pub const LENET8: TrainWorkload = TrainWorkload {
    name: "train-lenet8",
    prefix: "lenet8",
    model: Model::LeNet,
    spec: QuantSpec::cifar_paper,
    n_train: 512,
    n_test: 128,
    lr: 0.02,
};

/// MLP, posit(16,1) forward/update and (16,2) backward (Table III
/// ImageNet).
pub const MLP16: TrainWorkload = TrainWorkload {
    name: "train-mlp16",
    prefix: "mlp16",
    model: Model::Mlp,
    spec: QuantSpec::imagenet_paper,
    n_train: 128,
    n_test: 64,
    lr: 0.02,
};

/// MLP layer sizes.
const MLP_SIZES: [usize; 4] = [3 * SIDE * SIDE, 256, 128, 10];

impl TrainWorkload {
    /// Training steps per epoch.
    pub fn steps_per_epoch(&self) -> usize {
        self.n_train.div_ceil(BATCH)
    }

    /// The run configuration for `epochs` epochs on `backend`.
    pub fn config(&self, backend: ComputeBackend, epochs: usize) -> TrainConfig {
        TrainConfig {
            epochs,
            warmup_epochs: 1,
            batch_size: BATCH,
            schedule: StepLr::new(self.lr, Vec::new(), 1.0),
            hist_params: Vec::new(),
            ..TrainConfig::cifar_scaled(8, epochs).with_quant((self.spec)().with_backend(backend))
        }
    }

    /// The train and test sets of data variant `variant`.
    pub fn data(&self, variant: u64) -> (Dataset, Dataset) {
        let gen = SyntheticCifar::new(SIDE, 0xC1FA + variant);
        let train = gen.train(self.n_train, variant);
        let test = gen.test(self.n_test, variant);
        match self.model {
            Model::LeNet => (train, test),
            Model::Mlp => (flatten(&train), flatten(&test)),
        }
    }

    /// A fresh trainer for `config`.
    pub fn trainer(&self, config: &TrainConfig) -> Trainer {
        match self.model {
            Model::LeNet => Trainer::lenet(config, 3, SIDE),
            Model::Mlp => {
                let spec = config
                    .quant
                    .clone()
                    .expect("training workloads are quantized");
                let mut qb = QuantBuilder::new(spec);
                let control = qb.control();
                let mut rng = Prng::seed(config.seed);
                let net = posit_dnn::models::mlp(&mut qb, &MLP_SIZES, &mut rng);
                Trainer::from_net(net, Some(control))
            }
        }
    }
}

fn flatten(d: &Dataset) -> Dataset {
    let n = d.len();
    Dataset::new(
        d.features().clone().reshape(&[n, 3 * SIDE * SIDE]),
        d.labels().to_vec(),
    )
}

/// The checked bits of one epoch: loss, train accuracy, test accuracy.
pub fn epoch_bits(s: &EpochStats) -> [u64; 3] {
    [
        s.train_loss.to_bits(),
        s.train_acc.to_bits(),
        s.test_acc.to_bits(),
    ]
}

/// Format one epoch's bits as recorded in `expected/outputs.txt`.
pub fn bits_text(b: &[u64; 3]) -> String {
    format!("{:016x} {:016x} {:016x}", b[0], b[1], b[2])
}

/// A trainer after set-up, with its checkpoint store.
pub struct Prepared<'w> {
    w: &'w TrainWorkload,
    backend: ComputeBackend,
    variant: u64,
    train: Dataset,
    test: Dataset,
    /// The trainer (its network can be wrapped for tracing).
    pub trainer: Trainer,
    store: Arc<MemoryStore>,
    epochs_done: usize,
    /// Wall seconds of the last set-up epoch.
    pub last_epoch_s: f64,
}

/// Epoch-end times and bits of one `Trainer::run` call.
pub struct Epochs {
    /// Wall time at each `on_epoch` call.
    pub at: Vec<Instant>,
    /// Host steal ticks at each `on_epoch` call.
    pub steal: Vec<u64>,
    /// Checked bits per epoch.
    pub bits: Vec<[u64; 3]>,
}

impl<'w> Prepared<'w> {
    /// Generate the data, build the trainer and run the set-up epochs,
    /// checkpointing into a fresh `MemoryStore`. Returns the trainer and
    /// its wall seconds.
    pub fn setup(
        w: &'w TrainWorkload,
        backend: ComputeBackend,
        variant: u64,
        rep: &mut Report,
    ) -> (Prepared<'w>, f64) {
        let t0 = Instant::now();
        let (train, test) = w.data(variant);
        let config = w.config(backend, SETUP_EPOCHS);
        let trainer = w.trainer(&config);
        let mut s = Prepared {
            w,
            backend,
            variant,
            train,
            test,
            trainer,
            store: Arc::new(MemoryStore::new()),
            epochs_done: 0,
            last_epoch_s: 0.0,
        };
        let e = s.run(SETUP_EPOCHS, None, &|| {}, rep);
        let secs = t0.elapsed().as_secs_f64();
        s.last_epoch_s = e.at[1].duration_since(e.at[0]).as_secs_f64();
        (s, secs)
    }

    /// Epochs for which outputs are recorded, beyond those already run.
    pub fn epochs_left(&self) -> usize {
        expected::recorded_len(self.w.name, self.variant, self.backend.name())
            .saturating_sub(self.epochs_done)
    }

    /// Train `epochs` more epochs (resuming from the store), checking each
    /// epoch's bits against the recorded ones. `store` replaces the
    /// trainer's store view (a timing wrapper around it); `mark` runs at
    /// every epoch end.
    pub fn run(
        &mut self,
        epochs: usize,
        store: Option<&dyn Store>,
        mark: &dyn Fn(),
        rep: &mut Report,
    ) -> Epochs {
        let first = self.epochs_done;
        let config = self.w.config(self.backend, first + epochs);
        let store: &dyn Store = store.unwrap_or(&*self.store);
        let mut out = Epochs {
            at: Vec::with_capacity(epochs),
            steal: Vec::with_capacity(epochs),
            bits: Vec::with_capacity(epochs),
        };
        self.trainer
            .run(
                RunOptions::new(&self.train, &self.test, &config)
                    .resumable(store)
                    .on_epoch(|s| {
                        out.at.push(Instant::now());
                        out.steal.push(stats::steal_ticks());
                        mark();
                        out.bits.push(epoch_bits(s));
                    }),
            )
            .expect("a MemoryStore checkpoint cannot fail");
        self.epochs_done += epochs;
        let steps = self.w.steps_per_epoch() as u64;
        for (i, bits) in out.bits.iter().enumerate() {
            rep.attempted += steps;
            let key = expected::key(self.w.name, self.variant, self.backend.name(), first + i);
            if expected::lookup(&key) != Some(bits_text(bits).as_str()) {
                rep.failed += steps;
                println!("# mismatch {key}: got {}", bits_text(bits));
            }
        }
        out
    }

    /// The checkpoint store.
    pub fn store(&self) -> Arc<MemoryStore> {
        Arc::clone(&self.store)
    }

    /// How many epochs fit a window of `seconds`, judging by the last
    /// set-up epoch: at least 3, so that two timed epochs follow the first
    /// (untimed) one, and at most what is recorded.
    pub fn epochs_for(&self, seconds: f64, rep: &mut Report) -> usize {
        let want = (seconds / self.last_epoch_s.max(1e-3)).ceil() as usize + 1;
        let left = self.epochs_left();
        if left < 3 {
            rep.broken(format!(
                "{} {}: only {left} recorded epochs left",
                self.w.name,
                self.backend.name()
            ));
            return 0;
        }
        want.clamp(3, left)
    }
}

/// Throughput and per-epoch latency over the calmer half of a window's
/// epochs (the first epoch of the window is not timed).
pub struct Window {
    /// Training samples per wall second over the kept epochs.
    pub samples_per_s: f64,
    /// Wall milliseconds of each kept epoch.
    pub epoch_ms: Vec<f64>,
    /// Timed epochs before the calm-half filter.
    pub timed: usize,
    /// Host steal ticks over the whole window.
    pub steal: u64,
}

/// Summarise a window's epoch marks, keeping the epochs with the least
/// host steal (see `stats::calm_half`).
pub fn window(w: &TrainWorkload, e: &Epochs) -> Window {
    let all_ms: Vec<f64> =
        e.at.windows(2)
            .map(|p| p[1].duration_since(p[0]).as_secs_f64() * 1e3)
            .collect();
    let steal: Vec<u64> = e.steal.windows(2).map(|p| p[1] - p[0]).collect();
    let epoch_ms: Vec<f64> = stats::calm_half(&steal)
        .iter()
        .map(|&i| all_ms[i])
        .collect();
    let total_s = epoch_ms.iter().sum::<f64>() / 1e3;
    Window {
        samples_per_s: (epoch_ms.len() * w.n_train) as f64 / total_s,
        epoch_ms,
        timed: all_ms.len(),
        steal: steal.iter().sum(),
    }
}

/// The untraced run of a training workload: end-to-end metrics.
pub fn run(w: &TrainWorkload, seed: u64, seconds: f64, rep: &mut Report) {
    let variant = seed % VARIANTS;
    let mut setup_s = Vec::new();
    let mut prepared = None;
    for _ in 0..SETUP_REPS {
        let (s, secs) = Prepared::setup(w, ComputeBackend::PositQuire, variant, rep);
        setup_s.push(secs);
        prepared = Some(s);
    }
    let mut posit = prepared.expect("at least one set-up");
    let n = posit.epochs_for(seconds, rep);
    if n == 0 {
        return;
    }
    let posit_w = window(w, &posit.run(n, None, &|| {}, rep));
    drop(posit);

    let (mut f32s, _) = Prepared::setup(w, ComputeBackend::F32, variant, rep);
    let n = f32s.epochs_for(seconds, rep);
    if n == 0 {
        return;
    }
    let f32_w = window(w, &f32s.run(n, None, &|| {}, rep));

    for (label, win) in [("posit-quire", &posit_w), ("f32", &f32_w)] {
        println!(
            "# {} variant {variant} {label}: {} timed epochs of {} samples, host steal {} ticks, \
             kept the calmer {}",
            w.name,
            win.timed,
            w.n_train,
            win.steal,
            win.epoch_ms.len()
        );
    }
    println!(
        "# info quire/f32 throughput ratio {:.3} (posit-quire {:.2} samples/s, f32 {:.2} samples/s)",
        f32_w.samples_per_s / posit_w.samples_per_s,
        posit_w.samples_per_s,
        f32_w.samples_per_s
    );
    rep.metric("samples_per_s", posit_w.samples_per_s, "1/s");
    rep.metric("f32_samples_per_s", f32_w.samples_per_s, "1/s");
    rep.metric("latency_ms_p50", stats::median(&posit_w.epoch_ms), "ms");
    rep.metric(
        "latency_ms_p90",
        stats::quantile(&posit_w.epoch_ms, 0.9),
        "ms",
    );
    rep.metric("setup_s", stats::median(&setup_s), "s");
}

/// Print the recorded-output lines of a training workload: every data
/// variant, both backends, set-up epochs plus `epochs` more.
pub fn record(w: &TrainWorkload, epochs: [usize; 2]) {
    for variant in 0..VARIANTS {
        for (backend, extra) in [ComputeBackend::PositQuire, ComputeBackend::F32]
            .into_iter()
            .zip(epochs)
        {
            let (train, test) = w.data(variant);
            let config = w.config(backend, SETUP_EPOCHS + extra);
            let mut trainer = w.trainer(&config);
            let store = MemoryStore::new();
            let mut epoch = 0;
            trainer
                .run(
                    RunOptions::new(&train, &test, &config)
                        .resumable(&store)
                        .on_epoch(|s| {
                            let k = expected::key(w.name, variant, backend.name(), epoch);
                            println!("{k} {}", bits_text(&epoch_bits(s)));
                            epoch += 1;
                        }),
                )
                .expect("a MemoryStore checkpoint cannot fail");
        }
    }
}

/// Per-layer figures of one traced training window.
pub struct TrainTrace {
    /// Metrics, already named and with units.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Largest |step − self − children| over all steps, ms.
    pub identity_err_ms: f64,
}

/// Analyse the spans of a traced training window (see the notes in
/// `perfbench/README.md` for the step definition).
pub fn analyse(w: &TrainWorkload, children: &trace::Children, spans: &[Span]) -> TrainTrace {
    let p = w.prefix;
    let heads: Vec<&Span> = spans.iter().filter(|s| s.is_any_head()).collect();
    let n_layers = children.names.len();
    let mut fwd = vec![0u64; n_layers];
    let mut bwd = vec![0u64; n_layers];
    let mut grad = vec![0u64; n_layers];
    let (mut steps, mut step_ns, mut self_ns) = (0u64, Vec::new(), Vec::new());
    let (mut allocs, mut bytes, mut faults) = (Vec::new(), Vec::new(), Vec::new());
    let mut identity_err_ms = 0.0f64;
    for pair in heads.windows(2) {
        let (a, b) = (pair[0], pair[1]);
        if !a.is_head(true) {
            continue;
        }
        steps += 1;
        let (lo, hi) = (a.start, b.start);
        let mut children_ns = 0u64;
        for s in spans
            .iter()
            .filter(|s| s.is_layer() && s.start >= lo && s.start < hi)
        {
            children_ns += s.ns();
            match s.kind {
                Kind::Fwd { .. } => fwd[s.layer] += s.ns(),
                Kind::Bwd => bwd[s.layer] += s.ns(),
                _ => grad[s.layer] += s.ns(),
            }
        }
        let step = hi - lo;
        let own = step - children_ns;
        identity_err_ms =
            identity_err_ms.max(((own + children_ns) as f64 - step as f64).abs() / 1e6);
        step_ns.push(step as f64);
        self_ns.push(own as f64);
        allocs.push((b.mem.0 - a.mem.0) as f64);
        bytes.push((b.mem.1 - a.mem.1) as f64);
        faults.push((b.mem.2 - a.mem.2) as f64);
    }
    let per_step = |ns: u64| ns as f64 / 1e6 / steps.max(1) as f64;
    let mut m: Vec<(String, f64, &'static str)> = Vec::new();
    let (mut other_fwd, mut other_bwd) = (0u64, 0u64);
    for i in 0..n_layers {
        if children.has_params[i] {
            let name = &children.names[i];
            m.push((format!("{p}.nn.{name}.fwd_ms"), per_step(fwd[i]), "ms"));
            m.push((format!("{p}.nn.{name}.bwd_ms"), per_step(bwd[i]), "ms"));
            m.push((
                format!("{p}.nn.{name}.grad_round_ms"),
                per_step(grad[i]),
                "ms",
            ));
        } else {
            other_fwd += fwd[i];
            other_bwd += bwd[i] + grad[i];
        }
    }
    m.push((format!("{p}.nn.other.fwd_ms"), per_step(other_fwd), "ms"));
    m.push((format!("{p}.nn.other.bwd_ms"), per_step(other_bwd), "ms"));
    m.push((
        format!("{p}.train.step_ms"),
        stats::mean(&step_ns) / 1e6,
        "ms",
    ));
    m.push((
        format!("{p}.train.self_ms"),
        stats::mean(&self_ns) / 1e6,
        "ms",
    ));

    // Eval: from the first eval-mode forward after training to the epoch
    // mark. Checkpoint: every store call after an epoch mark, up to the
    // next training step.
    let (mut eval_ms, mut ckpt_ms, mut ckpt_bytes) = (Vec::new(), Vec::new(), Vec::new());
    let mut eval_start = None;
    let mut in_ckpt = false;
    for s in spans {
        match s.kind {
            Kind::Fwd { train: false } if s.layer == 0 && eval_start.is_none() => {
                eval_start = Some(s.start)
            }
            Kind::Fwd { train: true } if s.layer == 0 => in_ckpt = false,
            Kind::Epoch => {
                if let Some(t) = eval_start.take() {
                    eval_ms.push((s.start - t) as f64 / 1e6);
                }
                in_ckpt = true;
                ckpt_ms.push(0.0);
                ckpt_bytes.push(0.0);
            }
            Kind::StoreSet { bytes } if in_ckpt => {
                *ckpt_ms.last_mut().expect("mark opened") += s.ns() as f64 / 1e6;
                *ckpt_bytes.last_mut().expect("mark opened") += bytes as f64;
            }
            Kind::StoreOther if in_ckpt => {
                *ckpt_ms.last_mut().expect("mark opened") += s.ns() as f64 / 1e6;
            }
            _ => {}
        }
    }
    m.push((format!("{p}.train.eval_ms"), stats::mean(&eval_ms), "ms"));
    m.push((
        format!("{p}.store.checkpoint_write_ms"),
        stats::mean(&ckpt_ms),
        "ms",
    ));
    m.push((
        format!("{p}.store.bytes_written"),
        stats::median(&ckpt_bytes),
        "bytes",
    ));
    m.push((
        format!("{p}.mem.allocs_per_step"),
        stats::median(&allocs),
        "count",
    ));
    m.push((
        format!("{p}.mem.alloc_bytes_per_step"),
        stats::median(&bytes),
        "bytes",
    ));
    m.push((
        format!("{p}.mem.minor_faults_per_step"),
        stats::median(&faults),
        "count",
    ));
    TrainTrace {
        metrics: m,
        identity_err_ms,
    }
}

/// Median wall milliseconds of `DataLoader::epoch` on the workload's
/// training set (the batch gather the trainer runs before each epoch).
pub fn epoch_build_ms(train: &Dataset) -> f64 {
    let mut loader = DataLoader::new(train, BATCH, true, 7);
    let times: Vec<f64> = (0..9)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(loader.epoch());
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    stats::median(&times)
}

/// The traced run of a training workload: set up once, run an untraced
/// window (the overhead baseline), wrap every child and the store, run a
/// traced window with `posit-obs` recording on, and report per-layer
/// metrics.
pub fn traced(w: &TrainWorkload, seed: u64, seconds: f64, rep: &mut Report) {
    let variant = seed % VARIANTS;
    let p = w.prefix;
    let (mut s, _) = Prepared::setup(w, ComputeBackend::PositQuire, variant, rep);
    let n = s.epochs_for(seconds, rep).min(s.epochs_left() / 2);
    if n < 3 {
        rep.broken(format!(
            "{}: too few recorded epochs for a traced run",
            w.name
        ));
        return;
    }
    let base = window(w, &s.run(n, None, &|| {}, rep));

    let rec = Recorder::new();
    let children = trace::wrap(s.trainer.net_mut(), &rec);
    posit_dnn::obs::Registry::enable(true);
    posit_dnn::obs::Registry::global().reset();
    let store = s.store();
    let timed = TimedStore::new(&*store, &rec);
    let traced_e = s.run(n, Some(&timed), &|| rec.mark_epoch(), rep);
    let snap = posit_dnn::obs::Registry::global().snapshot();
    posit_dnn::obs::Registry::enable(false);
    let traced_w = window(w, &traced_e);
    let spans = rec.drain();
    let t = analyse(w, &children, &spans);
    for (name, v, unit) in t.metrics {
        rep.metric(name, v, unit);
    }
    if t.identity_err_ms > 1e-6 {
        rep.broken(format!(
            "{}: step != self + children by {} ms",
            w.name, t.identity_err_ms
        ));
    }
    rep.metric(
        format!("{p}.data.epoch_build_ms"),
        epoch_build_ms(&s.train),
        "ms",
    );
    let overhead = (base.samples_per_s / traced_w.samples_per_s - 1.0) * 100.0;
    println!(
        "# {}: untraced {:.2} samples/s, traced {:.2} samples/s, tracing overhead {overhead:.2}%",
        w.name, base.samples_per_s, traced_w.samples_per_s
    );
    rep.metric(format!("{p}.trace.overhead_pct"), overhead, "%");
    crate::obs_ratios(p, &snap, "encode", rep);
}
