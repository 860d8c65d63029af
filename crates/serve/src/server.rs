//! The inference server: submit/poll front end, dynamic batcher, posit
//! backend execution.

use crate::ServeError;
use posit::Rounding;
use posit_nn::{checkpoint, Layer, Sequential};
use posit_obs::Histogram;
use posit_store::Store;
use posit_tensor::Tensor;
use posit_train::{InputQuantizer, Phase, QuantControl, QuantSpec};
use std::collections::{HashMap, VecDeque};
use std::time::Instant;

/// Batcher knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Flush a batch as soon as this many requests are queued (≥ 1).
    pub max_batch: usize,
    /// Flush a partial batch once its oldest request has waited this many
    /// virtual-time ticks (0 = flush on the next tick).
    pub max_wait_ticks: u64,
    /// Admission bound (≥ 1): [`InferenceServer::submit`] sheds the
    /// request with [`Rejected::Overloaded`] when this many are already
    /// queued, instead of letting the backlog grow without limit.
    pub max_queue: usize,
    /// Per-request deadline: a request still queued after waiting *more*
    /// than this many ticks is shed with [`Rejected::DeadlineExceeded`]
    /// (swept at the top of each tick, before batch formation). `None`
    /// disables deadlines.
    pub deadline_ticks: Option<u64>,
    /// Service-rate cap: at most this many batches execute per tick, and
    /// full batches no longer execute eagerly inside `submit` — pressure
    /// builds in the queue, making overload and deadline behavior
    /// reachable deterministically. `None` (the default) keeps the
    /// unlimited eager batcher.
    pub batches_per_tick: Option<u64>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            max_batch: 8,
            max_wait_ticks: 4,
            max_queue: 1024,
            deadline_ticks: None,
            batches_per_tick: None,
        }
    }
}

/// Why the server refused or abandoned a request — deterministic load
/// shedding, never a panic and never an unbounded queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rejected {
    /// The admission queue already held `max_queue` requests at submit
    /// time; the request was never accepted.
    Overloaded,
    /// The request waited longer than `deadline_ticks` in the queue
    /// before a batch could take it.
    DeadlineExceeded,
}

impl std::fmt::Display for Rejected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Rejected::Overloaded => write!(f, "overloaded (admission queue full)"),
            Rejected::DeadlineExceeded => write!(f, "deadline exceeded in queue"),
        }
    }
}

/// The model a server executes: a network plus the quantization harness it
/// was trained under (or none, for an FP32 model).
pub struct ServedModel {
    net: Sequential,
    control: Option<QuantControl>,
    spec: Option<QuantSpec>,
}

impl ServedModel {
    /// Serve a plain FP32 network.
    pub fn fp32(net: Sequential) -> ServedModel {
        ServedModel {
            net,
            control: None,
            spec: None,
        }
    }

    /// Serve a quantized network: `control` is the phase switch shared by
    /// its `Quantized` wrappers (the server flips it to the posit phase),
    /// `spec` the quant spec the net was built with (the server reuses its
    /// input-edge format and scale policy).
    pub fn quantized(net: Sequential, control: QuantControl, spec: QuantSpec) -> ServedModel {
        ServedModel {
            net,
            control: Some(control),
            spec: Some(spec),
        }
    }

    /// Restore parameters and quantization state from a checkpoint under
    /// `prefix` — the only model-loading path the server has, and it goes
    /// through the `checkpoint::read` façade (v1 blob or v2 store, sniffed
    /// there). A v2 checkpoint of a quantized net carries the frozen Eq. 2
    /// scales, so a restored server quantizes exactly like the trainer did.
    pub fn restore(mut self, store: &dyn Store, prefix: &str) -> Result<ServedModel, ServeError> {
        checkpoint::read(&mut self.net, checkpoint::Source::Store { store, prefix })?;
        Ok(self)
    }
}

/// Opaque handle returned by [`InferenceServer::submit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RequestId(u64);

/// A completed request.
#[derive(Debug, Clone)]
pub struct InferenceReply {
    /// The model's output row for this sample (decoded to f32).
    pub logits: Vec<f32>,
    /// Virtual-time ticks spent queued before the batch ran.
    pub queue_ticks: u64,
    /// Size of the batch this request rode in.
    pub batch_size: usize,
    /// This request's per-sample share of the batch's wall-clock compute.
    pub compute_ns: u64,
}

struct Pending {
    id: u64,
    row: Vec<f32>,
    arrival: u64,
}

/// Aggregate counters and latency quantiles, snapshot by
/// [`InferenceServer::stats`].
///
/// Queue latency is measured in virtual-time ticks (deterministic);
/// compute latency and throughput come from wall-clock timing of the
/// batch forwards, so they vary run to run while every logit stays
/// bit-identical.
#[derive(Debug, Clone)]
pub struct ServeStats {
    /// Requests accepted by `submit`.
    pub submitted: u64,
    /// Requests whose batch has executed.
    pub completed: u64,
    /// Batches executed.
    pub batches: u64,
    /// Mean rows per executed batch.
    pub mean_batch: f64,
    /// Median queueing delay in ticks.
    pub queue_p50_ticks: u64,
    /// 99th-percentile queueing delay in ticks.
    pub queue_p99_ticks: u64,
    /// Median per-sample compute time.
    pub compute_p50_ns: u64,
    /// 99th-percentile per-sample compute time.
    pub compute_p99_ns: u64,
    /// Total wall-clock nanoseconds spent in batch forwards.
    pub total_compute_ns: u64,
    /// Completed samples per second of compute time.
    pub throughput_sps: f64,
    /// Requests queued right now (not yet executed).
    pub queue_depth: usize,
    /// Highest queue depth ever reached.
    pub queue_depth_peak: usize,
    /// Median rows per executed batch.
    pub batch_p50: u64,
    /// 99th-percentile rows per executed batch.
    pub batch_p99: u64,
    /// Batches that ran completely full (`max_batch` rows).
    pub full_batches: u64,
    /// Requests shed at submit time because the admission queue was full.
    pub shed_overload: u64,
    /// Requests shed in the queue because their deadline passed.
    pub shed_deadline: u64,
}

/// An in-process inference server with a deterministic dynamic batcher.
///
/// Requests enter one sample at a time through [`submit`] and are
/// coalesced FIFO into batches of up to `max_batch` rows; a partial batch
/// flushes when its oldest request has waited `max_wait_ticks` ticks of
/// the virtual clock ([`tick`]). Batches execute as one `[n, …]` forward
/// on the served network — under the posit-quire backend that is one GEMM
/// per layer, its weight operand decoded once per batch, threaded by
/// `posit_tensor::workers`.
///
/// **Determinism contract:** for a model with frozen quantization state
/// (calibrated or checkpoint-restored) and a deterministic rounding mode,
/// every reply's logits are a function of the sample alone — bit-identical
/// whatever batch the sample rode in, whatever the submit/tick
/// interleaving, and whatever `POSIT_TENSOR_THREADS` is. The batcher
/// quantizes the input edge per sample at submit time (frozen
/// [`InputQuantizer`] exponent), the quire GEMM is exact per output
/// element, and every remaining eval-mode layer is row-separable.
/// Stochastic rounding would break the contract (one rounding stream
/// threaded across the rows of a batch), so [`InferenceServer::new`]
/// rejects it.
///
/// [`submit`]: InferenceServer::submit
/// [`tick`]: InferenceServer::tick
pub struct InferenceServer {
    net: Sequential,
    control: Option<QuantControl>,
    spec: Option<QuantSpec>,
    input_q: InputQuantizer,
    input_shape: Vec<usize>,
    cfg: ServeConfig,
    now: u64,
    next_id: u64,
    pending: VecDeque<Pending>,
    done: HashMap<u64, Result<InferenceReply, Rejected>>,
    queue_hist: Histogram,
    compute_hist: Histogram,
    batch_hist: Histogram,
    queue_depth_peak: usize,
    full_batches: u64,
    submitted: u64,
    completed: u64,
    batches: u64,
    total_compute_ns: u64,
    shed_overload: u64,
    shed_deadline: u64,
}

/// Cached handles for the server's global-registry metrics (published only
/// when `posit_obs` recording is on; the [`ServeStats`] fields are tracked
/// unconditionally — they are deterministic local state).
struct ServeObs {
    queue_depth: posit_obs::Gauge,
    batch_rows: posit_obs::HistogramHandle,
    requests: posit_obs::Counter,
    batches: posit_obs::Counter,
    shed_overload: posit_obs::Counter,
    shed_deadline: posit_obs::Counter,
}

fn serve_obs() -> &'static ServeObs {
    static OBS: std::sync::OnceLock<ServeObs> = std::sync::OnceLock::new();
    OBS.get_or_init(|| {
        let reg = posit_obs::Registry::global();
        ServeObs {
            queue_depth: reg.gauge("serve.queue_depth"),
            batch_rows: reg.histogram("serve.batch_rows"),
            requests: reg.counter("serve.requests"),
            batches: reg.counter("serve.batches"),
            shed_overload: reg.counter("serve.shed.overload"),
            shed_deadline: reg.counter("serve.shed.deadline"),
        }
    })
}

impl InferenceServer {
    /// Build a server for `model` on samples of shape `input_shape` (one
    /// sample, no batch dimension — e.g. `[3, 16, 16]` for RGB 16×16).
    ///
    /// Errors: `max_batch` of 0, or a quantized model with stochastic
    /// rounding (not row-separable; see the type-level docs).
    pub fn new(
        model: ServedModel,
        input_shape: &[usize],
        cfg: ServeConfig,
    ) -> Result<InferenceServer, ServeError> {
        if cfg.max_batch == 0 {
            return Err(ServeError::Config("max_batch must be at least 1".into()));
        }
        if cfg.max_queue == 0 {
            return Err(ServeError::Config("max_queue must be at least 1".into()));
        }
        if cfg.batches_per_tick == Some(0) {
            return Err(ServeError::Config(
                "batches_per_tick of 0 would never serve anything".into(),
            ));
        }
        if let Some(spec) = &model.spec {
            if spec.rounding == Rounding::Stochastic {
                return Err(ServeError::Config(
                    "stochastic rounding is not row-separable: batched logits would \
                     depend on batch composition"
                        .into(),
                ));
            }
        }
        if let Some(control) = &model.control {
            control.set_phase(Phase::Posit);
        }
        Ok(InferenceServer {
            net: model.net,
            control: model.control,
            spec: model.spec,
            input_q: InputQuantizer::new(),
            input_shape: input_shape.to_vec(),
            cfg,
            now: 0,
            next_id: 0,
            pending: VecDeque::new(),
            done: HashMap::new(),
            queue_hist: Histogram::new(),
            compute_hist: Histogram::new(),
            batch_hist: Histogram::new(),
            queue_depth_peak: 0,
            full_batches: 0,
            submitted: 0,
            completed: 0,
            batches: 0,
            total_compute_ns: 0,
            shed_overload: 0,
            shed_deadline: 0,
        })
    }

    /// [`InferenceServer::new`] with the model restored from a checkpoint
    /// first (see [`ServedModel::restore`]).
    pub fn from_store(
        model: ServedModel,
        store: &dyn Store,
        prefix: &str,
        input_shape: &[usize],
        cfg: ServeConfig,
    ) -> Result<InferenceServer, ServeError> {
        InferenceServer::new(model.restore(store, prefix)?, input_shape, cfg)
    }

    /// Current virtual time.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Requests queued but not yet executed.
    pub fn queued(&self) -> usize {
        self.pending.len()
    }

    /// Accept one sample. The sample must be an f32 tensor of the server's
    /// input shape ([`ServeError::Storage`] reports a packed posit tensor
    /// without panicking — the `Tensor::try_data` boundary). The input
    /// quantization edge runs here, per sample, so a row's bits never
    /// depend on its batch. A full batch flushes immediately unless
    /// `batches_per_tick` rate-limits service to the clock.
    ///
    /// When the admission queue already holds `max_queue` requests, the
    /// sample is shed deterministically:
    /// `Err(ServeError::Rejected(Rejected::Overloaded))`, no id assigned,
    /// no work done.
    pub fn submit(&mut self, sample: &Tensor) -> Result<RequestId, ServeError> {
        if self.pending.len() >= self.cfg.max_queue {
            self.shed_overload += 1;
            if posit_obs::enabled() {
                serve_obs().shed_overload.incr();
            }
            return Err(ServeError::Rejected(Rejected::Overloaded));
        }
        if sample.shape() != &self.input_shape[..] {
            return Err(ServeError::Shape {
                expected: self.input_shape.clone(),
                got: sample.shape().to_vec(),
            });
        }
        let data = sample.try_data()?;
        let mut row_shape = Vec::with_capacity(self.input_shape.len() + 1);
        row_shape.push(1);
        row_shape.extend_from_slice(&self.input_shape);
        let mut row = Tensor::from_vec(data.to_vec(), &row_shape);
        if let (Some(spec), Some(control)) = (&self.spec, &self.control) {
            self.input_q.apply(&mut row, spec, control.phase());
        }
        let id = self.next_id;
        self.next_id += 1;
        self.submitted += 1;
        self.pending.push_back(Pending {
            id,
            row: row.into_vec(),
            arrival: self.now,
        });
        self.queue_depth_peak = self.queue_depth_peak.max(self.pending.len());
        if posit_obs::enabled() {
            let o = serve_obs();
            o.requests.incr();
            o.queue_depth.set(self.pending.len() as i64);
        }
        if self.cfg.batches_per_tick.is_none() {
            while self.pending.len() >= self.cfg.max_batch {
                self.run_batch(self.cfg.max_batch)?;
            }
        }
        Ok(RequestId(id))
    }

    /// Shed every queued request whose wait exceeds `deadline_ticks`.
    /// The queue is FIFO, so the front always holds the longest wait.
    fn expire_deadlines(&mut self) {
        let Some(deadline) = self.cfg.deadline_ticks else {
            return;
        };
        let mut expired = 0u64;
        while self
            .pending
            .front()
            .is_some_and(|p| self.now - p.arrival > deadline)
        {
            let p = self.pending.pop_front().expect("front checked");
            self.done.insert(p.id, Err(Rejected::DeadlineExceeded));
            expired += 1;
        }
        if expired > 0 {
            self.shed_deadline += expired;
            if posit_obs::enabled() {
                let o = serve_obs();
                o.shed_deadline.add(expired);
                o.queue_depth.set(self.pending.len() as i64);
            }
        }
    }

    /// One batch's worth of work is waiting: either a full batch, or a
    /// partial one whose oldest request has hit `max_wait_ticks`.
    fn batch_ready(&self) -> bool {
        self.pending.len() >= self.cfg.max_batch
            || self
                .pending
                .front()
                .is_some_and(|p| self.now - p.arrival >= self.cfg.max_wait_ticks)
    }

    /// Advance virtual time one tick: sweep deadline-missed requests out
    /// of the queue, then flush ready batches — all of them, or at most
    /// `batches_per_tick` under a service-rate cap. Returns the number of
    /// requests completed by this tick.
    pub fn tick(&mut self) -> Result<usize, ServeError> {
        self.now += 1;
        let before = self.completed;
        self.expire_deadlines();
        let mut budget = self.cfg.batches_per_tick.unwrap_or(u64::MAX);
        while budget > 0 && self.batch_ready() {
            let n = self.pending.len().min(self.cfg.max_batch);
            self.run_batch(n)?;
            budget -= 1;
        }
        Ok((self.completed - before) as usize)
    }

    /// Execute everything still queued (shutdown path), after shedding
    /// requests already past their deadline — shutdown does not grant
    /// extra time. Returns the number of requests completed.
    pub fn flush_all(&mut self) -> Result<usize, ServeError> {
        let before = self.completed;
        self.expire_deadlines();
        while !self.pending.is_empty() {
            let n = self.pending.len().min(self.cfg.max_batch);
            self.run_batch(n)?;
        }
        Ok((self.completed - before) as usize)
    }

    /// Take the outcome for `id`, if decided: the reply once its batch
    /// has executed, or the typed [`Rejected`] if the request was shed in
    /// the queue. Each outcome is handed out once.
    pub fn poll(&mut self, id: RequestId) -> Option<Result<InferenceReply, Rejected>> {
        self.done.remove(&id.0)
    }

    /// Aggregate stats snapshot.
    pub fn stats(&self) -> ServeStats {
        ServeStats {
            submitted: self.submitted,
            completed: self.completed,
            batches: self.batches,
            mean_batch: if self.batches == 0 {
                0.0
            } else {
                self.completed as f64 / self.batches as f64
            },
            queue_p50_ticks: self.queue_hist.quantile(0.5),
            queue_p99_ticks: self.queue_hist.quantile(0.99),
            compute_p50_ns: self.compute_hist.quantile(0.5),
            compute_p99_ns: self.compute_hist.quantile(0.99),
            total_compute_ns: self.total_compute_ns,
            throughput_sps: if self.total_compute_ns == 0 {
                0.0
            } else {
                self.completed as f64 / (self.total_compute_ns as f64 * 1e-9)
            },
            queue_depth: self.pending.len(),
            queue_depth_peak: self.queue_depth_peak,
            batch_p50: self.batch_hist.quantile(0.5),
            batch_p99: self.batch_hist.quantile(0.99),
            full_batches: self.full_batches,
            shed_overload: self.shed_overload,
            shed_deadline: self.shed_deadline,
        }
    }

    /// Stack the first `n` queued rows into one `[n, …]` tensor, run the
    /// eval forward, and slice the output back into per-request replies.
    fn run_batch(&mut self, n: usize) -> Result<(), ServeError> {
        debug_assert!(n >= 1 && n <= self.pending.len());
        let batch: Vec<Pending> = self.pending.drain(..n).collect();
        let row_len: usize = self.input_shape.iter().product();
        let mut data = Vec::with_capacity(n * row_len);
        for p in &batch {
            data.extend_from_slice(&p.row);
        }
        let mut shape = Vec::with_capacity(self.input_shape.len() + 1);
        shape.push(n);
        shape.extend_from_slice(&self.input_shape);
        let x = Tensor::from_vec(data, &shape);
        let t0 = Instant::now();
        let y = self.net.forward(&x, false).into_f32();
        let elapsed = t0.elapsed().as_nanos() as u64;
        let out = y.try_data()?;
        debug_assert_eq!(out.len() % n, 0, "output rows must divide evenly");
        let classes = out.len() / n;
        let per_sample_ns = (elapsed / n as u64).max(1);
        for (i, p) in batch.into_iter().enumerate() {
            let queue_ticks = self.now - p.arrival;
            self.queue_hist.record(queue_ticks);
            self.compute_hist.record(per_sample_ns);
            self.done.insert(
                p.id,
                Ok(InferenceReply {
                    logits: out[i * classes..(i + 1) * classes].to_vec(),
                    queue_ticks,
                    batch_size: n,
                    compute_ns: per_sample_ns,
                }),
            );
            self.completed += 1;
        }
        self.batches += 1;
        self.total_compute_ns += elapsed;
        self.batch_hist.record(n as u64);
        if n == self.cfg.max_batch {
            self.full_batches += 1;
        }
        if posit_obs::enabled() {
            let o = serve_obs();
            o.batches.incr();
            o.batch_rows.record(n as u64);
            o.queue_depth.set(self.pending.len() as i64);
        }
        Ok(())
    }
}
