//! The serving workload: the train-lenet8 model after set-up, written as a
//! v2 checkpoint, restored through `InferenceServer::from_store`, and
//! driven by a seeded open-loop Poisson schedule followed by a saturated
//! closed loop.

use crate::expected;
use crate::stats::{self, Report};
use crate::trace::{self, Kind, Recorder, Span, TimedStore};
use crate::train::{self, LENET8, SIDE};
use posit_dnn::nn::checkpoint;
use posit_dnn::serve::{InferenceServer, RequestId, ServeConfig, ServedModel};
use posit_dnn::store::{MemoryStore, Store};
use posit_dnn::tensor::rng::Prng;
use posit_dnn::tensor::Tensor;
use posit_dnn::train::{ComputeBackend, QuantBuilder, QuantSpec};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

/// Workload name.
pub const NAME: &str = "serve-lenet8";
/// Rows per full batch; also the closed loop's client count.
pub const MAX_BATCH: usize = 16;
/// Open-loop arrival rate, requests per second: about a quarter of the
/// posit server's closed-loop capacity on the reference machine (see
/// `perfbench/README.md`). Fixed, so a faster server sees the same load.
pub const RATE_RPS: f64 = 300.0;
/// Fewest open-loop requests: enough to leave at least ten beyond p99.
pub const MIN_REQUESTS: usize = 1100;
/// Distinct request images, drawn from the test split.
pub const POOL: usize = 64;
/// Share of `--seconds` given to each of the three serving phases: the
/// open loop, the posit closed loop and the f32 closed loop.
const PHASE_SHARE: f64 = 0.5;
/// Alternating slices of the posit and f32 closed loops.
const CLOSED_SLICES: usize = 8;
/// Checkpoint prefix of the served model.
const PREFIX: &str = "served";

/// The batcher: wait ticks are wall milliseconds (the loops tick once
/// per elapsed millisecond).
pub const CONFIG: ServeConfig = ServeConfig {
    max_batch: MAX_BATCH,
    max_wait_ticks: 2,
    max_queue: 4096,
    deadline_ticks: None,
    batches_per_tick: None,
};

/// The request images of data variant `variant`, one `[3, 16, 16]`
/// tensor each.
pub fn pool(variant: u64) -> Vec<Tensor> {
    let (_, test) = LENET8.data(variant);
    (0..POOL)
        .map(|i| test.gather(&[i]).0.reshape(&[3, SIDE, SIDE]))
        .collect()
}

/// Set-up: train-lenet8's set-up epochs, then its v2 checkpoint in a
/// fresh store.
pub fn model_store(variant: u64, rep: &mut Report) -> MemoryStore {
    let (s, _) = train::Prepared::setup(&LENET8, ComputeBackend::PositQuire, variant, rep);
    let store = MemoryStore::new();
    checkpoint::write(
        s.trainer.net(),
        checkpoint::Sink::Store {
            store: &store,
            prefix: PREFIX,
        },
        checkpoint::Version::V2,
    )
    .expect("a MemoryStore checkpoint cannot fail");
    store
}

/// A server on `backend` restored from `store`; with a recorder, every
/// child of the served network is wrapped first.
pub fn server(
    store: &dyn Store,
    backend: ComputeBackend,
    rec: Option<&Arc<Recorder>>,
) -> (InferenceServer, Option<trace::Children>) {
    let spec = QuantSpec::cifar_paper().with_backend(backend);
    let mut qb = QuantBuilder::new(spec.clone());
    let control = qb.control();
    let mut net = posit_dnn::models::lenet(&mut qb, 3, SIDE, 10, &mut Prng::seed(1));
    let children = rec.map(|r| trace::wrap(&mut net, r));
    let srv = InferenceServer::from_store(
        ServedModel::quantized(net, control, spec),
        store,
        PREFIX,
        &[3, SIDE, SIDE],
        CONFIG,
    )
    .expect("the checkpoint was just written");
    (srv, children)
}

/// Checks each reply's logits against the recorded digest of its image.
pub struct Checker {
    variant: u64,
    backend: &'static str,
    /// Requests sent, succeeded, failed.
    pub sent: u64,
    /// Requests answered with the recorded logits.
    pub ok: u64,
    /// Requests refused, or answered with other logits.
    pub failed: u64,
}

impl Checker {
    /// A checker for one phase.
    pub fn new(variant: u64, backend: ComputeBackend) -> Checker {
        Checker {
            variant,
            backend: backend.name(),
            sent: 0,
            ok: 0,
            failed: 0,
        }
    }

    fn reply(&mut self, image: usize, logits: &[f32]) {
        let key = expected::key(NAME, self.variant, self.backend, image);
        let got = format!("{:016x}", stats::digest(logits));
        if expected::lookup(&key) == Some(got.as_str()) {
            self.ok += 1;
        } else {
            println!("# mismatch {key}: got {got}");
            self.failed += 1;
        }
    }

    /// Add this phase's tally to the report and print it.
    pub fn settle(&self, phase: &str, rep: &mut Report) {
        println!(
            "# {phase}: sent {} succeeded {} failed {}",
            self.sent, self.ok, self.failed
        );
        rep.attempted += self.sent;
        rep.failed += self.sent - self.ok;
    }
}

/// Sub-window length for the calm-half filter of the open loop, ms.
const OPEN_WINDOW_MS: f64 = 1000.0;
/// Sub-window length for the calm-half filter of a closed loop, s.
const CLOSED_WINDOW_S: f64 = 0.5;

/// What an open-loop phase measured.
pub struct OpenLoop {
    /// Due time and due-to-pollable latency of each request, ms (latency
    /// infinite when refused).
    pub requests: Vec<(f64, f64)>,
    /// Host steal ticks at the start of each `OPEN_WINDOW_MS` of the
    /// loop, and once at its end.
    pub steal: Vec<u64>,
    /// How far each submission ran behind its due time, ms.
    pub lateness_ms: Vec<f64>,
    /// Start and end of each successful submit, ns on the recorder's
    /// clock (traced runs only).
    pub submits: Vec<(u64, u64)>,
}

fn unit_interval(rng: &mut Prng) -> f64 {
    ((rng.word() >> 11) as f64 + 1.0) / (1u64 << 53) as f64
}

/// Drive `n` requests at `RATE_RPS` Poisson arrivals from `seed`.
pub fn open_loop(
    srv: &mut InferenceServer,
    images: &[Tensor],
    n: usize,
    seed: u64,
    check: &mut Checker,
    rec: Option<&Recorder>,
) -> OpenLoop {
    let mut rng = Prng::seed(seed ^ 0x09E4_100B);
    let mut t = 0.0f64;
    let schedule: Vec<(f64, usize)> = (0..n)
        .map(|_| {
            t += -unit_interval(&mut rng).ln() / RATE_RPS * 1e3;
            (t, rng.below(POOL))
        })
        .collect();
    let mut out = OpenLoop {
        requests: Vec::with_capacity(n),
        steal: vec![stats::steal_ticks()],
        lateness_ms: Vec::with_capacity(n),
        submits: Vec::new(),
    };
    let mut pending: VecDeque<(RequestId, f64, usize)> = VecDeque::new();
    let start = Instant::now();
    let ms = || start.elapsed().as_secs_f64() * 1e3;
    let mut next = 0;
    let mut ticks = 0u64;
    while next < n || !pending.is_empty() {
        let mut busy = false;
        if ms() >= out.steal.len() as f64 * OPEN_WINDOW_MS {
            out.steal.push(stats::steal_ticks());
        }
        while next < n && schedule[next].0 <= ms() {
            let (due, image) = schedule[next];
            out.lateness_ms.push(ms() - due);
            check.sent += 1;
            let t0 = rec.map(Recorder::now);
            match srv.submit(&images[image]) {
                Ok(id) => {
                    if let (Some(r), Some(t0)) = (rec, t0) {
                        out.submits.push((t0, r.now()));
                    }
                    pending.push_back((id, due, image));
                }
                Err(e) => {
                    println!("# request {next} refused: {e}");
                    check.failed += 1;
                    out.requests.push((due, f64::INFINITY));
                }
            }
            next += 1;
            busy = true;
        }
        let now_tick = start.elapsed().as_millis() as u64;
        while ticks < now_tick {
            srv.tick().expect("a restored server executes its batches");
            ticks += 1;
            busy = true;
        }
        pending.retain(|&(id, due, image)| match srv.poll(id) {
            None => true,
            Some(Ok(reply)) => {
                out.requests.push((due, ms() - due));
                check.reply(image, &reply.logits);
                false
            }
            Some(Err(_)) => {
                check.failed += 1;
                out.requests.push((due, f64::INFINITY));
                false
            }
        });
        if !busy {
            std::hint::spin_loop();
        }
    }
    out.steal.push(stats::steal_ticks());
    out
}

impl OpenLoop {
    /// Latencies of the requests due in the calmer half of the loop's
    /// sub-windows (see `stats::calm_half`), and the steal over the loop.
    pub fn calm_latency_ms(&self) -> (Vec<f64>, u64) {
        let steal: Vec<u64> = self.steal.windows(2).map(|p| p[1] - p[0]).collect();
        let mut keep = vec![false; steal.len()];
        for i in stats::calm_half(&steal) {
            keep[i] = true;
        }
        let last = steal.len() - 1;
        let lat = self
            .requests
            .iter()
            .filter(|&&(due, _)| keep[((due / OPEN_WINDOW_MS) as usize).min(last)])
            .map(|&(_, l)| l)
            .collect();
        (lat, steal.iter().sum())
    }
}

/// Saturate the server with `MAX_BATCH` closed-loop clients for
/// `seconds`: each round submits one request per client (the last submit
/// fills the batch, which runs at once) and polls every reply. Returns
/// the completed requests, seconds and host steal ticks of each
/// `CLOSED_WINDOW_S` sub-window.
pub fn closed_loop(
    srv: &mut InferenceServer,
    images: &[Tensor],
    seconds: f64,
    seed: u64,
    check: &mut Checker,
) -> Vec<(u64, f64, u64)> {
    let mut rng = Prng::seed(seed ^ 0x00C1_05ED);
    let start = Instant::now();
    // (completed, seconds, steal ticks) of each sub-window.
    let mut chunks: Vec<(u64, f64, u64)> = Vec::new();
    let mut chunk = (Instant::now(), 0u64, stats::steal_ticks());
    let mut ids = Vec::with_capacity(MAX_BATCH);
    while start.elapsed().as_secs_f64() < seconds {
        let secs = chunk.0.elapsed().as_secs_f64();
        if secs >= CLOSED_WINDOW_S {
            let steal = stats::steal_ticks();
            chunks.push((chunk.1, secs, steal - chunk.2));
            chunk = (Instant::now(), 0, steal);
        }
        for _ in 0..MAX_BATCH {
            let image = rng.below(POOL);
            check.sent += 1;
            let id = srv.submit(&images[image]).expect("the queue holds a batch");
            ids.push((id, image));
        }
        for (id, image) in ids.drain(..) {
            match srv.poll(id) {
                Some(Ok(reply)) => {
                    check.reply(image, &reply.logits);
                    chunk.1 += 1;
                }
                _ => check.failed += 1,
            }
        }
    }
    chunks.push((
        chunk.1,
        chunk.0.elapsed().as_secs_f64(),
        stats::steal_ticks() - chunk.2,
    ));
    chunks
}

/// Completed requests per second over the calmer half of closed-loop
/// sub-windows (see `stats::calm_half`).
pub fn calm_rate(chunks: &[(u64, f64, u64)]) -> f64 {
    let steal: Vec<u64> = chunks.iter().map(|c| c.2).collect();
    let (done, secs) = stats::calm_half(&steal)
        .iter()
        .fold((0u64, 0.0f64), |(d, t), &i| {
            (d + chunks[i].0, t + chunks[i].1)
        });
    done as f64 / secs
}

/// Two untimed full batches, so lazy set-up and caches settle.
fn warm(srv: &mut InferenceServer, images: &[Tensor]) {
    for _ in 0..2 {
        let ids: Vec<RequestId> = (0..MAX_BATCH)
            .map(|i| srv.submit(&images[i % POOL]).expect("warm-up submit"))
            .collect();
        for id in ids {
            srv.poll(id);
        }
    }
}

fn requests(seconds: f64) -> usize {
    ((RATE_RPS * seconds * PHASE_SHARE) as usize).max(MIN_REQUESTS)
}

/// The untraced run: end-to-end metrics.
pub fn run(seed: u64, seconds: f64, rep: &mut Report) {
    let variant = seed % train::VARIANTS;
    let images = pool(variant);
    let mut setup_s = Vec::new();
    let mut ready = None;
    for _ in 0..train::SETUP_REPS {
        let t0 = Instant::now();
        let store = model_store(variant, rep);
        let (srv, _) = server(&store, ComputeBackend::PositQuire, None);
        setup_s.push(t0.elapsed().as_secs_f64());
        ready = Some((store, srv));
    }
    let (store, mut srv) = ready.expect("at least one set-up");
    warm(&mut srv, &images);

    let mut open = Checker::new(variant, ComputeBackend::PositQuire);
    let o = open_loop(&mut srv, &images, requests(seconds), seed, &mut open, None);
    open.settle("open loop (posit-quire)", rep);
    let st = srv.stats();
    println!(
        "# open loop at {RATE_RPS} req/s: {} batches, mean {:.2} rows, occupancy {:.3}, \
         full batches {}, generator lateness p99 {:.3} ms",
        st.batches,
        st.mean_batch,
        st.mean_batch / MAX_BATCH as f64,
        st.full_batches,
        stats::quantile(&o.lateness_ms, 0.99)
    );

    // The posit and f32 closed loops alternate in slices, so both sample
    // the same stretch of the host's drift.
    let (mut f32_srv, _) = server(&store, ComputeBackend::F32, None);
    warm(&mut f32_srv, &images);
    let mut closed = Checker::new(variant, ComputeBackend::PositQuire);
    let mut f32c = Checker::new(variant, ComputeBackend::F32);
    let (mut posit_chunks, mut f32_chunks) = (Vec::new(), Vec::new());
    let slice_s = seconds * PHASE_SHARE / CLOSED_SLICES as f64;
    for slice in 0..CLOSED_SLICES as u64 {
        posit_chunks.extend(closed_loop(
            &mut srv,
            &images,
            slice_s,
            seed ^ slice,
            &mut closed,
        ));
        f32_chunks.extend(closed_loop(
            &mut f32_srv,
            &images,
            slice_s,
            seed ^ slice,
            &mut f32c,
        ));
    }
    closed.settle("closed loop (posit-quire)", rep);
    f32c.settle("closed loop (f32)", rep);
    let (capacity, f32_capacity) = (calm_rate(&posit_chunks), calm_rate(&f32_chunks));

    println!(
        "# info quire/f32 capacity ratio {:.3} (posit-quire {capacity:.2} req/s, f32 {f32_capacity:.2} req/s)",
        f32_capacity / capacity,
    );
    rep.metric("samples_per_s", capacity, "1/s");
    rep.metric("f32_samples_per_s", f32_capacity, "1/s");
    let (lat, steal) = o.calm_latency_ms();
    println!(
        "# open loop: host steal {steal} ticks; kept {} of {} requests (calmer half of {} ms windows); \
         p99 {:.3} ms (information only)",
        lat.len(),
        o.requests.len(),
        OPEN_WINDOW_MS,
        stats::quantile(&lat, 0.99)
    );
    rep.metric("latency_ms_p50", stats::median(&lat), "ms");
    rep.metric("latency_ms_p90", stats::quantile(&lat, 0.9), "ms");
    rep.metric("setup_s", stats::median(&setup_s), "s");
}

/// Print the recorded-output lines: the logits digest of every pool image
/// on both backends, for every data variant.
pub fn record() {
    let mut rep = Report::default();
    for variant in 0..train::VARIANTS {
        let images = pool(variant);
        let store = model_store(variant, &mut rep);
        for backend in [ComputeBackend::PositQuire, ComputeBackend::F32] {
            let (mut srv, _) = server(&store, backend, None);
            for (i, img) in images.iter().enumerate() {
                let id = srv.submit(img).expect("record submit");
                srv.flush_all().expect("record flush");
                let reply = srv.poll(id).expect("flushed").expect("served");
                let k = expected::key(NAME, variant, backend.name(), i);
                println!("{k} {:016x}", stats::digest(&reply.logits));
            }
        }
    }
}

/// The traced run: per-layer metrics of the serving path.
pub fn traced(seed: u64, seconds: f64, rep: &mut Report) {
    let variant = seed % train::VARIANTS;
    let images = pool(variant);
    let store = model_store(variant, rep);
    let (mut plain, _) = server(&store, ComputeBackend::PositQuire, None);
    warm(&mut plain, &images);
    let mut base = Checker::new(variant, ComputeBackend::PositQuire);
    let base_capacity = calm_rate(&closed_loop(
        &mut plain,
        &images,
        seconds * PHASE_SHARE,
        seed,
        &mut base,
    ));
    base.settle("closed loop (untraced)", rep);
    drop(plain);

    let rec = Recorder::new();
    posit_dnn::obs::Registry::enable(true);
    posit_dnn::obs::Registry::global().reset();
    let timed = TimedStore::new(&store, &rec);
    let t0 = Instant::now();
    let (mut srv, children) = server(&timed, ComputeBackend::PositQuire, Some(&rec));
    let restore_ms = t0.elapsed().as_secs_f64() * 1e3;
    let children = children.expect("wrapped");
    warm(&mut srv, &images);
    rec.drain();

    let mut open = Checker::new(variant, ComputeBackend::PositQuire);
    let o = open_loop(
        &mut srv,
        &images,
        requests(seconds),
        seed,
        &mut open,
        Some(&rec),
    );
    let open_spans = rec.drain();
    let st = srv.stats();
    let mut closed = Checker::new(variant, ComputeBackend::PositQuire);
    let capacity = calm_rate(&closed_loop(
        &mut srv,
        &images,
        seconds * PHASE_SHARE,
        seed,
        &mut closed,
    ));
    let closed_spans = rec.drain();
    let snap = posit_dnn::obs::Registry::global().snapshot();
    posit_dnn::obs::Registry::enable(false);
    open.settle("open loop (traced)", rep);
    closed.settle("closed loop (traced)", rep);

    let p = "serve";
    for (name, v, unit) in batch_metrics(&children, &closed_spans) {
        rep.metric(format!("{p}.{name}"), v, unit);
    }
    rep.metric(format!("{p}.store.restore_ms"), restore_ms, "ms");
    let heads: Vec<&Span> = open_spans.iter().filter(|s| s.is_head(false)).collect();
    let pure_submits: Vec<f64> = o
        .submits
        .iter()
        .filter(|&&(a, b)| !heads.iter().any(|h| h.start >= a && h.start < b))
        .map(|&(a, b)| (b - a) as f64 / 1e3)
        .collect();
    rep.metric(format!("{p}.submit_us"), stats::median(&pure_submits), "us");
    // Requests leave the queue in submit order, so the k-th batch takes
    // the next `rows` submits.
    let mut waits = Vec::with_capacity(o.submits.len());
    let mut queued = o.submits.iter();
    for h in &heads {
        for &(_, submitted) in queued.by_ref().take(h.rows) {
            waits.push(h.start.saturating_sub(submitted) as f64 / 1e6);
        }
    }
    rep.metric(
        format!("{p}.queue_wait_ms_p50"),
        stats::median(&waits),
        "ms",
    );
    let rows: Vec<f64> = heads.iter().map(|h| h.rows as f64).collect();
    rep.metric(format!("{p}.batch_rows_mean"), stats::mean(&rows), "rows");
    rep.metric(
        format!("{p}.batch_occupancy"),
        st.mean_batch / MAX_BATCH as f64,
        "ratio",
    );
    rep.metric(
        format!("{p}.latency_ms_p99"),
        stats::quantile(&o.calm_latency_ms().0, 0.99),
        "ms",
    );
    rep.metric(
        format!("{p}.gen_lateness_ms_p99"),
        stats::quantile(&o.lateness_ms, 0.99),
        "ms",
    );
    for (phase, c) in [("open", &open), ("closed", &closed)] {
        rep.metric(format!("{p}.{phase}.sent"), c.sent as f64, "count");
        rep.metric(format!("{p}.{phase}.succeeded"), c.ok as f64, "count");
        rep.metric(format!("{p}.{phase}.failed"), c.failed as f64, "count");
    }
    let overhead = (base_capacity / capacity - 1.0) * 100.0;
    println!(
        "# {NAME}: untraced capacity {base_capacity:.2} req/s, traced {capacity:.2} req/s, \
         tracing overhead {overhead:.2}%"
    );
    rep.metric(format!("{p}.trace.overhead_pct"), overhead, "%");
    crate::obs_ratios(p, &snap, "decode", rep);
}

/// Per-batch figures of the closed loop: each child's forward, the whole
/// batch, and allocation and fault counts per request.
fn batch_metrics(children: &trace::Children, spans: &[Span]) -> Vec<(String, f64, &'static str)> {
    let heads: Vec<&Span> = spans.iter().filter(|s| s.is_head(false)).collect();
    let n_layers = children.names.len();
    let mut fwd = vec![0u64; n_layers];
    let (mut batch_ms, mut allocs, mut bytes, mut faults) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for pair in heads.windows(2) {
        let (a, b) = (pair[0], pair[1]);
        let layer_spans = spans.iter().filter(|s| {
            s.kind == (Kind::Fwd { train: false }) && s.start >= a.start && s.start < b.start
        });
        let mut end = a.end;
        for s in layer_spans {
            fwd[s.layer] += s.ns();
            end = end.max(s.end);
        }
        batch_ms.push((end - a.start) as f64 / 1e6);
        let rows = a.rows.max(1) as f64;
        allocs.push((b.mem.0 - a.mem.0) as f64 / rows);
        bytes.push((b.mem.1 - a.mem.1) as f64 / rows);
        faults.push((b.mem.2 - a.mem.2) as f64 / rows);
    }
    let batches = batch_ms.len().max(1) as f64;
    let mut m = Vec::new();
    let mut other = 0u64;
    for ((name, &has_params), &ns) in children.names.iter().zip(&children.has_params).zip(&fwd) {
        if has_params {
            m.push((format!("nn.{name}.fwd_ms"), ns as f64 / 1e6 / batches, "ms"));
        } else {
            other += ns;
        }
    }
    m.push((
        "nn.other.fwd_ms".to_string(),
        other as f64 / 1e6 / batches,
        "ms",
    ));
    m.push((
        "batch_compute_ms".to_string(),
        stats::median(&batch_ms),
        "ms",
    ));
    m.push((
        "mem.allocs_per_step".to_string(),
        stats::median(&allocs),
        "count",
    ));
    m.push((
        "mem.alloc_bytes_per_step".to_string(),
        stats::median(&bytes),
        "bytes",
    ));
    m.push((
        "mem.minor_faults_per_step".to_string(),
        stats::median(&faults),
        "count",
    ));
    m
}
