//! The serving determinism suite: the dynamic batcher must be invisible
//! in the numerics.
//!
//! The claim (crate docs): for a calibrated model under deterministic
//! rounding, a reply's logits are a function of its sample alone — the
//! batch it rode in, the submit/tick interleaving, and the worker-pool
//! width must not change a bit. The in-process tests sweep batch shapes
//! and interleavings; the cross-process test re-execs this binary under
//! `POSIT_TENSOR_THREADS ∈ {1, 4}` × `max_batch ∈ {1, 8}` (the pool width
//! latches in a process-global at first use, so each cell needs a fresh
//! process) and compares logit fingerprints, the same harness pattern as
//! `posit-train`'s `thread_determinism` suite.

use posit_nn::{checkpoint, Layer, Sequential};
use posit_serve::{InferenceServer, ServeConfig, ServeError, ServedModel};
use posit_store::MemoryStore;
use posit_tensor::rng::Prng;
use posit_tensor::Tensor;
use posit_train::{ComputeBackend, MasterWeights, Phase, QuantBuilder, QuantControl, QuantSpec};
use std::fmt::Write as _;
use std::process::Command;

const CHILD_GUARD: &str = "SERVE_DET_OUT";

const IN_DIM: usize = 16;
const CLASSES: usize = 4;

fn quant() -> QuantSpec {
    QuantSpec::cifar_paper()
        .with_backend(ComputeBackend::PositQuire)
        .with_master(MasterWeights::Posit)
}

/// A quantized MLP with frozen scales: random weights, one calibration
/// pass over a fixed batch, then the posit phase. Deterministic in every
/// process that calls it.
fn calibrated_model() -> (Sequential, QuantControl, QuantSpec) {
    let spec = quant();
    let mut rng = Prng::seed(41);
    let mut qb = QuantBuilder::new(spec.clone());
    let control = qb.control();
    let mut net = posit_models::mlp(&mut qb, &[IN_DIM, 32, CLASSES], &mut rng);
    let mut cal_rng = Prng::seed(42);
    let cal = Tensor::rand_normal(&[8, IN_DIM], 0.0, 1.0, &mut cal_rng);
    control.set_phase(Phase::Calibrate);
    let _ = net.forward(&cal, false);
    control.set_phase(Phase::Posit);
    (net, control, spec)
}

fn sample(i: u64) -> Tensor {
    let mut rng = Prng::seed(0x5A17 + i);
    Tensor::rand_normal(&[IN_DIM], 0.0, 1.0, &mut rng)
}

fn server(cfg: ServeConfig) -> InferenceServer {
    let (net, control, spec) = calibrated_model();
    InferenceServer::new(ServedModel::quantized(net, control, spec), &[IN_DIM], cfg)
        .expect("valid config")
}

/// Serve `n` samples under a submit/tick schedule and fingerprint the
/// logit bits in request order.
fn serve_fingerprint(srv: &mut InferenceServer, n: u64, ticks_between: usize) -> String {
    let mut ids = Vec::new();
    for i in 0..n {
        ids.push(srv.submit(&sample(i)).expect("f32 sample"));
        for _ in 0..ticks_between {
            srv.tick().expect("tick");
        }
    }
    srv.flush_all().expect("flush");
    let mut s = String::new();
    for (i, id) in ids.into_iter().enumerate() {
        let r = srv.poll(id).expect("completed").expect("served");
        write!(s, "req {i}:").unwrap();
        for v in &r.logits {
            write!(s, " {:08x}", v.to_bits()).unwrap();
        }
        s.push('\n');
    }
    s
}

#[test]
fn batch_shape_does_not_change_the_logits() {
    // max_batch 1 = pure single-sample serving: the baseline.
    let base = serve_fingerprint(
        &mut server(ServeConfig {
            max_batch: 1,
            max_wait_ticks: 0,
            ..ServeConfig::default()
        }),
        12,
        0,
    );
    for max_batch in [2, 5, 8, 12] {
        let fp = serve_fingerprint(
            &mut server(ServeConfig {
                max_batch,
                max_wait_ticks: 4,
                ..ServeConfig::default()
            }),
            12,
            0,
        );
        assert_eq!(fp, base, "max_batch={max_batch} changed some logit bits");
    }
}

#[test]
fn submit_tick_interleaving_does_not_change_the_logits() {
    let cfg = ServeConfig {
        max_batch: 4,
        max_wait_ticks: 3,
        ..ServeConfig::default()
    };
    // Back-to-back submits (full batches) vs a tick between every submit
    // (partial batches flushed by expiry): different batch partitions,
    // same bits.
    let burst = serve_fingerprint(&mut server(cfg), 10, 0);
    let spaced = serve_fingerprint(&mut server(cfg), 10, 2);
    assert_eq!(burst, spaced, "batch partitioning leaked into the logits");
}

#[test]
fn partial_batch_flushes_exactly_at_the_deadline() {
    let mut srv = server(ServeConfig {
        max_batch: 4,
        max_wait_ticks: 3,
        ..ServeConfig::default()
    });
    let a = srv.submit(&sample(0)).unwrap();
    let b = srv.submit(&sample(1)).unwrap();
    // Two of four slots filled: nothing may flush before the deadline.
    for tick in 1..3 {
        assert_eq!(srv.tick().unwrap(), 0, "flushed early at tick {tick}");
        assert!(srv.poll(a).is_none());
    }
    // Tick 3 = max_wait_ticks since arrival: the partial batch goes out.
    assert_eq!(srv.tick().unwrap(), 2, "deadline flush missing");
    let ra = srv.poll(a).expect("a completed").expect("served");
    let rb = srv.poll(b).expect("b completed").expect("served");
    assert_eq!(ra.batch_size, 2, "partial batch should hold both requests");
    assert_eq!(rb.batch_size, 2);
    assert_eq!(ra.queue_ticks, 3);
    let stats = srv.stats();
    assert_eq!((stats.submitted, stats.completed, stats.batches), (2, 2, 1));
    assert_eq!(stats.queue_p50_ticks, 3);
}

#[test]
fn a_full_batch_flushes_without_waiting_for_a_tick() {
    let mut srv = server(ServeConfig {
        max_batch: 2,
        max_wait_ticks: 100,
        ..ServeConfig::default()
    });
    let a = srv.submit(&sample(0)).unwrap();
    assert!(srv.poll(a).is_none(), "half-full batch must wait");
    let b = srv.submit(&sample(1)).unwrap();
    assert!(srv.poll(a).is_some() && srv.poll(b).is_some());
    assert_eq!(srv.stats().queue_p99_ticks, 0, "no virtual time passed");
}

#[test]
fn packed_samples_are_rejected_recoverably() {
    let mut srv = server(ServeConfig::default());
    let packed = sample(0).to_posit(posit::PositFormat::of(8, 1), 0, posit::Rounding::ToZero);
    match srv.submit(&packed) {
        Err(ServeError::Storage(_)) => {}
        other => panic!("packed sample should fail at try_data, got {other:?}"),
    }
    // The server keeps serving after the error.
    let id = srv.submit(&sample(1)).expect("f32 sample still accepted");
    srv.flush_all().unwrap();
    assert!(srv.poll(id).is_some());
    let wrong_shape = Tensor::zeros(&[IN_DIM + 1]);
    assert!(matches!(
        srv.submit(&wrong_shape),
        Err(ServeError::Shape { .. })
    ));
}

#[test]
fn stochastic_rounding_is_rejected_at_construction() {
    let spec = quant(); // ToZero — fine
    let (net, control, _) = calibrated_model();
    let mut sr_spec = spec;
    sr_spec.rounding = posit::Rounding::Stochastic;
    match InferenceServer::new(
        ServedModel::quantized(net, control, sr_spec),
        &[IN_DIM],
        ServeConfig::default(),
    ) {
        Err(ServeError::Config(_)) => {}
        other => panic!(
            "stochastic rounding must be refused, got {:?}",
            other.map(|_| ())
        ),
    }
}

#[test]
fn a_checkpoint_restored_server_matches_the_live_model() {
    // Round-trip the calibrated net through a v2 store — the only loading
    // path the server has — and demand bit-identical serving.
    let (net, control, spec) = calibrated_model();
    control.set_phase(Phase::Posit);
    let store = MemoryStore::new();
    checkpoint::write(
        &net,
        checkpoint::Sink::Store {
            store: &store,
            prefix: "serve-model",
        },
        checkpoint::Version::V2,
    )
    .expect("save");
    let live = serve_fingerprint(
        &mut InferenceServer::new(
            ServedModel::quantized(net, control, spec.clone()),
            &[IN_DIM],
            ServeConfig::default(),
        )
        .unwrap(),
        8,
        1,
    );
    // Fresh random net, same architecture: restore must bring back both
    // the weights and the frozen quantization scales.
    let mut rng = Prng::seed(999); // different seed — weights differ
    let mut qb = QuantBuilder::new(spec.clone());
    let fresh_control = qb.control();
    let fresh = posit_models::mlp(&mut qb, &[IN_DIM, 32, CLASSES], &mut rng);
    let mut restored_srv = InferenceServer::from_store(
        ServedModel::quantized(fresh, fresh_control, spec),
        &store,
        "serve-model",
        &[IN_DIM],
        ServeConfig::default(),
    )
    .expect("restore");
    let restored = serve_fingerprint(&mut restored_srv, 8, 1);
    assert_eq!(
        restored, live,
        "checkpoint round-trip changed served logits"
    );
}

// ---------------------------------------------------------------------------
// Cross-process sweep: thread counts × batch shapes.
// ---------------------------------------------------------------------------

fn run_child() {
    let out = std::env::var(CHILD_GUARD).unwrap();
    let max_batch: usize = std::env::var("SERVE_DET_BATCH").unwrap().parse().unwrap();
    let ticks: usize = std::env::var("SERVE_DET_TICKS").unwrap().parse().unwrap();
    let fp = serve_fingerprint(
        &mut server(ServeConfig {
            max_batch,
            max_wait_ticks: 3,
            ..ServeConfig::default()
        }),
        24,
        ticks,
    );
    std::fs::write(out, fp).unwrap();
}

#[test]
fn batched_serving_is_bit_identical_across_thread_counts() {
    if std::env::var(CHILD_GUARD).is_ok() {
        run_child();
        return;
    }
    let scratch = std::env::temp_dir().join(format!("serve-det-{}", std::process::id()));
    std::fs::remove_dir_all(&scratch).ok();
    std::fs::create_dir_all(&scratch).unwrap();

    // (threads, max_batch, ticks between submits). Baseline: single-sample
    // serving on a single-thread pool.
    let cells: &[(usize, usize, usize)] = &[
        (1, 1, 0),
        (1, 8, 0),
        (1, 8, 1),
        (4, 1, 0),
        (4, 8, 0),
        (4, 5, 2),
    ];
    let mut children = Vec::new();
    for &(threads, max_batch, ticks) in cells {
        let label = format!("threads={threads} max_batch={max_batch} ticks={ticks}");
        let out = scratch.join(format!("t{threads}-b{max_batch}-k{ticks}.fp"));
        let proc = Command::new(std::env::current_exe().unwrap())
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::piped())
            .args([
                "--exact",
                "batched_serving_is_bit_identical_across_thread_counts",
                "--nocapture",
            ])
            .env("POSIT_TENSOR_THREADS", threads.to_string())
            .env(CHILD_GUARD, &out)
            .env("SERVE_DET_BATCH", max_batch.to_string())
            .env("SERVE_DET_TICKS", ticks.to_string())
            .spawn()
            .expect("spawn child");
        children.push((label, out, proc));
    }
    let mut fps = Vec::new();
    for (label, out, proc) in children {
        let status = proc.wait_with_output().expect("child wait");
        assert!(
            status.status.success(),
            "{label} failed:\n{}{}",
            String::from_utf8_lossy(&status.stdout),
            String::from_utf8_lossy(&status.stderr),
        );
        let fp = std::fs::read_to_string(&out)
            .unwrap_or_else(|e| panic!("{label}: no fingerprint: {e}"));
        fps.push((label, fp));
    }
    let (base_label, base) = &fps[0];
    for (label, fp) in &fps[1..] {
        assert_eq!(
            fp, base,
            "{label} diverged from the serving baseline ({base_label})"
        );
    }
    std::fs::remove_dir_all(&scratch).ok();
}
