//! Determinism under instrumentation: turning `posit-obs` recording on
//! must not move a single bit of a training run.
//!
//! The telemetry layer's contract (crate docs of `posit-obs`) is
//! observation-only — counters and histograms read values the kernels
//! already produced, and nothing recorded feeds back into a rounding
//! decision or an RNG stream. This suite pins that claim on the same
//! LeNet configuration the `thread_determinism` sweep uses: one run
//! with recording off, one with recording on, same
//! process (so the worker-pool width latched in the tensor crate's
//! `OnceLock` is identical), and the full fingerprint — per-epoch
//! loss/accuracy bits plus a key-by-key digest of the checkpoint store —
//! must match byte for byte.
//!
//! The instrumented run doubles as the export acceptance check: after it,
//! the global registry must hold nonzero kernel-path counters, per-layer
//! quantization-edge health, and a populated `train.step_ns` histogram,
//! and the per-epoch NDJSON log (`POSIT_OBS_TRAIN_LOG`) must parse as one
//! flat object per line.

use posit_data::{Dataset, SyntheticCifar};
use posit_store::{MemoryStore, Store};
use posit_tensor::rng::Prng;
use posit_train::{
    ComputeBackend, MasterWeights, QuantBuilder, QuantSpec, RunOptions, TrainConfig, TrainReport,
    Trainer,
};
use std::fmt::Write as _;

fn quant() -> QuantSpec {
    QuantSpec::cifar_paper()
        .with_backend(ComputeBackend::PositQuire)
        .with_master(MasterWeights::Posit)
}

fn lenet_data() -> (Dataset, Dataset) {
    let gen = SyntheticCifar::new(16, 11);
    (gen.train(48, 1), gen.test(16, 1))
}

fn config() -> TrainConfig {
    TrainConfig::cifar_scaled(4, 2)
        .with_seed(3)
        .with_quant(quant())
}

/// FNV-1a over the value bytes (same rationale as the thread
/// suite: store chunks carry their own CRC trailer, which makes CRC a
/// constant-residue fingerprint).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn store_dump(store: &dyn Store) -> String {
    let mut keys = store.list_prefix("").expect("list keys");
    keys.sort();
    let mut s = String::new();
    for k in keys {
        let v = store.get(&k).expect("read key").expect("key vanished");
        writeln!(s, "{k} len {} fnv {:016x}", v.len(), fnv1a(&v)).unwrap();
    }
    s
}

fn fingerprint(report: &TrainReport, store: &dyn Store) -> String {
    let mut s = String::new();
    for e in &report.epochs {
        writeln!(
            s,
            "epoch {} phase {} loss {:016x} acc {:016x} test {:016x}",
            e.epoch,
            e.phase,
            e.train_loss.to_bits(),
            e.train_acc.to_bits(),
            e.test_acc.to_bits()
        )
        .unwrap();
    }
    s.push_str(&store_dump(store));
    s
}

/// Train the LeNet cell from scratch and fingerprint loss bits +
/// checkpoint bytes.
fn run_once() -> String {
    let cfg = config();
    let (train, test) = lenet_data();
    let mut rng = Prng::seed(cfg.seed);
    let mut qb = QuantBuilder::new(cfg.quant.clone().expect("quantized config"));
    let control = qb.control();
    let net = posit_models::lenet(&mut qb, 3, 16, 10, &mut rng);
    let mut trainer = Trainer::from_net(net, Some(control));
    let store = MemoryStore::new();
    let report = trainer
        .run(RunOptions::new(&train, &test, &cfg).resumable(&store))
        .expect("training run");
    fingerprint(&report, &store)
}

#[test]
fn instrumented_training_is_bit_identical_and_exports_metrics() {
    // Baseline with recording forced off (overrides any POSIT_OBS in the
    // environment — the CI re-runs this suite with POSIT_OBS=1).
    posit_obs::set_enabled(false);
    let base = run_once();

    // Instrumented run in the same process: identical pool width, only
    // the telemetry switch differs. Route the per-epoch NDJSON export to
    // a scratch file so it can be parsed below.
    let log = std::env::temp_dir().join(format!("obs-det-{}.ndjson", std::process::id()));
    std::fs::remove_file(&log).ok();
    std::env::set_var("POSIT_OBS_TRAIN_LOG", &log);
    posit_obs::Registry::enable(true);
    let instrumented = run_once();
    posit_obs::set_enabled(false);
    std::env::remove_var("POSIT_OBS_TRAIN_LOG");

    assert_eq!(
        instrumented, base,
        "turning posit-obs recording on changed the training bits"
    );

    // The instrumented run must actually have observed the kernels: the
    // quire GEMM path counters, the plane-decode route counters, at least
    // one labeled quantization edge, and the step-span histogram.
    let snap = posit_obs::Registry::global().snapshot();
    let gemm_calls = snap.counter("tensor.gemm.narrow_calls")
        + snap.counter("tensor.gemm.wide_calls")
        + snap.counter("tensor.gemm.kstrip_calls");
    assert!(
        gemm_calls > 0,
        "no GEMM path counters recorded:\n{}",
        snap.to_table()
    );
    let decoded = snap.counter("tensor.plane.decode.lut8_elems")
        + snap.counter("tensor.plane.decode.lut2_elems")
        + snap.counter("tensor.plane.decode.swar_elems")
        + snap.counter("tensor.plane.decode.twiddle_elems");
    assert!(
        decoded > 0,
        "no plane-decode counters recorded:\n{}",
        snap.to_table()
    );
    let edge_elems: u64 = snap
        .rows
        .iter()
        .filter(|r| r.name.starts_with("edge.") && r.name.ends_with(".elems"))
        .map(|r| match &r.value {
            posit_obs::MetricValue::Counter(v) => *v,
            _ => 0,
        })
        .sum();
    assert!(
        edge_elems > 0,
        "no quantization-edge tallies recorded:\n{}",
        snap.to_table()
    );
    assert!(
        snap.rows
            .iter()
            .any(|r| r.name.starts_with("edge.") && r.name.ends_with(".log2")),
        "no per-edge log2-magnitude histogram registered:\n{}",
        snap.to_table()
    );
    match snap.get("train.step_ns") {
        Some(posit_obs::MetricValue::Histogram(h)) => {
            assert!(h.count() > 0, "step-span histogram is empty")
        }
        other => panic!("train.step_ns missing or mistyped: {other:?}"),
    }

    // The trainer's NDJSON sink: one epoch record per epoch, every line a
    // flat JSON object, registry rows riding along.
    let text = std::fs::read_to_string(&log).expect("trainer wrote the obs log");
    std::fs::remove_file(&log).ok();
    let lines: Vec<&str> = text.lines().collect();
    assert!(!lines.is_empty(), "obs log is empty");
    for line in &lines {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "obs log line is not a flat JSON object: {line}"
        );
    }
    let epochs = lines
        .iter()
        .filter(|l| l.contains("\"event\": \"epoch\""))
        .count();
    assert_eq!(epochs, config().epochs, "one epoch record per epoch");
    assert!(
        lines
            .iter()
            .any(|l| l.contains("\"metric\": \"tensor.gemm.")),
        "epoch records must carry the registry dump"
    );
}
