//! The thread-invariance suite for exact posit training.
//!
//! Every GEMM row block of a step adds its gradients into the one quire
//! accumulator (integer fixed-point, exact) each parameter owns for the
//! step, so the sum is associative and commutative and rounds ONCE — the
//! result cannot depend on the worker-pool width. These tests pin that
//! claim end to end: training runs under `POSIT_TENSOR_THREADS ∈ {2, 4, 7}`
//! must reproduce the 1-thread baseline's loss curve, final packed
//! weights and checkpoint bytes bit-for-bit.
//!
//! The worker-pool width is latched in a process-global `OnceLock` at
//! first use, so each (model, threads) cell runs in a fresh child
//! process: the test re-execs its own binary with `--exact <test name>`
//! and env-var guards, and every child writes a textual fingerprint
//! (per-epoch loss/accuracy bits + a key-by-key CRC of the final
//! checkpoint store) that the parent compares against the serial
//! baseline's.

use posit_data::{toy, Dataset, SyntheticCifar};
use posit_store::{FsStore, MemoryStore, Store};
use posit_tensor::rng::Prng;
use posit_train::{
    ComputeBackend, MasterWeights, QuantBuilder, QuantSpec, RunOptions, TrainConfig, TrainReport,
    Trainer,
};
use std::fmt::Write as _;
use std::process::Command;

/// Child-mode env vars. `TD_MODEL` selects the model, `TD_OUT` the
/// fingerprint path; `TD_EPOCHS` sets the schedule length, `TD_TRUNCATE`
/// stops the run early (the "killed" half of the resume scenario) and
/// `TD_STORE` routes checkpoints to a shared on-disk store.
const CHILD_GUARD: &str = "TD_OUT";

fn quant() -> QuantSpec {
    QuantSpec::cifar_paper()
        .with_backend(ComputeBackend::PositQuire)
        .with_master(MasterWeights::Posit)
}

fn lenet_data() -> (Dataset, Dataset) {
    let gen = SyntheticCifar::new(16, 11);
    (gen.train(48, 1), gen.test(16, 1))
}

fn mlp_data() -> (Dataset, Dataset) {
    (
        toy::gaussian_blobs(64, 4, 16, 3.0, 5),
        toy::gaussian_blobs(32, 4, 16, 3.0, 6),
    )
}

fn trainer_for(model: &str, cfg: &TrainConfig) -> Trainer {
    let mut rng = Prng::seed(cfg.seed);
    let mut qb = QuantBuilder::new(cfg.quant.clone().expect("quantized config"));
    let control = qb.control();
    let net = match model {
        "lenet" => posit_models::lenet(&mut qb, 3, 16, 10, &mut rng),
        "mlp" => posit_models::mlp(&mut qb, &[16, 32, 4], &mut rng),
        other => panic!("unknown model {other}"),
    };
    Trainer::from_net(net, Some(control))
}

fn config_for(model: &str, epochs: usize) -> TrainConfig {
    let mut cfg = TrainConfig::cifar_scaled(4, epochs)
        .with_seed(3)
        .with_quant(quant());
    if model == "mlp" {
        cfg.num_classes = 4;
        cfg.batch_size = 17; // odd, so the pool's row blocks are uneven
    }
    cfg
}

/// FNV-1a over the value bytes. (Not `posit_store::crc32`: store chunks
/// carry their own CRC32 trailer, and a message followed by its CRC hashes
/// to a constant residue — every chunk would fingerprint identically.)
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Key-by-key digest of a checkpoint store: the final network parameters,
/// optimizer velocity and trainer state all live here, so two equal dumps
/// mean bit-identical weights AND bit-identical checkpoint bytes.
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

/// Run one model's training in this process and write the fingerprint
/// to `TD_OUT`.
fn run_child() {
    let out = std::env::var(CHILD_GUARD).unwrap();
    let model = std::env::var("TD_MODEL").unwrap();
    let epochs: usize = std::env::var("TD_EPOCHS")
        .map(|e| e.parse().unwrap())
        .unwrap_or(2);
    let mut cfg = config_for(&model, epochs);
    // "Kill" the run early while keeping the full schedule (the LR
    // milestones are derived from `epochs`, so shortening the schedule
    // itself would train a different run, not a prefix of the same one).
    if let Ok(t) = std::env::var("TD_TRUNCATE") {
        cfg.epochs = t.parse().unwrap();
    }
    let (train, test) = match model.as_str() {
        "lenet" => lenet_data(),
        _ => mlp_data(),
    };
    let mut trainer = trainer_for(&model, &cfg);
    let fp = match std::env::var("TD_STORE") {
        Ok(dir) => {
            // Resume scenario: checkpoints shared across processes.
            let store = FsStore::open(dir).unwrap();
            let report = trainer
                .run(RunOptions::new(&train, &test, &cfg).resumable(&store))
                .unwrap();
            fingerprint(&report, &store)
        }
        Err(_) => {
            let store = MemoryStore::new();
            let report = trainer
                .run(RunOptions::new(&train, &test, &cfg).resumable(&store))
                .unwrap();
            fingerprint(&report, &store)
        }
    };
    std::fs::write(out, fp).unwrap();
}

struct Child {
    label: String,
    out: std::path::PathBuf,
    proc: std::process::Child,
}

fn spawn_cell(
    scratch: &std::path::Path,
    tag: &str,
    model: &str,
    threads: usize,
    extra: &[(&str, String)],
) -> Child {
    let label = format!("{tag}: {model} threads={threads}");
    let out = scratch.join(format!("{tag}-{model}-t{threads}.fp"));
    let mut cmd = Command::new(std::env::current_exe().unwrap());
    cmd.stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .args([
            "--exact",
            "training_is_bit_identical_across_thread_counts",
            "--nocapture",
        ])
        .env("POSIT_TENSOR_THREADS", threads.to_string())
        .env(CHILD_GUARD, &out)
        .env("TD_MODEL", model);
    for (k, v) in extra {
        cmd.env(k, v);
    }
    let proc = cmd.spawn().expect("spawn child");
    Child { label, out, proc }
}

fn join(child: Child) -> String {
    let status = child.proc.wait_with_output().expect("child wait");
    assert!(
        status.status.success(),
        "{} failed:\n{}{}",
        child.label,
        String::from_utf8_lossy(&status.stdout),
        String::from_utf8_lossy(&status.stderr),
    );
    std::fs::read_to_string(&child.out)
        .unwrap_or_else(|e| panic!("{}: no fingerprint: {e}", child.label))
}

#[test]
fn training_is_bit_identical_across_thread_counts() {
    if std::env::var(CHILD_GUARD).is_ok() {
        run_child();
        return;
    }
    let scratch = std::env::temp_dir().join(format!("thread-det-{}", std::process::id()));
    // A previous failed run may have left checkpoints here (and the PID
    // can recycle): the resume scenario needs a clean store.
    std::fs::remove_dir_all(&scratch).ok();
    std::fs::create_dir_all(&scratch).unwrap();

    // The sweep: every worker-pool width against the model's 1-thread
    // baseline.
    let mut children = Vec::new();
    for model in ["lenet", "mlp"] {
        children.push(spawn_cell(&scratch, "sweep", model, 1, &[]));
    }
    for model in ["lenet", "mlp"] {
        for threads in [2, 4, 7] {
            children.push(spawn_cell(&scratch, "sweep", model, threads, &[]));
        }
    }

    // Resume scenario: kill a run on a 2-thread pool after epoch 2 of 3,
    // resume it on a 7-thread pool, and demand the uninterrupted 1-thread
    // run's bits (the checkpoint stores no thread count).
    let store_dir = scratch.join("resume-store");
    let epochs3 = [("TD_EPOCHS", "3".to_string())];
    let serial3 = spawn_cell(&scratch, "resume", "mlp", 1, &epochs3);
    let serial3_fp = join(serial3);
    let prefix = spawn_cell(
        &scratch,
        "resume",
        "mlp",
        2,
        &[
            ("TD_EPOCHS", "3".to_string()),
            ("TD_TRUNCATE", "2".to_string()),
            ("TD_STORE", store_dir.display().to_string()),
        ],
    );
    join(prefix); // 2-epoch prefix checkpointed on disk
    let finish = spawn_cell(
        &scratch,
        "resume",
        "mlp",
        7,
        &[
            ("TD_EPOCHS", "3".to_string()),
            ("TD_STORE", store_dir.display().to_string()),
        ],
    );
    let resumed_fp = join(finish);
    assert_eq!(
        resumed_fp, serial3_fp,
        "resume across thread counts drifted from the uninterrupted 1-thread run"
    );

    // Sweep results: every cell must match its model's 1-thread baseline.
    let mut results = Vec::new();
    for c in children {
        let label = c.label.clone();
        results.push((label, join(c)));
    }
    let (baselines, sweep) = results.split_at(2);
    for (label, fp) in sweep {
        let base = if label.contains("lenet") {
            &baselines[0]
        } else {
            &baselines[1]
        };
        assert_eq!(
            *fp, base.1,
            "{label} diverged from the 1-thread baseline ({})",
            base.0
        );
    }

    std::fs::remove_dir_all(&scratch).ok();
}
