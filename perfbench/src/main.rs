//! The repository's benchmark: posit training and serving, end to end and
//! layer by layer. See `perfbench/README.md` for the workloads, metrics and
//! how each per-layer metric maps onto the end-to-end ones.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload train-lenet8 --seed 3 --seconds 16 --trace 0
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --record train-lenet8
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics`. With `--trace 0` the metrics are
//! the end-to-end ones of the named workload; with `--trace 1` the
//! per-layer ones of every workload plus the kernel probes.

mod alloc;
mod expected;
mod probes;
mod serve;
mod stats;
mod trace;
mod train;

use posit_dnn::obs::Snapshot;
use stats::Report;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Worker threads for the tensor pool, pinned so every run sees the same
/// parallelism.
const THREADS: &str = "2";

/// Epochs recorded beyond set-up, on the posit-quire and f32 backends.
const RECORD_EPOCHS: [usize; 2] = [40, 200];

/// Every workload name.
const WORKLOADS: [&str; 3] = [train::LENET8.name, train::MLP16.name, serve::NAME];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    record: Option<String>,
}

fn parse() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 16.0,
        trace: false,
        record: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = value()? == "1",
            "--record" => args.record = Some(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let named = args.record.as_deref().unwrap_or(&args.workload);
    if !WORKLOADS.contains(&named) {
        return Err(format!("unknown workload {named:?}; one of {WORKLOADS:?}"));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Report the `posit-obs` ratios of a traced window, with their base
/// counts: operand-cache hit ratio, GEMM path shares, pool dispatch ratio
/// and the store codec's bytes out per byte in (`dir`: `encode` for
/// checkpoint writes, `decode` for restores).
pub fn obs_ratios(prefix: &str, snap: &Snapshot, dir: &str, rep: &mut Report) {
    let c = |name: &str| snap.counter(name) as f64;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let (hits, misses) = (c("tensor.cache.hits"), c("tensor.cache.misses"));
    let (narrow, wide, kstrip) = (
        c("tensor.gemm.narrow_calls"),
        c("tensor.gemm.wide_calls"),
        c("tensor.gemm.kstrip_calls"),
    );
    let (dispatches, serial) = (
        c("tensor.workers.dispatches"),
        c("tensor.workers.serial_runs"),
    );
    let (bytes_in, bytes_out) = (
        c(&format!("store.codec.{dir}.bytes_in")),
        c(&format!("store.codec.{dir}.bytes_out")),
    );
    println!(
        "# {prefix} obs bases: cache hits {hits} misses {misses}; gemm narrow {narrow} wide {wide} \
         kstrip {kstrip}; pool dispatches {dispatches} serial {serial}; codec {dir} in {bytes_in} out {bytes_out}"
    );
    let calls = narrow + wide;
    rep.metric(
        format!("{prefix}.obs.cache_hit_ratio"),
        ratio(hits, hits + misses),
        "ratio",
    );
    rep.metric(
        format!("{prefix}.obs.gemm_narrow_share"),
        ratio(narrow, calls),
        "ratio",
    );
    rep.metric(
        format!("{prefix}.obs.gemm_wide_share"),
        ratio(wide, calls),
        "ratio",
    );
    rep.metric(
        format!("{prefix}.obs.gemm_kstrip_share"),
        ratio(kstrip, calls),
        "ratio",
    );
    rep.metric(
        format!("{prefix}.obs.pool_dispatch_ratio"),
        ratio(dispatches, dispatches + serial),
        "ratio",
    );
    rep.metric(
        format!("{prefix}.obs.codec_out_per_in"),
        ratio(bytes_out, bytes_in),
        "ratio",
    );
}

fn main() {
    // Before any tensor work: the pool reads its width once.
    std::env::set_var("POSIT_TENSOR_THREADS", THREADS);
    posit_dnn::obs::Registry::enable(false);
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Some(w) = &args.record {
        match w.as_str() {
            "train-lenet8" => train::record(&train::LENET8, RECORD_EPOCHS),
            "train-mlp16" => train::record(&train::MLP16, RECORD_EPOCHS),
            _ => serve::record(),
        }
        return;
    }
    let mut rep = Report::default();
    println!(
        "# perfbench {} seed {} seconds {} trace {} (POSIT_TENSOR_THREADS={THREADS}, available parallelism {})",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    if args.trace {
        // Per-layer names carry the workload, so every traced run covers
        // all three pipelines (each on half the untraced window) and the
        // kernel probes.
        let half = args.seconds / 2.0;
        train::traced(&train::LENET8, args.seed, half, &mut rep);
        train::traced(&train::MLP16, args.seed, half, &mut rep);
        serve::traced(args.seed, half, &mut rep);
        probes::run(&mut rep);
    } else {
        match args.workload.as_str() {
            "train-lenet8" => train::run(&train::LENET8, args.seed, args.seconds, &mut rep),
            "train-mlp16" => train::run(&train::MLP16, args.seed, args.seconds, &mut rep),
            _ => serve::run(args.seed, args.seconds, &mut rep),
        }
        rep.metric("peak_rss_mb", stats::peak_rss_mb(), "MB");
    }
    println!("{}", rep.json());
}
