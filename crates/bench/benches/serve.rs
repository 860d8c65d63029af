//! Criterion benchmarks of the inference server: the dynamic batcher's
//! throughput win. Both rows push the same 8 samples per iteration
//! through the same calibrated quantized MLP on the posit-quire backend
//! — `serve.batched` as one 8-row GEMM batch, `serve.single` as 8
//! single-sample batches — so their ns/iter are directly comparable
//! per-sample costs. The batched row's win is the batcher amortizing
//! per-forward fixed costs (im2col staging, kernel dispatch, the weight
//! plane decode, activation-plane packing setup) over the rows of one
//! GEMM; the 1-channel LeNet keeps the proportional GEMM work small
//! enough that those fixed costs are visible. Both rows sit under the
//! bench-smoke 1.5x regression gate (`(lenet|mlp|serve).*\/posit-quire`).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use posit_serve::{InferenceServer, ServeConfig, ServedModel};
use posit_tensor::rng::Prng;
use posit_tensor::Tensor;
use posit_train::{ComputeBackend, MasterWeights, Phase, QuantBuilder, QuantSpec};
use std::hint::black_box;

const SIDE: usize = 16;
const BATCH: usize = 8;

fn server(max_batch: usize) -> InferenceServer {
    let spec = QuantSpec::cifar_paper()
        .with_backend(ComputeBackend::PositQuire)
        .with_master(MasterWeights::Posit);
    let mut rng = Prng::seed(9);
    let mut qb = QuantBuilder::new(spec.clone());
    let control = qb.control();
    let mut net = posit_models::lenet(&mut qb, 1, SIDE, 10, &mut rng);
    let mut cal_rng = Prng::seed(10);
    let cal = Tensor::rand_normal(&[BATCH, 1, SIDE, SIDE], 0.0, 1.0, &mut cal_rng);
    control.set_phase(Phase::Calibrate);
    let _ = posit_nn::Layer::forward(&mut net, &cal, false);
    InferenceServer::new(
        ServedModel::quantized(net, control, spec),
        &[1, SIDE, SIDE],
        ServeConfig {
            max_batch,
            max_wait_ticks: 0,
            ..ServeConfig::default()
        },
    )
    .expect("valid config")
}

fn samples() -> Vec<Tensor> {
    let mut rng = Prng::seed(11);
    (0..BATCH)
        .map(|_| Tensor::rand_normal(&[1, SIDE, SIDE], 0.0, 1.0, &mut rng))
        .collect()
}

/// One timed iteration = `ROUNDS` rounds of: submit the 8 samples, flush,
/// drain the replies. Several rounds per iteration stretch the timed
/// window into the tens of milliseconds, which averages out scheduler
/// noise on small machines — the bench-smoke stage times a single
/// iteration, and the batched-vs-single gap is a few percent.
const ROUNDS: usize = 8;

fn serve_round(srv: &mut InferenceServer, samples: &[Tensor]) -> f32 {
    let mut acc = 0.0;
    for _ in 0..ROUNDS {
        let ids: Vec<_> = samples
            .iter()
            .map(|s| srv.submit(black_box(s)).expect("f32 sample"))
            .collect();
        srv.flush_all().expect("flush");
        for id in ids {
            acc += srv.poll(id).expect("completed").expect("served").logits[0];
        }
    }
    acc
}

fn bench_serve(c: &mut Criterion) {
    let samples = samples();

    // Pre-warm both servers outside the timed windows: the first serve
    // round through a fresh process pays one-time costs (decode-table
    // builds, allocator growth, page faults on the im2col buffers) that
    // would otherwise land on whichever group happens to run first.
    let mut single = server(1);
    let mut batched = server(BATCH);
    let _ = serve_round(&mut single, &samples);
    let _ = serve_round(&mut batched, &samples);

    let mut g = c.benchmark_group("serve.single");
    g.sample_size(10);
    g.throughput(Throughput::Elements((BATCH * ROUNDS) as u64));
    g.bench_function("posit-quire", |b| {
        b.iter(|| serve_round(&mut single, &samples))
    });
    g.finish();

    let mut g = c.benchmark_group("serve.batched");
    g.sample_size(10);
    g.throughput(Throughput::Elements((BATCH * ROUNDS) as u64));
    g.bench_function("posit-quire", |b| {
        b.iter(|| serve_round(&mut batched, &samples))
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(3))
        .sample_size(10);
    targets = bench_serve
}
criterion_main!(benches);
