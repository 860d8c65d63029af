//! Storage-domain A/B at the LeNet/MLP layer shapes: posit-resident
//! operands (packed bits decoded straight into the quire kernel) vs the
//! f32 round trip the refactor removed (quantize → f32 staging buffer →
//! re-encode planes inside the kernel).
//!
//! The `Bytes` throughput line is the paper's memory-traffic argument made
//! measurable: the resident path moves 1 byte/element for posit(8,1)
//! operands where the round trip moves 4 (f32 staging), so its reported
//! MiB/s is computed over a 4× smaller byte count per step.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use posit::{PositFormat, Rounding};
use posit_models::{lenet_gemm_shapes, mlp_gemm_shapes, GemmShape};
use posit_tensor::rng::Prng;
use posit_tensor::{Backend, Layout, Tensor};
use std::hint::black_box;

fn bench_shapes() -> Vec<GemmShape> {
    let mut shapes = lenet_gemm_shapes(28, 32, 10);
    shapes.extend(mlp_gemm_shapes(32, &[256, 128, 10]));
    shapes
}

fn bench_storage(c: &mut Criterion) {
    let fmt = PositFormat::of(8, 1);
    let rounding = Rounding::NearestEven;
    let backend = Backend::PositQuire { fmt, rounding };
    let mut rng = Prng::seed(7);
    for shape in bench_shapes() {
        let (m, k, n) = (shape.m, shape.k, shape.n);
        let a = Tensor::rand_uniform(&[m, k], -1.0, 1.0, &mut rng);
        let b = Tensor::rand_uniform(&[k, n], -1.0, 1.0, &mut rng);
        let pa = a.to_posit(fmt, 0, rounding);
        let pb = b.to_posit(fmt, 0, rounding);
        let out_bytes = 4 * m * n;
        let mut g = c.benchmark_group(format!("storage/{}", shape.label));

        // Resident: operands live as packed posit bits between steps; one
        // step reads bits, decodes once inside the kernel, writes f32 out.
        g.throughput(Throughput::Bytes(
            (pa.nbytes() + pb.nbytes() + out_bytes) as u64,
        ));
        g.bench_function("resident-posit", |bch| {
            bch.iter(|| {
                let mut out = vec![0.0f32; m * n];
                backend.prepare_operand(black_box(&pa).operand()).gemm_with(
                    Layout::AB,
                    m,
                    k,
                    n,
                    black_box(&pb).operand(),
                    &mut out,
                );
                out
            })
        });

        // Round trip: operands live as f32 on the posit grid; one step
        // re-quantizes them through the f32 staging path and the kernel
        // re-encodes planes from f32 — the pre-refactor dataflow.
        g.throughput(Throughput::Bytes(
            (a.nbytes() + b.nbytes() + out_bytes) as u64,
        ));
        g.bench_function("round-trip-f32", |bch| {
            bch.iter(|| {
                let qa = black_box(&a).to_posit(fmt, 0, rounding).to_f32();
                let qb = black_box(&b).to_posit(fmt, 0, rounding).to_f32();
                let mut out = vec![0.0f32; m * n];
                backend
                    .prepare(qa.data())
                    .gemm_with(Layout::AB, m, k, n, qb.data(), &mut out);
                out
            })
        });
        g.finish();
    }

    // The transitions themselves, at the largest FC shape: what one
    // storage-domain crossing costs in each direction.
    let t = Tensor::rand_uniform(&[32, 256], -1.0, 1.0, &mut rng);
    let p = t.to_posit(fmt, 0, rounding);
    let mut g = c.benchmark_group("storage/transitions");
    g.throughput(Throughput::Elements(t.len() as u64));
    g.bench_function("to_posit", |bch| {
        bch.iter(|| black_box(&t).to_posit(fmt, 0, rounding))
    });
    g.bench_function("to_f32", |bch| bch.iter(|| black_box(&p).to_f32()));
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(1))
        .sample_size(10);
    targets = bench_storage
}
criterion_main!(benches);
