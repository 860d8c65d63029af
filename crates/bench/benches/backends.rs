//! Compute-backend A/B: `f32` vs `posit-quire` GEMMs at
//! the layer shapes of the LeNet and MLP reference models.
//!
//! Extra variants isolate where the quire path's time goes:
//!
//! * `posit-quire` includes the per-call operand unpack (what the `nn`
//!   layers pay on every GEMM);
//! * `posit-quire-preplaned` reuses decoded planes across iterations (what
//!   a weight-stationary kernel would pay — the decode-once upside, which
//!   the `nn` layers do not take: their weights change every step);
//! * `posit-quire-swar` is preplaned from scale-shifted packed code words
//!   (the SWAR lane decode, nonzero Eq. 2 exponents on both operands);
//! * `posit-quire-widequire` is preplaned with the fixed-point integer
//!   loops disabled — the gap to `preplaned` is the integer-kernel win;
//! * `posit-quire-serial` is preplaned inside a `serial_scope` — the gap
//!   to `preplaned` is the worker-pool win (zero on single-core boxes,
//!   where the pool never dispatches).
//!
//! A LUT on/off row is not feasible at kernel level — the decode tables
//! are keyed by format, not by a switch — so the `plane_decode` group
//! approximates it by timing the plane unpack for a LUT-served 8-bit
//! format against the bit-twiddled 16-bit path at equal element counts.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use posit::{PositFormat, Rounding};
use posit_models::{lenet_gemm_shapes, mlp_gemm_shapes, GemmShape};
use posit_tensor::rng::Prng;
use posit_tensor::{serial_scope, Backend, Layout, PackedBits, PositGemm, PositPlane};
use std::hint::black_box;

fn bench_shapes() -> Vec<GemmShape> {
    let mut shapes = lenet_gemm_shapes(28, 32, 10);
    shapes.extend(mlp_gemm_shapes(32, &[256, 128, 10]));
    shapes
}

fn bench_backends(c: &mut Criterion) {
    let fmt = PositFormat::of(8, 1);
    let rounding = Rounding::NearestEven;
    let mut rng = Prng::seed(1);
    for shape in bench_shapes() {
        let (m, k, n) = (shape.m, shape.k, shape.n);
        let a: Vec<f32> = (0..m * k).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let b: Vec<f32> = (0..k * n).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let mut g = c.benchmark_group(shape.label.clone());
        g.throughput(Throughput::Elements(shape.macs() as u64));
        for backend in [Backend::F32, Backend::PositQuire { fmt, rounding }] {
            g.bench_function(backend.name(), |bch| {
                bch.iter(|| {
                    let mut out = vec![0.0f32; m * n];
                    backend.prepare(black_box(&a)).gemm_with(
                        Layout::AB,
                        m,
                        k,
                        n,
                        black_box(b.as_slice()),
                        &mut out,
                    );
                    out
                })
            });
        }
        // Decode-once amortized: planes built outside the timed loop.
        let kernel = PositGemm::new(fmt, rounding);
        let pa = kernel.encode_plane(&a);
        let pb = kernel.encode_plane(&b);
        g.bench_function("posit-quire-preplaned", |bch| {
            bch.iter(|| {
                let mut out = vec![0.0f32; m * n];
                kernel.gemm(m, k, n, black_box(&pa), black_box(&pb), &mut out);
                out
            })
        });
        // Scale-shifted packed operands: preplaned planes decoded by the
        // SWAR lane gather from packed code words with nonzero Eq. 2
        // exponents (the posit-resident weight path). The shifts fold
        // into the output's fixed point, so the gap to `preplaned` should
        // be noise.
        let packed = |xs: &[f32]| {
            let mut p = PackedBits::for_format(fmt, xs.len());
            for &x in xs {
                p.push(fmt.from_f32(x, rounding));
            }
            p
        };
        let (sa, sb) = (
            PositPlane::from_packed(fmt, &packed(&a), 3),
            PositPlane::from_packed(fmt, &packed(&b), -2),
        );
        g.bench_function("posit-quire-swar", |bch| {
            bch.iter(|| {
                let mut out = vec![0.0f32; m * n];
                kernel.gemm(m, k, n, black_box(&sa), black_box(&sb), &mut out);
                out
            })
        });
        // Integer loops off: the same preplaned GEMM forced onto the
        // heap-allocated wide quire (bit-identical results, slower path).
        let wide = kernel.wide_accumulator(true);
        g.bench_function("posit-quire-widequire", |bch| {
            bch.iter(|| {
                let mut out = vec![0.0f32; m * n];
                wide.gemm(m, k, n, black_box(&pa), black_box(&pb), &mut out);
                out
            })
        });
        // Worker pool off: preplaned, dispatch disabled on this thread.
        g.bench_function("posit-quire-serial", |bch| {
            bch.iter(|| {
                serial_scope(|| {
                    let mut out = vec![0.0f32; m * n];
                    kernel.gemm(m, k, n, black_box(&pa), black_box(&pb), &mut out);
                    out
                })
            })
        });
        g.finish();
    }
}

/// Operand-plane unpack throughput, one row per decode route:
///
/// * `lut/posit(8,1)` — the SWAR lane-group gather through the 256-entry
///   table (the `from_bits` fast path for `n ≤ 8`);
/// * `lut2/posit(16,1)` — the two-level LUT route (the `from_bits` fast
///   path for `8 < n ≤ 16`);
/// * `twiddle/posit(16,1)` — the bit-twiddled scalar oracle
///   (`from_bits_scalar`) on the same data, the before/after baseline the
///   two-level route is measured against.
fn bench_plane_decode(c: &mut Criterion) {
    let elems = 1 << 14;
    let mut g = c.benchmark_group("plane_decode");
    g.throughput(Throughput::Elements(elems as u64));
    let random_bits = |fmt: PositFormat| -> Vec<u64> {
        let mut state = 0x5EED_BA5E_u64;
        (0..elems)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 11) & fmt.mask()
            })
            .collect()
    };
    let p8 = PositFormat::of(8, 1);
    let bits8 = random_bits(p8);
    g.bench_function("lut/posit(8,1)", |bch| {
        bch.iter(|| PositPlane::from_bits(p8, black_box(&bits8)))
    });
    let p16 = PositFormat::of(16, 1);
    let bits16 = random_bits(p16);
    g.bench_function("lut2/posit(16,1)", |bch| {
        bch.iter(|| PositPlane::from_bits(p16, black_box(&bits16)))
    });
    g.bench_function("twiddle/posit(16,1)", |bch| {
        bch.iter(|| PositPlane::from_bits_scalar(p16, black_box(&bits16)))
    });
    g.finish();
}

/// Telemetry-overhead A/B: the same preplaned quire GEMM at an MLP layer
/// shape with `posit_obs` recording off (`mlp.obs-off/posit-quire`) and
/// on (`mlp.obs-on/posit-quire`). Both rows match the bench-smoke
/// regression gate's `mlp.*/posit-quire` pattern, so the disabled cost
/// (one relaxed atomic load per kernel call) and the enabled cost (a few
/// sharded counter adds per call) are both held inside the 1.5x envelope.
fn bench_obs_overhead(c: &mut Criterion) {
    let fmt = PositFormat::of(8, 1);
    let rounding = Rounding::NearestEven;
    let mut rng = Prng::seed(9);
    let (m, k, n) = (32usize, 256, 128);
    let a: Vec<f32> = (0..m * k).map(|_| rng.uniform(-1.0, 1.0)).collect();
    let b: Vec<f32> = (0..k * n).map(|_| rng.uniform(-1.0, 1.0)).collect();
    let kernel = PositGemm::new(fmt, rounding);
    let pa = kernel.encode_plane(&a);
    let pb = kernel.encode_plane(&b);
    let was = posit_obs::enabled();
    for (label, on) in [("mlp.obs-off", false), ("mlp.obs-on", true)] {
        let mut g = c.benchmark_group(label);
        g.throughput(Throughput::Elements((m * k * n) as u64));
        posit_obs::set_enabled(on);
        g.bench_function("posit-quire", |bch| {
            bch.iter(|| {
                let mut out = vec![0.0f32; m * n];
                kernel.gemm(m, k, n, black_box(&pa), black_box(&pb), &mut out);
                out
            })
        });
        posit_obs::set_enabled(was);
        g.finish();
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(1))
        .sample_size(10);
    targets = bench_backends, bench_plane_decode, bench_obs_overhead
}
criterion_main!(benches);
