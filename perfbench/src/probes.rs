//! Kernel probes at the workloads' exact shapes: the quire GEMM per fc
//! and conv-lowered shape, `conv2d_prepared` for conv1, the f32→posit
//! encode and the packed-plane decode.

use crate::stats::{self, Report};
use posit_dnn::posit::{PositFormat, Rounding};
use posit_dnn::tensor::conv::conv2d_prepared;
use posit_dnn::tensor::rng::Prng;
use posit_dnn::tensor::{Backend, PositPlane, Tensor};
use std::hint::black_box;
use std::time::Instant;

/// Wall budget of one probe, seconds.
const BUDGET_S: f64 = 0.2;
/// Elements of the encode and decode probes.
const ELEMS: usize = 1 << 16;

/// Median microseconds per call of `f` over the probe budget (one
/// untimed call first).
fn per_call_us(mut f: impl FnMut()) -> f64 {
    f();
    let mut times = Vec::new();
    let start = Instant::now();
    while times.len() < 5 || start.elapsed().as_secs_f64() < BUDGET_S {
        let t = Instant::now();
        f();
        times.push(t.elapsed().as_secs_f64() * 1e6);
    }
    stats::median(&times)
}

fn normal(len: usize, seed: u64) -> Vec<f32> {
    let mut rng = Prng::seed(seed);
    (0..len).map(|_| rng.normal(0.0, 0.5)).collect()
}

fn quire(n: u32, es: u32) -> (PositFormat, Backend) {
    let fmt = PositFormat::of(n, es);
    let backend = Backend::PositQuire {
        fmt,
        rounding: Rounding::ToZero,
    };
    (fmt, backend)
}

/// One GEMM probe: the call a layer makes, at its shape.
struct Gemm {
    name: &'static str,
    feeds: &'static str,
    fmt: (u32, u32),
    m: usize,
    k: usize,
    n: usize,
    /// A conv-lowered product: f32 column matrix `B`, encoded per call as
    /// `conv2d_prepared` does. Otherwise an fc forward `x · Wᵀ` over
    /// packed activations and a prepared weight.
    lowered: bool,
}

const GEMMS: [Gemm; 7] = [
    Gemm {
        name: "tensor.gemm.lenet8_conv1_us",
        feeds: "train-lenet8/serve-lenet8 conv1",
        fmt: (8, 1),
        m: 6,
        k: 75,
        n: 144,
        lowered: true,
    },
    Gemm {
        name: "tensor.gemm.lenet8_conv2_us",
        feeds: "train-lenet8/serve-lenet8 conv2",
        fmt: (8, 1),
        m: 16,
        k: 150,
        n: 4,
        lowered: true,
    },
    Gemm {
        name: "tensor.gemm.lenet8_fc1_us",
        feeds: "train-lenet8 fc1",
        fmt: (8, 1),
        m: 32,
        k: 16,
        n: 120,
        lowered: false,
    },
    Gemm {
        name: "tensor.gemm.lenet8_fc2_us",
        feeds: "train-lenet8 fc2",
        fmt: (8, 1),
        m: 32,
        k: 120,
        n: 10,
        lowered: false,
    },
    Gemm {
        name: "tensor.gemm.mlp16_fc1_us",
        feeds: "train-mlp16 fc1",
        fmt: (16, 1),
        m: 32,
        k: 768,
        n: 256,
        lowered: false,
    },
    Gemm {
        name: "tensor.gemm.mlp16_fc2_us",
        feeds: "train-mlp16 fc2",
        fmt: (16, 1),
        m: 32,
        k: 256,
        n: 128,
        lowered: false,
    },
    Gemm {
        name: "tensor.gemm.mlp16_fc3_us",
        feeds: "train-mlp16 fc3",
        fmt: (16, 1),
        m: 32,
        k: 128,
        n: 10,
        lowered: false,
    },
];

fn gemm_probe(g: &Gemm) -> f64 {
    let (fmt, backend) = quire(g.fmt.0, g.fmt.1);
    let mut c = vec![0.0f32; g.m * g.n];
    if g.lowered {
        let w = normal(g.m * g.k, 1);
        let col = normal(g.k * g.n, 2);
        let w = backend.prepare(&w);
        per_call_us(|| w.gemm(g.m, g.k, g.n, black_box(&col), &mut c))
    } else {
        let x =
            Tensor::from_vec(normal(g.m * g.k, 3), &[g.m, g.k]).to_posit(fmt, 0, Rounding::ToZero);
        let w = normal(g.n * g.k, 4);
        let x = backend.prepare_operand(x.operand());
        let w = backend.prepare(&w);
        per_call_us(|| x.gemm_a_bt_prepared(g.m, g.k, g.n, black_box(&w), &mut c))
    }
}

/// Run every probe and report it, with its MAC count and computed bytes
/// moved printed as bases.
pub fn run(rep: &mut Report) {
    for g in &GEMMS {
        let us = gemm_probe(g);
        let eb = g.fmt.0 as usize / 8;
        let b_bytes = if g.lowered { 4 } else { eb };
        let bytes = g.m * g.k * eb + g.k * g.n * b_bytes + g.m * g.n * 4;
        println!(
            "# probe {}: posit({},{}) [{}x{}]x[{}x{}], {} MACs, {} bytes moved (computed from operand sizes), feeds {}",
            g.name, g.fmt.0, g.fmt.1, g.m, g.k, g.k, g.n, g.m * g.k * g.n, bytes, g.feeds
        );
        rep.metric(g.name, us, "us");
    }

    // conv1 forward over a whole batch, as Conv2d runs it.
    let (fmt, backend) = quire(8, 1);
    let w = normal(6 * 3 * 25, 5);
    let w = backend.prepare(&w);
    let x = Tensor::from_vec(normal(32 * 3 * 16 * 16, 6), &[32, 3, 16, 16]).to_posit(
        fmt,
        0,
        Rounding::ToZero,
    );
    let bias = vec![0.0f32; 6];
    let us = per_call_us(|| {
        black_box(conv2d_prepared(&w, &[6, 3, 5, 5], &x, Some(&bias), 1, 0));
    });
    println!(
        "# probe tensor.conv2d_prepared.lenet8_conv1_us: batch 32, {} MACs, {} bytes moved \
         (computed: packed input, f32 output), feeds train-lenet8 conv1",
        32 * 6 * 75 * 144,
        32 * 3 * 256 + 32 * 6 * 144 * 4
    );
    rep.metric("tensor.conv2d_prepared.lenet8_conv1_us", us, "us");

    for (n, es, feeds) in [(8, 1, "train-lenet8/serve-lenet8"), (16, 1, "train-mlp16")] {
        let fmt = PositFormat::of(n, es);
        let xs = normal(ELEMS, 7);
        let mut out = vec![0u64; ELEMS];
        let us = per_call_us(|| {
            for (o, &x) in out.iter_mut().zip(black_box(&xs)) {
                *o = fmt.from_f32(x, Rounding::ToZero);
            }
        });
        let name = format!("posit.encode.p{n}e{es}_ns_per_elem");
        println!(
            "# probe {name}: {ELEMS} elements, {} bytes moved (computed), feeds {feeds}",
            ELEMS * (4 + n as usize / 8)
        );
        rep.metric(name, us * 1e3 / ELEMS as f64, "ns");

        let packed = Tensor::from_vec(xs.clone(), &[ELEMS]).to_posit(fmt, 0, Rounding::ToZero);
        let (bits, _, _) = packed.posit_bits().expect("packed");
        let us = per_call_us(|| {
            black_box(PositPlane::from_packed(fmt, black_box(bits), 0));
        });
        let name = format!("tensor.plane_decode.p{n}e{es}_ns_per_elem");
        println!(
            "# probe {name}: {ELEMS} elements, {} bytes read (computed), feeds {feeds}",
            ELEMS * n as usize / 8
        );
        rep.metric(name, us * 1e3 / ELEMS as f64, "ns");
    }
}
