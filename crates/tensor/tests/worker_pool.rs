//! Worker-pool dispatch exercised with a forced thread budget.
//!
//! CI containers often expose a single hardware thread, on which every
//! parallel region takes the serial fast path and the pool never spawns.
//! This test runs in its own process and pins `POSIT_TENSOR_THREADS=4`
//! *before* the budget is first read, so the channel dispatch, the strided
//! lane split and the latch all actually execute — and must be
//! bit-identical to a serial run of the same kernels.
//!
//! Everything lives in one `#[test]` so the environment variable is set
//! exactly once, before any pool touch.

use posit::{PositFormat, Rounding};
use posit_tensor::{gemm, par_map_indexed, serial_scope, Backend, Operand, PositGemm};

#[test]
fn pooled_kernels_match_serial_bit_for_bit() {
    std::env::set_var("POSIT_TENSOR_THREADS", "4");

    // f32 GEMM, big enough to cross the dispatch thresholds.
    let (m, k, n) = (96, 48, 64);
    let a: Vec<f32> = (0..m * k)
        .map(|i| ((i * 7 % 23) as f32 - 11.0) * 0.125)
        .collect();
    let b: Vec<f32> = (0..k * n)
        .map(|i| ((i * 5 % 19) as f32 - 9.0) * 0.25)
        .collect();
    let mut c_pool = vec![0.0f32; m * n];
    gemm::gemm(m, k, n, &a, &b, &mut c_pool);
    let mut c_serial = vec![0.0f32; m * n];
    serial_scope(|| gemm::gemm(m, k, n, &a, &b, &mut c_serial));
    assert_eq!(c_pool, c_serial, "f32 gemm pool vs serial");

    // Posit quire GEMM through the same pooled row split.
    let fmt = PositFormat::of(8, 1);
    let kernel = PositGemm::new(fmt, Rounding::NearestEven);
    let pa = kernel.encode_plane(&a);
    let pb = kernel.encode_plane(&b);
    let mut q_pool = vec![0.0f32; m * n];
    kernel.gemm(m, k, n, &pa, &pb, &mut q_pool);
    let mut q_serial = vec![0.0f32; m * n];
    serial_scope(|| kernel.gemm(m, k, n, &pa, &pb, &mut q_serial));
    assert_eq!(q_pool, q_serial, "posit gemm pool vs serial");
    // And repeated pooled runs are deterministic.
    let mut q_again = vec![0.0f32; m * n];
    kernel.gemm(m, k, n, &pa, &pb, &mut q_again);
    assert_eq!(q_pool, q_again, "pooled run determinism");

    // Thin-lane fallback: an fc1-shaped GEMM (m = 32, k = 256, n = 128)
    // clears the total-work gate exactly, but on this 4-thread budget it
    // would split into two 16-row lanes of 2^19 MACs each — too little
    // work per lane to amortize dispatch. `planned_lanes` must keep it
    // serial, while a 128-row problem with the same per-row work still
    // fans out to all four lanes.
    assert_eq!(
        gemm::planned_lanes(32, 32 * 256 * 128),
        1,
        "fc1 shape serial"
    );
    assert_eq!(
        gemm::planned_lanes(128, 128 * 256 * 128),
        4,
        "wide shape parallel"
    );
    // The serial fallback is still bit-identical to a forced-serial run.
    let (mf, kf, nf) = (32, 256, 128);
    let af: Vec<f32> = (0..mf * kf)
        .map(|i| ((i * 29 % 41) as f32 - 20.0) * 0.0625)
        .collect();
    let bf: Vec<f32> = (0..kf * nf)
        .map(|i| ((i * 23 % 37) as f32 - 18.0) * 0.125)
        .collect();
    let kern16 = PositGemm::new(PositFormat::of(16, 1), Rounding::NearestEven);
    let paf = kern16.encode_plane(&af);
    let pbf = kern16.encode_plane(&bf);
    let mut qf_pool = vec![0.0f32; mf * nf];
    kern16.gemm(mf, kf, nf, &paf, &pbf, &mut qf_pool);
    let mut qf_serial = vec![0.0f32; mf * nf];
    serial_scope(|| kern16.gemm(mf, kf, nf, &paf, &pbf, &mut qf_serial));
    assert_eq!(qf_pool, qf_serial, "fc1 shape pool vs serial");

    // Uneven lane split: row counts that do not divide by the 4-lane
    // budget (37 = 9·4+1) and a 1-row degenerate batch (fewer rows than
    // lanes, so some lanes receive no work). Pool ≡ serial either way.
    for (mu, ku, nu) in [(37, 23, 29), (1, 48, 64)] {
        let au: Vec<f32> = (0..mu * ku)
            .map(|i| ((i * 13 % 31) as f32 - 15.0) * 0.0625)
            .collect();
        let bu: Vec<f32> = (0..ku * nu)
            .map(|i| ((i * 17 % 29) as f32 - 14.0) * 0.125)
            .collect();
        let mut cu_pool = vec![0.0f32; mu * nu];
        gemm::gemm(mu, ku, nu, &au, &bu, &mut cu_pool);
        let mut cu_serial = vec![0.0f32; mu * nu];
        serial_scope(|| gemm::gemm(mu, ku, nu, &au, &bu, &mut cu_serial));
        assert_eq!(cu_pool, cu_serial, "uneven f32 gemm {mu}x{ku}x{nu}");

        let pau = kernel.encode_plane(&au);
        let pbu = kernel.encode_plane(&bu);
        let mut qu_pool = vec![0.0f32; mu * nu];
        kernel.gemm(mu, ku, nu, &pau, &pbu, &mut qu_pool);
        let mut qu_serial = vec![0.0f32; mu * nu];
        serial_scope(|| kernel.gemm(mu, ku, nu, &pau, &pbu, &mut qu_serial));
        assert_eq!(qu_pool, qu_serial, "uneven posit gemm {mu}x{ku}x{nu}");
    }

    // Shard-protocol gradient buffers on the pooled backend: a 37-sample
    // batch (not divisible by the lane count) split unevenly, and the
    // 1-shard degenerate case, every shard accumulated into one buffer,
    // must round to the serial buffer's grads bit-for-bit.
    let bwd = Backend::PositQuire {
        fmt: PositFormat::of(16, 1),
        rounding: Rounding::NearestEven,
    };
    let (batch, o, kin) = (37, 5, 7);
    let dy: Vec<f32> = (0..batch * o)
        .map(|i| ((i * 3 % 17) as f32 - 8.0) * 0.5)
        .collect();
    let xs: Vec<f32> = (0..batch * kin)
        .map(|i| ((i * 11 % 13) as f32 - 6.0) * 0.25)
        .collect();
    let dyp = bwd.quire_operand_plane(Operand::F32(&dy)).unwrap();
    let xp = bwd.quire_operand_plane(Operand::F32(&xs)).unwrap();
    let margin = dyp.quire_margin() + xp.quire_margin();
    let mut serial_buf = bwd.grad_quire_buf(o * kin, margin, batch).unwrap();
    serial_buf.accumulate_at_b(o, batch, kin, &dyp, &xp);
    let mut want = vec![0.0f32; o * kin];
    serial_buf.round_into(&mut want);
    for splits in [vec![batch], vec![19, 18], vec![9, 9, 9, 10], vec![36, 1]] {
        let mut total = bwd.grad_quire_buf(o * kin, margin, batch).unwrap();
        let mut start = 0usize;
        for &rows in &splits {
            let end = start + rows;
            let dys = bwd
                .quire_operand_plane(Operand::F32(&dy[start * o..end * o]))
                .unwrap();
            let xss = bwd
                .quire_operand_plane(Operand::F32(&xs[start * kin..end * kin]))
                .unwrap();
            total.accumulate_at_b(o, rows, kin, &dys, &xss);
            start = end;
        }
        let mut got = vec![0.0f32; o * kin];
        total.round_into(&mut got);
        let bits: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
        let want_bits: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits, want_bits, "shard split {splits:?}");
    }

    // par_map_indexed across the pool preserves order and runs every item
    // exactly once.
    let items: Vec<usize> = (0..1001).collect();
    let out = par_map_indexed(&items, 2, |i, &x| {
        assert_eq!(i, x);
        x * 3 + 1
    });
    for (i, v) in out.iter().enumerate() {
        assert_eq!(*v, i * 3 + 1);
    }

    // A panicking task must quiesce the region, report, and leave the pool
    // serviceable.
    let result = std::panic::catch_unwind(|| {
        par_map_indexed(&items, 2, |_, &x| {
            if x == 500 {
                panic!("boom");
            }
            x
        })
    });
    assert!(result.is_err(), "panic must propagate out of the region");
    let out = par_map_indexed(&items, 2, |_, &x| x + 1);
    assert_eq!(out.len(), items.len(), "pool survives a panicked region");
}
