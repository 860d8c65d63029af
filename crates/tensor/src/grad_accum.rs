//! Exact gradient accumulation buffers for deterministic sharded steps.
//!
//! A training step may split its mini-batch into row shards that run one
//! after another. With f32 partial sums the split leaks into the result —
//! the reason sharded and distributed training is famously
//! non-reproducible. The quire removes the leak: every product of a
//! gradient GEMM lands in an exact fixed-point accumulator, every shard
//! adds into the *same* accumulator, and the batch's sum rounds to a posit
//! exactly once. The rounded gradient is therefore a pure function of the
//! product multiset — independent of shard count, shard boundaries and
//! accumulation order.
//!
//! [`GradQuireBuf`] packages that for a whole gradient tensor: one exact
//! accumulator per element, a single [`GradQuireBuf::round_into`] at the
//! end of the batch, and the kernels' zero/NaR element conventions. When
//! the *whole batch's* reduction depth `k_total` fits (the same accounting
//! as [`NarrowQuire::try_new`], so no shard can overflow it), each
//! accumulator is one `i128` fixed-point sum: every call computes its dots
//! with the GEMM kernels' integer loop (`posit_gemm::word_dots`)
//! and adds each, shifted onto the buffer's fixed point, into its `i128`.
//! Otherwise each element gets a wide limb-array [`Quire`].

use crate::posit_gemm::{dot_bits, side, word_dots, PositPlane, Side, Unpacked, Word, WordPanel};
use posit::{NarrowQuire, PositFormat, Quire, Rounding};

/// One exact quire accumulator per gradient element, fed by every shard
/// of a batch and rounded once per optimizer step.
#[derive(Debug, Clone)]
pub struct GradQuireBuf {
    fmt: PositFormat,
    rounding: Rounding,
    margin: u32,
    accs: Accs,
}

#[derive(Debug, Clone)]
enum Accs {
    /// Exact sums in units of `2^emin`, `emin = 2·min_scale − margin`:
    /// the lowest fixed point any operand pair inside the margin can
    /// produce, so every call's dots align to it with an exact left shift
    /// of `e_a + e_b + margin ≤ 2·margin` bits. The whole batch then stays
    /// under `2^(4·max_scale + 2·margin + ⌈log2 k_total⌉)` in magnitude —
    /// the [`NarrowQuire::try_new`] budget, shift included.
    Fixed {
        emin: i32,
        sums: Vec<i128>,
        nar: Vec<bool>,
    },
    Wide(Vec<Quire>),
}

impl GradQuireBuf {
    /// A zeroed buffer of `len` accumulators for `fmt` products whose
    /// operand planes carry at most `margin` total scale-shift bits.
    ///
    /// `k_total` is the reduction depth of the *whole* batch (every product
    /// that will ever be accumulated into one element, across all shards):
    /// it drives the fixed-point-vs-wide choice, so the batch's total can
    /// never overflow the chosen representation.
    ///
    /// [`Rounding::Stochastic`] degrades to nearest-even like the kernels
    /// (no per-element random stream here either).
    pub fn new(
        fmt: PositFormat,
        rounding: Rounding,
        margin: u32,
        k_total: usize,
        len: usize,
    ) -> GradQuireBuf {
        let rounding = if rounding == Rounding::Stochastic {
            Rounding::NearestEven
        } else {
            rounding
        };
        // The budget implies `4·max_scale + 2 ≤ 127`, so the format's
        // words fit an i64 and every call's dot has an integer loop.
        let accs = match NarrowQuire::try_new(fmt, margin, k_total.max(1)) {
            Some(_) => Accs::Fixed {
                emin: 2 * fmt.min_scale() - margin as i32,
                sums: vec![0; len],
                nar: vec![false; len],
            },
            None => Accs::Wide(vec![Quire::with_margin(fmt, margin); len]),
        };
        GradQuireBuf {
            fmt,
            rounding,
            margin,
            accs,
        }
    }

    /// Accumulator count (one per gradient element).
    pub fn len(&self) -> usize {
        match &self.accs {
            Accs::Fixed { sums, .. } => sums.len(),
            Accs::Wide(v) => v.len(),
        }
    }

    /// True iff the buffer holds no accumulators.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The format the accumulators round to.
    pub fn format(&self) -> PositFormat {
        self.fmt
    }

    /// True iff the `i128` fixed-point representation was chosen.
    pub fn is_narrow(&self) -> bool {
        matches!(self.accs, Accs::Fixed { .. })
    }

    fn check_operands(&self, a: &PositPlane, b: &PositPlane) {
        assert_eq!(a.format(), self.fmt, "A plane format");
        assert_eq!(b.format(), self.fmt, "B plane format");
        assert!(
            a.quire_margin() + b.quire_margin() <= self.margin,
            "operand scale shifts exceed the buffer's construction margin"
        );
    }

    /// `buf[i, j] += dot(a_i, b_j)` over the panel rows of both sides.
    fn accumulate(&mut self, m: usize, k: usize, n: usize, a: Side<'_>, b: Side<'_>) {
        match &mut self.accs {
            Accs::Fixed { sums, nar, .. } => {
                let shift = (a.plane.scale_exp() + b.plane.scale_exp() + self.margin as i32) as u32;
                match dot_bits(self.fmt, k) {
                    Some(64) => add_dots::<i32, 4>(sums, nar, m, k, n, a, b, shift),
                    Some(_) => add_dots::<i64, 2>(sums, nar, m, k, n, a, b, shift),
                    None => unreachable!("the buffer budget covers every call's dot"),
                }
            }
            Accs::Wide(v) => {
                // The two layouts the public entry points pass: both
                // sides transposed (`[k, m]`, `[k, n]`) or neither.
                debug_assert_eq!(a.transposed, b.transposed);
                let (ae, be) = (a.plane.elems(), b.plane.elems());
                if a.transposed {
                    for t in 0..k {
                        let b_row = &be[t * n..(t + 1) * n];
                        for (i, &x) in ae[t * m..(t + 1) * m].iter().enumerate() {
                            if x.sig == 0 && !x.is_nar() {
                                continue;
                            }
                            for (q, &y) in v[i * n..(i + 1) * n].iter_mut().zip(b_row) {
                                wide_mac(q, x, y);
                            }
                        }
                    }
                } else {
                    for (i, a_run) in ae.chunks_exact(k.max(1)).take(m).enumerate() {
                        for (j, b_run) in be.chunks_exact(k.max(1)).take(n).enumerate() {
                            let q = &mut v[i * n + j];
                            for (&x, &y) in a_run.iter().zip(b_run) {
                                wide_mac(q, x, y);
                            }
                        }
                    }
                }
            }
        }
    }

    /// `buf[m,n] += aᵀ[m,k]·b[k,n]` with `a` stored `[k, m]` — the exact
    /// accumulation twin of [`crate::PositGemm::gemm_at_b`], minus the
    /// rounding (which happens once, in [`GradQuireBuf::round_into`]). This
    /// is the linear layer's `ΔW += dYᵀ·X` shape.
    ///
    /// # Panics
    ///
    /// Panics on format/length mismatches or operand margins beyond the
    /// buffer's construction margin.
    pub fn accumulate_at_b(
        &mut self,
        m: usize,
        k: usize,
        n: usize,
        a_t: &PositPlane,
        b: &PositPlane,
    ) {
        self.check_operands(a_t, b);
        assert_eq!(a_t.len(), k * m, "A^T length");
        assert_eq!(b.len(), k * n, "B length");
        assert_eq!(self.len(), m * n, "buffer length");
        self.accumulate(m, k, n, side(a_t, m, true), side(b, n, true));
    }

    /// `buf[m,n] += a[m,k]·bᵀ[k,n]` with `b` stored `[n, k]` — the exact
    /// accumulation twin of [`crate::PositGemm::gemm_a_bt`]. This is the
    /// conv layer's per-sample `ΔW += dY·colᵀ` shape.
    ///
    /// # Panics
    ///
    /// Panics on format/length mismatches or operand margins beyond the
    /// buffer's construction margin.
    pub fn accumulate_a_bt(
        &mut self,
        m: usize,
        k: usize,
        n: usize,
        a: &PositPlane,
        b_t: &PositPlane,
    ) {
        self.check_operands(a, b_t);
        assert_eq!(a.len(), m * k, "A length");
        assert_eq!(b_t.len(), n * k, "B^T length");
        assert_eq!(self.len(), m * n, "buffer length");
        self.accumulate(m, k, n, side(a, m, false), side(b_t, n, false));
    }

    /// `buf[idx(r, c)] += p[r, c]` over a `[rows, cols]` plane (each value
    /// as `x · 1`).
    fn add_plane(
        &mut self,
        rows: usize,
        cols: usize,
        p: &PositPlane,
        idx: impl Fn(usize, usize) -> usize,
    ) {
        assert_eq!(p.format(), self.fmt, "plane format");
        assert!(
            p.quire_margin() <= self.margin,
            "operand scale shift exceeds the buffer's construction margin"
        );
        assert_eq!(p.len(), rows * cols, "plane length");
        let pe = p.elems();
        match &mut self.accs {
            Accs::Fixed { sums, nar, .. } => {
                // x·1 in buffer units: word(x) · word(1) = word(x) ·
                // 2^max_scale, shifted by e + margin ≥ 0 — at most
                // 2^(3·max_scale + 2·margin) per term, inside the budget.
                let fmt = self.fmt;
                let base = 63 + fmt.min_scale() + p.scale_exp();
                let shift = (fmt.max_scale() + p.scale_exp() + self.margin as i32) as u32;
                for r in 0..rows {
                    for (c, &x) in pe[r * cols..(r + 1) * cols].iter().enumerate() {
                        let i = idx(r, c);
                        nar[i] |= x.is_nar();
                        sums[i] += (crate::posit_gemm::word_of(x, base) as i128) << shift;
                    }
                }
            }
            Accs::Wide(v) => {
                for r in 0..rows {
                    for (c, &x) in pe[r * cols..(r + 1) * cols].iter().enumerate() {
                        wide_mac(&mut v[idx(r, c)], x, Unpacked::ONE);
                    }
                }
            }
        }
    }

    /// `buf[j] += Σ_r p[r, j]` over a `[rows, cols]` plane — the exact
    /// accumulation of a bias gradient's column sums (`Δb += Σ_n dY`).
    ///
    /// # Panics
    ///
    /// Panics on format/length mismatches or an operand margin beyond the
    /// buffer's construction margin.
    pub fn accumulate_col_sums(&mut self, rows: usize, cols: usize, p: &PositPlane) {
        assert_eq!(self.len(), cols, "buffer length");
        self.add_plane(rows, cols, p, |_, c| c);
    }

    /// `buf[r] += Σ_c p[r, c]` over a `[rows, cols]` plane — the exact
    /// accumulation of a conv bias gradient's per-channel sums
    /// (`Δb[oc] += Σ_spatial dY[oc, ·]` per sample).
    ///
    /// # Panics
    ///
    /// Panics on format/length mismatches or an operand margin beyond the
    /// buffer's construction margin.
    pub fn accumulate_row_sums(&mut self, rows: usize, cols: usize, p: &PositPlane) {
        assert_eq!(self.len(), rows, "buffer length");
        self.add_plane(rows, cols, p, |r, _| r);
    }

    /// Round every accumulator once and add the results into `out` — the
    /// single `P(·)` edge of the whole batch's gradient, bit-identical to a
    /// one-shard run because the exact sums are.
    ///
    /// # Panics
    ///
    /// Panics if `out` has a different length.
    pub fn round_into(&self, out: &mut [f32]) {
        assert_eq!(out.len(), self.len(), "output length");
        let lut = posit::lut::to_f32_lut(self.fmt);
        let store = |code: u64, o: &mut f32| {
            *o += match lut {
                Some(l) => l[code as usize],
                None => self.fmt.to_f32(code),
            };
        };
        match &self.accs {
            Accs::Fixed { emin, sums, nar } => {
                for ((&s, &poisoned), o) in sums.iter().zip(nar).zip(out) {
                    let mut q = NarrowQuire::from_sum(self.fmt, *emin, s);
                    if poisoned {
                        q.set_nar();
                    }
                    store(q.to_posit(self.rounding, 0), o);
                }
            }
            Accs::Wide(v) => {
                for (q, o) in v.iter().zip(out) {
                    store(q.to_posit(self.rounding, 0), o);
                }
            }
        }
    }
}

/// The fixed-point accumulate: both sides become word panels, the integer
/// loop computes each call's exact dot in a register, and the dot lands in
/// its element's `i128` shifted left by `shift` onto the buffer's fixed
/// point.
#[allow(clippy::too_many_arguments)]
fn add_dots<W: Word, const TN: usize>(
    sums: &mut [i128],
    nar: &mut [bool],
    m: usize,
    k: usize,
    n: usize,
    a: Side<'_>,
    b: Side<'_>,
    shift: u32,
) {
    let ap = WordPanel::<W>::build(a, k);
    let bp = WordPanel::<W>::build(b, k);
    word_dots::<W, TN>(&ap.words, &bp.words, m, k, n, |i, j, dot| {
        sums[i * n + j] += dot << shift;
        nar[i * n + j] |= ap.nar[i] || bp.nar[j];
    });
}

/// One multiply-accumulate into a wide accumulator, with the kernels'
/// conventions: zero operands are skipped, NaR absorbs.
#[inline]
fn wide_mac(q: &mut Quire, x: Unpacked, y: Unpacked) {
    if x.sig == 0 || y.sig == 0 {
        if x.is_nar() || y.is_nar() {
            q.set_nar();
        }
        return;
    }
    q.add_product_parts(
        x.neg != y.neg,
        x.scale + y.scale,
        (x.sig as u128) * (y.sig as u128),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::posit_gemm::PositGemm;

    fn plane(fmt: PositFormat, xs: &[f32]) -> PositPlane {
        PositPlane::from_f32(fmt, xs, Rounding::NearestEven)
    }

    #[test]
    fn one_shard_accumulate_matches_the_gemm() {
        // A single buffer fed the whole batch must round to exactly what
        // the GEMM kernels produce — the anchor that makes "1 shard" and
        // "serial" the same thing.
        let fmt = PositFormat::of(16, 1);
        let (o, n, feat) = (3, 7, 5);
        let dy: Vec<f32> = (0..n * o)
            .map(|i| ((i * 13 % 23) as f32 - 11.0) * 0.25)
            .collect();
        let x: Vec<f32> = (0..n * feat)
            .map(|i| ((i * 7 % 19) as f32 - 9.0) * 0.125)
            .collect();
        let g = PositGemm::new(fmt, Rounding::NearestEven);
        let mut want = vec![0.0f32; o * feat];
        g.gemm_at_b(o, n, feat, &plane(fmt, &dy), &plane(fmt, &x), &mut want);

        let mut buf = GradQuireBuf::new(fmt, Rounding::NearestEven, 0, n, o * feat);
        buf.accumulate_at_b(o, n, feat, &plane(fmt, &dy), &plane(fmt, &x));
        let mut got = vec![0.0f32; o * feat];
        buf.round_into(&mut got);
        assert_eq!(got, want, "at_b");

        let mut want = vec![0.0f32; o * feat];
        let dy_t: Vec<f32> = {
            // dy as [o, n] for the a_bt shape check
            let mut t = vec![0.0f32; o * n];
            for r in 0..n {
                for c in 0..o {
                    t[c * n + r] = dy[r * o + c];
                }
            }
            t
        };
        let x_t: Vec<f32> = {
            let mut t = vec![0.0f32; feat * n];
            for r in 0..n {
                for c in 0..feat {
                    t[c * n + r] = x[r * feat + c];
                }
            }
            t
        };
        g.gemm_a_bt(o, n, feat, &plane(fmt, &dy_t), &plane(fmt, &x_t), &mut want);
        let mut buf = GradQuireBuf::new(fmt, Rounding::NearestEven, 0, n, o * feat);
        buf.accumulate_a_bt(o, n, feat, &plane(fmt, &dy_t), &plane(fmt, &x_t));
        let mut got = vec![0.0f32; o * feat];
        buf.round_into(&mut got);
        assert_eq!(got, want, "a_bt");
    }

    #[test]
    fn sharded_accumulate_matches_one_shard_any_split() {
        // Shard the batch every possible way, feeding every shard into one
        // buffer (in reverse shard order, too): the result must equal the
        // 1-shard buffer bit-for-bit.
        let fmt = PositFormat::of(8, 1);
        let (o, n, feat) = (2, 12, 3);
        let dy: Vec<f32> = (0..n * o)
            .map(|i| ((i * 5 % 17) as f32 - 8.0) * 0.5)
            .collect();
        let x: Vec<f32> = (0..n * feat)
            .map(|i| ((i * 11 % 13) as f32 - 6.0) * 0.25)
            .collect();
        let mut whole = GradQuireBuf::new(fmt, Rounding::NearestEven, 0, n, o * feat);
        whole.accumulate_at_b(o, n, feat, &plane(fmt, &dy), &plane(fmt, &x));
        let mut want = vec![0.0f32; o * feat];
        whole.round_into(&mut want);

        for shards in 1..=n {
            let base = n / shards;
            let extra = n % shards;
            let mut bounds = Vec::new();
            let mut start = 0;
            for s in 0..shards {
                let rows = base + usize::from(s < extra);
                bounds.push((start, rows));
                start += rows;
            }
            for reversed in [false, true] {
                let mut acc = GradQuireBuf::new(fmt, Rounding::NearestEven, 0, n, o * feat);
                let order: Vec<_> = if reversed {
                    bounds.iter().rev().collect()
                } else {
                    bounds.iter().collect()
                };
                for &(start, rows) in order {
                    acc.accumulate_at_b(
                        o,
                        rows,
                        feat,
                        &plane(fmt, &dy[start * o..(start + rows) * o]),
                        &plane(fmt, &x[start * feat..(start + rows) * feat]),
                    );
                }
                let mut got = vec![0.0f32; o * feat];
                acc.round_into(&mut got);
                assert_eq!(got, want, "{shards} shards, reversed {reversed}");
            }
        }
    }

    #[test]
    fn col_sums_are_shard_invariant_and_nar_absorbs() {
        let fmt = PositFormat::of(16, 1);
        let (rows, cols) = (9, 4);
        let mut dy: Vec<f32> = (0..rows * cols)
            .map(|i| ((i * 3 % 11) as f32 - 5.0) * 0.5)
            .collect();
        dy[cols + 2] = f32::NAN; // column 2 poisoned
        let mut whole = GradQuireBuf::new(fmt, Rounding::NearestEven, 0, rows, cols);
        whole.accumulate_col_sums(rows, cols, &plane(fmt, &dy));
        let mut want = vec![0.0f32; cols];
        whole.round_into(&mut want);
        assert!(want[2].is_nan(), "NaR absorbs into its column");
        assert!(!want[0].is_nan() && !want[3].is_nan());

        // Second shard first: the NaR row lands after finite sums.
        let mut acc = GradQuireBuf::new(fmt, Rounding::NearestEven, 0, rows, cols);
        acc.accumulate_col_sums(5, cols, &plane(fmt, &dy[4 * cols..]));
        acc.accumulate_col_sums(4, cols, &plane(fmt, &dy[..4 * cols]));
        let mut got = vec![0.0f32; cols];
        acc.round_into(&mut got);
        for j in 0..cols {
            if want[j].is_nan() {
                assert!(got[j].is_nan());
            } else {
                assert_eq!(got[j], want[j]);
            }
        }
    }

    #[test]
    fn row_sums_match_transposed_col_sums() {
        let fmt = PositFormat::of(16, 1);
        let (rows, cols) = (3, 5);
        let xs: Vec<f32> = (0..rows * cols)
            .map(|i| ((i * 7 % 9) as f32 - 4.0) * 0.5)
            .collect();
        let mut by_row = GradQuireBuf::new(fmt, Rounding::NearestEven, 0, cols, rows);
        by_row.accumulate_row_sums(rows, cols, &plane(fmt, &xs));
        let mut got = vec![0.0f32; rows];
        by_row.round_into(&mut got);
        let mut xt = vec![0.0f32; rows * cols];
        for r in 0..rows {
            for c in 0..cols {
                xt[c * rows + r] = xs[r * cols + c];
            }
        }
        let mut by_col = GradQuireBuf::new(fmt, Rounding::NearestEven, 0, cols, rows);
        by_col.accumulate_col_sums(cols, rows, &plane(fmt, &xt));
        let mut want = vec![0.0f32; rows];
        by_col.round_into(&mut want);
        assert_eq!(got, want);
    }

    #[test]
    fn deep_k_total_picks_the_wide_representation() {
        // (16,1) narrows up to K=8192; a batch-wide reduction depth beyond
        // that must fall back to wide quires — and still accumulate and
        // round the same values.
        let fmt = PositFormat::of(16, 1);
        let narrow = GradQuireBuf::new(fmt, Rounding::NearestEven, 0, 8192, 4);
        assert!(narrow.is_narrow());
        let wide = GradQuireBuf::new(fmt, Rounding::NearestEven, 0, 8193, 4);
        assert!(!wide.is_narrow());
        let xs = [1.5f32, -0.25, 3.0, 0.0625];
        let mut a = GradQuireBuf::new(fmt, Rounding::NearestEven, 0, 8193, 4);
        a.accumulate_col_sums(1, 4, &plane(fmt, &xs));
        let mut out = vec![0.0f32; 4];
        a.round_into(&mut out);
        assert_eq!(out, xs.to_vec());
    }
}
