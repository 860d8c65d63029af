//! Exact gradient accumulation: one accumulator per weight, one rounding
//! per training step.
//!
//! A training step computes its mini-batch's `ΔW` in one batch, and every
//! product of every gradient GEMM lands in an exact fixed-point
//! accumulator. The batch's sum then rounds to a posit exactly once. The
//! rounded gradient is therefore a pure function of the product multiset:
//! it does not depend on how the layer splits its calls (a conv layer
//! makes one per sample), on their order, or on the thread count.
//!
//! [`GradQuireBuf`] packages that for a whole gradient tensor: one exact
//! accumulator per element, a single [`GradQuireBuf::round_into`] at the
//! end of the batch, and the kernels' zero/NaR element conventions. The
//! whole batch's reduction depth `k_total` and the operands' scale-shift
//! `margin` pick one of three representations ([`GradQuireBuf::sum_bits`]):
//!
//! * **`i128`**, when `4·max_scale + 2·margin + 2 + ⌈log2 k_total⌉ ≤ 127`
//!   (the [`posit::NarrowQuire::try_new`] budget): posit(8,·) and
//!   posit(16,1);
//! * **256 bits** (a [`Sum256`], four stack limbs), when the same sum is
//!   `≤ 255` and every call's significand dot fits its `i128` lanes:
//!   posit(16,2), the paper's 16-bit error format;
//! * the heap limb-array [`Quire`] otherwise.
//!
//! Both fixed-point representations carry one NaR flag per element. Every
//! call converts its operands to words once, computes its dots with the
//! GEMM kernels' integer loop (`posit_gemm::word_dots`) on the worker
//! pool, and adds each dot, shifted onto the buffer's fixed point, into
//! its element's sum.

use crate::gemm::par_rows;
use crate::posit_gemm::{
    clog2, code_to_f32, dot_bits, lanes_fit, side, word_dots, Exact, Grid, PositPlane, Side,
    SigWord, Unpacked, Word, WordPanel,
};
use posit::{PositFormat, Quire, Rounding, Sum256};

/// One exact quire accumulator per gradient element, fed by every call of
/// a batch and rounded once per optimizer step.
#[derive(Debug, Clone)]
pub struct GradQuireBuf {
    fmt: PositFormat,
    rounding: Rounding,
    margin: u32,
    accs: Accs,
}

/// The per-element sums. The fixed-point sums are in units of `2^emin`,
/// `emin = 2·min_scale − margin`: the lowest fixed point any operand pair
/// inside the margin can produce, so every call's dots align to it with an
/// exact left shift of `e_a + e_b + margin ≤ 2·margin` bits. The whole
/// batch then stays under `2^(4·max_scale + 2·margin + ⌈log2 k_total⌉)` in
/// magnitude — the budget [`GradQuireBuf::sum_bits`] checks, shift
/// included.
#[derive(Debug, Clone)]
enum Accs {
    Fixed128 { sums: Vec<i128>, nar: Vec<bool> },
    Fixed256 { sums: Vec<Sum256>, nar: Vec<bool> },
    Wide(Vec<Quire>),
}

impl GradQuireBuf {
    /// A zeroed buffer of `len` accumulators for `fmt` products whose
    /// operand planes carry at most `margin` total scale-shift bits.
    ///
    /// `k_total` is the reduction depth of the *whole* batch (every product
    /// that will ever be accumulated into one element, across all calls):
    /// it picks the representation, so the batch's total can never
    /// overflow it.
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
        let accs = match GradQuireBuf::sum_bits(fmt, margin, k_total) {
            Some(128) => Accs::Fixed128 {
                sums: vec![0; len],
                nar: vec![false; len],
            },
            Some(_) => Accs::Fixed256 {
                sums: vec![Sum256::default(); len],
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

    /// The width of the per-element sum a buffer for `fmt`, `margin` and
    /// `k_total` keeps: `Some(128)` (an `i128`), `Some(256)` (a
    /// [`Sum256`]) or `None` (a wide [`Quire`]).
    ///
    /// `need = 4·max_scale + 2·margin + 2 + ⌈log2 k_total⌉` bounds the
    /// batch's sum as above. `need ≤ 127` implies `2·max_scale ≤ 62`, and
    /// every call's `k ≤ k_total` then has a 64- or 128-bit dot. The
    /// 256-bit sums run every call on significand words, whose lanes must
    /// hold a depth-`k_total` dot.
    pub fn sum_bits(fmt: PositFormat, margin: u32, k_total: usize) -> Option<u32> {
        let need = 4 * fmt.max_scale() as u32 + 2 * margin + 2 + clog2(k_total);
        if need <= 127 {
            Some(128)
        } else if need <= 255 && lanes_fit(fmt, k_total) {
            Some(256)
        } else {
            None
        }
    }

    /// Accumulator count (one per gradient element).
    pub fn len(&self) -> usize {
        match &self.accs {
            Accs::Fixed128 { sums, .. } => sums.len(),
            Accs::Fixed256 { sums, .. } => sums.len(),
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
        let shift = (a.plane.scale_exp() + b.plane.scale_exp() + self.margin as i32) as u32;
        match &mut self.accs {
            Accs::Fixed128 { sums, nar } => match dot_bits(self.fmt, k) {
                Some(64) => add_dots::<i32, 4>(sums, nar, m, k, n, a, b, shift),
                Some(128) => add_dots::<i64, 2>(sums, nar, m, k, n, a, b, shift),
                _ => unreachable!("the buffer budget covers every call's dot"),
            },
            Accs::Fixed256 { sums, nar } => add_dots::<SigWord, 4>(sums, nar, m, k, n, a, b, shift),
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
        // x·1 in buffer units: word(x) · word(1) = word(x) · 2^max_scale,
        // shifted by e + margin ≥ 0 — at most 2^(3·max_scale + 2·margin)
        // per term, inside the budget.
        let shift = (self.fmt.max_scale() + p.scale_exp() + self.margin as i32) as u32;
        match &mut self.accs {
            Accs::Fixed128 { sums, nar } => add_values::<i64>(sums, nar, rows, cols, p, shift, idx),
            Accs::Fixed256 { sums, nar } => {
                add_values::<SigWord>(sums, nar, rows, cols, p, shift, idx)
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
    /// single `P(·)` edge of the whole batch's gradient, the same however
    /// the batch's calls were split or ordered because the exact sums are.
    /// Large buffers round on the worker pool, in the static row blocks of
    /// the GEMMs.
    ///
    /// # Panics
    ///
    /// Panics if `out` has a different length.
    pub fn round_into(&self, out: &mut [f32]) {
        assert_eq!(out.len(), self.len(), "output length");
        let (fmt, rounding) = (self.fmt, self.rounding);
        let emin = 2 * fmt.min_scale() - self.margin as i32;
        match &self.accs {
            Accs::Fixed128 { sums, nar } => {
                self.store(out, |i| sums[i].round(fmt, emin, nar[i], rounding))
            }
            Accs::Fixed256 { sums, nar } => {
                self.store(out, |i| sums[i].round(fmt, emin, nar[i], rounding))
            }
            Accs::Wide(v) => self.store(out, |i| v[i].to_posit(rounding, 0)),
        }
    }

    /// `out[i] += code(i)` as f32, on the pool for large buffers.
    fn store(&self, out: &mut [f32], code: impl Fn(usize) -> u64 + Sync) {
        let lut = posit::lut::to_f32_lut(self.fmt);
        let len = out.len();
        par_rows(len, 1, len * ROUND_WORK, out, |i0, block| {
            for (i, o) in block.iter_mut().enumerate() {
                *o += code_to_f32(self.fmt, lut, code(i0 + i));
            }
        });
    }
}

/// What rounding one exact sum costs, in integer multiply-accumulates:
/// the work [`GradQuireBuf::round_into`] declares to the pool's
/// thresholds per element.
const ROUND_WORK: usize = 32;

/// The fixed-point accumulate: both sides become word panels, the row
/// blocks run the integer loop on the pool, and each call's exact dot
/// lands in its element's sum shifted left by `shift` onto the buffer's
/// fixed point.
#[allow(clippy::too_many_arguments)]
fn add_dots<W: Word, const TN: usize>(
    sums: &mut [W::Exact],
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
    par_rows(m, n, m * k * n, sums, |row0, block| {
        let rows = block.len().checked_div(n).unwrap_or(0);
        let a_block = &ap.words[row0 * k..(row0 + rows) * k];
        word_dots::<W, TN>(a_block, &bp.words, rows, k, n, |i, j, dot| {
            W::add_sum(&mut block[i * n + j], dot, shift);
        });
    });
    if ap.nar.iter().chain(&bp.nar).any(|&x| x) {
        for (i, row) in nar.chunks_exact_mut(n.max(1)).take(m).enumerate() {
            for (poisoned, &b_nar) in row.iter_mut().zip(&bp.nar) {
                *poisoned |= ap.nar[i] || b_nar;
            }
        }
    }
}

/// `sums[idx(r, c)] += p[r, c] · 2^shift` over a `[rows, cols]` plane,
/// each value as its word on the plane's grid.
fn add_values<W: Word>(
    sums: &mut [W::Exact],
    nar: &mut [bool],
    rows: usize,
    cols: usize,
    p: &PositPlane,
    shift: u32,
    idx: impl Fn(usize, usize) -> usize,
) {
    let grid = Grid::of(p);
    let pe = p.elems();
    for r in 0..rows {
        for (c, &x) in pe[r * cols..(r + 1) * cols].iter().enumerate() {
            let i = idx(r, c);
            nar[i] |= x.is_nar();
            W::add_word(&mut sums[i], W::from_elem(x, grid), shift);
        }
    }
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
    fn pooled_accumulate_and_rounding_match_serial() {
        // A shape past the pool's work threshold, in both fixed-point
        // representations: the row blocks of the pooled accumulate and
        // rounding must give the serial run's bits.
        let (m, k, n) = (64, 32, 512);
        let dy: Vec<f32> = (0..k * m)
            .map(|i| ((i * 37 % 101) as f32 - 50.0) * 0.011)
            .collect();
        let x: Vec<f32> = (0..k * n)
            .map(|i| ((i * 53 % 89) as f32 - 44.0) * 0.07)
            .collect();
        for (fmt, bits) in [(PositFormat::of(8, 2), 128), (PositFormat::of(16, 2), 256)] {
            assert_eq!(GradQuireBuf::sum_bits(fmt, 0, k), Some(bits));
            let run = || {
                let mut buf = GradQuireBuf::new(fmt, Rounding::ToZero, 0, k, m * n);
                buf.accumulate_at_b(m, k, n, &plane(fmt, &dy), &plane(fmt, &x));
                let mut out = vec![0.0f32; m * n];
                buf.round_into(&mut out);
                out
            };
            let pooled = run();
            let serial = crate::workers::serial_scope(run);
            assert_eq!(pooled, serial, "{fmt}");
        }
    }

    #[test]
    fn deep_k_total_picks_the_wide_representation() {
        // Each representation up to its budget edge, then the next one —
        // and each still accumulates and rounds the same values:
        // (16,1) keeps an i128 up to K = 8192 and moves to 256 bits past
        // it; (16,2) holds 256 bits up to 2^(255 − 224 − 2·margin − 2)
        // and falls back to the limb quire beyond.
        let p16e1 = PositFormat::of(16, 1);
        let p16e2 = PositFormat::of(16, 2);
        for (fmt, margin, edge, last, next) in [
            (p16e1, 0, 8192, Some(128), Some(256)),
            (p16e2, 8, 8192, Some(256), None),
            (p16e2, 0, 1 << 29, Some(256), None),
        ] {
            assert_eq!(
                GradQuireBuf::sum_bits(fmt, margin, edge),
                last,
                "{fmt} margin {margin}"
            );
            assert_eq!(
                GradQuireBuf::sum_bits(fmt, margin, edge + 1),
                next,
                "{fmt} margin {margin}"
            );
            let xs = [1.5f32, -0.25, 3.0, 0.0625];
            for k_total in [edge, edge + 1] {
                let mut a = GradQuireBuf::new(fmt, Rounding::NearestEven, margin, k_total, 4);
                a.accumulate_col_sums(1, 4, &plane(fmt, &xs));
                a.accumulate_col_sums(1, 4, &plane(fmt, &xs));
                let mut out = vec![0.0f32; 4];
                a.round_into(&mut out);
                let want: Vec<f32> = xs.iter().map(|x| 2.0 * x).collect();
                assert_eq!(out, want, "{fmt} margin {margin} k_total {k_total}");
            }
        }
        // The mlp16 fc1 ΔW: margin 8, a batch of 32 — 247 bits.
        assert_eq!(GradQuireBuf::sum_bits(p16e2, 8, 32), Some(256));
    }
}
