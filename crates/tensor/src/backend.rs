//! The compute-backend switch: one dispatch point for every GEMM-shaped
//! operation in the workspace.
//!
//! Two backends implement the same `C += A·B` contracts as
//! [`crate::gemm`]:
//!
//! * [`Backend::F32`] — the plain blocked f32 kernels (the substrate the
//!   paper's GPU simulation runs on, with `P(·)` at the Fig. 3 edges);
//! * [`Backend::PositQuire`] — the decode-once [`crate::posit_gemm`] kernels:
//!   operands are unpacked once, every product accumulates exactly in a
//!   quire, and each output element is rounded exactly once.
//!
//! Operands arrive as [`Operand`]s, which carry either storage domain of
//! [`Tensor`]: a borrowed f32 slice, or a packed posit plane. A packed
//! operand whose format matches a [`Backend::PositQuire`] kernel is decoded
//! straight from its code words — no f32 staging buffer, no re-rounding,
//! and the Eq. 2 scale exponent it was encoded under is folded into the
//! decoded scales exactly. Every other combination decodes to f32 first
//! (the explicit round trip the packed path exists to avoid).
//!
//! Every GEMM goes through [`PreparedOperand::gemm_with`]: the left operand
//! is prepared under a backend ([`Backend::prepare_operand`]), the right one
//! is passed raw or prepared, and a [`Layout`] says which side is stored
//! transposed.
//!
//! The `nn` layers carry a `Backend` per direction (forward / backward), so
//! the trainer can A/B the two paths without touching layer code.

use crate::gemm;
use crate::posit_gemm::{PositGemm, PositPlane};
use crate::storage::{PackedBits, Storage};
use crate::tensor::Tensor;
use posit::{PositFormat, Rounding};
use std::borrow::Cow;

/// A borrowed GEMM operand in either storage domain.
#[derive(Clone, Copy)]
pub enum Operand<'a> {
    /// Dense f32 elements.
    F32(&'a [f32]),
    /// Packed posit code words (see [`crate::Storage::Posit`]).
    Posit {
        /// The packed code words.
        bits: &'a PackedBits,
        /// Their posit format.
        fmt: PositFormat,
        /// The Eq. 2 scale exponent applied at encode time.
        scale_exp: i32,
    },
}

impl<'a> Operand<'a> {
    /// Element count.
    pub fn len(&self) -> usize {
        match self {
            Operand::F32(xs) => xs.len(),
            Operand::Posit { bits, .. } => bits.len(),
        }
    }

    /// True iff no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The operand's values as f32: a free borrow in the f32 domain, a
    /// decode (`posit · 2^scale_exp`) in the posit domain.
    fn to_f32_vec(self) -> Cow<'a, [f32]> {
        match self {
            Operand::F32(xs) => Cow::Borrowed(xs),
            Operand::Posit {
                bits,
                fmt,
                scale_exp,
            } => {
                let sf = (scale_exp as f32).exp2();
                Cow::Owned(bits.iter().map(|b| fmt.to_f32(b) * sf).collect())
            }
        }
    }
}

impl<'a> From<&'a [f32]> for Operand<'a> {
    fn from(xs: &'a [f32]) -> Operand<'a> {
        Operand::F32(xs)
    }
}

impl Tensor {
    /// Borrow this tensor as a GEMM operand in its storage domain.
    pub fn operand(&self) -> Operand<'_> {
        match self.storage() {
            Storage::F32(v) => Operand::F32(v),
            Storage::Posit {
                bits,
                format,
                scale_exp,
            } => Operand::Posit {
                bits,
                fmt: *format,
                scale_exp: *scale_exp,
            },
        }
    }
}

/// Build a quire-kernel plane for an operand: straight from the packed
/// code words when the formats agree (decode-once, no f32 staging),
/// through a decode→re-encode otherwise.
fn quire_plane(kernel: &PositGemm, op: Operand<'_>) -> PositPlane {
    match op {
        Operand::Posit {
            bits,
            fmt,
            scale_exp,
        } if fmt == kernel.format() => PositPlane::from_packed(fmt, bits, scale_exp),
        _ => kernel.encode_plane(&op.to_f32_vec()),
    }
}

/// Which kernel family executes a GEMM, and in which number system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// Plain f32 kernels (default).
    #[default]
    F32,
    /// Posit-native: decode-once planes with exact quire accumulation.
    PositQuire {
        /// Operand/result format.
        fmt: PositFormat,
        /// Rounding mode for the single rounding on store.
        rounding: Rounding,
    },
}

impl Backend {
    /// Short stable name (`f32` | `posit-quire`), e.g. for bench labels and
    /// CLI flags.
    pub fn name(&self) -> &'static str {
        match self {
            Backend::F32 => "f32",
            Backend::PositQuire { .. } => "posit-quire",
        }
    }

    /// Prepare a left operand once for repeated GEMMs under this backend —
    /// the decode-once contract extended across calls (e.g. a conv batch
    /// loop where the weight tile is the `A` operand of every sample's
    /// GEMM). For [`Backend::F32`] this is a free borrow; for the quire
    /// backend it pays the decode exactly once.
    pub fn prepare<'a>(&self, xs: &'a [f32]) -> PreparedOperand<'a> {
        self.prepare_operand(Operand::F32(xs))
    }

    /// [`Backend::prepare`] for an operand in either storage domain. A
    /// packed posit operand matching a [`Backend::PositQuire`] format is
    /// decoded once from its code words with no f32 staging.
    pub fn prepare_operand<'a>(&self, op: Operand<'a>) -> PreparedOperand<'a> {
        let inner = match self {
            Backend::F32 => Prepared::F32(op.to_f32_vec()),
            Backend::PositQuire { fmt, rounding } => {
                let kernel = PositGemm::new(*fmt, *rounding);
                let plane = quire_plane(&kernel, op);
                Prepared::Quire { kernel, plane }
            }
        };
        PreparedOperand { inner }
    }

    /// For [`Backend::PositQuire`]: the decode-once operand plane this
    /// backend's GEMMs would build for `op` (packed fast path included);
    /// `None` for the f32 backend. This is the operand entry point of the
    /// exact gradient buffers ([`crate::GradQuireBuf`]), which must see
    /// byte-identical planes to the kernels for the 1-shard ≡ serial
    /// guarantee to hold.
    pub fn quire_operand_plane(&self, op: Operand<'_>) -> Option<PositPlane> {
        match self {
            Backend::PositQuire { fmt, rounding } => {
                let kernel = PositGemm::new(*fmt, *rounding);
                Some(quire_plane(&kernel, op))
            }
            Backend::F32 => None,
        }
    }

    /// For [`Backend::PositQuire`]: a zeroed [`crate::GradQuireBuf`] of
    /// `len` accumulators sized for this backend's format and rounding, a
    /// whole-batch reduction depth of `k_total`, and operand planes
    /// carrying at most `margin` total scale-shift bits; `None` for the
    /// f32 backend (exact sharded accumulation has no meaning there).
    pub fn grad_quire_buf(
        &self,
        len: usize,
        margin: u32,
        k_total: usize,
    ) -> Option<crate::GradQuireBuf> {
        match self {
            Backend::PositQuire { fmt, rounding } => Some(crate::GradQuireBuf::new(
                *fmt, *rounding, margin, k_total, len,
            )),
            Backend::F32 => None,
        }
    }
}

/// Which GEMM operand is stored transposed: the `c[m,n] += a·b` shapes
/// [`PreparedOperand::gemm_with`] computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// `c += a[m,k] · b[k,n]`.
    AB,
    /// `c += aᵀ · b`, with `a` stored `[k, m]`.
    AtB,
    /// `c += a · bᵀ`, with `b` stored `[n, k]`.
    ABt,
}

/// The right operand of [`PreparedOperand::gemm_with`]: raw, and prepared
/// per call under the left operand's kernel, or already prepared (one
/// [`Backend::prepare_operand`] shared by several GEMMs).
pub enum Rhs<'r, 'b> {
    /// An operand in either storage domain.
    Raw(Operand<'b>),
    /// An operand prepared under the same backend as the left one.
    Prepared(&'r PreparedOperand<'b>),
}

impl<'b> From<Operand<'b>> for Rhs<'_, 'b> {
    fn from(op: Operand<'b>) -> Self {
        Rhs::Raw(op)
    }
}

impl<'b> From<&'b [f32]> for Rhs<'_, 'b> {
    fn from(xs: &'b [f32]) -> Self {
        Rhs::Raw(Operand::F32(xs))
    }
}

impl<'r, 'b> From<&'r PreparedOperand<'b>> for Rhs<'r, 'b> {
    fn from(p: &'r PreparedOperand<'b>) -> Self {
        Rhs::Prepared(p)
    }
}

/// A GEMM operand prepared once under a [`Backend`] (see
/// [`Backend::prepare`]): the left operand of
/// [`PreparedOperand::gemm_with`], or a prepared right one.
pub struct PreparedOperand<'a> {
    inner: Prepared<'a>,
}

enum Prepared<'a> {
    F32(Cow<'a, [f32]>),
    Quire {
        kernel: PositGemm,
        plane: PositPlane,
    },
}

impl PreparedOperand<'_> {
    /// `c += op(self) · op(b)` under the backend `self` was prepared with,
    /// `layout` saying which side is stored transposed. A raw `b` is
    /// prepared under `self`'s kernel first (a free borrow for f32 data on
    /// the f32 backend, a decode-once plane on the quire backend).
    ///
    /// # Panics
    ///
    /// Panics if a prepared `b` was prepared under a different backend,
    /// format or rounding.
    pub fn gemm_with<'r, 'b: 'r>(
        &self,
        layout: Layout,
        m: usize,
        k: usize,
        n: usize,
        b: impl Into<Rhs<'r, 'b>>,
        c: &mut [f32],
    ) {
        let raw;
        let b = match b.into() {
            Rhs::Prepared(p) => p,
            Rhs::Raw(op) => {
                raw = self.prepare_like(op);
                &raw
            }
        };
        match (&self.inner, &b.inner) {
            (Prepared::F32(a), Prepared::F32(b)) => match layout {
                Layout::AB => gemm::gemm(m, k, n, a, b, c),
                Layout::AtB => gemm::gemm_at_b(m, k, n, a, b, c),
                Layout::ABt => gemm::gemm_a_bt(m, k, n, a, b, c),
            },
            (
                Prepared::Quire { kernel, plane },
                Prepared::Quire {
                    kernel: bk,
                    plane: pb,
                },
            ) => {
                assert_eq!(
                    kernel, bk,
                    "quire operands prepared under different formats/roundings"
                );
                match layout {
                    Layout::AB => kernel.gemm(m, k, n, plane, pb, c),
                    Layout::AtB => kernel.gemm_at_b(m, k, n, plane, pb, c),
                    Layout::ABt => kernel.gemm_a_bt(m, k, n, plane, pb, c),
                }
            }
            _ => panic!("GEMM operands prepared under different backends"),
        }
    }

    /// `c += self[m,k] · b[k,n]` — [`PreparedOperand::gemm_with`] in the
    /// [`Layout::AB`] layout; kept because `perfbench/src/probes.rs` calls
    /// it.
    pub fn gemm(&self, m: usize, k: usize, n: usize, b: &[f32], c: &mut [f32]) {
        self.gemm_with(Layout::AB, m, k, n, b, c);
    }

    /// `c += self[m,k] · b_tᵀ` with `b_t` prepared — [`PreparedOperand::gemm_with`]
    /// in the [`Layout::ABt`] layout; kept because `perfbench/src/probes.rs`
    /// calls it.
    pub fn gemm_a_bt_prepared(
        &self,
        m: usize,
        k: usize,
        n: usize,
        b_t: &PreparedOperand<'_>,
        c: &mut [f32],
    ) {
        self.gemm_with(Layout::ABt, m, k, n, b_t, c);
    }

    /// Prepare a raw right operand under this operand's kernel.
    fn prepare_like<'b>(&self, op: Operand<'b>) -> PreparedOperand<'b> {
        let inner = match &self.inner {
            Prepared::F32(_) => Prepared::F32(op.to_f32_vec()),
            Prepared::Quire { kernel, .. } => Prepared::Quire {
                kernel: *kernel,
                plane: quire_plane(kernel, op),
            },
        };
        PreparedOperand { inner }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FMT: PositFormat = PositFormat::of(16, 1);

    fn backends() -> [Backend; 2] {
        [
            Backend::F32,
            Backend::PositQuire {
                fmt: FMT,
                rounding: Rounding::NearestEven,
            },
        ]
    }

    /// One GEMM with both operands raw: the left prepared under `bk`.
    fn run(
        bk: Backend,
        layout: Layout,
        mkn: [usize; 3],
        a: Operand<'_>,
        b: Operand<'_>,
    ) -> Vec<f32> {
        let [m, k, n] = mkn;
        let mut c = vec![0.0f32; m * n];
        bk.prepare_operand(a).gemm_with(layout, m, k, n, b, &mut c);
        c
    }

    #[test]
    fn names() {
        let [f, q] = backends();
        assert_eq!(f.name(), "f32");
        assert_eq!(q.name(), "posit-quire");
        assert_eq!(Backend::default(), Backend::F32);
    }

    #[test]
    fn backends_agree_on_exact_inputs() {
        // Small powers of two: every intermediate is exact in (16,1) and in
        // f32, so both backends must produce identical results.
        let a = [1.0f32, 2.0, -0.5, 4.0, 0.25, -8.0]; // [2, 3]
        let b = [2.0f32, 0.5, -1.0, 4.0, 0.125, -2.0]; // [3, 2]
        let mut want = vec![0.0f32; 4];
        gemm::gemm(2, 3, 2, &a, &b, &mut want);
        for bk in backends() {
            let c = run(bk, Layout::AB, [2, 3, 2], (&a[..]).into(), (&b[..]).into());
            assert_eq!(c, want, "{}", bk.name());
        }
    }

    #[test]
    fn packed_operands_agree_with_f32_operands() {
        // Exact inputs packed into (16,1) planes must produce the same
        // results as their f32 twins under every backend, in every operand
        // position, with and without a scale shift.
        let av = vec![1.0f32, 2.0, -0.5, 4.0, 0.25, -8.0]; // [2, 3]
        let bv = vec![2.0f32, 0.5, -1.0, 4.0, 0.125, -2.0]; // [3, 2]
        let ta = Tensor::from_vec(av.clone(), &[2, 3]);
        let tb = Tensor::from_vec(bv.clone(), &[3, 2]);
        for (ea, eb) in [(0, 0), (2, -1)] {
            let pa = ta.to_posit(FMT, ea, Rounding::NearestEven);
            let pb = tb.to_posit(FMT, eb, Rounding::NearestEven);
            for bk in backends() {
                let want = run(bk, Layout::AB, [2, 3, 2], ta.operand(), tb.operand());
                let c = run(bk, Layout::AB, [2, 3, 2], pa.operand(), pb.operand());
                assert_eq!(c, want, "packed×packed {} e=({ea},{eb})", bk.name());
                let c = run(bk, Layout::AB, [2, 3, 2], ta.operand(), pb.operand());
                assert_eq!(c, want, "f32×packed {}", bk.name());
                let c = run(bk, Layout::AB, [2, 3, 2], pa.operand(), tb.operand());
                assert_eq!(c, want, "packed×f32 {}", bk.name());
            }
        }
    }

    #[test]
    fn packed_format_mismatch_falls_back_to_reencode() {
        // A (16,1) quire kernel fed an (8,1)-packed operand decodes it to
        // f32 and re-encodes — same values here since they are exact in
        // both formats.
        let t = Tensor::from_vec(vec![1.0, -2.0, 0.5], &[1, 3]);
        let p8 = t.to_posit(PositFormat::of(8, 1), 0, Rounding::NearestEven);
        let [_, qui] = backends();
        let b = Tensor::from_vec(vec![2.0, 4.0, -1.0], &[3, 1]);
        let want = run(qui, Layout::AB, [1, 3, 1], t.operand(), b.operand());
        let c = run(qui, Layout::AB, [1, 3, 1], p8.operand(), b.operand());
        assert_eq!(c, want);
    }

    #[test]
    fn operand_len_and_from() {
        let t = Tensor::ones(&[4]).to_posit(FMT, 0, Rounding::NearestEven);
        assert_eq!(t.operand().len(), 4);
        assert!(!t.operand().is_empty());
        let xs = [1.0f32, 2.0];
        let op: Operand<'_> = xs.as_slice().into();
        assert_eq!(op.len(), 2);
    }

    #[test]
    fn transposed_dispatch_matches_plain() {
        let a = [1.0f32, 2.0, 3.0, 4.0, 5.0, 6.0]; // [2, 3]
        let a_t = [1.0f32, 4.0, 2.0, 5.0, 3.0, 6.0]; // [3, 2]
        let b = [1.0f32, -2.0, 0.5, 1.0, -1.0, 2.0]; // [3, 2]
        let b_t = [1.0f32, 0.5, -1.0, -2.0, 1.0, 2.0]; // [2, 3]
        fn f(xs: &[f32; 6]) -> Operand<'_> {
            Operand::F32(xs)
        }
        for bk in backends() {
            let plain = run(bk, Layout::AB, [2, 3, 2], f(&a), f(&b));
            let c = run(bk, Layout::AtB, [2, 3, 2], f(&a_t), f(&b));
            assert_eq!(c, plain, "AtB {}", bk.name());
            let c = run(bk, Layout::ABt, [2, 3, 2], f(&a), f(&b_t));
            assert_eq!(c, plain, "ABt {}", bk.name());
        }
    }

    #[test]
    fn transposed_packed_operands_agree() {
        let a_t = Tensor::from_vec(vec![1.0, 4.0, 2.0, 0.25, -0.5, -8.0], &[3, 2]);
        let b = Tensor::from_vec(vec![1.0, -2.0, 0.5, 1.0, -1.0, 2.0], &[3, 2]);
        let b_t = b.transpose2();
        let a = a_t.transpose2();
        let packed = |t: &Tensor| t.to_posit(FMT, 0, Rounding::NearestEven);
        for bk in backends() {
            let plain = run(bk, Layout::AB, [2, 3, 2], a.operand(), b.operand());
            let (pat, pb) = (packed(&a_t), packed(&b));
            let c = run(bk, Layout::AtB, [2, 3, 2], pat.operand(), pb.operand());
            assert_eq!(c, plain, "AtB packed {}", bk.name());
            let (pa, pbt) = (packed(&a), packed(&b_t));
            let c = run(bk, Layout::ABt, [2, 3, 2], pa.operand(), pbt.operand());
            assert_eq!(c, plain, "ABt packed {}", bk.name());
        }
    }

    #[test]
    fn posit_backends_accumulate_into_c() {
        for bk in backends() {
            let mut c = vec![100.0f32; 1];
            bk.prepare(&[2.0]).gemm(1, 1, 1, &[3.0], &mut c);
            assert_eq!(c, vec![106.0], "{}", bk.name());
        }
    }

    #[test]
    fn stochastic_rounding_degrades_instead_of_panicking() {
        // The A4 ablation configures Rounding::Stochastic; the kernels
        // carry no per-element random stream, so the quire backend must
        // degrade to nearest-even rather than hit from_f64's stochastic
        // assert — and so must the exact gradient buffers.
        let bk = Backend::PositQuire {
            fmt: FMT,
            rounding: Rounding::Stochastic,
        };
        let a = [1.0f32, 2.0, -0.5, 4.0, 0.25, -8.0];
        let b = [2.0f32, 0.5, -1.0, 4.0, 0.125, -2.0];
        for layout in [Layout::AB, Layout::AtB, Layout::ABt] {
            run(bk, layout, [2, 3, 2], (&a[..]).into(), (&b[..]).into());
        }
        // x·x = 1 + 2^-14 lies below the midpoint between 1.0 and the next
        // (16,1) posit, 1 + 2^-12: nearest-even stores 1.0, where an
        // un-degraded stochastic rounding (zero random word) rounds up.
        let x = [1.0f32, (-7f32).exp2()];
        let plane = bk.quire_operand_plane(Operand::F32(&x)).unwrap();
        let margin = 2 * plane.quire_margin();
        let mut buf = bk.grad_quire_buf(1, margin, 2).expect("quire backend");
        buf.accumulate_at_b(1, 2, 1, &plane, &plane);
        let mut dw = [0.0f32];
        buf.round_into(&mut dw);
        assert_eq!(dw, [1.0], "grad buffer rounds to nearest-even");
        let gemm = run(bk, Layout::AtB, [1, 2, 1], (&x[..]).into(), (&x[..]).into());
        assert_eq!(gemm, [1.0], "so does the AtB kernel");
    }

    #[test]
    #[should_panic(expected = "different backends")]
    fn mixed_backend_prepared_operands_panic() {
        let a = [1.0f32, 2.0];
        let b = [3.0f32, 4.0];
        let [f32s, qui] = backends();
        let pa = f32s.prepare(&a);
        let pb = qui.prepare(&b);
        let mut c = vec![0.0f32; 1];
        pa.gemm_with(Layout::AB, 1, 2, 1, &pb, &mut c);
    }

    #[test]
    fn quire_avoids_the_double_rounding_of_the_sandwich() {
        // Exact dot: 1 + 2^-13 + 2^-40. In (16,1) the codes around it are
        // 1.0 (even LSB) and 1 + 2^-12, with midpoint 1 + 2^-13. The
        // quantize→f32-GEMM→requantize sandwich (per-element P(·) around an
        // f32 kernel) drops the 2^-40 term in its f32 accumulator (41
        // significant bits needed), lands exactly on the midpoint and ties
        // to the even code 1.0; the quire keeps the term, sits above the
        // midpoint and must round up. Every operand is exactly
        // representable in (16,1), so the difference is purely the
        // accumulator.
        let fmt = PositFormat::of(16, 1);
        let p = |x: f32| fmt.to_f32(fmt.from_f32(x, Rounding::NearestEven));
        let a = [1.0f32, (-13f32).exp2(), (-20f32).exp2()];
        let b = [1.0f32, 1.0, (-20f32).exp2()];
        let (qa, qb): (Vec<f32>, Vec<f32>) = (a.map(p).to_vec(), b.map(p).to_vec());
        let mut sandwich = vec![0.0f32; 1];
        gemm::gemm(1, 3, 1, &qa, &qb, &mut sandwich);
        assert_eq!(
            p(sandwich[0]),
            1.0,
            "sandwich ties to even after dropping 2^-40"
        );
        let qui = Backend::PositQuire {
            fmt,
            rounding: Rounding::NearestEven,
        };
        let mut cq = vec![0.0f32; 1];
        qui.prepare(&a).gemm(1, 3, 1, &b, &mut cq);
        let up = 1.0 + (-12f32).exp2();
        assert_eq!(cq[0], up, "quire keeps 2^-40 and rounds up");
        // And the quire result must be on the (16,1) grid exactly.
        assert_eq!(p(cq[0]), cq[0]);
    }

    #[test]
    fn packed_plane_skips_the_entry_rounding() {
        // An Eq. 2–3 shifted value that is OFF the raw posit grid:
        // P((8,1)) of 1.0625 = exact code with scale shift −4 applied →
        // value 1.0625·2^-4 = 0.06640625. Encoded with scale_exp = −4 the
        // packed plane carries it exactly; an f32 operand at the same value
        // would be re-rounded onto the raw (8,1) grid on entry (0.0664… is
        // not an (8,1) posit) and lose the tail.
        let fmt = PositFormat::of(8, 1);
        let qui = Backend::PositQuire {
            fmt,
            rounding: Rounding::NearestEven,
        };
        let x = 1.0625f32; // exact in (8,1)
        let shifted = x * (-4f32).exp2();
        let t = Tensor::from_vec(vec![shifted], &[1, 1]);
        let packed = t.to_posit(fmt, -4, Rounding::NearestEven);
        assert_eq!(packed.to_f32().data(), &[shifted], "encode is exact");
        let one = Tensor::from_vec(vec![16.0], &[1, 1]); // exact in (8,1)
                                                         // Packed path: exact product 1.0625.
        let c = run(qui, Layout::AB, [1, 1, 1], packed.operand(), one.operand());
        assert_eq!(c, vec![1.0625], "packed plane keeps the shifted value");
        // f32 path: the operand re-rounds to the nearest (8,1) posit
        // (0.0625 or 0.078125 — the tail is gone either way).
        let c = run(qui, Layout::AB, [1, 1, 1], t.operand(), one.operand());
        assert_ne!(c, vec![1.0625], "f32 staging re-rounds the operand");
    }
}
