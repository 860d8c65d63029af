//! im2col/col2im convolution primitives (NCHW layout).

use crate::posit_gemm::{PositGemm, PositPlane, Unpacked};
use crate::tensor::Tensor;

/// Geometry of a 2-D convolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvGeom {
    /// Input channels.
    pub c: usize,
    /// Input height.
    pub h: usize,
    /// Input width.
    pub w: usize,
    /// Kernel height.
    pub kh: usize,
    /// Kernel width.
    pub kw: usize,
    /// Stride (same in both dimensions).
    pub stride: usize,
    /// Zero padding (same on all sides).
    pub pad: usize,
}

impl ConvGeom {
    /// Output height.
    pub fn out_h(&self) -> usize {
        (self.h + 2 * self.pad - self.kh) / self.stride + 1
    }

    /// Output width.
    pub fn out_w(&self) -> usize {
        (self.w + 2 * self.pad - self.kw) / self.stride + 1
    }

    /// Rows of the im2col matrix: `C*KH*KW`.
    pub fn col_rows(&self) -> usize {
        self.c * self.kh * self.kw
    }

    /// Columns of the im2col matrix: `OH*OW`.
    pub fn col_cols(&self) -> usize {
        self.out_h() * self.out_w()
    }
}

/// Unfold one `[C,H,W]` sample into the `[C*KH*KW, OH*OW]` column matrix.
///
/// The unfold is a gather, so it is generic over the element: dense f32
/// values, or the decoded [`Unpacked`] elements of an encoded plane (see
/// [`ColPlanes`]). Padding reads `T::default()`: `0.0`, or the posit zero.
pub fn im2col<T: Copy + Default>(input: &[T], g: &ConvGeom, col: &mut [T]) {
    debug_assert_eq!(input.len(), g.c * g.h * g.w);
    debug_assert_eq!(col.len(), g.col_rows() * g.col_cols());
    let (oh, ow) = (g.out_h(), g.out_w());
    let cols = oh * ow;
    for c in 0..g.c {
        let plane = &input[c * g.h * g.w..(c + 1) * g.h * g.w];
        for ki in 0..g.kh {
            for kj in 0..g.kw {
                let row = (c * g.kh + ki) * g.kw + kj;
                let dst = &mut col[row * cols..(row + 1) * cols];
                for oy in 0..oh {
                    let iy = (oy * g.stride + ki) as isize - g.pad as isize;
                    let base = oy * ow;
                    if iy < 0 || iy >= g.h as isize {
                        dst[base..base + ow].fill(T::default());
                        continue;
                    }
                    let src_row = &plane[iy as usize * g.w..(iy as usize + 1) * g.w];
                    for ox in 0..ow {
                        let ix = (ox * g.stride + kj) as isize - g.pad as isize;
                        dst[base + ox] = if ix < 0 || ix >= g.w as isize {
                            T::default()
                        } else {
                            src_row[ix as usize]
                        };
                    }
                }
            }
        }
    }
}

/// Fold a `[C*KH*KW, OH*OW]` column matrix back into a `[C,H,W]` sample,
/// *accumulating* overlapping contributions (the adjoint of [`im2col`]).
pub fn col2im(col: &[f32], g: &ConvGeom, output: &mut [f32]) {
    debug_assert_eq!(output.len(), g.c * g.h * g.w);
    debug_assert_eq!(col.len(), g.col_rows() * g.col_cols());
    let (oh, ow) = (g.out_h(), g.out_w());
    let cols = oh * ow;
    for c in 0..g.c {
        let plane = &mut output[c * g.h * g.w..(c + 1) * g.h * g.w];
        for ki in 0..g.kh {
            for kj in 0..g.kw {
                let row = (c * g.kh + ki) * g.kw + kj;
                let src = &col[row * cols..(row + 1) * cols];
                for oy in 0..oh {
                    let iy = (oy * g.stride + ki) as isize - g.pad as isize;
                    if iy < 0 || iy >= g.h as isize {
                        continue;
                    }
                    let dst_row = &mut plane[iy as usize * g.w..(iy as usize + 1) * g.w];
                    for ox in 0..ow {
                        let ix = (ox * g.stride + kj) as isize - g.pad as isize;
                        if ix >= 0 && ix < g.w as isize {
                            dst_row[ix as usize] += src[oy * ow + ox];
                        }
                    }
                }
            }
        }
    }
}

/// The per-sample im2col planes of one `[N,C,H,W]` batch on the quire
/// backend, gathered from a single encode of the batch.
///
/// Each input element is rounded onto the kernel's grid once, not once per
/// kernel tap (the col matrix repeats it up to `KH·KW` times), and each
/// sample's `[C*KH*KW, OH*OW]` plane is an [`im2col`] gather of encoded
/// elements into one reused buffer. The encode is element-wise and maps
/// `0.0` to the posit zero, so every plane is bit-identical to encoding
/// that sample's f32 im2col matrix.
pub struct ColPlanes {
    input: PositPlane,
    col: PositPlane,
    g: ConvGeom,
}

impl ColPlanes {
    /// Encode `input` (`[N,C,H,W]` with `C,H,W` from `g`) under `kernel`.
    /// A packed input decodes to f32 first, so values are re-rounded onto
    /// the kernel's unshifted grid exactly as an f32 unfold would be.
    pub fn new(kernel: &PositGemm, input: &Tensor, g: ConvGeom) -> ColPlanes {
        let input = kernel.encode_plane(input.dense().data());
        let col = vec![Unpacked::default(); g.col_rows() * g.col_cols()];
        ColPlanes {
            col: PositPlane::from_elems(input.format(), input.scale_exp(), col),
            input,
            g,
        }
    }

    /// Sample `i`'s col plane (valid until the next call).
    pub fn sample(&mut self, i: usize) -> &PositPlane {
        let len = self.g.c * self.g.h * self.g.w;
        let src = &self.input.elems()[i * len..(i + 1) * len];
        im2col(src, &self.g, self.col.elems_mut());
        &self.col
    }
}

/// Forward convolution on the f32 backend: input `[N,C,H,W]`, weight
/// `[O,C,KH,KW]`, optional bias `[O]` → output `[N,O,OH,OW]`.
///
/// # Panics
///
/// Panics on shape mismatches.
pub fn conv2d(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&[f32]>,
    stride: usize,
    pad: usize,
) -> Tensor {
    let w_prep = crate::Backend::F32.prepare_operand(weight.operand());
    conv2d_prepared(&w_prep, weight.shape(), input, bias, stride, pad)
}

/// Forward convolution over a weight operand prepared under any
/// [`crate::Backend`] (`weight_shape` is its `[O,C,KH,KW]` shape): the
/// per-sample im2col GEMM runs on the backend's kernel family.
///
/// The weight tile is prepared once by the caller and reused across every
/// sample in the batch: a posit-packed weight tensor matching a
/// [`crate::Backend::PositQuire`] format is decoded into a plane straight
/// from its code words (no f32 staging). On the quire backend the input
/// batch is encoded once under the weight's kernel and each sample's col
/// plane is gathered from it ([`ColPlanes`]), so the GEMM never sees f32;
/// on the f32 backend a packed input decodes once before the unfold.
///
/// # Panics
///
/// Panics on shape mismatches.
pub fn conv2d_prepared(
    w_prep: &crate::PreparedOperand<'_>,
    weight_shape: &[usize],
    input: &Tensor,
    bias: Option<&[f32]>,
    stride: usize,
    pad: usize,
) -> Tensor {
    let ish = input.shape();
    assert_eq!(ish.len(), 4, "input must be NCHW");
    assert_eq!(weight_shape.len(), 4, "weight must be OCKK");
    assert_eq!(ish[1], weight_shape[1], "channel mismatch");
    let (n, o) = (ish[0], weight_shape[0]);
    let g = ConvGeom {
        c: ish[1],
        h: ish[2],
        w: ish[3],
        kh: weight_shape[2],
        kw: weight_shape[3],
        stride,
        pad,
    };
    let (rows, cols) = (g.col_rows(), g.col_cols());
    let mut out = Tensor::zeros(&[n, o, g.out_h(), g.out_w()]);
    let samples = out.data_mut().chunks_exact_mut(o * cols);
    if let Some((kernel, w_plane)) = w_prep.quire() {
        let mut planes = ColPlanes::new(kernel, input, g);
        for (i, dst) in samples.enumerate() {
            kernel.gemm(o, rows, cols, w_plane, planes.sample(i), dst);
        }
    } else {
        let sample = g.c * g.h * g.w;
        let input = input.dense();
        let mut col = vec![0.0f32; rows * cols];
        for (x, dst) in input.data().chunks_exact(sample).zip(samples) {
            im2col(x, &g, &mut col);
            w_prep.gemm_with(crate::Layout::AB, o, rows, cols, col.as_slice(), dst);
        }
    }
    if let Some(b) = bias {
        // One `[OH*OW]` plane per (sample, channel).
        for (j, plane) in out.data_mut().chunks_exact_mut(cols).enumerate() {
            let bv = b[j % o];
            plane.iter_mut().for_each(|v| *v += bv);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Prng;

    /// Direct (quadruple-loop) reference convolution.
    fn conv_ref(
        input: &Tensor,
        weight: &Tensor,
        bias: Option<&[f32]>,
        stride: usize,
        pad: usize,
    ) -> Tensor {
        let (n, c, h, w) = {
            let s = input.shape();
            (s[0], s[1], s[2], s[3])
        };
        let (o, _, kh, kw) = {
            let s = weight.shape();
            (s[0], s[1], s[2], s[3])
        };
        let oh = (h + 2 * pad - kh) / stride + 1;
        let ow = (w + 2 * pad - kw) / stride + 1;
        let mut out = Tensor::zeros(&[n, o, oh, ow]);
        for i in 0..n {
            for oc in 0..o {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = bias.map_or(0.0, |b| b[oc]);
                        for ic in 0..c {
                            for ki in 0..kh {
                                for kj in 0..kw {
                                    let iy = (oy * stride + ki) as isize - pad as isize;
                                    let ix = (ox * stride + kj) as isize - pad as isize;
                                    if iy < 0 || ix < 0 || iy >= h as isize || ix >= w as isize {
                                        continue;
                                    }
                                    let iv = input.data()
                                        [((i * c + ic) * h + iy as usize) * w + ix as usize];
                                    let wv = weight.data()[((oc * c + ic) * kh + ki) * kw + kj];
                                    acc += iv * wv;
                                }
                            }
                        }
                        out.data_mut()[((i * o + oc) * oh + oy) * ow + ox] = acc;
                    }
                }
            }
        }
        out
    }

    #[test]
    fn conv_matches_reference() {
        let mut rng = Prng::seed(5);
        for (n, c, h, w, o, k, s, p) in [
            (1, 1, 5, 5, 1, 3, 1, 0),
            (2, 3, 8, 8, 4, 3, 1, 1),
            (1, 2, 7, 9, 3, 3, 2, 1),
            (2, 4, 6, 6, 2, 1, 1, 0),
            (1, 3, 9, 9, 5, 5, 2, 2),
        ] {
            let input = Tensor::rand_normal(&[n, c, h, w], 0.0, 1.0, &mut rng);
            let weight = Tensor::rand_normal(&[o, c, k, k], 0.0, 0.5, &mut rng);
            let bias: Vec<f32> = (0..o).map(|_| rng.uniform(-0.5, 0.5)).collect();
            let got = conv2d(&input, &weight, Some(&bias), s, p);
            let want = conv_ref(&input, &weight, Some(&bias), s, p);
            assert_eq!(got.shape(), want.shape());
            for (g, w) in got.data().iter().zip(want.data()) {
                assert!((g - w).abs() < 1e-3, "({n},{c},{h},{w},{o},{k},{s},{p})");
            }
        }
    }

    #[test]
    fn geometry() {
        let g = ConvGeom {
            c: 3,
            h: 32,
            w: 32,
            kh: 3,
            kw: 3,
            stride: 1,
            pad: 1,
        };
        assert_eq!(g.out_h(), 32);
        assert_eq!(g.out_w(), 32);
        assert_eq!(g.col_rows(), 27);
        let g2 = ConvGeom { stride: 2, ..g };
        assert_eq!(g2.out_h(), 16);
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> — the defining adjoint property
        // that makes the conv backward pass correct.
        let mut rng = Prng::seed(6);
        let g = ConvGeom {
            c: 2,
            h: 6,
            w: 5,
            kh: 3,
            kw: 3,
            stride: 2,
            pad: 1,
        };
        let x: Vec<f32> = (0..g.c * g.h * g.w)
            .map(|_| rng.uniform(-1.0, 1.0))
            .collect();
        let y: Vec<f32> = (0..g.col_rows() * g.col_cols())
            .map(|_| rng.uniform(-1.0, 1.0))
            .collect();
        let mut cx = vec![0.0; y.len()];
        im2col(&x, &g, &mut cx);
        let mut ay = vec![0.0; x.len()];
        col2im(&y, &g, &mut ay);
        let lhs: f64 = cx.iter().zip(&y).map(|(&a, &b)| (a * b) as f64).sum();
        let rhs: f64 = x.iter().zip(&ay).map(|(&a, &b)| (a * b) as f64).sum();
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }

    #[test]
    fn backend_conv_matches_f32_on_exact_inputs() {
        // Inputs on coarse power-of-two grids are exactly representable in
        // (16,1) and every dot fits the f32 mantissa, so the quire backend
        // must agree with f32 bitwise.
        use posit::{PositFormat, Rounding};
        let mut rng = Prng::seed(9);
        let quant = |t: &Tensor| t.map(|x| (x * 4.0).round() / 4.0);
        let input = quant(&Tensor::rand_normal(&[2, 2, 6, 6], 0.0, 1.0, &mut rng));
        let weight = quant(&Tensor::rand_normal(&[3, 2, 3, 3], 0.0, 0.5, &mut rng));
        let want = conv2d(&input, &weight, None, 1, 1);
        let fmt = PositFormat::of(16, 1);
        let backend = crate::Backend::PositQuire {
            fmt,
            rounding: Rounding::NearestEven,
        };
        let w_prep = backend.prepare_operand(weight.operand());
        let got = conv2d_prepared(&w_prep, weight.shape(), &input, None, 1, 1);
        assert_eq!(got.data(), want.data());
    }

    #[test]
    fn encode_once_forward_matches_per_sample_encode() {
        // The quire forward encodes the batch once and gathers col planes;
        // the reference unfolds each sample in f32 and encodes its col
        // matrix. Bit for bit, for f32 inputs (NaN and −0.0 included), a
        // packed input on the kernel's own grid, and a scale-shifted
        // packed one (decoded, then re-rounded onto the unshifted grid).
        use posit::{PositFormat, Rounding};
        let fmt = PositFormat::of(8, 1);
        let mut rng = Prng::seed(13);
        let (n, c, o, k) = (3, 2, 4, 3);
        let mut x = Tensor::rand_normal(&[n, c, 7, 6], 0.0, 2.0, &mut rng);
        x.data_mut()[4] = f32::NAN;
        x.data_mut()[9] = -0.0;
        let weight = Tensor::rand_normal(&[o, c, k, k], 0.0, 0.5, &mut rng);
        let bias: Vec<f32> = (0..o).map(|_| rng.uniform(-0.5, 0.5)).collect();
        let inputs = [
            x.clone(),
            x.to_posit(fmt, 0, Rounding::NearestEven),
            x.to_posit(fmt, 3, Rounding::NearestEven),
        ];
        for rounding in [Rounding::NearestEven, Rounding::ToZero] {
            let backend = crate::Backend::PositQuire { fmt, rounding };
            let w_prep = backend.prepare_operand(weight.operand());
            let (kernel, w_plane) = w_prep.quire().expect("quire backend");
            for input in &inputs {
                for (stride, pad) in [(1, 0), (2, 1)] {
                    let got =
                        conv2d_prepared(&w_prep, weight.shape(), input, Some(&bias), stride, pad);
                    let g = ConvGeom {
                        c,
                        h: 7,
                        w: 6,
                        kh: k,
                        kw: k,
                        stride,
                        pad,
                    };
                    let (rows, cols) = (g.col_rows(), g.col_cols());
                    let dense = input.dense();
                    let mut col = vec![0.0f32; rows * cols];
                    let mut want = vec![0.0f32; n * o * cols];
                    for i in 0..n {
                        let len = c * 7 * 6;
                        im2col(&dense.data()[i * len..(i + 1) * len], &g, &mut col);
                        let dst = &mut want[i * o * cols..(i + 1) * o * cols];
                        kernel.gemm(o, rows, cols, w_plane, &kernel.encode_plane(&col), dst);
                        for (j, v) in dst.iter_mut().enumerate() {
                            *v += bias[j / cols];
                        }
                    }
                    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(
                        bits(got.data()),
                        bits(&want),
                        "{rounding:?} stride {stride} pad {pad} packed {}",
                        input.is_posit()
                    );
                }
            }
        }
    }

    #[test]
    fn identity_kernel_preserves_input() {
        // 1x1 conv with identity weights = channel mix with identity.
        let mut rng = Prng::seed(7);
        let input = Tensor::rand_normal(&[1, 2, 4, 4], 0.0, 1.0, &mut rng);
        let weight = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2, 1, 1]);
        let out = conv2d(&input, &weight, None, 1, 0);
        assert_eq!(out.data(), input.data());
    }
}
