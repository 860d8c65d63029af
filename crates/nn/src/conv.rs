//! 2-D convolution layer with explicit backward.

use crate::layer::{no_input_grad, Layer, LayerKind};
use crate::param::Param;
use posit_tensor::conv::{col2im, conv2d_prepared, im2col, ColPlanes, ConvGeom};
use posit_tensor::{Backend, Layout, Tensor};

/// `Conv2d`: NCHW convolution, square kernel, no dilation/groups (all the
/// paper's ResNets need). Bias is optional — ResNet convs are bias-free
/// because BN follows.
pub struct Conv2d {
    name: String,
    weight: Param,
    bias: Option<Param>,
    stride: usize,
    pad: usize,
    cached_input: Option<Tensor>,
    fwd_backend: Backend,
    bwd_backend: Backend,
    needs_input_grad: bool,
}

impl Conv2d {
    /// Create with explicit weights (see [`crate::init`] for initializers).
    pub fn new(
        name: impl Into<String>,
        weight: Tensor,
        bias: Option<Tensor>,
        stride: usize,
        pad: usize,
    ) -> Conv2d {
        assert_eq!(weight.shape().len(), 4, "weight must be [O,C,KH,KW]");
        let name = name.into();
        Conv2d {
            weight: Param::new(format!("{name}.weight"), weight),
            bias: bias.map(|b| Param::no_decay(format!("{name}.bias"), b)),
            name,
            stride,
            pad,
            cached_input: None,
            fwd_backend: Backend::F32,
            bwd_backend: Backend::F32,
            needs_input_grad: true,
        }
    }

    /// Select the compute backends: `forward` drives the im2col GEMM,
    /// `backward` drives both gradient GEMMs (`dY·colᵀ` and `Wᵀ·dY`) — the
    /// paper's es rule assigns different formats to the two directions.
    pub fn set_backends(&mut self, forward: Backend, backward: Backend) {
        self.fwd_backend = forward;
        self.bwd_backend = backward;
    }

    /// The (forward, backward) compute backends.
    pub fn backends(&self) -> (Backend, Backend) {
        (self.fwd_backend, self.bwd_backend)
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        self.weight.value.shape()[0]
    }

    fn geom(&self, input_shape: &[usize]) -> ConvGeom {
        let wsh = self.weight.value.shape();
        ConvGeom {
            c: input_shape[1],
            h: input_shape[2],
            w: input_shape[3],
            kh: wsh[2],
            kw: wsh[3],
            stride: self.stride,
            pad: self.pad,
        }
    }
}

impl Layer for Conv2d {
    fn kind(&self) -> LayerKind {
        LayerKind::Conv
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn forward(&mut self, input: &Tensor, _train: bool) -> Tensor {
        self.cached_input = Some(input.clone());
        // dense() is a free borrow for an f32 bias; only a packed bias
        // (posit-resident weights) pays a decode.
        let bias = self.bias.as_ref().map(|b| b.value.dense());
        // The weight tile is prepared once and shared by every sample's
        // GEMM.
        let w_prep = self
            .fwd_backend
            .prepare_operand(self.weight.value.operand());
        conv2d_prepared(
            &w_prep,
            self.weight.value.shape(),
            input,
            bias.as_ref().map(|c| c.data()),
            self.stride,
            self.pad,
        )
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let bwd = self.bwd_backend;
        let kernel = bwd.quire_kernel();
        // Quire backend: every per-sample product lands in the parameters'
        // exact accumulators, so ΔW and Δb round once per batch — here, at
        // the end of the call, if this backward is a batch of its own.
        let own_batch = kernel.is_some() && !self.weight.batch.is_open();
        if own_batch {
            self.begin_grad_batch(grad_out.shape()[0]);
        }
        let input = self.cached_input.as_ref().expect("backward before forward");
        let ish = input.shape();
        let g = self.geom(ish);
        let o = self.out_channels();
        let (rows, cols) = (g.col_rows(), g.col_cols());
        let sample_in = g.c * g.h * g.w;

        // Quire backend: the cached input is encoded once, under the
        // backward format, and each sample's col plane is gathered from
        // it. The f32 backend unfolds the dense input per sample.
        let mut planes = kernel.map(|k| ColPlanes::new(&k, input, g));
        let mut f32_unfold = planes
            .is_none()
            .then(|| (input.dense(), vec![0.0f32; rows * cols]));
        // The per-sample slicing is defined on dense values: a packed error
        // decodes once here.
        let grad_out = grad_out.dense();
        // dX = col2im(Wᵀ · dY), only when something reads it. The weight
        // operand is prepared once per backward and shared by every sample.
        let mut grad_in = self.needs_input_grad.then(|| {
            (
                bwd.prepare_operand(self.weight.value.operand()),
                vec![0.0f32; rows * cols],
                Tensor::zeros(ish),
            )
        });
        for (i, dy) in grad_out.data().chunks_exact(o * cols).enumerate() {
            // One encode of dY per sample, shared by ΔW, Δb and dX.
            let dy_prep = bwd.prepare(dy);
            // ΔW += dY · colᵀ  — [O, cols] × [cols, rows]
            match (planes.as_mut(), dy_prep.quire()) {
                (Some(planes), Some((_, dy_plane))) => {
                    let col_plane = planes.sample(i);
                    let margin = dy_plane.quire_margin() + col_plane.quire_margin();
                    self.weight
                        .batch
                        .acc(|total| {
                            bwd.grad_quire_buf(o * rows, margin, total * cols)
                                .expect("quire backend")
                        })
                        .accumulate_a_bt(o, cols, rows, dy_plane, col_plane);
                    if let Some(b) = &mut self.bias {
                        b.batch
                            .acc(|total| {
                                bwd.grad_quire_buf(o, dy_plane.quire_margin(), total * cols)
                                    .expect("quire backend")
                            })
                            .accumulate_row_sums(o, cols, dy_plane);
                    }
                }
                _ => {
                    let (x, col) = f32_unfold.as_mut().expect("f32 backend");
                    im2col(&x.data()[i * sample_in..(i + 1) * sample_in], &g, col);
                    dy_prep.gemm_with(
                        Layout::ABt,
                        o,
                        cols,
                        rows,
                        col.as_slice(),
                        self.weight.grad.data_mut(),
                    );
                    if let Some(b) = &mut self.bias {
                        for (oc, gb) in b.grad.data_mut().iter_mut().enumerate() {
                            *gb += dy[oc * cols..(oc + 1) * cols].iter().sum::<f32>();
                        }
                    }
                }
            }
            // dX_col = Wᵀ · dY — [rows, O] × [O, cols]
            if let Some((w_prep, dcol, grad_in)) = &mut grad_in {
                dcol.fill(0.0);
                w_prep.gemm_with(Layout::AtB, rows, o, cols, &dy_prep, dcol);
                col2im(
                    dcol,
                    &g,
                    &mut grad_in.data_mut()[i * sample_in..(i + 1) * sample_in],
                );
            }
        }
        let grad_in = grad_in.map_or_else(no_input_grad, |(_, _, grad_in)| grad_in);
        if own_batch {
            self.end_grad_batch();
        }
        grad_in
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut p = vec![&mut self.weight];
        if let Some(b) = &mut self.bias {
            p.push(b);
        }
        p
    }

    fn params(&self) -> Vec<&Param> {
        let mut p = vec![&self.weight];
        if let Some(b) = &self.bias {
            p.push(b);
        }
        p
    }

    fn set_compute_backends(&mut self, forward: Backend, backward: Backend) {
        self.set_backends(forward, backward);
    }

    fn set_needs_input_grad(&mut self, needs: bool) {
        self.needs_input_grad = needs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use posit_tensor::rng::Prng;

    /// Finite-difference check of dW and dX through a scalar loss
    /// `L = Σ out ⊙ R` for a fixed random R.
    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = Prng::seed(42);
        let input = Tensor::rand_normal(&[2, 3, 6, 6], 0.0, 1.0, &mut rng);
        let weight = Tensor::rand_normal(&[4, 3, 3, 3], 0.0, 0.3, &mut rng);
        let bias = Tensor::rand_normal(&[4], 0.0, 0.1, &mut rng);
        let r = Tensor::rand_normal(&[2, 4, 6, 6], 0.0, 1.0, &mut rng);

        let mut layer = Conv2d::new("c", weight.clone(), Some(bias.clone()), 1, 1);
        let out = layer.forward(&input, true);
        assert_eq!(out.shape(), r.shape());
        let grad_in = layer.backward(&r);

        let loss = |w: &Tensor, b: &Tensor, x: &Tensor| -> f64 {
            let mut l = Conv2d::new("c", w.clone(), Some(b.clone()), 1, 1);
            let o = l.forward(x, true);
            o.data()
                .iter()
                .zip(r.data())
                .map(|(&a, &b)| (a * b) as f64)
                .sum()
        };

        let eps = 1e-3f32;
        // dW spot checks
        for &idx in &[0usize, 17, 53, 107] {
            let mut wp = weight.clone();
            wp.data_mut()[idx] += eps;
            let mut wm = weight.clone();
            wm.data_mut()[idx] -= eps;
            let num = (loss(&wp, &bias, &input) - loss(&wm, &bias, &input)) / (2.0 * eps as f64);
            let ana = layer.weight.grad.data()[idx] as f64;
            assert!(
                (num - ana).abs() < 2e-2 * (1.0 + ana.abs()),
                "dW[{idx}] {num} vs {ana}"
            );
        }
        // db spot checks
        for idx in 0..4 {
            let mut bp = bias.clone();
            bp.data_mut()[idx] += eps;
            let mut bm = bias.clone();
            bm.data_mut()[idx] -= eps;
            let num =
                (loss(&weight, &bp, &input) - loss(&weight, &bm, &input)) / (2.0 * eps as f64);
            let ana = layer.bias.as_ref().unwrap().grad.data()[idx] as f64;
            assert!(
                (num - ana).abs() < 2e-2 * (1.0 + ana.abs()),
                "db[{idx}] {num} vs {ana}"
            );
        }
        // dX spot checks
        for &idx in &[0usize, 31, 99, 215] {
            let mut xp = input.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = input.clone();
            xm.data_mut()[idx] -= eps;
            let num = (loss(&weight, &bias, &xp) - loss(&weight, &bias, &xm)) / (2.0 * eps as f64);
            let ana = grad_in.data()[idx] as f64;
            assert!(
                (num - ana).abs() < 2e-2 * (1.0 + ana.abs()),
                "dX[{idx}] {num} vs {ana}"
            );
        }
    }

    #[test]
    fn posit_backends_agree_on_exact_inputs() {
        // Quarter-grid values are exact in posit(16,1) and f32 alike, so the
        // backends must agree bitwise through forward and backward.
        let fmt = posit::PositFormat::of(16, 1);
        let rounding = posit::Rounding::NearestEven;
        let mut rng = Prng::seed(11);
        let quant = |t: &Tensor| t.map(|x| (x * 4.0).round() / 4.0);
        let input = quant(&Tensor::rand_normal(&[1, 2, 5, 5], 0.0, 1.0, &mut rng));
        let weight = quant(&Tensor::rand_normal(&[2, 2, 3, 3], 0.0, 0.5, &mut rng));
        let dy = quant(&Tensor::rand_normal(&[1, 2, 5, 5], 0.0, 1.0, &mut rng));

        let run = |fwd: Backend, bwd: Backend| {
            let mut l = Conv2d::new("c", weight.clone(), None, 1, 1);
            l.set_backends(fwd, bwd);
            assert_eq!(l.backends(), (fwd, bwd));
            let y = l.forward(&input, true);
            let gx = l.backward(&dy);
            let gw = l.params()[0].grad.clone();
            (y, gx, gw)
        };
        let (y0, gx0, gw0) = run(Backend::F32, Backend::F32);
        let b = Backend::PositQuire { fmt, rounding };
        let (y, gx, gw) = run(b, b);
        assert_eq!(y.data(), y0.data(), "forward");
        assert_eq!(gx.data(), gx0.data(), "dX");
        assert_eq!(gw.data(), gw0.data(), "dW");
    }

    #[test]
    fn shard_protocol_grads_are_shard_invariant() {
        // Whatever shard split the 6-sample batch takes, ΔW and Δb from
        // the quire protocol must agree bit-for-bit with the 1-shard run —
        // and so must a backward with no open batch, which is a batch of
        // its own (rounded once, not once per sample).
        let fmt = posit::PositFormat::of(16, 1);
        let qui = Backend::PositQuire {
            fmt,
            rounding: posit::Rounding::NearestEven,
        };
        let mut rng = Prng::seed(23);
        let input = Tensor::rand_normal(&[6, 2, 5, 5], 0.0, 1.0, &mut rng);
        let weight = Tensor::rand_normal(&[3, 2, 3, 3], 0.0, 0.4, &mut rng);
        let bias = Tensor::rand_normal(&[3], 0.0, 0.1, &mut rng);
        let dy = Tensor::rand_normal(&[6, 3, 5, 5], 0.0, 1.0, &mut rng);
        let n = 6;

        let run = |splits: &[usize]| {
            let mut l = Conv2d::new("c", weight.clone(), Some(bias.clone()), 1, 1);
            l.set_backends(qui, qui);
            l.begin_grad_batch(n);
            let mut start = 0;
            for &rows in splits {
                l.forward(&input.slice_rows(start, start + rows), true);
                l.backward(&dy.slice_rows(start, start + rows));
                start += rows;
            }
            assert_eq!(start, n);
            l.end_grad_batch();
            (l.params()[0].grad.clone(), l.params()[1].grad.clone())
        };
        let (dw1, db1) = run(&[6]);
        for splits in [vec![3, 3], vec![2, 2, 2], vec![1; 6], vec![4, 1, 1]] {
            let (dw, db) = run(&splits);
            assert_eq!(dw.data(), dw1.data(), "dW {splits:?}");
            assert_eq!(db.data(), db1.data(), "db {splits:?}");
        }
        let mut unbatched = Conv2d::new("c", weight.clone(), Some(bias.clone()), 1, 1);
        unbatched.set_backends(qui, qui);
        unbatched.forward(&input, true);
        unbatched.backward(&dy);
        assert_eq!(
            unbatched.params()[0].grad.data(),
            dw1.data(),
            "dW unbatched"
        );
        assert_eq!(
            unbatched.params()[1].grad.data(),
            db1.data(),
            "db unbatched"
        );
    }

    #[test]
    fn strided_gradients_match_finite_differences() {
        let mut rng = Prng::seed(43);
        let input = Tensor::rand_normal(&[1, 2, 7, 7], 0.0, 1.0, &mut rng);
        let weight = Tensor::rand_normal(&[3, 2, 3, 3], 0.0, 0.3, &mut rng);
        let mut layer = Conv2d::new("c", weight.clone(), None, 2, 1);
        let out = layer.forward(&input, true);
        let r = Tensor::rand_normal(out.shape(), 0.0, 1.0, &mut rng);
        let grad_in = layer.backward(&r);

        let loss = |w: &Tensor, x: &Tensor| -> f64 {
            let mut l = Conv2d::new("c", w.clone(), None, 2, 1);
            let o = l.forward(x, true);
            o.data()
                .iter()
                .zip(r.data())
                .map(|(&a, &b)| (a * b) as f64)
                .sum()
        };
        let eps = 1e-3f32;
        for &idx in &[0usize, 13, 41] {
            let mut xp = input.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = input.clone();
            xm.data_mut()[idx] -= eps;
            let num = (loss(&weight, &xp) - loss(&weight, &xm)) / (2.0 * eps as f64);
            let ana = grad_in.data()[idx] as f64;
            assert!((num - ana).abs() < 2e-2 * (1.0 + ana.abs()), "dX[{idx}]");
        }
        for &idx in &[0usize, 25, 50] {
            let mut wp = weight.clone();
            wp.data_mut()[idx] += eps;
            let mut wm = weight.clone();
            wm.data_mut()[idx] -= eps;
            let num = (loss(&wp, &input) - loss(&wm, &input)) / (2.0 * eps as f64);
            let ana = layer.weight.grad.data()[idx] as f64;
            assert!((num - ana).abs() < 2e-2 * (1.0 + ana.abs()), "dW[{idx}]");
        }
    }

    #[test]
    fn forward_and_backward_see_weight_updates() {
        // A 1×1 conv over a one-hot input: the forward returns the weight
        // as [O, C], and a one-hot dY makes dX its transpose. Both must
        // follow in-place optimizer-style writes and whole-storage
        // replacements (the Quantized wrapper's packed-view install).
        let fmt = posit::PositFormat::of(8, 1);
        let qui = Backend::PositQuire {
            fmt,
            rounding: posit::Rounding::NearestEven,
        };
        let eye = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[1, 2, 1, 2]);
        let w = Tensor::from_vec(vec![1.0, 2.0, -0.5, 4.0], &[2, 2, 1, 1]);
        let mut l = Conv2d::new("c", w, None, 1, 0);
        l.set_backends(qui, qui);
        let y1 = l.forward(&eye, true);
        let g1 = l.backward(&eye);
        assert_eq!(y1.data(), &[1.0, 2.0, -0.5, 4.0], "W ⊛ one-hot");
        assert_eq!(g1.data(), &[1.0, -0.5, 2.0, 4.0], "Wᵀ · one-hot dY");
        // In-place update (what Sgd::step does).
        l.params_mut()[0].value.data_mut()[0] = 8.0;
        let y2 = l.forward(&eye, true);
        let g2 = l.backward(&eye);
        assert_eq!(y2.data(), &[8.0, 2.0, -0.5, 4.0], "fwd sees the update");
        assert_eq!(g2.data(), &[8.0, -0.5, 2.0, 4.0], "bwd sees the update");
        // Storage replacement (a packed weight view).
        l.params_mut()[0].value = Tensor::from_vec(vec![0.5, -1.0, 2.0, 0.25], &[2, 2, 1, 1])
            .to_posit(fmt, 0, posit::Rounding::NearestEven);
        let y3 = l.forward(&eye, true);
        let g3 = l.backward(&eye);
        assert_eq!(
            y3.data(),
            &[0.5, -1.0, 2.0, 0.25],
            "fwd sees the replacement"
        );
        assert_eq!(
            g3.data(),
            &[0.5, 2.0, -1.0, 0.25],
            "bwd sees the replacement"
        );
    }

    #[test]
    fn encode_once_backward_matches_per_sample_encode() {
        // The quire backward encodes the cached input once and gathers each
        // sample's col plane; the reference unfolds each sample in f32 and
        // encodes its col matrix and dY slice, as separate planes per
        // sample. ΔW and Δb must agree bit for bit — for an f32 input and
        // for a scale-shifted packed one (decoded, then re-rounded onto
        // the backward grid).
        use posit::{PositFormat, Rounding};
        let fmt = PositFormat::of(8, 2);
        let bwd = Backend::PositQuire {
            fmt,
            rounding: Rounding::NearestEven,
        };
        let kernel = bwd.quire_kernel().expect("quire backend");
        let mut rng = Prng::seed(31);
        let (n, c, o, k, stride, pad) = (3, 2, 3, 3, 2, 1);
        let x = Tensor::rand_normal(&[n, c, 7, 7], 0.0, 1.5, &mut rng);
        let weight = Tensor::rand_normal(&[o, c, k, k], 0.0, 0.4, &mut rng);
        let bias = Tensor::rand_normal(&[o], 0.0, 0.1, &mut rng);
        let fwd_fmt = PositFormat::of(8, 1);
        for input in [x.clone(), x.to_posit(fwd_fmt, -2, Rounding::NearestEven)] {
            let mut l = Conv2d::new("c", weight.clone(), Some(bias.clone()), stride, pad);
            l.set_backends(Backend::F32, bwd);
            let y = l.forward(&input, true);
            let dy = Tensor::rand_normal(y.shape(), 0.0, 1.0, &mut rng);
            l.backward(&dy);

            let g = l.geom(input.shape());
            let (rows, cols) = (g.col_rows(), g.col_cols());
            let mut dw = bwd.grad_quire_buf(o * rows, 0, n * cols).unwrap();
            let mut db = bwd.grad_quire_buf(o, 0, n * cols).unwrap();
            let dense = input.dense();
            let mut col = vec![0.0f32; rows * cols];
            for i in 0..n {
                let len = c * 7 * 7;
                im2col(&dense.data()[i * len..(i + 1) * len], &g, &mut col);
                let dy_plane = kernel.encode_plane(&dy.data()[i * o * cols..(i + 1) * o * cols]);
                dw.accumulate_a_bt(o, cols, rows, &dy_plane, &kernel.encode_plane(&col));
                db.accumulate_row_sums(o, cols, &dy_plane);
            }
            let mut want_w = vec![0.0f32; o * rows];
            let mut want_b = vec![0.0f32; o];
            dw.round_into(&mut want_w);
            db.round_into(&mut want_b);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let packed = input.is_posit();
            assert_eq!(
                bits(l.params()[0].grad.data()),
                bits(&want_w),
                "ΔW packed {packed}"
            );
            assert_eq!(
                bits(l.params()[1].grad.data()),
                bits(&want_b),
                "Δb packed {packed}"
            );
        }
    }

    #[test]
    fn skipped_input_grad_keeps_param_grads() {
        // With set_needs_input_grad(false) the backward skips dX and
        // col2im and returns the documented empty tensor; ΔW and Δb are
        // bit-identical to the flag-on run, on both backends.
        let qui = Backend::PositQuire {
            fmt: posit::PositFormat::of(8, 1),
            rounding: posit::Rounding::NearestEven,
        };
        let mut rng = Prng::seed(37);
        let input = Tensor::rand_normal(&[2, 2, 6, 6], 0.0, 1.0, &mut rng);
        let weight = Tensor::rand_normal(&[3, 2, 3, 3], 0.0, 0.4, &mut rng);
        let bias = Tensor::rand_normal(&[3], 0.0, 0.1, &mut rng);
        let dy = Tensor::rand_normal(&[2, 3, 3, 3], 0.0, 1.0, &mut rng);
        for bk in [Backend::F32, qui] {
            let run = |needs: bool| {
                let mut l = Conv2d::new("c", weight.clone(), Some(bias.clone()), 2, 1);
                l.set_backends(bk, bk);
                l.set_needs_input_grad(needs);
                l.forward(&input, true);
                let gx = l.backward(&dy);
                let grads: Vec<Tensor> = l.params().iter().map(|p| p.grad.clone()).collect();
                (gx, grads)
            };
            let (gx_on, on) = run(true);
            let (gx_off, off) = run(false);
            assert_eq!(gx_on.shape(), input.shape(), "{}", bk.name());
            assert_eq!(gx_off.shape(), no_input_grad().shape(), "{}", bk.name());
            assert!(gx_off.is_empty());
            for (a, b) in on.iter().zip(&off) {
                let bits = |t: &Tensor| t.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(a), bits(b), "{}", bk.name());
            }
        }
    }

    #[test]
    fn grad_accumulates_across_backwards() {
        let mut rng = Prng::seed(44);
        let input = Tensor::rand_normal(&[1, 1, 4, 4], 0.0, 1.0, &mut rng);
        let weight = Tensor::rand_normal(&[1, 1, 3, 3], 0.0, 1.0, &mut rng);
        let mut layer = Conv2d::new("c", weight, None, 1, 1);
        let out = layer.forward(&input, true);
        let g = Tensor::ones(out.shape());
        layer.backward(&g);
        let once = layer.weight.grad.clone();
        layer.forward(&input, true);
        layer.backward(&g);
        for (a, b) in layer.weight.grad.data().iter().zip(once.data()) {
            assert!((a - 2.0 * b).abs() < 1e-4, "grads must accumulate");
        }
        layer.params_mut()[0].zero_grad();
        assert_eq!(layer.weight.grad.max_abs(), 0.0);
    }
}
