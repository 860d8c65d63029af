//! 2-D convolution layer with explicit backward.

use crate::layer::{Layer, LayerKind};
use crate::param::Param;
use posit_tensor::conv::{col2im, conv2d_prepared, im2col, ConvGeom};
use posit_tensor::{Backend, GradQuireBuf, Layout, Operand, OperandCache, Tensor};

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
    /// Per-direction prepared-weight memos keyed on the weight's content
    /// stamp (see [`posit_tensor::Backend::prepare_tensor_cached`]): the
    /// weight tile decode survives across batches until the optimizer
    /// writes new weights.
    fwd_weight_cache: OperandCache,
    bwd_weight_cache: OperandCache,
    /// Exact-gradient shard protocol (see [`Layer::begin_grad_batch`]):
    /// `Some(total_samples)` while a batch is open, one lazily-created
    /// buffer per shard (the construction margin is read off the operand
    /// planes at first backward).
    grad_batch: Option<usize>,
    shard_dw: Vec<Option<GradQuireBuf>>,
    shard_db: Vec<Option<GradQuireBuf>>,
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
            fwd_weight_cache: OperandCache::new(),
            bwd_weight_cache: OperandCache::new(),
            grad_batch: None,
            shard_dw: Vec::new(),
            shard_db: Vec::new(),
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
        // The prepared weight tile is memoized across batches (content
        // stamp keyed), not just across the samples of one batch.
        let w_prep = self
            .fwd_backend
            .prepare_tensor_cached(&self.weight.value, &mut self.fwd_weight_cache);
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
        let input = self
            .cached_input
            .as_ref()
            .expect("backward before forward")
            .dense();
        let ish = input.shape();
        let g = self.geom(ish);
        let n = ish[0];
        let o = self.out_channels();
        let (rows, cols) = (g.col_rows(), g.col_cols());
        let sample_in = g.c * g.h * g.w;
        let sample_out = o * cols;

        // The im2col unfold and the per-sample slicing are defined on dense
        // values: packed activations/errors decode once here, at the
        // storage-domain boundary.
        let grad_out = grad_out.dense();
        let mut grad_in = Tensor::zeros(ish);
        let mut col = vec![0.0f32; rows * cols];
        let mut dcol = vec![0.0f32; rows * cols];
        // weight as [O, rows]; grad_out sample as [O, cols]. The weight
        // operand of the dX GEMM comes from the backward-direction memo
        // (decode-once from packed bits for the quire backend, reused
        // across batches until the weight content changes). The quire
        // kernel still re-packs this plane into its A panel per sample —
        // a known, bounded cost (O(O·rows) per O(rows·O·cols) GEMM, a few
        // percent at the LeNet shapes) that batching the per-sample GEMMs
        // would remove at the price of restructuring col2im.
        let w_prep = self
            .bwd_backend
            .prepare_tensor_cached(&self.weight.value, &mut self.bwd_weight_cache);
        let bwd = self.bwd_backend;
        let exact = self
            .grad_batch
            .filter(|_| matches!(bwd, Backend::PositQuire { .. }));
        for i in 0..n {
            let dy = &grad_out.data()[i * sample_out..(i + 1) * sample_out];
            // ΔW += dY · colᵀ  — [O, cols] × [cols, rows]
            im2col(
                &input.data()[i * sample_in..(i + 1) * sample_in],
                &g,
                &mut col,
            );
            if let Some(total) = exact {
                // Shard-protocol path: every per-sample product lands in
                // the shard's quire buffer, so ΔW accumulates exactly
                // across the *whole* batch (the legacy path rounds once
                // per sample) and merges shard-invariantly. The encode of
                // the dense dy/col slices is element-wise, hence identical
                // whatever shard a sample lands in.
                let dy_plane = bwd.quire_operand_plane(Operand::F32(dy)).unwrap();
                let col_plane = bwd.quire_operand_plane(Operand::F32(&col)).unwrap();
                let margin = dy_plane.quire_margin() + col_plane.quire_margin();
                let slot = self
                    .shard_dw
                    .last_mut()
                    .expect("backward outside begin_grad_shard");
                slot.get_or_insert_with(|| {
                    bwd.grad_quire_buf(o * rows, margin, total * cols)
                        .expect("shard protocol requires a quire backend")
                })
                .accumulate_a_bt(o, cols, rows, &dy_plane, &col_plane);
                if self.bias.is_some() {
                    let slot = self.shard_db.last_mut().expect("shard state out of sync");
                    slot.get_or_insert_with(|| {
                        bwd.grad_quire_buf(o, dy_plane.quire_margin(), total * cols)
                            .expect("shard protocol requires a quire backend")
                    })
                    .accumulate_row_sums(o, cols, &dy_plane);
                }
            } else {
                bwd.prepare(dy).gemm_with(
                    Layout::ABt,
                    o,
                    cols,
                    rows,
                    col.as_slice(),
                    self.weight.grad.data_mut(),
                );
            }
            // dX_col = Wᵀ · dY — [rows, O] × [O, cols]
            dcol.fill(0.0);
            w_prep.gemm_with(Layout::AtB, rows, o, cols, dy, &mut dcol);
            col2im(
                &dcol,
                &g,
                &mut grad_in.data_mut()[i * sample_in..(i + 1) * sample_in],
            );
        }
        if exact.is_none() {
            if let Some(b) = &mut self.bias {
                for i in 0..n {
                    let dy = &grad_out.data()[i * sample_out..(i + 1) * sample_out];
                    for (oc, gb) in b.grad.data_mut().iter_mut().enumerate() {
                        *gb += dy[oc * cols..(oc + 1) * cols].iter().sum::<f32>();
                    }
                }
            }
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

    fn begin_grad_batch(&mut self, total_samples: usize) {
        self.grad_batch = Some(total_samples);
        self.shard_dw.clear();
        self.shard_db.clear();
    }

    fn begin_grad_shard(&mut self) {
        self.shard_dw.push(None);
        self.shard_db.push(None);
    }

    fn end_grad_batch(&mut self) {
        if self.grad_batch.take().is_none() {
            return;
        }
        let mut dw = std::mem::take(&mut self.shard_dw).into_iter().flatten();
        if let Some(mut total) = dw.next() {
            for shard in dw {
                total.merge_from(&shard);
            }
            total.round_into(self.weight.grad.data_mut());
        }
        let mut db = std::mem::take(&mut self.shard_db).into_iter().flatten();
        if let Some(mut total) = db.next() {
            for shard in db {
                total.merge_from(&shard);
            }
            if let Some(b) = &mut self.bias {
                total.round_into(b.grad.data_mut());
            }
        }
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
        // the quire protocol must agree bit-for-bit with the 1-shard run.
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
                l.begin_grad_shard();
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
