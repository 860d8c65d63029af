//! Fully-connected layer with explicit backward.

use crate::layer::{Layer, LayerKind};
use crate::param::Param;
use posit_tensor::{Backend, Layout, Tensor};

/// `Linear`: `y[N,out] = x[N,in] · Wᵀ + b`, weight stored `[out, in]`.
pub struct Linear {
    name: String,
    weight: Param,
    bias: Option<Param>,
    cached_input: Option<Tensor>,
    fwd_backend: Backend,
    bwd_backend: Backend,
}

impl Linear {
    /// Create with explicit weights (see [`crate::init`]).
    pub fn new(name: impl Into<String>, weight: Tensor, bias: Option<Tensor>) -> Linear {
        assert_eq!(weight.shape().len(), 2, "weight must be [out, in]");
        let name = name.into();
        Linear {
            weight: Param::new(format!("{name}.weight"), weight),
            bias: bias.map(|b| Param::no_decay(format!("{name}.bias"), b)),
            name,
            cached_input: None,
            fwd_backend: Backend::F32,
            bwd_backend: Backend::F32,
        }
    }

    /// Select the compute backends: `forward` drives the `x·Wᵀ` GEMM,
    /// `backward` drives both gradient GEMMs (`dYᵀ·X` and `dY·W`) — the
    /// paper's es rule assigns different formats to the two directions.
    pub fn set_backends(&mut self, forward: Backend, backward: Backend) {
        self.fwd_backend = forward;
        self.bwd_backend = backward;
    }

    /// The (forward, backward) compute backends.
    pub fn backends(&self) -> (Backend, Backend) {
        (self.fwd_backend, self.bwd_backend)
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.weight.value.shape()[0]
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.weight.value.shape()[1]
    }
}

impl Layer for Linear {
    fn kind(&self) -> LayerKind {
        LayerKind::Linear
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn forward(&mut self, input: &Tensor, _train: bool) -> Tensor {
        assert_eq!(input.shape().len(), 2, "Linear input must be [N, in]");
        assert_eq!(input.shape()[1], self.in_features(), "feature mismatch");
        self.cached_input = Some(input.clone());
        let n = input.shape()[0];
        let (o, k) = (self.out_features(), self.in_features());
        let mut out = Tensor::zeros(&[n, o]);
        // y = x · Wᵀ — input and weight flow in whichever storage domain
        // they arrived in (packed posit planes feed the quire kernel with
        // no f32 staging).
        let x = self.fwd_backend.prepare_operand(input.operand());
        let w = self.weight.value.operand();
        x.gemm_with(Layout::ABt, n, k, o, w, out.data_mut());
        if let Some(b) = &self.bias {
            let bv = b.value.dense();
            for i in 0..n {
                for (j, &v) in bv.data().iter().enumerate() {
                    out.data_mut()[i * o + j] += v;
                }
            }
        }
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let input = self.cached_input.as_ref().expect("backward before forward");
        let n = input.shape()[0];
        let (o, k) = (self.out_features(), self.in_features());
        let bwd = self.bwd_backend;
        let planes = bwd
            .quire_operand_plane(grad_out.operand())
            .zip(bwd.quire_operand_plane(input.operand()));
        if let Some((dy, x)) = planes {
            // Quire backend: ΔW and Δb land in the parameters' exact
            // accumulators and round once when the batch closes — here,
            // if this backward is a batch of its own. The margins come
            // from the planes' scale shifts, which are the same for every
            // row block of the batch (the input plane's scale exponent is
            // frozen on the whole batch).
            let own_batch = !self.weight.batch.is_open();
            if own_batch {
                self.begin_grad_batch(n);
            }
            let margin = dy.quire_margin() + x.quire_margin();
            self.weight
                .batch
                .acc(|total| {
                    bwd.grad_quire_buf(o * k, margin, total)
                        .expect("quire backend")
                })
                .accumulate_at_b(o, n, k, &dy, &x);
            if let Some(b) = &mut self.bias {
                b.batch
                    .acc(|total| {
                        bwd.grad_quire_buf(o, dy.quire_margin(), total)
                            .expect("quire backend")
                    })
                    .accumulate_col_sums(n, o, &dy);
            }
            if own_batch {
                self.end_grad_batch();
            }
        } else {
            // ΔW += dYᵀ · X — [o, n] × [n, k]
            bwd.prepare_operand(grad_out.operand()).gemm_with(
                Layout::AtB,
                o,
                n,
                k,
                input.operand(),
                self.weight.grad.data_mut(),
            );
            if let Some(b) = &mut self.bias {
                let dy = grad_out.dense();
                for i in 0..n {
                    for (j, gb) in b.grad.data_mut().iter_mut().enumerate() {
                        *gb += dy.data()[i * o + j];
                    }
                }
            }
        }
        // dX = dY · W — [n, o] × [o, k]
        let mut grad_in = Tensor::zeros(&[n, k]);
        let dy = self.bwd_backend.prepare_operand(grad_out.operand());
        let w = self.weight.value.operand();
        dy.gemm_with(Layout::AB, n, o, k, w, grad_in.data_mut());
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use posit_tensor::rng::Prng;

    #[test]
    fn forward_small() {
        let w = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = Tensor::from_vec(vec![0.5, -0.5], &[2]);
        let mut l = Linear::new("fc", w, Some(b));
        let x = Tensor::from_vec(vec![1.0, 0.0, -1.0], &[1, 3]);
        let y = l.forward(&x, true);
        assert_eq!(y.data(), &[1.0 - 3.0 + 0.5, 4.0 - 6.0 - 0.5]);
    }

    #[test]
    fn posit_backends_agree_on_exact_inputs() {
        use posit_tensor::Backend;
        // Power-of-two data is exact in posit(16,1) and f32 alike, so the
        // both backends must produce identical forward/backward tensors.
        let fmt = posit::PositFormat::of(16, 1);
        let rounding = posit::Rounding::NearestEven;
        let w = Tensor::from_vec(vec![0.5, -1.0, 2.0, 0.25, 4.0, -0.125], &[2, 3]);
        let x = Tensor::from_vec(vec![1.0, -2.0, 0.5, 8.0, 0.25, -1.0], &[2, 3]);
        let dy = Tensor::from_vec(vec![1.0, -0.5, 2.0, 0.25], &[2, 2]);

        let run = |fwd: Backend, bwd: Backend| {
            let mut l = Linear::new("fc", w.clone(), None);
            l.set_backends(fwd, bwd);
            assert_eq!(l.backends(), (fwd, bwd));
            let y = l.forward(&x, true);
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
        // Any shard split of the batch — including uneven ones — must
        // produce bit-identical ΔW and Δb; a backward with no open batch
        // is the 1-shard batch, and its ΔW is the quire GEMM's round-once
        // result.
        let fmt = posit::PositFormat::of(16, 1);
        let qui = Backend::PositQuire {
            fmt,
            rounding: posit::Rounding::NearestEven,
        };
        let mut rng = Prng::seed(17);
        let w = Tensor::rand_normal(&[3, 5], 0.0, 0.5, &mut rng);
        let b = Tensor::rand_normal(&[3], 0.0, 0.1, &mut rng);
        let x = Tensor::rand_normal(&[8, 5], 0.0, 1.0, &mut rng);
        let dy = Tensor::rand_normal(&[8, 3], 0.0, 1.0, &mut rng);
        let n = 8;

        let run = |splits: &[usize]| {
            let mut l = Linear::new("fc", w.clone(), Some(b.clone()));
            l.set_backends(qui, qui);
            l.begin_grad_batch(n);
            let mut start = 0;
            for &rows in splits {
                l.forward(&x.slice_rows(start, start + rows), true);
                l.backward(&dy.slice_rows(start, start + rows));
                start += rows;
            }
            assert_eq!(start, n);
            l.end_grad_batch();
            (l.params()[0].grad.clone(), l.params()[1].grad.clone())
        };
        let (dw1, db1) = run(&[8]);
        for splits in [vec![4, 4], vec![3, 3, 2], vec![1; 8], vec![5, 1, 2]] {
            let (dw, db) = run(&splits);
            assert_eq!(dw.data(), dw1.data(), "dW {splits:?}");
            assert_eq!(db.data(), db1.data(), "db {splits:?}");
        }
        let mut unbatched = Linear::new("fc", w.clone(), Some(b.clone()));
        unbatched.set_backends(qui, qui);
        unbatched.forward(&x, true);
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
        let mut gemm = vec![0.0f32; 3 * 5];
        qui.prepare_operand(dy.operand())
            .gemm_with(Layout::AtB, 3, n, 5, x.operand(), &mut gemm);
        assert_eq!(dw1.data(), gemm.as_slice(), "dW vs the quire GEMM");
    }

    #[test]
    fn forward_and_backward_see_weight_updates() {
        // Forward and backward must follow in-place optimizer-style writes
        // and whole-storage replacements (the Quantized wrapper's
        // packed-view install).
        let fmt = posit::PositFormat::of(8, 1);
        let qui = Backend::PositQuire {
            fmt,
            rounding: posit::Rounding::NearestEven,
        };
        let w = Tensor::from_vec(vec![1.0, 2.0, -0.5, 4.0], &[2, 2]);
        let x = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2]);
        let dy = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2]);
        let mut l = Linear::new("fc", w, None);
        l.set_backends(qui, qui);
        let y1 = l.forward(&x, true);
        let g1 = l.backward(&dy);
        assert_eq!(y1.data(), &[1.0, -0.5, 2.0, 4.0], "x·Wᵀ with x = I");
        assert_eq!(g1.data(), &[1.0, 2.0, -0.5, 4.0], "dY·W with dY = I");
        // In-place update (what Sgd::step does).
        l.params_mut()[0].value.data_mut()[0] = 8.0;
        let y2 = l.forward(&x, true);
        let g2 = l.backward(&dy);
        assert_eq!(y2.data(), &[8.0, -0.5, 2.0, 4.0], "fwd sees the update");
        assert_eq!(g2.data(), &[8.0, 2.0, -0.5, 4.0], "bwd sees the update");
        // Storage replacement (a packed weight view).
        l.params_mut()[0].value = Tensor::from_vec(vec![0.5, 0.5, 0.5, 0.5], &[2, 2]).to_posit(
            fmt,
            0,
            posit::Rounding::NearestEven,
        );
        let y3 = l.forward(&x, true);
        assert_eq!(y3.data(), &[0.5, 0.5, 0.5, 0.5], "replacement rebuilds");
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = Prng::seed(9);
        let w0 = Tensor::rand_normal(&[4, 6], 0.0, 0.5, &mut rng);
        let b0 = Tensor::rand_normal(&[4], 0.0, 0.1, &mut rng);
        let x0 = Tensor::rand_normal(&[3, 6], 0.0, 1.0, &mut rng);
        let r = Tensor::rand_normal(&[3, 4], 0.0, 1.0, &mut rng);

        let loss = |w: &Tensor, b: &Tensor, x: &Tensor| -> f64 {
            let mut l = Linear::new("fc", w.clone(), Some(b.clone()));
            let y = l.forward(x, true);
            y.data()
                .iter()
                .zip(r.data())
                .map(|(&a, &b)| (a * b) as f64)
                .sum()
        };

        let mut layer = Linear::new("fc", w0.clone(), Some(b0.clone()));
        layer.forward(&x0, true);
        let grad_in = layer.backward(&r);

        let eps = 1e-3f32;
        for &idx in &[0usize, 7, 13, 23] {
            let mut wp = w0.clone();
            wp.data_mut()[idx] += eps;
            let mut wm = w0.clone();
            wm.data_mut()[idx] -= eps;
            let num = (loss(&wp, &b0, &x0) - loss(&wm, &b0, &x0)) / (2.0 * eps as f64);
            let ana = layer.weight.grad.data()[idx] as f64;
            assert!((num - ana).abs() < 1e-2 * (1.0 + ana.abs()), "dW[{idx}]");
        }
        for &idx in &[0usize, 5, 11, 17] {
            let mut xp = x0.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x0.clone();
            xm.data_mut()[idx] -= eps;
            let num = (loss(&w0, &b0, &xp) - loss(&w0, &b0, &xm)) / (2.0 * eps as f64);
            let ana = grad_in.data()[idx] as f64;
            assert!((num - ana).abs() < 1e-2 * (1.0 + ana.abs()), "dX[{idx}]");
        }
    }
}
