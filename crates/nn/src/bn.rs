//! 2-D batch normalization with explicit backward.
//!
//! The paper's Fig. 2 singles out BN weights: their distribution shifts
//! sharply during the first epochs (the motivation for warm-up training),
//! and Table III gives BN layers wider posit formats than CONV layers.

use crate::layer::{Layer, LayerKind};
use crate::param::Param;
use posit_tensor::Tensor;

/// `BatchNorm2d` over NCHW: per-channel statistics across `N·H·W`.
pub struct BatchNorm2d {
    name: String,
    gamma: Param,
    beta: Param,
    running_mean: Vec<f32>,
    running_var: Vec<f32>,
    momentum: f32,
    eps: f32,
    // backward caches
    xhat: Option<Tensor>,
    inv_std: Vec<f32>,
}

impl BatchNorm2d {
    /// BN with `γ = 1`, `β = 0`, running stats `(0, 1)`.
    pub fn new(name: impl Into<String>, channels: usize) -> BatchNorm2d {
        let name = name.into();
        BatchNorm2d {
            gamma: Param::no_decay(format!("{name}.weight"), Tensor::ones(&[channels])),
            beta: Param::no_decay(format!("{name}.bias"), Tensor::zeros(&[channels])),
            name,
            running_mean: vec![0.0; channels],
            running_var: vec![1.0; channels],
            momentum: 0.1,
            eps: 1e-5,
            xhat: None,
            inv_std: Vec::new(),
        }
    }

    /// Channel count.
    pub fn channels(&self) -> usize {
        self.gamma.value.len()
    }

    /// The scale parameter γ (the paper's `bn.weight` in Fig. 2).
    pub fn gamma(&self) -> &Tensor {
        &self.gamma.value
    }

    /// Running mean (eval-mode statistics).
    pub fn running_mean(&self) -> &[f32] {
        &self.running_mean
    }

    /// Running variance (eval-mode statistics).
    pub fn running_var(&self) -> &[f32] {
        &self.running_var
    }
}

impl Layer for BatchNorm2d {
    fn kind(&self) -> LayerKind {
        LayerKind::BatchNorm
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        // BN arithmetic (statistics, normalization) is defined on dense
        // values: a packed posit input or packed γ/β decode once here (a
        // free borrow in the f32 domain).
        let input = input.dense();
        let input = input.as_ref();
        let gamma = self.gamma.value.dense();
        let beta = self.beta.value.dense();
        let sh = input.shape();
        assert_eq!(sh.len(), 4, "BatchNorm2d input must be NCHW");
        let (n, c, h, w) = (sh[0], sh[1], sh[2], sh[3]);
        assert_eq!(c, self.channels(), "channel mismatch");
        let m = (n * h * w) as f32;
        let mut out = Tensor::zeros(sh);
        let mut xhat = Tensor::zeros(sh);
        self.inv_std = vec![0.0; c];
        for ch in 0..c {
            let (mean, var) = if train {
                let mut sum = 0.0f64;
                let mut sq = 0.0f64;
                for i in 0..n {
                    let plane = &input.data()[((i * c + ch) * h * w)..((i * c + ch + 1) * h * w)];
                    for &v in plane {
                        sum += v as f64;
                        sq += (v as f64) * (v as f64);
                    }
                }
                let mean = (sum / m as f64) as f32;
                let var = ((sq / m as f64) - (mean as f64) * (mean as f64)).max(0.0) as f32;
                // Update running stats (unbiased variance, PyTorch-style).
                let unbiased = var * m / (m - 1.0).max(1.0);
                self.running_mean[ch] =
                    (1.0 - self.momentum) * self.running_mean[ch] + self.momentum * mean;
                self.running_var[ch] =
                    (1.0 - self.momentum) * self.running_var[ch] + self.momentum * unbiased;
                (mean, var)
            } else {
                (self.running_mean[ch], self.running_var[ch])
            };
            let inv = 1.0 / (var + self.eps).sqrt();
            self.inv_std[ch] = inv;
            let g = gamma.data()[ch];
            let b = beta.data()[ch];
            for i in 0..n {
                let base = (i * c + ch) * h * w;
                for j in 0..h * w {
                    let xh = (input.data()[base + j] - mean) * inv;
                    xhat.data_mut()[base + j] = xh;
                    out.data_mut()[base + j] = g * xh + b;
                }
            }
        }
        if train {
            self.xhat = Some(xhat);
        }
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let grad_out = grad_out.dense();
        let grad_out = grad_out.as_ref();
        let gamma = self.gamma.value.dense();
        let xhat = self.xhat.as_ref().expect("backward before forward(train)");
        let sh = grad_out.shape();
        let (n, c, h, w) = (sh[0], sh[1], sh[2], sh[3]);
        let m = (n * h * w) as f32;
        let mut grad_in = Tensor::zeros(sh);
        for ch in 0..c {
            // dβ = Σ dy ; dγ = Σ dy·x̂
            let mut dbeta = 0.0f64;
            let mut dgamma = 0.0f64;
            for i in 0..n {
                let base = (i * c + ch) * h * w;
                for j in 0..h * w {
                    let dy = grad_out.data()[base + j] as f64;
                    dbeta += dy;
                    dgamma += dy * xhat.data()[base + j] as f64;
                }
            }
            self.beta.grad.data_mut()[ch] += dbeta as f32;
            self.gamma.grad.data_mut()[ch] += dgamma as f32;
            // dx = (γ/(m·σ)) · (m·dy − dβ − x̂·dγ)
            let scale = gamma.data()[ch] * self.inv_std[ch] / m;
            for i in 0..n {
                let base = (i * c + ch) * h * w;
                for j in 0..h * w {
                    let dy = grad_out.data()[base + j];
                    let xh = xhat.data()[base + j];
                    grad_in.data_mut()[base + j] =
                        scale * (m * dy - dbeta as f32 - xh * dgamma as f32);
                }
            }
        }
        grad_in
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.gamma, &mut self.beta]
    }

    fn params(&self) -> Vec<&Param> {
        vec![&self.gamma, &self.beta]
    }

    fn state_entries(&self) -> Vec<(String, Vec<u8>)> {
        // The running statistics are inference state, not parameters: a
        // checkpoint that drops them restores a net whose eval pass
        // renormalizes with the (0, 1) init instead of the learned stats.
        let pack = |xs: &[f32]| xs.iter().flat_map(|v| v.to_le_bytes()).collect();
        vec![
            (
                format!("{}.running_mean", self.name),
                pack(&self.running_mean),
            ),
            (
                format!("{}.running_var", self.name),
                pack(&self.running_var),
            ),
        ]
    }

    fn restore_state_entries(&mut self, lookup: &dyn Fn(&str) -> Option<Vec<u8>>) {
        let unpack = |bytes: &[u8], dst: &mut Vec<f32>| {
            if bytes.len() == 4 * dst.len() {
                for (d, c) in dst.iter_mut().zip(bytes.chunks_exact(4)) {
                    *d = f32::from_le_bytes(c.try_into().expect("len 4"));
                }
            }
        };
        if let Some(b) = lookup(&format!("{}.running_mean", self.name)) {
            unpack(&b, &mut self.running_mean);
        }
        if let Some(b) = lookup(&format!("{}.running_var", self.name)) {
            unpack(&b, &mut self.running_var);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use posit_tensor::rng::Prng;

    #[test]
    fn normalizes_batch_statistics() {
        let mut rng = Prng::seed(1);
        let x = Tensor::rand_normal(&[4, 3, 5, 5], 2.0, 3.0, &mut rng);
        let mut bn = BatchNorm2d::new("bn", 3);
        let y = bn.forward(&x, true);
        // Per-channel output mean ≈ 0, var ≈ 1.
        let (n, c, h, w) = (4, 3, 5, 5);
        for ch in 0..c {
            let mut sum = 0.0f64;
            let mut sq = 0.0f64;
            for i in 0..n {
                let base = (i * c + ch) * h * w;
                for j in 0..h * w {
                    let v = y.data()[base + j] as f64;
                    sum += v;
                    sq += v * v;
                }
            }
            let m = (n * h * w) as f64;
            let mean = sum / m;
            let var = sq / m - mean * mean;
            assert!(mean.abs() < 1e-4, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-3, "var {var}");
        }
    }

    #[test]
    fn eval_uses_running_stats() {
        let mut rng = Prng::seed(2);
        let mut bn = BatchNorm2d::new("bn", 2);
        // Train on many batches so running stats converge to (2, 9).
        for _ in 0..200 {
            let x = Tensor::rand_normal(&[8, 2, 4, 4], 2.0, 3.0, &mut rng);
            bn.forward(&x, true);
        }
        assert!((bn.running_mean()[0] - 2.0).abs() < 0.2);
        assert!((bn.running_var()[0] - 9.0).abs() < 1.0);
        // Eval: a constant input maps deterministically via running stats.
        let x = Tensor::full(&[1, 2, 2, 2], 2.0);
        let y = bn.forward(&x, false);
        for &v in y.data() {
            assert!(v.abs() < 0.2, "≈ (2-2)/3 = 0 expected, got {v}");
        }
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = Prng::seed(3);
        let x = Tensor::rand_normal(&[3, 2, 4, 4], 0.5, 1.5, &mut rng);
        let r = Tensor::rand_normal(&[3, 2, 4, 4], 0.0, 1.0, &mut rng);
        let gamma0 = Tensor::from_vec(vec![1.3, 0.7], &[2]);
        let beta0 = Tensor::from_vec(vec![0.2, -0.1], &[2]);

        let loss = |g: &Tensor, b: &Tensor, x: &Tensor| -> f64 {
            let mut bn = BatchNorm2d::new("bn", 2);
            bn.gamma.value = g.clone();
            bn.beta.value = b.clone();
            let y = bn.forward(x, true);
            y.data()
                .iter()
                .zip(r.data())
                .map(|(&a, &b)| (a * b) as f64)
                .sum()
        };

        let mut bn = BatchNorm2d::new("bn", 2);
        bn.gamma.value = gamma0.clone();
        bn.beta.value = beta0.clone();
        bn.forward(&x, true);
        let grad_in = bn.backward(&r);

        let eps = 1e-3f32;
        for idx in 0..2 {
            let mut gp = gamma0.clone();
            gp.data_mut()[idx] += eps;
            let mut gm = gamma0.clone();
            gm.data_mut()[idx] -= eps;
            let num = (loss(&gp, &beta0, &x) - loss(&gm, &beta0, &x)) / (2.0 * eps as f64);
            let ana = bn.gamma.grad.data()[idx] as f64;
            assert!(
                (num - ana).abs() < 2e-2 * (1.0 + ana.abs()),
                "dγ[{idx}] {num} vs {ana}"
            );
            let mut bp = beta0.clone();
            bp.data_mut()[idx] += eps;
            let mut bm = beta0.clone();
            bm.data_mut()[idx] -= eps;
            let num = (loss(&gamma0, &bp, &x) - loss(&gamma0, &bm, &x)) / (2.0 * eps as f64);
            let ana = bn.beta.grad.data()[idx] as f64;
            assert!((num - ana).abs() < 2e-2 * (1.0 + ana.abs()), "dβ[{idx}]");
        }
        for &idx in &[0usize, 17, 33, 95] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let num =
                (loss(&gamma0, &beta0, &xp) - loss(&gamma0, &beta0, &xm)) / (2.0 * eps as f64);
            let ana = grad_in.data()[idx] as f64;
            assert!(
                (num - ana).abs() < 3e-2 * (1.0 + ana.abs()),
                "dx[{idx}] {num} vs {ana}"
            );
        }
    }

    #[test]
    fn params_exempt_from_decay() {
        let bn = BatchNorm2d::new("bn", 4);
        for p in bn.params() {
            assert!(!p.decay, "BN affine params must not decay");
        }
        assert_eq!(bn.kind(), LayerKind::BatchNorm);
    }
}
