//! Softmax cross-entropy loss.

use posit_tensor::Tensor;

/// Combined softmax + cross-entropy over logits `[N, C]` with integer
/// class targets. Produces the mean loss and the logits gradient in one
/// pass (the start of the paper's backward dataflow, `E^L`).
#[derive(Debug, Clone, Copy, Default)]
pub struct SoftmaxCrossEntropy;

impl SoftmaxCrossEntropy {
    /// Create the loss.
    pub fn new() -> SoftmaxCrossEntropy {
        SoftmaxCrossEntropy
    }

    /// Mean loss and `dL/dlogits`.
    ///
    /// # Panics
    ///
    /// Panics if shapes disagree or a target index is out of range.
    pub fn forward(&self, logits: &Tensor, targets: &[usize]) -> (f64, Tensor) {
        // Softmax is f32 arithmetic: packed posit logits decode here.
        let logits = logits.dense();
        let logits = logits.as_ref();
        let sh = logits.shape();
        assert_eq!(sh.len(), 2, "logits must be [N, C]");
        let (n, c) = (sh[0], sh[1]);
        assert_eq!(targets.len(), n, "target count mismatch");
        let mut grad = Tensor::zeros(sh);
        let mut loss = 0.0f64;
        for (i, &t) in targets.iter().enumerate() {
            let row = &logits.data()[i * c..(i + 1) * c];
            assert!(t < c, "target {t} out of range {c}");
            let max = row.iter().fold(f32::NEG_INFINITY, |m, &x| m.max(x));
            let exps: Vec<f64> = row.iter().map(|&x| ((x - max) as f64).exp()).collect();
            let z: f64 = exps.iter().sum();
            loss += -(exps[t] / z).ln();
            let g = &mut grad.data_mut()[i * c..(i + 1) * c];
            for (j, gj) in g.iter_mut().enumerate() {
                let p = (exps[j] / z) as f32;
                *gj = (p - if j == t { 1.0 } else { 0.0 }) / n as f32;
            }
        }
        (loss / n as f64, grad)
    }

    /// Per-row softmax probabilities (for calibration inspection).
    pub fn probabilities(&self, logits: &Tensor) -> Tensor {
        let logits = logits.dense();
        let logits = logits.as_ref();
        let sh = logits.shape();
        let (n, c) = (sh[0], sh[1]);
        let mut out = Tensor::zeros(sh);
        for i in 0..n {
            let row = &logits.data()[i * c..(i + 1) * c];
            let max = row.iter().fold(f32::NEG_INFINITY, |m, &x| m.max(x));
            let exps: Vec<f64> = row.iter().map(|&x| ((x - max) as f64).exp()).collect();
            let z: f64 = exps.iter().sum();
            for (j, e) in exps.iter().enumerate() {
                out.data_mut()[i * c + j] = (e / z) as f32;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use posit_tensor::rng::Prng;

    #[test]
    fn uniform_logits_give_log_c() {
        let loss = SoftmaxCrossEntropy::new();
        let logits = Tensor::zeros(&[4, 10]);
        let (l, grad) = loss.forward(&logits, &[0, 1, 2, 3]);
        assert!((l - (10.0f64).ln()).abs() < 1e-6);
        // gradient rows sum to zero
        for i in 0..4 {
            let s: f32 = grad.data()[i * 10..(i + 1) * 10].iter().sum();
            assert!(s.abs() < 1e-6);
        }
    }

    #[test]
    fn perfect_prediction_loss_near_zero() {
        let loss = SoftmaxCrossEntropy::new();
        let mut logits = Tensor::zeros(&[1, 3]);
        logits.data_mut()[1] = 50.0;
        let (l, _) = loss.forward(&logits, &[1]);
        assert!(l < 1e-6, "loss {l}");
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let mut rng = Prng::seed(10);
        let logits = Tensor::rand_normal(&[3, 5], 0.0, 2.0, &mut rng);
        let targets = [2usize, 0, 4];
        let lossfn = SoftmaxCrossEntropy::new();
        let (_, grad) = lossfn.forward(&logits, &targets);
        let eps = 1e-3f32;
        for idx in 0..15 {
            let mut lp = logits.clone();
            lp.data_mut()[idx] += eps;
            let mut lm = logits.clone();
            lm.data_mut()[idx] -= eps;
            let (fp, _) = lossfn.forward(&lp, &targets);
            let (fm, _) = lossfn.forward(&lm, &targets);
            let num = (fp - fm) / (2.0 * eps as f64);
            let ana = grad.data()[idx] as f64;
            assert!((num - ana).abs() < 1e-3, "d[{idx}] {num} vs {ana}");
        }
    }

    #[test]
    fn probabilities_sum_to_one() {
        let mut rng = Prng::seed(11);
        let logits = Tensor::rand_normal(&[4, 7], 0.0, 3.0, &mut rng);
        let p = SoftmaxCrossEntropy::new().probabilities(&logits);
        for i in 0..4 {
            let s: f32 = p.data()[i * 7..(i + 1) * 7].iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn numerically_stable_for_large_logits() {
        let loss = SoftmaxCrossEntropy::new();
        let logits = Tensor::from_vec(vec![1e4, -1e4, 0.0], &[1, 3]);
        let (l, grad) = loss.forward(&logits, &[0]);
        assert!(l.is_finite() && l < 1e-6);
        assert!(grad.data().iter().all(|g| g.is_finite()));
    }
}
