//! Training metrics: top-1 accuracy and running averages.

use posit_tensor::Tensor;

/// Top-1 accuracy of logits `[N, C]` against integer targets, in `[0, 1]`.
///
/// # Panics
///
/// Panics if shapes disagree.
pub fn top1_accuracy(logits: &Tensor, targets: &[usize]) -> f64 {
    let n = targets.len();
    if n == 0 {
        return 0.0;
    }
    let logits = logits.dense();
    let logits = logits.as_ref();
    let sh = logits.shape();
    assert_eq!(sh.len(), 2, "logits must be [N, C]");
    let c = sh[1];
    assert_eq!(sh[0], n, "target count mismatch");
    let mut correct = 0usize;
    for (i, &target) in targets.iter().enumerate() {
        let row = &logits.data()[i * c..(i + 1) * c];
        let mut best = 0usize;
        for j in 1..c {
            if row[j] > row[best] {
                best = j;
            }
        }
        if best == target {
            correct += 1;
        }
    }
    correct as f64 / n as f64
}

/// A running average (weighted by sample count), for loss/accuracy meters.
#[derive(Debug, Clone, Copy, Default)]
pub struct Meter {
    sum: f64,
    count: f64,
}

impl Meter {
    /// An empty meter.
    pub fn new() -> Meter {
        Meter::default()
    }

    /// Add a value with a weight (e.g. batch size).
    pub fn update(&mut self, value: f64, weight: f64) {
        self.sum += value * weight;
        self.count += weight;
    }

    /// Weighted mean so far (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0.0 {
            0.0
        } else {
            self.sum / self.count
        }
    }

    /// Reset to empty.
    pub fn reset(&mut self) {
        *self = Meter::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_counts_argmax_hits() {
        let logits = Tensor::from_vec(
            vec![
                0.9, 0.1, 0.0, // -> 0
                0.1, 0.8, 0.1, // -> 1
                0.2, 0.3, 0.5, // -> 2
                0.6, 0.3, 0.1, // -> 0
            ],
            &[4, 3],
        );
        assert_eq!(top1_accuracy(&logits, &[0, 1, 2, 0]), 1.0);
        assert_eq!(top1_accuracy(&logits, &[1, 1, 2, 0]), 0.75);
        assert_eq!(top1_accuracy(&logits, &[1, 0, 1, 2]), 0.0);
    }

    #[test]
    fn meter_weighted_mean() {
        let mut m = Meter::new();
        m.update(1.0, 10.0);
        m.update(0.0, 30.0);
        assert_eq!(m.mean(), 0.25);
        m.reset();
        assert_eq!(m.mean(), 0.0);
    }
}
