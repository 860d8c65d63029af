//! Learnable parameters.

use posit_tensor::{GradQuireBuf, Tensor};

/// A learnable parameter: master value and accumulated gradient (the
/// paper's `W` and `ΔW`).
#[derive(Debug, Clone)]
pub struct Param {
    /// Qualified name, PyTorch-style (`"conv1.weight"`, `"layer4.0.bn1.weight"`)
    /// — the convention the paper's Fig. 2 uses.
    pub name: String,
    /// The parameter tensor `W`.
    pub value: Tensor,
    /// The gradient tensor `ΔW`, accumulated by `backward`.
    pub grad: Tensor,
    /// Whether weight decay applies (true for weights, false for BN
    /// affine parameters and biases, following ResNet practice).
    pub decay: bool,
    /// The open gradient batch and its exact `ΔW` accumulator (see
    /// [`Param::begin_grad_batch`]). A field of its own so a layer can
    /// accumulate into it while its backward borrows [`Param::value`].
    pub batch: GradBatch,
}

impl Param {
    /// A named parameter with zeroed gradient.
    pub fn new(name: impl Into<String>, value: Tensor) -> Param {
        let grad = Tensor::zeros(value.shape());
        Param {
            name: name.into(),
            value,
            grad,
            decay: true,
            batch: GradBatch::default(),
        }
    }

    /// A named parameter exempt from weight decay.
    pub fn no_decay(name: impl Into<String>, value: Tensor) -> Param {
        Param {
            decay: false,
            ..Param::new(name, value)
        }
    }

    /// Zero the gradient buffer.
    pub fn zero_grad(&mut self) {
        self.grad.data_mut().fill(0.0);
    }

    /// Open a gradient batch of `total_samples` rows. Until
    /// [`Param::end_grad_batch`], a quire-backend backward adds every
    /// product of this parameter's `ΔW` into one exact accumulator
    /// ([`GradBatch::acc`]) instead of rounding into [`Param::grad`].
    pub fn begin_grad_batch(&mut self, total_samples: usize) {
        self.batch = GradBatch {
            total: Some(total_samples),
            acc: None,
        };
    }

    /// Close the gradient batch: round every accumulated element once and
    /// add it into [`Param::grad`] — the single `P(·)` of the batch's
    /// exact sum. A batch that accumulated nothing (f32 backend, whose
    /// backward writes [`Param::grad`] directly) leaves the gradient as is.
    pub fn end_grad_batch(&mut self) {
        if let Some(acc) = std::mem::take(&mut self.batch).acc {
            acc.round_into(self.grad.data_mut());
        }
    }
}

/// A parameter's open gradient batch: its row count and the one exact
/// accumulator every shard of the batch adds into.
#[derive(Debug, Clone, Default)]
pub struct GradBatch {
    total: Option<usize>,
    /// Built at first use: its construction margin comes from the operand
    /// planes the layer's backward builds.
    acc: Option<GradQuireBuf>,
}

impl GradBatch {
    /// True while a gradient batch is open.
    pub fn is_open(&self) -> bool {
        self.total.is_some()
    }

    /// The batch's accumulator, built on first use by
    /// `make(total_samples)`. Every shard adds into this one buffer, so
    /// `make` sizes it for the whole batch's reduction depth.
    ///
    /// # Panics
    ///
    /// Panics if no gradient batch is open.
    pub fn acc(&mut self, make: impl FnOnce(usize) -> GradQuireBuf) -> &mut GradQuireBuf {
        let total = self.total.expect("gradient accumulation outside a batch");
        self.acc.get_or_insert_with(|| make(total))
    }
}
