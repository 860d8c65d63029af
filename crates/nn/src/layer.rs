//! The layer trait and the structural layers (ReLU, Flatten, Sequential,
//! Residual).

use crate::param::Param;
use posit_tensor::Tensor;

/// Coarse layer taxonomy. The paper's Table III assigns different posit
/// precisions to CONV and BN layers, so the quantizer needs to know which
/// is which.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayerKind {
    /// Convolution layers (Table III: posit(8,1)/(8,2) on CIFAR).
    Conv,
    /// Batch-normalization layers (Table III: posit(16,1)/(16,2) on CIFAR).
    BatchNorm,
    /// Fully-connected layers (treated like CONV by the quantizer).
    Linear,
    /// Parameter-free activations.
    Activation,
    /// Pooling layers.
    Pool,
    /// Shape-only layers.
    Structural,
}

/// What [`Layer::backward`] returns when nothing reads its input gradient
/// (see [`Layer::set_needs_input_grad`]): an empty tensor of shape `[0]`.
pub fn no_input_grad() -> Tensor {
    Tensor::zeros(&[0])
}

/// A layer in the Fig. 3 dataflow.
///
/// * `forward`: `A^{l-1} → A^l`, caching whatever the backward needs;
/// * `backward`: `E^l → E^{l-1}`, accumulating `ΔW` into [`Param::grad`].
///
/// `backward` must be called after `forward` on the same input batch.
pub trait Layer: Send {
    /// Layer taxonomy for per-kind quantizer configuration.
    fn kind(&self) -> LayerKind;

    /// Instance name (e.g. `"conv1"`), used for per-layer reporting.
    fn name(&self) -> &str;

    /// Forward pass. `train` selects training behaviour (BN batch stats).
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor;

    /// Backward pass: consumes the output-side error `E^l` and returns the
    /// input-side error `E^{l-1}`, accumulating parameter gradients. A
    /// layer told that nothing reads `E^{l-1}`
    /// ([`Layer::set_needs_input_grad`]`(false)`) may skip computing it and
    /// return [`no_input_grad`] instead; its parameter gradients are the
    /// same either way.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor;

    /// Say whether anything reads the input-side error this layer's
    /// backward returns. The trainer sets `false` on its network once, at
    /// build time: nothing reads `E^0`, the error at the network input, so
    /// the first layer skips its `dX` GEMM (and a conv its col2im).
    /// [`crate::Conv2d`] and [`crate::Linear`] honour it, [`Sequential`]
    /// forwards it to its first child only, and wrappers forward it to the
    /// layer they wrap. Default: no-op (the error is always computed).
    fn set_needs_input_grad(&mut self, _needs: bool) {}

    /// Mutable access to the learnable parameters (empty by default).
    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }

    /// Shared access to the learnable parameters (empty by default).
    fn params(&self) -> Vec<&Param> {
        Vec::new()
    }

    /// Select the GEMM compute backends for the forward and backward
    /// directions. No-op for layers without GEMMs; [`crate::Linear`] and
    /// [`crate::Conv2d`] route their kernels through the selection. Phase
    /// wrappers (the trainer's `Quantized`) call this on every phase switch,
    /// so FP32 warm-up stays bit-transparent even when a posit backend is
    /// configured for the posit phase.
    fn set_compute_backends(
        &mut self,
        _forward: posit_tensor::Backend,
        _backward: posit_tensor::Backend,
    ) {
    }

    /// Non-parameter state that must survive a checkpoint/restore round
    /// trip: BN running statistics, a quantization wrapper's calibrated
    /// scales, rounding streams. Each entry is `(key, opaque bytes)`; keys
    /// must be network-unique, so layers namespace them under their own
    /// qualified name (the same convention [`Param::name`] uses) and
    /// containers simply concatenate their children's entries.
    ///
    /// Default: no extra state.
    fn state_entries(&self) -> Vec<(String, Vec<u8>)> {
        Vec::new()
    }

    /// Restore entries previously produced by [`Layer::state_entries`].
    /// Layers look up their own keys through `lookup`; an absent key leaves
    /// the current state untouched (forward-compatible with checkpoints
    /// from smaller nets), and containers fan the lookup out to children.
    fn restore_state_entries(&mut self, lookup: &dyn Fn(&str) -> Option<Vec<u8>>) {
        let _ = lookup;
    }

    /// Unused: a training step runs each batch whole, so nothing asks
    /// whether a layer's rows could be split. Only the benchmark's timing
    /// wrapper (`perfbench/src/trace.rs`) still forwards it. Default:
    /// `true`.
    fn batch_separable(&self) -> bool {
        true
    }

    /// Open a gradient batch of `total_samples` rows. A training step is
    /// one such batch: until [`Layer::end_grad_batch`] every quire-backend
    /// backward adds its `ΔW` products into the one exact accumulator each
    /// parameter owns ([`Param::batch`]) instead of rounding into
    /// [`Param::grad`]. `total_samples` is the whole batch's row count,
    /// so the accumulator is sized for every backward it will see. A
    /// backward with no open batch counts as a batch of its own.
    ///
    /// Default: open the batch on every parameter of
    /// [`Layer::params_mut`] — right for every leaf layer. Containers
    /// forward to their children, so wrappers that act at the batch
    /// boundary (the trainer's `Quantized`) see the call.
    fn begin_grad_batch(&mut self, total_samples: usize) {
        for p in self.params_mut() {
            p.begin_grad_batch(total_samples);
        }
    }

    /// Unused: every backward adds into the batch's one accumulator per
    /// parameter, so there is no per-shard state to open. Only the
    /// benchmark's timing wrapper (`perfbench/src/trace.rs`) still
    /// forwards it. Default: no-op.
    fn begin_grad_shard(&mut self) {}

    /// Close the gradient batch: round each parameter's exact sum once
    /// into [`Param::grad`] ([`Param::end_grad_batch`]). Default: close
    /// the batch on every parameter of [`Layer::params_mut`].
    fn end_grad_batch(&mut self) {
        for p in self.params_mut() {
            p.end_grad_batch();
        }
    }
}

/// Rectified linear unit.
#[derive(Debug, Default)]
pub struct ReLU {
    name: String,
    mask: Vec<bool>,
}

impl ReLU {
    /// A named ReLU.
    pub fn new(name: impl Into<String>) -> ReLU {
        ReLU {
            name: name.into(),
            mask: Vec::new(),
        }
    }
}

impl Layer for ReLU {
    fn kind(&self) -> LayerKind {
        LayerKind::Activation
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn forward(&mut self, input: &Tensor, _train: bool) -> Tensor {
        // A packed posit activation stays packed: posit codes compare as
        // two's-complement integers, so `value > 0` is a sign test on the
        // code word and the gated output is exact (negative codes and NaR
        // map to the zero code, matching the f32 path where NaN.max(0) = 0).
        if let Some((bits, fmt, scale_exp)) = input.posit_bits() {
            let mut out = bits.clone();
            self.mask = Vec::with_capacity(bits.len());
            for i in 0..bits.len() {
                let keep = fmt.to_signed(bits.get(i)) > 0;
                self.mask.push(keep);
                if !keep {
                    out.set(i, fmt.zero_bits());
                }
            }
            return Tensor::from_posit_bits(out, fmt, scale_exp, input.shape());
        }
        self.mask = input.data().iter().map(|&x| x > 0.0).collect();
        input.map(|x| x.max(0.0))
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        assert_eq!(grad_out.len(), self.mask.len(), "backward before forward?");
        // A packed error plane is gated in place on its code words.
        if let Some((bits, fmt, scale_exp)) = grad_out.posit_bits() {
            let mut out = bits.clone();
            for (i, &m) in self.mask.iter().enumerate() {
                if !m {
                    out.set(i, fmt.zero_bits());
                }
            }
            return Tensor::from_posit_bits(out, fmt, scale_exp, grad_out.shape());
        }
        let data = grad_out
            .data()
            .iter()
            .zip(&self.mask)
            .map(|(&g, &m)| if m { g } else { 0.0 })
            .collect();
        Tensor::from_vec(data, grad_out.shape())
    }
}

/// Collapse `[N, C, H, W] → [N, C*H*W]`.
#[derive(Debug, Default)]
pub struct Flatten {
    name: String,
    in_shape: Vec<usize>,
}

impl Flatten {
    /// A named Flatten.
    pub fn new(name: impl Into<String>) -> Flatten {
        Flatten {
            name: name.into(),
            in_shape: Vec::new(),
        }
    }
}

impl Layer for Flatten {
    fn kind(&self) -> LayerKind {
        LayerKind::Structural
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn forward(&mut self, input: &Tensor, _train: bool) -> Tensor {
        self.in_shape = input.shape().to_vec();
        let n = self.in_shape[0];
        let rest: usize = self.in_shape[1..].iter().product();
        input.clone().reshape(&[n, rest])
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        grad_out.clone().reshape(&self.in_shape)
    }
}

/// A straight-line container running layers in order.
#[derive(Default)]
pub struct Sequential {
    name: String,
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// An empty named container.
    pub fn new(name: impl Into<String>) -> Sequential {
        Sequential {
            name: name.into(),
            layers: Vec::new(),
        }
    }

    /// Append a layer (builder style).
    pub fn push(mut self, layer: impl Layer + 'static) -> Sequential {
        self.layers.push(Box::new(layer));
        self
    }

    /// Append a boxed layer.
    pub fn push_boxed(&mut self, layer: Box<dyn Layer>) {
        self.layers.push(layer);
    }

    /// The contained layers.
    pub fn layers(&self) -> &[Box<dyn Layer>] {
        &self.layers
    }

    /// Mutable access to the contained layers.
    pub fn layers_mut(&mut self) -> &mut [Box<dyn Layer>] {
        &mut self.layers
    }

    /// Number of directly contained layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// True iff the container is empty (acts as identity).
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }
}

impl Layer for Sequential {
    fn kind(&self) -> LayerKind {
        LayerKind::Structural
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = layer.forward(&x, train);
        }
        x
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mut g = grad_out.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g);
        }
        g
    }

    fn set_needs_input_grad(&mut self, needs: bool) {
        // Only the first child's input is this container's input; every
        // later child's input error feeds the child before it.
        if let Some(first) = self.layers.first_mut() {
            first.set_needs_input_grad(needs);
        }
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.params_mut())
            .collect()
    }

    fn set_compute_backends(
        &mut self,
        forward: posit_tensor::Backend,
        backward: posit_tensor::Backend,
    ) {
        for layer in &mut self.layers {
            layer.set_compute_backends(forward, backward);
        }
    }

    fn params(&self) -> Vec<&Param> {
        self.layers.iter().flat_map(|l| l.params()).collect()
    }

    fn state_entries(&self) -> Vec<(String, Vec<u8>)> {
        self.layers.iter().flat_map(|l| l.state_entries()).collect()
    }

    fn restore_state_entries(&mut self, lookup: &dyn Fn(&str) -> Option<Vec<u8>>) {
        for layer in &mut self.layers {
            layer.restore_state_entries(lookup);
        }
    }

    fn begin_grad_batch(&mut self, total_samples: usize) {
        for layer in &mut self.layers {
            layer.begin_grad_batch(total_samples);
        }
    }

    fn end_grad_batch(&mut self) {
        for layer in &mut self.layers {
            layer.end_grad_batch();
        }
    }
}

/// A residual block: `y = relu?(main(x) + shortcut(x))` where an empty
/// shortcut is the identity — the ResNet BasicBlock skeleton.
pub struct Residual {
    name: String,
    main: Sequential,
    shortcut: Sequential,
    final_relu: bool,
    relu_mask: Vec<bool>,
}

impl Residual {
    /// Build from a main path and a (possibly empty = identity) shortcut.
    pub fn new(
        name: impl Into<String>,
        main: Sequential,
        shortcut: Sequential,
        final_relu: bool,
    ) -> Residual {
        Residual {
            name: name.into(),
            main,
            shortcut,
            final_relu,
            relu_mask: Vec::new(),
        }
    }
}

impl Layer for Residual {
    fn kind(&self) -> LayerKind {
        LayerKind::Structural
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        // The join is an f32 add: packed branch outputs decode here.
        let main = self.main.forward(input, train).into_f32();
        let short = if self.shortcut.is_empty() {
            input.to_f32()
        } else {
            self.shortcut.forward(input, train).into_f32()
        };
        let mut y = main.add(&short);
        if self.final_relu {
            self.relu_mask = y.data().iter().map(|&v| v > 0.0).collect();
            y.apply(|v| v.max(0.0));
        }
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let grad_out = grad_out.dense();
        let g = if self.final_relu {
            let data = grad_out
                .data()
                .iter()
                .zip(&self.relu_mask)
                .map(|(&g, &m)| if m { g } else { 0.0 })
                .collect();
            Tensor::from_vec(data, grad_out.shape())
        } else {
            grad_out.into_owned()
        };
        let g_main = self.main.backward(&g).into_f32();
        let g_short = if self.shortcut.is_empty() {
            g
        } else {
            self.shortcut.backward(&g).into_f32()
        };
        g_main.add(&g_short)
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut p = self.main.params_mut();
        p.extend(self.shortcut.params_mut());
        p
    }

    fn params(&self) -> Vec<&Param> {
        let mut p = self.main.params();
        p.extend(self.shortcut.params());
        p
    }

    fn set_compute_backends(
        &mut self,
        forward: posit_tensor::Backend,
        backward: posit_tensor::Backend,
    ) {
        self.main.set_compute_backends(forward, backward);
        self.shortcut.set_compute_backends(forward, backward);
    }

    fn state_entries(&self) -> Vec<(String, Vec<u8>)> {
        let mut s = self.main.state_entries();
        s.extend(self.shortcut.state_entries());
        s
    }

    fn restore_state_entries(&mut self, lookup: &dyn Fn(&str) -> Option<Vec<u8>>) {
        self.main.restore_state_entries(lookup);
        self.shortcut.restore_state_entries(lookup);
    }

    fn begin_grad_batch(&mut self, total_samples: usize) {
        self.main.begin_grad_batch(total_samples);
        self.shortcut.begin_grad_batch(total_samples);
    }

    fn end_grad_batch(&mut self) {
        self.main.end_grad_batch();
        self.shortcut.end_grad_batch();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_forward_backward() {
        let mut relu = ReLU::new("r");
        let x = Tensor::from_vec(vec![-1.0, 0.0, 2.0, -3.0], &[4]);
        let y = relu.forward(&x, true);
        assert_eq!(y.data(), &[0.0, 0.0, 2.0, 0.0]);
        let g = relu.backward(&Tensor::from_vec(vec![1.0, 1.0, 1.0, 1.0], &[4]));
        assert_eq!(g.data(), &[0.0, 0.0, 1.0, 0.0]);
        assert_eq!(relu.kind(), LayerKind::Activation);
    }

    #[test]
    fn flatten_roundtrip() {
        let mut f = Flatten::new("f");
        let x = Tensor::zeros(&[2, 3, 4, 5]);
        let y = f.forward(&x, true);
        assert_eq!(y.shape(), &[2, 60]);
        let g = f.backward(&y);
        assert_eq!(g.shape(), &[2, 3, 4, 5]);
    }

    #[test]
    fn sequential_composes() {
        let mut seq = Sequential::new("s")
            .push(ReLU::new("r1"))
            .push(ReLU::new("r2"));
        assert_eq!(seq.len(), 2);
        let x = Tensor::from_vec(vec![-1.0, 2.0], &[2]);
        let y = seq.forward(&x, true);
        assert_eq!(y.data(), &[0.0, 2.0]);
        let g = seq.backward(&Tensor::ones(&[2]));
        assert_eq!(g.data(), &[0.0, 1.0]);
    }

    #[test]
    fn sequential_skips_only_its_first_childs_input_grad() {
        // Two linears: the first skips its dX, the second still returns
        // one (the first child's ΔW reads it), so ΔW of both layers is the
        // same as with the flag on.
        use crate::Linear;
        use posit_tensor::rng::Prng;
        let mut rng = Prng::seed(3);
        let w1 = Tensor::rand_normal(&[4, 3], 0.0, 0.5, &mut rng);
        let w2 = Tensor::rand_normal(&[2, 4], 0.0, 0.5, &mut rng);
        let x = Tensor::rand_normal(&[5, 3], 0.0, 1.0, &mut rng);
        let dy = Tensor::rand_normal(&[5, 2], 0.0, 1.0, &mut rng);
        let run = |needs: bool| {
            let mut seq = Sequential::new("s")
                .push(Linear::new("fc1", w1.clone(), None))
                .push(Linear::new("fc2", w2.clone(), None));
            seq.set_needs_input_grad(needs);
            seq.forward(&x, true);
            let gx = seq.backward(&dy);
            let grads: Vec<Vec<f32>> = seq
                .params()
                .iter()
                .map(|p| p.grad.data().to_vec())
                .collect();
            (gx, grads)
        };
        let (gx_on, on) = run(true);
        let (gx_off, off) = run(false);
        assert_eq!(gx_on.shape(), &[5, 3]);
        assert_eq!(gx_off.shape(), no_input_grad().shape());
        assert_eq!(on, off, "ΔW of both children");
    }

    #[test]
    fn residual_identity_shortcut() {
        // main = ReLU, shortcut = identity: y = relu_off(main(x) + x).
        let mut block = Residual::new(
            "res",
            Sequential::new("m").push(ReLU::new("r")),
            Sequential::new("sc"),
            false,
        );
        let x = Tensor::from_vec(vec![-2.0, 3.0], &[2]);
        let y = block.forward(&x, true);
        assert_eq!(y.data(), &[-2.0, 6.0]); // relu(-2)+(-2), relu(3)+3
        let g = block.backward(&Tensor::ones(&[2]));
        // d/dx [relu(x) + x] = mask + 1
        assert_eq!(g.data(), &[1.0, 2.0]);
    }

    #[test]
    fn residual_final_relu_gates_both_paths() {
        let mut block = Residual::new("res", Sequential::new("m"), Sequential::new("sc"), true);
        // empty main and shortcut: y = relu(x + x)
        let x = Tensor::from_vec(vec![-1.0, 2.0], &[2]);
        let y = block.forward(&x, true);
        assert_eq!(y.data(), &[0.0, 4.0]);
        let g = block.backward(&Tensor::ones(&[2]));
        assert_eq!(g.data(), &[0.0, 2.0]);
    }
}
