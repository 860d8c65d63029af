//! The `P(·)` insertion wrapper — Fig. 3 of the paper as a layer adapter.
//!
//! [`Quantized`] wraps any [`Layer`] and quantizes the four Fig. 3 edges:
//!
//! * **forward** (Fig. 3a): weights are re-quantized in place before the
//!   inner forward (idempotent, so this is equivalent to quantizing once
//!   after each update — Fig. 3c), and the output activation `A^l` is
//!   quantized after;
//! * **backward** (Fig. 3b): the returned error `E^{l-1}` and the
//!   accumulated weight gradient `ΔW` are quantized after the inner
//!   backward. A network's first layer has no `E` edge: nothing reads
//!   `E^0`, so the trainer tells it to skip its input gradient
//!   ([`Layer::set_needs_input_grad`]), and its error scale stays
//!   uncalibrated (absent) in checkpoints.
//!
//! The wrapper has three [`Phase`]s driven by a shared [`QuantControl`]:
//! FP32 (warm-up), Calibrate (FP32 + Eq. 2 scale-factor collection) and
//! Posit (quantize with frozen scales). Scales missing at the first Posit
//! batch (e.g. warm-up disabled in the A1 ablation) are computed lazily
//! from the first tensor observed.

use crate::config::{MasterWeights, QuantSpec, TensorClass};
use crate::scale;
use posit::PositFormat;
use posit_models::LayerBuilder;
use posit_nn::{BatchNorm2d, Conv2d, Layer, LayerKind, Linear, Param};
use posit_tensor::Tensor;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;

/// The three phases of the paper's training strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Warm-up: pure FP32 (§III-B "Warm-up Training").
    Fp32,
    /// Last warm-up epoch: FP32 compute + Eq. 2 center collection
    /// ("Based on the warm-up trained model, the scaling factor of each
    /// layer can be calculated").
    Calibrate,
    /// Posit training: every Fig. 3 edge quantized.
    Posit,
}

/// Shared phase switch distributed to every [`Quantized`] wrapper.
#[derive(Debug, Clone, Default)]
pub struct QuantControl(Arc<AtomicU8>);

impl QuantControl {
    /// A control starting in [`Phase::Fp32`].
    pub fn new() -> QuantControl {
        QuantControl::default()
    }

    /// Current phase.
    pub fn phase(&self) -> Phase {
        match self.0.load(Ordering::Relaxed) {
            0 => Phase::Fp32,
            1 => Phase::Calibrate,
            _ => Phase::Posit,
        }
    }

    /// Switch phase (affects all wrappers sharing this control).
    pub fn set_phase(&self, phase: Phase) {
        let v = match phase {
            Phase::Fp32 => 0,
            Phase::Calibrate => 1,
            Phase::Posit => 2,
        };
        self.0.store(v, Ordering::Relaxed);
    }
}

/// Per-tensor-class scale calibration state.
#[derive(Debug, Clone, Default)]
struct ClassScale {
    /// Frozen Eq. 2 exponent (`log2 Sf`), if calibrated.
    exp: Option<i32>,
    /// Running sum/count of per-batch centers during calibration.
    acc: f64,
    count: usize,
}

impl ClassScale {
    fn observe(&mut self, xs: &[f32]) {
        if let Some(c) = scale::log2_center(xs) {
            self.acc += c as f64;
            self.count += 1;
        }
    }

    fn freeze(&mut self, sigma: i32) {
        if self.exp.is_none() && self.count > 0 {
            self.exp = Some((self.acc / self.count as f64).round() as i32 + sigma);
        }
    }

    /// The scale exponent to use now; lazily calibrates from `xs` if the
    /// warm-up never ran (A1 ablation path).
    fn exp_or_lazy(&mut self, xs: &[f32], sigma: i32, scaling: bool) -> i32 {
        if !scaling {
            return 0;
        }
        if let Some(e) = self.exp {
            return e;
        }
        self.observe(xs);
        self.freeze(sigma);
        self.exp.unwrap_or(0)
    }

    /// Serialize into a checkpoint blob: presence flag + frozen exponent +
    /// the in-flight calibration accumulator (so a run killed during the
    /// calibrate epoch resumes mid-calibration bit-exactly).
    fn write_to(&self, out: &mut Vec<u8>) {
        out.push(self.exp.is_some() as u8);
        out.extend_from_slice(&self.exp.unwrap_or(0).to_le_bytes());
        out.extend_from_slice(&self.acc.to_bits().to_le_bytes());
        out.extend_from_slice(&(self.count as u64).to_le_bytes());
    }

    /// Inverse of [`ClassScale::write_to`]; `None` on short input.
    fn read_from(bytes: &[u8]) -> Option<(ClassScale, &[u8])> {
        let (head, rest) = bytes.split_at_checked(21)?;
        let exp = i32::from_le_bytes(head[1..5].try_into().expect("len 4"));
        let acc = f64::from_bits(u64::from_le_bytes(head[5..13].try_into().expect("len 8")));
        let count = u64::from_le_bytes(head[13..21].try_into().expect("len 8")) as usize;
        Some((
            ClassScale {
                exp: (head[0] != 0).then_some(exp),
                acc,
                count,
            },
            rest,
        ))
    }
}

/// A layer wrapped with the paper's `P(n,es)` transformation at every
/// Fig. 3 edge.
pub struct Quantized {
    inner: Box<dyn Layer>,
    control: QuantControl,
    kind: LayerKind,
    w_fmt: PositFormat,
    a_fmt: PositFormat,
    e_fmt: PositFormat,
    g_fmt: PositFormat,
    rounding: posit::Rounding,
    sigma: i32,
    scaling: bool,
    /// GEMM backends for the posit phase (forward, backward); FP32 phases
    /// always run on [`posit_tensor::Backend::F32`].
    ///
    /// Each backend carries a single format: the forward GEMM runs in the
    /// weight/activation format, the backward GEMMs in the error format.
    /// This is a deliberate simplification of Fig. 3b, where
    /// `E^{l-1} = W_pᵀ·E_p` mixes the `(n,1)` weight grid with the `(n,2)`
    /// error grid: here the backward kernel re-rounds the weight/activation
    /// operands onto the error grid first (values exact in `(8,1)` such as
    /// `1.0625` are not representable in `(8,2)`). A mixed-format kernel
    /// would need per-operand formats in `PositGemm`; until then, backward
    /// numerics are "everything in the error format".
    ///
    /// With the quire backend the Fig. 3 edges are *storage-domain
    /// transitions*: weights, activations and errors are encoded once into
    /// packed posit planes (`Tensor::to_posit`) whose Eq. 2 scale exponent
    /// travels with the bits, and the kernels decode those planes directly
    /// — `P(x/Sf)·Sf` reaches the quire exactly, with no f32 staging buffer
    /// and no re-rounding. Operands that reach a kernel of a *different*
    /// format (the backward GEMMs mix the weight/activation grid with the
    /// error grid) still decode→re-encode onto the kernel's grid.
    fwd_backend: posit_tensor::Backend,
    bwd_backend: posit_tensor::Backend,
    /// True when the Fig. 3 edges should produce packed posit tensors
    /// (quire backend): the storage-domain residency the paper's memory
    /// argument needs — posit8 weights/activations occupy 1 byte/element
    /// between steps instead of 4.
    packed: bool,
    master_mode: MasterWeights,
    /// FP32 master copies stashed while the quantized view is installed.
    master: Option<Vec<Tensor>>,
    /// True between `begin_grad_batch` and `end_grad_batch`: ΔW is
    /// complete only when the batch closes (the quire backend holds it in
    /// the parameters' exact accumulators until then), so the ΔW quantize
    /// edge waits for `end_grad_batch` — one `P(·)` per optimizer step.
    grad_batch_open: bool,
    w_scale: ClassScale,
    a_scale: ClassScale,
    e_scale: ClassScale,
    g_scale: ClassScale,
    sr_state: u64,
}

impl Quantized {
    /// Wrap a layer under a spec and control.
    pub fn new(inner: Box<dyn Layer>, spec: &QuantSpec, control: QuantControl) -> Quantized {
        let kind = inner.kind();
        let fmts = spec.formats_for(kind);
        // Derive a per-layer stochastic-rounding stream from the name so
        // runs are reproducible layer-by-layer.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in inner.name().bytes() {
            h = (h ^ b as u64).wrapping_mul(0x1000_0000_01b3);
        }
        Quantized {
            inner,
            control,
            kind,
            w_fmt: fmts.weight,
            a_fmt: fmts.activation,
            e_fmt: fmts.error,
            g_fmt: fmts.weight_grad,
            rounding: spec.rounding,
            sigma: spec.sigma,
            scaling: spec.scaling,
            fwd_backend: spec.backend.tensor_backend(fmts.weight, spec.rounding),
            bwd_backend: spec.backend.tensor_backend(fmts.error, spec.rounding),
            packed: spec.backend == crate::config::ComputeBackend::PositQuire,
            master_mode: spec.master,
            master: None,
            grad_batch_open: false,
            w_scale: ClassScale::default(),
            a_scale: ClassScale::default(),
            e_scale: ClassScale::default(),
            g_scale: ClassScale::default(),
            sr_state: h ^ spec.sr_seed,
        }
    }

    /// Install the phase-appropriate GEMM backends on the wrapped layer:
    /// the configured pair in the posit phase, plain f32 otherwise (warm-up
    /// and calibration must stay bit-transparent FP32).
    fn apply_backends(&mut self, posit_phase: bool) {
        use posit_tensor::Backend;
        if self.fwd_backend == Backend::F32 && self.bwd_backend == Backend::F32 {
            return; // nothing to switch
        }
        if posit_phase {
            self.inner
                .set_compute_backends(self.fwd_backend, self.bwd_backend);
        } else {
            self.inner.set_compute_backends(Backend::F32, Backend::F32);
        }
    }

    /// The frozen scale exponent for a class, if calibrated.
    pub fn scale_exp(&self, class: TensorClass) -> Option<i32> {
        match class {
            TensorClass::Weight => self.w_scale.exp,
            TensorClass::Activation => self.a_scale.exp,
            TensorClass::Error => self.e_scale.exp,
            TensorClass::WeightGrad => self.g_scale.exp,
        }
    }

    /// The posit format assigned to a class.
    pub fn format(&self, class: TensorClass) -> PositFormat {
        match class {
            TensorClass::Weight => self.w_fmt,
            TensorClass::Activation => self.a_fmt,
            TensorClass::Error => self.e_fmt,
            TensorClass::WeightGrad => self.g_fmt,
        }
    }

    /// Install the posit view of the weights: with an FP32 master, stash
    /// the exact values first so [`Quantized::restore_master`] can put them
    /// back before the optimizer step (Fig. 3c with a persistent `W`).
    fn quantize_weights_in_place(&mut self) {
        let sigma = self.sigma;
        let scaling = self.scaling;
        let rounding = self.rounding;
        let fmt = self.w_fmt;
        let scale = &mut self.w_scale;
        let sr = &mut self.sr_state;
        let keep_master = self.master_mode == MasterWeights::Fp32;
        let packed = self.packed;
        let _edge = posit_obs::enabled()
            .then(|| posit_obs::push_edge_label(&format!("{}.w", self.inner.name())));
        let mut stash = Vec::new();
        for p in self.inner.params_mut() {
            if keep_master {
                stash.push(p.value.clone());
            }
            if packed {
                // Posit-master residency: a plane that is still packed from
                // the previous step is already on the grid — leave its bits
                // alone (the f32 path relies on idempotence for the same
                // effect; here it is a no-op by construction).
                if p.value.is_posit() {
                    continue;
                }
                let e = scale.exp_or_lazy(p.value.data(), sigma, scaling);
                p.value = p.value.to_posit_with(fmt, e, rounding, sr);
            } else {
                let e = scale.exp_or_lazy(p.value.data(), sigma, scaling);
                scale::shifted_quantize_slice(p.value.data_mut(), &fmt, e, rounding, sr);
            }
        }
        if keep_master {
            self.master = Some(stash);
        }
    }

    /// The Fig. 3b `ΔW → P(·) → ΔW_p` edge over every parameter gradient
    /// of the wrapped layer.
    fn quantize_weight_grads(&mut self) {
        let (sigma, scaling, rounding, fmt) = (self.sigma, self.scaling, self.rounding, self.g_fmt);
        let gscale = &mut self.g_scale;
        let sr = &mut self.sr_state;
        let _edge = posit_obs::enabled()
            .then(|| posit_obs::push_edge_label(&format!("{}.dw", self.inner.name())));
        for p in self.inner.params_mut() {
            let e = gscale.exp_or_lazy(p.grad.data(), sigma, scaling);
            scale::shifted_quantize_slice(p.grad.data_mut(), &fmt, e, rounding, sr);
        }
    }

    /// Put the FP32 master values back (no-op under the posit-master
    /// ablation or when no view is installed).
    fn restore_master(&mut self) {
        if let Some(stash) = self.master.take() {
            for (p, m) in self.inner.params_mut().into_iter().zip(stash) {
                p.value = m;
            }
        }
    }
}

impl Layer for Quantized {
    fn kind(&self) -> LayerKind {
        self.kind
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        self.apply_backends(self.control.phase() == Phase::Posit);
        match self.control.phase() {
            Phase::Fp32 => self.inner.forward(input, train),
            Phase::Calibrate => {
                for p in self.inner.params() {
                    // dense(): robust against re-calibrating a net whose
                    // weights were left posit-resident by an earlier phase.
                    self.w_scale.observe(p.value.dense().data());
                }
                let y = self.inner.forward(input, train);
                self.a_scale.observe(y.data());
                y
            }
            Phase::Posit => {
                // The calibrate epoch's statistics freeze at the phase
                // boundary. (Folding the first posit batch into the mean
                // lazily would make the frozen exponent depend on that
                // batch — the lazy path below stays only for runs that
                // skipped calibration entirely.)
                self.w_scale.freeze(self.sigma);
                self.a_scale.freeze(self.sigma);
                // Fig. 3c tail: W_p = P(W). With an FP32 master, the posit
                // view stays installed only through the backward pass (it
                // must: E^{l-1} = W_pᵀ·E per Fig. 3b).
                self.restore_master(); // defensive: view left from a
                                       // forward without matching backward
                self.quantize_weights_in_place();
                let mut y = self.inner.forward(input, train);
                if !train {
                    // Inference has no backward; release the view now.
                    self.restore_master();
                }
                // Fig. 3a: A^l → P(·) → A^l_p. With the quire backend the
                // edge is a storage transition: the activation leaves this
                // layer as packed posit bits and the next GEMM consumes
                // them directly.
                let e = self.a_scale.exp_or_lazy(y.data(), self.sigma, self.scaling);
                let _edge = posit_obs::enabled()
                    .then(|| posit_obs::push_edge_label(&format!("{}.a", self.inner.name())));
                if self.packed {
                    y.to_posit_with(self.a_fmt, e, self.rounding, &mut self.sr_state)
                } else {
                    scale::shifted_quantize_slice(
                        y.data_mut(),
                        &self.a_fmt,
                        e,
                        self.rounding,
                        &mut self.sr_state,
                    );
                    y
                }
            }
        }
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        match self.control.phase() {
            Phase::Fp32 => self.inner.backward(grad_out),
            Phase::Calibrate => {
                let g = self.inner.backward(grad_out);
                self.e_scale.observe(g.data());
                for p in self.inner.params() {
                    self.g_scale.observe(p.grad.data());
                }
                g
            }
            Phase::Posit => {
                // As in forward: calibrated error/gradient scales freeze
                // before first use.
                self.e_scale.freeze(self.sigma);
                self.g_scale.freeze(self.sigma);
                let mut g = self.inner.backward(grad_out);
                // The posit weight view has served forward + backward;
                // restore the FP32 master before the optimizer step.
                self.restore_master();
                // Fig. 3b: ΔW → P(·) → ΔW_p, once per step. Under an open
                // gradient batch ΔW is complete only when the batch
                // closes, so the edge runs in end_grad_batch; a backward
                // with no open batch is a batch of its own.
                if !self.grad_batch_open {
                    self.quantize_weight_grads();
                }
                // Fig. 3b: E^{l-1} → P(·) → E^{l-1}_p — a storage
                // transition under the quire backend, like the forward
                // activation edge. A layer whose input error nobody reads
                // has no E edge.
                if g.is_empty() {
                    return g;
                }
                let (sigma, scaling, rounding) = (self.sigma, self.scaling, self.rounding);
                let e = self.e_scale.exp_or_lazy(g.data(), sigma, scaling);
                let _edge = posit_obs::enabled()
                    .then(|| posit_obs::push_edge_label(&format!("{}.e", self.inner.name())));
                if self.packed {
                    g.to_posit_with(self.e_fmt, e, rounding, &mut self.sr_state)
                } else {
                    scale::shifted_quantize_slice(
                        g.data_mut(),
                        &self.e_fmt,
                        e,
                        rounding,
                        &mut self.sr_state,
                    );
                    g
                }
            }
        }
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.inner.params_mut()
    }

    fn params(&self) -> Vec<&Param> {
        self.inner.params()
    }

    fn set_needs_input_grad(&mut self, needs: bool) {
        self.inner.set_needs_input_grad(needs);
    }

    fn begin_grad_batch(&mut self, total_samples: usize) {
        self.grad_batch_open = true;
        self.inner.begin_grad_batch(total_samples);
    }

    fn end_grad_batch(&mut self) {
        if !self.grad_batch_open {
            return;
        }
        self.grad_batch_open = false;
        // Round the exact whole-batch gradients once …
        self.inner.end_grad_batch();
        // … then the deferred Fig. 3b ΔW edge quantizes them, once per
        // optimizer step.
        if self.control.phase() == Phase::Posit {
            self.quantize_weight_grads();
        }
    }

    fn state_entries(&self) -> Vec<(String, Vec<u8>)> {
        // The wrapper's own state — frozen/in-flight Eq. 2 scales per
        // tensor class and the stochastic-rounding stream — is what makes
        // a checkpointed posit run resumable bit-exactly: without it a
        // restored net would re-calibrate different scale factors.
        let mut out = self.inner.state_entries();
        let mut blob = Vec::with_capacity(4 * 21 + 8);
        for s in [&self.w_scale, &self.a_scale, &self.e_scale, &self.g_scale] {
            s.write_to(&mut blob);
        }
        blob.extend_from_slice(&self.sr_state.to_le_bytes());
        out.push((format!("{}.quant", self.inner.name()), blob));
        out
    }

    fn restore_state_entries(&mut self, lookup: &dyn Fn(&str) -> Option<Vec<u8>>) {
        self.inner.restore_state_entries(lookup);
        let Some(blob) = lookup(&format!("{}.quant", self.inner.name())) else {
            return;
        };
        let parse = |bytes: &[u8]| -> Option<([ClassScale; 4], u64)> {
            let (w, bytes) = ClassScale::read_from(bytes)?;
            let (a, bytes) = ClassScale::read_from(bytes)?;
            let (e, bytes) = ClassScale::read_from(bytes)?;
            let (g, bytes) = ClassScale::read_from(bytes)?;
            if bytes.len() != 8 {
                return None;
            }
            let sr = u64::from_le_bytes(bytes.try_into().expect("len 8"));
            Some(([w, a, e, g], sr))
        };
        if let Some(([w, a, e, g], sr)) = parse(&blob) {
            self.w_scale = w;
            self.a_scale = a;
            self.e_scale = e;
            self.g_scale = g;
            self.sr_state = sr;
        }
    }
}

/// A [`LayerBuilder`] producing [`Quantized`]-wrapped CONV/BN/FC layers —
/// the way the paper's `P(·)` reaches every layer of a nested model.
pub struct QuantBuilder {
    spec: QuantSpec,
    control: QuantControl,
}

impl QuantBuilder {
    /// Builder for a spec; all produced layers share the returned control.
    pub fn new(spec: QuantSpec) -> QuantBuilder {
        QuantBuilder {
            spec,
            control: QuantControl::new(),
        }
    }

    /// The shared phase control.
    pub fn control(&self) -> QuantControl {
        self.control.clone()
    }
}

impl LayerBuilder for QuantBuilder {
    fn conv(
        &mut self,
        name: &str,
        weight: Tensor,
        bias: Option<Tensor>,
        stride: usize,
        pad: usize,
    ) -> Box<dyn Layer> {
        Box::new(Quantized::new(
            Box::new(Conv2d::new(name, weight, bias, stride, pad)),
            &self.spec,
            self.control.clone(),
        ))
    }

    fn bn(&mut self, name: &str, channels: usize) -> Box<dyn Layer> {
        Box::new(Quantized::new(
            Box::new(BatchNorm2d::new(name, channels)),
            &self.spec,
            self.control.clone(),
        ))
    }

    fn linear(&mut self, name: &str, weight: Tensor, bias: Option<Tensor>) -> Box<dyn Layer> {
        Box::new(Quantized::new(
            Box::new(Linear::new(name, weight, bias)),
            &self.spec,
            self.control.clone(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::QuantSpec;
    use posit::Rounding;
    use posit_tensor::rng::Prng;

    fn small_conv() -> Box<dyn Layer> {
        let mut rng = Prng::seed(1);
        Box::new(Conv2d::new(
            "conv1",
            Tensor::rand_normal(&[2, 1, 3, 3], 0.0, 0.1, &mut rng),
            None,
            1,
            1,
        ))
    }

    #[test]
    fn fp32_phase_is_transparent() {
        let mut rng = Prng::seed(2);
        let control = QuantControl::new();
        let mut q = Quantized::new(small_conv(), &QuantSpec::cifar_paper(), control.clone());
        let mut plain = small_conv();
        let x = Tensor::rand_normal(&[1, 1, 5, 5], 0.0, 1.0, &mut rng);
        assert_eq!(control.phase(), Phase::Fp32);
        let a = q.forward(&x, true);
        let b = plain.forward(&x, true);
        assert_eq!(a.data(), b.data(), "warm-up must be exact FP32");
        let ga = q.backward(&a);
        let gb = plain.backward(&b);
        assert_eq!(ga.data(), gb.data());
    }

    #[test]
    fn fp32_phase_transparent_even_with_posit_backend() {
        use crate::config::ComputeBackend;
        // A configured posit-quire backend must NOT leak into the FP32
        // warm-up: the wrapper re-installs f32 kernels outside the posit
        // phase.
        let mut rng = Prng::seed(21);
        let control = QuantControl::new();
        let spec = QuantSpec::cifar_paper().with_backend(ComputeBackend::PositQuire);
        let mut q = Quantized::new(small_conv(), &spec, control.clone());
        let mut plain = small_conv();
        let x = Tensor::rand_normal(&[1, 1, 5, 5], 0.0, 1.0, &mut rng);
        let a = q.forward(&x, true);
        let b = plain.forward(&x, true);
        assert_eq!(a.data(), b.data(), "warm-up must stay exact FP32");
        // Posit phase: quire kernels engage and the Fig. 3 edges become
        // storage transitions — activations and errors leave as packed
        // posit planes whose decoded values are finite.
        control.set_phase(Phase::Posit);
        let y = q.forward(&x, true);
        assert!(y.is_posit(), "quire-backend activation edge must pack");
        assert!(y.to_f32().data().iter().all(|v| v.is_finite()));
        // The weight compute view is packed between forward and backward.
        assert!(
            q.params().iter().all(|p| p.value.is_posit()),
            "weights must be posit-resident through the backward"
        );
        let g = q.backward(&y);
        assert!(g.is_posit(), "error edge must pack");
        assert!(g.to_f32().data().iter().all(|v| v.is_finite()));
        // Back to FP32: transparent again (the FP32 master was restored
        // after the posit backward).
        control.set_phase(Phase::Fp32);
        let a2 = q.forward(&x, true);
        let b2 = plain.forward(&x, true);
        assert_eq!(a2.data(), b2.data(), "post-posit FP32 must be exact again");
    }

    #[test]
    fn packed_edges_shrink_the_footprint_and_stay_on_grid() {
        use crate::config::ComputeBackend;
        let mut rng = Prng::seed(23);
        let control = QuantControl::new();
        let spec = QuantSpec::cifar_paper().with_backend(ComputeBackend::PositQuire);
        let mut q = Quantized::new(small_conv(), &spec, control.clone());
        control.set_phase(Phase::Posit);
        let x = Tensor::rand_normal(&[1, 1, 5, 5], 0.0, 1.0, &mut rng);
        let y = q.forward(&x, true);
        // posit(8,1) activations: 1 byte per element, 4× below f32.
        assert_eq!(y.nbytes() * 4, y.len() * 4);
        assert_eq!(y.nbytes(), y.len());
        // The packed activation decodes onto the P(a/Sf)·Sf grid exactly:
        // re-encoding with the frozen scale is the identity.
        let se = q.scale_exp(TensorClass::Activation).unwrap();
        let fmt = q.format(TensorClass::Activation);
        let decoded = y.to_f32();
        let repacked = decoded.to_posit(fmt, se, Rounding::ToZero);
        assert_eq!(repacked.to_f32(), decoded, "activation left its grid");
        // Weight view: packed at the weight format with 1 B/elem while the
        // view is installed; the FP32 master returns after backward.
        let wbytes: usize = q.params().iter().map(|p| p.value.nbytes()).sum();
        let wlen: usize = q.params().iter().map(|p| p.value.len()).sum();
        assert_eq!(wbytes, wlen, "posit8 weights must be 1 B/elem");
        let _ = q.backward(&y);
        assert!(
            q.params().iter().all(|p| !p.value.is_posit()),
            "FP32 master restored after backward"
        );
    }

    #[test]
    fn posit_master_stays_packed_between_steps() {
        use crate::config::{ComputeBackend, MasterWeights};
        let mut rng = Prng::seed(29);
        let control = QuantControl::new();
        let spec = QuantSpec::cifar_paper()
            .with_backend(ComputeBackend::PositQuire)
            .with_master(MasterWeights::Posit);
        let mut q = Quantized::new(small_conv(), &spec, control.clone());
        control.set_phase(Phase::Posit);
        let x = Tensor::rand_normal(&[1, 1, 5, 5], 0.0, 1.0, &mut rng);
        let y = q.forward(&x, true);
        let _ = q.backward(&y);
        // No restore under the posit-master policy: the master IS the
        // packed plane, resident at 1 B/elem between steps.
        assert!(q.params().iter().all(|p| p.value.is_posit()));
        let before: Vec<u64> = q.params()[0].value.posit_bits().unwrap().0.iter().collect();
        // A second forward must leave the resident plane bit-identical
        // (idempotence of the Fig. 3c edge, now a structural no-op).
        let y2 = q.forward(&x, true);
        let after: Vec<u64> = q.params()[0].value.posit_bits().unwrap().0.iter().collect();
        assert_eq!(before, after, "resident plane must not be re-encoded");
        let _ = q.backward(&y2);
        // The optimizer reads through the boundary: step() decodes, updates
        // in f32, and the next forward re-packs.
        let mut sgd = posit_nn::Sgd::new(0.1);
        for p in q.params_mut() {
            p.grad.data_mut().iter_mut().for_each(|g| *g = 0.01);
        }
        sgd.step(&mut q.params_mut());
        assert!(
            q.params().iter().all(|p| !p.value.is_posit()),
            "step() crosses the domain boundary into f32"
        );
        let y3 = q.forward(&x, true);
        assert!(y3.is_posit());
        assert!(
            q.params().iter().all(|p| p.value.is_posit()),
            "next forward re-packs the updated master"
        );
    }

    #[test]
    fn posit_phase_quantizes_all_edges() {
        let mut rng = Prng::seed(3);
        let control = QuantControl::new();
        let mut q = Quantized::new(small_conv(), &QuantSpec::cifar_paper(), control.clone());
        control.set_phase(Phase::Posit);
        let x = Tensor::rand_normal(&[1, 1, 5, 5], 0.0, 1.0, &mut rng);
        let master_before: Vec<f32> = q.params()[0].value.data().to_vec();
        let y = q.forward(&x, true);
        // Every output activation must be representable as
        // P(a / Sf)·Sf for the (8,1) format with the layer's frozen scale.
        let se = q.scale_exp(TensorClass::Activation).unwrap();
        let fmt = q.format(TensorClass::Activation);
        for &v in y.data() {
            let mut copy = [v];
            let mut st = 0u64;
            scale::shifted_quantize_slice(&mut copy, &fmt, se, Rounding::ToZero, &mut st);
            assert_eq!(copy[0], v, "activation {v} not on the quantization grid");
        }
        // The weight *compute view* (installed between forward and
        // backward) is quantized in place.
        let wse = q.scale_exp(TensorClass::Weight).unwrap();
        let wfmt = q.format(TensorClass::Weight);
        for p in q.params() {
            for &w in p.value.data() {
                let mut copy = [w];
                let mut st = 0u64;
                scale::shifted_quantize_slice(&mut copy, &wfmt, wse, Rounding::ToZero, &mut st);
                assert_eq!(copy[0], w, "weight {w} not on grid");
            }
        }
        // Backward: errors and ΔW quantized too.
        let g = q.backward(&y);
        // After backward the FP32 master is restored for the optimizer.
        assert_eq!(
            q.params()[0].value.data(),
            &master_before[..],
            "FP32 master must be restored after backward"
        );
        let ese = q.scale_exp(TensorClass::Error).unwrap();
        let efmt = q.format(TensorClass::Error);
        for &v in g.data() {
            let mut copy = [v];
            let mut st = 0u64;
            scale::shifted_quantize_slice(&mut copy, &efmt, ese, Rounding::ToZero, &mut st);
            assert_eq!(copy[0], v, "error {v} not on grid");
        }
        assert!(q.scale_exp(TensorClass::WeightGrad).is_some());
    }

    #[test]
    fn calibration_freezes_scales_for_posit_phase() {
        let mut rng = Prng::seed(4);
        let control = QuantControl::new();
        let mut q = Quantized::new(small_conv(), &QuantSpec::cifar_paper(), control.clone());
        control.set_phase(Phase::Calibrate);
        // Feed activations with a known magnitude: center should track it.
        let x = Tensor::rand_normal(&[1, 1, 5, 5], 0.0, 8.0, &mut rng);
        let y = q.forward(&x, true);
        q.backward(&y);
        control.set_phase(Phase::Posit);
        let _ = q.forward(&x, true);
        let se = q.scale_exp(TensorClass::Activation).unwrap();
        // Frozen from calibration (not lazily recomputed): the wrapper must
        // have an exponent already set before the posit forward ran.
        assert!(
            se != 0 || !q.scaling,
            "calibrated scale should be non-trivial"
        );
    }

    #[test]
    fn no_scaling_ablation_uses_unit_scale() {
        let mut rng = Prng::seed(5);
        let control = QuantControl::new();
        let spec = QuantSpec::cifar_paper().without_scaling();
        let mut q = Quantized::new(small_conv(), &spec, control.clone());
        control.set_phase(Phase::Posit);
        let x = Tensor::rand_normal(&[1, 1, 5, 5], 0.0, 1.0, &mut rng);
        let y = q.forward(&x, true);
        // With scaling off, outputs are plain P(x) values of (8,1).
        let fmt = PositFormat::of(8, 1);
        for &v in y.data() {
            let q = posit::quant::quantize_f32(&fmt, v, Rounding::ToZero);
            assert_eq!(q, v);
        }
    }

    #[test]
    fn posit_master_ablation_keeps_weights_on_grid() {
        use crate::config::MasterWeights;
        let mut rng = Prng::seed(7);
        let control = QuantControl::new();
        let spec = QuantSpec::cifar_paper().with_master(MasterWeights::Posit);
        let mut q = Quantized::new(small_conv(), &spec, control.clone());
        control.set_phase(Phase::Posit);
        let x = Tensor::rand_normal(&[1, 1, 5, 5], 0.0, 1.0, &mut rng);
        let y = q.forward(&x, true);
        let _ = q.backward(&y);
        // No restore under the posit-master policy: weights stay quantized.
        let wse = q.scale_exp(TensorClass::Weight).unwrap();
        let wfmt = q.format(TensorClass::Weight);
        for p in q.params() {
            for &w in p.value.data() {
                let mut copy = [w];
                let mut st = 0u64;
                scale::shifted_quantize_slice(&mut copy, &wfmt, wse, Rounding::ToZero, &mut st);
                assert_eq!(copy[0], w, "weight {w} left the grid");
            }
        }
    }

    #[test]
    fn eval_forward_releases_the_weight_view() {
        let mut rng = Prng::seed(8);
        let control = QuantControl::new();
        let mut q = Quantized::new(small_conv(), &QuantSpec::cifar_paper(), control.clone());
        control.set_phase(Phase::Posit);
        let x = Tensor::rand_normal(&[1, 1, 5, 5], 0.0, 1.0, &mut rng);
        let before: Vec<f32> = q.params()[0].value.data().to_vec();
        let _ = q.forward(&x, false); // eval mode
        assert_eq!(
            q.params()[0].value.data(),
            &before[..],
            "eval must not leave the quantized view installed"
        );
    }

    #[test]
    fn quant_builder_wraps_models() {
        use posit_models::resnet_scaled;
        let mut rng = Prng::seed(6);
        let mut qb = QuantBuilder::new(QuantSpec::cifar_paper());
        let control = qb.control();
        let mut net = resnet_scaled(&mut qb, 4, 10, &mut rng);
        let x = Tensor::rand_normal(&[2, 3, 8, 8], 0.0, 1.0, &mut rng);
        // FP32 phase: finite outputs.
        let y = net.forward(&x, true);
        assert!(y.data().iter().all(|v| v.is_finite()));
        // Posit phase: still finite, and quantized logits differ from FP32.
        control.set_phase(Phase::Posit);
        let y2 = net.forward(&x, true);
        assert!(y2.data().iter().all(|v| v.is_finite()));
        assert_ne!(y.data(), y2.data());
    }
}
