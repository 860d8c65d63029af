//! Spans recorded from outside the library: a forwarding timing wrapper
//! for each child of a `Sequential`, and a timing wrapper for a `Store`.
//! Spans are kept in memory and analysed after the run.

use crate::{alloc, stats};
use posit_dnn::nn::{Layer, LayerKind, Param, ReLU, Sequential};
use posit_dnn::store::{Store, StoreError};
use posit_dnn::tensor::{Backend, Tensor};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// What a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `Layer::forward` on child `layer`.
    Fwd { train: bool },
    /// `Layer::backward`.
    Bwd,
    /// `Layer::end_grad_batch`: the quire merge and the one rounding.
    GradRound,
    /// A `Store::set` of `bytes` bytes.
    StoreSet { bytes: u64 },
    /// Any other `Store` call.
    StoreOther,
    /// An epoch-end mark (`RunOptions::on_epoch`), zero length.
    Epoch,
}

/// One recorded interval, in nanoseconds since the recorder's origin.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// What ran.
    pub kind: Kind,
    /// Child index in the traced `Sequential` (0 for non-layer spans).
    pub layer: usize,
    /// Start, ns.
    pub start: u64,
    /// End, ns.
    pub end: u64,
    /// Batch rows of the input (child-0 forwards only).
    pub rows: usize,
    /// Allocation calls, requested bytes and minor faults just before the
    /// span started (child-0 forwards only; zero elsewhere).
    pub mem: (u64, u64, u64),
}

impl Span {
    /// Duration in ns.
    pub fn ns(&self) -> u64 {
        self.end - self.start
    }

    /// Is this the start of a step or batch: a forward on the first child?
    pub fn is_head(&self, train: bool) -> bool {
        self.layer == 0 && self.kind == Kind::Fwd { train }
    }

    /// Any forward on the first child.
    pub fn is_any_head(&self) -> bool {
        self.layer == 0 && matches!(self.kind, Kind::Fwd { .. })
    }

    /// A layer hook (forward, backward or gradient rounding).
    pub fn is_layer(&self) -> bool {
        matches!(self.kind, Kind::Fwd { .. } | Kind::Bwd | Kind::GradRound)
    }
}

/// In-memory span sink shared by every wrapper of one traced run.
pub struct Recorder {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    /// An empty recorder.
    pub fn new() -> Arc<Recorder> {
        Arc::new(Recorder {
            origin: Instant::now(),
            spans: Mutex::new(Vec::with_capacity(1 << 16)),
        })
    }

    /// Nanoseconds since the origin.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Append a span.
    pub fn push(&self, span: Span) {
        self.spans
            .lock()
            .expect("span sink poisoned by a panicking writer")
            .push(span);
    }

    /// Record a span of `kind` that started at `start` and ends now.
    pub fn close(&self, kind: Kind, layer: usize, start: u64) {
        let end = self.now();
        self.push(Span {
            kind,
            layer,
            start,
            end,
            rows: 0,
            mem: (0, 0, 0),
        });
    }

    /// Record a zero-length epoch mark.
    pub fn mark_epoch(&self) {
        let t = self.now();
        self.push(Span {
            kind: Kind::Epoch,
            layer: 0,
            start: t,
            end: t,
            rows: 0,
            mem: (0, 0, 0),
        });
    }

    /// Take every span recorded so far, sorted by start time.
    pub fn drain(&self) -> Vec<Span> {
        let mut v = std::mem::take(
            &mut *self
                .spans
                .lock()
                .expect("span sink poisoned by a panicking writer"),
        );
        v.sort_by_key(|s| (s.start, s.end));
        v
    }
}

/// A forwarding `Layer` that times forward, backward and gradient
/// rounding of the layer it wraps; every other hook passes straight
/// through, so the wrapped network computes the same bits.
pub struct Timed {
    inner: Box<dyn Layer>,
    index: usize,
    rec: Arc<Recorder>,
}

impl Layer for Timed {
    fn kind(&self) -> LayerKind {
        self.inner.kind()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        if self.index != 0 {
            let start = self.rec.now();
            let out = self.inner.forward(input, train);
            self.rec.close(Kind::Fwd { train }, self.index, start);
            return out;
        }
        let (calls, bytes) = alloc::totals();
        let mem = (calls, bytes, stats::minor_faults());
        let start = self.rec.now();
        let out = self.inner.forward(input, train);
        let end = self.rec.now();
        self.rec.push(Span {
            kind: Kind::Fwd { train },
            layer: 0,
            start,
            end,
            rows: input.shape().first().copied().unwrap_or(0),
            mem,
        });
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let start = self.rec.now();
        let out = self.inner.backward(grad_out);
        self.rec.close(Kind::Bwd, self.index, start);
        out
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.inner.params_mut()
    }

    fn params(&self) -> Vec<&Param> {
        self.inner.params()
    }

    fn set_compute_backends(&mut self, forward: Backend, backward: Backend) {
        self.inner.set_compute_backends(forward, backward);
    }

    fn state_entries(&self) -> Vec<(String, Vec<u8>)> {
        self.inner.state_entries()
    }

    fn restore_state_entries(&mut self, lookup: &dyn Fn(&str) -> Option<Vec<u8>>) {
        self.inner.restore_state_entries(lookup);
    }

    fn batch_separable(&self) -> bool {
        self.inner.batch_separable()
    }

    fn begin_grad_batch(&mut self, total_samples: usize) {
        self.inner.begin_grad_batch(total_samples);
    }

    fn begin_grad_shard(&mut self) {
        self.inner.begin_grad_shard();
    }

    fn end_grad_batch(&mut self) {
        let start = self.rec.now();
        self.inner.end_grad_batch();
        self.rec.close(Kind::GradRound, self.index, start);
    }
}

/// Name of each child of a network, and whether it has parameters.
pub struct Children {
    /// Child names, in order.
    pub names: Vec<String>,
    /// Whether each child has learnable parameters.
    pub has_params: Vec<bool>,
}

/// Swap a [`Timed`] wrapper into every child slot of `net`.
pub fn wrap(net: &mut Sequential, rec: &Arc<Recorder>) -> Children {
    let mut names = Vec::new();
    let mut has_params = Vec::new();
    for (index, slot) in net.layers_mut().iter_mut().enumerate() {
        names.push(slot.name().to_string());
        has_params.push(!slot.params().is_empty());
        let inner = std::mem::replace(slot, Box::new(ReLU::new("placeholder")));
        *slot = Box::new(Timed {
            inner,
            index,
            rec: Arc::clone(rec),
        });
    }
    Children { names, has_params }
}

/// A `Store` that times every call into the store it wraps.
pub struct TimedStore<'a> {
    inner: &'a dyn Store,
    rec: &'a Recorder,
}

impl<'a> TimedStore<'a> {
    /// Wrap `inner`, recording into `rec`.
    pub fn new(inner: &'a dyn Store, rec: &'a Recorder) -> TimedStore<'a> {
        TimedStore { inner, rec }
    }

    fn timed<T>(&self, kind: Kind, f: impl FnOnce() -> T) -> T {
        let start = self.rec.now();
        let out = f();
        self.rec.close(kind, 0, start);
        out
    }
}

impl Store for TimedStore<'_> {
    fn get(&self, key: &str) -> Result<Option<Vec<u8>>, StoreError> {
        self.timed(Kind::StoreOther, || self.inner.get(key))
    }

    fn set(&self, key: &str, value: &[u8]) -> Result<(), StoreError> {
        let bytes = value.len() as u64;
        self.timed(Kind::StoreSet { bytes }, || self.inner.set(key, value))
    }

    fn delete(&self, key: &str) -> Result<(), StoreError> {
        self.timed(Kind::StoreOther, || self.inner.delete(key))
    }

    fn list(&self) -> Result<Vec<String>, StoreError> {
        self.timed(Kind::StoreOther, || self.inner.list())
    }

    fn list_prefix(&self, prefix: &str) -> Result<Vec<String>, StoreError> {
        self.timed(Kind::StoreOther, || self.inner.list_prefix(prefix))
    }
}
