//! In-process inference serving for posit-trained networks.
//!
//! The training side of the paper quantizes every Fig. 3 edge; this crate
//! is the deployment counterpart: load a checkpointed model (through the
//! `posit_nn::checkpoint` read façade — v1 blob or v2 chunked store),
//! flip its [`QuantControl`](posit_train::QuantControl) to the posit
//! phase, and serve single-sample requests through a submit/poll API
//! backed by a **dynamic batcher**:
//!
//! * [`InferenceServer::submit`] quantizes the sample at the `A^0` input
//!   edge (frozen [`posit_train::InputQuantizer`] exponent) and queues it;
//!   a full batch of `max_batch` rows executes immediately;
//! * [`InferenceServer::tick`] advances a deterministic virtual clock and
//!   flushes partial batches whose oldest request waited `max_wait_ticks`;
//! * [`InferenceServer::poll`] returns the per-request logits plus queue
//!   and compute latency.
//!
//! Batches execute as one `[n, …]` eval forward per flush — on the
//! posit-quire backend that is one exact GEMM per layer over packed posit
//! planes, with posit-resident weights (`MasterWeights::Posit`) reused
//! across batches and the work spread over the `posit_tensor::workers`
//! pool. Because the quire accumulates exactly per output element and
//! every eval-mode layer is row-separable, **batched logits are
//! bit-identical to single-sample logits** for any batch shape, submit
//! interleaving, or thread count — the batcher buys throughput without
//! touching the numerics (pinned by `tests/batcher_determinism.rs`).
//!
//! Latency accounting lives in [`ServeStats`]: queue delay in virtual
//! ticks, per-sample compute in wall-clock nanoseconds, queue depth and
//! batch occupancy, p50/p99 from the log-bucket `posit_obs::Histogram`.
//! With `POSIT_OBS=1` the server also publishes a queue-depth gauge and
//! batch-size histogram to the global `posit_obs` registry. The
//! `load_driver` binary in
//! `posit-bench` replays bursty and uniform synthetic traffic against
//! this server and prints the latency/throughput table recorded in
//! EXPERIMENTS.md.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod server;

pub use server::{
    InferenceReply, InferenceServer, Rejected, RequestId, ServeConfig, ServeStats, ServedModel,
};

use posit_nn::checkpoint::LoadError;
use posit_tensor::StorageError;

/// Recoverable serving errors.
#[derive(Debug)]
pub enum ServeError {
    /// A tensor crossed an f32 boundary in the wrong storage domain
    /// (e.g. a packed posit sample handed to `submit`).
    Storage(StorageError),
    /// A submitted sample's shape does not match the server's input shape.
    Shape {
        /// The shape the server was built for.
        expected: Vec<usize>,
        /// The shape submitted.
        got: Vec<usize>,
    },
    /// The checkpoint restore failed.
    Load(LoadError),
    /// Invalid server configuration.
    Config(String),
    /// The request was shed at admission time (see [`Rejected`]).
    Rejected(Rejected),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Storage(e) => write!(f, "storage domain error: {e}"),
            ServeError::Shape { expected, got } => {
                write!(
                    f,
                    "sample shape {got:?} does not match input shape {expected:?}"
                )
            }
            ServeError::Load(e) => write!(f, "checkpoint restore failed: {e}"),
            ServeError::Config(msg) => write!(f, "invalid serve config: {msg}"),
            ServeError::Rejected(r) => write!(f, "request rejected: {r}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Storage(e) => Some(e),
            ServeError::Load(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StorageError> for ServeError {
    fn from(e: StorageError) -> ServeError {
        ServeError::Storage(e)
    }
}

impl From<LoadError> for ServeError {
    fn from(e: LoadError) -> ServeError {
        ServeError::Load(e)
    }
}

impl From<Rejected> for ServeError {
    fn from(r: Rejected) -> ServeError {
        ServeError::Rejected(r)
    }
}
