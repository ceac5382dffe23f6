//! The [`Backend`] trait — the single entry point every comparison goes
//! through.

use crate::report::EvalReport;
use crate::workload::WorkloadSpec;
use rsn_core::error::RsnError;

/// Errors an evaluation can produce.
#[derive(Debug, Clone, PartialEq)]
pub enum EvalError {
    /// This backend has no way to evaluate the given workload (e.g. asking
    /// the GPU datasheet model for an RSN instruction footprint).
    Unsupported {
        /// Backend name.
        backend: String,
        /// Workload label.
        workload: String,
    },
    /// The workload is structurally supported but too large for this
    /// backend's execution style (the cycle-level simulator moves every FP32
    /// value through the stream network, so it is bounded to small shapes).
    TooLarge {
        /// Backend name.
        backend: String,
        /// Workload label.
        workload: String,
        /// Human-readable bound that was exceeded.
        limit: String,
    },
    /// The underlying engine failed (deadlock, step limit, malformed
    /// datapath).
    Engine(RsnError),
    /// The backend panicked while evaluating.  Produced by supervising
    /// layers (the serving worker pool catches panics so one poisoned
    /// backend fails only its own requests instead of killing a worker).
    Panicked {
        /// Backend name.
        backend: String,
        /// Workload label.
        workload: String,
        /// Panic payload, when it was a string.
        reason: String,
    },
    /// Reaching a remote backend shard failed (connection refused, a dead
    /// peer, a malformed frame).  Produced by the cross-process serving
    /// layer; like `Panicked`, transport errors are never cached, so a
    /// restarted shard serves the next request normally.
    Transport {
        /// Backend (shard) name.
        backend: String,
        /// Transport-level failure description.
        detail: String,
    },
    /// An error a remote shard reported whose structured payload does not
    /// cross the wire (engine errors carry `rsn-core` types).  Displays the
    /// remote error text verbatim, so re-emitted documents stay
    /// byte-identical to what the shard produced.
    Remote {
        /// The remote error's display text.
        message: String,
    },
    /// The serving layer refused or shed this request under load instead
    /// of evaluating it: its queue age exceeded the priority class's SLO
    /// budget, or the pending queues were at capacity.  A fast-fail, never
    /// cached — the caller may retry once the service drains.
    Overloaded {
        /// The request's scheduling-class spelling (`high`/`normal`/`low`).
        class: String,
        /// What tripped: the class deadline or the queue-depth gate.
        reason: String,
    },
}

impl std::fmt::Display for EvalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvalError::Unsupported { backend, workload } => {
                write!(
                    f,
                    "backend `{backend}` does not support workload `{workload}`"
                )
            }
            EvalError::TooLarge {
                backend,
                workload,
                limit,
            } => write!(
                f,
                "workload `{workload}` exceeds backend `{backend}` bound: {limit}"
            ),
            EvalError::Engine(e) => write!(f, "engine error: {e}"),
            EvalError::Panicked {
                backend,
                workload,
                reason,
            } => write!(
                f,
                "backend `{backend}` panicked while evaluating `{workload}`: {reason}"
            ),
            EvalError::Transport { backend, detail } => {
                write!(f, "transport to backend shard `{backend}` failed: {detail}")
            }
            EvalError::Remote { message } => write!(f, "{message}"),
            EvalError::Overloaded { class, reason } => {
                write!(f, "service overloaded ({class}): {reason}")
            }
        }
    }
}

impl std::error::Error for EvalError {}

impl From<RsnError> for EvalError {
    fn from(e: RsnError) -> Self {
        EvalError::Engine(e)
    }
}

/// A comparison point of the evaluation: something that can turn a
/// [`WorkloadSpec`] into an [`EvalReport`].
///
/// Implementations must be `Send + Sync` so the sweep runner can fan a
/// workload grid out across threads; backends therefore hold only immutable
/// model state and construct any per-run machinery inside `evaluate`.
pub trait Backend: Send + Sync {
    /// Stable display name (used in table output and report tags).
    fn name(&self) -> &str;

    /// Returns `true` when `workload` is structurally evaluable by this
    /// backend (size bounds may still apply at `evaluate` time).
    fn supports(&self, workload: &WorkloadSpec) -> bool;

    /// Evaluates one workload.
    ///
    /// # Errors
    ///
    /// * [`EvalError::Unsupported`] when `supports` is `false`,
    /// * [`EvalError::TooLarge`] when a size bound is exceeded,
    /// * [`EvalError::Engine`] when the underlying simulation fails.
    fn evaluate(&self, workload: &WorkloadSpec) -> Result<EvalReport, EvalError>;

    /// Estimated host cost of [`evaluate`](Self::evaluate) on `workload`,
    /// in rough nanoseconds.  Parallel runners use it to balance work: the
    /// sweep starts the costliest jobs first and the serving layer splits
    /// each micro-batch across a backend's workers by cost
    /// ([`balanced_groups`](crate::balanced_groups)).  Only the ordering
    /// and rough ratios matter.  The default `1` marks every workload as
    /// equally cheap, which keeps the order-preserving even split — right
    /// for the closed-form models, whose cost does not depend on the shape.
    fn cost_hint(&self, workload: &WorkloadSpec) -> u64 {
        let _ = workload;
        1
    }

    /// Evaluates a slice of workloads, returning one result per workload in
    /// order.  The default simply loops over [`evaluate`](Self::evaluate) —
    /// correct for every in-process backend — but backends with per-call
    /// overhead (a remote shard paying a wire exchange per evaluation) can
    /// override it to amortise that overhead across the whole slice.  The
    /// serving worker pools hand each backend its share of a micro-batch
    /// through this method, so an override sees genuine batches.
    fn evaluate_many(&self, workloads: &[WorkloadSpec]) -> Vec<Result<EvalReport, EvalError>> {
        workloads.iter().map(|w| self.evaluate(w)).collect()
    }

    /// Whether a serving worker should gather *several* pending work chunks
    /// and hand them to this backend in one [`evaluate_chunks`](Self::evaluate_chunks)
    /// call.  `false` (the default) preserves the chunk-at-a-time cadence —
    /// right for in-process backends, where coalescing only adds queueing
    /// latency.  Backends that pay a fixed cost per call (a remote shard
    /// paying a wire round trip) return `true` so that cost is shared by
    /// every chunk waiting in the worker's queue.
    fn coalesces_chunks(&self) -> bool {
        false
    }

    /// Evaluates several independent workload chunks, returning one result
    /// vector per chunk, each in its chunk's order.  The default loops over
    /// [`evaluate_many`](Self::evaluate_many); backends that can amortise
    /// transport across chunks (a remote shard sending all chunks as one
    /// burst of frames) override it.
    fn evaluate_chunks(
        &self,
        chunks: &[Vec<WorkloadSpec>],
    ) -> Vec<Vec<Result<EvalReport, EvalError>>> {
        chunks
            .iter()
            .map(|chunk| self.evaluate_many(chunk))
            .collect()
    }

    /// [`evaluate_chunks`](Self::evaluate_chunks) with every result behind
    /// its own `Arc`.  The serving layer stores results `Arc`-shared in its
    /// report cache; backends that already hold results in `Arc`s (a remote
    /// shard client, whose wire decoder produces shared results) override
    /// this to hand them through without unwrapping and re-boxing each one.
    /// The default wraps the plain results, which is what the cache would
    /// have done anyway — same allocation, moved earlier.
    fn evaluate_chunks_shared(
        &self,
        chunks: &[Vec<WorkloadSpec>],
    ) -> Vec<Vec<std::sync::Arc<Result<EvalReport, EvalError>>>> {
        self.evaluate_chunks(chunks)
            .into_iter()
            .map(|chunk| chunk.into_iter().map(std::sync::Arc::new).collect())
            .collect()
    }
}

/// Convenience constructor for the `Unsupported` error.
pub(crate) fn unsupported(backend: &dyn Backend, workload: &WorkloadSpec) -> EvalError {
    EvalError::Unsupported {
        backend: backend.name().to_string(),
        workload: workload.name(),
    }
}
