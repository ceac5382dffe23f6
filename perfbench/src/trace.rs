//! Timing wrappers around the public `Backend` entry points of each layer.
//!
//! The traced run swaps these in where the untraced run uses the bare
//! backends; everything else about the run stays the same.

use rsn_eval::{Backend, EvalError, EvalReport, WorkloadSpec};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One timed call into a backend.
#[derive(Debug, Clone)]
pub struct Call {
    /// When the call started.
    pub start: Instant,
    /// How long it took.
    pub duration: Duration,
    /// Specs it carried.
    pub specs: usize,
    /// Spec lists it carried (one for the single-list entry points).
    pub chunks: usize,
    /// The specs themselves, to attribute the call to the requests that
    /// caused it.
    pub spec_list: Vec<WorkloadSpec>,
}

impl Call {
    /// When the call returned.
    pub fn end(&self) -> Instant {
        self.start + self.duration
    }
}

/// A shared log of timed calls.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    calls: Arc<Mutex<Vec<Call>>>,
}

impl Recorder {
    fn push(&self, start: Instant, chunks: &[&[WorkloadSpec]]) {
        let duration = start.elapsed();
        let spec_list = chunks.concat();
        self.calls.lock().expect("recorder lock").push(Call {
            start,
            duration,
            specs: spec_list.len(),
            chunks: chunks.len(),
            spec_list,
        });
    }

    /// Takes every call recorded so far.
    pub fn take(&self) -> Vec<Call> {
        std::mem::take(&mut *self.calls.lock().expect("recorder lock"))
    }
}

/// Times each successful `evaluate` of an in-process backend.  Batch entry
/// points keep their trait defaults, which loop over `evaluate` exactly as
/// the wrapped backends' own defaults do.
pub struct PerSpec<B> {
    inner: B,
    calls: Recorder,
}

impl<B: Backend> PerSpec<B> {
    /// Wraps `inner`, logging into `calls`.
    pub fn new(inner: B, calls: Recorder) -> Self {
        PerSpec { inner, calls }
    }
}

impl<B: Backend> Backend for PerSpec<B> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn supports(&self, workload: &WorkloadSpec) -> bool {
        self.inner.supports(workload)
    }

    fn evaluate(&self, workload: &WorkloadSpec) -> Result<EvalReport, EvalError> {
        let start = Instant::now();
        let result = self.inner.evaluate(workload);
        if result.is_ok() {
            self.calls.push(start, &[std::slice::from_ref(workload)]);
        }
        result
    }
}

/// Times every call into a backend that batches on its own (the remote
/// shard client): each batch entry point is forwarded unchanged, and one
/// call is one wire exchange.
pub struct PerCall<B> {
    inner: B,
    calls: Recorder,
}

impl<B: Backend> PerCall<B> {
    /// Wraps `inner`, logging into `calls`.
    pub fn new(inner: B, calls: Recorder) -> Self {
        PerCall { inner, calls }
    }
}

impl<B: Backend> Backend for PerCall<B> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn supports(&self, workload: &WorkloadSpec) -> bool {
        self.inner.supports(workload)
    }

    fn evaluate(&self, workload: &WorkloadSpec) -> Result<EvalReport, EvalError> {
        let start = Instant::now();
        let result = self.inner.evaluate(workload);
        self.calls.push(start, &[std::slice::from_ref(workload)]);
        result
    }

    fn evaluate_many(&self, workloads: &[WorkloadSpec]) -> Vec<Result<EvalReport, EvalError>> {
        let start = Instant::now();
        let results = self.inner.evaluate_many(workloads);
        self.calls.push(start, &[workloads]);
        results
    }

    fn coalesces_chunks(&self) -> bool {
        self.inner.coalesces_chunks()
    }

    fn evaluate_chunks(
        &self,
        chunks: &[Vec<WorkloadSpec>],
    ) -> Vec<Vec<Result<EvalReport, EvalError>>> {
        let start = Instant::now();
        let results = self.inner.evaluate_chunks(chunks);
        self.calls
            .push(start, &chunks.iter().map(Vec::as_slice).collect::<Vec<_>>());
        results
    }

    fn evaluate_chunks_shared(
        &self,
        chunks: &[Vec<WorkloadSpec>],
    ) -> Vec<Vec<Arc<Result<EvalReport, EvalError>>>> {
        let start = Instant::now();
        let results = self.inner.evaluate_chunks_shared(chunks);
        self.calls
            .push(start, &chunks.iter().map(Vec::as_slice).collect::<Vec<_>>());
        results
    }
}
