//! The service engine: a work-conserving micro-batcher in front of
//! per-backend sharded worker pools.
//!
//! ```text
//! submit() ──► priority queues ──► batcher thread ──► report cache
//!                                                      │ hit: answer now
//!                                                      │ in-flight: merge
//!                                                      ▼ miss: schedule
//!                                      per-backend work queues
//!                                  ┌────────┴─────────┐
//!                              workers (backend 0) ... workers (backend N)
//! ```
//!
//! Each worker thread owns a handle to exactly one backend and serves only
//! that backend's queue, so backends are isolated shards: a slow or
//! panicking backend delays or fails only requests that selected it.  This
//! replaces the per-call `thread::scope` fan-out of
//! [`Evaluator::evaluate_grid`] on the serving path with long-running
//! threads that amortise across every batch.
//!
//! The batcher never holds work back from an idle worker: a batch
//! dispatches at once when some backend it targets has a worker with no
//! chunk in hand, and otherwise coalesces until it is full or
//! [`ServiceConfig::batch_deadline`] passes — Nagle's rule, so batching
//! happens only while every worker is busy and never adds a latency floor.

use crate::cache::{CachedResult, Lookup, ReportCache};
use crate::config::{RemoteConfig, ServiceConfig};
use crate::pool::ConnectionPool;
use crate::request::{BackendSelector, EvalRequest, EvalResponse, Priority, ResponseHandle};
use crate::stats::{ServiceStats, StatsCounters};
use crate::topology::Topology;
use rsn_eval::{balanced_groups, Backend, EvalError, EvalReport, Evaluator, WorkloadSpec};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Per-backend result slot of one request.  Both halves are `Arc`-shared —
/// the result with the report cache, the backend name with the service's
/// registration table — so filling a slot never copies a report or a
/// string.
type SlotResult = (Arc<str>, CachedResult);

/// How a finished request hands its response back: over the channel a
/// [`ResponseHandle`] waits on (the blocking front ends), or by invoking a
/// callback on the completing worker's thread (the reactor front end, which
/// must never block a thread on a channel).
pub(crate) enum Completion {
    /// Send on this channel; the submitting thread waits on the other end.
    Channel(mpsc::Sender<EvalResponse>),
    /// Invoke this (exactly once) with the response.  Callbacks run on
    /// whichever worker thread fills the last slot, so they must be quick
    /// and non-blocking — the reactor's callback pushes onto a queue and
    /// writes one wake byte.
    Callback(Box<dyn FnOnce(EvalResponse) + Send>),
}

impl Completion {
    fn resolve(self, response: EvalResponse) {
        match self {
            // A dropped receiver means the submitter gave up; that is its
            // right, not an error.
            Completion::Channel(tx) => drop(tx.send(response)),
            Completion::Callback(callback) => callback(response),
        }
    }
}

/// Shared completion state of one accepted request.
struct RequestState {
    /// One slot per selected backend, in selection order.
    slots: Mutex<Vec<Option<SlotResult>>>,
    /// Unfilled slots; the request responds when this reaches zero.
    remaining: AtomicUsize,
    /// Response hand-off, consumed by whichever fill completes the request.
    tx: Mutex<Option<Completion>>,
    /// When the request was accepted — the base of its sojourn time, which
    /// is what the per-class latency histograms record at completion.
    enqueued_at: Instant,
    /// Scheduling class, for the per-class latency/shed accounting.
    priority: Priority,
    /// Set when any member of the request was shed under load; a shed
    /// request's sojourn is excluded from the latency histogram (it
    /// measures *served* requests) and shows up in the shed counters
    /// instead.
    shed: AtomicBool,
}

/// A queued request slot awaiting one backend's report.
struct Waiter {
    state: Arc<RequestState>,
    slot: usize,
}

/// A request after backend resolution, parked in the priority queues.
/// The spec is `Arc`-shared from submission through cache keys and work
/// tasks, so the batching/caching path never deep-clones it.
struct QueuedItem {
    spec: Arc<WorkloadSpec>,
    /// `(slot index, backend shard)` pairs still needing evaluation.
    targets: Vec<(usize, usize)>,
    state: Arc<RequestState>,
    /// When the member entered the queues.  The batcher anchors its
    /// deadline to the *oldest* member's stamp (a request must never wait
    /// more than `batch_deadline` in the batcher regardless of when the
    /// batcher thread woke), and deadline-aware shedding compares this age
    /// against the class budget at dispatch.
    enqueued_at: Instant,
    /// Scheduling class (duplicated from the queue index so dispatch-time
    /// shedding can account against the right class).
    priority: Priority,
}

/// One unit of backend work produced by a cache miss.
struct WorkTask {
    spec: Arc<WorkloadSpec>,
    backend: usize,
}

/// The priority-ordered submission queues.
#[derive(Default)]
struct PendingQueues {
    queues: [VecDeque<QueuedItem>; 3],
    shutdown: bool,
}

impl PendingQueues {
    fn len(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }

    /// Pops the most urgent queued request (FIFO within a class).
    fn pop(&mut self) -> Option<QueuedItem> {
        self.queues.iter_mut().find_map(VecDeque::pop_front)
    }
}

/// State shared between the front end, the batcher and every worker.
struct ServiceInner {
    config: ServiceConfig,
    backends: Vec<Arc<dyn Backend>>,
    names: Vec<String>,
    /// `names` as shared slices, cloned (refcount-bumped) into every
    /// response slot instead of copying the string per result.
    name_refs: Vec<Arc<str>>,
    pending: Mutex<PendingQueues>,
    /// Wakes the batcher: on submission, on shutdown, and when a saturated
    /// backend's worker frees up.
    pending_cv: Condvar,
    /// Per-backend worker occupancy, which the batcher reads to decide
    /// whether a batch may keep coalescing.
    loads: Vec<WorkerLoad>,
    cache: ReportCache<Waiter>,
    counters: StatsCounters,
    /// Remote-shard connection pools registered by [`ShardRouter`] (or
    /// [`EvalService::register_pool`]); their transport counters join
    /// every [`stats`](EvalService::stats) snapshot.
    pools: Mutex<Vec<Arc<ConnectionPool>>>,
}

/// How busy one backend's worker pool is.  Only the batcher raises
/// `in_flight` (in [`dispatch`]); workers lower it once they have answered
/// what they received.
struct WorkerLoad {
    /// Worker threads serving this backend
    /// (`workers_per_backend × weight`).
    workers: usize,
    /// Chunks dispatched to this backend and not yet finished, whether
    /// still queued in the hand-off channel or in a worker's hands.  The
    /// count publishes no other data: a worker's `Release` decrement pairs
    /// with the batcher's `Acquire` load, and the `pending` lock orders a
    /// decrement that ends saturation against the batcher's check.
    in_flight: AtomicUsize,
}

impl WorkerLoad {
    /// Whether some worker of this backend has no chunk in hand.
    fn has_idle_worker(&self) -> bool {
        self.in_flight.load(Ordering::Acquire) < self.workers
    }
}

/// A batched, cached, sharded evaluation service over an
/// [`Evaluator`]'s backends.
///
/// See the [crate docs](crate) for the full request lifecycle; in short,
/// [`submit`](Self::submit) coalesces requests into micro-batches,
/// deduplicates identical `(backend, spec)` work through the report cache,
/// and shards fresh evaluations across per-backend worker pools.  The
/// synchronous [`evaluate_grid`](Self::evaluate_grid) wrapper makes the
/// service a drop-in replacement for `Evaluator::evaluate_grid` in the table
/// binaries.
pub struct EvalService {
    inner: Arc<ServiceInner>,
    batcher: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl EvalService {
    /// A service over the evaluator's backends with the default
    /// [`ServiceConfig`].
    pub fn new(evaluator: Evaluator) -> Self {
        Self::with_config(evaluator, ServiceConfig::default())
    }

    /// A service over the evaluator's backends with explicit tuning knobs.
    /// The backends move into long-running worker threads (one pool per
    /// backend, [`ServiceConfig::workers_per_backend`] threads each).
    pub fn with_config(evaluator: Evaluator, config: ServiceConfig) -> Self {
        Self::with_weighted_config(evaluator, config, &[])
    }

    /// [`with_config`](Self::with_config) with per-backend worker weights:
    /// backend `i` gets `workers_per_backend * weights[i].max(1)` worker
    /// threads (missing entries weigh 1).  The topology file uses this to
    /// give heavier shards proportionally more client-side concurrency.
    pub fn with_weighted_config(
        evaluator: Evaluator,
        config: ServiceConfig,
        weights: &[usize],
    ) -> Self {
        let backends: Vec<Arc<dyn Backend>> = evaluator
            .into_backends()
            .into_iter()
            .map(Arc::from)
            .collect();
        let names: Vec<String> = backends.iter().map(|b| b.name().to_string()).collect();
        let name_refs: Vec<Arc<str>> = names.iter().map(|n| Arc::from(n.as_str())).collect();
        let loads = (0..backends.len())
            .map(|backend_idx| WorkerLoad {
                workers: config.workers_per_backend.max(1)
                    * weights.get(backend_idx).copied().unwrap_or(1).max(1),
                in_flight: AtomicUsize::new(0),
            })
            .collect();
        let inner = Arc::new(ServiceInner {
            backends,
            pending: Mutex::new(PendingQueues::default()),
            pending_cv: Condvar::new(),
            loads,
            cache: ReportCache::with_capacity(config.cache_capacity),
            counters: StatsCounters::for_shards(&names),
            names,
            name_refs,
            config,
            pools: Mutex::new(Vec::new()),
        });

        let mut senders = Vec::with_capacity(inner.backends.len());
        let mut workers = Vec::new();
        // Whether this service enforces a deadline discipline (class SLO
        // budgets or a queue-depth bound).  It changes how deep the worker
        // hand-off buffers may be, below.
        let disciplined = inner.config.class_budgets.iter().any(Option::is_some)
            || inner.config.queue_capacity.is_some();
        for (backend_idx, load) in inner.loads.iter().enumerate() {
            // The hand-off to the workers is *bounded*: under overload the
            // backlog must accumulate in `pending` — where the admission
            // gate and the deadline shedder can see it — not in an
            // unbounded worker channel the accounting is blind to.  The
            // depth is the service's posture.  Undisciplined services
            // (no budgets, no queue bound — every service before this
            // feature, all the throughput benchmarks) get a deep buffer:
            // the batcher almost never blocks mid-burst and remote
            // backends still find whole queues to coalesce into one wire
            // exchange.  Disciplined services trade that depth for an
            // accurate shedding horizon: work parked in this channel has
            // already passed the shedder, so every buffered chunk is
            // queue-age the accounting cannot see — two chunks per worker
            // keeps the pool double-buffered and the blind spot at one
            // dispatch's worth of work.
            let per_worker = if disciplined { 2 } else { MAX_COALESCED_CHUNKS };
            let (tx, rx) = mpsc::sync_channel::<Vec<WorkTask>>(load.workers * per_worker);
            let rx = Arc::new(Mutex::new(rx));
            senders.push(tx);
            for _ in 0..load.workers {
                let inner = Arc::clone(&inner);
                let rx = Arc::clone(&rx);
                workers.push(std::thread::spawn(move || {
                    worker_loop(&inner, backend_idx, &rx)
                }));
            }
        }
        let batcher = {
            let inner = Arc::clone(&inner);
            std::thread::spawn(move || batcher_loop(&inner, senders))
        };
        Self {
            inner,
            batcher: Some(batcher),
            workers,
        }
    }

    /// The service's tuning knobs (as configured at construction).
    pub fn config(&self) -> &ServiceConfig {
        &self.inner.config
    }

    /// Registers a remote-shard connection pool so its transport counters
    /// appear in [`stats`](Self::stats) snapshots
    /// ([`ServiceStats::remote_pools`]).  [`ShardRouter`] does this for
    /// every shard address it connects.
    pub fn register_pool(&self, pool: Arc<ConnectionPool>) {
        self.inner.pools.lock().expect("pools lock").push(pool);
    }

    /// Display names of the backend shards, in registration order.
    pub fn backend_names(&self) -> &[String] {
        &self.inner.names
    }

    /// A point-in-time activity snapshot, including the transport counters
    /// of every registered remote connection pool.
    pub fn stats(&self) -> ServiceStats {
        let mut stats = self.inner.counters.snapshot();
        stats.remote_pools = self
            .inner
            .pools
            .lock()
            .expect("pools lock")
            .iter()
            .map(|pool| pool.stats())
            .collect();
        stats
    }

    /// Number of `(backend, spec)` keys in the report cache (in-flight and
    /// completed).
    pub fn cache_len(&self) -> usize {
        self.inner.cache.len()
    }

    /// Whether the named backend structurally supports `spec`; `None` when
    /// no such backend is registered.  Used by the shard server to answer
    /// remote `supports` probes without scheduling an evaluation.
    pub fn backend_supports(&self, name: &str, spec: &WorkloadSpec) -> Option<bool> {
        let index = self.inner.names.iter().position(|n| n == name)?;
        Some(self.inner.backends[index].supports(spec))
    }

    /// Accepts a request; the returned handle resolves to exactly one
    /// [`EvalResponse`] with one entry per selected backend.  A single
    /// submit is a one-spec burst: it dispatches at once while a selected
    /// backend has an idle worker, and coalesces with other submits only
    /// while every such worker is busy.
    pub fn submit(&self, request: EvalRequest) -> ResponseHandle {
        self.submit_burst(vec![request.spec], request.backends, request.priority)
    }

    /// Accepts a coalesced batch of specs sharing one backend selection and
    /// one response: the returned handle resolves to a single
    /// [`EvalResponse`] whose `results` are spec-major — for `specs[i]` and
    /// selected backend `j`, the entry is `results[i * selected + j]`.
    ///
    /// A burst of `n` specs costs one response channel, one completion state
    /// and one queue transaction instead of `n` of each, so clients with
    /// ready-made scenario sets (every table binary, bulk sweep producers)
    /// should prefer this over `n` single submits.  The micro-batcher and
    /// the report cache still see per-spec granularity: members are batched,
    /// deduplicated and sharded individually.  Like every submission, a
    /// burst that finds an idle worker dispatches at once, so a lone
    /// synchronous `evaluate_grid` call never waits out
    /// [`ServiceConfig::batch_deadline`].
    pub fn submit_batch(
        &self,
        specs: Vec<WorkloadSpec>,
        backends: BackendSelector,
        priority: Priority,
    ) -> ResponseHandle {
        self.submit_burst(specs, backends, priority)
    }

    /// [`submit_batch`](Self::submit_batch) for callers that must not park
    /// a thread per request: instead of a [`ResponseHandle`], `on_done` is
    /// invoked exactly once with the response, on whichever worker thread
    /// completes the last slot.  This is the reactor front end's submit
    /// path — its completion callback enqueues the finished response and
    /// wakes the event loop, so hundreds of in-flight requests cost no
    /// blocked threads.
    pub fn submit_batch_callback(
        &self,
        specs: Vec<WorkloadSpec>,
        backends: BackendSelector,
        priority: Priority,
        on_done: impl FnOnce(EvalResponse) + Send + 'static,
    ) {
        self.submit_burst_with(
            specs,
            backends,
            priority,
            Completion::Callback(Box::new(on_done)),
        );
    }

    fn submit_burst(
        &self,
        specs: Vec<WorkloadSpec>,
        backends: BackendSelector,
        priority: Priority,
    ) -> ResponseHandle {
        let (tx, rx) = mpsc::channel();
        self.submit_burst_with(specs, backends, priority, Completion::Channel(tx));
        ResponseHandle { rx }
    }

    fn submit_burst_with(
        &self,
        specs: Vec<WorkloadSpec>,
        backends: BackendSelector,
        priority: Priority,
        done: Completion,
    ) {
        let inner = &self.inner;
        inner.counters.submitted.fetch_add(1, Ordering::Relaxed);
        let selection: Vec<Result<usize, String>> = match &backends {
            BackendSelector::All => (0..inner.names.len()).map(Ok).collect(),
            BackendSelector::Named(names) => names
                .iter()
                .map(|name| {
                    inner
                        .names
                        .iter()
                        .position(|n| n == name)
                        .ok_or_else(|| name.clone())
                })
                .collect(),
        };
        let total_slots = specs.len() * selection.len();
        if total_slots == 0 {
            inner.counters.completed.fetch_add(1, Ordering::Relaxed);
            done.resolve(EvalResponse {
                results: Vec::new(),
            });
            return;
        }
        let enqueued_at = Instant::now();
        let state = Arc::new(RequestState {
            slots: Mutex::new(vec![None; total_slots]),
            remaining: AtomicUsize::new(total_slots),
            tx: Mutex::new(Some(done)),
            enqueued_at,
            priority,
            shed: AtomicBool::new(false),
        });
        let mut items = Vec::with_capacity(specs.len());
        for (index, spec) in specs.into_iter().enumerate() {
            let base = index * selection.len();
            let mut targets = Vec::with_capacity(selection.len());
            for (offset, resolved) in selection.iter().enumerate() {
                match resolved {
                    Ok(backend) => targets.push((base + offset, *backend)),
                    Err(name) => fulfill(
                        inner,
                        &state,
                        base + offset,
                        Arc::from(name.as_str()),
                        Arc::new(Err(EvalError::Unsupported {
                            backend: name.clone(),
                            workload: spec.name(),
                        })),
                    ),
                }
            }
            if !targets.is_empty() {
                items.push(QueuedItem {
                    // The one Arc allocation per (spec, request); everything
                    // downstream (cache keys, work tasks) shares it.
                    spec: Arc::new(spec),
                    targets,
                    state: Arc::clone(&state),
                    enqueued_at,
                    priority,
                });
            }
        }
        if !items.is_empty() {
            // One queue transaction for the whole burst.
            let mut pending = inner.pending.lock().expect("pending lock");
            // The admission gate: under an open-loop overload (arrivals
            // that do not slow down when responses lag) the pending queues
            // are the unbounded buffer — refuse the whole burst once they
            // are at capacity, bounding queue memory and answering the
            // excess immediately instead of after a hopeless wait.
            if let Some(capacity) = inner.config.queue_capacity {
                if pending.len() + items.len() > capacity {
                    drop(pending);
                    inner.counters.classes[priority.index()]
                        .shed_queue
                        .fetch_add(items.len() as u64, Ordering::Relaxed);
                    state.shed.store(true, Ordering::Relaxed);
                    let error: CachedResult = Arc::new(Err(EvalError::Overloaded {
                        class: priority.as_str().to_string(),
                        reason: format!("pending queues at capacity ({capacity})"),
                    }));
                    for item in items {
                        for &(slot, backend) in &item.targets {
                            fulfill(
                                inner,
                                &item.state,
                                slot,
                                Arc::clone(&inner.name_refs[backend]),
                                Arc::clone(&error),
                            );
                        }
                    }
                    return;
                }
            }
            pending.queues[priority.index()].extend(items);
            drop(pending);
            inner.pending_cv.notify_all();
        }
    }

    /// Evaluates a burst of specs on one named backend, on the caller's
    /// thread.  This is the shard's answer path for same-host ring
    /// connections: the "pool" shares cores with the client, so queue
    /// hand-offs buy no parallelism and cost two context switches per
    /// batch.  The report cache is consulted and filled, but through the
    /// lean peek/publish protocol rather than the reserve/merge machinery
    /// of the worker path: one read-only transaction probes every spec
    /// (borrowed — no `Arc`, no waiter allocation, no in-flight entry),
    /// misses evaluate inline, and one write transaction publishes the
    /// fresh results.  A key another request is concurrently evaluating
    /// is simply re-evaluated here instead of merged — duplicate work in
    /// a rare race, in exchange for zero per-spec bookkeeping on every
    /// burst; any waiters queued on such a key are fulfilled by the
    /// publish, and the racing evaluation republishes harmlessly.
    /// Returns `None` for an unknown backend; otherwise the results align
    /// with `specs`, `Arc`-shared with the cache.
    pub fn evaluate_batch_inline(
        &self,
        backend: &str,
        specs: Vec<WorkloadSpec>,
    ) -> Option<Vec<CachedResult>> {
        let inner = &*self.inner;
        let backend_idx = inner.names.iter().position(|n| n == backend)?;
        inner.counters.submitted.fetch_add(1, Ordering::Relaxed);
        if specs.is_empty() {
            inner.counters.completed.fetch_add(1, Ordering::Relaxed);
            return Some(Vec::new());
        }
        inner.counters.batches.fetch_add(1, Ordering::Relaxed);
        inner
            .counters
            .batched_requests
            .fetch_add(specs.len() as u64, Ordering::Relaxed);
        let total = specs.len();
        // Pass 1 — one read-only cache transaction over the whole burst.
        let mut results: Vec<Option<CachedResult>> = Vec::with_capacity(total);
        let mut miss_count = 0u64;
        {
            let mut txn = inner.cache.begin();
            for spec in &specs {
                let hit = txn.peek(backend_idx, spec);
                if hit.is_none() {
                    miss_count += 1;
                }
                results.push(hit);
            }
        }
        inner
            .counters
            .cache_hits
            .fetch_add(total as u64 - miss_count, Ordering::Relaxed);
        inner
            .counters
            .cache_misses
            .fetch_add(miss_count, Ordering::Relaxed);
        if miss_count > 0 {
            // Pass 2 — evaluate the misses on this thread, panic-isolated
            // exactly like the worker path.
            let backend_ref = &inner.backends[backend_idx];
            let shard_counters = &inner.counters.per_shard[backend_idx];
            let mut fresh: Vec<(usize, Arc<WorkloadSpec>, CachedResult)> =
                Vec::with_capacity(miss_count as usize);
            for (slot, spec) in specs.into_iter().enumerate() {
                if results[slot].is_some() {
                    continue;
                }
                let result = catch_unwind(AssertUnwindSafe(|| backend_ref.evaluate(&spec)))
                    .unwrap_or_else(|payload| {
                        Err(EvalError::Panicked {
                            backend: backend_ref.name().to_string(),
                            workload: spec.name(),
                            reason: panic_message(payload.as_ref()),
                        })
                    });
                if result.is_err() {
                    inner.counters.eval_errors.fetch_add(1, Ordering::Relaxed);
                    shard_counters.errors.fetch_add(1, Ordering::Relaxed);
                }
                fresh.push((slot, Arc::new(spec), Arc::new(result)));
            }
            inner
                .counters
                .evaluations
                .fetch_add(miss_count, Ordering::Relaxed);
            shard_counters
                .evaluations
                .fetch_add(miss_count, Ordering::Relaxed);
            // Pass 3 — one write transaction publishes every fresh result.
            // Requests that reserved one of these keys while we evaluated
            // come back as waiters; fulfil them so they are not stranded
            // (our publish replaced their in-flight entry).
            let mut evicted_total = 0u64;
            let mut raced: Vec<(Waiter, CachedResult)> = Vec::new();
            {
                let mut txn = inner.cache.begin();
                for (slot, spec, result) in fresh {
                    let (waiters, evicted) = txn.publish(backend_idx, spec, Arc::clone(&result));
                    evicted_total += evicted;
                    raced.extend(waiters.into_iter().map(|w| (w, Arc::clone(&result))));
                    results[slot] = Some(result);
                }
            }
            if evicted_total > 0 {
                inner
                    .counters
                    .evictions
                    .fetch_add(evicted_total, Ordering::Relaxed);
            }
            for (waiter, result) in raced {
                fulfill(
                    inner,
                    &waiter.state,
                    waiter.slot,
                    Arc::clone(&inner.name_refs[backend_idx]),
                    result,
                );
            }
        }
        inner.counters.completed.fetch_add(1, Ordering::Relaxed);
        Some(
            results
                .into_iter()
                .map(|r| r.expect("every slot is a hit or a published miss"))
                .collect(),
        )
    }

    /// Evaluates one workload on every backend shard; results align with
    /// [`backend_names`](Self::backend_names).  Synchronous wrapper over a
    /// one-spec [`submit_batch`](Self::submit_batch).
    pub fn evaluate(&self, spec: &WorkloadSpec) -> Vec<Result<EvalReport, EvalError>> {
        self.submit_batch(vec![spec.clone()], BackendSelector::All, Priority::Normal)
            .wait()
            .results
            .into_iter()
            .map(|(_, result)| (*result).clone())
            .collect()
    }

    /// Evaluates one workload on the shards that support it, returning
    /// `(backend name, report)` pairs — the service-side equivalent of
    /// `Evaluator::evaluate_supported`.  Unsupported shards are filtered
    /// *before* submission (their results would be discarded anyway, and
    /// errors are not cached, so evaluating them would be repeated waste).
    pub fn evaluate_supported(&self, spec: &WorkloadSpec) -> Vec<(String, EvalReport)> {
        let supported: Vec<String> = self
            .inner
            .backends
            .iter()
            .filter(|b| b.supports(spec))
            .map(|b| b.name().to_string())
            .collect();
        self.submit_batch(
            vec![spec.clone()],
            BackendSelector::Named(supported),
            Priority::Normal,
        )
        .wait()
        .results
        .into_iter()
        .filter_map(|(name, result)| {
            (*result)
                .as_ref()
                .ok()
                .map(|r| (name.to_string(), r.clone()))
        })
        .collect()
    }

    /// Evaluates a workload grid through the batching/caching path.  The
    /// outer result is indexed like [`backend_names`](Self::backend_names),
    /// the inner like `workloads` — the exact shape of
    /// `Evaluator::evaluate_grid`, so table binaries can swap the call site
    /// without touching their formatting.
    pub fn evaluate_grid(
        &self,
        workloads: &[WorkloadSpec],
    ) -> Vec<Vec<Result<EvalReport, EvalError>>> {
        let backends = self.inner.names.len();
        let response = self
            .submit_batch(workloads.to_vec(), BackendSelector::All, Priority::Normal)
            .wait();
        let mut grid: Vec<Vec<Result<EvalReport, EvalError>>> = (0..backends)
            .map(|_| Vec::with_capacity(workloads.len()))
            .collect();
        // Batch results are spec-major; de-interleave into backend rows and
        // deep-clone at the compatibility boundary (on the caller's thread),
        // keeping the serving hot path share-only.
        for (i, (_, result)) in response.results.into_iter().enumerate() {
            grid[i % backends].push((*result).clone());
        }
        grid
    }
}

impl Drop for EvalService {
    fn drop(&mut self) {
        {
            let mut pending = self.inner.pending.lock().expect("pending lock");
            pending.shutdown = true;
        }
        self.inner.pending_cv.notify_all();
        // The batcher drains every queued request before exiting, then drops
        // the work senders, which lets the workers drain and exit.
        if let Some(batcher) = self.batcher.take() {
            let _ = batcher.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// Records one backend's answer into its request slot; the last slot filled
/// sends the response.
fn fulfill(
    inner: &ServiceInner,
    state: &RequestState,
    slot: usize,
    name: Arc<str>,
    result: CachedResult,
) {
    {
        let mut slots = state.slots.lock().expect("slots lock");
        debug_assert!(slots[slot].is_none(), "slot {slot} filled twice");
        slots[slot] = Some((name, result));
    }
    if state.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
        let results = state
            .slots
            .lock()
            .expect("slots lock")
            .drain(..)
            .map(|s| s.expect("every slot filled"))
            .collect();
        // Count before sending so a caller that has its response always
        // observes the completion in `stats()`.
        inner.counters.completed.fetch_add(1, Ordering::Relaxed);
        // Sojourn time, enqueue to response, of *served* requests; shed
        // requests are accounted in the shed counters instead (mixing
        // their fast-fail times in would make the histograms look better
        // exactly when the service is refusing work).
        if !state.shed.load(Ordering::Relaxed) {
            inner.counters.classes[state.priority.index()]
                .latency
                .record(state.enqueued_at.elapsed());
        }
        if let Some(done) = state.tx.lock().expect("tx lock").take() {
            done.resolve(EvalResponse { results });
        }
    }
}

/// The micro-batcher: forms work-conserving batches and dispatches them
/// through the cache onto the per-backend work queues.
fn batcher_loop(inner: &ServiceInner, senders: Vec<mpsc::SyncSender<Vec<WorkTask>>>) {
    while let Some(batch) = collect_batch(inner) {
        if !batch.is_empty() {
            dispatch(inner, &senders, batch);
        }
    }
}

/// Blocks for the next batch; `None` means shutdown with nothing left.
///
/// A batch closes when it is full, when its deadline passes, when shutdown
/// starts, or — the work-conserving rule — as soon as some backend it
/// targets has an idle worker.  Coalescing therefore only ever happens
/// while every worker the batch could use is busy, and the deadline bounds
/// that wait instead of flooring every request's latency.
fn collect_batch(inner: &ServiceInner) -> Option<Vec<QueuedItem>> {
    let max_batch = inner.config.max_batch.max(1);
    let mut pending = inner.pending.lock().expect("pending lock");
    while pending.len() == 0 {
        if pending.shutdown {
            return None;
        }
        pending = inner.pending_cv.wait(pending).expect("pending lock");
    }
    let mut batch = Vec::with_capacity(max_batch.min(pending.len()));
    let mut deadline: Option<Instant> = None;
    loop {
        while batch.len() < max_batch {
            match pending.pop() {
                Some(item) => batch.push(item),
                None => break,
            }
        }
        // The deadline is anchored to the *oldest* member's enqueue stamp,
        // not this thread's wake-up: the batcher may itself have been busy
        // dispatching when the request arrived, and starting the clock
        // here would let a request wait up to twice `batch_deadline`.  The
        // first fill above always yields at least one item (the condvar
        // loop held until `pending` was non-empty).
        let deadline = *deadline.get_or_insert_with(|| {
            let oldest = batch
                .iter()
                .map(|item| item.enqueued_at)
                .min()
                .expect("first fill yields at least one item");
            oldest + inner.config.batch_deadline
        });
        if batch.len() >= max_batch || pending.shutdown {
            break;
        }
        // Checked under the `pending` lock, which a worker leaving a
        // saturated pool takes to notify: its wake-up lands either before
        // this check (and is seen here) or in the wait below.
        let idle = batch.iter().any(|item| {
            item.targets
                .iter()
                .any(|&(_, backend)| inner.loads[backend].has_idle_worker())
        });
        if idle {
            break;
        }
        let now = Instant::now();
        if now >= deadline {
            break;
        }
        let (guard, _) = inner
            .pending_cv
            .wait_timeout(pending, deadline - now)
            .expect("pending lock");
        pending = guard;
    }
    Some(batch)
}

/// Fast-fails one queued member whose queue age exceeded its class budget:
/// every unfilled slot gets [`EvalError::Overloaded`], the class's
/// `shed_deadline` counter ticks, and the request is marked shed so its
/// sojourn stays out of the latency histogram.
fn shed_aged(inner: &ServiceInner, item: QueuedItem, age: std::time::Duration) {
    inner.counters.classes[item.priority.index()]
        .shed_deadline
        .fetch_add(1, Ordering::Relaxed);
    item.state.shed.store(true, Ordering::Relaxed);
    let error: CachedResult = Arc::new(Err(EvalError::Overloaded {
        class: item.priority.as_str().to_string(),
        reason: format!("queue age {}µs exceeded the class budget", age.as_micros()),
    }));
    for &(slot, backend) in &item.targets {
        fulfill(
            inner,
            &item.state,
            slot,
            Arc::clone(&inner.name_refs[backend]),
            Arc::clone(&error),
        );
    }
}

/// Runs one batch through the report cache: hits answer immediately,
/// in-flight keys merge, misses become sharded work tasks.
fn dispatch(
    inner: &ServiceInner,
    senders: &[mpsc::SyncSender<Vec<WorkTask>>],
    batch: Vec<QueuedItem>,
) {
    // Deadline-aware shedding, decided here — the last moment before the
    // batch commits to backend work.  A member that already overstayed its
    // class's budget would blow its SLO anyway; failing it fast keeps the
    // queues short, which is what protects the members still inside
    // budget.  Classes without a budget never shed on age.
    let now = Instant::now();
    let (batch, aged): (Vec<_>, Vec<_>) = batch.into_iter().partition(|item| {
        match inner.config.class_budgets[item.priority.index()] {
            Some(budget) => now.saturating_duration_since(item.enqueued_at) <= budget,
            None => true,
        }
    });
    for item in aged {
        let age = now.saturating_duration_since(item.enqueued_at);
        shed_aged(inner, item, age);
    }
    if batch.is_empty() {
        return;
    }
    inner.counters.batches.fetch_add(1, Ordering::Relaxed);
    inner
        .counters
        .batched_requests
        .fetch_add(batch.len() as u64, Ordering::Relaxed);
    let mut per_backend: Vec<Vec<WorkTask>> =
        (0..inner.backends.len()).map(|_| Vec::new()).collect();
    // One cache transaction (one lock acquisition) covers the whole batch —
    // the per-report synchronisation cost shrinks with batch size, which is
    // what micro-batching is for.  Hits are recorded and fulfilled after the
    // lock drops so responses are never sent while holding the cache.
    let mut hits: Vec<(Arc<RequestState>, usize, usize, CachedResult)> = Vec::new();
    let (mut hit_count, mut merged_count, mut miss_count) = (0u64, 0u64, 0u64);
    {
        let mut txn = inner.cache.begin();
        for item in &batch {
            for &(slot, backend) in &item.targets {
                let waiter = Waiter {
                    state: Arc::clone(&item.state),
                    slot,
                };
                match txn.lookup_or_reserve(backend, &item.spec, waiter) {
                    Lookup::Ready(result) => {
                        hit_count += 1;
                        hits.push((Arc::clone(&item.state), slot, backend, result));
                    }
                    Lookup::Merged => merged_count += 1,
                    Lookup::Reserved => {
                        miss_count += 1;
                        per_backend[backend].push(WorkTask {
                            spec: Arc::clone(&item.spec),
                            backend,
                        });
                    }
                }
            }
        }
    }
    inner
        .counters
        .cache_hits
        .fetch_add(hit_count, Ordering::Relaxed);
    inner
        .counters
        .inflight_merged
        .fetch_add(merged_count, Ordering::Relaxed);
    inner
        .counters
        .cache_misses
        .fetch_add(miss_count, Ordering::Relaxed);
    for (state, slot, backend, result) in hits {
        fulfill(
            inner,
            &state,
            slot,
            Arc::clone(&inner.name_refs[backend]),
            result,
        );
    }
    let workers = inner.config.workers_per_backend.max(1);
    for (backend, tasks) in per_backend.into_iter().enumerate() {
        if tasks.is_empty() {
            continue;
        }
        // Split this backend's share of the batch across its worker pool so
        // one worker never serialises a whole batch — by cost, when the
        // backend's specs differ in cost (a grid whose expensive specs sit
        // side by side would otherwise load one worker with all of them).
        let costs: Vec<u64> = tasks
            .iter()
            .map(|task| inner.backends[backend].cost_hint(&task.spec))
            .collect();
        let mut tasks: Vec<Option<WorkTask>> = tasks.into_iter().map(Some).collect();
        for group in balanced_groups(&costs, workers) {
            let chunk = group
                .into_iter()
                .map(|i| tasks[i].take().expect("each task joins one group"))
                .collect();
            // Counted before the send, so the receiving worker's decrement
            // can never run first.
            inner.loads[backend]
                .in_flight
                .fetch_add(1, Ordering::AcqRel);
            let _ = senders[backend].send(chunk);
        }
    }
}

/// Bound on work chunks one worker gathers into a single
/// [`Backend::evaluate_chunks`] call, so draining a deep queue can never
/// starve the other workers of this backend or defer the first chunk's
/// results indefinitely.  Sized so one worker's share of a deep client
/// batch (a 2048-spec burst split two ways into 64-spec chunks) crosses
/// the wire as a single exchange — each extra exchange costs a full
/// transport wake-up round trip.
const MAX_COALESCED_CHUNKS: usize = 32;

/// One worker thread of a backend shard: drains work, evaluates with panic
/// isolation, publishes through the cache.
///
/// Each received chunk (this worker's share of one micro-batch) goes
/// through [`Backend::evaluate_many`] as a unit: in-process backends loop
/// per spec (the trait default), remote backends pipeline the whole chunk
/// as one wire exchange — so micro-batches formed by the batcher cross a
/// process boundary intact instead of unravelling into per-spec round
/// trips.  Once the chunks are answered the worker retires them from its
/// backend's [`WorkerLoad`].
fn worker_loop(
    inner: &ServiceInner,
    backend_idx: usize,
    rx: &Mutex<mpsc::Receiver<Vec<WorkTask>>>,
) {
    let backend = Arc::clone(&inner.backends[backend_idx]);
    // Remote backends amortise a wire round trip across every chunk waiting
    // in the queue; in-process backends keep the chunk-at-a-time cadence.
    let coalesce = backend.coalesces_chunks();
    loop {
        // Hold the queue lock only while receiving, never while evaluating.
        let mut chunks: Vec<Vec<WorkTask>> = Vec::new();
        {
            let queue = rx.lock().expect("worker queue lock");
            match queue.recv() {
                Ok(tasks) => chunks.push(tasks),
                Err(_) => break,
            }
            if coalesce {
                while chunks.len() < MAX_COALESCED_CHUNKS {
                    match queue.try_recv() {
                        Ok(tasks) => chunks.push(tasks),
                        Err(_) => break,
                    }
                }
            }
        }
        let received = chunks.len();
        chunks.retain(|tasks| !tasks.is_empty());
        if chunks.is_empty() {
            finish_chunks(inner, backend_idx, received);
            continue;
        }
        // `Backend::evaluate_chunks` takes contiguous spec slices, so the
        // miss path clones the specs out of their Arcs here — the one
        // remaining deep copy, paid only when an actual evaluation runs
        // (hits and merges never reach this point).
        let spec_lists: Vec<Vec<WorkloadSpec>> = chunks
            .iter()
            .map(|tasks| tasks.iter().map(|task| (*task.spec).clone()).collect())
            .collect();
        // The shared form hands through the `Arc`s a remote backend's wire
        // decoder produced, so the cache below stores them without a
        // per-report unwrap-and-re-box.
        let mut chunk_results = catch_unwind(AssertUnwindSafe(|| {
            backend.evaluate_chunks_shared(&spec_lists)
        }))
        .unwrap_or_else(|_| {
            // A panic mid-call aborted the remaining specs along with
            // the offender.  Backends are deterministic, so re-run
            // per spec with individual isolation: innocent specs get
            // their real results and the panic is attributed to
            // exactly the spec(s) that caused it.
            spec_lists
                .iter()
                .map(|specs| {
                    specs
                        .iter()
                        .map(|spec| {
                            Arc::new(
                                catch_unwind(AssertUnwindSafe(|| backend.evaluate(spec)))
                                    .unwrap_or_else(|payload| {
                                        Err(EvalError::Panicked {
                                            backend: backend.name().to_string(),
                                            workload: spec.name(),
                                            reason: panic_message(payload.as_ref()),
                                        })
                                    }),
                            )
                        })
                        .collect()
                })
                .collect()
        })
        .into_iter();
        for tasks in chunks {
            // Guard against a misbehaving `evaluate_chunks` override: a
            // short result list must fail its slots, never strand waiters.
            let mut results = chunk_results.next().unwrap_or_default().into_iter();
            for task in tasks {
                let result = results.next().unwrap_or_else(|| {
                    Arc::new(Err(EvalError::Remote {
                        message: "backend returned fewer results than workloads".to_string(),
                    }))
                });
                inner.counters.evaluations.fetch_add(1, Ordering::Relaxed);
                let shard = &inner.counters.per_shard[task.backend];
                shard.evaluations.fetch_add(1, Ordering::Relaxed);
                if result.is_err() {
                    inner.counters.eval_errors.fetch_add(1, Ordering::Relaxed);
                    shard.errors.fetch_add(1, Ordering::Relaxed);
                }
                let (result, waiters, evicted) =
                    inner
                        .cache
                        .complete_shared(task.backend, &task.spec, result);
                if evicted > 0 {
                    inner
                        .counters
                        .evictions
                        .fetch_add(evicted, Ordering::Relaxed);
                }
                for waiter in waiters {
                    fulfill(
                        inner,
                        &waiter.state,
                        waiter.slot,
                        Arc::clone(&inner.name_refs[task.backend]),
                        Arc::clone(&result),
                    );
                }
            }
        }
        finish_chunks(inner, backend_idx, received);
    }
}

/// Retires `count` chunks a worker of `backend` has answered, waking the
/// batcher if that frees a worker of a saturated pool.
fn finish_chunks(inner: &ServiceInner, backend: usize, count: usize) {
    let load = &inner.loads[backend];
    let before = load.in_flight.fetch_sub(count, Ordering::AcqRel);
    // The batcher only waits while every backend its batch targets is
    // saturated, and only it raises the counts, so the one decrement that
    // can end such a wait is the one leaving saturation.  The notify runs
    // under the `pending` lock: the batcher checks capacity under that lock
    // too, so the wake-up cannot fall between its check and its wait.
    if before >= load.workers && before - count < load.workers {
        let _pending = inner.pending.lock().expect("pending lock");
        inner.pending_cv.notify_all();
    }
}

/// Why a [`ShardRouter`] could not assemble its service.
#[derive(Debug)]
pub enum RouterError {
    /// Two pools (local or remote) advertise the same backend name; the
    /// `BackendSelector::Named` path routes by name, so the mix would be
    /// ambiguous.
    DuplicateBackend(String),
    /// Connecting to a remote shard server failed.
    Connect {
        /// The shard address that failed.
        addr: String,
        /// The transport failure.
        source: crate::wire::WireError,
    },
    /// A topology's `local` entry names no known evaluation-layer backend.
    UnknownBackend {
        /// The name that resolved to nothing.
        name: String,
        /// The names that would have resolved.
        available: Vec<String>,
    },
}

impl std::fmt::Display for RouterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouterError::DuplicateBackend(name) => {
                write!(f, "duplicate backend shard name `{name}`")
            }
            RouterError::Connect { addr, source } => {
                write!(f, "connecting to shard server {addr} failed: {source}")
            }
            RouterError::UnknownBackend { name, available } => {
                write!(
                    f,
                    "unknown local backend `{name}` (available: {})",
                    available.join(", ")
                )
            }
        }
    }
}

impl std::error::Error for RouterError {}

/// Assembles an [`EvalService`] whose backend shards mix in-process pools
/// and remote shard servers.
///
/// Local backends register directly; [`remote`](Self::remote) performs the
/// `hello` handshake against a shard server and registers one
/// [`RemoteBackend`](crate::remote::RemoteBackend) per backend the server
/// hosts, in the server's registration order.  Because a remote shard is
/// just another [`Backend`], the built service batches, caches and
/// deduplicates across the mix transparently; per-shard activity (including
/// transport failures, which count as that shard's errors) is surfaced in
/// [`ServiceStats::per_shard`](crate::ServiceStats::per_shard).
///
/// Shard names must be unique across the mix — named routing would
/// otherwise be ambiguous — so [`build`](Self::build) rejects duplicates.
pub struct ShardRouter {
    backends: Vec<Box<dyn Backend>>,
    weights: Vec<usize>,
    pools: Vec<Arc<ConnectionPool>>,
    config: ServiceConfig,
}

impl Default for ShardRouter {
    fn default() -> Self {
        Self::new()
    }
}

impl ShardRouter {
    /// An empty router with the default [`ServiceConfig`].
    pub fn new() -> Self {
        Self::with_config(ServiceConfig::default())
    }

    /// An empty router with explicit service tuning knobs.
    pub fn with_config(config: ServiceConfig) -> Self {
        Self {
            backends: Vec::new(),
            weights: Vec::new(),
            pools: Vec::new(),
            config,
        }
    }

    /// A router assembled from a deployment [`Topology`]: every `local`
    /// entry resolved against [`rsn_eval::default_backends`], every
    /// `remotes` entry autodiscovered via the `hello` handshake (with its
    /// declared worker weight and pool bound), and the topology's service
    /// tuning applied.  Call [`build`](Self::build) on the result.
    pub fn from_topology(topology: &Topology) -> Result<Self, RouterError> {
        Self::from_topology_with(
            topology,
            Evaluator::empty().with_backends(rsn_eval::default_backends()),
        )
    }

    /// [`from_topology`](Self::from_topology) with an explicit catalogue
    /// of resolvable local backends: `local` entries are taken from
    /// `catalogue` by name (each at most once).  Table binaries pass their
    /// own backend sets (ablation variants and GPU rows that are not in
    /// the default catalogue), so one topology format drives every
    /// process.
    pub fn from_topology_with(
        topology: &Topology,
        catalogue: Evaluator,
    ) -> Result<Self, RouterError> {
        let mut router = Self::with_config(topology.service.clone());
        let mut available = Vec::new();
        let mut catalogue: Vec<Option<Box<dyn Backend>>> = catalogue
            .into_backends()
            .into_iter()
            .map(|backend| {
                available.push(backend.name().to_string());
                Some(backend)
            })
            .collect();
        for name in &topology.local {
            let slot = available
                .iter()
                .position(|n| n == name)
                .and_then(|idx| catalogue[idx].take());
            match slot {
                Some(backend) => router = router.local(backend),
                None if available.contains(name) => {
                    // Taken twice: surface as the duplicate it would
                    // become at build time, with the clearer error now.
                    return Err(RouterError::DuplicateBackend(name.clone()));
                }
                None => {
                    return Err(RouterError::UnknownBackend {
                        name: name.clone(),
                        available,
                    });
                }
            }
        }
        for decl in &topology.remotes {
            let remote_config = crate::topology::remote_config_for(topology, &decl.addr);
            router = router.remote_with(&decl.addr, remote_config, decl.weight)?;
        }
        Ok(router)
    }

    /// Adds one in-process backend pool.
    pub fn local(mut self, backend: Box<dyn Backend>) -> Self {
        self.backends.push(backend);
        self.weights.push(1);
        self
    }

    /// Adds every backend of an [`Evaluator`] as in-process pools.
    pub fn local_evaluator(mut self, evaluator: Evaluator) -> Self {
        for backend in evaluator.into_backends() {
            self.backends.push(backend);
            self.weights.push(1);
        }
        self
    }

    /// Connects to a shard server and adds one remote pool per backend it
    /// hosts (in the server's registration order), with the router's
    /// configured transport tuning and weight 1.
    pub fn remote(self, addr: &str) -> Result<Self, RouterError> {
        let remote_config = self.config.remote.clone();
        self.remote_with(addr, remote_config, 1)
    }

    /// [`remote`](Self::remote) with explicit transport tuning and a
    /// client-side worker weight: the shard's backends each get
    /// `workers_per_backend × weight` worker threads in the built service.
    pub fn remote_with(
        mut self,
        addr: &str,
        remote_config: RemoteConfig,
        weight: usize,
    ) -> Result<Self, RouterError> {
        let remotes = crate::remote::RemoteBackend::connect_all_with(addr, remote_config).map_err(
            |source| RouterError::Connect {
                addr: addr.to_string(),
                source,
            },
        )?;
        if let Some(first) = remotes.first() {
            self.pools.push(Arc::clone(first.pool()));
        }
        for remote in remotes {
            self.backends.push(Box::new(remote));
            self.weights.push(weight.max(1));
        }
        Ok(self)
    }

    /// Backend shard names registered so far, in routing order.
    pub fn backend_names(&self) -> Vec<String> {
        self.backends.iter().map(|b| b.name().to_string()).collect()
    }

    /// Builds the service, rejecting duplicate shard names.  Every shard
    /// address's connection pool is registered with the service, so
    /// [`EvalService::stats`] surfaces transport counters per pool.
    pub fn build(self) -> Result<EvalService, RouterError> {
        let mut seen = std::collections::HashSet::new();
        for backend in &self.backends {
            if !seen.insert(backend.name().to_string()) {
                return Err(RouterError::DuplicateBackend(backend.name().to_string()));
            }
        }
        let mut evaluator = Evaluator::empty();
        for backend in self.backends {
            evaluator.register(backend);
        }
        let service = EvalService::with_weighted_config(evaluator, self.config, &self.weights);
        for pool in self.pools {
            service.register_pool(pool);
        }
        Ok(service)
    }
}

/// Best-effort extraction of a panic payload message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Priority;
    use rsn_eval::EvalReport;
    use std::time::Duration;

    /// A deterministic test backend: answers `SquareGemm { n }` with latency
    /// `n` nanoseconds and fails everything else.
    struct SquareOnly {
        name: &'static str,
    }

    impl Backend for SquareOnly {
        fn name(&self) -> &str {
            self.name
        }
        fn supports(&self, w: &WorkloadSpec) -> bool {
            matches!(w, WorkloadSpec::SquareGemm { .. })
        }
        fn evaluate(&self, w: &WorkloadSpec) -> Result<EvalReport, EvalError> {
            match w {
                WorkloadSpec::SquareGemm { n } => {
                    let mut report = EvalReport::new(self.name, w.name());
                    report.latency_s = Some(*n as f64 * 1e-9);
                    Ok(report)
                }
                _ => Err(EvalError::Unsupported {
                    backend: self.name.to_string(),
                    workload: w.name(),
                }),
            }
        }
    }

    fn two_shard_service() -> EvalService {
        EvalService::new(
            Evaluator::empty()
                .with_backend(Box::new(SquareOnly { name: "alpha" }))
                .with_backend(Box::new(SquareOnly { name: "beta" })),
        )
    }

    #[test]
    fn all_selector_answers_in_registration_order() {
        let service = two_shard_service();
        let response = service
            .submit(EvalRequest::all(WorkloadSpec::SquareGemm { n: 64 }))
            .wait();
        let names: Vec<&str> = response.results.iter().map(|(n, _)| n.as_ref()).collect();
        assert_eq!(names, ["alpha", "beta"]);
        assert!(response.results.iter().all(|(_, r)| r.is_ok()));
    }

    #[test]
    fn named_selector_preserves_order_and_flags_unknowns() {
        let service = two_shard_service();
        let response = service
            .submit(EvalRequest::named(
                WorkloadSpec::SquareGemm { n: 32 },
                vec![
                    "beta".to_string(),
                    "missing".to_string(),
                    "alpha".to_string(),
                ],
            ))
            .wait();
        assert_eq!(response.results.len(), 3);
        assert_eq!(response.results[0].0.as_ref(), "beta");
        assert!(response.results[0].1.is_ok());
        assert!(matches!(
            *response.results[1].1,
            Err(EvalError::Unsupported { .. })
        ));
        assert_eq!(response.results[2].0.as_ref(), "alpha");
    }

    #[test]
    fn empty_selection_answers_immediately() {
        let service = two_shard_service();
        let response = service
            .submit(EvalRequest::named(
                WorkloadSpec::SquareGemm { n: 8 },
                Vec::new(),
            ))
            .wait();
        assert!(response.results.is_empty());
        assert_eq!(service.stats().completed, 1);
    }

    #[test]
    fn identical_specs_deduplicate_through_the_cache() {
        let service = two_shard_service();
        let first = service.evaluate(&WorkloadSpec::SquareGemm { n: 128 });
        let second = service.evaluate(&WorkloadSpec::SquareGemm { n: 128 });
        assert_eq!(first, second);
        let stats = service.stats();
        // Two backends: the first evaluation misses twice, the repeat is
        // served from the cache (hit or in-flight merge, depending on how
        // the two submissions were batched).
        assert_eq!(stats.cache_misses, 2);
        assert_eq!(stats.cache_hits + stats.inflight_merged, 2);
        assert_eq!(stats.evaluations, 2);
        assert_eq!(service.cache_len(), 2);
    }

    #[test]
    fn batch_submission_is_spec_major_and_deduplicated() {
        let service = two_shard_service();
        let specs = vec![
            WorkloadSpec::SquareGemm { n: 16 },
            WorkloadSpec::SquareGemm { n: 32 },
            WorkloadSpec::SquareGemm { n: 16 }, // duplicate of the first
        ];
        let response = service
            .submit_batch(specs.clone(), BackendSelector::All, Priority::Normal)
            .wait();
        // Spec-major: [s0·alpha, s0·beta, s1·alpha, s1·beta, s2·alpha, ...].
        assert_eq!(response.results.len(), 6);
        for (i, (name, result)) in response.results.iter().enumerate() {
            assert_eq!(name.as_ref(), if i % 2 == 0 { "alpha" } else { "beta" });
            let expected_n = match specs[i / 2] {
                WorkloadSpec::SquareGemm { n } => n,
                _ => unreachable!(),
            };
            let report = result.as_ref().as_ref().expect("square gemm evaluates");
            assert_eq!(report.latency_s, Some(expected_n as f64 * 1e-9));
        }
        // The duplicated member shares its backend answers with the first.
        assert!(Arc::ptr_eq(&response.results[0].1, &response.results[4].1));
        let stats = service.stats();
        assert_eq!(stats.submitted, 1);
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.evaluations, 4); // 2 distinct specs × 2 backends
        assert_eq!(stats.cache_hits + stats.inflight_merged, 2);
    }

    #[test]
    fn synchronous_bursts_skip_the_batch_deadline() {
        // With a pathologically long deadline, a lone evaluate() must still
        // return promptly: an idle worker takes a burst at once.
        let service = EvalService::with_config(
            Evaluator::empty().with_backend(Box::new(SquareOnly { name: "alpha" })),
            ServiceConfig {
                max_batch: 16,
                batch_deadline: Duration::from_secs(30),
                workers_per_backend: 1,
                ..ServiceConfig::default()
            },
        );
        let start = std::time::Instant::now();
        let results = service.evaluate(&WorkloadSpec::SquareGemm { n: 9 });
        assert_eq!(results.len(), 1);
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "evaluate() waited out the batch deadline"
        );
    }

    #[test]
    fn lone_streamed_submit_skips_the_batch_deadline() {
        // Nothing is outstanding, so there is nothing to coalesce behind: a
        // single submit dispatches at once instead of waiting 30 s for
        // stragglers.
        let service = EvalService::with_config(
            Evaluator::empty().with_backend(Box::new(SquareOnly { name: "alpha" })),
            ServiceConfig {
                max_batch: 16,
                batch_deadline: Duration::from_secs(30),
                workers_per_backend: 1,
                ..ServiceConfig::default()
            },
        );
        let response = service
            .submit(EvalRequest::all(WorkloadSpec::SquareGemm { n: 9 }))
            .wait_timeout(Duration::from_secs(1))
            .expect("a lone submit waited out the batch deadline");
        assert!(response.results[0].1.is_ok());
    }

    /// A backend whose `SquareGemm { n: 0 }` blocks until the test opens
    /// the gate, announcing on `entered` that it has started.
    struct Gated {
        open: Arc<(Mutex<bool>, std::sync::Condvar)>,
        entered: Mutex<mpsc::Sender<()>>,
    }

    impl Backend for Gated {
        fn name(&self) -> &str {
            "gated"
        }
        fn supports(&self, w: &WorkloadSpec) -> bool {
            matches!(w, WorkloadSpec::SquareGemm { .. })
        }
        fn evaluate(&self, w: &WorkloadSpec) -> Result<EvalReport, EvalError> {
            if *w == (WorkloadSpec::SquareGemm { n: 0 }) {
                let _ = self.entered.lock().expect("entered lock").send(());
                let (open, cv) = &*self.open;
                let _open = cv
                    .wait_timeout_while(
                        open.lock().expect("gate lock"),
                        Duration::from_secs(30),
                        |open| !*open,
                    )
                    .expect("gate lock");
            }
            Ok(EvalReport::new("gated", w.name()))
        }
    }

    #[test]
    fn submits_coalesce_while_every_worker_is_busy() {
        let open = Arc::new((Mutex::new(false), std::sync::Condvar::new()));
        let (entered_tx, entered) = mpsc::channel();
        let service = EvalService::with_config(
            Evaluator::empty().with_backend(Box::new(Gated {
                open: Arc::clone(&open),
                entered: Mutex::new(entered_tx),
            })),
            ServiceConfig {
                max_batch: 16,
                batch_deadline: Duration::from_secs(30),
                workers_per_backend: 1,
                ..ServiceConfig::default()
            },
        );
        // The first submit finds the lone worker idle and occupies it.
        let blocker = service.submit(EvalRequest::all(WorkloadSpec::SquareGemm { n: 0 }));
        entered
            .recv_timeout(Duration::from_secs(30))
            .expect("the first submit reached the backend");
        // Every worker is busy now, so these are held and coalesce...
        let held: Vec<ResponseHandle> = (1..=3)
            .map(|n| service.submit(EvalRequest::all(WorkloadSpec::SquareGemm { n })))
            .collect();
        // ...until the worker frees up, when they dispatch as one batch.
        *open.0.lock().expect("gate lock") = true;
        open.1.notify_all();
        for handle in std::iter::once(blocker).chain(held) {
            let response = handle
                .wait_timeout(Duration::from_secs(10))
                .expect("a freed worker must wake the batcher");
            assert!(response.results[0].1.is_ok());
        }
        let stats = service.stats();
        assert_eq!(stats.batches, 2);
        assert_eq!(stats.batched_requests, 4);
    }

    #[test]
    fn empty_batch_answers_immediately() {
        let service = two_shard_service();
        let response = service
            .submit_batch(Vec::new(), BackendSelector::All, Priority::Normal)
            .wait();
        assert!(response.results.is_empty());
        assert_eq!(service.stats().completed, 1);
    }

    #[test]
    fn priorities_drain_urgent_first() {
        // One queue inspection: park requests behind a saturated batcher by
        // submitting them before any worker can drain (batch deadline is
        // generous), then check the queue pop order directly.
        let mut queues = PendingQueues::default();
        for (priority, tag) in [
            (Priority::Low, 0usize),
            (Priority::Normal, 1),
            (Priority::High, 2),
        ] {
            queues.queues[priority.index()].push_back(QueuedItem {
                spec: Arc::new(WorkloadSpec::SquareGemm { n: tag }),
                targets: Vec::new(),
                state: Arc::new(RequestState {
                    slots: Mutex::new(Vec::new()),
                    remaining: AtomicUsize::new(0),
                    tx: Mutex::new(None),
                    enqueued_at: Instant::now(),
                    priority,
                    shed: AtomicBool::new(false),
                }),
                enqueued_at: Instant::now(),
                priority,
            });
        }
        let order: Vec<WorkloadSpec> = std::iter::from_fn(|| queues.pop())
            .map(|item| (*item.spec).clone())
            .collect();
        assert_eq!(
            order,
            vec![
                WorkloadSpec::SquareGemm { n: 2 },
                WorkloadSpec::SquareGemm { n: 1 },
                WorkloadSpec::SquareGemm { n: 0 },
            ]
        );
    }

    #[test]
    fn capped_cache_stays_bounded_under_spec_churn() {
        // A never-repeating spec stream: with an unbounded cache this grows
        // one entry per spec; with a capacity it must plateau and count
        // every displaced entry.
        let capacity = 8usize;
        let service = EvalService::with_config(
            Evaluator::empty().with_backend(Box::new(SquareOnly { name: "alpha" })),
            ServiceConfig {
                cache_capacity: Some(capacity),
                ..ServiceConfig::default()
            },
        );
        let churn = 100usize;
        for n in 0..churn {
            let results = service.evaluate(&WorkloadSpec::SquareGemm { n });
            assert!(results[0].is_ok());
            assert!(
                service.cache_len() <= capacity,
                "cache grew past its capacity: {} > {capacity}",
                service.cache_len()
            );
        }
        let stats = service.stats();
        assert_eq!(stats.evaluations, churn as u64);
        assert_eq!(stats.evictions, (churn - capacity) as u64);
        // The surviving tail is still served from the cache.
        let before = service.stats().cache_hits + service.stats().inflight_merged;
        service.evaluate(&WorkloadSpec::SquareGemm { n: churn - 1 });
        let after = service.stats().cache_hits + service.stats().inflight_merged;
        assert_eq!(after, before + 1);
    }

    #[test]
    fn per_shard_counters_attribute_work_and_errors() {
        let service = two_shard_service();
        // Supported: both shards evaluate.  Unsupported: both shards error.
        service.evaluate(&WorkloadSpec::SquareGemm { n: 4 });
        service.evaluate(&WorkloadSpec::PowerBreakdown);
        let stats = service.stats();
        assert_eq!(stats.per_shard.len(), 2);
        for name in ["alpha", "beta"] {
            let shard = stats.shard(name).expect("registered shard");
            assert_eq!(shard.evaluations, 2);
            assert_eq!(shard.errors, 1);
        }
        assert_eq!(stats.evaluations, 4);
        assert_eq!(stats.eval_errors, 2);
    }

    #[test]
    fn router_rejects_duplicate_shard_names() {
        let router = ShardRouter::new()
            .local(Box::new(SquareOnly { name: "alpha" }))
            .local(Box::new(SquareOnly { name: "alpha" }));
        match router.build() {
            Err(RouterError::DuplicateBackend(name)) => assert_eq!(name, "alpha"),
            Err(other) => panic!("unexpected router error: {other}"),
            Ok(_) => panic!("expected duplicate-name rejection"),
        }
        let service = ShardRouter::new()
            .local(Box::new(SquareOnly { name: "alpha" }))
            .local(Box::new(SquareOnly { name: "beta" }))
            .build()
            .expect("distinct names build");
        assert_eq!(service.backend_names(), ["alpha", "beta"]);
    }

    #[test]
    fn service_batches_under_load() {
        let service = EvalService::with_config(
            Evaluator::empty().with_backend(Box::new(SquareOnly { name: "alpha" })),
            ServiceConfig {
                max_batch: 8,
                batch_deadline: Duration::from_millis(5),
                workers_per_backend: 2,
                ..ServiceConfig::default()
            },
        );
        let handles: Vec<ResponseHandle> = (0..32)
            .map(|i| service.submit(EvalRequest::all(WorkloadSpec::SquareGemm { n: i })))
            .collect();
        for handle in handles {
            assert_eq!(handle.wait().results.len(), 1);
        }
        let stats = service.stats();
        assert_eq!(stats.submitted, 32);
        assert_eq!(stats.completed, 32);
        assert!(stats.batches <= 32);
        assert_eq!(stats.batched_requests, 32);
        assert!(stats.mean_batch_size() >= 1.0);
    }

    #[test]
    fn served_sojourns_land_in_the_class_histograms() {
        let service = two_shard_service();
        for n in 0..4 {
            let response = service
                .submit(
                    EvalRequest::all(WorkloadSpec::SquareGemm { n }).with_priority(Priority::High),
                )
                .wait();
            assert_eq!(response.results.len(), 2);
        }
        let stats = service.stats();
        let high = stats.class(Priority::High).expect("high class present");
        assert_eq!(high.latency.count, 4);
        assert!(high.latency.p99().is_some());
        assert_eq!(high.shed(), 0);
        // Nothing ran in the other classes.
        assert_eq!(stats.class(Priority::Low).expect("low").latency.count, 0);
        assert_eq!(stats.shed(), 0);
    }

    #[test]
    fn aged_out_requests_shed_with_overloaded_exactly_once() {
        // A zero budget for Low sheds every Low request at dispatch (its
        // queue age is always positive by then), while Normal requests,
        // budgetless, are served — the per-class isolation the budgets are
        // for.  Shed or served, every submission is answered exactly once.
        let service = EvalService::with_config(
            Evaluator::empty().with_backend(Box::new(SquareOnly { name: "alpha" })),
            ServiceConfig {
                class_budgets: [None, None, Some(Duration::ZERO)],
                ..ServiceConfig::default()
            },
        );
        let total = 16usize;
        let handles: Vec<ResponseHandle> = (0..total)
            .map(|n| {
                service.submit(
                    EvalRequest::all(WorkloadSpec::SquareGemm { n }).with_priority(if n % 2 == 0 {
                        Priority::Low
                    } else {
                        Priority::Normal
                    }),
                )
            })
            .collect();
        for (n, handle) in handles.into_iter().enumerate() {
            let response = handle.wait();
            assert_eq!(response.results.len(), 1);
            let result = response.results[0].1.as_ref();
            if n % 2 == 0 {
                match result {
                    Err(EvalError::Overloaded { class, .. }) => assert_eq!(class, "low"),
                    other => panic!("expected an overloaded fast-fail, got {other:?}"),
                }
            } else {
                assert!(result.is_ok(), "budgetless class must be served");
            }
        }
        let stats = service.stats();
        assert_eq!(stats.completed, total as u64);
        let low = stats.class(Priority::Low).expect("low class present");
        assert_eq!(low.shed_deadline, (total / 2) as u64);
        // Shed sojourns stay out of the latency histogram.
        assert_eq!(low.latency.count, 0);
        assert_eq!(
            stats.class(Priority::Normal).expect("normal").latency.count,
            (total / 2) as u64
        );
        // Shed requests never reach a backend.
        assert_eq!(stats.evaluations, (total / 2) as u64);
    }

    #[test]
    fn queue_capacity_gate_refuses_bursts_whole() {
        // Capacity zero refuses every admission — the deterministic
        // extreme of the memory bound under open-loop overload.
        let service = EvalService::with_config(
            Evaluator::empty().with_backend(Box::new(SquareOnly { name: "alpha" })),
            ServiceConfig {
                queue_capacity: Some(0),
                ..ServiceConfig::default()
            },
        );
        let specs = vec![
            WorkloadSpec::SquareGemm { n: 1 },
            WorkloadSpec::SquareGemm { n: 2 },
        ];
        let response = service
            .submit_batch(specs, BackendSelector::All, Priority::Normal)
            .wait();
        assert_eq!(response.results.len(), 2);
        for (_, result) in &response.results {
            match result.as_ref() {
                Err(EvalError::Overloaded { class, reason }) => {
                    assert_eq!(class, "normal");
                    assert!(reason.contains("capacity"), "reason: {reason}");
                }
                other => panic!("expected an overloaded refusal, got {other:?}"),
            }
        }
        let stats = service.stats();
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.class(Priority::Normal).expect("normal").shed_queue, 2);
        assert_eq!(stats.evaluations, 0);
        // Refused sojourns stay out of the histogram too.
        assert_eq!(
            stats.class(Priority::Normal).expect("normal").latency.count,
            0
        );
    }
}
