//! # rsn-serve
//!
//! The batched evaluation service of the RSN reproduction: a
//! request/response front end over the unified evaluation layer
//! (`crates/eval`), built for serving many concurrent scenario mixes rather
//! than regenerating one fixed table grid.
//!
//! ```text
//! EvalRequest { spec, backends, priority }
//!        │ submit()
//!        ▼
//!  priority queues ──► micro-batcher (work-conserving; size- and
//!                      deadline-bounded while every worker is busy)
//!                              │
//!                              ▼
//!                 report cache (WorkloadSpec → EvalReport)
//!                  hit ╱        merge │            ╲ miss
//!        answered now    joins in-flight eval    per-backend work queues
//!                                                       │
//!                                        sharded worker pools (one per
//!                                        backend, long-running threads)
//! ```
//!
//! * [`EvalService`] owns the backends (moved out of an
//!   [`Evaluator`](rsn_eval::Evaluator)) and answers every accepted request
//!   exactly once;
//! * [`ServiceConfig`] bounds the micro-batcher's coalescing under load
//!   (batch size, deadline) and sizes the per-backend worker pools;
//! * identical in-flight `(backend, spec)` pairs are deduplicated through
//!   the report cache — callers of a deduplicated key receive clones of the
//!   same [`EvalReport`](rsn_eval::EvalReport), and
//!   [`ServiceStats`] exposes hit/miss/in-flight-merge counters;
//! * a panicking or erroring backend fails only requests that selected it:
//!   worker pools are per-backend shards with panic isolation
//!   ([`EvalError::Panicked`](rsn_eval::EvalError));
//! * [`json`] is the offline-friendly emitter for reports, grids and stats
//!   (the workspace `serde` is a no-op stand-in, so this is the real wire
//!   format until the registry is reachable); [`binary`] is its compact
//!   sibling for the shard wire — allocation-free encoding into reusable
//!   scratch buffers, used once a connection's hello succeeds (see
//!   [`wire`]).
//!
//! ## Synchronous use
//!
//! Table binaries keep their `Evaluator::evaluate_grid` shape:
//!
//! ```
//! use rsn_eval::{Evaluator, WorkloadSpec, XnnAnalyticBackend};
//! use rsn_serve::EvalService;
//!
//! let service = EvalService::new(
//!     Evaluator::empty().with_backend(Box::new(XnnAnalyticBackend::new())),
//! );
//! let grid = service.evaluate_grid(&[
//!     WorkloadSpec::SquareGemm { n: 512 },
//!     WorkloadSpec::SquareGemm { n: 1024 },
//! ]);
//! assert_eq!(grid.len(), 1); // [backend][workload]
//! assert!(grid[0][0].as_ref().unwrap().is_finite_nonzero());
//! println!(
//!     "{}",
//!     rsn_serve::json::stats_json(&service.stats()).to_pretty()
//! );
//! ```
//!
//! ## Asynchronous use
//!
//! ```
//! use rsn_eval::{Evaluator, WorkloadSpec, XnnAnalyticBackend};
//! use rsn_serve::{EvalRequest, EvalService, Priority};
//!
//! let service = EvalService::new(
//!     Evaluator::empty().with_backend(Box::new(XnnAnalyticBackend::new())),
//! );
//! let handle = service.submit(
//!     EvalRequest::all(WorkloadSpec::SquareGemm { n: 256 }).with_priority(Priority::High),
//! );
//! // ... submit more requests; they coalesce into micro-batches ...
//! let response = handle.wait();
//! assert_eq!(response.results.len(), 1);
//! ```

//! ## Cross-process shards
//!
//! [`remote`] scales the service past one process: a
//! [`ShardServer`] hosts an `EvalService`'s worker
//! pools behind a TCP listener speaking the length-prefixed JSON protocol
//! of [`wire`], and a [`RemoteBackend`] implements
//! [`Backend`](rsn_eval::Backend) over that protocol, so remote pools slot
//! into an [`EvalService`] (or a bare `Evaluator`) exactly like local ones.
//! [`ShardRouter`] assembles mixed local/remote services and rejects
//! ambiguous (duplicate-name) mixes; `ServiceStats::per_shard` attributes
//! work and failures to each shard.  Evaluation is deterministic wherever
//! it runs, so grids and rendered tables are byte-identical either way —
//! the loopback integration tests pin this.

pub mod binary;
mod cache;
pub mod config;
mod fnv;
pub mod json;
pub mod pool;
pub mod reactor;
pub mod remote;
pub mod request;
pub mod service;
pub mod shm;
pub mod stats;
pub mod topology;
pub mod wire;

pub use config::{EncodingPolicy, FrontendPolicy, RemoteConfig, ServiceConfig, TransportPolicy};
pub use pool::ConnectionPool;
pub use remote::{RemoteBackend, ShardServer};
pub use request::{BackendSelector, EvalRequest, EvalResponse, Priority, ResponseHandle};
pub use service::{EvalService, RouterError, ShardRouter};
pub use stats::{ClassStats, LatencyHistogram, PoolStats, ServiceStats, ShardStats};
pub use topology::{RemoteShardDecl, Topology, TopologyError};
