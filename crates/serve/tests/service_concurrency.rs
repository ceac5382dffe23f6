//! Concurrency guarantees of the evaluation service.
//!
//! * Every accepted request is answered exactly once, under seeded
//!   multi-producer stress with mixed priorities and selectors — also with
//!   a batch deadline too long to mask a lost worker→batcher wake-up.
//! * Cache-deduplicated requests return byte-identical reports (pinned via
//!   the JSON emitter, not just `PartialEq`).
//! * A poisoned (panicking) or erroring backend fails only requests that
//!   selected it — no worker-pool deadlock, and the service keeps serving.
//! * The service grid path is result-identical to `Evaluator::evaluate_grid`
//!   (the guarantee that lets table binaries swap call sites byte-for-byte).
//! * A batch whose specs differ in cost is split across a backend's workers
//!   by cost, so adjacent expensive specs do not queue behind each other.

use rsn_eval::{
    Backend, CharmBackend, EvalError, EvalReport, Evaluator, WorkloadSpec, XnnAnalyticBackend,
};
use rsn_serve::{json, BackendSelector, EvalRequest, EvalService, Priority, ServiceConfig};
use rsn_workloads::bert::BertConfig;
use std::sync::Arc;
use std::time::Duration;

/// Generous bound for "the service did not deadlock".
const STRESS_TIMEOUT: Duration = Duration::from_secs(30);

/// A deterministic backend answering square GEMMs with latency `n` ns.
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
                report
                    .metrics
                    .insert("n_cubed".to_string(), (*n * *n * *n) as f64);
                Ok(report)
            }
            _ => Err(EvalError::Unsupported {
                backend: self.name.to_string(),
                workload: w.name(),
            }),
        }
    }
}

/// A poisoned backend: panics on every multiple-of-three size, errors on
/// every multiple-of-five, answers the rest.
struct Poisoned;

impl Backend for Poisoned {
    fn name(&self) -> &str {
        "poisoned"
    }
    fn supports(&self, w: &WorkloadSpec) -> bool {
        matches!(w, WorkloadSpec::SquareGemm { .. })
    }
    fn evaluate(&self, w: &WorkloadSpec) -> Result<EvalReport, EvalError> {
        match w {
            WorkloadSpec::SquareGemm { n } if n % 3 == 0 => {
                panic!("poisoned backend refuses n={n}")
            }
            WorkloadSpec::SquareGemm { n } if n % 5 == 0 => Err(EvalError::TooLarge {
                backend: "poisoned".to_string(),
                workload: w.name(),
                limit: "multiples of five".to_string(),
            }),
            WorkloadSpec::SquareGemm { n } => {
                let mut report = EvalReport::new("poisoned", w.name());
                report.latency_s = Some(*n as f64);
                Ok(report)
            }
            _ => Err(EvalError::Unsupported {
                backend: "poisoned".to_string(),
                workload: w.name(),
            }),
        }
    }
}

/// Deterministic 64-bit LCG for seeding the stress mixes.
fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state
}

/// [`SquareOnly`] with a fixed service time per evaluation.
struct Paced(SquareOnly, Duration);

impl Backend for Paced {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn supports(&self, w: &WorkloadSpec) -> bool {
        self.0.supports(w)
    }
    fn evaluate(&self, w: &WorkloadSpec) -> Result<EvalReport, EvalError> {
        std::thread::sleep(self.1);
        self.0.evaluate(w)
    }
}

/// One configuration of [`exactly_once_under_stress`].
struct Stress {
    batch_deadline: Duration,
    workers_per_backend: usize,
    /// Service time of every evaluation.
    pace: Duration,
    /// Distinct spec sizes drawn; few sizes mean heavy deduplication.
    sizes: usize,
    /// Bound on each request's answer.
    answer_within: Duration,
}

#[test]
fn every_request_gets_exactly_one_response() {
    exactly_once_under_stress(Stress {
        batch_deadline: Duration::from_millis(1),
        workers_per_backend: 2,
        pace: Duration::ZERO,
        sizes: 16,
        answer_within: STRESS_TIMEOUT,
    });
}

#[test]
fn every_request_gets_exactly_one_response_without_the_deadline() {
    // A 30 s deadline never fires within the answer bound, so every batch
    // held behind busy workers (one per backend, paced, and mostly missing
    // the cache, to stay busy) must be released by a worker's wake-up: a
    // lost one times out here instead of hiding behind a 1 ms deadline.
    exactly_once_under_stress(Stress {
        batch_deadline: Duration::from_secs(30),
        workers_per_backend: 1,
        pace: Duration::from_micros(500),
        sizes: 4096,
        answer_within: Duration::from_secs(10),
    });
}

/// Seeded multi-producer stress with mixed priorities and selectors; every
/// request must be answered exactly once within `answer_within`.
fn exactly_once_under_stress(stress: Stress) {
    let backend = |name| Box::new(Paced(SquareOnly { name }, stress.pace));
    let service = Arc::new(EvalService::with_config(
        Evaluator::empty()
            .with_backend(backend("alpha"))
            .with_backend(backend("beta"))
            .with_backend(backend("gamma")),
        ServiceConfig {
            max_batch: 8,
            batch_deadline: stress.batch_deadline,
            workers_per_backend: stress.workers_per_backend,
            ..ServiceConfig::default()
        },
    ));
    let producers = 8usize;
    let per_producer = 50usize;
    let (sizes, answer_within) = (stress.sizes as u64, stress.answer_within);
    let mut joins = Vec::new();
    for producer in 0..producers {
        let service = Arc::clone(&service);
        joins.push(std::thread::spawn(move || {
            let mut rng = 0x5eed ^ (producer as u64) << 32;
            let (mut answered, mut backend_slots) = (0usize, 0u64);
            for _ in 0..per_producer {
                // Mixed specs, selectors and priorities.
                let n = (lcg(&mut rng) % sizes + 1) as usize;
                let selector = match lcg(&mut rng) % 3 {
                    0 => BackendSelector::All,
                    1 => BackendSelector::Named(vec!["beta".to_string()]),
                    _ => BackendSelector::Named(vec![
                        "gamma".to_string(),
                        "alpha".to_string(),
                        "nonexistent".to_string(),
                    ]),
                };
                let (expected_entries, registered) = match &selector {
                    BackendSelector::All => (3, 3),
                    BackendSelector::Named(names) => (
                        names.len(),
                        names.iter().filter(|n| *n != "nonexistent").count(),
                    ),
                };
                backend_slots += registered as u64;
                let priority = match lcg(&mut rng) % 3 {
                    0 => Priority::High,
                    1 => Priority::Normal,
                    _ => Priority::Low,
                };
                let handle = service.submit(EvalRequest {
                    spec: WorkloadSpec::SquareGemm { n },
                    backends: selector,
                    priority,
                });
                let response = handle
                    .wait_timeout(answer_within)
                    .expect("request timed out: worker pool deadlock or lost wake-up?");
                assert_eq!(response.results.len(), expected_entries);
                // Exactly one response per handle: a second receive finds
                // nothing.
                assert!(handle.wait_timeout(Duration::from_millis(1)).is_none());
                answered += 1;
            }
            (answered, backend_slots)
        }));
    }
    let (mut answered, mut backend_slots) = (0, 0);
    for join in joins {
        let (a, s) = join.join().expect("producer");
        answered += a;
        backend_slots += s;
    }
    assert_eq!(answered, producers * per_producer);
    let stats = service.stats();
    assert_eq!(stats.submitted, (producers * per_producer) as u64);
    assert_eq!(stats.completed, stats.submitted);
    // Every slot on a registered backend was a hit, a merge or one miss.
    assert_eq!(
        stats.cache_hits + stats.inflight_merged + stats.cache_misses,
        backend_slots
    );
    assert_eq!(stats.evaluations, stats.cache_misses);
    // The distinct sizes across 3 backends bound the distinct evaluations.
    assert!(
        stats.evaluations <= sizes * 3,
        "cache failed to deduplicate"
    );
    assert_eq!(stats.eval_errors, 0);
}

#[test]
fn deduplicated_requests_return_byte_identical_reports() {
    let service = Arc::new(EvalService::with_config(
        Evaluator::empty()
            .with_backend(Box::new(SquareOnly { name: "alpha" }))
            .with_backend(Box::new(SquareOnly { name: "beta" })),
        ServiceConfig {
            max_batch: 32,
            batch_deadline: Duration::from_millis(2),
            workers_per_backend: 2,
            ..ServiceConfig::default()
        },
    ));
    let submitters = 24usize;
    let handles: Vec<_> = (0..submitters)
        .map(|_| service.submit(EvalRequest::all(WorkloadSpec::SquareGemm { n: 777 })))
        .collect();
    let rendered: Vec<String> = handles
        .into_iter()
        .map(|h| {
            let response = h.wait_timeout(STRESS_TIMEOUT).expect("no deadlock");
            response
                .results
                .iter()
                .map(|(name, result)| format!("{name}:{}", json::result_json(result).to_pretty()))
                .collect::<Vec<_>>()
                .join("\n")
        })
        .collect();
    for other in &rendered[1..] {
        assert_eq!(&rendered[0], other, "deduplicated responses diverged");
    }
    let stats = service.stats();
    // One evaluation per backend; everyone else was served from the cache
    // (completed hit or in-flight merge).
    assert_eq!(stats.evaluations, 2);
    assert_eq!(stats.cache_misses, 2);
    assert_eq!(
        stats.cache_hits + stats.inflight_merged,
        (submitters as u64 - 1) * 2
    );
}

#[test]
fn poisoned_backend_fails_only_its_own_requests() {
    let service = EvalService::with_config(
        Evaluator::empty()
            .with_backend(Box::new(SquareOnly { name: "healthy" }))
            .with_backend(Box::new(Poisoned)),
        ServiceConfig {
            max_batch: 4,
            batch_deadline: Duration::from_millis(1),
            workers_per_backend: 1,
            ..ServiceConfig::default()
        },
    );
    // Sizes 1..=15 hit the panic path (3,6,9,12,15), the error path (5,10)
    // and the healthy path, repeatedly, on a single-worker shard: any
    // panic-induced worker loss or cache wedge would deadlock later sizes.
    let handles: Vec<_> = (1..=15usize)
        .map(|n| service.submit(EvalRequest::all(WorkloadSpec::SquareGemm { n })))
        .collect();
    for (n, handle) in (1..=15usize).zip(handles) {
        let response = handle
            .wait_timeout(STRESS_TIMEOUT)
            .expect("poisoned backend wedged the service");
        let healthy = response.result("healthy").expect("healthy entry");
        assert!(healthy.is_ok(), "healthy backend failed for n={n}");
        let poisoned = response.result("poisoned").expect("poisoned entry");
        if n % 3 == 0 {
            match poisoned {
                Err(EvalError::Panicked {
                    backend, reason, ..
                }) => {
                    assert_eq!(backend, "poisoned");
                    assert!(reason.contains("refuses"), "unexpected reason: {reason}");
                }
                other => panic!("expected panic error for n={n}, got {other:?}"),
            }
        } else if n % 5 == 0 {
            assert!(
                matches!(poisoned, Err(EvalError::TooLarge { .. })),
                "expected TooLarge for n={n}"
            );
        } else {
            assert!(poisoned.is_ok(), "poisoned backend should answer n={n}");
        }
    }
    // The shard survived every panic and still answers fresh work.
    let late = service
        .submit(EvalRequest::named(
            WorkloadSpec::SquareGemm { n: 1024 },
            vec!["poisoned".to_string()],
        ))
        .wait_timeout(STRESS_TIMEOUT)
        .expect("shard died after panics");
    assert!(late.results[0].1.is_ok());
    let stats = service.stats();
    assert_eq!(stats.completed, 16);
    assert_eq!(stats.eval_errors, 7); // 5 panics + 2 errors
}

/// A backend rating `SquareGemm { n }` at `n` ms through `cost_hint`.  A
/// spec rated 40 ms or more is "costly" and only completes once the other
/// costly spec is being evaluated at the same time — which can happen only
/// on a different worker.
#[derive(Default)]
struct Skewed {
    costly_arrived: std::sync::Mutex<usize>,
    met: std::sync::Condvar,
}

impl Backend for Skewed {
    fn name(&self) -> &str {
        "skewed"
    }
    fn supports(&self, w: &WorkloadSpec) -> bool {
        matches!(w, WorkloadSpec::SquareGemm { .. })
    }
    fn cost_hint(&self, w: &WorkloadSpec) -> u64 {
        match w {
            WorkloadSpec::SquareGemm { n } => *n as u64 * 1_000_000,
            _ => 1,
        }
    }
    fn evaluate(&self, w: &WorkloadSpec) -> Result<EvalReport, EvalError> {
        let WorkloadSpec::SquareGemm { n } = w else {
            return Err(EvalError::Unsupported {
                backend: "skewed".to_string(),
                workload: w.name(),
            });
        };
        if *n >= 40 {
            let mut arrived = self.costly_arrived.lock().unwrap();
            *arrived += 1;
            self.met.notify_all();
            let (arrived, _) = self
                .met
                .wait_timeout_while(arrived, Duration::from_secs(5), |a| *a < 2)
                .unwrap();
            if *arrived < 2 {
                return Err(EvalError::Remote {
                    message: format!("costly spec {n} never ran beside the other"),
                });
            }
        }
        Ok(EvalReport::new("skewed", w.name()))
    }
}

#[test]
fn costly_specs_of_one_batch_land_on_different_workers() {
    // The two costly specs sit side by side, as the paper grid's encoder
    // layers do: an order-preserving even split would hand both to one
    // worker, which evaluates them one after the other.
    let service = EvalService::with_config(
        Evaluator::empty().with_backend(Box::new(Skewed::default())),
        ServiceConfig {
            workers_per_backend: 2,
            ..ServiceConfig::default()
        },
    );
    let workloads: Vec<WorkloadSpec> = [40usize, 41, 1, 2, 3, 4]
        .iter()
        .map(|&n| WorkloadSpec::SquareGemm { n })
        .collect();
    let grid = service.evaluate_grid(&workloads);
    for result in &grid[0] {
        assert!(result.is_ok(), "{result:?}");
    }
    assert_eq!(service.stats().evaluations, 6);
}

#[test]
fn service_grid_is_result_identical_to_evaluator_grid() {
    let workloads: Vec<WorkloadSpec> = [1usize, 2, 4, 8]
        .iter()
        .map(|&b| WorkloadSpec::EncoderLayer {
            cfg: BertConfig::bert_large(384, b),
        })
        .collect();
    let build = || {
        Evaluator::empty()
            .with_backend(Box::new(XnnAnalyticBackend::new()))
            .with_backend(Box::new(CharmBackend::new()))
    };
    let direct = build().evaluate_grid(&workloads);
    let service = EvalService::new(build());
    let served = service.evaluate_grid(&workloads);
    assert_eq!(direct, served);
    // And byte-identical once emitted, not merely PartialEq-equal.
    let names: Vec<String> = service.backend_names().to_vec();
    assert_eq!(
        json::grid_json(&names, &workloads, &direct).to_pretty(),
        json::grid_json(&names, &workloads, &served).to_pretty()
    );
}
