//! The parallel sweep runner and the [`Evaluator`] registry.
//!
//! Table and figure binaries evaluate *grids* — several workloads across
//! several backends — and the analytic models are embarrassingly parallel,
//! so the runner fans the grid out across all cores.  The build environment
//! has no crates.io access, so the fan-out uses `std::thread::scope` with an
//! atomic work index (a drop-in work-stealing-free equivalent of a rayon
//! `par_iter` over the job list); swapping in rayon later only touches this
//! module.

use crate::backend::{Backend, EvalError};
use crate::backends::default_backends;
use crate::report::EvalReport;
use crate::workload::WorkloadSpec;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Indices of `costs` from the most to the least expensive, ties in index
/// order: the order in which workers sharing one job list should claim
/// jobs, so the longest start first and the short ones fill in around them
/// (longest-processing-time-first list scheduling).
fn longest_first(costs: &[u64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..costs.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(costs[i]));
    order
}

/// Splits the indices of `costs` into at most `groups` non-empty groups,
/// one per worker.
///
/// When every cost is equal the groups are contiguous runs of
/// `ceil(n / groups)` indices, in order — the even split of a batch whose
/// items all cost the same.  Otherwise each index, from the costliest down
/// (ties in index order), joins the group with the least total cost so far
/// (ties to the lower group), which keeps the most loaded worker within one
/// item of the average instead of leaving it whichever expensive items
/// happen to be adjacent in the batch.
pub fn balanced_groups(costs: &[u64], groups: usize) -> Vec<Vec<usize>> {
    let n = costs.len();
    if n == 0 {
        return Vec::new();
    }
    let groups = groups.clamp(1, n);
    if costs.iter().all(|&c| c == costs[0]) {
        let len = n.div_ceil(groups);
        return (0..n)
            .step_by(len)
            .map(|start| (start..(start + len).min(n)).collect())
            .collect();
    }
    let mut out: Vec<Vec<usize>> = vec![Vec::new(); groups];
    let mut load = vec![0u64; groups];
    for i in longest_first(costs) {
        let lightest = (0..groups)
            .min_by_key(|&g| load[g])
            .expect("at least one group");
        load[lightest] = load[lightest].saturating_add(costs[i]);
        out[lightest].push(i);
    }
    out
}

/// Runs `jobs` closures across all available cores, preserving order;
/// workers claim jobs in `order` (a permutation of the job indices).
fn run_jobs<T: Send>(jobs: Vec<Box<dyn Fn() -> T + Send + Sync + '_>>, order: &[usize]) -> Vec<T> {
    let threads = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    run_jobs_on(jobs, order, threads)
}

/// Runs `jobs` closures across `threads` worker threads, preserving order.
/// Workers claim jobs in `order`, a permutation of the job indices.
///
/// Results land in one pre-allocated slot per job — each slot is owned by
/// whichever worker claimed that job index, so there is no shared result
/// vector to contend on and no way for slot `i` to receive job `j`'s output.
fn run_jobs_on<T: Send>(
    jobs: Vec<Box<dyn Fn() -> T + Send + Sync + '_>>,
    order: &[usize],
    threads: usize,
) -> Vec<T> {
    let n = jobs.len();
    debug_assert_eq!(order.len(), n, "claim order must cover every job");
    let threads = threads.max(1).min(n.max(1));
    if threads <= 1 || n <= 1 {
        return jobs.into_iter().map(|j| j()).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let claim = next.fetch_add(1, Ordering::Relaxed);
                if claim >= n {
                    break;
                }
                let i = order[claim];
                let out = jobs[i]();
                *slots[i].lock().expect("slot lock") = Some(out);
            });
        }
    });
    slots
        .into_iter()
        .enumerate()
        .map(|(i, slot)| {
            slot.into_inner()
                .expect("slot lock")
                .unwrap_or_else(|| panic!("job {i} never ran"))
        })
        .collect()
}

/// Evaluates every workload on one backend, in parallel, preserving order;
/// the costliest workloads ([`Backend::cost_hint`]) start first.
pub fn evaluate_grid(
    backend: &dyn Backend,
    workloads: &[WorkloadSpec],
) -> Vec<Result<EvalReport, EvalError>> {
    let jobs: Vec<Box<dyn Fn() -> Result<EvalReport, EvalError> + Send + Sync>> = workloads
        .iter()
        .map(|w| {
            let job: Box<dyn Fn() -> Result<EvalReport, EvalError> + Send + Sync> =
                Box::new(move || backend.evaluate(w));
            job
        })
        .collect();
    let costs: Vec<u64> = workloads.iter().map(|w| backend.cost_hint(w)).collect();
    run_jobs(jobs, &longest_first(&costs))
}

/// A registry of comparison backends that evaluates workloads across all of
/// them — the one harness every table binary drives.
pub struct Evaluator {
    backends: Vec<Box<dyn Backend>>,
}

impl Evaluator {
    /// An evaluator with no backends (register them explicitly).
    pub fn empty() -> Self {
        Self {
            backends: Vec::new(),
        }
    }

    /// An evaluator over the standard comparison set
    /// ([`default_backends`]).
    pub fn new() -> Self {
        Self {
            backends: default_backends(),
        }
    }

    /// Adds a backend (builder form).
    pub fn with_backend(mut self, backend: Box<dyn Backend>) -> Self {
        self.backends.push(backend);
        self
    }

    /// Adds many backends in order (builder form).
    pub fn with_backends(mut self, backends: impl IntoIterator<Item = Box<dyn Backend>>) -> Self {
        self.backends.extend(backends);
        self
    }

    /// Adds a backend.
    pub fn register(&mut self, backend: Box<dyn Backend>) {
        self.backends.push(backend);
    }

    /// The registered backends, in registration order.
    pub fn backends(&self) -> &[Box<dyn Backend>] {
        &self.backends
    }

    /// Consumes the evaluator, yielding its backends in registration order
    /// (used by the serving layer to move them into long-running workers).
    pub fn into_backends(self) -> Vec<Box<dyn Backend>> {
        self.backends
    }

    /// Finds a backend by its display name.
    pub fn backend(&self, name: &str) -> Option<&dyn Backend> {
        self.backends
            .iter()
            .find(|b| b.name() == name)
            .map(AsRef::as_ref)
    }

    /// Evaluates one workload on every registered backend, in parallel.
    /// Results align with [`Evaluator::backends`] order.
    pub fn evaluate(&self, workload: &WorkloadSpec) -> Vec<Result<EvalReport, EvalError>> {
        let jobs: Vec<Box<dyn Fn() -> Result<EvalReport, EvalError> + Send + Sync>> = self
            .backends
            .iter()
            .map(|b| {
                let job: Box<dyn Fn() -> Result<EvalReport, EvalError> + Send + Sync> =
                    Box::new(move || b.evaluate(workload));
                job
            })
            .collect();
        let costs: Vec<u64> = self
            .backends
            .iter()
            .map(|b| b.cost_hint(workload))
            .collect();
        run_jobs(jobs, &longest_first(&costs))
    }

    /// Evaluates a workload grid on every registered backend, in parallel;
    /// the costliest cells ([`Backend::cost_hint`]) start first.  The outer
    /// result is indexed like [`Evaluator::backends`], the inner like
    /// `workloads`.
    pub fn evaluate_grid(
        &self,
        workloads: &[WorkloadSpec],
    ) -> Vec<Vec<Result<EvalReport, EvalError>>> {
        let cells = self.backends.len() * workloads.len();
        let mut jobs: Vec<Box<dyn Fn() -> Result<EvalReport, EvalError> + Send + Sync>> =
            Vec::with_capacity(cells);
        let mut costs = Vec::with_capacity(cells);
        for b in &self.backends {
            for w in workloads {
                jobs.push(Box::new(move || b.evaluate(w)));
                costs.push(b.cost_hint(w));
            }
        }
        let flat = run_jobs(jobs, &longest_first(&costs));
        let mut rows = Vec::with_capacity(self.backends.len());
        let mut it = flat.into_iter();
        for _ in 0..self.backends.len() {
            rows.push(it.by_ref().take(workloads.len()).collect());
        }
        rows
    }

    /// Evaluates one workload on the backends that support it, returning
    /// `(backend name, report)` pairs and skipping unsupported/oversized
    /// combinations.
    pub fn evaluate_supported(&self, workload: &WorkloadSpec) -> Vec<(String, EvalReport)> {
        self.backends
            .iter()
            .zip(self.evaluate(workload))
            .filter(|(b, _)| b.supports(workload))
            .filter_map(|(b, r)| r.ok().map(|r| (b.name().to_string(), r)))
            .collect()
    }
}

impl Default for Evaluator {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backends::{CharmBackend, XnnAnalyticBackend};
    use rsn_workloads::bert::BertConfig;

    #[test]
    fn grid_preserves_order_across_threads() {
        let backend = XnnAnalyticBackend::new();
        let workloads: Vec<WorkloadSpec> = [1, 2, 3, 6, 12, 24]
            .iter()
            .map(|&b| WorkloadSpec::EncoderLayer {
                cfg: BertConfig::bert_large(512, b),
            })
            .collect();
        let reports = evaluate_grid(&backend, &workloads);
        assert_eq!(reports.len(), workloads.len());
        // Larger batches never get *faster* per batch: latency grows
        // monotonically with batch size in the analytic model.
        let latencies: Vec<f64> = reports
            .iter()
            .map(|r| r.as_ref().unwrap().latency_s.unwrap())
            .collect();
        for pair in latencies.windows(2) {
            assert!(pair[1] > pair[0], "latencies not monotone: {latencies:?}");
        }
    }

    #[test]
    fn many_jobs_on_two_threads_preserve_order() {
        // n ≫ threads: with 2 workers racing over 64 jobs whose run times
        // are deliberately uneven, every result must still land in its own
        // slot.  (Regression test for the result-collection rewrite: the
        // previous global `Mutex<Vec<Option<T>>>` funnelled every write
        // through one lock; slot `i` must hold job `i`'s output regardless
        // of completion order.)
        let n = 64usize;
        let jobs: Vec<Box<dyn Fn() -> usize + Send + Sync>> = (0..n)
            .map(|i| {
                let job: Box<dyn Fn() -> usize + Send + Sync> = Box::new(move || {
                    // Stagger run times so claim order and completion order
                    // diverge between the two workers.
                    std::thread::sleep(std::time::Duration::from_micros(((i * 7) % 13) as u64));
                    i
                });
                job
            })
            .collect();
        // Claim back to front: results still land in job order.
        let order: Vec<usize> = (0..n).rev().collect();
        let results = run_jobs_on(jobs, &order, 2);
        assert_eq!(results, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn uniform_costs_split_into_contiguous_runs() {
        assert_eq!(balanced_groups(&[1; 5], 2), vec![vec![0, 1, 2], vec![3, 4]]);
        assert_eq!(balanced_groups(&[7; 3], 8), vec![vec![0], vec![1], vec![2]]);
        assert_eq!(balanced_groups(&[4; 4], 1), vec![vec![0, 1, 2, 3]]);
        assert!(balanced_groups(&[], 2).is_empty());
    }

    #[test]
    fn skewed_costs_are_balanced_longest_first() {
        // The paper grid's shape: the three expensive items sit next to
        // each other, so an even split would hand one worker nearly all
        // the work.
        let costs = [160, 650, 1570, 50, 280, 50, 540, 120];
        assert_eq!(longest_first(&costs), vec![2, 1, 6, 4, 0, 7, 3, 5]);
        let groups = balanced_groups(&costs, 2);
        assert_eq!(groups, vec![vec![2, 7], vec![1, 6, 4, 0, 3, 5]]);
        let loads: Vec<u64> = groups
            .iter()
            .map(|g| g.iter().map(|&i| costs[i]).sum())
            .collect();
        assert_eq!(loads, vec![1690, 1730]);
        let even: Vec<u64> = costs.chunks(4).map(|c| c.iter().sum()).collect();
        assert_eq!(even, vec![2430, 990]);
        // Every index lands in exactly one group.
        let mut all: Vec<usize> = groups.concat();
        all.sort_unstable();
        assert_eq!(all, (0..costs.len()).collect::<Vec<_>>());
    }

    #[test]
    fn evaluator_routes_by_backend_name() {
        let evaluator = Evaluator::empty()
            .with_backend(Box::new(XnnAnalyticBackend::new()))
            .with_backend(Box::new(CharmBackend::new()));
        assert!(evaluator.backend("rsn-xnn").is_some());
        assert!(evaluator.backend("charm").is_some());
        assert!(evaluator.backend("missing").is_none());
        let w = WorkloadSpec::EncoderLayer {
            cfg: BertConfig::bert_large(512, 6),
        };
        let results = evaluator.evaluate(&w);
        assert_eq!(results.len(), 2);
        let rsn = results[0].as_ref().unwrap().latency_s.unwrap();
        let charm = results[1].as_ref().unwrap().latency_s.unwrap();
        // The paper's headline: RSN-XNN beats CHARM at equal batch size.
        assert!(charm > rsn);
    }
}
