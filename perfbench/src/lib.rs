//! End-to-end and per-layer benchmark of the RSN reproduction.
//!
//! Three workloads cover the two paths people run:
//!
//! * `paper_repro` — closed loop, in-process: every round renders the twelve
//!   paper artefacts and evaluates a fixed functional grid through a fresh
//!   evaluation service holding the cycle engine and the analytic model.
//! * `remote_miss` — closed loop: one client submits bursts of 64 distinct
//!   specs to a loopback shard with default service and transport settings,
//!   so every spec misses the cache and the wire path dominates.
//! * `open_loop_mixed` — open loop: Poisson arrivals of single-spec requests
//!   from the three-tenant class mix, half of them repeats from a skewed hot
//!   set, through a bounded client cache.
//!
//! End-to-end metrics are measured with tracing off.  A traced run (`trace`)
//! wraps each layer's public entry points from this crate's own files and
//! reports per-layer numbers plus the tracing overhead.

pub mod host;
pub mod paper;
pub mod result;
pub mod serve;
pub mod stats;
pub mod trace;

pub use result::Outcome;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Paper tables plus the functional grid, in-process.
    PaperRepro,
    /// Distinct-spec bursts through a loopback shard.
    RemoteMiss,
    /// Poisson single-spec arrivals with cache hits and evictions.
    OpenLoopMixed,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::PaperRepro,
        Workload::RemoteMiss,
        Workload::OpenLoopMixed,
    ];

    /// The workload's command-line and `BENCHMARK.json` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperRepro => "paper_repro",
            Workload::RemoteMiss => "remote_miss",
            Workload::OpenLoopMixed => "open_loop_mixed",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// What one benchmark run does.
#[derive(Debug, Clone)]
pub struct Options {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Length of the measured window, seconds.
    pub seconds: f64,
    /// Whether this is the traced run (per-layer metrics) or the untraced
    /// one (end-to-end metrics).
    pub trace: bool,
    /// How many times set-up is repeated; `setup_s` is their median.
    pub setup_repeats: usize,
}

/// Runs one workload, then checks that every descriptor, thread and shared
/// memory segment the run created is gone again.
pub fn run(options: &Options) -> Outcome {
    let baseline = host::Resources::sample();
    let mut outcome = match options.workload {
        Workload::PaperRepro => match paper::load_goldens() {
            Ok(goldens) => paper::run(options, &goldens),
            Err(error) => Outcome::broken(format!("cannot read golden artefacts: {error}")),
        },
        Workload::RemoteMiss => serve::run_remote_miss(options),
        Workload::OpenLoopMixed => serve::run_open_loop_mixed(options),
    };
    if let Err(leak) = baseline.settle(std::time::Duration::from_secs(10)) {
        outcome.problems.push(leak);
    }
    outcome.set("peak_rss_mb", host::peak_rss_mb());
    outcome
}
