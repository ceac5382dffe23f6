//! `paper_repro`: the reproduction path, closed loop and in-process.
//!
//! One round renders all twelve paper artefacts and evaluates a fixed
//! functional grid through a fresh [`EvalService`] holding the cycle engine
//! and the analytic model, just as a table binary builds its own service.
//! Almost all of the time is in `rsn-core` and `rsn-xnn`; the serve wire
//! does no work here.

use crate::result::Outcome;
use crate::stats::{mean, median, ms, quantile, union_len, us};
use crate::trace::{PerSpec, Recorder};
use crate::Options;
use rsn_bench::tables;
use rsn_eval::{
    CycleEngineBackend, EvalError, EvalReport, Evaluator, WorkloadSpec, XnnAnalyticBackend,
};
use rsn_serve::EvalService;
use rsn_workloads::attention::{encoder_layer_forward, multi_head_attention, EncoderWeights};
use rsn_workloads::{BertConfig, Matrix};
use std::hint::black_box;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Renders one paper artefact's text.
pub type Render = fn() -> String;

/// The twelve paper artefacts, by golden-file name.
pub const ARTEFACTS: [(&str, Render); 12] = [
    ("table3", tables::table3_text),
    ("table4", tables::table4_text),
    ("table5", tables::table5_text),
    ("table6", tables::table6_text),
    ("table7", tables::table7_text),
    ("table8", tables::table8_text),
    ("table9", tables::table9_text),
    ("table10", tables::table10_text),
    ("table11", tables::table11_text),
    ("fig09", tables::fig09_text),
    ("fig16", tables::fig16_text),
    ("fig18", tables::fig18_text),
];

/// Warm-up rounds in each set-up.
const WARMUP_ROUNDS: usize = 3;

/// Largest error a cycle-engine report may carry against the reference math.
pub const MAX_ABS_ERROR: f64 = 1e-2;

/// The checked-in golden texts, in [`ARTEFACTS`] order.
pub fn load_goldens() -> std::io::Result<Vec<String>> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../crates/bench/tests/golden");
    ARTEFACTS
        .iter()
        .map(|(name, _)| std::fs::read_to_string(dir.join(format!("{name}.txt"))))
        .collect()
}

/// The functional grid: tiny encoder layers at L=8/32/64, functional GEMMs
/// 32³ and 64³, functional attention at L=16/64 (all B=2), and a
/// 4096-element scalar pipeline.  `seed` picks the GEMM and attention
/// inputs; the simulated cycle counts depend only on the shapes.
pub fn grid(seed: u64) -> Vec<WorkloadSpec> {
    let seed = seed % 1_000_000;
    vec![
        WorkloadSpec::EncoderLayer {
            cfg: BertConfig::tiny(8, 2),
        },
        WorkloadSpec::EncoderLayer {
            cfg: BertConfig::tiny(32, 2),
        },
        WorkloadSpec::EncoderLayer {
            cfg: BertConfig::tiny(64, 2),
        },
        WorkloadSpec::FunctionalGemm {
            m: 32,
            k: 32,
            n: 32,
            seed,
        },
        WorkloadSpec::FunctionalGemm {
            m: 64,
            k: 64,
            n: 64,
            seed: seed + 10,
        },
        WorkloadSpec::FunctionalAttention {
            cfg: BertConfig::tiny(16, 2),
            seed: seed + 20,
        },
        WorkloadSpec::FunctionalAttention {
            cfg: BertConfig::tiny(64, 2),
            seed: seed + 30,
        },
        WorkloadSpec::ScalarPipeline { elements: 4096 },
    ]
}

/// What one round produced, with its timings.
pub struct Round {
    /// Rendered artefact texts, in [`ARTEFACTS`] order.
    pub texts: Vec<String>,
    /// `[backend][workload]` grid results: cycle engine first, then the
    /// analytic model.
    pub results: Vec<Vec<Result<EvalReport, EvalError>>>,
    /// Time spent rendering the artefacts.
    pub render: Duration,
    /// Time spent building the service and evaluating the grid.
    pub grid: Duration,
    /// When the grid evaluation started.
    pub grid_start: Instant,
    /// Mean batch size the round's service achieved.
    pub batch_size_mean: f64,
}

impl Round {
    /// Render plus grid: the round's latency.
    pub fn latency(&self) -> Duration {
        self.render + self.grid
    }
}

/// Layer recorders of a traced round.
#[derive(Clone, Default)]
pub struct Tracers {
    cycle: Recorder,
    xnn: Recorder,
}

/// Runs one round; with `tracers`, the service's backends are timed.
pub fn round(specs: &[WorkloadSpec], tracers: Option<&Tracers>) -> Round {
    let start = Instant::now();
    let texts: Vec<String> = ARTEFACTS.iter().map(|(_, render)| render()).collect();
    let grid_start = Instant::now();
    let evaluator = match tracers {
        None => Evaluator::empty()
            .with_backend(Box::new(CycleEngineBackend::new()))
            .with_backend(Box::new(XnnAnalyticBackend::new())),
        Some(t) => Evaluator::empty()
            .with_backend(Box::new(PerSpec::new(
                CycleEngineBackend::new(),
                t.cycle.clone(),
            )))
            .with_backend(Box::new(PerSpec::new(
                XnnAnalyticBackend::new(),
                t.xnn.clone(),
            ))),
    };
    let service = EvalService::new(evaluator);
    let results = black_box(service.evaluate_grid(specs));
    let batch_size_mean = service.stats().mean_batch_size();
    drop(service);
    let end = Instant::now();
    Round {
        texts,
        results,
        render: grid_start - start,
        grid: end - grid_start,
        grid_start,
        batch_size_mean,
    }
}

/// Simulated makespan cycles and FU step calls of a round's cycle-engine row.
pub fn cycle_totals(round: &Round) -> (u64, u64) {
    round.results[0]
        .iter()
        .filter_map(|r| r.as_ref().ok()?.cycle.as_ref())
        .fold((0, 0), |(cycles, steps), c| {
            (cycles + c.makespan_cycles, steps + c.fu_step_calls)
        })
}

/// Checks one round: artefacts byte-identical to the goldens, every
/// cycle-engine report within [`MAX_ABS_ERROR`], the analytic model
/// answering exactly the encoder layers, and the simulated cycles and FU
/// step calls equal to `expected` (set from the first round checked).
/// Returns what was wrong.
pub fn check_round(
    round: &Round,
    specs: &[WorkloadSpec],
    goldens: &[String],
    expected: &mut Option<(u64, u64)>,
) -> Vec<String> {
    let mut wrong = Vec::new();
    for ((name, _), (text, golden)) in ARTEFACTS.iter().zip(round.texts.iter().zip(goldens)) {
        if text != golden {
            wrong.push(format!("{name} differs from its golden text"));
        }
    }
    if round.results.len() != 2 {
        wrong.push(format!("{} backend rows, expected 2", round.results.len()));
        return wrong;
    }
    for (spec, result) in specs.iter().zip(&round.results[0]) {
        match result {
            Ok(report) => {
                let error = report.cycle.as_ref().and_then(|c| c.max_abs_error);
                if !error.is_some_and(|e| e <= MAX_ABS_ERROR) {
                    wrong.push(format!(
                        "cycle engine {}: max_abs_error {error:?}",
                        spec.name()
                    ));
                }
            }
            Err(e) => wrong.push(format!("cycle engine {}: {e}", spec.name())),
        }
    }
    for (spec, result) in specs.iter().zip(&round.results[1]) {
        let encoder = matches!(spec, WorkloadSpec::EncoderLayer { .. });
        match result {
            Ok(report) if encoder && report.is_finite_nonzero() => {}
            Err(EvalError::Unsupported { .. }) if !encoder => {}
            other => wrong.push(format!("analytic model {}: {other:?}", spec.name())),
        }
    }
    let totals = cycle_totals(round);
    match expected {
        None => *expected = Some(totals),
        Some(earlier) if *earlier != totals => wrong.push(format!(
            "simulated (cycles, FU steps) {totals:?}, earlier rounds {earlier:?}"
        )),
        Some(_) => {}
    }
    wrong
}

/// Inputs of the reference math for the grid, generated once in set-up.
enum Reference {
    Encoder(BertConfig, Matrix, Box<EncoderWeights>),
    Gemm(Matrix, Matrix),
    Attention(BertConfig, Matrix, Matrix, Matrix),
}

fn references(specs: &[WorkloadSpec]) -> Vec<Reference> {
    specs
        .iter()
        .filter_map(|spec| match *spec {
            // The cycle backend's own encoder inputs (seeds 7 and 11).
            WorkloadSpec::EncoderLayer { cfg } => Some(Reference::Encoder(
                cfg,
                Matrix::random(cfg.tokens(), cfg.hidden, 7),
                Box::new(EncoderWeights::random(&cfg, 11)),
            )),
            WorkloadSpec::FunctionalGemm { m, k, n, seed } => Some(Reference::Gemm(
                Matrix::random(m, k, seed),
                Matrix::random(k, n, seed + 1),
            )),
            WorkloadSpec::FunctionalAttention { cfg, seed } => Some(Reference::Attention(
                cfg,
                Matrix::random(cfg.tokens(), cfg.hidden, seed),
                Matrix::random(cfg.tokens(), cfg.hidden, seed + 1),
                Matrix::random(cfg.tokens(), cfg.hidden, seed + 2),
            )),
            _ => None,
        })
        .collect()
}

fn time_references(references: &[Reference]) -> Duration {
    let start = Instant::now();
    for reference in references {
        match reference {
            Reference::Encoder(cfg, x, w) => {
                black_box(encoder_layer_forward(cfg, x, w));
            }
            Reference::Gemm(lhs, rhs) => {
                black_box(lhs.matmul(rhs));
            }
            Reference::Attention(cfg, q, k, v) => {
                black_box(multi_head_attention(cfg, q, k, v));
            }
        }
    }
    start.elapsed()
}

/// Runs `paper_repro` against `goldens` (in [`ARTEFACTS`] order).
pub fn run(options: &Options, goldens: &[String]) -> Outcome {
    let mut outcome = Outcome::default();
    let specs = grid(options.seed);
    let mut expected = None;

    // Set-up: the grid, the reference inputs, and warm-up rounds with their
    // checks, repeated; `setup_s` is the median.  A single round's time
    // depends on how the grid splits across the service's two workers, so
    // each set-up warms up over several rounds to smooth that out.
    let mut setups = Vec::new();
    let mut refs = Vec::new();
    for _ in 0..options.setup_repeats.max(1) {
        let start = Instant::now();
        refs = references(&specs);
        for _ in 0..WARMUP_ROUNDS {
            let warm = round(&specs, None);
            let wrong = check_round(&warm, &specs, goldens, &mut expected);
            if !wrong.is_empty() {
                outcome
                    .problems
                    .push(format!("warm-up round: {}", wrong.join("; ")));
            }
        }
        setups.push(start.elapsed().as_secs_f64());
    }
    outcome.set("setup_s", median(&setups));

    // The measured window: rounds until their summed time reaches the
    // window.  The traced run alternates traced and untraced rounds, so the
    // two halves see the same machine state and their difference is the
    // tracing overhead.
    let tracers = Tracers::default();
    let window = Duration::from_secs_f64(options.seconds);
    let mut measured = Duration::ZERO;
    let mut rounds = 0u64;
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let (mut cycles, mut grid_s) = (0u64, 0.0);
    let (mut render_ms, mut batch_sizes, mut cross_model) = (Vec::new(), Vec::new(), Vec::new());
    let mut layers = TracedLayers::default();
    while measured < window || rounds == 0 {
        let with_trace = options.trace && rounds % 2 == 1;
        let r = round(&specs, with_trace.then_some(&tracers));
        rounds += 1;
        measured += r.latency();
        let wrong = check_round(&r, &specs, goldens, &mut expected);
        if let (Some(first), 0) = (wrong.first(), outcome.failed) {
            outcome.notes.push(format!("first failed round: {first}"));
        }
        outcome.count(wrong.is_empty());
        let (c, s) = cycle_totals(&r);
        cycles += c;
        grid_s += r.grid.as_secs_f64();
        render_ms.push(ms(r.render));
        batch_sizes.push(r.batch_size_mean);
        cross_model.extend(cross_model_ratios(&r));
        if with_trace {
            traced.push(ms(r.latency()));
            layers.record(&r, s, &tracers, &refs);
        } else {
            plain.push(ms(r.latency()));
        }
    }
    outcome.set("throughput_ops_s", rounds as f64 / measured.as_secs_f64());
    outcome.set("latency_p50_ms", median(&plain));
    outcome.set("latency_p99_ms", quantile(&plain, 0.99));
    outcome.set("sim_cycles_per_s", cycles as f64 / grid_s);
    let (sim_cycles, fu_step_calls) = expected.unwrap_or_default();
    outcome.set("core.sim_cycles", sim_cycles as f64);
    outcome.set("core.fu_step_calls", fu_step_calls as f64);
    outcome.set("tables.render_ms", median(&render_ms));
    outcome.set("serve.service.batch_size_mean", mean(&batch_sizes));
    outcome.set("eval.cross_model_ratio", median(&cross_model));
    outcome.notes.push(format!(
        "{rounds} rounds; latency percentiles from {} untraced rounds",
        plain.len()
    ));
    if options.trace {
        layers.report(&mut outcome);
        outcome.set(
            "trace.overhead_share",
            median(&traced) / median(&plain) - 1.0,
        );
    }
    outcome
}

/// Per-layer samples gathered from traced rounds.
#[derive(Default)]
struct TracedLayers {
    cycle_host_ms: Vec<f64>,
    xnn_host_us: Vec<f64>,
    cycle_host_s: f64,
    fu_steps: u64,
    reference_ms: Vec<f64>,
    queue_wait_ms: Vec<f64>,
}

impl TracedLayers {
    fn record(&mut self, r: &Round, fu_steps: u64, tracers: &Tracers, refs: &[Reference]) {
        let cycle = tracers.cycle.take();
        let xnn = tracers.xnn.take();
        self.cycle_host_ms
            .extend(cycle.iter().map(|c| ms(c.duration)));
        self.cycle_host_s += cycle.iter().map(|c| c.duration.as_secs_f64()).sum::<f64>();
        self.fu_steps += fu_steps;
        self.xnn_host_us.extend(xnn.iter().map(|c| us(c.duration)));
        // Queue wait: the grid request's time outside any backend call
        // (calls on parallel workers overlap and count once).
        let busy: Vec<(f64, f64)> = cycle
            .iter()
            .chain(&xnn)
            .map(|c| {
                let since = |t: Instant| t.saturating_duration_since(r.grid_start).as_secs_f64();
                (since(c.start), since(c.end()))
            })
            .collect();
        self.queue_wait_ms
            .push((r.grid.as_secs_f64() - union_len(busy)) * 1e3);
        self.reference_ms.push(ms(time_references(refs)));
    }

    fn report(&self, outcome: &mut Outcome) {
        outcome.set("eval.cycle.host_ms", median(&self.cycle_host_ms));
        outcome.set("eval.xnn.host_us", median(&self.xnn_host_us));
        outcome.set(
            "core.host_ns_per_fu_step",
            self.cycle_host_s * 1e9 / self.fu_steps as f64,
        );
        outcome.set("workloads.reference_ms", median(&self.reference_ms));
        outcome.set("serve.service.queue_wait_ms", median(&self.queue_wait_ms));
    }
}

/// Cycle-engine over analytic latency on the shapes both backends answer
/// (the encoder layers).
fn cross_model_ratios(round: &Round) -> Vec<f64> {
    round.results[0]
        .iter()
        .zip(&round.results[1])
        .filter_map(|(cycle, analytic)| {
            let cycle = cycle.as_ref().ok()?.latency_s?;
            let analytic = analytic.as_ref().ok()?.latency_s?;
            Some(cycle / analytic)
        })
        .collect()
}
