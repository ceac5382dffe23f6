//! `remote_miss` and `open_loop_mixed`: the evaluation service over a
//! loopback shard.
//!
//! Both run one client [`EvalService`] whose only backend is the
//! [`RemoteBackend`] of a [`ShardServer`] bound on 127.0.0.1 in this
//! process, hosting [`XnnAnalyticBackend`].  Service and transport settings
//! are the defaults on both sides (binary encoding with dictionaries, the
//! shared-memory ring, the thread-per-connection front end), except that
//! `open_loop_mixed` bounds the client cache so LRU eviction runs.

use crate::result::Outcome;
use crate::stats::{mean, median, ms, quantile, union_len, us};
use crate::trace::{Call, PerCall, PerSpec, Recorder};
use crate::Options;
use rsn_bench::loadgen::{arrival_schedule, scenario_mix, ArrivalProcess, Lcg};
use rsn_eval::{Backend, EvalError, EvalReport, Evaluator, WorkloadSpec, XnnAnalyticBackend};
use rsn_serve::binary::{decode_response, encode_report, encode_response};
use rsn_serve::wire::{ShardResponse, SharedResult};
use rsn_serve::{
    BackendSelector, ConnectionPool, EvalRequest, EvalService, PoolStats, Priority, RemoteBackend,
    RemoteConfig, ResponseHandle, ServiceConfig, ServiceStats, ShardServer,
};
use rsn_workloads::BertConfig;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Specs per `remote_miss` burst.
pub const BURST: usize = 64;
/// Bursts in one `remote_miss` segment (see [`run_remote_miss`]): about an
/// eighth of a second of traffic.
const SEGMENT_BURSTS: usize = 300;
/// Bursts of warm-up traffic after each set-up.
const WARMUP_BURSTS: usize = 100;
/// Mean arrival rate of `open_loop_mixed`, requests per second: below the
/// loopback shard's saturation on a 2-core host.
pub const OPEN_LOOP_RATE_HZ: f64 = 10_000.0;
/// Hot-set specs per traffic class in `open_loop_mixed`.
const HOT_PER_CLASS: usize = 128;
/// Client cache bound of `open_loop_mixed`: below the hot set alone, so
/// fresh specs evict hot ones.
const OPEN_LOOP_CACHE: usize = 256;
/// Generator lag (p99) above which an open-loop run is invalid.
pub const MAX_LAG_P99_MS: f64 = 2.0;
/// Largest share by which the `remote_miss` stage medians (queue wait plus
/// exchange) may miss the latency median before the attribution is wrong.
const MAX_ADDBACK_ERROR: f64 = 0.1;
/// Age at which an answered open-loop handle is checked for a second answer.
const RECHECK_AFTER: Duration = Duration::from_millis(5);
/// How long the open loop waits for stragglers after the last arrival.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(20);

/// A uniform draw in `0..n` from the generator's high bits (the LCG's low
/// bits are periodic: `next_u64() % 2` alternates).
pub fn below(rng: &mut Lcg, n: u64) -> u64 {
    ((rng.next_u64() >> 32) * n) >> 32
}

/// Distinct `remote_miss` specs: three quarters `SquareGemm`, one quarter
/// BERT-Large `EncoderLayer`, each keyed by a counter so none repeats.
pub struct MissSpecs {
    rng: Lcg,
    next: u64,
}

impl MissSpecs {
    /// A stream drawn from `seed`, keys starting at `first`.
    pub fn new(seed: u64, first: u64) -> Self {
        MissSpecs {
            rng: Lcg::new(seed ^ 0x5EED_0001),
            next: first,
        }
    }

    /// The next `n` specs.
    pub fn take(&mut self, n: usize) -> Vec<WorkloadSpec> {
        (0..n)
            .map(|_| {
                let key = self.next as usize;
                self.next += 1;
                if below(&mut self.rng, 4) == 0 {
                    let batch = 1 + below(&mut self.rng, 8) as usize;
                    WorkloadSpec::EncoderLayer {
                        cfg: BertConfig::bert_large(16 + key, batch),
                    }
                } else {
                    WorkloadSpec::SquareGemm { n: 64 + key }
                }
            })
            .collect()
    }
}

/// The loopback deployment: shard server, client service, and the client's
/// connection pool.  Fields drop in declaration order: the client's workers
/// stop first, then the pool's idle connections close, then the server
/// stops and severs whatever is left.
struct Stack {
    client: EvalService,
    pool: Arc<ConnectionPool>,
    _server: ShardServer,
    exchanges: Recorder,
    shard_evals: Recorder,
}

impl Stack {
    /// Binds the shard, does the hello/negotiation, builds the client, and
    /// warms the path up with distinct-spec bursts.
    fn build(traced: bool, client_config: ServiceConfig) -> Result<Stack, String> {
        let shard_evals = Recorder::default();
        let shard_backend: Box<dyn Backend> = if traced {
            Box::new(PerSpec::new(XnnAnalyticBackend::new(), shard_evals.clone()))
        } else {
            Box::new(XnnAnalyticBackend::new())
        };
        let server = ShardServer::bind(
            "127.0.0.1:0",
            EvalService::new(Evaluator::empty().with_backend(shard_backend)),
        )
        .map_err(|e| format!("bind loopback shard: {e}"))?;
        let remotes = RemoteBackend::connect_all_with(
            &server.local_addr().to_string(),
            RemoteConfig::default(),
        )
        .map_err(|e| format!("shard hello: {e}"))?;
        let pool = Arc::clone(remotes.first().ok_or("shard hosts no backend")?.pool());
        let exchanges = Recorder::default();
        let mut evaluator = Evaluator::empty();
        for remote in remotes {
            if traced {
                evaluator.register(Box::new(PerCall::new(remote, exchanges.clone())));
            } else {
                evaluator.register(Box::new(remote));
            }
        }
        let stack = Stack {
            client: EvalService::with_config(evaluator, client_config),
            pool,
            _server: server,
            exchanges,
            shard_evals,
        };
        let mut warm = MissSpecs::new(0, 1 << 40);
        for _ in 0..WARMUP_BURSTS {
            let response = stack
                .client
                .submit_batch(warm.take(BURST), BackendSelector::All, Priority::Normal)
                .wait();
            if response.reports().count() != BURST {
                return Err("warm-up burst failed".to_string());
            }
        }
        stack.exchanges.take();
        stack.shard_evals.take();
        Ok(stack)
    }

    fn snapshot(&self) -> Snapshot {
        Snapshot {
            client: self.client.stats(),
            pool: self.pool.stats(),
        }
    }
}

/// Builds `repeats` stacks, tearing down all but the last; returns it with
/// the median set-up time.
fn set_up(repeats: usize, traced: bool, config: &ServiceConfig) -> Result<(Stack, f64), String> {
    let mut times = Vec::new();
    let mut stack = None;
    for _ in 0..repeats.max(1) {
        drop(stack.take());
        let start = Instant::now();
        stack = Some(Stack::build(traced, config.clone())?);
        times.push(start.elapsed().as_secs_f64());
    }
    Ok((stack.expect("at least one set-up"), median(&times)))
}

/// Counter snapshots taken around a measured window.
struct Snapshot {
    client: ServiceStats,
    pool: PoolStats,
}

/// Per-layer numbers of a traced window from the client's and the pool's
/// counter deltas.
fn counter_layers(before: &Snapshot, after: &Snapshot, reports: u64, outcome: &mut Outcome) {
    let (c0, c1) = (&before.client, &after.client);
    let lookups = (c1.cache_hits - c0.cache_hits)
        + (c1.cache_misses - c0.cache_misses)
        + (c1.inflight_merged - c0.inflight_merged);
    outcome.set(
        "serve.cache.hit_ratio",
        ratio(c1.cache_hits - c0.cache_hits, lookups),
    );
    outcome.set(
        "serve.cache.evictions",
        (c1.evictions - c0.evictions) as f64,
    );
    outcome.set(
        "serve.cache.inflight_merged",
        (c1.inflight_merged - c0.inflight_merged) as f64,
    );
    outcome.set(
        "serve.service.batch_size_mean",
        ratio(
            c1.batched_requests - c0.batched_requests,
            c1.batches - c0.batches,
        ),
    );
    let (p0, p1) = (&before.pool, &after.pool);
    outcome.set("serve.pool.dials", (p1.dials - p0.dials) as f64);
    outcome.set("serve.pool.redials", (p1.redials - p0.redials) as f64);
    outcome.set(
        "serve.pool.reuse_ratio",
        ratio(p1.reused - p0.reused, p1.checkouts - p0.checkouts),
    );
    outcome.set(
        "serve.binary.rx_bytes_per_report",
        ratio(p1.bytes_received - p0.bytes_received, reports),
    );
    let hits = p1.dict_hits - p0.dict_hits;
    outcome.set(
        "serve.binary.dict_hit_ratio",
        ratio(hits, hits + (p1.dict_defines - p0.dict_defines)),
    );
}

fn ratio(numerator: u64, denominator: u64) -> f64 {
    if denominator == 0 {
        0.0
    } else {
        numerator as f64 / denominator as f64
    }
}

/// Request frames one client `RemoteBackend` call puts on the wire: a burst
/// of two or more spec lists sends one frame per list, a list of two or
/// more specs one batch frame, and anything smaller one frame per spec.
fn frames(call: &Call) -> u64 {
    if call.chunks >= 2 {
        call.chunks as u64
    } else if call.specs >= 2 {
        1
    } else {
        call.specs as u64
    }
}

/// Per-layer numbers from the recorded calls.
/// `request_exchange_ms` holds, per request that reached the wire, the time
/// at least one of its exchanges was in flight.
fn call_layers(
    exchanges: &[Call],
    shard_evals: &[Call],
    request_exchange_ms: &[f64],
    ring_frames: u64,
    outcome: &mut Outcome,
) {
    outcome.set("serve.remote.exchange_ms.p50", median(request_exchange_ms));
    outcome.set(
        "serve.remote.exchange_ms.p99",
        quantile(request_exchange_ms, 0.99),
    );
    let specs: Vec<f64> = exchanges.iter().map(|c| c.specs as f64).collect();
    outcome.set("serve.remote.specs_per_exchange", mean(&specs));
    outcome.set(
        "serve.shm.ring_share",
        ratio(ring_frames, exchanges.iter().map(frames).sum()),
    );
    let eval_us: Vec<f64> = shard_evals.iter().map(|c| us(c.duration)).collect();
    outcome.set("serve.shard.eval_us", median(&eval_us));
    // Split each exchange into the shard's evaluation of its specs and
    // everything else: codec, transport, and both sides' queues.  The
    // ring path answers inline on the connection thread, bypassing the
    // shard service's queue and its sojourn histogram, so the shard's
    // time is taken from its wrapped backend.
    let evaluated: HashMap<&WorkloadSpec, Duration> = shard_evals
        .iter()
        .flat_map(|c| c.spec_list.iter().map(move |spec| (spec, c.duration)))
        .collect();
    let (mut shard_ms, mut overhead_ms) = (Vec::new(), Vec::new());
    for call in exchanges {
        let shard: Duration = call.spec_list.iter().filter_map(|s| evaluated.get(s)).sum();
        shard_ms.push(ms(shard));
        overhead_ms.push(ms(call.duration.saturating_sub(shard)));
    }
    outcome.set("serve.shard.service_ms", median(&shard_ms));
    outcome.set("serve.wire.overhead_ms", median(&overhead_ms));
}

/// Times the public binary codec on captured results: frames of 16
/// reports encoded with `encode_response` and decoded back with
/// `decode_response`.  Returns `(encode µs, decode µs)` per report, medians
/// over passes, or an error when a decoded frame differs from its input.
fn codec_layers(results: &[SharedResult]) -> Result<(f64, f64), String> {
    const FRAME: usize = 16;
    let frames: Vec<ShardResponse> = results
        .chunks(FRAME)
        .map(|chunk| ShardResponse::EvaluatedBatch(chunk.to_vec()))
        .collect();
    let reports = results.len().max(1) as f64;
    let (mut encode, mut decode) = (Vec::new(), Vec::new());
    let mut bytes = vec![Vec::new(); frames.len()];
    for _ in 0..7 {
        let start = Instant::now();
        for (frame, out) in frames.iter().zip(bytes.iter_mut()) {
            out.clear();
            encode_response(out, 1, frame);
        }
        encode.push(us(start.elapsed()) / reports);
        let start = Instant::now();
        let decoded: Vec<_> = bytes.iter().map(|b| decode_response(b)).collect();
        decode.push(us(start.elapsed()) / reports);
        for (frame, got) in frames.iter().zip(decoded) {
            match got {
                Ok((1, ref response)) if response == frame => {}
                other => {
                    return Err(format!(
                        "binary codec round trip changed a frame: {other:?}"
                    ))
                }
            }
        }
    }
    Ok((median(&encode), median(&decode)))
}

/// Canonical bytes of a report: equal bytes means bit-identical fields.
fn report_bytes(report: &EvalReport) -> Vec<u8> {
    let mut out = Vec::new();
    encode_report(&mut out, report);
    out
}

/// Checks served results against an in-process [`XnnAnalyticBackend`]
/// evaluation of the same specs.  Returns one verdict per pair (true when
/// the served report is bit-identical to the local one) and the local
/// evaluation times in microseconds.
pub fn check_reports(pairs: &[(WorkloadSpec, SharedResult)]) -> (Vec<bool>, Vec<f64>) {
    let local = XnnAnalyticBackend::new();
    let mut times = Vec::with_capacity(pairs.len());
    let verdicts = pairs
        .iter()
        .map(|(spec, served)| {
            let start = Instant::now();
            let expected = local.evaluate(spec);
            times.push(us(start.elapsed()));
            match (served.as_ref(), expected) {
                (Ok(got), Ok(want)) => report_bytes(got) == report_bytes(&want),
                _ => false,
            }
        })
        .collect();
    (verdicts, times)
}

/// Records the verdicts of [`check_reports`] into `outcome`.
fn count_checked(pairs: &[(WorkloadSpec, SharedResult)], outcome: &mut Outcome) -> Vec<f64> {
    let (verdicts, times) = check_reports(pairs);
    let mut first_bad = None;
    for (ok, (spec, _)) in verdicts.into_iter().zip(pairs) {
        if !ok && first_bad.is_none() {
            first_bad = Some(spec.name());
        }
        outcome.count(ok);
    }
    if let Some(name) = first_bad {
        outcome.notes.push(format!("first wrong report: {name}"));
    }
    times
}

/// One closed-loop window of `remote_miss`.
struct MissWindow {
    /// Per-burst latency, submit to response, with the burst's start.
    bursts: Vec<(Instant, Duration)>,
    /// Every spec with its served result (a missing result is a transport
    /// error in the pair).
    pairs: Vec<(WorkloadSpec, SharedResult)>,
    elapsed: Duration,
    ok_reports: u64,
}

/// Runs bursts until `window` has passed or [`SEGMENT_BURSTS`] were sent.
fn miss_window(stack: &Stack, specs: &mut MissSpecs, window: Duration) -> MissWindow {
    let mut bursts = Vec::new();
    let mut pairs = Vec::new();
    let mut ok_reports = 0;
    let start = Instant::now();
    while start.elapsed() < window && bursts.len() < SEGMENT_BURSTS {
        let burst = specs.take(BURST);
        let sent = Instant::now();
        let response = stack
            .client
            .submit_batch(burst.clone(), BackendSelector::All, Priority::Normal)
            .wait();
        bursts.push((sent, sent.elapsed()));
        ok_reports += response.reports().count() as u64;
        let mut results = response.results.into_iter().map(|(_, r)| r);
        for spec in burst {
            let result = results.next().unwrap_or_else(|| {
                Arc::new(Err(EvalError::Remote {
                    message: "no result for spec".to_string(),
                }))
            });
            pairs.push((spec, result));
        }
    }
    MissWindow {
        bursts,
        pairs,
        elapsed: start.elapsed(),
        ok_reports,
    }
}

/// Runs `remote_miss`: closed-loop bursts of 64 distinct specs.
///
/// Both default caches are unbounded and every spec is new, so each keeps
/// every report it sees.  The window is therefore split into segments of
/// [`SEGMENT_BURSTS`] bursts, each on a freshly built stack, which bounds
/// the caches (and so peak memory) to one segment's reports; every build is
/// one set-up sample.
pub fn run_remote_miss(options: &Options) -> Outcome {
    let mut outcome = Outcome::default();
    let mut specs = MissSpecs::new(options.seed, 0);
    let window = Duration::from_secs_f64(options.seconds);
    let plain_window = if options.trace { window / 2 } else { window };
    let mut setups = Vec::new();
    let (mut latencies, mut ok_reports, mut elapsed) = (Vec::new(), 0u64, 0.0);
    while elapsed < plain_window.as_secs_f64() {
        let started = Instant::now();
        let stack = match Stack::build(false, ServiceConfig::default()) {
            Ok(stack) => stack,
            Err(e) => return Outcome::broken(e),
        };
        setups.push(started.elapsed().as_secs_f64());
        let remaining = plain_window.as_secs_f64() - elapsed;
        let run = miss_window(&stack, &mut specs, Duration::from_secs_f64(remaining));
        drop(stack);
        latencies.extend(run.bursts.iter().map(|(_, d)| ms(*d)));
        ok_reports += run.ok_reports;
        elapsed += run.elapsed.as_secs_f64();
        count_checked(&run.pairs, &mut outcome);
    }
    outcome.set("setup_s", median(&setups));
    outcome.set("throughput_ops_s", ok_reports as f64 / elapsed);
    outcome.set("latency_p50_ms", median(&latencies));
    outcome.set("latency_p99_ms", quantile(&latencies, 0.99));
    outcome.notes.push(format!(
        "{} bursts of {BURST} specs over {} stacks; latency percentiles over bursts",
        latencies.len(),
        setups.len()
    ));
    if options.trace {
        if let Err(e) = traced_miss(&mut specs, window / 2, median(&latencies), &mut outcome) {
            outcome.problems.push(e);
        }
    }
    outcome
}

/// The traced segment of a `remote_miss` run, on its own traced stack.
fn traced_miss(
    specs: &mut MissSpecs,
    window: Duration,
    plain_p50_ms: f64,
    outcome: &mut Outcome,
) -> Result<(), String> {
    let stack = Stack::build(true, ServiceConfig::default())?;
    let before = stack.snapshot();
    let run = miss_window(&stack, specs, window);
    let after = stack.snapshot();
    let mut exchanges = stack.exchanges.take();
    let shard_evals = stack.shard_evals.take();
    drop(stack);
    // Stages of a burst: the time at least one of its exchanges was in
    // flight, and the rest of its latency, queue wait.  The loop is closed,
    // so every exchange that started inside a burst's window served it.
    exchanges.sort_by_key(|c| c.start);
    let (mut latencies, mut in_exchange, mut queue_wait) = (Vec::new(), Vec::new(), Vec::new());
    let mut calls = exchanges.iter().peekable();
    for &(sent, latency) in &run.bursts {
        let done = sent + latency;
        let mut busy = Vec::new();
        while let Some(call) = calls.next_if(|c| c.start < done) {
            let since = |t: Instant| t.saturating_duration_since(sent).as_secs_f64();
            busy.push((since(call.start), since(call.end().min(done))));
        }
        let exchange_ms = union_len(busy) * 1e3;
        latencies.push(ms(latency));
        in_exchange.push(exchange_ms);
        queue_wait.push(ms(latency) - exchange_ms);
    }
    counter_layers(&before, &after, run.ok_reports, outcome);
    let ring_frames = after.pool.ring_exchanges - before.pool.ring_exchanges;
    call_layers(&exchanges, &shard_evals, &in_exchange, ring_frames, outcome);
    let traced_p50 = median(&latencies);
    outcome.set("serve.service.queue_wait_ms", median(&queue_wait));
    let addback = (median(&queue_wait) + median(&in_exchange) - traced_p50).abs() / traced_p50;
    outcome.set("trace.addback_error_share", addback);
    if addback > MAX_ADDBACK_ERROR {
        outcome.problems.push(format!(
            "stage medians miss the latency median by {:.1}%",
            addback * 100.0
        ));
    }
    outcome.set("trace.overhead_share", traced_p50 / plain_p50_ms - 1.0);
    let local_us = count_checked(&run.pairs, outcome);
    outcome.set("eval.xnn.host_us", median(&local_us));
    let captured: Vec<SharedResult> = run
        .pairs
        .iter()
        .take(4096)
        .map(|(_, r)| Arc::clone(r))
        .collect();
    let (encode, decode) = codec_layers(&captured)?;
    outcome.set("serve.binary.encode_us", encode);
    outcome.set("serve.binary.decode_us", decode);
    Ok(())
}

/// `open_loop_mixed` specs: the three-tenant class mix, half repeats from a
/// skewed per-class hot set and half fresh.
pub struct MixedSpecs {
    rng: Lcg,
    hot: [Vec<WorkloadSpec>; 3],
    fresh: usize,
}

impl MixedSpecs {
    /// A stream drawn from `seed`.
    pub fn new(seed: u64) -> Self {
        let mut rng = Lcg::new(seed ^ 0x5EED_0002);
        let hot = std::array::from_fn(|class| {
            (0..HOT_PER_CLASS)
                .map(|key| class_spec(Priority::ALL[class], key, &mut rng))
                .collect()
        });
        MixedSpecs {
            rng,
            hot,
            fresh: HOT_PER_CLASS,
        }
    }

    /// The next arrival's class and spec.
    pub fn draw(&mut self) -> (Priority, WorkloadSpec) {
        let mix = scenario_mix();
        let total: u64 = mix.iter().map(|c| c.weight).sum();
        let mut draw = below(&mut self.rng, total);
        let class = mix
            .iter()
            .find(|c| {
                let hit = draw < c.weight;
                draw = draw.saturating_sub(c.weight);
                hit
            })
            .unwrap_or(&mix[mix.len() - 1]);
        let priority = class.priority;
        if below(&mut self.rng, 2) == 0 {
            // Skewed: squaring a uniform draw favours the low indices.
            let u = (self.rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            let index = ((u * u) * HOT_PER_CLASS as f64) as usize;
            (priority, self.hot[priority.index()][index].clone())
        } else {
            self.fresh += 1;
            (priority, class_spec(priority, self.fresh, &mut self.rng))
        }
    }
}

/// The spec shape each tenant asks for, keyed by `key` (as in the
/// `loadgen` mix: encoder layers, whole models, GEMM sweeps).
fn class_spec(priority: Priority, key: usize, rng: &mut Lcg) -> WorkloadSpec {
    match priority {
        Priority::High => WorkloadSpec::EncoderLayer {
            cfg: BertConfig::bert_large(64 + key, 1 + below(rng, 8) as usize),
        },
        Priority::Normal => WorkloadSpec::FullModel {
            cfg: BertConfig::bert_large(32 + key, 1 + below(rng, 16) as usize),
        },
        Priority::Low => WorkloadSpec::SquareGemm { n: 256 + key },
    }
}

/// One request of an open-loop window.
struct Arrival {
    due: Duration,
    spec: WorkloadSpec,
    priority: Priority,
    submitted: Option<Duration>,
    done: Option<Duration>,
    result: Option<SharedResult>,
    responses: usize,
}

/// Injects `arrivals` on their schedule from this thread, polling
/// outstanding responses between arrivals.  Every time is measured from
/// the returned window start; latency runs from each arrival's *scheduled*
/// instant.  The generator spins (yielding) rather than sleeping: a sleep
/// would delay noticing completions by up to the sleep.
fn open_loop_window(client: &EvalService, arrivals: &mut [Arrival]) -> Instant {
    let start = Instant::now();
    let mut outstanding: Vec<(usize, ResponseHandle)> = Vec::new();
    // Answered handles are re-checked for a second answer once they are
    // `RECHECK_AFTER` old, then dropped; the service's completion count
    // covers anything later.
    let mut answered: VecDeque<(Duration, usize, ResponseHandle)> = VecDeque::new();
    let poll = |outstanding: &mut Vec<(usize, ResponseHandle)>,
                answered: &mut VecDeque<(Duration, usize, ResponseHandle)>,
                arrivals: &mut [Arrival],
                flush: bool| {
        let mut i = 0;
        while i < outstanding.len() {
            if let Some(response) = outstanding[i].1.wait_timeout(Duration::ZERO) {
                let now = start.elapsed();
                let (index, handle) = outstanding.swap_remove(i);
                let arrival = &mut arrivals[index];
                arrival.done = Some(now);
                arrival.responses += 1;
                arrival.result =
                    (response.results.len() == 1).then(|| Arc::clone(&response.results[0].1));
                answered.push_back((now, index, handle));
            } else {
                i += 1;
            }
        }
        let now = start.elapsed();
        while let Some((at, index, handle)) = answered.front() {
            if !flush && now.saturating_sub(*at) < RECHECK_AFTER {
                break;
            }
            if handle.wait_timeout(Duration::ZERO).is_some() {
                arrivals[*index].responses += 1;
            }
            answered.pop_front();
        }
    };
    for index in 0..arrivals.len() {
        let due = arrivals[index].due;
        while start.elapsed() < due {
            poll(&mut outstanding, &mut answered, arrivals, false);
            std::thread::yield_now();
        }
        let arrival = &mut arrivals[index];
        let handle =
            client.submit(EvalRequest::all(arrival.spec.clone()).with_priority(arrival.priority));
        arrival.submitted = Some(start.elapsed());
        outstanding.push((index, handle));
    }
    let deadline = Instant::now() + DRAIN_TIMEOUT;
    while !outstanding.is_empty() && Instant::now() < deadline {
        poll(&mut outstanding, &mut answered, arrivals, false);
        std::thread::yield_now();
    }
    std::thread::sleep(RECHECK_AFTER);
    poll(&mut outstanding, &mut answered, arrivals, true);
    start
}

fn schedule(options: &Options, seconds: f64, salt: u64) -> Vec<Arrival> {
    let mut rng = Lcg::new(options.seed ^ salt);
    let mut specs = MixedSpecs::new(options.seed ^ salt);
    arrival_schedule(
        ArrivalProcess::Poisson,
        OPEN_LOOP_RATE_HZ,
        Duration::from_secs_f64(seconds),
        &mut rng,
    )
    .into_iter()
    .map(|due| {
        let (priority, spec) = specs.draw();
        Arrival {
            due,
            spec,
            priority,
            submitted: None,
            done: None,
            result: None,
            responses: 0,
        }
    })
    .collect()
}

/// Open-loop end-to-end numbers of one window; returns the latency p50.
fn open_loop_metrics(arrivals: &[Arrival], outcome: &mut Outcome) -> f64 {
    let latencies: Vec<f64> = arrivals
        .iter()
        .filter_map(|a| Some(ms(a.done?.saturating_sub(a.due))))
        .collect();
    let lags: Vec<f64> = arrivals
        .iter()
        .filter_map(|a| Some(ms(a.submitted?.saturating_sub(a.due))))
        .collect();
    let ok = arrivals
        .iter()
        .filter(|a| a.result.as_ref().is_some_and(|r| r.is_ok()))
        .count();
    // Answered operations over the window, which ends at the last answer.
    let span = arrivals
        .iter()
        .filter_map(|a| a.done)
        .max()
        .unwrap_or_default();
    let lag_p99 = quantile(&lags, 0.99);
    outcome.set("throughput_ops_s", ok as f64 / span.as_secs_f64());
    outcome.set("latency_p50_ms", median(&latencies));
    outcome.set("latency_p99_ms", quantile(&latencies, 0.99));
    outcome.set("loadgen.lag_p99_ms", lag_p99);
    outcome.notes.push(format!(
        "{} arrivals at {OPEN_LOOP_RATE_HZ}/s; latency from the scheduled instant",
        arrivals.len()
    ));
    if lag_p99 > MAX_LAG_P99_MS {
        outcome.problems.push(format!(
            "generator lag p99 {lag_p99:.3} ms exceeds {MAX_LAG_P99_MS} ms: the load was not offered on schedule"
        ));
    }
    median(&latencies)
}

/// Counts every arrival: answered exactly once with one result that is
/// bit-identical to an in-process evaluation.
fn check_arrivals(arrivals: Vec<Arrival>, outcome: &mut Outcome) -> Vec<f64> {
    let mut pairs = Vec::with_capacity(arrivals.len());
    for arrival in arrivals {
        match (arrival.responses, arrival.result) {
            (1, Some(result)) => pairs.push((arrival.spec, result)),
            _ => outcome.count(false),
        }
    }
    count_checked(&pairs, outcome)
}

/// Runs `open_loop_mixed`: Poisson single-spec arrivals with repeats.
pub fn run_open_loop_mixed(options: &Options) -> Outcome {
    let mut outcome = Outcome::default();
    let config = ServiceConfig {
        cache_capacity: Some(OPEN_LOOP_CACHE),
        ..ServiceConfig::default()
    };
    let (stack, setup_s) = match set_up(options.setup_repeats, false, &config) {
        Ok(built) => built,
        Err(e) => return Outcome::broken(e),
    };
    outcome.set("setup_s", setup_s);
    let seconds = if options.trace {
        options.seconds / 2.0
    } else {
        options.seconds
    };
    let mut plain = schedule(options, seconds, 1);
    let before = stack.snapshot();
    open_loop_window(&stack.client, &mut plain);
    let after = stack.snapshot();
    drop(stack);
    let plain_p50 = open_loop_metrics(&plain, &mut outcome);
    answered_exactly_once(&before, &after, plain.len(), &mut outcome);
    let captured: Vec<SharedResult> = plain
        .iter()
        .filter_map(|a| a.result.clone())
        .take(4096)
        .collect();
    check_arrivals(plain, &mut outcome);
    if options.trace {
        if let Err(e) = traced_open_loop(options, &config, seconds, plain_p50, &mut outcome) {
            outcome.problems.push(e);
        }
        match codec_layers(&captured) {
            Ok((encode, decode)) => {
                outcome.set("serve.binary.encode_us", encode);
                outcome.set("serve.binary.decode_us", decode);
            }
            Err(e) => outcome.problems.push(e),
        }
    }
    outcome
}

/// The traced window of an `open_loop_mixed` run, on its own traced stack
/// and a schedule of the same rate and mix.
fn traced_open_loop(
    options: &Options,
    config: &ServiceConfig,
    seconds: f64,
    plain_p50_ms: f64,
    outcome: &mut Outcome,
) -> Result<(), String> {
    let stack = Stack::build(true, config.clone())?;
    let mut traced = schedule(options, seconds, 2);
    let before = stack.snapshot();
    let start = open_loop_window(&stack.client, &mut traced);
    let after = stack.snapshot();
    let exchanges = stack.exchanges.take();
    let shard_evals = stack.shard_evals.take();
    drop(stack);
    let answered = traced.iter().filter(|a| a.result.is_some()).count() as u64;
    counter_layers(&before, &after, answered, outcome);
    let (queue_wait, in_exchange) = open_loop_stages(&traced, &exchanges, start);
    let ring_frames = after.pool.ring_exchanges - before.pool.ring_exchanges;
    call_layers(&exchanges, &shard_evals, &in_exchange, ring_frames, outcome);
    outcome.set("serve.service.queue_wait_ms", median(&queue_wait));
    let mut traced_outcome = Outcome::default();
    let traced_p50 = open_loop_metrics(&traced, &mut traced_outcome);
    outcome.set(
        "loadgen.lag_p99_ms",
        traced_outcome.get("loadgen.lag_p99_ms").unwrap_or(0.0),
    );
    outcome.problems.extend(traced_outcome.problems);
    outcome.set("trace.overhead_share", traced_p50 / plain_p50_ms - 1.0);
    answered_exactly_once(&before, &after, traced.len(), outcome);
    let local_us = check_arrivals(traced, outcome);
    outcome.set("eval.xnn.host_us", median(&local_us));
    Ok(())
}

/// The service's own accounting must agree: one submission and one
/// completion per offered arrival.
fn answered_exactly_once(
    before: &Snapshot,
    after: &Snapshot,
    offered: usize,
    outcome: &mut Outcome,
) {
    let submitted = after.client.submitted - before.client.submitted;
    let completed = after.client.completed - before.client.completed;
    if submitted != offered as u64 || completed != offered as u64 {
        outcome.problems.push(format!(
            "offered {offered} requests, service counted {submitted} submitted \
             and {completed} completed"
        ));
    }
}

/// Stages of answered open-loop requests: queue wait (latency from
/// submission minus the exchange that carried the request's spec; cache
/// hits and in-flight merges ride none) for every request, and the
/// exchange time of the requests that reached the wire.
fn open_loop_stages(
    arrivals: &[Arrival],
    exchanges: &[Call],
    start: Instant,
) -> (Vec<f64>, Vec<f64>) {
    let mut carried: HashMap<&WorkloadSpec, Vec<(Duration, Duration)>> = HashMap::new();
    for call in exchanges {
        let from = call.start.saturating_duration_since(start);
        for spec in &call.spec_list {
            carried
                .entry(spec)
                .or_default()
                .push((from, from + call.duration));
        }
    }
    let (mut queue_wait, mut in_exchange) = (Vec::new(), Vec::new());
    for arrival in arrivals {
        let (Some(submitted), Some(done)) = (arrival.submitted, arrival.done) else {
            continue;
        };
        let exchange = carried
            .get(&arrival.spec)
            .and_then(|spans| spans.iter().find(|(s, e)| *s >= submitted && *e <= done))
            .map(|(s, e)| *e - *s);
        if let Some(exchange) = exchange {
            in_exchange.push(ms(exchange));
        }
        let latency = done.saturating_sub(submitted);
        queue_wait.push(ms(latency.saturating_sub(exchange.unwrap_or_default())));
    }
    (queue_wait, in_exchange)
}
