//! The execution engine.
//!
//! RSN execution is decentralised: every FU works through its own uOP queue
//! and synchronises with its neighbours only through streams (§3.1).  The
//! engine supports two scheduling disciplines over the same FU step model:
//!
//! * [`SchedulerKind::EventDriven`] (the default) keeps a ready queue keyed
//!   on stream readiness.  An FU is serviced only when it might be able to
//!   move: after receiving uOPs, or after a neighbour on one of its streams
//!   made progress (freeing space downstream or producing tokens upstream).
//!   Idle FUs cost zero work per scheduler step, so large multi-segment runs
//!   touch only the active region of the datapath.
//! * [`SchedulerKind::RoundRobin`] is the original cooperative scheduler:
//!   each *pass* gives the decoder and every FU one chance to make progress.
//!   It is retained as the semantic reference — the equivalence tests assert
//!   that both disciplines retire identical uOP counts and cycle totals.
//!
//! Under either discipline, a state in which nothing can move while work
//! remains is a deadlock; a state in which everything is idle and drained
//! terminates the run.
//!
//! Cycle accounting is per-FU: each FU reports how many of its own clock
//! cycles a step consumed, and the engine keeps per-FU busy counters.  Since
//! FUs charge cycles per token moved (not per service call), the per-FU busy
//! totals — and therefore the makespan estimate — are independent of the
//! scheduling discipline.  The makespan estimate (the maximum busy counter)
//! is a coarse lower bound used by tests; the calibrated latency numbers of
//! the evaluation come from the analytic timing model in `rsn-xnn`.

use crate::decoder::{DecoderStats, DecoderSystem};
use crate::error::RsnError;
use crate::fu::{FuId, StepOutcome};
use crate::isa::Packet;
use crate::network::Datapath;
use crate::program::Program;
use crate::stream::StreamStats;
use crate::uop::Uop;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::sync::Arc;

/// Default bound on engine scheduler steps before aborting a run.
pub const DEFAULT_STEP_LIMIT: u64 = 50_000_000;

/// Which scheduling discipline drives the FUs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum SchedulerKind {
    /// Ready-queue scheduler keyed on stream readiness (the default).
    #[default]
    EventDriven,
    /// The original poll-everyone-per-pass scheduler, kept as the semantic
    /// reference for equivalence tests.
    RoundRobin,
}

/// Summary of one engine run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Scheduler iterations executed: round-robin passes, or event-driven
    /// queue services.  Comparable only within one scheduler kind.
    pub steps: u64,
    /// Total `FunctionalUnit::step` invocations.  This is the
    /// scheduler-neutral work metric: round-robin charges one call per FU
    /// per pass, the event-driven scheduler only per ready FU.
    pub fu_step_calls: u64,
    /// Scheduler that produced this report.
    pub scheduler: SchedulerKind,
    /// Per-FU busy cycles (indexed by FU id).
    pub fu_busy_cycles: Vec<u64>,
    /// Per-FU retired uOP counts (indexed by FU id).
    pub fu_uops_retired: Vec<u64>,
    /// Decoder statistics, if the run was driven from instruction packets.
    pub decoder: Option<DecoderStats>,
    /// Aggregate statistics of every stream edge.
    pub stream_stats: Vec<(Arc<str>, StreamStats)>,
    /// Tokens left in flight when the run ended (should be zero for a
    /// well-formed program).
    pub residual_tokens: usize,
}

impl RunReport {
    /// Coarse makespan estimate: the largest per-FU busy-cycle count.
    pub fn makespan_cycles(&self) -> u64 {
        self.fu_busy_cycles.iter().copied().max().unwrap_or(0)
    }

    /// Total FP32-equivalent words moved over all streams.
    pub fn total_words_transferred(&self) -> u64 {
        self.stream_stats
            .iter()
            .map(|(_, s)| s.words_transferred)
            .sum()
    }

    /// Total uOPs retired across all FUs.
    pub fn total_uops_retired(&self) -> u64 {
        self.fu_uops_retired.iter().sum()
    }
}

/// Ready-queue scheduler state derived from the datapath's stream wiring
/// (fixed at construction), built lazily on the first event-driven run and
/// reused across runs.  A segmented workload (the encoder host runs one
/// engine per machine, many segment programs through it) would otherwise
/// pay one `Vec` allocation per FU per run just to rediscover the same
/// topology.
#[derive(Debug, Default)]
struct SchedState {
    /// Flattened wake lists: for FU `i`,
    /// `wake_flat[wake_offsets[i]..wake_offsets[i + 1]]` are the FUs to
    /// re-enqueue when `i` progresses (consumers of its outputs — new
    /// tokens — and producers of its inputs — freed capacity).
    wake_flat: Vec<usize>,
    wake_offsets: Vec<usize>,
    /// Per-slot "already in the ready queue" flags (last slot: decoder).
    queued: Vec<bool>,
    /// Per-FU "returned Blocked at last service" flags (deadlock report).
    blocked: Vec<bool>,
    /// The ready queue itself.
    ready: VecDeque<usize>,
}

/// The RSN execution engine.
#[derive(Debug)]
pub struct Engine {
    datapath: Datapath,
    decoder: Option<DecoderSystem>,
    /// Per-FU unbounded uOP backlogs, indexed by FU id.  A `Vec` rather
    /// than a map: the scheduler probes one FU's backlog before every
    /// step, so the probe must be an indexed load, not a tree walk.
    backlog: Vec<VecDeque<Uop>>,
    /// Total uOPs across all backlogs, so emptiness checks are one
    /// comparison on the scheduler hot path.
    backlog_pending: usize,
    step_limit: u64,
    scheduler: SchedulerKind,
    /// Cached event-driven scheduler state (see [`SchedState`]).
    sched: Option<SchedState>,
}

impl Engine {
    /// Creates an engine over a validated datapath, using the event-driven
    /// scheduler.
    pub fn new(datapath: Datapath) -> Self {
        let backlog = (0..datapath.fu_count()).map(|_| VecDeque::new()).collect();
        Self {
            datapath,
            decoder: None,
            backlog,
            backlog_pending: 0,
            step_limit: DEFAULT_STEP_LIMIT,
            scheduler: SchedulerKind::default(),
            sched: None,
        }
    }

    /// Replaces the scheduler-step budget (mainly useful to force the
    /// step-limit error in tests).
    pub fn with_step_limit(mut self, limit: u64) -> Self {
        self.step_limit = limit;
        self
    }

    /// Selects the scheduling discipline (builder form).
    pub fn with_scheduler(mut self, scheduler: SchedulerKind) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Selects the scheduling discipline on an existing engine.
    pub fn set_scheduler(&mut self, scheduler: SchedulerKind) {
        self.scheduler = scheduler;
    }

    /// The active scheduling discipline.
    pub fn scheduler(&self) -> SchedulerKind {
        self.scheduler
    }

    /// The underlying datapath.
    pub fn datapath(&self) -> &Datapath {
        &self.datapath
    }

    /// Consumes the engine and returns the datapath (with its post-run FU
    /// state).
    pub fn into_datapath(self) -> Datapath {
        self.datapath
    }

    /// Borrows a concrete FU for state inspection.
    pub fn fu<T: 'static>(&self, id: FuId) -> Option<&T> {
        self.datapath.fu_as(id)
    }

    /// Mutably borrows a concrete FU, e.g. to preload input data or read out
    /// and reset statistics between runs.
    pub fn fu_mut<T: 'static>(&mut self, id: FuId) -> Option<&mut T> {
        self.datapath.fu_as_mut(id)
    }

    /// Queues a uOP for delivery to `fu`.
    ///
    /// Delivery is through an unbounded per-FU backlog that tops up the FU's
    /// bounded uOP FIFO as space becomes available, which models an FU whose
    /// uOP sequence is stored locally (the paper's AIE MMEs).
    pub fn push_uop(&mut self, fu: FuId, uop: Uop) {
        self.backlog[fu.index()].push_back(uop);
        self.backlog_pending += 1;
    }

    /// Queues a whole per-FU program.
    pub fn load_program(&mut self, program: &Program) {
        for (fu, uops) in program.iter() {
            self.backlog[fu.index()].extend(uops.iter().cloned());
            self.backlog_pending += uops.len();
        }
    }

    /// Drives the run from an RSN instruction packet stream through the
    /// three-level decoder instead of (or in addition to) direct uOP
    /// backlogs.
    pub fn load_packets(&mut self, packets: Vec<Packet>) {
        self.decoder = Some(DecoderSystem::new(&self.datapath, packets));
    }

    /// Same as [`Engine::load_packets`] but with an explicit decoder FIFO
    /// depth (used to reproduce the §3.3 deadlock discussion).
    pub fn load_packets_with_fifo_depth(&mut self, packets: Vec<Packet>, depth: usize) {
        self.decoder = Some(DecoderSystem::with_fifo_depth(
            &self.datapath,
            packets,
            depth,
        ));
    }

    fn feed_backlogs(&mut self) -> u64 {
        if self.backlog_pending == 0 {
            return 0;
        }
        let mut moved = 0;
        for i in 0..self.backlog.len() {
            moved += self.feed_backlog_for(FuId(i));
        }
        moved
    }

    /// Tops up one FU's uOP FIFO from its backlog; returns uOPs delivered.
    /// Called before every scheduler step of a serviced FU, so the common
    /// cases are one comparison (no backlog anywhere) or one comparison
    /// plus an indexed load (this FU's backlog is empty).
    fn feed_backlog_for(&mut self, fu: FuId) -> u64 {
        if self.backlog_pending == 0 {
            return 0;
        }
        let queue = &mut self.backlog[fu.index()];
        let mut moved = 0;
        while !queue.is_empty() {
            let target = self.datapath.fu_mut(fu);
            if target.uop_queue().is_full() {
                break;
            }
            let uop = queue.pop_front().expect("backlog checked non-empty");
            target.push_uop(uop).expect("queue space checked above");
            moved += 1;
        }
        self.backlog_pending -= moved as usize;
        moved
    }

    fn finish_report(&mut self, steps: u64, fu_step_calls: u64, busy: Vec<u64>) -> RunReport {
        let fu_count = self.datapath.fu_count();
        let fu_uops_retired = (0..fu_count)
            .map(|i| self.datapath.fu_mut(FuId(i)).uop_queue().retired())
            .collect();
        let stream_stats = self
            .datapath
            .streams()
            .iter()
            .map(|(_, ch)| (Arc::clone(&ch.name), ch.stats()))
            .collect();
        RunReport {
            steps,
            fu_step_calls,
            scheduler: self.scheduler,
            fu_busy_cycles: busy,
            fu_uops_retired,
            decoder: self.decoder.as_ref().map(DecoderSystem::stats),
            stream_stats,
            residual_tokens: self.datapath.streams().total_queued(),
        }
    }

    /// Runs until every FU is idle, all streams are drained of producer
    /// work, and the decoder (if any) has issued every uOP.
    ///
    /// # Errors
    ///
    /// * [`RsnError::Deadlock`] if no progress is possible while work
    ///   remains (stream backpressure cycle or decoder-order deadlock).
    /// * [`RsnError::StepLimitExceeded`] if the scheduler-step budget is
    ///   exhausted.
    pub fn run(&mut self) -> Result<RunReport, RsnError> {
        match self.scheduler {
            SchedulerKind::RoundRobin => self.run_round_robin(),
            SchedulerKind::EventDriven => self.run_event_driven(),
        }
    }

    /// The original poll-everyone scheduler (see [`SchedulerKind`]).
    fn run_round_robin(&mut self) -> Result<RunReport, RsnError> {
        let fu_count = self.datapath.fu_count();
        let mut busy = vec![0u64; fu_count];
        let mut steps = 0u64;
        let mut fu_step_calls = 0u64;
        loop {
            if steps >= self.step_limit {
                return Err(RsnError::StepLimitExceeded {
                    limit: self.step_limit,
                });
            }
            steps += 1;
            let mut progressed = false;
            let mut any_pending = false;

            if self.feed_backlogs() > 0 {
                progressed = true;
            }
            if self.backlog_pending > 0 {
                any_pending = true;
            }

            if let Some(decoder) = self.decoder.as_mut() {
                match decoder.step(&mut self.datapath) {
                    StepOutcome::Progress { .. } => progressed = true,
                    StepOutcome::Blocked => any_pending = true,
                    StepOutcome::Idle => {}
                }
            }

            let mut blocked_names: Vec<String> = Vec::new();
            {
                let (fus, streams) = self.datapath.split_mut();
                for (i, fu) in fus.iter_mut().enumerate() {
                    fu_step_calls += 1;
                    match fu.step(streams) {
                        StepOutcome::Progress { cycles } => {
                            busy[i] += cycles;
                            progressed = true;
                        }
                        StepOutcome::Blocked => {
                            any_pending = true;
                            blocked_names.push(fu.name().to_string());
                        }
                        StepOutcome::Idle => {
                            if !fu.is_idle() {
                                any_pending = true;
                            }
                        }
                    }
                }
            }

            if !progressed {
                if any_pending {
                    return Err(RsnError::Deadlock {
                        step: steps,
                        blocked: blocked_names,
                    });
                }
                break;
            }
        }
        Ok(self.finish_report(steps, fu_step_calls, busy))
    }

    /// The event-driven ready-queue scheduler (see [`SchedulerKind`]).
    ///
    /// Invariants:
    /// * every FU holding deliverable work is either in the ready queue or
    ///   recorded as blocked;
    /// * a blocked FU is re-enqueued whenever a neighbour on one of its
    ///   streams progresses (tokens appeared upstream or space freed
    ///   downstream) or new uOPs reach it;
    /// * the decoder is re-enqueued whenever any FU progresses (retired
    ///   uOPs free the third-level FIFOs the decoder may be stalled on).
    fn run_event_driven(&mut self) -> Result<RunReport, RsnError> {
        let fu_count = self.datapath.fu_count();

        // Take the cached scheduler state (or build it on the first run) —
        // the datapath's wiring is fixed, so the wake topology never
        // changes and the per-run cost is a few `fill(false)` passes
        // instead of one allocation per FU.
        let mut sched = match self.sched.take() {
            Some(state) if state.blocked.len() == fu_count => state,
            _ => self.build_sched_state(),
        };
        let SchedState {
            wake_flat,
            wake_offsets,
            queued,
            blocked,
            ready,
        } = &mut sched;
        queued.fill(false);
        blocked.fill(false);
        ready.clear();

        // Ready queue over FU indices; `fu_count` is the decoder's slot.
        let decoder_slot = fu_count;
        let enqueue = |ready: &mut VecDeque<usize>, queued: &mut Vec<bool>, slot: usize| {
            if !queued[slot] {
                queued[slot] = true;
                ready.push_back(slot);
            }
        };

        let mut busy = vec![0u64; fu_count];
        let mut steps = 0u64;
        let mut fu_step_calls = 0u64;

        // Seed: deliver initial backlogs, then give everything one chance.
        self.feed_backlogs();
        for i in 0..fu_count {
            enqueue(ready, queued, i);
        }
        if self.decoder.is_some() {
            enqueue(ready, queued, decoder_slot);
        }

        // Each queue service runs its FU (or the decoder) **to
        // quiescence**: step until Blocked/Idle, then wake the neighbours
        // once.  Compared with one-step-per-service this removes the
        // dominant per-service overhead on dense datapaths — the
        // self-re-enqueue after every productive step, plus a neighbour +
        // decoder wake per step instead of per burst — while preserving
        // the sparse-datapath win (idle FUs are still never serviced).
        // Liveness is unchanged: an FU stops only when it genuinely cannot
        // move, and everything that could unblock it (neighbour progress,
        // decoder delivery, backlog feed) re-enqueues it.
        let mut touched: Vec<FuId> = Vec::new();
        while let Some(slot) = ready.pop_front() {
            queued[slot] = false;

            if slot == decoder_slot {
                let mut progressed = false;
                // Drain the decoder's in-order window in one service.
                while let Some(decoder) = self.decoder.as_mut() {
                    if steps >= self.step_limit {
                        return Err(RsnError::StepLimitExceeded {
                            limit: self.step_limit,
                        });
                    }
                    steps += 1;
                    match decoder.step_collect(&mut self.datapath, &mut touched) {
                        StepOutcome::Progress { .. } => progressed = true,
                        StepOutcome::Blocked | StepOutcome::Idle => break,
                    }
                }
                if progressed {
                    // `touched` may repeat FUs across the burst; `queued`
                    // already deduplicates the enqueue.
                    for id in touched.drain(..) {
                        blocked[id.index()] = false;
                        enqueue(ready, queued, id.index());
                    }
                } else {
                    touched.clear();
                }
                continue;
            }

            let mut progressed = false;
            loop {
                if steps >= self.step_limit {
                    return Err(RsnError::StepLimitExceeded {
                        limit: self.step_limit,
                    });
                }
                steps += 1;
                // Top up the FU's uOP FIFO from its backlog before each
                // step so a retire-then-refill sequence stays inside one
                // service (an O(1) indexed probe — see `feed_backlog_for`).
                self.feed_backlog_for(FuId(slot));
                let (fus, streams) = self.datapath.split_mut();
                fu_step_calls += 1;
                match fus[slot].step(streams) {
                    StepOutcome::Progress { cycles } => {
                        busy[slot] += cycles;
                        progressed = true;
                    }
                    StepOutcome::Blocked => {
                        blocked[slot] = true;
                        break;
                    }
                    StepOutcome::Idle => {
                        blocked[slot] = false;
                        break;
                    }
                }
            }
            if progressed {
                for &neighbour in &wake_flat[wake_offsets[slot]..wake_offsets[slot + 1]] {
                    blocked[neighbour] = false;
                    enqueue(ready, queued, neighbour);
                }
                if self.decoder.is_some() {
                    enqueue(ready, queued, decoder_slot);
                }
            }
        }

        // Queue drained: either everything completed or nothing can move.
        let decoder_pending = self.decoder.as_ref().is_some_and(|d| !d.is_drained());
        let work_remains = self.backlog_pending > 0
            || decoder_pending
            || (0..fu_count).any(|i| !self.datapath.fus[i].is_idle());
        if work_remains {
            let blocked_names = (0..fu_count)
                .filter(|&i| blocked[i])
                .map(|i| self.datapath.fus[i].name().to_string())
                .collect();
            return Err(RsnError::Deadlock {
                step: steps,
                blocked: blocked_names,
            });
        }
        // Park the scheduler state for the next run (error paths rebuild).
        self.sched = Some(sched);
        Ok(self.finish_report(steps, fu_step_calls, busy))
    }

    /// Builds the event-driven scheduler's topology-derived state (see
    /// [`SchedState`]) — two flat allocations instead of one `Vec` per FU.
    fn build_sched_state(&self) -> SchedState {
        let fu_count = self.datapath.fu_count();
        // Stream topology: who produces into / consumes from each edge.
        let stream_count = self.datapath.stream_count();
        let mut producer_of: Vec<Option<usize>> = vec![None; stream_count];
        let mut consumer_of: Vec<Option<usize>> = vec![None; stream_count];
        for i in 0..fu_count {
            for s in self.datapath.fus[i].output_streams() {
                producer_of[s.index()] = Some(i);
            }
            for s in self.datapath.fus[i].input_streams() {
                consumer_of[s.index()] = Some(i);
            }
        }
        // FUs to wake when FU `i` progresses: the consumers of its outputs
        // (new tokens) and the producers of its inputs (freed capacity).
        let mut wake_flat = Vec::new();
        let mut wake_offsets = Vec::with_capacity(fu_count + 1);
        wake_offsets.push(0);
        let mut wake: Vec<usize> = Vec::new();
        for i in 0..fu_count {
            wake.clear();
            for s in self.datapath.fus[i].output_streams() {
                if let Some(c) = consumer_of[s.index()] {
                    wake.push(c);
                }
            }
            for s in self.datapath.fus[i].input_streams() {
                if let Some(p) = producer_of[s.index()] {
                    wake.push(p);
                }
            }
            wake.sort_unstable();
            wake.dedup();
            wake_flat.extend_from_slice(&wake);
            wake_offsets.push(wake_flat.len());
        }
        SchedState {
            wake_flat,
            wake_offsets,
            queued: vec![false; fu_count + 1],
            blocked: vec![false; fu_count],
            ready: VecDeque::with_capacity(fu_count + 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fus::{MapFu, MemSinkFu, MemSourceFu};
    use crate::network::DatapathBuilder;

    fn pipeline(n: usize) -> (Engine, FuId, FuId, FuId) {
        let mut b = DatapathBuilder::new();
        let s1 = b.add_stream("s1", 4);
        let s2 = b.add_stream("s2", 4);
        let input: Vec<f32> = (0..n).map(|x| x as f32).collect();
        let src = b.add_fu(MemSourceFu::new("FU1", input, vec![s1]));
        let map = b.add_fu(MapFu::new("FU2", s1, s2, |x| x + 1.0));
        let sink = b.add_fu(MemSinkFu::new("FU3", n, vec![s2]));
        (Engine::new(b.build().unwrap()), src, map, sink)
    }

    #[test]
    fn program_and_packet_paths_give_identical_results() {
        let n = 100;
        // Direct backlog path.
        let (mut e1, src, map, sink) = pipeline(n);
        let mut program = Program::new();
        program.push(src, Uop::new("read", [0, n as i64, 0]));
        program.push(map, Uop::new("map", [n as i64]));
        program.push(sink, Uop::new("write", [0, n as i64, 0]));
        e1.load_program(&program);
        let r1 = e1.run().unwrap();
        let out1 = e1.fu::<MemSinkFu>(sink).unwrap().memory().to_vec();

        // Packet/decoder path.
        let (mut e2, src2, map2, sink2) = pipeline(n);
        let mut program2 = Program::new();
        program2.push(src2, Uop::new("read", [0, n as i64, 0]));
        program2.push(map2, Uop::new("map", [n as i64]));
        program2.push(sink2, Uop::new("write", [0, n as i64, 0]));
        let packets = program2.compress(e2.datapath()).unwrap();
        e2.load_packets(packets);
        let r2 = e2.run().unwrap();
        let out2 = e2.fu::<MemSinkFu>(sink2).unwrap().memory().to_vec();

        assert_eq!(out1, out2);
        assert_eq!(r1.total_uops_retired(), r2.total_uops_retired());
        assert!(r2.decoder.unwrap().uops_issued >= 3);
        assert_eq!(r1.residual_tokens, 0);
        assert_eq!(r2.residual_tokens, 0);
    }

    #[test]
    fn schedulers_agree_on_results_and_cycles() {
        let n = 256;
        let run = |kind: SchedulerKind| {
            let (engine, src, map, sink) = pipeline(n);
            let mut engine = engine.with_scheduler(kind);
            engine.push_uop(src, Uop::new("read", [0, n as i64, 0]));
            engine.push_uop(map, Uop::new("map", [n as i64]));
            engine.push_uop(sink, Uop::new("write", [0, n as i64, 0]));
            let report = engine.run().unwrap();
            let out = engine.fu::<MemSinkFu>(sink).unwrap().memory().to_vec();
            (report, out)
        };
        let (rr, out_rr) = run(SchedulerKind::RoundRobin);
        let (ed, out_ed) = run(SchedulerKind::EventDriven);
        assert_eq!(out_rr, out_ed);
        assert_eq!(rr.fu_uops_retired, ed.fu_uops_retired);
        // Cycle accounting is per token moved, so the busy totals (and the
        // makespan) are schedule-independent.
        assert_eq!(rr.fu_busy_cycles, ed.fu_busy_cycles);
        assert_eq!(rr.makespan_cycles(), ed.makespan_cycles());
    }

    #[test]
    fn event_driven_does_less_work_than_round_robin() {
        // Many parallel chains, only one of which has work — the typical
        // shape of a segmented encoder run, where most lanes of the datapath
        // sit idle during any one segment.  Round-robin polls every FU every
        // pass; the ready queue never services the idle chains after their
        // first (empty) visit.
        let n = 400usize;
        let chains = 8usize;
        let build = |kind: SchedulerKind| {
            let mut b = DatapathBuilder::new();
            let mut first = None;
            for c in 0..chains {
                let s1 = b.add_stream(format!("c{c}s1"), 4);
                let s2 = b.add_stream(format!("c{c}s2"), 4);
                let input: Vec<f32> = (0..n).map(|x| x as f32).collect();
                let src = b.add_fu(MemSourceFu::new(format!("src{c}"), input, vec![s1]));
                let map = b.add_fu(MapFu::new(format!("map{c}"), s1, s2, |x| x + 1.0));
                let sink = b.add_fu(MemSinkFu::new(format!("sink{c}"), n, vec![s2]));
                if c == 0 {
                    first = Some((src, map, sink));
                }
            }
            let (src, map, sink) = first.expect("chain 0 built");
            let mut engine = Engine::new(b.build().unwrap()).with_scheduler(kind);
            engine.push_uop(src, Uop::new("read", [0, n as i64, 0]));
            engine.push_uop(map, Uop::new("map", [n as i64]));
            engine.push_uop(sink, Uop::new("write", [0, n as i64, 0]));
            engine
        };
        let rr = build(SchedulerKind::RoundRobin).run().unwrap();
        let ed = build(SchedulerKind::EventDriven).run().unwrap();
        assert_eq!(rr.fu_busy_cycles, ed.fu_busy_cycles);
        assert!(
            ed.fu_step_calls * 2 < rr.fu_step_calls,
            "event-driven {} vs round-robin {}",
            ed.fu_step_calls,
            rr.fu_step_calls
        );
    }

    #[test]
    fn mismatched_send_receive_counts_deadlock() {
        // FU3 expects 8 tokens but FU1 only sends 4: the paper's
        // "receives exceed sends" case blocks indefinitely.
        for kind in [SchedulerKind::RoundRobin, SchedulerKind::EventDriven] {
            let (engine, src, map, sink) = pipeline(8);
            let mut engine = engine.with_scheduler(kind);
            engine.push_uop(src, Uop::new("read", [0, 4, 0]));
            engine.push_uop(map, Uop::new("map", [4]));
            engine.push_uop(sink, Uop::new("write", [0, 8, 0]));
            let err = engine.run().unwrap_err();
            assert!(matches!(err, RsnError::Deadlock { .. }), "{kind:?}");
        }
    }

    #[test]
    fn excess_sends_leave_residual_tokens() {
        // FU1 sends 8 but FU3 only receives 4; the run completes (nothing is
        // blocked forever because channel capacity suffices) and the report
        // flags the leftover tokens.
        for kind in [SchedulerKind::RoundRobin, SchedulerKind::EventDriven] {
            let mut b = DatapathBuilder::new();
            let s1 = b.add_stream("s1", 16);
            let s2 = b.add_stream("s2", 16);
            let src = b.add_fu(MemSourceFu::new("FU1", vec![1.0; 8], vec![s1]));
            let map = b.add_fu(MapFu::new("FU2", s1, s2, |x| x));
            let sink = b.add_fu(MemSinkFu::new("FU3", 8, vec![s2]));
            let mut engine = Engine::new(b.build().unwrap()).with_scheduler(kind);
            engine.push_uop(src, Uop::new("read", [0, 8, 0]));
            engine.push_uop(map, Uop::new("map", [8]));
            engine.push_uop(sink, Uop::new("write", [0, 4, 0]));
            let report = engine.run().unwrap();
            assert_eq!(report.residual_tokens, 4, "{kind:?}");
        }
    }

    #[test]
    fn step_limit_is_enforced() {
        for kind in [SchedulerKind::RoundRobin, SchedulerKind::EventDriven] {
            let (engine, src, map, sink) = pipeline(64);
            let mut engine = engine.with_scheduler(kind).with_step_limit(2);
            engine.push_uop(src, Uop::new("read", [0, 64, 0]));
            engine.push_uop(map, Uop::new("map", [64]));
            engine.push_uop(sink, Uop::new("write", [0, 64, 0]));
            assert_eq!(
                engine.run().unwrap_err(),
                RsnError::StepLimitExceeded { limit: 2 },
                "{kind:?}"
            );
        }
    }

    #[test]
    fn report_metrics_are_consistent() {
        let (mut engine, src, map, sink) = pipeline(32);
        engine.push_uop(src, Uop::new("read", [0, 32, 0]));
        engine.push_uop(map, Uop::new("map", [32]));
        engine.push_uop(sink, Uop::new("write", [0, 32, 0]));
        let report = engine.run().unwrap();
        assert_eq!(report.total_uops_retired(), 3);
        // 32 scalars cross two edges.
        assert_eq!(report.total_words_transferred(), 64);
        assert!(report.makespan_cycles() >= 32);
        assert!(report.steps > 0);
        assert!(report.fu_step_calls > 0);
        assert_eq!(report.scheduler, SchedulerKind::EventDriven);
        assert_eq!(report.fu_busy_cycles.len(), 3);
    }

    #[test]
    fn small_decoder_fifo_reproduces_ordering_deadlock() {
        // Construct a packet order in which the fetch unit must deliver a
        // long producer sequence before the consumer's first uOP.  With a
        // tiny FU uOP FIFO and a tiny decoder FIFO the fetch stalls before
        // the consumer ever learns it should drain, which deadlocks at
        // depths 1–2; from depth 3 up to the default of six the same
        // program completes.
        fn build(depth: usize, kind: SchedulerKind) -> Result<RunReport, RsnError> {
            let mut b = DatapathBuilder::new();
            let s1 = b.add_stream("s1", 1);
            let s2 = b.add_stream("s2", 1);
            let src = b.add_fu(MemSourceFu::new("FU1", vec![1.0; 64], vec![s1]));
            let map = b.add_fu(MapFu::new("FU2", s1, s2, |x| x));
            let sink = b.add_fu(MemSinkFu::new("FU3", 64, vec![s2]));
            let mut p = Program::new();
            // Many distinct single-element reads so nothing compresses and
            // the source's packets alone overflow a shallow FIFO chain.
            for i in 0..32 {
                p.push(src, Uop::new("read", [0, 1, i]));
            }
            for _ in 0..32 {
                p.push(map, Uop::new("map", [1]));
            }
            for i in 0..32 {
                p.push(sink, Uop::new("write", [0, 1, i]));
            }
            let mut engine = Engine::new(b.build().unwrap()).with_scheduler(kind);
            let packets = p.compress(engine.datapath()).unwrap();
            engine.load_packets_with_fifo_depth(packets, depth);
            engine.run()
        }
        for kind in [SchedulerKind::RoundRobin, SchedulerKind::EventDriven] {
            for depth in 1..=2 {
                match build(depth, kind) {
                    Err(RsnError::Deadlock { blocked, .. }) => {
                        assert_eq!(blocked, ["FU2", "FU3"], "{kind:?} depth {depth}")
                    }
                    other => panic!("{kind:?} depth {depth}: expected a deadlock, got {other:?}"),
                }
            }
            for depth in 3..=6 {
                let run = build(depth, kind);
                assert!(run.is_ok(), "{kind:?} depth {depth}: {run:?}");
            }
        }
    }
}
