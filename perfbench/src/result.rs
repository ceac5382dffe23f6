//! Metric names, the outcome of one run, and its printed forms.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, measured with tracing off: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_ops_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run: `(name, unit)`.  Metrics of a layer
/// a workload does not reach read 0 (no samples, no counts).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sim_cycles_per_s", "1/s"),
    ("tables.render_ms", "ms"),
    ("eval.cycle.host_ms", "ms"),
    ("core.sim_cycles", "count"),
    ("core.fu_step_calls", "count"),
    ("core.host_ns_per_fu_step", "ns"),
    ("workloads.reference_ms", "ms"),
    ("eval.xnn.host_us", "us"),
    ("eval.cross_model_ratio", "ratio"),
    ("serve.service.queue_wait_ms", "ms"),
    ("serve.service.batch_size_mean", "count"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.cache.evictions", "count"),
    ("serve.cache.inflight_merged", "count"),
    ("serve.remote.exchange_ms.p50", "ms"),
    ("serve.remote.exchange_ms.p99", "ms"),
    ("serve.remote.specs_per_exchange", "count"),
    ("serve.pool.dials", "count"),
    ("serve.pool.redials", "count"),
    ("serve.pool.reuse_ratio", "ratio"),
    ("serve.shard.eval_us", "us"),
    ("serve.shard.service_ms", "ms"),
    ("serve.wire.overhead_ms", "ms"),
    ("serve.binary.encode_us", "us"),
    ("serve.binary.decode_us", "us"),
    ("serve.binary.rx_bytes_per_report", "bytes"),
    ("serve.binary.dict_hit_ratio", "ratio"),
    ("serve.shm.ring_share", "ratio"),
    ("loadgen.lag_p99_ms", "ms"),
    ("trace.overhead_share", "ratio"),
    ("trace.addback_error_share", "ratio"),
];

/// The outcome of one run: operation counts, run-level problems, and every
/// metric measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the measured window.
    pub attempted: u64,
    /// Of those, how many failed, were refused, or answered wrongly.
    pub failed: u64,
    /// Run-level failures that are not one operation's: leaked resources,
    /// an invalid load, a broken invariant.  Any entry makes the run
    /// incorrect.
    pub problems: Vec<String>,
    /// Sample counts and other context for the printed table.
    pub notes: Vec<String>,
    values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// An outcome for a run that could not start.
    pub fn broken(problem: String) -> Self {
        Outcome {
            problems: vec![problem],
            ..Outcome::default()
        }
    }

    /// Records one metric.
    ///
    /// # Panics
    ///
    /// Panics on a name missing from [`END_TO_END`] and [`PER_LAYER`]: the
    /// printed result must name only declared metrics.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(unit_of(name).is_some(), "undeclared metric {name}");
        self.values.insert(name, value);
    }

    /// A recorded metric, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Counts one operation, failed or not.
    pub fn count(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Whether every operation and every run-level check passed.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0 && self.problems.is_empty()
    }

    /// Failed operations over attempted ones.
    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// The one-line JSON result: end-to-end metrics untraced, per-layer
    /// metrics traced.  Unmeasured or non-finite values print as 0.
    pub fn json_line(&self, trace: bool) -> String {
        let list = if trace { PER_LAYER } else { END_TO_END };
        let metrics: Vec<String> = list
            .iter()
            .map(|(name, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    finite(self.get(name).unwrap_or(0.0))
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    /// A human-readable table of every metric this run measured.
    pub fn table(&self, workload: &str, trace: bool) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== {workload} ({}) ==",
            if trace { "traced" } else { "untraced" }
        );
        let row = |out: &mut String, name: &str, unit: &str, value: f64| {
            let _ = writeln!(out, "  {name:<34} {value:>16.6} {unit}");
        };
        row(&mut out, "failed_share", "ratio", self.failed_share());
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            if let Some(value) = self.get(name) {
                row(&mut out, name, unit, value);
            }
        }
        for note in &self.notes {
            let _ = writeln!(out, "  note: {note}");
        }
        for problem in &self.problems {
            let _ = writeln!(out, "  PROBLEM: {problem}");
        }
        out
    }
}

/// The unit of a declared metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| *unit)
}

fn finite(value: f64) -> f64 {
    if value.is_finite() {
        value
    } else {
        0.0
    }
}
