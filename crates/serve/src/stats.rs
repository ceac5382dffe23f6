//! Service observability: lock-free counters, per-priority-class latency
//! histograms, and their snapshot types.

use crate::request::Priority;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

// ---------------------------------------------------------------------------
// Log-bucket latency histogram
// ---------------------------------------------------------------------------

/// Sub-bucket resolution bits: each power-of-two octave of the value range
/// splits into `2^SUB_BITS` linear sub-buckets, so a bucket's width is at
/// most `1/2^SUB_BITS` (6.25%) of its lower bound — the histogram's
/// worst-case relative quantile error.
const SUB_BITS: u32 = 4;
const SUB: u64 = 1 << SUB_BITS;

/// Total bucket count: `SUB` exact buckets for values below `SUB` µs, then
/// `SUB` sub-buckets per octave up to `2^32` µs (≈ 71 minutes); anything
/// larger saturates into the last bucket.  Fixed across versions — the wire
/// form trims trailing zeros, so the constant can only ever grow.
pub const LATENCY_BUCKETS: usize = (SUB as usize) * (64 - SUB_BITS as usize - 31);

/// The bucket a microsecond value falls into.  Values `0..SUB` map one to
/// one; above that, the top `SUB_BITS` bits below the leading bit pick the
/// sub-bucket within the value's octave.
fn bucket_index(us: u64) -> usize {
    if us < SUB {
        return us as usize;
    }
    let msb = 63 - u64::from(us.leading_zeros());
    let octave = msb - u64::from(SUB_BITS) + 1;
    let sub = (us >> (msb - u64::from(SUB_BITS))) & (SUB - 1);
    ((octave * SUB + sub) as usize).min(LATENCY_BUCKETS - 1)
}

/// The largest microsecond value bucket `index` can hold (the histogram's
/// quantile estimates report this upper edge, so they err pessimistically
/// by at most one bucket width).
fn bucket_upper(index: usize) -> u64 {
    let index = index as u64;
    if index < SUB {
        return index;
    }
    let octave = index / SUB;
    let sub = index % SUB;
    let width = 1u64 << (octave - 1);
    (SUB + sub) * width + width - 1
}

/// A fixed log-bucket latency histogram (microsecond values, ≤ 6.25%
/// relative bucket width), the snapshot/wire form of the service's
/// per-priority-class sojourn recording.
///
/// Histograms merge losslessly (bucket-wise addition), so per-shard
/// snapshots aggregate into service-wide quantiles without re-recording.
/// The bucket vector is kept trimmed of trailing zeros — the canonical
/// form both codecs emit, which keeps idle classes nearly free on the
/// wire.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LatencyHistogram {
    /// Bucket counts, trailing zeros trimmed (`len() <= LATENCY_BUCKETS`).
    counts: Vec<u64>,
    /// Values recorded.
    pub count: u64,
    /// Sum of recorded values in microseconds (for exact means).
    pub sum_us: u64,
    /// Largest recorded value in microseconds (caps quantile estimates).
    pub max_us: u64,
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuilds a histogram from its wire parts.  Buckets beyond
    /// [`LATENCY_BUCKETS`] (a future, finer-grained peer) fold into the
    /// last bucket rather than failing the decode.
    pub fn from_parts(mut counts: Vec<u64>, count: u64, sum_us: u64, max_us: u64) -> Self {
        if counts.len() > LATENCY_BUCKETS {
            let overflow: u64 = counts.drain(LATENCY_BUCKETS..).sum();
            counts[LATENCY_BUCKETS - 1] += overflow;
        }
        while counts.last() == Some(&0) {
            counts.pop();
        }
        Self {
            counts,
            count,
            sum_us,
            max_us,
        }
    }

    /// The trimmed bucket counts (index `i` covers values up to
    /// `bucket upper(i)` µs).
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Records one duration.
    pub fn record(&mut self, latency: Duration) {
        let us = saturating_us(latency);
        let index = bucket_index(us);
        if self.counts.len() <= index {
            self.counts.resize(index + 1, 0);
        }
        self.counts[index] += 1;
        self.count += 1;
        self.sum_us = self.sum_us.saturating_add(us);
        self.max_us = self.max_us.max(us);
    }

    /// Adds another histogram's counts into this one (lossless: recording
    /// two streams separately and merging equals recording them together).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        if self.counts.len() < other.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum_us = self.sum_us.saturating_add(other.sum_us);
        self.max_us = self.max_us.max(other.max_us);
    }

    /// The `q`-quantile (`0.0..=1.0`) in microseconds: the upper edge of
    /// the bucket holding the `ceil(q·count)`-th value, capped at the true
    /// maximum.  `None` while empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (index, bucket) in self.counts.iter().enumerate() {
            seen += bucket;
            if seen >= rank {
                return Some(bucket_upper(index).min(self.max_us));
            }
        }
        Some(self.max_us)
    }

    /// Median estimate in microseconds; `None` while empty.
    pub fn p50(&self) -> Option<u64> {
        self.quantile(0.50)
    }

    /// 95th-percentile estimate in microseconds; `None` while empty.
    pub fn p95(&self) -> Option<u64> {
        self.quantile(0.95)
    }

    /// 99th-percentile estimate in microseconds; `None` while empty.
    pub fn p99(&self) -> Option<u64> {
        self.quantile(0.99)
    }

    /// Exact mean in microseconds, `NaN` while empty.
    pub fn mean_us(&self) -> f64 {
        self.sum_us as f64 / self.count as f64
    }
}

fn saturating_us(latency: Duration) -> u64 {
    u64::try_from(latency.as_micros()).unwrap_or(u64::MAX)
}

/// The lock-cheap recording side of [`LatencyHistogram`]: one atomic add
/// per bucket hit, shared by every worker thread that completes requests.
#[derive(Debug)]
pub(crate) struct LatencyRecorder {
    counts: Vec<AtomicU64>,
    count: AtomicU64,
    sum_us: AtomicU64,
    max_us: AtomicU64,
}

impl Default for LatencyRecorder {
    fn default() -> Self {
        Self {
            counts: (0..LATENCY_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
            max_us: AtomicU64::new(0),
        }
    }
}

impl LatencyRecorder {
    pub fn record(&self, latency: Duration) {
        let us = saturating_us(latency);
        self.counts[bucket_index(us)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        self.max_us.fetch_max(us, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> LatencyHistogram {
        LatencyHistogram::from_parts(
            self.counts
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            self.count.load(Ordering::Relaxed),
            self.sum_us.load(Ordering::Relaxed),
            self.max_us.load(Ordering::Relaxed),
        )
    }
}

/// Atomic per-priority-class counters: the sojourn histogram plus the two
/// shed tallies.
#[derive(Debug, Default)]
pub(crate) struct ClassCounters {
    pub latency: LatencyRecorder,
    pub shed_deadline: AtomicU64,
    pub shed_queue: AtomicU64,
}

/// Snapshot of one priority class's latency and shedding activity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassStats {
    /// The scheduling class these numbers describe.
    pub priority: Priority,
    /// Sojourn times (enqueue to response) of requests this class
    /// completed; shed requests are excluded — the histogram describes
    /// goodput latency, the shed counters describe the rest.
    pub latency: LatencyHistogram,
    /// Requests fast-failed with
    /// [`EvalError::Overloaded`](rsn_eval::EvalError::Overloaded) because
    /// their queue age exceeded the class's SLO budget
    /// ([`ServiceConfig::class_budgets`](crate::ServiceConfig::class_budgets)).
    pub shed_deadline: u64,
    /// Requests refused at submission because the pending queues were at
    /// [`ServiceConfig::queue_capacity`](crate::ServiceConfig::queue_capacity).
    pub shed_queue: u64,
}

impl ClassStats {
    /// An empty snapshot for `priority`.
    pub fn empty(priority: Priority) -> Self {
        Self {
            priority,
            latency: LatencyHistogram::default(),
            shed_deadline: 0,
            shed_queue: 0,
        }
    }

    /// Total requests this class shed (deadline plus queue-capacity).
    pub fn shed(&self) -> u64 {
        self.shed_deadline + self.shed_queue
    }
}

/// Per-backend-shard atomic counters (one set per registered backend, local
/// or remote).
#[derive(Debug)]
pub(crate) struct ShardCounters {
    pub name: String,
    pub evaluations: AtomicU64,
    pub errors: AtomicU64,
}

/// Internal atomic counters; incremented on the hot paths, read only by
/// [`StatsCounters::snapshot`].
#[derive(Debug, Default)]
pub(crate) struct StatsCounters {
    pub submitted: AtomicU64,
    pub completed: AtomicU64,
    pub batches: AtomicU64,
    pub batched_requests: AtomicU64,
    pub cache_hits: AtomicU64,
    pub cache_misses: AtomicU64,
    pub inflight_merged: AtomicU64,
    pub evaluations: AtomicU64,
    pub eval_errors: AtomicU64,
    pub evictions: AtomicU64,
    /// Per-priority-class sojourn histograms and shed tallies, indexed by
    /// [`Priority::index`].
    pub classes: [ClassCounters; 3],
    pub per_shard: Vec<ShardCounters>,
}

impl StatsCounters {
    /// Counters with one per-shard slot per backend name, in registration
    /// order.
    pub fn for_shards(names: &[String]) -> Self {
        Self {
            per_shard: names
                .iter()
                .map(|name| ShardCounters {
                    name: name.clone(),
                    evaluations: AtomicU64::new(0),
                    errors: AtomicU64::new(0),
                })
                .collect(),
            ..Self::default()
        }
    }

    pub fn snapshot(&self) -> ServiceStats {
        ServiceStats {
            submitted: self.submitted.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            batched_requests: self.batched_requests.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            inflight_merged: self.inflight_merged.load(Ordering::Relaxed),
            evaluations: self.evaluations.load(Ordering::Relaxed),
            eval_errors: self.eval_errors.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            classes: Priority::ALL
                .iter()
                .map(|&priority| ClassStats {
                    priority,
                    latency: self.classes[priority.index()].latency.snapshot(),
                    shed_deadline: self.classes[priority.index()]
                        .shed_deadline
                        .load(Ordering::Relaxed),
                    shed_queue: self.classes[priority.index()]
                        .shed_queue
                        .load(Ordering::Relaxed),
                })
                .collect(),
            per_shard: self
                .per_shard
                .iter()
                .map(|shard| ShardStats {
                    backend: shard.name.clone(),
                    evaluations: shard.evaluations.load(Ordering::Relaxed),
                    errors: shard.errors.load(Ordering::Relaxed),
                })
                .collect(),
            remote_pools: Vec::new(),
        }
    }
}

/// Transport activity of one remote-shard connection pool (see
/// [`ConnectionPool`](crate::pool::ConnectionPool) for the semantics of
/// each counter).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// The shard server address the pool dials.
    pub addr: String,
    /// Connections requested from the pool (one per exchange).
    pub checkouts: u64,
    /// Checkouts served by a healthy idle connection (no dial paid).
    pub reused: u64,
    /// Fresh TCP dials.
    pub dials: u64,
    /// Dials that were the one-shot retry of an exchange that failed on a
    /// reused connection.
    pub redials: u64,
    /// Idle connections found dead at checkout and thrown away.
    pub discarded: u64,
    /// Pipelined `evaluate_batch` exchanges sent.
    pub pipelined_batches: u64,
    /// Specs carried by those exchanges.
    pub pipelined_specs: u64,
    /// Bytes this pool put on the wire (length prefixes included) — with
    /// `bytes_received`, the observable difference between the JSON and
    /// binary encodings.
    pub bytes_sent: u64,
    /// Bytes this pool took off the wire (length prefixes included).
    pub bytes_received: u64,
    /// Request frames that shared a burst write with at least one other
    /// frame (counted only for bursts of two or more) — the observable
    /// effect of worker-side chunk coalescing.
    pub frames_coalesced: u64,
    /// Exchanges carried by a shared-memory ring instead of the socket.
    pub ring_exchanges: u64,
    /// Times the pool's reactor thread was woken by socket readiness or a
    /// completion notification; zero when the pool runs blocking exchanges.
    pub reactor_wakeups: u64,
    /// High-water mark of requests in flight on one multiplexed connection;
    /// zero for strict-FIFO peers.
    pub inflight_per_conn: u64,
    /// Labels first-seen on this pool's connections and entered into a
    /// per-connection symbol dictionary (each define costs one inline
    /// string on the wire; every later use is a bare varint id).
    pub dict_defines: u64,
    /// Label occurrences resolved through a per-connection symbol dictionary
    /// instead of re-sending the string bytes — the dictionary's saving.
    pub dict_hits: u64,
}

impl PoolStats {
    /// Fraction of checkouts that avoided a TCP dial, `NaN` before the
    /// first checkout.
    pub fn reuse_ratio(&self) -> f64 {
        self.reused as f64 / self.checkouts as f64
    }

    /// Mean specs per pipelined exchange, `NaN` before the first batch.
    pub fn mean_pipeline_depth(&self) -> f64 {
        self.pipelined_specs as f64 / self.pipelined_batches as f64
    }
}

/// Activity of one backend shard (a per-backend worker pool, local or
/// behind a remote connection).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ShardStats {
    /// The shard's backend display name.
    pub backend: String,
    /// `Backend::evaluate` calls this shard's workers executed.
    pub evaluations: u64,
    /// Of those, how many returned an error (or panicked, or failed in
    /// transport for remote shards).
    pub errors: u64,
}

/// A point-in-time snapshot of service activity.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ServiceStats {
    /// Submissions accepted (`submit` and `submit_batch` each count one).
    pub submitted: u64,
    /// Submissions answered (exactly one response each).
    pub completed: u64,
    /// Micro-batches dispatched.
    pub batches: u64,
    /// Requests carried by those batches (`batched_requests / batches` is
    /// the achieved mean batch size).
    pub batched_requests: u64,
    /// Backend-slot lookups answered from a completed cache entry.
    pub cache_hits: u64,
    /// Backend-slot lookups that scheduled a fresh evaluation.
    pub cache_misses: u64,
    /// Backend-slot lookups merged onto an identical in-flight evaluation.
    pub inflight_merged: u64,
    /// `Backend::evaluate` calls executed by the worker pools.
    pub evaluations: u64,
    /// Of those, how many returned an error (or panicked).
    pub eval_errors: u64,
    /// Completed cache entries dropped by the capacity bound
    /// ([`ServiceConfig::cache_capacity`](crate::ServiceConfig::cache_capacity));
    /// zero while the cache is unbounded.
    pub evictions: u64,
    /// Per-priority-class sojourn histograms and shed counts, one entry
    /// per class in [`Priority::ALL`] order.  The binary codec omits the
    /// section when it is empty.
    pub classes: Vec<ClassStats>,
    /// Per-backend-shard activity, in backend registration order.
    pub per_shard: Vec<ShardStats>,
    /// Transport counters of every remote-shard connection pool registered
    /// with the service (one entry per shard address, in registration
    /// order); empty for purely local services.
    pub remote_pools: Vec<PoolStats>,
}

impl ServiceStats {
    /// Achieved mean batch size, `NaN` before the first batch.
    pub fn mean_batch_size(&self) -> f64 {
        self.batched_requests as f64 / self.batches as f64
    }

    /// Fraction of backend-slot lookups served without a fresh evaluation
    /// (completed hits plus in-flight merges), `NaN` before the first lookup.
    pub fn dedup_ratio(&self) -> f64 {
        let served = self.cache_hits + self.inflight_merged;
        served as f64 / (served + self.cache_misses) as f64
    }

    /// The named shard's counters, if such a shard is registered.
    pub fn shard(&self, backend: &str) -> Option<&ShardStats> {
        self.per_shard.iter().find(|s| s.backend == backend)
    }

    /// The given priority class's latency/shedding snapshot; `None` when
    /// the snapshot came from a peer without latency accounting.
    pub fn class(&self, priority: Priority) -> Option<&ClassStats> {
        self.classes.iter().find(|c| c.priority == priority)
    }

    /// Requests shed across every class (deadline and queue-capacity).
    pub fn shed(&self) -> u64 {
        self.classes.iter().map(ClassStats::shed).sum()
    }

    /// The connection-pool counters for a shard address, if a pool for it
    /// is registered.
    pub fn pool(&self, addr: &str) -> Option<&PoolStats> {
        self.remote_pools.iter().find(|p| p.addr == addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_counters() {
        let counters = StatsCounters::default();
        counters.submitted.fetch_add(5, Ordering::Relaxed);
        counters.batches.fetch_add(2, Ordering::Relaxed);
        counters.batched_requests.fetch_add(5, Ordering::Relaxed);
        counters.cache_hits.fetch_add(3, Ordering::Relaxed);
        counters.cache_misses.fetch_add(1, Ordering::Relaxed);
        let stats = counters.snapshot();
        assert_eq!(stats.submitted, 5);
        assert!((stats.mean_batch_size() - 2.5).abs() < 1e-12);
        assert!((stats.dedup_ratio() - 0.75).abs() < 1e-12);
        assert_eq!(stats.evictions, 0);
        assert!(stats.per_shard.is_empty());
    }

    #[test]
    fn bucket_boundaries_are_contiguous_and_monotonic() {
        // Values below the linear cutoff map one to one.
        for us in 0..SUB {
            assert_eq!(bucket_index(us), us as usize);
            assert_eq!(bucket_upper(us as usize), us);
        }
        // Every bucket's upper edge lands in that bucket, and the next
        // value starts the next bucket — no gaps, no overlaps.
        for index in 0..LATENCY_BUCKETS - 1 {
            let upper = bucket_upper(index);
            assert_eq!(bucket_index(upper), index, "upper edge of {index}");
            assert_eq!(bucket_index(upper + 1), index + 1, "start of {}", index + 1);
        }
        // Relative bucket width stays within the design bound of 1/SUB.
        for index in SUB as usize..LATENCY_BUCKETS {
            let upper = bucket_upper(index);
            let lower = if index == SUB as usize {
                SUB
            } else {
                bucket_upper(index - 1) + 1
            };
            let width = upper - lower + 1;
            assert!(
                (width as f64) / (lower as f64) <= 1.0 / SUB as f64,
                "bucket {index}: width {width} vs lower {lower}"
            );
        }
        // The last bucket saturates: nothing can index past the table.
        assert_eq!(bucket_index(u64::MAX), LATENCY_BUCKETS - 1);
        assert_eq!(bucket_upper(LATENCY_BUCKETS - 1), (1u64 << 32) - 1);
    }

    #[test]
    fn quantiles_recover_within_bucket_resolution() {
        // A deterministic spread over five decades; quantile estimates
        // must sit within one bucket width (6.25%) above the exact value.
        let mut hist = LatencyHistogram::new();
        let mut values: Vec<u64> = Vec::new();
        let mut rng: u64 = 0x00C0FFEE;
        for _ in 0..4000 {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let us = 10 + (rng >> 33) % 1_000_000;
            values.push(us);
            hist.record(Duration::from_micros(us));
        }
        values.sort_unstable();
        for q in [0.50, 0.95, 0.99] {
            let rank = ((q * values.len() as f64).ceil() as usize).max(1) - 1;
            let exact = values[rank] as f64;
            let estimate = hist.quantile(q).expect("non-empty") as f64;
            assert!(
                estimate >= exact && estimate <= exact * (1.0 + 1.0 / SUB as f64) + 1.0,
                "q={q}: estimate {estimate} vs exact {exact}"
            );
        }
        assert_eq!(hist.count, 4000);
        assert_eq!(hist.max_us, *values.last().unwrap());
        assert_eq!(hist.quantile(1.0), Some(hist.max_us));
    }

    #[test]
    fn merge_equals_recording_together() {
        let mut left = LatencyHistogram::new();
        let mut right = LatencyHistogram::new();
        let mut both = LatencyHistogram::new();
        for i in 0..500u64 {
            let us = i * i % 30_000;
            both.record(Duration::from_micros(us));
            if i % 2 == 0 {
                left.record(Duration::from_micros(us));
            } else {
                right.record(Duration::from_micros(us));
            }
        }
        left.merge(&right);
        assert_eq!(left, both);
        // Merging an empty histogram is the identity.
        left.merge(&LatencyHistogram::new());
        assert_eq!(left, both);
        assert!(LatencyHistogram::new().quantile(0.5).is_none());
    }

    #[test]
    fn recorder_snapshot_matches_plain_recording() {
        let recorder = LatencyRecorder::default();
        let mut plain = LatencyHistogram::new();
        for us in [0u64, 3, 15, 16, 17, 1000, 123_456, 5_000_000] {
            recorder.record(Duration::from_micros(us));
            plain.record(Duration::from_micros(us));
        }
        assert_eq!(recorder.snapshot(), plain);
        // The snapshot's trimmed wire form round-trips through its parts.
        let snap = recorder.snapshot();
        let rebuilt = LatencyHistogram::from_parts(
            snap.bucket_counts().to_vec(),
            snap.count,
            snap.sum_us,
            snap.max_us,
        );
        assert_eq!(rebuilt, snap);
        assert!(snap.bucket_counts().last() != Some(&0));
    }

    #[test]
    fn class_counters_snapshot_in_priority_order() {
        let counters = StatsCounters::default();
        counters.classes[Priority::High.index()]
            .latency
            .record(Duration::from_micros(250));
        counters.classes[Priority::High.index()]
            .shed_deadline
            .fetch_add(2, Ordering::Relaxed);
        counters.classes[Priority::Low.index()]
            .shed_queue
            .fetch_add(7, Ordering::Relaxed);
        let stats = counters.snapshot();
        assert_eq!(stats.classes.len(), 3);
        let high = stats.class(Priority::High).unwrap();
        assert_eq!(high.latency.count, 1);
        assert_eq!(high.shed_deadline, 2);
        assert_eq!(high.shed(), 2);
        assert_eq!(stats.class(Priority::Low).unwrap().shed_queue, 7);
        assert_eq!(stats.shed(), 9);
        assert_eq!(
            stats.classes.iter().map(|c| c.priority).collect::<Vec<_>>(),
            Priority::ALL.to_vec()
        );
    }

    #[test]
    fn per_shard_counters_snapshot_by_name() {
        let counters = StatsCounters::for_shards(&["alpha".to_string(), "beta".to_string()]);
        counters.per_shard[1]
            .evaluations
            .fetch_add(4, Ordering::Relaxed);
        counters.per_shard[1].errors.fetch_add(1, Ordering::Relaxed);
        let stats = counters.snapshot();
        assert_eq!(stats.per_shard.len(), 2);
        assert_eq!(stats.shard("alpha").unwrap().evaluations, 0);
        let beta = stats.shard("beta").unwrap();
        assert_eq!((beta.evaluations, beta.errors), (4, 1));
        assert!(stats.shard("missing").is_none());
    }
}
