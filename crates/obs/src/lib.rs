//! # lc-obs — zero-allocation process metrics
//!
//! The observability layer of the workspace: a process-global catalog of
//! statically declared atomic [`Counter`]s, [`Gauge`]s, and fixed-bucket
//! log₂ [`Histogram`]s, plus RAII [`SpanTimer`] guards for latency
//! spans. The design constraint is the same one the compute core lives
//! under (see `crates/core/tests/alloc.rs`): **recording must be
//! lock-free and allocation-free**, so instrumentation can sit on the
//! steady-state train step and the serving hot path without being
//! measurable — every record is a handful of relaxed atomic operations
//! on `static` storage, no locks, no heap, no syscalls beyond the
//! monotonic clock read a span timer needs.
//!
//! Reading the metrics *is* allowed to allocate: [`snapshot`] walks the
//! [`CATALOG`] and copies every value out — that runs on a metrics
//! request or a report dump, never per-request.
//!
//! A metric's **wire id** is its index in [`CATALOG`], so the id space
//! is stable for a given build and a client can resolve names with
//! [`metric_name`]. Ids only grow; removing a metric retires its id.
//!
//! Timing can be disabled at runtime with `LC_OBS=off` (or `0`):
//! [`enabled`] is parsed once per process, and a disabled [`SpanTimer`]
//! skips the clock reads entirely. Counter and histogram arithmetic is
//! cheap enough (single relaxed RMW) that it stays on either way — the
//! switch exists to measure the cost of the clock reads, which is what
//! the CI overhead gate compares.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Number of power-of-two buckets in a [`Histogram`] (covers the whole
/// `u64` range: bucket `i` holds values in `[2^i, 2^(i+1))`).
pub const BUCKETS: usize = 64;

/// A monotonically increasing event count. `const`-constructible, so it
/// lives in a `static`; recording is one relaxed `fetch_add`.
#[derive(Debug)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A zeroed counter (usable in `static` initializers).
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl Default for Counter {
    fn default() -> Self {
        Counter::new()
    }
}

/// A last-write-wins instantaneous value (queue depth, active version).
#[derive(Debug)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A zeroed gauge (usable in `static` initializers).
    pub const fn new() -> Self {
        Gauge(AtomicU64::new(0))
    }

    /// Overwrite the value.
    #[inline]
    pub fn set(&self, value: u64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge::new()
    }
}

/// Power-of-two-bucketed value histogram (usually nanoseconds).
///
/// Bucket `i` covers `[2^i, 2^(i+1))`; quantiles report a bucket's upper
/// bound, exact to within a factor of two — the right trade for latency
/// reporting with O(1) lock-free recording and a fixed footprint.
/// Recording from any number of threads concurrently is exact: every
/// field is a relaxed atomic add/max, so a merged snapshot equals the
/// sequential recording of the same values.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    /// An empty histogram (usable in `static` initializers).
    pub const fn new() -> Self {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Record one value (0 lands in bucket 0 alongside 1).
    #[inline]
    pub fn record(&self, value: u64) {
        let bucket = 63 - value.max(1).leading_zeros() as usize;
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Record a duration in nanoseconds.
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_nanos().min(u128::from(u64::MAX)) as u64);
    }

    /// Copy the current state out (each field read relaxed; exact once
    /// concurrent writers quiesce, a close approximation while they
    /// don't).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; BUCKETS];
        for (out, bucket) in buckets.iter_mut().zip(&self.buckets) {
            *out = bucket.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            buckets,
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// A point-in-time copy of a [`Histogram`]: plain integers, so it can be
/// merged, diffed, quantiled, and shipped over the wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket counts: bucket `i` counted values in `[2^i, 2^(i+1))`.
    pub buckets: [u64; BUCKETS],
    /// Sum of all recorded values.
    pub sum: u64,
    /// Largest recorded value (0 when empty).
    pub max: u64,
}

impl HistogramSnapshot {
    /// An empty snapshot.
    pub const fn empty() -> Self {
        HistogramSnapshot { buckets: [0; BUCKETS], sum: 0, max: 0 }
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// Mean recorded value (0.0 when empty).
    pub fn mean(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            0.0
        } else {
            self.sum as f64 / count as f64
        }
    }

    /// Upper bound of the bucket containing quantile `q ∈ [0, 1]`
    /// (0 when empty). Exact to within a factor of two by construction.
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return 1u64 << (i + 1).min(63);
            }
        }
        self.max
    }

    /// Fold another snapshot into this one.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// The recordings that happened between `earlier` and `self`
    /// (per-bucket saturating difference; `max` is carried from `self`
    /// since a maximum cannot be un-observed).
    pub fn since(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let mut buckets = [0u64; BUCKETS];
        for (out, (now, then)) in buckets.iter_mut().zip(self.buckets.iter().zip(&earlier.buckets))
        {
            *out = now.saturating_sub(*then);
        }
        HistogramSnapshot { buckets, sum: self.sum.saturating_sub(earlier.sum), max: self.max }
    }
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot::empty()
    }
}

/// Whether span timing is enabled (`LC_OBS` ≠ `off`/`0`/`false`; parsed
/// once per process). Counters and histograms record regardless — this
/// gates only the clock reads, so `LC_OBS=off` is the zero-overhead
/// baseline the CI overhead check compares against.
pub fn enabled() -> bool {
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED
        .get_or_init(|| !matches!(std::env::var("LC_OBS").as_deref(), Ok("off" | "0" | "false")))
}

/// Nanoseconds since the first call into this module in this process
/// (saturating at `u64::MAX` after ~584 years).
pub fn uptime_ns() -> u64 {
    process_start().elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
}

fn process_start() -> Instant {
    static START: OnceLock<Instant> = OnceLock::new();
    *START.get_or_init(Instant::now)
}

/// Pin the process-start instant (and the `LC_OBS` parse) to "now".
/// Binaries call this at the top of `main` so [`uptime_ns`] measures
/// from startup; otherwise the clock starts lazily on first use.
pub fn init() {
    process_start();
    enabled();
}

/// An RAII latency span: created with [`SpanTimer::start`], records the
/// elapsed nanoseconds into its histogram on drop. Holds no heap data;
/// when [`enabled`] is off it skips the clock reads entirely.
#[must_use = "a span timer measures until it is dropped"]
pub struct SpanTimer {
    histogram: &'static Histogram,
    start: Option<Instant>,
}

impl SpanTimer {
    /// Start timing into `histogram` (a no-op timer when `LC_OBS=off`).
    #[inline]
    pub fn start(histogram: &'static Histogram) -> Self {
        SpanTimer { histogram, start: enabled().then(Instant::now) }
    }
}

impl Drop for SpanTimer {
    #[inline]
    fn drop(&mut self) {
        if let Some(start) = self.start {
            self.histogram.record_duration(start.elapsed());
        }
    }
}

/// Token bucket for rate-limited logging: a `static`-friendly guard that
/// lets at most one log line through per interval, so an error that
/// fires in a loop (a panicking retrain, a flapping peer) cannot flood
/// stderr while its counter still records every occurrence.
#[derive(Debug)]
pub struct RateLimitedLog {
    last_ns: AtomicU64,
}

impl RateLimitedLog {
    /// A guard that has never logged.
    pub const fn new() -> Self {
        RateLimitedLog { last_ns: AtomicU64::new(0) }
    }

    /// True if the caller should emit its log line now; at most one
    /// caller per `min_gap` wins. (0 in `last_ns` means "never logged",
    /// so the first call always wins.)
    pub fn should_log(&self, min_gap: Duration) -> bool {
        let now = uptime_ns().max(1);
        let last = self.last_ns.load(Ordering::Relaxed);
        if last != 0
            && now.saturating_sub(last) < min_gap.as_nanos().min(u128::from(u64::MAX)) as u64
        {
            return false;
        }
        self.last_ns.compare_exchange(last, now, Ordering::Relaxed, Ordering::Relaxed).is_ok()
    }
}

impl Default for RateLimitedLog {
    fn default() -> Self {
        RateLimitedLog::new()
    }
}

/// What a catalog entry measures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonic event count.
    Counter,
    /// Instantaneous last-write-wins value.
    Gauge,
    /// log₂-bucketed value distribution.
    Histogram,
}

/// Reference to the static storage behind a catalog entry.
#[derive(Clone, Copy, Debug)]
pub enum MetricRef {
    /// A [`Counter`] static.
    Counter(&'static Counter),
    /// A [`Gauge`] static.
    Gauge(&'static Gauge),
    /// A [`Histogram`] static.
    Histogram(&'static Histogram),
}

/// One catalog entry; its wire id is its index in [`CATALOG`].
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// Stable dotted metric name (`subsystem.metric[_unit]`).
    pub name: &'static str,
    /// The storage this entry reads.
    pub metric: MetricRef,
}

impl MetricDef {
    /// The entry's kind.
    pub fn kind(&self) -> MetricKind {
        match self.metric {
            MetricRef::Counter(_) => MetricKind::Counter,
            MetricRef::Gauge(_) => MetricKind::Gauge,
            MetricRef::Histogram(_) => MetricKind::Histogram,
        }
    }
}

/// Concatenate `parts` into one array (the catalog is assembled from
/// the named metrics and one generated row per shard).
const fn concat<const N: usize>(parts: &[&[MetricDef]]) -> [MetricDef; N] {
    let mut out = [parts[0][0]; N];
    let (mut n, mut p) = (0, 0);
    while p < parts.len() {
        let mut i = 0;
        while i < parts[p].len() {
            out[n] = parts[p][i];
            n += 1;
            i += 1;
        }
        p += 1;
    }
    assert!(n == N);
    out
}

const fn total_len(parts: &[&[MetricDef]]) -> usize {
    let (mut n, mut p) = (0, 0);
    while p < parts.len() {
        n += parts[p].len();
        p += 1;
    }
    n
}

/// [`ShardMetrics`] and its per-shard storage, from the family's rows.
macro_rules! shard_struct {
    (
        { $( $( #[$cdoc:meta] )* $cfield:ident, )* }
        { $( $( #[$gdoc:meta] )* $gfield:ident, )* }
    ) => {
        /// The metrics one reactor shard of the serving front records
        /// into (`serve.shardN.<field>`), bundled so the shard resolves
        /// them once at startup instead of matching on its index per
        /// event.
        #[derive(Debug)]
        pub struct ShardMetrics {
            $( $( #[$cdoc] )* pub $cfield: Counter, )*
            $( $( #[$gdoc] )* pub $gfield: Gauge, )*
        }

        static SHARD_METRICS: [ShardMetrics; MAX_SHARDS] = [const {
            ShardMetrics { $( $cfield: Counter::new(), )* $( $gfield: Gauge::new(), )* }
        }; MAX_SHARDS];
    };
}

/// One shard's catalog entries for the family's rows of one kind.
macro_rules! shard_row {
    ($shard:literal, $kind:ident { $( $( #[$doc:meta] )* $field:ident, )* }) => {
        [ $( MetricDef {
            name: concat!("serve.shard", $shard, ".", stringify!($field)),
            metric: MetricRef::$kind(&SHARD_METRICS[$shard].$field),
        }, )* ]
    };
}

// Wire ids are positions in `CATALOG`, which is laid out as: `counters`,
// the shard family's counters (shard-major), `gauges`, the family's
// gauges, `gauges_after_shards`, `histograms`, `counters_after_histograms`.
// The split gauge and counter blocks are that layout's history, kept so
// no id moves; `catalog_ids_are_pinned` fails if one does.
macro_rules! define_catalog {
    (
        counters { $( $cname:ident => $cstr:literal, )* }
        gauges { $( $gname:ident => $gstr:literal, )* }
        gauges_after_shards { $( $lname:ident => $lstr:literal, )* }
        histograms { $( $hname:ident => $hstr:literal, )* }
        counters_after_histograms { $( $aname:ident => $astr:literal, )* }
        shards [ $( $shard:literal )* ] { counters $cfields:tt gauges $gfields:tt }
    ) => {
        /// The statically declared metrics every instrumented crate
        /// records into. Names here are the single source of truth; the
        /// wire id of each metric is its position in [`CATALOG`].
        pub mod metrics {
            use super::{Counter, Gauge, Histogram};
            $( #[doc = concat!("Counter `", $cstr, "`.")]
               pub static $cname: Counter = Counter::new(); )*
            $( #[doc = concat!("Gauge `", $gstr, "`.")]
               pub static $gname: Gauge = Gauge::new(); )*
            $( #[doc = concat!("Gauge `", $lstr, "`.")]
               pub static $lname: Gauge = Gauge::new(); )*
            $( #[doc = concat!("Histogram `", $hstr, "`.")]
               pub static $hname: Histogram = Histogram::new(); )*
            $( #[doc = concat!("Counter `", $astr, "`.")]
               pub static $aname: Counter = Counter::new(); )*
        }

        /// Number of reactor shards the catalog declares metrics for.
        /// The catalog is static, so the per-shard entries are fixed at
        /// build time; a front running more shards than this folds shard
        /// `i` onto entry `i % MAX_SHARDS` (see [`shard_metrics`]),
        /// trading per-shard attribution for the same zero-allocation
        /// recording guarantee.
        pub const MAX_SHARDS: usize = [$( $shard ),*].len();

        shard_struct!($cfields $gfields);

        const CATALOG_PARTS: &[&[MetricDef]] = &[
            &[ $( MetricDef { name: $cstr, metric: MetricRef::Counter(&metrics::$cname) }, )* ],
            $( &shard_row!($shard, Counter $cfields), )*
            &[ $( MetricDef { name: $gstr, metric: MetricRef::Gauge(&metrics::$gname) }, )* ],
            $( &shard_row!($shard, Gauge $gfields), )*
            &[ $( MetricDef { name: $lstr, metric: MetricRef::Gauge(&metrics::$lname) }, )* ],
            &[ $( MetricDef { name: $hstr, metric: MetricRef::Histogram(&metrics::$hname) }, )* ],
            &[ $( MetricDef { name: $astr, metric: MetricRef::Counter(&metrics::$aname) }, )* ],
        ];

        /// Every metric this build records, in wire-id order.
        pub const CATALOG: &[MetricDef] =
            &concat::<{ total_len(CATALOG_PARTS) }>(CATALOG_PARTS);
    };
}

define_catalog! {
    counters {
        SERVE_CONNECTIONS => "serve.connections",
        SERVE_REQUESTS => "serve.requests",
        SERVE_ERRORS => "serve.errors",
        SERVE_WIRE_ERRORS => "serve.wire_decode_errors",
        SERVE_FEEDBACK => "serve.feedback",
        SERVE_METRICS_REQUESTS => "serve.metrics_requests",
        CACHE_HITS => "cache.hits",
        CACHE_MISSES => "cache.misses",
        // Retired with the tiered pipeline: records nothing, kept so no
        // wire id moves.
        TIER_PRIMARY_HITS => "tier.primary.hits",
        // Retired with tier id 1: records nothing, kept so no wire id moves.
        TIER_GBM_HITS => "tier.gbm.hits",
        // Retired with the tiered pipeline: records nothing, kept so no
        // wire id moves.
        TIER_FALLBACK_HITS => "tier.fallback.hits",
        DRIFT_TRIPS => "drift.trips",
        RETRAIN_SUCCESS => "retrain.success",
        RETRAIN_PANICS => "retrain.panics",
        REGISTRY_PUBLISHES => "registry.publishes",
        TRAIN_EPOCHS => "train.epochs",
        POOL_DISPATCHES => "pool.dispatches",
    }
    gauges {
        MODEL_VERSION => "registry.active_version",
        CACHE_ENTRIES => "cache.entries",
        BATCH_QUEUE_DEPTH => "batcher.queue_depth",
        POOL_WORKERS => "pool.workers",
    }
    gauges_after_shards {
        MODEL_BYTES => "model.bytes",
        MODEL_RESIDENT_COUNT => "model.resident_count",
        MODEL_QUANTIZED => "model.quantized",
    }
    histograms {
        SERVE_HANDLE_NS => "serve.handle_ns",
        SERVE_ESTIMATE_NS => "serve.estimate_ns",
        SERVE_FEEDBACK_NS => "serve.feedback_ns",
        BATCH_QUEUE_WAIT_NS => "batcher.queue_wait_ns",
        BATCH_FORWARD_NS => "batcher.forward_ns",
        BATCH_SIZE => "batcher.batch_size",
        // Retired with tier id 1: records nothing, kept so no wire id moves.
        TIER_GBM_NS => "tier.gbm.estimate_ns",
        // Retired with the tiered pipeline: records nothing, kept so no
        // wire id moves.
        TIER_FALLBACK_NS => "tier.fallback.estimate_ns",
        // The served model's online q-error (×100) over every feedback
        // frame; the name dates from the tiered pipeline's primary tier.
        TIER_PRIMARY_QERROR_X100 => "tier.primary.qerror_x100",
        // Retired with tier id 1: records nothing, kept so no wire id moves.
        TIER_GBM_QERROR_X100 => "tier.gbm.qerror_x100",
        // Retired with the tiered pipeline: records nothing, kept so no
        // wire id moves.
        TIER_FALLBACK_QERROR_X100 => "tier.fallback.qerror_x100",
        RETRAIN_NS => "retrain.duration_ns",
        TRAIN_EPOCH_NS => "train.epoch_ns",
        TRAIN_SHARD_NS => "train.shard_ns",
        POOL_RUN_NS => "pool.run_ns",
    }
    counters_after_histograms {
        RETRAIN_SHARED_CORE => "retrain.shared_core",
    }
    shards [0 1 2 3 4 5 6 7] {
        counters {
            /// Connections this shard accepted.
            accepted,
            /// Requests refused by admission control.
            shed,
            /// Readiness wake-ups, i.e. poll returns with at least one
            /// event.
            wakeups,
        }
        gauges {
            /// Connections currently owned by this shard.
            connections,
            /// Estimate requests admitted but not yet answered.
            inflight,
        }
    }
}

/// The name of metric `id`, if this build defines it.
pub fn metric_name(id: u16) -> Option<&'static str> {
    CATALOG.get(usize::from(id)).map(|def| def.name)
}

/// The metrics bundle for reactor shard `shard` (folded modulo
/// [`MAX_SHARDS`]).
pub fn shard_metrics(shard: usize) -> &'static ShardMetrics {
    &SHARD_METRICS[shard % MAX_SHARDS]
}

/// One counter or gauge value in a [`Snapshot`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScalarValue {
    /// Index into [`CATALOG`].
    pub id: u16,
    /// [`MetricKind::Counter`] or [`MetricKind::Gauge`].
    pub kind: MetricKind,
    /// The value at snapshot time.
    pub value: u64,
}

/// One histogram state in a [`Snapshot`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistogramValue {
    /// Index into [`CATALOG`].
    pub id: u16,
    /// The histogram state at snapshot time.
    pub snapshot: HistogramSnapshot,
}

/// A point-in-time copy of every metric in [`CATALOG`]. Allocates —
/// snapshots are for metrics requests and report dumps, not hot paths.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Snapshot {
    /// Nanoseconds since [`init`] (or the first metric touch).
    pub uptime_ns: u64,
    /// Every counter and gauge, in id order.
    pub scalars: Vec<ScalarValue>,
    /// Every histogram, in id order.
    pub histograms: Vec<HistogramValue>,
}

/// Copy every catalog metric out (see [`Snapshot`]).
pub fn snapshot() -> Snapshot {
    let mut scalars = Vec::new();
    let mut histograms = Vec::new();
    for (id, def) in CATALOG.iter().enumerate() {
        let id = id as u16;
        match def.metric {
            MetricRef::Counter(c) => {
                scalars.push(ScalarValue { id, kind: MetricKind::Counter, value: c.get() });
            }
            MetricRef::Gauge(g) => {
                scalars.push(ScalarValue { id, kind: MetricKind::Gauge, value: g.get() });
            }
            MetricRef::Histogram(h) => {
                histograms.push(HistogramValue { id, snapshot: h.snapshot() })
            }
        }
    }
    Snapshot { uptime_ns: uptime_ns(), scalars, histograms }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_are_plain_atomics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::new();
        g.set(17);
        g.set(3);
        assert_eq!(g.get(), 3);
    }

    #[test]
    fn histogram_buckets_are_log2() {
        let h = Histogram::new();
        h.record(0); // clamped into bucket 0 with 1
        h.record(1);
        h.record(2);
        h.record(3);
        h.record(1024);
        let s = h.snapshot();
        assert_eq!(s.buckets[0], 2, "0 and 1 share bucket 0");
        assert_eq!(s.buckets[1], 2, "2 and 3 share bucket 1");
        assert_eq!(s.buckets[10], 1);
        assert_eq!(s.count(), 5);
        assert_eq!(s.sum, 1030);
        assert_eq!(s.max, 1024);
    }

    #[test]
    fn quantile_edge_cases_empty_single_bucket_saturating() {
        // Empty: every quantile is 0 and nothing panics.
        let empty = HistogramSnapshot::empty();
        for q in [0.0, 0.5, 1.0, -3.0, 7.0] {
            assert_eq!(empty.quantile(q), 0);
        }
        assert_eq!(empty.mean(), 0.0);
        assert!(empty.is_empty());

        // Single bucket: every quantile reports that bucket's upper bound.
        let h = Histogram::new();
        for _ in 0..100 {
            h.record(700); // bucket 9: [512, 1024)
        }
        let s = h.snapshot();
        for q in [0.0, 0.01, 0.5, 0.99, 1.0] {
            assert_eq!(s.quantile(q), 1024, "q={q}");
        }
        assert_eq!(s.mean(), 700.0);

        // Saturating: u64::MAX lands in the last bucket, whose reported
        // upper bound clamps to 2^63 instead of overflowing; `max` keeps
        // the exact value.
        let h = Histogram::new();
        h.record(u64::MAX);
        let s = h.snapshot();
        assert_eq!(s.buckets[63], 1);
        assert_eq!(s.quantile(1.0), 1u64 << 63);
        assert_eq!(s.max, u64::MAX);
    }

    #[test]
    fn quantiles_bracket_recorded_values() {
        let h = Histogram::new();
        for us in [10u64, 20, 40, 80, 5000] {
            h.record_duration(Duration::from_micros(us));
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 5);
        let p50 = s.quantile(0.5);
        assert!(p50 >= 40_000, "p50 bound {p50} below median");
        assert!(p50 < 1_000_000, "p50 bound {p50} absorbed the outlier");
        assert!(s.max >= 5_000_000);
    }

    /// Concurrent recording must be exactly equivalent to sequentially
    /// merging per-thread recordings of the same values — the lock-free
    /// contract the serving hot path relies on.
    #[test]
    fn concurrent_recording_equals_sequential_merge() {
        static SHARED: Histogram = Histogram::new();
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 5_000;
        let value = |t: u64, i: u64| (t * 31 + i * 7) % 100_000 + 1;
        std::thread::scope(|s| {
            for t in 0..THREADS {
                s.spawn(move || {
                    for i in 0..PER_THREAD {
                        SHARED.record(value(t, i));
                    }
                });
            }
        });
        // Sequential reference: per-thread histograms merged in order.
        let mut merged = HistogramSnapshot::empty();
        for t in 0..THREADS {
            let own = Histogram::new();
            for i in 0..PER_THREAD {
                own.record(value(t, i));
            }
            merged.merge(&own.snapshot());
        }
        assert_eq!(SHARED.snapshot(), merged);
        assert_eq!(merged.count(), THREADS * PER_THREAD);
    }

    #[test]
    fn since_subtracts_an_earlier_snapshot() {
        let h = Histogram::new();
        h.record(100);
        h.record(200);
        let earlier = h.snapshot();
        h.record(400);
        h.record(100);
        let delta = h.snapshot().since(&earlier);
        assert_eq!(delta.count(), 2);
        assert_eq!(delta.sum, 500);
        // Interval percentiles come straight off the delta.
        assert!(delta.quantile(1.0) >= 400);
    }

    #[test]
    fn catalog_ids_resolve_to_names_and_storage() {
        assert!(!CATALOG.is_empty());
        for (i, def) in CATALOG.iter().enumerate() {
            assert_eq!(metric_name(i as u16), Some(def.name));
        }
        assert_eq!(metric_name(CATALOG.len() as u16), None);
        // Ids are kind-ordered (counters, gauges, histograms) and the
        // snapshot covers the whole catalog.
        metrics::SERVE_REQUESTS.inc();
        metrics::POOL_WORKERS.set(2);
        metrics::SERVE_HANDLE_NS.record(1000);
        let snap = snapshot();
        assert_eq!(snap.scalars.len() + snap.histograms.len(), CATALOG.len());
        let requests =
            snap.scalars.iter().find(|s| metric_name(s.id) == Some("serve.requests")).unwrap();
        assert!(requests.value >= 1);
        assert_eq!(requests.kind, MetricKind::Counter);
        let handle =
            snap.histograms.iter().find(|h| metric_name(h.id) == Some("serve.handle_ns")).unwrap();
        assert!(handle.snapshot.count() >= 1);
    }

    #[test]
    fn shard_metrics_resolve_catalog_entries_and_fold() {
        for shard in 0..MAX_SHARDS {
            let m = shard_metrics(shard);
            // The bundle points at the catalog entries carrying the
            // shard's name, so the wire ids resolve to the right rows.
            let accepted_name = format!("serve.shard{shard}.accepted");
            let id = CATALOG
                .iter()
                .position(|def| def.name == accepted_name)
                .expect("per-shard counter in catalog");
            match CATALOG[id].metric {
                MetricRef::Counter(c) => assert!(std::ptr::eq(c, &m.accepted)),
                _ => panic!("accepted must be a counter"),
            }
        }
        // Out-of-range shards fold instead of panicking.
        assert!(std::ptr::eq(shard_metrics(MAX_SHARDS + 3), shard_metrics(3)));
        shard_metrics(2).connections.set(41);
        let id = CATALOG.iter().position(|def| def.name == "serve.shard2.connections").unwrap();
        let snap = snapshot();
        assert_eq!(snap.scalars.iter().find(|s| usize::from(s.id) == id).unwrap().value, 41);
    }

    /// A metric's wire id is its position in `CATALOG`: a client built
    /// against one layout reads another build's snapshot by id. Every
    /// `(id, name, kind)` is pinned here; a new metric appends a row, and
    /// nothing above it may move.
    #[test]
    fn catalog_ids_are_pinned() {
        use MetricKind::{Counter, Gauge, Histogram};
        let golden: &[(&str, MetricKind)] = &[
            ("serve.connections", Counter),
            ("serve.requests", Counter),
            ("serve.errors", Counter),
            ("serve.wire_decode_errors", Counter),
            ("serve.feedback", Counter),
            ("serve.metrics_requests", Counter),
            ("cache.hits", Counter),
            ("cache.misses", Counter),
            ("tier.primary.hits", Counter),
            ("tier.gbm.hits", Counter),
            ("tier.fallback.hits", Counter),
            ("drift.trips", Counter),
            ("retrain.success", Counter),
            ("retrain.panics", Counter),
            ("registry.publishes", Counter),
            ("train.epochs", Counter),
            ("pool.dispatches", Counter),
            ("serve.shard0.accepted", Counter),
            ("serve.shard0.shed", Counter),
            ("serve.shard0.wakeups", Counter),
            ("serve.shard1.accepted", Counter),
            ("serve.shard1.shed", Counter),
            ("serve.shard1.wakeups", Counter),
            ("serve.shard2.accepted", Counter),
            ("serve.shard2.shed", Counter),
            ("serve.shard2.wakeups", Counter),
            ("serve.shard3.accepted", Counter),
            ("serve.shard3.shed", Counter),
            ("serve.shard3.wakeups", Counter),
            ("serve.shard4.accepted", Counter),
            ("serve.shard4.shed", Counter),
            ("serve.shard4.wakeups", Counter),
            ("serve.shard5.accepted", Counter),
            ("serve.shard5.shed", Counter),
            ("serve.shard5.wakeups", Counter),
            ("serve.shard6.accepted", Counter),
            ("serve.shard6.shed", Counter),
            ("serve.shard6.wakeups", Counter),
            ("serve.shard7.accepted", Counter),
            ("serve.shard7.shed", Counter),
            ("serve.shard7.wakeups", Counter),
            ("registry.active_version", Gauge),
            ("cache.entries", Gauge),
            ("batcher.queue_depth", Gauge),
            ("pool.workers", Gauge),
            ("serve.shard0.connections", Gauge),
            ("serve.shard0.inflight", Gauge),
            ("serve.shard1.connections", Gauge),
            ("serve.shard1.inflight", Gauge),
            ("serve.shard2.connections", Gauge),
            ("serve.shard2.inflight", Gauge),
            ("serve.shard3.connections", Gauge),
            ("serve.shard3.inflight", Gauge),
            ("serve.shard4.connections", Gauge),
            ("serve.shard4.inflight", Gauge),
            ("serve.shard5.connections", Gauge),
            ("serve.shard5.inflight", Gauge),
            ("serve.shard6.connections", Gauge),
            ("serve.shard6.inflight", Gauge),
            ("serve.shard7.connections", Gauge),
            ("serve.shard7.inflight", Gauge),
            ("model.bytes", Gauge),
            ("model.resident_count", Gauge),
            ("model.quantized", Gauge),
            ("serve.handle_ns", Histogram),
            ("serve.estimate_ns", Histogram),
            ("serve.feedback_ns", Histogram),
            ("batcher.queue_wait_ns", Histogram),
            ("batcher.forward_ns", Histogram),
            ("batcher.batch_size", Histogram),
            ("tier.gbm.estimate_ns", Histogram),
            ("tier.fallback.estimate_ns", Histogram),
            ("tier.primary.qerror_x100", Histogram),
            ("tier.gbm.qerror_x100", Histogram),
            ("tier.fallback.qerror_x100", Histogram),
            ("retrain.duration_ns", Histogram),
            ("train.epoch_ns", Histogram),
            ("train.shard_ns", Histogram),
            ("pool.run_ns", Histogram),
            ("retrain.shared_core", Counter),
        ];
        let catalog: Vec<_> = CATALOG.iter().map(|def| (def.name, def.kind())).collect();
        assert_eq!(catalog, golden);
        assert_eq!(MAX_SHARDS, 8);
    }

    #[test]
    fn span_timer_records_on_drop() {
        static H: Histogram = Histogram::new();
        let before = H.snapshot().count();
        {
            let _span = SpanTimer::start(&H);
            std::hint::black_box(3 + 4);
        }
        if enabled() {
            assert_eq!(H.snapshot().count(), before + 1);
        } else {
            assert_eq!(H.snapshot().count(), before);
        }
    }

    #[test]
    fn rate_limited_log_lets_one_through_per_interval() {
        let gate = RateLimitedLog::new();
        assert!(gate.should_log(Duration::from_secs(3600)), "first call always wins");
        for _ in 0..100 {
            assert!(!gate.should_log(Duration::from_secs(3600)));
        }
        // A zero interval always admits.
        assert!(gate.should_log(Duration::ZERO));
    }

    #[test]
    fn uptime_is_monotonic() {
        init();
        let a = uptime_ns();
        let b = uptime_ns();
        assert!(b >= a);
    }
}
