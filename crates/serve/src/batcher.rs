//! The micro-batcher: coalesces concurrent single-query requests into one
//! ragged-batch forward pass.
//!
//! The paper's §4.8 timing shows where the win is: MSCN prediction is
//! dominated by fixed per-invocation cost at batch size 1, while the
//! batched path amortizes matrix setup across queries. A serving process
//! receives *concurrent singles*, not batches — so this module provides
//! the missing piece: a [`MicroBatcher`] is a single-owner queue of
//! sample-annotated queries, each riding with a caller-chosen token, and
//! [`MicroBatcher::flush`] runs up to [`BatcherConfig::max_batch`] of
//! them as one [`RaggedBatch`](lc_core::RaggedBatch) forward pass via
//! `lc_core::Estimator::estimate_routed` (so a tiered pipeline's
//! per-query routing rides the same flush, and each answer comes back
//! attributed to the tier that produced it), handing every token its
//! [`Estimate`] in push order.
//!
//! There is no thread, lock or timer in here: whoever owns the batcher
//! decides when a batch closes. A reactor shard pushes what one readiness
//! pass decoded and flushes at the end of the pass; the in-process
//! [`EstimationService`](crate::EstimationService) flushes on the thread
//! of whichever caller waits first. Either way concurrency in the arrival
//! process is what creates batching, and a lone request is a flush with
//! n = 1 — never a second route. Because `lc_core`'s kernels reduce every
//! matrix row in the same order regardless of batch composition,
//! coalescing is *semantically invisible*: batched results are bitwise
//! identical to sequential ones.
//!
//! Flushes run on `lc_core`'s arena-backed forward pass: warm inference
//! scratches come from a process-wide pool and are reused across flushes
//! (zero steady-state allocation in the network itself), and batches
//! large enough to span multiple inference blocks fan out onto the
//! **persistent worker pool** (`lc_nn::WorkerPool::global`) inside
//! `estimate_all` — the same long-lived pinned workers the trainer uses.
//! Still bitwise identical, since block boundaries and per-row reductions
//! never depend on the worker count. That is what makes *larger*
//! `max_batch` values genuinely amortize instead of just queueing.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

use lc_obs::{metrics, SpanTimer};
use lc_query::LabeledQuery;

use crate::registry::ModelRegistry;
use crate::tier::TIER_FALLBACK;

/// Sizing of a [`MicroBatcher`].
#[derive(Clone, Copy, Debug)]
pub struct BatcherConfig {
    /// Largest coalesced batch (a flush never exceeds this).
    pub max_batch: usize,
    /// Accepted and ignored. The batcher used to have a worker-thread
    /// mode this field sized; every batch now runs on the thread that
    /// calls [`MicroBatcher::flush`]. The field stays only because the
    /// frozen benchmark package (`crates/bench/src/bin/benchmark`) names
    /// it in struct literals; ROADMAP lists it for the next `[benchmark]`
    /// PR to drop.
    pub workers: usize,
}

impl Default for BatcherConfig {
    fn default() -> Self {
        BatcherConfig { max_batch: 64, workers: 0 }
    }
}

/// One served estimate plus its serving metadata.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Estimate {
    /// Estimated cardinality in rows (≥ 1).
    pub cardinality: f64,
    /// Version of the model snapshot that produced (or originally
    /// produced, for cache hits) the estimate.
    pub model_version: u32,
    /// True if the answer came from the cache without inference.
    pub cache_hit: bool,
    /// Requests coalesced into the same forward pass (0 for cache hits).
    pub micro_batch: u32,
    /// Pipeline tier that produced (or originally produced, for cache
    /// hits) the estimate — 0 for monolithic estimators, see
    /// `crate::tier` for the routed ids.
    pub tier: u8,
    /// The primary model's log-std trust signal for this query.
    pub log_std: f64,
}

/// Aggregate flush counters, see
/// [`EstimationService::batch_stats`](crate::EstimationService::batch_stats).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatchStats {
    /// Requests answered by a forward pass.
    pub requests: u64,
    /// Forward passes executed.
    pub batches: u64,
    /// Largest batch flushed so far.
    pub max_batch: u64,
}

impl BatchStats {
    /// Mean requests per forward pass (1.0 when nothing coalesced).
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.requests as f64 / self.batches as f64
        }
    }
}

/// The request-coalescing inference queue. `T` is whatever the owner
/// needs back with each answer (a connection slot, a reply channel).
pub struct MicroBatcher<T> {
    registry: Arc<ModelRegistry>,
    max_batch: usize,
    /// Queued queries, contiguous so a flush can borrow them as one slice.
    queries: VecDeque<LabeledQuery>,
    /// The token of each queued query, plus when it was pushed (for the
    /// queue-wait histogram; `None` when span timing is off).
    tokens: VecDeque<(T, Option<Instant>)>,
}

impl<T> MicroBatcher<T> {
    /// An empty batcher serving models from `registry`.
    pub fn new(registry: Arc<ModelRegistry>, config: BatcherConfig) -> Self {
        assert!(config.max_batch >= 1, "max_batch must be at least 1");
        MicroBatcher {
            registry,
            max_batch: config.max_batch,
            queries: VecDeque::new(),
            tokens: VecDeque::new(),
        }
    }

    /// Queue one sample-annotated query; `token` comes back with its
    /// estimate from the [`flush`](MicroBatcher::flush) that runs it.
    pub fn push(&mut self, query: LabeledQuery, token: T) {
        self.queries.push_back(query);
        self.tokens.push_back((token, lc_obs::enabled().then(Instant::now)));
        metrics::BATCH_QUEUE_DEPTH.set(self.queries.len() as u64);
    }

    /// Queries pushed and not yet flushed.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// Run the oldest queued queries (at most `max_batch`) as one forward
    /// pass and hand each token its estimate, in push order. Returns the
    /// batch size (0 when the queue was empty).
    pub fn flush(&mut self, mut deliver: impl FnMut(T, Estimate)) -> usize {
        let n = self.queries.len().min(self.max_batch);
        if n == 0 {
            return 0;
        }
        metrics::BATCH_SIZE.record(n as u64);
        if lc_obs::enabled() {
            let drained = Instant::now();
            for enqueued in self.tokens.iter().take(n).filter_map(|(_, at)| *at) {
                metrics::BATCH_QUEUE_WAIT_NS
                    .record_duration(drained.saturating_duration_since(enqueued));
            }
        }
        // The snapshot is pinned for the whole batch: a concurrent hot-swap
        // affects the *next* batch, never a running one.
        let snapshot = self.registry.current();
        let forward_span = SpanTimer::start(&metrics::BATCH_FORWARD_NS);
        let estimates = snapshot.estimator.estimate_routed(&self.queries.make_contiguous()[..n]);
        drop(forward_span);
        self.queries.drain(..n);
        metrics::BATCH_QUEUE_DEPTH.set(self.queries.len() as u64);
        for ((token, _), routed) in self.tokens.drain(..n).zip(estimates) {
            // Tier hit counters live here, not in the pipeline, so every
            // answered request is counted exactly once at inference time.
            match routed.tier {
                TIER_FALLBACK => metrics::TIER_FALLBACK_HITS.inc(),
                _ => metrics::TIER_PRIMARY_HITS.inc(),
            }
            deliver(
                token,
                Estimate {
                    cardinality: routed.estimate,
                    model_version: snapshot.version,
                    cache_hit: false,
                    micro_batch: n as u32,
                    tier: routed.tier,
                    log_std: routed.log_std,
                },
            );
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lc_core::{train, Estimator, FeatureMode, MscnEstimator, TrainConfig};
    use lc_engine::{Database, SampleSet};
    use lc_imdb::{generate, ImdbConfig};
    use lc_query::workloads;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn fixture() -> (Database, MscnEstimator, Vec<LabeledQuery>) {
        let db = generate(&ImdbConfig::tiny());
        let mut rng = SmallRng::seed_from_u64(77);
        let samples = SampleSet::draw(&db, 24, &mut rng);
        let data = workloads::synthetic(&db, &samples, 140, 2, 55).queries;
        let cfg = TrainConfig {
            epochs: 2,
            hidden: 16,
            mode: FeatureMode::Bitmaps,
            ..TrainConfig::default()
        };
        let est = train(&db, 24, &data, cfg).estimator;
        (db, est, data)
    }

    /// Push `queries` with their index as token, returning the batcher.
    fn queued(
        est: MscnEstimator,
        queries: &[LabeledQuery],
        max_batch: usize,
    ) -> MicroBatcher<usize> {
        let registry = Arc::new(ModelRegistry::new(est));
        let mut batcher =
            MicroBatcher::new(registry, BatcherConfig { max_batch, ..BatcherConfig::default() });
        for (i, q) in queries.iter().enumerate() {
            batcher.push(q.clone(), i);
        }
        batcher
    }

    #[test]
    fn manual_flush_coalesces_deterministically() {
        let (_, est, data) = fixture();
        let expected: Vec<f64> = data[..10].iter().map(|q| est.estimate(q)).collect();
        let mut batcher = queued(est, &data[..10], 64);
        assert_eq!(batcher.len(), 10);
        let mut got = Vec::new();
        assert_eq!(batcher.flush(|i, e| got.push((i, e))), 10, "one flush drains the queue");
        assert!(batcher.is_empty());
        assert_eq!(got.len(), 10);
        for (pushed, (i, got)) in got.into_iter().enumerate() {
            assert_eq!(i, pushed, "tokens come back in push order");
            // Coalescing must not change results: bitwise equality.
            assert_eq!(got.cardinality, expected[i]);
            assert_eq!(got.micro_batch, 10);
            assert_eq!(got.model_version, 1);
            assert!(!got.cache_hit);
        }
    }

    /// Large coalesced batches ride the arena-backed (and, on multi-core
    /// hosts, block-parallel) forward pass of `lc_core` — the answers
    /// must still be bitwise identical to one-at-a-time inference.
    #[test]
    fn large_coalesced_batch_is_bitwise_identical() {
        let (_, est, data) = fixture();
        let expected: Vec<f64> = data.iter().map(|q| est.estimate(q)).collect();
        let mut batcher = queued(est, &data, 512);
        let mut got = Vec::new();
        assert_eq!(
            batcher.flush(|i, e| got.push((i, e))),
            data.len(),
            "one flush coalesces the whole queue"
        );
        assert_eq!(got.len(), data.len());
        for (i, got) in got {
            assert_eq!(got.cardinality, expected[i], "coalescing changed an estimate");
            assert_eq!(got.micro_batch, data.len() as u32);
        }
    }

    #[test]
    fn max_batch_bounds_every_flush() {
        let (_, est, data) = fixture();
        let mut batcher = queued(est, &data[..10], 4);
        let mut sizes = Vec::new();
        for expect in [4, 4, 2, 0] {
            let flushed = batcher.flush(|i, e| {
                assert_eq!(i, sizes.len(), "a partial flush takes the oldest requests first");
                sizes.push(e.micro_batch);
            });
            assert_eq!(flushed, expect);
        }
        assert_eq!(sizes, vec![4, 4, 4, 4, 4, 4, 4, 4, 2, 2]);
    }
}
