//! The estimation service: registry → cache → batcher glued behind one
//! call, plus the self-healing feedback loop.
//!
//! [`EstimationService::estimate`] is the whole request path of the
//! server, in process form: compute the canonical cache key, probe the
//! sharded LRU, annotate the query against the materialized samples on a
//! miss (§3.4 runtime featurization — no query execution), enqueue into
//! the micro-batcher, and cache the result under the producing model's
//! version. [`EstimationService::submit`] exposes the non-blocking half
//! so callers holding many queries can enqueue them all before waiting —
//! that is what makes the coalesced path reachable from a single thread.
//!
//! [`EstimationService::feedback`] closes the maintenance loop the paper
//! leaves open (§5 "Updates"): each `(query, actual)` observation is
//! scored against the *current* model, recorded in the
//! [`DriftMonitor`]'s per-template rolling windows, and banked in the
//! retraining corpus. When a window trips, a background retrainer thread
//! runs [`train_incremental`] over the corpus (frozen featurizer, warm
//! weights — the worker pool parallelizes the steps) and
//! [`ModelRegistry::publish`]es the result mid-traffic: in-flight
//! micro-batches keep their snapshot, the version-keyed cache
//! invalidates for free, and the drift windows reset so stale
//! pre-retrain q-errors cannot immediately re-trip.
//!
//! Inference itself rides `lc_core`'s allocation-free compute core: the
//! batcher worker's scratch arena persists across batches, and large
//! coalesced batches go block-parallel inside `estimate_all` without
//! changing a single output bit (see `lc_nn`'s kernel determinism
//! notes), so the service can raise `max_batch` for throughput without
//! a correctness trade.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Receiver;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use lc_core::train_incremental;
use lc_engine::{Database, SampleSet};
use lc_obs::{metrics, RateLimitedLog, SpanTimer};
use lc_query::{annotate_query, Query};

use crate::batcher::{BatchStats, BatchedEstimate, BatcherConfig, MicroBatcher};
use crate::cache::{CacheStats, CachedEstimate, EstimateCache};
use crate::config::{FrontConfig, ServeConfig};
use crate::drift::{DriftDecision, DriftMonitor};
use crate::registry::ModelRegistry;
use crate::tier::{TIER_FALLBACK, TIER_GBM};

/// Error returned by [`EstimationService::estimate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The service shut down before the request was answered.
    Shutdown,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Shutdown => write!(f, "estimation service shut down"),
        }
    }
}

impl std::error::Error for ServeError {}

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

/// A long-lived, thread-safe estimation service. Share it across
/// connection threads behind an `Arc`.
pub struct EstimationService {
    db: Database,
    samples: SampleSet,
    registry: Arc<ModelRegistry>,
    cache: EstimateCache,
    batcher: MicroBatcher,
    drift: Arc<DriftMonitor>,
    /// Sizing/admission policy of the sharded TCP front, carried here so
    /// `serve(service, addr)` needs no extra argument.
    front: FrontConfig,
    /// Guard ensuring at most one retrain runs at a time; reset by the
    /// retrainer thread itself when it finishes.
    retrain_in_flight: Arc<AtomicBool>,
    /// The latest retrainer thread, joined on the next schedule or at
    /// shutdown.
    retrainer: Mutex<Option<JoinHandle<()>>>,
}

/// An estimate in flight: either answered from the cache at submit time
/// or waiting on the micro-batcher. Produced by
/// [`EstimationService::submit`]; redeem it with
/// [`PendingEstimate::wait`].
pub struct PendingEstimate<'a> {
    service: &'a EstimationService,
    state: PendingState,
}

enum PendingState {
    Ready(Estimate),
    Waiting {
        /// Canonical query bytes — the version suffix is appended when
        /// the batch result (and thus the producing version) is known.
        query_key: Vec<u8>,
        rx: Receiver<BatchedEstimate>,
    },
}

/// Outcome of [`EstimationService::probe_cache`] — the non-blocking
/// cache probe the sharded TCP front runs before enqueueing into its
/// per-shard batcher.
pub(crate) enum CacheProbe {
    /// Answered from the cache; no inference needed.
    Hit(Estimate),
    /// Not cached: `query_key` is the bare canonical encoding to pass to
    /// [`EstimationService::cache_insert`] once the producing version is
    /// known (`None` when the cache is disabled).
    Miss {
        /// Canonical query bytes without the version suffix.
        query_key: Option<Vec<u8>>,
    },
}

impl PendingEstimate<'_> {
    /// True if the answer is already available (cache hit).
    pub fn is_ready(&self) -> bool {
        matches!(self.state, PendingState::Ready(_))
    }

    /// Block until the estimate is available, inserting batch-produced
    /// results into the cache.
    pub fn wait(self) -> Result<Estimate, ServeError> {
        match self.state {
            PendingState::Ready(estimate) => Ok(estimate),
            PendingState::Waiting { mut query_key, rx } => {
                let batched = rx.recv().map_err(|_| ServeError::Shutdown)?;
                if self.service.cache.enabled() {
                    query_key.extend_from_slice(&batched.model_version.to_le_bytes());
                    self.service.cache.insert(
                        query_key,
                        CachedEstimate {
                            cardinality: batched.cardinality,
                            tier: batched.tier,
                            log_std: batched.log_std,
                        },
                    );
                }
                Ok(Estimate {
                    cardinality: batched.cardinality,
                    model_version: batched.model_version,
                    cache_hit: false,
                    micro_batch: batched.micro_batch,
                    tier: batched.tier,
                    log_std: batched.log_std,
                })
            }
        }
    }
}

impl EstimationService {
    /// Build a service over a database snapshot and its materialized
    /// samples. `samples` must be the sample set whose size the
    /// registry's models were trained with (their featurizers bake the
    /// bitmap width in).
    pub fn new(
        db: Database,
        samples: SampleSet,
        registry: Arc<ModelRegistry>,
        config: ServeConfig,
    ) -> Self {
        EstimationService {
            db,
            samples,
            cache: EstimateCache::new(config.cache),
            batcher: MicroBatcher::new(Arc::clone(&registry), config.batcher),
            registry,
            drift: Arc::new(DriftMonitor::new(config.drift)),
            front: config.front,
            retrain_in_flight: Arc::new(AtomicBool::new(false)),
            retrainer: Mutex::new(None),
        }
    }

    /// Non-blocking request entry: probe the cache, and on a miss
    /// annotate + enqueue into the micro-batcher. Submitting many
    /// queries before waiting on any lets one thread fill a whole
    /// micro-batch.
    pub fn submit(&self, query: &Query) -> PendingEstimate<'_> {
        // When the cache is disabled, skip key construction entirely —
        // the hot path then carries zero cache overhead.
        let mut query_key = Vec::new();
        if self.cache.enabled() {
            // Probe with the version suffix appended in place, then
            // strip it again for the Waiting state (wait() re-appends
            // the *producing* version) — one allocation, no clone.
            query_key = query.to_canonical_bytes();
            let version = self.registry.active_version();
            query_key.extend_from_slice(&version.to_le_bytes());
            if let Some(cached) = self.cache.get(&query_key) {
                metrics::CACHE_HITS.inc();
                return PendingEstimate {
                    service: self,
                    state: PendingState::Ready(Estimate {
                        cardinality: cached.cardinality,
                        model_version: version,
                        cache_hit: true,
                        micro_batch: 0,
                        tier: cached.tier,
                        log_std: cached.log_std,
                    }),
                };
            }
            query_key.truncate(query_key.len() - 4);
            metrics::CACHE_MISSES.inc();
        }
        let annotated = annotate_query(&self.db, &self.samples, query.clone());
        let rx = self.batcher.submit(annotated);
        PendingEstimate { service: self, state: PendingState::Waiting { query_key, rx } }
    }

    /// Estimate one query, blocking until the answer is available.
    pub fn estimate(&self, query: &Query) -> Result<Estimate, ServeError> {
        self.submit(query).wait()
    }

    /// Record execution feedback: the client ran `query` and observed
    /// `actual_card` rows. The observation is scored against the
    /// *current* model (so recovery after a retrain is visible in the
    /// rolling windows), recorded in the drift monitor, and — when its
    /// true cardinality is trainable (≥ 1 row; a zero-row target has no
    /// log-space label) — banked in the retraining corpus. If this
    /// observation trips a drift window and no retrain is already
    /// running, an incremental retrain is scheduled in the background.
    ///
    /// Returns the estimate the current model gave, whose
    /// `model_version` the feedback ack reports back to the client.
    pub fn feedback(&self, query: &Query, actual_card: u64) -> Result<Estimate, ServeError> {
        let estimate = self.estimate(query)?;
        self.record_feedback(query, estimate.cardinality, estimate.tier, actual_card);
        Ok(estimate)
    }

    /// The bookkeeping half of [`EstimationService::feedback`], for
    /// callers that already hold the current model's estimate for
    /// `query` (the sharded TCP front scores feedback against its own
    /// batched estimate instead of estimating twice): record the
    /// observation in the drift windows, bank the corpus entry, and
    /// schedule a retrain when a window trips. `tier` attributes the
    /// observed q-error to the pipeline tier that produced the estimate,
    /// feeding the per-tier accuracy histograms.
    pub(crate) fn record_feedback(
        &self,
        query: &Query,
        estimated: f64,
        tier: u8,
        actual_card: u64,
    ) {
        metrics::SERVE_FEEDBACK.inc();
        if actual_card >= 1 && estimated >= 1.0 {
            let actual = actual_card as f64;
            let qerror = (estimated / actual).max(actual / estimated);
            let hist = match tier {
                TIER_GBM => &metrics::TIER_GBM_QERROR_X100,
                TIER_FALLBACK => &metrics::TIER_FALLBACK_QERROR_X100,
                _ => &metrics::TIER_PRIMARY_QERROR_X100,
            };
            hist.record((qerror * 100.0).min(u64::MAX as f64) as u64);
        }
        let corpus_entry = (actual_card >= 1).then(|| {
            let mut labeled = annotate_query(&self.db, &self.samples, query.clone());
            labeled.cardinality = actual_card;
            labeled
        });
        let decision =
            self.drift.record(query.join_template(), estimated, actual_card, corpus_entry);
        if decision == DriftDecision::Retrain {
            metrics::DRIFT_TRIPS.inc();
            self.schedule_retrain();
        }
    }

    /// The cache half of [`EstimationService::submit`] for callers that
    /// run their own micro-batcher (the sharded TCP front): probe only,
    /// never enqueue. Hit/miss counters record exactly as in `submit`.
    pub(crate) fn probe_cache(&self, query: &Query) -> CacheProbe {
        if !self.cache.enabled() {
            return CacheProbe::Miss { query_key: None };
        }
        let mut query_key = query.to_canonical_bytes();
        let version = self.registry.active_version();
        query_key.extend_from_slice(&version.to_le_bytes());
        if let Some(cached) = self.cache.get(&query_key) {
            metrics::CACHE_HITS.inc();
            return CacheProbe::Hit(Estimate {
                cardinality: cached.cardinality,
                model_version: version,
                cache_hit: true,
                micro_batch: 0,
                tier: cached.tier,
                log_std: cached.log_std,
            });
        }
        query_key.truncate(query_key.len() - 4);
        metrics::CACHE_MISSES.inc();
        CacheProbe::Miss { query_key: Some(query_key) }
    }

    /// Insert a batch-produced estimate under the producing model
    /// version — the insert half of [`PendingEstimate::wait`], for the
    /// sharded front's resolution path.
    pub(crate) fn cache_insert(
        &self,
        mut query_key: Vec<u8>,
        model_version: u32,
        value: CachedEstimate,
    ) {
        if self.cache.enabled() {
            query_key.extend_from_slice(&model_version.to_le_bytes());
            self.cache.insert(query_key, value);
        }
    }

    /// Annotate `query` against this service's database snapshot and
    /// materialized samples (the featurization input every batcher
    /// expects). The query moves into its annotation.
    pub(crate) fn annotate(&self, query: Query) -> lc_query::LabeledQuery {
        annotate_query(&self.db, &self.samples, query)
    }

    /// The flush policy of this service's batcher — the sharded front
    /// clones it (with `workers: 0`) for its per-shard batchers.
    pub(crate) fn batcher_config(&self) -> BatcherConfig {
        self.batcher.config()
    }

    /// The TCP-front sizing/admission policy this service was built with.
    pub(crate) fn front_config(&self) -> FrontConfig {
        self.front
    }

    /// Spawn the background retrainer unless one is already in flight.
    /// The thread snapshots the feedback corpus, runs
    /// [`train_incremental`] (frozen featurizer, warm-started weights),
    /// publishes the result, and resets the drift windows — all while
    /// traffic keeps being served by the previous snapshot.
    fn schedule_retrain(&self) {
        if self
            .retrain_in_flight
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            return;
        }
        let drift = Arc::clone(&self.drift);
        let registry = Arc::clone(&self.registry);
        let in_flight = Arc::clone(&self.retrain_in_flight);
        let handle = std::thread::Builder::new()
            .name("lc-retrain".into())
            .spawn(move || {
                // Catch panics so a failed retrain can never wedge the
                // in-flight flag (which would silently disable
                // self-healing for the rest of the process).
                let span = SpanTimer::start(&metrics::RETRAIN_NS);
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let corpus = drift.corpus_snapshot();
                    if !corpus.is_empty() {
                        let prev = registry.current();
                        let config = drift.config().retrain;
                        let retrained = train_incremental(prev.base(), &corpus, config);
                        registry.publish(retrained);
                        drift.on_publish();
                    }
                }));
                drop(span);
                in_flight.store(false, Ordering::Release);
                match result {
                    Ok(()) => metrics::RETRAIN_SUCCESS.inc(),
                    Err(_) => {
                        // The counter records every panic; the log line is
                        // rate-limited so a persistently failing retrain
                        // cannot flood stderr under sustained drift.
                        metrics::RETRAIN_PANICS.inc();
                        static PANIC_LOG: RateLimitedLog = RateLimitedLog::new();
                        if PANIC_LOG.should_log(std::time::Duration::from_secs(5)) {
                            eprintln!(
                                "lc-serve: background retrain panicked; model not updated \
                                 ({} panics total)",
                                metrics::RETRAIN_PANICS.get()
                            );
                        }
                    }
                }
            })
            .expect("spawn retrainer thread");
        let mut slot = self.retrainer.lock().expect("retrainer slot poisoned");
        // Any previous retrainer already dropped the in-flight flag, so
        // this join is (at most) a brief thread-exit wait.
        if let Some(previous) = slot.replace(handle) {
            let _ = previous.join();
        }
    }

    /// The model registry (hot-swap entry point).
    pub fn registry(&self) -> &Arc<ModelRegistry> {
        &self.registry
    }

    /// The drift monitor (rolling windows, feedback corpus, counters).
    pub fn drift(&self) -> &DriftMonitor {
        &self.drift
    }

    /// True while a background incremental retrain is running.
    pub fn retrain_in_flight(&self) -> bool {
        self.retrain_in_flight.load(Ordering::Acquire)
    }

    /// Estimate-cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Micro-batcher counters.
    pub fn batch_stats(&self) -> BatchStats {
        self.batcher.stats()
    }

    /// Synchronously process at most one queued batch (deterministic
    /// mode, `workers: 0`); returns its size.
    pub fn flush_now(&self) -> usize {
        self.batcher.flush_now()
    }

    /// Stop the batcher: drain queued requests, join workers (including
    /// any in-flight retrainer), and refuse new submissions. Idempotent
    /// (also runs on drop).
    pub fn shutdown(&self) {
        self.batcher.shutdown();
        let handle = self.retrainer.lock().expect("retrainer slot poisoned").take();
        if let Some(handle) = handle {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batcher::BatcherConfig;
    use crate::cache::CacheConfig;
    use crate::config::DriftConfig;
    use lc_core::{train, Estimator, FeatureMode, MscnEstimator, TrainConfig};
    use lc_imdb::{generate, ImdbConfig};
    use lc_query::{workloads, LabeledQuery};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use std::time::{Duration, Instant};

    fn fixture() -> (Database, SampleSet, MscnEstimator, MscnEstimator, Vec<LabeledQuery>) {
        let db = generate(&ImdbConfig::tiny());
        let mut rng = SmallRng::seed_from_u64(3);
        let samples = SampleSet::draw(&db, 24, &mut rng);
        let data = workloads::synthetic(&db, &samples, 140, 2, 71).queries;
        let cfg = TrainConfig {
            epochs: 2,
            hidden: 16,
            mode: FeatureMode::Bitmaps,
            ..TrainConfig::default()
        };
        let a = train(&db, 24, &data, cfg).estimator;
        let b = train(&db, 24, &data, TrainConfig { seed: 1234, ..cfg }).estimator;
        (db, samples, a, b, data)
    }

    fn service(workers: usize) -> (EstimationService, MscnEstimator, Vec<LabeledQuery>) {
        let (db, samples, a, _, data) = fixture();
        let registry = Arc::new(ModelRegistry::new(a.clone()));
        let config = ServeConfig {
            batcher: BatcherConfig { workers, ..BatcherConfig::default() },
            ..ServeConfig::default()
        };
        (EstimationService::new(db, samples, registry, config), a, data)
    }

    #[test]
    fn estimates_match_direct_inference_and_cache_on_repeat() {
        let (svc, est, data) = service(1);
        let q = &data[0].query;
        let direct = est.estimate(&data[0]);
        let first = svc.estimate(q).unwrap();
        assert_eq!(first.cardinality, direct, "service must not change the estimate");
        assert!(!first.cache_hit);
        assert!(first.micro_batch >= 1);
        let second = svc.estimate(q).unwrap();
        assert!(second.cache_hit, "repeat of the same query must hit the cache");
        assert_eq!(second.cardinality, direct);
        assert_eq!(second.micro_batch, 0);
        let stats = svc.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        svc.shutdown();
    }

    #[test]
    fn submit_then_wait_coalesces_a_whole_batch() {
        let (svc, est, data) = service(0);
        let expected: Vec<f64> = data[..16].iter().map(|q| est.estimate(q)).collect();
        let pending: Vec<_> = data[..16].iter().map(|l| svc.submit(&l.query)).collect();
        assert_eq!(svc.flush_now(), 16);
        for (p, want) in pending.into_iter().zip(expected) {
            let got = p.wait().unwrap();
            assert_eq!(got.cardinality, want);
            assert_eq!(got.micro_batch, 16);
        }
        assert_eq!(svc.batch_stats().batches, 1);
        // All 16 answers were cached on wait().
        assert_eq!(svc.cache_stats().entries, 16);
        for l in &data[..16] {
            assert!(svc.submit(&l.query).is_ready());
        }
    }

    #[test]
    fn hot_swap_under_concurrent_load_switches_versions_without_errors() {
        let (db, samples, a, b, data) = fixture();
        let expect_v1: Vec<f64> = data.iter().map(|q| a.estimate(q)).collect();
        let expect_v2: Vec<f64> = data.iter().map(|q| b.estimate(q)).collect();
        let registry = Arc::new(ModelRegistry::new(a));
        // Cache disabled so every request exercises inference against
        // whichever snapshot is active at flush time.
        let config = ServeConfig {
            cache: CacheConfig { capacity: 0, ..CacheConfig::default() },
            ..ServeConfig::default()
        };
        let svc = EstimationService::new(db, samples, Arc::clone(&registry), config);
        // 3 clients + the swapping main thread. Clients hammer the
        // service across the swap; the barrier guarantees requests land
        // both before and after it, so the assertions are deterministic.
        let swap_point = std::sync::Barrier::new(4);
        let swapped = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            let mut clients = Vec::new();
            for t in 0..3usize {
                let svc = &svc;
                let data = &data;
                let (swap_point, swapped) = (&swap_point, &swapped);
                let (expect_v1, expect_v2) = (&expect_v1, &expect_v2);
                clients.push(s.spawn(move || {
                    let mut saw = [false, false];
                    for round in 0..6 {
                        if round == 3 {
                            swap_point.wait(); // main publishes v2 between
                            swapped.wait(); // these two rendezvous
                        }
                        for (i, l) in data.iter().enumerate().skip(t * 7).step_by(3) {
                            let got = svc.estimate(&l.query).expect("serving during hot-swap");
                            // Every answer is exactly one version's answer
                            // — never a blend, whatever the swap timing.
                            match got.model_version {
                                1 => assert_eq!(got.cardinality, expect_v1[i]),
                                2 => assert_eq!(got.cardinality, expect_v2[i]),
                                v => panic!("unexpected version {v}"),
                            }
                            saw[got.model_version as usize - 1] = true;
                        }
                    }
                    saw
                }));
            }
            swap_point.wait();
            let v2 = registry.publish(b.clone());
            assert_eq!(v2, 2);
            swapped.wait();
            for client in clients {
                let saw = client.join().expect("client panicked");
                assert!(saw[0], "client never served by v1 before the swap");
                assert!(saw[1], "client never served by v2 after the swap");
            }
        });
        svc.shutdown();
    }

    #[test]
    fn cache_keys_include_the_model_version() {
        let (db, samples, a, b, data) = fixture();
        let q = &data[3].query;
        let registry = Arc::new(ModelRegistry::new(a.clone()));
        let svc =
            EstimationService::new(db, samples, Arc::clone(&registry), ServeConfig::default());
        let v1_answer = svc.estimate(q).unwrap();
        assert!(svc.estimate(q).unwrap().cache_hit);
        registry.publish(b.clone());
        // The v1 entry must not answer for v2.
        let after_swap = svc.estimate(q).unwrap();
        assert!(!after_swap.cache_hit, "stale cache entry served across a hot-swap");
        assert_eq!(after_swap.model_version, 2);
        assert_eq!(after_swap.cardinality, b.estimate(&data[3]));
        // Rolling back reuses the old entry: it is still keyed under v1.
        registry.activate(1).unwrap();
        let rolled_back = svc.estimate(q).unwrap();
        assert!(rolled_back.cache_hit);
        assert_eq!(rolled_back.cardinality, v1_answer.cardinality);
        svc.shutdown();
    }

    /// Regression guard for the `--quantized` deployment: a hot-swap
    /// must never serve an answer computed by the previous version's
    /// weights out of the cache. The quantized pipeline makes this
    /// observable — int8 and f32 answers differ slightly for the same
    /// base weights, so a stale entry would leak the wrong numerics,
    /// not just a stale version number.
    #[test]
    fn quantized_hot_swap_never_serves_stale_cache_answers() {
        let (db, samples, a, b, data) = fixture();
        let q = &data[3].query;
        let expect_v1 = lc_core::QuantizedMscn::quantize(&a).estimate(&data[3]);
        let expect_v2 = lc_core::QuantizedMscn::quantize(&b).estimate(&data[3]);
        let registry = Arc::new(ModelRegistry::with_pipeline(
            a,
            Box::new(|base| Arc::new(lc_core::QuantizedMscn::quantize(base))),
        ));
        let svc =
            EstimationService::new(db, samples, Arc::clone(&registry), ServeConfig::default());
        // First answer is the int8 path, and it gets cached under v1.
        let first = svc.estimate(q).unwrap();
        assert_eq!(first.cardinality, expect_v1);
        assert!(svc.estimate(q).unwrap().cache_hit);
        // Publish re-quantizes the new base; the v1 cache entry must
        // not answer for v2.
        registry.publish(b);
        let after_swap = svc.estimate(q).unwrap();
        assert!(!after_swap.cache_hit, "stale quantized cache entry served across a hot-swap");
        assert_eq!(after_swap.model_version, 2);
        assert_eq!(after_swap.cardinality, expect_v2);
        svc.shutdown();
    }

    #[test]
    fn estimate_after_shutdown_reports_shutdown() {
        let (svc, _, data) = service(1);
        svc.shutdown();
        assert_eq!(svc.estimate(&data[0].query), Err(ServeError::Shutdown));
    }

    /// The whole self-healing loop, in process form: feedback with large
    /// q-errors trips the drift monitor, a background retrain fires, and
    /// a strictly newer model version is published mid-service — without
    /// an estimate ever failing.
    #[test]
    fn feedback_driven_retrain_publishes_a_new_version() {
        let (db, samples, a, _, data) = fixture();
        let registry = Arc::new(ModelRegistry::new(a));
        let config = ServeConfig {
            drift: DriftConfig {
                window: 16,
                min_samples: 8,
                qerror_threshold: 2.0,
                min_corpus: 8,
                ..DriftConfig::default()
            },
            ..ServeConfig::default()
        };
        let svc = EstimationService::new(db, samples, Arc::clone(&registry), config);
        assert_eq!(registry.active_version(), 1);
        assert_eq!(svc.drift().retrains(), 0);

        // Report wildly wrong "actuals" so every observation has a huge
        // q-error; the labels themselves are valid training targets.
        // Drift windows are per join template, so repeat a handful of
        // queries: each repetition lands in the same window, and the
        // first template to accrue `min_samples` observations trips.
        for l in data.iter().take(5) {
            for _ in 0..8 {
                let est = svc.feedback(&l.query, 1_000_000).expect("feedback");
                assert!(est.cardinality >= 1.0);
            }
        }
        // The retrain runs in the background; wait for it (bounded).
        let deadline = Instant::now() + Duration::from_secs(30);
        while (svc.retrain_in_flight() || svc.drift().retrains() == 0) && Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(20));
        }
        assert!(svc.drift().retrains() >= 1, "drift never triggered a retrain");
        assert!(
            registry.active_version() >= 2,
            "retrain did not publish a new version (active {})",
            registry.active_version()
        );
        // Serving kept working across the publish.
        let est = svc.estimate(&data[0].query).expect("estimate after retrain");
        assert!(est.cardinality >= 1.0);
        svc.shutdown();
    }

    /// Zero-row feedback contributes to drift detection but is excluded
    /// from the corpus — ln(0) would poison the training targets.
    #[test]
    fn zero_row_feedback_never_reaches_the_corpus() {
        let (svc, _, data) = service(1);
        for l in data.iter().take(5) {
            svc.feedback(&l.query, 0).expect("feedback");
        }
        assert_eq!(svc.drift().feedback_count(), 5);
        assert!(svc.drift().corpus_snapshot().is_empty());
        svc.shutdown();
    }
}
