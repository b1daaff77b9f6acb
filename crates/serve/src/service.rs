//! The estimation service: registry → cache → batcher glued behind one
//! call, plus the self-healing feedback loop.
//!
//! A request runs through one lane, whoever carries it: refuse a query
//! the served schema does not hold (`check`); compute the canonical cache
//! key and probe the sharded LRU (`probe`); on a miss
//! annotate the query against the materialized samples (§3.4 runtime
//! featurization — no query execution) and push it into a
//! [`MicroBatcher`] (`enqueue`); flush the batcher and cache each result
//! under the producing model's version (`flush`). A reactor shard of the TCP front owns
//! a batcher of its own and drives those three calls from its readiness
//! loop. In process, [`EstimationService::submit`] /
//! [`PendingEstimate::wait`] drive the same three calls over a batcher
//! the service keeps behind a mutex: `submit` is the non-blocking half,
//! so a caller holding many queries can enqueue them all before waiting,
//! and `wait` on an unflushed request flushes on the caller's own thread
//! — concurrent callers coalesce into whoever flushes first. There is no
//! batcher thread.
//!
//! [`EstimationService::feedback`] closes the maintenance loop the paper
//! leaves open (§5 "Updates"): each `(query, actual)` observation is
//! scored against the *current* model, recorded in the
//! [`DriftMonitor`]'s per-template rolling windows, and banked in the
//! retraining corpus. When a window trips, a background retrainer thread
//! runs [`train_incremental`] over the corpus (frozen featurizer, warm
//! weights) and
//! [`ModelRegistry::publish`]es the result mid-traffic: in-flight
//! micro-batches keep their snapshot, the version-keyed cache
//! invalidates for free, and the drift windows reset so stale
//! pre-retrain q-errors cannot immediately re-trip.
//!
//! **The retrainer runs beside the serving cores, not on them.** It is
//! spawned from whichever thread records the tripping feedback — a
//! reactor shard pinned to one CPU — and would inherit that one-CPU mask.
//! Each shard records the CPU it pinned in the service's serving set
//! ([`EstimationService::serving_cpus`]); the retrainer's first act is to
//! restrict itself to the process's CPU set minus those
//! (`lc_nn::cpus_beside`). When the shards hold every CPU it takes the
//! whole process set instead of one shard's core, and counts
//! `retrain.shared_core`. A retrain whose `TrainConfig::threads` is 0
//! runs on one thread: the global pool's workers are pinned round-robin
//! over every CPU, shard CPUs included. With pinning off
//! (`LC_PIN_WORKERS=0`) nothing is pinned and nothing is recorded.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use lc_core::{train_incremental, TrainConfig};
use lc_engine::{ColumnRole, Database, SampleSet};
use lc_obs::{metrics, Histogram, RateLimitedLog, SpanTimer};
use lc_query::{annotate_query, Query};

pub use crate::batcher::Estimate;
use crate::batcher::{BatchStats, BatcherConfig, MicroBatcher};
use crate::cache::{CacheStats, CachedEstimate, EstimateCache};
use crate::config::{FrontConfig, ServeConfig};
use crate::drift::{DriftDecision, DriftMonitor};
use crate::registry::ModelRegistry;
use crate::tier::TIER_FALLBACK;

/// Error returned by [`EstimationService::estimate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The service shut down before the request was answered.
    Shutdown,
    /// The query names a table, join or column the served schema does not
    /// have, or puts a predicate on a key column. Nothing was estimated or
    /// recorded.
    OutOfSchema(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Shutdown => write!(f, "estimation service shut down"),
            ServeError::OutOfSchema(detail) => {
                write!(f, "query outside the served schema: {detail}")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// What rides a [`MicroBatcher`] on this service's lane: the owner's
/// token plus the cache key its answer fills.
pub(crate) struct Ticket<T> {
    /// Canonical query bytes without the version suffix — appended when
    /// the flush (and thus the producing version) is known. `None` when
    /// the cache is disabled.
    query_key: Option<Vec<u8>>,
    token: T,
}

/// The batcher behind the in-process [`EstimationService::submit`].
struct Lane {
    batcher: MicroBatcher<Ticket<Sender<Estimate>>>,
    /// Set by [`EstimationService::shutdown`]: later submissions are
    /// refused instead of queued.
    shutdown: bool,
}

/// A long-lived, thread-safe estimation service. Share it across
/// connection threads behind an `Arc`.
pub struct EstimationService {
    db: Database,
    samples: SampleSet,
    registry: Arc<ModelRegistry>,
    cache: EstimateCache,
    batcher_config: BatcherConfig,
    lane: Mutex<Lane>,
    /// Batch sizes of every flush on this lane, the shards' included.
    flushed: Histogram,
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
    /// CPUs the reactor shards serving this service pinned, ascending —
    /// the ones a retrainer keeps off.
    serving_cpus: Mutex<Vec<usize>>,
}

/// An estimate in flight: either answered from the cache at submit time
/// or queued for the next flush. Produced by
/// [`EstimationService::submit`]; redeem it with
/// [`PendingEstimate::wait`].
pub struct PendingEstimate<'a> {
    service: &'a EstimationService,
    state: PendingState,
}

enum PendingState {
    Ready(Result<Estimate, ServeError>),
    Waiting(Receiver<Estimate>),
}

impl PendingEstimate<'_> {
    /// True if the answer is already available (cache hit or refusal).
    pub fn is_ready(&self) -> bool {
        matches!(self.state, PendingState::Ready(_))
    }

    /// Block until the estimate is available. A request nobody flushed
    /// yet is flushed here, on the caller's thread, together with
    /// everything else queued.
    pub fn wait(self) -> Result<Estimate, ServeError> {
        let rx = match self.state {
            PendingState::Ready(result) => return result,
            PendingState::Waiting(rx) => rx,
        };
        loop {
            // Flushes run under the lane lock, so once `flush_now`
            // returns this request was either answered (by this flush or
            // a concurrent caller's) or is still queued behind more than
            // `max_batch` older ones — flush again.
            match rx.try_recv() {
                Ok(estimate) => return Ok(estimate),
                Err(TryRecvError::Disconnected) => return Err(ServeError::Shutdown),
                Err(TryRecvError::Empty) => self.service.flush_now(),
            };
        }
    }
}

impl EstimationService {
    /// Build a service over a database snapshot and its materialized
    /// samples. `samples` must be the sample set whose size the
    /// registry's models were trained with (their featurizers bake the
    /// bitmap width in).
    ///
    /// # Panics
    /// If the active model was trained with another sample size.
    pub fn new(
        db: Database,
        samples: SampleSet,
        registry: Arc<ModelRegistry>,
        config: ServeConfig,
    ) -> Self {
        let trained_with = registry.current().base().featurizer().sample_size();
        assert_eq!(
            trained_with,
            samples.sample_size(),
            "the active model was trained with sample size {trained_with}, but the service \
             annotates queries against {} samples",
            samples.sample_size()
        );
        EstimationService {
            db,
            samples,
            cache: EstimateCache::new(config.cache),
            batcher_config: config.batcher,
            lane: Mutex::new(Lane {
                batcher: MicroBatcher::new(Arc::clone(&registry), config.batcher),
                shutdown: false,
            }),
            flushed: Histogram::new(),
            registry,
            drift: Arc::new(DriftMonitor::new(config.drift)),
            front: config.front,
            retrain_in_flight: Arc::new(AtomicBool::new(false)),
            retrainer: Mutex::new(None),
            serving_cpus: Mutex::new(Vec::new()),
        }
    }

    /// Record that a reactor shard serving this service pinned `cpu`.
    pub(crate) fn claim_serving_cpu(&self, cpu: usize) {
        let mut cpus = self.serving_cpus.lock().expect("serving cpus poisoned");
        if let Err(at) = cpus.binary_search(&cpu) {
            cpus.insert(at, cpu);
        }
    }

    /// The CPUs this service's reactor shards pinned, ascending (empty
    /// with pinning off or no server).
    pub fn serving_cpus(&self) -> Vec<usize> {
        self.serving_cpus.lock().expect("serving cpus poisoned").clone()
    }

    /// The CPUs a retrain scheduled now would run on.
    pub fn retrain_cpus(&self) -> Vec<usize> {
        lc_nn::cpus_beside(lc_nn::process_cpus(), &self.serving_cpus()).0
    }

    /// An empty batcher on this service's lane, for a caller that owns
    /// its own queue (one per reactor shard).
    pub(crate) fn batcher<T>(&self) -> MicroBatcher<Ticket<T>> {
        MicroBatcher::new(Arc::clone(&self.registry), self.batcher_config)
    }

    /// Lane step 0, before the cache probe: refuse a query the served
    /// schema cannot annotate or featurize. Ids arrive from the network as
    /// any `u16`, and the sample probe and the featurizer index by them.
    pub(crate) fn check(&self, query: &Query) -> Result<(), ServeError> {
        let schema = self.db.schema();
        let refuse = |detail| Err(ServeError::OutOfSchema(detail));
        if let Some(t) = query.tables().iter().find(|t| t.index() >= schema.num_tables()) {
            return refuse(format!("table {} (the schema has {})", t.0, schema.num_tables()));
        }
        if let Some(j) = query.joins().iter().find(|j| j.index() >= schema.num_joins()) {
            return refuse(format!("join {} (the schema has {})", j.0, schema.num_joins()));
        }
        for p in query.predicates() {
            let Some(table) = schema.tables.get(p.table.index()) else {
                return refuse(format!("predicate on table {}", p.table.0));
            };
            match table.columns.get(p.column).map(|c| c.role) {
                Some(ColumnRole::Data) => {}
                Some(_) => {
                    return refuse(format!("predicate on key column {}.{}", table.name, p.column))
                }
                None => return refuse(format!("predicate on column {}.{}", table.name, p.column)),
            }
        }
        Ok(())
    }

    /// Lane step 1: probe the cache. `Ok` is a hit; `Err` carries the
    /// miss's cache key for `enqueue` (`None` when
    /// the cache is disabled — the hot path then builds no key at all).
    pub(crate) fn probe(&self, query: &Query) -> Result<Estimate, Option<Vec<u8>>> {
        if !self.cache.enabled() {
            return Err(None);
        }
        // Probe with the version suffix appended in place, then strip it
        // again: the flush re-appends the *producing* version — one
        // allocation, no clone.
        let mut query_key = query.to_canonical_bytes();
        let version = self.registry.active_version();
        query_key.extend_from_slice(&version.to_le_bytes());
        if let Some(cached) = self.cache.get(&query_key) {
            metrics::CACHE_HITS.inc();
            return Ok(Estimate {
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
        Err(Some(query_key))
    }

    /// Lane step 2, for a miss: annotate `query` against this service's
    /// materialized samples (the featurization input the model expects)
    /// and queue it. `token` comes back from the flush that answers it.
    pub(crate) fn enqueue<T>(
        &self,
        batcher: &mut MicroBatcher<Ticket<T>>,
        query: Query,
        query_key: Option<Vec<u8>>,
        token: T,
    ) {
        batcher.push(annotate_query(&self.db, &self.samples, query), Ticket { query_key, token });
    }

    /// Lane step 3: run one batch of `batcher`, cache every result under
    /// the producing model version and hand each token its estimate.
    /// Returns the batch size (0 when nothing was queued).
    pub(crate) fn flush<T>(
        &self,
        batcher: &mut MicroBatcher<Ticket<T>>,
        mut deliver: impl FnMut(T, Estimate),
    ) -> usize {
        let n = batcher.flush(|ticket, estimate| {
            if let Some(mut key) = ticket.query_key {
                key.extend_from_slice(&estimate.model_version.to_le_bytes());
                self.cache.insert(
                    key,
                    CachedEstimate {
                        cardinality: estimate.cardinality,
                        tier: estimate.tier,
                        log_std: estimate.log_std,
                    },
                );
            }
            deliver(ticket.token, estimate);
        });
        if n > 0 {
            self.flushed.record(n as u64);
        }
        n
    }

    /// Non-blocking request entry: check the query against the schema,
    /// probe the cache, and on a miss annotate + enqueue. Submitting many
    /// queries before waiting on any lets one thread fill a whole
    /// micro-batch.
    pub fn submit(&self, query: &Query) -> PendingEstimate<'_> {
        let state = match self.check(query).map(|()| self.probe(query)) {
            Err(refused) => PendingState::Ready(Err(refused)),
            Ok(Ok(hit)) => PendingState::Ready(Ok(hit)),
            Ok(Err(query_key)) => {
                let (tx, rx) = channel();
                let mut lane = self.lane();
                // After shutdown `tx` drops here: `wait` reports it.
                if !lane.shutdown {
                    self.enqueue(&mut lane.batcher, query.clone(), query_key, tx);
                }
                PendingState::Waiting(rx)
            }
        };
        PendingEstimate { service: self, state }
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
        let serving = self.serving_cpus();
        let handle = std::thread::Builder::new()
            .name("lc-retrain".into())
            .spawn(move || {
                place_retrainer(&serving);
                // Catch panics so a failed retrain can never wedge the
                // in-flight flag (which would silently disable
                // self-healing for the rest of the process).
                let span = SpanTimer::start(&metrics::RETRAIN_NS);
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let corpus = drift.corpus_snapshot();
                    if !corpus.is_empty() {
                        let prev = registry.current();
                        let config = drift.config().retrain;
                        // `threads: 0` is one thread here, not the
                        // hardware count: pool workers may sit on the
                        // serving CPUs.
                        let config = TrainConfig { threads: config.threads.max(1), ..config };
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

    /// Flush counters: every request answered by a forward pass on this
    /// service's behalf, whether a reactor shard or an in-process caller
    /// ran the flush.
    pub fn batch_stats(&self) -> BatchStats {
        let sizes = self.flushed.snapshot();
        BatchStats { requests: sizes.sum, batches: sizes.count(), max_batch: sizes.max }
    }

    /// Run at most one batch of what [`EstimationService::submit`]
    /// queued, on the calling thread; returns its size.
    pub fn flush_now(&self) -> usize {
        let mut lane = self.lane();
        self.flush(&mut lane.batcher, |tx, estimate| {
            // A receiver that gave up (dropped its `PendingEstimate`) is
            // not an error.
            let _ = tx.send(estimate);
        })
    }

    /// Answer what is queued, refuse new submissions, and join any
    /// in-flight retrainer. Idempotent.
    pub fn shutdown(&self) {
        self.lane().shutdown = true;
        while self.flush_now() > 0 {}
        let handle = self.retrainer.lock().expect("retrainer slot poisoned").take();
        if let Some(handle) = handle {
            let _ = handle.join();
        }
    }

    fn lane(&self) -> std::sync::MutexGuard<'_, Lane> {
        self.lane.lock().expect("a flush panicked while holding the lane")
    }
}

/// Restrict the calling retrainer thread to the CPUs beside `serving`
/// (see the module docs), counting `retrain.shared_core` when there are
/// none. Returns the CPUs chosen.
fn place_retrainer(serving: &[usize]) -> Vec<usize> {
    let (cpus, shared) = lc_nn::cpus_beside(lc_nn::process_cpus(), serving);
    if shared {
        metrics::RETRAIN_SHARED_CORE.inc();
    }
    lc_nn::pin_thread_to_cpus(&cpus);
    cpus
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::cache::CacheConfig;
    use crate::config::DriftConfig;
    use lc_core::{train, Estimator, FeatureMode, MscnEstimator, TrainConfig};
    use lc_engine::{CmpOp, ColumnRole, JoinId, Predicate, Schema, TableId};
    use lc_imdb::{generate, ImdbConfig};
    use lc_query::{workloads, LabeledQuery};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use std::time::{Duration, Instant};

    /// Queries that decode but do not fit `schema`: a table or join id
    /// one past the end (and `u16::MAX`), a predicate on a table past the
    /// end, on a column past the end, and on a key column.
    pub(crate) fn out_of_schema_queries(schema: &Schema) -> Vec<Query> {
        let (tables, joins) = (schema.num_tables() as u16, schema.num_joins() as u16);
        let columns = &schema.table(TableId(0)).columns;
        let key = columns.iter().position(|c| c.role != ColumnRole::Data).expect("a key column");
        let on = |table: u16, column: usize| {
            let predicate = Predicate { table: TableId(table), column, op: CmpOp::Eq, value: 1 };
            Query::new(vec![TableId(0)], vec![], vec![predicate])
        };
        vec![
            Query::new(vec![TableId(tables)], vec![], vec![]),
            Query::new(vec![TableId(u16::MAX)], vec![], vec![]),
            Query::new(vec![TableId(0)], vec![JoinId(joins)], vec![]),
            Query::new(vec![TableId(0)], vec![JoinId(u16::MAX)], vec![]),
            on(tables, 0),
            on(0, columns.len()),
            on(0, key),
        ]
    }

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

    fn service() -> (EstimationService, MscnEstimator, Vec<LabeledQuery>) {
        let (db, samples, a, _, data) = fixture();
        let registry = Arc::new(ModelRegistry::new(a.clone()));
        (EstimationService::new(db, samples, registry, ServeConfig::default()), a, data)
    }

    /// A model trained on one sample size cannot serve queries annotated
    /// against another: the service refuses it before any query runs.
    #[test]
    #[should_panic(expected = "sample size 24")]
    fn rejects_a_model_of_another_sample_size() {
        let (db, _, a, _, _) = fixture();
        let other = SampleSet::draw(&db, 64, &mut SmallRng::seed_from_u64(4));
        let registry = Arc::new(ModelRegistry::new(a));
        EstimationService::new(db, other, registry, ServeConfig::default());
    }

    #[test]
    fn estimates_match_direct_inference_and_cache_on_repeat() {
        let (svc, est, data) = service();
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
        let (svc, est, data) = service();
        let expected: Vec<f64> = data[..16].iter().map(|q| est.estimate(q)).collect();
        let pending: Vec<_> = data[..16].iter().map(|l| svc.submit(&l.query)).collect();
        assert_eq!(svc.flush_now(), 16);
        for (p, want) in pending.into_iter().zip(expected) {
            let got = p.wait().unwrap();
            assert_eq!(got.cardinality, want);
            assert_eq!(got.micro_batch, 16);
        }
        let stats = svc.batch_stats();
        assert_eq!((stats.requests, stats.batches, stats.max_batch), (16, 1, 16));
        assert!((stats.mean_batch() - 16.0).abs() < 1e-9);
        // All 16 answers were cached by the flush.
        assert_eq!(svc.cache_stats().entries, 16);
        for l in &data[..16] {
            assert!(svc.submit(&l.query).is_ready());
        }
    }

    /// Nothing flushes behind the caller's back, so `wait` must: a
    /// request nobody flushed is answered on the waiting thread, together
    /// with everything queued behind it — in chunks when the queue is
    /// longer than `max_batch`.
    #[test]
    fn wait_without_an_explicit_flush_answers() {
        let (svc, est, data) = service();
        let max_batch = ServeConfig::default().batcher.max_batch;
        let n = max_batch + 6;
        let pending: Vec<_> = data[..n].iter().map(|l| svc.submit(&l.query)).collect();
        assert_eq!(svc.batch_stats().batches, 0, "submit alone runs nothing");
        // Waiting on the *last* request has to flush its way through the
        // whole queue.
        let mut pending = pending.into_iter().zip(&data[..n]).rev();
        let (last, labeled) = pending.next().unwrap();
        let got = last.wait().unwrap();
        assert_eq!(got.cardinality, est.estimate(labeled));
        assert_eq!(got.micro_batch, 6);
        let stats = svc.batch_stats();
        assert_eq!((stats.requests, stats.batches), (n as u64, 2));
        assert_eq!(stats.max_batch, max_batch as u64);
        for (p, labeled) in pending {
            assert_eq!(p.wait().unwrap().cardinality, est.estimate(labeled));
        }
        assert_eq!(svc.batch_stats().batches, 2, "the rest were already answered");
        // And the plain blocking call needs no flush either.
        let fresh = &data[n];
        assert_eq!(svc.estimate(&fresh.query).unwrap().cardinality, est.estimate(fresh));
    }

    /// Concurrent blocking callers share one lane: every answer is
    /// bitwise the sequential one, every miss is counted once, and a
    /// caller whose request rode another thread's flush runs none itself.
    #[test]
    fn concurrent_estimates_coalesce_on_the_callers_threads() {
        let (svc, est, data) = service();
        let expected: Vec<f64> = data.iter().map(|q| est.estimate(q)).collect();
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for chunk in 0..4 {
                let (svc, data, expected, start) = (&svc, &data, &expected, &start);
                s.spawn(move || {
                    start.wait();
                    for i in chunk * data.len() / 4..(chunk + 1) * data.len() / 4 {
                        let got = svc.estimate(&data[i].query).expect("served");
                        assert_eq!(got.cardinality, expected[i], "query {i} changed");
                        assert!(got.micro_batch >= 1 || got.cache_hit);
                    }
                });
            }
        });
        let (stats, cache) = (svc.batch_stats(), svc.cache_stats());
        assert_eq!(stats.requests, cache.misses);
        assert_eq!(cache.hits + cache.misses, data.len() as u64);
        assert!(stats.batches >= 1 && stats.batches <= stats.requests);
    }

    #[test]
    fn shutdown_drains_pending_requests() {
        let (svc, _, data) = service();
        let pending: Vec<_> = data[..5].iter().map(|l| svc.submit(&l.query)).collect();
        svc.shutdown();
        assert_eq!(svc.batch_stats().requests, 5, "shutdown answered what was queued");
        for p in pending {
            assert!(p.wait().is_ok(), "pending request dropped on shutdown");
        }
        // After shutdown, new submissions are refused, not queued.
        assert_eq!(svc.submit(&data[5].query).wait(), Err(ServeError::Shutdown));
        assert_eq!(svc.batch_stats().requests, 5);
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
            crate::registry::compact_pipeline(None, true),
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

    /// In process, a query outside the schema is refused by `submit` and
    /// `feedback` before the cache: nothing is estimated, cached or
    /// recorded, and the service keeps serving.
    #[test]
    fn out_of_schema_queries_are_refused_in_process() {
        let (svc, est, data) = service();
        for query in out_of_schema_queries(svc.db.schema()) {
            let pending = svc.submit(&query);
            assert!(pending.is_ready(), "{query}");
            match pending.wait() {
                Err(e @ ServeError::OutOfSchema(_)) => assert!(e.to_string().contains("schema")),
                other => panic!("{query} estimated as {other:?}"),
            }
            assert!(matches!(svc.feedback(&query, 10), Err(ServeError::OutOfSchema(_))));
        }
        assert_eq!(svc.drift().feedback_count(), 0);
        let cache = svc.cache_stats();
        assert_eq!((cache.hits, cache.misses), (0, 0), "refused after the cache probe");
        assert_eq!(svc.estimate(&data[0].query).unwrap().cardinality, est.estimate(&data[0]));
        svc.shutdown();
    }

    /// A literal is any i64 the wire can carry; the extremes must not
    /// wrap the featurizer's range arithmetic into a bogus estimate.
    #[test]
    fn extreme_literals_estimate_finite_and_at_least_one() {
        let (svc, _, data) = service();
        let columns = &svc.db.schema().table(TableId(0)).columns;
        let column =
            columns.iter().position(|c| c.role == ColumnRole::Data).expect("a data column");
        for value in [i64::MIN, i64::MIN + 1, -1, 0, i64::MAX - 1, i64::MAX] {
            for op in [CmpOp::Lt, CmpOp::Eq, CmpOp::Gt] {
                let predicate = Predicate { table: TableId(0), column, op, value };
                let query = Query::new(vec![TableId(0)], vec![], vec![predicate]);
                let estimate = svc.estimate(&query).unwrap().cardinality;
                assert!(estimate.is_finite() && estimate >= 1.0, "{query}: {estimate}");
            }
        }
        assert!(svc.estimate(&data[0].query).is_ok(), "the service keeps serving");
        svc.shutdown();
    }

    #[test]
    fn estimate_after_shutdown_reports_shutdown() {
        let (svc, _, data) = service();
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

    /// The placement policy's fallback: with every CPU of the process
    /// set serving, a retrainer takes the whole process set — not one
    /// shard's core — and the retrain is counted as sharing one.
    #[test]
    fn a_retrainer_with_no_free_cpu_takes_the_whole_process_set() {
        let process = lc_nn::process_cpus();
        let before = metrics::RETRAIN_SHARED_CORE.get();
        // On a thread of its own: placement changes the caller's mask.
        let cpus = std::thread::spawn(|| place_retrainer(lc_nn::process_cpus())).join().unwrap();
        assert_eq!(cpus, process);
        assert!(metrics::RETRAIN_SHARED_CORE.get() > before, "retrain.shared_core not counted");
        if process.len() > 1 {
            let cpus = std::thread::spawn(move || place_retrainer(&process[..1])).join().unwrap();
            assert_eq!(cpus, &process[1..], "a free CPU is taken over a shared one");
        }
    }

    #[test]
    fn serving_cpus_are_a_sorted_set() {
        let (svc, _, _) = service();
        assert!(svc.serving_cpus().is_empty());
        assert_eq!(svc.retrain_cpus(), lc_nn::process_cpus());
        for cpu in [3, 1, 3] {
            svc.claim_serving_cpu(cpu);
        }
        assert_eq!(svc.serving_cpus(), vec![1, 3]);
    }

    /// Zero-row feedback contributes to drift detection but is excluded
    /// from the corpus — ln(0) would poison the training targets.
    #[test]
    fn zero_row_feedback_never_reaches_the_corpus() {
        let (svc, _, data) = service();
        for l in data.iter().take(5) {
            svc.feedback(&l.query, 0).expect("feedback");
        }
        assert_eq!(svc.drift().feedback_count(), 5);
        assert!(svc.drift().corpus_snapshot().is_empty());
        svc.shutdown();
    }
}
