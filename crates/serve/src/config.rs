//! Typed serving configuration: cache, batcher, drift thresholds and
//! the TCP front in one place.
//!
//! Everything has a sensible default, so `ServeConfig::default()` is a
//! working production configuration; the `serve` binary maps its flags
//! onto these fields.

use lc_core::TrainConfig;

use crate::batcher::BatcherConfig;
use crate::cache::CacheConfig;

/// Configuration of an [`EstimationService`](crate::EstimationService).
#[derive(Clone, Copy, Debug, Default)]
pub struct ServeConfig {
    /// Estimate-cache sizing (capacity 0 disables caching).
    pub cache: CacheConfig,
    /// Micro-batch size bound.
    pub batcher: BatcherConfig,
    /// Drift detection and incremental-retraining thresholds.
    pub drift: DriftConfig,
    /// Event-driven TCP front: shard count, connection cap, admission
    /// budget.
    pub front: FrontConfig,
}

/// Sizing and admission policy of the shard-per-core TCP front.
///
/// The front runs [`FrontConfig::shards`] reactor threads, each pinned
/// to a core (when pinning is enabled via `lc_nn::RuntimeConfig`) and
/// each owning its accepted connections outright — sockets, partial
/// frames, and in-flight estimates never cross shards. Admission
/// control is two bounds: a global cap on open connections
/// ([`FrontConfig::max_connections`], enforced at accept) and a
/// per-shard budget of estimates queued for one micro-batch flush
/// ([`FrontConfig::inflight_budget`], enforced per request). A request
/// over budget is *shed*, not queued: clients that negotiated
/// [`crate::wire::CAP_RETRY`] get a [`crate::wire::Message::Busy`]
/// frame telling them when to retry; older clients get a plain error
/// frame. Either way the connection stays open and healthy.
#[derive(Clone, Copy, Debug)]
pub struct FrontConfig {
    /// Reactor shard count; 0 means one shard per CPU of the process's
    /// CPU set (`lc_nn::process_cpus`).
    pub shards: usize,
    /// Open-connection cap across all shards; a connection accepted
    /// over the cap is closed immediately. 0 means unlimited.
    pub max_connections: usize,
    /// Estimates one shard may hold between micro-batch flushes before
    /// it starts shedding. 0 means unlimited (never shed).
    pub inflight_budget: usize,
    /// Retry hint carried by shed [`crate::wire::Message::Busy`]
    /// frames, in milliseconds.
    pub retry_after_ms: u32,
}

impl Default for FrontConfig {
    fn default() -> Self {
        FrontConfig {
            shards: 0,
            max_connections: 65_536,
            inflight_budget: 1024,
            retry_after_ms: 20,
        }
    }
}

/// Thresholds for the drift monitor and the retrain it schedules.
///
/// The defaults are tuned for the serving demo's scale (tiny IMDb
/// snapshot, hundreds of requests per second): a per-template window of
/// 64 observations trips once at least [`DriftConfig::min_samples`] of
/// them average a q-error above [`DriftConfig::qerror_threshold`], and a
/// retrain fires as soon as the accrued feedback corpus holds
/// [`DriftConfig::min_corpus`] usable observations.
#[derive(Clone, Copy, Debug)]
pub struct DriftConfig {
    /// Rolling-window capacity per join template (ring buffer size).
    pub window: usize,
    /// Observations a template's window must hold before it may trip —
    /// the guard against declaring drift off a handful of outliers.
    pub min_samples: usize,
    /// Rolling mean q-error above which a template counts as drifted.
    pub qerror_threshold: f64,
    /// Maximum retained feedback observations (oldest evicted first, so
    /// the corpus is biased toward the post-shift distribution).
    pub corpus_cap: usize,
    /// Feedback observations required before a retrain may fire — below
    /// this the corpus cannot teach the model anything stable.
    pub min_corpus: usize,
    /// Hyperparameters for the incremental retrain (`train_incremental`
    /// honors epochs, batch size, learning rate, loss, seed, threads —
    /// where `threads: 0` means one; the featurizer and label
    /// normalization stay frozen).
    pub retrain: TrainConfig,
}

impl Default for DriftConfig {
    fn default() -> Self {
        DriftConfig {
            window: 64,
            min_samples: 32,
            qerror_threshold: 4.0,
            corpus_cap: 512,
            min_corpus: 96,
            retrain: TrainConfig { epochs: 12, batch_size: 64, ..TrainConfig::default() },
        }
    }
}
