//! # lc-serve — the concurrent estimation service
//!
//! The paper's headline systems claim is that MSCN inference is cheap
//! enough to live inside a query optimizer's hot path (§4.8: batched
//! prediction runs in microseconds per query). This crate is the layer
//! that cashes that claim in: a long-lived service that loads trained
//! [`MscnEstimator`](lc_core::MscnEstimator) snapshots and answers streams
//! of estimation requests from concurrent clients.
//!
//! Architecture — a request flows `wire → cache → batcher → model` down
//! one lane, on the thread of the reactor shard that owns its connection
//! (see [`server`]); nothing on that path locks, queues across threads or
//! waits on a timer:
//!
//! ```text
//!          readiness event            miss                  end-of-pass flush
//! client ──► [lc_poll] ─► [wire] ─► [EstimateCache] ─► [shard MicroBatcher]
//!  (one of 10k+ nonblocking          ▲   sharded LRU        │ coalesces the
//!   sockets owned by this shard)     │                      ▼ whole pass
//!                                    └── insert ── [ModelRegistry::current()]
//!                                                one RaggedBatch forward pass
//! ```
//!
//! The in-process API ([`EstimationService::submit`] /
//! [`PendingEstimate::wait`] / [`EstimationService::estimate`]) runs the
//! same lane code over a batcher of the service's own, flushed on the
//! calling thread.
//!
//! * [`wire`] — a length-prefixed, **versioned** binary protocol: a v2
//!   client opens with a hello carrying its protocol version and a
//!   capability byte; the server acks with the negotiated (min version,
//!   capability intersection) pair. v1 clients skip the hello and keep
//!   working unchanged. v2 adds feedback, stats, drift-status, metrics
//!   and busy/retry frames. One table declares every kind's fields in
//!   wire order; encoding, strict panic-free decoding and the version
//!   gate derive from it.
//! * [`registry`] — versioned model snapshots with **atomic hot-swap**:
//!   publishing a new model never pauses in-flight requests; each
//!   micro-batch runs against the `Arc` snapshot it grabbed at flush
//!   time. A snapshot serves through an object-safe
//!   `Arc<dyn Estimator>` pipeline built by a registered closure, so
//!   retrains re-derive compact pipelines automatically.
//! * [`drift`] — per-join-template rolling q-error windows fed by
//!   feedback frames, plus the accrued retraining corpus. When a window
//!   trips, the service schedules `lc_core::train_incremental` in the
//!   background and publishes the result mid-traffic — the self-healing
//!   loop the paper's §5 sketches (see also [`config::DriftConfig`]).
//! * [`batcher`] — a single-owner queue whose flush runs up to
//!   `max_batch` queued single-query requests as one ragged-batch forward
//!   pass, so service throughput scales with the matrix kernels instead
//!   of per-query vector pipelines. Batched results are bitwise identical
//!   to sequential ones (guaranteed by `lc_core`'s row-independent
//!   kernels).
//! * [`cache`] — a sharded LRU keyed by the canonical query encoding plus
//!   the active model version, so repeated optimizer probes of the same
//!   subquery skip inference entirely and stale entries age out after a
//!   hot-swap.
//! * [`service`] — the lane itself (probe → enqueue → flush), shared by
//!   the shards and [`EstimationService::estimate`], plus the feedback
//!   loop.
//! * [`server`] — the event-driven, shard-per-core TCP front: N reactor
//!   threads share one listener via exclusive-wakeup registration
//!   (vendored [`lc_poll`] epoll shim), each owning its accepted
//!   connections outright — nonblocking sockets, incremental frame
//!   decode that tolerates splits at any byte offset, and a per-shard
//!   micro-batch flush at the end of every readiness pass. Admission
//!   control ([`config::FrontConfig`]) sheds over-budget requests with
//!   v2 `Busy`/retry frames instead of queueing them.
//!
//! One pipeline ships with the crate, the one the `serve` binary
//! installs: [`compact_pipeline`] (`--student-width`, `--quantized`).
//! Clients speak [`wire`] directly:
//! the tests and the `serving` example write frames with
//! [`wire::write_message`] and read them with [`wire::read_message`], and
//! the `lc-top` binary polls a live server's metrics the same way.
//!
//! ## Quickstart
//!
//! ```
//! use std::sync::Arc;
//!
//! use lc_engine::SampleSet;
//! use lc_query::Query;
//! use lc_serve::{EstimationService, ModelRegistry, ServeConfig};
//! use rand::rngs::SmallRng;
//! use rand::SeedableRng;
//!
//! // Train a tiny model (a deployment would load bytes from disk).
//! let db = lc_imdb::generate(&lc_imdb::ImdbConfig::tiny());
//! let mut rng = SmallRng::seed_from_u64(1);
//! let samples = SampleSet::draw(&db, 24, &mut rng);
//! let data = lc_query::workloads::synthetic(&db, &samples, 120, 2, 5).queries;
//! let cfg = lc_core::TrainConfig { epochs: 2, hidden: 16, ..Default::default() };
//! let trained = lc_core::train(&db, 24, &data, cfg);
//!
//! let registry = Arc::new(ModelRegistry::new(trained.estimator));
//! let service =
//!     EstimationService::new(db, samples, registry, ServeConfig::default());
//! let estimate = service.estimate(&data[0].query).unwrap();
//! assert!(estimate.cardinality >= 1.0);
//! // The same query again is a cache hit — no inference.
//! assert!(service.estimate(&data[0].query).unwrap().cache_hit);
//! ```

pub mod batcher;
pub mod cache;
pub mod config;
pub mod drift;
pub mod flags;
pub mod registry;
pub mod server;
pub mod service;
pub mod wire;

pub use batcher::{BatchStats, BatcherConfig, Estimate, MicroBatcher};
pub use cache::{CacheConfig, CacheStats, CachedEstimate, EstimateCache};
pub use config::{DriftConfig, FrontConfig, ServeConfig};
pub use drift::{DriftDecision, DriftMonitor};
pub use registry::{
    compact_pipeline, ModelRegistry, ModelSnapshot, PipelineBuilder, RegistryError,
};
pub use server::{serve, ServerHandle};
pub use service::{EstimationService, PendingEstimate, ServeError};
pub use wire::{HistogramMetric, Message, ScalarMetric, TemplateDrift, TemplateStat, WireError};
