//! # learned-cardinalities
//!
//! A from-scratch Rust reproduction of **“Learned Cardinalities: Estimating
//! Correlated Joins with Deep Learning”** (Kipf, Kipf, Radke, Leis, Boncz,
//! Kemper — CIDR 2019): the MSCN multi-set convolutional network for
//! cardinality estimation, together with every substrate the paper's
//! evaluation needs — a columnar COUNT(*) engine, a correlated IMDb-like
//! dataset generator, materialized-sample machinery, the PostgreSQL /
//! Random Sampling / Index-Based Join Sampling baselines, a minimal neural
//! network library with hand-derived gradients, and a harness that
//! regenerates every table and figure of the paper.
//!
//! ## Quickstart
//!
//! ```
//! use learned_cardinalities::prelude::*;
//!
//! // 1. A database snapshot with engineered join-crossing correlations.
//! let db = lc_imdb::generate(&ImdbConfig::tiny());
//!
//! // 2. Materialized per-table samples (the §3.4 enrichment).
//! let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
//! let samples = SampleSet::draw(&db, 32, &mut rng);
//!
//! // 3. Generate + execute training queries (§3.3/§3.5).
//! let data = workloads::synthetic(&db, &samples, 300, 2, 42).queries;
//!
//! // 4. Train MSCN.
//! let cfg = TrainConfig { epochs: 5, hidden: 16, ..TrainConfig::default() };
//! let trained = train(&db, 32, &data, cfg);
//!
//! // 5. Estimate.
//! let estimates = trained.estimator.estimate_cards(&data[..5]);
//! assert!(estimates.iter().all(|&e| e >= 1.0));
//! ```
//!
//! See the crate-level docs of the member crates for the full design:
//! [`lc_engine`], [`lc_imdb`], [`lc_query`], [`lc_baselines`], [`lc_nn`],
//! [`lc_core`], [`lc_serve`], [`lc_eval`].
//!
//! To *serve* a trained model to concurrent clients — micro-batched
//! inference, versioned hot-swappable model registry, sharded estimate
//! cache, TCP wire protocol — see [`lc_serve`].

pub use lc_baselines;
pub use lc_core;
pub use lc_engine;
pub use lc_eval;
pub use lc_imdb;
pub use lc_nn;
pub use lc_query;
pub use lc_serve;

/// One-stop imports for the common workflow (see the crate example).
pub mod prelude {
    pub use lc_baselines::{
        FullJoinSizes, IbjsEstimator, PostgresEstimator, RandomSamplingEstimator,
    };
    pub use lc_core::{train, Estimator, FeatureMode, MscnEstimator, TrainConfig, TrainedModel};
    pub use lc_engine::{
        count_star, CmpOp, Database, JoinIndexes, Predicate, QuerySpec, SampleSet,
    };
    pub use lc_imdb::ImdbConfig;
    pub use lc_nn::{KernelChoice, LossKind, RuntimeConfig};
    pub use lc_query::{annotate_query, workloads, LabeledQuery, Query};
    pub use lc_serve::{
        BatcherConfig, CacheConfig, DriftConfig, DriftMonitor, Estimate, EstimationService,
        ModelRegistry, ServeConfig,
    };
    pub use rand::rngs::SmallRng;
    pub use rand::SeedableRng;
}
