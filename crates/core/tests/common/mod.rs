//! The query pool the shared-row differential test (`distinct_rows.rs`)
//! and the f64 reference test (`reference_mscn.rs`) both draw from: a
//! tiny database, one model trained per feature mode, and the pool as a
//! training corpus.
//!
//! The pool holds base tables without predicates — one of them smaller
//! than the sample, so its row is not constant — a predicate every sample
//! passes, whose table row is constant, and the same predicate on
//! different queries. Blocks and shards drawn from it with replacement
//! repeat whole queries, and so share rows.
#![allow(dead_code)] // each test binary uses its own part of the pool

use std::sync::OnceLock;

use proptest::collection::vec;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use lc_core::batch::CorpusSparse;
use lc_core::featurize::FeaturizedQuery;
use lc_core::{train, FeatureMode, MscnEstimator, MscnGrads, RaggedBatch, TrainConfig};
use lc_engine::{CmpOp, Database, Predicate, SampleSet, TableId};
use lc_imdb::{generate, ImdbConfig};
use lc_nn::SparseRows;
use lc_query::{workloads, GeneratorConfig, LabeledQuery, Query, QueryGenerator};

pub const MODES: [FeatureMode; 4] = [
    FeatureMode::NoSamples,
    FeatureMode::SampleCounts,
    FeatureMode::Bitmaps,
    FeatureMode::PredicateBitmaps,
];
/// Training shard sizes: one query; the trainer's shards at batch 64
/// (`heal`'s retrain) and 128, and at batch 256; one query more than
/// that.
pub const SHARD_SIZES: [usize; 4] = [1, 32, 64, 65];
/// One more sample than `movie_info_idx` has rows at this scale (so its
/// row misses being constant by one sample), fewer than `title` has.
const SAMPLE_SIZE: usize = 84;
pub const SMALL_TABLE: TableId = TableId(4);

/// One feature mode's model and the pool featurized as its corpus.
pub struct Trained {
    pub f32: MscnEstimator,
    pub feats: Vec<FeaturizedQuery>,
    pub corpus: CorpusSparse,
}

pub struct Pool {
    pub db: Database,
    pub queries: Vec<LabeledQuery>,
    /// One per entry of [`MODES`].
    pub modes: Vec<Trained>,
}

pub fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Every gradient tensor's values, in canonical order.
pub fn grad_values(grads: &MscnGrads) -> Vec<f32> {
    let tensors = grads.mlps().into_iter().flat_map(|m| m.layers()).flat_map(|l| l.tensors());
    tensors.flatten().copied().collect()
}

/// Title under a predicate every row passes — alone, and joined with the
/// table smaller than the sample.
pub fn passing_predicate_queries(db: &Database) -> [Query; 2] {
    let kind = db.schema().table(TableId(0)).column_index("kind_id").expect("title.kind_id");
    let min = db.column_stats(TableId(0), kind).min;
    let every = Predicate { table: TableId(0), column: kind, op: CmpOp::Gt, value: min - 1 };
    let join = db.schema().join_of_fact(SMALL_TABLE).expect("a fact table");
    [
        Query::new(vec![TableId(0)], vec![], vec![every]),
        Query::new(vec![TableId(0), SMALL_TABLE], vec![join], vec![every]),
    ]
}

/// Generated queries, every base table without predicates, the
/// passing-predicate queries, and each generated predicate again on its
/// table alone.
fn queries(db: &Database, samples: &SampleSet) -> Vec<LabeledQuery> {
    let mut generator = QueryGenerator::new(db, GeneratorConfig { max_joins: 2, seed: 71 });
    let mut queries = generator.generate_unique(30);
    let base_tables = (0..db.schema().num_tables() as u16).map(TableId);
    queries.extend(base_tables.map(|t| Query::new(vec![t], vec![], vec![])));
    queries.extend(passing_predicate_queries(db));
    let predicates: Vec<_> =
        queries.iter().flat_map(|q| q.predicates().iter().take(1).copied()).collect();
    queries.extend(predicates.into_iter().map(|p| Query::new(vec![p.table], vec![], vec![p])));
    queries.into_iter().map(|q| LabeledQuery::compute(db, samples, q)).collect()
}

pub fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| {
        let db = generate(&ImdbConfig::tiny().scaled(0.1));
        let rows = |t: TableId| db.table(t).num_rows();
        assert!(rows(SMALL_TABLE) + 1 == SAMPLE_SIZE && rows(TableId(0)) > SAMPLE_SIZE);
        let samples = SampleSet::draw(&db, SAMPLE_SIZE, &mut SmallRng::seed_from_u64(72));
        let data = workloads::synthetic(&db, &samples, 200, 2, 73).queries;
        let queries = queries(&db, &samples);
        let modes = MODES
            .iter()
            .map(|&mode| {
                let config = TrainConfig {
                    epochs: 2,
                    hidden: 16,
                    batch_size: 64,
                    mode,
                    ..TrainConfig::default()
                };
                let f32 = train(&db, SAMPLE_SIZE, &data, config).estimator;
                let f = f32.featurizer();
                let feats: Vec<FeaturizedQuery> = queries.iter().map(|q| f.featurize(q)).collect();
                let corpus = CorpusSparse::build(&feats, f.table_dim(), f.join_dim(), f.pred_dim());
                Trained { f32, feats, corpus }
            })
            .collect();
        Pool { db, queries, modes }
    })
}

/// The batch of featurized queries `feats` with one row per element —
/// each query's own rows, stacked in order, nothing shared.
pub fn one_row_per_element(feats: &[&FeaturizedQuery]) -> RaggedBatch {
    let mut batch = RaggedBatch::empty();
    let Some(first) = feats.first() else { return batch };
    let stack = |rows_of: fn(&FeaturizedQuery) -> &SparseRows| {
        let mut rows = SparseRows::new(rows_of(first).cols());
        let mut segs = Vec::new();
        for q in feats {
            segs.push((rows.rows() as u32, rows_of(q).rows() as u32));
            rows.push_rows_from(rows_of(q), 0..rows_of(q).rows());
        }
        let index = (0..rows.rows() as u32).collect();
        (rows, segs, index)
    };
    (batch.tables_sp, batch.table_segs, batch.table_index) = stack(|q| &q.tables);
    (batch.joins_sp, batch.join_segs, batch.join_index) = stack(|q| &q.joins);
    (batch.preds_sp, batch.pred_segs, batch.pred_index) = stack(|q| &q.preds);
    batch.targets = feats.iter().map(|q| q.target).collect();
    batch
}

/// A feature mode and a training shard of pool queries, drawn with
/// replacement.
pub fn shard_strategy() -> impl Strategy<Value = (usize, Vec<usize>)> {
    (0..MODES.len(), 0..SHARD_SIZES.len())
        .prop_flat_map(|(mode, size)| (Just(mode), vec(0..pool().queries.len(), SHARD_SIZES[size])))
}
