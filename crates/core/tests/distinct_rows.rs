//! Differential test of shared rows: the serving block builder and the
//! training assembly stack each distinct row once and point every
//! repeat at it, and none of that may change anything a caller can see.
//!
//! Serving ([`Featurizer::featurize_into_sparse_batch`]) also records a
//! constant element (every join, every table whose samples all qualify)
//! as a model constant.
//!
//! * Estimates: a block's f32 and int8 answers, and each query's answer
//!   estimated alone, equal bit for bit what `forward_scratch` gives on
//!   the same queries' batch with one row per element — nothing shared,
//!   no constants — stacked from per-query featurization.
//! * Inputs: the builder's index read through its stacks and, for tagged
//!   elements, through `Featurizer::constant_rows` is exactly that batch's
//!   CSR, with the same segments and targets; so every tagged element's
//!   emitted row is its constant row. No row is stacked twice, and no
//!   constant row is stacked at all.
//!
//! Training (`RaggedBatch::assemble_into` over a `CorpusSparse`) names no
//! constant. A shard read through its index is the one-row-per-element
//! batch, each distinct row is stacked once, and its predictions and
//! every gradient tensor equal that batch's bit for bit.
//!
//! Blocks and shards are drawn with replacement from a small pool, so
//! they repeat whole queries. The pool holds base tables without
//! predicates — one of them smaller than the sample, so its row is not
//! constant — a predicate every sample passes, whose table row is
//! constant, and the same predicate on different queries. Block sizes
//! straddle the 256-query inference block and, at 600, the
//! parallel-inference fan-out. All four feature modes are covered. CI
//! runs this file at `PROPTEST_CASES=4096`.

use std::collections::HashSet;
use std::sync::OnceLock;

use proptest::collection::vec;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use lc_core::batch::{CorpusSparse, CONSTANT};
use lc_core::featurize::{FeaturizedQuery, Set};
use lc_core::{
    train, FeatureMode, MscnEstimator, MscnGrads, MscnScratch, QuantScratch, QuantizedMscn,
    RaggedBatch, TrainConfig,
};
use lc_engine::{CmpOp, Database, Predicate, SampleSet, TableId};
use lc_imdb::{generate, ImdbConfig};
use lc_nn::{LossKind, SparseRows};
use lc_query::{workloads, GeneratorConfig, LabeledQuery, Query, QueryGenerator};

const BLOCK_SIZES: [usize; 6] = [1, 2, 63, 256, 257, 600];
/// Training shard sizes: one query, the trainer's smallest and largest
/// shards at batch 256, and a whole small batch.
const SHARD_SIZES: [usize; 4] = [1, 32, 33, 64];
const MODES: [FeatureMode; 4] = [
    FeatureMode::NoSamples,
    FeatureMode::SampleCounts,
    FeatureMode::Bitmaps,
    FeatureMode::PredicateBitmaps,
];
/// One more sample than `movie_info_idx` has rows at this scale (so its
/// row misses being constant by one sample), fewer than `title` has.
const SAMPLE_SIZE: usize = 84;
const SMALL_TABLE: TableId = TableId(4);

/// One feature mode's models, each pool query's answers from the
/// one-row-per-element batch, and the pool as a training corpus.
struct Served {
    f32: MscnEstimator,
    int8: QuantizedMscn,
    want_f32: Vec<u32>,
    want_int8: Vec<u32>,
    feats: Vec<FeaturizedQuery>,
    corpus: CorpusSparse,
}

struct Fixture {
    db: Database,
    pool: Vec<LabeledQuery>,
    served: Vec<Served>,
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Title under a predicate every row passes — alone, and joined with the
/// table smaller than the sample.
fn passing_predicate_queries(db: &Database) -> [Query; 2] {
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
fn pool(db: &Database, samples: &SampleSet) -> Vec<LabeledQuery> {
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

/// The batch of featurized queries `feats` with one row per element —
/// each query's own rows, stacked in order, nothing shared.
fn one_row_per_element(feats: &[&FeaturizedQuery]) -> RaggedBatch {
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

/// The one-row-per-element batch of `queries`, featurized one by one.
fn featurized(est: &MscnEstimator, queries: &[LabeledQuery]) -> RaggedBatch {
    let feats: Vec<FeaturizedQuery> =
        queries.iter().map(|q| est.featurizer().featurize(q)).collect();
    one_row_per_element(&feats.iter().collect::<Vec<_>>())
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let db = generate(&ImdbConfig::tiny().scaled(0.1));
        let rows = |t: TableId| db.table(t).num_rows();
        assert!(rows(SMALL_TABLE) + 1 == SAMPLE_SIZE && rows(TableId(0)) > SAMPLE_SIZE);
        let samples = SampleSet::draw(&db, SAMPLE_SIZE, &mut SmallRng::seed_from_u64(72));
        let data = workloads::synthetic(&db, &samples, 200, 2, 73).queries;
        let pool = pool(&db, &samples);
        let served = MODES
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
                let int8 = QuantizedMscn::quantize(&f32);
                let batch = featurized(&f32, &pool);
                let mut s = MscnScratch::new();
                f32.model().forward_scratch(&batch, &mut s);
                let mut q = QuantScratch::new();
                int8.qmodel().forward_scratch(&batch, &mut q);
                let f = f32.featurizer();
                let feats: Vec<FeaturizedQuery> = pool.iter().map(|q| f.featurize(q)).collect();
                let corpus = CorpusSparse::build(&feats, f.table_dim(), f.join_dim(), f.pred_dim());
                let served = Served {
                    want_f32: bits(&s.preds),
                    want_int8: bits(&q.preds),
                    f32,
                    int8,
                    feats,
                    corpus,
                };
                for (i, query) in pool.iter().enumerate() {
                    let alone = std::slice::from_ref(query);
                    assert_eq!(bits(&served.f32.estimate_normalized(alone))[0], served.want_f32[i]);
                    assert_eq!(
                        bits(&served.int8.estimate_normalized(alone))[0],
                        served.want_int8[i]
                    );
                }
                served
            })
            .collect();
        Fixture { db, pool, served }
    })
}

/// The builder's rows read through its element index — stack rows, and
/// `constants` rows for tagged elements: one row per element.
fn expand(rows: &SparseRows, constants: &SparseRows, index: &[u32]) -> SparseRows {
    let mut out = SparseRows::new(rows.cols());
    for &e in index {
        let (src, r) = if e & CONSTANT == 0 { (rows, e) } else { (constants, e ^ CONSTANT) };
        out.push_rows_from(src, r as usize..r as usize + 1);
    }
    out
}

/// A row as a hashable key, values compared bit for bit.
fn key((idx, vals): (&[u32], &[f32])) -> (Vec<u32>, Vec<u32>) {
    (idx.to_vec(), bits(vals))
}

fn case_strategy() -> impl Strategy<Value = (usize, Vec<usize>)> {
    (0..MODES.len(), 0..BLOCK_SIZES.len())
        .prop_flat_map(|(mode, size)| (Just(mode), vec(0..fixture().pool.len(), BLOCK_SIZES[size])))
}

/// One block of pool queries `picks`, served and built in feature mode
/// `mode`.
fn check_block(mode: usize, picks: &[usize]) -> Result<(), TestCaseError> {
    let fx = fixture();
    let served = &fx.served[mode];
    let block: Vec<LabeledQuery> = picks.iter().map(|&i| fx.pool[i].clone()).collect();

    let f32_block = bits(&served.f32.estimate_normalized(&block));
    let int8_block = bits(&served.int8.estimate_normalized(&block));
    for (k, &i) in picks.iter().enumerate() {
        prop_assert_eq!(f32_block[k], served.want_f32[i], "f32, query {} of {}", k, picks.len());
        prop_assert_eq!(int8_block[k], served.want_int8[i], "int8, query {} of {}", k, picks.len());
    }

    let featurizer = served.f32.featurizer();
    let want = featurized(&served.f32, &block);
    // A differently shaped block first: stale buffers must not leak.
    let mut built = RaggedBatch::empty();
    featurizer.featurize_into_sparse_batch(&fx.pool, &mut built);
    featurizer.featurize_into_sparse_batch(&block, &mut built);
    prop_assert_eq!(&built.targets, &want.targets);
    let modules = [
        (&built.tables_sp, &built.table_index, &built.table_segs, &want.tables_sp),
        (&built.joins_sp, &built.join_index, &built.join_segs, &want.joins_sp),
        (&built.preds_sp, &built.pred_index, &built.pred_segs, &want.preds_sp),
    ];
    let want_segs = [&want.table_segs, &want.join_segs, &want.pred_segs];
    for (((rows, index, segs, want_rows), want_segs), set) in
        modules.into_iter().zip(want_segs).zip(Set::ALL)
    {
        let constants = featurizer.constant_rows(set);
        prop_assert_eq!(segs, want_segs, "{:?} segments", set);
        prop_assert_eq!(&expand(rows, &constants, index), want_rows, "{:?} rows per element", set);
        let constant_keys: HashSet<_> =
            (0..constants.rows()).map(|r| key(constants.row(r))).collect();
        let mut seen = HashSet::new();
        for r in 0..rows.rows() {
            let row = key(rows.row(r));
            prop_assert!(!constant_keys.contains(&row), "{:?} stacks constant row {}", set, r);
            prop_assert!(seen.insert(row), "{:?} stacks row {} twice", set, r);
        }
    }
    prop_assert_eq!(built.joins_sp.rows(), 0, "join rows are constants");
    Ok(())
}

/// Every gradient tensor's bits, in canonical order.
fn grad_bits(grads: &MscnGrads) -> Vec<u32> {
    let tensors = grads.mlps().into_iter().flat_map(|m| m.layers()).flat_map(|l| l.tensors());
    tensors.flat_map(bits).collect()
}

/// One training shard of pool queries `picks` in feature mode `mode`:
/// assembled out of the pool's corpus, against its one-row-per-element
/// twin.
fn check_shard(mode: usize, picks: &[usize]) -> Result<(), TestCaseError> {
    let served = &fixture().served[mode];
    let model = served.f32.model();
    let want = one_row_per_element(&picks.iter().map(|&i| &served.feats[i]).collect::<Vec<_>>());
    // A differently shaped shard first: stale buffers must not leak.
    let mut shard = RaggedBatch::empty();
    let all: Vec<usize> = (0..served.feats.len()).collect();
    shard.assemble_into(&served.feats, &served.corpus, &all);
    shard.assemble_into(&served.feats, &served.corpus, picks);
    prop_assert_eq!(&shard.targets, &want.targets);
    let modules = [
        (
            &shard.tables_sp,
            &shard.table_index,
            &shard.table_segs,
            &want.tables_sp,
            &want.table_segs,
        ),
        (&shard.joins_sp, &shard.join_index, &shard.join_segs, &want.joins_sp, &want.join_segs),
        (&shard.preds_sp, &shard.pred_index, &shard.pred_segs, &want.preds_sp, &want.pred_segs),
    ];
    for ((rows, index, segs, want_rows, want_segs), set) in modules.into_iter().zip(Set::ALL) {
        prop_assert_eq!(segs, want_segs, "{:?} segments", set);
        let none = SparseRows::new(rows.cols());
        prop_assert_eq!(&expand(rows, &none, index), want_rows, "{:?} rows per element", set);
        let mut seen = HashSet::new();
        for r in 0..rows.rows() {
            prop_assert!(seen.insert(key(rows.row(r))), "{:?} stacks row {} twice", set, r);
        }
    }
    let run = |batch: &RaggedBatch| {
        let (mut s, mut grads) = (MscnScratch::new(), model.new_grads());
        model.forward_scratch(batch, &mut s);
        s.grad_pred.resize(s.preds.len(), 0.0);
        let n = batch.len();
        LossKind::MeanQError.loss_and_grad_scaled(
            &s.preds,
            &batch.targets,
            3.0,
            n,
            &mut s.grad_pred,
        );
        model.backward_scratch(batch, &mut s, &mut grads);
        (bits(&s.preds), grad_bits(&grads))
    };
    let (got, expected) = (run(&shard), run(&want));
    prop_assert_eq!(got.0, expected.0, "predictions");
    prop_assert!(got.1 == expected.1, "a gradient bit moved ({} picks)", picks.len());
    Ok(())
}

fn shard_strategy() -> impl Strategy<Value = (usize, Vec<usize>)> {
    (0..MODES.len(), 0..SHARD_SIZES.len())
        .prop_flat_map(|(mode, size)| (Just(mode), vec(0..fixture().pool.len(), SHARD_SIZES[size])))
}

proptest! {
    #[test]
    fn shared_rows_change_no_estimate_and_no_element((mode, picks) in case_strategy()) {
        check_block(mode, &picks)?;
    }

    #[test]
    fn shared_rows_change_no_training_bit((mode, picks) in shard_strategy()) {
        check_shard(mode, &picks)?;
    }
}

/// The pool holds the two table rows the constant rule must tell apart:
/// a predicate every sample passes leaves title's row constant, and a
/// table smaller than the sample is not constant, even without
/// predicates (unless no samples are read).
#[test]
fn the_pool_holds_both_sides_of_the_constant_rule() {
    let fx = fixture();
    let [alone, joined] = passing_predicate_queries(&fx.db);
    let small = Query::new(vec![SMALL_TABLE], vec![], vec![]);
    let find = |query: &Query| fx.pool.iter().find(|q| &q.query == query).expect("in the pool");
    // Per query: whether each table element is a constant, with samples.
    let cases = [(alone, vec![true]), (joined, vec![true, false]), (small, vec![false])];
    for (mode, served) in MODES.iter().zip(&fx.served) {
        let mut built = RaggedBatch::empty();
        for (query, with_samples) in &cases {
            let featurizer = served.f32.featurizer();
            featurizer.featurize_into_sparse_batch(std::slice::from_ref(find(query)), &mut built);
            let constant: Vec<bool> =
                built.table_index.iter().map(|&e| e & CONSTANT != 0).collect();
            let want: Vec<bool> =
                with_samples.iter().map(|&c| c || *mode == FeatureMode::NoSamples).collect();
            assert_eq!(constant, want, "{mode:?}: {query}");
        }
    }
}
