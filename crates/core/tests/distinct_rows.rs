//! Differential test of the serving block builder's shared rows:
//! [`Featurizer::featurize_into_sparse_batch`] stacks each distinct set
//! element row once and points every repeat at it, and that must change
//! nothing a caller can see.
//!
//! * Estimates: a block's f32 and int8 answers equal, bit for bit, the
//!   answers for each query estimated alone (a one-query block, which
//!   shares nothing).
//! * Inputs: the builder's stacks expanded through its element index are
//!   exactly the one-row-per-element CSR that `RaggedBatch::assemble_indexed`
//!   stacks from per-query featurization, with the same segments and
//!   targets; and no row is stacked twice.
//!
//! Blocks are drawn with replacement from a small pool, so they repeat
//! whole queries. The pool also holds base tables without predicates and
//! the same predicate on different queries — rows that repeat across
//! distinct queries. Block sizes straddle the 256-query inference block
//! and, at 600, the parallel-inference fan-out. Both bitmap feature modes
//! are covered. CI runs this file at `PROPTEST_CASES=4096`.

use std::collections::HashSet;
use std::sync::OnceLock;

use proptest::collection::vec;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use lc_core::batch::CorpusSparse;
use lc_core::featurize::FeaturizedQuery;
use lc_core::{train, FeatureMode, MscnEstimator, QuantizedMscn, RaggedBatch, TrainConfig};
use lc_engine::{Database, SampleSet, TableId};
use lc_imdb::{generate, ImdbConfig};
use lc_nn::SparseRows;
use lc_query::{workloads, GeneratorConfig, LabeledQuery, Query, QueryGenerator};

const BLOCK_SIZES: [usize; 6] = [1, 2, 63, 256, 257, 600];
const MODES: [FeatureMode; 2] = [FeatureMode::Bitmaps, FeatureMode::PredicateBitmaps];

/// One feature mode's models and the answers each pool query gets alone.
struct Served {
    f32: MscnEstimator,
    int8: QuantizedMscn,
    alone_f32: Vec<u32>,
    alone_int8: Vec<u32>,
}

struct Fixture {
    pool: Vec<LabeledQuery>,
    served: Vec<Served>,
}

fn bits(values: Vec<f32>) -> Vec<u32> {
    values.into_iter().map(f32::to_bits).collect()
}

/// Generated queries, every base table without predicates, and each
/// generated predicate again on its table alone.
fn pool(db: &Database, samples: &SampleSet) -> Vec<LabeledQuery> {
    let mut generator = QueryGenerator::new(db, GeneratorConfig { max_joins: 2, seed: 71 });
    let mut queries = generator.generate_unique(30);
    let base_tables = (0..db.schema().num_tables() as u16).map(TableId);
    queries.extend(base_tables.map(|t| Query::new(vec![t], vec![], vec![])));
    let predicates: Vec<_> =
        queries.iter().flat_map(|q| q.predicates().iter().take(1).copied()).collect();
    queries.extend(predicates.into_iter().map(|p| Query::new(vec![p.table], vec![], vec![p])));
    queries.into_iter().map(|q| LabeledQuery::compute(db, samples, q)).collect()
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let db = generate(&ImdbConfig::tiny());
        let samples = SampleSet::draw(&db, 70, &mut SmallRng::seed_from_u64(72));
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
                let f32 = train(&db, samples.sample_size(), &data, config).estimator;
                let int8 = QuantizedMscn::quantize(&f32);
                let alone = |estimate: &dyn Fn(&[LabeledQuery]) -> Vec<f32>| {
                    pool.iter().flat_map(|q| bits(estimate(std::slice::from_ref(q)))).collect()
                };
                Served {
                    alone_f32: alone(&|qs| f32.estimate_normalized(qs)),
                    alone_int8: alone(&|qs| int8.estimate_normalized(qs)),
                    f32,
                    int8,
                }
            })
            .collect();
        Fixture { pool, served }
    })
}

/// The builder's rows read through its element index: one row per element.
fn expand(rows: &SparseRows, index: &[u32]) -> SparseRows {
    let mut out = SparseRows::new(rows.cols());
    index.iter().for_each(|&r| out.push_rows_from(rows, r as usize..r as usize + 1));
    out
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

    let f32_block = bits(served.f32.estimate_normalized(&block));
    let int8_block = bits(served.int8.estimate_normalized(&block));
    for (k, &i) in picks.iter().enumerate() {
        prop_assert_eq!(f32_block[k], served.alone_f32[i], "f32, query {} of {}", k, picks.len());
        prop_assert_eq!(
            int8_block[k],
            served.alone_int8[i],
            "int8, query {} of {}",
            k,
            picks.len()
        );
    }

    let featurizer = served.f32.featurizer();
    let (td, jd, pd) = (featurizer.table_dim(), featurizer.join_dim(), featurizer.pred_dim());
    let feats: Vec<FeaturizedQuery> = block.iter().map(|q| featurizer.featurize(q)).collect();
    let corpus = CorpusSparse::build(&feats, td, jd, pd);
    let all: Vec<usize> = (0..block.len()).collect();
    let assembled = RaggedBatch::assemble_indexed(&feats, &corpus, &all, td, jd, pd);
    // A differently shaped block first: stale buffers must not leak.
    let mut built = RaggedBatch::empty();
    featurizer.featurize_into_sparse_batch(&fx.pool, &mut built);
    featurizer.featurize_into_sparse_batch(&block, &mut built);
    prop_assert_eq!(&built.targets, &assembled.targets);
    let modules = [
        (&built.tables_sp, &built.table_index, &built.table_segs, &assembled.tables_sp),
        (&built.joins_sp, &built.join_index, &built.join_segs, &assembled.joins_sp),
        (&built.preds_sp, &built.pred_index, &built.pred_segs, &assembled.preds_sp),
    ];
    let want_segs = [&assembled.table_segs, &assembled.join_segs, &assembled.pred_segs];
    for (m, ((rows, index, segs, want_rows), want_segs)) in
        modules.into_iter().zip(want_segs).enumerate()
    {
        prop_assert_eq!(segs, want_segs, "module {} segments", m);
        prop_assert_eq!(&expand(rows, index), want_rows, "module {} rows per element", m);
        let mut seen = HashSet::new();
        for r in 0..rows.rows() {
            let (idx, vals) = rows.row(r);
            let key = (idx.to_vec(), vals.iter().map(|v| v.to_bits()).collect::<Vec<_>>());
            prop_assert!(seen.insert(key), "module {} stacks row {} twice", m, r);
        }
    }
    Ok(())
}

proptest! {
    #[test]
    fn shared_rows_change_no_estimate_and_no_element((mode, picks) in case_strategy()) {
        check_block(mode, &picks)?;
    }
}
