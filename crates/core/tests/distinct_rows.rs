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
//! batch, each distinct row is stacked once, and its predictions equal
//! that batch's bit for bit. The backward sums the gradients of a
//! repeated row's elements before the row's set MLP, which rounds
//! differently from one row per element: gradients are bitwise that
//! batch's where no row repeats, and `reference_mscn.rs` checks every
//! shard's gradients, repeats included, against an f64 reference.
//!
//! Blocks and shards are drawn with replacement from the pool of
//! `common`, so they repeat whole queries. Block sizes straddle the
//! 256-query inference block and, at 600, the parallel-inference fan-out.
//! All four feature modes are covered. CI runs this file at
//! `PROPTEST_CASES=4096`.

mod common;

use std::collections::HashSet;
use std::sync::OnceLock;

use proptest::collection::vec;
use proptest::prelude::*;

use common::{bits, grad_values, one_row_per_element, pool, shard_strategy, MODES, SMALL_TABLE};
use lc_core::batch::CONSTANT;
use lc_core::featurize::{FeaturizedQuery, Set};
use lc_core::{FeatureMode, MscnEstimator, MscnScratch, QuantScratch, QuantizedMscn, RaggedBatch};
use lc_nn::{LossKind, SparseRows};
use lc_query::{LabeledQuery, Query};

const BLOCK_SIZES: [usize; 6] = [1, 2, 63, 256, 257, 600];

/// One feature mode's int8 model, and each pool query's f32 and int8
/// answers from the one-row-per-element batch.
struct Served {
    int8: QuantizedMscn,
    want_f32: Vec<u32>,
    want_int8: Vec<u32>,
}

/// The one-row-per-element batch of `queries`, featurized one by one.
fn featurized(est: &MscnEstimator, queries: &[LabeledQuery]) -> RaggedBatch {
    let feats: Vec<FeaturizedQuery> =
        queries.iter().map(|q| est.featurizer().featurize(q)).collect();
    one_row_per_element(&feats.iter().collect::<Vec<_>>())
}

fn served() -> &'static [Served] {
    static SERVED: OnceLock<Vec<Served>> = OnceLock::new();
    SERVED.get_or_init(|| {
        let pool = pool();
        let served = pool.modes.iter().map(|trained| {
            let f32 = &trained.f32;
            let int8 = QuantizedMscn::quantize(f32);
            let batch = featurized(f32, &pool.queries);
            let mut s = MscnScratch::new();
            f32.model().forward_scratch(&batch, &mut s);
            let mut q = QuantScratch::new();
            int8.qmodel().forward_scratch(&batch, &mut q);
            let served = Served { want_f32: bits(&s.preds), want_int8: bits(&q.preds), int8 };
            for (i, query) in pool.queries.iter().enumerate() {
                let alone = std::slice::from_ref(query);
                assert_eq!(bits(&f32.estimate_normalized(alone))[0], served.want_f32[i]);
                assert_eq!(bits(&served.int8.estimate_normalized(alone))[0], served.want_int8[i]);
            }
            served
        });
        served.collect()
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
        .prop_flat_map(|(mode, size)| (Just(mode), vec(0..pool().queries.len(), BLOCK_SIZES[size])))
}

/// One block of pool queries `picks`, served and built in feature mode
/// `mode`.
fn check_block(mode: usize, picks: &[usize]) -> Result<(), TestCaseError> {
    let (pool, served) = (pool(), &served()[mode]);
    let f32 = &pool.modes[mode].f32;
    let block: Vec<LabeledQuery> = picks.iter().map(|&i| pool.queries[i].clone()).collect();

    let f32_block = bits(&f32.estimate_normalized(&block));
    let int8_block = bits(&served.int8.estimate_normalized(&block));
    for (k, &i) in picks.iter().enumerate() {
        prop_assert_eq!(f32_block[k], served.want_f32[i], "f32, query {} of {}", k, picks.len());
        prop_assert_eq!(int8_block[k], served.want_int8[i], "int8, query {} of {}", k, picks.len());
    }

    let featurizer = f32.featurizer();
    let want = featurized(f32, &block);
    // A differently shaped block first: stale buffers must not leak.
    let mut built = RaggedBatch::empty();
    featurizer.featurize_into_sparse_batch(&pool.queries, &mut built);
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

/// One training shard of pool queries `picks` in feature mode `mode`:
/// assembled out of the pool's corpus, against its one-row-per-element
/// twin.
fn check_shard(mode: usize, picks: &[usize]) -> Result<(), TestCaseError> {
    let trained = &pool().modes[mode];
    let model = trained.f32.model();
    let want = one_row_per_element(&picks.iter().map(|&i| &trained.feats[i]).collect::<Vec<_>>());
    // A differently shaped shard first: stale buffers must not leak.
    let mut shard = RaggedBatch::empty();
    let all: Vec<usize> = (0..trained.feats.len()).collect();
    shard.assemble_into(&trained.feats, &trained.corpus, &all);
    shard.assemble_into(&trained.feats, &trained.corpus, picks);
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
        (bits(&s.preds), bits(&grad_values(&grads)))
    };
    let (got, expected) = (run(&shard), run(&want));
    prop_assert_eq!(got.0, expected.0, "predictions");
    let repeats = [&shard.tables_sp, &shard.joins_sp, &shard.preds_sp]
        .iter()
        .zip([&shard.table_index, &shard.join_index, &shard.pred_index])
        .any(|(rows, index)| rows.rows() < index.len());
    if !repeats {
        prop_assert!(got.1 == expected.1, "a gradient bit moved ({} picks)", picks.len());
    }
    Ok(())
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
    let pool = pool();
    let [alone, joined] = common::passing_predicate_queries(&pool.db);
    let small = Query::new(vec![SMALL_TABLE], vec![], vec![]);
    let find =
        |query: &Query| pool.queries.iter().find(|q| &q.query == query).expect("in the pool");
    // Per query: whether each table element is a constant, with samples.
    let cases = [(alone, vec![true]), (joined, vec![true, false]), (small, vec![false])];
    for (mode, trained) in MODES.iter().zip(&pool.modes) {
        let mut built = RaggedBatch::empty();
        for (query, with_samples) in &cases {
            let featurizer = trained.f32.featurizer();
            featurizer.featurize_into_sparse_batch(std::slice::from_ref(find(query)), &mut built);
            let constant: Vec<bool> =
                built.table_index.iter().map(|&e| e & CONSTANT != 0).collect();
            let want: Vec<bool> =
                with_samples.iter().map(|&c| c || *mode == FeatureMode::NoSamples).collect();
            assert_eq!(constant, want, "{mode:?}: {query}");
        }
    }
}
