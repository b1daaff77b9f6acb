//! Metamorphic and semantic properties of the engine and the estimators
//! that must hold regardless of data distribution:
//!
//! * adding a conjunct never increases the *true* cardinality (engine
//!   monotonicity);
//! * the PostgreSQL baseline's selectivities are probabilities and its
//!   MCV-covered equality estimates are exact;
//! * Random Sampling is an unbiased extrapolator where it has signal;
//! * IBJS inherits RS's base-table behaviour exactly;
//! * every estimator is a pure function of the query (call-twice
//!   determinism), and its point estimate is its batch estimate's row.

use proptest::prelude::*;
use rand::Rng;

use lc_engine::{count_star, JoinId, JoinIndexes, TableId};
use learned_cardinalities::prelude::*;

fn fixture() -> (lc_engine::Database, SampleSet) {
    let db = lc_imdb::generate(&ImdbConfig::tiny());
    let mut rng = SmallRng::seed_from_u64(123);
    let samples = SampleSet::draw(&db, 40, &mut rng);
    (db, samples)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Engine monotonicity: conjoining one more predicate can only shrink
    /// the result, for single tables and for star joins.
    #[test]
    fn adding_a_conjunct_never_grows_cardinality(seed in 0u64..10_000) {
        let (db, _samples) = fixture();
        let mut generator = lc_query::QueryGenerator::new(
            &db,
            lc_query::GeneratorConfig { max_joins: 2, seed },
        );
        let q = generator.generate();
        let base = count_star(&db, &q.spec());
        // Derive a stricter query by appending a fresh predicate on some
        // participating table's data column.
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xDEAD);
        let &t = q.tables().first().unwrap();
        let data_cols = db.schema().table(t).data_columns();
        prop_assume!(!data_cols.is_empty());
        let col = data_cols[seed as usize % data_cols.len()];
        let stats = db.column_stats(t, col);
        prop_assume!(stats.ndv > 0);
        let value = stats.min + (rng.gen_range(0..=(stats.max - stats.min).max(0)));
        let op = [CmpOp::Eq, CmpOp::Lt, CmpOp::Gt][seed as usize % 3];
        let mut preds = q.predicates().to_vec();
        preds.push(Predicate { table: t, column: col, op, value });
        let stricter = Query::new(q.tables().to_vec(), q.joins().to_vec(), preds);
        let strict = count_star(&db, &stricter.spec());
        prop_assert!(
            strict <= base,
            "conjunct grew the result: {base} -> {strict} for {stricter}"
        );
    }

    /// PostgreSQL column selectivities are valid probabilities for
    /// arbitrary operators and literals, including out-of-domain ones.
    #[test]
    fn postgres_selectivities_are_probabilities(
        table_idx in 0usize..6,
        value in -100i64..3000,
        op_idx in 0usize..3,
    ) {
        let (db, _) = fixture();
        let stats = lc_baselines::DbStatistics::build(&db, 50, 64);
        let t = TableId(table_idx as u16);
        let op = [CmpOp::Eq, CmpOp::Lt, CmpOp::Gt][op_idx];
        for col in db.schema().table(t).data_columns() {
            let sel = stats.table(t).columns[col].selectivity(op, value);
            prop_assert!((0.0..=1.0).contains(&sel), "sel {sel} out of range");
        }
    }

    /// Estimators are deterministic: estimating the same labeled query
    /// twice gives bit-identical results (IBJS included, despite its
    /// internal subsampling RNG).
    #[test]
    fn estimators_are_pure_functions(seed in 0u64..5_000) {
        let (db, samples) = fixture();
        let join_sizes = FullJoinSizes::build(&db);
        let indexes = JoinIndexes::build(&db);
        let pg = PostgresEstimator::new(&db);
        let rs = RandomSamplingEstimator::new(&db, &samples, &join_sizes);
        let ibjs = IbjsEstimator::new(&db, &samples, &indexes, &join_sizes);
        let mut generator = lc_query::QueryGenerator::new(
            &db,
            lc_query::GeneratorConfig { max_joins: 2, seed },
        );
        let q = LabeledQuery::compute(&db, &samples, generator.generate());
        for est in [&pg as &dyn Estimator, &rs, &ibjs] {
            let a = est.estimate(&q);
            let b = est.estimate(&q);
            prop_assert_eq!(a, b, "{} not deterministic", est.name());
            prop_assert!(a >= 1.0 && a.is_finite());
        }
    }
}

#[test]
fn postgres_mcv_equality_is_exact_on_small_domains() {
    // kind_id has 7 values, all captured by the MCV list, so the equality
    // estimate equals the exact count.
    let (db, samples) = fixture();
    let pg = PostgresEstimator::new(&db);
    let t = db.schema().table_id("title").unwrap();
    let kind_col = db.schema().table(t).column_index("kind_id").unwrap();
    for kind in 1..=7i64 {
        let q = Query::new(
            vec![t],
            vec![],
            vec![Predicate { table: t, column: kind_col, op: CmpOp::Eq, value: kind }],
        );
        let labeled = LabeledQuery::compute(&db, &samples, q);
        let est = pg.estimate(&labeled);
        let truth = labeled.cardinality as f64;
        assert!(
            (est - truth).abs() <= truth * 0.001 + 1.0,
            "kind {kind}: MCV estimate {est} should be exact, truth {truth}"
        );
    }
}

#[test]
fn random_sampling_is_unbiased_across_sample_draws() {
    // Averaged over many independent sample sets, the RS estimate of a
    // fixed base-table query converges to the true cardinality.
    let db = lc_imdb::generate(&ImdbConfig::tiny());
    let join_sizes = FullJoinSizes::build(&db);
    let t = db.schema().table_id("title").unwrap();
    let year_col = db.schema().table(t).column_index("production_year").unwrap();
    let q = Query::new(
        vec![t],
        vec![],
        vec![Predicate { table: t, column: year_col, op: CmpOp::Gt, value: 1990 }],
    );
    let mut total = 0.0;
    let runs = 40;
    let mut truth = 0.0;
    for seed in 0..runs {
        let mut rng = SmallRng::seed_from_u64(seed);
        let samples = SampleSet::draw(&db, 60, &mut rng);
        let labeled = LabeledQuery::compute(&db, &samples, q.clone());
        truth = labeled.cardinality as f64;
        let rs = RandomSamplingEstimator::new(&db, &samples, &join_sizes);
        total += rs.estimate(&labeled);
    }
    let mean = total / runs as f64;
    assert!(
        (mean - truth).abs() / truth < 0.15,
        "RS should be unbiased: mean estimate {mean} vs truth {truth}"
    );
}

#[test]
fn ibjs_equals_rs_on_every_base_table_query() {
    let (db, samples) = fixture();
    let join_sizes = FullJoinSizes::build(&db);
    let indexes = JoinIndexes::build(&db);
    let rs = RandomSamplingEstimator::new(&db, &samples, &join_sizes);
    let ibjs = IbjsEstimator::new(&db, &samples, &indexes, &join_sizes);
    let workload = workloads::synthetic(&db, &samples, 150, 0, 7).queries;
    for q in &workload {
        assert_eq!(q.query.num_joins(), 0);
        assert_eq!(ibjs.estimate(q), rs.estimate(q), "IBJS must match RS on base tables");
    }
}

#[test]
fn full_join_sizes_consistent_with_subset_monotonicity() {
    // Joining one more fact table multiplies per-key fan-outs, so with all
    // fan-outs >= 0 the size of a superset join can exceed OR fall below a
    // subset's (zero fan-outs prune rows) — but the single-edge sizes must
    // equal the fact row counts exactly, and all sizes must be positive.
    let (db, _) = fixture();
    let sizes = FullJoinSizes::build(&db);
    for j in 0..db.schema().num_joins() {
        let edge = db.schema().join(JoinId(j as u16));
        assert_eq!(
            sizes.size(&[JoinId(j as u16)]),
            db.table(edge.fact).num_rows() as u64,
            "single-edge PK/FK join size must equal the fact row count"
        );
    }
    let all: Vec<JoinId> = (0..db.schema().num_joins()).map(|i| JoinId(i as u16)).collect();
    assert!(sizes.size(&all) > 0, "the full star join should be non-empty");
}

/// `Estimator::estimate` is the provided batch of one, so a query's point
/// estimate is, bit for bit, its row of a 64-query `estimate_all` block —
/// for both served models and for every baseline. The serving batcher
/// coalesces requests on exactly this property.
#[test]
fn point_estimate_is_its_row_of_the_batch() {
    let (db, samples) = fixture();
    let join_sizes = FullJoinSizes::build(&db);
    let indexes = JoinIndexes::build(&db);
    let data = workloads::synthetic(&db, &samples, 200, 2, 17).queries;
    let cfg = TrainConfig { epochs: 2, hidden: 16, batch_size: 64, ..TrainConfig::default() };
    let mscn = train(&db, 40, &data, cfg).estimator;
    let int8 = lc_core::QuantizedMscn::quantize(&mscn);
    let pg = PostgresEstimator::new(&db);
    let rs = RandomSamplingEstimator::new(&db, &samples, &join_sizes);
    let ibjs = IbjsEstimator::new(&db, &samples, &indexes, &join_sizes);
    let block = &data[..64];
    for est in [&mscn as &dyn Estimator, &int8, &pg, &rs, &ibjs] {
        let rows = est.estimate_all(block);
        assert_eq!(rows.len(), block.len(), "{}", est.name());
        for (i, q) in block.iter().enumerate() {
            assert_eq!(est.estimate(q).to_bits(), rows[i].to_bits(), "{} row {i}", est.name());
        }
    }
}
