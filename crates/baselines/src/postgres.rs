//! The PostgreSQL-style estimator: per-column statistics, attribute-value
//! independence within a table, and the Selinger formula per join edge.
//!
//! This mirrors what `PostgreSQL 10.3` (the paper's version) actually
//! computes for the query class at hand: conjunctive predicate
//! selectivities from MCVs + histograms multiplied under independence, and
//! PK/FK join selectivity `1 / max(ndv(fk), ndv(pk))` applied per edge.

use lc_core::Estimator;
use lc_engine::{ColumnRole, Database, TableId};
use lc_query::LabeledQuery;

use crate::stats::{DbStatistics, DEFAULT_BUCKETS, DEFAULT_MCVS};

/// Statistics-only estimator in the style of PostgreSQL's planner.
pub struct PostgresEstimator<'a> {
    db: &'a Database,
    stats: DbStatistics,
}

impl<'a> PostgresEstimator<'a> {
    /// Build the estimator ("ANALYZE" the snapshot) with default targets.
    pub fn new(db: &'a Database) -> Self {
        PostgresEstimator { db, stats: DbStatistics::build(db, DEFAULT_MCVS, DEFAULT_BUCKETS) }
    }
}

/// Combined selectivity of the query's predicates on table `t` under
/// attribute-value independence.
fn table_selectivity(stats: &DbStatistics, q: &LabeledQuery, t: TableId) -> f64 {
    let ts = stats.table(t);
    q.query
        .predicates_on(t)
        .iter()
        .map(|p| ts.columns[p.column].selectivity(p.op, p.value))
        .product()
}

/// The full planner formula.
fn estimate_rows(db: &Database, stats: &DbStatistics, q: &LabeledQuery) -> f64 {
    // Base cardinalities × selectivities, independence everywhere.
    let mut rows = 1.0f64;
    for &t in q.query.tables() {
        let base = stats.table(t).row_count as f64;
        rows *= base * table_selectivity(stats, q, t);
    }
    // One Selinger factor per join edge.
    for &j in q.query.joins() {
        let edge = db.schema().join(j);
        let pk_ndv = db.table(edge.center).num_rows().max(1) as f64;
        let fk_ndv = db.column_stats(edge.fact, edge.fact_col).ndv.max(1) as f64;
        // PK side is unique, so ndv(pk) = |center| and the center's
        // ColumnRole is PrimaryKey by schema construction.
        debug_assert!(matches!(
            db.schema().table(edge.center).columns[edge.center_col].role,
            ColumnRole::PrimaryKey
        ));
        rows /= pk_ndv.max(fk_ndv);
    }
    // PostgreSQL clamps every relation estimate to at least one row.
    rows.max(1.0)
}

impl Estimator for PostgresEstimator<'_> {
    fn name(&self) -> &str {
        "PostgreSQL"
    }

    fn estimate_all(&self, qs: &[LabeledQuery]) -> Vec<f64> {
        qs.iter().map(|q| estimate_rows(self.db, &self.stats, q)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lc_engine::{CmpOp, Predicate, SampleSet};
    use lc_imdb::{generate, ImdbConfig};
    use lc_query::Query;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn labeled(db: &Database, q: Query) -> LabeledQuery {
        let mut rng = SmallRng::seed_from_u64(0);
        let samples = SampleSet::draw(db, 16, &mut rng);
        LabeledQuery::compute(db, &samples, q)
    }

    #[test]
    fn unfiltered_single_table_is_exact() {
        let db = generate(&ImdbConfig::tiny());
        let est = PostgresEstimator::new(&db);
        let q = labeled(&db, Query::new(vec![TableId(1)], vec![], vec![]));
        assert_eq!(est.estimate(&q), db.table(TableId(1)).num_rows() as f64);
    }

    #[test]
    fn unfiltered_pkfk_join_is_near_exact() {
        // |title ⋈ mc| = |mc| exactly; Selinger with ndv(fk) <= |title|
        // gives |title||mc| / |title| = |mc| when every movie has a company
        // record — and stays within a small factor otherwise.
        let db = generate(&ImdbConfig::tiny());
        let est = PostgresEstimator::new(&db);
        let q = labeled(
            &db,
            Query::new(vec![TableId(0), TableId(1)], vec![lc_engine::JoinId(0)], vec![]),
        );
        let estimate = est.estimate(&q);
        let truth = q.cardinality as f64;
        let qerr = (estimate / truth).max(truth / estimate);
        assert!(qerr < 1.5, "q-error {qerr} on unfiltered PK/FK join");
    }

    #[test]
    fn selective_predicate_shrinks_estimate() {
        let db = generate(&ImdbConfig::tiny());
        let est = PostgresEstimator::new(&db);
        let base = labeled(&db, Query::new(vec![TableId(0)], vec![], vec![]));
        let kind_col = db.schema().table(TableId(0)).column_index("kind_id").unwrap();
        let filtered = labeled(
            &db,
            Query::new(
                vec![TableId(0)],
                vec![],
                vec![Predicate { table: TableId(0), column: kind_col, op: CmpOp::Eq, value: 1 }],
            ),
        );
        assert!(est.estimate(&filtered) < est.estimate(&base));
        // MCV-backed equality on a small domain should be quite accurate.
        let truth = filtered.cardinality as f64;
        let e = est.estimate(&filtered);
        let qerr = (e / truth).max(truth / e);
        assert!(qerr < 1.3, "q-error {qerr} for MCV equality");
    }

    #[test]
    fn estimates_never_below_one_row() {
        let db = generate(&ImdbConfig::tiny());
        let est = PostgresEstimator::new(&db);
        let year_col = db.schema().table(TableId(0)).column_index("production_year").unwrap();
        // Impossible range: year > max.
        let q = labeled(
            &db,
            Query::new(
                vec![TableId(0)],
                vec![],
                vec![Predicate { table: TableId(0), column: year_col, op: CmpOp::Gt, value: 9999 }],
            ),
        );
        assert_eq!(est.estimate(&q), 1.0);
    }
}
