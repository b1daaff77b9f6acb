//! Random Sampling (RS): per-table materialized-sample selectivities with
//! the independence assumption across joins.
//!
//! From the paper (§4): *"RS executes base table predicates on materialized
//! samples to estimate base table cardinalities and assumes independence
//! for estimating joins. If there are no qualifying samples for a
//! conjunctive predicate, it tries to evaluate the conjuncts individually
//! and eventually falls back to using the number of distinct values (of the
//! column with the most selective conjunct) to estimate the selectivity."*
//!
//! The join estimate is `Π_t sel(t) × |unfiltered join|` with the exact
//! unfiltered size from [`FullJoinSizes`] — precisely the independence
//! assumption the paper shows to *underestimate* correlated joins.

use lc_core::Estimator;
use lc_engine::{Database, SampleSet, TableId};
use lc_query::LabeledQuery;

use crate::joinsizes::FullJoinSizes;

/// Sampling-based estimator with independence across joins.
pub struct RandomSamplingEstimator<'a> {
    db: &'a Database,
    samples: &'a SampleSet,
    join_sizes: &'a FullJoinSizes,
}

impl<'a> RandomSamplingEstimator<'a> {
    /// Build from shared snapshot artifacts. `samples` must be the same
    /// sample set used to annotate the queries (the paper evaluates RS
    /// "using the same random seed — i.e. the same set of materialized
    /// samples as MSCN").
    pub fn new(db: &'a Database, samples: &'a SampleSet, join_sizes: &'a FullJoinSizes) -> Self {
        RandomSamplingEstimator { db, samples, join_sizes }
    }

    /// Effective per-table sample size (small tables are fully sampled).
    fn sample_n(&self, t: TableId) -> f64 {
        self.samples.table(t).row_ids.len().max(1) as f64
    }

    /// Base-table selectivity from the sample, with the paper's two-stage
    /// fallback for 0-tuple situations.
    pub(crate) fn table_selectivity(&self, q: &LabeledQuery, idx: usize, t: TableId) -> f64 {
        let preds = q.query.predicate_range(t);
        if preds.is_empty() {
            return 1.0;
        }
        let n = self.sample_n(t);
        let qualifying = q.sample_counts[idx];
        if qualifying > 0 {
            return qualifying as f64 / n;
        }
        // Fallback 1+2: evaluate conjuncts individually; conjuncts that
        // still have no qualifying sample contribute an educated 1/ndv
        // guess from the most selective (largest-ndv) interpretation.
        let mut sel = 1.0f64;
        for (p, alone) in q.query.predicates()[preds.clone()].iter().zip(&q.pred_bitmaps[preds]) {
            let c = alone.count_ones();
            if c > 0 {
                sel *= c as f64 / n;
            } else {
                let ndv = self.db.column_stats(t, p.column).ndv.max(1);
                sel *= 1.0 / ndv as f64;
            }
        }
        sel
    }
}

impl Estimator for RandomSamplingEstimator<'_> {
    fn name(&self) -> &str {
        "Random Samp."
    }

    fn estimate_all(&self, qs: &[LabeledQuery]) -> Vec<f64> {
        qs.iter().map(|q| self.rows(q)).collect()
    }
}

impl RandomSamplingEstimator<'_> {
    /// The estimate for one query.
    pub(crate) fn rows(&self, q: &LabeledQuery) -> f64 {
        let sel_product: f64 = q
            .query
            .tables()
            .iter()
            .enumerate()
            .map(|(i, &t)| self.table_selectivity(q, i, t))
            .product();
        let estimate = if q.query.joins().is_empty() {
            // Base table (or, degenerately, a cross product).
            let rows: f64 =
                q.query.tables().iter().map(|&t| self.db.table(t).num_rows() as f64).product();
            sel_product * rows
        } else {
            sel_product * self.join_sizes.size(q.query.joins()) as f64
        };
        estimate.max(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lc_engine::{CmpOp, JoinId, Predicate};
    use lc_imdb::{generate, ImdbConfig};
    use lc_query::Query;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    struct Fixture {
        db: Database,
        samples: SampleSet,
        join_sizes: FullJoinSizes,
    }

    fn fixture() -> Fixture {
        let db = generate(&ImdbConfig::tiny());
        let mut rng = SmallRng::seed_from_u64(11);
        let samples = SampleSet::draw(&db, 100, &mut rng);
        let join_sizes = FullJoinSizes::build(&db);
        Fixture { db, samples, join_sizes }
    }

    fn labeled(f: &Fixture, q: Query) -> LabeledQuery {
        LabeledQuery::compute(&f.db, &f.samples, q)
    }

    #[test]
    fn base_table_extrapolates_sample_fraction() {
        let f = fixture();
        let est = RandomSamplingEstimator::new(&f.db, &f.samples, &f.join_sizes);
        let kind_col = f.db.schema().table(TableId(0)).column_index("kind_id").unwrap();
        let q = labeled(
            &f,
            Query::new(
                vec![TableId(0)],
                vec![],
                vec![Predicate { table: TableId(0), column: kind_col, op: CmpOp::Eq, value: 1 }],
            ),
        );
        let expected = q.sample_counts[0] as f64 / 100.0 * f.db.table(TableId(0)).num_rows() as f64;
        assert!((est.estimate(&q) - expected).abs() < 1e-6);
    }

    #[test]
    fn unfiltered_join_is_exact() {
        let f = fixture();
        let est = RandomSamplingEstimator::new(&f.db, &f.samples, &f.join_sizes);
        let q = labeled(&f, Query::new(vec![TableId(0), TableId(1)], vec![JoinId(0)], vec![]));
        assert_eq!(est.estimate(&q), q.cardinality as f64);
    }

    #[test]
    fn zero_tuple_falls_back_to_educated_guess() {
        let f = fixture();
        let est = RandomSamplingEstimator::new(&f.db, &f.samples, &f.join_sizes);
        // A conjunction that no sampled row satisfies: person_id equality
        // plus a role filter on a 100-row sample of cast_info.
        let ci = TableId(2);
        let person_col = f.db.schema().table(ci).column_index("person_id").unwrap();
        let role_col = f.db.schema().table(ci).column_index("role_id").unwrap();
        let person = f.db.table(ci).column(person_col).raw(17);
        let q = labeled(
            &f,
            Query::new(
                vec![ci],
                vec![],
                vec![
                    Predicate { table: ci, column: person_col, op: CmpOp::Eq, value: person },
                    Predicate { table: ci, column: role_col, op: CmpOp::Gt, value: 0 },
                ],
            ),
        );
        let e = est.estimate(&q);
        assert!(e >= 1.0);
        if q.sample_counts[0] == 0 {
            // Fallback must give something finite and positive, not zero.
            assert!(e.is_finite() && e >= 1.0);
            // And it should be far below the table size (selective conjunct).
            assert!(e < f.db.table(ci).num_rows() as f64 / 10.0);
        }
    }

    #[test]
    fn independence_underestimates_correlated_join() {
        // The dataset plants a year↔rating-record correlation: recent
        // movies both qualify `year > 2000` AND have movie_info_idx rows.
        // Under independence RS must underestimate this join on average.
        let f = fixture();
        let est = RandomSamplingEstimator::new(&f.db, &f.samples, &f.join_sizes);
        let year_col = f.db.schema().table(TableId(0)).column_index("production_year").unwrap();
        let mix = TableId(4);
        let join = f.db.schema().join_of_fact(mix).unwrap();
        let q = labeled(
            &f,
            Query::new(
                vec![TableId(0), mix],
                vec![join],
                vec![Predicate { table: TableId(0), column: year_col, op: CmpOp::Gt, value: 2000 }],
            ),
        );
        let e = est.estimate(&q);
        let truth = q.cardinality as f64;
        assert!(
            e < truth,
            "independence should underestimate the correlated join: est {e} vs true {truth}"
        );
    }
}
