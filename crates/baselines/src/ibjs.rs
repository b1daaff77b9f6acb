//! Index-Based Join Sampling (IBJS, Leis et al. CIDR 2017): the
//! state-of-the-art sampling competitor of the paper.
//!
//! IBJS starts from the qualifying tuples of a base-table sample and
//! extends them join by join through existing index structures, applying
//! the next table's predicates to the probed rows. The running count of
//! partial join tuples, rescaled by the starting sample fraction (and by
//! any budget-induced subsampling), is an unbiased estimate of the join
//! cardinality — *as long as some sample tuple qualifies*. When the
//! starting sample (or an intermediate result) is empty it falls back to
//! the same educated guess as Random Sampling, which is exactly the 0-tuple
//! weakness the paper's §4.2 examines.

use std::hash::{Hash, Hasher};

use lc_core::Estimator;
use lc_engine::{Database, FxHasher, JoinIndexes, SampleSet, TableId};
use lc_query::LabeledQuery;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::joinsizes::FullJoinSizes;
use crate::rs::RandomSamplingEstimator;

/// Default cap on the number of partial join tuples kept per level.
pub const DEFAULT_BUDGET: usize = 2_000;

/// Index-Based Join Sampling estimator.
pub struct IbjsEstimator<'a> {
    db: &'a Database,
    samples: &'a SampleSet,
    indexes: &'a JoinIndexes,
    fallback: RandomSamplingEstimator<'a>,
    budget: usize,
    seed: u64,
}

impl<'a> IbjsEstimator<'a> {
    /// Build with the default probe budget.
    pub fn new(
        db: &'a Database,
        samples: &'a SampleSet,
        indexes: &'a JoinIndexes,
        join_sizes: &'a FullJoinSizes,
    ) -> Self {
        Self::with_budget(db, samples, indexes, join_sizes, DEFAULT_BUDGET, 0xB)
    }

    /// Build with an explicit per-level tuple budget and subsampling seed.
    pub fn with_budget(
        db: &'a Database,
        samples: &'a SampleSet,
        indexes: &'a JoinIndexes,
        join_sizes: &'a FullJoinSizes,
        budget: usize,
        seed: u64,
    ) -> Self {
        let fallback = RandomSamplingEstimator::new(db, samples, join_sizes);
        IbjsEstimator { db, samples, indexes, fallback, budget: budget.max(1), seed }
    }

    fn sample_n(&self, t: TableId) -> usize {
        self.samples.table(t).row_ids.len().max(1)
    }

    /// Deterministic per-query RNG for budget subsampling.
    fn rng_for(&self, q: &LabeledQuery) -> SmallRng {
        let mut h = FxHasher::default();
        q.query.hash(&mut h);
        SmallRng::seed_from_u64(self.seed ^ h.finish())
    }

    /// Run the index-probing walk; `None` means a 0-tuple situation
    /// (empty start sample or empty intermediate result) requiring the
    /// fallback guess.
    fn walk(&self, q: &LabeledQuery) -> Option<f64> {
        let schema = self.db.schema();
        let center = schema.center;

        // Most selective starting table: minimal qualifying-sample
        // fraction, but it must have at least one qualifying tuple.
        let (start_idx, &start) =
            q.query.tables().iter().enumerate().filter(|(i, _)| q.sample_counts[*i] > 0).min_by(
                |(i, &a), (j, &b)| {
                    let fa = q.sample_counts[*i] as f64 / self.sample_n(a) as f64;
                    let fb = q.sample_counts[*j] as f64 / self.sample_n(b) as f64;
                    fa.partial_cmp(&fb).unwrap()
                },
            )?;

        let mut scale = self.db.table(start).num_rows() as f64 / self.sample_n(start) as f64;
        let mut rng = self.rng_for(q);

        // Partial join tuples, identified by their center row id.
        let mut state: Vec<u32> = Vec::new();
        let center_preds = q.query.predicates_on(center);
        let center_data = self.db.table(center);
        if start == center {
            for pos in q.bitmaps[start_idx].iter_ones() {
                state.push(self.samples.table(center).row_ids[pos]);
            }
        } else {
            // Hop from the starting fact sample to the center (fan-out 1),
            // applying the center's predicates along the way.
            let edge = schema.join(schema.join_of_fact(start).expect("fact edge"));
            let fk = self.db.table(start).column(edge.fact_col);
            for pos in q.bitmaps[start_idx].iter_ones() {
                let row = self.samples.table(start).row_ids[pos] as usize;
                let center_row = fk.raw(row) as usize;
                if lc_engine::predicate::row_matches_all(center_data, center_preds, center_row) {
                    state.push(center_row as u32);
                }
            }
        }
        if state.is_empty() {
            return None;
        }

        // Remaining fact tables, most selective first (sample fraction).
        let mut remaining: Vec<(usize, TableId)> = q
            .query
            .tables()
            .iter()
            .enumerate()
            .filter(|&(_, &t)| t != center && t != start)
            .map(|(i, &t)| (i, t))
            .collect();
        remaining.sort_by(|&(i, a), &(j, b)| {
            let fa = q.sample_counts[i] as f64 / self.sample_n(a) as f64;
            let fb = q.sample_counts[j] as f64 / self.sample_n(b) as f64;
            fa.partial_cmp(&fb).unwrap()
        });

        for (_, fact) in remaining {
            let join = schema.join_of_fact(fact).expect("fact edge");
            let index = self.indexes.edge(join);
            let preds = q.query.predicates_on(fact);
            let fact_data = self.db.table(fact);
            let mut next: Vec<u32> = Vec::with_capacity(state.len());
            for &c in &state {
                for &row in index.probe(c as i64) {
                    if lc_engine::predicate::row_matches_all(fact_data, preds, row as usize) {
                        next.push(c);
                    }
                }
            }
            if next.is_empty() {
                return None;
            }
            if next.len() > self.budget {
                scale *= next.len() as f64 / self.budget as f64;
                next.shuffle(&mut rng);
                next.truncate(self.budget);
            }
            state = next;
        }
        Some(state.len() as f64 * scale)
    }
}

impl Estimator for IbjsEstimator<'_> {
    fn name(&self) -> &str {
        "IB Join Samp."
    }

    fn estimate_all(&self, qs: &[LabeledQuery]) -> Vec<f64> {
        qs.iter().map(|q| self.rows(q)).collect()
    }
}

impl IbjsEstimator<'_> {
    /// The estimate for one query.
    fn rows(&self, q: &LabeledQuery) -> f64 {
        if q.query.joins().is_empty() {
            // Base tables: identical to Random Sampling (IBJS only changes
            // how joins are estimated).
            return self.fallback.rows(q);
        }
        match self.walk(q) {
            Some(est) => est.max(1.0),
            None => self.fallback.rows(q),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lc_engine::{CmpOp, Predicate};
    use lc_imdb::{generate, ImdbConfig};
    use lc_query::Query;

    struct Fixture {
        db: Database,
        samples: SampleSet,
        indexes: JoinIndexes,
        join_sizes: FullJoinSizes,
    }

    fn fixture() -> Fixture {
        let db = generate(&ImdbConfig::tiny());
        let mut rng = SmallRng::seed_from_u64(21);
        let samples = SampleSet::draw(&db, 100, &mut rng);
        let indexes = JoinIndexes::build(&db);
        let join_sizes = FullJoinSizes::build(&db);
        Fixture { db, samples, indexes, join_sizes }
    }

    fn labeled(f: &Fixture, q: Query) -> LabeledQuery {
        LabeledQuery::compute(&f.db, &f.samples, q)
    }

    fn qerr(est: f64, truth: f64) -> f64 {
        (est / truth).max(truth / est)
    }

    #[test]
    fn unfiltered_join_estimate_is_tight() {
        let f = fixture();
        let ibjs = IbjsEstimator::new(&f.db, &f.samples, &f.indexes, &f.join_sizes);
        let q = labeled(
            &f,
            Query::new(vec![TableId(0), TableId(2)], vec![lc_engine::JoinId(1)], vec![]),
        );
        let e = ibjs.estimate(&q);
        assert!(qerr(e, q.cardinality as f64) < 1.5, "est {e} vs {}", q.cardinality);
    }

    #[test]
    fn captures_join_crossing_correlation_better_than_rs() {
        let f = fixture();
        let ibjs = IbjsEstimator::new(&f.db, &f.samples, &f.indexes, &f.join_sizes);
        let rs = RandomSamplingEstimator::new(&f.db, &f.samples, &f.join_sizes);
        let year_col = f.db.schema().table(TableId(0)).column_index("production_year").unwrap();
        let mix = TableId(4);
        let q = labeled(
            &f,
            Query::new(
                vec![TableId(0), mix],
                vec![f.db.schema().join_of_fact(mix).unwrap()],
                vec![Predicate { table: TableId(0), column: year_col, op: CmpOp::Gt, value: 2000 }],
            ),
        );
        let truth = q.cardinality as f64;
        let e_ibjs = qerr(ibjs.estimate(&q), truth);
        let e_rs = qerr(rs.estimate(&q), truth);
        assert!(e_ibjs <= e_rs, "IBJS ({e_ibjs}) should beat RS ({e_rs}) on the correlated join");
        assert!(e_ibjs < 2.0, "IBJS q-error {e_ibjs} too large");
    }

    #[test]
    fn empty_start_sample_uses_rs_fallback() {
        let f = fixture();
        let ibjs = IbjsEstimator::new(&f.db, &f.samples, &f.indexes, &f.join_sizes);
        let rs = RandomSamplingEstimator::new(&f.db, &f.samples, &f.join_sizes);
        let ci = TableId(2);
        let person_col = f.db.schema().table(ci).column_index("person_id").unwrap();
        let person = f.db.table(ci).column(person_col).raw(3);
        let q = labeled(
            &f,
            Query::new(
                vec![TableId(0), ci],
                vec![f.db.schema().join_of_fact(ci).unwrap()],
                vec![Predicate { table: ci, column: person_col, op: CmpOp::Eq, value: person }],
            ),
        );
        if q.sample_counts.iter().zip(q.query.tables()).any(|(&c, &t)| t == ci && c == 0) {
            assert_eq!(ibjs.estimate(&q), rs.estimate(&q).max(1.0));
        }
    }

    #[test]
    fn deterministic_even_with_budget_subsampling() {
        let f = fixture();
        let ibjs = IbjsEstimator::with_budget(&f.db, &f.samples, &f.indexes, &f.join_sizes, 16, 7);
        let q = labeled(
            &f,
            Query::new(
                vec![TableId(0), TableId(1), TableId(2)],
                vec![lc_engine::JoinId(0), lc_engine::JoinId(1)],
                vec![],
            ),
        );
        let a = ibjs.estimate(&q);
        let b = ibjs.estimate(&q);
        assert_eq!(a, b);
        assert!(a >= 1.0);
    }

    #[test]
    fn base_table_matches_rs() {
        let f = fixture();
        let ibjs = IbjsEstimator::new(&f.db, &f.samples, &f.indexes, &f.join_sizes);
        let rs = RandomSamplingEstimator::new(&f.db, &f.samples, &f.join_sizes);
        let kind_col = f.db.schema().table(TableId(0)).column_index("kind_id").unwrap();
        let q = labeled(
            &f,
            Query::new(
                vec![TableId(0)],
                vec![],
                vec![Predicate { table: TableId(0), column: kind_col, op: CmpOp::Eq, value: 2 }],
            ),
        );
        assert_eq!(ibjs.estimate(&q), rs.estimate(&q));
    }
}
