//! # lc-baselines — the paper's competitor estimators
//!
//! Three baselines, matching §4 of the paper:
//!
//! * [`PostgresEstimator`] — a faithful re-implementation of the classical
//!   statistics-based estimator PostgreSQL uses: per-column MCV lists and
//!   equi-depth histograms, attribute-value independence across conjuncts,
//!   and the Selinger join formula `|R||S| / max(ndv)` per join edge.
//! * [`RandomSamplingEstimator`] — evaluates base-table predicates on
//!   materialized per-table samples and **assumes independence across
//!   joins**; falls back to per-conjunct evaluation and then to
//!   `1/ndv` guesses when no sample tuple qualifies (§4, "Random Samp.").
//! * [`IbjsEstimator`] — Index-Based Join Sampling [Leis et al., CIDR 2017]:
//!   probes qualifying base-table sample tuples through join indexes with a
//!   per-level budget; shares Random Sampling's fallback when the starting
//!   sample is empty (§4, "IB Join Samp.").
//!
//! All estimators implement the unified, object-safe
//! [`lc_core::Estimator`] trait, so the evaluation harness treats them
//! interchangeably with MSCN.

mod ibjs;
mod joinsizes;
mod postgres;
mod rs;
pub mod stats;

pub use ibjs::IbjsEstimator;
pub use joinsizes::FullJoinSizes;
pub use postgres::PostgresEstimator;
pub use rs::RandomSamplingEstimator;
pub use stats::{ColumnDistribution, DbStatistics, TableStatistics};

#[cfg(test)]
mod estimator_trait_tests {
    use super::*;
    use lc_core::Estimator;
    use lc_engine::SampleSet;
    use lc_query::workloads;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// Every baseline speaks the unified trait: the point default equals
    /// its row of the batch, every estimate is a finite non-negative
    /// cardinality, and no baseline claims a served model's footprint or
    /// quantization.
    #[test]
    fn baselines_are_estimators_with_full_confidence() {
        let db = lc_imdb::generate(&lc_imdb::ImdbConfig::tiny());
        let mut rng = SmallRng::seed_from_u64(91);
        let samples = SampleSet::draw(&db, 24, &mut rng);
        let join_sizes = FullJoinSizes::build(&db);
        let indexes = lc_engine::JoinIndexes::build(&db);
        let data = workloads::synthetic(&db, &samples, 40, 2, 92).queries;

        let pg = PostgresEstimator::new(&db);
        let rs = RandomSamplingEstimator::new(&db, &samples, &join_sizes);
        let ibjs = IbjsEstimator::new(&db, &samples, &indexes, &join_sizes);
        let estimators: Vec<&dyn Estimator> = vec![&pg, &rs, &ibjs];
        for est in estimators {
            let points = est.estimate_all(&data);
            assert_eq!(points.len(), data.len(), "{}", est.name());
            for (q, p) in data.iter().zip(&points) {
                assert!(p.is_finite() && *p >= 0.0, "{}: {p}", est.name());
                assert_eq!(est.estimate(q).to_bits(), p.to_bits(), "{}", est.name());
            }
            assert_eq!(est.model_bytes(), 0, "{}", est.name());
            assert!(!est.is_quantized(), "{}", est.name());
        }
    }
}
