//! A lifetime-free IBJS estimator for the serving registry.
//!
//! [`IbjsEstimator`](crate::IbjsEstimator) borrows the engine snapshot,
//! which is the right shape for the evaluation harness but cannot live
//! behind `Arc<dyn Estimator>` in `lc_serve`'s model registry — a
//! borrowed lifetime would leak into the whole serve API. The owned
//! variant holds `Arc`s to the shared snapshot artifacts instead, so the
//! tiered pipeline's fallback implements [`Estimator`](lc_core::Estimator)
//! without lifetimes. Its estimates are identical to the borrowing
//! variant's by construction: both run the same walk code.

use std::sync::Arc;

use lc_core::{Estimator, UncertainEstimate};
use lc_engine::{Database, JoinIndexes, SampleSet};
use lc_query::LabeledQuery;

use crate::ibjs::{IbjsEstimator, DEFAULT_BUDGET};
use crate::joinsizes::FullJoinSizes;

/// Owned (registry-friendly) variant of
/// [`IbjsEstimator`](crate::IbjsEstimator): holds the snapshot artifacts
/// by `Arc` and materializes the borrowing walker per batch (construction
/// is a handful of pointer copies).
pub struct OwnedIbjsEstimator {
    db: Arc<Database>,
    samples: Arc<SampleSet>,
    indexes: Arc<JoinIndexes>,
    join_sizes: Arc<FullJoinSizes>,
    budget: usize,
    seed: u64,
}

impl OwnedIbjsEstimator {
    /// Build with the default probe budget.
    pub fn new(
        db: Arc<Database>,
        samples: Arc<SampleSet>,
        indexes: Arc<JoinIndexes>,
        join_sizes: Arc<FullJoinSizes>,
    ) -> Self {
        Self::with_budget(db, samples, indexes, join_sizes, DEFAULT_BUDGET, 0xB)
    }

    /// Build with an explicit per-level tuple budget and subsampling seed.
    pub fn with_budget(
        db: Arc<Database>,
        samples: Arc<SampleSet>,
        indexes: Arc<JoinIndexes>,
        join_sizes: Arc<FullJoinSizes>,
        budget: usize,
        seed: u64,
    ) -> Self {
        OwnedIbjsEstimator { db, samples, indexes, join_sizes, budget, seed }
    }

    fn walker(&self) -> IbjsEstimator<'_> {
        IbjsEstimator::with_budget(
            &self.db,
            &self.samples,
            &self.indexes,
            &self.join_sizes,
            self.budget,
            self.seed,
        )
    }
}

impl Estimator for OwnedIbjsEstimator {
    fn name(&self) -> &str {
        "IB Join Samp."
    }

    fn estimate_with_uncertainty(&self, qs: &[LabeledQuery]) -> Vec<UncertainEstimate> {
        self.walker().estimate_with_uncertainty(qs)
    }

    fn estimate(&self, q: &LabeledQuery) -> f64 {
        self.walker().estimate(q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lc_imdb::{generate, ImdbConfig};
    use lc_query::workloads;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// The owned variant is drop-in: identical answers to the borrowing
    /// estimator on every query, with no lifetime in its type.
    #[test]
    fn owned_variants_match_borrowing_estimators() {
        let db = Arc::new(generate(&ImdbConfig::tiny()));
        let mut rng = SmallRng::seed_from_u64(71);
        let samples = Arc::new(SampleSet::draw(&db, 50, &mut rng));
        let indexes = Arc::new(JoinIndexes::build(&db));
        let join_sizes = Arc::new(FullJoinSizes::build(&db));
        let data = workloads::synthetic(&db, &samples, 60, 2, 72).queries;

        let ibjs_owned = OwnedIbjsEstimator::new(
            Arc::clone(&db),
            Arc::clone(&samples),
            Arc::clone(&indexes),
            Arc::clone(&join_sizes),
        );
        let ibjs = IbjsEstimator::new(&db, &samples, &indexes, &join_sizes);

        assert_eq!(ibjs_owned.name(), ibjs.name());
        assert_eq!(ibjs_owned.estimate_all(&data), ibjs.estimate_all(&data));

        // And it satisfies the registry's object bound.
        fn registry_ready(_: Arc<dyn Estimator + Send + Sync>) {}
        registry_ready(Arc::new(ibjs_owned));
    }
}
