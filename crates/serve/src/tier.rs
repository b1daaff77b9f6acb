//! Saturation-routed estimator tiering: one learned model, one fallback.
//!
//! A learned estimator is only cheap *and* accurate inside its trained
//! distribution; under workload shift its errors explode silently. The
//! paper's remedy (§5 "Updates") is retraining — slow, minutes behind
//! the shift. [`TieredEstimator`] adds the fast half of the answer:
//! route each query by the primary model's **own saturation flag** so
//! the common case keeps MSCN's speed and accuracy while the queries it
//! is extrapolating on fall back to a classical estimator whose formulas
//! cannot be out-of-distribution.
//!
//! Routing policy, per query, from the primary's
//! [`UncertainEstimate`]:
//!
//! * **not saturated** — the primary answers ([`TIER_PRIMARY`]).
//! * **saturated** — the query's cardinality sits at or beyond the edge
//!   of the trained label range, where the model is extrapolating; the
//!   sampling fallback answers ([`TIER_FALLBACK`]).
//!
//! The primary's `log_std` does not route: measured on this repository's
//! workloads, ensemble spread flagged in-distribution queries more often
//! than out-of-distribution ones, and the tier it fed did not pay for
//! itself (ROADMAP item 15). Tier id 1 belonged to that retired middle
//! tier and is not reused. Saturated queries are re-answered as one
//! sub-batch per flush, whose latency lands in
//! `tier.fallback.estimate_ns`; hit counters are the batcher's job (it
//! sees cache hits too).

use std::sync::Arc;
use std::time::Instant;

use lc_baselines::{FullJoinSizes, OwnedIbjsEstimator};
use lc_core::{Estimator, RoutedEstimate, UncertainEstimate};
use lc_engine::{Database, JoinIndexes, SampleSet};
use lc_obs::metrics;
use lc_query::LabeledQuery;

use crate::registry::PipelineBuilder;

/// Tier id: the primary learned model.
pub const TIER_PRIMARY: u8 = 0;
/// Tier id: the sampling fallback (IBJS).
pub const TIER_FALLBACK: u8 = 2;

/// The pipeline `serve --tiered` serves: each published base model as
/// the primary, and index-based join sampling over `db` and `samples`
/// as the fallback for the queries the model saturates on.
pub fn tiered_pipeline(db: &Database, samples: &SampleSet) -> PipelineBuilder {
    let fallback: Arc<dyn Estimator + Send + Sync> = Arc::new(OwnedIbjsEstimator::new(
        Arc::new(db.clone()),
        Arc::new(samples.clone()),
        Arc::new(JoinIndexes::build(db)),
        Arc::new(FullJoinSizes::build(db)),
    ));
    Box::new(move |base| {
        Arc::new(TieredEstimator::new(Arc::new(base.clone()), Arc::clone(&fallback)))
    })
}

/// A composite [`Estimator`] that sends each query to the fallback
/// exactly when the primary's own estimate is saturated (see the module
/// docs). [`tiered_pipeline`] builds the one `serve --tiered` installs
/// in the [`ModelRegistry`](crate::ModelRegistry) through
/// [`ModelRegistry::with_pipeline`](crate::ModelRegistry::with_pipeline).
pub struct TieredEstimator {
    primary: Arc<dyn Estimator + Send + Sync>,
    fallback: Arc<dyn Estimator + Send + Sync>,
}

impl TieredEstimator {
    /// Route saturated queries of `primary` to `fallback`.
    pub fn new(
        primary: Arc<dyn Estimator + Send + Sync>,
        fallback: Arc<dyn Estimator + Send + Sync>,
    ) -> Self {
        TieredEstimator { primary, fallback }
    }

    /// Primary uncertainties plus the routed answers derived from them.
    fn route_batch(
        &self,
        queries: &[LabeledQuery],
    ) -> (Vec<UncertainEstimate>, Vec<RoutedEstimate>) {
        let uncertain = self.primary.estimate_with_uncertainty(queries);
        let mut routed: Vec<RoutedEstimate> = uncertain
            .iter()
            .map(|u| RoutedEstimate {
                estimate: u.estimate,
                tier: if u.saturated { TIER_FALLBACK } else { TIER_PRIMARY },
                log_std: u.log_std,
            })
            .collect();
        // Re-answer the saturated subset with one batched call.
        let idx: Vec<usize> = (0..routed.len()).filter(|&i| uncertain[i].saturated).collect();
        if !idx.is_empty() {
            let sub: Vec<LabeledQuery> = idx.iter().map(|&i| queries[i].clone()).collect();
            let started = lc_obs::enabled().then(Instant::now);
            let answers = self.fallback.estimate_all(&sub);
            if let Some(started) = started {
                metrics::TIER_FALLBACK_NS.record_duration(started.elapsed());
            }
            for (&i, answer) in idx.iter().zip(answers) {
                routed[i].estimate = answer.max(1.0);
            }
        }
        (uncertain, routed)
    }
}

impl std::fmt::Debug for TieredEstimator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TieredEstimator")
            .field("primary", &self.primary.name())
            .field("fallback", &self.fallback.name())
            .finish()
    }
}

impl Estimator for TieredEstimator {
    fn name(&self) -> &str {
        "tiered"
    }

    /// The routed answers, re-attached to the *primary's* trust
    /// metadata: `log_std`/`saturated` always describe what the primary
    /// thought, whichever tier ended up answering — that is the signal
    /// drift monitors and dashboards want to watch.
    fn estimate_with_uncertainty(&self, queries: &[LabeledQuery]) -> Vec<UncertainEstimate> {
        let (uncertain, routed) = self.route_batch(queries);
        uncertain
            .into_iter()
            .zip(routed)
            .map(|(u, r)| UncertainEstimate { estimate: r.estimate, ..u })
            .collect()
    }

    fn estimate_routed(&self, queries: &[LabeledQuery]) -> Vec<RoutedEstimate> {
        self.route_batch(queries).1
    }

    /// Both tiers' resident bytes: the registry's `model.bytes` of a
    /// tiered pipeline is its footprint, not 0.
    fn model_bytes(&self) -> usize {
        self.primary.model_bytes() + self.fallback.model_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lc_query::Query;

    /// Scripted primary: answers `estimate` everywhere, with a fixed
    /// per-query trust signal.
    struct ScriptedPrimary {
        estimate: f64,
        signals: Vec<(f64, bool)>, // (log_std, saturated) per query
    }

    impl Estimator for ScriptedPrimary {
        fn name(&self) -> &str {
            "scripted"
        }
        fn estimate_with_uncertainty(&self, queries: &[LabeledQuery]) -> Vec<UncertainEstimate> {
            assert_eq!(queries.len(), self.signals.len(), "fixture drives full batches");
            self.signals
                .iter()
                .map(|&(log_std, saturated)| UncertainEstimate {
                    estimate: self.estimate,
                    log_std,
                    saturated,
                })
                .collect()
        }
    }

    /// Constant classical tier (no uncertainty channel of its own).
    struct Flat(f64);

    impl Estimator for Flat {
        fn name(&self) -> &str {
            "flat"
        }
        fn estimate_with_uncertainty(&self, queries: &[LabeledQuery]) -> Vec<UncertainEstimate> {
            queries
                .iter()
                .map(|_| UncertainEstimate { estimate: self.0, log_std: 0.0, saturated: false })
                .collect()
        }
    }

    fn queries(n: usize) -> Vec<LabeledQuery> {
        (0..n)
            .map(|_| LabeledQuery {
                query: Query::new(vec![], vec![], vec![]),
                cardinality: 0,
                sample_counts: vec![],
                bitmaps: vec![],
                pred_bitmaps: vec![],
            })
            .collect()
    }

    fn tiered(signals: Vec<(f64, bool)>) -> TieredEstimator {
        TieredEstimator::new(
            Arc::new(ScriptedPrimary { estimate: 100.0, signals }),
            Arc::new(Flat(300.0)),
        )
    }

    #[test]
    fn model_bytes_sum_the_tiers() {
        struct Sized(usize);
        impl Estimator for Sized {
            fn name(&self) -> &str {
                "sized"
            }
            fn estimate_with_uncertainty(&self, q: &[LabeledQuery]) -> Vec<UncertainEstimate> {
                Flat(1.0).estimate_with_uncertainty(q)
            }
            fn model_bytes(&self) -> usize {
                self.0
            }
        }
        let est = TieredEstimator::new(Arc::new(Sized(1000)), Arc::new(Sized(20)));
        assert_eq!(est.model_bytes(), 1020);
    }

    #[test]
    fn agreement_routes_to_the_primary() {
        let est = tiered(vec![(0.0, false), (0.75, false)]);
        let routed = est.estimate_routed(&queries(2));
        for r in &routed {
            assert_eq!(r.tier, TIER_PRIMARY);
            assert_eq!(r.estimate, 100.0);
        }
        // The trust signal is passed through.
        assert_eq!(routed[1].log_std, 0.75);
    }

    /// Spread alone never reroutes: an unsaturated query with a large
    /// `log_std` is the primary's, however much its members disagree.
    #[test]
    fn unsaturated_spread_stays_on_the_primary() {
        let est = tiered(vec![(1.5, false), (f64::INFINITY, false)]);
        let routed = est.estimate_routed(&queries(2));
        assert!(routed.iter().all(|r| r.tier == TIER_PRIMARY && r.estimate == 100.0));
        assert_eq!(routed[0].log_std, 1.5);
    }

    /// A saturated query is the fallback's, whatever its spread, and its
    /// answer is clamped to at least one row like every estimate.
    #[test]
    fn saturation_routes_to_the_fallback_clamped_to_one() {
        let signals = vec![(0.2, false), (0.1, true), (2.0, true)];
        let est = tiered(signals.clone());
        let routed = est.estimate_routed(&queries(3));
        assert_eq!(
            routed.iter().map(|r| r.tier).collect::<Vec<_>>(),
            vec![TIER_PRIMARY, TIER_FALLBACK, TIER_FALLBACK]
        );
        assert_eq!(
            routed.iter().map(|r| r.estimate).collect::<Vec<_>>(),
            vec![100.0, 300.0, 300.0]
        );
        // log_std always reports the primary's spread, whoever answered.
        assert_eq!(routed[2].log_std, 2.0);

        let empty_fallback = TieredEstimator::new(
            Arc::new(ScriptedPrimary { estimate: 100.0, signals }),
            Arc::new(Flat(0.25)),
        );
        let estimates = empty_fallback.estimate_all(&queries(3));
        assert_eq!(estimates, vec![100.0, 1.0, 1.0]);
    }

    #[test]
    fn uncertainty_view_matches_routing() {
        let est = tiered(vec![(0.2, false), (1.5, false), (0.3, true)]);
        let qs = queries(3);
        let routed = est.estimate_routed(&qs);
        let uncertain = est.estimate_with_uncertainty(&qs);
        for (r, u) in routed.iter().zip(&uncertain) {
            // Same answers through both entry points...
            assert_eq!(r.estimate, u.estimate);
            assert_eq!(r.log_std, u.log_std);
        }
        // ...and the primary's saturation flag survives rerouting.
        assert!(uncertain[2].saturated);
        assert_eq!(est.estimate_all(&qs), vec![100.0, 100.0, 300.0]);
        // The default single-query entry point routes too (its own
        // 1-query batch, hence a 1-signal fixture).
        let solo = tiered(vec![(0.3, true)]);
        assert_eq!(solo.estimate(&qs[0]), 300.0);
    }
}
