//! Uncertainty-routed estimator tiering.
//!
//! A learned estimator is only cheap *and* accurate inside its trained
//! distribution; under workload shift its errors explode silently. The
//! paper's remedy (§5 "Updates") is retraining — slow, minutes behind
//! the shift. [`TieredEstimator`] adds the fast half of the answer:
//! route each query by the primary model's **own trust signal** so the
//! common case keeps MSCN's speed and accuracy while the suspect tail
//! falls back to classical estimators whose formulas cannot be
//! out-of-distribution.
//!
//! Routing policy, per query, from the primary's
//! [`UncertainEstimate`](lc_core::UncertainEstimate):
//!
//! * **trustworthy** (`!saturated && log_std <= max_log_std`) — the
//!   primary answers ([`TIER_PRIMARY`]).
//! * **saturated** — the query's cardinality sits at or beyond the edge
//!   of the trained label range, where *every* learned tier is
//!   extrapolating; skip straight to the sampling fallback
//!   ([`TIER_FALLBACK`]).
//! * **high spread** (disagreeing ensemble members, not saturated) — the
//!   query is inside the trained range but the model family is unsure;
//!   the gradient-boosted-stumps middle tier ([`TIER_GBM`]) answers from
//!   coarse per-query features.
//!
//! A missing tier falls through (saturated → GBM → primary; high-spread
//! → fallback → primary), so a partially configured pipeline degrades
//! gracefully. Non-primary tiers run as sub-batches — one batched call
//! per tier per flush — and their per-call latency lands in the
//! `tier.*.estimate_ns` histograms; hit counters are the batcher's job
//! (it sees cache hits too).

use std::sync::Arc;
use std::time::Instant;

use lc_baselines::{FullJoinSizes, GbmConfig, GbmEstimator, OwnedIbjsEstimator};
use lc_core::{DeepEnsemble, Estimator, MscnEstimator, RoutedEstimate, UncertainEstimate};
use lc_engine::{Database, JoinIndexes, SampleSet};
use lc_obs::metrics;
use lc_query::LabeledQuery;

use crate::config::TierConfig;
use crate::registry::PipelineBuilder;

/// Tier id: the primary learned model (MSCN or a deep ensemble).
pub const TIER_PRIMARY: u8 = 0;
/// Tier id: the gradient-boosted-stumps middle tier.
pub const TIER_GBM: u8 = 1;
/// Tier id: the sampling/classical fallback (IBJS or Postgres-style).
pub const TIER_FALLBACK: u8 = 2;

/// The pipeline `serve --tiered` serves: each published base model and
/// the bootstrap-trained ensemble `members` as a deep-ensemble primary
/// (the base alone when `members` is empty), gradient-boosted stumps
/// trained on `corpus` as the middle tier (none when
/// [`TierConfig::gbm_rounds`] is 0), and index-based join sampling over
/// `db` and `samples` as the fallback. A retrain refreshes the base,
/// member 0; the other members keep providing the disagreement signal.
pub fn tiered_pipeline(
    db: &Database,
    samples: &SampleSet,
    corpus: &[LabeledQuery],
    members: Vec<MscnEstimator>,
    tier: &TierConfig,
) -> PipelineBuilder {
    let gbm = (tier.gbm_rounds > 0).then(|| {
        let config = GbmConfig { rounds: tier.gbm_rounds, ..GbmConfig::default() };
        Arc::new(GbmEstimator::train(db, corpus, config))
    });
    let fallback = Arc::new(OwnedIbjsEstimator::new(
        Arc::new(db.clone()),
        Arc::new(samples.clone()),
        Arc::new(JoinIndexes::build(db)),
        Arc::new(FullJoinSizes::build(db)),
    ));
    let max_log_std = tier.max_log_std;
    Box::new(move |base| {
        let primary: Arc<dyn Estimator + Send + Sync> = if members.is_empty() {
            Arc::new(base.clone())
        } else {
            let ensemble = std::iter::once(base).chain(&members).cloned().collect();
            Arc::new(DeepEnsemble::new(ensemble))
        };
        let mut pipeline =
            TieredEstimator::new(primary, max_log_std).with_fallback(Arc::clone(&fallback) as _);
        if let Some(gbm) = &gbm {
            pipeline = pipeline.with_gbm(Arc::clone(gbm) as _);
        }
        Arc::new(pipeline)
    })
}

/// A composite [`Estimator`] that routes each query across up to three
/// tiers by the primary tier's uncertainty (see the module docs for the
/// policy). [`tiered_pipeline`] builds the one `serve --tiered` installs
/// in the [`ModelRegistry`](crate::ModelRegistry) through
/// [`ModelRegistry::with_pipeline`](crate::ModelRegistry::with_pipeline).
pub struct TieredEstimator {
    primary: Arc<dyn Estimator + Send + Sync>,
    gbm: Option<Arc<dyn Estimator + Send + Sync>>,
    fallback: Option<Arc<dyn Estimator + Send + Sync>>,
    max_log_std: f64,
}

impl TieredEstimator {
    /// A pipeline with only a primary tier: every query is answered by
    /// `primary`, but saturation/spread still show up in the routing
    /// metadata. Add tiers with [`TieredEstimator::with_gbm`] and
    /// [`TieredEstimator::with_fallback`].
    pub fn new(primary: Arc<dyn Estimator + Send + Sync>, max_log_std: f64) -> Self {
        TieredEstimator { primary, gbm: None, fallback: None, max_log_std }
    }

    /// Install the middle tier for high-spread (but in-range) queries.
    pub fn with_gbm(mut self, gbm: Arc<dyn Estimator + Send + Sync>) -> Self {
        self.gbm = Some(gbm);
        self
    }

    /// Install the fallback tier for saturated (out-of-range) queries.
    pub fn with_fallback(mut self, fallback: Arc<dyn Estimator + Send + Sync>) -> Self {
        self.fallback = Some(fallback);
        self
    }

    /// The trust threshold this pipeline routes on.
    pub fn max_log_std(&self) -> f64 {
        self.max_log_std
    }

    /// Which tier answers a query with this trust signal, after
    /// missing-tier fallthrough.
    fn route(&self, u: &UncertainEstimate) -> u8 {
        if u.is_trustworthy(self.max_log_std) {
            TIER_PRIMARY
        } else if u.saturated {
            // Out of trained range: prefer the sampling fallback, whose
            // formulas stay sane out of range; GBM at least saw the raw
            // features, the primary is pure extrapolation.
            if self.fallback.is_some() {
                TIER_FALLBACK
            } else if self.gbm.is_some() {
                TIER_GBM
            } else {
                TIER_PRIMARY
            }
        } else if self.gbm.is_some() {
            TIER_GBM
        } else if self.fallback.is_some() {
            TIER_FALLBACK
        } else {
            TIER_PRIMARY
        }
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
                tier: self.route(u),
                log_std: u.log_std,
            })
            .collect();
        // Re-answer each rerouted subset with one batched call per tier.
        for (tier, est) in [(TIER_GBM, &self.gbm), (TIER_FALLBACK, &self.fallback)] {
            let Some(est) = est else { continue };
            let idx: Vec<usize> = (0..routed.len()).filter(|&i| routed[i].tier == tier).collect();
            if idx.is_empty() {
                continue;
            }
            let sub: Vec<LabeledQuery> = idx.iter().map(|&i| queries[i].clone()).collect();
            let started = lc_obs::enabled().then(Instant::now);
            let answers = est.estimate_all(&sub);
            if let Some(started) = started {
                let hist = if tier == TIER_GBM {
                    &metrics::TIER_GBM_NS
                } else {
                    &metrics::TIER_FALLBACK_NS
                };
                hist.record_duration(started.elapsed());
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
            .field("gbm", &self.gbm.as_ref().map(|e| e.name()))
            .field("fallback", &self.fallback.as_ref().map(|e| e.name()))
            .field("max_log_std", &self.max_log_std)
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

    /// The tiers' resident bytes together: the registry's `model.bytes`
    /// of a tiered pipeline is its learned tiers' footprint, not 0.
    fn model_bytes(&self) -> usize {
        let classical = self.gbm.iter().chain(&self.fallback).map(|t| t.model_bytes());
        self.primary.model_bytes() + classical.sum::<usize>()
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
        TieredEstimator::new(Arc::new(ScriptedPrimary { estimate: 100.0, signals }), 0.75)
            .with_gbm(Arc::new(Flat(200.0)))
            .with_fallback(Arc::new(Flat(300.0)))
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
        let est = TieredEstimator::new(Arc::new(Sized(1000)), 0.75)
            .with_gbm(Arc::new(Sized(20)))
            .with_fallback(Arc::new(Flat(1.0)));
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
        // The threshold is inclusive; the trust signal is passed through.
        assert_eq!(routed[1].log_std, 0.75);
    }

    #[test]
    fn disagreement_routes_to_gbm_and_saturation_to_fallback() {
        let est = tiered(vec![
            (0.2, false), // trustworthy         → primary
            (1.5, false), // high spread         → GBM
            (0.1, true),  // saturated, low std  → fallback (saturation wins)
            (2.0, true),  // saturated           → fallback
        ]);
        let routed = est.estimate_routed(&queries(4));
        assert_eq!(
            routed.iter().map(|r| r.tier).collect::<Vec<_>>(),
            vec![TIER_PRIMARY, TIER_GBM, TIER_FALLBACK, TIER_FALLBACK]
        );
        assert_eq!(
            routed.iter().map(|r| r.estimate).collect::<Vec<_>>(),
            vec![100.0, 200.0, 300.0, 300.0]
        );
        // log_std always reports the primary's spread, whoever answered.
        assert_eq!(routed[1].log_std, 1.5);
        assert_eq!(routed[3].log_std, 2.0);
    }

    #[test]
    fn missing_tiers_fall_through() {
        let signals = vec![(1.5, false), (0.0, true)];
        // No fallback: saturated queries fall through to GBM.
        let no_fallback = TieredEstimator::new(
            Arc::new(ScriptedPrimary { estimate: 100.0, signals: signals.clone() }),
            0.75,
        )
        .with_gbm(Arc::new(Flat(200.0)));
        let routed = no_fallback.estimate_routed(&queries(2));
        assert_eq!(routed.iter().map(|r| r.tier).collect::<Vec<_>>(), vec![TIER_GBM, TIER_GBM]);

        // No GBM: high-spread queries fall through to the fallback.
        let no_gbm = TieredEstimator::new(
            Arc::new(ScriptedPrimary { estimate: 100.0, signals: signals.clone() }),
            0.75,
        )
        .with_fallback(Arc::new(Flat(300.0)));
        let routed = no_gbm.estimate_routed(&queries(2));
        assert_eq!(
            routed.iter().map(|r| r.tier).collect::<Vec<_>>(),
            vec![TIER_FALLBACK, TIER_FALLBACK]
        );

        // Primary only: everything stays tier 0 even when untrusted.
        let solo =
            TieredEstimator::new(Arc::new(ScriptedPrimary { estimate: 100.0, signals }), 0.75);
        let routed = solo.estimate_routed(&queries(2));
        assert!(routed.iter().all(|r| r.tier == TIER_PRIMARY && r.estimate == 100.0));
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
        assert_eq!(est.estimate_all(&qs), vec![100.0, 200.0, 300.0]);
        // The default single-query entry point routes too (its own
        // 1-query batch, hence a 1-signal fixture).
        let solo = tiered(vec![(0.3, true)]);
        assert_eq!(solo.estimate(&qs[0]), 300.0);
    }
}
