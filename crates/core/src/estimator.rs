//! The unified [`Estimator`] trait — one object-safe seam for every
//! estimator kind.
//!
//! A registry holding `Arc<dyn Estimator>` needs *one* entry point that
//! names the estimator, answers point queries, answers batches,
//! qualifies its own trust, and says which component of a composite
//! pipeline produced each answer. [`Estimator`] is that one seam: the
//! batched uncertainty channel is the required method, and the
//! point/batch/routed entry points are default methods derived from it,
//! so a new estimator implements exactly two functions (`name` and
//! `estimate_with_uncertainty`) and gets the whole surface.
//!
//! The trait is object-safe — no generic methods — so
//! `Arc<dyn Estimator + Send + Sync>` is the currency of the serving
//! registry and `&dyn Estimator` the currency of the evaluation harness.

use lc_query::LabeledQuery;

use crate::ensemble::{DeepEnsemble, UncertainEstimate};
use crate::train::MscnEstimator;

/// An estimate attributed to the pipeline component that produced it.
///
/// Monolithic estimators answer everything themselves (tier 0); routed
/// pipelines (e.g. `lc_serve`'s `TieredEstimator`) override
/// [`Estimator::estimate_routed`] to report which tier answered and the
/// trust signal that drove the decision.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RoutedEstimate {
    /// Estimated cardinality (rows, ≥ 1).
    pub estimate: f64,
    /// Identifier of the component that answered (0 = the estimator
    /// itself / the primary tier).
    pub tier: u8,
    /// The primary model's log-standard-deviation trust signal for this
    /// query (0 for estimators with no uncertainty channel).
    pub log_std: f64,
}

/// A cardinality estimator: named, batched, uncertainty-aware, and
/// routable — the single estimation entry point of the workspace.
///
/// # Contract
///
/// * Estimates are final row counts, clamped to ≥ 1 (q-error is
///   undefined at 0).
/// * Implementations must **not** read [`LabeledQuery::cardinality`] —
///   at serving time it is 0 (see `lc_query::annotate_query`); the
///   label exists for training and evaluation only.
/// * The default `estimate` / `estimate_all` / `estimate_routed`
///   methods all derive from [`Estimator::estimate_with_uncertainty`];
///   overrides may change *how* the numbers are computed (e.g. a
///   vectorized batch path) but never *what* they are.
pub trait Estimator {
    /// Short human-readable name (used in reports and dashboards).
    fn name(&self) -> &str;

    /// Batched estimates, each carrying its trust metadata. This is the
    /// one required estimation method; estimators with no real
    /// uncertainty signal report zero spread and no saturation.
    fn estimate_with_uncertainty(&self, queries: &[LabeledQuery]) -> Vec<UncertainEstimate>;

    /// Point estimate for one query (default: batch of one).
    fn estimate(&self, query: &LabeledQuery) -> f64 {
        self.estimate_with_uncertainty(std::slice::from_ref(query))[0].estimate
    }

    /// Batched point estimates (default: drop the uncertainty).
    fn estimate_all(&self, queries: &[LabeledQuery]) -> Vec<f64> {
        self.estimate_with_uncertainty(queries).into_iter().map(|u| u.estimate).collect()
    }

    /// Batched estimates attributed to the pipeline component that
    /// produced them. Monolithic estimators answer everything as tier 0;
    /// composite pipelines override this to expose their routing.
    fn estimate_routed(&self, queries: &[LabeledQuery]) -> Vec<RoutedEstimate> {
        self.estimate_with_uncertainty(queries)
            .into_iter()
            .map(|u| RoutedEstimate { estimate: u.estimate, tier: 0, log_std: u.log_std })
            .collect()
    }

    /// Resident parameter bytes of the served model — what the registry
    /// and dashboard report as the memory footprint. `0` means the
    /// implementation does not track it.
    fn model_bytes(&self) -> usize {
        0
    }

    /// Whether the served parameters are quantized (int8) rather than
    /// full-precision f32.
    fn is_quantized(&self) -> bool {
        false
    }
}

impl Estimator for MscnEstimator {
    fn name(&self) -> &str {
        self.featurizer().mode().name()
    }

    /// A single model has no ensemble spread (`log_std` 0), but it *can*
    /// report saturation: a normalized prediction pinned at the sigmoid
    /// boundary means the query's cardinality sits at or beyond the edge
    /// of the trained range (§4.4's label-norm clamp), where the point
    /// estimate is an extrapolation. One forward pass produces both the
    /// estimate and the flag.
    fn estimate_with_uncertainty(&self, queries: &[LabeledQuery]) -> Vec<UncertainEstimate> {
        let norms = self.estimate_normalized(queries);
        let label = self.featurizer().label_norm();
        norms
            .into_iter()
            .map(|norm| UncertainEstimate {
                estimate: label.denormalize(norm).max(1.0),
                log_std: 0.0,
                saturated: !(0.02..=0.98).contains(&norm),
            })
            .collect()
    }

    fn estimate(&self, query: &LabeledQuery) -> f64 {
        self.estimate_cards(std::slice::from_ref(query))[0]
    }

    /// Vectorized override of the uncertainty-derived default: the whole
    /// slice is featurized and pushed through arena-backed `RaggedBatch`
    /// forward passes (one per fixed-size block, fanned out across
    /// worker threads for large batches). Because every matrix row is
    /// reduced in the same order regardless of batch composition or
    /// thread count, the results are bitwise identical to the sequential
    /// path — `lc_serve`'s micro-batcher relies on this to coalesce
    /// concurrent requests without changing any answer.
    fn estimate_all(&self, queries: &[LabeledQuery]) -> Vec<f64> {
        self.estimate_cards(queries)
    }

    fn model_bytes(&self) -> usize {
        self.model().num_params() * 4
    }
}

impl Estimator for DeepEnsemble {
    fn name(&self) -> &str {
        "MSCN ensemble"
    }

    fn estimate_with_uncertainty(&self, queries: &[LabeledQuery]) -> Vec<UncertainEstimate> {
        DeepEnsemble::estimate_with_uncertainty(self, queries)
    }

    fn model_bytes(&self) -> usize {
        self.members().iter().map(|m| m.model().num_params() * 4).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lc_engine::SampleSet;
    use lc_imdb::{generate, ImdbConfig};
    use lc_query::workloads;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    use crate::train::{train, TrainConfig};

    #[test]
    fn trait_point_estimates_match_uncertainty_channel() {
        let db = generate(&ImdbConfig::tiny());
        let mut rng = SmallRng::seed_from_u64(31);
        let samples = SampleSet::draw(&db, 24, &mut rng);
        let data = workloads::synthetic(&db, &samples, 300, 2, 32).queries;
        let cfg = TrainConfig { epochs: 3, hidden: 16, batch_size: 64, ..TrainConfig::default() };
        let single = train(&db, 24, &data, cfg).estimator;
        let (ensemble, _) = DeepEnsemble::train(&db, 24, &data, cfg, 2);

        let estimators: Vec<&dyn Estimator> = vec![&single, &ensemble];
        for est in estimators {
            let points = est.estimate_all(&data[..8]);
            let uncertain = est.estimate_with_uncertainty(&data[..8]);
            assert_eq!(points.len(), uncertain.len());
            for (i, (p, u)) in points.iter().zip(&uncertain).enumerate() {
                assert!(
                    (p - u.estimate).abs() <= 1e-9 * p.max(1.0),
                    "{}: point {p} != uncertain {}",
                    est.name(),
                    u.estimate
                );
                assert!(u.log_std >= 0.0);
                // The per-query default agrees with the batch path.
                let single_est = est.estimate(&data[i]);
                assert!((single_est - p).abs() <= 1e-9 * p.max(1.0));
            }
        }
    }

    #[test]
    fn single_model_reports_saturation_not_spread() {
        let db = generate(&ImdbConfig::tiny());
        let mut rng = SmallRng::seed_from_u64(33);
        let samples = SampleSet::draw(&db, 24, &mut rng);
        let data = workloads::synthetic(&db, &samples, 300, 2, 34).queries;
        let cfg = TrainConfig { epochs: 3, hidden: 16, batch_size: 64, ..TrainConfig::default() };
        let single = train(&db, 24, &data, cfg).estimator;
        let norms = single.estimate_normalized(&data[..16]);
        let uncertain = single.estimate_with_uncertainty(&data[..16]);
        for (n, u) in norms.iter().zip(&uncertain) {
            assert_eq!(u.log_std, 0.0);
            assert_eq!(u.saturated, !(0.02..=0.98).contains(n));
        }
    }

    /// Monolithic estimators route everything to tier 0 with the
    /// uncertainty channel's log-std — the default every non-composite
    /// implementor inherits.
    #[test]
    fn default_routing_is_tier_zero_with_matching_estimates() {
        let db = generate(&ImdbConfig::tiny());
        let mut rng = SmallRng::seed_from_u64(35);
        let samples = SampleSet::draw(&db, 24, &mut rng);
        let data = workloads::synthetic(&db, &samples, 200, 2, 36).queries;
        let cfg = TrainConfig { epochs: 2, hidden: 16, batch_size: 64, ..TrainConfig::default() };
        let (ensemble, _) = DeepEnsemble::train(&db, 24, &data, cfg, 2);
        let est: &dyn Estimator = &ensemble;
        let routed = est.estimate_routed(&data[..8]);
        let uncertain = est.estimate_with_uncertainty(&data[..8]);
        for (r, u) in routed.iter().zip(&uncertain) {
            assert_eq!(r.tier, 0);
            assert_eq!(r.estimate, u.estimate);
            assert_eq!(r.log_std, u.log_std);
        }
    }
}
