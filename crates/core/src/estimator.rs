//! The unified [`Estimator`] trait — one object-safe seam for every
//! estimator kind.
//!
//! A registry holding `Arc<dyn Estimator>` needs *one* entry point that
//! names the estimator and answers batches. [`Estimator`] is that seam:
//! the batched [`Estimator::estimate_all`] is the one required
//! estimation method, and the point entry [`Estimator::estimate`] is a
//! default method over it (a batch of one), so a new estimator
//! implements exactly two functions (`name` and `estimate_all`) and gets
//! the whole surface. `model_bytes` and `is_quantized` are defaults that
//! served models override.
//!
//! The trait is object-safe — no generic methods — so
//! `Arc<dyn Estimator + Send + Sync>` is the currency of the serving
//! registry and `&dyn Estimator` the currency of the evaluation harness.

use lc_query::LabeledQuery;

use crate::train::MscnEstimator;

/// A cardinality estimator: named and batched — the single estimation
/// entry point of the workspace.
///
/// # Contract
///
/// * Estimates are final row counts, clamped to ≥ 1 (q-error is
///   undefined at 0).
/// * Implementations must **not** read [`LabeledQuery::cardinality`] —
///   at serving time it is 0 (see `lc_query::annotate_query`); the
///   label exists for training and evaluation only.
/// * A query's estimate does not depend on the batch it arrives in: the
///   serving batcher coalesces concurrent requests into one
///   `estimate_all` call, and [`Estimator::estimate`] is row 0 of a batch
///   of one.
pub trait Estimator {
    /// Short human-readable name (used in reports and dashboards).
    fn name(&self) -> &str;

    /// Batched estimates, one per query, in order. This is the one
    /// required estimation method.
    fn estimate_all(&self, queries: &[LabeledQuery]) -> Vec<f64>;

    /// Point estimate for one query (default: batch of one).
    fn estimate(&self, query: &LabeledQuery) -> f64 {
        self.estimate_all(std::slice::from_ref(query))[0]
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

    /// The whole slice is featurized and pushed through arena-backed
    /// `RaggedBatch` forward passes (one per fixed-size block, fanned out
    /// across worker threads for large batches). Because every matrix row
    /// is reduced in the same order regardless of batch composition or
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

#[cfg(test)]
mod tests {
    use super::*;
    use lc_engine::SampleSet;
    use lc_imdb::{generate, ImdbConfig};
    use lc_query::workloads;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    use crate::train::{train, TrainConfig};

    /// The trait's point and batch entries agree with the model's own
    /// normalized channel: every `estimate_all` row is the denormalized
    /// network output clamped to ≥ 1, and the point default `estimate(q)`
    /// is that same row.
    #[test]
    fn trait_point_estimates_match_uncertainty_channel() {
        let db = generate(&ImdbConfig::tiny());
        let mut rng = SmallRng::seed_from_u64(31);
        let samples = SampleSet::draw(&db, 24, &mut rng);
        let data = workloads::synthetic(&db, &samples, 300, 2, 32).queries;
        let cfg = TrainConfig { epochs: 3, hidden: 16, batch_size: 64, ..TrainConfig::default() };
        let single = train(&db, 24, &data, cfg).estimator;

        let est: &dyn Estimator = &single;
        let points = est.estimate_all(&data[..8]);
        let norms = single.estimate_normalized(&data[..8]);
        let label = single.featurizer().label_norm();
        assert_eq!(points.len(), norms.len());
        for (i, (p, n)) in points.iter().zip(&norms).enumerate() {
            assert!(*p >= 1.0, "{}: estimate {p} below 1", est.name());
            assert_eq!(
                p.to_bits(),
                label.denormalize(*n).max(1.0).to_bits(),
                "{} row {i}",
                est.name()
            );
            let single_est = est.estimate(&data[i]);
            assert!((single_est - p).abs() <= 1e-9 * p.max(1.0));
        }
    }

    /// Every estimator a serving pipeline publishes — the f32 model and
    /// its int8 mirror — answers `estimate_all` with exactly the bits of
    /// its inherent `estimate_cards` and of the point default `estimate`:
    /// the batcher reads the former, and what a single query is promised
    /// must be what a client receives from a coalesced batch.
    #[test]
    fn estimate_all_is_bitwise_the_uncertainty_estimate() {
        let db = generate(&ImdbConfig::tiny());
        let mut rng = SmallRng::seed_from_u64(35);
        let samples = SampleSet::draw(&db, 24, &mut rng);
        let data = workloads::synthetic(&db, &samples, 200, 2, 36).queries;
        let cfg = TrainConfig { epochs: 2, hidden: 16, batch_size: 64, ..TrainConfig::default() };
        let single = train(&db, 24, &data, cfg).estimator;
        let quantized = crate::quant::QuantizedMscn::quantize(&single);
        let inherent = [single.estimate_cards(&data), quantized.estimate_cards(&data)];
        for (est, cards) in [&single as &dyn Estimator, &quantized].into_iter().zip(&inherent) {
            let points = est.estimate_all(&data);
            assert_eq!(points.len(), cards.len());
            for (i, (p, c)) in points.iter().zip(cards).enumerate() {
                assert_eq!(p.to_bits(), c.to_bits(), "{} row {i}", est.name());
                assert_eq!(p.to_bits(), est.estimate(&data[i]).to_bits(), "{} row {i}", est.name());
            }
        }
    }
}
