//! The q-error metric [Moerkotte et al., PVLDB 2009] and percentile
//! summaries, exactly as the paper reports them.

use lc_core::{Estimator, RoutedEstimate};
use lc_query::LabeledQuery;

/// The q-error: the factor between estimate and truth, `≥ 1`.
/// Estimates below one row are clamped to one row first (every estimator
/// in this repo already guarantees ≥ 1, as PostgreSQL does).
pub fn qerror(estimate: f64, truth: f64) -> f64 {
    let e = estimate.max(1.0);
    let t = truth.max(1.0);
    (e / t).max(t / e)
}

/// Signed estimation factor for the paper's box plots (Figs. 3–5):
/// positive `est/true` for overestimates, negative `true/est` for
/// underestimates (both ≥ 1 in magnitude; an exact estimate is +1).
pub fn signed_error(estimate: f64, truth: f64) -> f64 {
    let e = estimate.max(1.0);
    let t = truth.max(1.0);
    if e >= t {
        e / t
    } else {
        -(t / e)
    }
}

/// Linearly interpolated percentile (`p ∈ [0,100]`) of an unsorted sample,
/// matching the convention of numpy/R used in the paper's plots.
///
/// # Panics
/// If `values` is empty or `p` is out of range.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of empty sample");
    assert!((0.0..=100.0).contains(&p), "percentile out of range");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let w = rank - lo as f64;
        sorted[lo] * (1.0 - w) + sorted[hi] * w
    }
}

/// The summary row used by Tables 2, 3 and 4: median, 90th, 95th, 99th,
/// max, and mean q-error.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QErrorStats {
    /// 50th percentile.
    pub median: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Maximum.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
}

impl QErrorStats {
    /// Summarize a set of q-errors.
    ///
    /// # Panics
    /// If `qerrors` is empty.
    pub fn from_qerrors(qerrors: &[f64]) -> Self {
        QErrorStats {
            median: percentile(qerrors, 50.0),
            p90: percentile(qerrors, 90.0),
            p95: percentile(qerrors, 95.0),
            p99: percentile(qerrors, 99.0),
            max: qerrors.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            mean: qerrors.iter().sum::<f64>() / qerrors.len() as f64,
        }
    }
}

/// Run an estimator over a workload and return per-query q-errors.
pub fn evaluate(estimator: &dyn Estimator, queries: &[LabeledQuery]) -> Vec<f64> {
    estimator
        .estimate_all(queries)
        .into_iter()
        .zip(queries)
        .map(|(e, q)| qerror(e, q.cardinality as f64))
        .collect()
}

/// Per-query signed errors (for the box-plot figures).
pub fn evaluate_signed(estimator: &dyn Estimator, queries: &[LabeledQuery]) -> Vec<f64> {
    estimator
        .estimate_all(queries)
        .into_iter()
        .zip(queries)
        .map(|(e, q)| signed_error(e, q.cardinality as f64))
        .collect()
}

/// Run a (possibly composite) estimator over a workload through its
/// routed channel, pairing each tier-attributed estimate with its
/// q-error. Monolithic estimators attribute everything to tier 0;
/// `lc_serve`'s `TieredEstimator` reports the tier that actually
/// answered.
pub fn evaluate_routed(
    estimator: &dyn Estimator,
    queries: &[LabeledQuery],
) -> Vec<(RoutedEstimate, f64)> {
    estimator
        .estimate_routed(queries)
        .into_iter()
        .zip(queries)
        .map(|(r, q)| (r, qerror(r.estimate, q.cardinality as f64)))
        .collect()
}

/// Q-error summary for one tier of a routed pipeline.
#[derive(Clone, Copy, Debug)]
pub struct TierStats {
    /// The tier id (0 = primary).
    pub tier: u8,
    /// Number of queries this tier answered.
    pub hits: usize,
    /// Q-error percentiles over the queries this tier answered.
    pub stats: QErrorStats,
}

/// Per-tier attribution of a workload's q-errors — measures *routing*
/// quality, not just aggregate accuracy: a healthy pipeline shows the
/// primary tier with low error on the bulk and the fallback tiers
/// absorbing the shapes the primary cannot answer.
#[derive(Clone, Debug)]
pub struct TierBreakdown {
    /// One entry per tier that answered ≥ 1 query, ascending by tier id.
    pub tiers: Vec<TierStats>,
    /// Q-error percentiles over the whole workload.
    pub overall: QErrorStats,
    /// Total queries evaluated.
    pub total: usize,
}

impl TierBreakdown {
    /// Attribute each query's q-error to the tier that answered it.
    ///
    /// # Panics
    /// If `queries` is empty.
    pub fn measure(estimator: &dyn Estimator, queries: &[LabeledQuery]) -> Self {
        let routed = evaluate_routed(estimator, queries);
        let all: Vec<f64> = routed.iter().map(|(_, q)| *q).collect();
        let mut by_tier: Vec<(u8, Vec<f64>)> = Vec::new();
        for (r, q) in &routed {
            match by_tier.iter_mut().find(|(t, _)| *t == r.tier) {
                Some((_, v)) => v.push(*q),
                None => by_tier.push((r.tier, vec![*q])),
            }
        }
        by_tier.sort_by_key(|(t, _)| *t);
        let tiers = by_tier
            .into_iter()
            .map(|(tier, qs)| TierStats {
                tier,
                hits: qs.len(),
                stats: QErrorStats::from_qerrors(&qs),
            })
            .collect();
        TierBreakdown { tiers, overall: QErrorStats::from_qerrors(&all), total: routed.len() }
    }

    /// Fraction of queries answered by `tier` (0 if it never answered).
    pub fn hit_rate(&self, tier: u8) -> f64 {
        self.tiers
            .iter()
            .find(|t| t.tier == tier)
            .map(|t| t.hits as f64 / self.total as f64)
            .unwrap_or(0.0)
    }

    /// Serialize as a JSON object (no external dependencies), suitable
    /// for a checked-in artifact like `TIER_baseline.json`.
    pub fn to_json(&self) -> String {
        fn stats_json(s: &QErrorStats) -> String {
            format!(
                "{{\"median\":{},\"p90\":{},\"p95\":{},\"p99\":{},\"max\":{},\"mean\":{}}}",
                s.median, s.p90, s.p95, s.p99, s.max, s.mean
            )
        }
        let tiers: Vec<String> = self
            .tiers
            .iter()
            .map(|t| {
                format!(
                    "{{\"tier\":{},\"hits\":{},\"hit_rate\":{},\"qerror\":{}}}",
                    t.tier,
                    t.hits,
                    t.hits as f64 / self.total as f64,
                    stats_json(&t.stats)
                )
            })
            .collect();
        format!(
            "{{\"total\":{},\"overall\":{},\"tiers\":[{}]}}",
            self.total,
            stats_json(&self.overall),
            tiers.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lc_core::UncertainEstimate;

    #[test]
    fn qerror_is_symmetric_and_one_for_exact() {
        assert_eq!(qerror(100.0, 100.0), 1.0);
        assert_eq!(qerror(200.0, 100.0), 2.0);
        assert_eq!(qerror(50.0, 100.0), 2.0);
        // Sub-one-row estimates clamp.
        assert_eq!(qerror(0.001, 10.0), 10.0);
    }

    #[test]
    fn signed_error_keeps_direction() {
        assert_eq!(signed_error(100.0, 100.0), 1.0);
        assert_eq!(signed_error(300.0, 100.0), 3.0);
        assert_eq!(signed_error(25.0, 100.0), -4.0);
    }

    #[test]
    fn percentile_interpolates() {
        let v = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(percentile(&v, 50.0), 2.5);
        assert!((percentile(&v, 25.0) - 1.75).abs() < 1e-12);
        // Order independence.
        let shuffled = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&shuffled, 50.0), 2.5);
    }

    #[test]
    fn stats_summary() {
        let q: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let s = QErrorStats::from_qerrors(&q);
        assert_eq!(s.median, 50.5);
        assert!((s.p90 - 90.1).abs() < 1e-9);
        assert_eq!(s.max, 100.0);
        assert_eq!(s.mean, 50.5);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_percentile_panics() {
        percentile(&[], 50.0);
    }

    /// A stub pipeline that alternates tiers deterministically: even
    /// queries answered by tier 0 exactly, odd queries by tier 2 with a
    /// 10× overestimate.
    struct Alternating;

    impl Estimator for Alternating {
        fn name(&self) -> &str {
            "alternating"
        }
        fn estimate_with_uncertainty(&self, qs: &[LabeledQuery]) -> Vec<UncertainEstimate> {
            qs.iter()
                .map(|_| UncertainEstimate { estimate: 10.0, log_std: 0.0, saturated: false })
                .collect()
        }
        fn estimate_routed(&self, qs: &[LabeledQuery]) -> Vec<RoutedEstimate> {
            qs.iter()
                .enumerate()
                .map(|(i, _)| RoutedEstimate {
                    estimate: if i % 2 == 0 { 10.0 } else { 100.0 },
                    tier: if i % 2 == 0 { 0 } else { 2 },
                    log_std: 0.5,
                })
                .collect()
        }
    }

    fn ten_row_queries(n: usize) -> Vec<LabeledQuery> {
        (0..n)
            .map(|_| LabeledQuery {
                query: lc_query::Query::new(vec![], vec![], vec![]),
                cardinality: 10,
                sample_counts: vec![],
                bitmaps: vec![],
                pred_bitmaps: vec![],
            })
            .collect()
    }

    #[test]
    fn tier_breakdown_attributes_qerrors_to_the_answering_tier() {
        let qs = ten_row_queries(6);
        let b = TierBreakdown::measure(&Alternating, &qs);
        assert_eq!(b.total, 6);
        assert_eq!(b.tiers.len(), 2);
        assert_eq!((b.tiers[0].tier, b.tiers[0].hits), (0, 3));
        assert_eq!((b.tiers[1].tier, b.tiers[1].hits), (2, 3));
        // Tier 0 answered exactly; tier 2 overestimated by 10×.
        assert_eq!(b.tiers[0].stats.median, 1.0);
        assert_eq!(b.tiers[1].stats.median, 10.0);
        assert_eq!(b.hit_rate(0), 0.5);
        assert_eq!(b.hit_rate(2), 0.5);
        assert_eq!(b.hit_rate(1), 0.0);
        assert_eq!(b.overall.max, 10.0);
        let json = b.to_json();
        assert!(json.contains("\"tier\":2"), "{json}");
        assert!(json.contains("\"hit_rate\":0.5"), "{json}");
        assert!(json.contains("\"total\":6"), "{json}");
    }
}
