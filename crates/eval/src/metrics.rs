//! The q-error metric [Moerkotte et al., PVLDB 2009] and percentile
//! summaries, exactly as the paper reports them.

use lc_core::Estimator;
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

#[cfg(test)]
mod tests {
    use super::*;

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
}
