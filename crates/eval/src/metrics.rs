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

/// Area under the ROC curve of `scores` as a detector of `positives`: the
/// probability that a random positive scores above a random negative, a
/// tie counting half (the Mann–Whitney statistic over midranks). 1.0 is a
/// perfect ranking, 0.5 chance, 0.0 a reversed one; NaN when either class
/// is empty.
///
/// # Panics
/// If the slices differ in length.
pub fn auroc(scores: &[f64], positives: &[bool]) -> f64 {
    assert_eq!(scores.len(), positives.len(), "one label per score");
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&a, &b| scores[a].total_cmp(&scores[b]));
    let (mut below, mut rank_sum) = (0.0, 0.0);
    for tie in order.chunk_by(|&a, &b| scores[a] == scores[b]) {
        let midrank = below + (tie.len() as f64 + 1.0) / 2.0;
        rank_sum += midrank * tie.iter().filter(|&&i| positives[i]).count() as f64;
        below += tie.len() as f64;
    }
    let pos = positives.iter().filter(|&&p| p).count() as f64;
    let neg = scores.len() as f64 - pos;
    (rank_sum - pos * (pos + 1.0) / 2.0) / (pos * neg)
}

/// The positions a trust signal keeps at `percent`% coverage: exactly
/// ⌊percent·n/100⌋ of them, lowest score (most trusted) first. Equal
/// scores are ordered by a fixed hash of the position (SplitMix64's
/// finalizer), so a signal with few distinct values inherits no
/// order from its workload (the `scale` workload is sorted by join
/// count).
pub fn covered(scores: &[f64], percent: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&a, &b| scores[a].total_cmp(&scores[b]).then(tie_key(a).cmp(&tie_key(b))));
    order.truncate(scores.len() * percent / 100);
    order
}

/// The tie-break order of [`covered`]: a bijection, so no two positions
/// tie.
fn tie_key(position: usize) -> u64 {
    let mut z = (position as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
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

    #[test]
    fn auroc_of_perfect_reversed_and_tied_rankings() {
        let positives = [false, false, true, true];
        assert_eq!(auroc(&[0.1, 0.2, 0.8, 0.9], &positives), 1.0);
        assert_eq!(auroc(&[0.9, 0.8, 0.2, 0.1], &positives), 0.0);
        assert_eq!(auroc(&[3.0; 4], &positives), 0.5);
        // Join-count-like scores: of the 2 × 2 positive/negative pairs,
        // (2 > 1), (2 > 0) and (1 > 0) win and (1 = 1) counts half.
        assert_eq!(auroc(&[0.0, 1.0, 1.0, 2.0], &positives), 3.5 / 4.0);
        assert!(auroc(&[1.0, 2.0], &[false, false]).is_nan());
    }

    #[test]
    fn coverage_keeps_the_floor_of_its_share_lowest_score_first() {
        let scores = [5.0, 0.0, 4.0, 1.0, 3.0, 2.0, 6.0];
        // ⌊0.6 · 7⌋ = 4 and ⌊0.8 · 7⌋ = 5; ⌊0.1 · 7⌋ = 0.
        assert_eq!(covered(&scores, 60), vec![1, 3, 5, 4]);
        assert_eq!(covered(&scores, 80), vec![1, 3, 5, 4, 2]);
        assert_eq!(covered(&scores, 10), Vec::<usize>::new());
        assert_eq!(covered(&scores, 100).len(), 7);
        // Ties follow `tie_key`, not the position: among ten equal scores
        // the kept half is the five smallest keys.
        let mut by_key: Vec<usize> = (0..10).collect();
        by_key.sort_by_key(|&i| tie_key(i));
        assert_eq!(covered(&[1.0; 10], 50), by_key[..5].to_vec());
        assert_ne!(by_key[..5], [0, 1, 2, 3, 4]);
        // A tie below the cut is ordered the same way and never
        // outranks a lower score.
        let kept = covered(&[2.0, 1.0, 1.0, 0.0], 75);
        assert_eq!(kept[0], 3);
        let (a, b) = (kept[1], kept[2]);
        assert!(tie_key(a) < tie_key(b) && [a, b].contains(&1) && [a, b].contains(&2));
    }
}
