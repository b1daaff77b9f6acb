//! Order statistics of rounds and latencies. Interpolation is
//! `lc_eval::metrics::percentile`'s (numpy's), the convention of every
//! q-error table in the repository.

use lc_eval::metrics::percentile;

/// Median and quartiles of a set of rounds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Summary {
    /// # Panics
    /// If `values` is empty.
    pub fn of(values: &[f64]) -> Self {
        Summary {
            n: values.len(),
            q1: percentile(values, 25.0),
            median: percentile(values, 50.0),
            q3: percentile(values, 75.0),
        }
    }

    /// Interquartile range over the median: the benchmark's spread.
    pub fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median
    }
}

/// `percentile(values, p)`, 0 for an empty sample (a metric nothing
/// was measured for reads 0).
pub fn percentile_or_zero(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        percentile(values, p)
    }
}

pub fn median(values: &[f64]) -> f64 {
    percentile_or_zero(values, 50.0)
}

/// The highest percentile not above `wanted` (both in `[0, 100]`) that
/// still has at least ten of `n` samples beyond it; the median when even
/// that has fewer.
pub fn supported_percentile(n: usize, wanted: f64) -> f64 {
    if n == 0 {
        return 50.0;
    }
    let highest = 100.0 * (1.0 - 10.0 / n as f64);
    wanted.min(highest).max(50.0)
}

/// `(value, percentile used)` for the tail of `samples`: `wanted` where
/// ten samples lie beyond it, else the highest percentile that has them.
pub fn tail(samples: &[f64], wanted: f64) -> (f64, f64) {
    let p = supported_percentile(samples.len(), wanted);
    (percentile(samples, p), p)
}

/// By how much `b` is worse than `a`, as a share of `a` (negative when
/// `b` is better).
pub fn worse_by(a: f64, b: f64, higher_is_better: bool) -> f64 {
    if higher_is_better {
        (a - b) / a
    } else {
        (b - a) / a
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_arrays() {
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!(s, Summary { n: 5, q1: 2.0, median: 3.0, q3: 4.0 });
        assert!((s.spread() - 2.0 / 3.0).abs() < 1e-12);
        let even = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!((even.q1, even.median, even.q3), (1.75, 2.5, 3.25));
        assert_eq!(Summary::of(&[7.0]), Summary { n: 1, q1: 7.0, median: 7.0, q3: 7.0 });
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 1000 samples: p99 has exactly ten beyond.
        assert_eq!(supported_percentile(1000, 99.0), 99.0);
        // 512 samples: p99 would have five; the highest supported is
        // 100·(1 − 10/512).
        let p = supported_percentile(512, 99.0);
        assert!((p - 98.046875).abs() < 1e-9);
        assert_eq!(supported_percentile(8192, 90.0), 90.0);
        // Too few samples for any tail: the median.
        assert_eq!(supported_percentile(12, 99.0), 50.0);
        assert_eq!(supported_percentile(0, 99.0), 50.0);

        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        let (v, used) = tail(&samples, 99.0);
        assert_eq!(used, 99.0);
        assert!((v - 990.01).abs() < 1e-9);
        let few: Vec<f64> = (1..=100).map(f64::from).collect();
        let (v, used) = tail(&few, 99.0);
        assert_eq!(used, 90.0);
        assert!((v - 90.1).abs() < 1e-9);
    }

    #[test]
    fn worse_by_respects_direction() {
        assert!((worse_by(100.0, 90.0, true) - 0.1).abs() < 1e-12);
        assert!((worse_by(100.0, 110.0, true) + 0.1).abs() < 1e-12);
        assert!((worse_by(10.0, 11.0, false) - 0.1).abs() < 1e-12);
    }
}
