//! Columnar storage: a column is a dense `Vec<i64>` with an optional validity
//! mask. All IMDb attributes the paper filters on are integers (ids, years,
//! type codes), so a single physical type keeps the engine simple without
//! giving up any of the paper's query space.
//!
//! The validity mask is packed into `u64` words — bit `i % 64` of word
//! `i / 64` is row `i` — the same shape as a [`crate::Bitmap`], so that
//! [`Column::and_matching`], the engine's one predicate evaluator, folds 64
//! compares into a word and ANDs it with the validity word (NULL never
//! matches) without a branch per row. Base tables and the materialized
//! samples are both stored as `Column`s and both scanned by it.

use crate::fx::FxHashSet;
use crate::predicate::CmpOp;

/// A single column of `i64` values with optional NULLs.
#[derive(Clone, Debug, Default)]
pub struct Column {
    data: Vec<i64>,
    /// `None` means all rows are valid. Otherwise one bit per row, packed
    /// into `len.div_ceil(64)` words; a clear bit marks the row as NULL (its
    /// `data` slot is 0 and must not be read). Bits at and beyond `len` are
    /// clear.
    validity: Option<Vec<u64>>,
}

impl Column {
    /// A column where every row is valid.
    pub fn from_values(data: Vec<i64>) -> Self {
        Column { data, validity: None }
    }

    /// A column built from optional values; `None` becomes NULL.
    pub fn from_nullable(values: Vec<Option<i64>>) -> Self {
        let mut data = Vec::with_capacity(values.len());
        let mut validity = Vec::with_capacity(values.len().div_ceil(64));
        let mut any_null = false;
        for v in values {
            let row = data.len();
            if row % 64 == 0 {
                validity.push(0);
            }
            match v {
                Some(_) => validity[row / 64] |= 1u64 << (row % 64),
                None => any_null = true,
            }
            data.push(v.unwrap_or(0));
        }
        Column { data, validity: any_null.then_some(validity) }
    }

    /// Number of rows (including NULLs).
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the column has no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Whether row `row` holds a non-NULL value.
    #[inline]
    pub fn is_valid(&self, row: usize) -> bool {
        match &self.validity {
            None => true,
            Some(words) => words[row / 64] >> (row % 64) & 1 == 1,
        }
    }

    /// The value at `row`, or `None` if NULL.
    #[inline]
    pub fn value(&self, row: usize) -> Option<i64> {
        if self.is_valid(row) {
            Some(self.data[row])
        } else {
            None
        }
    }

    /// The raw value slot at `row`. Only meaningful when `is_valid(row)`;
    /// NULL slots read as 0.
    #[inline]
    pub fn raw(&self, row: usize) -> i64 {
        self.data[row]
    }

    /// The raw value buffer. NULL slots read as 0; consult
    /// [`Column::is_valid`] before interpreting them.
    #[inline]
    pub fn raw_slice(&self) -> &[i64] {
        &self.data
    }

    /// The validity mask, if any row is NULL: one bit per row, packed into
    /// `len().div_ceil(64)` words (bit `i % 64` of word `i / 64` is row `i`).
    #[inline]
    pub fn validity(&self) -> Option<&[u64]> {
        self.validity.as_deref()
    }

    /// AND the rows matching `op literal` into `words`, a bitmap over this
    /// column's rows: afterwards bit `i` is set iff it was set before, row
    /// `i` is non-NULL and `value(i) op literal` holds. Bits of the last
    /// covered word beyond [`Column::len`] are cleared; words beyond it are
    /// left alone.
    ///
    /// This is the engine's one predicate evaluator: the operator is
    /// matched once, outside the scan, and 64 compares fold into a word
    /// with no branch per row.
    ///
    /// # Panics
    /// If `words` has fewer than `len().div_ceil(64)` words.
    pub fn and_matching(&self, op: CmpOp, literal: i64, words: &mut [u64]) {
        #[inline(always)]
        fn scan(col: &Column, words: &mut [u64], matches: impl Fn(i64) -> bool) {
            #[inline(always)]
            fn fold(chunk: &[i64], matches: impl Fn(i64) -> bool) -> u64 {
                let mut bits = 0u64;
                for (i, &v) in chunk.iter().enumerate() {
                    bits |= u64::from(matches(v)) << i;
                }
                bits
            }
            let valid = col.validity.as_deref();
            for (w, (chunk, word)) in col.data.chunks(64).zip(words).enumerate() {
                // A whole word has a constant trip count, which is what
                // lets the compiler unroll and vectorize the fold.
                let bits = match <&[i64; 64]>::try_from(chunk) {
                    Ok(whole) => fold(whole, &matches),
                    Err(_) => fold(chunk, &matches),
                };
                *word &= bits & valid.map_or(!0, |v| v[w]);
            }
        }
        assert!(words.len() >= self.len().div_ceil(64), "bitmap shorter than the column");
        match op {
            CmpOp::Eq => scan(self, words, |v| v == literal),
            CmpOp::Lt => scan(self, words, |v| v < literal),
            CmpOp::Gt => scan(self, words, |v| v > literal),
        }
    }

    /// Iterator over non-NULL `(row, value)` pairs.
    pub fn iter_valid(&self) -> impl Iterator<Item = (usize, i64)> + '_ {
        self.data.iter().enumerate().filter(|(i, _)| self.is_valid(*i)).map(|(i, v)| (i, *v))
    }

    /// Exact statistics for this column (one full scan plus a hash set for
    /// the distinct count — fine at the dataset scales this engine targets).
    pub fn stats(&self) -> ColumnStats {
        let mut min = i64::MAX;
        let mut max = i64::MIN;
        let mut distinct: FxHashSet<i64> = FxHashSet::default();
        let mut null_count = 0u64;
        for row in 0..self.len() {
            match self.value(row) {
                Some(v) => {
                    min = min.min(v);
                    max = max.max(v);
                    distinct.insert(v);
                }
                None => null_count += 1,
            }
        }
        let ndv = distinct.len() as u64;
        if ndv == 0 {
            min = 0;
            max = 0;
        }
        ColumnStats { min, max, ndv, null_count, row_count: self.len() as u64 }
    }
}

/// Exact per-column statistics: the minimal information the featurizer
/// (value normalization, §3.1) and the PostgreSQL-style baseline need.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ColumnStats {
    /// Minimum non-NULL value (0 if the column is all-NULL or empty).
    pub min: i64,
    /// Maximum non-NULL value (0 if the column is all-NULL or empty).
    pub max: i64,
    /// Number of distinct non-NULL values.
    pub ndv: u64,
    /// Number of NULL rows.
    pub null_count: u64,
    /// Total number of rows.
    pub row_count: u64,
}

impl ColumnStats {
    /// Fraction of rows that are NULL.
    pub fn null_frac(&self) -> f64 {
        if self.row_count == 0 {
            0.0
        } else {
            self.null_count as f64 / self.row_count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nullable_roundtrip() {
        let c = Column::from_nullable(vec![Some(3), None, Some(-1), None, Some(3)]);
        assert_eq!(c.len(), 5);
        assert_eq!(c.value(0), Some(3));
        assert_eq!(c.value(1), None);
        assert_eq!(c.value(2), Some(-1));
        assert!(!c.is_valid(3));
        let valid: Vec<_> = c.iter_valid().collect();
        assert_eq!(valid, vec![(0, 3), (2, -1), (4, 3)]);
    }

    #[test]
    fn all_valid_has_no_mask() {
        let c = Column::from_nullable(vec![Some(1), Some(2)]);
        assert!(c.validity().is_none());
    }

    #[test]
    fn validity_is_word_packed() {
        // 130 rows: three words, the last one partial.
        for null_at in [0usize, 63, 64, 129] {
            let c = Column::from_nullable((0..130).map(|i| (i != null_at).then_some(7)).collect());
            let words = c.validity().expect("one NULL");
            assert_eq!(words.len(), 3);
            let mut expected = [!0u64, !0, 0b11];
            expected[null_at / 64] &= !(1u64 << (null_at % 64));
            assert_eq!(words, expected, "NULL at {null_at}");
            assert_eq!(c.value(null_at), None);
            assert_eq!(c.iter_valid().count(), 129);
        }
    }

    #[test]
    fn and_matching_scans_whole_words_and_the_tail() {
        // Values 0..130 with a NULL on each side of the word boundaries.
        let nulls = [0usize, 63, 64, 129];
        let c = Column::from_nullable(
            (0..130).map(|i| (!nulls.contains(&i)).then_some(i as i64)).collect(),
        );
        for (op, literal) in
            [(CmpOp::Eq, 65), (CmpOp::Lt, 64), (CmpOp::Gt, 62), (CmpOp::Gt, i64::MAX)]
        {
            let mut words = [!0u64; 4];
            c.and_matching(op, literal, &mut words);
            for row in 0..192 {
                let expected = row < 130 && c.value(row).is_some_and(|v| op.matches(v, literal));
                assert_eq!(
                    words[row / 64] >> (row % 64) & 1 == 1,
                    expected,
                    "{op:?} {literal} row {row}"
                );
            }
            assert_eq!(words[3], !0, "words beyond the column are left alone");
        }
        // AND, not overwrite: rows cleared by the caller stay cleared.
        let mut words = [0b1010u64, 0, 0];
        Column::from_values((0..130).collect()).and_matching(CmpOp::Lt, 3, &mut words);
        assert_eq!(words, [0b0010, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "bitmap shorter than the column")]
    fn and_matching_rejects_a_short_bitmap() {
        Column::from_values((0..65).collect()).and_matching(CmpOp::Eq, 0, &mut [!0u64]);
    }

    #[test]
    fn stats_exact() {
        let c = Column::from_nullable(vec![Some(10), None, Some(-5), Some(10), Some(7)]);
        let s = c.stats();
        assert_eq!(s.min, -5);
        assert_eq!(s.max, 10);
        assert_eq!(s.ndv, 3);
        assert_eq!(s.null_count, 1);
        assert_eq!(s.row_count, 5);
        assert!((s.null_frac() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn stats_empty_and_all_null() {
        let s = Column::from_values(vec![]).stats();
        assert_eq!((s.min, s.max, s.ndv), (0, 0, 0));
        let s = Column::from_nullable(vec![None, None]).stats();
        assert_eq!((s.min, s.max, s.ndv, s.null_count), (0, 0, 0, 2));
    }
}
