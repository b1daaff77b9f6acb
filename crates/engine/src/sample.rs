//! Materialized base-table samples and qualifying-sample bitmaps (§3.4).
//!
//! For each table the engine keeps a uniform random sample of up to
//! `sample_size` rows, drawn once on the immutable snapshot. Evaluating a
//! query's base-table predicates on the sample yields (a) the number of
//! qualifying sample tuples and (b) a [`Bitmap`] of their positions — the two
//! sampling features the paper feeds into MSCN, and the raw material of the
//! Random Sampling / IBJS baselines.
//!
//! # Layout
//!
//! The sample is *materialized*, as in the paper and in Deep Sketches
//! (which ships the samples inside the sketch so that estimating never
//! touches the database): [`SampleSet::draw`] copies the sampled rows out
//! of the base tables into a [`Table`] of its own, in sample-position
//! order — the same [`Column`] layout as the base tables (dense `Vec<i64>`,
//! NULL slots hold 0, validity packed into `u64` words) — plus, per table,
//! one `present` mask of the positions that hold a sampled row at all: a
//! table smaller than `sample_size` is fully sampled and its tail positions
//! stay absent. Probing a predicate is therefore the same branch-free scan
//! that labels queries on the base tables, [`Column::and_matching`], started
//! from the `present` mask. A conjunction is the AND of its predicates'
//! bitmaps; nothing on this path reads the [`Database`].
//!
//! Memory: 8 B × sampled rows × columns per table, plus one bit per value
//! of a column with NULLs — about 8 KB for the IMDb-like schema (16
//! columns) at 64 samples, about 130 KB at the paper's 1,000.

use rand::seq::index::sample as index_sample;
use rand::Rng;

use crate::column::Column;
use crate::database::{Database, Table};
use crate::predicate::Predicate;
use crate::schema::TableId;

/// A fixed-length bitmap over sample positions or row ids.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// All-zero bitmap of length `len`.
    pub fn new(len: usize) -> Self {
        Bitmap { words: vec![0; len.div_ceil(64)], len }
    }

    /// All-one bitmap of length `len` (bits beyond `len` stay clear).
    pub fn ones(len: usize) -> Self {
        let mut words = vec![!0u64; len.div_ceil(64)];
        if len % 64 != 0 {
            *words.last_mut().expect("len > 0") = (1u64 << (len % 64)) - 1;
        }
        Bitmap { words, len }
    }

    /// The packed words, 64 positions each.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// The packed words, for [`Column::and_matching`] to AND into.
    pub(crate) fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// Number of positions.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the bitmap has zero length.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Set position `i`.
    #[inline]
    pub fn set(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Whether position `i` is set.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Number of set positions.
    pub fn count_ones(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// True if no position is set (a "0-tuple situation" for this table).
    pub fn all_zero(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Iterate over set positions in ascending order.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let tz = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(wi * 64 + tz)
            })
        })
    }
}

/// Intersection in place: keep the positions set in both bitmaps.
impl std::ops::BitAndAssign<&Bitmap> for Bitmap {
    fn bitand_assign(&mut self, rhs: &Bitmap) {
        assert_eq!(self.len, rhs.len, "bitmap length mismatch");
        for (w, r) in self.words.iter_mut().zip(&rhs.words) {
            *w &= r;
        }
    }
}

/// The materialized sample of one table: the sampled row ids and a copy of
/// those rows (see the module docs for the layout).
#[derive(Clone, Debug)]
pub struct TableSample {
    /// Row ids included in the sample (ascending order); sample position
    /// `i` holds base row `row_ids[i]`.
    pub row_ids: Vec<u32>,
    /// Row `i` is base row `row_ids[i]`.
    rows: Table,
    /// Positions that hold a sampled row, as a `sample_size`-long bitmap.
    present: Bitmap,
}

impl TableSample {
    /// Copy rows `row_ids` of `data` out in position order.
    fn materialize(data: &Table, row_ids: Vec<u32>, sample_size: usize) -> Self {
        let columns = (0..data.num_columns())
            .map(|c| {
                let col = data.column(c);
                Column::from_nullable(row_ids.iter().map(|&row| col.value(row as usize)).collect())
            })
            .collect();
        let mut present = Bitmap::new(sample_size);
        for pos in 0..row_ids.len() {
            present.set(pos);
        }
        TableSample { row_ids, rows: Table::new(columns), present }
    }
}

/// Materialized samples for every table of a database.
#[derive(Clone, Debug)]
pub struct SampleSet {
    /// Fixed at [`SampleSet::draw`]: every mask and bitmap is sized by it.
    sample_size: usize,
    per_table: Vec<TableSample>,
}

impl SampleSet {
    /// Draw a uniform sample of up to `sample_size` rows per table and
    /// materialize it column-major.
    pub fn draw<R: Rng>(db: &Database, sample_size: usize, rng: &mut R) -> Self {
        let per_table = (0..db.schema().num_tables())
            .map(|ti| {
                let data = db.table(TableId(ti as u16));
                let n = data.num_rows();
                let take = sample_size.min(n);
                let mut row_ids: Vec<u32> =
                    index_sample(rng, n, take).into_iter().map(|i| i as u32).collect();
                row_ids.sort_unstable();
                TableSample::materialize(data, row_ids, sample_size)
            })
            .collect();
        SampleSet { sample_size, per_table }
    }

    /// Nominal sample size; tables smaller than this are fully sampled.
    /// Every bitmap this set produces has exactly this length, so the
    /// featurization width is constant.
    #[inline]
    pub fn sample_size(&self) -> usize {
        self.sample_size
    }

    /// The sample of table `t`.
    pub fn table(&self, t: TableId) -> &TableSample {
        &self.per_table[t.index()]
    }

    /// The positions of table `t` that hold a sampled row — the qualifying
    /// bitmap of a table without predicates.
    pub fn present(&self, t: TableId) -> &Bitmap {
        &self.per_table[t.index()].present
    }

    /// Evaluate `p` alone over the materialized sample of its table: the
    /// positions whose row is non-NULL in `p.column` and satisfies `p`.
    /// Positions beyond the actual sample stay zero. A conjunction is the
    /// AND of these bitmaps.
    pub fn predicate_bitmap(&self, p: &Predicate) -> Bitmap {
        let sample = &self.per_table[p.table.index()];
        let mut bm = sample.present.clone();
        sample.rows.column(p.column).and_matching(p.op, p.value, bm.words_mut());
        bm
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::{row_matches_all, CmpOp};
    use crate::schema::{ColumnDef, JoinEdge, Schema, TableDef};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn bitmap_basics() {
        let mut b = Bitmap::new(130);
        assert_eq!(b.len(), 130);
        assert!(b.all_zero());
        for i in [0, 63, 64, 129] {
            b.set(i);
        }
        assert_eq!(b.count_ones(), 4);
        assert!(b.get(63) && b.get(64) && !b.get(65));
        assert_eq!(b.iter_ones().collect::<Vec<_>>(), vec![0, 63, 64, 129]);
        let mut other = Bitmap::new(130);
        other.set(63);
        other.set(129);
        other.set(7);
        b &= &other;
        assert_eq!(b.iter_ones().collect::<Vec<_>>(), vec![63, 129]);
    }

    fn single_table_db(n: usize) -> Database {
        let title = TableDef {
            name: "title".into(),
            columns: vec![ColumnDef::primary_key("id"), ColumnDef::data("v")],
        };
        let mc = TableDef {
            name: "mc".into(),
            columns: vec![ColumnDef::foreign_key("movie_id", TableId(0))],
        };
        let schema = Schema::new(
            vec![title, mc],
            vec![JoinEdge { fact: TableId(1), fact_col: 0, center: TableId(0), center_col: 0 }],
            TableId(0),
        );
        let t0 = Table::new(vec![
            Column::from_values((0..n as i64).collect()),
            Column::from_values((0..n as i64).map(|i| i % 10).collect()),
        ]);
        let t1 = Table::new(vec![Column::from_values(vec![0; 3])]);
        Database::new(schema, vec![t0, t1])
    }

    #[test]
    fn sample_is_uniform_subset_and_deterministic() {
        let db = single_table_db(1000);
        let mut rng = SmallRng::seed_from_u64(7);
        let s1 = SampleSet::draw(&db, 50, &mut rng);
        let mut rng = SmallRng::seed_from_u64(7);
        let s2 = SampleSet::draw(&db, 50, &mut rng);
        assert_eq!(s1.table(TableId(0)).row_ids, s2.table(TableId(0)).row_ids);
        assert_eq!(s1.table(TableId(0)).row_ids.len(), 50);
        assert!(s1.table(TableId(0)).row_ids.iter().all(|&r| (r as usize) < 1000));
        // Small table: fully sampled.
        assert_eq!(s1.table(TableId(1)).row_ids.len(), 3);
    }

    #[test]
    fn bitmap_matches_qualifying_count_and_selectivity() {
        let db = single_table_db(1000);
        let mut rng = SmallRng::seed_from_u64(3);
        let s = SampleSet::draw(&db, 200, &mut rng);
        // v == 3 selects 10% of rows.
        let p = Predicate { table: TableId(0), column: 1, op: CmpOp::Eq, value: 3 };
        let bm = s.predicate_bitmap(&p);
        assert_eq!(bm.len(), 200);
        let rows = &s.table(TableId(0)).row_ids;
        let cnt = rows
            .iter()
            .filter(|&&row| row_matches_all(db.table(TableId(0)), &[p], row as usize))
            .count() as u32;
        assert_eq!(bm.count_ones(), cnt);
        // Uniform 10% selectivity: expect roughly 20 of 200 qualifying.
        assert!((5..=45).contains(&cnt), "count {cnt} wildly off");
        // Impossible predicate -> all-zero bitmap (0-tuple situation).
        let none = Predicate { table: TableId(0), column: 1, op: CmpOp::Eq, value: 99 };
        assert!(s.predicate_bitmap(&none).all_zero());
        // A table smaller than the sample: three present positions, and a
        // predicate every row passes selects exactly those.
        assert_eq!(s.present(TableId(1)).iter_ones().collect::<Vec<_>>(), vec![0, 1, 2]);
        let all = Predicate { table: TableId(1), column: 0, op: CmpOp::Lt, value: 1 };
        assert_eq!(&s.predicate_bitmap(&all), s.present(TableId(1)));
    }
}
