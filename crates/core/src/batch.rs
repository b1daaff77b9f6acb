//! Ragged mini-batches and masked segment-mean pooling.
//!
//! The paper zero-pads every query to the maximum set size in the batch and
//! masks the dummy elements out of the average (§3.2). We store the same
//! information without padding. Per set module, the batch holds:
//!
//! * one CSR [`SparseRows`] stack of feature rows (the rows are ~85%
//!   zeros, so CSR is their only encoding — no dense copy exists
//!   anywhere);
//! * the module's set elements, query after query: for each element, an
//!   index entry naming either the stack row that holds it or a model
//!   constant ([`CONSTANT`]);
//! * per query, an `(offset, len)` segment of those elements.
//!
//! A row is a pure function of its element, and so is the set MLP's
//! output for it. Rows that no query changes — join one-hots, tables
//! whose samples all qualify — are the featurizer's constant rows, whose
//! outputs the model derives once when it is built or loaded; the serving
//! block builder names them and stacks nothing. It stacks every other
//! *distinct* row once and points every repeat at it, so the MLPs run
//! once per distinct non-constant row. Training batches
//! ([`RaggedBatch::assemble_into`]) share rows the same way: the corpus
//! records each row's first bit-identical row once per run
//! ([`CorpusSparse::build`]), and a shard stacks each such row once. They
//! name no constants. Segment-mean pooling reads element rows through the
//! index and computes exactly the paper's masked average — the same
//! values, summed in the same order, whichever rows are shared or
//! constant. Its backward ([`segment_mean_backward_into_rows`]) sums the
//! gradients of each row's elements, so the set MLPs' backward runs once
//! per stacked row too. An empty set yields the zero vector, matching the
//! all-masked behaviour of the reference implementation.

use std::hash::Hasher;
use std::sync::Mutex;

use lc_engine::FxHasher;
use lc_nn::{Matrix, SparseRows};

use crate::featurize::FeaturizedQuery;

/// The tag bit of an element index entry that names a model constant:
/// `CONSTANT | id` is row `id` of the featurizer's `constant_rows` for
/// the module, read from the model's derived outputs instead of the
/// stack. An untagged entry is a stack row.
pub const CONSTANT: u32 = 1 << 31;

/// A mini-batch of featurized queries in ragged layout: per set module,
/// a CSR stack of feature rows, each set element's row (a stack row or a
/// model constant), and one `(offset, len)` element segment per query.
#[derive(Clone, Debug, Default)]
pub struct RaggedBatch {
    /// Table feature rows (each distinct non-constant row once in a
    /// serving block).
    pub tables_sp: SparseRows,
    /// `(offset, len)` into the table elements (`table_index`) per query.
    pub table_segs: Vec<(u32, u32)>,
    /// Per table element, the row of `tables_sp` that holds it, or a
    /// [`CONSTANT`]-tagged table constant.
    pub table_index: Vec<u32>,
    /// Join feature rows (none in a serving block: joins are constants).
    pub joins_sp: SparseRows,
    /// `(offset, len)` into the join elements (`join_index`) per query.
    pub join_segs: Vec<(u32, u32)>,
    /// Per join element, the row of `joins_sp` that holds it, or a
    /// [`CONSTANT`]-tagged join constant.
    pub join_index: Vec<u32>,
    /// Predicate feature rows.
    pub preds_sp: SparseRows,
    /// `(offset, len)` into the predicate elements (`pred_index`) per
    /// query.
    pub pred_segs: Vec<(u32, u32)>,
    /// Per predicate element, the row of `preds_sp` that holds it.
    pub pred_index: Vec<u32>,
    /// Normalized targets, one per query.
    pub targets: Vec<f32>,
    /// The distinct-row lookups (table, join, predicate), kept warm with
    /// the batch. In a serving block join rows are constants, so the join
    /// lookup is reset but never probed.
    pub(crate) lookups: [RowLookup; 3],
    /// Per module, the corpus row each stack row was copied from — how
    /// training assembly confirms a lookup hit (unused by serving
    /// blocks).
    pub(crate) origins: [Vec<u32>; 3],
}

impl RaggedBatch {
    /// Number of queries in the batch.
    pub fn len(&self) -> usize {
        self.table_segs.len()
    }

    /// True if the batch holds no queries.
    pub fn is_empty(&self) -> bool {
        self.table_segs.is_empty()
    }

    /// An empty batch with no buffer capacity — the starting point for
    /// [`crate::Featurizer::featurize_into_sparse_batch`] reuse.
    pub fn empty() -> Self {
        RaggedBatch::default()
    }

    /// Assemble the mini-batch holding queries `idx` (in order) of a
    /// corpus into a fresh batch — [`RaggedBatch::assemble_into`] on an
    /// empty one.
    ///
    /// # Panics
    /// If `table_dim`, `join_dim`, `pred_dim` are not the widths `corpus`
    /// was built with.
    pub fn assemble_indexed(
        feats: &[FeaturizedQuery],
        corpus: &CorpusSparse,
        idx: &[usize],
        table_dim: usize,
        join_dim: usize,
        pred_dim: usize,
    ) -> Self {
        let dims = (corpus.tables.rows.cols(), corpus.joins.rows.cols(), corpus.preds.rows.cols());
        assert_eq!((table_dim, join_dim, pred_dim), dims, "widths differ from the corpus");
        let mut batch = RaggedBatch::default();
        batch.assemble_into(feats, corpus, idx);
        batch
    }

    /// Rebuild this batch in place (buffer capacity carries over) as the
    /// mini-batch holding queries `idx` (in order) of a corpus — the
    /// trainer's per-step assembly. Each distinct row of the batch is
    /// copied out of `corpus` once, in order of first occurrence, and
    /// every element's index entry names its row; targets come from
    /// `feats`. No element names a constant, so the batch can be trained
    /// on.
    pub fn assemble_into(
        &mut self,
        feats: &[FeaturizedQuery],
        corpus: &CorpusSparse,
        idx: &[usize],
    ) {
        let [tl, jl, pl] = &mut self.lookups;
        let [to, jo, po] = &mut self.origins;
        let modules = [
            (
                &corpus.tables,
                &mut self.tables_sp,
                &mut self.table_segs,
                &mut self.table_index,
                tl,
                to,
            ),
            (&corpus.joins, &mut self.joins_sp, &mut self.join_segs, &mut self.join_index, jl, jo),
            (&corpus.preds, &mut self.preds_sp, &mut self.pred_segs, &mut self.pred_index, pl, po),
        ];
        for (set, rows, segs, index, lookup, origins) in modules {
            rows.clear(set.rows.cols());
            segs.clear();
            index.clear();
            origins.clear();
            let elements = idx.iter().map(|&q| set.segs[q].1 as usize).sum();
            lookup.reset(elements);
            segs.reserve(idx.len());
            index.reserve(elements);
            origins.reserve(elements);
            // New rows are copied in runs of consecutive corpus rows: a
            // query's rows that no earlier element holds are one copy.
            let mut run = 0..0;
            for &q in idx {
                let (offset, len) = set.segs[q];
                segs.push((index.len() as u32, len));
                for &first in &set.first[offset as usize..(offset + len) as usize] {
                    let next = origins.len() as u32;
                    let mut h = FxHasher::default();
                    h.write_u32(first);
                    let same = |r: u32| origins[r as usize] == first;
                    let row = lookup.find_or_reserve(h.finish(), next, same).unwrap_or_else(|| {
                        if run.end != first as usize {
                            rows.push_rows_from(&set.rows, run.clone());
                            run = first as usize..first as usize;
                        }
                        run.end += 1;
                        origins.push(first);
                        next
                    });
                    index.push(row);
                }
            }
            rows.push_rows_from(&set.rows, run);
        }
        self.targets.clear();
        self.targets.extend(idx.iter().map(|&i| feats[i].target));
    }

    /// The identity-indexed twin of this batch: each element's row — a
    /// stack row or one of `featurizer`'s constant rows — copied out in
    /// element order, one row per element.
    #[cfg(test)]
    pub(crate) fn expanded(&self, featurizer: &crate::Featurizer) -> RaggedBatch {
        use crate::featurize::Set;
        let expand = |set: Set, rows: &SparseRows, index: &[u32]| {
            let constants = featurizer.constant_rows(set);
            let mut out = SparseRows::new(rows.cols());
            for &e in index {
                let (src, r) =
                    if e & CONSTANT == 0 { (rows, e) } else { (&constants, e ^ CONSTANT) };
                out.push_rows_from(src, r as usize..r as usize + 1);
            }
            (out, (0..index.len() as u32).collect())
        };
        let (tables_sp, table_index) = expand(Set::Tables, &self.tables_sp, &self.table_index);
        let (joins_sp, join_index) = expand(Set::Joins, &self.joins_sp, &self.join_index);
        let (preds_sp, pred_index) = expand(Set::Preds, &self.preds_sp, &self.pred_index);
        RaggedBatch {
            tables_sp,
            table_index,
            joins_sp,
            join_index,
            preds_sp,
            pred_index,
            lookups: Default::default(),
            origins: Default::default(),
            ..self.clone()
        }
    }
}

/// Open-addressing map from a row key's hash to the stack row holding
/// that row — how the block builder finds a repeated row. Sized per
/// module per block (load ≤ 1/2) and kept in the reused batch, so a warm
/// lookup never allocates.
#[derive(Clone, Debug, Default)]
pub(crate) struct RowLookup {
    /// `(hash tag, row)` per slot; `row == EMPTY` marks a free slot.
    slots: Vec<(u32, u32)>,
    /// `64 − log2(slots.len())`: a hash's top bits pick its first slot.
    shift: u32,
}

impl RowLookup {
    const EMPTY: u32 = u32::MAX;

    /// Slots inspected per lookup before giving up on sharing. Bounds the
    /// cost of colliding keys (which query literals can make on purpose)
    /// at the price of a duplicate row.
    const MAX_PROBES: usize = 16;

    /// Forget every row and size the table for `rows` insertions.
    pub(crate) fn reset(&mut self, rows: usize) {
        let len = (2 * rows).next_power_of_two().max(2);
        self.slots.clear();
        self.slots.resize(len, (0, Self::EMPTY));
        self.shift = 64 - len.trailing_zeros();
    }

    /// The earlier row that holds an element whose key hashes to `hash`,
    /// as confirmed by `same(row)` on that row's stored entries; or `None`
    /// after recording `next` — the row the caller then pushes — under
    /// `hash`. Only a confirmed row is shared, so a hash collision costs
    /// at most a duplicate row.
    pub(crate) fn find_or_reserve(
        &mut self,
        hash: u64,
        next: u32,
        same: impl Fn(u32) -> bool,
    ) -> Option<u32> {
        let tag = (hash ^ hash >> 32) as u32;
        let mask = self.slots.len() - 1;
        let mut slot = (hash >> self.shift) as usize;
        for _ in 0..Self::MAX_PROBES {
            let (t, r) = self.slots[slot];
            if r == Self::EMPTY {
                self.slots[slot] = (tag, next);
                return None;
            }
            if t == tag && same(r) {
                return Some(r);
            }
            slot = (slot + 1) & mask;
        }
        None
    }
}

/// One module's corpus-level CSR stack: every query's element rows, each
/// query's row segment, and per row the first row holding exactly the
/// same entries.
struct CorpusSet {
    rows: SparseRows,
    segs: Vec<(u32, u32)>,
    /// Per row, the first bit-identical row of `rows` (itself if it is
    /// the first).
    first: Vec<u32>,
}

impl CorpusSet {
    /// Stack `stacks` into one `dim`-wide CSR (bulk slice copies) and
    /// find each row's first bit-identical row, by hash and confirmed
    /// entry by entry — a hash collision costs at most an unshared row.
    fn build<'a>(dim: usize, stacks: impl Iterator<Item = &'a SparseRows>) -> Self {
        let mut rows = SparseRows::new(dim);
        let mut segs = Vec::with_capacity(stacks.size_hint().0);
        for src in stacks {
            segs.push((rows.rows() as u32, src.rows() as u32));
            rows.push_rows_from(src, 0..src.rows());
        }
        let mut lookup = RowLookup::default();
        lookup.reset(rows.rows());
        /// A row's entries as words: indices, then value bits.
        fn bits<'r>((indices, values): (&'r [u32], &'r [f32])) -> impl Iterator<Item = u32> + 'r {
            indices.iter().copied().chain(values.iter().map(|v| v.to_bits()))
        }
        let first = (0..rows.rows() as u32)
            .map(|r| {
                let row = rows.row(r as usize);
                let mut h = FxHasher::default();
                bits(row).for_each(|word| h.write_u32(word));
                let same = |earlier: u32| bits(rows.row(earlier as usize)).eq(bits(row));
                lookup.find_or_reserve(h.finish(), r, same).unwrap_or(r)
            })
            .collect();
        CorpusSet { rows, segs, first }
    }
}

/// Corpus-level CSR stacks of a featurized training set: all set-element
/// rows of every query, stacked once, plus each query's row segment and
/// each row's first bit-identical row. Built once per training run; every
/// step's mini-batch assembly then copies each distinct row it needs out
/// of it ([`RaggedBatch::assemble_into`]).
pub struct CorpusSparse {
    tables: CorpusSet,
    joins: CorpusSet,
    preds: CorpusSet,
}

impl CorpusSparse {
    /// Stack a featurized corpus.
    pub fn build(
        feats: &[FeaturizedQuery],
        table_dim: usize,
        join_dim: usize,
        pred_dim: usize,
    ) -> Self {
        CorpusSparse {
            tables: CorpusSet::build(table_dim, feats.iter().map(|q| &q.tables)),
            joins: CorpusSet::build(join_dim, feats.iter().map(|q| &q.joins)),
            preds: CorpusSet::build(pred_dim, feats.iter().map(|q| &q.preds)),
        }
    }
}

/// A capped pool of warm reusable values — serving batches and inference
/// scratches. Each inference block takes one, rebuilds it in place
/// (capacity carries over), and returns it. Pooled rather than
/// thread-local because a block runs on whichever thread calls in or on
/// any worker of the inference fan-out; capped so a concurrency burst
/// cannot pin memory.
pub(crate) struct WarmPool<T>(Mutex<Vec<T>>);

/// Upper bound on the values a [`WarmPool`] retains.
const WARM_POOL_CAP: usize = 16;

impl<T: Default> WarmPool<T> {
    pub(crate) const fn new() -> Self {
        WarmPool(Mutex::new(Vec::new()))
    }

    /// A pooled value, or a fresh `T::default()` when the pool is empty.
    pub(crate) fn take(&self) -> T {
        self.0.lock().expect("warm pool poisoned").pop().unwrap_or_default()
    }

    /// Return a value for reuse (dropped when the pool is full).
    pub(crate) fn put(&self, value: T) {
        let mut pool = self.0.lock().expect("warm pool poisoned");
        if pool.len() < WARM_POOL_CAP {
            pool.push(value);
        }
    }
}

/// Masked average pooling written into a **column window** of `out`:
/// `out[q][col0 .. col0 + rows.cols()]` is the mean over the elements `e`
/// of segment `q`, summed in element order, of element `e`'s row —
/// `rows[index[e]]`, or `constants[id]` for an entry `CONSTANT | id` —
/// and zeros for an empty segment. Writing straight into a window of the
/// concatenation matrix needs neither pooled temporaries nor a copy pass.
///
/// # Panics
/// If `out` has fewer rows than `segs`, the window exceeds its width, a
/// segment or index entry is out of range, or an entry names a constant
/// that `constants` does not hold (a model whose derived constants were
/// dropped by mutable access).
pub fn segment_mean_into_cols(
    rows: &Matrix,
    constants: &Matrix,
    segs: &[(u32, u32)],
    index: &[u32],
    out: &mut Matrix,
    col0: usize,
) {
    let d = rows.cols();
    assert!(out.rows() >= segs.len(), "segment_mean output too short");
    assert!(col0 + d <= out.cols(), "segment_mean column window out of range");
    let row = |e: u32| {
        if e & CONSTANT == 0 {
            return rows.row(e as usize);
        }
        let id = (e ^ CONSTANT) as usize;
        assert!(
            id < constants.rows(),
            "segment_mean: an element names model constant {id}, but the model holds {} \
             (mutable access drops the derived constants; derive them again)",
            constants.rows()
        );
        constants.row(id)
    };
    for (qi, &(offset, len)) in segs.iter().enumerate() {
        let out_row = &mut out.row_mut(qi)[col0..col0 + d];
        out_row.iter_mut().for_each(|o| *o = 0.0);
        if len == 0 {
            continue;
        }
        let inv = 1.0 / len as f32;
        for &e in &index[offset as usize..(offset + len) as usize] {
            for (o, &v) in out_row.iter_mut().zip(row(e)) {
                *o += v;
            }
        }
        for o in out_row {
            *o *= inv;
        }
    }
}

/// Backward of [`segment_mean_into_cols`] for a batch whose elements
/// name stack rows: reads the pooled gradient from a **column window** of
/// `grad_pooled` and writes one gradient row per stack row into `out`
/// (pre-sized by the caller to the stack's rows × `d`). Each element of
/// segment `q` adds `grad_pooled[q] / len_q` into `out[index[e]]`, in
/// ascending element order: a row's first element copies and each later
/// element adds. A set MLP's parameters see its elements only through
/// this sum, so the backward then runs once per stack row.
///
/// The index must name the stack rows in order of first occurrence, as
/// every [`RaggedBatch`] builder stacks them: each row then has a first
/// element, so every row of `out` is **overwritten** and the caller may
/// pre-size it with [`Matrix::resize_for_overwrite`]. Where no row
/// repeats, each element's row is its own `g_q / len_q`.
/// Allocation-free.
///
/// # Panics
/// If the window exceeds `grad_pooled`'s width, `out`'s width is not
/// exactly `d`, or the index does not name `out`'s rows in order of
/// first occurrence (a [`CONSTANT`] entry included).
pub fn segment_mean_backward_into_rows(
    grad_pooled: &Matrix,
    col0: usize,
    d: usize,
    segs: &[(u32, u32)],
    index: &[u32],
    out: &mut Matrix,
) {
    assert!(col0 + d <= grad_pooled.cols(), "segment_mean_backward window out of range");
    assert_eq!(out.cols(), d, "segment_mean_backward output width");
    let mut rows = 0;
    for (qi, &(offset, len)) in segs.iter().enumerate() {
        if len == 0 {
            continue;
        }
        let inv = 1.0 / len as f32;
        let g_row = &grad_pooled.row(qi)[col0..col0 + d];
        for &r in &index[offset as usize..(offset + len) as usize] {
            let r = r as usize;
            let out_row = out.row_mut(r);
            if r == rows {
                out_row.iter_mut().zip(g_row).for_each(|(o, &g)| *o = g * inv);
                rows += 1;
            } else {
                assert!(r < rows, "segment_mean_backward: rows not in first-occurrence order");
                out_row.iter_mut().zip(g_row).for_each(|(o, &g)| *o += g * inv);
            }
        }
    }
    assert_eq!(rows, out.rows(), "segment_mean_backward: a row no element names");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn segment_mean(elems: &Matrix, segs: &[(u32, u32)]) -> Matrix {
        let identity: Vec<u32> = (0..elems.rows() as u32).collect();
        let mut out = Matrix::zeros(segs.len(), elems.cols());
        segment_mean_into_cols(elems, &Matrix::default(), segs, &identity, &mut out, 0);
        out
    }

    fn segment_mean_backward(grad: &Matrix, segs: &[(u32, u32)], num_elems: usize) -> Matrix {
        let identity: Vec<u32> = (0..num_elems as u32).collect();
        let mut out = Matrix::zeros(num_elems, grad.cols());
        segment_mean_backward_into_rows(grad, 0, grad.cols(), segs, &identity, &mut out);
        out
    }

    #[test]
    fn segment_mean_averages_and_zeroes_empty() {
        let elems = Matrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 10.0, 20.0]);
        let segs = vec![(0u32, 2u32), (2, 1), (3, 0)];
        let pooled = segment_mean(&elems, &segs);
        assert_eq!(pooled.row(0), &[2.0, 3.0]);
        assert_eq!(pooled.row(1), &[10.0, 20.0]);
        assert_eq!(pooled.row(2), &[0.0, 0.0]);

        // Elements read their rows through the index: two rows stand in
        // for the three elements above, and a tagged entry reads a
        // constant instead of a stack row.
        let distinct = Matrix::from_vec(2, 2, vec![10.0, 20.0, 2.0, 3.0]);
        let constants = Matrix::from_vec(2, 2, vec![0.0, 0.0, 1.0, 2.0]);
        let mut shared = Matrix::zeros(3, 2);
        segment_mean_into_cols(&distinct, &constants, &segs, &[1, CONSTANT | 1, 0], &mut shared, 0);
        assert_eq!(shared.row(0), &[1.5, 2.5]);
        assert_eq!(shared.row(1), &[10.0, 20.0]);
        assert_eq!(shared.row(2), &[0.0, 0.0]);
    }

    /// A constant the caller does not hold is an error, never a read of
    /// whatever sits at that position.
    #[test]
    #[should_panic(expected = "model constant 2")]
    fn segment_mean_rejects_a_missing_constant() {
        let rows = Matrix::from_vec(1, 2, vec![1.0, 2.0]);
        let constants = Matrix::from_vec(2, 2, vec![0.0; 4]);
        let mut out = Matrix::zeros(1, 2);
        segment_mean_into_cols(&rows, &constants, &[(0, 2)], &[0, CONSTANT | 2], &mut out, 0);
    }

    /// Rows under one hash are told apart by `same` alone: an unconfirmed
    /// candidate gets a row of its own, and each row is found again only
    /// where it is confirmed.
    #[test]
    fn lookup_shares_only_confirmed_rows() {
        let mut lookup = RowLookup::default();
        lookup.reset(4);
        assert_eq!(lookup.find_or_reserve(7, 0, |_| unreachable!("empty table")), None);
        assert_eq!(lookup.find_or_reserve(7, 1, |_| false), None);
        assert_eq!(lookup.find_or_reserve(7, 2, |r| r == 1), Some(1));
        assert_eq!(lookup.find_or_reserve(7, 2, |r| r == 0), Some(0));
        lookup.reset(4);
        assert_eq!(lookup.find_or_reserve(7, 0, |_| unreachable!("reset forgets")), None);
    }

    #[test]
    fn segment_mean_backward_distributes_evenly() {
        let segs = vec![(0u32, 2u32), (2, 1), (3, 0)];
        let grad = Matrix::from_vec(3, 2, vec![4.0, 8.0, 5.0, 6.0, 9.0, 9.0]);
        let g = segment_mean_backward(&grad, &segs, 3);
        assert_eq!(g.row(0), &[2.0, 4.0]);
        assert_eq!(g.row(1), &[2.0, 4.0]);
        assert_eq!(g.row(2), &[5.0, 6.0]);
    }

    /// Elements that repeat a row, in any order, sum their shares into
    /// it in ascending element order — the first copies, the rest add —
    /// from a column window, over a dirty buffer.
    #[test]
    fn segment_mean_backward_sums_each_rows_elements() {
        // Query 0: rows 0, 1, 0; query 1: rows 2, 1; query 2: empty;
        // query 3: row 0.
        let segs = [(0u32, 3u32), (3, 2), (5, 0), (5, 1)];
        let index = [0u32, 1, 0, 2, 1, 0];
        let grad = Matrix::from_vec(
            4,
            3,
            vec![0.0, 3.0, -6.0, 0.0, 4.0, 8.0, 0.0, 7.0, 7.0, 0.0, 0.5, 0.25],
        );
        let mut out = Matrix::from_vec(3, 2, vec![99.0; 6]);
        segment_mean_backward_into_rows(&grad, 1, 2, &segs, &index, &mut out);
        let (third, half) = (1.0f32 / 3.0, 0.5f32);
        let want = [
            (3.0 * third + 3.0 * third) + 0.5,
            (-6.0 * third + -6.0 * third) + 0.25,
            3.0 * third + 4.0 * half,
            -6.0 * third + 8.0 * half,
            4.0 * half,
            8.0 * half,
        ];
        assert_eq!(out.data(), &want);
    }

    /// An index out of first-occurrence order would leave a row
    /// unwritten: it is an error.
    #[test]
    #[should_panic(expected = "first-occurrence order")]
    fn segment_mean_backward_rejects_rows_out_of_order() {
        let grad = Matrix::from_vec(1, 1, vec![1.0]);
        let mut out = Matrix::zeros(2, 1);
        segment_mean_backward_into_rows(&grad, 0, 1, &[(0, 2)], &[1, 0], &mut out);
    }

    #[test]
    fn mean_then_backward_is_consistent_with_finite_differences() {
        // d(mean)/d(elem) check through a scalar loss = sum(pooled).
        let elems = Matrix::from_vec(4, 3, (0..12).map(|i| i as f32 * 0.5).collect());
        let segs = vec![(0u32, 3u32), (3, 1)];
        let ones = Matrix::from_vec(2, 3, vec![1.0; 6]);
        let g = segment_mean_backward(&ones, &segs, 4);
        let eps = 1e-3f32;
        for (i, j) in [(0usize, 0usize), (2, 2), (3, 1)] {
            let mut up = elems.clone();
            up.set(i, j, elems.get(i, j) + eps);
            let mut down = elems.clone();
            down.set(i, j, elems.get(i, j) - eps);
            let lu: f32 = segment_mean(&up, &segs).data().iter().sum();
            let ld: f32 = segment_mean(&down, &segs).data().iter().sum();
            let numeric = (lu - ld) / (2.0 * eps);
            assert!((g.get(i, j) - numeric).abs() < 1e-3);
        }
    }

    #[test]
    fn assemble_concatenates_in_order() {
        let rows = |cols: usize, dense: &[&[f32]]| {
            let mut sp = SparseRows::new(cols);
            for r in dense {
                sp.push_row(r.iter().enumerate().map(|(j, &v)| (j as u32, v)));
            }
            sp
        };
        let q1 = FeaturizedQuery {
            tables: rows(2, &[&[1.0, 0.0]]),
            joins: rows(1, &[]),
            preds: rows(3, &[&[0.5, 0.5, 0.0]]),
            target: 0.25,
        };
        let q2 = FeaturizedQuery {
            tables: rows(2, &[&[0.0, 1.0], &[1.0, 1.0]]),
            joins: rows(1, &[&[1.0]]),
            preds: rows(3, &[]),
            target: 0.75,
        };
        // Query 1's table row again, bit for bit, under another predicate.
        let q3 = FeaturizedQuery {
            tables: rows(2, &[&[1.0, 0.0]]),
            joins: rows(1, &[]),
            preds: rows(3, &[&[0.0, 0.5, 0.5]]),
            target: 0.5,
        };
        let feats = [q1, q2, q3];
        let corpus = CorpusSparse::build(&feats, 2, 1, 3);
        let b = RaggedBatch::assemble_indexed(&feats, &corpus, &[0, 1], 2, 1, 3);
        assert_eq!(b.len(), 2);
        assert_eq!(b.table_segs, vec![(0, 1), (1, 2)]);
        assert_eq!(b.join_segs, vec![(0, 0), (0, 1)]);
        assert_eq!(b.pred_segs, vec![(0, 1), (1, 0)]);
        assert_eq!(
            (&b.table_index[..], &b.join_index[..], &b.pred_index[..]),
            (&[0, 1, 2][..], &[0][..], &[0][..])
        );
        assert_eq!(b.targets, vec![0.25, 0.75]);
        assert_eq!(b.tables_sp, rows(2, &[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]));
        assert_eq!(b.joins_sp, rows(1, &[&[1.0]]));
        assert_eq!(b.preds_sp, rows(3, &[&[0.5, 0.5, 0.0]]));
        assert_eq!(b.preds_sp.nnz(), 2, "the explicit 0.0 entry must be dropped");

        // Any index order (and repetition) re-stacks segments over the
        // elements; a repeated row is stacked once, in order of first
        // occurrence, and its elements point at it.
        let mut swapped = RaggedBatch::empty();
        swapped.assemble_into(&feats, &corpus, &[1, 0, 1]);
        assert_eq!(swapped.table_segs, vec![(0, 2), (2, 1), (3, 2)]);
        assert_eq!(swapped.join_segs, vec![(0, 1), (1, 0), (1, 1)]);
        assert_eq!(swapped.targets, vec![0.75, 0.25, 0.75]);
        assert_eq!(swapped.table_index, vec![0, 1, 2, 0, 1]);
        assert_eq!(swapped.tables_sp.to_dense().data(), &[0.0, 1.0, 1.0, 1.0, 1.0, 0.0]);
        assert_eq!((&swapped.join_index[..], swapped.joins_sp.rows()), (&[0, 0][..], 1));

        // Rows of different queries are shared too, and a reused batch
        // keeps nothing of its last assembly.
        swapped.assemble_into(&feats, &corpus, &[2, 0]);
        assert_eq!(swapped.table_index, vec![0, 0]);
        assert_eq!(swapped.tables_sp, rows(2, &[&[1.0, 0.0]]));
        assert_eq!(swapped.pred_index, vec![0, 1]);
        assert_eq!(swapped.preds_sp, rows(3, &[&[0.0, 0.5, 0.5], &[0.5, 0.5, 0.0]]));
        assert_eq!((swapped.join_index.len(), swapped.joins_sp.rows()), (0, 0));
        assert_eq!(swapped.targets, vec![0.5, 0.25]);
    }
}
