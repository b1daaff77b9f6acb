//! CSR-style sparse row stacks for the one-hot/bitmap input layers.
//!
//! MSCN's set-module inputs are ~85% zeros: one-hot table/join/column
//! ids, a few operator/value slots, and sample bitmaps (§3.1 of the
//! paper). [`SparseRows`] stores only the nonzeros of such a row stack —
//! per row, an ascending `(index, value)` list — so the input layer's
//! matmul gathers weight rows in O(nnz) instead of multiplying zeros
//! (see [`crate::kernels::sparse_matmul_bias_with`]). Its weight
//! gradient `xᵀ·g` is the same gather run on the CSR transpose
//! ([`SparseRows::transpose_into`]). The layout is the classic CSR
//! triple (`indptr`/`indices`/`values`) over a logical `rows × cols`
//! shape.
//!
//! Invariants (enforced on construction): every index is `< cols`,
//! indices are strictly ascending within a row, and no stored value is
//! `0.0` — which makes a `SparseRows` *canonical*: it is exactly the
//! nonzero set of its densification, the property the bitwise
//! sparse-equals-dense guarantee rests on.

use crate::matrix::Matrix;

/// A stack of sparse `f32` rows in CSR layout.
#[derive(Clone, Debug, PartialEq)]
pub struct SparseRows {
    cols: usize,
    /// Row `i` owns entries `indptr[i]..indptr[i+1]`; `len == rows + 1`.
    indptr: Vec<u32>,
    indices: Vec<u32>,
    values: Vec<f32>,
}

impl Default for SparseRows {
    /// The empty stack of width 0 (`indptr` is never empty).
    fn default() -> Self {
        SparseRows::new(0)
    }
}

impl SparseRows {
    /// An empty stack of width `cols` (zero rows).
    pub fn new(cols: usize) -> Self {
        SparseRows { cols, indptr: vec![0], indices: Vec::new(), values: Vec::new() }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.indptr.len() - 1
    }

    /// Logical row width.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total stored nonzeros.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// All stored values as one flat slice, row-concatenated in `indptr`
    /// order — the buffer the int8 path quantizes row by row (see
    /// [`crate::qmatrix::quantize_csr`]).
    #[inline]
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// Row `i` as parallel `(indices, values)` slices.
    ///
    /// # Panics
    /// If `i >= self.rows()`.
    #[inline]
    pub fn row(&self, i: usize) -> (&[u32], &[f32]) {
        let (lo, hi) = (self.indptr[i] as usize, self.indptr[i + 1] as usize);
        (&self.indices[lo..hi], &self.values[lo..hi])
    }

    /// Append one row from an ascending `(index, value)` nonzero list.
    /// Zero values are dropped (keeping the stack canonical).
    ///
    /// # Panics
    /// If an index is `>= cols` or indices are not strictly ascending.
    pub fn push_row<I: IntoIterator<Item = (u32, f32)>>(&mut self, entries: I) {
        let mut prev: i64 = -1;
        for (idx, val) in entries {
            assert!(
                (idx as usize) < self.cols,
                "sparse index {idx} out of row width {}",
                self.cols
            );
            assert!(i64::from(idx) > prev, "sparse indices must be strictly ascending");
            prev = i64::from(idx);
            if val != 0.0 {
                self.indices.push(idx);
                self.values.push(val);
            }
        }
        self.indptr.push(self.indices.len() as u32);
    }

    /// Append one nonzero to the row under construction, which
    /// [`SparseRows::finish_row`] closes — the streaming-assembly fast
    /// path (the featurizer's emitters produce nonzero values at
    /// strictly ascending positions by construction). Checked in debug
    /// builds only.
    #[inline]
    pub fn push_entry_trusted(&mut self, idx: u32, val: f32) {
        debug_assert!((idx as usize) < self.cols, "trusted sparse index out of range");
        debug_assert!(
            self.indices[self.indptr[self.indptr.len() - 1] as usize..]
                .last()
                .is_none_or(|&prev| prev < idx),
            "trusted sparse indices must ascend"
        );
        debug_assert!(val != 0.0, "trusted sparse entries must be nonzero");
        self.indices.push(idx);
        self.values.push(val);
    }

    /// Close the row built by [`SparseRows::push_entry_trusted`] calls
    /// (an empty row if there were none).
    #[inline]
    pub fn finish_row(&mut self) {
        self.indptr.push(self.indices.len() as u32);
    }

    /// Append a contiguous range of rows from another stack — bulk slice
    /// copies with indptr rebasing, the fast path for re-batching a
    /// corpus-level CSR into per-epoch mini-batches (no per-entry work).
    ///
    /// # Panics
    /// If widths differ or the range exceeds `src.rows()`.
    pub fn push_rows_from(&mut self, src: &SparseRows, rows: std::ops::Range<usize>) {
        assert_eq!(self.cols, src.cols, "sparse width mismatch");
        assert!(rows.end <= src.rows(), "sparse row range out of bounds");
        let (lo, hi) = (src.indptr[rows.start] as usize, src.indptr[rows.end] as usize);
        let base = self.indices.len() as u32;
        self.indices.extend_from_slice(&src.indices[lo..hi]);
        self.values.extend_from_slice(&src.values[lo..hi]);
        let shift = base as i64 - lo as i64;
        self.indptr.extend(
            src.indptr[rows.start + 1..=rows.end].iter().map(|&p| (i64::from(p) + shift) as u32),
        );
    }

    /// Drop all rows and reset the width, keeping the allocations — the
    /// reuse hook for steady-state batch assembly.
    pub fn clear(&mut self, cols: usize) {
        self.cols = cols;
        self.indptr.clear();
        self.indptr.push(0);
        self.indices.clear();
        self.values.clear();
    }

    /// The canonical sparse view of a dense matrix (exact nonzeros, in
    /// ascending column order per row) — tests.
    pub fn from_dense(m: &Matrix) -> Self {
        let mut out = SparseRows::new(m.cols());
        for i in 0..m.rows() {
            for (j, &v) in m.row(i).iter().enumerate() {
                if v != 0.0 {
                    out.indices.push(j as u32);
                    out.values.push(v);
                }
            }
            out.indptr.push(out.indices.len() as u32);
        }
        out
    }

    /// `selfᵀ` as a CSR stack written into `out` (its buffers reused):
    /// a counting-sort transpose, O(rows + cols + nnz). Row `j` of the
    /// result lists the rows where column `j` is nonzero, in ascending
    /// order — so the gather kernel run on it fuses each element of a
    /// sparse layer's weight gradient `xᵀ·g` in ascending row order
    /// ([`crate::Linear::backward_sparse_leaf`]). The result is
    /// canonical, like its input.
    pub fn transpose_into(&self, out: &mut SparseRows) {
        out.cols = self.rows();
        out.indptr.clear();
        out.indptr.resize(self.cols + 1, 0);
        // Count column j's nonzeros into indptr[j + 1]; the prefix sum
        // then leaves indptr[j] at column j's first slot.
        let counts = &mut out.indptr[..];
        self.indices.iter().for_each(|&j| counts[j as usize + 1] += 1);
        for j in 0..self.cols {
            counts[j + 1] += counts[j];
        }
        out.indices.resize(self.nnz(), 0);
        out.values.resize(self.nnz(), 0.0);
        // Plain slices, so the scatter loop keeps their bases in registers
        // instead of re-reading each Vec after every store.
        let (indptr, indices, values) =
            (&mut out.indptr[..], &mut out.indices[..], &mut out.values[..]);
        // Scatter in ascending row, using indptr[j] as column j's cursor:
        // each cursor ends on the next column's start, so one shift by a
        // slot restores the row pointers.
        for r in 0..self.rows() {
            let (row_cols, row_values) = self.row(r);
            for (&j, &v) in row_cols.iter().zip(row_values) {
                let slot = &mut indptr[j as usize];
                indices[*slot as usize] = r as u32;
                values[*slot as usize] = v;
                *slot += 1;
            }
        }
        indptr.copy_within(0..self.cols, 1);
        indptr[0] = 0;
    }

    /// Densify (tests and debugging).
    pub fn to_dense(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows(), self.cols);
        for i in 0..self.rows() {
            let (indices, values) = self.row(i);
            let row = out.row_mut(i);
            for (&j, &v) in indices.iter().zip(values) {
                row[j as usize] = v;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_through_dense() {
        let m = Matrix::from_vec(
            3,
            4,
            vec![0.0, 1.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, -2.0, 0.0, 0.25, 1.0],
        );
        let s = SparseRows::from_dense(&m);
        assert_eq!(s.rows(), 3);
        assert_eq!(s.cols(), 4);
        assert_eq!(s.nnz(), 4);
        assert_eq!(s.row(0), (&[1u32][..], &[1.5f32][..]));
        assert_eq!(s.row(1), (&[][..], &[][..]));
        assert_eq!(s.to_dense(), m);
    }

    #[test]
    fn push_row_drops_zeros_and_clear_reuses() {
        let mut s = SparseRows::new(5);
        s.push_row([(0, 1.0), (2, 0.0), (4, -1.0)]);
        assert_eq!(s.nnz(), 2, "explicit zeros are dropped");
        let ptr = s.indices.as_ptr();
        s.clear(7);
        assert_eq!((s.rows(), s.cols(), s.nnz()), (0, 7, 0));
        s.push_row([(6, 2.0)]);
        assert_eq!(s.indices.as_ptr(), ptr, "clear must keep the allocation");
    }

    #[test]
    fn push_rows_from_rebases_ranges() {
        let m = Matrix::from_vec(
            4,
            3,
            vec![1.0, 0.0, 2.0, 0.0, 0.0, 0.0, 3.0, 4.0, 5.0, 0.0, 6.0, 0.0],
        );
        let src = SparseRows::from_dense(&m);
        let mut dst = SparseRows::new(3);
        dst.push_rows_from(&src, 2..4); // rows 2, 3
        dst.push_rows_from(&src, 1..2); // empty row
        dst.push_rows_from(&src, 0..1);
        assert_eq!(dst.rows(), 4);
        assert_eq!(dst.row(0), (&[0u32, 1, 2][..], &[3.0f32, 4.0, 5.0][..]));
        assert_eq!(dst.row(1), (&[1u32][..], &[6.0f32][..]));
        assert_eq!(dst.row(2), (&[][..], &[][..]));
        assert_eq!(dst.row(3), (&[0u32, 2][..], &[1.0f32, 2.0][..]));
    }

    /// The element-wise dense transpose (the reference).
    fn transposed(m: &Matrix) -> Matrix {
        let mut t = Matrix::zeros(m.cols(), m.rows());
        for i in 0..m.rows() {
            for j in 0..m.cols() {
                t.set(j, i, m.get(i, j));
            }
        }
        t
    }

    /// CSR `transpose_into` equals the CSR view of the dense transpose,
    /// undoes itself, and reuses a dirty buffer — on shapes with all-zero
    /// rows, all-zero columns, and none at all.
    #[test]
    fn transpose_into_matches_the_dense_transpose() {
        let with_gaps = Matrix::from_vec(
            4,
            5,
            vec![
                0.0, 1.5, 0.0, 0.0, -2.0, // row 0
                0.0, 0.0, 0.0, 0.0, 0.0, // an all-zero row
                3.0, 0.25, 0.0, 0.0, 1.0, // columns 2 and 3 stay all-zero
                0.0, -4.0, 0.0, 0.0, 0.5,
            ],
        );
        let shapes = [
            with_gaps,
            Matrix::zeros(0, 3), // no rows
            Matrix::zeros(3, 0), // no columns
            Matrix::zeros(2, 4), // no nonzeros
            Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]),
        ];
        // One buffer for every case, dirty from the previous one.
        let mut t = SparseRows::from_dense(&Matrix::from_vec(3, 7, vec![9.0; 21]));
        let mut back = SparseRows::from_dense(&Matrix::from_vec(2, 2, vec![8.0; 4]));
        for m in &shapes {
            let s = SparseRows::from_dense(m);
            s.transpose_into(&mut t);
            assert_eq!(t, SparseRows::from_dense(&transposed(m)), "{m:?}");
            assert_eq!((t.rows(), t.cols()), (m.cols(), m.rows()));
            t.transpose_into(&mut back);
            assert_eq!(back, s, "transposing twice returns the input");
        }
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn unsorted_indices_panic() {
        let mut s = SparseRows::new(5);
        s.push_row([(3, 1.0), (1, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "out of row width")]
    fn out_of_range_index_panics() {
        let mut s = SparseRows::new(2);
        s.push_row([(2, 1.0)]);
    }
}
