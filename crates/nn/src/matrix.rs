//! Row-major `f32` matrices with the product kernels needed by backprop.
//!
//! Every product funnels into the explicit SIMD micro-kernels of
//! [`crate::kernels`] — AVX2+FMA inner loops behind once-per-process
//! runtime dispatch (`LC_KERNEL`), with a bitwise-identical
//! `f32::mul_add` scalar fallback. Every product writes into a
//! caller-provided buffer (resized in place, reusing its capacity), and
//! the kernels are cache-blocked: the reduction dimension is processed in
//! tiles sized so the tile of the right-hand operand stays resident in L1
//! while a block of output rows streams past it. There is one dense
//! kernel shape, `A·B`. `A·Bᵀ` stages the transposed right operand
//! ([`Matrix::transpose_into`]) — backward's input gradient `g·Wᵀ`
//! against `Linear`'s cached or freshly staged `Wᵀ` — while `Aᵀ·B`, a
//! dense layer's weight gradient `xᵀ·g`, reads `x` in place through a
//! transposed [`crate::kernels::Operand`] view. A sparse input's `xᵀ·g`
//! stages a CSR transpose ([`crate::SparseRows::transpose_into`]) and
//! runs the sparse gather.
//!
//! Neither tiling nor vectorization reorders the per-element
//! accumulation sequence: vector lanes span output columns, so for each
//! output element the products fuse in ascending reduction-index order
//! regardless of tile size, vector width, or dispatch path. Results are
//! bit-for-bit identical across shapes, batch compositions, kernels, and
//! thread counts — the property `lc_core`'s deterministic data-parallel
//! trainer and `lc_serve`'s micro-batcher are built on.

use crate::kernels;

/// A dense row-major matrix of `f32`. `Default` is the empty `0 × 0`
/// matrix — the canonical seed for resizable scratch buffers.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// All-zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Build from a row-major buffer.
    ///
    /// # Panics
    /// If `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer size mismatch");
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Row `i` as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Element `(i, j)`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f32 {
        self.data[i * self.cols + j]
    }

    /// Set element `(i, j)`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f32) {
        self.data[i * self.cols + j] = v;
    }

    /// The raw row-major buffer.
    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// The raw row-major buffer, mutable.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Reset every element to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|v| *v = 0.0);
    }

    /// Reshape in place to `rows × cols`, zero-filled, reusing the
    /// existing allocation whenever `rows * cols` fits its capacity. This
    /// is what makes the product kernels allocation-free in steady state:
    /// a scratch matrix only ever grows to the largest shape it has seen.
    pub fn resize(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Like [`Matrix::resize`] but with **unspecified element values**
    /// (whatever the buffer held before, zero-extended only if it grows).
    /// For kernels that overwrite every element anyway — skips the
    /// zero-fill pass, which is a measurable share of small-matrix
    /// forward passes.
    pub fn resize_for_overwrite(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// `self · b` written into `out` (resized in place), cache-blocked
    /// and register-blocked — see [`crate::kernels`]. Per output element
    /// the products fuse in ascending-k order whatever the tiling or
    /// dispatch path, so results are deterministic and independent of
    /// batch composition.
    ///
    /// # Panics
    /// If `self.cols != b.rows`.
    pub fn matmul_into(&self, b: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, b.rows, "matmul shape mismatch");
        out.resize_for_overwrite(self.rows, b.cols);
        kernels::matmul_overwrite(self.into(), b, out);
    }

    /// `self · b + bias` (bias broadcast over rows) written into `out` —
    /// the fused linear-layer forward kernel. The accumulators are
    /// seeded with the bias instead of zero, so the bias add costs no
    /// extra pass over `out`.
    ///
    /// # Panics
    /// If `self.cols != b.rows` or `bias.len() != b.cols`.
    pub fn matmul_bias_into(&self, b: &Matrix, bias: &[f32], out: &mut Matrix) {
        assert_eq!(self.cols, b.rows, "matmul shape mismatch");
        assert_eq!(bias.len(), b.cols, "bias width mismatch");
        out.resize_for_overwrite(self.rows, b.cols);
        for i in 0..self.rows {
            out.row_mut(i).copy_from_slice(bias);
        }
        kernels::matmul_accumulate(self.into(), b, out);
    }

    /// `selfᵀ` written into `out` (resized in place), in `TB × TB` cache
    /// blocks so both the source rows and the destination columns of a
    /// block stay resident while it is rewritten — the transpose is pure
    /// data movement, so locality (not vector ALUs) is what it needs.
    pub fn transpose_into(&self, out: &mut Matrix) {
        /// Transpose block edge: 32×32 `f32` = 4 KiB per operand side.
        const TB: usize = 32;
        out.resize_for_overwrite(self.cols, self.rows);
        for i0 in (0..self.rows).step_by(TB) {
            let i_end = (i0 + TB).min(self.rows);
            for j0 in (0..self.cols).step_by(TB) {
                let j_end = (j0 + TB).min(self.cols);
                for i in i0..i_end {
                    let row = &self.row(i)[j0..j_end];
                    for (jj, &v) in row.iter().enumerate() {
                        out.data[(j0 + jj) * self.rows + i] = v;
                    }
                }
            }
        }
    }

    /// Frobenius-style maximum absolute difference (test helper).
    pub fn max_abs_diff(&self, other: &Matrix) -> f32 {
        assert_eq!(self.shape(), other.shape());
        self.data.iter().zip(&other.data).map(|(a, b)| (a - b).abs()).fold(0.0f32, f32::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut acc = 0.0;
                for k in 0..a.cols() {
                    acc += a.get(i, k) * b.get(k, j);
                }
                out.set(i, j, acc);
            }
        }
        out
    }

    fn arange(rows: usize, cols: usize, start: f32) -> Matrix {
        Matrix::from_vec(rows, cols, (0..rows * cols).map(|i| start + i as f32 * 0.1).collect())
    }

    fn transposed(m: &Matrix) -> Matrix {
        let mut t = Matrix::zeros(m.cols(), m.rows());
        for i in 0..m.rows() {
            for j in 0..m.cols() {
                t.set(j, i, m.get(i, j));
            }
        }
        t
    }

    #[test]
    fn matmul_matches_naive() {
        let a = arange(3, 4, -1.0);
        let b = arange(4, 5, 0.5);
        let mut out = Matrix::zeros(0, 0);
        a.matmul_into(&b, &mut out);
        assert!(out.max_abs_diff(&naive_matmul(&a, &b)) < 1e-5);
    }

    /// `A·Bᵀ` as backward runs it: stage `Bᵀ`, then the `A·B` kernel.
    #[test]
    fn matmul_transb_matches_naive() {
        let a = arange(3, 4, -1.0);
        let b = arange(5, 4, 2.0); // b^T is 4x5
        let (mut out, mut bt) = (Matrix::zeros(0, 0), Matrix::from_vec(1, 2, vec![9.0; 2]));
        b.transpose_into(&mut bt);
        assert_eq!(bt, transposed(&b), "the staged operand is exactly bᵀ");
        a.matmul_into(&bt, &mut out);
        assert!(out.max_abs_diff(&naive_matmul(&a, &transposed(&b))) < 1e-5);
    }

    #[test]
    fn bias_and_zero() {
        // A zero left operand leaves exactly the broadcast bias.
        let mut m = Matrix::zeros(0, 0);
        Matrix::zeros(2, 4).matmul_bias_into(&arange(4, 3, 0.5), &[1.0, 2.0, 3.0], &mut m);
        assert_eq!(m.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(m.row(1), &[1.0, 2.0, 3.0]);
        m.fill_zero();
        assert!(m.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(4, 2);
        a.matmul_into(&b, &mut Matrix::zeros(0, 0));
    }

    /// Shapes larger than both tile dimensions exercise every tile-edge
    /// path of the blocked kernels. Tolerances are relative: the FMA
    /// kernels round once per step where the naive reference rounds
    /// twice, so exact agreement is not expected (or wanted).
    #[test]
    fn tiled_kernels_match_naive_beyond_tile_boundaries() {
        let a = arange(70, 130, -3.0);
        let b = arange(130, 40, 0.25);
        let mut out = Matrix::zeros(0, 0);
        a.matmul_into(&b, &mut out);
        let naive = naive_matmul(&a, &b);
        for i in 0..70 {
            for j in 0..40 {
                let (got, want) = (out.get(i, j), naive.get(i, j));
                assert!(
                    (got - want).abs() < 1e-4 * want.abs().max(1.0),
                    "matmul_into diverged from naive at ({i},{j}): {got} vs {want}"
                );
            }
        }

        let bt = arange(40, 130, 1.5); // a · btᵀ, staged as in backward
        let (mut tr, mut tmp) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
        bt.transpose_into(&mut tmp);
        a.matmul_into(&tmp, &mut tr);
        for i in 0..70 {
            for j in 0..40 {
                let dot: f32 = (0..130).map(|k| a.get(i, k) * bt.get(j, k)).sum();
                assert!((tr.get(i, j) - dot).abs() < 2e-2 * dot.abs().max(1.0));
            }
        }
    }

    #[test]
    fn matmul_bias_into_fuses_bias_add() {
        let a = arange(5, 7, -1.0);
        let b = arange(7, 3, 0.5);
        let bias = [1.0f32, -2.0, 0.25];
        let mut fused = Matrix::zeros(0, 0);
        a.matmul_bias_into(&b, &bias, &mut fused);
        let mut separate = naive_matmul(&a, &b);
        for i in 0..5 {
            for (v, &b) in separate.row_mut(i).iter_mut().zip(&bias) {
                *v += b;
            }
        }
        assert!(fused.max_abs_diff(&separate) < 1e-4);
    }

    #[test]
    fn resize_reuses_capacity_and_zero_fills() {
        let mut m = Matrix::from_vec(4, 8, vec![1.0; 32]);
        let ptr = m.data().as_ptr();
        m.resize(2, 3);
        assert_eq!(m.shape(), (2, 3));
        assert!(m.data().iter().all(|&v| v == 0.0));
        assert_eq!(m.data().as_ptr(), ptr, "shrinking resize must reuse the buffer");
        m.resize(4, 8);
        assert_eq!(m.data().as_ptr(), ptr, "regrowing within capacity must reuse the buffer");
        assert!(m.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn into_kernels_overwrite_stale_contents() {
        let a = arange(3, 4, -1.0);
        let b = arange(4, 5, 0.5);
        let expected = naive_matmul(&a, &b);
        let mut out = Matrix::from_vec(2, 2, vec![9.0; 4]); // wrong shape + garbage
        a.matmul_into(&b, &mut out);
        assert!(out.max_abs_diff(&expected) < 1e-5);
        a.matmul_into(&b, &mut out); // second call must not accumulate
        assert!(out.max_abs_diff(&expected) < 1e-5);
    }
}
