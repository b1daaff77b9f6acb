//! A reusable buffer arena for allocation-free forward/backward passes.
//!
//! The training and inference hot loops need short-lived temporaries
//! (e.g. the hidden-layer gradient inside [`crate::Mlp`] backprop) whose
//! shapes vary call to call. [`Scratch`] pools those buffers: `take`
//! hands out a zeroed matrix of the requested shape, reusing a pooled
//! allocation when one exists, and `put` returns it. Because
//! [`crate::Matrix::resize`] keeps each buffer's capacity, every pooled
//! buffer converges to the largest shape demanded at its call site —
//! after a warm-up pass the arena never touches the allocator again.
//!
//! The arena is deliberately dumb (LIFO free list, no size classes):
//! the compute layers use a small, fixed number of temporaries with
//! stable shapes per call site, so best-fit machinery would buy nothing.
//! Besides the matrices it keeps one CSR buffer warm, the staged `xᵀ` of
//! a sparse input layer's weight gradient.

use crate::matrix::Matrix;
use crate::sparse::SparseRows;

/// A LIFO pool of reusable [`Matrix`] buffers, plus one [`SparseRows`].
#[derive(Debug, Default)]
pub struct Scratch {
    free: Vec<Matrix>,
    /// The CSR transpose [`crate::Linear::backward_sparse_leaf`] stages;
    /// its buffers grow to the largest input seen, then stay.
    pub(crate) xt: SparseRows,
}

impl Scratch {
    /// An empty arena; buffers are created on first use.
    pub fn new() -> Self {
        Scratch::default()
    }

    /// Take a zero-filled `rows × cols` matrix, reusing a pooled buffer
    /// when available (its capacity grows monotonically, so steady-state
    /// takes are allocation-free).
    pub fn take(&mut self, rows: usize, cols: usize) -> Matrix {
        let mut m = self.free.pop().unwrap_or_else(|| Matrix::zeros(0, 0));
        m.resize(rows, cols);
        m
    }

    /// Take a `rows × cols` matrix with **unspecified contents** (pooled
    /// or fresh) — for callers that overwrite every element anyway, e.g.
    /// a gradient buffer immediately filled by an overwrite-mode kernel.
    /// Skips `take`'s zero-fill pass.
    pub fn take_for_overwrite(&mut self, rows: usize, cols: usize) -> Matrix {
        let mut m = self.free.pop().unwrap_or_else(|| Matrix::zeros(0, 0));
        m.resize_for_overwrite(rows, cols);
        m
    }

    /// Return a buffer to the pool for later reuse.
    pub fn put(&mut self, m: Matrix) {
        self.free.push(m);
    }

    /// Number of buffers currently pooled (diagnostics/tests).
    pub fn pooled(&self) -> usize {
        self.free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_reuses_returned_buffers() {
        let mut s = Scratch::new();
        let mut m = s.take(4, 4);
        m.set(0, 0, 7.0);
        let ptr = m.data().as_ptr();
        s.put(m);
        assert_eq!(s.pooled(), 1);
        // Same-or-smaller shapes reuse the allocation and come back zeroed.
        let m2 = s.take(2, 8);
        assert_eq!(m2.data().as_ptr(), ptr);
        assert!(m2.data().iter().all(|&v| v == 0.0));
        s.put(m2);
    }

    #[test]
    fn takes_beyond_pool_allocate_fresh() {
        let mut s = Scratch::new();
        let a = s.take(2, 2);
        let b = s.take(3, 3);
        assert_eq!(s.pooled(), 0);
        assert_eq!(a.shape(), (2, 2));
        assert_eq!(b.shape(), (3, 3));
        s.put(a);
        s.put(b);
        assert_eq!(s.pooled(), 2);
    }
}
