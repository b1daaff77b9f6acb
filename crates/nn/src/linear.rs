//! Fully-connected layer with Xavier initialization. Gradients accumulate
//! into caller-owned [`LinearGrads`], never inside the layer.

use rand::Rng;

use crate::kernels::Operand;
use crate::matrix::Matrix;

/// Gradient buffers for one [`Linear`] layer, held *outside* the layer so
/// data-parallel workers can each accumulate into their own copy against
/// a shared `&Linear` and reduce deterministically afterwards.
#[derive(Clone, Debug)]
pub struct LinearGrads {
    /// `∂L/∂W`, same shape as the weight matrix.
    pub w: Matrix,
    /// `∂L/∂b`.
    pub b: Vec<f32>,
}

impl LinearGrads {
    /// Zeroed gradients for an `input × output` layer.
    pub fn zeros(input: usize, output: usize) -> Self {
        LinearGrads { w: Matrix::zeros(input, output), b: vec![0.0; output] }
    }

    /// Reset to zero, keeping the allocations.
    pub fn zero(&mut self) {
        self.w.fill_zero();
        self.b.iter_mut().for_each(|v| *v = 0.0);
    }

    /// The two gradient tensors in canonical order (weights, bias) —
    /// mirrors [`Linear::params_mut`] for the optimizer loop.
    pub fn tensors(&self) -> [&[f32]; 2] {
        [self.w.data(), &self.b]
    }

    /// The two gradient tensors, mutable, in the order of
    /// [`LinearGrads::tensors`].
    pub fn tensors_mut(&mut self) -> [&mut [f32]; 2] {
        [self.w.data_mut(), &mut self.b]
    }
}

/// A dense layer `y = x·W + b` with `W: [in × out]`.
///
/// The layer holds parameters only. Both backward entry points take
/// `&self` and accumulate into a caller-provided [`LinearGrads`], so
/// data-parallel shards run concurrently against shared weights (and one
/// set module can process several ragged segments per mini-batch) without
/// touching the allocator: [`Linear::backward_scratch`] for dense inputs,
/// [`Linear::backward_sparse_leaf`] for the CSR feature rows.
#[derive(Clone, Debug)]
pub struct Linear {
    w: Matrix,
    b: Vec<f32>,
    /// Cached `Wᵀ` for the backward input-gradient product (see
    /// [`Linear::refresh_transpose_cache`]). The buffer persists across
    /// invalidations (resized in place), so steady-state training stays
    /// allocation-free.
    wt: Matrix,
    /// Whether `wt` currently matches `w`. Any mutable access to the
    /// parameters clears this; only an explicit refresh sets it.
    wt_valid: bool,
}

impl Linear {
    /// Xavier-uniform initialized layer.
    pub fn new<R: Rng>(input: usize, output: usize, rng: &mut R) -> Self {
        let bound = (6.0 / (input + output) as f32).sqrt();
        let data = (0..input * output).map(|_| rng.gen_range(-bound..bound)).collect();
        Linear {
            w: Matrix::from_vec(input, output, data),
            b: vec![0.0; output],
            wt: Matrix::zeros(0, 0),
            wt_valid: false,
        }
    }

    /// Recompute the cached `Wᵀ` from the current weights. The trainer
    /// calls this once per optimizer step; every backward pass until the
    /// next weight mutation then reuses the transpose instead of
    /// re-staging it per call (~10% of backward at high shard counts,
    /// and once per shard rather than once per step). Bitwise-neutral:
    /// the cached path feeds the *same* transposed operand to the *same*
    /// kernel the staging fallback uses.
    pub fn refresh_transpose_cache(&mut self) {
        self.w.transpose_into(&mut self.wt);
        self.wt_valid = true;
    }

    /// Fresh zeroed external gradient buffers matching this layer.
    pub fn new_grads(&self) -> LinearGrads {
        LinearGrads::zeros(self.input_dim(), self.output_dim())
    }

    /// Input width.
    pub fn input_dim(&self) -> usize {
        self.w.rows()
    }

    /// Output width.
    pub fn output_dim(&self) -> usize {
        self.w.cols()
    }

    /// Number of scalar parameters (`in·out + out`).
    pub fn num_params(&self) -> usize {
        self.w.rows() * self.w.cols() + self.b.len()
    }

    /// `x·W + b` written into `out` (resized in place) via the fused
    /// matmul-plus-bias kernel.
    pub fn forward_into(&self, x: &Matrix, out: &mut Matrix) {
        x.matmul_bias_into(&self.w, &self.b, out);
    }

    /// `x·W + b` for CSR-style sparse `x`: each output row is seeded with
    /// the bias and gathers `value ×` weight rows for the row's nonzeros
    /// only — O(nnz · out) instead of O(in · out), the win that makes the
    /// ~85%-zero one-hot/bitmap input layers cheap. Bitwise-identical to
    /// [`Linear::forward_into`] on the densified `x` (the skipped
    /// products are exact `fma(0, w, acc)` no-ops; see
    /// [`crate::kernels`]).
    ///
    /// # Panics
    /// If `x.cols() != self.input_dim()`.
    pub fn forward_sparse_into(&self, x: &crate::sparse::SparseRows, out: &mut Matrix) {
        crate::kernels::sparse_matmul_bias(x, &self.w, &self.b, out);
    }

    /// Leaf-mode backward for a CSR input `x`: accumulates
    /// `∂L/∂W = xᵀ·∂L/∂y` and `∂L/∂b` into `grads`. No input gradient —
    /// the sparse featurized inputs are always leaves.
    ///
    /// The weight gradient is the forward's gather kernel run backwards:
    /// `xᵀ` is staged as CSR
    /// ([`crate::SparseRows::transpose_into`], into a buffer `scratch`
    /// keeps warm) and gathers rows of `∂L/∂y` into `grads.w`, seeded from
    /// its current contents. Per element that is one ascending-row fused
    /// chain over the rows where the input column is nonzero,
    /// O(nnz · out) whatever the density.
    ///
    /// # Panics
    /// On a shape mismatch.
    pub fn backward_sparse_leaf(
        &self,
        x: &crate::sparse::SparseRows,
        grad_out: &Matrix,
        grads: &mut LinearGrads,
        scratch: &mut crate::scratch::Scratch,
    ) {
        x.transpose_into(&mut scratch.xt);
        crate::kernels::sparse_matmul_accumulate(&scratch.xt, grad_out, &mut grads.w);
        accumulate_bias_grads(grad_out, grads);
    }

    /// Backward pass for a dense input `x`: accumulates `∂L/∂W`, `∂L/∂b`
    /// into `grads` and, when `grad_in` is provided, overwrites it with
    /// `∂L/∂x` per row of `grad_out` (using a `scratch` buffer for the
    /// transposed weights unless the `Wᵀ` cache is fresh). Pass `None`
    /// when nobody consumes the input gradient — that skips an entire
    /// matmul.
    ///
    /// The weight gradient runs the blocked kernel on `x` read in place
    /// as a transposed [`Operand`] view — no staged `xᵀ` — accumulating
    /// into `grads.w`: per output element the ascending-row fused chain,
    /// at kernel throughput instead of read-modify-write speed.
    ///
    /// # Panics
    /// On a shape mismatch.
    pub fn backward_scratch(
        &self,
        x: &Matrix,
        grad_out: &Matrix,
        grads: &mut LinearGrads,
        grad_in: Option<&mut Matrix>,
        scratch: &mut crate::scratch::Scratch,
    ) {
        crate::kernels::matmul_accumulate(Operand::transposed(x), grad_out, &mut grads.w);
        accumulate_bias_grads(grad_out, grads);
        if let Some(grad_in) = grad_in {
            if self.wt_valid {
                // Cached-transpose fast path: identical operand, identical
                // kernel, so bitwise-identical to the scratch transpose
                // below — just without re-materializing `Wᵀ` per call.
                grad_out.matmul_into(&self.wt, grad_in);
            } else {
                let mut wt = scratch.take(0, 0);
                self.w.transpose_into(&mut wt);
                grad_out.matmul_into(&wt, grad_in);
                scratch.put(wt);
            }
        }
    }

    /// Mutable parameter tensors in canonical order (weights, bias) —
    /// pairs with [`LinearGrads::tensors`] in the external-gradient
    /// optimizer loop.
    pub fn params_mut(&mut self) -> [&mut [f32]; 2] {
        let Linear { w, b, wt_valid, .. } = self;
        *wt_valid = false; // caller may mutate the weights
        [w.data_mut(), b.as_mut_slice()]
    }

    /// Read-only view of the weight matrix.
    pub fn weights(&self) -> &Matrix {
        &self.w
    }

    /// Read-only view of the bias.
    pub fn bias(&self) -> &[f32] {
        &self.b
    }

    /// Overwrite parameters (deserialization).
    ///
    /// # Panics
    /// If the shapes do not match.
    pub fn load(&mut self, w: Vec<f32>, b: Vec<f32>) {
        assert_eq!(w.len(), self.w.rows() * self.w.cols(), "weight size mismatch");
        assert_eq!(b.len(), self.b.len(), "bias size mismatch");
        self.w = Matrix::from_vec(self.w.rows(), self.w.cols(), w);
        self.b = b;
        self.wt_valid = false;
    }
}

/// `∂L/∂b += Σ_rows ∂L/∂y`, shared by both backward entry points.
fn accumulate_bias_grads(grad_out: &Matrix, grads: &mut LinearGrads) {
    for i in 0..grad_out.rows() {
        for (gb, &g) in grads.b.iter_mut().zip(grad_out.row(i)) {
            *gb += g;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    use crate::scratch::Scratch;
    use crate::sparse::SparseRows;

    /// Scalar loss used in gradient checks: sum of all outputs.
    fn loss(layer: &Linear, x: &SparseRows) -> f32 {
        let mut y = Matrix::zeros(0, 0);
        layer.forward_sparse_into(x, &mut y);
        y.data().iter().sum()
    }

    /// A copy of `layer` with `W[i, j]` nudged by `delta`.
    fn perturbed(layer: &Linear, i: usize, j: usize, delta: f32) -> Linear {
        let mut w = layer.weights().clone();
        w.set(i, j, w.get(i, j) + delta);
        let mut out = layer.clone();
        out.load(w.data().to_vec(), layer.bias().to_vec());
        out
    }

    /// CSR gradient-check inputs of both densities: one-hot-like rows
    /// and fully dense rows.
    fn one_hot_and_dense_inputs(cols: usize) -> [SparseRows; 2] {
        let mut sparse = SparseRows::new(cols);
        for r in 0..6usize {
            sparse.push_row([((r * 3 % cols) as u32, 0.4 + 0.3 * r as f32)]);
        }
        let dense = SparseRows::from_dense(&Matrix::from_vec(
            2,
            cols,
            (0..2 * cols).map(|i| (i as f32 - 4.5) * 0.3).collect(), // never 0
        ));
        [sparse, dense]
    }

    #[test]
    fn forward_shape_and_bias() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut l = Linear::new(3, 2, &mut rng);
        l.load(vec![0.0; 6], vec![7.0, -1.0]);
        let x = Matrix::from_vec(2, 3, vec![1.0; 6]);
        let mut y = Matrix::zeros(0, 0);
        l.forward_into(&x, &mut y);
        assert_eq!(y.shape(), (2, 2));
        assert_eq!(y.row(0), &[7.0, -1.0]);
    }

    /// Finite differences against the external-gradient backward, on
    /// one-hot and dense CSR inputs — and the dense-input
    /// [`Linear::backward_scratch`] must land on the same bits.
    #[test]
    fn gradient_check_weights_and_bias() {
        let mut rng = SmallRng::seed_from_u64(2);
        let layer = Linear::new(8, 3, &mut rng);
        let mut scratch = Scratch::new();
        for x in one_hot_and_dense_inputs(8) {
            let n = x.rows();
            // Analytic gradients with dL/dy = 1.
            let ones = Matrix::from_vec(n, 3, vec![1.0; n * 3]);
            let mut grads = layer.new_grads();
            layer.backward_sparse_leaf(&x, &ones, &mut grads, &mut scratch);

            let eps = 1e-2f32;
            for (i, j) in [(0usize, 0usize), (1, 2), (3, 1), (6, 0)] {
                let up = loss(&perturbed(&layer, i, j, eps), &x);
                let down = loss(&perturbed(&layer, i, j, -eps), &x);
                let numeric = (up - down) / (2.0 * eps);
                let analytic = grads.w.get(i, j);
                assert!(
                    (numeric - analytic).abs() < 1e-2,
                    "dW[{i},{j}]: numeric {numeric} analytic {analytic}"
                );
            }
            // dL/db = one per row for each output.
            assert!(grads.b.iter().all(|&g| (g - n as f32).abs() < 1e-5));

            // The dense-input backward on the densified rows: identical
            // parameter gradients, with or without the input gradient,
            // and dL/dx = row sums of W.
            let x_dense = x.to_dense();
            let mut full = layer.new_grads();
            let mut grad_x = Matrix::zeros(0, 0);
            layer.backward_scratch(&x_dense, &ones, &mut full, Some(&mut grad_x), &mut scratch);
            let mut no_input_grad = layer.new_grads();
            layer.backward_scratch(&x_dense, &ones, &mut no_input_grad, None, &mut scratch);
            for g in [&full, &no_input_grad] {
                assert_eq!(g.w.data(), grads.w.data(), "weight grads must match bitwise");
                assert_eq!(g.b, grads.b);
            }
            for r in 0..n {
                for k in 0..8 {
                    let expected: f32 = (0..3).map(|j| layer.weights().get(k, j)).sum();
                    assert!((grad_x.get(r, k) - expected).abs() < 1e-4);
                }
            }
        }
    }

    /// The cached-`Wᵀ` backward path must be bitwise-identical to the
    /// per-call transpose path, and every weight-mutation entry point
    /// must invalidate the cache.
    #[test]
    fn transpose_cache_is_bitwise_neutral_and_invalidated() {
        let mut rng = SmallRng::seed_from_u64(19);
        let mut layer = Linear::new(6, 4, &mut rng);
        let x = Matrix::from_vec(3, 6, (0..18).map(|i| (i as f32 - 9.0) * 0.21).collect());
        let grad_out = Matrix::from_vec(3, 4, (0..12).map(|i| 0.17 * i as f32 - 0.9).collect());
        let mut scratch = Scratch::new();

        // Reference: the uncached path.
        assert!(!layer.wt_valid, "fresh layers start uncached");
        let mut cold = layer.new_grads();
        let mut grad_in_cold = Matrix::zeros(0, 0);
        layer.backward_scratch(&x, &grad_out, &mut cold, Some(&mut grad_in_cold), &mut scratch);

        // Cached path: same bits, without staging `Wᵀ` in the scratch.
        layer.refresh_transpose_cache();
        assert!(layer.wt_valid);
        let mut warm = layer.new_grads();
        let mut grad_in_warm = Matrix::zeros(0, 0);
        layer.backward_scratch(&x, &grad_out, &mut warm, Some(&mut grad_in_warm), &mut scratch);
        assert_eq!(grad_in_warm.data(), grad_in_cold.data(), "input grads must match bitwise");
        assert_eq!(warm.w.data(), cold.w.data());
        assert_eq!(warm.b, cold.b);

        // Every mutable-parameter entry point invalidates.
        layer.refresh_transpose_cache();
        let _ = layer.params_mut();
        assert!(!layer.wt_valid, "params_mut must invalidate");
        layer.refresh_transpose_cache();
        let (w, b) = (layer.weights().data().to_vec(), layer.bias().to_vec());
        layer.load(w, b);
        assert!(!layer.wt_valid, "load must invalidate");

        // A stale cache is never consulted: mutate a weight through
        // params_mut, then check the fallback path sees the new value.
        layer.refresh_transpose_cache();
        layer.params_mut()[0][0] += 1.0;
        let mut after = layer.new_grads();
        let mut grad_in_after = Matrix::zeros(0, 0);
        layer.backward_scratch(&x, &grad_out, &mut after, Some(&mut grad_in_after), &mut scratch);
        let (mut expect, mut wt) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
        layer.weights().transpose_into(&mut wt);
        grad_out.matmul_into(&wt, &mut expect);
        assert_eq!(grad_in_after.data(), expect.data(), "stale cache must not be used");
        assert_ne!(grad_in_after.data(), grad_in_cold.data(), "weight change must show through");
    }

    #[test]
    fn gradients_accumulate_until_cleared() {
        let mut rng = SmallRng::seed_from_u64(3);
        let l = Linear::new(2, 2, &mut rng);
        let x = Matrix::from_vec(1, 2, vec![1.0, 2.0]);
        let g = Matrix::from_vec(1, 2, vec![1.0, 1.0]);
        let mut scratch = Scratch::new();
        let mut grads = l.new_grads();
        l.backward_scratch(&x, &g, &mut grads, None, &mut scratch);
        let once = grads.w.get(1, 0);
        l.backward_scratch(&x, &g, &mut grads, None, &mut scratch);
        assert!((grads.w.get(1, 0) - 2.0 * once).abs() < 1e-6);
        grads.zero();
        assert_eq!(grads.w.get(1, 0), 0.0);
    }

    #[test]
    fn xavier_init_is_bounded_and_seeded() {
        let mut rng = SmallRng::seed_from_u64(4);
        let a = Linear::new(10, 10, &mut rng);
        let bound = (6.0f32 / 20.0).sqrt();
        assert!(a.weights().data().iter().all(|v| v.abs() <= bound));
        let mut rng = SmallRng::seed_from_u64(4);
        let b = Linear::new(10, 10, &mut rng);
        assert_eq!(a.weights().data(), b.weights().data());
        assert_eq!(a.num_params(), 110);
    }
}
