//! The paper's two-layer MLP module (§3.2): `Linear → ReLU → Linear → f`
//! where `f` is ReLU inside the set modules and sigmoid in the final output
//! network.

use rand::Rng;

use crate::linear::{Linear, LinearGrads};
use crate::matrix::Matrix;
use crate::scratch::Scratch;
use crate::sparse::SparseRows;
use crate::{relu_backward_inplace, relu_inplace, sigmoid_backward_inplace, sigmoid_inplace};

/// Activation applied after the second layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FinalActivation {
    /// ReLU — used by the table/join/predicate set modules.
    Relu,
    /// Sigmoid — used by the output network so `w_out ∈ [0,1]`.
    Sigmoid,
}

/// Forward-pass intermediates needed by the backward pass. Reused across
/// calls: the matrices are resized in place, so a warm cache never
/// allocates.
#[derive(Clone, Debug, Default)]
pub struct MlpCache {
    /// Post-ReLU activations of the hidden layer.
    pub hidden: Matrix,
    /// Post-activation output of the second layer.
    pub output: Matrix,
}

impl MlpCache {
    /// An empty cache; buffers grow on first forward pass.
    pub fn new() -> Self {
        MlpCache::default()
    }
}

/// External gradient buffers for both layers of an [`Mlp`] — one per
/// data-parallel worker, reduced in fixed order after the backward pass.
#[derive(Clone, Debug)]
pub struct MlpGrads {
    /// First (input → hidden) layer gradients.
    pub l1: LinearGrads,
    /// Second (hidden → output) layer gradients.
    pub l2: LinearGrads,
}

impl MlpGrads {
    /// Reset to zero, keeping the allocations.
    pub fn zero(&mut self) {
        self.l1.zero();
        self.l2.zero();
    }

    /// Layer gradients in canonical order (first, second) — mirrors
    /// [`Mlp::layers_mut`] for the optimizer loop.
    pub fn layers(&self) -> [&LinearGrads; 2] {
        [&self.l1, &self.l2]
    }

    /// Layer gradients, mutable, in the order of [`MlpGrads::layers`].
    pub fn layers_mut(&mut self) -> [&mut LinearGrads; 2] {
        [&mut self.l1, &mut self.l2]
    }
}

/// Two fully-connected layers with ReLU in between.
#[derive(Clone, Debug)]
pub struct Mlp {
    l1: Linear,
    l2: Linear,
    final_act: FinalActivation,
}

impl Mlp {
    /// Construct `input → hidden → output` with Xavier init.
    pub fn new<R: Rng>(
        input: usize,
        hidden: usize,
        output: usize,
        final_act: FinalActivation,
        rng: &mut R,
    ) -> Self {
        Mlp { l1: Linear::new(input, hidden, rng), l2: Linear::new(hidden, output, rng), final_act }
    }

    /// Input width.
    pub fn input_dim(&self) -> usize {
        self.l1.input_dim()
    }

    /// Output width.
    pub fn output_dim(&self) -> usize {
        self.l2.output_dim()
    }

    /// Total scalar parameters of both layers.
    pub fn num_params(&self) -> usize {
        self.l1.num_params() + self.l2.num_params()
    }

    /// The activation applied after the second layer (quantization
    /// mirrors it into the int8 module).
    pub fn final_activation(&self) -> FinalActivation {
        self.final_act
    }

    /// Forward a dense batch `x: [n × input]`: writes hidden and output
    /// activations into `cache`, resizing its buffers in place.
    pub fn forward_into(&self, x: &Matrix, cache: &mut MlpCache) {
        self.l1.forward_into(x, &mut cache.hidden);
        self.forward_from_hidden(cache);
    }

    /// Forward a CSR-style sparse batch: the first layer gathers weight
    /// rows for the input's nonzeros only (the MSCN set-module inputs
    /// are ~85% zeros), the rest of the module is dense.
    /// Bitwise-identical to [`Mlp::forward_into`] on the densified input.
    pub fn forward_sparse_into(&self, x: &SparseRows, cache: &mut MlpCache) {
        self.l1.forward_sparse_into(x, &mut cache.hidden);
        self.forward_from_hidden(cache);
    }

    /// Everything after the first layer's pre-activations.
    fn forward_from_hidden(&self, cache: &mut MlpCache) {
        relu_inplace(&mut cache.hidden);
        self.l2.forward_into(&cache.hidden, &mut cache.output);
        match self.final_act {
            FinalActivation::Relu => relu_inplace(&mut cache.output),
            FinalActivation::Sigmoid => sigmoid_inplace(&mut cache.output),
        }
    }

    /// Backward pass for a dense input against external gradient
    /// buffers.
    ///
    /// `grad_out` (`∂L/∂output`, post-activation) is consumed in place;
    /// the one temporary (the hidden-layer gradient) comes from
    /// `scratch`. When `grad_in` is `Some`, it is overwritten with
    /// `∂L/∂x`; pass `None` to skip the first layer's input-gradient
    /// matmul entirely.
    pub fn backward_scratch(
        &self,
        x: &Matrix,
        cache: &MlpCache,
        grad_out: &mut Matrix,
        grads: &mut MlpGrads,
        scratch: &mut Scratch,
        grad_in: Option<&mut Matrix>,
    ) {
        let grad_hidden = self.backward_to_hidden(cache, grad_out, &mut grads.l2, scratch);
        self.l1.backward_scratch(x, &grad_hidden, &mut grads.l1, grad_in, scratch);
        scratch.put(grad_hidden);
    }

    /// Leaf-mode backward pass for a CSR input: like
    /// [`Mlp::backward_scratch`] with `grad_in: None`, but the first
    /// layer's weight gradient runs the forward's O(nnz) gather on the
    /// CSR transpose of `x` (see [`Linear::backward_sparse_leaf`]) — the
    /// same bits as the dense backward on the densified input.
    ///
    /// # Panics
    /// On a shape mismatch.
    pub fn backward_sparse_scratch(
        &self,
        x: &SparseRows,
        cache: &MlpCache,
        grad_out: &mut Matrix,
        grads: &mut MlpGrads,
        scratch: &mut Scratch,
    ) {
        let grad_hidden = self.backward_to_hidden(cache, grad_out, &mut grads.l2, scratch);
        self.l1.backward_sparse_leaf(x, &grad_hidden, &mut grads.l1, scratch);
        scratch.put(grad_hidden);
    }

    /// Backprop from `∂L/∂output` down to the first layer's
    /// pre-activations: accumulates the second layer's gradients and
    /// returns `∂L/∂(x·W₁ + b₁)` in a buffer taken from `scratch` (the
    /// caller puts it back).
    fn backward_to_hidden(
        &self,
        cache: &MlpCache,
        grad_out: &mut Matrix,
        l2_grads: &mut LinearGrads,
        scratch: &mut Scratch,
    ) -> Matrix {
        match self.final_act {
            FinalActivation::Relu => relu_backward_inplace(grad_out, &cache.output),
            FinalActivation::Sigmoid => sigmoid_backward_inplace(grad_out, &cache.output),
        }
        // For-overwrite: the l2 backward's input-gradient product fully
        // overwrites this buffer before anything reads it.
        let mut grad_hidden = scratch.take_for_overwrite(grad_out.rows(), self.l1.output_dim());
        self.l2.backward_scratch(
            &cache.hidden,
            grad_out,
            l2_grads,
            Some(&mut grad_hidden),
            scratch,
        );
        relu_backward_inplace(&mut grad_hidden, &cache.hidden);
        grad_hidden
    }

    /// Recompute both layers' cached `Wᵀ` (see
    /// [`Linear::refresh_transpose_cache`]) — called by the trainer after
    /// each optimizer step so every backward pass until the next update
    /// reuses the transposes instead of re-materializing them.
    pub fn refresh_transpose_cache(&mut self) {
        self.l1.refresh_transpose_cache();
        self.l2.refresh_transpose_cache();
    }

    /// Fresh zeroed external gradient buffers matching this module.
    pub fn new_grads(&self) -> MlpGrads {
        MlpGrads { l1: self.l1.new_grads(), l2: self.l2.new_grads() }
    }

    /// Both layers, first → second (optimizer/serializer order).
    pub fn layers_mut(&mut self) -> [&mut Linear; 2] {
        [&mut self.l1, &mut self.l2]
    }

    /// Read-only layer access, first → second.
    pub fn layers(&self) -> [&Linear; 2] {
        [&self.l1, &self.l2]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn sum_loss(mlp: &Mlp, x: &Matrix) -> f32 {
        let mut cache = MlpCache::new();
        mlp.forward_into(x, &mut cache);
        cache.output.data().iter().sum()
    }

    fn sum_loss_sparse(mlp: &Mlp, x: &SparseRows) -> f32 {
        let mut cache = MlpCache::new();
        mlp.forward_sparse_into(x, &mut cache);
        cache.output.data().iter().sum()
    }

    /// Both layers' gradients flattened (weights then bias, l1 then l2).
    fn flat(grads: &MlpGrads) -> Vec<f32> {
        grads.layers().iter().flat_map(|l| l.tensors()).flatten().copied().collect()
    }

    /// Finite-difference check of ∂L/∂x through the whole module, for both
    /// final activations.
    #[test]
    fn gradient_check_input() {
        for act in [FinalActivation::Relu, FinalActivation::Sigmoid] {
            let mut rng = SmallRng::seed_from_u64(7);
            let mlp = Mlp::new(5, 8, 3, act, &mut rng);
            let x = Matrix::from_vec(2, 5, (0..10).map(|i| (i as f32 - 5.0) * 0.17).collect());
            let mut cache = MlpCache::new();
            mlp.forward_into(&x, &mut cache);
            let mut ones = Matrix::from_vec(2, 3, vec![1.0; 6]);
            let (mut grads, mut scratch) = (mlp.new_grads(), Scratch::new());
            let mut grad_x = Matrix::zeros(0, 0);
            mlp.backward_scratch(
                &x,
                &cache,
                &mut ones,
                &mut grads,
                &mut scratch,
                Some(&mut grad_x),
            );
            // Both temporaries (hidden grad, transposes) return to the pool.
            assert_eq!(scratch.pooled(), 2, "temporaries must return to the pool");
            let eps = 1e-2f32;
            for &(i, j) in &[(0usize, 0usize), (1, 4), (0, 2)] {
                let mut xp = x.clone();
                xp.set(i, j, x.get(i, j) + eps);
                let mut xm = x.clone();
                xm.set(i, j, x.get(i, j) - eps);
                let numeric = (sum_loss(&mlp, &xp) - sum_loss(&mlp, &xm)) / (2.0 * eps);
                let analytic = grad_x.get(i, j);
                assert!(
                    (numeric - analytic).abs() < 2e-2,
                    "{act:?} dX[{i},{j}]: numeric {numeric} analytic {analytic}"
                );
            }
        }
    }

    /// Finite-difference check of a first-layer weight through both
    /// layers, for both final activations, on one-hot-like and on
    /// filled-in CSR inputs — and the dense-input backward on the
    /// densified rows must produce the same bits, with or without the
    /// input gradient.
    #[test]
    fn gradient_check_deep_weight() {
        let mut one_hot = SparseRows::new(8);
        for r in 0..6u32 {
            one_hot.push_row([((r * 3 + 2) % 8, 0.5 + 0.2 * r as f32)]);
        }
        let filled = SparseRows::from_dense(&Matrix::from_vec(
            3,
            8,
            (0..24).map(|i| (i as f32) * 0.1 - 1.15).collect(),
        ));

        for act in [FinalActivation::Relu, FinalActivation::Sigmoid] {
            for x in [&one_hot, &filled] {
                let mut rng = SmallRng::seed_from_u64(8);
                let mlp = Mlp::new(8, 6, 2, act, &mut rng);
                let n = x.rows();
                let mut cache = MlpCache::new();
                mlp.forward_sparse_into(x, &mut cache);
                let (mut grads, mut scratch) = (mlp.new_grads(), Scratch::new());
                let mut ones = Matrix::from_vec(n, 2, vec![1.0; n * 2]);
                mlp.backward_sparse_scratch(x, &cache, &mut ones, &mut grads, &mut scratch);

                let eps = 1e-2f32;
                let perturb = |at: usize, delta: f32| {
                    let mut m = mlp.clone();
                    let [l1, _] = m.layers_mut();
                    let mut w = l1.weights().data().to_vec();
                    w[at] += delta;
                    let b = l1.bias().to_vec();
                    l1.load(w, b);
                    m
                };
                // dW1[2,3] plus every entry of dW1 row 0.
                for at in [2 * 6 + 3, 0, 1, 2, 3, 4, 5] {
                    let up = sum_loss_sparse(&perturb(at, eps), x);
                    let down = sum_loss_sparse(&perturb(at, -eps), x);
                    let numeric = (up - down) / (2.0 * eps);
                    let analytic = grads.l1.w.data()[at];
                    assert!(
                        (numeric - analytic).abs() < 2e-2,
                        "{act:?} dW1[{at}]: numeric {numeric} analytic {analytic}"
                    );
                }

                let x_dense = x.to_dense();
                let mut dense_cache = MlpCache::new();
                mlp.forward_into(&x_dense, &mut dense_cache);
                assert_eq!(dense_cache.output.data(), cache.output.data());
                for want_input_grad in [true, false] {
                    let mut dense_grads = mlp.new_grads();
                    let mut ones = Matrix::from_vec(n, 2, vec![1.0; n * 2]);
                    let mut grad_in = Matrix::zeros(0, 0);
                    mlp.backward_scratch(
                        &x_dense,
                        &dense_cache,
                        &mut ones,
                        &mut dense_grads,
                        &mut scratch,
                        want_input_grad.then_some(&mut grad_in),
                    );
                    assert_eq!(flat(&dense_grads), flat(&grads), "{act:?}: grads must match");
                }
            }
        }
    }

    #[test]
    fn sigmoid_output_is_bounded() {
        let mut rng = SmallRng::seed_from_u64(9);
        let mlp = Mlp::new(3, 4, 1, FinalActivation::Sigmoid, &mut rng);
        let x = Matrix::from_vec(5, 3, (0..15).map(|i| i as f32 * 3.0 - 20.0).collect());
        let mut cache = MlpCache::new();
        mlp.forward_into(&x, &mut cache);
        assert!(cache.output.data().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn param_counting() {
        let mut rng = SmallRng::seed_from_u64(10);
        let mlp = Mlp::new(10, 20, 5, FinalActivation::Relu, &mut rng);
        assert_eq!(mlp.num_params(), 10 * 20 + 20 + 20 * 5 + 5);
        assert_eq!(mlp.input_dim(), 10);
        assert_eq!(mlp.output_dim(), 5);
    }
}
