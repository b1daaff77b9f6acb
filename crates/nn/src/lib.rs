//! # lc-nn — minimal neural-network library for the MSCN model
//!
//! The paper trains MSCN with PyTorch on a GPU; Rust's ML crates are still
//! immature for ragged set models, so this crate implements exactly the
//! pieces MSCN needs, from scratch, with hand-derived gradients:
//!
//! * [`Matrix`] — row-major `f32` matrices with the products backprop
//!   needs — `A·B`, fused `A·B + bias`, and `A·Bᵀ` as a staged
//!   transpose + `A·B` — cache-blocked/tiled and always writing into
//!   caller-provided buffers;
//! * [`kernels`] — the explicit SIMD micro-kernels behind every
//!   product, one dense `A·B` kernel and one sparse gather: AVX2+FMA
//!   inner loops with runtime dispatch (steered by [`RuntimeConfig`])
//!   and a bitwise-identical `f32::mul_add` scalar fallback. The dense
//!   kernel reads its left operand through a view
//!   ([`kernels::Operand`]), so `Aᵀ·B` reads `A` in place;
//! * [`qmatrix`] — the int8 post-training-quantization path:
//!   per-output-channel symmetric weight scales, per-row dynamic u8
//!   activation quantization (row-local, so batching stays transparent),
//!   and `maddubs/madd`-style integer micro-kernels (AVX2 +
//!   bitwise-identical scalar fallback) behind the same
//!   [`kernels::Kernel`] dispatch contract;
//! * [`RuntimeConfig`] — the one place runtime knobs live: kernel
//!   choice, train/infer worker counts, core pinning. `from_env()`
//!   parses the `LC_*` variables exactly once; binaries can `install()`
//!   an explicit config instead;
//! * [`SparseRows`] — CSR-style sparse row stacks, the only encoding of
//!   the ~85%-zero one-hot/bitmap set-module inputs. One O(nnz) gather
//!   kernel serves both directions: the fused forward
//!   ([`Linear::forward_sparse_into`]) and, on the CSR transpose
//!   ([`SparseRows::transpose_into`]), the weight gradient — each
//!   bitwise-equal to the dense kernel on the densified rows;
//! * [`WorkerPool`] — a persistent, pinned, barrier-synchronized worker
//!   pool shared by training steps, batch inference, and the serving
//!   layer (replaces per-step `thread::scope` fan-out), whose
//!   [`WorkerPool::run_chunks`] hands each participant its own `&mut`
//!   chunks, plus the one thread-placement policy over the process's
//!   CPU set ([`process_cpus`], [`pin_thread_to_core`], [`cpus_beside`]);
//! * [`Scratch`] — a reusable buffer arena so forward/backward passes
//!   run with zero steady-state allocations;
//! * [`Linear`] — fully-connected layer with Xavier init; gradients
//!   accumulate into caller-owned [`LinearGrads`];
//! * [`Mlp`] — the paper's two-layer MLP module with ReLU hidden
//!   activation and a configurable final activation (ReLU for the set
//!   modules, sigmoid for the output network);
//! * [`Adam`] — the Adam optimizer [Kingma & Ba, 2014] used in §3.2;
//! * [`LossKind`] — the three training objectives of §4.8: mean q-error
//!   (the default), mean squared error, and geometric-mean q-error, all
//!   defined on the normalized log-cardinality space.
//!
//! Everything is deterministic given the seed, and every gradient path is
//! validated against finite differences in the test suite.

mod adam;
pub mod kernels;
mod linear;
mod loss;
mod matrix;
mod mlp;
pub mod pool;
pub mod qmatrix;
pub mod runtime;
mod scratch;
mod sparse;

pub use adam::Adam;
pub use kernels::{avx2_available, kernel_name, Kernel};
pub use linear::{Linear, LinearGrads};
pub use loss::LossKind;
pub use matrix::Matrix;
pub use mlp::{FinalActivation, Mlp, MlpCache, MlpGrads};
pub use pool::{
    core_for, cpus_beside, pin_thread_to_core, pin_thread_to_cpus, process_cpus, threads_spawned,
    WorkerPool,
};
pub use qmatrix::{QActs, QLinear, QMatrix, QMlp, QMlpCache};
pub use runtime::{KernelChoice, RuntimeConfig};
pub use scratch::Scratch;
pub use sparse::SparseRows;

/// ReLU applied element-wise in place.
pub fn relu_inplace(x: &mut Matrix) {
    for v in x.data_mut() {
        if *v < 0.0 {
            *v = 0.0;
        }
    }
}

/// Backprop through ReLU given the *post-activation* values:
/// `grad[i] = 0 where post[i] == 0`.
pub fn relu_backward_inplace(grad: &mut Matrix, post: &Matrix) {
    gate_each(grad, post, |g, p| {
        if p <= 0.0 {
            *g = 0.0;
        }
    });
}

/// Numerically stable logistic sigmoid.
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// Sigmoid applied element-wise in place.
pub fn sigmoid_inplace(x: &mut Matrix) {
    for v in x.data_mut() {
        *v = sigmoid(*v);
    }
}

/// Backprop through sigmoid given the post-activation values:
/// `grad *= post * (1 - post)`.
pub fn sigmoid_backward_inplace(grad: &mut Matrix, post: &Matrix) {
    gate_each(grad, post, |g, p| *g *= p * (1.0 - p));
}

/// Apply `gate(grad, post)` element-wise.
fn gate_each(grad: &mut Matrix, post: &Matrix, gate: impl Fn(&mut f32, f32)) {
    assert_eq!(grad.shape(), post.shape(), "gradient and activation shapes differ");
    grad.data_mut().iter_mut().zip(post.data()).for_each(|(g, &p)| gate(g, p));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_clamps_negatives() {
        let mut m = Matrix::from_vec(1, 4, vec![-1.0, 0.0, 2.0, -0.5]);
        relu_inplace(&mut m);
        assert_eq!(m.data(), &[0.0, 0.0, 2.0, 0.0]);
    }

    #[test]
    fn relu_backward_masks_by_post() {
        let post = Matrix::from_vec(1, 3, vec![0.0, 1.0, 3.0]);
        let mut g = Matrix::from_vec(1, 3, vec![5.0, 5.0, 5.0]);
        relu_backward_inplace(&mut g, &post);
        assert_eq!(g.data(), &[0.0, 5.0, 5.0]);
    }

    #[test]
    fn sigmoid_basics() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-7);
        assert!(sigmoid(20.0) > 0.999_99);
        assert!(sigmoid(-20.0) < 1e-5);
        // Stability at extremes: no NaN.
        assert!(sigmoid(-100.0).is_finite() && sigmoid(100.0).is_finite());
    }

    #[test]
    fn sigmoid_backward_matches_derivative() {
        let x = 0.7f32;
        let s = sigmoid(x);
        let post = Matrix::from_vec(1, 1, vec![s]);
        let mut g = Matrix::from_vec(1, 1, vec![1.0]);
        sigmoid_backward_inplace(&mut g, &post);
        let eps = 1e-3;
        let numeric = (sigmoid(x + eps) - sigmoid(x - eps)) / (2.0 * eps);
        assert!((g.data()[0] - numeric).abs() < 1e-4);
    }
}
