//! Property tests: the blocked/tiled product kernels must agree with a
//! textbook naive reference on arbitrary shapes and contents — including
//! shapes straddling every tile/register-block boundary and operands with
//! one-hot-like sparsity — and the AVX2 and scalar dispatch paths (plus
//! the sparse input-layer path) must be **bitwise identical**, not just
//! close: that identity is what lets `LC_KERNEL` and heterogeneous
//! hardware never change a trained weight or an estimate.

use lc_nn::kernels::{
    matmul_accumulate_with, matmul_with, sparse_matmul_bias_with, sparse_transa_accumulate_with,
};
use lc_nn::qmatrix::{qmatmul_dequant_bias_with, qsparse_matmul_dequant_bias_with, quantize_csr};
use lc_nn::{avx2_available, Kernel, Matrix, QActs, QMatrix, SparseRows};
use proptest::prelude::*;

/// Naive ijk reference.
fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for j in 0..b.cols() {
            let mut acc = 0.0f32;
            for k in 0..a.cols() {
                acc += a.get(i, k) * b.get(k, j);
            }
            out.set(i, j, acc);
        }
    }
    out
}

/// Build a matrix by cycling through integer value/mask pools (the
/// vendored proptest stub generates integers only).
fn matrix_from(rows: usize, cols: usize, vals: &[i32], zero_mask: &[u8]) -> Matrix {
    let data = (0..rows * cols)
        .map(|i| {
            if zero_mask[i % zero_mask.len()] == 0 {
                0.0
            } else {
                vals[i % vals.len()] as f32 / 100.0
            }
        })
        .collect();
    Matrix::from_vec(rows, cols, data)
}

/// Every dispatch tier this host can run.
fn dispatch_tiers() -> Vec<Kernel> {
    let mut tiers = vec![Kernel::Scalar];
    if avx2_available() {
        tiers.push(Kernel::Avx2);
    }
    tiers
}

/// Strategy inputs: shapes up to 3× the register block / beyond one k
/// tile, value pools, and a sparsity mask pattern.
fn shapes() -> impl Strategy<Value = (usize, usize, usize)> {
    (1usize..80, 1usize..300, 1usize..100)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// `matmul_into` (tiled + register-blocked) matches naive within
    /// 1e-5 relative tolerance, on dirty output buffers of any prior
    /// shape.
    #[test]
    fn matmul_into_matches_naive(
        (r, k, c) in shapes(),
        vals in proptest::collection::vec(-200i32..200, 8..32),
        mask in proptest::collection::vec(0u8..2, 4..16),
        stale_rows in 0usize..40,
    ) {
        let a = matrix_from(r, k, &vals, &mask);
        let b = matrix_from(k, c, &vals, &[1]);
        let expected = naive_matmul(&a, &b);
        let mut out = Matrix::from_vec(stale_rows, 3, vec![7.0; stale_rows * 3]);
        a.matmul_into(&b, &mut out);
        prop_assert_eq!(out.shape(), (r, c));
        for i in 0..r {
            for j in 0..c {
                let (got, want) = (out.get(i, j), expected.get(i, j));
                prop_assert!(
                    (got - want).abs() <= 1e-5 * want.abs().max(1.0),
                    "({}, {}): got {} want {}", i, j, got, want
                );
            }
        }
    }

    /// The fused bias kernel equals matmul followed by a bias add.
    #[test]
    fn matmul_bias_into_matches_naive(
        (r, k, c) in shapes(),
        vals in proptest::collection::vec(-200i32..200, 8..32),
        mask in proptest::collection::vec(0u8..2, 4..16),
    ) {
        let a = matrix_from(r, k, &vals, &mask);
        let b = matrix_from(k, c, &vals, &[1]);
        let bias: Vec<f32> = (0..c).map(|j| vals[j % vals.len()] as f32 / 200.0).collect();
        let expected = naive_matmul(&a, &b);
        let mut out = Matrix::zeros(0, 0);
        a.matmul_bias_into(&b, &bias, &mut out);
        for i in 0..r {
            for (j, &bias_j) in bias.iter().enumerate() {
                let want = expected.get(i, j) + bias_j;
                prop_assert!((out.get(i, j) - want).abs() <= 1e-4 * want.abs().max(1.0));
            }
        }
    }

    /// `A·Bᵀ` (transpose + blocked matmul) matches naive, and the two
    /// ways backward reaches it — `matmul_transb_scratch` re-staging `Bᵀ`
    /// per call, and `matmul_into` against a cached `Bᵀ` — agree bitwise,
    /// which is what lets `Linear` cache its weight transpose freely.
    #[test]
    fn matmul_transb_paths_match(
        (r, k, c) in shapes(),
        vals in proptest::collection::vec(-200i32..200, 8..32),
        mask in proptest::collection::vec(0u8..2, 4..16),
    ) {
        let a = matrix_from(r, k, &vals, &mask);
        let b = matrix_from(c, k, &vals, &[1]); // b: [c × k], used transposed
        let mut bt = Matrix::zeros(0, 0);
        b.transpose_into(&mut bt);
        let expected = naive_matmul(&a, &bt);
        let mut cached = Matrix::zeros(0, 0);
        a.matmul_into(&bt, &mut cached);
        let mut fast = Matrix::from_vec(2, 2, vec![7.0; 4]);
        let mut tmp = Matrix::zeros(0, 0);
        a.matmul_transb_scratch(&b, &mut fast, &mut tmp);
        prop_assert_eq!(
            cached.data(), fast.data(),
            "cached-transpose and per-call-transpose paths must agree bitwise"
        );
        for i in 0..r {
            for j in 0..c {
                let (got, want) = (fast.get(i, j), expected.get(i, j));
                prop_assert!((got - want).abs() <= 1e-5 * want.abs().max(1.0));
            }
        }
    }

    /// The AVX2 and scalar dispatch paths of the dense matmul kernel are
    /// bitwise identical on arbitrary shapes and sparsity — including a
    /// bias-seeded output (the fused forward) and dirty k-tile edges.
    #[test]
    fn avx2_and_scalar_matmul_are_bitwise_identical(
        (r, k, c) in shapes(),
        vals in proptest::collection::vec(-200i32..200, 8..32),
        mask in proptest::collection::vec(0u8..2, 4..16),
    ) {
        if avx2_available() {
            let a = matrix_from(r, k, &vals, &mask);
            let b = matrix_from(k, c, &vals, &[1]);
            let bias: Vec<f32> = (0..c).map(|j| vals[j % vals.len()] as f32 / 200.0).collect();
            let seed = {
                let mut m = Matrix::zeros(r, c);
                for i in 0..r {
                    m.row_mut(i).copy_from_slice(&bias);
                }
                m
            };
            let mut scalar = seed.clone();
            let mut avx2 = seed;
            matmul_accumulate_with(Kernel::Scalar, &a, &b, &mut scalar);
            matmul_accumulate_with(Kernel::Avx2, &a, &b, &mut avx2);
            prop_assert_eq!(scalar.data(), avx2.data(), "matmul dispatch paths must match bitwise");

            // Seed (overwrite) mode: stale contents must be ignored and
            // both dispatch paths must still agree bitwise — this is the
            // mode matmul_into / matmul_transb_scratch run in production.
            let mut scalar_s = Matrix::from_vec(r, c, vec![9.0; r * c]);
            let mut avx2_s = Matrix::from_vec(r, c, vec![-7.0; r * c]);
            matmul_with(Kernel::Scalar, &a, &b, &mut scalar_s, true);
            matmul_with(Kernel::Avx2, &a, &b, &mut avx2_s, true);
            prop_assert_eq!(
                scalar_s.data(), avx2_s.data(),
                "seed-mode dispatch paths must match bitwise"
            );
            let mut zeroed = Matrix::zeros(r, c);
            matmul_accumulate_with(Kernel::Scalar, &a, &b, &mut zeroed);
            prop_assert_eq!(
                scalar_s.data(), zeroed.data(),
                "seed mode must equal zero-fill + accumulate bitwise"
            );
        }
    }

    /// The sparse input-layer forward matches the dense fused forward
    /// **bitwise** on one-hot/bitmap-like rows, on both dispatch paths.
    #[test]
    fn sparse_paths_match_dense_bitwise(
        (r, k, c) in shapes(),
        vals in proptest::collection::vec(-200i32..200, 8..32),
        mask in proptest::collection::vec(0u8..2, 4..16),
    ) {
        let x = matrix_from(r, k, &vals, &mask); // one-hot/bitmap-like: ~half zeros
        let w = matrix_from(k, c, &vals, &[1]);
        let bias: Vec<f32> = (0..c).map(|j| vals[j % vals.len()] as f32 / 200.0).collect();
        let sp = SparseRows::from_dense(&x);
        prop_assert_eq!(sp.to_dense(), x.clone(), "CSR view must round-trip the dense rows");

        for kernel in dispatch_tiers() {
            // Dense fused forward: bias-seeded accumulate.
            let mut dense = Matrix::zeros(r, c);
            for i in 0..r {
                dense.row_mut(i).copy_from_slice(&bias);
            }
            matmul_accumulate_with(kernel, &x, &w, &mut dense);
            let mut sparse = Matrix::zeros(0, 0);
            sparse_matmul_bias_with(kernel, &sp, &w, &bias, &mut sparse);
            prop_assert_eq!(
                dense.data(), sparse.data(),
                "{:?}: sparse forward must match the dense fused forward bitwise", kernel
            );
        }
    }

    /// Weight quantization invariants on arbitrary matrices: every
    /// quantized weight is in the symmetric int8 range, dequantization
    /// error is within half a step for weights inside the (possibly
    /// MSE-clipped) representable range, and the per-channel MSE never
    /// exceeds naive max-abs scaling.
    #[test]
    fn weight_quantization_error_is_per_channel_bounded(
        (k, c) in (1usize..120, 1usize..40),
        vals in proptest::collection::vec(-200i32..200, 8..32),
        mask in proptest::collection::vec(0u8..2, 4..16),
    ) {
        let w = matrix_from(k, c, &vals, &mask);
        let q = QMatrix::quantize(&w);
        prop_assert!(q.weights().iter().all(|&v| (-127..=127).contains(&(v as i32))));
        let back = q.dequantize();
        for j in 0..c {
            let scale = q.scales()[j];
            prop_assert!(scale > 0.0);
            let half_step = scale * 0.5 + 1e-6;
            let clip_limit = scale * 126.5;
            for i in 0..k {
                let err = (back.get(i, j) - w.get(i, j)).abs();
                if w.get(i, j).abs() <= clip_limit {
                    prop_assert!(
                        err <= half_step,
                        "channel {} weight {}: err {} > half step {}", j, i, err, half_step
                    );
                }
            }
        }
    }

    /// The int8 dense and sparse kernels agree bitwise across dispatch
    /// tiers and with each other on arbitrary non-negative activations —
    /// the quantized twin of `sparse_paths_match_dense_bitwise`.
    #[test]
    fn quantized_paths_match_bitwise(
        (r, k, c) in (1usize..40, 1usize..150, 1usize..40),
        vals in proptest::collection::vec(-200i32..200, 8..32),
        mask in proptest::collection::vec(0u8..2, 4..16),
    ) {
        // Non-negative activations (the u8 scheme's precondition).
        let x = {
            let m = matrix_from(r, k, &vals, &mask);
            let data = m.data().iter().map(|v| v.abs()).collect();
            Matrix::from_vec(r, k, data)
        };
        let w = matrix_from(k, c, &vals, &[1]);
        let bias: Vec<f32> = (0..c).map(|j| vals[j % vals.len()] as f32 / 200.0).collect();
        let qw = QMatrix::quantize(&w);
        let mut qa = QActs::new();
        qa.quantize_from(&x);

        let mut scalar = Matrix::zeros(0, 0);
        qmatmul_dequant_bias_with(Kernel::Scalar, &qa, &qw, &bias, &mut scalar);
        if avx2_available() {
            let mut avx2 = Matrix::zeros(0, 0);
            qmatmul_dequant_bias_with(Kernel::Avx2, &qa, &qw, &bias, &mut avx2);
            prop_assert_eq!(
                scalar.data(), avx2.data(),
                "int8 dense dispatch paths must match bitwise"
            );
        }

        // Sparse path on the CSR view: same scales, same bits.
        let sp = SparseRows::from_dense(&x);
        let mut q = Vec::new();
        let mut scales = Vec::new();
        quantize_csr(&sp, &mut q, &mut scales);
        prop_assert_eq!(&scales[..], qa.scales(), "zeros cannot change a row max");
        let mut sparse = Matrix::zeros(0, 0);
        qsparse_matmul_dequant_bias_with(Kernel::Scalar, &sp, &q, &scales, &qw, &bias, &mut sparse);
        prop_assert_eq!(
            scalar.data(), sparse.data(),
            "int8 sparse path must match the dense path bitwise"
        );
        if avx2_available() {
            // AVX2 sparse without the companion layout (densify / narrow
            // walk) and with it (pair-event strips): same bits again.
            let mut sparse_avx2 = Matrix::zeros(0, 0);
            qsparse_matmul_dequant_bias_with(
                Kernel::Avx2, &sp, &q, &scales, &qw, &bias, &mut sparse_avx2,
            );
            prop_assert_eq!(
                scalar.data(), sparse_avx2.data(),
                "int8 sparse AVX2 tier must match the scalar tier bitwise"
            );
            let mut qw_pm = qw.clone();
            qw_pm.build_pair_major();
            let mut sparse_pm = Matrix::zeros(0, 0);
            qsparse_matmul_dequant_bias_with(
                Kernel::Avx2, &sp, &q, &scales, &qw_pm, &bias, &mut sparse_pm,
            );
            prop_assert_eq!(
                scalar.data(), sparse_pm.data(),
                "pair-interleaved sparse fast path must match the scalar tier bitwise"
            );
        }
    }

    /// The two weight-gradient strategies of a sparse input layer are the
    /// same bits on both dispatch paths: O(nnz) gather updates
    /// (`sparse_transa_accumulate_with`) versus `xᵀ` staged from the CSR
    /// rows + the blocked matmul kernel — accumulating into a non-zero
    /// `out`, as gradient buffers do across ragged segments. This is
    /// exactly what `Linear::backward_sparse_leaf`'s density switch
    /// relies on; naive `xᵀ·g` bounds both from the outside.
    #[test]
    fn sparse_transa_matches_staged_transpose_matmul_bitwise(
        (r, k, c) in shapes(),
        vals in proptest::collection::vec(-200i32..200, 8..32),
        mask in proptest::collection::vec(0u8..2, 4..16),
    ) {
        let x = matrix_from(r, k, &vals, &mask);
        let g = matrix_from(r, c, &vals, &[1]);
        let sp = SparseRows::from_dense(&x);
        let mut xt_dense = Matrix::zeros(0, 0);
        x.transpose_into(&mut xt_dense);
        let mut xt = Matrix::from_vec(3, 2, vec![5.0; 6]);
        sp.transpose_into(&mut xt);
        prop_assert_eq!(&xt, &xt_dense, "CSR-staged transpose must equal the dense transpose");
        let expected = naive_matmul(&xt, &g);

        let seed = matrix_from(k, c, &vals, &mask);
        for kernel in dispatch_tiers() {
            let mut gathered = seed.clone();
            sparse_transa_accumulate_with(kernel, &sp, &g, &mut gathered);
            let mut staged = seed.clone();
            matmul_accumulate_with(kernel, &xt, &g, &mut staged);
            prop_assert_eq!(
                gathered.data(), staged.data(),
                "{:?}: gather and transpose-then-matmul must match bitwise", kernel
            );
            for i in 0..k {
                for j in 0..c {
                    let (got, want) = (staged.get(i, j) - seed.get(i, j), expected.get(i, j));
                    prop_assert!((got - want).abs() <= 1e-4 * want.abs().max(1.0));
                }
            }
        }
    }
}
