//! Property tests: the blocked/tiled product kernels must equal their
//! documented contract **bitwise** on arbitrary shapes and contents —
//! including shapes straddling every tile/register-block boundary and
//! operands with one-hot-like sparsity — on every dispatch tier, and the
//! sparse gather must equal the dense kernel on the densified rows. That
//! identity is what lets `LC_KERNEL` and heterogeneous hardware never
//! change a trained weight or an estimate.
//!
//! The dense kernel reads its left operand through a view — as stored or
//! transposed — and every view must equal the fused reference on the matrix it reads
//! as, on both tiers and in both seed modes.
//!
//! The case count follows `PROPTEST_CASES` (256 by default); CI also runs
//! this file at 4096 cases in a release build.

use lc_nn::kernels::{matmul_accumulate_with, matmul_with, sparse_matmul_bias_with, Operand};
use lc_nn::qmatrix::{qmatmul_dequant_bias_with, qsparse_matmul_dequant_bias_with, quantize_csr};
use lc_nn::{avx2_available, Kernel, Matrix, QActs, QMatrix, SparseRows};
use proptest::prelude::*;

/// The kernels' contract, one element at a time: `out[i][j]` starts at
/// `seed[i][j]` (zero, the broadcast bias, or the prior `out`) and fuses
/// `a[i][k] · b[k][j]` in ascending `k`, one `mul_add` per step. A
/// mul-then-add reference rounds twice per step and drifts from the
/// kernels by more than any fixed tolerance on long reductions, so the
/// comparison is exact instead.
fn fused_reference(a: &Matrix, b: &Matrix, seed: &Matrix) -> Matrix {
    assert_eq!(seed.shape(), (a.rows(), b.cols()));
    let mut out = seed.clone();
    for i in 0..a.rows() {
        for j in 0..b.cols() {
            let acc =
                (0..a.cols()).fold(seed.get(i, j), |acc, k| a.get(i, k).mul_add(b.get(k, j), acc));
            out.set(i, j, acc);
        }
    }
    out
}

/// `bias` broadcast over `rows` rows — the seed of a fused forward.
fn broadcast(bias: &[f32], rows: usize) -> Matrix {
    Matrix::from_vec(
        rows,
        bias.len(),
        bias.iter().copied().cycle().take(rows * bias.len()).collect(),
    )
}

/// The dense transpose, element by element.
fn transposed(m: &Matrix) -> Matrix {
    let mut t = Matrix::zeros(m.cols(), m.rows());
    for i in 0..m.rows() {
        for j in 0..m.cols() {
            t.set(j, i, m.get(i, j));
        }
    }
    t
}

/// Textbook int8 reference: plain `i32` dot products over the quantized
/// operands plus the kernels' shared dequantization expression. With
/// activations in `[0, 127]` no pair saturates, so every kernel must
/// match it bitwise.
fn naive_qmatmul(x: &QActs, w: &QMatrix, bias: &[f32]) -> Matrix {
    let mut out = Matrix::zeros(x.rows(), w.output_dim());
    for i in 0..x.rows() {
        let s = x.scales()[i];
        for (j, &b) in bias.iter().enumerate() {
            let acc: i32 =
                x.row(i).iter().zip(w.channel(j)).map(|(&q, &wq)| q as i32 * wq as i32).sum();
            out.set(i, j, acc as f32 * (s * w.scales()[j]) + b);
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

/// Output widths on both sides of the AVX2 kernel's 8-lane vectors, its
/// 32-column register block and the 8-column narrow path.
const WIDTHS: [usize; 9] = [1, 7, 8, 9, 31, 32, 33, 64, 65];
/// Reduction lengths on both sides of one `TILE_K` (256) k tile.
const REDUCTIONS: [usize; 5] = [0, 1, 255, 256, 257];

/// Every view of `A` against the fused reference on the matrix it reads
/// as, on every tier, accumulating into `prior` and overwriting a dirty
/// output.
fn check_view(
    view: Operand<'_>,
    reads_as: &Matrix,
    b: &Matrix,
    prior: &Matrix,
    name: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!((view.rows(), view.cols()), reads_as.shape(), "{}: view shape", name);
    let (r, c) = (reads_as.rows(), b.cols());
    let accumulated = fused_reference(reads_as, b, prior);
    let overwritten = fused_reference(reads_as, b, &Matrix::zeros(r, c));
    for kernel in dispatch_tiers() {
        let mut out = prior.clone();
        matmul_with(kernel, view, b, &mut out, false);
        prop_assert_eq!(&out, &accumulated, "{} {:?}: accumulate mode", name, kernel);
        let mut out = Matrix::from_vec(r, c, vec![-7.0; r * c]);
        matmul_with(kernel, view, b, &mut out, true);
        prop_assert_eq!(&out, &overwritten, "{} {:?}: seed mode", name, kernel);
    }
    Ok(())
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
    /// `matmul_into` (tiled + register-blocked, process-active kernel)
    /// equals the zero-seeded fused reference bitwise, on dirty output
    /// buffers of any prior shape.
    #[test]
    fn matmul_into_matches_naive(
        (r, k, c) in shapes(),
        vals in proptest::collection::vec(-200i32..200, 8..32),
        mask in proptest::collection::vec(0u8..2, 4..16),
        stale_rows in 0usize..40,
    ) {
        let a = matrix_from(r, k, &vals, &mask);
        let b = matrix_from(k, c, &vals, &[1]);
        let mut out = Matrix::from_vec(stale_rows, 3, vec![7.0; stale_rows * 3]);
        a.matmul_into(&b, &mut out);
        prop_assert_eq!(&out, &fused_reference(&a, &b, &Matrix::zeros(r, c)));
    }

    /// The fused bias kernel equals the bias-seeded fused reference
    /// bitwise.
    #[test]
    fn matmul_bias_into_matches_naive(
        (r, k, c) in shapes(),
        vals in proptest::collection::vec(-200i32..200, 8..32),
        mask in proptest::collection::vec(0u8..2, 4..16),
    ) {
        let a = matrix_from(r, k, &vals, &mask);
        let b = matrix_from(k, c, &vals, &[1]);
        let bias: Vec<f32> = (0..c).map(|j| vals[j % vals.len()] as f32 / 200.0).collect();
        let mut out = Matrix::zeros(0, 0);
        a.matmul_bias_into(&b, &bias, &mut out);
        prop_assert_eq!(&out, &fused_reference(&a, &b, &broadcast(&bias, r)));
    }

    /// `A·Bᵀ` the one way backward computes it — `Bᵀ` staged by
    /// `transpose_into` into a dirty buffer (or cached, as `Linear` keeps
    /// its `Wᵀ`), then the `A·B` kernel — equals the fused reference over
    /// the element-wise transpose, bitwise.
    #[test]
    fn matmul_transb_paths_match(
        (r, k, c) in shapes(),
        vals in proptest::collection::vec(-200i32..200, 8..32),
        mask in proptest::collection::vec(0u8..2, 4..16),
    ) {
        let a = matrix_from(r, k, &vals, &mask);
        let b = matrix_from(c, k, &vals, &[1]); // b: [c × k], used transposed
        let mut bt = Matrix::from_vec(3, 5, vec![7.0; 15]);
        b.transpose_into(&mut bt);
        prop_assert_eq!(&bt, &transposed(&b), "the staged operand is exactly bᵀ");
        let mut out = Matrix::from_vec(2, 2, vec![7.0; 4]);
        a.matmul_into(&bt, &mut out);
        prop_assert_eq!(&out, &fused_reference(&a, &bt, &Matrix::zeros(r, c)));
    }

    /// Both dispatch tiers of the dense matmul kernel equal the fused
    /// reference bitwise on arbitrary shapes and sparsity, in both seed
    /// modes: accumulating into a prior (bias-seeded) `out` — the fused
    /// forward, and gradient accumulation — and overwriting a dirty `out`
    /// with stale k-tile edges.
    #[test]
    fn avx2_and_scalar_matmul_are_bitwise_identical(
        (r, k, c) in shapes(),
        vals in proptest::collection::vec(-200i32..200, 8..32),
        mask in proptest::collection::vec(0u8..2, 4..16),
    ) {
        let a = matrix_from(r, k, &vals, &mask);
        let b = matrix_from(k, c, &vals, &[1]);
        let bias: Vec<f32> = (0..c).map(|j| vals[j % vals.len()] as f32 / 200.0).collect();
        let prior = broadcast(&bias, r);
        let accumulated = fused_reference(&a, &b, &prior);
        let overwritten = fused_reference(&a, &b, &Matrix::zeros(r, c));
        for kernel in dispatch_tiers() {
            let mut out = prior.clone();
            matmul_accumulate_with(kernel, &a, &b, &mut out);
            prop_assert_eq!(&out, &accumulated, "{:?}: accumulate mode", kernel);
            let mut out = Matrix::from_vec(r, c, vec![-7.0; r * c]);
            matmul_with(kernel, &a, &b, &mut out, true);
            prop_assert_eq!(&out, &overwritten, "{:?}: seed mode must ignore stale contents", kernel);
        }
    }

    /// The dense kernel's two operand views — `x` as stored and `xᵀ` —
    /// equal the fused reference on the matrix each reads as, bitwise, on
    /// both tiers and in both seed modes; at output widths and reduction
    /// lengths on both sides of every block edge, and for a 0-row `x`.
    #[test]
    fn operand_views_match_the_fused_reference(
        (w, kk, r) in (0..WIDTHS.len(), 0..REDUCTIONS.len(), 0usize..10),
        vals in proptest::collection::vec(-200i32..200, 8..32),
        mask in proptest::collection::vec(0u8..2, 4..16),
    ) {
        let (c, k) = (WIDTHS[w], REDUCTIONS[kk]);
        let b = matrix_from(k, c, &vals, &[1]);
        let prior = matrix_from(r, c, &vals[1..], &[1]);
        // Plain: an r × k `x`. Transposed: a k × r `x` (0 rows when k = 0).
        let plain = matrix_from(r, k, &vals, &mask);
        check_view(Operand::plain(&plain), &plain, &b, &prior, "plain")?;
        let x = matrix_from(k, r, &vals, &mask);
        check_view(Operand::transposed(&x), &transposed(&x), &b, &prior, "transposed")?;
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
            let mut dense = broadcast(&bias, r);
            matmul_accumulate_with(kernel, &x, &w, &mut dense);
            let mut sparse = Matrix::zeros(0, 0);
            sparse_matmul_bias_with(kernel, &sp, &w, Some(&bias), &mut sparse);
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
    /// tiers, with each other and with the textbook `i32` reference on
    /// arbitrary non-negative activations — the quantized twin of
    /// `sparse_paths_match_dense_bitwise`.
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
        // Both tiers equal the scalar one, which equals the i32 reference.
        let reference = naive_qmatmul(&qa, &qw, &bias);
        prop_assert_eq!(
            scalar.data(), reference.data(),
            "int8 dense kernel must match the textbook i32 reference bitwise"
        );

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

    /// A sparse input layer's weight gradient: the gather kernel run in
    /// accumulate mode on the CSR transpose of `x` (`seed = None`) equals,
    /// bitwise on both dispatch tiers, `xᵀ` staged dense + the blocked
    /// matmul kernel and the fused reference — accumulating into a
    /// nonzero `out`, as gradient buffers do across ragged segments.
    #[test]
    fn sparse_accumulate_matches_staged_transpose_matmul_bitwise(
        (r, k, c) in shapes(),
        vals in proptest::collection::vec(-200i32..200, 8..32),
        mask in proptest::collection::vec(0u8..2, 4..16),
    ) {
        let x = matrix_from(r, k, &vals, &mask);
        let g = matrix_from(r, c, &vals, &[1]);
        let seed = matrix_from(k, c, &vals, &[1]);
        check_sparse_accumulate(&x, &g, &seed)?;
    }
}

/// The checks of `sparse_accumulate_matches_staged_transpose_matmul_bitwise`
/// on one `x`, output gradient `g` and prior gradient `seed`.
fn check_sparse_accumulate(x: &Matrix, g: &Matrix, seed: &Matrix) -> Result<(), TestCaseError> {
    let mut xt = SparseRows::from_dense(&Matrix::from_vec(2, 3, vec![1.0; 6])); // dirty
    SparseRows::from_dense(x).transpose_into(&mut xt);
    let xt_dense = transposed(x);
    prop_assert_eq!(&xt, &SparseRows::from_dense(&xt_dense), "CSR transpose of x");
    let expected = fused_reference(&xt_dense, g, seed);
    for kernel in dispatch_tiers() {
        let mut gathered = seed.clone();
        sparse_matmul_bias_with(kernel, &xt, g, None, &mut gathered);
        let mut staged = seed.clone();
        matmul_accumulate_with(kernel, &xt_dense, g, &mut staged);
        prop_assert_eq!(&gathered, &staged, "{:?}: gather vs staged transpose", kernel);
        prop_assert_eq!(&gathered, &expected, "{:?}: gather vs fused reference", kernel);
    }
    Ok(())
}

/// The accumulate-mode gather at output widths on both sides of the
/// AVX2 path's 8- and 64-column blocks, and on a 0-row `x` (which leaves
/// the gradient as it was).
#[test]
fn sparse_accumulate_covers_every_width_class() {
    let vals: Vec<i32> = (0..29).map(|i| i * 13 % 400 - 200).collect();
    for c in [1, 7, 8, 9, 63, 64, 65, 72, 130] {
        for (r, k) in [(0, 5), (1, 1), (6, 11), (40, 3)] {
            let x = matrix_from(r, k, &vals, &[1, 0, 0, 1, 0]);
            let g = matrix_from(r, c, &vals, &[1]);
            let seed = matrix_from(k, c, &vals[3..], &[1]);
            check_sparse_accumulate(&x, &g, &seed).unwrap();
            if r == 0 {
                let mut out = seed.clone();
                let mut xt = SparseRows::new(0);
                SparseRows::from_dense(&x).transpose_into(&mut xt);
                sparse_matmul_bias_with(Kernel::Scalar, &xt, &g, None, &mut out);
                assert_eq!(out, seed, "no rows, no gradient");
            }
        }
    }
}
