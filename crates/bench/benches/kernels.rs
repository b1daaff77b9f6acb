//! Compute-kernel micro-benchmarks: the dispatched SIMD `lc_nn` product
//! kernels vs a textbook naive ijk reference, at MSCN-realistic shapes —
//! plus the sparse one-hot input path vs its dense equivalent.
//!
//! Shapes mirror the hot paths: `input` is the set-module first layer
//! (one-hot + bitmap features, mostly zeros), `hidden` the dense second
//! layer, `concat` the output network's first layer, `transb` the
//! backward input-gradient product, and `sparse_*` the CSR input-layer
//! forward/gradient against the dense kernel on the same ~85%-zero
//! data. The active dispatch path (`LC_KERNEL`) is printed up front so
//! recorded numbers are attributable. Set `LC_BENCH_QUICK=1` for a
//! sub-second smoke run (used by CI to catch kernel regressions loudly);
//! every variant is also checked against the naive reference before
//! timing, so a correctness regression aborts the bench run.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use lc_nn::qmatrix::{qmatmul_dequant_bias, qsparse_matmul_dequant_bias, quantize_csr};
use lc_nn::{kernel_name, Matrix, QActs, QMatrix, SparseRows};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Deterministic matrix with the given fraction of zero entries.
fn random_matrix(rows: usize, cols: usize, zero_frac: f64, rng: &mut SmallRng) -> Matrix {
    let data = (0..rows * cols)
        .map(|_| if rng.gen_bool(zero_frac) { 0.0 } else { rng.gen_range(-1.0f32..1.0) })
        .collect();
    Matrix::from_vec(rows, cols, data)
}

/// Non-negative variant — the int8 kernels consume post-ReLU
/// activations, which are `>= 0` by construction.
fn random_nonneg_matrix(rows: usize, cols: usize, zero_frac: f64, rng: &mut SmallRng) -> Matrix {
    let data = (0..rows * cols)
        .map(|_| if rng.gen_bool(zero_frac) { 0.0 } else { rng.gen_range(0.0f32..1.0) })
        .collect();
    Matrix::from_vec(rows, cols, data)
}

/// Textbook ijk reference (also the correctness oracle).
fn naive_matmul(a: &Matrix, b: &Matrix, out: &mut Matrix) {
    out.resize(a.rows(), b.cols());
    for i in 0..a.rows() {
        for j in 0..b.cols() {
            let mut acc = 0.0f32;
            for k in 0..a.cols() {
                acc += a.get(i, k) * b.get(k, j);
            }
            out.set(i, j, acc);
        }
    }
}

fn assert_close(tiled: &Matrix, naive: &Matrix, what: &str) {
    let diff = tiled.max_abs_diff(naive);
    assert!(diff < 1e-2, "{what}: tiled kernel diverged from naive by {diff}");
}

/// Textbook int8 reference: plain `i32` dot products over the quantized
/// operands plus the kernels' shared dequant expression. With
/// activations in `[0, 127]` the maddubs pair chain cannot saturate, so
/// the dispatched kernels must match this bitwise, not approximately.
fn naive_qmatmul(x: &QActs, w: &QMatrix, bias: &[f32], out: &mut Matrix) {
    out.resize(x.rows(), w.output_dim());
    for i in 0..x.rows() {
        let a = x.row(i);
        let s = x.scales()[i];
        for (j, &b) in bias.iter().enumerate() {
            let ch = w.channel(j);
            let mut acc = 0i32;
            for (&q, &wq) in a.iter().zip(ch) {
                acc += q as i32 * wq as i32;
            }
            out.set(i, j, acc as f32 * (s * w.scales()[j]) + b);
        }
    }
}

fn bench_kernels(c: &mut Criterion) {
    eprintln!("lc_nn kernel dispatch: {}", kernel_name());
    let mut rng = SmallRng::seed_from_u64(42);
    // (name, rows, k, cols, zero fraction of the left operand)
    let shapes = [
        ("matmul/input_512x70x64", 512usize, 70usize, 64usize, 0.85),
        ("matmul/hidden_512x64x64", 512, 64, 64, 0.5),
        ("matmul/concat_256x192x64", 256, 192, 64, 0.0),
    ];

    let mut group = c.benchmark_group("kernels");
    for (name, rows, k, cols, zeros) in shapes {
        let a = random_matrix(rows, k, zeros, &mut rng);
        let b = random_matrix(k, cols, 0.0, &mut rng);
        let mut reference = Matrix::zeros(0, 0);
        naive_matmul(&a, &b, &mut reference);
        let mut out = Matrix::zeros(0, 0);
        a.matmul_into(&b, &mut out);
        assert_close(&out, &reference, name);
        group.bench_function(name, |bencher| {
            bencher.iter(|| {
                black_box(&a).matmul_into(black_box(&b), &mut out);
                out.get(0, 0)
            })
        });
        group.bench_function(format!("{}_naive", name), |bencher| {
            bencher.iter(|| {
                naive_matmul(black_box(&a), black_box(&b), &mut out);
                out.get(0, 0)
            })
        });
    }

    // Backward products at their training shapes — each checked against
    // the naive reference before timing, like the forward kernels.
    let g = random_matrix(512, 64, 0.5, &mut rng); // upstream gradient (post-ReLU mask)
    let w = random_matrix(70, 64, 0.0, &mut rng);
    let x = random_matrix(512, 70, 0.85, &mut rng);
    let mut out = Matrix::zeros(0, 0);
    let mut tmp = Matrix::zeros(0, 0);
    {
        let mut wt = Matrix::zeros(0, 0);
        w.transpose_into(&mut wt);
        let mut reference = Matrix::zeros(0, 0);
        naive_matmul(&g, &wt, &mut reference);
        g.matmul_transb_scratch(&w, &mut out, &mut tmp);
        assert_close(&out, &reference, "transb/grad_in_scratch");
    }
    group.bench_function("transb/grad_in_scratch_512x64_x_70x64t", |bencher| {
        bencher.iter(|| {
            black_box(&g).matmul_transb_scratch(black_box(&w), &mut out, &mut tmp);
            out.get(0, 0)
        })
    });
    let mut grad_w = Matrix::zeros(70, 64);

    // Sparse input-layer path vs the dense kernels on the same
    // ~85%-zero one-hot/bitmap data — forward (fused bias) and weight
    // gradient. Checked bitwise first: the CSR path must not merely be
    // close to the dense one, it must be the same bits.
    let w_in = random_matrix(70, 64, 0.0, &mut rng);
    let bias: Vec<f32> = (0..64).map(|_| rng.gen_range(-0.5f32..0.5)).collect();
    let x_sp = SparseRows::from_dense(&x);
    let mut sparse_out = Matrix::zeros(0, 0);
    {
        let mut dense_out = Matrix::zeros(0, 0);
        x.matmul_bias_into(&w_in, &bias, &mut dense_out);
        lc_nn::kernels::sparse_matmul_bias_with(
            lc_nn::kernels::active(),
            &x_sp,
            &w_in,
            &bias,
            &mut sparse_out,
        );
        assert_eq!(
            dense_out.data(),
            sparse_out.data(),
            "sparse_fwd: CSR forward must match the dense fused forward bitwise"
        );
    }
    group.bench_function("sparse_fwd/input_512x70x64_nnz15", |bencher| {
        bencher.iter(|| {
            lc_nn::kernels::sparse_matmul_bias_with(
                lc_nn::kernels::active(),
                black_box(&x_sp),
                black_box(&w_in),
                &bias,
                &mut sparse_out,
            );
            sparse_out.get(0, 0)
        })
    });
    group.bench_function("sparse_fwd/dense_equiv_512x70x64", |bencher| {
        bencher.iter(|| {
            black_box(&x).matmul_bias_into(black_box(&w_in), &bias, &mut sparse_out);
            sparse_out.get(0, 0)
        })
    });
    {
        // Reference: the other weight-gradient strategy, transpose +
        // blocked matmul.
        let mut xt = Matrix::zeros(0, 0);
        x.transpose_into(&mut xt);
        let mut dense_gw = Matrix::zeros(70, 64);
        lc_nn::kernels::matmul_accumulate_with(lc_nn::kernels::active(), &xt, &g, &mut dense_gw);
        let mut sparse_gw = Matrix::zeros(70, 64);
        lc_nn::kernels::sparse_transa_accumulate_with(
            lc_nn::kernels::active(),
            &x_sp,
            &g,
            &mut sparse_gw,
        );
        assert_eq!(
            dense_gw.data(),
            sparse_gw.data(),
            "sparse_grad: CSR gather must match transpose + matmul bitwise"
        );
    }
    group.bench_function("sparse_grad/input_512x70t_x_512x64", |bencher| {
        bencher.iter(|| {
            grad_w.fill_zero();
            lc_nn::kernels::sparse_transa_accumulate_with(
                lc_nn::kernels::active(),
                black_box(&x_sp),
                black_box(&g),
                &mut grad_w,
            );
            grad_w.get(0, 0)
        })
    });

    // Int8 inference products at the same forward shapes, so the
    // f32-vs-int8 kernel speedup is read off adjacent rows. Weights are
    // quantized once (publish time), activations carry per-row dynamic
    // scales (inference time); each variant is checked *bitwise* against
    // the plain-i32 reference before timing — see `naive_qmatmul`.
    for (name, rows, k, cols, zeros) in [
        ("qmatmul/hidden_512x64x64", 512usize, 64usize, 64usize, 0.5),
        ("qmatmul/concat_256x192x64", 256, 192, 64, 0.0),
    ] {
        let acts = random_nonneg_matrix(rows, k, zeros, &mut rng);
        let wf = random_matrix(k, cols, 0.0, &mut rng);
        let bias: Vec<f32> = (0..cols).map(|_| rng.gen_range(-0.5f32..0.5)).collect();
        let qw = QMatrix::quantize(&wf);
        let mut qa = QActs::new();
        qa.quantize_from(&acts);
        let mut reference = Matrix::zeros(0, 0);
        naive_qmatmul(&qa, &qw, &bias, &mut reference);
        let mut qout = Matrix::zeros(0, 0);
        qmatmul_dequant_bias(&qa, &qw, &bias, &mut qout);
        assert_eq!(
            qout.data(),
            reference.data(),
            "{name}: dispatched int8 kernel must match the i32 reference bitwise"
        );
        group.bench_function(name, |bencher| {
            bencher.iter(|| {
                qmatmul_dequant_bias(black_box(&qa), black_box(&qw), &bias, &mut qout);
                qout.get(0, 0)
            })
        });
        group.bench_function(format!("{}_with_requant", name), |bencher| {
            bencher.iter(|| {
                qa.quantize_from(black_box(&acts));
                qmatmul_dequant_bias(black_box(&qa), black_box(&qw), &bias, &mut qout);
                qout.get(0, 0)
            })
        });
    }

    // CSR int8 input layer (one-hot + bitmap rows, ~15 nonzeros of 70),
    // checked bitwise against densify-then-quantize: stored zeros cannot
    // move a non-negative row's max, so the sparse path must agree with
    // the dense reference exactly.
    {
        let x_nn = random_nonneg_matrix(512, 70, 0.85, &mut rng);
        let w_in = random_matrix(70, 64, 0.0, &mut rng);
        let bias: Vec<f32> = (0..64).map(|_| rng.gen_range(-0.5f32..0.5)).collect();
        let mut qw = QMatrix::quantize(&w_in);
        // The serving path builds the pair-interleaved companion at publish
        // time; measure the same fast path here.
        qw.build_pair_major();
        let x_nn_sp = SparseRows::from_dense(&x_nn);
        let (mut q, mut row_scales) = (Vec::new(), Vec::new());
        quantize_csr(&x_nn_sp, &mut q, &mut row_scales);
        let mut qa = QActs::new();
        qa.quantize_from(&x_nn);
        let mut reference = Matrix::zeros(0, 0);
        naive_qmatmul(&qa, &qw, &bias, &mut reference);
        let mut qout = Matrix::zeros(0, 0);
        qsparse_matmul_dequant_bias(&x_nn_sp, &q, &row_scales, &qw, &bias, &mut qout);
        assert_eq!(
            qout.data(),
            reference.data(),
            "qmatmul/sparse: CSR int8 forward must match the dense i32 reference bitwise"
        );
        group.bench_function("qmatmul/sparse_input_512x70x64_nnz15", |bencher| {
            bencher.iter(|| {
                qsparse_matmul_dequant_bias(
                    black_box(&x_nn_sp),
                    black_box(&q),
                    &row_scales,
                    black_box(&qw),
                    &bias,
                    &mut qout,
                );
                qout.get(0, 0)
            })
        });
        group.bench_function("qmatmul/dense_input_512x70x64", |bencher| {
            bencher.iter(|| {
                qmatmul_dequant_bias(black_box(&qa), black_box(&qw), &bias, &mut qout);
                qout.get(0, 0)
            })
        });
    }
    group.finish();
}

/// `LC_BENCH_QUICK=1` shrinks the run to a smoke test.
fn config() -> Criterion {
    let quick = std::env::var("LC_BENCH_QUICK").is_ok_and(|v| v != "0");
    let (meas, warm, samples) = if quick { (300, 100, 10) } else { (3000, 500, 50) };
    Criterion::default()
        .sample_size(samples)
        .measurement_time(std::time::Duration::from_millis(meas))
        .warm_up_time(std::time::Duration::from_millis(warm))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_kernels
}
criterion_main!(benches);
