//! Explicit SIMD micro-kernels with runtime dispatch.
//!
//! Every dense product in `lc-nn` funnels into the handful of kernels in
//! this module. Each kernel exists in two implementations selected once
//! per process (see [`active`]):
//!
//! * **`avx2`** — hand-written `std::arch::x86_64` AVX2 + FMA inner
//!   loops (8-lane `f32` vectors, fused multiply-add), used when the CPU
//!   supports both features;
//! * **`scalar`** — portable fallback built on [`f32::mul_add`], the
//!   IEEE-754 correctly-rounded fused multiply-add.
//!
//! # The bitwise-identity contract
//!
//! The two implementations are **bit-for-bit interchangeable**, which is
//! what lets `LC_KERNEL` (and heterogeneous fleets) never change a
//! trained weight or an estimate. The contract holds because of two
//! deliberate choices:
//!
//! 1. **Vector lanes never span the reduction dimension.** The matmul
//!    kernels vectorize across *output columns* (each lane is a distinct
//!    output element), so every output element is still one sequential
//!    ascending-`k` accumulation chain — there is no lane-split partial
//!    sum to re-associate, and any vector width (1, 8, or a future 16)
//!    produces the same bits. Products whose natural SIMD layout *would*
//!    split the reduction (the `A·Bᵀ` row-dot) instead stage the
//!    transposed right operand (`Linear`'s cached `Wᵀ`) and run the `A·B`
//!    kernel. A transposed *left* operand costs nothing to read in place:
//!    the kernel broadcasts one `A` element per step wherever it lies, so
//!    `Aᵀ·B` runs on a strided [`Operand`] view instead of a staged copy.
//! 2. **Both implementations fuse identically.** The AVX2 path uses
//!    `vfmadd` (one rounding per step); the scalar path uses
//!    `f32::mul_add`, which is the same correctly-rounded operation on
//!    every platform (hardware FMA where available, libm `fmaf`
//!    otherwise). A mul-then-add fallback would round twice and diverge.
//!
//! The same reasoning extends to the one sparse kernel, the CSR gather
//! [`sparse_matmul_bias_with`]: skipping a zero input element skips a
//! `fma(0, w, acc)` step, which cannot change `acc` (for finite weights
//! and non-negative-zero accumulators), so it is bitwise-equal to the
//! dense kernel on the same data. The only theoretical exception is a
//! `-0.0` seed with no nonzero contribution — `fma(0, w, -0.0)` flushes
//! the sign — which no initializer, optimizer step, or serializer of
//! this crate produces. The gather serves both directions of a sparse
//! input layer: seeded with the bias it is the forward `x·W + b`; run
//! on the CSR transpose of `x`, seeded with the gradient buffer itself,
//! it is the weight gradient `∂W += xᵀ·g`.
//!
//! Dispatch is resolved once per process from the global
//! [`RuntimeConfig`](crate::RuntimeConfig) (whose `from_env` reads
//! `LC_KERNEL`: `auto`|`avx2`|`scalar`, default `auto`) and exposed via
//! [`kernel_name`] so the benchmark's header and the serve startup
//! banner can report which path is live. The `*_with` variants take an
//! explicit [`Kernel`] — the property tests use them to prove both paths
//! identical inside one process.
#![allow(unsafe_code)] // std::arch intrinsics + raw-pointer loads in the AVX2 kernels;
                       // every unsafe block is gated on runtime feature detection and
                       // stays inside slice bounds established by the safe caller.

use std::sync::OnceLock;

use crate::matrix::Matrix;
use crate::sparse::SparseRows;

/// Reduction-dimension block: a `TILE_K × JB` panel of the right operand
/// stays hot in L1 while a block of output rows streams past it. Sized so
/// MSCN-scale reductions (k ≤ ~200) run in a single tile — each output
/// element then makes exactly one trip through the store buffer — while
/// genuinely large reductions still get blocked instead of thrashing L1.
pub(crate) const TILE_K: usize = 256;
/// Register-block width: each output row is produced `JB` columns at a
/// time — four 8-lane AVX2 accumulators (or the equivalent `[f32; JB]`
/// array the scalar path keeps in registers) that live across the whole
/// k loop, so the hot loop reads only the right-operand panel instead of
/// re-loading and re-storing the output row on every k step.
pub(crate) const JB: usize = 32;

/// Which micro-kernel implementation executes the dense/sparse products.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kernel {
    /// Hand-written AVX2 + FMA intrinsics (x86-64 with both features).
    Avx2,
    /// Portable `f32::mul_add` fallback, bitwise-identical to `Avx2`.
    Scalar,
}

impl Kernel {
    /// Stable lowercase name (`"avx2"` / `"scalar"`).
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Avx2 => "avx2",
            Kernel::Scalar => "scalar",
        }
    }
}

/// True when this CPU can run the [`Kernel::Avx2`] path.
pub fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The kernel the process runs with, resolved once from the global
/// [`RuntimeConfig`](crate::RuntimeConfig): [`KernelChoice::Auto`]
/// (the default, and what an unset `LC_KERNEL` maps to) picks
/// [`Kernel::Avx2`] when the CPU supports it; a forced choice panics
/// rather than silently measuring the wrong path on hardware that
/// cannot run it.
///
/// [`KernelChoice::Auto`]: crate::runtime::KernelChoice::Auto
///
/// # Panics
/// If the active config forces AVX2 without AVX2+FMA support.
pub fn active() -> Kernel {
    static ACTIVE: OnceLock<Kernel> = OnceLock::new();
    *ACTIVE.get_or_init(|| crate::runtime::RuntimeConfig::global().resolved_kernel())
}

/// Name of the dispatch path this process resolved to (`"avx2"` or
/// `"scalar"`) — surfaced by the benchmark's header and the serve
/// startup banner.
pub fn kernel_name() -> &'static str {
    active().name()
}

// ---------------------------------------------------------------------
// A · B accumulate (the seam every dense forward/backward product uses)
// ---------------------------------------------------------------------

/// The left operand `A` of the dense kernel, read where it lies: element
/// `(i, k)` is `data[i · row_stride + k · col_stride]`. Two views exist:
/// a matrix as stored ([`Operand::plain`], also `From<&Matrix>`), and its
/// transpose ([`Operand::transposed`]), how a layer's weight gradient
/// `∂W += xᵀ·g` reads `x` without staging `xᵀ`. Both name exactly the
/// positions of the matrix, so the kernels load without further checks.
#[derive(Clone, Copy, Debug)]
pub struct Operand<'a> {
    data: &'a [f32],
    rows: usize,
    cols: usize,
    row_stride: usize,
    col_stride: usize,
}

impl<'a> Operand<'a> {
    /// `m` as stored.
    pub fn plain(m: &'a Matrix) -> Self {
        let (rows, cols) = m.shape();
        Operand { data: m.data(), rows, cols, row_stride: cols, col_stride: 1 }
    }

    /// `mᵀ`, read in place.
    pub fn transposed(m: &'a Matrix) -> Self {
        let (rows, cols) = m.shape();
        Operand { data: m.data(), rows: cols, cols: rows, row_stride: 1, col_stride: cols }
    }

    /// Rows of the view.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Columns of the view (the reduction length of `A·B`).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element `(i, k)`, where `col` is the view's column-offset function
    /// (bound by `with_columns!`).
    #[inline(always)]
    fn at(&self, i: usize, k: usize, col: impl Fn(usize) -> usize) -> f32 {
        self.data[i * self.row_stride + col(k)]
    }
}

/// Evaluate `$body` with `$col` bound to the column-offset function of
/// the view `$a` — `k ↦ k` or `k ↦ k · col_stride` — one instance per
/// view kind, so a hot loop carries no per-step branch on the view, and a
/// plain view walks its rows exactly like a slice.
macro_rules! with_columns {
    ($a:expr, |$col:ident| $body:expr) => {
        match $a.col_stride {
            1 => {
                let $col = |k: usize| k;
                $body
            }
            stride => {
                let $col = move |k: usize| k * stride;
                $body
            }
        }
    };
}

impl<'a> From<&'a Matrix> for Operand<'a> {
    fn from(m: &'a Matrix) -> Self {
        Operand::plain(m)
    }
}

/// Accumulate `a · b` into a pre-initialized `out` (zeros, or the
/// broadcast bias for the fused forward kernel) with the process-active
/// kernel.
pub(crate) fn matmul_accumulate(a: Operand<'_>, b: &Matrix, out: &mut Matrix) {
    matmul_with(active(), a, b, out, false);
}

/// `out = a · b`, ignoring (and fully overwriting) `out`'s prior
/// contents: the first k-tile seeds the register accumulators with zero
/// instead of loading `out`, so callers skip both the zero-fill pass
/// and the first tile's loads. Per output element the chain still runs
/// `0, fma(k=0), fma(k=1), …` — bitwise-identical to zeroing first and
/// accumulating.
pub(crate) fn matmul_overwrite(a: Operand<'_>, b: &Matrix, out: &mut Matrix) {
    matmul_with(active(), a, b, out, true);
}

/// [`matmul_accumulate`] with an explicit kernel — the hook the
/// cross-kernel equivalence tests use.
///
/// # Panics
/// As [`matmul_with`].
pub fn matmul_accumulate_with<'a>(
    kernel: Kernel,
    a: impl Into<Operand<'a>>,
    b: &Matrix,
    out: &mut Matrix,
) {
    matmul_with(kernel, a, b, out, false);
}

/// The full dispatch surface: explicit kernel, any [`Operand`] view of
/// the left operand, AND seed mode (`seed_zero = true` overwrites `out`,
/// `false` accumulates into it). The cross-kernel property tests drive
/// every combination through this hook; every production product is one
/// of them.
///
/// # Panics
/// If `a.cols() != b.rows()` or `out` is not `a.rows() × b.cols()`, or
/// if `Kernel::Avx2` is requested on hardware without AVX2+FMA and `b`
/// is at least 8 columns wide. Narrower outputs take the shared
/// `mul_add` path whichever kernel is named, so they never panic.
pub fn matmul_with<'a>(
    kernel: Kernel,
    a: impl Into<Operand<'a>>,
    b: &Matrix,
    out: &mut Matrix,
    seed_zero: bool,
) {
    let a = a.into();
    assert_eq!(a.cols, b.rows(), "matmul shape mismatch");
    assert_eq!(out.shape(), (a.rows, b.cols()), "matmul output shape");
    if b.cols() < 8 {
        // Narrow outputs (the 1-wide sigmoid head) are latency-bound,
        // not throughput-bound: one shared mul_add path beats either
        // vector kernel there and is identical on both by construction.
        return with_columns!(a, |col| matmul_narrow(a, col, b, out, seed_zero));
    }
    match kernel {
        Kernel::Avx2 => {
            assert!(avx2_available(), "AVX2 kernel requested on non-AVX2 hardware");
            #[cfg(target_arch = "x86_64")]
            // SAFETY: AVX2+FMA presence and the shapes are checked above;
            // every position a view names lies inside its matrix.
            unsafe {
                with_columns!(a, |col| matmul_avx2(a, col, b, out, seed_zero))
            }
        }
        Kernel::Scalar => with_columns!(a, |col| matmul_scalar(a, col, b, out, seed_zero)),
    }
}

/// Scalar implementation: identical loop structure and per-element
/// ascending-`k` accumulation chain as the AVX2 path, with
/// [`f32::mul_add`] supplying the same single-rounding fuse — the lanes
/// of the AVX2 kernel are output columns, so element chains match this
/// code exactly.
fn matmul_scalar(
    a: Operand<'_>,
    col: impl Fn(usize) -> usize,
    b: &Matrix,
    out: &mut Matrix,
    seed_zero: bool,
) {
    let k_dim = a.cols;
    let c = b.cols();
    let full_end = c - c % JB;
    for k0 in (0..k_dim.max(1)).step_by(TILE_K) {
        let k_end = (k0 + TILE_K).min(k_dim);
        let seed = seed_zero && k0 == 0;
        // Full-width register blocks: the accumulator is a fixed-size
        // array, so the inner loop compiles to straight-line FMAs with no
        // spills.
        for j0 in (0..full_end).step_by(JB) {
            for i in 0..a.rows {
                let out_seg: &mut [f32; JB] =
                    (&mut out.row_mut(i)[j0..j0 + JB]).try_into().expect("JB-wide segment");
                let mut acc: [f32; JB] = if seed { [0.0; JB] } else { *out_seg };
                for k in k0..k_end {
                    let av = a.at(i, k, &col);
                    let b_seg: &[f32; JB] =
                        (&b.row(k)[j0..j0 + JB]).try_into().expect("JB-wide segment");
                    for j in 0..JB {
                        acc[j] = av.mul_add(b_seg[j], acc[j]);
                    }
                }
                *out_seg = acc;
            }
        }
        // Remainder columns (< JB): fixed-capacity accumulator, dynamic
        // width. Covers tail blocks of non-multiple-of-JB widths.
        if full_end < c {
            let jw = c - full_end;
            for i in 0..a.rows {
                let out_seg = &mut out.row_mut(i)[full_end..c];
                let mut acc = [0.0f32; JB];
                if !seed {
                    acc[..jw].copy_from_slice(out_seg);
                }
                for k in k0..k_end {
                    let av = a.at(i, k, &col);
                    for (x, &bv) in acc[..jw].iter_mut().zip(&b.row(k)[full_end..c]) {
                        *x = av.mul_add(bv, *x);
                    }
                }
                out_seg.copy_from_slice(&acc[..jw]);
            }
        }
    }
}

/// AVX2+FMA implementation: per `(k-tile, j-block)` the `TILE_K × JB`
/// panel of `b` stays hot in L1 while every output row streams past it;
/// a row's `JB = 32` output columns live in four `ymm` accumulators
/// across the whole k loop (broadcast `a[i][k]`, four `vfmadd231ps` per
/// k step). Deliberately **no** zero-skip branch: even on the ~85%-zero
/// one-hot/bitmap input layers, branchless vector FMAs beat a
/// data-dependent branch — the sparse input path exists precisely so the
/// dense kernel never needs one.
///
/// `a` is read in place: `a[i][k]` sits at `i · row_stride + col(k)` of
/// its buffer, so a transposed operand costs strided scalar broadcasts
/// instead of a staged copy.
///
/// Determinism: lanes are output columns, so per output element the
/// products fuse in ascending-`k` order — the same chain as the scalar
/// path — and `f32` stores between k-tiles round exactly like register
/// copies. The result depends only on the operand shapes.
///
/// # Safety
/// The CPU must support AVX2 and FMA; `a.cols == b.rows()`, `out` is
/// `a.rows × b.cols()`, and `col(k)` is the in-bounds offset of column
/// `k < a.cols` — the checks [`matmul_with`] and the [`Operand`]
/// constructors make.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[target_feature(enable = "fma")]
unsafe fn matmul_avx2(
    a: Operand<'_>,
    col: impl Fn(usize) -> usize,
    b: &Matrix,
    out: &mut Matrix,
    seed_zero: bool,
) {
    use std::arch::x86_64::*;
    let k_dim = a.cols;
    let c = b.cols();
    let full_end = c - c % JB;
    // Raw base pointers: the k loop walks `b` by a constant row stride
    // and `a` by its view's column offsets instead of re-slicing per
    // step — the bounds checks and address recomputation otherwise
    // dominate these short inner loops. An `a` row's base is formed with
    // `wrapping_add`: with no columns (k = 0) it may lie past an empty
    // buffer, and it is never read then.
    let a_base = a.data.as_ptr();
    let b_base = b.data().as_ptr();
    // `k_dim.max(1)`: a zero-width reduction must still run one "tile" in
    // seed mode so the output is overwritten with zeros.
    for k0 in (0..k_dim.max(1)).step_by(TILE_K) {
        let k_end = (k0 + TILE_K).min(k_dim);
        let seed = seed_zero && k0 == 0;
        for j0 in (0..full_end).step_by(JB) {
            // Row pairs: the four b-panel loads per k step feed EIGHT
            // FMAs (four per row), which is exactly the two-FMA-per-cycle
            // port ceiling — single-row blocking is frontend-bound
            // instead. Row blocking never touches an element's
            // accumulation chain, so any pairing is bitwise-identical to
            // the scalar path.
            let mut i = 0;
            while i + 2 <= a.rows {
                // SAFETY: j0 + JB <= full_end <= c keeps all 8-lane
                // loads/stores inside rows i/i+1's [j0, j0+32) windows;
                // the b walk visits rows k0..k_end at offset j0, all in
                // bounds (k < k_end <= b.rows()); a's rows i, i+1 at
                // columns k < a.cols are in bounds by the caller's checks.
                unsafe {
                    let ap0 = a_base.wrapping_add(i * a.row_stride);
                    let ap1 = a_base.wrapping_add((i + 1) * a.row_stride);
                    // Both row pointers derive from ONE &mut borrow of
                    // the buffer: a second `row_mut` reborrow would end
                    // the first pointer's provenance (Stacked Borrows)
                    // before its loads/stores below.
                    let ob = out.data_mut().as_mut_ptr();
                    let op0 = ob.add(i * c + j0);
                    let op1 = ob.add((i + 1) * c + j0);
                    let z = _mm256_setzero_ps();
                    let mut r0c0 = if seed { z } else { _mm256_loadu_ps(op0) };
                    let mut r0c1 = if seed { z } else { _mm256_loadu_ps(op0.add(8)) };
                    let mut r0c2 = if seed { z } else { _mm256_loadu_ps(op0.add(16)) };
                    let mut r0c3 = if seed { z } else { _mm256_loadu_ps(op0.add(24)) };
                    let mut r1c0 = if seed { z } else { _mm256_loadu_ps(op1) };
                    let mut r1c1 = if seed { z } else { _mm256_loadu_ps(op1.add(8)) };
                    let mut r1c2 = if seed { z } else { _mm256_loadu_ps(op1.add(16)) };
                    let mut r1c3 = if seed { z } else { _mm256_loadu_ps(op1.add(24)) };
                    let mut bp = b_base.wrapping_add(k0 * c + j0);
                    for k in k0..k_end {
                        let off = col(k);
                        let b0 = _mm256_loadu_ps(bp);
                        let b1 = _mm256_loadu_ps(bp.add(8));
                        let b2 = _mm256_loadu_ps(bp.add(16));
                        let b3 = _mm256_loadu_ps(bp.add(24));
                        let v0 = _mm256_set1_ps(*ap0.add(off));
                        let v1 = _mm256_set1_ps(*ap1.add(off));
                        r0c0 = _mm256_fmadd_ps(v0, b0, r0c0);
                        r0c1 = _mm256_fmadd_ps(v0, b1, r0c1);
                        r0c2 = _mm256_fmadd_ps(v0, b2, r0c2);
                        r0c3 = _mm256_fmadd_ps(v0, b3, r0c3);
                        r1c0 = _mm256_fmadd_ps(v1, b0, r1c0);
                        r1c1 = _mm256_fmadd_ps(v1, b1, r1c1);
                        r1c2 = _mm256_fmadd_ps(v1, b2, r1c2);
                        r1c3 = _mm256_fmadd_ps(v1, b3, r1c3);
                        bp = bp.add(c);
                    }
                    _mm256_storeu_ps(op0, r0c0);
                    _mm256_storeu_ps(op0.add(8), r0c1);
                    _mm256_storeu_ps(op0.add(16), r0c2);
                    _mm256_storeu_ps(op0.add(24), r0c3);
                    _mm256_storeu_ps(op1, r1c0);
                    _mm256_storeu_ps(op1.add(8), r1c1);
                    _mm256_storeu_ps(op1.add(16), r1c2);
                    _mm256_storeu_ps(op1.add(24), r1c3);
                }
                i += 2;
            }
            if i < a.rows {
                // SAFETY: same bounds as the pair path, single row.
                unsafe {
                    let ap = a_base.wrapping_add(i * a.row_stride);
                    let op = out.row_mut(i).as_mut_ptr().add(j0);
                    let z = _mm256_setzero_ps();
                    let mut acc0 = if seed { z } else { _mm256_loadu_ps(op) };
                    let mut acc1 = if seed { z } else { _mm256_loadu_ps(op.add(8)) };
                    let mut acc2 = if seed { z } else { _mm256_loadu_ps(op.add(16)) };
                    let mut acc3 = if seed { z } else { _mm256_loadu_ps(op.add(24)) };
                    let mut bp = b_base.wrapping_add(k0 * c + j0);
                    for k in k0..k_end {
                        let avv = _mm256_set1_ps(*ap.add(col(k)));
                        acc0 = _mm256_fmadd_ps(avv, _mm256_loadu_ps(bp), acc0);
                        acc1 = _mm256_fmadd_ps(avv, _mm256_loadu_ps(bp.add(8)), acc1);
                        acc2 = _mm256_fmadd_ps(avv, _mm256_loadu_ps(bp.add(16)), acc2);
                        acc3 = _mm256_fmadd_ps(avv, _mm256_loadu_ps(bp.add(24)), acc3);
                        bp = bp.add(c);
                    }
                    _mm256_storeu_ps(op, acc0);
                    _mm256_storeu_ps(op.add(8), acc1);
                    _mm256_storeu_ps(op.add(16), acc2);
                    _mm256_storeu_ps(op.add(24), acc3);
                }
            }
        }
        // Remainder columns: 8-wide vectors while they fit, then a scalar
        // mul_add tail. Still one ascending-k chain per output element.
        if full_end < c {
            for i in 0..a.rows {
                let ap = a_base.wrapping_add(i * a.row_stride);
                let mut j = full_end;
                while j + 8 <= c {
                    // SAFETY: j + 8 <= c keeps the 8-lane load/store in
                    // row i; the b walk stays on rows k0..k_end.
                    unsafe {
                        let op = out.row_mut(i).as_mut_ptr().add(j);
                        let mut acc = if seed { _mm256_setzero_ps() } else { _mm256_loadu_ps(op) };
                        let mut bp = b_base.wrapping_add(k0 * c + j);
                        for k in k0..k_end {
                            let av = _mm256_set1_ps(*ap.add(col(k)));
                            acc = _mm256_fmadd_ps(av, _mm256_loadu_ps(bp), acc);
                            bp = bp.add(c);
                        }
                        _mm256_storeu_ps(op, acc);
                    }
                    j += 8;
                }
                if j < c {
                    let jw = c - j;
                    let out_seg = &mut out.row_mut(i)[j..c];
                    let mut acc = [0.0f32; 8];
                    if !seed {
                        acc[..jw].copy_from_slice(out_seg);
                    }
                    for k in k0..k_end {
                        // SAFETY: row i < a.rows at column k < a.cols is in
                        // bounds by the caller's checks.
                        let av = unsafe { *ap.add(col(k)) };
                        for (x, &bv) in acc[..jw].iter_mut().zip(&b.row(k)[j..c]) {
                            *x = av.mul_add(bv, *x);
                        }
                    }
                    out_seg.copy_from_slice(&acc[..jw]);
                }
            }
        }
    }
}

/// Narrow-output fast path: `c < 8` (dominantly the MSCN 1-wide sigmoid
/// head, `[n×h] · [h×1]`, and its weight gradient `hᵀ·g`). Each output
/// element is a sequential fused chain over k whose ~5-cycle FMA latency
/// nothing hides at width 1 — so FOUR rows' independent chains are
/// interleaved, sharing each `b[k]` load. Interleaving across rows never
/// touches a single element's chain, so this is bitwise-identical to the
/// plain loop (and to the scalar path). Used by both dispatch paths: it
/// is pure `mul_add` code, vector-unit-free, identical everywhere.
fn matmul_narrow(
    a: Operand<'_>,
    col: impl Fn(usize) -> usize,
    b: &Matrix,
    out: &mut Matrix,
    seed_zero: bool,
) {
    let k_dim = a.cols;
    let c = b.cols();
    debug_assert!(c < 8);
    let mut i = 0;
    while i + 4 <= a.rows {
        let mut acc = [[0.0f32; 8]; 4];
        if !seed_zero {
            for (r, acc_r) in acc.iter_mut().enumerate() {
                acc_r[..c].copy_from_slice(out.row(i + r));
            }
        }
        for k in 0..k_dim {
            let b_row = b.row(k);
            for (r, acc_r) in acc.iter_mut().enumerate() {
                let av = a.at(i + r, k, &col);
                for (x, &bv) in acc_r[..c].iter_mut().zip(b_row) {
                    *x = av.mul_add(bv, *x);
                }
            }
        }
        for (r, acc_r) in acc.iter().enumerate() {
            out.row_mut(i + r).copy_from_slice(&acc_r[..c]);
        }
        i += 4;
    }
    while i < a.rows {
        let mut acc = [0.0f32; 8];
        if !seed_zero {
            acc[..c].copy_from_slice(out.row(i));
        }
        for k in 0..k_dim {
            let av = a.at(i, k, &col);
            for (x, &bv) in acc[..c].iter_mut().zip(b.row(k)) {
                *x = av.mul_add(bv, *x);
            }
        }
        out.row_mut(i).copy_from_slice(&acc[..c]);
        i += 1;
    }
}

// ---------------------------------------------------------------------
// Sparse rows · dense matrix (set-MLP input layers, forward and backward)
// ---------------------------------------------------------------------

/// `out = x · w + bias` where `x` is CSR-style sparse: each output row is
/// seeded with the bias and then gathers `value ×` weight rows for the
/// row's nonzeros only — O(nnz · out_dim) instead of O(in_dim · out_dim).
///
/// Bitwise-equal to the dense fused kernel on the densified `x` (see the
/// module docs): the skipped products are all `fma(0, w, acc)` no-ops,
/// and the surviving ascending-index chain fuses identically.
///
/// # Panics
/// If `x.cols() != w.rows()` or `bias.len() != w.cols()`.
pub(crate) fn sparse_matmul_bias(x: &SparseRows, w: &Matrix, bias: &[f32], out: &mut Matrix) {
    sparse_matmul_bias_with(active(), x, w, Some(bias), out);
}

/// `out += x · w` for CSR-style sparse `x` — the weight gradient of a
/// sparse input layer when `x` is the CSR transpose of its input
/// ([`SparseRows::transpose_into`]) and `w` the output gradient: per
/// element of `∂W` one ascending-row fused chain over the rows where
/// that input column is nonzero, the same chain the dense kernel runs on
/// a densified `xᵀ`.
pub(crate) fn sparse_matmul_accumulate(x: &SparseRows, w: &Matrix, out: &mut Matrix) {
    sparse_matmul_bias_with(active(), x, w, None, out);
}

/// The sparse gather with an explicit kernel and seed — the hook the
/// cross-kernel property tests use. `Some(bias)` overwrites `out`
/// (resized to `x.rows() × w.cols()`) with `x · w + bias`; `None`
/// accumulates `x · w` into `out`, which must already have that shape.
///
/// # Panics
/// On shape mismatch, or if `Kernel::Avx2` is requested on hardware
/// without AVX2+FMA.
pub fn sparse_matmul_bias_with(
    kernel: Kernel,
    x: &SparseRows,
    w: &Matrix,
    bias: Option<&[f32]>,
    out: &mut Matrix,
) {
    assert_eq!(x.cols(), w.rows(), "sparse matmul shape mismatch");
    match bias {
        Some(bias) => {
            assert_eq!(bias.len(), w.cols(), "bias width mismatch");
            out.resize_for_overwrite(x.rows(), w.cols());
        }
        None => assert_eq!(out.shape(), (x.rows(), w.cols()), "sparse matmul output shape"),
    }
    match kernel {
        Kernel::Avx2 => {
            assert!(avx2_available(), "AVX2 kernel requested on non-AVX2 hardware");
            #[cfg(target_arch = "x86_64")]
            // SAFETY: AVX2+FMA presence checked above.
            unsafe {
                sparse_matmul_bias_avx2(x, w, bias, out);
            }
        }
        Kernel::Scalar => sparse_matmul_bias_scalar(x, w, bias, out),
    }
}

/// Scalar sparse gather: seed from the bias (or keep `out`), then one
/// fused broadcast-row update per nonzero in ascending index order.
fn sparse_matmul_bias_scalar(x: &SparseRows, w: &Matrix, bias: Option<&[f32]>, out: &mut Matrix) {
    for i in 0..x.rows() {
        let out_row = out.row_mut(i);
        if let Some(bias) = bias {
            out_row.copy_from_slice(bias);
        }
        let (indices, values) = x.row(i);
        for (&k, &v) in indices.iter().zip(values) {
            let w_row = w.row(k as usize);
            for (o, &wv) in out_row.iter_mut().zip(w_row) {
                *o = v.mul_add(wv, *o);
            }
        }
    }
}

/// AVX2 sparse gather: broadcast the nonzero value, 8-lane FMA across
/// the gathered weight row, scalar `mul_add` tail.
///
/// # Safety
/// The CPU must support AVX2 and FMA, `out` must be
/// `x.rows() × w.cols()`, and `bias`, when given, `w.cols()` wide — the
/// checks [`sparse_matmul_bias_with`] makes. (`x`'s indices are below
/// `x.cols() == w.rows()` by the `SparseRows` invariant.)
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[target_feature(enable = "fma")]
unsafe fn sparse_matmul_bias_avx2(
    x: &SparseRows,
    w: &Matrix,
    bias: Option<&[f32]>,
    out: &mut Matrix,
) {
    use std::arch::x86_64::*;
    let c = w.cols();
    let w_base = w.data().as_ptr();
    for i in 0..x.rows() {
        let (indices, values) = x.row(i);
        let out_row = out.row_mut(i);
        // The output row is processed in 64-column chunks held in eight
        // ymm accumulators for the row's WHOLE nonzero list — seeding
        // from the bias (or the row itself) and storing once per chunk,
        // instead of a read-modify-write of the output row per nonzero
        // (which is what dominates a gather kernel). Chunking the j axis
        // never touches an element's ascending-nonzero accumulation
        // chain.
        let op = out_row.as_mut_ptr();
        let seed_p = bias.map_or(op as *const f32, <[f32]>::as_ptr);
        let mut j0 = 0;
        while j0 + 64 <= c {
            // SAFETY: j0 + 64 <= c bounds all eight 8-lane loads/stores
            // in seed/out row windows; k < w.rows() per SparseRows.
            unsafe {
                let sp = seed_p.add(j0);
                let mut a0 = _mm256_loadu_ps(sp);
                let mut a1 = _mm256_loadu_ps(sp.add(8));
                let mut a2 = _mm256_loadu_ps(sp.add(16));
                let mut a3 = _mm256_loadu_ps(sp.add(24));
                let mut a4 = _mm256_loadu_ps(sp.add(32));
                let mut a5 = _mm256_loadu_ps(sp.add(40));
                let mut a6 = _mm256_loadu_ps(sp.add(48));
                let mut a7 = _mm256_loadu_ps(sp.add(56));
                for (&k, &v) in indices.iter().zip(values) {
                    let wp = w_base.add(k as usize * c + j0);
                    let vv = _mm256_set1_ps(v);
                    a0 = _mm256_fmadd_ps(vv, _mm256_loadu_ps(wp), a0);
                    a1 = _mm256_fmadd_ps(vv, _mm256_loadu_ps(wp.add(8)), a1);
                    a2 = _mm256_fmadd_ps(vv, _mm256_loadu_ps(wp.add(16)), a2);
                    a3 = _mm256_fmadd_ps(vv, _mm256_loadu_ps(wp.add(24)), a3);
                    a4 = _mm256_fmadd_ps(vv, _mm256_loadu_ps(wp.add(32)), a4);
                    a5 = _mm256_fmadd_ps(vv, _mm256_loadu_ps(wp.add(40)), a5);
                    a6 = _mm256_fmadd_ps(vv, _mm256_loadu_ps(wp.add(48)), a6);
                    a7 = _mm256_fmadd_ps(vv, _mm256_loadu_ps(wp.add(56)), a7);
                }
                let o = op.add(j0);
                _mm256_storeu_ps(o, a0);
                _mm256_storeu_ps(o.add(8), a1);
                _mm256_storeu_ps(o.add(16), a2);
                _mm256_storeu_ps(o.add(24), a3);
                _mm256_storeu_ps(o.add(32), a4);
                _mm256_storeu_ps(o.add(40), a5);
                _mm256_storeu_ps(o.add(48), a6);
                _mm256_storeu_ps(o.add(56), a7);
            }
            j0 += 64;
        }
        while j0 + 8 <= c {
            // SAFETY: j0 + 8 <= c; same bounds reasoning, one vector.
            unsafe {
                let mut acc = _mm256_loadu_ps(seed_p.add(j0));
                for (&k, &v) in indices.iter().zip(values) {
                    let wp = w_base.add(k as usize * c + j0);
                    acc = _mm256_fmadd_ps(_mm256_set1_ps(v), _mm256_loadu_ps(wp), acc);
                }
                _mm256_storeu_ps(op.add(j0), acc);
            }
            j0 += 8;
        }
        if j0 < c {
            let out_tail = &mut out_row[j0..c];
            if let Some(bias) = bias {
                out_tail.copy_from_slice(&bias[j0..c]);
            }
            for (&k, &v) in indices.iter().zip(values) {
                let w_row = &w.row(k as usize)[j0..c];
                for (o, &wv) in out_tail.iter_mut().zip(w_row) {
                    *o = v.mul_add(wv, *o);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_names_are_stable() {
        assert_eq!(Kernel::Avx2.name(), "avx2");
        assert_eq!(Kernel::Scalar.name(), "scalar");
        // The resolved name is one of the two (whatever the env says).
        assert!(["avx2", "scalar"].contains(&kernel_name()));
    }

    #[test]
    fn both_matmul_kernels_are_bitwise_identical() {
        if !avx2_available() {
            return;
        }
        let a = Matrix::from_vec(5, 67, (0..5 * 67).map(|i| (i as f32 * 0.37).sin()).collect());
        let b = Matrix::from_vec(67, 43, (0..67 * 43).map(|i| (i as f32 * 0.11).cos()).collect());
        let mut scalar = Matrix::zeros(5, 43);
        let mut avx2 = Matrix::zeros(5, 43);
        matmul_accumulate_with(Kernel::Scalar, &a, &b, &mut scalar);
        matmul_accumulate_with(Kernel::Avx2, &a, &b, &mut avx2);
        assert_eq!(scalar.data(), avx2.data());
    }
}
