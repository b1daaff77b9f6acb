//! Int8 post-training quantization: quantized tensors and the integer
//! micro-kernels that consume them.
//!
//! The f32 single-query forward is memory-bound — the model's weight
//! matrices stream through the cache hierarchy once per estimate. This
//! module shrinks every weight to one byte (per-output-channel symmetric
//! scales) and every activation to one byte (per-row dynamic scales;
//! post-ReLU activations and the featurizer's inputs are non-negative,
//! and the quantizer deliberately uses only `[0, 127]` of the `u8` range
//! — see [`QActs`] — so the `maddubs` chain below stays exact), making a
//! served model ~4× smaller — small enough to sit in L2 next to hundreds
//! of siblings.
//!
//! # Why per-row (not per-tensor) activation scales
//!
//! A whole-tensor dynamic scale depends on the *batch maximum*, so a
//! query's answer would change with whichever other queries happen to
//! share its micro-batch — breaking the batching-transparency invariant
//! the serving layer's coalescing batcher and estimate cache are built
//! on. A per-row scale depends only on that row's own values, so
//! batched and single-query forwards are bitwise identical, at the same
//! cost (the max-scan touches each element once either way).
//!
//! # Kernel contract: exact integer chains
//!
//! Like the f32 kernels (see [`crate::kernels`]), the AVX2 and scalar
//! int8 paths are **bit-for-bit interchangeable** under `LC_KERNEL`. The
//! contract is easier to uphold here because integer arithmetic is
//! exact, but the AVX2 instruction sequence has one quirk the scalar
//! fallback must replicate rather than idealize: `vpmaddubsw`
//! (`_mm256_maddubs_epi16`) multiplies `u8 × i8` pairs and **saturates**
//! their two-product sum to `i16` (reachable: `255·127·2 > i16::MAX`).
//! The semantic unit of the reduction is therefore the *adjacent-`k`
//! pair*: `sat16(a[2t]·w[2t] + a[2t+1]·w[2t+1])`, accumulated into `i32`
//! with wrapping adds (`vpmaddwd` against ones + `vpaddd`). The scalar
//! path computes exactly that, pair by pair; because wrapping integer
//! addition is associative and commutative, the AVX2 lane layout and
//! horizontal reduction cannot change the result. (The [`QActs`]
//! quantizer keeps activations in `[0, 127]` precisely so this
//! saturation never fires on model data; the kernels still honor it for
//! arbitrary `u8` inputs, and the tests exercise the full range.) The sparse gather
//! preserves the same pair semantics: a pair with one zero member
//! reduces to a single product, which can never saturate
//! (`255·127 < i16::MAX`), so skipping stored zeros is exact.
//!
//! Dequantization — `acc · (a_scale[i] · w_scale[j]) + bias[j]` in f32 —
//! is written identically in both kernels (one expression, two
//! roundings), so outputs match bitwise whenever the accumulators do.
#![allow(unsafe_code)] // std::arch intrinsics in the AVX2 kernel, gated on runtime
                       // feature detection; all loads stay inside slice bounds
                       // established by the safe wrappers.

use crate::kernels::{active, avx2_available, Kernel};
use crate::linear::Linear;
use crate::matrix::Matrix;
use crate::mlp::{FinalActivation, Mlp};
use crate::sparse::SparseRows;
use crate::{relu_inplace, sigmoid_inplace};

/// An int8 weight matrix with per-output-channel symmetric scales.
///
/// Stored **transposed** relative to [`Matrix`]'s `[in × out]` layout:
/// each output channel's `k` weights are contiguous (`[out × in]`
/// row-major), which is the layout the `maddubs` dot-product kernel
/// streams. Quantization maps `w → round(w / scale_j)` with
/// `scale_j = max|w[·][j]| / 127`, so every quantized weight lies in
/// `[-127, 127]` and dequantization is `q · scale_j`.
#[derive(Clone, Debug)]
pub struct QMatrix {
    /// Reduction dimension (the f32 matrix's row count).
    input: usize,
    /// Output channels (the f32 matrix's column count).
    output: usize,
    /// Row-major `[output × input]` int8 weights.
    data: Vec<i8>,
    /// Per-output-channel dequantization scales (`len == output`).
    scales: Vec<f32>,
    /// Optional pair-interleaved companion for the AVX2 sparse kernel:
    /// `[⌈input/2⌉ × output × 2]`, entry `[p][j] = (w[2p][j],
    /// w[2p+1][j])` (zero-padded for odd `input`). Derived from `data` —
    /// never serialized, rebuilt on demand ([`QMatrix::build_pair_major`])
    /// — and empty unless a sparse-consuming layer opted in.
    pair_major: Vec<i8>,
}

impl QMatrix {
    /// Quantize a dense f32 weight matrix `w: [in × out]` (the
    /// [`Linear`] layout) to per-output-channel symmetric int8.
    ///
    /// Each channel's scale is MSE-calibrated: a handful of clip
    /// fractions of the channel max are tried and the one minimizing the
    /// channel's squared quantization error wins. An outlier weight
    /// otherwise dictates the whole channel's step size; clipping it
    /// slightly buys finer resolution for everything else. This runs
    /// once at publish time, so the search costs nothing at inference.
    pub fn quantize(w: &Matrix) -> Self {
        const CLIPS: [f32; 6] = [1.0, 0.95, 0.9, 0.85, 0.8, 0.75];
        let (input, output) = w.shape();
        let mut scales = vec![0.0f32; output];
        let mut data = vec![0i8; input * output];
        for j in 0..output {
            let mut max_abs = 0.0f32;
            for k in 0..input {
                max_abs = max_abs.max(w.get(k, j).abs());
            }
            if max_abs == 0.0 {
                scales[j] = 1.0;
                continue; // channel stays all-zero
            }
            let row = &mut data[j * input..(j + 1) * input];
            let mut best_err = f32::INFINITY;
            for clip in CLIPS {
                let scale = max_abs * clip / 127.0;
                let inv = 1.0 / scale;
                let mut err = 0.0f32;
                for k in 0..input {
                    let v = w.get(k, j);
                    let q = (v * inv).round().clamp(-127.0, 127.0);
                    let d = q * scale - v;
                    err += d * d;
                }
                if err < best_err {
                    best_err = err;
                    scales[j] = scale;
                    for (k, q) in row.iter_mut().enumerate() {
                        *q = (w.get(k, j) * inv).round().clamp(-127.0, 127.0) as i8;
                    }
                }
            }
        }
        QMatrix { input, output, data, scales, pair_major: Vec::new() }
    }

    /// Reassemble from serialized parts.
    ///
    /// # Panics
    /// If the buffer lengths disagree with the dimensions.
    pub fn from_parts(input: usize, output: usize, data: Vec<i8>, scales: Vec<f32>) -> Self {
        assert_eq!(data.len(), input * output, "weight buffer must be input*output");
        assert_eq!(scales.len(), output, "one scale per output channel");
        QMatrix { input, output, data, scales, pair_major: Vec::new() }
    }

    /// Build the pair-interleaved companion layout the AVX2 sparse
    /// kernel broadcasts against (see the `pair_major` field). Costs one
    /// extra copy of the weights in memory — worth it exactly for layers
    /// consumed through the CSR path, where it turns a per-channel
    /// gather walk into 16-channel `maddubs` strips. Idempotent.
    pub fn build_pair_major(&mut self) {
        let pairs = self.input.div_ceil(2);
        self.pair_major.clear();
        self.pair_major.resize(pairs * self.output * 2, 0);
        for j in 0..self.output {
            let channel = &self.data[j * self.input..(j + 1) * self.input];
            for (k, &v) in channel.iter().enumerate() {
                self.pair_major[(k / 2) * self.output * 2 + j * 2 + (k % 2)] = v;
            }
        }
    }

    /// The pair-interleaved weights, if [`QMatrix::build_pair_major`]
    /// ran.
    pub fn pair_major(&self) -> Option<&[i8]> {
        if self.pair_major.is_empty() {
            None
        } else {
            Some(&self.pair_major)
        }
    }

    /// Reduction dimension (`k`).
    pub fn input_dim(&self) -> usize {
        self.input
    }

    /// Number of output channels.
    pub fn output_dim(&self) -> usize {
        self.output
    }

    /// Channel `j`'s contiguous int8 weights (length [`QMatrix::input_dim`]).
    pub fn channel(&self, j: usize) -> &[i8] {
        &self.data[j * self.input..(j + 1) * self.input]
    }

    /// Per-output-channel dequantization scales.
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// The full `[out × in]` row-major int8 buffer (serialization).
    pub fn weights(&self) -> &[i8] {
        &self.data
    }

    /// Dequantize back to the f32 `[in × out]` layout (tests and the
    /// quantization-error analyses; inference never needs it).
    pub fn dequantize(&self) -> Matrix {
        let mut m = Matrix::zeros(self.input, self.output);
        for j in 0..self.output {
            for (k, &w) in self.channel(j).iter().enumerate() {
                m.set(k, j, w as f32 * self.scales[j]);
            }
        }
        m
    }

    /// Resident bytes of the quantized tensor (weights + scales + the
    /// pair-interleaved companion, when built).
    pub fn resident_bytes(&self) -> usize {
        self.data.len() + self.pair_major.len() + 4 * self.scales.len()
    }

    /// Bytes of the persisted form (weights + scales) — what the
    /// serializers write. Excludes derived fast-path companions, which
    /// are rebuilt after deserialization rather than stored.
    pub fn persisted_bytes(&self) -> usize {
        self.data.len() + 4 * self.scales.len()
    }
}

/// A batch of activations quantized to `u8` with one dynamic scale per
/// row: `q = round(v / scale_i)`, `scale_i = max(row_i) / 127`.
///
/// Requires non-negative inputs — true for every tensor this crate
/// quantizes (post-ReLU activations and the featurizer's `[0, 1]`
/// feature rows). Buffers are resized in place, so steady-state
/// re-quantization is allocation-free.
///
/// The row maximum maps to **127, not 255**: with activations in
/// `[0, 127]` every `maddubs` pair sum is at most `127·127·2 = 32258 ≤
/// i16::MAX`, so the instruction's `i16` saturation can never fire and
/// the integer chain is exact. Spending the eighth activation bit would
/// roughly halve the quantization step but let adjacent large products
/// saturate, which measures as an order of magnitude *more* end-to-end
/// error than the coarser step (saturation clips systematically;
/// rounding noise averages out).
#[derive(Clone, Debug, Default)]
pub struct QActs {
    rows: usize,
    cols: usize,
    data: Vec<u8>,
    scales: Vec<f32>,
}

impl QActs {
    /// An empty buffer; it grows on first [`QActs::quantize_from`].
    pub fn new() -> Self {
        QActs::default()
    }

    /// Quantize `src` (non-negative f32) into this buffer, reusing its
    /// capacity.
    pub fn quantize_from(&mut self, src: &Matrix) {
        let (rows, cols) = src.shape();
        self.rows = rows;
        self.cols = cols;
        // Every element is overwritten below, so the resize only zeroes
        // net-new capacity (and reuses the old allocation otherwise).
        self.data.resize(rows * cols, 0);
        self.scales.clear();
        for i in 0..rows {
            let row = src.row(i);
            let (scale, inv) = dynamic_scale(row);
            self.scales.push(scale);
            quantize_row(row, inv, &mut self.data[i * cols..(i + 1) * cols]);
        }
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column (feature) count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Per-row dequantization scales of the last quantization.
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// Row `i`'s quantized activations.
    pub fn row(&self, i: usize) -> &[u8] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }
}

/// Dynamic scale of one non-negative row: `(scale, 1/scale)` where
/// `scale = max / 127` (or `1.0` for an all-zero row) — see [`QActs`]
/// for why the ceiling is 127. The inverse is derived as `127 / max`
/// directly so quantization is one multiply per element with no double
/// rounding.
fn dynamic_scale(values: &[f32]) -> (f32, f32) {
    let mut max = 0.0f32;
    for &v in values {
        debug_assert!(v >= 0.0, "u8 activation quantization requires non-negative inputs");
        if v > max {
            max = v;
        }
    }
    if max > 0.0 {
        (max / 127.0, 127.0 / max)
    } else {
        (1.0, 0.0)
    }
}

#[inline]
fn quantize_u8(v: f32, inv: f32) -> u8 {
    (v * inv).round().clamp(0.0, 127.0) as u8
}

/// Quantize one row: `dst[k] = quantize_u8(src[k], inv)` for every
/// element, via the process-active kernel. The AVX2 body is *exactly*
/// the scalar expression, not an approximation of it — see
/// [`quantize_row_avx2`] — so the two tiers stay bitwise
/// interchangeable like every other kernel pair.
fn quantize_row(src: &[f32], inv: f32, dst: &mut [u8]) {
    debug_assert_eq!(src.len(), dst.len());
    #[cfg(target_arch = "x86_64")]
    if matches!(active(), Kernel::Avx2) {
        // SAFETY: Kernel::Avx2 is only ever active when AVX2 was
        // detected at startup.
        unsafe { quantize_row_avx2(src, inv, dst) };
        return;
    }
    for (d, &v) in dst.iter_mut().zip(src) {
        *d = quantize_u8(v, inv);
    }
}

/// Vectorized [`quantize_u8`] over a row, bit-for-bit equal to the
/// scalar loop. `v · inv` is non-negative model data, and for `x ≥ 0`
/// the scalar's `round()` (half away from zero) decomposes exactly:
/// `f = floor(x)` is exact, `d = x − f` is exact (Sterbenz: `f = 0`
/// for `x < 1`, else `f ≤ x < f + 1 ≤ 2f`), and `round(x) = f + (d ≥
/// 0.5)` with an exact `+1` (`x ≥ 2²³` implies `d = 0`). Negative
/// strays (the scalar clamps them to 0) round to `≤ 0` either way and
/// hit the same floor. The `[0, 127]` clamp commutes with the integer
/// conversion, and the final `cvtps2dq` converts already-integral
/// values, so its rounding mode is irrelevant.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn quantize_row_avx2(src: &[f32], inv: f32, dst: &mut [u8]) {
    use std::arch::x86_64::*;
    let n = src.len();
    let mut i = 0;
    // SAFETY (whole block): all loads/stores cover `[i, i + 32)` with
    // `i + 32 <= n` and `dst.len() == n` (debug-asserted by the caller,
    // guaranteed by `quantize_from`'s resize).
    unsafe {
        let vinv = _mm256_set1_ps(inv);
        let half = _mm256_set1_ps(0.5);
        let one = _mm256_set1_ps(1.0);
        let zero = _mm256_setzero_ps();
        let hi = _mm256_set1_ps(127.0);
        let perm = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
        let sp = src.as_ptr();
        let dp = dst.as_mut_ptr();
        let quant8 = |p: *const f32| -> __m256i {
            let x = _mm256_mul_ps(_mm256_loadu_ps(p), vinv);
            let f = _mm256_floor_ps(x);
            let d = _mm256_sub_ps(x, f);
            let bump = _mm256_and_ps(_mm256_cmp_ps::<_CMP_GE_OQ>(d, half), one);
            let r = _mm256_min_ps(_mm256_max_ps(_mm256_add_ps(f, bump), zero), hi);
            _mm256_cvtps_epi32(r)
        };
        while i + 32 <= n {
            let q0 = quant8(sp.add(i));
            let q1 = quant8(sp.add(i + 8));
            let q2 = quant8(sp.add(i + 16));
            let q3 = quant8(sp.add(i + 24));
            // i32 → u8 pack; the cross-lane interleave of the two
            // `packus` steps is undone by the final permute.
            let p01 = _mm256_packus_epi32(q0, q1);
            let p23 = _mm256_packus_epi32(q2, q3);
            let bytes = _mm256_permutevar8x32_epi32(_mm256_packus_epi16(p01, p23), perm);
            _mm256_storeu_si256(dp.add(i) as *mut __m256i, bytes);
            i += 32;
        }
    }
    for k in i..n {
        dst[k] = quantize_u8(src[k], inv);
    }
}

/// Quantize a CSR batch's stored nonzeros row by row: row `i`'s entries
/// land in `q` (parallel to the stack's value buffer) scaled by
/// `scales[i]`. Same per-row scheme as [`QActs`] — a row's scale sees
/// only its own nonzeros, and zeros cannot change a non-negative row's
/// max, so the result is bitwise consistent with densify-then-
/// [`QActs::quantize_from`]. Both output buffers reuse their capacity.
pub fn quantize_csr(x: &SparseRows, q: &mut Vec<u8>, scales: &mut Vec<f32>) {
    q.clear();
    scales.clear();
    for i in 0..x.rows() {
        let (_, vals) = x.row(i);
        let (scale, inv) = dynamic_scale(vals);
        scales.push(scale);
        q.extend(vals.iter().map(|&v| quantize_u8(v, inv)));
    }
}

// ---------------------------------------------------------------------
// The integer dot-product chains (the semantic unit both kernels share)
// ---------------------------------------------------------------------

/// One `maddubs` pair: `sat16(a0·w0 + a1·w1)` widened to `i32`.
#[inline(always)]
fn sat_pair(a0: u8, w0: i8, a1: u8, w1: i8) -> i32 {
    let sum = a0 as i32 * w0 as i32 + a1 as i32 * w1 as i32;
    sum.clamp(i16::MIN as i32, i16::MAX as i32)
}

/// Scalar reference chain: saturating adjacent-`k` pairs accumulated
/// with wrapping `i32` adds — exactly the `vpmaddubsw`/`vpmaddwd`
/// semantics (see the module docs). An odd tail element is a half pair:
/// one product, which cannot saturate (`255·127 < i16::MAX`).
fn qdot_scalar(a: &[u8], w: &[i8]) -> i32 {
    debug_assert_eq!(a.len(), w.len());
    let mut acc = 0i32;
    for t in 0..a.len() / 2 {
        acc = acc.wrapping_add(sat_pair(a[2 * t], w[2 * t], a[2 * t + 1], w[2 * t + 1]));
    }
    if a.len() % 2 == 1 {
        let k = a.len() - 1;
        acc = acc.wrapping_add(a[k] as i32 * w[k] as i32);
    }
    acc
}

/// AVX2 chain: 32 bytes per step through `vpmaddubsw` (saturating pair
/// products) + `vpmaddwd` against ones (exact widen-and-add to `i32`),
/// lanes reduced with wrapping adds. The sub-32 tail reuses the scalar
/// pair chain from the (even) chunk boundary, so pair alignment is
/// preserved.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn qdot_avx2(a: &[u8], w: &[i8]) -> i32 {
    use std::arch::x86_64::*;
    debug_assert_eq!(a.len(), w.len());
    let chunks = a.len() / 32;
    // SAFETY (whole block): every 32-byte load below starts at
    // `c * 32 <= len - 32`, in bounds of both slices.
    unsafe {
        let ones = _mm256_set1_epi16(1);
        let mut acc = _mm256_setzero_si256();
        let (ap, wp) = (a.as_ptr(), w.as_ptr());
        for c in 0..chunks {
            let va = _mm256_loadu_si256(ap.add(c * 32) as *const __m256i);
            let vw = _mm256_loadu_si256(wp.add(c * 32) as *const __m256i);
            let pairs = _mm256_maddubs_epi16(va, vw);
            acc = _mm256_add_epi32(acc, _mm256_madd_epi16(pairs, ones));
        }
        let quad = _mm_add_epi32(_mm256_extracti128_si256(acc, 1), _mm256_castsi256_si128(acc));
        let duo = _mm_add_epi32(quad, _mm_shuffle_epi32(quad, 0b01_00_11_10));
        let one = _mm_add_epi32(duo, _mm_shuffle_epi32(duo, 0b00_00_00_01));
        let done = chunks * 32;
        _mm_cvtsi128_si32(one).wrapping_add(qdot_scalar(&a[done..], &w[done..]))
    }
}

/// Stack capacity for one CSR row's pair events — far above any MSCN
/// feature row's nonzero count; wider rows fall back to the reference
/// walk.
const SPARSE_EVENT_CAP: usize = 256;

/// Decompose one CSR row into *pair events*: `(pair index k/2, packed
/// activation pair)` with the packed `u16`'s low byte holding the even-
/// `k` member — exactly the byte order `maddubs` consumes. Two adjacent
/// stored nonzeros fuse into one event; a lone member keeps a zero in
/// the missing slot, which reduces its saturating pair to a single
/// product (unsaturable), bitwise what [`qdot_sparse`] computes.
fn build_pair_events(idx: &[u32], q: &[u8], events: &mut [(u32, u16)]) -> usize {
    let mut n = 0;
    let mut t = 0;
    while t < idx.len() {
        let k = idx[t];
        if k % 2 == 0 {
            if t + 1 < idx.len() && idx[t + 1] == k + 1 {
                events[n] = (k / 2, q[t] as u16 | (q[t + 1] as u16) << 8);
                t += 2;
            } else {
                events[n] = (k / 2, q[t] as u16);
                t += 1;
            }
        } else {
            events[n] = (k / 2, (q[t] as u16) << 8);
            t += 1;
        }
        n += 1;
    }
    n
}

/// Sparse variant of the same chain over a CSR row (ascending unique
/// indices, no stored zeros). Two nonzeros that form an adjacent even
/// pair take the saturating-pair step; a lone member of its pair
/// contributes a single product (saturation unreachable) — bitwise what
/// the dense chain computes on the densified row.
fn qdot_sparse(idx: &[u32], q: &[u8], w: &[i8]) -> i32 {
    debug_assert_eq!(idx.len(), q.len());
    let mut acc = 0i32;
    let mut t = 0;
    while t < idx.len() {
        let k = idx[t] as usize;
        if k % 2 == 0 && t + 1 < idx.len() && idx[t + 1] as usize == k + 1 {
            acc = acc.wrapping_add(sat_pair(q[t], w[k], q[t + 1], w[k + 1]));
            t += 2;
        } else {
            acc = acc.wrapping_add(q[t] as i32 * w[k] as i32);
            t += 1;
        }
    }
    acc
}

// ---------------------------------------------------------------------
// The fused quantized products (dequantize + bias in one pass)
// ---------------------------------------------------------------------

/// `out[i][j] = qdot(x_i, w_j) · (x.scale[i] · w.scale[j]) + bias[j]`
/// with the process-active kernel. `out` is resized (for overwrite) to
/// `[x.rows × w.output_dim]`.
pub fn qmatmul_dequant_bias(x: &QActs, w: &QMatrix, bias: &[f32], out: &mut Matrix) {
    qmatmul_dequant_bias_with(active(), x, w, bias, out);
}

/// [`qmatmul_dequant_bias`] with an explicit kernel — the hook the
/// cross-kernel equivalence tests use.
///
/// # Panics
/// If shapes disagree, or `Kernel::Avx2` is requested on hardware
/// without AVX2.
pub fn qmatmul_dequant_bias_with(
    kernel: Kernel,
    x: &QActs,
    w: &QMatrix,
    bias: &[f32],
    out: &mut Matrix,
) {
    assert_eq!(x.cols(), w.input_dim(), "activation width must match the weight reduction dim");
    assert_eq!(bias.len(), w.output_dim(), "one bias per output channel");
    out.resize_for_overwrite(x.rows(), w.output_dim());
    match kernel {
        Kernel::Avx2 => {
            assert!(avx2_available(), "AVX2 int8 kernel requested on non-AVX2 hardware");
            #[cfg(target_arch = "x86_64")]
            // SAFETY: AVX2 presence checked above.
            unsafe {
                qmatmul_avx2(x, w, bias, out);
            }
        }
        Kernel::Scalar => qmatmul_scalar(x, w, bias, out),
    }
}

fn qmatmul_scalar(x: &QActs, w: &QMatrix, bias: &[f32], out: &mut Matrix) {
    for i in 0..x.rows() {
        let a = x.row(i);
        let s = x.scales()[i];
        let row = out.row_mut(i);
        for (j, o) in row.iter_mut().enumerate() {
            let acc = qdot_scalar(a, w.channel(j));
            *o = acc as f32 * (s * w.scales()[j]) + bias[j];
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn qmatmul_avx2(x: &QActs, w: &QMatrix, bias: &[f32], out: &mut Matrix) {
    for i in 0..x.rows() {
        // SAFETY: AVX2 is enabled for this fn (caller checked).
        unsafe { qrow_avx2(x.row(i), x.scales()[i], w, bias, out.row_mut(i)) };
    }
}

/// One activation row against every output channel, four channels per
/// pass: each 32-byte activation chunk is loaded once and fed to four
/// independent `maddubs` chains (hiding the multiply latency that makes
/// a one-dot-at-a-time loop latency-bound), and the four accumulators
/// collapse in a single `hadd` tree. `i32` wrapping adds are associative
/// and commutative, so the reordered reduction produces exactly the
/// scalar chain's bits; the dequantization expression is written
/// identically (same two f32 roundings).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn qrow_avx2(a: &[u8], s: f32, w: &QMatrix, bias: &[f32], row: &mut [f32]) {
    use std::arch::x86_64::*;
    let chunks = a.len() / 32;
    let done = chunks * 32;
    let out_dim = w.output_dim();
    let stride = w.input_dim();
    let tail = &a[done..];
    // Hoisted once per row: a small-activation tail (everything the
    // quantizer emits) lets every channel take the plain tail loop.
    let tail_plain = tail.iter().all(|&v| v <= 127);
    // SAFETY (whole block): raw-pointer addressing throughout — the
    // hidden widths make each channel block only a couple of 32-byte
    // chunks, so per-block slice bounds checks would rival the SIMD
    // work itself. Channel `j` occupies `data[j*stride .. (j+1)*stride]`
    // (invariant of construction); every 32-byte load starts at
    // `c * 32 <= stride - 32`, and `row`/`bias`/`scales` all have
    // `out_dim` elements (asserted by the dispatch wrapper).
    unsafe {
        let ones = _mm256_set1_epi16(1);
        let ap = a.as_ptr();
        let wbase = w.data.as_ptr();
        let scales = w.scales.as_ptr();
        let bias_p = bias.as_ptr();
        let row_p = row.as_mut_ptr();
        let mut j = 0;
        while j + 4 <= out_dim {
            let w0 = wbase.add(j * stride);
            let w1 = w0.add(stride);
            let w2 = w1.add(stride);
            let w3 = w2.add(stride);
            let mut acc0 = _mm256_setzero_si256();
            let mut acc1 = _mm256_setzero_si256();
            let mut acc2 = _mm256_setzero_si256();
            let mut acc3 = _mm256_setzero_si256();
            for c in 0..chunks {
                let va = _mm256_loadu_si256(ap.add(c * 32) as *const __m256i);
                let load = |p: *const i8| _mm256_loadu_si256(p.add(c * 32) as *const __m256i);
                acc0 = _mm256_add_epi32(
                    acc0,
                    _mm256_madd_epi16(_mm256_maddubs_epi16(va, load(w0)), ones),
                );
                acc1 = _mm256_add_epi32(
                    acc1,
                    _mm256_madd_epi16(_mm256_maddubs_epi16(va, load(w1)), ones),
                );
                acc2 = _mm256_add_epi32(
                    acc2,
                    _mm256_madd_epi16(_mm256_maddubs_epi16(va, load(w2)), ones),
                );
                acc3 = _mm256_add_epi32(
                    acc3,
                    _mm256_madd_epi16(_mm256_maddubs_epi16(va, load(w3)), ones),
                );
            }
            // hadd tree → [Σacc0, Σacc1, Σacc2, Σacc3] in one register.
            let h01 = _mm256_hadd_epi32(acc0, acc1);
            let h23 = _mm256_hadd_epi32(acc2, acc3);
            let h = _mm256_hadd_epi32(h01, h23);
            let sums = _mm_add_epi32(_mm256_castsi256_si128(h), _mm256_extracti128_si256(h, 1));
            let mut lanes = [0i32; 4];
            _mm_storeu_si128(lanes.as_mut_ptr() as *mut __m128i, sums);
            for (lane, jj) in (j..j + 4).enumerate() {
                let mut acc = lanes[lane];
                if !tail.is_empty() {
                    let wt = std::slice::from_raw_parts(wbase.add(jj * stride + done), tail.len());
                    acc = acc.wrapping_add(qdot_tail(tail, wt, tail_plain));
                }
                *row_p.add(jj) = acc as f32 * (s * *scales.add(jj)) + *bias_p.add(jj);
            }
            j += 4;
        }
        while j < out_dim {
            let acc = qdot_avx2(a, w.channel(j));
            *row_p.add(j) = acc as f32 * (s * *scales.add(j)) + *bias_p.add(j);
            j += 1;
        }
    }
}

/// Sub-32 tail for the blocked row kernel. Empty tails (every dim a
/// multiple of 32 — the common hidden widths) cost one branch; a
/// nonempty tail of small activations (`plain`, hoisted per row: all
/// `≤ 127`, which is everything the quantizer emits) takes the plain
/// multiply-add loop — exact, because every pair sum is then at most
/// `2·127·127 = 32258 ≤ i16::MAX`, so the saturating chain reduces to
/// ordinary integer arithmetic. Larger activations fall back to the
/// pair chain itself.
#[inline(always)]
fn qdot_tail(a: &[u8], w: &[i8], plain: bool) -> i32 {
    if a.is_empty() {
        return 0;
    }
    if plain {
        let mut acc = 0i32;
        for (&av, &wv) in a.iter().zip(w) {
            acc = acc.wrapping_add(av as i32 * wv as i32);
        }
        acc
    } else {
        qdot_scalar(a, w)
    }
}

/// One CSR row against every output channel via the pair-interleaved
/// layout: each event's packed activation pair is broadcast and
/// `maddubs`-ed against 16 interleaved channels per strip, so the work
/// is proportional to the row's *nonzeros*, not its width. Every pair
/// result is widened to `i32` before accumulating (the contract's
/// wrapping-add chain), and the vectorized dequantization performs the
/// exact element-wise operations of the scalar expression — same
/// roundings, same bits.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn qrow_sparse_pairs_avx2(
    events: &[(u32, u16)],
    s: f32,
    w: &QMatrix,
    pm: &[i8],
    bias: &[f32],
    row: &mut [f32],
) {
    use std::arch::x86_64::*;
    let out = w.output_dim();
    let wscales = w.scales();
    let mut g = 0;
    // SAFETY (whole block): strip `g` reads 32 interleaved weight bytes
    // at `(p·out + g)·2` with `p < ⌈input/2⌉` and `g + 16 <= out`, in
    // bounds of `pm`; the f32 loads/stores cover `[g, g+16)` of
    // `scales`/`bias`/`row`, all of length `out`.
    unsafe {
        while g + 16 <= out {
            let mut acc_lo = _mm256_setzero_si256();
            let mut acc_hi = _mm256_setzero_si256();
            for &(p, packed) in events {
                let va = _mm256_set1_epi16(packed as i16);
                let wv = _mm256_loadu_si256(
                    pm.as_ptr().add((p as usize * out + g) * 2) as *const __m256i
                );
                let pairs = _mm256_maddubs_epi16(va, wv);
                acc_lo =
                    _mm256_add_epi32(acc_lo, _mm256_cvtepi16_epi32(_mm256_castsi256_si128(pairs)));
                acc_hi = _mm256_add_epi32(
                    acc_hi,
                    _mm256_cvtepi16_epi32(_mm256_extracti128_si256(pairs, 1)),
                );
            }
            let sv = _mm256_set1_ps(s);
            let f_lo = _mm256_mul_ps(sv, _mm256_loadu_ps(wscales.as_ptr().add(g)));
            let f_hi = _mm256_mul_ps(sv, _mm256_loadu_ps(wscales.as_ptr().add(g + 8)));
            let o_lo = _mm256_add_ps(
                _mm256_mul_ps(_mm256_cvtepi32_ps(acc_lo), f_lo),
                _mm256_loadu_ps(bias.as_ptr().add(g)),
            );
            let o_hi = _mm256_add_ps(
                _mm256_mul_ps(_mm256_cvtepi32_ps(acc_hi), f_hi),
                _mm256_loadu_ps(bias.as_ptr().add(g + 8)),
            );
            _mm256_storeu_ps(row.as_mut_ptr().add(g), o_lo);
            _mm256_storeu_ps(row.as_mut_ptr().add(g + 8), o_hi);
            g += 16;
        }
    }
    // Remainder channels (< 16): the pair chain straight off the events.
    for j in g..out {
        let ch = w.channel(j);
        let mut acc = 0i32;
        for &(p, packed) in events {
            let k = 2 * p as usize;
            let a0 = (packed & 0xff) as i32;
            let a1 = (packed >> 8) as i32;
            let w1 = if k + 1 < ch.len() { ch[k + 1] as i32 } else { 0 };
            let sum = a0 * ch[k] as i32 + a1 * w1;
            acc = acc.wrapping_add(sum.clamp(i16::MIN as i32, i16::MAX as i32));
        }
        row[j] = acc as f32 * (s * wscales[j]) + bias[j];
    }
}

/// Sparse input-layer forward: `x`'s stored nonzeros (quantized as `q`
/// with per-row `row_scales`, see [`quantize_csr`]) against the
/// quantized weights, fused with dequantization and bias. Bitwise
/// identical to [`qmatmul_dequant_bias`] on the densified input.
pub fn qsparse_matmul_dequant_bias(
    x: &SparseRows,
    q: &[u8],
    row_scales: &[f32],
    w: &QMatrix,
    bias: &[f32],
    out: &mut Matrix,
) {
    qsparse_matmul_dequant_bias_with(active(), x, q, row_scales, w, bias, out);
}

/// [`qsparse_matmul_dequant_bias`] with an explicit kernel. Convenience
/// wrapper over [`qsparse_matmul_dequant_bias_staged`] that allocates
/// its own staging row, for tests; the inference path threads a
/// cache-owned buffer instead (the zero-alloc guarantee).
pub fn qsparse_matmul_dequant_bias_with(
    kernel: Kernel,
    x: &SparseRows,
    q: &[u8],
    row_scales: &[f32],
    w: &QMatrix,
    bias: &[f32],
    out: &mut Matrix,
) {
    let mut stage = Vec::new();
    qsparse_matmul_dequant_bias_staged(kernel, x, q, row_scales, w, bias, out, &mut stage);
}

/// The sparse kernel proper, with a caller-owned densification buffer.
///
/// The scalar tier walks each CSR row's stored nonzeros with the
/// pair-matching chain ([`qdot_sparse`]) — the reference semantics. The
/// AVX2 tier instead scatters the row into `stage` (zeros elsewhere) and
/// runs the blocked dense chain: stored zeros contribute zero to any
/// saturating pair and a lone product cannot saturate, so the densified
/// dense chain computes exactly the bits `qdot_sparse` defines — while
/// regaining the 32-wide `maddubs` throughput that a gather-based sparse
/// walk forfeits. The scatter is undone entry-by-entry after each row
/// (cheaper than re-zeroing the whole buffer), so `stage` stays all-zero
/// between rows and across calls.
#[allow(clippy::too_many_arguments)] // kernel seam + CSR triple + layer params + out/scratch
pub fn qsparse_matmul_dequant_bias_staged(
    kernel: Kernel,
    x: &SparseRows,
    q: &[u8],
    row_scales: &[f32],
    w: &QMatrix,
    bias: &[f32],
    out: &mut Matrix,
    stage: &mut Vec<u8>,
) {
    assert_eq!(x.cols(), w.input_dim(), "sparse width must match the weight reduction dim");
    assert_eq!(bias.len(), w.output_dim(), "one bias per output channel");
    assert_eq!(q.len(), x.nnz(), "one quantized value per stored nonzero");
    assert_eq!(row_scales.len(), x.rows(), "one scale per row");
    out.resize_for_overwrite(x.rows(), w.output_dim());
    match kernel {
        Kernel::Avx2 => {
            assert!(avx2_available(), "AVX2 int8 kernel requested on non-AVX2 hardware");
            #[cfg(target_arch = "x86_64")]
            {
                let pm = w.pair_major();
                let mut events = [(0u32, 0u16); SPARSE_EVENT_CAP];
                stage.clear();
                stage.resize(x.cols(), 0);
                let mut off = 0usize;
                for (i, &s) in row_scales.iter().enumerate() {
                    let (idx, vals) = x.row(i);
                    let qrow = &q[off..off + vals.len()];
                    off += vals.len();
                    let row = out.row_mut(i);
                    match pm {
                        // Work ∝ nnz: broadcast pair events against the
                        // interleaved layout.
                        Some(pm) if idx.len() <= SPARSE_EVENT_CAP => {
                            let n = build_pair_events(idx, qrow, &mut events);
                            // SAFETY: AVX2 presence checked above.
                            unsafe {
                                qrow_sparse_pairs_avx2(&events[..n], s, w, pm, bias, row);
                            }
                        }
                        // Wide enough for the 32-byte chain: densify
                        // into the staging row (scatter, compute,
                        // un-scatter) and run the blocked dense kernel —
                        // bitwise the definition of the sparse result.
                        _ if x.cols() >= 32 => {
                            for (&k, &v) in idx.iter().zip(qrow) {
                                stage[k as usize] = v;
                            }
                            // SAFETY: AVX2 presence checked above.
                            unsafe { qrow_avx2(stage, s, w, bias, row) };
                            for &k in idx {
                                stage[k as usize] = 0;
                            }
                        }
                        // Narrow rows: the reference walk is already
                        // cheaper than any vector setup.
                        _ => {
                            for (j, o) in row.iter_mut().enumerate() {
                                let acc = qdot_sparse(idx, qrow, w.channel(j));
                                *o = acc as f32 * (s * w.scales()[j]) + bias[j];
                            }
                        }
                    }
                }
            }
        }
        Kernel::Scalar => {
            let mut off = 0usize;
            for (i, &s) in row_scales.iter().enumerate() {
                let (idx, vals) = x.row(i);
                let qrow = &q[off..off + vals.len()];
                off += vals.len();
                let row = out.row_mut(i);
                for (j, o) in row.iter_mut().enumerate() {
                    let acc = qdot_sparse(idx, qrow, w.channel(j));
                    *o = acc as f32 * (s * w.scales()[j]) + bias[j];
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Quantized layers and modules
// ---------------------------------------------------------------------

/// A quantized fully-connected layer: int8 weights, f32 bias (the bias
/// is one f32 per output channel — quantizing it would save nothing and
/// cost accuracy).
#[derive(Clone, Debug)]
pub struct QLinear {
    w: QMatrix,
    bias: Vec<f32>,
}

impl QLinear {
    /// Quantize an f32 layer's weights; the bias is copied as-is.
    pub fn quantize(layer: &Linear) -> Self {
        QLinear { w: QMatrix::quantize(layer.weights()), bias: layer.bias().to_vec() }
    }

    /// Reassemble from serialized parts.
    ///
    /// # Panics
    /// If `bias` does not have one entry per output channel.
    pub fn from_parts(w: QMatrix, bias: Vec<f32>) -> Self {
        assert_eq!(bias.len(), w.output_dim(), "one bias per output channel");
        QLinear { w, bias }
    }

    /// Input width.
    pub fn input_dim(&self) -> usize {
        self.w.input_dim()
    }

    /// Output width.
    pub fn output_dim(&self) -> usize {
        self.w.output_dim()
    }

    /// The quantized weight tensor.
    pub fn weight(&self) -> &QMatrix {
        &self.w
    }

    /// The f32 bias.
    pub fn bias(&self) -> &[f32] {
        &self.bias
    }

    /// Fused forward on quantized activations.
    pub fn forward_into(&self, x: &QActs, out: &mut Matrix) {
        qmatmul_dequant_bias(x, &self.w, &self.bias, out);
    }

    /// Fused forward on a quantized CSR input.
    pub fn forward_sparse_into(
        &self,
        x: &SparseRows,
        q: &[u8],
        row_scales: &[f32],
        out: &mut Matrix,
    ) {
        qsparse_matmul_dequant_bias(x, q, row_scales, &self.w, &self.bias, out);
    }

    /// Resident bytes (weights + scales + bias).
    pub fn resident_bytes(&self) -> usize {
        self.w.resident_bytes() + 4 * self.bias.len()
    }

    /// Persisted bytes (weights + scales + bias, no derived companions).
    pub fn persisted_bytes(&self) -> usize {
        self.w.persisted_bytes() + 4 * self.bias.len()
    }
}

/// Working buffers of one quantized MLP forward: the dequantized hidden
/// activations, their re-quantized form, and the module output. Resized
/// in place — a warm cache never allocates.
#[derive(Clone, Debug, Default)]
pub struct QMlpCache {
    /// Post-ReLU f32 hidden activations (dequantized).
    pub hidden: Matrix,
    qhidden: QActs,
    /// Post-activation f32 output of the second layer.
    pub output: Matrix,
    /// Densification row for the AVX2 sparse tier (all-zero between
    /// forwards — see [`qsparse_matmul_dequant_bias_staged`]).
    stage: Vec<u8>,
}

impl QMlpCache {
    /// An empty cache; buffers grow on first forward pass.
    pub fn new() -> Self {
        QMlpCache::default()
    }
}

/// A quantized two-layer MLP mirroring [`Mlp`]: `QLinear → ReLU →
/// requantize → QLinear → f`. Activations are dequantized to f32 between
/// layers (the nonlinearities and pooling run in f32) and re-quantized
/// with fresh per-row scales — the "dynamic" in dynamic activation
/// quantization.
#[derive(Clone, Debug)]
pub struct QMlp {
    l1: QLinear,
    l2: QLinear,
    final_act: FinalActivation,
}

impl QMlp {
    /// Post-training-quantize an f32 module.
    pub fn quantize(mlp: &Mlp) -> Self {
        let [l1, l2] = mlp.layers();
        QMlp {
            l1: QLinear::quantize(l1),
            l2: QLinear::quantize(l2),
            final_act: mlp.final_activation(),
        }
    }

    /// Reassemble from serialized parts.
    ///
    /// # Panics
    /// If the layers' shared hidden width disagrees.
    pub fn from_parts(l1: QLinear, l2: QLinear, final_act: FinalActivation) -> Self {
        assert_eq!(l1.output_dim(), l2.input_dim(), "layer widths must chain");
        QMlp { l1, l2, final_act }
    }

    /// Input width.
    pub fn input_dim(&self) -> usize {
        self.l1.input_dim()
    }

    /// Output width.
    pub fn output_dim(&self) -> usize {
        self.l2.output_dim()
    }

    /// The final activation (mirrored from the f32 module).
    pub fn final_activation(&self) -> FinalActivation {
        self.final_act
    }

    /// Both layers, first → second (serializer order).
    pub fn layers(&self) -> [&QLinear; 2] {
        [&self.l1, &self.l2]
    }

    /// Declare the first layer CSR-consumed: build the pair-interleaved
    /// companion the AVX2 sparse kernel streams (one extra in-memory
    /// weight copy — see [`QMatrix::build_pair_major`]; never
    /// serialized, so callers re-mark after deserialization). Even very
    /// narrow layers win: without the companion every stored nonzero is
    /// walked once *per output channel*, so a 5-wide join layer costs
    /// `64 × nnz` branchy pair steps per row versus `nnz` broadcast
    /// `maddubs` events. Layers under 4 inputs skip it — there the
    /// whole row is at most one pair event wide and the reference walk
    /// is already minimal.
    pub fn mark_sparse_input(&mut self) {
        if self.l1.w.input_dim() >= 4 {
            self.l1.w.build_pair_major();
        }
    }

    /// Allocation-free forward pass on quantized dense activations.
    pub fn forward_into(&self, x: &QActs, cache: &mut QMlpCache) {
        self.l1.forward_into(x, &mut cache.hidden);
        self.finish_forward(cache);
    }

    /// Allocation-free forward pass on a quantized CSR input — bitwise
    /// identical to [`QMlp::forward_into`] on the densified input.
    pub fn forward_sparse_into(
        &self,
        x: &SparseRows,
        q: &[u8],
        row_scales: &[f32],
        cache: &mut QMlpCache,
    ) {
        qsparse_matmul_dequant_bias_staged(
            active(),
            x,
            q,
            row_scales,
            &self.l1.w,
            &self.l1.bias,
            &mut cache.hidden,
            &mut cache.stage,
        );
        self.finish_forward(cache);
    }

    fn finish_forward(&self, cache: &mut QMlpCache) {
        relu_inplace(&mut cache.hidden);
        cache.qhidden.quantize_from(&cache.hidden);
        self.l2.forward_into(&cache.qhidden, &mut cache.output);
        match self.final_act {
            FinalActivation::Relu => relu_inplace(&mut cache.output),
            FinalActivation::Sigmoid => sigmoid_inplace(&mut cache.output),
        }
    }

    /// Resident bytes of both quantized layers.
    pub fn resident_bytes(&self) -> usize {
        self.l1.resident_bytes() + self.l2.resident_bytes()
    }

    /// Persisted bytes of both quantized layers (no derived companions).
    pub fn persisted_bytes(&self) -> usize {
        self.l1.persisted_bytes() + self.l2.persisted_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn random_matrix(rows: usize, cols: usize, rng: &mut SmallRng) -> Matrix {
        let data = (0..rows * cols).map(|_| rng.gen_range(-1.5..1.5)).collect();
        Matrix::from_vec(rows, cols, data)
    }

    fn random_acts(rows: usize, cols: usize, zero_frac: f64, rng: &mut SmallRng) -> Matrix {
        let data = (0..rows * cols)
            .map(|_| if rng.gen_bool(zero_frac) { 0.0 } else { rng.gen_range(0.0..2.0) })
            .collect();
        Matrix::from_vec(rows, cols, data)
    }

    /// Naive integer oracle: densified pair chain, straight from the
    /// module-doc contract.
    fn naive_qdot(a: &[u8], w: &[i8]) -> i32 {
        let mut acc = 0i64;
        let mut t = 0;
        while t < a.len() {
            let p0 = a[t] as i64 * w[t] as i64;
            let p1 = if t + 1 < a.len() { a[t + 1] as i64 * w[t + 1] as i64 } else { 0 };
            acc += (p0 + p1).clamp(i16::MIN as i64, i16::MAX as i64);
            t += 2;
        }
        acc as i32
    }

    #[test]
    fn quantize_row_matches_scalar_formula_elementwise() {
        // Adversarial values for the SIMD tier: exact halfway points
        // (where half-even would disagree with the scalar's
        // half-away-from-zero), the 127 clamp boundary, zeros, and a
        // huge outlier — across lengths that exercise both the 32-wide
        // body and the scalar tail.
        let specials =
            [0.0f32, 0.5, 1.5, 2.5, 126.5, 127.0, 127.5, 253.0, 1.0e6, 0.49999997, 0.50000006];
        let mut rng = SmallRng::seed_from_u64(11);
        for n in [1usize, 31, 32, 33, 64, 95, 257] {
            let vals: Vec<f32> = (0..n)
                .map(|k| {
                    if k % 3 == 0 {
                        specials[k / 3 % specials.len()]
                    } else {
                        rng.gen_range(0.0f32..300.0)
                    }
                })
                .collect();
            for inv in [1.0f32, 0.5, 0.037, 127.0 / 253.0] {
                let mut dst = vec![0u8; n];
                quantize_row(&vals, inv, &mut dst);
                for (k, &q) in dst.iter().enumerate() {
                    assert_eq!(
                        q,
                        quantize_u8(vals[k], inv),
                        "lane {k} of {n} diverged (v = {}, inv = {inv})",
                        vals[k]
                    );
                }
            }
        }
    }

    #[test]
    fn per_channel_dequantization_error_is_bounded() {
        let mut rng = SmallRng::seed_from_u64(3);
        let w = random_matrix(37, 19, &mut rng);
        let q = QMatrix::quantize(&w);
        let back = q.dequantize();
        for j in 0..w.cols() {
            // Un-clipped weights (strictly inside the representable
            // range) land within half a quantization step; a clipped
            // outlier may not, but MSE calibration only clips when that
            // lowers the channel's total squared error (checked below).
            let bound = q.scales()[j] * 0.5 + 1e-6;
            let limit = q.scales()[j] * 126.5;
            let mut mse = 0.0f32;
            let mut naive_max = 0.0f32;
            for k in 0..w.rows() {
                let err = (back.get(k, j) - w.get(k, j)).abs();
                if w.get(k, j).abs() <= limit {
                    assert!(err <= bound, "channel {j} k {k}: err {err} > {bound}");
                }
                mse += err * err;
                naive_max = naive_max.max(w.get(k, j).abs());
            }
            // The calibrated channel can never be worse than plain
            // max-abs scaling.
            let naive_scale = naive_max / 127.0;
            let mut naive_mse = 0.0f32;
            for k in 0..w.rows() {
                let v = w.get(k, j);
                let qv = (v / naive_scale).round().clamp(-127.0, 127.0);
                let d = qv * naive_scale - v;
                naive_mse += d * d;
            }
            assert!(mse <= naive_mse + 1e-9, "channel {j}: calibration regressed MSE");
        }
    }

    #[test]
    fn quantized_weights_stay_in_symmetric_range() {
        let mut rng = SmallRng::seed_from_u64(4);
        let w = random_matrix(64, 33, &mut rng);
        let q = QMatrix::quantize(&w);
        assert!(q.weights().iter().all(|&v| (-127..=127).contains(&(v as i32))));
        // The channel max must map to ±127 exactly (symmetric scheme).
        for j in 0..w.cols() {
            assert_eq!(q.channel(j).iter().map(|&v| (v as i32).abs()).max(), Some(127));
        }
    }

    #[test]
    fn scalar_qdot_matches_the_naive_pair_chain_including_saturation() {
        // Saturating case: max-magnitude pairs exceed i16::MAX.
        let a = vec![255u8; 70];
        let w = vec![127i8; 70];
        assert_eq!(qdot_scalar(&a, &w), naive_qdot(&a, &w));
        assert_eq!(qdot_scalar(&a, &w), 35 * 32767); // every pair saturates
        let wn = vec![-127i8; 70];
        assert_eq!(qdot_scalar(&a, &wn), naive_qdot(&a, &wn));
        // Mixed random contents, assorted lengths (odd and even).
        let mut rng = SmallRng::seed_from_u64(5);
        for len in [1usize, 2, 31, 32, 33, 64, 97] {
            let a: Vec<u8> = (0..len).map(|_| rng.gen_range(0..=255u32) as u8).collect();
            let w: Vec<i8> = (0..len).map(|_| rng.gen_range(-127..=127i32) as i8).collect();
            assert_eq!(qdot_scalar(&a, &w), naive_qdot(&a, &w), "len {len}");
        }
    }

    #[test]
    fn avx2_and_scalar_qdot_are_bitwise_identical() {
        if !avx2_available() {
            return;
        }
        let mut rng = SmallRng::seed_from_u64(6);
        for len in [1usize, 16, 31, 32, 33, 63, 64, 65, 96, 200, 257] {
            let a: Vec<u8> = (0..len).map(|_| rng.gen_range(0..=255u32) as u8).collect();
            let w: Vec<i8> = (0..len).map(|_| rng.gen_range(-127..=127i32) as i8).collect();
            // SAFETY: avx2_available checked above.
            let fast = unsafe { qdot_avx2(&a, &w) };
            assert_eq!(fast, qdot_scalar(&a, &w), "len {len}");
        }
        // Saturation must agree across the dispatch tiers too.
        let a = vec![255u8; 64];
        let w = vec![127i8; 64];
        // SAFETY: avx2_available checked above.
        assert_eq!(unsafe { qdot_avx2(&a, &w) }, qdot_scalar(&a, &w));
    }

    #[test]
    fn quantized_matmul_dispatch_paths_match_bitwise() {
        let mut rng = SmallRng::seed_from_u64(7);
        for (n, k, c) in [(1usize, 64usize, 64usize), (7, 33, 5), (16, 130, 40)] {
            let acts = random_acts(n, k, 0.3, &mut rng);
            let w = random_matrix(k, c, &mut rng);
            let bias: Vec<f32> = (0..c).map(|_| rng.gen_range(-0.5..0.5)).collect();
            let qw = QMatrix::quantize(&w);
            let mut qa = QActs::new();
            qa.quantize_from(&acts);
            let mut scalar = Matrix::zeros(0, 0);
            qmatmul_dequant_bias_with(Kernel::Scalar, &qa, &qw, &bias, &mut scalar);
            assert_eq!(scalar.shape(), (n, c));
            if avx2_available() {
                let mut avx2 = Matrix::zeros(0, 0);
                qmatmul_dequant_bias_with(Kernel::Avx2, &qa, &qw, &bias, &mut avx2);
                assert_eq!(scalar.data(), avx2.data(), "({n},{k},{c})");
            }
        }
    }

    #[test]
    fn sparse_path_matches_dense_bitwise() {
        let mut rng = SmallRng::seed_from_u64(8);
        for (n, k, c) in [(5usize, 70usize, 16usize), (9, 33, 7), (3, 128, 64)] {
            let dense = random_acts(n, k, 0.85, &mut rng);
            let sp = SparseRows::from_dense(&dense);
            let w = random_matrix(k, c, &mut rng);
            let bias: Vec<f32> = (0..c).map(|_| rng.gen_range(-0.5..0.5)).collect();
            let qw = QMatrix::quantize(&w);

            let mut qa = QActs::new();
            qa.quantize_from(&dense);
            let mut want = Matrix::zeros(0, 0);
            qmatmul_dequant_bias_with(Kernel::Scalar, &qa, &qw, &bias, &mut want);

            // The sparse path quantizes only the stored nonzeros — same
            // per-row max, hence the same scales and the same bits.
            let mut q = Vec::new();
            let mut scales = Vec::new();
            quantize_csr(&sp, &mut q, &mut scales);
            assert_eq!(scales, qa.scales(), "zeros cannot change a row's max");
            let mut got = Matrix::zeros(0, 0);
            qsparse_matmul_dequant_bias(&sp, &q, &scales, &qw, &bias, &mut got);
            assert_eq!(want.data(), got.data(), "({n},{k},{c})");

            if avx2_available() {
                let mut avx2 = Matrix::zeros(0, 0);
                qmatmul_dequant_bias_with(Kernel::Avx2, &qa, &qw, &bias, &mut avx2);
                assert_eq!(avx2.data(), got.data(), "sparse must match the avx2 dense tier too");
            }
        }
    }

    /// Per-row scales make quantization row-local: a row's quantized
    /// bytes and scale cannot depend on which other rows share the
    /// tensor — the invariant batching transparency rests on.
    #[test]
    fn row_quantization_is_independent_of_batch_composition() {
        let mut rng = SmallRng::seed_from_u64(10);
        let big = random_acts(6, 20, 0.3, &mut rng);
        let mut batched = QActs::new();
        batched.quantize_from(&big);
        for i in 0..6 {
            let solo_m = Matrix::from_vec(1, 20, big.row(i).to_vec());
            let mut solo = QActs::new();
            solo.quantize_from(&solo_m);
            assert_eq!(solo.row(0), batched.row(i), "row {i} bytes changed with the batch");
            assert_eq!(solo.scales()[0], batched.scales()[i], "row {i} scale changed");
        }
    }

    #[test]
    fn quantized_mlp_tracks_the_f32_module() {
        let mut rng = SmallRng::seed_from_u64(9);
        let mlp = Mlp::new(24, 32, 16, FinalActivation::Relu, &mut rng);
        let x = random_acts(6, 24, 0.4, &mut rng);
        let mut f32_cache = crate::mlp::MlpCache::new();
        mlp.forward_into(&x, &mut f32_cache);
        let f32_out = f32_cache.output;

        let qmlp = QMlp::quantize(&mlp);
        assert_eq!(qmlp.input_dim(), 24);
        assert_eq!(qmlp.output_dim(), 16);
        let mut qa = QActs::new();
        qa.quantize_from(&x);
        let mut cache = QMlpCache::new();
        qmlp.forward_into(&qa, &mut cache);
        let scale = f32_out.data().iter().fold(0.0f32, |m, v| m.max(v.abs())).max(1e-3);
        for (got, want) in cache.output.data().iter().zip(f32_out.data()) {
            assert!(
                (got - want).abs() <= 0.08 * scale + 0.02,
                "int8 forward drifted: got {got}, want {want}"
            );
        }
        // ~4× smaller resident footprint than the f32 parameters.
        assert!(qmlp.resident_bytes() * 3 < mlp.num_params() * 4);
    }

    #[test]
    fn all_zero_tensors_quantize_cleanly() {
        let zeros = Matrix::zeros(3, 8);
        let mut qa = QActs::new();
        qa.quantize_from(&zeros);
        assert!(qa.scales().iter().all(|&s| s == 1.0));
        assert!(qa.row(0).iter().all(|&q| q == 0));
        let qw = QMatrix::quantize(&zeros);
        assert!(qw.scales().iter().all(|&s| s == 1.0));
        assert!(qw.weights().iter().all(|&q| q == 0));
    }
}
