//! The int8 quantized MSCN: a post-training-quantized mirror of
//! [`MscnModel`] / [`MscnEstimator`] built for *cache residency*.
//!
//! Deep Sketches (PAPERS.md) argues learned cardinality estimators can
//! be compressed aggressively with little q-error cost. The f32 model is
//! memory-bound on the single-query path — its weights stream through
//! the cache hierarchy once per estimate — so shrinking every weight to
//! one byte is a latency lever, not just a footprint one. A quantized
//! model is built **once at publish time** ([`QuantizedMscn::quantize`],
//! re-run by `lc_serve`'s registry pipeline on every republish) and is
//! immutable thereafter: inference never touches the f32 weights again.
//!
//! The forward pass mirrors [`MscnModel::forward_scratch`] exactly —
//! same CSR set-module inputs, same masked segment-mean pooling, same
//! concatenation layout — with each [`lc_nn::Mlp`] swapped for its
//! [`QMlp`] twin. Pooling and the nonlinearities stay in f32;
//! activations are re-quantized with fresh *per-row* dynamic scales in
//! front of every quantized product, so a query's quantized answer never
//! depends on which other queries share its batch (the serving layer's
//! batching-transparency invariant).
//!
//! An element's index names either a stack row or a model constant, as
//! on the f32 path: the int8 model derives the outputs of the
//! featurizer's constant rows with its own forward
//! ([`QuantizedMscnModel::derive_constants`]) when [`QuantizedMscn`] is
//! quantized or decoded. Per-row activation scales make each derived row
//! exactly what a stacked copy would give; the outputs are never
//! serialized.
//!
//! Serialization follows the hardened `MSCN` format discipline: magic +
//! version, the *identical* featurizer section, and an exact-size check
//! computed before any allocation.

use bytes::{Buf, BufMut};
use lc_nn::qmatrix::quantize_csr;
use lc_nn::{FinalActivation, Matrix, QActs, QLinear, QMatrix, QMlp, QMlpCache};
use lc_query::LabeledQuery;

use crate::batch::{segment_mean_into_cols, RaggedBatch, WarmPool};
use crate::ensemble::UncertainEstimate;
use crate::estimator::Estimator;
use crate::featurize::{Featurizer, Set};
use crate::model::MscnModel;
use crate::serialize::{need, read_featurizer, write_featurizer, DecodeError};
use crate::train::{predict_blocks, MscnEstimator};

const QMAGIC: u32 = 0x4D53_4351; // "MSCQ"
const QVERSION: u32 = 1;

/// Reusable working memory for one quantized forward pass. Shape-
/// agnostic and resized in place — one warm scratch serves batches of
/// any size with zero steady-state allocations (asserted by the
/// counting-allocator test in `tests/alloc.rs`).
#[derive(Default)]
pub struct QuantScratch {
    /// Table, join, predicate set-module activations.
    set_caches: [QMlpCache; 3],
    concat: Matrix,
    qconcat: QActs,
    out_cache: QMlpCache,
    qvals: Vec<u8>,
    qscales: Vec<f32>,
    /// Predictions of the last [`QuantizedMscnModel::forward_scratch`].
    pub preds: Vec<f32>,
}

impl QuantScratch {
    /// An empty scratch; buffers grow to steady-state sizes on first use.
    pub fn new() -> Self {
        QuantScratch::default()
    }
}

/// The int8 network: four [`QMlp`] modules in the canonical (table,
/// join, predicate, output) order.
#[derive(Clone, Debug)]
pub struct QuantizedMscnModel {
    table_mlp: QMlp,
    join_mlp: QMlp,
    pred_mlp: QMlp,
    out_mlp: QMlp,
    hidden: usize,
    /// Per set module, the int8 set-MLP outputs of the featurizer's
    /// constant rows (derived, never serialized; empty until derived).
    constants: [Matrix; 3],
}

impl QuantizedMscnModel {
    /// Post-training-quantize a trained f32 network. The three set
    /// modules consume CSR feature rows, so their first layers get the
    /// pair-interleaved sparse fast path; the output module reads the
    /// dense concatenation and stays on the dot-product layout.
    pub fn quantize(model: &MscnModel) -> Self {
        let [table, join, pred, out] = model.mlps();
        let mut table_mlp = QMlp::quantize(table);
        let mut join_mlp = QMlp::quantize(join);
        let mut pred_mlp = QMlp::quantize(pred);
        table_mlp.mark_sparse_input();
        join_mlp.mark_sparse_input();
        pred_mlp.mark_sparse_input();
        QuantizedMscnModel {
            table_mlp,
            join_mlp,
            pred_mlp,
            out_mlp: QMlp::quantize(out),
            hidden: model.hidden(),
            constants: Default::default(),
        }
    }

    /// Compute the int8 set-MLP outputs of `featurizer`'s constant rows
    /// with this model's own forward and keep them, so serving blocks
    /// that name a constant can be forwarded. Activation scales are per
    /// row, so each output is bitwise the one a stacked copy of the row
    /// gets.
    ///
    /// # Panics
    /// If `featurizer`'s feature widths are not this model's input widths.
    pub fn derive_constants(&mut self, featurizer: &Featurizer) {
        let dims = (featurizer.table_dim(), featurizer.join_dim(), featurizer.pred_dim());
        assert_eq!(dims, self.input_dims(), "featurizer widths must match the model's inputs");
        let (mut cache, mut qvals, mut qscales) = (QMlpCache::new(), Vec::new(), Vec::new());
        for (m, set) in Set::ALL.into_iter().enumerate() {
            let rows = featurizer.constant_rows(set);
            quantize_csr(&rows, &mut qvals, &mut qscales);
            self.mlps()[m].forward_sparse_into(&rows, &qvals, &qscales, &mut cache);
            self.constants[m] = std::mem::take(&mut cache.output);
        }
    }

    /// Reassemble from deserialized modules (canonical order).
    ///
    /// # Panics
    /// If the modules' widths don't form a valid MSCN architecture.
    pub fn from_parts(
        mut table_mlp: QMlp,
        mut join_mlp: QMlp,
        mut pred_mlp: QMlp,
        out_mlp: QMlp,
    ) -> Self {
        let hidden = table_mlp.output_dim();
        assert_eq!(join_mlp.output_dim(), hidden, "set modules must share the hidden width");
        assert_eq!(pred_mlp.output_dim(), hidden, "set modules must share the hidden width");
        assert_eq!(out_mlp.input_dim(), 3 * hidden, "output module must read the concatenation");
        assert_eq!(out_mlp.output_dim(), 1, "output module must end in the scalar head");
        // The sparse fast-path companion is derived data, not part of
        // the serialized format — rebuild it on every reassembly so a
        // deserialized model serves as fast as a freshly quantized one.
        table_mlp.mark_sparse_input();
        join_mlp.mark_sparse_input();
        pred_mlp.mark_sparse_input();
        QuantizedMscnModel {
            table_mlp,
            join_mlp,
            pred_mlp,
            out_mlp,
            hidden,
            constants: Default::default(),
        }
    }

    /// Hidden width `d`.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Expected feature widths `(table, join, predicate)`.
    pub fn input_dims(&self) -> (usize, usize, usize) {
        (self.table_mlp.input_dim(), self.join_mlp.input_dim(), self.pred_mlp.input_dim())
    }

    /// All modules in canonical order (the serializer's order).
    pub fn mlps(&self) -> [&QMlp; 4] {
        [&self.table_mlp, &self.join_mlp, &self.pred_mlp, &self.out_mlp]
    }

    /// Resident bytes of the quantized parameters (int8 weights + f32
    /// scales + f32 biases, plus the derived sparse fast-path
    /// companions) — the footprint that must fit in L2.
    pub fn resident_bytes(&self) -> usize {
        self.mlps().iter().map(|m| m.resident_bytes()).sum()
    }

    /// Bytes of the persisted parameters — what [`Self::to_bytes`]
    /// writes per tensor, excluding the derived companions that are
    /// rebuilt after deserialization.
    pub fn persisted_bytes(&self) -> usize {
        self.mlps().iter().map(|m| m.persisted_bytes()).sum()
    }

    /// Allocation-free quantized forward pass, mirroring
    /// [`MscnModel::forward_scratch`] stage for stage: each set module
    /// consumes the batch's CSR view (its stored values quantized with
    /// per-row dynamic scales), pooling and concatenation run in f32,
    /// and the concatenation is re-quantized for the output module.
    /// Elements that name a constant read the derived outputs
    /// ([`QuantizedMscnModel::derive_constants`]).
    /// After this call `s.preds` holds `w_out ∈ [0,1]` per query.
    ///
    /// # Panics
    /// If the batch names a constant this model does not hold.
    pub fn forward_scratch(&self, batch: &RaggedBatch, s: &mut QuantScratch) {
        let n = batch.len();
        let d = self.hidden;
        // The three pooling windows overwrite every element, so the
        // reshape can skip its zero-fill.
        s.concat.resize_for_overwrite(n, 3 * d);
        let sets = [
            (&self.table_mlp, &batch.tables_sp, &batch.table_segs, &batch.table_index),
            (&self.join_mlp, &batch.joins_sp, &batch.join_segs, &batch.join_index),
            (&self.pred_mlp, &batch.preds_sp, &batch.pred_segs, &batch.pred_index),
        ];
        for (m, (mlp, x, segs, index)) in sets.into_iter().enumerate() {
            // One (qvals, qscales) pair serves all three set modules in
            // sequence: each forward consumes the buffers before the next
            // quantization overwrites them.
            quantize_csr(x, &mut s.qvals, &mut s.qscales);
            mlp.forward_sparse_into(x, &s.qvals, &s.qscales, &mut s.set_caches[m]);
            let (rows, constants) = (&s.set_caches[m].output, &self.constants[m]);
            segment_mean_into_cols(rows, constants, segs, index, &mut s.concat, m * d);
        }
        s.qconcat.quantize_from(&s.concat);
        self.out_mlp.forward_into(&s.qconcat, &mut s.out_cache);
        s.preds.clear();
        s.preds.extend((0..n).map(|q| s.out_cache.output.get(q, 0)));
    }
}

/// The int8 serving artifact: quantized network plus the (unquantized)
/// featurization state. Implements [`Estimator`], so a registry can hold
/// it interchangeably with the f32 pipeline.
#[derive(Clone, Debug)]
pub struct QuantizedMscn {
    qmodel: QuantizedMscnModel,
    featurizer: Featurizer,
}

impl QuantizedMscn {
    /// Pair a network with its featurizer, deriving the network's
    /// constants — the one way an int8 estimator is built or loaded.
    fn new(mut qmodel: QuantizedMscnModel, featurizer: Featurizer) -> Self {
        qmodel.derive_constants(&featurizer);
        QuantizedMscn { qmodel, featurizer }
    }

    /// Quantize a trained f32 estimator — the publish-time conversion.
    pub fn quantize(est: &MscnEstimator) -> Self {
        Self::new(QuantizedMscnModel::quantize(est.model()), est.featurizer().clone())
    }

    /// The quantized network.
    pub fn qmodel(&self) -> &QuantizedMscnModel {
        &self.qmodel
    }

    /// The featurizer (shared encoding with the f32 teacher).
    pub fn featurizer(&self) -> &Featurizer {
        &self.featurizer
    }

    /// Resident bytes of the quantized parameters.
    pub fn resident_bytes(&self) -> usize {
        self.qmodel.resident_bytes()
    }

    /// Batched inference: estimated cardinalities (≥ 1) for `queries`.
    pub fn estimate_cards(&self, queries: &[LabeledQuery]) -> Vec<f64> {
        let label = self.featurizer.label_norm();
        self.estimate_normalized(queries).iter().map(|&p| label.denormalize(p).max(1.0)).collect()
    }

    /// Raw normalized predictions `w_out ∈ [0,1]`, through the same block
    /// fan-out as the f32 path ([`predict_blocks`]): f32-vs-int8
    /// comparisons block identically, and neither block boundaries nor
    /// thread counts change a byte of the output.
    pub fn estimate_normalized(&self, queries: &[LabeledQuery]) -> Vec<f32> {
        static SCRATCHES: WarmPool<QuantScratch> = WarmPool::new();
        predict_blocks(&self.featurizer, queries, &SCRATCHES, |batch, s| {
            self.qmodel.forward_scratch(batch, s);
            &s.preds
        })
    }

    /// Serialize to a self-contained byte buffer: `MSCQ` magic +
    /// version, the featurizer section (byte-identical to the f32
    /// format's), then per module per layer the per-channel scales, f32
    /// bias, and int8 weights.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.resident_bytes() + 1024);
        buf.put_u32_le(QMAGIC);
        buf.put_u32_le(QVERSION);
        write_featurizer(&mut buf, &self.featurizer);
        buf.put_u32_le(self.qmodel.hidden() as u32);
        for mlp in self.qmodel.mlps() {
            for layer in mlp.layers() {
                buf.put_u32_le(layer.input_dim() as u32);
                buf.put_u32_le(layer.output_dim() as u32);
                for &s in layer.weight().scales() {
                    buf.put_f32_le(s);
                }
                for &b in layer.bias() {
                    buf.put_f32_le(b);
                }
                for &w in layer.weight().weights() {
                    // The vendored `bytes` stand-in has no i8 accessors;
                    // the cast is bit-preserving both ways.
                    buf.put_u8(w as u8);
                }
            }
        }
        buf
    }

    /// Deserialize a buffer written by [`QuantizedMscn::to_bytes`].
    ///
    /// Same hardening contract as [`MscnEstimator::from_bytes`]: the
    /// architecture is fully determined by the featurizer dims and
    /// `hidden`, so the exact network byte length is checked — rejecting
    /// truncation and trailing garbage in one comparison — *before* any
    /// weight buffer is allocated, with u128 arithmetic so adversarial
    /// dimension products cannot wrap.
    pub fn from_bytes(mut data: &[u8]) -> Result<Self, DecodeError> {
        need(data, 8)?;
        if data.get_u32_le() != QMAGIC {
            return Err(DecodeError("bad magic".into()));
        }
        let version = data.get_u32_le();
        if version != QVERSION {
            return Err(DecodeError(format!("unsupported version {version}")));
        }
        let featurizer = read_featurizer(&mut data)?;

        need(data, 4)?;
        let hidden = data.get_u32_le() as usize;
        // Per layer: u32 input + u32 output, f32 scales (out), f32 bias
        // (out), i8 weights (in×out).
        fn qlayer_bytes(input: u128, output: u128) -> u128 {
            8 + 4 * output + 4 * output + input * output
        }
        fn qmlp_bytes(input: usize, hidden: usize, output: usize) -> u128 {
            let (i, h, o) = (input as u128, hidden as u128, output as u128);
            qlayer_bytes(i, h) + qlayer_bytes(h, o)
        }
        let (td, jd, pd) = (featurizer.table_dim(), featurizer.join_dim(), featurizer.pred_dim());
        let expected = qmlp_bytes(td, hidden, hidden)
            + qmlp_bytes(jd, hidden, hidden)
            + qmlp_bytes(pd, hidden, hidden)
            + qmlp_bytes(3 * hidden, hidden, 1);
        if data.remaining() as u128 != expected {
            return Err(DecodeError(format!(
                "quantized payload size mismatch: expected {expected} bytes for dims \
                 ({td},{jd},{pd})×{hidden}, found {}",
                data.remaining()
            )));
        }
        // Module shapes and final activations in canonical order — the
        // same architecture `MscnModel::new` would build.
        let shapes: [(usize, usize, usize, FinalActivation); 4] = [
            (td, hidden, hidden, FinalActivation::Relu),
            (jd, hidden, hidden, FinalActivation::Relu),
            (pd, hidden, hidden, FinalActivation::Relu),
            (3 * hidden, hidden, 1, FinalActivation::Sigmoid),
        ];
        let mut modules = Vec::with_capacity(4);
        for &(i, h, o, act) in &shapes {
            let l1 = read_qlinear(&mut data, i, h)?;
            let l2 = read_qlinear(&mut data, h, o)?;
            modules.push(QMlp::from_parts(l1, l2, act));
        }
        let out_mlp = modules.pop().expect("4 modules read");
        let pred_mlp = modules.pop().expect("4 modules read");
        let join_mlp = modules.pop().expect("4 modules read");
        let table_mlp = modules.pop().expect("4 modules read");
        let qmodel = QuantizedMscnModel::from_parts(table_mlp, join_mlp, pred_mlp, out_mlp);
        Ok(Self::new(qmodel, featurizer))
    }

    /// Size in bytes of the serialized artifact.
    pub fn serialized_size(&self) -> usize {
        self.to_bytes().len()
    }
}

/// Decode one quantized layer, verifying its dims against the expected
/// architecture before reading the tensors.
fn read_qlinear(data: &mut &[u8], input: usize, output: usize) -> Result<QLinear, DecodeError> {
    need(data, 8)?;
    let file_in = data.get_u32_le() as usize;
    let file_out = data.get_u32_le() as usize;
    if file_in != input || file_out != output {
        return Err(DecodeError(format!(
            "layer shape mismatch: file {file_in}x{file_out}, expected {input}x{output}"
        )));
    }
    need(data, 4 * output + 4 * output + input * output)?;
    let scales: Vec<f32> = (0..output).map(|_| data.get_f32_le()).collect();
    let bias: Vec<f32> = (0..output).map(|_| data.get_f32_le()).collect();
    let weights: Vec<i8> = (0..input * output).map(|_| data.get_u8() as i8).collect();
    Ok(QLinear::from_parts(QMatrix::from_parts(input, output, weights, scales), bias))
}

impl Estimator for QuantizedMscn {
    fn name(&self) -> &str {
        "mscn-int8"
    }

    /// Same trust semantics as the f32 [`MscnEstimator`]: no ensemble
    /// spread, saturation flagged when the normalized prediction pins at
    /// the sigmoid boundary.
    fn estimate_with_uncertainty(&self, queries: &[LabeledQuery]) -> Vec<UncertainEstimate> {
        let norms = self.estimate_normalized(queries);
        let label = self.featurizer.label_norm();
        norms
            .into_iter()
            .map(|norm| UncertainEstimate {
                estimate: label.denormalize(norm).max(1.0),
                log_std: 0.0,
                saturated: !(0.02..=0.98).contains(&norm),
            })
            .collect()
    }

    fn estimate(&self, query: &LabeledQuery) -> f64 {
        self.estimate_cards(std::slice::from_ref(query))[0]
    }

    /// Vectorized override: the whole slice runs through the blocked
    /// quantized forward (bitwise-stable across batch compositions and
    /// thread counts, like the f32 path).
    fn estimate_all(&self, queries: &[LabeledQuery]) -> Vec<f64> {
        self.estimate_cards(queries)
    }

    fn model_bytes(&self) -> usize {
        self.resident_bytes()
    }

    fn is_quantized(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::train::{train, TrainConfig};
    use lc_engine::SampleSet;
    use lc_imdb::{generate, ImdbConfig};
    use lc_query::workloads;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn teacher() -> (MscnEstimator, Vec<LabeledQuery>) {
        let db = generate(&ImdbConfig::tiny());
        let mut rng = SmallRng::seed_from_u64(51);
        let samples = SampleSet::draw(&db, 24, &mut rng);
        let data = workloads::synthetic(&db, &samples, 400, 2, 53).queries;
        let cfg = TrainConfig { epochs: 6, hidden: 32, batch_size: 64, ..TrainConfig::default() };
        (train(&db, 24, &data, cfg).estimator, data)
    }

    fn median_qerror(cards: &[f64], queries: &[LabeledQuery]) -> f64 {
        let mut qs: Vec<f64> = cards
            .iter()
            .zip(queries)
            .map(|(&est, q)| {
                let truth = q.cardinality as f64;
                (est / truth).max(truth / est)
            })
            .collect();
        qs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        qs[qs.len() / 2]
    }

    /// The compact-models acceptance bar: int8 quantization may cost at
    /// most 1.5× the teacher's median q-error, and raw estimates must
    /// stay within a small multiplicative band of the f32 answers.
    #[test]
    fn quantized_estimates_track_the_f32_teacher() {
        let (est, data) = teacher();
        let q = QuantizedMscn::quantize(&est);
        let f32_cards = est.estimate_cards(&data[..64]);
        let int8_cards = q.estimate_cards(&data[..64]);
        assert!(int8_cards.iter().all(|&c| c >= 1.0));
        let f32_q = median_qerror(&f32_cards, &data[..64]);
        let int8_q = median_qerror(&int8_cards, &data[..64]);
        assert!(
            int8_q <= f32_q * 1.5,
            "int8 median q-error {int8_q} exceeds 1.5x the teacher's {f32_q}"
        );
        // Direct estimate drift stays small: with activations kept in
        // the saturation-free [0, 127] band the quantization noise on
        // the normalized output is well under 1%, which the label scale
        // exponentiates into at most a few percent of cardinality.
        let mut ratios: Vec<f64> =
            f32_cards.iter().zip(&int8_cards).map(|(&a, &b)| (a / b).max(b / a)).collect();
        ratios.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = ratios[ratios.len() / 2];
        assert!(median < 1.2, "median f32-vs-int8 drift too large: {median}");
    }

    #[test]
    fn quantized_model_is_at_most_a_third_of_f32() {
        let (est, _) = teacher();
        let q = QuantizedMscn::quantize(&est);
        let f32_bytes = est.model().num_params() * 4;
        // The persisted format (int8 weights + f32 scales/biases, no
        // derived companions) carries the ≤1/3 guarantee at any model
        // size. The *resident* footprint adds the pair-interleaved
        // sparse companions — roughly one extra copy of the (small)
        // first layers — and meets the 1/3 bound at served widths,
        // where the output module dominates; `examples/compact_models`
        // gates exactly that at the hidden-64 operating point. On this
        // deliberately tiny fixture the per-channel f32 scales weigh
        // disproportionately, so resident gets the looser bound.
        let persisted = q.qmodel().persisted_bytes();
        assert!(persisted * 3 <= f32_bytes, "persisted {persisted} bytes vs f32 {f32_bytes}");
        assert!(
            q.resident_bytes() * 2 <= f32_bytes,
            "resident {} bytes vs f32 {f32_bytes}",
            q.resident_bytes()
        );
    }

    #[test]
    fn roundtrip_preserves_predictions_bitwise() {
        let (est, data) = teacher();
        let q = QuantizedMscn::quantize(&est);
        let restored = QuantizedMscn::from_bytes(&q.to_bytes()).expect("decode");
        assert_eq!(q.estimate_cards(&data[..32]), restored.estimate_cards(&data[..32]));
        assert_eq!(q.resident_bytes(), restored.resident_bytes());
    }

    /// The int8 model derives its constants with its own forward when it
    /// is quantized or decoded, so served answers (blocks name constants)
    /// are bitwise those of the assembled training batch (which names
    /// none), for the original, a clone and a decoded copy alike.
    #[test]
    fn derived_constants_follow_every_quantized_estimator() {
        use crate::batch::CorpusSparse;
        use crate::featurize::FeaturizedQuery;

        let (est, data) = teacher();
        let q = QuantizedMscn::quantize(&est);
        let f = q.featurizer();
        let feats: Vec<FeaturizedQuery> = data.iter().map(|l| f.featurize(l)).collect();
        let (td, jd, pd) = (f.table_dim(), f.join_dim(), f.pred_dim());
        let corpus = CorpusSparse::build(&feats, td, jd, pd);
        let all: Vec<usize> = (0..data.len()).collect();
        let batch = RaggedBatch::assemble_indexed(&feats, &corpus, &all, td, jd, pd);
        let mut s = QuantScratch::new();
        q.qmodel().forward_scratch(&batch, &mut s);
        let bits = |v: &[f32]| v.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
        let want = bits(&s.preds);
        let decoded = QuantizedMscn::from_bytes(&q.to_bytes()).expect("decode");
        for (name, served) in [("quantized", &q), ("clone", &q.clone()), ("decoded", &decoded)] {
            assert_eq!(bits(&served.estimate_normalized(&data)), want, "{name}");
        }
    }

    #[test]
    fn estimator_trait_surface_is_consistent() {
        let (est, data) = teacher();
        let q = QuantizedMscn::quantize(&est);
        let dyn_est: &dyn Estimator = &q;
        assert_eq!(dyn_est.name(), "mscn-int8");
        assert!(dyn_est.is_quantized());
        assert_eq!(dyn_est.model_bytes(), q.resident_bytes());
        let points = dyn_est.estimate_all(&data[..8]);
        let uncertain = dyn_est.estimate_with_uncertainty(&data[..8]);
        for (i, (p, u)) in points.iter().zip(&uncertain).enumerate() {
            assert_eq!(*p, u.estimate);
            assert_eq!(u.log_std, 0.0);
            assert_eq!(dyn_est.estimate(&data[i]), *p);
        }
    }

    #[test]
    fn rejects_corrupt_and_truncated_buffers() {
        let (est, _) = teacher();
        let q = QuantizedMscn::quantize(&est);
        let bytes = q.to_bytes();
        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert!(QuantizedMscn::from_bytes(&bad).is_err());
        // The f32 format must not decode as quantized.
        assert!(QuantizedMscn::from_bytes(&est.to_bytes()).is_err());
        // Trailing byte.
        let mut trailing = bytes.clone();
        trailing.push(0);
        let err = QuantizedMscn::from_bytes(&trailing).unwrap_err();
        assert!(err.0.contains("size mismatch"), "unexpected error: {err}");
        // Every truncation errors cleanly: exhaustive over the metadata
        // region, strided through the weight region.
        let cuts = (0..256.min(bytes.len()))
            .chain((256..bytes.len()).step_by(97))
            .chain(bytes.len().saturating_sub(8)..bytes.len());
        for cut in cuts {
            assert!(
                QuantizedMscn::from_bytes(&bytes[..cut]).is_err(),
                "truncation at {cut}/{} decoded successfully",
                bytes.len()
            );
        }
        // Corrupt metadata counts error instead of allocating.
        for word in 0..5 {
            let at = 9 + 4 * word;
            let mut corrupt = bytes.clone();
            corrupt[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            assert!(QuantizedMscn::from_bytes(&corrupt).is_err(), "corrupt word {word} accepted");
        }
    }

    /// Batch composition and blocking must not change quantized answers
    /// (the micro-batcher coalesces arbitrary request groups).
    #[test]
    fn quantized_batching_is_transparent() {
        let (est, data) = teacher();
        let q = QuantizedMscn::quantize(&est);
        let together = q.estimate_cards(&data[..48]);
        let singly: Vec<f64> = data[..48].iter().map(|qy| q.estimate(qy)).collect();
        assert_eq!(together, singly, "batching changed a quantized estimate");
    }
}
