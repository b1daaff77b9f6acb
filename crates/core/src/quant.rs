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
//! quantized. Per-row activation scales make each derived row
//! exactly what a stacked copy would give.
//!
//! The int8 model is never loaded from disk: `serve --model` loads the
//! f32 `MSCN` format and the registry quantizes at publish.
//! [`QuantizedMscn::to_bytes`] writes the int8 weights out as one byte
//! string, which the cross-kernel determinism fingerprint hashes; no
//! reader exists.

use bytes::BufMut;
use lc_nn::qmatrix::quantize_csr;
use lc_nn::{Matrix, QActs, QMlp, QMlpCache};
use lc_query::LabeledQuery;

use crate::batch::{segment_mean_into_cols, RaggedBatch, WarmPool};
use crate::estimator::Estimator;
use crate::featurize::{Featurizer, Set};
use crate::model::MscnModel;
use crate::serialize::write_featurizer;
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
    /// constant rows (empty until derived).
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

    /// Hidden width `d`.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Expected feature widths `(table, join, predicate)`.
    pub fn input_dims(&self) -> (usize, usize, usize) {
        (self.table_mlp.input_dim(), self.join_mlp.input_dim(), self.pred_mlp.input_dim())
    }

    /// All modules in canonical order (table, join, predicate, output).
    pub fn mlps(&self) -> [&QMlp; 4] {
        [&self.table_mlp, &self.join_mlp, &self.pred_mlp, &self.out_mlp]
    }

    /// Resident bytes of the quantized parameters (int8 weights + f32
    /// scales + f32 biases, plus the derived sparse fast-path
    /// companions) — the footprint that must fit in L2.
    pub fn resident_bytes(&self) -> usize {
        self.mlps().iter().map(|m| m.resident_bytes()).sum()
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

    /// The model as one byte string: `MSCQ` magic + version, the
    /// featurizer section (byte-identical to the f32 format's), then per
    /// module per layer the per-channel scales, f32 bias, and int8
    /// weights. Written for fingerprinting; nothing reads it back.
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
                    // the cast is bit-preserving.
                    buf.put_u8(w as u8);
                }
            }
        }
        buf
    }
}

impl Estimator for QuantizedMscn {
    fn name(&self) -> &str {
        "mscn-int8"
    }

    /// The whole slice runs through the blocked quantized forward
    /// (bitwise-stable across batch compositions and thread counts, like
    /// the f32 path).
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
        teacher_of_width(32)
    }

    fn teacher_of_width(hidden: usize) -> (MscnEstimator, Vec<LabeledQuery>) {
        let db = generate(&ImdbConfig::tiny());
        let mut rng = SmallRng::seed_from_u64(51);
        let samples = SampleSet::draw(&db, 24, &mut rng);
        let data = workloads::synthetic(&db, &samples, 400, 2, 53).queries;
        let cfg = TrainConfig { epochs: 6, hidden, batch_size: 64, ..TrainConfig::default() };
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

    /// The resident footprint — int8 weights, f32 scales and biases,
    /// and the pair-interleaved sparse companions of the first layers —
    /// is at most a third of the f32 weights at the served width 64,
    /// where the output module dominates. (At width 32 the per-channel
    /// scales and the companions weigh more, and it is not.)
    #[test]
    fn quantized_model_is_at_most_a_third_of_f32() {
        let (est, _) = teacher_of_width(64);
        let q = QuantizedMscn::quantize(&est);
        let f32_bytes = est.model().num_params() * 4;
        let resident = q.resident_bytes();
        assert!(resident * 3 <= f32_bytes, "resident {resident} bytes vs f32 {f32_bytes}");
    }

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
        for (name, served) in [("quantized", &q), ("clone", &q.clone())] {
            assert_eq!(bits(&served.estimate_normalized(&data)), want, "{name}");
        }
    }

    #[test]
    fn estimator_trait_surface_is_consistent() {
        let (est, _) = teacher();
        let q = QuantizedMscn::quantize(&est);
        let dyn_est: &dyn Estimator = &q;
        assert_eq!(dyn_est.name(), "mscn-int8");
        assert!(dyn_est.is_quantized());
        assert_eq!(dyn_est.model_bytes(), q.resident_bytes());
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
