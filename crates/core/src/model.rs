//! The MSCN network (§3.2, Fig. 1): three per-element set MLPs with shared
//! weights, masked average pooling, concatenation, and an output MLP with a
//! sigmoid scalar head.
//!
//! There is one forward and one backward:
//! [`MscnModel::forward_scratch`] / [`MscnModel::backward_scratch`]. Both
//! take `&self` (so shards of a mini-batch run on worker threads against
//! shared weights), read the batch's CSR set inputs, keep every
//! intermediate in a reusable [`MscnScratch`], and accumulate gradients
//! into an external [`MscnGrads`] — after one warm-up pass a whole
//! training step touches the allocator exactly zero times.
//!
//! A batch element's index names either a stack row or a model constant
//! (`crate::batch::CONSTANT`). The model holds, as derived state, the
//! set-MLP outputs of the featurizer's constant rows
//! ([`MscnModel::derive_constants`]). They are computed by the same
//! forward as any stack row, so pooling one reads exactly the values a
//! stacked copy would have produced. The estimator derives them whenever
//! it is built or loaded; they are never serialized, and
//! [`MscnModel::mlps_mut`] drops them, so a forward over a batch that
//! names a constant then panics instead of reading stale outputs.

use lc_nn::{FinalActivation, Matrix, Mlp, MlpCache, MlpGrads, Scratch, SparseRows};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::batch::{
    segment_mean_backward_into_rows, segment_mean_into_cols, RaggedBatch, CONSTANT,
};
use crate::featurize::{Featurizer, Set};

/// External gradient buffers for all four MLPs, in canonical order. Each
/// data-parallel shard accumulates into its own `MscnGrads`; the trainer
/// then sums them in fixed shard order ([`MscnGrads::sum_in_order`]),
/// which is what keeps training bitwise reproducible at any thread count.
#[derive(Clone, Debug)]
pub struct MscnGrads {
    /// Table set-module gradients.
    pub table: MlpGrads,
    /// Join set-module gradients.
    pub join: MlpGrads,
    /// Predicate set-module gradients.
    pub pred: MlpGrads,
    /// Output-network gradients.
    pub out: MlpGrads,
}

impl MscnGrads {
    /// Reset every gradient to zero, keeping the allocations.
    pub fn zero(&mut self) {
        self.mlps_mut().into_iter().for_each(MlpGrads::zero);
    }

    /// Overwrite every gradient with the element-wise sum of `shards` —
    /// per element `((0 + g₀) + g₁) + …`, in the order `shards` yields
    /// them: the deterministic shard reduction, in one pass that reads
    /// each shard and writes `self` once, block by cache-sized block.
    ///
    /// # Panics
    /// If a shard's shapes differ from `self`'s.
    pub fn sum_in_order<'a>(&mut self, shards: impl Iterator<Item = &'a MscnGrads> + Clone) {
        /// Elements per block: a block of `self` stays in L1 while every
        /// shard adds into it.
        const BLOCK: usize = 512;
        for (m, mlp) in self.mlps_mut().into_iter().enumerate() {
            for (l, layer) in mlp.layers_mut().into_iter().enumerate() {
                for (k, total) in layer.tensors_mut().into_iter().enumerate() {
                    let parts = shards.clone().map(|s| s.mlps()[m].layers()[l].tensors()[k]);
                    let same_shape = parts.clone().all(|part| part.len() == total.len());
                    assert!(same_shape, "sum_in_order: a shard's gradient shapes differ");
                    for (b, block) in total.chunks_mut(BLOCK).enumerate() {
                        block.fill(0.0);
                        for part in parts.clone() {
                            for (o, &g) in block.iter_mut().zip(&part[b * BLOCK..]) {
                                *o += g;
                            }
                        }
                    }
                }
            }
        }
    }

    /// The four module gradients in canonical (table, join, predicate,
    /// output) order — mirrors [`MscnModel::mlps_mut`] for the optimizer.
    pub fn mlps(&self) -> [&MlpGrads; 4] {
        [&self.table, &self.join, &self.pred, &self.out]
    }

    /// The four module gradients, mutable, in the order of
    /// [`MscnGrads::mlps`].
    fn mlps_mut(&mut self) -> [&mut MlpGrads; 4] {
        [&mut self.table, &mut self.join, &mut self.pred, &mut self.out]
    }
}

/// Reusable working memory for one forward/backward pass:
/// activation caches, the concatenation matrix, gradient temporaries, the
/// prediction vector, and a buffer arena for layer-internal temporaries.
///
/// Shape-agnostic: every buffer is resized in place per call (capacity
/// only grows), so one scratch serves batches of any size and models of
/// any width. Allocate one per worker/thread, keep it warm, and the
/// steady-state step is allocation-free.
#[derive(Default)]
pub struct MscnScratch {
    /// Table, join, predicate set-module activations.
    set_caches: [MlpCache; 3],
    concat: Matrix,
    out_cache: MlpCache,
    grad_out: Matrix,
    grad_concat: Matrix,
    /// One set module's gradient per stacked row.
    g_rows: Matrix,
    arena: Scratch,
    /// Predictions of the last [`MscnModel::forward_scratch`] call.
    pub preds: Vec<f32>,
    /// `∂L/∂w_out` per query — fill before
    /// [`MscnModel::backward_scratch`] (same length as `preds`).
    pub grad_pred: Vec<f32>,
    /// Scratch slot for the caller's per-shard loss total.
    pub loss: f64,
}

impl MscnScratch {
    /// An empty scratch; buffers grow to their steady-state sizes during
    /// the first pass.
    pub fn new() -> Self {
        MscnScratch::default()
    }
}

/// One set module with its CSR input rows, per-query element segments and
/// per-element row index.
type SetInput<'a> = (&'a Mlp, &'a SparseRows, &'a [(u32, u32)], &'a [u32]);

/// The multi-set convolutional network.
#[derive(Clone, Debug)]
pub struct MscnModel {
    table_mlp: Mlp,
    join_mlp: Mlp,
    pred_mlp: Mlp,
    out_mlp: Mlp,
    hidden: usize,
    /// Per set module, the set-MLP outputs of the featurizer's constant
    /// rows (derived, never serialized; empty until derived and after
    /// any mutable access).
    constants: [Matrix; 3],
}

impl MscnModel {
    /// Construct with hidden width `hidden` (the paper's `d`,
    /// hyperparameter of §4.6) and Xavier init from `seed`.
    pub fn new(
        table_dim: usize,
        join_dim: usize,
        pred_dim: usize,
        hidden: usize,
        seed: u64,
    ) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        MscnModel {
            table_mlp: Mlp::new(table_dim, hidden, hidden, FinalActivation::Relu, &mut rng),
            join_mlp: Mlp::new(join_dim, hidden, hidden, FinalActivation::Relu, &mut rng),
            pred_mlp: Mlp::new(pred_dim, hidden, hidden, FinalActivation::Relu, &mut rng),
            out_mlp: Mlp::new(3 * hidden, hidden, 1, FinalActivation::Sigmoid, &mut rng),
            hidden,
            constants: Default::default(),
        }
    }

    /// Compute the set-MLP outputs of `featurizer`'s constant rows with
    /// this model's own forward and keep them, so serving blocks that name
    /// a constant can be forwarded. Rows are independent in every kernel,
    /// so each output is bitwise the one a stacked copy of the row gets.
    ///
    /// # Panics
    /// If `featurizer`'s feature widths are not this model's input widths.
    pub fn derive_constants(&mut self, featurizer: &Featurizer) {
        let dims = (featurizer.table_dim(), featurizer.join_dim(), featurizer.pred_dim());
        assert_eq!(dims, self.input_dims(), "featurizer widths must match the model's inputs");
        let mut cache = MlpCache::new();
        for (m, set) in Set::ALL.into_iter().enumerate() {
            self.mlps()[m].forward_sparse_into(&featurizer.constant_rows(set), &mut cache);
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

    /// Total number of scalar parameters.
    pub fn num_params(&self) -> usize {
        self.table_mlp.num_params()
            + self.join_mlp.num_params()
            + self.pred_mlp.num_params()
            + self.out_mlp.num_params()
    }

    /// The forward pass: activations, pooled representations, and
    /// predictions are written into `s` (buffers resized in place, so a
    /// warm scratch never allocates). After this call `s.preds` holds
    /// `w_out ∈ [0,1]` per query and the caches are positioned for
    /// [`MscnModel::backward_scratch`].
    ///
    /// The set-module input layers gather weight rows for the CSR
    /// inputs' nonzeros only — the widest matmuls of the model are
    /// O(nnz) — and each set MLP runs once per stacked row, however many
    /// elements share that row; elements that name a constant read the
    /// derived outputs ([`MscnModel::derive_constants`]).
    ///
    /// # Panics
    /// If the batch names a constant this model does not hold.
    pub fn forward_scratch(&self, batch: &RaggedBatch, s: &mut MscnScratch) {
        let n = batch.len();
        let d = self.hidden;
        // The three pooling windows overwrite every element, so the
        // reshape can skip its zero-fill.
        s.concat.resize_for_overwrite(n, 3 * d);
        for (m, (mlp, x, segs, index)) in self.sets(batch).into_iter().enumerate() {
            mlp.forward_sparse_into(x, &mut s.set_caches[m]);
            let (rows, constants) = (&s.set_caches[m].output, &self.constants[m]);
            segment_mean_into_cols(rows, constants, segs, index, &mut s.concat, m * d);
        }
        self.out_mlp.forward_into(&s.concat, &mut s.out_cache);
        s.preds.clear();
        s.preds.extend((0..n).map(|q| s.out_cache.output.get(q, 0)));
    }

    /// The set modules' inputs in concatenation order (table, join,
    /// predicate).
    fn sets<'a>(&'a self, batch: &'a RaggedBatch) -> [SetInput<'a>; 3] {
        [
            (&self.table_mlp, &batch.tables_sp, &batch.table_segs, &batch.table_index),
            (&self.join_mlp, &batch.joins_sp, &batch.join_segs, &batch.join_index),
            (&self.pred_mlp, &batch.preds_sp, &batch.pred_segs, &batch.pred_index),
        ]
    }

    /// The backward pass, against external gradient buffers.
    ///
    /// Reads `s.grad_pred` (`∂L/∂w_out` per query, filled by the caller
    /// after [`MscnModel::forward_scratch`]) and *accumulates* parameter
    /// gradients into `grads`. `&self`: shards of one mini-batch can run
    /// concurrently against shared weights, each with its own scratch
    /// and gradient buffers. Allocation-free on a warm scratch. The
    /// set-module input gradients (which nothing consumes) are never
    /// computed.
    ///
    /// Elements may share rows ([`RaggedBatch::assemble_into`] stacks
    /// each distinct row once). A set MLP's parameters see a row's
    /// elements only through the sum of their pooled gradients, so that
    /// sum is taken first ([`segment_mean_backward_into_rows`]) and each
    /// set MLP's backward runs once per stacked row. In real arithmetic
    /// that is the gradient of the batch with one row per element; in
    /// `f32` it rounds differently where a row repeats, and is bitwise
    /// the same where none does.
    ///
    /// # Panics
    /// If `s.grad_pred.len() != batch.len()`, or if an element names a
    /// model constant (a serving block from
    /// `Featurizer::featurize_into_sparse_batch` is forward-only: a
    /// constant's outputs are derived, not computed in this pass).
    pub fn backward_scratch(
        &self,
        batch: &RaggedBatch,
        s: &mut MscnScratch,
        grads: &mut MscnGrads,
    ) {
        let n = batch.len();
        assert_eq!(s.grad_pred.len(), n, "grad_pred must match the batch");
        assert!(
            self.sets(batch).iter().all(|(.., index)| index.iter().all(|&e| e & CONSTANT == 0)),
            "backward_scratch: this batch names model constants, so it is forward-only"
        );
        let d = self.hidden;
        s.grad_out.resize_for_overwrite(n, 1);
        s.grad_out.data_mut().copy_from_slice(&s.grad_pred);
        self.out_mlp.backward_scratch(
            &s.concat,
            &s.out_cache,
            &mut s.grad_out,
            &mut grads.out,
            &mut s.arena,
            Some(&mut s.grad_concat),
        );
        // Sum each module's slice of the concatenated gradient straight
        // into one row per stacked row (no per-module pooled temporaries),
        // then backprop through the set MLP in sparse leaf mode: the first
        // layer's weight gradient is the forward's O(nnz) gather run on
        // the CSR transpose of the input. Every stacked row has a first
        // element, so the sum overwrites every row and the reshape can
        // skip its zero-fill.
        let set_grads = [&mut grads.table, &mut grads.join, &mut grads.pred];
        for (m, ((mlp, x, segs, index), g)) in
            self.sets(batch).into_iter().zip(set_grads).enumerate()
        {
            s.g_rows.resize_for_overwrite(x.rows(), d);
            segment_mean_backward_into_rows(&s.grad_concat, m * d, d, segs, index, &mut s.g_rows);
            mlp.backward_sparse_scratch(x, &s.set_caches[m], &mut s.g_rows, g, &mut s.arena);
        }
    }

    /// Fresh zeroed external gradient buffers matching this model.
    pub fn new_grads(&self) -> MscnGrads {
        MscnGrads {
            table: self.table_mlp.new_grads(),
            join: self.join_mlp.new_grads(),
            pred: self.pred_mlp.new_grads(),
            out: self.out_mlp.new_grads(),
        }
    }

    /// All MLPs in canonical order (table, join, predicate, output) — the
    /// order the optimizer registration and the serializer use. Drops
    /// the derived constants: the weights may change under them.
    pub fn mlps_mut(&mut self) -> [&mut Mlp; 4] {
        self.constants = Default::default();
        [&mut self.table_mlp, &mut self.join_mlp, &mut self.pred_mlp, &mut self.out_mlp]
    }

    /// Read-only MLP access in canonical order.
    pub fn mlps(&self) -> [&Mlp; 4] {
        [&self.table_mlp, &self.join_mlp, &self.pred_mlp, &self.out_mlp]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::CorpusSparse;
    use crate::featurize::FeaturizedQuery;
    use lc_nn::LossKind;
    use rand::seq::SliceRandom;
    use rand::Rng;

    type Dims = (usize, usize, usize);

    /// One random set: `n` rows of width `d`, each a one-hot position
    /// plus — with probability `fill` per position — further nonzeros.
    fn random_set(rng: &mut SmallRng, n: usize, d: usize, fill: f64) -> SparseRows {
        let mut out = SparseRows::new(d);
        for _ in 0..n {
            let hot = rng.gen_range(0..d);
            let row: Vec<(u32, f32)> = (0..d)
                .filter(|&j| j == hot || rng.gen_bool(fill))
                .map(|j| (j as u32, 0.1 + 0.15 * j as f32))
                .collect();
            out.push_row(row);
        }
        out
    }

    fn random_query(rng: &mut SmallRng, (td, jd, pd): Dims, fill: f64) -> FeaturizedQuery {
        let (nt, nj, np) = (rng.gen_range(1..4), rng.gen_range(0..3), rng.gen_range(0..4));
        FeaturizedQuery {
            tables: random_set(rng, nt, td, fill),
            joins: random_set(rng, nj, jd, fill),
            preds: random_set(rng, np, pd, fill),
            target: rng.gen_range(0.0..1.0),
        }
    }

    fn batch_of(feats: &[FeaturizedQuery], (td, jd, pd): Dims) -> RaggedBatch {
        let corpus = CorpusSparse::build(feats, td, jd, pd);
        let all: Vec<usize> = (0..feats.len()).collect();
        RaggedBatch::assemble_indexed(feats, &corpus, &all, td, jd, pd)
    }

    fn predict(model: &MscnModel, batch: &RaggedBatch) -> Vec<f32> {
        let mut s = MscnScratch::new();
        model.forward_scratch(batch, &mut s);
        s.preds
    }

    /// Every gradient tensor flattened in canonical order.
    fn flat(grads: &MscnGrads) -> Vec<f32> {
        grads
            .mlps()
            .iter()
            .flat_map(|m| m.layers())
            .flat_map(|l| l.tensors())
            .flatten()
            .copied()
            .collect()
    }

    #[test]
    fn output_is_in_unit_interval() {
        let mut rng = SmallRng::seed_from_u64(1);
        let model = MscnModel::new(8, 4, 6, 16, 3);
        let qs: Vec<_> = (0..10).map(|_| random_query(&mut rng, (8, 4, 6), 0.5)).collect();
        let preds = predict(&model, &batch_of(&qs, (8, 4, 6)));
        assert_eq!(preds.len(), 10);
        assert!(preds.iter().all(|&p| (0.0..=1.0).contains(&p)));
    }

    /// The paper's architectural claim: predictions are invariant to the
    /// order of elements within each set.
    #[test]
    fn permutation_invariance() {
        let mut rng = SmallRng::seed_from_u64(2);
        let model = MscnModel::new(8, 4, 6, 16, 4);
        let mut q = [random_query(&mut rng, (8, 4, 6), 0.5)];
        let base = predict(&model, &batch_of(&q, (8, 4, 6)))[0];
        for _ in 0..5 {
            for set in [&mut q[0].tables, &mut q[0].joins, &mut q[0].preds] {
                let mut order: Vec<usize> = (0..set.rows()).collect();
                order.shuffle(&mut rng);
                let mut shuffled = SparseRows::new(set.cols());
                order.iter().for_each(|&r| shuffled.push_rows_from(set, r..r + 1));
                *set = shuffled;
            }
            let p = predict(&model, &batch_of(&q, (8, 4, 6)))[0];
            assert!((p - base).abs() < 1e-5, "permutation changed prediction: {p} vs {base}");
        }
    }

    /// Batch composition must not change per-query results (masked pooling
    /// correctness).
    #[test]
    fn batching_is_transparent() {
        let mut rng = SmallRng::seed_from_u64(3);
        let model = MscnModel::new(8, 4, 6, 16, 5);
        let qs: Vec<_> = (0..6).map(|_| random_query(&mut rng, (8, 4, 6), 0.5)).collect();
        let together = predict(&model, &batch_of(&qs, (8, 4, 6)));
        for (i, q) in qs.iter().enumerate() {
            let alone = predict(&model, &batch_of(std::slice::from_ref(q), (8, 4, 6)))[0];
            assert!((alone - together[i]).abs() < 1e-5);
        }
    }

    /// End-to-end gradient check: perturb weights in every tensor of every
    /// module and compare the loss delta with the analytic gradient — once
    /// on one-hot-like inputs and once on filled-in inputs.
    #[test]
    fn end_to_end_gradient_check() {
        let dims = (8, 6, 7);
        for fill in [0.0, 1.0] {
            let mut rng = SmallRng::seed_from_u64(4);
            let model = MscnModel::new(dims.0, dims.1, dims.2, 8, 6);
            let qs: Vec<_> = (0..4).map(|_| random_query(&mut rng, dims, fill)).collect();
            let batch = batch_of(&qs, dims);
            for x in [&batch.tables_sp, &batch.joins_sp, &batch.preds_sp] {
                assert!(x.rows() > 0, "every module must see rows");
            }
            let loss_of = |m: &MscnModel| -> f32 {
                let preds = predict(m, &batch);
                let mut grad = vec![0.0f32; preds.len()];
                LossKind::Mse.loss_and_grad(&preds, &batch.targets, 1.0, &mut grad) as f32
            };
            // Analytic gradients.
            let mut s = MscnScratch::new();
            let mut grads = model.new_grads();
            model.forward_scratch(&batch, &mut s);
            s.grad_pred.resize(s.preds.len(), 0.0);
            LossKind::Mse.loss_and_grad(&s.preds, &batch.targets, 1.0, &mut s.grad_pred);
            model.backward_scratch(&batch, &mut s, &mut grads);
            // Per weight tensor: a fixed entry and the steepest one.
            for mlp_idx in 0..4 {
                for layer_idx in 0..2 {
                    let analytic_w = grads.mlps()[mlp_idx].layers()[layer_idx].tensors()[0];
                    let steepest = (0..analytic_w.len())
                        .max_by(|&a, &b| analytic_w[a].abs().total_cmp(&analytic_w[b].abs()))
                        .expect("non-empty tensor");
                    assert!(analytic_w[steepest] != 0.0, "mlp {mlp_idx} layer {layer_idx}");
                    for w_idx in [steepest, 3] {
                        let eps = 1e-2f32;
                        let perturbed = |delta: f32| {
                            let mut m = model.clone();
                            {
                                let layer = &mut m.mlps_mut()[mlp_idx].layers_mut()[layer_idx];
                                let mut w = layer.weights().data().to_vec();
                                w[w_idx] += delta;
                                let b = layer.bias().to_vec();
                                layer.load(w, b);
                            }
                            m
                        };
                        let numeric =
                            (loss_of(&perturbed(eps)) - loss_of(&perturbed(-eps))) / (2.0 * eps);
                        let analytic = analytic_w[w_idx];
                        assert!(
                            (numeric - analytic).abs() < 2e-3,
                            "fill {fill} mlp {mlp_idx} layer {layer_idx} w {w_idx}: \
                             numeric {numeric} analytic {analytic}"
                        );
                    }
                }
            }
        }
    }

    /// A batch built by the serving-side block builder shares repeated
    /// rows and names constants, yet every element must see what it sees
    /// in the trainer's own batch: bitwise the same set-MLP output per
    /// element (read through the index, from the stack or the model's
    /// derived constants) and the same predictions as the
    /// `assemble_indexed` batch of the same queries. Expanded to one row
    /// per element, the two batches are the same batch, so they get the
    /// same `MscnGrads` bit for bit; also on a scratch left dirty by a
    /// differently shaped batch.
    #[test]
    fn sparse_batch_builder_yields_the_same_grads_bitwise() {
        use crate::featurize::{FeatureMode, Featurizer};
        use lc_query::LabeledQuery;

        let db = lc_imdb::generate(&lc_imdb::ImdbConfig::tiny());
        let mut rng = SmallRng::seed_from_u64(5);
        let samples = lc_engine::SampleSet::draw(&db, 40, &mut rng);
        let f = Featurizer::fit(&db, FeatureMode::Bitmaps, samples.sample_size(), [1u64, 800]);
        let mut gen =
            lc_query::QueryGenerator::new(&db, lc_query::GeneratorConfig { max_joins: 2, seed: 9 });
        let mut labeled: Vec<LabeledQuery> = gen
            .generate_unique(25)
            .into_iter()
            .map(|q| LabeledQuery::compute(&db, &samples, q))
            .collect();
        labeled.extend_from_within(2..6);
        let (td, jd, pd) = (f.table_dim(), f.join_dim(), f.pred_dim());
        let mut model = MscnModel::new(td, jd, pd, 16, 13);
        model.derive_constants(&f);
        let run = |batch: &RaggedBatch, s: &mut MscnScratch| {
            let mut grads = model.new_grads();
            model.forward_scratch(batch, s);
            s.grad_pred.clear();
            s.grad_pred.extend(s.preds.iter().map(|p| 0.3 - p));
            model.backward_scratch(batch, s, &mut grads);
            (s.preds.clone(), flat(&grads))
        };
        // Each module's set-MLP output row per element, read through the
        // batch's index.
        let per_element = |batch: &RaggedBatch, s: &MscnScratch| -> Vec<Vec<f32>> {
            let indexes = [&batch.table_index, &batch.join_index, &batch.pred_index];
            let modules = indexes.iter().zip(&s.set_caches).zip(&model.constants);
            modules
                .flat_map(|((index, cache), constants)| {
                    index.iter().map(|&e| match e & CONSTANT {
                        0 => cache.output.row(e as usize),
                        _ => constants.row((e ^ CONSTANT) as usize),
                    })
                })
                .map(<[f32]>::to_vec)
                .collect()
        };

        let feats: Vec<FeaturizedQuery> = labeled.iter().map(|q| f.featurize(q)).collect();
        let corpus = CorpusSparse::build(&feats, td, jd, pd);
        let all: Vec<usize> = (0..feats.len()).collect();
        let assembled = RaggedBatch::assemble_indexed(&feats, &corpus, &all, td, jd, pd);
        assert!(assembled.tables_sp.rows() < assembled.table_index.len(), "shared rows");
        let mut fresh = MscnScratch::new();
        let expected_preds = run(&assembled, &mut fresh).0;
        let expected_elements = per_element(&assembled, &fresh);
        let assembled = assembled.expanded(&f);
        let expected = run(&assembled, &mut fresh);
        assert_eq!(expected.0, expected_preds);
        assert!(expected.1.iter().any(|&g| g != 0.0));

        let mut built = RaggedBatch::empty();
        let mut dirty = MscnScratch::new();
        f.featurize_into_sparse_batch(&labeled[..7], &mut built);
        run(&built.expanded(&f), &mut dirty);
        f.featurize_into_sparse_batch(&labeled, &mut built);
        assert!(built.tables_sp.rows() < built.table_index.len(), "the block must share rows");
        assert!(built.join_index.iter().all(|&e| e & CONSTANT != 0), "joins are constants");
        model.forward_scratch(&built, &mut dirty);
        assert_eq!(dirty.preds, expected_preds);
        assert_eq!(per_element(&built, &dirty), expected_elements);
        let built = built.expanded(&f);
        let stacks = |b: &RaggedBatch| [&b.tables_sp, &b.joins_sp, &b.preds_sp].map(Clone::clone);
        assert_eq!(stacks(&built), stacks(&assembled));
        assert_eq!(run(&built, &mut dirty), expected);
    }

    /// Mutable access drops the derived constants, so a forward over a
    /// block that names one stops with a message instead of pooling
    /// outputs of weights that may have changed since.
    #[test]
    #[should_panic(expected = "derive them again")]
    fn mutable_access_drops_the_constants() {
        use crate::featurize::{FeatureMode, Featurizer};

        let db = lc_imdb::generate(&lc_imdb::ImdbConfig::tiny());
        let samples = lc_engine::SampleSet::draw(&db, 16, &mut SmallRng::seed_from_u64(6));
        let f = Featurizer::fit(&db, FeatureMode::Bitmaps, samples.sample_size(), [1u64, 800]);
        let mut model = MscnModel::new(f.table_dim(), f.join_dim(), f.pred_dim(), 8, 14);
        model.derive_constants(&f);
        let mut gen =
            lc_query::QueryGenerator::new(&db, lc_query::GeneratorConfig { max_joins: 2, seed: 3 });
        let labeled: Vec<_> = gen
            .generate_unique(8)
            .into_iter()
            .map(|q| lc_query::LabeledQuery::compute(&db, &samples, q))
            .collect();
        let mut block = RaggedBatch::empty();
        f.featurize_into_sparse_batch(&labeled, &mut block);
        assert!(block.join_index.iter().any(|&e| e & CONSTANT != 0), "the block names constants");
        let mut s = MscnScratch::new();
        model.forward_scratch(&block, &mut s);
        let _ = model.mlps_mut();
        model.forward_scratch(&block, &mut s);
    }

    /// A batch that names a model constant cannot be trained on: its
    /// outputs are derived, not computed by the pass being differentiated.
    #[test]
    #[should_panic(expected = "forward-only")]
    fn backward_rejects_a_batch_that_names_constants() {
        let dims = (8, 4, 6);
        let mut rng = SmallRng::seed_from_u64(8);
        let q = random_query(&mut rng, dims, 0.5);
        let mut batch = batch_of(&[q.clone(), q], dims);
        let mut model = MscnModel::new(dims.0, dims.1, dims.2, 8, 9);
        model.constants[0] = Matrix::zeros(1, 8);
        batch.table_index[0] = CONSTANT;
        let mut s = MscnScratch::new();
        model.forward_scratch(&batch, &mut s);
        s.grad_pred = vec![0.1; batch.len()];
        model.backward_scratch(&batch, &mut s, &mut model.new_grads());
    }

    #[test]
    fn param_count_matches_architecture() {
        let model = MscnModel::new(10, 5, 14, 16, 7);
        let expect = |i: usize, h: usize, o: usize| i * h + h + h * o + o;
        let total = expect(10, 16, 16) + expect(5, 16, 16) + expect(14, 16, 16) + expect(48, 16, 1);
        assert_eq!(model.num_params(), total);
    }
}
