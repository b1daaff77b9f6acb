//! Training and inference (§3.5): 90/10 split, mini-batch Adam on the mean
//! q-error, per-epoch validation error (the convergence curve of Fig. 6),
//! and a [`crate::Estimator`] implementation for the trained model (see
//! `crate::estimator`).
//!
//! # The data-parallel, allocation-free training step
//!
//! Every mini-batch is partitioned into **fixed gradient shards** whose
//! boundaries depend only on the batch size — never on the thread count.
//! Each shard runs the forward/backward
//! ([`MscnModel::forward_scratch`] / [`MscnModel::backward_scratch`])
//! against the shared weights, accumulating into its own [`MscnGrads`];
//! the shards are then reduced **in shard order** and a single Adam step
//! is applied serially. Because shard boundaries, per-shard reduction
//! order, and the final reduction order are all thread-count-independent,
//! training is **bitwise reproducible at any `threads` setting** — the
//! same seed gives byte-identical weights at 1, 2, or 4 workers. Worker
//! threads ([`TrainConfig::threads`]; the process
//! [`RuntimeConfig`](lc_nn::RuntimeConfig) steers default-config runs)
//! only decide *which* worker computes which shard.
//!
//! All shard batches, scratches and gradient buffers are allocated once
//! per training run and rebuilt in place: each shard assembles its own
//! queries into its warm batch as the step runs
//! ([`RaggedBatch::assemble_into`], which stacks each distinct row of the
//! shard once), then runs forward, loss and backward. The set MLPs run
//! once per stacked row in both directions: the backward sums the pooled
//! gradients of a row's elements before it enters the row's MLP. In
//! steady state a whole step (assembly, forward, loss, backward,
//! reduction, Adam) performs **zero heap allocations and zero thread
//! spawns** (asserted by the counting-allocator test in
//! `tests/alloc.rs`). Multi-worker steps dispatch onto the process-wide
//! persistent [`WorkerPool`] — long-lived pinned workers parked on a
//! condvar; the same pool serves block-parallel batch inference and,
//! through it, `lc_serve`'s micro-batched flushes.

use std::time::Instant;

use lc_engine::Database;
use lc_nn::{Adam, LossKind, WorkerPool};
use lc_obs::{metrics, SpanTimer};
use lc_query::LabeledQuery;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::batch::{CorpusSparse, RaggedBatch, WarmPool};
use crate::featurize::{FeatureMode, FeaturizedQuery, Featurizer};
use crate::model::{MscnGrads, MscnModel, MscnScratch};

/// Upper bound on gradient shards per mini-batch. The shard partition is
/// a pure function of the batch size, so this also caps how many worker
/// threads can be productive inside one step — as many as
/// [`auto_threads`] ever picks. Fewer, taller shards share more rows
/// (each distinct row runs through the set MLPs once per shard, in both
/// directions) and pay the per-shard fixed costs less often: batch 256
/// runs as 4 shards of 64.
const MAX_SHARDS: usize = 4;

/// Smallest shard worth the per-shard bookkeeping (queries). Each shard
/// pays fixed costs per step — zeroing and reducing a whole gradient
/// buffer, and the CSR `xᵀ` each set-module input layer's weight
/// gradient stages — while rows shared within it run through the set
/// MLPs once, and sub-32-query shards also leave the SIMD kernels
/// under-fed (row-pair blocking wants tall operands). 32 keeps batch 128
/// at the full 4-way shard fan-out while stopping small batches from
/// shredding themselves into overhead.
const MIN_SHARD: usize = 32;

/// Below this many queries a step runs its shards inline even when
/// workers are configured — waking the pool's parked workers would cost
/// more than the compute. Purely a scheduling decision; results are
/// identical.
const PARALLEL_STEP_MIN: usize = 64;

/// Queries per inference block. Blocks are the unit of inference
/// parallelism and of scratch reuse; the partition is fixed, so block
/// results concatenate to the same bytes at any thread count.
const INFER_BLOCK: usize = 256;

/// Minimum queries before batch inference fans out to worker threads.
const PARALLEL_INFER_MIN: usize = 2 * INFER_BLOCK;

/// Fixed shard partition of an `n`-query mini-batch (thread-count
/// independent — this is the cornerstone of reproducible parallelism).
fn shard_ranges(n: usize) -> impl Iterator<Item = std::ops::Range<usize>> {
    let size = n.div_ceil(MAX_SHARDS).max(MIN_SHARD);
    (0..n).step_by(size).map(move |lo| lo..(lo + size).min(n))
}

/// Hardware-derived default worker count: the process CPU set
/// ([`lc_nn::process_cpus`]), so a call from a pinned thread still sees
/// every CPU (capped: beyond a few workers the per-step shards are too
/// small to amortize).
fn auto_threads() -> usize {
    lc_nn::process_cpus().len().min(4)
}

/// Shared worker-count resolution: an explicit `configured` value wins;
/// for the default (`0`) the process [`RuntimeConfig`] decides (which in
/// turn resolved `LC_TRAIN_THREADS` / `LC_INFER_THREADS` exactly once,
/// or was installed explicitly by the binary), else the hardware-derived
/// default. Code that pins a count — like the thread-determinism tests —
/// therefore keeps it even when CI steers every default-config run via
/// the env. Used by both the training and inference knobs so their
/// precedence rules can never drift apart. A runaway value is harmless:
/// [`WorkerPool::run_chunks`] clamps its participants.
///
/// [`RuntimeConfig`]: lc_nn::RuntimeConfig
fn resolve_threads(configured: usize, from_runtime: usize) -> usize {
    if configured != 0 {
        configured
    } else if from_runtime != 0 {
        from_runtime
    } else {
        auto_threads()
    }
}

/// Worker count for batch inference over `n` queries: the process
/// [`RuntimeConfig::infer_threads`](lc_nn::RuntimeConfig) if positive,
/// else a hardware-derived default — and always 1 below the fan-out
/// threshold. Like training parallelism, the choice never changes a
/// single output byte. Resolved once per process (inference calls are
/// hot; the config global is not re-consulted per batch).
fn infer_threads(n: usize) -> usize {
    static RESOLVED: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    if n < PARALLEL_INFER_MIN {
        1
    } else {
        *RESOLVED.get_or_init(|| resolve_threads(0, lc_nn::RuntimeConfig::global().infer_threads))
    }
}

/// Training hyperparameters (§4.6). The defaults are the paper's tuned
/// configuration scaled for a single CPU core: the paper settles on 100
/// epochs, batch size 1024, 256 hidden units, lr 0.001 for 90k training
/// queries; we default to the same epochs/lr with batch 256 and 64 hidden
/// units, which reach the same relative behaviour on the scaled corpus.
#[derive(Clone, Copy, Debug)]
pub struct TrainConfig {
    /// Passes over the training set.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Hidden width `d` of every MLP.
    pub hidden: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Training objective (§4.8).
    pub loss: LossKind,
    /// Sample-feature variant (Fig. 4).
    pub mode: FeatureMode,
    /// Fraction of the corpus held out for validation (paper: 10%).
    pub validation_fraction: f64,
    /// Seed for weight init and epoch shuffling.
    pub seed: u64,
    /// Data-parallel worker threads per training step. An explicit count
    /// wins over the process runtime config; `0` (the default) defers to
    /// [`RuntimeConfig::train_threads`](lc_nn::RuntimeConfig) (which
    /// `from_env` fills from `LC_TRAIN_THREADS`), else a hardware-derived
    /// count; everything is capped at the per-batch shard limit (4). Any
    /// value produces bitwise-identical training results — see the
    /// module docs.
    pub threads: usize,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 100,
            batch_size: 256,
            hidden: 64,
            learning_rate: 1e-3,
            loss: LossKind::MeanQError,
            mode: FeatureMode::Bitmaps,
            validation_fraction: 0.1,
            seed: 7,
            threads: 0,
        }
    }
}

impl TrainConfig {
    /// The worker count a training run will actually use: an explicit
    /// [`TrainConfig::threads`] wins; the default (`0`) resolves to the
    /// process [`RuntimeConfig::train_threads`](lc_nn::RuntimeConfig) if
    /// positive, else a hardware-derived count. Either way the result is
    /// capped at the shard limit (4) — more workers than shards can
    /// never be productive. Never affects results, only wall-clock time.
    pub fn effective_threads(&self) -> usize {
        resolve_threads(self.threads, lc_nn::RuntimeConfig::global().train_threads).min(MAX_SHARDS)
    }
}

/// What training measured (the raw material of Fig. 6 and §4.7).
#[derive(Clone, Debug, Default)]
pub struct TrainReport {
    /// Mean q-error on the validation split after each epoch.
    pub epoch_val_mean_qerror: Vec<f64>,
    /// Mean training loss per epoch.
    pub epoch_train_loss: Vec<f64>,
    /// Wall-clock training time in seconds.
    pub train_seconds: f64,
    /// Number of training queries.
    pub num_train: usize,
    /// Number of validation queries.
    pub num_val: usize,
}

/// A trained, self-contained estimator: network weights plus the
/// featurization/normalization state required at inference time.
#[derive(Clone, Debug)]
pub struct MscnEstimator {
    pub(crate) model: MscnModel,
    pub(crate) featurizer: Featurizer,
}

impl MscnEstimator {
    /// Pair a network with its featurizer, deriving the network's
    /// constants — the one way an estimator is built ([`train`],
    /// [`train_incremental`], [`distill`]) or loaded (deserialization).
    pub(crate) fn from_parts(mut model: MscnModel, featurizer: Featurizer) -> Self {
        model.derive_constants(&featurizer);
        MscnEstimator { model, featurizer }
    }

    /// The featurizer (exposes label normalization, e.g. for the
    /// out-of-range analyses of §4.4/§4.5).
    pub fn featurizer(&self) -> &Featurizer {
        &self.featurizer
    }

    /// The network.
    pub fn model(&self) -> &MscnModel {
        &self.model
    }

    /// Batched inference: estimated cardinalities (≥ 1) for `queries`.
    pub fn estimate_cards(&self, queries: &[LabeledQuery]) -> Vec<f64> {
        let label = self.featurizer.label_norm();
        self.estimate_normalized(queries).iter().map(|&p| label.denormalize(p).max(1.0)).collect()
    }

    /// Raw normalized predictions `w_out ∈ [0,1]` (before denormalization).
    pub fn estimate_normalized(&self, queries: &[LabeledQuery]) -> Vec<f32> {
        static SCRATCHES: WarmPool<MscnScratch> = WarmPool::new();
        predict_blocks(&self.featurizer, queries, &SCRATCHES, |batch, s| {
            self.model.forward_scratch(batch, s);
            &s.preds
        })
    }
}

/// The batch-inference engine shared by the f32 and int8 estimators:
/// fixed blocks of [`INFER_BLOCK`] queries, each featurized straight into
/// a pooled CSR batch ([`Featurizer::featurize_into_sparse_batch`] — no
/// per-query intermediates) and pushed through `forward` on a pooled
/// scratch, which returns the block's normalized predictions (one per
/// query, concatenated into the result); large inputs fan the blocks out
/// onto the persistent worker pool. The block
/// partition is independent of the worker count and every per-query
/// reduction runs in a fixed order, so the output bytes never depend on
/// either the batch composition or the parallelism.
pub(crate) fn predict_blocks<S: Default + Send>(
    featurizer: &Featurizer,
    queries: &[LabeledQuery],
    scratches: &WarmPool<S>,
    forward: impl for<'s> Fn(&RaggedBatch, &'s mut S) -> &'s [f32] + Sync,
) -> Vec<f32> {
    /// Warm serving batches, shared by every estimator kind.
    static BATCHES: WarmPool<RaggedBatch> = WarmPool::new();
    let mut out = vec![0.0f32; queries.len()];
    let threads = infer_threads(queries.len());
    WorkerPool::global().run_chunks(&mut out, INFER_BLOCK, threads, |block, o| {
        let qs = &queries[block * INFER_BLOCK..][..o.len()];
        let (mut batch, mut scratch) = (BATCHES.take(), scratches.take());
        featurizer.featurize_into_sparse_batch(qs, &mut batch);
        o.copy_from_slice(forward(&batch, &mut scratch));
        BATCHES.put(batch);
        scratches.put(scratch);
    });
    out
}

/// The result of [`train`].
#[derive(Clone, Debug)]
pub struct TrainedModel {
    /// The inference artifact.
    pub estimator: MscnEstimator,
    /// Configuration used.
    pub config: TrainConfig,
    /// Per-epoch measurements.
    pub report: TrainReport,
}

/// Everything a training run reuses across steps: the optimizer, one
/// batch + scratch + gradient buffer per shard, and the reduction target.
/// Allocated once; every buffer is rebuilt in place thereafter.
struct Trainer {
    adam: Adam,
    slots: Vec<usize>,
    /// Shard `i`'s batch, scratch and gradients, handed out together.
    shard_buffers: Vec<(RaggedBatch, MscnScratch, MscnGrads)>,
    total: MscnGrads,
    threads: usize,
    loss: LossKind,
    scale: f32,
    batch_size: usize,
}

impl Trainer {
    fn new(model: &mut MscnModel, config: &TrainConfig, scale: f32) -> Self {
        let mut adam = Adam::new(config.learning_rate);
        let mut slots = Vec::new();
        for mlp in model.mlps_mut() {
            for layer in mlp.layers_mut() {
                for params in layer.params_mut() {
                    slots.push(adam.register(params.len()));
                }
            }
        }
        Trainer {
            adam,
            slots,
            shard_buffers: (0..MAX_SHARDS)
                .map(|_| (RaggedBatch::empty(), MscnScratch::new(), model.new_grads()))
                .collect(),
            total: model.new_grads(),
            threads: config.effective_threads(),
            loss: config.loss,
            scale,
            batch_size: config.batch_size.max(1),
        }
    }

    /// One optimizer step over the mini-batch of corpus queries `chunk`;
    /// returns its mean training loss. Each fixed shard assembles its
    /// queries into its warm batch and runs forward, loss and backward,
    /// inline or on the persistent worker pool — same bytes either way
    /// (fixed partition, fixed-order reduction).
    fn run_step(
        &mut self,
        model: &mut MscnModel,
        feats: &[FeaturizedQuery],
        corpus: &CorpusSparse,
        chunk: &[usize],
    ) -> f64 {
        let (loss, scale, n) = (self.loss, self.scale, chunk.len());
        let num_shards = shard_ranges(n).count();
        let model_ref: &MscnModel = model;
        let workers = if n >= PARALLEL_STEP_MIN { self.threads } else { 1 };
        let buffers = &mut self.shard_buffers[..num_shards];
        WorkerPool::global().run_chunks(buffers, 1, workers, |i, slot| {
            // Per-shard wall time: the histogram's spread (p50 vs max) is
            // the shard-imbalance signal.
            let _span = SpanTimer::start(&metrics::TRAIN_SHARD_NS);
            let (batch, scr, g) = &mut slot[0];
            let queries = shard_ranges(n).nth(i).expect("one range per shard");
            batch.assemble_into(feats, corpus, &chunk[queries]);
            g.zero();
            model_ref.forward_scratch(batch, scr);
            scr.grad_pred.clear();
            scr.grad_pred.resize(scr.preds.len(), 0.0);
            scr.loss =
                loss.loss_and_grad_scaled(&scr.preds, &batch.targets, scale, n, &mut scr.grad_pred);
            model_ref.backward_scratch(batch, scr, g);
        });
        // Deterministic fixed-order reduction, then one serial Adam step.
        let shards = &self.shard_buffers[..num_shards];
        self.total.sum_in_order(shards.iter().map(|(_, _, g)| g));
        self.adam.begin_step();
        let Trainer { adam, slots, total, .. } = self;
        let mut slot_iter = slots.iter();
        for (mlp, mlp_grads) in model.mlps_mut().into_iter().zip(total.mlps()) {
            for (layer, layer_grads) in mlp.layers_mut().into_iter().zip(mlp_grads.layers()) {
                for (params, grads) in layer.params_mut().into_iter().zip(layer_grads.tensors()) {
                    adam.step_slot(*slot_iter.next().expect("slot registered"), params, grads);
                }
            }
        }
        // Re-derive each layer's cached Wᵀ once per step, so the next
        // step's backward shards all reuse it instead of re-transposing
        // per shard (bitwise-neutral; see Linear::refresh_transpose_cache).
        for mlp in model.mlps_mut() {
            mlp.refresh_transpose_cache();
        }
        self.shard_buffers[..num_shards].iter().map(|(_, scr, _)| scr.loss).sum::<f64>() / n as f64
    }

    /// One pass over `order`, a mini-batch of `batch_size` queries per
    /// step; returns the mean per-batch training loss.
    fn run_epoch(
        &mut self,
        model: &mut MscnModel,
        feats: &[FeaturizedQuery],
        corpus: &CorpusSparse,
        order: &[usize],
    ) -> f64 {
        metrics::TRAIN_EPOCHS.inc();
        let _span = SpanTimer::start(&metrics::TRAIN_EPOCH_NS);
        let mut epoch_loss = 0.0f64;
        for chunk in order.chunks(self.batch_size) {
            epoch_loss += self.run_step(model, feats, corpus, chunk);
        }
        epoch_loss / order.len().div_ceil(self.batch_size).max(1) as f64
    }
}

/// Continue training an existing model on new data (§5 "Updates",
/// incremental training): the network weights are reused, only the new
/// samples are seen, and the data encoding — one-hot layouts, value
/// normalization, and label normalization — is kept frozen, exactly the
/// constraint the paper describes for incremental updates.
///
/// `config` supplies the optimization hyperparameters — `epochs`,
/// `batch_size`, `learning_rate`, `loss`, `seed`, and `threads` are all
/// honored. The architecture/encoding fields (`hidden`, `mode`,
/// `validation_fraction`) are ignored: they are frozen in `prev`.
///
/// Fresh Adam state is used (the original moments are not serialized).
/// Note that the paper predicts — and `lc-eval`'s incremental experiment
/// demonstrates — **catastrophic forgetting** when the new data's
/// distribution shifts.
pub fn train_incremental(
    prev: &MscnEstimator,
    new_data: &[LabeledQuery],
    config: TrainConfig,
) -> MscnEstimator {
    assert!(!new_data.is_empty(), "incremental training needs data");
    fit_frozen(prev.model.clone(), prev.featurizer.clone(), new_data, &config)
}

/// Run `config.epochs` shuffled passes of `model` over all of `data`,
/// encoded by the frozen `featurizer` — the shared body of
/// [`train_incremental`] and [`distill`].
fn fit_frozen(
    mut model: MscnModel,
    featurizer: Featurizer,
    data: &[LabeledQuery],
    config: &TrainConfig,
) -> MscnEstimator {
    let feats: Vec<FeaturizedQuery> = data.iter().map(|q| featurizer.featurize(q)).collect();
    let (td, jd, pd) = model.input_dims();
    // The corpus is stacked once; every step's batch assembly then
    // copies the distinct rows it needs out of it.
    let corpus = CorpusSparse::build(&feats, td, jd, pd);
    let mut trainer = Trainer::new(&mut model, config, featurizer.label_norm().scale());
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let mut order: Vec<usize> = (0..feats.len()).collect();
    for _ in 0..config.epochs {
        order.shuffle(&mut rng);
        trainer.run_epoch(&mut model, &feats, &corpus, &order);
    }
    MscnEstimator::from_parts(model, featurizer)
}

/// Distill a trained teacher into a (typically narrower) student:
/// knowledge distillation for compact, cache-resident serving models.
///
/// The student trains on the **teacher's own estimates** as labels —
/// soft targets that are smoother than the raw cardinalities, which is
/// what lets a much smaller network track the teacher closely (Deep
/// Sketches makes the same observation for compressed cardinality
/// models). The teacher's featurizer is reused frozen — same one-hot
/// layouts, value ranges, and label normalization — so the student is a
/// drop-in replacement on the serving path, and quantizing it
/// ([`crate::quant::QuantizedMscn::quantize`]) compounds the shrink.
///
/// `config.hidden` sets the student width; `epochs`, `batch_size`,
/// `learning_rate`, `loss`, `seed`, and `threads` are honored as in
/// [`train_incremental`]. `mode` and `validation_fraction` are ignored
/// (encoding is frozen, and all of `queries` is training data — hold out
/// a validation set before calling if you need one).
///
/// # Panics
/// If `queries` is empty.
pub fn distill(
    teacher: &MscnEstimator,
    queries: &[LabeledQuery],
    config: TrainConfig,
) -> MscnEstimator {
    assert!(!queries.is_empty(), "distillation needs transfer queries");
    let featurizer = teacher.featurizer.clone();
    // Soft labels: whatever the teacher believes, not ground truth.
    let soft: Vec<LabeledQuery> = teacher
        .estimate_cards(queries)
        .into_iter()
        .zip(queries)
        .map(|(est, q)| {
            let mut relabeled = q.clone();
            relabeled.cardinality = est.round().max(1.0) as u64;
            relabeled
        })
        .collect();
    // Fresh student at the requested width (same init scheme as `train`).
    let (td, jd, pd) = (featurizer.table_dim(), featurizer.join_dim(), featurizer.pred_dim());
    let student = MscnModel::new(td, jd, pd, config.hidden, config.seed ^ 0x5eed);
    fit_frozen(student, featurizer, &soft, &config)
}

/// Train MSCN on labeled queries (§3.5): split, featurize, optimize.
///
/// `sample_size` must match the sample set used to annotate `data`.
///
/// # Panics
/// If `data` has fewer than 10 queries or any query has cardinality 0.
pub fn train(
    db: &Database,
    sample_size: usize,
    data: &[LabeledQuery],
    config: TrainConfig,
) -> TrainedModel {
    assert!(data.len() >= 10, "need at least 10 training queries");
    let start = Instant::now();
    let mut rng = SmallRng::seed_from_u64(config.seed);

    // 90/10 split on a shuffled index permutation.
    let mut indices: Vec<usize> = (0..data.len()).collect();
    indices.shuffle(&mut rng);
    let num_val = ((data.len() as f64 * config.validation_fraction) as usize).max(1);
    let (val_idx, train_idx) = indices.split_at(num_val);

    // Label normalization is fit on the training split only (§3.2).
    let featurizer = Featurizer::fit(
        db,
        config.mode,
        sample_size,
        train_idx.iter().map(|&i| data[i].cardinality),
    );
    let scale = featurizer.label_norm().scale();
    let feats: Vec<FeaturizedQuery> = data.iter().map(|q| featurizer.featurize(q)).collect();
    let val_truth: Vec<f64> = val_idx.iter().map(|&i| data[i].cardinality as f64).collect();

    let (td, jd, pd) = (featurizer.table_dim(), featurizer.join_dim(), featurizer.pred_dim());
    // Scanned once; every step's batch assembly copies rows out of it.
    let corpus = CorpusSparse::build(&feats, td, jd, pd);
    let mut model = MscnModel::new(td, jd, pd, config.hidden, config.seed ^ 0x5eed);
    let mut trainer = Trainer::new(&mut model, &config, scale);

    // The validation split never changes: assemble its inference blocks
    // once instead of re-featurizing and re-batching every epoch.
    let val_batches: Vec<RaggedBatch> = val_idx
        .chunks(INFER_BLOCK)
        .map(|chunk| RaggedBatch::assemble_indexed(&feats, &corpus, chunk, td, jd, pd))
        .collect();

    let mut report = TrainReport {
        num_train: train_idx.len(),
        num_val: val_idx.len(),
        ..TrainReport::default()
    };
    let mut order: Vec<usize> = train_idx.to_vec();
    for _epoch in 0..config.epochs {
        order.shuffle(&mut rng);
        let mean_loss = trainer.run_epoch(&mut model, &feats, &corpus, &order);
        report.epoch_train_loss.push(mean_loss);

        // Validation mean q-error in cardinality space (Fig. 6's metric),
        // via the warm scratch of shard slot 0 — no per-epoch allocation.
        let label = featurizer.label_norm();
        let scratch = &mut trainer.shard_buffers[0].1;
        let mut q_sum = 0.0f64;
        let mut vi = 0usize;
        for batch in &val_batches {
            model.forward_scratch(batch, scratch);
            for &p in &scratch.preds {
                let est = label.denormalize(p).max(1.0);
                let truth = val_truth[vi];
                vi += 1;
                q_sum += (est / truth).max(truth / est);
            }
        }
        report.epoch_val_mean_qerror.push(q_sum / val_truth.len().max(1) as f64);
    }
    report.train_seconds = start.elapsed().as_secs_f64();
    TrainedModel { estimator: MscnEstimator::from_parts(model, featurizer), config, report }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::Estimator;
    use lc_engine::SampleSet;
    use lc_imdb::{generate, ImdbConfig};
    use lc_query::workloads;

    fn mean_qerror(est: &dyn Estimator, qs: &[LabeledQuery]) -> f64 {
        let preds = est.estimate_all(qs);
        preds
            .iter()
            .zip(qs)
            .map(|(&e, q)| {
                let t = q.cardinality as f64;
                (e / t).max(t / e)
            })
            .sum::<f64>()
            / qs.len() as f64
    }

    #[test]
    fn training_improves_validation_error() {
        let db = generate(&ImdbConfig::tiny());
        let mut rng = SmallRng::seed_from_u64(1);
        let samples = SampleSet::draw(&db, 32, &mut rng);
        let data = workloads::synthetic(&db, &samples, 600, 2, 11).queries;
        let cfg = TrainConfig { epochs: 12, hidden: 32, batch_size: 64, ..TrainConfig::default() };
        let trained = train(&db, 32, &data, cfg);
        let curve = &trained.report.epoch_val_mean_qerror;
        assert_eq!(curve.len(), 12);
        let first = curve[0];
        let last = *curve.last().unwrap();
        assert!(last < first, "validation q-error should improve: {first} -> {last}");
        assert!(last < 20.0, "final val mean q-error too high: {last}");
        assert!(trained.report.train_seconds > 0.0);
        assert_eq!(trained.report.num_train + trained.report.num_val, 600);
    }

    #[test]
    fn distillation_produces_a_smaller_faithful_student() {
        let db = generate(&ImdbConfig::tiny());
        let mut rng = SmallRng::seed_from_u64(41);
        let samples = SampleSet::draw(&db, 24, &mut rng);
        let data = workloads::synthetic(&db, &samples, 500, 2, 43).queries;
        let tcfg = TrainConfig { epochs: 8, hidden: 32, batch_size: 64, ..TrainConfig::default() };
        let teacher = train(&db, 24, &data, tcfg).estimator;

        let scfg = TrainConfig { epochs: 10, hidden: 8, ..tcfg };
        let student = distill(&teacher, &data, scfg);
        // Architecture shrinks; the encoding is frozen from the teacher.
        assert_eq!(student.model().hidden(), 8);
        assert!(student.model().num_params() * 2 < teacher.model().num_params());
        assert_eq!(
            student.featurizer().label_norm().scale(),
            teacher.featurizer().label_norm().scale()
        );

        // The student must track the teacher's predictions (that is the
        // training signal), within a loose band: a 4x-narrower net is
        // lossy by design.
        let t_cards = teacher.estimate_cards(&data[..128]);
        let s_cards = student.estimate_cards(&data[..128]);
        let mut ratios: Vec<f64> =
            t_cards.iter().zip(&s_cards).map(|(&a, &b)| (a / b).max(b / a)).collect();
        ratios.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!(ratios[64] < 3.0, "student drifted from teacher: median {}", ratios[64]);

        // And remain a usable estimator in its own right.
        let q = mean_qerror(&student, &data[..128]);
        let tq = mean_qerror(&teacher, &data[..128]);
        assert!(q < tq * 3.0 + 10.0, "student q-error {q} vs teacher {tq}");
    }

    #[test]
    fn distillation_is_deterministic() {
        let db = generate(&ImdbConfig::tiny());
        let mut rng = SmallRng::seed_from_u64(45);
        let samples = SampleSet::draw(&db, 16, &mut rng);
        let data = workloads::synthetic(&db, &samples, 200, 2, 46).queries;
        let tcfg = TrainConfig { epochs: 3, hidden: 16, batch_size: 64, ..TrainConfig::default() };
        let teacher = train(&db, 16, &data, tcfg).estimator;
        let scfg = TrainConfig { epochs: 3, hidden: 8, ..tcfg };
        let a = distill(&teacher, &data, scfg);
        let b = distill(&teacher, &data, scfg);
        assert_eq!(a.estimate_cards(&data[..16]), b.estimate_cards(&data[..16]));
    }

    #[test]
    fn can_overfit_a_small_corpus() {
        // Capacity sanity check: 50 queries, many epochs, near-perfect fit.
        let db = generate(&ImdbConfig::tiny());
        let mut rng = SmallRng::seed_from_u64(2);
        let samples = SampleSet::draw(&db, 32, &mut rng);
        let data = workloads::synthetic(&db, &samples, 50, 2, 13).queries;
        let cfg = TrainConfig {
            epochs: 150,
            hidden: 32,
            batch_size: 16,
            validation_fraction: 0.05,
            ..TrainConfig::default()
        };
        let trained = train(&db, 32, &data, cfg);
        let q = mean_qerror(&trained.estimator, &data);
        assert!(q < 3.0, "should overfit 50 queries, got mean q-error {q}");
    }

    #[test]
    fn training_is_deterministic() {
        let db = generate(&ImdbConfig::tiny());
        let mut rng = SmallRng::seed_from_u64(3);
        let samples = SampleSet::draw(&db, 16, &mut rng);
        let data = workloads::synthetic(&db, &samples, 120, 2, 17).queries;
        let cfg = TrainConfig { epochs: 3, hidden: 16, ..TrainConfig::default() };
        let a = train(&db, 16, &data, cfg);
        let b = train(&db, 16, &data, cfg);
        assert_eq!(a.report.epoch_val_mean_qerror, b.report.epoch_val_mean_qerror);
        let pa = a.estimator.estimate_cards(&data[..10]);
        let pb = b.estimator.estimate_cards(&data[..10]);
        assert_eq!(pa, pb);
    }

    /// The determinism guarantee of the data-parallel trainer: the worker
    /// count changes wall-clock time, never a single byte of the trained
    /// weights, the training curve, or the estimates.
    #[test]
    fn training_is_bitwise_identical_across_thread_counts() {
        let db = generate(&ImdbConfig::tiny());
        let mut rng = SmallRng::seed_from_u64(9);
        let samples = SampleSet::draw(&db, 16, &mut rng);
        let data = workloads::synthetic(&db, &samples, 300, 2, 23).queries;
        let base = TrainConfig { epochs: 3, hidden: 24, batch_size: 128, ..TrainConfig::default() };
        let runs: Vec<_> = [1usize, 2, 4]
            .into_iter()
            .map(|threads| train(&db, 16, &data, TrainConfig { threads, ..base }))
            .collect();
        let reference_bytes = runs[0].estimator.to_bytes();
        let reference_curve = &runs[0].report.epoch_val_mean_qerror;
        let reference_loss = &runs[0].report.epoch_train_loss;
        for run in &runs[1..] {
            assert_eq!(
                run.estimator.to_bytes(),
                reference_bytes,
                "trained weights must be byte-identical across thread counts"
            );
            assert_eq!(&run.report.epoch_val_mean_qerror, reference_curve);
            assert_eq!(&run.report.epoch_train_loss, reference_loss);
        }
        // And incremental training upholds the same guarantee.
        let new_data = workloads::job_light(&db, &samples, 25).queries;
        let inc_cfg = TrainConfig { epochs: 4, seed: 99, ..base };
        let inc: Vec<_> = [1usize, 2, 4]
            .into_iter()
            .map(|threads| {
                train_incremental(&runs[0].estimator, &new_data, TrainConfig { threads, ..inc_cfg })
                    .to_bytes()
            })
            .collect();
        assert_eq!(inc[0], inc[1]);
        assert_eq!(inc[0], inc[2]);
    }

    /// The default worker count reads the process CPU set, not the
    /// calling thread's mask: a thread pinned to one CPU still sees all.
    #[test]
    fn auto_threads_counts_the_process_cpus_from_a_pinned_thread() {
        if lc_nn::process_cpus().len() < 2 {
            return; // one CPU: nothing to tell apart
        }
        let pinned =
            std::thread::spawn(|| lc_nn::pin_thread_to_core(0).then(auto_threads)).join().unwrap();
        if let Some(threads) = pinned {
            assert_eq!(threads, lc_nn::process_cpus().len().min(4));
        } // else pinning is off or unsupported here
    }

    #[test]
    fn incremental_training_learns_new_data_with_frozen_encoding() {
        let db = generate(&ImdbConfig::tiny());
        let mut rng = SmallRng::seed_from_u64(5);
        let samples = SampleSet::draw(&db, 24, &mut rng);
        let base_data = workloads::synthetic(&db, &samples, 400, 2, 29).queries;
        let cfg = TrainConfig { epochs: 8, hidden: 24, batch_size: 64, ..TrainConfig::default() };
        let base = train(&db, 24, &base_data, cfg);

        // New data from a shifted distribution (JOB-light style).
        let new_data = workloads::job_light(&db, &samples, 30).queries;
        let before = mean_qerror(&base.estimator, &new_data);
        let updated = train_incremental(
            &base.estimator,
            &new_data,
            TrainConfig { epochs: 20, seed: 99, ..cfg },
        );
        let after = mean_qerror(&updated, &new_data);
        assert!(
            after < before,
            "incremental training should improve on the new data: {before} -> {after}"
        );
        // The encoding is frozen: same feature dims, same label scale.
        assert_eq!(updated.featurizer().table_dim(), base.estimator.featurizer().table_dim());
        assert_eq!(
            updated.featurizer().label_norm().scale(),
            base.estimator.featurizer().label_norm().scale()
        );
    }

    /// Regression test for the hyperparameter-plumbing bug: incremental
    /// training used to hardcode Adam's learning rate (1e-3) and the
    /// batch size (256) whatever the caller configured. A zero learning
    /// rate must leave the weights untouched, and different learning
    /// rates must produce different weights.
    #[test]
    fn incremental_training_honors_the_callers_hyperparameters() {
        let db = generate(&ImdbConfig::tiny());
        let mut rng = SmallRng::seed_from_u64(6);
        let samples = SampleSet::draw(&db, 16, &mut rng);
        let data = workloads::synthetic(&db, &samples, 120, 2, 31).queries;
        let cfg = TrainConfig { epochs: 2, hidden: 16, ..TrainConfig::default() };
        let base = train(&db, 16, &data, cfg).estimator;
        let new_data = workloads::job_light(&db, &samples, 20).queries;

        let frozen = train_incremental(
            &base,
            &new_data,
            TrainConfig { learning_rate: 0.0, epochs: 3, seed: 7, ..cfg },
        );
        assert_eq!(
            frozen.to_bytes(),
            base.to_bytes(),
            "lr = 0 must leave the weights byte-identical (the old code ignored it)"
        );

        let small_lr = train_incremental(
            &base,
            &new_data,
            TrainConfig { learning_rate: 1e-4, epochs: 3, seed: 7, ..cfg },
        );
        let large_lr = train_incremental(
            &base,
            &new_data,
            TrainConfig { learning_rate: 1e-2, epochs: 3, seed: 7, ..cfg },
        );
        assert_ne!(
            small_lr.to_bytes(),
            large_lr.to_bytes(),
            "different learning rates must train differently"
        );

        // Batch size is honored too: one batch of 20 vs four of 5 take
        // different gradient trajectories.
        let big_batch = train_incremental(
            &base,
            &new_data,
            TrainConfig { batch_size: 64, epochs: 3, seed: 7, ..cfg },
        );
        let tiny_batch = train_incremental(
            &base,
            &new_data,
            TrainConfig { batch_size: 5, epochs: 3, seed: 7, ..cfg },
        );
        assert_ne!(big_batch.to_bytes(), tiny_batch.to_bytes(), "batch size must be honored");
    }

    #[test]
    fn predicate_bitmaps_mode_trains_and_widens_predicates() {
        let db = generate(&ImdbConfig::tiny());
        let mut rng = SmallRng::seed_from_u64(6);
        let samples = SampleSet::draw(&db, 24, &mut rng);
        let data = workloads::synthetic(&db, &samples, 300, 2, 37).queries;
        let cfg = TrainConfig {
            epochs: 3,
            hidden: 16,
            mode: FeatureMode::PredicateBitmaps,
            ..TrainConfig::default()
        };
        let trained = train(&db, 24, &data, cfg);
        let f = trained.estimator.featurizer();
        assert_eq!(f.pred_dim(), 10 + 3 + 1 + 24);
        assert_eq!(f.table_dim(), 6 + 24);
        assert!(trained.estimator.estimate_cards(&data[..10]).iter().all(|&e| e >= 1.0));
        // Serialization round-trips the new mode.
        let bytes = trained.estimator.to_bytes();
        let restored = MscnEstimator::from_bytes(&bytes).unwrap();
        assert_eq!(
            trained.estimator.estimate_cards(&data[..10]),
            restored.estimate_cards(&data[..10])
        );
    }

    #[test]
    fn estimate_all_matches_per_query_bitwise() {
        let db = generate(&ImdbConfig::tiny());
        let mut rng = SmallRng::seed_from_u64(8);
        let samples = SampleSet::draw(&db, 24, &mut rng);
        // 600 queries crosses the parallel-inference fan-out threshold,
        // so this doubles as the block-parallel bitwise check on
        // multi-core hosts (and under LC_INFER_THREADS in CI).
        let data = workloads::synthetic(&db, &samples, 600, 2, 41).queries;
        let cfg = TrainConfig { epochs: 2, hidden: 16, ..TrainConfig::default() };
        let est = train(&db, 24, &data, cfg).estimator;
        let batched = (&est as &dyn Estimator).estimate_all(&data);
        let sequential: Vec<f64> = data.iter().map(|q| est.estimate(q)).collect();
        // Bitwise equality, not approximate: the batched forward pass must
        // reduce every row in the same order as the single-query pass, so
        // micro-batching in the serving layer cannot change any estimate.
        assert_eq!(batched, sequential);
    }

    /// An estimator's derived constants are rebuilt wherever it is built
    /// or loaded — training, cloning, decoding, incremental training and
    /// distillation — so its served answers (blocks name constants) stay
    /// bitwise those of the assembled training batch (which names none),
    /// and a clone or a decoded copy answers exactly like the original.
    #[test]
    fn derived_constants_follow_every_estimator() {
        let db = generate(&ImdbConfig::tiny());
        let samples = SampleSet::draw(&db, 16, &mut SmallRng::seed_from_u64(12));
        let data = workloads::synthetic(&db, &samples, 150, 2, 43).queries;
        let cfg = TrainConfig { epochs: 2, hidden: 16, ..TrainConfig::default() };
        let trained = train(&db, 16, &data, cfg).estimator;
        let decoded = MscnEstimator::from_bytes(&trained.to_bytes()).expect("decode");
        let refit = train_incremental(&trained, &data[..40], TrainConfig { epochs: 1, ..cfg });
        let student = distill(&trained, &data[..40], TrainConfig { epochs: 1, hidden: 8, ..cfg });
        let bits = |v: &[f32]| v.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
        let served = |est: &MscnEstimator| bits(&est.estimate_normalized(&data));
        let assembled = |est: &MscnEstimator| {
            let f = est.featurizer();
            let feats: Vec<FeaturizedQuery> = data.iter().map(|q| f.featurize(q)).collect();
            let (td, jd, pd) = (f.table_dim(), f.join_dim(), f.pred_dim());
            let corpus = CorpusSparse::build(&feats, td, jd, pd);
            let all: Vec<usize> = (0..data.len()).collect();
            let batch = RaggedBatch::assemble_indexed(&feats, &corpus, &all, td, jd, pd);
            let mut s = MscnScratch::new();
            est.model().forward_scratch(&batch, &mut s);
            bits(&s.preds)
        };
        let want = served(&trained);
        assert_eq!(want, assembled(&trained), "trained");
        assert_eq!(served(&trained.clone()), want, "clone");
        assert_eq!(served(&decoded), want, "decoded");
        assert_eq!(served(&refit), assembled(&refit), "incremental");
        assert_eq!(served(&student), assembled(&student), "distilled");
    }

    #[test]
    fn estimates_are_at_least_one_row() {
        let db = generate(&ImdbConfig::tiny());
        let mut rng = SmallRng::seed_from_u64(4);
        let samples = SampleSet::draw(&db, 16, &mut rng);
        let data = workloads::synthetic(&db, &samples, 100, 2, 19).queries;
        let cfg = TrainConfig { epochs: 2, hidden: 16, ..TrainConfig::default() };
        let trained = train(&db, 16, &data, cfg);
        assert!(trained.estimator.estimate_cards(&data).iter().all(|&e| e >= 1.0));
    }
}
