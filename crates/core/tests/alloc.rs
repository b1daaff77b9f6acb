//! The zero-allocation guarantee of the scratch compute surface, asserted
//! with a counting global allocator: after one warm-up pass, a whole
//! steady-state training step — each shard's in-place assembly out of
//! the corpus (with its shared-row lookup), forward, loss, backward, the
//! fixed-order gradient reduction, Adam — the arena-backed inference
//! forward, and a serving block (the featurizer's block builder with its
//! shared-row lookup, then the f32 and int8 forwards) must never touch
//! the allocator. The training step is run inline and on the persistent
//! worker pool, and the pooled phases additionally assert **zero thread
//! spawns**: once the pool is warm, a multi-worker step is one condvar
//! dispatch, not a `thread::scope` spawn+join.
//!
//! Since the `lc_obs` instrumentation landed, every measured window also
//! exercises the metrics layer — counter increments, histogram records,
//! and `SpanTimer` guards run *inside* the zero-allocation assertions
//! (and the steps go through `WorkerPool::run_chunks`, the same
//! instrumented dispatch `lc_core::train` and batch inference use),
//! proving that observability rides along for free.
//!
//! The last phase bounds, rather than forbids, allocation: annotating a
//! query against the materialized samples builds the `LabeledQuery`'s own
//! vectors and bitmaps and nothing else — no per-table predicate list, no
//! scratch — so a T-table, P-predicate query costs at most `3 + T + P`
//! allocator calls.
//!
//! All phases live in ONE `#[test]`: the allocation counter is
//! process-global, so a second concurrently-running test's setup would
//! bleed into the measured window and flake the assertion.
#![allow(unsafe_code)] // a GlobalAlloc impl is unavoidably unsafe (it only counts and
                       // delegates); nothing else in this file is

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use lc_core::batch::{CorpusSparse, CONSTANT};
use lc_core::featurize::FeaturizedQuery;
use lc_core::{FeatureMode, Featurizer, MscnModel, RaggedBatch};
use lc_engine::SampleSet;
use lc_nn::{Adam, LossKind, SparseRows, WorkerPool};
use lc_obs::{metrics, SpanTimer};
use lc_query::{annotate_query, GeneratorConfig, LabeledQuery, QueryGenerator};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Delegates to the system allocator, counting every allocation call.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocation_count() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// A small synthetic corpus (no database machinery — this test is about
/// the compute core only). Queries `q` and `q + 5` hold the same rows, so
/// mini-batches share rows between elements.
fn synthetic_feats(queries: usize, dims: (usize, usize, usize), salt: f32) -> Vec<FeaturizedQuery> {
    let (td, jd, pd) = dims;
    (0..queries)
        .map(|q| {
            let v = q % 5;
            let set = |d: usize, rows: usize, step: f32| {
                let mut out = SparseRows::new(d);
                for r in 0..rows {
                    let lo = r as f32 * step;
                    out.push_row((0..d).map(|i| (i as u32, lo + salt * (i + v) as f32 % 1.0)));
                }
                out
            };
            FeaturizedQuery {
                tables: set(td, 1 + v % 3, 0.1),
                joins: set(jd, v % 2, 0.2),
                preds: set(pd, v % 4, 0.3),
                target: (q as f32 * 0.37 + salt) % 1.0,
            }
        })
        .collect()
}

/// A mini-batch of `queries` synthetic queries, assembled from their
/// corpus.
fn synthetic_batch(queries: usize, dims: (usize, usize, usize), salt: f32) -> RaggedBatch {
    let feats = synthetic_feats(queries, dims, salt);
    let corpus = CorpusSparse::build(&feats, dims.0, dims.1, dims.2);
    let all: Vec<usize> = (0..queries).collect();
    RaggedBatch::assemble_indexed(&feats, &corpus, &all, dims.0, dims.1, dims.2)
}

/// One shard's batch, scratch and gradient buffers, as `lc_core::train`
/// keeps them.
type ShardBuffers = (RaggedBatch, lc_core::MscnScratch, lc_core::MscnGrads);

/// Everything one training run reuses across steps.
struct Step<'a> {
    feats: &'a [FeaturizedQuery],
    corpus: &'a CorpusSparse,
    shard_buffers: Vec<ShardBuffers>,
    total: lc_core::MscnGrads,
    adam: Adam,
    slots: Vec<usize>,
}

impl Step<'_> {
    /// One full training step over the mini-batch whose shards are
    /// `shards` (corpus query indices), as `lc_core::train` runs it: on
    /// `workers` participants of the persistent pool (1 = inline), each
    /// shard assembles its queries into its warm batch and runs forward,
    /// loss gradient and backward; then the fixed-order reduction and
    /// Adam.
    fn run(&mut self, model: &mut MscnModel, shards: &[&[usize]], workers: usize) {
        // The same instrumentation `lc_core::train`'s epoch loop runs; it
        // sits inside the measured window, so a single heap allocation in
        // the metrics layer would fail the assertions below.
        metrics::TRAIN_EPOCHS.inc();
        let _span = SpanTimer::start(&metrics::TRAIN_EPOCH_NS);
        let n = shards.iter().map(|s| s.len()).sum();
        let (feats, corpus, model_ref) = (self.feats, self.corpus, &*model);
        let buffers = &mut self.shard_buffers[..shards.len()];
        WorkerPool::global().run_chunks(buffers, 1, workers, |i, slot| {
            let _span = SpanTimer::start(&metrics::TRAIN_SHARD_NS);
            let (batch, scratch, grads) = &mut slot[0];
            batch.assemble_into(feats, corpus, shards[i]);
            grads.zero();
            model_ref.forward_scratch(batch, scratch);
            scratch.grad_pred.clear();
            scratch.grad_pred.resize(scratch.preds.len(), 0.0);
            LossKind::MeanQError.loss_and_grad_scaled(
                &scratch.preds,
                &batch.targets,
                3.0,
                n,
                &mut scratch.grad_pred,
            );
            model_ref.backward_scratch(batch, scratch, grads);
        });
        self.total.sum_in_order(self.shard_buffers[..shards.len()].iter().map(|(.., g)| g));
        self.adam.begin_step();
        let mut slot_iter = self.slots.iter();
        for (mlp, mlp_grads) in model.mlps_mut().into_iter().zip(self.total.mlps()) {
            for (layer, layer_grads) in mlp.layers_mut().into_iter().zip(mlp_grads.layers()) {
                for (params, grads) in layer.params_mut().into_iter().zip(layer_grads.tensors()) {
                    self.adam.step_slot(*slot_iter.next().unwrap(), params, grads);
                }
            }
        }
        for mlp in model.mlps_mut() {
            mlp.refresh_transpose_cache();
        }
    }
}

#[test]
fn steady_state_compute_paths_do_not_allocate() {
    // Warm the metrics layer's one-time state (the `LC_OBS` env lookup
    // and the process-start anchor allocate on first touch) before any
    // measured window opens.
    lc_obs::init();
    let _ = lc_obs::enabled();

    let dims = (9, 4, 7);
    let mut model = MscnModel::new(dims.0, dims.1, dims.2, 16, 42);
    let feats = synthetic_feats(40, dims, 0.11);
    let corpus = CorpusSparse::build(&feats, dims.0, dims.1, dims.2);
    // Two differently-shaped mini-batches, each in two shards, so
    // "steady state" covers alternating shapes, not just one. Every
    // shard holds more than five queries, so it shares rows.
    let order: Vec<usize> = (0..40).map(|i| i * 7 % 40).collect();
    let steps: [[&[usize]; 2]; 2] = [[&order[..16], &order[16..32]], [&order[32..], &order[..7]]];

    let mut adam = Adam::new(1e-3);
    let mut slots = Vec::new();
    for mlp in model.mlps_mut() {
        for layer in mlp.layers_mut() {
            for params in layer.params_mut() {
                slots.push(adam.register(params.len()));
            }
        }
    }
    let mut step = Step {
        feats: &feats,
        corpus: &corpus,
        shard_buffers: (0..2)
            .map(|_| (RaggedBatch::empty(), lc_core::MscnScratch::new(), model.new_grads()))
            .collect(),
        total: model.new_grads(),
        adam,
        slots,
    };

    // Phases one and two: the step inline, then on the pool. Warm-up
    // grows every buffer to its steady-state capacity (and, pooled,
    // spawns the pool worker).
    let pool = WorkerPool::global();
    for (workers, what) in [(1, "inline"), (2, "pooled")] {
        for _ in 0..3 {
            for shards in &steps {
                step.run(&mut model, shards, workers);
            }
        }
        let shares_rows = |(b, ..): &ShardBuffers| b.tables_sp.rows() < b.table_index.len();
        assert!(step.shard_buffers.iter().all(shares_rows), "the shards must share rows");
        let spawned_before = lc_nn::threads_spawned();
        let before = allocation_count();
        for _ in 0..5 {
            for shards in &steps {
                step.run(&mut model, shards, workers);
            }
        }
        assert_eq!(
            allocation_count() - before,
            0,
            "the {what} steady-state training step must perform zero heap allocations"
        );
        assert_eq!(
            lc_nn::threads_spawned() - spawned_before,
            0,
            "the {what} steady-state training step must spawn zero threads"
        );
    }
    assert!(pool.workers() >= 1, "the pooled step must actually have engaged the pool");

    // Phase three: the arena-backed inference forward on a warm scratch.
    let batch = synthetic_batch(24, dims, 0.19);
    let mut scratch = lc_core::MscnScratch::new();
    for _ in 0..3 {
        model.forward_scratch(&batch, &mut scratch);
    }
    let before = allocation_count();
    for _ in 0..10 {
        // Instrumented exactly like the serving forward path: a span
        // over the pass plus a size record into a shared histogram.
        let span = SpanTimer::start(&metrics::BATCH_FORWARD_NS);
        model.forward_scratch(&batch, &mut scratch);
        drop(span);
        metrics::BATCH_SIZE.record(batch.targets.len() as u64);
    }
    assert_eq!(
        allocation_count() - before,
        0,
        "the steady-state inference forward pass must perform zero heap allocations"
    );
    let model_ref: &MscnModel = &model;

    // Phase four: pooled batch inference — two warm scratches, one
    // forward block per participant, the shape of `estimate_all`'s
    // fan-out.
    let batch_b = synthetic_batch(24, dims, 0.29);
    let blocks = [&batch, &batch_b];
    let mut infer_scratches = [lc_core::MscnScratch::new(), lc_core::MscnScratch::new()];
    let pooled_infer = |scratches: &mut [lc_core::MscnScratch]| {
        pool.run_chunks(scratches, 1, blocks.len(), |i, scratch| {
            model_ref.forward_scratch(blocks[i], &mut scratch[0]);
        });
    };
    for _ in 0..3 {
        pooled_infer(&mut infer_scratches);
    }
    let spawned_before = lc_nn::threads_spawned();
    let before = allocation_count();
    for _ in 0..10 {
        pooled_infer(&mut infer_scratches);
    }
    assert_eq!(
        allocation_count() - before,
        0,
        "pooled steady-state batch inference must perform zero heap allocations"
    );
    assert_eq!(
        lc_nn::threads_spawned() - spawned_before,
        0,
        "pooled steady-state batch inference must spawn zero threads"
    );

    // Phase five: the int8 quantized forward. Quantization itself
    // allocates (once, at publish time); the steady-state quantized
    // inference pass — CSR re-quantization, integer matmuls, f32
    // pooling, concat re-quantization — must not.
    let qmodel = lc_core::QuantizedMscnModel::quantize(&model);
    let mut qscratch = lc_core::QuantScratch::new();
    for _ in 0..3 {
        for b in [&batch, &batch_b] {
            qmodel.forward_scratch(b, &mut qscratch);
        }
    }
    let before = allocation_count();
    for _ in 0..10 {
        for b in [&batch, &batch_b] {
            qmodel.forward_scratch(b, &mut qscratch);
        }
    }
    assert_eq!(
        allocation_count() - before,
        0,
        "the steady-state quantized forward pass must perform zero heap allocations"
    );

    // Phase six: the serving block path. A warm 256-query block from the
    // featurizer's block builder, made of repeated queries so that rows
    // are shared through the element index, then its f32 and int8
    // forwards. The row lookup lives in the reused batch. Then the same
    // for one query whose join rows and one table row are model
    // constants.
    let db = lc_imdb::generate(&lc_imdb::ImdbConfig::tiny());
    let samples = SampleSet::draw(&db, 130, &mut SmallRng::seed_from_u64(5));
    let featurizer =
        Featurizer::fit(&db, FeatureMode::Bitmaps, samples.sample_size(), [1u64, 1000]);
    let mut generator = QueryGenerator::new(&db, GeneratorConfig { max_joins: 3, seed: 7 });
    let distinct: Vec<LabeledQuery> = generator
        .generate_unique(64)
        .into_iter()
        .map(|q| annotate_query(&db, &samples, q))
        .collect();
    let block: Vec<LabeledQuery> = distinct.iter().cycle().take(256).cloned().collect();
    let (td, jd, pd) = (featurizer.table_dim(), featurizer.join_dim(), featurizer.pred_dim());
    let mut serve_model = MscnModel::new(td, jd, pd, 16, 43);
    serve_model.derive_constants(&featurizer);
    let mut serve_qmodel = lc_core::QuantizedMscnModel::quantize(&serve_model);
    serve_qmodel.derive_constants(&featurizer);
    let mut built = RaggedBatch::empty();
    let mut f32_scratch = lc_core::MscnScratch::new();
    let mut int8_scratch = lc_core::QuantScratch::new();
    let mut serve_block = |built: &mut RaggedBatch, block: &[LabeledQuery]| {
        featurizer.featurize_into_sparse_batch(block, built);
        serve_model.forward_scratch(built, &mut f32_scratch);
        featurizer.featurize_into_sparse_batch(block, built);
        serve_qmodel.forward_scratch(built, &mut int8_scratch);
    };
    for _ in 0..3 {
        serve_block(&mut built, &block);
    }
    assert!(built.tables_sp.rows() < built.table_index.len(), "the block must share rows");
    let before = allocation_count();
    for _ in 0..5 {
        serve_block(&mut built, &block);
    }
    assert_eq!(
        allocation_count() - before,
        0,
        "a warm serving block (build + f32 and int8 forwards) must perform zero heap allocations"
    );
    let tagged = |index: &[u32]| index.iter().filter(|&&e| e & CONSTANT != 0).count();
    let one = distinct
        .iter()
        .find(|q| {
            featurizer.featurize_into_sparse_batch(std::slice::from_ref(q), &mut built);
            !q.query.joins().is_empty()
                && tagged(&built.join_index) == built.join_index.len()
                && tagged(&built.table_index) == 1
        })
        .expect("a query with joins and exactly one constant table row");
    let one = std::slice::from_ref(one);
    for _ in 0..3 {
        serve_block(&mut built, one);
    }
    let before = allocation_count();
    for _ in 0..10 {
        serve_block(&mut built, one);
    }
    assert_eq!(
        allocation_count() - before,
        0,
        "a warm one-query estimate on model constants must perform zero heap allocations"
    );

    // Phase seven: sample annotation. Three result vectors, one bitmap per
    // table, one per predicate.
    let mut generator = QueryGenerator::new(&db, GeneratorConfig { max_joins: 4, seed: 6 });
    for query in generator.generate_unique(200) {
        let (t, p) = (query.tables().len() as u64, query.predicates().len() as u64);
        let before = allocation_count();
        let annotated = annotate_query(&db, &samples, query);
        let spent = allocation_count() - before;
        assert!(
            spent <= 3 + t + p,
            "annotating {} took {spent} allocations, budget 3 + {t} + {p}",
            annotated.query
        );
    }
}
