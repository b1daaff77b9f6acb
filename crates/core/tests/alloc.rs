//! The zero-allocation guarantee of the scratch compute surface, asserted
//! with a counting global allocator: after one warm-up pass, the
//! steady-state training step — forward, loss, backward, fixed-order
//! gradient reduction, Adam — the arena-backed inference forward, and a
//! serving block (the featurizer's block builder with its shared-row
//! lookup, then the f32 and int8 forwards) must never touch the
//! allocator. The pooled phases additionally assert
//! **zero thread spawns**: once the persistent worker pool is warm, a
//! multi-worker step is one condvar dispatch, not a `thread::scope`
//! spawn+join (the last per-step allocation source PR 3 documented).
//!
//! Since the `lc_obs` instrumentation landed, every measured window also
//! exercises the metrics layer — counter increments, histogram records,
//! and `SpanTimer` guards run *inside* the zero-allocation assertions
//! (and the pooled phases go through `WorkerPool::run_chunks`, the same
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

/// A small synthetic ragged batch (no database machinery — this test is
/// about the compute core only).
fn synthetic_batch(queries: usize, dims: (usize, usize, usize), salt: f32) -> RaggedBatch {
    let (td, jd, pd) = dims;
    let mut feats = Vec::new();
    for q in 0..queries {
        let set = |d: usize, rows: usize, step: f32| {
            let mut out = SparseRows::new(d);
            for r in 0..rows {
                let lo = r as f32 * step;
                out.push_row((0..d).map(|i| (i as u32, lo + salt * (i + q) as f32 % 1.0)));
            }
            out
        };
        feats.push(FeaturizedQuery {
            tables: set(td, 1 + q % 3, 0.1),
            joins: set(jd, q % 2, 0.2),
            preds: set(pd, q % 4, 0.3),
            target: (q as f32 * 0.37 + salt) % 1.0,
        });
    }
    let corpus = CorpusSparse::build(&feats, td, jd, pd);
    let all: Vec<usize> = (0..queries).collect();
    RaggedBatch::assemble_indexed(&feats, &corpus, &all, td, jd, pd)
}

/// One shard's scratch and gradient buffers, as `lc_core::train` keeps
/// them.
type ShardBuffers = (lc_core::MscnScratch, lc_core::MscnGrads);

/// One shard's forward, loss gradient and backward into its buffers.
fn shard_pass(model: &MscnModel, batch: &RaggedBatch, batch_n: usize, buffers: &mut ShardBuffers) {
    let (scratch, grads) = buffers;
    grads.zero();
    model.forward_scratch(batch, scratch);
    scratch.grad_pred.clear();
    scratch.grad_pred.resize(scratch.preds.len(), 0.0);
    LossKind::MeanQError.loss_and_grad_scaled(
        &scratch.preds,
        &batch.targets,
        3.0,
        batch_n,
        &mut scratch.grad_pred,
    );
    model.backward_scratch(batch, scratch, grads);
}

/// One full training step on pre-assembled shards with warm buffers:
/// forward, loss gradient, backward, shard reduction, Adam.
fn train_step(
    model: &mut MscnModel,
    shards: &[RaggedBatch],
    batch_n: usize,
    shard_buffers: &mut [ShardBuffers],
    total: &mut lc_core::MscnGrads,
    adam: &mut Adam,
    slots: &[usize],
) {
    // The same instrumentation `lc_core::train`'s epoch loop runs; it
    // sits inside the measured window, so a single heap allocation in
    // the metrics layer would fail the assertions below.
    metrics::TRAIN_EPOCHS.inc();
    let _span = SpanTimer::start(&metrics::TRAIN_EPOCH_NS);
    for (batch, buffers) in shards.iter().zip(shard_buffers.iter_mut()) {
        shard_pass(model, batch, batch_n, buffers);
    }
    total.zero();
    for (_, grads) in shard_buffers.iter() {
        total.add_assign(grads);
    }
    adam.begin_step();
    let mut slot_iter = slots.iter();
    for (mlp, mlp_grads) in model.mlps_mut().into_iter().zip(total.mlps()) {
        for (layer, layer_grads) in mlp.layers_mut().into_iter().zip(mlp_grads.layers()) {
            for (params, grads) in layer.params_mut().into_iter().zip(layer_grads.tensors()) {
                adam.step_slot(*slot_iter.next().unwrap(), params, grads);
            }
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
    // Two differently-shaped mini-batches (each pre-sharded in two), so
    // "steady state" covers alternating shapes, not just one.
    let shards_a = [synthetic_batch(16, dims, 0.11), synthetic_batch(16, dims, 0.23)];
    let shards_b = [synthetic_batch(9, dims, 0.31), synthetic_batch(9, dims, 0.47)];

    let mut adam = Adam::new(1e-3);
    let mut slots = Vec::new();
    for mlp in model.mlps_mut() {
        for layer in mlp.layers_mut() {
            for params in layer.params_mut() {
                slots.push(adam.register(params.len()));
            }
        }
    }
    let mut shard_buffers: [ShardBuffers; 2] =
        std::array::from_fn(|_| (lc_core::MscnScratch::new(), model.new_grads()));
    let mut total = model.new_grads();

    // Warm-up: grow every scratch buffer to its steady-state capacity.
    for _ in 0..3 {
        for shards in [&shards_a, &shards_b] {
            train_step(&mut model, shards, 32, &mut shard_buffers, &mut total, &mut adam, &slots);
        }
    }

    let before = allocation_count();
    for _ in 0..5 {
        for shards in [&shards_a, &shards_b] {
            train_step(&mut model, shards, 32, &mut shard_buffers, &mut total, &mut adam, &slots);
        }
    }
    let after = allocation_count();
    assert_eq!(
        after - before,
        0,
        "the steady-state training step must perform zero heap allocations"
    );

    // Phase two: the arena-backed inference forward on a warm scratch.
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

    // Phase three: the POOLED data-parallel step — two participants of
    // the persistent pool each own one shard's buffers (scratch +
    // gradients), exactly the `run_chunks` dispatch `lc_core::train`
    // runs. After the pool has grown once, a steady-state step must
    // touch neither the allocator nor the spawn path.
    let pool = WorkerPool::global();
    let model_ref: &MscnModel = &model;
    let pooled_step = |shards: &[RaggedBatch], shard_buffers: &mut [ShardBuffers]| {
        pool.run_chunks(shard_buffers, 1, shards.len(), |i, buffers| {
            shard_pass(model_ref, &shards[i], 32, &mut buffers[0]);
        });
    };
    // Warm-up: spawns the pool worker and grows per-worker buffers.
    for _ in 0..3 {
        for shards in [&shards_a, &shards_b] {
            pooled_step(shards, &mut shard_buffers);
        }
    }
    let spawned_before = lc_nn::threads_spawned();
    let before = allocation_count();
    for _ in 0..5 {
        for shards in [&shards_a, &shards_b] {
            pooled_step(shards, &mut shard_buffers);
        }
    }
    assert_eq!(
        allocation_count() - before,
        0,
        "the pooled steady-state training step must perform zero heap allocations"
    );
    assert_eq!(
        lc_nn::threads_spawned() - spawned_before,
        0,
        "the pooled steady-state training step must spawn zero threads"
    );
    assert!(pool.workers() >= 1, "the pooled step must actually have engaged the pool");

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
