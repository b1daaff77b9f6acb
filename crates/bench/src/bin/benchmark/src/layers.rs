//! The per-layer replays of a traced run: every layer of the stack timed
//! alone, from here, around its public calls, on the workload's own
//! queries. Layer = crate.module; the name of each metric says which.
//!
//! A replay calls the layer in a loop for a slice of the time budget
//! and reports the median over calls of nanoseconds per unit of work
//! (one frame, one query, one training step). Inputs are prepared
//! outside the timed call.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use lc_core::batch::CorpusSparse;
use lc_core::featurize::FeaturizedQuery;
use lc_core::{
    train, MscnModel, MscnScratch, QuantScratch, QuantizedMscn, RaggedBatch, TrainConfig,
};
use lc_eval::metrics::{percentile, qerror};
use lc_nn::{Adam, LossKind, Matrix, WorkerPool};
use lc_query::{annotate_query, label_queries, LabeledQuery};
use lc_serve::wire::{Message, PROTOCOL_VERSION};
use lc_serve::{
    BatcherConfig, CacheConfig, CachedEstimate, DriftConfig, DriftMonitor, EstimateCache,
    EstimationService, ModelRegistry, ServeConfig,
};

use crate::fixture::{train_config, Fixture};

/// Timed replays in [`measure`]; the budget is split evenly.
const REPLAYS: u32 = 48;

/// Per-layer values by metric name.
#[derive(Default)]
pub struct LayerTimes(BTreeMap<String, f64>);

impl LayerTimes {
    /// The value of `name`, 0 when it was not measured.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.0.insert(name.into(), value);
    }
}

/// Median over calls of `ns / units`, calling `run(prepare())` until
/// `slice` is spent (five calls at least, after one discarded).
fn replay<T>(
    slice: Duration,
    units: usize,
    mut prepare: impl FnMut() -> T,
    mut run: impl FnMut(T),
) -> f64 {
    run(prepare());
    let mut per_unit = Vec::new();
    let deadline = Instant::now() + slice;
    while per_unit.len() < 5 || (Instant::now() < deadline && per_unit.len() < 100_000) {
        let input = prepare();
        let t = Instant::now();
        run(input);
        per_unit.push(t.elapsed().as_nanos() as f64 / units.max(1) as f64);
    }
    percentile(&per_unit, 50.0)
}

/// The gradient shards of an `n`-query mini-batch, as `lc_core::train`
/// cuts them (documented there: at most 8 shards of at least 32).
fn shard_ranges(n: usize) -> Vec<std::ops::Range<usize>> {
    let size = n.div_ceil(8).max(32);
    (0..n).step_by(size).map(|lo| lo..(lo + size).min(n)).collect()
}

/// Optimizer steps of one `lc_core::train` over `n` queries.
fn train_steps(n: usize, config: &TrainConfig) -> usize {
    let validation = ((n as f64 * config.validation_fraction) as usize).max(1);
    config.epochs * (n - validation).div_ceil(config.batch_size)
}

pub fn measure(fixture: &Fixture, inputs: &[LabeledQuery], budget_s: f64) -> LayerTimes {
    let slice = Duration::from_secs_f64(budget_s / f64::from(REPLAYS));
    // Every k-th query, so a workload's mix (heal: 1 steady to 6
    // shifted) survives the cut.
    let stride = inputs.len().div_ceil(fixture.scale.replay_queries).max(1);
    let qs: Vec<LabeledQuery> = inputs.iter().step_by(stride).cloned().collect();
    let qs = qs.as_slice();
    let n = qs.len();
    let est = &fixture.model;
    let (db, samples) = (&fixture.db, &fixture.samples);
    let mut out = LayerTimes::default();

    // lc_serve::wire
    let frames = |make: &dyn Fn(u64, &LabeledQuery) -> Message| -> Vec<Vec<u8>> {
        qs.iter().enumerate().map(|(i, q)| make(i as u64, q).to_bytes()).collect()
    };
    let requests = frames(&|id, q| Message::EstimateRequest { id, query: q.query.clone() });
    let feedback = frames(&|id, q| Message::Feedback {
        id,
        query: q.query.clone(),
        actual_card: q.cardinality,
    });
    let decode = |frames: &[Vec<u8>]| {
        for f in frames {
            black_box(Message::decode_prefix(black_box(f), PROTOCOL_VERSION).expect("own frame"));
        }
    };
    out.set("serve.wire.decode_ns", replay(slice, n, || (), |()| decode(&requests)));
    out.set("serve.wire.feedback_decode_ns", replay(slice, n, || (), |()| decode(&feedback)));
    let responses: Vec<Message> = (0..n as u64)
        .map(|id| Message::EstimateResponse {
            id,
            estimate: id as f64 + 1.5,
            model_version: 1,
            micro_batch: 1,
            cache_hit: false,
        })
        .collect();
    let mut wire_buf = Vec::with_capacity(64);
    out.set(
        "serve.wire.encode_ns",
        replay(
            slice,
            n,
            || (),
            |()| {
                for m in &responses {
                    wire_buf.clear();
                    m.encode(&mut wire_buf);
                    black_box(&wire_buf);
                }
            },
        ),
    );

    // lc_query::codec, lc_serve::cache
    out.set(
        "query.codec.key_ns",
        replay(
            slice,
            n,
            || (),
            |()| {
                for q in qs {
                    black_box(q.query.to_canonical_bytes());
                }
            },
        ),
    );
    let keys: Vec<Vec<u8>> = qs
        .iter()
        .map(|q| {
            let mut key = q.query.to_canonical_bytes();
            key.extend_from_slice(&1u32.to_le_bytes());
            key
        })
        .collect();
    let value = CachedEstimate { cardinality: 42.0, tier: 0, log_std: 0.0 };
    let resident = EstimateCache::new(CacheConfig { capacity: 2 * n, ..CacheConfig::default() });
    for key in &keys {
        resident.insert(key.clone(), value);
    }
    out.set(
        "serve.cache.hit_ns",
        replay(
            slice,
            n,
            || (),
            |()| {
                for key in &keys {
                    black_box(resident.get(key).expect("resident key"));
                }
            },
        ),
    );
    // Cycling twice the capacity through an LRU misses every time and
    // evicts on every insert.
    let thrashed =
        EstimateCache::new(CacheConfig { capacity: (n / 2).max(1), ..CacheConfig::default() });
    out.set(
        "serve.cache.miss_ns",
        replay(
            slice,
            n,
            || keys.clone(),
            |fresh| {
                for key in fresh {
                    black_box(thrashed.get(&key));
                    thrashed.insert(key, value);
                }
            },
        ),
    );

    // lc_query::label (annotation), lc_core::featurize, lc_core::model
    let annotate_ns = replay(
        slice,
        n,
        || (),
        |()| {
            for q in qs {
                black_box(annotate_query(db, samples, q.query.clone()));
            }
        },
    );
    out.set("query.annotate_ns", annotate_ns);
    let featurizer = est.featurizer();
    let mut scratch = MscnScratch::new();
    for b in [1usize, 64, 256] {
        let b_eff = b.min(n);
        let units = n / b_eff * b_eff;
        let mut batch = RaggedBatch::empty();
        let featurize_ns = replay(
            slice,
            units,
            || (),
            |()| {
                for chunk in qs.chunks_exact(b_eff) {
                    featurizer.featurize_into_sparse_batch(chunk, &mut batch);
                    black_box(&batch);
                }
            },
        );
        out.set(format!("core.featurize_ns.b{b}"), featurize_ns);
        let batches: Vec<RaggedBatch> = qs
            .chunks_exact(b_eff)
            .map(|chunk| {
                let mut batch = RaggedBatch::empty();
                featurizer.featurize_into_sparse_batch(chunk, &mut batch);
                batch
            })
            .collect();
        let forward_ns = replay(
            slice,
            units,
            || (),
            |()| {
                for batch in &batches {
                    est.model().forward_scratch(batch, &mut scratch);
                    black_box(&scratch.preds);
                }
            },
        );
        out.set(format!("core.forward_ns.b{b}"), forward_ns);
        if b != 64 {
            let estimate_ns = replay(
                slice,
                units,
                || (),
                |()| {
                    for chunk in qs.chunks_exact(b_eff) {
                        black_box(est.estimate_cards(chunk));
                    }
                },
            );
            out.set(format!("core.estimate_ns.b{b}"), estimate_ns);
        }
        if b == 1 {
            out.set(
                "core.estimate_overhead_ns.b1",
                out.get("core.estimate_ns.b1") - featurize_ns - forward_ns,
            );
        }
    }

    // lc_serve::service + batcher, manual flush, cache off: what the
    // service adds around annotate + featurize + forward.
    let service = EstimationService::new(
        db.clone(),
        samples.clone(),
        Arc::new(ModelRegistry::new(est.clone())),
        ServeConfig {
            cache: CacheConfig { capacity: 0, ..CacheConfig::default() },
            batcher: BatcherConfig { workers: 0, max_batch: 64, ..BatcherConfig::default() },
            ..ServeConfig::default()
        },
    );
    for b in [1usize, 64] {
        let b_eff = b.min(n);
        let serve_ns = replay(
            slice,
            n / b_eff * b_eff,
            || (),
            |()| {
                for chunk in qs.chunks_exact(b_eff) {
                    let pending: Vec<_> = chunk.iter().map(|q| service.submit(&q.query)).collect();
                    service.flush_now();
                    for p in pending {
                        black_box(p.wait().expect("manual service answers"));
                    }
                }
            },
        );
        let model_ns = annotate_ns
            + out.get(&format!("core.featurize_ns.b{b}"))
            + out.get(&format!("core.forward_ns.b{b}"));
        out.set(format!("serve.service.overhead_ns.b{b}"), serve_ns - model_ns);
    }
    service.shutdown();

    // lc_core::quant: the int8 twin of the same weights, same inputs.
    out.set(
        "core.quant.quantize_us",
        replay(
            slice,
            1,
            || (),
            |()| {
                black_box(QuantizedMscn::quantize(est));
            },
        ) / 1e3,
    );
    let quant = QuantizedMscn::quantize(est);
    out.set("core.quant.resident_bytes", quant.resident_bytes() as f64);
    let mut qscratch = QuantScratch::new();
    for b in [1usize, 256] {
        let b_eff = b.min(n);
        let batches: Vec<RaggedBatch> = qs
            .chunks_exact(b_eff)
            .map(|chunk| {
                let mut batch = RaggedBatch::empty();
                featurizer.featurize_into_sparse_batch(chunk, &mut batch);
                batch
            })
            .collect();
        let ns = replay(
            slice,
            n / b_eff * b_eff,
            || (),
            |()| {
                for batch in &batches {
                    quant.qmodel().forward_scratch(batch, &mut qscratch);
                    black_box(&qscratch.preds);
                }
            },
        );
        out.set(format!("core.quant.forward_ns.b{b}"), ns);
    }
    let b256 = 256.min(n);
    out.set(
        "core.quant.estimate_ns.b256",
        replay(
            slice,
            n / b256 * b256,
            || (),
            |()| {
                for chunk in qs.chunks_exact(b256) {
                    black_box(quant.estimate_cards(chunk));
                }
            },
        ),
    );
    let quant_qerr: Vec<f64> = quant
        .estimate_cards(qs)
        .iter()
        .zip(qs)
        .map(|(&e, q)| qerror(e, q.cardinality as f64))
        .collect();
    out.set("eval.quant.qerr_p50", percentile(&quant_qerr, 50.0));
    out.set("eval.quant.qerr_p95", percentile(&quant_qerr, 95.0));

    // lc_nn kernels on the shapes one 256-query block produces.
    let h = est.model().hidden();
    let mut block = RaggedBatch::empty();
    featurizer.featurize_into_sparse_batch(&qs[..b256], &mut block);
    let ramp = |rows: usize, cols: usize| {
        Matrix::from_vec(
            rows,
            cols,
            (0..rows * cols).map(|i| (i % 13) as f32 * 0.03 - 0.2).collect(),
        )
    };
    let (a, w, bias) = (ramp(256, h), ramp(h, h), vec![0.01f32; h]);
    let mut product = Matrix::zeros(256, h);
    out.set(
        "nn.matmul_ns.hidden",
        replay(
            slice,
            1,
            || (),
            |()| {
                a.matmul_bias_into(&w, &bias, &mut product);
                black_box(&product);
            },
        ),
    );
    let pred_input_layer = est.model().mlps()[2].layers()[0];
    out.set(
        "nn.sparse_ns.pred",
        replay(
            slice,
            1,
            || (),
            |()| {
                pred_input_layer.forward_sparse_into(&block.preds_sp, &mut product);
                black_box(&product);
            },
        ),
    );
    let (flops, bytes) = computed_cost_per_estimate(&block, est.model());
    out.set("nn.flops_per_est", flops);
    out.set("nn.bytes_per_est", bytes);

    // One training step at batch 256, rebuilt from public calls.
    let (td, jd, pd) = est.model().input_dims();
    let feats: Vec<FeaturizedQuery> = qs.iter().map(|q| featurizer.featurize(q)).collect();
    let corpus = CorpusSparse::build(&feats, td, jd, pd);
    let step_n = 256.min(n);
    let indices: Vec<usize> = (0..step_n).collect();
    let shards = shard_ranges(step_n);
    let assemble = |r: &std::ops::Range<usize>| {
        RaggedBatch::assemble_indexed(&feats, &corpus, &indices[r.clone()], td, jd, pd)
    };
    out.set(
        "core.train.assemble_ns",
        replay(
            slice,
            1,
            || (),
            |()| {
                for r in &shards {
                    black_box(assemble(r));
                }
            },
        ),
    );
    let shard_batches: Vec<RaggedBatch> = shards.iter().map(assemble).collect();
    let mut model = MscnModel::new(td, jd, pd, h, 7);
    let mut scratches: Vec<MscnScratch> = shards.iter().map(|_| MscnScratch::new()).collect();
    let mut grads: Vec<_> = shards.iter().map(|_| model.new_grads()).collect();
    out.set(
        "core.train.forward_ns",
        replay(
            slice,
            1,
            || (),
            |()| {
                for (batch, s) in shard_batches.iter().zip(&mut scratches) {
                    model.forward_scratch(batch, s);
                }
            },
        ),
    );
    let label_scale = featurizer.label_norm().scale();
    out.set(
        "nn.loss_ns",
        replay(
            slice,
            1,
            || (),
            |()| {
                for (batch, s) in shard_batches.iter().zip(&mut scratches) {
                    s.grad_pred.clear();
                    s.grad_pred.resize(s.preds.len(), 0.0);
                    s.loss = LossKind::MeanQError.loss_and_grad_scaled(
                        &s.preds,
                        &batch.targets,
                        label_scale,
                        step_n,
                        &mut s.grad_pred,
                    );
                }
            },
        ),
    );
    out.set(
        "core.train.backward_ns",
        replay(
            slice,
            1,
            || (),
            |()| {
                for ((batch, s), g) in shard_batches.iter().zip(&mut scratches).zip(&mut grads) {
                    g.zero();
                    model.backward_scratch(batch, s, g);
                }
            },
        ),
    );
    let mut adam = Adam::new(1e-3);
    let mut slots = Vec::new();
    for mlp in model.mlps_mut() {
        for layer in mlp.layers_mut() {
            for params in layer.params_mut() {
                slots.push(adam.register(params.len()));
            }
        }
    }
    out.set(
        "nn.adam_ns",
        replay(
            slice,
            1,
            || (),
            |()| {
                adam.begin_step();
                let mut slot = slots.iter();
                for (mlp, mlp_grads) in model.mlps_mut().into_iter().zip(grads[0].mlps()) {
                    for (layer, layer_grads) in mlp.layers_mut().into_iter().zip(mlp_grads.layers())
                    {
                        for (params, g) in layer.params_mut().into_iter().zip(layer_grads.tensors())
                        {
                            adam.step_slot(*slot.next().expect("registered"), params, g);
                        }
                    }
                }
            },
        ),
    );
    // The live trainer on the workload's queries, at 1 and 2 threads.
    let fit_inputs = &inputs[..inputs.len().min(fixture.scale.train_queries)];
    let config = train_config(&fixture.scale, fixture.scale.train_epochs);
    let fit = |threads: usize| {
        let t = Instant::now();
        black_box(train(
            db,
            fixture.scale.sample_size,
            fit_inputs,
            TrainConfig { threads, ..config },
        ));
        t.elapsed().as_nanos() as f64
    };
    let (t1, t2) = (fit(1), fit(2));
    let fit_ns = t1 / train_steps(fit_inputs.len(), &config) as f64;
    out.set("core.train.fit_ns", fit_ns);
    out.set("core.train.t2_speedup", t1 / t2);
    let staged: f64 = [
        "core.train.assemble_ns",
        "core.train.forward_ns",
        "nn.loss_ns",
        "core.train.backward_ns",
        "nn.adam_ns",
    ]
    .iter()
    .map(|name| out.get(name))
    .sum();
    out.set("core.train.step_residual_ns", fit_ns - staged);
    out.set(
        "nn.pool.dispatch_ns",
        replay(
            slice,
            1,
            || (),
            |()| {
                WorkerPool::global().run(2, &|worker| {
                    black_box(worker);
                })
            },
        ),
    );

    // lc_serve::drift, lc_serve::registry
    let monitor = DriftMonitor::new(DriftConfig::default());
    out.set(
        "serve.drift.record_ns",
        replay(
            slice,
            n,
            || qs.to_vec(),
            |entries| {
                for entry in entries {
                    // Estimate == actual: q-error 1, so no window trips.
                    let (template, actual) = (entry.query.join_template(), entry.cardinality);
                    black_box(monitor.record(template, actual as f64, actual, Some(entry)));
                }
            },
        ),
    );
    let registry = ModelRegistry::new(est.clone());
    out.set(
        "serve.registry.publish_us",
        replay(
            slice / 4,
            4,
            || {
                for v in registry.versions() {
                    // Keep the registry small; the active version stays.
                    let _ = registry.retire(v);
                }
                vec![est.clone(); 4]
            },
            |models| {
                for m in models {
                    black_box(registry.publish(m));
                }
            },
        ) / 1e3,
    );

    // Set-up's own layers.
    let label_n = 256.min(n);
    out.set(
        "engine.label_ns",
        replay(
            slice,
            label_n,
            || qs[..label_n].iter().map(|q| q.query.clone()).collect::<Vec<_>>(),
            |queries| {
                black_box(label_queries(db, samples, queries, false));
            },
        ),
    );
    out.set(
        "imdb.generate_ms",
        replay(
            slice,
            1,
            || (),
            |()| {
                black_box(lc_imdb::generate(&fixture.scale.imdb));
            },
        ) / 1e6,
    );
    out.set(
        "bench.timer_ns",
        replay(
            slice / 4,
            4096,
            || (),
            |()| {
                for _ in 0..4096 {
                    black_box(Instant::now());
                }
            },
        ),
    );
    out
}

/// Floating-point operations and bytes moved for one estimate, from the
/// tensor shapes of a 256-query block — computed, not measured.
///
/// Per set module: a sparse input layer (2 flops and one index, value
/// and weight element per nonzero and output column) and a dense
/// `h × h` layer per element row; then the `3h → h → 1` output network
/// per query. Bytes count every weight once per block, every nonzero
/// once, and every activation once written and once read.
fn computed_cost_per_estimate(block: &RaggedBatch, model: &MscnModel) -> (f64, f64) {
    let n = block.len() as f64;
    let h = model.hidden() as f64;
    let rows = (block.tables_sp.rows() + block.joins_sp.rows() + block.preds_sp.rows()) as f64;
    let nnz = (block.tables_sp.nnz() + block.joins_sp.nnz() + block.preds_sp.nnz()) as f64;
    let flops = 2.0 * nnz * h + 2.0 * rows * h * h + n * (2.0 * 3.0 * h * h + 2.0 * h);
    let weights = model.num_params() as f64;
    let activations = 2.0 * rows * h + n * (3.0 * h + h + 1.0);
    let bytes = 4.0 * (weights + 2.0 * nnz + 2.0 * activations);
    (flops / n, bytes / n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_ranges_follow_the_trainer() {
        assert_eq!(shard_ranges(256), (0..8).map(|i| i * 32..(i + 1) * 32).collect::<Vec<_>>());
        assert_eq!(shard_ranges(64), vec![0..32, 32..64]);
        assert_eq!(shard_ranges(40), vec![0..32, 32..40]);
        assert_eq!(shard_ranges(1024).len(), 8);
    }

    #[test]
    fn train_steps_count_the_training_split_only() {
        let config = TrainConfig { epochs: 8, batch_size: 256, ..TrainConfig::default() };
        // 8192 queries: 819 held out, 7373 trained on, 29 steps an epoch.
        assert_eq!(train_steps(8192, &config), 8 * 29);
        assert_eq!(train_steps(512, &TrainConfig { epochs: 2, ..config }), 2 * 2);
    }

    #[test]
    fn replay_reports_the_median_per_unit() {
        let mut calls = 0u32;
        let ns = replay(
            Duration::from_millis(2),
            10,
            || 7u32,
            |x| {
                assert_eq!(x, 7);
                calls += 1;
                std::thread::sleep(Duration::from_micros(200));
            },
        );
        assert!(calls >= 6, "one discarded call and at least five timed");
        assert!(ns >= 20_000.0, "200 µs over 10 units is at least 20 µs per unit, got {ns}");
    }
}
