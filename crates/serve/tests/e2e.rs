//! End-to-end over real sockets: closed-loop clients across a hot-swap,
//! the drift-driven self-healing loop, many mostly-idle connections at
//! a fixed arrival rate, and the distill-then-quantize pipeline.

mod common;

use std::sync::Arc;
use std::time::{Duration, Instant};

use common::{closed_loop, open_loop, substrate, Shift, SAMPLE_SIZE};
use lc_core::{train, Estimator, TrainConfig};
use lc_serve::{
    compact_pipeline, serve, DriftConfig, EstimationService, ModelRegistry, ServeConfig,
};

/// A live server on a tiny bootstrap model, plus the database (for
/// ground truth) and a second model to hot-swap in.
fn boot(
    config: ServeConfig,
) -> (Arc<EstimationService>, Arc<ModelRegistry>, lc_engine::Database, lc_core::MscnEstimator) {
    let (db, samples, data) = substrate(150);
    let cfg = common::bootstrap_config(2, 16);
    let v1 = train(&db, SAMPLE_SIZE, &data, cfg).estimator;
    let v2 = train(&db, SAMPLE_SIZE, &data, TrainConfig { seed: 4242, ..cfg }).estimator;
    let registry = Arc::new(ModelRegistry::new(v1));
    let service =
        Arc::new(EstimationService::new(db.clone(), samples, Arc::clone(&registry), config));
    (service, registry, db, v2)
}

#[test]
fn closed_loop_clients_are_answered_across_a_hot_swap() {
    let (service, registry, db, v2) = boot(ServeConfig::default());
    let handle = serve(Arc::clone(&service), "127.0.0.1:0").expect("bind");
    let addr = handle.local_addr();

    let start = Instant::now();
    let run = std::thread::scope(|s| {
        let clients = s.spawn(|| closed_loop(addr, &db, 4, 400, 7, None));
        // Hot-swap the model while the clients are mid-run. If they
        // finish first the swap still must not disturb anything.
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(registry.publish(v2), 2);
        clients.join().expect("client threads panicked")
    });
    let qps = run.answered as f64 / start.elapsed().as_secs_f64();

    assert_eq!(run.answered, 400, "every request must be answered");
    assert_eq!(run.errors, 0, "no request may fail, hot-swap included");
    assert!(qps > 0.0, "throughput must be non-zero");
    assert!(run.latency.quantile(0.99) >= run.latency.quantile(0.5));

    // The server actually exercised the serving stack. Micro-batching
    // happens in the reactor shards' own batchers (not the service's),
    // so it shows in the process-global batch-size histogram.
    if lc_obs::enabled() {
        let batches = lc_obs::metrics::BATCH_SIZE.snapshot().count();
        assert!(batches >= 1, "TCP traffic never reached a micro-batcher");
    }
    let cache = service.cache_stats();
    assert_eq!(cache.hits + cache.misses, 400, "every request probed the cache");

    handle.shutdown();
    service.shutdown();
}

/// The self-healing loop over real sockets: shifted traffic with
/// feedback trips the drift monitor, the server retrains incrementally
/// in the background and publishes a strictly newer model — while every
/// single request keeps being answered.
#[test]
fn shifted_traffic_trips_drift_and_server_republishes_mid_traffic() {
    // Hair-trigger drift thresholds so the retrain fires well within the
    // (debug-build) test budget; the retrain itself is kept short.
    let drift = DriftConfig {
        window: 16,
        min_samples: 4,
        qerror_threshold: 1.5,
        min_corpus: 16,
        retrain: TrainConfig { epochs: 3, batch_size: 64, ..TrainConfig::default() },
        ..DriftConfig::default()
    };
    let (service, registry, db, _) = boot(ServeConfig { drift, ..ServeConfig::default() });
    let handle = serve(Arc::clone(&service), "127.0.0.1:0").expect("bind");

    let shift = Shift { at: 0.3, joins: 3 };
    let qerrors = || lc_obs::metrics::TIER_PRIMARY_QERROR_X100.snapshot().count();
    let qerrors_before = qerrors();
    let run = closed_loop(handle.local_addr(), &db, 2, 240, 11, Some(shift));
    assert_eq!(run.answered, 240, "every request must be answered");
    assert_eq!(run.errors, 0, "feedback traffic must not produce errors");
    assert!(service.drift().feedback_count() >= 240, "server recorded every feedback frame");
    // The served model's online q-error histogram sees the feedback
    // (process-global, but no sibling test here sends any).
    assert!(qerrors() > qerrors_before, "tier.primary.qerror_x100 saw no feedback");
    assert_eq!(run.regressions, 0, "published versions are monotonic");

    // The retrain runs in the background and may still be in flight
    // when the clients finish. `retrain.success` is bumped just after
    // the publish a client can already see.
    let deadline = Instant::now() + Duration::from_secs(60);
    while (service.drift().retrains() == 0 || lc_obs::metrics::RETRAIN_SUCCESS.get() == 0)
        && Instant::now() < deadline
    {
        std::thread::sleep(Duration::from_millis(25));
    }
    assert!(service.drift().retrains() >= 1, "shifted traffic never triggered a retrain");
    assert!(lc_obs::metrics::RETRAIN_SUCCESS.get() >= 1, "no retrain counted as a success");
    assert!(
        registry.active_version() >= 2,
        "retrain did not publish (active v{})",
        registry.active_version()
    );

    handle.shutdown();
    service.shutdown();
}

/// Open-loop traffic against a live server: many mostly-idle
/// connections, fixed-rate injection. With the default admission budget
/// the rate is comfortably sustainable, so every request must be
/// answered — no errors and no sheds — while the connection count
/// exceeds anything the closed-loop tests open.
#[test]
fn open_loop_holds_idle_connections_and_answers_at_a_fixed_rate() {
    let (service, _registry, db, _) = boot(ServeConfig::default());
    let handle = serve(Arc::clone(&service), "127.0.0.1:0").expect("bind");

    let run = open_loop(handle.local_addr(), &db, 64, 256, 4000.0, 16, 23);
    assert_eq!(run.answered, 256, "sustainable rate: every request answered");
    assert_eq!(run.errors, 0, "idle connections must not produce errors");
    assert_eq!(run.shed, 0, "default budget must not shed at this rate");
    assert!(run.latency.quantile(0.99) >= run.latency.quantile(0.5));

    handle.shutdown();
    service.shutdown();
}

/// The `serve --quantized --student-width 32` pipeline over real
/// sockets: an int8 32-wide student distilled from the bootstrap teacher
/// answers 800 requests on 4 connections without an error, and the
/// registry's resident footprint is that of the compact model.
#[test]
fn distilled_int8_student_serves_over_live_sockets() {
    let (db, samples, data) = substrate(400);
    let teacher = train(&db, SAMPLE_SIZE, &data, common::bootstrap_config(6, 32)).estimator;
    let teacher_bytes = teacher.model_bytes();
    let student = (data.clone(), common::bootstrap_config(6, 32));
    let registry =
        Arc::new(ModelRegistry::with_pipeline(teacher, compact_pipeline(Some(student), true)));
    let service = Arc::new(EstimationService::new(
        db.clone(),
        samples,
        Arc::clone(&registry),
        ServeConfig::default(),
    ));
    let handle = serve(Arc::clone(&service), "127.0.0.1:0").expect("bind");

    let run = closed_loop(handle.local_addr(), &db, 4, 800, 3, None);
    assert_eq!(run.answered, 800, "every request must be answered");
    assert_eq!(run.errors, 0, "the compact pipeline must not fail a request");
    let active = registry.current();
    assert!(active.estimator.is_quantized(), "the served pipeline is the int8 student");
    let resident = registry.resident_bytes();
    assert!(resident > 0 && resident < teacher_bytes, "resident {resident} vs f32 {teacher_bytes}");
    // The gauges are process-global: sibling tests' registries set them
    // too, so only liveness is theirs to assert here.
    assert!(lc_obs::metrics::MODEL_RESIDENT_COUNT.get() >= 1, "model.resident_count is live");
    assert!(lc_obs::metrics::MODEL_BYTES.get() > 0, "model.bytes is live");

    handle.shutdown();
    service.shutdown();
}
