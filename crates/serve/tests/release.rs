//! Release-speed contracts over real sockets, each at the scale its
//! bound was set for: admission control under an open-loop overload,
//! the self-healing arc under a workload shift, and tier routing under
//! the same shift. Ignored by default — in a debug build they take
//! minutes and a latency bound means nothing — and run as
//!
//! ```text
//! cargo test --release -p lc-serve -- --ignored
//! ```
//!
//! They take turns ([`serial`]): each reads process-global counters or
//! its own tail latency, which a concurrent sibling would disturb.

mod common;

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use common::{bootstrap_config, closed_loop, open_loop, substrate, Run, Shift, SAMPLE_SIZE};
use lc_core::train;
use lc_engine::Database;
use lc_obs::metrics;
use lc_serve::{
    serve, tiered_pipeline, CacheConfig, DriftConfig, EstimationService, FrontConfig,
    ModelRegistry, ServeConfig,
};

fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// `serve --queries 200 --epochs 2 --hidden 16 --inflight-budget 8
/// --cache-capacity 0` under an unthrottled open-loop burst from 512
/// connections: far past the admission capacity. The contract under
/// overload: the surplus comes back as `Busy` frames, nothing errors or
/// is dropped, and the tail stays bounded because excess never queues —
/// 100 ms is generous for a shared runner but far below the
/// unbounded-queueing failure mode.
#[test]
#[ignore = "release-speed contract; run with --release -- --ignored (see module docs)"]
fn open_loop_overload_sheds_without_errors_and_bounds_the_tail() {
    const REQUESTS: usize = 20_000;
    let _turn = serial();
    // Both ends of every connection live in this process.
    lc_poll::raise_nofile_limit(4_096);
    let (db, samples, data) = substrate(200);
    let estimator = train(&db, SAMPLE_SIZE, &data, bootstrap_config(2, 16)).estimator;
    let config = ServeConfig {
        cache: CacheConfig { capacity: 0, ..CacheConfig::default() },
        front: FrontConfig { inflight_budget: 8, ..FrontConfig::default() },
        ..ServeConfig::default()
    };
    let registry = Arc::new(ModelRegistry::new(estimator));
    let service = Arc::new(EstimationService::new(db.clone(), samples, registry, config));
    let handle = serve(Arc::clone(&service), "127.0.0.1:0").expect("bind");

    let run = open_loop(handle.local_addr(), &db, 512, REQUESTS, 0.0, 128, 42);
    let p99_us = run.latency.quantile(0.99) / 1_000;
    eprintln!("overload: answered={} shed={} p99 <= {p99_us} us", run.answered, run.shed);
    assert_eq!(run.errors, 0, "hard errors under overload");
    assert!(run.shed > 0, "overload never shed");
    assert!(run.answered > 0, "no request survived admission");
    assert_eq!(run.answered + run.shed, REQUESTS as u64, "responses lost");
    assert!(p99_us < 100_000, "tail latency unbounded under overload: p99 <= {p99_us} us");

    handle.shutdown();
    service.shutdown();
}

/// A server as `serve --queries 800 --epochs 10 --drift-window 32
/// --drift-min-samples 8 --drift-threshold 3.0 --drift-min-corpus 24`
/// boots it (with `--tiered` when `tiered`), on `shards` reactor shards.
/// The drift thresholds are lowered from the defaults because the
/// shifted 3-join traffic spreads across C(5,3) = 10 join templates:
/// each template's window must reach `min_samples` before it can trip.
fn shift_server(
    tiered: bool,
    shards: usize,
) -> (Arc<EstimationService>, Arc<ModelRegistry>, Database) {
    let (db, samples, data) = substrate(800);
    let model = train(&db, SAMPLE_SIZE, &data, bootstrap_config(10, 32)).estimator;
    let registry = if tiered {
        ModelRegistry::with_pipeline(model, tiered_pipeline(&db, &samples))
    } else {
        ModelRegistry::new(model)
    };
    let config = ServeConfig {
        drift: DriftConfig {
            window: 32,
            min_samples: 8,
            qerror_threshold: 3.0,
            min_corpus: 24,
            ..DriftConfig::default()
        },
        front: FrontConfig { shards, ..FrontConfig::default() },
        ..ServeConfig::default()
    };
    let registry = Arc::new(registry);
    let service =
        Arc::new(EstimationService::new(db.clone(), samples, Arc::clone(&registry), config));
    (service, registry, db)
}

/// 8000 requests with feedback on 4 connections, shifting to 3-join
/// queries after a quarter of each connection's traffic; then the
/// contract every shifted run keeps: no errors, at least one retrain, a
/// published version past 1, no version regression, a tail q-error
/// below the spike, and a retrain counted as a success.
fn shifted_run_heals(
    service: &Arc<EstimationService>,
    registry: &ModelRegistry,
    db: &Database,
) -> Run {
    let successes = metrics::RETRAIN_SUCCESS.get();
    let handle = serve(Arc::clone(service), "127.0.0.1:0").expect("bind");
    let shift = Shift { at: 0.25, joins: 3 };
    let run = closed_loop(handle.local_addr(), db, 4, 8_000, 9, Some(shift));
    let (retrains, version) = (service.drift().retrains(), registry.active_version());
    handle.shutdown();
    let (spike, tail) = (run.qerror(1), run.qerror(2));
    eprintln!(
        "shift: q-error {:.2} -> spike {spike:.2} -> tail {tail:.2}, {retrains} retrains, \
         v{version}, tiers {:?}",
        run.qerror(0),
        run.tier_hits
    );
    assert_eq!(run.errors, 0, "requests or feedback failed");
    assert_eq!(run.answered, 8_000, "every request must be answered");
    assert!(retrains >= 1, "drift never triggered a retrain");
    assert!(version > 1, "model version stayed at v{version}");
    assert_eq!(run.regressions, 0, "model version went backwards");
    assert!(tail < spike, "q-error never recovered (spike {spike:.2} -> tail {tail:.2})");
    // The success counter is bumped just after the publish a client can
    // already see: give it a few polls.
    let deadline = Instant::now() + Duration::from_secs(10);
    while metrics::RETRAIN_SUCCESS.get() == successes && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(100));
    }
    assert!(metrics::RETRAIN_SUCCESS.get() > successes, "no retrain counted as a success");
    run
}

/// The self-healing arc at release speed on one shard: the shift's
/// q-error spike is caught, retrained away and the tail recovers.
#[test]
#[ignore = "release-speed contract; run with --release -- --ignored (see module docs)"]
fn shifted_traffic_heals_on_one_shard() {
    let _turn = serial();
    let (service, registry, db) = shift_server(false, 1);
    shifted_run_heals(&service, &registry, &db);
    service.shutdown();
}

/// The same shifted traffic against the plain MSCN pipeline (the
/// control) and the `--tiered` one (the same MSCN model, with IBJS
/// answering the queries it saturates on). Both heal. Under the
/// 3-join shift the tiered run must actually route — fallback hits
/// above all, since the shift saturates the trained label range — while
/// the control never leaves the primary, and the server's tier counters
/// agree with the attribution the clients saw. Routing must not wreck
/// the tail: within 2× of the control's, a catastrophic-regression catch
/// rather than a precision gate, because the tail mean swings ~2× run to
/// run with when the retrain lands on both legs.
#[test]
#[ignore = "release-speed contract; run with --release -- --ignored (see module docs)"]
fn tiered_pipeline_reroutes_the_shift_and_keeps_the_tail() {
    let _turn = serial();
    // Slot 1 is the retired tier id: no server records it, so both legs
    // must read 0 there.
    let server_counts = || {
        let hits =
            [&metrics::TIER_PRIMARY_HITS, &metrics::TIER_GBM_HITS, &metrics::TIER_FALLBACK_HITS];
        (hits.map(|c| c.get()), metrics::TIER_PRIMARY_QERROR_X100.snapshot().count())
    };
    let mut legs = Vec::new();
    for tiered in [false, true] {
        let (hits_before, qerrors_before) = server_counts();
        let (service, registry, db) = shift_server(tiered, 0);
        let run = shifted_run_heals(&service, &registry, &db);
        service.shutdown();
        let (hits, qerrors) = server_counts();
        let server_hits: Vec<u64> = (0..3).map(|t| hits[t] - hits_before[t]).collect();
        legs.push((run, server_hits, qerrors - qerrors_before));
    }
    let (tiered, tiered_server, tiered_qerrors) = legs.pop().unwrap();
    let (plain, plain_server, _) = legs.pop().unwrap();

    assert_eq!(plain.tier_hits[1..], [0, 0], "the control answers from the primary");
    assert!(tiered.tier_hits[1] + tiered.tier_hits[2] > 0, "tiered server never left the primary");
    assert!(tiered.tier_hits[2] > 0, "no fallback-tier hits under the shift");
    assert!(tiered.tier_hits[0] > 0, "the primary never answered");
    assert!(
        tiered.qerror(2) <= plain.qerror(2) * 2.0,
        "tiered tail {:.2} worse than MSCN-only {:.2}",
        tiered.qerror(2),
        plain.qerror(2)
    );
    assert_eq!(plain_server[1..], [0, 0], "control server counted non-primary hits");
    assert!(tiered_server[0] > 0, "tiered server counted no primary hits");
    assert!(tiered_server[1] + tiered_server[2] > 0, "tiered server counted no rerouted hits");
    assert!(tiered_qerrors > 0, "tier.primary.qerror_x100 saw no feedback");
    assert_eq!(tiered.tier_hits[1], 0, "a tiered client saw the retired tier id");
    assert_eq!(tiered_server[1], 0, "tiered server counted hits on the retired tier id");
}
