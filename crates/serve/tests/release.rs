//! Release-speed contracts over real sockets, each at the scale its
//! bound was set for: admission control under an open-loop overload and
//! the self-healing arc under a workload shift. Ignored by default — in a debug build they take
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

use common::{bootstrap_config, closed_loop, open_loop, substrate, Shift, SAMPLE_SIZE};
use lc_core::train;
use lc_obs::metrics;
use lc_serve::{
    serve, CacheConfig, DriftConfig, EstimationService, FrontConfig, ModelRegistry, ServeConfig,
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

/// The self-healing arc at release speed on one shard, on a server as
/// `serve --queries 800 --epochs 10 --shards 1 --drift-window 32
/// --drift-min-samples 8 --drift-threshold 3.0 --drift-min-corpus 24`
/// boots it: 8000 requests with feedback on 4 connections, shifting to
/// 3-join queries after a quarter of each connection's traffic. No
/// errors, at least one retrain, a published version past 1, no version
/// regression, a tail q-error below the spike, and a retrain counted as
/// a success. The drift thresholds are lowered from the defaults
/// because the shifted 3-join traffic spreads across C(5,3) = 10 join
/// templates: each template's window must reach `min_samples` before it
/// can trip.
#[test]
#[ignore = "release-speed contract; run with --release -- --ignored (see module docs)"]
fn shifted_traffic_heals_on_one_shard() {
    let _turn = serial();
    let (db, samples, data) = substrate(800);
    let model = train(&db, SAMPLE_SIZE, &data, bootstrap_config(10, 32)).estimator;
    let registry = Arc::new(ModelRegistry::new(model));
    let config = ServeConfig {
        drift: DriftConfig {
            window: 32,
            min_samples: 8,
            qerror_threshold: 3.0,
            min_corpus: 24,
            ..DriftConfig::default()
        },
        front: FrontConfig { shards: 1, ..FrontConfig::default() },
        ..ServeConfig::default()
    };
    let service =
        Arc::new(EstimationService::new(db.clone(), samples, Arc::clone(&registry), config));

    let successes = metrics::RETRAIN_SUCCESS.get();
    let handle = serve(Arc::clone(&service), "127.0.0.1:0").expect("bind");
    let shift = Shift { at: 0.25, joins: 3 };
    let run = closed_loop(handle.local_addr(), &db, 4, 8_000, 9, Some(shift));
    let (retrains, version) = (service.drift().retrains(), registry.active_version());
    handle.shutdown();
    let (spike, tail) = (run.qerror(1), run.qerror(2));
    eprintln!(
        "shift: q-error {:.2} -> spike {spike:.2} -> tail {tail:.2}, {retrains} retrains, \
         v{version}",
        run.qerror(0)
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
    service.shutdown();
}
