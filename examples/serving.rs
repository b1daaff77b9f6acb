//! Serving end-to-end: train → registry → TCP server → concurrent load →
//! hot-swap → report. This is `lc_serve`'s whole architecture
//! (registry → batcher → model → cache) exercised over a real socket:
//!
//! ```text
//! cargo run --release --example serving
//! ```

use std::sync::Arc;
use std::time::Duration;

use learned_cardinalities::lc_serve::{serve, LoadgenConfig};
use learned_cardinalities::prelude::*;

fn main() {
    // 1. Substrate: database snapshot, samples, a bootstrap model.
    let db = lc_imdb::generate(&ImdbConfig::tiny());
    let mut rng = SmallRng::seed_from_u64(11);
    let samples = SampleSet::draw(&db, 64, &mut rng);
    let data = workloads::synthetic(&db, &samples, 400, 2, 23).queries;
    let cfg = TrainConfig { epochs: 4, hidden: 32, ..TrainConfig::default() };
    println!("training bootstrap model v1 ({} queries) ...", data.len());
    let v1 = train(&db, 64, &data, cfg).estimator;
    println!("training replacement model v2 ...");
    let v2 = train(&db, 64, &data, TrainConfig { seed: 99, ..cfg }).estimator;

    // 2. The serving stack: registry → batcher → model → cache.
    let registry = Arc::new(ModelRegistry::new(v1));
    let service = Arc::new(EstimationService::new(
        db,
        samples,
        Arc::clone(&registry),
        ServeConfig::default(),
    ));
    let handle = serve(Arc::clone(&service), "127.0.0.1:0").expect("bind server");
    let addr = handle.local_addr();
    println!("serving on {addr}");

    // 3. Closed-loop load from 4 connections; hot-swap to v2 mid-run.
    let config = LoadgenConfig {
        addr: addr.to_string(),
        connections: 4,
        requests: 400,
        max_joins: 2,
        seed: 5,
        connect_timeout: Duration::from_secs(5),
        ..LoadgenConfig::default()
    };
    let report = std::thread::scope(|s| {
        let loadgen =
            s.spawn(|| learned_cardinalities::lc_serve::loadgen::run(&config).expect("loadgen"));
        std::thread::sleep(Duration::from_millis(30));
        let version = registry.publish(v2);
        println!("hot-swapped to model v{version} while traffic was in flight");
        loadgen.join().expect("loadgen thread")
    });

    // 4. Report.
    println!("\n{report}\n");
    let batches = service.batch_stats();
    let cache = service.cache_stats();
    println!(
        "server side: {} requests in {} forward passes (mean micro-batch {:.2}, largest {})",
        batches.requests,
        batches.batches,
        batches.mean_batch(),
        batches.max_batch
    );
    println!(
        "estimate cache: {} hits / {} misses ({:.1}% hit rate, {} resident)",
        cache.hits,
        cache.misses,
        100.0 * cache.hit_rate(),
        cache.entries
    );
    assert_eq!(report.errors, 0, "a request failed during the run");
    // The shards' flushes are the service's flushes: every cache miss was
    // answered by exactly one forward pass.
    assert_eq!(batches.requests, cache.misses, "server-side batch counters out of step");
    assert!(batches.batches >= 1);
    assert!(report.qps > 0.0);

    handle.shutdown();
    service.shutdown();
    println!("\nclean shutdown — registry versions kept: {:?}", registry.versions());
}
