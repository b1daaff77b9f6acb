//! Serving end-to-end: train → registry → TCP server → concurrent
//! clients → hot-swap → report. This is `lc_serve`'s whole architecture
//! (registry → batcher → model → cache) exercised over a real socket,
//! with clients that speak the wire protocol directly:
//!
//! ```text
//! cargo run --release --example serving
//! ```

use std::io::{BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use learned_cardinalities::lc_query::{GeneratorConfig, QueryGenerator};
use learned_cardinalities::lc_serve::wire::{read_message, write_message, PROTOCOL_VERSION};
use learned_cardinalities::lc_serve::{serve, Message};
use learned_cardinalities::prelude::*;

const CONNECTIONS: u64 = 4;
const REQUESTS_PER_CONNECTION: u64 = 100;

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
        db.clone(),
        samples,
        Arc::clone(&registry),
        ServeConfig::default(),
    ));
    let handle = serve(Arc::clone(&service), "127.0.0.1:0").expect("bind server");
    let addr = handle.local_addr();
    println!("serving on {addr}");

    // 3. Four closed-loop clients, each on its own connection: send a
    //    random query (the paper's §3.3 generator), wait for the answer,
    //    repeat. Hot-swap to v2 mid-run.
    let start = Instant::now();
    let answered: u64 = std::thread::scope(|s| {
        let clients: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let db = &db;
                s.spawn(move || {
                    let config = GeneratorConfig { max_joins: 2, seed: 5 + c };
                    let mut generator = QueryGenerator::new(db, config);
                    let stream = TcpStream::connect(addr).expect("connect");
                    stream.set_nodelay(true).unwrap();
                    let mut reader = BufReader::new(stream.try_clone().unwrap());
                    let mut writer = BufWriter::new(stream);
                    for id in 0..REQUESTS_PER_CONNECTION {
                        let query = generator.generate();
                        write_message(&mut writer, &Message::EstimateRequest { id, query })
                            .unwrap();
                        writer.flush().unwrap();
                        match read_message(&mut reader, PROTOCOL_VERSION).unwrap() {
                            Some(Message::EstimateResponse { id: rid, estimate, .. })
                                if rid == id && estimate >= 1.0 => {}
                            other => panic!("request {id} failed: {other:?}"),
                        }
                    }
                    REQUESTS_PER_CONNECTION
                })
            })
            .collect();
        std::thread::sleep(Duration::from_millis(30));
        let version = registry.publish(v2);
        println!("hot-swapped to model v{version} while traffic was in flight");
        clients.into_iter().map(|c| c.join().expect("client thread")).sum()
    });
    let seconds = start.elapsed().as_secs_f64();

    // 4. Report.
    let qps = answered as f64 / seconds;
    println!("\n{answered} requests answered in {seconds:.2}s ({qps:.0} QPS), 0 errors\n");
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
    assert_eq!(answered, CONNECTIONS * REQUESTS_PER_CONNECTION);
    // The shards' flushes are the service's flushes: every cache miss was
    // answered by exactly one forward pass.
    assert_eq!(batches.requests, cache.misses, "server-side batch counters out of step");
    assert!(batches.batches >= 1);
    assert!(qps > 0.0);

    handle.shutdown();
    service.shutdown();
    println!("\nclean shutdown — registry versions kept: {:?}", registry.versions());
}
