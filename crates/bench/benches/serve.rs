//! Serving-layer latency: the micro-batched request path and the
//! estimate cache hit/miss split.
//!
//! `micro_batched_64` runs the service's request lane in process
//! (annotate → submit → flush → wait on the bench thread, so scheduling
//! noise stays out of the numbers) with all 64 requests coalesced into
//! one ragged forward pass. `direct_inference_64` is the reference floor:
//! raw annotation + per-query inference with no serving machinery at all.
//!
//! The `tcp_*` entries go through real sockets and the sharded reactor
//! front (`lc_serve::serve`): `tcp_round_trip` is one closed-loop
//! request on one connection — wire encode, readiness loop, incremental
//! decode, shard batcher, response write — and `tcp_burst_64` pipelines
//! one request down each of 64 idle connections and drains the
//! responses, the open-loop burst shape the per-shard batcher coalesces.

use std::net::TcpStream;
use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use lc_bench::BenchFixture;
use lc_core::{train, Estimator, FeatureMode, TrainConfig};
use lc_query::{annotate_query, Query};
use lc_serve::wire::{read_message, write_message, Message, CAPABILITIES, PROTOCOL_VERSION};
use lc_serve::{serve, BatcherConfig, CacheConfig, EstimationService, ModelRegistry, ServeConfig};

const BATCH: usize = 64;

/// A service over the fixture with the given cache.
fn service(
    f: &BenchFixture,
    registry: &Arc<ModelRegistry>,
    cache: CacheConfig,
) -> EstimationService {
    EstimationService::new(
        f.db.clone(),
        f.samples.clone(),
        Arc::clone(registry),
        ServeConfig {
            cache,
            batcher: BatcherConfig { max_batch: BATCH, ..BatcherConfig::default() },
            ..ServeConfig::default()
        },
    )
}

fn bench_serve(c: &mut Criterion) {
    let f = BenchFixture::small();
    let cfg =
        TrainConfig { epochs: 3, hidden: 64, mode: FeatureMode::Bitmaps, ..TrainConfig::default() };
    let trained = train(&f.db, f.samples.sample_size(), f.queries(), cfg);
    let est = trained.estimator;
    let registry = Arc::new(ModelRegistry::new(est.clone()));
    let queries: Vec<Query> = f.queries()[..BATCH].iter().map(|l| l.query.clone()).collect();

    let no_cache = CacheConfig { capacity: 0, ..CacheConfig::default() };
    let batched = service(&f, &registry, no_cache);
    // Cached service for the hit path; warmed with the benched query.
    let cached = service(&f, &registry, CacheConfig::default());
    {
        let pending = cached.submit(&queries[0]);
        cached.flush_now();
        pending.wait().expect("warm-up estimate");
    }
    // Miss path: a capacity-1 cache cycled over several distinct queries
    // guarantees every probe misses while still paying the full miss
    // cost — key construction, shard probe, eviction, and insert.
    let thrashed = service(&f, &registry, CacheConfig { capacity: 1, shards: 1 });

    let mut group = c.benchmark_group("serve");
    group.bench_function("direct_inference_64", |b| {
        b.iter(|| {
            let mut total = 0.0f64;
            for q in &queries {
                let annotated = annotate_query(&f.db, &f.samples, q.clone());
                total += est.estimate(&annotated);
            }
            total
        })
    });
    group.bench_function("micro_batched_64", |b| {
        b.iter(|| {
            let pending: Vec<_> = queries.iter().map(|q| batched.submit(q)).collect();
            batched.flush_now();
            pending.into_iter().map(|p| p.wait().expect("estimate").cardinality).sum::<f64>()
        })
    });
    group.bench_function("cache_hit", |b| {
        b.iter(|| cached.estimate(&queries[0]).expect("cache hit").cardinality)
    });
    group.bench_function("cache_miss", |b| {
        let mut i = 0;
        b.iter(|| {
            let pending = thrashed.submit(&queries[i % 8]);
            i += 1;
            thrashed.flush_now();
            pending.wait().expect("estimate").cardinality
        })
    });

    // Full-stack sockets: the same no-cache request path, but through
    // the event-driven shard front instead of direct service calls.
    let tcp_service = Arc::new(service(&f, &registry, no_cache));
    let handle = serve(Arc::clone(&tcp_service), "127.0.0.1:0").expect("bind bench server");
    let addr = handle.local_addr();
    let connect = || {
        let stream = TcpStream::connect(addr).expect("connect bench server");
        stream.set_nodelay(true).expect("nodelay");
        write_message(
            &mut &stream,
            &Message::Hello { id: 0, version: PROTOCOL_VERSION, capabilities: CAPABILITIES },
        )
        .expect("hello");
        match read_message(&mut &stream, PROTOCOL_VERSION).expect("hello ack") {
            Some(Message::HelloAck { .. }) => stream,
            other => panic!("expected HelloAck, got {other:?}"),
        }
    };
    let mut next_id = 0u64;
    group.bench_function("tcp_round_trip", |b| {
        let stream = connect();
        b.iter(|| {
            next_id += 1;
            let query = queries[next_id as usize % BATCH].clone();
            write_message(&mut &stream, &Message::EstimateRequest { id: next_id, query })
                .expect("send");
            match read_message(&mut &stream, PROTOCOL_VERSION).expect("recv") {
                Some(Message::EstimateResponse { estimate, .. }) => estimate,
                other => panic!("expected EstimateResponse, got {other:?}"),
            }
        })
    });
    group.bench_function("tcp_burst_64", |b| {
        let conns: Vec<TcpStream> = (0..BATCH).map(|_| connect()).collect();
        b.iter(|| {
            let mut total = 0.0f64;
            for (i, stream) in conns.iter().enumerate() {
                next_id += 1;
                let query = queries[i].clone();
                write_message(&mut &*stream, &Message::EstimateRequest { id: next_id, query })
                    .expect("send");
            }
            for stream in &conns {
                match read_message(&mut &*stream, PROTOCOL_VERSION).expect("recv") {
                    Some(Message::EstimateResponse { estimate, .. }) => total += estimate,
                    other => panic!("expected EstimateResponse, got {other:?}"),
                }
            }
            total
        })
    });
    group.finish();
    handle.shutdown();
    tcp_service.shutdown();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(40)
        .measurement_time(std::time::Duration::from_secs(6))
        .warm_up_time(std::time::Duration::from_secs(1));
    targets = bench_serve
}
criterion_main!(benches);
