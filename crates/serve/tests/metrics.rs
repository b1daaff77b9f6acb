//! Live-server metrics consistency: drive a real TCP server with a known
//! traffic mix, fetch a `MetricsSnapshot` over the wire, and check the
//! counters add up.
//!
//! ONE `#[test]` only: the `lc_obs` catalog is process-global, so a
//! second test in this binary would race its counter assertions.

use std::io::{BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::sync::Arc;

use lc_core::{train, TrainConfig};
use lc_engine::SampleSet;
use lc_imdb::{generate, ImdbConfig};
use lc_obs::{metric_name, MetricKind, CATALOG};
use lc_query::workloads;
use lc_serve::wire::{read_message, write_message, CAPABILITIES, CAP_METRICS};
use lc_serve::{serve, EstimationService, Message, ModelRegistry, ServeConfig};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Look up a snapshot scalar by catalog name.
fn scalar(scalars: &[lc_serve::ScalarMetric], name: &str) -> u64 {
    let id = CATALOG.iter().position(|def| def.name == name).expect("metric in catalog") as u16;
    scalars.iter().find(|s| s.id == id).map(|s| s.value).unwrap_or_else(|| {
        panic!("scalar {name} (id {id}) missing from snapshot");
    })
}

/// Look up a snapshot histogram by catalog name.
fn histogram<'a>(
    histograms: &'a [lc_serve::HistogramMetric],
    name: &str,
) -> &'a lc_serve::HistogramMetric {
    let id = CATALOG.iter().position(|def| def.name == name).expect("metric in catalog") as u16;
    histograms
        .iter()
        .find(|h| h.id == id)
        .unwrap_or_else(|| panic!("histogram {name} (id {id}) missing from snapshot"))
}

#[test]
fn snapshot_counters_are_consistent_over_a_live_server() {
    const DISTINCT: usize = 24;
    const GARBAGE_CONNECTIONS: u64 = 3;
    let version = lc_serve::wire::PROTOCOL_VERSION;

    let db = generate(&ImdbConfig::tiny());
    let mut rng = SmallRng::seed_from_u64(13);
    let samples = SampleSet::draw(&db, 24, &mut rng);
    let data = workloads::synthetic(&db, &samples, 120, 2, 91).queries;
    let cfg = TrainConfig { epochs: 2, hidden: 16, ..TrainConfig::default() };
    let est = train(&db, 24, &data, cfg).estimator;
    let registry = Arc::new(ModelRegistry::new(est));
    let service = Arc::new(EstimationService::new(db, samples, registry, ServeConfig::default()));
    let handle = serve(Arc::clone(&service), "127.0.0.1:0").expect("bind");
    let addr = handle.local_addr();

    // One negotiated v2 connection carries all the well-formed traffic.
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = BufWriter::new(stream);
    write_message(&mut writer, &Message::Hello { id: 0, version, capabilities: CAPABILITIES })
        .unwrap();
    writer.flush().unwrap();
    match read_message(&mut reader, version).unwrap() {
        Some(Message::HelloAck { capabilities, .. }) => {
            assert_ne!(capabilities & CAP_METRICS, 0, "server must grant CAP_METRICS");
        }
        other => panic!("expected HelloAck, got {other:?}"),
    }

    // Each distinct query twice, closed-loop: first probe misses the
    // cache, the repeat hits it.
    for (i, labeled) in data.iter().take(DISTINCT).enumerate() {
        for pass in 0..2u64 {
            let id = (i as u64) * 2 + pass;
            write_message(
                &mut writer,
                &Message::EstimateRequest { id, query: labeled.query.clone() },
            )
            .unwrap();
            writer.flush().unwrap();
            // This connection negotiated CAP_TIER, so estimates come
            // back as tier-attributed detail frames.
            match read_message(&mut reader, version).unwrap() {
                Some(Message::EstimateDetail { id: rid, estimate, cache_hit, tier, .. }) => {
                    assert_eq!(rid, id);
                    assert!(estimate >= 1.0);
                    assert_eq!(cache_hit, pass == 1, "query {i} pass {pass}");
                    assert_eq!(tier, 0, "a non-tiered pipeline answers from the primary");
                }
                other => panic!("unexpected reply: {other:?}"),
            }
        }
    }

    // Undecodable frames on their own connections: each is answered
    // with an Error frame and counted as both a wire error and an error.
    for _ in 0..GARBAGE_CONNECTIONS {
        let garbage = TcpStream::connect(addr).expect("connect");
        let mut greader = BufReader::new(garbage.try_clone().unwrap());
        let mut gwriter = BufWriter::new(garbage);
        gwriter.write_all(&16u32.to_le_bytes()).unwrap();
        gwriter.write_all(&[0u8; 16]).unwrap();
        gwriter.flush().unwrap();
        match read_message(&mut greader, version).unwrap() {
            Some(Message::Error { .. }) => {}
            other => panic!("expected Error frame, got {other:?}"),
        }
        assert_eq!(read_message(&mut greader, version).unwrap(), None, "closed after error");
    }

    // Fetch the snapshot over the same negotiated connection.
    write_message(&mut writer, &Message::MetricsRequest { id: 999 }).unwrap();
    writer.flush().unwrap();
    let (uptime_ns, scalars, histograms) = match read_message(&mut reader, version).unwrap() {
        Some(Message::MetricsSnapshot { id: 999, uptime_ns, scalars, histograms }) => {
            (uptime_ns, scalars, histograms)
        }
        other => panic!("expected MetricsSnapshot, got {other:?}"),
    };

    // Structural: the snapshot covers the whole catalog, ids resolve.
    let n_scalars = CATALOG.iter().filter(|def| def.kind() != MetricKind::Histogram).count();
    let n_histograms = CATALOG.len() - n_scalars;
    assert_eq!(scalars.len(), n_scalars, "one entry per counter/gauge");
    assert_eq!(histograms.len(), n_histograms, "one entry per histogram");
    for s in &scalars {
        assert!(metric_name(s.id).is_some(), "unknown scalar id {}", s.id);
    }
    for h in &histograms {
        assert!(metric_name(h.id).is_some(), "unknown histogram id {}", h.id);
    }
    assert!(uptime_ns > 0, "uptime must be measured");

    // Counter consistency over the exact traffic mix we produced.
    let requests = scalar(&scalars, "serve.requests");
    let hits = scalar(&scalars, "cache.hits");
    let misses = scalar(&scalars, "cache.misses");
    assert_eq!(requests, (DISTINCT as u64) * 2, "every estimate request counted");
    assert_eq!(requests, hits + misses, "every estimate request is a cache hit or miss");
    assert_eq!(hits, DISTINCT as u64, "every repeat hit the cache");
    assert_eq!(scalar(&scalars, "serve.errors"), GARBAGE_CONNECTIONS);
    assert_eq!(scalar(&scalars, "serve.wire_decode_errors"), GARBAGE_CONNECTIONS);
    assert_eq!(scalar(&scalars, "serve.connections"), 1 + GARBAGE_CONNECTIONS);
    assert_eq!(scalar(&scalars, "serve.metrics_requests"), 1);
    assert_eq!(scalar(&scalars, "registry.active_version"), 1);
    assert_eq!(scalar(&scalars, "drift.trips"), 0);
    // Tier hit counters are recorded per inference (cache hits replay
    // the stored attribution without re-counting); a non-tiered
    // pipeline answers everything from the primary.
    assert_eq!(scalar(&scalars, "tier.primary.hits"), misses);
    assert_eq!(scalar(&scalars, "tier.gbm.hits"), 0);
    assert_eq!(scalar(&scalars, "tier.fallback.hits"), 0);

    // Histogram consistency: every estimate was spanned (span clocks
    // are gated on `LC_OBS`, so skip when this run disabled them — the
    // test and the in-process server share that env), and the
    // micro-batcher forwarded exactly the cache misses — the batch-size
    // histogram's value sum counts forwarded queries.
    if lc_obs::enabled() {
        let estimate_spans = histogram(&histograms, "serve.estimate_ns");
        let spanned: u64 = estimate_spans.buckets.iter().sum();
        assert_eq!(spanned, requests, "every estimate request was timed");
    }
    let batch_sizes = histogram(&histograms, "batcher.batch_size");
    assert_eq!(batch_sizes.sum, misses, "forwarded queries == cache misses");
    // The service's own counters agree: a shard's flush is the service's.
    let batches = service.batch_stats();
    assert_eq!(batches.requests, misses, "batch_stats() must count the shards' flushes");
    assert_eq!(batches.batches, batch_sizes.buckets.iter().sum::<u64>());

    handle.shutdown();
    service.shutdown();
}
