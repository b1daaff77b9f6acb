//! The memory claim behind the sharded front: an idle connection costs
//! a slot entry and two small buffers, not a thread stack. This test
//! opens ~10k idle connections against a live server in-process and
//! asserts the resident-set growth stays under 100 KB per thousand
//! connections — roughly 100× below the ~8 MB-stack-per-connection
//! budget of the old thread-per-connection front.
//!
//! Ignored by default: it opens tens of thousands of file descriptors
//! and takes seconds. The CI `serve-smoke` job (and anyone debugging
//! connection memory) runs it explicitly:
//!
//! ```text
//! cargo test -p lc-serve --release --test idle_mass -- --ignored
//! ```

use std::io::{BufReader, BufWriter};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use lc_core::{train, FeatureMode, TrainConfig};
use lc_engine::SampleSet;
use lc_imdb::ImdbConfig;
use lc_query::workloads;
use lc_serve::wire::{read_message, write_message, Message, PROTOCOL_VERSION};
use lc_serve::{serve, EstimationService, ModelRegistry, ServeConfig};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Resident set size of this process in KB, from `/proc/self/statm`
/// (field 2 is resident pages).
fn rss_kb() -> u64 {
    let statm = std::fs::read_to_string("/proc/self/statm").expect("read /proc/self/statm");
    let pages: u64 =
        statm.split_whitespace().nth(1).expect("statm resident field").parse().expect("parse rss");
    let page_kb = 4; // x86_64/aarch64 Linux base pages
    pages * page_kb
}

/// One request/response round trip, used to force the server to fully
/// process a connection (accept, register, allocate its slot).
fn ping(stream: &TcpStream, id: u64) {
    write_message(&mut BufWriter::new(stream), &Message::Ping { id }).expect("write ping");
    match read_message(&mut BufReader::new(stream), PROTOCOL_VERSION).expect("read pong") {
        Some(Message::Pong { id: rid }) if rid == id => {}
        other => panic!("expected Pong, got {other:?}"),
    }
}

#[test]
#[ignore = "opens ~20k file descriptors; run explicitly (see module docs)"]
fn ten_thousand_idle_connections_fit_the_rss_budget() {
    // Both endpoints of every connection live in this process, so each
    // costs two descriptors plus slack for the test harness itself.
    let limit = lc_poll::raise_nofile_limit(65_536);
    let target = (limit.saturating_sub(512) / 2).min(10_000) as usize;
    assert!(target >= 2_000, "fd limit {limit} too low for a meaningful measurement");

    let db = lc_imdb::generate(&ImdbConfig::tiny());
    let mut rng = SmallRng::seed_from_u64(5);
    let samples = SampleSet::draw(&db, 64, &mut rng);
    let data = workloads::synthetic(&db, &samples, 60, 2, 3).queries;
    let cfg =
        TrainConfig { epochs: 1, hidden: 8, mode: FeatureMode::Bitmaps, ..TrainConfig::default() };
    let estimator = train(&db, 64, &data, cfg).estimator;
    let registry = Arc::new(ModelRegistry::new(estimator));
    let service = Arc::new(EstimationService::new(db, samples, registry, ServeConfig::default()));
    let handle = serve(Arc::clone(&service), "127.0.0.1:0").expect("bind");
    let addr = handle.local_addr();

    // Warm up allocator arenas and the server's slot table reuse paths
    // before taking the baseline, so the measurement isolates per-
    // connection cost instead of one-time laziness.
    {
        let warmup: Vec<TcpStream> =
            (0..64).map(|_| TcpStream::connect(addr).expect("warmup connect")).collect();
        for (i, stream) in warmup.iter().enumerate() {
            ping(stream, i as u64);
        }
    }
    std::thread::sleep(Duration::from_millis(100));
    let baseline_kb = rss_kb();

    let mut idle = Vec::with_capacity(target);
    for _ in 0..target {
        idle.push(TcpStream::connect(addr).expect("idle connect"));
    }
    // One round trip per connection proves every one of them was
    // accepted, registered with the poller, and given a slot — an
    // unaccepted backlog connection would cost the server nothing and
    // fake the result.
    for (i, stream) in idle.iter().enumerate() {
        ping(stream, i as u64);
    }
    let grown_kb = rss_kb().saturating_sub(baseline_kb);

    // < 100 KB per thousand connections, i.e. ~100 bytes per idle
    // connection across both endpoints — versus ~8 MB of stack each
    // under the old thread-per-connection front.
    let budget_kb = 100 * (target as u64).div_ceil(1_000);
    assert!(
        grown_kb < budget_kb,
        "{target} idle connections grew RSS by {grown_kb} KB (budget {budget_kb} KB)"
    );

    // The idle mass must not have degraded the serving path: a fresh
    // request still round-trips.
    let probe = TcpStream::connect(addr).expect("probe connect");
    ping(&probe, 999_999);

    drop(idle);
    handle.shutdown();
    service.shutdown();
}
