//! `lc-top` — live terminal view of a running `serve` process.
//!
//! Polls the v2 wire protocol's `MetricsRequest`/`MetricsSnapshot` pair
//! (negotiated via the `CAP_METRICS` capability bit) plus the drift
//! status, and renders a refreshing dashboard: QPS, per-stage latency
//! quantiles over the last interval, cache hit rate, micro-batcher
//! occupancy, and the drift → retrain → publish loop's counters.
//!
//! ```text
//! cargo run --release -p lc-serve --bin serve -- --addr 127.0.0.1:7878 &
//! cargo run --release -p lc-serve --bin lc-top -- --addr 127.0.0.1:7878
//! ```
//!
//! Flags (all optional):
//!
//! * `--addr HOST:PORT`   server address             (default 127.0.0.1:7878)
//! * `--interval-ms N`    refresh interval           (default 1000)
//! * `--frames N`         stop after N frames, 0 = until killed (default 0)
//! * `--once`             print one snapshot and exit (no screen clearing)
//! * `--json`             with `--once`: dump the snapshot as one JSON
//!   object keyed by catalog metric name
//!
//! Latency quantiles are log₂-bucket upper bounds (exact to within 2×),
//! computed over the *last interval* in live mode via snapshot
//! subtraction, and over the server's whole uptime in `--once` mode.

use std::collections::HashMap;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::process::exit;
use std::time::{Duration, Instant};

use lc_obs::{HistogramSnapshot, MetricKind, BUCKETS, CATALOG};
use lc_serve::flags::get;
use lc_serve::wire::{
    read_message, write_message, Message, CAPABILITIES, CAP_METRICS, PROTOCOL_VERSION,
};

const FLAGS: &[&str] = &["addr", "interval-ms", "frames"];
const SWITCHES: &[&str] = &["once", "json"];

/// The latency stages shown as table rows, in display order.
const STAGES: &[(&str, &str)] = &[
    ("handle", "serve.handle_ns"),
    ("estimate", "serve.estimate_ns"),
    ("queue-wait", "batcher.queue_wait_ns"),
    ("forward", "batcher.forward_ns"),
    ("feedback", "serve.feedback_ns"),
    ("retrain", "retrain.duration_ns"),
];

fn main() {
    if let Err(message) = run() {
        eprintln!("lc-top: {message}");
        exit(1);
    }
}

/// Wire id of the catalog metric named `name` (ids are catalog indexes,
/// shared between this binary and the server because both link lc_obs).
fn id_of(name: &str) -> u16 {
    CATALOG.iter().position(|def| def.name == name).unwrap_or_else(|| {
        unreachable!("metric {name} missing from the lc_obs catalog");
    }) as u16
}

/// One polled view of the server: the full metrics snapshot keyed by
/// wire id, plus the drift monitor's live state.
struct Sample {
    uptime_ns: u64,
    scalars: HashMap<u16, u64>,
    histograms: HashMap<u16, HistogramSnapshot>,
    retrain_in_flight: bool,
    tripped_templates: usize,
}

impl Sample {
    fn scalar(&self, name: &str) -> u64 {
        self.scalars.get(&id_of(name)).copied().unwrap_or(0)
    }

    fn histogram(&self, name: &str) -> HistogramSnapshot {
        self.histograms.get(&id_of(name)).copied().unwrap_or_else(HistogramSnapshot::empty)
    }
}

/// Connect with retries until `timeout` elapses — the server may still be
/// training its bootstrap model when `lc-top` starts.
fn connect_with_retry(addr: &str, timeout: Duration) -> io::Result<TcpStream> {
    let deadline = Instant::now() + timeout;
    loop {
        match TcpStream::connect(addr) {
            Ok(stream) => return Ok(stream),
            Err(e) if Instant::now() >= deadline => return Err(e),
            Err(_) => std::thread::sleep(Duration::from_millis(50)),
        }
    }
}

/// A negotiated v2 connection that can poll metrics + drift status.
struct Poller {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    next_id: u64,
}

impl Poller {
    fn connect(addr: &str) -> io::Result<Poller> {
        let stream = connect_with_retry(addr, Duration::from_secs(5))?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        let writer = BufWriter::new(stream);
        let mut poller = Poller { reader, writer, next_id: 0 };
        let id = poller.fresh_id();
        write_message(
            &mut poller.writer,
            &Message::Hello { id, version: PROTOCOL_VERSION, capabilities: CAPABILITIES },
        )?;
        poller.writer.flush()?;
        match read_message(&mut poller.reader, PROTOCOL_VERSION)? {
            Some(Message::HelloAck { capabilities, .. }) if capabilities & CAP_METRICS != 0 => {
                Ok(poller)
            }
            Some(Message::HelloAck { .. }) => Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "server did not grant the metrics capability (older build?)",
            )),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("hello negotiation failed: {other:?}"),
            )),
        }
    }

    fn fresh_id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    fn poll(&mut self) -> io::Result<Sample> {
        let metrics_id = self.fresh_id();
        let drift_id = self.fresh_id();
        write_message(&mut self.writer, &Message::MetricsRequest { id: metrics_id })?;
        write_message(&mut self.writer, &Message::DriftStatusRequest { id: drift_id })?;
        self.writer.flush()?;
        let (uptime_ns, scalars, histograms) =
            match read_message(&mut self.reader, PROTOCOL_VERSION)? {
                Some(Message::MetricsSnapshot { id, uptime_ns, scalars, histograms })
                    if id == metrics_id =>
                {
                    let scalars = scalars.iter().map(|s| (s.id, s.value)).collect();
                    let histograms = histograms
                        .iter()
                        .map(|h| {
                            (h.id, HistogramSnapshot { buckets: h.buckets, sum: h.sum, max: h.max })
                        })
                        .collect();
                    (uptime_ns, scalars, histograms)
                }
                other => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("expected MetricsSnapshot, got {other:?}"),
                    ))
                }
            };
        let (retrain_in_flight, tripped_templates) =
            match read_message(&mut self.reader, PROTOCOL_VERSION)? {
                Some(Message::DriftStatus { id, retrain_in_flight, templates })
                    if id == drift_id =>
                {
                    (retrain_in_flight, templates.iter().filter(|t| t.tripped).count())
                }
                other => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("expected DriftStatus, got {other:?}"),
                    ))
                }
            };
        Ok(Sample { uptime_ns, scalars, histograms, retrain_in_flight, tripped_templates })
    }
}

fn percent(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        100.0 * part as f64 / whole as f64
    }
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1_000.0
}

/// Render one dashboard frame. `prev` (the previous sample) turns
/// cumulative counters and histograms into per-interval rates; without
/// it everything is since-server-start.
fn render(
    out: &mut impl Write,
    addr: &str,
    sample: &Sample,
    prev: Option<&Sample>,
) -> io::Result<()> {
    let uptime_s = sample.uptime_ns as f64 / 1e9;
    let interval_s = prev
        .map(|p| (sample.uptime_ns.saturating_sub(p.uptime_ns)) as f64 / 1e9)
        .filter(|dt| *dt > 0.0)
        .unwrap_or(uptime_s.max(1e-9));
    let delta = |name: &str| {
        let now = sample.scalar(name);
        now - prev.map(|p| p.scalar(name).min(now)).unwrap_or(0)
    };
    let qps = delta("serve.requests") as f64 / interval_s;
    let hits = delta("cache.hits");
    let misses = delta("cache.misses");
    writeln!(
        out,
        "lc-top — {addr}   up {uptime_s:.1}s   model v{}   pool workers {}",
        sample.scalar("registry.active_version"),
        sample.scalar("pool.workers"),
    )?;
    writeln!(
        out,
        "requests {:>10}   qps {qps:>8.1}   errors {}   wire-errors {}   connections {}",
        sample.scalar("serve.requests"),
        sample.scalar("serve.errors"),
        sample.scalar("serve.wire_decode_errors"),
        sample.scalar("serve.connections"),
    )?;
    let batch = sample
        .histogram("batcher.batch_size")
        .since(&prev.map(|p| p.histogram("batcher.batch_size")).unwrap_or_default());
    writeln!(
        out,
        "cache    hit rate {:>5.1}%   entries {}   |   batcher queue {}   mean batch {:.2}",
        percent(hits, hits + misses),
        sample.scalar("cache.entries"),
        sample.scalar("batcher.queue_depth"),
        batch.mean(),
    )?;
    // Reactor shards: per-shard counters folded into one row (shards
    // beyond lc_obs::MAX_SHARDS share the last slot server-side). A
    // shard is "active" once any of its counters or gauges moved.
    let mut active = 0usize;
    let (mut conns, mut inflight, mut accepted, mut shed, mut wakeups) = (0, 0, 0, 0, 0u64);
    for i in 0..lc_obs::MAX_SHARDS {
        let read = |field: &str| sample.scalar(&format!("serve.shard{i}.{field}"));
        let rate = |field: &str| delta(&format!("serve.shard{i}.{field}"));
        let (c, f) = (read("connections"), read("inflight"));
        let (a, s, w) = (read("accepted"), read("shed"), read("wakeups"));
        if c + f + a + s + w > 0 {
            active += 1;
        }
        conns += c;
        inflight += f;
        accepted += a;
        shed += s;
        wakeups += rate("wakeups");
    }
    writeln!(
        out,
        "shards   active {active}/{}   conns {conns}   inflight {inflight}   accepted \
         {accepted}   shed {shed}   wakeups/s {:.1}",
        lc_obs::MAX_SHARDS,
        wakeups as f64 / interval_s,
    )?;
    // Resident models: how much memory the registry's serving pipelines
    // pin, and whether the active one is the int8 quantized artifact.
    writeln!(
        out,
        "models   resident {}   {} bytes   active v{} ({})",
        sample.scalar("model.resident_count"),
        sample.scalar("model.bytes"),
        sample.scalar("registry.active_version"),
        if sample.scalar("model.quantized") != 0 { "int8" } else { "f32" },
    )?;
    writeln!(out)?;
    writeln!(out, "  stage        count      p50 µs      p95 µs      p99 µs      max µs")?;
    for (label, metric) in STAGES {
        let now = sample.histogram(metric);
        let window = match prev {
            Some(p) => now.since(&p.histogram(metric)),
            None => now,
        };
        if window.is_empty() {
            writeln!(
                out,
                "  {label:<10} {:>7}           -           -           -           -",
                0
            )?;
        } else {
            writeln!(
                out,
                "  {label:<10} {:>7} {:>11.1} {:>11.1} {:>11.1} {:>11.1}",
                window.count(),
                us(window.quantile(0.50)),
                us(window.quantile(0.95)),
                us(window.quantile(0.99)),
                us(window.max),
            )?;
        }
    }
    writeln!(out)?;
    // The served model's online accuracy: the q-error of every estimate
    // a client reported the true cardinality for.
    let feedback_qerror = sample.histogram("tier.primary.qerror_x100");
    let feedback_p95 = if feedback_qerror.is_empty() {
        "-".to_string()
    } else {
        format!("{:.1}", feedback_qerror.quantile(0.95) as f64 / 100.0)
    };
    writeln!(
        out,
        "feedback {} (q-err p95 {})   drift trips {} ({} template{} tripped)   retrains {} ok / \
         {} panicked / {} on a serving core   publishes {}   retrain in flight: {}",
        sample.scalar("serve.feedback"),
        feedback_p95,
        sample.scalar("drift.trips"),
        sample.tripped_templates,
        if sample.tripped_templates == 1 { "" } else { "s" },
        sample.scalar("retrain.success"),
        sample.scalar("retrain.panics"),
        sample.scalar("retrain.shared_core"),
        sample.scalar("registry.publishes"),
        if sample.retrain_in_flight { "yes" } else { "no" },
    )?;
    Ok(())
}

/// Dump one sample as a JSON object keyed by catalog metric name —
/// the `--once --json` mode CI's consistency check parses.
fn render_json(out: &mut impl Write, sample: &Sample) -> io::Result<()> {
    write!(out, "{{\"uptime_ns\":{}", sample.uptime_ns)?;
    for (id, def) in CATALOG.iter().enumerate() {
        let id = id as u16;
        match def.kind() {
            MetricKind::Counter | MetricKind::Gauge => {
                let value = sample.scalars.get(&id).copied().unwrap_or(0);
                write!(out, ",\"{}\":{}", def.name, value)?;
            }
            MetricKind::Histogram => {
                let h =
                    sample.histograms.get(&id).copied().unwrap_or_else(HistogramSnapshot::empty);
                write!(
                    out,
                    ",\"{}\":{{\"count\":{},\"sum\":{},\"max\":{},\"p50\":{},\"p95\":{},\
                     \"p99\":{}}}",
                    def.name,
                    h.count(),
                    h.sum,
                    h.max,
                    h.quantile(0.50),
                    h.quantile(0.95),
                    h.quantile(0.99),
                )?;
            }
        }
    }
    write!(
        out,
        ",\"retrain_in_flight\":{},\"tripped_templates\":{}}}",
        sample.retrain_in_flight, sample.tripped_templates
    )?;
    writeln!(out)?;
    Ok(())
}

fn run() -> Result<(), String> {
    let flags = lc_serve::flags::parse_with_switches(FLAGS, SWITCHES)?;
    let addr = flags.get("addr").cloned().unwrap_or_else(|| "127.0.0.1:7878".into());
    let interval = Duration::from_millis(get(&flags, "interval-ms", 1000u64)?.max(50));
    let frames: u64 = get(&flags, "frames", 0)?;
    let once = get(&flags, "once", false)?;
    let json = get(&flags, "json", false)?;
    if json && !once {
        return Err("--json requires --once (live mode renders a terminal view)".into());
    }
    // Every histogram wire id must fit the fixed bucket count — a
    // mismatch would mean the catalog and wire codec disagree.
    assert_eq!(BUCKETS, 64, "wire histogram layout assumes 64 buckets");
    let mut poller =
        Poller::connect(&addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let stdout = io::stdout();
    if once {
        let sample = poller.poll().map_err(|e| format!("poll failed: {e}"))?;
        let mut out = stdout.lock();
        let result = if json {
            render_json(&mut out, &sample)
        } else {
            render(&mut out, &addr, &sample, None)
        };
        return result.map_err(|e| format!("write failed: {e}"));
    }
    let mut prev: Option<Sample> = None;
    let mut frame = 0u64;
    loop {
        let sample = poller.poll().map_err(|e| format!("poll failed: {e}"))?;
        let mut out = stdout.lock();
        // Clear + home, then draw the frame in one write burst.
        write!(out, "\x1b[2J\x1b[H").map_err(|e| format!("write failed: {e}"))?;
        render(&mut out, &addr, &sample, prev.as_ref())
            .map_err(|e| format!("write failed: {e}"))?;
        out.flush().map_err(|e| format!("write failed: {e}"))?;
        drop(out);
        prev = Some(sample);
        frame += 1;
        if frames > 0 && frame >= frames {
            return Ok(());
        }
        std::thread::sleep(interval);
    }
}

/// Compile-time check that every stage row names a real catalog metric
/// (`id_of` would panic at runtime otherwise — make the test suite catch
/// it instead).
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_rows_and_dashboard_scalars_exist_in_the_catalog() {
        for (_, metric) in STAGES {
            let id = id_of(metric);
            assert_eq!(lc_obs::metric_name(id), Some(*metric));
        }
        for name in [
            "serve.requests",
            "serve.errors",
            "cache.hits",
            "cache.misses",
            "batcher.queue_depth",
            "batcher.batch_size",
            "drift.trips",
            "retrain.success",
            "retrain.panics",
            "retrain.shared_core",
            "registry.publishes",
            "registry.active_version",
            "pool.workers",
            "model.bytes",
            "model.resident_count",
            "model.quantized",
            "tier.primary.qerror_x100",
        ] {
            id_of(name);
        }
        // Every name the shards row synthesizes must exist for every
        // shard index up to the fold limit.
        for i in 0..lc_obs::MAX_SHARDS {
            for field in ["accepted", "shed", "wakeups", "connections", "inflight"] {
                id_of(&format!("serve.shard{i}.{field}"));
            }
        }
    }

    /// The feedback row carries the served model's online q-error p95,
    /// and a plain server with cache misses renders no tiers row.
    #[test]
    fn feedback_row_shows_the_online_qerror_and_no_tiers_row() {
        let qerrors = lc_obs::Histogram::new();
        for _ in 0..40 {
            qerrors.record(300); // q-error 3.0, ×100
        }
        let sample = Sample {
            uptime_ns: 1_000_000_000,
            scalars: HashMap::from([
                (id_of("serve.feedback"), 40),
                (id_of("cache.misses"), 40),
                (id_of("tier.primary.hits"), 40),
            ]),
            histograms: HashMap::from([(id_of("tier.primary.qerror_x100"), qerrors.snapshot())]),
            retrain_in_flight: false,
            tripped_templates: 0,
        };
        let mut out = Vec::new();
        render(&mut out, "127.0.0.1:7878", &sample, None).unwrap();
        let text = String::from_utf8(out).unwrap();
        let feedback = text.lines().find(|l| l.starts_with("feedback ")).expect("feedback row");
        let p95 = sample.histogram("tier.primary.qerror_x100").quantile(0.95) as f64 / 100.0;
        assert!(feedback.starts_with(&format!("feedback 40 (q-err p95 {p95:.1})")), "{feedback}");
        assert!(!text.lines().any(|l| l.starts_with("tiers")), "{text}");
    }

    #[test]
    fn connect_with_retry_times_out_cleanly() {
        // Port 1 on localhost is essentially never listening.
        let err = connect_with_retry("127.0.0.1:1", Duration::from_millis(120));
        assert!(err.is_err());
    }
}
