//! The five workloads and what they share: the round record, the
//! in-process server, the blocking TCP client with its spans.
//!
//! A workload is a sequence of rounds of fixed size; every timing metric
//! is a median over rounds. All loops are closed: the caller blocks on
//! each reply before it sends the next request.

use std::borrow::Cow;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use lc_eval::metrics::percentile;
use lc_query::LabeledQuery;
use lc_serve::wire::{Message, CAP_FEEDBACK, CAP_RETRY, PROTOCOL_VERSION};
use lc_serve::{
    serve, BatcherConfig, CacheConfig, DriftConfig, EstimationService, FrontConfig, ModelRegistry,
    ServeConfig, ServerHandle,
};

use crate::fixture::Fixture;
use crate::layers::LayerTimes;
use crate::proc::{self, ThreadUsage};
use crate::stats;
use crate::trace::{Reconciliation, SpanTotals, Tracer};

mod embed;
mod heal;
mod plan;
mod probe;
mod train;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 5] = ["probe", "plan", "embed", "train", "heal"];

/// Name prefix of the reactor threads `lc_serve::serve` spawns.
pub const SHARD_THREADS: &str = "lc-shard-";

/// What one round measured.
#[derive(Clone, Copy, Debug, Default)]
pub struct Round {
    /// Operations completed in the throughput window.
    pub ops: u64,
    /// Length of the throughput window.
    pub wall_ns: u64,
    /// Process CPU time the round consumed (all threads), nanoseconds.
    pub cpu_ns: u64,
    /// Median, p90 and highest supported percentile up to p99 of the
    /// latency the caller waits for, within this round.
    pub p50_us: f64,
    pub p90_us: f64,
    pub tail_us: f64,
    pub tail_percentile: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Filled when [`Ctx::sample_threads`] is set.
    pub shard: ThreadUsage,
    pub client_cpu_ns: u64,
}

impl Round {
    pub fn ops_per_s(&self) -> f64 {
        self.ops as f64 * 1e9 / self.wall_ns as f64
    }

    pub fn cpu_us_per_op(&self) -> f64 {
        self.cpu_ns as f64 / 1e3 / self.ops as f64
    }

    /// Fill the latency fields from this round's samples (µs).
    fn set_latencies(&mut self, samples_us: &[f64]) {
        self.p50_us = percentile(samples_us, 50.0);
        self.p90_us = percentile(samples_us, 90.0);
        (self.tail_us, self.tail_percentile) = stats::tail(samples_us, 99.0);
    }
}

/// CPU-time readings at the start of a round; the `stop_*` methods
/// write what was used since into the round.
pub struct Meter {
    process_cpu_ns: u64,
    /// Client-thread CPU and shard usage, when threads are sampled.
    threads: Option<(u64, ThreadUsage)>,
}

impl Meter {
    pub fn start(ctx: &Ctx<'_>) -> Self {
        Meter {
            threads: ctx
                .sample_threads
                .then(|| (proc::thread_cpu_ns(), ThreadUsage::of_threads_named(SHARD_THREADS))),
            process_cpu_ns: proc::process_cpu_ns(),
        }
    }

    /// Process CPU (and the client thread's, when sampled).
    pub fn stop_cpu(&self, round: &mut Round) {
        round.cpu_ns = proc::process_cpu_ns() - self.process_cpu_ns;
        if let Some((client, _)) = self.threads {
            round.client_cpu_ns = proc::thread_cpu_ns() - client;
        }
    }

    /// The reactor shards' usage, when sampled. Separate from
    /// [`Meter::stop_cpu`] because `heal` must read its shard before the
    /// service dies and its CPU after.
    pub fn stop_shard(&self, round: &mut Round) {
        if let Some((_, shard)) = self.threads {
            round.shard = ThreadUsage::of_threads_named(SHARD_THREADS).since(shard);
        }
    }
}

/// What a workload gets for a round.
pub struct Ctx<'a> {
    pub tracer: &'a mut Tracer,
    /// Read per-thread CPU time around the round (traced runs only: it
    /// costs a few `/proc` reads per round).
    pub sample_threads: bool,
}

/// What a workload knows once its rounds are over.
#[derive(Default)]
pub struct Outcome {
    /// Oracle violations; any makes the run incorrect.
    pub violations: Vec<String>,
    /// Q-errors of the distinct verified answers against ground truth.
    pub qerrors: Vec<f64>,
    /// Serialized size of the served (or freshly trained) model.
    pub model_bytes: usize,
    /// Per-layer metrics the workload counted itself.
    pub counted: Vec<(&'static str, f64)>,
}

pub trait Workload {
    /// Hash of the generated inputs (frames, corpus, schedule).
    fn inputs_fingerprint(&self) -> u64;

    /// Run one round. An I/O error ends the run as failed.
    fn round(&mut self, ctx: &mut Ctx<'_>) -> io::Result<Round>;

    /// The warm-up rounds are over: forget what they counted (a cold
    /// cache's misses are not the workload's hit share).
    fn warmed_up(&mut self) {}

    /// True when a round yields one latency sample (`train`): the tail
    /// is then taken over rounds, not within them.
    fn one_sample_per_round(&self) -> bool {
        false
    }

    /// The labeled queries this workload sends, for the layer replays.
    fn inputs(&self) -> Cow<'_, [LabeledQuery]>;

    fn finish(&mut self) -> Outcome;

    /// `Σ stages + residual = root` for one operation: client stages
    /// from the spans' self times, program stages from the replays.
    fn reconcile(
        &self,
        spans: &SpanTotals,
        layers: &LayerTimes,
        counted: &[(&'static str, f64)],
    ) -> (Reconciliation, &'static str);
}

pub fn build<'a>(
    name: &str,
    fixture: &'a Fixture,
    seed: u64,
) -> io::Result<Box<dyn Workload + Send + 'a>> {
    Ok(match name {
        "probe" => Box::new(probe::Probe::new(fixture)?),
        "plan" => Box::new(plan::Plan::new(fixture, seed)?),
        "embed" => Box::new(embed::Embed::new(fixture)),
        "train" => Box::new(train::Train::new(fixture)),
        "heal" => Box::new(heal::Heal::new(fixture, seed)),
        other => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("no workload `{other}`"),
            ))
        }
    })
}

/// An in-process `lc_serve::serve` over the fixture's bootstrap model:
/// one reactor shard, no batcher worker thread (the shard flushes its
/// own batcher inline), the fixture's cache capacity.
pub struct Served {
    pub service: Arc<EstimationService>,
    handle: Option<ServerHandle>,
    pub addr: SocketAddr,
}

impl Served {
    pub fn start(fixture: &Fixture, drift: DriftConfig) -> io::Result<Self> {
        let registry = Arc::new(ModelRegistry::new(fixture.model.clone()));
        let config = ServeConfig {
            cache: CacheConfig { capacity: fixture.scale.cache_capacity, ..CacheConfig::default() },
            batcher: BatcherConfig { workers: 0, ..BatcherConfig::default() },
            drift,
            front: FrontConfig { shards: 1, ..FrontConfig::default() },
            ..ServeConfig::default()
        };
        let service = Arc::new(EstimationService::new(
            fixture.db.clone(),
            fixture.samples.clone(),
            registry,
            config,
        ));
        let handle = serve(Arc::clone(&service), "127.0.0.1:0")?;
        let addr = handle.local_addr();
        Ok(Served { service, handle: Some(handle), addr })
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            handle.shutdown();
        }
        // Joins an in-flight retrainer, so no thread outlives the round.
        self.service.shutdown();
    }
}

/// A reply that takes this long counts as a failed operation.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

/// One blocking v2 client connection. Replies are read into one reused
/// buffer and decoded in place; `recv` records the client's `wait`
/// (blocked in `read`) and `decode` spans.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    /// `buf[pos..filled]` holds received, not yet decoded bytes.
    pos: usize,
    filled: usize,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        let mut conn = Conn { stream, buf: vec![0; 64 * 1024], pos: 0, filled: 0 };
        let hello = Message::Hello {
            id: 0,
            version: PROTOCOL_VERSION,
            capabilities: CAP_FEEDBACK | CAP_RETRY,
        };
        conn.send(&hello.to_bytes())?;
        let mut off = Tracer::new(0);
        match conn.recv(&mut off, crate::trace::NONE, 0)? {
            Message::HelloAck { version: PROTOCOL_VERSION, capabilities, .. }
                if capabilities == CAP_FEEDBACK | CAP_RETRY =>
            {
                Ok(conn)
            }
            other => {
                Err(io::Error::new(io::ErrorKind::InvalidData, format!("hello answered {other:?}")))
            }
        }
    }

    pub fn send(&mut self, frames: &[u8]) -> io::Result<()> {
        self.stream.write_all(frames)
    }

    pub fn recv(&mut self, tracer: &mut Tracer, parent: u32, request: u64) -> io::Result<Message> {
        loop {
            if self.filled - self.pos >= 4 {
                let span = tracer.begin("client.decode", parent, request);
                let decoded =
                    Message::decode_prefix(&self.buf[self.pos..self.filled], PROTOCOL_VERSION);
                tracer.end(span);
                match decoded {
                    Ok(Some((message, used))) => {
                        self.pos += used;
                        if self.pos == self.filled {
                            (self.pos, self.filled) = (0, 0);
                        }
                        return Ok(message);
                    }
                    Ok(None) => {}
                    Err(e) => return Err(io::Error::new(io::ErrorKind::InvalidData, e)),
                }
            }
            if self.pos > 0 {
                self.buf.copy_within(self.pos..self.filled, 0);
                (self.pos, self.filled) = (0, self.filled - self.pos);
            }
            if self.filled == self.buf.len() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "reply larger than the client buffer",
                ));
            }
            let span = tracer.begin("client.wait", parent, request);
            let n = self.stream.read(&mut self.buf[self.filled..]);
            tracer.end(span);
            match n {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => self.filled += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// `EstimateRequest` messages for `queries`, ids to be set per send.
fn requests(queries: &[LabeledQuery]) -> Vec<Message> {
    queries.iter().map(|q| Message::EstimateRequest { id: 0, query: q.query.clone() }).collect()
}

/// Set the id of a request or feedback message and append its frame.
fn encode_with_id(message: &mut Message, new_id: u64, out: &mut Vec<u8>) {
    match message {
        Message::EstimateRequest { id, .. } | Message::Feedback { id, .. } => *id = new_id,
        other => unreachable!("the client only sends requests and feedback, not {other:?}"),
    }
    message.encode(out);
}

/// Q-errors of `estimates` against the labels of `queries`.
fn qerrors<'a>(
    estimates: impl IntoIterator<Item = f64>,
    queries: impl IntoIterator<Item = &'a LabeledQuery>,
) -> Vec<f64> {
    estimates
        .into_iter()
        .zip(queries)
        .map(|(e, q)| lc_eval::metrics::qerror(e, q.cardinality as f64))
        .collect()
}

/// Self time of all spans `name` per span `root` (one root per
/// operation group), 0 when `name` never occurred.
fn span_self(spans: &SpanTotals, name: &str, root: &str) -> f64 {
    let roots = spans.get(root).map_or(1, |t| t.count.max(1));
    spans.get(name).map_or(0.0, |t| t.self_ns as f64 / roots as f64)
}

/// The client's own stages of a TCP operation rooted at `root`, per
/// root: everything but `client.wait`, which is where the server's
/// stages and the residual live.
fn client_stages(spans: &SpanTotals, root: &'static str) -> Vec<(String, f64)> {
    ["client.encode", "client.write", "client.decode"]
        .into_iter()
        .map(|name| (name.to_owned(), span_self(spans, name, root)))
        .chain([("client.loop".to_owned(), span_self(spans, root, root))])
        .collect()
}

/// Mean duration of span `root`.
fn span_mean(spans: &SpanTotals, root: &str) -> f64 {
    spans.get(root).map_or(0.0, |t| t.total_ns as f64 / t.count.max(1) as f64)
}

/// Look a counted metric up by name.
fn counted_value(counted: &[(&'static str, f64)], name: &str) -> f64 {
    counted.iter().find(|(n, _)| *n == name).map_or(0.0, |(_, v)| *v)
}

/// The program-side stages of serving one estimate request over TCP:
/// `hit_share` of requests stop at the cache, the rest run the model at
/// the batch size the replies reported.
fn served_estimate_stages(
    layers: &LayerTimes,
    hit_share: f64,
    batch_mean: f64,
) -> Vec<(String, f64)> {
    let b = if batch_mean >= 8.0 { "b64" } else { "b1" };
    let miss = 1.0 - hit_share;
    vec![
        ("serve.wire.decode".into(), layers.get("serve.wire.decode_ns")),
        ("query.codec.key".into(), layers.get("query.codec.key_ns")),
        ("serve.cache.hit".into(), hit_share * layers.get("serve.cache.hit_ns")),
        ("serve.cache.miss".into(), miss * layers.get("serve.cache.miss_ns")),
        ("query.annotate".into(), miss * layers.get("query.annotate_ns")),
        (format!("core.featurize.{b}"), miss * layers.get(&format!("core.featurize_ns.{b}"))),
        (format!("core.forward.{b}"), miss * layers.get(&format!("core.forward_ns.{b}"))),
        (
            format!("serve.service.overhead.{b}"),
            miss * layers.get(&format!("serve.service.overhead_ns.{b}")),
        ),
        ("serve.wire.encode".into(), layers.get("serve.wire.encode_ns")),
    ]
}
