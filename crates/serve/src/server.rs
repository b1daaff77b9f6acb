//! The event-driven, shard-per-core TCP front of the estimation service.
//!
//! One nonblocking listener is shared by N reactor shards (one per core
//! by default), each running its own readiness loop on an [`lc_poll`]
//! poller. The listener is registered in every shard with the
//! exclusive-wakeup flag, so the kernel wakes one shard per incoming
//! connection, and an accepted connection is owned *outright* by the
//! shard that accepted it: socket, partial frames, write backlog, and
//! in-flight estimates never cross shards, so there is no per-request
//! locking anywhere on the serving path.
//!
//! ## Memory per connection
//!
//! The old front spawned a thread per connection — a stack plus buffered
//! reader/writer per peer, megabytes each. Here an *idle* connection is
//! one slab slot: a nonblocking `TcpStream` plus two empty `Vec`s.
//! Bytes are read into a per-shard scratch buffer; only a partial frame
//! spills into the connection's own buffer, and only until the frame
//! completes. That is what lets one process hold tens of thousands of
//! mostly-idle connections.
//!
//! ## Event-driven micro-batching
//!
//! Each shard owns a [`MicroBatcher`] by value and flushes it at the end
//! of every readiness pass: estimate requests decoded from all the
//! connections that woke together coalesce into shared forward passes on
//! the shard's own (pinned) core — no lock, no channel, no hand-off to
//! another thread, and each answer is written to its connection straight
//! from the flush. Concurrency in the arrival process is what creates
//! batching — the paper's amortization argument — with no added queueing
//! delay for sparse traffic: a lone request is a flush of one.
//!
//! ## Placement
//!
//! Shard `i` pins itself to CPU `i mod n` of the process's CPU set
//! (`lc_nn::core_for`, the worker pool's policy) and records that CPU
//! with its [`EstimationService`] before [`serve`] returns. The
//! service's background retrainer runs on the process set minus the
//! recorded CPUs, or on the whole set when the shards hold every CPU
//! (counted as `retrain.shared_core`), so a retrain tripped by a shard's
//! feedback does not preempt that shard. `LC_PIN_WORKERS=0` turns all of
//! it off.
//!
//! ## Admission control and load shedding
//!
//! Two bounds protect tail latency under overload (see
//! [`FrontConfig`]): a global cap on open connections, enforced at
//! accept, and a per-shard budget of estimates in flight between
//! micro-batch flushes. A request over budget is shed *before*
//! featurization: clients that negotiated [`CAP_RETRY`] get a
//! [`Message::Busy`] frame carrying a retry hint, everyone else (v1,
//! hello-less, or opted out) gets a plain [`Message::Error`] — either
//! way the connection stays open and the next request is admitted
//! normally. A query that names a table, join or column the served schema
//! does not hold is refused the same way, with an `Error` frame carrying
//! its id, before it reaches the cache.
//!
//! ## Protocol negotiation
//!
//! Unchanged from the threaded front: a v2 client opens with
//! [`Message::Hello`] and the connection then decodes at the negotiated
//! version with the negotiated capabilities; a v1 client sends no hello
//! and stays in the pre-hello state, where the server decodes at its own
//! maximum version with every capability except the one that changes a
//! reply frame ([`CAP_RETRY`]) — v1 traffic (kinds 1–5) works
//! byte-identically.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use lc_obs::{metrics, MetricKind, ShardMetrics, SpanTimer};
use lc_query::Query;

use crate::batcher::{Estimate, MicroBatcher};
use crate::config::FrontConfig;
use crate::service::{EstimationService, Ticket};
use crate::wire::{
    negotiate, HistogramMetric, Message, ScalarMetric, CAPABILITIES, CAP_DRIFT, CAP_FEEDBACK,
    CAP_METRICS, CAP_RETRY, CAP_STATS, PROTOCOL_VERSION,
};

/// Cap on outgoing error messages, so an Error reply echoing
/// client-supplied content can never exceed [`crate::wire::MAX_FRAME_LEN`]
/// and become undecodable by a conforming client.
const MAX_ERROR_MESSAGE: usize = 512;

/// Poller token of the shared listener.
const TOKEN_LISTENER: u64 = 0;
/// Poller token of the shard's shutdown waker.
const TOKEN_WAKER: u64 = 1;
/// Connection in slot `s` polls as token `TOKEN_BASE + s`.
const TOKEN_BASE: u64 = 2;

// Connection buffers are released the moment they drain: an idle
// connection owns zero heap, which is what keeps 10k+ mostly-idle
// connections to ~100 bytes of resident memory each (the slot entry
// itself). Active connections pay one small (re)allocation per
// response burst / split frame — noise next to the socket syscalls.

fn error_message(id: u64, mut message: String) -> Message {
    if message.len() > MAX_ERROR_MESSAGE {
        let mut cut = MAX_ERROR_MESSAGE;
        while !message.is_char_boundary(cut) {
            cut -= 1;
        }
        message.truncate(cut);
        message.push('…');
    }
    Message::Error { id, message }
}

/// Build a [`Message::MetricsSnapshot`] of the whole `lc_obs` catalog.
/// Gauges that mirror state owned elsewhere (active model version, cache
/// population, pool size) are refreshed here, at snapshot time, instead
/// of being maintained on hot paths that already have the state.
fn metrics_snapshot(service: &EstimationService, id: u64) -> Message {
    metrics::MODEL_VERSION.set(u64::from(service.registry().active_version()));
    metrics::CACHE_ENTRIES.set(service.cache_stats().entries as u64);
    metrics::POOL_WORKERS.set(lc_nn::WorkerPool::global().workers() as u64);
    let snap = lc_obs::snapshot();
    Message::MetricsSnapshot {
        id,
        uptime_ns: snap.uptime_ns,
        scalars: snap
            .scalars
            .iter()
            .map(|s| ScalarMetric { id: s.id, gauge: s.kind == MetricKind::Gauge, value: s.value })
            .collect(),
        histograms: snap
            .histograms
            .iter()
            .map(|h| HistogramMetric {
                id: h.id,
                sum: h.snapshot.sum,
                max: h.snapshot.max,
                buckets: h.snapshot.buckets,
            })
            .collect(),
    }
}

#[cfg(unix)]
fn raw_fd<T: std::os::fd::AsRawFd>(io: &T) -> i32 {
    io.as_raw_fd()
}

#[cfg(not(unix))]
fn raw_fd<T>(_io: &T) -> i32 {
    -1
}

/// A running server: its bound address plus shutdown control.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    wakers: Vec<lc_poll::Waker>,
    shards: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the listener actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Number of reactor shards this server is running.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Block the calling thread until the reactor shards exit (i.e.
    /// until the process dies or another thread owns shutdown). This is
    /// what the `serve` binary parks on.
    pub fn wait(mut self) {
        for shard in self.shards.drain(..) {
            shard.join().expect("reactor shard panicked");
        }
    }

    /// Stop the server and join every shard. Each shard wakes from its
    /// readiness wait immediately (no poke connection, no lingering
    /// accept), answers the requests already decoded, and closes its
    /// connections — so `shutdown` returns promptly even with idle
    /// clients still connected. The service itself stays usable until
    /// dropped.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        for waker in &self.wakers {
            waker.wake();
        }
        for shard in self.shards.drain(..) {
            let _ = shard.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        // A handle dropped without an explicit wait()/shutdown() (e.g.
        // by a panicking test) must not leave reactor threads behind.
        self.stop_and_join();
    }
}

/// Bind `addr` and serve `service` until the handle is shut down, with
/// the shard count and admission policy from the service's
/// [`FrontConfig`].
pub fn serve(
    service: Arc<EstimationService>,
    addr: impl ToSocketAddrs,
) -> io::Result<ServerHandle> {
    let front = service.front_config();
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let listener = Arc::new(listener);
    let shard_count = if front.shards == 0 { lc_nn::process_cpus().len() } else { front.shards };
    let stop = Arc::new(AtomicBool::new(false));
    let open_connections = Arc::new(AtomicUsize::new(0));
    let mut wakers = Vec::with_capacity(shard_count);
    let mut shards = Vec::with_capacity(shard_count);
    // Nothing is ever sent: each shard drops its sender once placed, and
    // `recv` returns when the last one is gone.
    let (placed, all_placed) = std::sync::mpsc::channel::<()>();
    for shard_id in 0..shard_count {
        let poller = lc_poll::Poller::new()?;
        let waker = poller.waker(TOKEN_WAKER)?;
        // Exclusive wakeup: of the N shards polling this listener the
        // kernel wakes one per incoming connection, not all of them.
        poller.add(raw_fd(&*listener), TOKEN_LISTENER, lc_poll::READ, true)?;
        wakers.push(waker.clone());
        let mut shard = Shard {
            id: shard_id,
            service: Arc::clone(&service),
            batcher: service.batcher(),
            listener: Arc::clone(&listener),
            poller,
            waker,
            front,
            stop: Arc::clone(&stop),
            open_connections: Arc::clone(&open_connections),
            obs: lc_obs::shard_metrics(shard_id),
            slots: Vec::new(),
            free: Vec::new(),
            done: Vec::new(),
            dirty: Vec::new(),
            read_buf: vec![0u8; 64 * 1024],
        };
        let placed = placed.clone();
        shards.push(
            std::thread::Builder::new()
                .name(format!("lc-shard-{shard_id}"))
                .spawn(move || {
                    shard.place();
                    drop(placed);
                    shard.run()
                })
                .expect("spawn reactor shard"),
        );
    }
    // Every shard has claimed its CPU before `serve` returns, so no
    // retrain scheduled from here on can land on one.
    drop(placed);
    let _ = all_placed.recv();
    Ok(ServerHandle { addr: local, stop, wakers, shards })
}

/// Capabilities of a connection that sent no Hello: everything a v1
/// client can use without knowing it, and not the bit that would answer
/// it with a frame it cannot decode (`Busy`).
const PRE_HELLO_CAPS: u8 = CAPABILITIES & !CAP_RETRY;

/// One connection owned by a shard. An idle connection keeps both
/// buffers empty — its footprint is this struct plus the socket.
struct Conn {
    stream: TcpStream,
    /// Negotiated (or pre-hello maximum) protocol version.
    version: u8,
    /// Negotiated (or [`PRE_HELLO_CAPS`]) capability set.
    caps: u8,
    /// Bytes received that do not yet form a complete frame.
    inbuf: Vec<u8>,
    /// Encoded responses not yet accepted by the socket.
    outbuf: Vec<u8>,
    /// Prefix of `outbuf` already written.
    out_pos: usize,
    /// Close once `outbuf` drains (set after a wire error or a peer
    /// half-close with responses still queued).
    close_after_drain: bool,
    /// Current poll interest includes writability.
    wants_write: bool,
    /// Already queued into `Shard::dirty` this pass.
    dirty: bool,
}

impl Conn {
    fn has_backlog(&self) -> bool {
        self.out_pos < self.outbuf.len()
    }
}

/// A slab slot. The generation outlives any one connection, so a batch
/// result resolved after the slot was reused can never reach the wrong
/// peer.
struct Slot {
    generation: u64,
    conn: Option<Conn>,
}

/// An admitted estimate (or feedback): the token that rides the shard's
/// batcher and comes back with the answer.
struct PendingReq {
    slot: usize,
    generation: u64,
    id: u64,
    /// Set when `lc_obs` is enabled: end-to-end estimate latency.
    started: Option<Instant>,
    /// `Some((query, actual_card))` marks a feedback frame: resolution
    /// records the observation and answers with a FeedbackAck.
    feedback: Option<(Query, u64)>,
}

/// How one socket interaction left the connection.
enum IoOutcome {
    Open,
    Blocked,
    Closed,
}

struct Shard {
    id: usize,
    service: Arc<EstimationService>,
    /// This shard's own batcher, flushed inline at the end of every
    /// readiness pass; what it holds is the shard's in-flight budget.
    batcher: MicroBatcher<Ticket<PendingReq>>,
    listener: Arc<TcpListener>,
    poller: lc_poll::Poller,
    waker: lc_poll::Waker,
    front: FrontConfig,
    stop: Arc<AtomicBool>,
    /// Open connections across all shards (the global accept cap).
    open_connections: Arc<AtomicUsize>,
    obs: &'static ShardMetrics,
    slots: Vec<Slot>,
    free: Vec<usize>,
    /// Answers of the flush in progress (reused across passes).
    done: Vec<(PendingReq, Estimate)>,
    /// Slots with freshly queued output this pass.
    dirty: Vec<usize>,
    /// Shared read scratch — idle connections own no read buffer.
    read_buf: Vec<u8>,
}

impl Shard {
    /// Pin this thread by the worker-pool policy (`LC_PIN_WORKERS`, a
    /// no-op when disabled): shard i sits on CPU i mod n of the process
    /// set, so batched forward passes run where connection state is hot.
    /// The CPU is recorded with the service so its retrainer keeps off it.
    fn place(&self) {
        let cpu = lc_nn::core_for(self.id);
        if lc_nn::pin_thread_to_cpus(&[cpu]) {
            self.service.claim_serving_cpu(cpu);
        }
    }

    fn run(&mut self) {
        let mut events = Vec::new();
        loop {
            if self.poller.wait(&mut events, -1).is_err() {
                break;
            }
            if !events.is_empty() {
                self.obs.wakeups.inc();
            }
            // Drained in place, so the buffer keeps its capacity for the
            // next wait.
            for ev in events.drain(..) {
                match ev.token {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKER => self.waker.drain(),
                    token => self.conn_ready((token - TOKEN_BASE) as usize, ev),
                }
            }
            // Event-driven micro-batching: everything decoded in this
            // pass flushes together on this core.
            self.flush_batcher();
            self.flush_dirty();
            if self.stop.load(Ordering::SeqCst) {
                break;
            }
        }
        self.teardown();
    }

    /// Quiesce: answer what is already in flight, push out what the
    /// sockets will take, close everything.
    fn teardown(&mut self) {
        self.flush_batcher();
        self.flush_dirty();
        for slot in 0..self.slots.len() {
            self.close(slot);
        }
    }

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let cap = self.front.max_connections;
                    if cap > 0 && self.open_connections.fetch_add(1, Ordering::Relaxed) >= cap {
                        // Over the global cap: hand the count back and
                        // refuse by closing. The kernel accept backlog
                        // is the only queue an un-admitted peer gets.
                        self.open_connections.fetch_sub(1, Ordering::Relaxed);
                        drop(stream);
                        continue;
                    }
                    if cap == 0 {
                        self.open_connections.fetch_add(1, Ordering::Relaxed);
                    }
                    metrics::SERVE_CONNECTIONS.inc();
                    self.obs.accepted.inc();
                    // Nodelay: responses are single small frames; Nagle
                    // would add artificial latency to every estimate.
                    if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                        self.open_connections.fetch_sub(1, Ordering::Relaxed);
                        continue;
                    }
                    let slot = self.free.pop().unwrap_or_else(|| {
                        self.slots.push(Slot { generation: 0, conn: None });
                        self.slots.len() - 1
                    });
                    let token = TOKEN_BASE + slot as u64;
                    if self.poller.add(raw_fd(&stream), token, lc_poll::READ, false).is_err() {
                        self.free.push(slot);
                        self.open_connections.fetch_sub(1, Ordering::Relaxed);
                        continue;
                    }
                    self.slots[slot].conn = Some(Conn {
                        stream,
                        // Pre-hello: the server's own maximum version —
                        // exactly what keeps hello-less v1 clients working.
                        version: PROTOCOL_VERSION,
                        caps: PRE_HELLO_CAPS,
                        inbuf: Vec::new(),
                        outbuf: Vec::new(),
                        out_pos: 0,
                        close_after_drain: false,
                        wants_write: false,
                        dirty: false,
                    });
                    self.obs.connections.set(self.live_connections() as u64);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    fn live_connections(&self) -> usize {
        self.slots.iter().filter(|s| s.conn.is_some()).count()
    }

    fn conn_ready(&mut self, slot: usize, ev: lc_poll::Event) {
        if slot >= self.slots.len() || self.slots[slot].conn.is_none() {
            return; // closed earlier in this same pass
        }
        if ev.writable {
            self.write_some(slot);
        }
        if ev.readable {
            self.read_some(slot);
        }
    }

    /// Drain the socket (level-triggered: read to WouldBlock), decode
    /// every complete frame, dispatch each.
    fn read_some(&mut self, slot: usize) {
        // The scratch moves out so `decode_available(&mut self, ..)` can
        // re-borrow `self` freely; it moves back before returning.
        let mut buf = std::mem::take(&mut self.read_buf);
        while let Some(conn) = self.slots[slot].conn.as_mut() {
            let discard = conn.close_after_drain;
            let result = conn.stream.read(&mut buf);
            match result {
                Ok(0) => {
                    // Peer hung up. Responses queued this pass still go
                    // out first (the peer may only have half-closed).
                    if self.slots[slot].conn.as_ref().is_some_and(Conn::has_backlog) {
                        if let Some(conn) = self.slots[slot].conn.as_mut() {
                            conn.close_after_drain = true;
                        }
                    } else {
                        self.close(slot);
                    }
                    break;
                }
                Ok(n) => {
                    if discard {
                        // Post-wire-error: the stream position is
                        // unrecoverable; eat the bytes until close.
                        continue;
                    }
                    if !self.decode_available(slot, &buf[..n]) {
                        break; // connection torn down mid-decode
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close(slot);
                    break;
                }
            }
        }
        self.read_buf = buf;
    }

    /// Append freshly read bytes to the connection's pending input and
    /// decode every complete frame at the connection's negotiated
    /// version. Returns false if the connection was torn down.
    fn decode_available(&mut self, slot: usize, fresh: &[u8]) -> bool {
        // Fast path: no partial frame pending — decode straight from the
        // shared read scratch and spill only the (usually empty) tail.
        let spill: Vec<u8> = {
            let conn = match self.slots[slot].conn.as_mut() {
                Some(conn) => conn,
                None => return false,
            };
            if conn.inbuf.is_empty() {
                Vec::new()
            } else {
                let mut buf = std::mem::take(&mut conn.inbuf);
                buf.extend_from_slice(fresh);
                buf
            }
        };
        let bytes: &[u8] = if spill.is_empty() { fresh } else { &spill };
        let mut offset = 0;
        loop {
            let version = match self.slots[slot].conn.as_ref() {
                Some(conn) => conn.version,
                None => return false,
            };
            match Message::decode_prefix(&bytes[offset..], version) {
                Ok(Some((message, consumed))) => {
                    offset += consumed;
                    self.dispatch(slot, message);
                    match self.slots[slot].conn.as_ref() {
                        None => return false,
                        // Wire-error path already queued its Error frame:
                        // the rest of the input is discarded unread.
                        Some(conn) if conn.close_after_drain => return true,
                        Some(_) => {}
                    }
                }
                Ok(None) => break,
                Err(e) => {
                    // Malformed frame: report and close once the error
                    // frame drains (the stream position is
                    // unrecoverable). The embedded WireError already
                    // names the negotiated version.
                    metrics::SERVE_WIRE_ERRORS.inc();
                    self.respond(slot, error_message(0, e.to_string()));
                    if let Some(conn) = self.slots[slot].conn.as_mut() {
                        conn.close_after_drain = true;
                    }
                    return true;
                }
            }
        }
        // Park the partial tail (if any) on the connection; a fully
        // decoded input leaves the connection with no input heap at all.
        if let Some(conn) = self.slots[slot].conn.as_mut() {
            if offset < bytes.len() {
                if spill.is_empty() {
                    conn.inbuf.extend_from_slice(&bytes[offset..]);
                } else {
                    let mut buf = spill;
                    buf.drain(..offset);
                    conn.inbuf = buf;
                }
            }
        }
        true
    }

    /// Handle one decoded frame. Mirrors the dispatch table of the old
    /// threaded front exactly, plus admission control on estimates and
    /// feedback.
    fn dispatch(&mut self, slot: usize, message: Message) {
        // One span per inbound frame: decode already happened, so this
        // covers dispatch and the response encode.
        let _handle_span = SpanTimer::start(&metrics::SERVE_HANDLE_NS);
        let response = match message {
            Message::Hello { id, version: client_version, capabilities: client_caps } => {
                let (v, c) = negotiate(client_version, client_caps);
                if let Some(conn) = self.slots[slot].conn.as_mut() {
                    conn.version = v;
                    conn.caps = c;
                }
                Message::HelloAck { id, version: v, capabilities: c }
            }
            Message::EstimateRequest { id, query } => {
                metrics::SERVE_REQUESTS.inc();
                self.admit(slot, id, lc_obs::enabled().then(Instant::now), query, None);
                return;
            }
            Message::Feedback { id, query, actual_card } => {
                if self.conn_caps(slot) & CAP_FEEDBACK == 0 {
                    error_message(id, "feedback capability not negotiated".into())
                } else {
                    self.admit(slot, id, None, query, Some(actual_card));
                    return;
                }
            }
            Message::StatsRequest { id } => {
                if self.conn_caps(slot) & CAP_STATS == 0 {
                    error_message(id, "stats capability not negotiated".into())
                } else {
                    let drift = self.service.drift();
                    Message::Stats {
                        id,
                        model_version: self.service.registry().active_version(),
                        retrains: drift.retrains(),
                        feedback_count: drift.feedback_count(),
                        templates: drift.template_stats(),
                    }
                }
            }
            Message::DriftStatusRequest { id } => {
                if self.conn_caps(slot) & CAP_DRIFT == 0 {
                    error_message(id, "drift capability not negotiated".into())
                } else {
                    Message::DriftStatus {
                        id,
                        retrain_in_flight: self.service.retrain_in_flight(),
                        templates: self.service.drift().template_drift(),
                    }
                }
            }
            Message::MetricsRequest { id } => {
                if self.conn_caps(slot) & CAP_METRICS == 0 {
                    error_message(id, "metrics capability not negotiated".into())
                } else {
                    metrics::SERVE_METRICS_REQUESTS.inc();
                    metrics_snapshot(&self.service, id)
                }
            }
            Message::Ping { id } => Message::Pong { id },
            other => error_message(0, format!("unexpected client frame: {other:?}")),
        };
        self.respond(slot, response);
    }

    fn conn_caps(&self, slot: usize) -> u8 {
        self.slots[slot].conn.as_ref().map_or(0, |c| c.caps)
    }

    /// Refuse one request under overload. Clients that negotiated
    /// [`CAP_RETRY`] get the typed Busy frame; everyone else (v1,
    /// hello-less, or opted out) gets a plain error they can already
    /// decode.
    fn shed(&mut self, slot: usize, id: u64, started: Option<Instant>) {
        self.obs.shed.inc();
        let response = if self.conn_caps(slot) & CAP_RETRY != 0 {
            Message::Busy { id, retry_after_ms: self.front.retry_after_ms }
        } else {
            error_message(id, "server busy".into())
        };
        self.refuse(slot, started, response);
    }

    /// Answer a request the model never saw (shed or out of schema).
    fn refuse(&mut self, slot: usize, started: Option<Instant>, response: Message) {
        if let Some(started) = started {
            // Keep the estimate-span count == request count invariant:
            // a refused request was answered too, just not by the model.
            metrics::SERVE_ESTIMATE_NS.record_duration(started.elapsed());
        }
        self.respond(slot, response);
    }

    /// Admission control, then the service's lane: a query outside the
    /// served schema is refused and a request over the in-flight budget
    /// is shed before any other work; a cache hit is answered on the
    /// spot; a miss rides the batcher until the end-of-pass flush.
    fn admit(
        &mut self,
        slot: usize,
        id: u64,
        started: Option<Instant>,
        query: Query,
        feedback_actual: Option<u64>,
    ) {
        if let Err(refused) = self.service.check(&query) {
            return self.refuse(slot, started, error_message(id, refused.to_string()));
        }
        let budget = self.front.inflight_budget;
        if budget > 0 && self.batcher.len() >= budget {
            return self.shed(slot, id, started);
        }
        let generation = self.slots[slot].generation;
        let mut req = PendingReq { slot, generation, id, started, feedback: None };
        match self.service.probe(&query) {
            Ok(hit) => {
                req.feedback = feedback_actual.map(|actual| (query, actual));
                self.finish(req, hit);
            }
            Err(query_key) => {
                // A feedback request keeps its own copy to score once the
                // batch resolves; an estimate's query moves into the
                // annotation.
                req.feedback = feedback_actual.map(|actual| (query.clone(), actual));
                self.service.enqueue(&mut self.batcher, query, query_key, req);
                self.obs.inflight.set(self.batcher.len() as u64);
            }
        }
    }

    /// Event-driven micro-batching: everything admitted in this pass
    /// flushes together on this core, and every answer goes to its
    /// connection's write backlog.
    fn flush_batcher(&mut self) {
        let mut done = std::mem::take(&mut self.done);
        while self.service.flush(&mut self.batcher, |req, est| done.push((req, est))) > 0 {
            for (req, est) in done.drain(..) {
                self.finish(req, est);
            }
        }
        self.done = done;
        self.obs.inflight.set(0);
    }

    /// Answer one request with its estimate (cached or freshly batched).
    fn finish(&mut self, req: PendingReq, est: Estimate) {
        if self.slots[req.slot].generation != req.generation {
            return; // peer disconnected while its batch ran
        }
        let response = match req.feedback {
            Some((query, actual_card)) => {
                let _span = SpanTimer::start(&metrics::SERVE_FEEDBACK_NS);
                self.service.record_feedback(&query, est.cardinality, actual_card);
                Message::FeedbackAck { id: req.id, model_version: est.model_version }
            }
            None => {
                if let Some(started) = req.started {
                    metrics::SERVE_ESTIMATE_NS.record_duration(started.elapsed());
                }
                let Estimate { cardinality: estimate, model_version, micro_batch, cache_hit } = est;
                Message::EstimateResponse {
                    id: req.id,
                    estimate,
                    model_version,
                    micro_batch,
                    cache_hit,
                }
            }
        };
        self.respond(req.slot, response);
    }

    /// Encode a response into the connection's write backlog and mark
    /// the slot for the end-of-pass write sweep.
    fn respond(&mut self, slot: usize, response: Message) {
        if matches!(response, Message::Error { .. }) {
            metrics::SERVE_ERRORS.inc();
        }
        let conn = match self.slots[slot].conn.as_mut() {
            Some(conn) => conn,
            None => return,
        };
        response.encode(&mut conn.outbuf);
        if !conn.dirty {
            conn.dirty = true;
            self.dirty.push(slot);
        }
    }

    /// Write sweep: push each dirty connection's backlog into its
    /// socket; write interest stays armed only where the socket pushed
    /// back.
    fn flush_dirty(&mut self) {
        let dirty = std::mem::take(&mut self.dirty);
        for slot in dirty {
            if let Some(conn) = self.slots[slot].conn.as_mut() {
                conn.dirty = false;
            }
            self.write_some(slot);
        }
    }

    /// Write as much of the backlog as the socket accepts. On full
    /// drain, de-arm write interest and honor a pending close; on
    /// WouldBlock, arm write interest so the poller finishes the job.
    fn write_some(&mut self, slot: usize) {
        let outcome = {
            let conn = match self.slots[slot].conn.as_mut() {
                Some(conn) => conn,
                None => return,
            };
            loop {
                if !conn.has_backlog() {
                    break IoOutcome::Open;
                }
                match conn.stream.write(&conn.outbuf[conn.out_pos..]) {
                    Ok(0) => break IoOutcome::Closed,
                    Ok(n) => conn.out_pos += n,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break IoOutcome::Blocked,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => break IoOutcome::Closed,
                }
            }
        };
        let token = TOKEN_BASE + slot as u64;
        match outcome {
            IoOutcome::Closed => self.close(slot),
            IoOutcome::Blocked => {
                let conn = self.slots[slot].conn.as_mut().expect("blocked conn is live");
                if !conn.wants_write {
                    conn.wants_write = true;
                    let _ = self.poller.modify(
                        raw_fd(&conn.stream),
                        token,
                        lc_poll::READ | lc_poll::WRITE,
                    );
                }
            }
            IoOutcome::Open => {
                let close = {
                    let conn = self.slots[slot].conn.as_mut().expect("drained conn is live");
                    conn.out_pos = 0;
                    conn.outbuf = Vec::new();
                    if !conn.close_after_drain && conn.wants_write {
                        conn.wants_write = false;
                        let _ = self.poller.modify(raw_fd(&conn.stream), token, lc_poll::READ);
                    }
                    conn.close_after_drain
                };
                if close {
                    self.close(slot);
                }
            }
        }
    }

    fn close(&mut self, slot: usize) {
        if let Some(conn) = self.slots[slot].conn.take() {
            let _ = self.poller.delete(raw_fd(&conn.stream));
            drop(conn);
            self.slots[slot].generation += 1;
            self.free.push(slot);
            self.open_connections.fetch_sub(1, Ordering::Relaxed);
            self.obs.connections.set(self.live_connections() as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheConfig;
    use crate::config::ServeConfig;
    use crate::registry::ModelRegistry;
    use crate::service::tests::out_of_schema_queries;
    use crate::wire::{read_message, write_message, CAP_FEEDBACK, PROTOCOL_V1};
    use lc_core::{train, TrainConfig};
    use lc_engine::SampleSet;
    use lc_imdb::{generate, ImdbConfig};
    use lc_query::workloads;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use std::io::{BufReader, BufWriter};
    use std::time::Duration;

    fn tiny_service_with(
        config: ServeConfig,
    ) -> (Arc<EstimationService>, Vec<lc_query::LabeledQuery>) {
        let db = generate(&ImdbConfig::tiny());
        let mut rng = SmallRng::seed_from_u64(13);
        let samples = SampleSet::draw(&db, 24, &mut rng);
        let data = workloads::synthetic(&db, &samples, 120, 2, 91).queries;
        let cfg = TrainConfig { epochs: 2, hidden: 16, ..TrainConfig::default() };
        let est = train(&db, 24, &data, cfg).estimator;
        let registry = Arc::new(ModelRegistry::new(est));
        (Arc::new(EstimationService::new(db, samples, registry, config)), data)
    }

    fn tiny_service() -> (Arc<EstimationService>, Vec<lc_query::LabeledQuery>) {
        tiny_service_with(ServeConfig::default())
    }

    /// Bit 5 and kind 17 belonged to the retired tier-attributed estimate
    /// frame and are never reused. A v2 client that still asks for the
    /// bit is acked without it and gets plain `EstimateResponse` frames;
    /// a client that sends a kind-17 frame gets an `Error` frame and is
    /// closed, while the shard keeps serving its other connections.
    #[test]
    fn retired_tier_bit_and_kind_are_refused() {
        let one_shard = ServeConfig {
            front: FrontConfig { shards: 1, ..FrontConfig::default() },
            ..ServeConfig::default()
        };
        let (service, data) = tiny_service_with(one_shard);
        let handle = serve(Arc::clone(&service), "127.0.0.1:0").expect("bind");
        let connect = || {
            let stream = TcpStream::connect(handle.local_addr()).expect("connect");
            (BufReader::new(stream.try_clone().unwrap()), BufWriter::new(stream))
        };
        let estimate = |reader: &mut BufReader<TcpStream>,
                        writer: &mut BufWriter<TcpStream>,
                        id: u64,
                        query: &Query| {
            write_message(writer, &Message::EstimateRequest { id, query: query.clone() }).unwrap();
            writer.flush().unwrap();
            match read_message(reader, PROTOCOL_VERSION).unwrap() {
                Some(Message::EstimateResponse { id: rid, estimate, cache_hit, .. })
                    if rid == id && estimate >= 1.0 =>
                {
                    cache_hit
                }
                other => panic!("expected EstimateResponse {id}, got {other:?}"),
            }
        };

        let (mut reader, mut writer) = connect();
        let hello = Message::Hello {
            id: 0,
            version: PROTOCOL_VERSION,
            capabilities: CAPABILITIES | 1 << 5,
        };
        write_message(&mut writer, &hello).unwrap();
        writer.flush().unwrap();
        match read_message(&mut reader, PROTOCOL_VERSION).unwrap() {
            Some(Message::HelloAck { capabilities, .. }) => {
                assert_eq!(capabilities & 1 << 5, 0, "the retired bit 5 was granted");
                assert_eq!(capabilities, CAPABILITIES);
            }
            other => panic!("expected HelloAck, got {other:?}"),
        }
        // A fresh inference, then a cache hit: both plain responses.
        assert!(!estimate(&mut reader, &mut writer, 7, &data[0].query));
        assert!(estimate(&mut reader, &mut writer, 7, &data[0].query));

        // The exact bytes kind 17 was pinned to before it retired.
        let (mut rogue_reader, mut rogue_writer) = connect();
        let mut frame = vec![0x23, 0, 0, 0, 17];
        frame.extend_from_slice(&u64::MAX.to_le_bytes());
        frame.extend_from_slice(&1.0f64.to_le_bytes());
        frame.extend_from_slice(&[0xff, 0xff, 0xff, 0xff, 8, 0, 0, 0, 0, 2]);
        frame.extend_from_slice(&(-0.0f64).to_le_bytes());
        rogue_writer.write_all(&frame).unwrap();
        rogue_writer.flush().unwrap();
        match read_message(&mut rogue_reader, PROTOCOL_VERSION).unwrap() {
            Some(Message::Error { id: 0, message }) => {
                assert!(message.contains("unknown frame kind 17"), "got: {message}");
            }
            other => panic!("expected Error frame, got {other:?}"),
        }
        assert_eq!(read_message(&mut rogue_reader, PROTOCOL_VERSION).unwrap(), None);

        // The shard still serves the open connection and a new one.
        assert!(!estimate(&mut reader, &mut writer, 8, &data[1].query));
        let (mut reader, mut writer) = connect();
        assert!(estimate(&mut reader, &mut writer, 9, &data[1].query));

        handle.shutdown();
        service.shutdown();
    }

    #[test]
    fn serves_requests_pings_and_rejects_garbage() {
        let one_shard = ServeConfig {
            front: FrontConfig { shards: 1, ..FrontConfig::default() },
            ..ServeConfig::default()
        };
        let (service, data) = tiny_service_with(one_shard);
        let handle = serve(Arc::clone(&service), "127.0.0.1:0").expect("bind");
        let addr = handle.local_addr();

        let stream = TcpStream::connect(addr).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = BufWriter::new(stream);

        // Ping / pong.
        write_message(&mut writer, &Message::Ping { id: 5 }).unwrap();
        writer.flush().unwrap();
        assert_eq!(
            read_message(&mut reader, PROTOCOL_VERSION).unwrap(),
            Some(Message::Pong { id: 5 })
        );

        // Real estimate round-trips, each query twice (the repeat hits
        // the cache).
        let mut served = Vec::new();
        for (i, l) in data.iter().take(8).enumerate() {
            for expect_hit in [false, true] {
                let id = 70 + i as u64;
                write_message(
                    &mut writer,
                    &Message::EstimateRequest { id, query: l.query.clone() },
                )
                .unwrap();
                writer.flush().unwrap();
                match read_message(&mut reader, PROTOCOL_VERSION).unwrap() {
                    Some(Message::EstimateResponse {
                        id: rid,
                        estimate,
                        model_version,
                        cache_hit,
                        ..
                    }) => {
                        assert_eq!(rid, id);
                        assert!(estimate >= 1.0);
                        assert_eq!(cache_hit, expect_hit);
                        served.push((estimate.to_bits(), model_version, cache_hit));
                    }
                    other => panic!("unexpected reply: {other:?}"),
                }
            }
        }

        // The shard ran those down the same lane the in-process API
        // drives: an identical service asked directly gives the same bits
        // and ends with the same counters.
        let (twin, _) = tiny_service_with(one_shard);
        let mut direct = Vec::new();
        for l in data.iter().take(8) {
            for _ in 0..2 {
                let pending = twin.submit(&l.query);
                twin.flush_now();
                let got = pending.wait().unwrap();
                direct.push((got.cardinality.to_bits(), got.model_version, got.cache_hit));
            }
        }
        assert_eq!(served, direct, "the wire and the in-process lane disagree");
        let cache = service.cache_stats();
        assert_eq!((cache.hits, cache.misses), (8, 8));
        assert_eq!(cache, twin.cache_stats());
        assert_eq!(service.batch_stats(), twin.batch_stats());
        assert_eq!(service.batch_stats().requests, 8, "shard flushes count on the service");

        // Garbage: declared length 16, bodies of zeros → decode error,
        // server answers with an Error frame and closes the connection.
        let garbage = TcpStream::connect(addr).expect("connect");
        let mut greader = BufReader::new(garbage.try_clone().unwrap());
        let mut gwriter = BufWriter::new(garbage);
        gwriter.write_all(&16u32.to_le_bytes()).unwrap();
        gwriter.write_all(&[0u8; 16]).unwrap();
        gwriter.flush().unwrap();
        match read_message(&mut greader, PROTOCOL_VERSION).unwrap() {
            Some(Message::Error { id: 0, message }) => {
                assert!(message.contains("wire protocol error"), "got: {message}");
            }
            other => panic!("expected Error frame, got {other:?}"),
        }
        assert_eq!(
            read_message(&mut greader, PROTOCOL_VERSION).unwrap(),
            None,
            "server closed after error"
        );

        handle.shutdown();
        service.shutdown();
    }

    /// A query that decodes but lies outside the served schema is refused
    /// with an Error frame carrying its id, as an estimate and as feedback,
    /// and the shard keeps serving the connection.
    #[test]
    fn out_of_schema_queries_get_error_frames_and_the_connection_survives() {
        let one_shard = ServeConfig {
            front: FrontConfig { shards: 1, ..FrontConfig::default() },
            ..ServeConfig::default()
        };
        let (service, data) = tiny_service_with(one_shard);
        let handle = serve(Arc::clone(&service), "127.0.0.1:0").expect("bind");
        let stream = TcpStream::connect(handle.local_addr()).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = BufWriter::new(stream);

        let db = generate(&ImdbConfig::tiny());
        for (i, query) in out_of_schema_queries(db.schema()).into_iter().enumerate() {
            let id = 2 * i as u64;
            for (id, request) in [
                (id, Message::EstimateRequest { id, query: query.clone() }),
                (id + 1, Message::Feedback { id: id + 1, query, actual_card: 10 }),
            ] {
                write_message(&mut writer, &request).unwrap();
                writer.flush().unwrap();
                match read_message(&mut reader, PROTOCOL_VERSION) {
                    Ok(Some(Message::Error { id: got, message })) => {
                        assert_eq!(got, id);
                        assert!(message.contains("schema"), "got: {message}");
                    }
                    other => panic!("{request:?} got {other:?}"),
                }
            }
        }
        write_message(
            &mut writer,
            &Message::EstimateRequest { id: 99, query: data[0].query.clone() },
        )
        .unwrap();
        writer.flush().unwrap();
        assert!(matches!(
            read_message(&mut reader, PROTOCOL_VERSION).unwrap(),
            Some(Message::EstimateResponse { id: 99, .. })
        ));
        assert_eq!(service.drift().feedback_count(), 0, "refused feedback was recorded");

        handle.shutdown();
        service.shutdown();
    }

    /// An "old" client — speaks v1, never sends a hello, only kinds 1–5 —
    /// must keep working against the v2 server, byte for byte.
    #[test]
    fn v1_client_without_hello_is_served_unchanged() {
        let (service, data) = tiny_service();
        let handle = serve(Arc::clone(&service), "127.0.0.1:0").expect("bind");
        let stream = TcpStream::connect(handle.local_addr()).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = BufWriter::new(stream);

        // The v1 exchange: ping, then an estimate — decoded by the
        // client strictly at v1, as an old binary would.
        write_message(&mut writer, &Message::Ping { id: 1 }).unwrap();
        writer.flush().unwrap();
        assert_eq!(read_message(&mut reader, PROTOCOL_V1).unwrap(), Some(Message::Pong { id: 1 }));
        write_message(
            &mut writer,
            &Message::EstimateRequest { id: 2, query: data[0].query.clone() },
        )
        .unwrap();
        writer.flush().unwrap();
        match read_message(&mut reader, PROTOCOL_V1).unwrap() {
            Some(Message::EstimateResponse { id: 2, estimate, .. }) => assert!(estimate >= 1.0),
            other => panic!("v1 client got {other:?}"),
        }

        handle.shutdown();
        service.shutdown();
    }

    /// Hello negotiation pins the connection to min(version) ∩ caps, and
    /// the server enforces both: v2 kinds above a v1-negotiated
    /// connection fail with the *negotiated* version in the error, and
    /// un-negotiated capabilities are refused.
    #[test]
    fn negotiation_gates_version_and_capabilities() {
        let (service, data) = tiny_service();
        let handle = serve(Arc::clone(&service), "127.0.0.1:0").expect("bind");

        // Client negotiates v2 but only the stats capability: feedback
        // frames must be refused even though the server implements them.
        let stream = TcpStream::connect(handle.local_addr()).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = BufWriter::new(stream);
        write_message(
            &mut writer,
            &Message::Hello { id: 1, version: PROTOCOL_VERSION, capabilities: CAP_STATS },
        )
        .unwrap();
        writer.flush().unwrap();
        assert_eq!(
            read_message(&mut reader, PROTOCOL_VERSION).unwrap(),
            Some(Message::HelloAck { id: 1, version: PROTOCOL_VERSION, capabilities: CAP_STATS })
        );
        write_message(
            &mut writer,
            &Message::Feedback { id: 2, query: data[0].query.clone(), actual_card: 10 },
        )
        .unwrap();
        writer.flush().unwrap();
        match read_message(&mut reader, PROTOCOL_VERSION).unwrap() {
            Some(Message::Error { id: 2, message }) => {
                assert!(message.contains("capability"), "got: {message}");
            }
            other => panic!("expected capability refusal, got {other:?}"),
        }

        // A (misbehaving) client that negotiates down to v1 and then
        // sends a v2 kind gets a version-gate error naming v1.
        let stream = TcpStream::connect(handle.local_addr()).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = BufWriter::new(stream);
        write_message(
            &mut writer,
            &Message::Hello { id: 3, version: PROTOCOL_V1, capabilities: CAP_FEEDBACK },
        )
        .unwrap();
        writer.flush().unwrap();
        assert_eq!(
            read_message(&mut reader, PROTOCOL_VERSION).unwrap(),
            Some(Message::HelloAck { id: 3, version: PROTOCOL_V1, capabilities: CAP_FEEDBACK })
        );
        write_message(&mut writer, &Message::StatsRequest { id: 4 }).unwrap();
        writer.flush().unwrap();
        match read_message(&mut reader, PROTOCOL_VERSION).unwrap() {
            Some(Message::Error { id: 0, message }) => {
                assert!(message.contains("(v1)"), "error must name negotiated v1: {message}");
            }
            other => panic!("expected version-gate error, got {other:?}"),
        }

        handle.shutdown();
        service.shutdown();
    }

    /// A CPU list as the kernel prints it (`0-2,5`), expanded.
    fn cpu_list(list: &str) -> Vec<usize> {
        let range = |part: &str| {
            let (lo, hi) = part.split_once('-').unwrap_or((part, part));
            lo.parse::<usize>().unwrap()..=hi.parse::<usize>().unwrap()
        };
        list.trim().split(',').flat_map(range).collect()
    }

    /// Allowed CPUs of every live task of this process named `name`.
    fn task_cpus(name: &str) -> Vec<Vec<usize>> {
        let Ok(tasks) = std::fs::read_dir("/proc/self/task") else { return Vec::new() };
        tasks
            .flatten()
            .filter_map(|task| {
                let comm = std::fs::read_to_string(task.path().join("comm")).ok()?;
                let status = std::fs::read_to_string(task.path().join("status")).ok()?;
                let list = status.lines().find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
                (comm.trim() == name).then(|| cpu_list(list))
            })
            .collect()
    }

    /// A retrain tripped by feedback on a pinned shard inherits the
    /// shard's one-CPU mask at spawn; placement must move it off that
    /// CPU while it trains.
    #[test]
    fn a_retrain_tripped_on_a_pinned_shard_runs_beside_it() {
        use crate::config::{DriftConfig, FrontConfig};
        if lc_nn::process_cpus().len() < 2
            || !lc_nn::RuntimeConfig::global().pin_workers
            || !cfg!(all(target_os = "linux", target_arch = "x86_64"))
        {
            return; // one CPU, pinning off, or no affinity syscall
        }
        let drift = DriftConfig {
            window: 16,
            min_samples: 8,
            qerror_threshold: 2.0,
            min_corpus: 8,
            retrain: TrainConfig { epochs: 1000, ..DriftConfig::default().retrain },
            ..DriftConfig::default()
        };
        let front = FrontConfig { shards: 1, ..FrontConfig::default() };
        let (service, data) = tiny_service_with(ServeConfig { drift, front, ..Default::default() });
        let handle = serve(Arc::clone(&service), "127.0.0.1:0").expect("bind");
        let shard_cpus = service.serving_cpus();
        assert_eq!(shard_cpus, vec![lc_nn::core_for(0)], "the shard claimed its CPU");
        assert_eq!(task_cpus("lc-shard-0"), vec![shard_cpus.clone()]);

        let stream = TcpStream::connect(handle.local_addr()).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = BufWriter::new(stream);
        // Wildly wrong actuals: every observation is a large q-error, so
        // the first template to reach `min_samples` trips on the shard.
        let mut id = 0;
        while !service.retrain_in_flight() && service.drift().retrains() == 0 {
            assert!(id < 400, "feedback never tripped a retrain");
            let query = data[id % 5].query.clone();
            write_message(
                &mut writer,
                &Message::Feedback { id: id as u64, query, actual_card: 1_000_000 },
            )
            .unwrap();
            writer.flush().unwrap();
            assert!(matches!(
                read_message(&mut reader, PROTOCOL_VERSION).unwrap(),
                Some(Message::FeedbackAck { .. })
            ));
            id += 1;
        }
        // Sibling tests' retrainers run on every CPU; only one placed
        // beside a shard leaves one out.
        let mut seen = None;
        while seen.is_none() && service.retrain_in_flight() {
            seen = task_cpus("lc-retrain").into_iter().find(|cpus| !cpus.contains(&shard_cpus[0]));
            std::thread::yield_now();
        }
        assert_eq!(
            seen,
            Some(lc_nn::cpus_beside(lc_nn::process_cpus(), &shard_cpus).0),
            "the retrainer never left the shard's CPU {shard_cpus:?}"
        );
        handle.shutdown();
        service.shutdown();
    }

    /// `shards: 0` sizes the front from the process CPU set, so a server
    /// started from a thread pinned to one CPU still runs one shard per CPU.
    #[test]
    fn default_shard_count_is_the_process_cpu_count_from_a_pinned_thread() {
        if lc_nn::process_cpus().len() < 2 {
            return; // one CPU: nothing to tell apart
        }
        let (service, _) = tiny_service();
        let pinned = Arc::clone(&service);
        let handle = std::thread::spawn(move || {
            lc_nn::pin_thread_to_core(0).then(|| serve(pinned, "127.0.0.1:0").expect("bind"))
        })
        .join()
        .unwrap();
        if let Some(handle) = handle {
            assert_eq!(handle.shard_count(), lc_nn::process_cpus().len());
            handle.shutdown();
        } // else pinning is off or unsupported here
        service.shutdown();
    }

    /// The feedback → drift → retrain loop over the real TCP path.
    #[test]
    fn feedback_and_stats_over_the_wire() {
        let (service, data) = tiny_service();
        let handle = serve(Arc::clone(&service), "127.0.0.1:0").expect("bind");
        let stream = TcpStream::connect(handle.local_addr()).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = BufWriter::new(stream);

        write_message(
            &mut writer,
            &Message::Hello { id: 0, version: PROTOCOL_VERSION, capabilities: CAPABILITIES },
        )
        .unwrap();
        writer.flush().unwrap();
        assert!(matches!(
            read_message(&mut reader, PROTOCOL_VERSION).unwrap(),
            Some(Message::HelloAck { version: PROTOCOL_VERSION, .. })
        ));

        for (i, l) in data.iter().take(8).enumerate() {
            write_message(
                &mut writer,
                &Message::Feedback {
                    id: i as u64,
                    query: l.query.clone(),
                    actual_card: l.cardinality.max(1),
                },
            )
            .unwrap();
            writer.flush().unwrap();
            match read_message(&mut reader, PROTOCOL_VERSION).unwrap() {
                Some(Message::FeedbackAck { id, model_version }) => {
                    assert_eq!(id, i as u64);
                    assert_eq!(model_version, 1);
                }
                other => panic!("expected FeedbackAck, got {other:?}"),
            }
        }

        write_message(&mut writer, &Message::StatsRequest { id: 99 }).unwrap();
        writer.flush().unwrap();
        match read_message(&mut reader, PROTOCOL_VERSION).unwrap() {
            Some(Message::Stats { id: 99, model_version, retrains, feedback_count, templates }) => {
                assert_eq!(model_version, 1);
                assert_eq!(retrains, 0);
                assert_eq!(feedback_count, 8);
                assert!(!templates.is_empty());
                assert!(templates.iter().all(|t| t.mean_qerror >= 1.0));
            }
            other => panic!("expected Stats, got {other:?}"),
        }

        write_message(&mut writer, &Message::DriftStatusRequest { id: 100 }).unwrap();
        writer.flush().unwrap();
        match read_message(&mut reader, PROTOCOL_VERSION).unwrap() {
            Some(Message::DriftStatus { id: 100, retrain_in_flight, templates }) => {
                assert!(!retrain_in_flight);
                assert!(templates.iter().all(|t| !t.tripped), "8 accurate obs must not trip");
            }
            other => panic!("expected DriftStatus, got {other:?}"),
        }

        handle.shutdown();
        service.shutdown();
    }

    /// Regression for the old accept-loop race: `shutdown()` used to
    /// poke the blocking accept loop with a throwaway connection and
    /// left connection threads lingering on idle peers. The reactor
    /// front must stop promptly with idle connections parked and zero
    /// inbound traffic.
    #[test]
    fn shutdown_returns_promptly_with_idle_connections() {
        let (service, _) = tiny_service();
        let handle = serve(Arc::clone(&service), "127.0.0.1:0").expect("bind");
        let addr = handle.local_addr();
        // Park idle connections on the server; never send a byte.
        let idle: Vec<TcpStream> =
            (0..8).map(|_| TcpStream::connect(addr).expect("connect")).collect();
        // Give the reactors a moment to accept them all.
        std::thread::sleep(Duration::from_millis(100));
        let started = Instant::now();
        handle.shutdown();
        let elapsed = started.elapsed();
        assert!(
            elapsed < Duration::from_secs(5),
            "shutdown took {elapsed:?} with idle connections parked"
        );
        drop(idle);
        service.shutdown();
    }

    /// Admission control: a pipelined burst beyond the per-shard
    /// in-flight budget is shed — Busy frames for CAP_RETRY clients —
    /// while admitted requests are answered normally, with zero hard
    /// errors and the connection still healthy afterwards.
    #[test]
    fn overload_sheds_with_busy_frames_and_keeps_the_connection() {
        const BUDGET: usize = 4;
        const BURST: usize = 12;
        let (service, data) = tiny_service_with(ServeConfig {
            front: FrontConfig { shards: 1, inflight_budget: BUDGET, ..FrontConfig::default() },
            // Cache off so every admitted request must go through the
            // batcher and the budget is exercised deterministically.
            cache: CacheConfig { capacity: 0, ..CacheConfig::default() },
            ..ServeConfig::default()
        });
        let handle = serve(Arc::clone(&service), "127.0.0.1:0").expect("bind");
        let stream = TcpStream::connect(handle.local_addr()).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = BufWriter::new(stream);

        write_message(
            &mut writer,
            &Message::Hello { id: 0, version: PROTOCOL_VERSION, capabilities: CAPABILITIES },
        )
        .unwrap();
        writer.flush().unwrap();
        assert!(matches!(
            read_message(&mut reader, PROTOCOL_VERSION).unwrap(),
            Some(Message::HelloAck { .. })
        ));

        // Pipeline the whole burst in one write. The shard usually
        // decodes it in a single readiness pass (admitting exactly
        // BUDGET), but TCP may split the burst across passes — so the
        // assertions are: nothing lost, no hard errors, and at least
        // one shed with the configured retry hint.
        for id in 0..BURST as u64 {
            write_message(
                &mut writer,
                &Message::EstimateRequest { id, query: data[id as usize].query.clone() },
            )
            .unwrap();
        }
        writer.flush().unwrap();
        let (mut answered, mut shed) = (0usize, 0usize);
        for _ in 0..BURST {
            match read_message(&mut reader, PROTOCOL_VERSION).unwrap() {
                Some(Message::EstimateResponse { estimate, .. }) => {
                    assert!(estimate >= 1.0);
                    answered += 1;
                }
                Some(Message::Busy { retry_after_ms, .. }) => {
                    assert_eq!(retry_after_ms, FrontConfig::default().retry_after_ms);
                    shed += 1;
                }
                other => panic!("unexpected reply under overload: {other:?}"),
            }
        }
        assert_eq!(answered + shed, BURST, "every request must be answered or shed");
        assert!(answered >= BUDGET, "the budget's worth must be admitted");
        assert!(shed >= 1, "a {BURST}-deep burst over budget {BUDGET} must shed");

        // The connection stays healthy: the next request is admitted.
        write_message(
            &mut writer,
            &Message::EstimateRequest { id: 99, query: data[0].query.clone() },
        )
        .unwrap();
        writer.flush().unwrap();
        assert!(matches!(
            read_message(&mut reader, PROTOCOL_VERSION).unwrap(),
            Some(Message::EstimateResponse { id: 99, .. })
        ));

        // A v1 client (no hello) shed over budget gets a plain Error it
        // can decode, never a v2 Busy frame.
        let stream = TcpStream::connect(handle.local_addr()).expect("connect");
        let mut v1_reader = BufReader::new(stream.try_clone().unwrap());
        let mut v1_writer = BufWriter::new(stream);
        for id in 0..BURST as u64 {
            write_message(
                &mut v1_writer,
                &Message::EstimateRequest { id, query: data[id as usize].query.clone() },
            )
            .unwrap();
        }
        v1_writer.flush().unwrap();
        let (mut v1_answered, mut v1_busy_errors) = (0usize, 0usize);
        for _ in 0..BURST {
            match read_message(&mut v1_reader, PROTOCOL_V1).unwrap() {
                Some(Message::EstimateResponse { .. }) => v1_answered += 1,
                Some(Message::Error { message, .. }) => {
                    assert!(message.contains("busy"), "got: {message}");
                    v1_busy_errors += 1;
                }
                other => panic!("v1 overload reply: {other:?}"),
            }
        }
        assert_eq!(v1_answered + v1_busy_errors, BURST);
        assert!(v1_busy_errors >= 1, "v1 burst over budget must shed with Error frames");

        handle.shutdown();
        service.shutdown();
    }

    /// Frames split at arbitrary byte offsets must decode identically to
    /// whole-frame writes — the incremental decoder cannot depend on TCP
    /// segment boundaries.
    #[test]
    fn split_writes_at_every_offset_decode_correctly() {
        let (service, data) = tiny_service();
        let handle = serve(Arc::clone(&service), "127.0.0.1:0").expect("bind");
        let stream = TcpStream::connect(handle.local_addr()).expect("connect");
        stream.set_nodelay(true).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut raw = stream;

        let mut frame = Vec::new();
        Message::EstimateRequest { id: 7, query: data[1].query.clone() }.encode(&mut frame);
        // Dribble the frame one byte at a time: every prefix length is a
        // split offset the decoder must park on without progress or
        // error.
        for &byte in &frame {
            raw.write_all(&[byte]).unwrap();
            raw.flush().unwrap();
        }
        match read_message(&mut reader, PROTOCOL_VERSION).unwrap() {
            Some(Message::EstimateResponse { id: 7, estimate, .. }) => assert!(estimate >= 1.0),
            other => panic!("byte-dribbled frame got {other:?}"),
        }

        // Two frames fused into one write: both answered, in order.
        let mut fused = Vec::new();
        Message::Ping { id: 1 }.encode(&mut fused);
        Message::Ping { id: 2 }.encode(&mut fused);
        raw.write_all(&fused).unwrap();
        raw.flush().unwrap();
        assert_eq!(
            read_message(&mut reader, PROTOCOL_VERSION).unwrap(),
            Some(Message::Pong { id: 1 })
        );
        assert_eq!(
            read_message(&mut reader, PROTOCOL_VERSION).unwrap(),
            Some(Message::Pong { id: 2 })
        );

        handle.shutdown();
        service.shutdown();
    }

    /// The global connection cap refuses surplus connections at accept
    /// while the connections under the cap keep being served.
    #[test]
    fn connection_cap_refuses_surplus_connections() {
        let (service, data) = tiny_service_with(ServeConfig {
            front: FrontConfig { shards: 1, max_connections: 2, ..FrontConfig::default() },
            ..ServeConfig::default()
        });
        let handle = serve(Arc::clone(&service), "127.0.0.1:0").expect("bind");
        let addr = handle.local_addr();

        let keep1 = TcpStream::connect(addr).expect("connect");
        let keep2 = TcpStream::connect(addr).expect("connect");
        // Let the reactor accept both before over-filling.
        std::thread::sleep(Duration::from_millis(100));
        // The surplus connection is accepted by the kernel and then
        // closed by the server: its first read reports EOF.
        let surplus = TcpStream::connect(addr).expect("connect");
        surplus.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut surplus_reader = BufReader::new(surplus);
        let mut byte = [0u8; 1];
        assert_eq!(
            surplus_reader.read(&mut byte).expect("surplus read"),
            0,
            "over-cap connection must be closed by the server"
        );

        // The admitted connections still serve.
        let mut reader = BufReader::new(keep1.try_clone().unwrap());
        let mut writer = BufWriter::new(keep1);
        write_message(
            &mut writer,
            &Message::EstimateRequest { id: 4, query: data[0].query.clone() },
        )
        .unwrap();
        writer.flush().unwrap();
        assert!(matches!(
            read_message(&mut reader, PROTOCOL_VERSION).unwrap(),
            Some(Message::EstimateResponse { id: 4, .. })
        ));

        drop(keep2);
        handle.shutdown();
        service.shutdown();
    }
}
