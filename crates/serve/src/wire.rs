//! The versioned, length-prefixed binary wire protocol.
//!
//! Every message is one *frame*: a `u32` little-endian body length
//! followed by the body; the body's first byte is the message kind tag.
//! The layout discipline follows `lc_core::serialize` — explicit
//! little-endian fields via the `bytes` accessors, no self-describing
//! format — so the protocol stays auditable byte by byte:
//!
//! ```text
//! frame        := u32 body_len | body         (body_len ≤ MAX_FRAME_LEN)
//! body         := u8 kind | u64 id | payload
//!
//! # protocol version 1 (kinds 1–5)
//! request      := kind 1  | canonical query encoding
//! response     := kind 2  | f64 estimate | u32 model_version
//!                         | u32 micro_batch | u8 flags   (bit 0: cache hit)
//! error        := kind 3  | u32 len | utf-8 message
//! ping         := kind 4
//! pong         := kind 5
//!
//! # protocol version 2 (kinds 6–17)
//! hello        := kind 6  | u8 version | u8 capabilities
//! hello_ack    := kind 7  | u8 version | u8 capabilities (both negotiated)
//! feedback     := kind 8  | u64 actual_card | canonical query encoding
//! feedback_ack := kind 9  | u32 model_version
//! stats_req    := kind 10
//! stats        := kind 11 | u32 model_version | u32 retrains
//!                         | u64 feedback_count | u16 n | n × template_stat
//! drift_req    := kind 12
//! drift_status := kind 13 | u8 retrain_in_flight | u16 n | n × template_drift
//! metrics_req  := kind 14
//! metrics      := kind 15 | u64 uptime_ns | u16 n | n × scalar_metric
//!                         | u16 m | m × histogram_metric
//! busy         := kind 16 | u32 retry_after_ms
//! est_detail   := kind 17 | f64 estimate | u32 model_version
//!                         | u32 micro_batch | u8 flags   (bit 0: cache hit)
//!                         | u8 tier | f64 log_std
//!
//! template_stat  := u32 template | u64 count | f64 mean_qerror
//! template_drift := u32 template | u32 window_len | f64 rolling_qerror
//!                 | u8 tripped
//! scalar_metric  := u16 metric_id | u8 is_gauge | u64 value
//! histogram_metric := u16 metric_id | u64 sum | u64 max
//!                   | u64 mask | popcount(mask) × u64 bucket_count
//! ```
//!
//! A histogram's 64 log₂ buckets travel sparsely: `mask` bit *i* is set
//! iff bucket *i* is nonzero, and only the nonzero counts follow, in
//! bucket order. The encoding is canonical — a zero count under a set
//! mask bit is rejected as malformed — so encode → decode is exact and
//! a re-encode is byte-identical.
//!
//! # Versioning and capabilities
//!
//! A v2 client opens every connection with [`Message::Hello`] carrying
//! its protocol version and a capability byte; the server answers
//! [`Message::HelloAck`] with the **negotiated** pair (minimum version,
//! capability intersection — see [`negotiate`]). A v1 client never sends
//! a hello; the server simply treats the connection as v1 and keeps
//! answering kinds 1–5 exactly as before, which is what keeps old
//! clients working against new servers. Decoding is version-gated:
//! [`Message::decode_body`] run at version 1 rejects v2 kinds with
//! [`WireError::KindAboveVersion`] instead of misparsing them.
//!
//! Adding the next message is a one-arm diff: pick the next kind tag,
//! add the enum arm and its encode/decode match arms, and gate it on the
//! version that introduces it — the frame layer, hello exchange, and
//! error taxonomy all stay untouched.
//!
//! The message `id` is an opaque client token echoed back in the
//! matching response, so a client may pipeline requests on one
//! connection. Decoding is strict: every read is bounds-checked, a body
//! must be consumed exactly, and malformed input yields a typed
//! [`WireError`] that names the negotiated version being parsed — never
//! a panic, since these bytes arrive from the network.

use std::io::{self, Read, Write};

use bytes::{Buf, BufMut};
use lc_query::Query;

/// Upper bound on a frame body, bounding per-connection buffer growth. A
/// maximal query (hundreds of predicates) encodes to a few KiB; 1 MiB
/// leaves two orders of magnitude of headroom.
pub const MAX_FRAME_LEN: usize = 1 << 20;

/// The original protocol: kinds 1–5 (estimate, error, ping/pong).
pub const PROTOCOL_V1: u8 = 1;
/// The current protocol: adds hello negotiation, feedback, stats, drift
/// status, metrics, busy/retry load-shedding, and estimate detail
/// (kinds 6–17).
pub const PROTOCOL_VERSION: u8 = 2;

/// Capability bit: the server accepts [`Message::Feedback`] frames.
pub const CAP_FEEDBACK: u8 = 1;
/// Capability bit: the server answers [`Message::StatsRequest`].
pub const CAP_STATS: u8 = 1 << 1;
/// Capability bit: the server answers [`Message::DriftStatusRequest`].
pub const CAP_DRIFT: u8 = 1 << 2;
/// Capability bit: the server answers [`Message::MetricsRequest`] with a
/// full [`Message::MetricsSnapshot`] of the `lc_obs` catalog.
pub const CAP_METRICS: u8 = 1 << 3;
/// Capability bit: under overload the server sheds this connection's
/// requests with [`Message::Busy`] (retry after a hint) instead of a
/// terse [`Message::Error`]. Clients that do not negotiate it — all v1
/// clients — keep receiving plain errors, byte-identically to before.
pub const CAP_RETRY: u8 = 1 << 4;
/// Capability bit: the server answers estimate requests with
/// [`Message::EstimateDetail`] (tier attribution + trust signal) instead
/// of the v1 [`Message::EstimateResponse`]. Connections that do not
/// negotiate it — all v1 clients and older v2 clients — keep receiving
/// plain responses, byte-identically to before.
pub const CAP_TIER: u8 = 1 << 5;
/// Every capability this build implements.
pub const CAPABILITIES: u8 =
    CAP_FEEDBACK | CAP_STATS | CAP_DRIFT | CAP_METRICS | CAP_RETRY | CAP_TIER;

/// Negotiate a hello: the connection runs at the *minimum* of the two
/// protocol versions and the *intersection* of the capability sets.
pub fn negotiate(client_version: u8, client_caps: u8) -> (u8, u8) {
    (client_version.min(PROTOCOL_VERSION), client_caps & CAPABILITIES)
}

/// Error produced by message decoding. Every variant records the
/// protocol `version` the decoder was negotiated to when it hit the
/// problem — on a shared port that is the difference between "this peer
/// is broken" and "this peer is speaking a newer protocol".
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The body ended before a field: `need` bytes for `what`, only
    /// `have` left.
    Truncated {
        /// Negotiated protocol version being parsed.
        version: u8,
        /// The field being read when bytes ran out.
        what: &'static str,
        /// Bytes the field requires.
        need: usize,
        /// Bytes remaining in the body.
        have: usize,
    },
    /// The length prefix exceeds [`MAX_FRAME_LEN`].
    Oversized {
        /// Negotiated protocol version being parsed.
        version: u8,
        /// The advertised body length.
        len: usize,
    },
    /// A kind tag no protocol version defines.
    UnknownKind {
        /// Negotiated protocol version being parsed.
        version: u8,
        /// The offending kind tag.
        kind: u8,
    },
    /// A kind tag defined by a *newer* protocol version than the
    /// connection negotiated.
    KindAboveVersion {
        /// Negotiated protocol version being parsed.
        version: u8,
        /// The kind tag that needs a newer version.
        kind: u8,
    },
    /// Bytes left over after the body decoded completely.
    Trailing {
        /// Negotiated protocol version being parsed.
        version: u8,
        /// The kind tag that decoded cleanly before the garbage.
        kind: u8,
        /// Number of unconsumed bytes.
        extra: usize,
    },
    /// The stream ended inside a frame (connection torn mid-message).
    Torn {
        /// Negotiated protocol version being parsed.
        version: u8,
        /// What the stream was inside when it ended.
        detail: String,
    },
    /// A field decoded but its value is invalid (bad flags, non-UTF-8
    /// text, nested query encoding errors, ...).
    Malformed {
        /// Negotiated protocol version being parsed.
        version: u8,
        /// Human-readable description.
        detail: String,
    },
}

impl WireError {
    /// The negotiated protocol version the decoder was running when it
    /// produced this error.
    pub fn version(&self) -> u8 {
        match self {
            WireError::Truncated { version, .. }
            | WireError::Oversized { version, .. }
            | WireError::UnknownKind { version, .. }
            | WireError::KindAboveVersion { version, .. }
            | WireError::Trailing { version, .. }
            | WireError::Torn { version, .. }
            | WireError::Malformed { version, .. } => *version,
        }
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "wire protocol error (v{}): ", self.version())?;
        match self {
            WireError::Truncated { what, need, have, .. } => {
                write!(f, "truncated {what}: need {need} bytes, have {have}")
            }
            WireError::Oversized { len, .. } => {
                write!(f, "frame body of {len} bytes exceeds MAX_FRAME_LEN")
            }
            WireError::UnknownKind { kind, .. } => write!(f, "unknown frame kind {kind}"),
            WireError::KindAboveVersion { kind, version } => {
                write!(f, "frame kind {kind} needs a protocol version above {version}")
            }
            WireError::Trailing { kind, extra, .. } => {
                write!(f, "{extra} trailing bytes after kind-{kind} frame body")
            }
            WireError::Torn { detail, .. } => write!(f, "{detail}"),
            WireError::Malformed { detail, .. } => write!(f, "{detail}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Response metadata flag: the estimate was answered from the cache.
const FLAG_CACHE_HIT: u8 = 1;

/// Per-join-template feedback summary carried by [`Message::Stats`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TemplateStat {
    /// The [`Query::join_template`] key.
    pub template: u32,
    /// Feedback observations recorded for this template (lifetime).
    pub count: u64,
    /// Mean q-error over the template's current rolling window.
    pub mean_qerror: f64,
}

/// Per-join-template drift snapshot carried by [`Message::DriftStatus`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TemplateDrift {
    /// The [`Query::join_template`] key.
    pub template: u32,
    /// Observations currently in the rolling window.
    pub window_len: u32,
    /// Mean q-error over the window (1.0 when empty).
    pub rolling_qerror: f64,
    /// True if this template's window is past the drift threshold.
    pub tripped: bool,
}

/// One counter or gauge value in a [`Message::MetricsSnapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScalarMetric {
    /// Index into the server's `lc_obs::CATALOG` (resolve names with
    /// `lc_obs::metric_name`).
    pub id: u16,
    /// True for a gauge (instantaneous), false for a counter
    /// (monotonic).
    pub gauge: bool,
    /// The value at snapshot time.
    pub value: u64,
}

/// One histogram state in a [`Message::MetricsSnapshot`]: the full
/// log₂-bucket counts plus exact sum and max, enough for a client to
/// compute count, mean, and quantiles — and, by differencing two
/// snapshots, interval rates and interval percentiles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramMetric {
    /// Index into the server's `lc_obs::CATALOG`.
    pub id: u16,
    /// Sum of all recorded values.
    pub sum: u64,
    /// Largest recorded value (0 when empty).
    pub max: u64,
    /// Per-bucket counts: bucket `i` counted values in `[2^i, 2^(i+1))`.
    pub buckets: [u64; 64],
}

/// One protocol message. Kinds 1–5 are protocol v1; 6–17 need v2.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Client → server: estimate the cardinality of `query`. (v1)
    EstimateRequest {
        /// Client-chosen token echoed back in the response.
        id: u64,
        /// The query to estimate.
        query: Query,
    },
    /// Server → client: the estimate plus serving metadata. (v1)
    EstimateResponse {
        /// Token of the request this answers.
        id: u64,
        /// Estimated cardinality in rows (≥ 1).
        estimate: f64,
        /// Version of the model snapshot that produced the estimate.
        model_version: u32,
        /// Size of the coalesced micro-batch this request rode in (0 for
        /// cache hits, which skip inference).
        micro_batch: u32,
        /// True if the estimate came from the cache.
        cache_hit: bool,
    },
    /// Server → client: the request could not be served. (v1)
    Error {
        /// Token of the offending request, 0 if it could not be decoded.
        id: u64,
        /// Human-readable reason.
        message: String,
    },
    /// Liveness probe. (v1)
    Ping {
        /// Echo token.
        id: u64,
    },
    /// Liveness reply. (v1)
    Pong {
        /// Echo token.
        id: u64,
    },
    /// Client → server, first message on a connection: protocol version
    /// and requested capabilities. (v2)
    Hello {
        /// Echo token.
        id: u64,
        /// The highest protocol version the client speaks.
        version: u8,
        /// Capability bits the client wants ([`CAP_FEEDBACK`] | ...).
        capabilities: u8,
    },
    /// Server → client: the negotiated version and capabilities the
    /// connection will run with (see [`negotiate`]). (v2)
    HelloAck {
        /// Token of the hello this answers.
        id: u64,
        /// Negotiated protocol version (min of the two).
        version: u8,
        /// Negotiated capabilities (intersection).
        capabilities: u8,
    },
    /// Client → server: the true cardinality observed after executing
    /// `query` — the raw material of drift detection and incremental
    /// retraining. (v2)
    Feedback {
        /// Client-chosen token echoed back in the ack.
        id: u64,
        /// The executed query.
        query: Query,
        /// The true row count the execution produced.
        actual_card: u64,
    },
    /// Server → client: feedback recorded. (v2)
    FeedbackAck {
        /// Token of the feedback this answers.
        id: u64,
        /// The model version that was active when the feedback was
        /// scored (clients watch this increase across retrains).
        model_version: u32,
    },
    /// Client → server: ask for serving statistics. (v2)
    StatsRequest {
        /// Echo token.
        id: u64,
    },
    /// Server → client: retrain/feedback counters and per-template
    /// q-error. (v2)
    Stats {
        /// Token of the request this answers.
        id: u64,
        /// The currently active model version.
        model_version: u32,
        /// Completed drift-triggered retrains since startup.
        retrains: u32,
        /// Feedback frames recorded since startup.
        feedback_count: u64,
        /// Per-join-template rolling q-error summaries.
        templates: Vec<TemplateStat>,
    },
    /// Client → server: ask for the drift monitor's current state. (v2)
    DriftStatusRequest {
        /// Echo token.
        id: u64,
    },
    /// Server → client: the drift monitor's window state. (v2)
    DriftStatus {
        /// Token of the request this answers.
        id: u64,
        /// True while an incremental retrain is running in the
        /// background.
        retrain_in_flight: bool,
        /// Per-join-template window snapshots.
        templates: Vec<TemplateDrift>,
    },
    /// Client → server: ask for a full metrics snapshot (requires
    /// [`CAP_METRICS`]). (v2)
    MetricsRequest {
        /// Echo token.
        id: u64,
    },
    /// Server → client: every metric in the server's `lc_obs` catalog
    /// at one instant. (v2)
    MetricsSnapshot {
        /// Token of the request this answers.
        id: u64,
        /// Nanoseconds the server process has been up.
        uptime_ns: u64,
        /// Every counter and gauge, in catalog-id order.
        scalars: Vec<ScalarMetric>,
        /// Every histogram, in catalog-id order.
        histograms: Vec<HistogramMetric>,
    },
    /// Server → client: the request was shed by admission control (the
    /// shard's in-flight budget or the global connection cap was hit).
    /// Sent only on connections that negotiated [`CAP_RETRY`]; the
    /// request was **not** processed and should be retried after the
    /// hinted delay, ideally with jitter. (v2)
    Busy {
        /// Token of the request that was shed.
        id: u64,
        /// Suggested client back-off before retrying, in milliseconds.
        retry_after_ms: u32,
    },
    /// Server → client: the estimate plus routing metadata — which tier
    /// of the serving pipeline answered and the primary model's trust
    /// signal. Sent instead of [`Message::EstimateResponse`] on
    /// connections that negotiated [`CAP_TIER`]. (v2)
    EstimateDetail {
        /// Token of the request this answers.
        id: u64,
        /// Estimated cardinality in rows (≥ 1).
        estimate: f64,
        /// Version of the model snapshot that produced the estimate.
        model_version: u32,
        /// Size of the coalesced micro-batch this request rode in (0 for
        /// cache hits, which skip inference).
        micro_batch: u32,
        /// True if the estimate came from the cache.
        cache_hit: bool,
        /// The pipeline tier that answered (0 = primary MSCN/ensemble,
        /// 1 = GBM stumps, 2 = sampling fallback).
        tier: u8,
        /// The primary model's log-standard-deviation trust signal for
        /// this query (0 when the primary has no uncertainty channel).
        log_std: f64,
    },
}

/// The lowest protocol version that defines kind tag `kind`, or `None`
/// if no version does.
fn kind_min_version(kind: u8) -> Option<u8> {
    match kind {
        1..=5 => Some(PROTOCOL_V1),
        6..=17 => Some(PROTOCOL_VERSION),
        _ => None,
    }
}

fn need(buf: &[u8], n: usize, what: &'static str, version: u8) -> Result<(), WireError> {
    if buf.remaining() < n {
        return Err(WireError::Truncated { version, what, need: n, have: buf.remaining() });
    }
    Ok(())
}

/// Decode a strict wire bool (`0` or `1`; anything else is malformed).
fn get_bool(buf: &mut &[u8], what: &str, version: u8) -> Result<bool, WireError> {
    match buf.get_u8() {
        0 => Ok(false),
        1 => Ok(true),
        b => Err(WireError::Malformed { version, detail: format!("{what} byte {b:#04x} not 0|1") }),
    }
}

impl Message {
    /// The kind tag this message encodes with.
    pub fn kind(&self) -> u8 {
        match self {
            Message::EstimateRequest { .. } => 1,
            Message::EstimateResponse { .. } => 2,
            Message::Error { .. } => 3,
            Message::Ping { .. } => 4,
            Message::Pong { .. } => 5,
            Message::Hello { .. } => 6,
            Message::HelloAck { .. } => 7,
            Message::Feedback { .. } => 8,
            Message::FeedbackAck { .. } => 9,
            Message::StatsRequest { .. } => 10,
            Message::Stats { .. } => 11,
            Message::DriftStatusRequest { .. } => 12,
            Message::DriftStatus { .. } => 13,
            Message::MetricsRequest { .. } => 14,
            Message::MetricsSnapshot { .. } => 15,
            Message::Busy { .. } => 16,
            Message::EstimateDetail { .. } => 17,
        }
    }

    /// The lowest protocol version that can carry this message.
    pub fn min_version(&self) -> u8 {
        kind_min_version(self.kind()).expect("every constructed message has a version")
    }

    /// Append the full frame (length prefix + body) to `buf`.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        let start = buf.len();
        buf.put_u32_le(0); // patched below
        buf.put_u8(self.kind());
        match self {
            Message::EstimateRequest { id, query } => {
                buf.put_u64_le(*id);
                query.encode(buf);
            }
            Message::EstimateResponse { id, estimate, model_version, micro_batch, cache_hit } => {
                buf.put_u64_le(*id);
                buf.put_f64_le(*estimate);
                buf.put_u32_le(*model_version);
                buf.put_u32_le(*micro_batch);
                buf.put_u8(if *cache_hit { FLAG_CACHE_HIT } else { 0 });
            }
            Message::Error { id, message } => {
                buf.put_u64_le(*id);
                let bytes = message.as_bytes();
                buf.put_u32_le(bytes.len() as u32);
                buf.put_slice(bytes);
            }
            Message::Ping { id }
            | Message::Pong { id }
            | Message::StatsRequest { id }
            | Message::DriftStatusRequest { id }
            | Message::MetricsRequest { id } => {
                buf.put_u64_le(*id);
            }
            Message::Hello { id, version, capabilities }
            | Message::HelloAck { id, version, capabilities } => {
                buf.put_u64_le(*id);
                buf.put_u8(*version);
                buf.put_u8(*capabilities);
            }
            Message::Feedback { id, query, actual_card } => {
                buf.put_u64_le(*id);
                buf.put_u64_le(*actual_card);
                query.encode(buf);
            }
            Message::FeedbackAck { id, model_version } => {
                buf.put_u64_le(*id);
                buf.put_u32_le(*model_version);
            }
            Message::Stats { id, model_version, retrains, feedback_count, templates } => {
                buf.put_u64_le(*id);
                buf.put_u32_le(*model_version);
                buf.put_u32_le(*retrains);
                buf.put_u64_le(*feedback_count);
                buf.put_u16_le(templates.len() as u16);
                for t in templates {
                    buf.put_u32_le(t.template);
                    buf.put_u64_le(t.count);
                    buf.put_f64_le(t.mean_qerror);
                }
            }
            Message::DriftStatus { id, retrain_in_flight, templates } => {
                buf.put_u64_le(*id);
                buf.put_u8(u8::from(*retrain_in_flight));
                buf.put_u16_le(templates.len() as u16);
                for t in templates {
                    buf.put_u32_le(t.template);
                    buf.put_u32_le(t.window_len);
                    buf.put_f64_le(t.rolling_qerror);
                    buf.put_u8(u8::from(t.tripped));
                }
            }
            Message::MetricsSnapshot { id, uptime_ns, scalars, histograms } => {
                buf.put_u64_le(*id);
                buf.put_u64_le(*uptime_ns);
                buf.put_u16_le(scalars.len() as u16);
                for s in scalars {
                    buf.put_u16_le(s.id);
                    buf.put_u8(u8::from(s.gauge));
                    buf.put_u64_le(s.value);
                }
                buf.put_u16_le(histograms.len() as u16);
                for h in histograms {
                    buf.put_u16_le(h.id);
                    buf.put_u64_le(h.sum);
                    buf.put_u64_le(h.max);
                    let mut mask = 0u64;
                    for (i, &count) in h.buckets.iter().enumerate() {
                        if count != 0 {
                            mask |= 1 << i;
                        }
                    }
                    buf.put_u64_le(mask);
                    for &count in h.buckets.iter().filter(|&&count| count != 0) {
                        buf.put_u64_le(count);
                    }
                }
            }
            Message::Busy { id, retry_after_ms } => {
                buf.put_u64_le(*id);
                buf.put_u32_le(*retry_after_ms);
            }
            Message::EstimateDetail {
                id,
                estimate,
                model_version,
                micro_batch,
                cache_hit,
                tier,
                log_std,
            } => {
                buf.put_u64_le(*id);
                buf.put_f64_le(*estimate);
                buf.put_u32_le(*model_version);
                buf.put_u32_le(*micro_batch);
                buf.put_u8(if *cache_hit { FLAG_CACHE_HIT } else { 0 });
                buf.put_u8(*tier);
                buf.put_f64_le(*log_std);
            }
        }
        let body_len = (buf.len() - start - 4) as u32;
        buf[start..start + 4].copy_from_slice(&body_len.to_le_bytes());
    }

    /// The encoded frame as an owned buffer.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(64);
        self.encode(&mut buf);
        buf
    }

    /// Decode one frame *body* (everything after the length prefix) at
    /// the negotiated protocol `version`. Strict: the body must be
    /// consumed exactly; trailing bytes are a protocol violation; kinds
    /// introduced by a newer version than `version` are rejected with
    /// [`WireError::KindAboveVersion`] (this is how a v1 connection
    /// refuses v2 traffic without misparsing it).
    pub fn decode_body(body: &[u8], version: u8) -> Result<Message, WireError> {
        let mut buf = body;
        need(buf, 1, "kind tag", version)?;
        let kind = buf.get_u8();
        match kind_min_version(kind) {
            None => return Err(WireError::UnknownKind { version, kind }),
            Some(min) if min > version => {
                return Err(WireError::KindAboveVersion { version, kind });
            }
            Some(_) => {}
        }
        need(buf, 8, "message id", version)?;
        let id = buf.get_u64_le();
        let message = match kind {
            1 => {
                let query = Query::decode(&mut buf).map_err(|e| WireError::Malformed {
                    version,
                    detail: format!("request: {}", e.0),
                })?;
                Message::EstimateRequest { id, query }
            }
            2 => {
                need(buf, 8 + 4 + 4 + 1, "response payload", version)?;
                let estimate = buf.get_f64_le();
                let model_version = buf.get_u32_le();
                let micro_batch = buf.get_u32_le();
                let flags = buf.get_u8();
                if flags & !FLAG_CACHE_HIT != 0 {
                    return Err(WireError::Malformed {
                        version,
                        detail: format!("unknown response flags {flags:#04x}"),
                    });
                }
                Message::EstimateResponse {
                    id,
                    estimate,
                    model_version,
                    micro_batch,
                    cache_hit: flags & FLAG_CACHE_HIT != 0,
                }
            }
            3 => {
                need(buf, 4, "error length", version)?;
                let len = buf.get_u32_le() as usize;
                need(buf, len, "error message", version)?;
                let message = String::from_utf8(buf.take_bytes(len).to_vec()).map_err(|_| {
                    WireError::Malformed { version, detail: "error message is not UTF-8".into() }
                })?;
                Message::Error { id, message }
            }
            4 => Message::Ping { id },
            5 => Message::Pong { id },
            6 | 7 => {
                need(buf, 2, "hello payload", version)?;
                let peer_version = buf.get_u8();
                let capabilities = buf.get_u8();
                if peer_version == 0 {
                    return Err(WireError::Malformed {
                        version,
                        detail: "hello advertises protocol version 0".into(),
                    });
                }
                if kind == 6 {
                    Message::Hello { id, version: peer_version, capabilities }
                } else {
                    Message::HelloAck { id, version: peer_version, capabilities }
                }
            }
            8 => {
                need(buf, 8, "feedback cardinality", version)?;
                let actual_card = buf.get_u64_le();
                let query = Query::decode(&mut buf).map_err(|e| WireError::Malformed {
                    version,
                    detail: format!("feedback query: {}", e.0),
                })?;
                Message::Feedback { id, query, actual_card }
            }
            9 => {
                need(buf, 4, "feedback ack payload", version)?;
                Message::FeedbackAck { id, model_version: buf.get_u32_le() }
            }
            10 => Message::StatsRequest { id },
            11 => {
                need(buf, 4 + 4 + 8 + 2, "stats header", version)?;
                let model_version = buf.get_u32_le();
                let retrains = buf.get_u32_le();
                let feedback_count = buf.get_u64_le();
                let n = buf.get_u16_le() as usize;
                need(buf, n * (4 + 8 + 8), "stats templates", version)?;
                let templates = (0..n)
                    .map(|_| TemplateStat {
                        template: buf.get_u32_le(),
                        count: buf.get_u64_le(),
                        mean_qerror: buf.get_f64_le(),
                    })
                    .collect();
                Message::Stats { id, model_version, retrains, feedback_count, templates }
            }
            12 => Message::DriftStatusRequest { id },
            13 => {
                need(buf, 1 + 2, "drift status header", version)?;
                let retrain_in_flight = get_bool(&mut buf, "retrain-in-flight", version)?;
                let n = buf.get_u16_le() as usize;
                need(buf, n * (4 + 4 + 8 + 1), "drift templates", version)?;
                let templates = (0..n)
                    .map(|_| -> Result<TemplateDrift, WireError> {
                        Ok(TemplateDrift {
                            template: buf.get_u32_le(),
                            window_len: buf.get_u32_le(),
                            rolling_qerror: buf.get_f64_le(),
                            tripped: get_bool(&mut buf, "tripped", version)?,
                        })
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                Message::DriftStatus { id, retrain_in_flight, templates }
            }
            14 => Message::MetricsRequest { id },
            15 => {
                need(buf, 8 + 2, "metrics header", version)?;
                let uptime_ns = buf.get_u64_le();
                let n = buf.get_u16_le() as usize;
                need(buf, n * (2 + 1 + 8), "metrics scalars", version)?;
                let scalars = (0..n)
                    .map(|_| -> Result<ScalarMetric, WireError> {
                        let metric_id = buf.get_u16_le();
                        let gauge = get_bool(&mut buf, "scalar metric kind", version)?;
                        Ok(ScalarMetric { id: metric_id, gauge, value: buf.get_u64_le() })
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                need(buf, 2, "metrics histogram count", version)?;
                let n = buf.get_u16_le() as usize;
                let mut histograms = Vec::with_capacity(n.min(256));
                for _ in 0..n {
                    need(buf, 2 + 8 + 8 + 8, "histogram metric header", version)?;
                    let metric_id = buf.get_u16_le();
                    let sum = buf.get_u64_le();
                    let max = buf.get_u64_le();
                    let mask = buf.get_u64_le();
                    need(buf, mask.count_ones() as usize * 8, "histogram buckets", version)?;
                    let mut buckets = [0u64; 64];
                    for (i, bucket) in buckets.iter_mut().enumerate() {
                        if mask & (1 << i) != 0 {
                            let count = buf.get_u64_le();
                            if count == 0 {
                                return Err(WireError::Malformed {
                                    version,
                                    detail: format!(
                                        "histogram metric {metric_id}: zero count under set mask \
                                         bit {i} (non-canonical encoding)"
                                    ),
                                });
                            }
                            *bucket = count;
                        }
                    }
                    histograms.push(HistogramMetric { id: metric_id, sum, max, buckets });
                }
                Message::MetricsSnapshot { id, uptime_ns, scalars, histograms }
            }
            16 => {
                need(buf, 4, "busy payload", version)?;
                Message::Busy { id, retry_after_ms: buf.get_u32_le() }
            }
            17 => {
                need(buf, 8 + 4 + 4 + 1 + 1 + 8, "detail payload", version)?;
                let estimate = buf.get_f64_le();
                let model_version = buf.get_u32_le();
                let micro_batch = buf.get_u32_le();
                let flags = buf.get_u8();
                if flags & !FLAG_CACHE_HIT != 0 {
                    return Err(WireError::Malformed {
                        version,
                        detail: format!("unknown detail flags {flags:#04x}"),
                    });
                }
                let tier = buf.get_u8();
                let log_std = buf.get_f64_le();
                Message::EstimateDetail {
                    id,
                    estimate,
                    model_version,
                    micro_batch,
                    cache_hit: flags & FLAG_CACHE_HIT != 0,
                    tier,
                    log_std,
                }
            }
            t => unreachable!("kind {t} passed the version gate but has no decoder"),
        };
        if !buf.is_empty() {
            return Err(WireError::Trailing { version, kind, extra: buf.len() });
        }
        Ok(message)
    }

    /// Try to decode one full frame from the front of `buf` at the
    /// negotiated protocol `version`.
    ///
    /// Returns `Ok(None)` when `buf` holds only an incomplete frame
    /// (read more bytes and retry), `Ok(Some((message, consumed)))` on
    /// success, and `Err` on a malformed frame.
    pub fn decode_prefix(buf: &[u8], version: u8) -> Result<Option<(Message, usize)>, WireError> {
        if buf.len() < 4 {
            return Ok(None);
        }
        let body_len = u32::from_le_bytes(buf[..4].try_into().expect("4 bytes")) as usize;
        if body_len > MAX_FRAME_LEN {
            return Err(WireError::Oversized { version, len: body_len });
        }
        if buf.len() < 4 + body_len {
            return Ok(None);
        }
        let message = Message::decode_body(&buf[4..4 + body_len], version)?;
        Ok(Some((message, 4 + body_len)))
    }
}

/// Read one message from a blocking stream, decoding at the negotiated
/// protocol `version`. Returns `Ok(None)` only on a *clean* EOF — the
/// peer closed exactly on a frame boundary. An EOF inside the length
/// prefix or the body is a torn frame and surfaces as
/// [`io::ErrorKind::InvalidData`], like every other wire error.
pub fn read_message(reader: &mut impl Read, version: u8) -> io::Result<Option<Message>> {
    let mut len_bytes = [0u8; 4];
    let mut filled = 0;
    while filled < len_bytes.len() {
        match reader.read(&mut len_bytes[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    WireError::Torn {
                        version,
                        detail: format!("connection closed mid length prefix ({filled}/4 bytes)"),
                    },
                ));
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    let body_len = u32::from_le_bytes(len_bytes) as usize;
    if body_len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            WireError::Oversized { version, len: body_len },
        ));
    }
    let mut body = vec![0u8; body_len];
    reader.read_exact(&mut body).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            io::Error::new(
                io::ErrorKind::InvalidData,
                WireError::Torn {
                    version,
                    detail: format!("connection closed mid frame body ({body_len} bytes expected)"),
                },
            )
        } else {
            e
        }
    })?;
    let message = Message::decode_body(&body, version)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    Ok(Some(message))
}

/// Write one message to a blocking stream (the caller flushes).
pub fn write_message(writer: &mut impl Write, message: &Message) -> io::Result<()> {
    writer.write_all(&message.to_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lc_engine::{CmpOp, JoinId, Predicate, TableId};
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn sample_query() -> Query {
        Query::new(
            vec![TableId(0), TableId(2)],
            vec![JoinId(1)],
            vec![
                Predicate { table: TableId(0), column: 2, op: CmpOp::Gt, value: 1995 },
                Predicate { table: TableId(2), column: 1, op: CmpOp::Eq, value: -3 },
            ],
        )
    }

    fn sample_messages() -> Vec<Message> {
        vec![
            Message::EstimateRequest { id: 7, query: sample_query() },
            Message::EstimateRequest { id: u64::MAX, query: Query::new(vec![], vec![], vec![]) },
            Message::EstimateResponse {
                id: 9,
                estimate: 12345.75,
                model_version: 3,
                micro_batch: 64,
                cache_hit: true,
            },
            Message::Error { id: 0, message: "no such model".into() },
            Message::Error { id: 1, message: String::new() },
            Message::Ping { id: 42 },
            Message::Pong { id: 42 },
            Message::Hello { id: 1, version: PROTOCOL_VERSION, capabilities: CAPABILITIES },
            Message::HelloAck { id: 1, version: PROTOCOL_V1, capabilities: 0 },
            Message::Feedback { id: 11, query: sample_query(), actual_card: 123_456 },
            Message::Feedback { id: 12, query: Query::new(vec![], vec![], vec![]), actual_card: 0 },
            Message::FeedbackAck { id: 11, model_version: 4 },
            Message::StatsRequest { id: 21 },
            Message::Stats {
                id: 21,
                model_version: 4,
                retrains: 2,
                feedback_count: 900,
                templates: vec![
                    TemplateStat { template: 0x0001_0003, count: 512, mean_qerror: 1.75 },
                    TemplateStat { template: 0x0007_000F, count: 17, mean_qerror: 96.5 },
                ],
            },
            Message::Stats {
                id: 22,
                model_version: 1,
                retrains: 0,
                feedback_count: 0,
                templates: vec![],
            },
            Message::DriftStatusRequest { id: 31 },
            Message::DriftStatus {
                id: 31,
                retrain_in_flight: true,
                templates: vec![TemplateDrift {
                    template: 0x0001_0003,
                    window_len: 64,
                    rolling_qerror: 8.25,
                    tripped: true,
                }],
            },
            Message::DriftStatus { id: 32, retrain_in_flight: false, templates: vec![] },
            Message::MetricsRequest { id: 41 },
            Message::MetricsSnapshot {
                id: 41,
                uptime_ns: 5_000_000_000,
                scalars: vec![
                    ScalarMetric { id: 0, gauge: false, value: 12_345 },
                    ScalarMetric { id: 14, gauge: true, value: 7 },
                ],
                histograms: vec![
                    HistogramMetric { id: 18, sum: 0, max: 0, buckets: [0; 64] },
                    HistogramMetric {
                        id: 19,
                        sum: u64::MAX,
                        max: u64::MAX,
                        buckets: {
                            let mut b = [0u64; 64];
                            b[0] = 3;
                            b[17] = 1_000_000;
                            b[63] = 1;
                            b
                        },
                    },
                ],
            },
            Message::MetricsSnapshot { id: 42, uptime_ns: 0, scalars: vec![], histograms: vec![] },
            Message::Busy { id: 51, retry_after_ms: 50 },
            Message::Busy { id: u64::MAX, retry_after_ms: 0 },
            Message::EstimateDetail {
                id: 52,
                estimate: 4096.0,
                model_version: 3,
                micro_batch: 8,
                cache_hit: false,
                tier: 1,
                log_std: 1.75,
            },
            Message::EstimateDetail {
                id: u64::MAX,
                estimate: 1.0,
                model_version: u32::MAX,
                micro_batch: 0,
                cache_hit: true,
                tier: u8::MAX,
                log_std: -0.0,
            },
        ]
    }

    #[test]
    fn roundtrip_every_kind() {
        for message in sample_messages() {
            let bytes = message.to_bytes();
            let (back, consumed) = Message::decode_prefix(&bytes, PROTOCOL_VERSION)
                .expect("decode")
                .expect("complete");
            assert_eq!(back, message);
            assert_eq!(consumed, bytes.len());
        }
    }

    #[test]
    fn decode_prefix_handles_partial_and_concatenated_frames() {
        let a = Message::Ping { id: 1 }.to_bytes();
        let b = Message::EstimateRequest { id: 2, query: sample_query() }.to_bytes();
        let mut stream = a.clone();
        stream.extend_from_slice(&b);
        // Concatenated: first decode consumes exactly `a`, second exactly `b`.
        let (f1, c1) = Message::decode_prefix(&stream, PROTOCOL_VERSION).unwrap().unwrap();
        assert_eq!(f1, Message::Ping { id: 1 });
        assert_eq!(c1, a.len());
        let (f2, c2) = Message::decode_prefix(&stream[c1..], PROTOCOL_VERSION).unwrap().unwrap();
        assert_eq!(c2, b.len());
        assert!(matches!(f2, Message::EstimateRequest { id: 2, .. }));
        // Partial: any prefix of one frame is incomplete, not an error.
        for cut in 0..b.len() {
            assert_eq!(
                Message::decode_prefix(&b[..cut], PROTOCOL_VERSION).unwrap(),
                None,
                "cut at {cut}"
            );
        }
    }

    /// The sharded server decodes incrementally: whatever the socket
    /// delivers is appended to a connection buffer, complete frames are
    /// peeled off with [`Message::decode_prefix`], and the partial tail
    /// is carried into the next read. A split at *any* byte offset —
    /// including inside the length prefix — must therefore be invisible.
    /// This drives the full all-kinds stream through that exact
    /// algorithm for every two-chunk split, and once fed a byte at a
    /// time (the worst case: every read is a partial frame).
    #[test]
    fn incremental_decode_is_split_invariant_at_every_byte_offset() {
        let messages = sample_messages();
        let mut stream = Vec::new();
        for message in &messages {
            stream.extend_from_slice(&message.to_bytes());
        }
        let feed = |chunks: &mut dyn Iterator<Item = &[u8]>| {
            let mut inbuf: Vec<u8> = Vec::new();
            let mut decoded = Vec::new();
            for chunk in chunks {
                inbuf.extend_from_slice(chunk);
                let mut offset = 0;
                while let Some((message, consumed)) =
                    Message::decode_prefix(&inbuf[offset..], PROTOCOL_VERSION).expect("decode")
                {
                    decoded.push(message);
                    offset += consumed;
                }
                inbuf.drain(..offset);
            }
            assert!(inbuf.is_empty(), "{} bytes left undecoded", inbuf.len());
            decoded
        };
        for split in 0..=stream.len() {
            let decoded = feed(&mut [&stream[..split], &stream[split..]].into_iter());
            assert_eq!(decoded, messages, "two-chunk split at byte {split}");
        }
        let decoded = feed(&mut stream.chunks(1));
        assert_eq!(decoded, messages, "byte-at-a-time feed");
    }

    /// Every truncation offset of every message body (old kinds *and*
    /// the v2 Feedback/Stats/DriftStatus bodies) must error, never panic
    /// or misparse.
    #[test]
    fn every_truncation_of_every_body_errors() {
        for message in sample_messages() {
            let bytes = message.to_bytes();
            let body = &bytes[4..];
            for cut in 0..body.len() {
                assert!(
                    Message::decode_body(&body[..cut], PROTOCOL_VERSION).is_err(),
                    "{message:?}: body truncated at {cut}/{} decoded successfully",
                    body.len()
                );
            }
        }
    }

    #[test]
    fn trailing_garbage_and_bad_tags_error() {
        for message in sample_messages() {
            let mut body = message.to_bytes()[4..].to_vec();
            body.push(0xAB);
            match Message::decode_body(&body, PROTOCOL_VERSION) {
                Err(WireError::Trailing { extra: 1, .. }) => {}
                // Variable-length tails (query / text) may absorb the
                // extra byte into a length field and fail differently —
                // any error is acceptable, success is not.
                Err(_) => {}
                Ok(m) => panic!("trailing byte after {message:?} decoded as {m:?}"),
            }
        }

        let mut bad_kind = Message::Ping { id: 3 }.to_bytes()[4..].to_vec();
        bad_kind[0] = 99;
        let err = Message::decode_body(&bad_kind, PROTOCOL_VERSION).unwrap_err();
        assert_eq!(err, WireError::UnknownKind { version: PROTOCOL_VERSION, kind: 99 });
        assert!(err.to_string().contains("unknown frame kind"));

        let resp = Message::EstimateResponse {
            id: 1,
            estimate: 2.0,
            model_version: 1,
            micro_batch: 1,
            cache_hit: false,
        };
        let mut bad_flags = resp.to_bytes()[4..].to_vec();
        let last = bad_flags.len() - 1;
        bad_flags[last] = 0xF0;
        assert!(Message::decode_body(&bad_flags, PROTOCOL_VERSION)
            .unwrap_err()
            .to_string()
            .contains("flags"));

        let detail = Message::EstimateDetail {
            id: 1,
            estimate: 2.0,
            model_version: 1,
            micro_batch: 1,
            cache_hit: false,
            tier: 0,
            log_std: 0.0,
        };
        let mut bad_detail = detail.to_bytes()[4..].to_vec();
        // flags byte sits between micro_batch and tier: kind + id +
        // estimate + model_version + micro_batch = 1 + 8 + 8 + 4 + 4.
        bad_detail[25] = 0xF0;
        assert!(Message::decode_body(&bad_detail, PROTOCOL_VERSION)
            .unwrap_err()
            .to_string()
            .contains("flags"));
    }

    /// A v1 connection rejects v2 kinds with a dedicated error (not
    /// "unknown"), and the error names the negotiated version — the
    /// satellite fix: truncation/corruption errors now say which
    /// protocol version was being parsed.
    #[test]
    fn version_gate_and_error_versions() {
        let v2_only = [
            Message::Hello { id: 1, version: 2, capabilities: CAPABILITIES },
            Message::Feedback { id: 2, query: sample_query(), actual_card: 10 },
            Message::StatsRequest { id: 3 },
            Message::DriftStatusRequest { id: 4 },
            Message::MetricsRequest { id: 5 },
            Message::Busy { id: 6, retry_after_ms: 25 },
            Message::EstimateDetail {
                id: 7,
                estimate: 32.0,
                model_version: 1,
                micro_batch: 4,
                cache_hit: false,
                tier: 2,
                log_std: 0.5,
            },
        ];
        for message in &v2_only {
            let body = &message.to_bytes()[4..];
            let err = Message::decode_body(body, PROTOCOL_V1).unwrap_err();
            assert_eq!(
                err,
                WireError::KindAboveVersion { version: PROTOCOL_V1, kind: message.kind() },
                "{message:?}"
            );
            assert_eq!(err.version(), PROTOCOL_V1);
            // The same bytes decode cleanly at v2.
            assert_eq!(&Message::decode_body(body, PROTOCOL_VERSION).unwrap(), message);
        }
        // v1 kinds decode at both versions.
        let ping = Message::Ping { id: 9 };
        for v in [PROTOCOL_V1, PROTOCOL_VERSION] {
            assert_eq!(Message::decode_body(&ping.to_bytes()[4..], v).unwrap(), ping);
        }
        // Truncation errors carry the version they were parsed at.
        let body = &Message::Ping { id: 9 }.to_bytes()[4..];
        for v in [PROTOCOL_V1, PROTOCOL_VERSION] {
            let err = Message::decode_body(&body[..3], v).unwrap_err();
            assert_eq!(err.version(), v);
            assert!(err.to_string().contains(&format!("(v{v})")));
        }
    }

    #[test]
    fn negotiation_is_min_version_and_cap_intersection() {
        assert_eq!(negotiate(PROTOCOL_VERSION, CAPABILITIES), (PROTOCOL_VERSION, CAPABILITIES));
        assert_eq!(negotiate(1, CAPABILITIES), (1, CAPABILITIES));
        // A future v3 client negotiates down to our v2.
        assert_eq!(negotiate(3, 0xFF), (PROTOCOL_VERSION, CAPABILITIES));
        assert_eq!(negotiate(2, CAP_STATS), (2, CAP_STATS));
        assert_eq!(negotiate(2, 0), (2, 0));
    }

    #[test]
    fn bad_hello_and_bad_bools_are_malformed() {
        let hello = Message::Hello { id: 1, version: 1, capabilities: 0 };
        let mut body = hello.to_bytes()[4..].to_vec();
        // Patch the version byte (kind + id = 9 bytes in) to zero.
        body[9] = 0;
        assert!(matches!(
            Message::decode_body(&body, PROTOCOL_VERSION),
            Err(WireError::Malformed { .. })
        ));

        let drift = Message::DriftStatus { id: 1, retrain_in_flight: false, templates: vec![] };
        let mut body = drift.to_bytes()[4..].to_vec();
        body[9] = 7; // retrain_in_flight must be 0|1
        assert!(matches!(
            Message::decode_body(&body, PROTOCOL_VERSION),
            Err(WireError::Malformed { .. })
        ));
    }

    /// The sparse histogram encoding is canonical: a zero bucket count
    /// under a set mask bit must be rejected, not silently accepted.
    #[test]
    fn non_canonical_histogram_encoding_is_malformed() {
        let mut buckets = [0u64; 64];
        buckets[5] = 9;
        let snap = Message::MetricsSnapshot {
            id: 1,
            uptime_ns: 100,
            scalars: vec![],
            histograms: vec![HistogramMetric { id: 20, sum: 300, max: 40, buckets }],
        };
        let mut body = snap.to_bytes()[4..].to_vec();
        // The single bucket count is the last 8 bytes of the body.
        let tail = body.len() - 8;
        body[tail..].copy_from_slice(&0u64.to_le_bytes());
        let err = Message::decode_body(&body, PROTOCOL_VERSION).unwrap_err();
        assert!(matches!(err, WireError::Malformed { .. }), "{err}");
        assert!(err.to_string().contains("non-canonical"));
        // A bad scalar kind byte (not 0|1) is also malformed.
        let scalar = Message::MetricsSnapshot {
            id: 1,
            uptime_ns: 100,
            scalars: vec![ScalarMetric { id: 0, gauge: false, value: 1 }],
            histograms: vec![],
        };
        let mut body = scalar.to_bytes()[4..].to_vec();
        // kind(1) + id(8) + uptime(8) + count(2) + metric id(2) = offset 21.
        body[21] = 2;
        assert!(matches!(
            Message::decode_body(&body, PROTOCOL_VERSION),
            Err(WireError::Malformed { .. })
        ));
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocation() {
        let mut bytes = Vec::new();
        bytes.put_u32_le((MAX_FRAME_LEN + 1) as u32);
        bytes.put_u8(4);
        let err = Message::decode_prefix(&bytes, PROTOCOL_VERSION).unwrap_err();
        assert!(matches!(err, WireError::Oversized { .. }));
        let mut reader: &[u8] = &bytes;
        assert!(read_message(&mut reader, PROTOCOL_VERSION).is_err());
    }

    #[test]
    fn torn_streams_error_but_clean_eof_does_not() {
        // Empty stream: clean EOF.
        let mut reader: &[u8] = &[];
        assert_eq!(read_message(&mut reader, PROTOCOL_VERSION).unwrap(), None);
        // EOF inside the length prefix: torn frame, not a disconnect.
        let frame_bytes = Message::Ping { id: 1 }.to_bytes();
        for cut in 1..4 {
            let mut torn: &[u8] = &frame_bytes[..cut];
            let err = read_message(&mut torn, PROTOCOL_VERSION).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "cut at {cut}");
        }
        // EOF inside the body: also a torn frame.
        for cut in 4..frame_bytes.len() {
            let mut torn: &[u8] = &frame_bytes[..cut];
            let err = read_message(&mut torn, PROTOCOL_VERSION).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "cut at {cut}");
        }
    }

    #[test]
    fn stream_read_write_roundtrip() {
        let mut stream = Vec::new();
        for message in sample_messages() {
            write_message(&mut stream, &message).unwrap();
        }
        let mut reader: &[u8] = &stream;
        for message in sample_messages() {
            assert_eq!(read_message(&mut reader, PROTOCOL_VERSION).unwrap(), Some(message));
        }
        assert_eq!(read_message(&mut reader, PROTOCOL_VERSION).unwrap(), None, "clean EOF");
    }

    fn arb_query(rng: &mut SmallRng) -> Query {
        let tables: Vec<TableId> =
            (0..rng.gen_range(0..4usize)).map(|_| TableId(rng.gen_range(0u16..8))).collect();
        let joins: Vec<JoinId> =
            (0..rng.gen_range(0..3usize)).map(|_| JoinId(rng.gen_range(0u16..6))).collect();
        let predicates = (0..rng.gen_range(0..5usize))
            .map(|_| Predicate {
                table: TableId(rng.gen_range(0u16..8)),
                column: rng.gen_range(0usize..4),
                op: CmpOp::ALL[rng.gen_range(0..CmpOp::ALL.len())],
                value: rng.gen_range(-500i64..500),
            })
            .collect();
        Query::new(tables, joins, predicates)
    }

    fn arb_string(rng: &mut SmallRng) -> String {
        (0..rng.gen_range(0..64usize)).map(|_| rng.gen_range(b' '..=b'~') as char).collect()
    }

    fn arb_template_stats(rng: &mut SmallRng) -> Vec<TemplateStat> {
        (0..rng.gen_range(0..8usize))
            .map(|_| TemplateStat {
                template: rng.gen_range(0u32..=u32::MAX),
                count: rng.gen_range(0u64..=u64::MAX),
                mean_qerror: rng.gen_range(1.0f64..1e12),
            })
            .collect()
    }

    fn arb_template_drifts(rng: &mut SmallRng) -> Vec<TemplateDrift> {
        (0..rng.gen_range(0..8usize))
            .map(|_| TemplateDrift {
                template: rng.gen_range(0u32..=u32::MAX),
                window_len: rng.gen_range(0u32..10_000),
                rolling_qerror: rng.gen_range(1.0f64..1e12),
                tripped: rng.gen_bool(0.5),
            })
            .collect()
    }

    fn arb_scalar_metrics(rng: &mut SmallRng) -> Vec<ScalarMetric> {
        (0..rng.gen_range(0..24usize))
            .map(|_| ScalarMetric {
                id: rng.gen_range(0u16..=u16::MAX),
                gauge: rng.gen_bool(0.5),
                value: rng.gen_range(0u64..=u64::MAX),
            })
            .collect()
    }

    fn arb_histogram_metrics(rng: &mut SmallRng) -> Vec<HistogramMetric> {
        (0..rng.gen_range(0..12usize))
            .map(|_| {
                let mut buckets = [0u64; 64];
                for bucket in buckets.iter_mut() {
                    // ~25% of buckets populated; zero buckets stay off
                    // the wire, which is exactly the canonical form.
                    if rng.gen_bool(0.25) {
                        *bucket = rng.gen_range(1u64..=u64::MAX);
                    }
                }
                HistogramMetric {
                    id: rng.gen_range(0u16..=u16::MAX),
                    sum: rng.gen_range(0u64..=u64::MAX),
                    max: rng.gen_range(0u64..=u64::MAX),
                    buckets,
                }
            })
            .collect()
    }

    /// Generator covering every arm of the v2 protocol: `arm` picks the
    /// variant (so all 17 are exercised no matter what the RNG draws),
    /// `rng` fills in the fields.
    fn arb_message(arm: usize, rng: &mut SmallRng) -> Message {
        let id = rng.gen_range(0u64..=u64::MAX);
        match arm {
            0 => Message::EstimateRequest { id, query: arb_query(rng) },
            1 => Message::EstimateResponse {
                id,
                estimate: rng.gen_range(0u64..1 << 52) as f64,
                model_version: rng.gen_range(0u32..=u32::MAX),
                micro_batch: rng.gen_range(0u32..65),
                cache_hit: rng.gen_bool(0.5),
            },
            2 => Message::Error { id, message: arb_string(rng) },
            3 => Message::Ping { id },
            4 => Message::Pong { id },
            5 => Message::Hello {
                id,
                version: rng.gen_range(1u8..=u8::MAX),
                capabilities: rng.gen_range(0u8..=u8::MAX),
            },
            6 => Message::HelloAck {
                id,
                version: rng.gen_range(1u8..=u8::MAX),
                capabilities: rng.gen_range(0u8..=u8::MAX),
            },
            7 => Message::Feedback {
                id,
                query: arb_query(rng),
                actual_card: rng.gen_range(0u64..=u64::MAX),
            },
            8 => Message::FeedbackAck { id, model_version: rng.gen_range(0u32..=u32::MAX) },
            9 => Message::StatsRequest { id },
            10 => Message::Stats {
                id,
                model_version: rng.gen_range(0u32..=u32::MAX),
                retrains: rng.gen_range(0u32..=u32::MAX),
                feedback_count: rng.gen_range(0u64..=u64::MAX),
                templates: arb_template_stats(rng),
            },
            11 => Message::DriftStatusRequest { id },
            12 => Message::DriftStatus {
                id,
                retrain_in_flight: rng.gen_bool(0.5),
                templates: arb_template_drifts(rng),
            },
            13 => Message::MetricsRequest { id },
            14 => Message::MetricsSnapshot {
                id,
                uptime_ns: rng.gen_range(0u64..=u64::MAX),
                scalars: arb_scalar_metrics(rng),
                histograms: arb_histogram_metrics(rng),
            },
            15 => Message::Busy { id, retry_after_ms: rng.gen_range(0u32..=u32::MAX) },
            16 => Message::EstimateDetail {
                id,
                estimate: rng.gen_range(0u64..1 << 52) as f64,
                model_version: rng.gen_range(0u32..=u32::MAX),
                micro_batch: rng.gen_range(0u32..65),
                cache_hit: rng.gen_bool(0.5),
                tier: rng.gen_range(0u8..=u8::MAX),
                log_std: rng.gen_range(-16i32..=16) as f64 / 4.0,
            },
            _ => unreachable!("arm out of range"),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

        /// Arbitrary messages of every arm survive an encode → decode
        /// round trip byte-exactly, and every strict prefix of the frame
        /// is "incomplete", never an error or a wrong parse.
        #[test]
        fn every_arm_roundtrips(arm in 0usize..17, seed in 0u64..u64::MAX) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let message = arb_message(arm, &mut rng);
            let bytes = message.to_bytes();
            let (back, consumed) = Message::decode_prefix(&bytes, PROTOCOL_VERSION)
                .expect("decode")
                .expect("complete");
            prop_assert_eq!(consumed, bytes.len());
            prop_assert_eq!(&back, &message);
            // Version gating is total: v1 decodes v1 kinds identically
            // and refuses v2 kinds with the dedicated error.
            let body = &bytes[4..];
            if message.min_version() == PROTOCOL_V1 {
                prop_assert_eq!(&Message::decode_body(body, PROTOCOL_V1).unwrap(), &message);
            } else {
                prop_assert_eq!(
                    Message::decode_body(body, PROTOCOL_V1).unwrap_err(),
                    WireError::KindAboveVersion { version: PROTOCOL_V1, kind: message.kind() }
                );
            }
        }
    }
}
