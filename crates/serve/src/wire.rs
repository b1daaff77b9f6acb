//! The versioned, length-prefixed binary wire protocol.
//!
//! Every message is one *frame*: a `u32` little-endian body length
//! followed by the body; the body's first byte is the message kind tag.
//! The layout discipline follows `lc_core::serialize` — explicit
//! little-endian fields via the `bytes` accessors, no self-describing
//! format — so the protocol stays auditable byte by byte:
//!
//! ```text
//! frame := u32 body_len | body          (body_len ≤ MAX_FRAME_LEN)
//! body  := u8 kind | the kind's fields, in the order its row lists them
//! ```
//!
//! **The `messages!` table below is the grammar.** One row per kind gives
//! the kind tag, the protocol version that introduced it, the [`Message`]
//! variant and its fields in wire order (every kind starts with its `u64`
//! id). The enum, [`Message::kind`], the version gate, [`Message::encode`],
//! the strict [`Message::decode_body`] and the tests' generator are all
//! derived from those rows. A field travels as its type says:
//!
//! ```text
//! u8 | u16 | u32 | u64 | f64   little-endian
//! bool                         one byte, 0 or 1
//! String                       u32 byte length | UTF-8 bytes
//! Query                        the canonical query encoding (lc_query)
//! Vec<T>                       u16 count | count × T
//! TemplateStat, TemplateDrift, ScalarMetric
//!                              their fields, in declaration order
//! HistogramMetric              u16 id | u64 sum | u64 max | u64 mask
//!                              | popcount(mask) × u64 bucket_count
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
//! Adding the next message is one row: the next kind tag, the version
//! that introduces it, the variant and its fields. A new payload type
//! also needs a `Field` impl (and a test `Arbitrary` one); the frame
//! layer, hello exchange and error taxonomy stay untouched.
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
#[cfg(test)]
use rand::rngs::SmallRng;

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

/// One payload type's wire encoding: `put` appends it, `get` reads it
/// back strictly from the front of `buf` at the negotiated `version`.
/// `what` names the field in errors.
trait Field: Sized {
    fn put(&self, buf: &mut Vec<u8>);
    fn get(buf: &mut &[u8], version: u8, what: &'static str) -> Result<Self, WireError>;
}

fn need(buf: &[u8], n: usize, what: &'static str, version: u8) -> Result<(), WireError> {
    if buf.remaining() < n {
        return Err(WireError::Truncated { version, what, need: n, have: buf.remaining() });
    }
    Ok(())
}

/// Fixed-width numbers, little-endian.
macro_rules! le_fields {
    ($($ty:ty => $put:ident, $get:ident;)*) => {$(
        impl Field for $ty {
            fn put(&self, buf: &mut Vec<u8>) {
                buf.$put(*self);
            }
            fn get(buf: &mut &[u8], version: u8, what: &'static str) -> Result<Self, WireError> {
                need(buf, std::mem::size_of::<$ty>(), what, version)?;
                Ok(buf.$get())
            }
        }
    )*};
}

le_fields! {
    u8 => put_u8, get_u8;
    u16 => put_u16_le, get_u16_le;
    u32 => put_u32_le, get_u32_le;
    u64 => put_u64_le, get_u64_le;
    f64 => put_f64_le, get_f64_le;
}

/// Strict: `0` or `1`, anything else is malformed.
impl Field for bool {
    fn put(&self, buf: &mut Vec<u8>) {
        buf.put_u8(u8::from(*self));
    }
    fn get(buf: &mut &[u8], version: u8, what: &'static str) -> Result<Self, WireError> {
        match u8::get(buf, version, what)? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(WireError::Malformed {
                version,
                detail: format!("{what}: flags byte {b:#04x} is not 0|1"),
            }),
        }
    }
}

impl Field for String {
    fn put(&self, buf: &mut Vec<u8>) {
        buf.put_u32_le(self.len() as u32);
        buf.put_slice(self.as_bytes());
    }
    fn get(buf: &mut &[u8], version: u8, what: &'static str) -> Result<Self, WireError> {
        let len = u32::get(buf, version, what)? as usize;
        need(buf, len, what, version)?;
        String::from_utf8(buf.take_bytes(len).to_vec())
            .map_err(|_| WireError::Malformed { version, detail: format!("{what} is not UTF-8") })
    }
}

impl Field for Query {
    fn put(&self, buf: &mut Vec<u8>) {
        self.encode(buf);
    }
    fn get(buf: &mut &[u8], version: u8, what: &'static str) -> Result<Self, WireError> {
        Query::decode(buf)
            .map_err(|e| WireError::Malformed { version, detail: format!("{what}: {}", e.0) })
    }
}

impl<T: Field> Field for Vec<T> {
    fn put(&self, buf: &mut Vec<u8>) {
        buf.put_u16_le(self.len() as u16);
        self.iter().for_each(|item| item.put(buf));
    }
    fn get(buf: &mut &[u8], version: u8, what: &'static str) -> Result<Self, WireError> {
        let n = u16::get(buf, version, what)?;
        (0..n).map(|_| T::get(buf, version, what)).collect()
    }
}

/// Declares plain structs whose wire encoding is their fields in order.
macro_rules! rows {
    ($(
        $(#[$meta:meta])*
        pub struct $Row:ident { $( $(#[$fmeta:meta])* pub $field:ident: $ty:ty, )* }
    )*) => {$(
        $(#[$meta])*
        pub struct $Row { $( $(#[$fmeta])* pub $field: $ty, )* }

        impl Field for $Row {
            fn put(&self, buf: &mut Vec<u8>) {
                $( self.$field.put(buf); )*
            }
            fn get(buf: &mut &[u8], version: u8, _: &'static str) -> Result<Self, WireError> {
                Ok($Row { $( $field: <$ty as Field>::get(buf, version, stringify!($field))?, )* })
            }
        }

        #[cfg(test)]
        impl tests::Arbitrary for $Row {
            fn arbitrary(rng: &mut SmallRng) -> Self {
                $Row { $( $field: tests::Arbitrary::arbitrary(rng), )* }
            }
        }
    )*};
}

rows! {
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

/// The canonical sparse encoding of the module docs.
impl Field for HistogramMetric {
    fn put(&self, buf: &mut Vec<u8>) {
        let nonzero = || self.buckets.iter().enumerate().filter(|(_, &count)| count != 0);
        self.id.put(buf);
        self.sum.put(buf);
        self.max.put(buf);
        nonzero().fold(0u64, |mask, (i, _)| mask | 1 << i).put(buf);
        nonzero().for_each(|(_, count)| count.put(buf));
    }
    fn get(buf: &mut &[u8], version: u8, _: &'static str) -> Result<Self, WireError> {
        let id = u16::get(buf, version, "id")?;
        let sum = u64::get(buf, version, "sum")?;
        let max = u64::get(buf, version, "max")?;
        let mask = u64::get(buf, version, "mask")?;
        let mut buckets = [0u64; 64];
        for (i, bucket) in buckets.iter_mut().enumerate().filter(|&(i, _)| mask & 1 << i != 0) {
            *bucket = u64::get(buf, version, "bucket")?;
            if *bucket == 0 {
                return Err(WireError::Malformed {
                    version,
                    detail: format!(
                        "histogram metric {id}: zero count under set mask bit {i} \
                         (non-canonical encoding)"
                    ),
                });
            }
        }
        Ok(HistogramMetric { id, sum, max, buckets })
    }
}

/// Declares [`Message`] from one row per kind — `tag @ version => Variant
/// { fields in wire order }`, optionally `unless <invalid> => "reason"` —
/// and derives every per-kind piece of the codec from the same rows.
macro_rules! messages {
    (
        $(#[$meta:meta])*
        pub enum Message { $(
            $(#[$vmeta:meta])*
            $kind:literal @ $since:ident => $Variant:ident {
                $( $(#[$fmeta:meta])* $field:ident: $ty:ty, )*
            } $(unless $invalid:expr => $why:literal)?,
        )* }
    ) => {
        $(#[$meta])*
        pub enum Message { $(
            $(#[$vmeta])*
            #[doc = ""]
            #[doc = concat!("Kind ", $kind, ", since [`", stringify!($since), "`].")]
            $Variant { $( $(#[$fmeta])* $field: $ty, )* },
        )* }

        /// The lowest protocol version that defines kind tag `kind`, or
        /// `None` if no version does.
        fn kind_min_version(kind: u8) -> Option<u8> {
            match kind {
                $( $kind => Some($since), )*
                _ => None,
            }
        }

        impl Message {
            /// The kind tag this message encodes with.
            pub fn kind(&self) -> u8 {
                match self { $( Message::$Variant { .. } => $kind, )* }
            }

            /// Append the fields of the body after the kind tag.
            fn put_fields(&self, buf: &mut Vec<u8>) {
                match self { $( Message::$Variant { $($field),* } => { $( $field.put(buf); )* } )* }
            }

            /// Read the fields of a kind-`kind` body after its tag.
            fn get_fields(kind: u8, buf: &mut &[u8], version: u8) -> Result<Message, WireError> {
                match kind {
                    $( $kind => {
                        $( let $field = <$ty as Field>::get(buf, version, stringify!($field))?; )*
                        $( if $invalid {
                            return Err(WireError::Malformed { version, detail: $why.into() });
                        } )?
                        Ok(Message::$Variant { $($field),* })
                    } )*
                    _ => Err(WireError::UnknownKind { version, kind }),
                }
            }
        }

        #[cfg(test)]
        impl Message {
            /// Every kind tag, in table order.
            const KINDS: &'static [u8] = &[$($kind),*];

            /// A random valid message of kind `kind`, drawn field by field.
            fn arbitrary(kind: u8, rng: &mut SmallRng) -> Message {
                use tests::Arbitrary;
                match kind {
                    $( $kind => loop {
                        $( let $field = <$ty as Arbitrary>::arbitrary(rng); )*
                        $( if $invalid { continue; } )?
                        break Message::$Variant { $($field),* };
                    }, )*
                    _ => panic!("no message kind {kind}"),
                }
            }
        }
    };
}

messages! {
    /// One protocol message. Kinds 1–5 are protocol v1; 6–17 need v2. Each
    /// variant's fields are declared in the order they travel.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Message {
        /// Client → server: estimate the cardinality of `query`.
        1 @ PROTOCOL_V1 => EstimateRequest {
            /// Client-chosen token echoed back in the response.
            id: u64,
            /// The query to estimate.
            query: Query,
        },
        /// Server → client: the estimate plus serving metadata.
        2 @ PROTOCOL_V1 => EstimateResponse {
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
        /// Server → client: the request could not be served.
        3 @ PROTOCOL_V1 => Error {
            /// Token of the offending request, 0 if it could not be decoded.
            id: u64,
            /// Human-readable reason.
            message: String,
        },
        /// Liveness probe.
        4 @ PROTOCOL_V1 => Ping {
            /// Echo token.
            id: u64,
        },
        /// Liveness reply.
        5 @ PROTOCOL_V1 => Pong {
            /// Echo token.
            id: u64,
        },
        /// Client → server, first message on a connection: protocol version
        /// and requested capabilities.
        6 @ PROTOCOL_VERSION => Hello {
            /// Echo token.
            id: u64,
            /// The highest protocol version the client speaks.
            version: u8,
            /// Capability bits the client wants ([`CAP_FEEDBACK`] | ...).
            capabilities: u8,
        } unless version == 0 => "hello advertises protocol version 0",
        /// Server → client: the negotiated version and capabilities the
        /// connection will run with (see [`negotiate`]).
        7 @ PROTOCOL_VERSION => HelloAck {
            /// Token of the hello this answers.
            id: u64,
            /// Negotiated protocol version (min of the two).
            version: u8,
            /// Negotiated capabilities (intersection).
            capabilities: u8,
        } unless version == 0 => "hello advertises protocol version 0",
        /// Client → server: the true cardinality observed after executing
        /// `query` — the raw material of drift detection and incremental
        /// retraining.
        8 @ PROTOCOL_VERSION => Feedback {
            /// Client-chosen token echoed back in the ack.
            id: u64,
            /// The true row count the execution produced.
            actual_card: u64,
            /// The executed query.
            query: Query,
        },
        /// Server → client: feedback recorded.
        9 @ PROTOCOL_VERSION => FeedbackAck {
            /// Token of the feedback this answers.
            id: u64,
            /// The model version that was active when the feedback was
            /// scored (clients watch this increase across retrains).
            model_version: u32,
        },
        /// Client → server: ask for serving statistics.
        10 @ PROTOCOL_VERSION => StatsRequest {
            /// Echo token.
            id: u64,
        },
        /// Server → client: retrain/feedback counters and per-template
        /// q-error.
        11 @ PROTOCOL_VERSION => Stats {
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
        /// Client → server: ask for the drift monitor's current state.
        12 @ PROTOCOL_VERSION => DriftStatusRequest {
            /// Echo token.
            id: u64,
        },
        /// Server → client: the drift monitor's window state.
        13 @ PROTOCOL_VERSION => DriftStatus {
            /// Token of the request this answers.
            id: u64,
            /// True while an incremental retrain is running in the
            /// background.
            retrain_in_flight: bool,
            /// Per-join-template window snapshots.
            templates: Vec<TemplateDrift>,
        },
        /// Client → server: ask for a full metrics snapshot (requires
        /// [`CAP_METRICS`]).
        14 @ PROTOCOL_VERSION => MetricsRequest {
            /// Echo token.
            id: u64,
        },
        /// Server → client: every metric in the server's `lc_obs` catalog
        /// at one instant.
        15 @ PROTOCOL_VERSION => MetricsSnapshot {
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
        /// hinted delay, ideally with jitter.
        16 @ PROTOCOL_VERSION => Busy {
            /// Token of the request that was shed.
            id: u64,
            /// Suggested client back-off before retrying, in milliseconds.
            retry_after_ms: u32,
        },
        /// Server → client: the estimate plus routing metadata — which tier
        /// of the serving pipeline answered and the primary model's trust
        /// signal. Sent instead of [`Message::EstimateResponse`] on
        /// connections that negotiated [`CAP_TIER`].
        17 @ PROTOCOL_VERSION => EstimateDetail {
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
            /// The pipeline tier that answered (0 = primary MSCN,
            /// 2 = sampling fallback; 1 is retired and never sent).
            tier: u8,
            /// The primary model's log-standard-deviation trust signal for
            /// this query (0 when the primary has no uncertainty channel).
            log_std: f64,
        },
    }
}

impl Message {
    /// The lowest protocol version that can carry this message.
    pub fn min_version(&self) -> u8 {
        kind_min_version(self.kind()).expect("every constructed message has a version")
    }

    /// Append the full frame (length prefix + body) to `buf`.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        let start = buf.len();
        buf.put_u32_le(0); // patched below
        buf.put_u8(self.kind());
        self.put_fields(buf);
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
        let kind = u8::get(&mut buf, version, "kind tag")?;
        if kind_min_version(kind).is_some_and(|min| min > version) {
            return Err(WireError::KindAboveVersion { version, kind });
        }
        let message = Message::get_fields(kind, &mut buf, version)?;
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

    /// Two random messages of every kind, in table order (fixed seed).
    fn sample_messages() -> Vec<Message> {
        let mut rng = SmallRng::seed_from_u64(7);
        Message::KINDS
            .iter()
            .flat_map(|&kind| [0, 1].map(|_| Message::arbitrary(kind, &mut rng)))
            .collect()
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

    /// The exact bytes of at least one frame per kind, written field by
    /// field (spaces separate fields). Every other test here is an encode
    /// → decode round trip, which a layout change made on both sides
    /// would pass; this one pins the layout itself, in both directions.
    #[test]
    fn golden_frames_are_pinned() {
        const QUERY: &str = "0200 0000 0200  0100 0100  0200 0000 0200 02 cb07000000000000 \
                             0200 0100 00 fdffffffffffffff";
        let mut buckets = [0u64; 64];
        buckets[0] = 3;
        buckets[17] = 1_000_000;
        buckets[63] = 1;
        let golden = [
            (
                Message::EstimateRequest { id: u64::MAX, query: sample_query() },
                format!("2f000000 01 ffffffffffffffff {QUERY}"),
            ),
            (
                Message::EstimateResponse {
                    id: 9,
                    estimate: 12345.75,
                    model_version: 3,
                    micro_batch: 64,
                    cache_hit: true,
                },
                "1a000000 02 0900000000000000 00000000e01cc840 03000000 40000000 01".into(),
            ),
            (
                Message::Error { id: 0, message: "no such model".into() },
                "1a000000 03 0000000000000000 0d000000 6e6f2073756368206d6f64656c".into(),
            ),
            (Message::Ping { id: 42 }, "09000000 04 2a00000000000000".into()),
            (Message::Pong { id: u64::MAX }, "09000000 05 ffffffffffffffff".into()),
            (
                Message::Hello { id: 1, version: 2, capabilities: CAP_FEEDBACK | CAP_RETRY },
                "0b000000 06 0100000000000000 02 11".into(),
            ),
            (
                Message::HelloAck { id: 1, version: 1, capabilities: CAPABILITIES },
                "0b000000 07 0100000000000000 01 3f".into(),
            ),
            (
                Message::Feedback { id: 11, query: sample_query(), actual_card: 123_456 },
                format!("37000000 08 0b00000000000000 40e2010000000000 {QUERY}"),
            ),
            (
                Message::FeedbackAck { id: 11, model_version: 4 },
                "0d000000 09 0b00000000000000 04000000".into(),
            ),
            (Message::StatsRequest { id: 21 }, "09000000 0a 1500000000000000".into()),
            (
                Message::Stats {
                    id: 21,
                    model_version: 4,
                    retrains: 2,
                    feedback_count: 900,
                    templates: vec![TemplateStat {
                        template: 0x0001_0003,
                        count: 512,
                        mean_qerror: 1.75,
                    }],
                },
                "2f000000 0b 1500000000000000 04000000 02000000 8403000000000000 \
                 0100 03000100 0002000000000000 000000000000fc3f"
                    .into(),
            ),
            (
                Message::Stats {
                    id: 22,
                    model_version: 1,
                    retrains: 0,
                    feedback_count: 0,
                    templates: vec![],
                },
                "1b000000 0b 1600000000000000 01000000 00000000 0000000000000000 0000".into(),
            ),
            (Message::DriftStatusRequest { id: 31 }, "09000000 0c 1f00000000000000".into()),
            (
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
                "1d000000 0d 1f00000000000000 01 0100 03000100 40000000 0000000000802040 01".into(),
            ),
            (
                Message::DriftStatus { id: 32, retrain_in_flight: false, templates: vec![] },
                "0c000000 0d 2000000000000000 00 0000".into(),
            ),
            (Message::MetricsRequest { id: 41 }, "09000000 0e 2900000000000000".into()),
            (
                Message::MetricsSnapshot {
                    id: 41,
                    uptime_ns: 5_000_000_000,
                    scalars: vec![
                        ScalarMetric { id: 0, gauge: false, value: 12_345 },
                        ScalarMetric { id: 14, gauge: true, value: 7 },
                    ],
                    histograms: vec![
                        HistogramMetric { id: 18, sum: 0, max: 0, buckets: [0; 64] },
                        HistogramMetric { id: 19, sum: u64::MAX, max: u64::MAX, buckets },
                    ],
                },
                "77000000 0f 2900000000000000 00f2052a01000000 \
                 0200 0000 00 3930000000000000  0e00 01 0700000000000000 \
                 0200 1200 0000000000000000 0000000000000000 0000000000000000 \
                 1300 ffffffffffffffff ffffffffffffffff 0100020000000080 \
                 0300000000000000 40420f0000000000 0100000000000000"
                    .into(),
            ),
            (
                Message::MetricsSnapshot {
                    id: 42,
                    uptime_ns: 0,
                    scalars: vec![],
                    histograms: vec![],
                },
                "15000000 0f 2a00000000000000 0000000000000000 0000 0000".into(),
            ),
            (
                Message::Busy { id: u64::MAX, retry_after_ms: 50 },
                "0d000000 10 ffffffffffffffff 32000000".into(),
            ),
            (
                Message::EstimateDetail {
                    id: u64::MAX,
                    estimate: 1.0,
                    model_version: u32::MAX,
                    micro_batch: 8,
                    cache_hit: false,
                    tier: 2,
                    log_std: -0.0,
                },
                "23000000 11 ffffffffffffffff 000000000000f03f ffffffff 08000000 00 02 \
                 0000000000000080"
                    .into(),
            ),
        ];
        let mut kinds = Vec::new();
        for (message, hex) in &golden {
            let hex: String = hex.split_whitespace().collect();
            let bytes: Vec<u8> = (0..hex.len())
                .step_by(2)
                .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex literal"))
                .collect();
            assert_eq!(message.to_bytes(), bytes, "{message:?} encodes differently");
            let (back, consumed) = Message::decode_prefix(&bytes, PROTOCOL_VERSION)
                .expect("golden frame decodes")
                .expect("golden frame is complete");
            assert_eq!(
                (&back, consumed),
                (message, bytes.len()),
                "golden frame decodes differently"
            );
            kinds.push(message.kind());
        }
        kinds.dedup();
        assert_eq!(kinds, (1..=17).collect::<Vec<u8>>(), "one golden frame per kind, in order");
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

    /// A random value of one field type, for the generator the message
    /// table derives ([`Message::arbitrary`]).
    pub(super) trait Arbitrary {
        fn arbitrary(rng: &mut SmallRng) -> Self;
    }

    macro_rules! arbitrary_ints {
        ($($ty:ty),*) => {$(
            impl Arbitrary for $ty {
                fn arbitrary(rng: &mut SmallRng) -> Self {
                    rng.gen_range(<$ty>::MIN..=<$ty>::MAX)
                }
            }
        )*};
    }

    arbitrary_ints!(u8, u16, u32, u64);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut SmallRng) -> Self {
            rng.gen_bool(0.5)
        }
    }

    /// Any bit pattern but a NaN, which would not compare equal to itself.
    impl Arbitrary for f64 {
        fn arbitrary(rng: &mut SmallRng) -> Self {
            loop {
                let x = f64::from_bits(u64::arbitrary(rng));
                if !x.is_nan() {
                    return x;
                }
            }
        }
    }

    impl Arbitrary for String {
        fn arbitrary(rng: &mut SmallRng) -> Self {
            const CHARS: [char; 6] = ['a', 'Z', ' ', '~', 'é', '🦀'];
            (0..rng.gen_range(0..64usize)).map(|_| CHARS[rng.gen_range(0..CHARS.len())]).collect()
        }
    }

    impl Arbitrary for Query {
        fn arbitrary(rng: &mut SmallRng) -> Self {
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
    }

    impl<T: Arbitrary> Arbitrary for Vec<T> {
        fn arbitrary(rng: &mut SmallRng) -> Self {
            (0..rng.gen_range(0..8usize)).map(|_| T::arbitrary(rng)).collect()
        }
    }

    impl Arbitrary for HistogramMetric {
        fn arbitrary(rng: &mut SmallRng) -> Self {
            let mut buckets = [0u64; 64];
            for bucket in buckets.iter_mut() {
                // ~25% of buckets populated; zero buckets stay off the
                // wire, which is exactly the canonical form.
                if rng.gen_bool(0.25) {
                    *bucket = rng.gen_range(1u64..=u64::MAX);
                }
            }
            let (id, sum, max) = (u16::arbitrary(rng), u64::arbitrary(rng), u64::arbitrary(rng));
            HistogramMetric { id, sum, max, buckets }
        }
    }

    proptest! {
        /// Arbitrary messages of every kind survive an encode → decode
        /// round trip byte-exactly, and every strict prefix of the frame
        /// is "incomplete", never an error or a wrong parse.
        #[test]
        fn every_arm_roundtrips(arm in 0..Message::KINDS.len(), seed in 0u64..u64::MAX) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let message = Message::arbitrary(Message::KINDS[arm], &mut rng);
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
