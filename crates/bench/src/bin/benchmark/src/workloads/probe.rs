//! `probe`: one connection, one request in flight, every request a cache
//! miss at batch 1. Nothing amortises, so the two syscall pairs, the
//! epoll wake and the per-request fixed costs are most of the round trip
//! and the model is about a third of it.

use std::borrow::Cow;
use std::io;
use std::time::Instant;

use lc_query::LabeledQuery;
use lc_serve::wire::Message;
use lc_serve::DriftConfig;

use super::{
    client_stages, counted_value, encode_with_id, qerrors, requests, served_estimate_stages,
    span_mean, Conn, Ctx, Meter, Outcome, Round, Served, Workload,
};
use crate::fixture::{Fingerprint, Fixture};
use crate::layers::LayerTimes;
use crate::trace::{Reconciliation, SpanTotals, NONE};

pub struct Probe<'a> {
    fixture: &'a Fixture,
    // Declared before `served`: the connection closes before the server
    // shuts down.
    conn: Conn,
    _served: Served,
    requests: Vec<Message>,
    frame: Vec<u8>,
    /// Next stream index; the stream is cycled, and being twice the
    /// cache's capacity it never hits.
    next: usize,
    sent: u64,
    latencies_us: Vec<f64>,
    hits: u64,
    batch_sum: u64,
    answers: u64,
    wrong: u64,
}

impl<'a> Probe<'a> {
    pub fn new(fixture: &'a Fixture) -> io::Result<Self> {
        let served = Served::start(fixture, DriftConfig::default())?;
        let conn = Conn::connect(served.addr)?;
        Ok(Probe {
            fixture,
            conn,
            _served: served,
            requests: requests(&fixture.stream),
            frame: Vec::with_capacity(256),
            next: 0,
            sent: 0,
            latencies_us: Vec::with_capacity(fixture.scale.probe_round),
            hits: 0,
            batch_sum: 0,
            answers: 0,
            wrong: 0,
        })
    }
}

impl Workload for Probe<'_> {
    fn inputs_fingerprint(&self) -> u64 {
        let mut f = Fingerprint::default();
        for r in &self.requests {
            f.bytes(&r.to_bytes());
        }
        f.queries(&self.fixture.stream);
        f.finish()
    }

    fn round(&mut self, ctx: &mut Ctx<'_>) -> io::Result<Round> {
        let n = self.fixture.scale.probe_round;
        let mut round = Round::default();
        let meter = Meter::start(ctx);
        let start = Instant::now();
        self.latencies_us.clear();
        for _ in 0..n {
            let i = self.next;
            self.next = (i + 1) % self.requests.len();
            self.sent += 1;
            let id = self.sent;
            let tracer = &mut *ctx.tracer;
            let sent_at = Instant::now();
            let root = tracer.begin("probe.op", NONE, id);
            let span = tracer.begin("client.encode", root, id);
            self.frame.clear();
            encode_with_id(&mut self.requests[i], id, &mut self.frame);
            tracer.end(span);
            let span = tracer.begin("client.write", root, id);
            self.conn.send(&self.frame)?;
            tracer.end(span);
            let reply = self.conn.recv(tracer, root, id)?;
            tracer.end(root);
            self.latencies_us.push(sent_at.elapsed().as_nanos() as f64 / 1e3);
            round.attempted += 1;
            match reply {
                Message::EstimateResponse {
                    id: rid,
                    estimate,
                    model_version: 1,
                    micro_batch,
                    cache_hit,
                } if rid == id => {
                    self.answers += 1;
                    self.hits += u64::from(cache_hit);
                    self.batch_sum += u64::from(micro_batch);
                    if estimate.to_bits() != self.fixture.reference[i].to_bits() {
                        self.wrong += 1;
                        round.failed += 1;
                    }
                }
                // Error, Busy, or an answer to another request.
                _ => round.failed += 1,
            }
        }
        round.wall_ns = start.elapsed().as_nanos() as u64;
        meter.stop_cpu(&mut round);
        meter.stop_shard(&mut round);
        round.ops = n as u64;
        round.set_latencies(&self.latencies_us);
        Ok(round)
    }

    fn inputs(&self) -> Cow<'_, [LabeledQuery]> {
        Cow::Borrowed(&self.fixture.stream)
    }

    fn finish(&mut self) -> Outcome {
        let mut out = Outcome {
            qerrors: qerrors(self.fixture.reference.iter().copied(), &self.fixture.stream),
            model_bytes: self.fixture.model.serialized_size(),
            ..Outcome::default()
        };
        let answers = self.answers.max(1) as f64;
        let hit_share = self.hits as f64 / answers;
        let batch_mean = self.batch_sum as f64 / answers;
        if self.wrong > 0 {
            out.violations
                .push(format!("{} answers differ from the reference estimate", self.wrong));
        }
        if self.hits != 0 {
            out.violations.push(format!("probe must never hit the cache, hit share {hit_share}"));
        }
        if self.batch_sum != self.answers {
            out.violations.push(format!("probe must run at batch 1, batch mean {batch_mean}"));
        }
        out.counted.push(("serve.cache.hit_share", hit_share));
        out.counted.push(("serve.batcher.batch_mean", batch_mean));
        out
    }

    fn reconcile(
        &self,
        spans: &SpanTotals,
        layers: &LayerTimes,
        counted: &[(&'static str, f64)],
    ) -> (Reconciliation, &'static str) {
        let mut stages = client_stages(spans, "probe.op");
        stages.extend(served_estimate_stages(
            layers,
            counted_value(counted, "serve.cache.hit_share"),
            counted_value(counted, "serve.batcher.batch_mean"),
        ));
        (Reconciliation { root_ns: span_mean(spans, "probe.op"), stages }, "round trip")
    }
}
