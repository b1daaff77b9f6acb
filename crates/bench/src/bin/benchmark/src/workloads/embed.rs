//! `embed`: the estimator called in process, no sockets and no service:
//! `annotate_query` + `Estimator::estimate_all` on the f32 model. Each
//! round first estimates blocks of queries (throughput, CPU per
//! estimate), then single queries (per-call latency). `lc_serve` does
//! nothing here; a featurize, forward or kernel gain shows undiluted.

use std::borrow::Cow;
use std::io;
use std::time::Instant;

use lc_core::Estimator;
use lc_query::{annotate_query, LabeledQuery};

use super::{qerrors, span_mean, Ctx, Meter, Outcome, Round, Workload};
use crate::fixture::{Fingerprint, Fixture};
use crate::layers::LayerTimes;
use crate::trace::{Reconciliation, SpanTotals, NONE};

/// One in this many single-query calls records spans in a traced run:
/// three spans on a 4 µs call would otherwise cost more than 5 %.
const SINGLE_SPAN_SAMPLING: usize = 8;

pub struct Embed<'a> {
    fixture: &'a Fixture,
    annotated: Vec<LabeledQuery>,
    next_block: usize,
    next_single: usize,
    calls: u64,
    latencies_us: Vec<f64>,
    wrong: u64,
}

impl<'a> Embed<'a> {
    pub fn new(fixture: &'a Fixture) -> Self {
        Embed {
            fixture,
            annotated: Vec::with_capacity(fixture.scale.embed_block),
            next_block: 0,
            next_single: 0,
            calls: 0,
            latencies_us: Vec::with_capacity(fixture.scale.embed_singles),
            wrong: 0,
        }
    }

    /// One caller-visible call: annotate `stream[lo..lo + n]` against
    /// the samples, estimate, compare with the reference. Returns the
    /// number of wrong answers.
    fn call(&mut self, lo: usize, n: usize, root_name: &'static str, ctx: &mut Ctx<'_>) -> u64 {
        let f = self.fixture;
        let estimator: &dyn Estimator = &f.model;
        self.calls += 1;
        let tracer = &mut *ctx.tracer;
        let root = tracer.begin(root_name, NONE, self.calls);
        let span = tracer.begin("query.annotate", root, self.calls);
        self.annotated.clear();
        for q in &f.stream[lo..lo + n] {
            self.annotated.push(annotate_query(&f.db, &f.samples, q.query.clone()));
        }
        tracer.end(span);
        let span = tracer.begin("core.estimate", root, self.calls);
        let estimates = estimator.estimate_all(&self.annotated);
        tracer.end(span);
        tracer.end(root);
        let wrong = estimates
            .iter()
            .zip(&f.reference[lo..lo + n])
            .filter(|(e, r)| e.to_bits() != r.to_bits())
            .count();
        wrong as u64
    }
}

impl Workload for Embed<'_> {
    fn inputs_fingerprint(&self) -> u64 {
        let mut f = Fingerprint::default();
        f.queries(&self.fixture.stream);
        f.finish()
    }

    fn round(&mut self, ctx: &mut Ctx<'_>) -> io::Result<Round> {
        let scale = self.fixture.scale;
        let stream = self.fixture.stream.len();
        let mut round = Round::default();
        let meter = Meter::start(ctx);
        let start = Instant::now();
        for _ in 0..scale.embed_blocks {
            let lo = self.next_block * scale.embed_block;
            self.next_block = (self.next_block + 1) % (stream / scale.embed_block);
            round.failed += self.call(lo, scale.embed_block, "embed.block", ctx);
        }
        round.wall_ns = start.elapsed().as_nanos() as u64;
        meter.stop_cpu(&mut round);
        round.ops = (scale.embed_blocks * scale.embed_block) as u64;

        self.latencies_us.clear();
        let was_recording = ctx.tracer.recording();
        for k in 0..scale.embed_singles {
            let i = self.next_single;
            self.next_single = (i + 1) % stream;
            ctx.tracer.set_recording(was_recording && k % SINGLE_SPAN_SAMPLING == 0);
            let called_at = Instant::now();
            round.failed += self.call(i, 1, "embed.single", ctx);
            self.latencies_us.push(called_at.elapsed().as_nanos() as f64 / 1e3);
        }
        ctx.tracer.set_recording(was_recording);
        round.attempted = round.ops + scale.embed_singles as u64;
        self.wrong += round.failed;
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
        if self.wrong > 0 {
            out.violations
                .push(format!("{} answers differ from the reference estimate", self.wrong));
        }
        out
    }

    fn reconcile(
        &self,
        spans: &SpanTotals,
        layers: &LayerTimes,
        _counted: &[(&'static str, f64)],
    ) -> (Reconciliation, &'static str) {
        // Per estimate of a block call.
        let stages = vec![
            ("query.annotate".to_owned(), layers.get("query.annotate_ns")),
            ("core.estimate.b256".to_owned(), layers.get("core.estimate_ns.b256")),
        ];
        let root = span_mean(spans, "embed.block") / self.fixture.scale.embed_block as f64;
        (Reconciliation { root_ns: root, stages }, "estimate in a block call")
    }
}
