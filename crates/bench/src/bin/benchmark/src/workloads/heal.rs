//! `heal`: the self-healing loop under a workload shift. One connection
//! sends `EstimateRequest` → `Feedback(actual)` pairs; every round starts
//! a fresh service from the bootstrap model, sends in-distribution pairs
//! and then pairs of 3-join queries the model never saw (§4.3), so the
//! drift monitor trips, a background retrain competes with the shard
//! and the client for the cores, and the registry publishes mid-traffic.
//! This is the write side of `lc_serve`.

use std::borrow::Cow;
use std::io;
use std::time::Instant;

use lc_core::{train_incremental, TrainConfig};
use lc_eval::metrics::{percentile, qerror};
use lc_query::LabeledQuery;
use lc_serve::wire::Message;
use lc_serve::DriftConfig;

use super::{
    client_stages, encode_with_id, requests, span_mean, Conn, Ctx, Meter, Outcome, Round, Served,
    Workload,
};
use crate::fixture::{Fingerprint, Fixture, Scale};
use crate::layers::LayerTimes;
use crate::stats;
use crate::trace::{Reconciliation, SpanTotals, NONE};

/// Joins of the shifted queries: one more than the model was trained on.
const SHIFTED_JOINS: usize = 3;

pub struct Heal<'a> {
    fixture: &'a Fixture,
    /// In-distribution queries first, then the shifted ones.
    queries: Vec<LabeledQuery>,
    requests: Vec<Message>,
    feedback: Vec<Message>,
    frame: Vec<u8>,
    sent: u64,
    latencies_us: Vec<f64>,
    estimates: Vec<f64>,
    // Per round.
    retrains: Vec<f64>,
    first_publish_ms: Vec<f64>,
    stale_answers: Vec<f64>,
    spike_qerr: Vec<f64>,
    retrain_ms: Vec<f64>,
    /// Q-errors of the last `heal_scored` shifted answers of every
    /// round, pooled: what the service serves once it has healed.
    scored: Vec<f64>,
    wrong: u64,
    version_regressions: u64,
    rounds_without_publish: u64,
}

/// `DriftConfig::default()` with the retrain on one thread.
fn drift_config(scale: &Scale) -> DriftConfig {
    let default = DriftConfig::default();
    let retrain = TrainConfig { threads: 1, epochs: scale.heal_retrain_epochs, ..default.retrain };
    DriftConfig { retrain, ..default }
}

impl<'a> Heal<'a> {
    pub fn new(fixture: &'a Fixture, seed: u64) -> Self {
        let scale = &fixture.scale;
        let mut queries = fixture.stream[..scale.heal_steady].to_vec();
        queries.extend(fixture.shifted_queries(scale.heal_shifted, SHIFTED_JOINS, seed));
        let feedback = queries
            .iter()
            .map(|q| Message::Feedback {
                id: 0,
                query: q.query.clone(),
                actual_card: q.cardinality,
            })
            .collect();
        Heal {
            fixture,
            requests: requests(&queries),
            feedback,
            frame: Vec::with_capacity(256),
            sent: 0,
            latencies_us: Vec::with_capacity(queries.len()),
            estimates: Vec::with_capacity(queries.len()),
            queries,
            retrains: Vec::new(),
            first_publish_ms: Vec::new(),
            stale_answers: Vec::new(),
            spike_qerr: Vec::new(),
            retrain_ms: Vec::new(),
            scored: Vec::new(),
            wrong: 0,
            version_regressions: 0,
            rounds_without_publish: 0,
        }
    }

    /// Encode, write, wait, decode: one request of a pair.
    fn exchange(
        frame: &mut Vec<u8>,
        conn: &mut Conn,
        message: &mut Message,
        id: u64,
        root: u32,
        ctx: &mut Ctx<'_>,
    ) -> io::Result<Message> {
        let tracer = &mut *ctx.tracer;
        let span = tracer.begin("client.encode", root, id);
        frame.clear();
        encode_with_id(message, id, frame);
        tracer.end(span);
        let span = tracer.begin("client.write", root, id);
        conn.send(frame)?;
        tracer.end(span);
        conn.recv(tracer, root, id)
    }
}

impl Workload for Heal<'_> {
    fn inputs_fingerprint(&self) -> u64 {
        let mut f = Fingerprint::default();
        f.queries(&self.queries);
        f.finish()
    }

    fn round(&mut self, ctx: &mut Ctx<'_>) -> io::Result<Round> {
        let scale = self.fixture.scale;
        let mut round = Round::default();
        // CPU is counted from service start to the retrainer's join:
        // this metric is where the retrain cost shows.
        let meter = Meter::start(ctx);
        let served = Served::start(self.fixture, drift_config(&scale))?;
        let mut conn = Conn::connect(served.addr)?;
        self.latencies_us.clear();
        self.estimates.clear();
        let mut version = 1u32;
        let mut shift_started = None;
        let mut first_publish: Option<(usize, f64)> = None;
        let start = Instant::now();
        for k in 0..self.queries.len() {
            if k == scale.heal_steady {
                shift_started = Some((Instant::now(), version));
            }
            self.sent += 1;
            let id = self.sent;
            let sent_at = Instant::now();
            let root = ctx.tracer.begin("heal.pair", NONE, id);
            let answer =
                Self::exchange(&mut self.frame, &mut conn, &mut self.requests[k], id, root, ctx)?;
            let ack =
                Self::exchange(&mut self.frame, &mut conn, &mut self.feedback[k], id, root, ctx)?;
            ctx.tracer.end(root);
            self.latencies_us.push(sent_at.elapsed().as_nanos() as f64 / 1e3);
            round.attempted += 1;
            match (answer, ack) {
                (
                    Message::EstimateResponse {
                        id: a, estimate, model_version: answered_by, ..
                    },
                    Message::FeedbackAck { id: b, model_version: acked_by },
                ) if a == id && b == id && estimate.is_finite() && estimate >= 1.0 => {
                    if answered_by < version || acked_by < answered_by {
                        self.version_regressions += 1;
                        round.failed += 1;
                    }
                    // Until the first publish the bootstrap model
                    // answers, and must answer as the reference does.
                    if answered_by == 1
                        && k < scale.heal_steady
                        && estimate.to_bits() != self.fixture.reference[k].to_bits()
                    {
                        self.wrong += 1;
                        round.failed += 1;
                    }
                    version = version.max(acked_by);
                    self.estimates.push(estimate);
                    if let Some((since, at_shift)) = shift_started {
                        if first_publish.is_none() && version > at_shift {
                            first_publish =
                                Some((k - scale.heal_steady, since.elapsed().as_secs_f64() * 1e3));
                        }
                    }
                }
                _ => {
                    round.failed += 1;
                    self.estimates.push(f64::NAN);
                }
            }
        }
        round.wall_ns = start.elapsed().as_nanos() as u64;
        round.ops = self.queries.len() as u64;
        // The shard thread dies with the service: read it first.
        meter.stop_shard(&mut round);
        drop(conn);
        let corpus = ctx.sample_threads.then(|| served.service.drift().corpus_snapshot());
        let last_model =
            ctx.sample_threads.then(|| served.service.registry().current().base().clone());
        drop(served);
        meter.stop_cpu(&mut round);
        round.set_latencies(&self.latencies_us);

        if let (Some(corpus), Some(model)) = (corpus, last_model) {
            if !corpus.is_empty() {
                let t = Instant::now();
                std::hint::black_box(train_incremental(
                    &model,
                    &corpus,
                    drift_config(&scale).retrain,
                ));
                self.retrain_ms.push(t.elapsed().as_secs_f64() * 1e3);
            }
        }

        let q = |range: std::ops::Range<usize>| -> Vec<f64> {
            range
                .filter(|&k| self.estimates[k].is_finite())
                .map(|k| qerror(self.estimates[k], self.queries[k].cardinality as f64))
                .collect()
        };
        let shifted_from = scale.heal_steady;
        self.retrains.push(f64::from(version - 1));
        match first_publish {
            Some((stale, ms)) => {
                self.first_publish_ms.push(ms);
                self.stale_answers.push(stale as f64);
                let spike = q(shifted_from..shifted_from + stale.max(1));
                if !spike.is_empty() {
                    self.spike_qerr.push(percentile(&spike, 50.0));
                }
            }
            None => {
                self.rounds_without_publish += 1;
                // Never healed: every shifted answer was stale.
                self.stale_answers.push(scale.heal_shifted as f64);
                let spike = q(shifted_from..self.queries.len());
                if !spike.is_empty() {
                    self.spike_qerr.push(percentile(&spike, 50.0));
                }
            }
        }
        let scored = q(self.queries.len() - scale.heal_scored..self.queries.len());
        self.scored.extend(scored);
        Ok(round)
    }

    fn warmed_up(&mut self) {
        for per_round in [
            &mut self.retrains,
            &mut self.first_publish_ms,
            &mut self.stale_answers,
            &mut self.spike_qerr,
            &mut self.retrain_ms,
            &mut self.scored,
        ] {
            per_round.clear();
        }
        self.rounds_without_publish = 0;
    }

    fn inputs(&self) -> Cow<'_, [LabeledQuery]> {
        Cow::Borrowed(&self.queries)
    }

    fn finish(&mut self) -> Outcome {
        let healed = stats::median(&self.scored);
        let spike = stats::median(&self.spike_qerr);
        let mut out = Outcome {
            qerrors: std::mem::take(&mut self.scored),
            model_bytes: self.fixture.model.serialized_size(),
            ..Outcome::default()
        };
        if self.wrong > 0 {
            out.violations
                .push(format!("{} bootstrap answers differ from the reference", self.wrong));
        }
        if self.version_regressions > 0 {
            out.violations
                .push(format!("model version went backwards {} times", self.version_regressions));
        }
        if self.rounds_without_publish > 0 {
            out.violations.push(format!(
                "{} rounds saw no publish after the shift",
                self.rounds_without_publish
            ));
        }
        if healed >= spike {
            out.violations.push(format!(
                "q-error did not recover: {healed:.3} after healing, {spike:.3} at the spike"
            ));
        }
        out.counted = vec![
            ("serve.heal.retrains", stats::median(&self.retrains)),
            ("serve.heal.first_publish_ms", stats::median(&self.first_publish_ms)),
            ("serve.heal.retrain_ms", stats::median(&self.retrain_ms)),
            ("serve.heal.stale_answers", stats::median(&self.stale_answers)),
            ("serve.heal.qerr_spike", spike),
        ];
        out
    }

    fn reconcile(
        &self,
        spans: &SpanTotals,
        layers: &LayerTimes,
        _counted: &[(&'static str, f64)],
    ) -> (Reconciliation, &'static str) {
        // A pair is one estimate that misses the cache at batch 1 and
        // one feedback that hits it; feedback annotates again for the
        // corpus entry.
        let mut stages = client_stages(spans, "heal.pair");
        let l = |name: &str| layers.get(name);
        stages.extend([
            ("serve.wire.decode".to_owned(), l("serve.wire.decode_ns")),
            ("serve.wire.feedback_decode".to_owned(), l("serve.wire.feedback_decode_ns")),
            ("query.codec.key".to_owned(), 2.0 * l("query.codec.key_ns")),
            ("serve.cache.miss".to_owned(), l("serve.cache.miss_ns")),
            ("serve.cache.hit".to_owned(), l("serve.cache.hit_ns")),
            ("query.annotate".to_owned(), 2.0 * l("query.annotate_ns")),
            ("core.featurize.b1".to_owned(), l("core.featurize_ns.b1")),
            ("core.forward.b1".to_owned(), l("core.forward_ns.b1")),
            ("serve.service.overhead.b1".to_owned(), l("serve.service.overhead_ns.b1")),
            ("serve.drift.record".to_owned(), l("serve.drift.record_ns")),
            ("serve.wire.encode".to_owned(), 2.0 * l("serve.wire.encode_ns")),
        ]);
        (Reconciliation { root_ns: span_mean(spans, "heal.pair"), stages }, "pair")
    }
}
