//! `plan`: an optimizer costing a plan's sub-plans. Two connections, a
//! window of probes written to each in one `write`, then every reply
//! drained. Half of a window repeats hot sub-plans (cache hits), half is
//! fresh (misses that the shard coalesces into one batch per window), so
//! syscalls and wakes are divided by the window and decode, cache,
//! encode and the batched model are the work.

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
use crate::fixture::{plan_schedule, Fingerprint, Fixture};
use crate::layers::LayerTimes;
use crate::trace::{Reconciliation, SpanTotals, NONE};

const CONNECTIONS: usize = 2;

pub struct Plan<'a> {
    fixture: &'a Fixture,
    conns: Vec<Conn>,
    _served: Served,
    requests: Vec<Message>,
    /// Stream index of every probe, `CONNECTIONS × window` per step.
    schedule: Vec<u32>,
    /// Next step of the (cycled) schedule.
    step: usize,
    sent: u64,
    frames: Vec<Vec<u8>>,
    latencies_us: Vec<f64>,
    answered: Vec<bool>,
    hits: u64,
    misses: u64,
    miss_batch_sum: u64,
    wrong: u64,
}

impl<'a> Plan<'a> {
    pub fn new(fixture: &'a Fixture, seed: u64) -> io::Result<Self> {
        let served = Served::start(fixture, DriftConfig::default())?;
        let conns =
            (0..CONNECTIONS).map(|_| Conn::connect(served.addr)).collect::<io::Result<_>>()?;
        Ok(Plan {
            fixture,
            conns,
            _served: served,
            requests: requests(&fixture.stream),
            schedule: plan_schedule(&fixture.scale, seed),
            step: 0,
            sent: 0,
            frames: vec![Vec::new(); CONNECTIONS],
            latencies_us: Vec::with_capacity(fixture.scale.plan_steps),
            answered: vec![false; fixture.stream.len()],
            hits: 0,
            misses: 0,
            miss_batch_sum: 0,
            wrong: 0,
        })
    }
}

impl Workload for Plan<'_> {
    fn inputs_fingerprint(&self) -> u64 {
        let mut f = Fingerprint::default();
        f.queries(&self.fixture.stream);
        for &i in &self.schedule {
            f.u64(u64::from(i));
        }
        f.finish()
    }

    fn round(&mut self, ctx: &mut Ctx<'_>) -> io::Result<Round> {
        let scale = &self.fixture.scale;
        let window = scale.plan_window;
        let per_step = CONNECTIONS * window;
        let mut round = Round::default();
        let meter = Meter::start(ctx);
        let start = Instant::now();
        self.latencies_us.clear();
        for _ in 0..scale.plan_steps {
            let probes = &self.schedule[self.step * per_step..(self.step + 1) * per_step];
            self.step = (self.step + 1) % scale.plan_schedule_steps;
            let first_id = self.sent + 1;
            self.sent += per_step as u64;
            let tracer = &mut *ctx.tracer;
            let sent_at = Instant::now();
            let root = tracer.begin("plan.step", NONE, first_id);
            let span = tracer.begin("client.encode", root, first_id);
            for (c, frames) in self.frames.iter_mut().enumerate() {
                frames.clear();
                for (k, &probe) in probes.iter().enumerate().skip(c * window).take(window) {
                    encode_with_id(&mut self.requests[probe as usize], first_id + k as u64, frames);
                }
            }
            tracer.end(span);
            let span = tracer.begin("client.write", root, first_id);
            for (conn, frames) in self.conns.iter_mut().zip(&self.frames) {
                conn.send(frames)?;
            }
            tracer.end(span);
            for (c, conn) in self.conns.iter_mut().enumerate() {
                let ids = first_id + (c * window) as u64..first_id + ((c + 1) * window) as u64;
                for _ in 0..window {
                    let reply = conn.recv(tracer, root, first_id)?;
                    round.attempted += 1;
                    match reply {
                        // Hits are answered before the window's misses,
                        // so replies arrive out of order: the id says
                        // which probe each one answers.
                        Message::EstimateResponse {
                            id,
                            estimate,
                            model_version: 1,
                            micro_batch,
                            cache_hit,
                        } if ids.contains(&id) => {
                            let i = probes[(id - first_id) as usize] as usize;
                            self.answered[i] = true;
                            if cache_hit {
                                self.hits += 1;
                            } else {
                                self.misses += 1;
                                self.miss_batch_sum += u64::from(micro_batch);
                            }
                            if estimate.to_bits() != self.fixture.reference[i].to_bits() {
                                self.wrong += 1;
                                round.failed += 1;
                            }
                        }
                        _ => round.failed += 1,
                    }
                }
            }
            tracer.end(root);
            self.latencies_us.push(sent_at.elapsed().as_nanos() as f64 / 1e3);
        }
        round.wall_ns = start.elapsed().as_nanos() as u64;
        meter.stop_cpu(&mut round);
        meter.stop_shard(&mut round);
        round.ops = (scale.plan_steps * per_step) as u64;
        round.set_latencies(&self.latencies_us);
        Ok(round)
    }

    fn warmed_up(&mut self) {
        (self.hits, self.misses, self.miss_batch_sum) = (0, 0, 0);
    }

    fn inputs(&self) -> Cow<'_, [LabeledQuery]> {
        Cow::Borrowed(&self.fixture.stream)
    }

    fn finish(&mut self) -> Outcome {
        let answered = |i: &usize| self.answered[*i];
        let mut out = Outcome {
            qerrors: qerrors(
                (0..self.answered.len()).filter(answered).map(|i| self.fixture.reference[i]),
                (0..self.answered.len()).filter(answered).map(|i| &self.fixture.stream[i]),
            ),
            model_bytes: self.fixture.model.serialized_size(),
            ..Outcome::default()
        };
        let hit_share = self.hits as f64 / (self.hits + self.misses).max(1) as f64;
        if self.wrong > 0 {
            out.violations
                .push(format!("{} answers differ from the reference estimate", self.wrong));
        }
        if !(0.45..=0.55).contains(&hit_share) {
            out.violations.push(format!(
                "plan must hit the cache on 0.45–0.55 of probes, got {hit_share:.4}"
            ));
        }
        out.counted.push(("serve.cache.hit_share", hit_share));
        out.counted.push((
            "serve.batcher.batch_mean",
            self.miss_batch_sum as f64 / self.misses.max(1) as f64,
        ));
        out
    }

    fn reconcile(
        &self,
        spans: &SpanTotals,
        layers: &LayerTimes,
        counted: &[(&'static str, f64)],
    ) -> (Reconciliation, &'static str) {
        // Per estimate: a step is `CONNECTIONS × window` of them.
        let per_step = (CONNECTIONS * self.fixture.scale.plan_window) as f64;
        let mut stages = client_stages(spans, "plan.step");
        for (_, ns) in &mut stages {
            *ns /= per_step;
        }
        stages.extend(served_estimate_stages(
            layers,
            counted_value(counted, "serve.cache.hit_share"),
            counted_value(counted, "serve.batcher.batch_mean"),
        ));
        (Reconciliation { root_ns: span_mean(spans, "plan.step") / per_step, stages }, "estimate")
    }
}
