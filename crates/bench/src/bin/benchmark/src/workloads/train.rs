//! `train`: each round trains a fresh model from scratch with
//! `lc_core::train` — the write side of the layers `embed` reads: batch
//! assembly, cached forward, backward, Adam, validation. It catches an
//! inference gain paid for by training, and is the unit cost of every
//! self-healing retrain.

use std::borrow::Cow;
use std::io;
use std::time::Instant;

use lc_core::train;
use lc_query::LabeledQuery;

use super::{qerrors, Ctx, Meter, Outcome, Round, Workload};
use crate::fixture::{train_config, Fingerprint, Fixture};
use crate::layers::LayerTimes;
use crate::trace::{Reconciliation, SpanTotals, NONE};

pub struct Train<'a> {
    fixture: &'a Fixture,
    rounds: u64,
    /// Fingerprint of the first round's serialized model; every later
    /// round must reproduce it (training is deterministic per seed).
    weights: Option<u64>,
    divergent_rounds: u64,
    model_bytes: usize,
    qerrors: Vec<f64>,
}

impl<'a> Train<'a> {
    pub fn new(fixture: &'a Fixture) -> Self {
        Train {
            fixture,
            rounds: 0,
            weights: None,
            divergent_rounds: 0,
            model_bytes: 0,
            qerrors: Vec::new(),
        }
    }

    fn corpus(&self) -> &'a [LabeledQuery] {
        &self.fixture.stream[..self.fixture.scale.train_queries]
    }

    /// Held out from training: the bootstrap corpus, which shares no
    /// query with the stream.
    fn heldout(&self) -> &'a [LabeledQuery] {
        &self.fixture.bootstrap[..self.fixture.scale.heldout_queries]
    }
}

impl Workload for Train<'_> {
    fn inputs_fingerprint(&self) -> u64 {
        let mut f = Fingerprint::default();
        f.queries(self.corpus());
        f.queries(self.heldout());
        f.finish()
    }

    fn round(&mut self, ctx: &mut Ctx<'_>) -> io::Result<Round> {
        let scale = self.fixture.scale;
        let config = train_config(&scale, scale.train_epochs);
        self.rounds += 1;
        let meter = Meter::start(ctx);
        let start = Instant::now();
        let root = ctx.tracer.begin("train.fit", NONE, self.rounds);
        let trained = train(&self.fixture.db, scale.sample_size, self.corpus(), config);
        ctx.tracer.end(root);
        let wall_ns = start.elapsed().as_nanos() as u64;
        let mut round = Round {
            ops: (scale.train_queries * scale.train_epochs) as u64,
            wall_ns,
            attempted: 1,
            ..Round::default()
        };
        meter.stop_cpu(&mut round);
        round.set_latencies(&[wall_ns as f64 / 1e3]);

        let bytes = trained.estimator.to_bytes();
        let mut weights = Fingerprint::default();
        weights.bytes(&bytes);
        match self.weights {
            None => {
                self.weights = Some(weights.finish());
                self.model_bytes = bytes.len();
                self.qerrors =
                    qerrors(trained.estimator.estimate_cards(self.heldout()), self.heldout());
            }
            Some(first) if first != weights.finish() => {
                self.divergent_rounds += 1;
                round.failed = 1;
            }
            Some(_) => {}
        }
        Ok(round)
    }

    fn one_sample_per_round(&self) -> bool {
        true
    }

    fn inputs(&self) -> Cow<'_, [LabeledQuery]> {
        Cow::Borrowed(self.corpus())
    }

    fn finish(&mut self) -> Outcome {
        let mut out = Outcome {
            qerrors: std::mem::take(&mut self.qerrors),
            model_bytes: self.model_bytes,
            ..Outcome::default()
        };
        if self.divergent_rounds > 0 {
            out.violations.push(format!(
                "{} of {} rounds trained different weights from the same corpus",
                self.divergent_rounds, self.rounds
            ));
        }
        out
    }

    fn reconcile(
        &self,
        _spans: &SpanTotals,
        layers: &LayerTimes,
        _counted: &[(&'static str, f64)],
    ) -> (Reconciliation, &'static str) {
        // Per optimizer step: the live `train()` against the step
        // rebuilt from public calls. What has no public entry point
        // (shard reduction, transpose-cache refresh, up-front
        // featurization, per-epoch validation) is the residual.
        let stage = |name: &str| (name.trim_end_matches("_ns").to_owned(), layers.get(name));
        let stages = vec![
            stage("core.train.assemble_ns"),
            stage("core.train.forward_ns"),
            stage("nn.loss_ns"),
            stage("core.train.backward_ns"),
            stage("nn.adam_ns"),
        ];
        (Reconciliation { root_ns: layers.get("core.train.fit_ns"), stages }, "training step")
    }
}
