//! Tiered estimation: the library's `serve --tiered` pipeline
//! (`lc_serve::tiered_pipeline`) measured offline beside the plain MSCN
//! model it wraps. The pipeline answers a query from the model unless
//! the model's estimate is saturated (at or beyond the edge of its
//! trained label range); those queries go to index-based join sampling.
//! `lc_eval::TierBreakdown` attributes each q-error to the tier that
//! answered.
//!
//! The workload mixes in-distribution queries (0–2 joins, what the
//! model trained on) with 3–4 join extrapolations (the paper's §4.3
//! generalization cliff), so the report shows what the fallback buys
//! over the plain model.
//!
//! Writes the pipeline's breakdown to `TIER_baseline.json` in the
//! working directory (the checked-in copy is at the repository root) so
//! routing quality is a tracked artifact.
//!
//! ```text
//! cargo run --release --example tiered_estimation
//! ```

use lc_eval::{QErrorStats, TierBreakdown};
use lc_serve::{tiered_pipeline, TIER_PRIMARY};
use learned_cardinalities::prelude::*;

fn main() {
    let db = lc_imdb::generate(&ImdbConfig {
        num_titles: 4_000,
        num_companies: 400,
        num_persons: 3_000,
        num_keywords: 600,
        seed: 29,
    });
    let mut rng = SmallRng::seed_from_u64(8);
    let samples = SampleSet::draw(&db, 64, &mut rng);

    // Train the model on 0-2 join queries only. 60 epochs is the budget
    // a three-member ensemble of 20-epoch models would take; spent on
    // one model, it buys a lower tail at a third of the inference cost.
    let training = workloads::synthetic(&db, &samples, 2_000, 2, 12).queries;
    let cfg = TrainConfig { epochs: 60, hidden: 48, batch_size: 128, ..TrainConfig::default() };
    let model = train(&db, 64, &training, cfg).estimator;
    let pipeline = tiered_pipeline(&db, &samples)(&model);

    // The scale workload: 0-4 joins in equal buckets — half of it is
    // query shapes the model never saw.
    let scale = workloads::scale(&db, &samples, 60, 14);
    let plain = TierBreakdown::measure(&model, &scale.queries);
    let tiered = TierBreakdown::measure(pipeline.as_ref(), &scale.queries);

    println!(
        "{:<22} {:>6} {:>9} {:>8} {:>8} {:>8} {:>10}",
        "estimator / tier", "hits", "hit-rate", "median", "p95", "p99", "max"
    );
    let row = |label: &str, hits: usize, rate: f64, s: &QErrorStats| {
        println!(
            "{label:<22} {hits:>6} {:>8.1}% {:>8.2} {:>8.2} {:>8.1} {:>10.0}",
            100.0 * rate,
            s.median,
            s.p95,
            s.p99,
            s.max,
        );
    };
    row("MSCN (plain)", plain.total, 1.0, &plain.overall);
    for t in &tiered.tiers {
        let label = if t.tier == TIER_PRIMARY { "  primary (MSCN)" } else { "  fallback (IBJS)" };
        row(label, t.hits, tiered.hit_rate(t.tier), &t.stats);
    }
    row("tiered (overall)", tiered.total, 1.0, &tiered.overall);

    let rerouted =
        tiered.total - tiered.tiers.iter().find(|t| t.tier == TIER_PRIMARY).map_or(0, |t| t.hits);
    let path = "TIER_baseline.json";
    std::fs::write(path, tiered.to_json() + "\n").expect("write breakdown");
    println!(
        "\n{rerouted} of {} estimates saturated and went to IBJS; wrote {path}.",
        tiered.total
    );
}
