//! Tiered estimation: the full uncertainty-routed pipeline from
//! `lc_serve` measured offline — a deep-ensemble MSCN primary,
//! gradient-boosted stumps for high-disagreement queries, and IBJS for
//! saturated (out-of-trained-range) queries — with per-tier q-error
//! attribution from `lc_eval::TierBreakdown`.
//!
//! The workload mixes in-distribution queries (0–2 joins, what the
//! primary trained on) with 3–4 join extrapolations (the paper's §4.3
//! generalization cliff), so the report shows what routing buys: the
//! primary keeps the bulk at learned-model accuracy while the fallback
//! tiers absorb the shapes it cannot answer.
//!
//! Writes the breakdown to `TIER_baseline.json` in the working directory
//! (the checked-in copy is at the repository root) so routing quality is
//! a tracked artifact.
//!
//! ```text
//! cargo run --release --example tiered_estimation
//! ```

use std::sync::Arc;

use lc_baselines::{GbmConfig, GbmEstimator, OwnedIbjsEstimator};
use lc_core::DeepEnsemble;
use lc_engine::JoinIndexes;
use lc_eval::TierBreakdown;
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

    // Train the tiers on 0-2 join queries only.
    let training = workloads::synthetic(&db, &samples, 2_000, 2, 12).queries;
    let cfg = TrainConfig { epochs: 20, hidden: 48, batch_size: 128, ..TrainConfig::default() };
    let (ensemble, _) = DeepEnsemble::train(&db, 64, &training, cfg, 3);
    let gbm = GbmEstimator::train(&db, &training, GbmConfig::default());
    let fallback = OwnedIbjsEstimator::new(
        Arc::new(db.clone()),
        Arc::new(samples.clone()),
        Arc::new(JoinIndexes::build(&db)),
        Arc::new(FullJoinSizes::build(&db)),
    );

    // Calibrate the trust threshold on in-distribution queries: route
    // away anything more uncertain than the in-distribution p90.
    let calibration = workloads::synthetic(&db, &samples, 300, 2, 13).queries;
    let mut stds: Vec<f64> =
        ensemble.estimate_with_uncertainty(&calibration).iter().map(|u| u.log_std).collect();
    stds.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let max_log_std = stds[stds.len() * 9 / 10];
    println!("calibrated trust threshold: log-std ≤ {max_log_std:.3}\n");

    let tiered = TieredEstimator::new(Arc::new(ensemble), max_log_std)
        .with_gbm(Arc::new(gbm))
        .with_fallback(Arc::new(fallback));

    // The scale workload: 0-4 joins in equal buckets — half of it is
    // query shapes the learned tiers never saw.
    let scale = workloads::scale(&db, &samples, 60, 14);
    let breakdown = TierBreakdown::measure(&tiered, &scale.queries);

    let tier_name = |t: u8| match t {
        0 => "primary (MSCN ens.)",
        1 => "gbm (stumps)",
        _ => "fallback (IBJS)",
    };
    println!(
        "{:<22} {:>6} {:>9} {:>8} {:>8} {:>8} {:>10}",
        "tier", "hits", "hit-rate", "median", "p95", "p99", "max"
    );
    for t in &breakdown.tiers {
        println!(
            "{:<22} {:>6} {:>8.1}% {:>8.2} {:>8.2} {:>8.1} {:>10.0}",
            tier_name(t.tier),
            t.hits,
            100.0 * breakdown.hit_rate(t.tier),
            t.stats.median,
            t.stats.p95,
            t.stats.p99,
            t.stats.max,
        );
    }
    println!(
        "{:<22} {:>6} {:>8.1}% {:>8.2} {:>8.2} {:>8.1} {:>10.0}",
        "overall",
        breakdown.total,
        100.0,
        breakdown.overall.median,
        breakdown.overall.p95,
        breakdown.overall.p99,
        breakdown.overall.max,
    );

    let path = "TIER_baseline.json";
    std::fs::write(path, breakdown.to_json() + "\n").expect("write breakdown");
    println!(
        "\nwrote {path}. A healthy pipeline keeps the primary's hit rate high with low \
         error and routes the out-of-distribution tail to the classical tiers."
    );
}
