//! One function per artifact of the paper's evaluation section. Every
//! function renders a markdown fragment containing the measured numbers
//! next to the paper's published numbers, so EXPERIMENTS.md can be
//! regenerated mechanically (`experiments --all`).
//!
//! Absolute values are not expected to match — the substrate is a scaled
//! synthetic dataset, not the authors' IMDb snapshot on a GPU box — but
//! the *shape* (who wins, by how much, where estimators break) is the
//! reproduction target; each function states the shape criterion it checks.

use lc_core::Estimator;
use lc_core::{train, FeatureMode, TrainConfig};
use lc_nn::LossKind;
use lc_query::LabeledQuery;

use crate::harness::Harness;
use crate::metrics::{auroc, covered, evaluate, evaluate_signed, percentile, QErrorStats};
use crate::report::{fmt_q, Table, QERROR_HEADER};

/// One registered experiment: `(id, paper artifact, render function)`.
pub type Experiment = (&'static str, &'static str, fn(&mut Harness) -> String);

/// Per join count, the signed estimation errors of one estimator.
type SignedBuckets = Vec<(usize, Vec<f64>)>;

/// Registry of all experiments: `(id, paper artifact, function)`.
pub fn registry() -> Vec<Experiment> {
    vec![
        ("table1", "Table 1: distribution of joins", table1 as fn(&mut Harness) -> String),
        ("fig3", "Figure 3: estimation errors on the synthetic workload (box plots)", fig3),
        ("table2", "Table 2: estimation errors on the synthetic workload", table2),
        ("table3", "Table 3: 0-tuple situations (base tables with empty samples)", table3),
        ("fig4", "Figure 4: removing model features (ablation)", fig4),
        ("fig5", "Figure 5 + sec 4.4: generalizing to more joins (scale)", fig5),
        ("table4", "Table 4 + sec 4.5: JOB-light", table4),
        ("hypergrid", "Sec 4.6: hyperparameter tuning", hypergrid),
        ("fig6", "Figure 6: convergence of the validation mean q-error", fig6),
        ("costs", "Sec 4.7: model costs", costs),
        ("objectives", "Sec 4.8: optimization metrics", objectives),
        ("ext_predbitmaps", "Sec 5 extension: one bitmap per predicate", ext_predbitmaps),
        ("ext_uncertainty", "Sec 5 extension: trust signals by risk-coverage", ext_uncertainty),
        (
            "ext_incremental",
            "Sec 5 extension: incremental training and forgetting",
            ext_incremental,
        ),
    ]
}

fn box_percentiles(signed: &[f64]) -> [f64; 5] {
    [
        percentile(signed, 5.0),
        percentile(signed, 25.0),
        percentile(signed, 50.0),
        percentile(signed, 75.0),
        percentile(signed, 95.0),
    ]
}

fn signed_cell(v: f64) -> String {
    if v < 0.0 {
        format!("under {}", fmt_q(-v))
    } else {
        format!("over {}", fmt_q(v))
    }
}

/// Box-plot style table: per estimator and join count, the 5/25/50/75/95th
/// percentiles of the signed estimation factor.
fn box_table(rows: &[(String, SignedBuckets)]) -> String {
    let mut t = Table::new(&["estimator", "joins", "p5", "p25", "median", "p75", "p95"]);
    for (name, buckets) in rows {
        for (j, signed) in buckets {
            let p = box_percentiles(signed);
            t.row(vec![
                name.clone(),
                j.to_string(),
                signed_cell(p[0]),
                signed_cell(p[1]),
                signed_cell(p[2]),
                signed_cell(p[3]),
                signed_cell(p[4]),
            ]);
        }
    }
    t.render()
}

fn split_by_joins(queries: &[LabeledQuery], max: usize) -> Vec<(usize, Vec<&LabeledQuery>)> {
    (0..=max)
        .map(|j| (j, queries.iter().filter(|q| q.query.num_joins() == j).collect::<Vec<_>>()))
        .filter(|(_, v)| !v.is_empty())
        .collect()
}

fn signed_by_joins(est: &dyn Estimator, queries: &[LabeledQuery], max: usize) -> SignedBuckets {
    split_by_joins(queries, max)
        .into_iter()
        .map(|(j, qs)| {
            let owned: Vec<LabeledQuery> = qs.into_iter().cloned().collect();
            (j, evaluate_signed(est, &owned))
        })
        .collect()
}

// ---------------------------------------------------------------- Table 1

/// Table 1: number of queries per join count in the three workloads.
pub fn table1(h: &mut Harness) -> String {
    let mut t = Table::new(&["workload", "0", "1", "2", "3", "4", "overall"]);
    for w in [&h.synthetic, &h.scale, &h.job_light] {
        let (dist, total) = w.join_distribution(4);
        let mut row = vec![w.name.clone()];
        row.extend(dist.iter().map(|c| c.to_string()));
        row.push(total.to_string());
        t.row(row);
    }
    format!(
        "### Table 1 — distribution of joins\n\n{}\n\
         Paper (at its scale): synthetic 1636/1407/1957/0/0 = 5000, scale 100×5 = 500, \
         JOB-light 0/3/32/23/12 = 70. The JOB-light row must match exactly; the synthetic \
         row is emergent (duplicate elimination + empty-result skipping).\n",
        t.render()
    )
}

// ------------------------------------------------------- Figure 3 / Table 2

/// Figure 3: signed-error box plots per join count on the synthetic
/// workload, for PostgreSQL, Random Sampling, IBJS, and MSCN.
pub fn fig3(h: &mut Harness) -> String {
    let mscn = h.default_model().estimator.clone();
    let queries = h.synthetic.queries.clone();
    let pg = h.postgres();
    let rs = h.random_sampling();
    let ibjs = h.ibjs();
    let estimators: Vec<(&dyn Estimator, &str)> =
        vec![(&pg, "PostgreSQL"), (&rs, "Random Samp."), (&ibjs, "IB Join Samp."), (&mscn, "MSCN")];
    let rows: Vec<(String, SignedBuckets)> = estimators
        .iter()
        .map(|(e, name)| (name.to_string(), signed_by_joins(*e, &queries, 2)))
        .collect();
    format!(
        "### Figure 3 — estimation errors on the synthetic workload\n\n\
         Signed estimation factor (negative = underestimation), percentiles per join count; \
         the paper draws these as box plots (boxes 25th–75th, whiskers 95th).\n\n{}\n\
         Shape criteria from the paper: PostgreSQL skews positive with heavy join tails; \
         Random Sampling underestimates joins (independence); IBJS is excellent in the \
         median but has heavy tails from empty samples; MSCN is competitive in the median \
         and far more robust at the 95th.\n",
        box_table(&rows)
    )
}

/// Table 2: q-error percentiles on the synthetic workload.
pub fn table2(h: &mut Harness) -> String {
    let mscn = h.default_model().estimator.clone();
    let queries = h.synthetic.queries.clone();
    let pg = h.postgres();
    let rs = h.random_sampling();
    let ibjs = h.ibjs();
    let mut t = Table::new(&QERROR_HEADER);
    for (e, name) in [
        (&pg as &dyn Estimator, "PostgreSQL"),
        (&rs, "Random Samp."),
        (&ibjs, "IB Join Samp."),
        (&mscn, "MSCN (ours)"),
    ] {
        t.qerror_row(name, &QErrorStats::from_qerrors(&evaluate(e, &queries)));
    }
    format!(
        "### Table 2 — estimation errors on the synthetic workload\n\n{}\n\
         Paper: PostgreSQL 1.69/9.57/23.9/465/373901/154 · Random Samp. 1.89/19.2/53.4/587/272501/125 · \
         IB Join Samp. 1.09/9.93/33.2/295/272514/118 · MSCN 1.18/3.32/6.84/30.51/1322/2.89.\n\
         Shape criteria: IBJS has the best median; MSCN beats all competitors from the 90th \
         percentile on, by one to two orders of magnitude at the tail.\n",
        t.render()
    )
}

// ---------------------------------------------------------------- Table 3

/// Table 3: base-table queries whose materialized sample is empty
/// (0-tuple situations, §4.2).
pub fn table3(h: &mut Harness) -> String {
    let mscn = h.default_model().estimator.clone();
    let base_queries: Vec<LabeledQuery> = h
        .synthetic
        .queries
        .iter()
        .filter(|q| q.query.num_joins() == 0 && q.is_zero_tuple())
        .cloned()
        .collect();
    let total_base = h.synthetic.queries.iter().filter(|q| q.query.num_joins() == 0).count();
    if base_queries.is_empty() {
        return "### Table 3 — 0-tuple situations\n\nNo base-table queries with empty samples \
                in this run (increase the workload size).\n"
            .to_string();
    }
    let pg = h.postgres();
    let rs = h.random_sampling();
    let mut t = Table::new(&QERROR_HEADER);
    for (e, name) in [(&pg as &dyn Estimator, "PostgreSQL"), (&rs, "Random Samp."), (&mscn, "MSCN")]
    {
        t.qerror_row(name, &QErrorStats::from_qerrors(&evaluate(e, &base_queries)));
    }
    format!(
        "### Table 3 — 0-tuple situations (§4.2)\n\n\
         {} of {} base-table queries in the synthetic workload have empty samples \
         (paper: 376 of 1636).\n\n{}\n\
         Paper: PostgreSQL 4.78/62.8/107/1141/21522/133 · Random Samp. 9.13/80.1/173/993/19009/147 · \
         MSCN 2.94/13.6/28.4/56.9/119/6.89.\n\
         Shape criterion: with all bitmaps zero, MSCN still uses table/predicate features and \
         beats both baselines across the board, most dramatically at max/mean.\n",
        base_queries.len(),
        total_base,
        t.render()
    )
}

// ---------------------------------------------------------------- Figure 4

/// Figure 4: model-feature ablation — no samples vs #samples vs bitmaps.
pub fn fig4(h: &mut Harness) -> String {
    let queries = h.synthetic.queries.clone();
    let mut rows = Vec::new();
    // (mode, per-join 95th-percentile q-errors, overall 95th percentile)
    type ModeP95 = (FeatureMode, Vec<(usize, f64)>, f64);
    let mut p95_by_mode: Vec<ModeP95> = Vec::new();
    for mode in [FeatureMode::NoSamples, FeatureMode::SampleCounts, FeatureMode::Bitmaps] {
        let est = h.model(mode, LossKind::MeanQError).estimator.clone();
        rows.push((mode.name().to_string(), signed_by_joins(&est, &queries, 2)));
        let per_join: Vec<(usize, f64)> = split_by_joins(&queries, 2)
            .into_iter()
            .map(|(j, qs)| {
                let owned: Vec<LabeledQuery> = qs.into_iter().cloned().collect();
                (j, percentile(&evaluate(&est, &owned), 95.0))
            })
            .collect();
        let overall = percentile(&evaluate(&est, &queries), 95.0);
        p95_by_mode.push((mode, per_join, overall));
    }
    let mut improvements = String::new();
    for w in p95_by_mode.windows(2) {
        let (prev, next) = (&w[0], &w[1]);
        let ratios: Vec<String> = prev
            .1
            .iter()
            .zip(&next.1)
            .map(|((j, a), (_, b))| format!("{} joins {:.2}x", j, a / b))
            .collect();
        improvements.push_str(&format!(
            "* {} → {}: 95th-percentile q-error improves by {}\n",
            prev.0.name(),
            next.0.name(),
            ratios.join(", ")
        ));
    }
    let overall: Vec<String> =
        p95_by_mode.iter().map(|(m, _, o)| format!("{} {:.1}", m.name(), o)).collect();
    format!(
        "### Figure 4 — removing model features\n\n{}\n\
         Overall 95th-percentile q-error: {}.\n\n{}\n\
         Paper: no-samples has an overall 95th of 25.3; adding sample counts improves the \
         95th by 1.72×/3.60×/3.61× for 0/1/2 joins; replacing counts with bitmaps improves \
         a further 1.47×/1.35×/1.04×. Shape criterion: each added sample feature must not \
         hurt, with the largest gains from no-samples → #samples on joins.\n",
        box_table(&rows),
        overall.join(" · "),
        improvements
    )
}

// ---------------------------------------------------------------- Figure 5

/// Figure 5 and §4.4: generalization to queries with more joins than seen
/// during training (trained on 0–2, evaluated on 0–4).
pub fn fig5(h: &mut Harness) -> String {
    let mscn = h.default_model().estimator.clone();
    let max_card = mscn.featurizer().label_norm().max_card();
    let queries = h.scale.queries.clone();
    let pg = h.postgres();
    let rows = vec![
        ("PostgreSQL".to_string(), signed_by_joins(&pg, &queries, 4)),
        ("MSCN".to_string(), signed_by_joins(&mscn, &queries, 4)),
    ];
    // §4.4 numbers: 95th q-error per join count, and again excluding
    // queries exceeding the maximum cardinality seen in training.
    let mut t = Table::new(&[
        "joins",
        "queries",
        "MSCN 95th",
        "PostgreSQL 95th",
        "out-of-range",
        "MSCN 95th (in-range)",
    ]);
    for (j, qs) in split_by_joins(&queries, 4) {
        let owned: Vec<LabeledQuery> = qs.iter().map(|q| (*q).clone()).collect();
        let m95 = percentile(&evaluate(&mscn, &owned), 95.0);
        let p95 = percentile(&evaluate(&pg, &owned), 95.0);
        let in_range: Vec<LabeledQuery> =
            owned.iter().filter(|q| (q.cardinality as f64) <= max_card).cloned().collect();
        let (n_out, m95_in) = if in_range.is_empty() {
            (owned.len(), f64::NAN)
        } else {
            (owned.len() - in_range.len(), percentile(&evaluate(&mscn, &in_range), 95.0))
        };
        t.row(vec![
            j.to_string(),
            owned.len().to_string(),
            fmt_q(m95),
            fmt_q(p95),
            n_out.to_string(),
            fmt_q(m95_in),
        ]);
    }
    format!(
        "### Figure 5 + §4.4 — generalizing to more joins (scale workload)\n\n{}\n{}\n\
         Paper: MSCN 95th grows 7.66 (2 joins) → 38.6 (3 joins) → 2397 (4 joins) versus \
         PostgreSQL 78.0 (3 joins) / 4077 (4 joins); excluding queries above the maximum \
         trained cardinality: 23.8 and 175. Shape criteria: MSCN degrades with unseen join \
         counts but stays at or below PostgreSQL, and much of the 4-join error comes from \
         out-of-range cardinalities.\n",
        box_table(&rows),
        t.render()
    )
}

// ---------------------------------------------------------------- Table 4

/// Table 4 and §4.5: the JOB-light workload.
pub fn table4(h: &mut Harness) -> String {
    let mscn = h.default_model().estimator.clone();
    let max_card = mscn.featurizer().label_norm().max_card();
    let queries = h.job_light.queries.clone();
    let pg = h.postgres();
    let rs = h.random_sampling();
    let ibjs = h.ibjs();
    let mut t = Table::new(&QERROR_HEADER);
    for (e, name) in [
        (&pg as &dyn Estimator, "PostgreSQL"),
        (&rs, "Random Samp."),
        (&ibjs, "IB Join Samp."),
        (&mscn, "MSCN"),
    ] {
        t.qerror_row(name, &QErrorStats::from_qerrors(&evaluate(e, &queries)));
    }
    let in_range: Vec<LabeledQuery> =
        queries.iter().filter(|q| (q.cardinality as f64) <= max_card).cloned().collect();
    let sec45 = if in_range.len() < queries.len() && !in_range.is_empty() {
        format!(
            "{} queries exceed the maximum trained cardinality (paper: 5); excluding them, \
             MSCN's 95th percentile drops from {} to {}.",
            queries.len() - in_range.len(),
            fmt_q(percentile(&evaluate(&mscn, &queries), 95.0)),
            fmt_q(percentile(&evaluate(&mscn, &in_range), 95.0)),
        )
    } else {
        "No JOB-light query exceeds the maximum trained cardinality in this run \
         (paper: 5 of 70 did)."
            .to_string()
    };
    format!(
        "### Table 4 + §4.5 — JOB-light\n\n{}\n{}\n\n\
         Paper: PostgreSQL 7.93/164/1104/2912/3477/174 · Random Samp. 11.5/198/4073/22748/23992/1046 · \
         IB Join Samp. 1.59/150/3198/14309/15775/590 · MSCN 3.82/78.4/362/927/1110/57.9.\n\
         Shape criteria: a distribution shift the trainer never produced (closed ranges, \
         equality-heavy predicates) degrades everyone; IBJS keeps the best median; MSCN has \
         the best tail (95th on) and the best mean.\n",
        t.render(),
        sec45
    )
}

// ----------------------------------------------------------------- §4.6

/// §4.6: grid search over epochs × batch size × hidden units.
pub fn hypergrid(h: &mut Harness) -> String {
    // The paper sweeps 72 configurations × 3 repetitions on 90k queries;
    // we sweep a reduced grid on a subset of the corpus (documented in the
    // output) — the observation under test is the *flatness* of the
    // landscape: the best and worst configurations should be within a
    // modest factor.
    let subset: Vec<LabeledQuery> =
        h.training.iter().take((h.training.len() / 2).max(200)).cloned().collect();
    let epochs_grid = [h.cfg.train.epochs / 2, h.cfg.train.epochs];
    let batch_grid = [128usize, 256, 1024];
    let hidden_grid = [32usize, 64, 128];
    let mut results: Vec<(usize, usize, usize, f64)> = Vec::new();
    let mut t = Table::new(&["epochs", "batch", "hidden", "val mean q-error"]);
    for &epochs in &epochs_grid {
        for &batch_size in &batch_grid {
            for &hidden in &hidden_grid {
                let cfg = TrainConfig {
                    epochs: epochs.max(1),
                    batch_size,
                    hidden,
                    mode: FeatureMode::Bitmaps,
                    loss: LossKind::MeanQError,
                    ..h.cfg.train
                };
                let trained = train(&h.db, h.cfg.sample_size, &subset, cfg);
                let q = *trained.report.epoch_val_mean_qerror.last().unwrap();
                results.push((epochs, batch_size, hidden, q));
                t.row(vec![
                    epochs.to_string(),
                    batch_size.to_string(),
                    hidden.to_string(),
                    format!("{q:.2}"),
                ]);
            }
        }
    }
    let best = results.iter().cloned().reduce(|a, b| if a.3 <= b.3 { a } else { b }).unwrap();
    let worst = results.iter().cloned().reduce(|a, b| if a.3 >= b.3 { a } else { b }).unwrap();
    format!(
        "### §4.6 — hyperparameter tuning\n\n\
         Grid over epochs × batch × hidden on {} training queries (paper: 72 configs × 3 \
         repetitions on 90k queries; ours is a reduced single-repetition grid).\n\n{}\n\
         Best: epochs {} / batch {} / hidden {} at mean q-error {:.2}; worst {:.2} \
         (spread {:.0}%).\n\
         Paper: best configuration 100 epochs / batch 1024 / 256 hidden; mean q-error varied \
         by 1% within the best 10 configurations and 21% best-to-worst. Shape criterion: \
         the landscape is flat — no configuration catastrophically fails.\n",
        subset.len(),
        t.render(),
        best.0,
        best.1,
        best.2,
        best.3,
        worst.3,
        (worst.3 / best.3 - 1.0) * 100.0
    )
}

// ---------------------------------------------------------------- Figure 6

/// Figure 6: convergence of the validation mean q-error over epochs.
pub fn fig6(h: &mut Harness) -> String {
    let report = h.default_model().report.clone();
    let curve = &report.epoch_val_mean_qerror;
    let mut t = Table::new(&["epoch", "val mean q-error"]);
    let step = (curve.len() / 12).max(1);
    for (i, q) in curve.iter().enumerate() {
        if i % step == 0 || i + 1 == curve.len() {
            t.row(vec![(i + 1).to_string(), format!("{q:.2}")]);
        }
    }
    let best = curve.iter().cloned().fold(f64::INFINITY, f64::min);
    let converged_at =
        curve.iter().position(|&q| q <= best * 1.1).map(|i| i + 1).unwrap_or(curve.len());
    format!(
        "### Figure 6 — convergence of the validation mean q-error\n\n{}\n\
         Converged to within 10% of the best value ({:.2}) after {} of {} epochs.\n\
         Paper: fewer than 75 of 100 epochs to reach a mean q-error of ~3 on 10k validation \
         queries. Shape criterion: monotone-ish decay that flattens well before the last \
         epoch.\n",
        t.render(),
        best,
        converged_at,
        curve.len()
    )
}

// ----------------------------------------------------------------- §4.7

/// §4.7: training time, prediction latency, and serialized model sizes.
pub fn costs(h: &mut Harness) -> String {
    let queries = h.synthetic.queries.clone();
    let mut t = Table::new(&["variant", "parameters", "serialized size", "train time (s)"]);
    let mut mscn = None;
    for mode in [FeatureMode::NoSamples, FeatureMode::SampleCounts, FeatureMode::Bitmaps] {
        let trained = h.model(mode, LossKind::MeanQError);
        let size = trained.estimator.serialized_size();
        t.row(vec![
            mode.name().to_string(),
            trained.estimator.model().num_params().to_string(),
            format!("{:.1} KiB", size as f64 / 1024.0),
            format!("{:.1}", trained.report.train_seconds),
        ]);
        if mode == FeatureMode::Bitmaps {
            mscn = Some(trained.estimator.clone());
        }
    }
    let mscn = mscn.unwrap();
    let start = std::time::Instant::now();
    let reps = 5usize;
    for _ in 0..reps {
        let _ = mscn.estimate_all(&queries);
    }
    let per_query_us = start.elapsed().as_secs_f64() / (reps * queries.len()) as f64 * 1e6;
    format!(
        "### §4.7 — model costs\n\n{}\n\
         Batched prediction latency: {:.1} µs/query (featurization + inference, single CPU \
         core, batch 1024).\n\
         Paper: 39-minute average training run (100 epochs, 90k queries, GPU); prediction \
         \"in the order of a few milliseconds\" including PyTorch overhead; serialized sizes \
         1.6/1.6/2.6 MiB for no-samples/#samples/bitmaps at d=256 and 1000 samples. Shape \
         criteria: bitmaps is the largest variant; prediction cost is independent of the \
         training-set size.\n",
        t.render(),
        per_query_us
    )
}

// ----------------------------------------------------------------- §4.8

/// §4.8: training-objective ablation (mean q-error vs MSE vs geometric
/// mean q-error).
pub fn objectives(h: &mut Harness) -> String {
    let queries = h.synthetic.queries.clone();
    let mut t = Table::new(&QERROR_HEADER);
    let mut means = Vec::new();
    for loss in [LossKind::MeanQError, LossKind::Mse, LossKind::GeometricQError] {
        let est = h.model(FeatureMode::Bitmaps, loss).estimator.clone();
        let stats = QErrorStats::from_qerrors(&evaluate(&est, &queries));
        means.push((loss, stats.mean));
        t.qerror_row(loss.name(), &stats);
    }
    let q_mean = means.iter().find(|(l, _)| *l == LossKind::MeanQError).unwrap().1;
    let others_min = means
        .iter()
        .filter(|(l, _)| *l != LossKind::MeanQError)
        .map(|(_, m)| *m)
        .fold(f64::INFINITY, f64::min);
    format!(
        "### §4.8 — optimization metrics\n\n\
         All three objectives trained with identical data/seed, evaluated on the synthetic \
         workload (q-error):\n\n{}\n\
         Paper: optimizing the q-error directly \"yielded better results\" than MSE, and the \
         geometric-mean objective \"turned out to be not as reliable as optimizing the mean \
         q-error\". Shape criterion: mean q-error training gives the best (or tied, here \
         {}) mean q-error at evaluation time.\n",
        t.render(),
        if q_mean <= others_min * 1.05 { "satisfied" } else { "NOT satisfied" }
    )
}

// ------------------------------------------------------- §5 extensions

/// §5 "More bitmaps": one bitmap per predicate in addition to the
/// per-table conjunction bitmap. The paper predicts this increases the
/// likelihood that *some* bitmap carries signal under selective
/// conjunctions; we compare it with the standard bitmap model on the
/// synthetic workload and on its empty-sample subset.
pub fn ext_predbitmaps(h: &mut Harness) -> String {
    let queries = h.synthetic.queries.clone();
    let empty_sample: Vec<LabeledQuery> =
        queries.iter().filter(|q| q.has_empty_sample()).cloned().collect();
    let mut t = Table::new(&QERROR_HEADER);
    let mut t_empty = Table::new(&QERROR_HEADER);
    for mode in [FeatureMode::Bitmaps, FeatureMode::PredicateBitmaps] {
        let est = h.model(mode, LossKind::MeanQError).estimator.clone();
        t.qerror_row(mode.name(), &QErrorStats::from_qerrors(&evaluate(&est, &queries)));
        if !empty_sample.is_empty() {
            t_empty.qerror_row(
                mode.name(),
                &QErrorStats::from_qerrors(&evaluate(&est, &empty_sample)),
            );
        }
    }
    format!(
        "### §5 extension — one bitmap per predicate\n\n\
         Full synthetic workload:\n\n{}\n\
         Subset with at least one empty per-table sample ({} queries):\n\n{}\n\
         The paper proposes this feature for complex predicates, expecting the model to \
         \"benefit from the patterns in these additional bitmaps\"; the per-predicate \
         bitmaps carry signal precisely when the conjunction bitmap is empty.\n",
        t.render(),
        empty_sample.len(),
        t_empty.render()
    )
}

/// §5 "Uncertainty estimation", settled by risk–coverage (the protocol of
/// Ortiz et al.): each candidate trust signal scores every `scale` query,
/// higher meaning "trust less", and is judged by how well it ranks the
/// served default model's worst 10% of q-errors (AUROC) and by the p95
/// q-error of the queries it keeps at 80% and 60% coverage.
///
/// The candidates cost nothing beyond the served model. A learned one,
/// the log-spread of three MSCN members trained at seeds `seed + i`, was
/// measured against them at standard scale over ten database/training
/// seeds and lost on every one (median AUROC 0.544 against join count's
/// 0.738), so it is not a candidate.
pub fn ext_uncertainty(h: &mut Harness) -> String {
    let model = h.default_model().estimator.clone();
    let queries = h.scale.queries.clone();
    let qerrors = evaluate(&model, &queries);
    let cut = percentile(&qerrors, 90.0);
    let worst: Vec<bool> = qerrors.iter().map(|&q| q > cut).collect();
    let band = 0.02..=0.98f32;
    let signals: [(&str, Vec<f64>); 3] = [
        (
            "saturation",
            model
                .estimate_normalized(&queries)
                .iter()
                .map(|n| if band.contains(n) { 0.0 } else { 1.0 })
                .collect(),
        ),
        ("join count", queries.iter().map(|q| q.query.num_joins() as f64).collect()),
        (
            "0-tuple tables",
            queries
                .iter()
                .map(|q| q.sample_counts.iter().filter(|&&c| c == 0).count() as f64)
                .collect(),
        ),
    ];
    let p95_kept = |scores: &[f64], percent| {
        let kept: Vec<f64> = covered(scores, percent).iter().map(|&i| qerrors[i]).collect();
        percentile(&kept, 95.0)
    };
    let mut t = Table::new(&["signal", "AUROC (worst 10%)", "p95 kept at 80%", "p95 kept at 60%"]);
    let mut scored: Vec<(f64, f64, &str)> = Vec::new();
    for (name, scores) in &signals {
        let (a, p80) = (auroc(scores, &worst), p95_kept(scores, 80));
        t.row(vec![name.to_string(), format!("{a:.3}"), fmt_q(p80), fmt_q(p95_kept(scores, 60))]);
        scored.push((a, p80, name));
    }
    scored.sort_by(|a, b| b.0.total_cmp(&a.0));
    let ((best, best_p80, winner), (runner_up, _, second)) = (scored[0], scored[1]);
    let all_p95 = percentile(&qerrors, 95.0);
    let satisfied = best > 0.5 && best_p80 < all_p95;
    format!(
        "### §5 extension — trust signals by risk–coverage ({} scale queries, 0-4 joins)\n\n{}\n\
         A signal scores each query, higher meaning \"trust less\": the served model's \
         normalized output outside {band:?} (saturation), the join count, and the number of \
         tables with no qualifying sample. Coverage keeps the lowest-scored share, ties in a \
         fixed pseudo-random order. The positives are the served model's worst 10% (q-error \
         above {}); over all queries its p95 is {}. Expected shape (§5): the best signal \
         ranks the worst queries above chance (AUROC > 0.5), and keeping its 80% most \
         trusted queries lowers the p95. Verdict: \
         {winner} wins at AUROC {best:.3}, {:.3} above the runner-up ({second}, \
         {runner_up:.3}) and {:.3} above chance; its 80% coverage p95 is {} against {} — \
         criterion {}.\n",
        queries.len(),
        t.render(),
        fmt_q(cut),
        fmt_q(all_p95),
        best - runner_up,
        best - 0.5,
        fmt_q(best_p80),
        fmt_q(all_p95),
        if satisfied { "satisfied" } else { "NOT satisfied" },
    )
}

/// §5 "Updates": incremental training on a shifted workload, demonstrating
/// both the benefit (the new distribution is learned without re-training
/// from scratch) and the cost the paper warns about (catastrophic
/// forgetting of the old distribution).
pub fn ext_incremental(h: &mut Harness) -> String {
    use lc_core::train_incremental;
    let base = h.default_model().estimator.clone();
    // The "new workload": JOB-light-style queries, a distribution the
    // trainer never produced (closed ranges, equality-heavy predicates).
    let new_data = h.job_light.queries.clone();
    let old_eval = h.synthetic.queries.clone();
    let updated = train_incremental(
        &base,
        &new_data,
        lc_core::TrainConfig { epochs: (h.cfg.train.epochs / 2).max(2), seed: 4242, ..h.cfg.train },
    );

    let mean_q = |est: &lc_core::MscnEstimator, qs: &[LabeledQuery]| {
        let v = evaluate(est, qs);
        v.iter().sum::<f64>() / v.len() as f64
    };
    let mut t =
        Table::new(&["model", "mean q-error (new: JOB-light)", "mean q-error (old: synthetic)"]);
    t.row(vec![
        "base (trained on synthetic 0-2 joins)".into(),
        fmt_q(mean_q(&base, &new_data)),
        fmt_q(mean_q(&base, &old_eval)),
    ]);
    t.row(vec![
        "after incremental training on JOB-light".into(),
        fmt_q(mean_q(&updated, &new_data)),
        fmt_q(mean_q(&updated, &old_eval)),
    ]);
    format!(
        "### §5 extension — incremental training and catastrophic forgetting\n\n{}\n\
         Incremental training reuses the weights and the frozen data encoding (one-hot \
         layouts, value/label normalization), exactly as §5 prescribes. Expected shape: the \
         new-workload error drops sharply while the old-workload error *rises* — the \
         catastrophic-forgetting effect the paper warns about, motivating its pointer to \
         EWC-style remedies [Kirkpatrick et al.].\n",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::ExperimentConfig;

    /// One harness shared by all experiment smoke tests (they are pure
    /// functions of it, so a single tiny fixture keeps the suite fast).
    #[test]
    fn all_experiments_render_on_tiny_fixture() {
        let mut h = Harness::new(ExperimentConfig::tiny());
        for (id, _, f) in registry() {
            let out = f(&mut h);
            assert!(out.starts_with("###"), "{id}: missing heading");
            assert!(out.len() > 100, "{id}: suspiciously short output");
        }
    }

    #[test]
    fn registry_ids_are_unique_and_cover_all_artifacts() {
        let reg = registry();
        let ids: std::collections::HashSet<_> = reg.iter().map(|(id, _, _)| *id).collect();
        assert_eq!(ids.len(), reg.len());
        for required in [
            "table1",
            "table2",
            "table3",
            "table4",
            "fig3",
            "fig4",
            "fig5",
            "fig6",
            "hypergrid",
            "costs",
            "objectives",
        ] {
            assert!(ids.contains(required), "missing {required}");
        }
    }

    #[test]
    fn qerror_helper_consistency() {
        assert_eq!(crate::metrics::qerror(10.0, 10.0), 1.0);
    }
}
