//! Labeling: execute queries to obtain true cardinalities and annotate them
//! with materialized-sample information (the paper's §3.4 training signal).
//!
//! Annotation is a column scan over the [`SampleSet`]'s own column-major
//! copy of the sampled rows: every predicate is evaluated exactly once into
//! its `pred_bitmaps` entry, and a table's bitmap is the AND of its
//! predicates' bitmaps with the table's `present` mask — the §5 remark that
//! per-predicate bitmaps "come almost for free" in a column store, taken
//! literally. The cost is the sample set's memory (8 B per sampled value).

use lc_engine::{count_star, Bitmap, Database, SampleSet};

use crate::query::Query;

/// A query annotated with its true cardinality and, per participating
/// table, the number of qualifying sample tuples and the qualifying-sample
/// bitmap. This is one training (or evaluation) sample.
#[derive(Clone, Debug)]
pub struct LabeledQuery {
    /// The query.
    pub query: Query,
    /// True result cardinality (exact, from the engine).
    pub cardinality: u64,
    /// Per table of `query.tables()` (same order): number of sample tuples
    /// satisfying that table's predicates.
    pub sample_counts: Vec<u32>,
    /// Per table of `query.tables()` (same order): positions of qualifying
    /// sample tuples.
    pub bitmaps: Vec<Bitmap>,
    /// Per predicate of `query.predicates()` (same order): positions of
    /// sample tuples qualifying that predicate *alone*. This is the §5
    /// "More bitmaps" extension — in a column store these come almost for
    /// free because predicates are evaluated one column at a time.
    pub pred_bitmaps: Vec<Bitmap>,
}

impl LabeledQuery {
    /// Build one labeled query by executing it and probing the samples.
    pub fn compute(db: &Database, samples: &SampleSet, query: Query) -> Self {
        let cardinality = count_star(db, &query.spec());
        let mut labeled = annotate_query(db, samples, query);
        labeled.cardinality = cardinality;
        labeled
    }

    /// True if *every* participating table has zero qualifying sample
    /// tuples — the "0-tuple situation" of §4.2, where purely
    /// sampling-based estimators lose their signal entirely.
    pub fn is_zero_tuple(&self) -> bool {
        self.sample_counts.iter().all(|&c| c == 0)
    }

    /// True if *any* participating table has zero qualifying samples.
    pub fn has_empty_sample(&self) -> bool {
        self.sample_counts.contains(&0)
    }
}

/// Annotate `query` with materialized-sample information **without
/// executing it** — the serving-time counterpart of
/// [`LabeledQuery::compute`]. An estimation service answering live traffic
/// has no ground truth (computing it would defeat the estimator's
/// purpose); it only probes the materialized samples, which is exactly what
/// the paper's runtime featurization needs (§3.4). The returned
/// [`LabeledQuery::cardinality`] is 0, a value the `lc_core::Estimator`
/// contract already forbids implementations from reading.
///
/// `db` is not read: `samples` carries its own copy of the sampled rows,
/// so a probe never touches the base tables. The parameter stays because
/// callers (and the benchmark) are written against this signature, and it
/// names the snapshot `samples` must have been drawn from.
pub fn annotate_query(_db: &Database, samples: &SampleSet, query: Query) -> LabeledQuery {
    let pred_bitmaps: Vec<Bitmap> =
        query.predicates().iter().map(|p| samples.predicate_bitmap(p)).collect();
    let mut sample_counts = Vec::with_capacity(query.tables().len());
    let mut bitmaps = Vec::with_capacity(query.tables().len());
    for &t in query.tables() {
        let mut bm = samples.present(t).clone();
        for pred_bm in &pred_bitmaps[query.predicate_range(t)] {
            bm &= pred_bm;
        }
        sample_counts.push(bm.count_ones());
        bitmaps.push(bm);
    }
    LabeledQuery { query, cardinality: 0, sample_counts, bitmaps, pred_bitmaps }
}

/// Label a batch of queries. When `skip_empty` is set, queries with an
/// empty true result are dropped (the paper skips them when building the
/// training corpus, §3.3, and q-error is undefined for zero cardinality).
///
/// Work is spread over the available cores with scoped threads; results
/// preserve input order.
pub fn label_queries(
    db: &Database,
    samples: &SampleSet,
    queries: Vec<Query>,
    skip_empty: bool,
) -> Vec<LabeledQuery> {
    let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let labeled: Vec<LabeledQuery> = if threads <= 1 || queries.len() < 64 {
        queries.into_iter().map(|q| LabeledQuery::compute(db, samples, q)).collect()
    } else {
        let chunk = queries.len().div_ceil(threads);
        let mut rest = queries.into_iter();
        let chunks = std::iter::from_fn(|| {
            let owned: Vec<Query> = rest.by_ref().take(chunk).collect();
            (!owned.is_empty()).then_some(owned)
        });
        std::thread::scope(|s| {
            let handles: Vec<_> = chunks
                .map(|owned| {
                    s.spawn(move || {
                        owned
                            .into_iter()
                            .map(|q| LabeledQuery::compute(db, samples, q))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles.into_iter().flat_map(|h| h.join().expect("labeling thread panicked")).collect()
        })
    };
    if skip_empty {
        labeled.into_iter().filter(|l| l.cardinality > 0).collect()
    } else {
        labeled
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{GeneratorConfig, QueryGenerator};
    use lc_engine::predicate::row_matches_all;
    use lc_engine::{count_star_naive, TableId};
    use lc_imdb::{generate, ImdbConfig};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn labels_match_naive_executor_on_single_tables() {
        let db = generate(&ImdbConfig::tiny());
        let mut rng = SmallRng::seed_from_u64(1);
        let samples = SampleSet::draw(&db, 50, &mut rng);
        let mut g = QueryGenerator::new(&db, GeneratorConfig { max_joins: 0, seed: 2 });
        for _ in 0..30 {
            let q = g.generate();
            let l = LabeledQuery::compute(&db, &samples, q.clone());
            assert_eq!(l.cardinality, count_star_naive(&db, &q.spec()));
        }
    }

    #[test]
    fn annotations_align_with_tables() {
        let db = generate(&ImdbConfig::tiny());
        let mut rng = SmallRng::seed_from_u64(1);
        let samples = SampleSet::draw(&db, 64, &mut rng);
        let mut g = QueryGenerator::new(&db, GeneratorConfig { max_joins: 2, seed: 3 });
        let qs = g.generate_unique(100);
        let labeled = label_queries(&db, &samples, qs, false);
        assert_eq!(labeled.len(), 100);
        for l in &labeled {
            assert_eq!(l.sample_counts.len(), l.query.tables().len());
            assert_eq!(l.bitmaps.len(), l.query.tables().len());
            assert_eq!(l.pred_bitmaps.len(), l.query.predicates().len());
            for (c, b) in l.sample_counts.iter().zip(&l.bitmaps) {
                assert_eq!(*c, b.count_ones());
                assert_eq!(b.len(), 64);
            }
            for (i, &t) in l.query.tables().iter().enumerate() {
                // A table's bitmap is `present` AND its predicates' bitmaps;
                // without predicates that is the full sample.
                let mut composed = samples.present(t).clone();
                for alone in &l.pred_bitmaps[l.query.predicate_range(t)] {
                    composed &= alone;
                }
                assert_eq!(l.bitmaps[i], composed);
                if l.query.predicates_on(t).is_empty() {
                    assert_eq!(&l.bitmaps[i], samples.present(t));
                    assert_eq!(l.sample_counts[i], samples.table(t).row_ids.len() as u32);
                }
                // And it is what evaluating the conjunction on the base
                // rows gives.
                let mut reference = Bitmap::new(64);
                for (pos, &row) in samples.table(t).row_ids.iter().enumerate() {
                    if row_matches_all(db.table(t), l.query.predicates_on(t), row as usize) {
                        reference.set(pos);
                    }
                }
                assert_eq!(l.bitmaps[i], reference);
            }
        }
    }

    #[test]
    fn annotate_matches_compute_except_cardinality() {
        let db = generate(&ImdbConfig::tiny());
        let mut rng = SmallRng::seed_from_u64(9);
        let samples = SampleSet::draw(&db, 48, &mut rng);
        let mut g = QueryGenerator::new(&db, GeneratorConfig { max_joins: 2, seed: 12 });
        for _ in 0..20 {
            let q = g.generate();
            let full = LabeledQuery::compute(&db, &samples, q.clone());
            let cheap = annotate_query(&db, &samples, q);
            assert_eq!(cheap.cardinality, 0, "annotation must not execute the query");
            assert_eq!(cheap.sample_counts, full.sample_counts);
            assert_eq!(cheap.bitmaps, full.bitmaps);
            assert_eq!(cheap.pred_bitmaps, full.pred_bitmaps);
        }
    }

    #[test]
    fn skip_empty_filters_zero_cardinalities() {
        let db = generate(&ImdbConfig::tiny());
        let mut rng = SmallRng::seed_from_u64(1);
        let samples = SampleSet::draw(&db, 32, &mut rng);
        let mut g = QueryGenerator::new(&db, GeneratorConfig { max_joins: 2, seed: 4 });
        let qs = g.generate_unique(300);
        let all = label_queries(&db, &samples, qs.clone(), false);
        let nonempty = label_queries(&db, &samples, qs, true);
        assert!(nonempty.len() < all.len(), "expected some empty-result queries");
        assert!(nonempty.iter().all(|l| l.cardinality > 0));
    }

    #[test]
    fn zero_tuple_detection() {
        let db = generate(&ImdbConfig::tiny());
        let mut rng = SmallRng::seed_from_u64(1);
        let samples = SampleSet::draw(&db, 16, &mut rng);
        // person_id equality on a tiny sample: almost surely 0 qualifying
        // sample tuples while the true result is non-empty.
        let q = Query::new(
            vec![TableId(2)],
            vec![],
            vec![lc_engine::Predicate {
                table: TableId(2),
                column: 1,
                op: lc_engine::CmpOp::Eq,
                value: db.table(TableId(2)).column(1).raw(0),
            }],
        );
        let l = LabeledQuery::compute(&db, &samples, q);
        assert!(l.cardinality > 0);
        if l.sample_counts[0] == 0 {
            assert!(l.is_zero_tuple());
            assert!(l.has_empty_sample());
        }
    }
}
