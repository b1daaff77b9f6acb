//! Property-based tests over the cross-crate invariants:
//!
//! * the fast star-join executor agrees with the brute-force reference on
//!   arbitrary micro-databases and predicate sets;
//! * MSCN predictions are permutation invariant (the Deep Sets claim);
//! * label normalization round-trips;
//! * model serialization round-trips for arbitrary architectures.

use proptest::prelude::*;

use lc_core::LabelNorm;
use lc_engine::{
    count_star, count_star_naive, Column, ColumnDef, Database, JoinEdge, JoinId, Schema, Table,
    TableId,
};
use learned_cardinalities::prelude::*;

// -------------------------------------------------------------- executor

#[derive(Debug, Clone)]
struct MicroDb {
    center_rows: usize,
    /// Per fact table: (fk values, data values with NULLs).
    facts: Vec<(Vec<i64>, Vec<Option<i64>>)>,
    /// Center data column values (with NULLs).
    center_data: Vec<Option<i64>>,
}

/// Tables of up to 71 rows, so that the executor's 64-row words are crossed
/// while the nested-loop reference (rows³ at two joins) stays affordable.
fn micro_db_strategy() -> impl Strategy<Value = MicroDb> {
    (1usize..72).prop_flat_map(|center_rows| {
        let row = (0..center_rows as i64, proptest::option::weighted(0.85, -3i64..4));
        let fact = proptest::collection::vec(row, 0..72).prop_map(|rows| {
            let (fks, data): (Vec<i64>, Vec<Option<i64>>) = rows.into_iter().unzip();
            (fks, data)
        });
        let center_data =
            proptest::collection::vec(proptest::option::weighted(0.85, -3i64..4), center_rows);
        (Just(center_rows), proptest::collection::vec(fact, 2..3), center_data).prop_map(
            |(center_rows, facts, center_data)| MicroDb { center_rows, facts, center_data },
        )
    })
}

fn build_micro(m: &MicroDb) -> Database {
    let mut tables = vec![TableDefOwned::center()];
    for i in 0..m.facts.len() {
        tables.push(TableDefOwned::fact(i));
    }
    let defs: Vec<_> = tables.into_iter().map(|t| t.def).collect();
    let joins = (0..m.facts.len())
        .map(|i| JoinEdge {
            fact: TableId(i as u16 + 1),
            fact_col: 0,
            center: TableId(0),
            center_col: 0,
        })
        .collect();
    let schema = Schema::new(defs, joins, TableId(0));
    let center = Table::new(vec![
        Column::from_values((0..m.center_rows as i64).collect()),
        Column::from_nullable(m.center_data.clone()),
    ]);
    let mut data = vec![center];
    for (fks, vals) in &m.facts {
        data.push(Table::new(vec![
            Column::from_values(fks.clone()),
            Column::from_nullable(vals.clone()),
        ]));
    }
    Database::new(schema, data)
}

struct TableDefOwned {
    def: lc_engine::TableDef,
}

impl TableDefOwned {
    fn center() -> Self {
        TableDefOwned {
            def: lc_engine::TableDef {
                name: "center".into(),
                columns: vec![ColumnDef::primary_key("id"), ColumnDef::nullable_data("v")],
            },
        }
    }
    fn fact(i: usize) -> Self {
        TableDefOwned {
            def: lc_engine::TableDef {
                name: format!("fact{i}"),
                columns: vec![
                    ColumnDef::foreign_key("fk", TableId(0)),
                    ColumnDef::nullable_data("v"),
                ],
            },
        }
    }
}

proptest! {
    /// The closed-form star-join executor equals brute force on arbitrary
    /// micro databases, join subsets, and conjunctive predicates. No case
    /// pin: `PROPTEST_CASES` sets the count (CI runs 4096).
    #[test]
    fn executor_matches_naive(
        m in micro_db_strategy(),
        joins_mask in 0u8..4,
        preds in proptest::collection::vec(
            (0usize..3, 0usize..3, -3i64..4), 0..4
        ),
    ) {
        let db = build_micro(&m);
        let mut tables = vec![TableId(0)];
        let mut joins = Vec::new();
        for i in 0..m.facts.len() {
            if joins_mask >> i & 1 == 1 {
                tables.push(TableId(i as u16 + 1));
                joins.push(JoinId(i as u16));
            }
        }
        // Predicates restricted to participating tables and data columns.
        let ops = [CmpOp::Eq, CmpOp::Lt, CmpOp::Gt];
        let predicates: Vec<Predicate> = preds
            .into_iter()
            .map(|(t, op, v)| Predicate {
                table: tables[t % tables.len()],
                column: 1,
                op: ops[op],
                value: v,
            })
            .collect();
        let spec = QuerySpec { tables: &tables, joins: &joins, predicates: &predicates };
        prop_assert_eq!(count_star(&db, &spec), count_star_naive(&db, &spec));
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Normalize/denormalize of cardinalities round-trips within float
    /// tolerance for in-range values.
    #[test]
    fn label_norm_roundtrips(
        cards in proptest::collection::vec(1u64..1_000_000_000, 2..20),
        probe_idx in 0usize..20,
    ) {
        let norm = LabelNorm::fit(cards.iter().copied());
        let probe = cards[probe_idx % cards.len()];
        let back = norm.denormalize(norm.normalize(probe));
        let rel = (back - probe as f64).abs() / probe as f64;
        prop_assert!(rel < 1e-3, "{} -> {}", probe, back);
    }

    /// Bitmap set/get/count/iterate agree for arbitrary position sets.
    #[test]
    fn bitmap_ops_agree(positions in proptest::collection::btree_set(0usize..200, 0..40)) {
        let mut bm = lc_engine::Bitmap::new(200);
        for &p in &positions {
            bm.set(p);
        }
        prop_assert_eq!(bm.count_ones() as usize, positions.len());
        prop_assert_eq!(bm.iter_ones().collect::<Vec<_>>(), positions.iter().copied().collect::<Vec<_>>());
        for p in 0..200 {
            prop_assert_eq!(bm.get(p), positions.contains(&p));
        }
        prop_assert_eq!(bm.all_zero(), positions.is_empty());
    }
}

// ------------------------------------------------- model-level properties

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// Permutation invariance at the LabeledQuery level: however the sets
    /// are ordered when the query is constructed, the canonical
    /// representation — and therefore the MSCN estimate — is identical.
    #[test]
    fn canonicalization_makes_estimates_order_free(seed in 0u64..1000) {
        let db = lc_imdb::generate(&ImdbConfig::tiny());
        let mut rng = SmallRng::seed_from_u64(90);
        let samples = SampleSet::draw(&db, 16, &mut rng);
        let data = workloads::synthetic(&db, &samples, 60, 2, 91).queries;
        let cfg = TrainConfig { epochs: 1, hidden: 8, ..TrainConfig::default() };
        let trained = train(&db, 16, &data, cfg);

        let original = &data[(seed as usize) % data.len()];
        // Rebuild the same query with reversed set orders.
        let q2 = Query::new(
            original.query.tables().iter().rev().copied().collect(),
            original.query.joins().iter().rev().copied().collect(),
            original.query.predicates().iter().rev().copied().collect(),
        );
        prop_assert_eq!(&q2, &original.query);
        let relabeled = LabeledQuery::compute(&db, &samples, q2);
        let a = trained.estimator.estimate(original);
        let b = trained.estimator.estimate(&relabeled);
        prop_assert!((a - b).abs() < 1e-9, "{} vs {}", a, b);
    }
}
