//! Differential test of the label oracle: [`count_star`], a word-packed
//! column scan, must return the count that the same closed form gives when
//! every row is tested on its own with [`row_matches_all`] — the reference
//! written out below. It is linear in the table sizes, so tables that cross
//! several 64-row words are affordable (`tests/proptests.rs` compares with
//! the exponential nested-loop reference on tables of a few words).
//!
//! Covered on purpose: table sizes on both sides of a word boundary;
//! nullable data columns on the center and on the fact tables (NULL never
//! matches); 0–3 joins, fact tables present but not joined, and a table no
//! join edge reaches (cross-product factors); all three operators; literals
//! at and just beyond the column domains' edges and at `i64::MIN` /
//! `i64::MAX`; empty predicate lists; and every query a second time with
//! the predicates on its joined fact tables removed, which is the fan-out
//! [`Database::fanout`] stores next to the one a scan has to count. CI runs
//! this file at `PROPTEST_CASES=4096`.
//!
//! Hand mutations of the oracle it catches at that count: dropping the
//! validity AND of the word scan; returning the wrong edge's stored
//! fan-out; skipping one center bit of the final sum; leaving one join
//! edge out of the running product; summing the product over every center
//! row although the center is predicated; and an off-by-one emptiness
//! test that returns 0 when a table has ≤ 1 qualifying row.

use proptest::collection::vec;
use proptest::option::weighted;
use proptest::prelude::*;

use lc_engine::predicate::row_matches_all;
use lc_engine::{
    count_star, CmpOp, Column, ColumnDef, Database, JoinEdge, JoinId, Predicate, QuerySpec, Schema,
    Table, TableDef, TableId,
};

const ROWS: [usize; 6] = [1, 63, 64, 65, 130, 1000];

/// Column 2 of every table holds only these, so `<`/`>` run into the ends
/// of `i64`.
const EXTREMES: [i64; 5] = [i64::MIN, -1, 0, 1, i64::MAX];

/// Literals: the ends of `i64`, and the min/max of the `-3..=3` domain of
/// column 1 from both sides.
const LITERALS: [i64; 10] = [i64::MIN, i64::MIN + 1, -4, -3, -2, 0, 3, 4, i64::MAX - 1, i64::MAX];

const CENTER: TableId = TableId(0);
const FACTS: usize = 3;
/// The table without a join edge.
const LONE: TableId = TableId(FACTS as u16 + 1);

/// One table's rows: the key column (primary key on the center, foreign
/// key on a fact, ignored on the lone table), a nullable small-domain
/// column and a nullable column of indexes into [`EXTREMES`].
#[derive(Debug, Clone)]
struct Rows {
    keys: Vec<i64>,
    small: Vec<Option<i64>>,
    extreme: Vec<Option<usize>>,
}

#[derive(Debug, Clone)]
struct Case {
    center: Rows,
    facts: Vec<Rows>,
    lone: Rows,
    /// Bit `i`: fact `i` is joined to the center.
    joined: u8,
    /// Bit `i`: fact `i` takes part without its join edge (when not joined).
    loose: u8,
    with_lone: bool,
    /// Whether the center takes part when no join forces it to.
    with_center: bool,
    /// `(table slot, column, operator index, literal index)`.
    predicates: Vec<(usize, usize, usize, usize)>,
}

fn rows_strategy(key_domain: usize) -> impl Strategy<Value = Rows> {
    (0usize..ROWS.len()).prop_flat_map(move |size| {
        let rows = ROWS[size];
        (
            vec(0..key_domain as i64, rows),
            vec(weighted(0.8, -3i64..4), rows),
            vec(weighted(0.9, 0usize..EXTREMES.len()), rows),
        )
            .prop_map(|(keys, small, extreme)| Rows { keys, small, extreme })
    })
}

fn case_strategy() -> impl Strategy<Value = Case> {
    rows_strategy(1).prop_flat_map(|mut center| {
        center.keys = (0..center.keys.len() as i64).collect();
        (
            Just(center.clone()),
            vec(rows_strategy(center.keys.len()), FACTS),
            rows_strategy(1),
            (0u8..1 << FACTS, 0u8..1 << FACTS, 0u8..2, 0u8..2),
            vec((0usize..8, 1usize..3, 0usize..3, 0usize..LITERALS.len()), 0..6),
        )
            .prop_map(
                |(center, facts, lone, (joined, loose, with_lone, with_center), predicates)| Case {
                    center,
                    facts,
                    lone,
                    joined,
                    loose,
                    with_lone: with_lone == 1,
                    with_center: with_center == 1,
                    predicates,
                },
            )
    })
}

fn table(rows: &Rows) -> Table {
    Table::new(vec![
        Column::from_values(rows.keys.clone()),
        Column::from_nullable(rows.small.clone()),
        Column::from_nullable(rows.extreme.iter().map(|e| e.map(|i| EXTREMES[i])).collect()),
    ])
}

fn build(case: &Case) -> Database {
    let data_columns = [ColumnDef::nullable_data("small"), ColumnDef::nullable_data("extreme")];
    let def = |name: String, key: ColumnDef| TableDef {
        name,
        columns: std::iter::once(key).chain(data_columns.iter().cloned()).collect(),
    };
    let mut defs = vec![def("center".into(), ColumnDef::primary_key("id"))];
    defs.extend((0..FACTS).map(|i| def(format!("fact{i}"), ColumnDef::foreign_key("fk", CENTER))));
    defs.push(def("lone".into(), ColumnDef::data("unused")));
    let joins = (0..FACTS)
        .map(|i| JoinEdge {
            fact: TableId(i as u16 + 1),
            fact_col: 0,
            center: CENTER,
            center_col: 0,
        })
        .collect();
    let mut tables = vec![table(&case.center)];
    tables.extend(case.facts.iter().map(table));
    tables.push(table(&case.lone));
    Database::new(Schema::new(defs, joins, CENTER), tables)
}

/// The closed form of the executor's module docs, one row at a time.
fn reference(db: &Database, spec: &QuerySpec) -> u64 {
    let qualifying = |t: TableId| -> Vec<usize> {
        let preds = spec.predicates_on(t);
        (0..db.table(t).num_rows()).filter(|&r| row_matches_all(db.table(t), &preds, r)).collect()
    };
    let fact_of = |j: &JoinId| db.schema().join(*j).fact;
    let mut cross_factor = 1u64;
    for &t in spec.tables {
        let joined =
            !spec.joins.is_empty() && (t == CENTER || spec.joins.iter().any(|j| fact_of(j) == t));
        if !joined {
            cross_factor *= qualifying(t).len() as u64;
        }
    }
    if spec.joins.is_empty() {
        return cross_factor;
    }
    let mut products = vec![1u64; db.table(CENTER).num_rows()];
    for j in spec.joins {
        let keys = db.table(fact_of(j)).column(db.schema().join(*j).fact_col);
        let mut per_key = vec![0u64; products.len()];
        for row in qualifying(fact_of(j)) {
            per_key[keys.raw(row) as usize] += 1;
        }
        for (product, count) in products.iter_mut().zip(per_key) {
            *product *= count;
        }
    }
    let total: u64 = qualifying(CENTER).into_iter().map(|row| products[row]).sum();
    total * cross_factor
}

proptest! {
    #[test]
    fn count_star_matches_row_at_a_time(case in case_strategy()) {
        let db = build(&case);
        let mut tables = Vec::new();
        let mut joins = Vec::new();
        for i in 0..FACTS {
            if case.joined >> i & 1 == 1 {
                joins.push(JoinId(i as u16));
                tables.push(TableId(i as u16 + 1));
            } else if case.loose >> i & 1 == 1 {
                tables.push(TableId(i as u16 + 1));
            }
        }
        if case.with_lone {
            tables.push(LONE);
        }
        if case.with_center || !joins.is_empty() || tables.is_empty() {
            tables.push(CENTER);
        }
        let predicates: Vec<Predicate> = case
            .predicates
            .iter()
            .map(|&(slot, column, op, lit)| Predicate {
                table: tables[slot % tables.len()],
                column,
                op: CmpOp::ALL[op],
                value: LITERALS[lit],
            })
            .collect();
        let spec = QuerySpec { tables: &tables, joins: &joins, predicates: &predicates };
        let (got, want) = (count_star(&db, &spec), reference(&db, &spec));
        prop_assert_eq!(got, want, "count_star {} != reference {} for {:?}", got, want, spec);

        // The same query with unpredicated fact sides: the stored fan-out.
        let on_joined_fact =
            |p: &Predicate| joins.iter().any(|&j| db.schema().join(j).fact == p.table);
        let stripped: Vec<Predicate> =
            predicates.iter().filter(|p| !on_joined_fact(p)).copied().collect();
        let spec = QuerySpec { predicates: &stripped, ..spec };
        let (got, want) = (count_star(&db, &spec), reference(&db, &spec));
        prop_assert_eq!(got, want, "count_star {} != reference {} for {:?}", got, want, spec);
    }
}
