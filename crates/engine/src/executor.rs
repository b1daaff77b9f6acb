//! Exact COUNT(*) evaluation of filtered star-join queries.
//!
//! This is the label oracle: the paper executes every generated training
//! query on HyPer to obtain its true cardinality (§3.5); we execute it here.
//!
//! For a star join the result has a closed form: writing `sel(c)` for the
//! center rows passing the center predicates and `cnt_f[k]` for the number of
//! rows of fact table `f` that pass `f`'s predicates and carry join key `k`,
//!
//! ```text
//! |Q| = Σ_{t ∈ sel(c)}  Π_{f ∈ facts(Q)} cnt_f[t.id]
//! ```
//!
//! which [`count_star`] computes as a column scan. The rows of a table that
//! pass its predicates are a [`Bitmap`] from [`Table::qualifying`] — 64 rows
//! per compare-and-fold, the same evaluator that probes the materialized
//! samples. Every predicated table's bitmap is built first, smallest table
//! first, and the first one that is all zero ends the query at 0: an empty
//! conjunction empties the join, and nothing is counted or summed for it.
//! A table outside the join then contributes the bitmap's population count.
//! The product `Π_f cnt_f` is one running `u64` per center row, multiplied
//! in join-edge order: a fact side *without* predicates multiplies in the
//! fan-out [`Database::fanout`] counted once, because its `cnt_f` does not
//! depend on the query; a predicated fact side counts its set bits per key
//! into one reused buffer first. The final sum visits the set bits of
//! `sel(c)`, or every center row when the center has no predicate.
//! [`count_star_naive`] is an exponential nested-loop reference used to
//! property-test the fast path on small databases.
//!
//! [`Table::qualifying`]: crate::Table::qualifying

use crate::database::Database;
use crate::predicate::Predicate;
use crate::sample::Bitmap;
use crate::schema::{JoinId, TableId};

/// A query in engine terms: the three sets `(T_q, J_q, P_q)` of the paper's
/// representation (§3.1), flattened to borrowed slices.
#[derive(Clone, Copy, Debug)]
pub struct QuerySpec<'a> {
    /// Participating tables `T_q`.
    pub tables: &'a [TableId],
    /// Join edges `J_q`; every fact side must appear in `tables`, and the
    /// center table must be in `tables` whenever this is non-empty.
    pub joins: &'a [JoinId],
    /// Conjunctive base-table predicates `P_q`.
    pub predicates: &'a [Predicate],
}

impl QuerySpec<'_> {
    /// Predicates restricted to table `t`.
    pub fn predicates_on(&self, t: TableId) -> Vec<Predicate> {
        self.predicates.iter().filter(|p| p.table == t).copied().collect()
    }

    fn validate(&self, db: &Database) {
        for p in self.predicates {
            assert!(self.tables.contains(&p.table), "predicate on table not in query");
        }
        let center = db.schema().center;
        for &j in self.joins {
            let edge = db.schema().join(j);
            assert!(self.tables.contains(&edge.fact), "join fact table not in query");
            assert!(self.tables.contains(&center), "joins require the center table");
        }
    }
}

/// Exact cardinality of a filtered star join, in one scan per predicate.
///
/// Tables not connected through a join edge contribute as cross-product
/// factors (the paper's generator never produces such queries, but the
/// semantics are well defined and the naive reference agrees).
///
/// # Panics
/// If the spec references tables/joins inconsistently (see
/// [`QuerySpec`] field docs).
pub fn count_star(db: &Database, spec: &QuerySpec) -> u64 {
    spec.validate(db);
    let schema = db.schema();
    let center = schema.center;

    // The rows of every predicated table, smallest table first: the first
    // empty conjunction ends the query before the larger scans, the fan-out
    // counts and the center sum. A table without predicates qualifies every
    // row and is never scanned.
    let mut predicated: Vec<TableId> = spec.predicates.iter().map(|p| p.table).collect();
    predicated.sort_unstable_by_key(|&t| (db.table(t).num_rows(), t));
    predicated.dedup();
    let mut bitmaps = Vec::with_capacity(predicated.len());
    for t in predicated {
        let rows = db.table(t).qualifying(spec.predicates.iter().filter(|p| p.table == t));
        if rows.all_zero() {
            return 0;
        }
        bitmaps.push((t, rows));
    }
    let qualifying = |t: TableId| bitmaps.iter().find(|(u, _)| *u == t).map(|(_, rows)| rows);

    let joined = |t: TableId| {
        if t == center {
            !spec.joins.is_empty()
        } else {
            spec.joins.iter().any(|&j| schema.join(j).fact == t)
        }
    };
    let mut cross_factor = 1u64;
    for &t in spec.tables.iter().filter(|&&t| !joined(t)) {
        let rows = match qualifying(t) {
            Some(rows) => u64::from(rows.count_ones()),
            None => db.table(t).num_rows() as u64,
        };
        cross_factor = cross_factor.saturating_mul(rows);
    }
    let Some((&first, rest)) = spec.joins.split_first() else { return cross_factor };
    if cross_factor == 0 {
        return 0;
    }

    // One running product `Π_f cnt_f[t]` per center row, multiplied in
    // join-edge order; the predicated facts' counts share one buffer.
    let mut buf = Vec::new();
    let fact_rows = |j: JoinId| qualifying(schema.join(j).fact);
    let mut product: Vec<u64> =
        edge_counts(db, first, fact_rows(first), &mut buf).iter().map(|&c| u64::from(c)).collect();
    for &j in rest {
        for (p, &c) in product.iter_mut().zip(edge_counts(db, j, fact_rows(j), &mut buf)) {
            *p *= u64::from(c);
        }
    }
    let total: u64 = match qualifying(center) {
        Some(rows) => rows.iter_ones().map(|row| product[row]).sum(),
        None => product.iter().sum(),
    };
    total.saturating_mul(cross_factor)
}

/// `cnt_f` of join edge `j`, one count per center row: the stored fan-out
/// when the fact side has no predicates (`fact_rows` is `None`), else the
/// qualifying fact rows counted per join key into `buf`.
fn edge_counts<'a>(
    db: &'a Database,
    j: JoinId,
    fact_rows: Option<&Bitmap>,
    buf: &'a mut Vec<u32>,
) -> &'a [u32] {
    let Some(rows) = fact_rows else { return db.fanout(j) };
    let edge = db.schema().join(j);
    let keys = db.table(edge.fact).column(edge.fact_col).raw_slice();
    buf.clear();
    buf.resize(db.table(edge.center).num_rows(), 0);
    for row in rows.iter_ones() {
        buf[keys[row] as usize] += 1;
    }
    buf
}

/// Brute-force nested-loop COUNT(*) over the cross product of all qualifying
/// rows, checking every join condition pairwise. Exponential; reference
/// implementation for tests and tiny examples only.
pub fn count_star_naive(db: &Database, spec: &QuerySpec) -> u64 {
    spec.validate(db);
    // Qualifying row lists per table, in spec order.
    let table_rows: Vec<Vec<u32>> = spec
        .tables
        .iter()
        .map(|&t| {
            let preds = spec.predicates_on(t);
            crate::predicate::filter_rows(db.table(t), &preds)
        })
        .collect();
    let pos_of = |t: TableId| spec.tables.iter().position(|&x| x == t).unwrap();

    fn recurse(
        db: &Database,
        spec: &QuerySpec,
        table_rows: &[Vec<u32>],
        pos_of: &dyn Fn(TableId) -> usize,
        depth: usize,
        chosen: &mut Vec<u32>,
    ) -> u64 {
        if depth == table_rows.len() {
            // Check all join conditions.
            for &j in spec.joins {
                let edge = db.schema().join(j);
                let frow = chosen[pos_of(edge.fact)] as usize;
                let crow = chosen[pos_of(edge.center)] as usize;
                let fval = db.table(edge.fact).column(edge.fact_col).raw(frow);
                let cval = db.table(edge.center).column(edge.center_col).raw(crow);
                if fval != cval {
                    return 0;
                }
            }
            return 1;
        }
        let mut total = 0;
        for &row in &table_rows[depth] {
            chosen.push(row);
            total += recurse(db, spec, table_rows, pos_of, depth + 1, chosen);
            chosen.pop();
        }
        total
    }

    recurse(db, spec, &table_rows, &pos_of, 0, &mut Vec::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;
    use crate::database::Table;
    use crate::predicate::CmpOp;
    use crate::schema::{ColumnDef, JoinEdge, Schema, TableDef};

    /// title(id, year), mc(movie_id, company), ci(movie_id, role)
    fn db() -> Database {
        let title = TableDef {
            name: "title".into(),
            columns: vec![ColumnDef::primary_key("id"), ColumnDef::nullable_data("year")],
        };
        let mc = TableDef {
            name: "mc".into(),
            columns: vec![
                ColumnDef::foreign_key("movie_id", TableId(0)),
                ColumnDef::data("company"),
            ],
        };
        let ci = TableDef {
            name: "ci".into(),
            columns: vec![ColumnDef::foreign_key("movie_id", TableId(0)), ColumnDef::data("role")],
        };
        let schema = Schema::new(
            vec![title, mc, ci],
            vec![
                JoinEdge { fact: TableId(1), fact_col: 0, center: TableId(0), center_col: 0 },
                JoinEdge { fact: TableId(2), fact_col: 0, center: TableId(0), center_col: 0 },
            ],
            TableId(0),
        );
        let t = Table::new(vec![
            Column::from_values(vec![0, 1, 2, 3]),
            Column::from_nullable(vec![Some(2000), Some(2010), None, Some(2010)]),
        ]);
        let mc = Table::new(vec![
            Column::from_values(vec![0, 0, 1, 3, 3, 3]),
            Column::from_values(vec![5, 6, 5, 5, 6, 7]),
        ]);
        let ci = Table::new(vec![
            Column::from_values(vec![0, 1, 1, 2, 3]),
            Column::from_values(vec![1, 1, 2, 1, 2]),
        ]);
        Database::new(schema, vec![t, mc, ci])
    }

    #[test]
    fn single_table_counts() {
        let db = db();
        let p = Predicate { table: TableId(0), column: 1, op: CmpOp::Eq, value: 2010 };
        let spec = QuerySpec { tables: &[TableId(0)], joins: &[], predicates: &[p] };
        assert_eq!(count_star(&db, &spec), 2);
        assert_eq!(count_star_naive(&db, &spec), 2);
    }

    #[test]
    fn one_join_matches_naive() {
        let db = db();
        let spec =
            QuerySpec { tables: &[TableId(0), TableId(1)], joins: &[JoinId(0)], predicates: &[] };
        assert_eq!(count_star(&db, &spec), 6);
        assert_eq!(count_star_naive(&db, &spec), 6);
    }

    #[test]
    fn two_joins_with_predicates() {
        let db = db();
        let preds = [
            Predicate { table: TableId(0), column: 1, op: CmpOp::Gt, value: 2005 },
            Predicate { table: TableId(1), column: 1, op: CmpOp::Eq, value: 5 },
        ];
        let spec = QuerySpec {
            tables: &[TableId(0), TableId(1), TableId(2)],
            joins: &[JoinId(0), JoinId(1)],
            predicates: &preds,
        };
        // title rows with year>2005: {1,3}. mc rows with company=5 per key:
        // key1 -> 1 row, key3 -> 1 row. ci fanouts: key1 -> 2 rows, key3 -> 1.
        // total = 1*2 + 1*1 = 3.
        assert_eq!(count_star(&db, &spec), 3);
        assert_eq!(count_star_naive(&db, &spec), 3);
    }

    #[test]
    fn empty_result_is_zero() {
        let db = db();
        let p = Predicate { table: TableId(1), column: 1, op: CmpOp::Gt, value: 100 };
        let spec =
            QuerySpec { tables: &[TableId(0), TableId(1)], joins: &[JoinId(0)], predicates: &[p] };
        assert_eq!(count_star(&db, &spec), 0);
        assert_eq!(count_star_naive(&db, &spec), 0);
    }

    /// A predicate no row passes, on the table at `t`.
    fn nothing_on(t: TableId) -> Predicate {
        Predicate { table: t, column: 1, op: CmpOp::Gt, value: 1_000_000 }
    }

    #[test]
    fn an_empty_conjunction_is_zero_in_every_role() {
        let db = db();
        let all = [TableId(0), TableId(1), TableId(2)];
        let cases: [(&str, &[TableId], &[JoinId], TableId); 5] = [
            ("center with joins", &all, &[JoinId(0), JoinId(1)], TableId(0)),
            ("joined fact", &all, &[JoinId(0), JoinId(1)], TableId(2)),
            ("loose table beside a join", &all, &[JoinId(0)], TableId(2)),
            ("loose table of a cross product", &all[1..], &[], TableId(1)),
            ("single table", &all[2..], &[], TableId(2)),
        ];
        for (role, tables, joins, empty) in cases {
            let preds = [nothing_on(empty)];
            let spec = QuerySpec { tables, joins, predicates: &preds };
            assert_eq!(count_star(&db, &spec), 0, "{role}");
            assert_eq!(count_star_naive(&db, &spec), 0, "{role}");
            // The same query without the predicate is not empty: the
            // conjunction alone made it 0.
            assert!(count_star(&db, &QuerySpec { predicates: &[], ..spec }) > 0, "{role}");
        }
    }

    #[test]
    fn an_empty_join_of_non_empty_tables_is_zero() {
        let db = db();
        // title year = 2000 is row 0 (id 0); ci role = 2 is rows 2 and 4,
        // of movies 1 and 3. Both tables qualify rows, no pair joins.
        let preds = [
            Predicate { table: TableId(0), column: 1, op: CmpOp::Eq, value: 2000 },
            Predicate { table: TableId(2), column: 1, op: CmpOp::Eq, value: 2 },
        ];
        let spec = QuerySpec {
            tables: &[TableId(0), TableId(1), TableId(2)],
            joins: &[JoinId(0), JoinId(1)],
            predicates: &preds,
        };
        for &t in spec.tables {
            assert!(!db.table(t).qualifying(spec.predicates_on(t).iter()).all_zero());
        }
        assert_eq!(count_star(&db, &spec), 0);
        assert_eq!(count_star_naive(&db, &spec), 0);
    }

    #[test]
    fn one_qualifying_row_is_not_empty() {
        let db = db();
        // title year = 2000 is row 0 alone; mc holds two rows of movie 0.
        let p = Predicate { table: TableId(0), column: 1, op: CmpOp::Eq, value: 2000 };
        let spec =
            QuerySpec { tables: &[TableId(0), TableId(1)], joins: &[JoinId(0)], predicates: &[p] };
        assert_eq!(count_star(&db, &spec), 2);
        assert_eq!(count_star_naive(&db, &spec), 2);
    }

    #[test]
    fn cross_product_semantics_match_naive() {
        let db = db();
        let spec = QuerySpec { tables: &[TableId(1), TableId(2)], joins: &[], predicates: &[] };
        assert_eq!(count_star(&db, &spec), 30);
        assert_eq!(count_star_naive(&db, &spec), 30);
    }

    #[test]
    fn null_center_rows_still_join() {
        // No predicate on title: NULL year rows still participate in joins.
        let db = db();
        let spec =
            QuerySpec { tables: &[TableId(0), TableId(2)], joins: &[JoinId(1)], predicates: &[] };
        assert_eq!(count_star(&db, &spec), 5);
        assert_eq!(count_star_naive(&db, &spec), 5);
    }

    #[test]
    #[should_panic(expected = "joins require the center table")]
    fn join_without_center_panics() {
        let db = db();
        let spec = QuerySpec { tables: &[TableId(1)], joins: &[JoinId(0)], predicates: &[] };
        count_star(&db, &spec);
    }
}
