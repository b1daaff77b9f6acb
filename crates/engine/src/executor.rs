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
//! samples. A table outside the join contributes the bitmap's population
//! count; a predicated fact side bumps `cnt_f` for the set bits only; a fact
//! side *without* predicates needs no scan at all, because its `cnt_f` does
//! not depend on the query and [`Database::fanout`] counted it once; and the
//! final sum visits the set bits of `sel(c)`.
//! [`count_star_naive`] is an exponential nested-loop reference used to
//! property-test the fast path on small databases.
//!
//! [`Table::qualifying`]: crate::Table::qualifying

use std::borrow::Cow;

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
    // The rows of `t` passing its predicates; `None` when it has none,
    // which is every row and costs nothing.
    let qualifying = |t: TableId| -> Option<Bitmap> {
        let mut preds = spec.predicates.iter().filter(|p| p.table == t).peekable();
        preds.peek().is_some().then(|| db.table(t).qualifying(preds))
    };

    let mut cross_factor = 1u64;
    for &t in spec.tables {
        let joined = if t == center {
            !spec.joins.is_empty()
        } else {
            spec.joins.iter().any(|&j| schema.join(j).fact == t)
        };
        if !joined {
            let rows = match qualifying(t) {
                Some(rows) => u64::from(rows.count_ones()),
                None => db.table(t).num_rows() as u64,
            };
            cross_factor = cross_factor.saturating_mul(rows);
            if cross_factor == 0 {
                return 0;
            }
        }
    }
    if spec.joins.is_empty() {
        return cross_factor;
    }

    let center_rows = db.table(center).num_rows();
    let fanouts: Vec<Cow<[u32]>> = spec
        .joins
        .iter()
        .map(|&j| {
            let edge = schema.join(j);
            match qualifying(edge.fact) {
                None => Cow::Borrowed(db.fanout(j)),
                Some(rows) => {
                    let keys = db.table(edge.fact).column(edge.fact_col).raw_slice();
                    let mut counts = vec![0u32; center_rows];
                    for row in rows.iter_ones() {
                        counts[keys[row] as usize] += 1;
                    }
                    Cow::Owned(counts)
                }
            }
        })
        .collect();

    let product = |row: usize| fanouts.iter().map(|f| u64::from(f[row])).product::<u64>();
    let total: u64 = match qualifying(center) {
        Some(rows) => rows.iter_ones().map(product).sum(),
        None => (0..center_rows).map(product).sum(),
    };
    total.saturating_mul(cross_factor)
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
