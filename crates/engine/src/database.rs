//! The database: a schema plus columnar table data and exact per-column
//! statistics, validated against the star-schema invariants the exact
//! executor relies on.

use crate::column::{Column, ColumnStats};
use crate::predicate::Predicate;
use crate::sample::Bitmap;
use crate::schema::{ColumnRole, JoinId, Schema, TableId};

/// Columnar data for one table.
#[derive(Clone, Debug, Default)]
pub struct Table {
    columns: Vec<Column>,
    num_rows: usize,
}

impl Table {
    /// Build a table from equal-length columns.
    ///
    /// # Panics
    /// If the columns differ in length.
    pub fn new(columns: Vec<Column>) -> Self {
        let num_rows = columns.first().map_or(0, Column::len);
        for (i, c) in columns.iter().enumerate() {
            assert_eq!(c.len(), num_rows, "column {i} length mismatch");
        }
        Table { columns, num_rows }
    }

    /// Number of rows.
    #[inline]
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Number of columns.
    #[inline]
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// Column `i`.
    #[inline]
    pub fn column(&self, i: usize) -> &Column {
        &self.columns[i]
    }

    /// The rows satisfying every predicate of `preds` (all of which must be
    /// on this table), as a bitmap over row ids: one
    /// [`Column::and_matching`] scan per predicate. With no predicates this
    /// is all rows.
    pub fn qualifying<'a>(&self, preds: impl IntoIterator<Item = &'a Predicate>) -> Bitmap {
        let mut rows = Bitmap::ones(self.num_rows);
        for p in preds {
            self.column(p.column).and_matching(p.op, p.value, rows.words_mut());
        }
        rows
    }
}

/// An immutable database snapshot: schema, data, statistics.
///
/// The paper trains and estimates on "an immutable snapshot of the database"
/// (§3.5); this type is that snapshot.
#[derive(Clone, Debug)]
pub struct Database {
    schema: Schema,
    tables: Vec<Table>,
    stats: Vec<Vec<ColumnStats>>,
    /// Per join edge, the number of fact rows carrying each center key.
    fanouts: Vec<Vec<u32>>,
}

impl Database {
    /// Assemble and validate a database.
    ///
    /// Invariants checked (the exact executor depends on them):
    /// * one `Table` per schema table;
    /// * every primary-key column is the dense sequence `0..n_rows`;
    /// * every foreign-key value lands in `0..n_rows` of the referenced
    ///   table;
    /// * non-nullable columns contain no NULLs.
    ///
    /// # Panics
    /// If any invariant is violated.
    pub fn new(schema: Schema, tables: Vec<Table>) -> Self {
        assert_eq!(schema.num_tables(), tables.len(), "table count mismatch");
        for (ti, (def, data)) in schema.tables.iter().zip(&tables).enumerate() {
            assert_eq!(def.columns.len(), data.num_columns(), "table {ti}: column count mismatch");
            for (ci, cdef) in def.columns.iter().enumerate() {
                let col = data.column(ci);
                if !cdef.nullable {
                    assert!(col.validity().is_none(), "table {ti} column {ci}: unexpected NULLs");
                }
                match cdef.role {
                    ColumnRole::PrimaryKey => {
                        for row in 0..data.num_rows() {
                            assert_eq!(
                                col.raw(row),
                                row as i64,
                                "table {ti}: primary key must be dense 0..n"
                            );
                        }
                    }
                    ColumnRole::ForeignKey(target) => {
                        let target_rows = tables[target.index()].num_rows() as i64;
                        for row in 0..data.num_rows() {
                            let v = col.raw(row);
                            assert!(
                                (0..target_rows).contains(&v),
                                "table {ti} row {row}: dangling foreign key {v}"
                            );
                        }
                    }
                    ColumnRole::Data => {}
                }
            }
        }
        let stats = tables
            .iter()
            .map(|t| (0..t.num_columns()).map(|c| t.column(c).stats()).collect())
            .collect();
        // Every join column was just checked to land in the center's rows.
        let center_rows = tables[schema.center.index()].num_rows();
        let fanouts = schema
            .joins
            .iter()
            .map(|e| {
                let mut counts = vec![0u32; center_rows];
                for &k in tables[e.fact.index()].column(e.fact_col).raw_slice() {
                    counts[k as usize] += 1;
                }
                counts
            })
            .collect();
        Database { schema, tables, stats, fanouts }
    }

    /// The schema.
    #[inline]
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Data of table `t`.
    #[inline]
    pub fn table(&self, t: TableId) -> &Table {
        &self.tables[t.index()]
    }

    /// Exact statistics of column `column` of table `t`.
    #[inline]
    pub fn column_stats(&self, t: TableId, column: usize) -> &ColumnStats {
        &self.stats[t.index()][column]
    }

    /// The unfiltered fan-out of join edge `j`: per center key, the number
    /// of rows of the edge's fact table carrying it. Counted once, at
    /// construction — it depends on no query, and the label oracle needs it
    /// for every join whose fact side has no predicate.
    #[inline]
    pub fn fanout(&self, j: JoinId) -> &[u32] {
        &self.fanouts[j.index()]
    }

    /// Total number of rows across all tables.
    pub fn total_rows(&self) -> usize {
        self.tables.iter().map(Table::num_rows).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::CmpOp;
    use crate::schema::{ColumnDef, JoinEdge, TableDef};

    pub(crate) fn tiny_schema() -> Schema {
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
        Schema::new(
            vec![title, mc],
            vec![JoinEdge { fact: TableId(1), fact_col: 0, center: TableId(0), center_col: 0 }],
            TableId(0),
        )
    }

    fn tiny_db() -> Database {
        let title = Table::new(vec![
            Column::from_values(vec![0, 1, 2]),
            Column::from_nullable(vec![Some(1990), None, Some(2005)]),
        ]);
        let mc = Table::new(vec![
            Column::from_values(vec![0, 0, 2, 2, 2]),
            Column::from_values(vec![7, 8, 7, 9, 9]),
        ]);
        Database::new(tiny_schema(), vec![title, mc])
    }

    #[test]
    fn construction_and_stats() {
        let db = tiny_db();
        assert_eq!(db.total_rows(), 8);
        let ys = db.column_stats(TableId(0), 1);
        assert_eq!((ys.min, ys.max, ys.ndv, ys.null_count), (1990, 2005, 2, 1));
        let cs = db.column_stats(TableId(1), 1);
        assert_eq!((cs.min, cs.max, cs.ndv), (7, 9, 3));
    }

    #[test]
    fn fanouts_are_counted_once_and_cloned() {
        let db = tiny_db();
        // mc.movie_id = [0, 0, 2, 2, 2] over three title rows.
        assert_eq!(db.fanout(JoinId(0)), [2, 0, 3]);
        assert_eq!(db.clone().fanout(JoinId(0)), [2, 0, 3]);
    }

    #[test]
    fn qualifying_is_the_conjunction() {
        let mc = tiny_db();
        let mc = mc.table(TableId(1));
        let p = |column, op, value| Predicate { table: TableId(1), column, op, value };
        assert_eq!(mc.qualifying([]).iter_ones().collect::<Vec<_>>(), [0, 1, 2, 3, 4]);
        let preds = [p(1, CmpOp::Gt, 7), p(0, CmpOp::Eq, 2)];
        assert_eq!(mc.qualifying(&preds).iter_ones().collect::<Vec<_>>(), [3, 4]);
    }

    #[test]
    #[should_panic(expected = "dangling foreign key")]
    fn rejects_dangling_fk() {
        let title = Table::new(vec![
            Column::from_values(vec![0, 1]),
            Column::from_nullable(vec![Some(1990), Some(1991)]),
        ]);
        let mc = Table::new(vec![Column::from_values(vec![0, 5]), Column::from_values(vec![7, 8])]);
        Database::new(tiny_schema(), vec![title, mc]);
    }

    #[test]
    #[should_panic(expected = "dense 0..n")]
    fn rejects_sparse_pk() {
        let title = Table::new(vec![
            Column::from_values(vec![0, 2]),
            Column::from_nullable(vec![Some(1990), Some(1991)]),
        ]);
        let mc = Table::new(vec![Column::from_values(vec![0]), Column::from_values(vec![7])]);
        Database::new(tiny_schema(), vec![title, mc]);
    }
}
