//! The canonical set-based query representation `(T_q, J_q, P_q)`.

use std::fmt;

use lc_engine::{Database, JoinId, Predicate, QuerySpec, TableId};

/// A SPJ COUNT(*) query over the star schema, stored in canonical
/// (sorted) order so that set semantics hold: two queries that differ only
/// in the order of tables, joins, or predicates are equal and hash equally.
///
/// This is the paper's key representational choice: "both (A ⋈ B) ⋈ C and
/// A ⋈ (B ⋈ C) are represented as {A, B, C}" (§1).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Query {
    tables: Vec<TableId>,
    joins: Vec<JoinId>,
    predicates: Vec<Predicate>,
}

impl Query {
    /// Build a query, canonicalizing the three sets (sort + dedup).
    pub fn new(
        mut tables: Vec<TableId>,
        mut joins: Vec<JoinId>,
        mut predicates: Vec<Predicate>,
    ) -> Self {
        tables.sort_unstable();
        tables.dedup();
        joins.sort_unstable();
        joins.dedup();
        predicates.sort_unstable_by_key(|p| (p.table, p.column, p.op, p.value));
        predicates.dedup();
        Query { tables, joins, predicates }
    }

    /// The table set `T_q`, sorted.
    pub fn tables(&self) -> &[TableId] {
        &self.tables
    }

    /// The join set `J_q`, sorted.
    pub fn joins(&self) -> &[JoinId] {
        &self.joins
    }

    /// The predicate set `P_q`, sorted.
    pub fn predicates(&self) -> &[Predicate] {
        &self.predicates
    }

    /// Number of joins (the x-axis of most of the paper's figures).
    pub fn num_joins(&self) -> usize {
        self.joins.len()
    }

    /// Index range within [`Query::predicates`] of the predicates on table
    /// `t`. Canonical order sorts by table first, so they are one
    /// contiguous run (empty if `t` has none).
    pub fn predicate_range(&self, t: TableId) -> std::ops::Range<usize> {
        let start = self.predicates.partition_point(|p| p.table < t);
        let len = self.predicates[start..].partition_point(|p| p.table == t);
        start..start + len
    }

    /// Predicates restricted to table `t`, in canonical order.
    pub fn predicates_on(&self, t: TableId) -> &[Predicate] {
        &self.predicates[self.predicate_range(t)]
    }

    /// A compact key identifying this query's **join template** — the
    /// table/join shape with predicates abstracted away. Two queries get
    /// the same template iff they touch the same table set via the same
    /// join edges; this is the granularity drift monitoring buckets
    /// feedback by, because MSCN's error profile is dominated by join
    /// shape (the paper's figures are all bucketed by join count).
    ///
    /// Layout: low 16 bits are the table-id bitmask, high 16 bits the
    /// join-id bitmask. Ids ≥ 16 saturate into the top bit of their
    /// half — on this repo's star schema (6 tables, 5 join edges) that
    /// never happens, and even where it did the key would still be a
    /// consistent (merely coarser) bucketing.
    pub fn join_template(&self) -> u32 {
        let mut tables_mask = 0u16;
        for t in &self.tables {
            tables_mask |= 1 << (t.0).min(15);
        }
        let mut joins_mask = 0u16;
        for j in &self.joins {
            joins_mask |= 1 << (j.0).min(15);
        }
        (u32::from(joins_mask) << 16) | u32::from(tables_mask)
    }

    /// Borrow as an executor spec.
    pub fn spec(&self) -> QuerySpec<'_> {
        QuerySpec { tables: &self.tables, joins: &self.joins, predicates: &self.predicates }
    }

    /// Render as SQL against `db`'s schema (for logs and examples).
    pub fn to_sql(&self, db: &Database) -> String {
        let schema = db.schema();
        let table_list: Vec<&str> =
            self.tables.iter().map(|&t| schema.table(t).name.as_str()).collect();
        let mut conds: Vec<String> = self
            .joins
            .iter()
            .map(|&j| {
                let e = schema.join(j);
                format!(
                    "{}.{} = {}.{}",
                    schema.table(e.fact).name,
                    schema.table(e.fact).columns[e.fact_col].name,
                    schema.table(e.center).name,
                    schema.table(e.center).columns[e.center_col].name
                )
            })
            .collect();
        conds.extend(self.predicates.iter().map(|p| {
            format!(
                "{}.{} {} {}",
                schema.table(p.table).name,
                schema.table(p.table).columns[p.column].name,
                p.op.symbol(),
                p.value
            )
        }));
        let where_clause = if conds.is_empty() {
            String::new()
        } else {
            format!(" WHERE {}", conds.join(" AND "))
        };
        format!("SELECT COUNT(*) FROM {}{}", table_list.join(", "), where_clause)
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Query{{tables:{:?}, joins:{:?}, preds:{}}}",
            self.tables.iter().map(|t| t.0).collect::<Vec<_>>(),
            self.joins.iter().map(|j| j.0).collect::<Vec<_>>(),
            self.predicates.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lc_engine::CmpOp;

    fn pred(t: u16, c: usize, v: i64) -> Predicate {
        Predicate { table: TableId(t), column: c, op: CmpOp::Eq, value: v }
    }

    #[test]
    fn canonicalization_gives_set_semantics() {
        let a = Query::new(
            vec![TableId(2), TableId(0)],
            vec![JoinId(1), JoinId(0)],
            vec![pred(0, 1, 5), pred(2, 1, 3)],
        );
        let b = Query::new(
            vec![TableId(0), TableId(2), TableId(0)],
            vec![JoinId(0), JoinId(1)],
            vec![pred(2, 1, 3), pred(0, 1, 5), pred(0, 1, 5)],
        );
        assert_eq!(a, b);
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut ha = DefaultHasher::new();
        a.hash(&mut ha);
        let mut hb = DefaultHasher::new();
        b.hash(&mut hb);
        assert_eq!(ha.finish(), hb.finish());
    }

    #[test]
    fn accessors() {
        let q = Query::new(vec![TableId(0), TableId(1)], vec![JoinId(0)], vec![pred(1, 1, 9)]);
        assert_eq!(q.num_joins(), 1);
        assert_eq!(q.predicates_on(TableId(1)), [pred(1, 1, 9)]);
        assert!(q.predicates_on(TableId(0)).is_empty());
        // Runs are contiguous and found by table, wherever they sit.
        let wide = Query::new(
            vec![TableId(0), TableId(2), TableId(3)],
            vec![],
            vec![pred(3, 1, 4), pred(0, 2, 1), pred(3, 0, 7), pred(0, 1, 5)],
        );
        assert_eq!(wide.predicate_range(TableId(0)), 0..2);
        assert_eq!(wide.predicate_range(TableId(2)), 2..2);
        assert_eq!(wide.predicates_on(TableId(3)), [pred(3, 0, 7), pred(3, 1, 4)]);
        assert!(wide.predicates_on(TableId(9)).is_empty());
        let spec = q.spec();
        assert_eq!(spec.tables.len(), 2);
    }

    #[test]
    fn join_template_keys_on_shape_not_predicates() {
        let a = Query::new(vec![TableId(0), TableId(1)], vec![JoinId(0)], vec![pred(1, 1, 9)]);
        let b = Query::new(vec![TableId(0), TableId(1)], vec![JoinId(0)], vec![pred(0, 2, -4)]);
        let c = Query::new(vec![TableId(0), TableId(2)], vec![JoinId(1)], vec![pred(1, 1, 9)]);
        // Same shape, different predicates → same template.
        assert_eq!(a.join_template(), b.join_template());
        // Different shape → different template.
        assert_ne!(a.join_template(), c.join_template());
        // Layout: tables in the low half, joins in the high half.
        assert_eq!(a.join_template(), (1 << 16) | 0b11);
    }

    #[test]
    fn sql_rendering() {
        let db = lc_imdb::generate(&lc_imdb::ImdbConfig::tiny());
        let q = Query::new(
            vec![TableId(0), TableId(1)],
            vec![JoinId(0)],
            vec![Predicate { table: TableId(0), column: 2, op: CmpOp::Gt, value: 2010 }],
        );
        let sql = q.to_sql(&db);
        assert!(sql.contains("FROM title, movie_companies"));
        assert!(sql.contains("movie_companies.movie_id = title.id"));
        assert!(sql.contains("title.production_year > 2010"));
    }
}
