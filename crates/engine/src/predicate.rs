//! Conjunctive base-table predicates of the form `(col, op, val)` with
//! `op ∈ {=, <, >}` — the exact predicate language of the paper's query
//! generator (§3.3). Predicates never match NULL (SQL semantics).
//!
//! Sets of rows are selected by [`Table::qualifying`], a word-packed scan
//! per predicate ([`crate::Column::and_matching`]); [`filter_rows`] and
//! [`count_matching`] are views of its bitmap. [`Predicate::matches_row`] /
//! [`row_matches_all`] are the row-at-a-time definition of the same thing:
//! the reference the tests compare the scan against, and what Index-Based
//! Join Sampling uses to check the single rows it reaches through an index.

use crate::database::Table;
use crate::schema::TableId;

/// Comparison operator.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<`
    Lt,
    /// `>`
    Gt,
}

impl CmpOp {
    /// All operators, in the canonical one-hot encoding order.
    pub const ALL: [CmpOp; 3] = [CmpOp::Eq, CmpOp::Lt, CmpOp::Gt];

    /// Index into the one-hot operator encoding.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            CmpOp::Eq => 0,
            CmpOp::Lt => 1,
            CmpOp::Gt => 2,
        }
    }

    /// Apply the operator.
    #[inline]
    pub fn matches(self, lhs: i64, rhs: i64) -> bool {
        match self {
            CmpOp::Eq => lhs == rhs,
            CmpOp::Lt => lhs < rhs,
            CmpOp::Gt => lhs > rhs,
        }
    }

    /// SQL spelling.
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Lt => "<",
            CmpOp::Gt => ">",
        }
    }
}

/// A single base-table predicate `table.column op value`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Predicate {
    /// Table the predicate applies to.
    pub table: TableId,
    /// Column index within the table.
    pub column: usize,
    /// Comparison operator.
    pub op: CmpOp,
    /// Literal value, drawn from the column's actual domain.
    pub value: i64,
}

impl Predicate {
    /// Whether row `row` of `table_data` satisfies the predicate.
    /// NULL never matches.
    #[inline]
    pub fn matches_row(&self, table_data: &Table, row: usize) -> bool {
        let col = table_data.column(self.column);
        match col.value(row) {
            Some(v) => self.op.matches(v, self.value),
            None => false,
        }
    }
}

/// Whether row `row` satisfies every predicate in `preds` (all of which must
/// reference the table `table_data` belongs to).
#[inline]
pub fn row_matches_all(table_data: &Table, preds: &[Predicate], row: usize) -> bool {
    preds.iter().all(|p| p.matches_row(table_data, row))
}

/// Collect the row ids of `table_data` satisfying all `preds`.
/// With no predicates this is all rows.
pub fn filter_rows(table_data: &Table, preds: &[Predicate]) -> Vec<u32> {
    table_data.qualifying(preds).iter_ones().map(|row| row as u32).collect()
}

/// Count the rows of `table_data` satisfying all `preds` without
/// materializing a selection vector.
pub fn count_matching(table_data: &Table, preds: &[Predicate]) -> u64 {
    u64::from(table_data.qualifying(preds).count_ones())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;
    use crate::database::Table;

    fn table() -> Table {
        Table::new(vec![
            Column::from_values(vec![0, 1, 2, 3, 4]),
            Column::from_nullable(vec![Some(10), None, Some(30), Some(10), Some(50)]),
        ])
    }

    #[test]
    fn ops_match() {
        assert!(CmpOp::Eq.matches(3, 3));
        assert!(!CmpOp::Eq.matches(3, 4));
        assert!(CmpOp::Lt.matches(2, 3));
        assert!(!CmpOp::Lt.matches(3, 3));
        assert!(CmpOp::Gt.matches(4, 3));
        assert!(!CmpOp::Gt.matches(3, 3));
    }

    #[test]
    fn null_never_matches() {
        let t = table();
        for op in CmpOp::ALL {
            let p = Predicate { table: TableId(0), column: 1, op, value: 0 };
            assert!(!p.matches_row(&t, 1), "{op:?} matched NULL");
        }
        // Even `< i64::MAX` misses NULLs.
        let p = Predicate { table: TableId(0), column: 1, op: CmpOp::Lt, value: i64::MAX };
        let rows = filter_rows(&t, &[p]);
        assert_eq!(rows, vec![0, 2, 3, 4]);
    }

    #[test]
    fn filter_and_count_agree() {
        let t = table();
        let p1 = Predicate { table: TableId(0), column: 1, op: CmpOp::Eq, value: 10 };
        let p2 = Predicate { table: TableId(0), column: 0, op: CmpOp::Gt, value: 0 };
        assert_eq!(filter_rows(&t, &[p1]), vec![0, 3]);
        assert_eq!(filter_rows(&t, &[p1, p2]), vec![3]);
        assert_eq!(count_matching(&t, &[p1, p2]), 1);
        assert_eq!(count_matching(&t, &[]), 5);
        assert_eq!(filter_rows(&t, &[]).len(), 5);
    }
}
