//! Exact full-join sizes for every subset of join edges, computed once on
//! the snapshot.
//!
//! Random Sampling and the IBJS fallback estimate a filtered join as
//! `Π selectivities × |unfiltered join|`; the unfiltered star-join size for
//! any edge subset is cheap to precompute exactly (the database's stored
//! fan-out array per edge, then one multiply-accumulate pass per subset).

use lc_engine::{Database, JoinId};

/// Exact unfiltered star-join sizes for all non-empty subsets of the
/// schema's join edges.
#[derive(Clone, Debug)]
pub struct FullJoinSizes {
    /// `sizes[mask - 1]` = join size of the edge subset encoded by `mask`
    /// (bit `i` = edge `JoinId(i)`).
    sizes: Vec<u64>,
    num_edges: usize,
}

impl FullJoinSizes {
    /// Precompute all subset sizes.
    ///
    /// # Panics
    /// If the schema has more than 20 join edges (subset enumeration would
    /// be unreasonable; the paper's schema has 5).
    pub fn build(db: &Database) -> Self {
        let num_edges = db.schema().num_joins();
        assert!(num_edges <= 20, "too many join edges for subset enumeration");
        let center_rows = db.table(db.schema().center).num_rows();
        let fanouts: Vec<&[u32]> = (0..num_edges).map(|e| db.fanout(JoinId(e as u16))).collect();
        let mut sizes = vec![0u64; (1usize << num_edges) - 1];
        for mask in 1usize..(1 << num_edges) {
            let edges: Vec<usize> = (0..num_edges).filter(|i| mask >> i & 1 == 1).collect();
            let total: u64 = (0..center_rows)
                .map(|row| {
                    let mut product = 1u64;
                    for &e in &edges {
                        let c = fanouts[e][row] as u64;
                        if c == 0 {
                            return 0;
                        }
                        product *= c;
                    }
                    product
                })
                .sum();
            sizes[mask - 1] = total;
        }
        FullJoinSizes { sizes, num_edges }
    }

    /// Exact size of the unfiltered join over `joins` (plus the center).
    /// An empty slice returns 0 — single-table "joins" have no meaning here.
    pub fn size(&self, joins: &[JoinId]) -> u64 {
        if joins.is_empty() {
            return 0;
        }
        let mut mask = 0usize;
        for j in joins {
            debug_assert!(j.index() < self.num_edges);
            mask |= 1 << j.index();
        }
        self.sizes[mask - 1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lc_engine::{count_star, QuerySpec, TableId};
    use lc_imdb::{generate, ImdbConfig};

    #[test]
    fn subset_sizes_match_executor() {
        let db = generate(&ImdbConfig::tiny());
        let sizes = FullJoinSizes::build(&db);
        let center = db.schema().center;
        for mask in 1usize..(1 << db.schema().num_joins()) {
            let joins: Vec<JoinId> = (0..db.schema().num_joins())
                .filter(|i| mask >> i & 1 == 1)
                .map(|i| JoinId(i as u16))
                .collect();
            let mut tables = vec![center];
            tables.extend(joins.iter().map(|&j| db.schema().join(j).fact));
            let spec = QuerySpec { tables: &tables, joins: &joins, predicates: &[] };
            assert_eq!(sizes.size(&joins), count_star(&db, &spec), "mask {mask}");
        }
        // Sanity: single-edge size equals the fact table row count
        // (FK always matches the dense PK).
        let mc_rows = db.table(TableId(1)).num_rows() as u64;
        assert_eq!(sizes.size(&[JoinId(0)]), mc_rows);
    }

    #[test]
    fn empty_join_set_is_zero() {
        let db = generate(&ImdbConfig::tiny());
        let sizes = FullJoinSizes::build(&db);
        assert_eq!(sizes.size(&[]), 0);
    }
}
