//! # lc-engine — in-memory columnar engine
//!
//! The substrate that plays the role of HyPer in the paper *Learned
//! Cardinalities: Estimating Correlated Joins with Deep Learning* (CIDR 2019):
//! an exact, fast COUNT(*) evaluator used to label training queries with true
//! cardinalities, plus everything the estimators need from the storage layer:
//!
//! * [`Schema`] / [`Database`]: columnar tables of `i64` values (with
//!   nullability), a PK/FK **star** join graph centered on a dimension table
//!   (`title` in the IMDb-like schema), exact per-column statistics and
//!   the unfiltered fan-out of every join edge.
//! * [`Predicate`]: conjunctive `=`, `<`, `>` predicates on numeric columns —
//!   exactly the predicate language of the paper's query generator (§3.3).
//! * [`SampleSet`] / [`Bitmap`]: materialized uniform per-table samples and
//!   the qualifying-sample bitmaps that MSCN featurizes (§3.4).
//! * [`JoinIndexes`]: CSR indexes from join-key to fact rows, the "existing
//!   index structures" probed by Index-Based Join Sampling.
//! * [`count_star`]: exact cardinality of a filtered star join, one
//!   word-packed column scan per predicate ([`Column::and_matching`], the
//!   evaluator the samples are probed with too), and [`count_star_naive`],
//!   a brute-force reference used by the property-test suite.

pub mod column;
pub mod database;
pub mod executor;
pub mod fx;
pub mod index;
pub mod predicate;
pub mod sample;
pub mod schema;

pub use column::{Column, ColumnStats};
pub use database::{Database, Table};
pub use executor::{count_star, count_star_naive, QuerySpec};
pub use fx::{FxHashMap, FxHashSet, FxHasher};
pub use index::{FactIndex, JoinIndexes};
pub use predicate::{CmpOp, Predicate};
pub use sample::{Bitmap, SampleSet, TableSample};
pub use schema::{ColumnDef, ColumnRole, JoinEdge, JoinId, Schema, TableDef, TableId};
