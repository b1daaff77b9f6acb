//! # lc-query — set-based queries, the §3.3 generator, labeling, workloads
//!
//! A query is the collection `(T_q, J_q, P_q)` of the paper's §3.1: a set of
//! tables, a set of join edges, and a set of conjunctive predicates. This
//! crate provides:
//!
//! * [`Query`]: the canonical set-based representation (order-free equality
//!   and hashing, so `(A ⋈ B) ⋈ C` and `A ⋈ (B ⋈ C)` are the same query),
//!   with a canonical binary encoding ([`Query::encode`] /
//!   [`Query::decode`]) shared by the serving wire protocol and the
//!   estimate cache;
//! * [`QueryGenerator`]: the paper's uniform random query generator (§3.3) —
//!   uniform join count, uniform joinable-table walk, uniform predicate
//!   count/operator, literals drawn from actual column values, duplicate
//!   elimination;
//! * [`label_queries`]: executes queries on the engine to obtain true
//!   cardinalities and annotates them with materialized-sample information
//!   (§3.4) — the training signal;
//! * [`workloads`]: the paper's three evaluation workloads — `synthetic`,
//!   `scale`, and a shape-matched `JOB-light` (Table 1).

mod codec;
mod generator;
mod label;
mod query;
pub mod workloads;

pub use codec::QueryDecodeError;
pub use generator::{GeneratorConfig, QueryGenerator};
pub use label::{annotate_query, label_queries, LabeledQuery};
pub use query::Query;
