//! # qdb-solver
//!
//! The grounding/satisfiability engine of the quantum database.
//!
//! The paper's prototype (§4) checks the quantum database invariant — *a
//! consistent set of groundings exists for every pending resource
//! transaction* — by issuing one big `LIMIT 1` join query against MySQL per
//! composed transaction body. This crate implements that check natively: a
//! backtracking search over **virtual database states**. Transaction `i`'s
//! body must ground on the state produced by applying transactions
//! `0..i`'s updates to the base database, which is exactly the "consistent
//! grounding" condition of Definition 3.1 and the satisfiability of the
//! composed body of Theorem 3.5. The formula view lives in test support
//! (`qdb_workload::formula`); `solver_agrees_with_the_composed_formula` in
//! `tests/proptests.rs` cross-checks the search against it.
//!
//! Key pieces:
//! * [`Overlay`] — copy-on-write view of the base database with the
//!   inserts/deletes of already-grounded prefix transactions applied;
//!   supports marks and rollback for backtracking.
//! * [`Solver`] — the search itself, with two atom-ordering strategies:
//!   [`AtomOrder::MostConstrained`] (dynamic, default) and
//!   [`AtomOrder::Static`] (left-to-right; mimics the cost profile of the
//!   paper's monolithic LIMIT-1 joins; only tests select it, as a
//!   satisfiability reference).
//! * [`CachedSolution`] — the §4 *solution cache*: one known-good set of
//!   groundings per partition, extended incrementally when a new
//!   transaction arrives and re-solved from scratch only when extension
//!   fails.
//! * [`ReadSpec`] — read mode: the §3.2.2 reads (collapse, PEEK, all
//!   possible values) as body-only specs evaluated on the same kernel, over
//!   the base plus an [`Overlay`], with the reference evaluator's answers
//!   and order.

pub mod cache;
pub mod error;
pub mod overlay;
pub mod read;
pub mod search;
pub mod spec;
pub mod stats;

pub use cache::CachedSolution;
pub use error::SolverError;
pub use overlay::{CandidateIter, Overlay};
pub use read::ReadSpec;
pub use search::{AtomOrder, GroundUpdate, SearchLimits, Solver};
pub use spec::{Solution, TxnSpec};
pub use stats::SolverStats;

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, SolverError>;
