//! # qdb-logic
//!
//! The logic substrate of the quantum database: the Datalog-like
//! intermediate representation of resource transactions (§2 of the paper)
//! and the unification machinery (§3.2.1, Definitions 3.2–3.3) that the
//! composition and read-check algorithms are built on.
//!
//! * [`Term`], [`Var`], [`Atom`] — relational atoms over variables and
//!   constants.
//! * [`Substitution`] and [`mgu`] — most general unifiers (Definition 3.2).
//! * [`UnifPredicate`] — unification predicates (Definition 3.3): the
//!   conjunction of equality constraints corresponding to an mgu.
//! * [`Formula`] — the composed-body formulas of Lemma 3.4 / Theorem 3.5.
//! * [`ResourceTransaction`] — `U :-1 B` with optional body atoms.
//! * [`parse_transaction`] / [`parse_query`] — a text syntax for the
//!   Datalog-like notation (the paper's prototype likewise accepts only the
//!   intermediate representation, §4).
//!
//! ```
//! use qdb_logic::parse_transaction;
//!
//! let t = parse_transaction(
//!     "-Available(f, s), +Bookings('Mickey', f, s) :-1 \
//!      Available(f, s), Bookings('Goofy', f, s2)?, Adjacent(s, s2)?",
//! ).unwrap();
//! assert_eq!(t.updates.len(), 2);
//! assert_eq!(t.body.iter().filter(|b| b.optional).count(), 2);
//! ```

pub mod atom;
pub mod codec;
pub mod compose;
pub mod error;
pub mod formula;
pub mod parser;
pub mod predicate;
pub mod sql;
pub mod stmt;
pub mod substitution;
pub mod term;
pub mod transaction;
pub mod unify;
pub mod valuation;

pub use atom::Atom;
pub use compose::{compose, compose_renamed, compose_with_optionals};
pub use error::LogicError;
pub use formula::Formula;
pub use parser::{parse_atom, parse_query, parse_transaction, ParsedQuery};
pub use predicate::{EqConstraint, UnifPredicate};
pub use sql::{parse_sql_transaction, parse_statement, strip_literals, Template};
pub use stmt::{ColumnRef, ParsedStatement, ReadMode, SelectStmt, Statement, TxnStmt};
pub use substitution::Substitution;
pub use term::{Term, Var, VarGen};
pub use transaction::{BodyAtom, ResourceTransaction, UpdateAtom, UpdateKind};
pub use unify::{mgu, unifiable};
pub use valuation::Valuation;

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, LogicError>;
