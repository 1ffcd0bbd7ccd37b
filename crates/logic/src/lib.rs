//! # qdb-logic
//!
//! The logic substrate of the quantum database: the Datalog-like
//! intermediate representation of resource transactions (§2 of the paper)
//! and its SQL front end. The engine never computes a most general
//! unifier (Definition 3.2; the test-support `qdb_workload::unify` does):
//! partitioning asks the conservative [`Atom::may_overlap`].
//!
//! * [`Term`], [`Var`], [`Atom`] — relational atoms over variables and
//!   constants.
//! * [`Substitution`] — variable bindings (a `WHERE` clause folds into one).
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
pub mod error;
pub mod parser;
pub mod sql;
pub mod stmt;
pub mod substitution;
pub mod term;
pub mod transaction;
pub mod valuation;

pub use atom::Atom;
pub use error::LogicError;
pub use parser::{parse_atom, parse_query, parse_transaction, ParsedQuery};
pub use sql::{parse_sql_transaction, parse_statement, strip_literals, Template};
pub use stmt::{ColumnRef, ParsedStatement, ReadMode, SelectStmt, Statement, TxnStmt};
pub use substitution::Substitution;
pub use term::{Term, Var, VarGen};
pub use transaction::{BodyAtom, ResourceTransaction, UpdateAtom, UpdateKind};
pub use valuation::Valuation;

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, LogicError>;
