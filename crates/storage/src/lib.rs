//! # qdb-storage
//!
//! An embedded relational storage engine — the substrate that the quantum
//! database prototype of *Quantum Databases* (Roy, Kot, Koch — CIDR 2013)
//! obtained from MySQL. It provides exactly what the middle tier of the
//! paper's Figure 4 needs from the layer below it:
//!
//! * typed tuples and **tables with set semantics** (§3.2.1 assumes every
//!   relation written by a resource transaction has a key; a table's key
//!   is its whole row),
//! * secondary indexes ("appropriate indices are defined for each relation",
//!   §5.2),
//! * **conjunctive query evaluation with `LIMIT n`** — the paper's
//!   satisfiability checks are `LIMIT 1` join queries (§4),
//! * a **write-ahead log** with checksummed frames and a *pending
//!   transactions table* record kind, so that committed-but-unground
//!   resource transactions survive crashes (§4 "Recovery").
//!
//! The engine is deliberately simple — in-memory BTree tables plus a
//! replayable log — but it is complete: every operation the quantum layer
//! performs against "the database" goes through this crate.
//!
//! ```
//! use qdb_storage::{Database, Schema, ValueType, Value, Tuple};
//!
//! let mut db = Database::new();
//! db.create_table(Schema::new(
//!     "Available",
//!     vec![("flight", ValueType::Int), ("seat", ValueType::Str)],
//! )).unwrap();
//! db.insert("Available", Tuple::from(vec![Value::from(123), Value::from("5A")])).unwrap();
//! assert_eq!(db.table("Available").unwrap().len(), 1);
//! ```

pub mod codec;
pub mod database;
pub mod error;
pub mod index;
pub mod pattern;
pub mod recovery;
pub mod schema;
pub mod table;
pub mod tuple;
pub mod value;
pub mod wal;

pub use database::{CloneCounter, Database, RelationId, WriteOp};
pub use error::StorageError;
pub use index::SecondaryIndex;
pub use pattern::{Binding, ConjunctiveQuery, PatTerm, Pattern, QueryOutput, TupleView};
pub use recovery::{recover, RecoveredState};
pub use schema::{Schema, ValueType};
pub use table::{Table, TableCursor};
pub use tuple::Tuple;
pub use value::Value;
pub use wal::{FaultSink, LogRecord, LogSink, SinkFault, Wal};

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, StorageError>;
