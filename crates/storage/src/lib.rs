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
//! * **partial-binding lookups** (`Table::select`, `Table::count_up_to`)
//!   — the probes the paper's `LIMIT 1` satisfiability joins (§4) are
//!   built from,
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
pub mod recovery;
pub mod schema;
pub mod table;
pub mod text;
pub mod tuple;
pub mod value;
pub mod wal;

pub use database::{CloneCounter, Database, RelationId, WriteOp};
pub use error::StorageError;
pub use index::SecondaryIndex;
pub use recovery::{recover, RecoveredState};
pub use schema::{Schema, ValueType};
pub use table::{Table, TableCursor};
pub use text::Str;
pub use tuple::Tuple;
pub use value::Value;
pub use wal::{FaultSink, LogRecord, LogSink, SinkFault, Wal};

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, StorageError>;

/// splitmix64 (Vigna 2015, <https://prng.di.unimi.it/splitmix64.c>): the
/// output for state `x`, i.e. `x` advanced by the golden gamma and mixed.
/// The workspace's one generator: `qdb_workload::rng::StdRng` steps
/// through it, and the solver's seeded tie-break, the client's backoff
/// jitter and the `Random` grounding policy's shuffle hash with it.
#[inline]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
