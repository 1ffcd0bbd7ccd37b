//! # qdb-core
//!
//! The quantum database engine — the primary contribution of *Quantum
//! Databases* (Roy, Kot, Koch — CIDR 2013), reimplemented as an embeddable
//! Rust library.
//!
//! The engine ([`SharedQuantumDb`] — one implementation, partition-sharded
//! and thread-safe; [`QuantumDb`] is its state at rest, as produced by
//! construction and crash recovery) maintains a partially uncertain state:
//! an extensional database plus an ordered list of committed resource
//! transactions whose value assignments are still **pending**. It keeps the
//! invariant that a consistent grounding exists for all pending
//! transactions (Definition 3.1) and transforms the state under the four
//! operations of §3.2:
//!
//! * **new resource transactions** — admitted iff the invariant is
//!   preserved (checked via the solution cache, then a full solve);
//! * **reads** — unification-based read checks identify pending
//!   transactions whose updates could affect the answer; those are
//!   grounded ("collapsed") first, then the read runs on the extensional
//!   state (the paper's option 3: uncertainty is fully hidden);
//! * **writes** — blind non-resource writes are admitted only if the
//!   invariant survives them;
//! * **grounding** — explicit, read-induced, partner-induced (§5.1
//!   entangled resource transactions) or forced by the `k` bound on
//!   pending transactions per partition (§4).
//!
//! ```
//! use qdb_core::{QuantumDb, QuantumDbConfig, SubmitOutcome};
//! use qdb_logic::parse_transaction;
//! use qdb_storage::{Schema, ValueType, tuple};
//!
//! let qdb = QuantumDb::new(QuantumDbConfig::default()).unwrap().into_shared();
//! qdb.create_table(Schema::new(
//!     "Available",
//!     vec![("flight", ValueType::Int), ("seat", ValueType::Str)],
//! )).unwrap();
//! qdb.create_table(Schema::new(
//!     "Bookings",
//!     vec![("name", ValueType::Str), ("flight", ValueType::Int), ("seat", ValueType::Str)],
//! )).unwrap();
//! qdb.bulk_insert("Available", vec![tuple![123, "5A"], tuple![123, "5B"]]).unwrap();
//!
//! let txn = parse_transaction(
//!     "-Available(f, s), +Bookings('Mickey', f, s) :-1 Available(f, s)",
//! ).unwrap();
//! let outcome = qdb.submit(&txn).unwrap();
//! assert!(matches!(outcome, SubmitOutcome::Committed { .. }));
//! // Mickey's seat is not fixed yet — the database is in a quantum state.
//! assert_eq!(qdb.pending_count(), 1);
//! ```

pub mod config;
pub mod engine;
pub mod entangle;
pub mod error;
pub mod exec;
pub mod ground;
mod metrics;
pub mod partition;
pub mod read;
mod reads;
pub mod recovery;
mod registry;
pub mod repl;
pub mod shard;
pub mod sync;
pub mod txn;
pub mod worlds;

pub use config::{GroundingPolicy, QuantumDbConfig, Serializability};
pub use engine::{QuantumDb, SubmitOutcome};
pub use error::EngineError;
pub use exec::{Bound, Prepared, Session, StmtCache};
pub use ground::GroundReason;
pub use partition::{Footprint, Partition};
pub use qdb_obs::{
    stmt_class, stmt_code, HistSnapshot, HistSummary, Histogram, Lead, Obs, Outcome, Phase,
    ProfileReport, SpanEvent, STMT_CLASSES, STMT_CODE_BASE,
};
pub use repl::{ReplicaApplier, ReplicaTracker};
pub use shard::SharedQuantumDb;
pub use txn::PendingTxn;
pub use worlds::{enumerate_worlds, enumerate_worlds_seeded, world_fingerprint, WorldSet};

pub use qdb_wire::{Metrics, ReplicaStatus, ReplicationReport, ReplicationRole, Response, TxnId};

/// `qdb_wire` under its old path, beside the protocol types re-exported
/// above: the frozen `benchmark/` package imports both (and
/// [`wire::code_for`]) from here. New code names `qdb_wire`.
pub mod wire {
    pub use qdb_wire::*;

    /// [`EngineError::code`](crate::EngineError::code) under its old name.
    pub fn code_for(e: &crate::EngineError) -> u8 {
        e.code()
    }
}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, EngineError>;
