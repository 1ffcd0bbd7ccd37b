//! # quantum-db
//!
//! Facade crate for the quantum database workspace — a from-scratch Rust
//! reproduction of *Quantum Databases* (Roy, Kot, Koch — CIDR 2013).
//!
//! A quantum database defers the binding of values read from the database:
//! a *resource transaction* ("book me any available seat, preferably next to
//! Goofy") commits immediately, but the concrete seat is chosen only when an
//! observation — a read — forces the choice. Until then the database is in a
//! superposition of possible worlds, represented intensionally as an
//! extensional store plus a list of committed-but-pending transactions.
//!
//! ## The statement API
//!
//! There is one engine: the thread-safe, partition-sharded
//! [`SharedQuantumDb`]. [`QuantumDb`] is its state at rest — what
//! [`QuantumDb::new`] and crash recovery ([`QuantumDb::recover`]) produce
//! and [`QuantumDb::into_shared`] brings to life. Every operation goes
//! through [`SharedQuantumDb::execute`] (or a [`Session`] over the same
//! handle) as one SQL dialect, and comes back as a typed [`Response`]:
//!
//! ```
//! use quantum_db::{QuantumDb, QuantumDbConfig, Response};
//!
//! let qdb = QuantumDb::new(QuantumDbConfig::default())?.into_shared();
//! qdb.execute("CREATE TABLE Available (flight INT, seat TEXT)")?;
//! qdb.execute("CREATE TABLE Bookings (name TEXT, flight INT, seat TEXT)")?;
//! qdb.execute("INSERT INTO Available VALUES (123, '5A'), (123, '5B')")?;
//!
//! // Figure 1: book *a* seat without choosing which.
//! let r = qdb.execute(
//!     "SELECT @s FROM Available(123, @s) CHOOSE 1 \
//!      FOLLOWED BY (DELETE (123, @s) FROM Available; \
//!                   INSERT ('Mickey', 123, @s) INTO Bookings)",
//! )?;
//! assert!(matches!(r, Response::Committed(_)));
//!
//! // The read observes — and thereby fixes — Mickey's seat.
//! let rows = qdb.execute("SELECT @s FROM Bookings('Mickey', 123, @s)")?;
//! assert_eq!(rows.rows().unwrap().len(), 1);
//! # Ok::<(), quantum_db::core::EngineError>(())
//! ```
//!
//! Statement classes: DDL (`CREATE TABLE` / `CREATE INDEX`), blind writes
//! (`INSERT INTO … VALUES` / `DELETE FROM … VALUES`), reads (`SELECT`,
//! with `PEEK` / `POSSIBLE` modifiers for the §3.2.2 uncertainty
//! semantics and `LIMIT`), resource transactions (`SELECT … CHOOSE 1
//! FOLLOWED BY (…)`) and control (`GROUND <id>`, `GROUND ALL`,
//! `CHECKPOINT`, `SHOW METRICS`, `SHOW PENDING`).
//!
//! Hot paths prepare once and re-bind positional `?` parameters:
//!
//! ```
//! use quantum_db::{QuantumDb, QuantumDbConfig, Value};
//!
//! let qdb = QuantumDb::new(QuantumDbConfig::default())?.into_shared();
//! qdb.execute("CREATE TABLE Available (flight INT, seat TEXT)")?;
//! let session = qdb.session();
//! let insert = session.prepare("INSERT INTO Available VALUES (?, ?)")?;
//! for seat in ["5A", "5B", "5C"] {
//!     insert.bind(&[Value::from(123), Value::from(seat)])?.run()?;
//! }
//! let n = session.execute("SELECT * FROM Available(123, @s)")?;
//! assert_eq!(n.rows().unwrap().len(), 3);
//! // Three bound runs, but the parser ran only for CREATE TABLE, the
//! // prepare, the SELECT above, and this SHOW — never inside the loop.
//! let m = session.execute("SHOW METRICS")?;
//! assert_eq!(m.metrics().unwrap().parses, 4);
//! # Ok::<(), quantum_db::core::EngineError>(())
//! ```
//!
//! ## Client/server
//!
//! The same statement surface is reachable over TCP: [`server`] puts an
//! epoll reactor plus executor pool in front of a [`SharedQuantumDb`] speaking the
//! [`wire`] frame protocol, and [`client`] provides blocking
//! connections with remote prepared statements, pipelining and a small
//! pool. See `examples/remote_booking.rs` for the §2 scenario running
//! across a socket.
//!
//! See the individual crates for internals:
//! * [`storage`] — the relational substrate (tables, indexes, WAL).
//! * [`logic`] — terms, unification, the statement grammar ([`logic::stmt`]).
//! * [`solver`] — the consistent-grounding search and solution cache.
//! * [`core`] — the quantum database engine and the `execute()` layer.
//! * [`server`] / [`client`] — the network service layer ([`wire`]).

pub use qdb_client as client;
pub use qdb_core as core;
pub use qdb_logic as logic;
pub use qdb_server as server;
pub use qdb_solver as solver;
pub use qdb_storage as storage;
pub use qdb_wire as wire;

// The most commonly used items, re-exported flat for examples and quick use.
pub use qdb_core::{
    Bound, GroundingPolicy, Prepared, QuantumDb, QuantumDbConfig, Response, Serializability,
    Session, SharedQuantumDb, SubmitOutcome,
};
pub use qdb_logic::{
    parse_query, parse_sql_transaction, parse_statement, parse_transaction, ParsedStatement,
    Statement,
};
pub use qdb_storage::{Database, Schema, Tuple, Value, ValueType};
