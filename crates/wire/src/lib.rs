//! The qdb wire protocol: length-prefixed binary frames over TCP.
//!
//! This crate is the single source of truth for the bytes exchanged
//! between `qdb-server` and `qdb-client`: both sides depend on it, so the
//! protocol cannot drift between them. It owns every type that travels —
//! [`Response`], [`Metrics`], [`ServerStats`], [`ReplicationReport`] — and
//! nothing of the engine, so a client links no solver. The encoding reuses
//! the workspace codec: little-endian integers, length-prefixed strings
//! and tagged values written by [`qdb_storage::codec`]'s encoders and read
//! through its checked [`Reader`](qdb_storage::codec::Reader) — the same
//! building blocks as the WAL and the transaction codec.
//!
//! ## Frame layout
//!
//! ```text
//! ┌────────────┬─────────┬────────────────┬──────────────┐
//! │ u32 length │ u8 kind │ u32 request id │ body (bytes) │
//! └────────────┴─────────┴────────────────┴──────────────┘
//! ```
//!
//! `length` counts everything after itself (kind + request id + body) and
//! is capped at [`MAX_FRAME`]. The request id is chosen by the client and
//! echoed verbatim in the response, which is what makes pipelining safe:
//! a client may have many frames in flight and match responses to
//! requests purely by arrival order (the server preserves per-connection
//! order) or by id.
//!
//! ## Frame kinds
//!
//! `docs/WIRE.md` specifies every frame's body. Requests are the [`req`]
//! kinds; their statement and bound ids are **client-assigned**, so
//! `PREPARE`/`BIND`/`RUN` can be pipelined in a single flush without
//! waiting for the server to hand ids back. Replies are the [`resp`]
//! kinds: one per [`Response`] variant plus `PREPARED`, `BOUND` and
//! `ERROR` (see [`Reply`]). Every engine error crosses the wire as an
//! `ERROR` frame carrying a stable [error code](code) and the display
//! message — the server never panics a connection over a bad statement.

mod metrics;
mod repl;
mod response;
mod wire;

pub use metrics::{Metrics, MetricsCells};
pub use qdb_obs::ProfileReport;
pub use repl::{ReplicaStatus, ReplicationReport, ReplicationRole};
pub use response::{Response, TxnId};
pub use wire::*;
