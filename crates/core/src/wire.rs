//! The qdb wire protocol: length-prefixed binary frames over TCP.
//!
//! This module is the single source of truth for the bytes exchanged
//! between `qdb-server` and `qdb-client`. Both sides depend only on this
//! crate, so the protocol cannot drift between them. The encoding reuses
//! the workspace codec idioms: little-endian integers via the local
//! [`bytes`] crate and length-prefixed strings / tagged values via
//! [`qdb_storage::codec`] — the same building blocks as the WAL and the
//! transaction codec.
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
//! ## Request kinds
//!
//! | kind | name    | body                                              |
//! |------|---------|---------------------------------------------------|
//! | 0x01 | EXECUTE | sql string                                        |
//! | 0x02 | PREPARE | client-chosen stmt id (u32), sql string           |
//! | 0x03 | BIND    | stmt id (u32), client-chosen bound id (u32), u32 param count, values |
//! | 0x04 | RUN     | bound id (u32)                                    |
//! | 0x05 | REPLICATE | replica id (string), from offset (u64)          |
//! | 0x06 | REPL_ACK  | replica id (string), applied offset (u64), horizon (u64) |
//!
//! Statement and bound ids are **client-assigned** so that
//! `PREPARE`/`BIND`/`RUN` can be pipelined in a single flush without
//! waiting for the server to hand ids back.
//!
//! ## Response kinds
//!
//! One per [`Response`] variant plus `PREPARED`, `BOUND` and `ERROR`; see
//! [`Reply`]. Every engine error crosses the wire as an `ERROR` frame
//! carrying a stable [error code](code) and the display message — the
//! server never panics a connection over a bad statement.

use bytes::{Buf, BufMut};
use qdb_logic::{Valuation, Var};
use qdb_storage::codec as scodec;
use qdb_storage::Value;

use crate::error::EngineError;
use crate::exec::Response;
use crate::metrics::Metrics;
use crate::txn::TxnId;

/// Hard cap on a frame's payload (defensive: a corrupt or hostile length
/// prefix must not drive an allocation).
pub const MAX_FRAME: usize = 16 << 20;

/// Sanity cap on encoded/decoded element counts (rows, worlds, params).
pub const MAX_COUNT: usize = 1 << 20;

// -- Frame kinds -------------------------------------------------------------

/// Request frame kinds.
pub mod req {
    /// One-shot parse-and-execute of a sql string.
    pub const EXECUTE: u8 = 0x01;
    /// Parse once server-side under a client-chosen statement id.
    pub const PREPARE: u8 = 0x02;
    /// Bind positional parameters to a prepared statement.
    pub const BIND: u8 = 0x03;
    /// Run (and consume) a bound statement.
    pub const RUN: u8 = 0x04;
    /// Replica → primary: poll for WAL bytes past an offset.
    pub const REPLICATE: u8 = 0x05;
    /// Replica → primary: report the applied offset + replication horizon.
    pub const REPL_ACK: u8 = 0x06;
}

/// Response frame kinds.
pub mod resp {
    /// `Response::Rows`.
    pub const ROWS: u8 = 0x10;
    /// `Response::Worlds`.
    pub const WORLDS: u8 = 0x11;
    /// `Response::Committed`.
    pub const COMMITTED: u8 = 0x12;
    /// `Response::Aborted`.
    pub const ABORTED: u8 = 0x13;
    /// `Response::Written`.
    pub const WRITTEN: u8 = 0x14;
    /// `Response::Grounded`.
    pub const GROUNDED: u8 = 0x15;
    /// `Response::Metrics` + the serving process's [`super::ServerStats`].
    pub const METRICS: u8 = 0x16;
    /// `Response::Pending`.
    pub const PENDING: u8 = 0x17;
    /// `Response::Ack`.
    pub const ACK: u8 = 0x18;
    /// `Response::Profile` (`SHOW PROFILE`).
    pub const PROFILE: u8 = 0x19;
    /// `Response::Events` (`SHOW EVENTS`).
    pub const EVENTS: u8 = 0x1A;
    /// A chunk of primary WAL bytes (answers a `REPLICATE` poll).
    pub const WAL_SEGMENT: u8 = 0x1B;
    /// `Response::Replication` (`SHOW REPLICATION`).
    pub const REPLICATION: u8 = 0x1C;
    /// Acknowledges a PREPARE.
    pub const PREPARED: u8 = 0x20;
    /// Acknowledges a BIND.
    pub const BOUND: u8 = 0x21;
    /// Any failure: error code + message.
    pub const ERROR: u8 = 0x2F;
}

/// Stable error codes carried by `ERROR` frames.
pub mod code {
    /// [`crate::EngineError::Storage`].
    pub const STORAGE: u8 = 1;
    /// [`crate::EngineError::Logic`] (parse errors, range restriction,
    /// parameter-count mismatches, …).
    pub const LOGIC: u8 = 2;
    /// [`crate::EngineError::Solver`].
    pub const SOLVER: u8 = 3;
    /// [`crate::EngineError::Invariant`].
    pub const INVARIANT: u8 = 4;
    /// [`crate::EngineError::RecoveryUnsatisfiable`].
    pub const RECOVERY: u8 = 5;
    /// Malformed frame or unknown frame kind.
    pub const PROTOCOL: u8 = 6;
    /// `BIND`/`RUN` referenced a statement or bound id the connection
    /// never created (or already consumed).
    pub const UNKNOWN_ID: u8 = 7;
    /// `EXECUTE` of a statement that still has `?` placeholders.
    pub const PARAMS: u8 = 8;
    /// A write-class statement reached a read-only replica. Clients treat
    /// this as "wrong node" and fail over to the primary.
    pub const READ_ONLY: u8 = 9;
}

/// The error code an [`EngineError`] maps to on the wire.
pub fn code_for(e: &EngineError) -> u8 {
    match e {
        EngineError::Storage(_) => code::STORAGE,
        EngineError::Logic(_) => code::LOGIC,
        EngineError::Solver(_) => code::SOLVER,
        EngineError::Invariant(_) => code::INVARIANT,
        EngineError::RecoveryUnsatisfiable { .. } => code::RECOVERY,
    }
}

// -- Error type --------------------------------------------------------------

/// A frame that could not be encoded or decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError(pub String);

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "wire: {}", self.0)
    }
}

impl std::error::Error for WireError {}

impl From<qdb_storage::StorageError> for WireError {
    fn from(e: qdb_storage::StorageError) -> Self {
        WireError(e.to_string())
    }
}

type Result<T> = std::result::Result<T, WireError>;

fn need(buf: &impl Buf, n: usize, what: &str) -> Result<()> {
    if buf.remaining() < n {
        return Err(WireError(format!(
            "truncated {what}: need {n} bytes, have {}",
            buf.remaining()
        )));
    }
    Ok(())
}

fn get_count(buf: &mut impl Buf, what: &str) -> Result<usize> {
    need(buf, 4, what)?;
    let n = buf.get_u32_le() as usize;
    if n > MAX_COUNT {
        return Err(WireError(format!("implausible {what} {n}")));
    }
    Ok(n)
}

// -- Requests ----------------------------------------------------------------

/// A decoded request frame body.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Parse and execute `sql` in one round trip.
    Execute {
        /// Statement text.
        sql: String,
    },
    /// Parse `sql` once and remember it under `stmt`.
    Prepare {
        /// Client-chosen statement id.
        stmt: u32,
        /// Statement text.
        sql: String,
    },
    /// Bind positional parameters to `stmt`, remembering the result under
    /// `bound`.
    Bind {
        /// Statement id from a previous `Prepare`.
        stmt: u32,
        /// Client-chosen bound id.
        bound: u32,
        /// Positional parameter values.
        params: Vec<Value>,
    },
    /// Run (and consume) `bound`.
    Run {
        /// Bound id from a previous `Bind`.
        bound: u32,
    },
    /// Replica → primary: poll for WAL bytes past `from_offset`. Answered
    /// with one [`Reply::WalSegment`] (empty when caught up) — pull-based,
    /// so replication rides the ordinary request/response machinery.
    Replicate {
        /// Replica-chosen identifier, stable across reconnects (keys the
        /// primary's `SHOW REPLICATION` ledger).
        replica_id: String,
        /// Primary WAL byte offset the replica wants bytes from (its
        /// applied offset plus any buffered partial frame).
        from_offset: u64,
    },
    /// Replica → primary: progress report. Answered with an `ACK`.
    ReplAck {
        /// Replica-chosen identifier.
        replica_id: String,
        /// Primary WAL bytes the replica has fully applied.
        applied_offset: u64,
        /// Highest transaction id the replica has applied.
        horizon: u64,
    },
}

/// Encode a complete request frame (including the length prefix).
pub fn encode_request(request_id: u32, request: &Request) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    encode_request_into(&mut out, request_id, request);
    out
}

/// Append a complete request frame to `out`, leaving what `out` already
/// holds untouched — a pipelining client encodes a whole batch into one
/// reusable buffer and hands it to one `write`.
pub fn encode_request_into(out: &mut Vec<u8>, request_id: u32, request: &Request) {
    let start = begin_frame(out, request_id);
    let kind = match request {
        Request::Execute { sql } => {
            scodec::put_string(out, sql);
            req::EXECUTE
        }
        Request::Prepare { stmt, sql } => {
            out.put_u32_le(*stmt);
            scodec::put_string(out, sql);
            req::PREPARE
        }
        Request::Bind {
            stmt,
            bound,
            params,
        } => {
            out.put_u32_le(*stmt);
            out.put_u32_le(*bound);
            out.put_u32_le(params.len() as u32);
            for v in params {
                scodec::put_value(out, v);
            }
            req::BIND
        }
        Request::Run { bound } => {
            out.put_u32_le(*bound);
            req::RUN
        }
        Request::Replicate {
            replica_id,
            from_offset,
        } => {
            scodec::put_string(out, replica_id);
            out.put_u64_le(*from_offset);
            req::REPLICATE
        }
        Request::ReplAck {
            replica_id,
            applied_offset,
            horizon,
        } => {
            scodec::put_string(out, replica_id);
            out.put_u64_le(*applied_offset);
            out.put_u64_le(*horizon);
            req::REPL_ACK
        }
    };
    end_frame(out, start, kind);
}

/// [`encode_request_into`] for a [`Request::Execute`] whose text the
/// caller only borrows (no `String` is built per statement).
pub fn encode_execute_into(out: &mut Vec<u8>, request_id: u32, sql: &str) {
    let start = begin_frame(out, request_id);
    scodec::put_string(out, sql);
    end_frame(out, start, req::EXECUTE);
}

/// Decode a request frame body.
pub fn decode_request(frame: &Frame) -> Result<Request> {
    let buf = &mut frame.body.as_slice();
    let request = match frame.kind {
        req::EXECUTE => Request::Execute {
            sql: scodec::get_string(buf)?,
        },
        req::PREPARE => {
            need(buf, 4, "stmt id")?;
            Request::Prepare {
                stmt: buf.get_u32_le(),
                sql: scodec::get_string(buf)?,
            }
        }
        req::BIND => {
            need(buf, 8, "bind ids")?;
            let stmt = buf.get_u32_le();
            let bound = buf.get_u32_le();
            let n = get_count(buf, "param count")?;
            let mut params = Vec::with_capacity(n);
            for _ in 0..n {
                params.push(scodec::get_value(buf)?);
            }
            Request::Bind {
                stmt,
                bound,
                params,
            }
        }
        req::RUN => {
            need(buf, 4, "bound id")?;
            Request::Run {
                bound: buf.get_u32_le(),
            }
        }
        req::REPLICATE => {
            let replica_id = scodec::get_string(buf)?;
            need(buf, 8, "replication offset")?;
            Request::Replicate {
                replica_id,
                from_offset: buf.get_u64_le(),
            }
        }
        req::REPL_ACK => {
            let replica_id = scodec::get_string(buf)?;
            need(buf, 16, "replication ack")?;
            Request::ReplAck {
                replica_id,
                applied_offset: buf.get_u64_le(),
                horizon: buf.get_u64_le(),
            }
        }
        k => return Err(WireError(format!("unknown request kind 0x{k:02x}"))),
    };
    expect_drained(buf)?;
    Ok(request)
}

// -- Replies -----------------------------------------------------------------

/// Serving-process counters attached to every `SHOW METRICS` response (the
/// engine's own [`Metrics`] travel alongside). Maintained by `qdb-server`;
/// defined here so both ends agree on the encoding.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections accepted since the server started.
    pub connections: u64,
    /// Request frames successfully decoded.
    pub frames_decoded: u64,
    /// Payload bytes read off the network.
    pub bytes_in: u64,
    /// Payload bytes written to the network.
    pub bytes_out: u64,
    /// Connections currently open (gauge).
    pub conns_open: u64,
    /// Highest number of simultaneously open connections observed.
    pub conns_peak: u64,
    /// Connections accepted then immediately closed because the server
    /// was at its `max_connections` admission limit.
    pub conns_refused: u64,
    /// Connections reaped by the idle-timeout wheel.
    pub conns_idle_closed: u64,
    /// Times an executor stopped draining a connection because its
    /// outbox hit the backpressure limit.
    pub outbox_full_stalls: u64,
    /// Statements executed, counted per statement class
    /// ([`qdb_logic::Statement::kind`]), sorted by class name.
    pub statement_classes: Vec<(String, u64)>,
}

impl ServerStats {
    /// Count for one statement class, if any executed.
    pub fn class(&self, kind: &str) -> Option<u64> {
        self.statement_classes
            .iter()
            .find(|(k, _)| k == kind)
            .map(|(_, n)| *n)
    }

    /// Total statements executed across all classes.
    pub fn statements_total(&self) -> u64 {
        self.statement_classes.iter().map(|(_, n)| n).sum()
    }
}

impl std::fmt::Display for ServerStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "connections={} (open={} peak={} refused={} idle_closed={}) \
             frames={} bytes(in/out)={}/{} stalls={} statements={}",
            self.connections,
            self.conns_open,
            self.conns_peak,
            self.conns_refused,
            self.conns_idle_closed,
            self.frames_decoded,
            self.bytes_in,
            self.bytes_out,
            self.outbox_full_stalls,
            self.statements_total(),
        )
    }
}

/// A decoded response frame body.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// Any [`Response`] except `Metrics` (which travels as [`Reply::Stats`]).
    Engine(Response),
    /// `SHOW METRICS`: engine metrics plus the serving process's counters.
    Stats {
        /// Engine metrics snapshot.
        engine: Box<Metrics>,
        /// Server-side counters.
        server: ServerStats,
        /// Latency histogram summaries, when the server attaches them.
        /// Encoded *after* the server stats, so old decoders that stop at
        /// the stats and new decoders reading an old frame (nothing left
        /// in the buffer → `None`) both keep working.
        profile: Option<Box<qdb_obs::ProfileReport>>,
    },
    /// PREPARE succeeded.
    Prepared {
        /// Echo of the client-chosen statement id.
        stmt: u32,
        /// Number of positional `?` placeholders.
        params: u32,
    },
    /// BIND succeeded.
    Bound {
        /// Echo of the client-chosen bound id.
        bound: u32,
    },
    /// One chunk of primary WAL bytes (answers a [`Request::Replicate`]).
    /// Empty `bytes` means the replica is caught up at `primary_wal_len`.
    WalSegment {
        /// Byte offset these bytes start at (echo of the poll's
        /// `from_offset`, clamped to the WAL length).
        start_offset: u64,
        /// Total primary WAL length — `primary_wal_len − applied bytes`
        /// is the replica's lag.
        primary_wal_len: u64,
        /// Highest transaction id the primary has assigned.
        last_txn_id: u64,
        /// Raw WAL bytes. May start or end mid-frame: the replica buffers
        /// partial frames and advances by what fully replays.
        bytes: Vec<u8>,
    },
    /// The request failed.
    Error {
        /// Stable [error code](code).
        code: u8,
        /// Human-readable message.
        message: String,
    },
}

/// Encode a complete response frame (including the length prefix).
///
/// [`Response::Metrics`] passed through [`Reply::Engine`] is encoded with
/// default (all-zero) server stats; servers should use [`Reply::Stats`].
pub fn encode_reply(request_id: u32, reply: &Reply) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    encode_reply_into(&mut out, request_id, reply);
    out
}

/// Append a complete response frame to `out` (see [`encode_reply`]),
/// leaving what `out` already holds untouched.
pub fn encode_reply_into(out: &mut Vec<u8>, request_id: u32, reply: &Reply) {
    let start = begin_frame(out, request_id);
    let kind = match reply {
        Reply::Engine(Response::Metrics(m)) => {
            put_metrics(out, m);
            put_server_stats(out, &ServerStats::default());
            resp::METRICS
        }
        Reply::Engine(r) => put_response(out, r),
        Reply::Stats {
            engine,
            server,
            profile,
        } => {
            put_metrics(out, engine);
            put_server_stats(out, server);
            if let Some(p) = profile {
                put_profile(out, p);
            }
            resp::METRICS
        }
        Reply::Prepared { stmt, params } => {
            out.put_u32_le(*stmt);
            out.put_u32_le(*params);
            resp::PREPARED
        }
        Reply::Bound { bound } => {
            out.put_u32_le(*bound);
            resp::BOUND
        }
        Reply::WalSegment {
            start_offset,
            primary_wal_len,
            last_txn_id,
            bytes,
        } => {
            out.put_u64_le(*start_offset);
            out.put_u64_le(*primary_wal_len);
            out.put_u64_le(*last_txn_id);
            out.put_u32_le(bytes.len() as u32);
            out.put_slice(bytes);
            resp::WAL_SEGMENT
        }
        Reply::Error { code, message } => {
            out.put_u8(*code);
            scodec::put_string(out, message);
            resp::ERROR
        }
    };
    end_frame(out, start, kind);
}

fn put_response(body: &mut Vec<u8>, r: &Response) -> u8 {
    match r {
        Response::Rows(rows) => {
            put_valuations(body, rows);
            resp::ROWS
        }
        Response::Worlds(worlds) => {
            body.put_u32_le(worlds.len() as u32);
            for rows in worlds {
                put_valuations(body, rows);
            }
            resp::WORLDS
        }
        Response::Committed(id) => {
            body.put_u64_le(*id);
            resp::COMMITTED
        }
        Response::Aborted => resp::ABORTED,
        Response::Written(ok) => {
            body.put_u8(u8::from(*ok));
            resp::WRITTEN
        }
        Response::Grounded(n) => {
            body.put_u64_le(*n as u64);
            resp::GROUNDED
        }
        Response::Pending(ids) => {
            body.put_u32_le(ids.len() as u32);
            for id in ids {
                body.put_u64_le(*id);
            }
            resp::PENDING
        }
        Response::Ack => resp::ACK,
        Response::Profile(report) => {
            put_profile(body, report);
            resp::PROFILE
        }
        Response::Events(events) => {
            put_events(body, events);
            resp::EVENTS
        }
        Response::Replication(report) => {
            put_replication(body, report);
            resp::REPLICATION
        }
        Response::Metrics(_) => unreachable!("handled by encode_reply"),
    }
}

fn put_replication(body: &mut Vec<u8>, r: &crate::repl::ReplicationReport) {
    body.put_u8(match r.role {
        crate::repl::ReplicationRole::Primary => 0,
        crate::repl::ReplicationRole::Replica => 1,
    });
    body.put_u64_le(r.wal_len);
    body.put_u64_le(r.last_txn_id);
    body.put_u32_le(r.replicas.len() as u32);
    for replica in &r.replicas {
        scodec::put_string(body, &replica.id);
        body.put_u64_le(replica.acked_offset);
        body.put_u64_le(replica.horizon);
        body.put_u64_le(replica.lag_bytes);
        body.put_u64_le(replica.segments);
    }
}

fn get_replication(buf: &mut impl Buf) -> Result<crate::repl::ReplicationReport> {
    need(buf, 17, "replication header")?;
    let role = match buf.get_u8() {
        0 => crate::repl::ReplicationRole::Primary,
        1 => crate::repl::ReplicationRole::Replica,
        r => return Err(WireError(format!("unknown replication role {r}"))),
    };
    let wal_len = buf.get_u64_le();
    let last_txn_id = buf.get_u64_le();
    let n = get_count(buf, "replica count")?;
    let mut replicas = Vec::with_capacity(n);
    for _ in 0..n {
        let id = scodec::get_string(buf)?;
        need(buf, 32, "replica status")?;
        replicas.push(crate::repl::ReplicaStatus {
            id,
            acked_offset: buf.get_u64_le(),
            horizon: buf.get_u64_le(),
            lag_bytes: buf.get_u64_le(),
            segments: buf.get_u64_le(),
        });
    }
    Ok(crate::repl::ReplicationReport {
        role,
        wal_len,
        last_txn_id,
        replicas,
    })
}

/// Encode a response frame, enforcing the limits the decoder will apply:
/// a reply whose frame would exceed [`MAX_FRAME`] (or whose element
/// counts exceed [`MAX_COUNT`]) is replaced by a protocol `ERROR` frame,
/// so an oversized result degrades into a typed error instead of a
/// transport failure that kills the connection. Servers should use this
/// (or [`encode_reply_bounded_into`]) over [`encode_reply`].
pub fn encode_reply_bounded(request_id: u32, reply: &Reply) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    encode_reply_bounded_into(&mut out, request_id, reply);
    out
}

/// Append a bounded response frame to `out` (see [`encode_reply_bounded`]),
/// leaving what `out` already holds untouched.
pub fn encode_reply_bounded_into(out: &mut Vec<u8>, request_id: u32, reply: &Reply) {
    let too_large = |message: String| Reply::Error {
        code: code::PROTOCOL,
        message,
    };
    if let Some(what) = reply_exceeds_counts(reply) {
        let error = too_large(format!(
            "response {what} exceeds the per-frame element limit ({MAX_COUNT}); \
             narrow the query with LIMIT"
        ));
        return encode_reply_into(out, request_id, &error);
    }
    let start = out.len();
    encode_reply_into(out, request_id, reply);
    let len = out.len() - start - 4;
    if len > MAX_FRAME {
        // Take the oversized frame back out, and with it the capacity it
        // forced on a buffer that may live as long as its connection.
        out.truncate(start);
        out.shrink_to(start + 1024);
        let error = too_large(format!(
            "response too large for one frame ({len} bytes > {MAX_FRAME}); \
             narrow the query with LIMIT"
        ));
        encode_reply_into(out, request_id, &error);
    }
}

fn reply_exceeds_counts(reply: &Reply) -> Option<&'static str> {
    match reply {
        Reply::Engine(Response::Rows(rows)) if rows.len() > MAX_COUNT => Some("row count"),
        Reply::Engine(Response::Worlds(worlds))
            if worlds.len() > MAX_COUNT || worlds.iter().any(|w| w.len() > MAX_COUNT) =>
        {
            Some("world count")
        }
        Reply::Engine(Response::Pending(ids)) if ids.len() > MAX_COUNT => Some("pending count"),
        Reply::Engine(Response::Events(events)) if events.len() > MAX_COUNT => Some("event count"),
        _ => None,
    }
}

/// Decode a response frame body.
pub fn decode_reply(frame: &Frame) -> Result<Reply> {
    let buf = &mut frame.body.as_slice();
    let reply = match frame.kind {
        resp::ROWS => Reply::Engine(Response::Rows(get_valuations(buf)?)),
        resp::WORLDS => {
            let n = get_count(buf, "world count")?;
            let mut worlds = Vec::with_capacity(n);
            for _ in 0..n {
                worlds.push(get_valuations(buf)?);
            }
            Reply::Engine(Response::Worlds(worlds))
        }
        resp::COMMITTED => {
            need(buf, 8, "txn id")?;
            Reply::Engine(Response::Committed(buf.get_u64_le() as TxnId))
        }
        resp::ABORTED => Reply::Engine(Response::Aborted),
        resp::WRITTEN => {
            need(buf, 1, "write flag")?;
            Reply::Engine(Response::Written(buf.get_u8() != 0))
        }
        resp::GROUNDED => {
            need(buf, 8, "ground count")?;
            Reply::Engine(Response::Grounded(buf.get_u64_le() as usize))
        }
        resp::METRICS => {
            let engine = Box::new(get_metrics(buf)?);
            let server = get_server_stats(buf)?;
            // The profile section is optional: a frame from a server that
            // does not attach one simply ends here.
            let profile = if buf.remaining() > 0 {
                Some(Box::new(get_profile(buf)?))
            } else {
                None
            };
            Reply::Stats {
                engine,
                server,
                profile,
            }
        }
        resp::PENDING => {
            let n = get_count(buf, "pending count")?;
            let mut ids = Vec::with_capacity(n);
            for _ in 0..n {
                need(buf, 8, "pending id")?;
                ids.push(buf.get_u64_le() as TxnId);
            }
            Reply::Engine(Response::Pending(ids))
        }
        resp::ACK => Reply::Engine(Response::Ack),
        resp::PROFILE => Reply::Engine(Response::Profile(Box::new(get_profile(buf)?))),
        resp::EVENTS => Reply::Engine(Response::Events(get_events(buf)?)),
        resp::REPLICATION => Reply::Engine(Response::Replication(Box::new(get_replication(buf)?))),
        resp::WAL_SEGMENT => {
            need(buf, 24, "segment header")?;
            let start_offset = buf.get_u64_le();
            let primary_wal_len = buf.get_u64_le();
            let last_txn_id = buf.get_u64_le();
            need(buf, 4, "segment length")?;
            let len = buf.get_u32_le() as usize;
            if len > MAX_FRAME {
                return Err(WireError(format!("implausible segment length {len}")));
            }
            need(buf, len, "segment bytes")?;
            let mut bytes = vec![0u8; len];
            buf.copy_to_slice(&mut bytes);
            Reply::WalSegment {
                start_offset,
                primary_wal_len,
                last_txn_id,
                bytes,
            }
        }
        resp::PREPARED => {
            need(buf, 8, "prepared ids")?;
            Reply::Prepared {
                stmt: buf.get_u32_le(),
                params: buf.get_u32_le(),
            }
        }
        resp::BOUND => {
            need(buf, 4, "bound id")?;
            Reply::Bound {
                bound: buf.get_u32_le(),
            }
        }
        resp::ERROR => {
            need(buf, 1, "error code")?;
            Reply::Error {
                code: buf.get_u8(),
                message: scodec::get_string(buf)?,
            }
        }
        k => return Err(WireError(format!("unknown response kind 0x{k:02x}"))),
    };
    expect_drained(buf)?;
    Ok(reply)
}

// -- Valuations and metrics --------------------------------------------------

fn put_valuations(body: &mut Vec<u8>, rows: &[Valuation]) {
    body.put_u32_le(rows.len() as u32);
    for row in rows {
        body.put_u32_le(row.len() as u32);
        for (var, value) in row.iter() {
            body.put_u32_le(var.id());
            scodec::put_string(body, var.name());
            scodec::put_value(body, value);
        }
    }
}

fn get_valuations(buf: &mut impl Buf) -> Result<Vec<Valuation>> {
    let n = get_count(buf, "row count")?;
    let mut rows = Vec::with_capacity(n);
    for _ in 0..n {
        let bindings = get_count(buf, "binding count")?;
        let mut row = Valuation::new();
        for _ in 0..bindings {
            need(buf, 4, "var id")?;
            let id = buf.get_u32_le();
            let name = scodec::get_string(buf)?;
            let value = scodec::get_value(buf)?;
            row.bind(Var::new(id, name), value);
        }
        rows.push(row);
    }
    Ok(rows)
}

/// The metrics counters as u64s, in the order `crate::metrics` declares
/// them.
fn put_metrics(body: &mut Vec<u8>, m: &Metrics) {
    for counter in m.counters() {
        body.put_u64_le(counter);
    }
}

fn get_metrics(buf: &mut impl Buf) -> Result<Metrics> {
    let mut m = Metrics::default();
    for counter in m.counters_mut() {
        need(buf, 8, "metrics field")?;
        *counter = buf.get_u64_le();
    }
    Ok(m)
}

// -- Profiles and events -----------------------------------------------------

fn put_summary(body: &mut Vec<u8>, s: &qdb_obs::HistSummary) {
    body.put_u64_le(s.count);
    body.put_u64_le(s.p50_ns);
    body.put_u64_le(s.p90_ns);
    body.put_u64_le(s.p99_ns);
    body.put_u64_le(s.p999_ns);
    body.put_u64_le(s.max_ns);
}

fn get_summary(buf: &mut impl Buf) -> Result<qdb_obs::HistSummary> {
    need(buf, 48, "histogram summary")?;
    Ok(qdb_obs::HistSummary {
        count: buf.get_u64_le(),
        p50_ns: buf.get_u64_le(),
        p90_ns: buf.get_u64_le(),
        p99_ns: buf.get_u64_le(),
        p999_ns: buf.get_u64_le(),
        max_ns: buf.get_u64_le(),
    })
}

fn put_summaries(body: &mut Vec<u8>, entries: &[(String, qdb_obs::HistSummary)]) {
    body.put_u32_le(entries.len() as u32);
    for (name, summary) in entries {
        scodec::put_string(body, name);
        put_summary(body, summary);
    }
}

fn get_summaries(buf: &mut impl Buf, what: &str) -> Result<Vec<(String, qdb_obs::HistSummary)>> {
    let n = get_count(buf, what)?;
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        let name = scodec::get_string(buf)?;
        entries.push((name, get_summary(buf)?));
    }
    Ok(entries)
}

fn put_profile(body: &mut Vec<u8>, report: &qdb_obs::ProfileReport) {
    put_summaries(body, &report.classes);
    put_summaries(body, &report.phases);
}

fn get_profile(buf: &mut impl Buf) -> Result<qdb_obs::ProfileReport> {
    Ok(qdb_obs::ProfileReport {
        classes: get_summaries(buf, "profile class count")?,
        phases: get_summaries(buf, "profile phase count")?,
    })
}

fn put_events(body: &mut Vec<u8>, events: &[qdb_obs::SpanEvent]) {
    body.put_u32_le(events.len() as u32);
    for e in events {
        body.put_u64_le(e.ts_ns);
        body.put_u64_le(e.txn_id);
        body.put_u64_le(e.partition_id);
        body.put_u8(e.kind);
        body.put_u8(e.outcome as u8);
        body.put_u64_le(e.dur_ns);
    }
}

fn get_events(buf: &mut impl Buf) -> Result<Vec<qdb_obs::SpanEvent>> {
    let n = get_count(buf, "event count")?;
    let mut events = Vec::with_capacity(n);
    for _ in 0..n {
        need(buf, 34, "span event")?;
        events.push(qdb_obs::SpanEvent {
            ts_ns: buf.get_u64_le(),
            txn_id: buf.get_u64_le(),
            partition_id: buf.get_u64_le(),
            kind: buf.get_u8(),
            outcome: qdb_obs::Outcome::from_u8(buf.get_u8()),
            dur_ns: buf.get_u64_le(),
        });
    }
    Ok(events)
}

fn put_server_stats(body: &mut Vec<u8>, s: &ServerStats) {
    body.put_u64_le(s.connections);
    body.put_u64_le(s.frames_decoded);
    body.put_u64_le(s.bytes_in);
    body.put_u64_le(s.bytes_out);
    body.put_u64_le(s.conns_open);
    body.put_u64_le(s.conns_peak);
    body.put_u64_le(s.conns_refused);
    body.put_u64_le(s.conns_idle_closed);
    body.put_u64_le(s.outbox_full_stalls);
    body.put_u32_le(s.statement_classes.len() as u32);
    for (class, count) in &s.statement_classes {
        scodec::put_string(body, class);
        body.put_u64_le(*count);
    }
}

fn get_server_stats(buf: &mut impl Buf) -> Result<ServerStats> {
    need(buf, 72, "server stats")?;
    let mut s = ServerStats {
        connections: buf.get_u64_le(),
        frames_decoded: buf.get_u64_le(),
        bytes_in: buf.get_u64_le(),
        bytes_out: buf.get_u64_le(),
        conns_open: buf.get_u64_le(),
        conns_peak: buf.get_u64_le(),
        conns_refused: buf.get_u64_le(),
        conns_idle_closed: buf.get_u64_le(),
        outbox_full_stalls: buf.get_u64_le(),
        statement_classes: Vec::new(),
    };
    let n = get_count(buf, "class count")?;
    for _ in 0..n {
        let class = scodec::get_string(buf)?;
        need(buf, 8, "class count value")?;
        s.statement_classes.push((class, buf.get_u64_le()));
    }
    Ok(s)
}

// -- Framing -----------------------------------------------------------------

/// One raw frame off the wire: kind, correlation id, and undecoded body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Frame kind byte (a [`req`] or [`resp`] constant).
    pub kind: u8,
    /// Client-chosen correlation id, echoed by the server.
    pub request_id: u32,
    /// Undecoded frame body.
    pub body: Vec<u8>,
}

impl Frame {
    /// Total bytes this frame occupies on the wire (length prefix
    /// included) — what the traffic counters account.
    pub fn wire_len(&self) -> u64 {
        4 + 1 + 4 + self.body.len() as u64
    }
}

/// Start a frame at the end of `out`: the length prefix and kind byte are
/// placeholders until [`end_frame`] patches them, so the body is written
/// straight into its final place. Returns the frame's start offset.
fn begin_frame(out: &mut Vec<u8>, request_id: u32) -> usize {
    let start = out.len();
    out.put_slice(&[0; 5]);
    out.put_u32_le(request_id);
    start
}

fn end_frame(out: &mut [u8], start: usize, kind: u8) {
    let len = (out.len() - start - 4) as u32;
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
    out[start + 4] = kind;
}

fn expect_drained(buf: &impl Buf) -> Result<()> {
    if buf.remaining() != 0 {
        return Err(WireError(format!(
            "{} trailing bytes after frame body",
            buf.remaining()
        )));
    }
    Ok(())
}

/// Read one frame off a stream. Returns `Ok(None)` on a clean end of
/// stream (the peer closed between frames); a close mid-frame is an error.
pub fn read_frame(r: &mut impl std::io::Read) -> std::io::Result<Option<Frame>> {
    use std::io::{Error, ErrorKind};

    // Header first (a frame is never shorter than it), then exactly the
    // body, read into the buffer the frame keeps.
    let mut header = [0u8; 9];
    let mut filled = 0;
    while filled < header.len() {
        match r.read(&mut header[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(Error::new(
                    ErrorKind::UnexpectedEof,
                    "connection closed mid-frame",
                ))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]) as usize;
    if !(5..=MAX_FRAME).contains(&len) {
        return Err(Error::new(
            ErrorKind::InvalidData,
            format!("invalid frame length {len}"),
        ));
    }
    let mut body = vec![0u8; len - 5];
    r.read_exact(&mut body)?;
    Ok(Some(Frame {
        kind: header[4],
        request_id: u32::from_le_bytes([header[5], header[6], header[7], header[8]]),
        body,
    }))
}

/// Try to split one frame off the front of a read buffer.
///
/// The incremental sibling of [`read_frame`] for non-blocking readers that
/// accumulate bytes as the socket delivers them: returns `Ok(None)` while
/// the buffer holds only a partial frame, `Ok(Some((frame, consumed)))`
/// once a complete frame is available (`consumed` bytes should then be
/// drained from the front), and an error on an invalid length prefix —
/// the same bound [`read_frame`] enforces, since a reader cannot resync
/// after a corrupt length.
pub fn try_frame(buf: &[u8]) -> Result<Option<(Frame, usize)>> {
    if buf.len() < 4 {
        return Ok(None);
    }
    let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
    if !(5..=MAX_FRAME).contains(&len) {
        return Err(WireError(format!("invalid frame length {len}")));
    }
    if buf.len() < 4 + len {
        return Ok(None);
    }
    let kind = buf[4];
    let request_id = u32::from_le_bytes([buf[5], buf[6], buf[7], buf[8]]);
    Ok(Some((
        Frame {
            kind,
            request_id,
            body: buf[9..4 + len].to_vec(),
        },
        4 + len,
    )))
}

/// Parse an encoded frame back out of a byte buffer (test and loopback
/// helper; network paths use [`read_frame`]).
pub fn parse_frame(bytes: &[u8]) -> Result<Frame> {
    let mut cursor = bytes;
    match read_frame(&mut cursor) {
        Ok(Some(f)) if cursor.is_empty() => Ok(f),
        Ok(Some(_)) => Err(WireError("trailing bytes after frame".into())),
        Ok(None) => Err(WireError("empty buffer".into())),
        Err(e) => Err(WireError(e.to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(request: &Request) {
        let bytes = encode_request(7, request);
        let frame = parse_frame(&bytes).unwrap();
        assert_eq!(frame.request_id, 7);
        assert_eq!(frame.wire_len(), bytes.len() as u64);
        assert_eq!(&decode_request(&frame).unwrap(), request);
    }

    fn roundtrip_reply(reply: &Reply) {
        let bytes = encode_reply(41, reply);
        let frame = parse_frame(&bytes).unwrap();
        assert_eq!(frame.request_id, 41);
        assert_eq!(&decode_reply(&frame).unwrap(), reply);
    }

    fn sample_valuation() -> Valuation {
        let mut v = Valuation::new();
        v.bind(Var::new(3, "s"), Value::from("5A"));
        v.bind(Var::new(9, "f"), Value::from(123));
        v.bind(Var::new(11, "ok"), Value::from(true));
        v
    }

    fn sample_profile() -> qdb_obs::ProfileReport {
        let summary = |count: u64| qdb_obs::HistSummary {
            count,
            p50_ns: 1_000,
            p90_ns: 8_000,
            p99_ns: 64_000,
            p999_ns: 512_000,
            max_ns: 700_001,
        };
        qdb_obs::ProfileReport {
            classes: vec![
                ("INSERT".into(), summary(40)),
                ("SELECT".into(), summary(7)),
            ],
            phases: vec![("plan".into(), summary(40)), ("solve".into(), summary(39))],
        }
    }

    fn sample_replication() -> crate::repl::ReplicationReport {
        crate::repl::ReplicationReport {
            role: crate::repl::ReplicationRole::Primary,
            wal_len: 9000,
            last_txn_id: 17,
            replicas: vec![
                crate::repl::ReplicaStatus {
                    id: "replica-1".into(),
                    acked_offset: 8192,
                    horizon: 15,
                    lag_bytes: 808,
                    segments: 4,
                },
                crate::repl::ReplicaStatus {
                    id: "replica-2".into(),
                    acked_offset: 9000,
                    horizon: 17,
                    lag_bytes: 0,
                    segments: 6,
                },
            ],
        }
    }

    fn sample_events() -> Vec<qdb_obs::SpanEvent> {
        vec![
            qdb_obs::SpanEvent {
                ts_ns: 123,
                txn_id: 9,
                partition_id: 2,
                kind: qdb_obs::Phase::Solve as u8,
                outcome: qdb_obs::Outcome::Ok,
                dur_ns: 4_500,
            },
            qdb_obs::SpanEvent {
                ts_ns: 456,
                txn_id: qdb_obs::SpanEvent::NONE,
                partition_id: qdb_obs::SpanEvent::NONE,
                kind: qdb_obs::stmt_code("SELECT"),
                outcome: qdb_obs::Outcome::Error,
                dur_ns: 77,
            },
        ]
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_request(&Request::Execute {
            sql: "SHOW METRICS".into(),
        });
        roundtrip_request(&Request::Prepare {
            stmt: 5,
            sql: "SELECT * FROM R(?, @x)".into(),
        });
        roundtrip_request(&Request::Bind {
            stmt: 5,
            bound: 8,
            params: vec![Value::from(1), Value::from("a"), Value::from(false)],
        });
        roundtrip_request(&Request::Run { bound: 8 });
        roundtrip_request(&Request::Replicate {
            replica_id: "replica-1".into(),
            from_offset: 8192,
        });
        roundtrip_request(&Request::ReplAck {
            replica_id: "replica-1".into(),
            applied_offset: 8192,
            horizon: 41,
        });
    }

    #[test]
    fn every_reply_variant_roundtrips() {
        roundtrip_reply(&Reply::Engine(Response::Rows(vec![
            sample_valuation(),
            Valuation::new(),
        ])));
        roundtrip_reply(&Reply::Engine(Response::Worlds(vec![
            vec![sample_valuation()],
            vec![],
        ])));
        roundtrip_reply(&Reply::Engine(Response::Committed(99)));
        roundtrip_reply(&Reply::Engine(Response::Aborted));
        roundtrip_reply(&Reply::Engine(Response::Written(true)));
        roundtrip_reply(&Reply::Engine(Response::Written(false)));
        roundtrip_reply(&Reply::Engine(Response::Grounded(17)));
        roundtrip_reply(&Reply::Engine(Response::Pending(vec![1, 2, 30])));
        roundtrip_reply(&Reply::Engine(Response::Ack));
        roundtrip_reply(&Reply::Engine(Response::Profile(
            Box::new(sample_profile()),
        )));
        roundtrip_reply(&Reply::Engine(Response::Profile(Box::default())));
        roundtrip_reply(&Reply::Engine(Response::Events(sample_events())));
        roundtrip_reply(&Reply::Engine(Response::Events(vec![])));
        let engine = Metrics {
            submitted: 12,
            parses: 4,
            max_pending: 6,
            reads_peek: 21,
            reads_possible: 3,
            worlds_enumerated: 44,
            world_dedup_hits: 5,
            db_clones: 1,
            solver_nodes: 77,
            solver_candidates_streamed: 91,
            solver_index_lookups: 40,
            solver_scan_lookups: 2,
            indexes_auto_created: 1,
            ..Metrics::default()
        };
        let server = ServerStats {
            connections: 3,
            frames_decoded: 120,
            bytes_in: 4096,
            bytes_out: 8192,
            conns_open: 2,
            conns_peak: 3,
            conns_refused: 1,
            conns_idle_closed: 4,
            outbox_full_stalls: 5,
            statement_classes: vec![("INSERT".into(), 10), ("SELECT".into(), 7)],
        };
        roundtrip_reply(&Reply::Stats {
            engine: Box::new(engine.clone()),
            server: server.clone(),
            profile: None,
        });
        roundtrip_reply(&Reply::Stats {
            engine: Box::new(engine),
            server,
            profile: Some(Box::new(sample_profile())),
        });
        roundtrip_reply(&Reply::Prepared { stmt: 2, params: 6 });
        roundtrip_reply(&Reply::Bound { bound: 4 });
        roundtrip_reply(&Reply::WalSegment {
            start_offset: 4096,
            primary_wal_len: 9000,
            last_txn_id: 17,
            bytes: vec![1, 2, 3, 4, 5],
        });
        roundtrip_reply(&Reply::WalSegment {
            start_offset: 9000,
            primary_wal_len: 9000,
            last_txn_id: 17,
            bytes: vec![],
        });
        roundtrip_reply(&Reply::Engine(Response::Replication(Box::new(
            sample_replication(),
        ))));
        roundtrip_reply(&Reply::Engine(Response::Replication(Box::new(
            crate::repl::ReplicationReport {
                role: crate::repl::ReplicationRole::Replica,
                wal_len: 12,
                last_txn_id: 0,
                replicas: vec![],
            },
        ))));
        roundtrip_reply(&Reply::Error {
            code: code::LOGIC,
            message: "parse error at byte 0: nope".into(),
        });
    }

    /// The METRICS frame layout, pinned: counter `k` in wire order travels
    /// as the little-endian u64 at body offset `8·k`, followed by the
    /// server stats (nine u64s and an empty class list when defaulted).
    #[test]
    #[allow(clippy::needless_update)] // stays valid whatever else `Metrics` holds
    fn metrics_frame_layout_is_pinned() {
        let m = Metrics {
            submitted: 1,
            committed: 2,
            aborted: 3,
            reads: 4,
            reads_peek: 5,
            reads_possible: 6,
            worlds_enumerated: 7,
            world_dedup_hits: 8,
            db_clones: 9,
            writes_applied: 10,
            writes_rejected: 11,
            grounded_by_read: 12,
            grounded_by_k: 13,
            grounded_by_partner: 14,
            grounded_explicit: 15,
            cache_extensions: 16,
            cache_extra_hits: 17,
            cache_full_resolves: 18,
            overlay_rebuilds: 19,
            ground_joint_resolves: 20,
            partition_merges: 21,
            parses: 22,
            max_pending: 23,
            optionals_satisfied: 24,
            optionals_total: 25,
            solver_nodes: 26,
            solver_candidates_streamed: 27,
            solver_index_lookups: 28,
            solver_scan_lookups: 29,
            solver_candidate_vecs: 30,
            indexes_auto_created: 31,
            ..Metrics::default()
        };
        let bytes = encode_reply(5, &Reply::Engine(Response::Metrics(Box::new(m))));
        assert_eq!(bytes.len(), 4 + 1 + 4 + 31 * 8 + 9 * 8 + 4);
        assert_eq!(bytes[4], resp::METRICS);
        let body = &bytes[9..];
        for k in 0..31 {
            let word = u64::from_le_bytes(body[8 * k..8 * k + 8].try_into().unwrap());
            assert_eq!(word, k as u64 + 1, "counter {k}");
        }
        assert!(
            body[31 * 8..].iter().all(|&b| b == 0),
            "default server stats"
        );
    }

    #[test]
    fn engine_metrics_reply_defaults_server_stats() {
        let bytes = encode_reply(0, &Reply::Engine(Response::Metrics(Box::default())));
        let frame = parse_frame(&bytes).unwrap();
        let Reply::Stats { server, .. } = decode_reply(&frame).unwrap() else {
            panic!("metrics must decode as Stats");
        };
        assert_eq!(server, ServerStats::default());
    }

    #[test]
    fn bounded_encoder_degrades_oversized_replies_into_typed_errors() {
        // Element-count breach: decoding the raw encode would fail with
        // "implausible pending count"; the bounded encoder turns it into
        // an ERROR frame the client can surface.
        let huge = Reply::Engine(Response::Pending(vec![0; MAX_COUNT + 1]));
        let frame = parse_frame(&encode_reply_bounded(3, &huge)).unwrap();
        let Reply::Error { code, message } = decode_reply(&frame).unwrap() else {
            panic!("oversized reply must degrade into an error");
        };
        assert_eq!(code, code::PROTOCOL);
        assert!(message.contains("LIMIT"), "{message}");
        // Byte-size breach: a single row holding a string that alone
        // exceeds the frame cap.
        let mut fat = Valuation::new();
        fat.bind(Var::new(0, "x"), Value::from("y".repeat(MAX_FRAME)));
        let frame = parse_frame(&encode_reply_bounded(
            4,
            &Reply::Engine(Response::Rows(vec![fat])),
        ))
        .unwrap();
        assert!(matches!(
            decode_reply(&frame).unwrap(),
            Reply::Error {
                code: code::PROTOCOL,
                ..
            }
        ));
        // In-bounds replies pass through unchanged.
        let ok = Reply::Engine(Response::Ack);
        assert_eq!(encode_reply_bounded(5, &ok), encode_reply(5, &ok));
    }

    /// Tiny deterministic generator for the append-encoder property test
    /// (xorshift64*; the sequence only has to be varied and repeatable).
    struct Gen(u64);

    impl Gen {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn text(&mut self) -> String {
            let len = self.below(40);
            (0..len)
                .map(|_| char::from(b' ' + self.below(95) as u8))
                .collect()
        }

        fn value(&mut self) -> Value {
            match self.below(3) {
                0 => Value::from(self.next() as i64),
                1 => Value::from(self.text()),
                _ => Value::from(self.below(2) == 0),
            }
        }

        fn rows(&mut self) -> Vec<Valuation> {
            (0..self.below(4))
                .map(|_| {
                    let mut row = Valuation::new();
                    for _ in 0..self.below(4) {
                        row.bind(Var::new(self.below(50) as u32, self.text()), self.value());
                    }
                    row
                })
                .collect()
        }

        fn request(&mut self) -> Request {
            match self.below(6) {
                0 => Request::Execute { sql: self.text() },
                1 => Request::Prepare {
                    stmt: self.next() as u32,
                    sql: self.text(),
                },
                2 => Request::Bind {
                    stmt: self.next() as u32,
                    bound: self.next() as u32,
                    params: (0..self.below(5)).map(|_| self.value()).collect(),
                },
                3 => Request::Run {
                    bound: self.next() as u32,
                },
                4 => Request::Replicate {
                    replica_id: self.text(),
                    from_offset: self.next(),
                },
                _ => Request::ReplAck {
                    replica_id: self.text(),
                    applied_offset: self.next(),
                    horizon: self.next(),
                },
            }
        }

        fn reply(&mut self) -> Reply {
            let server = ServerStats {
                connections: self.next(),
                bytes_out: self.next(),
                statement_classes: (0..self.below(3))
                    .map(|_| (self.text(), self.next()))
                    .collect(),
                ..ServerStats::default()
            };
            let engine = Box::new(Metrics {
                submitted: self.next(),
                parses: self.next(),
                ..Metrics::default()
            });
            match self.below(17) {
                0 => Reply::Engine(Response::Rows(self.rows())),
                1 => Reply::Engine(Response::Worlds(
                    (0..self.below(3)).map(|_| self.rows()).collect(),
                )),
                2 => Reply::Engine(Response::Committed(self.next())),
                3 => Reply::Engine(Response::Aborted),
                4 => Reply::Engine(Response::Written(self.below(2) == 0)),
                5 => Reply::Engine(Response::Grounded(self.below(1000))),
                6 => Reply::Engine(Response::Pending(
                    (0..self.below(6)).map(|_| self.next()).collect(),
                )),
                7 => Reply::Engine(Response::Ack),
                8 => Reply::Engine(Response::Profile(Box::new(sample_profile()))),
                9 => Reply::Engine(Response::Events(sample_events())),
                10 => Reply::Engine(Response::Replication(Box::new(sample_replication()))),
                11 => Reply::Stats {
                    engine,
                    server,
                    profile: (self.below(2) == 0).then(|| Box::new(sample_profile())),
                },
                12 => Reply::Prepared {
                    stmt: self.next() as u32,
                    params: self.next() as u32,
                },
                13 => Reply::Bound {
                    bound: self.next() as u32,
                },
                14 => Reply::WalSegment {
                    start_offset: self.next(),
                    primary_wal_len: self.next(),
                    last_txn_id: self.next(),
                    bytes: (0..self.below(64)).map(|_| self.next() as u8).collect(),
                },
                // Travels as `Stats` with default server counters, so it
                // does not decode back to itself; bytes are still compared.
                15 => Reply::Engine(Response::Metrics(engine)),
                _ => Reply::Error {
                    code: self.below(10) as u8,
                    message: self.text(),
                },
            }
        }
    }

    /// `encode(out)` appended to a non-empty buffer must leave the prefix
    /// alone and add exactly `standalone` (the back-patched length and
    /// kind land in the new frame, not at the buffer's start).
    fn assert_appends(gen: &mut Gen, standalone: &[u8], encode: impl Fn(&mut Vec<u8>)) {
        let prefix: Vec<u8> = (0..1 + gen.below(48)).map(|_| gen.next() as u8).collect();
        let mut out = prefix.clone();
        encode(&mut out);
        assert_eq!(&out[..prefix.len()], prefix.as_slice(), "prefix clobbered");
        assert_eq!(&out[prefix.len()..], standalone, "appended frame differs");
    }

    #[test]
    fn append_encoders_agree_with_the_standalone_ones_for_every_variant() {
        let mut gen = Gen(0x9e37_79b9_7f4a_7c15);
        for _ in 0..600 {
            let id = gen.next() as u32;
            let request = gen.request();
            let bytes = encode_request(id, &request);
            let frame = parse_frame(&bytes).unwrap();
            assert_eq!(frame.request_id, id);
            assert_eq!(decode_request(&frame).unwrap(), request);
            assert_appends(&mut gen, &bytes, |out| {
                encode_request_into(out, id, &request)
            });
            if let Request::Execute { sql } = &request {
                assert_appends(&mut gen, &bytes, |out| encode_execute_into(out, id, sql));
            }

            let reply = gen.reply();
            let bytes = encode_reply(id, &reply);
            let frame = parse_frame(&bytes).unwrap();
            assert_eq!(frame.request_id, id);
            if !matches!(reply, Reply::Engine(Response::Metrics(_))) {
                assert_eq!(decode_reply(&frame).unwrap(), reply);
            }
            assert_eq!(encode_reply_bounded(id, &reply), bytes, "in bounds");
            assert_appends(&mut gen, &bytes, |out| encode_reply_into(out, id, &reply));
            assert_appends(&mut gen, &bytes, |out| {
                encode_reply_bounded_into(out, id, &reply)
            });
        }
    }

    #[test]
    fn bounded_append_encoder_falls_back_in_place() {
        let mut gen = Gen(7);
        let mut fat = Valuation::new();
        fat.bind(Var::new(0, "x"), Value::from("y".repeat(MAX_FRAME)));
        for oversized in [
            Reply::Engine(Response::Pending(vec![0; MAX_COUNT + 1])),
            Reply::Engine(Response::Rows(vec![fat])),
        ] {
            let bytes = encode_reply_bounded(9, &oversized);
            let frame = parse_frame(&bytes).unwrap();
            assert!(matches!(
                decode_reply(&frame).unwrap(),
                Reply::Error {
                    code: code::PROTOCOL,
                    ..
                }
            ));
            assert_appends(&mut gen, &bytes, |out| {
                encode_reply_bounded_into(out, 9, &oversized)
            });
        }
    }

    #[test]
    fn truncation_yields_errors_not_panics() {
        let replies = [
            Reply::Engine(Response::Rows(vec![sample_valuation()])),
            Reply::Engine(Response::Profile(Box::new(sample_profile()))),
            Reply::Engine(Response::Events(sample_events())),
            Reply::Engine(Response::Replication(Box::new(sample_replication()))),
            Reply::WalSegment {
                start_offset: 1,
                primary_wal_len: 2,
                last_txn_id: 3,
                bytes: vec![7, 8, 9],
            },
        ];
        for reply in &replies {
            let bytes = encode_reply(1, reply);
            // Cut the *body* at every length while keeping the header sane.
            let frame = parse_frame(&bytes).unwrap();
            for cut in 0..frame.body.len() {
                let hurt = Frame {
                    body: frame.body[..cut].to_vec(),
                    ..frame.clone()
                };
                assert!(decode_reply(&hurt).is_err(), "cut at {cut}");
            }
        }
    }

    #[test]
    fn stats_profile_section_is_optional_on_the_wire() {
        // A frame that ends right after the server stats (what an older
        // server emits) decodes with `profile: None` — and a new frame's
        // profile section must not be mistaken for trailing garbage.
        let with = Reply::Stats {
            engine: Box::default(),
            server: ServerStats::default(),
            profile: Some(Box::new(sample_profile())),
        };
        let without = Reply::Stats {
            engine: Box::default(),
            server: ServerStats::default(),
            profile: None,
        };
        let long = encode_reply(9, &with);
        let short = encode_reply(9, &without);
        assert!(long.len() > short.len());
        let Reply::Stats { profile, .. } = decode_reply(&parse_frame(&short).unwrap()).unwrap()
        else {
            panic!("stats frame must decode as Stats");
        };
        assert_eq!(profile, None);
        let Reply::Stats { profile, .. } = decode_reply(&parse_frame(&long).unwrap()).unwrap()
        else {
            panic!("stats frame must decode as Stats");
        };
        assert_eq!(profile, Some(Box::new(sample_profile())));
        // A *truncated* profile section still errors rather than decoding.
        let frame = parse_frame(&long).unwrap();
        for cut in (short.len() - 9 + 1)..frame.body.len() {
            let hurt = Frame {
                body: frame.body[..cut].to_vec(),
                ..frame.clone()
            };
            assert!(decode_reply(&hurt).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn oversized_event_reply_degrades_into_a_typed_error() {
        let e = sample_events().remove(0);
        let huge = Reply::Engine(Response::Events(vec![e; MAX_COUNT + 1]));
        let frame = parse_frame(&encode_reply_bounded(6, &huge)).unwrap();
        assert!(matches!(
            decode_reply(&frame).unwrap(),
            Reply::Error {
                code: code::PROTOCOL,
                ..
            }
        ));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let bytes = encode_request(1, &Request::Run { bound: 2 });
        let mut frame = parse_frame(&bytes).unwrap();
        frame.body.push(0);
        assert!(decode_request(&frame).is_err());
    }

    #[test]
    fn unknown_kinds_rejected() {
        let frame = Frame {
            kind: 0x77,
            request_id: 0,
            body: vec![],
        };
        assert!(decode_request(&frame).is_err());
        assert!(decode_reply(&frame).is_err());
    }

    #[test]
    fn oversized_length_prefix_rejected() {
        let mut bytes = ((MAX_FRAME + 1) as u32).to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0; 16]);
        assert!(parse_frame(&bytes).is_err());
        // Zero / impossible lengths too.
        assert!(parse_frame(&[0, 0, 0, 0]).is_err());
    }

    #[test]
    fn mid_frame_eof_is_an_error_but_clean_eof_is_none() {
        let bytes = encode_request(1, &Request::Execute { sql: "X".into() });
        let mut cursor: &[u8] = &bytes[..bytes.len() - 1];
        assert!(read_frame(&mut cursor).is_err());
        let mut empty: &[u8] = &[];
        assert!(matches!(read_frame(&mut empty), Ok(None)));
    }

    #[test]
    fn try_frame_decodes_incrementally_byte_by_byte() {
        // Feed a concatenation of two frames one byte at a time: try_frame
        // must stay `None` until each frame completes, then agree exactly
        // with the blocking reader.
        let a = encode_request(
            7,
            &Request::Execute {
                sql: "SHOW X".into(),
            },
        );
        let b = encode_request(8, &Request::Run { bound: 3 });
        let stream: Vec<u8> = a.iter().chain(b.iter()).copied().collect();
        let mut buf = Vec::new();
        let mut decoded = Vec::new();
        for &byte in &stream {
            buf.push(byte);
            while let Some((frame, used)) = try_frame(&buf).unwrap() {
                buf.drain(..used);
                decoded.push(frame);
            }
        }
        assert!(buf.is_empty());
        assert_eq!(decoded.len(), 2);
        assert_eq!(decoded[0], parse_frame(&a).unwrap());
        assert_eq!(decoded[1], parse_frame(&b).unwrap());
    }

    #[test]
    fn try_frame_rejects_invalid_lengths_like_read_frame() {
        let mut bytes = ((MAX_FRAME + 1) as u32).to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0; 16]);
        assert!(try_frame(&bytes).is_err());
        assert!(try_frame(&[0, 0, 0, 0]).is_err());
        // A partial length prefix is just "not yet".
        assert!(matches!(try_frame(&[9, 0]), Ok(None)));
    }

    #[test]
    fn error_codes_cover_engine_errors() {
        let e = EngineError::Logic(qdb_logic::LogicError::Codec("x".into()));
        assert_eq!(code_for(&e), code::LOGIC);
        let e = EngineError::Storage(qdb_storage::StorageError::NoSuchTable("T".into()));
        assert_eq!(code_for(&e), code::STORAGE);
        assert_eq!(
            code_for(&EngineError::Invariant("x".into())),
            code::INVARIANT
        );
        assert_eq!(
            code_for(&EngineError::RecoveryUnsatisfiable { txn: 0 }),
            code::RECOVERY
        );
    }
}
