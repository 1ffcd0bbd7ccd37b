//! Frames, requests and replies: their encoders and checked decoders.

use qdb_logic::{Valuation, Var};
use qdb_storage::codec::{self as scodec, put_bytes, put_string, put_u32, put_u64, Reader};
use qdb_storage::Value;

use crate::metrics::Metrics;
use crate::response::{Response, TxnId};

/// Hard cap on a frame's payload (defensive: a corrupt or hostile length
/// prefix must not drive an allocation).
pub const MAX_FRAME: usize = 16 << 20;

/// Cap on an element count (rows, worlds, params, …) in a frame body. A
/// decoder also refuses a count the bytes left could not encode.
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
    /// The engine's `EngineError::Storage`.
    pub const STORAGE: u8 = 1;
    /// The engine's `EngineError::Logic` (parse errors, range
    /// restriction, parameter-count mismatches, …).
    pub const LOGIC: u8 = 2;
    /// The engine's `EngineError::Solver`.
    pub const SOLVER: u8 = 3;
    /// The engine's `EngineError::Invariant`.
    pub const INVARIANT: u8 = 4;
    /// The engine's `EngineError::RecoveryUnsatisfiable`.
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
            put_string(out, sql);
            req::EXECUTE
        }
        Request::Prepare { stmt, sql } => {
            put_u32(out, *stmt);
            put_string(out, sql);
            req::PREPARE
        }
        Request::Bind {
            stmt,
            bound,
            params,
        } => {
            put_u32(out, *stmt);
            put_u32(out, *bound);
            put_u32(out, params.len() as u32);
            for v in params {
                scodec::put_value(out, v);
            }
            req::BIND
        }
        Request::Run { bound } => {
            put_u32(out, *bound);
            req::RUN
        }
        Request::Replicate {
            replica_id,
            from_offset,
        } => {
            put_string(out, replica_id);
            put_u64(out, *from_offset);
            req::REPLICATE
        }
        Request::ReplAck {
            replica_id,
            applied_offset,
            horizon,
        } => {
            put_string(out, replica_id);
            put_u64(out, *applied_offset);
            put_u64(out, *horizon);
            req::REPL_ACK
        }
    };
    end_frame(out, start, kind);
}

/// [`encode_request_into`] for a [`Request::Execute`] whose text the
/// caller only borrows (no `String` is built per statement).
pub fn encode_execute_into(out: &mut Vec<u8>, request_id: u32, sql: &str) {
    let start = begin_frame(out, request_id);
    put_string(out, sql);
    end_frame(out, start, req::EXECUTE);
}

/// Decode a request frame body.
pub fn decode_request(frame: &Frame) -> Result<Request> {
    let r = &mut Reader::new(&frame.body);
    let request = match frame.kind {
        req::EXECUTE => Request::Execute {
            sql: r.str()?.to_owned(),
        },
        req::PREPARE => Request::Prepare {
            stmt: r.u32()?,
            sql: r.str()?.to_owned(),
        },
        req::BIND => {
            let stmt = r.u32()?;
            let bound = r.u32()?;
            let n = r.count(MAX_COUNT, scodec::MIN_VALUE_BYTES, "param count")?;
            let mut params = Vec::with_capacity(n);
            for _ in 0..n {
                params.push(scodec::get_value(r)?);
            }
            Request::Bind {
                stmt,
                bound,
                params,
            }
        }
        req::RUN => Request::Run { bound: r.u32()? },
        req::REPLICATE => Request::Replicate {
            replica_id: r.str()?.to_owned(),
            from_offset: r.u64()?,
        },
        req::REPL_ACK => Request::ReplAck {
            replica_id: r.str()?.to_owned(),
            applied_offset: r.u64()?,
            horizon: r.u64()?,
        },
        k => return Err(WireError(format!("unknown request kind 0x{k:02x}"))),
    };
    r.finish()?;
    Ok(request)
}

// -- Replies -----------------------------------------------------------------

crate::metrics::counters! {
    /// Serving-process counters attached to every `SHOW METRICS` response
    /// (the engine's own [`Metrics`] travel alongside). Maintained by
    /// `qdb-server` through [`AtomicServerStats`]; defined here so both ends
    /// agree on the encoding.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct ServerStats {
        /// Statements executed, counted per statement class
        /// ([`qdb_logic::Statement::kind`]), sorted by class name.
        pub statement_classes: Vec<(String, u64)>,
    }

    /// Lock-free mirror of the [`ServerStats`] counters: `qdb-server`'s
    /// executors and reactor bump its cells with one Relaxed atomic each.
    #[derive(Debug, Default)]
    pub struct AtomicServerStats {}

    /// Connections accepted since the server started.
    connections,
    /// Request frames successfully decoded.
    frames_decoded,
    /// Payload bytes read off the network.
    bytes_in,
    /// Payload bytes written to the network.
    bytes_out,
    /// Connections currently open (gauge).
    conns_open,
    /// Highest number of simultaneously open connections observed.
    conns_peak,
    /// Connections accepted then immediately closed because the server
    /// was at its `max_connections` admission limit.
    conns_refused,
    /// Connections reaped by the idle-timeout wheel.
    conns_idle_closed,
    /// Times an executor stopped draining a connection because its
    /// outbox hit the backpressure limit.
    outbox_full_stalls,
}

impl ServerStats {
    /// Count for one statement class, if any executed.
    pub fn class(&self, kind: &str) -> Option<u64> {
        self.statement_classes
            .iter()
            .find(|(k, _)| k == kind)
            .map(|(_, n)| *n)
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

/// Encode a complete response frame (including the length prefix),
/// enforcing the limits the decoder applies: a reply whose frame would
/// exceed [`MAX_FRAME`] (or whose element counts exceed [`MAX_COUNT`]) is
/// replaced by a protocol `ERROR` frame, so an oversized result degrades
/// into a typed error instead of a transport failure that kills the
/// connection.
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
    let too_large = |message: String| Reply::Error {
        code: code::PROTOCOL,
        message,
    };
    if let Some(what) = reply_exceeds_counts(reply) {
        let error = too_large(format!(
            "response {what} exceeds the per-frame element limit ({MAX_COUNT}); \
             narrow the query with LIMIT"
        ));
        return put_reply(out, request_id, &error);
    }
    let start = out.len();
    put_reply(out, request_id, reply);
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
        put_reply(out, request_id, &error);
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

/// Append `reply`'s frame with no limit applied.
fn put_reply(out: &mut Vec<u8>, request_id: u32, reply: &Reply) {
    let start = begin_frame(out, request_id);
    let kind = match reply {
        Reply::Engine(Response::Metrics(m)) => {
            put_counters(out, m.counters());
            put_server_stats(out, &ServerStats::default());
            resp::METRICS
        }
        Reply::Engine(r) => put_response(out, r),
        Reply::Stats {
            engine,
            server,
            profile,
        } => {
            put_counters(out, engine.counters());
            put_server_stats(out, server);
            if let Some(p) = profile {
                put_profile(out, p);
            }
            resp::METRICS
        }
        Reply::Prepared { stmt, params } => {
            put_u32(out, *stmt);
            put_u32(out, *params);
            resp::PREPARED
        }
        Reply::Bound { bound } => {
            put_u32(out, *bound);
            resp::BOUND
        }
        Reply::WalSegment {
            start_offset,
            primary_wal_len,
            last_txn_id,
            bytes,
        } => {
            put_u64(out, *start_offset);
            put_u64(out, *primary_wal_len);
            put_u64(out, *last_txn_id);
            put_bytes(out, bytes);
            resp::WAL_SEGMENT
        }
        Reply::Error { code, message } => {
            out.push(*code);
            put_string(out, message);
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
            put_u32(body, worlds.len() as u32);
            for rows in worlds {
                put_valuations(body, rows);
            }
            resp::WORLDS
        }
        Response::Committed(id) => {
            put_u64(body, *id);
            resp::COMMITTED
        }
        Response::Aborted => resp::ABORTED,
        Response::Written(ok) => {
            body.push(u8::from(*ok));
            resp::WRITTEN
        }
        Response::Grounded(n) => {
            put_u64(body, *n as u64);
            resp::GROUNDED
        }
        Response::Pending(ids) => {
            put_u32(body, ids.len() as u32);
            for id in ids {
                put_u64(body, *id);
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
        Response::Metrics(_) => unreachable!("handled by put_reply"),
    }
}

fn put_replication(body: &mut Vec<u8>, r: &crate::repl::ReplicationReport) {
    body.push(match r.role {
        crate::repl::ReplicationRole::Primary => 0,
        crate::repl::ReplicationRole::Replica => 1,
    });
    put_u64(body, r.wal_len);
    put_u64(body, r.last_txn_id);
    put_u32(body, r.replicas.len() as u32);
    for replica in &r.replicas {
        put_string(body, &replica.id);
        put_u64(body, replica.acked_offset);
        put_u64(body, replica.horizon);
        put_u64(body, replica.lag_bytes);
        put_u64(body, replica.segments);
    }
}

fn get_replication(r: &mut Reader) -> Result<crate::repl::ReplicationReport> {
    let role = match r.u8()? {
        0 => crate::repl::ReplicationRole::Primary,
        1 => crate::repl::ReplicationRole::Replica,
        role => return Err(WireError(format!("unknown replication role {role}"))),
    };
    let wal_len = r.u64()?;
    let last_txn_id = r.u64()?;
    // A replica's status is its id's length word and four u64s.
    let n = r.count(MAX_COUNT, 4 + 32, "replica count")?;
    let mut replicas = Vec::with_capacity(n);
    for _ in 0..n {
        replicas.push(crate::repl::ReplicaStatus {
            id: r.str()?.to_owned(),
            acked_offset: r.u64()?,
            horizon: r.u64()?,
            lag_bytes: r.u64()?,
            segments: r.u64()?,
        });
    }
    Ok(crate::repl::ReplicationReport {
        role,
        wal_len,
        last_txn_id,
        replicas,
    })
}

/// Decode a response frame body.
pub fn decode_reply(frame: &Frame) -> Result<Reply> {
    let r = &mut Reader::new(&frame.body);
    let reply = match frame.kind {
        resp::ROWS => Reply::Engine(Response::Rows(get_valuations(r)?)),
        resp::WORLDS => {
            // A world is at least its row count.
            let n = r.count(MAX_COUNT, 4, "world count")?;
            let mut worlds = Vec::with_capacity(n);
            for _ in 0..n {
                worlds.push(get_valuations(r)?);
            }
            Reply::Engine(Response::Worlds(worlds))
        }
        resp::COMMITTED => Reply::Engine(Response::Committed(r.u64()? as TxnId)),
        resp::ABORTED => Reply::Engine(Response::Aborted),
        resp::WRITTEN => Reply::Engine(Response::Written(r.u8()? != 0)),
        resp::GROUNDED => Reply::Engine(Response::Grounded(r.u64()? as usize)),
        resp::METRICS => {
            let mut engine = Box::<Metrics>::default();
            get_counters(r, engine.counters_mut())?;
            let server = get_server_stats(r)?;
            // The profile section is optional: a frame from a server that
            // does not attach one simply ends here.
            let profile = if r.is_empty() {
                None
            } else {
                Some(Box::new(get_profile(r)?))
            };
            Reply::Stats {
                engine,
                server,
                profile,
            }
        }
        resp::PENDING => {
            let n = r.count(MAX_COUNT, 8, "pending count")?;
            let mut ids = Vec::with_capacity(n);
            for _ in 0..n {
                ids.push(r.u64()? as TxnId);
            }
            Reply::Engine(Response::Pending(ids))
        }
        resp::ACK => Reply::Engine(Response::Ack),
        resp::PROFILE => Reply::Engine(Response::Profile(Box::new(get_profile(r)?))),
        resp::EVENTS => Reply::Engine(Response::Events(get_events(r)?)),
        resp::REPLICATION => Reply::Engine(Response::Replication(Box::new(get_replication(r)?))),
        resp::WAL_SEGMENT => {
            let start_offset = r.u64()?;
            let primary_wal_len = r.u64()?;
            let last_txn_id = r.u64()?;
            let len = r.u32()? as usize;
            Reply::WalSegment {
                start_offset,
                primary_wal_len,
                last_txn_id,
                bytes: r.bytes(len)?.to_vec(),
            }
        }
        resp::PREPARED => Reply::Prepared {
            stmt: r.u32()?,
            params: r.u32()?,
        },
        resp::BOUND => Reply::Bound { bound: r.u32()? },
        resp::ERROR => Reply::Error {
            code: r.u8()?,
            message: r.str()?.to_owned(),
        },
        k => return Err(WireError(format!("unknown response kind 0x{k:02x}"))),
    };
    r.finish()?;
    Ok(reply)
}

// -- Valuations and metrics --------------------------------------------------

fn put_valuations(body: &mut Vec<u8>, rows: &[Valuation]) {
    put_u32(body, rows.len() as u32);
    for row in rows {
        put_u32(body, row.len() as u32);
        for (var, value) in row.iter() {
            put_u32(body, var.id());
            put_string(body, var.name());
            scodec::put_value(body, value);
        }
    }
}

fn get_valuations(r: &mut Reader) -> Result<Vec<Valuation>> {
    // A row is at least its binding count; a binding is a var id, a name
    // length and a value.
    let n = r.count(MAX_COUNT, 4, "row count")?;
    let mut rows = Vec::with_capacity(n);
    for _ in 0..n {
        let bindings = r.count(MAX_COUNT, 8 + scodec::MIN_VALUE_BYTES, "binding count")?;
        let mut row = Valuation::new();
        for _ in 0..bindings {
            let var = Var::new(r.u32()?, r.str()?);
            row.bind(var, scodec::get_value(r)?);
        }
        rows.push(row);
    }
    Ok(rows)
}

/// A counter list as little-endian u64s, in declaration order (the
/// `counters!` lists of `crate::metrics`).
fn put_counters<const N: usize>(body: &mut Vec<u8>, counters: [u64; N]) {
    for counter in counters {
        put_u64(body, counter);
    }
}

fn get_counters<const N: usize>(r: &mut Reader, counters: [&mut u64; N]) -> Result<()> {
    for counter in counters {
        *counter = r.u64()?;
    }
    Ok(())
}

// -- Profiles and events -----------------------------------------------------

fn put_summary(body: &mut Vec<u8>, s: &qdb_obs::HistSummary) {
    put_u64(body, s.count);
    put_u64(body, s.p50_ns);
    put_u64(body, s.p90_ns);
    put_u64(body, s.p99_ns);
    put_u64(body, s.p999_ns);
    put_u64(body, s.max_ns);
}

fn get_summary(r: &mut Reader) -> Result<qdb_obs::HistSummary> {
    Ok(qdb_obs::HistSummary {
        count: r.u64()?,
        p50_ns: r.u64()?,
        p90_ns: r.u64()?,
        p99_ns: r.u64()?,
        p999_ns: r.u64()?,
        max_ns: r.u64()?,
    })
}

fn put_summaries(body: &mut Vec<u8>, entries: &[(String, qdb_obs::HistSummary)]) {
    put_u32(body, entries.len() as u32);
    for (name, summary) in entries {
        put_string(body, name);
        put_summary(body, summary);
    }
}

fn get_summaries(r: &mut Reader, what: &str) -> Result<Vec<(String, qdb_obs::HistSummary)>> {
    // An entry is its name's length word and six u64s.
    let n = r.count(MAX_COUNT, 4 + 48, what)?;
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        entries.push((r.str()?.to_owned(), get_summary(r)?));
    }
    Ok(entries)
}

fn put_profile(body: &mut Vec<u8>, report: &qdb_obs::ProfileReport) {
    put_summaries(body, &report.classes);
    put_summaries(body, &report.phases);
}

fn get_profile(r: &mut Reader) -> Result<qdb_obs::ProfileReport> {
    Ok(qdb_obs::ProfileReport {
        classes: get_summaries(r, "profile class count")?,
        phases: get_summaries(r, "profile phase count")?,
    })
}

fn put_events(body: &mut Vec<u8>, events: &[qdb_obs::SpanEvent]) {
    put_u32(body, events.len() as u32);
    for e in events {
        put_u64(body, e.ts_ns);
        put_u64(body, e.txn_id);
        put_u64(body, e.partition_id);
        body.push(e.kind);
        body.push(e.outcome as u8);
        put_u64(body, e.dur_ns);
    }
}

fn get_events(r: &mut Reader) -> Result<Vec<qdb_obs::SpanEvent>> {
    let n = r.count(MAX_COUNT, 34, "event count")?;
    let mut events = Vec::with_capacity(n);
    for _ in 0..n {
        events.push(qdb_obs::SpanEvent {
            ts_ns: r.u64()?,
            txn_id: r.u64()?,
            partition_id: r.u64()?,
            kind: r.u8()?,
            outcome: qdb_obs::Outcome::from_u8(r.u8()?),
            dur_ns: r.u64()?,
        });
    }
    Ok(events)
}

fn put_server_stats(body: &mut Vec<u8>, s: &ServerStats) {
    put_counters(body, s.counters());
    put_u32(body, s.statement_classes.len() as u32);
    for (class, count) in &s.statement_classes {
        put_string(body, class);
        put_u64(body, *count);
    }
}

fn get_server_stats(r: &mut Reader) -> Result<ServerStats> {
    let mut s = ServerStats::default();
    get_counters(r, s.counters_mut())?;
    // A class is its name's length word and a u64.
    let n = r.count(MAX_COUNT, 4 + 8, "class count")?;
    for _ in 0..n {
        s.statement_classes.push((r.str()?.to_owned(), r.u64()?));
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
    out.extend_from_slice(&[0; 5]);
    put_u32(out, request_id);
    start
}

fn end_frame(out: &mut [u8], start: usize, kind: u8) {
    let len = (out.len() - start - 4) as u32;
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
    out[start + 4] = kind;
}

/// The header at the front of `buf` — body length, kind and request id —
/// once all nine of its bytes are in, `Ok(None)` before. The length prefix
/// is range-checked as soon as its four bytes are in: a reader cannot
/// resync after a corrupt length.
fn frame_header(buf: &[u8]) -> Result<Option<(usize, u8, u32)>> {
    let Some(prefix) = buf.first_chunk::<4>() else {
        return Ok(None);
    };
    let len = u32::from_le_bytes(*prefix) as usize;
    if !(5..=MAX_FRAME).contains(&len) {
        return Err(WireError(format!("invalid frame length {len}")));
    }
    Ok(buf
        .first_chunk::<9>()
        .map(|h| (len - 5, h[4], u32::from_le_bytes([h[5], h[6], h[7], h[8]]))))
}

/// Read one frame off a stream. Returns `Ok(None)` on a clean end of
/// stream (the peer closed between frames); a close mid-frame is an error.
pub fn read_frame(r: &mut impl std::io::Read) -> std::io::Result<Option<Frame>> {
    use std::io::{Error, ErrorKind};

    // Header first (a frame is never shorter than it), then exactly the
    // body, read into the buffer the frame keeps.
    let mut header = [0u8; 9];
    let mut filled = 0;
    let (body_len, kind, request_id) = loop {
        let parsed = frame_header(&header[..filled]);
        if let Some(h) = parsed.map_err(|e| Error::new(ErrorKind::InvalidData, e.0))? {
            break h;
        }
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
    };
    let mut body = vec![0u8; body_len];
    r.read_exact(&mut body)?;
    Ok(Some(Frame {
        kind,
        request_id,
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
/// the same header check [`read_frame`] makes.
pub fn try_frame(buf: &[u8]) -> Result<Option<(Frame, usize)>> {
    let Some((body_len, kind, request_id)) = frame_header(buf)? else {
        return Ok(None);
    };
    let Some(body) = buf.get(9..9 + body_len) else {
        return Ok(None);
    };
    let frame = Frame {
        kind,
        request_id,
        body: body.to_vec(),
    };
    Ok(Some((frame, 9 + body_len)))
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
    /// server stats: nine u64s in `ServerStats` order, then the class list
    /// (all zero bytes when defaulted).
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
        let bytes = encode_reply(5, &Reply::Engine(Response::Metrics(Box::new(m.clone()))));
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

        // The server half: server counter `k` travels as the word at body
        // offset `8·(31 + k)`, then the class list (u32 count, then per
        // class a length-prefixed name and a u64 count).
        let server = ServerStats {
            connections: 101,
            frames_decoded: 102,
            bytes_in: 103,
            bytes_out: 104,
            conns_open: 105,
            conns_peak: 106,
            conns_refused: 107,
            conns_idle_closed: 108,
            outbox_full_stalls: 109,
            statement_classes: vec![("INSERT".into(), 7), ("SELECT".into(), 8)],
        };
        let bytes = encode_reply(
            5,
            &Reply::Stats {
                engine: Box::new(m),
                server,
                profile: None,
            },
        );
        let body = &bytes[9..];
        let word = |at: usize| u64::from_le_bytes(body[at..at + 8].try_into().unwrap());
        for k in 0..31 {
            assert_eq!(word(8 * k), k as u64 + 1, "counter {k}");
        }
        for k in 0..9 {
            assert_eq!(word(8 * (31 + k)), 101 + k as u64, "server counter {k}");
        }
        let classes = &body[8 * 40..];
        let mut expected = 2u32.to_le_bytes().to_vec();
        for (name, count) in [("INSERT", 7u64), ("SELECT", 8)] {
            expected.extend((name.len() as u32).to_le_bytes());
            expected.extend(name.as_bytes());
            expected.extend(count.to_le_bytes());
        }
        assert_eq!(classes, expected, "class list");
    }

    /// `docs/WIRE.md` describes the METRICS frame from the generated
    /// lists: its server-stats table names `ServerStats`' counters in wire
    /// order, and its sentences give both halves' counts.
    #[test]
    fn wire_doc_matches_the_generated_counter_lists() {
        let doc = include_str!("../../../docs/WIRE.md");
        let table: Vec<&str> = doc
            .split("The server-stats half is")
            .nth(1)
            .expect("server-stats section")
            .lines()
            .skip_while(|line| !line.starts_with("| `"))
            .take_while(|line| line.starts_with("| `"))
            .map(|line| line.split('`').nth(1).unwrap())
            .collect();
        assert_eq!(table, ServerStats::NAMES, "server-stats table");
        let flat = doc.split_whitespace().collect::<Vec<_>>().join(" ");
        for sentence in [
            format!(
                "The engine half is {} little-endian u64 fields",
                Metrics::COUNTERS
            ),
            format!(
                "The server-stats half is {} little-endian u64 fields",
                ServerStats::COUNTERS
            ),
        ] {
            assert!(flat.contains(&sentence), "docs/WIRE.md lacks {sentence:?}");
        }
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
        // Element-count breach: decoding an unchecked encode would fail
        // with "implausible pending count"; the encoder turns it into an
        // ERROR frame the client can surface.
        let huge = Reply::Engine(Response::Pending(vec![0; MAX_COUNT + 1]));
        let frame = parse_frame(&encode_reply(3, &huge)).unwrap();
        let Reply::Error { code, message } = decode_reply(&frame).unwrap() else {
            panic!("oversized reply must degrade into an error");
        };
        assert_eq!(code, code::PROTOCOL);
        assert!(message.contains("LIMIT"), "{message}");
        // Byte-size breach: a single row holding a string that alone
        // exceeds the frame cap.
        let mut fat = Valuation::new();
        fat.bind(Var::new(0, "x"), Value::from("y".repeat(MAX_FRAME)));
        let frame =
            parse_frame(&encode_reply(4, &Reply::Engine(Response::Rows(vec![fat])))).unwrap();
        assert!(matches!(
            decode_reply(&frame).unwrap(),
            Reply::Error {
                code: code::PROTOCOL,
                ..
            }
        ));
        // In-bounds replies pass through unchanged.
        let ok = Reply::Engine(Response::Pending(vec![0; MAX_COUNT]));
        let frame = parse_frame(&encode_reply(5, &ok)).unwrap();
        assert_eq!(decode_reply(&frame).unwrap(), ok);
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
            assert_appends(&mut gen, &bytes, |out| encode_reply_into(out, id, &reply));
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
            let bytes = encode_reply(9, &oversized);
            let frame = parse_frame(&bytes).unwrap();
            assert!(matches!(
                decode_reply(&frame).unwrap(),
                Reply::Error {
                    code: code::PROTOCOL,
                    ..
                }
            ));
            assert_appends(&mut gen, &bytes, |out| {
                encode_reply_into(out, 9, &oversized)
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
        let frame = parse_frame(&encode_reply(6, &huge)).unwrap();
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
}
