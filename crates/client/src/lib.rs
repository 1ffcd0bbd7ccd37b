//! # qdb-client
//!
//! Blocking TCP client for `qdb-server`, mirroring the embedded
//! [`qdb_core::Session`] surface: [`Connection::execute`] for one-shot
//! statements, [`Connection::prepare`] → [`Connection::bind`] →
//! [`Connection::run`] for the parse-once hot path, and
//! [`Connection::pipeline`] for many statements per network round trip.
//! A small [`Pool`] hands out connections to multi-threaded callers.
//!
//! ```no_run
//! use qdb_client::Connection;
//! use qdb_storage::Value;
//!
//! let mut conn = Connection::connect("127.0.0.1:5433")?;
//! conn.execute("CREATE TABLE Available (flight INT, seat TEXT)")?;
//! let insert = conn.prepare("INSERT INTO Available VALUES (?, ?)")?;
//! for seat in ["5A", "5B"] {
//!     conn.bind_run(&insert, &[Value::from(123), Value::from(seat)])?;
//! }
//! let rows = conn.execute("SELECT * FROM Available(123, @s)")?;
//! assert_eq!(rows.rows().unwrap().len(), 2);
//! # Ok::<(), qdb_client::ClientError>(())
//! ```

use std::io::{BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

use qdb_core::wire::{self, Reply, Request, ServerStats};
use qdb_core::Metrics;
pub use qdb_core::Response;
use qdb_storage::Value;

/// Client-side failures.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (connect, read, write) other than the peer
    /// being gone — those are [`ClientError::Unavailable`].
    Io(std::io::Error),
    /// The server (or its host) actively refused the connection, reset
    /// it, or closed it on us: `ECONNREFUSED` at connect, a reset or
    /// EOF mid-conversation — including a server at its admission limit,
    /// which accepts and immediately closes. Distinct from
    /// [`ClientError::Io`] so callers (and [`Pool`]) can retry or fail
    /// over deliberately instead of pattern-matching `io::Error` kinds.
    Unavailable(std::io::Error),
    /// The peer sent bytes that do not decode as a valid reply, or a
    /// reply that does not match the request stream.
    Protocol(String),
    /// The server processed the request and reported an error.
    Server {
        /// Stable [`qdb_core::wire::code`] value.
        code: u8,
        /// Human-readable message (the engine error's display form).
        message: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Unavailable(e) => write!(f, "server unavailable: {e}"),
            ClientError::Protocol(msg) => write!(f, "protocol: {msg}"),
            ClientError::Server { code, message } => {
                write!(f, "server error (code {code}): {message}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl ClientError {
    /// `true` for [`ClientError::Unavailable`] — the class of failure a
    /// retry against the same (or another) server address may fix.
    pub fn is_unavailable(&self) -> bool {
        matches!(self, ClientError::Unavailable(_))
    }

    /// `true` when the server refused the statement because it is a
    /// read-only replica (`wire::code::READ_ONLY`) — the signal to fail
    /// over to the primary (see [`FailoverClient`]).
    pub fn is_read_only(&self) -> bool {
        matches!(
            self,
            ClientError::Server {
                code: wire::code::READ_ONLY,
                ..
            }
        )
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        use std::io::ErrorKind::*;
        match e.kind() {
            // The peer is gone or never there; everything else (timeouts,
            // permission, interrupted DNS, ...) stays a generic I/O error.
            ConnectionRefused | ConnectionReset | ConnectionAborted | BrokenPipe | NotConnected
            | UnexpectedEof => ClientError::Unavailable(e),
            _ => ClientError::Io(e),
        }
    }
}

impl From<wire::WireError> for ClientError {
    fn from(e: wire::WireError) -> Self {
        ClientError::Protocol(e.to_string())
    }
}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, ClientError>;

/// A statement prepared on the server, addressed by a client-assigned id.
/// Valid for the connection that prepared it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RemotePrepared {
    id: u32,
    params: u32,
}

impl RemotePrepared {
    /// Number of positional `?` placeholders.
    pub fn param_count(&self) -> usize {
        self.params as usize
    }
}

/// Most statements [`Connection::pipeline`] keeps in flight at once.
pub const PIPELINE_WINDOW_FRAMES: usize = 256;
/// Most request bytes [`Connection::pipeline`] keeps in flight at once
/// (a single larger statement still travels, alone in its window).
pub const PIPELINE_WINDOW_BYTES: usize = 64 * 1024;

/// A blocking connection to a `qdb-server`.
///
/// All methods issue one or more frames and read the matching replies;
/// the server guarantees in-order responses per connection, which is what
/// [`Connection::pipeline`] and [`Connection::bind_run`] exploit to put
/// several frames on the wire before the first reply arrives.
pub struct Connection {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// Every call encodes its frames here and hands them to one `write`;
    /// kept between calls so encoding allocates nothing.
    send_buf: Vec<u8>,
    next_request: u32,
    next_id: u32,
    last_server_stats: Option<ServerStats>,
    last_profile: Option<Box<qdb_core::ProfileReport>>,
    /// Cleared on any transport/protocol failure: the stream may hold
    /// stale replies, so the connection must not be reused (a [`Pool`]
    /// discards unhealthy connections instead of parking them).
    healthy: bool,
}

impl Connection {
    /// Connect and disable Nagle (frames are small and latency-bound).
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Connection> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Connection {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            send_buf: Vec::new(),
            next_request: 0,
            next_id: 0,
            last_server_stats: None,
            last_profile: None,
            healthy: true,
        })
    }

    // -- plumbing ---------------------------------------------------------

    fn next_request_id(&mut self) -> u32 {
        let id = self.next_request;
        self.next_request = self.next_request.wrapping_add(1);
        id
    }

    /// Encode one more frame of the call being assembled.
    fn queue(&mut self, request: &Request) -> u32 {
        let id = self.next_request_id();
        wire::encode_request_into(&mut self.send_buf, id, request);
        id
    }

    fn queue_execute(&mut self, sql: &str) -> u32 {
        let id = self.next_request_id();
        wire::encode_execute_into(&mut self.send_buf, id, sql);
        id
    }

    /// Put every queued frame on the wire with one write.
    fn flush(&mut self) -> Result<()> {
        let sent = self.writer.write_all(&self.send_buf);
        self.send_buf.clear();
        // One jumbo statement must not pin its size for the connection's life.
        self.send_buf.shrink_to(2 * PIPELINE_WINDOW_BYTES);
        sent.map_err(|e| {
            self.healthy = false;
            e.into()
        })
    }

    fn send(&mut self, request: &Request) -> Result<u32> {
        let id = self.queue(request);
        self.flush()?;
        Ok(id)
    }

    fn recv(&mut self, expect: u32) -> Result<Reply> {
        // Any transport or framing failure leaves the stream desynced:
        // mark the connection so it is not returned to a pool.
        self.recv_inner(expect)
            .inspect_err(|_| self.healthy = false)
    }

    fn recv_inner(&mut self, expect: u32) -> Result<Reply> {
        let frame = wire::read_frame(&mut self.reader)?.ok_or_else(|| {
            // A clean EOF between frames is still the server going away
            // mid-conversation — the typed unavailability, not a decode
            // bug (an admission-limited server closes exactly like this).
            ClientError::Unavailable(std::io::Error::new(
                std::io::ErrorKind::ConnectionAborted,
                "server closed the connection mid-conversation",
            ))
        })?;
        if frame.request_id != expect {
            return Err(ClientError::Protocol(format!(
                "response for request {} arrived while awaiting {expect} (ordering violated)",
                frame.request_id
            )));
        }
        Ok(wire::decode_reply(&frame)?)
    }

    /// `false` once any transport/protocol failure has been observed
    /// (server errors are clean request outcomes and do not count).
    pub fn is_healthy(&self) -> bool {
        self.healthy
    }

    /// Fold a reply into the `execute`-shaped result, stashing server
    /// stats (and the latency profile, when attached) from `SHOW METRICS`
    /// responses.
    fn settle(&mut self, reply: Reply) -> Result<Response> {
        match reply {
            Reply::Engine(r) => Ok(r),
            Reply::Stats {
                engine,
                server,
                profile,
            } => {
                self.last_server_stats = Some(server);
                if profile.is_some() {
                    self.last_profile = profile;
                }
                Ok(Response::Metrics(engine))
            }
            Reply::Error { code, message } => Err(ClientError::Server { code, message }),
            other => Err(ClientError::Protocol(format!(
                "unexpected reply to an execute-class request: {other:?}"
            ))),
        }
    }

    fn fresh_id(&mut self) -> u32 {
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        id
    }

    // -- the Session-shaped surface ---------------------------------------

    /// Parse and execute one statement server-side.
    pub fn execute(&mut self, sql: &str) -> Result<Response> {
        let id = self.queue_execute(sql);
        self.flush()?;
        let reply = self.recv(id)?;
        self.settle(reply)
    }

    /// Parse once server-side; the returned handle re-executes via
    /// [`Connection::bind`] / [`Connection::run`] without re-parsing.
    pub fn prepare(&mut self, sql: &str) -> Result<RemotePrepared> {
        let stmt = self.fresh_id();
        let id = self.send(&Request::Prepare {
            stmt,
            sql: sql.to_string(),
        })?;
        match self.recv(id)? {
            Reply::Prepared { stmt: echo, params } if echo == stmt => {
                Ok(RemotePrepared { id: stmt, params })
            }
            Reply::Error { code, message } => Err(ClientError::Server { code, message }),
            other => Err(ClientError::Protocol(format!(
                "unexpected reply to PREPARE: {other:?}"
            ))),
        }
    }

    /// Bind positional parameters, yielding a one-shot bound id.
    pub fn bind(&mut self, prepared: &RemotePrepared, params: &[Value]) -> Result<RemoteBound> {
        let bound = self.fresh_id();
        let id = self.send(&Request::Bind {
            stmt: prepared.id,
            bound,
            params: params.to_vec(),
        })?;
        match self.recv(id)? {
            Reply::Bound { bound: echo } if echo == bound => Ok(RemoteBound { id: bound }),
            Reply::Error { code, message } => Err(ClientError::Server { code, message }),
            other => Err(ClientError::Protocol(format!(
                "unexpected reply to BIND: {other:?}"
            ))),
        }
    }

    /// Run (and consume) a bound statement.
    pub fn run(&mut self, bound: RemoteBound) -> Result<Response> {
        let id = self.send(&Request::Run { bound: bound.id })?;
        let reply = self.recv(id)?;
        self.settle(reply)
    }

    /// Bind + run in one network flush (two pipelined frames in one
    /// write, one round-trip latency) — the remote hot loop.
    pub fn bind_run(&mut self, prepared: &RemotePrepared, params: &[Value]) -> Result<Response> {
        let bound = self.fresh_id();
        let bind_id = self.queue(&Request::Bind {
            stmt: prepared.id,
            bound,
            params: params.to_vec(),
        });
        let run_id = self.queue(&Request::Run { bound });
        self.flush()?;
        let bind_reply = self.recv(bind_id)?;
        match bind_reply {
            Reply::Bound { .. } => {
                let reply = self.recv(run_id)?;
                self.settle(reply)
            }
            Reply::Error { code, message } => {
                // The pipelined RUN then failed on the missing bound id;
                // drain its reply so the stream stays aligned.
                let _ = self.recv(run_id)?;
                Err(ClientError::Server { code, message })
            }
            other => Err(ClientError::Protocol(format!(
                "unexpected reply to BIND: {other:?}"
            ))),
        }
    }

    /// Execute a batch of statements pipelined: the frames go out in one
    /// write before the first reply is read, and replies come back in
    /// statement order. Per-statement failures land in the inner results;
    /// transport failures abort the batch.
    ///
    /// A batch larger than [`PIPELINE_WINDOW_FRAMES`] statements or
    /// [`PIPELINE_WINDOW_BYTES`] of requests travels as several such
    /// windows, each answered before the next is sent: a client that
    /// wrote without bound while the server, its outbox full of replies
    /// nobody reads yet, had stopped reading would block forever.
    pub fn pipeline(&mut self, sqls: &[&str]) -> Result<Vec<Result<Response>>> {
        let mut out = Vec::with_capacity(sqls.len());
        let mut rest = sqls;
        while !rest.is_empty() {
            let first_id = self.next_request;
            let mut frames = 0;
            while let Some(sql) = rest.get(frames) {
                // Frame header (9) + string length prefix (4) + text.
                let frame_len = 13 + sql.len();
                if frames == PIPELINE_WINDOW_FRAMES
                    || (frames > 0 && self.send_buf.len() + frame_len > PIPELINE_WINDOW_BYTES)
                {
                    break;
                }
                self.queue_execute(sql);
                frames += 1;
            }
            self.flush()?;
            for i in 0..frames {
                let reply = self.recv(first_id.wrapping_add(i as u32))?;
                out.push(self.settle(reply));
            }
            rest = &rest[frames..];
        }
        Ok(out)
    }

    /// `SHOW METRICS`, returning both the engine's metrics and the
    /// server's traffic counters that ride on the same response.
    pub fn server_stats(&mut self) -> Result<(Box<Metrics>, ServerStats)> {
        let response = self.execute("SHOW METRICS")?;
        let Response::Metrics(engine) = response else {
            return Err(ClientError::Protocol(format!(
                "SHOW METRICS answered {response:?}"
            )));
        };
        let server = self
            .last_server_stats
            .clone()
            .ok_or_else(|| ClientError::Protocol("metrics reply carried no server stats".into()))?;
        Ok((engine, server))
    }

    /// Server stats attached to the most recent `SHOW METRICS` response
    /// seen on this connection, if any.
    pub fn last_server_stats(&self) -> Option<&ServerStats> {
        self.last_server_stats.as_ref()
    }

    /// Latency histogram summaries attached to the most recent
    /// `SHOW METRICS` response, if the server sent them.
    pub fn last_profile(&self) -> Option<&qdb_core::ProfileReport> {
        self.last_profile.as_deref()
    }
}

impl std::fmt::Debug for Connection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Connection")
            .field("peer", &self.writer.peer_addr().ok())
            .finish_non_exhaustive()
    }
}

/// A bound statement id awaiting its `RUN` (consumed by
/// [`Connection::run`]).
#[derive(Debug, PartialEq, Eq)]
pub struct RemoteBound {
    id: u32,
}

/// Bounded exponential backoff with deterministic, seeded jitter.
///
/// Attempt `n` (0-based) waits `min(cap, base · 2ⁿ)` halved, plus a
/// jitter drawn from the other half by a [splitmix64] counter seeded at
/// construction — "equal jitter". The same seed always yields the same
/// delay sequence, so retry timing is reproducible in tests and in the
/// deterministic simulator, while distinct seeds decorrelate a thundering
/// herd of reconnecting clients.
///
/// [splitmix64]: https://prng.di.unimi.it/splitmix64.c
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BackoffPolicy {
    /// First delay before jitter (attempt 0 waits between `base/2` and
    /// `base`).
    pub base: Duration,
    /// Upper bound on any single delay.
    pub cap: Duration,
    /// Jitter seed; fixed seed ⇒ fixed delay sequence.
    pub seed: u64,
}

impl Default for BackoffPolicy {
    fn default() -> Self {
        BackoffPolicy {
            base: Duration::from_millis(10),
            cap: Duration::from_secs(1),
            seed: 0x51db_5eed,
        }
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl BackoffPolicy {
    /// The delay before retry number `attempt` (0-based). Pure: the same
    /// `(policy, attempt)` always yields the same duration.
    pub fn delay(&self, attempt: u32) -> Duration {
        let exp = self
            .base
            .checked_mul(1u32.checked_shl(attempt.min(20)).unwrap_or(u32::MAX))
            .unwrap_or(self.cap)
            .min(self.cap);
        let half = exp / 2;
        let half_nanos = half.as_nanos() as u64;
        if half_nanos == 0 {
            return exp;
        }
        let jitter = splitmix64(self.seed.wrapping_add(u64::from(attempt))) % (half_nanos + 1);
        half + Duration::from_nanos(jitter)
    }
}

/// Injectable sleep hook so backoff timing is testable (and mockable
/// under a simulated clock) without real waiting.
type Sleeper = Box<dyn Fn(Duration) + Send + Sync>;

/// A small blocking connection pool: threads check connections out and
/// drop the guard to return them. Connections are created lazily up to no
/// particular limit; at most `max_idle` are retained.
///
/// Unavailability handling is deterministic: a fresh connect that fails
/// [`ClientError::Unavailable`] is retried up to the configured retry
/// budget — exactly `retries + 1` attempts, observable via
/// [`Pool::connect_attempts`] — after which the typed error is reported
/// to the caller. Between attempts the pool sleeps per its
/// [`BackoffPolicy`]: bounded exponential delays with seeded jitter, so
/// the schedule is reproducible run to run. Any other failure reports
/// immediately.
pub struct Pool {
    addr: String,
    max_idle: usize,
    connect_retries: u32,
    backoff: BackoffPolicy,
    sleeper: Sleeper,
    connect_attempts: std::sync::atomic::AtomicU64,
    idle: Mutex<Vec<Connection>>,
    #[cfg(test)]
    connector: Option<Connector>,
}

/// Test-only connect hook so retry behavior is provable without racing
/// real listeners.
#[cfg(test)]
type Connector = Box<dyn Fn(&str) -> Result<Connection> + Send + Sync>;

impl Pool {
    /// Pool over `addr`, retaining up to `max_idle` parked connections.
    /// No connect retries; see [`Pool::with_connect_retries`].
    pub fn new(addr: impl Into<String>, max_idle: usize) -> Pool {
        Pool::with_connect_retries(addr, max_idle, 0)
    }

    /// Pool that retries an [`ClientError::Unavailable`] fresh connect up
    /// to `retries` extra times before reporting it, sleeping between
    /// attempts per the default [`BackoffPolicy`].
    pub fn with_connect_retries(addr: impl Into<String>, max_idle: usize, retries: u32) -> Pool {
        Pool {
            addr: addr.into(),
            max_idle,
            connect_retries: retries,
            backoff: BackoffPolicy::default(),
            sleeper: Box::new(std::thread::sleep),
            connect_attempts: std::sync::atomic::AtomicU64::new(0),
            idle: Mutex::new(Vec::new()),
            #[cfg(test)]
            connector: None,
        }
    }

    /// Replace the retry backoff policy (seed, base, cap).
    pub fn with_backoff(mut self, policy: BackoffPolicy) -> Pool {
        self.backoff = policy;
        self
    }

    /// Replace the sleep used between connect retries — tests and
    /// simulated-clock embedders observe or virtualize the waits instead
    /// of actually sleeping.
    pub fn with_sleeper(mut self, sleep: impl Fn(Duration) + Send + Sync + 'static) -> Pool {
        self.sleeper = Box::new(sleep);
        self
    }

    fn connect_once(&self) -> Result<Connection> {
        self.connect_attempts
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        #[cfg(test)]
        if let Some(connector) = &self.connector {
            return connector(&self.addr);
        }
        Connection::connect(self.addr.as_str())
    }

    /// Check a connection out (reusing a parked one when available).
    pub fn get(&self) -> Result<PooledConnection<'_>> {
        let parked = {
            let mut idle = self.idle.lock().unwrap_or_else(PoisonError::into_inner);
            idle.pop()
        };
        let conn = match parked {
            Some(c) => c,
            None => {
                let mut attempt = 0;
                loop {
                    match self.connect_once() {
                        Ok(c) => break c,
                        Err(e) if e.is_unavailable() && attempt < self.connect_retries => {
                            (self.sleeper)(self.backoff.delay(attempt));
                            attempt += 1;
                        }
                        Err(e) => return Err(e),
                    }
                }
            }
        };
        Ok(PooledConnection {
            pool: self,
            conn: Some(conn),
        })
    }

    /// Fresh connects attempted over this pool's lifetime (reuses of
    /// parked connections do not count) — what makes the retry budget
    /// verifiable.
    pub fn connect_attempts(&self) -> u64 {
        self.connect_attempts
            .load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Parked connections right now.
    pub fn idle_count(&self) -> usize {
        self.idle
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    fn put_back(&self, conn: Connection) {
        if !conn.is_healthy() {
            return; // a desynced stream must not serve the next checkout
        }
        let mut idle = self.idle.lock().unwrap_or_else(PoisonError::into_inner);
        if idle.len() < self.max_idle {
            idle.push(conn);
        }
    }
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("addr", &self.addr)
            .field("max_idle", &self.max_idle)
            .field("idle", &self.idle_count())
            .finish()
    }
}

/// A checked-out pool connection; derefs to [`Connection`] and returns to
/// the pool on drop.
pub struct PooledConnection<'p> {
    pool: &'p Pool,
    conn: Option<Connection>,
}

impl std::ops::Deref for PooledConnection<'_> {
    type Target = Connection;

    fn deref(&self) -> &Connection {
        self.conn.as_ref().expect("present until drop")
    }
}

impl std::ops::DerefMut for PooledConnection<'_> {
    fn deref_mut(&mut self) -> &mut Connection {
        self.conn.as_mut().expect("present until drop")
    }
}

impl Drop for PooledConnection<'_> {
    fn drop(&mut self) {
        if let Some(conn) = self.conn.take() {
            self.pool.put_back(conn);
        }
    }
}

/// A client for a replicated deployment: statements are routed to the
/// replica first (cheap, horizon-stale reads — see `docs/REPLICATION.md`),
/// and anything the replica refuses with the typed `READ_ONLY` code is
/// transparently re-executed on the primary. A replica that has become
/// unreachable (crashed, promoted elsewhere) also fails the statement
/// over to the primary instead of surfacing the transport error.
///
/// Connections are established lazily and re-established with the same
/// bounded, seeded backoff as [`Pool`] retries; a connection broken
/// mid-conversation is dropped and redialed once before the failure is
/// reported.
pub struct FailoverClient {
    primary_addr: String,
    replica_addr: Option<String>,
    primary: Option<Connection>,
    replica: Option<Connection>,
    connect_retries: u32,
    backoff: BackoffPolicy,
    sleeper: Sleeper,
}

impl FailoverClient {
    /// Client over `primary` with an optional read-preferred `replica`.
    pub fn new(primary: impl Into<String>, replica: Option<String>) -> FailoverClient {
        FailoverClient {
            primary_addr: primary.into(),
            replica_addr: replica,
            primary: None,
            replica: None,
            connect_retries: 3,
            backoff: BackoffPolicy::default(),
            sleeper: Box::new(std::thread::sleep),
        }
    }

    /// Replace the reconnect backoff policy.
    pub fn with_backoff(mut self, policy: BackoffPolicy) -> FailoverClient {
        self.backoff = policy;
        self
    }

    /// Extra connect attempts per dial (same meaning as
    /// [`Pool::with_connect_retries`]).
    pub fn with_connect_retries(mut self, retries: u32) -> FailoverClient {
        self.connect_retries = retries;
        self
    }

    fn dial(
        addr: &str,
        retries: u32,
        backoff: &BackoffPolicy,
        sleeper: &Sleeper,
    ) -> Result<Connection> {
        let mut attempt = 0;
        loop {
            match Connection::connect(addr) {
                Ok(c) => return Ok(c),
                Err(e) if e.is_unavailable() && attempt < retries => {
                    sleeper(backoff.delay(attempt));
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    fn execute_on(&mut self, on_primary: bool, sql: &str) -> Result<Response> {
        let (slot, addr) = if on_primary {
            (&mut self.primary, self.primary_addr.as_str())
        } else {
            (
                &mut self.replica,
                self.replica_addr.as_deref().expect("replica configured"),
            )
        };
        if slot.is_none() {
            *slot = Some(Self::dial(
                addr,
                self.connect_retries,
                &self.backoff,
                &self.sleeper,
            )?);
        }
        let conn = slot.as_mut().expect("dialed above");
        let result = conn.execute(sql);
        if matches!(&result, Err(e) if e.is_unavailable()) {
            // One transparent redial: the old stream is desynced.
            *slot = None;
            let mut fresh = Self::dial(addr, self.connect_retries, &self.backoff, &self.sleeper)?;
            let retried = fresh.execute(sql);
            *slot = Some(fresh);
            return retried;
        }
        result
    }

    /// Execute one statement: replica first when one is configured, with
    /// typed read-only refusals and replica unavailability failing over
    /// to the primary.
    pub fn execute(&mut self, sql: &str) -> Result<Response> {
        if self.replica_addr.is_some() {
            match self.execute_on(false, sql) {
                Err(e) if e.is_read_only() || e.is_unavailable() => {
                    if e.is_unavailable() {
                        self.replica = None;
                    }
                }
                other => return other,
            }
        }
        self.execute_on(true, sql)
    }
}

impl std::fmt::Debug for FailoverClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FailoverClient")
            .field("primary", &self.primary_addr)
            .field("replica", &self.replica_addr)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdb_server::{Server, ServerConfig};

    fn spawn() -> qdb_server::ServerHandle {
        Server::spawn(&ServerConfig::default()).expect("loopback server")
    }

    #[test]
    fn execute_prepare_bind_run_roundtrip() {
        let server = spawn();
        let mut conn = Connection::connect(server.addr()).unwrap();
        assert!(matches!(
            conn.execute("CREATE TABLE R (a INT, b TEXT)").unwrap(),
            Response::Ack
        ));
        let insert = conn.prepare("INSERT INTO R VALUES (?, ?)").unwrap();
        assert_eq!(insert.param_count(), 2);
        for i in 0..3 {
            let r = conn
                .bind_run(&insert, &[Value::from(i), Value::from("x")])
                .unwrap();
            assert_eq!(r, Response::Written(true));
        }
        // Explicit two-step bind → run as well.
        let bound = conn
            .bind(&insert, &[Value::from(9), Value::from("y")])
            .unwrap();
        assert_eq!(conn.run(bound).unwrap(), Response::Written(true));
        let rows = conn.execute("SELECT * FROM R(@a, @b)").unwrap();
        assert_eq!(rows.rows().unwrap().len(), 4);
        server.shutdown();
    }

    #[test]
    fn server_errors_surface_with_codes_and_the_connection_survives() {
        let server = spawn();
        let mut conn = Connection::connect(server.addr()).unwrap();
        let err = conn.execute("SELECT * FROM Missing(@x)").unwrap_err();
        assert!(matches!(
            err,
            ClientError::Server {
                code: wire::code::STORAGE,
                ..
            }
        ));
        let err = conn.execute("INSERT INTO R VALUES (?)").unwrap_err();
        assert!(matches!(
            err,
            ClientError::Server {
                code: wire::code::PARAMS,
                ..
            }
        ));
        assert!(matches!(
            conn.execute("SHOW PENDING").unwrap(),
            Response::Pending(_)
        ));
        server.shutdown();
    }

    #[test]
    fn pipeline_preserves_statement_order() {
        let server = spawn();
        let mut conn = Connection::connect(server.addr()).unwrap();
        let results = conn
            .pipeline(&[
                "CREATE TABLE P (v INT)",
                "INSERT INTO P VALUES (1)",
                "NOT SQL AT ALL",
                "SELECT * FROM P(@v)",
                "SHOW METRICS",
            ])
            .unwrap();
        assert_eq!(results.len(), 5);
        assert!(matches!(results[0], Ok(Response::Ack)));
        assert!(matches!(results[1], Ok(Response::Written(true))));
        assert!(matches!(
            results[2],
            Err(ClientError::Server {
                code: wire::code::LOGIC,
                ..
            })
        ));
        assert_eq!(results[3].as_ref().unwrap().rows().unwrap().len(), 1);
        assert!(matches!(results[4], Ok(Response::Metrics(_))));
        let stats = conn.last_server_stats().expect("stats attached");
        assert!(stats.frames_decoded >= 5);
        server.shutdown();
    }

    #[test]
    fn profile_and_events_travel_the_wire() {
        let server = spawn();
        let mut conn = Connection::connect(server.addr()).unwrap();
        conn.execute("CREATE TABLE W (v INT)").unwrap();
        conn.execute("INSERT INTO W VALUES (1)").unwrap();
        conn.execute("SELECT * FROM W(@v)").unwrap();
        let resp = conn.execute("SHOW PROFILE").unwrap();
        let profile = resp.profile().expect("SHOW PROFILE answers a profile");
        assert!(
            profile
                .classes
                .iter()
                .any(|(c, s)| c == "INSERT" && s.count == 1 && s.p50_ns > 0),
            "{profile:?}"
        );
        assert!(
            profile
                .phases
                .iter()
                .any(|(p, s)| p == "parse" && s.count > 0),
            "{profile:?}"
        );
        let resp = conn.execute("SHOW EVENTS LIMIT 50").unwrap();
        let events = resp.events().expect("SHOW EVENTS answers events");
        assert!(!events.is_empty());
        // SHOW METRICS carries the same summaries alongside server stats.
        conn.execute("SHOW METRICS").unwrap();
        let profile = conn.last_profile().expect("metrics reply carries profile");
        assert!(profile.classes.iter().any(|(c, _)| c == "SELECT"));
        server.shutdown();
    }

    #[test]
    fn pool_discards_connections_broken_mid_conversation() {
        let server = spawn();
        let pool = Pool::new(server.addr().to_string(), 2);
        {
            let mut c = pool.get().unwrap();
            c.execute("SHOW PENDING").unwrap();
            assert!(c.is_healthy());
            // The server goes away under the checked-out connection; the
            // next call fails at the transport and taints it.
            server.shutdown();
            let err = c.execute("SHOW PENDING").unwrap_err();
            assert!(matches!(
                err,
                ClientError::Unavailable(_) | ClientError::Io(_) | ClientError::Protocol(_)
            ));
            assert!(!c.is_healthy());
        }
        assert_eq!(pool.idle_count(), 0, "a desynced stream must not be parked");
    }

    #[test]
    fn refused_connect_is_typed_not_generic_io() {
        // Bind-then-drop yields a port with nothing listening.
        let dead = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let err = Connection::connect(dead).unwrap_err();
        assert!(err.is_unavailable(), "{err}");
        assert!(matches!(err, ClientError::Unavailable(_)));
    }

    #[test]
    fn pool_reports_unavailability_after_a_deterministic_attempt_count() {
        let dead = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let pool = Pool::with_connect_retries(dead.to_string(), 2, 3);
        let err = pool.get().map(|_| ()).unwrap_err();
        assert!(err.is_unavailable(), "{err}");
        assert_eq!(pool.connect_attempts(), 4, "retries + 1, no more, no less");
        // Failing again costs exactly another budget, not a growing one.
        let err = pool.get().map(|_| ()).unwrap_err();
        assert!(err.is_unavailable());
        assert_eq!(pool.connect_attempts(), 8);
    }

    #[test]
    fn pool_retries_transient_refusal_then_succeeds() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let server = spawn();
        let addr = server.addr().to_string();
        let mut pool = Pool::with_connect_retries(addr, 2, 2);
        // Deterministic flaky connector: refuse twice, then connect for
        // real. (Injection is test-only; production always dials.)
        let failures = std::sync::Arc::new(AtomicU32::new(0));
        let flaky = std::sync::Arc::clone(&failures);
        pool.connector = Some(Box::new(move |addr: &str| {
            if flaky.fetch_add(1, Ordering::SeqCst) < 2 {
                Err(ClientError::Unavailable(std::io::Error::new(
                    std::io::ErrorKind::ConnectionRefused,
                    "synthetic refusal",
                )))
            } else {
                Connection::connect(addr)
            }
        }));
        {
            let mut c = pool.get().expect("third attempt connects");
            assert!(matches!(
                c.execute("SHOW PENDING").unwrap(),
                Response::Pending(_)
            ));
        }
        assert_eq!(pool.connect_attempts(), 3);
        // A budget smaller than the failure streak reports instead.
        let mut pool = Pool::with_connect_retries(server.addr().to_string(), 2, 1);
        pool.connector = Some(Box::new(move |_addr: &str| {
            Err(ClientError::Unavailable(std::io::Error::new(
                std::io::ErrorKind::ConnectionRefused,
                "synthetic refusal",
            )))
        }));
        let err = pool.get().map(|_| ()).unwrap_err();
        assert!(err.is_unavailable());
        assert_eq!(pool.connect_attempts(), 2);
        server.shutdown();
    }

    #[test]
    fn unavailable_covers_the_disconnect_error_kind_matrix() {
        use std::io::ErrorKind::*;
        // Every way a peer can be gone maps to the typed retryable error…
        for kind in [
            ConnectionRefused,
            ConnectionReset,
            ConnectionAborted,
            BrokenPipe,
            NotConnected,
            UnexpectedEof,
        ] {
            let e = ClientError::from(std::io::Error::new(kind, "gone"));
            assert!(e.is_unavailable(), "{kind:?} must map to Unavailable");
        }
        // …while local/transient conditions stay generic I/O errors that
        // a blind retry would not fix.
        for kind in [
            TimedOut,
            PermissionDenied,
            WouldBlock,
            Interrupted,
            OutOfMemory,
        ] {
            let e = ClientError::from(std::io::Error::new(kind, "local"));
            assert!(
                matches!(e, ClientError::Io(_)),
                "{kind:?} must stay ClientError::Io"
            );
        }
    }

    #[test]
    fn eof_mid_frame_is_unavailable_and_taints_the_connection() {
        use std::io::Read;
        // A hand-rolled peer that answers with half a frame then hangs up
        // — the worst-case crash point for a streaming server.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut sink = [0u8; 256];
            let _ = s.read(&mut sink);
            // Length prefix claims 100 body bytes; send only 3.
            s.write_all(&[100, 0, 0, 0, 0x18, 1, 0]).unwrap();
        });
        let mut conn = Connection::connect(addr).unwrap();
        let err = conn.execute("SHOW PENDING").unwrap_err();
        assert!(err.is_unavailable(), "mid-frame EOF must be typed: {err}");
        assert!(
            !conn.is_healthy(),
            "a desynced stream must not look reusable"
        );
        peer.join().unwrap();
    }

    #[test]
    fn connect_backoff_is_bounded_deterministic_and_injectable() {
        use std::sync::{Arc, Mutex};
        let dead = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let policy = BackoffPolicy {
            base: Duration::from_millis(10),
            cap: Duration::from_millis(60),
            seed: 42,
        };
        let record = |sleeps: &Arc<Mutex<Vec<Duration>>>| {
            let sink = Arc::clone(sleeps);
            move |d: Duration| sink.lock().unwrap().push(d)
        };
        let sleeps = Arc::new(Mutex::new(Vec::new()));
        let pool = Pool::with_connect_retries(dead.to_string(), 2, 5)
            .with_backoff(policy.clone())
            .with_sleeper(record(&sleeps));
        assert!(pool.get().map(|_| ()).unwrap_err().is_unavailable());
        let observed = sleeps.lock().unwrap().clone();
        assert_eq!(observed.len(), 5, "one sleep between each pair of attempts");
        for (i, d) in observed.iter().enumerate() {
            let exp = policy.base * 2u32.pow(i as u32);
            assert!(*d <= policy.cap, "attempt {i} slept {d:?} over the cap");
            assert!(
                *d >= exp.min(policy.cap) / 2,
                "attempt {i} slept {d:?}, under half the exponential floor"
            );
            assert_eq!(*d, policy.delay(i as u32), "schedule must be pure");
        }
        // Same seed ⇒ identical schedule; different seed ⇒ different
        // jitter (decorrelated clients).
        let sleeps2 = Arc::new(Mutex::new(Vec::new()));
        let pool2 = Pool::with_connect_retries(dead.to_string(), 2, 5)
            .with_backoff(policy.clone())
            .with_sleeper(record(&sleeps2));
        assert!(pool2.get().is_err());
        assert_eq!(observed, *sleeps2.lock().unwrap());
        let reseeded = BackoffPolicy { seed: 43, ..policy };
        assert_ne!(
            (0..5).map(|i| reseeded.delay(i)).collect::<Vec<_>>(),
            observed
        );
    }

    #[test]
    fn failover_client_reads_from_replica_and_writes_through_primary() {
        let primary = spawn();
        let mut seed = Connection::connect(primary.addr()).unwrap();
        seed.execute("CREATE TABLE Available (flight INT, seat TEXT)")
            .unwrap();
        seed.execute("INSERT INTO Available VALUES (1, '1A')")
            .unwrap();
        let replica = Server::spawn(&ServerConfig {
            replicate_from: Some(primary.addr().to_string()),
            repl_poll_interval: std::time::Duration::from_millis(2),
            ..ServerConfig::default()
        })
        .unwrap();
        // Wait for the replica to catch up before reading through it.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        let mut probe = Connection::connect(replica.addr()).unwrap();
        loop {
            match probe.execute("SELECT * FROM Available(@f, @s)") {
                Ok(Response::Rows(rows)) if rows.len() == 1 => break,
                _ => {
                    assert!(
                        std::time::Instant::now() < deadline,
                        "replica never caught up"
                    );
                    std::thread::sleep(std::time::Duration::from_millis(5));
                }
            }
        }
        let mut client =
            FailoverClient::new(primary.addr().to_string(), Some(replica.addr().to_string()));
        // A read is answered by the replica.
        let rows = client.execute("SELECT * FROM Available(@f, @s)").unwrap();
        assert_eq!(rows.rows().unwrap().len(), 1);
        // A write bounces off the replica with READ_ONLY and lands on the
        // primary without the caller seeing the refusal.
        let written = client
            .execute("INSERT INTO Available VALUES (1, '1B')")
            .unwrap();
        assert_eq!(written, Response::Written(true));
        let (_, pstats) = {
            let mut c = Connection::connect(primary.addr()).unwrap();
            c.server_stats().unwrap()
        };
        assert_eq!(
            pstats.class("INSERT"),
            Some(2),
            "seed + failed-over write ran on the primary"
        );
        // Replica death degrades reads to the primary instead of erroring.
        replica.shutdown();
        let rows = client.execute("SELECT * FROM Available(@f, @s)").unwrap();
        assert!(!rows.rows().unwrap().is_empty());
        primary.shutdown();
    }

    #[test]
    fn pool_reuses_connections() {
        let server = spawn();
        let pool = Pool::new(server.addr().to_string(), 2);
        {
            let mut a = pool.get().unwrap();
            a.execute("CREATE TABLE Q (v INT)").unwrap();
            let mut b = pool.get().unwrap();
            b.execute("INSERT INTO Q VALUES (1)").unwrap();
        }
        assert_eq!(pool.idle_count(), 2);
        {
            let mut c = pool.get().unwrap();
            let rows = c.execute("SELECT * FROM Q(@v)").unwrap();
            assert_eq!(rows.rows().unwrap().len(), 1);
        }
        assert_eq!(pool.idle_count(), 2);
        let stats = server.stats();
        assert_eq!(stats.connections, 2, "third checkout must reuse");
        server.shutdown();
    }
}
