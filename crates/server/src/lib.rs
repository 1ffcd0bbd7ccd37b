//! # qdb-server
//!
//! The network service layer of the quantum database: a TCP server
//! speaking the [`qdb_wire`] protocol over plain `std::net`, putting
//! the paper's middle-tier service (§2's booking scenarios assume many
//! concurrent users against contested resources) in front of the engine.
//!
//! ## Architecture
//!
//! ```text
//!            ┌──────────── reactor thread (epoll) ────────────┐
//! clients ──▶│ non-blocking accept · read → try_frame → queue │
//!            │ flush outboxes · idle timer wheel · admission  │
//!            └───────┬────────────────────────────▲───────────┘
//!                    │ schedule (frame queue)     │ kick (full outbox,
//!                    ▼                            │  resume reads, …)
//!            ┌────────────────────────────────────┴───────────┐
//!            │ executor pool (N threads): drain one           │
//!            │ connection's frames in order, execute on the   │
//!            │ node's engine, encode replies into its bounded │
//!            │ outbox, write them out a batch at a time       │
//!            └───────────────────────┬────────────────────────┘
//!                                    ▼
//!                            SharedQuantumDb
//! ```
//!
//! A single reactor thread owns every socket's readiness through a
//! vendored epoll shim (`sys`): it accepts (with an admission limit),
//! reads into one shared scratch buffer and frames straight out of it
//! (one read, one queue lock and one executor wake-up per pipelined
//! call), hands decoded frames to the executor pool, flushes reply bytes
//! the executors could not write inline, and reaps idle connections off
//! a timer wheel. Executors write a connection's replies when its queue
//! runs empty, 16 KiB are waiting or 200 µs have passed — one socket
//! write per pipelined call, not one per reply. Executors never block on
//! I/O and the reactor never executes a statement, so one slow client —
//! or ten thousand idle ones — cannot stall the rest.
//!
//! Each connection owns its prepared statements and a statement-template
//! cache ([`qdb_core::StmtCache`]) and may pipeline many frames; the
//! scheduling discipline guarantees responses come back in request order
//! per connection while different connections execute on different
//! workers. Backpressure is explicit at both ends of a connection: reads
//! pause while its decoded-frame queue or outbox is saturated, and a
//! drainer stalls (counted in `outbox_full_stalls`) rather than buffer
//! more than [`ServerConfig::outbox_limit`] bytes toward a client that
//! has stopped reading. Every engine error is encoded as an `ERROR`
//! frame — a bad statement can never take the server down.
//!
//! Every request of every node role takes one path
//! (`Conn::handle_request`) against the node's one engine (see [`repl`]).
//! A replica follows its primary under one read-only rule until it
//! promotes; from then on the same engine serves exactly what a born
//! primary serves, replication frames included.
//!
//! ```no_run
//! use qdb_core::{QuantumDb, QuantumDbConfig};
//! use qdb_server::{Server, ServerConfig};
//!
//! let handle = Server::spawn(&ServerConfig::default()).unwrap();
//! println!("serving on {}", handle.addr());
//! handle.shutdown();
//! ```

mod conn;
pub mod metrics;
mod reactor;
pub mod repl;
mod sys;

use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc, Mutex, PoisonError, Weak};
use std::thread::JoinHandle;
use std::time::Duration;

use qdb_core::{QuantumDb, QuantumDbConfig, SharedQuantumDb};
use qdb_wire::ServerStats;

use conn::Conn;
pub use metrics::ServerMetrics;
use qdb_core::ReplicaApplier;
use reactor::{new_reactor, Notifier, ReactorConfig};
pub use repl::ReplicaState;
use repl::{run_puller, Node, PullerConfig};

pub(crate) fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The reactor stops decoding frames for a connection while this many
/// are already queued for execution — backpressure propagates to the
/// client through the TCP window instead of growing server memory.
pub(crate) const MAX_QUEUED_FRAMES: usize = 256;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port `0` picks a free port (loopback tests).
    pub addr: String,
    /// Executor threads running statements (≥ 1).
    pub workers: usize,
    /// Engine configuration for the owned database.
    pub engine: QuantumDbConfig,
    /// JSONL trace sink path (`qdb-server --trace-out`): every finished
    /// operation is appended as one JSON line (see
    /// `docs/OBSERVABILITY.md`). `None` disables the trace.
    pub trace_out: Option<String>,
    /// Admission limit: connections accepted past this are immediately
    /// closed and counted in `conns_refused`.
    pub max_connections: usize,
    /// Reap connections with no inbound traffic for this long (timer
    /// wheel, ~1/8-timeout granularity). `None` disables reaping.
    pub idle_timeout: Option<Duration>,
    /// Per-connection outbox bound in bytes: a drainer stalls instead of
    /// buffering more than this toward a client that stopped reading
    /// (one in-flight reply may transiently exceed it).
    pub outbox_limit: usize,
    /// Serve as a replica of the primary at this address
    /// (`qdb-server --replicate-from`): pull its WAL, serve reads at the
    /// replication horizon, refuse writes with the `READ_ONLY` code.
    pub replicate_from: Option<String>,
    /// Name this replica reports to the primary (`SHOW REPLICATION`
    /// there lists per-replica lag under it).
    pub replica_id: String,
    /// How long a caught-up replica sleeps between WAL polls.
    pub repl_poll_interval: Duration,
    /// Auto-promote to primary after this long without a successful
    /// exchange with the upstream. `None` leaves promotion manual.
    pub auto_promote_after: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            engine: QuantumDbConfig::default(),
            trace_out: None,
            max_connections: 16_384,
            idle_timeout: None,
            outbox_limit: 256 * 1024,
            replicate_from: None,
            replica_id: "replica-1".to_string(),
            repl_poll_interval: Duration::from_millis(20),
            auto_promote_after: None,
        }
    }
}

/// Graceful-shutdown signal shared with the reactor: once active, the
/// listener is dropped and the loop runs until every connection has
/// executed its queued frames and flushed its outbox (or the deadline
/// passes).
pub(crate) struct DrainSignal {
    active: AtomicBool,
    deadline: Mutex<Option<std::time::Instant>>,
}

impl DrainSignal {
    fn new() -> Self {
        DrainSignal {
            active: AtomicBool::new(false),
            deadline: Mutex::new(None),
        }
    }

    fn arm(&self, timeout: Duration) {
        *lock(&self.deadline) = Some(std::time::Instant::now() + timeout);
        self.active.store(true, Ordering::SeqCst);
    }

    pub(crate) fn active(&self) -> bool {
        self.active.load(Ordering::SeqCst)
    }

    pub(crate) fn expired(&self) -> bool {
        matches!(*lock(&self.deadline), Some(d) if std::time::Instant::now() >= d)
    }
}

pub(crate) enum Job {
    Conn(Arc<Conn>),
    Shutdown,
}

/// The server entry points.
pub struct Server;

impl Server {
    /// Build a fresh engine from `cfg.engine` and serve it. With
    /// `cfg.replicate_from` set, the node comes up as a replica instead:
    /// the same engine is fed from the primary's WAL stream and serves
    /// reads at its horizon until promotion (see [`repl::ReplicaState`]).
    pub fn spawn(cfg: &ServerConfig) -> io::Result<ServerHandle> {
        let db = QuantumDb::new(cfg.engine.clone())
            .map_err(|e| io::Error::other(format!("engine construction: {e}")))?
            .into_shared();
        if let Some(path) = &cfg.trace_out {
            let file = std::fs::File::create(path)
                .map_err(|e| io::Error::other(format!("trace sink {path}: {e}")))?;
            db.obs().set_trace(Some(Box::new(file)));
        }
        let replica = cfg.replicate_from.as_ref().map(|source| {
            let applier = ReplicaApplier::new(db.clone());
            let id = cfg.replica_id.clone();
            Arc::new(ReplicaState::new(applier, source.clone(), id))
        });
        Server::spawn_inner(cfg, Node::new(db, replica))
    }

    /// Serve an existing shared engine (embedding: pre-install schemas and
    /// data, keep a local handle next to the network endpoint). Uses
    /// default serving knobs except `addr` and `workers`;
    /// [`Server::spawn`] honors the full [`ServerConfig`].
    pub fn spawn_with_db(
        addr: &str,
        workers: usize,
        db: SharedQuantumDb,
    ) -> io::Result<ServerHandle> {
        let cfg = ServerConfig {
            addr: addr.to_string(),
            workers,
            ..ServerConfig::default()
        };
        Server::spawn_inner(&cfg, Node::new(db, None))
    }

    fn spawn_inner(cfg: &ServerConfig, node: Node) -> io::Result<ServerHandle> {
        let workers = cfg.workers.max(1);
        let listener = TcpListener::bind(&cfg.addr)?;
        let local_addr = listener.local_addr()?;
        let metrics = Arc::new(ServerMetrics::default());
        let shutdown = Arc::new(AtomicBool::new(false));
        let drain = Arc::new(DrainSignal::new());
        let (job_tx, job_rx) = mpsc::channel::<Job>();
        let job_rx = Arc::new(Mutex::new(job_rx));
        let (notifier, wake_rx) = Notifier::new()?;
        let notifier = Arc::new(notifier);
        let registry: Arc<Mutex<Vec<Weak<Conn>>>> = Arc::new(Mutex::new(Vec::new()));
        let node = Arc::new(node);

        // A replica's puller thread feeds its engine from the primary.
        let puller = node.replica_state().map(|state| {
            let puller_cfg = PullerConfig {
                poll_interval: cfg.repl_poll_interval,
                auto_promote_after: cfg.auto_promote_after,
            };
            let (state, shutdown) = (Arc::clone(state), Arc::clone(&shutdown));
            std::thread::Builder::new()
                .name("qdb-repl-puller".to_string())
                .spawn(move || run_puller(state, puller_cfg, shutdown))
                .expect("spawn puller thread")
        });

        let worker_handles: Vec<JoinHandle<()>> = (0..workers)
            .map(|i| {
                let rx = Arc::clone(&job_rx);
                std::thread::Builder::new()
                    .name(format!("qdb-worker-{i}"))
                    .spawn(move || worker_loop(&rx))
                    .expect("spawn worker thread")
            })
            .collect();

        let reactor = new_reactor(
            listener,
            Arc::clone(&node),
            ReactorConfig {
                max_connections: cfg.max_connections,
                outbox_limit: cfg.outbox_limit.max(1),
                idle_timeout: cfg.idle_timeout,
            },
            Arc::clone(&metrics),
            Arc::clone(&notifier),
            wake_rx,
            Arc::clone(&shutdown),
            Arc::clone(&drain),
            job_tx.clone(),
            Arc::clone(&registry),
        )?;
        let reactor_handle = std::thread::Builder::new()
            .name("qdb-reactor".to_string())
            .spawn(move || reactor.run())
            .expect("spawn reactor thread");

        Ok(ServerHandle {
            addr: local_addr,
            node,
            metrics,
            shutdown,
            drain,
            job_tx,
            notifier,
            reactor: Some(reactor_handle),
            workers: worker_handles,
            registry,
            puller,
        })
    }
}

/// Wait for the next job. The receiver guard is scoped to this call so
/// workers hold the lock only while waiting, never while executing.
fn next_job(rx: &Mutex<Receiver<Job>>) -> Option<Job> {
    lock(rx).recv().ok()
}

fn worker_loop(rx: &Arc<Mutex<Receiver<Job>>>) {
    while let Some(job) = next_job(rx) {
        match job {
            Job::Conn(conn) => conn.drain(),
            Job::Shutdown => break,
        }
    }
}

/// Live-connection memory accounting (see [`ServerHandle::conn_memory`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConnMemory {
    /// Connections currently tracked.
    pub conns: usize,
    /// Estimated user-space bytes of per-connection state across all of
    /// them: connection struct (session + id maps headers included) plus
    /// live read-buffer and outbox capacities. Kernel socket buffers and
    /// session-cache heap allocations are not counted.
    pub bytes: u64,
}

/// A running server. Dropping the handle shuts the server down.
pub struct ServerHandle {
    addr: SocketAddr,
    node: Arc<Node>,
    metrics: Arc<ServerMetrics>,
    shutdown: Arc<AtomicBool>,
    drain: Arc<DrainSignal>,
    job_tx: Sender<Job>,
    notifier: Arc<Notifier>,
    reactor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    registry: Arc<Mutex<Vec<Weak<Conn>>>>,
    puller: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (with the actual port when `:0` was requested).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The engine that serves the node's connections — embedders can
    /// install schemas or inspect state directly while the server is
    /// live. A node has one engine for its whole life: on a replica it is
    /// the engine the stream feeds, and it stays the same engine after
    /// promotion.
    pub fn db(&self) -> SharedQuantumDb {
        self.node.db().clone()
    }

    /// Snapshot of the server-side traffic counters.
    pub fn stats(&self) -> ServerStats {
        self.metrics.snapshot()
    }

    /// `(read, write)` calls the server has made on client sockets — the
    /// serving path's syscall budget (a 16-statement pipelined call costs
    /// a few of each, not sixteen). Process-local, so not in [`ServerStats`].
    pub fn socket_calls(&self) -> (u64, u64) {
        self.metrics.socket_calls()
    }

    /// Sum the per-connection state estimate over live connections; the
    /// idle-flood test in `tests/slow_clients.rs` bounds its growth per
    /// parked idle connection.
    pub fn conn_memory(&self) -> ConnMemory {
        let mut out = ConnMemory { conns: 0, bytes: 0 };
        for conn in lock(&self.registry).iter().filter_map(Weak::upgrade) {
            out.conns += 1;
            out.bytes += conn.mem_bytes();
        }
        out
    }

    /// Block until the reactor thread exits (i.e. serve forever; used by
    /// the `qdb-server` binary).
    pub fn wait(mut self) {
        if let Some(h) = self.reactor.take() {
            let _ = h.join();
        }
    }

    /// The replica state when this server was spawned with
    /// `replicate_from` — promotion status and manual [`ReplicaState::promote`].
    pub fn replica(&self) -> Option<&Arc<ReplicaState>> {
        self.node.replica_state()
    }

    /// Stop accepting, close live connections, discard queued work, and
    /// join every thread.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    /// Graceful shutdown: stop accepting, keep the reactor and executors
    /// running until every live connection has executed its queued
    /// frames and flushed its outbox (bounded by `timeout`), then join
    /// every thread. In-flight pipelines get their replies; idle
    /// connections are closed without them losing anything.
    pub fn shutdown_graceful(mut self, timeout: Duration) {
        if !self.shutdown.load(Ordering::SeqCst) {
            self.drain.arm(timeout);
            self.notifier.wake();
            if let Some(h) = self.reactor.take() {
                let _ = h.join();
            }
        }
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake the reactor so it observes the flag; it closes the
        // listener and every connection on its way out.
        self.notifier.wake();
        if let Some(h) = self.reactor.take() {
            let _ = h.join();
        }
        // Sentinels queue *behind* any remaining work, so workers finish
        // whatever the reactor had scheduled before exiting.
        for _ in 0..self.workers.len() {
            let _ = self.job_tx.send(Job::Shutdown);
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        if let Some(h) = self.puller.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerHandle")
            .field("addr", &self.addr)
            .field("workers", &self.workers.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdb_storage::Value;
    use qdb_wire::{self as wire, Reply, Request, Response};
    use std::io::Write;
    use std::net::TcpStream;

    fn roundtrip(stream: &mut TcpStream, req: &Request) -> Reply {
        stream.write_all(&wire::encode_request(1, req)).unwrap();
        let frame = wire::read_frame(stream).unwrap().expect("reply frame");
        assert_eq!(frame.request_id, 1);
        wire::decode_reply(&frame).unwrap()
    }

    #[test]
    fn spawn_execute_shutdown() {
        let handle = Server::spawn(&ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        })
        .unwrap();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        let reply = roundtrip(
            &mut stream,
            &Request::Execute {
                sql: "CREATE TABLE T (a INT)".into(),
            },
        );
        assert_eq!(reply, Reply::Engine(Response::Ack));
        let reply = roundtrip(
            &mut stream,
            &Request::Execute {
                sql: "CREATE TABLE T (a INT)".into(),
            },
        );
        assert!(matches!(
            reply,
            Reply::Error {
                code: wire::code::STORAGE,
                ..
            }
        ));
        drop(stream);
        handle.shutdown();
    }

    #[test]
    fn garbage_frame_kind_gets_protocol_error_not_a_crash() {
        let handle = Server::spawn(&ServerConfig::default()).unwrap();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        // Hand-build a frame with an unknown kind byte.
        stream.write_all(&[5, 0, 0, 0, 0x77, 9, 0, 0, 0]).unwrap();
        let frame = wire::read_frame(&mut stream).unwrap().unwrap();
        assert_eq!(frame.request_id, 9);
        let reply = wire::decode_reply(&frame).unwrap();
        assert!(matches!(
            reply,
            Reply::Error {
                code: wire::code::PROTOCOL,
                ..
            }
        ));
        // The connection survives for well-formed follow-ups.
        let reply = roundtrip(
            &mut stream,
            &Request::Execute {
                sql: "SHOW PENDING".into(),
            },
        );
        assert_eq!(reply, Reply::Engine(Response::Pending(vec![])));
        handle.shutdown();
    }

    fn exec(stream: &mut TcpStream, sql: &str) -> Reply {
        roundtrip(
            stream,
            &Request::Execute {
                sql: sql.to_string(),
            },
        )
    }

    fn booking_sql(user: &str, flight: i64) -> String {
        format!(
            "SELECT @s FROM Available({flight}, @s) CHOOSE 1 FOLLOWED BY \
             (DELETE ({flight}, @s) FROM Available; \
              INSERT ('{user}', {flight}, @s) INTO Bookings)"
        )
    }

    fn seed_primary(stream: &mut TcpStream) {
        assert_eq!(
            exec(stream, "CREATE TABLE Available (flight INT, seat TEXT)"),
            Reply::Engine(Response::Ack)
        );
        assert_eq!(
            exec(
                stream,
                "CREATE TABLE Bookings (name TEXT, flight INT, seat TEXT)"
            ),
            Reply::Engine(Response::Ack)
        );
        for seat in ["1A", "1B", "1C"] {
            assert_eq!(
                exec(
                    stream,
                    &format!("INSERT INTO Available VALUES (1, '{seat}')")
                ),
                Reply::Engine(Response::Written(true))
            );
        }
    }

    fn replica_of(primary: &ServerHandle) -> ServerHandle {
        Server::spawn(&ServerConfig {
            replicate_from: Some(primary.addr().to_string()),
            repl_poll_interval: Duration::from_millis(2),
            ..ServerConfig::default()
        })
        .expect("replica server")
    }

    /// Poll the primary's tracker until the named replica has acked the
    /// full WAL.
    fn await_caught_up(primary_conn: &mut TcpStream) {
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            if let Reply::Engine(Response::Replication(report)) =
                exec(primary_conn, "SHOW REPLICATION")
            {
                if report
                    .replicas
                    .iter()
                    .any(|r| r.acked_offset == report.wal_len && report.wal_len > 0)
                {
                    return;
                }
            }
            assert!(
                std::time::Instant::now() < deadline,
                "replica never caught up"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn replica_follows_primary_serves_reads_and_refuses_writes() {
        let primary = Server::spawn(&ServerConfig::default()).unwrap();
        let mut p = TcpStream::connect(primary.addr()).unwrap();
        seed_primary(&mut p);
        assert!(matches!(
            exec(&mut p, &booking_sql("Mickey", 1)),
            Reply::Engine(Response::Committed(0))
        ));
        let replica = replica_of(&primary);
        await_caught_up(&mut p);

        let mut r = TcpStream::connect(replica.addr()).unwrap();
        // Reads serve at the horizon; the collapsing SELECT degrades to
        // its peek form (§3.2.2 option 2): answered against one possible
        // world without grounding anything, so Mickey's pending booking
        // consumes a seat in the answer but fixes nothing.
        let rows = exec(&mut r, "SELECT * FROM Available(@f, @s)");
        let Reply::Engine(Response::Rows(rows)) = rows else {
            panic!("replica SELECT answered {rows:?}");
        };
        assert_eq!(rows.len(), 2, "3 seats minus the pending booking's pick");
        // The pending transaction stays pending: no replica-side ground.
        assert_eq!(
            exec(&mut r, "SHOW PENDING"),
            Reply::Engine(Response::Pending(vec![0]))
        );
        // The replica reports its own role and upstream cursor.
        let rep = exec(&mut r, "SHOW REPLICATION");
        let Reply::Engine(Response::Replication(report)) = rep else {
            panic!("SHOW REPLICATION answered {rep:?}");
        };
        assert_eq!(report.role.to_string(), "replica");
        // Writes and prepared statements are refused with the typed
        // read-only code clients fail over on.
        for sql in [
            "INSERT INTO Available VALUES (9, '9Z')",
            "GROUND 0",
            "CHECKPOINT",
            &booking_sql("Donald", 1),
        ] {
            assert!(
                matches!(
                    exec(&mut r, sql),
                    Reply::Error {
                        code: wire::code::READ_ONLY,
                        ..
                    }
                ),
                "{sql} must be refused read-only"
            );
        }
        assert!(matches!(
            roundtrip(
                &mut r,
                &Request::Prepare {
                    stmt: 1,
                    sql: "SHOW PENDING".into()
                }
            ),
            Reply::Error {
                code: wire::code::READ_ONLY,
                ..
            }
        ));
        // The primary's tracker shows the replica at zero lag.
        let rep = exec(&mut p, "SHOW REPLICATION");
        let Reply::Engine(Response::Replication(report)) = rep else {
            panic!("SHOW REPLICATION answered {rep:?}");
        };
        assert_eq!(report.role.to_string(), "primary");
        let status = report.replicas.first().expect("one replica tracked");
        assert_eq!(status.lag_bytes, 0);
        assert_eq!(status.horizon, 0, "one pending txn, id 0");

        // Kill the primary and promote: the replica's engine takes writes
        // from now on, pending state intact.
        primary.shutdown();
        assert_eq!(exec(&mut r, "PROMOTE"), Reply::Engine(Response::Ack));
        assert_eq!(
            exec(&mut r, "SHOW PENDING"),
            Reply::Engine(Response::Pending(vec![0])),
            "the acknowledged booking survives promotion"
        );
        assert_eq!(
            exec(&mut r, "INSERT INTO Available VALUES (9, '9Z')"),
            Reply::Engine(Response::Written(true))
        );
        assert!(replica.replica().unwrap().is_promoted());
        replica.shutdown();
    }

    #[test]
    fn replica_auto_promotes_when_the_stream_dies() {
        let primary = Server::spawn(&ServerConfig::default()).unwrap();
        let mut p = TcpStream::connect(primary.addr()).unwrap();
        seed_primary(&mut p);
        let replica = Server::spawn(&ServerConfig {
            replicate_from: Some(primary.addr().to_string()),
            repl_poll_interval: Duration::from_millis(2),
            auto_promote_after: Some(Duration::from_millis(250)),
            ..ServerConfig::default()
        })
        .unwrap();
        await_caught_up(&mut p);
        drop(p);
        primary.shutdown();
        // The puller's contact deadline fires and the node promotes by
        // itself; a write eventually succeeds on the same listener.
        let mut r = TcpStream::connect(replica.addr()).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            match exec(&mut r, "INSERT INTO Available VALUES (2, '2A')") {
                Reply::Engine(Response::Written(true)) => break,
                Reply::Error {
                    code: wire::code::READ_ONLY,
                    ..
                } => {
                    assert!(
                        std::time::Instant::now() < deadline,
                        "auto-promotion never happened"
                    );
                    std::thread::sleep(Duration::from_millis(20));
                }
                other => panic!("unexpected reply while waiting for promotion: {other:?}"),
            }
        }
        assert!(replica.replica().unwrap().is_promoted());
        replica.shutdown();
    }

    /// After `PROMOTE` the node runs the engine it followed with, as a
    /// born primary runs it: a write and a concurrent `SHOW METRICS` from
    /// another connection both succeed — they take the engine's own
    /// fine-grained locks, not a per-node mutex — and every metrics
    /// snapshot, which continues the replica's counters, satisfies the
    /// accounting identity `committed − grounded == pending`.
    #[test]
    fn promoted_replica_serves_writes_and_concurrent_metrics_consistently() {
        let primary = Server::spawn(&ServerConfig::default()).unwrap();
        let mut p = TcpStream::connect(primary.addr()).unwrap();
        seed_primary(&mut p);
        assert!(matches!(
            exec(&mut p, &booking_sql("Mickey", 1)),
            Reply::Engine(Response::Committed(0))
        ));
        let replica = replica_of(&primary);
        await_caught_up(&mut p);
        drop(p);
        primary.shutdown();

        let mut w = TcpStream::connect(replica.addr()).unwrap();
        assert_eq!(exec(&mut w, "PROMOTE"), Reply::Engine(Response::Ack));
        let observing = AtomicBool::new(true);
        std::thread::scope(|scope| {
            let observer = scope.spawn(|| {
                let mut m = TcpStream::connect(replica.addr()).unwrap();
                let mut snapshots = 0u32;
                while observing.load(Ordering::SeqCst) || snapshots == 0 {
                    let Reply::Stats { engine, .. } = exec(&mut m, "SHOW METRICS") else {
                        panic!("SHOW METRICS on a promoted node must answer with stats");
                    };
                    let Reply::Engine(Response::Pending(pending)) = exec(&mut m, "SHOW PENDING")
                    else {
                        panic!("SHOW PENDING on a promoted node must answer");
                    };
                    // Bookings only ever add pending transactions here, so
                    // the later pending read bounds the earlier snapshot.
                    let in_flight = engine.committed - engine.grounded_total();
                    assert!(
                        in_flight as usize <= pending.len() && in_flight >= 1,
                        "committed − grounded = {in_flight} vs pending {pending:?}"
                    );
                    snapshots += 1;
                }
            });
            for user in ["Donald", "Daisy"] {
                assert!(matches!(
                    exec(&mut w, &booking_sql(user, 1)),
                    Reply::Engine(Response::Committed(_))
                ));
            }
            assert_eq!(
                exec(&mut w, "INSERT INTO Available VALUES (9, '9Z')"),
                Reply::Engine(Response::Written(true))
            );
            observing.store(false, Ordering::SeqCst);
            observer.join().unwrap();
        });
        // Quiescent: the identity is exact. Mickey survived the failover,
        // Donald and Daisy were admitted by the promoted engine.
        let Reply::Stats { engine, .. } = exec(&mut w, "SHOW METRICS") else {
            panic!("stats");
        };
        assert_eq!(engine.committed - engine.grounded_total(), 3);
        assert_eq!(
            exec(&mut w, "SHOW PENDING"),
            Reply::Engine(Response::Pending(vec![0, 1, 2]))
        );
        replica.shutdown();
    }

    /// Kill `primary` once `replica` has caught up with its seeded seats
    /// and Mickey's pending booking, and promote the replica.
    fn fail_over(primary: ServerHandle, replica: &ServerHandle) -> TcpStream {
        let mut p = TcpStream::connect(primary.addr()).unwrap();
        await_caught_up(&mut p);
        drop(p);
        primary.shutdown();
        let mut r = TcpStream::connect(replica.addr()).unwrap();
        assert_eq!(exec(&mut r, "PROMOTE"), Reply::Engine(Response::Ack));
        r
    }

    /// A primary with three seats on flight 1 and Mickey's booking pending.
    fn seeded_primary() -> ServerHandle {
        let primary = Server::spawn(&ServerConfig::default()).unwrap();
        let mut p = TcpStream::connect(primary.addr()).unwrap();
        seed_primary(&mut p);
        assert!(matches!(
            exec(&mut p, &booking_sql("Mickey", 1)),
            Reply::Engine(Response::Committed(0))
        ));
        primary
    }

    /// PREPARE, then BIND and RUN `params` through it.
    fn prepare_bind_run(stream: &mut TcpStream, id: u32, sql: &str, params: Vec<Value>) -> Reply {
        let prepared = roundtrip(
            stream,
            &Request::Prepare {
                stmt: id,
                sql: sql.into(),
            },
        );
        assert!(matches!(prepared, Reply::Prepared { stmt, .. } if stmt == id));
        let bound = roundtrip(
            stream,
            &Request::Bind {
                stmt: id,
                bound: id,
                params,
            },
        );
        assert_eq!(bound, Reply::Bound { bound: id });
        roundtrip(stream, &Request::Run { bound: id })
    }

    /// A promoted node serves prepared statements like a born primary.
    #[test]
    fn promoted_replica_serves_prepared_statements() {
        let primary = seeded_primary();
        let replica = replica_of(&primary);
        let mut r = fail_over(primary, &replica);
        let booking = "SELECT @s FROM Available(?, @s) CHOOSE 1 FOLLOWED BY \
                       (DELETE (?, @s) FROM Available; INSERT (?, ?, @s) INTO Bookings)";
        let params = vec![
            Value::from(1),
            Value::from(1),
            Value::from("Donald"),
            Value::from(1),
        ];
        assert_eq!(
            prepare_bind_run(&mut r, 1, booking, params),
            Reply::Engine(Response::Committed(1))
        );
        let peek = "SELECT PEEK @s FROM Available(?, @s)";
        let Reply::Engine(Response::Rows(rows)) =
            prepare_bind_run(&mut r, 2, peek, vec![Value::from(1)])
        else {
            panic!("prepared PEEK on a promoted node must answer rows");
        };
        assert_eq!(rows.len(), 1, "3 seats minus Mickey's and Donald's picks");
        replica.shutdown();
    }

    /// A promoted node answers `REPLICATE`/`REPL-ACK` from its own log: a
    /// fresh replica follows it from offset 0 and sees the same pending
    /// set, and the promoted node lists it in `SHOW REPLICATION`.
    #[test]
    fn a_fresh_replica_follows_a_promoted_node() {
        let primary = seeded_primary();
        let replica = replica_of(&primary);
        let mut r = fail_over(primary, &replica);
        assert!(matches!(
            exec(&mut r, &booking_sql("Donald", 1)),
            Reply::Engine(Response::Committed(1))
        ));
        let pending = exec(&mut r, "SHOW PENDING");
        assert_eq!(pending, Reply::Engine(Response::Pending(vec![0, 1])));
        let follower = replica_of(&replica);
        await_caught_up(&mut r);
        let rep = exec(&mut r, "SHOW REPLICATION");
        let Reply::Engine(Response::Replication(report)) = rep else {
            panic!("SHOW REPLICATION answered {rep:?}");
        };
        assert_eq!(report.role.to_string(), "primary");
        assert_eq!(report.replicas.len(), 1, "{report}");
        let mut f = TcpStream::connect(follower.addr()).unwrap();
        assert_eq!(exec(&mut f, "SHOW PENDING"), pending);
        follower.shutdown();
        replica.shutdown();
    }

    /// `trace_out` on a replica traces what its connections are served,
    /// while it follows and after it promotes.
    #[test]
    fn replica_traces_the_statements_it_serves_before_and_after_promotion() {
        let dir = std::env::temp_dir().join(format!("qdb-replica-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");
        let primary = seeded_primary();
        let replica = Server::spawn(&ServerConfig {
            replicate_from: Some(primary.addr().to_string()),
            repl_poll_interval: Duration::from_millis(2),
            trace_out: Some(path.display().to_string()),
            ..ServerConfig::default()
        })
        .unwrap();
        let traced = |class: &str| {
            let text = std::fs::read_to_string(&path).unwrap();
            text.lines()
                .any(|l| l.contains(&format!("\"class\":\"{class}\"")))
        };
        let mut r = TcpStream::connect(replica.addr()).unwrap();
        exec(&mut r, "SHOW PENDING");
        assert!(
            traced("SHOW PENDING"),
            "a following replica traces what it serves"
        );
        let mut r = fail_over(primary, &replica);
        assert!(!traced("INSERT"));
        assert_eq!(
            exec(&mut r, "INSERT INTO Available VALUES (9, '9Z')"),
            Reply::Engine(Response::Written(true))
        );
        assert!(traced("INSERT"), "a promoted replica traces what it serves");
        replica.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// `ServerHandle::db` on a replica is the engine its connections are
    /// served from, and promotion keeps it: a handle taken while the node
    /// followed sees the writes the promoted node takes.
    #[test]
    fn replica_handle_db_is_one_engine_before_and_after_promotion() {
        let primary = seeded_primary();
        let replica = replica_of(&primary);
        let mut p = TcpStream::connect(primary.addr()).unwrap();
        await_caught_up(&mut p);
        drop(p);
        let seats =
            |db: &SharedQuantumDb| db.with_database(|d| d.table("Available").unwrap().len());
        let following = replica.db();
        assert_eq!(seats(&following), 3);
        assert_eq!(following.pending_ids(), vec![0]);
        let mut r = fail_over(primary, &replica);
        assert_eq!(
            exec(&mut r, "INSERT INTO Available VALUES (9, '9Z')"),
            Reply::Engine(Response::Written(true))
        );
        assert_eq!(seats(&following), 4, "the write landed in the same engine");
        assert_eq!(seats(&replica.db()), 4);
        assert_eq!(following.pending_ids(), vec![0]);
        replica.shutdown();
    }

    /// A WAL sink that accepts writes but cannot be read back — what a
    /// file sink reports when the medium fails under a replication poll.
    struct UnreadableSink(qdb_storage::wal::MemorySink);

    impl qdb_storage::LogSink for UnreadableSink {
        fn append(&mut self, frame: &[u8]) -> qdb_storage::Result<()> {
            self.0.append(frame)
        }
        fn read_from(
            &self,
            _offset: u64,
            _f: &mut dyn FnMut(&[u8]) -> qdb_storage::Result<bool>,
        ) -> qdb_storage::Result<()> {
            Err(qdb_storage::StorageError::Io("sink read failed".into()))
        }
        fn len(&self) -> u64 {
            self.0.len()
        }
        fn truncate_to(&mut self, len: u64) -> qdb_storage::Result<()> {
            self.0.truncate_to(len)
        }
    }

    /// A replica's `REPLICATE` poll against a primary whose WAL sink
    /// cannot be read back is answered with a typed error frame; the
    /// executor thread that served it keeps serving.
    #[test]
    fn replication_poll_over_an_unreadable_sink_is_a_typed_error_not_a_panic() {
        let sink = UnreadableSink(qdb_storage::wal::MemorySink::default());
        let wal = qdb_storage::Wal::with_sink(Box::new(sink));
        let db = QuantumDb::with_wal(QuantumDbConfig::default(), wal).into_shared();
        // One worker: if the poll killed it, nothing below would answer.
        let handle = Server::spawn_with_db("127.0.0.1:0", 1, db).unwrap();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        assert_eq!(
            exec(&mut stream, "CREATE TABLE R (a INT)"),
            Reply::Engine(Response::Ack)
        );
        for _ in 0..2 {
            let reply = roundtrip(
                &mut stream,
                &Request::Replicate {
                    replica_id: "r1".into(),
                    from_offset: 0,
                },
            );
            let Reply::Error { code, message } = reply else {
                panic!("poll over an unreadable sink answered {reply:?}");
            };
            assert_eq!(code, wire::code::STORAGE);
            assert!(message.contains("sink read failed"), "{message}");
        }
        assert_eq!(
            exec(&mut stream, "INSERT INTO R VALUES (1)"),
            Reply::Engine(Response::Written(true))
        );
        handle.shutdown();
    }

    #[test]
    fn graceful_shutdown_answers_pipelined_work_first() {
        let handle = Server::spawn(&ServerConfig::default()).unwrap();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        // Warm-up roundtrip: the server has definitely installed us.
        assert_eq!(
            exec(&mut stream, "SHOW PENDING"),
            Reply::Engine(Response::Pending(vec![]))
        );
        let mut batch = Vec::new();
        for i in 0..50u32 {
            batch.extend_from_slice(&wire::encode_request(
                100 + i,
                &Request::Execute {
                    sql: "SHOW PENDING".into(),
                },
            ));
        }
        stream.write_all(&batch).unwrap();
        let drainer = std::thread::spawn(move || handle.shutdown_graceful(Duration::from_secs(10)));
        // Every pipelined request gets its reply before the server goes
        // away, in order.
        for i in 0..50u32 {
            let frame = wire::read_frame(&mut stream)
                .unwrap()
                .unwrap_or_else(|| panic!("connection closed before reply {i}"));
            assert_eq!(frame.request_id, 100 + i);
            assert_eq!(
                wire::decode_reply(&frame).unwrap(),
                Reply::Engine(Response::Pending(vec![]))
            );
        }
        drainer.join().unwrap();
        // After the drain the connection is actually closed.
        match wire::read_frame(&mut stream) {
            Ok(None) | Err(_) => {}
            Ok(Some(f)) => panic!("unexpected frame after graceful shutdown: {f:?}"),
        }
    }

    #[test]
    fn admission_limit_refuses_then_recovers() {
        let handle = Server::spawn(&ServerConfig {
            max_connections: 2,
            ..ServerConfig::default()
        })
        .unwrap();
        // Round-trip on both admitted connections so the server has
        // definitely registered them (connect() alone only proves the
        // kernel's SYN queue accepted us).
        let mut a = TcpStream::connect(handle.addr()).unwrap();
        let mut b = TcpStream::connect(handle.addr()).unwrap();
        for s in [&mut a, &mut b] {
            let reply = roundtrip(
                s,
                &Request::Execute {
                    sql: "SHOW PENDING".into(),
                },
            );
            assert_eq!(reply, Reply::Engine(Response::Pending(vec![])));
        }
        // The third connection is accepted then immediately closed.
        let mut refused = TcpStream::connect(handle.addr()).unwrap();
        // The write itself may already fail if the reset beat us to it.
        let _ = refused.write_all(&wire::encode_request(
            1,
            &Request::Execute {
                sql: "SHOW PENDING".into(),
            },
        ));
        match wire::read_frame(&mut refused) {
            Ok(None) | Err(_) => {} // EOF or reset: refused
            Ok(Some(f)) => panic!("refused connection got a reply: {f:?}"),
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while handle.stats().conns_refused == 0 {
            assert!(std::time::Instant::now() < deadline, "refusal not counted");
            std::thread::sleep(Duration::from_millis(5));
        }
        let stats = handle.stats();
        assert_eq!(stats.conns_refused, 1);
        assert_eq!(stats.conns_open, 2);
        assert_eq!(stats.conns_peak, 2);
        // Room frees up when an admitted connection leaves.
        drop(a);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while handle.stats().conns_open > 1 {
            assert!(std::time::Instant::now() < deadline, "close not observed");
            std::thread::sleep(Duration::from_millis(5));
        }
        let mut c = TcpStream::connect(handle.addr()).unwrap();
        let reply = roundtrip(
            &mut c,
            &Request::Execute {
                sql: "SHOW PENDING".into(),
            },
        );
        assert_eq!(reply, Reply::Engine(Response::Pending(vec![])));
        handle.shutdown();
    }
}
