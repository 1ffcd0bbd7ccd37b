//! Server-side replication: the node's one engine, the replica's state
//! and the WAL puller.
//!
//! A node serves its connections through one request path against one
//! engine for its whole life (`Node`). A replica server (`qdb-server
//! --replicate-from ADDR`) also hands that engine to a
//! [`qdb_core::ReplicaApplier`]; the puller thread polls the primary with
//! `REPLICATE` frames, applies each WAL segment through the applier's
//! choice-preserving replay, and acknowledges its horizon with
//! `REPL-ACK`. While the node follows, one rule (`ReplicaState::follow`)
//! limits it to reads at the horizon and refuses the rest with the typed
//! `READ_ONLY` code, so `qdb-client` can fail over to the primary.
//! `PROMOTE` stops the stream and the node keeps serving the same engine,
//! now as a primary, `REPLICATE` included, so a new replica can follow
//! it: the replica's log is a byte prefix of its primary's, so that is
//! what the followers read. Promotion copies no log and builds no
//! engine. The replica state only records whether the node follows, has
//! promoted or has failed; statements take the engine's own fine-grained
//! locks and never serialize behind the puller's apply.
//!
//! Promotion also happens automatically when the primary has been
//! unreachable for longer than `--promote-after-ms`: the puller tracks
//! its last successful contact and gives up on the stream past the
//! deadline. Segments already buffered but not fully framed are
//! discarded — they were never acknowledged, so no client was told they
//! are durable.

use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use qdb_core::{ReplicaApplier, ReplicaTracker, SharedQuantumDb};
use qdb_logic::{ReadMode, Statement};
use qdb_wire::{self as wire, Reply, Request, Response};

use crate::conn::engine_error;
use crate::lock;

/// Largest WAL slice shipped per `REPLICATE` poll. Well under the frame
/// bound so a segment reply can never trip `MAX_FRAME`.
pub(crate) const REPL_SEGMENT_MAX: usize = 1 << 20;

/// What serves a node's connections, shared by all of them: its one
/// engine, and the replica state when it was spawned as a replica.
pub(crate) struct Node {
    db: SharedQuantumDb,
    replica: Option<Arc<ReplicaState>>,
    /// Progress of the replicas that follow this node: a primary's, or a
    /// promoted replica's.
    tracker: Mutex<ReplicaTracker>,
}

impl Node {
    pub(crate) fn new(db: SharedQuantumDb, replica: Option<Arc<ReplicaState>>) -> Self {
        let tracker = Mutex::default();
        Node {
            db,
            replica,
            tracker,
        }
    }

    /// The replica state, when the node was spawned as a replica.
    pub(crate) fn replica_state(&self) -> Option<&Arc<ReplicaState>> {
        self.replica.as_ref()
    }

    /// The engine one request runs on, and the replica whose rule limits
    /// it while the node follows a primary. A failed replica refuses the
    /// request.
    pub(crate) fn serving(&self) -> Result<(&SharedQuantumDb, Option<&ReplicaState>), Reply> {
        let Some(state) = &self.replica else {
            return Ok((&self.db, None));
        };
        match state.following() {
            Ok(following) => Ok((&self.db, following.then_some(&**state))),
            Err(e) => Err(Reply::Error {
                code: wire::code::INVARIANT,
                message: format!("replica is out of service: {e}"),
            }),
        }
    }

    /// The engine that serves the node's connections.
    pub(crate) fn db(&self) -> &SharedQuantumDb {
        &self.db
    }

    /// `PROMOTE`: a replica promotes; a primary's engine refuses it.
    pub(crate) fn promote(&self) -> qdb_core::Result<Response> {
        match &self.replica {
            None => self.db.execute_stmt(Statement::Promote),
            Some(state) => state
                .promote()
                .map(|()| Response::Ack)
                .map_err(qdb_core::EngineError::Invariant),
        }
    }

    /// `SHOW REPLICATION`: a following replica's cursor against its
    /// upstream; otherwise the progress of the replicas following this
    /// node.
    pub(crate) fn replication(&self) -> Response {
        let upstream = self.replica.as_ref().and_then(|s| s.upstream_report());
        let report = upstream.unwrap_or_else(|| {
            lock(&self.tracker).report(self.db.wal_size(), self.db.last_txn_id())
        });
        Response::Replication(Box::new(report))
    }

    /// A follower's `REPLICATE` poll, answered from this node's log.
    pub(crate) fn poll(&self, replica_id: &str, from_offset: u64) -> Reply {
        // A sink that cannot be read back fails this poll with a typed
        // error; it must not take the executor down.
        let (primary_wal_len, last_txn_id, bytes) =
            match self.db.wal_stream_from(from_offset, REPL_SEGMENT_MAX) {
                Ok(segment) => segment,
                Err(e) => return engine_error(e),
            };
        lock(&self.tracker).observe_poll(replica_id, from_offset, primary_wal_len);
        Reply::WalSegment {
            start_offset: from_offset.min(primary_wal_len),
            primary_wal_len,
            last_txn_id,
            bytes,
        }
    }

    /// A follower's `REPL-ACK`.
    pub(crate) fn ack(&self, id: &str, applied: u64, horizon: u64) -> Reply {
        lock(&self.tracker).observe_ack(id, applied, horizon, self.db.wal_size());
        Reply::Engine(Response::Ack)
    }
}

/// Where a replica stands in its stream, behind one mutex: the puller
/// applies segments under it and `PROMOTE` ends it.
enum Stream {
    /// Applying the primary's stream; the node serves reads at its
    /// horizon.
    Following(ReplicaApplier),
    /// Promoted to primary: the node serves what a born primary serves.
    Promoted,
    /// Replay failed; the stored message answers every subsequent
    /// request. A diverged replica must not guess.
    Failed(String),
}

/// Shared state of a replica server.
pub struct ReplicaState {
    stream: Mutex<Stream>,
    source: String,
    replica_id: String,
}

impl ReplicaState {
    pub(crate) fn new(applier: ReplicaApplier, source: String, replica_id: String) -> Self {
        ReplicaState {
            stream: Mutex::new(Stream::Following(applier)),
            source,
            replica_id,
        }
    }

    /// Primary address this replica follows.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// `true` once the node has promoted (explicitly or automatically).
    pub fn is_promoted(&self) -> bool {
        matches!(*lock(&self.stream), Stream::Promoted)
    }

    /// Whether the node still follows — or, once it failed, the failure.
    fn following(&self) -> Result<bool, String> {
        match &*lock(&self.stream) {
            Stream::Following(_) => Ok(true),
            Stream::Promoted => Ok(false),
            Stream::Failed(e) => Err(e.clone()),
        }
    }

    /// The replica's own `SHOW REPLICATION` view while it follows.
    fn upstream_report(&self) -> Option<qdb_wire::ReplicationReport> {
        match &*lock(&self.stream) {
            Stream::Following(applier) => Some(applier.report()),
            _ => None,
        }
    }

    /// Next WAL byte to request from the primary; `None` once the node
    /// is no longer following the stream.
    fn poll_cursor(&self) -> Option<u64> {
        match &*lock(&self.stream) {
            Stream::Following(a) => Some(a.fetch_offset()),
            _ => None,
        }
    }

    /// Apply one shipped segment; returns `(applied_offset, horizon)`
    /// for the acknowledgement. An apply error poisons the replica into
    /// `Failed` — serving guesses after divergence would be worse than
    /// refusing.
    fn apply_segment(&self, start_offset: u64, bytes: &[u8]) -> Result<(u64, u64), String> {
        let mut stream = lock(&self.stream);
        match &mut *stream {
            Stream::Following(applier) => match applier.apply_segment(start_offset, bytes) {
                Ok(_) => Ok((applier.applied_offset(), applier.horizon())),
                Err(e) => {
                    let msg = format!("replication apply failed: {e}");
                    *stream = Stream::Failed(msg.clone());
                    Err(msg)
                }
            },
            Stream::Promoted => Err("node is promoted".into()),
            Stream::Failed(e) => Err(e.clone()),
        }
    }

    /// Promote to primary: stop following, and keep serving the engine
    /// the stream fed. Idempotent once promoted; a failed replica stays
    /// failed.
    pub fn promote(&self) -> Result<(), String> {
        let mut stream = lock(&self.stream);
        if let Stream::Failed(e) = &*stream {
            return Err(e.clone());
        }
        *stream = Stream::Promoted;
        Ok(())
    }

    /// The serving rule of a following replica, in one place. It runs an
    /// EXECUTE's read at the horizon — a collapsing SELECT as its PEEK
    /// form, since collapsing would ground transactions with local choices
    /// the primary never logged — and its PROMOTE. It refuses every other
    /// statement, and every frame but EXECUTE (`stmt` is `None`), with the
    /// `READ_ONLY` code naming the primary.
    pub(crate) fn follow(&self, stmt: Option<Statement>) -> Result<Statement, Reply> {
        let refused = match stmt {
            Some(Statement::Select(mut sel)) => {
                if sel.mode == ReadMode::Collapse {
                    sel.mode = ReadMode::Peek;
                }
                return Ok(Statement::Select(sel));
            }
            Some(
                read @ (Statement::ShowMetrics
                | Statement::ShowPending
                | Statement::ShowProfile
                | Statement::ShowEvents { .. }
                | Statement::ShowReplication
                | Statement::Promote),
            ) => return Ok(read),
            Some(write) => write.kind(),
            None => "PREPARE/BIND/RUN or replication",
        };
        Err(Reply::Error {
            code: wire::code::READ_ONLY,
            message: format!(
                "replica '{}' is read-only: {refused} must run on the primary at {}",
                self.replica_id, self.source
            ),
        })
    }
}

/// Puller knobs, split off `ServerConfig`.
pub(crate) struct PullerConfig {
    /// Sleep between polls once caught up.
    pub poll_interval: Duration,
    /// Auto-promote after this long without a successful exchange with
    /// the primary. `None` leaves promotion manual (`PROMOTE`).
    pub auto_promote_after: Option<Duration>,
}

/// Sleep in small slices so shutdown and promotion stay responsive.
fn sleep_responsive(total: Duration, shutdown: &AtomicBool, state: &ReplicaState) {
    let deadline = Instant::now() + total;
    while Instant::now() < deadline {
        if shutdown.load(Ordering::Relaxed) || state.is_promoted() {
            return;
        }
        std::thread::sleep(Duration::from_millis(5).min(total));
    }
}

/// The replication puller loop: poll, apply, ack; reconnect with bounded
/// exponential backoff; auto-promote past the dead-stream deadline.
pub(crate) fn run_puller(state: Arc<ReplicaState>, cfg: PullerConfig, shutdown: Arc<AtomicBool>) {
    const BACKOFF_MIN: Duration = Duration::from_millis(10);
    const BACKOFF_MAX: Duration = Duration::from_secs(1);
    let mut backoff = BACKOFF_MIN;
    let mut last_contact = Instant::now();
    let mut request_id: u32 = 0;
    'reconnect: while !shutdown.load(Ordering::Relaxed) && !state.is_promoted() {
        if let Some(limit) = cfg.auto_promote_after {
            if last_contact.elapsed() >= limit {
                if let Err(e) = state.promote() {
                    eprintln!("qdb-server: auto-promotion failed: {e}");
                }
                return;
            }
        }
        let mut stream = match TcpStream::connect(&state.source) {
            Ok(s) => s,
            Err(_) => {
                sleep_responsive(backoff, &shutdown, &state);
                backoff = (backoff * 2).min(BACKOFF_MAX);
                continue;
            }
        };
        let _ = stream.set_nodelay(true);
        // A primary that accepts but never answers must not block
        // auto-promotion forever.
        let _ = stream.set_read_timeout(Some(cfg.poll_interval.max(Duration::from_millis(500))));
        loop {
            if shutdown.load(Ordering::Relaxed) || state.is_promoted() {
                return;
            }
            let Some(from_offset) = state.poll_cursor() else {
                return; // promoted or failed under us
            };
            request_id = request_id.wrapping_add(1);
            let poll = wire::encode_request(
                request_id,
                &Request::Replicate {
                    replica_id: state.replica_id.clone(),
                    from_offset,
                },
            );
            if stream.write_all(&poll).is_err() {
                continue 'reconnect;
            }
            let reply = match wire::read_frame(&mut stream) {
                Ok(Some(frame)) => wire::decode_reply(&frame),
                Ok(None) | Err(_) => {
                    sleep_responsive(backoff, &shutdown, &state);
                    backoff = (backoff * 2).min(BACKOFF_MAX);
                    continue 'reconnect;
                }
            };
            match reply {
                Ok(Reply::WalSegment {
                    start_offset,
                    bytes,
                    ..
                }) => {
                    last_contact = Instant::now();
                    backoff = BACKOFF_MIN;
                    if bytes.is_empty() {
                        sleep_responsive(cfg.poll_interval, &shutdown, &state);
                        continue;
                    }
                    let (applied_offset, horizon) = match state.apply_segment(start_offset, &bytes)
                    {
                        Ok(progress) => progress,
                        Err(e) => {
                            eprintln!("qdb-server: replication stopped: {e}");
                            return;
                        }
                    };
                    request_id = request_id.wrapping_add(1);
                    let ack = wire::encode_request(
                        request_id,
                        &Request::ReplAck {
                            replica_id: state.replica_id.clone(),
                            applied_offset,
                            horizon,
                        },
                    );
                    if stream.write_all(&ack).is_err() {
                        continue 'reconnect;
                    }
                    match wire::read_frame(&mut stream) {
                        Ok(Some(_)) => {}
                        Ok(None) | Err(_) => continue 'reconnect,
                    }
                }
                // The peer answered but not with a segment (it may be a
                // replica itself, mid-promotion): stay connected, retry
                // after a poll interval.
                Ok(_) => sleep_responsive(cfg.poll_interval, &shutdown, &state),
                Err(_) => continue 'reconnect,
            }
        }
    }
}
