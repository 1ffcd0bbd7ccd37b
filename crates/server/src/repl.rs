//! Server-side replication: the node's role, the replica's state and the
//! WAL puller.
//!
//! Every node serves its connections through one request path against
//! one engine, which the node's role (`Node`) supplies: a primary's
//! fixed handle, or the engine a replica serves now. A replica server
//! (`qdb-server --replicate-from ADDR`) hands its one engine to a
//! [`qdb_core::ReplicaApplier`]; the puller thread polls the primary with
//! `REPLICATE` frames, applies each WAL segment through the applier's
//! choice-preserving replay, and acknowledges its horizon with
//! `REPL-ACK`. While the node follows, one rule (`ReplicaState::follow`)
//! limits it to reads at the horizon and refuses the rest with the typed
//! `READ_ONLY` code, so `qdb-client` can fail over to the primary.
//! `PROMOTE` recovers a writable engine from the locally re-logged WAL —
//! exactly the crash-recovery path — and the node then serves what a born
//! primary serves, `REPLICATE` included, so a new replica can follow it.
//! The state mutex only hands out the serving engine, so statements take
//! the engine's own fine-grained locks and never serialize behind the
//! puller's apply.
//!
//! Promotion also happens automatically when the primary has been
//! unreachable for longer than `--promote-after-ms`: the puller tracks
//! its last successful contact and gives up on the stream past the
//! deadline. Segments already buffered but not fully framed are
//! discarded — they were never acknowledged, so no client was told they
//! are durable.

use std::borrow::Cow;
use std::fs::File;
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

/// What serves a node's connections, shared by all of them.
pub(crate) struct Node {
    role: Role,
    /// Progress of the replicas that follow this node: a primary's, or a
    /// promoted replica's.
    tracker: Mutex<ReplicaTracker>,
}

pub(crate) enum Role {
    Primary(SharedQuantumDb),
    Replica(Arc<ReplicaState>),
}

impl Node {
    pub(crate) fn new(role: Role) -> Self {
        let tracker = Mutex::default();
        Node { role, tracker }
    }

    /// The replica state, when the node was spawned as a replica.
    pub(crate) fn replica_state(&self) -> Option<&Arc<ReplicaState>> {
        match &self.role {
            Role::Primary(_) => None,
            Role::Replica(state) => Some(state),
        }
    }

    /// The engine one request runs on, and the replica whose rule limits
    /// it while the node follows a primary. A primary borrows its fixed
    /// handle (no lock); a replica takes its engine from the state mutex,
    /// and a failed one refuses the request.
    pub(crate) fn serving(
        &self,
    ) -> Result<(Cow<'_, SharedQuantumDb>, Option<&ReplicaState>), Reply> {
        match &self.role {
            Role::Primary(db) => Ok((Cow::Borrowed(db), None)),
            Role::Replica(state) => match state.serving() {
                (db, Ok(following)) => Ok((Cow::Owned(db), following.then_some(&**state))),
                (_, Err(e)) => Err(Reply::Error {
                    code: wire::code::INVARIANT,
                    message: format!("replica is out of service: {e}"),
                }),
            },
        }
    }

    /// The engine that serves the node's connections now.
    pub(crate) fn db(&self) -> SharedQuantumDb {
        match &self.role {
            Role::Primary(db) => db.clone(),
            Role::Replica(state) => state.serving().0,
        }
    }

    /// `PROMOTE`: a replica promotes; a primary's engine refuses it.
    pub(crate) fn promote(&self, db: &SharedQuantumDb) -> qdb_core::Result<Response> {
        match &self.role {
            Role::Primary(_) => db.execute_stmt(Statement::Promote),
            Role::Replica(state) => state
                .promote()
                .map(|()| Response::Ack)
                .map_err(qdb_core::EngineError::Invariant),
        }
    }

    /// `SHOW REPLICATION`: a following replica's cursor against its
    /// upstream; otherwise the progress of the replicas following `db`.
    pub(crate) fn replication(&self, db: &SharedQuantumDb) -> Response {
        let upstream = self.replica_state().and_then(|s| s.upstream_report());
        let report =
            upstream.unwrap_or_else(|| lock(&self.tracker).report(db.wal_size(), db.last_txn_id()));
        Response::Replication(Box::new(report))
    }

    /// A follower's `REPLICATE` poll, answered from `db`'s log.
    pub(crate) fn poll(&self, db: &SharedQuantumDb, replica_id: &str, from_offset: u64) -> Reply {
        // A sink that cannot be read back fails this poll with a typed
        // error; it must not take the executor down.
        let (primary_wal_len, last_txn_id, bytes) =
            match db.wal_stream_from(from_offset, REPL_SEGMENT_MAX) {
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
    pub(crate) fn ack(&self, db: &SharedQuantumDb, id: &str, applied: u64, horizon: u64) -> Reply {
        lock(&self.tracker).observe_ack(id, applied, horizon, db.wal_size());
        Reply::Engine(Response::Ack)
    }
}

/// The replica's mode behind one mutex: the puller applies segments under
/// it, connections take an engine handle from it, and `PROMOTE` swaps the
/// whole mode over.
enum ReplicaEngine {
    /// Applying the primary's stream; serves reads at its horizon.
    Following(Box<ReplicaApplier>),
    /// Promoted to primary: a fully writable engine recovered from the
    /// locally re-logged WAL.
    Promoted(SharedQuantumDb),
    /// Replay or promotion failed; the stored message answers every
    /// subsequent request. A diverged replica must not guess. The engine
    /// is the last one the node served.
    Failed(SharedQuantumDb, String),
    /// Transient marker while promotion runs (the mutex is held).
    Promoting,
}

/// Shared state of a replica server.
pub struct ReplicaState {
    engine: Mutex<ReplicaEngine>,
    source: String,
    replica_id: String,
    /// The `--trace-out` sink, installed on the promoted engine too.
    trace: Option<Arc<File>>,
}

impl ReplicaState {
    pub(crate) fn new(
        applier: ReplicaApplier,
        source: String,
        replica_id: String,
        trace: Option<Arc<File>>,
    ) -> Self {
        ReplicaState {
            engine: Mutex::new(ReplicaEngine::Following(Box::new(applier))),
            source,
            replica_id,
            trace,
        }
    }

    /// Primary address this replica follows.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// `true` once the node has promoted (explicitly or automatically).
    pub fn is_promoted(&self) -> bool {
        matches!(*lock(&self.engine), ReplicaEngine::Promoted(_))
    }

    /// The engine serving now, and whether the node still follows — or,
    /// once it failed, the last engine it served and the failure.
    fn serving(&self) -> (SharedQuantumDb, Result<bool, String>) {
        match &*lock(&self.engine) {
            ReplicaEngine::Following(applier) => (applier.db().clone(), Ok(true)),
            ReplicaEngine::Promoted(db) => (db.clone(), Ok(false)),
            ReplicaEngine::Failed(db, e) => (db.clone(), Err(e.clone())),
            ReplicaEngine::Promoting => unreachable!("promotion runs under the engine mutex"),
        }
    }

    /// The replica's own `SHOW REPLICATION` view while it follows.
    fn upstream_report(&self) -> Option<qdb_wire::ReplicationReport> {
        match &*lock(&self.engine) {
            ReplicaEngine::Following(applier) => Some(applier.report()),
            _ => None,
        }
    }

    /// Next WAL byte to request from the primary; `None` once the node
    /// is no longer following the stream.
    fn poll_cursor(&self) -> Option<u64> {
        match &*lock(&self.engine) {
            ReplicaEngine::Following(a) => Some(a.fetch_offset()),
            _ => None,
        }
    }

    /// Apply one shipped segment; returns `(applied_offset, horizon)`
    /// for the acknowledgement. An apply error poisons the replica into
    /// `Failed` — serving guesses after divergence would be worse than
    /// refusing.
    fn apply_segment(&self, start_offset: u64, bytes: &[u8]) -> Result<(u64, u64), String> {
        let mut engine = lock(&self.engine);
        match &mut *engine {
            ReplicaEngine::Following(applier) => match applier.apply_segment(start_offset, bytes) {
                Ok(_) => Ok((applier.applied_offset(), applier.horizon())),
                Err(e) => {
                    let msg = format!("replication apply failed: {e}");
                    *engine = ReplicaEngine::Failed(applier.db().clone(), msg.clone());
                    Err(msg)
                }
            },
            ReplicaEngine::Promoted(_) => Err("node is promoted".into()),
            ReplicaEngine::Failed(_, e) => Err(e.clone()),
            ReplicaEngine::Promoting => Err("promotion in progress".into()),
        }
    }

    /// Promote to primary: recover a writable engine from the locally
    /// re-logged WAL (the crash-recovery path). Idempotent once
    /// promoted.
    pub fn promote(&self) -> Result<(), String> {
        let mut engine = lock(&self.engine);
        match std::mem::replace(&mut *engine, ReplicaEngine::Promoting) {
            ReplicaEngine::Following(applier) => {
                let following = applier.db().clone();
                match applier.promote() {
                    Ok(db) => {
                        if let Some(file) = &self.trace {
                            db.obs().set_trace(Some(Box::new(Arc::clone(file))));
                        }
                        *engine = ReplicaEngine::Promoted(db);
                        Ok(())
                    }
                    Err(e) => {
                        let msg = format!("promotion failed: {e}");
                        *engine = ReplicaEngine::Failed(following, msg.clone());
                        Err(msg)
                    }
                }
            }
            ReplicaEngine::Failed(db, e) => {
                *engine = ReplicaEngine::Failed(db, e.clone());
                Err(e)
            }
            promoted => {
                *engine = promoted;
                Ok(())
            }
        }
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
