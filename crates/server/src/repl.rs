//! Server-side replication: replica serving state and the WAL puller.
//!
//! A replica server (`qdb-server --replicate-from ADDR`) owns its engine
//! through a [`ReplicaState`] instead of the usual shared session stack.
//! The puller thread polls the primary with `REPLICATE` frames, applies
//! each returned WAL segment through the choice-preserving replay in
//! [`qdb_core::ReplicaApplier`], and acknowledges its durable horizon
//! with `REPL-ACK`. Connections on a replica route every request through
//! the same state: reads execute at the replica's horizon (a `SELECT`
//! degrades to its `PEEK` form — collapsing would make local choices the
//! primary never logged), writes are refused with the typed
//! `READ_ONLY` error code so `qdb-client` can fail over to the primary,
//! and `PROMOTE` turns the node into a writable primary by recovering
//! from the locally re-logged WAL — exactly the crash-recovery path.
//! Following or promoted, the node runs the same [`SharedQuantumDb`] a
//! born primary runs: the state mutex only picks the serving rules and
//! hands out an engine handle, so statements take the engine's own
//! fine-grained locks and never serialize behind the puller's apply.
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

use qdb_core::wire::{self, Reply, Request};
use qdb_core::{ReplicaApplier, ReplicaTracker, Response, SharedQuantumDb, StmtCache};
use qdb_logic::{ReadMode, Statement};

use crate::conn::{engine_error, executable};
use crate::metrics::ServerMetrics;

/// Largest WAL slice shipped per `REPLICATE` poll. Well under the frame
/// bound so a segment reply can never trip `MAX_FRAME`.
pub(crate) const REPL_SEGMENT_MAX: usize = 1 << 20;

/// Which serving personality a connection was accepted under.
#[derive(Clone)]
pub(crate) enum ConnRole {
    /// Normal server: sessions execute against the shared engine, and
    /// `REPLICATE`/`REPL-ACK` frames are answered from the WAL, with
    /// per-replica progress recorded in the tracker.
    Primary { tracker: Arc<Mutex<ReplicaTracker>> },
    /// Replica server: every request routes through the replica state.
    Replica { state: Arc<ReplicaState> },
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
    /// subsequent request. A diverged replica must not guess.
    Failed(String),
    /// Transient marker while promotion runs (the mutex is held).
    Promoting,
}

/// Shared state of a replica server.
pub struct ReplicaState {
    engine: Mutex<ReplicaEngine>,
    /// Statement templates of every connection. Parsed statements name no
    /// engine, so the cache serves the promoted engine too.
    stmts: StmtCache,
    source: String,
    replica_id: String,
    promoted: AtomicBool,
}

impl ReplicaState {
    pub(crate) fn new(
        applier: ReplicaApplier,
        source: String,
        replica_id: String,
        stmt_cache: usize,
    ) -> Self {
        ReplicaState {
            engine: Mutex::new(ReplicaEngine::Following(Box::new(applier))),
            stmts: StmtCache::new(stmt_cache),
            source,
            replica_id,
            promoted: AtomicBool::new(false),
        }
    }

    /// Primary address this replica follows.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// `true` once the node has promoted (explicitly or automatically).
    pub fn is_promoted(&self) -> bool {
        self.promoted.load(Ordering::Acquire)
    }

    /// Next WAL byte to request from the primary; `None` once the node
    /// is no longer following the stream.
    fn poll_cursor(&self) -> Option<u64> {
        match &*crate::lock(&self.engine) {
            ReplicaEngine::Following(a) => Some(a.fetch_offset()),
            _ => None,
        }
    }

    /// Apply one shipped segment; returns `(applied_offset, horizon)`
    /// for the acknowledgement. An apply error poisons the replica into
    /// `Failed` — serving guesses after divergence would be worse than
    /// refusing.
    fn apply_segment(&self, start_offset: u64, bytes: &[u8]) -> Result<(u64, u64), String> {
        let mut engine = crate::lock(&self.engine);
        match &mut *engine {
            ReplicaEngine::Following(applier) => match applier.apply_segment(start_offset, bytes) {
                Ok(_) => Ok((applier.applied_offset(), applier.horizon())),
                Err(e) => {
                    let msg = format!("replication apply failed: {e}");
                    *engine = ReplicaEngine::Failed(msg.clone());
                    Err(msg)
                }
            },
            ReplicaEngine::Promoted(_) => Err("node is promoted".into()),
            ReplicaEngine::Failed(e) => Err(e.clone()),
            ReplicaEngine::Promoting => Err("promotion in progress".into()),
        }
    }

    /// Promote to primary: recover a writable engine from the locally
    /// re-logged WAL (the crash-recovery path). Idempotent once
    /// promoted.
    pub fn promote(&self) -> Result<(), String> {
        let mut engine = crate::lock(&self.engine);
        match std::mem::replace(&mut *engine, ReplicaEngine::Promoting) {
            ReplicaEngine::Following(applier) => match applier.promote() {
                Ok(db) => {
                    *engine = ReplicaEngine::Promoted(db);
                    self.promoted.store(true, Ordering::Release);
                    Ok(())
                }
                Err(e) => {
                    let msg = format!("promotion failed: {e}");
                    *engine = ReplicaEngine::Failed(msg.clone());
                    Err(msg)
                }
            },
            promoted @ ReplicaEngine::Promoted(_) => {
                *engine = promoted;
                Ok(())
            }
            ReplicaEngine::Failed(e) => {
                *engine = ReplicaEngine::Failed(e.clone());
                Err(e)
            }
            ReplicaEngine::Promoting => unreachable!("promotion runs under the engine mutex"),
        }
    }

    /// Execute one statement under the replica's serving rules.
    pub(crate) fn execute(&self, sql: &str, server: &ServerMetrics) -> Reply {
        // Pick the serving engine and rules under the mutex; parse (counted
        // and timed on that engine) and execute outside it.
        let (db, following) = match &*crate::lock(&self.engine) {
            ReplicaEngine::Following(applier) => (applier.db().clone(), true),
            ReplicaEngine::Promoted(db) => (db.clone(), false),
            ReplicaEngine::Failed(e) => return out_of_service(e),
            ReplicaEngine::Promoting => unreachable!("promotion runs under the engine mutex"),
        };
        let stmt = match executable(self.stmts.parse(&db, sql)) {
            Ok(stmt) => stmt,
            Err(refusal) => return refusal,
        };
        server.statement(stmt.class());
        let stmt = match stmt {
            Statement::Promote => {
                return match self.promote() {
                    Ok(()) => Reply::Engine(Response::Ack),
                    Err(e) => Reply::Error {
                        code: wire::code::INVARIANT,
                        message: e,
                    },
                }
            }
            Statement::ShowReplication if following => {
                if let ReplicaEngine::Following(applier) = &*crate::lock(&self.engine) {
                    return Reply::Engine(Response::Replication(Box::new(applier.report())));
                }
                // Promoted or failed meanwhile: the engine answers for itself.
                Statement::ShowReplication
            }
            stmt if following => match self.restrict_to_reads(stmt) {
                Ok(read) => read,
                Err(refusal) => return refusal,
            },
            stmt => stmt,
        };
        match db.execute_stmt(stmt) {
            Ok(Response::Metrics(m)) => Reply::Stats {
                engine: m,
                server: server.snapshot(),
                profile: Some(Box::new(db.profile())),
            },
            Ok(r) => Reply::Engine(r),
            Err(e) => engine_error(e),
        }
    }

    /// What a following replica serves: reads at its horizon. Everything
    /// else is refused with the `READ_ONLY` code naming the primary.
    fn restrict_to_reads(&self, stmt: Statement) -> Result<Statement, Reply> {
        match stmt {
            // Collapsing reads would ground transactions with locally
            // made choices the primary never logged; a replica serves
            // the peek form of the same query at its horizon instead.
            Statement::Select(mut sel) => {
                if sel.mode == ReadMode::Collapse {
                    sel.mode = ReadMode::Peek;
                }
                Ok(Statement::Select(sel))
            }
            read @ (Statement::ShowMetrics
            | Statement::ShowPending
            | Statement::ShowProfile
            | Statement::ShowEvents { .. }
            | Statement::ShowReplication) => Ok(read),
            write => Err(Reply::Error {
                code: wire::code::READ_ONLY,
                message: format!(
                    "replica '{}' is read-only: {} must run on the primary at {}",
                    self.replica_id,
                    write.kind(),
                    self.source
                ),
            }),
        }
    }
}

/// The reply of a replica whose replay or promotion failed.
fn out_of_service(e: &str) -> Reply {
    Reply::Error {
        code: wire::code::INVARIANT,
        message: format!("replica is out of service: {e}"),
    }
}

/// Puller knobs, split off `ServerConfig`.
pub(crate) struct PullerConfig {
    pub source: String,
    pub replica_id: String,
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
        let mut stream = match TcpStream::connect(&cfg.source) {
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
                    replica_id: cfg.replica_id.clone(),
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
                            replica_id: cfg.replica_id.clone(),
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
