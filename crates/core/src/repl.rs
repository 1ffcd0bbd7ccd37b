//! Primary/replica WAL-shipping replication.
//!
//! The paper's quantum reads are naturally stale-tolerant: a replica's
//! possible worlds at its **replication horizon** (the highest transaction
//! id it has applied) are a valid answer to any §3.2.2 read — the
//! uncertainty a replica reports is real uncertainty the primary also had
//! at that point in the log. That makes log shipping the whole replication
//! story: the primary's WAL *is* the state (log order equals txn-id
//! order), so a replica that replays a byte-exact prefix of the primary's
//! log holds a byte-exact earlier version of the primary's quantum state.
//!
//! The pieces, bottom-up:
//!
//! * [`SharedQuantumDb::apply_replicated`] — replay one primary log record
//!   into a replica engine, through the engine's ordinary statement paths
//!   in *replay mode*. Unlike crash recovery (which re-solves pending
//!   transactions from scratch), replicated replay is **incremental** and
//!   **choice-preserving**: a `Ground` record applies the primary's logged
//!   write ops verbatim, never re-solving — both nodes land in the same
//!   world. It takes the same slot/base/WAL locks as any statement, so
//!   PEEK/POSSIBLE readers run concurrently with the stream.
//! * [`ReplicaApplier`] — a replica engine plus stream cursor. The primary
//!   slices its WAL at arbitrary byte offsets (it neither knows nor cares
//!   about frame boundaries), so the applier feeds each segment to a
//!   [`qdb_storage::wal::FrameReader`], which carries the partial-frame
//!   tail and yields each frame to apply as soon as it completes.
//! * [`ReplicaTracker`] — the primary-side ledger of per-replica progress
//!   backing `SHOW REPLICATION`.
//! * [`SharedQuantumDb::wal_stream_from`] — the primary-side read: one
//!   bounded chunk of WAL bytes past an offset, read and copied by range.
//!
//! Promotion ([`ReplicaApplier::promote`]) reuses crash recovery: the
//! replica's local WAL (written record-for-record during replay) is
//! re-recovered exactly as if the process had crashed, which both proves
//! the log is a valid engine history and resets solver/metrics state for
//! a primary's write workload. A promoted node therefore runs exactly the
//! engine a born primary runs.

use std::collections::BTreeMap;

use qdb_storage::wal::{FrameReader, MemorySink};
use qdb_storage::{LogRecord, Wal};

use crate::engine::QuantumDb;
use crate::error::EngineError;
use crate::shard::SharedQuantumDb;
use crate::txn::TxnId;
use crate::Result;

/// Which side of the replication stream a node is on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicationRole {
    /// Accepts writes; serves WAL segments to replicas.
    Primary,
    /// Applies the primary's WAL; serves reads at its horizon; refuses
    /// writes.
    Replica,
}

impl std::fmt::Display for ReplicationRole {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplicationRole::Primary => write!(f, "primary"),
            ReplicationRole::Replica => write!(f, "replica"),
        }
    }
}

/// One replica's progress as the primary sees it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaStatus {
    /// Replica-chosen identifier (stable across reconnects).
    pub id: String,
    /// Primary WAL bytes the replica has fully applied (its last ack).
    pub acked_offset: u64,
    /// Replication horizon: highest transaction id the replica has
    /// applied. Reads served by the replica are explainable at this id.
    pub horizon: TxnId,
    /// Primary WAL length minus `acked_offset` at the last observation.
    pub lag_bytes: u64,
    /// WAL segments served to this replica (polls answered).
    pub segments: u64,
}

/// The `SHOW REPLICATION` payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicationReport {
    /// This node's role.
    pub role: ReplicationRole,
    /// Local WAL length in bytes (on a replica: bytes applied locally).
    pub wal_len: u64,
    /// Highest transaction id this node has assigned (primary) or applied
    /// (replica); 0 when none.
    pub last_txn_id: TxnId,
    /// Per-replica progress (primary only; replicas report their own
    /// upstream cursor as a single entry named `upstream`).
    pub replicas: Vec<ReplicaStatus>,
}

impl std::fmt::Display for ReplicationReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} wal_len={} last_txn={} replicas={}",
            self.role,
            self.wal_len,
            self.last_txn_id,
            self.replicas.len()
        )?;
        for r in &self.replicas {
            write!(
                f,
                " [{} acked={} horizon={} lag={} segments={}]",
                r.id, r.acked_offset, r.horizon, r.lag_bytes, r.segments
            )?;
        }
        Ok(())
    }
}

/// Primary-side ledger of replica progress. Purely observational — the
/// primary never waits for acks (replication is asynchronous; the
/// durability point is the primary's own WAL, as before).
#[derive(Debug, Clone, Default)]
pub struct ReplicaTracker {
    replicas: BTreeMap<String, ReplicaStatus>,
}

impl ReplicaTracker {
    /// Empty ledger.
    pub fn new() -> Self {
        ReplicaTracker::default()
    }

    /// A replica polled for bytes past `from_offset` (counts the answered
    /// segment and refreshes lag against `wal_len`).
    pub fn observe_poll(&mut self, id: &str, from_offset: u64, wal_len: u64) {
        let entry = self.entry(id);
        entry.segments += 1;
        entry.lag_bytes = wal_len.saturating_sub(from_offset.max(entry.acked_offset));
    }

    /// A replica acknowledged `applied_offset` / `horizon`.
    pub fn observe_ack(&mut self, id: &str, applied_offset: u64, horizon: TxnId, wal_len: u64) {
        let entry = self.entry(id);
        entry.acked_offset = entry.acked_offset.max(applied_offset);
        entry.horizon = entry.horizon.max(horizon);
        entry.lag_bytes = wal_len.saturating_sub(entry.acked_offset);
    }

    /// Progress of one replica, if it has ever polled or acked.
    pub fn status(&self, id: &str) -> Option<&ReplicaStatus> {
        self.replicas.get(id)
    }

    /// The `SHOW REPLICATION` report for a primary at `wal_len` /
    /// `last_txn_id`.
    pub fn report(&self, wal_len: u64, last_txn_id: TxnId) -> ReplicationReport {
        ReplicationReport {
            role: ReplicationRole::Primary,
            wal_len,
            last_txn_id,
            replicas: self
                .replicas
                .values()
                .map(|r| ReplicaStatus {
                    lag_bytes: wal_len.saturating_sub(r.acked_offset),
                    ..r.clone()
                })
                .collect(),
        }
    }

    fn entry(&mut self, id: &str) -> &mut ReplicaStatus {
        self.replicas
            .entry(id.to_string())
            .or_insert_with(|| ReplicaStatus {
                id: id.to_string(),
                acked_offset: 0,
                horizon: 0,
                lag_bytes: 0,
                segments: 0,
            })
    }
}

impl SharedQuantumDb {
    /// Replay one primary log record into this (replica) engine.
    ///
    /// DDL and blind writes go through the normal statement paths (which
    /// re-log them locally, keeping the replica's WAL a valid history for
    /// promotion). `PendingAdd` re-admits the transaction under the
    /// primary's id without partner grounding or k-enforcement; `Ground`
    /// applies the primary's logged ops **verbatim** — re-solving locally
    /// could pick a different world than the primary did, silently
    /// diverging the two nodes. (A legacy `PendingRemove` is a `Ground`
    /// with no ops, and is re-logged as one.)
    pub fn apply_replicated(&self, record: &LogRecord) -> Result<()> {
        match record {
            LogRecord::CreateTable(schema) => self.create_table(schema.clone()),
            LogRecord::CreateIndex { relation, column } => {
                // Idempotent: the replica may have auto-promoted the same
                // index from its own read traffic.
                self.create_index(relation, *column as usize)
            }
            LogRecord::Write(op) => {
                if !self.write(op.clone())? {
                    return Err(EngineError::Invariant(format!(
                        "replicated write on '{}' was rejected locally — replica state \
                         diverged from the stream",
                        op.relation()
                    )));
                }
                Ok(())
            }
            LogRecord::PendingAdd { id, payload } => self.replay_pending_add(*id, payload, true),
            LogRecord::PendingRemove { id } => self.replay_ground(*id, &[]),
            LogRecord::Ground { id, ops } => self.replay_ground(*id, ops),
            LogRecord::Checkpoint => self.checkpoint(),
        }
    }
}

/// A replica engine plus its stream cursor.
///
/// The primary slices its WAL at arbitrary byte offsets; the applier
/// buffers whatever partial frame trails a segment and advances its
/// applied offset only by fully-replayed bytes, so stream progress is
/// exact regardless of how the segments happen to split frames.
#[derive(Debug)]
pub struct ReplicaApplier {
    db: SharedQuantumDb,
    /// The stream's framing: its carried bytes are the partial frame
    /// trailing the last segment, its consumed count the primary WAL
    /// bytes fully applied.
    reader: FrameReader,
    /// Highest transaction id applied (`PendingAdd` / `Ground`).
    horizon: TxnId,
    /// Segments applied (non-empty `apply_segment` calls).
    segments: u64,
}

impl ReplicaApplier {
    /// Wrap a fresh engine (it should be empty: the stream starts at
    /// offset 0 and replays the primary's history from the beginning).
    pub fn new(db: SharedQuantumDb) -> Self {
        ReplicaApplier {
            db,
            reader: FrameReader::new(),
            horizon: 0,
            segments: 0,
        }
    }

    /// The replica engine. Reads are served from here — clone the handle
    /// to serve PEEK/POSSIBLE concurrently with [`Self::apply_segment`].
    pub fn db(&self) -> &SharedQuantumDb {
        &self.db
    }

    /// Primary WAL bytes fully applied.
    pub fn applied_offset(&self) -> u64 {
        self.reader.consumed()
    }

    /// Where the next poll should start: applied bytes plus the buffered
    /// partial frame.
    pub fn fetch_offset(&self) -> u64 {
        self.reader.consumed() + self.reader.carried() as u64
    }

    /// Replication horizon: highest transaction id applied.
    pub fn horizon(&self) -> TxnId {
        self.horizon
    }

    /// Segments applied so far.
    pub fn segments(&self) -> u64 {
        self.segments
    }

    /// This replica's own `SHOW REPLICATION` view: a single `upstream`
    /// entry carrying its cursor.
    pub fn report(&self) -> ReplicationReport {
        ReplicationReport {
            role: ReplicationRole::Replica,
            wal_len: self.applied_offset(),
            last_txn_id: self.horizon,
            replicas: vec![ReplicaStatus {
                id: "upstream".to_string(),
                acked_offset: self.applied_offset(),
                horizon: self.horizon,
                lag_bytes: self.reader.carried() as u64,
                segments: self.segments,
            }],
        }
    }

    /// Apply one WAL segment. `start_offset` must equal
    /// [`ReplicaApplier::fetch_offset`] — segments are a contiguous byte
    /// stream. Returns the number of log records applied (0 when the
    /// segment only extended a partial frame). A frame that fails its
    /// checksum or does not decode is an error: the primary serves only
    /// frames it logged, so such a stream has diverged.
    pub fn apply_segment(&mut self, start_offset: u64, bytes: &[u8]) -> Result<usize> {
        if start_offset != self.fetch_offset() {
            return Err(EngineError::Invariant(format!(
                "replication segment starts at byte {start_offset} but the stream \
                 cursor is at {}",
                self.fetch_offset()
            )));
        }
        if bytes.is_empty() {
            return Ok(0);
        }
        let (db, horizon) = (&self.db, &mut self.horizon);
        let mut applied = 0;
        let intact = self.reader.feed(bytes, |record, _| {
            db.apply_replicated(&record)?;
            if let LogRecord::PendingAdd { id, .. } | LogRecord::Ground { id, .. } = record {
                *horizon = (*horizon).max(id);
            }
            applied += 1;
            Ok::<(), EngineError>(())
        })?;
        if !intact {
            return Err(EngineError::Invariant(format!(
                "replication stream holds a corrupt frame at byte {}",
                self.reader.consumed()
            )));
        }
        self.segments += 1;
        Ok(applied)
    }

    /// Promote: recover a primary-ready engine from the replica's local
    /// WAL, exactly as crash recovery would (the buffered partial frame is
    /// discarded — it was never applied, hence never acknowledged by this
    /// replica). Proves the replayed log is a valid engine history.
    pub fn promote(self) -> Result<SharedQuantumDb> {
        let config = self.db.config().clone();
        let image = self.db.try_wal_image()?;
        let wal = Wal::with_sink(Box::new(MemorySink::from_bytes(image)));
        Ok(QuantumDb::recover(wal, config)?.into_shared())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::QuantumDbConfig;
    use crate::worlds::world_fingerprint;
    use qdb_logic::parse_transaction;
    use qdb_storage::{tuple, Schema, ValueType};

    fn primary() -> SharedQuantumDb {
        let qdb = QuantumDb::new(QuantumDbConfig::default())
            .unwrap()
            .into_shared();
        qdb.create_table(Schema::new(
            "Available",
            vec![("flight", ValueType::Int), ("seat", ValueType::Str)],
        ))
        .unwrap();
        qdb.create_table(Schema::new(
            "Bookings",
            vec![
                ("name", ValueType::Str),
                ("flight", ValueType::Int),
                ("seat", ValueType::Str),
            ],
        ))
        .unwrap();
        for s in ["1A", "1B", "1C"] {
            qdb.bulk_insert("Available", vec![tuple![1, s]]).unwrap();
        }
        qdb
    }

    fn book(name: &str) -> qdb_logic::ResourceTransaction {
        parse_transaction(&format!(
            "-Available(1, s), +Bookings('{name}', 1, s) :-1 Available(1, s)"
        ))
        .unwrap()
    }

    fn replica() -> ReplicaApplier {
        ReplicaApplier::new(
            QuantumDb::new(QuantumDbConfig::default())
                .unwrap()
                .into_shared(),
        )
    }

    /// Stream the primary's whole WAL in `chunk`-byte segments.
    fn ship(primary: &SharedQuantumDb, replica: &mut ReplicaApplier, chunk: usize) {
        loop {
            let (len, _, bytes) = primary
                .wal_stream_from(replica.fetch_offset(), chunk)
                .unwrap();
            if bytes.is_empty() {
                assert_eq!(replica.fetch_offset(), len, "caught up means offset == len");
                break;
            }
            let at = replica.fetch_offset();
            replica.apply_segment(at, &bytes).unwrap();
        }
    }

    #[test]
    fn replica_replays_to_identical_state_at_any_chunk_size() {
        // Odd chunk sizes force partial frames at every possible split.
        for chunk in [1, 3, 7, 64, 4096] {
            let p = primary();
            assert!(p.submit(&book("Mickey")).unwrap().is_committed());
            assert!(p.submit(&book("Donald")).unwrap().is_committed());
            p.write(qdb_storage::WriteOp::insert("Available", tuple![1, "1D"]))
                .unwrap();
            let mut r = replica();
            ship(&p, &mut r, chunk);
            assert_eq!(r.db().pending_count(), 2);
            assert_eq!(r.horizon(), 1, "two pending txns: ids 0 and 1");
            assert_eq!(
                r.db().with_database(world_fingerprint),
                p.with_database(world_fingerprint),
                "chunk={chunk}: replica must reach the primary's quantum state"
            );
        }
    }

    #[test]
    fn ground_records_replay_verbatim_not_resolved() {
        let p = primary();
        let id = p.submit(&book("Mickey")).unwrap().id().unwrap();
        p.ground(id).unwrap();
        // Whatever seat the primary chose is fixed in the log.
        let chosen: Vec<_> = p.query("Bookings('Mickey', 1, s)").unwrap();
        let mut r = replica();
        ship(&p, &mut r, 16);
        assert_eq!(r.db().pending_count(), 0);
        assert_eq!(r.horizon(), id);
        // The replica sees the *same* seat — it replayed the choice, it
        // did not re-make it.
        let replica_db = r.promote().unwrap();
        let replayed = replica_db.query("Bookings('Mickey', 1, s)").unwrap();
        assert_eq!(chosen, replayed);
    }

    #[test]
    fn promotion_recovers_a_writable_engine() {
        let p = primary();
        assert!(p.submit(&book("Mickey")).unwrap().is_committed());
        let mut r = replica();
        ship(&p, &mut r, 32);
        let promoted = r.promote().unwrap();
        assert_eq!(promoted.pending_count(), 1);
        // Promoted node continues the txn-id sequence and accepts writes.
        let outcome = promoted.submit(&book("Donald")).unwrap();
        assert_eq!(outcome.id(), Some(1));
        assert!(promoted
            .write(qdb_storage::WriteOp::insert("Available", tuple![2, "9F"]))
            .unwrap());
    }

    #[test]
    fn noncontiguous_segment_is_refused() {
        let p = primary();
        let mut r = replica();
        let (_, _, bytes) = p.wal_stream_from(0, 1 << 20).unwrap();
        r.apply_segment(0, &bytes).unwrap();
        let err = r.apply_segment(0, &bytes).unwrap_err();
        assert!(matches!(err, EngineError::Invariant(_)));
    }

    #[test]
    fn a_corrupt_frame_in_the_stream_fails_the_replica() {
        let p = primary();
        let (_, _, mut bytes) = p.wal_stream_from(0, 1 << 20).unwrap();
        let spans = qdb_storage::wal::frame_spans(&bytes);
        bytes[spans[1].0 as usize + 9] ^= 0xFF;
        let mut r = replica();
        let err = r.apply_segment(0, &bytes).unwrap_err();
        assert!(matches!(err, EngineError::Invariant(_)), "{err}");
        // The frame before the corrupt one was applied, and acked.
        assert_eq!(r.applied_offset(), spans[0].1);
    }

    #[test]
    fn tracker_reports_lag_against_current_wal_len() {
        let mut t = ReplicaTracker::new();
        t.observe_poll("r1", 0, 100);
        t.observe_ack("r1", 60, 3, 100);
        t.observe_poll("r2", 0, 100);
        let report = t.report(140, 9);
        assert_eq!(report.role, ReplicationRole::Primary);
        assert_eq!(report.replicas.len(), 2);
        let r1 = &report.replicas[0];
        assert_eq!((r1.id.as_str(), r1.acked_offset, r1.horizon), ("r1", 60, 3));
        assert_eq!(r1.lag_bytes, 80, "lag recomputed against the fresh len");
        assert_eq!(report.replicas[1].lag_bytes, 140);
        // Stale acks never move progress backwards.
        t.observe_ack("r1", 40, 2, 140);
        assert_eq!(t.status("r1").unwrap().acked_offset, 60);
    }

    #[test]
    fn replica_serves_reads_at_its_horizon() {
        let p = primary();
        assert!(p.submit(&book("Mickey")).unwrap().is_committed());
        let mut r = replica();
        ship(&p, &mut r, 64);
        // Peek and possible-worlds reads work on the replica without
        // grounding anything (pending stays pending).
        let q = qdb_logic::parse_query("Bookings('Mickey', 1, s)").unwrap();
        let peek = r.db().read_peek(&q.atoms, None).unwrap();
        assert_eq!(peek.len(), 1);
        let worlds = r.db().read_possible(&q.atoms, 16).unwrap();
        assert_eq!(worlds.len(), 3, "one world per available seat");
        assert_eq!(r.db().pending_count(), 1, "reads must not collapse");
    }
}
