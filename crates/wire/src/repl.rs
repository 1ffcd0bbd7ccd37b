//! The `SHOW REPLICATION` payload: a node's role, WAL position and the
//! lag of each replica it serves.

use crate::response::TxnId;

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
