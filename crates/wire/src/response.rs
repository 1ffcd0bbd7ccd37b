//! The typed outcome of one statement: what `execute()` returns embedded
//! and what a reply frame carries over the wire.

use qdb_logic::Valuation;

use crate::metrics::Metrics;

/// Engine-assigned transaction identifier; also the arrival order.
pub type TxnId = u64;

/// Typed result of executing one statement (`qdb_logic::Statement`).
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Rows of a `SELECT` (collapse or peek semantics), projected onto the
    /// statement's `SELECT` list.
    Rows(Vec<Valuation>),
    /// Distinct answer sets of a `SELECT POSSIBLE` — one entry per
    /// distinct possible-world answer.
    Worlds(Vec<Vec<Valuation>>),
    /// A resource transaction committed (it will never be rolled back, §2)
    /// with this engine-assigned id.
    Committed(TxnId),
    /// A resource transaction was refused admission: accepting it would
    /// empty the set of possible worlds.
    Aborted,
    /// Blind write outcome: `true` iff every row of the statement was
    /// admitted (a rejected row would invalidate pending state, §3.2.2).
    Written(bool),
    /// How many pending transactions a `GROUND` statement collapsed.
    Grounded(usize),
    /// Metrics snapshot (`SHOW METRICS`).
    Metrics(Box<Metrics>),
    /// Ids of pending transactions (`SHOW PENDING`).
    Pending(Vec<TxnId>),
    /// Latency histograms per statement class and engine phase
    /// (`SHOW PROFILE`).
    Profile(Box<qdb_obs::ProfileReport>),
    /// Recent flight-recorder span events, oldest first (`SHOW EVENTS`).
    Events(Vec<qdb_obs::SpanEvent>),
    /// Replication role, WAL position and per-replica lag
    /// (`SHOW REPLICATION`). The bare engine answers as an unreplicated
    /// primary; `qdb-server` substitutes its live stream state.
    Replication(Box<crate::repl::ReplicationReport>),
    /// Statement acknowledged with nothing to report (DDL, `CHECKPOINT`,
    /// `PROMOTE`).
    Ack,
}

impl Response {
    /// Rows, when this is a [`Response::Rows`].
    pub fn rows(&self) -> Option<&[Valuation]> {
        match self {
            Response::Rows(r) => Some(r),
            _ => None,
        }
    }

    /// Possible-world answer sets, when this is a [`Response::Worlds`].
    pub fn worlds(&self) -> Option<&[Vec<Valuation>]> {
        match self {
            Response::Worlds(w) => Some(w),
            _ => None,
        }
    }

    /// Transaction id, when this is a [`Response::Committed`].
    pub fn committed_id(&self) -> Option<TxnId> {
        match self {
            Response::Committed(id) => Some(*id),
            _ => None,
        }
    }

    /// Write outcome, when this is a [`Response::Written`].
    pub fn written(&self) -> Option<bool> {
        match self {
            Response::Written(ok) => Some(*ok),
            _ => None,
        }
    }

    /// Grounded count, when this is a [`Response::Grounded`].
    pub fn grounded(&self) -> Option<usize> {
        match self {
            Response::Grounded(n) => Some(*n),
            _ => None,
        }
    }

    /// Metrics snapshot, when this is a [`Response::Metrics`].
    pub fn metrics(&self) -> Option<&Metrics> {
        match self {
            Response::Metrics(m) => Some(m),
            _ => None,
        }
    }

    /// Latency profile, when this is a [`Response::Profile`].
    pub fn profile(&self) -> Option<&qdb_obs::ProfileReport> {
        match self {
            Response::Profile(p) => Some(p),
            _ => None,
        }
    }

    /// Flight-recorder events, when this is a [`Response::Events`].
    pub fn events(&self) -> Option<&[qdb_obs::SpanEvent]> {
        match self {
            Response::Events(e) => Some(e),
            _ => None,
        }
    }

    /// Replication report, when this is a [`Response::Replication`].
    pub fn replication(&self) -> Option<&crate::repl::ReplicationReport> {
        match self {
            Response::Replication(r) => Some(r),
            _ => None,
        }
    }
}

impl std::fmt::Display for Response {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Response::Rows(rows) => write!(f, "{} row(s)", rows.len()),
            Response::Worlds(w) => write!(f, "{} possible answer set(s)", w.len()),
            Response::Committed(id) => write!(f, "committed as txn {id}"),
            Response::Aborted => write!(f, "aborted"),
            Response::Written(true) => write!(f, "written"),
            Response::Written(false) => write!(f, "write rejected"),
            Response::Grounded(n) => write!(f, "grounded {n} transaction(s)"),
            Response::Metrics(m) => write!(f, "{m}"),
            Response::Pending(ids) => write!(f, "{} pending transaction(s)", ids.len()),
            Response::Profile(p) => write!(f, "{p}"),
            Response::Events(events) => write!(f, "{} event(s)", events.len()),
            Response::Replication(r) => write!(f, "{r}"),
            Response::Ack => write!(f, "ok"),
        }
    }
}
