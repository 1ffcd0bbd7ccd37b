//! Server-side traffic counters.
//!
//! These complement the engine's own [`qdb_wire::Metrics`]: the engine
//! counts semantic events (commits, groundings, parses), the server counts
//! wire traffic (connections, frames, bytes), connection lifecycle events
//! (refusals, idle reaps, backpressure stalls) and statements per class.
//! A snapshot of both travels back on every `SHOW METRICS` response, so a
//! remote client observes the full picture without a side channel.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use qdb_core::STMT_CLASSES;
use qdb_wire::{AtomicServerStats, ServerStats};

/// Lock-free counters throughout: executors on every core bump them per
/// statement and per socket call, each bump one Relaxed atomic.
#[derive(Debug, Default)]
pub struct ServerMetrics {
    /// The counters that travel on the wire.
    stats: AtomicServerStats,
    socket_reads: AtomicU64,
    socket_writes: AtomicU64,
    /// Statements per class, indexed like [`STMT_CLASSES`].
    classes: [AtomicU64; STMT_CLASSES.len()],
}

impl ServerMetrics {
    /// Record an accepted connection (bumps the open gauge and its peak).
    pub fn connection(&self) {
        self.stats.connections.fetch_add(1, Relaxed);
        let open = self.stats.conns_open.fetch_add(1, Relaxed) + 1;
        self.stats.conns_peak.fetch_max(open, Relaxed);
    }

    /// Record a connection leaving (any reason: EOF, error, reaped).
    pub fn connection_closed(&self) {
        self.stats.conns_open.fetch_sub(1, Relaxed);
    }

    /// Record a connection refused at the admission limit.
    pub fn connection_refused(&self) {
        self.stats.conns_refused.fetch_add(1, Relaxed);
    }

    /// Record a connection reaped by the idle-timeout wheel.
    pub fn connection_idle_closed(&self) {
        self.stats.conns_idle_closed.fetch_add(1, Relaxed);
    }

    /// Record an executor stalling on a full per-connection outbox.
    pub fn outbox_full_stall(&self) {
        self.stats.outbox_full_stalls.fetch_add(1, Relaxed);
    }

    /// Record a request frame of `wire_len` total bytes read and decoded.
    pub fn frame_in(&self, wire_len: u64) {
        self.stats.frames_decoded.fetch_add(1, Relaxed);
        self.stats.bytes_in.fetch_add(wire_len, Relaxed);
    }

    /// Record `n` bytes written to a client.
    pub fn bytes_out(&self, n: u64) {
        self.stats.bytes_out.fetch_add(n, Relaxed);
    }

    /// Take back `n` bytes recorded ahead of a write that fell short.
    pub fn bytes_out_undo(&self, n: u64) {
        self.stats.bytes_out.fetch_sub(n, Relaxed);
    }

    /// Record one `read` call on a client socket, whatever it returned.
    pub fn socket_read(&self) {
        self.socket_reads.fetch_add(1, Relaxed);
    }

    /// Record one `write` call on a client socket, whatever it returned.
    pub fn socket_write(&self) {
        self.socket_writes.fetch_add(1, Relaxed);
    }

    /// `(read, write)` calls made on client sockets so far — the serving
    /// path's syscall budget. Process-local: not part of [`ServerStats`].
    pub fn socket_calls(&self) -> (u64, u64) {
        (
            self.socket_reads.load(Relaxed),
            self.socket_writes.load(Relaxed),
        )
    }

    /// Record one executed statement of the given class
    /// ([`qdb_logic::Statement::class`]).
    pub fn statement(&self, class: usize) {
        self.classes[class].fetch_add(1, Relaxed);
    }

    /// Snapshot for the wire; classes are listed by name, once they have run.
    pub fn snapshot(&self) -> ServerStats {
        let mut statement_classes: Vec<(String, u64)> = STMT_CLASSES
            .iter()
            .zip(&self.classes)
            .map(|(class, count)| (class.to_string(), count.load(Relaxed)))
            .filter(|(_, count)| *count > 0)
            .collect();
        statement_classes.sort_unstable();
        ServerStats {
            statement_classes,
            ..self.stats.read_counters()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn class(name: &str) -> usize {
        qdb_core::stmt_class(name).unwrap()
    }

    #[test]
    fn snapshot_reflects_all_counters() {
        let m = ServerMetrics::default();
        m.connection();
        m.frame_in(100);
        m.frame_in(28);
        m.bytes_out(64);
        m.statement(class("SELECT"));
        m.statement(class("SELECT"));
        m.statement(class("INSERT"));
        let s = m.snapshot();
        assert_eq!(s.connections, 1);
        assert_eq!(s.frames_decoded, 2);
        assert_eq!(s.bytes_in, 128);
        assert_eq!(s.bytes_out, 64);
        assert_eq!(s.class("SELECT"), Some(2));
        assert_eq!(s.class("INSERT"), Some(1));
        assert_eq!(s.class("GROUND"), None);
        assert_eq!(
            s.statement_classes,
            [("INSERT".to_string(), 1), ("SELECT".to_string(), 2)]
        );
    }

    #[test]
    fn socket_calls_count_beside_the_wire_snapshot_and_short_writes_are_taken_back() {
        let m = ServerMetrics::default();
        m.socket_read();
        m.socket_read();
        m.socket_write();
        assert_eq!(m.socket_calls(), (2, 1));
        // A write is counted in full before it is made, then corrected.
        m.bytes_out(100);
        m.bytes_out_undo(40);
        assert_eq!(m.snapshot().bytes_out, 60);
    }

    #[test]
    fn class_table_is_sorted_and_covers_the_grammar() {
        let mut kinds = std::collections::BTreeSet::new();
        for sql in [
            "CREATE TABLE T (a INT)",
            "CREATE INDEX ON T (a)",
            "INSERT INTO T VALUES (1)",
            "DELETE FROM T VALUES (1)",
            "SELECT * FROM T(@a)",
            "SELECT @a FROM T(@a) CHOOSE 1 FOLLOWED BY (DELETE (@a) FROM T)",
            "GROUND 1",
            "GROUND ALL",
            "CHECKPOINT",
            "SHOW METRICS",
            "SHOW PENDING",
            "SHOW PROFILE",
            "SHOW EVENTS",
            "SHOW REPLICATION",
            "PROMOTE",
        ] {
            kinds.insert(qdb_logic::parse_statement(sql).unwrap().template().class());
        }
        assert_eq!(kinds.len(), STMT_CLASSES.len(), "a class no statement has");
        // Classes are listed by name and only once they have run.
        let m = ServerMetrics::default();
        m.statement(class("SHOW PENDING"));
        m.statement(class("CHECKPOINT"));
        m.statement(class("SELECT … CHOOSE 1"));
        m.statement(class("SELECT"));
        let listed: Vec<String> = m
            .snapshot()
            .statement_classes
            .into_iter()
            .map(|(class, _)| class)
            .collect();
        assert_eq!(
            listed,
            ["CHECKPOINT", "SELECT", "SELECT … CHOOSE 1", "SHOW PENDING"]
        );
    }

    #[test]
    fn lifecycle_gauges_track_open_peak_refused_reaped_stalled() {
        let m = ServerMetrics::default();
        m.connection();
        m.connection();
        m.connection();
        m.connection_closed();
        m.connection();
        m.connection_closed();
        m.connection_refused();
        m.connection_idle_closed();
        m.outbox_full_stall();
        m.outbox_full_stall();
        let s = m.snapshot();
        assert_eq!(s.connections, 4);
        assert_eq!(s.conns_open, 2);
        assert_eq!(s.conns_peak, 3);
        assert_eq!(s.conns_refused, 1);
        assert_eq!(s.conns_idle_closed, 1);
        assert_eq!(s.outbox_full_stalls, 2);
    }
}
