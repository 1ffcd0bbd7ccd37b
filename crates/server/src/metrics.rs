//! Server-side traffic counters.
//!
//! These complement the engine's own [`qdb_core::Metrics`]: the engine
//! counts semantic events (commits, groundings, parses), the server counts
//! wire traffic (connections, frames, bytes), connection lifecycle events
//! (refusals, idle reaps, backpressure stalls) and statements per class.
//! A snapshot of both travels back on every `SHOW METRICS` response, so a
//! remote client observes the full picture without a side channel.

use std::sync::atomic::{AtomicU64, Ordering};

use qdb_core::wire::ServerStats;

/// Every statement class ([`qdb_logic::Statement::kind`] — a closed set
/// fixed by the grammar), sorted, which is the order `snapshot` lists them in.
const CLASSES: [&str; 15] = [
    "CHECKPOINT",
    "CREATE INDEX",
    "CREATE TABLE",
    "DELETE",
    "GROUND",
    "GROUND ALL",
    "INSERT",
    "PROMOTE",
    "SELECT",
    "SELECT … CHOOSE 1",
    "SHOW EVENTS",
    "SHOW METRICS",
    "SHOW PENDING",
    "SHOW PROFILE",
    "SHOW REPLICATION",
];

/// Lock-free counters throughout: executors on every core bump them per
/// statement and per socket call.
#[derive(Debug, Default)]
pub struct ServerMetrics {
    connections: AtomicU64,
    frames_decoded: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
    conns_open: AtomicU64,
    conns_peak: AtomicU64,
    conns_refused: AtomicU64,
    conns_idle_closed: AtomicU64,
    outbox_full_stalls: AtomicU64,
    socket_reads: AtomicU64,
    socket_writes: AtomicU64,
    classes: [AtomicU64; CLASSES.len()],
}

impl ServerMetrics {
    /// Record an accepted connection (bumps the open gauge and its peak).
    pub fn connection(&self) {
        self.connections.fetch_add(1, Ordering::Relaxed);
        let open = self.conns_open.fetch_add(1, Ordering::Relaxed) + 1;
        self.conns_peak.fetch_max(open, Ordering::Relaxed);
    }

    /// Record a connection leaving (any reason: EOF, error, reaped).
    pub fn connection_closed(&self) {
        self.conns_open.fetch_sub(1, Ordering::Relaxed);
    }

    /// Record a connection refused at the admission limit.
    pub fn connection_refused(&self) {
        self.conns_refused.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a connection reaped by the idle-timeout wheel.
    pub fn connection_idle_closed(&self) {
        self.conns_idle_closed.fetch_add(1, Ordering::Relaxed);
    }

    /// Record an executor stalling on a full per-connection outbox.
    pub fn outbox_full_stall(&self) {
        self.outbox_full_stalls.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a request frame of `wire_len` total bytes read and decoded.
    pub fn frame_in(&self, wire_len: u64) {
        self.frames_decoded.fetch_add(1, Ordering::Relaxed);
        self.bytes_in.fetch_add(wire_len, Ordering::Relaxed);
    }

    /// Record `n` bytes written to a client.
    pub fn bytes_out(&self, n: u64) {
        self.bytes_out.fetch_add(n, Ordering::Relaxed);
    }

    /// Take back `n` bytes recorded ahead of a write that fell short.
    pub fn bytes_out_undo(&self, n: u64) {
        self.bytes_out.fetch_sub(n, Ordering::Relaxed);
    }

    /// Record one `read` call on a client socket, whatever it returned.
    pub fn socket_read(&self) {
        self.socket_reads.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one `write` call on a client socket, whatever it returned.
    pub fn socket_write(&self) {
        self.socket_writes.fetch_add(1, Ordering::Relaxed);
    }

    /// `(read, write)` calls made on client sockets so far — the serving
    /// path's syscall budget. Process-local: not part of [`ServerStats`].
    pub fn socket_calls(&self) -> (u64, u64) {
        (
            self.socket_reads.load(Ordering::Relaxed),
            self.socket_writes.load(Ordering::Relaxed),
        )
    }

    /// Record one executed statement of the given class
    /// ([`qdb_logic::Statement::kind`]).
    pub fn statement(&self, class: &'static str) {
        let slot = CLASSES.iter().position(|c| *c == class);
        debug_assert!(slot.is_some(), "statement class {class:?} not in CLASSES");
        if let Some(slot) = slot {
            self.classes[slot].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Snapshot for the wire.
    pub fn snapshot(&self) -> ServerStats {
        ServerStats {
            connections: self.connections.load(Ordering::Relaxed),
            frames_decoded: self.frames_decoded.load(Ordering::Relaxed),
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
            bytes_out: self.bytes_out.load(Ordering::Relaxed),
            conns_open: self.conns_open.load(Ordering::Relaxed),
            conns_peak: self.conns_peak.load(Ordering::Relaxed),
            conns_refused: self.conns_refused.load(Ordering::Relaxed),
            conns_idle_closed: self.conns_idle_closed.load(Ordering::Relaxed),
            outbox_full_stalls: self.outbox_full_stalls.load(Ordering::Relaxed),
            statement_classes: CLASSES
                .iter()
                .zip(&self.classes)
                .map(|(class, count)| (class.to_string(), count.load(Ordering::Relaxed)))
                .filter(|(_, count)| *count > 0)
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_all_counters() {
        let m = ServerMetrics::default();
        m.connection();
        m.frame_in(100);
        m.frame_in(28);
        m.bytes_out(64);
        m.statement("SELECT");
        m.statement("SELECT");
        m.statement("INSERT");
        let s = m.snapshot();
        assert_eq!(s.connections, 1);
        assert_eq!(s.frames_decoded, 2);
        assert_eq!(s.bytes_in, 128);
        assert_eq!(s.bytes_out, 64);
        assert_eq!(s.class("SELECT"), Some(2));
        assert_eq!(s.class("INSERT"), Some(1));
        assert_eq!(s.class("GROUND"), None);
        assert_eq!(s.statements_total(), 3);
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
        assert!(CLASSES.windows(2).all(|w| w[0] < w[1]), "snapshot order");
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
            let kind = qdb_logic::parse_statement(sql).unwrap().template().kind();
            assert!(CLASSES.contains(&kind), "{kind} missing from CLASSES");
        }
        // Classes are listed in table order and only once they have run.
        let m = ServerMetrics::default();
        m.statement("SHOW PENDING");
        m.statement("CHECKPOINT");
        m.statement("SELECT … CHOOSE 1");
        m.statement("SELECT");
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
