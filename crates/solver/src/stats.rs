//! Solver instrumentation.
//!
//! The evaluation section of the paper is all about *where time goes* as
//! composed bodies grow; these counters are what the bench harness reads.

/// Cumulative counters for one [`crate::Solver`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SolverStats {
    /// Search nodes expanded (candidate tuples tried).
    pub nodes: u64,
    /// Completed `solve` calls.
    pub solves: u64,
    /// `solve` calls that found no solution.
    pub unsat: u64,
    /// Completed `verify` calls.
    pub verifies: u64,
    /// `verify` calls that failed.
    pub verify_failures: u64,
    /// Valuations produced by `enumerate` calls.
    pub enumerated: u64,
    /// Candidate rows pulled through streaming cursors (the per-node
    /// enumeration cost; replaces the old per-node `Vec` materialization).
    pub candidates_streamed: u64,
    /// Hot-path lookups (candidate streams and atom-ordering counts)
    /// answered by a secondary index or an index bucket length.
    pub index_lookups: u64,
    /// Hot-path lookups that fell back to a table scan.
    pub scan_lookups: u64,
    /// Candidate vectors materialized: always 0 — candidates stream, and
    /// the materializing reference lives in the tests. The counter keeps
    /// its slot in the metrics layout.
    pub candidate_vecs: u64,
    /// Candidates the lookahead rejected before applying their updates: a
    /// later member of the sequence could provably not ground under them.
    pub lookahead_prunes: u64,
}
