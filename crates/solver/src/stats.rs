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

impl SolverStats {
    /// Reset all counters.
    pub fn reset(&mut self) {
        *self = SolverStats::default();
    }

    /// Merge counters from another stats block.
    pub fn absorb(&mut self, other: &SolverStats) {
        self.nodes += other.nodes;
        self.solves += other.solves;
        self.unsat += other.unsat;
        self.verifies += other.verifies;
        self.verify_failures += other.verify_failures;
        self.enumerated += other.enumerated;
        self.candidates_streamed += other.candidates_streamed;
        self.index_lookups += other.index_lookups;
        self.scan_lookups += other.scan_lookups;
        self.candidate_vecs += other.candidate_vecs;
        self.lookahead_prunes += other.lookahead_prunes;
    }
}

impl std::fmt::Display for SolverStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "nodes={} solves={} unsat={} verifies={} verify_failures={} enumerated={} \
             candidates_streamed={} lookups(ix/scan)={}/{} candidate_vecs={} \
             lookahead_prunes={}",
            self.nodes,
            self.solves,
            self.unsat,
            self.verifies,
            self.verify_failures,
            self.enumerated,
            self.candidates_streamed,
            self.index_lookups,
            self.scan_lookups,
            self.candidate_vecs,
            self.lookahead_prunes,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_sums_fields() {
        let mut a = SolverStats {
            nodes: 1,
            solves: 2,
            unsat: 3,
            verifies: 4,
            verify_failures: 5,
            enumerated: 6,
            candidates_streamed: 7,
            index_lookups: 8,
            scan_lookups: 9,
            candidate_vecs: 10,
            lookahead_prunes: 11,
        };
        a.absorb(&a.clone());
        assert_eq!(a.nodes, 2);
        assert_eq!(a.enumerated, 12);
        assert_eq!(a.candidates_streamed, 14);
        assert_eq!(a.index_lookups, 16);
        assert_eq!(a.scan_lookups, 18);
        assert_eq!(a.candidate_vecs, 20);
        assert_eq!(a.lookahead_prunes, 22);
        a.reset();
        assert_eq!(a, SolverStats::default());
    }

    #[test]
    fn display_is_one_line() {
        let s = SolverStats::default().to_string();
        assert!(s.contains("nodes=0"));
        assert!(s.contains("candidates_streamed=0"));
        assert!(!s.contains('\n'));
    }
}
