//! Engine metrics.
//!
//! The evaluation section measures commits, coordination successes,
//! grounding causes and time split between reads and updates — these
//! counters are what `qdb-workload`'s experiment runner reads out.
//!
//! Every counter is declared once, in the `counters!` list below: the
//! list stamps out [`Metrics`], the lock-free `AtomicMetrics` the engine
//! updates, and the order the wire's METRICS frame carries them in. Event
//! traces live in the observability layer's flight recorder
//! (`SHOW EVENTS`), not here.
//!
//! `AtomicMetrics` is a seqlock, and no access to it is `SeqCst`:
//!
//! * A writer opens its window with an Acquire CAS of the epoch from even
//!   `e` to odd `e + 1`: everything the previous writer did before its
//!   Release close is visible to it. A Release fence follows, so the odd
//!   epoch is ordered before the writer's relaxed counter updates.
//! * The writer closes with a Release store of `e + 2`, which orders every
//!   update of the window before the even epoch.
//! * A reader loads the epoch with Acquire; an even value `e` makes every
//!   window closed up to `e` visible to its relaxed counter loads. It then
//!   issues an Acquire fence and reloads the epoch. If any counter load
//!   saw an update of a window opened after `e`, that fence pairs with
//!   the writer's Release fence, so the reload sees the epoch past `e` and
//!   the reader retries. A snapshot it keeps is therefore exactly the
//!   state at epoch `e`: no window is torn.
//!
//! A transition whose every delta is zero opens no window at all
//! (`AtomicMetrics::absorb_solver` on a statement that did not search).
//!
//! A lone counter that no identity ties to another (`reads`, `submitted`,
//! `parses`, …) is bumped without a window: one Relaxed `fetch_add`
//! (`AtomicMetrics::bump`). A snapshot then reads a value it held at some
//! instant between the snapshot's two epoch loads, which is all a lone
//! counter can promise, and a bump that races a `reset` lands wholly
//! before or wholly after its zeroing.

use crate::ground::GroundReason;

/// Stamps out every mirror of the counter list: [`Metrics`] (one `u64`
/// per counter, documented where it is listed), its wire-order accessors,
/// and `AtomicMetrics` with its seed, snapshot and reset paths.
macro_rules! counters {
    ($($(#[$doc:meta])* $field:ident,)*) => {
        /// Cumulative counters.
        #[derive(Debug, Clone, Default, PartialEq, Eq)]
        pub struct Metrics {
            $($(#[$doc])* pub $field: u64,)*
        }

        impl Metrics {
            const COUNTERS: usize = [$(stringify!($field)),*].len();

            /// Every counter, in declaration order — the wire order of the
            /// METRICS frame.
            pub(crate) fn counters(&self) -> [u64; Self::COUNTERS] {
                [$(self.$field),*]
            }

            /// [`Metrics::counters`], writable (the METRICS decoder).
            pub(crate) fn counters_mut(&mut self) -> [&mut u64; Self::COUNTERS] {
                [$(&mut self.$field),*]
            }
        }

        /// Lock-free engine counters for the sharded engine
        /// (`crate::shard`).
        ///
        /// Hot-path observation never takes a lock: every counter is an
        /// [`AtomicU64`], and multi-counter transitions (e.g. *committed*
        /// and *pending* moving together at admission, *grounded* and
        /// *pending* at collapse) are made torn-read-proof by a seqlock.
        /// Writers bump `epoch` to odd, update cells, then publish with
        /// `epoch + 2`; a snapshot is an epoch read, a read of all cells,
        /// and an epoch re-check — retried until the epoch was stable and
        /// even, so `SHOW METRICS` taken mid-`GROUND ALL` can never
        /// observe `committed − grounded ≠ pending` (orderings: module
        /// docs).
        #[derive(Debug, Default)]
        pub(crate) struct AtomicMetrics {
            epoch: AtomicU64,
            $(pub(crate) $field: AtomicU64,)*
            /// Pending transactions right now (not part of [`Metrics`],
            /// but kept under the same seqlock so accounting snapshots
            /// are consistent).
            pub(crate) pending: AtomicU64,
        }

        impl AtomicMetrics {
            /// Seed the atomic counters from a plain snapshot (engine
            /// promotion to a shared handle preserves history).
            pub(crate) fn from_metrics(m: &Metrics, pending: u64) -> Self {
                let a = AtomicMetrics::default();
                {
                    let t = a.begin();
                    $(t.add(|c| &c.$field, m.$field);)*
                    t.add(|c| &c.pending, pending);
                }
                a
            }

            /// Raw counter reads (callers wrap in the seqlock protocol).
            fn read_counters(&self) -> Metrics {
                Metrics {
                    $($field: self.$field.load(Relaxed),)*
                }
            }

            /// Zero every counter (callers hold the seqlock).
            fn zero_counters(&self) {
                $(self.$field.store(0, Relaxed);)*
            }
        }
    };
}

counters!(
    /// Resource transactions submitted.
    submitted,
    /// Resource transactions committed.
    committed,
    /// Resource transactions aborted at admission.
    aborted,
    /// Reads served with collapse semantics (§3.2.2 option 3).
    reads,
    /// Reads served with peek semantics (§3.2.2 option 2) — answered
    /// against one possible world, read in place, never grounding.
    reads_peek,
    /// Reads served with all-possible-values semantics (§3.2.2 option 1).
    reads_possible,
    /// World forks created by the possible-worlds enumerator.
    worlds_enumerated,
    /// Forked worlds discarded as duplicates by delta fingerprinting.
    world_dedup_hits,
    /// `Database` clones observed on the engine's database family
    /// (sourced live from [`qdb_storage::Database::clone_count`] at
    /// snapshot time; the delta-view read paths keep this at zero).
    db_clones,
    /// Blind writes applied.
    writes_applied,
    /// Blind writes rejected.
    writes_rejected,
    /// Groundings by reason.
    grounded_by_read,
    /// Groundings forced by the `k` bound.
    grounded_by_k,
    /// Groundings triggered by coordination-partner arrival (§5.1).
    grounded_by_partner,
    /// Explicit groundings requested by the application.
    grounded_explicit,
    /// Admissions resolved by extending the cached solution.
    cache_extensions,
    /// Always 0. It counted admissions rescued by an alternative cached
    /// solution, a path the engine no longer has; it keeps its slot so the
    /// METRICS frame layout and the tools that read it stay unchanged.
    cache_extra_hits,
    /// Admissions that needed a full re-solve.
    cache_full_resolves,
    /// Times an admission, grounding or PEEK had to build a partition's
    /// pending world from the cached valuations (kept and rolled forward,
    /// it is never rebuilt).
    overlay_rebuilds,
    /// Groundings that replaced the residue's cached valuations — the
    /// group ++ residue joint solve (or a sampling policy's / replayed
    /// grounding's residue re-solve).
    ground_joint_resolves,
    /// Partition merges.
    partition_merges,
    /// SQL parser entries: `SharedQuantumDb::execute` on text, and the
    /// statement-cache misses of `Session::execute` / `Session::prepare` /
    /// a server's EXECUTE. A text of a cached template, or a prepared
    /// statement re-executed via `bind(…).run()`, does not parse, so a hot
    /// loop over a few statement shapes holds this constant.
    parses,
    /// Pending transactions high-water mark (Table 1's measure).
    max_pending,
    /// Optional atoms satisfied at grounding time, summed.
    optionals_satisfied,
    /// Optional atoms present on grounded transactions, summed.
    optionals_total,
    /// Solver search nodes expanded (candidate tuples tried).
    solver_nodes,
    /// Candidate rows pulled through the solver's streaming cursors.
    solver_candidates_streamed,
    /// Solver hot-path lookups answered by a secondary index (or an index
    /// bucket length).
    solver_index_lookups,
    /// Solver hot-path lookups that fell back to a table scan.
    solver_scan_lookups,
    /// Candidate vectors materialized by the solver: always 0 (candidates
    /// stream); the field keeps its slot in the METRICS frame.
    solver_candidate_vecs,
    /// Secondary indexes created by the access-pattern tracker (see
    /// [`crate::QuantumDbConfig::auto_index_threshold`]).
    indexes_auto_created,
);

impl Metrics {
    /// Total groundings.
    pub fn grounded_total(&self) -> u64 {
        self.grounded_by_read
            + self.grounded_by_k
            + self.grounded_by_partner
            + self.grounded_explicit
    }
}

impl std::fmt::Display for Metrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "submitted={} committed={} aborted={} reads(collapse/peek/possible)={}/{}/{} grounded(read/k/partner/explicit)={}/{}/{}/{} cache(ext/full)={}/{} overlay_rebuilds={} ground_joint_resolves={} worlds(enumerated/dedup)={}/{} db_clones={} max_pending={} parses={}",
            self.submitted,
            self.committed,
            self.aborted,
            self.reads,
            self.reads_peek,
            self.reads_possible,
            self.grounded_by_read,
            self.grounded_by_k,
            self.grounded_by_partner,
            self.grounded_explicit,
            self.cache_extensions,
            self.cache_full_resolves,
            self.overlay_rebuilds,
            self.ground_joint_resolves,
            self.worlds_enumerated,
            self.world_dedup_hits,
            self.db_clones,
            self.max_pending,
            self.parses,
        )
    }
}

use std::sync::atomic::{
    fence, AtomicU64,
    Ordering::{Acquire, Relaxed, Release},
};

/// Write guard over [`AtomicMetrics`]: holds the seqlock (epoch is odd)
/// for the duration of one multi-counter transition.
pub(crate) struct MetricsTxn<'a> {
    m: &'a AtomicMetrics,
    epoch: u64,
}

impl AtomicMetrics {
    /// Open a multi-counter transition (spins while another writer holds
    /// the seqlock; critical sections are a handful of atomic stores).
    pub(crate) fn begin(&self) -> MetricsTxn<'_> {
        loop {
            let e = self.epoch.load(Relaxed);
            if e.is_multiple_of(2)
                && (self.epoch)
                    .compare_exchange_weak(e, e + 1, Acquire, Relaxed)
                    .is_ok()
            {
                fence(Release);
                return MetricsTxn { m: self, epoch: e };
            }
            std::hint::spin_loop();
        }
    }

    /// Add `n` to a lone counter: one Relaxed `fetch_add`, no window
    /// (module docs).
    pub(crate) fn bump<'a>(&'a self, cell: impl FnOnce(&'a Self) -> &'a AtomicU64, n: u64) {
        cell(self).fetch_add(n, Relaxed);
    }

    /// Record one parser entry.
    pub(crate) fn count_parse(&self) {
        self.bump(|c| &c.parses, 1);
    }

    /// Fold one operation's solver-stat deltas into the mirrored solver
    /// counters (the sharded engine calls this when it absorbs a
    /// per-operation solver). A solver that never searched opens no
    /// window.
    pub(crate) fn absorb_solver(&self, s: &qdb_solver::SolverStats) {
        let deltas = [
            s.nodes,
            s.candidates_streamed,
            s.index_lookups,
            s.scan_lookups,
            s.candidate_vecs,
        ];
        if deltas == [0; 5] {
            return;
        }
        let t = self.begin();
        t.add(|c| &c.solver_nodes, s.nodes);
        t.add(|c| &c.solver_candidates_streamed, s.candidates_streamed);
        t.add(|c| &c.solver_index_lookups, s.index_lookups);
        t.add(|c| &c.solver_scan_lookups, s.scan_lookups);
        t.add(|c| &c.solver_candidate_vecs, s.candidate_vecs);
    }

    /// Current pending count (monotonic counters make a raw read safe for
    /// a single value; use [`AtomicMetrics::snapshot_with_pending`] when
    /// it must be consistent with other counters).
    pub(crate) fn pending(&self) -> u64 {
        self.pending.load(Relaxed)
    }

    /// Consistent snapshot of all counters plus the pending count, taken
    /// from one stable seqlock window.
    pub(crate) fn snapshot_with_pending(&self) -> (Metrics, u64) {
        loop {
            let e = self.epoch.load(Acquire);
            if !e.is_multiple_of(2) {
                std::hint::spin_loop();
                continue;
            }
            let m = self.read_counters();
            let pending = self.pending.load(Relaxed);
            fence(Acquire);
            if self.epoch.load(Relaxed) == e {
                return (m, pending);
            }
        }
    }

    /// Zero every counter (between experiment phases).
    ///
    /// Pending is live engine state, not a statistic: it survives the
    /// reset, and `committed` restarts at the pending count — the
    /// still-pending transactions are exactly the commits the new epoch
    /// inherits — so the accounting identity `committed − grounded_total
    /// == pending` keeps holding for every snapshot even when the reset
    /// happens while transactions are pending. `max_pending` restarts at
    /// the same count for the same reason: the inherited transactions are
    /// pending from the new epoch's first instant. The whole transition
    /// runs inside one seqlock window, so no snapshot observes it
    /// half-done. A reset taken at quiescence (zero pending) degenerates
    /// to zeroing everything.
    pub(crate) fn reset(&self) {
        let t = self.begin();
        self.zero_counters();
        let pending = self.pending.load(Relaxed);
        t.add(|c| &c.committed, pending);
        t.add(|c| &c.max_pending, pending);
    }
}

impl<'a> MetricsTxn<'a> {
    /// Add to one counter cell (a zero delta touches nothing).
    pub(crate) fn add(&self, cell: impl FnOnce(&'a AtomicMetrics) -> &'a AtomicU64, n: u64) {
        if n > 0 {
            cell(self.m).fetch_add(n, Relaxed);
        }
    }

    /// Subtract from one counter cell.
    pub(crate) fn sub(&self, cell: impl FnOnce(&'a AtomicMetrics) -> &'a AtomicU64, n: u64) {
        cell(self.m).fetch_sub(n, Relaxed);
    }

    /// Route a grounding to its reason counter and decrement pending.
    pub(crate) fn record_ground(&self, reason: GroundReason) {
        match reason {
            GroundReason::Read => self.add(|c| &c.grounded_by_read, 1),
            GroundReason::KBound => self.add(|c| &c.grounded_by_k, 1),
            GroundReason::Partner => self.add(|c| &c.grounded_by_partner, 1),
            GroundReason::Explicit => self.add(|c| &c.grounded_explicit, 1),
        }
        self.sub(|c| &c.pending, 1);
    }

    /// Commit one admission: committed and pending move together.
    pub(crate) fn record_commit(&self) {
        self.add(|c| &c.committed, 1);
        self.add(|c| &c.pending, 1);
    }

    /// Sample the pending high-water mark.
    pub(crate) fn sample_max_pending(&self) {
        let pending = self.m.pending.load(Relaxed);
        if pending > self.m.max_pending.load(Relaxed) {
            self.m.max_pending.fetch_max(pending, Relaxed);
        }
    }
}

impl Drop for MetricsTxn<'_> {
    fn drop(&mut self) {
        self.m.epoch.store(self.epoch + 2, Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ground_reasons_routed_to_counters() {
        let a = AtomicMetrics::default();
        for reason in [
            GroundReason::Read,
            GroundReason::KBound,
            GroundReason::KBound,
            GroundReason::Partner,
            GroundReason::Explicit,
        ] {
            let t = a.begin();
            t.record_commit();
            t.record_ground(reason);
        }
        let (m, pending) = a.snapshot_with_pending();
        assert_eq!(pending, 0);
        assert_eq!(m.grounded_by_read, 1);
        assert_eq!(m.grounded_by_k, 2);
        assert_eq!(m.grounded_by_partner, 1);
        assert_eq!(m.grounded_explicit, 1);
        assert_eq!(m.grounded_total(), 5);
    }

    #[test]
    fn display_is_single_line() {
        assert!(!Metrics::default().to_string().contains('\n'));
    }
}
