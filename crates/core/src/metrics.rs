//! The engine's lock-free metrics mirror. `qdb_wire`'s `counters!` list
//! declares every counter once and stamps out [`Metrics`], the snapshot
//! `SHOW METRICS` returns, and [`MetricsCells`], one `AtomicU64` each.
//! Event traces live in the flight recorder (`SHOW EVENTS`), not here.
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

use std::sync::atomic::{
    fence, AtomicU64,
    Ordering::{Acquire, Relaxed, Release},
};

use qdb_wire::MetricsCells;

use crate::ground::GroundReason;
use crate::Metrics;

/// Lock-free engine counters for the sharded engine (`crate::shard`): the
/// [`MetricsCells`] and the live pending count under one seqlock (module
/// docs), so multi-counter transitions (*committed* and *pending* at
/// admission, *grounded* and *pending* at collapse) are never seen torn:
/// `SHOW METRICS` mid-`GROUND ALL` never observes `committed − grounded ≠
/// pending`.
#[derive(Debug, Default)]
pub(crate) struct AtomicMetrics {
    epoch: AtomicU64,
    /// Pending transactions right now (not part of [`Metrics`], but kept
    /// under the same seqlock so accounting snapshots are consistent).
    pending: AtomicU64,
    cells: MetricsCells,
}

/// Write guard over [`AtomicMetrics`]: holds the seqlock (epoch is odd)
/// for the duration of one multi-counter transition.
pub(crate) struct MetricsTxn<'a> {
    m: &'a AtomicMetrics,
    epoch: u64,
}

impl AtomicMetrics {
    /// Seed the atomic counters from a plain snapshot (engine promotion to
    /// a shared handle preserves history).
    pub(crate) fn from_metrics(m: &Metrics, pending: u64) -> Self {
        AtomicMetrics {
            epoch: AtomicU64::new(0),
            pending: AtomicU64::new(pending),
            cells: MetricsCells::from_counters(m),
        }
    }

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
    pub(crate) fn bump<'a>(&'a self, cell: impl FnOnce(&'a MetricsCells) -> &'a AtomicU64, n: u64) {
        cell(&self.cells).fetch_add(n, Relaxed);
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
            let m = self.cells.read_counters();
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
        self.cells.zero_counters();
        let pending = self.pending.load(Relaxed);
        t.add(|c| &c.committed, pending);
        t.add(|c| &c.max_pending, pending);
    }
}

impl<'a> MetricsTxn<'a> {
    /// Add to one counter cell (a zero delta touches nothing).
    pub(crate) fn add(&self, cell: impl FnOnce(&'a MetricsCells) -> &'a AtomicU64, n: u64) {
        if n > 0 {
            cell(&self.m.cells).fetch_add(n, Relaxed);
        }
    }

    /// Route a grounding to its reason counter and decrement pending.
    pub(crate) fn record_ground(&self, reason: GroundReason) {
        match reason {
            GroundReason::Read => self.add(|c| &c.grounded_by_read, 1),
            GroundReason::KBound => self.add(|c| &c.grounded_by_k, 1),
            GroundReason::Partner => self.add(|c| &c.grounded_by_partner, 1),
            GroundReason::Explicit => self.add(|c| &c.grounded_explicit, 1),
        }
        self.m.pending.fetch_sub(1, Relaxed);
    }

    /// Commit one admission: committed and pending move together.
    pub(crate) fn record_commit(&self) {
        self.add(|c| &c.committed, 1);
        self.m.pending.fetch_add(1, Relaxed);
    }

    /// Sample the pending high-water mark.
    pub(crate) fn sample_max_pending(&self) {
        let pending = self.m.pending.load(Relaxed);
        if pending > self.m.cells.max_pending.load(Relaxed) {
            self.m.cells.max_pending.fetch_max(pending, Relaxed);
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
}
