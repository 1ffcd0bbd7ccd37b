//! The flight recorder: a fixed-capacity lock-free ring of span events.
//!
//! Writers claim a run of global slot indices with one `fetch_add` (a
//! statement publishes its root and phase events together), then publish
//! each event through a per-slot sequence lock: the slot's `seq` word
//! holds `2g+2` once the event for global index `g` is fully written, and
//! `2g+1` while the write is in flight. Readers accept a slot only when
//! `seq` reads the same stable value before and after the field loads, so
//! a torn event can never be observed.
//!
//! Orderings: the claim is an Acquire CAS (the new writer's stores
//! follow the previous generation's), then a Release fence orders the odd
//! `seq` before the relaxed field stores, and a Release store of the even
//! `seq` closes. The reader's Acquire fence before its `seq` reload pairs
//! with that Release fence: a field load that saw a later write makes the
//! reload see its odd `seq`. No store is `SeqCst`.
//!
//! Overwrite policy: the ring keeps the most recent `capacity` events.
//! A writer that laps a *still-in-flight* write (possible only when the
//! whole ring wraps within one write's duration) drops its own event and
//! bumps `dropped` rather than tearing the slot — recency is best-effort,
//! integrity is not.

use crate::Outcome;
use std::sync::atomic::{fence, AtomicU64, Ordering};

/// One structured span event in the flight recorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanEvent {
    /// When the span *started*: nanoseconds since the process's trace
    /// epoch (the stamp calibration in its first [`crate::Obs::new`]).
    pub ts_ns: u64,
    /// Transaction id the span belongs to (`u64::MAX` when none).
    pub txn_id: u64,
    /// Partition id the span touched (`u64::MAX` when none).
    pub partition_id: u64,
    /// Event kind code: a [`crate::Phase`] below [`crate::STMT_CODE_BASE`],
    /// a statement class at or above it (see [`crate::kind_name`]).
    pub kind: u8,
    /// How the span ended.
    pub outcome: Outcome,
    /// Span duration in nanoseconds.
    pub dur_ns: u64,
}

impl SpanEvent {
    /// Sentinel for "no transaction / no partition".
    pub const NONE: u64 = u64::MAX;

    /// Display name of [`SpanEvent::kind`].
    pub fn kind_name(&self) -> &'static str {
        crate::kind_name(self.kind)
    }
}

/// One seqlock-protected slot. Every field is an independent atomic; the
/// `seq` word orders the publication (no `unsafe`, no uninitialised reads).
#[derive(Debug, Default)]
struct Slot {
    /// 0 = never written; `2g+1` = write for global index `g` in flight;
    /// `2g+2` = event for global index `g` is stable.
    seq: AtomicU64,
    ts: AtomicU64,
    txn: AtomicU64,
    partition: AtomicU64,
    /// Packed `kind << 8 | outcome`.
    kind_outcome: AtomicU64,
    dur: AtomicU64,
}

/// Fixed-capacity lock-free ring buffer of [`SpanEvent`]s.
#[derive(Debug)]
pub struct EventRing {
    slots: Box<[Slot]>,
    /// Next global write index.
    cursor: AtomicU64,
    /// Events dropped by the lap-protection CAS (see module docs).
    dropped: AtomicU64,
    mask: u64,
}

impl EventRing {
    /// Default flight-recorder depth.
    pub const DEFAULT_CAPACITY: usize = 1024;

    /// Create a ring holding the most recent `capacity` events (rounded up
    /// to a power of two, minimum 2).
    pub fn new(capacity: usize) -> EventRing {
        let cap = capacity.max(2).next_power_of_two();
        EventRing {
            slots: (0..cap).map(|_| Slot::default()).collect(),
            cursor: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            mask: (cap - 1) as u64,
        }
    }

    /// Ring capacity (power of two).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total events ever pushed (including any later overwritten).
    pub fn pushed(&self) -> u64 {
        self.cursor.load(Ordering::Relaxed)
    }

    /// Events dropped to avoid tearing a lapped in-flight slot.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Publish events in order. Lock-free: one `fetch_add` for the run,
    /// then per-slot seqlock stores; never blocks, never tears. Only the
    /// newest `capacity` events of a longer run are published.
    pub fn push(&self, events: &[SpanEvent]) {
        let cap = self.slots.len() as u64;
        let events = &events[events.len().saturating_sub(cap as usize)..];
        let first = self
            .cursor
            .fetch_add(events.len() as u64, Ordering::Relaxed);
        for (g, ev) in (first..).zip(events) {
            let slot = &self.slots[(g & self.mask) as usize];
            let prev_stable = if g >= cap { 2 * (g - cap) + 2 } else { 0 };
            // Claim the slot only if its previous generation is stable. If
            // the previous writer is still mid-write we have lapped the
            // whole ring within one write — drop our event, not tear theirs.
            if slot
                .seq
                .compare_exchange(prev_stable, 2 * g + 1, Ordering::Acquire, Ordering::Relaxed)
                .is_err()
            {
                self.dropped.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            fence(Ordering::Release);
            slot.ts.store(ev.ts_ns, Ordering::Relaxed);
            slot.txn.store(ev.txn_id, Ordering::Relaxed);
            slot.partition.store(ev.partition_id, Ordering::Relaxed);
            slot.kind_outcome
                .store((ev.kind as u64) << 8 | ev.outcome as u64, Ordering::Relaxed);
            slot.dur.store(ev.dur_ns, Ordering::Relaxed);
            slot.seq.store(2 * g + 2, Ordering::Release);
        }
    }

    /// The most recent `limit` stable events, oldest first. Slots being
    /// overwritten mid-read are skipped, never returned torn.
    pub fn recent(&self, limit: usize) -> Vec<SpanEvent> {
        let cur = self.cursor.load(Ordering::Relaxed);
        let cap = self.slots.len() as u64;
        let oldest = cur.saturating_sub(cap);
        let mut out = Vec::with_capacity(limit.min(cap as usize));
        let mut g = cur;
        while g > oldest && out.len() < limit {
            g -= 1;
            let slot = &self.slots[(g & self.mask) as usize];
            let stable = 2 * g + 2;
            if slot.seq.load(Ordering::Acquire) != stable {
                continue; // in flight or already a newer generation
            }
            let kind_outcome = slot.kind_outcome.load(Ordering::Relaxed);
            let ev = SpanEvent {
                ts_ns: slot.ts.load(Ordering::Relaxed),
                txn_id: slot.txn.load(Ordering::Relaxed),
                partition_id: slot.partition.load(Ordering::Relaxed),
                kind: (kind_outcome >> 8) as u8,
                outcome: Outcome::from_u8((kind_outcome & 0xFF) as u8),
                dur_ns: slot.dur.load(Ordering::Relaxed),
            };
            // Re-check: if the slot moved on while we read, discard.
            fence(Ordering::Acquire);
            if slot.seq.load(Ordering::Relaxed) == stable {
                out.push(ev);
            }
        }
        out.reverse();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn ev(kind: u8, txn: u64, dur: u64) -> SpanEvent {
        SpanEvent {
            ts_ns: txn,
            txn_id: txn,
            partition_id: SpanEvent::NONE,
            kind,
            outcome: Outcome::Ok,
            dur_ns: dur,
        }
    }

    #[test]
    fn capacity_rounds_up_and_bounds_retention() {
        let ring = EventRing::new(5);
        assert_eq!(ring.capacity(), 8);
        for i in 0..20 {
            ring.push(&[ev(0, i, i)]);
        }
        let recent = ring.recent(100);
        assert_eq!(recent.len(), 8, "only the last capacity events remain");
        let txns: Vec<u64> = recent.iter().map(|e| e.txn_id).collect();
        assert_eq!(txns, (12..20).collect::<Vec<_>>(), "oldest first");
        assert_eq!(ring.recent(3).len(), 3);
        assert_eq!(ring.recent(3)[2].txn_id, 19, "limit keeps the newest");
    }

    #[test]
    fn empty_ring_reports_nothing() {
        let ring = EventRing::new(16);
        assert!(ring.recent(10).is_empty());
        assert_eq!(ring.pushed(), 0);
    }

    /// 8 writers hammer a small ring with runs of 1–4 events (a statement
    /// publishes its phases and root as one run) while 3 readers scan it;
    /// every event a reader observes must be internally consistent (writer
    /// id encoded in every field), and the capacity bound must hold
    /// throughout.
    #[test]
    fn eight_writers_produce_no_torn_events() {
        let ring = Arc::new(EventRing::new(64));
        let done = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let (ring, done) = (Arc::clone(&ring), Arc::clone(&done));
                std::thread::spawn(move || {
                    let mut seen = 0usize;
                    while !done.load(Ordering::Relaxed) || seen == 0 {
                        let events = ring.recent(64);
                        assert!(events.len() <= 64, "capacity bound violated");
                        for e in &events {
                            assert_eq!(e.ts_ns, e.txn_id, "torn event: ts vs txn");
                            assert_eq!(e.ts_ns, e.dur_ns, "torn event: ts vs dur");
                            assert_eq!(e.ts_ns / 1_000_000, e.partition_id, "torn writer id");
                            assert_eq!(e.kind as u64, e.partition_id, "torn kind");
                        }
                        seen += events.len();
                    }
                    seen
                })
            })
            .collect();
        let writers: Vec<_> = (0..8u64)
            .map(|w| {
                let ring = Arc::clone(&ring);
                std::thread::spawn(move || {
                    // Every field encodes (writer, i) so tearing is
                    // detectable from any mismatched pair.
                    let ev = |i: u64| SpanEvent {
                        ts_ns: w * 1_000_000 + i,
                        txn_id: w * 1_000_000 + i,
                        partition_id: w,
                        kind: w as u8,
                        outcome: Outcome::Ok,
                        dur_ns: w * 1_000_000 + i,
                    };
                    for i in (0..5_000u64).step_by(4) {
                        let run: Vec<SpanEvent> = (i..i + 1 + (i / 4) % 4).map(ev).collect();
                        ring.push(&run);
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        done.store(true, Ordering::Relaxed);
        for r in readers {
            assert!(r.join().unwrap() > 0, "reader saw some events");
        }
        let per_writer: u64 = (0..5_000u64).step_by(4).map(|i| 1 + (i / 4) % 4).sum();
        assert_eq!(
            ring.pushed(),
            8 * per_writer,
            "every event claimed a distinct global index"
        );
        let final_events = ring.recent(64);
        assert!(final_events.len() + ring.dropped() as usize >= 1);
        assert!(final_events.len() <= 64);
    }
}
