//! The recording path's budget, held by tests: once a thread is warm,
//! recording a statement (`begin_op`, three phases, `finish_op`) makes no
//! heap allocation, and a statement publishes its events as one run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use qdb_obs::{stmt_class, EventRing, Obs, Outcome, Phase, SpanEvent};

/// Counts this thread's allocations (reallocations included), so tests
/// running on other threads do not disturb the count.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call forwards to `System` unchanged; the count is a
// const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// One blind write's recording: the statement bracket around three
/// phases, the last a lock wait that finds its lock free.
fn record_one(obs: &Obs, class: usize) {
    let token = obs.begin_op(class);
    let t = obs.start();
    obs.span(Phase::WalAppend, t);
    let t = obs.start();
    obs.observe(Phase::Registry, t);
    let lock = std::sync::Mutex::new(());
    drop(obs.wait(
        Phase::BaseLockWait,
        || lock.try_lock().ok(),
        || lock.lock().unwrap(),
    ));
    obs.finish_op(token, Outcome::Ok, Some(7));
}

#[test]
fn a_warm_thread_records_a_statement_without_allocating() {
    let obs = Obs::new();
    let insert = stmt_class("INSERT").unwrap();
    record_one(&obs, insert); // warm: the thread's span buffer grows once
    let before = ALLOCS.with(Cell::get);
    for _ in 0..100 {
        record_one(&obs, insert);
    }
    assert_eq!(ALLOCS.with(Cell::get) - before, 0, "recording allocated");
    // Everything was still recorded: 101 roots, each after its one span.
    assert_eq!(obs.class_histogram("INSERT").count(), 101);
    assert_eq!(obs.phase_histogram(Phase::BaseLockWait).count(), 101);
    assert_eq!(obs.phase_histogram(Phase::BaseLockWait).snapshot().sum, 0);
    let events = obs.events(4);
    let kinds: Vec<&str> = events.iter().map(SpanEvent::kind_name).collect();
    assert_eq!(kinds, ["wal_append", "INSERT", "wal_append", "INSERT"]);
    assert_eq!(events[3].txn_id, 7);
}

#[test]
fn a_run_longer_than_the_ring_keeps_its_newest_events() {
    let ring = EventRing::new(4);
    let run: Vec<SpanEvent> = (0..10)
        .map(|i| SpanEvent {
            ts_ns: i,
            txn_id: i,
            partition_id: SpanEvent::NONE,
            kind: 0,
            outcome: Outcome::Ok,
            dur_ns: i,
        })
        .collect();
    ring.push(&run);
    let txns: Vec<u64> = ring.recent(10).iter().map(|e| e.txn_id).collect();
    assert_eq!(txns, [6, 7, 8, 9]);
    assert_eq!(ring.pushed(), 4, "only the published events claim slots");
}
