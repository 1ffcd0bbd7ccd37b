//! The recording path's budget, held by tests: once a thread is warm,
//! recording a statement (`begin_op`, three phases, `finish_op`) makes no
//! heap allocation, and a statement publishes its events as one run.
//! Both stamp sources — the calibrated TSC and `Instant` — are held to
//! the same contract: no allocation, durations that match `Instant`'s,
//! and stamps that never run backwards within a thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::{Duration, Instant};

use qdb_obs::{stmt_class, EventRing, Obs, Outcome, Phase, SpanEvent, StampSource};

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

/// A handle per stamp source this CPU has (the TSC only on x86-64), with
/// the source's name for failure messages.
fn handles() -> Vec<(StampSource, Obs)> {
    let handles: Vec<_> = [StampSource::Tsc, StampSource::Instant]
        .into_iter()
        .filter_map(|s| Some((s, Obs::with_stamp_source(s)?)))
        .collect();
    assert_eq!(
        handles.len(),
        if cfg!(target_arch = "x86_64") { 2 } else { 1 }
    );
    handles
}

#[test]
fn a_warm_thread_records_a_statement_without_allocating() {
    for (source, obs) in handles() {
        let insert = stmt_class("INSERT").unwrap();
        record_one(&obs, insert); // warm: the thread's span buffer grows once
        let before = ALLOCS.with(Cell::get);
        for _ in 0..100 {
            record_one(&obs, insert);
        }
        let allocs = ALLOCS.with(Cell::get) - before;
        assert_eq!(allocs, 0, "{source:?}: recording allocated");
        // Everything was still recorded: 101 roots, each after its one span.
        assert_eq!(obs.class_histogram("INSERT").count(), 101);
        assert_eq!(obs.phase_histogram(Phase::BaseLockWait).count(), 101);
        assert_eq!(obs.phase_histogram(Phase::BaseLockWait).snapshot().sum, 0);
        let events = obs.events(4);
        let kinds: Vec<&str> = events.iter().map(SpanEvent::kind_name).collect();
        assert_eq!(kinds, ["wal_append", "INSERT", "wal_append", "INSERT"]);
        assert_eq!(events[3].txn_id, 7);
    }
}

fn spin(d: Duration) {
    let t = Instant::now();
    while t.elapsed() < d {}
}

#[test]
fn a_busy_phase_records_the_interval_instant_measures() {
    for (source, obs) in handles() {
        // A preemption between an `Instant` read and the stamp beside it
        // would be charged to one clock only: such an attempt is repeated,
        // not judged. A wrong scale misses on every attempt.
        let mut misses = Vec::new();
        for _ in 0..5 {
            obs.reset();
            let i0 = Instant::now();
            let t = obs.start();
            spin(Duration::from_millis(1));
            obs.observe(Phase::Apply, t);
            let truth = i0.elapsed().as_nanos() as f64;
            let recorded = obs.phase_histogram(Phase::Apply).snapshot().sum as f64;
            if (recorded - truth).abs() <= 0.02 * truth {
                break;
            }
            misses.push((recorded, truth));
        }
        assert!(
            misses.len() < 5,
            "{source:?}: recorded vs Instant ns: {misses:?}"
        );
    }
}

#[test]
fn stamps_never_run_backwards_within_a_thread() {
    for (source, obs) in handles() {
        let token = obs.begin_op(stmt_class("SELECT").unwrap());
        for _ in 0..200 {
            obs.span(Phase::Apply, obs.start());
        }
        obs.finish_op(token, Outcome::Ok, None);
        let events = obs.events(201);
        let (root, spans) = events.split_last().unwrap();
        assert_eq!(root.kind_name(), "SELECT");
        assert_eq!(spans.len(), 200);
        let end = |e: &SpanEvent| e.ts_ns + e.dur_ns;
        assert!(root.ts_ns <= spans[0].ts_ns, "{source:?}: {events:?}");
        for w in spans.windows(2) {
            assert!(end(&w[0]) <= w[1].ts_ns, "{source:?}: {w:?}");
        }
        assert!(end(&spans[199]) <= end(root), "{source:?}: {events:?}");
    }
}

#[test]
fn a_disabled_handle_reads_no_stamp() {
    for (source, obs) in handles() {
        obs.set_enabled(false);
        assert_eq!(obs.start(), Default::default(), "{source:?}");
        let token = obs.begin_op(stmt_class("INSERT").unwrap());
        obs.span(Phase::Apply, obs.start());
        obs.finish_op(token, Outcome::Ok, None);
        assert!(obs.events(1).is_empty(), "{source:?}");
    }
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
