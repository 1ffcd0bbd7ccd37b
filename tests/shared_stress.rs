//! Multi-threaded stress test for [`SharedQuantumDb`]: N threads hammer
//! one engine through [`Session`] clones — submits, reads, blind writes
//! and explicit grounding, concurrently — asserting the handle never
//! deadlocks or poisons and that pending-transaction accounting stays
//! consistent throughout.

use quantum_db::storage::Value;
use quantum_db::{QuantumDb, QuantumDbConfig, Response, Session};

const THREADS: usize = 8;
const BOOKINGS_PER_THREAD: usize = 12;

/// Build a schema where each thread owns one "flight" worth of resources,
/// so admissions contend on the engine lock but not on the seats.
fn stressed_session() -> Session {
    let shared = QuantumDb::new(QuantumDbConfig::default())
        .unwrap()
        .into_shared();
    shared
        .execute("CREATE TABLE Free (lane INT, slot TEXT)")
        .unwrap();
    shared
        .execute("CREATE TABLE Taken (who TEXT, lane INT, slot TEXT)")
        .unwrap();
    shared
        .execute("CREATE TABLE Audit (who TEXT, lane INT)")
        .unwrap();
    let session = shared.session();
    let insert = session.prepare("INSERT INTO Free VALUES (?, ?)").unwrap();
    for lane in 0..THREADS as i64 {
        for slot in 0..BOOKINGS_PER_THREAD as i64 {
            insert
                .bind(&[Value::from(lane), Value::from(format!("s{slot}"))])
                .unwrap()
                .run()
                .unwrap();
        }
    }
    session
}

#[test]
fn concurrent_sessions_never_deadlock_and_accounting_stays_consistent() {
    let session = stressed_session();

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let session = session.clone();
            scope.spawn(move || {
                let lane = Value::from(t as i64);
                let book = session
                    .prepare(
                        "SELECT @s FROM Free(?, @s) CHOOSE 1 \
                         FOLLOWED BY (DELETE (?, @s) FROM Free; \
                                      INSERT (?, ?, @s) INTO Taken)",
                    )
                    .unwrap();
                let read = session.prepare("SELECT @s FROM Taken(?, ?, @s)").unwrap();
                for i in 0..BOOKINGS_PER_THREAD {
                    let who = Value::from(format!("t{t}-{i}"));
                    let r = book
                        .bind(&[lane.clone(), lane.clone(), who.clone(), lane.clone()])
                        .unwrap()
                        .run()
                        .unwrap();
                    assert!(
                        matches!(r, Response::Committed(_)),
                        "thread {t} booking {i}: {r:?}"
                    );
                    // Interleave the other operation classes.
                    match i % 4 {
                        0 => {
                            // A read of this thread's own bookings forces
                            // read-induced grounding of its pending txns.
                            let rows = read
                                .bind(&[who.clone(), lane.clone()])
                                .unwrap()
                                .run()
                                .unwrap();
                            assert_eq!(rows.rows().unwrap().len(), 1);
                        }
                        1 => {
                            // Blind write on an unrelated table is always
                            // admitted.
                            let w = session
                                .execute(&format!("INSERT INTO Audit VALUES ('t{t}', {t})"))
                                .unwrap();
                            assert_eq!(w, Response::Written(true));
                        }
                        2 => {
                            // Introspection under contention.
                            let p = session.execute("SHOW PENDING").unwrap();
                            assert!(matches!(p, Response::Pending(_)));
                        }
                        _ => {
                            let m = session.execute("SHOW METRICS").unwrap();
                            assert!(m.metrics().is_some());
                        }
                    }
                    // The core accounting invariant, sampled mid-flight
                    // from one seqlock window so the numbers are from the
                    // same instant: every committed transaction is either
                    // still pending or has been grounded — never lost,
                    // never duplicated.
                    let (m, pending) = session.shared().metrics_with_pending();
                    assert!(
                        m.committed >= m.grounded_total(),
                        "grounded more than committed"
                    );
                    assert_eq!(
                        m.committed - m.grounded_total(),
                        pending,
                        "pending accounting diverged mid-flight"
                    );
                }
            });
        }
    });

    // Quiesced: the books must balance exactly.
    let shared = session.shared();
    let metrics = shared.metrics();
    let expected = (THREADS * BOOKINGS_PER_THREAD) as u64;
    assert_eq!(metrics.submitted, expected, "lost submissions");
    assert_eq!(metrics.committed, expected, "every booking had capacity");
    assert_eq!(metrics.aborted, 0);
    assert_eq!(
        metrics.committed - metrics.grounded_total(),
        shared.pending_count() as u64,
        "pending accounting diverged"
    );

    shared.ground_all().unwrap();
    assert_eq!(shared.pending_count(), 0);
    let metrics = shared.metrics();
    assert_eq!(metrics.grounded_total(), expected, "a booking never landed");
    // Solver hot-path counters flow into the sharded metrics block: the
    // concurrent admissions searched and streamed, and the fast path
    // never materialized a candidate vector.
    assert!(metrics.solver_nodes > 0);
    assert!(metrics.solver_candidates_streamed > 0);
    assert_eq!(metrics.solver_candidate_vecs, 0);

    // Every slot ended up taken exactly once.
    let rows = session.execute("SELECT * FROM Taken(@w, @l, @s)").unwrap();
    assert_eq!(rows.rows().unwrap().len(), THREADS * BOOKINGS_PER_THREAD);
    let free = session.execute("SELECT * FROM Free(@l, @s)").unwrap();
    assert_eq!(free.rows().unwrap().len(), 0, "slots left behind");
}

#[test]
fn pending_ids_snapshots_are_exact_sorted_and_dedup_free_under_churn() {
    use quantum_db::logic::parse_transaction;
    use quantum_db::storage::{tuple, Schema, ValueType};

    let shared = QuantumDb::new(QuantumDbConfig::default())
        .unwrap()
        .into_shared();
    shared
        .create_table(Schema::new(
            "Available",
            vec![("flight", ValueType::Int), ("seat", ValueType::Str)],
        ))
        .unwrap();
    shared
        .create_table(Schema::new(
            "Bookings",
            vec![
                ("name", ValueType::Str),
                ("flight", ValueType::Int),
                ("seat", ValueType::Str),
            ],
        ))
        .unwrap();
    let lanes = 4i64;
    let per_lane = 8i64;
    let mut seats = Vec::new();
    for lane in 0..lanes {
        for s in 0..per_lane {
            seats.push(tuple![lane, format!("s{s}")]);
        }
    }
    shared.bulk_insert("Available", seats).unwrap();

    let book = |lane: i64, who: &str| {
        parse_transaction(&format!(
            "-Available({lane}, s), +Bookings('{who}', {lane}, s) :-1 Available({lane}, s)"
        ))
        .unwrap()
    };

    // Quiescent exactness: the snapshot is exactly the committed,
    // not-yet-ground ids, in ascending order.
    let mut ids = Vec::new();
    for i in 0..lanes * 2 {
        let out = shared.submit(&book(i % lanes, &format!("u{i}"))).unwrap();
        ids.push(out.id().unwrap());
    }
    let mut expected = ids.clone();
    expected.sort_unstable();
    assert_eq!(shared.pending_ids(), expected);
    // Ground every other id: the snapshot tracks removals exactly.
    for id in ids.iter().step_by(2) {
        assert!(shared.ground(*id).unwrap());
    }
    let expected: Vec<_> = ids.iter().copied().skip(1).step_by(2).collect();
    assert_eq!(shared.pending_ids(), expected);

    // Churn: writers submit into disjoint lanes (splitting and re-merging
    // partitions) while a scanner asserts every snapshot is sorted and
    // duplicate-free — the consistency the retry loop must provide even
    // while slots die mid-scan.
    let stop = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|scope| {
        let writers: Vec<_> = (0..lanes)
            .map(|lane| {
                let shared = shared.clone();
                let book = &book;
                scope.spawn(move || {
                    for i in 0..per_lane - 2 {
                        let out = shared.submit(&book(lane, &format!("w{lane}-{i}"))).unwrap();
                        let id = out.id().unwrap();
                        if i % 2 == 0 {
                            assert!(shared.ground(id).unwrap());
                        }
                    }
                })
            })
            .collect();
        let scanner = {
            let shared = shared.clone();
            let stop = &stop;
            scope.spawn(move || {
                let mut scans = 0u64;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) || scans == 0 {
                    let snap = shared.pending_ids();
                    assert!(
                        snap.windows(2).all(|w| w[0] < w[1]),
                        "snapshot not strictly ascending: {snap:?}"
                    );
                    scans += 1;
                }
            })
        };
        for w in writers {
            w.join().unwrap();
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        scanner.join().unwrap();
    });

    // Quiesced again: snapshot matches the accounting identity.
    let (m, pending) = shared.metrics_with_pending();
    assert_eq!(m.committed - m.grounded_total(), pending);
    assert_eq!(shared.pending_ids().len() as u64, pending);
}

#[test]
fn a_panicking_session_user_does_not_poison_the_engine() {
    let session = stressed_session();
    let clone = session.clone();
    let result = std::thread::spawn(move || {
        let _r = clone.execute("SHOW METRICS").unwrap();
        panic!("user code panics while holding nothing");
    })
    .join();
    assert!(result.is_err());
    // The shared handle still serves.
    assert!(session.execute("SHOW PENDING").is_ok());
    assert_eq!(session.shared().pending_count(), 0);
}
