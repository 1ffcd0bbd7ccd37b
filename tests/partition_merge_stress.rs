//! Lock-discipline stress test for the partition-sharded engine
//! (loom-style: manually interleaved via seeded schedules, not exhaustive
//! model checking — the offline build has no loom).
//!
//! Eight threads submit bookings that are mostly disjoint (each thread
//! owns a lane = one §4 partition) but, on a deterministic per-thread
//! schedule, submit *wildcard* bookings whose lane is unconstrained. A
//! wildcard unifies with every lane, so admitting it forces the engine to
//! merge every live partition — the two-phase reservation/drain path —
//! while other threads race reads, explicit grounds and introspection
//! against it. The test asserts:
//!
//! * no deadlock (a watchdog fails the test if the scope wedges),
//! * the accounting invariant `committed − grounded == pending` at every
//!   consistent snapshot taken mid-flight from every thread,
//! * conservation after quiescing: every committed booking took exactly
//!   one slot, none lost, none duplicated.

use std::sync::mpsc;
use std::time::Duration;

use qdb_workload::rng::StdRng;
use quantum_db::storage::Value;
use quantum_db::{QuantumDb, QuantumDbConfig, Response, Session};

const THREADS: usize = 8;
const BOOKINGS_PER_THREAD: usize = 10;
/// Wildcard (merge-forcing) bookings per thread.
const WILDCARDS_PER_THREAD: usize = 2;
/// Extra capacity per lane: even if the solver funnels *every* wildcard
/// into one lane (FirstFit may), no lane can exhaust and abort a booking.
const SPARE_SLOTS: usize = THREADS * WILDCARDS_PER_THREAD;

fn build_session() -> Session {
    let shared = QuantumDb::new(QuantumDbConfig::default())
        .unwrap()
        .into_shared();
    shared
        .execute("CREATE TABLE Free (lane INT, slot TEXT)")
        .unwrap();
    shared
        .execute("CREATE TABLE Taken (who TEXT, lane INT, slot TEXT)")
        .unwrap();
    let session = shared.session();
    let insert = session.prepare("INSERT INTO Free VALUES (?, ?)").unwrap();
    for lane in 0..THREADS as i64 {
        for slot in 0..(BOOKINGS_PER_THREAD + SPARE_SLOTS) as i64 {
            insert
                .bind(&[Value::from(lane), Value::from(format!("s{slot:02}"))])
                .unwrap()
                .run()
                .unwrap();
        }
    }
    session
}

fn run_stress(seed: u64) {
    let session = build_session();

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let session = session.clone();
            scope.spawn(move || {
                // The thread's own deterministic schedule source.
                let mut rng = StdRng::seed_from_u64(seed ^ t as u64);
                // Seeded wildcard positions (at most WILDCARDS_PER_THREAD,
                // so capacity can never run out wherever they land).
                let wildcard_at: Vec<usize> = (0..WILDCARDS_PER_THREAD)
                    .map(|_| rng.gen_range(0..BOOKINGS_PER_THREAD))
                    .collect();
                let lane = Value::from(t as i64);
                // Lane-local booking: stays inside this thread's partition.
                let own = session
                    .prepare(
                        "SELECT @s FROM Free(?, @s) CHOOSE 1 \
                         FOLLOWED BY (DELETE (?, @s) FROM Free; \
                                      INSERT (?, ?, @s) INTO Taken)",
                    )
                    .unwrap();
                // Wildcard booking: lane unconstrained — unifies with every
                // partition and forces a global merge on admission.
                let any = session
                    .prepare(
                        "SELECT @l, @s FROM Free(@l, @s) CHOOSE 1 \
                         FOLLOWED BY (DELETE (@l, @s) FROM Free; \
                                      INSERT (?, @l, @s) INTO Taken)",
                    )
                    .unwrap();
                for i in 0..BOOKINGS_PER_THREAD {
                    let who = Value::from(format!("t{t}-{i}"));
                    // Seeded interleaving points: stagger threads so
                    // different runs explore different overlap timings.
                    for _ in 0..rng.gen_range(0..3) {
                        std::thread::yield_now();
                    }
                    let wildcard = wildcard_at.contains(&i);
                    let r = if wildcard {
                        any.bind(std::slice::from_ref(&who)).unwrap().run().unwrap()
                    } else {
                        own.bind(&[lane.clone(), lane.clone(), who.clone(), lane.clone()])
                            .unwrap()
                            .run()
                            .unwrap()
                    };
                    assert!(
                        matches!(r, Response::Committed(_)),
                        "thread {t} booking {i} (wildcard={wildcard}): {r:?}"
                    );
                    // Interleave the other statement classes on schedule.
                    match rng.gen_range(0..4) {
                        0 => {
                            let rows = session
                                .execute(&format!("SELECT @s FROM Taken('t{t}-{i}', @l, @s)"))
                                .unwrap();
                            assert_eq!(
                                rows.rows().unwrap().len(),
                                1,
                                "thread {t}'s own booking must be observable"
                            );
                        }
                        1 => {
                            if let Response::Committed(id) = r {
                                session.execute(&format!("GROUND {id}")).unwrap();
                            }
                        }
                        2 => {
                            let p = session.execute("SHOW PENDING").unwrap();
                            assert!(matches!(p, Response::Pending(_)));
                        }
                        _ => {}
                    }
                    // The accounting invariant, from one seqlock window.
                    let (m, pending) = session.shared().metrics_with_pending();
                    assert!(m.committed >= m.grounded_total());
                    assert_eq!(
                        m.committed - m.grounded_total(),
                        pending,
                        "pending accounting diverged mid-flight (thread {t})"
                    );
                }
            });
        }
    });

    // Quiesced: the books balance exactly.
    let shared = session.shared();
    let expected = (THREADS * BOOKINGS_PER_THREAD) as u64;
    let (metrics, pending) = shared.metrics_with_pending();
    assert_eq!(metrics.submitted, expected, "lost submissions");
    assert_eq!(metrics.committed, expected, "capacity was sufficient");
    assert_eq!(metrics.aborted, 0);
    assert_eq!(metrics.committed - metrics.grounded_total(), pending);

    // Whether the racing wildcards hit a multi-partition moment is
    // schedule-dependent; force one *deterministic* merge so every run
    // exercises the reservation/drain path: collapse everything, open two
    // disjoint partitions, then drop a wildcard across both.
    shared.ground_all().unwrap();
    for (lane, who) in [(0i64, "merge-a"), (1, "merge-b")] {
        let r = session
            .execute(&format!(
                "SELECT @s FROM Free({lane}, @s) CHOOSE 1 \
                 FOLLOWED BY (DELETE ({lane}, @s) FROM Free; \
                              INSERT ('{who}', {lane}, @s) INTO Taken)"
            ))
            .unwrap();
        assert!(matches!(r, Response::Committed(_)));
    }
    let merges_before = shared.metrics().partition_merges;
    let r = session
        .execute(
            "SELECT @l, @s FROM Free(@l, @s) CHOOSE 1 \
             FOLLOWED BY (DELETE (@l, @s) FROM Free; \
                          INSERT ('merge-w', @l, @s) INTO Taken)",
        )
        .unwrap();
    assert!(matches!(r, Response::Committed(_)));
    assert_eq!(
        shared.metrics().partition_merges,
        merges_before + 1,
        "the wildcard must merge the two open partitions"
    );
    let expected = expected + 3;

    shared.ground_all().unwrap();
    assert_eq!(shared.pending_count(), 0);
    let metrics = shared.metrics();
    assert_eq!(metrics.grounded_total(), expected, "a booking never landed");

    // Conservation: every booking took exactly one slot.
    let taken = session.execute("SELECT * FROM Taken(@w, @l, @s)").unwrap();
    assert_eq!(taken.rows().unwrap().len(), expected as usize);
    let free = session.execute("SELECT * FROM Free(@l, @s)").unwrap();
    assert_eq!(
        free.rows().unwrap().len(),
        THREADS * SPARE_SLOTS - 3,
        "slots lost or double-booked"
    );
}

/// Run one seeded schedule under a watchdog: if the interleaving wedges
/// (a lock-ordering bug), the test fails instead of hanging CI forever.
fn run_with_watchdog(seed: u64) {
    let (tx, rx) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        run_stress(seed);
        let _ = tx.send(());
    });
    match rx.recv_timeout(Duration::from_secs(300)) {
        Ok(()) => worker.join().expect("stress worker panicked"),
        Err(_) => panic!("deadlock suspected: seeded schedule {seed:#x} did not finish in 300s"),
    }
}

#[test]
fn overlapping_submits_merge_partitions_without_deadlock_schedule_a() {
    run_with_watchdog(0xC1DE_0001);
}

#[test]
fn overlapping_submits_merge_partitions_without_deadlock_schedule_b() {
    run_with_watchdog(0xB00C_0002);
}
