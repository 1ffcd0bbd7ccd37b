//! Regression tests: `GROUND ALL` racing overlapping submits.
//!
//! The sharded engine once emptied the partition registry and drained
//! every slot *before* taking any base lock. A submit that reserved in
//! that window saw no overlapping partitions, admission-solved against
//! the pre-collapse base — where the drained transactions' planned
//! deletes were still invisible — and committed a transaction the apply
//! phase then silently invalidated: a commit that can never ground (the
//! never-rolled-back guarantee broken, surfacing as a strict-order
//! invariant error from a later grounding), or a phantom commit of a
//! resource the collapse had already consumed.
//!
//! The fix registers the collapse as a reservation: one host entry
//! carrying the union of every claimed footprint, its slot held from
//! before the drain until the collapse (or its error recovery) completes,
//! so overlapping submits wait instead of racing.

use std::sync::atomic::{AtomicUsize, Ordering};

use quantum_db::{QuantumDb, QuantumDbConfig, Response, Session};

/// Counts a submitter as finished even when it dies on a failed assert,
/// so the grounder loop always terminates and the panic surfaces as a
/// test failure instead of a wedged run.
struct FinishOnDrop<'a>(&'a AtomicUsize);

impl Drop for FinishOnDrop<'_> {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

fn session_with(tables: &[&str]) -> Session {
    let qdb = QuantumDb::new(QuantumDbConfig::default())
        .unwrap()
        .into_shared();
    for ddl in tables {
        qdb.execute(ddl).unwrap();
    }
    qdb.session()
}

/// The sharpest observable form of the race: a one-seat-per-round
/// depletion workload. Each round a thread blind-inserts one fresh seat
/// into its lane, books it (must commit), then immediately tries to book
/// again (must abort — the lane is empty once the first booking is
/// accounted, pending or applied). A concurrent grounder collapses the
/// quantum state in a tight loop. Pre-fix, the second booking could
/// reserve inside the collapse's drain window, see neither the pending
/// first booking nor its applied delete, and falsely commit — tripping
/// the `Aborted` assertion here (or an `Err` out of a later grounding).
#[test]
fn submit_racing_the_collapse_window_cannot_phantom_commit() {
    const LANES: usize = 4;
    const ROUNDS: usize = 30;

    let session = session_with(&[
        "CREATE TABLE Slot (lane INT, seat TEXT)",
        "CREATE TABLE Taken (who TEXT, lane INT, seat TEXT)",
    ]);
    let finished = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for t in 0..LANES {
            let session = session.clone();
            let finished = &finished;
            scope.spawn(move || {
                let _finish = FinishOnDrop(finished);
                let lane: quantum_db::storage::Value = (t as i64).into();
                let book = session
                    .prepare(
                        "SELECT @s FROM Slot(?, @s) CHOOSE 1 \
                         FOLLOWED BY (DELETE (?, @s) FROM Slot; \
                                      INSERT (?, ?, @s) INTO Taken)",
                    )
                    .unwrap();
                let replenish = session.prepare("INSERT INTO Slot VALUES (?, ?)").unwrap();
                for r in 0..ROUNDS {
                    // One fresh seat: blind inserts are monotone-safe and
                    // always admitted.
                    let w = replenish
                        .bind(&[lane.clone(), format!("s{r:02}").into()])
                        .unwrap()
                        .run()
                        .unwrap();
                    assert_eq!(w, Response::Written(true), "lane {t} round {r}");
                    // First booking takes the lane's only free seat.
                    let who = format!("t{t}-r{r}");
                    let a = book
                        .bind(&[
                            lane.clone(),
                            lane.clone(),
                            who.as_str().into(),
                            lane.clone(),
                        ])
                        .unwrap()
                        .run()
                        .unwrap();
                    assert!(
                        matches!(a, Response::Committed(_)),
                        "lane {t} round {r}: first booking {a:?}"
                    );
                    // Second booking must abort: whether the first is
                    // still pending, mid-collapse, or applied, the lane
                    // holds no bookable seat. A commit here is exactly
                    // the admission-against-invisible-collapse race.
                    let thief = format!("t{t}-r{r}-thief");
                    let b = book
                        .bind(&[
                            lane.clone(),
                            lane.clone(),
                            thief.as_str().into(),
                            lane.clone(),
                        ])
                        .unwrap()
                        .run()
                        .unwrap();
                    assert_eq!(
                        b,
                        Response::Aborted,
                        "lane {t} round {r}: phantom commit past the collapse"
                    );
                }
            });
        }

        // Grounder: keep the registry-take → apply window hot.
        let grounder = session.clone();
        let finished = &finished;
        scope.spawn(move || {
            while finished.load(Ordering::SeqCst) < LANES {
                let r = grounder.execute("GROUND ALL").unwrap();
                assert!(matches!(r, Response::Grounded(_)), "{r:?}");
            }
        });
    });

    // Quiesce: every accepted booking grounds; the books balance exactly.
    let shared = session.shared();
    shared.ground_all().unwrap();
    assert_eq!(shared.pending_count(), 0);

    let expected = (LANES * ROUNDS) as u64;
    let (m, pending) = shared.metrics_with_pending();
    assert_eq!(m.committed, expected);
    assert_eq!(m.aborted, expected, "every thief aborted");
    assert_eq!(m.grounded_total(), expected);
    assert_eq!(pending, 0);
    let taken = session.execute("SELECT * FROM Taken(@w, @l, @s)").unwrap();
    assert_eq!(taken.rows().unwrap().len() as u64, expected);
    let free = session.execute("SELECT * FROM Slot(@l, @s)").unwrap();
    assert_eq!(free.rows().unwrap().len(), 0, "seats left behind");
}

/// Balanced variant (capacity == demand): submits on every lane race the
/// collapse loop; all must commit and every seat must end up taken
/// exactly once. Broad-coverage companion to the depletion test above.
#[test]
fn ground_all_racing_overlapping_submits_keeps_the_books_balanced() {
    const LANES: usize = 4;
    const BOOKINGS_PER_LANE: usize = 24;

    let session = session_with(&[
        "CREATE TABLE Free (lane INT, slot TEXT)",
        "CREATE TABLE Taken (who TEXT, lane INT, slot TEXT)",
    ]);
    let insert = session.prepare("INSERT INTO Free VALUES (?, ?)").unwrap();
    for lane in 0..LANES as i64 {
        for slot in 0..BOOKINGS_PER_LANE as i64 {
            insert
                .bind(&[lane.into(), format!("s{slot:02}").into()])
                .unwrap()
                .run()
                .unwrap();
        }
    }
    let finished = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for t in 0..LANES {
            let session = session.clone();
            let finished = &finished;
            scope.spawn(move || {
                let _finish = FinishOnDrop(finished);
                let lane: quantum_db::storage::Value = (t as i64).into();
                let book = session
                    .prepare(
                        "SELECT @s FROM Free(?, @s) CHOOSE 1 \
                         FOLLOWED BY (DELETE (?, @s) FROM Free; \
                                      INSERT (?, ?, @s) INTO Taken)",
                    )
                    .unwrap();
                for i in 0..BOOKINGS_PER_LANE {
                    let who = format!("t{t}-{i}");
                    let r = book
                        .bind(&[
                            lane.clone(),
                            lane.clone(),
                            who.as_str().into(),
                            lane.clone(),
                        ])
                        .unwrap()
                        .run()
                        .unwrap();
                    assert!(
                        matches!(r, Response::Committed(_)),
                        "lane {t} booking {i}: {r:?}"
                    );
                }
            });
        }

        let grounder = session.clone();
        let finished = &finished;
        scope.spawn(move || {
            while finished.load(Ordering::SeqCst) < LANES {
                let r = grounder.execute("GROUND ALL").unwrap();
                assert!(matches!(r, Response::Grounded(_)), "{r:?}");
            }
        });
    });

    let shared = session.shared();
    shared.ground_all().unwrap();
    assert_eq!(shared.pending_count(), 0);

    let expected = (LANES * BOOKINGS_PER_LANE) as u64;
    let (m, pending) = shared.metrics_with_pending();
    assert_eq!(m.committed, expected, "lost or aborted bookings");
    assert_eq!(m.aborted, 0);
    assert_eq!(m.grounded_total(), expected, "a commit never landed");
    assert_eq!(pending, 0);

    let taken = session.execute("SELECT * FROM Taken(@w, @l, @s)").unwrap();
    assert_eq!(taken.rows().unwrap().len() as u64, expected);
    let free = session.execute("SELECT * FROM Free(@l, @s)").unwrap();
    assert_eq!(free.rows().unwrap().len(), 0, "seats left behind");
}
