//! Regression test for torn metrics snapshots.
//!
//! Once metrics left the engine's big lock and became atomics, a `SHOW
//! METRICS` taken mid-`GROUND ALL` could observe *some* of a multi-counter
//! transition — e.g. `grounded_explicit` already incremented while
//! `pending` still counts the transaction — making `committed −
//! grounded_total ≠ pending`. The sharded engine closes this with a
//! seqlock: writers publish whole transitions, and a snapshot is a single
//! `SeqCst` epoch read, the cell reads, and an epoch re-check. This test
//! pins the guarantee by hammering snapshots from observer threads while a
//! writer thread alternates bursts of submits with `GROUND ALL`.
//!
//! The observers also pull `SHOW PROFILE` and `SHOW EVENTS` on every
//! lap: the observability layer records histograms and ring events on
//! the same statements the writer is executing, and neither that
//! recording nor the lock-free profile snapshot may disturb the seqlock
//! identity — or return an incoherent histogram (percentiles out of
//! order) mid-write.

use std::sync::atomic::{AtomicBool, Ordering};

use quantum_db::{QuantumDb, QuantumDbConfig, Response, Session};

const LANES: i64 = 6;
const ROUNDS: usize = 15;

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
    for lane in 0..LANES {
        for slot in 0..ROUNDS as i64 {
            insert
                .bind(&[lane.into(), format!("s{slot:02}").into()])
                .unwrap()
                .run()
                .unwrap();
        }
    }
    session
}

#[test]
fn show_metrics_mid_ground_all_never_observes_torn_counters() {
    let session = build_session();
    let done = AtomicBool::new(false);

    std::thread::scope(|scope| {
        // Writer: bursts of one pending booking per lane, then a global
        // collapse — every round moves (committed, pending) and then
        // (grounded, pending) through multi-counter transitions.
        let writer_session = session.clone();
        let done_ref = &done;
        scope.spawn(move || {
            let book = writer_session
                .prepare(
                    "SELECT @s FROM Free(?, @s) CHOOSE 1 \
                     FOLLOWED BY (DELETE (?, @s) FROM Free; \
                                  INSERT (?, ?, @s) INTO Taken)",
                )
                .unwrap();
            for round in 0..ROUNDS {
                for lane in 0..LANES {
                    let who = format!("r{round}-l{lane}");
                    let r = book
                        .bind(&[lane.into(), lane.into(), who.as_str().into(), lane.into()])
                        .unwrap()
                        .run()
                        .unwrap();
                    assert!(matches!(r, Response::Committed(_)));
                }
                writer_session.execute("GROUND ALL").unwrap();
            }
            done_ref.store(true, Ordering::SeqCst);
        });

        // Observers: consistent snapshots must balance at every instant,
        // both through the typed API and through `SHOW METRICS`.
        for _ in 0..2 {
            let obs = session.clone();
            let done_ref = &done;
            scope.spawn(move || {
                let mut samples = 0u64;
                while !done_ref.load(Ordering::SeqCst) {
                    let (m, pending) = obs.shared().metrics_with_pending();
                    assert!(
                        m.committed >= m.grounded_total(),
                        "snapshot tore: grounded {} > committed {}",
                        m.grounded_total(),
                        m.committed
                    );
                    assert_eq!(
                        m.committed - m.grounded_total(),
                        pending,
                        "snapshot tore: committed {} − grounded {} ≠ pending {}",
                        m.committed,
                        m.grounded_total(),
                        pending
                    );
                    let wire = obs.execute("SHOW METRICS").unwrap();
                    let wm = wire.metrics().expect("typed metrics");
                    assert!(
                        wm.committed >= wm.grounded_total(),
                        "SHOW METRICS tore: grounded {} > committed {}",
                        wm.grounded_total(),
                        wm.committed
                    );
                    // Histograms are recorded lock-free by the writer's
                    // statements while we read them; a snapshot must still
                    // be internally ordered.
                    let profile = obs.execute("SHOW PROFILE").unwrap();
                    let p = profile.profile().expect("typed profile");
                    for (name, s) in p.classes.iter().chain(p.phases.iter()) {
                        assert!(s.count > 0, "{name}: empty summary reported");
                        assert!(s.p99_ns >= s.p50_ns, "{name}: p99 < p50");
                        assert!(s.p999_ns >= s.p99_ns, "{name}: p999 < p99");
                        assert!(s.max_ns >= s.p999_ns, "{name}: max < p999");
                    }
                    let events = obs.execute("SHOW EVENTS LIMIT 16").unwrap();
                    assert!(events.events().expect("typed events").len() <= 16);
                    samples += 1;
                }
                assert!(samples > 0, "observer never sampled");
            });
        }
    });

    // Quiesced: everything grounded, books balanced.
    let (m, pending) = session.shared().metrics_with_pending();
    let expected = (LANES as u64) * (ROUNDS as u64);
    assert_eq!(m.committed, expected);
    assert_eq!(m.grounded_total(), expected);
    assert_eq!(pending, 0);
}

/// `reset_metrics` taken while transactions are pending must not break
/// the accounting identity: `committed` restarts at the pending count
/// (the commits the new epoch inherits), so `committed − grounded_total
/// == pending` keeps holding for every later snapshot — including ones
/// taken after the inherited transactions ground.
#[test]
fn reset_mid_pending_keeps_the_accounting_identity() {
    let session = build_session();
    let book = session
        .prepare(
            "SELECT @s FROM Free(?, @s) CHOOSE 1 \
             FOLLOWED BY (DELETE (?, @s) FROM Free; \
                          INSERT (?, ?, @s) INTO Taken)",
        )
        .unwrap();
    for lane in 0..LANES {
        let who = format!("pre-reset-l{lane}");
        let r = book
            .bind(&[lane.into(), lane.into(), who.as_str().into(), lane.into()])
            .unwrap()
            .run()
            .unwrap();
        assert!(matches!(r, Response::Committed(_)));
    }
    let shared = session.shared();
    assert_eq!(shared.pending_count() as i64, LANES);

    shared.reset_metrics();
    let (m, pending) = shared.metrics_with_pending();
    assert_eq!(pending as i64, LANES, "pending is live state, not a stat");
    assert_eq!(m.committed, pending, "reset inherits pending as committed");
    assert_eq!(
        m.max_pending, pending,
        "inherited pending is the high-water"
    );
    assert_eq!(m.grounded_total(), 0);
    assert_eq!(m.submitted, 0);

    // Grounding the inherited transactions keeps the identity balanced…
    shared.ground_all().unwrap();
    let (m, pending) = shared.metrics_with_pending();
    assert_eq!(pending, 0);
    assert_eq!(m.committed - m.grounded_total(), pending);

    // …and so does post-reset traffic.
    let r = book
        .bind(&[0i64.into(), 0i64.into(), "post-reset".into(), 0i64.into()])
        .unwrap()
        .run()
        .unwrap();
    assert!(matches!(r, Response::Committed(_)));
    let (m, pending) = shared.metrics_with_pending();
    assert_eq!(m.committed - m.grounded_total(), pending);
    assert_eq!(pending, 1);
}
