//! The replay seams of the one engine: crash recovery and replicated
//! replay both run the live admission/ground path in *replay mode*
//! (caller-supplied ids, logged ops applied verbatim, no partner grounding
//! or k-enforcement). These tests pin what that mode must preserve.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use qdb_core::{world_fingerprint, QuantumDb, QuantumDbConfig, ReplicaApplier, SharedQuantumDb};
use qdb_logic::{parse_query, parse_transaction, ResourceTransaction, Valuation};
use qdb_storage::wal::{frame_spans, MemorySink};
use qdb_storage::{tuple, Schema, ValueType, Wal, WriteOp};

fn fresh() -> SharedQuantumDb {
    QuantumDb::new(QuantumDbConfig::default())
        .unwrap()
        .into_shared()
}

/// Two flights of three seats each (one row: A–B–C adjacent).
fn travel_engine() -> SharedQuantumDb {
    let qdb = fresh();
    qdb.create_table(Schema::new(
        "Available",
        vec![("flight", ValueType::Int), ("seat", ValueType::Str)],
    ))
    .unwrap();
    qdb.create_table(Schema::new(
        "Bookings",
        vec![
            ("name", ValueType::Str),
            ("flight", ValueType::Int),
            ("seat", ValueType::Str),
        ],
    ))
    .unwrap();
    qdb.create_table(Schema::new(
        "Adjacent",
        vec![("s1", ValueType::Str), ("s2", ValueType::Str)],
    ))
    .unwrap();
    for flight in [1, 2] {
        qdb.bulk_insert(
            "Available",
            vec![
                tuple![flight, "A"],
                tuple![flight, "B"],
                tuple![flight, "C"],
            ],
        )
        .unwrap();
    }
    qdb.bulk_insert(
        "Adjacent",
        vec![
            tuple!["A", "B"],
            tuple!["B", "A"],
            tuple!["B", "C"],
            tuple!["C", "B"],
        ],
    )
    .unwrap();
    qdb
}

fn book_on(name: &str, flight: i64) -> ResourceTransaction {
    parse_transaction(&format!(
        "-Available({flight}, s), +Bookings('{name}', {flight}, s) :-1 Available({flight}, s)"
    ))
    .unwrap()
}

/// Any seat on any flight: overlaps every flight's partition.
fn book_anywhere(name: &str) -> ResourceTransaction {
    parse_transaction(&format!(
        "-Available(f, s), +Bookings('{name}', f, s) :-1 Available(f, s)"
    ))
    .unwrap()
}

fn book_next_to(name: &str, partner: &str, flight: i64) -> ResourceTransaction {
    parse_transaction(&format!(
        "-Available({flight}, s), +Bookings('{name}', {flight}, s) :-1 \
         Available({flight}, s), Bookings('{partner}', {flight}, s2)?, Adjacent(s, s2)?"
    ))
    .unwrap()
}

fn recover(image: &[u8]) -> QuantumDb {
    let wal = Wal::with_sink(Box::new(MemorySink::from_bytes(image.to_vec())));
    QuantumDb::recover(wal, QuantumDbConfig::default()).expect("recovery succeeds")
}

/// A history whose log holds partner groundings (Mickey + Goofy collapse
/// when Goofy arrives) and a cross-partition merge (the flight-1 and
/// flight-2 partitions merge under the any-flight booking), with the
/// merging transaction still pending.
fn merged_history() -> SharedQuantumDb {
    let live = travel_engine();
    assert!(live
        .submit(&book_next_to("Mickey", "Goofy", 1))
        .unwrap()
        .is_committed());
    assert!(live
        .submit(&book_next_to("Goofy", "Mickey", 1))
        .unwrap()
        .is_committed());
    assert_eq!(live.metrics().grounded_by_partner, 2);
    assert!(live.submit(&book_on("Donald", 1)).unwrap().is_committed());
    assert!(live.submit(&book_on("Daisy", 2)).unwrap().is_committed());
    assert_eq!(live.partition_count(), 2, "flights are independent");
    assert!(live.submit(&book_anywhere("Pluto")).unwrap().is_committed());
    assert_eq!(live.partition_count(), 1, "the wildcard merged them");
    assert_eq!(live.metrics().partition_merges, 1);
    live
}

#[test]
fn recovery_appends_nothing_and_matches_the_live_engine() {
    let live = merged_history();
    let image = live.wal_image();

    let recovered = recover(&image);
    assert_eq!(recovered.pending_ids(), live.pending_ids());
    assert_eq!(recovered.partition_count(), live.partition_count());
    assert_eq!(
        world_fingerprint(recovered.database()),
        live.with_database(world_fingerprint)
    );

    // Replay mode never logs: the recovered engine's WAL is the image it
    // was recovered from, byte for byte.
    let recovered = recovered.into_shared();
    assert_eq!(recovered.wal_size(), image.len() as u64);
    assert_eq!(recovered.wal_image(), image);
    // …and the accounting identity holds from the first snapshot.
    let (m, pending) = recovered.metrics_with_pending();
    assert_eq!(pending, 3);
    assert_eq!(m.committed - m.grounded_total(), pending);
}

#[test]
fn recovering_a_recovered_image_is_a_fixpoint() {
    let image = merged_history().wal_image();
    let once = recover(&image);
    let (ids, parts, fp) = (
        once.pending_ids(),
        once.partition_count(),
        world_fingerprint(once.database()),
    );
    let image_once = once.into_shared().wal_image();
    assert_eq!(image_once, image);
    let twice = recover(&image_once);
    assert_eq!(twice.pending_ids(), ids);
    assert_eq!(twice.partition_count(), parts);
    assert_eq!(world_fingerprint(twice.database()), fp);
    assert_eq!(twice.into_shared().wal_image(), image);
}

/// Ids of transactions grounded before the crash stay spent: recovery
/// resumes the counter past every logged `PendingAdd`, pending or not.
#[test]
fn recovery_never_reissues_the_id_of_a_grounded_transaction() {
    let qdb = travel_engine();
    qdb.submit(&book_on("Mickey", 1)).unwrap();
    let donald = qdb.submit(&book_on("Donald", 2)).unwrap().id().unwrap();
    qdb.ground(donald).unwrap();
    let recovered = recover(&qdb.wal_image()).into_shared();
    assert_eq!(recovered.last_txn_id(), donald, "Mickey's id 0 is pending");
    recovered.ground_all().unwrap();
    let recovered = recover(&recovered.wal_image()).into_shared();
    let next = recovered
        .submit(&book_on("Pluto", 1))
        .unwrap()
        .id()
        .unwrap();
    assert_eq!(next, donald + 1, "ids continue past every logged one");
}

/// Canonical form of one answer (row order is not part of the contract).
fn canon(mut rows: Vec<Valuation>) -> Vec<Valuation> {
    rows.sort();
    rows
}

/// The distinct possible-world answers of `q` at this engine's state.
fn possible(db: &SharedQuantumDb, q: &[qdb_logic::Atom]) -> BTreeSet<Vec<Valuation>> {
    db.read_possible(q, 10_000)
        .unwrap()
        .into_iter()
        .map(canon)
        .collect()
}

/// Replicated replay takes the engine's slot/base/WAL locks like any
/// statement, so PEEK/POSSIBLE readers run against a replica while the
/// stream is applied. The run must finish (no lock-order inversion
/// between replay and reads) and every answer must be explainable at
/// *some* applied horizon: a POSSIBLE answer equals the possible-world
/// answers of the primary's log cut at some record boundary, and a PEEK
/// answer is one of those worlds' answers.
#[test]
fn readers_on_a_replica_see_only_applied_horizons_while_segments_stream_in() {
    // A primary history that keeps changing what `Bookings(n, 1, s)` can
    // answer: pending bookings, explicit groundings, blind writes.
    let primary = travel_engine();
    for round in 0..4 {
        primary
            .write(WriteOp::insert("Available", tuple![1, format!("X{round}")]))
            .unwrap();
        let a = primary
            .submit(&book_on(&format!("u{round}"), 1))
            .unwrap()
            .id()
            .expect("capacity was just added");
        primary.submit(&book_on(&format!("v{round}"), 1)).unwrap();
        primary.submit(&book_on(&format!("w{round}"), 2)).unwrap();
        if round % 2 == 0 {
            assert!(primary.ground(a).unwrap());
        }
    }
    primary.ground_all().unwrap();
    let image = primary.wal_image();
    let query = parse_query("Bookings(n, 1, s)").unwrap().atoms;

    // Every horizon a reader may legitimately observe: the log cut at
    // each record boundary, recovered independently.
    let mut horizons: Vec<BTreeSet<Vec<Valuation>>> = vec![BTreeSet::from([Vec::new()])];
    for (_, end) in frame_spans(&image) {
        let reference = recover(&image[..end as usize]).into_shared();
        if reference.with_database(|db| db.table("Bookings").is_ok()) {
            horizons.push(possible(&reference, &query));
        }
    }
    let all_worlds: BTreeSet<Vec<Valuation>> = horizons.iter().flatten().cloned().collect();

    const SEGMENT: usize = 37;
    let chunks = image.len().div_ceil(SEGMENT) as u64 / 2;
    let (done_tx, done_rx) = mpsc::channel::<Result<u64, String>>();
    let stream = std::thread::spawn(move || {
        let mut applier = ReplicaApplier::new(fresh());
        let replica = applier.db().clone();
        let streaming = Arc::new(AtomicBool::new(true));
        // Reader loop iterations, so the stream can pace itself against
        // the readers instead of finishing before they get going.
        let looks = Arc::new(AtomicU64::new(0));
        let readers: Vec<_> = (0..3)
            .map(|r| {
                let (replica, query, streaming, looks) = (
                    replica.clone(),
                    query.clone(),
                    Arc::clone(&streaming),
                    Arc::clone(&looks),
                );
                let (horizons, all_worlds) = (horizons.clone(), all_worlds.clone());
                // An unexplainable answer goes straight to the watchdog.
                let unexplained = done_tx.clone();
                std::thread::spawn(move || -> u64 {
                    let mut reads = 0u64;
                    while streaming.load(Ordering::SeqCst) || reads == 0 {
                        looks.fetch_add(1, Ordering::SeqCst);
                        if replica.with_database(|db| db.table("Bookings").is_err()) {
                            std::thread::yield_now();
                            continue; // schema not replicated yet
                        }
                        if (reads + r).is_multiple_of(2) {
                            let peek = canon(replica.read_peek(&query, None).unwrap());
                            if !all_worlds.contains(&peek) {
                                let _ = unexplained.send(Err(format!(
                                    "PEEK answer in no horizon's worlds: {peek:?}"
                                )));
                            }
                        } else {
                            let got = possible(&replica, &query);
                            if !horizons.contains(&got) {
                                let _ = unexplained
                                    .send(Err(format!("POSSIBLE answer at no horizon: {got:?}")));
                            }
                        }
                        reads += 1;
                    }
                    reads
                })
            })
            .collect();
        // Odd-sized segments split frames at arbitrary bytes; at least
        // one read starts between any two of them.
        for chunk in image.chunks(SEGMENT) {
            let at = applier.fetch_offset();
            applier.apply_segment(at, chunk).unwrap();
            let seen = looks.load(Ordering::SeqCst);
            while looks.load(Ordering::SeqCst) == seen {
                std::thread::yield_now();
            }
        }
        streaming.store(false, Ordering::SeqCst);
        let total: u64 = readers
            .into_iter()
            .map(|reader| reader.join().expect("reader thread panicked"))
            .sum();
        // Caught up: the replica is the primary.
        assert_eq!(applier.applied_offset(), image.len() as u64);
        assert_eq!(
            replica.with_database(world_fingerprint),
            primary.with_database(world_fingerprint)
        );
        let _ = done_tx.send(Ok(total));
    });

    // Watchdog: a lock-order inversion between replay and reads would
    // hang, not fail — bound the whole run.
    match done_rx.recv_timeout(Duration::from_secs(60)) {
        Ok(Ok(reads)) => {
            assert!(reads >= chunks, "{reads} reads over {chunks} segments");
            stream.join().expect("stream thread panicked");
        }
        Ok(Err(unexplained)) => panic!("{unexplained}"),
        Err(_) => panic!("replica replay + concurrent readers did not finish within 60s"),
    }
}
