//! WAL crash-recovery as a tier-1 integration test (promoted from
//! `examples/crash_recovery.rs` so durability is asserted on every test
//! run, not just demonstrated).
//!
//! The engine serializes every committed-but-unground transaction into
//! the WAL *before* acknowledging the commit (§4 "Recovery"); recovery
//! from a torn log must rebuild both the extensional database and the
//! in-memory quantum state, honouring every acknowledged commitment.

use quantum_db::core::{QuantumDb, QuantumDbConfig, SharedQuantumDb};
use quantum_db::logic::parse_transaction;
use quantum_db::storage::wal::MemorySink;
use quantum_db::storage::{tuple, Schema, ValueType, Wal};
use quantum_db::SubmitOutcome;

/// Build an engine with two pending bookings and return its WAL image.
fn engine_with_two_pending() -> (SharedQuantumDb, Vec<u8>) {
    let qdb = QuantumDb::new(QuantumDbConfig::default())
        .unwrap()
        .into_shared();
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
    qdb.bulk_insert(
        "Available",
        vec![tuple![1, "1A"], tuple![1, "1B"], tuple![1, "1C"]],
    )
    .unwrap();
    for user in ["Mickey", "Donald"] {
        let t = parse_transaction(&format!(
            "-Available(f, s), +Bookings('{user}', f, s) :-1 Available(f, s)"
        ))
        .unwrap();
        assert!(qdb.submit(&t).unwrap().is_committed());
    }
    assert_eq!(qdb.pending_count(), 2);
    let image = qdb.wal_image();
    (qdb, image)
}

fn recover(image: Vec<u8>) -> QuantumDb {
    let wal = Wal::with_sink(Box::new(MemorySink::from_bytes(image)));
    QuantumDb::recover(wal, QuantumDbConfig::default()).expect("recovery succeeds")
}

#[test]
fn pending_transactions_survive_a_clean_crash() {
    let (_qdb, image) = engine_with_two_pending();
    let recovered = recover(image).into_shared();
    // Both acknowledged commits are honoured across the failure.
    assert_eq!(recovered.pending_count(), 2);
    let rows = recovered.query("Bookings('Mickey', f, s)").unwrap();
    assert_eq!(rows.len(), 1, "Mickey's commitment must be kept");
    let rows = recovered.query("Bookings('Donald', f, s)").unwrap();
    assert_eq!(rows.len(), 1, "Donald's commitment must be kept");
    // Reads ground the recovered pending state: nothing is pending now,
    // and the two grounded seats are distinct.
    assert_eq!(recovered.pending_count(), 0);
    let seats = recovered.query("Bookings(n, f, s)").unwrap();
    assert_eq!(seats.len(), 2);
}

#[test]
fn a_torn_tail_loses_only_the_unacknowledged_record() {
    let (_qdb, image) = engine_with_two_pending();
    // 💥 The machine dies mid-write: chop 3 bytes off the last frame.
    let torn_at = image.len() - 3;
    let recovered = recover(image[..torn_at].to_vec()).into_shared();

    // Donald's commit record was torn — it is as if the commit was never
    // acknowledged, so exactly one pending transaction survives.
    assert_eq!(recovered.pending_count(), 1);
    let rows = recovered.query("Bookings('Mickey', f, s)").unwrap();
    assert_eq!(rows.len(), 1, "the surviving commitment is honoured");
    assert_eq!(
        recovered.query("Bookings('Donald', f, s)").unwrap().len(),
        0
    );

    // The recovered engine keeps serving: a new booking is admitted.
    let t = parse_transaction("-Available(f, s), +Bookings('Daisy', f, s) :-1 Available(f, s)")
        .unwrap();
    assert!(matches!(
        recovered.submit(&t).unwrap(),
        SubmitOutcome::Committed { .. }
    ));
    recovered.ground_all().unwrap();
    assert_eq!(recovered.pending_count(), 0);
    assert_eq!(recovered.query("Bookings(n, f, s)").unwrap().len(), 2);
}

#[test]
fn truncation_inside_ground_all_leaves_each_txn_grounded_xor_pending() {
    // A crash in the middle of GROUND ALL tears the run of Ground records.
    // Every cut must recover to a state where each committed transaction
    // is *either* fully grounded *or* still pending — never half-applied,
    // never dropped (commits must not roll back, §2).
    let (qdb, pre_ground_image) = engine_with_two_pending();
    let pre_ground_len = pre_ground_image.len();
    qdb.ground_all().unwrap();
    assert_eq!(qdb.pending_count(), 0);
    let image = qdb.wal_image();
    assert!(image.len() > pre_ground_len, "GROUND ALL appended records");

    let mut grounded_counts = std::collections::BTreeSet::new();
    for cut in pre_ground_len..=image.len() {
        let recovered = recover(image[..cut].to_vec());
        let db = recovered.database();
        let bookings = db.table("Bookings").unwrap().len();
        let available = db.table("Available").unwrap().len();
        let pending = recovered.pending_count();
        // Both commits were acknowledged before the crash: each one is
        // grounded XOR pending, so the two populations always sum to 2.
        assert_eq!(
            bookings + pending,
            2,
            "cut {cut}: grounded {bookings} + pending {pending}"
        );
        // Seat conservation holds in every recovered world: a grounded
        // booking consumes exactly the Available row its Ground record
        // deletes.
        assert_eq!(available + bookings, 3, "cut {cut}: seats not conserved");
        grounded_counts.insert(bookings);
    }
    // The sweep crosses every ground state: none, first only, both.
    assert_eq!(
        grounded_counts.into_iter().collect::<Vec<_>>(),
        vec![0, 1, 2]
    );
}

#[test]
fn a_crash_tearing_a_group_commit_batch_recovers_the_record_prefix() {
    // With a large group limit the entire history — schema, seats, three
    // bookings, checkpoint — reaches the sink as ONE buffered write. A
    // crash can therefore tear anywhere inside a multi-record batch;
    // recovery must replay record-by-record, keeping exactly the records
    // whose frames are wholly inside the surviving prefix and losing the
    // (acknowledged but undurable) suffix — the documented group-commit
    // durability window.
    let mut wal = Wal::in_memory();
    wal.set_group_limit(1 << 20);
    let qdb = QuantumDb::with_wal(QuantumDbConfig::default(), wal).into_shared();
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
    qdb.bulk_insert(
        "Available",
        vec![
            tuple![1, "1A"],
            tuple![1, "1B"],
            tuple![1, "1C"],
            tuple![1, "1D"],
        ],
    )
    .unwrap();
    for user in ["Mickey", "Donald", "Daisy"] {
        let t = parse_transaction(&format!(
            "-Available(f, s), +Bookings('{user}', f, s) :-1 Available(f, s)"
        ))
        .unwrap();
        assert!(qdb.submit(&t).unwrap().is_committed());
    }
    // One drain pushes the whole batch; the image below is that single
    // sink write.
    qdb.checkpoint().unwrap();
    let image = qdb.wal_image();

    for cut in 0..=image.len() {
        let prefix = &image[..cut];
        // Independent ground truth: the records whose frames fit in the
        // prefix, per the storage layer's own tolerant replay.
        let (records, consumed) =
            quantum_db::storage::wal::replay_bytes(prefix).expect("torn prefix replays");
        assert!(consumed <= cut as u64);
        let expected_pending = records
            .iter()
            .filter(|r| matches!(r, quantum_db::storage::LogRecord::PendingAdd { .. }))
            .count();
        let recovered = recover(prefix.to_vec());
        assert_eq!(
            recovered.pending_count(),
            expected_pending,
            "cut {cut}: exactly the wholly-framed commits survive"
        );
    }

    // The worst tear — one byte short of the full batch — still leaves a
    // serving engine that can admit and ground new work.
    let recovered = recover(image[..image.len() - 1].to_vec()).into_shared();
    let t = parse_transaction("-Available(f, s), +Bookings('Goofy', f, s) :-1 Available(f, s)")
        .unwrap();
    assert!(recovered.submit(&t).unwrap().is_committed());
    recovered.ground_all().unwrap();
    assert_eq!(recovered.pending_count(), 0);
}

#[test]
fn flipping_any_mid_log_byte_cuts_recovery_at_that_frame_boundary() {
    // Promotes the storage-layer `corrupt_byte_stops_replay_at_frame_
    // boundary` unit test to a full-system check: for EVERY byte
    // position of EVERY frame, a single bit-complemented byte (injected
    // through the same `FaultSink` the simulator's WAL mutations use)
    // must make engine recovery land exactly where truncating the log at
    // that frame's start would — the longest checksum-valid prefix, no
    // garbage applied, no later frame resurrected.
    use quantum_db::core::world_fingerprint;
    use quantum_db::storage::wal::{frame_spans, replay_bytes, FaultSink, SinkFault};

    let (_qdb, image) = engine_with_two_pending();
    let spans = frame_spans(&image);
    assert!(spans.len() >= 4, "schema + seats + two commits");
    assert_eq!(
        spans.last().unwrap().1,
        image.len() as u64,
        "frames tile the image"
    );
    for &(start, end) in &spans {
        // Ground truth for every flip inside this frame: recovery from
        // the log truncated at the frame boundary.
        let truncated = recover(image[..start as usize].to_vec());
        let truncated_fp = world_fingerprint(truncated.database());
        let (records, consumed) = replay_bytes(&image[..start as usize]).unwrap();
        assert_eq!(consumed, start, "whole frames replay exactly");
        for offset in start..end {
            let wal = Wal::with_sink(Box::new(FaultSink::new(
                Box::new(MemorySink::from_bytes(image.clone())),
                vec![SinkFault::FlipByte { offset }],
            )));
            let recovered = QuantumDb::recover(wal, QuantumDbConfig::default())
                .expect("a corrupt log recovers to its valid prefix");
            assert_eq!(
                recovered.pending_count(),
                truncated.pending_count(),
                "flip at byte {offset}: pending set differs from prefix truncation"
            );
            assert_eq!(
                world_fingerprint(recovered.database()),
                truncated_fp,
                "flip at byte {offset}: extensional state differs from prefix truncation"
            );
            // Metrics identity: the tolerant replay of the faulted bytes
            // consumes exactly the bytes before the corrupt frame and
            // yields exactly the prefix records.
            let faulted: Vec<u8> = image
                .iter()
                .enumerate()
                .map(|(i, b)| if i as u64 == offset { !b } else { *b })
                .collect();
            let (frecords, fconsumed) = replay_bytes(&faulted).unwrap();
            assert_eq!(fconsumed, start, "flip at byte {offset}: wrong stop offset");
            assert_eq!(
                frecords.len(),
                records.len(),
                "flip at byte {offset}: record count differs"
            );
        }
    }
}

#[test]
fn every_truncation_point_recovers_without_panicking() {
    let (_qdb, image) = engine_with_two_pending();
    let mut seen_pending = std::collections::BTreeSet::new();
    for cut in 0..=image.len() {
        let wal = Wal::with_sink(Box::new(MemorySink::from_bytes(image[..cut].to_vec())));
        // Torn frames must never panic; any prefix of a valid log is a
        // valid (shorter) history.
        let recovered =
            QuantumDb::recover(wal, QuantumDbConfig::default()).expect("prefix recovers");
        seen_pending.insert(recovered.pending_count());
    }
    // The full sweep crosses all three histories: no bookings, Mickey
    // only, and both.
    assert_eq!(seen_pending.into_iter().collect::<Vec<_>>(), vec![0, 1, 2]);
}
