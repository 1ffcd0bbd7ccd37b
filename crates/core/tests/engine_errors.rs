//! Error-path and edge-case tests for the engine: malformed requests must
//! fail cleanly and never corrupt the quantum state.

use qdb_core::{EngineError, QuantumDb, QuantumDbConfig, SharedQuantumDb};
use qdb_logic::{parse_query, parse_transaction};
use qdb_storage::{tuple, Schema, ValueType, WriteOp};

fn engine() -> SharedQuantumDb {
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
    qdb.bulk_insert("Available", vec![tuple![1, "1A"]]).unwrap();
    qdb
}

#[test]
fn unknown_relation_in_transaction_is_rejected_cleanly() {
    let qdb = engine();
    let t = parse_transaction("-Ghost(x), +Bookings('a', 1, x) :-1 Ghost(x)").unwrap();
    let err = qdb.submit(&t).unwrap_err();
    assert!(matches!(err, EngineError::Storage(_)));
    // State untouched: next valid submit works.
    let ok =
        parse_transaction("-Available(f, s), +Bookings('a', f, s) :-1 Available(f, s)").unwrap();
    assert!(qdb.submit(&ok).unwrap().is_committed());
    assert_eq!(qdb.metrics().submitted, 2);
}

#[test]
fn arity_mismatch_is_rejected_cleanly() {
    let qdb = engine();
    let t = parse_transaction("-Available(f), +Bookings('a', f, f) :-1 Available(f)").unwrap();
    let err = qdb.submit(&t).unwrap_err();
    assert!(matches!(
        err,
        EngineError::Storage(qdb_storage::StorageError::ArityMismatch { .. })
    ));
    assert_eq!(qdb.pending_count(), 0);
}

#[test]
fn query_on_unknown_relation_errors() {
    let qdb = engine();
    let q = parse_query("Nowhere(x)").unwrap();
    assert!(qdb.read(&q.atoms, None).is_err());
}

#[test]
fn write_to_unknown_relation_errors() {
    let qdb = engine();
    assert!(qdb.write(WriteOp::insert("Nope", tuple![1])).is_err());
}

#[test]
fn ground_of_unknown_id_is_a_noop() {
    let qdb = engine();
    assert!(!qdb.ground(999).unwrap());
}

#[test]
fn zero_seat_database_aborts_but_stays_healthy() {
    let qdb = engine();
    qdb.write(WriteOp::delete("Available", tuple![1, "1A"]))
        .unwrap();
    let t =
        parse_transaction("-Available(f, s), +Bookings('a', f, s) :-1 Available(f, s)").unwrap();
    assert!(!qdb.submit(&t).unwrap().is_committed());
    // Seat returns; booking succeeds.
    qdb.write(WriteOp::insert("Available", tuple![1, "1A"]))
        .unwrap();
    assert!(qdb.submit(&t).unwrap().is_committed());
}

#[test]
fn duplicate_blind_insert_is_an_accepted_noop() {
    let qdb = engine();
    assert!(qdb
        .write(WriteOp::insert("Available", tuple![1, "1A"]))
        .unwrap());
    let before = qdb.wal_size();
    // Second identical insert: accepted, changes nothing, logs nothing.
    assert!(qdb
        .write(WriteOp::insert("Available", tuple![1, "1A"]))
        .unwrap());
    assert_eq!(qdb.wal_size(), before);
    assert_eq!(
        qdb.with_database(|db| db.table("Available").unwrap().len()),
        1
    );
}

// The strict-vs-semantic coordination ablation lives in the facade
// crate's tests (tests/ablations.rs) — it needs qdb-workload, which
// depends on this crate.
