//! Secondary-index consistency across WAL recovery and grounding.
//!
//! Indexes are durable through `CreateIndex` WAL records — both the
//! explicitly created ones and those promoted by the access-pattern
//! tracker (`QuantumDbConfig::auto_index_threshold`). After a crash and
//! replay, every table's index set must match the pre-crash engine, and
//! every index-backed `select` must return exactly what a fresh full scan
//! returns — through admission (overlay deletes), grounding (base
//! deletes + inserts) and blind writes.

use quantum_db::core::{QuantumDb, QuantumDbConfig, SharedQuantumDb};
use quantum_db::logic::parse_transaction;
use quantum_db::storage::wal::MemorySink;
use quantum_db::storage::{tuple, Schema, Table, Tuple, Value, ValueType, Wal, WriteOp};

fn config() -> QuantumDbConfig {
    QuantumDbConfig {
        auto_index_threshold: 4, // promote quickly in a small test
        ..QuantumDbConfig::default()
    }
}

fn build_engine() -> SharedQuantumDb {
    let qdb = QuantumDb::new(config()).unwrap().into_shared();
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
    // One explicitly created index for coverage next to the auto-promoted
    // one.
    qdb.create_index("Bookings", 1).unwrap();
    let rows: Vec<Tuple> = (1..=4i64)
        .flat_map(|f| (0..6).map(move |s| tuple![f, format!("s{s}")]))
        .collect();
    qdb.bulk_insert("Available", rows).unwrap();
    qdb
}

/// For every index on `table`, every indexed value must select exactly the
/// rows a full scan filters — same rows, same (key) order.
fn assert_indexes_consistent(table: &Table) {
    let arity = table.schema().arity();
    for col in table.indexed_columns() {
        let values: std::collections::BTreeSet<Value> =
            table.iter().map(|row| row[col].clone()).collect();
        for v in values {
            let mut bound: Vec<Option<Value>> = vec![None; arity];
            bound[col] = Some(v.clone());
            let via_index: Vec<Tuple> = table.select(&bound).cloned().collect();
            let via_scan: Vec<Tuple> = table.iter().filter(|row| row[col] == v).cloned().collect();
            assert_eq!(
                via_index,
                via_scan,
                "index on column {col} of '{}' diverges for value {v}",
                table.schema().relation()
            );
        }
    }
}

fn book(name: &str, flight: i64) -> quantum_db::logic::ResourceTransaction {
    parse_transaction(&format!(
        "-Available({flight}, s), +Bookings('{name}', {flight}, s) :-1 Available({flight}, s)"
    ))
    .unwrap()
}

#[test]
fn auto_promoted_indexes_survive_recovery_and_stay_consistent() {
    let qdb = build_engine();
    // Bound-flight bookings vote the flight column of Available hot, past
    // the threshold of 4.
    let ids: Vec<u64> = (0..8)
        .map(|i| {
            qdb.submit(&book(&format!("u{i}"), 1 + (i % 4) as i64))
                .unwrap()
                .id()
                .unwrap()
        })
        .collect();
    // The engine samples its vote sweep on every 32nd statement (the
    // deleted single-threaded driver swept after every one), so the
    // promotion lands at most 31 statements after the threshold: pad the
    // stream with row-neutral blind writes until the sweep has run. The
    // client-visible result asserted below is unchanged — the hot column
    // ends up indexed, and the promotion is counted.
    for _ in 0..16 {
        qdb.write(WriteOp::insert("Available", tuple![9, "pad"]))
            .unwrap();
        qdb.write(WriteOp::delete("Available", tuple![9, "pad"]))
            .unwrap();
    }
    assert!(
        qdb.metrics().indexes_auto_created >= 1,
        "tracker must have promoted at least one index"
    );
    let available_ix = qdb.with_database(|db| db.table("Available").unwrap().indexed_columns());
    assert!(available_ix.contains(&0), "flight column promoted");

    // Ground half, leave half pending; mix in blind writes.
    for id in &ids[..4] {
        assert!(qdb.ground(*id).unwrap());
    }
    qdb.write(WriteOp::insert("Available", tuple![9, "x1"]))
        .unwrap();
    qdb.write(WriteOp::delete("Available", tuple![9, "x1"]))
        .unwrap();
    qdb.with_database(|db| db.tables().for_each(assert_indexes_consistent));

    // "Crash" and recover from the log image.
    let image = qdb.wal_image();
    let wal = Wal::with_sink(Box::new(MemorySink::from_bytes(image)));
    let recovered = QuantumDb::recover(wal, config()).unwrap();

    assert_eq!(recovered.pending_count(), qdb.pending_count());
    qdb.with_database(|live_db| {
        for (live, rec) in live_db.tables().zip(recovered.database().tables()) {
            assert_eq!(live.schema().relation(), rec.schema().relation());
            let mut live_ix = live.indexed_columns();
            let mut rec_ix = rec.indexed_columns();
            live_ix.sort_unstable();
            rec_ix.sort_unstable();
            assert_eq!(
                live_ix,
                rec_ix,
                "recovered '{}' must rebuild the same indexes (auto-promoted included)",
                live.schema().relation()
            );
            assert_indexes_consistent(rec);
            // Same contents, both access paths.
            let live_rows: Vec<Tuple> = live.iter().cloned().collect();
            let rec_rows: Vec<Tuple> = rec.iter().cloned().collect();
            assert_eq!(live_rows, rec_rows);
        }
    });

    // The recovered engine keeps grounding; indexes stay consistent
    // through the collapse's deletes and inserts.
    let recovered = recovered.into_shared();
    recovered.ground_all().unwrap();
    assert_eq!(recovered.pending_count(), 0);
    recovered.with_database(|db| db.tables().for_each(assert_indexes_consistent));
    assert_eq!(
        recovered.with_database(|db| db.table("Bookings").unwrap().len()),
        8,
        "all eight bookings landed"
    );
}

#[test]
fn torn_tail_cannot_leave_a_half_built_index() {
    // Chop the log at every byte: recovery must always succeed and always
    // yield tables whose indexes agree with their scans.
    let qdb = build_engine();
    for i in 0..6 {
        qdb.submit(&book(&format!("t{i}"), 1 + (i % 2) as i64))
            .unwrap();
    }
    qdb.ground_all().unwrap();
    let image = qdb.wal_image();
    for cut in (0..image.len()).step_by(7) {
        let wal = Wal::with_sink(Box::new(MemorySink::from_bytes(image[..cut].to_vec())));
        let recovered = QuantumDb::recover(wal, config()).unwrap();
        for table in recovered.database().tables() {
            assert_indexes_consistent(table);
        }
    }
}
