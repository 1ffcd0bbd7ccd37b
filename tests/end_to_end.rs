#![allow(clippy::field_reassign_with_default)]
//! Cross-crate integration tests: full scenarios through the facade crate,
//! exercising storage + logic + solver + engine + workload together.

use quantum_db::core::{
    enumerate_worlds, QuantumDb, QuantumDbConfig, Serializability, SharedQuantumDb,
};
use quantum_db::logic::{parse_query, parse_transaction};
use quantum_db::storage::{tuple, WriteOp};
use quantum_db::workload::{
    self, coordination_stats, make_pairs, run_is, run_quantum, ArrivalOrder, FlightsConfig,
    RunConfig,
};

fn travel_qdb(cfg: QuantumDbConfig, flights: FlightsConfig) -> SharedQuantumDb {
    let qdb = QuantumDb::new(cfg).unwrap().into_shared();
    workload::flights::install(&qdb, &flights).unwrap();
    qdb
}

#[test]
fn full_booking_lifecycle_through_facade() {
    let flights = FlightsConfig {
        flights: 2,
        rows_per_flight: 3,
    };
    let qdb = travel_qdb(QuantumDbConfig::default(), flights);
    // Commit five bookings across the two flights.
    for (i, f) in [(0, 1i64), (1, 1), (2, 2), (3, 2), (4, 1)] {
        let t = parse_transaction(&format!(
            "-Available({f}, s), +Bookings('user{i}', {f}, s) :-1 Available({f}, s)"
        ))
        .unwrap();
        assert!(qdb.submit(&t).unwrap().is_committed());
    }
    assert_eq!(qdb.pending_count(), 5);
    assert_eq!(qdb.partition_count(), 2, "flights are independent");
    // Read every booking; state collapses incrementally.
    for i in 0..5 {
        let q = parse_query(&format!("Bookings('user{i}', f, s)")).unwrap();
        let rows = qdb.read(&q.atoms, None).unwrap();
        assert_eq!(rows.len(), 1, "user{i} has a seat");
    }
    assert_eq!(qdb.pending_count(), 0);
    // Each seat handed out exactly once.
    let all = qdb.query("Bookings(n, f, s)").unwrap();
    let mut seats: Vec<String> = all
        .iter()
        .map(|v| {
            v.iter()
                .map(|(var, val)| format!("{}={}", var.name(), val))
                .collect::<Vec<_>>()
                .join(",")
        })
        .collect();
    seats.sort();
    seats.dedup();
    assert_eq!(seats.len(), 5);
}

#[test]
fn quantum_vs_is_on_the_same_workload() {
    let cfg = RunConfig::resource_only(
        FlightsConfig {
            flights: 2,
            rows_per_flight: 6,
        },
        9,
        ArrivalOrder::Random { seed: 0xBEEF },
        61,
    );
    let q = run_quantum(&cfg);
    let is = run_is(&cfg);
    assert_eq!(q.aborted, 0);
    assert!(
        q.coordination_percent() >= is.coordination_percent(),
        "quantum {:.1} < IS {:.1}",
        q.coordination_percent(),
        is.coordination_percent()
    );
    assert!((q.coordination_percent() - 100.0).abs() < 1e-9);
}

#[test]
fn possible_worlds_agree_with_engine_on_facade_types() {
    let flights = FlightsConfig {
        flights: 1,
        rows_per_flight: 1,
    };
    let qdb = travel_qdb(QuantumDbConfig::default(), flights);
    let base = qdb.with_database(|db| db.clone());
    let t1 =
        parse_transaction("-Available(1, s), +Bookings('a', 1, s) :-1 Available(1, s)").unwrap();
    let worlds = enumerate_worlds(&base, &[&t1], 10).unwrap();
    assert_eq!(worlds.len(), 3);
    // Each world books 'a' on a seat of its own.
    let query = parse_query("Bookings('a', f, s)").unwrap();
    let read = quantum_db::solver::ReadSpec::compile(&base, &query.atoms).unwrap();
    let mut seats: Vec<_> = (read.rows(&base, &worlds.worlds).into_iter())
        .map(|answers| answers[0][1].clone())
        .collect();
    seats.sort();
    seats.dedup();
    assert_eq!(seats.len(), 3);
    assert!(qdb.submit(&t1).unwrap().is_committed());
}

#[test]
fn writes_and_reads_interleaved_with_strict_mode() {
    let mut cfg = QuantumDbConfig::default();
    cfg.serializability = Serializability::Strict;
    let flights = FlightsConfig {
        flights: 1,
        rows_per_flight: 4,
    };
    let qdb = travel_qdb(cfg, flights);
    for i in 0..4 {
        let t = parse_transaction(&format!(
            "-Available(1, s), +Bookings('u{i}', 1, s) :-1 Available(1, s)"
        ))
        .unwrap();
        assert!(qdb.submit(&t).unwrap().is_committed());
    }
    // Blind write interleaved: delete one seat — must be admitted only if
    // the 4 pending bookings still fit in the remaining 11 seats.
    assert!(qdb
        .write(WriteOp::delete("Available", tuple![1, "1A"]))
        .unwrap());
    // Read the last user: strict mode grounds the whole prefix.
    let q = parse_query("Bookings('u3', f, s)").unwrap();
    assert_eq!(qdb.read(&q.atoms, None).unwrap().len(), 1);
    assert_eq!(qdb.pending_count(), 0);
}

#[test]
fn coordination_measured_consistently_across_crates() {
    // Run a quantum workload manually (not via the runner) and compare
    // with the runner's own measurement path.
    let flights = FlightsConfig {
        flights: 1,
        rows_per_flight: 5,
    };
    let pairs = make_pairs(&flights, 7);
    let qdb = travel_qdb(QuantumDbConfig::default(), flights);
    for r in workload::arrange(&pairs, ArrivalOrder::Alternate) {
        let txn = workload::entangled_booking(&r.user, &r.partner, r.flight);
        assert!(qdb.submit(&txn).unwrap().is_committed());
    }
    qdb.ground_all().unwrap();
    let stats = qdb.with_database(|db| coordination_stats(db, &pairs, flights.rows_per_flight));
    // 7 pairs want coordination; only 5 rows exist: max 10 users.
    assert_eq!(stats.max_possible, 10);
    assert_eq!(
        stats.coordinated_users, 10,
        "alternate order coordinates fully"
    );
    assert_eq!(stats.seated_users, 14);
}

#[test]
fn recovery_of_a_workload_in_flight() {
    let flights = FlightsConfig {
        flights: 2,
        rows_per_flight: 4,
    };
    let qdb = travel_qdb(QuantumDbConfig::default(), flights);
    let pairs = make_pairs(&flights, 4);
    let reqs = workload::arrange(&pairs, ArrivalOrder::InOrder);
    // Submit only the first half: all of them wait for partners.
    for r in &reqs[..8] {
        let txn = workload::entangled_booking(&r.user, &r.partner, r.flight);
        assert!(qdb.submit(&txn).unwrap().is_committed());
    }
    assert_eq!(qdb.pending_count(), 8);
    // Crash + recover.
    let image = qdb.wal_image();
    let wal = quantum_db::storage::Wal::with_sink(Box::new(
        quantum_db::storage::wal::MemorySink::from_bytes(image),
    ));
    let rec = QuantumDb::recover(wal, QuantumDbConfig::default())
        .unwrap()
        .into_shared();
    assert_eq!(rec.pending_count(), 8);
    // Partners arrive after recovery; coordination still works.
    for r in &reqs[8..] {
        let txn = workload::entangled_booking(&r.user, &r.partner, r.flight);
        assert!(rec.submit(&txn).unwrap().is_committed());
    }
    rec.ground_all().unwrap();
    let stats = rec.with_database(|db| coordination_stats(db, &pairs, flights.rows_per_flight));
    assert_eq!(
        stats.coordinated_users, 16,
        "all 8 pairs coordinated across the crash"
    );
}

#[test]
fn the_mickey_cancellation_narrative() {
    // §1: Mickey prefers Delta (flight 1); sold out, he books anything
    // (flight 2). If a Delta seat opens before he reads, semantic
    // serializability can still… in our model preferences are optional
    // atoms against a Preferred table.
    let qdb = QuantumDb::new(QuantumDbConfig::default())
        .unwrap()
        .into_shared();
    qdb.create_table(quantum_db::storage::Schema::new(
        "Available",
        vec![
            ("flight", quantum_db::storage::ValueType::Int),
            ("seat", quantum_db::storage::ValueType::Str),
        ],
    ))
    .unwrap();
    qdb.create_table(quantum_db::storage::Schema::new(
        "Bookings",
        vec![
            ("name", quantum_db::storage::ValueType::Str),
            ("flight", quantum_db::storage::ValueType::Int),
            ("seat", quantum_db::storage::ValueType::Str),
        ],
    ))
    .unwrap();
    qdb.create_table(quantum_db::storage::Schema::new(
        "Delta",
        vec![("flight", quantum_db::storage::ValueType::Int)],
    ))
    .unwrap();
    qdb.bulk_insert("Delta", vec![tuple![1]]).unwrap();
    // Only the non-Delta flight has seats right now.
    qdb.bulk_insert("Available", vec![tuple![2, "9X"]]).unwrap();
    let mickey = parse_transaction(
        "-Available(f, s), +Bookings('Mickey', f, s) :-1 \
         Available(f, s), Delta(f)?",
    )
    .unwrap();
    assert!(qdb.submit(&mickey).unwrap().is_committed());
    // A cancellation frees a Delta seat *after* Mickey committed.
    assert!(qdb
        .write(WriteOp::insert("Available", tuple![1, "3A"]))
        .unwrap());
    // When Mickey's seat is finally fixed, the optional Delta preference
    // is satisfied using Tuesday's availability (semantic
    // serializability, §2).
    let q = parse_query("Bookings('Mickey', f, s)").unwrap();
    let rows = qdb.read(&q.atoms, None).unwrap();
    let flight = rows[0].get(q.var("f").unwrap()).unwrap().as_int().unwrap();
    assert_eq!(
        flight, 1,
        "Mickey flies Delta thanks to deferred assignment"
    );
}
