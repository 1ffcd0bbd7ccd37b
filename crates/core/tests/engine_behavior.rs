#![allow(clippy::field_reassign_with_default)]
//! Behavioural tests for the quantum database engine: the §1–§3 narratives
//! of the paper, operation by operation.

mod common;

use std::collections::BTreeSet;

use qdb_core::{
    GroundingPolicy, QuantumDb, QuantumDbConfig, Serializability, SharedQuantumDb, SubmitOutcome,
};
use qdb_logic::{parse_query, parse_transaction, ResourceTransaction, Valuation};
use qdb_storage::{tuple, Schema, Tuple, ValueType, WriteOp};
use qdb_workload::pattern::eval_atoms;

/// Travel schema with one flight `123` holding one row of three seats.
fn travel_engine(config: QuantumDbConfig) -> SharedQuantumDb {
    let qdb = QuantumDb::new(config).unwrap().into_shared();
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
    qdb.create_index("Available", 0).unwrap();
    qdb.create_index("Bookings", 0).unwrap();
    qdb.bulk_insert(
        "Available",
        vec![tuple![123, "1A"], tuple![123, "1B"], tuple![123, "1C"]],
    )
    .unwrap();
    qdb.bulk_insert(
        "Adjacent",
        vec![
            tuple!["1A", "1B"],
            tuple!["1B", "1A"],
            tuple!["1B", "1C"],
            tuple!["1C", "1B"],
        ],
    )
    .unwrap();
    qdb
}

fn book(name: &str) -> ResourceTransaction {
    parse_transaction(&format!(
        "-Available(f, s), +Bookings('{name}', f, s) :-1 Available(f, s)"
    ))
    .unwrap()
}

fn book_seat(name: &str, seat: &str) -> ResourceTransaction {
    parse_transaction(&format!(
        "-Available(f, '{seat}'), +Bookings('{name}', f, '{seat}') :-1 Available(f, '{seat}')"
    ))
    .unwrap()
}

fn book_next_to(name: &str, partner: &str) -> ResourceTransaction {
    parse_transaction(&format!(
        "-Available(f, s), +Bookings('{name}', f, s) :-1 \
         Available(f, s), Bookings('{partner}', f, s2)?, Adjacent(s, s2)?"
    ))
    .unwrap()
}

fn seat_of(qdb: &SharedQuantumDb, name: &str) -> Option<String> {
    let q = parse_query(&format!("Bookings('{name}', f, s)")).unwrap();
    let rows = qdb.read(&q.atoms, None).unwrap();
    rows.first().map(|v| {
        v.get(q.var("s").unwrap())
            .unwrap()
            .as_str()
            .unwrap()
            .to_string()
    })
}

#[test]
fn commit_defers_assignment_until_read() {
    let qdb = travel_engine(QuantumDbConfig::default());
    let out = qdb.submit(&book("Mickey")).unwrap();
    assert!(out.is_committed());
    // No extensional booking yet: the state is quantum.
    assert_eq!(
        qdb.with_database(|db| db.table("Bookings").unwrap().len()),
        0
    );
    assert_eq!(qdb.pending_count(), 1);
    // The read collapses it.
    let seat = seat_of(&qdb, "Mickey").expect("booked");
    assert_eq!(qdb.pending_count(), 0);
    assert_eq!(
        qdb.with_database(|db| db.table("Bookings").unwrap().len()),
        1
    );
    assert_eq!(qdb.metrics().grounded_by_read, 1);
    // Read repeatability: the same read returns the same seat.
    assert_eq!(seat_of(&qdb, "Mickey"), Some(seat));
}

#[test]
fn admission_rejects_overbooking() {
    // Three seats: fourth booking must abort (Definition 3.1's ∅ state is
    // never entered).
    let qdb = travel_engine(QuantumDbConfig::default());
    for i in 0..3 {
        assert!(qdb.submit(&book(&format!("U{i}"))).unwrap().is_committed());
    }
    assert_eq!(qdb.submit(&book("U3")).unwrap(), SubmitOutcome::Aborted);
    assert_eq!(qdb.metrics().aborted, 1);
    // The three committed ones are still guaranteed.
    qdb.ground_all().unwrap();
    assert_eq!(
        qdb.with_database(|db| db.table("Bookings").unwrap().len()),
        3
    );
    assert_eq!(
        qdb.with_database(|db| db.table("Available").unwrap().len()),
        0
    );
}

#[test]
fn pluto_hard_constraint_wins_over_mickeys_optional() {
    // §2: Mickey's optional preference for 5A-like seats must yield to
    // Pluto's hard request for the specific seat.
    let qdb = travel_engine(QuantumDbConfig::default());
    // Mickey books any seat, with an optional preference pinning seat 1A.
    let mickey = parse_transaction(
        "-Available(f, s), +Bookings('Mickey', f, s) :-1 \
         Available(f, s), Pin(s)?",
    )
    .unwrap();
    // Give the engine a Pin table pointing at 1A.
    qdb.create_table(Schema::new("Pin", vec![("seat", ValueType::Str)]))
        .unwrap();
    qdb.bulk_insert("Pin", vec![tuple!["1A"]]).unwrap();
    assert!(qdb.submit(&mickey).unwrap().is_committed());
    // Pluto hard-requests 1A — must commit even though Mickey "wanted" it.
    assert!(qdb
        .submit(&book_seat("Pluto", "1A"))
        .unwrap()
        .is_committed());
    // Mickey's cached grounding holds 1A (first fit), so the extension
    // fails and the admission re-solves both.
    let m = qdb.metrics();
    assert_eq!((m.cache_extensions, m.cache_full_resolves), (1, 1));
    qdb.ground_all().unwrap();
    assert_eq!(seat_of(&qdb, "Pluto"), Some("1A".to_string()));
    let mickey_seat = seat_of(&qdb, "Mickey").unwrap();
    assert_ne!(mickey_seat, "1A");
}

#[test]
fn entangled_pair_grounds_on_partner_arrival_and_sits_adjacent() {
    let qdb = travel_engine(QuantumDbConfig::default());
    // Mickey arrives first, wants to sit next to Goofy (not yet here):
    // forward constraint, stays pending.
    assert!(qdb
        .submit(&book_next_to("Mickey", "Goofy"))
        .unwrap()
        .is_committed());
    assert_eq!(qdb.pending_count(), 1);
    // Goofy arrives: §5.1 — both are grounded immediately, adjacent.
    assert!(qdb
        .submit(&book_next_to("Goofy", "Mickey"))
        .unwrap()
        .is_committed());
    assert_eq!(qdb.pending_count(), 0);
    assert_eq!(qdb.metrics().grounded_by_partner, 2);
    let m = seat_of(&qdb, "Mickey").unwrap();
    let g = seat_of(&qdb, "Goofy").unwrap();
    assert!(
        qdb.with_database(|db| db.contains("Adjacent", &tuple![m.as_str(), g.as_str()])),
        "Mickey({m}) and Goofy({g}) must be adjacent"
    );
}

#[test]
fn partner_never_arrives_coordination_drops_but_booking_survives() {
    let qdb = travel_engine(QuantumDbConfig::default());
    assert!(qdb
        .submit(&book_next_to("Mickey", "Goofy"))
        .unwrap()
        .is_committed());
    // Goofy never shows up; Mickey checks in anyway.
    let seat = seat_of(&qdb, "Mickey");
    assert!(seat.is_some(), "§5.1: Mickey keeps a seat regardless");
}

#[test]
fn blind_write_that_breaks_pending_state_is_rejected() {
    let qdb = travel_engine(QuantumDbConfig::default());
    // Pin Mickey to seat 1A via hard constraint.
    let mickey = parse_transaction(
        "-Available(f, '1A'), +Bookings('Mickey', f, '1A') :-1 Available(f, '1A')",
    )
    .unwrap();
    assert!(qdb.submit(&mickey).unwrap().is_committed());
    // Deleting 1A out from under him must be rejected…
    let rejected = qdb
        .write(WriteOp::delete("Available", tuple![123, "1A"]))
        .unwrap();
    assert!(!rejected);
    assert_eq!(qdb.metrics().writes_rejected, 1);
    assert!(qdb.with_database(|db| db.contains("Available", &tuple![123, "1A"])));
    // …while deleting an unrelated seat is fine.
    assert!(qdb
        .write(WriteOp::delete("Available", tuple![123, "1C"]))
        .unwrap());
    // And the pending booking still completes.
    assert_eq!(seat_of(&qdb, "Mickey"), Some("1A".to_string()));
}

#[test]
fn blind_write_that_shrinks_slack_forces_resolve_but_succeeds() {
    let qdb = travel_engine(QuantumDbConfig::default());
    assert!(qdb.submit(&book("Mickey")).unwrap().is_committed());
    // Deleting any one seat keeps Mickey satisfiable (two seats remain).
    assert!(qdb
        .write(WriteOp::delete("Available", tuple![123, "1A"]))
        .unwrap());
    assert!(qdb
        .write(WriteOp::delete("Available", tuple![123, "1B"]))
        .unwrap());
    // Now only 1C is left; deleting it would strand Mickey.
    assert!(!qdb
        .write(WriteOp::delete("Available", tuple![123, "1C"]))
        .unwrap());
    assert_eq!(seat_of(&qdb, "Mickey"), Some("1C".to_string()));
}

#[test]
fn cancellation_reopens_options_for_pending_transactions() {
    // §1's Delta scenario in miniature: Mickey is pending; a cancellation
    // (blind insert into Available) widens his options, which semantic
    // serializability is allowed to use.
    let qdb = travel_engine(QuantumDbConfig::default());
    for i in 0..3 {
        assert!(qdb.submit(&book(&format!("U{i}"))).unwrap().is_committed());
    }
    // Full: a fourth abort…
    assert_eq!(qdb.submit(&book("Mickey")).unwrap(), SubmitOutcome::Aborted);
    // …until a seat opens up due to a cancellation.
    assert!(qdb
        .write(WriteOp::insert("Available", tuple![123, "2A"]))
        .unwrap());
    assert!(qdb.submit(&book("Mickey")).unwrap().is_committed());
    qdb.ground_all().unwrap();
    assert_eq!(
        qdb.with_database(|db| db.table("Bookings").unwrap().len()),
        4
    );
}

#[test]
fn k_bound_forces_grounding_of_oldest() {
    let mut cfg = QuantumDbConfig::with_k(2);
    cfg.ground_on_partner_arrival = false;
    let qdb = travel_engine(cfg);
    for i in 0..3 {
        assert!(qdb.submit(&book(&format!("U{i}"))).unwrap().is_committed());
    }
    // k = 2: the third admission forces U0 to ground.
    assert_eq!(qdb.pending_count(), 2);
    assert_eq!(qdb.metrics().grounded_by_k, 1);
    assert!(seat_of(&qdb, "U0").is_some());
}

#[test]
fn semantic_read_grounds_only_the_target() {
    let qdb = travel_engine(QuantumDbConfig::default());
    let _u0 = qdb.submit(&book_seat("U0", "1A")).unwrap().id().unwrap();
    let _u1 = qdb.submit(&book_seat("U1", "1B")).unwrap().id().unwrap();
    let u2 = qdb.submit(&book_seat("U2", "1C")).unwrap().id().unwrap();
    // Reading U2's booking under semantic serializability front-moves U2
    // only; U0 and U1 stay pending.
    assert_eq!(seat_of(&qdb, "U2"), Some("1C".to_string()));
    assert_eq!(qdb.pending_count(), 2);
    let _ = u2;
}

#[test]
fn strict_read_grounds_the_whole_prefix() {
    // All three bookings draw from the same unconstrained pool, so they
    // share one partition; under Strict, reading U2 grounds U0 and U1 too.
    let mut cfg = QuantumDbConfig::default();
    cfg.serializability = Serializability::Strict;
    let qdb = travel_engine(cfg);
    qdb.submit(&book("U0")).unwrap();
    qdb.submit(&book("U1")).unwrap();
    qdb.submit(&book("U2")).unwrap();
    assert!(seat_of(&qdb, "U2").is_some());
    assert_eq!(qdb.pending_count(), 0);
    // Contrast: constant-seat bookings do NOT overlap — they partition
    // per seat, and strict grounding stays within the partition.
    let mut cfg = QuantumDbConfig::default();
    cfg.serializability = Serializability::Strict;
    let qdb = travel_engine(cfg);
    qdb.submit(&book_seat("U0", "1A")).unwrap();
    qdb.submit(&book_seat("U1", "1B")).unwrap();
    qdb.submit(&book_seat("U2", "1C")).unwrap();
    assert_eq!(qdb.partition_count(), 3);
    assert_eq!(seat_of(&qdb, "U2"), Some("1C".to_string()));
    assert_eq!(qdb.pending_count(), 2);
}

#[test]
fn semantic_serializability_can_use_later_state_for_earlier_commits() {
    // The Monday/Tuesday example of §2: Mickey commits while only seat 1A
    // is open; a cancellation later frees 1B; reading Mickey's seat under
    // semantic serializability may (and here, deterministically does not
    // have to) use Tuesday's availability. What *must* hold is intent:
    // Mickey has some seat.
    let qdb = travel_engine(QuantumDbConfig::default());
    qdb.write(WriteOp::delete("Available", tuple![123, "1B"]))
        .unwrap();
    qdb.write(WriteOp::delete("Available", tuple![123, "1C"]))
        .unwrap();
    assert!(qdb.submit(&book("Mickey")).unwrap().is_committed());
    // Cancellation reopens 1B.
    qdb.write(WriteOp::insert("Available", tuple![123, "1B"]))
        .unwrap();
    // Donald hard-requests 1A — admissible *only* because Mickey can be
    // reassigned to 1B (deferred assignment paying off).
    assert!(qdb
        .submit(&book_seat("Donald", "1A"))
        .unwrap()
        .is_committed());
    qdb.ground_all().unwrap();
    assert_eq!(seat_of(&qdb, "Donald"), Some("1A".to_string()));
    assert_eq!(seat_of(&qdb, "Mickey"), Some("1B".to_string()));
}

#[test]
fn read_peek_exposes_a_world_without_fixing() {
    let qdb = travel_engine(QuantumDbConfig::default());
    qdb.submit(&book("Mickey")).unwrap();
    let q = parse_query("Bookings('Mickey', f, s)").unwrap();
    let peeked = qdb.read_peek(&q.atoms, None).unwrap();
    assert_eq!(peeked.len(), 1, "peek sees the cached world's booking");
    // Nothing collapsed.
    assert_eq!(qdb.pending_count(), 1);
    assert_eq!(
        qdb.with_database(|db| db.table("Bookings").unwrap().len()),
        0
    );
    // And nothing was materialized: the peek read the pending world over
    // the base, never a cloned database.
    let m = qdb.metrics();
    assert_eq!(m.db_clones, 0, "peek must not clone the database");
    assert_eq!(m.worlds_enumerated, 0, "peek never enumerates worlds");
    assert_eq!(m.reads_peek, 1);
}

#[test]
fn read_possible_exposes_all_worlds() {
    let qdb = travel_engine(QuantumDbConfig::default());
    qdb.submit(&book("Mickey")).unwrap();
    let q = parse_query("Bookings('Mickey', f, s)").unwrap();
    let possible = qdb.read_possible(&q.atoms, 100).unwrap();
    // Three distinct single-row answers — one per seat.
    assert_eq!(possible.len(), 3);
    assert!(possible.iter().all(|rows| rows.len() == 1));
    assert_eq!(qdb.pending_count(), 1, "option 1 never collapses");
    // World enumeration forked deltas, not databases.
    let m = qdb.metrics();
    assert_eq!(m.db_clones, 0, "possible must not clone the database");
    assert_eq!(m.reads_possible, 1);
    assert_eq!(m.worlds_enumerated, 3, "one fork per seat");
    assert_eq!(m.world_dedup_hits, 0);
}

#[test]
fn possible_matches_the_materialized_reference() {
    // Bookings on one flight (one partition) over six seats, read after
    // each of three admissions: `SELECT POSSIBLE`'s answer families and
    // world counters equal the clone-based reference's on the same state,
    // for two solver seeds, truncated (`LIMIT 4`, and `LIMIT 100` at
    // depth 3) or not.
    let mut truncations = 0;
    for seed in [0, 7] {
        let mut cfg = QuantumDbConfig::default();
        cfg.seed = seed;
        let qdb = wide_travel_engine(cfg, 2);
        let mut txns = Vec::new();
        for i in 0..3 {
            txns.push(book(&format!("U{i}")));
            assert!(qdb.submit(&txns[i]).unwrap().is_committed());
            let refs: Vec<&ResourceTransaction> = txns.iter().collect();
            for (who, bound) in [(0, 100), (i, 4), (i, 100)] {
                let q = parse_query(&format!("Bookings('U{who}', f, s)")).unwrap();
                let before = qdb.metrics();
                let families = qdb.read_possible(&q.atoms, bound).unwrap();
                let after = qdb.metrics();
                let got: BTreeSet<Vec<Valuation>> = families.into_iter().collect();
                let reference = qdb.with_database(|db| {
                    common::enumerate_worlds_materialized(db, &refs, bound, seed)
                });
                let want: BTreeSet<Vec<Valuation>> = (reference.worlds.iter())
                    .map(|w| eval_atoms(w, &q.atoms, None).unwrap())
                    .collect();
                let label = format!("seed {seed}, depth {}, U{who}, LIMIT {bound}", i + 1);
                assert_eq!(got, want, "{label}: answer families");
                assert_eq!(
                    after.worlds_enumerated - before.worlds_enumerated,
                    reference.enumerated,
                    "{label}: worlds enumerated"
                );
                assert_eq!(
                    after.world_dedup_hits - before.world_dedup_hits,
                    reference.dedup_hits,
                    "{label}: dedup hits"
                );
                assert_eq!(after.db_clones, before.db_clones, "{label}: no clone");
                truncations += u32::from(reference.truncated);
            }
        }
    }
    assert!(truncations > 0, "the truncating path ran");
}

#[test]
fn possible_keeps_look_alike_worlds_apart() {
    // ("a', 'b", "c") and ("a", "b', 'c") both print as ('a', 'b', 'c').
    // Inserted through bound parameters, then one of the two deleted by a
    // pending transaction: two worlds, two answer sets.
    let qdb = QuantumDb::new(QuantumDbConfig::default())
        .unwrap()
        .into_shared();
    let session = qdb.session();
    session
        .execute("CREATE TABLE Pair (x TEXT, y TEXT)")
        .unwrap();
    let insert = session.prepare("INSERT INTO Pair VALUES (?, ?)").unwrap();
    for (x, y) in [("a', 'b", "c"), ("a", "b', 'c")] {
        let params = [qdb_storage::Value::from(x), qdb_storage::Value::from(y)];
        insert.bind(&params).unwrap().run().unwrap();
    }
    let drop_one = parse_transaction("-Pair(x, y) :-1 Pair(x, y)").unwrap();
    assert!(qdb.submit(&drop_one).unwrap().is_committed());
    let q = parse_query("Pair(x, y)").unwrap();
    assert_eq!(qdb.read_possible(&q.atoms, 100).unwrap().len(), 2);
    let m = qdb.metrics();
    assert_eq!((m.worlds_enumerated, m.world_dedup_hits), (2, 0));
}

#[test]
fn partitions_split_by_flight_and_merge_on_bridging_txn() {
    let qdb = travel_engine(QuantumDbConfig::default());
    qdb.bulk_insert("Available", vec![tuple![777, "9A"], tuple![777, "9B"]])
        .unwrap();
    let f123 =
        parse_transaction("-Available(123, s), +Bookings('A', 123, s) :-1 Available(123, s)")
            .unwrap();
    let f777 =
        parse_transaction("-Available(777, s), +Bookings('B', 777, s) :-1 Available(777, s)")
            .unwrap();
    qdb.submit(&f123).unwrap();
    qdb.submit(&f777).unwrap();
    assert_eq!(qdb.partition_count(), 2);
    // A flight-agnostic booking bridges both partitions (§4's
    // window-or-aisle example).
    qdb.submit(&book("C")).unwrap();
    assert_eq!(qdb.partition_count(), 1);
    assert_eq!(qdb.metrics().partition_merges, 1);
}

#[test]
fn grounding_policies_all_yield_valid_states() {
    for policy in [
        GroundingPolicy::FirstFit,
        GroundingPolicy::MaxFlexibility { sample: 8 },
        GroundingPolicy::Random { seed: 7, sample: 8 },
    ] {
        let mut cfg = QuantumDbConfig::default();
        cfg.policy = policy;
        let qdb = travel_engine(cfg);
        for i in 0..3 {
            assert!(qdb.submit(&book(&format!("U{i}"))).unwrap().is_committed());
        }
        qdb.ground_all().unwrap();
        assert_eq!(
            qdb.with_database(|db| db.table("Bookings").unwrap().len()),
            3,
            "policy {policy:?}"
        );
        assert_eq!(
            qdb.with_database(|db| db.table("Available").unwrap().len()),
            0
        );
    }
}

#[test]
fn max_flexibility_preserves_adjacent_pairs() {
    // One row A-B-C. A solo booking under MaxFlexibility should take the
    // aisle-like seat C (or A)… specifically NOT the middle seat B, since
    // taking B destroys both adjacent pairs for a future couple.
    let mut cfg = QuantumDbConfig::default();
    cfg.policy = GroundingPolicy::MaxFlexibility { sample: 8 };
    let qdb = travel_engine(cfg);
    // Tie the flexibility to a pending couple: Mickey+Goofy pending pair
    // needs Adjacent; solo Pluto gets read first.
    let pluto = qdb.submit(&book("Pluto")).unwrap().id().unwrap();
    qdb.submit(&book_next_to("Mickey", "NoOneYet")).unwrap();
    assert!(qdb.ground(pluto).unwrap());
    let seat = seat_of(&qdb, "Pluto").unwrap();
    assert_ne!(seat, "1B", "middle seat would strand the pending pair");
}

#[test]
fn deep_same_partition_admissions_extend_the_cache_and_stream_candidates() {
    // 32 bookings on one flight share one §4 partition, so the composed
    // body grows with every admission. Every one of them extends the
    // cached solution — zero full re-solves at depth — and the search
    // streams its candidates: no candidate vector is ever materialized.
    const DEPTH: usize = 32;
    let qdb = travel_engine(QuantumDbConfig::default());
    let seats: Vec<Tuple> = (2..2 + DEPTH)
        .map(|r| tuple![123, format!("{r}A")])
        .collect();
    qdb.bulk_insert("Available", seats).unwrap();
    for i in 0..DEPTH {
        assert!(qdb.submit(&book(&format!("U{i}"))).unwrap().is_committed());
    }
    let m = qdb.metrics();
    assert_eq!(m.max_pending, DEPTH as u64);
    assert_eq!(m.solver_candidate_vecs, 0);
    assert!(m.solver_candidates_streamed > 0);
    assert_eq!(m.cache_extensions, DEPTH as u64);
    assert_eq!(m.cache_full_resolves, 0);
}

/// `travel_engine` grown to `rows` rows of three seats on flight 123.
fn wide_travel_engine(config: QuantumDbConfig, rows: usize) -> SharedQuantumDb {
    let qdb = travel_engine(config);
    for r in 2..=rows {
        let [a, b, c] = ["A", "B", "C"].map(|col| format!("{r}{col}"));
        let seats = [&a, &b, &c].map(|s| tuple![123, s.as_str()]);
        qdb.bulk_insert("Available", seats.to_vec()).unwrap();
        let adjacent = [(&a, &b), (&b, &a), (&b, &c), (&c, &b)];
        let adjacent = adjacent.map(|(x, y)| tuple![x.as_str(), y.as_str()]);
        qdb.bulk_insert("Adjacent", adjacent.to_vec()).unwrap();
    }
    qdb
}

#[test]
fn pending_world_survives_groundings_blind_writes_and_peeks() {
    // The deep-admission shape: 16 first halves of entangled pairs open one
    // partition, then partners arrive at depth 16 (each grounds its pair
    // in the residue's world) alternating with new first halves. PEEKs and
    // blind writes on seats nobody holds interleave. Each PEEK must also
    // answer what re-grounding the cached valuations gives: that oracle
    // needs the partition cache, so it is qdb-core's in-file test
    // `peek_reads_what_regrounding_the_cached_valuations_gives`.
    let qdb = wide_travel_engine(QuantumDbConfig::default(), 20);
    let name = |side: usize, pair: usize| format!("{}{pair}", ["a", "b"][side]);
    let mut booked: Vec<(usize, usize)> = Vec::new();
    for j in 0..32usize {
        let (side, pair) = match j.checked_sub(16) {
            None => (0, j),
            Some(m) if m % 2 == 0 => (1, m / 2),
            Some(m) => (0, 16 + m / 2),
        };
        let txn = book_next_to(&name(side, pair), &name(1 - side, pair));
        assert_eq!(
            qdb.submit(&txn).unwrap().id(),
            Some(j as u64),
            "booking {j}"
        );
        booked.push((side, pair));
        // A seat nobody can hold comes (and sometimes goes again): the
        // cached valuations and the world stand.
        let spare = tuple![123, format!("{}A", 40 + j)];
        assert!(qdb
            .write(WriteOp::insert("Available", spare.clone()))
            .unwrap());
        if j % 3 == 0 {
            assert!(qdb.write(WriteOp::delete("Available", spare)).unwrap());
        }
        for (side, pair) in [(side, pair), booked[j / 2]] {
            let q = parse_query(&format!("Bookings('{}', f, s)", name(side, pair))).unwrap();
            let got = qdb.read_peek(&q.atoms, None).unwrap();
            assert_eq!(got.len(), 1, "booking {j}: one row per user");
        }
    }
    let m = qdb.metrics();
    assert_eq!(m.overlay_rebuilds, 0, "the world was never rebuilt");
    assert_eq!(
        m.ground_joint_resolves, 0,
        "no grounding re-solved the residue"
    );
    assert_eq!((m.cache_extensions, m.cache_full_resolves), (32, 0));
    assert_eq!((m.grounded_by_partner, m.grounded_total()), (16, 16));
    assert_eq!(qdb.pending_count(), 16);
    // Same semantics as solving on the bare base: each partner that arrived
    // second had both optional atoms satisfied, its pair grounded by
    // partner arrival and nothing else was grounded at all.
    assert_eq!((m.optionals_satisfied, m.optionals_total), (16, 32));
    let pending = qdb.pending_ids();
    let grounded: Vec<u64> = (0..32).filter(|id| !pending.contains(id)).collect();
    let expect: Vec<u64> = (0..8).chain((0..8).map(|p| 16 + 2 * p)).collect();
    assert_eq!(grounded, expect);
    for pair in 0..8 {
        let (a, b) = (seat_of(&qdb, &name(0, pair)), seat_of(&qdb, &name(1, pair)));
        let (a, b) = (a.expect("grounded"), b.expect("grounded"));
        let split = |s: &str| (s[..s.len() - 1].to_string(), s.as_bytes()[s.len() - 1]);
        let ((row_a, col_a), (row_b, col_b)) = (split(&a), split(&b));
        assert!(
            row_a == row_b && col_a.abs_diff(col_b) == 1,
            "pair {pair} sits at {a} / {b}"
        );
    }
    assert_eq!(
        qdb.pending_count(),
        16,
        "reading grounded pairs collapses nothing"
    );

    // Forcing the fallback: deleting the seat a cached valuation holds
    // (the oldest pending booking's, as PEEK finds it in the maintained
    // world) is *not* untouched — verify fails, the partition re-solves,
    // the world is dropped and the next reader rebuilds it.
    let q = parse_query("Bookings('a8', f, s)").unwrap();
    let peek = qdb.read_peek(&q.atoms, None).unwrap();
    let held = ["f", "s"].map(|v| peek[0].get(q.var(v).unwrap()).unwrap().clone());
    assert!(
        qdb.write(WriteOp::delete("Available", Tuple::from(held)))
            .unwrap(),
        "spare seats: the re-solve succeeds"
    );
    assert_eq!(qdb.read_peek(&q.atoms, None).unwrap().len(), 1);
    assert_eq!(qdb.metrics().overlay_rebuilds, 1);
}

#[test]
fn grounding_falls_back_to_the_joint_solve_when_the_residue_holds_the_adjacent_seat() {
    // Seats 1A 1B 1C and a far-away 9Z. First fit caches a1 -> 1A,
    // a2 -> 1B, b1 -> 1C. When b1 arrives, the residue's world hides 1B,
    // so no adjacent pair is free in it; the bare-base fallback of the same
    // promotion set must still seat the pair together by moving a2 — the
    // group ++ residue solve — rather than settle for a weaker set.
    let qdb = travel_engine(QuantumDbConfig::default());
    qdb.bulk_insert("Available", vec![tuple![123, "9Z"]])
        .unwrap();
    assert!(qdb
        .submit(&book_next_to("a1", "b1"))
        .unwrap()
        .is_committed());
    assert!(qdb
        .submit(&book_next_to("a2", "b2"))
        .unwrap()
        .is_committed());
    assert!(qdb
        .submit(&book_next_to("b1", "a1"))
        .unwrap()
        .is_committed());
    let m = qdb.metrics();
    assert_eq!((m.grounded_by_partner, m.ground_joint_resolves), (2, 1));
    assert_eq!((m.optionals_satisfied, m.optionals_total), (2, 4));
    assert_eq!(seat_of(&qdb, "a1").as_deref(), Some("1A"));
    assert_eq!(seat_of(&qdb, "b1").as_deref(), Some("1B"));
    // a2 still holds a seat, and with all but one seat gone a blind delete
    // of the last one it can take is refused.
    assert!(qdb
        .write(WriteOp::delete("Available", tuple![123, "9Z"]))
        .unwrap());
    assert!(!qdb
        .write(WriteOp::delete("Available", tuple![123, "1C"]))
        .unwrap());
    assert_eq!(qdb.metrics().writes_rejected, 1);
    assert_eq!(seat_of(&qdb, "a2").as_deref(), Some("1C"));
}

#[test]
fn shared_handle_serializes_concurrent_clients() {
    let shared = travel_engine(QuantumDbConfig::default());
    let names: Vec<String> = (0..3).map(|i| format!("U{i}")).collect();
    std::thread::scope(|s| {
        for name in &names {
            let h = shared.clone();
            s.spawn(move || {
                let _ = h.submit(&book(name)).unwrap();
            });
        }
    });
    let m = shared.metrics();
    assert_eq!(m.submitted, 3);
    assert_eq!(m.committed, 3);
    shared.ground_all().unwrap();
    shared.with_database(|db| {
        assert_eq!(db.table("Bookings").unwrap().len(), 3);
    });
}

#[test]
fn wal_grows_and_checkpoint_appends() {
    let qdb = travel_engine(QuantumDbConfig::default());
    let before = qdb.wal_size();
    qdb.submit(&book("Mickey")).unwrap();
    assert!(qdb.wal_size() > before);
    qdb.checkpoint().unwrap();
    let tuple_q = parse_query("Bookings('Mickey', f, s)").unwrap();
    qdb.read(&tuple_q.atoms, None).unwrap();
    // Grounding logged Write + PendingRemove records.
    assert!(qdb.wal_size() > before + 8);
}

/// Bulk check: engine state stays internally consistent across a random
/// mix of operations (mini soak test; the workload crate runs bigger ones).
#[test]
fn soak_mixed_operations_keep_invariants() {
    let qdb = travel_engine(QuantumDbConfig::with_k(4));
    qdb.bulk_insert(
        "Available",
        (0..20)
            .map(|i| tuple![500, format!("s{i}").as_str()])
            .collect::<Vec<Tuple>>(),
    )
    .unwrap();
    for i in 0..20 {
        let name = format!("P{i}");
        let t = parse_transaction(&format!(
            "-Available(500, s), +Bookings('{name}', 500, s) :-1 Available(500, s)"
        ))
        .unwrap();
        assert!(qdb.submit(&t).unwrap().is_committed());
        if i % 3 == 0 {
            let q = parse_query(&format!("Bookings('{name}', f, s)")).unwrap();
            let rows = qdb.read(&q.atoms, None).unwrap();
            assert_eq!(rows.len(), 1);
        }
    }
    qdb.ground_all().unwrap();
    assert_eq!(qdb.pending_count(), 0);
    let booked = qdb.with_database(|db| db.table("Bookings").unwrap().len());
    assert_eq!(booked, 20);
    assert!(qdb.metrics().grounded_by_read > 0);
}
