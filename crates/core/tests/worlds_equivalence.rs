//! Equivalence of the delta-forked possible-worlds enumerator against the
//! old clone-based one.
//!
//! `enumerate_worlds` used to clone a full `Database` per world fork and
//! deduplicate by whole-database fingerprints; it now forks one overlay
//! per world and deduplicates on exact equality of net deltas. The
//! clone-based implementation survives *only* in test support, as the
//! materializing reference: on seeded pending sets — plain bookings,
//! adjacency-constrained bookings, overbooked (unsatisfiable) sequences,
//! truncating bounds — and for several solver seeds, both enumerations
//! must report the same worlds in the same discovery order, the same
//! truncation verdict and the same `enumerated` / `dedup_hits` counts.

mod common;

use common::enumerate_worlds_materialized;
use qdb_core::{enumerate_worlds_seeded, world_fingerprint};
use qdb_logic::{parse_transaction, ResourceTransaction};
use qdb_storage::{tuple, Database, Schema, ValueType};

fn flights_db(flights: i64, seats: &[&str]) -> Database {
    let mut db = Database::new();
    db.create_table(Schema::new(
        "Available",
        vec![("flight", ValueType::Int), ("seat", ValueType::Str)],
    ))
    .unwrap();
    db.create_table(Schema::new(
        "Bookings",
        vec![
            ("name", ValueType::Str),
            ("flight", ValueType::Int),
            ("seat", ValueType::Str),
        ],
    ))
    .unwrap();
    db.create_table(Schema::new(
        "Adjacent",
        vec![("s1", ValueType::Str), ("s2", ValueType::Str)],
    ))
    .unwrap();
    for f in 1..=flights {
        for s in seats {
            db.insert("Available", tuple![f, *s]).unwrap();
        }
    }
    for w in seats.windows(2) {
        db.insert("Adjacent", tuple![w[0], w[1]]).unwrap();
        db.insert("Adjacent", tuple![w[1], w[0]]).unwrap();
    }
    db
}

fn book(name: &str, flight: i64) -> ResourceTransaction {
    parse_transaction(&format!(
        "-Available({flight}, s), +Bookings('{name}', {flight}, s) :-1 Available({flight}, s)"
    ))
    .unwrap()
}

fn book_next_to(name: &str, partner: &str, flight: i64) -> ResourceTransaction {
    parse_transaction(&format!(
        "-Available({flight}, s), +Bookings('{name}', {flight}, s) :-1 \
         Available({flight}, s), Bookings('{partner}', {flight}, s2), Adjacent(s, s2)"
    ))
    .unwrap()
}

/// Both enumerators agree, for solver seeds 0, 1 and 7, on everything
/// `SELECT POSSIBLE` reports; returns seed 0's `(truncated, enumerated,
/// dedup_hits, worlds)` so callers can pin the shape.
fn assert_equivalent(
    base: &Database,
    txns: &[&ResourceTransaction],
    bound: usize,
    label: &str,
) -> (bool, u64, u64, usize) {
    let mut shape = Vec::new();
    for seed in [0, 1, 7] {
        let reference = enumerate_worlds_materialized(base, txns, bound, seed);
        let delta = enumerate_worlds_seeded(base, txns, bound, seed).expect("delta enumeration");
        let label = format!("{label}, seed {seed}");
        assert_eq!(delta.truncated, reference.truncated, "{label}: truncation");
        assert_eq!(
            delta.enumerated, reference.enumerated,
            "{label}: enumerated"
        );
        assert_eq!(
            delta.dedup_hits, reference.dedup_hits,
            "{label}: dedup hits"
        );
        let materialize = |world: &qdb_solver::Overlay| {
            let mut db = base.clone();
            world
                .clone()
                .commit_into(&mut db)
                .expect("world materializes");
            world_fingerprint(&db)
        };
        let got: Vec<String> = delta.worlds.iter().map(materialize).collect();
        let want: Vec<String> = reference.worlds.iter().map(world_fingerprint).collect();
        assert_eq!(got, want, "{label}: world contents");
        shape.push((
            delta.truncated,
            delta.enumerated,
            delta.dedup_hits,
            delta.len(),
        ));
    }
    shape[0]
}

#[test]
fn delta_forked_enumeration_matches_the_clone_based_reference() {
    // Seeded pending sets over several shapes: unconstrained bookings,
    // adjacency constraints (joins against the forked state), saturation
    // (unsat), multi-flight independence, and truncating bounds.
    let db = flights_db(1, &["1A", "1B", "1C"]);
    let m = book("Mickey", 1);
    let d = book("Donald", 1);
    let n = book_next_to("Minnie", "Mickey", 1);
    assert_equivalent(&db, &[], 100, "empty pending set");
    assert_equivalent(&db, &[&m], 100, "one booking");
    assert_equivalent(&db, &[&m, &d], 100, "two bookings");
    assert_equivalent(&db, &[&m, &d, &n], 100, "adjacency-constrained");

    // Saturation: every suffix length up to overbooking.
    let us: Vec<ResourceTransaction> = (0..4).map(|i| book(&format!("U{i}"), 1)).collect();
    for k in 1..=us.len() {
        let refs: Vec<&ResourceTransaction> = us[..k].iter().collect();
        assert_equivalent(&db, &refs, 1000, &format!("saturation k={k}"));
    }

    // Truncating bounds exercise the early-return path.
    for bound in [1, 2, 4, 5] {
        assert_equivalent(&db, &[&m, &d], bound, &format!("bound={bound}"));
    }

    // Independent flights: the cross product forks across partitions.
    let multi = flights_db(2, &["1A", "1B"]);
    let a = book("Ann", 1);
    let b = book("Bob", 2);
    let c = book_next_to("Cleo", "Ann", 1);
    assert_equivalent(&multi, &[&a, &b], 100, "two flights");
    assert_equivalent(&multi, &[&a, &b, &c], 100, "two flights + adjacency");
}

#[test]
fn deep_admit_shape_truncates_at_the_first_level() {
    // 60 seats on one flight, 16 pending bookings, `LIMIT 32`: the oldest
    // booking alone has 60 groundings, so the 33rd fork of level 1 ends
    // the enumeration and no later booking is applied in any world.
    let seats: Vec<String> = (1..=20)
        .flat_map(|r| ["A", "B", "C"].map(|c| format!("{r}{c}")))
        .collect();
    let seats: Vec<&str> = seats.iter().map(String::as_str).collect();
    let db = flights_db(1, &seats);
    let txns: Vec<ResourceTransaction> = (0..16).map(|i| book(&format!("u{i}"), 1)).collect();
    let refs: Vec<&ResourceTransaction> = txns.iter().collect();
    let shape = assert_equivalent(&db, &refs, 32, "deep admit");
    assert_eq!(shape, (true, 33, 0, 33));
}

#[test]
fn three_seats_enumerate_every_level() {
    // Three bookings on three seats: 3 + 6 + 6 forks over three levels,
    // every permutation a distinct world, nothing truncated.
    let db = flights_db(1, &["1A", "1B", "1C"]);
    let txns: Vec<ResourceTransaction> = (0..3).map(|i| book(&format!("u{i}"), 1)).collect();
    let refs: Vec<&ResourceTransaction> = txns.iter().collect();
    assert_eq!(
        assert_equivalent(&db, &refs, 100, "three levels"),
        (false, 15, 0, 6)
    );
    // Two identical bookings reach each pair of seats twice: 3 + 6 forks,
    // 3 of them duplicates.
    let twin = book("twin", 1);
    assert_eq!(
        assert_equivalent(&db, &[&twin, &twin], 100, "twins"),
        (false, 9, 3, 3)
    );
}

#[test]
fn seeded_random_pending_sets_agree() {
    // Deterministic pseudo-random mixes of plain and adjacent bookings
    // over two flights — different seeds pick different shapes.
    for seed in 0..12u64 {
        let db = flights_db(2, &["1A", "1B", "1C"]);
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = || {
            state = state.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z ^ (z >> 31)
        };
        let mut txns: Vec<ResourceTransaction> = Vec::new();
        let mut named: Vec<(String, i64)> = Vec::new();
        for i in 0..(2 + (next() % 3) as usize) {
            let flight = 1 + (next() % 2) as i64;
            let name = format!("u{seed}_{i}");
            let adjacent_partner = named
                .iter()
                .filter(|(_, f)| *f == flight)
                .map(|(n, _)| n.clone())
                .next_back();
            match adjacent_partner {
                Some(p) if next() % 2 == 0 => txns.push(book_next_to(&name, &p, flight)),
                _ => txns.push(book(&name, flight)),
            }
            named.push((name, flight));
        }
        let refs: Vec<&ResourceTransaction> = txns.iter().collect();
        let bound = [3, 10, 100][(next() % 3) as usize];
        assert_equivalent(&db, &refs, bound, &format!("seed {seed}"));
    }
}
