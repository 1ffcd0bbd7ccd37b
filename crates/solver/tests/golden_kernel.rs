//! Golden test: the grounding-search kernel is behaviour-preserving.
//!
//! The counting/point-probe/compiled-slot kernel must change neither
//! *which* candidates the search tries nor their order. This test pins a
//! partner-grounding shaped search — the benchmark's schema and indexes,
//! 16 pending bookings as an overlay, single promotions that are unsat and sat, an entangled pair
//! solved under two promotion sets — to the valuations **and** the node / candidate counts
//! recorded on the commit before the kernel was touched. A diverging count
//! means a different search, not just a slower or faster one. The one
//! deliberate re-record since is the group lookahead (see the constants):
//! it adds pulls of its own, never a different valuation.

use qdb_logic::{parse_transaction, ResourceTransaction};
use qdb_solver::{Overlay, Solver, TxnSpec};
use qdb_storage::{tuple, Database, Schema, ValueType, WriteOp};

const ROWS: u32 = 50;
const FLIGHTS: i64 = 2;

fn seat(row: u32, pos: usize) -> String {
    format!("{row}{}", ["A", "B", "C"][pos])
}

/// The benchmark's tables and indexes: `FLIGHTS` flights of 50 rows × 3
/// seats, adjacency within a row in both directions.
fn flight_db() -> Database {
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
    for (rel, col) in [
        ("Available", 0),
        ("Available", 1),
        ("Bookings", 0),
        ("Adjacent", 0),
    ] {
        db.table_mut(rel).unwrap().create_index(col).unwrap();
    }
    for row in 1..=ROWS {
        let [a, b, c] = [0, 1, 2].map(|pos| seat(row, pos));
        for (x, y) in [(&a, &b), (&b, &a), (&b, &c), (&c, &b)] {
            db.insert("Adjacent", tuple![x.as_str(), y.as_str()])
                .unwrap();
        }
        for f in 1..=FLIGHTS {
            for s in [&a, &b, &c] {
                db.insert("Available", tuple![f, s.as_str()]).unwrap();
            }
        }
    }
    db
}

/// splitmix64 step (the seed of the "seeded" pending set).
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// 16 pending bookings on flight 1 as an overlay: seeded seats among rows
/// 10–15, the first 18 keys of the flight's index bucket (labels sort as
/// strings), so first-fit candidates walk through deleted seats.
fn pending_ops() -> Vec<WriteOp> {
    let mut ops: Vec<WriteOp> = Vec::new();
    let mut rng = 0xC1DE_u64;
    while ops.len() < 32 {
        let row = 10 + (next(&mut rng) % 6) as u32;
        let s = seat(row, (next(&mut rng) % 3) as usize);
        let delete = WriteOp::delete("Available", tuple![1, s.as_str()]);
        if !ops.contains(&delete) {
            let name = format!("p{}", ops.len() / 2);
            ops.push(delete);
            ops.push(WriteOp::insert(
                "Bookings",
                tuple![name.as_str(), 1, s.as_str()],
            ));
        }
    }
    ops
}

fn entangled(name: &str, partner: &str) -> ResourceTransaction {
    parse_transaction(&format!(
        "-Available(1, s), +Bookings('{name}', 1, s) :-1 \
         Available(1, s), Bookings('{partner}', 1, s2)?, Adjacent(s, s2)?"
    ))
    .unwrap()
}

/// Node and candidate counters spent by `f`.
fn spent(solver: &mut Solver, f: impl FnOnce(&mut Solver)) -> (u64, u64) {
    let before = *solver.stats();
    f(solver);
    let after = solver.stats();
    (
        after.nodes - before.nodes,
        after.candidates_streamed - before.candidates_streamed,
    )
}

#[test]
fn partner_grounding_search_matches_the_recorded_parent_run() {
    let db = flight_db();
    let pending = pending_ops();
    let mut overlay = Overlay::new();
    for op in &pending {
        assert!(overlay.apply(&db, op).unwrap());
    }
    let mut solver = Solver::default();
    let shown = |sol: Option<qdb_solver::Solution>| -> Vec<String> {
        let sol = sol.expect("recorded as satisfiable");
        sol.valuations.iter().map(|v| v.to_string()).collect()
    };

    // An unsat promotion: p13 sits in 12B and both neighbours are pending
    // deletes, so every Adjacent candidate dies on the fully bound
    // `Available(1, s)` probe.
    let crowded = entangled("Pluto", "p13");
    let mark = overlay.mark();
    let cost = spent(&mut solver, |s| {
        let spec = [TxnSpec::with_promoted(&crowded, vec![1, 2])];
        assert!(s.solve_in(&db, &mut overlay, &spec).unwrap().is_none());
    });
    assert_eq!(overlay.mark(), mark, "unsat search rolls the overlay back");
    assert_eq!(cost, (3, 3));

    // A satisfiable single promotion: p8 sits in 11C and 11B is free.
    let roomy = entangled("Pluto", "p8");
    let cost = spent(&mut solver, |s| {
        let spec = [TxnSpec::with_promoted(&roomy, vec![1, 2])];
        let sol = s.solve_in(&db, &mut overlay, &spec).unwrap();
        assert_eq!(shown(sol), ["{s -> '11B', s2 -> '11C'}"]);
    });
    assert_eq!(cost, (3, 3));
    assert!(!overlay.visible(&db, "Available", &tuple![1, "11B"]));
    assert!(overlay.visible(&db, "Bookings", &tuple!["Pluto", 1, "11B"]));

    // The entangled pair, most promotions first. Both promoted is dead on
    // arrival: Mickey's `Bookings('Goofy', ..)` counts zero.
    let (mickey, goofy) = (entangled("Mickey", "Goofy"), entangled("Goofy", "Mickey"));
    let cost = spent(&mut solver, |s| {
        let both = [
            TxnSpec::with_promoted(&mickey, vec![1, 2]),
            TxnSpec::with_promoted(&goofy, vec![1, 2]),
        ];
        assert!(s.solve_in(&db, &mut overlay, &both).unwrap().is_none());
    });
    assert_eq!(cost, GOLDEN_PAIR_UNSAT);
    // Only the later member promoted: Mickey first-fits, Goofy must land
    // next to Mickey's pending insert — the search backtracks over
    // Mickey's seats until one has a free neighbour. 15A fails in full
    // (1 + 2 nodes) and arms Mickey's lookahead; 16A passes its check (a
    // neighbour pulled, then probed free: 2 nodes) before Goofy's search
    // (3 nodes) lands in 16B.
    let cost = spent(&mut solver, |s| {
        let later = [
            TxnSpec::required_only(&mickey),
            TxnSpec::with_promoted(&goofy, vec![1, 2]),
        ];
        let sol = s.solve_in(&db, &mut overlay, &later).unwrap();
        assert_eq!(shown(sol), GOLDEN_PAIR);
    });
    assert_eq!(cost, GOLDEN_PAIR_SAT);

    // Collect mode streams on after each rolled-back completion.
    let cost = spent(&mut solver, |s| {
        let spec = TxnSpec::required_only(&crowded);
        let found = s.enumerate_one(&db, &pending, &spec, 4).unwrap();
        let found: Vec<String> = found.iter().map(|v| v.to_string()).collect();
        assert_eq!(found, GOLDEN_ENUMERATED);
    });
    assert_eq!(cost, (4, 4));

    let stats = solver.stats();
    assert_eq!(stats.candidate_vecs, 0, "the kernel never materializes");
    assert_eq!(
        (
            stats.solves,
            stats.unsat,
            stats.index_lookups,
            stats.scan_lookups
        ),
        GOLDEN_TOTALS
    );
}

// Recorded on the parent commit (bucket-walk counts, per-node `Vec` bound
// columns, `BTreeMap` valuations) before the kernel was touched.
// Re-recorded once, for the lookahead through the group's own inserts
// (`search.rs` module docs), with `GOLDEN_PAIR` byte for byte unchanged:
// `GOLDEN_PAIR_SAT` (7, 7) -> (9, 9), the check's two pulls on 16A;
// `GOLDEN_TOTALS` (4, 2, 26, 8) -> (4, 2, 29, 10): arming probes
// `Bookings('Mickey', 1, _)` (index) and, to order the check, counts
// `Adjacent(_, '15A')` (a scan: no index on `s2` here) and `Available(1,
// _)` (index); the check on 16A streams `Adjacent(_, '16A')` (scan) and
// probes `Available(1, '16B')` (index). One failed seat costs the
// lookahead more than it saves; the saving shows with many
// (`lookahead_oracle.rs` reports corpus totals).
const GOLDEN_PAIR_UNSAT: (u64, u64) = (0, 0);
const GOLDEN_PAIR_SAT: (u64, u64) = (9, 9);
const GOLDEN_PAIR: [&str; 2] = ["{s -> '16A'}", "{s -> '16B', s2 -> '16A'}"];
const GOLDEN_ENUMERATED: [&str; 4] = [
    "{s -> '11B'}",
    "{s -> '15A'}",
    "{s -> '16A'}",
    "{s -> '16B'}",
];
const GOLDEN_TOTALS: (u64, u64, u64, u64) = (4, 2, 29, 10);
