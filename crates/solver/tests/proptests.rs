//! Property tests for the grounding solver over randomized booking
//! sequences: soundness (returned solutions verify and replay cleanly on
//! the real database), agreement between atom orderings, soundness of
//! solution-cache extension (Theorem 3.5: a sequence admitted step by
//! step through `Solver::solve_in` on a maintained overlay, as admission
//! does, is satisfiable from scratch and its cached valuations verify at
//! every step), enumeration validity, and that
//! enumeration keeps exactly the groundings whose updates apply in order.
//!
//! The `proptest` crate is not vendored in this offline workspace, so the
//! cases are driven by a seeded splitmix64 generator (failures print the
//! case seed).

use qdb_logic::{parse_transaction, ResourceTransaction, VarGen};
use qdb_solver::{AtomOrder, CachedSolution, Overlay, Solver, TxnSpec};
use qdb_storage::{tuple, Database, Schema, ValueType};

/// splitmix64 — tiny, seedable, good enough for case generation.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

const CASES: u64 = 200;

/// `flights` flights of `rows` rows × seats A/B, flight column indexed.
fn seats_db(flights: i64, rows: usize) -> Database {
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
    db.table_mut("Available").unwrap().create_index(0).unwrap();
    for f in 1..=flights {
        for r in 1..=rows {
            for c in ["A", "B"] {
                db.insert("Available", tuple![f, format!("{r}{c}").as_str()])
                    .unwrap();
            }
        }
    }
    db
}

/// 1–5 bookings, renamed apart: each on flight 1, flight 2 or any flight,
/// and a third of the later ones also requiring the previous user's
/// (still pending) booking to exist.
fn random_bookings(rng: &mut Rng) -> Vec<ResourceTransaction> {
    let mut gen = VarGen::new();
    (0..1 + rng.below(5) as usize)
        .map(|i| {
            let f = match rng.below(3) {
                0 => "f".to_string(),
                n => n.to_string(),
            };
            let depends = if i > 0 && rng.below(3) == 0 {
                format!(", Bookings('u{}', f2, s2)", i - 1)
            } else {
                String::new()
            };
            parse_transaction(&format!(
                "-Available({f}, s), +Bookings('u{i}', {f}, s) :-1 Available({f}, s){depends}"
            ))
            .unwrap()
            .freshen(&mut gen)
        })
        .collect()
}

/// Whatever `solve` returns passes `verify`, its write ops replay onto
/// the real database in sequence order, and the static and
/// most-constrained atom orderings agree on satisfiability.
#[test]
fn solutions_verify_and_replay_and_orderings_agree() {
    let (mut sat, mut unsat) = (0, 0);
    for case in 0..CASES {
        let mut rng = Rng(0x5010_0000 ^ case);
        let db = seats_db(2, 1 + rng.below(2) as usize);
        let txns = random_bookings(&mut rng);
        let specs: Vec<TxnSpec> = txns.iter().map(TxnSpec::required_only).collect();
        let mut solver = Solver::new(AtomOrder::MostConstrained);
        let solution = solver.solve(&db, &[], &specs).unwrap();
        let fixed = Solver::new(AtomOrder::Static)
            .solve(&db, &[], &specs)
            .unwrap();
        assert_eq!(
            solution.is_some(),
            fixed.is_some(),
            "case {case}: orderings disagree on satisfiability"
        );
        let Some(sol) = solution else {
            unsat += 1;
            continue;
        };
        sat += 1;
        assert!(
            solver.verify(&db, &[], &specs, &sol.valuations).unwrap(),
            "case {case}: solver output fails verify"
        );
        let mut world = db.clone();
        for (txn, val) in txns.iter().zip(&sol.valuations) {
            for op in txn.write_ops(val).unwrap() {
                world
                    .apply(&op)
                    .unwrap_or_else(|e| panic!("case {case}: replaying {op}: {e}"));
            }
        }
        assert_eq!(
            world.table("Bookings").unwrap().len(),
            txns.len(),
            "case {case}: one booking per transaction"
        );
        assert_eq!(
            world.table("Available").unwrap().len() + txns.len(),
            db.table("Available").unwrap().len(),
            "case {case}: seats conserved"
        );
    }
    assert!(sat > 20 && unsat > 20, "sat {sat}, unsat {unsat}");
}

/// Theorem 3.5 as admission uses it: every sequence admitted one
/// transaction at a time through `solve_in` on the maintained pending
/// world verifies as a whole and is satisfiable from scratch, and the
/// world stays the virtual state of the cached valuations; a refused
/// extension leaves the cache and the world intact.
#[test]
fn cache_extension_is_sound() {
    let (mut admitted_total, mut refused_total) = (0, 0);
    for case in 0..CASES {
        let mut rng = Rng(0x5020_0000 ^ case);
        let db = seats_db(2, 1);
        let mut solver = Solver::default();
        let (mut world, mut cache) = (Overlay::new(), CachedSolution::default());
        let mut admitted: Vec<ResourceTransaction> = Vec::new();
        for txn in random_bookings(&mut rng) {
            let before = world.clone();
            let spec = TxnSpec::required_only(&txn);
            let Some(sol) = solver.solve_in(&db, &mut world, &[spec]).unwrap() else {
                refused_total += 1;
                assert_eq!(world, before, "case {case}: refused extension");
                continue;
            };
            admitted_total += 1;
            cache.valuations.extend(sol.valuations);
            admitted.push(txn);
            let refs: Vec<&ResourceTransaction> = admitted.iter().collect();
            assert_eq!(cache.valuations.len(), refs.len(), "case {case}");
            let specs: Vec<TxnSpec> = refs.iter().map(|t| TxnSpec::required_only(t)).collect();
            assert!(
                solver.verify(&db, &[], &specs, &cache.valuations).unwrap(),
                "case {case}: extended cache fails verify at depth {}",
                refs.len()
            );
            let mut rebuilt = Overlay::new();
            for op in cache.pending_ops(&refs).unwrap() {
                rebuilt.apply(&db, &op).unwrap();
            }
            assert_eq!(world, rebuilt, "case {case}: world drifted from the cache");
            assert!(
                CachedSolution::resolve(&mut solver, &db, &refs)
                    .unwrap()
                    .is_some(),
                "case {case}: admitted sequence unsatisfiable from scratch"
            );
        }
    }
    assert!(admitted_total > 100 && refused_total > 20);
}

/// `enumerate_one` returns at most `max` distinct, individually valid
/// groundings — all of them when `max` allows.
#[test]
fn enumeration_distinct_and_valid() {
    let txn =
        parse_transaction("-Available(f, s), +Bookings('x', f, s) :-1 Available(f, s)").unwrap();
    let spec = TxnSpec::required_only(&txn);
    for rows in 1..4usize {
        let db = seats_db(1, rows);
        for max in 1..10usize {
            let mut solver = Solver::default();
            let vals = solver.enumerate_one(&db, &[], &spec, max).unwrap();
            assert_eq!(vals.len(), max.min(rows * 2), "rows {rows}, max {max}");
            let distinct: std::collections::BTreeSet<_> = vals.iter().cloned().collect();
            assert_eq!(distinct.len(), vals.len(), "rows {rows}, max {max}");
            for v in &vals {
                assert!(solver
                    .verify(
                        &db,
                        &[],
                        std::slice::from_ref(&spec),
                        std::slice::from_ref(v)
                    )
                    .unwrap());
            }
        }
    }
}

/// Collect mode decides whether a grounding's updates apply by probing the
/// virtual state instead of applying them; with updates that repeat a
/// tuple, that must still be the in-order verdict. Each enumerated set
/// equals the body matches that `verify` (which applies in order) accepts.
#[test]
fn enumeration_keeps_exactly_the_groundings_whose_updates_apply_in_order() {
    let shapes = [
        "-Available(f, s), +Available(f, s) :-1 Available(f, s)",
        "+Available(f, s) :-1 Available(f, s)",
        "+Bookings('x', f, s), +Bookings('x', f, s) :-1 Available(f, s)",
        "+Bookings('x', f, s), -Bookings('x', f, s), +Bookings('x', f, s) :-1 Available(f, s)",
        "-Bookings('x', f, s), +Bookings('x', f, s) :-1 Available(f, s)",
        "-Available(f, s), +Bookings('x', f, s) :-1 Available(f, s)",
    ];
    let mut rng = Rng(0x5EED_C011);
    for case in 0..CASES {
        let db = seats_db(2, 3);
        // A random pending state: some seats taken, some already booked.
        let mut pre_ops = Vec::new();
        for row in db.table("Available").unwrap().iter() {
            match rng.below(4) {
                0 => pre_ops.push(qdb_storage::WriteOp::delete("Available", row.clone())),
                1 => pre_ops.push(qdb_storage::WriteOp::insert(
                    "Bookings",
                    tuple!["x", row[0].clone(), row[1].clone()],
                )),
                _ => {}
            }
        }
        let txn = parse_transaction(shapes[rng.below(shapes.len() as u64) as usize]).unwrap();
        let spec = TxnSpec::required_only(&txn);
        let mut solver = Solver::default();
        let got = solver.enumerate_one(&db, &pre_ops, &spec, 100).unwrap();
        let all = solver
            .enumerate_one(
                &db,
                &pre_ops,
                &TxnSpec::required_only(&body_only(&txn)),
                100,
            )
            .unwrap();
        let want: Vec<_> = (all.into_iter())
            .filter(|v| {
                let valuations = std::slice::from_ref(v);
                (solver.verify(&db, &pre_ops, std::slice::from_ref(&spec), valuations)).unwrap()
            })
            .collect();
        assert_eq!(got, want, "case {case}: {txn}");
    }
}

/// `txn`'s body with no updates: its groundings are the body matches.
fn body_only(txn: &ResourceTransaction) -> ResourceTransaction {
    ResourceTransaction::new(Vec::new(), txn.body.clone()).unwrap()
}
