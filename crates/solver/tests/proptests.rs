//! Property tests for the grounding solver over randomized booking
//! sequences: soundness (returned solutions verify and replay cleanly on
//! the real database), agreement between atom orderings, soundness of
//! solution-cache extension (Theorem 3.5: a sequence admitted step by
//! step through `Solver::solve_in` on a maintained overlay, as admission
//! does, is satisfiable from scratch and its cached valuations verify at
//! every step), agreement with the composed-body formula of Theorem 3.5
//! (`qdb_workload::formula`, the brute-force oracle), enumeration
//! validity, and that enumeration keeps exactly the groundings whose
//! updates apply in order.
//!
//! The `proptest` crate is not vendored in this offline workspace, so the
//! cases are driven by a seeded splitmix64 generator (failures print the
//! case seed).

use std::collections::{BTreeMap, BTreeSet};

use qdb_logic::{parse_transaction, ResourceTransaction, Term, Valuation, Var, VarGen};
use qdb_solver::{AtomOrder, CachedSolution, Overlay, Solver, TxnSpec};
use qdb_storage::{tuple, Database, Schema, Value, ValueType};
use qdb_workload::formula::{compose_renamed, Formula};
use qdb_workload::rng::StdRng;

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
fn random_bookings(rng: &mut StdRng) -> Vec<ResourceTransaction> {
    let mut gen = VarGen::new();
    (0..1 + rng.gen_range(0..5))
        .map(|i| {
            let f = match rng.gen_range(0..3) {
                0 => "f".to_string(),
                n => n.to_string(),
            };
            let depends = if i > 0 && rng.gen_range(0..3) == 0 {
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
        let mut rng = StdRng::seed_from_u64(0x5010_0000 ^ case);
        let db = seats_db(2, 1 + rng.gen_range(0..2));
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
        let mut rng = StdRng::seed_from_u64(0x5020_0000 ^ case);
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

/// Theorem 3.5 against the formula itself. Soundness: every solution
/// `solve` returns satisfies `compose_renamed` of the sequence under the
/// members' valuations joined. Completeness: on up to three bookings over
/// four seats, some valuation satisfies the formula exactly when `solve`
/// finds a solution. Bookings never re-insert a deleted tuple and never
/// insert one that could be present, the formula's two blind spots, so
/// both directions must hold.
#[test]
fn solver_agrees_with_the_composed_formula() {
    let solve = |db: &Database, txns: &[ResourceTransaction]| {
        let specs: Vec<TxnSpec> = txns.iter().map(TxnSpec::required_only).collect();
        Solver::default().solve(db, &[], &specs).unwrap()
    };
    let (mut sound, mut sat, mut unsat) = (0, 0, 0);
    for case in 0..CASES * 4 {
        let mut rng = StdRng::seed_from_u64(0x5030_0000 ^ case);
        let db = seats_db(2, 1 + rng.gen_range(0..2));
        let mut txns = random_bookings(&mut rng);
        let refs: Vec<&ResourceTransaction> = txns.iter().collect();
        if let Some(sol) = solve(&db, &txns) {
            sound += 1;
            let mut merged = Valuation::new();
            for val in &sol.valuations {
                assert!(merged.merge(val), "case {case}: members share a variable");
            }
            let formula = compose_renamed(&refs);
            assert!(
                formula.eval(&merged, &db).unwrap(),
                "case {case}: member valuations {:?} falsify {formula}",
                sol.valuations
                    .iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
            );
        }
        txns.truncate(3);
        let small = seats_db(2, 1);
        let solved = solve(&small, &txns).is_some();
        assert_eq!(
            solved,
            formula_satisfiable(&small, &txns),
            "case {case}: solver and formula disagree on {:?}",
            txns.iter().map(ToString::to_string).collect::<Vec<_>>()
        );
        if solved {
            sat += 1;
        } else {
            unsat += 1;
        }
    }
    assert!(sound > 100, "only {sound} solutions checked");
    assert!(sat > 20 && unsat > 20, "sat {sat}, unsat {unsat}");
}

/// Brute force: does any valuation satisfy the composed formula of
/// `txns`? A body atom grounds on a base row or on an earlier insert, so
/// each variable ranges over the values every column it occurs in can
/// hold: the base's values there, and what earlier inserts write there.
fn formula_satisfiable(db: &Database, txns: &[ResourceTransaction]) -> bool {
    let mut domains: BTreeMap<Var, BTreeSet<Value>> = BTreeMap::new();
    for (n, txn) in txns.iter().enumerate() {
        for b in txn.body.iter().filter(|b| !b.optional) {
            let table = db.table(&b.atom.relation).unwrap();
            for (col, term) in b.atom.terms.iter().enumerate() {
                let Term::Var(v) = term else { continue };
                let mut held: BTreeSet<Value> = table.iter().map(|row| row[col].clone()).collect();
                let earlier = txns[..n].iter().flat_map(|t| t.inserts());
                for ins in earlier.filter(|i| i.atom.relation == b.atom.relation) {
                    match &ins.atom.terms[col] {
                        Term::Const(c) => {
                            held.insert(c.clone());
                        }
                        Term::Var(w) => held.extend(domains[w].iter().cloned()),
                    }
                }
                let dom = domains.entry(v.clone()).or_insert_with(|| held.clone());
                dom.retain(|x| held.contains(x));
            }
        }
    }
    let refs: Vec<&ResourceTransaction> = txns.iter().collect();
    let domains: Vec<(Var, BTreeSet<Value>)> = domains.into_iter().collect();
    any_satisfies(&compose_renamed(&refs), db, &domains, &mut Valuation::new())
}

/// Does some extension of `val` over `domains` satisfy `formula`?
fn any_satisfies(
    formula: &Formula,
    db: &Database,
    domains: &[(Var, BTreeSet<Value>)],
    val: &mut Valuation,
) -> bool {
    let Some(((var, values), rest)) = domains.split_first() else {
        return formula.eval(val, db).unwrap();
    };
    values.iter().any(|x| {
        val.bind(var.clone(), x.clone());
        any_satisfies(formula, db, rest, val)
    })
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
    let mut rng = StdRng::seed_from_u64(0x5EED_C011);
    for case in 0..CASES {
        let db = seats_db(2, 3);
        // A random pending state: some seats taken, some already booked.
        let mut pre_ops = Vec::new();
        for row in db.table("Available").unwrap().iter() {
            match rng.gen_range(0..4) {
                0 => pre_ops.push(qdb_storage::WriteOp::delete("Available", row.clone())),
                1 => pre_ops.push(qdb_storage::WriteOp::insert(
                    "Bookings",
                    tuple!["x", row[0].clone(), row[1].clone()],
                )),
                _ => {}
            }
        }
        let txn = parse_transaction(shapes[rng.gen_range(0..shapes.len())]).unwrap();
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
