//! Seeded oracle for the search's lookahead through the group's own
//! inserts (`search.rs` module docs): on random fragmented seat maps and
//! pending overlays, a multi-spec `solve` of 2–3 entangled bookings must
//! return exactly the valuations of a reference sequential search built
//! from single-spec APIs alone — the first member's groundings in
//! discovery order (`enumerate_one`), the rest solved on each one's
//! updates, the last member solved by itself.
//!
//! The corpus mixes the shapes the rule fires on with those it must not:
//! a visible tuple matching the partner atom, two earlier inserts that
//! unify with it, a middle member inserting into a pushed atom's relation
//! (a cancellation freeing a seat), a partner atom repeating a variable,
//! and a partner constant no insert carries. The reference spends exactly
//! the nodes the search spent before the lookahead, so the totals compare
//! the two: over the entangled (`Mixed`) cases the lookahead must save
//! nodes, though a single case may cost a node or two more. In the
//! targeted shapes the rule does not fire, or fires on fewer atoms, so
//! there only the valuations are held to the reference.
//!
//! The `proptest` crate is not vendored in this offline workspace, so the
//! cases are driven by a seeded splitmix64 generator (failures print the
//! case seed).

use qdb_logic::{parse_transaction, ResourceTransaction, Valuation};
use qdb_solver::{Solver, TxnSpec};
use qdb_storage::{tuple, Database, Schema, ValueType, WriteOp};
use qdb_workload::rng::StdRng;

const CASES: u64 = 1500;
const FLIGHTS: i64 = 2;
/// Share of the entangled (`Mixed`) cases, in percent, in which the
/// lookahead must have rejected at least one candidate, so the comparison
/// is not vacuous.
const MIN_PRUNED_PCT: u64 = 20;

fn seat(row: usize, pos: usize) -> String {
    format!("{row}{}", ["A", "B", "C"][pos])
}

/// `rows` rows × 3 seats per flight, adjacency within a row, fragmented:
/// a random share of rows keeps one free seat, the others each seat with
/// 70 % odds. The benchmark's indexes, plus sometimes one on
/// `Adjacent.s2` (an index never changes which candidates come, in what
/// order).
fn seat_map(rng: &mut StdRng, rows: usize) -> Database {
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
        "Spare",
        vec![("flight", ValueType::Int), ("seat", ValueType::Str)],
    ))
    .unwrap();
    for rel in ["Adjacent", "Pair"] {
        db.create_table(Schema::new(
            rel,
            vec![("s1", ValueType::Str), ("s2", ValueType::Str)],
        ))
        .unwrap();
    }
    let mut indexes = vec![
        ("Available", 0),
        ("Available", 1),
        ("Bookings", 0),
        ("Adjacent", 0),
    ];
    if rng.gen_range(0..100) < 50 {
        indexes.push(("Adjacent", 1));
    }
    for (rel, col) in indexes {
        db.table_mut(rel).unwrap().create_index(col).unwrap();
    }
    let fragmented = 30 + rng.gen_range(0..50);
    for row in 1..=rows {
        let [a, b, c] = [0, 1, 2].map(|pos| seat(row, pos));
        for (x, y) in [(&a, &b), (&b, &a), (&b, &c), (&c, &b)] {
            db.insert("Adjacent", tuple![x.as_str(), y.as_str()])
                .unwrap();
        }
        for f in 1..=FLIGHTS {
            let single = (rng.gen_range(0..100) < fragmented).then(|| rng.gen_range(0..3));
            for (pos, s) in [&a, &b, &c].into_iter().enumerate() {
                let free = single.map_or_else(|| rng.gen_range(0..100) < 70, |only| only == pos);
                if free {
                    db.insert("Available", tuple![f, s.as_str()]).unwrap();
                }
            }
        }
    }
    db
}

/// Take a random available seat of `flight` out of `db`, or `None`.
fn take_seat(rng: &mut StdRng, db: &Database, taken: &[WriteOp], flight: i64) -> Option<String> {
    let free: Vec<String> = db
        .table("Available")
        .unwrap()
        .iter()
        .filter(|t| t[0] == qdb_storage::Value::from(flight))
        .filter(|t| !taken.contains(&WriteOp::delete("Available", (*t).clone())))
        .map(|t| t[1].as_str().unwrap().to_string())
        .collect();
    (!free.is_empty()).then(|| free[rng.gen_range(0..free.len())].clone())
}

/// Pending bookings as an overlay, of strangers and sometimes of a group
/// name (a visible tuple a partner atom can match).
fn pending_ops(rng: &mut StdRng, db: &Database) -> Vec<WriteOp> {
    let mut ops = Vec::new();
    for n in 0..rng.gen_range(0..7) {
        let name = match rng.gen_range(0..10) {
            0 => ["A", "B"][rng.gen_range(0..2)].to_string(),
            _ => format!("p{n}"),
        };
        let flight = 1 + rng.gen_range(0..FLIGHTS as usize) as i64;
        book_seat(rng, db, &mut ops, &name, flight);
    }
    ops
}

/// Append a pending booking of a random free seat of `flight` by `name`.
fn book_seat(rng: &mut StdRng, db: &Database, ops: &mut Vec<WriteOp>, name: &str, flight: i64) {
    if let Some(s) = take_seat(rng, db, ops, flight) {
        ops.push(WriteOp::delete("Available", tuple![flight, s.as_str()]));
        ops.push(WriteOp::insert(
            "Bookings",
            tuple![name, flight, s.as_str()],
        ));
    }
}

/// A booking by `name` on flight `f`, wanting a seat next to `partner`'s
/// on flight `pf` when one is given (optional atoms, as §5.1).
fn booking(name: &str, f: &str, partner: Option<(&str, &str)>) -> String {
    let book = format!("-Available({f}, s), +Bookings('{name}', {f}, s) :-1 Available({f}, s)");
    match partner {
        Some((p, pf)) => format!("{book}, Bookings('{p}', {pf}, s2)?, Adjacent(s, s2)?"),
        None => book,
    }
}

/// The group shapes of the corpus.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Shape {
    /// Random names, partners, flights and promotions: pairs and chains
    /// the rule fires on, a partner atom repeating a variable, partner
    /// constants no insert carries, and constants that pin a variable.
    Mixed,
    /// The partner's booking is also visible as a pending tuple.
    Visible,
    /// Two earlier members book under the partner's name, the second a
    /// spare seat outside `Available`.
    TwoSources,
    /// A middle member cancels `X`'s booking: it inserts into a relation
    /// the later member reads.
    MiddleInsert,
}

/// One `Mixed` member: a booking that may want a seat next to a partner —
/// mostly an earlier member, sometimes a name nobody in the group books —,
/// a booking that also records its seat in `Pair(s, s)` and a partner who
/// asks for it with a repeated variable, or a cancellation of `X`'s
/// booking. Names are mostly distinct; a repeated one gives the partner two
/// sources.
fn mixed_member(rng: &mut StdRng, names: &[&'static str]) -> (&'static str, String) {
    let position = names.len();
    let f = match rng.gen_range(0..3) {
        0 => "f".to_string(),
        n => n.to_string(),
    };
    // A constant partner flight against a variable own flight pins the
    // earlier member's variable: the case the rule handles exactly.
    let pf = if f == "f" && rng.gen_range(0..100) < 30 {
        (1 + rng.gen_range(0..FLIGHTS as usize)).to_string()
    } else {
        f.clone()
    };
    let name = match rng.gen_range(0..100) < 15 {
        true if position > 0 => names[rng.gen_range(0..position)],
        _ => ["A", "B", "C"][position],
    };
    let partner = match rng.gen_range(0..20) {
        0 => "Z",
        1 => ["A", "B", "C"][rng.gen_range(0..3)],
        _ if position > 0 => names[rng.gen_range(0..position)],
        _ => ["B", "C"][rng.gen_range(0..2)],
    };
    let book = format!("-Available({f}, s), +Bookings('{name}', {f}, s)");
    let text = match rng.gen_range(0..10) {
        0 if position == 1 => cancel_x(&f),
        1 if position == 0 => format!("{book}, +Pair(s, s) :-1 Available({f}, s)"),
        2 if position > 0 => {
            format!("{book} :-1 Available({f}, s), Pair(s2, s2)?, Adjacent(s, s2)?")
        }
        3 | 4 if position == 0 => booking(name, &f, None),
        _ => booking(name, &f, Some((partner, &pf))),
    };
    (name, text)
}

/// `X` cancels a booking on flight `f`, freeing the seat.
fn cancel_x(f: &str) -> String {
    format!("-Bookings('X', {f}, s), +Available({f}, s) :-1 Bookings('X', {f}, s)")
}

/// A case: the seat map, the pending overlay and the group, as texts.
fn case(rng: &mut StdRng, shape: Shape) -> (Database, Vec<WriteOp>, Vec<String>) {
    // The targeted shapes crowd one flight of a few rows, where a wrongly
    // fired rule soon rejects the seat the search would have kept.
    let rows = if shape == Shape::Mixed {
        3 + rng.gen_range(0..4)
    } else {
        2 + rng.gen_range(0..3)
    };
    let mut db = seat_map(rng, rows);
    if shape == Shape::MiddleInsert || rng.gen_range(0..100) < 30 {
        // X holds a committed booking a cancellation can free.
        let flight = if shape == Shape::Mixed {
            1 + rng.gen_range(0..FLIGHTS as usize) as i64
        } else {
            1
        };
        if let Some(s) = take_seat(rng, &db, &[], flight) {
            db.delete("Available", &tuple![flight, s.as_str()]).unwrap();
            db.insert("Bookings", tuple!["X", flight, s.as_str()])
                .unwrap();
        }
    }
    let mut pending = pending_ops(rng, &db);
    let group = match shape {
        Shape::Mixed => {
            let mut names = Vec::new();
            (0..2 + rng.gen_range(0..2))
                .map(|_| {
                    let (name, text) = mixed_member(rng, &names);
                    names.push(name);
                    text
                })
                .collect()
        }
        Shape::Visible => {
            book_seat(rng, &db, &mut pending, "A", 1);
            vec![booking("A", "1", None), booking("B", "1", Some(("A", "1")))]
        }
        Shape::TwoSources => {
            let rows = db.table("Adjacent").unwrap().len() / 4;
            for _ in 0..1 + rng.gen_range(0..2) {
                let spare = seat(1 + rng.gen_range(0..rows), rng.gen_range(0..3));
                if !db.contains("Available", &tuple![1, spare.as_str()]) {
                    db.insert("Spare", tuple![1, spare.as_str()]).unwrap();
                }
            }
            vec![
                booking("A", "1", None),
                "+Bookings('A', 1, s) :-1 Spare(1, s)".into(),
                booking("B", "1", Some(("A", "1"))),
            ]
        }
        Shape::MiddleInsert => vec![
            booking("A", "1", None),
            cancel_x("1"),
            booking("B", "1", Some(("A", "1"))),
        ],
    };
    (db, pending, group)
}

/// The member as the solver takes it: its optional atoms promoted, mostly
/// — the first member less often, as in a grounding's second promotion set.
fn spec<'a>(rng: &mut StdRng, position: usize, txn: &'a ResourceTransaction) -> TxnSpec<'a> {
    let optionals: Vec<usize> = (txn.body.iter().enumerate())
        .filter(|(_, b)| b.optional)
        .map(|(i, _)| i)
        .collect();
    let skip = if position == 0 { 60 } else { 15 };
    match optionals.is_empty() || rng.gen_range(0..100) < skip {
        true => TxnSpec::required_only(txn),
        false => TxnSpec::with_promoted(txn, optionals),
    }
}

/// The first solution a plain sequential search finds, from single-spec
/// APIs only, and the nodes that search spends: the first member's
/// groundings in discovery order, the rest solved on each one's updates.
fn reference(
    db: &Database,
    pre: &[WriteOp],
    specs: &[TxnSpec<'_>],
) -> (Option<Vec<Valuation>>, u64) {
    if let [last] = specs {
        let mut solver = Solver::default();
        let found = solver.solve(db, pre, std::slice::from_ref(last)).unwrap();
        return (found.map(|s| s.valuations), solver.stats().nodes);
    }
    let mut all = Solver::default();
    let groundings = all.enumerate_one(db, pre, &specs[0], usize::MAX).unwrap();
    let mut nodes = 0;
    for (k, val) in groundings.iter().enumerate() {
        let mut ops = pre.to_vec();
        ops.extend(specs[0].txn.write_ops(val).unwrap());
        let (rest, spent) = reference(db, &ops, &specs[1..]);
        nodes += spent;
        if let Some(rest) = rest {
            // The search streams the first member only up to this one.
            let mut upto = Solver::default();
            upto.enumerate_one(db, pre, &specs[0], k + 1).unwrap();
            let vals = std::iter::once(val.clone()).chain(rest).collect();
            return (Some(vals), nodes + upto.stats().nodes);
        }
    }
    (None, nodes + all.stats().nodes)
}

#[test]
fn lookahead_search_returns_the_sequential_reference_valuations() {
    // Per shape: cases, satisfiable, pruned, nodes with the lookahead,
    // nodes of the reference.
    let shapes = [
        Shape::Mixed,
        Shape::Visible,
        Shape::TwoSources,
        Shape::MiddleInsert,
    ];
    let mut tally = [[0u64; 5]; 4];
    for n in 0..CASES {
        let seed = 0x100C_A4EAD ^ n;
        let mut rng = StdRng::seed_from_u64(seed);
        let shape = match rng.gen_range(0..6) {
            0 => Shape::Visible,
            1 => Shape::TwoSources,
            2 => Shape::MiddleInsert,
            _ => Shape::Mixed,
        };
        let (db, pending, group) = case(&mut rng, shape);
        let txns: Vec<ResourceTransaction> = (group.iter())
            .map(|text| parse_transaction(text).unwrap_or_else(|e| panic!("{text}: {e}")))
            .collect();
        let specs: Vec<TxnSpec> = (txns.iter().enumerate())
            .map(|(position, t)| spec(&mut rng, position, t))
            .collect();

        let mut solver = Solver::default();
        let got = solver.solve(&db, &pending, &specs).unwrap();
        let got = got.map(|s| s.valuations);
        let (want, spent) = reference(&db, &pending, &specs);
        assert_eq!(got, want, "case seed {seed:#x}, {shape:?}: {group:#?}");

        let row = &mut tally[shapes.iter().position(|s| *s == shape).expect("listed")];
        let stats = solver.stats();
        for (cell, add) in row.iter_mut().zip([
            1,
            u64::from(got.is_some()),
            u64::from(stats.lookahead_prunes > 0),
            stats.nodes,
            spent,
        ]) {
            *cell += add;
        }
    }
    for (shape, [cases, solved, pruned, nodes, reference]) in shapes.iter().zip(tally) {
        println!(
            "{shape:?}: {cases} cases, {solved} satisfiable, lookahead pruned in {pruned}; \
             nodes {nodes} with the lookahead, {reference} for the sequential reference"
        );
    }
    // Where the rule fires — the entangled pairs and chains — it must pay
    // for itself over the corpus, and must have fired often enough for the
    // comparison to mean something.
    let [cases, _, pruned, nodes, reference] = tally[0];
    assert!(
        nodes < reference,
        "the lookahead must save nodes over the corpus: {nodes} vs {reference}"
    );
    assert!(
        pruned * 100 >= MIN_PRUNED_PCT * cases,
        "the lookahead pruned in only {pruned} of {cases} cases"
    );
}
