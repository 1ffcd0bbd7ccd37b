//! Randomized equivalence: reading a possible world through an
//! [`Overlay`] in read mode must be indistinguishable — result **order
//! included** — from evaluating the storage layer's reference evaluator
//! against a cloned database with the same ops applied.
//!
//! This is the contract the clone-free read path rests on: the engine
//! answers collapse, PEEK and POSSIBLE reads with [`ReadSpec`] over the
//! base plus an overlay, and the materializing reference survives only
//! here. Each case builds a random base (one to three columns, secondary
//! indexes, up to ~100 rows so counts pass the grounding search's ordering
//! cap), applies a random op sequence — many of them deletes of base rows,
//! inserts landing between base rows — to both a clone and an overlay,
//! checks that every op has the same effect (changed / unchanged, and a
//! duplicate insert refused), and then compares:
//!
//! * random conjunctive queries — 1 to 3 atoms with constants, repeated
//!   variables, joins and cross products, with and without `LIMIT` — as
//!   valuations and as rows;
//! * raw counts of random patterns;
//! * the access-pattern tracker's votes, so read mode makes the lookups
//!   the reference makes;
//! * the overlay's own materialization.
//!
//! The `proptest` crate is not vendored in this offline workspace, so the
//! cases come from a seeded splitmix64 loop (a failure prints the case).

use qdb_logic::{Atom, Term, Valuation, Var};
use qdb_solver::{Overlay, ReadSpec};
use qdb_storage::{ConjunctiveQuery, Database, Schema, Tuple, Value, ValueType, WriteOp};

/// Splitmix64 — the same deterministic generator idiom the workload crate
/// uses; only self-consistency per seed matters here.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn chance(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }
}

/// Small value domains so inserts, deletes and joins collide.
fn random_value(rng: &mut Rng, ty: ValueType) -> Value {
    match ty {
        ValueType::Int => Value::from(rng.below(8) as i64),
        ValueType::Str => Value::from(["a", "b", "c", "d", "e", "f", "g", "h"][rng.below(8)]),
        ValueType::Bool => Value::from(rng.chance(50)),
    }
}

struct Rel {
    name: &'static str,
    types: Vec<ValueType>,
}

impl Rel {
    fn random_row(&self, rng: &mut Rng) -> Tuple {
        (self.types.iter())
            .map(|t| random_value(rng, *t))
            .collect::<Vec<_>>()
            .into()
    }
}

fn random_base(rng: &mut Rng) -> (Database, Vec<Rel>) {
    let mut db = Database::new();
    let mut rels = Vec::new();
    for name in ["R0", "R1", "R2"].into_iter().take(2 + rng.below(2)) {
        let arity = 1 + rng.below(3);
        let types: Vec<ValueType> = (0..arity)
            .map(|_| [ValueType::Int, ValueType::Str][rng.below(2)])
            .collect();
        let columns: Vec<String> = (0..arity).map(|i| format!("c{i}")).collect();
        let borrowed = columns
            .iter()
            .map(String::as_str)
            .zip(types.iter().copied());
        db.create_table(Schema::new(name, borrowed.collect()))
            .unwrap();
        rels.push(Rel { name, types });
    }
    // Random rows (duplicates are no-ops).
    for rel in &rels {
        for _ in 0..rng.below(120) {
            db.insert(rel.name, rel.random_row(rng)).unwrap();
        }
    }
    // Random secondary indexes (row order must not depend on them).
    for rel in &rels {
        if rng.chance(40) {
            let col = rng.below(rel.types.len());
            db.table_mut(rel.name).unwrap().create_index(col).unwrap();
        }
    }
    (db, rels)
}

/// Deletes mostly hit base rows; inserts are random rows, so they land
/// between the base rows.
fn random_op(rng: &mut Rng, base: &Database, rels: &[Rel]) -> WriteOp {
    let rel = &rels[rng.below(rels.len())];
    let table = base.table(rel.name).unwrap();
    if rng.chance(40) {
        let existing = (!table.is_empty()).then(|| table.iter().nth(rng.below(table.len())));
        let row = existing.flatten().cloned();
        return WriteOp::delete(rel.name, row.unwrap_or_else(|| rel.random_row(rng)));
    }
    WriteOp::insert(rel.name, rel.random_row(rng))
}

/// 1–3 atoms: constants, repeated variables and joins over variables
/// `x0..x2` — or, for a third of the queries, a cross product of two
/// whole relations, each atom with variables of its own.
fn random_query(rng: &mut Rng, rels: &[Rel]) -> Vec<Atom> {
    let cross = rng.chance(33);
    (0..if cross { 2 } else { 1 + rng.below(3) })
        .map(|k| {
            let rel = &rels[rng.below(rels.len())];
            let terms = (rel.types.iter())
                .map(|t| {
                    if !cross && rng.chance(20) {
                        Term::Const(random_value(rng, *t))
                    } else {
                        let id = (rng.below(3) + if cross { 3 * k } else { 0 }) as u32;
                        Term::Var(Var::new(id, format!("x{id}")))
                    }
                })
                .collect();
            Atom::new(rel.name, terms)
        })
        .collect()
}

/// The reference: `ConjunctiveQuery` over `db`, as valuations in order.
fn reference(db: &Database, atoms: &[Atom], limit: Option<usize>) -> Vec<Valuation> {
    let empty = Valuation::new();
    let mut query = ConjunctiveQuery::new(atoms.iter().map(|a| a.to_pattern(&empty)).collect());
    if let Some(l) = limit {
        query = query.with_limit(l);
    }
    let var = |id: u32| {
        atoms
            .iter()
            .flat_map(Atom::vars)
            .find(|v| v.id() == id)
            .cloned()
    };
    let bindings = query.eval(db).unwrap().bindings.into_iter();
    bindings
        .map(|b| b.into_iter().map(|(id, v)| (var(id).unwrap(), v)).collect())
        .collect()
}

fn random_bound(rng: &mut Rng, rel: &Rel) -> Vec<Option<Value>> {
    (rel.types.iter())
        .map(|t| rng.chance(40).then(|| random_value(rng, *t)))
        .collect()
}

fn votes(db: &Database, rels: &[Rel]) -> Vec<u32> {
    let columns = |rel: &Rel| {
        let table = db.table(rel.name).unwrap();
        (0..rel.types.len()).map(move |c| table.scan_votes(c))
    };
    rels.iter().flat_map(columns).collect()
}

/// Content fingerprint (tables in name order, rows in tuple order).
fn fingerprint(db: &Database) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    for table in db.tables() {
        let _ = write!(out, "{}[", table.schema().relation());
        for row in table.iter() {
            let _ = write!(out, "{row}");
        }
        out.push(']');
    }
    out
}

#[test]
fn delta_view_evaluation_matches_the_clone_based_reference() {
    let (mut answered, mut cut) = (0, 0);
    for case in 0..500u64 {
        let mut rng = Rng(0xD17A_0000 ^ case.wrapping_mul(0x9E37));
        let (base, rels) = random_base(&mut rng);
        let mut materialized = base.clone();
        let mut world = Overlay::new();

        // The same effect: changed, unchanged, or (inserts) a duplicate
        // the table ignores and the overlay refuses.
        for _ in 0..rng.below(24) {
            let op = random_op(&mut rng, &base, &rels);
            let want = materialized.apply(&op);
            let got = world.apply(&base, &op);
            match (&want, &got) {
                (Ok(a), Ok(b)) => assert_eq!(a, b, "case {case}: outcome of {op} diverged"),
                (Ok(false), Err(_)) if op.is_insert() => {}
                _ => panic!("case {case}: {op} → table {want:?}, overlay {got:?}"),
            }
        }
        let label = |what: &str| format!("case {case}: {what}");

        // Raw counts, exact, and the tracker's votes (checked below).
        for rel in &rels {
            let bound = random_bound(&mut rng, rel);
            let rid = base.resolve(rel.name).unwrap();
            let want = materialized.table(rel.name).unwrap().count(&bound);
            let (got, _) = world
                .count_up_to_id(&base, rid, &bound, usize::MAX)
                .unwrap();
            assert_eq!(got, want, "{}", label(&format!("count {bound:?}")));
        }

        // Conjunctive queries: identical answers, in order.
        for _ in 0..8 {
            let atoms = random_query(&mut rng, &rels);
            let limit = rng.chance(30).then(|| rng.below(4));
            let want = reference(&materialized, &atoms, limit);
            let read = ReadSpec::compile(&base, &atoms).unwrap();
            let got = read.valuations(&base, &world, limit);
            assert_eq!(
                got,
                want,
                "{}",
                label(&format!("{atoms:?} LIMIT {limit:?}"))
            );
            let all = reference(&materialized, &atoms, None);
            let rows: Vec<Valuation> = (read.rows(&base, [&world]).remove(0).into_iter())
                .map(|row| read.valuation(row))
                .collect();
            assert_eq!(rows, all, "{}", label(&format!("rows of {atoms:?}")));
            answered += usize::from(!want.is_empty());
            cut += usize::from(want.len() < all.len());
        }
        assert_eq!(
            votes(&base, &rels),
            votes(&materialized, &rels),
            "{}",
            label("votes")
        );

        // The overlay also matches its own materialization.
        let mut committed = base.clone();
        world.commit_into(&mut committed).unwrap();
        assert_eq!(
            fingerprint(&committed),
            fingerprint(&materialized),
            "{}",
            label("commit")
        );
    }
    assert!(
        answered > 1500 && cut > 400,
        "sweep lost coverage: {answered} answered, {cut} cut by LIMIT"
    );
}
