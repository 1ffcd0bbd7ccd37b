//! Property test: the streaming candidate cursor is observationally
//! identical to the materializing reference.
//!
//! For randomized databases (random schemas, rows, secondary indexes) and
//! randomized overlays (random applied insert/delete histories, including
//! cancellations), `Overlay::stream` must yield **exactly** the sequence
//! the materializing reference here builds — same tuples, same order —
//! for arbitrary bound patterns, and `count_up_to_id` must agree with the
//! sequence length under every cap. The reference is a full scan plus
//! linear filters of the overlay's deltas (`Overlay::deltas_of`); the
//! implementation under test answers from index
//! bucket lengths, delta ranges and primary-key probes, so the sweep also
//! steers into the shapes where those differ most: every column bound,
//! overlay deletes under a single indexed bound column, and deletes
//! cancelled by inserts. The `proptest` crate is not vendored in this
//! offline workspace, so the cases are driven by a seeded splitmix64
//! generator (failures print the case seed).

use qdb_solver::Overlay;
use qdb_storage::{Database, Schema, Table, Tuple, Value, ValueType, WriteOp};

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

    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }
}

const DOMAIN: i64 = 4;

fn random_tuple(rng: &mut Rng, arity: usize) -> Tuple {
    Tuple::from(
        (0..arity)
            .map(|_| Value::from(rng.below(DOMAIN as u64) as i64))
            .collect::<Vec<_>>(),
    )
}

/// A random database: 1–3 tables of arity 1–3 (full-row keys), random
/// rows from a small integer domain, random secondary indexes.
fn random_db(rng: &mut Rng) -> Database {
    let mut db = Database::new();
    let tables = 1 + rng.below(3) as usize;
    for t in 0..tables {
        let arity = 1 + rng.below(3) as usize;
        let names: Vec<String> = (0..arity).map(|c| format!("c{c}")).collect();
        let cols: Vec<(&str, ValueType)> =
            names.iter().map(|n| (n.as_str(), ValueType::Int)).collect();
        db.create_table(Schema::new(format!("R{t}"), cols)).unwrap();
        let rows = rng.below(20) as usize;
        for _ in 0..rows {
            let _ = db.insert(&format!("R{t}"), random_tuple(rng, arity));
        }
        for c in 0..arity {
            if rng.chance(40) {
                db.table_mut(&format!("R{t}"))
                    .unwrap()
                    .create_index(c)
                    .unwrap();
            }
        }
    }
    db
}

/// A random overlay history over `db`: applied inserts and deletes of
/// random tuples (conflicting inserts skipped, exactly as the search
/// does), with occasional rollbacks to exercise the journal.
fn random_overlay(rng: &mut Rng, db: &Database) -> Overlay {
    let mut ov = Overlay::new();
    let relations: Vec<String> = db
        .tables()
        .map(|t| t.schema().relation().to_string())
        .collect();
    let mut marks = Vec::new();
    for _ in 0..rng.below(30) {
        let rel = &relations[rng.below(relations.len() as u64) as usize];
        let arity = db.table(rel).unwrap().schema().arity();
        let tuple = random_tuple(rng, arity);
        let op = if rng.chance(50) {
            WriteOp::insert(rel.as_str(), tuple)
        } else {
            WriteOp::delete(rel.as_str(), tuple)
        };
        let _ = ov.try_apply(db, &op);
        if rng.chance(10) {
            marks.push(ov.mark());
        }
        if rng.chance(5) {
            if let Some(mark) = marks.pop() {
                ov.rollback(mark);
            }
        }
    }
    ov
}

fn random_bound(rng: &mut Rng, arity: usize) -> Vec<Option<Value>> {
    (0..arity)
        .map(|_| {
            if rng.chance(50) {
                Some(Value::from(rng.below(DOMAIN as u64 + 1) as i64)) // may miss
            } else {
                None
            }
        })
        .collect()
}

/// The visible tuples of `rel` matching `bound`, materialized: base rows
/// (key order) without the overlay's deletes, then its inserts (tuple
/// order). A full scan and linear filters — no index, probe or range.
fn reference(db: &Database, ov: &Overlay, rel: &str, bound: &[Option<Value>]) -> Vec<Tuple> {
    let (inserted, deleted): (Vec<_>, Vec<_>) =
        ov.deltas_of(db.resolve(rel).unwrap()).partition(|d| d.0);
    let kept = |row: &&Tuple| !deleted.iter().any(|(_, t)| t == row);
    let rows =
        (db.table(rel).unwrap().iter().filter(kept)).chain(inserted.into_iter().map(|d| d.1));
    rows.filter(|row| Table::matches(row, bound))
        .cloned()
        .collect()
}

/// `stream` yields exactly the reference, and `count_up_to_id` is
/// `min(cap, reference.len())` under every cap. Returns the length.
fn assert_matches_reference(
    db: &Database,
    ov: &Overlay,
    rel: &str,
    bound: &[Option<Value>],
    label: &str,
) -> usize {
    let rid = db.resolve(rel).unwrap();
    let expect = reference(db, ov, rel, bound);
    let mut stream = ov.stream(db, rid, bound).unwrap();
    let mut got = Vec::new();
    while let Some(t) = stream.next(ov, bound) {
        got.push(t);
    }
    assert_eq!(got, expect, "{label}: stream diverged on {rel} {bound:?}");
    for cap in [0usize, 1, 2, expect.len(), expect.len() + 3, usize::MAX] {
        let (n, _) = ov.count_up_to_id(db, rid, bound, cap).unwrap();
        assert_eq!(
            n,
            expect.len().min(cap),
            "{label}: count_up_to({cap}) mismatch on {rel} {bound:?}"
        );
    }
    expect.len()
}

fn pin(tuple: &Tuple) -> Vec<Option<Value>> {
    tuple.iter().cloned().map(Some).collect()
}

#[test]
fn stream_and_counts_equal_materialized_candidates_for_random_cases() {
    // How often the sweep reached each shape the kernel special-cases.
    let (mut point_hits, mut point_misses, mut deletes_under_index) = (0, 0, 0);
    for case in 0..400u64 {
        let mut rng = Rng(0xC1DE_0000 + case);
        let db = random_db(&mut rng);
        let ov = random_overlay(&mut rng, &db);
        let label = format!("case {case}");
        for table in db.tables() {
            let rel = table.schema().relation().to_string();
            let arity = table.schema().arity();
            for _ in 0..4 {
                let bound = random_bound(&mut rng, arity);
                assert_matches_reference(&db, &ov, &rel, &bound, &label);
            }
            // Every column bound: a base row (visible or overlay-deleted),
            // an overlay insert when there is one, and a random tuple.
            let all = reference(&db, &ov, &rel, &vec![None; arity]);
            let probes = table
                .iter()
                .take(3)
                .chain(all.last())
                .cloned()
                .chain([random_tuple(&mut rng, arity)]);
            for tuple in probes {
                match assert_matches_reference(&db, &ov, &rel, &pin(&tuple), &label) {
                    0 => point_misses += 1,
                    1 => point_hits += 1,
                    n => panic!("{label}: {n} tuples equal {tuple}"),
                }
            }
            // A single bound column served by an index, on a value some
            // overlay-deleted base row carries: the count is bucket length
            // minus matching deletes, never a walk.
            for row in table.iter().filter(|row| !ov.visible(&db, &rel, row)) {
                for col in table.indexed_columns() {
                    let mut bound = vec![None; arity];
                    bound[col] = Some(row[col].clone());
                    assert_matches_reference(&db, &ov, &rel, &bound, &label);
                    deletes_under_index += usize::from(arity > 1);
                }
            }
        }
    }
    assert!(
        point_hits > 300 && point_misses > 300 && deletes_under_index > 300,
        "sweep lost coverage: {point_hits} point hits, {point_misses} point misses, \
         {deletes_under_index} indexed counts under deletes"
    );
}

#[test]
fn cancelled_deltas_leave_no_trace_in_streams_or_counts() {
    let mut db = Database::new();
    db.create_table(Schema::new(
        "R",
        vec![("a", ValueType::Int), ("b", ValueType::Int)],
    ))
    .unwrap();
    for (a, b) in [(1, 1), (1, 2), (1, 3), (2, 1)] {
        db.insert("R", Tuple::from(vec![Value::from(a), Value::from(b)]))
            .unwrap();
    }
    db.table_mut("R").unwrap().create_index(0).unwrap();
    let t = |a: i64, b: i64| Tuple::from(vec![Value::from(a), Value::from(b)]);
    let patterns = |ov: &Overlay, label: &str| {
        for a in [None, Some(Value::from(1)), Some(Value::from(3))] {
            for b in [None, Some(Value::from(2)), Some(Value::from(9))] {
                assert_matches_reference(&db, ov, "R", &[a.clone(), b], label);
            }
        }
    };
    let mut ov = Overlay::new();
    // A delete cancelled by an insert: (1, 2) is back, (1, 3) stays gone.
    for op in [
        WriteOp::delete("R", t(1, 2)),
        WriteOp::delete("R", t(1, 3)),
        WriteOp::insert("R", t(1, 2)),
    ] {
        assert!(ov.try_apply(&db, &op));
    }
    patterns(&ov, "delete cancelled by insert");
    let rid = db.resolve("R").unwrap();
    let flight_one = [Some(Value::from(1)), None];
    assert_eq!(
        ov.count_up_to_id(&db, rid, &flight_one, 32).unwrap(),
        (2, true)
    );
    // An insert cancelled by a delete, next to one that stays.
    for op in [
        WriteOp::insert("R", t(3, 9)),
        WriteOp::insert("R", t(1, 9)),
        WriteOp::delete("R", t(3, 9)),
    ] {
        assert!(ov.try_apply(&db, &op));
    }
    patterns(&ov, "insert cancelled by delete");
    assert_eq!(
        ov.count_up_to_id(&db, rid, &flight_one, 32).unwrap(),
        (3, true)
    );
    // Rolling everything back leaves the base view.
    ov.rollback(Overlay::new().mark());
    patterns(&ov, "rolled back");
    assert_eq!(
        ov.count_up_to_id(&db, rid, &flight_one, 32).unwrap(),
        (3, true)
    );
}

#[test]
fn stream_is_stable_across_rolled_back_interleaved_mutation() {
    // The search pulls, recurses (mutating the overlay), rolls back, and
    // pulls again. The stream must still produce the reference sequence.
    for case in 0..100u64 {
        let mut rng = Rng(0xFEED_0000 + case);
        let db = random_db(&mut rng);
        let mut ov = random_overlay(&mut rng, &db);
        let relations: Vec<String> = db
            .tables()
            .map(|t| t.schema().relation().to_string())
            .collect();
        let rel = relations[rng.below(relations.len() as u64) as usize].clone();
        let rid = db.resolve(&rel).unwrap();
        let arity = db.table(&rel).unwrap().schema().arity();
        let bound = random_bound(&mut rng, arity);
        let expect = reference(&db, &ov, &rel, &bound);
        let mut stream = ov.stream(&db, rid, &bound).unwrap();
        let mut got = Vec::new();
        while let Some(t) = stream.next(&ov, &bound) {
            got.push(t);
            // Speculative deeper-level work, rolled back before resuming.
            let mark = ov.mark();
            for _ in 0..rng.below(4) {
                let r = &relations[rng.below(relations.len() as u64) as usize];
                let a = db.table(r).unwrap().schema().arity();
                let tuple = random_tuple(&mut rng, a);
                let op = if rng.chance(50) {
                    WriteOp::insert(r.as_str(), tuple)
                } else {
                    WriteOp::delete(r.as_str(), tuple)
                };
                let _ = ov.try_apply(&db, &op);
            }
            ov.rollback(mark);
        }
        assert_eq!(got, expect, "case {case}: interleaved stream diverged");
    }
}
