//! Property test: `Overlay::retract_id` takes an applied update back out
//! exactly, within its contract.
//!
//! The engine keeps one overlay per partition alive across groundings: the
//! grounded group's updates are retracted instead of the overlay being
//! rebuilt from the survivors. The contract is narrow on purpose — exact
//! only for an update whose tuple no other applied update touches, `false`
//! when the delta is not there — and the caller (the untouched-residue
//! check in `qdb-core`) establishes the first half. So, over random
//! histories of `apply_id` / `retract_id` on a small tuple domain:
//!
//! * retracting an update that is alone on its tuple reports whether the
//!   update had an effect (a delete of an absent tuple had none), and the
//!   deltas then equal a fresh rebuild from the surviving updates;
//! * retracting either half of a cancelled pair (insert after delete of a
//!   base tuple, delete after insert of an absent one) reports `false` and
//!   changes nothing.
//!
//! Seeded splitmix64 loop, as in `candidate_stream.rs`; a failure prints
//! the case and the history.

use qdb_solver::Overlay;
use qdb_storage::{tuple, Database, RelationId, Schema, Tuple, ValueType};

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

/// One applied update: insert (`true`) or delete of a tuple.
type Op = (bool, Tuple);

fn rebuild(db: &Database, rid: RelationId, live: &[Op]) -> Overlay {
    let mut ov = Overlay::new();
    for (insert, t) in live {
        assert!(ov.try_apply_id(db, rid, *insert, t), "survivors re-apply");
    }
    ov
}

#[test]
fn retract_is_exact_for_private_tuples_and_refuses_cancelled_deltas() {
    // (effective, no-op delete, insert-after-delete, delete-after-insert)
    let mut seen = [0usize; 4];
    for case in 0..300u64 {
        let mut rng = Rng(0x2E7A_0000 + case);
        let mut db = Database::new();
        db.create_table(Schema::new(
            "R",
            vec![("a", ValueType::Int), ("b", ValueType::Int)],
        ))
        .unwrap();
        for _ in 0..rng.below(6) {
            let _ = db.insert("R", tuple![rng.below(3) as i64, rng.below(3) as i64]);
        }
        let rid = db.resolve("R").unwrap();
        let mut ov = Overlay::new();
        let mut live: Vec<Op> = Vec::new();
        for step in 0..40 {
            let label = format!("case {case} step {step}: {live:?}");
            if live.is_empty() || rng.below(100) < 60 {
                let op = (
                    rng.below(2) == 0,
                    tuple![rng.below(3) as i64, rng.below(3) as i64],
                );
                if ov.try_apply_id(&db, rid, op.0, &op.1) {
                    live.push(op);
                }
            } else {
                let at = rng.below(live.len() as u64) as usize;
                let (insert, t) = live[at].clone();
                let in_base = db.contains("R", &t);
                let on_tuple: Vec<bool> = (live.iter())
                    .filter(|(_, u)| *u == t)
                    .map(|(i, _)| *i)
                    .collect();
                match on_tuple[..] {
                    [_] => {
                        // Alone on its tuple: an accepted insert always
                        // added a delta; a delete did iff the base has it.
                        let effective = insert || in_base;
                        assert_eq!(ov.retract_id(rid, insert, &t), effective, "{label}");
                        live.remove(at);
                        seen[usize::from(!effective)] += 1;
                    }
                    [false, true] if in_base => {
                        assert!(!ov.retract_id(rid, insert, &t), "{label}");
                        seen[2] += 1;
                    }
                    [true, false] if !in_base => {
                        assert!(!ov.retract_id(rid, insert, &t), "{label}");
                        seen[3] += 1;
                    }
                    // Anything else shares the tuple: outside the contract.
                    _ => continue,
                }
            }
            assert!(ov == rebuild(&db, rid, &live), "{label}");
        }
    }
    assert!(
        seen.iter().all(|&n| n >= 50),
        "every shape must be exercised: {seen:?}"
    );
}

#[test]
fn deltas_of_replays_deletes_before_inserts() {
    let mut db = Database::new();
    db.create_table(Schema::new("R", vec![("a", ValueType::Int)]))
        .unwrap();
    db.create_table(Schema::new("S", vec![("a", ValueType::Int)]))
        .unwrap();
    db.insert("R", tuple![1]).unwrap();
    let (r, s) = (db.resolve("R").unwrap(), db.resolve("S").unwrap());
    let mut ov = Overlay::new();
    assert!(ov.try_apply_id(&db, r, true, &tuple![0]));
    assert!(ov.try_apply_id(&db, r, false, &tuple![1]));
    let got: Vec<(bool, Tuple)> = ov.deltas_of(r).map(|(i, t)| (i, t.clone())).collect();
    assert_eq!(got, vec![(false, tuple![1]), (true, tuple![0])]);
    assert_eq!(ov.deltas_of(s).count(), 0);
}
