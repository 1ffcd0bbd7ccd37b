//! Property test for the untouched-residue lemma (`qdb_core::ground`).
//!
//! The engine keeps a partition's cached valuations — and the pending
//! world built from them — across a grounding or a blind write whenever
//! `residue_untouched` says no cached grounding names a touched tuple,
//! *without* re-verifying them. This sweep holds the check against the
//! oracle it replaces: whenever the check says "untouched",
//! `Solver::verify` of the residue on the new state must agree.
//!
//! Cases are random partitions over two written relations and a read-only
//! one (read-only body atoms, constant updates, re-inserts of deleted
//! tuples, deletes of absent ones), with a cached solution from the
//! solver. A *grounding* case moves a random group to the front under
//! freshly chosen valuations and applies its updates to the base; a
//! *blind write* case applies one random effective write. The last
//! assertion proves the sweep is armed: leaving the group's **cached**
//! tuples out of the touched set — the half of the check that is easy to
//! forget — makes the oracle disagree.
//!
//! Seeded splitmix64 loop (no `proptest` in this offline workspace); a
//! failure prints the case.

use qdb_core::ground::residue_untouched;
use qdb_logic::{parse_transaction, ResourceTransaction, Valuation};
use qdb_solver::{Solver, TxnSpec};
use qdb_storage::{tuple, Database, Schema, ValueType, WriteOp};
use qdb_workload::rng::StdRng;

const DOMAIN: usize = 4;

/// `A(k, v)` and `B(v)` are written, `C(v)` is only ever read.
fn random_db(rng: &mut StdRng) -> Database {
    let mut db = Database::new();
    let int = |name| (name, ValueType::Int);
    db.create_table(Schema::new("A", vec![int("k"), int("v")]))
        .unwrap();
    db.create_table(Schema::new("B", vec![int("v")])).unwrap();
    db.create_table(Schema::new("C", vec![int("v")])).unwrap();
    for _ in 0..rng.gen_range(0..8) {
        let _ = db.insert(
            "A",
            tuple![rng.gen_range(0..2) as i64, rng.gen_range(0..DOMAIN) as i64],
        );
    }
    for rel in ["B", "C"] {
        for _ in 0..rng.gen_range(0..4) {
            let _ = db.insert(rel, tuple![rng.gen_range(0..DOMAIN) as i64]);
        }
    }
    db
}

/// One or two body atoms binding `x` (the second may be read-only, bind
/// `y`, or be all constants), then one or two updates over `x`, `y` or
/// constants — moves, re-inserts and deletes of possibly absent tuples.
fn random_txn(rng: &mut StdRng) -> ResourceTransaction {
    let c = rng.gen_range(0..DOMAIN);
    let first = ["A(0, x)", "A(1, x)", "B(x)", "C(x)"][rng.gen_range(0..4)];
    let second = match rng.gen_range(0..5) {
        0 => "C(x)".to_string(),
        1 => "B(y)".to_string(),
        2 => "A(1, y)".to_string(),
        3 => format!("C({c})"),
        _ => String::new(),
    };
    let has_y = second.contains('y');
    let mut updates = Vec::new();
    for _ in 0..1 + rng.gen_range(0..2) {
        let var = if has_y && rng.gen_range(0..2) == 0 {
            "y"
        } else {
            "x"
        };
        let sign = ["-", "+"][rng.gen_range(0..2)];
        updates.push(match rng.gen_range(0..5) {
            0 => format!("{sign}A(0, {var})"),
            1 => format!("{sign}A(1, {var})"),
            2 => format!("{sign}B({var})"),
            3 => format!("-B({c})"),
            _ => format!("{sign}A(1, {c})"),
        });
    }
    let body = match second.is_empty() {
        true => first.to_string(),
        false => format!("{first}, {second}"),
    };
    parse_transaction(&format!("{} :-1 {body}", updates.join(", "))).unwrap()
}

fn specs<'a>(txns: &[&'a ResourceTransaction]) -> Vec<TxnSpec<'a>> {
    txns.iter().map(|t| TxnSpec::required_only(t)).collect()
}

fn ops_of(txns: &[&ResourceTransaction], vals: &[Valuation]) -> Vec<WriteOp> {
    let each = txns.iter().zip(vals).map(|(t, v)| t.write_ops(v).unwrap());
    each.flatten().collect()
}

#[test]
fn untouched_residue_keeps_verifying_on_the_new_state() {
    // [grounding, blind write] × [check accepted, check rejected]
    let mut seen = [[0usize; 2]; 2];
    // Cases only the cached half of the touched set rejects, and where
    // dropping it would have kept a residue the oracle refutes.
    let mut cached_half_mattered = 0usize;
    for case in 0..20_000u64 {
        let mut rng = StdRng::seed_from_u64(0x1E77_A000 + case);
        let mut db = random_db(&mut rng);
        let txns: Vec<ResourceTransaction> = (0..2 + rng.gen_range(0..4))
            .map(|_| random_txn(&mut rng))
            .collect();
        let all: Vec<&ResourceTransaction> = txns.iter().collect();
        let mut solver = Solver::default();
        let Some(cached) = solver.solve(&db, &[], &specs(&all)).unwrap() else {
            continue;
        };
        let cached = cached.valuations;
        let shown: Vec<String> = txns.iter().map(|t| t.to_string()).collect();
        let label = format!("case {case}: {shown:?} under {cached:?}");

        if case % 2 == 0 {
            // Grounding: a group of one or two moves to the front.
            let pick: Vec<bool> = (0..all.len())
                .map(|i| i as u64 == case / 2 % all.len() as u64 || rng.gen_range(0..4) == 0)
                .collect();
            let side = |want: bool| -> (Vec<&ResourceTransaction>, Vec<Valuation>) {
                let kept = (0..all.len()).filter(|&i| pick[i] == want);
                kept.map(|i| (all[i], cached[i].clone())).unzip()
            };
            let ((group, group_cached), (rest, rest_cached)) = (side(true), side(false));
            if rest.is_empty() {
                continue;
            }
            // New valuations for the group on the bare base, under a
            // per-case tie-break seed so they often differ from the cache.
            solver.seed = rng.next_u64();
            let Some(fresh) = solver.solve(&db, &[], &specs(&group)).unwrap() else {
                continue;
            };
            let cached_ops = ops_of(&group, &group_cached);
            let new_ops = ops_of(&group, &fresh.valuations);
            let residue = || rest.iter().copied().zip(&rest_cached);
            let by_new = residue_untouched(residue(), &new_ops);
            let untouched = by_new && residue_untouched(residue(), &cached_ops);
            db.apply_all(&new_ops).unwrap();
            let holds = solver
                .verify(&db, &[], &specs(&rest), &rest_cached)
                .unwrap();
            assert!(
                !untouched || holds,
                "{label}: group {pick:?} -> {new_ops:?}"
            );
            seen[0][usize::from(!untouched)] += 1;
            cached_half_mattered += usize::from(by_new && !holds);
        } else {
            // Blind write: one write that changes the base.
            let t = match rng.gen_range(0..2) {
                0 => (
                    "A",
                    tuple![rng.gen_range(0..2) as i64, rng.gen_range(0..DOMAIN) as i64],
                ),
                _ => ("B", tuple![rng.gen_range(0..DOMAIN) as i64]),
            };
            let op = match db.contains(t.0, &t.1) {
                true => WriteOp::delete(t.0, t.1),
                false => WriteOp::insert(t.0, t.1),
            };
            let pending = all.iter().copied().zip(&cached);
            let untouched = residue_untouched(pending, std::slice::from_ref(&op));
            db.apply(&op).unwrap();
            let holds = solver.verify(&db, &[], &specs(&all), &cached).unwrap();
            assert!(!untouched || holds, "{label}: write {op}");
            seen[1][usize::from(!untouched)] += 1;
        }
    }
    assert!(
        seen.iter().flatten().all(|&n| n >= 200),
        "[grounding, write] x [accepted, rejected] = {seen:?}"
    );
    assert!(
        cached_half_mattered >= 1,
        "no case depended on the group's cached tuples: the sweep cannot \
         tell the lemma's check from one that forgets them"
    );
}
