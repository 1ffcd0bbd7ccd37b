//! Property tests for the workload layer over randomized arrival orders,
//! flight sizes and `k`: conservation laws of the quantum runner and its
//! coordination statistics, and the paper's headline claim — the quantum
//! database never coordinates worse than the intelligent-social baseline;
//! and the mgu laws of Definition 3.2 (`qdb_workload::unify`), with the
//! engine's conservative overlap test held to them.
//!
//! The `proptest` crate is not vendored in this offline workspace, so the
//! cases are driven by the crate's own seeded generator (failures print
//! the case seed).

use qdb_logic::{Atom, Term, Var};
use qdb_workload::rng::StdRng;
use qdb_workload::unify::{mgu, unifiable};
use qdb_workload::{run_is, run_quantum, ArrivalOrder, FlightsConfig, RunConfig};

const CASES: u64 = 24;

fn random_order(rng: &mut StdRng) -> ArrivalOrder {
    match rng.gen_range(0..4) {
        0 => ArrivalOrder::Alternate,
        1 => ArrivalOrder::InOrder,
        2 => ArrivalOrder::ReverseOrder,
        _ => ArrivalOrder::Random {
            seed: rng.next_u64(),
        },
    }
}

/// With capacity for everyone, a quantum run seats every user exactly
/// once and never aborts, whatever the order and `k`; coordination counts
/// whole pairs, never exceeds the seated users or the theoretical
/// maximum, and that maximum respects both the pair count and the row
/// capacity.
#[test]
fn quantum_run_conserves_seats() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x3010_0000 ^ case);
        let rows = rng.gen_range(2..5);
        let flights = FlightsConfig {
            flights: 2,
            rows_per_flight: rows,
        };
        // Anywhere from one pair to capacity (3·rows seats per flight).
        let pairs_per_flight = rng.gen_range(1..rows * 3 / 2 + 1);
        let (order, k) = (random_order(&mut rng), rng.gen_range(2..62));
        let cfg = RunConfig::resource_only(flights, pairs_per_flight, order, k);
        let res = run_quantum(&cfg);
        let ctx = format!("case {case}: {order:?}, rows {rows}, pairs {pairs_per_flight}, k {k}");
        assert_eq!(res.aborted, 0, "{ctx}");
        assert_eq!(res.coord.seated_users, res.coord.total_users, "{ctx}");
        assert_eq!(res.coord.coordinated_users % 2, 0, "{ctx}");
        assert!(
            res.coord.coordinated_users <= res.coord.seated_users,
            "{ctx}"
        );
        assert!(
            res.coord.coordinated_users <= res.coord.max_possible,
            "{ctx}"
        );
        assert_eq!(
            res.coord.max_possible,
            (2 * pairs_per_flight).min(2 * rows) * 2,
            "{ctx}"
        );
        // One cumulative-time entry per operation, monotone.
        assert_eq!(res.cumulative_micros.len(), cfg.n_transactions(), "{ctx}");
        assert!(
            res.cumulative_micros.windows(2).all(|w| w[0] <= w[1]),
            "{ctx}"
        );
    }
}

/// The paper's headline claim: on the same workload the quantum database
/// never coordinates worse than IS, and with a full-size `k` it reaches
/// the maximum under every arrival order.
#[test]
fn quantum_dominates_is() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x3020_0000 ^ case);
        let rows = rng.gen_range(2..5);
        let flights = FlightsConfig {
            flights: 1,
            rows_per_flight: rows,
        };
        let order = random_order(&mut rng);
        let cfg = RunConfig::resource_only(flights, rows * 3 / 2, order, 61);
        let (q, is) = (run_quantum(&cfg), run_is(&cfg));
        assert!(
            q.coordination_percent() + 1e-9 >= is.coordination_percent(),
            "case {case}: quantum {:.1} < IS {:.1} under {order:?}, rows {rows}",
            q.coordination_percent(),
            is.coordination_percent()
        );
        assert!(
            (q.coordination_percent() - 100.0).abs() < 1e-9,
            "case {case}: quantum {:.1} under {order:?}, rows {rows}",
            q.coordination_percent()
        );
    }
}

/// A term over a small pool: variables x0..x3, integers 0..3, 'a' / 'b'.
fn random_term(rng: &mut StdRng) -> Term {
    match rng.gen_range(0..3) {
        0 => {
            let id = rng.gen_range(0..4) as u32;
            Term::Var(Var::new(id, format!("x{id}")))
        }
        1 => Term::val(rng.gen_range(0..4) as i64),
        _ => Term::val(["a", "b"][rng.gen_range(0..2)]),
    }
}

fn random_atom(rng: &mut StdRng, relation: &str, arity: usize) -> Atom {
    Atom::new(relation, (0..arity).map(|_| random_term(rng)).collect())
}

/// mgu soundness (θ(a) = θ(b)), idempotence (θ(θ(a)) = θ(a)) and symmetry
/// in existence, over atoms that share a relation and arity half the time.
/// The engine's [`Atom::may_overlap`] is conservative: atoms that unify
/// always overlap (what partitioning relies on), but it ignores repeated
/// variables, so some pairs overlap without a unifier.
#[test]
fn mgu_is_a_symmetric_idempotent_unifier() {
    const CASES: u64 = 2000;
    let (mut unified, mut overlap_only) = (0, 0);
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x3200_0000 ^ case);
        let (ra, rb) = (
            ["A", "B"][rng.gen_range(0..2)],
            ["A", "B"][rng.gen_range(0..2)],
        );
        let arity = 1 + rng.gen_range(0..3);
        let other = if rng.gen_range(0..4) == 0 {
            1 + rng.gen_range(0..3)
        } else {
            arity
        };
        let a = random_atom(&mut rng, ra, arity);
        let b = random_atom(&mut rng, rb, other);
        let theta = mgu(&a, &b);
        assert_eq!(
            theta.is_some(),
            mgu(&b, &a).is_some(),
            "case {case}: mgu({a}, {b}) exists one way round only"
        );
        assert!(
            !unifiable(&a, &b) || a.may_overlap(&b),
            "case {case}: {a} and {b} unify but do not overlap"
        );
        if let Some(theta) = theta {
            unified += 1;
            let once = a.apply(&theta);
            assert_eq!(once, b.apply(&theta), "case {case}: {theta} on {a} / {b}");
            assert_eq!(once.apply(&theta), once, "case {case}: {theta} on {a}");
        } else if a.may_overlap(&b) {
            let vars = a.terms.iter().chain(&b.terms).filter(|t| t.is_var());
            let distinct: std::collections::BTreeSet<&Term> = vars.clone().collect();
            assert!(
                vars.count() > distinct.len(),
                "case {case}: {a} / {b} overlap without a unifier and no repeated variable"
            );
            overlap_only += 1;
        }
    }
    assert!(unified > CASES / 10, "only {unified} cases unified");
    assert!(
        overlap_only > 0,
        "no repeated-variable case overlapped without a unifier"
    );
}
