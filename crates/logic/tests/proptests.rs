//! Property tests for the logic substrate: the unification laws of
//! Definitions 3.2 / 3.3 and the transaction printer/parser round-trip,
//! over randomized atoms, valuations and transactions.
//!
//! The `proptest` crate is not vendored in this offline workspace, so the
//! cases are driven by a seeded splitmix64 generator (failures print the
//! case seed).

use qdb_logic::{
    mgu, parse_transaction, Atom, BodyAtom, ResourceTransaction, Term, UnifPredicate, UpdateAtom,
    Valuation, Var, VarGen,
};
use qdb_storage::Value;

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

const CASES: u64 = 2000;

fn var(id: u32) -> Var {
    Var::new(id, format!("x{id}"))
}

/// A term over a small pool: variables x0..x3, integers 0..3, 'a' / 'b'.
fn random_term(rng: &mut Rng) -> Term {
    match rng.below(3) {
        0 => Term::Var(var(rng.below(4) as u32)),
        1 => Term::val(rng.below(4) as i64),
        _ => Term::val(["a", "b"][rng.below(2) as usize]),
    }
}

fn random_atom(rng: &mut Rng, relation: &str, arity: usize) -> Atom {
    Atom::new(relation, (0..arity).map(|_| random_term(rng)).collect())
}

/// mgu soundness (θ(a) = θ(b)), idempotence (θ(θ(a)) = θ(a)) and symmetry
/// in existence, over atoms that share a relation and arity half the time.
#[test]
fn mgu_is_a_symmetric_idempotent_unifier() {
    let mut unified = 0;
    for case in 0..CASES {
        let mut rng = Rng(0x3200_0000 ^ case);
        let (ra, rb) = (
            ["A", "B"][rng.below(2) as usize],
            ["A", "B"][rng.below(2) as usize],
        );
        let arity = 1 + rng.below(3) as usize;
        let other = if rng.below(4) == 0 {
            1 + rng.below(3) as usize
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
        if let Some(theta) = theta {
            unified += 1;
            let once = a.apply(&theta);
            assert_eq!(once, b.apply(&theta), "case {case}: {theta} on {a} / {b}");
            assert_eq!(once.apply(&theta), once, "case {case}: {theta} on {a}");
        }
    }
    assert!(unified > CASES / 10, "only {unified} cases unified");
}

/// Definition 3.3: a total valuation makes two atoms equal iff it
/// satisfies their unification predicate.
#[test]
fn unification_predicate_characterizes_unifiers() {
    let (mut equal_cases, mut unequal_cases) = (0, 0);
    for case in 0..CASES {
        let mut rng = Rng(0x3300_0000 ^ case);
        let arity = 1 + rng.below(3) as usize;
        let a = random_atom(&mut rng, "R", arity);
        let b = random_atom(&mut rng, "R", arity);
        // Integer values only: a variable can then never equal 'a' / 'b',
        // so both outcomes stay common.
        let val: Valuation = (0..4)
            .map(|id| (var(id), Value::from(rng.below(4) as i64)))
            .collect();
        let ground = |atom: &Atom| -> Vec<Value> {
            atom.terms
                .iter()
                .map(|t| val.resolve(t).expect("total valuation"))
                .collect()
        };
        let equal = ground(&a) == ground(&b);
        let phi = UnifPredicate::of(&a, &b);
        assert_eq!(
            phi.eval(&val).expect("total valuation"),
            equal,
            "case {case}: {a} vs {b} under {val}, phi = {phi}"
        );
        if equal {
            equal_cases += 1;
        } else {
            unequal_cases += 1;
        }
    }
    assert!(equal_cases > 20 && unequal_cases > 20);
}

/// Display → parse is the identity on rendered transactions (random body
/// sizes, optional markers and update mixes; updates reuse body variables
/// so every generated transaction is range-restricted).
#[test]
fn display_parse_roundtrip() {
    for case in 0..CASES {
        let mut rng = Rng(0x3500_0000 ^ case);
        let mut g = VarGen::new();
        let vars: Vec<Var> = (0..3).map(|i| g.fresh(format!("v{i}"))).collect();
        let n_body = 1 + rng.below(3) as usize;
        let body: Vec<BodyAtom> = (0..n_body)
            .map(|i| {
                let term = |rng: &mut Rng| match rng.below(4) {
                    0 => Term::val(rng.below(100) as i64),
                    _ => Term::Var(vars[rng.below(3) as usize].clone()),
                };
                BodyAtom {
                    atom: Atom::new(["A", "B"][i % 2], vec![term(&mut rng), term(&mut rng)]),
                    // The first atom stays required: the updates use it.
                    optional: i > 0 && rng.below(2) == 0,
                }
            })
            .collect();
        let first = &body[0].atom;
        let updates: Vec<UpdateAtom> = (0..1 + rng.below(2))
            .map(|i| match i {
                0 => UpdateAtom::delete(first.clone()),
                _ => UpdateAtom::insert(Atom::new("C", first.terms.clone())),
            })
            .collect();
        let t = ResourceTransaction::new(updates, body).expect("range-restricted by construction");
        let text = t.to_string();
        let reparsed =
            parse_transaction(&text).unwrap_or_else(|e| panic!("case {case}: {text}: {e}"));
        assert_eq!(reparsed.to_string(), text, "case {case}");
    }
}
