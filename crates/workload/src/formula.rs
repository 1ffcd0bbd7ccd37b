//! Composed-body formulas (Definition 3.3, Lemma 3.4 / Theorem 3.5) — the
//! reference model the grounding solver is held to.
//!
//! A sequence of resource transactions is equivalent to one transaction
//! whose body is a formula, not a plain conjunction of atoms. For each
//! body atom `b` of a later transaction and each earlier update,
//!
//! * an **insert** `i` contributes a disjunct — `b` may ground on the
//!   inserted tuple: `(b ∨ ϕ(b, i))`;
//! * a **delete** `d` contributes a negated unification predicate — `b`
//!   must not ground on the deleted tuple: `b ∧ ¬ϕ(b, d)`.
//!
//! `ϕ(b1, b2)`, the unification predicate, is the conjunction of equality
//! constraints of the mgu of `b1` and `b2`: trivially false when no mgu
//! exists, trivially true when the mgu is empty. [`compose_renamed`] emits
//! one disjunction per atom covering *all* earlier inserts
//! (`b ∨ ϕ(b,i₁) ∨ ϕ(b,i₂) ∨ …`), the semantically correct reading of the
//! paper's `∧ᵢⱼ (bᵢ ∨ ϕ(bᵢ, iⱼ))` when several inserts could supply the
//! same atom.
//!
//! The engine never evaluates these formulas: admission runs the
//! sequence search of `qdb-solver`, which this model cross-checks
//! (`crates/solver/tests/proptests.rs`,
//! `solver_agrees_with_the_composed_formula`). The formula has two blind
//! spots the search does not, so the check draws sequences that avoid
//! both:
//!
//! * a delete followed by a *re-insert of the same tuple* is rejected
//!   (`¬ϕ` ranges over all earlier deletes), although executing the
//!   sequence would let a later atom ground on the re-inserted tuple;
//! * the formula constrains bodies only: it says nothing about whether
//!   the updates apply (an insert of a tuple already present), which the
//!   search checks.
//!
//! [`UnifPredicate`] (`predicate.rs`) and [`compose_renamed`]
//! (`compose.rs`) sit in files of their own and are re-exported here, so
//! this module is the model's one path.

use std::fmt;

use qdb_logic::{Atom, Result, Valuation, Var};
use qdb_storage::Database;

pub use crate::compose::compose_renamed;
pub use crate::predicate::{EqConstraint, UnifPredicate};

/// A formula over atoms and unification predicates: positive atoms,
/// equality predicates and their negations, closed under conjunction and
/// disjunction.
#[derive(Debug, Clone, PartialEq)]
pub enum Formula {
    /// Trivially true.
    True,
    /// Trivially false.
    False,
    /// A relational atom that must hold in the extensional database.
    Atom(Atom),
    /// A conjunction of equality constraints.
    Pred(UnifPredicate),
    /// A negated conjunction of equality constraints (`¬ϕ`).
    NotPred(UnifPredicate),
    /// Conjunction.
    And(Vec<Formula>),
    /// Disjunction.
    Or(Vec<Formula>),
}

impl Formula {
    /// Smart conjunction: flattens nested `And`s and simplifies trivia.
    pub fn and(parts: Vec<Formula>) -> Formula {
        let mut out = Vec::with_capacity(parts.len());
        for p in parts {
            match p {
                Formula::True => {}
                Formula::False => return Formula::False,
                Formula::And(inner) => out.extend(inner),
                other => out.push(other),
            }
        }
        match out.len() {
            0 => Formula::True,
            1 => out.pop().expect("len checked"),
            _ => Formula::And(out),
        }
    }

    /// Smart disjunction: flattens nested `Or`s and simplifies trivia.
    pub fn or(parts: Vec<Formula>) -> Formula {
        let mut out = Vec::with_capacity(parts.len());
        for p in parts {
            match p {
                Formula::False => {}
                Formula::True => return Formula::True,
                Formula::Or(inner) => out.extend(inner),
                other => out.push(other),
            }
        }
        match out.len() {
            0 => Formula::False,
            1 => out.pop().expect("len checked"),
            _ => Formula::Or(out),
        }
    }

    /// Lift a unification predicate, simplifying trivial cases.
    pub fn pred(p: UnifPredicate) -> Formula {
        if p.is_trivially_false() {
            Formula::False
        } else if p.is_trivially_true() {
            Formula::True
        } else {
            Formula::Pred(p)
        }
    }

    /// Lift a *negated* unification predicate, simplifying trivial cases.
    pub fn not_pred(p: UnifPredicate) -> Formula {
        if p.is_trivially_false() {
            Formula::True
        } else if p.is_trivially_true() {
            Formula::False
        } else {
            Formula::NotPred(p)
        }
    }

    /// All variables occurring in the formula (with repeats).
    pub fn vars(&self) -> Vec<Var> {
        let mut out = Vec::new();
        self.collect_vars(&mut out);
        out
    }

    fn collect_vars(&self, out: &mut Vec<Var>) {
        match self {
            Formula::True | Formula::False => {}
            Formula::Atom(a) => out.extend(a.vars().cloned()),
            Formula::Pred(p) | Formula::NotPred(p) => {
                if let UnifPredicate::Conj(cs) = p {
                    for c in cs {
                        out.extend(c.lhs.as_var().into_iter().chain(c.rhs.as_var()).cloned());
                    }
                }
            }
            Formula::And(fs) | Formula::Or(fs) => {
                for f in fs {
                    f.collect_vars(out);
                }
            }
        }
    }

    /// Count atoms (the paper's measure of composed-body size, bounded by
    /// MySQL's 61-join limit in the prototype).
    pub fn atom_count(&self) -> usize {
        match self {
            Formula::Atom(_) => 1,
            Formula::And(fs) | Formula::Or(fs) => fs.iter().map(Formula::atom_count).sum(),
            _ => 0,
        }
    }

    /// Evaluate the formula under a total valuation against an extensional
    /// database. The solver's property tests hold every solution it
    /// returns to this semantics, and its refusals to the absence of a
    /// satisfying valuation.
    pub fn eval(&self, val: &Valuation, db: &Database) -> Result<bool> {
        match self {
            Formula::True => Ok(true),
            Formula::False => Ok(false),
            Formula::Atom(a) => {
                let tuple = a.ground(val)?;
                Ok(db.contains(&a.relation, &tuple))
            }
            Formula::Pred(p) => p.eval(val),
            Formula::NotPred(p) => Ok(!p.eval(val)?),
            Formula::And(fs) => {
                for f in fs {
                    if !f.eval(val, db)? {
                        return Ok(false);
                    }
                }
                Ok(true)
            }
            Formula::Or(fs) => {
                for f in fs {
                    if f.eval(val, db)? {
                        return Ok(true);
                    }
                }
                Ok(false)
            }
        }
    }
}

impl fmt::Display for Formula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Formula::True => write!(f, "true"),
            Formula::False => write!(f, "false"),
            Formula::Atom(a) => write!(f, "{a}"),
            Formula::Pred(p) => write!(f, "{p}"),
            Formula::NotPred(p) => write!(f, "¬{p}"),
            Formula::And(fs) => {
                for (i, part) in fs.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ∧ ")?;
                    }
                    write!(f, "{part}")?;
                }
                Ok(())
            }
            Formula::Or(fs) => {
                write!(f, "{{")?;
                for (i, part) in fs.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ∨ ")?;
                    }
                    write!(f, "{part}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdb_logic::{Term, VarGen};
    use qdb_storage::{Schema, Value, ValueType};

    fn db_with_seat() -> Database {
        let mut db = Database::new();
        db.create_table(Schema::new(
            "Available",
            vec![("flight", ValueType::Int), ("seat", ValueType::Str)],
        ))
        .unwrap();
        db.insert("Available", qdb_storage::tuple![1, "1A"])
            .unwrap();
        db
    }

    #[test]
    fn smart_constructors_simplify() {
        let a = Formula::Atom(Atom::new("A", vec![Term::val(1)]));
        assert_eq!(Formula::and(vec![]), Formula::True);
        assert_eq!(Formula::or(vec![]), Formula::False);
        assert_eq!(Formula::and(vec![Formula::True, a.clone()]), a);
        assert_eq!(
            Formula::and(vec![Formula::False, a.clone()]),
            Formula::False
        );
        assert_eq!(Formula::or(vec![Formula::True, a.clone()]), Formula::True);
        assert_eq!(Formula::or(vec![Formula::False, a.clone()]), a);
        // Nested flattening.
        let nested = Formula::and(vec![Formula::And(vec![a.clone(), a.clone()]), a.clone()]);
        assert_eq!(nested, Formula::And(vec![a.clone(), a.clone(), a]));
    }

    #[test]
    fn pred_lifting_respects_trivia() {
        let top = UnifPredicate::Conj(Vec::new());
        assert_eq!(Formula::pred(UnifPredicate::False), Formula::False);
        assert_eq!(Formula::pred(top.clone()), Formula::True);
        assert_eq!(Formula::not_pred(UnifPredicate::False), Formula::True);
        assert_eq!(Formula::not_pred(top), Formula::False);
    }

    #[test]
    fn eval_atom_against_database() {
        let db = db_with_seat();
        let mut g = VarGen::new();
        let s = g.fresh("s");
        let atom = Formula::Atom(Atom::new(
            "Available",
            vec![Term::val(1), Term::Var(s.clone())],
        ));
        let good: Valuation = [(s.clone(), Value::from("1A"))].into_iter().collect();
        let bad: Valuation = [(s, Value::from("9Z"))].into_iter().collect();
        assert!(atom.eval(&good, &db).unwrap());
        assert!(!atom.eval(&bad, &db).unwrap());
    }

    #[test]
    fn eval_connectives() {
        let db = db_with_seat();
        let val = Valuation::new();
        let t = Formula::True;
        let f = Formula::False;
        assert!(Formula::And(vec![t.clone(), t.clone()])
            .eval(&val, &db)
            .unwrap());
        assert!(!Formula::And(vec![t.clone(), f.clone()])
            .eval(&val, &db)
            .unwrap());
        assert!(Formula::Or(vec![f.clone(), t.clone()])
            .eval(&val, &db)
            .unwrap());
        assert!(!Formula::Or(vec![f.clone(), f]).eval(&val, &db).unwrap());
    }

    #[test]
    fn display_uses_braces_for_disjunction() {
        let mut g = VarGen::new();
        let f2 = g.fresh("f2");
        let s2 = g.fresh("s2");
        let a = Formula::Atom(Atom::new(
            "A",
            vec![Term::Var(f2.clone()), Term::Var(s2.clone())],
        ));
        let phi = UnifPredicate::of(
            &Atom::new("A", vec![Term::Var(f2), Term::Var(s2)]),
            &Atom::new("A", vec![Term::val(1), Term::val("1A")]),
        );
        let or = Formula::or(vec![a, Formula::pred(phi)]);
        assert_eq!(or.to_string(), "{A(f2, s2) ∨ {(f2 = 1) ∧ (s2 = '1A')}}");
    }

    #[test]
    fn vars_and_atom_count() {
        let mut g = VarGen::new();
        let x = g.fresh("x");
        let a = Formula::Atom(Atom::new("A", vec![Term::Var(x.clone())]));
        let f = Formula::and(vec![a.clone(), Formula::or(vec![a.clone(), a])]);
        assert_eq!(f.atom_count(), 3);
        assert_eq!(f.vars().len(), 3);
        assert!(f.vars().iter().all(|v| *v == x));
    }
}
