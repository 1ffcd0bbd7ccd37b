//! Unification predicates (Definition 3.3), the building blocks of
//! [`crate::formula`]'s composed bodies.
//!
//! `ϕ(b1, b2)` is the conjunction of equality constraints of the mgu of
//! `b1` and `b2`: trivially false when no mgu exists, trivially true when
//! the mgu is empty.

use std::fmt;

use qdb_logic::{mgu, Atom, LogicError, Result, Term, Valuation};

/// A single equality constraint between two terms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EqConstraint {
    /// Left-hand side.
    pub lhs: Term,
    /// Right-hand side.
    pub rhs: Term,
}

impl EqConstraint {
    /// Evaluate under a (total, for the involved variables) valuation.
    pub fn eval(&self, val: &Valuation) -> Result<bool> {
        let l = val.resolve(&self.lhs).ok_or_else(|| unbound(&self.lhs))?;
        let r = val.resolve(&self.rhs).ok_or_else(|| unbound(&self.rhs))?;
        Ok(l == r)
    }
}

fn unbound(t: &Term) -> LogicError {
    LogicError::UnboundVariable {
        var: t
            .as_var()
            .map_or_else(|| "?".to_string(), |v| v.name().to_string()),
    }
}

impl fmt::Display for EqConstraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({} = {})", self.lhs, self.rhs)
    }
}

/// A unification predicate (Definition 3.3): `False`, or a conjunction of
/// equality constraints (empty conjunction = `True`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UnifPredicate {
    /// The atoms do not unify at all.
    False,
    /// Conjunction of equalities (empty = trivially true).
    Conj(Vec<EqConstraint>),
}

impl UnifPredicate {
    /// Compute `ϕ(a, b)` per Definition 3.3.
    ///
    /// Constraints are emitted in variable-id order of the mgu's bindings,
    /// which makes the rendering deterministic.
    pub fn of(a: &Atom, b: &Atom) -> UnifPredicate {
        match mgu(a, b) {
            None => UnifPredicate::False,
            Some(theta) => UnifPredicate::Conj(
                theta
                    .iter()
                    .map(|(v, t)| EqConstraint {
                        lhs: Term::Var(v.clone()),
                        rhs: t.clone(),
                    })
                    .collect(),
            ),
        }
    }

    /// Is this trivially true (empty conjunction)?
    pub fn is_trivially_true(&self) -> bool {
        matches!(self, UnifPredicate::Conj(c) if c.is_empty())
    }

    /// Is this trivially false (no mgu)?
    pub fn is_trivially_false(&self) -> bool {
        matches!(self, UnifPredicate::False)
    }

    /// Evaluate under a valuation; errors on unbound variables. The
    /// constraints are checked in order, so a false one decides the
    /// predicate before a later unbound variable is looked at.
    pub fn eval(&self, val: &Valuation) -> Result<bool> {
        match self {
            UnifPredicate::False => Ok(false),
            UnifPredicate::Conj(cs) => {
                for c in cs {
                    if !c.eval(val)? {
                        return Ok(false);
                    }
                }
                Ok(true)
            }
        }
    }
}

impl fmt::Display for UnifPredicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnifPredicate::False => write!(f, "false"),
            UnifPredicate::Conj(cs) if cs.is_empty() => write!(f, "true"),
            UnifPredicate::Conj(cs) => {
                write!(f, "{{")?;
                for (i, c) in cs.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ∧ ")?;
                    }
                    write!(f, "{c}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdb_logic::VarGen;
    use qdb_storage::Value;

    /// The Definition 3.3 worked example: R(1, v1, v2) vs R(v3, 2, v4)
    /// gives ϕ = (v1 = 2) ∧ (v2 = v4) ∧ (v3 = 1).
    #[test]
    fn paper_example_predicate() {
        let mut g = VarGen::new();
        let v1 = g.fresh("v1");
        let v2 = g.fresh("v2");
        let v3 = g.fresh("v3");
        let v4 = g.fresh("v4");
        let a = Atom::new(
            "R",
            vec![Term::val(1), Term::Var(v1.clone()), Term::Var(v2.clone())],
        );
        let b = Atom::new(
            "R",
            vec![Term::Var(v3.clone()), Term::val(2), Term::Var(v4.clone())],
        );
        let phi = UnifPredicate::of(&a, &b);
        assert_eq!(phi.to_string(), "{(v1 = 2) ∧ (v2 = v4) ∧ (v3 = 1)}");
        // Satisfied by v1=2, v2=v4=anything-equal, v3=1.
        let val: Valuation = [
            (v1, Value::from(2)),
            (v2, Value::from(9)),
            (v3, Value::from(1)),
            (v4, Value::from(9)),
        ]
        .into_iter()
        .collect();
        assert!(phi.eval(&val).unwrap());
    }

    #[test]
    fn no_mgu_is_trivially_false() {
        let a = Atom::new("A", vec![Term::val(1)]);
        let b = Atom::new("A", vec![Term::val(2)]);
        let phi = UnifPredicate::of(&a, &b);
        assert!(phi.is_trivially_false());
        assert_eq!(phi.to_string(), "false");
        assert!(!phi.eval(&Valuation::new()).unwrap());
    }

    #[test]
    fn empty_mgu_is_trivially_true() {
        let a = Atom::new("A", vec![Term::val(1)]);
        let phi = UnifPredicate::of(&a, &a.clone());
        assert!(phi.is_trivially_true());
        assert_eq!(phi.to_string(), "true");
        assert!(phi.eval(&Valuation::new()).unwrap());
    }

    #[test]
    fn eval_errors_on_unbound() {
        let mut g = VarGen::new();
        let x = g.fresh("x");
        let a = Atom::new("A", vec![Term::Var(x.clone())]);
        let b = Atom::new("A", vec![Term::val(1)]);
        let phi = UnifPredicate::of(&a, &b);
        assert!(phi.eval(&Valuation::new()).is_err());
        let val: Valuation = [(x, Value::from(1))].into_iter().collect();
        assert!(phi.eval(&val).unwrap());
    }

    #[test]
    fn partial_eval_short_circuits_on_false() {
        let mut g = VarGen::new();
        let x = g.fresh("x");
        let y = g.fresh("y");
        let a = Atom::new("A", vec![Term::Var(x.clone()), Term::Var(y.clone())]);
        let b = Atom::new("A", vec![Term::val(1), Term::val(2)]);
        let phi = UnifPredicate::of(&a, &b);
        assert_eq!(phi.to_string(), "{(x = 1) ∧ (y = 2)}");
        // x bound wrongly decides the whole predicate even though y unbound.
        let val: Valuation = [(x.clone(), Value::from(9))].into_iter().collect();
        assert!(!phi.eval(&val).unwrap());
        // x bound rightly leaves the decision to y, which is unbound.
        let val: Valuation = [(x, Value::from(1))].into_iter().collect();
        assert!(phi.eval(&val).is_err());
    }
}
