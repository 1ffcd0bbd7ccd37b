//! Relational atoms.

use std::fmt;

use qdb_storage::{Str, Tuple};

use crate::substitution::Substitution;
use crate::term::{Term, Var};
use crate::valuation::Valuation;
use crate::LogicError;

/// A relational atom: `Relation(t1, …, tn)` over terms.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Atom {
    /// Relation name.
    pub relation: Str,
    /// One term per column.
    pub terms: Vec<Term>,
}

impl Atom {
    /// Build an atom.
    pub fn new(relation: impl AsRef<str>, terms: Vec<Term>) -> Self {
        Atom {
            relation: Str::new(relation.as_ref()),
            terms,
        }
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.terms.len()
    }

    /// Variables occurring in the atom, in positional order (may repeat).
    pub fn vars(&self) -> impl Iterator<Item = &Var> + '_ {
        self.terms.iter().filter_map(Term::as_var)
    }

    /// True when no variables occur.
    pub fn is_ground(&self) -> bool {
        self.terms.iter().all(|t| !t.is_var())
    }

    /// Apply a substitution to every term.
    pub fn apply(&self, s: &Substitution) -> Atom {
        Atom {
            relation: self.relation.clone(),
            terms: self.terms.iter().map(|t| s.resolve(t)).collect(),
        }
    }

    /// Ground the atom into a tuple under `val`. Errors on unbound
    /// variables.
    pub fn ground(&self, val: &Valuation) -> Result<Tuple, LogicError> {
        Tuple::try_from_fn(self.terms.len(), |i| match &self.terms[i] {
            Term::Const(c) => Ok(c.clone()),
            Term::Var(v) => val
                .get(v)
                .cloned()
                .ok_or_else(|| LogicError::UnboundVariable {
                    var: v.name().to_string(),
                }),
        })
    }

    /// Could this atom and `other` ever denote the same tuple? Same
    /// relation, same arity, and no position with two distinct constants.
    /// The conservative dependence test read checks and partitioning use:
    /// atoms that unify (Definition 3.2) always overlap, but repeated
    /// variables are not checked, so `R(x, x)` overlaps `R(1, 2)` although
    /// the two have no unifier.
    pub fn may_overlap(&self, other: &Atom) -> bool {
        self.relation == other.relation
            && self.arity() == other.arity()
            && self
                .terms
                .iter()
                .zip(&other.terms)
                .all(|(a, b)| match (a, b) {
                    (Term::Const(x), Term::Const(y)) => x == y,
                    _ => true,
                })
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.relation)?;
        for (i, t) in self.terms.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::VarGen;
    use qdb_storage::Value;

    fn setup() -> (VarGen, Atom) {
        let mut g = VarGen::new();
        let f = g.fresh("f");
        let s = g.fresh("s");
        let atom = Atom::new("Available", vec![Term::Var(f), Term::Var(s)]);
        (g, atom)
    }

    #[test]
    fn display_matches_datalog() {
        let (_, a) = setup();
        assert_eq!(a.to_string(), "Available(f, s)");
        let g = Atom::new("Bookings", vec![Term::val("Mickey"), Term::val(1)]);
        assert_eq!(g.to_string(), "Bookings('Mickey', 1)");
    }

    #[test]
    fn groundness_and_vars() {
        let (_, a) = setup();
        assert!(!a.is_ground());
        assert_eq!(a.vars().count(), 2);
        let g = Atom::new("B", vec![Term::val(1)]);
        assert!(g.is_ground());
        assert_eq!(g.vars().count(), 0);
    }

    #[test]
    fn ground_requires_total_valuation() {
        let (_, a) = setup();
        let mut val = Valuation::new();
        assert!(a.ground(&val).is_err());
        let vars: Vec<Var> = a.vars().cloned().collect();
        val.bind(vars[0].clone(), Value::from(1));
        val.bind(vars[1].clone(), Value::from("1A"));
        let t = a.ground(&val).unwrap();
        assert_eq!(t.to_string(), "(1, '1A')");
    }

    #[test]
    fn may_overlap_is_conservative() {
        let mut g = VarGen::new();
        let x = Term::Var(g.fresh("x"));
        let a1 = Atom::new("A", vec![Term::val(1), x.clone()]);
        let a2 = Atom::new("A", vec![Term::val(1), Term::val("1A")]);
        let a3 = Atom::new("A", vec![Term::val(2), x.clone()]);
        let b = Atom::new("B", vec![Term::val(1), x.clone()]);
        assert!(a1.may_overlap(&a2));
        assert!(!a1.may_overlap(&a3)); // constants 1 vs 2 clash
        assert!(!a1.may_overlap(&b)); // different relation
        let short = Atom::new("A", vec![Term::val(1)]);
        assert!(!a1.may_overlap(&short)); // different arity
    }
}
