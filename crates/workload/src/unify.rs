//! Most general unifiers (Definition 3.2). Test support: the engine asks
//! the conservative [`Atom::may_overlap`], the solver its `may_unify`.

use qdb_logic::{Atom, Substitution, Term};

/// Compute the most general unifier of two atoms, if any.
///
/// Definition 3.2: a unifier `θ` has `θ(b1) = θ(b2)`; the mgu is the one
/// every other unifier factors through. For flat atoms (variables and
/// constants only) the column-wise binding pass below produces exactly the
/// mgu.
pub fn mgu(a: &Atom, b: &Atom) -> Option<Substitution> {
    if a.relation != b.relation || a.arity() != b.arity() {
        return None;
    }
    let mut subst = Substitution::new();
    for (ta, tb) in a.terms.iter().zip(&b.terms) {
        let ra = subst.resolve(ta);
        let rb = subst.resolve(tb);
        match (&ra, &rb) {
            (Term::Var(v), _) => {
                if !subst.bind(v, &rb) {
                    return None;
                }
            }
            (_, Term::Var(v)) => {
                if !subst.bind(v, &ra) {
                    return None;
                }
            }
            (Term::Const(x), Term::Const(y)) => {
                if x != y {
                    return None;
                }
            }
        }
    }
    Some(subst)
}

/// Do two atoms unify at all?
pub fn unifiable(a: &Atom, b: &Atom) -> bool {
    mgu(a, b).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdb_logic::VarGen;

    /// Build `R(1, v1, v2)` and `R(v3, 2, v4)` — the worked example under
    /// Definition 3.3 in the paper.
    fn paper_example() -> (Atom, Atom, VarGen) {
        let mut g = VarGen::new();
        let v1 = g.fresh("v1");
        let v2 = g.fresh("v2");
        let v3 = g.fresh("v3");
        let v4 = g.fresh("v4");
        let a = Atom::new("R", vec![Term::val(1), Term::Var(v1), Term::Var(v2)]);
        let b = Atom::new("R", vec![Term::Var(v3), Term::val(2), Term::Var(v4)]);
        (a, b, g)
    }

    #[test]
    fn paper_mgu_example() {
        // mgu is {v1/2, v2/v4, v3/1} (up to var-var orientation).
        let (a, b, _) = paper_example();
        let theta = mgu(&a, &b).unwrap();
        assert_eq!(theta.len(), 3);
        assert_eq!(a.apply(&theta), b.apply(&theta));
        assert_eq!(theta.resolve(&a.terms[1]), Term::val(2), "v1 must map to 2");
        assert_eq!(theta.resolve(&b.terms[0]), Term::val(1), "v3 must map to 1");
        assert_eq!(theta.resolve(&a.terms[2]), theta.resolve(&b.terms[2]));
    }

    #[test]
    fn different_relations_or_arities_never_unify() {
        let mut g = VarGen::new();
        let x = Term::Var(g.fresh("x"));
        let a = Atom::new("A", vec![x.clone()]);
        let b = Atom::new("B", vec![x.clone()]);
        assert!(!unifiable(&a, &b));
        let c = Atom::new("A", vec![x.clone(), x.clone()]);
        assert!(!unifiable(&a, &c));
    }

    #[test]
    fn constant_clash_fails() {
        let a = Atom::new("A", vec![Term::val(1)]);
        let b = Atom::new("A", vec![Term::val(2)]);
        assert!(mgu(&a, &b).is_none());
        let c = Atom::new("A", vec![Term::val(1)]);
        assert!(mgu(&a, &c).is_some_and(|s| s.is_empty()));
    }

    #[test]
    fn repeated_vars_propagate_constraints() {
        // A(x, x) vs A(1, y) forces y = 1.
        let mut g = VarGen::new();
        let x = g.fresh("x");
        let y = g.fresh("y");
        let a = Atom::new("A", vec![Term::Var(x.clone()), Term::Var(x.clone())]);
        let b = Atom::new("A", vec![Term::val(1), Term::Var(y.clone())]);
        let theta = mgu(&a, &b).unwrap();
        assert_eq!(theta.resolve(&Term::Var(y)), Term::val(1));
        assert_eq!(theta.resolve(&Term::Var(x)), Term::val(1));
    }

    #[test]
    fn repeated_vars_can_fail_through_propagation() {
        // A(x, x) vs A(1, 2) is not unifiable.
        let mut g = VarGen::new();
        let x = g.fresh("x");
        let a = Atom::new("A", vec![Term::Var(x.clone()), Term::Var(x)]);
        let b = Atom::new("A", vec![Term::val(1), Term::val(2)]);
        assert!(mgu(&a, &b).is_none());
    }

    #[test]
    fn mgu_is_most_general() {
        // For A(x, y) vs A(y', 3): the mgu leaves one degree of freedom.
        let mut g = VarGen::new();
        let x = g.fresh("x");
        let y = g.fresh("y");
        let yp = g.fresh("yp");
        let a = Atom::new("A", vec![Term::Var(x.clone()), Term::Var(y.clone())]);
        let b = Atom::new("A", vec![Term::Var(yp.clone()), Term::val(3)]);
        let theta = mgu(&a, &b).unwrap();
        let ax = theta.resolve(&Term::Var(x));
        assert!(ax.is_var(), "x stays free (aliased), got {ax}");
        assert_eq!(theta.resolve(&Term::Var(y)), Term::val(3));
    }

    #[test]
    fn ground_atoms_unify_iff_equal() {
        let a = Atom::new("A", vec![Term::val(1), Term::val("x")]);
        let b = Atom::new("A", vec![Term::val(1), Term::val("x")]);
        let c = Atom::new("A", vec![Term::val(1), Term::val("y")]);
        assert!(mgu(&a, &b).is_some_and(|s| s.is_empty()));
        assert!(mgu(&a, &c).is_none());
    }
}
