//! Substitutions: maps from variables to terms.
//!
//! Used in triangle form: a binding may map a variable to another variable
//! that is itself bound. [`Substitution::resolve`] walks chains to a fixed
//! point. With flat terms (no function symbols) there is no occurs-check to
//! worry about; cycles cannot arise because [`Substitution::bind`] never
//! binds a variable that already resolves to something else.

use std::collections::BTreeMap;

use crate::term::{Term, Var};

/// A substitution `θ`: finite map from variables to terms.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Substitution {
    map: BTreeMap<Var, Term>,
}

impl Substitution {
    /// The empty (identity) substitution.
    pub fn new() -> Self {
        Substitution::default()
    }

    /// Number of bindings.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True for the identity substitution.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterate over raw bindings in variable order.
    pub fn iter(&self) -> impl Iterator<Item = (&Var, &Term)> + '_ {
        self.map.iter()
    }

    /// Walk `t` through the substitution until it no longer changes.
    pub fn resolve(&self, t: &Term) -> Term {
        let mut current = t.clone();
        // Chains are short (bounded by #bindings); guard anyway.
        for _ in 0..=self.map.len() {
            match &current {
                Term::Var(v) => match self.map.get(v) {
                    Some(next) => current = next.clone(),
                    None => return current,
                },
                Term::Const(_) => return current,
            }
        }
        current
    }

    /// Bind `v` to `t`. Both sides are resolved first; binding a variable
    /// to itself is a no-op. Returns `false` if `v` already resolves to a
    /// *different constant* than `t` (callers treat that as unification
    /// failure).
    pub fn bind(&mut self, v: &Var, t: &Term) -> bool {
        let lhs = self.resolve(&Term::Var(v.clone()));
        let rhs = self.resolve(t);
        match (lhs, rhs) {
            (l, r) if l == r => true,
            (Term::Var(lv), r) => {
                self.map.insert(lv, r);
                true
            }
            (l, Term::Var(rv)) => {
                self.map.insert(rv, l);
                true
            }
            (Term::Const(_), Term::Const(_)) => false,
        }
    }
}

impl FromIterator<(Var, Term)> for Substitution {
    fn from_iter<I: IntoIterator<Item = (Var, Term)>>(iter: I) -> Self {
        Substitution {
            map: iter.into_iter().collect(),
        }
    }
}

impl std::fmt::Display for Substitution {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{{")?;
        for (i, (v, t)) in self.map.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}/{t}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::VarGen;

    #[test]
    fn resolve_walks_chains() {
        let mut g = VarGen::new();
        let (a, b) = (g.fresh("a"), g.fresh("b"));
        let mut s = Substitution::new();
        assert!(s.bind(&a, &Term::Var(b.clone())));
        assert!(s.bind(&b, &Term::val(7)));
        assert_eq!(s.resolve(&Term::Var(a)), Term::val(7));
    }

    #[test]
    fn bind_conflicting_constants_fails() {
        let mut g = VarGen::new();
        let a = g.fresh("a");
        let mut s = Substitution::new();
        assert!(s.bind(&a, &Term::val(1)));
        assert!(!s.bind(&a, &Term::val(2)));
        assert!(s.bind(&a, &Term::val(1))); // same constant: fine
    }

    #[test]
    fn bind_var_to_itself_is_noop() {
        let mut g = VarGen::new();
        let a = g.fresh("a");
        let mut s = Substitution::new();
        assert!(s.bind(&a, &Term::Var(a.clone())));
        assert!(s.is_empty());
    }

    #[test]
    fn aliased_vars_share_later_bindings() {
        let mut g = VarGen::new();
        let (a, b) = (g.fresh("a"), g.fresh("b"));
        let mut s = Substitution::new();
        s.bind(&a, &Term::Var(b.clone()));
        s.bind(&a, &Term::val(3)); // binds through the alias
        assert_eq!(s.resolve(&Term::Var(b)), Term::val(3));
    }

    #[test]
    fn display_uses_slash_notation() {
        let mut g = VarGen::new();
        let a = g.fresh("v1");
        let s: Substitution = [(a, Term::val(2))].into_iter().collect();
        assert_eq!(s.to_string(), "{v1/2}");
    }
}
