//! Variables and terms.

use std::fmt;

use qdb_storage::{Str, Value};

/// A logic variable.
///
/// Identity is the numeric `id` alone; the `name` travels with the variable
/// purely for display. Freshening (renaming apart, as required by the
/// composition theorem's "no shared variables" precondition) allocates a new
/// id while keeping the human-readable name.
#[derive(Debug, Clone)]
#[repr(C)] // `id` first, so `Term` fits a `Value` beside `name`'s niche
pub struct Var {
    id: u32,
    name: Str,
}

impl Var {
    /// Build a variable with an explicit id and display name. Most code
    /// should allocate through [`VarGen`] instead.
    pub fn new(id: u32, name: impl AsRef<str>) -> Self {
        Var {
            id,
            name: Str::new(name.as_ref()),
        }
    }

    /// Numeric identity.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Display name (not part of identity).
    pub fn name(&self) -> &str {
        &self.name
    }
}

impl PartialEq for Var {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
    }
}
impl Eq for Var {}

impl PartialOrd for Var {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Var {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.id.cmp(&other.id)
    }
}

impl std::hash::Hash for Var {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.id.hash(state);
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name)
    }
}

/// Allocator of globally fresh variables.
///
/// The engine owns one `VarGen`; every admitted transaction is *freshened*
/// through it so that distinct transactions never share variable ids —
/// the standing assumption of Lemma 3.4 ("T1 and T2 have no shared
/// variables").
#[derive(Debug, Default, Clone)]
pub struct VarGen {
    next: u32,
}

impl VarGen {
    /// A generator starting at id 0.
    pub fn new() -> Self {
        VarGen::default()
    }

    /// A generator starting at a given id (used after recovery).
    pub fn starting_at(next: u32) -> Self {
        VarGen { next }
    }

    /// Allocate a fresh variable with the given display name.
    pub fn fresh(&mut self, name: impl AsRef<str>) -> Var {
        let v = Var::new(self.next, name);
        self.next += 1;
        v
    }

    /// The next id that would be allocated.
    pub fn watermark(&self) -> u32 {
        self.next
    }

    /// Advance the watermark to at least `id + 1` (used when ingesting
    /// transactions with pre-assigned ids, e.g. during recovery).
    pub fn reserve_through(&mut self, id: u32) {
        self.next = self.next.max(id + 1);
    }
}

/// A term: a variable or a constant.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Term {
    /// A logic variable.
    Var(Var),
    /// A constant data value.
    Const(Value),
}

impl Term {
    /// Convenience constructor for constants.
    pub fn val(v: impl Into<Value>) -> Self {
        Term::Const(v.into())
    }

    /// Is this a variable?
    pub fn is_var(&self) -> bool {
        matches!(self, Term::Var(_))
    }

    /// The variable, if this is one.
    pub fn as_var(&self) -> Option<&Var> {
        match self {
            Term::Var(v) => Some(v),
            Term::Const(_) => None,
        }
    }

    /// The constant, if this is one.
    pub fn as_const(&self) -> Option<&Value> {
        match self {
            Term::Const(v) => Some(v),
            Term::Var(_) => None,
        }
    }
}

impl From<Var> for Term {
    fn from(v: Var) -> Self {
        Term::Var(v)
    }
}

impl From<Value> for Term {
    fn from(v: Value) -> Self {
        Term::Const(v)
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(v) => write!(f, "{v}"),
            Term::Const(c) => write!(f, "{c}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn var_identity_is_id_not_name() {
        let a = Var::new(1, "s");
        let b = Var::new(1, "t");
        let c = Var::new(2, "s");
        assert_eq!(a, b);
        assert_ne!(a, c);
        use std::collections::HashSet;
        let set: HashSet<Var> = [a, b, c].into_iter().collect();
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn vargen_allocates_fresh_ids() {
        let mut g = VarGen::new();
        let a = g.fresh("s1");
        let b = g.fresh("s1");
        assert_ne!(a, b);
        assert_eq!(a.name(), b.name());
        assert_eq!(g.watermark(), 2);
        g.reserve_through(10);
        assert_eq!(g.fresh("x").id(), 11);
        g.reserve_through(3); // never goes backwards
        assert_eq!(g.watermark(), 12);
    }

    #[test]
    fn term_accessors() {
        let mut g = VarGen::new();
        let v = Term::from(g.fresh("f"));
        let c = Term::val(5);
        assert!(v.is_var() && !c.is_var());
        assert!(v.as_var().is_some() && v.as_const().is_none());
        assert_eq!(c.as_const(), Some(&Value::from(5)));
        assert_eq!(v.to_string(), "f");
        assert_eq!(c.to_string(), "5");
        assert_eq!(Term::val("LA").to_string(), "'LA'");
    }
}
