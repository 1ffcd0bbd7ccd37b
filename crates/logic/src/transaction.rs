//! Resource transactions: `U :-1 B` (§2).
//!
//! A resource transaction consists of a *body* `B` — a conjunction of
//! relational atoms, some marked **optional** (soft preferences) — and an
//! *update portion* `U` — a set of blind single-tuple inserts and deletes
//! (the SQL form's `FOLLOWED BY` block). `CHOOSE 1` is implicit: exactly
//! one grounding of the body is eventually chosen, and the updates are
//! executed under it.

use std::collections::BTreeSet;
use std::fmt;

use qdb_storage::WriteOp;

use crate::atom::Atom;
use crate::term::{Term, Var, VarGen};
use crate::valuation::Valuation;
use crate::{LogicError, Result};

/// Insert or delete.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateKind {
    /// `+R(…)`
    Insert,
    /// `-R(…)`
    Delete,
}

/// One atom of the update portion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UpdateAtom {
    /// Insert or delete.
    pub kind: UpdateKind,
    /// The written atom (variables must be range-restricted).
    pub atom: Atom,
}

impl UpdateAtom {
    /// Build an insert.
    pub fn insert(atom: Atom) -> Self {
        UpdateAtom {
            kind: UpdateKind::Insert,
            atom,
        }
    }

    /// Build a delete.
    pub fn delete(atom: Atom) -> Self {
        UpdateAtom {
            kind: UpdateKind::Delete,
            atom,
        }
    }

    /// Ground into a storage write op under `val`.
    pub fn to_write_op(&self, val: &Valuation) -> Result<WriteOp> {
        let tuple = self.atom.ground(val)?;
        Ok(match self.kind {
            UpdateKind::Insert => WriteOp::insert(&self.atom.relation, tuple),
            UpdateKind::Delete => WriteOp::delete(&self.atom.relation, tuple),
        })
    }
}

impl fmt::Display for UpdateAtom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            UpdateKind::Insert => write!(f, "+{}", self.atom),
            UpdateKind::Delete => write!(f, "-{}", self.atom),
        }
    }
}

/// One atom of the body, possibly optional (rendered with a trailing `?`;
/// the paper underlines optional atoms).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BodyAtom {
    /// The constraint atom.
    pub atom: Atom,
    /// Soft preference rather than hard constraint?
    pub optional: bool,
}

impl BodyAtom {
    /// A hard (non-optional) body atom.
    pub fn required(atom: Atom) -> Self {
        BodyAtom {
            atom,
            optional: false,
        }
    }

    /// An optional body atom.
    pub fn optional(atom: Atom) -> Self {
        BodyAtom {
            atom,
            optional: true,
        }
    }
}

impl fmt::Display for BodyAtom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", self.atom, if self.optional { "?" } else { "" })
    }
}

/// A resource transaction `U :-1 B`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResourceTransaction {
    /// The update portion `U` (blind writes, executed under the chosen
    /// grounding).
    pub updates: Vec<UpdateAtom>,
    /// The body `B` (conjunction of constraint atoms).
    pub body: Vec<BodyAtom>,
}

impl ResourceTransaction {
    /// Build and validate a transaction.
    pub fn new(updates: Vec<UpdateAtom>, body: Vec<BodyAtom>) -> Result<Self> {
        let txn = ResourceTransaction { updates, body };
        txn.validate()?;
        Ok(txn)
    }

    /// Range restriction (§2): every variable of `U` must occur in `B` —
    /// and specifically in a **non-optional** atom, because optional atoms
    /// may go unsatisfied and so cannot bind update variables. And the
    /// transaction must fit a log record: at most
    /// [`qdb_storage::codec::MAX_LOG_COUNT`] update atoms, body atoms and terms
    /// per atom.
    pub fn validate(&self) -> Result<()> {
        let atoms = self.updates.iter().map(|u| &u.atom);
        let atoms = atoms.chain(self.body.iter().map(|b| &b.atom));
        let widest = atoms.map(|a| a.terms.len()).max().unwrap_or(0);
        for (what, count) in [
            ("update atoms", self.updates.len()),
            ("body atoms", self.body.len()),
            ("terms in one atom", widest),
        ] {
            if count > qdb_storage::codec::MAX_LOG_COUNT {
                return Err(LogicError::TooLarge { what, count });
            }
        }
        let required: BTreeSet<&Var> = self
            .body
            .iter()
            .filter(|b| !b.optional)
            .flat_map(|b| b.atom.vars())
            .collect();
        for u in &self.updates {
            for v in u.atom.vars() {
                if !required.contains(v) {
                    return Err(LogicError::RangeRestriction {
                        var: v.name().to_string(),
                    });
                }
            }
        }
        Ok(())
    }

    /// Non-optional body atoms.
    pub fn required_body(&self) -> impl Iterator<Item = &BodyAtom> + '_ {
        self.body.iter().filter(|b| !b.optional)
    }

    /// Optional body atoms.
    pub fn optional_body(&self) -> impl Iterator<Item = &BodyAtom> + '_ {
        self.body.iter().filter(|b| b.optional)
    }

    /// All distinct variables, in first-occurrence order (body first, which
    /// by range restriction covers the updates too).
    pub fn vars(&self) -> Vec<Var> {
        let mut seen = BTreeSet::new();
        let mut out = Vec::new();
        let atoms = self
            .body
            .iter()
            .map(|b| &b.atom)
            .chain(self.updates.iter().map(|u| &u.atom));
        for atom in atoms {
            for v in atom.vars() {
                if seen.insert(v.clone()) {
                    out.push(v.clone());
                }
            }
        }
        out
    }

    /// Rename all variables apart using `gen`, preserving display names.
    /// Composition (Lemma 3.4) assumes transactions share no variables;
    /// the engine freshens every admitted transaction through its own
    /// generator.
    ///
    /// Renaming uses a direct old-id → new-var map (not a resolving
    /// [`crate::Substitution`]) so that overlapping old/new id ranges cannot
    /// cause capture.
    pub fn freshen(&self, gen: &mut VarGen) -> ResourceTransaction {
        let map: std::collections::BTreeMap<u32, Var> = self
            .vars()
            .into_iter()
            .map(|v| (v.id(), gen.fresh(v.name())))
            .collect();
        let rename = |atom: &Atom| -> Atom {
            Atom {
                relation: atom.relation.clone(),
                terms: (atom.terms.iter())
                    .map(|t| match t {
                        Term::Var(v) => Term::Var(map[&v.id()].clone()),
                        Term::Const(c) => Term::Const(c.clone()),
                    })
                    .collect(),
            }
        };
        ResourceTransaction {
            updates: self
                .updates
                .iter()
                .map(|u| UpdateAtom {
                    kind: u.kind,
                    atom: rename(&u.atom),
                })
                .collect(),
            body: self
                .body
                .iter()
                .map(|b| BodyAtom {
                    atom: rename(&b.atom),
                    optional: b.optional,
                })
                .collect(),
        }
    }

    /// Ground the update portion into storage write ops under `val`.
    pub fn write_ops(&self, val: &Valuation) -> Result<Vec<WriteOp>> {
        self.updates.iter().map(|u| u.to_write_op(val)).collect()
    }

    /// Inserts of the update portion.
    pub fn inserts(&self) -> impl Iterator<Item = &UpdateAtom> + '_ {
        self.updates.iter().filter(|u| u.kind == UpdateKind::Insert)
    }
}

impl fmt::Display for ResourceTransaction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, u) in self.updates.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{u}")?;
        }
        write!(f, " :-1 ")?;
        for (i, b) in self.body.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{b}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdb_storage::Value;

    /// Mickey's running-example transaction:
    /// `-A(f1, s1), +B('M', f1, s1) :-1 A(f1, s1), B('G', f1, s2)?, Adj(s1, s2)?`
    fn mickey(gen: &mut VarGen) -> ResourceTransaction {
        let f1 = gen.fresh("f1");
        let s1 = gen.fresh("s1");
        let s2 = gen.fresh("s2");
        let a = Atom::new("A", vec![Term::Var(f1.clone()), Term::Var(s1.clone())]);
        let b_g = Atom::new(
            "B",
            vec![Term::val("G"), Term::Var(f1.clone()), Term::Var(s2.clone())],
        );
        let adj = Atom::new("Adj", vec![Term::Var(s1.clone()), Term::Var(s2)]);
        let b_m = Atom::new("B", vec![Term::val("M"), Term::Var(f1), Term::Var(s1)]);
        ResourceTransaction::new(
            vec![UpdateAtom::delete(a.clone()), UpdateAtom::insert(b_m)],
            vec![
                BodyAtom::required(a),
                BodyAtom::optional(b_g),
                BodyAtom::optional(adj),
            ],
        )
        .unwrap()
    }

    #[test]
    fn display_round_trips_notation() {
        let mut g = VarGen::new();
        let t = mickey(&mut g);
        assert_eq!(
            t.to_string(),
            "-A(f1, s1), +B('M', f1, s1) :-1 A(f1, s1), B('G', f1, s2)?, Adj(s1, s2)?"
        );
    }

    #[test]
    fn range_restriction_enforced() {
        let mut g = VarGen::new();
        let x = g.fresh("x");
        let y = g.fresh("y");
        // +B(y) with body A(x): y unbound.
        let bad = ResourceTransaction::new(
            vec![UpdateAtom::insert(Atom::new(
                "B",
                vec![Term::Var(y.clone())],
            ))],
            vec![BodyAtom::required(Atom::new(
                "A",
                vec![Term::Var(x.clone())],
            ))],
        );
        assert!(matches!(bad, Err(LogicError::RangeRestriction { .. })));
        // Update var appearing only in an *optional* atom is also rejected.
        let bad2 = ResourceTransaction::new(
            vec![UpdateAtom::insert(Atom::new(
                "B",
                vec![Term::Var(y.clone())],
            ))],
            vec![
                BodyAtom::required(Atom::new("A", vec![Term::Var(x)])),
                BodyAtom::optional(Atom::new("A", vec![Term::Var(y)])),
            ],
        );
        assert!(matches!(bad2, Err(LogicError::RangeRestriction { .. })));
    }

    #[test]
    fn vars_in_first_occurrence_order() {
        let mut g = VarGen::new();
        let t = mickey(&mut g);
        let vars = t.vars();
        let names: Vec<&str> = vars.iter().map(|v| v.name()).collect();
        assert_eq!(names, vec!["f1", "s1", "s2"]);
    }

    #[test]
    fn freshen_renames_apart_but_preserves_structure() {
        let mut g = VarGen::new();
        let t = mickey(&mut g);
        let mut engine_gen = VarGen::starting_at(100);
        let fresh = t.freshen(&mut engine_gen);
        assert_eq!(fresh.to_string(), t.to_string()); // names preserved
        let old: BTreeSet<u32> = t.vars().iter().map(Var::id).collect();
        let new: BTreeSet<u32> = fresh.vars().iter().map(Var::id).collect();
        assert!(old.is_disjoint(&new));
        assert!(new.iter().all(|&id| id >= 100));
        fresh.validate().unwrap();
    }

    #[test]
    fn write_ops_ground_updates() {
        let mut g = VarGen::new();
        let t = mickey(&mut g);
        let vars = t.vars();
        let val: Valuation = [
            (vars[0].clone(), Value::from(123)),
            (vars[1].clone(), Value::from("5A")),
        ]
        .into_iter()
        .collect();
        let ops = t.write_ops(&val).unwrap();
        assert_eq!(ops.len(), 2);
        assert_eq!(ops[0].to_string(), "-A(123, '5A')");
        assert_eq!(ops[1].to_string(), "+B('M', 123, '5A')");
        assert_eq!(t.inserts().count(), 1);
    }

    #[test]
    fn write_ops_need_full_grounding() {
        let mut g = VarGen::new();
        let t = mickey(&mut g);
        assert!(t.write_ops(&Valuation::new()).is_err());
    }
}
