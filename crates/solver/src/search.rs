//! The consistent-grounding search.
//!
//! Given a base database and an ordered sequence of transaction specs, find
//! one valuation per transaction such that, executing the sequence in
//! order, every spec'd body atom grounds on the then-current virtual state
//! and every update applies without violating set semantics. This is the
//! operational reading of Definition 3.1, and (by Theorem 3.5) equivalent
//! to satisfiability of the composed body formula — the equivalence is
//! cross-checked against a brute-force formula oracle by
//! `solver_agrees_with_the_composed_formula` in `tests/proptests.rs`.
//!
//! The inner loop is allocation-free and index-driven. Every solver entry
//! point first **compiles** its specs (`CompiledSpec`): relation names
//! become interned [`RelationId`]s and variables become dense per-spec
//! slots. The search then keeps, per spec, one `Frame` — slot values,
//! the column pattern of every body atom maintained *incrementally* as
//! slots bind and unbind, and an undo trail — so a node allocates nothing:
//! it reads patterns, pulls candidates through the streaming
//! [`crate::CandidateIter`], and orders atoms by counts that are index
//! bucket lengths and point probes (see the overlay's counting contract).
//! A [`Valuation`] is materialised only when a transaction completes.
//!
//! # Lookahead through the group's own inserts
//!
//! In a sequence, a later member `Tj` reads the state the earlier members'
//! updates leave. Take a body atom `B` of `Tj` that only one earlier
//! member's insert `U` (of `Ti`) can satisfy — the §5.1 partner's
//! `Bookings('Mickey', f, s2)` against Mickey's own booking. Then `Tj` can
//! only match `B` with `U`'s tuple, so `B`'s variables take `U`'s values,
//! and `Tj`'s other atoms must have a match under them. The search checks
//! that in `Ti`'s search: once `Ti`'s body is matched, before its updates
//! are applied, `Tj`'s remaining atoms run as a read-only existence query,
//! with `U`'s terms read from `Ti`'s bindings. A candidate whose partner
//! cannot be seated dies on an index probe or two instead of on apply,
//! a full search of `Tj` and rollback. The rule is sound under three
//! conditions:
//!
//! 1. Every tuple that could match `B` when `Tj` runs comes from `U`. No
//!    other member before `Tj` has an insert that may unify with `B` (nor
//!    has `Ti` a second one), no member before `Ti` has a delete that may,
//!    and no tuple matching `B`'s constants is visible when the rule is
//!    derived, at `Ti`'s turn. With the first two, the tuples matching `B`
//!    at `Ti`'s turn are those of the solve's entry state, whatever the
//!    members before `Ti` chose, so the third is a test of the entry state.
//!    `B` must not repeat a variable. A constant of `B` where `U` has a
//!    variable pins that variable, and the check compares it exactly.
//! 2. Each pushed atom is checked on a state holding every tuple `Tj`
//!    could see: no member from `Ti` up to, but not including, `Tj`
//!    inserts into its relation. Their deletes only shrink the state. An
//!    atom that fails this is not pushed; dropping atoms only weakens the
//!    check.
//! 3. The check only filters: it rejects a candidate only when `Tj` would
//!    provably fail whatever the members between choose. It never
//!    reorders, binds nothing the search keeps, and leaves the overlay
//!    untouched. So the search tries the same candidates in the same order
//!    and returns the same valuations; it only skips subtrees that held no
//!    solution.
//!
//! **Arming.** A solve whose first candidates succeed pays nothing: a
//! level's checks are derived only after its first failed descent (its
//! updates applied, the rest of the sequence unsatisfiable), and a
//! single-spec solve has no later member to fail in (collect mode and
//! admission's extension solve never derive anything). The first such
//! failure builds, once, an index of the group's writes by relation and
//! leading constant, and finds every `(Tj, B)` whose only source is one
//! `U` — O(members × atoms). Arming level `i` then tests visibility on its
//! state, applies condition (2), and compiles each check: terms resolved
//! to constants, `Ti`'s slots or check-local slots; atoms ordered once,
//! those with the fewest variables left unbound by `U` and earlier atoms
//! first, ties to the fewest candidates under the failed candidate's
//! values; and a frame the check keeps, so running it allocates nothing.
//! Every candidate a check pulls counts as a node, like the search's own.

use std::ops::Range;

use qdb_logic::{Atom, LogicError, Term, UpdateKind, Valuation, Var};
use qdb_storage::{splitmix64, Database, RelationId, Tuple, Value, WriteOp};

use crate::error::SolverError;
use crate::overlay::Overlay;
use crate::spec::{Solution, TxnSpec};
use crate::stats::SolverStats;
use crate::Result;

/// Which body atom the search branches on next.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AtomOrder {
    /// Dynamically pick the unmatched atom with the fewest candidates —
    /// the default, analogous to a decent join order.
    #[default]
    MostConstrained,
    /// Left-to-right in body order — mimics the fixed join order of the
    /// paper's monolithic LIMIT-1 queries (MySQL's `optimizer_search_depth`
    /// troubles in §5.3 are exactly the cost of getting this ordering
    /// wrong). Only tests select it, as the satisfiability reference the
    /// default ordering must agree with
    /// (`static_and_dynamic_order_agree_on_satisfiability` here,
    /// `solutions_verify_and_replay_and_orderings_agree` in
    /// `tests/proptests.rs`).
    Static,
}

/// Search resource bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchLimits {
    /// Maximum candidate tuples tried across one `solve` call.
    pub max_nodes: u64,
}

impl Default for SearchLimits {
    fn default() -> Self {
        SearchLimits {
            max_nodes: 10_000_000,
        }
    }
}

/// The grounding solver. Holds configuration and cumulative statistics;
/// all search state lives in a per-call context. `'o` is the lifetime of
/// the observability handle the engine lends it for one operation.
#[derive(Debug, Default, Clone)]
pub struct Solver<'o> {
    /// Atom ordering strategy.
    pub order: AtomOrder,
    /// Resource bounds.
    pub limits: SearchLimits,
    /// Tie-break seed for [`AtomOrder::MostConstrained`]: when two
    /// unmatched atoms have the same candidate count, `0` (the default)
    /// keeps the first in body order — bit-identical to the historical
    /// behavior — while any other value breaks the tie by a seeded hash.
    /// Every run is deterministic either way; the seed only *selects*
    /// which deterministic exploration order a run gets, so simulation
    /// sweeps can vary search-order decisions per seed and still replay
    /// any run exactly.
    pub seed: u64,
    stats: SolverStats,
    /// Observability handle: when set, `solve_in`, `verify` and
    /// `enumerate_one` record their wall time as
    /// [`qdb_obs::Phase::Solve`].
    obs: Option<&'o qdb_obs::Obs>,
}

/// Saturating count of the atom orderings: beyond 32 candidates the
/// relative order of atoms no longer changes the search usefully.
const ORDER_CAP: usize = 32;

/// A term compiled against its spec's variable slots.
#[derive(Debug, Clone, Copy)]
enum CTerm<'a> {
    Const(&'a Value),
    Slot(usize),
}

/// An atom with its relation resolved; its terms are the `terms` range of
/// its spec's flat term list.
#[derive(Debug)]
pub(crate) struct CompiledAtom {
    pub(crate) rid: RelationId,
    terms: std::ops::Range<usize>,
    /// For an update atom: insert (`true`) or delete.
    insert: bool,
}

/// One [`TxnSpec`] compiled once per solver entry point — or a read's
/// atoms, as a body-only spec ([`CompiledSpec::body_only`]): relation
/// names resolved, variables mapped to dense slots `0..vars.len()`.
/// Borrows the spec's constants and variables; three vectors in all.
#[derive(Debug)]
pub(crate) struct CompiledSpec<'a> {
    /// The terms of every atom: body atoms first (positions
    /// `0..body_terms`, in atom order), then update atoms.
    terms: Vec<CTerm<'a>>,
    body_terms: usize,
    /// The body atoms to ground ([`TxnSpec::atoms`] order) followed by the
    /// update atoms (update order).
    pub(crate) atoms: Vec<CompiledAtom>,
    body_atoms: usize,
    /// Slot → variable (a [`Valuation`] is keyed by variable).
    pub(crate) vars: Vec<&'a Var>,
}

impl<'a> CompiledSpec<'a> {
    fn compile(base: &Database, spec: &TxnSpec<'a>) -> Result<Self> {
        let txn = spec.txn;
        let mut out = CompiledSpec::with_capacity(txn.body.len() + txn.updates.len());
        for atom in spec.atom_iter() {
            out.push_atom(base.resolve(&atom.relation)?, atom, false);
        }
        (out.body_atoms, out.body_terms) = (out.atoms.len(), out.terms.len());
        for u in &txn.updates {
            let rid = base.resolve(&u.atom.relation)?;
            out.push_atom(rid, &u.atom, u.kind == UpdateKind::Insert);
        }
        Ok(out)
    }

    /// A read's atoms as a spec with a body and no updates. Fails as the
    /// storage layer's evaluator does, at the first atom whose relation is
    /// unknown or whose arity is wrong.
    pub(crate) fn body_only(base: &Database, atoms: &'a [Atom]) -> qdb_storage::Result<Self> {
        let mut out = CompiledSpec::with_capacity(atoms.len());
        for atom in atoms {
            let rid = base.resolve(&atom.relation)?;
            let expected = base.table_by_id(rid).schema().arity();
            if atom.arity() != expected {
                return Err(qdb_storage::StorageError::ArityMismatch {
                    relation: atom.relation.to_string(),
                    expected,
                    got: atom.arity(),
                });
            }
            out.push_atom(rid, atom, false);
        }
        (out.body_atoms, out.body_terms) = (out.atoms.len(), out.terms.len());
        Ok(out)
    }

    fn with_capacity(atoms: usize) -> Self {
        CompiledSpec {
            // Sized for the common two-to-three column atom; grows if not.
            terms: Vec::with_capacity(3 * atoms),
            body_terms: 0,
            atoms: Vec::with_capacity(atoms),
            body_atoms: 0,
            vars: Vec::with_capacity(4),
        }
    }

    /// Compile one atom of relation `rid`, allocating slots for unseen
    /// variables.
    fn push_atom(&mut self, rid: RelationId, atom: &'a Atom, insert: bool) {
        let start = self.terms.len();
        for term in &atom.terms {
            let compiled = match term {
                Term::Const(c) => CTerm::Const(c),
                Term::Var(v) => {
                    let seen = self.vars.iter().position(|w| *w == v);
                    CTerm::Slot(seen.unwrap_or_else(|| {
                        self.vars.push(v);
                        self.vars.len() - 1
                    }))
                }
            };
            self.terms.push(compiled);
        }
        self.atoms.push(CompiledAtom {
            rid,
            terms: start..self.terms.len(),
            insert,
        });
    }

    /// The body atoms to ground.
    fn body(&self) -> &[CompiledAtom] {
        &self.atoms[..self.body_atoms]
    }

    /// The update atoms, in update order.
    fn updates(&self) -> &[CompiledAtom] {
        &self.atoms[self.body_atoms..]
    }

    /// The terms of atom `idx`.
    fn terms_of(&self, idx: usize) -> &[CTerm<'a>] {
        &self.terms[self.atoms[idx].terms.clone()]
    }

    /// Does atom `idx` name one variable twice?
    fn repeats_slot(&self, idx: usize) -> bool {
        let terms = self.terms_of(idx);
        let slot = |t: &CTerm<'_>| match *t {
            CTerm::Slot(s) => Some(s),
            CTerm::Const(_) => None,
        };
        (terms.iter().enumerate())
            .any(|(n, t)| slot(t).is_some_and(|s| terms[..n].iter().any(|e| slot(e) == Some(s))))
    }

    /// The constant leading atom `idx`, if a constant leads it.
    fn lead(&self, idx: usize) -> Option<&'a Value> {
        match self.terms_of(idx).first() {
            Some(CTerm::Const(c)) => Some(c),
            _ => None,
        }
    }

    /// `atom` as a tuple under `value_of`; the error names the first
    /// variable without a value.
    fn ground<'v>(
        &'v self,
        atom: &CompiledAtom,
        value_of: impl Fn(usize) -> Option<&'v Value>,
    ) -> Result<Tuple> {
        let terms = &self.terms[atom.terms.clone()];
        let value = |term: &'v CTerm<'a>| match *term {
            CTerm::Const(c) => Some(c),
            CTerm::Slot(s) => value_of(s),
        };
        if let Some(CTerm::Slot(s)) = terms.iter().find(|term| value(term).is_none()) {
            return Err(SolverError::Logic(LogicError::UnboundVariable {
                var: self.vars[*s].name().to_string(),
            }));
        }
        Ok(terms
            .iter()
            .map(|term| value(term).expect("checked above").clone())
            .collect())
    }
}

fn compile_specs<'a>(base: &Database, specs: &[TxnSpec<'a>]) -> Result<Vec<CompiledSpec<'a>>> {
    specs
        .iter()
        .map(|spec| CompiledSpec::compile(base, spec))
        .collect()
}

/// May two atoms' term lists unify? Only constant-against-constant
/// positions can refute it; repeated variables are not followed, so the
/// answer errs towards "yes" — the safe side for every caller.
fn may_unify(a: &[CTerm<'_>], b: &[CTerm<'_>]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|pair| match pair {
            (CTerm::Const(x), CTerm::Const(y)) => x == y,
            _ => true,
        })
}

/// One update of the group as the lookahead files it: relation, insert
/// (`true`) or delete, leading constant (`None`: a variable leads), member
/// and atom index. Sorted, a list of them is the derivation's index.
type Write<'a> = (RelationId, bool, Option<&'a Value>, usize, usize);

/// The writes of kind `insert` in the sorted `writes` that may unify with
/// atom `b` of `spec`: those of its relation led by its leading constant
/// or by a variable (led by anything, when a variable leads `b`),
/// confirmed position by position.
fn unifying<'w, 'a>(
    writes: &'w [Write<'a>],
    insert: bool,
    specs: &'w [CompiledSpec<'a>],
    spec: &'w CompiledSpec<'a>,
    b: usize,
) -> impl Iterator<Item = &'w Write<'a>> {
    // Sorted by relation, kind, then lead: every bucket is a run.
    let key = (spec.atoms[b].rid, insert);
    let from = writes.partition_point(|w| (w.0, w.1) < key);
    let to = writes.partition_point(|w| (w.0, w.1) <= key);
    let kind = &writes[from..to];
    let led_by = |lead: Option<&Value>| {
        let from = kind.partition_point(|w| w.2 < lead);
        &kind[from..kind.partition_point(|w| w.2 <= lead)]
    };
    let buckets = match spec.lead(b) {
        Some(c) => [led_by(None), led_by(Some(c))],
        None => [kind, &[]],
    };
    let terms = spec.terms_of(b);
    (buckets.into_iter().flatten()).filter(move |w| may_unify(terms, specs[w.3].terms_of(w.4)))
}

/// A term of a lookahead check.
#[derive(Debug, Clone, Copy)]
enum LTerm<'a> {
    Const(&'a Value),
    /// A slot of the member whose search runs the check.
    Outer(usize),
    /// A slot of the check's own frame.
    Local(usize),
}

/// A later member's remaining atoms, checked in an earlier member's
/// search (module docs): compiled once when the level arms, run with a
/// frame it keeps.
#[derive(Debug)]
struct Check<'a> {
    /// Earlier-member slots that constants of `B` pin.
    pins: Vec<(usize, &'a Value)>,
    /// The pushed atoms in evaluation order, each a relation and a range
    /// of `terms`.
    atoms: Vec<(RelationId, Range<usize>)>,
    terms: Vec<LTerm<'a>>,
    /// Local slot values.
    binds: Vec<Option<Value>>,
    /// The column patterns the atoms are streamed with, laid out like
    /// `terms`; constants are filled in once.
    patterns: Vec<Option<Value>>,
    /// Local slots in binding order.
    trail: Vec<usize>,
}

impl<'a> Check<'a> {
    /// Compile the check of body atom `b` of `later` satisfied by insert
    /// `u` of `earlier`, pushing the `pushed` body atoms of `later`.
    /// `estimate` counts an atom's candidates under a pattern of its
    /// constants and the values `outer`, `earlier`'s slots, hold now.
    fn compile(
        (earlier, u): (&CompiledSpec<'a>, usize),
        (later, b): (&CompiledSpec<'a>, usize),
        mut pushed: Vec<usize>,
        outer: &[Option<Value>],
        mut estimate: impl FnMut(RelationId, &[Option<Value>]) -> Result<usize>,
    ) -> Result<Self> {
        // Unify B with U: B's variables take U's terms.
        let mut slots: Vec<Option<LTerm<'a>>> = vec![None; later.vars.len()];
        let mut pins = Vec::new();
        for (bt, ut) in later.terms_of(b).iter().zip(earlier.terms_of(u)) {
            match (*bt, *ut) {
                (CTerm::Const(c), CTerm::Slot(t)) => pins.push((t, c)),
                (CTerm::Const(_), CTerm::Const(_)) => {} // equal: they unify
                (CTerm::Slot(s), CTerm::Const(c)) => slots[s] = Some(LTerm::Const(c)),
                (CTerm::Slot(s), CTerm::Slot(t)) => slots[s] = Some(LTerm::Outer(t)),
            }
        }
        // Fix the order once: next the atom with the fewest variables left
        // unbound (by U or by atoms placed before it), then the fewest
        // candidates `estimate` sees for it now; ties keep body order.
        let (mut atoms, mut terms, mut locals) = (Vec::new(), Vec::new(), 0);
        while !pushed.is_empty() {
            let free = |a: usize| {
                let ts = later.terms_of(a).iter();
                ts.filter(|t| matches!(t, CTerm::Slot(s) if slots[*s].is_none()))
                    .count()
            };
            let fewest = pushed.iter().map(|&a| free(a)).min().expect("non-empty");
            let tied: Vec<usize> = (0..pushed.len())
                .filter(|&p| free(pushed[p]) == fewest)
                .collect();
            let mut best = (tied[0], usize::MAX);
            for &p in tied.iter().filter(|_| tied.len() > 1) {
                let pattern: Vec<Option<Value>> = (later.terms_of(pushed[p]).iter())
                    .map(|t| match *t {
                        CTerm::Const(c) => Some(c.clone()),
                        CTerm::Slot(s) => match slots[s] {
                            Some(LTerm::Const(c)) => Some(c.clone()),
                            Some(LTerm::Outer(t)) => outer[t].clone(),
                            Some(LTerm::Local(_)) | None => None,
                        },
                    })
                    .collect();
                let n = estimate(later.atoms[pushed[p]].rid, &pattern)?;
                if n < best.1 {
                    best = (p, n);
                }
            }
            let a = pushed.remove(best.0);
            let start = terms.len();
            for term in later.terms_of(a) {
                terms.push(match *term {
                    CTerm::Const(c) => LTerm::Const(c),
                    CTerm::Slot(s) => *slots[s].get_or_insert_with(|| {
                        locals += 1;
                        LTerm::Local(locals - 1)
                    }),
                });
            }
            atoms.push((later.atoms[a].rid, start..terms.len()));
        }
        let patterns = (terms.iter())
            .map(|t| match t {
                LTerm::Const(c) => Some((*c).clone()),
                LTerm::Outer(_) | LTerm::Local(_) => None,
            })
            .collect();
        Ok(Check {
            pins,
            atoms,
            patterns,
            terms,
            binds: vec![None; locals],
            trail: Vec::with_capacity(locals),
        })
    }

    /// Can the pushed atoms match on `overlay` under the earlier member's
    /// bindings `outer`? An unbound outer slot constrains nothing.
    fn holds(
        &mut self,
        base: &Database,
        overlay: &Overlay,
        outer: &[Option<Value>],
        meter: &mut Meter<'_>,
    ) -> Result<bool> {
        let pinned_away = |&(t, c): &(usize, &Value)| outer[t].as_ref().is_some_and(|v| v != c);
        if self.pins.iter().any(pinned_away) {
            return Ok(false);
        }
        self.search(0, base, overlay, outer, meter)
    }

    fn search(
        &mut self,
        k: usize,
        base: &Database,
        overlay: &Overlay,
        outer: &[Option<Value>],
        meter: &mut Meter<'_>,
    ) -> Result<bool> {
        let Some((rid, range)) = self.atoms.get(k).cloned() else {
            return Ok(true);
        };
        for p in range.clone() {
            self.patterns[p] = match self.terms[p] {
                LTerm::Const(_) => continue, // filled in once
                LTerm::Outer(t) => outer[t].clone(),
                LTerm::Local(l) => self.binds[l].clone(),
            };
        }
        let mut candidates = overlay.stream(base, rid, &self.patterns[range.clone()])?;
        meter.lookup(candidates.is_index_backed());
        // Deeper atoms rewrite only their own patterns.
        while let Some(tuple) = candidates.next(overlay, &self.patterns[range.clone()]) {
            meter.pull()?;
            let mark = self.trail.len();
            let found = self.bind(range.clone(), &tuple)
                && self.search(k + 1, base, overlay, outer, meter)?;
            self.undo(mark);
            if found {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Bind the atom's local slots to `tuple`; `false` when a slot the
    /// atom repeats disagrees. Constants and outer values are already in
    /// the pattern the candidate matched.
    fn bind(&mut self, range: Range<usize>, tuple: &Tuple) -> bool {
        for (p, value) in range.zip(tuple.iter()) {
            if let LTerm::Local(l) = self.terms[p] {
                match &self.binds[l] {
                    Some(bound) if bound != value => return false,
                    Some(_) => {}
                    None => {
                        self.binds[l] = Some(value.clone());
                        self.trail.push(l);
                    }
                }
            }
        }
        true
    }

    fn undo(&mut self, mark: usize) {
        for l in self.trail.drain(mark..) {
            self.binds[l] = None;
        }
    }
}

/// The lookahead of one multi-spec search (module docs), built on its
/// first failed descent.
#[derive(Debug)]
struct Lookahead<'a> {
    /// The `(i, j, B, U)` — source member, later member, its body atom, the
    /// insert of `i` — that pass the structural part of condition (1),
    /// sorted by source.
    sources: Vec<(usize, usize, usize, usize)>,
    /// `(relation, member)` of every insert, sorted.
    inserters: Vec<(RelationId, usize)>,
    /// Per member: its checks once its level is armed.
    armed: Vec<Option<Vec<Check<'a>>>>,
}

impl<'a> Lookahead<'a> {
    fn derive(specs: &[CompiledSpec<'a>]) -> Self {
        let mut writes: Vec<Write<'a>> = Vec::new();
        for (k, spec) in specs.iter().enumerate() {
            for u in spec.body_atoms..spec.atoms.len() {
                let atom = &spec.atoms[u];
                writes.push((atom.rid, atom.insert, spec.lead(u), k, u));
            }
        }
        writes.sort_unstable();
        let mut sources = Vec::new();
        for (j, spec) in specs.iter().enumerate().skip(1) {
            for b in 0..spec.body_atoms {
                if spec.repeats_slot(b) {
                    continue;
                }
                let from = unifying(&writes, true, specs, spec, b);
                let mut earlier = from.filter(|w| w.3 < j);
                let (Some(&(.., i, u)), None) = (earlier.next(), earlier.next()) else {
                    continue; // no source, or more than one
                };
                if unifying(&writes, false, specs, spec, b).any(|w| w.3 < i) {
                    continue;
                }
                sources.push((i, j, b, u));
            }
        }
        sources.sort_by_key(|s| s.0);
        let mut inserters: Vec<(RelationId, usize)> = (writes.iter())
            .filter(|w| w.1)
            .map(|w| (w.0, w.3))
            .collect();
        inserters.sort_unstable();
        Lookahead {
            sources,
            inserters,
            armed: (0..specs.len()).map(|_| None).collect(),
        }
    }

    /// Does a member in `from..to` insert into `rid`?
    fn inserted_between(&self, rid: RelationId, from: usize, to: usize) -> bool {
        let first = self.inserters.partition_point(|&w| w < (rid, from));
        self.inserters.get(first).is_some_and(|&w| w < (rid, to))
    }

    /// Arm level `i` on `overlay`, the state at its turn, while its slots
    /// hold `outer`, the candidate that just failed: finish condition (1)
    /// with the visibility test, apply condition (2), compile.
    fn arm(
        &mut self,
        (i, outer): (usize, &[Option<Value>]),
        specs: &[CompiledSpec<'a>],
        base: &Database,
        overlay: &Overlay,
        meter: &mut Meter<'_>,
    ) -> Result<()> {
        let mut checks = Vec::new();
        let from = self.sources.partition_point(|s| s.0 < i);
        let to = self.sources.partition_point(|s| s.0 <= i);
        for &(_, j, b, u) in &self.sources[from..to] {
            let later = &specs[j];
            let rid = later.atoms[b].rid;
            let consts: Vec<Option<Value>> = (later.terms_of(b).iter())
                .map(|t| match t {
                    CTerm::Const(c) => Some((*c).clone()),
                    CTerm::Slot(_) => None,
                })
                .collect();
            if meter.count((base, overlay), rid, &consts, 1)? > 0 {
                continue; // a tuple besides U's may match B
            }
            let pushed: Vec<usize> = (0..later.body_atoms)
                .filter(|&a| a != b && !self.inserted_between(later.atoms[a].rid, i, j))
                .collect();
            let estimate = |rid, pattern: &[Option<Value>]| {
                meter.count((base, overlay), rid, pattern, ORDER_CAP)
            };
            let check = Check::compile((&specs[i], u), (later, b), pushed, outer, estimate)?;
            if !(check.atoms.is_empty() && check.pins.is_empty()) {
                checks.push(check);
            }
        }
        self.armed[i] = Some(checks);
        Ok(())
    }
}

/// The search state of one spec, allocated once per solver entry point
/// and restored by the undo trail on every backtrack.
#[derive(Debug)]
pub(crate) struct Frame {
    /// Slot → its current value.
    pub(crate) binds: Vec<Option<Value>>,
    /// The column patterns of all body atoms under `binds`, laid out like
    /// the spec's body terms (constants are filled in once): what the
    /// counts and candidate streams are asked with, kept current by
    /// [`Frame::assign`] instead of being rebuilt per node.
    patterns: Vec<Option<Value>>,
    /// Body atoms already matched on the current branch.
    pub(crate) used: Vec<bool>,
    /// Slots in binding order.
    pub(crate) trail: Vec<usize>,
}

impl Frame {
    pub(crate) fn new(spec: &CompiledSpec<'_>) -> Self {
        Frame {
            binds: vec![None; spec.vars.len()],
            patterns: spec.terms[..spec.body_terms]
                .iter()
                .map(|term| match *term {
                    CTerm::Const(c) => Some(c.clone()),
                    CTerm::Slot(_) => None,
                })
                .collect(),
            used: vec![false; spec.body_atoms],
            trail: Vec::with_capacity(spec.vars.len()),
        }
    }

    /// The column pattern of body atom `idx`.
    pub(crate) fn pattern(&self, spec: &CompiledSpec<'_>, idx: usize) -> &[Option<Value>] {
        &self.patterns[spec.atoms[idx].terms.clone()]
    }

    /// Set (`Some`) or clear (`None`) `slot` in `binds` and at every body
    /// position that holds it.
    fn assign(&mut self, spec: &CompiledSpec<'_>, slot: usize, value: Option<&Value>) {
        for (pattern, term) in self.patterns.iter_mut().zip(&spec.terms) {
            if matches!(term, CTerm::Slot(s) if *s == slot) {
                *pattern = value.cloned();
            }
        }
        self.binds[slot] = value.cloned();
    }

    /// Unbind every slot bound since the trail was `mark` long.
    pub(crate) fn undo(&mut self, spec: &CompiledSpec<'_>, mark: usize) {
        while self.trail.len() > mark {
            let slot = self.trail.pop().expect("longer than mark");
            self.assign(spec, slot, None);
        }
    }

    /// Try to extend the bindings so body atom `idx` matches `tuple`;
    /// leaves them untouched on a mismatch.
    pub(crate) fn match_atom(
        &mut self,
        spec: &CompiledSpec<'_>,
        idx: usize,
        tuple: &Tuple,
    ) -> bool {
        let terms = &spec.terms[spec.atoms[idx].terms.clone()];
        debug_assert_eq!(terms.len(), tuple.arity());
        let mark = self.trail.len();
        for (term, value) in terms.iter().zip(tuple.iter()) {
            let ok = match *term {
                CTerm::Const(c) => c == value,
                CTerm::Slot(s) => match &self.binds[s] {
                    Some(existing) => existing == value,
                    None => {
                        self.assign(spec, s, Some(value));
                        self.trail.push(s);
                        true
                    }
                },
            };
            if !ok {
                self.undo(spec, mark);
                return false;
            }
        }
        true
    }

    pub(crate) fn valuation(&self, spec: &CompiledSpec<'_>) -> Valuation {
        // Bound one by one: no intermediate vector.
        let mut val = Valuation::new();
        for (&var, value) in spec.vars.iter().zip(&self.binds) {
            if let Some(value) = value {
                val.bind(var.clone(), value.clone());
            }
        }
        val
    }
}

impl<'o> Solver<'o> {
    /// Solver with the given strategy and default limits.
    pub fn new(order: AtomOrder) -> Self {
        Solver {
            order,
            ..Solver::default()
        }
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> &SolverStats {
        &self.stats
    }

    /// Lend the observability handle search timings feed into.
    pub fn set_obs(&mut self, obs: Option<&'o qdb_obs::Obs>) {
        self.obs = obs;
    }

    /// Run `f` and record its wall time as [`qdb_obs::Phase::Solve`].
    fn timed<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> R {
        let Some(obs) = self.obs else {
            return f(self);
        };
        let t0 = obs.start();
        let r = f(self);
        obs.span(qdb_obs::Phase::Solve, t0);
        r
    }

    /// Find a consistent grounding for `specs` executed in order on
    /// `base + pre_ops`. `pre_ops` (the already-fixed updates of a cached
    /// solution) must apply cleanly — a conflict there is an internal
    /// error, not a search failure.
    pub fn solve(
        &mut self,
        base: &Database,
        pre_ops: &[WriteOp],
        specs: &[TxnSpec<'_>],
    ) -> Result<Option<Solution>> {
        let mut overlay = Overlay::new();
        for op in pre_ops {
            overlay.apply(base, op)?;
        }
        self.solve_in(base, &mut overlay, specs)
    }

    /// [`Solver::solve`] against a caller-provided virtual state. On
    /// success the overlay is left with the solution's updates **applied**
    /// (the caller may keep it as the post-admission virtual state); on
    /// an unsatisfiable search it is rolled back to its entry state; after
    /// an error (e.g. the node limit) its contents are unspecified and
    /// must be discarded.
    pub fn solve_in(
        &mut self,
        base: &Database,
        overlay: &mut Overlay,
        specs: &[TxnSpec<'_>],
    ) -> Result<Option<Solution>> {
        self.timed(|s| s.solve_in_inner(base, overlay, specs))
    }

    fn solve_in_inner(
        &mut self,
        base: &Database,
        overlay: &mut Overlay,
        specs: &[TxnSpec<'_>],
    ) -> Result<Option<Solution>> {
        let compiled = compile_specs(base, specs)?;
        let mut ctx = Ctx::new(self, base, &compiled, None);
        let mut valuations = Vec::with_capacity(specs.len());
        let found = ctx.solve_txn(0, overlay, &mut valuations);
        let nodes = ctx.meter.nodes;
        self.stats.nodes += nodes;
        self.stats.solves += 1;
        match found? {
            true => Ok(Some(Solution { valuations })),
            false => {
                self.stats.unsat += 1;
                Ok(None)
            }
        }
    }

    /// Check that `valuations` is (still) a consistent grounding for
    /// `specs` on `base + pre_ops`. Much cheaper than solving; used to
    /// revalidate cached solutions after reads, writes and reorderings.
    pub fn verify<V: std::borrow::Borrow<Valuation>>(
        &mut self,
        base: &Database,
        pre_ops: &[WriteOp],
        specs: &[TxnSpec<'_>],
        valuations: &[V],
    ) -> Result<bool> {
        self.timed(|s| s.verify_inner(base, pre_ops, specs, valuations))
    }

    fn verify_inner<V: std::borrow::Borrow<Valuation>>(
        &mut self,
        base: &Database,
        pre_ops: &[WriteOp],
        specs: &[TxnSpec<'_>],
        valuations: &[V],
    ) -> Result<bool> {
        self.stats.verifies += 1;
        if specs.len() != valuations.len() {
            self.stats.verify_failures += 1;
            return Ok(false);
        }
        let mut overlay = Overlay::new();
        for op in pre_ops {
            overlay.apply(base, op)?;
        }
        let compiled = compile_specs(base, specs)?;
        for (spec, val) in compiled.iter().zip(valuations) {
            let value_of = |slot: usize| val.borrow().get(spec.vars[slot]);
            for atom in spec.body() {
                // A valuation that doesn't even cover the atom fails too.
                let visible = spec
                    .ground(atom, value_of)
                    .is_ok_and(|tuple| overlay.visible_id(base, atom.rid, &tuple));
                if !visible {
                    self.stats.verify_failures += 1;
                    return Ok(false);
                }
            }
            for atom in spec.updates() {
                let tuple = spec.ground(atom, value_of)?;
                if !overlay.try_apply_id(base, atom.rid, atom.insert, &tuple) {
                    self.stats.verify_failures += 1;
                    return Ok(false);
                }
            }
        }
        Ok(true)
    }

    /// Enumerate up to `max` distinct groundings of a *single* spec on
    /// `base + pre_ops` (each one's updates must apply cleanly). Used by
    /// grounding heuristics that score alternatives before fixing one.
    pub fn enumerate_one(
        &mut self,
        base: &Database,
        pre_ops: &[WriteOp],
        spec: &TxnSpec<'_>,
        max: usize,
    ) -> Result<Vec<Valuation>> {
        self.timed(|s| {
            let mut ov = Overlay::new();
            for op in pre_ops {
                ov.apply(base, op)?;
            }
            s.collect(base, &mut ov, spec, max, |sp, fr, _| fr.valuation(sp))
        })
    }

    /// [`Solver::enumerate_one`] on a caller-provided virtual state (as
    /// [`Solver::solve_in`]; left as found), reporting each grounding as
    /// its grounded updates in order — what forking a possible world applies.
    pub fn enumerate_updates_in(
        &mut self,
        base: &Database,
        overlay: &mut Overlay,
        spec: &TxnSpec<'_>,
        max: usize,
    ) -> Result<Vec<Vec<GroundUpdate>>> {
        self.timed(|s| s.collect(base, overlay, spec, max, |_, _, updates| updates))
    }

    /// Search `spec` alone in collect mode: up to `max` groundings, in
    /// discovery order — distinct, as sibling candidates are distinct
    /// tuples that bind some variable differently.
    fn collect<T>(
        &mut self,
        base: &Database,
        overlay: &mut Overlay,
        spec: &TxnSpec<'_>,
        max: usize,
        item: impl Fn(&CompiledSpec<'_>, &Frame, Vec<GroundUpdate>) -> T,
    ) -> Result<Vec<T>> {
        let compiled = [CompiledSpec::compile(base, spec)?];
        let mut found = Vec::new();
        let mut push = |spec: &CompiledSpec<'_>, frame: &Frame, updates| {
            found.push(item(spec, frame, updates))
        };
        let mut ctx = Ctx::new(self, base, &compiled, Some((max, &mut push)));
        // In collect mode solve_txn never reports success; it fills the
        // collector until exhaustion or `max`.
        let res = ctx.solve_txn(0, overlay, &mut Vec::new());
        let nodes = ctx.meter.nodes;
        self.stats.nodes += nodes;
        res.map(|_| found)
    }
}

/// A grounded update: relation, insert (`true`) or delete, and tuple.
pub type GroundUpdate = (RelationId, bool, Tuple);

type Push<'c> = &'c mut dyn FnMut(&CompiledSpec<'_>, &Frame, Vec<GroundUpdate>);

/// What one call's pulls and lookups are charged to — the search's and
/// its lookahead's alike.
struct Meter<'c> {
    /// Nodes expanded by *this* call (the limit is per-call; cumulative
    /// stats absorb it afterwards).
    nodes: u64,
    max_nodes: u64,
    stats: &'c mut SolverStats,
}

impl Meter<'_> {
    /// Count one candidate pulled; an error past the node limit.
    fn pull(&mut self) -> Result<()> {
        self.nodes += 1;
        self.stats.candidates_streamed += 1;
        if self.nodes > self.max_nodes {
            return Err(SolverError::LimitExceeded { nodes: self.nodes });
        }
        Ok(())
    }

    /// Count one bound-column lookup as index-backed or a scan.
    fn lookup(&mut self, index_backed: bool) {
        if index_backed {
            self.stats.index_lookups += 1;
        } else {
            self.stats.scan_lookups += 1;
        }
    }

    /// [`Overlay::count_up_to_id`], counting the lookup when `bound` binds a
    /// column (a fully unbound count is an O(1) length read, neither).
    fn count(
        &mut self,
        (base, overlay): (&Database, &Overlay),
        rid: RelationId,
        bound: &[Option<Value>],
        cap: usize,
    ) -> Result<usize> {
        let (n, index_backed) = overlay.count_up_to_id(base, rid, bound, cap)?;
        if bound.iter().any(Option::is_some) {
            self.lookup(index_backed);
        }
        Ok(n)
    }
}

struct Ctx<'a, 'c> {
    base: &'a Database,
    specs: &'a [CompiledSpec<'a>],
    /// One frame per spec; `frames[i]` is clean (nothing bound, nothing
    /// used) whenever the search is not inside spec `i`.
    frames: Vec<Frame>,
    order: AtomOrder,
    seed: u64,
    meter: Meter<'c>,
    /// When set, hand each grounding of spec 0 to the callback (at most
    /// as many as the count left) instead of solving the whole sequence.
    collect_first: Option<(usize, Push<'c>)>,
    /// Built on the first failed descent (module docs).
    lookahead: Option<Lookahead<'a>>,
}

impl<'a, 'c> Ctx<'a, 'c> {
    fn new(
        solver: &'c mut Solver,
        base: &'a Database,
        specs: &'a [CompiledSpec<'a>],
        collect_first: Option<(usize, Push<'c>)>,
    ) -> Self {
        Ctx {
            base,
            specs,
            frames: specs.iter().map(Frame::new).collect(),
            order: solver.order,
            seed: solver.seed,
            meter: Meter {
                nodes: 0,
                max_nodes: solver.limits.max_nodes,
                stats: &mut solver.stats,
            },
            collect_first,
            lookahead: None,
        }
    }

    fn solve_txn(
        &mut self,
        i: usize,
        overlay: &mut Overlay,
        out: &mut Vec<Valuation>,
    ) -> Result<bool> {
        if i == self.specs.len() {
            return Ok(self.collect_first.is_none());
        }
        self.solve_atoms(i, overlay, out)
    }

    fn solve_atoms(
        &mut self,
        i: usize,
        overlay: &mut Overlay,
        out: &mut Vec<Valuation>,
    ) -> Result<bool> {
        if self.frames[i].used.iter().all(|&u| u) {
            return self.complete_txn(i, overlay, out);
        }
        let spec = &self.specs[i];
        let idx = self.pick_atom(i, overlay)?;
        let rid = spec.atoms[idx].rid;
        let mut candidates = overlay.stream(self.base, rid, self.frames[i].pattern(spec, idx))?;
        self.meter.lookup(candidates.is_index_backed());
        self.frames[i].used[idx] = true;
        let mut done = false;
        // Every pull sees the pattern the stream was opened with: the
        // bindings a candidate adds are undone before the next pull.
        while let Some(tuple) = candidates.next(overlay, self.frames[i].pattern(spec, idx)) {
            self.meter.pull()?;
            let mark = self.frames[i].trail.len();
            if self.frames[i].match_atom(spec, idx, &tuple) {
                done = self.solve_atoms(i, overlay, out)?;
                self.frames[i].undo(spec, mark);
                if done {
                    break;
                }
            }
        }
        self.frames[i].used[idx] = false;
        Ok(done)
    }

    /// All atoms of txn `i` are matched: run its armed lookahead, apply its
    /// updates and move on. Updates are grounded straight into id-based
    /// overlay ops — no [`WriteOp`] (and no relation-string clone) is
    /// materialized — and this is the only place a [`Valuation`] is built.
    /// A failed descent arms the level's lookahead.
    fn complete_txn(
        &mut self,
        i: usize,
        overlay: &mut Overlay,
        out: &mut Vec<Valuation>,
    ) -> Result<bool> {
        if self.collect_first.is_some() {
            return self.collect_txn(i, overlay);
        }
        if !self.lookahead_holds(i, overlay)? {
            self.meter.stats.lookahead_prunes += 1;
            return Ok(false);
        }
        let mark = overlay.mark();
        let (spec, frame) = (&self.specs[i], &self.frames[i]);
        for atom in spec.updates() {
            let tuple = spec.ground(atom, |slot| frame.binds[slot].as_ref())?;
            if !overlay.try_apply_id(self.base, atom.rid, atom.insert, &tuple) {
                overlay.rollback(mark);
                return Ok(false); // set-semantics conflict: backtrack
            }
        }
        out.push(frame.valuation(spec));
        if self.solve_txn(i + 1, overlay, out)? {
            return Ok(true);
        }
        out.pop();
        overlay.rollback(mark);
        let specs = self.specs;
        let lookahead = self
            .lookahead
            .get_or_insert_with(|| Lookahead::derive(specs));
        if lookahead.armed[i].is_none() {
            let outer = &self.frames[i].binds;
            lookahead.arm((i, outer), specs, self.base, overlay, &mut self.meter)?;
        }
        Ok(false)
    }

    /// Do txn `i`'s armed checks all hold under its current bindings?
    fn lookahead_holds(&mut self, i: usize, overlay: &Overlay) -> Result<bool> {
        let armed = self.lookahead.as_mut().and_then(|l| l.armed[i].as_mut());
        for check in armed.into_iter().flatten() {
            let outer = &self.frames[i].binds;
            if !check.holds(self.base, overlay, outer, &mut self.meter)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Collect mode: record txn `i`'s grounding if its updates apply in
    /// order, decided by probing alone — an insert fails on a visible
    /// tuple, and the last earlier update of that tuple, if any, says if
    /// it is.
    fn collect_txn(&mut self, i: usize, overlay: &Overlay) -> Result<bool> {
        let (spec, frame) = (&self.specs[i], &self.frames[i]);
        let mut grounded = Vec::with_capacity(spec.updates().len());
        for a in spec.updates() {
            let tuple = spec.ground(a, |slot| frame.binds[slot].as_ref())?;
            grounded.push((a.rid, a.insert, tuple));
        }
        let base = self.base;
        let applies = grounded.iter().enumerate().all(|(k, (rid, insert, t))| {
            let before = &grounded[..k];
            let earlier = before.iter().rev().find(|u| u.0 == *rid && u.2 == *t);
            !insert || !earlier.map_or_else(|| overlay.visible_id(base, *rid, t), |u| u.1)
        });
        let Some((left, push)) = self.collect_first.as_mut().filter(|_| applies) else {
            return Ok(false); // set-semantics conflict: backtrack
        };
        push(spec, frame, grounded);
        self.meter.stats.enumerated += 1;
        *left = left.saturating_sub(1);
        Ok(*left == 0) // `true` stops the search: the quota is reached
    }

    /// Choose the next body atom of txn `i` to branch on.
    fn pick_atom(&mut self, i: usize, overlay: &Overlay) -> Result<usize> {
        let (spec, frame) = (&self.specs[i], &self.frames[i]);
        let mut unused = (0..frame.used.len()).filter(|&idx| !frame.used[idx]);
        let first = unused.next().expect("at least one unused atom");
        if unused.next().is_none() || self.order == AtomOrder::Static {
            return Ok(first);
        }
        let mut best: Option<(usize, usize)> = None;
        for idx in (first..frame.used.len()).filter(|&idx| !frame.used[idx]) {
            let bound = frame.pattern(spec, idx);
            let rid = spec.atoms[idx].rid;
            let n = self
                .meter
                .count((self.base, overlay), rid, bound, ORDER_CAP)?;
            // Strictly fewer candidates always wins. On an exact tie the
            // unseeded solver keeps the earlier atom (body order); a
            // non-zero seed instead hashes (seed, atom index) so different
            // seeds deterministically explore different orders.
            let replace = match best {
                None => true,
                Some((bi, bn)) => {
                    n < bn
                        || (n == bn
                            && self.seed != 0
                            && splitmix64(self.seed ^ idx as u64)
                                > splitmix64(self.seed ^ bi as u64))
                }
            };
            if replace {
                best = Some((idx, n));
            }
            if n == 0 {
                break; // dead branch — pick it and fail fast
            }
        }
        Ok(best.expect("at least one unused atom").0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdb_logic::parse_transaction;
    use qdb_storage::{tuple, Schema, ValueType};

    /// One flight (1) with seats 1A..1C available; Goofy already booked 1B
    /// on flight 1. Adjacency 1A-1B, 1B-1C (both directions).
    fn travel_db() -> Database {
        let mut db = Database::new();
        db.create_table(Schema::new(
            "Available",
            vec![("flight", ValueType::Int), ("seat", ValueType::Str)],
        ))
        .unwrap();
        db.create_table(Schema::new(
            "Bookings",
            vec![
                ("name", ValueType::Str),
                ("flight", ValueType::Int),
                ("seat", ValueType::Str),
            ],
        ))
        .unwrap();
        db.create_table(Schema::new(
            "Adjacent",
            vec![("s1", ValueType::Str), ("s2", ValueType::Str)],
        ))
        .unwrap();
        for s in ["1A", "1B", "1C"] {
            db.insert("Available", tuple![1, s]).unwrap();
        }
        db.insert("Bookings", tuple!["Goofy", 1, "1B"]).unwrap();
        for (a, b) in [("1A", "1B"), ("1B", "1A"), ("1B", "1C"), ("1C", "1B")] {
            db.insert("Adjacent", tuple![a, b]).unwrap();
        }
        db
    }

    fn book(name: &str) -> qdb_logic::ResourceTransaction {
        parse_transaction(&format!(
            "-Available(f, s), +Bookings('{name}', f, s) :-1 Available(f, s)"
        ))
        .unwrap()
    }

    #[test]
    fn single_txn_solves() {
        let db = travel_db();
        let t = book("Mickey");
        let mut solver = Solver::default();
        let sol = solver
            .solve(&db, &[], &[TxnSpec::required_only(&t)])
            .unwrap()
            .unwrap();
        assert_eq!(sol.valuations.len(), 1);
        // The solution grounds the update into valid ops.
        let ops = sol.write_ops(&[&t]).unwrap();
        assert_eq!(ops.len(), 2);
        assert_eq!(solver.stats().solves, 1);
        assert_eq!(solver.stats().unsat, 0);
        // The fast path streams candidates; nothing was materialized.
        assert!(solver.stats().candidates_streamed >= 1);
        assert_eq!(solver.stats().candidate_vecs, 0);
    }

    #[test]
    fn sequence_respects_earlier_deletes() {
        // Three bookings fit (three seats); a fourth cannot.
        let db = travel_db();
        let txns: Vec<_> = ["M", "D", "P", "Q"].iter().map(|n| book(n)).collect();
        let mut solver = Solver::default();
        let specs3: Vec<TxnSpec> = txns[..3].iter().map(TxnSpec::required_only).collect();
        assert!(solver.solve(&db, &[], &specs3).unwrap().is_some());
        let specs4: Vec<TxnSpec> = txns.iter().map(TxnSpec::required_only).collect();
        assert!(solver.solve(&db, &[], &specs4).unwrap().is_none());
        assert_eq!(solver.stats().unsat, 1);
    }

    #[test]
    fn body_can_ground_on_earlier_insert() {
        // T1 books Mickey; T2's body requires a Bookings tuple for Mickey —
        // only satisfiable via T1's pending insert (Lemma 3.4, insert case).
        let db = travel_db();
        let t1 = book("Mickey");
        let t2 = parse_transaction("+Confirmed(s) :-1 Bookings('Mickey', f, s)").unwrap();
        let mut db = db;
        db.create_table(Schema::new("Confirmed", vec![("seat", ValueType::Str)]))
            .unwrap();
        let mut solver = Solver::default();
        let specs = [TxnSpec::required_only(&t1), TxnSpec::required_only(&t2)];
        let sol = solver.solve(&db, &[], &specs).unwrap().unwrap();
        // T2's seat must equal T1's chosen seat.
        let s1 = t1.vars()[1].clone();
        let s2 = t2.vars()[1].clone();
        assert_eq!(sol.valuations[0].get(&s1), sol.valuations[1].get(&s2));
    }

    #[test]
    fn body_cannot_ground_on_earlier_delete() {
        // T1 deletes the ONLY seat (flight fixed, seat fixed); T2 needs it.
        let db = travel_db();
        let t1 = parse_transaction(
            "-Available(f, s), +Bookings('M', f, s) :-1 Available(f, s), Pin(f, s)",
        )
        .unwrap();
        let mut db = db;
        db.create_table(Schema::new(
            "Pin",
            vec![("flight", ValueType::Int), ("seat", ValueType::Str)],
        ))
        .unwrap();
        db.insert("Pin", tuple![1, "1A"]).unwrap(); // forces T1 onto 1A
        let t2 = parse_transaction("+X(f, s) :-1 Available(f, s), Pin(f, s)").unwrap();
        db.create_table(Schema::new(
            "X",
            vec![("flight", ValueType::Int), ("seat", ValueType::Str)],
        ))
        .unwrap();
        let mut solver = Solver::default();
        let specs = [TxnSpec::required_only(&t1), TxnSpec::required_only(&t2)];
        assert!(solver.solve(&db, &[], &specs).unwrap().is_none());
        // Reversed order: T2 reads 1A before T1 deletes it — satisfiable.
        let specs = [TxnSpec::required_only(&t2), TxnSpec::required_only(&t1)];
        assert!(solver.solve(&db, &[], &specs).unwrap().is_some());
    }

    #[test]
    fn duplicate_inserts_conflict() {
        // Both transactions want to insert Flag(1) — set semantics forbids.
        let mut db = Database::new();
        db.create_table(Schema::new("A", vec![("x", ValueType::Int)]))
            .unwrap();
        db.create_table(Schema::new("Flag", vec![("x", ValueType::Int)]))
            .unwrap();
        db.insert("A", tuple![1]).unwrap();
        let t = parse_transaction("+Flag(x) :-1 A(x)").unwrap();
        let t2 = t.clone();
        let mut solver = Solver::default();
        let specs = [TxnSpec::required_only(&t), TxnSpec::required_only(&t2)];
        assert!(solver.solve(&db, &[], &specs).unwrap().is_none());
        // With a second A-tuple there is room for both.
        db.insert("A", tuple![2]).unwrap();
        assert!(solver.solve(&db, &[], &specs).unwrap().is_some());
    }

    #[test]
    fn promoted_optionals_constrain() {
        let db = travel_db();
        // Mickey wants a seat adjacent to Goofy's (optional atoms).
        let t = parse_transaction(
            "-Available(f, s), +Bookings('Mickey', f, s) :-1 \
             Available(f, s), Bookings('Goofy', f, s2)?, Adjacent(s, s2)?",
        )
        .unwrap();
        let mut solver = Solver::default();
        let sol = solver
            .solve(&db, &[], &[TxnSpec::with_promoted(&t, vec![1, 2])])
            .unwrap()
            .unwrap();
        let s = t.vars()[1].clone();
        let seat = sol.valuations[0]
            .get(&s)
            .unwrap()
            .as_str()
            .unwrap()
            .to_string();
        assert!(
            seat == "1A" || seat == "1C",
            "must sit next to 1B, got {seat}"
        );
    }

    #[test]
    fn pre_ops_shift_the_base_state() {
        let db = travel_db();
        let t = book("Mickey");
        let pre = vec![
            WriteOp::delete("Available", tuple![1, "1A"]),
            WriteOp::delete("Available", tuple![1, "1B"]),
            WriteOp::delete("Available", tuple![1, "1C"]),
        ];
        let mut solver = Solver::default();
        assert!(solver
            .solve(&db, &pre, &[TxnSpec::required_only(&t)])
            .unwrap()
            .is_none());
    }

    #[test]
    fn verify_accepts_solver_output_and_rejects_tampering() {
        let db = travel_db();
        let t1 = book("Mickey");
        let t2 = book("Donald");
        let specs = [TxnSpec::required_only(&t1), TxnSpec::required_only(&t2)];
        let mut solver = Solver::default();
        let sol = solver.solve(&db, &[], &specs).unwrap().unwrap();
        assert!(solver.verify(&db, &[], &specs, &sol.valuations).unwrap());
        // Tamper: point both transactions at the same seat.
        let mut bad = sol.valuations.clone();
        bad[1] = bad[0].clone();
        // (var ids differ across txns, so translate: rebind t2's vars to
        // t1's values)
        let v1 = &sol.valuations[0];
        let mut forged = Valuation::new();
        for (var, _) in sol.valuations[1].iter() {
            // find same-named var in t1's valuation
            let same = v1.iter().find(|(w, _)| w.name() == var.name()).unwrap();
            forged.bind(var.clone(), same.1.clone());
        }
        bad[1] = forged;
        assert!(!solver.verify(&db, &[], &specs, &bad).unwrap());
        assert_eq!(solver.stats().verify_failures, 1);
        // Wrong length also fails fast.
        assert!(!solver
            .verify(&db, &[], &specs, &sol.valuations[..1])
            .unwrap());
    }

    #[test]
    fn enumerate_lists_all_groundings() {
        let db = travel_db();
        let t = book("Mickey");
        let mut solver = Solver::default();
        let all = solver
            .enumerate_one(&db, &[], &TxnSpec::required_only(&t), 100)
            .unwrap();
        assert_eq!(all.len(), 3, "three available seats");
        let capped = solver
            .enumerate_one(&db, &[], &TxnSpec::required_only(&t), 2)
            .unwrap();
        assert_eq!(capped.len(), 2);
    }

    #[test]
    fn node_limit_is_enforced() {
        let db = travel_db();
        let t = book("Mickey");
        let mut solver = Solver::default();
        solver.limits.max_nodes = 1;
        let t2 = book("Donald");
        let specs = [TxnSpec::required_only(&t), TxnSpec::required_only(&t2)];
        assert!(matches!(
            solver.solve(&db, &[], &specs),
            Err(SolverError::LimitExceeded { .. })
        ));
    }

    #[test]
    fn static_and_dynamic_order_agree_on_satisfiability() {
        let db = travel_db();
        let txns: Vec<_> = (0..3).map(|i| book(&format!("U{i}"))).collect();
        let specs: Vec<TxnSpec> = txns.iter().map(TxnSpec::required_only).collect();
        let mut dynamic = Solver::new(AtomOrder::MostConstrained);
        let mut fixed = Solver::new(AtomOrder::Static);
        assert_eq!(
            dynamic.solve(&db, &[], &specs).unwrap().is_some(),
            fixed.solve(&db, &[], &specs).unwrap().is_some()
        );
    }

    #[test]
    fn indexed_base_reports_index_backed_lookups() {
        let mut db = travel_db();
        db.table_mut("Available").unwrap().create_index(0).unwrap();
        // Flight bound by a constant → the stream rides the index.
        let t = parse_transaction("-Available(1, s), +Bookings('M', 1, s) :-1 Available(1, s)")
            .unwrap();
        let mut solver = Solver::default();
        assert!(solver
            .solve(&db, &[], &[TxnSpec::required_only(&t)])
            .unwrap()
            .is_some());
        assert!(solver.stats().index_lookups > 0);
        assert_eq!(solver.stats().candidate_vecs, 0);
    }

    #[test]
    fn seeded_tie_breaks_are_deterministic_and_agree_on_satisfiability() {
        // Two body atoms with equal candidate counts force the dynamic
        // ordering onto its tie-break path on every node.
        let mut db = Database::new();
        db.create_table(Schema::new("A", vec![("x", ValueType::Int)]))
            .unwrap();
        db.create_table(Schema::new("B", vec![("y", ValueType::Int)]))
            .unwrap();
        db.create_table(Schema::new(
            "Out",
            vec![("x", ValueType::Int), ("y", ValueType::Int)],
        ))
        .unwrap();
        for v in [1, 2, 3] {
            db.insert("A", tuple![v]).unwrap();
            db.insert("B", tuple![10 + v]).unwrap();
        }
        let t = parse_transaction("+Out(x, y) :-1 A(x), B(y)").unwrap();
        let spec = TxnSpec::required_only(&t);
        let enumerate = |seed: u64| {
            let mut solver = Solver {
                seed,
                ..Default::default()
            };
            solver.enumerate_one(&db, &[], &spec, 100).unwrap()
        };
        // Any seed is self-consistent, seed 0 included; every seed agrees
        // on the full solution *set* (order may differ).
        for seed in [0, 1, 0xC1DE] {
            assert_eq!(enumerate(seed), enumerate(seed), "seed {seed} replays");
            let mut sorted = enumerate(seed);
            sorted.sort();
            let mut base = enumerate(0);
            base.sort();
            assert_eq!(sorted, base, "seed {seed} finds the same set");
        }
    }

    #[test]
    fn unknown_relation_is_a_storage_error() {
        let db = travel_db();
        let t = parse_transaction("+Ghost(x) :-1 Available(x, s)").unwrap();
        let mut solver = Solver::default();
        let err = solver
            .solve(&db, &[], &[TxnSpec::required_only(&t)])
            .unwrap_err();
        assert!(matches!(
            err,
            SolverError::Storage(qdb_storage::StorageError::NoSuchTable(_))
        ));
    }

    /// Flight 1 with `free` available; Adjacent within rows 1 and 2.
    fn pair_db(free: &[&str]) -> Database {
        let mut db = travel_db();
        db.delete("Bookings", &tuple!["Goofy", 1, "1B"]).unwrap();
        for s in ["1A", "1B", "1C"] {
            db.delete("Available", &tuple![1, s]).unwrap();
        }
        for s in free {
            db.insert("Available", tuple![1, *s]).unwrap();
        }
        for (a, b) in [("2A", "2B"), ("2B", "2A")] {
            db.insert("Adjacent", tuple![a, b]).unwrap();
        }
        db
    }

    /// Solve Mickey, then Minnie next to him, through the search context;
    /// the context is handed back for inspection.
    fn solve_pair(db: &Database, check: impl FnOnce(&Ctx<'_, '_>, Option<Vec<Valuation>>)) {
        let mickey = book("Mickey");
        let minnie = parse_transaction(
            "-Available(f, s), +Bookings('Minnie', f, s) :-1 \
             Available(f, s), Bookings('Mickey', f, s2)?, Adjacent(s, s2)?",
        )
        .unwrap();
        let specs = [
            TxnSpec::required_only(&mickey),
            TxnSpec::with_promoted(&minnie, vec![1, 2]),
        ];
        let compiled = compile_specs(db, &specs).unwrap();
        let mut solver = Solver::default();
        let mut ctx = Ctx::new(&mut solver, db, &compiled, None);
        let mut out = Vec::new();
        let found = ctx.solve_txn(0, &mut Overlay::new(), &mut out).unwrap();
        check(&ctx, found.then_some(out));
    }

    #[test]
    fn lookahead_is_derived_only_after_a_failed_descent() {
        // Mickey's first seat has a free neighbour: nothing is derived.
        solve_pair(&pair_db(&["2A", "2B"]), |ctx, found| {
            assert!(found.is_some());
            assert!(ctx.lookahead.is_none());
        });
        // 1A fails in full and arms Mickey's level; 1C then dies on the
        // check (its neighbour 1B is taken) and 2A is kept, as before.
        solve_pair(&pair_db(&["1A", "1C", "2A", "2B"]), |ctx, found| {
            let mickey = found.expect("satisfiable")[0].to_string();
            assert_eq!(mickey, "{f -> 1, s -> '2A'}");
            let lookahead = ctx.lookahead.as_ref().expect("armed");
            assert_eq!(lookahead.sources, [(0, 1, 1, 2)]);
            assert_eq!(lookahead.armed[0].as_ref().map(Vec::len), Some(1));
            assert!(lookahead.armed[1].is_none());
            assert_eq!(ctx.meter.stats.lookahead_prunes, 1);
        });
    }

    #[test]
    fn a_single_spec_never_derives() {
        let db = pair_db(&["1A"]);
        let t = book("Mickey");
        let compiled = compile_specs(&db, &[TxnSpec::required_only(&t)]).unwrap();
        let mut solver = Solver::default();
        let mut ctx = Ctx::new(&mut solver, &db, &compiled, None);
        assert!(ctx
            .solve_txn(0, &mut Overlay::new(), &mut Vec::new())
            .unwrap());
        assert!(ctx.lookahead.is_none());
    }
}
