//! Black-box outcome checking.
//!
//! The checker never looks inside the engine: its inputs are the WAL (the
//! engine's own durable record of grounded outcomes), the extensional
//! database snapshots the driver takes at epoch boundaries, and the
//! answers the engine returned to reads. Three properties are verified:
//!
//! 1. **Serializability of grounded outcomes** — for each epoch, the
//!    `Ground` and `Write` records since the last epoch boundary must
//!    admit *some* serial order in which every transaction's required
//!    body is satisfied at its turn and its updates apply cleanly
//!    (insert-requires-absent / delete-requires-present), starting from
//!    the epoch-base snapshot. A greedy pass in WAL order is tried first;
//!    a memoized depth-first search over schedules is the fallback. The
//!    search may give up under a node budget — that is reported as
//!    *inconclusive*, never as a violation.
//! 2. **Replay equivalence** — the epoch-base snapshot plus the epoch's
//!    WAL ops, applied in WAL order, must reproduce the engine's current
//!    extensional state bit for bit ([`qdb_core::world_fingerprint`]).
//! 3. **Explainability of uncertain reads** — every PEEK answer and every
//!    POSSIBLE answer set must be producible by some possible world over
//!    the currently pending transactions (checked by the driver with
//!    [`eval_atoms`] over enumerated worlds, each read through the
//!    checker's own [`WorldView`]).
//!
//! The schedule search memoizes on the *set* of already-scheduled
//! records: under clean application, presence of a tuple after a set of
//! records is `initial XOR (toggle count parity)` and each record toggles
//! a tuple at most once, so the reached state depends only on the set,
//! not the order — failing suffixes can be cached by set.

use std::collections::{BTreeSet, HashMap, HashSet};

use qdb_logic::{Atom, ResourceTransaction, Term, UpdateKind, Valuation};
use qdb_solver::Overlay;
use qdb_storage::{
    ConjunctiveQuery, Database, StorageError, Table, Tuple, TupleView, Value, WriteOp,
};

/// One schedulable unit: a grounded resource transaction (with its
/// decoded body, when the WAL's `PendingAdd` payload was available) or a
/// blind extensional write.
#[derive(Debug, Clone)]
pub struct GroundedRec {
    /// Engine transaction id; `None` for blind writes.
    pub id: Option<u64>,
    /// The decoded transaction, when this unit is a ground.
    pub txn: Option<ResourceTransaction>,
    /// The concrete ops the WAL says were applied.
    pub ops: Vec<WriteOp>,
}

impl GroundedRec {
    fn label(&self) -> String {
        match self.id {
            Some(id) => format!("T{id}"),
            None => match self.ops.first() {
                Some(op) => format!("write({} {})", op.relation(), render_tuple(op.tuple())),
                None => "write(empty)".to_string(),
            },
        }
    }
}

/// Verdict of [`check_serializable`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SerOutcome {
    /// A valid serial order exists (witness included, as indexes into the
    /// checked slice).
    Serializable {
        /// One witnessing order.
        order: Vec<usize>,
    },
    /// The search hit its node budget before deciding.
    Inconclusive {
        /// Nodes explored before giving up.
        explored: usize,
    },
    /// No serial order exists.
    Violation {
        /// Human-readable explanation.
        detail: String,
    },
}

/// Aggregated checker counters for a run (and summed across sweeps).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckStats {
    /// Epoch serializability checks performed.
    pub ser_checks: u64,
    /// Epochs settled by the greedy WAL-order pass.
    pub ser_greedy: u64,
    /// Epochs that needed the DFS fallback.
    pub ser_dfs: u64,
    /// Epochs the DFS could not decide within budget.
    pub ser_inconclusive: u64,
    /// Replay-equivalence fingerprint checks.
    pub replay_checks: u64,
    /// Collapse reads verified against the extensional state.
    pub reads_checked: u64,
    /// PEEK/POSSIBLE answers verified explainable.
    pub explain_checked: u64,
    /// PEEK/POSSIBLE checks skipped because enumeration truncated.
    pub explain_skipped: u64,
    /// Accounting + domain invariant sweeps.
    pub invariant_checks: u64,
    /// Crash/recovery equivalence checks.
    pub recovery_checks: u64,
}

impl CheckStats {
    /// Pointwise sum (for sweep aggregation).
    pub fn add(&mut self, o: &CheckStats) {
        self.ser_checks += o.ser_checks;
        self.ser_greedy += o.ser_greedy;
        self.ser_dfs += o.ser_dfs;
        self.ser_inconclusive += o.ser_inconclusive;
        self.replay_checks += o.replay_checks;
        self.reads_checked += o.reads_checked;
        self.explain_checked += o.explain_checked;
        self.explain_skipped += o.explain_skipped;
        self.invariant_checks += o.invariant_checks;
        self.recovery_checks += o.recovery_checks;
    }
}

/// A checker-detected violation — the payload of a failure artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Violation class (`not_serializable`, `replay_divergence`,
    /// `peek_unexplainable`, `accounting`, `conservation`, …).
    pub kind: String,
    /// Human-readable detail.
    pub detail: String,
    /// Global op index at which the check fired.
    pub op_index: u64,
}

// ---------------------------------------------------------------------------
// Toggle-overlay state for the schedule search
// ---------------------------------------------------------------------------

/// The extensional state reached by a partial schedule: the epoch-base
/// snapshot plus an overlay of toggled tuples. `Some(true)` = present
/// regardless of base, `Some(false)` = absent regardless of base.
struct ToggleState<'a> {
    base: &'a Database,
    overlay: HashMap<(String, Tuple), bool>,
}

type Undo = Vec<((String, Tuple), Option<bool>)>;

impl<'a> ToggleState<'a> {
    fn new(base: &'a Database) -> Self {
        ToggleState {
            base,
            overlay: HashMap::new(),
        }
    }

    fn present(&self, relation: &str, tuple: &Tuple) -> bool {
        match self.overlay.get(&(relation.to_string(), tuple.clone())) {
            Some(p) => *p,
            None => self.base.contains(relation, tuple),
        }
    }

    /// Rows visible in `relation` under the overlay.
    fn rows(&self, relation: &str) -> Vec<Tuple> {
        let mut out: Vec<Tuple> = match self.base.table(relation) {
            Ok(t) => t
                .iter()
                .filter(|r| {
                    self.overlay
                        .get(&(relation.to_string(), (*r).clone()))
                        .copied()
                        .unwrap_or(true)
                })
                .cloned()
                .collect(),
            Err(_) => Vec::new(),
        };
        for ((rel, tuple), present) in &self.overlay {
            if rel == relation && *present && !self.base.contains(relation, tuple) {
                out.push(tuple.clone());
            }
        }
        out
    }

    /// Apply all of a record's ops cleanly (insert requires absent,
    /// delete requires present) or roll back and return `None`.
    fn apply_clean(&mut self, ops: &[WriteOp]) -> Option<Undo> {
        let mut undo: Undo = Vec::with_capacity(ops.len());
        for op in ops {
            let want_present = op.is_insert();
            if self.present(op.relation(), op.tuple()) == want_present {
                self.rollback(undo);
                return None;
            }
            let key = (op.relation().to_string(), op.tuple().clone());
            let prev = self.overlay.insert(key.clone(), want_present);
            undo.push((key, prev));
        }
        Some(undo)
    }

    fn rollback(&mut self, undo: Undo) {
        for (key, prev) in undo.into_iter().rev() {
            match prev {
                Some(p) => {
                    self.overlay.insert(key, p);
                }
                None => {
                    self.overlay.remove(&key);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Record application: valuation reconstruction + body satisfaction
// ---------------------------------------------------------------------------

/// Reconstruct the chosen valuation of a grounded transaction by unifying
/// its update atoms with the concrete ops the WAL recorded for it.
fn valuation_from_ops(txn: &ResourceTransaction, ops: &[WriteOp]) -> Option<Valuation> {
    if txn.updates.len() != ops.len() {
        return None;
    }
    let mut val = Valuation::new();
    for (u, op) in txn.updates.iter().zip(ops) {
        let kind_ok = match u.kind {
            UpdateKind::Insert => op.is_insert(),
            UpdateKind::Delete => !op.is_insert(),
        };
        if !kind_ok
            || u.atom.relation.as_ref() != op.relation()
            || u.atom.terms.len() != op.tuple().arity()
        {
            return None;
        }
        for (term, value) in u.atom.terms.iter().zip(op.tuple().iter()) {
            match term {
                Term::Const(c) => {
                    if c != value {
                        return None;
                    }
                }
                Term::Var(v) => match val.get(v) {
                    Some(bound) => {
                        if bound != value {
                            return None;
                        }
                    }
                    None => {
                        val.bind(v.clone(), value.clone());
                    }
                },
            }
        }
    }
    Some(val)
}

/// Backtracking check that every atom in `atoms` is satisfied in `state`
/// under some extension of `val`.
fn body_satisfied(state: &ToggleState<'_>, atoms: &[&Atom], val: &mut Valuation) -> bool {
    let Some((first, rest)) = atoms.split_first() else {
        return true;
    };
    // Fully ground atoms are a straight membership probe.
    let resolved: Vec<Option<Value>> = first.terms.iter().map(|t| val.resolve(t)).collect();
    if resolved.iter().all(|v| v.is_some()) {
        let tuple = Tuple::new(
            resolved
                .into_iter()
                .map(|v| v.expect("all terms resolved"))
                .collect::<Vec<_>>(),
        );
        return state.present(first.relation.as_ref(), &tuple) && body_satisfied(state, rest, val);
    }
    for row in state.rows(first.relation.as_ref()) {
        if row.arity() != first.terms.len() {
            continue;
        }
        let mut bound_here = Vec::new();
        let mut ok = true;
        for (term, value) in first.terms.iter().zip(row.iter()) {
            match val.resolve(term) {
                Some(v) => {
                    if &v != value {
                        ok = false;
                        break;
                    }
                }
                None => {
                    let var = term
                        .as_var()
                        .expect("unresolved term must be a variable")
                        .clone();
                    val.bind(var.clone(), value.clone());
                    bound_here.push(var);
                }
            }
        }
        if ok && body_satisfied(state, rest, val) {
            return true;
        }
        for var in bound_here {
            val.unbind(&var);
        }
    }
    false
}

/// Can `rec` run *now* in `state`? On success the state is advanced and
/// the undo log returned.
fn try_apply(state: &mut ToggleState<'_>, rec: &GroundedRec) -> Option<Undo> {
    if let Some(txn) = &rec.txn {
        let mut val = valuation_from_ops(txn, &rec.ops)?;
        let required: Vec<&Atom> = txn.required_body().map(|b| &b.atom).collect();
        if !body_satisfied(state, &required, &mut val) {
            return None;
        }
    }
    state.apply_clean(&rec.ops)
}

// ---------------------------------------------------------------------------
// Schedule search
// ---------------------------------------------------------------------------

fn mask_of(scheduled: &[bool]) -> Vec<u64> {
    let mut mask = vec![0u64; scheduled.len().div_ceil(64)];
    for (i, s) in scheduled.iter().enumerate() {
        if *s {
            mask[i / 64] |= 1 << (i % 64);
        }
    }
    mask
}

struct Search<'a> {
    recs: &'a [GroundedRec],
    budget: usize,
    explored: usize,
    failed: HashSet<Vec<u64>>,
}

impl Search<'_> {
    /// Returns `Some(true)` when a completion exists, `Some(false)` when
    /// provably none does, `None` on budget exhaustion.
    fn dfs(
        &mut self,
        state: &mut ToggleState<'_>,
        scheduled: &mut [bool],
        order: &mut Vec<usize>,
    ) -> Option<bool> {
        if order.len() == self.recs.len() {
            return Some(true);
        }
        if self.explored >= self.budget {
            return None;
        }
        let mask = mask_of(scheduled);
        if self.failed.contains(&mask) {
            return Some(false);
        }
        for i in 0..self.recs.len() {
            if scheduled[i] {
                continue;
            }
            self.explored += 1;
            if let Some(undo) = try_apply(state, &self.recs[i]) {
                scheduled[i] = true;
                order.push(i);
                match self.dfs(state, scheduled, order) {
                    Some(true) => return Some(true),
                    Some(false) => {}
                    None => return None,
                }
                order.pop();
                scheduled[i] = false;
                state.rollback(undo);
            }
        }
        self.failed.insert(mask);
        Some(false)
    }
}

/// Decide whether the epoch's grounded outcomes are serializable against
/// the `base` snapshot (see module docs for the exact statement).
pub fn check_serializable(
    base: &Database,
    recs: &[GroundedRec],
    node_budget: usize,
) -> (SerOutcome, bool) {
    if recs.is_empty() {
        return (SerOutcome::Serializable { order: Vec::new() }, true);
    }
    // Greedy pass: WAL order is the engine's own application order and is
    // almost always a witness.
    let mut state = ToggleState::new(base);
    let mut order = Vec::with_capacity(recs.len());
    let mut greedy_ok = true;
    for (i, rec) in recs.iter().enumerate() {
        if try_apply(&mut state, rec).is_some() {
            order.push(i);
        } else {
            greedy_ok = false;
            break;
        }
    }
    if greedy_ok {
        return (SerOutcome::Serializable { order }, true);
    }
    // Full search.
    let mut state = ToggleState::new(base);
    let mut scheduled = vec![false; recs.len()];
    let mut order = Vec::with_capacity(recs.len());
    let mut search = Search {
        recs,
        budget: node_budget,
        explored: 0,
        failed: HashSet::new(),
    };
    match search.dfs(&mut state, &mut scheduled, &mut order) {
        Some(true) => (SerOutcome::Serializable { order }, false),
        None => (
            SerOutcome::Inconclusive {
                explored: search.explored,
            },
            false,
        ),
        Some(false) => {
            let labels: Vec<String> = recs.iter().map(GroundedRec::label).collect();
            (
                SerOutcome::Violation {
                    detail: format!(
                        "no serial order over {} grounded outcomes [{}] satisfies every body \
                         and applies every update cleanly",
                        recs.len(),
                        labels.join(", ")
                    ),
                },
                false,
            )
        }
    }
}

// ---------------------------------------------------------------------------
// Read explainability support
// ---------------------------------------------------------------------------

/// A possible world as the checker reads it: the base's rows minus the
/// world's deletes, plus its inserts, from the overlay's net delta alone.
/// Deliberately naive — a filtered scan per lookup, no shared code with
/// the engine's read mode or the solver's candidate streams — so a world
/// is read independently of how the engine reads it.
pub struct WorldView<'a> {
    base: &'a Database,
    world: &'a Overlay,
}

impl<'a> WorldView<'a> {
    /// `world` over `base`.
    pub fn new(base: &'a Database, world: &'a Overlay) -> Self {
        WorldView { base, world }
    }
}

impl TupleView for WorldView<'_> {
    fn arity_of(&self, relation: &str) -> Result<usize, StorageError> {
        self.base.arity_of(relation)
    }

    fn count_rows(&self, relation: &str, bound: &[Option<Value>]) -> Result<usize, StorageError> {
        Ok(self.matching_rows(relation, bound)?.len())
    }

    fn matching_rows(
        &self,
        relation: &str,
        bound: &[Option<Value>],
    ) -> Result<Vec<Tuple>, StorageError> {
        let rid = self.base.resolve(relation)?;
        let (inserted, deleted): (Vec<_>, Vec<_>) = self.world.deltas_of(rid).partition(|d| d.0);
        let kept = |row: &&Tuple| !deleted.iter().any(|(_, t)| t == row);
        let base_rows = self.base.table_by_id(rid).iter().filter(kept);
        let rows = base_rows.chain(inserted.into_iter().map(|(_, t)| t));
        Ok(rows
            .filter(|row| Table::matches(row, bound))
            .cloned()
            .collect())
    }
}

/// Evaluate a conjunctive query (logic atoms) against any tuple view
/// with the storage layer's reference evaluator — the checker's own,
/// public-API-only counterpart of the engine's read mode, so read
/// answers are verified by an independent code path.
pub fn eval_atoms<V: TupleView + ?Sized>(
    view: &V,
    atoms: &[Atom],
) -> Result<Vec<Valuation>, StorageError> {
    let empty = Valuation::new();
    let patterns = atoms.iter().map(|a| a.to_pattern(&empty)).collect();
    let out = ConjunctiveQuery::new(patterns).eval(view)?;
    let mut by_id = std::collections::BTreeMap::new();
    for a in atoms {
        for v in a.vars() {
            by_id.entry(v.id()).or_insert_with(|| v.clone());
        }
    }
    Ok(out
        .bindings
        .into_iter()
        .map(|b| {
            let mut val = Valuation::new();
            for (id, value) in b {
                val.bind(by_id[&id].clone(), value);
            }
            val
        })
        .collect())
}

/// A canonical, order-insensitive form of one answer row.
pub type CanonRow = Vec<(String, Value)>;

/// A canonical answer set: sorted canonical rows.
pub type CanonSet = Vec<CanonRow>;

/// Canonicalize one valuation by variable *name* (names are unique within
/// a parsed query).
pub fn canon_row(val: &Valuation) -> CanonRow {
    let mut row: CanonRow = val
        .iter()
        .map(|(var, value)| (var.name().to_string(), value.clone()))
        .collect();
    row.sort();
    row
}

/// Canonicalize a whole answer set (row order is evaluation-order noise).
pub fn canon_set(answers: &[Valuation]) -> CanonSet {
    let mut set: CanonSet = answers.iter().map(canon_row).collect();
    set.sort();
    set
}

/// Canonicalize a family of answer sets (POSSIBLE results).
pub fn canon_family(families: &[Vec<Valuation>]) -> BTreeSet<CanonSet> {
    families.iter().map(|f| canon_set(f)).collect()
}

fn render_tuple(t: &Tuple) -> String {
    let parts: Vec<String> = t.iter().map(|v| format!("{v}")).collect();
    format!("({})", parts.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdb_logic::parse_transaction;
    use qdb_storage::{tuple, Schema, ValueType};

    fn base() -> Database {
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
        db.insert("Available", tuple![1, "1A"]).unwrap();
        db.insert("Available", tuple![1, "1B"]).unwrap();
        db
    }

    fn booking(user: &str, seat: &str) -> GroundedRec {
        let txn = parse_transaction(&format!(
            "-Available(1, s), +Bookings('{user}', 1, s) :-1 Available(1, s)"
        ))
        .unwrap();
        GroundedRec {
            id: Some(1),
            ops: vec![
                WriteOp::delete("Available", tuple![1, seat]),
                WriteOp::insert("Bookings", tuple![user, 1, seat]),
            ],
            txn: Some(txn),
        }
    }

    #[test]
    fn wal_order_is_accepted_greedily() {
        let db = base();
        let recs = vec![booking("a", "1A"), booking("b", "1B")];
        let (outcome, greedy) = check_serializable(&db, &recs, 10_000);
        assert!(matches!(outcome, SerOutcome::Serializable { .. }));
        assert!(greedy);
    }

    #[test]
    fn reordering_is_found_by_search() {
        let db = base();
        // A blind re-insert of 1A first in WAL order, then a booking that
        // consumed 1A: greedy fails (inserting a present tuple), but the
        // schedule [booking, insert] is valid.
        let recs = vec![
            GroundedRec {
                id: None,
                txn: None,
                ops: vec![WriteOp::insert("Available", tuple![1, "1A"])],
            },
            booking("a", "1A"),
        ];
        let (outcome, greedy) = check_serializable(&db, &recs, 10_000);
        assert!(!greedy);
        match outcome {
            SerOutcome::Serializable { order } => assert_eq!(order, vec![1, 0]),
            other => panic!("expected serializable, got {other:?}"),
        }
    }

    #[test]
    fn impossible_outcome_is_a_violation() {
        let db = base();
        // Two bookings both claim seat 1A: the second delete can never
        // apply cleanly in any order.
        let recs = vec![booking("a", "1A"), booking("b", "1A")];
        let (outcome, _) = check_serializable(&db, &recs, 10_000);
        assert!(matches!(outcome, SerOutcome::Violation { .. }));
    }

    #[test]
    fn unsatisfied_body_is_a_violation() {
        let db = base();
        // The op set pretends seat 9Z was available; no order makes the
        // body true because the base never held it.
        let recs = vec![booking("a", "9Z")];
        let (outcome, _) = check_serializable(&db, &recs, 10_000);
        assert!(matches!(outcome, SerOutcome::Violation { .. }));
    }

    #[test]
    fn canon_forms_ignore_order() {
        let db = base();
        let atoms = qdb_logic::parse_query("Available(f, s)").unwrap().atoms;
        let mut answers = eval_atoms(&db, &atoms).unwrap();
        assert_eq!(answers.len(), 2);
        let c1 = canon_set(&answers);
        answers.reverse();
        assert_eq!(c1, canon_set(&answers));
    }
}
