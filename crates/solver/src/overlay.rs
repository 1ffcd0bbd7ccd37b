//! Virtual database states: base database + pending updates.
//!
//! When checking whether transaction `Ti` can ground, its body atoms must be
//! evaluated against the database **as modified by the updates of
//! `T0..Ti-1`** under their chosen groundings (Definition 3.1). `Overlay`
//! provides that view without copying the base: per-relation insert/delete
//! deltas with a journal for cheap backtracking.
//!
//! Deltas are keyed by interned [`RelationId`]s (dense vector index — no
//! string hashing anywhere on the search's per-node path), and candidate
//! enumeration **streams**: [`Overlay::stream`] yields one visible tuple at
//! a time from an index-narrowed base cursor chained with the overlay
//! insert set, instead of materializing a `Vec` per search node.
//!
//! # The counting contract
//!
//! Two invariants of [`Overlay::apply_id`] make counting arithmetic
//! instead of a walk. A delete of a tuple the base lacks is journaled as a
//! no-op, so **`deletes ⊆ base`**; an insert of a visible tuple is
//! refused and an insert of a deleted one cancels the delete, so
//! **`inserts ∩ base = ∅`**. The visible tuples matching a pattern
//! therefore number `base matches − matching deletes + matching inserts`,
//! and [`Overlay::count_up_to_id`] reads the first term from an index
//! bucket length whenever [`Table::count_up_to`] can. The delta sets are
//! ordered by tuple, so a pattern that binds the leading column consults
//! them through a range over that value rather than a filter over every
//! pending update; a fully bound pattern is a membership probe.

use std::collections::BTreeSet;
use std::ops::Bound;

use qdb_storage::{Database, RelationId, Table, TableCursor, Tuple, Value, WriteOp};

use crate::error::SolverError;
use crate::Result;

/// One journal entry (how to undo an applied op). Relations are interned
/// ids, so journaling is copy-only apart from the tuple refcount.
#[derive(Debug, Clone)]
enum Undo {
    /// Remove `tuple` from the insert set of the relation.
    UnInsert { rid: RelationId, tuple: Tuple },
    /// Remove `tuple` from the delete set of the relation.
    UnDelete { rid: RelationId, tuple: Tuple },
    /// Re-add `tuple` to the delete set (an insert cancelled the delete).
    ReDelete { rid: RelationId, tuple: Tuple },
    /// Re-add `tuple` to the insert set (a delete cancelled the insert).
    ReInsert { rid: RelationId, tuple: Tuple },
    /// The op was a no-op (delete of an absent tuple).
    Noop,
}

/// A rollback point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverlayMark(usize);

/// Per-relation insert/delete deltas.
#[derive(Debug, Default, Clone)]
struct OverlayRel {
    inserts: BTreeSet<Tuple>,
    deletes: BTreeSet<Tuple>,
}

/// Insert/delete deltas on top of a base [`Database`], keyed by interned
/// relation id.
#[derive(Debug, Default, Clone)]
pub struct Overlay {
    rels: Vec<OverlayRel>,
    journal: Vec<Undo>,
}

impl Overlay {
    /// Empty overlay (view = base).
    pub fn new() -> Self {
        Overlay::default()
    }

    fn rel(&self, rid: RelationId) -> Option<&OverlayRel> {
        self.rels.get(rid.index())
    }

    fn rel_mut(&mut self, rid: RelationId) -> &mut OverlayRel {
        if rid.index() >= self.rels.len() {
            self.rels.resize_with(rid.index() + 1, OverlayRel::default);
        }
        &mut self.rels[rid.index()]
    }

    /// Is `tuple` visible in `base + self`? (String-keyed convenience —
    /// resolves once; hot paths use [`Overlay::visible_id`].)
    pub fn visible(&self, base: &Database, relation: &str, tuple: &Tuple) -> bool {
        base.try_resolve(relation)
            .is_some_and(|rid| self.visible_id(base, rid, tuple))
    }

    /// Is `tuple` visible in `base + self`?
    pub fn visible_id(&self, base: &Database, rid: RelationId, tuple: &Tuple) -> bool {
        self.probe(base, rid, tuple.values()).is_some()
    }

    /// The visible tuple of `rid` equal to `values`: overlay membership
    /// tests plus one primary-key probe of the base.
    fn probe<'a>(
        &'a self,
        base: &'a Database,
        rid: RelationId,
        values: &[Value],
    ) -> Option<&'a Tuple> {
        if let Some(rel) = self.rel(rid) {
            if let Some(inserted) = rel.inserts.get(values) {
                return Some(inserted);
            }
            if rel.deletes.contains(values) {
                return None;
            }
        }
        base.table_by_id(rid).point(values)
    }

    /// Is `tuple` in the relation's overlay delete set?
    fn is_deleted(&self, rid: RelationId, tuple: &Tuple) -> bool {
        self.rel(rid).is_some_and(|r| r.deletes.contains(tuple))
    }

    /// The smallest overlay insert of `rid` strictly greater than `after`
    /// (`None` = from the start) that matches `bound`. Resumable-cursor
    /// primitive behind [`CandidateIter`]: because it re-seeks by value, it
    /// stays correct even though the insert set may have been mutated and
    /// restored between calls.
    fn next_insert(
        &self,
        rid: RelationId,
        after: Option<&Tuple>,
        bound: &[Option<Value>],
    ) -> Option<Tuple> {
        matching(&self.rel(rid)?.inserts, bound, after)
            .next()
            .cloned()
    }

    /// All visible tuples of `relation` matching the column constraints
    /// `bound` (`Some(v)` pins a column), **materialized**. Base rows come
    /// first (in key order), then overlay inserts (in tuple order) —
    /// deterministic.
    ///
    /// This is the reference implementation the streaming
    /// [`Overlay::stream`] and the arithmetic [`Overlay::count_up_to_id`]
    /// are property-tested against; the solver's hot path never calls it.
    /// It shares nothing with them: a full scan of the table and a linear
    /// filter of both delta sets — no index, no point probe, no range.
    /// Every call counts itself in
    /// `stats.candidate_vecs`, which is how "zero materializations on the
    /// fast path" stays a *checkable* claim rather than a vacuous one.
    pub fn candidates(
        &self,
        base: &Database,
        relation: &str,
        bound: &[Option<Value>],
        stats: &mut crate::stats::SolverStats,
    ) -> Result<Vec<Tuple>> {
        stats.candidate_vecs += 1;
        let rid = base.resolve(relation).map_err(SolverError::Storage)?;
        let table = base.table_by_id(rid);
        check_arity(table, relation, bound)?;
        let empty = BTreeSet::new();
        let (deleted, inserts) = match self.rel(rid) {
            Some(rel) => (&rel.deletes, &rel.inserts),
            None => (&empty, &empty),
        };
        let mut out: Vec<Tuple> = table
            .iter()
            .filter(|t| Table::matches(t, bound) && !deleted.contains(*t))
            .cloned()
            .collect();
        out.extend(inserts.iter().filter(|t| Table::matches(t, bound)).cloned());
        Ok(out)
    }

    /// Open a **streaming** candidate cursor over the visible tuples of
    /// `rid` matching `bound`: an index-narrowed base cursor with overlay
    /// deletes filtered in place, chained with the overlay insert set.
    /// Yields exactly the sequence [`Overlay::candidates`] would
    /// materialize, one refcount-bump [`Tuple`] at a time — zero per-node
    /// vectors. A fully bound pattern is resolved here, by one membership
    /// probe, to the zero or one tuple the walk would yield.
    ///
    /// The cursor borrows the *base* only; the overlay **and the pattern**
    /// are passed to each [`CandidateIter::next`] call, so the caller may
    /// mutate (and restore) both between pulls — which is exactly what the
    /// backtracking search does.
    pub fn stream<'a>(
        &self,
        base: &'a Database,
        rid: RelationId,
        bound: &[Option<Value>],
    ) -> Result<CandidateIter<'a>> {
        let table = base.table_by_id(rid);
        check_arity(table, base.relation_name(rid), bound)?;
        let inner = match Table::with_point(bound, |v| self.probe(base, rid, v).cloned()) {
            Some(hit) => IterInner::Point(hit),
            None => IterInner::Walk {
                base: table.cursor(bound),
                base_done: false,
                last_insert: None,
            },
        };
        Ok(CandidateIter { rid, inner })
    }

    /// Count of visible tuples matching `bound`, saturating at `cap`
    /// (used by the dynamic atom ordering to pick the most constrained
    /// atom first; beyond the cap relative order no longer matters).
    pub fn count_up_to(
        &self,
        base: &Database,
        relation: &str,
        bound: &[Option<Value>],
        cap: usize,
    ) -> Result<usize> {
        let rid = base.resolve(relation).map_err(SolverError::Storage)?;
        self.count_up_to_id(base, rid, bound, cap).map(|(n, _)| n)
    }

    /// Count of visible tuples matching `bound` (saturating at `cap`) plus
    /// whether the base portion was answered from an index. Arithmetic, per
    /// the module's counting contract: `min(cap, base matches − matching
    /// overlay deletes) + matching overlay inserts`, where the base term is
    /// [`Table::count_up_to`] — an index bucket length when a single bound
    /// column is indexed — asked for just enough rows to survive the
    /// subtraction. A fully bound pattern is one membership probe.
    pub fn count_up_to_id(
        &self,
        base: &Database,
        rid: RelationId,
        bound: &[Option<Value>],
        cap: usize,
    ) -> Result<(usize, bool)> {
        let table = base.table_by_id(rid);
        check_arity(table, base.relation_name(rid), bound)?;
        if let Some(hit) = Table::with_point(bound, |v| self.probe(base, rid, v).is_some()) {
            return Ok((usize::from(hit).min(cap), true));
        }
        let Some(rel) = self.rel(rid) else {
            return Ok(table.count_up_to(bound, cap));
        };
        let deleted = matching(&rel.deletes, bound, None)
            .inspect(|t| debug_assert!(table.contains(t), "overlay delete {t} not in base"))
            .count();
        let (in_base, index_backed) = table.count_up_to(bound, cap.saturating_add(deleted));
        // `deletes ⊆ base` makes this exact; were it ever broken, only the
        // atom ordering (never the search's answers) would see the error.
        let n = in_base.saturating_sub(deleted);
        let inserted = matching(&rel.inserts, bound, None).take(cap - n).count();
        Ok((n + inserted, index_backed))
    }

    /// Exact count of visible tuples matching `bound`.
    pub fn count(&self, base: &Database, relation: &str, bound: &[Option<Value>]) -> Result<usize> {
        self.count_up_to(base, relation, bound, usize::MAX)
    }

    /// Apply a write op on the virtual state (resolves the relation name
    /// once; hot paths use [`Overlay::apply_id`]).
    ///
    /// * insert of a visible tuple → `Err` — set semantics make the
    ///   grounding that produced this op inconsistent, the caller
    ///   backtracks;
    /// * insert that re-creates a deleted tuple → cancels the delete;
    /// * delete of an overlay-inserted tuple → cancels the insert;
    /// * delete of an absent tuple → journaled no-op (blind deletes are
    ///   silent no-ops in SQL, and the Lemma 3.4 proof never relies on a
    ///   deleted tuple having existed).
    pub fn apply(&mut self, base: &Database, op: &WriteOp) -> Result<bool> {
        let rid = base.resolve(op.relation()).map_err(SolverError::Storage)?;
        self.apply_id(base, rid, op.is_insert(), op.tuple())
    }

    /// Apply one update on the virtual state, by interned relation id. See
    /// [`Overlay::apply`] for the semantics.
    ///
    /// Maintains the counting contract: a tuple enters `deletes` only when
    /// the base holds it, and enters `inserts` only when the base lacks it
    /// (re-inserting a deleted tuple cancels the delete instead).
    pub fn apply_id(
        &mut self,
        base: &Database,
        rid: RelationId,
        insert: bool,
        tuple: &Tuple,
    ) -> Result<bool> {
        self.transition(base, rid, insert, tuple).ok_or_else(|| {
            SolverError::CacheInconsistent(format!(
                "insert of visible tuple {}{tuple}",
                base.relation_name(rid)
            ))
        })
    }

    /// The state transition behind [`Overlay::apply_id`] and
    /// [`Overlay::try_apply_id`]: `Some(changed)` once journaled, `None`
    /// when an insert would duplicate a visible tuple (nothing changed,
    /// nothing journaled). Each delta set is touched at most once.
    fn transition(
        &mut self,
        base: &Database,
        rid: RelationId,
        insert: bool,
        tuple: &Tuple,
    ) -> Option<bool> {
        let in_base = || base.contains_id(rid, tuple);
        let rel = self.rel_mut(rid);
        let tuple = tuple.clone();
        let undo = if insert {
            if rel.deletes.remove(&tuple) {
                Undo::ReDelete { rid, tuple }
            } else if in_base() || !rel.inserts.insert(tuple.clone()) {
                return None;
            } else {
                Undo::UnInsert { rid, tuple }
            }
        } else if rel.inserts.remove(&tuple) {
            Undo::ReInsert { rid, tuple }
        } else if in_base() && rel.deletes.insert(tuple.clone()) {
            Undo::UnDelete { rid, tuple }
        } else {
            Undo::Noop
        };
        let changed = !matches!(undo, Undo::Noop);
        self.journal.push(undo);
        Some(changed)
    }

    /// Apply an op, treating an insert-conflict as a soft failure (`false`)
    /// rather than an error, and rolling nothing back. Used by the search,
    /// which backtracks on `false`.
    pub fn try_apply(&mut self, base: &Database, op: &WriteOp) -> bool {
        match base.try_resolve(op.relation()) {
            Some(rid) => self.try_apply_id(base, rid, op.is_insert(), op.tuple()),
            None => false,
        }
    }

    /// [`Overlay::try_apply`] by interned relation id.
    pub fn try_apply_id(
        &mut self,
        base: &Database,
        rid: RelationId,
        insert: bool,
        tuple: &Tuple,
    ) -> bool {
        self.transition(base, rid, insert, tuple).is_some()
    }

    /// Current rollback point.
    pub fn mark(&self) -> OverlayMark {
        OverlayMark(self.journal.len())
    }

    /// Undo every op applied since `mark`.
    pub fn rollback(&mut self, mark: OverlayMark) {
        while self.journal.len() > mark.0 {
            match self.journal.pop().expect("journal non-empty") {
                Undo::UnInsert { rid, tuple } => {
                    self.rels[rid.index()].inserts.remove(&tuple);
                }
                Undo::UnDelete { rid, tuple } => {
                    self.rels[rid.index()].deletes.remove(&tuple);
                }
                Undo::ReDelete { rid, tuple } => {
                    self.rels[rid.index()].deletes.insert(tuple);
                }
                Undo::ReInsert { rid, tuple } => {
                    self.rels[rid.index()].inserts.insert(tuple);
                }
                Undo::Noop => {}
            }
        }
    }

    /// Take one applied update back out of the delta sets, as if it had
    /// never been applied — the inverse of [`Overlay::apply_id`] for an
    /// update whose transaction leaves the virtual state. `false` (nothing
    /// removed) when the delta is not there: the op was a no-op, or a
    /// later op on the same tuple cancelled it. Exact only when no other
    /// applied update touches `tuple`; the caller establishes that. The
    /// journal restarts empty, so earlier marks are void.
    pub fn retract_id(&mut self, rid: RelationId, insert: bool, tuple: &Tuple) -> bool {
        self.journal.clear();
        self.rels.get_mut(rid.index()).is_some_and(|rel| {
            if insert {
                rel.inserts.remove(tuple)
            } else {
                rel.deletes.remove(tuple)
            }
        })
    }

    /// The deltas on `rid` as `(is_insert, tuple)`: the deletes, then the
    /// inserts — an order that replays onto a keyed view without a
    /// transient key clash.
    pub fn deltas_of(&self, rid: RelationId) -> impl Iterator<Item = (bool, &Tuple)> {
        self.rel(rid).into_iter().flat_map(|rel| {
            let deletes = rel.deletes.iter().map(|t| (false, t));
            deletes.chain(rel.inserts.iter().map(|t| (true, t)))
        })
    }

    /// Number of journaled operations.
    pub fn journal_len(&self) -> usize {
        self.journal.len()
    }

    /// Do two overlays describe the same virtual-state deltas (journal
    /// history ignored)? Used by debug assertions that validate cached
    /// overlays against freshly built ones.
    pub fn same_deltas(&self, other: &Overlay) -> bool {
        let longest = self.rels.len().max(other.rels.len());
        let empty = OverlayRel::default();
        (0..longest).all(|i| {
            let a = self.rels.get(i).unwrap_or(&empty);
            let b = other.rels.get(i).unwrap_or(&empty);
            a.inserts == b.inserts && a.deletes == b.deletes
        })
    }

    /// Materialize the overlay into the base database (used when grounding
    /// is final rather than speculative). Consumes the overlay.
    pub fn commit_into(self, base: &mut Database) -> Result<()> {
        for (i, rel) in self.rels.iter().enumerate() {
            let rid = rid_at(i);
            for t in &rel.deletes {
                base.delete_id(rid, t)?;
            }
            for t in &rel.inserts {
                base.insert_id(rid, t.clone())?;
            }
        }
        Ok(())
    }
}

/// Reconstruct a [`RelationId`] from a dense index (the overlay's vector
/// position mirrors the database's id space).
fn rid_at(index: usize) -> RelationId {
    // The only way indexes enter the overlay is through RelationIds the
    // database handed out, so a round-trip through the public resolve API
    // is not needed; the id space is dense by construction.
    RelationId::from_index(index)
}

fn check_arity(table: &Table, relation: &str, bound: &[Option<Value>]) -> Result<()> {
    if bound.len() != table.schema().arity() {
        return Err(SolverError::Storage(
            qdb_storage::StorageError::ArityMismatch {
                relation: relation.to_string(),
                expected: table.schema().arity(),
                got: bound.len(),
            },
        ));
    }
    Ok(())
}

/// The tuples of one delta set that match `bound`, in tuple order,
/// strictly after `after` (a tuple this very call sequence yielded
/// earlier, `None` = from the start). When the pattern binds the leading
/// column the set is entered through the range of that value, so the cost
/// follows the tuples sharing it, not the whole set.
fn matching<'s>(
    set: &'s BTreeSet<Tuple>,
    bound: &'s [Option<Value>],
    after: Option<&Tuple>,
) -> impl Iterator<Item = &'s Tuple> {
    let lead = bound.first().and_then(Option::as_ref);
    let lower: Bound<&[Value]> = match (after, lead) {
        (Some(t), _) => Bound::Excluded(t.values()),
        (None, Some(v)) => Bound::Included(std::slice::from_ref(v)),
        (None, None) => Bound::Unbounded,
    };
    set.range::<[Value], _>((lower, Bound::Unbounded))
        .take_while(move |t| lead.is_none_or(|v| &t[0] == v))
        .filter(move |t| Table::matches(t, bound))
}

/// Streaming candidate cursor — see [`Overlay::stream`].
///
/// Not a [`std::iter::Iterator`]: each pull takes the overlay by shared
/// reference so the search can hold the cursor open across overlay
/// mutations that it rolls back before the next pull.
#[derive(Debug)]
pub struct CandidateIter<'a> {
    rid: RelationId,
    inner: IterInner<'a>,
}

#[derive(Debug)]
enum IterInner<'a> {
    /// A fully bound pattern, resolved when the stream was opened.
    Point(Option<Tuple>),
    /// Base rows through the table cursor, then the overlay inserts.
    Walk {
        base: TableCursor<'a>,
        base_done: bool,
        last_insert: Option<Tuple>,
    },
}

impl<'a> CandidateIter<'a> {
    /// The next visible candidate, or `None` when exhausted. `bound` must
    /// be the pattern the stream was opened with (the search's undo
    /// discipline restores it before every pull).
    pub fn next(&mut self, overlay: &Overlay, bound: &[Option<Value>]) -> Option<Tuple> {
        match &mut self.inner {
            IterInner::Point(hit) => hit.take(),
            IterInner::Walk {
                base,
                base_done,
                last_insert,
            } => {
                if !*base_done {
                    for row in base.by_ref() {
                        if Table::matches(row, bound) && !overlay.is_deleted(self.rid, row) {
                            return Some(row.clone());
                        }
                    }
                    *base_done = true;
                }
                let next = overlay.next_insert(self.rid, last_insert.as_ref(), bound)?;
                *last_insert = Some(next.clone());
                Some(next)
            }
        }
    }

    /// Was the base portion answered from an index (a secondary index
    /// bucket, or the primary key for a fully bound pattern)?
    pub fn is_index_backed(&self) -> bool {
        match &self.inner {
            IterInner::Point(_) => true,
            IterInner::Walk { base, .. } => base.is_index_backed(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdb_storage::{tuple, Schema, ValueType};

    fn base() -> Database {
        let mut db = Database::new();
        db.create_table(Schema::new(
            "A",
            vec![("flight", ValueType::Int), ("seat", ValueType::Str)],
        ))
        .unwrap();
        db.insert("A", tuple![1, "1A"]).unwrap();
        db.insert("A", tuple![1, "1B"]).unwrap();
        db
    }

    #[test]
    fn visibility_tracks_deltas() {
        let db = base();
        let mut ov = Overlay::new();
        assert!(ov.visible(&db, "A", &tuple![1, "1A"]));
        ov.apply(&db, &WriteOp::delete("A", tuple![1, "1A"]))
            .unwrap();
        assert!(!ov.visible(&db, "A", &tuple![1, "1A"]));
        ov.apply(&db, &WriteOp::insert("A", tuple![2, "9Z"]))
            .unwrap();
        assert!(ov.visible(&db, "A", &tuple![2, "9Z"]));
        assert!(!db.contains("A", &tuple![2, "9Z"])); // base untouched
    }

    #[test]
    fn insert_conflict_detected() {
        let db = base();
        let mut ov = Overlay::new();
        assert!(ov
            .apply(&db, &WriteOp::insert("A", tuple![1, "1A"]))
            .is_err());
        assert!(!ov.try_apply(&db, &WriteOp::insert("A", tuple![1, "1A"])));
        // Deleting first clears the way.
        ov.apply(&db, &WriteOp::delete("A", tuple![1, "1A"]))
            .unwrap();
        assert!(ov.try_apply(&db, &WriteOp::insert("A", tuple![1, "1A"])));
        assert!(ov.visible(&db, "A", &tuple![1, "1A"]));
    }

    #[test]
    fn delete_of_absent_is_noop() {
        let db = base();
        let mut ov = Overlay::new();
        assert!(!ov
            .apply(&db, &WriteOp::delete("A", tuple![9, "XX"]))
            .unwrap());
    }

    #[test]
    fn candidates_merge_base_and_overlay() {
        let db = base();
        let mut ov = Overlay::new();
        ov.apply(&db, &WriteOp::delete("A", tuple![1, "1A"]))
            .unwrap();
        ov.apply(&db, &WriteOp::insert("A", tuple![1, "1C"]))
            .unwrap();
        let bound = vec![Some(Value::from(1)), None];
        let cands = ov
            .candidates(&db, "A", &bound, &mut Default::default())
            .unwrap();
        let seats: Vec<&str> = cands.iter().map(|t| t[1].as_str().unwrap()).collect();
        assert_eq!(seats, vec!["1B", "1C"]);
        assert_eq!(ov.count(&db, "A", &bound).unwrap(), 2);
    }

    #[test]
    fn stream_yields_exactly_the_materialized_sequence() {
        let db = base();
        let mut ov = Overlay::new();
        ov.apply(&db, &WriteOp::delete("A", tuple![1, "1A"]))
            .unwrap();
        ov.apply(&db, &WriteOp::insert("A", tuple![1, "1C"]))
            .unwrap();
        ov.apply(&db, &WriteOp::insert("A", tuple![2, "2A"]))
            .unwrap();
        for bound in [
            vec![Some(Value::from(1)), None],
            vec![None, None],
            vec![None, Some(Value::from("1C"))],
            vec![Some(Value::from(9)), None],
        ] {
            let rid = db.resolve("A").unwrap();
            let expect = ov
                .candidates(&db, "A", &bound, &mut Default::default())
                .unwrap();
            let mut iter = ov.stream(&db, rid, &bound).unwrap();
            let mut got = Vec::new();
            while let Some(t) = iter.next(&ov, &bound) {
                got.push(t);
            }
            assert_eq!(got, expect, "bound={bound:?}");
        }
    }

    #[test]
    fn stream_survives_rolled_back_mutation_between_pulls() {
        // The search mutates the overlay between pulls and rolls back
        // before pulling again; the stream must continue the original
        // sequence.
        let db = base();
        let mut ov = Overlay::new();
        ov.apply(&db, &WriteOp::insert("A", tuple![3, "3A"]))
            .unwrap();
        ov.apply(&db, &WriteOp::insert("A", tuple![4, "4A"]))
            .unwrap();
        let rid = db.resolve("A").unwrap();
        let expect = ov
            .candidates(&db, "A", &[None, None], &mut Default::default())
            .unwrap();
        let mut iter = ov.stream(&db, rid, &[None, None]).unwrap();
        let mut got = Vec::new();
        while let Some(t) = iter.next(&ov, &[None, None]) {
            got.push(t.clone());
            // Speculative mutation + rollback, like a deeper search level.
            let mark = ov.mark();
            let _ = ov.try_apply(&db, &WriteOp::delete("A", tuple![4, "4A"]));
            let _ = ov.try_apply(&db, &WriteOp::insert("A", tuple![5, "5A"]));
            ov.rollback(mark);
        }
        assert_eq!(got, expect);
    }

    #[test]
    fn count_up_to_id_reports_index_backing() {
        let mut db = base();
        let rid = db.resolve("A").unwrap();
        let bound = vec![Some(Value::from(1)), None];
        let ov = Overlay::new();
        assert_eq!(ov.count_up_to_id(&db, rid, &bound, 10).unwrap(), (2, false));
        db.table_mut("A").unwrap().create_index(0).unwrap();
        assert_eq!(ov.count_up_to_id(&db, rid, &bound, 10).unwrap(), (2, true));
        // Overlay deletes are subtracted from the bucket length; the cap
        // applies to what is left.
        let mut ov = Overlay::new();
        ov.apply(&db, &WriteOp::delete("A", tuple![1, "1A"]))
            .unwrap();
        assert_eq!(ov.count_up_to_id(&db, rid, &bound, 10).unwrap(), (1, true));
        assert_eq!(ov.count_up_to_id(&db, rid, &bound, 0).unwrap(), (0, true));
        ov.apply(&db, &WriteOp::insert("A", tuple![1, "1C"]))
            .unwrap();
        assert_eq!(ov.count_up_to_id(&db, rid, &bound, 10).unwrap(), (2, true));
        assert_eq!(ov.count_up_to_id(&db, rid, &bound, 1).unwrap(), (1, true));
        // Fully bound: a probe, whatever the indexes.
        let gone = vec![Some(Value::from(1)), Some(Value::from("1A"))];
        let added = vec![Some(Value::from(1)), Some(Value::from("1C"))];
        assert_eq!(ov.count_up_to_id(&db, rid, &gone, 10).unwrap(), (0, true));
        assert_eq!(ov.count_up_to_id(&db, rid, &added, 10).unwrap(), (1, true));
    }

    #[test]
    fn rollback_restores_exact_state() {
        let db = base();
        let mut ov = Overlay::new();
        ov.apply(&db, &WriteOp::delete("A", tuple![1, "1A"]))
            .unwrap();
        let mark = ov.mark();
        ov.apply(&db, &WriteOp::insert("A", tuple![1, "1A"]))
            .unwrap(); // cancels delete
        ov.apply(&db, &WriteOp::insert("A", tuple![3, "3C"]))
            .unwrap();
        ov.apply(&db, &WriteOp::delete("A", tuple![1, "1B"]))
            .unwrap();
        ov.apply(&db, &WriteOp::delete("A", tuple![3, "3C"]))
            .unwrap(); // cancels insert
        assert!(ov.visible(&db, "A", &tuple![1, "1A"]));
        ov.rollback(mark);
        assert!(!ov.visible(&db, "A", &tuple![1, "1A"]));
        assert!(ov.visible(&db, "A", &tuple![1, "1B"]));
        assert!(!ov.visible(&db, "A", &tuple![3, "3C"]));
        assert_eq!(ov.journal_len(), 1);
    }

    #[test]
    fn commit_into_materializes() {
        let mut db = base();
        let mut ov = Overlay::new();
        ov.apply(&db, &WriteOp::delete("A", tuple![1, "1A"]))
            .unwrap();
        ov.apply(&db, &WriteOp::insert("A", tuple![7, "7A"]))
            .unwrap();
        ov.commit_into(&mut db).unwrap();
        assert!(!db.contains("A", &tuple![1, "1A"]));
        assert!(db.contains("A", &tuple![7, "7A"]));
    }

    #[test]
    fn insert_after_delete_then_commit() {
        // Regression shape: delete + re-insert of the same tuple must net
        // out to "present" after commit.
        let mut db = base();
        let mut ov = Overlay::new();
        ov.apply(&db, &WriteOp::delete("A", tuple![1, "1A"]))
            .unwrap();
        ov.apply(&db, &WriteOp::insert("A", tuple![1, "1A"]))
            .unwrap();
        ov.commit_into(&mut db).unwrap();
        assert!(db.contains("A", &tuple![1, "1A"]));
    }
}
