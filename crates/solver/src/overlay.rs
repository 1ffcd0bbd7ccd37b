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
//!
//! A table's key is its whole row (§3.2.1's set semantics), so one insert
//! rule covers every table: inserting a visible row is a conflict.
//!
//! # Two candidate orders
//!
//! The grounding search streams base rows first, then overlay inserts
//! ([`Overlay::stream`]): that order decides which seats it picks. Read
//! mode ([`crate::ReadSpec`]) streams the rows of the composed state in
//! tuple order, base rows and inserts merged (`Overlay::read_stream`),
//! which is the order a table holding that state iterates in.

use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};
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

impl OverlayRel {
    fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.deletes.is_empty()
    }
}

/// Insert/delete deltas on top of a base [`Database`], keyed by interned
/// relation id: the solver's virtual states, the partitions' maintained
/// pending worlds and the possible worlds `SELECT POSSIBLE` forks.
///
/// Two overlays are equal when they hold the same net delta, however
/// their journals got there — over one base, when they show the same
/// state.
///
/// ```
/// use qdb_solver::{Overlay, ReadSpec};
/// use qdb_storage::{tuple, Database, Schema, ValueType, WriteOp};
///
/// let mut db = Database::new();
/// db.create_table(Schema::new(
///     "Available",
///     vec![("flight", ValueType::Int), ("seat", ValueType::Str)],
/// ))
/// .unwrap();
/// db.insert("Available", tuple![1, "1A"]).unwrap();
/// db.insert("Available", tuple![1, "1B"]).unwrap();
///
/// // A pending booking's delete, visible through the overlay only.
/// let mut world = Overlay::new();
/// world.apply(&db, &WriteOp::delete("Available", tuple![1, "1A"])).unwrap();
///
/// let atoms = qdb_logic::parse_query("Available(1, s)").unwrap().atoms;
/// let read = ReadSpec::compile(&db, &atoms).unwrap();
/// assert_eq!(read.valuations(&db, &world, None).len(), 1);
/// assert_eq!(read.valuations(&db, &Overlay::new(), None).len(), 2); // base untouched
/// ```
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

    /// Open a **streaming** candidate cursor over the visible tuples of
    /// `rid` matching `bound`: an index-narrowed base cursor with overlay
    /// deletes filtered in place, chained with the overlay insert set —
    /// base rows first, then inserts, each in tuple order, one
    /// refcount-bump [`Tuple`] at a time, zero per-node vectors. A fully
    /// bound pattern is resolved here, by one membership probe, to the
    /// zero or one tuple the walk would yield.
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

    /// Open a **read-mode** cursor over the visible tuples of `rid`
    /// matching `bound`, in tuple order: the index-narrowed base cursor,
    /// overlay deletes filtered in place, merged with the matching overlay
    /// inserts. That is the order a table holding the composed state
    /// iterates in, so a read answers as it would on the materialized
    /// world. `bound` must have the relation's arity.
    ///
    /// The cursor borrows the overlay: read mode never mutates it. The
    /// pattern is passed to each [`ReadIter::next`], as for
    /// [`CandidateIter`].
    pub(crate) fn read_stream<'a>(
        &'a self,
        base: &'a Database,
        rid: RelationId,
        bound: &[Option<Value>],
    ) -> ReadIter<'a> {
        let rel = self.rel(rid);
        let mut merge = ReadIter {
            base: base.table_by_id(rid).cursor(bound),
            deletes: rel.map(|r| &r.deletes),
            inserts: rel.map(|r| r.inserts.range::<[Value], _>(lower_bound(bound, None))),
            next_base: None,
            next_insert: None,
        };
        merge.next_base = merge.pull_base(bound);
        merge.next_insert = merge.pull_insert(bound);
        merge
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
        check_arity(base.table_by_id(rid), base.relation_name(rid), bound)?;
        Ok(self.count_in(base, rid, bound, cap))
    }

    /// [`Overlay::count_up_to_id`] for a pattern of the relation's arity.
    pub(crate) fn count_in(
        &self,
        base: &Database,
        rid: RelationId,
        bound: &[Option<Value>],
        cap: usize,
    ) -> (usize, bool) {
        let table = base.table_by_id(rid);
        if let Some(hit) = Table::with_point(bound, |v| self.probe(base, rid, v).is_some()) {
            return (usize::from(hit).min(cap), true);
        }
        let Some(rel) = self.rel(rid) else {
            return table.count_up_to(bound, cap);
        };
        let deleted = matching(&rel.deletes, bound, None)
            .inspect(|t| debug_assert!(table.contains(t), "overlay delete {t} not in base"))
            .count();
        let (in_base, index_backed) = table.count_up_to(bound, cap.saturating_add(deleted));
        // `deletes ⊆ base` makes this exact; were it ever broken, only the
        // atom ordering (never the search's answers) would see the error.
        let n = in_base.saturating_sub(deleted);
        let inserted = matching(&rel.inserts, bound, None).take(cap - n).count();
        (n + inserted, index_backed)
    }

    /// Exact count of visible tuples matching `bound`.
    pub fn count(&self, base: &Database, relation: &str, bound: &[Option<Value>]) -> Result<usize> {
        let rid = base.resolve(relation).map_err(SolverError::Storage)?;
        self.count_up_to_id(base, rid, bound, usize::MAX)
            .map(|(n, _)| n)
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
                "insert of {}{tuple} clashes with a visible row",
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
        let in_base = || base.table_by_id(rid).contains(tuple);
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
    /// inserts, each in tuple order — the order [`Overlay::commit_into`]
    /// applies them in.
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

/// Overlays are equal when they hold the same net delta, journal history
/// ignored. The delta is canonical — a delete is recorded only for a base
/// row, an insert only for a row the base lacks, and re-inserting a
/// deleted row cancels the delete — so over one base, equal states have
/// equal deltas whatever op order built them. Debug builds check
/// maintained worlds against rebuilt ones with it, and the
/// possible-worlds enumerator deduplicates forks on it, with [`Hash`]
/// finding the candidates.
impl PartialEq for Overlay {
    fn eq(&self, other: &Overlay) -> bool {
        let longest = self.rels.len().max(other.rels.len());
        let empty = OverlayRel::default();
        (0..longest).all(|i| {
            let a = self.rels.get(i).unwrap_or(&empty);
            let b = other.rels.get(i).unwrap_or(&empty);
            a.inserts == b.inserts && a.deletes == b.deletes
        })
    }
}

impl Eq for Overlay {}

impl Hash for Overlay {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Empty relation slots are skipped, as `==` treats them as absent.
        for (i, rel) in self.rels.iter().enumerate().filter(|(_, r)| !r.is_empty()) {
            (i, rel.deletes.len()).hash(state);
            (rel.deletes.iter().chain(&rel.inserts)).for_each(|row| row.hash(state));
        }
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
    set.range::<[Value], _>(lower_bound(bound, after))
        .take_while(move |t| lead.is_none_or(|v| &t[0] == v))
        .filter(move |t| Table::matches(t, bound))
}

/// Where [`matching`] enters a delta set: past `after`, else at the
/// pattern's leading value, else at the start.
fn lower_bound<'v>(
    bound: &'v [Option<Value>],
    after: Option<&'v Tuple>,
) -> (Bound<&'v [Value]>, Bound<&'v [Value]>) {
    let lower = match (after, bound.first().and_then(Option::as_ref)) {
        (Some(t), _) => Bound::Excluded(t.values()),
        (None, Some(v)) => Bound::Included(std::slice::from_ref(v)),
        (None, None) => Bound::Unbounded,
    };
    (lower, Bound::Unbounded)
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

/// Read-mode cursor — see [`Overlay::read_stream`]. Each side holds its
/// next matching row, and the smaller tuple goes first. They never tie:
/// an insert is recorded only where the base lacks the tuple.
#[derive(Debug)]
pub(crate) struct ReadIter<'a> {
    base: TableCursor<'a>,
    deletes: Option<&'a BTreeSet<Tuple>>,
    /// The relation's insert set from the pattern's leading value on.
    inserts: Option<std::collections::btree_set::Range<'a, Tuple>>,
    next_base: Option<&'a Tuple>,
    next_insert: Option<&'a Tuple>,
}

impl<'a> ReadIter<'a> {
    /// The next visible row in tuple order, or `None` when exhausted.
    /// `bound` must be the pattern the cursor was opened with.
    pub(crate) fn next(&mut self, bound: &[Option<Value>]) -> Option<&'a Tuple> {
        let take_base = match (self.next_base, self.next_insert) {
            (Some(b), Some(i)) => b < i,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => return None,
        };
        if take_base {
            let next = self.pull_base(bound);
            std::mem::replace(&mut self.next_base, next)
        } else {
            let next = self.pull_insert(bound);
            std::mem::replace(&mut self.next_insert, next)
        }
    }

    fn pull_insert(&mut self, bound: &[Option<Value>]) -> Option<&'a Tuple> {
        let lead = bound.first().and_then(Option::as_ref);
        (self.inserts.as_mut()?)
            .take_while(|t| lead.is_none_or(|v| &t[0] == v))
            .find(|t| Table::matches(t, bound))
    }

    fn pull_base(&mut self, bound: &[Option<Value>]) -> Option<&'a Tuple> {
        let deletes = self.deletes;
        (self.base.by_ref())
            .find(|row| Table::matches(row, bound) && !deletes.is_some_and(|d| d.contains(*row)))
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
    fn apply_mirrors_database_apply_semantics() {
        let db = base();
        let mut concrete = db.clone();
        let mut ov = Overlay::new();
        // A duplicate insert is a no-op on the table but a conflict here:
        // the grounding that produced it is inconsistent.
        let dup = WriteOp::insert("A", tuple![1, "1A"]);
        assert!(!concrete.apply(&dup).unwrap());
        assert!(ov.apply(&db, &dup).is_err());
        // Every other op reports the same change as the table's and leaves
        // the same visible state, while the base stays untouched.
        for op in [
            WriteOp::delete("A", tuple![9, "XX"]),
            WriteOp::delete("A", tuple![1, "1A"]),
            WriteOp::insert("A", tuple![3, "3A"]),
            WriteOp::insert("A", tuple![1, "1A"]),
        ] {
            assert_eq!(
                ov.apply(&db, &op).unwrap(),
                concrete.apply(&op).unwrap(),
                "{op:?}"
            );
            for t in [
                tuple![1, "1A"],
                tuple![1, "1B"],
                tuple![3, "3A"],
                tuple![9, "XX"],
            ] {
                assert_eq!(
                    ov.visible(&db, "A", &t),
                    concrete.contains("A", &t),
                    "{op:?} {t}"
                );
            }
        }
        assert!(!db.contains("A", &tuple![3, "3A"]));
        // Delete-then-reinsert nets out to the base state.
        assert_eq!(ov, {
            let mut only_insert = Overlay::new();
            only_insert
                .apply(&db, &WriteOp::insert("A", tuple![3, "3A"]))
                .unwrap();
            only_insert
        });
    }

    #[test]
    fn delete_of_absent_is_noop() {
        let db = base();
        let mut ov = Overlay::new();
        assert!(!ov
            .apply(&db, &WriteOp::delete("A", tuple![9, "XX"]))
            .unwrap());
    }

    /// Everything `ov.stream` yields for `bound` on table `A`.
    fn streamed(db: &Database, ov: &Overlay, bound: &[Option<Value>]) -> Vec<Tuple> {
        let mut iter = ov.stream(db, db.resolve("A").unwrap(), bound).unwrap();
        std::iter::from_fn(|| iter.next(ov, bound)).collect()
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
        assert_eq!(
            streamed(&db, &ov, &bound),
            [tuple![1, "1B"], tuple![1, "1C"]]
        );
        let rid = db.resolve("A").unwrap();
        assert_eq!(ov.count_up_to_id(&db, rid, &bound, 9).unwrap().0, 2);
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
        // Base rows first, then the inserts.
        let (b, c, two) = (tuple![1, "1B"], tuple![1, "1C"], tuple![2, "2A"]);
        for (bound, expect) in [
            (vec![Some(Value::from(1)), None], vec![b.clone(), c.clone()]),
            (vec![None, None], vec![b, c.clone(), two]),
            (vec![None, Some(Value::from("1C"))], vec![c]),
            (vec![Some(Value::from(9)), None], vec![]),
        ] {
            assert_eq!(streamed(&db, &ov, &bound), expect, "bound={bound:?}");
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
        let expect = [
            tuple![1, "1A"],
            tuple![1, "1B"],
            tuple![3, "3A"],
            tuple![4, "4A"],
        ];
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
    fn count_up_to_uses_index_buckets_when_delta_free() {
        let mut db = base();
        db.table_mut("A").unwrap().create_index(0).unwrap();
        let rid = db.resolve("A").unwrap();
        let bound = vec![Some(Value::from(1)), None];
        let ov = Overlay::new();
        assert_eq!(ov.count_up_to_id(&db, rid, &bound, 10).unwrap(), (2, true));
        assert_eq!(ov.count_up_to_id(&db, rid, &bound, 1).unwrap(), (1, true));
        // With deletes the count still agrees with the visible rows.
        let mut ov = Overlay::new();
        ov.apply(&db, &WriteOp::delete("A", tuple![1, "1A"]))
            .unwrap();
        assert_eq!(ov.count_up_to_id(&db, rid, &bound, 10).unwrap().0, 1);
        assert_eq!(streamed(&db, &ov, &bound), [tuple![1, "1B"]]);
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
    fn equality_and_hash_follow_the_net_delta() {
        use std::hash::BuildHasher;
        let db = base();
        let (mut v1, mut v2) = (Overlay::new(), Overlay::new());
        assert_eq!(v1, v2);
        // Different op orders, same net effect.
        let (del, ins) = (tuple![1, "1A"], tuple![3, "3A"]);
        v1.apply(&db, &WriteOp::delete("A", del.clone())).unwrap();
        v1.apply(&db, &WriteOp::insert("A", ins.clone())).unwrap();
        v2.apply(&db, &WriteOp::insert("A", ins)).unwrap();
        v2.apply(&db, &WriteOp::delete("A", del.clone())).unwrap();
        assert_eq!(v1, v2);
        // A no-op sequence equals the untouched overlay, though it grew a
        // relation slot and a journal.
        let mut v3 = Overlay::new();
        v3.apply(&db, &WriteOp::delete("A", del.clone())).unwrap();
        v3.apply(&db, &WriteOp::insert("A", del)).unwrap();
        assert_eq!(v3, Overlay::new());
        assert_ne!(v1, v3);
        // Strings that print alike stay distinct: ('a', 'b', 'c') is both
        // ("a', 'b", "c") and ("a", "b', 'c").
        let mut pairs = Database::new();
        let cols = vec![("x", ValueType::Str), ("y", ValueType::Str)];
        pairs.create_table(Schema::new("P", cols)).unwrap();
        let [mut p1, mut p2] = [Overlay::new(), Overlay::new()];
        p1.apply(&pairs, &WriteOp::insert("P", tuple!["a', 'b", "c"]))
            .unwrap();
        p2.apply(&pairs, &WriteOp::insert("P", tuple!["a", "b', 'c"]))
            .unwrap();
        assert_ne!(p1, p2);
        // Equal overlays hash alike.
        let s = std::hash::RandomState::new();
        assert_eq!(s.hash_one(&v1), s.hash_one(&v2));
        assert_eq!(s.hash_one(&v3), s.hash_one(Overlay::new()));
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
