//! Tuple views: evaluate conjunctive queries against *composed* states.
//!
//! The paper's read semantics (§3.2.2) answer queries against possible
//! worlds — states of the form "extensional database **plus** the pending
//! updates of some grounding". Materializing such a world by cloning the
//! database makes every read O(database); [`TupleView`] abstracts the
//! tuple source instead, so [`crate::ConjunctiveQuery::eval`] runs
//! unchanged against either
//!
//! * the concrete [`Database`] (the extensional state), or
//! * a [`DeltaView`] — a borrowed base plus an id-keyed insert/delete
//!   delta, the same shape as the solver's overlay — built in O(pending)
//!   and dropped after the read, with **zero** database clones.
//!
//! Both implementations yield matching rows in key order with base and
//! delta merged, so evaluation through a view is indistinguishable
//! (result order included) from evaluation against a database that had
//! the delta applied — the property `crates/storage/tests/delta_view.rs`
//! pins over randomized states, deltas and indexes.

use std::collections::BTreeMap;

use crate::database::{Database, RelationId, WriteOp};
use crate::error::StorageError;
use crate::table::Table;
use crate::tuple::Tuple;
use crate::value::Value;
use crate::Result;

/// A source of tuples for query evaluation: the concrete [`Database`] or
/// a [`DeltaView`] composing a base with pending updates.
///
/// The contract mirrors the paper's possible-world reads: `matching_rows`
/// yields the visible rows of a relation under a partial column binding,
/// in key order; `count_rows` is the exact cardinality of that sequence
/// (the dynamic most-constrained-first atom ordering depends on counts
/// being exact and identical across implementations).
pub trait TupleView {
    /// Arity of `relation`; error when the relation does not exist.
    fn arity_of(&self, relation: &str) -> Result<usize>;

    /// Exact count of visible rows matching `bound` (`Some(v)` pins a
    /// column to `v`).
    fn count_rows(&self, relation: &str, bound: &[Option<Value>]) -> Result<usize>;

    /// Visible rows matching `bound`, in key order.
    fn matching_rows(&self, relation: &str, bound: &[Option<Value>]) -> Result<Vec<Tuple>>;
}

impl TupleView for Database {
    fn arity_of(&self, relation: &str) -> Result<usize> {
        Ok(self.table(relation)?.schema().arity())
    }

    fn count_rows(&self, relation: &str, bound: &[Option<Value>]) -> Result<usize> {
        // `count_up_to` with an unreachable cap is an exact count that
        // reads an index bucket length when a single bound column is
        // indexed (no row iteration).
        Ok(self.table(relation)?.count_up_to(bound, usize::MAX).0)
    }

    fn matching_rows(&self, relation: &str, bound: &[Option<Value>]) -> Result<Vec<Tuple>> {
        Ok(self.table(relation)?.select(bound).cloned().collect())
    }
}

/// Per-relation delta of a [`DeltaView`]. Inserts are keyed exactly like
/// [`Table`] rows (schema key projection → row), deletes record the
/// removed base row under its key — so key semantics (set-semantic
/// no-ops, key violations) match the concrete table's.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct DeltaRel {
    /// Rows added on top of the base, key → row.
    inserts: BTreeMap<Tuple, Tuple>,
    /// Base rows removed, key → the removed row.
    deletes: BTreeMap<Tuple, Tuple>,
}

impl DeltaRel {
    fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.deletes.is_empty()
    }
}

/// A possible-world view: a borrowed base [`Database`] plus an id-keyed
/// insert/delete delta.
///
/// Applying a [`WriteOp`] has exactly the semantics of
/// [`Database::apply`] — duplicate inserts and deletes of absent rows are
/// no-ops (`Ok(false)`), key violations are errors — but mutates only the
/// delta: building a view over the pending updates of a partition is
/// O(pending), never O(database).
///
/// ```
/// use qdb_storage::{tuple, ConjunctiveQuery, Database, DeltaView, Pattern, PatTerm};
/// use qdb_storage::{Schema, ValueType, WriteOp};
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
/// // A pending booking's delete, visible through the view only.
/// let mut view = DeltaView::new(&db);
/// view.apply(&WriteOp::delete("Available", tuple![1, "1A"])).unwrap();
///
/// let q = ConjunctiveQuery::new(vec![Pattern::new(
///     "Available",
///     vec![PatTerm::val(1), PatTerm::Var(0)],
/// )]);
/// assert_eq!(q.eval(&view).unwrap().bindings.len(), 1);
/// assert_eq!(q.eval(&db).unwrap().bindings.len(), 2); // base untouched
/// ```
#[derive(Debug, Clone)]
pub struct DeltaView<'a> {
    base: &'a Database,
    /// Deltas indexed by [`RelationId`]; shorter than the id space when
    /// trailing relations are untouched.
    rels: Vec<DeltaRel>,
}

impl<'a> DeltaView<'a> {
    /// An empty view (view = base).
    pub fn new(base: &'a Database) -> Self {
        DeltaView {
            base,
            rels: Vec::new(),
        }
    }

    /// The underlying base database.
    pub fn base(&self) -> &'a Database {
        self.base
    }

    /// True when the delta is empty (the view equals the base).
    pub fn is_unchanged(&self) -> bool {
        self.rels.iter().all(DeltaRel::is_empty)
    }

    /// Number of delta entries (inserted plus deleted rows).
    pub fn delta_len(&self) -> usize {
        self.rels
            .iter()
            .map(|r| r.inserts.len() + r.deletes.len())
            .sum()
    }

    fn rel(&self, rid: RelationId) -> Option<&DeltaRel> {
        self.rels.get(rid.index())
    }

    fn rel_mut(&mut self, rid: RelationId) -> &mut DeltaRel {
        if rid.index() >= self.rels.len() {
            self.rels.resize_with(rid.index() + 1, DeltaRel::default);
        }
        &mut self.rels[rid.index()]
    }

    /// Apply a write op to the delta. Same contract as
    /// [`Database::apply`]: `Ok(true)` when the visible state changed,
    /// `Ok(false)` for set-semantic no-ops, `Err` on key violations.
    pub fn apply(&mut self, op: &WriteOp) -> Result<bool> {
        let rid = self.base.resolve(op.relation())?;
        self.apply_id(rid, op.is_insert(), op.tuple())
    }

    /// Apply every op in order, stopping at the first error.
    pub fn apply_all(&mut self, ops: &[WriteOp]) -> Result<()> {
        for op in ops {
            self.apply(op)?;
        }
        Ok(())
    }

    /// [`DeltaView::apply`] by interned relation id.
    pub fn apply_id(&mut self, rid: RelationId, insert: bool, tuple: &Tuple) -> Result<bool> {
        let table = self.base.table_by_id(rid);
        table.schema().check(tuple)?;
        let key = table.schema().key_of(tuple);
        let base_row = table.get_by_key(&key);
        let rel = self.rel_mut(rid);
        if insert {
            if let Some(existing) = rel.inserts.get(&key) {
                if existing == tuple {
                    return Ok(false);
                }
                return Err(key_violation(table, &key));
            }
            if let Some(deleted) = rel.deletes.get(&key) {
                // The base row under this key was delta-deleted; the slot
                // is free — cancel the delete when re-inserting the exact
                // same row, otherwise record a fresh insert.
                if deleted == tuple {
                    rel.deletes.remove(&key);
                } else {
                    rel.inserts.insert(key, tuple.clone());
                }
                return Ok(true);
            }
            match base_row {
                Some(existing) if existing == tuple => Ok(false),
                Some(_) => Err(key_violation(table, &key)),
                None => {
                    rel.inserts.insert(key, tuple.clone());
                    Ok(true)
                }
            }
        } else {
            if let Some(existing) = rel.inserts.get(&key) {
                if existing == tuple {
                    rel.inserts.remove(&key);
                    return Ok(true);
                }
                return Ok(false); // different row under the key: no-op
            }
            if rel.deletes.contains_key(&key) {
                return Ok(false); // already deleted
            }
            match base_row {
                Some(existing) if existing == tuple => {
                    rel.deletes.insert(key, tuple.clone());
                    Ok(true)
                }
                _ => Ok(false),
            }
        }
    }

    /// Is this exact row visible through the view?
    pub fn contains(&self, relation: &str, tuple: &Tuple) -> bool {
        let Some(rid) = self.base.try_resolve(relation) else {
            return false;
        };
        let table = self.base.table_by_id(rid);
        let key = table.schema().key_of(tuple);
        if let Some(rel) = self.rel(rid) {
            if let Some(row) = rel.inserts.get(&key) {
                return row == tuple;
            }
            if rel.deletes.contains_key(&key) {
                return false;
            }
        }
        table.get_by_key(&key).is_some_and(|row| row == tuple)
    }

    /// The non-empty relation deltas with their ids — the net delta,
    /// independent of how many trailing relations were ever touched.
    fn net(&self) -> impl Iterator<Item = (usize, &DeltaRel)> {
        self.rels.iter().enumerate().filter(|(_, r)| !r.is_empty())
    }

    /// The net delta as `(relation, is_insert, row)`: relations in id
    /// order, each one's deleted base rows and then its inserted rows.
    pub fn deltas(&self) -> impl Iterator<Item = (RelationId, bool, &Tuple)> {
        self.net().flat_map(|(i, rel)| {
            let rid = RelationId::from_index(i);
            let deletes = rel.deletes.values().map(move |row| (rid, false, row));
            deletes.chain(rel.inserts.values().map(move |row| (rid, true, row)))
        })
    }

    /// Clone the base and apply the delta — the O(database)
    /// materialization the view exists to avoid. Test/diagnostic use only
    /// (it counts into [`Database::clone_count`]).
    pub fn materialize(&self) -> Result<Database> {
        let mut db = self.base.clone();
        for (i, rel) in self.rels.iter().enumerate() {
            let rid = RelationId::from_index(i);
            for row in rel.deletes.values() {
                db.delete_id(rid, row)?;
            }
            for row in rel.inserts.values() {
                db.insert_id(rid, row.clone())?;
            }
        }
        Ok(db)
    }

    /// Visible rows of `rid` matching `bound`, merged in key order.
    fn merged_rows(
        &self,
        rid: RelationId,
        bound: &[Option<Value>],
        cap: usize,
    ) -> Result<Vec<Tuple>> {
        let table = self.base.table_by_id(rid);
        check_arity(table, bound)?;
        let empty = DeltaRel::default();
        let rel = self.rel(rid).unwrap_or(&empty);
        // Base portion: index-narrowed cursor (key order), minus deletes.
        let mut base_rows = table
            .cursor(bound)
            .filter(|row| Table::matches(row, bound))
            .filter(|row| !rel.deletes.contains_key(&table.schema().key_of(row)))
            .map(|row| (table.schema().key_of(row), row))
            .peekable();
        // Delta inserts matching the binding, already in key order.
        let mut ins = rel
            .inserts
            .iter()
            .filter(|(_, row)| Table::matches(row, bound))
            .peekable();
        // Merge on keys: insert keys never collide with visible base keys
        // (an insert is only recorded when the base lacks the key or its
        // row is delta-deleted), so the merge is a strict interleave that
        // reproduces the key order a materialized table would iterate in.
        let mut out = Vec::new();
        while out.len() < cap {
            let take_base = match (base_rows.peek(), ins.peek()) {
                (Some((bk, _)), Some((ik, _))) => bk < *ik,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            if take_base {
                let (_, row) = base_rows.next().expect("peeked");
                out.push(row.clone());
            } else {
                let (_, row) = ins.next().expect("peeked");
                out.push(row.clone());
            }
        }
        Ok(out)
    }

    /// Count of visible rows matching `bound`, saturating at `cap`. When
    /// the relation has no delta, the base count comes from
    /// [`Table::count_up_to`] — an index bucket length when a single
    /// bound column is indexed, no row iteration at all.
    pub fn count_up_to(
        &self,
        relation: &str,
        bound: &[Option<Value>],
        cap: usize,
    ) -> Result<usize> {
        let rid = self.base.resolve(relation)?;
        let table = self.base.table_by_id(rid);
        check_arity(table, bound)?;
        let rel = self.rel(rid);
        let mut n = match rel {
            Some(r) if !r.deletes.is_empty() => table
                .cursor(bound)
                .filter(|row| Table::matches(row, bound))
                .filter(|row| !r.deletes.contains_key(&table.schema().key_of(row)))
                .take(cap)
                .count(),
            _ => table.count_up_to(bound, cap).0,
        };
        if n < cap {
            if let Some(r) = rel {
                n += r
                    .inserts
                    .values()
                    .filter(|row| Table::matches(row, bound))
                    .take(cap - n)
                    .count();
            }
        }
        Ok(n)
    }
}

impl TupleView for DeltaView<'_> {
    fn arity_of(&self, relation: &str) -> Result<usize> {
        self.base.arity_of(relation)
    }

    fn count_rows(&self, relation: &str, bound: &[Option<Value>]) -> Result<usize> {
        self.count_up_to(relation, bound, usize::MAX)
    }

    fn matching_rows(&self, relation: &str, bound: &[Option<Value>]) -> Result<Vec<Tuple>> {
        let rid = self.base.resolve(relation)?;
        self.merged_rows(rid, bound, usize::MAX)
    }
}

/// Exact world identity: two views over the same base are equal iff they
/// show the same state. The delta is canonical — a delete is recorded
/// only for a base row, an insert only where no base row survives under
/// its key, and re-inserting a deleted row cancels the delete — so equal
/// states have equal deltas, whatever op order built them. The
/// possible-worlds enumerator deduplicates forks on this, with [`Hash`]
/// finding the candidates.
impl PartialEq for DeltaView<'_> {
    fn eq(&self, other: &Self) -> bool {
        std::ptr::eq(self.base, other.base) && self.net().eq(other.net())
    }
}

impl Eq for DeltaView<'_> {}

impl std::hash::Hash for DeltaView<'_> {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // A row determines its key, so hashing rows agrees with `==`.
        for (i, rel) in self.net() {
            (i, rel.deletes.len()).hash(state);
            (rel.deletes.values().chain(rel.inserts.values())).for_each(|row| row.hash(state));
        }
    }
}

fn key_violation(table: &Table, key: &Tuple) -> StorageError {
    StorageError::KeyViolation {
        relation: table.schema().relation().to_string(),
        key: key.to_string(),
    }
}

fn check_arity(table: &Table, bound: &[Option<Value>]) -> Result<()> {
    if bound.len() != table.schema().arity() {
        return Err(StorageError::ArityMismatch {
            relation: table.schema().relation().to_string(),
            expected: table.schema().arity(),
            got: bound.len(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Schema, ValueType};
    use crate::tuple;

    fn base() -> Database {
        let mut db = Database::new();
        db.create_table(Schema::new(
            "A",
            vec![("flight", ValueType::Int), ("seat", ValueType::Str)],
        ))
        .unwrap();
        db.insert("A", tuple![1, "1A"]).unwrap();
        db.insert("A", tuple![1, "1B"]).unwrap();
        db.insert("A", tuple![2, "2A"]).unwrap();
        db
    }

    #[test]
    fn apply_mirrors_database_apply_semantics() {
        let db = base();
        let mut view = DeltaView::new(&db);
        // Duplicate insert: set-semantic no-op.
        assert!(!view.apply(&WriteOp::insert("A", tuple![1, "1A"])).unwrap());
        // Delete of an absent row: no-op.
        assert!(!view.apply(&WriteOp::delete("A", tuple![9, "XX"])).unwrap());
        // Real delete + real insert change the view, not the base.
        assert!(view.apply(&WriteOp::delete("A", tuple![1, "1A"])).unwrap());
        assert!(view.apply(&WriteOp::insert("A", tuple![3, "3A"])).unwrap());
        assert!(!view.contains("A", &tuple![1, "1A"]));
        assert!(view.contains("A", &tuple![3, "3A"]));
        assert!(db.contains("A", &tuple![1, "1A"]));
        assert!(!db.contains("A", &tuple![3, "3A"]));
        // Delete-then-reinsert nets out to the base state.
        assert!(view.apply(&WriteOp::insert("A", tuple![1, "1A"])).unwrap());
        assert!(view.contains("A", &tuple![1, "1A"]));
    }

    #[test]
    fn key_violations_match_the_concrete_table() {
        let mut db = Database::new();
        db.create_table(
            Schema::new(
                "B",
                vec![("name", ValueType::Str), ("seat", ValueType::Str)],
            )
            .with_key(vec![0])
            .unwrap(),
        )
        .unwrap();
        db.insert("B", tuple!["Mickey", "5A"]).unwrap();
        let mut view = DeltaView::new(&db);
        // Same key, different row: violation (like Table::insert).
        assert!(view
            .apply(&WriteOp::insert("B", tuple!["Mickey", "5B"]))
            .is_err());
        // Delete frees the key for a different row.
        assert!(view
            .apply(&WriteOp::delete("B", tuple!["Mickey", "5A"]))
            .unwrap());
        assert!(view
            .apply(&WriteOp::insert("B", tuple!["Mickey", "5B"]))
            .unwrap());
        assert!(view.contains("B", &tuple!["Mickey", "5B"]));
        assert!(!view.contains("B", &tuple!["Mickey", "5A"]));
        // And a second different row under the key now violates again.
        assert!(view
            .apply(&WriteOp::insert("B", tuple!["Mickey", "5C"]))
            .is_err());
    }

    #[test]
    fn merged_rows_interleave_in_key_order() {
        let db = base();
        let mut view = DeltaView::new(&db);
        view.apply(&WriteOp::delete("A", tuple![1, "1B"])).unwrap();
        view.apply(&WriteOp::insert("A", tuple![0, "0Z"])).unwrap();
        view.apply(&WriteOp::insert("A", tuple![1, "1C"])).unwrap();
        view.apply(&WriteOp::insert("A", tuple![3, "3A"])).unwrap();
        let got = view.matching_rows("A", &[None, None]).unwrap();
        // Exactly the key-ordered iteration of the materialized state.
        let materialized = view.materialize().unwrap();
        let want: Vec<Tuple> = materialized.table("A").unwrap().iter().cloned().collect();
        assert_eq!(got, want);
        // And a bound column narrows identically.
        let bound = vec![Some(Value::from(1)), None];
        assert_eq!(
            view.matching_rows("A", &bound).unwrap(),
            materialized
                .table("A")
                .unwrap()
                .select(&bound)
                .cloned()
                .collect::<Vec<_>>()
        );
        assert_eq!(view.count_rows("A", &bound).unwrap(), 2);
    }

    #[test]
    fn count_up_to_uses_index_buckets_when_delta_free() {
        let mut db = base();
        db.table_mut("A").unwrap().create_index(0).unwrap();
        let view = DeltaView::new(&db);
        let bound = vec![Some(Value::from(1)), None];
        assert_eq!(view.count_up_to("A", &bound, 10).unwrap(), 2);
        assert_eq!(view.count_up_to("A", &bound, 1).unwrap(), 1);
        // With deletes the filtered walk still agrees.
        let mut view = DeltaView::new(&db);
        view.apply(&WriteOp::delete("A", tuple![1, "1A"])).unwrap();
        assert_eq!(view.count_up_to("A", &bound, 10).unwrap(), 1);
    }

    #[test]
    fn fingerprints_identify_net_deltas() {
        use std::hash::BuildHasher;
        let db = base();
        let mut v1 = DeltaView::new(&db);
        let mut v2 = DeltaView::new(&db);
        assert_eq!(v1, v2);
        // Different op orders, same net effect.
        v1.apply(&WriteOp::delete("A", tuple![1, "1A"])).unwrap();
        v1.apply(&WriteOp::insert("A", tuple![3, "3A"])).unwrap();
        v2.apply(&WriteOp::insert("A", tuple![3, "3A"])).unwrap();
        v2.apply(&WriteOp::delete("A", tuple![1, "1A"])).unwrap();
        assert_eq!(v1, v2);
        // A no-op sequence equals the untouched view, however many
        // relation slots it grew.
        let mut v3 = DeltaView::new(&db);
        v3.apply(&WriteOp::delete("A", tuple![1, "1A"])).unwrap();
        v3.apply(&WriteOp::insert("A", tuple![1, "1A"])).unwrap();
        assert_eq!(v3, DeltaView::new(&db));
        assert!(v3.is_unchanged());
        assert_ne!(v1, v3);
        // Strings that print alike stay distinct: ('a', 'b', 'c') is both
        // ("a', 'b", "c") and ("a", "b', 'c").
        let mut pairs = Database::new();
        let cols = vec![("x", ValueType::Str), ("y", ValueType::Str)];
        pairs.create_table(Schema::new("P", cols)).unwrap();
        let rows = [tuple!["a', 'b", "c"], tuple!["a", "b', 'c"]];
        let [mut p1, mut p2] = [DeltaView::new(&pairs), DeltaView::new(&pairs)];
        p1.apply(&WriteOp::insert("P", rows[0].clone())).unwrap();
        p2.apply(&WriteOp::insert("P", rows[1].clone())).unwrap();
        assert_ne!(p1, p2);
        // Equal views hash alike.
        let s = std::hash::RandomState::new();
        assert_eq!(s.hash_one(&v1), s.hash_one(&v2));
        assert_eq!(s.hash_one(&v3), s.hash_one(DeltaView::new(&db)));
    }

    #[test]
    fn missing_table_and_arity_errors() {
        let db = base();
        let mut view = DeltaView::new(&db);
        assert!(view.apply(&WriteOp::insert("Nope", tuple![1])).is_err());
        assert!(view.matching_rows("Nope", &[None]).is_err());
        assert!(view.matching_rows("A", &[None]).is_err()); // arity 2
        assert!(!view.contains("Nope", &tuple![1]));
    }
}
