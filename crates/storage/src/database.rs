//! The database: a catalog of tables plus a uniform write-op interface.

use std::collections::BTreeMap;

use crate::error::StorageError;
use crate::schema::Schema;
use crate::table::Table;
use crate::tuple::Tuple;
use crate::Result;

/// A single blind write — the building block of a resource transaction's
/// update portion (`FOLLOWED BY` block) and of ordinary non-resource writes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WriteOp {
    /// Insert `tuple` into `relation`.
    Insert {
        /// Target relation.
        relation: String,
        /// Row to insert.
        tuple: Tuple,
    },
    /// Delete `tuple` from `relation`.
    Delete {
        /// Target relation.
        relation: String,
        /// Row to delete.
        tuple: Tuple,
    },
}

impl WriteOp {
    /// Build an insert op.
    pub fn insert(relation: impl Into<String>, tuple: Tuple) -> Self {
        WriteOp::Insert {
            relation: relation.into(),
            tuple,
        }
    }

    /// Build a delete op.
    pub fn delete(relation: impl Into<String>, tuple: Tuple) -> Self {
        WriteOp::Delete {
            relation: relation.into(),
            tuple,
        }
    }

    /// Target relation name.
    pub fn relation(&self) -> &str {
        match self {
            WriteOp::Insert { relation, .. } | WriteOp::Delete { relation, .. } => relation,
        }
    }

    /// The affected tuple.
    pub fn tuple(&self) -> &Tuple {
        match self {
            WriteOp::Insert { tuple, .. } | WriteOp::Delete { tuple, .. } => tuple,
        }
    }

    /// True for inserts.
    pub fn is_insert(&self) -> bool {
        matches!(self, WriteOp::Insert { .. })
    }
}

impl std::fmt::Display for WriteOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WriteOp::Insert { relation, tuple } => write!(f, "+{relation}{tuple}"),
            WriteOp::Delete { relation, tuple } => write!(f, "-{relation}{tuple}"),
        }
    }
}

/// Dense handle for an interned relation name.
///
/// Ids are assigned by [`Database::create_table`] in creation order and are
/// stable for the lifetime of the database (tables are never dropped).
/// Resolving a name costs one ordered-map lookup; every id-based accessor
/// afterwards is a plain vector index — the hot paths of the solver and the
/// WAL resolve once at parse/prepare time and stay on ids from then on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RelationId(u32);

impl RelationId {
    /// The dense index backing this id.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Raw id value (wire/WAL encodings).
    pub fn as_u32(self) -> u32 {
        self.0
    }

    /// Rebuild an id from a dense index previously obtained through
    /// [`RelationId::index`] against the same database. The id space is
    /// dense, so this is a plain cast; using an index from a *different*
    /// database yields a handle for whatever relation occupies that slot.
    pub fn from_index(index: usize) -> RelationId {
        RelationId(index as u32)
    }
}

/// An in-memory relational database: named tables with schemas.
///
/// `Database` is `Clone`; a clone is a consistent snapshot. Cloning is
/// O(database) — the read paths avoid it entirely by evaluating over the
/// base plus a delta instead — and every clone is counted into a
/// counter shared by the whole clone family ([`Database::clone_count`]),
/// so "this path performs zero database clones" is a checkable claim
/// rather than a code-review one. Relation names are interned to dense
/// [`RelationId`]s; the string-keyed API resolves and delegates to the
/// id-keyed one.
#[derive(Debug, Default)]
pub struct Database {
    names: BTreeMap<String, RelationId>,
    tables: Vec<Table>,
    /// Clones performed anywhere in this database's clone family; the
    /// `Arc` is shared by every clone, so each copy reads the same total.
    clones: std::sync::Arc<std::sync::atomic::AtomicU64>,
}

impl Clone for Database {
    fn clone(&self) -> Self {
        self.clones
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        Database {
            names: self.names.clone(),
            tables: self.tables.clone(),
            clones: std::sync::Arc::clone(&self.clones),
        }
    }
}

impl Database {
    /// Create an empty database.
    pub fn new() -> Self {
        Database::default()
    }

    /// Register a new table.
    pub fn create_table(&mut self, schema: Schema) -> Result<()> {
        let name = schema.relation().to_string();
        if self.names.contains_key(&name) {
            return Err(StorageError::TableExists(name));
        }
        let id = RelationId(self.tables.len() as u32);
        self.names.insert(name, id);
        self.tables.push(Table::new(schema));
        Ok(())
    }

    /// Resolve a relation name to its interned id.
    pub fn resolve(&self, relation: &str) -> Result<RelationId> {
        self.try_resolve(relation)
            .ok_or_else(|| StorageError::NoSuchTable(relation.to_string()))
    }

    /// Resolve a relation name, `None` when no such table exists.
    pub fn try_resolve(&self, relation: &str) -> Option<RelationId> {
        self.names.get(relation).copied()
    }

    /// The name interned under `id`.
    ///
    /// # Panics
    /// Panics when `id` was not produced by this database.
    pub fn relation_name(&self, id: RelationId) -> &str {
        self.tables[id.index()].schema().relation()
    }

    /// Table by interned id.
    ///
    /// # Panics
    /// Panics when `id` was not produced by this database.
    pub fn table_by_id(&self, id: RelationId) -> &Table {
        &self.tables[id.index()]
    }

    /// Table by interned id, mutable.
    ///
    /// # Panics
    /// Panics when `id` was not produced by this database.
    pub fn table_by_id_mut(&mut self, id: RelationId) -> &mut Table {
        &mut self.tables[id.index()]
    }

    /// Look up a table.
    pub fn table(&self, relation: &str) -> Result<&Table> {
        Ok(self.table_by_id(self.resolve(relation)?))
    }

    /// Look up a table mutably.
    pub fn table_mut(&mut self, relation: &str) -> Result<&mut Table> {
        let id = self.resolve(relation)?;
        Ok(self.table_by_id_mut(id))
    }

    /// Does a table with this name exist?
    pub fn has_table(&self, relation: &str) -> bool {
        self.names.contains_key(relation)
    }

    /// Iterate over all tables in name order.
    pub fn tables(&self) -> impl Iterator<Item = &Table> + '_ {
        self.names.values().map(|id| &self.tables[id.index()])
    }

    /// Insert a row. Returns whether the row was newly inserted.
    pub fn insert(&mut self, relation: &str, tuple: Tuple) -> Result<bool> {
        self.table_mut(relation)?.insert(tuple)
    }

    /// Insert a row by interned id.
    pub fn insert_id(&mut self, id: RelationId, tuple: Tuple) -> Result<bool> {
        self.tables[id.index()].insert(tuple)
    }

    /// Delete a row. Returns whether a row was removed.
    pub fn delete(&mut self, relation: &str, tuple: &Tuple) -> Result<bool> {
        self.table_mut(relation)?.delete(tuple)
    }

    /// Delete a row by interned id.
    pub fn delete_id(&mut self, id: RelationId, tuple: &Tuple) -> Result<bool> {
        self.tables[id.index()].delete(tuple)
    }

    /// Is this exact row present?
    pub fn contains(&self, relation: &str, tuple: &Tuple) -> bool {
        self.try_resolve(relation)
            .is_some_and(|id| self.tables[id.index()].contains(tuple))
    }

    /// Is this exact row present (by interned id)?
    pub fn contains_id(&self, id: RelationId, tuple: &Tuple) -> bool {
        self.tables[id.index()].contains(tuple)
    }

    /// Apply a write op. Inserts of already-present rows and deletes of
    /// absent rows are no-ops (`Ok(false)`); schema mismatches are errors.
    pub fn apply(&mut self, op: &WriteOp) -> Result<bool> {
        match op {
            WriteOp::Insert { relation, tuple } => self.insert(relation, tuple.clone()),
            WriteOp::Delete { relation, tuple } => self.delete(relation, tuple),
        }
    }

    /// Apply a sequence of write ops, stopping at the first error.
    pub fn apply_all(&mut self, ops: &[WriteOp]) -> Result<()> {
        for op in ops {
            self.apply(op)?;
        }
        Ok(())
    }

    /// Total row count across all tables.
    pub fn total_rows(&self) -> usize {
        self.tables.iter().map(Table::len).sum()
    }

    /// How many times a database of this clone family has been cloned —
    /// ever, anywhere. The counter is shared between a database and all
    /// its clones (and their clones), so an engine can assert that a
    /// whole read path stayed clone-free by checking its own database's
    /// count. Fresh databases ([`Database::new`], recovery) start at 0.
    pub fn clone_count(&self) -> u64 {
        self.clones.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// A detached handle onto this family's clone counter: reads the same
    /// total as [`Database::clone_count`] without borrowing the database —
    /// metrics snapshots use it so observation never has to acquire the
    /// lock guarding the database itself.
    pub fn clone_counter(&self) -> CloneCounter {
        CloneCounter(std::sync::Arc::clone(&self.clones))
    }
}

/// Shared, lock-free handle to a database clone-family counter (see
/// [`Database::clone_counter`]).
#[derive(Debug, Clone)]
pub struct CloneCounter(std::sync::Arc<std::sync::atomic::AtomicU64>);

impl CloneCounter {
    /// Clones performed so far, family-wide.
    pub fn get(&self) -> u64 {
        self.0.load(std::sync::atomic::Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ValueType;
    use crate::tuple;

    fn db() -> Database {
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
        db
    }

    #[test]
    fn create_and_lookup_tables() {
        let db = db();
        assert!(db.has_table("Available"));
        assert!(db.table("Bookings").is_ok());
        assert!(matches!(
            db.table("Nope"),
            Err(StorageError::NoSuchTable(_))
        ));
    }

    #[test]
    fn duplicate_table_rejected() {
        let mut db = db();
        let err = db
            .create_table(Schema::new("Available", vec![("x", ValueType::Int)]))
            .unwrap_err();
        assert!(matches!(err, StorageError::TableExists(_)));
    }

    #[test]
    fn apply_write_ops() {
        let mut db = db();
        let ins = WriteOp::insert("Available", tuple![1, "1A"]);
        assert!(db.apply(&ins).unwrap());
        assert!(!db.apply(&ins).unwrap()); // duplicate
        assert!(db.contains("Available", &tuple![1, "1A"]));
        let del = WriteOp::delete("Available", tuple![1, "1A"]);
        assert!(db.apply(&del).unwrap());
        assert!(!db.apply(&del).unwrap()); // absent
        assert_eq!(db.total_rows(), 0);
    }

    #[test]
    fn apply_all_stops_on_error() {
        let mut db = db();
        let ops = vec![
            WriteOp::insert("Available", tuple![1, "1A"]),
            WriteOp::insert("Missing", tuple![1, "1A"]),
        ];
        assert!(db.apply_all(&ops).is_err());
        // First op applied before failure (caller decides on atomicity).
        assert!(db.contains("Available", &tuple![1, "1A"]));
    }

    #[test]
    fn snapshot_clone_is_independent() {
        let mut db = db();
        db.insert("Available", tuple![1, "1A"]).unwrap();
        let snap = db.clone();
        db.delete("Available", &tuple![1, "1A"]).unwrap();
        assert!(snap.contains("Available", &tuple![1, "1A"]));
        assert!(!db.contains("Available", &tuple![1, "1A"]));
    }

    #[test]
    fn writeop_display_matches_datalog_convention() {
        assert_eq!(
            WriteOp::insert("B", tuple!["M", 1]).to_string(),
            "+B('M', 1)"
        );
        assert_eq!(WriteOp::delete("A", tuple![1]).to_string(), "-A(1)");
    }
}
