//! Tables with set semantics.
//!
//! §3.2.1 of the paper assumes every relation a resource transaction
//! updates *"has a key, i.e., satisfies set semantics"*. A table's key is
//! its whole row: it holds one ordered set of rows, and every lookup
//! (primary probe, index bucket, scan) reads that set or a bucket of it.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU32, Ordering::Relaxed};

use crate::error::StorageError;
use crate::index::SecondaryIndex;
use crate::schema::Schema;
use crate::tuple::Tuple;
use crate::value::Value;
use crate::Result;

/// A table: schema + one ordered set of rows + secondary indexes.
///
/// Re-inserting an identical row is a no-op (`Ok(false)`), which is
/// exactly set semantics.
///
/// The table also keeps a tiny **access-pattern tracker**: every lookup that
/// binds a column no index can serve votes for that column (an atomic, so
/// shared readers can vote). The engine promotes persistently-voted columns
/// to secondary indexes and logs the promotion, so recovery rebuilds them.
#[derive(Debug)]
pub struct Table {
    schema: Schema,
    rows: BTreeSet<Tuple>,
    indexes: Vec<SecondaryIndex>,
    /// Per-column count of bound-column lookups that fell back to a scan.
    scan_votes: Vec<AtomicU32>,
}

impl Clone for Table {
    fn clone(&self) -> Self {
        Table {
            schema: self.schema.clone(),
            rows: self.rows.clone(),
            indexes: self.indexes.clone(),
            scan_votes: self
                .scan_votes
                .iter()
                .map(|v| AtomicU32::new(v.load(Relaxed)))
                .collect(),
        }
    }
}

impl Table {
    /// Create an empty table for `schema`.
    pub fn new(schema: Schema) -> Self {
        let arity = schema.arity();
        Table {
            schema,
            rows: BTreeSet::new(),
            indexes: Vec::new(),
            scan_votes: (0..arity).map(|_| AtomicU32::new(0)).collect(),
        }
    }

    /// The table schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Add a secondary index over `column`, back-filling existing rows.
    pub fn create_index(&mut self, column: usize) -> Result<()> {
        if column >= self.schema.arity() {
            return Err(StorageError::InvalidSchema(format!(
                "index column {column} out of range for '{}'",
                self.schema.relation()
            )));
        }
        if self.indexes.iter().any(|ix| ix.column() == column) {
            return Ok(()); // idempotent
        }
        let mut ix = SecondaryIndex::new(column);
        for row in &self.rows {
            ix.insert(row);
        }
        self.indexes.push(ix);
        self.scan_votes[column].store(0, Relaxed);
        Ok(())
    }

    /// Columns currently covered by a secondary index.
    pub fn indexed_columns(&self) -> Vec<usize> {
        self.indexes.iter().map(|ix| ix.column()).collect()
    }

    /// Columns whose scan-vote count reached `threshold` and which no index
    /// serves yet — the promotion candidates of the access-pattern tracker.
    pub fn hot_unindexed_columns(&self, threshold: u32) -> Vec<usize> {
        self.scan_votes
            .iter()
            .enumerate()
            .filter(|(i, v)| {
                v.load(Relaxed) >= threshold && !self.indexes.iter().any(|ix| ix.column() == *i)
            })
            .map(|(i, _)| i)
            .collect()
    }

    /// Current scan-vote count for `column` (tests and diagnostics).
    pub fn scan_votes(&self, column: usize) -> u32 {
        self.scan_votes[column].load(Relaxed)
    }

    /// Insert a row. Returns `Ok(true)` if newly inserted, `Ok(false)` if an
    /// identical row was already present.
    pub fn insert(&mut self, row: Tuple) -> Result<bool> {
        self.schema.check(&row)?;
        if self.rows.contains(&row) {
            return Ok(false);
        }
        for ix in &mut self.indexes {
            ix.insert(&row);
        }
        self.rows.insert(row);
        Ok(true)
    }

    /// Delete a row (by full tuple). Returns `Ok(true)` when a row was
    /// removed, `Ok(false)` when no identical row was present.
    pub fn delete(&mut self, row: &Tuple) -> Result<bool> {
        self.schema.check(row)?;
        if !self.rows.remove(row) {
            return Ok(false);
        }
        for ix in &mut self.indexes {
            ix.remove(row);
        }
        Ok(true)
    }

    /// Is this exact row present?
    pub fn contains(&self, row: &Tuple) -> bool {
        self.point(row.values()).is_some()
    }

    /// The stored row equal to `values`, by one primary-key probe: no
    /// bucket walk, no scan vote, no allocation.
    pub fn point(&self, values: &[Value]) -> Option<&Tuple> {
        self.rows.get(values)
    }

    /// Iterate over all rows in key (= tuple) order.
    pub fn iter(&self) -> impl Iterator<Item = &Tuple> + '_ {
        self.rows.iter()
    }

    /// A raw row stream narrowed by the most selective index among the
    /// bound columns — **not** yet filtered against `bound` (the caller
    /// post-filters; [`Table::select`] does it for you). Every branch
    /// yields rows in key order, so the sequence a caller observes after
    /// filtering does not depend on which indexes exist. The cursor
    /// borrows only the table, so it can be held across caller-side
    /// mutations of unrelated state (the solver holds one open across
    /// overlay mutations).
    ///
    /// A **fully bound** pattern resolves to one primary-key probe
    /// ([`Table::point`]) yielding the zero or one row a bucket walk would
    /// have left after filtering; it counts as index-backed.
    ///
    /// Falling back to a scan with at least one bound column votes those
    /// columns into the access-pattern tracker.
    pub fn cursor<'a>(&'a self, bound: &[Option<Value>]) -> TableCursor<'a> {
        debug_assert_eq!(bound.len(), self.schema.arity());
        if let Some(row) = Self::with_point(bound, |values| self.point(values)) {
            return TableCursor {
                inner: CursorInner::Point(row),
            };
        }
        // One hash probe per usable index: the bucket is both the
        // selectivity estimate and the stream.
        let best = self
            .indexes
            .iter()
            .filter_map(|ix| Some(ix.lookup(bound.get(ix.column())?.as_ref()?)))
            .min_by_key(|bucket| bucket.map_or(0, BTreeSet::len));
        let inner = match best {
            Some(Some(rows)) => CursorInner::Index(rows.iter()),
            Some(None) => CursorInner::Empty,
            None => {
                for (i, b) in bound.iter().enumerate() {
                    if b.is_some() {
                        self.scan_votes[i].fetch_add(1, Relaxed);
                    }
                }
                CursorInner::Scan(self.rows.iter())
            }
        };
        TableCursor { inner }
    }

    /// Rows matching a partial binding: `bound[i] = Some(v)` constrains
    /// column `i` to equal `v`. Uses the most selective available index.
    pub fn select<'a>(
        &'a self,
        bound: &'a [Option<Value>],
    ) -> Box<dyn Iterator<Item = &'a Tuple> + 'a> {
        Box::new(
            self.cursor(bound)
                .filter(move |row| Self::matches(row, bound)),
        )
    }

    /// Count rows matching a partial binding.
    pub fn count(&self, bound: &[Option<Value>]) -> usize {
        self.select(bound).count()
    }

    /// Count rows matching `bound`, saturating at `cap`. Returns the count
    /// and whether a **secondary index** answered it: a single bound
    /// column served by an index reads the bucket length (no row
    /// iteration), and multi-column patterns report whether the cursor was
    /// index-narrowed. A fully unbound pattern reads the row count in O(1)
    /// but involves no index, so it reports `false` — callers classifying
    /// index vs scan lookups should not count unbound patterns at all.
    pub fn count_up_to(&self, bound: &[Option<Value>], cap: usize) -> (usize, bool) {
        debug_assert_eq!(bound.len(), self.schema.arity());
        let mut bound_cols = bound
            .iter()
            .enumerate()
            .filter_map(|(i, b)| b.as_ref().map(|v| (i, v)));
        match (bound_cols.next(), bound_cols.next()) {
            (None, _) => (self.rows.len().min(cap), false),
            (Some((col, v)), None) => {
                if let Some(ix) = self.indexes.iter().find(|ix| ix.column() == col) {
                    return (ix.selectivity(v).min(cap), true);
                }
                let n = self
                    .cursor(bound)
                    .filter(|row| Self::matches(row, bound))
                    .take(cap)
                    .count();
                (n, false)
            }
            _ => {
                let cur = self.cursor(bound);
                let index_backed = cur.is_index_backed();
                let n = cur
                    .filter(|row| Self::matches(row, bound))
                    .take(cap)
                    .count();
                (n, index_backed)
            }
        }
    }

    /// Does `row` satisfy the partial binding `bound`?
    pub fn matches(row: &Tuple, bound: &[Option<Value>]) -> bool {
        bound
            .iter()
            .enumerate()
            .all(|(i, b)| b.as_ref().is_none_or(|v| &row[i] == v))
    }

    /// Run `f` on the values of a **fully bound**, non-empty pattern as one
    /// contiguous slice — the shape tuple-keyed maps are probed with.
    /// `None` when some column is unbound. Patterns of up to eight columns
    /// are laid out on the stack.
    pub fn with_point<R>(bound: &[Option<Value>], f: impl FnOnce(&[Value]) -> R) -> Option<R> {
        const INLINE: usize = 8;
        if bound.is_empty() || bound.iter().any(Option::is_none) {
            return None;
        }
        let values = bound.iter().flatten().cloned();
        if bound.len() <= INLINE {
            let mut buf: [Value; INLINE] = std::array::from_fn(|_| Value::Int(0));
            for (slot, v) in buf.iter_mut().zip(values) {
                *slot = v;
            }
            Some(f(&buf[..bound.len()]))
        } else {
            Some(f(&values.collect::<Vec<_>>()))
        }
    }
}

/// Concrete (unboxed) row stream over a table — see [`Table::cursor`].
#[derive(Debug)]
pub struct TableCursor<'a> {
    inner: CursorInner<'a>,
}

#[derive(Debug)]
enum CursorInner<'a> {
    /// Full scan in key order.
    Scan(std::collections::btree_set::Iter<'a, Tuple>),
    /// The rows of one index bucket, in key order.
    Index(std::collections::btree_set::Iter<'a, Tuple>),
    /// The result of a primary-key probe for a fully bound pattern.
    Point(Option<&'a Tuple>),
    /// Index consulted, bucket absent.
    Empty,
}

impl<'a> TableCursor<'a> {
    /// Was the stream narrowed by an index (secondary, or the primary key
    /// for a fully bound pattern)?
    pub fn is_index_backed(&self) -> bool {
        !matches!(self.inner, CursorInner::Scan(_))
    }
}

impl<'a> Iterator for TableCursor<'a> {
    type Item = &'a Tuple;

    fn next(&mut self) -> Option<&'a Tuple> {
        match &mut self.inner {
            CursorInner::Scan(it) | CursorInner::Index(it) => it.next(),
            CursorInner::Point(row) => row.take(),
            CursorInner::Empty => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ValueType;
    use crate::tuple;

    fn available() -> Table {
        Table::new(Schema::new(
            "Available",
            vec![("flight", ValueType::Int), ("seat", ValueType::Str)],
        ))
    }

    #[test]
    fn insert_is_set_semantics() {
        let mut t = available();
        assert!(t.insert(tuple![1, "1A"]).unwrap());
        assert!(!t.insert(tuple![1, "1A"]).unwrap()); // duplicate: no-op
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn delete_exact_row_only() {
        let mut t = available();
        t.insert(tuple![1, "1A"]).unwrap();
        assert!(!t.delete(&tuple![1, "1B"]).unwrap());
        assert!(t.delete(&tuple![1, "1A"]).unwrap());
        assert!(t.is_empty());
        assert!(!t.delete(&tuple![1, "1A"]).unwrap());
    }

    #[test]
    fn schema_violations_rejected() {
        let mut t = available();
        assert!(t.insert(tuple![1]).is_err());
        assert!(t.insert(tuple!["x", "1A"]).is_err());
    }

    #[test]
    fn select_with_and_without_index() {
        let mut t = available();
        for f in 1..=3i64 {
            for s in ["1A", "1B", "1C"] {
                t.insert(tuple![f, s]).unwrap();
            }
        }
        // Unindexed scan.
        let bound = vec![Some(Value::from(2)), None];
        assert_eq!(t.select(&bound).count(), 3);
        // Indexed scan returns the same rows, in the same (key) order.
        let via_scan: Vec<_> = t.select(&bound).cloned().collect();
        t.create_index(0).unwrap();
        let via_index: Vec<_> = t.select(&bound).cloned().collect();
        assert_eq!(via_index, via_scan);
        assert!(via_index.iter().all(|r| r[0] == Value::from(2)));
        // Fully bound.
        let bound = vec![Some(Value::from(2)), Some(Value::from("1B"))];
        assert_eq!(t.select(&bound).count(), 1);
        // No match.
        let bound = vec![Some(Value::from(9)), None];
        assert_eq!(t.select(&bound).count(), 0);
    }

    #[test]
    fn index_stays_consistent_under_mutation() {
        let mut t = available();
        t.create_index(1).unwrap();
        t.insert(tuple![1, "1A"]).unwrap();
        t.insert(tuple![2, "1A"]).unwrap();
        let bound = vec![None, Some(Value::from("1A"))];
        assert_eq!(t.select(&bound).count(), 2);
        t.delete(&tuple![1, "1A"]).unwrap();
        assert_eq!(t.select(&bound).count(), 1);
    }

    #[test]
    fn create_index_is_idempotent_and_validated() {
        let mut t = available();
        t.create_index(0).unwrap();
        t.create_index(0).unwrap();
        assert!(t.create_index(5).is_err());
        assert_eq!(t.indexed_columns(), vec![0]);
    }

    #[test]
    fn count_up_to_uses_index_bucket_lengths() {
        let mut t = available();
        for f in 1..=4i64 {
            for s in ["1A", "1B", "1C"] {
                t.insert(tuple![f, s]).unwrap();
            }
        }
        let bound = vec![Some(Value::from(2)), None];
        // Scan path: correct count, not index-backed.
        assert_eq!(t.count_up_to(&bound, 100), (3, false));
        assert_eq!(t.count_up_to(&bound, 2), (2, false));
        t.create_index(0).unwrap();
        // Single-bound-column fast path: bucket length, no iteration.
        assert_eq!(t.count_up_to(&bound, 100), (3, true));
        assert_eq!(t.count_up_to(&bound, 2), (2, true));
        assert_eq!(t.count_up_to(&[Some(Value::from(9)), None], 100), (0, true));
        // Fully unbound: O(1) row count, but no index involved.
        assert_eq!(t.count_up_to(&[None, None], 100), (12, false));
        assert_eq!(t.count_up_to(&[None, None], 5), (5, false));
        // Two bound columns still narrow through the index.
        let both = vec![Some(Value::from(2)), Some(Value::from("1B"))];
        assert_eq!(t.count_up_to(&both, 100), (1, true));
    }

    #[test]
    fn fully_bound_patterns_are_primary_key_probes() {
        let mut t = available();
        for f in 1..=3i64 {
            for s in ["1A", "1B"] {
                t.insert(tuple![f, s]).unwrap();
            }
        }
        let hit = vec![Some(Value::from(2)), Some(Value::from("1B"))];
        let miss = vec![Some(Value::from(2)), Some(Value::from("9Z"))];
        // No index at all: still no scan, no vote, reported index-backed.
        assert!(t.cursor(&hit).is_index_backed());
        assert_eq!(
            t.select(&hit).cloned().collect::<Vec<_>>(),
            [tuple![2, "1B"]]
        );
        assert_eq!(t.select(&miss).count(), 0);
        assert_eq!(t.count_up_to(&hit, 9), (1, true));
        assert_eq!(t.count_up_to(&hit, 0), (0, true));
        assert_eq!(t.count_up_to(&miss, 9), (0, true));
        assert_eq!((t.scan_votes(0), t.scan_votes(1)), (0, 0));
        assert_eq!(t.point(&[Value::from(2)]), None, "arity mismatch is a miss");
    }

    #[test]
    fn scan_votes_track_unserved_bound_columns() {
        let mut t = available();
        t.insert(tuple![1, "1A"]).unwrap();
        let bound = vec![Some(Value::from(1)), None];
        for _ in 0..3 {
            let _ = t.select(&bound).count();
        }
        assert_eq!(t.scan_votes(0), 3);
        assert_eq!(t.scan_votes(1), 0);
        assert_eq!(t.hot_unindexed_columns(3), vec![0]);
        assert_eq!(t.hot_unindexed_columns(4), Vec::<usize>::new());
        // Promotion resets the vote and stops the column being hot.
        t.create_index(0).unwrap();
        assert_eq!(t.scan_votes(0), 0);
        assert!(t.hot_unindexed_columns(1).is_empty());
        // Served lookups no longer vote.
        let _ = t.select(&bound).count();
        assert_eq!(t.scan_votes(0), 0);
        // A clone carries the vote counts.
        let _ = t.select(&[None, Some(Value::from("1A"))]).count();
        let c = t.clone();
        assert_eq!(c.scan_votes(1), 1);
    }
}
