//! Single-column secondary indexes.
//!
//! §5.2: *"Appropriate indices are defined for each relation in the
//! database."* Lookups with several bound columns pick the most selective
//! index and post-filter.

use std::collections::{BTreeSet, HashMap};

use crate::tuple::Tuple;
use crate::value::Value;

/// A secondary index over one column, mapping each column value to the set
/// of rows carrying that value (a row is its own key).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SecondaryIndex {
    column: usize,
    map: HashMap<Value, BTreeSet<Tuple>>,
}

impl SecondaryIndex {
    /// Create an empty index over column `column`.
    pub fn new(column: usize) -> Self {
        SecondaryIndex {
            column,
            map: HashMap::new(),
        }
    }

    /// The indexed column.
    pub fn column(&self) -> usize {
        self.column
    }

    /// Record `row` in the index. The key is cloned only when `row` opens
    /// a new bucket.
    pub fn insert(&mut self, row: &Tuple) {
        let v = &row[self.column];
        match self.map.get_mut(v) {
            Some(bucket) => {
                bucket.insert(row.clone());
            }
            None => {
                self.map.insert(v.clone(), BTreeSet::from([row.clone()]));
            }
        }
    }

    /// Remove `row` from the index.
    pub fn remove(&mut self, row: &Tuple) {
        if let Some(set) = self.map.get_mut(&row[self.column]) {
            set.remove(row);
            if set.is_empty() {
                self.map.remove(&row[self.column]);
            }
        }
    }

    /// Rows whose indexed column equals `v`, in tuple order.
    pub fn lookup(&self, v: &Value) -> Option<&BTreeSet<Tuple>> {
        self.map.get(v)
    }

    /// Number of rows that would match `v` (0 when absent).
    pub fn selectivity(&self, v: &Value) -> usize {
        self.map.get(v).map_or(0, BTreeSet::len)
    }

    /// Total number of distinct values indexed.
    pub fn distinct_values(&self) -> usize {
        self.map.len()
    }

    /// Drop all entries.
    pub fn clear(&mut self) {
        self.map.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    #[test]
    fn insert_lookup_remove() {
        let mut ix = SecondaryIndex::new(1);
        let r1 = tuple!["Mickey", 123, "5A"];
        let r2 = tuple!["Donald", 123, "5B"];
        let r3 = tuple!["Goofy", 77, "1A"];
        for r in [&r1, &r2, &r3] {
            ix.insert(r);
        }
        assert_eq!(ix.selectivity(&Value::from(123)), 2);
        assert_eq!(ix.selectivity(&Value::from(77)), 1);
        assert_eq!(ix.selectivity(&Value::from(0)), 0);
        assert_eq!(ix.distinct_values(), 2);

        ix.remove(&r1);
        assert_eq!(ix.selectivity(&Value::from(123)), 1);
        ix.remove(&r2);
        assert_eq!(ix.lookup(&Value::from(123)), None);
        assert_eq!(ix.distinct_values(), 1);
    }

    #[test]
    fn removing_absent_row_is_noop() {
        let mut ix = SecondaryIndex::new(0);
        let r = tuple!["x"];
        ix.remove(&r);
        assert_eq!(ix.distinct_values(), 0);
    }
}
