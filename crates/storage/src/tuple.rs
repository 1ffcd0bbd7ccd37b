//! Tuples — immutable, cheaply cloneable rows.

use std::fmt;
use std::sync::Arc;

use crate::value::Value;

/// An immutable row of [`Value`]s.
///
/// Backed by `Arc<[Value]>`: the solver and the quantum state keep many
/// references to the same row (cached solutions, overlay states, possible
/// worlds), so cloning must be O(1).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Tuple(Arc<[Value]>);

impl Tuple {
    /// Build a tuple from values.
    pub fn new(values: impl Into<Arc<[Value]>>) -> Self {
        Tuple(values.into())
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.0.len()
    }

    /// True when the tuple has no columns.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Column at `i`, if in range.
    pub fn get(&self, i: usize) -> Option<&Value> {
        self.0.get(i)
    }

    /// All column values.
    pub fn values(&self) -> &[Value] {
        &self.0
    }

    /// Iterate over column values.
    pub fn iter(&self) -> std::slice::Iter<'_, Value> {
        self.0.iter()
    }
}

/// Lets tuple-keyed maps and sets be probed with a plain value slice
/// (`Arc<[Value]>` compares and hashes as its slice, so the derived
/// `Eq`/`Ord`/`Hash` agree with `[Value]`'s).
impl std::borrow::Borrow<[Value]> for Tuple {
    fn borrow(&self) -> &[Value] {
        &self.0
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(v: Vec<Value>) -> Self {
        Tuple(v.into())
    }
}

impl FromIterator<Value> for Tuple {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Self {
        Tuple(iter.into_iter().collect())
    }
}

impl std::ops::Index<usize> for Tuple {
    type Output = Value;
    fn index(&self, i: usize) -> &Value {
        &self.0[i]
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

/// Build a tuple from a heterogeneous list of `Into<Value>` items.
///
/// ```
/// use qdb_storage::{tuple, Value};
/// let t = tuple!["Mickey", 123, "5A"];
/// assert_eq!(t.arity(), 3);
/// assert_eq!(t[1], Value::from(123));
/// ```
#[macro_export]
macro_rules! tuple {
    ($($v:expr),* $(,)?) => {
        $crate::Tuple::from(vec![$($crate::Value::from($v)),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let t = tuple!["Mickey", 123, true];
        assert_eq!(t.arity(), 3);
        assert_eq!(t.get(0), Some(&Value::from("Mickey")));
        assert_eq!(t[1], Value::from(123));
        assert_eq!(t.get(3), None);
        assert!(!t.is_empty());
    }

    #[test]
    fn display_is_parenthesized() {
        assert_eq!(tuple![1, "a"].to_string(), "(1, 'a')");
    }

    #[test]
    fn ordering_is_lexicographic() {
        assert!(tuple![1, "a"] < tuple![1, "b"]);
        assert!(tuple![1] < tuple![1, "a"]);
        assert!(tuple![0, "z"] < tuple![1, "a"]);
    }

    #[test]
    fn clone_shares_storage() {
        let t = tuple![1, 2, 3];
        let u = t.clone();
        assert!(Arc::ptr_eq(&t.0, &u.0));
    }

    #[test]
    fn tuple_keyed_sets_answer_slice_probes() {
        let set: std::collections::BTreeSet<Tuple> =
            [tuple![1, "a"], tuple![1, "b"], tuple![2, "a"]].into();
        let probe = [Value::from(1), Value::from("b")];
        assert!(set.contains(&probe[..]));
        assert!(!set.contains(&probe[..1]));
        // A one-column slice is the lower bound of its prefix range.
        use std::ops::Bound::{Included, Unbounded};
        let from_one: Vec<_> = set
            .range::<[Value], _>((Included(&probe[..1]), Unbounded))
            .collect();
        assert_eq!(from_one.len(), 3);
        let hashed: std::collections::HashSet<Tuple> = set.iter().cloned().collect();
        assert!(hashed.contains(&probe[..]));
    }

    #[test]
    fn from_iterator_collects() {
        let t: Tuple = (0..3).map(Value::from).collect();
        assert_eq!(t, tuple![0i64, 1i64, 2i64]);
    }
}
