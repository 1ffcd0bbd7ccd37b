//! Typed data values stored in tuples.
//!
//! The paper's domains are flight numbers, seat labels, dates and user names
//! — integers, strings and booleans cover all of them. `Value` is the single
//! constant type shared by the storage layer, the logic layer (as the range
//! of groundings/valuations) and the solver.

use std::collections::HashSet;
use std::fmt;
use std::sync::{Arc, OnceLock, RwLock};

/// Capacity of the process-wide string interning pool. The domains the
/// paper draws from (seat labels, user names, relation-ish constants) are
/// small and heavily repeated; once the pool is full, [`Value::interned`]
/// degrades to plain allocation rather than evicting.
const INTERN_POOL_CAP: usize = 4096;

/// Strings longer than this are never pooled — long payloads are unlikely
/// to repeat, and pooling them would pin large allocations for the
/// process lifetime.
const INTERN_MAX_LEN: usize = 64;

/// The pool is read-mostly (hits vastly outnumber first-sightings on the
/// decode paths that use it), so it sits behind an `RwLock`: concurrent
/// decoder threads share the read lock on hits and only a miss takes the
/// write lock. Poisoning is deliberately ignored — the pool holds no
/// invariants a panicked inserter could break (worst case a string that
/// was about to be pooled isn't).
fn intern_pool() -> &'static RwLock<HashSet<Arc<str>>> {
    static POOL: OnceLock<RwLock<HashSet<Arc<str>>>> = OnceLock::new();
    POOL.get_or_init(|| RwLock::new(HashSet::new()))
}

/// A single column value.
///
/// Strings are reference-counted (`Arc<str>`) so that tuples — and
/// therefore solver overlays and cached solutions, which clone tuples
/// freely — are cheap to copy. Copies of one `Value` share one
/// allocation; *distinct* constructions of equal text do **not**, unless
/// built through [`Value::interned`].
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Value {
    /// 64-bit signed integer (flight numbers, dates-as-ordinals, slot ids).
    Int(i64),
    /// Reference-counted UTF-8 string (seat labels, user names).
    Str(Arc<str>),
    /// Boolean flag (e.g. "window seat" attributes).
    Bool(bool),
}

impl Value {
    /// Build a string value. Allocates a fresh `Arc` per call; decode and
    /// parse paths that see the same text over and over should use
    /// [`Value::interned`] instead.
    pub fn str(s: impl AsRef<str>) -> Self {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// Build a string value through the process-wide interning pool:
    /// equal short strings share one `Arc` allocation (observable via
    /// `Arc::ptr_eq`/`Arc::strong_count`). The SQL parser and the
    /// WAL/codec decoders construct their string constants here, so a
    /// recovered database and a re-parsed statement stream share string
    /// storage instead of re-allocating every repeated label.
    ///
    /// The pool is bounded (4096 entries, strings up to 64 bytes);
    /// beyond either limit this degrades to [`Value::str`].
    pub fn interned(s: &str) -> Self {
        if s.len() > INTERN_MAX_LEN {
            return Value::str(s);
        }
        // Hit path: shared read lock only.
        let full = {
            let pool = intern_pool().read().unwrap_or_else(|e| e.into_inner());
            if let Some(shared) = pool.get(s) {
                return Value::Str(Arc::clone(shared));
            }
            pool.len() >= INTERN_POOL_CAP
        };
        let shared: Arc<str> = Arc::from(s);
        if !full {
            let mut pool = intern_pool().write().unwrap_or_else(|e| e.into_inner());
            // Racing first-sightings: keep whichever Arc landed first so
            // later hits all share it.
            if let Some(existing) = pool.get(s) {
                return Value::Str(Arc::clone(existing));
            }
            if pool.len() < INTERN_POOL_CAP {
                pool.insert(Arc::clone(&shared));
            }
        }
        Value::Str(shared)
    }

    /// Build an integer value.
    pub const fn int(i: i64) -> Self {
        Value::Int(i)
    }

    /// The runtime type of this value.
    pub fn value_type(&self) -> super::ValueType {
        match self {
            Value::Int(_) => super::ValueType::Int,
            Value::Str(_) => super::ValueType::Str,
            Value::Bool(_) => super::ValueType::Bool,
        }
    }

    /// Integer payload, if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// String payload, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Boolean payload, if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<i32> for Value {
    fn from(i: i32) -> Self {
        Value::Int(i64::from(i))
    }
}

impl From<usize> for Value {
    fn from(i: usize) -> Self {
        Value::Int(i as i64)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::str(s)
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(Arc::from(s.as_str()))
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Str(s) => write!(f, "'{s}'"),
            Value::Bool(b) => write!(f, "{b}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert_eq!(Value::from(42).to_string(), "42");
        assert_eq!(Value::from("5A").to_string(), "'5A'");
        assert_eq!(Value::from(true).to_string(), "true");
    }

    #[test]
    fn conversions_roundtrip() {
        assert_eq!(Value::from(7i64).as_int(), Some(7));
        assert_eq!(Value::from("x").as_str(), Some("x"));
        assert_eq!(Value::from(false).as_bool(), Some(false));
        assert_eq!(Value::from(3i32), Value::Int(3));
        assert_eq!(Value::from(5usize), Value::Int(5));
        assert_eq!(Value::from(String::from("s")), Value::str("s"));
    }

    #[test]
    fn mismatched_accessors_return_none() {
        assert_eq!(Value::from("x").as_int(), None);
        assert_eq!(Value::from(1).as_str(), None);
        assert_eq!(Value::from(1).as_bool(), None);
    }

    #[test]
    fn ordering_is_total_within_and_across_types() {
        // Enum variant order: Int < Str < Bool. Stability of this total
        // order matters because tables keep their rows in tuple order.
        assert!(Value::from(9) < Value::from("a"));
        assert!(Value::from("a") < Value::from(false));
        assert!(Value::from(1) < Value::from(2));
        assert!(Value::from("1A") < Value::from("1B"));
    }

    #[test]
    fn string_values_are_cheaply_cloneable() {
        let v = Value::str("shared");
        let w = v.clone();
        match (&v, &w) {
            (Value::Str(a), Value::Str(b)) => assert!(Arc::ptr_eq(a, b)),
            _ => unreachable!(),
        }
    }

    fn arc_of(v: &Value) -> &Arc<str> {
        match v {
            Value::Str(a) => a,
            _ => unreachable!("string value expected"),
        }
    }

    #[test]
    fn interned_strings_share_one_allocation() {
        // Two *independent* constructions of the same text: `Value::str`
        // allocates twice, `Value::interned` resolves to one shared Arc.
        let a = Value::str("value-intern-test-5A");
        let b = Value::str("value-intern-test-5A");
        assert!(!Arc::ptr_eq(arc_of(&a), arc_of(&b)));

        let c = Value::interned("value-intern-test-5A");
        let d = Value::interned("value-intern-test-5A");
        assert!(Arc::ptr_eq(arc_of(&c), arc_of(&d)));
        assert_eq!(c, a); // equality is by content either way

        // The pool holds one reference, c and d one each: the count shows
        // genuine sharing, not a fresh Arc per call.
        assert!(Arc::strong_count(arc_of(&c)) >= 3);
    }

    #[test]
    fn oversized_strings_bypass_the_pool() {
        let long = "x".repeat(INTERN_MAX_LEN + 1);
        let a = Value::interned(&long);
        let b = Value::interned(&long);
        assert_eq!(a, b);
        assert!(!Arc::ptr_eq(arc_of(&a), arc_of(&b)));
    }
}
