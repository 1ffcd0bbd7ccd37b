//! Typed data values stored in tuples.
//!
//! The paper's domains are flight numbers, seat labels, dates and user names
//! — integers, strings and booleans cover all of them. `Value` is the single
//! constant type shared by the storage layer, the logic layer (as the range
//! of groundings/valuations) and the solver. Its strings are
//! [`Str`]s: short ones inline, so the values the parser,
//! the template binder and the WAL/wire decoders build allocate nothing.

use std::fmt;

use crate::text::Str;

/// A single column value.
///
/// A string is a [`Str`]: up to 22 bytes live inline, so building,
/// cloning and dropping a short value allocates nothing and counts no
/// references; a longer one is one unshared `Arc<str>`. A `Value` is 24
/// bytes, and so is an `Option<Value>`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Value {
    /// 64-bit signed integer (flight numbers, dates-as-ordinals, slot ids).
    Int(i64),
    /// UTF-8 string (seat labels, user names).
    Str(Str),
    /// Boolean flag (e.g. "window seat" attributes).
    Bool(bool),
}

impl Value {
    /// Build a string value: inline up to 22 bytes, else one allocation.
    #[inline]
    pub fn str(s: impl AsRef<str>) -> Self {
        Value::Str(Str::new(s.as_ref()))
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
        Value::str(s)
    }
}

impl From<Str> for Value {
    fn from(s: Str) -> Self {
        Value::Str(s)
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
}
