//! Table schemas: column names and types.
//!
//! §3.2.1 of the paper assumes *"any relation R that appears in the
//! FOLLOWED BY clause of a resource transaction has a key, i.e., satisfies
//! set semantics"*. Every table here meets that one way: a table's key is
//! its whole row, so a schema carries no key descriptor.

use crate::error::StorageError;
use crate::tuple::Tuple;
use crate::Result;

/// Runtime type of a column. The discriminants are the log and wire
/// codec's type tags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ValueType {
    /// 64-bit integers.
    Int = 0,
    /// UTF-8 strings.
    Str = 1,
    /// Booleans.
    Bool = 2,
}

impl std::fmt::Display for ValueType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ValueType::Int => write!(f, "int"),
            ValueType::Str => write!(f, "str"),
            ValueType::Bool => write!(f, "bool"),
        }
    }
}

/// A single column definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnDef {
    /// Column name (unique within the schema).
    pub name: String,
    /// Column type.
    pub ty: ValueType,
}

/// A table schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    relation: String,
    columns: Vec<ColumnDef>,
}

impl Schema {
    /// Build a schema (set semantics: the key is the whole row).
    pub fn new(relation: impl Into<String>, columns: Vec<(&str, ValueType)>) -> Self {
        Schema {
            relation: relation.into(),
            columns: columns
                .into_iter()
                .map(|(name, ty)| ColumnDef {
                    name: name.to_string(),
                    ty,
                })
                .collect(),
        }
    }

    /// Relation name.
    pub fn relation(&self) -> &str {
        &self.relation
    }

    /// Column definitions.
    pub fn columns(&self) -> &[ColumnDef] {
        &self.columns
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Position of a column by name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    /// Validate a tuple against this schema.
    pub fn check(&self, tuple: &Tuple) -> Result<()> {
        if tuple.arity() != self.arity() {
            return Err(StorageError::ArityMismatch {
                relation: self.relation.clone(),
                expected: self.arity(),
                got: tuple.arity(),
            });
        }
        for (i, (v, c)) in tuple.iter().zip(&self.columns).enumerate() {
            if v.value_type() != c.ty {
                return Err(StorageError::TypeMismatch {
                    relation: self.relation.clone(),
                    column: i,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    fn bookings() -> Schema {
        Schema::new(
            "Bookings",
            vec![
                ("name", ValueType::Str),
                ("flight", ValueType::Int),
                ("seat", ValueType::Str),
            ],
        )
    }

    #[test]
    fn whole_tuple_key_by_default() {
        // A table's key is its whole row: rows that differ in one column
        // are both held, an identical row is not held twice.
        let mut t = crate::table::Table::new(bookings());
        assert!(t.insert(tuple!["Mickey", 123, "5A"]).unwrap());
        assert!(t.insert(tuple!["Mickey", 123, "5B"]).unwrap());
        assert!(!t.insert(tuple!["Mickey", 123, "5A"]).unwrap());
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn check_catches_arity_and_type_errors() {
        let s = bookings();
        assert!(s.check(&tuple!["Mickey", 123, "5A"]).is_ok());
        assert!(matches!(
            s.check(&tuple!["Mickey", 123]),
            Err(StorageError::ArityMismatch { .. })
        ));
        assert!(matches!(
            s.check(&tuple!["Mickey", "x", "5A"]),
            Err(StorageError::TypeMismatch { column: 1, .. })
        ));
    }

    #[test]
    fn column_index_lookup() {
        let s = bookings();
        assert_eq!(s.column_index("flight"), Some(1));
        assert_eq!(s.column_index("nope"), None);
    }
}
