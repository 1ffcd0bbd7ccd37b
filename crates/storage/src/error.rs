//! Storage-level error type.

use std::fmt;

/// Errors surfaced by the storage engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// A table with this name already exists.
    TableExists(String),
    /// No table with this name.
    NoSuchTable(String),
    /// Tuple arity does not match the table schema.
    ArityMismatch {
        /// Relation name.
        relation: String,
        /// Arity declared by the schema.
        expected: usize,
        /// Arity of the offending tuple.
        got: usize,
    },
    /// Tuple column type does not match the schema.
    TypeMismatch {
        /// Relation name.
        relation: String,
        /// Column index of the offending value.
        column: usize,
    },
    /// Delete of a row that is not present.
    NoSuchRow {
        /// Relation name.
        relation: String,
    },
    /// Schema descriptor is itself invalid (bad index column, …).
    InvalidSchema(String),
    /// A log frame failed its checksum or was truncated mid-frame.
    CorruptLog {
        /// Byte offset of the bad frame.
        offset: u64,
        /// Human-readable reason.
        reason: String,
    },
    /// Malformed bytes handed to the codec.
    Codec(String),
    /// Underlying I/O failure (file-backed log sinks).
    Io(String),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::TableExists(n) => write!(f, "table '{n}' already exists"),
            StorageError::NoSuchTable(n) => write!(f, "no such table '{n}'"),
            StorageError::ArityMismatch {
                relation,
                expected,
                got,
            } => write!(
                f,
                "arity mismatch on '{relation}': schema has {expected} columns, tuple has {got}"
            ),
            StorageError::TypeMismatch { relation, column } => {
                write!(f, "type mismatch on '{relation}' column {column}")
            }
            StorageError::NoSuchRow { relation } => {
                write!(f, "row not present in '{relation}'")
            }
            StorageError::InvalidSchema(msg) => write!(f, "invalid schema: {msg}"),
            StorageError::CorruptLog { offset, reason } => {
                write!(f, "corrupt log at offset {offset}: {reason}")
            }
            StorageError::Codec(msg) => write!(f, "codec error: {msg}"),
            StorageError::Io(msg) => write!(f, "i/o error: {msg}"),
        }
    }
}

impl std::error::Error for StorageError {}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = StorageError::ArityMismatch {
            relation: "Available".into(),
            expected: 2,
            got: 3,
        };
        assert!(e.to_string().contains("Available"));
        assert!(e.to_string().contains('2'));
        let e = StorageError::CorruptLog {
            offset: 17,
            reason: "bad crc".into(),
        };
        assert!(e.to_string().contains("17"));
    }

    #[test]
    fn io_errors_convert() {
        let io = std::io::Error::other("boom");
        let e: StorageError = io.into();
        assert!(matches!(e, StorageError::Io(_)));
    }
}
