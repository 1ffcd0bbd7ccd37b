//! Logic-layer error type.

use std::fmt;

/// Errors raised by the logic layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogicError {
    /// Text failed to parse; includes position and reason.
    Parse {
        /// Byte offset in the input.
        at: usize,
        /// Human-readable reason.
        reason: String,
    },
    /// A transaction violates the range-restriction requirement (§2: every
    /// variable of `U` must occur in `B`; we additionally require it to
    /// occur in a *non-optional* atom, since optional atoms may go
    /// unsatisfied and therefore cannot bind update variables).
    RangeRestriction {
        /// The offending variable's display name.
        var: String,
    },
    /// A formula was evaluated with an unbound variable.
    UnboundVariable {
        /// The offending variable's display name.
        var: String,
    },
    /// A prepared statement was bound with the wrong number of parameters
    /// (or executed with placeholders still unbound).
    Params {
        /// Placeholders in the statement.
        expected: usize,
        /// Values supplied.
        got: usize,
    },
    /// Malformed bytes handed to the transaction codec.
    Codec(String),
    /// A transaction holds more update atoms, body atoms or terms in one
    /// atom than a log record can ([`qdb_storage::codec::MAX_LOG_COUNT`]).
    TooLarge {
        /// What is counted.
        what: &'static str,
        /// How many the transaction holds.
        count: usize,
    },
}

impl fmt::Display for LogicError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LogicError::Parse { at, reason } => write!(f, "parse error at byte {at}: {reason}"),
            LogicError::RangeRestriction { var } => write!(
                f,
                "range restriction violated: update variable '{var}' does not occur in a non-optional body atom"
            ),
            LogicError::UnboundVariable { var } => {
                write!(f, "variable '{var}' is unbound at evaluation time")
            }
            LogicError::Params { expected, got } => write!(
                f,
                "statement takes {expected} parameter(s), {got} bound"
            ),
            LogicError::Codec(msg) => write!(f, "transaction codec error: {msg}"),
            LogicError::TooLarge { what, count } => write!(
                f,
                "transaction has {count} {what}; a logged transaction holds at most {}",
                qdb_storage::codec::MAX_LOG_COUNT
            ),
        }
    }
}

impl std::error::Error for LogicError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_name_the_variable() {
        let e = LogicError::RangeRestriction { var: "s1".into() };
        assert!(e.to_string().contains("s1"));
        let e = LogicError::UnboundVariable { var: "f".into() };
        assert!(e.to_string().contains('f'));
    }
}
