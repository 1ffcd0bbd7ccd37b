//! Engine error type.

use std::fmt;

use qdb_wire::code;

/// Errors surfaced by the quantum database engine.
///
/// Note that a transaction failing admission is **not** an error — it is
/// a normal outcome ([`crate::SubmitOutcome::Aborted`]); likewise a
/// rejected write returns `Ok(false)`. Errors mean the request itself was
/// malformed or an internal invariant broke.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// Underlying storage failure.
    Storage(qdb_storage::StorageError),
    /// Underlying logic failure.
    Logic(qdb_logic::LogicError),
    /// Underlying solver failure.
    Solver(qdb_solver::SolverError),
    /// The engine's in-memory state diverged from its invariants (a bug,
    /// or a corrupted recovery image).
    Invariant(String),
    /// Recovery found pending transactions that no longer have a
    /// consistent grounding (the log is not a valid engine history).
    RecoveryUnsatisfiable {
        /// Transaction id that could not be re-solved.
        txn: u64,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Storage(e) => write!(f, "storage: {e}"),
            EngineError::Logic(e) => write!(f, "logic: {e}"),
            EngineError::Solver(e) => write!(f, "solver: {e}"),
            EngineError::Invariant(msg) => write!(f, "engine invariant violated: {msg}"),
            EngineError::RecoveryUnsatisfiable { txn } => {
                write!(
                    f,
                    "recovery: pending transaction {txn} is no longer satisfiable"
                )
            }
        }
    }
}

impl std::error::Error for EngineError {}

impl EngineError {
    /// The stable error code this error crosses the wire with.
    pub fn code(&self) -> u8 {
        match self {
            EngineError::Storage(_) => code::STORAGE,
            EngineError::Logic(_) => code::LOGIC,
            EngineError::Solver(_) => code::SOLVER,
            EngineError::Invariant(_) => code::INVARIANT,
            EngineError::RecoveryUnsatisfiable { .. } => code::RECOVERY,
        }
    }
}

impl From<qdb_storage::StorageError> for EngineError {
    fn from(e: qdb_storage::StorageError) -> Self {
        EngineError::Storage(e)
    }
}

impl From<qdb_logic::LogicError> for EngineError {
    fn from(e: qdb_logic::LogicError) -> Self {
        EngineError::Logic(e)
    }
}

impl From<qdb_solver::SolverError> for EngineError {
    fn from(e: qdb_solver::SolverError) -> Self {
        EngineError::Solver(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_preserve_messages() {
        let e: EngineError = qdb_storage::StorageError::NoSuchTable("T".into()).into();
        assert!(e.to_string().contains('T'));
        let e: EngineError = qdb_solver::SolverError::LimitExceeded { nodes: 3 }.into();
        assert!(e.to_string().contains('3'));
        assert!(EngineError::RecoveryUnsatisfiable { txn: 12 }
            .to_string()
            .contains("12"));
    }

    #[test]
    fn error_codes_cover_engine_errors() {
        let e = EngineError::Logic(qdb_logic::LogicError::Codec("x".into()));
        assert_eq!(e.code(), code::LOGIC);
        let e = EngineError::Storage(qdb_storage::StorageError::NoSuchTable("T".into()));
        assert_eq!(e.code(), code::STORAGE);
        assert_eq!(EngineError::Invariant("x".into()).code(), code::INVARIANT);
        assert_eq!(
            EngineError::RecoveryUnsatisfiable { txn: 0 }.code(),
            code::RECOVERY
        );
    }
}
