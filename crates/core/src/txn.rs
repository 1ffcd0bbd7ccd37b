//! Engine-side pending transactions.

use qdb_logic::ResourceTransaction;

use crate::TxnId;

/// A committed resource transaction whose value assignment is still
/// pending — the intensional portion of the quantum database state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PendingTxn {
    /// Engine-assigned id (monotone in arrival order).
    pub id: TxnId,
    /// The transaction, with variables freshened into the engine's global
    /// variable space.
    pub txn: ResourceTransaction,
}

impl PendingTxn {
    /// Build a pending entry.
    pub fn new(id: TxnId, txn: ResourceTransaction) -> Self {
        PendingTxn { id, txn }
    }
}

impl std::fmt::Display for PendingTxn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "T{}: {}", self.id, self.txn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdb_logic::parse_transaction;

    #[test]
    fn display_includes_id_and_body() {
        let t = parse_transaction("-A(x) :-1 A(x)").unwrap();
        let p = PendingTxn::new(7, t);
        assert_eq!(p.to_string(), "T7: -A(x) :-1 A(x)");
    }
}
