//! Entangled resource transactions (§5.1).
//!
//! A coordination constraint ("I want to sit next to Goofy") is an
//! *optional* body atom that can only be satisfied through another user's
//! booking — either one already in the extensional database, or the
//! pending insert of another resource transaction. While the partner has
//! not arrived, the constraint is a **forward constraint**, kept open by
//! leaving the transaction pending. *"An entangled resource transaction
//! waiting for its partner is finally executed as soon as its partner
//! arrives"* — when the engine admits a transaction, it looks for pending
//! partners and grounds the pair jointly.

use qdb_logic::{unifiable, ResourceTransaction};

use crate::txn::{PendingTxn, TxnId};

/// Does `a` declare a coordination interest in `b`? True when an optional
/// atom of `a` unifies with an insert of `b`'s update portion — i.e. `b`'s
/// booking could satisfy `a`'s soft preference.
pub fn coordinates_with(a: &ResourceTransaction, b: &ResourceTransaction) -> bool {
    a.optional_body()
        .any(|opt| b.inserts().any(|ins| unifiable(&opt.atom, &ins.atom)))
}

/// Pending transactions that form a coordination pair with `new_txn`
/// (either direction), in the order given (callers pass arrival order).
/// Borrows: the callers sit on statement paths and filter a partition's
/// pending list in place.
pub fn coordination_partners<'a>(
    new_txn: &ResourceTransaction,
    pending: impl IntoIterator<Item = &'a PendingTxn>,
) -> Vec<TxnId> {
    pending
        .into_iter()
        .filter(|p| coordinates_with(new_txn, &p.txn) || coordinates_with(&p.txn, new_txn))
        .map(|p| p.id)
        .collect()
}

/// Does `txn` carry any coordination constraint at all (an optional atom
/// over a relation that some update could write)? Used by workloads to
/// label transactions.
pub fn has_coordination_constraint(txn: &ResourceTransaction) -> bool {
    txn.optional_body().next().is_some()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdb_logic::parse_transaction;

    fn mickey() -> ResourceTransaction {
        parse_transaction(
            "-Available(f, s), +Bookings('Mickey', f, s) :-1 \
             Available(f, s), Bookings('Goofy', f, s2)?, Adjacent(s, s2)?",
        )
        .unwrap()
    }

    fn goofy() -> ResourceTransaction {
        parse_transaction(
            "-Available(f, s), +Bookings('Goofy', f, s) :-1 \
             Available(f, s), Bookings('Mickey', f, s2)?, Adjacent(s, s2)?",
        )
        .unwrap()
    }

    fn pluto() -> ResourceTransaction {
        parse_transaction("-Available(f, s), +Bookings('Pluto', f, s) :-1 Available(f, s)").unwrap()
    }

    #[test]
    fn partners_detected_in_both_directions() {
        assert!(coordinates_with(&mickey(), &goofy()));
        assert!(coordinates_with(&goofy(), &mickey()));
        // Pluto books for himself; his insert is Bookings('Pluto',…) which
        // unifies with nobody's optional Bookings('Goofy'/'Mickey',…).
        assert!(!coordinates_with(&mickey(), &pluto()));
        assert!(!coordinates_with(&pluto(), &mickey()));
    }

    #[test]
    fn partner_scan_over_pending_list() {
        let pending = vec![
            PendingTxn::new(1, pluto()),
            PendingTxn::new(2, mickey()),
            PendingTxn::new(3, pluto()),
        ];
        assert_eq!(coordination_partners(&goofy(), &pending), vec![2]);
        assert!(coordination_partners(&pluto(), &pending).is_empty());
    }

    #[test]
    fn coordination_labels() {
        assert!(has_coordination_constraint(&mickey()));
        assert!(!has_coordination_constraint(&pluto()));
    }
}
