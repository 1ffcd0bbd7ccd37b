//! Solve requests and solutions.

use qdb_logic::{Atom, ResourceTransaction, Valuation};
use qdb_storage::WriteOp;

use crate::Result;

/// How one transaction participates in a solve: which of its optional atoms
/// are promoted to required for this search.
///
/// The quantum database invariant involves only non-optional atoms (§2);
/// grounding, however, *prefers* assignments that satisfy optional atoms —
/// the engine expresses that preference by retrying with different
/// promotion sets (largest first).
#[derive(Debug, Clone)]
pub struct TxnSpec<'a> {
    /// The transaction.
    pub txn: &'a ResourceTransaction,
    /// Indexes into `txn.body` of **optional** atoms treated as required
    /// for this solve.
    pub promoted: Vec<usize>,
}

impl<'a> TxnSpec<'a> {
    /// Spec with no optional atoms promoted (the invariant check).
    pub fn required_only(txn: &'a ResourceTransaction) -> Self {
        TxnSpec {
            txn,
            promoted: Vec::new(),
        }
    }

    /// Spec with the given optional-atom body indexes promoted.
    pub fn with_promoted(txn: &'a ResourceTransaction, promoted: Vec<usize>) -> Self {
        debug_assert!(promoted.iter().all(|&i| txn.body[i].optional));
        TxnSpec { txn, promoted }
    }

    /// The atoms this spec must ground: all non-optional body atoms plus
    /// the promoted optional ones, in body order.
    pub fn atoms(&self) -> Vec<&'a Atom> {
        self.atom_iter().collect()
    }

    /// [`TxnSpec::atoms`] without the vector.
    pub fn atom_iter(&self) -> impl Iterator<Item = &'a Atom> + '_ {
        self.txn
            .body
            .iter()
            .enumerate()
            .filter(|(i, b)| !b.optional || self.promoted.contains(i))
            .map(|(_, b)| &b.atom)
    }

    /// Indexes (into `txn.body`) of optional atoms *not* promoted here.
    pub fn unpromoted_optionals(&self) -> Vec<usize> {
        self.txn
            .body
            .iter()
            .enumerate()
            .filter(|(i, b)| b.optional && !self.promoted.contains(i))
            .map(|(i, _)| i)
            .collect()
    }
}

/// A consistent set of groundings for a solved sequence — the witness that
/// the quantum state is non-empty.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Solution {
    /// One valuation per transaction, in sequence order.
    pub valuations: Vec<Valuation>,
}

impl Solution {
    /// Empty solution (for an empty sequence).
    pub fn empty() -> Self {
        Solution::default()
    }

    /// Ground the update portions of `txns` under this solution, in order.
    /// `txns` must parallel `valuations`.
    pub fn write_ops(&self, txns: &[&ResourceTransaction]) -> Result<Vec<WriteOp>> {
        debug_assert_eq!(txns.len(), self.valuations.len());
        let mut out = Vec::new();
        for (txn, val) in txns.iter().zip(&self.valuations) {
            out.extend(txn.write_ops(val)?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdb_logic::parse_transaction;

    #[test]
    fn atoms_respect_promotion() {
        let t = parse_transaction("-A(f, s) :-1 A(f, s), B(G, f, s2)?, Adj(s, s2)?").unwrap();
        let spec = TxnSpec::required_only(&t);
        assert_eq!(spec.atoms().len(), 1);
        assert_eq!(spec.unpromoted_optionals(), vec![1, 2]);
        let spec = TxnSpec::with_promoted(&t, vec![1, 2]);
        assert_eq!(spec.atoms().len(), 3);
        assert!(spec.unpromoted_optionals().is_empty());
        let spec = TxnSpec::with_promoted(&t, vec![2]);
        let atoms = spec.atoms();
        assert_eq!(atoms.len(), 2);
        assert_eq!(atoms[1].relation.as_ref(), "Adj");
        assert_eq!(spec.unpromoted_optionals(), vec![1]);
    }

    #[test]
    fn solution_write_ops_in_sequence_order() {
        let t1 = parse_transaction("-A(x) :-1 A(x)").unwrap();
        let t2 = parse_transaction("+B(y) :-1 A(y)").unwrap();
        // Distinct transactions share var ids here (both x and y are id 0)
        // — fine for this test, each valuation is per-transaction.
        let v1: Valuation = t1
            .vars()
            .into_iter()
            .map(|v| (v, qdb_storage::Value::from(1)))
            .collect();
        let v2: Valuation = t2
            .vars()
            .into_iter()
            .map(|v| (v, qdb_storage::Value::from(2)))
            .collect();
        let sol = Solution {
            valuations: vec![v1, v2],
        };
        let ops = sol.write_ops(&[&t1, &t2]).unwrap();
        assert_eq!(ops.len(), 2);
        assert_eq!(ops[0].to_string(), "-A(1)");
        assert_eq!(ops[1].to_string(), "+B(2)");
    }
}
