//! The solution cache (§4).
//!
//! *"The prototype maintains an in-memory cache of possible solutions (i.e.,
//! value assignments) to the composed transaction bodies. … When a new
//! resource transaction arrives in the system, we check whether an existing
//! solution in the cache can be extended to accommodate the new
//! transaction"* — only if extension fails does the system fall back to a
//! full satisfiability check, and only if *that* fails is the transaction
//! aborted.
//!
//! A [`CachedSolution`] holds one valuation per pending transaction of a
//! partition, in sequence order. The engine extends it inside the
//! partition's pending world ([`Solver::solve_in`] on the solution's
//! virtual state) and falls back to [`CachedSolution::resolve`].

use qdb_logic::{ResourceTransaction, Valuation};
use qdb_storage::{Database, WriteOp};

use crate::search::Solver;
use crate::spec::TxnSpec;
use crate::Result;

/// One known-consistent set of groundings for a partition's pending
/// transactions.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CachedSolution {
    /// One valuation per pending transaction, parallel to the partition's
    /// pending list.
    pub valuations: Vec<Valuation>,
}

impl CachedSolution {
    /// All write ops of the cached groundings, in sequence order — the
    /// "virtual state" the next transaction would see.
    pub fn pending_ops(&self, txns: &[&ResourceTransaction]) -> Result<Vec<WriteOp>> {
        debug_assert_eq!(txns.len(), self.valuations.len());
        let mut out = Vec::with_capacity(txns.len() * 2);
        for (txn, val) in txns.iter().zip(&self.valuations) {
            out.extend(txn.write_ops(val)?);
        }
        Ok(out)
    }

    /// Solve the whole sequence from scratch.
    pub fn resolve(
        solver: &mut Solver,
        base: &Database,
        txns: &[&ResourceTransaction],
    ) -> Result<Option<CachedSolution>> {
        let specs: Vec<TxnSpec> = txns.iter().map(|t| TxnSpec::required_only(t)).collect();
        Ok(solver.solve(base, &[], &specs)?.map(|sol| CachedSolution {
            valuations: sol.valuations,
        }))
    }

    /// Drop the grounding at `index` (its transaction left the pending
    /// list). The remaining cached solution stays consistent when the
    /// removed transaction's updates were applied to the base exactly as
    /// cached *and* it was the sequence head; any other removal pattern
    /// must be followed by a re-verify or [`CachedSolution::resolve`].
    pub fn remove(&mut self, index: usize) -> Valuation {
        self.valuations.remove(index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Overlay;
    use qdb_logic::parse_transaction;
    use qdb_storage::{tuple, Schema, ValueType};

    fn tiny_db(seats: &[&str]) -> Database {
        let mut db = Database::new();
        db.create_table(Schema::new(
            "Available",
            vec![("flight", ValueType::Int), ("seat", ValueType::Str)],
        ))
        .unwrap();
        db.create_table(Schema::new(
            "Bookings",
            vec![
                ("name", ValueType::Str),
                ("flight", ValueType::Int),
                ("seat", ValueType::Str),
            ],
        ))
        .unwrap();
        for s in seats {
            db.insert("Available", tuple![1, *s]).unwrap();
        }
        db
    }

    fn book(name: &str) -> ResourceTransaction {
        parse_transaction(&format!(
            "-Available(f, s), +Bookings('{name}', f, s) :-1 Available(f, s)"
        ))
        .unwrap()
    }

    /// Is `cache` a consistent grounding of `txns` on `db`?
    fn verifies(
        solver: &mut Solver,
        db: &Database,
        txns: &[&ResourceTransaction],
        cache: &CachedSolution,
    ) -> bool {
        let specs: Vec<TxnSpec> = txns.iter().map(|t| TxnSpec::required_only(t)).collect();
        solver.verify(db, &[], &specs, &cache.valuations).unwrap()
    }

    /// Extend `cache` by `txn` inside `world`, its virtual state, as the
    /// engine's admission does; `false` leaves both untouched.
    fn extend(
        solver: &mut Solver,
        db: &Database,
        world: &mut Overlay,
        cache: &mut CachedSolution,
        txn: &ResourceTransaction,
    ) -> bool {
        let spec = TxnSpec::required_only(txn);
        let Some(sol) = solver.solve_in(db, world, &[spec]).unwrap() else {
            return false;
        };
        cache.valuations.extend(sol.valuations);
        true
    }

    #[test]
    fn extend_until_capacity_then_fail() {
        let db = tiny_db(&["1A", "1B"]);
        let mut solver = Solver::default();
        let (mut world, mut cache) = (Overlay::new(), CachedSolution::default());
        let t1 = book("U1");
        let t2 = book("U2");
        let t3 = book("U3");
        assert!(extend(&mut solver, &db, &mut world, &mut cache, &t1));
        assert!(extend(&mut solver, &db, &mut world, &mut cache, &t2));
        // Two seats, two bookings: a third cannot extend.
        let before = world.clone();
        assert!(!extend(&mut solver, &db, &mut world, &mut cache, &t3));
        assert_eq!((cache.valuations.len(), world), (2, before));
        assert!(verifies(&mut solver, &db, &[&t1, &t2], &cache));
    }

    #[test]
    fn resolve_finds_solution_extension_misses() {
        // Extension can fail while a full re-solve succeeds: the cached
        // grounding for T1 takes the seat T2 needs.
        let mut db = tiny_db(&["1A", "1B"]);
        db.create_table(Schema::new(
            "Pin",
            vec![("flight", ValueType::Int), ("seat", ValueType::Str)],
        ))
        .unwrap();
        db.insert("Pin", tuple![1, "1A"]).unwrap();
        let t1 = book("U1"); // free to take any seat
        let t2 = parse_transaction(
            "-Available(f, s), +Bookings('U2', f, s) :-1 Available(f, s), Pin(f, s)",
        )
        .unwrap(); // must take 1A
        let mut solver = Solver::default();
        let (mut world, mut cache) = (Overlay::new(), CachedSolution::default());
        assert!(extend(&mut solver, &db, &mut world, &mut cache, &t1));
        // The solver deterministically gave U1 seat 1A (first candidate).
        // Extension for U2 fails…
        assert!(!extend(&mut solver, &db, &mut world, &mut cache, &t2));
        // …but the full re-solve reassigns U1 to 1B and fits both.
        let admitted = [&t1, &t2];
        let resolved = CachedSolution::resolve(&mut solver, &db, &admitted)
            .unwrap()
            .expect("jointly satisfiable");
        assert_eq!(resolved.valuations.len(), 2);
        assert!(verifies(&mut solver, &db, &admitted, &resolved));
    }

    #[test]
    fn verify_fails_after_base_change() {
        let mut db = tiny_db(&["1A"]);
        let t1 = book("U1");
        let mut solver = Solver::default();
        let admitted = [&t1];
        let cache = CachedSolution::resolve(&mut solver, &db, &admitted)
            .unwrap()
            .unwrap();
        assert!(verifies(&mut solver, &db, &admitted, &cache));
        // Someone blind-deletes the seat out from under the cache.
        db.delete("Available", &tuple![1, "1A"]).unwrap();
        assert!(!verifies(&mut solver, &db, &admitted, &cache));
    }

    #[test]
    fn remove_head_keeps_rest_valid() {
        let mut db = tiny_db(&["1A", "1B"]);
        let t1 = book("U1");
        let t2 = book("U2");
        let mut solver = Solver::default();
        let admitted = [&t1, &t2];
        let mut cache = CachedSolution::resolve(&mut solver, &db, &admitted)
            .unwrap()
            .unwrap();
        // Ground T1 exactly as cached: apply its ops to base, drop entry 0.
        let ops = t1.write_ops(&cache.valuations[0]).unwrap();
        db.apply_all(&ops).unwrap();
        cache.remove(0);
        assert!(verifies(&mut solver, &db, &[&t2], &cache));
    }
}
