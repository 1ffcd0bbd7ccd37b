//! The materializing possible-worlds reference, shared by the tests that
//! hold `enumerate_worlds` and `SELECT POSSIBLE` to it.

use qdb_core::world_fingerprint;
use qdb_logic::ResourceTransaction;
use qdb_solver::{Solver, TxnSpec};
use qdb_storage::Database;

/// What the clone-based enumeration reports.
pub struct Reference {
    /// Distinct worlds, in discovery order.
    pub worlds: Vec<Database>,
    pub truncated: bool,
    pub enumerated: u64,
    pub dedup_hits: u64,
}

/// The pre-delta implementation, verbatim in structure: fork by cloning
/// the whole database, solve each world as a bare base, stop past `bound`
/// live forks, and dedup at the end by full-database fingerprint.
pub fn enumerate_worlds_materialized(
    base: &Database,
    txns: &[&ResourceTransaction],
    bound: usize,
    seed: u64,
) -> Reference {
    let mut solver = Solver::default();
    solver.seed = seed;
    let mut worlds: Vec<Database> = vec![base.clone()];
    let (mut enumerated, mut truncated) = (0, false);
    for txn in txns {
        let mut next: Vec<Database> = Vec::new();
        'fork: for w in &worlds {
            let groundings = solver
                .enumerate_one(w, &[], &TxnSpec::required_only(txn), bound + 1)
                .expect("reference enumeration");
            for val in groundings {
                let mut forked = w.clone();
                for op in txn.write_ops(&val).expect("grounded ops") {
                    forked.apply(&op).expect("ops apply");
                }
                next.push(forked);
                enumerated += 1;
                if next.len() > bound {
                    truncated = true;
                    break 'fork;
                }
            }
        }
        worlds = next;
        if truncated || worlds.is_empty() {
            break;
        }
    }
    let forks = worlds.len() as u64;
    let mut seen = std::collections::BTreeSet::new();
    worlds.retain(|w| seen.insert(world_fingerprint(w)));
    Reference {
        dedup_hits: forks - worlds.len() as u64,
        worlds,
        truncated,
        enumerated,
    }
}
