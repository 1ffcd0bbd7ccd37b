//! Explicit possible-worlds semantics (§3.1, Figure 2).
//!
//! The quantum database represents its possible worlds *intensionally*;
//! this module enumerates them by explicit forking — exactly the thought
//! experiment of §3.1 ("suppose the system finds all possible values that
//! could be assigned … and forks the database state into several possible
//! worlds"). A world is **never materialized**: each fork is a
//! [`WorldDelta`] — a copy-on-write chain of write-op chunks over the
//! shared base — and queries evaluate against `base + delta` through a
//! [`DeltaView`]. Forking is O(pending ops), deduplication fingerprints
//! net deltas instead of serializing whole databases, and the base is
//! only ever *read*. Exponential in pending depth by nature, therefore
//! bounded: it powers [`crate::SharedQuantumDb::read_possible`], the Figure 2
//! example, and the property tests that cross-validate the solver against
//! the possible-worlds semantics (intensional SAT ⟺ non-empty world set).

use std::collections::BTreeSet;
use std::sync::Arc;

use qdb_logic::ResourceTransaction;
use qdb_solver::{Solver, TxnSpec};
use qdb_storage::{Database, DeltaView, WriteOp};

use crate::Result;

/// One possible world, represented as a delta over a shared base: a
/// copy-on-write chain of write-op chunks (each fork appends one chunk
/// and shares its ancestors' chunks through `Arc`s).
#[derive(Debug)]
pub struct WorldDelta {
    parent: Option<Arc<WorldDelta>>,
    /// Ops appended at this fork, each of which changed the visible state
    /// when applied (no-ops are dropped at fork time, so replaying the
    /// flattened chain through any op-applier is conflict-free).
    ops: Vec<WriteOp>,
}

impl WorldDelta {
    /// The un-forked root world (view = base).
    pub fn root() -> Arc<WorldDelta> {
        Arc::new(WorldDelta {
            parent: None,
            ops: Vec::new(),
        })
    }

    /// Fork a child world: apply `raw_ops` on `parent`'s view of `base`,
    /// keeping only the ops that changed the state (mirroring
    /// [`Database::apply`]'s set-semantic no-ops). Errors on key
    /// violations, exactly as applying to a materialized clone would.
    pub fn fork(
        base: &Database,
        parent: &Arc<WorldDelta>,
        raw_ops: Vec<WriteOp>,
    ) -> Result<Arc<WorldDelta>> {
        let mut view = parent.view(base)?;
        let mut ops = Vec::with_capacity(raw_ops.len());
        for op in raw_ops {
            if view.apply(&op)? {
                ops.push(op);
            }
        }
        Ok(Arc::new(WorldDelta {
            parent: Some(Arc::clone(parent)),
            ops,
        }))
    }

    /// The full op sequence, root → leaf.
    pub fn ops(&self) -> Vec<WriteOp> {
        let mut chunks: Vec<&[WriteOp]> = Vec::new();
        let mut cur = Some(self);
        while let Some(w) = cur {
            chunks.push(&w.ops);
            cur = w.parent.as_deref();
        }
        chunks.reverse();
        chunks.concat()
    }

    /// The world as a [`DeltaView`] over `base` — the O(pending) way to
    /// query it.
    pub fn view<'a>(&self, base: &'a Database) -> Result<DeltaView<'a>> {
        let mut view = DeltaView::new(base);
        view.apply_all(&self.ops())?;
        Ok(view)
    }

    /// Materialize the world as a standalone database (clones the base —
    /// counted by [`Database::clone_count`]; tests and diagnostics only).
    pub fn materialize(&self, base: &Database) -> Result<Database> {
        Ok(self.view(base)?.materialize()?)
    }
}

/// An enumerated set of possible worlds (deltas over a shared base).
#[derive(Debug)]
pub struct WorldSet {
    /// The distinct worlds (deduplicated by net-delta fingerprint).
    pub worlds: Vec<Arc<WorldDelta>>,
    /// True when enumeration stopped at the bound — `worlds` is then a
    /// subset of the true world set.
    pub truncated: bool,
    /// World forks created during enumeration (before deduplication).
    pub enumerated: u64,
    /// Forks discarded as duplicates of an already-seen net delta.
    pub dedup_hits: u64,
}

impl WorldSet {
    /// Number of (distinct) worlds.
    pub fn len(&self) -> usize {
        self.worlds.len()
    }

    /// True when the set of possible worlds is empty — the ∅ quantum state
    /// that normal execution must avoid (Definition 3.1).
    pub fn is_empty(&self) -> bool {
        self.worlds.is_empty()
    }
}

/// A canonical content fingerprint of a database (tables in name order,
/// rows in key order) — used by recovery equivalence checks and the
/// worlds property tests to compare materialized states.
pub fn world_fingerprint(db: &Database) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    for table in db.tables() {
        let _ = write!(out, "{}[", table.schema().relation());
        for row in table.iter() {
            let _ = write!(out, "{row}");
        }
        out.push(']');
    }
    out
}

/// Enumerate the possible worlds of `base` under the pending sequence
/// `txns` (arrival order), by explicit **delta** forking. Stops (with
/// `truncated = true`) once more than `bound` worlds are live.
///
/// Only non-optional body atoms constrain the forking, matching the
/// engine invariant; optional-atom preferences affect which world the
/// engine *picks*, not which worlds are possible.
pub fn enumerate_worlds(
    base: &Database,
    txns: &[&ResourceTransaction],
    bound: usize,
) -> Result<WorldSet> {
    enumerate_worlds_seeded(base, txns, bound, 0)
}

/// [`enumerate_worlds`] with an explicit solver seed
/// ([`qdb_solver::Solver::seed`]): the seed selects the deterministic
/// *discovery order* of groundings — and therefore which worlds survive a
/// truncating `bound` — without changing the un-truncated world set. Seed
/// `0` is the historical order; the engines thread
/// `QuantumDbConfig::seed` through here so `SELECT POSSIBLE` answers are
/// a pure function of the configured seed.
pub fn enumerate_worlds_seeded(
    base: &Database,
    txns: &[&ResourceTransaction],
    bound: usize,
    seed: u64,
) -> Result<WorldSet> {
    let mut solver = Solver::default();
    solver.seed = seed;
    let mut worlds: Vec<Arc<WorldDelta>> = vec![WorldDelta::root()];
    let mut enumerated = 0u64;
    for txn in txns {
        let mut next: Vec<Arc<WorldDelta>> = Vec::new();
        for w in &worlds {
            let pre_ops = w.ops();
            let groundings =
                solver.enumerate_one(base, &pre_ops, &TxnSpec::required_only(txn), bound + 1)?;
            for val in groundings {
                let forked = WorldDelta::fork(base, w, txn.write_ops(&val)?)?;
                enumerated += 1;
                next.push(forked);
                if next.len() > bound {
                    let (worlds, dedup_hits) = dedup(base, next)?;
                    return Ok(WorldSet {
                        worlds,
                        truncated: true,
                        enumerated,
                        dedup_hits,
                    });
                }
            }
        }
        worlds = next;
        if worlds.is_empty() {
            break; // no world survives: the sequence is unsatisfiable
        }
    }
    let (worlds, dedup_hits) = dedup(base, worlds)?;
    Ok(WorldSet {
        worlds,
        truncated: false,
        enumerated,
        dedup_hits,
    })
}

/// Deduplicate worlds by the fingerprint of their **net delta** over the
/// shared base (O(pending) per world) — two forks that reached the same
/// state through different op orders collapse into one.
fn dedup(base: &Database, worlds: Vec<Arc<WorldDelta>>) -> Result<(Vec<Arc<WorldDelta>>, u64)> {
    let mut seen: BTreeSet<String> = BTreeSet::new();
    let mut out = Vec::with_capacity(worlds.len());
    let mut hits = 0u64;
    for w in worlds {
        if seen.insert(w.view(base)?.fingerprint()) {
            out.push(w);
        } else {
            hits += 1;
        }
    }
    Ok((out, hits))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdb_logic::parse_transaction;
    use qdb_storage::{tuple, Schema, TupleView, ValueType};

    /// Figure 2's setup: one flight (123) with three seats 1A, 1B, 1C.
    fn figure2_db() -> Database {
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
        db.create_table(Schema::new(
            "Adjacent",
            vec![("s1", ValueType::Str), ("s2", ValueType::Str)],
        ))
        .unwrap();
        for s in ["1A", "1B", "1C"] {
            db.insert("Available", tuple![123, s]).unwrap();
        }
        for (a, b) in [("1A", "1B"), ("1B", "1A"), ("1B", "1C"), ("1C", "1B")] {
            db.insert("Adjacent", tuple![a, b]).unwrap();
        }
        db
    }

    fn book(name: &str) -> ResourceTransaction {
        parse_transaction(&format!(
            "-Available(f, s), +Bookings('{name}', f, s) :-1 Available(f, s)"
        ))
        .unwrap()
    }

    /// Minnie requires (hard constraint, for the world-counting of Fig. 2's
    /// final panel) a seat adjacent to Mickey's.
    fn book_next_to(name: &str, partner: &str) -> ResourceTransaction {
        parse_transaction(&format!(
            "-Available(f, s), +Bookings('{name}', f, s) :-1 \
             Available(f, s), Bookings('{partner}', f, s2), Adjacent(s, s2)"
        ))
        .unwrap()
    }

    #[test]
    fn figure2_world_evolution() {
        let db = figure2_db();
        let mickey = book("Mickey");
        let donald = book("Donald");
        let minnie = book_next_to("Minnie", "Mickey");

        // After Mickey: 3 possible worlds (one per seat).
        let w1 = enumerate_worlds(&db, &[&mickey], 100).unwrap();
        assert_eq!(w1.len(), 3);
        // After Donald: 3 × 2 = 6 worlds.
        let w2 = enumerate_worlds(&db, &[&mickey, &donald], 100).unwrap();
        assert_eq!(w2.len(), 6);
        // Minnie must sit next to Mickey: eliminates worlds where no seat
        // adjacent to Mickey's is free. Mickey 1A → Donald must not hold
        // 1B... enumerate: only groundings where the remaining seat is
        // adjacent to Mickey's survive. By symmetry: Mickey seat X, Donald
        // and Minnie split the rest with Minnie adjacent to X.
        let w3 = enumerate_worlds(&db, &[&mickey, &donald, &minnie], 100).unwrap();
        assert!(!w3.is_empty());
        // Check every surviving world seats Minnie adjacent to Mickey —
        // read through the delta views, no world is ever materialized.
        for w in &w3.worlds {
            let view = w.view(&db).unwrap();
            let bookings = view.matching_rows("Bookings", &[None, None, None]).unwrap();
            let seat_of = |n: &str| {
                bookings
                    .iter()
                    .find(|t| t[0].as_str() == Some(n))
                    .map(|t| t[2].as_str().unwrap().to_string())
                    .unwrap()
            };
            let m = seat_of("Mickey");
            let mi = seat_of("Minnie");
            assert!(view.contains("Adjacent", &tuple![mi.as_str(), m.as_str()]));
        }
        // Mickey on 1A or 1C forces Minnie onto 1B; Mickey on 1B lets
        // Minnie take 1A or 1C: 4 worlds total.
        assert_eq!(w3.len(), 4);
        assert!(!w3.truncated);
        // The whole evolution enumerated deltas only: zero base clones.
        assert_eq!(db.clone_count(), 0);
    }

    #[test]
    fn overbooking_empties_the_world_set() {
        let db = figure2_db();
        let txns: Vec<ResourceTransaction> = (0..4).map(|i| book(&format!("U{i}"))).collect();
        let refs: Vec<&ResourceTransaction> = txns.iter().collect();
        let ws = enumerate_worlds(&db, &refs, 1000).unwrap();
        assert!(ws.is_empty());
    }

    #[test]
    fn bound_truncates_safely() {
        let db = figure2_db();
        let mickey = book("Mickey");
        let donald = book("Donald");
        let ws = enumerate_worlds(&db, &[&mickey, &donald], 2).unwrap();
        assert!(ws.truncated);
        assert!(ws.len() <= 3);
    }

    #[test]
    fn fingerprints_detect_equal_content() {
        let db = figure2_db();
        let mut db2 = figure2_db();
        assert_eq!(world_fingerprint(&db), world_fingerprint(&db2));
        db2.delete("Available", &tuple![123, "1A"]).unwrap();
        assert_ne!(world_fingerprint(&db), world_fingerprint(&db2));
    }

    #[test]
    fn world_deltas_materialize_to_the_forked_state() {
        let db = figure2_db();
        let mickey = book("Mickey");
        let ws = enumerate_worlds(&db, &[&mickey], 100).unwrap();
        for w in &ws.worlds {
            let materialized = w.materialize(&db).unwrap();
            // One seat booked, two left, in every world.
            assert_eq!(materialized.table("Available").unwrap().len(), 2);
            assert_eq!(materialized.table("Bookings").unwrap().len(), 1);
            // The view agrees with the materialized state row for row.
            let view = w.view(&db).unwrap();
            for table in materialized.tables() {
                for row in table.iter() {
                    assert!(view.contains(table.schema().relation(), row));
                }
            }
        }
    }

    /// The key semantic cross-check: the solver's satisfiability answer
    /// agrees with non-emptiness of the explicit world set.
    #[test]
    fn solver_agrees_with_world_semantics() {
        let db = figure2_db();
        for n in 1..=4 {
            let txns: Vec<ResourceTransaction> = (0..n).map(|i| book(&format!("U{i}"))).collect();
            let refs: Vec<&ResourceTransaction> = txns.iter().collect();
            let ws = enumerate_worlds(&db, &refs, 10_000).unwrap();
            let mut solver = Solver::default();
            let specs: Vec<TxnSpec> = refs.iter().map(|t| TxnSpec::required_only(t)).collect();
            let sat = solver.solve(&db, &[], &specs).unwrap().is_some();
            assert_eq!(sat, !ws.is_empty(), "disagreement at n={n}");
        }
    }
}
