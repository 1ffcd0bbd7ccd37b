//! Explicit possible-worlds semantics (§3.1, Figure 2).
//!
//! The quantum database represents its possible worlds *intensionally*;
//! this module enumerates them by explicit forking — exactly the thought
//! experiment of §3.1 ("suppose the system finds all possible values that
//! could be assigned … and forks the database state into several possible
//! worlds"). A world is **never materialized**: each one is an
//! [`Overlay`] over the shared base, the same delta type the solver
//! searches in and the partitions keep their pending worlds in. A world
//! is forked once — its parent cloned, the updates the solver grounded
//! applied — and then used for everything else: it is the solver's
//! pre-state for the next transaction as it stands, worlds are
//! deduplicated on exact equality of their net deltas (a hash finds the
//! candidates), and `SELECT POSSIBLE` evaluates its query on each in read
//! mode ([`qdb_solver::ReadSpec`]). The base is only ever *read*.
//! Exponential in pending depth by nature, therefore bounded: it powers
//! [`crate::SharedQuantumDb::read_possible`], the Figure 2 example, and the
//! property tests that cross-validate the solver against the
//! possible-worlds semantics (intensional SAT ⟺ non-empty world set).

use std::collections::HashSet;

use qdb_logic::ResourceTransaction;
use qdb_solver::{Overlay, Solver, TxnSpec};
use qdb_storage::Database;

use crate::Result;

/// An enumerated set of possible worlds, each an [`Overlay`] over
/// [`WorldSet::base`].
#[derive(Debug)]
pub struct WorldSet<'a> {
    /// The base every world is a delta over.
    pub base: &'a Database,
    /// The distinct worlds, in discovery order (a fork equal to an
    /// earlier one is dropped).
    pub worlds: Vec<Overlay>,
    /// True when enumeration stopped at the bound — `worlds` is then a
    /// subset of the true world set.
    pub truncated: bool,
    /// World forks created during enumeration (before deduplication).
    pub enumerated: u64,
    /// Forks discarded as duplicates of an already-seen net delta.
    pub dedup_hits: u64,
}

impl WorldSet<'_> {
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
/// rows in key order, values in their escaped debug form, so distinct
/// contents never print alike) — used by recovery equivalence checks and
/// the worlds property tests to compare materialized states.
pub fn world_fingerprint(db: &Database) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    for table in db.tables() {
        let _ = write!(out, "{}[", table.schema().relation());
        for row in table.iter() {
            let _ = write!(out, "{:?}", row.values());
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
pub fn enumerate_worlds<'a>(
    base: &'a Database,
    txns: &[&ResourceTransaction],
    bound: usize,
) -> Result<WorldSet<'a>> {
    enumerate_worlds_seeded(base, txns, bound, 0)
}

/// [`enumerate_worlds`] with an explicit solver seed
/// ([`qdb_solver::Solver::seed`]): the seed selects the deterministic
/// *discovery order* of groundings — and therefore which worlds survive a
/// truncating `bound` — without changing the un-truncated world set. Seed
/// `0` is the historical order; the engines thread
/// `QuantumDbConfig::seed` through here so `SELECT POSSIBLE` answers are
/// a pure function of the configured seed.
///
/// Worlds fork breadth first, one transaction per level, and duplicates
/// are dropped only at the end, so a truncated set holds the first
/// `bound + 1` forks of the level that overflowed.
pub fn enumerate_worlds_seeded<'a>(
    base: &'a Database,
    txns: &[&ResourceTransaction],
    bound: usize,
    seed: u64,
) -> Result<WorldSet<'a>> {
    let mut solver = Solver::default();
    solver.seed = seed;
    let mut worlds = vec![Overlay::new()];
    let (mut enumerated, mut truncated) = (0u64, false);
    for txn in txns {
        let spec = TxnSpec::required_only(txn);
        let mut next = Vec::new();
        'fork: for world in &mut worlds {
            // At most the forks left before the level overflows. The
            // world is the solver's pre-state; collect mode leaves it as
            // it found it.
            let max = bound + 1 - next.len();
            for updates in solver.enumerate_updates_in(base, world, &spec, max)? {
                let mut forked = world.clone();
                for (rid, insert, row) in &updates {
                    forked.apply_id(base, *rid, *insert, row)?;
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
            break; // over the bound, or the sequence is unsatisfiable
        }
    }
    // Exact dedup: hash to find candidates, equality of net deltas to
    // decide — two forks that reached one state by different op orders
    // collapse into one.
    let forks = worlds.len();
    let mut seen = HashSet::with_capacity(forks);
    let keep: Vec<bool> = worlds.iter().map(|w| seen.insert(w)).collect();
    let mut keep = keep.into_iter();
    worlds.retain(|_| keep.next() == Some(true));
    Ok(WorldSet {
        base,
        dedup_hits: (forks - worlds.len()) as u64,
        worlds,
        truncated,
        enumerated,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdb_logic::parse_transaction;
    use qdb_solver::ReadSpec;
    use qdb_storage::{tuple, Schema, ValueType};

    /// `world` materialized: the base cloned, the net delta applied.
    fn materialize(base: &Database, world: &Overlay) -> Database {
        let mut db = base.clone();
        world.clone().commit_into(&mut db).unwrap();
        db
    }

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

    /// A two-column text table holding ("a', 'b", "c") and ("a", "b', 'c"):
    /// both rows print as ('a', 'b', 'c').
    fn look_alike_pairs() -> Database {
        let mut db = Database::new();
        let cols = vec![("x", ValueType::Str), ("y", ValueType::Str)];
        db.create_table(Schema::new("Pair", cols)).unwrap();
        db.insert("Pair", tuple!["a', 'b", "c"]).unwrap();
        db.insert("Pair", tuple!["a", "b', 'c"]).unwrap();
        db
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
        // read in read mode, no world is ever materialized.
        let atoms = qdb_logic::parse_query(
            "Bookings('Mickey', f, m), Bookings('Minnie', f, n), Adjacent(n, m)",
        )
        .unwrap()
        .atoms;
        let read = ReadSpec::compile(&db, &atoms).unwrap();
        for answers in read.rows(&db, &w3.worlds) {
            assert_eq!(answers.len(), 1);
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
        // Rows that print alike fingerprint apart.
        let [mut a, mut b] = [look_alike_pairs(), look_alike_pairs()];
        a.delete("Pair", &tuple!["a", "b', 'c"]).unwrap();
        b.delete("Pair", &tuple!["a', 'b", "c"]).unwrap();
        assert_ne!(world_fingerprint(&a), world_fingerprint(&b));
    }

    #[test]
    fn look_alike_rows_stay_distinct_worlds() {
        // Deleting either row is a world of its own, though the two rows
        // print alike.
        let db = look_alike_pairs();
        let drop_one = parse_transaction("-Pair(x, y) :-1 Pair(x, y)").unwrap();
        let ws = enumerate_worlds(&db, &[&drop_one], 100).unwrap();
        assert_eq!((ws.enumerated, ws.dedup_hits, ws.len()), (2, 0, 2));
        assert_ne!(ws.worlds[0], ws.worlds[1]);
    }

    #[test]
    fn world_deltas_materialize_to_the_forked_state() {
        let db = figure2_db();
        let mickey = book("Mickey");
        let ws = enumerate_worlds(&db, &[&mickey], 100).unwrap();
        for world in &ws.worlds {
            let materialized = materialize(&db, world);
            // One seat booked, two left, in every world.
            assert_eq!(materialized.table("Available").unwrap().len(), 2);
            assert_eq!(materialized.table("Bookings").unwrap().len(), 1);
            // The world agrees with the materialized state row for row.
            for table in materialized.tables() {
                for row in table.iter() {
                    assert!(world.visible(&db, table.schema().relation(), row));
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
