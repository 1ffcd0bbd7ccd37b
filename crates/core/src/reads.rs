//! The read path (§3.2.2 "Reads"): collapse, PEEK and all possible values.
//!
//! Every read answers a conjunctive query in the solver's read mode
//! ([`ReadSpec`]): its atoms compile once into a body-only spec, evaluated
//! on the kernel's frames over the base plus an [`Overlay`], the one delta
//! type. Nothing is copied out of a partition and no database is cloned.
//!
//! * **Collapse** grounds every pending transaction the query could
//!   observe (locking only their partitions), then reads the base with an
//!   empty overlay.
//! * **PEEK** reads one possible world in place. With one touched
//!   partition that is its maintained pending world; with several, one
//!   overlay built from their deltas on the queried relations.
//! * **POSSIBLE** enumerates worlds as overlays ([`crate::worlds`]) and
//!   reads each.
//!
//! The read-mode evaluation is timed as [`Phase::Read`]: per collapse read
//! and PEEK, and once for all of a POSSIBLE's worlds.

use std::borrow::Cow;
use std::time::Instant;

use qdb_logic::{Atom, ResourceTransaction, Valuation};
use qdb_obs::Phase;
use qdb_solver::{Overlay, ReadSpec, Solver};
use qdb_storage::Database;

use crate::entangle::coordination_partners;
use crate::ground::GroundReason;
use crate::partition::Partition;
use crate::shard::SharedQuantumDb;
use crate::txn::PendingTxn;
use crate::Result;

impl SharedQuantumDb {
    /// Read with full collapse semantics (§3.2.2, option 3): pending
    /// transactions whose updates unify with the query are grounded first
    /// (locking only their partitions), then the query is answered from
    /// the extensional state under a shared base read.
    pub fn read(&self, atoms: &[Atom], limit: Option<usize>) -> Result<Vec<Valuation>> {
        self.core.metrics.begin().add(|c| &c.reads, 1);
        let mut solver = self.solver();
        let out = self.read_collapsing(atoms, limit, &mut solver);
        self.absorb(&solver);
        out
    }

    /// Parse-and-read convenience over [`SharedQuantumDb::read`] for a
    /// datalog query such as `Bookings('Mickey', f, s)`.
    pub fn query(&self, text: &str) -> Result<Vec<Valuation>> {
        let parsed = qdb_logic::parse_query(text)?;
        self.read(&parsed.atoms, None)
    }

    fn read_collapsing(
        &self,
        atoms: &[Atom],
        limit: Option<usize>,
        solver: &mut Solver,
    ) -> Result<Vec<Valuation>> {
        // Conservative unification-based read check (grounding may expose
        // further overlaps, so loop to a fixed point).
        loop {
            let cand = self.registry(|reg| reg.touched_by_query(atoms).into_iter().next());
            let Some((pid, slot)) = cand else { break };
            let mut st = self.lock_slot(&slot);
            if st.dead {
                continue;
            }
            let txns = &st.part.txns;
            let Some(target) = txns
                .iter()
                .find(|pt| crate::read::read_affects(&pt.txn, atoms))
            else {
                // The footprint over-approximated (leavers not yet
                // subtracted): publish them so the selection progresses.
                self.publish(pid, &mut st);
                continue;
            };
            // Pull in coordination partners so a read does not needlessly
            // split a pair that could still coordinate.
            let others = txns.iter().filter(|p| p.id != target.id);
            let mut ids = coordination_partners(&target.txn, others);
            let target = target.id;
            ids.push(target);
            self.ground_in_slot(&mut st, (&ids, &[target]), GroundReason::Read, solver)?;
            self.publish(pid, &mut st);
        }
        let base = self.base_read();
        self.read_world(&base.db, &Overlay::new(), atoms, limit)
    }

    /// Peek semantics (§3.2.2, option 2): answer against *one* possible
    /// world — base plus the cached solutions of the partitions the query
    /// touches — without fixing anything. Partitions whose updates cannot
    /// unify with the query are provably irrelevant to the answer and are
    /// neither locked nor read.
    ///
    /// The world is read in place: a single touched partition's
    /// maintained pending world is evaluated as it stands (zero copies,
    /// nothing re-grounded). Only a query that touches several partitions
    /// pays for one overlay holding their deltas on the queried relations.
    pub fn read_peek(&self, atoms: &[Atom], limit: Option<usize>) -> Result<Vec<Valuation>> {
        self.core.metrics.begin().add(|c| &c.reads_peek, 1);
        self.with_touched_partitions(atoms, |db, parts| {
            for p in parts.iter_mut() {
                self.ensure_world(p, db)?;
            }
            let mut worlds = parts.iter().filter_map(|p| p.overlay_cache.as_ref());
            let world = match (worlds.next(), worlds.next()) {
                (None, _) => Cow::Owned(Overlay::new()),
                (Some(only), None) => Cow::Borrowed(only),
                (Some(a), Some(b)) => {
                    let all = [a, b].into_iter().chain(worlds);
                    Cow::Owned(merged_world(db, atoms, all)?)
                }
            };
            self.read_world(db, &world, atoms, limit)
        })
    }

    /// All-possible-values semantics (§3.2.2, option 1): enumerate
    /// possible worlds (bounded, as overlays over the base) over the
    /// touched partitions and return the distinct answer sets across
    /// them. One pass: each world is forked once, and the query, compiled
    /// once, is evaluated on it in read mode — the base read lock never
    /// covers a state materialization. The answer sets are sorted and
    /// deduplicated as rows, and turned into valuations after the locks
    /// are gone.
    ///
    /// `world_bound` is the `LIMIT` of `SELECT POSSIBLE`. Past it the
    /// answers come only from worlds that apply the oldest pending
    /// transactions (in id order), and nothing in the reply says so.
    pub fn read_possible(&self, atoms: &[Atom], world_bound: usize) -> Result<Vec<Vec<Valuation>>> {
        self.core.metrics.begin().add(|c| &c.reads_possible, 1);
        let (t_enum, read, mut answers, enumerated, dedup_hits) =
            self.with_touched_partitions(atoms, |db, parts| {
                let mut pending: Vec<&PendingTxn> =
                    parts.iter().flat_map(|p| p.txns.iter()).collect();
                pending.sort_by_key(|p| p.id);
                let txns: Vec<&ResourceTransaction> = pending.iter().map(|p| &p.txn).collect();
                let t_enum = Instant::now();
                let seed = self.core.config.seed;
                let ws = crate::worlds::enumerate_worlds_seeded(db, &txns, world_bound, seed)?;
                let t_read = Instant::now();
                let read = ReadSpec::compile(db, atoms)?;
                let answers = read.rows(db, &ws.worlds);
                self.record_since(Phase::Read, t_read);
                Ok((t_enum, read, answers, ws.enumerated, ws.dedup_hits))
            })?;
        answers.sort_unstable();
        answers.dedup();
        let out = (answers.into_iter())
            .map(|rows| rows.into_iter().map(|row| read.valuation(row)).collect())
            .collect();
        self.core.obs.phase(Phase::WorldEnum, t_enum.elapsed());
        let t = self.core.metrics.begin();
        t.add(|c| &c.worlds_enumerated, enumerated);
        t.add(|c| &c.world_dedup_hits, dedup_hits);
        Ok(out)
    }

    /// Evaluate `atoms` in read mode on `db + world`, timed as
    /// [`Phase::Read`].
    fn read_world(
        &self,
        db: &Database,
        world: &Overlay,
        atoms: &[Atom],
        limit: Option<usize>,
    ) -> Result<Vec<Valuation>> {
        let t0 = Instant::now();
        let rows = ReadSpec::compile(db, atoms)?.valuations(db, world, limit);
        self.record_since(Phase::Read, t0);
        Ok(rows)
    }

    /// Lock every partition whose pending updates could affect `atoms`
    /// (ascending id order), take a base read, and run `f` on that
    /// consistent state **in place** — nothing is copied. The partitions
    /// are handed out mutably so a read may build a missing pending world.
    ///
    /// Lock-hold contract: `f` runs with the touched slots *and* the base
    /// read lock held (slots before base, per the lock order in
    /// [`crate::shard`]), so it must take no slot or base lock itself, and
    /// statements on the touched partitions wait for the read to finish.
    /// Statements on any other partition, and other readers of the base,
    /// are not delayed.
    fn with_touched_partitions<R>(
        &self,
        atoms: &[Atom],
        f: impl FnOnce(&Database, &mut [&mut Partition]) -> Result<R>,
    ) -> Result<R> {
        'retry: loop {
            let cands = self.registry(|reg| reg.touched_by_query(atoms));
            let mut guards = Vec::with_capacity(cands.len());
            for (_, slot) in &cands {
                let st = self.lock_slot(slot);
                if st.dead {
                    continue 'retry; // drained mid-scan; rescan
                }
                guards.push(st);
            }
            let mut parts: Vec<&mut Partition> = guards.iter_mut().map(|g| &mut g.part).collect();
            let base = self.base_read();
            return f(&base.db, &mut parts);
        }
    }
}

/// One overlay holding `worlds`' deltas on the relations `atoms` name:
/// PEEK's world when it touches several partitions. Independent
/// partitions' updates never unify, so their deltas are disjoint and
/// apply in any order.
fn merged_world<'w>(
    db: &Database,
    atoms: &[Atom],
    worlds: impl Iterator<Item = &'w Overlay>,
) -> Result<Overlay> {
    // An unknown relation has no deltas; evaluation reports it.
    let mut rids: Vec<_> = (atoms.iter())
        .filter_map(|a| db.try_resolve(&a.relation))
        .collect();
    rids.sort_unstable();
    rids.dedup();
    let mut merged = Overlay::new();
    for world in worlds {
        for &rid in &rids {
            for (insert, tuple) in world.deltas_of(rid) {
                merged.apply_id(db, rid, insert, tuple)?;
            }
        }
    }
    Ok(merged)
}
