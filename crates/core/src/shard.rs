//! The engine: [`SharedQuantumDb`], partition-sharded and concurrent.
//!
//! This is the only code that admits, grounds, reads, writes, replays or
//! recovers; [`QuantumDb`] is merely its state at rest. The paper's §4
//! "Quantum State" design partitions pending resource transactions into
//! independent sets — *"there is no unification possible between them"* —
//! and this module exploits that independence for real concurrency.
//! Instead of one big lock around the state, the handle shards it:
//!
//! * **base** — the extensional [`Database`], behind an RwLock: admission
//!   solves, PEEK overlays and query evaluation share it; grounding
//!   applies, blind writes and DDL take it exclusively.
//! * **partitions** — each §4 independence [`Partition`] lives in its own
//!   mutex-guarded *slot* with its own cached-solution state, so solver
//!   searches for disjoint partitions run genuinely in parallel.
//! * **registry** — `partition id → (footprint, slot)` plus an index over
//!   the footprints. A [`Footprint`](crate::Footprint) is an overlap
//!   summary kept *outside* the slot lock, so selections ("which
//!   partitions could this statement touch?") never block on a partition
//!   that is busy solving, and the index spares them the rest.
//! * **metrics** — atomics with a seqlock for torn-proof snapshots
//!   (`AtomicMetrics` in `crate::metrics`); hot-path observation never
//!   takes a lock.
//! * **WAL** — its own mutex; transaction ids are allocated inside the WAL
//!   critical section so log order equals id order (recovery replays
//!   `PendingAdd` records in id order).
//!
//! # Lock ordering
//!
//! Deadlock freedom rests on a fixed acquisition order:
//!
//! 1. **partition slots**, in ascending partition id — with one proven
//!    exception: a *reservation* (see below) locks its own freshly created
//!    slot first, which is safe because slot ids are allocated
//!    monotonically, so every slot a thread can subsequently wait on has a
//!    smaller id than the slot it holds; the waits-for relation strictly
//!    decreases and cannot cycle.
//! 2. **base** (read or write) — only after all needed slots are held.
//!    A thread holding base never waits on a slot.
//! 3. **WAL** — only after base (or alone).
//!
//! The **registry** mutex is a waits-for leaf: a registry holder never
//! blocks on any other lock (the only lock taken under it is the freshly
//! created, uncontended slot of a reservation), so it may be acquired at
//! any point, including while holding slots, base or the WAL.
//! `vargen` and the metrics seqlock are leaves as well.
//!
//! # Reservations
//!
//! A submit must atomically decide which partitions its transaction
//! depends on, or two dependent transactions could land in different
//! partitions and be admission-checked separately. Under the registry
//! lock, a reservation (a) collects every overlapping entry (the index
//! names candidates by relation and leading constant, their footprints
//! confirm), (b) removes them from the map, and (c) registers a fresh
//! entry whose footprint is their union plus the newcomer's atoms. This
//! publishes the *future* contents of the merged partition before any
//! solving happens, maintaining the invariant that a registered footprint
//! is a superset of the atoms of every transaction that will ever enter
//! the partition — which is what lets scans trust a negative overlap test
//! without locking the slot. The fresh host slot is locked *before* the
//! registry is released (it is undiscoverable until then, so the lock
//! cannot block), which makes the reservation's claim exclusive: a later
//! reservation that absorbs the host as one of its targets waits on that
//! lock and drains whatever the submit installed. The removed target
//! slots are then *drained* (locked, marked dead, contents moved) one by
//! one; any operation that locked a slot through a stale `Arc` sees
//! `dead` and rescans the registry. Transactions that later leave (a
//! grounding, a refused newcomer) are subtracted from the footprint when
//! the slot is published again.
//!
//! `GROUND ALL` is a reservation whose target set is the whole registry:
//! it registers one host entry carrying the union of every claimed
//! footprint and holds its slot lock from before the drain until the
//! collapse has been applied (or its error recovery has re-registered the
//! survivors); after the drain it holds the base write lock for the whole
//! collapse. A statement that overlaps any claimed partition therefore
//! blocks on the host slot instead of admission-solving against a base
//! state whose pending collapse it cannot see; statements disjoint from
//! the union keep running until they need the base, which is what §4
//! independence permits.
//!
//! # Why plan-then-apply is sound
//!
//! Solver work (admission and grounding planning) runs under a base *read*
//! lock while holding the affected partition's slot; the resulting write
//! ops are applied later under the base *write* lock. No re-validation is
//! needed in between, because every base mutation that could invalidate a
//! plan must take the affected partition's slot first (blind writes and
//! read-triggered grounding lock overlapping slots before touching base),
//! and mutations that do not touch the partition's atoms cannot invalidate
//! it: other partitions' groundings write tuples that unify with none of
//! this partition's atoms (that is the §4 independence criterion), DDL
//! only adds empty tables, and bulk-insert fast paths only *add* tuples —
//! positive conjunctive bodies stay satisfied and planned deletes stay
//! executable under insertions.
//!
//! ```
//! use qdb_core::{QuantumDb, QuantumDbConfig, Response};
//!
//! let shared = QuantumDb::new(QuantumDbConfig::default()).unwrap().into_shared();
//! shared.execute("CREATE TABLE Available (flight INT, seat TEXT)").unwrap();
//! shared.execute("CREATE TABLE Bookings (name TEXT, flight INT, seat TEXT)").unwrap();
//! shared.execute("INSERT INTO Available VALUES (1, '1A'), (2, '2A')").unwrap();
//!
//! // Clones share one engine; each thread books a *different* flight, so
//! // the two admissions live in independent partitions and their solver
//! // searches can run concurrently.
//! std::thread::scope(|s| {
//!     for flight in [1i64, 2] {
//!         let h = shared.clone();
//!         s.spawn(move || {
//!             let r = h
//!                 .execute(&format!(
//!                     "SELECT @s FROM Available({flight}, @s) CHOOSE 1 \
//!                      FOLLOWED BY (DELETE ({flight}, @s) FROM Available; \
//!                                   INSERT ('u{flight}', {flight}, @s) INTO Bookings)"
//!                 ))
//!                 .unwrap();
//!             assert!(matches!(r, Response::Committed(_)));
//!         });
//!     }
//! });
//! assert_eq!(shared.pending_count(), 2);
//! shared.ground_all().unwrap();
//! assert_eq!(shared.pending_count(), 0);
//! ```

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::Arc;

use qdb_logic::codec::{decode_transaction, encode_transaction};
use qdb_logic::{Atom, ResourceTransaction, VarGen};
use qdb_obs::Phase;
use qdb_solver::{CachedSolution, Solver};
use qdb_storage::{Database, LogRecord, Schema, Tuple, Wal, WriteOp};

use crate::config::QuantumDbConfig;
use crate::engine::{plan_admission, AdmitDecision, AdmitPath, QuantumDb, SubmitOutcome};
use crate::entangle::coordination_partners;
use crate::error::EngineError;
use crate::ground::{
    check_residue, expand_partners, plan_group_front, GroundPlan, GroundReason, GroundedTxn,
    Residue,
};
use crate::metrics::AtomicMetrics;
use crate::partition::Partition;
use crate::registry::{Registry, Slot, SlotState};
use crate::sync::{Mutex, RwLock};
use crate::txn::PendingTxn;
use crate::{Metrics, Result, TxnId};

/// Bound-column scans that promote an unindexed column to an index.
const AUTO_INDEX_THRESHOLD: u32 = 64;

/// The base (extensional) state: everything whose consistency is guarded
/// by the RwLock rather than by partition slots.
pub(crate) struct Base {
    pub(crate) db: Database,
}

pub(crate) struct Core {
    pub(crate) config: QuantumDbConfig,
    base: RwLock<Base>,
    /// Lock-free handle onto the base database's clone-family counter:
    /// metrics snapshots read `db_clones` through it without acquiring
    /// the base lock (observation must never block behind a writer).
    db_clones: qdb_storage::CloneCounter,
    vargen: Mutex<VarGen>,
    wal: Mutex<Wal>,
    reg: Mutex<Registry>,
    next_txn_id: AtomicU64,
    pub(crate) metrics: AtomicMetrics,
    /// Solver sections currently inside the shared base read lock, and
    /// the high-water mark — direct evidence of partition-parallel
    /// overlap.
    solves_in_flight: AtomicU64,
    solves_peak: AtomicU64,
    /// Statement counter sampling the auto-index vote sweep (see
    /// `promote_hot_indexes`).
    promote_ticks: AtomicU64,
    /// Observability: latency histograms, the flight recorder and the
    /// trace sink. Shared with the WAL and every per-operation solver;
    /// recording is lock-free, so it rides the hot path.
    pub(crate) obs: Arc<qdb_obs::Obs>,
}

/// A cloneable, thread-safe, **partition-sharded** handle to a quantum
/// database.
///
/// Statements lock only what they touch: a submit locks the partitions its
/// transaction overlaps (merging them under the ordered-acquisition scheme
/// described in the [module docs](self)), reads and PEEK/POSSIBLE take a
/// shared base read plus only the touched partitions, and `GROUND ALL`
/// claims every partition behind one registered host slot and grounds
/// them one by one (`CHECKPOINT` is a brief exclusive acquisition).
/// Metrics are atomics — observation never blocks statement execution.
///
/// ```
/// use qdb_core::{QuantumDb, QuantumDbConfig, Response};
///
/// let shared = QuantumDb::new(QuantumDbConfig::default()).unwrap().into_shared();
/// shared.execute("CREATE TABLE R (a INT)").unwrap();
///
/// // Handles are cheap clones sharing one engine.
/// let clone = shared.clone();
/// clone.execute("INSERT INTO R VALUES (7)").unwrap();
/// let rows = shared.execute("SELECT * FROM R(@a)").unwrap();
/// assert_eq!(rows.rows().unwrap().len(), 1);
///
/// // Metrics snapshots are consistent even under concurrency.
/// let (m, pending) = shared.metrics_with_pending();
/// assert_eq!(m.committed - m.grounded_total(), pending);
/// ```
#[derive(Clone)]
pub struct SharedQuantumDb {
    pub(crate) core: Arc<Core>,
}

impl std::fmt::Debug for SharedQuantumDb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedQuantumDb")
            .field("partitions", &self.partition_count())
            .field("pending", &self.pending_count())
            .finish_non_exhaustive()
    }
}

/// How a transaction enters the pending set: the one admission path runs
/// in either mode.
enum Admit<'a> {
    /// A client's submit: the id is allocated inside the WAL critical
    /// section, then §5.1 partners are grounded and §4's `k` is enforced.
    Fresh,
    /// Replay of a logged `PendingAdd` under its original id (crash
    /// recovery and replicated replay). Partner grounding and
    /// k-enforcement are skipped — if they happened, they left their own
    /// `Ground` records, which replay verbatim. `relog` is the payload to
    /// append to the local WAL; recovery passes `None` (the record is
    /// already in the log being replayed), a replica passes the primary's
    /// bytes so its own WAL stays a valid engine history.
    Replay { id: TxnId, relog: Option<&'a [u8]> },
}

impl SharedQuantumDb {
    /// Shard an engine at rest into a live handle, preserving its
    /// database, pending partitions, WAL, metrics and id spaces.
    pub(crate) fn from_engine(engine: QuantumDb) -> SharedQuantumDb {
        let QuantumDb {
            db,
            partitions,
            next_partition_id,
            next_txn_id,
            vargen,
            wal,
            config,
            metrics,
            obs,
        } = engine;
        let pending: u64 = partitions.values().map(|p| p.len() as u64).sum();
        SharedQuantumDb {
            core: Arc::new(Core {
                db_clones: db.clone_counter(),
                base: RwLock::new(Base { db }),
                vargen: Mutex::new(vargen),
                wal: Mutex::new(wal),
                reg: Mutex::new(Registry::new(partitions, next_partition_id)),
                next_txn_id: AtomicU64::new(next_txn_id),
                metrics: AtomicMetrics::from_metrics(&metrics, pending),
                solves_in_flight: AtomicU64::new(0),
                solves_peak: AtomicU64::new(0),
                promote_ticks: AtomicU64::new(0),
                obs,
                config,
            }),
        }
    }

    /// The inverse of [`SharedQuantumDb::from_engine`]: put a quiescent
    /// engine back at rest. Recovery shards a fresh state, replays the
    /// pending transactions through the live admission path and unshards
    /// the result, so it needs the sole handle — a surviving clone is an
    /// invariant violation, not a wait.
    pub(crate) fn into_engine(self) -> Result<QuantumDb> {
        let core = Arc::try_unwrap(self.core).map_err(|_| {
            EngineError::Invariant("cannot unshard an engine that still has other handles".into())
        })?;
        let (metrics, _) = core.metrics.snapshot_with_pending();
        let (partitions, next_partition_id) = core.reg.into_inner().into_partitions();
        Ok(QuantumDb {
            db: core.base.into_inner().db,
            partitions,
            next_partition_id,
            next_txn_id: core.next_txn_id.into_inner(),
            vargen: core.vargen.into_inner(),
            wal: core.wal.into_inner(),
            config: core.config,
            metrics,
            obs: core.obs,
        })
    }

    /// A fresh per-operation solver (the solver is stateless apart from
    /// cumulative stats, which are absorbed at operation end), lent the
    /// engine's observability handle.
    pub(crate) fn solver(&self) -> Solver<'_> {
        let mut s = Solver::default();
        s.seed = self.core.config.seed;
        s.set_obs(Some(&self.core.obs));
        s
    }

    /// Take the base read lock, recording the wait as
    /// [`Phase::BaseLockWait`] ([`qdb_obs::Obs::wait`]: a free lock reads
    /// no clock).
    pub(crate) fn base_read(&self) -> std::sync::RwLockReadGuard<'_, Base> {
        let base = &self.core.base;
        (self.core.obs).wait(Phase::BaseLockWait, || base.try_read(), || base.read())
    }

    /// Take the base write lock, recording the wait as
    /// [`Phase::BaseLockWait`].
    fn base_write(&self) -> std::sync::RwLockWriteGuard<'_, Base> {
        let base = &self.core.base;
        (self.core.obs).wait(Phase::BaseLockWait, || base.try_write(), || base.write())
    }

    /// Take the WAL mutex, recording the wait as [`Phase::WalLockWait`].
    fn wal(&self) -> std::sync::MutexGuard<'_, Wal> {
        let wal = &self.core.wal;
        (self.core.obs).wait(Phase::WalLockWait, || wal.try_lock(), || wal.lock())
    }

    /// Lock a partition slot, recording the wait as
    /// [`Phase::PartitionLockWait`].
    pub(crate) fn lock_slot<'a>(&self, slot: &'a Slot) -> std::sync::MutexGuard<'a, SlotState> {
        let st = &slot.state;
        (self.core.obs).wait(Phase::PartitionLockWait, || st.try_lock(), || st.lock())
    }

    /// Run `f` on the locked registry, timing lock wait plus `f` into the
    /// [`Phase::Registry`] histogram only: a statement enters the
    /// registry up to three times, too often for a span and event each.
    pub(crate) fn registry<R>(&self, f: impl FnOnce(&mut Registry) -> R) -> R {
        let t0 = self.core.obs.start();
        let out = f(&mut self.core.reg.lock());
        self.core.obs.observe(Phase::Registry, t0);
        out
    }

    /// Fold one operation's solver-stat deltas into the `solver_*`
    /// metrics counters.
    pub(crate) fn absorb(&self, solver: &Solver) {
        self.core.metrics.absorb_solver(solver.stats());
    }

    /// Mark a solver section as in flight for its guard's lifetime.
    fn enter_solve(&self) -> SolveGauge<'_> {
        let now = self.core.solves_in_flight.fetch_add(1, SeqCst) + 1;
        self.core.solves_peak.fetch_max(now, SeqCst);
        SolveGauge { core: &self.core }
    }

    /// High-water mark of simultaneously running solver sections. A value
    /// above 1 is direct evidence that admissions/groundings of disjoint
    /// partitions overlapped in time.
    pub fn solve_concurrency_peak(&self) -> u64 {
        self.core.solves_peak.load(SeqCst)
    }

    /// Record one parser entry.
    pub(crate) fn count_parse(&self) {
        self.core.metrics.bump(|c| &c.parses, 1);
    }

    // -- Resource transactions -------------------------------------------

    /// Submit a resource transaction (§3.2.1). Locks only the partitions
    /// the transaction overlaps; disjoint submits run their admission
    /// solves concurrently under the shared base read lock.
    pub fn submit(&self, txn: &ResourceTransaction) -> Result<SubmitOutcome> {
        let out = self.do_submit(txn)?;
        self.promote_hot_indexes();
        Ok(out)
    }

    /// Promote access-pattern-hot columns (the storage layer's tracker)
    /// into secondary indexes under a brief exclusive base acquisition,
    /// logging each promotion so
    /// recovery rebuilds them. Sampled: the vote sweep (a base read +
    /// per-column atomic loads) runs on every 32nd statement, so the hot
    /// path the sharding PR de-contended does not pay an extra base-lock
    /// acquisition per statement — a promotion lands at most 31
    /// statements after the threshold, which is noise at threshold scale.
    /// Acquired with no slots held, so the slots-before-base lock order
    /// is respected.
    ///
    /// Best-effort: it runs *after* the enclosing operation committed and
    /// was logged, so a promotion failure (a WAL drain I/O error) is never
    /// reported as that operation's failure. Swallowing it is safe: an
    /// index is a rebuildable acceleration, so if the `CreateIndex`
    /// append fails (and per [`Wal::append`]'s contract is rolled out of
    /// the log), the worst case is a recovered engine that serves correct
    /// scans until the tracker's votes re-accumulate and promote again.
    fn promote_hot_indexes(&self) {
        if !self
            .core
            .promote_ticks
            .fetch_add(1, SeqCst)
            .is_multiple_of(32)
        {
            return;
        }
        let hot = {
            let base = self.base_read();
            crate::engine::collect_hot_columns(&base.db, AUTO_INDEX_THRESHOLD)
        };
        if hot.is_empty() {
            return;
        }
        let mut base = self.base_write();
        let mut wal = self.wal();
        let mut created = 0u64;
        for (relation, column) in hot {
            let Ok(table) = base.db.table_mut(&relation) else {
                continue;
            };
            if table.indexed_columns().contains(&column) {
                continue; // another thread promoted it meanwhile
            }
            if table.create_index(column).is_err() {
                continue; // unreachable for tracker-produced columns
            }
            let _ = wal.append(&LogRecord::CreateIndex {
                relation,
                column: column as u32,
            });
            created += 1;
        }
        drop(wal);
        drop(base);
        if created > 0 {
            self.core.metrics.bump(|c| &c.indexes_auto_created, created);
        }
    }

    fn do_submit(&self, txn: &ResourceTransaction) -> Result<SubmitOutcome> {
        self.core.metrics.bump(|c| &c.submitted, 1);
        // Placeholders are bound before execution; one that got through
        // would make WAL replay's `reserve_through` jump the id space.
        debug_assert!(
            txn.vars()
                .iter()
                .all(|v| v.id() < qdb_logic::stmt::PARAM_BASE),
            "unbound placeholder submitted: {txn}"
        );
        txn.validate()?;
        {
            let base = self.base_read();
            validate_schema_on(&base.db, txn)?;
        }
        let freshened = {
            let mut vg = self.core.vargen.lock();
            txn.freshen(&mut vg)
        };
        let mut solver = self.solver();
        let out = self.submit_reserved(&freshened, Admit::Fresh, &mut solver);
        self.absorb(&solver);
        out
    }

    /// Re-admit a logged pending transaction under its original id (see
    /// [`Admit::Replay`]). The primary — or this engine before its crash —
    /// admitted it against the same log prefix, so a refusal means the
    /// log is not a valid engine history: an error, never an abort.
    pub(crate) fn replay_pending_add(&self, id: TxnId, payload: &[u8], relog: bool) -> Result<()> {
        let txn = decode_transaction(payload).map_err(EngineError::Logic)?;
        {
            // Keep the global variable space ahead of every replayed id.
            let mut vg = self.core.vargen.lock();
            for v in txn.vars() {
                vg.reserve_through(v.id());
            }
        }
        self.core.metrics.bump(|c| &c.submitted, 1);
        let mode = Admit::Replay {
            id,
            relog: relog.then_some(payload),
        };
        let mut solver = self.solver();
        let out = self.submit_reserved(&txn, mode, &mut solver);
        self.absorb(&solver);
        match out? {
            SubmitOutcome::Committed { .. } => Ok(()),
            SubmitOutcome::Aborted => Err(EngineError::RecoveryUnsatisfiable { txn: id }),
        }
    }

    fn submit_reserved(
        &self,
        txn: &ResourceTransaction,
        mode: Admit<'_>,
        solver: &mut Solver,
    ) -> Result<SubmitOutcome> {
        // The host slot is locked *inside* the registry critical section
        // of the reservation, so no concurrent reservation can claim and
        // drain it before this submit installs — the reservation's targets
        // stay exclusively ours until then.
        let host_slot = Arc::new(Slot::default());
        let claim = |reg: &mut Registry| reg.claim(&host_slot, Some(txn));
        let (mut st, pid, targets) = self.registry(claim);
        if targets.len() > 1 {
            for (_, slot) in &targets {
                st.part.merge(self.drain(slot));
            }
            self.core.metrics.bump(|c| &c.partition_merges, 1);
        } else if let Some((_, slot)) = targets.first() {
            // Preserve the partition wholesale (keeps its pending world,
            // which a merge would drop).
            st.part = self.drain(slot);
        }
        // Whatever the outcome, the drained partitions are published back
        // under the host's id: a failed submit must not take committed
        // transactions with it (§2).
        let out = self.admit_in_slot(&mut st, txn, mode, solver);
        self.publish(pid, &mut st);
        out
    }

    /// Admit `txn` into the reserved, drained host partition `st`. A merge
    /// stays merged whatever the outcome (conservative but safe — merging
    /// independent partitions never violates the invariant).
    fn admit_in_slot(
        &self,
        st: &mut SlotState,
        txn: &ResourceTransaction,
        mode: Admit<'_>,
        solver: &mut Solver,
    ) -> Result<SubmitOutcome> {
        // Admission planning under a *shared* base read: this is the
        // expensive solver search, and disjoint partitions run it in
        // parallel.
        let plan = {
            let base = self.base_read();
            let _gauge = self.enter_solve();
            // The solution cache extends inside the pending world (a merge
            // dropped it; it is rebuilt here).
            self.ensure_world(&mut st.part, &base.db)?;
            let world = st.part.overlay_cache.take().expect("ensured");
            let t_plan = self.core.obs.start();
            let decision = plan_admission(solver, &base.db, &st.part.txns, world, txn)?;
            self.core.obs.span(Phase::Plan, t_plan);
            decision
        };
        let plan = match plan {
            AdmitDecision::Admitted(plan) => plan,
            AdmitDecision::Refused(overlay) => {
                // The host's valuations are unchanged, so the rolled-back
                // world is still its pending world.
                st.part.overlay_cache = Some(overlay);
                st.left.push(txn.clone());
                self.core.metrics.bump(|c| &c.aborted, 1);
                return Ok(SubmitOutcome::Aborted);
            }
        };

        // Durability: log after the satisfiability check, before
        // acknowledging commit (§4). Id allocation inside the WAL critical
        // section keeps log order == id order.
        let id = match mode {
            Admit::Fresh => {
                let mut wal = self.wal();
                let id = self.core.next_txn_id.fetch_add(1, SeqCst);
                wal.append(&LogRecord::PendingAdd {
                    id,
                    payload: encode_transaction(txn),
                })?;
                id
            }
            Admit::Replay { id, relog } => {
                if let Some(payload) = relog {
                    self.wal().append(&LogRecord::PendingAdd {
                        id,
                        payload: payload.to_vec(),
                    })?;
                }
                self.core.next_txn_id.fetch_max(id + 1, SeqCst);
                id
            }
        };
        let host = &mut st.part;
        host.txns.push(PendingTxn::new(id, txn.clone()));
        match plan.path {
            AdmitPath::Extension => host.cache.valuations.extend(plan.valuations),
            AdmitPath::FullResolve => {
                host.cache = CachedSolution {
                    valuations: plan.valuations,
                }
            }
        }
        host.overlay_cache = plan.overlay;
        debug_assert_eq!(host.txns.len(), host.cache.valuations.len());

        {
            let t = self.core.metrics.begin();
            t.record_commit();
            match plan.path {
                AdmitPath::Extension => t.add(|c| &c.cache_extensions, 1),
                AdmitPath::FullResolve => t.add(|c| &c.cache_full_resolves, 1),
            }
        }

        // §5.1: entangled resource transactions are grounded as soon as
        // both coordination partners are in the system.
        let fresh = matches!(mode, Admit::Fresh);
        if fresh && self.core.config.ground_on_partner_arrival {
            let mut partners = {
                let (newcomer, others) = st.part.txns.split_last().expect("just installed");
                coordination_partners(&newcomer.txn, others)
            };
            if !partners.is_empty() {
                partners.push(id);
                let group = (&partners[..], &[id][..]);
                self.ground_in_slot(st, group, GroundReason::Partner, solver, None)?;
            }
        }
        // §4: bound the composed body size.
        while fresh && st.part.len() > self.core.config.k {
            let oldest = st.part.txns[0].id;
            self.ground_in_slot(st, (&[oldest], &[]), GroundReason::KBound, solver, None)?;
        }
        // Table 1 counts a transaction as pending until its partner
        // arrives, so the high-water mark is sampled after partner
        // grounding and k-enforcement settle.
        self.core.metrics.begin().sample_max_pending();
        Ok(SubmitOutcome::Committed { id })
    }

    /// Take a reserved slot's contents (waits for any in-flight operation
    /// on it to finish) and mark it dead for stale-`Arc` holders.
    fn drain(&self, slot: &Arc<Slot>) -> Partition {
        let mut st = self.lock_slot(slot);
        st.dead = true;
        std::mem::take(&mut st.part)
    }

    /// [`Partition::ensure_world`], counting a rebuild.
    pub(crate) fn ensure_world(&self, p: &mut Partition, db: &Database) -> Result<()> {
        if p.ensure_world(db)? {
            self.core.metrics.bump(|c| &c.overlay_rebuilds, 1);
        }
        Ok(())
    }

    /// [`Registry::publish`] of the transactions that left, under the
    /// registry lock, which is released before they are dropped. Must be
    /// called while holding the slot's lock.
    pub(crate) fn publish(&self, pid: u64, st: &mut SlotState) {
        let left = std::mem::take(&mut st.left);
        self.registry(|reg| reg.publish(pid, st, &left));
    }

    // -- Grounding --------------------------------------------------------

    /// Ground `seeds` and their partners within the held partition, honoring
    /// the configured serializability: plan under a base read (parallel
    /// with other partitions' solves), apply under the base write lock —
    /// or do both on the `held` base of a caller holding the write lock.
    /// `known` names seeds whose partners the caller already put in
    /// `seeds` (see [`expand_partners`]). Timed into the
    /// [`Phase::Ground`] histogram.
    pub(crate) fn ground_in_slot(
        &self,
        st: &mut SlotState,
        (seeds, known): (&[TxnId], &[TxnId]),
        reason: GroundReason,
        solver: &mut Solver,
        held: Option<&mut Base>,
    ) -> Result<()> {
        let t0 = self.core.obs.start();
        let ids = expand_partners(&st.part, seeds, known);
        debug_assert_eq!(
            ids,
            expand_partners(&st.part, seeds, &[]),
            "the caller missed a known seed's partner"
        );
        let out = self.ground_group(st, &ids, reason, solver, held);
        self.core.obs.observe(Phase::Ground, t0);
        out
    }

    /// Ground the group `ids`: moved to the front of the pending order
    /// (semantic serializability), or else in arrival order — the
    /// partition head, while any of `ids` is still pending (strict, the
    /// §3.2.3 "naïve approach", and the semantic fallback).
    fn ground_group(
        &self,
        st: &mut SlotState,
        ids: &[TxnId],
        reason: GroundReason,
        solver: &mut Solver,
        mut held: Option<&mut Base>,
    ) -> Result<()> {
        let semantic = self.core.config.serializability == crate::Serializability::Semantic;
        if semantic && self.try_ground_group(st, ids, reason, solver, held.as_deref_mut())? {
            return Ok(());
        }
        while ids.iter().any(|&id| st.part.position(id).is_some()) {
            let head = st.part.txns[0].id;
            if !self.try_ground_group(st, &[head], reason, solver, held.as_deref_mut())? {
                return Err(EngineError::Invariant(
                    "head grounding failed although the invariant guarantees a \
                     sequence-order grounding"
                        .into(),
                ));
            }
        }
        Ok(())
    }

    fn try_ground_group(
        &self,
        st: &mut SlotState,
        ids: &[TxnId],
        reason: GroundReason,
        solver: &mut Solver,
        held: Option<&mut Base>,
    ) -> Result<bool> {
        let plan = {
            let mut read = None;
            let db = match held.as_deref() {
                Some(base) => &base.db,
                None => &read.insert(self.base_read()).db,
            };
            let _gauge = self.enter_solve();
            // A first-fit grounding that leaves a residue is planned
            // inside the residue's pending world.
            let config = &self.core.config;
            if config.policy.sample() <= 1 && st.part.len() > ids.len() {
                self.ensure_world(&mut st.part, db)?;
            }
            plan_group_front(solver, db, config, &mut st.part, ids)?
        };
        let Some(plan) = plan else {
            return Ok(false);
        };
        self.commit_plan(st, plan, reason, solver, held)?;
        Ok(true)
    }

    /// Commit a ground plan: per grounded transaction its WAL frame, then
    /// its base writes; then metrics and the partition-side removal. Sound
    /// without re-validation per the module docs ("Why plan-then-apply is
    /// sound"). Log before apply: an `Err` from [`Wal::append`] means the
    /// frame is not in the log, so its transaction stays pending and off
    /// the base. After an error the members that landed leave and the rest
    /// are re-solved, so the engine is what recovery of its log gives.
    fn commit_plan(
        &self,
        st: &mut SlotState,
        mut plan: GroundPlan,
        reason: GroundReason,
        solver: &mut Solver,
        held: Option<&mut Base>,
    ) -> Result<()> {
        let mut write = None;
        let base = match held {
            Some(base) => base,
            None => &mut **write.insert(self.base_write()),
        };
        let mut landed = 0;
        let mut failed: Option<EngineError> = None;
        {
            let mut wal = self.wal();
            let t_apply = self.core.obs.start();
            for g in &mut plan.grounded {
                // One atomic frame per transaction: concrete writes +
                // removal from the pending table cannot be torn by a
                // crash. The ops move into the frame and apply from there.
                let frame = LogRecord::Ground {
                    id: g.id,
                    ops: std::mem::take(&mut g.ops),
                };
                if let Err(e) = wal.append(&frame) {
                    failed = Some(e.into());
                    break;
                }
                landed += 1;
                let LogRecord::Ground { ops, .. } = &frame else {
                    unreachable!("built above")
                };
                if let Err(e) = ops.iter().try_for_each(|op| base.db.apply(op).map(drop)) {
                    failed = Some(e.into());
                    break;
                }
            }
            self.core.obs.span(Phase::Apply, t_apply);
        }
        if failed.is_some() {
            plan.grounded.truncate(landed);
            plan.world = None;
            plan.rest_vals = None;
        }
        let gone = |t: &PendingTxn| plan.grounded.iter().any(|g| g.id == t.id);
        if failed.is_some() && landed > 0 {
            // The rest are re-solved on the base the landed ones reached.
            // Should none fit, they keep the valuations they have:
            // recovery of the log would refuse them too.
            let rest: Vec<&ResourceTransaction> = (st.part.txns.iter())
                .filter(|t| !gone(t))
                .map(|t| &t.txn)
                .collect();
            let resolved = CachedSolution::resolve(solver, &base.db, &rest);
            plan.rest_vals = resolved.ok().flatten().map(|c| c.valuations);
        }
        drop(write);
        {
            let t = self.core.metrics.begin();
            for g in &plan.grounded {
                t.record_ground(reason);
                t.add(|c| &c.optionals_satisfied, g.promoted as u64);
                t.add(|c| &c.optionals_total, g.total_optionals as u64);
            }
            // The residue's cached valuations were replaced.
            let resolved = u64::from(plan.rest_vals.is_some());
            t.add(|c| &c.ground_joint_resolves, resolved);
        }
        // The grounded leave the partition, with their cached valuations
        // unless the residue's were replaced; the plan's world is installed.
        let p = &mut st.part;
        match plan.rest_vals {
            Some(vals) => p.cache.valuations = vals,
            None => {
                let mut txns = p.txns.iter();
                (p.cache.valuations).retain(|_| !gone(txns.next().expect("cache parallels txns")));
            }
        }
        st.left
            .extend(p.txns.extract_if(.., |t| gone(t)).map(|t| t.txn));
        p.overlay_cache = plan.world;
        debug_assert_eq!(p.txns.len(), p.cache.valuations.len());
        failed.map_or(Ok(()), Err)
    }

    /// Explicitly ground one pending transaction. Returns `false` when the
    /// id is not pending.
    pub fn ground(&self, id: TxnId) -> Result<bool> {
        Ok(self.ground_counted(id)?.is_some())
    }

    /// [`SharedQuantumDb::ground`] returning how many transactions the
    /// cascade collapsed (partners, strict-mode prefixes), counted under
    /// the hosting partition's lock — exact even under concurrency.
    /// `None` when the id is not pending.
    pub(crate) fn ground_counted(&self, id: TxnId) -> Result<Option<usize>> {
        let mut solver = self.solver();
        let out = self.with_hosting_slot(id, |st| {
            let before = st.part.len();
            self.ground_in_slot(st, (&[id], &[]), GroundReason::Explicit, &mut solver, None)?;
            Ok(before - st.part.len())
        });
        self.absorb(&solver);
        out
    }

    /// Run `f` on the locked slot hosting pending transaction `id`, then
    /// re-publish the slot's footprint. `None` when `id` is not pending.
    fn with_hosting_slot<R>(
        &self,
        id: TxnId,
        mut f: impl FnMut(&mut SlotState) -> Result<R>,
    ) -> Result<Option<R>> {
        'rescan: loop {
            for (pid, slot) in self.registry(|reg| reg.slots()) {
                let mut st = self.lock_slot(&slot);
                if st.dead {
                    // Contents moved — possibly into a slot we already
                    // passed over. Start the scan again.
                    continue 'rescan;
                }
                if st.part.position(id).is_some() {
                    let out = f(&mut st);
                    self.publish(pid, &mut st);
                    return out.map(Some);
                }
            }
            return Ok(None);
        }
    }

    /// Collapse a pending transaction the way the log says it collapsed
    /// (replicated replay of a `Ground` record). The logged ops *are* the
    /// plan: no local choice is made — re-solving could pick a different
    /// world than the primary did — and only the residue's cached
    /// valuations are re-verified against them (re-solved when stale,
    /// like a blind write). The plan then commits like any grounding.
    pub(crate) fn replay_ground(&self, id: TxnId, ops: &[WriteOp]) -> Result<()> {
        let mut solver = self.solver();
        let out = self.with_hosting_slot(id, |st| {
            let plan = {
                let base = self.base_read();
                let _gauge = self.enter_solve();
                let p = &st.part;
                let at = p.position(id).expect("hosting slot");
                // The residue's touched tuples: the logged ops, and the
                // cached ones that leave the pending sequence.
                let mut touched = ops.to_vec();
                touched.extend(p.txns[at].txn.write_ops(&p.cache.valuations[at])?);
                let residue = (p.txns.iter().zip(&p.cache.valuations))
                    .filter(|(t, _)| t.id != id)
                    .map(|(t, v)| (&t.txn, v));
                let rest_vals = match check_residue(&mut solver, &base.db, ops, &touched, residue)?
                {
                    Residue::Untouched | Residue::Verified => None,
                    Residue::Resolved(vals) => Some(vals),
                    Residue::Unsat => {
                        return Err(EngineError::Invariant(format!(
                            "replayed ground of {id} left its partition unsatisfiable"
                        )))
                    }
                };
                GroundPlan {
                    grounded: vec![GroundedTxn {
                        id,
                        ops: ops.to_vec(),
                        promoted: 0,
                        total_optionals: 0,
                    }],
                    rest_vals,
                    world: None,
                }
            };
            self.commit_plan(st, plan, GroundReason::Explicit, &mut solver, None)
        });
        self.absorb(&solver);
        out?.ok_or_else(|| {
            EngineError::Invariant(format!(
                "replayed ground of unknown pending transaction {id}"
            ))
        })
    }

    /// Ground everything — collapse the quantum state entirely.
    ///
    /// The whole registry is claimed like a submit reservation claims its
    /// targets (see module docs): one fresh *host* entry, footprint the
    /// union of every claimed partition, its slot locked before the
    /// registry is released. Overlapping statements find the host and wait
    /// on its slot until the collapse — or its error recovery — completes;
    /// disjoint statements run until they need the base (§4 independence:
    /// the collapse cannot invalidate them). Under one base write
    /// acquisition, each claimed partition is then collapsed in pid order
    /// by grounding its head, repeatedly, exactly as `GROUND id` grounds
    /// it.
    pub fn ground_all(&self) -> Result<()> {
        self.ground_all_counted().map(|_| ())
    }

    /// [`SharedQuantumDb::ground_all`] returning how many transactions it
    /// collapsed — the claimed partitions' size, not a racy before/after
    /// pending read (`GROUND ALL` responses use this).
    pub(crate) fn ground_all_counted(&self) -> Result<usize> {
        // Claim every partition under one freshly registered host entry
        // whose footprint is the union of the claimed footprints, and hold
        // the host slot's lock for the whole collapse. Without the claim,
        // a submit that reserves between the registry take and a
        // grounding would see no overlapping partitions, admission-solve
        // against the pre-collapse base, and commit a transaction the
        // collapse's deletes can silently invalidate — breaking the
        // never-rolled-back guarantee.
        let host_slot = Arc::new(Slot::default());
        let (mut host, host_pid, taken) = self.registry(|reg| reg.claim(&host_slot, None));
        let parts: Vec<Partition> = taken.iter().map(|(_, slot)| self.drain(slot)).collect();
        let collapsed = parts.iter().map(Partition::len).sum();
        // One exclusive base acquisition for the whole collapse. Were each
        // grounding to take the base locks itself, statements disjoint from
        // the claim would run between every plan and commit, and a
        // partition they deepen meanwhile can cost its next refusal a
        // search exponential in its depth.
        let mut base = self.base_write();
        let mut solver = self.solver();
        let mut parts = parts.into_iter();
        while let Some(part) = parts.next() {
            let mut st = SlotState {
                part,
                ..SlotState::default()
            };
            while let Some(head) = st.part.txns.first().map(|t| t.id) {
                let head = (&[head][..], &[][..]);
                let explicit = GroundReason::Explicit;
                let held = Some(&mut *base);
                if let Err(e) = self.ground_in_slot(&mut st, head, explicit, &mut solver, held) {
                    // Every step so far went through `commit_plan`: this
                    // partition and the untouched ones go back pending.
                    drop(base);
                    let rest = std::iter::once(st.part).chain(parts).collect();
                    self.registry(|reg| reg.reinstall(host_pid, &mut host, rest));
                    self.absorb(&solver);
                    return Err(e);
                }
            }
        }
        drop(base);
        self.absorb(&solver);
        self.publish(host_pid, &mut host);
        // A full collapse is a natural group-commit boundary: drain the
        // accumulated Ground frames in one buffered write + flush.
        self.wal().sync()?;
        Ok(collapsed)
    }

    // -- Writes -----------------------------------------------------------

    /// A blind non-resource write (§3.2.2 "Writes"). Locks the partitions
    /// the write could interact with *before* touching the base, then
    /// re-validates their caches against the new state; returns `Ok(false)`
    /// when the write would leave some pending transaction without a
    /// consistent grounding.
    pub fn write(&self, op: WriteOp) -> Result<bool> {
        let mut solver = self.solver();
        let out = self.do_write(op, &mut solver);
        self.absorb(&solver);
        let out = out?;
        self.promote_hot_indexes();
        Ok(out)
    }

    fn do_write(&self, op: WriteOp, solver: &mut Solver) -> Result<bool> {
        let as_atom = Atom::new(
            op.relation(),
            op.tuple()
                .iter()
                .map(|v| qdb_logic::Term::Const(v.clone()))
                .collect(),
        );
        'retry: loop {
            let cands = self.registry(|reg| reg.touched_by_write(&as_atom));
            let mut guards = Vec::with_capacity(cands.len());
            for (_, slot) in &cands {
                let st = self.lock_slot(slot);
                if st.dead {
                    continue 'retry;
                }
                guards.push(st);
            }
            // Exact affectedness on actual contents (footprints are
            // conservative).
            let affected: Vec<usize> = guards
                .iter()
                .enumerate()
                .filter(|(_, st)| {
                    st.part.txns.iter().any(|pt| {
                        pt.txn
                            .body
                            .iter()
                            .map(|b| &b.atom)
                            .chain(pt.txn.updates.iter().map(|u| &u.atom))
                            .any(|a| a.may_overlap(&as_atom))
                    })
                })
                .map(|(i, _)| i)
                .collect();

            if affected.is_empty() {
                // No pending state to protect: apply under a brief
                // exclusive base acquisition.
                let mut base = self.base_write();
                let changed = base.db.apply(&op)?;
                if changed {
                    self.wal().append(&LogRecord::Write(op))?;
                    self.core.metrics.bump(|c| &c.writes_applied, 1);
                }
                return Ok(true);
            }

            // Re-validate every affected partition under a *shared* base
            // read, with the op as a virtual overlay (solver `pre_ops`) —
            // the potentially long verify/resolve search blocks neither
            // readers nor other partitions' admissions. Sound because the
            // held slots exclude every statement that could mutate this
            // op's tuple (it overlaps the held footprints by construction)
            // or the affected partitions, so the planned caches stay valid
            // until the brief exclusive apply below (see module docs, "Why
            // plan-then-apply is sound").
            let mut new_caches: Vec<(usize, Option<CachedSolution>)> = Vec::new();
            {
                let base = self.base_read();
                // A no-op against the current base (insert of a present
                // row, delete of an absent one) changes nothing and cannot
                // invalidate any pending state.
                let present = base.db.contains(op.relation(), op.tuple());
                let noop = match op {
                    WriteOp::Insert { .. } => present,
                    WriteOp::Delete { .. } => !present,
                };
                if noop {
                    return Ok(true);
                }
                let _gauge = self.enter_solve();
                let overlay = std::slice::from_ref(&op);
                for &i in &affected {
                    let p = &guards[i].part;
                    let residue = p.txns.iter().map(|t| &t.txn).zip(&p.cache.valuations);
                    match check_residue(solver, &base.db, overlay, overlay, residue)? {
                        // No cached grounding names the tuple: valuations
                        // and pending world stand as they are.
                        Residue::Untouched => {}
                        Residue::Verified => new_caches.push((i, None)),
                        Residue::Resolved(valuations) => {
                            new_caches.push((i, Some(CachedSolution { valuations })))
                        }
                        Residue::Unsat => {
                            // Reject without ever having touched the base.
                            self.core.metrics.bump(|c| &c.writes_rejected, 1);
                            return Ok(false);
                        }
                    }
                }
            }

            // Apply + log under a brief exclusive acquisition.
            let mut base = self.base_write();
            let changed = base.db.apply(&op)?;
            for (i, cache) in new_caches {
                // The base changed under a tuple this partition's cached
                // groundings name: its pending world is stale.
                let part = &mut guards[i].part;
                part.overlay_cache = None;
                if let Some(c) = cache {
                    part.cache = c;
                }
            }
            if changed {
                self.wal().append(&LogRecord::Write(op))?;
                self.core.metrics.bump(|c| &c.writes_applied, 1);
            }
            return Ok(true);
        }
    }

    // -- DDL & loading -----------------------------------------------------

    /// Create a table (logged).
    pub fn create_table(&self, schema: Schema) -> Result<()> {
        let mut base = self.base_write();
        base.db.create_table(schema.clone())?;
        self.wal().append(&LogRecord::CreateTable(schema))?;
        Ok(())
    }

    /// Create a secondary index (logged).
    pub fn create_index(&self, relation: &str, column: usize) -> Result<()> {
        let mut base = self.base_write();
        base.db.table_mut(relation)?.create_index(column)?;
        self.wal().append(&LogRecord::CreateIndex {
            relation: relation.to_string(),
            column: column as u32,
        })?;
        Ok(())
    }

    /// Insert a batch of rows. With no pending transactions this is a fast
    /// path (plain inserts under the base write lock — insertions are
    /// monotone-safe for pending solutions); otherwise each row goes
    /// through the write-admission check.
    pub fn bulk_insert(&self, relation: &str, tuples: Vec<Tuple>) -> Result<usize> {
        let mut applied = 0;
        if self.core.metrics.pending() == 0 {
            let mut base = self.base_write();
            let mut wal = self.wal();
            for t in tuples {
                if base.db.insert(relation, t.clone())? {
                    wal.append(&LogRecord::Write(WriteOp::insert(relation, t)))?;
                    applied += 1;
                }
            }
        } else {
            for t in tuples {
                if self.write(WriteOp::insert(relation, t))? {
                    applied += 1;
                }
            }
        }
        self.promote_hot_indexes();
        Ok(applied)
    }

    /// Append a checkpoint marker to the WAL (and drain the group-commit
    /// buffer to the sink), serialized against in-flight writers by a
    /// brief exclusive base acquisition.
    pub fn checkpoint(&self) -> Result<()> {
        let _base = self.base_write();
        let mut wal = self.wal();
        wal.append(&LogRecord::Checkpoint)?;
        wal.sync()?;
        Ok(())
    }

    // -- Introspection -----------------------------------------------------

    /// Run `f` against the extensional database under a shared read lock.
    pub fn with_database<R>(&self, f: impl FnOnce(&Database) -> R) -> R {
        let base = self.base_read();
        f(&base.db)
    }

    /// Raw WAL image: drains the group-commit buffer and returns every
    /// durable byte. Crash-injection harnesses snapshot this, truncate at
    /// an arbitrary offset, and recover. A brief exclusive base
    /// acquisition fences in-flight writers so the image is a consistent
    /// point in the log.
    ///
    /// Panics when the sink cannot be read back (in-memory sinks cannot
    /// fail); serving paths go through
    /// [`SharedQuantumDb::wal_stream_from`], which reports it instead.
    pub fn wal_image(&self) -> Vec<u8> {
        self.try_wal_image()
            .expect("in-memory sinks cannot fail; file sinks report I/O errors on read")
    }

    /// [`SharedQuantumDb::wal_image`] reporting a sink read failure as a
    /// typed error instead of panicking.
    pub(crate) fn try_wal_image(&self) -> Result<Vec<u8>> {
        let _base = self.base_write();
        Ok(self.wal().image()?)
    }

    /// Primary-side replication stream read: up to `max` WAL bytes
    /// starting at `offset`, plus the current WAL length and the last
    /// assigned transaction id. An empty byte vector means the replica is
    /// caught up. The log is fenced exactly like
    /// [`SharedQuantumDb::wal_image`], so a segment never ends inside a
    /// partially-drained group, but only the segment is read and copied:
    /// a poll costs O(`max`), not O(log). Offsets past the end are clamped
    /// (a replica that over-acked is told the true length and polls
    /// again). A sink that cannot be read back is an error for this poll,
    /// not a panic in the thread serving it.
    pub fn wal_stream_from(&self, offset: u64, max: usize) -> Result<(u64, TxnId, Vec<u8>)> {
        let (len, bytes) = {
            let _base = self.base_write();
            self.wal().segment(offset, max)?
        };
        Ok((len, self.last_txn_id(), bytes))
    }

    /// Highest transaction id assigned so far (0 when none yet).
    pub fn last_txn_id(&self) -> TxnId {
        self.core.next_txn_id.load(SeqCst).saturating_sub(1)
    }

    /// Size of the WAL in bytes (durable sink plus the group-commit
    /// buffer).
    pub fn wal_size(&self) -> u64 {
        self.wal().size_bytes()
    }

    /// Engine configuration.
    pub fn config(&self) -> &QuantumDbConfig {
        &self.core.config
    }

    /// Number of pending (committed, unground) transactions.
    pub fn pending_count(&self) -> usize {
        self.core.metrics.pending() as usize
    }

    /// Ids of pending transactions, sorted ascending (commit order — txn
    /// ids are allocated at commit), so `SHOW PENDING` output and sim
    /// transcripts are stable across runs regardless of how the pending
    /// state is sharded into partitions.
    ///
    /// The scan retries whenever it observes a `dead` slot: dead means the
    /// slot's partition moved elsewhere mid-scan (a merge or a `GROUND
    /// ALL` host claim), and a snapshot that simply skipped it could miss
    /// transactions that are still pending. Drains complete, so the retry
    /// loop terminates; the result is a consistent point-in-time snapshot,
    /// exact when quiescent.
    pub fn pending_ids(&self) -> Vec<TxnId> {
        'retry: loop {
            let mut ids: BTreeSet<TxnId> = BTreeSet::new();
            for (_, slot) in self.registry(|reg| reg.slots()) {
                let st = self.lock_slot(&slot);
                if st.dead {
                    continue 'retry;
                }
                ids.extend(st.part.txns.iter().map(|t| t.id));
            }
            return ids.into_iter().collect();
        }
    }

    /// Number of independent partitions currently registered.
    pub fn partition_count(&self) -> usize {
        self.registry(|reg| reg.len())
    }

    /// Metrics snapshot (consistent — see [`SharedQuantumDb::metrics_with_pending`]).
    pub fn metrics(&self) -> Metrics {
        self.metrics_with_pending().0
    }

    /// Metrics snapshot plus the pending count, both read from one stable
    /// seqlock window: `committed − grounded_total == pending` holds for
    /// every snapshot, even taken mid-`GROUND ALL` from another thread,
    /// and across [`SharedQuantumDb::reset_metrics`] calls made while
    /// transactions are pending. The `db_clones` field is sourced live
    /// from the base database's clone-family counter through a detached
    /// lock-free handle — observation never touches the base lock (the
    /// delta-view read paths keep the counter at zero).
    pub fn metrics_with_pending(&self) -> (Metrics, u64) {
        let (mut m, pending) = self.core.metrics.snapshot_with_pending();
        m.db_clones = self.core.db_clones.get();
        (m, pending)
    }

    /// Reset metrics (between experiment phases). `committed` restarts at
    /// the live pending count so the accounting identity of
    /// [`SharedQuantumDb::metrics_with_pending`] survives a reset taken
    /// while transactions are pending.
    pub fn reset_metrics(&self) {
        self.core.metrics.reset();
        // Histograms open the same fresh epoch as the counters, keeping
        // "per-class histogram count == statement counter" true per epoch.
        self.core.obs.reset();
    }

    /// Observability handle: latency histograms, the flight recorder and
    /// the trace sink. The WAL and every per-operation solver share this
    /// handle, so all layers record into the same sinks.
    pub fn obs(&self) -> &Arc<qdb_obs::Obs> {
        &self.core.obs
    }

    /// Latency profile snapshot — per statement class and per engine phase
    /// (the `SHOW PROFILE` payload). Lock-free: safe to call from an
    /// observer thread while statements execute.
    pub fn profile(&self) -> qdb_obs::ProfileReport {
        self.core.obs.profile()
    }
}

/// Guard for the in-flight solver gauge.
struct SolveGauge<'a> {
    core: &'a Core,
}

impl Drop for SolveGauge<'_> {
    fn drop(&mut self) {
        self.core.solves_in_flight.fetch_sub(1, SeqCst);
    }
}

/// Schema/arity validation for a transaction against a database.
pub(crate) fn validate_schema_on(db: &Database, txn: &ResourceTransaction) -> Result<()> {
    let atoms = txn
        .body
        .iter()
        .map(|b| &b.atom)
        .chain(txn.updates.iter().map(|u| &u.atom));
    for atom in atoms {
        let table = db.table(&atom.relation)?;
        if table.schema().arity() != atom.arity() {
            return Err(EngineError::Storage(
                qdb_storage::StorageError::ArityMismatch {
                    relation: atom.relation.to_string(),
                    expected: table.schema().arity(),
                    got: atom.arity(),
                },
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use qdb_logic::parse_transaction;
    use qdb_storage::{tuple, ValueType};

    /// Install a JSONL trace sink on `obs`; the returned reader yields
    /// every line written so far.
    pub(crate) fn traced(obs: &qdb_obs::Obs) -> impl Fn() -> String {
        #[derive(Clone, Default)]
        struct Buf(Arc<std::sync::Mutex<Vec<u8>>>);
        impl std::io::Write for Buf {
            fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(bytes);
                Ok(bytes.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let buf = Buf::default();
        obs.set_trace(Some(Box::new(buf.clone())));
        move || String::from_utf8(buf.0.lock().unwrap().clone()).unwrap()
    }

    fn seat_engine(seats: &[&str]) -> SharedQuantumDb {
        let qdb = QuantumDb::new(QuantumDbConfig::default())
            .unwrap()
            .into_shared();
        qdb.create_table(Schema::new(
            "Available",
            vec![("flight", ValueType::Int), ("seat", ValueType::Str)],
        ))
        .unwrap();
        qdb.create_table(Schema::new(
            "Bookings",
            vec![
                ("name", ValueType::Str),
                ("flight", ValueType::Int),
                ("seat", ValueType::Str),
            ],
        ))
        .unwrap();
        for s in seats {
            qdb.bulk_insert("Available", vec![tuple![1, *s]]).unwrap();
        }
        qdb
    }

    fn book(name: &str) -> ResourceTransaction {
        parse_transaction(&format!(
            "-Available(1, s), +Bookings('{name}', 1, s) :-1 Available(1, s)"
        ))
        .unwrap()
    }

    #[test]
    fn refused_admission_keeps_the_partition_overlay_memo() {
        let qdb = seat_engine(&["1A", "1B"]);
        assert!(qdb.submit(&book("U1")).unwrap().is_committed());
        assert!(qdb.submit(&book("U2")).unwrap().is_committed());
        let memo_present = |qdb: &SharedQuantumDb| {
            let slots = qdb.core.reg.lock().slots();
            (slots.iter()).any(|(_, slot)| slot.state.lock().part.overlay_cache.is_some())
        };
        assert!(memo_present(&qdb), "extension path installs the memo");
        // Capacity exhausted: the third booking is refused — and must not
        // cost the partition its memo (the next admission would otherwise
        // rebuild at O(depth)).
        assert!(!qdb.submit(&book("U3")).unwrap().is_committed());
        assert!(
            memo_present(&qdb),
            "a refusal must restore the rolled-back admission overlay"
        );
        // The preserved memo is still correct: freeing a seat admits the
        // next booking via extension (debug builds also assert the memo
        // against a fresh rebuild inside plan_admission).
        qdb.write(WriteOp::insert("Available", tuple![1, "1C"]))
            .unwrap();
        let ext_before = qdb.metrics().cache_extensions;
        assert!(qdb.submit(&book("U4")).unwrap().is_committed());
        assert_eq!(qdb.metrics().cache_extensions, ext_before + 1);
    }

    /// PEEK reads the maintained pending world. Through partner groundings
    /// and blind writes it must answer what re-grounding every cached
    /// valuation onto a copy of the base gives (the reference evaluator's
    /// answer there).
    #[test]
    fn peek_reads_what_regrounding_the_cached_valuations_gives() {
        let seats: Vec<String> = (0..24).map(|i| format!("{i}A")).collect();
        let qdb = seat_engine(&seats.iter().map(String::as_str).collect::<Vec<_>>());
        let arrivals = "a0 a1 a2 a3 a4 a5 a6 a7 a8 b0 a9 b1 a10 b2 a11 b3";
        for (j, me) in arrivals.split(' ').enumerate() {
            let partner = [if me < "b" { "b" } else { "a" }, &me[1..]].concat();
            let txn = parse_transaction(&format!(
                "-Available(1, s), +Bookings('{me}', 1, s) :-1 \
                 Available(1, s), Bookings('{partner}', 1, s2)?"
            ));
            assert!(qdb.submit(&txn.unwrap()).unwrap().is_committed());
            let spare = tuple![1, format!("{j}Z")];
            qdb.write(WriteOp::insert("Available", spare.clone()))
                .unwrap();
            if j % 3 == 0 {
                qdb.write(WriteOp::delete("Available", spare)).unwrap();
            }
            assert_eq!(qdb.partition_count(), 1, "one cache holds every update");
            let ops = |st: &mut SlotState| {
                let txns: Vec<_> = st.part.txns.iter().map(|p| &p.txn).collect();
                Ok(st.part.cache.pending_ops(&txns)?)
            };
            let mut world = qdb.with_database(|db| db.clone());
            let pending = qdb.with_hosting_slot(qdb.pending_ids()[0], ops);
            world.apply_all(&pending.unwrap().unwrap()).unwrap();
            let q = qdb_logic::parse_query(&format!("Bookings('{me}', f, s)")).unwrap();
            let want = qdb_workload::pattern::eval_atoms(&world, &q.atoms, None).unwrap();
            assert_eq!(qdb.read_peek(&q.atoms, None).unwrap(), want, "{me}");
        }
        assert_eq!(qdb.metrics().grounded_by_partner, 8);
    }

    #[test]
    fn unsharding_needs_the_sole_handle_and_round_trips_the_state() {
        let qdb = seat_engine(&["1A", "1B"]);
        let id = qdb.submit(&book("U1")).unwrap().id().unwrap();
        let clone = qdb.clone();
        assert!(matches!(
            clone.into_engine(),
            Err(EngineError::Invariant(_))
        ));
        let rest = qdb.into_engine().unwrap();
        assert_eq!(rest.pending_ids(), vec![id]);
        assert_eq!(rest.partition_count(), 1);
        assert_eq!(rest.database().table("Available").unwrap().len(), 2);
        // Re-sharding picks up exactly where the handle left off.
        let live = rest.into_shared();
        assert_eq!(live.metrics_with_pending().1, 1);
        assert_eq!(live.submit(&book("U2")).unwrap().id(), Some(id + 1));
    }

    /// A lock found free is a zero observation with no span or event; a
    /// held one is a timed wait with a span and an event. The holder takes
    /// the base write lock before the barrier, so the statement after it
    /// finds the lock free only if the holder already let go: such an
    /// attempt is repeated, never judged.
    #[test]
    fn free_locks_are_zero_observations_and_held_ones_spans() {
        let qdb = seat_engine(&["1A", "1B"]);
        let obs = qdb.obs();
        let trace = traced(obs); // every statement's tree is kept
        let waits = |p: Phase| obs.phase_histogram(p).snapshot();
        let events = |p: Phase| {
            (obs.events(1024).iter())
                .filter(|e| e.kind == p as u8)
                .count()
        };
        let spans = |p: Phase| {
            let text = trace();
            let op = text.lines().last().expect("the statement was kept");
            op.matches(&format!("\"phase\":\"{}\"", p.name())).count()
        };

        // One thread: every base and slot acquisition finds its lock free.
        let before = [waits(Phase::BaseLockWait), waits(Phase::PartitionLockWait)];
        qdb.execute(
            "SELECT @s FROM Available(1, @s) CHOOSE 1 FOLLOWED BY \
             (DELETE (1, @s) FROM Available; INSERT ('U1', 1, @s) INTO Bookings)",
        )
        .unwrap();
        qdb.execute("SELECT PEEK * FROM Bookings(@n, @f, @s)")
            .unwrap(); // locks the slot
        for (p, before) in [Phase::BaseLockWait, Phase::PartitionLockWait]
            .iter()
            .zip(before)
        {
            let after = waits(*p);
            assert!(after.count > before.count, "{p:?} recorded");
            assert_eq!((after.sum, after.max), (0, 0), "{p:?}: zero observations");
            assert_eq!((events(*p), spans(*p)), (0, 0), "{p:?}: no event or span");
        }

        for attempt in 0..100 {
            let before = waits(Phase::BaseLockWait);
            let barrier = std::sync::Barrier::new(2);
            std::thread::scope(|s| {
                s.spawn(|| {
                    let held = qdb.base_write();
                    barrier.wait();
                    (0..100).for_each(|_| std::thread::yield_now());
                    drop(held);
                });
                barrier.wait();
                qdb.execute("INSERT INTO Available VALUES (2, '2A')")
                    .unwrap();
            });
            let after = waits(Phase::BaseLockWait);
            assert!(
                after.count >= before.count + 2,
                "holder and writer recorded"
            );
            if after.sum == before.sum {
                continue; // the holder let go first: nothing was contended
            }
            assert!(
                after.max > 0,
                "attempt {attempt}: a held lock is a non-zero wait"
            );
            assert_eq!(events(Phase::BaseLockWait), 1, "the wait's event");
            assert_eq!(spans(Phase::BaseLockWait), 1, "the wait's span");
            return;
        }
        panic!("the writer never found the base lock held");
    }
}
