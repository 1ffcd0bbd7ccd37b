//! The engine *at rest* ([`QuantumDb`]) and the admission planner.
//!
//! State = extensional [`Database`] + partitions of pending resource
//! transactions + per-partition solution caches + a WAL. [`QuantumDb`] is
//! that state as plain owned data: what construction and crash recovery
//! produce and what [`QuantumDb::into_shared`] hands to the one engine
//! that executes statements, [`SharedQuantumDb`]. See the crate docs for
//! the operation semantics and the paper mapping.

use std::collections::BTreeMap;

use qdb_logic::{Atom, ResourceTransaction, Valuation, Var, VarGen};
use qdb_solver::{CachedSolution, Solver, SolverStats, TxnSpec};
use qdb_storage::{ConjunctiveQuery, Database, Wal, WriteOp};

use crate::config::QuantumDbConfig;
use crate::metrics::Metrics;
use crate::partition::Partition;
use crate::shard::SharedQuantumDb;
use crate::txn::{PendingTxn, TxnId};
use crate::Result;

/// Result of submitting a resource transaction.
///
/// `Committed` carries the §2 guarantee: *"the transaction will never need
/// to be rolled back"* — a suitable resource exists now and the engine will
/// keep it existing until the value assignment is fixed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitOutcome {
    /// Admitted: at least one possible world satisfies all pending
    /// transactions including this one.
    Committed {
        /// Engine-assigned transaction id.
        id: TxnId,
    },
    /// Refused: admission would empty the set of possible worlds
    /// (Definition 3.1's ∅ state, which normal execution must avoid).
    Aborted,
}

impl SubmitOutcome {
    /// The id, when committed.
    pub fn id(&self) -> Option<TxnId> {
        match self {
            SubmitOutcome::Committed { id } => Some(*id),
            SubmitOutcome::Aborted => None,
        }
    }

    /// Did the transaction commit?
    pub fn is_committed(&self) -> bool {
        matches!(self, SubmitOutcome::Committed { .. })
    }
}

/// The quantum database engine at rest: the plain owned state that
/// [`QuantumDb::new`], [`QuantumDb::with_wal`] and [`QuantumDb::recover`]
/// produce and [`QuantumDb::into_shared`] consumes. It executes nothing —
/// every statement runs on the [`SharedQuantumDb`] it is promoted into —
/// but it can be inspected without locks (crash-recovery checks compare
/// [`QuantumDb::database`] and [`QuantumDb::pending_ids`] against a live
/// engine).
pub struct QuantumDb {
    pub(crate) db: Database,
    pub(crate) partitions: BTreeMap<u64, Partition>,
    pub(crate) next_partition_id: u64,
    pub(crate) next_txn_id: TxnId,
    pub(crate) vargen: VarGen,
    pub(crate) solver_stats: SolverStats,
    pub(crate) wal: Wal,
    pub(crate) config: QuantumDbConfig,
    pub(crate) metrics: Metrics,
    pub(crate) obs: std::sync::Arc<qdb_obs::Obs>,
}

impl std::fmt::Debug for QuantumDb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QuantumDb")
            .field("tables", &self.db.tables().count())
            .field("rows", &self.db.total_rows())
            .field("partitions", &self.partitions.len())
            .field("pending", &self.pending_count())
            .field("next_txn_id", &self.next_txn_id)
            .finish_non_exhaustive()
    }
}

impl QuantumDb {
    /// New engine over an in-memory WAL.
    pub fn new(config: QuantumDbConfig) -> Result<Self> {
        Ok(Self::with_wal(config, Wal::in_memory()))
    }

    /// New engine over a caller-provided WAL (e.g. file-backed).
    pub fn with_wal(config: QuantumDbConfig, mut wal: Wal) -> Self {
        let obs = std::sync::Arc::new(qdb_obs::Obs::new());
        obs.set_slow_threshold_us(config.slow_op_threshold_us);
        wal.set_obs(Some(obs.clone()));
        QuantumDb {
            db: Database::new(),
            partitions: BTreeMap::new(),
            next_partition_id: 0,
            next_txn_id: 0,
            vargen: VarGen::new(),
            solver_stats: SolverStats::default(),
            wal,
            config,
            metrics: Metrics::default(),
            obs,
        }
    }

    /// Promote into the thread-safe, partition-sharded engine.
    pub fn into_shared(self) -> SharedQuantumDb {
        SharedQuantumDb::from_engine(self)
    }

    /// The extensional database (tuples fixed so far).
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Engine configuration.
    pub fn config(&self) -> &QuantumDbConfig {
        &self.config
    }

    /// Number of pending (committed, unground) transactions.
    pub fn pending_count(&self) -> usize {
        self.partitions.values().map(Partition::len).sum()
    }

    /// Ids of pending transactions in arrival order.
    pub fn pending_ids(&self) -> Vec<TxnId> {
        let mut ids: Vec<TxnId> = self
            .partitions
            .values()
            .flat_map(|p| p.txns.iter().map(|t| t.id))
            .collect();
        ids.sort_unstable();
        ids
    }

    /// Number of independent partitions.
    pub fn partition_count(&self) -> usize {
        self.partitions.len()
    }
}

/// Columns the access-pattern tracker flags for promotion, across all
/// tables.
pub(crate) fn collect_hot_columns(db: &Database, threshold: u32) -> Vec<(String, usize)> {
    db.tables()
        .flat_map(|t| {
            let relation = t.schema().relation().to_string();
            t.hot_unindexed_columns(threshold)
                .into_iter()
                .map(move |c| (relation.clone(), c))
        })
        .collect()
}

/// Evaluate a conjunctive query (logic atoms) against a tuple view — the
/// concrete database or a delta view of a possible world.
pub(crate) fn eval_on<V: qdb_storage::TupleView + ?Sized>(
    view: &V,
    atoms: &[Atom],
    limit: Option<usize>,
) -> Result<Vec<Valuation>> {
    let empty = Valuation::new();
    let patterns = atoms.iter().map(|a| a.to_pattern(&empty)).collect();
    let mut q = ConjunctiveQuery::new(patterns);
    if let Some(l) = limit {
        q = q.with_limit(l);
    }
    let out = q.eval(view)?;
    // Map numeric binding ids back to logic variables.
    let mut by_id: std::collections::BTreeMap<u32, Var> = std::collections::BTreeMap::new();
    for a in atoms {
        for v in a.vars() {
            by_id.entry(v.id()).or_insert_with(|| v.clone());
        }
    }
    Ok(out
        .bindings
        .into_iter()
        .map(|b| {
            b.into_iter()
                .map(|(id, value)| (by_id[&id].clone(), value))
                .collect()
        })
        .collect())
}

/// Admission path taken by [`plan_admission`] (drives the cache metrics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AdmitPath {
    /// The merged cached solution extended to cover the newcomer.
    Extension,
    /// An *alternative* cached solution rescued the admission after the
    /// primary failed to extend (multi-solution cache, §4 discussion).
    ExtraHit,
    /// A full re-solve of the merged sequence was needed.
    FullResolve,
}

/// A successful admission plan: the new cache valuations for the merged
/// partition (merged arrival order, newcomer last), opportunistic
/// alternative solutions, and which cache path succeeded.
///
/// Planning is **pure** (reads the database and the merged partition view,
/// mutates nothing), so the engine runs it under a shared base-state read
/// lock — concurrent admissions into disjoint partitions solve in
/// parallel.
#[derive(Debug)]
pub(crate) struct AdmitPlan {
    /// Cache valuations, parallel to merged transactions + the newcomer.
    pub valuations: Vec<Valuation>,
    /// Alternative cached solutions for the host partition.
    pub extras: Vec<CachedSolution>,
    /// Which admission path succeeded.
    pub path: AdmitPath,
    /// The host partition's pending world: the virtual state of
    /// `valuations`, newcomer included. `Some` only on the extension fast
    /// path (other paths replace earlier valuations, so the next user
    /// rebuilds it).
    pub overlay: Option<qdb_solver::Overlay>,
}

/// Outcome of [`plan_admission`].
#[derive(Debug)]
pub(crate) enum AdmitDecision {
    /// The newcomer admits; install this plan.
    Admitted(AdmitPlan),
    /// The newcomer is refused. Carries the pending world when the fast
    /// path was given one — the refused search rolled it back to the
    /// cached solution's virtual state, and the partition's valuations
    /// are unchanged, so the caller puts it back (a refusal must not cost
    /// the partition an O(pending) rebuild).
    Refused(Option<qdb_solver::Overlay>),
}

/// Plan admitting `txn` against the merged view of its target partitions:
/// check the invariant over the union + the newcomer (cache extension
/// first, then alternatives, then a full re-solve) and compute the new
/// cache state. `merged` must be sorted by transaction id (arrival order);
/// `extras` are the alternative cached solutions of the *single* target
/// partition (pass `&[]` for zero or several targets — alternatives are
/// positional and do not survive merges), and `world` is the merged
/// partition's pending world ([`Partition::ensure_world`]) — `None` when
/// the configuration extends through materialized pre-ops instead (the
/// multi-solution cache) or not at all.
pub(crate) fn plan_admission(
    solver: &mut Solver,
    db: &Database,
    config: &QuantumDbConfig,
    merged: &[(&PendingTxn, &Valuation)],
    extras: &[CachedSolution],
    world: Option<qdb_solver::Overlay>,
    txn: &ResourceTransaction,
) -> Result<AdmitDecision> {
    let mut admitted: Option<Vec<Valuation>> = None;
    let mut admitted_pre_ops: Option<Vec<WriteOp>> = None;
    let mut out_overlay: Option<qdb_solver::Overlay> = None;
    let mut refused_overlay: Option<qdb_solver::Overlay> = None;
    let mut path = AdmitPath::FullResolve;
    if let Some(mut overlay) = world {
        // Extend the (merged) cached solution with the newcomer only, in
        // the pending world — O(newcomer), not O(pending).
        match solver.solve_in(db, &mut overlay, &[TxnSpec::required_only(txn)])? {
            Some(sol) => {
                let mut vals: Vec<Valuation> = merged.iter().map(|(_, v)| (*v).clone()).collect();
                vals.extend(sol.valuations);
                admitted = Some(vals);
                // `solve_in` left the newcomer's updates applied: the
                // overlay is already the post-admission virtual state.
                out_overlay = Some(overlay);
                path = AdmitPath::Extension;
            }
            None => {
                // The unsat search rolled the overlay back to the cached
                // solution's virtual state — keep it for the refusal path.
                refused_overlay = Some(overlay);
                // Before a full re-solve, try each alternative cached
                // solution (none exist when `cache_solutions <= 1`, but
                // stale shapes are skipped defensively).
                for extra in extras {
                    if extra.len() != merged.len() {
                        continue; // stale shape
                    }
                    let Some(alt_ops) = alt_pre_ops(merged, extra) else {
                        continue;
                    };
                    if let Some(sol) = solver.solve(db, &alt_ops, &[TxnSpec::required_only(txn)])? {
                        let mut vals = extra.valuations.clone();
                        vals.extend(sol.valuations);
                        admitted = Some(vals);
                        path = AdmitPath::ExtraHit;
                        break;
                    }
                }
            }
        }
    } else if config.use_solution_cache {
        // Multi-solution configuration: the pre-op list is needed for
        // stocking alternatives, so take the materializing path.
        let mut pre_ops = Vec::with_capacity(merged.len() * 2);
        for (p, v) in merged {
            pre_ops.extend(p.txn.write_ops(v)?);
        }
        if let Some(sol) = solver.solve(db, &pre_ops, &[TxnSpec::required_only(txn)])? {
            let mut vals: Vec<Valuation> = merged.iter().map(|(_, v)| (*v).clone()).collect();
            vals.extend(sol.valuations);
            admitted = Some(vals);
            admitted_pre_ops = Some(pre_ops);
            path = AdmitPath::Extension;
        } else {
            // Before a full re-solve, try each alternative cached solution.
            for extra in extras {
                if extra.len() != merged.len() {
                    continue; // stale shape
                }
                let Some(alt_ops) = alt_pre_ops(merged, extra) else {
                    continue;
                };
                if let Some(sol) = solver.solve(db, &alt_ops, &[TxnSpec::required_only(txn)])? {
                    let mut vals = extra.valuations.clone();
                    vals.extend(sol.valuations);
                    admitted = Some(vals);
                    admitted_pre_ops = Some(alt_ops);
                    path = AdmitPath::ExtraHit;
                    break;
                }
            }
        }
    }
    if admitted.is_none() {
        // Full re-solve of the whole (merged + newcomer) sequence.
        let mut specs: Vec<TxnSpec> = merged
            .iter()
            .map(|(p, _)| TxnSpec::required_only(&p.txn))
            .collect();
        specs.push(TxnSpec::required_only(txn));
        if let Some(sol) = solver.solve(db, &[], &specs)? {
            admitted = Some(sol.valuations);
            path = AdmitPath::FullResolve;
        }
    }
    let Some(valuations) = admitted else {
        return Ok(AdmitDecision::Refused(refused_overlay));
    };
    // Opportunistically stock alternative solutions: same prefix,
    // different groundings of the newcomer (cheap diversity where it
    // matters most — the §4 "background process" idea folded into the
    // admission path).
    let mut plan_extras = Vec::new();
    if config.cache_solutions > 1 {
        if let Some(pre_ops) = admitted_pre_ops {
            let alts = solver.enumerate_one(
                db,
                &pre_ops,
                &TxnSpec::required_only(txn),
                config.cache_solutions,
            )?;
            let chosen = valuations.last().expect("newcomer valuation present");
            for alt in alts {
                if &alt == chosen || plan_extras.len() + 1 >= config.cache_solutions {
                    continue;
                }
                let mut vals = valuations.clone();
                *vals.last_mut().expect("non-empty") = alt;
                plan_extras.push(CachedSolution { valuations: vals });
            }
        }
    }
    Ok(AdmitDecision::Admitted(AdmitPlan {
        valuations,
        extras: plan_extras,
        path,
        overlay: out_overlay,
    }))
}

/// Ground the merged pending updates under an *alternative* cached
/// solution; `None` when any update fails to ground (stale alternative).
fn alt_pre_ops(
    merged: &[(&PendingTxn, &Valuation)],
    extra: &CachedSolution,
) -> Option<Vec<WriteOp>> {
    let mut alt_ops = Vec::with_capacity(merged.len() * 2);
    for ((p, _), v) in merged.iter().zip(&extra.valuations) {
        match p.txn.write_ops(v) {
            Ok(ops) => alt_ops.extend(ops),
            Err(_) => return None,
        }
    }
    Some(alt_ops)
}
