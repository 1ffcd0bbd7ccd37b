//! The engine *at rest* ([`QuantumDb`]) and the admission planner.
//!
//! State = extensional [`Database`] + partitions of pending resource
//! transactions + per-partition solution caches + a WAL. [`QuantumDb`] is
//! that state as plain owned data: what construction and crash recovery
//! produce and what [`QuantumDb::into_shared`] hands to the one engine
//! that executes statements, [`SharedQuantumDb`]. See the crate docs for
//! the operation semantics and the paper mapping.

use std::collections::BTreeMap;

use qdb_logic::{ResourceTransaction, Valuation, VarGen};
use qdb_solver::{Solver, TxnSpec};
use qdb_storage::{Database, Wal};

use crate::config::QuantumDbConfig;
use crate::partition::Partition;
use crate::shard::SharedQuantumDb;
use crate::txn::PendingTxn;
use crate::{Metrics, Result, TxnId};

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

/// Admission path taken by [`plan_admission`] (drives the cache metrics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AdmitPath {
    /// The merged cached solution extended to cover the newcomer.
    Extension,
    /// A full re-solve of the merged sequence was needed.
    FullResolve,
}

/// A successful admission plan: cache valuations for the merged partition
/// and which cache path succeeded.
///
/// Planning is **pure** (reads the database and the merged partition view,
/// mutates nothing), so the engine runs it under a shared base-state read
/// lock — concurrent admissions into disjoint partitions solve in
/// parallel.
#[derive(Debug)]
pub(crate) struct AdmitPlan {
    /// [`AdmitPath::Extension`]: the newcomer's valuation alone, to append
    /// to the partition's cached ones. [`AdmitPath::FullResolve`]: the
    /// whole cache, parallel to merged transactions + the newcomer.
    pub valuations: Vec<Valuation>,
    /// Which admission path succeeded.
    pub path: AdmitPath,
    /// The host partition's pending world: the virtual state of
    /// `valuations`, newcomer included. `Some` only on the extension path
    /// (a full re-solve replaces earlier valuations, so the next user
    /// rebuilds it).
    pub overlay: Option<qdb_solver::Overlay>,
}

/// Outcome of [`plan_admission`].
#[derive(Debug)]
pub(crate) enum AdmitDecision {
    /// The newcomer admits; install this plan.
    Admitted(AdmitPlan),
    /// The newcomer is refused. Carries the pending world — the refused
    /// search rolled it back to the cached solution's virtual state, and
    /// the partition's valuations are unchanged, so the caller puts it
    /// back (a refusal must not cost the partition an O(pending) rebuild).
    Refused(qdb_solver::Overlay),
}

/// Plan admitting `txn` against the merged view of its target partitions
/// (§4 solution cache): extend the cached solution by the newcomer inside
/// `world`, the merged partition's pending world
/// ([`Partition::ensure_world`]), else re-solve the merged sequence plus
/// the newcomer from scratch. `merged` must be sorted by transaction id
/// (arrival order).
pub(crate) fn plan_admission(
    solver: &mut Solver,
    db: &Database,
    merged: &[PendingTxn],
    mut world: qdb_solver::Overlay,
    txn: &ResourceTransaction,
) -> Result<AdmitDecision> {
    // Extend the (merged) cached solution with the newcomer only, in the
    // pending world — O(newcomer), not O(pending).
    if let Some(sol) = solver.solve_in(db, &mut world, &[TxnSpec::required_only(txn)])? {
        // `solve_in` left the newcomer's updates applied: the overlay is
        // already the post-admission virtual state.
        return Ok(AdmitDecision::Admitted(AdmitPlan {
            valuations: sol.valuations,
            path: AdmitPath::Extension,
            overlay: Some(world),
        }));
    }
    // The unsat search rolled the overlay back to the cached solution's
    // virtual state — keep it for the refusal path.
    let mut specs: Vec<TxnSpec> = merged
        .iter()
        .map(|p| TxnSpec::required_only(&p.txn))
        .collect();
    specs.push(TxnSpec::required_only(txn));
    Ok(match solver.solve(db, &[], &specs)? {
        Some(sol) => AdmitDecision::Admitted(AdmitPlan {
            valuations: sol.valuations,
            path: AdmitPath::FullResolve,
            overlay: None,
        }),
        None => AdmitDecision::Refused(world),
    })
}
