//! # qdb-sim
//!
//! Deterministic full-system simulation with black-box serializability
//! checking for the quantum database engine.
//!
//! Three layers (see `docs/SIMULATION.md` for the full story):
//!
//! 1. **Driver** ([`driver`]) — a seeded virtual scheduler interleaves N
//!    logical clients issuing the full statement surface (CHOOSE solo and
//!    entangled, collapse/PEEK/POSSIBLE reads, GROUND / GROUND ALL,
//!    CHECKPOINT, blind INSERT/DELETE) against either engine build, with
//!    crash/restart injection at arbitrary WAL byte offsets. Every run is
//!    a pure function of its `u64` seed.
//! 2. **History recorder** ([`history`]) — every statement outcome lands
//!    in a dbcop-shaped history `(T, so, wr)`: per-session event lists,
//!    the scheduled interleaving, and writes-read edges for observed
//!    rows.
//! 3. **Checker** ([`checker`]) — black-box verification that grounded
//!    outcomes are serializable (greedy WAL-order pass, then a memoized
//!    schedule search), that every PEEK/POSSIBLE answer is explainable by
//!    some possible world at read time, and that the accounting identity
//!    `committed − grounded = pending` plus the domain invariants (seat
//!    conservation, no double booking) hold after every transition.
//!
//! On a violation the sweep writes a repro artifact
//! (`target/sim/failure-<seed>-<engine>.json`, [`artifact`]) that
//! `sim replay` re-runs deterministically.

pub mod artifact;
pub mod checker;
pub mod driver;
pub mod history;
pub mod json;
pub mod replica;
pub mod shrink;

use std::path::{Path, PathBuf};

use json::Json;

pub use checker::{CheckStats, SerOutcome, Violation};
pub use driver::{run_seed, run_trace, EngineKind, Mutation, RunResult, SimConfig, TraceEntry};
pub use history::{Event, History, ReadKind};
pub use replica::{
    run_replica_seed, run_replica_sweep, ReplicaRunResult, ReplicaSimConfig, ReplicaSweepOutcome,
};
pub use shrink::ShrinkOutcome;

/// Oracle re-executions a sweep grants the shrinker per failure.
pub const SHRINK_BUDGET: usize = 400;

/// Aggregated result of a multi-seed sweep.
#[derive(Debug, Clone, Default)]
pub struct SweepOutcome {
    /// Runs executed (seeds × engines).
    pub runs: u64,
    /// Statements executed across all runs.
    pub total_ops: u64,
    /// Committed CHOOSE submissions.
    pub commits: u64,
    /// Aborted CHOOSE submissions.
    pub aborts: u64,
    /// Crash/restart cycles injected and survived.
    pub crashes: u64,
    /// Summed checker counters.
    pub stats: CheckStats,
    /// Failing runs: `(seed, engine, violation, artifact path if written)`.
    pub failures: Vec<(u64, &'static str, Violation, Option<PathBuf>)>,
}

impl SweepOutcome {
    /// Number of violating runs.
    pub fn violations(&self) -> u64 {
        self.failures.len() as u64
    }

    /// Statements per second over a sweep that took `elapsed_s`.
    pub fn ops_per_sec(&self, elapsed_s: f64) -> f64 {
        self.total_ops as f64 / elapsed_s.max(1e-9)
    }

    /// The sweep's JSON record, as `sim run --json` prints it for CI's jq
    /// gates: it echoes the `engine` and `seeds` it was asked for, and
    /// `elapsed_s` is the sweep's wall time.
    pub fn record(&self, engine: &str, seeds: u64, elapsed_s: f64) -> Json {
        let failures = self.failures.iter().map(|(seed, engine, v, path)| {
            let artifact = path.as_ref().map(|p| p.display().to_string());
            Json::obj([
                ("seed", Json::U64(*seed)),
                ("engine", Json::str(*engine)),
                ("kind", Json::str(v.kind.clone())),
                ("op_index", Json::U64(v.op_index)),
                ("artifact", artifact.map_or(Json::Null, Json::Str)),
            ])
        });
        let counts = [
            ("seeds", seeds),
            ("runs", self.runs),
            ("total_ops", self.total_ops),
            ("ops_per_sec", self.ops_per_sec(elapsed_s) as u64),
            ("commits", self.commits),
            ("aborts", self.aborts),
            ("crashes", self.crashes),
            ("violations", self.violations()),
            ("ser_checks", self.stats.ser_checks),
            ("explain_checked", self.stats.explain_checked),
            ("invariant_checks", self.stats.invariant_checks),
        ];
        let mut record = vec![
            ("experiment".to_string(), Json::str("sim")),
            ("engine".to_string(), Json::str(engine)),
        ];
        record.extend(counts.map(|(k, n)| (k.to_string(), Json::U64(n))));
        record.push(("failures".into(), Json::arr(failures)));
        Json::Obj(record)
    }
}

/// Run `seeds` consecutive seeds starting at `start_seed` against each
/// engine in `engines`, writing a failure artifact into `artifact_dir`
/// (when given) for every violating run. With `shrink`, each failing
/// trace is delta-debugged first ([`SHRINK_BUDGET`] re-executions) and
/// the artifact carries the minimal trace instead of the raw one.
pub fn run_sweep(
    base: &SimConfig,
    start_seed: u64,
    seeds: u64,
    engines: &[EngineKind],
    artifact_dir: Option<&Path>,
    shrink: bool,
) -> SweepOutcome {
    let mut out = SweepOutcome::default();
    for engine in engines {
        let cfg = SimConfig {
            engine: *engine,
            ..base.clone()
        };
        for seed in start_seed..start_seed + seeds {
            let r = run_seed(seed, &cfg);
            out.runs += 1;
            out.total_ops += r.ops;
            out.commits += r.commits;
            out.aborts += r.aborts;
            out.crashes += r.crashes;
            out.stats.add(&r.stats);
            if let Some(v) = r.violation.clone() {
                let path = artifact_dir.and_then(|dir| {
                    let shrunk = shrink
                        .then(|| shrink::shrink(seed, &cfg, &r.trace, &v.kind, SHRINK_BUDGET))
                        .filter(ShrinkOutcome::reproduced);
                    match shrunk {
                        Some(s) => {
                            let repro = run_trace(seed, &cfg, &s.trace);
                            artifact::write(dir, &repro, &cfg, Some(s.original_len)).ok()
                        }
                        None => artifact::write(dir, &r, &cfg, None).ok(),
                    }
                });
                out.failures.push((seed, r.engine, v, path));
            }
        }
    }
    out
}
