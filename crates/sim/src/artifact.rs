//! Failure repro artifacts.
//!
//! When a checker violation fires, the sweep writes everything needed to
//! reproduce it to `target/sim/failure-<seed>-<engine>.json`: the seed,
//! the full [`SimConfig`] scalars, the violation, the executed op trace
//! (shrunk to a locally-minimal repro when the sweep ran with
//! `--shrink`), the failing slice of the history, and the engine's last
//! flight-recorder events (span timings around the failure — diagnostic
//! context only). `sim replay` loads the artifact, rebuilds the config,
//! and re-executes the embedded trace under the recorded seed —
//! determinism guarantees the same violation; the loader ignores the
//! event timings (wall-clock, not reproducible).

use std::fs;
use std::path::{Path, PathBuf};

use qdb_workload::FlightsConfig;

use crate::driver::{run_seed, run_trace, EngineKind, Mutation, RunResult, SimConfig, TraceEntry};
use crate::json::{flat_bool, flat_str, flat_str_arr, flat_u64, Json};

/// How many trailing history events an artifact embeds (also the number
/// of flight-recorder span events drained from the engine).
pub const TAIL_EVENTS: usize = 40;

/// Artifact schema tag (bump on incompatible layout changes).
/// v2 added `obs_events` (flight-recorder tail); v3 added the inline op
/// trace (`trace`, `trace_len`, `original_trace_len`, `shrunk`) that
/// replay executes directly.
pub const SCHEMA: &str = "qdb-sim-failure-v3";

/// Render a failure artifact document for a run that ended in a
/// violation. `shrunk_from` is the raw trace length when `result` is the
/// re-execution of a shrunk trace.
pub fn render(result: &RunResult, cfg: &SimConfig, shrunk_from: Option<usize>) -> String {
    let v = result
        .violation
        .as_ref()
        .expect("artifacts are only rendered for failing runs");
    let tail: Vec<Json> = result
        .history
        .tail_lines(TAIL_EVENTS)
        .into_iter()
        .map(Json::Str)
        .collect();
    let obs: Vec<Json> = result
        .obs_events
        .iter()
        .map(|e| {
            Json::Obj(vec![
                ("ts_ns".into(), Json::U64(e.ts_ns)),
                ("txn".into(), Json::U64(e.txn_id)),
                ("partition".into(), Json::U64(e.partition_id)),
                ("kind".into(), Json::str(e.kind_name())),
                (
                    "outcome".into(),
                    Json::str(match e.outcome {
                        qdb_core::Outcome::Ok => "ok",
                        qdb_core::Outcome::Aborted => "aborted",
                        qdb_core::Outcome::Error => "error",
                    }),
                ),
                ("dur_ns".into(), Json::U64(e.dur_ns)),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("schema".into(), Json::str(SCHEMA)),
        ("seed".into(), Json::U64(result.seed)),
        ("engine".into(), Json::str(result.engine)),
        ("clients".into(), Json::U64(cfg.clients as u64)),
        (
            "ops_per_client".into(),
            Json::U64(cfg.ops_per_client as u64),
        ),
        ("flights".into(), Json::U64(cfg.flights.flights as u64)),
        (
            "rows_per_flight".into(),
            Json::U64(cfg.flights.rows_per_flight as u64),
        ),
        ("k".into(), Json::U64(cfg.k as u64)),
        ("crash".into(), Json::Bool(cfg.crash)),
        ("crash_count".into(), Json::U64(cfg.crash_count as u64)),
        ("world_bound".into(), Json::U64(cfg.world_bound as u64)),
        ("explain_sample".into(), Json::U64(cfg.explain_sample)),
        ("ser_interval".into(), Json::U64(cfg.ser_interval)),
        ("dfs_budget".into(), Json::U64(cfg.dfs_budget as u64)),
        (
            "mutation".into(),
            match cfg.mutation {
                Some(m) => Json::str(m.name()),
                None => Json::str("none"),
            },
        ),
        ("violation_kind".into(), Json::str(v.kind.clone())),
        ("violation_detail".into(), Json::str(v.detail.clone())),
        ("violation_op_index".into(), Json::U64(v.op_index)),
        ("ops_executed".into(), Json::U64(result.ops)),
        ("crashes".into(), Json::U64(result.crashes)),
        ("trace_len".into(), Json::U64(result.trace.len() as u64)),
        (
            "original_trace_len".into(),
            Json::U64(shrunk_from.unwrap_or(result.trace.len()) as u64),
        ),
        ("shrunk".into(), Json::Bool(shrunk_from.is_some())),
        (
            "trace".into(),
            Json::Arr(result.trace.iter().map(|e| Json::Str(e.render())).collect()),
        ),
        ("history_tail".into(), Json::Arr(tail)),
        ("obs_events".into(), Json::Arr(obs)),
    ])
    .render()
}

/// Write the artifact for a failing run into `dir`, returning its path.
pub fn write(
    dir: &Path,
    result: &RunResult,
    cfg: &SimConfig,
    shrunk_from: Option<usize>,
) -> std::io::Result<PathBuf> {
    fs::create_dir_all(dir)?;
    let path = dir.join(format!("failure-{}-{}.json", result.seed, result.engine));
    fs::write(&path, render(result, cfg, shrunk_from))?;
    Ok(path)
}

/// Load `(seed, config, trace)` back from an artifact document.
pub fn load(text: &str) -> Result<(u64, SimConfig, Vec<TraceEntry>), String> {
    if flat_str(text, "schema").as_deref() != Some(SCHEMA) {
        return Err(format!("not a {SCHEMA} artifact"));
    }
    let seed = flat_u64(text, "seed").ok_or("missing seed")?;
    let engine = EngineKind::parse(&flat_str(text, "engine").ok_or("missing engine")?)?;
    let mutation = match flat_str(text, "mutation").as_deref() {
        None | Some("none") => None,
        Some(name) => {
            Some(Mutation::parse(name).ok_or_else(|| format!("unknown mutation {name}"))?)
        }
    };
    let need = |key: &str| flat_u64(text, key).ok_or_else(|| format!("missing {key}"));
    let cfg = SimConfig {
        engine,
        clients: need("clients")? as usize,
        ops_per_client: need("ops_per_client")? as usize,
        flights: FlightsConfig {
            flights: need("flights")? as usize,
            rows_per_flight: need("rows_per_flight")? as usize,
        },
        k: need("k")? as usize,
        crash: flat_bool(text, "crash").unwrap_or(true),
        crash_count: need("crash_count")? as usize,
        world_bound: need("world_bound")? as usize,
        explain_sample: need("explain_sample")?,
        ser_interval: need("ser_interval")?,
        dfs_budget: need("dfs_budget")? as usize,
        profile: Default::default(),
        mutation,
    };
    let trace = flat_str_arr(text, "trace")
        .unwrap_or_default()
        .iter()
        .map(|line| {
            TraceEntry::parse(line).ok_or_else(|| format!("unparseable trace line {line:?}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok((seed, cfg, trace))
}

/// Load an artifact file and deterministically re-run it: the embedded
/// trace is re-executed when present (exact even for shrunk artifacts),
/// falling back to a fresh seeded run for traceless documents.
pub fn replay_file(path: &Path) -> Result<RunResult, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let (seed, cfg, trace) = load(&text)?;
    if trace.is_empty() {
        Ok(run_seed(seed, &cfg))
    } else {
        Ok(run_trace(seed, &cfg, &trace))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failing_run_roundtrips_through_an_artifact() {
        let cfg = SimConfig {
            clients: 3,
            ops_per_client: 60,
            crash_count: 1,
            ser_interval: 40,
            mutation: Some(Mutation::OverstateCapacity),
            ..SimConfig::smoke(EngineKind::Sharded)
        };
        let r = run_seed(21, &cfg);
        let v = r.violation.clone().expect("mutation must fail the run");
        let doc = render(&r, &cfg, None);
        // The flight-recorder tail travels with the artifact (diagnostic
        // only — the loader below never reads it, so replay stays exact).
        assert!(doc.contains("\"obs_events\""));
        assert!(!r.obs_events.is_empty(), "a failing run has span events");
        let (seed, cfg2, trace) = load(&doc).expect("artifact parses back");
        assert_eq!(seed, 21);
        assert_eq!(cfg2.mutation, Some(Mutation::OverstateCapacity));
        assert_eq!(trace.len(), r.trace.len(), "full trace travels inline");
        let replayed = crate::driver::run_trace(seed, &cfg2, &trace);
        let v2 = replayed.violation.expect("replay reproduces the violation");
        assert_eq!(v2.kind, v.kind);
        assert_eq!(v2.op_index, v.op_index);
    }

    /// Artifacts recorded before the single-threaded driver was deleted
    /// carry `"engine":"single"`: loading one must say what happened to
    /// that engine kind, not panic or call the label unknown.
    #[test]
    fn artifact_from_the_removed_single_engine_is_refused_by_name() {
        let cfg = SimConfig {
            clients: 2,
            ops_per_client: 10,
            crash: false,
            mutation: Some(Mutation::OverstateCapacity),
            ..SimConfig::smoke(EngineKind::Sharded)
        };
        let doc = render(&run_seed(5, &cfg), &cfg, None);
        assert!(doc.contains("\"engine\":\"sharded\""));
        let old = doc.replace("\"engine\":\"sharded\"", "\"engine\":\"single\"");
        let err = load(&old).expect_err("single is gone");
        assert!(err.contains("`single` was removed"), "{err}");
        assert!(err.contains("sharded"), "{err}");
    }

    #[test]
    fn shrunk_artifact_replays_the_minimal_trace() {
        let cfg = SimConfig {
            clients: 3,
            ops_per_client: 60,
            crash_count: 1,
            ser_interval: 40,
            mutation: Some(Mutation::CorruptWalByte),
            ..SimConfig::smoke(EngineKind::Sharded)
        };
        let (seed, r) = (1..=20)
            .map(|seed| (seed, run_seed(seed, &cfg)))
            .find(|(_, r)| r.violation.is_some())
            .expect("corrupt_wal_byte must fire within 20 seeds");
        let kind = r.violation.as_ref().unwrap().kind.clone();
        let s = crate::shrink::shrink(seed, &cfg, &r.trace, &kind, 400);
        assert!(s.reproduced());
        let minimal = crate::driver::run_trace(seed, &cfg, &s.trace);
        let doc = render(&minimal, &cfg, Some(s.original_len));
        assert!(doc.contains("\"shrunk\":true"));
        let (seed2, cfg2, trace) = load(&doc).expect("artifact parses back");
        assert_eq!(seed2, seed);
        // The re-execution re-records the trace as run (crash cuts are
        // clamped to the shorter log), so the artifact trace is the
        // executed fixpoint of the shrunk trace — same length, and
        // replaying it reproduces the violation exactly.
        assert_eq!(trace, minimal.trace);
        assert_eq!(trace.len(), s.trace.len());
        let replayed = crate::driver::run_trace(seed2, &cfg2, &trace);
        assert_eq!(replayed.violation.expect("still violates").kind, kind);
    }
}
