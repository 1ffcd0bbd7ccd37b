//! `sim` — deterministic simulation CLI.
//!
//! ```text
//! sim run [--seeds N] [--seed-start S] [--clients N] [--ops N]
//!         [--engine sharded|wire|all] [--crash on|off]
//!         [--mutate NAME] [--shrink] [--artifact-dir DIR] [--json]
//! sim repl [--seeds N] [--seed-start S] [--replicas N] [--ops N] [--json]
//! sim replay --seed S [--artifact-dir DIR]
//! sim replay <path/to/failure-artifact.json>
//! ```
//!
//! `run` sweeps seeds with the smoke-scale config (overridable per flag)
//! and exits non-zero when any run violates; failure artifacts land in
//! `target/sim/` (with `--shrink`, carrying a delta-debugged minimal
//! trace). `replay` loads an artifact and re-executes its embedded trace
//! under the recorded seed — determinism reproduces the original
//! violation exactly. `repl` sweeps replicated-topology seeds: primary +
//! N WAL-shipping replicas, seeded kill at an arbitrary WAL byte cut,
//! promotion, zero-acked-loss + horizon-explainable-read checking.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use qdb_sim::json::Json;
use qdb_sim::{
    artifact, run_replica_sweep, run_sweep, EngineKind, Mutation, ReplicaSimConfig, RunResult,
    SimConfig,
};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("repl") => cmd_repl(&args[1..]),
        Some("replay") => cmd_replay(&args[1..]),
        _ => {
            eprintln!(
                "usage: sim run [flags] | sim repl [flags] | sim replay --seed S | \
                 sim replay <artifact>"
            );
            ExitCode::from(2)
        }
    }
}

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn has(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

fn cmd_run(args: &[String]) -> ExitCode {
    let seeds: u64 = flag(args, "--seeds")
        .and_then(|s| s.parse().ok())
        .unwrap_or(50);
    let start: u64 = flag(args, "--seed-start")
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    let engines: Vec<EngineKind> = match flag(args, "--engine").as_deref() {
        None => vec![EngineKind::Sharded],
        Some("all") => vec![EngineKind::Sharded, EngineKind::Wire],
        Some(s) => match EngineKind::parse(s) {
            Ok(k) => vec![k],
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::from(2);
            }
        },
    };
    let mut cfg = SimConfig::smoke(engines[0]);
    if let Some(n) = flag(args, "--clients").and_then(|s| s.parse().ok()) {
        cfg.clients = n;
    }
    if let Some(n) = flag(args, "--ops").and_then(|s| s.parse().ok()) {
        cfg.ops_per_client = n;
    }
    match flag(args, "--crash").as_deref() {
        None | Some("on") => cfg.crash = true,
        Some("off") => cfg.crash = false,
        Some(other) => {
            eprintln!("unknown --crash value {other:?} (on|off)");
            return ExitCode::from(2);
        }
    }
    if let Some(name) = flag(args, "--mutate") {
        match Mutation::parse(&name) {
            Some(m) => cfg.mutation = Some(m),
            None => {
                let known: Vec<&str> = Mutation::all().iter().map(|m| m.name()).collect();
                eprintln!("unknown mutation {name:?} ({})", known.join("|"));
                return ExitCode::from(2);
            }
        }
    }
    let shrink = has(args, "--shrink");
    let dir = flag(args, "--artifact-dir").unwrap_or_else(|| "target/sim".into());
    let dir = PathBuf::from(dir);

    let started = Instant::now();
    let outcome = run_sweep(&cfg, start, seeds, &engines, Some(&dir), shrink);
    let elapsed = started.elapsed().as_secs_f64();
    let ops_per_sec = if elapsed > 0.0 {
        outcome.total_ops as f64 / elapsed
    } else {
        0.0
    };

    if has(args, "--json") {
        let failures: Vec<Json> = outcome
            .failures
            .iter()
            .map(|(seed, engine, v, path)| {
                Json::Obj(vec![
                    ("seed".into(), Json::U64(*seed)),
                    ("engine".into(), Json::str(*engine)),
                    ("kind".into(), Json::str(v.kind.clone())),
                    ("op_index".into(), Json::U64(v.op_index)),
                    (
                        "artifact".into(),
                        match path {
                            Some(p) => Json::str(p.display().to_string()),
                            None => Json::Null,
                        },
                    ),
                ])
            })
            .collect();
        let doc = Json::Obj(vec![
            ("experiment".into(), Json::str("sim")),
            ("seeds".into(), Json::U64(seeds)),
            ("runs".into(), Json::U64(outcome.runs)),
            ("total_ops".into(), Json::U64(outcome.total_ops)),
            ("ops_per_sec".into(), Json::U64(ops_per_sec as u64)),
            ("commits".into(), Json::U64(outcome.commits)),
            ("aborts".into(), Json::U64(outcome.aborts)),
            ("crashes".into(), Json::U64(outcome.crashes)),
            ("violations".into(), Json::U64(outcome.violations())),
            ("ser_checks".into(), Json::U64(outcome.stats.ser_checks)),
            (
                "explain_checked".into(),
                Json::U64(outcome.stats.explain_checked),
            ),
            (
                "invariant_checks".into(),
                Json::U64(outcome.stats.invariant_checks),
            ),
            ("failures".into(), Json::Arr(failures)),
        ]);
        println!("{}", doc.render());
    } else {
        println!(
            "sim: {} runs ({} seeds × {} engines), {} ops in {elapsed:.1}s ({ops_per_sec:.0} ops/s)",
            outcome.runs,
            seeds,
            engines.len(),
            outcome.total_ops
        );
        println!(
            "     commits={} aborts={} crashes={} ser_checks={} explain_checked={} \
             explain_skipped={} invariant_checks={}",
            outcome.commits,
            outcome.aborts,
            outcome.crashes,
            outcome.stats.ser_checks,
            outcome.stats.explain_checked,
            outcome.stats.explain_skipped,
            outcome.stats.invariant_checks
        );
        for (seed, engine, v, path) in &outcome.failures {
            println!(
                "     FAILURE seed={seed} engine={engine} kind={} at op {}{}",
                v.kind,
                v.op_index,
                match path {
                    Some(p) => format!(" -> {}", p.display()),
                    None => String::new(),
                }
            );
        }
        if outcome.failures.is_empty() {
            println!("     zero violations");
        }
    }
    if outcome.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn cmd_repl(args: &[String]) -> ExitCode {
    let seeds: u64 = flag(args, "--seeds")
        .and_then(|s| s.parse().ok())
        .unwrap_or(20);
    let start: u64 = flag(args, "--seed-start")
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    let mut cfg = ReplicaSimConfig::smoke();
    if let Some(n) = flag(args, "--replicas").and_then(|s| s.parse().ok()) {
        cfg.replicas = n;
    }
    if let Some(n) = flag(args, "--ops").and_then(|s| s.parse().ok()) {
        cfg.ops = n;
    }

    let started = Instant::now();
    let out = run_replica_sweep(&cfg, start, seeds);
    let elapsed = started.elapsed().as_secs_f64();

    if has(args, "--json") {
        let failures: Vec<Json> = out
            .failures
            .iter()
            .map(|(seed, v)| {
                Json::Obj(vec![
                    ("seed".into(), Json::U64(*seed)),
                    ("violation".into(), Json::str(v.clone())),
                ])
            })
            .collect();
        let doc = Json::Obj(vec![
            ("experiment".into(), Json::str("sim-repl")),
            ("seeds".into(), Json::U64(seeds)),
            ("replicas".into(), Json::U64(cfg.replicas as u64)),
            ("runs".into(), Json::U64(out.runs)),
            ("total_ops".into(), Json::U64(out.total_ops)),
            ("acked_writes".into(), Json::U64(out.acked_writes)),
            ("surviving_acked".into(), Json::U64(out.surviving_acked)),
            ("lost_to_window".into(), Json::U64(out.lost_to_window)),
            ("replica_reads".into(), Json::U64(out.replica_reads)),
            ("checked_reads".into(), Json::U64(out.checked_reads)),
            ("max_lag_bytes".into(), Json::U64(out.max_lag_bytes)),
            ("violations".into(), Json::U64(out.failures.len() as u64)),
            ("failures".into(), Json::Arr(failures)),
        ]);
        println!("{}", doc.render());
    } else {
        println!(
            "sim repl: {} runs × {} replicas, {} ops in {elapsed:.1}s",
            out.runs, cfg.replicas, out.total_ops
        );
        println!(
            "     acked={} surviving={} async_window={} replica_reads={} checked_reads={} \
             max_lag_bytes={}",
            out.acked_writes,
            out.surviving_acked,
            out.lost_to_window,
            out.replica_reads,
            out.checked_reads,
            out.max_lag_bytes
        );
        for (seed, v) in &out.failures {
            println!("     FAILURE seed={seed}: {v}");
        }
        if out.failures.is_empty() {
            println!("     zero violations");
        }
    }
    if out.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn cmd_replay(args: &[String]) -> ExitCode {
    let path: PathBuf = if let Some(seed) = flag(args, "--seed") {
        let dir = flag(args, "--artifact-dir").unwrap_or_else(|| "target/sim".into());
        match find_artifact(Path::new(&dir), &seed) {
            Some(p) => p,
            None => {
                eprintln!("no failure-{seed}-*.json under {dir}");
                return ExitCode::FAILURE;
            }
        }
    } else if let Some(p) = args.iter().find(|a| !a.starts_with("--")) {
        PathBuf::from(p)
    } else {
        eprintln!("usage: sim replay --seed S | sim replay <artifact>");
        return ExitCode::from(2);
    };
    match artifact::replay_file(&path) {
        Ok(result) => {
            print_replay(&path, &result);
            // Reproducing the violation is the expected outcome.
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("replay failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn find_artifact(dir: &Path, seed: &str) -> Option<PathBuf> {
    let prefix = format!("failure-{seed}-");
    let mut matches: Vec<PathBuf> = std::fs::read_dir(dir)
        .ok()?
        .flatten()
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with(&prefix) && n.ends_with(".json"))
        })
        .collect();
    matches.sort();
    matches.into_iter().next()
}

fn print_replay(path: &Path, result: &RunResult) {
    println!(
        "replayed {} (seed {} engine {}): {} ops, {} crashes",
        path.display(),
        result.seed,
        result.engine,
        result.ops,
        result.crashes
    );
    match &result.violation {
        Some(v) => {
            println!(
                "violation reproduced: {} at op {} — {}",
                v.kind, v.op_index, v.detail
            );
            println!("history tail:");
            for line in result.history.tail_lines(15) {
                println!("  {line}");
            }
        }
        None => println!("no violation on replay (artifact config may have drifted)"),
    }
}
