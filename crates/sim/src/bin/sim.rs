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
//!
//! An unknown flag, a missing or unparsable value, or a flag given twice
//! prints the usage text and exits 2: a typo must not run some other
//! sweep that can still pass every gate. The `--json` records echo the
//! engine and seeds they ran.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;
use std::time::Instant;

use qdb_sim::{
    artifact, run_replica_sweep, run_sweep, EngineKind, Mutation, ReplicaSimConfig, RunResult,
    SimConfig,
};

const USAGE: &str = "usage:
  sim run [--seeds N] [--seed-start S] [--clients N] [--ops N]
          [--engine sharded|wire|all] [--crash on|off]
          [--mutate NAME] [--shrink] [--artifact-dir DIR] [--json]
  sim repl [--seeds N] [--seed-start S] [--replicas N] [--ops N] [--json]
  sim replay --seed S [--artifact-dir DIR]
  sim replay <path/to/failure-artifact.json>";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rest = args.get(1..).unwrap_or_default();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => cmd_run(rest),
        Some("repl") => cmd_repl(rest),
        Some("replay") => cmd_replay(rest),
        _ => Err("unknown command".to_string()),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("sim: {e}\n{USAGE}");
        ExitCode::from(2)
    })
}

/// One subcommand's arguments, checked against the flags it takes.
#[derive(Default)]
struct Flags {
    values: BTreeMap<String, String>,
    switches: Vec<String>,
    positional: Option<String>,
}

impl Flags {
    /// `valued` flags take the next argument as their value, `switches`
    /// take none; with `positional`, one bare argument is allowed too.
    fn parse(
        args: &[String],
        valued: &[&str],
        switches: &[&str],
        positional: bool,
    ) -> Result<Flags, String> {
        let mut out = Flags::default();
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            let name = arg.as_str();
            let repeated = if valued.contains(&name) {
                let value = args.next().ok_or_else(|| format!("{name} needs a value"))?;
                out.values.insert(arg.clone(), value.clone()).is_some()
            } else if switches.contains(&name) {
                let seen = out.switches.contains(arg);
                out.switches.push(arg.clone());
                seen
            } else if positional && !name.starts_with('-') && out.positional.is_none() {
                out.positional = Some(arg.clone());
                false
            } else {
                return Err(format!("unknown argument {name:?}"));
            };
            if repeated {
                return Err(format!("{name} given twice"));
            }
        }
        Ok(out)
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    fn has(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    /// The number `name` was given, or `default` when it was not.
    fn num<T: FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.value(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("{name} takes a number, not {v:?}")),
        }
    }
}

fn cmd_run(args: &[String]) -> Result<ExitCode, String> {
    let valued = [
        "--seeds",
        "--seed-start",
        "--clients",
        "--ops",
        "--engine",
        "--crash",
        "--mutate",
        "--artifact-dir",
    ];
    let flags = Flags::parse(args, &valued, &["--shrink", "--json"], false)?;
    let seeds: u64 = flags.num("--seeds", 50)?;
    let start: u64 = flags.num("--seed-start", 1)?;
    let engine = flags.value("--engine").unwrap_or("sharded");
    let engines = match engine {
        "all" => vec![EngineKind::Sharded, EngineKind::Wire],
        s => vec![EngineKind::parse(s)?],
    };
    let mut cfg = SimConfig::smoke(engines[0]);
    cfg.clients = flags.num("--clients", cfg.clients)?;
    cfg.ops_per_client = flags.num("--ops", cfg.ops_per_client)?;
    cfg.crash = match flags.value("--crash") {
        None | Some("on") => true,
        Some("off") => false,
        Some(other) => return Err(format!("unknown --crash value {other:?} (on|off)")),
    };
    if let Some(name) = flags.value("--mutate") {
        let Some(m) = Mutation::parse(name) else {
            let known: Vec<&str> = Mutation::all().iter().map(|m| m.name()).collect();
            return Err(format!("unknown mutation {name:?} ({})", known.join("|")));
        };
        cfg.mutation = Some(m);
    }
    let shrink = flags.has("--shrink");
    let dir = PathBuf::from(flags.value("--artifact-dir").unwrap_or("target/sim"));

    let started = Instant::now();
    let outcome = run_sweep(&cfg, start, seeds, &engines, Some(&dir), shrink);
    let elapsed = started.elapsed().as_secs_f64();

    if flags.has("--json") {
        println!("{}", outcome.record(engine, seeds, elapsed).render());
    } else {
        let ops_per_sec = outcome.ops_per_sec(elapsed);
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
    Ok(if outcome.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_repl(args: &[String]) -> Result<ExitCode, String> {
    let valued = ["--seeds", "--seed-start", "--replicas", "--ops"];
    let flags = Flags::parse(args, &valued, &["--json"], false)?;
    let seeds: u64 = flags.num("--seeds", 20)?;
    let start: u64 = flags.num("--seed-start", 1)?;
    let mut cfg = ReplicaSimConfig::smoke();
    cfg.replicas = flags.num("--replicas", cfg.replicas)?;
    cfg.ops = flags.num("--ops", cfg.ops)?;

    let started = Instant::now();
    let out = run_replica_sweep(&cfg, start, seeds);
    let elapsed = started.elapsed().as_secs_f64();

    if flags.has("--json") {
        println!("{}", out.record(seeds, cfg.replicas).render());
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
    Ok(if out.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_replay(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args, &["--seed", "--artifact-dir"], &[], true)?;
    let path: PathBuf = match (flags.value("--seed"), &flags.positional) {
        (Some(seed), None) => {
            let dir = flags.value("--artifact-dir").unwrap_or("target/sim");
            match find_artifact(Path::new(dir), seed) {
                Some(p) => p,
                None => {
                    eprintln!("no failure-{seed}-*.json under {dir}");
                    return Ok(ExitCode::FAILURE);
                }
            }
        }
        (None, Some(p)) if flags.value("--artifact-dir").is_none() => PathBuf::from(p),
        _ => return Err("replay takes --seed S [--artifact-dir DIR] or one artifact".into()),
    };
    match artifact::replay_file(&path) {
        Ok(result) => {
            print_replay(&path, &result);
            // Reproducing the violation is the expected outcome.
            Ok(ExitCode::SUCCESS)
        }
        Err(e) => {
            eprintln!("replay failed: {e}");
            Ok(ExitCode::FAILURE)
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
