//! Result documents: the provenance stamp, the one-line result the driver
//! reads, and the multi-set result files `compare` reads.

use std::process::Command;

use crate::gen::{Workload, PIPELINE_DEPTH, SERVER_WORKERS};
use crate::json::Json;
use crate::metrics::unit_of;
use crate::run::{RunResult, Scale};
use crate::stats::median;

fn command_line(program: &str, args: &[&str]) -> String {
    // `output()` waits for the child; nothing outlives the call.
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn file_line(path: &str, prefix: &str) -> String {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|text| {
            text.lines()
                .find_map(|line| line.strip_prefix(prefix))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Host and provenance facts stamped into every result file.
pub fn stamp(seed: u64, seconds: f64) -> Json {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let statements = Workload::ALL.map(|w| {
        let scale = Scale::full(w, seconds);
        let n = scale.units as f64 * w.stmts_per_unit() * w.streams() as f64;
        (w.name(), Json::Num(n.round()))
    });
    Json::obj([
        ("logical_cores", Json::Num(cores as f64)),
        (
            "cpu_model",
            Json::str(file_line("/proc/cpuinfo", "model name")),
        ),
        (
            "kernel",
            Json::str(file_line("/proc/sys/kernel/osrelease", "")),
        ),
        ("rustc", Json::str(command_line("rustc", &["-V"]))),
        (
            "build_profile",
            Json::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        (
            "git_commit",
            Json::str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("statements_per_workload", Json::obj(statements)),
        ("pipeline_depth", Json::Num(PIPELINE_DEPTH as f64)),
        ("server_workers", Json::Num(SERVER_WORKERS as f64)),
        (
            "remote_shape",
            Json::str("one caller thread, one call in flight, process pinned to one CPU"),
        ),
        ("flush_policy", Json::str("64 KiB group drain, no fsync")),
    ])
}

/// The `metrics` object of a result: `{name: {value, unit}}`.
fn metrics_json(result: &RunResult) -> Json {
    Json::obj(result.metrics.iter().map(|(name, value)| {
        let unit = unit_of(name).expect("declared metric");
        (
            *name,
            Json::obj([("value", Json::Num(*value)), ("unit", Json::str(unit))]),
        )
    }))
}

/// The one-line result the driver reads: exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_line(result: &RunResult) -> String {
    Json::obj([
        ("correct", Json::Bool(result.correct)),
        ("attempted", Json::Num(result.attempted as f64)),
        ("failed", Json::Num(result.failed as f64)),
        ("metrics", metrics_json(result)),
    ])
    .to_line()
}

/// Human-readable report of one run: every metric by name with its unit.
pub fn print_result(workload: Workload, traced: bool, result: &RunResult) {
    println!(
        "== {} ({}) ==",
        workload.name(),
        if traced { "traced" } else { "untraced" }
    );
    for (name, value) in &result.metrics {
        println!(
            "{name:<40} {value:>16.4} {}",
            unit_of(name).expect("declared metric")
        );
    }
    for note in &result.notes {
        println!("  {note}");
    }
    println!(
        "  correct={} attempted={} failed={}",
        result.correct, result.attempted, result.failed
    );
}

/// The runs of one workload across the sets of a result file.
#[derive(Default)]
pub struct WorkloadRuns {
    /// Untraced runs, one per set.
    pub untraced: Vec<RunResult>,
    /// Traced runs, one per set (empty without `--traced`).
    pub traced: Vec<RunResult>,
}

fn summarise(runs: &[RunResult]) -> Json {
    let Some(first) = runs.first() else {
        return Json::obj::<&str>([]);
    };
    Json::obj(first.metrics.iter().enumerate().map(|(i, (name, _))| {
        let values: Vec<f64> = runs.iter().map(|r| r.metrics[i].1).collect();
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        (
            *name,
            Json::obj([
                ("unit", Json::str(unit_of(name).expect("declared metric"))),
                ("median", Json::Num(median(&values))),
                ("min", Json::Num(min)),
                ("max", Json::Num(max)),
                (
                    "values",
                    Json::Arr(values.into_iter().map(Json::Num).collect()),
                ),
            ]),
        )
    }))
}

/// A result file: the stamp plus, per workload, median / min / max and
/// every value of each metric across the sets.
pub fn result_file(stamp: Json, sets: usize, workloads: &[(Workload, WorkloadRuns)]) -> Json {
    let counts = |runs: &[RunResult], f: fn(&RunResult) -> f64| {
        Json::Arr(runs.iter().map(|r| Json::Num(f(r))).collect())
    };
    Json::obj([
        ("stamp", stamp),
        ("sets", Json::Num(sets as f64)),
        (
            "workloads",
            Json::obj(workloads.iter().map(|(workload, runs)| {
                (
                    workload.name(),
                    Json::obj([
                        ("attempted", counts(&runs.untraced, |r| r.attempted as f64)),
                        ("failed", counts(&runs.untraced, |r| r.failed as f64)),
                        (
                            "correct",
                            Json::Bool(runs.untraced.iter().chain(&runs.traced).all(|r| r.correct)),
                        ),
                        ("end_to_end", summarise(&runs.untraced)),
                        ("per_layer", summarise(&runs.traced)),
                    ]),
                )
            })),
        ),
    ])
}

/// Write `doc` to `path`, creating the directory.
pub fn write_json(path: &std::path::Path, doc: &Json) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, doc.to_pretty()).map_err(|e| format!("write {}: {e}", path.display()))
}
