//! Command line of the benchmark.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1   one run; last line is the result JSON
//! benchmark [--seed N] [--seconds S] [--traced] [--sets K] [--out FILE]
//!                                                            every workload, K sets, result file
//! benchmark compare <a.json> <b.json>                        judge b against a
//! ```

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use qdb_benchmark::compare::{compare, print_rows};
use qdb_benchmark::drive::OUT_DIR;
use qdb_benchmark::gen::Workload;
use qdb_benchmark::json::Json;
use qdb_benchmark::report::{
    print_result, result_file, result_line, stamp, write_json, WorkloadRuns,
};
use qdb_benchmark::run::{run_traced, run_untraced, RunResult, Scale};

/// Default seed of the issue (`0xC1DE`).
const DEFAULT_SEED: u64 = 0xC1DE;
/// Default `--seconds`; `BENCHMARK.json`'s `run_seconds` is the same.
const DEFAULT_SECONDS: f64 = 20.0;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    traced: bool,
    sets: usize,
    out: Option<PathBuf>,
}

fn parse_u64(text: &str) -> Option<u64> {
    match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        traced: false,
        sets: 1,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--traced" {
            parsed.traced = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                parsed.workload = Some(Workload::from_name(value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value} (have: {})", names.join(", "))
                })?)
            }
            "--seed" => parsed.seed = parse_u64(value).ok_or_else(bad)?,
            "--seconds" => {
                parsed.seconds = value.parse().ok().filter(|s| *s > 0.0).ok_or_else(bad)?
            }
            "--trace" => parsed.traced = parse_u64(value).ok_or_else(bad)? != 0,
            "--sets" => parsed.sets = value.parse().ok().filter(|s| *s > 0).ok_or_else(bad)?,
            "--out" => parsed.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(parsed)
}

/// Arm the per-run deadline: four times what a run takes at the commit
/// that added the benchmark (set-ups + measured phase + checks ≈ 2.5 ×
/// `--seconds`). A run still going then is stuck: it is reported as
/// entirely failed (`fail_pct` = 100) and the process exits non-zero
/// instead of hanging the job.
fn arm_watchdog(seconds: f64, done: Arc<AtomicBool>) {
    let deadline = Duration::from_secs_f64(4.0 * (2.5 * seconds + 5.0));
    std::thread::spawn(move || {
        let start = Instant::now();
        while start.elapsed() < deadline {
            std::thread::sleep(Duration::from_millis(100));
            if done.load(Ordering::SeqCst) {
                return;
            }
        }
        eprintln!(
            "benchmark: run exceeded its {deadline:?} deadline — stuck; reporting fail_pct = 100"
        );
        println!(
            "{}",
            result_line(&RunResult {
                correct: false,
                attempted: 1,
                failed: 1,
                metrics: Vec::new(),
                notes: Vec::new(),
            })
        );
        std::process::exit(3);
    });
}

fn single_run(args: &Args, workload: Workload, process_start: Instant) -> Result<bool, String> {
    let done = Arc::new(AtomicBool::new(false));
    arm_watchdog(args.seconds, Arc::clone(&done));
    let scale = Scale::full(workload, args.seconds);
    let result = if args.traced {
        run_traced(workload, args.seed, scale)
    } else {
        run_untraced(workload, args.seed, scale, process_start)
    }?;
    done.store(true, Ordering::SeqCst);

    print_result(workload, args.traced, &result);
    let doc = Json::obj([
        ("stamp", stamp(args.seed, args.seconds)),
        ("workload", Json::str(workload.name())),
        ("traced", Json::Bool(args.traced)),
        (
            "result",
            Json::parse(&result_line(&result)).expect("own output parses"),
        ),
    ]);
    let name = format!(
        "run-{}-seed{}-trace{}.json",
        workload.name(),
        args.seed,
        u8::from(args.traced)
    );
    write_json(&Path::new(OUT_DIR).join(name), &doc)?;
    // The driver reads the last line of standard output.
    println!("{}", result_line(&result));
    Ok(result.correct)
}

/// Run one workload in a child process of this same binary (its own
/// process start, its own peak RSS) and read back its result line.
fn child_run(args: &Args, workload: Workload, traced: bool) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn child run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().ok_or("child run printed nothing")?;
    for line in lines {
        println!("{line}");
    }
    let doc = Json::parse(last).map_err(|e| format!("child result line: {e}"))?;
    let number = |key: &str| doc.get(key).and_then(Json::as_f64).unwrap_or(0.0) as u64;
    let declared = qdb_benchmark::metrics::END_TO_END
        .iter()
        .map(|m| m.name)
        .chain(qdb_benchmark::metrics::PER_LAYER.iter().map(|m| m.name));
    let metrics = declared
        .filter_map(|name| {
            let value = doc.get("metrics")?.get(name)?.get("value")?.as_f64()?;
            Some((name, value))
        })
        .collect();
    Ok(RunResult {
        correct: doc.get("correct") == Some(&Json::Bool(true)) && output.status.success(),
        attempted: number("attempted"),
        failed: number("failed"),
        metrics,
        notes: Vec::new(),
    })
}

fn all_workloads(args: &Args) -> Result<bool, String> {
    let mut runs: Vec<(Workload, WorkloadRuns)> = Workload::ALL
        .iter()
        .map(|w| (*w, WorkloadRuns::default()))
        .collect();
    let mut correct = true;
    for set in 0..args.sets {
        for (workload, results) in &mut runs {
            eprintln!(
                "benchmark: set {}/{} {}",
                set + 1,
                args.sets,
                workload.name()
            );
            let untraced = child_run(args, *workload, false)?;
            correct &= untraced.correct;
            results.untraced.push(untraced);
            if args.traced {
                let traced = child_run(args, *workload, true)?;
                correct &= traced.correct;
                results.traced.push(traced);
            }
        }
    }
    let doc = result_file(stamp(args.seed, args.seconds), args.sets, &runs);
    let out = args
        .out
        .clone()
        .unwrap_or_else(|| Path::new(OUT_DIR).join(format!("result-seed{}.json", args.seed)));
    write_json(&out, &doc)?;
    println!("result file: {}", out.display());
    Ok(correct)
}

fn compare_files(a: &str, b: &str) -> Result<bool, String> {
    let load = |path: &str| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("parse {path}: {e}"))
    };
    let (rows, pass) = compare(&load(a)?, &load(b)?)?;
    print_rows(&rows);
    println!(
        "{}",
        if pass {
            "compare: ok"
        } else {
            "compare: REGRESSED"
        }
    );
    Ok(pass)
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.as_slice() {
        [cmd, a, b] if cmd == "compare" => compare_files(a, b),
        _ => parse_args(&argv).and_then(|args| match args.workload {
            Some(workload) => single_run(&args, workload, process_start),
            None => all_workloads(&args),
        }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
