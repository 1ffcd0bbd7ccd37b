//! Smoke test of the benchmark itself, at N/1000.
//!
//! Run with `cargo test --release --manifest-path benchmark/Cargo.toml`
//! (a debug build works too, just slower).

use std::path::Path;
use std::time::Instant;

use qdb_benchmark::gen::{stream_hash, Workload};
use qdb_benchmark::json::Json;
use qdb_benchmark::metrics::{END_TO_END, PER_LAYER};
use qdb_benchmark::run::{run_traced, run_untraced, RunResult, Scale};
use qdb_benchmark::stats::{samples_beyond, supported_level};

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ sits in the repo root")
}

fn benchmark_json() -> Json {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn keys(value: &Json) -> Vec<&str> {
    value
        .as_obj()
        .expect("object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect()
}

fn text<'a>(value: &'a Json, key: &str) -> &'a str {
    value
        .get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("string {key}"))
}

#[test]
fn benchmark_json_declares_exactly_what_the_code_reports() {
    let doc = benchmark_json();
    assert_eq!(
        keys(&doc),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let run_seconds = doc
        .get("run_seconds")
        .and_then(Json::as_f64)
        .expect("run_seconds");
    assert!((1.0..=60.0).contains(&run_seconds) && run_seconds.fract() == 0.0);

    let workloads = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads");
    assert_eq!(workloads.len(), Workload::ALL.len());
    for (declared, workload) in workloads.iter().zip(Workload::ALL) {
        assert_eq!(keys(declared), ["name", "why"]);
        assert_eq!(text(declared, "name"), workload.name());
        assert_eq!(text(declared, "why"), workload.why());
        assert!(workload.why().chars().count() <= 200 && !workload.why().contains('\n'));
    }

    let end_to_end = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .expect("end_to_end");
    assert_eq!(end_to_end.len(), END_TO_END.len());
    for (declared, metric) in end_to_end.iter().zip(END_TO_END) {
        assert_eq!(keys(declared), ["name", "unit", "better", "bound"]);
        assert_eq!(text(declared, "name"), metric.name);
        assert_eq!(text(declared, "unit"), metric.unit);
        assert_eq!(text(declared, "better"), metric.better.as_str());
        let bound = declared.get("bound").and_then(Json::as_f64).expect("bound");
        assert_eq!(bound, metric.bound, "{}", metric.name);
        assert!(bound > 0.0 && bound <= 0.25);
    }
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s is declared");
    assert!(
        END_TO_END.iter().all(|m| m.bound <= setup.bound),
        "setup_s has the largest bound"
    );

    let per_layer = doc
        .get("per_layer")
        .and_then(Json::as_arr)
        .expect("per_layer");
    assert_eq!(per_layer.len(), PER_LAYER.len());
    assert!(per_layer.len() <= 128);
    for (declared, metric) in per_layer.iter().zip(PER_LAYER) {
        assert_eq!(keys(declared), ["name", "unit", "better"]);
        assert_eq!(text(declared, "name"), metric.name);
        assert_eq!(text(declared, "unit"), metric.unit);
        assert_eq!(text(declared, "better"), metric.better.as_str());
    }

    // The contract's lexical limits on names and units.
    let names = END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)));
    let mut seen = std::collections::BTreeSet::new();
    for (name, unit) in names {
        assert!(seen.insert(name), "{name} declared twice");
        assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
        assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "{name}"
        );
        assert!(
            unit.len() <= 16
                && unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "{unit}"
        );
    }
}

#[test]
fn the_stream_is_a_pure_function_of_the_seed() {
    for workload in Workload::ALL {
        let units = 200;
        assert_eq!(
            stream_hash(workload, 0xC1DE, units),
            stream_hash(workload, 0xC1DE, units),
            "{}: same seed, different stream",
            workload.name()
        );
        assert_ne!(
            stream_hash(workload, 0xC1DE, units),
            stream_hash(workload, 0xC1DF, units),
            "{}: different seeds, same stream",
            workload.name()
        );
    }
}

fn assert_declared(result: &RunResult, declared: &[&str], what: &str) {
    let emitted: Vec<&str> = result.metrics.iter().map(|(name, _)| *name).collect();
    assert_eq!(
        emitted, declared,
        "{what}: emitted metrics ≠ declared metrics"
    );
    for (name, value) in &result.metrics {
        assert!(value.is_finite(), "{what}: {name} = {value}");
    }
    assert!(
        result.correct,
        "{what}: output checks failed: {:#?}",
        result.notes
    );
    assert_eq!(result.failed, 0, "{what}");
    assert!(result.attempted >= 1, "{what}");
}

fn metric(result: &RunResult, name: &str) -> f64 {
    result
        .metrics
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("{name}"))
        .1
}

/// One test for every run-based check: runs share the process's CPU
/// clock, peak RSS and working directory, so they must not overlap.
#[test]
fn every_workload_emits_every_declared_metric_and_passes_its_checks() {
    // Result paths are relative to the checkout root, as under run.sh.
    std::env::set_current_dir(repo_root()).expect("enter the repo root");
    let end_to_end: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
    let per_layer: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
    let started = Instant::now();

    for workload in Workload::ALL {
        let scale = Scale::smoke(workload);
        let untraced = run_untraced(workload, 7, scale, Instant::now()).expect("untraced run");
        assert_declared(&untraced, &end_to_end, workload.name());
        for name in &end_to_end {
            // The contract wants end-to-end metrics that are never 0.
            assert!(
                metric(&untraced, name) > 0.0,
                "{}: {name} is 0",
                workload.name()
            );
        }
        // Every end-to-end timing states its sample count.
        for name in end_to_end.iter().filter(|n| n.ends_with("_p50_us")) {
            let stated = untraced.notes.iter().any(|note| {
                note.starts_with(&format!("{name}: median over")) && note.ends_with("samples")
            });
            assert!(
                stated,
                "{name} reports no sample count: {:#?}",
                untraced.notes
            );
        }

        let traced = run_traced(workload, 7, scale).expect("traced run");
        assert_declared(&traced, &per_layer, workload.name());
        // The tails say which level they used and on how many samples, and
        // none claims a level with fewer than ten samples beyond it (at
        // this scale that means they fall back from p99).
        for class in ["txn", "read", "write"] {
            let prefix = format!("run.{class}_p99_us: p");
            let note = traced
                .notes
                .iter()
                .find(|note| note.starts_with(&prefix))
                .unwrap_or_else(|| panic!("{prefix}… missing: {:#?}", traced.notes));
            let words: Vec<&str> = note[prefix.len()..].split_whitespace().collect();
            let level = words[0].parse::<f64>().expect("level") / 100.0;
            let samples: usize = words[2].parse().expect("sample count");
            assert_eq!(level, supported_level(samples, 0.99), "{note}");
            assert!(
                samples_beyond(samples, level) >= 10 || level == 0.50,
                "{note}"
            );
        }
        assert_eq!(metric(&traced, "run.fail_pct"), 0.0);
        assert_eq!(metric(&traced, "read.db_clones"), 0.0);
        assert_eq!(metric(&traced, "recovery.state_mismatches"), 0.0);
        // Predicted-flat cells: the serving layers do nothing on the
        // embedded workloads, and prepared statements never re-parse.
        if workload.remote() {
            for name in [
                "client.encode_ns_per_op",
                "wire.request_bytes_per_op",
                "server.frames_decoded",
            ] {
                assert!(metric(&traced, name) > 0.0, "{}: {name}", workload.name());
            }
            assert!(metric(&traced, "logic.parses_per_stmt") > 0.9);
        } else {
            let serving = |n: &&&str| {
                ["client.", "wire.", "server."]
                    .iter()
                    .any(|p| n.starts_with(p))
            };
            for name in per_layer.iter().filter(serving) {
                assert_eq!(metric(&traced, name), 0.0, "{}: {name}", workload.name());
            }
            assert_eq!(metric(&traced, "logic.parses_per_stmt"), 0.0);
        }
        let trace_file = format!("benchmark/out/trace-{}.jsonl", workload.name());
        let first_span = std::fs::read_to_string(&trace_file).expect("trace file");
        let first_span =
            Json::parse(first_span.lines().next().expect("a span")).expect("span JSON");
        for key in ["req", "span", "parent", "name", "start_ns", "end_ns"] {
            assert!(
                first_span.get(key).is_some(),
                "{trace_file}: span lacks {key}"
            );
        }
    }
    let took = started.elapsed().as_secs_f64();
    assert!(
        took < 15.0 || cfg!(debug_assertions),
        "smoke runs took {took:.1} s"
    );
}
