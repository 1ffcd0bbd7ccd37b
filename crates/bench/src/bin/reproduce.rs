//! Regenerate every table and figure of the paper's evaluation (§5).
//!
//! ```text
//! reproduce [table1|fig5|fig6|fig7|table2|fig8|fig9|phase|partition_scaling|
//!            admission_depth|read_path|profile|sim|connection_scale|
//!            replication|all]...
//!           [--scale full|smoke] [--json] [--trace-out PATH]
//! ```
//!
//! Several experiment names may be given; they run in the canonical order.
//! `full` runs the paper's parameters (slow: Fig. 7 alone executes up to
//! 15 000 transactions per k); `smoke` is a quick shape-check. Output is
//! plain text: tables match the paper's tables, figures are printed as
//! tab-separated series. With `--json`, the same measurements (plus
//! derived throughput/latency) are additionally written to
//! `BENCH_results.json` — stamped with the git commit and a UTC timestamp
//! — so the performance trajectory of the repo can be tracked run over
//! run. `--trace-out PATH` makes the `profile` experiment export its
//! sharded engine's span stream as JSONL (see `docs/OBSERVABILITY.md`).

use qdb_bench::experiments::*;
use qdb_bench::json::{num, str as jstr, Json};
use qdb_bench::report::{downsample, format_series, format_table};
use qdb_workload::FlightsConfig;

#[derive(Clone, Copy, PartialEq)]
enum Scale {
    Full,
    Smoke,
}

impl Scale {
    fn label(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Smoke => "smoke",
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut which: Vec<String> = Vec::new();
    let mut scale = Scale::Full;
    let mut json = false;
    let mut trace_out: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                scale = match args.get(i).map(String::as_str) {
                    Some("smoke") => Scale::Smoke,
                    _ => Scale::Full,
                };
            }
            "--json" => json = true,
            "--trace-out" => {
                i += 1;
                match args.get(i) {
                    Some(path) => trace_out = Some(path.clone()),
                    None => {
                        eprintln!("--trace-out needs a path");
                        std::process::exit(2);
                    }
                }
            }
            other => which.push(other.to_string()),
        }
        i += 1;
    }
    if which.is_empty() {
        which.push("all".to_string());
    }
    const KNOWN: [&str; 16] = [
        "all",
        "table1",
        "fig5",
        "fig6",
        "fig7",
        "table2",
        "fig8",
        "fig9",
        "phase",
        "partition_scaling",
        "admission_depth",
        "read_path",
        "profile",
        "sim",
        "connection_scale",
        "replication",
    ];
    for w in &which {
        if !KNOWN.contains(&w.as_str()) {
            eprintln!(
                "unknown experiment '{w}'; expected one or more of: {}",
                KNOWN.join("|")
            );
            std::process::exit(2);
        }
    }
    let seed = 0xC1DE;
    let wants = |name: &str| which.iter().any(|w| w == "all") || which.iter().any(|w| w == name);
    let mut records: Vec<Json> = Vec::new();
    if wants("table1") {
        records.push(table1(seed));
    }
    if wants("fig5") || wants("fig6") {
        records.push(fig5_fig6(scale, seed));
    }
    if wants("fig7") || wants("table2") {
        records.push(fig7_table2(scale, seed));
    }
    if wants("fig8") || wants("fig9") {
        records.push(fig8_fig9(scale, seed));
    }
    if wants("phase") {
        records.push(phase());
    }
    if wants("partition_scaling") {
        records.push(partition_scaling_report(scale, seed));
    }
    if wants("admission_depth") {
        records.push(admission_depth_report(scale));
    }
    if wants("read_path") {
        records.push(read_path_report(scale));
    }
    if wants("profile") {
        records.push(profile_report(scale, trace_out.as_deref()));
    }
    if wants("connection_scale") {
        records.push(connection_scale_report(scale));
    }
    let mut sim_failed = false;
    if wants("replication") {
        let (record, failed) = replication_report(scale);
        records.push(record);
        sim_failed |= failed;
    }
    if wants("sim") {
        let (record, failed) = sim_report(scale);
        records.push(record);
        sim_failed |= failed;
    }
    if json {
        let doc = Json::obj([
            ("suite", jstr("quantum-db reproduce")),
            ("git_commit", jstr(qdb_bench::git_commit())),
            ("generated_at", jstr(qdb_bench::iso8601_now())),
            ("scale", jstr(scale.label())),
            ("seed", num(seed as u32)),
            ("experiments", Json::Arr(records)),
        ]);
        let path = "BENCH_results.json";
        match std::fs::write(path, doc.pretty()) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
    if sim_failed {
        // A simulation violation is a correctness bug, not a perf
        // regression — fail the reproduction run outright.
        std::process::exit(1);
    }
}

/// The observability acceptance run: drive a mixed workload through the
/// engine, then read back `SHOW PROFILE`'s payload and check that every
/// statement class the driver issued has a histogram whose count equals
/// the driver's own statement counter and whose percentiles are non-zero
/// — the jq gates in CI key off this record. With `--trace-out`, the
/// engine's span stream is exported as JSONL.
fn profile_report(scale: Scale, trace_out: Option<&str>) -> Json {
    use qdb_core::{QuantumDb, QuantumDbConfig};
    use std::collections::BTreeMap;

    let (flights, pairs, reads) = match scale {
        Scale::Full => (8usize, 6usize, 120usize),
        Scale::Smoke => (2, 3, 12),
    };
    println!("== Profile: per-class / per-phase latency histograms ==");
    println!(
        "({flights} flights x {pairs} bookings each + {reads} PEEK/POSSIBLE reads,\n\
         counts must match the driver's own)\n"
    );

    // The workload, as (class, SQL) pairs — the class strings are the
    // engine's own `Statement::kind()` names, so the driver's counter and
    // the histogram key line up exactly.
    let mut stmts: Vec<(&'static str, String)> = vec![
        (
            "CREATE TABLE",
            "CREATE TABLE Available (flight INT, seat TEXT)".into(),
        ),
        (
            "CREATE TABLE",
            "CREATE TABLE Bookings (name TEXT, flight INT, seat TEXT)".into(),
        ),
    ];
    for f in 1..=flights {
        for s in 0..pairs {
            stmts.push((
                "INSERT",
                format!("INSERT INTO Available VALUES ({f}, 's{s:03}')"),
            ));
        }
    }
    for f in 1..=flights {
        for i in 0..pairs {
            stmts.push((
                "SELECT … CHOOSE 1",
                format!(
                    "SELECT @s FROM Available({f}, @s) CHOOSE 1 FOLLOWED BY \
                     (DELETE ({f}, @s) FROM Available; \
                      INSERT ('u{f}_{i}', {f}, @s) INTO Bookings)"
                ),
            ));
        }
    }
    for i in 0..reads {
        // PEEK and POSSIBLE leave the pending set alone (no collapse), so
        // the solve/world-enumeration phases keep firing all the way.
        stmts.push((
            "SELECT",
            if i % 2 == 0 {
                format!("SELECT PEEK * FROM Bookings('u1_{}', @f, @s)", i % pairs)
            } else {
                "SELECT POSSIBLE @s FROM Available(1, @s)".into()
            },
        ));
    }
    stmts.push(("SHOW PENDING", "SHOW PENDING".into()));
    stmts.push(("GROUND ALL", "GROUND ALL".into()));
    stmts.push(("SELECT", "SELECT * FROM Bookings(@n, @f, @s)".into()));
    let mut expected: BTreeMap<&'static str, u64> = BTreeMap::new();
    for (class, _) in &stmts {
        *expected.entry(class).or_insert(0) += 1;
    }

    let engine = "sharded";
    let shared = QuantumDb::new(QuantumDbConfig::default())
        .expect("engine")
        .into_shared();
    if let Some(path) = trace_out {
        let file = std::fs::File::create(path).expect("trace sink");
        shared
            .obs()
            .set_trace(Some(Box::new(std::io::BufWriter::new(file))));
    }
    let session = shared.session();
    for (_, sql) in &stmts {
        session.execute(sql).expect("statement");
    }
    let profile = shared.profile();
    // Drop the sink so the BufWriter flushes before we return.
    shared.obs().set_trace(None);

    let by_class: BTreeMap<&str, qdb_core::HistSummary> = profile
        .classes
        .iter()
        .map(|(name, s)| (name.as_str(), *s))
        .collect();
    for (class, want) in &expected {
        let s = by_class
            .get(*class)
            .unwrap_or_else(|| panic!("{engine}: no histogram for class {class}"));
        assert_eq!(
            s.count, *want,
            "{engine}: {class} histogram count vs driver counter"
        );
        assert!(s.p50_ns > 0, "{engine}: {class} p50 must be non-zero");
        assert!(s.p99_ns >= s.p50_ns, "{engine}: {class} p99 < p50");
    }
    for need in ["parse", "solve", "apply"] {
        let s = profile
            .phases
            .iter()
            .find(|(name, _)| name == need)
            .map(|(_, s)| *s)
            .unwrap_or_else(|| panic!("{engine}: phase {need} never recorded"));
        assert!(s.count > 0 && s.p50_ns > 0, "{engine}: phase {need} empty");
    }

    let us = |ns: u64| ns as f64 / 1000.0;
    let table: Vec<Vec<String>> = profile
        .classes
        .iter()
        .map(|(name, s)| {
            vec![
                name.clone(),
                s.count.to_string(),
                format!("{:.1}", us(s.p50_ns)),
                format!("{:.1}", us(s.p99_ns)),
                format!("{:.1}", us(s.p999_ns)),
                format!("{:.1}", us(s.max_ns)),
            ]
        })
        .collect();
    println!("-- {engine} engine --");
    println!(
        "{}",
        format_table(
            &["class", "count", "p50_us", "p99_us", "p999_us", "max_us"],
            &table
        )
    );

    let summarize = |name: &str, s: &qdb_core::HistSummary, expected: Option<u64>| {
        let mut fields = vec![
            ("name".to_string(), jstr(name.to_string())),
            ("count".to_string(), num(s.count as f64)),
        ];
        if let Some(e) = expected {
            fields.push(("expected".to_string(), num(e as f64)));
        }
        fields.extend([
            ("p50_us".to_string(), num(us(s.p50_ns))),
            ("p90_us".to_string(), num(us(s.p90_ns))),
            ("p99_us".to_string(), num(us(s.p99_ns))),
            ("p999_us".to_string(), num(us(s.p999_ns))),
            ("max_us".to_string(), num(us(s.max_ns))),
        ]);
        Json::obj(fields)
    };
    let engines = vec![Json::obj([
        ("engine", jstr(engine)),
        (
            "classes",
            Json::arr(
                profile
                    .classes
                    .iter()
                    .map(|(name, s)| summarize(name, s, expected.get(name.as_str()).copied())),
            ),
        ),
        (
            "phases",
            Json::arr(
                profile
                    .phases
                    .iter()
                    .map(|(name, s)| summarize(name, s, None)),
            ),
        ),
    ])];
    Json::obj([
        ("experiment", jstr("profile")),
        ("flights", num(flights as f64)),
        ("bookings", num((flights * pairs) as f64)),
        ("reads", num(reads as f64)),
        ("engines", Json::Arr(engines)),
    ])
}

/// The serving-layer acceptance run (see `qdb_bench::connscale`): park a
/// flood of idle connections on the epoll reactor, rerun the hot workload,
/// and report the latency penalty plus the per-idle-connection memory
/// bill. CI jq-gates `conns_refused == 0` and a non-degenerate `p999_us`
/// off this record.
fn connection_scale_report(scale: Scale) -> Json {
    use qdb_bench::{connection_scale, ConnScaleConfig};

    let cfg = match scale {
        Scale::Full => ConnScaleConfig::full(),
        Scale::Smoke => ConnScaleConfig::smoke(),
    };
    println!("== Connection scale: hot-path latency under an idle-connection flood ==");
    println!(
        "({} idle connections parked, {} hot threads x {} round trips,\n\
         baseline vs flooded; epoll reactor, {} executor workers)\n",
        cfg.idle_conns, cfg.hot_conns, cfg.requests_per_conn, cfg.workers
    );
    let outcome = connection_scale(&cfg);
    let us = |ns: u64| ns as f64 / 1000.0;
    let table: Vec<Vec<String>> = outcome
        .phases
        .iter()
        .map(|p| {
            vec![
                p.label.to_string(),
                p.idle_conns.to_string(),
                p.requests.to_string(),
                format!("{:.0}", p.throughput_rps),
                format!("{:.1}", us(p.latency.p50_ns)),
                format!("{:.1}", us(p.latency.p99_ns)),
                format!("{:.1}", us(p.latency.p999_ns)),
                format!("{:.1}", us(p.latency.max_ns)),
            ]
        })
        .collect();
    println!(
        "{}",
        format_table(
            &["phase", "idle", "requests", "req/s", "p50_us", "p99_us", "p999_us", "max_us"],
            &table
        )
    );
    println!(
        "held {} idle conns (peak {}, refused {}, reaped {}); \
         {:.0} bytes/idle conn; p99 scaled/baseline = {:.2}x\n",
        outcome.idle_held,
        outcome.conns_peak,
        outcome.conns_refused,
        outcome.conns_idle_closed,
        outcome.bytes_per_idle_conn,
        outcome.p99_ratio
    );
    Json::obj([
        ("experiment", jstr("connection_scale")),
        ("idle_conns", num(cfg.idle_conns as f64)),
        ("hot_conns", num(cfg.hot_conns as f64)),
        ("requests_per_conn", num(cfg.requests_per_conn as f64)),
        ("workers", num(cfg.workers as f64)),
        ("nofile_limit", num(outcome.nofile_limit as f64)),
        ("idle_held", num(outcome.idle_held as f64)),
        ("conns_peak", num(outcome.conns_peak as f64)),
        ("conns_refused", num(outcome.conns_refused as f64)),
        ("conns_idle_closed", num(outcome.conns_idle_closed as f64)),
        ("bytes_per_idle_conn", num(outcome.bytes_per_idle_conn)),
        ("p99_ratio", num(outcome.p99_ratio)),
        (
            "phases",
            Json::arr(outcome.phases.iter().map(|p| {
                Json::obj([
                    ("phase", jstr(p.label)),
                    ("idle_conns", num(p.idle_conns as f64)),
                    ("requests", num(p.requests as f64)),
                    ("throughput_rps", num(p.throughput_rps)),
                    ("p50_us", num(us(p.latency.p50_ns))),
                    ("p90_us", num(us(p.latency.p90_ns))),
                    ("p99_us", num(us(p.latency.p99_ns))),
                    ("p999_us", num(us(p.latency.p999_ns))),
                    ("max_us", num(us(p.latency.max_ns))),
                ])
            })),
        ),
    ])
}

/// The replication acceptance run. Two halves, one record:
///
/// - **performance** ([`qdb_bench::replication_scale`]): read throughput
///   vs replica count plus replication lag under the read-mostly shape,
///   against real primary/replica `qdb-server` processes over loopback;
/// - **correctness** ([`qdb_sim::run_replica_sweep`]): the replicated
///   sim topology — seeded workload, WAL shipping with arbitrary byte
///   cuts, primary kill, promotion — whose checker proves zero
///   acknowledged-durable-write loss and horizon-explainable replica
///   reads. CI jq-gates `failover.violations == 0`, non-zero
///   `replica_reads`, and `settled_lag_bytes == 0` off this record.
fn replication_report(scale: Scale) -> (Json, bool) {
    use qdb_bench::{replication_scale, ReplScaleConfig};
    use qdb_sim::{run_replica_sweep, ReplicaSimConfig};

    let (cfg, seeds) = match scale {
        Scale::Full => (ReplScaleConfig::full(), 50u64),
        Scale::Smoke => (ReplScaleConfig::smoke(), 5u64),
    };
    println!("== Replication: read scale-out, lag, and checked failover ==");
    println!(
        "(replica sweep {:?}, {} bookings + {} reads/reader per point, read-mostly mix;\n\
         plus {seeds} sim seeds of kill-at-arbitrary-WAL-cut + promotion)\n",
        cfg.replica_counts, cfg.bookings, cfg.reads_per_reader
    );
    let outcome = replication_scale(&cfg);
    let us = |ns: u64| ns as f64 / 1000.0;
    let table: Vec<Vec<String>> = outcome
        .points
        .iter()
        .map(|p| {
            vec![
                p.replicas.to_string(),
                p.readers.to_string(),
                p.reads.to_string(),
                format!("{:.0}", p.read_throughput_rps),
                format!("{:.1}", us(p.read_latency.p50_ns)),
                format!("{:.1}", us(p.read_latency.p99_ns)),
                p.bookings_committed.to_string(),
                p.max_lag_bytes.to_string(),
                p.settled_lag_bytes.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        format_table(
            &[
                "replicas",
                "readers",
                "reads",
                "reads/s",
                "p50_us",
                "p99_us",
                "bookings",
                "max_lag_B",
                "settled_B"
            ],
            &table
        )
    );

    let sweep = run_replica_sweep(&ReplicaSimConfig::smoke(), 1, seeds);
    println!(
        "failover sweep: {} runs, acked={} surviving={} async_window={} checked_reads={} \
         violations={}",
        sweep.runs,
        sweep.acked_writes,
        sweep.surviving_acked,
        sweep.lost_to_window,
        sweep.checked_reads,
        sweep.failures.len()
    );
    for (seed, v) in &sweep.failures {
        println!("VIOLATION seed={seed}: {v}");
    }
    println!();

    let failed = !sweep.failures.is_empty();
    let record = Json::obj([
        ("experiment", jstr("replication")),
        ("profile", jstr("read_mostly")),
        (
            "points",
            Json::arr(outcome.points.iter().map(|p| {
                Json::obj([
                    ("replicas", num(p.replicas as f64)),
                    ("readers", num(p.readers as f64)),
                    ("reads", num(p.reads as f64)),
                    ("replica_reads", num(p.replica_reads as f64)),
                    ("read_throughput_rps", num(p.read_throughput_rps)),
                    ("read_p50_us", num(us(p.read_latency.p50_ns))),
                    ("read_p90_us", num(us(p.read_latency.p90_ns))),
                    ("read_p99_us", num(us(p.read_latency.p99_ns))),
                    ("read_p999_us", num(us(p.read_latency.p999_ns))),
                    ("bookings_committed", num(p.bookings_committed as f64)),
                    ("max_lag_bytes", num(p.max_lag_bytes as f64)),
                    ("settled_lag_bytes", num(p.settled_lag_bytes as f64)),
                    ("catch_up_ms", num(p.catch_up_ms as f64)),
                ])
            })),
        ),
        (
            "failover",
            Json::obj([
                ("seeds", num(seeds as f64)),
                ("runs", num(sweep.runs as f64)),
                ("total_ops", num(sweep.total_ops as f64)),
                ("acked_writes", num(sweep.acked_writes as f64)),
                ("surviving_acked", num(sweep.surviving_acked as f64)),
                ("lost_to_window", num(sweep.lost_to_window as f64)),
                ("replica_reads", num(sweep.replica_reads as f64)),
                ("checked_reads", num(sweep.checked_reads as f64)),
                ("max_lag_bytes", num(sweep.max_lag_bytes as f64)),
                ("violations", num(sweep.failures.len() as f64)),
                (
                    "failures",
                    Json::arr(sweep.failures.iter().map(|(seed, v)| {
                        Json::obj([("seed", num(*seed as f64)), ("violation", jstr(v.clone()))])
                    })),
                ),
            ]),
        ),
    ]);
    (record, failed)
}

fn sim_report(scale: Scale) -> (Json, bool) {
    use qdb_sim::{run_seed, run_sweep, EngineKind, Mutation, SimConfig};
    use std::path::Path;
    // The wire engine pays a loopback-TCP round trip per statement, so
    // the PR-path smoke runs it at a reduced seed count; the nightly
    // full scale runs both engines over the whole seed range.
    let (seeds, wire_seeds, cfg) = match scale {
        Scale::Full => {
            let mut cfg = SimConfig::smoke(EngineKind::Sharded);
            cfg.ops_per_client = 500;
            (1000u64, 1000u64, cfg)
        }
        Scale::Smoke => (50u64, 12u64, SimConfig::smoke(EngineKind::Sharded)),
    };
    println!("== Simulation: deterministic full-system check (crash injection on) ==");
    println!(
        "({seeds} seeds x sharded, {wire_seeds} seeds x wire, {} clients x {} ops each;\n\
         black-box serializability + PEEK/POSSIBLE explainability + accounting identity;\n\
         failing traces delta-debugged before artifacts are written)\n",
        cfg.clients, cfg.ops_per_client
    );
    let started = std::time::Instant::now();
    let dir = Path::new("target/sim");
    let mut outcome = run_sweep(&cfg, 1, seeds, &[EngineKind::Sharded], Some(dir), true);
    let wire = run_sweep(&cfg, 1, wire_seeds, &[EngineKind::Wire], Some(dir), true);
    outcome.runs += wire.runs;
    outcome.total_ops += wire.total_ops;
    outcome.commits += wire.commits;
    outcome.aborts += wire.aborts;
    outcome.crashes += wire.crashes;
    outcome.stats.add(&wire.stats);
    outcome.failures.extend(wire.failures);
    // Meta-check: every registered fault-injection mutation must still
    // make the checker fire — a silently-dead mutation is a coverage
    // regression even when all clean sweeps pass.
    let mut dead_mutations: Vec<&str> = Vec::new();
    for m in Mutation::all() {
        let mcfg = SimConfig {
            mutation: Some(m),
            ..cfg.clone()
        };
        let fired = (1..=20u64).any(|seed| run_seed(seed, &mcfg).violation.is_some());
        if !fired {
            println!("DEAD MUTATION: {} never fired in 20 seeds", m.name());
            dead_mutations.push(m.name());
        }
    }
    let elapsed = started.elapsed().as_secs_f64();
    let ops_per_sec = if elapsed > 0.0 {
        outcome.total_ops as f64 / elapsed
    } else {
        0.0
    };
    let table = vec![vec![
        outcome.runs.to_string(),
        outcome.total_ops.to_string(),
        format!("{ops_per_sec:.0}"),
        outcome.commits.to_string(),
        outcome.crashes.to_string(),
        outcome.stats.ser_checks.to_string(),
        outcome.stats.explain_checked.to_string(),
        outcome.violations().to_string(),
    ]];
    println!(
        "{}",
        format_table(
            &[
                "runs",
                "ops",
                "ops/s",
                "commits",
                "crashes",
                "ser_checks",
                "explained",
                "violations"
            ],
            &table
        )
    );
    for (seed, engine, v, path) in &outcome.failures {
        println!(
            "VIOLATION seed={seed} engine={engine} kind={} at op {}{}",
            v.kind,
            v.op_index,
            match path {
                Some(p) => format!(" -> {}", p.display()),
                None => String::new(),
            }
        );
    }
    let failures: Vec<Json> = outcome
        .failures
        .iter()
        .map(|(seed, engine, v, path)| {
            Json::obj([
                ("seed", num(*seed as f64)),
                ("engine", jstr(*engine)),
                ("kind", jstr(v.kind.clone())),
                ("op_index", num(v.op_index as f64)),
                (
                    "artifact",
                    match path {
                        Some(p) => jstr(p.display().to_string()),
                        None => Json::Null,
                    },
                ),
            ])
        })
        .collect();
    let failed = !outcome.failures.is_empty() || !dead_mutations.is_empty();
    let record = Json::obj([
        ("experiment", jstr("sim")),
        ("seeds", num(seeds as f64)),
        ("wire_seeds", num(wire_seeds as f64)),
        ("shrink", Json::Bool(true)),
        ("mutations_armed", Json::Bool(dead_mutations.is_empty())),
        (
            "dead_mutations",
            Json::arr(dead_mutations.iter().map(|n| jstr(*n))),
        ),
        ("runs", num(outcome.runs as f64)),
        ("total_ops", num(outcome.total_ops as f64)),
        ("ops_per_sec", num(ops_per_sec)),
        ("commits", num(outcome.commits as f64)),
        ("aborts", num(outcome.aborts as f64)),
        ("crashes", num(outcome.crashes as f64)),
        ("ser_checks", num(outcome.stats.ser_checks as f64)),
        ("explain_checked", num(outcome.stats.explain_checked as f64)),
        (
            "invariant_checks",
            num(outcome.stats.invariant_checks as f64),
        ),
        ("violations", num(outcome.violations() as f64)),
        ("failures", Json::Arr(failures)),
    ]);
    (record, failed)
}

fn admission_depth_report(scale: Scale) -> Json {
    let (depths, flights, seats): (Vec<usize>, usize, usize) = match scale {
        Scale::Full => (vec![8, 32, 128], 8, 160),
        Scale::Smoke => (vec![4, 8], 4, 16),
    };
    println!("== Admission depth: solver hot-path latency vs pending-queue depth ==");
    println!(
        "(one partition filled to depth D; cached-extend vs full-resolve ablation;\n\
         {flights} flights x {seats} seats)\n"
    );
    let rows = admission_depth(&depths, flights, seats);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.mode.clone(),
                r.depth.to_string(),
                format!("{:.1}", r.p50_us),
                format!("{:.1}", r.p99_us),
                format!("{:.1}", r.p999_us),
                format!("{:.1}", r.mean_latency_us),
                format!("{:.0}", r.nodes_per_sec),
                r.candidates_streamed.to_string(),
                format!("{}/{}", r.index_lookups, r.scan_lookups),
                format!("{}/{}", r.cache_extensions, r.cache_full_resolves),
                r.indexes_auto_created.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        format_table(
            &[
                "mode", "depth", "p50_us", "p99_us", "p999_us", "mean_us", "nodes/s", "streamed",
                "ix/scan", "ext/full", "auto-ix"
            ],
            &table
        )
    );
    for r in &rows {
        assert_eq!(
            r.candidate_vecs, 0,
            "fast path must not materialize candidate vectors"
        );
    }
    // The recording-overhead A/B at the deepest point of the sweep — the
    // observability layer's ≤5% acceptance gate.
    let ab_depth = depths.iter().copied().max().unwrap_or(8);
    let ab = obs_overhead(ab_depth, flights, seats);
    println!(
        "obs recording overhead at depth {}: enabled {:.1}us vs disabled {:.1}us \
         ({:+.1}%)\n",
        ab.depth, ab.enabled_mean_us, ab.disabled_mean_us, ab.overhead_percent
    );
    Json::obj([
        ("experiment", jstr("admission_depth")),
        (
            "obs_overhead",
            Json::obj([
                ("depth", num(ab.depth as f64)),
                ("enabled_mean_us", num(ab.enabled_mean_us)),
                ("disabled_mean_us", num(ab.disabled_mean_us)),
                ("overhead_percent", num(ab.overhead_percent)),
            ]),
        ),
        (
            "points",
            Json::arr(rows.iter().map(|r| {
                Json::obj([
                    ("mode", jstr(r.mode.clone())),
                    ("depth", num(r.depth as f64)),
                    ("p50_us", num(r.p50_us)),
                    ("p99_us", num(r.p99_us)),
                    ("p999_us", num(r.p999_us)),
                    ("max_us", num(r.max_us)),
                    ("mean_latency_us", num(r.mean_latency_us)),
                    ("total_seconds", num(r.total_seconds)),
                    ("solver_nodes", num(r.solver_nodes as f64)),
                    ("nodes_per_sec", num(r.nodes_per_sec)),
                    ("candidates_streamed", num(r.candidates_streamed as f64)),
                    ("candidate_vecs", num(r.candidate_vecs as f64)),
                    ("index_lookups", num(r.index_lookups as f64)),
                    ("scan_lookups", num(r.scan_lookups as f64)),
                    ("cache_extensions", num(r.cache_extensions as f64)),
                    ("cache_full_resolves", num(r.cache_full_resolves as f64)),
                    ("indexes_auto_created", num(r.indexes_auto_created as f64)),
                ])
            })),
        ),
    ])
}

fn read_path_report(scale: Scale) -> Json {
    let (sizes, depths, reads): (Vec<usize>, Vec<usize>, usize) = match scale {
        Scale::Full => (vec![1_000, 10_000], vec![0, 8, 32], 200),
        Scale::Smoke => (vec![200, 1_000], vec![0, 4, 8], 40),
    };
    println!("== Read path: delta-view PEEK/POSSIBLE vs the clone-based reference ==");
    println!(
        "(base size x pending depth; per-read latency; db_clones is the engine's\n\
         database clone counter during the view phase and must be 0)\n"
    );
    let rows = read_path(&sizes, &depths, reads);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.mode.clone(),
                r.db_rows.to_string(),
                r.depth.to_string(),
                format!("{:.1}", r.view_latency_us),
                format!("{:.1}", r.clone_latency_us),
                format!("{:.1}x", r.speedup),
                format!("{}/{}", r.worlds_enumerated, r.world_dedup_hits),
                r.db_clones.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        format_table(
            &[
                "mode",
                "db_rows",
                "depth",
                "view_us",
                "clone_us",
                "speedup",
                "worlds/dedup",
                "db_clones"
            ],
            &table
        )
    );
    for r in &rows {
        assert_eq!(
            r.db_clones, 0,
            "the view read path must not clone the database"
        );
    }
    Json::obj([
        ("experiment", jstr("read_path")),
        (
            "points",
            Json::arr(rows.iter().map(|r| {
                Json::obj([
                    ("mode", jstr(r.mode.clone())),
                    ("db_rows", num(r.db_rows as f64)),
                    ("depth", num(r.depth as f64)),
                    ("reads", num(r.reads as f64)),
                    ("view_latency_us", num(r.view_latency_us)),
                    ("view_p50_us", num(r.view_p50_us)),
                    ("view_p99_us", num(r.view_p99_us)),
                    ("view_p999_us", num(r.view_p999_us)),
                    ("clone_latency_us", num(r.clone_latency_us)),
                    ("speedup", num(r.speedup)),
                    ("worlds_enumerated", num(r.worlds_enumerated as f64)),
                    ("world_dedup_hits", num(r.world_dedup_hits as f64)),
                    ("db_clones", num(r.db_clones as f64)),
                ])
            })),
        ),
    ])
}

fn partition_scaling_report(scale: Scale, seed: u64) -> Json {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let (flights_per_worker, rows, pairs, sweep): (usize, usize, usize, Vec<usize>) = match scale {
        Scale::Full => (4, 8, 6, vec![1, 2, 4]),
        Scale::Smoke => (1, 4, 3, vec![1, 2]),
    };
    println!("== Partition scaling: disjoint workload vs server workers ==");
    println!(
        "(sharded engine vs coarse-lock ablation; {cores} CPU core(s) visible —\n\
         wall-clock speedup is capped by the core count)\n"
    );
    let rows_out = partition_scaling(flights_per_worker, rows, pairs, &sweep, seed);
    let table: Vec<Vec<String>> = rows_out
        .iter()
        .map(|r| {
            vec![
                r.label.clone(),
                r.workers.to_string(),
                r.ops.to_string(),
                format!("{:.4}", r.seconds),
                format!("{:.0}", r.throughput),
                r.solve_peak.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        format_table(
            &[
                "engine",
                "workers",
                "ops",
                "seconds",
                "bookings/s",
                "solve-peak"
            ],
            &table
        )
    );
    let tp = |label: &str, workers: usize| {
        rows_out
            .iter()
            .find(|r| r.label == label && r.workers == workers)
            .map(|r| r.throughput)
            .unwrap_or(0.0)
    };
    let max_w = sweep.iter().copied().max().unwrap_or(1);
    let sharded_speedup = tp("sharded", max_w) / tp("sharded", 1).max(f64::EPSILON);
    let vs_coarse = tp("sharded", max_w) / tp("coarse-lock", max_w).max(f64::EPSILON);
    println!(
        "sharded {max_w}w vs sharded 1w: {sharded_speedup:.2}x; \
         sharded vs coarse-lock at {max_w}w: {vs_coarse:.2}x\n"
    );
    Json::obj([
        ("experiment", jstr("partition_scaling")),
        ("cpu_cores", num(cores as f64)),
        ("contention", jstr("disjoint-flights")),
        (
            "points",
            Json::arr(rows_out.iter().map(|r| {
                Json::obj([
                    ("engine", jstr(r.label.clone())),
                    ("workers", num(r.workers as f64)),
                    ("ops", num(r.ops as f64)),
                    ("seconds", num(r.seconds)),
                    ("throughput_tps", num(r.throughput)),
                    ("solver_concurrency_peak", num(r.solve_peak as f64)),
                    ("booking_p50_us", num(r.booking_p50_us)),
                    ("booking_p99_us", num(r.booking_p99_us)),
                    ("booking_p999_us", num(r.booking_p999_us)),
                ])
            })),
        ),
        ("speedup_sharded_maxw_vs_1w", num(sharded_speedup)),
        ("speedup_sharded_vs_coarse_at_maxw", num(vs_coarse)),
    ])
}

fn phase() -> Json {
    println!("== §6 extra: satisfiability phase transition ==");
    println!("(adjacent-pair bookings on a 4-row flight; the boundary unsat");
    println!(" proof is where solver effort spikes)\n");
    let rows = phase_transition(4, 6);
    let table: Vec<Vec<String>> = rows
        .iter()
        .enumerate()
        .map(|(i, r)| {
            vec![
                (i + 1).to_string(),
                format!("{:.2}", r.ratio),
                r.nodes.to_string(),
                if r.committed { "commit" } else { "ABORT" }.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        format_table(
            &["attempt", "fill ratio", "solver nodes", "outcome"],
            &table
        )
    );
    Json::obj([
        ("experiment", jstr("phase")),
        (
            "points",
            Json::arr(rows.iter().map(|r| {
                Json::obj([
                    ("ratio", num(r.ratio)),
                    ("solver_nodes", num(r.nodes as f64)),
                    ("committed", Json::Bool(r.committed)),
                ])
            })),
        ),
    ])
}

fn table1(seed: u64) -> Json {
    println!("== Table 1: arrival orders and maximum pending transactions ==");
    println!("(paper: Alternate 1; Random/In Order/Reverse Order ceil(N/2))\n");
    let rows = table1_max_pending(51, seed);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|(label, bound, measured)| {
            vec![label.clone(), bound.to_string(), measured.to_string()]
        })
        .collect();
    println!(
        "{}",
        format_table(&["Order of Arrival", "Paper bound", "Measured"], &table)
    );
    Json::obj([
        ("experiment", jstr("table1")),
        (
            "orders",
            Json::arr(rows.iter().map(|(label, bound, measured)| {
                Json::obj([
                    ("order", jstr(label.clone())),
                    ("paper_bound", num(*bound as f64)),
                    ("measured_max_pending", num(*measured as f64)),
                ])
            })),
        ),
    ])
}

fn fig5_fig6(scale: Scale, seed: u64) -> Json {
    let (flights, pairs, k) = match scale {
        // §5.3: 1 flight, 34 rows (102 seats), 102 transactions, k = 61.
        Scale::Full => (FlightsConfig::order_of_arrival(), 51, 61),
        Scale::Smoke => (
            FlightsConfig {
                flights: 1,
                rows_per_flight: 6,
            },
            9,
            61,
        ),
    };
    println!("== Figure 5: cumulative execution time by arrival order ==");
    println!(
        "(1 flight x {} seats, {} transactions, k={k})\n",
        flights.seats_per_flight(),
        pairs * 2
    );
    let rows = fig5_fig6_order_of_arrival(flights, pairs, k, seed);
    for row in &rows {
        let pts: Vec<Vec<f64>> = downsample(&row.cumulative_micros, 17)
            .into_iter()
            .map(|(i, us)| vec![i as f64, us as f64 / 1000.0])
            .collect();
        println!(
            "{}",
            format_series(
                &format!("Fig5 series: {}", row.label),
                &["txn", "cumulative_ms"],
                &pts
            )
        );
    }
    println!("== Figure 6: percentage of coordination by arrival order ==\n");
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.label.clone(),
                format!("{:.1}", r.coordination_percent),
                r.max_pending.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        format_table(&["Series", "Coordination %", "Max pending"], &table)
    );
    Json::obj([
        ("experiment", jstr("fig5_fig6")),
        (
            "series",
            Json::arr(rows.iter().map(|r| {
                let ops = r.cumulative_micros.len();
                let total_us = r.cumulative_micros.last().copied().unwrap_or(0);
                let total_s = total_us as f64 / 1e6;
                Json::obj([
                    ("label", jstr(r.label.clone())),
                    ("transactions", num(ops as f64)),
                    ("total_seconds", num(total_s)),
                    (
                        "throughput_tps",
                        num(if total_s > 0.0 {
                            ops as f64 / total_s
                        } else {
                            0.0
                        }),
                    ),
                    (
                        "mean_latency_us",
                        num(if ops > 0 {
                            total_us as f64 / ops as f64
                        } else {
                            0.0
                        }),
                    ),
                    ("coordination_percent", num(r.coordination_percent)),
                    ("max_pending", num(r.max_pending as f64)),
                ])
            })),
        ),
    ])
}

fn fig7_table2(scale: Scale, seed: u64) -> Json {
    let (flight_counts, rows_per_flight, ks): (Vec<usize>, usize, Vec<usize>) = match scale {
        // §5.3: 10→100 flights of 150 seats, k in {20, 30, 40}.
        Scale::Full => ((1..=10).map(|i| i * 10).collect(), 50, vec![20, 30, 40]),
        Scale::Smoke => (vec![1, 2, 4], 10, vec![4, 10, 20]),
    };
    println!("== Figure 7: scalability (total time vs number of transactions) ==\n");
    let rows = fig7_table2_scalability(&flight_counts, rows_per_flight, &ks, seed);
    let mut labels: Vec<String> = ks.iter().map(|k| format!("k={k}")).collect();
    labels.push("IS".to_string());
    for label in &labels {
        let pts: Vec<Vec<f64>> = rows
            .iter()
            .filter(|r| &r.label == label)
            .map(|r| vec![r.transactions as f64, r.seconds])
            .collect();
        println!(
            "{}",
            format_series(
                &format!("Fig7 series: {label}"),
                &["transactions", "seconds"],
                &pts
            )
        );
    }
    println!("== Table 2: average percentage of successful coordinations ==");
    println!("(paper: k=20: 45.6, k=30: 86.9, k=40: 99.9, IS: 20.2)\n");
    let table: Vec<Vec<String>> = labels
        .iter()
        .map(|label| {
            let pts: Vec<f64> = rows
                .iter()
                .filter(|r| &r.label == label)
                .map(|r| r.coordination_percent)
                .collect();
            let avg = pts.iter().sum::<f64>() / pts.len().max(1) as f64;
            vec![label.clone(), format!("{avg:.1}")]
        })
        .collect();
    println!(
        "{}",
        format_table(&["System", "Avg coordination %"], &table)
    );
    Json::obj([
        ("experiment", jstr("fig7_table2")),
        (
            "points",
            Json::arr(rows.iter().map(|r| {
                Json::obj([
                    ("label", jstr(r.label.clone())),
                    ("flights", num(r.flights as f64)),
                    ("transactions", num(r.transactions as f64)),
                    ("total_seconds", num(r.seconds)),
                    (
                        "throughput_tps",
                        num(if r.seconds > 0.0 {
                            r.transactions as f64 / r.seconds
                        } else {
                            0.0
                        }),
                    ),
                    ("coordination_percent", num(r.coordination_percent)),
                ])
            })),
        ),
    ])
}

fn fig8_fig9(scale: Scale, seed: u64) -> Json {
    let (flights, total_ops, read_pcts, ks): (FlightsConfig, usize, Vec<usize>, Vec<usize>) =
        match scale {
            // §5.3: 6000 ops over 40 flights x 150 seats, reads 0..90%.
            Scale::Full => (
                FlightsConfig::mixed_workload(),
                6000,
                (0..=9).map(|i| i * 10).collect(),
                vec![20, 30, 40],
            ),
            // 8 rows = 24 seats per flight: the 0%-reads point books 12
            // pairs per flight, which must fit (24 users ≤ 24 seats).
            Scale::Smoke => (
                FlightsConfig {
                    flights: 2,
                    rows_per_flight: 8,
                },
                48,
                vec![0, 30, 60, 90],
                vec![4, 10],
            ),
        };
    println!("== Figures 8 & 9: mixed workload ==");
    println!(
        "({} ops over {} flights x {} seats)\n",
        total_ops,
        flights.flights,
        flights.seats_per_flight()
    );
    let rows = fig8_fig9_mixed(flights, total_ops, &read_pcts, &ks, seed);
    for k in &ks {
        let label = format!("k={k}");
        let pts: Vec<Vec<f64>> = rows
            .iter()
            .filter(|r| r.label == label)
            .map(|r| {
                vec![
                    r.read_percent as f64,
                    r.update_seconds,
                    r.read_seconds,
                    r.coordination_percent,
                ]
            })
            .collect();
        println!(
            "{}",
            format_series(
                &format!("Fig8/Fig9 series: {label}"),
                &["read_pct", "update_s", "read_s", "coordination_pct"],
                &pts
            )
        );
    }
    Json::obj([
        ("experiment", jstr("fig8_fig9")),
        ("total_ops", num(total_ops as f64)),
        (
            "points",
            Json::arr(rows.iter().map(|r| {
                Json::obj([
                    ("label", jstr(r.label.clone())),
                    ("read_percent", num(r.read_percent as f64)),
                    ("read_seconds", num(r.read_seconds)),
                    ("update_seconds", num(r.update_seconds)),
                    ("coordination_percent", num(r.coordination_percent)),
                ])
            })),
        ),
    ])
}
