//! Regenerate every table and figure of the paper's evaluation (§5–§6)
//! and run the correctness experiments CI gates on.
//!
//! ```text
//! reproduce [table1|fig5|fig6|fig7|table2|fig8|fig9|phase|sim|
//!            connection_scale|replication|all]...
//!           [--scale full|smoke] [--json]
//! ```
//!
//! Several experiment names may be given; they run in the canonical order.
//! `full` runs the paper's parameters (slow: Fig. 7 alone executes up to
//! 15 000 transactions per k); `smoke` is a quick shape-check. Output is
//! plain text: tables match the paper's tables, figures are printed as
//! tab-separated series. With `--json`, the same measurements are
//! additionally written to `BENCH_results.json` — stamped with the git
//! commit and a UTC timestamp — which is what CI's jq gates read.
//! Performance questions belong to `benchmark/` (see its README), not
//! here.

use qdb_bench::experiments::*;
use qdb_bench::report::{downsample, format_series, format_table};
use qdb_sim::json::Json;
use qdb_workload::FlightsConfig;

/// Shorthand: a JSON number.
fn num(n: impl Into<f64>) -> Json {
    Json::F64(n.into())
}

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
            other => which.push(other.to_string()),
        }
        i += 1;
    }
    if which.is_empty() {
        which.push("all".to_string());
    }
    const KNOWN: [&str; 12] = [
        "all",
        "table1",
        "fig5",
        "fig6",
        "fig7",
        "table2",
        "fig8",
        "fig9",
        "phase",
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
            ("suite", Json::str("quantum-db reproduce")),
            ("git_commit", Json::str(qdb_bench::git_commit())),
            ("generated_at", Json::str(qdb_bench::iso8601_now())),
            ("scale", Json::str(scale.label())),
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
        ("experiment", Json::str("connection_scale")),
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
                    ("phase", Json::str(p.label)),
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
        ("experiment", Json::str("replication")),
        ("profile", Json::str("read_mostly")),
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
                        Json::obj([
                            ("seed", num(*seed as f64)),
                            ("violation", Json::str(v.clone())),
                        ])
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
                ("engine", Json::str(*engine)),
                ("kind", Json::str(v.kind.clone())),
                ("op_index", num(v.op_index as f64)),
                (
                    "artifact",
                    match path {
                        Some(p) => Json::str(p.display().to_string()),
                        None => Json::Null,
                    },
                ),
            ])
        })
        .collect();
    let failed = !outcome.failures.is_empty() || !dead_mutations.is_empty();
    let record = Json::obj([
        ("experiment", Json::str("sim")),
        ("seeds", num(seeds as f64)),
        ("wire_seeds", num(wire_seeds as f64)),
        ("shrink", Json::Bool(true)),
        ("mutations_armed", Json::Bool(dead_mutations.is_empty())),
        (
            "dead_mutations",
            Json::arr(dead_mutations.iter().map(|n| Json::str(*n))),
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
        ("experiment", Json::str("phase")),
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
        ("experiment", Json::str("table1")),
        (
            "orders",
            Json::arr(rows.iter().map(|(label, bound, measured)| {
                Json::obj([
                    ("order", Json::str(label.clone())),
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
        ("experiment", Json::str("fig5_fig6")),
        (
            "series",
            Json::arr(rows.iter().map(|r| {
                let ops = r.cumulative_micros.len();
                let total_us = r.cumulative_micros.last().copied().unwrap_or(0);
                let total_s = total_us as f64 / 1e6;
                Json::obj([
                    ("label", Json::str(r.label.clone())),
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
        ("experiment", Json::str("fig7_table2")),
        (
            "points",
            Json::arr(rows.iter().map(|r| {
                Json::obj([
                    ("label", Json::str(r.label.clone())),
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
        ("experiment", Json::str("fig8_fig9")),
        ("total_ops", num(total_ops as f64)),
        (
            "points",
            Json::arr(rows.iter().map(|r| {
                Json::obj([
                    ("label", Json::str(r.label.clone())),
                    ("read_percent", num(r.read_percent as f64)),
                    ("read_seconds", num(r.read_seconds)),
                    ("update_seconds", num(r.update_seconds)),
                    ("coordination_percent", num(r.coordination_percent)),
                ])
            })),
        ),
    ])
}
