//! Regenerate every table and figure of the paper's evaluation (§5–§6).
//!
//! ```text
//! reproduce [table1|fig5|fig6|fig7|table2|fig8|fig9|phase|all]...
//!           [--scale full|smoke] [--json]
//! ```
//!
//! Several experiment names may be given; they run in the canonical order.
//! An unknown argument or a `--scale` other than `full` or `smoke` prints
//! the usage text and exits 2.
//! `full` runs the paper's parameters (slow: Fig. 7 alone executes up to
//! 15 000 transactions per k); `smoke` is a quick shape-check. Output is
//! plain text: tables match the paper's tables, figures are printed as
//! tab-separated series. With `--json`, the same results are additionally
//! written to `BENCH_results.json`, stamped with the git commit and a UTC
//! timestamp. The simulator's checked sweeps are the `sim` binary's
//! (`sim run`, `sim repl`); performance questions belong to `benchmark/`
//! (see its README). Neither is run here.

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

const USAGE: &str =
    "usage: reproduce [table1|fig5|fig6|fig7|table2|fig8|fig9|phase|all]... [--scale full|smoke] [--json]";

/// Print `problem` and the usage text, and exit 2.
fn refuse(problem: &str) -> ! {
    eprintln!("reproduce: {problem}\n{USAGE}");
    std::process::exit(2)
}

fn main() {
    const KNOWN: [&str; 9] = [
        "all", "table1", "fig5", "fig6", "fig7", "table2", "fig8", "fig9", "phase",
    ];
    let mut args = std::env::args().skip(1);
    let mut which: Vec<String> = Vec::new();
    let mut scale = None;
    let mut json = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" if scale.is_some() => refuse("--scale given twice"),
            "--scale" => {
                scale = Some(match args.next().as_deref() {
                    Some("full") => Scale::Full,
                    Some("smoke") => Scale::Smoke,
                    Some(other) => refuse(&format!("--scale takes full or smoke, not {other:?}")),
                    None => refuse("--scale needs a value"),
                });
            }
            "--json" => json = true,
            w if KNOWN.contains(&w) => which.push(arg),
            other => refuse(&format!("unknown argument {other:?}")),
        }
    }
    let scale = scale.unwrap_or(Scale::Full);
    if which.is_empty() {
        which.push("all".to_string());
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
