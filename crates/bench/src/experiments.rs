//! The §5 experiments, parameterized so the `reproduce` binary can run
//! them at paper scale and the tests at smoke scale.

use qdb_workload::{run_is, run_quantum, ArrivalOrder, FlightsConfig, RunConfig, RunResult};

/// The four arrival orders of Table 1, with the paper's Random seed.
pub fn paper_orders(seed: u64) -> Vec<ArrivalOrder> {
    vec![
        ArrivalOrder::Alternate,
        ArrivalOrder::Random { seed },
        ArrivalOrder::InOrder,
        ArrivalOrder::ReverseOrder,
    ]
}

/// Table 1: analytic bound vs measured maximum pending transactions.
pub fn table1_max_pending(n_pairs: usize, seed: u64) -> Vec<(String, usize, usize)> {
    let cfg = FlightsConfig {
        flights: 1,
        rows_per_flight: n_pairs, // capacity is irrelevant here
    };
    let pairs = qdb_workload::make_pairs(&cfg, n_pairs);
    paper_orders(seed)
        .into_iter()
        .map(|order| {
            let reqs = qdb_workload::arrange(&pairs, order);
            let bound = order.max_pending_bound(reqs.len());
            let measured = qdb_workload::orders::measured_max_pending(&reqs);
            (order.label().to_string(), bound, measured)
        })
        .collect()
}

/// One series of Figure 5 / one bar of Figure 6.
#[derive(Debug, Clone)]
pub struct Fig5Row {
    /// Legend label.
    pub label: String,
    /// Cumulative time after each transaction, in microseconds.
    pub cumulative_micros: Vec<u64>,
    /// Coordination percentage achieved (Figure 6).
    pub coordination_percent: f64,
    /// Engine-observed maximum pending transactions.
    pub max_pending: u64,
}

/// Figures 5 & 6: cumulative execution time and coordination percentage
/// for the four arrival orders plus the IS baseline on Random order.
///
/// Paper scale: 1 flight × 34 rows (102 seats), 102 transactions
/// (51 pairs), k = 61.
pub fn fig5_fig6_order_of_arrival(
    flights: FlightsConfig,
    pairs_per_flight: usize,
    k: usize,
    seed: u64,
) -> Vec<Fig5Row> {
    let mut rows = Vec::new();
    for order in paper_orders(seed) {
        let cfg = RunConfig::resource_only(flights, pairs_per_flight, order, k);
        let res = run_quantum(&cfg);
        rows.push(Fig5Row {
            label: order.label().to_string(),
            cumulative_micros: res.cumulative_micros.clone(),
            coordination_percent: res.coordination_percent(),
            max_pending: res.max_pending,
        });
    }
    // IS on Random order ("the performance of the system on the
    // intelligent social workload does not depend on arrival order").
    let cfg = RunConfig::resource_only(flights, pairs_per_flight, ArrivalOrder::Random { seed }, k);
    let res = run_is(&cfg);
    rows.push(Fig5Row {
        label: "Random IS".to_string(),
        cumulative_micros: res.cumulative_micros.clone(),
        coordination_percent: res.coordination_percent(),
        max_pending: 0,
    });
    rows
}

/// One point of Figure 7 / Table 2.
#[derive(Debug, Clone)]
pub struct ScalabilityRow {
    /// Legend label ("k=40", "IS").
    pub label: String,
    /// Number of flights.
    pub flights: usize,
    /// Number of transactions executed.
    pub transactions: usize,
    /// Total wall-clock seconds.
    pub seconds: f64,
    /// Coordination percentage.
    pub coordination_percent: f64,
}

/// Figure 7 & Table 2: total time and coordination as the number of
/// flights grows, for k ∈ `ks` and the IS baseline.
///
/// Paper scale: flights 10→100 step 10, each 50 rows (150 seats), as many
/// transactions as seats (75 pairs per flight), Random order.
pub fn fig7_table2_scalability(
    flight_counts: &[usize],
    rows_per_flight: usize,
    ks: &[usize],
    seed: u64,
) -> Vec<ScalabilityRow> {
    let pairs_per_flight = rows_per_flight * 3 / 2; // fill every seat
    let mut out = Vec::new();
    for &n in flight_counts {
        let flights = FlightsConfig {
            flights: n,
            rows_per_flight,
        };
        for &k in ks {
            let cfg = RunConfig::resource_only(
                flights,
                pairs_per_flight,
                ArrivalOrder::Random { seed },
                k,
            );
            let res = run_quantum(&cfg);
            out.push(ScalabilityRow {
                label: format!("k={k}"),
                flights: n,
                transactions: cfg.n_transactions(),
                seconds: res.total.as_secs_f64(),
                coordination_percent: res.coordination_percent(),
            });
        }
        let cfg =
            RunConfig::resource_only(flights, pairs_per_flight, ArrivalOrder::Random { seed }, 61);
        let res = run_is(&cfg);
        out.push(ScalabilityRow {
            label: "IS".to_string(),
            flights: n,
            transactions: cfg.n_transactions(),
            seconds: res.total.as_secs_f64(),
            coordination_percent: res.coordination_percent(),
        });
    }
    out
}

/// One point of Figures 8 & 9.
#[derive(Debug, Clone)]
pub struct MixedRow {
    /// Legend label ("k=40").
    pub label: String,
    /// Read percentage of the workload.
    pub read_percent: usize,
    /// Seconds spent on reads (Fig. 8 "Reads").
    pub read_seconds: f64,
    /// Seconds spent on resource transactions (Fig. 8 "Updates").
    pub update_seconds: f64,
    /// Coordination percentage (Fig. 9).
    pub coordination_percent: f64,
}

/// Figures 8 & 9: the mixed workload. `total_ops` operations; read share
/// sweeps `read_percents`; remaining ops are entangled bookings spread
/// over the flights.
///
/// Paper scale: 6000 ops, 40 flights × 50 rows, reads 0%→90% step 10,
/// k ∈ {20, 30, 40}.
pub fn fig8_fig9_mixed(
    flights: FlightsConfig,
    total_ops: usize,
    read_percents: &[usize],
    ks: &[usize],
    seed: u64,
) -> Vec<MixedRow> {
    let mut out = Vec::new();
    for &pct in read_percents {
        let n_reads = total_ops * pct / 100;
        let n_books = total_ops - n_reads;
        // Pairs are spread evenly; round down to whole pairs per flight.
        let pairs_per_flight = (n_books / 2) / flights.flights;
        for &k in ks {
            let cfg = RunConfig {
                flights,
                pairs_per_flight,
                order: ArrivalOrder::Random { seed },
                n_reads,
                seed,
                engine: qdb_core::QuantumDbConfig::with_k(k),
            };
            let res: RunResult = run_quantum(&cfg);
            out.push(MixedRow {
                label: format!("k={k}"),
                read_percent: pct,
                read_seconds: res.read_time.as_secs_f64(),
                update_seconds: res.update_time.as_secs_f64(),
                coordination_percent: res.coordination_percent(),
            });
        }
    }
    out
}

/// One point of the §6 phase-transition illustration.
#[derive(Debug, Clone)]
pub struct PhaseRow {
    /// How many pair-bookings have been admitted so far.
    pub admitted: usize,
    /// Fill ratio: admitted / capacity (capacity = one pair per row).
    pub ratio: f64,
    /// Solver nodes expended by this admission (its satisfiability
    /// check).
    pub nodes: u64,
    /// Whether the admission succeeded.
    pub committed: bool,
}

/// §6 "Efficiency of evaluation": satisfiability problems are easy when
/// comfortably under- or over-constrained and hard at a critical ratio.
/// We reproduce the effect with *adjacent-pair* bookings (each transaction
/// consumes two adjacent seats): on an `R`-row flight at most `R` pairs
/// fit, and the solver's node count spikes as the fill ratio approaches 1
/// — exactly the regime where the paper suggests switching to "a more
/// aggressive fixing phase".
///
/// Keep `rows` small (≤ 6): the unsat proof at the boundary legitimately
/// explores an exponential space (that *is* the phenomenon), and the
/// engine's node budget turns runaway proofs into errors.
pub fn phase_transition(rows: usize, attempts: usize) -> Vec<PhaseRow> {
    use qdb_core::{QuantumDb, QuantumDbConfig};
    use qdb_logic::parse_transaction;

    let flights = FlightsConfig {
        flights: 1,
        rows_per_flight: rows,
    };
    let qdb = QuantumDb::new(QuantumDbConfig::default())
        .expect("engine")
        .into_shared();
    qdb_workload::flights::install(&qdb, &flights).expect("schema");
    let mut out = Vec::with_capacity(attempts);
    let mut admitted = 0usize;
    let mut last_nodes = 0u64;
    for i in 0..attempts {
        let t = parse_transaction(&format!(
            "-Available(1, s1), -Available(1, s2), +PairBooked('u{i}', s1) :-1 \
             Available(1, s1), Available(1, s2), Adjacent(s1, s2)"
        ))
        .expect("well-formed");
        if i == 0 {
            // PairBooked table is created lazily on first use.
            qdb.create_table(qdb_storage::Schema::new(
                "PairBooked",
                vec![
                    ("user", qdb_storage::ValueType::Str),
                    ("seat", qdb_storage::ValueType::Str),
                ],
            ))
            .expect("schema");
        }
        let committed = qdb.submit(&t).expect("engine healthy").is_committed();
        let nodes = qdb.metrics().solver_nodes;
        if committed {
            admitted += 1;
        }
        out.push(PhaseRow {
            admitted,
            ratio: admitted as f64 / rows as f64,
            nodes: nodes - last_nodes,
            committed,
        });
        last_nodes = nodes;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper() {
        let rows = table1_max_pending(51, 0xC1DE);
        let by_label: std::collections::HashMap<&str, (usize, usize)> = rows
            .iter()
            .map(|(l, b, m)| (l.as_str(), (*b, *m)))
            .collect();
        assert_eq!(by_label["Alternate"], (1, 1));
        assert_eq!(by_label["In Order"].0, 51);
        assert_eq!(by_label["In Order"].1, 51);
        assert_eq!(by_label["Reverse Order"].1, 51);
        assert!(by_label["Random"].1 <= 51);
    }

    #[test]
    fn fig5_smoke_has_five_series() {
        let rows = fig5_fig6_order_of_arrival(
            FlightsConfig {
                flights: 1,
                rows_per_flight: 4,
            },
            6,
            61,
            3,
        );
        assert_eq!(rows.len(), 5);
        // QuantumDB achieves 100% on every order (Fig. 6).
        for r in &rows[..4] {
            assert!(
                (r.coordination_percent - 100.0).abs() < 1e-9,
                "{}: {}",
                r.label,
                r.coordination_percent
            );
            // Cumulative series is monotone.
            assert!(r.cumulative_micros.windows(2).all(|w| w[0] <= w[1]));
        }
        // IS trails on Random order.
        assert!(rows[4].coordination_percent < 100.0);
    }

    #[test]
    fn fig7_smoke_scales_and_orders_k() {
        let rows = fig7_table2_scalability(&[1, 2], 4, &[2, 61], 3);
        // Coordination: k=61 ≥ k=2 at every size.
        for n in [1usize, 2] {
            let k2 = rows
                .iter()
                .find(|r| r.flights == n && r.label == "k=2")
                .unwrap();
            let k61 = rows
                .iter()
                .find(|r| r.flights == n && r.label == "k=61")
                .unwrap();
            let is = rows
                .iter()
                .find(|r| r.flights == n && r.label == "IS")
                .unwrap();
            assert!(k61.coordination_percent >= k2.coordination_percent);
            assert!(k61.coordination_percent >= is.coordination_percent);
        }
    }

    #[test]
    fn phase_transition_spikes_near_capacity() {
        let rows = phase_transition(4, 6);
        // All 4 capacity pairs admitted; the 5th/6th abort.
        assert_eq!(rows.iter().filter(|r| r.committed).count(), 4);
        assert!(!rows.last().unwrap().committed);
        // The hardest check (most solver nodes) happens at the boundary —
        // the critical ratio — not during the under-constrained fill.
        let peak = rows.iter().max_by_key(|r| r.nodes).unwrap();
        assert!(
            peak.ratio > 0.9,
            "peak hardness at ratio {:.2} (nodes {})",
            peak.ratio,
            peak.nodes
        );
        // Early admissions are easy (under-constrained).
        assert!(rows[0].nodes * 4 <= peak.nodes);
    }

    #[test]
    fn fig9_smoke_reads_hurt_coordination() {
        let flights = FlightsConfig {
            flights: 2,
            rows_per_flight: 4,
        };
        let rows = fig8_fig9_mixed(flights, 24, &[0, 50], &[61], 5);
        let at0 = rows.iter().find(|r| r.read_percent == 0).unwrap();
        let at50 = rows.iter().find(|r| r.read_percent == 50).unwrap();
        assert!(at50.coordination_percent <= at0.coordination_percent);
        assert!(at50.read_seconds > 0.0);
    }
}
