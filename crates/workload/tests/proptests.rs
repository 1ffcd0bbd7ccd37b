//! Property tests for the workload layer over randomized arrival orders,
//! flight sizes and `k`: conservation laws of the quantum runner and its
//! coordination statistics, and the paper's headline claim — the quantum
//! database never coordinates worse than the intelligent-social baseline.
//!
//! The `proptest` crate is not vendored in this offline workspace, so the
//! cases are driven by the crate's own seeded generator (failures print
//! the case seed).

use qdb_workload::rng::StdRng;
use qdb_workload::{run_is, run_quantum, ArrivalOrder, FlightsConfig, RunConfig};

const CASES: u64 = 24;

fn random_order(rng: &mut StdRng) -> ArrivalOrder {
    match rng.gen_range(0..4) {
        0 => ArrivalOrder::Alternate,
        1 => ArrivalOrder::InOrder,
        2 => ArrivalOrder::ReverseOrder,
        _ => ArrivalOrder::Random {
            seed: rng.next_u64(),
        },
    }
}

/// With capacity for everyone, a quantum run seats every user exactly
/// once and never aborts, whatever the order and `k`; coordination counts
/// whole pairs, never exceeds the seated users or the theoretical
/// maximum, and that maximum respects both the pair count and the row
/// capacity.
#[test]
fn quantum_run_conserves_seats() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x3010_0000 ^ case);
        let rows = rng.gen_range(2..5);
        let flights = FlightsConfig {
            flights: 2,
            rows_per_flight: rows,
        };
        // Anywhere from one pair to capacity (3·rows seats per flight).
        let pairs_per_flight = rng.gen_range(1..rows * 3 / 2 + 1);
        let (order, k) = (random_order(&mut rng), rng.gen_range(2..62));
        let cfg = RunConfig::resource_only(flights, pairs_per_flight, order, k);
        let res = run_quantum(&cfg);
        let ctx = format!("case {case}: {order:?}, rows {rows}, pairs {pairs_per_flight}, k {k}");
        assert_eq!(res.aborted, 0, "{ctx}");
        assert_eq!(res.coord.seated_users, res.coord.total_users, "{ctx}");
        assert_eq!(res.coord.coordinated_users % 2, 0, "{ctx}");
        assert!(
            res.coord.coordinated_users <= res.coord.seated_users,
            "{ctx}"
        );
        assert!(
            res.coord.coordinated_users <= res.coord.max_possible,
            "{ctx}"
        );
        assert_eq!(
            res.coord.max_possible,
            (2 * pairs_per_flight).min(2 * rows) * 2,
            "{ctx}"
        );
        // One cumulative-time entry per operation, monotone.
        assert_eq!(res.cumulative_micros.len(), cfg.n_transactions(), "{ctx}");
        assert!(
            res.cumulative_micros.windows(2).all(|w| w[0] <= w[1]),
            "{ctx}"
        );
    }
}

/// The paper's headline claim: on the same workload the quantum database
/// never coordinates worse than IS, and with a full-size `k` it reaches
/// the maximum under every arrival order.
#[test]
fn quantum_dominates_is() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x3020_0000 ^ case);
        let rows = rng.gen_range(2..5);
        let flights = FlightsConfig {
            flights: 1,
            rows_per_flight: rows,
        };
        let order = random_order(&mut rng);
        let cfg = RunConfig::resource_only(flights, rows * 3 / 2, order, 61);
        let (q, is) = (run_quantum(&cfg), run_is(&cfg));
        assert!(
            q.coordination_percent() + 1e-9 >= is.coordination_percent(),
            "case {case}: quantum {:.1} < IS {:.1} under {order:?}, rows {rows}",
            q.coordination_percent(),
            is.coordination_percent()
        );
        assert!(
            (q.coordination_percent() - 100.0).abs() < 1e-9,
            "case {case}: quantum {:.1} under {order:?}, rows {rows}",
            q.coordination_percent()
        );
    }
}
