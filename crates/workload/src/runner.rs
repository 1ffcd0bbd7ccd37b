//! The experiment runner: executes a workload against the quantum
//! database or the IS baseline and collects the measurements the paper
//! reports (cumulative per-transaction time, total time, read/update time
//! split, coordination percentage, maximum pending transactions).
//!
//! The quantum runner drives the engine exclusively through the unified
//! statement API: a [`Session`] is opened on the shared handle, the two
//! hot statements (the entangled booking and the per-user read) are
//! prepared **once**, and the workload loop only binds parameters and
//! runs. [`RunResult::parses`] exposes the engine's parse counter so that
//! benchmarks can verify the hot loop never re-enters the parser.

use std::time::{Duration, Instant};

use qdb_core::{Histogram, QuantumDb, QuantumDbConfig, Session};
use qdb_storage::Value;

use crate::entangled::{make_pairs, Pair};
use crate::flights::{build_database, install, FlightsConfig};
use crate::is_baseline::IsClient;
use crate::metrics::{coordination_stats, CoordStats};
use crate::mixed::Op;
use crate::orders::{arrange, ArrivalOrder};

/// The §5.1 entangled booking as a prepared statement. Positional
/// parameters, in order: flight (body), partner, flight (partner's
/// booking), flight (delete), user, flight (insert).
pub const BOOKING_SQL: &str = "\
    SELECT @s \
    FROM Available(?, @s), \
         OPTIONAL Bookings(?, ?, @s2), \
         OPTIONAL Adjacent(@s, @s2) \
    CHOOSE 1 \
    FOLLOWED BY ( \
        DELETE (?, @s) FROM Available; \
        INSERT (?, ?, @s) INTO Bookings; \
    )";

/// The mixed-workload read (one parameter: the reading user).
pub const READ_SQL: &str = "SELECT @f, @s FROM Bookings(?, @f, @s)";

/// One experiment configuration.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Database shape.
    pub flights: FlightsConfig,
    /// Coordination pairs per flight.
    pub pairs_per_flight: usize,
    /// Arrival order of the resource transactions.
    pub order: ArrivalOrder,
    /// Read operations (mixed workload); `0` = pure resource workload.
    pub n_reads: usize,
    /// Workload seed (shuffles, read placement).
    pub seed: u64,
    /// Engine configuration (contains `k`).
    pub engine: QuantumDbConfig,
}

impl RunConfig {
    /// Pure resource workload over `flights` with the given order and `k`.
    pub fn resource_only(
        flights: FlightsConfig,
        pairs_per_flight: usize,
        order: ArrivalOrder,
        k: usize,
    ) -> Self {
        RunConfig {
            flights,
            pairs_per_flight,
            order,
            n_reads: 0,
            seed: 0xC1DE,
            engine: QuantumDbConfig::with_k(k),
        }
    }

    /// Number of resource transactions.
    pub fn n_transactions(&self) -> usize {
        self.flights.flights * self.pairs_per_flight * 2
    }
}

/// Measurements from one run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// System label ("QuantumDB k=40", "IS", …).
    pub label: String,
    /// Cumulative elapsed microseconds after each operation (Fig. 5's
    /// y-axis against operation index).
    pub cumulative_micros: Vec<u64>,
    /// Total wall-clock time.
    pub total: Duration,
    /// Time spent executing read operations (Fig. 8).
    pub read_time: Duration,
    /// Time spent executing resource transactions / updates (Fig. 8).
    pub update_time: Duration,
    /// Coordination outcome (Figs. 6, 9; Table 2).
    pub coord: CoordStats,
    /// Highest number of simultaneously pending transactions (Table 1).
    pub max_pending: u64,
    /// Aborted resource transactions.
    pub aborted: u64,
    /// SQL parser entries over the whole run (prepared statements keep
    /// this at 2 — one per hot statement — regardless of workload size).
    pub parses: u64,
    /// Per-operation latency distribution of read operations
    /// (p50/p90/p99/p999/max, nanoseconds).
    pub read_latency: qdb_core::HistSummary,
    /// Per-operation latency distribution of updates (bookings plus the
    /// final ground-all).
    pub update_latency: qdb_core::HistSummary,
}

impl RunResult {
    /// Coordination percentage.
    pub fn coordination_percent(&self) -> f64 {
        self.coord.percent()
    }
}

/// Run a workload against the quantum database through the statement API.
pub fn run_quantum(cfg: &RunConfig) -> RunResult {
    let pairs = make_pairs(&cfg.flights, cfg.pairs_per_flight);
    let ops = ops_for(cfg, &pairs);
    let shared = QuantumDb::new(cfg.engine.clone())
        .expect("engine construction")
        .into_shared();
    install(&shared, &cfg.flights).expect("schema install");
    let session: Session = shared.session();

    // Parse the two hot statements once; the loop only binds and runs.
    let book = session.prepare(BOOKING_SQL).expect("booking SQL parses");
    let read = session.prepare(READ_SQL).expect("read SQL parses");

    let mut cumulative = Vec::with_capacity(ops.len());
    let mut read_time = Duration::ZERO;
    let mut update_time = Duration::ZERO;
    let read_hist = Histogram::new();
    let update_hist = Histogram::new();
    let start = Instant::now();
    for op in &ops {
        let t0 = Instant::now();
        match op {
            Op::Book(r) => {
                let flight = Value::from(r.flight);
                let _ = book
                    .bind(&[
                        flight.clone(),
                        Value::from(r.partner.as_str()),
                        flight.clone(),
                        flight.clone(),
                        Value::from(r.user.as_str()),
                        flight,
                    ])
                    .expect("booking params bind")
                    .run()
                    .expect("engine healthy");
                let dt = t0.elapsed();
                update_hist.record_duration(dt);
                update_time += dt;
            }
            Op::Read { user } => {
                let _ = read
                    .bind(&[Value::from(user.as_str())])
                    .expect("read param binds")
                    .run()
                    .expect("engine healthy");
                let dt = t0.elapsed();
                read_hist.record_duration(dt);
                read_time += dt;
            }
        }
        cumulative.push(start.elapsed().as_micros() as u64);
    }
    // Fix any transactions still pending (partners all arrived, so under
    // partner-arrival grounding this is usually a no-op; with it disabled
    // this is where coordination happens).
    let t0 = Instant::now();
    shared.ground_all().expect("invariant");
    let dt = t0.elapsed();
    update_hist.record_duration(dt);
    update_time += dt;
    let total = start.elapsed();

    let metrics = shared.metrics();
    let coord =
        shared.with_database(|db| coordination_stats(db, &pairs, cfg.flights.rows_per_flight));
    RunResult {
        label: format!("QuantumDB k={}", cfg.engine.k),
        cumulative_micros: cumulative,
        total,
        read_time,
        update_time,
        coord,
        max_pending: metrics.max_pending,
        aborted: metrics.aborted,
        parses: metrics.parses,
        read_latency: read_hist.summary(),
        update_latency: update_hist.summary(),
    }
}

/// Run the same workload against the intelligent-social baseline.
pub fn run_is(cfg: &RunConfig) -> RunResult {
    let pairs = make_pairs(&cfg.flights, cfg.pairs_per_flight);
    let ops = ops_for(cfg, &pairs);
    let mut client = IsClient::new(build_database(&cfg.flights));

    let mut cumulative = Vec::with_capacity(ops.len());
    let mut read_time = Duration::ZERO;
    let mut update_time = Duration::ZERO;
    let read_hist = Histogram::new();
    let update_hist = Histogram::new();
    let mut failures = 0u64;
    let start = Instant::now();
    for op in &ops {
        let t0 = Instant::now();
        match op {
            Op::Book(r) => {
                let out = client.book(&r.user, &r.partner, r.flight);
                if out.seat.is_none() {
                    failures += 1;
                }
                let dt = t0.elapsed();
                update_hist.record_duration(dt);
                update_time += dt;
            }
            Op::Read { user } => {
                let _ = client.read_booking(user);
                let dt = t0.elapsed();
                read_hist.record_duration(dt);
                read_time += dt;
            }
        }
        cumulative.push(start.elapsed().as_micros() as u64);
    }
    let total = start.elapsed();
    let coord = coordination_stats(client.database(), &pairs, cfg.flights.rows_per_flight);
    RunResult {
        label: "Intelligent Social (IS)".to_string(),
        cumulative_micros: cumulative,
        total,
        read_time,
        update_time,
        coord,
        max_pending: 0, // IS never defers
        aborted: failures,
        parses: 0, // IS bypasses the SQL front end entirely
        read_latency: read_hist.summary(),
        update_latency: update_hist.summary(),
    }
}

fn ops_for(cfg: &RunConfig, pairs: &[Pair]) -> Vec<Op> {
    if cfg.n_reads == 0 {
        arrange(pairs, cfg.order)
            .into_iter()
            .map(Op::Book)
            .collect()
    } else {
        crate::mixed::build_mixed_workload(pairs, cfg.n_reads, cfg.seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small smoke configuration: 1 flight × 4 rows (12 seats), 6 pairs.
    fn small(order: ArrivalOrder, k: usize) -> RunConfig {
        RunConfig::resource_only(
            FlightsConfig {
                flights: 1,
                rows_per_flight: 4,
            },
            6,
            order,
            k,
        )
    }

    #[test]
    fn quantum_achieves_full_coordination_on_small_alternate() {
        let res = run_quantum(&small(ArrivalOrder::Alternate, 61));
        assert_eq!(res.aborted, 0);
        // Max coordination: min(2·6, 2·4) = 8 users.
        assert_eq!(res.coord.max_possible, 8);
        assert_eq!(res.coord.coordinated_users, 8);
        assert!((res.coordination_percent() - 100.0).abs() < 1e-9);
        assert_eq!(res.cumulative_micros.len(), 12);
    }

    #[test]
    fn quantum_beats_is_on_random_order() {
        let q = run_quantum(&small(ArrivalOrder::Random { seed: 11 }, 61));
        let is = run_is(&small(ArrivalOrder::Random { seed: 11 }, 61));
        assert!(
            q.coordination_percent() >= is.coordination_percent(),
            "quantum {:.1}% < IS {:.1}%",
            q.coordination_percent(),
            is.coordination_percent()
        );
        assert!((q.coordination_percent() - 100.0).abs() < 1e-9);
        // Everyone is seated in both systems (capacity suffices).
        assert_eq!(q.coord.seated_users, 12);
        assert_eq!(is.coord.seated_users, 12);
    }

    #[test]
    fn max_pending_tracks_table1_shape() {
        let alt = run_quantum(&small(ArrivalOrder::Alternate, 61));
        let ord = run_quantum(&small(ArrivalOrder::InOrder, 61));
        // Alternate keeps at most 1 pending; InOrder peaks near N/2 = 6.
        assert!(
            alt.max_pending <= 1,
            "alternate max_pending = {}",
            alt.max_pending
        );
        assert!(
            ord.max_pending >= 5,
            "in-order max_pending = {}",
            ord.max_pending
        );
    }

    #[test]
    fn mixed_reads_reduce_coordination() {
        let mut pure = small(ArrivalOrder::Random { seed: 5 }, 61);
        pure.seed = 5;
        let mut mixed = pure.clone();
        mixed.n_reads = 10;
        let p = run_quantum(&pure);
        let m = run_quantum(&mixed);
        assert!(
            m.coordination_percent() <= p.coordination_percent(),
            "reads must not increase coordination"
        );
        assert!(m.read_time > Duration::ZERO);
    }

    #[test]
    fn small_k_forces_grounding() {
        let res = run_quantum(&small(ArrivalOrder::InOrder, 2));
        // k = 2 on an in-order workload forces early grounding, so the
        // pending high-water mark stays at k... +0 tolerance.
        assert!(res.max_pending <= 3, "max_pending = {}", res.max_pending);
        assert_eq!(res.aborted, 0, "k-grounding must not cause aborts");
    }

    #[test]
    fn per_op_latency_distributions_are_retained() {
        let mut cfg = small(ArrivalOrder::Random { seed: 5 }, 61);
        cfg.n_reads = 10;
        let q = run_quantum(&cfg);
        assert_eq!(q.update_latency.count, 13, "12 bookings + final ground");
        assert_eq!(q.read_latency.count, 10);
        assert!(q.read_latency.p50_ns > 0);
        assert!(q.read_latency.p999_ns >= q.read_latency.p50_ns);
        let is = run_is(&cfg);
        assert_eq!(is.update_latency.count, 12);
        assert_eq!(is.read_latency.count, 10);
    }

    #[test]
    fn hot_loop_parses_exactly_twice_regardless_of_size() {
        // 12 bookings: two prepares, zero per-operation parses.
        let small_run = run_quantum(&small(ArrivalOrder::Alternate, 61));
        assert_eq!(small_run.parses, 2, "prepare-once violated");
        // 10× the reads, same parse count.
        let mut mixed = small(ArrivalOrder::Random { seed: 5 }, 61);
        mixed.n_reads = 40;
        let big_run = run_quantum(&mixed);
        assert_eq!(big_run.parses, 2, "hot loop re-entered the parser");
    }

    #[test]
    fn prepared_booking_matches_the_programmatic_transaction() {
        // The BOOKING_SQL template, once bound, is exactly the §5.1
        // entangled booking the workload used to build programmatically.
        let parsed = qdb_logic::parse_statement(BOOKING_SQL).unwrap();
        let bound = parsed
            .bind(&[
                Value::from(7),
                Value::from("goofy"),
                Value::from(7),
                Value::from(7),
                Value::from("mickey"),
                Value::from(7),
            ])
            .unwrap();
        let qdb_logic::Statement::Transaction(t) = bound else {
            panic!("booking SQL is not a transaction");
        };
        assert_eq!(
            t.into_transaction().unwrap().to_string(),
            crate::entangled::entangled_booking("mickey", "goofy", 7).to_string()
        );
    }
}
