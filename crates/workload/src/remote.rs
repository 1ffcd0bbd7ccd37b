//! The networked workload mode: drive the booking workload over TCP.
//!
//! Where [`crate::runner`] exercises the engine in-process, this module
//! spawns an in-process `qdb-server` on a loopback port and drives it with
//! `N` concurrent `qdb-client` connections — the paper's actual deployment
//! shape (many users against one middle-tier service), and the load shape
//! the ROADMAP's "heavy traffic" goal is measured against. Each client
//! thread prepares the entangled booking once (PREPARE) and then streams
//! pipelined BIND/RUN pairs for its share of the requests.

use std::time::{Duration, Instant};

use qdb_client::Connection;
use qdb_core::wire::ServerStats;
use qdb_core::{Histogram, QuantumDb, QuantumDbConfig, Response};
use qdb_server::Server;
use qdb_storage::Value;

use crate::entangled::make_pairs;
use crate::flights::{install, FlightsConfig};
use crate::metrics::{coordination_stats, CoordStats};
use crate::orders::{arrange, ArrivalOrder, Request};
use crate::runner::BOOKING_SQL;

/// How booking requests map onto client connections — the contention
/// profile of the run.
///
/// The §4 independence partitions are keyed (conservatively) by flight:
/// bookings on different flights never unify, bookings on the same flight
/// always may. The profile therefore controls how much partition sharing
/// the server's worker pool sees.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ContentionProfile {
    /// Round-robin interleave (the default): connection `i` takes requests
    /// `i, i+C, i+2C, …`, so partners — and every flight's key range —
    /// spread across connections. Connections *overlap* on partitions,
    /// exercising the sharded engine's slot handoff and merge paths.
    #[default]
    Interleaved,
    /// Disjoint key ranges: connection `i` drives only flights `≡ i`
    /// (mod C). No two connections ever touch the same partition — the
    /// best case for partition-parallel execution and the workload the
    /// `partition_scaling` benchmark scales across worker counts.
    DisjointFlights,
}

/// Configuration of one remote run.
#[derive(Debug, Clone)]
pub struct RemoteConfig {
    /// Database shape.
    pub flights: FlightsConfig,
    /// Coordination pairs per flight.
    pub pairs_per_flight: usize,
    /// Concurrent client connections.
    pub connections: usize,
    /// Server worker threads.
    pub workers: usize,
    /// Arrival-order shuffle seed.
    pub seed: u64,
    /// Request-to-connection assignment (disjoint vs overlapping ranges).
    pub contention: ContentionProfile,
    /// Percentage chance, per booking, that the connection follows up
    /// with a non-collapsing `SELECT PEEK` of the just-booked user —
    /// read-mostly traffic against the server's delta-view read path.
    pub peek_percent: usize,
    /// Every Nth peek is issued as a `SELECT POSSIBLE` instead (bounded
    /// possible-worlds sampling); `0` disables the sampling.
    pub possible_every: usize,
    /// Engine configuration.
    pub engine: QuantumDbConfig,
}

impl RemoteConfig {
    /// A remote run over `flights` with `connections` clients.
    pub fn new(flights: FlightsConfig, pairs_per_flight: usize, connections: usize) -> Self {
        RemoteConfig {
            flights,
            pairs_per_flight,
            connections,
            workers: 4,
            seed: 0xC1DE,
            contention: ContentionProfile::default(),
            peek_percent: 0,
            possible_every: 0,
            engine: QuantumDbConfig::default(),
        }
    }

    /// The read-mostly profile: every booking is followed by PEEK reads
    /// (~2 per booking on average), every 8th read sampled as `SELECT
    /// POSSIBLE` — the realistic "users re-check their booking far more
    /// often than they book" shape the server's read path is sized for.
    pub fn read_mostly(
        flights: FlightsConfig,
        pairs_per_flight: usize,
        connections: usize,
    ) -> Self {
        RemoteConfig {
            peek_percent: 200,
            possible_every: 8,
            ..RemoteConfig::new(flights, pairs_per_flight, connections)
        }
    }
}

/// Assign requests to connections per the contention profile.
pub fn split_requests(
    requests: &[Request],
    connections: usize,
    profile: ContentionProfile,
) -> Vec<Vec<Request>> {
    match profile {
        // Interleaved round-robin split: connection `i` takes requests
        // i, i+C, i+2C, … so partners spread across connections and the
        // entanglement actually crosses the network.
        ContentionProfile::Interleaved => (0..connections)
            .map(|i| {
                requests
                    .iter()
                    .skip(i)
                    .step_by(connections)
                    .cloned()
                    .collect()
            })
            .collect(),
        // Flight-keyed split: all requests for one flight (= one §4
        // partition) land on one connection.
        ContentionProfile::DisjointFlights => {
            let mut shards: Vec<Vec<Request>> = vec![Vec::new(); connections];
            for r in requests {
                shards[(r.flight as usize) % connections].push(r.clone());
            }
            shards
        }
    }
}

/// Measurements from one remote run.
#[derive(Debug, Clone)]
pub struct RemoteRunResult {
    /// Client connections driven.
    pub connections: usize,
    /// Booking operations executed (across all connections).
    pub ops: usize,
    /// Wall-clock time for the booking phase.
    pub total: Duration,
    /// Bookings per second across the whole fleet.
    pub throughput: f64,
    /// Bookings refused admission.
    pub aborted: u64,
    /// PEEK reads issued across all connections.
    pub peeks: u64,
    /// `SELECT POSSIBLE` reads issued across all connections.
    pub possibles: u64,
    /// Engine counter: database clones observed on the base's clone
    /// family — the delta-view read path keeps this at zero no matter how
    /// read-heavy the traffic is.
    pub db_clones: u64,
    /// Coordination outcome after grounding.
    pub coord: CoordStats,
    /// Engine parse counter — stays at O(#connections), not O(#ops),
    /// because every connection prepares the booking statement once.
    pub parses: u64,
    /// High-water mark of simultaneously running solver sections inside
    /// the engine — above 1 proves admissions/groundings overlapped.
    pub solve_concurrency_peak: u64,
    /// Server traffic counters.
    pub server: ServerStats,
    /// Client-observed per-booking round-trip latency distribution
    /// (p50/p90/p99/p999/max, nanoseconds) across all connections.
    pub booking_latency: qdb_core::HistSummary,
    /// Client-observed per-read (PEEK/POSSIBLE) round-trip latency
    /// distribution across all connections.
    pub read_latency: qdb_core::HistSummary,
}

impl RemoteRunResult {
    /// Coordination percentage.
    pub fn coordination_percent(&self) -> f64 {
        self.coord.percent()
    }
}

/// Run the booking workload over loopback TCP: spawn a server owning a
/// freshly installed flights database, fan the requests out over
/// `cfg.connections` client threads, ground, and collect measurements.
pub fn run_remote(cfg: &RemoteConfig) -> RemoteRunResult {
    let shared = QuantumDb::new(cfg.engine.clone())
        .expect("engine construction")
        .into_shared();
    install(&shared, &cfg.flights).expect("schema install");
    let server =
        Server::spawn_with_db("127.0.0.1:0", cfg.workers, shared.clone()).expect("loopback server");
    let addr = server.addr();

    let pairs = make_pairs(&cfg.flights, cfg.pairs_per_flight);
    let requests = arrange(&pairs, ArrivalOrder::Random { seed: cfg.seed });
    let connections = cfg.connections.max(1);
    let shards: Vec<Vec<Request>> = split_requests(&requests, connections, cfg.contention);

    // Client-observed round-trip latencies; the histograms are atomic, so
    // every connection thread records into the same pair directly.
    let book_hist = Histogram::new();
    let read_hist = Histogram::new();
    let start = Instant::now();
    let (aborted, peeks, possibles) = std::thread::scope(|scope| {
        let handles: Vec<_> = shards
            .iter()
            .enumerate()
            .map(|(i, shard)| {
                let read_cfg = ReadTraffic {
                    peek_percent: cfg.peek_percent,
                    possible_every: cfg.possible_every,
                    seed: cfg.seed ^ (i as u64).wrapping_mul(0x9E37),
                };
                let (book_hist, read_hist) = (&book_hist, &read_hist);
                scope.spawn(move || drive_connection(addr, shard, read_cfg, book_hist, read_hist))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread healthy"))
            .fold((0u64, 0u64, 0u64), |(a, p, q), (da, dp, dq)| {
                (a + da, p + dp, q + dq)
            })
    });
    let total = start.elapsed();

    // Collapse any remaining pending state and read the counters off the
    // same wire a real operator would.
    let mut control = Connection::connect(addr).expect("control connection");
    control.execute("GROUND ALL").expect("ground all");
    let (engine_metrics, server_stats) = control.server_stats().expect("metrics");
    drop(control);

    let coord =
        shared.with_database(|db| coordination_stats(db, &pairs, cfg.flights.rows_per_flight));
    let solve_concurrency_peak = shared.solve_concurrency_peak();
    server.shutdown();
    RemoteRunResult {
        connections,
        ops: requests.len(),
        total,
        throughput: requests.len() as f64 / total.as_secs_f64().max(f64::EPSILON),
        aborted,
        peeks,
        possibles,
        db_clones: engine_metrics.db_clones,
        coord,
        parses: engine_metrics.parses,
        solve_concurrency_peak,
        server: server_stats,
        booking_latency: book_hist.summary(),
        read_latency: read_hist.summary(),
    }
}

/// Per-connection read-traffic knobs (see [`RemoteConfig`]).
#[derive(Debug, Clone, Copy)]
struct ReadTraffic {
    peek_percent: usize,
    possible_every: usize,
    seed: u64,
}

/// One client thread: connect, prepare the hot statements once, stream
/// its shard as pipelined bind+run pairs, interleaving the configured
/// read-mostly traffic. Returns (aborted bookings, peeks, possibles).
fn drive_connection(
    addr: std::net::SocketAddr,
    shard: &[Request],
    reads: ReadTraffic,
    book_hist: &Histogram,
    read_hist: &Histogram,
) -> (u64, u64, u64) {
    use crate::rng::StdRng;
    use crate::runner::{PEEK_SQL, POSSIBLE_SQL};

    let mut conn = Connection::connect(addr).expect("client connect");
    let book = conn.prepare(BOOKING_SQL).expect("booking SQL prepares");
    let read_heavy = reads.peek_percent > 0;
    let peek = read_heavy.then(|| conn.prepare(PEEK_SQL).expect("peek SQL prepares"));
    let possible = (read_heavy && reads.possible_every > 0)
        .then(|| conn.prepare(POSSIBLE_SQL).expect("possible SQL prepares"));
    let mut rng = StdRng::seed_from_u64(reads.seed);
    let (mut aborted, mut peeks, mut possibles) = (0u64, 0u64, 0u64);
    for request in shard {
        let flight = Value::from(request.flight);
        let t0 = Instant::now();
        let response = conn
            .bind_run(
                &book,
                &[
                    flight.clone(),
                    Value::from(request.partner.as_str()),
                    flight.clone(),
                    flight.clone(),
                    Value::from(request.user.as_str()),
                    flight,
                ],
            )
            .expect("booking executes");
        book_hist.record_duration(t0.elapsed());
        match response {
            Response::Committed(_) => {}
            Response::Aborted => aborted += 1,
            other => panic!("booking answered {other:?}"),
        }
        // Read-mostly follow-ups: the user re-checks their own booking.
        // peek_percent is per-booking in percent, so 200 ≈ two reads per
        // booking on average.
        let mut budget = reads.peek_percent;
        while budget > 0 {
            let issue = budget >= 100 || rng.gen_range(0..100) < budget;
            budget = budget.saturating_sub(100);
            if !issue {
                continue;
            }
            let user = Value::from(request.user.as_str());
            let total_reads = peeks + possibles;
            let sample_possible = possible.is_some()
                && reads.possible_every > 0
                && (total_reads + 1).is_multiple_of(reads.possible_every as u64);
            let t0 = Instant::now();
            if sample_possible {
                let response = conn
                    .bind_run(possible.as_ref().expect("prepared"), &[user])
                    .expect("possible executes");
                assert!(
                    matches!(response, Response::Worlds(_)),
                    "POSSIBLE answered {response:?}"
                );
                possibles += 1;
            } else {
                let response = conn
                    .bind_run(peek.as_ref().expect("prepared"), &[user])
                    .expect("peek executes");
                assert!(
                    matches!(response, Response::Rows(_)),
                    "PEEK answered {response:?}"
                );
                peeks += 1;
            }
            read_hist.record_duration(t0.elapsed());
        }
    }
    (aborted, peeks, possibles)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn remote_run_coordinates_like_the_embedded_runner() {
        let cfg = RemoteConfig::new(
            FlightsConfig {
                flights: 1,
                rows_per_flight: 4,
            },
            6,
            4,
        );
        let res = run_remote(&cfg);
        assert_eq!(res.ops, 12);
        assert_eq!(res.aborted, 0);
        assert_eq!(res.coord.max_possible, 8);
        assert_eq!(res.coord.coordinated_users, 8);
        assert!(res.throughput > 0.0);
    }

    #[test]
    fn disjoint_profile_keeps_flights_on_one_connection() {
        let flights = FlightsConfig {
            flights: 6,
            rows_per_flight: 2,
        };
        let pairs = make_pairs(&flights, 2);
        let requests = arrange(&pairs, ArrivalOrder::Random { seed: 7 });
        let shards = split_requests(&requests, 3, ContentionProfile::DisjointFlights);
        assert_eq!(shards.iter().map(Vec::len).sum::<usize>(), requests.len());
        // Every flight appears on exactly one connection.
        for flight in 1..=6i64 {
            let on: Vec<usize> = shards
                .iter()
                .enumerate()
                .filter(|(_, s)| s.iter().any(|r| r.flight == flight))
                .map(|(i, _)| i)
                .collect();
            assert_eq!(on.len(), 1, "flight {flight} on connections {on:?}");
        }
        // Interleaved spreads one flight across several connections.
        let spread = split_requests(&requests, 3, ContentionProfile::Interleaved);
        let f1_conns = spread
            .iter()
            .filter(|s| s.iter().any(|r| r.flight == 1))
            .count();
        assert!(f1_conns > 1, "interleaved must overlap key ranges");
    }

    #[test]
    fn remote_run_with_disjoint_profile_still_coordinates() {
        let mut cfg = RemoteConfig::new(
            FlightsConfig {
                flights: 4,
                rows_per_flight: 4,
            },
            3,
            4,
        );
        cfg.contention = ContentionProfile::DisjointFlights;
        let res = run_remote(&cfg);
        assert_eq!(res.ops, 24);
        assert_eq!(res.aborted, 0);
        // Partner pairs never split across connections here, so full
        // coordination is reachable and the engine must deliver it.
        assert_eq!(res.coord.coordinated_users, res.coord.max_possible);
    }

    #[test]
    fn read_mostly_profile_drives_peeks_and_possibles_clone_free() {
        let mut cfg = RemoteConfig::read_mostly(
            FlightsConfig {
                flights: 2,
                rows_per_flight: 4,
            },
            3,
            2,
        );
        cfg.contention = ContentionProfile::DisjointFlights;
        let res = run_remote(&cfg);
        assert_eq!(res.ops, 12);
        assert_eq!(res.aborted, 0);
        // ~2 reads per booking, every 8th a POSSIBLE: both flavors flow.
        assert!(res.peeks >= 12, "peeks = {}", res.peeks);
        assert!(res.possibles >= 1, "possibles = {}", res.possibles);
        // The server's read path is delta-view only: a read-mostly run
        // never clones the database.
        assert_eq!(res.db_clones, 0, "read path must stay clone-free");
        // Reads ride the prepared-statement path: one PREPARE per hot
        // statement per connection, nothing per-read.
        assert_eq!(res.parses, 2 * 3 + 2, "per-read parse detected");
        // Booking-class and SELECT-class traffic both crossed the wire.
        assert_eq!(res.server.class("SELECT … CHOOSE 1"), Some(12));
        assert_eq!(res.server.class("SELECT"), Some(res.peeks + res.possibles));
        // Client-observed latency distributions cover every operation.
        assert_eq!(res.booking_latency.count, 12);
        assert_eq!(res.read_latency.count, res.peeks + res.possibles);
        assert!(res.booking_latency.p50_ns > 0);
        assert!(res.read_latency.p999_ns >= res.read_latency.p50_ns);
    }

    #[test]
    fn remote_hot_loop_parses_once_per_connection() {
        let cfg = RemoteConfig::new(
            FlightsConfig {
                flights: 1,
                rows_per_flight: 4,
            },
            6,
            3,
        );
        let res = run_remote(&cfg);
        // One booking prepare per connection (the PREPARE), one GROUND ALL
        // and one SHOW METRICS on the control connection. The 12 bookings
        // themselves never touch the parser.
        assert_eq!(res.parses, 3 + 2, "remote hot loop re-entered the parser");
        // Traffic accounting saw every frame: 1 PREPARE + 12×(BIND+RUN)
        // + GROUND ALL + SHOW METRICS, at minimum.
        assert!(res.server.frames_decoded >= 1 + 24 + 2);
        assert!(res.server.bytes_in > 0 && res.server.bytes_out > 0);
        assert_eq!(res.server.connections, 4);
        assert_eq!(res.server.class("SELECT … CHOOSE 1"), Some(12));
    }
}
