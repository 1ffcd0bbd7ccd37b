//! The replication experiment: read throughput vs replica count, plus
//! replication lag, under the `read_mostly` shape.
//!
//! One primary `qdb-server` and a sweep of replica counts. For each
//! count, reader threads — one per serving endpoint, replicas when any
//! exist, the primary alone otherwise — hammer PEEK reads (every 8th a
//! `SELECT POSSIBLE`) while a writer books seats on the primary. The
//! measured quantities:
//!
//! - **read throughput** (reads/s across all readers) — the headline:
//!   replicas multiply read capacity because PEEK needs no coordination;
//! - **replication lag** — the largest `SHOW REPLICATION` lag observed
//!   during the write phase, and the settled lag once writes stop (must
//!   return to zero: lag is bounded by write volume, not unbounded);
//! - **replica reads** — reads served by replicas, jq-gated non-zero.
//!
//! The correctness half of the story — zero acknowledged-durable-write
//! loss across promotion — is sim-checked, not benched: the caller pairs
//! this outcome with a [`qdb_sim::run_replica_sweep`] record.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use qdb_client::Connection;
use qdb_core::{HistSummary, Histogram, Response};
use qdb_server::{Server, ServerConfig, ServerHandle};
use qdb_workload::FlightsConfig;

/// Knobs for one [`replication_scale`] run.
#[derive(Debug, Clone)]
pub struct ReplScaleConfig {
    /// Replica counts to sweep (0 = primary serves its own reads).
    pub replica_counts: Vec<usize>,
    /// Flight database shape.
    pub flights: FlightsConfig,
    /// Bookings the writer executes per phase.
    pub bookings: usize,
    /// PEEK/POSSIBLE reads per reader thread per phase.
    pub reads_per_reader: usize,
    /// Executor threads per server.
    pub workers: usize,
}

impl ReplScaleConfig {
    /// Full scale: up to 4 replicas, enough reads for stable tails.
    pub fn full() -> Self {
        ReplScaleConfig {
            replica_counts: vec![0, 1, 2, 4],
            flights: FlightsConfig {
                flights: 8,
                rows_per_flight: 40,
            },
            bookings: 200,
            reads_per_reader: 2_000,
            workers: 2,
        }
    }

    /// CI smoke scale.
    pub fn smoke() -> Self {
        ReplScaleConfig {
            replica_counts: vec![0, 1, 2],
            flights: FlightsConfig {
                flights: 3,
                rows_per_flight: 10,
            },
            bookings: 30,
            reads_per_reader: 300,
            workers: 2,
        }
    }
}

/// One measured point of the sweep.
#[derive(Debug, Clone)]
pub struct ReplPoint {
    /// Replicas behind the primary.
    pub replicas: usize,
    /// Reader threads (== serving endpoints).
    pub readers: usize,
    /// Total reads completed in the measured window.
    pub reads: u64,
    /// Reads served by replica endpoints (0 when `replicas == 0`).
    pub replica_reads: u64,
    /// Aggregate read throughput over the measured window.
    pub read_throughput_rps: f64,
    /// Read latency distribution.
    pub read_latency: HistSummary,
    /// Bookings the writer committed during the window.
    pub bookings_committed: u64,
    /// Largest per-replica lag (bytes) sampled while writes were flowing.
    pub max_lag_bytes: u64,
    /// Largest lag once writes stopped and replicas settled (the
    /// boundedness witness; gated == 0).
    pub settled_lag_bytes: u64,
    /// Milliseconds replicas took to fully catch up after the bulk load.
    pub catch_up_ms: u64,
}

/// Outcome of the sweep.
#[derive(Debug, Clone)]
pub struct ReplScaleOutcome {
    /// One point per replica count, in sweep order.
    pub points: Vec<ReplPoint>,
}

fn exec(conn: &mut Connection, sql: &str) -> Response {
    match conn.execute(sql) {
        Ok(r) => r,
        Err(e) => panic!("{sql:?}: {e}"),
    }
}

/// Seed the primary: schema plus every seat of every flight.
fn load_primary(addr: std::net::SocketAddr, flights: &FlightsConfig) {
    let mut conn = Connection::connect(addr).expect("seed connection");
    exec(&mut conn, "CREATE TABLE Available (flight INT, seat TEXT)");
    exec(
        &mut conn,
        "CREATE TABLE Bookings (name TEXT, flight INT, seat TEXT)",
    );
    for f in 1..=flights.flights {
        for s in 0..flights.seats_per_flight() {
            exec(
                &mut conn,
                &format!("INSERT INTO Available VALUES ({f}, 's{s:03}')"),
            );
        }
    }
    exec(&mut conn, "CHECKPOINT");
}

/// Poll `SHOW REPLICATION` on the primary until every replica's acked
/// offset reaches the primary's WAL length. Returns the wait in ms.
fn await_caught_up(primary: &ServerHandle, replicas: usize) -> u64 {
    if replicas == 0 {
        return 0;
    }
    let started = Instant::now();
    let mut conn = Connection::connect(primary.addr()).expect("lag probe");
    let deadline = started + Duration::from_secs(30);
    loop {
        if let Response::Replication(report) = exec(&mut conn, "SHOW REPLICATION") {
            let seen = report.replicas.len();
            let caught = report
                .replicas
                .iter()
                .filter(|r| r.acked_offset == report.wal_len)
                .count();
            if seen >= replicas && caught == seen && report.wal_len > 0 {
                return started.elapsed().as_millis() as u64;
            }
        }
        assert!(
            Instant::now() < deadline,
            "replicas never caught up with the bulk load"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Max lag over all replicas in one `SHOW REPLICATION` answer.
fn max_lag(conn: &mut Connection) -> u64 {
    match exec(conn, "SHOW REPLICATION") {
        Response::Replication(report) => report
            .replicas
            .iter()
            .map(|r| r.lag_bytes)
            .max()
            .unwrap_or(0),
        other => panic!("SHOW REPLICATION answered {other:?}"),
    }
}

/// Measure one replica count.
fn measure(cfg: &ReplScaleConfig, replicas: usize) -> ReplPoint {
    let primary = Server::spawn(&ServerConfig {
        workers: cfg.workers,
        ..ServerConfig::default()
    })
    .expect("primary");
    load_primary(primary.addr(), &cfg.flights);

    let replica_handles: Vec<ServerHandle> = (0..replicas)
        .map(|i| {
            Server::spawn(&ServerConfig {
                workers: cfg.workers,
                replicate_from: Some(primary.addr().to_string()),
                replica_id: format!("replica-{}", i + 1),
                repl_poll_interval: Duration::from_millis(1),
                ..ServerConfig::default()
            })
            .expect("replica")
        })
        .collect();
    let catch_up_ms = await_caught_up(&primary, replicas);

    // Reader endpoints: the replicas when any exist, else the primary.
    let endpoints: Vec<std::net::SocketAddr> = if replicas == 0 {
        vec![primary.addr()]
    } else {
        replica_handles.iter().map(|h| h.addr()).collect()
    };

    let hist = Arc::new(Histogram::new());
    let replica_read_count = Arc::new(AtomicU64::new(0));
    let barrier = Arc::new(std::sync::Barrier::new(endpoints.len() + 2));
    let flights = cfg.flights.flights;
    let reads = cfg.reads_per_reader;
    let readers: Vec<_> = endpoints
        .iter()
        .enumerate()
        .map(|(ei, &addr)| {
            let hist = Arc::clone(&hist);
            let on_replica = replicas > 0;
            let replica_read_count = Arc::clone(&replica_read_count);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut conn = Connection::connect(addr).expect("reader connection");
                // Warm the connection and the server's parse cache.
                exec(&mut conn, "SELECT PEEK * FROM Available(1, @s)");
                barrier.wait();
                for i in 0..reads {
                    let flight = (ei + i) % flights + 1;
                    // The read_mostly shape: every 8th read enumerates
                    // possible worlds, the rest answer from one world.
                    let sql = if i % 8 == 7 {
                        format!("SELECT POSSIBLE @s FROM Available({flight}, @s)")
                    } else {
                        format!("SELECT PEEK * FROM Available({flight}, @s)")
                    };
                    let t = Instant::now();
                    exec(&mut conn, &sql);
                    hist.record_duration(t.elapsed());
                    if on_replica {
                        replica_read_count.fetch_add(1, Ordering::Relaxed);
                    }
                }
            })
        })
        .collect();

    // The writer: bookings against the primary for the whole window.
    let committed = Arc::new(AtomicU64::new(0));
    let writer = {
        let addr = primary.addr();
        let committed = Arc::clone(&committed);
        let barrier = Arc::clone(&barrier);
        let bookings = cfg.bookings;
        std::thread::spawn(move || {
            let mut conn = Connection::connect(addr).expect("writer connection");
            barrier.wait();
            for i in 0..bookings {
                let flight = i % flights + 1;
                let sql = format!(
                    "SELECT @s FROM Available({flight}, @s) CHOOSE 1 FOLLOWED BY \
                     (DELETE ({flight}, @s) FROM Available; \
                     INSERT ('b{i}', {flight}, @s) INTO Bookings)"
                );
                if matches!(conn.execute(&sql), Ok(Response::Committed(_))) {
                    committed.fetch_add(1, Ordering::Relaxed);
                }
            }
        })
    };

    // Lag sampler: watch `SHOW REPLICATION` on the primary while the
    // readers and writer run.
    let mut lag_probe = Connection::connect(primary.addr()).expect("lag probe");
    barrier.wait();
    let started = Instant::now();
    let mut max_lag_bytes = 0u64;
    let mut readers = readers;
    loop {
        if replicas > 0 {
            max_lag_bytes = max_lag_bytes.max(max_lag(&mut lag_probe));
        }
        if readers.iter().all(|t| t.is_finished()) {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    for t in readers.drain(..) {
        t.join().expect("reader thread");
    }
    let elapsed = started.elapsed().as_secs_f64();
    writer.join().expect("writer thread");

    // Boundedness: once writes stop, lag must drain to zero.
    let settled_lag_bytes = if replicas == 0 {
        0
    } else {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let lag = max_lag(&mut lag_probe);
            if lag == 0 || Instant::now() >= deadline {
                break lag;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    };

    let total_reads = (endpoints.len() * cfg.reads_per_reader) as u64;
    let point = ReplPoint {
        replicas,
        readers: endpoints.len(),
        reads: total_reads,
        replica_reads: replica_read_count.load(Ordering::Relaxed),
        read_throughput_rps: if elapsed > 0.0 {
            total_reads as f64 / elapsed
        } else {
            0.0
        },
        read_latency: hist.summary(),
        bookings_committed: committed.load(Ordering::Relaxed),
        max_lag_bytes,
        settled_lag_bytes,
        catch_up_ms,
    };
    for h in replica_handles {
        h.shutdown();
    }
    primary.shutdown();
    point
}

/// Run the sweep.
pub fn replication_scale(cfg: &ReplScaleConfig) -> ReplScaleOutcome {
    ReplScaleOutcome {
        points: cfg
            .replica_counts
            .iter()
            .map(|&n| measure(cfg, n))
            .collect(),
    }
}
