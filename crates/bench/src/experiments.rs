//! The §5 experiments, parameterized so the `reproduce` binary can run
//! them at paper scale and the tests/benches at smoke scale.

use qdb_workload::remote::{run_remote, ContentionProfile, RemoteConfig};
use qdb_workload::{run_is, run_quantum, ArrivalOrder, FlightsConfig, RunConfig, RunResult};

/// Nanoseconds → microseconds, for `qdb_obs` histogram summaries.
fn us(ns: u64) -> f64 {
    ns as f64 / 1000.0
}

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
                scan_percent: 0,
                peek_percent: 0,
                possible_percent: 0,
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

/// One point of the partition-scaling experiment.
#[derive(Debug, Clone)]
pub struct PartitionScalingRow {
    /// Engine variant: `"sharded"` (partition-parallel) or
    /// `"coarse-lock"` (single-big-lock ablation).
    pub label: String,
    /// Server worker threads (== client connections).
    pub workers: usize,
    /// Booking operations executed.
    pub ops: usize,
    /// Wall-clock seconds for the booking phase.
    pub seconds: f64,
    /// Bookings per second.
    pub throughput: f64,
    /// High-water mark of simultaneously running solver sections — above
    /// 1 proves partition-parallel overlap; the coarse-lock ablation can
    /// never exceed 1.
    pub solve_peak: u64,
    /// Client-observed booking round-trip latency: median, µs.
    pub booking_p50_us: f64,
    /// 99th percentile booking latency, µs.
    pub booking_p99_us: f64,
    /// 99.9th percentile booking latency, µs.
    pub booking_p999_us: f64,
}

/// Throughput of the networked booking workload on a **disjoint-partition
/// key range** as the server worker count grows, for the sharded engine
/// and the `coarse_lock` single-big-lock ablation.
///
/// The workload is fixed (`flights_per_worker × max(workers)` flights), so
/// points are comparable across the sweep: each connection drives its own
/// flight range ([`ContentionProfile::DisjointFlights`]), meaning no two
/// connections ever share a §4 partition — the parallelism the sharded
/// engine is built to exploit. On a multi-core host the sharded series
/// scales with workers while the coarse-lock series stays flat; on a
/// single core both are flat (record `cpu_cores` next to the numbers).
pub fn partition_scaling(
    flights_per_worker: usize,
    rows_per_flight: usize,
    pairs_per_flight: usize,
    workers_sweep: &[usize],
    seed: u64,
) -> Vec<PartitionScalingRow> {
    let max_workers = workers_sweep.iter().copied().max().unwrap_or(1);
    let flights = FlightsConfig {
        flights: flights_per_worker * max_workers,
        rows_per_flight,
    };
    let mut out = Vec::new();
    for &w in workers_sweep {
        for coarse in [false, true] {
            let mut cfg = RemoteConfig::new(flights, pairs_per_flight, w);
            cfg.workers = w;
            cfg.seed = seed;
            cfg.contention = ContentionProfile::DisjointFlights;
            cfg.engine.coarse_lock = coarse;
            let res = run_remote(&cfg);
            assert_eq!(res.aborted, 0, "disjoint workload must not abort");
            out.push(PartitionScalingRow {
                label: if coarse { "coarse-lock" } else { "sharded" }.to_string(),
                workers: w,
                ops: res.ops,
                seconds: res.total.as_secs_f64(),
                throughput: res.throughput,
                solve_peak: res.solve_concurrency_peak,
                booking_p50_us: us(res.booking_latency.p50_ns),
                booking_p99_us: us(res.booking_latency.p99_ns),
                booking_p999_us: us(res.booking_latency.p999_ns),
            });
        }
    }
    out
}

/// One point of the `admission_depth` experiment.
#[derive(Debug, Clone)]
pub struct AdmissionDepthRow {
    /// Cache mode: `"cached-extend"` (solution cache on — every admission
    /// extends the partition's cached solution) or `"full-resolve"`
    /// (ablation: the whole pending sequence re-solves on every submit).
    pub mode: String,
    /// Pending-queue depth the partition is filled to.
    pub depth: usize,
    /// Median admission latency across the fill, µs — from a log-bucketed
    /// `qdb_obs` histogram, so quantized to a bucket upper bound.
    pub p50_us: f64,
    /// 99th-percentile admission latency, µs.
    pub p99_us: f64,
    /// 99.9th-percentile admission latency, µs — the submits that executed
    /// at queue depth ≈ `depth` dominate this tail.
    pub p999_us: f64,
    /// Slowest single admission, µs.
    pub max_us: f64,
    /// Mean admission latency over the whole fill, in microseconds.
    pub mean_latency_us: f64,
    /// Wall-clock seconds for the whole fill.
    pub total_seconds: f64,
    /// Solver search nodes expended.
    pub solver_nodes: u64,
    /// Solver nodes per second.
    pub nodes_per_sec: f64,
    /// Candidate rows pulled through streaming cursors.
    pub candidates_streamed: u64,
    /// Candidate vectors materialized (must stay 0: the fast path
    /// streams).
    pub candidate_vecs: u64,
    /// Hot-path lookups answered by a secondary index.
    pub index_lookups: u64,
    /// Hot-path lookups that fell back to a scan.
    pub scan_lookups: u64,
    /// Admissions that extended the cached solution.
    pub cache_extensions: u64,
    /// Admissions that needed a full re-solve.
    pub cache_full_resolves: u64,
    /// Indexes the access-pattern tracker promoted during the fill.
    pub indexes_auto_created: u64,
}

/// Admission latency vs pending-queue depth — the solver hot path the §5
/// experiments pay on every statement, isolated from lock effects.
///
/// One flight's partition is filled to `depth` pending bookings (all
/// bookings bind the flight column, so they share one §4 partition and the
/// composed body grows with the queue); `flights × seats_per_flight` rows
/// give the tracker a reason to promote the flight column. Swept for the
/// cached-extend engine and the full-resolve ablation — the pair the §4
/// "Solution Cache" discussion motivates.
///
/// `seats_per_flight` must be ≥ the largest depth (every booking must
/// admit).
pub fn admission_depth(
    depths: &[usize],
    flights: usize,
    seats_per_flight: usize,
) -> Vec<AdmissionDepthRow> {
    let mut out = Vec::new();
    for &cached in &[true, false] {
        for &depth in depths {
            let (qdb, hist, total) = admission_fill(depth, flights, seats_per_flight, cached, true);
            let lat = hist.summary();
            let stats = qdb.solver_stats();
            let m = qdb.metrics();
            out.push(AdmissionDepthRow {
                mode: if cached {
                    "cached-extend"
                } else {
                    "full-resolve"
                }
                .to_string(),
                depth,
                p50_us: us(lat.p50_ns),
                p99_us: us(lat.p99_ns),
                p999_us: us(lat.p999_ns),
                max_us: us(lat.max_ns),
                mean_latency_us: total.as_secs_f64() * 1e6 / depth.max(1) as f64,
                total_seconds: total.as_secs_f64(),
                solver_nodes: stats.nodes,
                nodes_per_sec: stats.nodes as f64 / total.as_secs_f64().max(f64::EPSILON),
                candidates_streamed: stats.candidates_streamed,
                candidate_vecs: stats.candidate_vecs,
                index_lookups: stats.index_lookups,
                scan_lookups: stats.scan_lookups,
                cache_extensions: m.cache_extensions,
                cache_full_resolves: m.cache_full_resolves,
                indexes_auto_created: m.indexes_auto_created,
            });
        }
    }
    out
}

/// Build a fresh engine, populate `flights × seats_per_flight` seats, and
/// fill one flight's partition with `depth` pending bookings, recording
/// each submit's latency in a `qdb_obs` histogram. `obs_enabled` toggles
/// the engine's internal recording (the A/B knob for [`obs_overhead`]);
/// the returned histogram is the bench's own, outside the toggle.
fn admission_fill(
    depth: usize,
    flights: usize,
    seats_per_flight: usize,
    cached: bool,
    obs_enabled: bool,
) -> (
    qdb_core::SharedQuantumDb,
    qdb_core::Histogram,
    std::time::Duration,
) {
    use qdb_core::{Histogram, QuantumDb, QuantumDbConfig};
    use qdb_logic::parse_transaction;
    use qdb_storage::{Schema, Tuple, Value, ValueType};
    use std::time::Instant;

    assert!(
        depth <= seats_per_flight,
        "depth {depth} exceeds flight capacity {seats_per_flight}"
    );
    let mut cfg = QuantumDbConfig::with_k(depth + 1);
    cfg.use_solution_cache = cached;
    let qdb = QuantumDb::new(cfg).expect("engine").into_shared();
    qdb.obs().set_enabled(obs_enabled);
    qdb.create_table(
        Schema::new(
            "Available",
            vec![("flight", ValueType::Int), ("seat", ValueType::Str)],
        )
        .with_key(vec![0, 1])
        .expect("key"),
    )
    .expect("schema");
    qdb.create_table(Schema::new(
        "Bookings",
        vec![
            ("name", ValueType::Str),
            ("flight", ValueType::Int),
            ("seat", ValueType::Str),
        ],
    ))
    .expect("schema");
    for f in 1..=flights {
        let rows: Vec<Tuple> = (0..seats_per_flight)
            .map(|s| Tuple::from(vec![Value::from(f as i64), Value::from(format!("s{s:03}"))]))
            .collect();
        qdb.bulk_insert("Available", rows).expect("populate");
    }
    // Parse outside the timed loop: this measures admission, not
    // the parser (the workload runner prepares once too).
    let txns: Vec<_> = (0..depth)
        .map(|i| {
            parse_transaction(&format!(
                "-Available(1, s), +Bookings('u{i}', 1, s) :-1 Available(1, s)"
            ))
            .expect("well-formed")
        })
        .collect();
    let hist = Histogram::new();
    let t0 = Instant::now();
    for t in &txns {
        let s = Instant::now();
        assert!(
            qdb.submit(t).expect("engine healthy").is_committed(),
            "capacity sized so every booking admits"
        );
        hist.record_duration(s.elapsed());
    }
    let total = t0.elapsed();
    (qdb, hist, total)
}

/// The recording-overhead A/B for the observability layer.
#[derive(Debug, Clone)]
pub struct ObsOverheadRow {
    /// Pending-queue depth of the fill (the acceptance gate runs 128).
    pub depth: usize,
    /// Mean admission latency with recording on (the default), µs.
    pub enabled_mean_us: f64,
    /// Mean admission latency with `Obs::set_enabled(false)`, µs.
    pub disabled_mean_us: f64,
    /// `(enabled − disabled) / disabled × 100`. Best-of-3 on each side
    /// tames scheduler noise, but small negatives still happen on a busy
    /// host — the acceptance bound is one-sided (≤ 5%).
    pub overhead_percent: f64,
}

/// A/B the cost of the always-on observability layer on the admission hot
/// path: the same cached-extend fill as [`admission_depth`], once with the
/// engine's recording enabled and once with [`qdb_core::Obs`] disabled.
/// Each side takes the best of 3 runs (the first also serves as warm-up).
pub fn obs_overhead(depth: usize, flights: usize, seats_per_flight: usize) -> ObsOverheadRow {
    let best = |enabled: bool| {
        (0..3)
            .map(|_| admission_fill(depth, flights, seats_per_flight, true, enabled).2)
            .min()
            .expect("three runs")
    };
    let disabled = best(false).as_secs_f64() * 1e6 / depth.max(1) as f64;
    let enabled = best(true).as_secs_f64() * 1e6 / depth.max(1) as f64;
    ObsOverheadRow {
        depth,
        enabled_mean_us: enabled,
        disabled_mean_us: disabled,
        overhead_percent: (enabled - disabled) / disabled.max(f64::EPSILON) * 100.0,
    }
}

/// One point of the `read_path` experiment.
#[derive(Debug, Clone)]
pub struct ReadPathRow {
    /// Read mode: `"peek"` (§3.2.2 option 2) or `"possible"` (option 1).
    pub mode: String,
    /// Base database size (rows in `Available`).
    pub db_rows: usize,
    /// Pending-queue depth (one pending booking per flight — disjoint
    /// partitions, so the possible-world fan-out is per-booking).
    pub depth: usize,
    /// Reads measured per point.
    pub reads: usize,
    /// Mean latency of the engine's delta-view read path, microseconds.
    pub view_latency_us: f64,
    /// Median view-path read latency, µs (per-read `qdb_obs` histogram).
    pub view_p50_us: f64,
    /// 99th-percentile view-path read latency, µs.
    pub view_p99_us: f64,
    /// 99.9th-percentile view-path read latency, µs.
    pub view_p999_us: f64,
    /// Mean latency of the clone-based reference (database clone + op
    /// application per world, the pre-view implementation), microseconds.
    pub clone_latency_us: f64,
    /// `clone_latency_us / view_latency_us`.
    pub speedup: f64,
    /// World forks created by the engine during the measured reads
    /// (0 for peek).
    pub worlds_enumerated: u64,
    /// Forked worlds discarded as net-delta duplicates.
    pub world_dedup_hits: u64,
    /// Database clones observed on the engine's base during the view
    /// phase — **must** be 0: the view path never materializes state.
    pub db_clones: u64,
}

/// The clone-free read path (PEEK / POSSIBLE through delta views) against
/// the clone-based reference, swept over base size × pending depth.
///
/// `Available` holds `db_rows` rows spread over flights of 4 seats;
/// `depth` pending bookings land on distinct flights (their §4 partitions
/// stay disjoint; each has 4 candidate seats, so POSSIBLE fans out 4× per
/// pending booking until the world bound truncates). The measured query
/// is a point read of one pending user's booking — through the view it
/// touches O(pending) state; the reference pays O(db_rows) per read to
/// clone the base the way the pre-view engine did. The engine's
/// `db_clones` counter is captured *before* the reference runs, so the
/// view phase must read 0.
pub fn read_path(sizes: &[usize], depths: &[usize], reads: usize) -> Vec<ReadPathRow> {
    use qdb_core::{enumerate_worlds, QuantumDb, QuantumDbConfig};
    use qdb_logic::{parse_query, parse_transaction, ResourceTransaction, Valuation};
    use qdb_storage::{ConjunctiveQuery, Database, Schema, Tuple, Value, ValueType};
    use std::time::Instant;

    const SEATS_PER_FLIGHT: usize = 4;
    const WORLD_BOUND: usize = 64;

    fn install_flights(create: &mut dyn FnMut(Schema), rows: usize) {
        create(
            Schema::new(
                "Available",
                vec![("flight", ValueType::Int), ("seat", ValueType::Str)],
            )
            .with_key(vec![0, 1])
            .expect("key"),
        );
        create(Schema::new(
            "Bookings",
            vec![
                ("name", ValueType::Str),
                ("flight", ValueType::Int),
                ("seat", ValueType::Str),
            ],
        ));
        let _ = rows;
    }

    fn flight_rows(rows: usize) -> impl Iterator<Item = (i64, Tuple)> {
        (0..rows).map(|i| {
            let flight = (i / SEATS_PER_FLIGHT + 1) as i64;
            let seat = format!("s{:03}", i % SEATS_PER_FLIGHT);
            (
                flight,
                Tuple::from(vec![Value::from(flight), Value::from(seat)]),
            )
        })
    }

    fn booking(i: usize) -> ResourceTransaction {
        let flight = i + 1;
        parse_transaction(&format!(
            "-Available({flight}, s), +Bookings('u{i}', {flight}, s) :-1 Available({flight}, s)"
        ))
        .expect("well-formed")
    }

    let mut out = Vec::new();
    for &rows in sizes {
        for &depth in depths {
            assert!(
                depth * SEATS_PER_FLIGHT <= rows,
                "depth {depth} needs at least {} rows",
                depth * SEATS_PER_FLIGHT
            );
            // Engine under measurement.
            let qdb = QuantumDb::new(QuantumDbConfig::with_k(depth + 1))
                .expect("engine")
                .into_shared();
            install_flights(&mut |s| qdb.create_table(s).expect("schema"), rows);
            let tuples: Vec<Tuple> = flight_rows(rows).map(|(_, t)| t).collect();
            qdb.bulk_insert("Available", tuples).expect("populate");
            let txns: Vec<ResourceTransaction> = (0..depth).map(booking).collect();
            for t in &txns {
                assert!(
                    qdb.submit(t).expect("engine healthy").is_committed(),
                    "4 free seats per flight: every booking admits"
                );
            }
            // The reference state: an *independent* database (its clones
            // must not pollute the engine's counter) with the same rows.
            let mut reference = Database::new();
            install_flights(&mut |s| reference.create_table(s).expect("schema"), rows);
            for (_, t) in flight_rows(rows) {
                reference.insert("Available", t).expect("populate");
            }
            // Deterministic stand-ins for the engine's cached grounding:
            // the reference pays the same op count, the exact seats are
            // irrelevant to its cost.
            let pending_ops: Vec<qdb_storage::WriteOp> = (0..depth)
                .flat_map(|i| {
                    let flight = (i + 1) as i64;
                    [
                        qdb_storage::WriteOp::delete(
                            "Available",
                            Tuple::from(vec![Value::from(flight), Value::from("s000")]),
                        ),
                        qdb_storage::WriteOp::insert(
                            "Bookings",
                            Tuple::from(vec![
                                Value::from(format!("u{i}")),
                                Value::from(flight),
                                Value::from("s000"),
                            ]),
                        ),
                    ]
                })
                .collect();

            let query = parse_query("Bookings('u0', f, s)").expect("well-formed");
            let patterns = query
                .atoms
                .iter()
                .map(|a| a.to_pattern(&Valuation::new()))
                .collect::<Vec<_>>();
            let conj = ConjunctiveQuery::new(patterns);
            let txn_refs: Vec<&ResourceTransaction> = txns.iter().collect();

            for mode in ["peek", "possible"] {
                // POSSIBLE enumerates up to the world bound per read (and
                // the clone reference materializes every world): sample it
                // with a tenth of the peek read count.
                let reads = if mode == "peek" {
                    reads
                } else {
                    reads.div_ceil(10).max(3)
                };
                let metrics_before = qdb.metrics();
                // View phase: the engine's clone-free read path.
                let view_hist = qdb_core::Histogram::new();
                let t0 = Instant::now();
                for _ in 0..reads {
                    let s = Instant::now();
                    match mode {
                        "peek" => {
                            let _ = qdb.read_peek(&query.atoms, None).expect("peek");
                        }
                        _ => {
                            let _ = qdb
                                .read_possible(&query.atoms, WORLD_BOUND)
                                .expect("possible");
                        }
                    }
                    view_hist.record_duration(s.elapsed());
                }
                let view_latency_us = t0.elapsed().as_secs_f64() * 1e6 / reads as f64;
                let view_lat = view_hist.summary();
                let m = qdb.metrics();
                let db_clones = m.db_clones; // captured before the clone phase
                let worlds_enumerated = m.worlds_enumerated - metrics_before.worlds_enumerated;
                let world_dedup_hits = m.world_dedup_hits - metrics_before.world_dedup_hits;

                // Clone phase: the pre-view implementation's cost shape —
                // clone the base per read (and per world for POSSIBLE),
                // apply the pending ops, evaluate concretely.
                let t0 = Instant::now();
                for _ in 0..reads {
                    match mode {
                        "peek" => {
                            let mut world = reference.clone();
                            world.apply_all(&pending_ops).expect("ops apply");
                            let _ = conj.eval(&world).expect("eval");
                        }
                        _ => {
                            let worlds = enumerate_worlds(&reference, &txn_refs, WORLD_BOUND)
                                .expect("enumerate");
                            for w in &worlds.worlds {
                                let materialized = w.materialize(&reference).expect("materialize");
                                let _ = conj.eval(&materialized).expect("eval");
                            }
                        }
                    }
                }
                let clone_latency_us = t0.elapsed().as_secs_f64() * 1e6 / reads as f64;

                out.push(ReadPathRow {
                    mode: mode.to_string(),
                    db_rows: rows,
                    depth,
                    reads,
                    view_latency_us,
                    view_p50_us: us(view_lat.p50_ns),
                    view_p99_us: us(view_lat.p99_ns),
                    view_p999_us: us(view_lat.p999_ns),
                    clone_latency_us,
                    speedup: clone_latency_us / view_latency_us.max(f64::EPSILON),
                    worlds_enumerated,
                    world_dedup_hits,
                    db_clones,
                });
            }
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
        let nodes = qdb.solver_stats().nodes;
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
    fn partition_scaling_smoke_produces_comparable_points() {
        let rows = partition_scaling(1, 4, 3, &[1, 2], 0xC1DE);
        assert_eq!(rows.len(), 4); // {1,2} workers × {sharded, coarse}
        for r in &rows {
            assert_eq!(r.ops, 2 * 3 * 2, "fixed workload across sweep");
            assert!(r.throughput > 0.0, "{}@{}w", r.label, r.workers);
            assert!(r.booking_p50_us > 0.0, "{}@{}w", r.label, r.workers);
            assert!(r.booking_p999_us >= r.booking_p50_us);
            if r.label == "coarse-lock" {
                assert!(
                    r.solve_peak <= 1,
                    "coarse lock must serialize solver sections"
                );
            }
        }
        // Both engine variants exist at every worker count.
        for w in [1usize, 2] {
            assert!(rows.iter().any(|r| r.workers == w && r.label == "sharded"));
            assert!(rows
                .iter()
                .any(|r| r.workers == w && r.label == "coarse-lock"));
        }
    }

    #[test]
    fn admission_depth_smoke_is_streaming_and_extend_only() {
        let rows = admission_depth(&[2, 4], 2, 8);
        assert_eq!(rows.len(), 4); // {2,4} depths × {cached, full-resolve}
        for r in &rows {
            // The hot path streams: no candidate vectors, ever.
            assert_eq!(r.candidate_vecs, 0, "{} depth {}", r.mode, r.depth);
            assert!(r.candidates_streamed > 0);
            assert!(r.p50_us > 0.0);
            assert!(r.p99_us >= r.p50_us);
            assert!(r.p999_us >= r.p99_us);
            assert!(r.max_us > 0.0);
            match r.mode.as_str() {
                // Every admission under the solution cache must extend —
                // zero full re-solves (the CI regression gate).
                "cached-extend" => {
                    assert_eq!(r.cache_full_resolves, 0);
                    assert_eq!(r.cache_extensions, r.depth as u64);
                }
                "full-resolve" => {
                    assert_eq!(r.cache_extensions, 0);
                    assert_eq!(r.cache_full_resolves, r.depth as u64);
                }
                other => panic!("unexpected mode {other}"),
            }
        }
        // The ablation pays more solver nodes at equal depth.
        let ext = rows
            .iter()
            .find(|r| r.mode == "cached-extend" && r.depth == 4);
        let full = rows
            .iter()
            .find(|r| r.mode == "full-resolve" && r.depth == 4);
        assert!(full.unwrap().solver_nodes > ext.unwrap().solver_nodes);
    }

    #[test]
    fn obs_overhead_ab_produces_comparable_means() {
        let row = obs_overhead(8, 1, 8);
        assert_eq!(row.depth, 8);
        assert!(row.enabled_mean_us > 0.0);
        assert!(row.disabled_mean_us > 0.0);
        // No bound on the percentage here — a loaded test host makes it
        // noisy; the reproduce run at depth 128 is where the ≤5% gate
        // applies.
        assert!(row.overhead_percent.is_finite());
    }

    #[test]
    fn read_path_smoke_is_clone_free_and_faster_than_the_reference() {
        let rows = read_path(&[64, 256], &[0, 4], 10);
        assert_eq!(rows.len(), 8); // {64,256} sizes × {0,4} depths × {peek,possible}
        for r in &rows {
            // The acceptance gate: the view phase never clones.
            assert_eq!(r.db_clones, 0, "{} {}x{}", r.mode, r.db_rows, r.depth);
            assert!(r.view_latency_us > 0.0);
            assert!(r.view_p50_us > 0.0);
            assert!(r.view_p999_us >= r.view_p50_us);
            assert!(r.clone_latency_us > 0.0);
            if r.mode == "possible" && r.depth > 0 {
                assert!(r.worlds_enumerated > 0, "possible must fork worlds");
            }
            if r.mode == "peek" {
                assert_eq!(r.worlds_enumerated, 0, "peek never enumerates");
            }
        }
        // At the larger size the clone reference pays O(db) per read and
        // the view does not: the peek speedup must be decisive.
        let big_peek = rows
            .iter()
            .find(|r| r.mode == "peek" && r.db_rows == 256 && r.depth == 4)
            .unwrap();
        assert!(
            big_peek.speedup > 1.0,
            "view peek slower than cloning: {:.2}x",
            big_peek.speedup
        );
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
