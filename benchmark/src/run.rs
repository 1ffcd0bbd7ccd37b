//! One benchmark run: the untraced run that yields the end-to-end
//! metrics, and the traced run that yields the per-layer metrics.

use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;

use qdb_core::{Phase, SharedQuantumDb};
use qdb_storage::wal::{replay_bytes, FileSink, MemorySink};
use qdb_storage::Wal;

use crate::drive::{
    build_env, check_state, measure, merge_tallies, recover_and_compare, run_clients, setup,
    OUT_DIR,
};
use crate::exec::{coordination, Client, Tally};
use crate::gen::{Class, Workload};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats::{median, peak_rss_mib, timing, Timing};
use crate::trace::{write_trace_file, HandDriven, TraceLog, NAMES};

/// How much work a run does.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Measured units per stream, over all rounds.
    pub units: u64,
    /// Warm-up units per stream (part of every set-up).
    pub warmup: u64,
    /// Rounds of the untraced run. Each round sets up a fresh engine (and
    /// server, threads, connections) and measures `units / rounds` units
    /// of the same stream.
    pub rounds: u64,
}

impl Scale {
    /// The benchmark's scale: fixed work sized to take about `seconds`.
    pub fn full(workload: Workload, seconds: f64) -> Scale {
        Scale {
            units: ((workload.units_per_second() as f64 * seconds).round() as u64).max(1),
            warmup: workload.warmup_units(),
            rounds: 5,
        }
    }

    /// A fiftieth of one second's work (N/1000 of a 20-second run), for the
    /// smoke test.
    pub fn smoke(workload: Workload) -> Scale {
        Scale {
            units: (workload.units_per_second() / 50).max(12),
            warmup: workload.min_warmup_units(),
            rounds: 2,
        }
    }

    fn units_per_round(self) -> u64 {
        (self.units / self.rounds).max(1)
    }
}

/// The result of one run, in the shape the driver reads.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Every output check held and no statement failed.
    pub correct: bool,
    /// Statements attempted.
    pub attempted: u64,
    /// Statements failed.
    pub failed: u64,
    /// `(name, value)` for every declared metric of the run's kind.
    pub metrics: Vec<(&'static str, f64)>,
    /// Human-readable lines: sample counts, percentile levels, violations.
    pub notes: Vec<String>,
}

/// Caller-wait classes with their end-to-end median and diagnostic tail
/// metric names.
const CLASSES: [(Class, &str, &str); 3] = [
    (Class::Txn, "txn_p50_us", "run.txn_p99_us"),
    (Class::Read, "read_p50_us", "run.read_p99_us"),
    (Class::Write, "write_p50_us", "run.write_p99_us"),
];

/// Median wait of the `class` calls of one round: each stream's own p50,
/// averaged over the streams; `samples` is the smallest stream's count.
/// The recorded waits are consumed.
///
/// Per stream, because `serve_shared`'s two connections see different
/// distributions — one opens every pair, the other closes it — and the
/// median of their union sits on the step between the two, where it moved
/// 2× from seed to seed.
fn stream_median(clients: &mut [Client], class: Class) -> Timing {
    let mut mean = Timing {
        us: 0.0,
        level: 0.50,
        samples: usize::MAX,
    };
    let streams = clients.len() as f64;
    for client in clients.iter_mut() {
        let mut samples = std::mem::take(&mut client.tally.waits[class as usize]);
        samples.sort_unstable();
        let t = timing(&samples, 0.50);
        mean.us += t.us / streams;
        mean.samples = mean.samples.min(t.samples);
    }
    mean
}

/// The untraced run, with `qdb_obs` in its shipped (enabled) state.
///
/// The fixed work is split over [`Scale::rounds`] rounds. Every round sets
/// up from nothing — engine, data, server threads, connections, warm-up —
/// measures its share of the same seeded stream, checks the outputs and
/// recovers from the WAL image. `ops_per_s` and `cpu_us_per_op` are medians
/// over the half-second windows of all rounds, every other time the median
/// over rounds of the round's own figure: the sizing host stalls for one to
/// three seconds at a time (the same single-threaded stream drops from 15 k
/// to 9 k stmt/s and back), which moves a mean over the run and leaves the
/// median window where it was. Drift that lasts minutes is beyond any
/// single run; the bounds account for it.
pub fn run_untraced(
    workload: Workload,
    seed: u64,
    scale: Scale,
    process_start: Instant,
) -> Result<RunResult, String> {
    let mut notes = Vec::new();
    let mut violations = Vec::new();
    let mut tally = Tally::default();
    let mut series: HashMap<&str, Vec<f64>> = HashMap::new();
    let mut timings: HashMap<&str, Timing> = HashMap::new();
    let (mut adjacent, mut pairs, mut statements, mut wall_s) = (0, 0, 0, 0.0);
    for round in 0..scale.rounds {
        let mut record = |name: &'static str, value: f64| {
            series.entry(name).or_default().push(value);
        };
        // The first set-up is timed from process start, as a user waits for it.
        let t0 = if round == 0 {
            process_start
        } else {
            Instant::now()
        };
        let (env, mut clients) = setup(workload, seed, scale.warmup)?;
        record("setup_s", t0.elapsed().as_secs_f64());

        let m = measure(workload, &env, &mut clients, scale.units_per_round());
        for w in &m.windows {
            record("ops_per_s", w.statements as f64 / w.wall_s);
            record("cpu_us_per_op", w.cpu_s * 1e6 / w.statements as f64);
        }
        record("wal_bytes_per_op", m.wal_bytes as f64 / m.statements as f64);
        statements += m.statements;
        wall_s += m.wall_s;

        for (class, median_name, _) in CLASSES {
            let t = stream_median(&mut clients, class);
            record(median_name, t.us);
            // Report the round with the fewest samples.
            let weakest = timings.entry(median_name).or_insert(t);
            if t.samples < weakest.samples {
                *weakest = t;
            }
        }
        let mut round_tally = merge_tallies(clients);
        let server_stats = env.server.as_ref().map(|s| s.stats());
        violations.extend(check_state(&env, &round_tally, server_stats.as_ref()));
        let recovery = recover_and_compare(&env.db, false, 1)?;
        if recovery.state_mismatches != 0 {
            violations.push(format!(
                "recovery: {} state mismatches",
                recovery.state_mismatches
            ));
        }
        record("recovery_s", recovery.recover_s);
        let (a, p) = coordination(&mut round_tally.seats);
        adjacent += a;
        pairs += p;
        round_tally.seats.clear();
        tally.merge(round_tally);
    }
    if let Some(failure) = &tally.first_failure {
        violations.push(format!("first failed statement: {failure}"));
    }

    let metrics: Vec<(&'static str, f64)> = END_TO_END
        .iter()
        .map(|m| {
            let value = match m.name {
                "coordination_pct" => 100.0 * adjacent as f64 / pairs.max(1) as f64,
                // Last, so it sees the whole run including the recovery checks.
                "peak_rss_mb" => peak_rss_mib(),
                name => median(
                    series
                        .get(name)
                        .unwrap_or_else(|| panic!("no series for {name}")),
                ),
            };
            if let Some(t) = timings.get(m.name) {
                notes.push(format!(
                    "{}: median over {} rounds of the streams' p{:.0}, each of at least {} samples",
                    m.name,
                    scale.rounds,
                    t.level * 100.0,
                    t.samples
                ));
            }
            (m.name, value)
        })
        .collect();

    notes.push(format!(
        "measured {statements} statements in {wall_s:.3} s over {} rounds; {pairs} pairs collapse-read; {} withdraws rejected",
        scale.rounds, tally.withdraw_rejected
    ));
    let mut rates = series["ops_per_s"].clone();
    rates.sort_by(f64::total_cmp);
    notes.push(format!(
        "ops_per_s: median of {} windows, slowest {:.0}, quartiles {:.0} and {:.0}, fastest {:.0}",
        rates.len(),
        rates[0],
        rates[rates.len() / 4],
        rates[rates.len() * 3 / 4],
        rates[rates.len() - 1]
    ));
    notes.extend(violations.iter().map(|v| format!("VIOLATION {v}")));
    Ok(RunResult {
        correct: violations.is_empty() && tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        notes,
    })
}

/// Sum and count of one `qdb_obs` phase histogram.
#[derive(Debug, Clone, Copy, Default)]
struct PhaseTotal {
    ns: u64,
    count: u64,
}

/// Engine-side timing totals read from the existing `qdb_obs` histograms.
#[derive(Debug, Clone, Copy, Default)]
struct ObsTotals {
    plan: PhaseTotal,
    solve: PhaseTotal,
    apply: PhaseTotal,
    wal_append: PhaseTotal,
    wal_flush: PhaseTotal,
    base_lock_wait: PhaseTotal,
    partition_lock_wait: PhaseTotal,
    world_enum: PhaseTotal,
    /// Total time inside `execute_stmt`, all statement classes.
    statements_ns: u64,
}

impl ObsTotals {
    fn read(db: &SharedQuantumDb) -> ObsTotals {
        let phase = |p: Phase| {
            let snap = db.obs().phase_histogram(p).snapshot();
            PhaseTotal {
                ns: snap.sum,
                count: snap.count,
            }
        };
        ObsTotals {
            plan: phase(Phase::Plan),
            solve: phase(Phase::Solve),
            apply: phase(Phase::Apply),
            wal_append: phase(Phase::WalAppend),
            wal_flush: phase(Phase::WalFlush),
            base_lock_wait: phase(Phase::BaseLockWait),
            partition_lock_wait: phase(Phase::PartitionLockWait),
            world_enum: phase(Phase::WorldEnum),
            statements_ns: crate::exec::KINDS
                .iter()
                .map(|kind| db.obs().class_histogram(kind).snapshot().sum)
                .sum(),
        }
    }

    fn since(self, before: ObsTotals) -> ObsTotals {
        let d = |a: PhaseTotal, b: PhaseTotal| PhaseTotal {
            ns: a.ns - b.ns,
            count: a.count - b.count,
        };
        ObsTotals {
            plan: d(self.plan, before.plan),
            solve: d(self.solve, before.solve),
            apply: d(self.apply, before.apply),
            wal_append: d(self.wal_append, before.wal_append),
            wal_flush: d(self.wal_flush, before.wal_flush),
            base_lock_wait: d(self.base_lock_wait, before.base_lock_wait),
            partition_lock_wait: d(self.partition_lock_wait, before.partition_lock_wait),
            world_enum: d(self.world_enum, before.world_enum),
            statements_ns: self.statements_ns - before.statements_ns,
        }
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// One single-threaded replay of the stream along the hand-driven path.
struct Replay {
    wall_s: f64,
    statements: u64,
    tally: Tally,
    /// Per-stream span logs, when recording.
    traces: Vec<TraceLog>,
}

/// Replay `units` units per stream (after the warm-up) through
/// [`HandDriven`] executors on a fresh engine, the streams taking turns
/// call by call exactly as on the real connections.
fn replay(
    workload: Workload,
    seed: u64,
    scale: Scale,
    units: u64,
    record: bool,
    obs_enabled: bool,
) -> Result<Replay, String> {
    let env = build_env(workload, seed, false)?;
    let mut clients = (0..workload.streams())
        .map(|stream| {
            let exec = HandDriven::new(env.db.clone(), workload.remote())?;
            Ok(Client::new(workload, seed, stream, Box::new(exec)))
        })
        .collect::<Result<Vec<_>, String>>()?;
    run_clients(&mut clients, scale.warmup, false);
    if record {
        // Only now: spans cover measured requests, not the warm-up.
        for client in clients.iter_mut() {
            client.executor().start_trace();
        }
    }
    env.db.obs().set_enabled(obs_enabled);
    let before: u64 = clients.iter().map(|c| c.tally.attempted).sum();
    let t0 = Instant::now();
    run_clients(&mut clients, units, false);
    let wall_s = t0.elapsed().as_secs_f64();
    let after: u64 = clients.iter().map(|c| c.tally.attempted).sum();
    let traces = clients
        .iter_mut()
        .filter_map(|c| c.executor().take_trace())
        .collect();
    Ok(Replay {
        wall_s,
        statements: after - before,
        tally: merge_tallies(clients),
        traces,
    })
}

/// Re-append the records of a WAL image into a fresh `Wal` on the same
/// sink type: exact record, byte and drain counts for the run's log.
/// Returns `(records, bytes, drains)`.
fn wal_probe(workload: Workload, image: &[u8]) -> Result<(u64, u64, u64), String> {
    let (records, _) = replay_bytes(image).map_err(|e| format!("replay image: {e}"))?;
    let dir = Path::new(OUT_DIR).join(format!("probe-{}", std::process::id()));
    let mut wal = if workload == Workload::DurableWrite {
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        Wal::with_sink(Box::new(
            FileSink::open(dir.join("probe.log")).map_err(|e| e.to_string())?,
        ))
    } else {
        Wal::with_sink(Box::new(MemorySink::new()))
    };
    for record in &records {
        wal.append(record)
            .map_err(|e| format!("probe append: {e}"))?;
    }
    wal.sync().map_err(|e| format!("probe sync: {e}"))?;
    let counts = (wal.records_written(), wal.size_bytes(), wal.drains());
    drop(wal);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(counts)
}

/// The traced run. Five passes over the same seeded stream:
///
/// 1. a *reference* pass shaped exactly like an untraced round (real
///    server and connections), whose engine counters and `qdb_obs`
///    histograms give the engine-internal splits, and whose server gives
///    the transport counters;
/// 2. the hand-driven replay with spans recorded;
/// 3. the hand-driven replay without spans, `qdb_obs` on and 4. off,
///    twice each, alternating — for the two overhead figures.
pub fn run_traced(workload: Workload, seed: u64, scale: Scale) -> Result<RunResult, String> {
    let mut notes = Vec::new();
    let ref_units = (scale.units * 3 / 10).max(1);
    let replay_units = (scale.units * 8 / 100).max(1);

    // 1. Reference pass.
    let (env, mut clients) = setup(workload, seed, scale.warmup)?;
    let obs_before = ObsTotals::read(&env.db);
    let m = measure(workload, &env, &mut clients, ref_units);
    let obs = ObsTotals::read(&env.db).since(obs_before);
    // Before the RTT probe adds statements no stream accounts for.
    let server_stats = env.server.as_ref().map(|s| s.stats());
    let rtt = clients[0].executor().rtt_probe(2_000);
    let mut tally = merge_tallies(clients);
    // Tail of the caller's wait per class, at the highest level the
    // reference pass supports (ten samples beyond it).
    let ref_tail = CLASSES.map(|(class, _, tail_name)| {
        let samples = &mut tally.waits[class as usize];
        samples.sort_unstable();
        let t = timing(samples, 0.99);
        notes.push(format!(
            "{tail_name}: p{:.0} of {} samples",
            t.level * 100.0,
            t.samples
        ));
        t
    });
    let mut violations = check_state(&env, &tally, server_stats.as_ref());
    let recovery = recover_and_compare(&env.db, true, 3)?;
    let (probe_records, probe_bytes, probe_drains) = wal_probe(workload, &recovery.image)?;
    let solve_peak = env.db.solve_concurrency_peak();
    drop(env);

    // 2.-4. Hand-driven replays.
    let traced = replay(workload, seed, scale, replay_units, true, true)?;
    let (mut plain_on_s, mut plain_off_s) = (0.0, 0.0);
    let mut plain_statements = 0;
    for _ in 0..2 {
        let on = replay(workload, seed, scale, replay_units, false, true)?;
        let off = replay(workload, seed, scale, replay_units, false, false)?;
        plain_on_s += on.wall_s;
        plain_off_s += off.wall_s;
        plain_statements += on.statements;
        tally.merge(on.tally);
        tally.merge(off.tally);
    }
    tally.merge(traced.tally);

    let mut by_name = [0u64; NAMES.len()];
    let (mut root_total, mut request_bytes, mut reply_bytes) = (0u64, 0u64, 0u64);
    for log in &traced.traces {
        let (names, root) = log.self_times();
        for (total, ns) in by_name.iter_mut().zip(names) {
            *total += ns;
        }
        root_total += root;
        request_bytes += log.request_bytes;
        reply_bytes += log.reply_bytes;
    }
    let trace_path = Path::new(OUT_DIR).join(format!("trace-{}.jsonl", workload.name()));
    write_trace_file(&trace_path, &traced.traces)
        .map_err(|e| format!("write {}: {e}", trace_path.display()))?;
    let traced_n = traced.statements as f64;
    let span_ns = |name: &str| {
        let index = NAMES
            .iter()
            .position(|n| *n == name)
            .expect("known span name");
        by_name[index] as f64 / traced_n
    };

    if recovery.state_mismatches != 0 {
        violations.push(format!(
            "recovery: {} state mismatches",
            recovery.state_mismatches
        ));
    }
    if let Some(failure) = &tally.first_failure {
        violations.push(format!("first failed statement: {failure}"));
    }

    let n = m.statements as f64;
    let remote = workload.remote();
    let d = |f: fn(&qdb_core::Metrics) -> u64| (f(&m.after) - f(&m.before)) as f64;
    let txns = d(|x| x.submitted);
    let admissions =
        d(|x| x.cache_extensions) + d(|x| x.cache_extra_hits) + d(|x| x.cache_full_resolves);
    let lookups = d(|x| x.solver_index_lookups) + d(|x| x.solver_scan_lookups);
    let hand_driven_ns_per_op = plain_on_s * 1e9 / plain_statements as f64;
    let cpu_ns_per_op = m.cpu_s * 1e9 / n;
    let in_phases = obs.plan.ns
        + obs.apply.ns
        + obs.base_lock_wait.ns
        + obs.partition_lock_wait.ns
        + obs.world_enum.ns;

    let value = |name: &'static str| -> f64 {
        // A layer that is not on the workload's path reports 0.
        if !remote
            && ["client.", "wire.", "server."]
                .iter()
                .any(|p| name.starts_with(p))
        {
            return 0.0;
        }
        let stats = server_stats.as_ref();
        match name {
            "client.encode_ns_per_op" => span_ns("client.encode"),
            "client.decode_ns_per_op" => span_ns("client.decode"),
            "client.rtt_p50_us" => rtt.as_ref().map_or(0.0, |samples| {
                let mut sorted = samples.clone();
                sorted.sort_unstable();
                timing(&sorted, 0.50).us
            }),
            "wire.request_decode_ns_per_op" => span_ns("wire.request_decode"),
            "wire.reply_encode_ns_per_op" => span_ns("wire.reply_encode"),
            "wire.request_bytes_per_op" => request_bytes as f64 / traced_n,
            "wire.reply_bytes_per_op" => reply_bytes as f64 / traced_n,
            "server.transport_cpu_ns_per_op" => cpu_ns_per_op - hand_driven_ns_per_op,
            "server.sys_cpu_pct" => m.cpu_sys_pct,
            "server.frames_decoded" => stats.map_or(0.0, |s| s.frames_decoded as f64),
            "server.bytes_in" => stats.map_or(0.0, |s| s.bytes_in as f64),
            "server.bytes_out" => stats.map_or(0.0, |s| s.bytes_out as f64),
            "server.outbox_full_stalls" => stats.map_or(0.0, |s| s.outbox_full_stalls as f64),
            "server.conns_refused" => stats.map_or(0.0, |s| s.conns_refused as f64),
            "logic.parse_ns_per_op" => span_ns("logic.parse"),
            "logic.bind_ns_per_op" => span_ns("logic.bind"),
            "logic.parses_per_stmt" => d(|x| x.parses) / n,
            "engine.execute_ns_per_op" => span_ns("engine.execute"),
            // Time in `execute_stmt` outside any plan / apply / lock-wait /
            // world-enum phase (grounding-time solves and blind-write WAL
            // appends are not inside those, so they count here).
            "shard.exec_self_ns_per_op" => obs.statements_ns.saturating_sub(in_phases) as f64 / n,
            "shard.plan_ns_per_txn" => ratio(obs.plan.ns as f64, obs.plan.count as f64),
            "shard.apply_ns_per_op" => obs.apply.ns as f64 / n,
            "shard.base_lock_wait_ns_per_op" => obs.base_lock_wait.ns as f64 / n,
            "shard.partition_lock_wait_ns_per_op" => obs.partition_lock_wait.ns as f64 / n,
            "shard.max_pending" => m.after.max_pending as f64,
            "shard.partition_merges" => d(|x| x.partition_merges),
            "shard.grounded_by_partner" => d(|x| x.grounded_by_partner),
            "shard.grounded_by_read" => d(|x| x.grounded_by_read),
            "shard.grounded_by_k" => d(|x| x.grounded_by_k),
            "shard.writes_rejected" => d(|x| x.writes_rejected),
            "shard.solve_concurrency_peak" => solve_peak as f64,
            "solver.solve_ns_per_txn" => ratio(obs.solve.ns as f64, txns),
            "solver.nodes_per_txn" => ratio(d(|x| x.solver_nodes), txns),
            "solver.candidates_per_node" => {
                ratio(d(|x| x.solver_candidates_streamed), d(|x| x.solver_nodes))
            }
            "solver.cache_extend_pct" => 100.0 * ratio(d(|x| x.cache_extensions), admissions),
            "solver.full_resolves" => d(|x| x.cache_full_resolves),
            "solver.index_lookup_pct" => 100.0 * ratio(d(|x| x.solver_index_lookups), lookups),
            "worlds.enum_ns_per_possible" => {
                ratio(obs.world_enum.ns as f64, d(|x| x.reads_possible))
            }
            "worlds.enumerated_per_possible" => {
                ratio(d(|x| x.worlds_enumerated), d(|x| x.reads_possible))
            }
            "worlds.dedup_hit_pct" => {
                100.0 * ratio(d(|x| x.world_dedup_hits), d(|x| x.worlds_enumerated))
            }
            "read.db_clones" => m.after.db_clones as f64,
            "storage.indexes_auto_created" => m.after.indexes_auto_created as f64,
            "wal.append_ns_per_record" => {
                ratio(obs.wal_append.ns as f64, obs.wal_append.count as f64)
            }
            "wal.flush_ns_per_drain" => ratio(obs.wal_flush.ns as f64, obs.wal_flush.count as f64),
            "wal.bytes_per_record" => ratio(probe_bytes as f64, probe_records as f64),
            "wal.records_per_drain" => ratio(probe_records as f64, probe_drains as f64),
            "wal.drains" => probe_drains as f64,
            "wal.time_share_pct" => {
                100.0 * ratio(obs.wal_append.ns as f64, obs.statements_ns as f64)
            }
            "recovery.storage_replay_s" => recovery.storage_replay_s,
            "recovery.requantize_s" => (recovery.recover_s - recovery.storage_replay_s).max(0.0),
            "recovery.records_per_s" => ratio(recovery.records as f64, recovery.recover_s),
            "recovery.state_mismatches" => recovery.state_mismatches as f64,
            "obs.overhead_pct" => 100.0 * (plain_on_s - plain_off_s) / plain_off_s,
            "trace.overhead_pct" => {
                100.0 * (traced.wall_s / traced_n - plain_on_s / plain_statements as f64)
                    / (plain_on_s / plain_statements as f64)
            }
            "trace.unattributed_pct" => 100.0 * ratio(by_name[0] as f64, root_total as f64),
            "run.txn_p99_us" => ref_tail[Class::Txn as usize].us,
            "run.read_p99_us" => ref_tail[Class::Read as usize].us,
            "run.write_p99_us" => ref_tail[Class::Write as usize].us,
            "run.fail_pct" => 100.0 * ratio(tally.failed as f64, tally.attempted as f64),
            other => unreachable!("undeclared per-layer metric {other}"),
        }
    };
    let metrics: Vec<(&'static str, f64)> =
        PER_LAYER.iter().map(|m| (m.name, value(m.name))).collect();

    notes.push(format!(
        "reference pass {} statements in {:.3} s; traced replay {} statements in {:.3} s; trace file {}",
        m.statements,
        m.wall_s,
        traced.statements,
        traced.wall_s,
        trace_path.display()
    ));
    if let Some(samples) = &rtt {
        notes.push(format!(
            "client.rtt_p50_us: p50 of {} samples",
            samples.len()
        ));
    }
    notes.extend(violations.iter().map(|v| format!("VIOLATION {v}")));
    Ok(RunResult {
        correct: violations.is_empty() && tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        notes,
    })
}
