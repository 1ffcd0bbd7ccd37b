//! Replicated-topology simulation: a primary engine, N WAL-shipping
//! replicas, and a seeded failover.
//!
//! The run is a pure function of its seed, like [`crate::driver`] runs: a
//! seeded workload executes bookings / blind writes / GROUND ALL /
//! CHECKPOINT against the primary while replicas pull WAL segments of
//! *arbitrary seeded byte lengths* (so frame boundaries are routinely
//! split mid-stream, exercising the applier's tail buffering) and serve
//! PEEK reads at their replication horizon. At a seeded point the primary
//! is killed at an arbitrary WAL byte cut and one replica is promoted.
//!
//! Two properties are black-box checked:
//!
//! 1. **Zero acknowledged-durable-write loss.** The promoted replica's
//!    state must be *byte-for-byte explainable* as crash recovery of the
//!    exact durable WAL prefix it acknowledged: same world fingerprint,
//!    same pending set, same txn horizon. Every write the primary
//!    acknowledged at or below that horizon therefore survives promotion;
//!    acknowledged writes beyond the horizon are counted and reported as
//!    the (expected, bounded) asynchronous-replication window — never
//!    silently dropped.
//! 2. **Horizon-explainable replica reads.** A sampled fraction of
//!    replica PEEK answers are re-derived on a reference engine recovered
//!    from the replica's acknowledged prefix. Equality proves the answer
//!    is the evaluation of a consistent state at the replica's horizon —
//!    the staleness contract `docs/REPLICATION.md` documents.

use crate::json::Json;
use qdb_core::{
    world_fingerprint, QuantumDb, QuantumDbConfig, ReplicaApplier, Response, SharedQuantumDb,
};
use qdb_storage::wal::MemorySink;
use qdb_storage::{LogSink, Wal};
use qdb_workload::flights::{self, FlightsConfig};
use qdb_workload::rng::StdRng;

/// Shape of one replicated-topology run.
#[derive(Debug, Clone)]
pub struct ReplicaSimConfig {
    /// Statements the workload executes against the primary.
    pub ops: usize,
    /// Replicas following the primary.
    pub replicas: usize,
    /// Flight database shape.
    pub flights: FlightsConfig,
    /// Engine `k` bound.
    pub k: usize,
    /// Maximum bytes per replication poll (actual chunk sizes are seeded
    /// in `1..=segment_max`, deliberately cutting frames mid-stream).
    pub segment_max: usize,
    /// Verify every n-th replica read against a reference recovery
    /// (`0` = never).
    pub read_sample: u64,
}

impl ReplicaSimConfig {
    /// CI smoke scale: 2 replicas following a 3-flight primary under a
    /// tight `k`, tiny segments.
    pub fn smoke() -> ReplicaSimConfig {
        ReplicaSimConfig {
            ops: 250,
            replicas: 2,
            flights: FlightsConfig {
                flights: 3,
                rows_per_flight: 6,
            },
            k: 5,
            segment_max: 512,
            read_sample: 4,
        }
    }
}

/// Outcome of one replicated run.
#[derive(Debug, Clone)]
pub struct ReplicaRunResult {
    /// The seed.
    pub seed: u64,
    /// Primary statements executed.
    pub ops: u64,
    /// Writes the primary acknowledged (durable in its WAL image).
    pub acked_writes: u64,
    /// Acknowledged writes at or below the promoted replica's horizon —
    /// proven to survive failover.
    pub surviving_acked: u64,
    /// Acknowledged writes beyond the horizon at the kill point (the
    /// asynchronous-replication window; expected, reported, bounded).
    pub lost_to_window: u64,
    /// PEEK reads served by replicas during the run.
    pub replica_reads: u64,
    /// Replica reads verified against a reference recovery.
    pub checked_reads: u64,
    /// Largest observed replica lag in bytes during the run.
    pub max_lag_bytes: u64,
    /// WAL byte offset the promoted replica had acknowledged.
    pub promoted_offset: u64,
    /// Txn-id horizon of the promoted replica.
    pub promoted_horizon: u64,
    /// Writes executed successfully on the promoted node (liveness).
    pub post_promotion_writes: u64,
    /// First property violation, if any.
    pub violation: Option<String>,
}

impl ReplicaRunResult {
    fn fail(mut self, detail: String) -> ReplicaRunResult {
        self.violation = Some(detail);
        self
    }
}

fn qcfg(cfg: &ReplicaSimConfig, seed: u64) -> QuantumDbConfig {
    QuantumDbConfig {
        k: cfg.k,
        seed,
        ..QuantumDbConfig::default()
    }
}

/// Crash-recover a reference engine from the exact durable prefix a
/// replica acknowledged. This is the *explanation object* for both
/// checked properties: a state every honest node would reach from those
/// bytes.
fn recover_prefix(prefix: &[u8], qcfg: QuantumDbConfig) -> Result<SharedQuantumDb, String> {
    let sink: Box<dyn LogSink> = Box::new(MemorySink::from_bytes(prefix.to_vec()));
    QuantumDb::recover(Wal::with_sink(sink), qcfg)
        .map(QuantumDb::into_shared)
        .map_err(|e| e.to_string())
}

fn booking_sql(user: &str, flight: i64) -> String {
    format!(
        "SELECT @s FROM Available({flight}, @s) CHOOSE 1 FOLLOWED BY \
         (DELETE ({flight}, @s) FROM Available; \
         INSERT ('{user}', {flight}, @s) INTO Bookings)"
    )
}

/// Durable WAL image length — what a crash (and therefore a replica)
/// can observe; the group-commit tail buffer is deliberately excluded.
fn durable_len(db: &SharedQuantumDb) -> u64 {
    db.wal_image().len() as u64
}

/// Compare a replica-visible answer with the reference recovery's answer
/// for the same statement. `Err` carries the mismatch description.
fn check_against_reference(
    replica: &SharedQuantumDb,
    reference: &SharedQuantumDb,
    sql: &str,
    what: &str,
) -> Result<(), String> {
    let got = replica.execute(sql).map_err(|e| e.to_string())?;
    let want = reference.execute(sql).map_err(|e| e.to_string())?;
    if got != want {
        return Err(format!(
            "{what}: replica answered {got:?} but the horizon state answers {want:?} for {sql:?}"
        ));
    }
    Ok(())
}

/// Execute one seeded replicated-topology run.
pub fn run_replica_seed(seed: u64, cfg: &ReplicaSimConfig) -> ReplicaRunResult {
    let mut out = ReplicaRunResult {
        seed,
        ops: 0,
        acked_writes: 0,
        surviving_acked: 0,
        lost_to_window: 0,
        replica_reads: 0,
        checked_reads: 0,
        max_lag_bytes: 0,
        promoted_offset: 0,
        promoted_horizon: 0,
        post_promotion_writes: 0,
        violation: None,
    };
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5e11_ca5e_u64.rotate_left(17));

    let primary = match QuantumDb::new(qcfg(cfg, seed)) {
        Ok(db) => db.into_shared(),
        Err(e) => return out.fail(format!("primary build: {e}")),
    };
    if let Err(e) = flights::install(&primary, &cfg.flights) {
        return out.fail(format!("flights install: {e}"));
    }

    // Replicas start from an empty engine and replay everything — schema
    // install included — from the primary's WAL, exactly like a fresh
    // `qdb-server --replicate-from` node.
    let mut replicas: Vec<ReplicaApplier> = Vec::with_capacity(cfg.replicas.max(1));
    for _ in 0..cfg.replicas.max(1) {
        match QuantumDb::new(qcfg(cfg, seed)) {
            Ok(db) => replicas.push(ReplicaApplier::new(db.into_shared())),
            Err(e) => return out.fail(format!("replica build: {e}")),
        }
    }

    // Acknowledged durable writes: (durable WAL offset right after the
    // ack, description) — the unit of the zero-loss property.
    let mut acked: Vec<(u64, String)> = Vec::new();
    let flights_n = cfg.flights.flights.max(1) as i64;

    for i in 0..cfg.ops {
        out.ops += 1;
        let roll = rng.gen_range(0..100);
        let flight = rng.gen_range(0..flights_n as usize) as i64 + 1;
        if roll < 40 {
            // CHOOSE booking — the paper's workload backbone.
            let user = format!("u{i}");
            match primary.execute(&booking_sql(&user, flight)) {
                Ok(Response::Committed(_)) => {
                    acked.push((durable_len(&primary), format!("booking {user}")));
                }
                Ok(_) => {}
                Err(_) => {} // sold out / k-bound aborts are workload noise
            }
        } else if roll < 55 {
            let sql = format!("INSERT INTO Bookings VALUES ('w{i}', {flight}, 'W{i}')");
            if matches!(primary.execute(&sql), Ok(Response::Written(true))) {
                acked.push((durable_len(&primary), format!("insert w{i}")));
            }
        } else if roll < 62 {
            if primary.execute("GROUND ALL").is_ok() {
                acked.push((durable_len(&primary), "ground all".into()));
            }
        } else if roll < 67 {
            if primary.execute("CHECKPOINT").is_ok() {
                acked.push((durable_len(&primary), "checkpoint".into()));
            }
        } else if roll < 90 {
            // Replication poll: a seeded replica pulls a seeded, usually
            // frame-splitting number of bytes.
            let r = rng.gen_range(0..replicas.len());
            let chunk = rng.gen_range(0..cfg.segment_max.max(1)) + 1;
            let from = replicas[r].fetch_offset();
            let (wal_len, _, bytes) = match primary.wal_stream_from(from, chunk) {
                Ok(segment) => segment,
                Err(e) => return out.fail(format!("primary stream read at {from}: {e}")),
            };
            if !bytes.is_empty() {
                if let Err(e) = replicas[r].apply_segment(from, &bytes) {
                    return out.fail(format!("replica {r} apply at {from}: {e}"));
                }
            }
            let lag = wal_len.saturating_sub(replicas[r].applied_offset());
            out.max_lag_bytes = out.max_lag_bytes.max(lag);
        } else {
            // Replica PEEK at its horizon.
            let r = rng.gen_range(0..replicas.len());
            if replicas[r].applied_offset() == 0 {
                continue; // schema not replicated yet — nothing to read
            }
            out.replica_reads += 1;
            let sql = format!("SELECT PEEK * FROM Available({flight}, @s)");
            let sampled = cfg.read_sample > 0 && out.replica_reads.is_multiple_of(cfg.read_sample);
            if sampled {
                let applied = replicas[r].applied_offset() as usize;
                let image = primary.wal_image();
                let reference = match recover_prefix(&image[..applied], qcfg(cfg, seed)) {
                    Ok(db) => db,
                    Err(e) => return out.fail(format!("reference recovery at {applied}: {e}")),
                };
                out.checked_reads += 1;
                for (stmt, what) in [
                    (sql.as_str(), "peek_unexplainable"),
                    ("SHOW PENDING", "pending_mismatch"),
                ] {
                    if let Err(e) =
                        check_against_reference(replicas[r].db(), &reference, stmt, what)
                    {
                        return out.fail(format!("replica {r} at offset {applied}: {e}"));
                    }
                }
                let got = replicas[r].db().with_database(world_fingerprint);
                let want = reference.with_database(world_fingerprint);
                if got != want {
                    return out.fail(format!(
                        "replica {r} ground state diverged from its horizon at offset {applied}"
                    ));
                }
            } else if let Err(e) = replicas[r].db().execute(&sql) {
                return out.fail(format!("replica {r} peek: {e}"));
            }
        }
    }

    // ---- Kill the primary at an arbitrary WAL byte cut -------------------
    let image = primary.wal_image();
    out.acked_writes = acked.len() as u64;
    let victim_idx = rng.gen_range(0..replicas.len());
    let victim = replicas.swap_remove(victim_idx);
    let mut victim = victim;
    // One last partial delivery: the stream dies mid-flight at a seeded
    // byte cut anywhere between the victim's cursor and the end of the
    // log — almost always inside a frame.
    let fetch = victim.fetch_offset() as usize;
    if fetch < image.len() {
        let cut = fetch + rng.gen_range(0..image.len() - fetch + 1);
        if cut > fetch {
            if let Err(e) = victim.apply_segment(fetch as u64, &image[fetch..cut]) {
                return out.fail(format!("final segment apply: {e}"));
            }
        }
    }
    let applied = victim.applied_offset();
    let horizon = victim.horizon();
    out.promoted_offset = applied;
    out.promoted_horizon = horizon;
    out.surviving_acked = acked.iter().filter(|(off, _)| *off <= applied).count() as u64;
    out.lost_to_window = out.acked_writes - out.surviving_acked;

    let promoted = match victim.promote() {
        Ok(db) => db,
        Err(e) => return out.fail(format!("promotion: {e}")),
    };

    // Property 1 — zero acknowledged-durable-write loss: the promoted
    // state IS crash recovery of the acknowledged prefix, so every write
    // acked at or below the horizon is present by construction.
    let reference = match recover_prefix(&image[..applied as usize], qcfg(cfg, seed)) {
        Ok(db) => db,
        Err(e) => return out.fail(format!("post-kill reference recovery: {e}")),
    };
    let got = promoted.with_database(world_fingerprint);
    let want = reference.with_database(world_fingerprint);
    if got != want {
        let at_risk = out.surviving_acked;
        return out.fail(format!(
            "acked_write_loss: promoted state at offset {applied} diverged from recovery \
             of the acknowledged prefix ({at_risk} acked writes at risk)"
        ));
    }
    if let Err(e) =
        check_against_reference(&promoted, &reference, "SHOW PENDING", "pending_mismatch")
    {
        return out.fail(format!("promoted pending set: {e}"));
    }
    if promoted.last_txn_id() != reference.last_txn_id() {
        return out.fail(format!(
            "promoted txn horizon {} != recovered horizon {}",
            promoted.last_txn_id(),
            reference.last_txn_id()
        ));
    }

    // Liveness: the promoted node accepts writes (it is a primary now).
    for j in 0..3 {
        let flight = rng.gen_range(0..flights_n as usize) as i64 + 1;
        let sql = format!("INSERT INTO Bookings VALUES ('p{j}', {flight}, 'P{j}')");
        match promoted.execute(&sql) {
            Ok(Response::Written(true)) => out.post_promotion_writes += 1,
            other => return out.fail(format!("post-promotion write {j}: {other:?}")),
        }
    }
    out
}

/// Aggregate of a replicated-topology seed sweep.
#[derive(Debug, Clone, Default)]
pub struct ReplicaSweepOutcome {
    /// Runs executed.
    pub runs: u64,
    /// Primary statements across all runs.
    pub total_ops: u64,
    /// Acknowledged durable writes across all runs.
    pub acked_writes: u64,
    /// Acked writes proven to survive failover.
    pub surviving_acked: u64,
    /// Acked writes lost to the async window (reported, expected).
    pub lost_to_window: u64,
    /// Replica reads served.
    pub replica_reads: u64,
    /// Replica reads verified against a reference recovery.
    pub checked_reads: u64,
    /// Largest lag observed in any run.
    pub max_lag_bytes: u64,
    /// Failing runs: `(seed, violation)`.
    pub failures: Vec<(u64, String)>,
}

impl ReplicaSweepOutcome {
    /// The sweep's JSON record, as `sim repl --json` prints it for CI's jq
    /// gates: the counts sit under `failover`.
    pub fn record(&self, seeds: u64, replicas: usize) -> Json {
        let failures = self
            .failures
            .iter()
            .map(|(seed, v)| Json::obj([("seed", Json::U64(*seed)), ("violation", Json::str(v))]));
        let counts = [
            ("seeds", seeds),
            ("replicas", replicas as u64),
            ("runs", self.runs),
            ("total_ops", self.total_ops),
            ("acked_writes", self.acked_writes),
            ("surviving_acked", self.surviving_acked),
            ("lost_to_window", self.lost_to_window),
            ("replica_reads", self.replica_reads),
            ("checked_reads", self.checked_reads),
            ("max_lag_bytes", self.max_lag_bytes),
            ("violations", self.failures.len() as u64),
        ];
        let mut failover = Vec::from(counts.map(|(k, n)| (k.to_string(), Json::U64(n))));
        failover.push(("failures".into(), Json::arr(failures)));
        Json::obj([
            ("experiment", Json::str("replication")),
            ("failover", Json::Obj(failover)),
        ])
    }
}

/// Sweep `seeds` consecutive replicated-topology seeds.
pub fn run_replica_sweep(
    cfg: &ReplicaSimConfig,
    start_seed: u64,
    seeds: u64,
) -> ReplicaSweepOutcome {
    let mut out = ReplicaSweepOutcome::default();
    for seed in start_seed..start_seed + seeds {
        let r = run_replica_seed(seed, cfg);
        out.runs += 1;
        out.total_ops += r.ops;
        out.acked_writes += r.acked_writes;
        out.surviving_acked += r.surviving_acked;
        out.lost_to_window += r.lost_to_window;
        out.replica_reads += r.replica_reads;
        out.checked_reads += r.checked_reads;
        out.max_lag_bytes = out.max_lag_bytes.max(r.max_lag_bytes);
        if let Some(v) = r.violation {
            out.failures.push((seed, v));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replicated_smoke_sweep_is_clean() {
        let out = run_replica_sweep(&ReplicaSimConfig::smoke(), 1, 3);
        assert!(out.failures.is_empty(), "violations: {:?}", out.failures);
        assert!(out.acked_writes > 0, "workload must acknowledge writes");
        assert!(out.replica_reads > 0, "replicas must serve reads");
        assert!(out.checked_reads > 0, "sampling must verify some reads");
        assert!(
            out.surviving_acked > 0,
            "some acked writes must be inside the horizon"
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let cfg = ReplicaSimConfig::smoke();
        let a = run_replica_seed(7, &cfg);
        let b = run_replica_seed(7, &cfg);
        assert_eq!(a.acked_writes, b.acked_writes);
        assert_eq!(a.promoted_offset, b.promoted_offset);
        assert_eq!(a.promoted_horizon, b.promoted_horizon);
        assert_eq!(a.surviving_acked, b.surviving_acked);
        assert_eq!(a.violation, b.violation);
    }

    #[test]
    fn promoted_replica_explains_every_surviving_write() {
        // A focused single-seed look: lost writes are exactly the acked
        // tail beyond the promoted offset — never an interior gap.
        let r = run_replica_seed(11, &ReplicaSimConfig::smoke());
        assert!(r.violation.is_none(), "{:?}", r.violation);
        assert_eq!(r.acked_writes, r.surviving_acked + r.lost_to_window);
        assert_eq!(r.post_promotion_writes, 3);
    }
}
