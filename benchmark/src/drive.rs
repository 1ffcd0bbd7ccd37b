//! Building an engine (and server) for a workload, warming it up, running
//! the measured phase, and checking the engine's state afterwards.

use std::path::{Path, PathBuf};
use std::time::Instant;

use qdb_client::Connection;
use qdb_core::wire::ServerStats;
use qdb_core::{Metrics, QuantumDb, QuantumDbConfig, SharedQuantumDb};
use qdb_server::{Server, ServerConfig, ServerHandle};
use qdb_storage::wal::{FileSink, MemorySink};
use qdb_storage::Wal;

use crate::exec::{Client, EmbeddedExec, Executor, RemoteExec, Tally, KINDS};
use crate::gen::{churn_flight, name_tag, Workload, CHURN_WINDOW, ROWS_PER_FLIGHT, SERVER_WORKERS};
use crate::stats::{cpu_seconds, median, pin_to_current_cpu, process_cpu_seconds};

/// Directory for everything a run writes (trace files, the file WAL).
pub const OUT_DIR: &str = "benchmark/out";

/// An engine under test, with the server in front of it for the remote
/// workloads and the temp directory of its file WAL for `durable_write`.
pub struct Env {
    /// The engine (the server's, when there is one).
    pub db: SharedQuantumDb,
    /// In-process server (remote workloads).
    pub server: Option<ServerHandle>,
    wal_dir: Option<PathBuf>,
}

impl Drop for Env {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
        if let Some(dir) = &self.wal_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

fn seat_label(row: u32, pos: u32) -> String {
    format!("{row}{}", (b'A' + pos as u8) as char)
}

/// A fresh temp directory under [`OUT_DIR`] (inside the checkout).
fn temp_dir() -> Result<PathBuf, String> {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = Path::new(OUT_DIR).join(format!("wal-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Build the engine for `workload` and load the flights database through
/// SQL. The flush policy is the shipped one: 64 KiB group drain, no fsync.
///
/// `serve = false` leaves out the server of the remote workloads: the
/// hand-driven path of the traced run walks the layers itself.
pub fn build_env(workload: Workload, seed: u64, serve: bool) -> Result<Env, String> {
    let engine = QuantumDbConfig::default();
    let (db, server, wal_dir) = match workload {
        Workload::ServeMix | Workload::ServeShared if serve => {
            // The server's threads inherit the caller's one-CPU affinity.
            pin_to_current_cpu();
            let server = Server::spawn(&ServerConfig {
                workers: SERVER_WORKERS,
                engine,
                ..ServerConfig::default()
            })
            .map_err(|e| format!("spawn server: {e}"))?;
            (server.db().clone(), Some(server), None)
        }
        Workload::ServeMix | Workload::ServeShared | Workload::DeepAdmit => {
            let db = QuantumDb::new(engine).map_err(|e| e.to_string())?;
            (db.into_shared(), None, None)
        }
        Workload::DurableWrite => {
            let dir = temp_dir()?;
            let sink = FileSink::open(dir.join("wal.log")).map_err(|e| e.to_string())?;
            let db = QuantumDb::with_wal(engine, Wal::with_sink(Box::new(sink)));
            (db.into_shared(), None, Some(dir))
        }
    };
    let env = Env {
        db,
        server,
        wal_dir,
    };

    let session = env.db.session();
    let run = |sql: String| {
        session
            .execute(&sql)
            .map(drop)
            .map_err(|e| format!("{sql:.60}…: {e}"))
    };
    run("CREATE TABLE Available (flight INT, seat TEXT)".into())?;
    run("CREATE TABLE Bookings (name TEXT, flight INT, seat TEXT)".into())?;
    run("CREATE TABLE Adjacent (s1 TEXT, s2 TEXT)".into())?;
    for index in [
        "Available (flight)",
        "Available (seat)",
        "Bookings (name)",
        "Adjacent (s1)",
    ] {
        run(format!("CREATE INDEX ON {index}"))?;
    }
    let mut adjacent = Vec::new();
    for row in 1..=ROWS_PER_FLIGHT {
        let [a, b, c] = [0, 1, 2].map(|pos| seat_label(row, pos));
        for (x, y) in [(&a, &b), (&b, &a), (&b, &c), (&c, &b)] {
            adjacent.push(format!("('{x}', '{y}')"));
        }
    }
    run(format!(
        "INSERT INTO Adjacent VALUES {}",
        adjacent.join(", ")
    ))?;
    for flight in 1..=workload.flights() {
        let seats: Vec<String> = (1..=ROWS_PER_FLIGHT)
            .flat_map(|row| {
                (0..3).map(move |pos| format!("({flight}, '{}')", seat_label(row, pos)))
            })
            .collect();
        run(format!("INSERT INTO Available VALUES {}", seats.join(", ")))?;
    }
    if workload == Workload::DurableWrite {
        // The first churn window exists up front, so every measured
        // DropSeat really deletes a row.
        let tag = name_tag(seed);
        let ids: Vec<u64> = (0..CHURN_WINDOW).collect();
        for chunk in ids.chunks(250) {
            let rows: Vec<String> = chunk
                .iter()
                .map(|&id| format!("({}, 'X{id}')", churn_flight(tag, id, workload.flights())))
                .collect();
            run(format!("INSERT INTO Available VALUES {}", rows.join(", ")))?;
        }
    }
    Ok(env)
}

/// The closed-loop callers of a workload: connections for the remote
/// workloads, one prepared-statement session otherwise.
pub fn connect(env: &Env, workload: Workload, seed: u64) -> Result<Vec<Client>, String> {
    (0..workload.streams())
        .map(|stream| {
            let exec: Box<dyn Executor> = match &env.server {
                Some(server) => Box::new(RemoteExec {
                    conn: Connection::connect(server.addr())
                        .map_err(|e| format!("connect: {e}"))?,
                }),
                None => Box::new(EmbeddedExec::new(&env.db.session())?),
            };
            Ok(Client::new(workload, seed, stream, exec))
        })
        .collect()
}

/// Run `units` units on every client from the calling thread: the clients
/// take turns call by call, each waiting for its replies before the next
/// one sends, so one call is in flight at a time and the order in which
/// the engine sees the streams' statements is fixed by the seed, not by
/// the scheduler. (Every stream of a workload has the same number of calls
/// in its `n`-th unit.)
pub fn run_clients(clients: &mut [Client], units: u64, record: bool) {
    for _ in 0..units {
        let mut unit_done = false;
        while !unit_done {
            for client in clients.iter_mut() {
                unit_done = client.step(record);
            }
        }
    }
}

/// Set up a workload: engine, data, callers, and the fixed warm-up.
pub fn setup(
    workload: Workload,
    seed: u64,
    warmup_units: u64,
) -> Result<(Env, Vec<Client>), String> {
    let env = build_env(workload, seed, true)?;
    let mut clients = connect(&env, workload, seed)?;
    run_clients(&mut clients, warmup_units, false);
    Ok((env, clients))
}

/// One measurement window: a fixed slice of the measured phase's work.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    /// Statements executed in the window.
    pub statements: u64,
    /// Wall seconds the window took.
    pub wall_s: f64,
    /// CPU seconds (user + system) the process used in the window.
    pub cpu_s: f64,
}

/// What the measured phase observed from outside the engine.
pub struct Measured {
    /// Statements executed in the measured phase.
    pub statements: u64,
    /// Wall seconds of the measured phase.
    pub wall_s: f64,
    /// CPU seconds (user + system) of the whole process over the measured phase.
    pub cpu_s: f64,
    /// Share of that CPU time spent in the kernel, in % (10 ms ticks).
    pub cpu_sys_pct: f64,
    /// WAL bytes appended during the measured phase.
    pub wal_bytes: u64,
    /// The phase cut into windows of [`Workload::window_units`] units (the
    /// last may be shorter).
    pub windows: Vec<Window>,
    /// Engine counters at the start of the measured phase.
    pub before: Metrics,
    /// Engine counters at the end.
    pub after: Metrics,
}

/// Run the measured phase: `units` units per client, timed as a whole and
/// window by window.
pub fn measure(workload: Workload, env: &Env, clients: &mut [Client], units: u64) -> Measured {
    let attempted = |clients: &[Client]| clients.iter().map(|c| c.tally.attempted).sum::<u64>();
    let attempted_before = attempted(clients);
    let before = env.db.metrics();
    let wal_before = env.db.wal_size();
    let (user0, sys0) = cpu_seconds();
    let cpu0 = process_cpu_seconds();
    let t0 = Instant::now();
    let mut windows = Vec::new();
    let (mut left, mut mark) = (units, (attempted_before, t0, cpu0));
    while left > 0 {
        let slice = left.min(workload.window_units());
        run_clients(clients, slice, true);
        let now = (attempted(clients), Instant::now(), process_cpu_seconds());
        windows.push(Window {
            statements: now.0 - mark.0,
            wall_s: (now.1 - mark.1).as_secs_f64(),
            cpu_s: now.2 - mark.2,
        });
        (left, mark) = (left - slice, now);
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = process_cpu_seconds() - cpu0;
    let (user1, sys1) = cpu_seconds();
    let ticks = (user1 - user0) + (sys1 - sys0);
    Measured {
        statements: attempted(clients) - attempted_before,
        wall_s,
        cpu_s,
        cpu_sys_pct: if ticks > 0.0 {
            100.0 * (sys1 - sys0) / ticks
        } else {
            0.0
        },
        wal_bytes: env.db.wal_size() - wal_before,
        windows,
        before,
        after: env.db.metrics(),
    }
}

/// Merge the clients' tallies.
pub fn merge_tallies(clients: Vec<Client>) -> Tally {
    let mut tally = Tally::default();
    for client in clients {
        tally.merge(client.tally);
    }
    tally
}

/// Post-run checks of engine and server state. Each entry of the result is
/// one violated check; empty means all hold.
pub fn check_state(env: &Env, tally: &Tally, server: Option<&ServerStats>) -> Vec<String> {
    let mut violations = Vec::new();
    let (m, pending) = env.db.metrics_with_pending();
    if m.committed - m.grounded_total() != pending {
        violations.push(format!(
            "accounting: committed {} − grounded {} ≠ pending {pending}",
            m.committed,
            m.grounded_total()
        ));
    }
    if m.aborted != 0 {
        violations.push(format!("{} bookings aborted", m.aborted));
    }
    if m.db_clones != 0 {
        violations.push(format!(
            "read path cloned the database {} times",
            m.db_clones
        ));
    }
    if let Some(stats) = server {
        for (kind, sent) in KINDS.iter().zip(tally.sent) {
            let seen = stats.class(kind).unwrap_or(0);
            if seen != sent {
                violations.push(format!(
                    "server counted {seen} '{kind}', clients sent {sent}"
                ));
            }
        }
    }
    violations
}

/// Recovery from the post-run WAL image.
pub struct Recovery {
    /// Median seconds of the `QuantumDb::recover` calls.
    pub recover_s: f64,
    /// Median seconds of `qdb_storage::recover` alone (the storage replay part).
    pub storage_replay_s: f64,
    /// Records in the image.
    pub records: u64,
    /// Tables (or the pending set) that differ between the recovered and
    /// the live engine.
    pub state_mismatches: u64,
    /// The image itself (the WAL probe re-appends its records).
    pub image: Vec<u8>,
}

/// Recover `repeats` times from the live engine's WAL image and compare
/// the recovered tables and pending ids with the live engine's.
///
/// `storage_replay` additionally times `qdb_storage::recover` alone (the
/// traced run's split of `recovery_s`); the untraced run skips it.
pub fn recover_and_compare(
    db: &SharedQuantumDb,
    storage_replay: bool,
    repeats: usize,
) -> Result<Recovery, String> {
    let image = db.wal_image();
    let live_pending = db.pending_ids();
    let (mut recover_s, mut replay_s) = (Vec::new(), Vec::new());
    let (mut records, mut mismatches) = (0, 0);
    for _ in 0..repeats {
        let wal = Wal::with_sink(Box::new(MemorySink::from_bytes(image.clone())));
        if storage_replay {
            let t0 = Instant::now();
            let state = qdb_storage::recover(&wal).map_err(|e| format!("storage recover: {e}"))?;
            replay_s.push(t0.elapsed().as_secs_f64());
            records = state.records_applied as u64;
        }

        let t0 = Instant::now();
        let recovered =
            QuantumDb::recover(wal, db.config().clone()).map_err(|e| format!("recover: {e}"))?;
        recover_s.push(t0.elapsed().as_secs_f64());

        mismatches = db.with_database(|live| {
            let mut differing = 0u64;
            let mut live_tables = live.tables();
            let mut recovered_tables = recovered.database().tables();
            loop {
                match (live_tables.next(), recovered_tables.next()) {
                    (None, None) => break,
                    (Some(a), Some(b)) => {
                        let same = a.schema().relation() == b.schema().relation()
                            && a.len() == b.len()
                            && a.iter().eq(b.iter());
                        differing += u64::from(!same);
                    }
                    _ => differing += 1,
                }
            }
            differing
        });
        mismatches += u64::from(recovered.pending_ids() != live_pending);
    }
    Ok(Recovery {
        recover_s: median(&recover_s),
        storage_replay_s: median(&replay_s),
        records,
        state_mismatches: mismatches,
        image,
    })
}
