//! The deterministic full-system driver.
//!
//! A run is a **pure function of its `u64` seed**: the seed fixes the
//! per-client statement streams ([`qdb_workload::build_client_streams`]),
//! the virtual scheduler's interleaving, the crash cut points, and —
//! via [`qdb_core::QuantumDbConfig::seed`] — every nondeterministic
//! choice point inside the engine itself (solver tie-breaks, world
//! enumeration order). Two runs with the same seed and config produce
//! bit-identical histories, final states and checker verdicts, which is
//! what makes `sim replay --seed <s>` a faithful reproduction of any
//! failure.
//!
//! The driver interleaves N logical clients over one of two engine
//! builds — the embedded [`qdb_core::SharedQuantumDb`] with one
//! [`qdb_core::Session`] per client, or a full `qdb-server` behind
//! loopback TCP with one [`qdb_client::Connection`] per client — which
//! run the same SQL, records every statement into a [`History`], and
//! runs the black-box checks of [`crate::checker`] after every transition
//! (invariants), at epoch boundaries (serializability + replay
//! equivalence) and on sampled uncertain reads (explainability). Crash
//! injection cuts the WAL image at an arbitrary byte offset (optionally
//! corrupting it through a [`qdb_storage::FaultSink`]), restarts the
//! engine from the prefix via [`qdb_core::QuantumDb::recover`], and
//! verifies the recovered state against an independently replayed model
//! before resuming the workload.
//!
//! Every executed step is also recorded as a [`TraceEntry`], so a run
//! can be replayed op-for-op via [`run_trace`] — the substrate the
//! schedule shrinker ([`crate::shrink`]) delta-debugs over.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use qdb_client::{Connection, RemotePrepared};
use qdb_core::{
    enumerate_worlds_seeded, world_fingerprint, Bound, Prepared, QuantumDb, QuantumDbConfig,
    Response, Session, SharedQuantumDb, SubmitOutcome, TxnId,
};
use qdb_logic::codec::decode_transaction;
use qdb_logic::{parse_query, Atom, ResourceTransaction, Term, UpdateKind, Valuation};
use qdb_server::{Server, ServerHandle};
use qdb_storage::wal::{apply_faults, frame_spans, replay_bytes, FaultSink, MemorySink, SinkFault};
use qdb_storage::{tuple, Database, LogRecord, LogSink, Schema, Value, ValueType, Wal, WriteOp};
use qdb_workload::entangled::{entangled_booking, solo_booking};
use qdb_workload::pattern::eval_atoms;
use qdb_workload::rng::StdRng;
use qdb_workload::{build_client_streams, FlightsConfig, SimOp, StreamProfile};

use crate::checker::{
    canon_family, canon_set, check_serializable, CanonSet, CheckStats, GroundedRec, SerOutcome,
    Violation, WorldView,
};
use crate::history::{Event, History, ReadKind, Site};

/// Which engine build a run drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// The engine, embedded: the partition-sharded [`SharedQuantumDb`],
    /// every client a [`Session`] running the same SQL as the wire build.
    Sharded,
    /// A full `qdb-server` process behind loopback TCP: every client is a
    /// [`qdb_client::Connection`] issuing SQL, so the run black-box-checks
    /// server dispatch, per-session prepared/bound state, frame
    /// round-tripping and pipelined response ordering too. Determinism is
    /// preserved because the virtual scheduler keeps at most one statement
    /// in flight.
    Wire,
}

impl EngineKind {
    /// Stable label (used in reports and artifact file names).
    pub fn label(&self) -> &'static str {
        match self {
            EngineKind::Sharded => "sharded",
            EngineKind::Wire => "wire",
        }
    }

    /// Parse a label back. `single` — the label of the deleted
    /// single-threaded driver, still found in old failure artifacts — is
    /// refused with an explanation rather than as an unknown word.
    pub fn parse(s: &str) -> Result<EngineKind, String> {
        match s {
            "sharded" => Ok(EngineKind::Sharded),
            "wire" => Ok(EngineKind::Wire),
            "single" => Err("engine kind `single` was removed: the single-threaded \
                             `QuantumDb` driver no longer exists, every statement runs on the \
                             sharded engine (use `sharded`, or re-run the seed with \
                             `sim run --engine sharded`)"
                .into()),
            other => Err(format!("unknown engine {other:?} (sharded|wire|all)")),
        }
    }
}

/// Mutations for mutation-testing the harness itself: each one makes a
/// healthy engine run produce a violation — proving the corresponding
/// invariant is actually armed. [`Mutation::OverstateCapacity`] corrupts
/// the *checker's model*; the WAL mutations corrupt the byte stream a
/// crashed engine recovers from (through a [`qdb_storage::FaultSink`])
/// while the checker keeps replaying the pristine prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// Overstate every flight's expected capacity by one seat, breaking
    /// the conservation invariant `|Available(f)| + |Bookings(f)| =
    /// capacity(f)`.
    OverstateCapacity,
    /// Flip a seeded byte *mid-log* (never inside the setup prefix) before
    /// crash recovery. Replay must stop at that frame boundary, so the
    /// recovered engine diverges from the pristine-prefix model.
    CorruptWalByte,
    /// Drop a seeded run of whole frames mid-log before crash recovery —
    /// a buffered group flush that never reached the media while later
    /// writes did.
    DropGroupFlush,
}

impl Mutation {
    /// Every registered mutation. The meta-test iterates this, so a
    /// mutation that silently never fires the checker fails CI, and
    /// `--mutate` help text is generated from it.
    pub fn all() -> [Mutation; 3] {
        [
            Mutation::OverstateCapacity,
            Mutation::CorruptWalByte,
            Mutation::DropGroupFlush,
        ]
    }

    /// Stable name (artifact field).
    pub fn name(&self) -> &'static str {
        match self {
            Mutation::OverstateCapacity => "overstate_capacity",
            Mutation::CorruptWalByte => "corrupt_wal_byte",
            Mutation::DropGroupFlush => "drop_group_flush",
        }
    }

    /// Parse a stable name back.
    pub fn parse(s: &str) -> Option<Mutation> {
        Mutation::all().into_iter().find(|m| m.name() == s)
    }
}

/// One replayable step of a run: either a client statement or a crash
/// with its exact cut point and (optional) injected WAL fault. A run's
/// recorded trace replayed through [`run_trace`] reproduces the run
/// without consulting the scheduler RNG — which is what lets the
/// shrinker drop entries while keeping every surviving step identical.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEntry {
    /// Client `client` executed `op`.
    Op {
        /// Logical client index.
        client: usize,
        /// The statement.
        op: SimOp,
    },
    /// Crash/recovery at WAL byte offset `cut`, with an optional injected
    /// fault (offsets are absolute into the pre-crash image).
    Crash {
        /// Byte offset the WAL image was cut at.
        cut: u64,
        /// Injected WAL-level fault, if a WAL mutation was active.
        fault: Option<SinkFault>,
    },
}

impl TraceEntry {
    /// Compact single-line encoding (artifact `trace` array element).
    pub fn render(&self) -> String {
        match self {
            TraceEntry::Op { client, op } => {
                let body = match op {
                    SimOp::Book { flight } => format!("book {flight}"),
                    SimOp::BookEntangled { flight, partner } => format!("book2 {flight} {partner}"),
                    SimOp::Read { target } => format!("read {target}"),
                    SimOp::Peek { target } => format!("peek {target}"),
                    SimOp::Possible { target } => format!("possible {target}"),
                    SimOp::Ground { nth } => format!("ground {nth}"),
                    SimOp::GroundAll => "groundall".to_string(),
                    SimOp::Checkpoint => "checkpoint".to_string(),
                    SimOp::AuditInsert => "audit_ins".to_string(),
                    SimOp::AuditDelete { nth } => format!("audit_del {nth}"),
                    SimOp::SeatAdd { flight } => format!("seat_add {flight}"),
                    SimOp::SeatRemove { flight, nth } => format!("seat_rm {flight} {nth}"),
                };
                format!("{client} {body}")
            }
            TraceEntry::Crash { cut, fault } => match fault {
                None => format!("crash {cut}"),
                Some(SinkFault::FlipByte { offset }) => format!("crash {cut} flip {offset}"),
                Some(SinkFault::DropRange { offset, len }) => {
                    format!("crash {cut} drop {offset} {len}")
                }
            },
        }
    }

    /// Parse the [`TraceEntry::render`] encoding back.
    pub fn parse(s: &str) -> Option<TraceEntry> {
        let parts: Vec<&str> = s.split_whitespace().collect();
        let num = |i: usize| parts.get(i)?.parse::<u64>().ok();
        if parts.first() == Some(&"crash") {
            let cut = num(1)?;
            let fault = match parts.get(2).copied() {
                None => None,
                Some("flip") => Some(SinkFault::FlipByte { offset: num(3)? }),
                Some("drop") => Some(SinkFault::DropRange {
                    offset: num(3)?,
                    len: num(4)?,
                }),
                Some(_) => return None,
            };
            return Some(TraceEntry::Crash { cut, fault });
        }
        let client = parts.first()?.parse::<usize>().ok()?;
        let arg = |i: usize| parts.get(i)?.parse::<usize>().ok();
        let op = match *parts.get(1)? {
            "book" => SimOp::Book { flight: arg(2)? },
            "book2" => SimOp::BookEntangled {
                flight: arg(2)?,
                partner: arg(3)?,
            },
            "read" => SimOp::Read { target: arg(2)? },
            "peek" => SimOp::Peek { target: arg(2)? },
            "possible" => SimOp::Possible { target: arg(2)? },
            "ground" => SimOp::Ground { nth: arg(2)? },
            "groundall" => SimOp::GroundAll,
            "checkpoint" => SimOp::Checkpoint,
            "audit_ins" => SimOp::AuditInsert,
            "audit_del" => SimOp::AuditDelete { nth: arg(2)? },
            "seat_add" => SimOp::SeatAdd { flight: arg(2)? },
            "seat_rm" => SimOp::SeatRemove {
                flight: arg(2)?,
                nth: arg(3)?,
            },
            _ => return None,
        };
        Some(TraceEntry::Op { client, op })
    }
}

/// Full simulation configuration. Together with the seed this determines
/// a run completely.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Engine build under test.
    pub engine: EngineKind,
    /// Logical client sessions.
    pub clients: usize,
    /// Statements per client.
    pub ops_per_client: usize,
    /// Flight database shape.
    pub flights: FlightsConfig,
    /// Engine `k` bound (small values force frequent grounding).
    pub k: usize,
    /// Inject crash/restart cycles?
    pub crash: bool,
    /// How many crash points per run (when `crash` is on).
    pub crash_count: usize,
    /// World-enumeration bound for POSSIBLE reads and explainability.
    pub world_bound: usize,
    /// Check every n-th PEEK/POSSIBLE for explainability (`0` = never).
    pub explain_sample: u64,
    /// Serializability-check cadence in ops (`0` = only at crashes and
    /// run end).
    pub ser_interval: u64,
    /// Node budget for the serializability DFS fallback.
    pub dfs_budget: usize,
    /// Statement mix.
    pub profile: StreamProfile,
    /// Optional checker mutation (see [`Mutation`]).
    pub mutation: Option<Mutation>,
}

impl SimConfig {
    /// The CI smoke scale: 4 clients × 250 ops over a 3-flight database
    /// with a tight `k`, crash injection on.
    pub fn smoke(engine: EngineKind) -> SimConfig {
        SimConfig {
            engine,
            clients: 4,
            ops_per_client: 250,
            flights: FlightsConfig {
                flights: 3,
                rows_per_flight: 6,
            },
            k: 5,
            crash: true,
            crash_count: 2,
            world_bound: 64,
            explain_sample: 5,
            ser_interval: 100,
            dfs_budget: 30_000,
            profile: StreamProfile::default(),
            mutation: None,
        }
    }

    /// Total statements a run executes.
    pub fn total_ops(&self) -> usize {
        self.clients * self.ops_per_client
    }

    /// The engine configuration a run uses (the run seed is threaded into
    /// every engine choice point).
    pub fn quantum_config(&self, seed: u64) -> QuantumDbConfig {
        QuantumDbConfig {
            k: self.k,
            seed,
            ..QuantumDbConfig::default()
        }
    }

    fn flight_num(&self, idx: usize) -> i64 {
        (idx % self.flights.flights.max(1)) as i64 + 1
    }
}

/// Outcome of one seeded run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The seed.
    pub seed: u64,
    /// Engine label.
    pub engine: &'static str,
    /// Statements executed before the run ended (or failed).
    pub ops: u64,
    /// Committed CHOOSE submissions.
    pub commits: u64,
    /// Aborted CHOOSE submissions.
    pub aborts: u64,
    /// Injected crash/restart cycles survived.
    pub crashes: u64,
    /// Checker counters.
    pub stats: CheckStats,
    /// The first violation, if the checker found one.
    pub violation: Option<Violation>,
    /// Final extensional-state fingerprint.
    pub fingerprint: String,
    /// Stable digest of history + final state (determinism witness).
    pub digest: u64,
    /// The full recorded history.
    pub history: History,
    /// The engine's most recent flight-recorder events at run end (the
    /// failure artifact embeds them as diagnostic context; they never
    /// feed the determinism digest — span timings are wall-clock).
    pub obs_events: Vec<qdb_core::SpanEvent>,
    /// Every executed step, replayable via [`run_trace`] (the shrinker's
    /// input; embedded in `qdb-sim-failure-v3` artifacts).
    pub trace: Vec<TraceEntry>,
}

// ---------------------------------------------------------------------------
// Engine abstraction
// ---------------------------------------------------------------------------

/// One logical client's statement path. Both builds send the same SQL:
/// the embedded one through a [`Session`] on the engine handle, the wire
/// one through a [`Connection`] to a `qdb-server` serving that handle.
/// Either way the statement cache, `execute_stmt` and its observability
/// bracket are the ones every other caller goes through.
enum Client {
    Embedded {
        session: Session,
        reads: Reads<Prepared>,
    },
    Wire {
        conn: Connection,
        reads: Reads<RemotePrepared>,
    },
}

/// A client's read statements, prepared once and bound to the target
/// user per call — on the wire this exercises the server's per-session
/// prepared/bound maps on every read.
struct Reads<P> {
    collapse: P,
    peek: P,
    possible: P,
}

impl<P> Reads<P> {
    fn prepare<E: std::fmt::Display>(
        world_bound: usize,
        mut prepare: impl FnMut(&str) -> Result<P, E>,
    ) -> Result<Reads<P>, String> {
        let mut prep = |sql: &str| prepare(sql).map_err(|e| format!("prepare {sql:?}: {e}"));
        Ok(Reads {
            collapse: prep("SELECT * FROM Bookings(?, @f, @s)")?,
            peek: prep("SELECT PEEK * FROM Bookings(?, @f, @s)")?,
            possible: prep(&format!(
                "SELECT POSSIBLE * FROM Bookings(?, @f, @s) LIMIT {world_bound}"
            ))?,
        })
    }

    fn get(&self, kind: ReadKind) -> &P {
        match kind {
            ReadKind::Collapse => &self.collapse,
            ReadKind::Peek => &self.peek,
            ReadKind::Possible => &self.possible,
        }
    }
}

/// Worker threads for the in-process server. More than one is safe: the
/// virtual scheduler keeps at most one statement in flight, so workers
/// never race on statement order.
const WIRE_WORKERS: usize = 2;

/// The engine under test. Client statements travel through `clients`; the
/// *checker's* probes (WAL image, pending ids, metrics) are not client
/// traffic and always read `shared` directly.
struct Engine {
    shared: SharedQuantumDb,
    clients: Vec<Client>,
    /// The in-process server of an [`EngineKind::Wire`] run (shut down on
    /// drop).
    _server: Option<ServerHandle>,
}

/// Render a blind write as SQL.
fn write_sql(op: &WriteOp) -> String {
    let (verb, relation, tuple) = match op {
        WriteOp::Insert { relation, tuple } => ("INSERT INTO", relation, tuple),
        WriteOp::Delete { relation, tuple } => ("DELETE FROM", relation, tuple),
    };
    let vals: Vec<String> = tuple
        .iter()
        .map(|v| match v.as_int() {
            Some(i) => i.to_string(),
            None => format!("'{}'", v.as_str().unwrap_or_default()),
        })
        .collect();
    format!("{verb} {relation} VALUES ({})", vals.join(", "))
}

/// The booking statement in the SQL dialect — shaped so that parsing it
/// yields a [`ResourceTransaction`] *identical* (variable ids included)
/// to [`solo_booking`]/[`entangled_booking`]: same update order, same
/// body-atom order, same first-appearance order of `s` and `s2`. A
/// pinned test asserts the equality, which is what lets the checker model
/// the engine's pending set with the workload's own transactions.
fn booking_sql(user: &str, partner: Option<&str>, flight: i64) -> String {
    let tail = format!(
        "CHOOSE 1 FOLLOWED BY (DELETE ({flight}, @s) FROM Available; \
         INSERT ('{user}', {flight}, @s) INTO Bookings)"
    );
    match partner {
        None => format!("SELECT @s FROM Available({flight}, @s) {tail}"),
        Some(p) => format!(
            "SELECT @s FROM Available({flight}, @s), \
             OPTIONAL Bookings('{p}', {flight}, @s2), OPTIONAL Adjacent(@s, @s2) {tail}"
        ),
    }
}

impl Engine {
    fn build(cfg: &SimConfig, qcfg: QuantumDbConfig) -> Result<Engine, String> {
        let qdb = QuantumDb::new(qcfg)
            .map_err(|e| e.to_string())?
            .into_shared();
        qdb_workload::flights::install(&qdb, &cfg.flights).map_err(|e| e.to_string())?;
        qdb.create_table(audit_schema())
            .map_err(|e| e.to_string())?;
        Engine::wrap(cfg, qdb)
    }

    fn recover(
        cfg: &SimConfig,
        image: Vec<u8>,
        qcfg: QuantumDbConfig,
        faults: &[SinkFault],
    ) -> Result<Engine, String> {
        let inner: Box<dyn LogSink> = Box::new(MemorySink::from_bytes(image));
        let sink: Box<dyn LogSink> = if faults.is_empty() {
            inner
        } else {
            Box::new(FaultSink::new(inner, faults.to_vec()))
        };
        let qdb = QuantumDb::recover(Wal::with_sink(sink), qcfg).map_err(|e| e.to_string())?;
        Engine::wrap(cfg, qdb.into_shared())
    }

    fn wrap(cfg: &SimConfig, shared: SharedQuantumDb) -> Result<Engine, String> {
        let server = match cfg.engine {
            EngineKind::Sharded => None,
            EngineKind::Wire => Some(
                Server::spawn_with_db("127.0.0.1:0", WIRE_WORKERS, shared.clone())
                    .map_err(|e| format!("spawn sim server: {e}"))?,
            ),
        };
        let mut clients = Vec::with_capacity(cfg.clients);
        for c in 0..cfg.clients {
            let client = match &server {
                None => {
                    let session = shared.session();
                    let reads = Reads::prepare(cfg.world_bound, |sql| session.prepare(sql));
                    Client::Embedded {
                        reads: reads.map_err(|e| format!("client {c} {e}"))?,
                        session,
                    }
                }
                Some(server) => {
                    let mut conn = Connection::connect(server.addr())
                        .map_err(|e| format!("client {c} connect: {e}"))?;
                    let reads = Reads::prepare(cfg.world_bound, |sql| conn.prepare(sql));
                    Client::Wire {
                        reads: reads.map_err(|e| format!("client {c} {e}"))?,
                        conn,
                    }
                }
            };
            clients.push(client);
        }
        Ok(Engine {
            shared,
            clients,
            _server: server,
        })
    }

    /// Client `c` executes one SQL text.
    fn execute(&mut self, c: usize, sql: &str) -> Result<Response, String> {
        match &mut self.clients[c] {
            Client::Embedded { session, .. } => session.execute(sql).map_err(|e| e.to_string()),
            Client::Wire { conn, .. } => conn.execute(sql).map_err(|e| e.to_string()),
        }
        .map_err(|e| format!("{sql:?}: {e}"))
    }

    /// Client `c` binds its prepared `kind` read to `user` and runs it (on
    /// the wire, `BIND` + `RUN` pipelined in one round trip).
    fn read(&mut self, c: usize, kind: ReadKind, user: &str) -> Result<Response, String> {
        let params = [Value::from(user)];
        match &mut self.clients[c] {
            Client::Embedded { reads, .. } => reads
                .get(kind)
                .bind(&params)
                .and_then(Bound::run)
                .map_err(|e| e.to_string()),
            Client::Wire { conn, reads } => conn
                .bind_run(reads.get(kind), &params)
                .map_err(|e| e.to_string()),
        }
        .map_err(|e| format!("{kind} {user}: {e}"))
    }

    fn submit(&mut self, c: usize, sql: &str) -> Result<SubmitOutcome, String> {
        match self.execute(c, sql)? {
            Response::Committed(id) => Ok(SubmitOutcome::Committed { id }),
            Response::Aborted => Ok(SubmitOutcome::Aborted),
            other => Err(format!("CHOOSE returned {other:?}")),
        }
    }

    /// A collapse or PEEK read's rows.
    fn rows(&mut self, c: usize, kind: ReadKind, user: &str) -> Result<Vec<Valuation>, String> {
        match self.read(c, kind, user)? {
            Response::Rows(rows) => Ok(rows),
            other => Err(format!("{kind} returned {other:?}")),
        }
    }

    fn worlds(&mut self, c: usize, user: &str) -> Result<Vec<Vec<Valuation>>, String> {
        match self.read(c, ReadKind::Possible, user)? {
            Response::Worlds(worlds) => Ok(worlds),
            other => Err(format!("POSSIBLE returned {other:?}")),
        }
    }

    fn write(&mut self, c: usize, op: &WriteOp) -> Result<bool, String> {
        match self.execute(c, &write_sql(op))? {
            Response::Written(applied) => Ok(applied),
            other => Err(format!("blind write returned {other:?}")),
        }
    }

    fn ground(&mut self, c: usize, id: TxnId) -> Result<bool, String> {
        match self.execute(c, &format!("GROUND {id}"))? {
            Response::Grounded(n) => Ok(n > 0),
            other => Err(format!("GROUND returned {other:?}")),
        }
    }

    fn ground_all(&mut self, c: usize) -> Result<(), String> {
        match self.execute(c, "GROUND ALL")? {
            Response::Grounded(_) => Ok(()),
            other => Err(format!("GROUND ALL returned {other:?}")),
        }
    }

    fn checkpoint(&mut self, c: usize) -> Result<(), String> {
        match self.execute(c, "CHECKPOINT")? {
            Response::Ack => Ok(()),
            other => Err(format!("CHECKPOINT returned {other:?}")),
        }
    }

    fn pending_ids(&self) -> Vec<TxnId> {
        self.shared.pending_ids()
    }

    fn wal_image(&self) -> Vec<u8> {
        self.shared.wal_image()
    }

    fn with_db<R>(&self, f: impl FnOnce(&Database) -> R) -> R {
        self.shared.with_database(f)
    }

    /// `(committed, grounded, pending)` — read together so the §2
    /// accounting identity can be checked atomically.
    fn accounting(&self) -> (u64, u64, u64) {
        let (m, pending) = self.shared.metrics_with_pending();
        (m.committed, m.grounded_total(), pending)
    }
}

fn audit_schema() -> Schema {
    Schema::new("Audit", vec![("tag", ValueType::Int)])
}

fn booking_atoms(user: &str) -> Vec<Atom> {
    parse_query(&format!("Bookings('{user}', f, s)"))
        .expect("generated booking query is well-formed")
        .atoms
}

/// The `(user, flight)` a pending booking transaction would create, read
/// off its `+Bookings(...)` update atom.
fn booking_user_flight(txn: &ResourceTransaction) -> Option<(String, i64)> {
    for u in &txn.updates {
        if u.kind == UpdateKind::Insert && u.atom.relation.as_ref() == "Bookings" {
            let user = match u.atom.terms.first()? {
                Term::Const(v) => v.as_str()?.to_string(),
                Term::Var(_) => return None,
            };
            let flight = match u.atom.terms.get(1)? {
                Term::Const(v) => v.as_int()?,
                Term::Var(_) => return None,
            };
            return Some((user, flight));
        }
    }
    None
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

struct Driver {
    cfg: SimConfig,
    seed: u64,
    qcfg: QuantumDbConfig,
    engine: Engine,
    hist: History,
    rng: StdRng,
    stats: CheckStats,
    op_index: u64,
    commits: u64,
    aborts: u64,
    crashes: u64,
    uncertain_reads: u64,
    // Checker model (rebuilt from the WAL prefix after every crash).
    capacity: BTreeMap<i64, usize>,
    audit_live: Vec<i64>,
    txn_bodies: HashMap<TxnId, ResourceTransaction>,
    booked: Vec<(String, i64)>,
    user_sites: HashMap<String, Site>,
    next_user: u64,
    next_audit: i64,
    next_seat: u64,
    epoch_base: Database,
    records_seen: usize,
    /// WAL bytes covering schema install + initial bulk load; crash cuts
    /// never land inside this prefix (setup is synced before traffic).
    setup_bytes: usize,
    /// Every executed step, in order (see [`TraceEntry`]).
    trace: Vec<TraceEntry>,
}

impl Driver {
    fn new(seed: u64, cfg: &SimConfig) -> Result<Driver, Violation> {
        let qcfg = cfg.quantum_config(seed);
        let engine = Engine::build(cfg, qcfg.clone()).map_err(|e| Violation {
            kind: "setup".into(),
            detail: e,
            op_index: 0,
        })?;
        let mut d = Driver {
            cfg: cfg.clone(),
            seed,
            qcfg,
            engine,
            hist: History::new(cfg.clients),
            rng: StdRng::seed_from_u64(seed ^ 0x5EED_5EED_5EED_5EED),
            stats: CheckStats::default(),
            op_index: 0,
            commits: 0,
            aborts: 0,
            crashes: 0,
            uncertain_reads: 0,
            capacity: BTreeMap::new(),
            audit_live: Vec::new(),
            txn_bodies: HashMap::new(),
            booked: Vec::new(),
            user_sites: HashMap::new(),
            next_user: 0,
            next_audit: 0,
            next_seat: 0,
            epoch_base: Database::new(),
            records_seen: 0,
            setup_bytes: 0,
            trace: Vec::new(),
        };
        for f in cfg.flights.flight_numbers() {
            d.capacity.insert(f, cfg.flights.seats_per_flight());
        }
        // Baseline the first epoch on the freshly installed state.
        let image = d.engine.wal_image();
        let (records, _) = replay_bytes(&image)
            .map_err(|e| d.viol("setup", format!("initial WAL unreadable: {e}")))?;
        d.records_seen = records.len();
        d.setup_bytes = image.len();
        d.epoch_base = d.engine.with_db(Database::clone);
        Ok(d)
    }

    fn viol(&self, kind: &str, detail: String) -> Violation {
        Violation {
            kind: kind.to_string(),
            detail,
            op_index: self.op_index,
        }
    }

    fn engine_err(&self, e: String) -> Violation {
        self.viol("engine_error", e)
    }

    fn drive(&mut self) -> Result<(), Violation> {
        let streams = build_client_streams(
            &self.cfg.flights,
            self.cfg.clients,
            self.cfg.ops_per_client,
            self.seed,
            &self.cfg.profile,
        );
        let total = self.cfg.total_ops() as u64;
        let mut crash_at: BTreeSet<u64> = BTreeSet::new();
        if self.cfg.crash && total > 1 {
            let mut tries = 0;
            while crash_at.len() < self.cfg.crash_count && tries < 64 {
                crash_at.insert(self.rng.gen_range(1..total as usize) as u64);
                tries += 1;
            }
        }
        let mut cursors = vec![0usize; self.cfg.clients];
        loop {
            let live: Vec<usize> = (0..self.cfg.clients)
                .filter(|&c| cursors[c] < self.cfg.ops_per_client)
                .collect();
            if live.is_empty() {
                break;
            }
            let c = live[self.rng.gen_range(0..live.len())];
            let op = streams[c][cursors[c]].clone();
            cursors[c] += 1;
            self.trace.push(TraceEntry::Op {
                client: c,
                op: op.clone(),
            });
            self.exec(c, &op)?;
            self.check_invariants()?;
            self.op_index += 1;
            if crash_at.remove(&self.op_index) {
                self.crash(None)?;
            } else if self.cfg.ser_interval > 0
                && self.op_index.is_multiple_of(self.cfg.ser_interval)
            {
                self.ser_check()?;
            }
        }
        self.ser_check()
    }

    /// Replay a recorded (possibly shrunk) trace: execute exactly the
    /// listed steps, skipping the scheduler and crash-sampling RNG. The
    /// per-op invariant checks and the epoch cadence are preserved, so a
    /// violation reproduces with the same kind through the same checker.
    fn drive_trace(&mut self, trace: &[TraceEntry]) -> Result<(), Violation> {
        for (i, entry) in trace.iter().enumerate() {
            match entry {
                TraceEntry::Op { client, op } => {
                    let c = *client;
                    if c >= self.cfg.clients {
                        continue; // shrunk trace from a wider config
                    }
                    self.trace.push(TraceEntry::Op {
                        client: c,
                        op: op.clone(),
                    });
                    self.exec(c, op)?;
                    self.check_invariants()?;
                    self.op_index += 1;
                    // Match drive(): an op followed by a crash closes its
                    // epoch inside the crash, not via the cadence check.
                    let next_is_crash = matches!(trace.get(i + 1), Some(TraceEntry::Crash { .. }));
                    if !next_is_crash
                        && self.cfg.ser_interval > 0
                        && self.op_index.is_multiple_of(self.cfg.ser_interval)
                    {
                        self.ser_check()?;
                    }
                }
                TraceEntry::Crash { cut, fault } => self.crash(Some((*cut, *fault)))?,
            }
        }
        self.ser_check()
    }

    // -- statement execution ------------------------------------------------

    fn exec(&mut self, c: usize, op: &SimOp) -> Result<(), Violation> {
        match op {
            SimOp::Book { flight } => self.book(c, *flight, None),
            SimOp::BookEntangled { flight, partner } => self.book(c, *flight, Some(*partner)),
            SimOp::Read { target } => self.read_collapse(c, *target),
            SimOp::Peek { target } => self.read_uncertain(c, *target, ReadKind::Peek),
            SimOp::Possible { target } => self.read_uncertain(c, *target, ReadKind::Possible),
            SimOp::Ground { nth } => {
                let ids = self.engine.pending_ids();
                if ids.is_empty() {
                    self.noop(c, "GROUND");
                    return Ok(());
                }
                let id = ids[nth % ids.len()];
                let collapsed = self.engine.ground(c, id).map_err(|e| self.engine_err(e))?;
                self.hist.record(c, Event::Ground { id, collapsed });
                Ok(())
            }
            SimOp::GroundAll => {
                self.engine.ground_all(c).map_err(|e| self.engine_err(e))?;
                self.hist.record(c, Event::GroundAll);
                Ok(())
            }
            SimOp::Checkpoint => {
                self.engine.checkpoint(c).map_err(|e| self.engine_err(e))?;
                self.hist.record(c, Event::Checkpoint);
                Ok(())
            }
            SimOp::AuditInsert => {
                let tag = self.next_audit;
                self.next_audit += 1;
                let applied = self.blind_write(
                    c,
                    WriteOp::insert("Audit", tuple![tag]),
                    format!("+Audit({tag})"),
                )?;
                if applied {
                    self.audit_live.push(tag);
                }
                Ok(())
            }
            SimOp::AuditDelete { nth } => {
                if self.audit_live.is_empty() {
                    self.noop(c, "AUDIT-DELETE");
                    return Ok(());
                }
                let tag = self.audit_live[nth % self.audit_live.len()];
                let applied = self.blind_write(
                    c,
                    WriteOp::delete("Audit", tuple![tag]),
                    format!("-Audit({tag})"),
                )?;
                if applied {
                    self.audit_live.retain(|t| *t != tag);
                }
                Ok(())
            }
            SimOp::SeatAdd { flight } => {
                let fnum = self.cfg.flight_num(*flight);
                let seat = format!("Z{}", self.next_seat);
                self.next_seat += 1;
                let applied = self.blind_write(
                    c,
                    WriteOp::insert("Available", tuple![fnum, seat.as_str()]),
                    format!("+Available({fnum},{seat})"),
                )?;
                if applied {
                    *self.capacity.entry(fnum).or_insert(0) += 1;
                }
                Ok(())
            }
            SimOp::SeatRemove { flight, nth } => {
                let fnum = self.cfg.flight_num(*flight);
                let mut seats: Vec<String> = self.engine.with_db(|db| {
                    db.table("Available")
                        .map(|t| {
                            t.iter()
                                .filter(|r| r.get(0).and_then(|v| v.as_int()) == Some(fnum))
                                .filter_map(|r| r.get(1).and_then(|v| v.as_str()).map(String::from))
                                .collect()
                        })
                        .unwrap_or_default()
                });
                seats.sort();
                if seats.is_empty() {
                    self.noop(c, "SEAT-REMOVE");
                    return Ok(());
                }
                let seat = seats[nth % seats.len()].clone();
                let applied = self.blind_write(
                    c,
                    WriteOp::delete("Available", tuple![fnum, seat.as_str()]),
                    format!("-Available({fnum},{seat})"),
                )?;
                if applied {
                    let cap = self.capacity.entry(fnum).or_insert(0);
                    *cap = cap.saturating_sub(1);
                }
                Ok(())
            }
        }
    }

    fn noop(&mut self, c: usize, op: &str) {
        self.hist.record(c, Event::Noop { op: op.to_string() });
    }

    fn blind_write(&mut self, c: usize, op: WriteOp, desc: String) -> Result<bool, Violation> {
        let applied = self.engine.write(c, &op).map_err(|e| self.engine_err(e))?;
        self.hist.record(c, Event::Write { desc, applied });
        Ok(applied)
    }

    fn book(&mut self, c: usize, flight: usize, partner: Option<usize>) -> Result<(), Violation> {
        let fnum = self.cfg.flight_num(flight);
        let user = format!("u{}", self.next_user);
        self.next_user += 1;
        let (txn, sql, entangled) = {
            let candidates: Vec<&str> = match partner {
                Some(_) => self
                    .booked
                    .iter()
                    .filter(|(_, f)| *f == fnum)
                    .map(|(u, _)| u.as_str())
                    .collect(),
                None => Vec::new(),
            };
            match partner {
                Some(p) if !candidates.is_empty() => {
                    let mate = candidates[p % candidates.len()];
                    (
                        entangled_booking(&user, mate, fnum),
                        booking_sql(&user, Some(mate), fnum),
                        true,
                    )
                }
                _ => (
                    solo_booking(&user, fnum),
                    booking_sql(&user, None, fnum),
                    false,
                ),
            }
        };
        let outcome = self
            .engine
            .submit(c, &sql)
            .map_err(|e| self.engine_err(e))?;
        match outcome {
            SubmitOutcome::Committed { id } => {
                self.commits += 1;
                self.txn_bodies.insert(id, txn);
                self.booked.push((user.clone(), fnum));
                let site = self.hist.record(
                    c,
                    Event::Submit {
                        user: user.clone(),
                        flight: fnum,
                        entangled,
                        id: Some(id),
                    },
                );
                self.user_sites.insert(user, site);
            }
            SubmitOutcome::Aborted => {
                self.aborts += 1;
                self.hist.record(
                    c,
                    Event::Submit {
                        user,
                        flight: fnum,
                        entangled,
                        id: None,
                    },
                );
            }
        }
        Ok(())
    }

    fn pick_booked(&self, target: usize) -> Option<String> {
        if self.booked.is_empty() {
            None
        } else {
            Some(self.booked[target % self.booked.len()].0.clone())
        }
    }

    /// Phantom check: non-empty answers require a known committed writer.
    fn wr_site(&self, user: &str, observed_rows: bool) -> Result<Option<Site>, Violation> {
        if !observed_rows {
            return Ok(None);
        }
        match self.user_sites.get(user) {
            Some(site) => Ok(Some(*site)),
            None => Err(self.viol(
                "phantom_read",
                format!("rows observed for {user}, who has no committed submission"),
            )),
        }
    }

    fn read_collapse(&mut self, c: usize, target: usize) -> Result<(), Violation> {
        let Some(user) = self.pick_booked(target) else {
            self.noop(c, "READ");
            return Ok(());
        };
        let atoms = booking_atoms(&user);
        let rows = self
            .engine
            .rows(c, ReadKind::Collapse, &user)
            .map_err(|e| self.engine_err(e))?;
        // Collapse reads must fully hide uncertainty: the answer is the
        // extensional answer at return time, verified by an independent
        // evaluator.
        let ext = self
            .engine
            .with_db(|db| eval_atoms(db, &atoms, None))
            .map_err(|e| self.viol("storage_error", e.to_string()))?;
        if canon_set(&rows) != canon_set(&ext) {
            return Err(self.viol(
                "read_not_collapsed",
                format!(
                    "READ {user}: engine returned {} rows, extensional state holds {}",
                    rows.len(),
                    ext.len()
                ),
            ));
        }
        self.stats.reads_checked += 1;
        let wr = self.wr_site(&user, !rows.is_empty())?;
        self.hist.record(
            c,
            Event::Read {
                kind: ReadKind::Collapse,
                user,
                answers: rows.len(),
                wr,
            },
        );
        Ok(())
    }

    fn read_uncertain(&mut self, c: usize, target: usize, kind: ReadKind) -> Result<(), Violation> {
        let Some(user) = self.pick_booked(target) else {
            self.noop(
                c,
                if kind == ReadKind::Peek {
                    "PEEK"
                } else {
                    "POSSIBLE"
                },
            );
            return Ok(());
        };
        let atoms = booking_atoms(&user);
        self.uncertain_reads += 1;
        let sampled = self.cfg.explain_sample > 0
            && self.uncertain_reads.is_multiple_of(self.cfg.explain_sample);
        let (answers, observed_rows) = match kind {
            ReadKind::Peek => {
                let rows = self
                    .engine
                    .rows(c, ReadKind::Peek, &user)
                    .map_err(|e| self.engine_err(e))?;
                if sampled {
                    self.explain(&atoms, &[canon_set(&rows)], "peek")?;
                }
                (rows.len(), !rows.is_empty())
            }
            ReadKind::Possible => {
                let families = self
                    .engine
                    .worlds(c, &user)
                    .map_err(|e| self.engine_err(e))?;
                if sampled {
                    let sets: Vec<CanonSet> = canon_family(&families).into_iter().collect();
                    self.explain(&atoms, &sets, "possible")?;
                }
                (families.len(), families.iter().any(|f| !f.is_empty()))
            }
            ReadKind::Collapse => unreachable!("collapse reads use read_collapse"),
        };
        let wr = self.wr_site(&user, observed_rows)?;
        self.hist.record(
            c,
            Event::Read {
                kind,
                user,
                answers,
                wr,
            },
        );
        Ok(())
    }

    /// Explainability: every answer (set) the engine returned must be the
    /// evaluation of some possible world over the currently pending
    /// transactions, independently enumerated from the extensional state.
    fn explain(
        &mut self,
        atoms: &[Atom],
        targets: &[CanonSet],
        what: &str,
    ) -> Result<(), Violation> {
        let ids = self.engine.pending_ids();
        let mut txns: Vec<&ResourceTransaction> = Vec::with_capacity(ids.len());
        for id in &ids {
            match self.txn_bodies.get(id) {
                Some(t) => txns.push(t),
                None => {
                    return Err(self.viol(
                        "model_desync",
                        format!("pending T{id} unknown to the driver model"),
                    ))
                }
            }
        }
        let bound = self.cfg.world_bound;
        let seed = self.seed;
        // Enumerate worlds and evaluate each with the checker's own
        // evaluator; any enumeration/evaluation failure (e.g. solver
        // budget) downgrades to a skip, never a violation.
        let verdict: Result<(Vec<CanonSet>, bool), String> = self.engine.with_db(|db| {
            let ws = enumerate_worlds_seeded(db, &txns, bound, seed).map_err(|e| e.to_string())?;
            let mut sets = Vec::with_capacity(ws.worlds.len());
            for world in &ws.worlds {
                let view = WorldView::new(ws.base, world);
                let ans = eval_atoms(&view, atoms, None).map_err(|e| e.to_string())?;
                sets.push(canon_set(&ans));
            }
            Ok((sets, ws.truncated))
        });
        let (world_sets, truncated) = match verdict {
            Ok(v) => v,
            Err(_) => {
                self.stats.explain_skipped += 1;
                return Ok(());
            }
        };
        let all_found = targets.iter().all(|t| world_sets.contains(t));
        if all_found {
            self.stats.explain_checked += 1;
            Ok(())
        } else if truncated {
            self.stats.explain_skipped += 1;
            Ok(())
        } else {
            Err(self.viol(
                &format!("{what}_unexplainable"),
                format!(
                    "{} pending txns yield {} possible worlds, none explains the returned answer",
                    txns.len(),
                    world_sets.len()
                ),
            ))
        }
    }

    // -- invariants ---------------------------------------------------------

    fn check_invariants(&mut self) -> Result<(), Violation> {
        self.stats.invariant_checks += 1;
        let (committed, grounded, pending) = self.engine.accounting();
        if committed < grounded || committed - grounded != pending {
            return Err(self.viol(
                "accounting",
                format!("committed − grounded ≠ pending: {committed} − {grounded} ≠ {pending}"),
            ));
        }
        let offset = match self.cfg.mutation {
            Some(Mutation::OverstateCapacity) => 1usize,
            // WAL faults corrupt the log image, not the checker model.
            Some(Mutation::CorruptWalByte) | Some(Mutation::DropGroupFlush) | None => 0,
        };
        let capacity = self.capacity.clone();
        let problem = self
            .engine
            .with_db(|db| domain_check(db, &capacity, offset));
        if let Some(detail) = problem {
            return Err(self.viol("conservation", detail));
        }
        Ok(())
    }

    // -- epoch serializability ----------------------------------------------

    fn ser_check(&mut self) -> Result<(), Violation> {
        let image = self.engine.wal_image();
        let (records, _) =
            replay_bytes(&image).map_err(|e| self.viol("wal_unreadable", e.to_string()))?;
        let mut by_id: HashMap<TxnId, ResourceTransaction> = HashMap::new();
        for r in &records {
            if let LogRecord::PendingAdd { id, payload } = r {
                let txn = decode_transaction(payload)
                    .map_err(|e| self.viol("wal_undecodable", format!("T{id}: {e}")))?;
                by_id.insert(*id, txn);
            }
        }
        let mut recs: Vec<GroundedRec> = Vec::new();
        for r in &records[self.records_seen..] {
            match r {
                LogRecord::Ground { id, ops } => {
                    let txn = by_id.get(id).cloned();
                    if txn.is_none() {
                        return Err(self.viol(
                            "ground_without_commit",
                            format!("Ground record for T{id} with no PendingAdd in the log"),
                        ));
                    }
                    recs.push(GroundedRec {
                        id: Some(*id),
                        txn,
                        ops: ops.clone(),
                    });
                }
                LogRecord::Write(op) => recs.push(GroundedRec {
                    id: None,
                    txn: None,
                    ops: vec![op.clone()],
                }),
                _ => {}
            }
        }
        // Replay equivalence: base ⊕ epoch ops (WAL order) must equal the
        // engine's current extensional state.
        let mut replayed = self.epoch_base.clone();
        for rec in &recs {
            for op in &rec.ops {
                replayed
                    .apply(op)
                    .map_err(|e| self.viol("replay_error", e.to_string()))?;
            }
        }
        let expect = world_fingerprint(&replayed);
        let actual = self.engine.with_db(world_fingerprint);
        self.stats.replay_checks += 1;
        if expect != actual {
            return Err(self.viol(
                "replay_divergence",
                format!(
                    "epoch base + {} WAL records does not reproduce the engine state",
                    recs.len()
                ),
            ));
        }
        self.stats.ser_checks += 1;
        let (outcome, greedy) = check_serializable(&self.epoch_base, &recs, self.cfg.dfs_budget);
        match outcome {
            SerOutcome::Serializable { .. } => {
                if greedy {
                    self.stats.ser_greedy += 1;
                } else {
                    self.stats.ser_dfs += 1;
                }
            }
            SerOutcome::Inconclusive { .. } => self.stats.ser_inconclusive += 1,
            SerOutcome::Violation { detail } => {
                return Err(self.viol("not_serializable", detail));
            }
        }
        // Open the next epoch at the verified state.
        self.epoch_base = replayed;
        self.records_seen = records.len();
        Ok(())
    }

    // -- crash injection ----------------------------------------------------

    /// Sample a WAL fault for the active mutation against the cut prefix.
    /// Faults never touch the setup prefix (a real deployment syncs the
    /// schema install before serving traffic).
    fn plan_fault(&mut self, prefix: &[u8]) -> Option<SinkFault> {
        match self.cfg.mutation {
            Some(Mutation::CorruptWalByte) if prefix.len() > self.setup_bytes => {
                Some(SinkFault::FlipByte {
                    offset: self.rng.gen_range(self.setup_bytes..prefix.len()) as u64,
                })
            }
            Some(Mutation::DropGroupFlush) => {
                let spans: Vec<(u64, u64)> = frame_spans(prefix)
                    .into_iter()
                    .filter(|(start, _)| *start >= self.setup_bytes as u64)
                    .collect();
                if spans.is_empty() {
                    return None;
                }
                let i = self.rng.gen_range(0..spans.len());
                let max_run = (spans.len() - i).min(4);
                let run = 1 + self.rng.gen_range(0..max_run);
                Some(SinkFault::DropRange {
                    offset: spans[i].0,
                    len: spans[i + run - 1].1 - spans[i].0,
                })
            }
            _ => None,
        }
    }

    /// Independently rebuild the post-recovery state a log image implies.
    fn replay_model(
        &self,
        records: &[LogRecord],
    ) -> Result<(Database, BTreeMap<TxnId, ResourceTransaction>), Violation> {
        let mut mdb = Database::new();
        let mut pending: BTreeMap<TxnId, ResourceTransaction> = BTreeMap::new();
        for r in records {
            match r {
                LogRecord::CreateTable(schema) => {
                    mdb.create_table(schema.clone())
                        .map_err(|e| self.viol("replay_error", e.to_string()))?;
                }
                LogRecord::CreateIndex { .. } | LogRecord::Checkpoint => {}
                LogRecord::Write(op) => {
                    mdb.apply(op)
                        .map_err(|e| self.viol("replay_error", e.to_string()))?;
                }
                LogRecord::PendingAdd { id, payload } => {
                    let txn = decode_transaction(payload)
                        .map_err(|e| self.viol("wal_undecodable", format!("T{id}: {e}")))?;
                    pending.insert(*id, txn);
                }
                LogRecord::PendingRemove { id } => {
                    pending.remove(id);
                }
                LogRecord::Ground { id, ops } => {
                    pending.remove(id);
                    for op in ops {
                        mdb.apply(op)
                            .map_err(|e| self.viol("replay_error", e.to_string()))?;
                    }
                }
            }
        }
        Ok((mdb, pending))
    }

    /// Crash, optionally corrupt the surviving log, recover, verify.
    ///
    /// `plan` replays a recorded crash (trace mode); `None` samples the
    /// cut — and, under a WAL mutation, a fault — from the run RNG. Two
    /// models are rebuilt independently: the **faulted** model (replay of
    /// the bytes the engine actually recovers from) and the **pristine**
    /// model (replay of the uncorrupted prefix). The engine must match
    /// the faulted model exactly — recovery lands on the longest
    /// checksum-valid prefix of what the media holds, no garbage applied
    /// (`recovery_pending_mismatch` / `recovery_state_mismatch`
    /// otherwise) — and any client-visible divergence from the pristine
    /// model is reported as `recovery_divergence`, which is precisely
    /// what the WAL mutations must trigger.
    fn crash(&mut self, plan: Option<(u64, Option<SinkFault>)>) -> Result<(), Violation> {
        // Close the epoch first so the cut never spans an unchecked epoch.
        self.ser_check()?;
        let image = self.engine.wal_image();
        let (cut, fault) = match plan {
            Some((cut, fault)) => ((cut as usize).min(image.len()), fault),
            None => {
                let cut = self.rng.gen_range(self.setup_bytes..image.len() + 1);
                (cut, self.plan_fault(&image[..cut]))
            }
        };
        self.trace.push(TraceEntry::Crash {
            cut: cut as u64,
            fault,
        });
        let prefix = image[..cut].to_vec();
        let faults: Vec<SinkFault> = fault.into_iter().collect();
        let faulted = apply_faults(&prefix, &faults);
        let (precords, _) =
            replay_bytes(&prefix).map_err(|e| self.viol("wal_unreadable", e.to_string()))?;
        let (pdb, ppending) = self.replay_model(&precords)?;
        let pristine_ids: Vec<TxnId> = ppending.keys().copied().collect();
        let pristine_fp = world_fingerprint(&pdb);
        let (records, pending, mdb);
        if faults.is_empty() {
            (records, mdb, pending) = (precords, pdb, ppending);
        } else {
            let (frecords, _) =
                replay_bytes(&faulted).map_err(|e| self.viol("wal_unreadable", e.to_string()))?;
            let (fdb, fpending) = self.replay_model(&frecords)?;
            (records, mdb, pending) = (frecords, fdb, fpending);
        }
        let survivors = pending.len();
        let engine =
            Engine::recover(&self.cfg, prefix, self.qcfg.clone(), &faults).map_err(|e| {
                self.viol(
                    "recovery_failed",
                    format!("cut at byte {cut} of {}: {e}", image.len()),
                )
            })?;
        self.stats.recovery_checks += 1;
        // The engine must land exactly on the longest checksum-valid
        // prefix of the (possibly faulted) media bytes.
        let got_ids = engine.pending_ids();
        let want_ids: Vec<TxnId> = pending.keys().copied().collect();
        if got_ids != want_ids {
            return Err(self.viol(
                "recovery_pending_mismatch",
                format!("recovered pending {got_ids:?}, WAL prefix implies {want_ids:?}"),
            ));
        }
        let got_fp = engine.with_db(world_fingerprint);
        if got_fp != world_fingerprint(&mdb) {
            return Err(self.viol(
                "recovery_state_mismatch",
                format!("recovered extensional state diverges from WAL prefix replay (cut {cut})"),
            ));
        }
        // Durability: the recovered state must also match what the
        // *pristine* prefix implies — an injected fault that changed
        // anything client-visible is a detected loss of acknowledged
        // history. This is the check the WAL mutations arm.
        if !faults.is_empty() && (got_ids != pristine_ids || got_fp != pristine_fp) {
            return Err(self.viol(
                "recovery_divergence",
                format!(
                    "recovered state diverges from the pristine WAL prefix \
                     (cut {cut}, fault {fault:?})"
                ),
            ));
        }
        // Adopt the recovered engine and rebaseline the checker model.
        self.engine = engine;
        self.crashes += 1;
        self.capacity = self
            .cfg
            .flights
            .flight_numbers()
            .map(|f| (f, count_flight_rows(&mdb, f)))
            .collect();
        self.audit_live = mdb
            .table("Audit")
            .map(|t| {
                let mut tags: Vec<i64> = t.iter().filter_map(|r| r.get(0)?.as_int()).collect();
                tags.sort_unstable();
                tags
            })
            .unwrap_or_default();
        self.booked = {
            let mut booked: Vec<(String, i64)> = mdb
                .table("Bookings")
                .map(|t| {
                    t.iter()
                        .filter_map(|r| {
                            Some((r.get(0)?.as_str()?.to_string(), r.get(1)?.as_int()?))
                        })
                        .collect()
                })
                .unwrap_or_default();
            for txn in pending.values() {
                if let Some(uf) = booking_user_flight(txn) {
                    booked.push(uf);
                }
            }
            booked
        };
        self.txn_bodies = pending.into_iter().collect();
        self.epoch_base = mdb;
        self.records_seen = records.len();
        self.hist.record(
            self.cfg.clients,
            Event::Crash {
                cut,
                wal_len: image.len(),
                survivors,
            },
        );
        Ok(())
    }

    fn finish(self, violation: Option<Violation>) -> RunResult {
        let fingerprint = self.engine.with_db(world_fingerprint);
        let mut digest = self.hist.digest();
        for b in fingerprint.as_bytes() {
            digest ^= u64::from(*b);
            digest = digest.wrapping_mul(0x1000_0000_01b3);
        }
        let obs_events = self
            .engine
            .shared
            .obs()
            .events(crate::artifact::TAIL_EVENTS);
        RunResult {
            seed: self.seed,
            engine: self.cfg.engine.label(),
            ops: self.op_index,
            commits: self.commits,
            aborts: self.aborts,
            crashes: self.crashes,
            stats: self.stats,
            violation,
            fingerprint,
            digest,
            history: self.hist,
            obs_events,
            trace: self.trace,
        }
    }
}

/// Per-flight `Available` + `Bookings` row count (the conserved quantity).
fn count_flight_rows(db: &Database, flight: i64) -> usize {
    let count = |rel: &str, col: usize| {
        db.table(rel)
            .map(|t| {
                t.iter()
                    .filter(|r| r.get(col).and_then(|v| v.as_int()) == Some(flight))
                    .count()
            })
            .unwrap_or(0)
    };
    count("Available", 0) + count("Bookings", 1)
}

/// Domain invariants over the extensional state: seat conservation per
/// flight, no double-booked seat, no double-booked user, no seat both
/// available and booked.
fn domain_check(db: &Database, capacity: &BTreeMap<i64, usize>, offset: usize) -> Option<String> {
    let mut seen_seats: BTreeSet<(i64, String)> = BTreeSet::new();
    let mut seen_users: BTreeSet<String> = BTreeSet::new();
    if let Ok(t) = db.table("Bookings") {
        for row in t.iter() {
            let user = row.get(0)?.as_str()?.to_string();
            let flight = row.get(1)?.as_int()?;
            let seat = row.get(2)?.as_str()?.to_string();
            if !seen_seats.insert((flight, seat.clone())) {
                return Some(format!("seat {seat} on flight {flight} double-booked"));
            }
            if !seen_users.insert(user.clone()) {
                return Some(format!("user {user} holds more than one booking"));
            }
            if db.contains("Available", &tuple![flight, seat.as_str()]) {
                return Some(format!(
                    "seat {seat} on flight {flight} is both available and booked"
                ));
            }
        }
    }
    for (flight, cap) in capacity {
        let have = count_flight_rows(db, *flight);
        if have != cap + offset {
            return Some(format!(
                "flight {flight}: |Available| + |Bookings| = {have}, expected {}",
                cap + offset
            ));
        }
    }
    None
}

/// Execute one seeded run against the configured engine and return the
/// full result (the run never panics on a violation — it stops and
/// reports).
pub fn run_seed(seed: u64, cfg: &SimConfig) -> RunResult {
    match Driver::new(seed, cfg) {
        Ok(mut d) => {
            let violation = d.drive().err();
            d.finish(violation)
        }
        Err(v) => failed_setup(seed, cfg, v),
    }
}

/// Re-execute a recorded (possibly shrunk) op trace instead of drawing
/// ops from the seeded streams. The seed still controls engine
/// tie-breaking and world enumeration, so a trace replayed under its
/// original seed reproduces the original run exactly; crash entries
/// carry their cut and fault inline, so replay is independent of how
/// many RNG draws the original schedule consumed.
pub fn run_trace(seed: u64, cfg: &SimConfig, trace: &[TraceEntry]) -> RunResult {
    match Driver::new(seed, cfg) {
        Ok(mut d) => {
            let violation = d.drive_trace(trace).err();
            d.finish(violation)
        }
        Err(v) => failed_setup(seed, cfg, v),
    }
}

fn failed_setup(seed: u64, cfg: &SimConfig, v: Violation) -> RunResult {
    RunResult {
        seed,
        engine: cfg.engine.label(),
        ops: 0,
        commits: 0,
        aborts: 0,
        crashes: 0,
        stats: CheckStats::default(),
        violation: Some(v),
        fingerprint: String::new(),
        digest: 0,
        history: History::new(cfg.clients),
        obs_events: Vec::new(),
        trace: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(engine: EngineKind) -> SimConfig {
        SimConfig {
            clients: 3,
            ops_per_client: 60,
            crash_count: 1,
            ser_interval: 40,
            ..SimConfig::smoke(engine)
        }
    }

    #[test]
    fn same_seed_same_run() {
        for engine in [EngineKind::Sharded, EngineKind::Wire] {
            let cfg = tiny(engine);
            let a = run_seed(11, &cfg);
            let b = run_seed(11, &cfg);
            assert!(
                a.violation.is_none(),
                "unexpected violation: {:?}",
                a.violation
            );
            assert_eq!(a.digest, b.digest, "{engine:?} run is not deterministic");
            assert_eq!(a.fingerprint, b.fingerprint);
            assert_eq!(a.commits, b.commits);
            assert_eq!(a.history.len(), b.history.len());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let cfg = tiny(EngineKind::Sharded);
        let a = run_seed(1, &cfg);
        let b = run_seed(2, &cfg);
        assert_ne!(a.digest, b.digest);
    }

    #[test]
    fn clean_runs_have_no_violations_and_exercise_the_checkers() {
        let cfg = tiny(EngineKind::Sharded);
        for seed in [3, 4, 5] {
            let r = run_seed(seed, &cfg);
            assert!(
                r.violation.is_none(),
                "seed {seed}: {:?}\ntail:\n{}",
                r.violation,
                r.history.tail_lines(20).join("\n")
            );
            assert_eq!(r.ops, cfg.total_ops() as u64);
            assert!(r.stats.ser_checks > 0);
            assert!(r.stats.invariant_checks >= r.ops);
            assert!(r.crashes >= 1, "seed {seed}: no crash injected");
        }
    }

    #[test]
    fn mutation_induces_a_violation() {
        let cfg = SimConfig {
            mutation: Some(Mutation::OverstateCapacity),
            ..tiny(EngineKind::Sharded)
        };
        let r = run_seed(7, &cfg);
        let v = r.violation.expect("overstated capacity must be caught");
        assert_eq!(v.kind, "conservation");
    }

    /// The SQL the wire engine sends must parse to the *identical*
    /// `ResourceTransaction` the in-process engines submit — var ids
    /// are assigned in first-appearance order by both parsers, and the
    /// solver hashes (seed, atom index), so textual equivalence here is
    /// what makes cross-engine digests comparable at all.
    #[test]
    fn booking_sql_parses_to_the_datalog_transaction() {
        use qdb_logic::parse_sql_transaction;
        let solo = parse_sql_transaction(&booking_sql("u1", None, 7)).unwrap();
        assert_eq!(solo, solo_booking("u1", 7));
        let ent = parse_sql_transaction(&booking_sql("u1", Some("u2"), 7)).unwrap();
        assert_eq!(ent, entangled_booking("u1", "u2", 7));
    }

    /// Every blind write the driver issues — `Audit` tags from its
    /// counter, `Available` seats it adds (`Z{n}`) or picks from the
    /// installed ones — must render to SQL that parses back to the same
    /// write. Both builds send this text, so the cross-engine parity test
    /// cannot catch a mistake in it.
    #[test]
    fn write_sql_parses_to_the_write_op() {
        use qdb_logic::stmt::Statement;
        let installed = qdb_workload::flights::seat_label(3, 1);
        for op in [
            WriteOp::insert("Audit", tuple![0]),
            WriteOp::delete("Audit", tuple![4_096]),
            WriteOp::insert("Available", tuple![2, "Z17"]),
            WriteOp::delete("Available", tuple![2, "Z17"]),
            WriteOp::delete("Available", tuple![1, installed.as_str()]),
        ] {
            let sql = write_sql(&op);
            let stmt = (qdb_logic::parse_statement(&sql))
                .and_then(|parsed| parsed.into_statement())
                .unwrap_or_else(|e| panic!("{sql:?}: {e}"));
            let (relation, rows, write): (
                _,
                _,
                fn(qdb_storage::Str, qdb_storage::Tuple) -> WriteOp,
            ) = match stmt {
                Statement::Insert { relation, rows } => (relation, rows, WriteOp::insert),
                Statement::Delete { relation, rows } => (relation, rows, WriteOp::delete),
                other => panic!("{sql:?} parsed to {other:?}"),
            };
            let [row] = rows.as_slice() else {
                panic!("{sql:?} writes {} rows", rows.len());
            };
            let values = row.iter().map(|term| match term {
                Term::Const(v) => v.clone(),
                Term::Var(v) => panic!("{sql:?} has a variable {v}"),
            });
            assert_eq!(write(relation, values.collect()), op, "{sql}");
        }
    }

    #[test]
    fn wire_engine_runs_clean() {
        let cfg = tiny(EngineKind::Wire);
        for seed in [3, 5] {
            let r = run_seed(seed, &cfg);
            assert!(
                r.violation.is_none(),
                "wire seed {seed}: {:?}\ntail:\n{}",
                r.violation,
                r.history.tail_lines(20).join("\n")
            );
            assert_eq!(r.ops, cfg.total_ops() as u64);
            assert!(r.crashes >= 1, "wire seed {seed}: no crash injected");
        }
    }

    /// Same seed through every engine gives the same client-visible
    /// history: the wire path may not change what any client observes,
    /// only how statements travel. POSSIBLE answer sets are the one
    /// documented exclusion (see [`History::parity_digest`]).
    #[test]
    fn engines_agree_on_the_client_visible_history() {
        let runs: Vec<RunResult> = [EngineKind::Sharded, EngineKind::Wire]
            .into_iter()
            .map(|engine| run_seed(11, &tiny(engine)))
            .collect();
        for r in &runs {
            assert!(r.violation.is_none(), "{}: {:?}", r.engine, r.violation);
        }
        for r in &runs[1..] {
            assert_eq!(
                (
                    r.history.parity_digest(),
                    r.fingerprint.as_str(),
                    r.commits,
                    r.aborts,
                    r.crashes
                ),
                (
                    runs[0].history.parity_digest(),
                    runs[0].fingerprint.as_str(),
                    runs[0].commits,
                    runs[0].aborts,
                    runs[0].crashes
                ),
                "engine {} diverges from {}",
                r.engine,
                runs[0].engine
            );
        }
    }

    /// Every registered mutation must make the checker fire, as a kind it
    /// is meant to cause, within 20 seeds at the config CI sweeps
    /// ([`SimConfig::smoke`]) — a mutation that never triggers is dead
    /// weight that would rot silently, and the clean sweeps' zero
    /// violations would then prove less than they claim.
    #[test]
    fn every_mutation_fires_within_budget() {
        for m in Mutation::all() {
            let allowed: &[&str] = match m {
                Mutation::OverstateCapacity => &["conservation"],
                Mutation::CorruptWalByte | Mutation::DropGroupFlush => {
                    &["recovery_divergence", "recovery_failed"]
                }
            };
            let cfg = SimConfig {
                mutation: Some(m),
                ..SimConfig::smoke(EngineKind::Sharded)
            };
            let fired = (1..=20).find_map(|seed| run_seed(seed, &cfg).violation.map(|v| (seed, v)));
            let (seed, v) =
                fired.unwrap_or_else(|| panic!("mutation {} never fired in 20 seeds", m.name()));
            assert!(
                allowed.contains(&v.kind.as_str()),
                "mutation {} fired as unexpected kind {:?} (seed {seed}): {}",
                m.name(),
                v.kind,
                v.detail
            );
        }
    }

    #[test]
    fn trace_entries_roundtrip_through_render_and_parse() {
        let entries = vec![
            TraceEntry::Op {
                client: 2,
                op: SimOp::Book { flight: 3 },
            },
            TraceEntry::Op {
                client: 0,
                op: SimOp::BookEntangled {
                    flight: 1,
                    partner: 4,
                },
            },
            TraceEntry::Op {
                client: 1,
                op: SimOp::Possible { target: 9 },
            },
            TraceEntry::Op {
                client: 1,
                op: SimOp::SeatRemove { flight: 2, nth: 17 },
            },
            TraceEntry::Crash {
                cut: 1234,
                fault: None,
            },
            TraceEntry::Crash {
                cut: 99,
                fault: Some(SinkFault::FlipByte { offset: 55 }),
            },
            TraceEntry::Crash {
                cut: 4096,
                fault: Some(SinkFault::DropRange {
                    offset: 100,
                    len: 42,
                }),
            },
        ];
        for e in &entries {
            let rendered = e.render();
            let back = TraceEntry::parse(&rendered)
                .unwrap_or_else(|| panic!("unparseable trace line {rendered:?}"));
            assert_eq!(&back, e, "roundtrip of {rendered:?}");
        }
    }

    /// Replaying the recorded trace of a violating run under the same
    /// seed reproduces the violation exactly — this is the contract the
    /// shrinker's re-execution oracle depends on.
    #[test]
    fn recorded_trace_replays_to_the_same_violation() {
        let cfg = SimConfig {
            mutation: Some(Mutation::CorruptWalByte),
            ..tiny(EngineKind::Sharded)
        };
        let (seed, original) = (1..=10)
            .map(|seed| (seed, run_seed(seed, &cfg)))
            .find(|(_, r)| r.violation.is_some())
            .expect("corrupt_wal_byte must fire within 10 seeds");
        let v = original.violation.as_ref().unwrap();
        let replay = run_trace(seed, &cfg, &original.trace);
        let rv = replay.violation.expect("trace replay must re-violate");
        assert_eq!(rv.kind, v.kind);
        assert_eq!(rv.op_index, v.op_index);
        assert_eq!(replay.digest, original.digest);
    }
}
