//! Turning generated [`Op`]s into statements, sending them through an
//! [`Executor`], and checking every reply.
//!
//! One [`Client`] is one closed-loop caller: it renders the next call,
//! waits for all of its replies, checks them, and only then goes on. The
//! executor decides *how* a call travels: over a `qdb_client::Connection`
//! pipeline, through prepared statements on a `Session`, or along the
//! hand-driven traced path in [`crate::trace`].

use std::collections::HashMap;
use std::time::Instant;

use qdb_client::Connection;
use qdb_core::{Prepared, Response, Session};
use qdb_storage::Value;

use crate::gen::{name_tag, Class, Generator, Op, Unit, Workload};
use crate::trace::TraceLog;

/// The seven statement shapes of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tmpl {
    /// Entangled booking (6 parameters).
    Book = 0,
    /// `SELECT PEEK` by user.
    Peek = 1,
    /// `SELECT POSSIBLE … LIMIT 32` by user.
    Possible = 2,
    /// Collapse read by user.
    Collapse = 3,
    /// `DELETE FROM Bookings`.
    DelBooking = 4,
    /// `INSERT INTO Available`.
    InsAvail = 5,
    /// `DELETE FROM Available`.
    DelAvail = 6,
}

/// Statement text per [`Tmpl`], with `?` placeholders: prepared as-is by
/// the embedded workloads, filled with literals by the remote ones.
pub const SQL: [&str; 7] = [
    "SELECT @s FROM Available(?, @s), OPTIONAL Bookings(?, ?, @s2), OPTIONAL Adjacent(@s, @s2) \
     CHOOSE 1 FOLLOWED BY (DELETE (?, @s) FROM Available; INSERT (?, ?, @s) INTO Bookings;)",
    "SELECT PEEK @f, @s FROM Bookings(?, @f, @s)",
    "SELECT POSSIBLE @f, @s FROM Bookings(?, @f, @s) LIMIT 32",
    "SELECT @f, @s FROM Bookings(?, @f, @s)",
    "DELETE FROM Bookings VALUES (?, ?, ?)",
    "INSERT INTO Available VALUES (?, ?)",
    "DELETE FROM Available VALUES (?, ?)",
];

/// `Statement::kind()` class names, in [`Tally::sent`] order.
pub const KINDS: [&str; 4] = ["SELECT … CHOOSE 1", "SELECT", "INSERT", "DELETE"];

impl Tmpl {
    fn kind(self) -> usize {
        match self {
            Tmpl::Book => 0,
            Tmpl::Peek | Tmpl::Possible | Tmpl::Collapse => 1,
            Tmpl::InsAvail => 2,
            Tmpl::DelBooking | Tmpl::DelAvail => 3,
        }
    }
}

/// A statement ready to send: shape plus positional values.
pub type Stmt = (Tmpl, Vec<Value>);
/// One statement's reply, or the error text.
pub type Outcome = Result<Response, String>;

/// Fill a template's `?` placeholders with SQL literals.
pub fn render(stmt: &Stmt) -> String {
    let (tmpl, params) = stmt;
    let mut out = String::with_capacity(SQL[*tmpl as usize].len() + 16 * params.len());
    let mut params = params.iter();
    for ch in SQL[*tmpl as usize].chars() {
        if ch != '?' {
            out.push(ch);
            continue;
        }
        match params.next().expect("one value per placeholder") {
            Value::Int(i) => out.push_str(&i.to_string()),
            Value::Str(s) => {
                out.push('\'');
                out.push_str(s);
                out.push('\'');
            }
            Value::Bool(b) => out.push_str(if *b { "TRUE" } else { "FALSE" }),
        }
    }
    out
}

/// How one call reaches the engine.
pub trait Executor: Send {
    /// Execute `stmts` as one call, pushing one outcome per statement.
    /// Returns the nanoseconds the caller waited for the call.
    fn call(&mut self, stmts: &[Stmt], out: &mut Vec<Outcome>) -> u64;

    /// Start recording a span log, if this executor can
    /// ([`crate::trace::HandDriven`]).
    fn start_trace(&mut self) {}

    /// The span log recorded since [`Executor::start_trace`].
    fn take_trace(&mut self) -> Option<TraceLog> {
        None
    }

    /// Round-trip ns of `samples` depth-1 prepared `bind_run` PEEKs, when
    /// this executor has a connection. Scheduler-sensitive: diagnostic only.
    fn rtt_probe(&mut self, _samples: usize) -> Option<Vec<u32>> {
        None
    }
}

/// Remote: one `Connection::pipeline` of SQL text per call.
pub struct RemoteExec {
    /// The connection (also used for the depth-1 RTT probe).
    pub conn: Connection,
}

impl Executor for RemoteExec {
    fn call(&mut self, stmts: &[Stmt], out: &mut Vec<Outcome>) -> u64 {
        let texts: Vec<String> = stmts.iter().map(render).collect();
        let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
        let t0 = Instant::now();
        let replies = self.conn.pipeline(&refs);
        let waited = t0.elapsed().as_nanos() as u64;
        match replies {
            Ok(replies) => out.extend(replies.into_iter().map(|r| r.map_err(|e| e.to_string()))),
            Err(e) => out.extend(stmts.iter().map(|_| Err(format!("transport: {e}")))),
        }
        waited
    }

    fn rtt_probe(&mut self, samples: usize) -> Option<Vec<u32>> {
        let peek = self.conn.prepare(SQL[Tmpl::Peek as usize]).ok()?;
        let nobody = [Value::str("nobody")];
        let mut rtts = Vec::with_capacity(samples);
        for _ in 0..samples {
            let t0 = Instant::now();
            self.conn.bind_run(&peek, &nobody).ok()?;
            rtts.push(t0.elapsed().as_nanos().min(u32::MAX as u128) as u32);
        }
        Some(rtts)
    }
}

/// Embedded: `Prepared::bind` + `Bound::run`, one statement per call.
pub struct EmbeddedExec {
    prepared: Vec<Prepared>,
}

impl EmbeddedExec {
    /// Prepare the seven statement shapes on `session`.
    pub fn new(session: &Session) -> Result<EmbeddedExec, String> {
        let prepared = SQL
            .iter()
            .map(|sql| session.prepare(sql).map_err(|e| format!("prepare: {e}")))
            .collect::<Result<_, _>>()?;
        Ok(EmbeddedExec { prepared })
    }
}

impl Executor for EmbeddedExec {
    fn call(&mut self, stmts: &[Stmt], out: &mut Vec<Outcome>) -> u64 {
        let mut waited = 0;
        for (tmpl, params) in stmts {
            match self.prepared[*tmpl as usize].bind(params) {
                Ok(bound) => {
                    let t0 = Instant::now();
                    let reply = bound.run();
                    waited += t0.elapsed().as_nanos() as u64;
                    out.push(reply.map_err(|e| e.to_string()));
                }
                Err(e) => out.push(Err(format!("bind: {e}"))),
            }
        }
        waited
    }
}

/// A seat a collapse read returned for one pair member.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct PairSeat {
    /// Pair key from the generator.
    pub pair: u64,
    /// Seat row (0 when the label did not parse).
    pub row: u32,
    /// Seat column letter.
    pub col: u8,
}

/// Per-client counts and observations.
#[derive(Debug, Default)]
pub struct Tally {
    /// Statements attempted (sent, or skipped because a prerequisite failed).
    pub attempted: u64,
    /// Statements that errored, aborted a booking, returned an unexpected
    /// `Written(false)` or ≠ 1 row for a user's own booking.
    pub failed: u64,
    /// First failure, for the report.
    pub first_failure: Option<String>,
    /// `Withdraw` writes the engine rejected (legal, counted).
    pub withdraw_rejected: u64,
    /// Statements sent per statement class ([`KINDS`] order).
    pub sent: [u64; 4],
    /// Seats seen by collapse reads.
    pub seats: Vec<PairSeat>,
    /// Caller wait per call in ns, per [`Class`]; filled only while recording.
    pub waits: [Vec<u32>; 3],
}

impl Tally {
    fn fail(&mut self, op: Op, why: &str) {
        self.failed += 1;
        if self.first_failure.is_none() {
            self.first_failure = Some(format!("{op:?}: {why}"));
        }
    }

    /// Fold another client's tally into this one.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.first_failure.is_none() {
            self.first_failure = other.first_failure;
        }
        self.withdraw_rejected += other.withdraw_rejected;
        for (a, b) in self.sent.iter_mut().zip(other.sent) {
            *a += b;
        }
        self.seats.extend(other.seats);
        for (a, b) in self.waits.iter_mut().zip(other.waits) {
            a.extend(b);
        }
    }
}

fn parse_seat(label: &str) -> (u32, u8) {
    let digits = label.trim_end_matches(|c: char| c.is_ascii_alphabetic());
    match (digits.parse(), label.as_bytes().last()) {
        (Ok(row), Some(&col)) if digits.len() + 1 == label.len() => (row, col),
        _ => (0, 0),
    }
}

/// `(adjacent, complete)`: pairs whose two members sat in adjacent seats of
/// one row when collapse-read, and pairs with both members read, among the
/// seats one engine handed out.
pub fn coordination(seats: &mut [PairSeat]) -> (u64, u64) {
    seats.sort_unstable();
    let (mut adjacent, mut complete) = (0, 0);
    for w in seats.windows(2) {
        if w[0].pair == w[1].pair {
            complete += 1;
            if w[0].row != 0 && w[0].row == w[1].row && w[0].col.abs_diff(w[1].col) == 1 {
                adjacent += 1;
            }
        }
    }
    (adjacent, complete)
}

/// One closed-loop caller: a statement stream, an executor, the seats it
/// has learned, and its tallies.
pub struct Client {
    gen: Generator,
    exec: Box<dyn Executor>,
    tag: u64,
    seats: HashMap<u64, Value>,
    /// Counts and observations so far.
    pub tally: Tally,
    unit: Unit,
    /// Index into `unit.calls` of the call [`Client::step`] sends next.
    next_call: usize,
    stmts: Vec<Stmt>,
    sent_ops: Vec<Op>,
    outcomes: Vec<Outcome>,
}

impl Client {
    /// Caller `stream` of `workload` under `seed`, sending through `exec`.
    pub fn new(workload: Workload, seed: u64, stream: usize, exec: Box<dyn Executor>) -> Client {
        Client {
            gen: Generator::new(workload, seed, stream),
            exec,
            tag: name_tag(seed),
            seats: HashMap::new(),
            tally: Tally::default(),
            unit: Unit::default(),
            next_call: 0,
            stmts: Vec::new(),
            sent_ops: Vec::new(),
            outcomes: Vec::new(),
        }
    }

    /// The executor (the RTT probe and the tracer reach through this).
    pub fn executor(&mut self) -> &mut dyn Executor {
        self.exec.as_mut()
    }

    fn name(&self, user: u64) -> Value {
        Value::str(format!("u{:x}k{:x}", self.tag, user))
    }

    /// The statement for `op`, or `None` when it needs a seat no collapse
    /// read delivered (that read already counted as failed).
    fn build(&self, op: Op) -> Option<Stmt> {
        let int = |flight: u32| Value::Int(flight as i64);
        let seat = |user: u64| self.seats.get(&user).cloned();
        Some(match op {
            Op::Book {
                user,
                partner,
                flight,
            } => (
                Tmpl::Book,
                vec![
                    int(flight),
                    self.name(partner),
                    int(flight),
                    int(flight),
                    self.name(user),
                    int(flight),
                ],
            ),
            Op::Peek { user } => (Tmpl::Peek, vec![self.name(user)]),
            Op::Possible { user } => (Tmpl::Possible, vec![self.name(user)]),
            Op::Collapse { user, .. } => (Tmpl::Collapse, vec![self.name(user)]),
            Op::CancelBooking { user, flight } => (
                Tmpl::DelBooking,
                vec![self.name(user), int(flight), seat(user)?],
            ),
            Op::ReleaseSeat { user, flight, .. } | Op::Restore { user, flight } => {
                (Tmpl::InsAvail, vec![int(flight), seat(user)?])
            }
            Op::Withdraw { user, flight } => (Tmpl::DelAvail, vec![int(flight), seat(user)?]),
            Op::AddSeat { flight, id } => (
                Tmpl::InsAvail,
                vec![int(flight), Value::str(format!("X{id}"))],
            ),
            Op::DropSeat { flight, id } => (
                Tmpl::DelAvail,
                vec![int(flight), Value::str(format!("X{id}"))],
            ),
        })
    }

    /// Check one reply against what the statement must return.
    fn settle(&mut self, op: Op, outcome: Outcome) {
        let reply = match outcome {
            Ok(reply) => reply,
            Err(e) => return self.tally.fail(op, &e),
        };
        match (op, reply) {
            (Op::Book { .. }, Response::Committed(_)) => {}
            (Op::Peek { .. }, Response::Rows(rows)) if rows.len() == 1 => {}
            (Op::Possible { .. }, Response::Worlds(worlds))
                if !worlds.is_empty() && worlds.iter().all(|w| w.len() == 1) => {}
            (Op::Collapse { user, pair }, Response::Rows(rows)) if rows.len() == 1 => {
                let seat = rows[0].iter().find(|(var, _)| var.name() == "s");
                match seat {
                    Some((_, value @ Value::Str(label))) => {
                        let (row, col) = parse_seat(label);
                        self.tally.seats.push(PairSeat { pair, row, col });
                        self.seats.insert(user, value.clone());
                    }
                    _ => self.tally.fail(op, "collapse read returned no seat"),
                }
            }
            (Op::Withdraw { .. }, Response::Written(applied)) => {
                self.tally.withdraw_rejected += u64::from(!applied);
            }
            (
                Op::CancelBooking { .. }
                | Op::ReleaseSeat { .. }
                | Op::Restore { .. }
                | Op::AddSeat { .. }
                | Op::DropSeat { .. },
                Response::Written(true),
            ) => {}
            (_, other) => self.tally.fail(op, &format!("unexpected reply {other}")),
        }
        match op {
            Op::ReleaseSeat {
                user, keep: false, ..
            }
            | Op::Restore { user, .. } => {
                self.seats.remove(&user);
            }
            _ => {}
        }
    }

    /// Execute the next call of the stream and check its replies. With
    /// `record`, the caller's wait is kept under the call's class. Returns
    /// `true` when the call was the last of its unit.
    pub fn step(&mut self, record: bool) -> bool {
        if self.next_call == self.unit.calls.len() {
            self.gen.next(&mut self.unit);
            self.next_call = 0;
        }
        let unit = std::mem::take(&mut self.unit);
        let start = match self.next_call {
            0 => 0,
            n => unit.calls[n - 1].1,
        };
        let (class, end) = unit.calls[self.next_call];
        self.call(class, &unit.ops[start..end], record);
        self.unit = unit;
        self.next_call += 1;
        self.next_call == self.unit.calls.len()
    }

    fn call(&mut self, class: Class, ops: &[Op], record: bool) {
        self.stmts.clear();
        self.sent_ops.clear();
        self.outcomes.clear();
        for &op in ops {
            self.tally.attempted += 1;
            match self.build(op) {
                Some(stmt) => {
                    self.tally.sent[stmt.0.kind()] += 1;
                    self.stmts.push(stmt);
                    self.sent_ops.push(op);
                }
                None => self.tally.fail(op, "no seat known for this user"),
            }
        }
        let waited = self.exec.call(&self.stmts, &mut self.outcomes);
        if record {
            self.tally.waits[class as usize].push(waited.min(u32::MAX as u64) as u32);
        }
        let mut outcomes = std::mem::take(&mut self.outcomes);
        let sent = std::mem::take(&mut self.sent_ops);
        for (&op, outcome) in sent.iter().zip(outcomes.drain(..)) {
            self.settle(op, outcome);
        }
        self.outcomes = outcomes;
        self.sent_ops = sent;
    }
}
