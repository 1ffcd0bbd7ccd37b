//! The four workloads and their seeded statement streams.
//!
//! A stream is a pure function of `(workload, seed, stream index)`: it
//! names *who* books, peeks, reads and cancels, in which order and in which
//! call batches. The one thing it cannot name is the seat the engine picks
//! for a booking — cancels refer to "the seat this user's collapse read
//! returned", which the driver resolves at run time ([`crate::exec`]).
//!
//! Why these four (the full argument is in `benchmark/README.md`):
//! `serve_mix` and `serve_shared` send the same statements over loopback
//! and differ only in whether the two connections share partitions (and
//! with them every entangled pair);
//! `deep_admit` and `durable_write` run embedded with prepared statements
//! and differ in whether writes meet deep pending state or none at all.

use std::collections::VecDeque;
use std::hash::{Hash, Hasher};

use crate::rng::{mix, Rng};

/// Statements per `Connection::pipeline` call on the remote workloads.
/// Fixed: an uncapped pipeline (~2 000 statements per call on two
/// connections) stopped making progress during sizing — see README.
pub const PIPELINE_DEPTH: usize = 16;
/// Executor threads of the in-process server. One call is in flight at a
/// time, so one executor works at a time; two, so that a connection's work
/// can land on either and the hand-off between them is on the path.
pub const SERVER_WORKERS: usize = 2;
/// Seat rows per flight; each row has seats A, B, C.
pub const ROWS_PER_FLIGHT: u32 = 50;
/// `durable_write`: churn seats live this many inserts before deletion.
pub const CHURN_WINDOW: u64 = 2_500;

/// Users per cohort (= 8 entangled pairs on one flight): one pipeline call
/// per cohort and statement kind.
const COHORT: u64 = PIPELINE_DEPTH as u64;
/// Remote workloads cancel a cohort's bookings this many cohorts later.
const CANCEL_LAG: u64 = 4;
/// `deep_admit`: pending bookings kept open per flight.
const DEEP_PENDING: u64 = 16;
/// `deep_admit`: a booking is read and cancelled this many same-flight
/// bookings later (its partner arrived at most 32 bookings after it).
const DEEP_CANCEL_LAG: u64 = 40;
/// `deep_admit`: one step in 20 withdraws the seat it just released (5 %).
const WITHDRAW_EVERY: u64 = 20;
/// `deep_admit`: a withdrawn seat is restored this many steps later.
const RESTORE_AFTER: u64 = 10;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    /// Remote, two connections on disjoint flights.
    ServeMix,
    /// Remote, two connections taking turns on the same two flights, each
    /// pair's partners on different connections.
    ServeShared,
    /// Embedded, deep pending state on every partition.
    DeepAdmit,
    /// Embedded, file WAL, writes against no pending state.
    DurableWrite,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::ServeMix,
        Workload::ServeShared,
        Workload::DeepAdmit,
        Workload::DurableWrite,
    ];

    /// Name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeMix => "serve_mix",
            Workload::ServeShared => "serve_shared",
            Workload::DeepAdmit => "deep_admit",
            Workload::DurableWrite => "durable_write",
        }
    }

    /// One-line reason the workload exists (`BENCHMARK.json` carries the same text).
    pub fn why(self) -> &'static str {
        match self {
            Workload::ServeMix => "remote, connections on disjoint flights, pending depth 1: client, wire, server and parse dominate, so serving-path changes show here and solver changes do not",
            Workload::ServeShared => "same statements, connections take turns on the same 2 flights, partners on different connections: partner grounding across sessions at pending depth 16, behind the same serving path",
            Workload::DeepAdmit => "embedded and prepared, 16 pending per flight on 32 flights: solver, shard planning, worlds and delta views do the work; the serving layers do none",
            Workload::DurableWrite => "embedded, file WAL, 80% blind writes against no pending state: WAL append/drain and storage apply dominate, solver idles, recovery is largest",
        }
    }

    /// Parse a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Driven over loopback TCP (else embedded through a `Session`).
    pub fn remote(self) -> bool {
        matches!(self, Workload::ServeMix | Workload::ServeShared)
    }

    /// Flights in the database.
    pub fn flights(self) -> u32 {
        match self {
            Workload::ServeMix | Workload::DurableWrite => 8,
            Workload::ServeShared => 2,
            Workload::DeepAdmit => 32,
        }
    }

    /// Statement streams: one per connection, or the single embedded
    /// caller's. The caller steps them in turn, one call in flight.
    pub fn streams(self) -> usize {
        if self.remote() {
            2
        } else {
            1
        }
    }

    /// Steady-state statements per unit (cohort / step / block).
    /// `deep_admit` adds a withdraw/restore pair every 20th step.
    pub fn stmts_per_unit(self) -> f64 {
        match self {
            Workload::ServeMix | Workload::ServeShared => 96.0,
            Workload::DeepAdmit => 6.0 + 2.0 / WITHDRAW_EVERY as f64,
            Workload::DurableWrite => 20.0,
        }
    }

    /// Units each stream executes per second of `--seconds`. Constants,
    /// sized so the measured phase takes about `--seconds` at the commit
    /// that added the benchmark on its 2-core host: the work is fixed, so
    /// both sides of a later comparison execute the identical stream.
    pub fn units_per_second(self) -> u64 {
        match self {
            Workload::ServeMix => 240,
            Workload::ServeShared => 155,
            Workload::DeepAdmit => 2_700,
            Workload::DurableWrite => 12_000,
        }
    }

    /// Units per stream in one measurement window: about half a second at
    /// the sizing commit, and a whole number of the stream's own periods
    /// (flight rotation, POSSIBLE and withdraw cadence), so every window
    /// holds the same mix of work.
    pub fn window_units(self) -> u64 {
        match self {
            Workload::ServeMix => 120,
            Workload::ServeShared => 80,
            Workload::DeepAdmit => 1_280,
            Workload::DurableWrite => 6_000,
        }
    }

    /// Warm-up units per stream, part of set-up: fills auto-indexes and
    /// reaches the steady pending depth and cancel lag before measurement.
    pub fn warmup_units(self) -> u64 {
        match self {
            Workload::ServeMix | Workload::ServeShared => 96,
            Workload::DeepAdmit => 32 * 64,
            Workload::DurableWrite => 4_000,
        }
    }

    /// Fewest warm-up units per stream after which every unit has its
    /// steady-state shape (cancels lag bookings) and some pair has had
    /// both members collapse-read; the smoke test's warm-up.
    pub fn min_warmup_units(self) -> u64 {
        match self {
            Workload::ServeMix | Workload::ServeShared => CANCEL_LAG + 2,
            // Pair 0's `b` is booked 16th and read 40 bookings later.
            Workload::DeepAdmit => 32 * (DEEP_PENDING + DEEP_CANCEL_LAG + 8),
            Workload::DurableWrite => 16,
        }
    }
}

/// Latency class of a call: the three statement kinds of the paper's §5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Class {
    /// Resource transactions (`SELECT … CHOOSE 1 FOLLOWED BY`).
    Txn = 0,
    /// PEEK, POSSIBLE and collapse reads.
    Read = 1,
    /// Blind `INSERT` / `DELETE`.
    Write = 2,
}

/// One statement of a stream. `user`, `partner` and `pair` are opaque
/// keys; names and literals are derived from them in [`crate::exec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// Entangled booking: any seat on `flight`, preferably next to `partner`.
    Book {
        user: u64,
        partner: u64,
        flight: u32,
    },
    /// `SELECT PEEK` of the user's booking.
    Peek { user: u64 },
    /// `SELECT POSSIBLE … LIMIT 32` of the user's booking.
    Possible { user: u64 },
    /// Collapse read of the user's booking; the driver keeps the seat.
    Collapse { user: u64, pair: u64 },
    /// `DELETE FROM Bookings` of the user's (collapsed) booking.
    CancelBooking { user: u64, flight: u32 },
    /// `INSERT INTO Available` of the user's former seat. `keep` leaves the
    /// seat remembered for a following `Withdraw`/`Restore`.
    ReleaseSeat { user: u64, flight: u32, keep: bool },
    /// `DELETE FROM Available` of the seat just released: write admission
    /// re-validates the flight's pending bookings; `Written(false)` is legal.
    Withdraw { user: u64, flight: u32 },
    /// `INSERT INTO Available` putting a withdrawn seat back.
    Restore { user: u64, flight: u32 },
    /// `INSERT INTO Available` of a fresh churn seat.
    AddSeat { flight: u32, id: u64 },
    /// `DELETE FROM Available` of a churn seat added [`CHURN_WINDOW`] earlier.
    DropSeat { flight: u32, id: u64 },
}

impl Op {
    /// Latency class of the statement.
    pub fn class(self) -> Class {
        match self {
            Op::Book { .. } => Class::Txn,
            Op::Peek { .. } | Op::Possible { .. } | Op::Collapse { .. } => Class::Read,
            _ => Class::Write,
        }
    }
}

/// One generated unit: its statements and the call batches over them
/// (`calls[i]` = class and end index; remote calls hold
/// [`PIPELINE_DEPTH`] statements, embedded calls one).
#[derive(Debug, Default)]
pub struct Unit {
    /// Statements in execution order.
    pub ops: Vec<Op>,
    /// `(class, end)` of each call; a call spans `previous end..end`.
    pub calls: Vec<(Class, usize)>,
}

impl Unit {
    fn clear(&mut self) {
        self.ops.clear();
        self.calls.clear();
    }

    fn call(&mut self, ops: impl IntoIterator<Item = Op>) {
        let start = self.ops.len();
        self.ops.extend(ops);
        let class = self.ops[start].class();
        debug_assert!(self.ops[start..].iter().all(|op| op.class() == class));
        self.calls.push((class, self.ops.len()));
    }

    fn single(&mut self, op: Op) {
        self.call([op]);
    }
}

/// Flight of churn seat `id` (a pure function, so `DropSeat` finds it again).
pub fn churn_flight(tag: u64, id: u64, flights: u32) -> u32 {
    1 + (mix(tag ^ id.wrapping_mul(0xA076_1D64_78BD_642F)) % flights as u64) as u32
}

/// Name tag mixed into every user name, so literals differ between seeds.
pub fn name_tag(seed: u64) -> u64 {
    mix(seed) & 0xFFFF
}

/// Seeded statement stream of one closed-loop caller.
#[derive(Debug)]
pub struct Generator {
    workload: Workload,
    stream: u64,
    tag: u64,
    rng: Rng,
    next_unit: u64,
    /// Seeded rotation / permutation of flights.
    perm: Vec<u32>,
    /// `deep_admit`: bookings made so far per flight.
    flight_bookings: Vec<u64>,
    /// `deep_admit`: read slots so far (every 8th is a POSSIBLE).
    read_slots: u64,
    /// `deep_admit`: `(due step, restore op)`.
    restores: VecDeque<(u64, Op)>,
    /// `durable_write`: next fresh churn seat id.
    next_seat: u64,
}

impl Generator {
    /// Stream `stream` (connection index) of `workload` under `seed`.
    pub fn new(workload: Workload, seed: u64, stream: usize) -> Generator {
        let mut rng = Rng::new(mix(seed) ^ (stream as u64 + 1).wrapping_mul(0x9E37_79B9));
        let mut perm: Vec<u32> = (0..workload.flights()).collect();
        rng.shuffle(&mut perm);
        Generator {
            workload,
            stream: stream as u64,
            tag: name_tag(seed),
            rng,
            next_unit: 0,
            perm,
            flight_bookings: vec![0; workload.flights() as usize],
            read_slots: 0,
            restores: VecDeque::new(),
            next_seat: CHURN_WINDOW,
        }
    }

    /// Generate the next unit into `unit` (cleared first).
    pub fn next(&mut self, unit: &mut Unit) {
        unit.clear();
        let index = self.next_unit;
        self.next_unit += 1;
        match self.workload {
            Workload::ServeMix | Workload::ServeShared => self.cohort(index, unit),
            Workload::DeepAdmit => self.deep_step(index, unit),
            Workload::DurableWrite => self.durable_block(index, unit),
        }
    }

    // -- serve_mix / serve_shared ------------------------------------------

    fn cohort_flight(&self, cohort: u64) -> u32 {
        match self.workload {
            // Disjoint: stream 0 owns flights 1-4, stream 1 flights 5-8.
            Workload::ServeMix => 1 + self.stream as u32 * 4 + ((cohort + self.tag) % 4) as u32,
            // Both streams are on the same flight at the same time.
            _ => 1 + (cohort % 2) as u32,
        }
    }

    fn cohort_user(stream: u64, cohort: u64, i: u64) -> u64 {
        (stream << 40) | (cohort * COHORT + i)
    }

    fn cohort(&mut self, k: u64, unit: &mut Unit) {
        let me = self.stream;
        let flight = self.cohort_flight(k);
        let shared = self.workload == Workload::ServeShared;
        let user = |i: u64| Generator::cohort_user(me, k, i);
        unit.call((0..COHORT).map(|i| Op::Book {
            user: user(i),
            // serve_mix: the partner is the next statement, so pending
            // depth stays ≤ 1. serve_shared: the partner is the same index
            // on the other connection, whose call comes next, so stream 0
            // opens 16 pairs and stream 1 closes them.
            partner: if shared {
                Generator::cohort_user(1 - me, k, i)
            } else {
                user(i ^ 1)
            },
            flight,
        }));
        let mut order: Vec<u64> = (0..COHORT).collect();
        self.rng.shuffle(&mut order);
        unit.call(order.iter().map(|&i| Op::Peek { user: user(i) }));
        // The second batch re-checks the bookings made two cohorts ago
        // (still held: they are cancelled two cohorts from now). Their
        // PEEK text was last sent ~190 distinct statements back, so the
        // connection's 128-entry parsed-text LRU has dropped it: every
        // remote statement parses — the "larger than the cache" case.
        let earlier = k.saturating_sub(2);
        self.rng.shuffle(&mut order);
        unit.call(order.iter().map(|&i| Op::Peek {
            user: Generator::cohort_user(me, earlier, i),
        }));
        self.rng.shuffle(&mut order);
        unit.call(order.iter().map(|&i| Op::Collapse {
            user: user(i),
            pair: if shared {
                k * COHORT + i
            } else {
                (me << 40) | ((k * COHORT + i) >> 1)
            },
        }));
        if k >= CANCEL_LAG {
            let old = k - CANCEL_LAG;
            let flight = self.cohort_flight(old);
            for half in 0..2 {
                unit.call((half * 8..half * 8 + 8).flat_map(|i| {
                    let user = Generator::cohort_user(me, old, i);
                    [
                        Op::CancelBooking { user, flight },
                        Op::ReleaseSeat {
                            user,
                            flight,
                            keep: false,
                        },
                    ]
                }));
            }
        }
    }

    // -- deep_admit --------------------------------------------------------

    /// The `j`-th booking on a flight: `(side, pair index)`. The first 16
    /// are `a` sides; afterwards the stream alternates `b` of the oldest
    /// open pair (grounding both partners) and `a` of a new pair, which
    /// holds the flight at 16 pending.
    fn deep_booking(j: u64) -> (u64, u64) {
        if j < DEEP_PENDING {
            (0, j)
        } else {
            let m = j - DEEP_PENDING;
            if m.is_multiple_of(2) {
                (1, m / 2)
            } else {
                (0, DEEP_PENDING + m / 2)
            }
        }
    }

    fn deep_user(flight: u32, side: u64, pair: u64) -> u64 {
        ((flight as u64) << 40) | (side << 39) | pair
    }

    fn deep_read(&mut self, user: u64) -> Op {
        self.read_slots += 1;
        if self.read_slots.is_multiple_of(8) {
            Op::Possible { user }
        } else {
            Op::Peek { user }
        }
    }

    fn deep_step(&mut self, step: u64, unit: &mut Unit) {
        while self.restores.front().is_some_and(|(due, _)| *due <= step) {
            let (_, op) = self.restores.pop_front().expect("checked non-empty");
            unit.single(op);
        }
        let slot = self.perm[(step % self.perm.len() as u64) as usize];
        let flight = slot + 1;
        let j = self.flight_bookings[slot as usize];
        self.flight_bookings[slot as usize] += 1;

        let (side, pair) = Generator::deep_booking(j);
        let user = Generator::deep_user(flight, side, pair);
        unit.single(Op::Book {
            user,
            partner: Generator::deep_user(flight, 1 - side, pair),
            flight,
        });
        // One read of the newcomer, one of the flight's oldest still
        // pending `a` — both answered through the pending state.
        let arrived_b = if j < DEEP_PENDING {
            0
        } else {
            (j - DEEP_PENDING) / 2 + 1
        };
        let read = self.deep_read(user);
        unit.single(read);
        let read = self.deep_read(Generator::deep_user(flight, 0, arrived_b));
        unit.single(read);

        if j >= DEEP_CANCEL_LAG {
            let (side, pair) = Generator::deep_booking(j - DEEP_CANCEL_LAG);
            let old = Generator::deep_user(flight, side, pair);
            let withdraw = (step + self.tag).is_multiple_of(WITHDRAW_EVERY);
            unit.single(Op::Collapse {
                user: old,
                pair: ((flight as u64) << 40) | pair,
            });
            unit.single(Op::CancelBooking { user: old, flight });
            unit.single(Op::ReleaseSeat {
                user: old,
                flight,
                keep: withdraw,
            });
            if withdraw {
                unit.single(Op::Withdraw { user: old, flight });
                self.restores
                    .push_back((step + RESTORE_AFTER, Op::Restore { user: old, flight }));
            }
        }
    }

    // -- durable_write -----------------------------------------------------

    fn churn(&mut self, unit: &mut Unit) {
        let flights = self.workload.flights();
        for _ in 0..3 {
            let id = self.next_seat;
            self.next_seat += 1;
            unit.single(Op::AddSeat {
                flight: churn_flight(self.tag, id, flights),
                id,
            });
            let old = id - CHURN_WINDOW;
            unit.single(Op::DropSeat {
                flight: churn_flight(self.tag, old, flights),
                id: old,
            });
        }
    }

    /// 20 statements: 12 churn writes + 4 cancel writes (80 % writes that
    /// change rows), one pair's 2 bookings (10 %), its 2 collapse reads (10 %).
    fn durable_block(&mut self, block: u64, unit: &mut Unit) {
        let flight = 1 + self.perm[(block % self.perm.len() as u64) as usize];
        let (a, b) = (block * 2, block * 2 + 1);
        self.churn(unit);
        unit.single(Op::Book {
            user: a,
            partner: b,
            flight,
        });
        unit.single(Op::Book {
            user: b,
            partner: a,
            flight,
        });
        self.churn(unit);
        unit.single(Op::Collapse {
            user: a,
            pair: block,
        });
        unit.single(Op::Collapse {
            user: b,
            pair: block,
        });
        for user in [a, b] {
            unit.single(Op::CancelBooking { user, flight });
            unit.single(Op::ReleaseSeat {
                user,
                flight,
                keep: false,
            });
        }
    }
}

/// Hash of the first `units` units of every stream of `workload` under
/// `seed` — equal hashes mean identical statement streams.
pub fn stream_hash(workload: Workload, seed: u64, units: u64) -> u64 {
    // `DefaultHasher::new()` is SipHash with fixed keys: deterministic.
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    let mut unit = Unit::default();
    for stream in 0..workload.streams() {
        let mut gen = Generator::new(workload, seed, stream);
        for _ in 0..units {
            gen.next(&mut unit);
            unit.ops.hash(&mut hasher);
            unit.calls.hash(&mut hasher);
        }
    }
    name_tag(seed).hash(&mut hasher);
    hasher.finish()
}
