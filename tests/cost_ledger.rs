//! The cost ledger (ROADMAP item 19): what single warm operations cost the
//! allocator, as exact rows — allocations and bytes asked for, on the
//! calling thread. Each row is measured ten times on a warm engine; the ten
//! must agree, and none may exceed its row in [`LEDGER`]. A row that falls
//! should be lowered here, so the ledger keeps recording what the code
//! costs.
//!
//! The pins are a release build's (CI runs this test with `--release`).
//! A debug build re-verifies every fast path the engine takes, which
//! allocates too, so there the rows only have to repeat.
//!
//! The engine runs embedded over a WAL whose sink keeps only a byte count,
//! so no measured statement pays for a growing log image, and every
//! statement a row runs is undone (unmeasured) before the next run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use quantum_db::core::{Prepared, Session};
use quantum_db::storage::{tuple, LogRecord, LogSink, Result as StorageResult, Wal, WriteOp};
use quantum_db::{QuantumDb, QuantumDbConfig, Response, Value};

/// Counts this thread's allocations and the bytes they ask for
/// (reallocations included, at their new size).
struct Counting;

thread_local! {
    static ALLOCS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn count(bytes: usize) {
    ALLOCS.with(|n| {
        let (allocs, total) = n.get();
        n.set((allocs + 1, total + bytes as u64));
    });
}

// SAFETY: every call forwards to `System` unchanged; the count is a
// const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocations and bytes of one row's operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Cost {
    allocs: u64,
    bytes: u64,
}

/// The ledger: the most each row may cost, as allocations and bytes
/// (64-bit targets).
const LEDGER: [(&str, u64, u64); 7] = [
    ("prepared blind INSERT", 5, 408),
    ("collapse SELECT", 15, 2_049),
    ("SELECT PEEK", 18, 2_137),
    ("pair booking, embedded", 183, 21_566),
    ("template-hit Session::execute INSERT", 6, 456),
    ("decode one WAL Write frame", 1, 88),
    ("Value::str of 22 bytes", 0, 0),
];

fn measure<T>(f: impl FnOnce() -> T) -> (Cost, T) {
    ALLOCS.with(|n| n.set((0, 0)));
    let out = f();
    let (allocs, bytes) = ALLOCS.with(Cell::get);
    (Cost { allocs, bytes }, out)
}

/// A log sink that keeps only its length.
struct Tally(u64);

impl LogSink for Tally {
    fn append(&mut self, frame: &[u8]) -> StorageResult<()> {
        self.0 += frame.len() as u64;
        Ok(())
    }

    fn read_from(
        &self,
        _offset: u64,
        _f: &mut dyn FnMut(&[u8]) -> StorageResult<bool>,
    ) -> StorageResult<()> {
        Ok(())
    }

    fn len(&self) -> u64 {
        self.0
    }

    fn truncate_to(&mut self, len: u64) -> StorageResult<()> {
        self.0 = self.0.min(len);
        Ok(())
    }
}

/// The benchmark's booking statement: any seat on the flight, next to the
/// partner's when it can.
const BOOK: &str = "SELECT @s FROM Available(?, @s), OPTIONAL Bookings(?, ?, @s2), \
     OPTIONAL Adjacent(@s, @s2) CHOOSE 1 \
     FOLLOWED BY (DELETE (?, @s) FROM Available; INSERT (?, ?, @s) INTO Bookings;)";

struct Engine {
    session: Session,
    insert: Prepared,
    delete: Prepared,
    collapse: Prepared,
    peek: Prepared,
    book: Prepared,
    unbook: Prepared,
}

fn engine() -> Engine {
    let wal = Wal::with_sink(Box::new(Tally(0)));
    let db = QuantumDb::with_wal(QuantumDbConfig::default(), wal).into_shared();
    let session = db.session();
    let run = |sql: &str| {
        session
            .execute(sql)
            .unwrap_or_else(|e| panic!("{sql}: {e}"))
    };
    run("CREATE TABLE Available (flight INT, seat TEXT)");
    run("CREATE TABLE Bookings (name TEXT, flight INT, seat TEXT)");
    run("CREATE TABLE Adjacent (s1 TEXT, s2 TEXT)");
    for index in [
        "Available (flight)",
        "Available (seat)",
        "Bookings (name)",
        "Adjacent (s1)",
    ] {
        run(&format!("CREATE INDEX ON {index}"));
    }
    for row in 1..=10 {
        let [a, b, c] = ["A", "B", "C"].map(|pos| format!("{row}{pos}"));
        for (x, y) in [(&a, &b), (&b, &a), (&b, &c), (&c, &b)] {
            run(&format!("INSERT INTO Adjacent VALUES ('{x}', '{y}')"));
        }
        for flight in 1..=2 {
            for seat in [&a, &b, &c] {
                run(&format!(
                    "INSERT INTO Available VALUES ({flight}, '{seat}')"
                ));
            }
        }
    }
    // A settled booking for the collapse read, and a lone pending one
    // (its partner never books) for PEEK.
    run("INSERT INTO Bookings VALUES ('u0k1', 2, '1A')");
    run("DELETE FROM Available VALUES (2, '1A')");
    let prepare = |sql: &str| {
        session
            .prepare(sql)
            .unwrap_or_else(|e| panic!("{sql}: {e}"))
    };
    let book = prepare(BOOK);
    let lone = booking(2, "u0k9", "u0k8");
    assert!(matches!(
        book.bind(&lone).unwrap().run(),
        Ok(Response::Committed(_))
    ));
    Engine {
        insert: prepare("INSERT INTO Available VALUES (?, ?)"),
        delete: prepare("DELETE FROM Available VALUES (?, ?)"),
        collapse: prepare("SELECT @f, @s FROM Bookings(?, @f, @s)"),
        peek: prepare("SELECT PEEK @f, @s FROM Bookings(?, @f, @s)"),
        unbook: prepare("DELETE FROM Bookings VALUES (?, ?, ?)"),
        book,
        session,
    }
}

/// `BOOK`'s parameters for `user` on `flight` next to `partner`.
fn booking(flight: i64, user: &str, partner: &str) -> Vec<Value> {
    let (f, user, partner) = (Value::from(flight), Value::from(user), Value::from(partner));
    vec![f.clone(), partner, f.clone(), f.clone(), user, f]
}

/// The one row `rows` holds, as its values.
fn one_row(reply: Response) -> Vec<Value> {
    let rows = reply.rows().expect("rows").to_vec();
    assert_eq!(rows.len(), 1, "{rows:?}");
    rows[0].iter().map(|(_, v)| v.clone()).collect()
}

/// Run every row once: its measured operation, then its undo.
fn run_rows(e: &Engine) -> Vec<Cost> {
    let mut costs = Vec::new();

    let row = [Value::from(1), Value::from("9Z")];
    let (cost, reply) = measure(|| e.insert.bind(&row).unwrap().run());
    assert!(matches!(reply, Ok(Response::Written(true))), "{reply:?}");
    costs.push(cost);
    e.delete.bind(&row).unwrap().run().unwrap();

    let user = [Value::from("u0k1")];
    let (cost, reply) = measure(|| e.collapse.bind(&user).unwrap().run());
    assert_eq!(one_row(reply.unwrap()), [Value::from(2), Value::from("1A")]);
    costs.push(cost);

    let user = [Value::from("u0k9")];
    let (cost, reply) = measure(|| e.peek.bind(&user).unwrap().run());
    assert_eq!(one_row(reply.unwrap())[0], Value::from(2));
    costs.push(cost);

    let (a, b) = (booking(1, "u1k0", "u1k1"), booking(1, "u1k1", "u1k0"));
    let (cost, replies) = measure(|| {
        let first = e.book.bind(&a).unwrap().run();
        (first, e.book.bind(&b).unwrap().run())
    });
    assert!(
        matches!(replies.0, Ok(Response::Committed(_))),
        "{replies:?}"
    );
    assert!(
        matches!(replies.1, Ok(Response::Committed(_))),
        "{replies:?}"
    );
    costs.push(cost);
    for user in ["u1k0", "u1k1"] {
        let name = [Value::from(user)];
        let seat = one_row(e.collapse.bind(&name).unwrap().run().unwrap());
        let booked = [name[0].clone(), seat[0].clone(), seat[1].clone()];
        e.unbook.bind(&booked).unwrap().run().unwrap();
        e.insert.bind(&seat).unwrap().run().unwrap();
    }

    let (cost, reply) = measure(|| e.session.execute("INSERT INTO Available VALUES (1, '9Z')"));
    assert!(matches!(reply, Ok(Response::Written(true))), "{reply:?}");
    costs.push(cost);
    e.delete.bind(&row).unwrap().run().unwrap();

    let frame = LogRecord::Write(WriteOp::insert("Bookings", tuple!["u1k0", 1, "3B"])).encode();
    let (cost, record) = measure(|| LogRecord::decode(&frame));
    assert!(matches!(record, Ok(LogRecord::Write(_))));
    costs.push(cost);

    let text = "x".repeat(22);
    let (cost, value) = measure(|| Value::str(&text));
    assert_eq!(value.as_str(), Some(text.as_str()));
    costs.push(cost);

    costs
}

#[test]
fn every_row_repeats_exactly_and_none_rises() {
    let e = engine();
    // Warm: the statement cache holds every shape, the WAL's tail buffer
    // has drained once at its full size, and every table has met each row.
    e.session
        .execute("INSERT INTO Available VALUES (4, '8Y')")
        .unwrap();
    for _ in 0..3_000 {
        run_rows(&e);
    }
    let runs: Vec<Vec<Cost>> = (0..10).map(|_| run_rows(&e)).collect();
    let mut report = String::new();
    let mut risen = Vec::new();
    for (i, &(name, allocs, bytes)) in LEDGER.iter().enumerate() {
        let seen: Vec<Cost> = runs.iter().map(|run| run[i]).collect();
        assert!(
            seen.iter().all(|c| *c == seen[0]),
            "{name}: not the same over 10 runs: {seen:?}"
        );
        let got = seen[0];
        report += &format!(
            "{name:<40} {:>5} allocs {:>7} bytes (ledger {allocs}, {bytes})\n",
            got.allocs, got.bytes
        );
        if !cfg!(debug_assertions) && (got.allocs > allocs || got.bytes > bytes) {
            risen.push(name);
        }
    }
    println!("{report}");
    assert!(
        risen.is_empty(),
        "rows above the ledger: {risen:?}\n{report}"
    );
}
