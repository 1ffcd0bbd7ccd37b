//! A hostile element count cannot make a decoder reserve memory: every
//! count is checked against the bytes left before anything is allocated,
//! so a short frame announcing a million elements is a typed error that
//! allocates no more than its message.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use qdb_logic::codec::decode_transaction;
use qdb_storage::wal::LogRecord;
use qdb_storage::{Tuple, WriteOp};
use qdb_wire::{self as wire, req, resp, Frame};

/// Records the largest single allocation this thread makes (reallocations
/// included), so tests running on other threads do not disturb it.
struct Largest;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call forwards to `System` unchanged; the record is a
// const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Largest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.with(|m| m.set(m.get().max(layout.size())));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static LARGEST_ALLOC: Largest = Largest;

/// The budget a refused decode may allocate: its error message.
const BUDGET: usize = 4 << 10;

/// `f`'s result and the largest single allocation it made.
fn largest_allocation<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|m| m.set(0));
    let out = f();
    (out, LARGEST.with(Cell::get))
}

fn words(words: &[u64], sizes: &[usize]) -> Vec<u8> {
    words
        .iter()
        .zip(sizes)
        .flat_map(|(w, &n)| w.to_le_bytes()[..n].to_vec())
        .collect()
}

fn frame(kind: u8, body: Vec<u8>) -> Frame {
    Frame {
        kind,
        request_id: 1,
        body,
    }
}

const MILLION: u64 = 1 << 20;

#[test]
fn hostile_wire_counts_are_refused_without_allocating() {
    let requests = [(
        "BIND",
        frame(req::BIND, words(&[5, 8, MILLION], &[4, 4, 4])),
    )];
    let replies = [
        ("ROWS", frame(resp::ROWS, words(&[MILLION], &[4]))),
        ("WORLDS", frame(resp::WORLDS, words(&[1, MILLION], &[4, 4]))),
        ("PENDING", frame(resp::PENDING, words(&[MILLION], &[4]))),
        ("EVENTS", frame(resp::EVENTS, words(&[MILLION], &[4]))),
        (
            "REPLICATION",
            frame(resp::REPLICATION, words(&[0, 9, 9, MILLION], &[1, 8, 8, 4])),
        ),
    ];
    for (name, f) in &requests {
        let (decoded, largest) = largest_allocation(|| wire::decode_request(f));
        assert!(decoded.is_err(), "{name}: {decoded:?}");
        assert!(largest <= BUDGET, "{name}: largest allocation {largest} B");
    }
    for (name, f) in &replies {
        let (decoded, largest) = largest_allocation(|| wire::decode_reply(f));
        assert!(decoded.is_err(), "{name}: {decoded:?}");
        assert!(largest <= BUDGET, "{name}: largest allocation {largest} B");
    }
}

#[test]
fn hostile_log_and_transaction_counts_are_refused_without_allocating() {
    // Whole records, then the trailing count word raised: a `Ground`'s op
    // count, and a written tuple's arity.
    let ground = LogRecord::Ground { id: 7, ops: vec![] }.encode();
    let write = LogRecord::Write(WriteOp::Insert {
        relation: "R".into(),
        tuple: Tuple::from(Vec::new()),
    })
    .encode();
    for (name, record, count) in [
        ("ground ops", ground, 1 << 16),
        ("tuple arity", write, MILLION),
    ] {
        let mut hostile = record[..record.len() - 4].to_vec();
        hostile.extend((count as u32).to_le_bytes());
        let (decoded, largest) = largest_allocation(|| LogRecord::decode(&hostile));
        assert!(decoded.is_err(), "{name}: {decoded:?}");
        assert!(largest <= BUDGET, "{name}: largest allocation {largest} B");
    }
    // A transaction opens with its update count.
    let hostile = (1u32 << 16).to_le_bytes();
    let (decoded, largest) = largest_allocation(|| decode_transaction(&hostile));
    assert!(decoded.is_err(), "{decoded:?}");
    assert!(
        largest <= BUDGET,
        "update count: largest allocation {largest} B"
    );
}

/// The allocator sees a decode's allocations: honest counts still reserve
/// their elements up front.
#[test]
fn honest_counts_still_reserve_their_elements() {
    let rows = 300u64;
    let mut body = words(&[rows], &[4]);
    body.extend(std::iter::repeat_n(0u8, 4 * rows as usize)); // empty rows
    let (decoded, largest) = largest_allocation(|| wire::decode_reply(&frame(resp::ROWS, body)));
    let Ok(wire::Reply::Engine(qdb_core::Response::Rows(decoded))) = decoded else {
        panic!("{decoded:?}");
    };
    assert_eq!(decoded.len(), rows as usize);
    assert!(largest > BUDGET, "largest allocation {largest} B");
}

/// What the decoders refuse, the engine refuses to log: a schema with one
/// column too many and a transaction with one update too many are typed
/// errors that leave the log untouched, so a later acknowledged write
/// survives recovery instead of being cut off behind an unreadable frame.
#[test]
fn over_limit_schemas_and_transactions_are_refused_before_they_are_logged() {
    use qdb_core::{EngineError, QuantumDb, QuantumDbConfig};
    use qdb_logic::LogicError;
    use qdb_storage::codec::MAX_LOG_COUNT;
    use qdb_storage::wal::MemorySink;
    use qdb_storage::{StorageError, Wal};

    let db = QuantumDb::new(QuantumDbConfig::default())
        .unwrap()
        .into_shared();
    db.execute("CREATE TABLE R (a INT)").unwrap();
    let image = db.wal_image();

    let columns: Vec<String> = (0..=MAX_LOG_COUNT).map(|i| format!("c{i} INT")).collect();
    let wide = format!("CREATE TABLE Wide ({})", columns.join(", "));
    let refused = db.execute(&wide);
    assert!(
        matches!(
            refused,
            Err(EngineError::Storage(StorageError::InvalidSchema(_)))
        ),
        "{refused:?}"
    );
    let inserts = "INSERT (1) INTO R; ".repeat(MAX_LOG_COUNT + 1);
    let long = format!("SELECT @a FROM R(@a) CHOOSE 1 FOLLOWED BY ({inserts})");
    let refused = db.execute(&long);
    assert!(
        matches!(
            refused,
            Err(EngineError::Logic(LogicError::TooLarge { count, .. })) if count == MAX_LOG_COUNT + 1
        ),
        "{refused:?}"
    );
    assert_eq!(db.wal_image(), image, "nothing refused reaches the log");

    db.execute("INSERT INTO R VALUES (5)").unwrap();
    let wal = Wal::with_sink(Box::new(MemorySink::from_bytes(db.wal_image())));
    let recovered = QuantumDb::recover(wal, QuantumDbConfig::default())
        .unwrap()
        .into_shared();
    let rows = recovered.execute("SELECT @a FROM R(@a)").unwrap();
    assert_eq!(rows.rows().map(<[_]>::len), Some(1), "{rows:?}");
}
