//! What a failed statement leaves behind. After any error the live engine
//! must equal recovery of its own log — the same tables and the same
//! pending ids — and no transaction may hold two bookings: a grounding
//! whose `Ground` frame did not reach the log must not reach the base
//! either, and a submit that fails must not drop the committed
//! transactions it claimed. The sink here fails appends on demand, with
//! the WAL draining on every append so a sink failure is an append
//! failure.
//!
//! The last test holds `GROUND ALL` to `GROUND <id>`: twin engines fed one
//! seeded stream end with equal databases and the same `Ground` frames
//! whether they collapse with one `GROUND ALL` or by grounding the lowest
//! pending id until nothing is pending.

use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::Arc;

use qdb_core::{
    world_fingerprint, EngineError, QuantumDb, QuantumDbConfig, Serializability, SharedQuantumDb,
};
use qdb_logic::{parse_transaction, ResourceTransaction};
use qdb_storage::wal::{replay_bytes, MemorySink};
use qdb_storage::{tuple, LogRecord, LogSink, Schema, StorageError, Tuple, ValueType, Wal};

/// Appends left before the sink fails; `UNLIMITED` never fails.
const UNLIMITED: u64 = u64::MAX;

/// An in-memory sink that accepts as many appends as its budget allows.
struct BudgetSink {
    bytes: Vec<u8>,
    budget: Arc<AtomicU64>,
}

impl LogSink for BudgetSink {
    fn append(&mut self, frame: &[u8]) -> qdb_storage::Result<()> {
        let spend = |b: u64| match b {
            0 => None,
            UNLIMITED => Some(b),
            b => Some(b - 1),
        };
        if self.budget.fetch_update(SeqCst, SeqCst, spend).is_err() {
            return Err(StorageError::Io("append budget spent".into()));
        }
        self.bytes.extend_from_slice(frame);
        Ok(())
    }
    fn read_from(
        &self,
        offset: u64,
        f: &mut dyn FnMut(&[u8]) -> qdb_storage::Result<bool>,
    ) -> qdb_storage::Result<()> {
        if let Some(rest) = self.bytes.get(offset as usize..).filter(|r| !r.is_empty()) {
            f(rest)?;
        }
        Ok(())
    }
    fn len(&self) -> u64 {
        self.bytes.len() as u64
    }
    fn truncate_to(&mut self, len: u64) -> qdb_storage::Result<()> {
        self.bytes.truncate(len as usize);
        Ok(())
    }
}

const SEATS: [&str; 4] = ["A", "B", "C", "D"];

/// Flights `1..=flights`, four seats each in one row, adjacency along the
/// row; the WAL drains on every append into a sink with the returned
/// budget.
fn engine(config: QuantumDbConfig, flights: i64) -> (SharedQuantumDb, Arc<AtomicU64>) {
    let budget = Arc::new(AtomicU64::new(UNLIMITED));
    let sink = BudgetSink {
        bytes: Vec::new(),
        budget: budget.clone(),
    };
    let mut wal = Wal::with_sink(Box::new(sink));
    wal.set_group_limit(0);
    let qdb = QuantumDb::with_wal(config, wal).into_shared();
    let text = |name| (name, ValueType::Str);
    let available = vec![("flight", ValueType::Int), text("seat")];
    qdb.create_table(Schema::new("Available", available))
        .unwrap();
    let bookings = vec![text("name"), ("flight", ValueType::Int), text("seat")];
    qdb.create_table(Schema::new("Bookings", bookings)).unwrap();
    let adjacent = vec![text("s1"), text("s2")];
    qdb.create_table(Schema::new("Adjacent", adjacent)).unwrap();
    let seats: Vec<Tuple> = (1..=flights)
        .flat_map(|f| SEATS.map(|s| tuple![f, format!("{f}{s}")]))
        .collect();
    qdb.bulk_insert("Available", seats).unwrap();
    let mut adjacent = Vec::new();
    for f in 1..=flights {
        for pair in SEATS.windows(2) {
            let (a, b) = (format!("{f}{}", pair[0]), format!("{f}{}", pair[1]));
            adjacent.push(tuple![a.as_str(), b.as_str()]);
            adjacent.push(tuple![b.as_str(), a.as_str()]);
        }
    }
    qdb.bulk_insert("Adjacent", adjacent).unwrap();
    (qdb, budget)
}

fn book(name: &str, flight: i64) -> ResourceTransaction {
    parse_transaction(&format!(
        "-Available({flight}, s), +Bookings('{name}', {flight}, s) :-1 Available({flight}, s)"
    ))
    .unwrap()
}

fn book_seat(name: &str, flight: i64, seat: &str) -> ResourceTransaction {
    parse_transaction(&format!(
        "-Available({flight}, '{seat}'), +Bookings('{name}', {flight}, '{seat}') :-1 \
         Available({flight}, '{seat}')"
    ))
    .unwrap()
}

fn book_next_to(name: &str, partner: &str, flight: i64) -> ResourceTransaction {
    parse_transaction(&format!(
        "-Available({flight}, s), +Bookings('{name}', {flight}, s) :-1 \
         Available({flight}, s), Bookings('{partner}', {flight}, s2)?, Adjacent(s, s2)?"
    ))
    .unwrap()
}

fn bookings_of(qdb: &SharedQuantumDb, name: &str) -> usize {
    qdb.with_database(|db| {
        let rows = db.table("Bookings").unwrap().iter();
        rows.filter(|r| r.values()[0].as_str() == Some(name))
            .count()
    })
}

/// The contract after any error: recovery of the live engine's log gives
/// its tables and pending ids, the pending gauge counts those ids, and no
/// name holds two bookings.
fn assert_live_is_recovery(qdb: &SharedQuantumDb, label: &str) {
    let wal = Wal::with_sink(Box::new(MemorySink::from_bytes(qdb.wal_image())));
    let recovered = QuantumDb::recover(wal, qdb.config().clone()).unwrap();
    let live = qdb.with_database(world_fingerprint);
    assert_eq!(
        world_fingerprint(recovered.database()),
        live,
        "{label}: tables"
    );
    let pending = qdb.pending_ids();
    assert_eq!(recovered.pending_ids(), pending, "{label}: pending ids");
    assert_eq!(
        qdb.metrics_with_pending().1,
        pending.len() as u64,
        "{label}: gauge"
    );
    let names: Vec<String> = qdb.with_database(|db| {
        let rows = db.table("Bookings").unwrap().iter();
        rows.map(|r| r.values()[0].as_str().unwrap().to_string())
            .collect()
    });
    let mut distinct = names.clone();
    distinct.sort();
    distinct.dedup();
    assert_eq!(
        distinct.len(),
        names.len(),
        "{label}: double booking {names:?}"
    );
}

#[test]
fn a_ground_whose_frame_fails_reaches_neither_log_nor_base() {
    let (qdb, budget) = engine(QuantumDbConfig::default(), 1);
    let id = qdb.submit(&book("Mickey", 1)).unwrap().id().unwrap();
    budget.store(0, SeqCst);
    assert!(matches!(
        qdb.ground(id),
        Err(EngineError::Storage(StorageError::Io(_)))
    ));
    assert_eq!(qdb.pending_ids(), vec![id]);
    assert_eq!(bookings_of(&qdb, "Mickey"), 0);
    assert_live_is_recovery(&qdb, "after the failed ground");

    // The retry grounds Mickey once, and GROUND ALL finds nothing left.
    budget.store(UNLIMITED, SeqCst);
    assert!(qdb.ground(id).unwrap());
    qdb.ground_all().unwrap();
    assert_eq!(bookings_of(&qdb, "Mickey"), 1);
    assert_live_is_recovery(&qdb, "after the retry");
}

#[test]
fn a_submit_that_fails_after_its_claim_keeps_the_claimed_partitions() {
    let (qdb, budget) = engine(QuantumDbConfig::default(), 1);
    let a = qdb.submit(&book("Mickey", 1)).unwrap().id().unwrap();
    let b = qdb.submit(&book("Goofy", 1)).unwrap().id().unwrap();
    budget.store(0, SeqCst);
    // The third booking overlaps both pending ones: its claim drains their
    // partition before the log refuses its `PendingAdd`.
    assert!(matches!(
        qdb.submit(&book("Pluto", 1)),
        Err(EngineError::Storage(StorageError::Io(_)))
    ));
    assert_eq!(qdb.pending_ids(), vec![a, b]);
    assert_live_is_recovery(&qdb, "after the failed submit");

    budget.store(UNLIMITED, SeqCst);
    assert!(qdb.submit(&book("Pluto", 1)).unwrap().is_committed());
    qdb.ground_all().unwrap();
    for name in ["Mickey", "Goofy", "Pluto"] {
        assert_eq!(bookings_of(&qdb, name), 1, "{name}");
    }
    assert_live_is_recovery(&qdb, "after the collapse");
}

#[test]
fn ground_all_failing_inside_a_partner_group_keeps_the_landed_member_out() {
    let config = QuantumDbConfig {
        ground_on_partner_arrival: false,
        ..QuantumDbConfig::default()
    };
    let (qdb, budget) = engine(config, 2);
    // Donald's partition is claimed first, so it collapses first; the
    // pair's group is then grounded jointly, one frame per member.
    qdb.submit(&book("Donald", 2)).unwrap();
    qdb.submit(&book_next_to("Mickey", "Goofy", 1)).unwrap();
    qdb.submit(&book_next_to("Goofy", "Mickey", 1)).unwrap();
    assert_eq!(qdb.pending_count(), 3);
    // Donald's frame and the group's first land; the second does not.
    budget.store(2, SeqCst);
    assert!(qdb.ground_all().is_err());
    assert_eq!(qdb.pending_count(), 1, "{:?}", qdb.pending_ids());
    assert_eq!(bookings_of(&qdb, "Donald"), 1);
    assert_eq!(bookings_of(&qdb, "Mickey") + bookings_of(&qdb, "Goofy"), 1);
    assert_live_is_recovery(&qdb, "after the failed collapse");

    budget.store(UNLIMITED, SeqCst);
    qdb.ground_all().unwrap();
    for name in ["Donald", "Mickey", "Goofy"] {
        assert_eq!(bookings_of(&qdb, name), 1, "{name}");
    }
    assert_live_is_recovery(&qdb, "after the second collapse");
}

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// A seeded stream over three flights: free and fixed-seat bookings, and
/// pairs whose halves name each other as partners (optional adjacency
/// atoms); some pairs never complete.
fn stream(seed: u64) -> Vec<ResourceTransaction> {
    let mut rng = Rng(seed);
    let mut out = Vec::new();
    // Open pairs: (first half, the second half's name, flight).
    let mut open: Vec<(String, String, i64)> = Vec::new();
    for i in 0..24 {
        let name = format!("u{i}");
        let flight = 1 + rng.below(3) as i64;
        out.push(match rng.below(5) {
            0 => book(&name, flight),
            1 => {
                let seat = format!("{flight}{}", SEATS[rng.below(4) as usize]);
                book_seat(&name, flight, &seat)
            }
            2 if !open.is_empty() => {
                let (first, second, flight) = open.remove(rng.below(open.len() as u64) as usize);
                book_next_to(&second, &first, flight)
            }
            _ => {
                let second = format!("p{i}");
                open.push((name.clone(), second.clone(), flight));
                book_next_to(&name, &second, flight)
            }
        });
    }
    out
}

fn ground_frames(qdb: &SharedQuantumDb) -> Vec<String> {
    let (records, _) = replay_bytes(&qdb.wal_image()).unwrap();
    let mut frames: Vec<String> = (records.iter())
        .filter(|r| matches!(r, LogRecord::Ground { .. }))
        .map(|r| format!("{r:?}"))
        .collect();
    frames.sort();
    frames
}

#[test]
fn ground_all_collapses_like_grounding_the_lowest_pending_id() {
    let configs = [
        (Serializability::Semantic, 3, true),
        (Serializability::Semantic, 6, false),
        (Serializability::Strict, 4, true),
    ];
    // Transactions the final collapse grounds, over the whole sweep.
    let mut collapsed = 0;
    for seed in 0..20u64 {
        for &(serializability, k, partners) in &configs {
            let config = QuantumDbConfig {
                k,
                serializability,
                ground_on_partner_arrival: partners,
                ..QuantumDbConfig::default()
            };
            let label = format!("seed {seed}, {serializability:?}, k {k}, partners {partners}");
            let (all, _) = engine(config.clone(), 3);
            let (one, _) = engine(config, 3);
            for txn in stream(0x6A0_0000 + seed) {
                let a = all.submit(&txn).unwrap();
                let b = one.submit(&txn).unwrap();
                assert_eq!(a, b, "{label}: {txn}");
            }
            collapsed += all.pending_count();
            all.ground_all().unwrap();
            while let Some(&id) = one.pending_ids().first() {
                assert!(one.ground(id).unwrap(), "{label}: ground {id}");
            }
            assert_eq!(all.pending_count(), 0, "{label}");
            assert_eq!(
                all.with_database(world_fingerprint),
                one.with_database(world_fingerprint),
                "{label}: databases"
            );
            assert_eq!(ground_frames(&all), ground_frames(&one), "{label}: frames");
            assert_live_is_recovery(&all, &label);
        }
    }
    // The sweep is armed: the final collapses ground a good share of it.
    assert!(
        collapsed >= 400,
        "only {collapsed} grounded by the collapses"
    );
}
