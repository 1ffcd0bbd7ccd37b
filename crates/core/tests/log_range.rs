//! The engine reads its log by range: recovery streams it frame by frame,
//! and a replication poll reads and copies only its segment. A sink that
//! lends at most five bytes per chunk and counts what it lends shows both.
//! (`qdb_storage`'s own tests hold recovery from memory to a materialising
//! reference.)

use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::Arc;

use qdb_core::{world_fingerprint, QuantumDb, QuantumDbConfig, SharedQuantumDb};
use qdb_logic::parse_transaction;
use qdb_storage::wal::MemorySink;
use qdb_storage::{tuple, LogSink, Schema, ValueType, Wal, WriteOp};

/// Lends at most `CHUNK` bytes per chunk; counts the bytes it lends.
struct TrickleSink {
    bytes: Vec<u8>,
    lent: Arc<AtomicU64>,
}

const CHUNK: usize = 5;

impl LogSink for TrickleSink {
    fn append(&mut self, frame: &[u8]) -> qdb_storage::Result<()> {
        self.bytes.extend_from_slice(frame);
        Ok(())
    }
    fn read_from(
        &self,
        offset: u64,
        f: &mut dyn FnMut(&[u8]) -> qdb_storage::Result<bool>,
    ) -> qdb_storage::Result<()> {
        let from = (offset as usize).min(self.bytes.len());
        for chunk in self.bytes[from..].chunks(CHUNK) {
            self.lent.fetch_add(chunk.len() as u64, SeqCst);
            if !f(chunk)? {
                break;
            }
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

fn trickle_wal(bytes: Vec<u8>) -> (Wal, Arc<AtomicU64>) {
    let lent = Arc::new(AtomicU64::new(0));
    let sink = TrickleSink {
        bytes,
        lent: lent.clone(),
    };
    (Wal::with_sink(Box::new(sink)), lent)
}

/// DDL, rows, pending bookings on two flights, one grounded, a blind
/// write and a checkpoint, logged through `wal`.
fn history(wal: Wal) -> SharedQuantumDb {
    let qdb = QuantumDb::with_wal(QuantumDbConfig::default(), wal).into_shared();
    qdb.create_table(Schema::new(
        "Available",
        vec![("flight", ValueType::Int), ("seat", ValueType::Str)],
    ))
    .unwrap();
    qdb.create_table(Schema::new(
        "Bookings",
        vec![
            ("name", ValueType::Str),
            ("flight", ValueType::Int),
            ("seat", ValueType::Str),
        ],
    ))
    .unwrap();
    qdb.create_index("Available", 0).unwrap();
    for flight in [1, 2] {
        qdb.bulk_insert(
            "Available",
            ["A", "B", "C", "D"]
                .iter()
                .map(|s| tuple![flight, *s])
                .collect(),
        )
        .unwrap();
    }
    let mut ids = Vec::new();
    for (name, flight) in [("Mickey", 1), ("Donald", 2), ("Daisy", 1), ("Goofy", 2)] {
        let txn = parse_transaction(&format!(
            "-Available({flight}, s), +Bookings('{name}', {flight}, s) :-1 Available({flight}, s)"
        ))
        .unwrap();
        ids.push(qdb.submit(&txn).unwrap().id().unwrap());
    }
    assert!(qdb.ground(ids[1]).unwrap());
    qdb.write(WriteOp::insert("Available", tuple![3, "Z"]))
        .unwrap();
    qdb.checkpoint().unwrap();
    qdb
}

#[test]
fn a_poll_returns_exactly_its_range_and_reads_no_more() {
    let (wal, lent) = trickle_wal(Vec::new());
    let primary = history(wal);
    let image = primary.wal_image();
    let len = image.len();
    for offset in (0..len + 12).step_by(3) {
        for max in [1, 7, 64, 1 << 20] {
            let before = lent.load(SeqCst);
            let (wal_len, _, bytes) = primary.wal_stream_from(offset as u64, max).unwrap();
            let read = lent.load(SeqCst) - before;
            let from = offset.min(len);
            let to = (offset + max).min(len);
            assert_eq!(wal_len, len as u64);
            assert_eq!(bytes, image[from..to], "offset {offset} max {max}");
            // O(max): the sink lent the segment plus at most one chunk's
            // overshoot, never the log.
            assert!(
                read <= (to - from + CHUNK - 1) as u64,
                "offset {offset} max {max}: {read} bytes read for a {}-byte segment",
                to - from
            );
        }
    }
}

#[test]
fn streaming_recovery_through_a_trickling_sink_matches_memory_recovery() {
    let image = history(Wal::in_memory()).wal_image();
    for cut in 0..=image.len() {
        let prefix = image[..cut].to_vec();
        let memory = Wal::with_sink(Box::new(MemorySink::from_bytes(prefix.clone())));
        let want = qdb_storage::recover(&memory).unwrap();
        let (trickle, lent) = trickle_wal(prefix);
        let got = qdb_storage::recover(&trickle).unwrap();
        assert!(
            lent.load(SeqCst) <= cut as u64,
            "cut {cut}: the log is read once"
        );
        assert_eq!(got.records_applied, want.records_applied, "cut {cut}");
        assert_eq!(got.consumed_bytes, want.consumed_bytes, "cut {cut}");
        assert_eq!(got.pending, want.pending, "cut {cut}");
        assert_eq!(
            world_fingerprint(&got.db),
            world_fingerprint(&want.db),
            "cut {cut}"
        );
    }
}
