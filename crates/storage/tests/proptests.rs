//! Property tests for the storage substrate: a table is a set of tuples
//! under random insert/delete streams, WAL replay of any byte prefix
//! yields a prefix of the record stream (crash consistency), and
//! recovery from a log reproduces the directly-built state.
//!
//! The `proptest` crate is not vendored in this offline workspace, so the
//! cases are driven by a seeded splitmix64 generator (failures print the
//! case seed).

use std::collections::BTreeSet;

use qdb_storage::wal::replay_bytes;
use qdb_storage::{recover, Database, LogRecord, Schema, Tuple, Value, ValueType, Wal, WriteOp};
use qdb_workload::rng::StdRng;

const CASES: u64 = 200;

fn seat_schema() -> Schema {
    Schema::new(
        "Available",
        vec![("flight", ValueType::Int), ("seat", ValueType::Str)],
    )
}

/// 1–59 inserts and deletes of seats drawn from 5 flights × 9 labels, so
/// duplicates, absent deletes and re-inserts are all common.
fn random_seat_ops(rng: &mut StdRng) -> Vec<WriteOp> {
    (0..1 + rng.gen_range(0..59))
        .map(|_| {
            let seat = format!(
                "{}{}",
                ["A", "B", "C"][rng.gen_range(0..3)],
                1 + rng.gen_range(0..3)
            );
            let t = Tuple::from(vec![
                Value::from(rng.gen_range(0..5) as i64),
                Value::from(seat),
            ]);
            if rng.gen_range(0..2) == 0 {
                WriteOp::insert("Available", t)
            } else {
                WriteOp::delete("Available", t)
            }
        })
        .collect()
}

/// A table behaves exactly like a set of tuples (whole-tuple key), and
/// its indexed selects agree with the model per flight.
#[test]
fn table_is_a_set() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x57A0_0000 ^ case);
        let mut db = Database::new();
        db.create_table(seat_schema()).unwrap();
        db.table_mut("Available").unwrap().create_index(0).unwrap();
        let mut model = BTreeSet::new();
        for op in random_seat_ops(&mut rng) {
            let changed = db.apply(&op).unwrap();
            let expected = match &op {
                WriteOp::Insert { tuple, .. } => model.insert(tuple.clone()),
                WriteOp::Delete { tuple, .. } => model.remove(tuple),
            };
            assert_eq!(changed, expected, "case {case}: {op}");
        }
        let table = db.table("Available").unwrap();
        let rows: Vec<Tuple> = table.iter().cloned().collect();
        let want: Vec<Tuple> = model.iter().cloned().collect();
        assert_eq!(rows, want, "case {case}");
        for f in 0i64..5 {
            let got = table.select(&[Some(Value::from(f)), None]).count();
            let want = model.iter().filter(|t| t[0] == Value::from(f)).count();
            assert_eq!(got, want, "case {case}: indexed select of flight {f}");
        }
    }
}

/// Replaying the log image cut at **every** byte offset yields a prefix
/// of the appended records and never consumes past the cut.
#[test]
fn wal_prefix_replay() {
    for case in 0..20u64 {
        let mut rng = StdRng::seed_from_u64(0x57B0_0000 ^ case);
        let mut wal = Wal::in_memory();
        let mut expected = Vec::new();
        for i in 0..1 + rng.gen_range(0..29) as u64 {
            let record = match rng.gen_range(0..4) {
                0 => LogRecord::Write(WriteOp::insert(
                    "T",
                    Tuple::from(vec![Value::from(i as i64)]),
                )),
                1 => LogRecord::PendingAdd {
                    id: i,
                    payload: vec![i as u8; rng.gen_range(0..7)],
                },
                2 => LogRecord::PendingRemove { id: i / 2 },
                _ => LogRecord::Ground {
                    id: i,
                    ops: random_seat_ops(&mut rng).into_iter().take(3).collect(),
                },
            };
            wal.append(&record).unwrap();
            expected.push(record);
        }
        let image = wal.image().unwrap();
        let mut seen = 0;
        for cut in 0..=image.len() {
            let (records, consumed) = replay_bytes(&image[..cut]).unwrap();
            assert!(consumed as usize <= cut, "case {case}, cut {cut}");
            assert_eq!(
                records.as_slice(),
                &expected[..records.len()],
                "case {case}, cut {cut}"
            );
            assert!(
                records.len() >= seen,
                "case {case}, cut {cut}: lost a record"
            );
            seen = records.len();
        }
        assert_eq!(
            seen,
            expected.len(),
            "case {case}: full image replays fully"
        );
    }
}

/// Recovery from a log of random operations (no-ops logged too)
/// reproduces the directly-built database row for row.
#[test]
fn recovery_matches_direct_state() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x57C0_0000 ^ case);
        let mut wal = Wal::in_memory();
        let mut direct = Database::new();
        direct.create_table(seat_schema()).unwrap();
        wal.append(&LogRecord::CreateTable(seat_schema())).unwrap();
        for op in random_seat_ops(&mut rng) {
            direct.apply(&op).unwrap();
            wal.append(&LogRecord::Write(op)).unwrap();
        }
        let recovered = recover(&wal).unwrap();
        let rows = |db: &Database| -> Vec<Tuple> {
            db.table("Available").unwrap().iter().cloned().collect()
        };
        assert_eq!(rows(&recovered.db), rows(&direct), "case {case}");
        assert_eq!(recovered.consumed_bytes, wal.size_bytes(), "case {case}");
    }
}
