//! Crash recovery: rebuild a [`Database`] and the pending-transaction table
//! from a WAL image.
//!
//! §4 "Recovery": *"During recovery, a quantum database module restores the
//! in-memory quantum state to what it was before the crash based on the
//! pending transactions table."* Storage-level recovery reconstructs the
//! extensional database and hands the (still serialized) pending
//! transactions to the quantum layer, which re-parses and re-solves them.
//!
//! Replay is a bulk load. DDL (`CreateTable`, `CreateIndex`) reaches the
//! [`Database`] in log order, so its tables and indexes exist — empty —
//! from the frame that made them. Every `Write` and `Ground` op is checked
//! as [`Table::insert`](crate::Table::insert) / [`Table::delete`](crate::Table::delete)
//! check it (the table exists, the row fits its schema; same errors) and
//! is then folded into a hash set of rows per relation. After the last
//! intact frame each table is filled from its set, so its ordered rows and
//! secondary indexes are built once, for the rows that survive, instead of
//! being kept up to date through every write the log later undoes. The
//! fold is exact because a table's key is its whole row: the rows that
//! survive a sequence of set inserts and deletes do not depend on how they
//! are stored.

use std::collections::{BTreeMap, HashSet};

use crate::database::{Database, RelationId, WriteOp};
use crate::tuple::Tuple;
use crate::wal::{FrameReader, LogRecord, Wal};
use crate::Result;

/// Output of storage-level recovery.
#[derive(Debug)]
pub struct RecoveredState {
    /// The reconstructed extensional database.
    pub db: Database,
    /// Still-pending resource transactions in id (= arrival) order:
    /// `(id, serialized payload)`.
    pub pending: Vec<(u64, Vec<u8>)>,
    /// The highest id any logged `PendingAdd` carries, grounded or not:
    /// the transaction-id counter resumes past it.
    pub last_txn_id: Option<u64>,
    /// Number of log records applied.
    pub records_applied: usize,
    /// Byte offset where replay stopped (end of intact log prefix).
    pub consumed_bytes: u64,
}

/// Replay `wal` into a fresh database.
///
/// The log is read in chunks and each frame is decoded and folded as it
/// arrives, so recovery holds the surviving rows plus one chunk — never
/// the log or its decoded records. A `PendingAdd` payload is kept only
/// while its transaction is pending.
///
/// Inserts of already-present rows and deletes of absent rows replay as
/// no-ops (they were no-ops when first applied too); any other failure —
/// e.g. a write against a table whose `CreateTable` record is missing, or
/// a row that does not fit its table's schema — aborts recovery with an
/// error, because it means the log is not a prefix of any valid history.
pub fn recover(wal: &Wal) -> Result<RecoveredState> {
    let mut db = Database::new();
    // Surviving rows per table, indexed by `RelationId`.
    let mut rows: Vec<HashSet<Tuple>> = Vec::new();
    let mut pending: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    let mut last_txn_id = None;
    let mut records_applied = 0;
    let mut reader = FrameReader::new();
    wal.read_from(0, &mut |chunk| {
        reader.feed(chunk, |record, _| {
            match record {
                LogRecord::CreateTable(schema) => {
                    db.create_table(schema)?;
                    rows.push(HashSet::new());
                }
                LogRecord::CreateIndex { relation, column } => {
                    db.table_mut(&relation)?.create_index(column as usize)?;
                }
                LogRecord::Write(op) => fold(&db, &mut rows, op)?,
                LogRecord::PendingAdd { id, payload } => {
                    last_txn_id = last_txn_id.max(Some(id));
                    pending.insert(id, payload);
                }
                LogRecord::PendingRemove { id } => {
                    pending.remove(&id);
                }
                LogRecord::Ground { id, ops } => {
                    for op in ops {
                        fold(&db, &mut rows, op)?;
                    }
                    pending.remove(&id);
                }
                LogRecord::Checkpoint => {}
            }
            records_applied += 1;
            Ok(())
        })
    })?;
    for (i, set) in rows.into_iter().enumerate() {
        let table = db.table_by_id_mut(RelationId::from_index(i));
        for row in set {
            table.insert(row)?;
        }
    }
    Ok(RecoveredState {
        db,
        pending: pending.into_iter().collect(),
        last_txn_id,
        records_applied,
        consumed_bytes: reader.consumed(),
    })
}

/// Check `op` as the table would, then apply it to its relation's row set.
fn fold(db: &Database, rows: &mut [HashSet<Tuple>], op: WriteOp) -> Result<()> {
    let id = db.resolve(op.relation())?;
    db.table_by_id(id).schema().check(op.tuple())?;
    let set = &mut rows[id.index()];
    match op {
        WriteOp::Insert { tuple, .. } => {
            set.insert(tuple);
        }
        WriteOp::Delete { tuple, .. } => {
            set.remove(&tuple);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::WriteOp;
    use crate::index::SecondaryIndex;
    use crate::schema::{Schema, ValueType};
    use crate::tuple;
    use crate::value::Value;
    use crate::wal::{replay_bytes, MemorySink};
    use qdb_workload::rng::StdRng;

    fn schema() -> Schema {
        Schema::new(
            "Available",
            vec![("flight", ValueType::Int), ("seat", ValueType::Str)],
        )
    }

    #[test]
    fn full_recovery_rebuilds_state() {
        let mut wal = Wal::in_memory();
        wal.append(&LogRecord::CreateTable(schema())).unwrap();
        wal.append(&LogRecord::CreateIndex {
            relation: "Available".into(),
            column: 0,
        })
        .unwrap();
        wal.append(&LogRecord::Write(WriteOp::insert(
            "Available",
            tuple![1, "1A"],
        )))
        .unwrap();
        wal.append(&LogRecord::Write(WriteOp::insert(
            "Available",
            tuple![1, "1B"],
        )))
        .unwrap();
        wal.append(&LogRecord::PendingAdd {
            id: 3,
            payload: vec![9],
        })
        .unwrap();
        wal.append(&LogRecord::PendingAdd {
            id: 5,
            payload: vec![8],
        })
        .unwrap();
        wal.append(&LogRecord::Write(WriteOp::delete(
            "Available",
            tuple![1, "1A"],
        )))
        .unwrap();
        wal.append(&LogRecord::PendingRemove { id: 3 }).unwrap();

        let state = recover(&wal).unwrap();
        assert_eq!(state.records_applied, 8);
        assert!(state.db.contains("Available", &tuple![1, "1B"]));
        assert!(!state.db.contains("Available", &tuple![1, "1A"]));
        assert_eq!(state.pending, vec![(5, vec![8])]);
    }

    #[test]
    fn recovery_of_torn_log_yields_prefix_state() {
        let mut wal = Wal::in_memory();
        wal.append(&LogRecord::CreateTable(schema())).unwrap();
        wal.append(&LogRecord::Write(WriteOp::insert(
            "Available",
            tuple![1, "1A"],
        )))
        .unwrap();
        let good = wal.size_bytes() as usize;
        wal.append(&LogRecord::Write(WriteOp::insert(
            "Available",
            tuple![1, "1B"],
        )))
        .unwrap();
        // Simulate crash mid-frame on the last record.
        let bytes = wal.image().unwrap();
        let torn = &bytes[..good + 5];
        let mut torn_wal = Wal::with_sink(Box::new(MemorySink::from_bytes(torn.to_vec())));
        // Wal::with_sink tracks appended records only; replay reads the sink.
        let state = recover(&torn_wal).unwrap();
        assert_eq!(state.records_applied, 2);
        assert!(state.db.contains("Available", &tuple![1, "1A"]));
        assert!(!state.db.contains("Available", &tuple![1, "1B"]));
        assert_eq!(state.consumed_bytes as usize, good);
        // And the torn WAL can keep being appended to after recovery
        // (engine truncates to consumed_bytes first in real use).
        torn_wal.append(&LogRecord::Checkpoint).unwrap();
    }

    #[test]
    fn write_against_missing_table_fails_recovery() {
        let mut wal = Wal::in_memory();
        wal.append(&LogRecord::Write(WriteOp::insert("Ghost", tuple![1, "1A"])))
            .unwrap();
        assert!(recover(&wal).is_err());
    }

    #[test]
    fn pending_order_is_id_order() {
        let mut wal = Wal::in_memory();
        for id in [9u64, 2, 5] {
            wal.append(&LogRecord::PendingAdd {
                id,
                payload: vec![id as u8],
            })
            .unwrap();
        }
        let state = recover(&wal).unwrap();
        let ids: Vec<u64> = state.pending.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, vec![2, 5, 9]);
    }

    /// The materialising reference: decode the whole image into records,
    /// then apply each op to its table as it comes — what recovery did
    /// before it streamed and before it folded.
    fn reference(image: &[u8]) -> Result<RecoveredState> {
        let (records, consumed_bytes) = replay_bytes(image)?;
        let mut db = Database::new();
        let mut pending = BTreeMap::new();
        let mut last_txn_id = None;
        for record in &records {
            match record {
                LogRecord::CreateTable(schema) => db.create_table(schema.clone())?,
                LogRecord::CreateIndex { relation, column } => {
                    db.table_mut(relation)?.create_index(*column as usize)?
                }
                LogRecord::Write(op) => {
                    db.apply(op)?;
                }
                LogRecord::PendingAdd { id, payload } => {
                    last_txn_id = last_txn_id.max(Some(*id));
                    pending.insert(*id, payload.clone());
                }
                LogRecord::PendingRemove { id } => {
                    pending.remove(id);
                }
                LogRecord::Ground { id, ops } => {
                    db.apply_all(ops)?;
                    pending.remove(id);
                }
                LogRecord::Checkpoint => {}
            }
        }
        Ok(RecoveredState {
            db,
            pending: pending.into_iter().collect(),
            last_txn_id,
            records_applied: records.len(),
            consumed_bytes,
        })
    }

    fn recover_bytes(image: &[u8]) -> Result<RecoveredState> {
        recover(&Wal::with_sink(Box::new(MemorySink::from_bytes(
            image.to_vec(),
        ))))
    }

    /// A table's schema, indexed columns, rows and index buckets.
    type TableView = (Schema, Vec<usize>, Vec<Tuple>, Vec<SecondaryIndex>);

    fn tables(s: &RecoveredState) -> Vec<TableView> {
        (s.db.tables())
            .map(|t| {
                let rows = t.iter().cloned().collect();
                (
                    t.schema().clone(),
                    t.indexed_columns(),
                    rows,
                    t.indexes().to_vec(),
                )
            })
            .collect()
    }

    fn assert_same(got: &RecoveredState, want: &RecoveredState, what: &str) {
        assert_eq!(got.records_applied, want.records_applied, "{what}");
        assert_eq!(got.consumed_bytes, want.consumed_bytes, "{what}");
        assert_eq!(got.pending, want.pending, "{what}");
        assert_eq!(got.last_txn_id, want.last_txn_id, "{what}");
        assert_eq!(tables(got), tables(want), "{what}");
    }

    /// `state` as a recovery that skipped the fill would leave it: the
    /// same tables and indexes, no rows.
    fn unfilled(state: &RecoveredState) -> Database {
        let mut db = Database::new();
        for t in state.db.tables() {
            db.create_table(t.schema().clone()).unwrap();
            for column in t.indexed_columns() {
                db.table_mut(t.schema().relation())
                    .unwrap()
                    .create_index(column)
                    .unwrap();
            }
        }
        db
    }

    /// A history with every record kind, payloads that outlive and do not
    /// outlive their transactions, and frames longer than one chunk.
    fn history() -> Vec<u8> {
        let mut wal = Wal::in_memory();
        wal.append(&LogRecord::CreateTable(schema())).unwrap();
        wal.append(&LogRecord::CreateIndex {
            relation: "Available".into(),
            column: 1,
        })
        .unwrap();
        for i in 0..6i64 {
            let seat = format!("{i}A");
            wal.append(&LogRecord::Write(WriteOp::insert(
                "Available",
                tuple![i, seat.as_str()],
            )))
            .unwrap();
            wal.append(&LogRecord::PendingAdd {
                id: i as u64,
                payload: vec![i as u8; 3 + 4 * i as usize],
            })
            .unwrap();
        }
        wal.append(&LogRecord::Ground {
            id: 1,
            ops: vec![
                WriteOp::delete("Available", tuple![1, "1A"]),
                WriteOp::insert("Available", tuple![1, "1Z"]),
            ],
        })
        .unwrap();
        wal.append(&LogRecord::PendingRemove { id: 4 }).unwrap();
        wal.append(&LogRecord::Checkpoint).unwrap();
        wal.append(&LogRecord::Write(WriteOp::delete(
            "Available",
            tuple![0, "0A"],
        )))
        .unwrap();
        wal.image().unwrap()
    }

    #[test]
    fn streaming_recovery_equals_the_materialising_reference_at_every_cut() {
        let image = history();
        for cut in 0..=image.len() {
            let prefix = &image[..cut];
            let want = reference(prefix).unwrap();
            let got = recover_bytes(prefix).unwrap();
            assert_same(&got, &want, &format!("cut {cut}"));
        }
        let whole = reference(&image).unwrap();
        assert_eq!(whole.records_applied, 18);
        assert_eq!(whole.pending.len(), 4);
    }

    #[test]
    fn recovery_reads_the_group_commit_tail_without_draining_it() {
        let mut wal = Wal::in_memory();
        let image = history();
        let (records, _) = replay_bytes(&image).unwrap();
        // Half the records reach the sink, half stay buffered.
        for (i, record) in records.iter().enumerate() {
            wal.append(record).unwrap();
            if i == records.len() / 2 {
                wal.sync().unwrap();
            }
        }
        assert!(wal.buffered_records() > 0);
        let want = reference(&image).unwrap();
        assert_same(&recover(&wal).unwrap(), &want, "sink + tail");
        assert_eq!(
            wal.buffered_records() as usize,
            records.len() - records.len() / 2 - 1
        );
    }

    /// Three tables of different shapes; rows come from a small domain,
    /// so re-inserts, repeated deletes and no-op writes are common.
    fn random_schemas() -> [Schema; 3] {
        [
            schema(),
            Schema::new(
                "Bookings",
                vec![
                    ("name", ValueType::Str),
                    ("flight", ValueType::Int),
                    ("seat", ValueType::Str),
                ],
            ),
            Schema::new(
                "Flags",
                vec![("slot", ValueType::Int), ("on", ValueType::Bool)],
            ),
        ]
    }

    fn random_op(rng: &mut StdRng, schemas: &[Schema]) -> WriteOp {
        let schema = &schemas[rng.gen_range(0..schemas.len())];
        let row: Tuple = (schema.columns().iter())
            .map(|c| match c.ty {
                ValueType::Int => Value::from(rng.gen_range(0..3) as i64),
                ValueType::Str => Value::from(["1A", "1B", "2C"][rng.gen_range(0..3)]),
                ValueType::Bool => Value::from(rng.gen_range(0..2) == 0),
            })
            .collect();
        if rng.gen_range(0..5) < 3 {
            WriteOp::insert(schema.relation(), row)
        } else {
            WriteOp::delete(schema.relation(), row)
        }
    }

    /// A random valid history over 2–3 tables (the third created mid-log)
    /// with 0–2 indexes each, created at random points: writes, grounds of
    /// several ops across tables, pending adds and removes, checkpoints.
    fn random_history(seed: u64) -> Vec<u8> {
        let mut rng = StdRng::seed_from_u64(seed);
        let all = random_schemas();
        let mut wal = Wal::in_memory();
        let mut created: Vec<Schema> = Vec::new();
        let late_table = rng.gen_range(0..2) == 0;
        for s in &all[..2] {
            wal.append(&LogRecord::CreateTable(s.clone())).unwrap();
            created.push(s.clone());
        }
        let mut next_id = 0u64;
        let mut pending: Vec<u64> = Vec::new();
        for _ in 0..40 + rng.gen_range(0..30) {
            let record = match rng.gen_range(0..20) {
                0 if late_table && created.len() == 2 => {
                    created.push(all[2].clone());
                    LogRecord::CreateTable(all[2].clone())
                }
                1 => {
                    let s = &created[rng.gen_range(0..created.len())];
                    LogRecord::CreateIndex {
                        relation: s.relation().into(),
                        column: rng.gen_range(0..s.arity().min(2)) as u32,
                    }
                }
                2..=4 => {
                    next_id += 1;
                    pending.push(next_id);
                    LogRecord::PendingAdd {
                        id: next_id,
                        payload: vec![next_id as u8; rng.gen_range(0..4)],
                    }
                }
                5 if !pending.is_empty() => {
                    let id = pending.remove(rng.gen_range(0..pending.len()));
                    LogRecord::PendingRemove { id }
                }
                6..=8 if !pending.is_empty() => {
                    let id = pending.remove(rng.gen_range(0..pending.len()));
                    let ops = (0..rng.gen_range(0..4))
                        .map(|_| random_op(&mut rng, &created))
                        .collect();
                    LogRecord::Ground { id, ops }
                }
                9 => LogRecord::Checkpoint,
                _ => LogRecord::Write(random_op(&mut rng, &created)),
            };
            wal.append(&record).unwrap();
        }
        wal.image().unwrap()
    }

    #[test]
    fn folded_recovery_equals_the_per_op_reference_at_every_cut_of_random_histories() {
        let mut indexed = 0;
        for seed in 0..12u64 {
            let image = random_history(seed);
            for cut in 0..=image.len() {
                let prefix = &image[..cut];
                let want = reference(prefix).unwrap();
                let got = recover_bytes(prefix).unwrap();
                assert_same(&got, &want, &format!("seed {seed} cut {cut}"));
            }
            let whole = recover_bytes(&image).unwrap();
            indexed += whole
                .db
                .tables()
                .filter(|t| !t.indexed_columns().is_empty())
                .count();
            assert!(whole.db.total_rows() > 0, "seed {seed}: nothing survives");
        }
        assert!(indexed > 0, "no history indexed a table");
    }

    #[test]
    fn the_differential_fails_a_recovery_that_skips_the_fill() {
        for seed in 0..12u64 {
            let whole = recover_bytes(&random_history(seed)).unwrap();
            let skipped = RecoveredState {
                db: unfilled(&whole),
                pending: whole.pending.clone(),
                ..whole
            };
            assert_ne!(tables(&skipped), tables(&whole), "seed {seed}");
        }
    }

    #[test]
    fn bad_writes_fail_recovery_on_both_paths() {
        let good = LogRecord::Write(WriteOp::insert("Available", tuple![1, "1A"]));
        let cases = [
            (
                "wrong arity",
                LogRecord::Write(WriteOp::insert("Available", tuple![1])),
            ),
            (
                "wrong type",
                LogRecord::Write(WriteOp::delete("Available", tuple!["1", "1A"])),
            ),
            (
                "wrong type in a ground",
                LogRecord::Ground {
                    id: 0,
                    ops: vec![
                        WriteOp::insert("Available", tuple![2, "2A"]),
                        WriteOp::insert("Available", tuple![2, 2]),
                    ],
                },
            ),
            (
                "write before its table",
                LogRecord::Write(WriteOp::insert("Late", tuple![1])),
            ),
        ];
        for (what, bad) in cases {
            let mut wal = Wal::in_memory();
            wal.append(&LogRecord::CreateTable(schema())).unwrap();
            wal.append(&good).unwrap();
            wal.append(&bad).unwrap();
            wal.append(&LogRecord::CreateTable(Schema::new(
                "Late",
                vec![("x", ValueType::Int)],
            )))
            .unwrap();
            wal.append(&good).unwrap();
            let image = wal.image().unwrap();
            let got = recover_bytes(&image).expect_err(what);
            let want = reference(&image).expect_err(what);
            assert_eq!(got, want, "{what}");
        }
    }
}
