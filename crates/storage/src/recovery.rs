//! Crash recovery: rebuild a [`Database`] and the pending-transaction table
//! from a WAL image.
//!
//! §4 "Recovery": *"During recovery, a quantum database module restores the
//! in-memory quantum state to what it was before the crash based on the
//! pending transactions table."* Storage-level recovery reconstructs the
//! extensional database and hands the (still serialized) pending
//! transactions to the quantum layer, which re-parses and re-solves them.

use std::collections::BTreeMap;

use crate::database::Database;
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
    /// Number of log records applied.
    pub records_applied: usize,
    /// Byte offset where replay stopped (end of intact log prefix).
    pub consumed_bytes: u64,
}

/// Replay `wal` into a fresh database.
///
/// The log is read in chunks and each frame is decoded and applied as it
/// arrives, so recovery holds the recovered state plus one chunk — never
/// the log or its decoded records. A `PendingAdd` payload is kept only
/// while its transaction is pending.
///
/// Inserts of already-present rows and deletes of absent rows replay as
/// no-ops (they were no-ops when first applied too); any other failure —
/// e.g. a write against a table whose `CreateTable` record is missing —
/// aborts recovery with an error, because it means the log is not a prefix
/// of any valid history.
pub fn recover(wal: &Wal) -> Result<RecoveredState> {
    let mut db = Database::new();
    let mut pending: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    let mut records_applied = 0;
    let mut reader = FrameReader::new();
    wal.read_from(0, &mut |chunk| {
        reader.feed(chunk, |record, _| {
            match record {
                LogRecord::CreateTable(schema) => db.create_table(schema)?,
                LogRecord::CreateIndex { relation, column } => {
                    db.table_mut(&relation)?.create_index(column as usize)?;
                }
                LogRecord::Write(op) => {
                    db.apply(&op)?;
                }
                LogRecord::PendingAdd { id, payload } => {
                    pending.insert(id, payload);
                }
                LogRecord::PendingRemove { id } => {
                    pending.remove(&id);
                }
                LogRecord::Ground { id, ops } => {
                    for op in &ops {
                        db.apply(op)?;
                    }
                    pending.remove(&id);
                }
                LogRecord::Checkpoint => {}
            }
            records_applied += 1;
            Ok(())
        })
    })?;
    Ok(RecoveredState {
        db,
        pending: pending.into_iter().collect(),
        records_applied,
        consumed_bytes: reader.consumed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::WriteOp;
    use crate::schema::{Schema, ValueType};
    use crate::tuple;
    use crate::wal::{replay_bytes, MemorySink};

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
    /// then apply them — what recovery did before it streamed.
    fn reference(image: &[u8]) -> RecoveredState {
        let (records, consumed_bytes) = replay_bytes(image).unwrap();
        let mut db = Database::new();
        let mut pending = BTreeMap::new();
        for record in &records {
            match record {
                LogRecord::CreateTable(schema) => db.create_table(schema.clone()).unwrap(),
                LogRecord::CreateIndex { relation, column } => db
                    .table_mut(relation)
                    .unwrap()
                    .create_index(*column as usize)
                    .unwrap(),
                LogRecord::Write(op) => {
                    db.apply(op).unwrap();
                }
                LogRecord::PendingAdd { id, payload } => {
                    pending.insert(*id, payload.clone());
                }
                LogRecord::PendingRemove { id } => {
                    pending.remove(id);
                }
                LogRecord::Ground { id, ops } => {
                    db.apply_all(ops).unwrap();
                    pending.remove(id);
                }
                LogRecord::Checkpoint => {}
            }
        }
        RecoveredState {
            db,
            pending: pending.into_iter().collect(),
            records_applied: records.len(),
            consumed_bytes,
        }
    }

    fn assert_same(got: &RecoveredState, want: &RecoveredState, what: &str) {
        assert_eq!(got.records_applied, want.records_applied, "{what}");
        assert_eq!(got.consumed_bytes, want.consumed_bytes, "{what}");
        assert_eq!(got.pending, want.pending, "{what}");
        let tables = |s: &RecoveredState| {
            s.db.tables()
                .map(|t| {
                    let rows: Vec<_> = t.iter().cloned().collect();
                    (t.schema().clone(), t.indexed_columns(), rows)
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(tables(got), tables(want), "{what}");
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
            let want = reference(prefix);
            let wal = Wal::with_sink(Box::new(MemorySink::from_bytes(prefix.to_vec())));
            assert_same(&recover(&wal).unwrap(), &want, &format!("cut {cut}"));
        }
        assert_eq!(reference(&image).records_applied, 18);
        assert_eq!(reference(&image).pending.len(), 4);
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
        assert_same(&recover(&wal).unwrap(), &reference(&image), "sink + tail");
        assert_eq!(
            wal.buffered_records() as usize,
            records.len() - records.len() / 2 - 1
        );
    }
}
