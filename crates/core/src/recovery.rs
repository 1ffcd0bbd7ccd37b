//! Quantum-state recovery (§4 "Recovery").
//!
//! *"During recovery, a quantum database module restores the in-memory
//! quantum state to what it was before the crash based on the pending
//! transactions table."* Storage replays the WAL into the extensional
//! database and yields the still-pending serialized transactions; this
//! module re-parses them, re-partitions them and re-solves the solution
//! caches. A pending transaction that can no longer be grounded means the
//! log is not a valid engine history — recovery fails loudly rather than
//! silently dropping a committed transaction (commits must never roll
//! back, §2).

use qdb_storage::Wal;

use crate::config::QuantumDbConfig;
use crate::engine::QuantumDb;
use crate::Result;

impl QuantumDb {
    /// Rebuild an engine from a WAL (typically after a crash). The torn
    /// tail, if any, is truncated so the recovered engine can keep
    /// appending.
    ///
    /// Re-quantization is a *replay mode* of the live admission path, not
    /// a second implementation of it: the storage-replayed state is
    /// sharded, every still-pending transaction is re-admitted under its
    /// logged id — without re-logging (its `PendingAdd` is already in the
    /// WAL) and without partner grounding or k-enforcement (if those
    /// happened pre-crash they left their own records) — and the result
    /// is put back at rest. Recovery therefore appends nothing to the log.
    ///
    /// The replay opens a fresh metrics epoch in which the still-pending
    /// transactions are exactly the commits counted so far, so
    /// `committed − grounded_total == pending` holds from the first
    /// post-recovery snapshot onwards.
    pub fn recover(wal: Wal, config: QuantumDbConfig) -> Result<QuantumDb> {
        let state = qdb_storage::recover(&wal)?;
        let mut qdb = QuantumDb::with_wal(config, wal);
        if qdb.wal.size_bytes() > state.consumed_bytes {
            qdb.wal.truncate_to(state.consumed_bytes)?;
        }
        qdb.db = state.db;
        let live = qdb.into_shared();
        for (id, payload) in state.pending {
            live.replay_pending_add(id, &payload, false)?;
        }
        live.into_engine()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SubmitOutcome;
    use crate::error::EngineError;
    use crate::shard::SharedQuantumDb;
    use qdb_logic::parse_transaction;
    use qdb_storage::wal::MemorySink;
    use qdb_storage::{tuple, Schema, ValueType};

    fn build_engine() -> SharedQuantumDb {
        let qdb = QuantumDb::new(QuantumDbConfig::default())
            .unwrap()
            .into_shared();
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
        qdb.bulk_insert(
            "Available",
            vec![tuple![1, "1A"], tuple![1, "1B"], tuple![2, "1A"]],
        )
        .unwrap();
        qdb
    }

    fn book(name: &str, flight: i64) -> qdb_logic::ResourceTransaction {
        parse_transaction(&format!(
            "-Available({flight}, s), +Bookings('{name}', {flight}, s) :-1 Available({flight}, s)"
        ))
        .unwrap()
    }

    /// "Crash": rebuild from a WAL image.
    fn recover_image(image: Vec<u8>) -> QuantumDb {
        let wal = Wal::with_sink(Box::new(MemorySink::from_bytes(image)));
        QuantumDb::recover(wal, QuantumDbConfig::default()).unwrap()
    }

    #[test]
    fn recovery_restores_pending_state() {
        let qdb = build_engine();
        let id1 = qdb.submit(&book("Mickey", 1)).unwrap().id().unwrap();
        let _id2 = qdb.submit(&book("Donald", 2)).unwrap().id().unwrap();
        assert_eq!(qdb.pending_count(), 2);
        assert_eq!(qdb.partition_count(), 2); // flights 1 and 2 independent

        let recovered = recover_image(qdb.wal_image());

        assert_eq!(recovered.pending_count(), 2);
        assert_eq!(recovered.partition_count(), 2);
        assert_eq!(
            crate::worlds::world_fingerprint(recovered.database()),
            qdb.with_database(crate::worlds::world_fingerprint),
        );
        // The recovered engine keeps functioning: ground Mickey and read
        // his seat.
        let recovered = recovered.into_shared();
        assert!(recovered.ground(id1).unwrap());
        let rows = recovered.query("Bookings('Mickey', f, s)").unwrap();
        assert_eq!(rows.len(), 1);
        // And admits new transactions with fresh ids.
        let out = recovered.submit(&book("Pluto", 1)).unwrap();
        assert!(matches!(out, SubmitOutcome::Committed { .. }));
        assert!(out.id().unwrap() >= 2);
    }

    #[test]
    fn recovery_after_grounding_has_no_pending() {
        let qdb = build_engine();
        qdb.submit(&book("Mickey", 1)).unwrap();
        qdb.ground_all().unwrap();
        let recovered = recover_image(qdb.wal_image());
        assert_eq!(recovered.pending_count(), 0);
        assert_eq!(
            recovered.database().table("Bookings").unwrap().len(),
            1,
            "grounded booking must survive the crash"
        );
    }

    #[test]
    fn torn_tail_recovers_to_prefix_and_truncates() {
        let qdb = build_engine();
        qdb.submit(&book("Mickey", 1)).unwrap();
        let good = qdb.wal_size();
        qdb.submit(&book("Donald", 1)).unwrap();
        let image = qdb.wal_image();
        // Crash mid-record of Donald's PendingAdd.
        let torn = &image[..(good as usize + 3)];
        let recovered = recover_image(torn.to_vec()).into_shared();
        assert_eq!(recovered.pending_count(), 1, "only Mickey survived");
        assert_eq!(recovered.wal_size(), good, "tail truncated");
        // Appending after truncation yields a clean log.
        recovered.checkpoint().unwrap();
        let (records, consumed) = qdb_storage::wal::replay_bytes(&recovered.wal_image()).unwrap();
        assert_eq!(consumed, recovered.wal_size());
        assert!(matches!(
            records.last(),
            Some(qdb_storage::LogRecord::Checkpoint)
        ));
    }

    #[test]
    fn recovery_rejects_inconsistent_history() {
        // Hand-craft a log whose pending transaction cannot ground: a
        // booking on a flight with no seats.
        let mut wal = Wal::in_memory();
        wal.append(&qdb_storage::LogRecord::CreateTable(Schema::new(
            "Available",
            vec![("flight", ValueType::Int), ("seat", ValueType::Str)],
        )))
        .unwrap();
        wal.append(&qdb_storage::LogRecord::CreateTable(Schema::new(
            "Bookings",
            vec![
                ("name", ValueType::Str),
                ("flight", ValueType::Int),
                ("seat", ValueType::Str),
            ],
        )))
        .unwrap();
        let txn = book("Ghost", 9);
        wal.append(&qdb_storage::LogRecord::PendingAdd {
            id: 0,
            payload: qdb_logic::codec::encode_transaction(&txn),
        })
        .unwrap();
        let err = QuantumDb::recover(wal, QuantumDbConfig::default()).unwrap_err();
        assert!(matches!(err, EngineError::RecoveryUnsatisfiable { txn: 0 }));
    }
}
