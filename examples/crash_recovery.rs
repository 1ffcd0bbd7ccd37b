//! Durability demo: pending resource transactions survive a crash (§4
//! "Recovery").
//!
//! The engine serializes every committed-but-unground transaction into the
//! WAL *before* acknowledging the commit; after a crash, recovery rebuilds
//! both the extensional database and the in-memory quantum state — and the
//! commit guarantee ("your seat will exist") holds across the failure.
//!
//! ```text
//! cargo run --example crash_recovery
//! ```

use quantum_db::core::{QuantumDb, QuantumDbConfig};
use quantum_db::logic::parse_transaction;
use quantum_db::storage::wal::MemorySink;
use quantum_db::storage::{tuple, Schema, ValueType, Wal};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Build an engine and commit two deferred bookings.
    let qdb = QuantumDb::new(QuantumDbConfig::default())?.into_shared();
    qdb.create_table(Schema::new(
        "Available",
        vec![("flight", ValueType::Int), ("seat", ValueType::Str)],
    ))?;
    qdb.create_table(Schema::new(
        "Bookings",
        vec![
            ("name", ValueType::Str),
            ("flight", ValueType::Int),
            ("seat", ValueType::Str),
        ],
    ))?;
    qdb.bulk_insert(
        "Available",
        vec![tuple![1, "1A"], tuple![1, "1B"], tuple![1, "1C"]],
    )?;
    for user in ["Mickey", "Donald"] {
        let t = parse_transaction(&format!(
            "-Available(f, s), +Bookings('{user}', f, s) :-1 Available(f, s)"
        ))?;
        qdb.submit(&t)?;
    }
    println!(
        "before crash: pending = {}, WAL = {} bytes",
        qdb.pending_count(),
        qdb.wal_size()
    );

    // 💥 Crash: all in-memory state is lost; only the log survives. We
    // simulate a torn tail by chopping 3 bytes off the last frame, as if
    // the machine died mid-write.
    let mut image = qdb.wal_image();
    let torn_at = image.len() - 3;
    image.truncate(torn_at);
    drop(qdb);

    // Recovery: replay the log, re-solve the quantum state.
    let wal = Wal::with_sink(Box::new(MemorySink::from_bytes(image)));
    let recovered = QuantumDb::recover(wal, QuantumDbConfig::default())?.into_shared();
    println!(
        "after recovery: pending = {} (the torn record lost Donald's \
         commit acknowledgement — it was never acknowledged, so nothing \
         is lost)",
        recovered.pending_count()
    );

    // The recovered engine honors the surviving commitment.
    let rows = recovered.query("Bookings('Mickey', f, s)")?;
    println!("Mickey's seat after recovery + read: {} row(s)", rows.len());
    assert_eq!(rows.len(), 1);

    // And keeps serving new transactions.
    let t = parse_transaction("-Available(f, s), +Bookings('Daisy', f, s) :-1 Available(f, s)")?;
    let out = recovered.submit(&t)?;
    println!("new booking after recovery: {out:?}");
    Ok(())
}
