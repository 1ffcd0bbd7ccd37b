//! Quickstart: commit a booking without choosing a seat; observe the
//! collapse on read — all through the unified `execute()` statement API.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use quantum_db::{QuantumDb, QuantumDbConfig, Response, Value};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Set up a tiny travel database: flight 123 with three seats.
    //    DDL and blind writes are ordinary statements.
    let qdb = QuantumDb::new(QuantumDbConfig::default())?.into_shared();
    qdb.execute("CREATE TABLE Available (flight INT, seat TEXT)")?;
    qdb.execute("CREATE TABLE Bookings (name TEXT, flight INT, seat TEXT)")?;
    qdb.execute("CREATE INDEX ON Available (flight)")?;
    qdb.execute("INSERT INTO Available VALUES (123, '5A'), (123, '5B'), (123, '5C')")?;

    // 2. Mickey books *a* seat — the resource transaction commits without
    //    fixing which one. The database is now in a quantum state.
    let outcome = qdb.execute(
        "SELECT @s FROM Available(123, @s) CHOOSE 1 \
         FOLLOWED BY (DELETE (123, @s) FROM Available; \
                      INSERT ('Mickey', 123, @s) INTO Bookings)",
    )?;
    println!("submit: {outcome}");
    assert!(matches!(outcome, Response::Committed(_)));
    println!("pending: {}", qdb.pending_count());

    // 3. Peek (option 2 of §3.2.2): see one possible world, fix nothing.
    let peek = qdb.execute("SELECT PEEK @s FROM Bookings('Mickey', 123, @s)")?;
    println!(
        "peek sees {} possible booking (not fixed)",
        peek.rows().unwrap().len()
    );

    // 4. Enumerate all possible worlds (option 1).
    let possible = qdb.execute("SELECT POSSIBLE @s FROM Bookings('Mickey', 123, @s)")?;
    println!(
        "{} distinct answers across possible worlds",
        possible.worlds().unwrap().len()
    );

    // 5. Check-in time: the read *collapses* the quantum state (option 3,
    //    the default) — Mickey's seat is now fixed, and repeatable.
    let rows = qdb.execute("SELECT @s FROM Bookings('Mickey', 123, @s)")?;
    let seat = rows.rows().unwrap()[0].iter().next().unwrap().1.clone();
    println!("Mickey's seat after collapse: {seat}");
    assert_eq!(qdb.pending_count(), 0);

    let again = qdb.execute("SELECT @s FROM Bookings('Mickey', 123, @s)")?;
    assert_eq!(rows, again, "reads are repeatable after collapse");

    // 6. Sessions and prepared statements: parse once, run many times.
    let session = qdb.session();
    let book = session.prepare(
        "SELECT @s FROM Available(123, @s) CHOOSE 1 \
         FOLLOWED BY (DELETE (123, @s) FROM Available; \
                      INSERT (?, 123, @s) INTO Bookings)",
    )?;
    for friend in ["Goofy", "Donald"] {
        let r = book.bind(&[Value::from(friend)])?.run()?;
        println!("{friend}: {r}");
    }
    session.execute("GROUND ALL")?;

    let metrics = session.execute("SHOW METRICS")?;
    println!("metrics: {}", metrics.metrics().unwrap());
    Ok(())
}
