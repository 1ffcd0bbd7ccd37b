//! The unified statement API end to end: every statement class through
//! `QuantumDb::execute()`, typed `Response`s, sessions and prepared
//! statements.

use quantum_db::{QuantumDb, QuantumDbConfig, Response, SharedQuantumDb, Value};

fn engine() -> SharedQuantumDb {
    let qdb = QuantumDb::new(QuantumDbConfig::default())
        .unwrap()
        .into_shared();
    for ddl in [
        "CREATE TABLE Available (flight INT, seat TEXT)",
        "CREATE TABLE Bookings (name TEXT, flight INT, seat TEXT)",
        "CREATE TABLE Adjacent (s1 TEXT, s2 TEXT)",
    ] {
        assert_eq!(qdb.execute(ddl).unwrap(), Response::Ack);
    }
    assert_eq!(
        qdb.execute("INSERT INTO Available VALUES (123, '1A'), (123, '1B'), (123, '1C')")
            .unwrap(),
        Response::Written(true)
    );
    assert_eq!(
        qdb.execute(
            "INSERT INTO Adjacent VALUES ('1A', '1B'), ('1B', '1A'), ('1B', '1C'), ('1C', '1B')"
        )
        .unwrap(),
        Response::Written(true)
    );
    qdb
}

/// The acceptance round-trip: DDL, blind writes, resource transactions,
/// reads (including one that collapses pending state) and control
/// statements, all through `execute()`, all asserted on the typed
/// `Response` variants.
#[test]
fn all_five_statement_classes_round_trip() {
    let qdb = engine();

    // DDL beyond the setup: a secondary index, by column name.
    assert_eq!(
        qdb.execute("CREATE INDEX ON Available (flight)").unwrap(),
        Response::Ack
    );

    // Resource transactions. Goofy pins seat 1B; Mickey wants any seat,
    // preferably adjacent to Goofy.
    let goofy = qdb
        .execute(
            "SELECT @s FROM Available(123, @s) WHERE @s = '1B' CHOOSE 1 \
             FOLLOWED BY (DELETE (123, @s) FROM Available; \
                          INSERT ('Goofy', 123, @s) INTO Bookings)",
        )
        .unwrap();
    let goofy_id = goofy.committed_id().expect("Goofy commits");
    // Fix Goofy's seat so Mickey's preference targets extensional state
    // (otherwise partner-arrival grounding would collapse the pair at
    // Mickey's submit and nothing would stay pending to observe).
    assert_eq!(
        qdb.execute("GROUND ALL").unwrap(),
        Response::Grounded(1),
        "Goofy was the only pending transaction"
    );
    let mickey = qdb
        .execute(
            "SELECT @f, @s \
             FROM Available(@f, @s), \
                  OPTIONAL Bookings('Goofy', @f, @s2), \
                  OPTIONAL Adjacent(@s, @s2) \
             CHOOSE 1 \
             FOLLOWED BY (DELETE (@f, @s) FROM Available; \
                          INSERT ('Mickey', @f, @s) INTO Bookings)",
        )
        .unwrap();
    let mickey_id = mickey.committed_id().expect("Mickey commits");
    assert_ne!(goofy_id, mickey_id);

    // Control: the pending set is visible.
    let pending = qdb.execute("SHOW PENDING").unwrap();
    assert_eq!(pending, Response::Pending(vec![mickey_id]));

    // Peek does not collapse anything.
    let peek = qdb
        .execute("SELECT PEEK @s FROM Bookings('Mickey', 123, @s)")
        .unwrap();
    assert_eq!(peek.rows().unwrap().len(), 1);
    assert_eq!(qdb.pending_count(), 1, "peek must not ground");

    // The collapsing read: observing Mickey's booking forces the choice.
    let rows = qdb
        .execute("SELECT @s FROM Bookings('Mickey', 123, @s)")
        .unwrap();
    let rows = rows.rows().expect("typed rows");
    assert_eq!(rows.len(), 1);
    let seat = rows[0]
        .iter()
        .next()
        .unwrap()
        .1
        .as_str()
        .unwrap()
        .to_string();
    assert_eq!(qdb.pending_count(), 0, "read collapsed the quantum state");
    // Adjacency honored: Goofy sits on 1B, Mickey next to it.
    assert!(
        qdb.with_database(|db| db.contains(
            "Adjacent",
            &quantum_db::storage::tuple![seat.as_str(), "1B"]
        )),
        "Mickey got {seat}, not adjacent to Goofy's 1B"
    );

    // Blind write: retire the remaining free seat.
    let free = qdb.execute("SELECT @s FROM Available(123, @s)").unwrap();
    assert_eq!(free.rows().unwrap().len(), 1);
    let left = free.rows().unwrap()[0]
        .iter()
        .next()
        .unwrap()
        .1
        .as_str()
        .unwrap()
        .to_string();
    assert_eq!(
        qdb.execute(&format!("DELETE FROM Available VALUES (123, '{left}')"))
            .unwrap(),
        Response::Written(true)
    );

    // Control: ground-by-id on an absent txn, checkpoint, metrics.
    assert_eq!(
        qdb.execute(&format!("GROUND {mickey_id}")).unwrap(),
        Response::Grounded(0),
        "already grounded by the read"
    );
    assert_eq!(qdb.execute("GROUND ALL").unwrap(), Response::Grounded(0));
    assert_eq!(qdb.execute("CHECKPOINT").unwrap(), Response::Ack);
    let m = qdb.execute("SHOW METRICS").unwrap();
    let m = m.metrics().expect("typed metrics");
    assert_eq!(m.submitted, 2);
    assert_eq!(m.committed, 2);
    assert!(m.parses >= 10, "every execute() above parsed once");
    // The solver hot-path counters surface through SHOW METRICS: the two
    // admissions above searched (nodes), streamed their candidates, and
    // never materialized a candidate vector.
    assert!(m.solver_nodes > 0);
    assert!(m.solver_candidates_streamed > 0);
    assert!(m.solver_index_lookups + m.solver_scan_lookups > 0);
    assert_eq!(m.solver_candidate_vecs, 0);
}

#[test]
fn blind_write_that_invalidates_pending_state_reports_written_false() {
    let qdb = QuantumDb::new(QuantumDbConfig::default())
        .unwrap()
        .into_shared();
    qdb.execute("CREATE TABLE Available (flight INT, seat TEXT)")
        .unwrap();
    qdb.execute("CREATE TABLE Bookings (name TEXT, flight INT, seat TEXT)")
        .unwrap();
    qdb.execute("INSERT INTO Available VALUES (123, '1A')")
        .unwrap();
    // Mickey holds a pending claim on the only seat.
    let r = qdb
        .execute(
            "SELECT @s FROM Available(123, @s) CHOOSE 1 \
             FOLLOWED BY (DELETE (123, @s) FROM Available; \
                          INSERT ('Mickey', 123, @s) INTO Bookings)",
        )
        .unwrap();
    assert!(matches!(r, Response::Committed(_)));
    // Deleting that seat out from under him would empty the possible
    // worlds: rejected, typed as Written(false), state intact.
    let r = qdb
        .execute("DELETE FROM Available VALUES (123, '1A')")
        .unwrap();
    assert_eq!(r, Response::Written(false));
    assert_eq!(qdb.pending_count(), 1);
    assert!(
        qdb.with_database(|db| db.contains("Available", &quantum_db::storage::tuple![123, "1A"]))
    );
}

#[test]
fn select_possible_exposes_uncertainty_as_worlds() {
    let qdb = engine();
    qdb.execute(
        "SELECT @s FROM Available(123, @s) CHOOSE 1 \
         FOLLOWED BY (DELETE (123, @s) FROM Available; \
                      INSERT ('Mickey', 123, @s) INTO Bookings)",
    )
    .unwrap();
    let r = qdb
        .execute("SELECT POSSIBLE @s FROM Bookings('Mickey', 123, @s)")
        .unwrap();
    let worlds = r.worlds().expect("typed worlds");
    assert_eq!(worlds.len(), 3, "three candidate seats, three answers");
    assert_eq!(qdb.pending_count(), 1, "POSSIBLE must not ground");
    // A LIMIT bounds the world enumeration (truncation may leave one
    // world past the bound, but never the full fan-out).
    let r = qdb
        .execute("SELECT POSSIBLE @s FROM Bookings('Mickey', 123, @s) LIMIT 1")
        .unwrap();
    assert!(r.worlds().unwrap().len() < 3);
}

#[test]
fn aborted_transactions_are_typed_not_errors() {
    let qdb = QuantumDb::new(QuantumDbConfig::default())
        .unwrap()
        .into_shared();
    qdb.execute("CREATE TABLE Available (flight INT, seat TEXT)")
        .unwrap();
    qdb.execute("CREATE TABLE Bookings (name TEXT, flight INT, seat TEXT)")
        .unwrap();
    qdb.execute("INSERT INTO Available VALUES (123, '1A')")
        .unwrap();
    let book = "SELECT @s FROM Available(123, @s) CHOOSE 1 \
                FOLLOWED BY (DELETE (123, @s) FROM Available; \
                             INSERT ('X', 123, @s) INTO Bookings)";
    assert!(matches!(qdb.execute(book).unwrap(), Response::Committed(_)));
    // No seat can serve a second claim: admission refuses it.
    assert_eq!(qdb.execute(book).unwrap(), Response::Aborted);
}

#[test]
fn sessions_prepare_once_and_rebind() {
    let qdb = engine();
    let session = qdb.session();
    let baseline = session
        .execute("SHOW METRICS")
        .unwrap()
        .metrics()
        .unwrap()
        .parses;

    let book = session
        .prepare(
            "SELECT @s FROM Available(?, @s) CHOOSE 1 \
             FOLLOWED BY (DELETE (?, @s) FROM Available; \
                          INSERT (?, ?, @s) INTO Bookings)",
        )
        .unwrap();
    assert_eq!(book.param_count(), 4);
    let flight = Value::from(123);
    for user in ["Mickey", "Goofy", "Donald"] {
        let r = book
            .bind(&[
                flight.clone(),
                flight.clone(),
                Value::from(user),
                flight.clone(),
            ])
            .unwrap()
            .run()
            .unwrap();
        assert!(matches!(r, Response::Committed(_)), "{user}: {r:?}");
    }
    let after = session
        .execute("SHOW METRICS")
        .unwrap()
        .metrics()
        .unwrap()
        .parses;
    // The baseline SHOW already counted itself; since then only the
    // prepare parsed — the three bound runs never touched the parser,
    // and the second SHOW was served from the session's statement cache.
    assert_eq!(after, baseline + 1);

    // Unbound or mis-bound parameters are typed errors.
    assert!(book.run().is_err());
    assert!(book.bind(std::slice::from_ref(&flight)).is_err());
}

#[test]
fn ground_by_id_reports_the_full_cascade() {
    // With partner-arrival grounding off, an entangled pair stays pending;
    // grounding one id pulls in its coordination partner, and the typed
    // response counts both.
    let cfg = QuantumDbConfig {
        ground_on_partner_arrival: false,
        ..QuantumDbConfig::default()
    };
    let qdb = QuantumDb::new(cfg).unwrap().into_shared();
    qdb.execute("CREATE TABLE Available (flight INT, seat TEXT)")
        .unwrap();
    qdb.execute("CREATE TABLE Bookings (name TEXT, flight INT, seat TEXT)")
        .unwrap();
    qdb.execute("CREATE TABLE Adjacent (s1 TEXT, s2 TEXT)")
        .unwrap();
    qdb.execute("INSERT INTO Available VALUES (1, '1A'), (1, '1B')")
        .unwrap();
    qdb.execute("INSERT INTO Adjacent VALUES ('1A', '1B'), ('1B', '1A')")
        .unwrap();
    let book = |user: &str, partner: &str| {
        format!(
            "SELECT @s FROM Available(1, @s), \
                  OPTIONAL Bookings('{partner}', 1, @s2), \
                  OPTIONAL Adjacent(@s, @s2) \
             CHOOSE 1 \
             FOLLOWED BY (DELETE (1, @s) FROM Available; \
                          INSERT ('{user}', 1, @s) INTO Bookings)"
        )
    };
    let mickey = qdb
        .execute(&book("Mickey", "Goofy"))
        .unwrap()
        .committed_id()
        .unwrap();
    qdb.execute(&book("Goofy", "Mickey")).unwrap();
    assert_eq!(qdb.pending_count(), 2);
    assert_eq!(
        qdb.execute(&format!("GROUND {mickey}")).unwrap(),
        Response::Grounded(2),
        "grounding Mickey must pull in his coordination partner"
    );
    assert_eq!(qdb.pending_count(), 0);
}

#[test]
fn executing_a_parameterized_statement_directly_is_an_error() {
    let qdb = engine();
    let err = qdb
        .execute("INSERT INTO Available VALUES (?, ?)")
        .unwrap_err();
    assert!(
        err.to_string().contains("parameter"),
        "unhelpful error: {err}"
    );
    // And the engine is still healthy afterwards.
    assert_eq!(
        qdb.execute("INSERT INTO Available VALUES (124, '9X')")
            .unwrap(),
        Response::Written(true)
    );
}

#[test]
fn execute_stmt_bypasses_the_parser() {
    let qdb = engine();
    let parsed = quantum_db::parse_statement("SELECT @s FROM Available(123, @s)").unwrap();
    let stmt = parsed.statement().unwrap().clone();
    let before = qdb.metrics().parses;
    let r = qdb.execute_stmt(stmt).unwrap();
    assert_eq!(r.rows().unwrap().len(), 3);
    assert_eq!(qdb.metrics().parses, before, "execute_stmt must not parse");
}
