//! The SQL surface syntax (Figure 1) driving a live quantum database —
//! end-to-end through the facade — plus the parser's error paths: every
//! malformed statement class returns a positioned `LogicError`, never a
//! panic.

use quantum_db::core::{QuantumDb, QuantumDbConfig, SharedQuantumDb};
use quantum_db::logic::{parse_query, parse_sql_transaction, parse_statement, LogicError};
use quantum_db::storage::{tuple, Schema, ValueType};

fn engine() -> SharedQuantumDb {
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
    qdb.create_table(Schema::new(
        "Adjacent",
        vec![("s1", ValueType::Str), ("s2", ValueType::Str)],
    ))
    .unwrap();
    qdb.bulk_insert(
        "Available",
        vec![tuple![123, "1A"], tuple![123, "1B"], tuple![123, "1C"]],
    )
    .unwrap();
    qdb.bulk_insert(
        "Adjacent",
        vec![
            tuple!["1A", "1B"],
            tuple!["1B", "1A"],
            tuple!["1B", "1C"],
            tuple!["1C", "1B"],
        ],
    )
    .unwrap();
    qdb
}

#[test]
fn figure1_sql_transaction_books_and_coordinates() {
    let qdb = engine();
    // Goofy books a concrete seat first.
    let goofy = parse_sql_transaction(
        "SELECT @s \
         FROM Available(123, @s) \
         WHERE @s = '1B' \
         CHOOSE 1 \
         FOLLOWED BY ( \
            DELETE (123, @s) FROM Available; \
            INSERT ('Goofy', 123, @s) INTO Bookings; \
         )",
    )
    .unwrap();
    assert!(qdb.submit(&goofy).unwrap().is_committed());
    qdb.ground_all().unwrap();

    // Mickey's Figure-1 request: any seat, preferably next to Goofy.
    let mickey = parse_sql_transaction(
        "SELECT @f, @s \
         FROM Available(@f, @s), \
              OPTIONAL Bookings('Goofy', @f, @s2), \
              OPTIONAL Adjacent(@s, @s2) \
         CHOOSE 1 \
         FOLLOWED BY ( \
            DELETE (@f, @s) FROM Available; \
            INSERT ('Mickey', @f, @s) INTO Bookings; \
         )",
    )
    .unwrap();
    assert!(qdb.submit(&mickey).unwrap().is_committed());

    // Collapse and check adjacency was honored (1A or 1C, next to 1B).
    let q = parse_query("Bookings('Mickey', f, s)").unwrap();
    let rows = qdb.read(&q.atoms, None).unwrap();
    let seat = rows[0]
        .get(q.var("s").unwrap())
        .unwrap()
        .as_str()
        .unwrap()
        .to_string();
    assert!(
        qdb.with_database(|db| db.contains("Adjacent", &tuple![seat.as_str(), "1B"])),
        "Mickey got {seat}, not adjacent to Goofy's 1B"
    );
}

#[test]
fn sql_and_datalog_forms_are_interchangeable() {
    let sql = parse_sql_transaction(
        "SELECT @s FROM Available(123, @s) CHOOSE 1 \
         FOLLOWED BY (DELETE (123, @s) FROM Available; \
                      INSERT ('Pluto', 123, @s) INTO Bookings)",
    )
    .unwrap();
    let datalog = quantum_db::logic::parse_transaction(
        "-Available(123, s), +Bookings('Pluto', 123, s) :-1 Available(123, s)",
    )
    .unwrap();
    assert_eq!(sql.to_string(), datalog.to_string());
    // Both run identically against a fresh engine.
    for txn in [&sql, &datalog] {
        let qdb = engine();
        assert!(qdb.submit(txn).unwrap().is_committed());
        qdb.ground_all().unwrap();
        assert_eq!(
            qdb.with_database(|db| db.table("Bookings").unwrap().len()),
            1
        );
    }
}

// ---------------------------------------------------------------------------
// Parser error paths: one malformed statement per failure mode, per class.
// Every one must come back as a `LogicError::Parse` with a byte offset
// inside the input and a non-empty human-readable reason — never a panic.
// ---------------------------------------------------------------------------

#[track_caller]
fn assert_positioned_parse_error(input: &str, expect_in_message: &str) {
    match parse_statement(input) {
        Err(LogicError::Parse { at, reason }) => {
            assert!(
                at <= input.len(),
                "offset {at} outside input (len {}): {input:?}",
                input.len()
            );
            assert!(!reason.is_empty(), "empty reason for {input:?}");
            let msg = LogicError::Parse { at, reason }.to_string();
            assert!(
                msg.to_ascii_lowercase()
                    .contains(&expect_in_message.to_ascii_lowercase()),
                "{input:?}: message {msg:?} does not mention {expect_in_message:?}"
            );
            assert!(msg.contains("byte"), "message lacks the offset: {msg:?}");
        }
        other => panic!("{input:?}: expected a parse error, got {other:?}"),
    }
}

#[test]
fn ddl_error_paths() {
    assert_positioned_parse_error("CREATE", "expected TABLE or INDEX");
    assert_positioned_parse_error("CREATE TABLE", "relation");
    assert_positioned_parse_error("CREATE TABLE T", "'('");
    assert_positioned_parse_error("CREATE TABLE T ()", "column name");
    assert_positioned_parse_error("CREATE TABLE T (x)", "column type");
    assert_positioned_parse_error("CREATE TABLE T (x FLOAT)", "unknown column type");
    assert_positioned_parse_error("CREATE TABLE T (x INT", "')'");
    assert_positioned_parse_error("CREATE TABLE SELECT (x INT)", "reserved");
    assert_positioned_parse_error("CREATE TABLE T (values INT)", "reserved");
    assert_positioned_parse_error("CREATE INDEX T (0)", "expected ON");
    assert_positioned_parse_error("CREATE INDEX ON T (@x)", "column name or position");
    assert_positioned_parse_error("CREATE INDEX ON T (-1)", "column name or position");
}

#[test]
fn blind_write_error_paths() {
    assert_positioned_parse_error("INSERT INTO T", "expected VALUES");
    assert_positioned_parse_error("INSERT INTO T VALUES", "'('");
    assert_positioned_parse_error("INSERT INTO T VALUES (1", "')'");
    assert_positioned_parse_error("INSERT INTO T VALUES (@x)", "literals or '?' parameters");
    assert_positioned_parse_error("INSERT (1) INTO T", "only valid inside FOLLOWED BY");
    assert_positioned_parse_error("DELETE (1) FROM T", "only valid inside FOLLOWED BY");
    assert_positioned_parse_error("DELETE FROM T", "expected VALUES");
    assert_positioned_parse_error("DELETE FROM T VALUES (1,)", "term");
}

#[test]
fn read_error_paths() {
    assert_positioned_parse_error("SELECT", "term");
    assert_positioned_parse_error("SELECT @s", "expected FROM");
    assert_positioned_parse_error("SELECT @s FROM", "relation");
    assert_positioned_parse_error("SELECT @s FROM A(@s", "')'");
    assert_positioned_parse_error("SELECT @s FROM A(@s) LIMIT", "non-negative integer");
    assert_positioned_parse_error("SELECT @s FROM A(@s) LIMIT -1", "non-negative integer");
    assert_positioned_parse_error("SELECT @s FROM A(@s), OPTIONAL B(@s)", "OPTIONAL");
    assert_positioned_parse_error("SELECT ? FROM A(@s)", "projected");
    // Aliasing a projected variable to a parameter through WHERE is the
    // same mistake in disguise: the column would silently vanish.
    assert_positioned_parse_error("SELECT @n, @f FROM B(@n, @f) WHERE @n = ?", "projected");
    assert_positioned_parse_error("SELECT @s FROM A(@s) WHERE ? = ?", "parameters");
    assert_positioned_parse_error("SELECT @s FROM A(@s) WHERE ? = 1", "variable");
    assert_positioned_parse_error(
        "SELECT @s FROM A(@s) WHERE @s = 1 AND @s = 2",
        "contradictory",
    );
    assert_positioned_parse_error("SELECT @s FROM A(@s) trailing", "trailing");
}

#[test]
fn resource_transaction_error_paths() {
    assert_positioned_parse_error("SELECT @s FROM A(@s) CHOOSE", "CHOOSE 1");
    assert_positioned_parse_error("SELECT @s FROM A(@s) CHOOSE 2", "CHOOSE 1");
    assert_positioned_parse_error("SELECT @s FROM A(@s) CHOOSE 1", "FOLLOWED");
    assert_positioned_parse_error("SELECT @s FROM A(@s) CHOOSE 1 FOLLOWED", "BY");
    assert_positioned_parse_error(
        "SELECT @s FROM A(@s) CHOOSE 1 FOLLOWED BY ()",
        "at least one write",
    );
    assert_positioned_parse_error(
        "SELECT @s FROM A(@s) CHOOSE 1 FOLLOWED BY (SELECT @s)",
        "not permitted",
    );
    assert_positioned_parse_error(
        "SELECT PEEK @s FROM A(@s) CHOOSE 1 FOLLOWED BY (DELETE (@s) FROM A)",
        "read modifiers",
    );
}

#[test]
fn control_error_paths() {
    assert_positioned_parse_error("GROUND", "transaction id or ALL");
    assert_positioned_parse_error("GROUND -3", "transaction id or ALL");
    assert_positioned_parse_error("GROUND x", "transaction id or ALL");
    assert_positioned_parse_error("SHOW", "METRICS, PENDING, PROFILE, EVENTS and REPLICATION");
    assert_positioned_parse_error(
        "SHOW TABLES",
        "METRICS, PENDING, PROFILE, EVENTS and REPLICATION",
    );
    assert_positioned_parse_error("CHECKPOINT now", "trailing");
    assert_positioned_parse_error("EXPLAIN SELECT", "expected a statement");
}

#[test]
fn lexer_error_paths() {
    assert_positioned_parse_error("SELECT @ FROM A(@s)", "variable name");
    assert_positioned_parse_error("SELECT @s FROM A('unterminated", "unterminated");
    assert_positioned_parse_error("SELECT @s FROM A(#)", "unexpected character");
}

/// No prefix of a valid statement may panic the parser — every truncation
/// either parses (a shorter valid statement) or errors cleanly.
#[test]
fn truncations_never_panic() {
    let full = "SELECT @f, @s FROM Available(@f, @s), \
                OPTIONAL Bookings('Goofy', @f, @s2), OPTIONAL Adjacent(@s, @s2) \
                WHERE @f = 123 CHOOSE 1 \
                FOLLOWED BY (DELETE (@f, @s) FROM Available; \
                             INSERT ('Mickey', @f, @s) INTO Bookings;)";
    for cut in 0..=full.len() {
        if !full.is_char_boundary(cut) {
            continue;
        }
        let _ = parse_statement(&full[..cut]); // must return, never panic
    }
    for stmt in [
        "CREATE TABLE T (a INT, b TEXT, c BOOL)",
        "INSERT INTO T VALUES (1, 'x', true)",
        "SELECT POSSIBLE @s FROM A(@s) LIMIT 5",
        "GROUND ALL",
        "SHOW METRICS",
    ] {
        for cut in 0..=stmt.len() {
            let _ = parse_statement(&stmt[..cut]);
        }
    }
}
