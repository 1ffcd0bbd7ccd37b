//! Parse-free `EXECUTE`: texts that differ only in their literals share
//! one statement template, and a cache hit binds the literals into it by
//! position. These tests hold that path to what parsing every text afresh
//! gives — reply bytes, errors and their positions included — and count
//! the parses it saves.

use std::net::TcpStream;

use qdb_client::Connection;
use qdb_core::wire::{self, Reply, Request};
use qdb_core::{EngineError, QuantumDb, QuantumDbConfig, Response, SharedQuantumDb};
use qdb_server::Server;

fn engine() -> SharedQuantumDb {
    let db = QuantumDb::new(QuantumDbConfig::default())
        .unwrap()
        .into_shared();
    for ddl in [
        "CREATE TABLE Available (flight INT, seat TEXT)",
        "CREATE TABLE Bookings (name TEXT, flight INT, seat TEXT)",
        "CREATE TABLE Adjacent (a TEXT, b TEXT)",
        "CREATE TABLE R (tag TEXT, n INT)",
        "CREATE TABLE S (a INT)",
    ] {
        db.execute(ddl).unwrap();
    }
    db
}

/// The seven statement shapes the benchmark sends, on `flight`, with
/// user, partner and seat varying with `i`.
fn shape(k: usize, i: usize, flight: usize) -> String {
    let (user, partner) = (format!("u{i}"), format!("u{}", i ^ 1));
    let seat = format!("{}{}", 1 + i % 4, ["A", "B", "C", "D"][i / 4 % 4]);
    match k {
        0 => format!(
            "SELECT @s FROM Available({flight}, @s), OPTIONAL Bookings('{partner}', {flight}, @s2), \
             OPTIONAL Adjacent(@s, @s2) CHOOSE 1 FOLLOWED BY (DELETE ({flight}, @s) FROM Available; \
             INSERT ('{user}', {flight}, @s) INTO Bookings;)"
        ),
        1 => format!("SELECT PEEK @f, @s FROM Bookings('{user}', @f, @s)"),
        2 => format!("SELECT POSSIBLE @f, @s FROM Bookings('{user}', @f, @s) LIMIT 32"),
        3 => format!("SELECT @f, @s FROM Bookings('{user}', @f, @s)"),
        4 => format!("DELETE FROM Bookings VALUES ('{user}', {flight}, '{seat}')"),
        5 => format!("INSERT INTO Available VALUES ({flight}, '{seat}')"),
        _ => format!("DELETE FROM Available VALUES ({flight}, '{seat}')"),
    }
}

/// One history for both engines: every statement class, template hits
/// with other literals, the shapes that fall back to the exact text, and
/// texts that fail to parse or to execute.
fn history() -> Vec<String> {
    let mut h: Vec<String> = Vec::new();
    for i in 0..48 {
        h.push(shape(5, i, 1 + i % 3));
    }
    h.push("INSERT INTO Adjacent VALUES ('1A', '1B'), ('1B', '1A'), ('2C', '2D')".into());
    h.push("INSERT INTO R VALUES ('x', 1), ('x', -2), ('y', 3)".into());
    h.push("INSERT INTO S VALUES (5), (6)".into());
    for i in 0..12 {
        h.push(shape(0, i, 1 + i / 2 % 3));
        h.push(shape(1, i, 1 + i / 2 % 3));
        if i % 3 == 0 {
            h.push(shape(2, i, 1 + i / 2 % 3));
        }
    }
    for i in 0..12 {
        h.push(shape(3, i, 1 + i / 2 % 3));
    }
    for text in [
        // Named variables keep the ids a literal parse gives them.
        "SELECT * FROM R('x', @a)",
        "SELECT * FROM R('y', @a)",
        "SELECT @a FROM R('x', @a)",
        "SELECT @t FROM R(@t, -2)",
        "SELECT @s FROM Available(@f, @s) WHERE @f = 2",
        "SELECT @s FROM Available(@f, @s) WHERE @f = 3",
        // Templates that do not reproduce the parse: exact text.
        "SELECT @f, @s FROM Available(@f, @s) WHERE @f = 2",
        "SELECT @f, @s FROM Available(@f, @s) WHERE @f = 3",
        "SELECT @a FROM S(@a) WHERE @a = 5",
        "SELECT @a FROM S(@a) WHERE @a = 6",
        "SELECT @a FROM S(@a) WHERE @a = 5 AND @a = 5",
        "CREATE INDEX ON R (1)",
        // Parse errors keep their message and position.
        "SELECT @s FROM Available(1, @s) CHOOSE 2 FOLLOWED BY (DELETE (1, @s) FROM Available)",
        "INSERT INTO R VALUES ('x', 99999999999999999999)",
        "INSERT INTO R VALUES ('x', 1) junk",
        "INSERT INTO R VALUES ('x', 1) junk",
        "SELECT * FROM R('open, @a)",
        "SELECT @a FROM S(@a) WHERE @a = 5 AND @a = 6",
        "SELECT ? FROM R(@a, @b)",
        "GROUND 'x'",
        // Execution errors on template hits.
        "INSERT INTO Missing VALUES (1)",
        "INSERT INTO Missing VALUES (2)",
        "INSERT INTO R VALUES ('x', 1, 2)",
        "INSERT INTO R VALUES ('z', 3, 4)",
        // EXECUTE has no values for placeholders of the text's own.
        "INSERT INTO R VALUES (?, 1)",
        "INSERT INTO R VALUES (?, 1)",
        "PROMOTE",
        "CHECKPOINT",
        "SHOW PENDING",
        "GROUND 3",
    ] {
        h.push(text.into());
    }
    for i in 0..8 {
        h.push(shape(4, i, 1 + i % 3));
        h.push(shape(6, i + 20, 1 + i % 3));
    }
    h.push("GROUND ALL".into());
    h.push("SELECT * FROM Bookings(@n, @f, @s)".into());
    h
}

fn error_reply(e: EngineError) -> Reply {
    Reply::Error {
        code: wire::code_for(&e),
        message: e.to_string(),
    }
}

/// The reply a fresh parse followed by `execute_stmt` gives, framed.
fn reference(db: &SharedQuantumDb, request_id: u32, sql: &str) -> wire::Frame {
    let reply = match qdb_logic::parse_statement(sql) {
        Err(e) => error_reply(e.into()),
        Ok(parsed) if parsed.param_count() > 0 => Reply::Error {
            code: wire::code::PARAMS,
            message: format!(
                "EXECUTE carries no parameters but the statement has {} placeholder(s); use PREPARE/BIND/RUN",
                parsed.param_count()
            ),
        },
        Ok(parsed) => match db.execute_stmt(parsed.into_statement().unwrap()) {
            Ok(r) => Reply::Engine(r),
            Err(e) => error_reply(e),
        },
    };
    let bytes = wire::encode_reply(request_id, &reply);
    wire::try_frame(&bytes).unwrap().unwrap().0
}

#[test]
fn execute_replies_are_byte_identical_to_a_fresh_parse() {
    let (served, fresh) = (engine(), engine());
    let server = Server::spawn_with_db("127.0.0.1:0", 2, served.clone()).unwrap();
    let mut socket = TcpStream::connect(server.addr()).unwrap();
    let history = history();
    let before = served.metrics().parses;
    for (i, sql) in history.iter().enumerate() {
        let id = i as u32;
        let request = wire::encode_request(
            id,
            &Request::Execute {
                sql: sql.to_string(),
            },
        );
        std::io::Write::write_all(&mut socket, &request).unwrap();
        let got = wire::read_frame(&mut socket).unwrap().unwrap();
        let want = reference(&fresh, id, sql);
        assert_eq!(
            (got.request_id, got.kind, &got.body),
            (want.request_id, want.kind, &want.body),
            "statement {i}: {sql:?}\n  served: {:?}\n  fresh:  {:?}",
            wire::decode_reply(&got),
            wire::decode_reply(&want),
        );
    }
    // The templates did the work: far fewer parses than statements.
    let parses = served.metrics().parses - before;
    assert!(
        parses * 2 < history.len() as u64,
        "{parses} parses for {} statements",
        history.len()
    );
    server.shutdown();
}

#[test]
fn session_execute_matches_a_fresh_parse() {
    let (served, fresh) = (engine(), engine());
    let session = served.session();
    let encode = |result: qdb_core::Result<Response>| {
        let reply = result.map_or_else(error_reply, Reply::Engine);
        wire::encode_reply(0, &reply)
    };
    for sql in history() {
        let want = qdb_logic::parse_statement(&sql)
            .and_then(|p| p.into_statement())
            .map_err(EngineError::from)
            .and_then(|stmt| fresh.execute_stmt(stmt));
        assert_eq!(
            encode(session.execute(&sql)),
            encode(want),
            "statement {sql:?}"
        );
    }
}

#[test]
fn a_thousand_executes_of_seven_shapes_parse_at_most_twice_per_shape() {
    let db = engine();
    let server = Server::spawn_with_db("127.0.0.1:0", 2, db.clone()).unwrap();
    let mut conn = Connection::connect(server.addr()).unwrap();
    let texts: Vec<String> = (0..1000).map(|i| shape(i % 7, i, 1000 + i)).collect();
    let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
    let before = db.metrics().parses;
    for (sql, reply) in texts.iter().zip(conn.pipeline(&refs).unwrap()) {
        assert!(reply.is_ok(), "{sql:?}: {reply:?}");
    }
    let parses = db.metrics().parses - before;
    assert!(parses <= 2 * 7, "{parses} parses for 7 templates");
    server.shutdown();
}
