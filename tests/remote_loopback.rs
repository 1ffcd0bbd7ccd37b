//! Loopback integration tests for the network service layer: a real
//! `qdb-server` on a loopback port, driven by real `qdb-client`
//! connections — every [`Response`] variant crosses the wire, every
//! statement class surfaces at least one typed error, pipelined batches
//! preserve per-connection order, and ≥8 concurrent connections run mixed
//! EXECUTE/PREPARE/BIND/RUN traffic against a ≥4-worker pool.

use qdb_client::{ClientError, Connection};
use qdb_core::{QuantumDb, QuantumDbConfig};
use qdb_server::{Server, ServerConfig, ServerHandle};
use qdb_storage::Value;
use qdb_wire::{self as wire, Response};

fn spawn(workers: usize) -> ServerHandle {
    Server::spawn(&ServerConfig {
        workers,
        ..ServerConfig::default()
    })
    .expect("loopback server")
}

/// Unwrap a server-reported error, panicking on transport problems.
fn server_error(result: Result<Response, ClientError>, context: &str) -> (u8, String) {
    match result {
        Err(ClientError::Server { code, message }) => (code, message),
        other => panic!("{context}: expected a server error, got {other:?}"),
    }
}

#[test]
fn every_response_variant_roundtrips_over_the_wire() {
    let server = spawn(4);
    let mut conn = Connection::connect(server.addr()).unwrap();

    // Ack (DDL).
    let r = conn
        .execute("CREATE TABLE Available (flight INT, seat TEXT)")
        .unwrap();
    assert_eq!(r, Response::Ack);
    conn.execute("CREATE TABLE Bookings (name TEXT, flight INT, seat TEXT)")
        .unwrap();
    assert_eq!(
        conn.execute("CREATE INDEX ON Available (flight)").unwrap(),
        Response::Ack
    );

    // Written(true) (blind insert).
    let r = conn
        .execute("INSERT INTO Available VALUES (1, '1A'), (1, '1B')")
        .unwrap();
    assert_eq!(r, Response::Written(true));

    // Rows (collapse and peek reads).
    let r = conn.execute("SELECT * FROM Available(1, @s)").unwrap();
    assert_eq!(r.rows().unwrap().len(), 2);
    let r = conn
        .execute("SELECT PEEK @s FROM Available(1, @s)")
        .unwrap();
    assert_eq!(r.rows().unwrap().len(), 2);

    // Committed (resource transaction).
    let r = conn
        .execute(
            "SELECT @s FROM Available(1, @s) CHOOSE 1 \
             FOLLOWED BY (DELETE (1, @s) FROM Available; \
                          INSERT ('Mickey', 1, @s) INTO Bookings)",
        )
        .unwrap();
    assert!(matches!(r, Response::Committed(0)));

    // Worlds (possible-worlds read while a booking is pending).
    let r = conn
        .execute("SELECT POSSIBLE @s FROM Available(1, @s)")
        .unwrap();
    let worlds = r.worlds().unwrap();
    assert_eq!(worlds.len(), 2, "either seat may remain");

    // Pending.
    let r = conn.execute("SHOW PENDING").unwrap();
    assert_eq!(r, Response::Pending(vec![0]));

    // Written(false): with only '1B' left after this delete, removing it
    // would strand the pending booking — the engine must reject.
    assert_eq!(
        conn.execute("DELETE FROM Available VALUES (1, '1A')")
            .unwrap(),
        Response::Written(true)
    );
    assert_eq!(
        conn.execute("DELETE FROM Available VALUES (1, '1B')")
            .unwrap(),
        Response::Written(false)
    );

    // Grounded.
    let r = conn.execute("GROUND ALL").unwrap();
    assert_eq!(r, Response::Grounded(1));
    let r = conn
        .execute("SELECT @s FROM Bookings('Mickey', 1, @s)")
        .unwrap();
    assert_eq!(r.rows().unwrap().len(), 1);

    // Aborted: no seats remain, a new booking cannot be admitted.
    let r = conn
        .execute(
            "SELECT @s FROM Available(1, @s) CHOOSE 1 \
             FOLLOWED BY (DELETE (1, @s) FROM Available)",
        )
        .unwrap();
    assert_eq!(r, Response::Aborted);

    // Ack (CHECKPOINT).
    assert_eq!(conn.execute("CHECKPOINT").unwrap(), Response::Ack);

    // Metrics, with the server's counters riding along.
    let (engine, stats) = conn.server_stats().unwrap();
    assert_eq!(engine.committed, 1);
    assert_eq!(engine.aborted, 1);
    assert_eq!(engine.writes_rejected, 1);
    assert!(stats.frames_decoded >= 15);
    assert!(stats.bytes_in > 0 && stats.bytes_out > 0);
    assert_eq!(stats.connections, 1);
    assert_eq!(stats.class("SELECT … CHOOSE 1"), Some(2));
    assert!(stats.class("SELECT").unwrap() >= 3);

    server.shutdown();
}

#[test]
fn every_statement_class_surfaces_a_typed_error() {
    let server = spawn(4);
    let mut conn = Connection::connect(server.addr()).unwrap();
    conn.execute("CREATE TABLE T (a INT, b TEXT)").unwrap();

    // DDL: duplicate table / index on a missing table.
    let (code, msg) = server_error(conn.execute("CREATE TABLE T (a INT)"), "dup table");
    assert_eq!(code, wire::code::STORAGE, "{msg}");
    let (code, _) = server_error(conn.execute("CREATE INDEX ON Missing (0)"), "index");
    assert_eq!(code, wire::code::STORAGE);

    // Blind writes: missing relation / arity mismatch.
    let (code, _) = server_error(conn.execute("INSERT INTO Missing VALUES (1)"), "insert");
    assert_eq!(code, wire::code::STORAGE);
    let (code, msg) = server_error(conn.execute("DELETE FROM T VALUES (1)"), "delete arity");
    assert_eq!(code, wire::code::STORAGE, "{msg}");

    // Reads: missing relation.
    let (code, _) = server_error(conn.execute("SELECT * FROM Missing(@x)"), "select");
    assert_eq!(code, wire::code::STORAGE);

    // Resource transactions: missing relation in the body.
    let (code, _) = server_error(
        conn.execute(
            "SELECT @s FROM Missing(1, @s) CHOOSE 1 \
             FOLLOWED BY (DELETE (1, @s) FROM Missing)",
        ),
        "txn",
    );
    assert_eq!(code, wire::code::STORAGE);

    // Control statements: parse failures are logic errors.
    let (code, _) = server_error(conn.execute("GROUND banana"), "ground");
    assert_eq!(code, wire::code::LOGIC);
    let (code, _) = server_error(conn.execute("SHOW NONSENSE"), "show");
    assert_eq!(code, wire::code::LOGIC);

    // EXECUTE of a parameterized statement is refused with a dedicated
    // code pointing at PREPARE/BIND/RUN.
    let (code, msg) = server_error(conn.execute("INSERT INTO T VALUES (?, ?)"), "params");
    assert_eq!(code, wire::code::PARAMS);
    assert!(msg.contains("PREPARE"), "{msg}");

    // BIND with the wrong parameter count.
    let insert = conn.prepare("INSERT INTO T VALUES (?, ?)").unwrap();
    let err = conn.bind(&insert, &[Value::from(1)]).unwrap_err();
    let (code, msg) = match err {
        ClientError::Server { code, message } => (code, message),
        other => panic!("bind count: {other:?}"),
    };
    assert_eq!(code, wire::code::LOGIC, "{msg}");

    // RUN of an id this connection never bound (raw frame: the typed
    // client cannot even express this).
    let mut raw = std::net::TcpStream::connect(server.addr()).unwrap();
    std::io::Write::write_all(
        &mut raw,
        &wire::encode_request(77, &wire::Request::Run { bound: 999 }),
    )
    .unwrap();
    let frame = wire::read_frame(&mut raw).unwrap().unwrap();
    assert_eq!(frame.request_id, 77);
    let reply = wire::decode_reply(&frame).unwrap();
    assert!(matches!(
        reply,
        wire::Reply::Error {
            code: wire::code::UNKNOWN_ID,
            ..
        }
    ));

    // The original connection survived the whole gauntlet.
    assert_eq!(
        conn.execute("INSERT INTO T VALUES (1, 'x')").unwrap(),
        Response::Written(true)
    );
    server.shutdown();
}

#[test]
fn pipelined_batches_preserve_per_connection_order() {
    let server = spawn(4);
    let mut conn = Connection::connect(server.addr()).unwrap();
    conn.execute("CREATE TABLE P (v INT)").unwrap();

    // Alternate writes and reads: if the server reordered anything, some
    // read would observe the wrong prefix length (and the client itself
    // verifies request-id echo order).
    let statements: Vec<String> = (0..10)
        .flat_map(|i| {
            [
                format!("INSERT INTO P VALUES ({i})"),
                "SELECT * FROM P(@v)".to_string(),
            ]
        })
        .collect();
    let refs: Vec<&str> = statements.iter().map(String::as_str).collect();
    let results = conn.pipeline(&refs).unwrap();
    assert_eq!(results.len(), 20);
    for (i, pair) in results.chunks(2).enumerate() {
        assert!(matches!(pair[0], Ok(Response::Written(true))));
        let rows = pair[1].as_ref().unwrap().rows().unwrap();
        assert_eq!(rows.len(), i + 1, "read {i} saw the wrong write prefix");
    }

    // An error mid-batch fails that statement only; order holds after it.
    let results = conn
        .pipeline(&[
            "INSERT INTO P VALUES (100)",
            "THIS IS NOT SQL",
            "SELECT * FROM P(@v)",
        ])
        .unwrap();
    assert!(matches!(results[0], Ok(Response::Written(true))));
    assert!(matches!(results[1], Err(ClientError::Server { .. })));
    assert_eq!(results[2].as_ref().unwrap().rows().unwrap().len(), 11);
    server.shutdown();
}

#[test]
fn eight_concurrent_connections_of_mixed_traffic_on_four_workers() {
    const CONNECTIONS: usize = 8;
    // One flight with plenty of seats for eight users.
    let qdb = QuantumDb::new(QuantumDbConfig::default())
        .unwrap()
        .into_shared();
    qdb_workload::flights::install(
        &qdb,
        &qdb_workload::FlightsConfig {
            flights: 1,
            rows_per_flight: 4,
        },
    )
    .unwrap();
    let server = Server::spawn_with_db("127.0.0.1:0", 4, qdb).unwrap();

    std::thread::scope(|scope| {
        for i in 0..CONNECTIONS {
            let addr = server.addr();
            scope.spawn(move || {
                let mut conn = Connection::connect(addr).unwrap();
                // PREPARE/BIND/RUN: the entangled booking, partner = the
                // neighbouring thread's user, all on flight 0.
                let book = conn.prepare(qdb_workload::runner::BOOKING_SQL).unwrap();
                let flight = Value::from(1);
                let user = format!("user-{i}");
                let partner = format!("user-{}", i ^ 1);
                let r = conn
                    .bind_run(
                        &book,
                        &[
                            flight.clone(),
                            Value::from(partner.as_str()),
                            flight.clone(),
                            flight.clone(),
                            Value::from(user.as_str()),
                            flight,
                        ],
                    )
                    .unwrap();
                assert!(matches!(r, Response::Committed(_)), "{user}: {r:?}");

                // EXECUTE: reads and introspection, interleaved.
                let rows = conn
                    .execute("SELECT PEEK @s FROM Available(1, @s)")
                    .unwrap();
                assert!(rows.rows().is_some());
                assert!(matches!(
                    conn.execute("SHOW PENDING").unwrap(),
                    Response::Pending(_)
                ));

                // A pipelined batch per connection: order must hold even
                // under cross-connection contention.
                let batch = conn
                    .pipeline(&[
                        "SHOW PENDING",
                        "SELECT PEEK * FROM Available(1, @s)",
                        "SHOW METRICS",
                    ])
                    .unwrap();
                assert!(matches!(batch[0], Ok(Response::Pending(_))));
                assert!(matches!(batch[1], Ok(Response::Rows(_))));
                assert!(matches!(batch[2], Ok(Response::Metrics(_))));

                // Prepared read, re-run without re-parsing.
                let read = conn.prepare(qdb_workload::runner::READ_SQL).unwrap();
                for _ in 0..3 {
                    let r = conn.bind_run(&read, &[Value::from(user.as_str())]).unwrap();
                    assert!(r.rows().is_some());
                }
            });
        }
    });

    // All eight booked; collapse and verify.
    let mut admin = Connection::connect(server.addr()).unwrap();
    admin.execute("GROUND ALL").unwrap();
    let rows = admin.execute("SELECT * FROM Bookings(@n, @f, @s)").unwrap();
    assert_eq!(rows.rows().unwrap().len(), CONNECTIONS);

    let (engine, stats) = admin.server_stats().unwrap();
    assert_eq!(engine.committed, CONNECTIONS as u64);
    assert_eq!(engine.aborted, 0);
    assert_eq!(stats.connections, (CONNECTIONS + 1) as u64);
    assert_eq!(stats.class("SELECT … CHOOSE 1"), Some(CONNECTIONS as u64));
    // 8 × (PREPARE + BIND + RUN + …) plus the admin conversation.
    assert!(stats.frames_decoded >= (CONNECTIONS * 10) as u64);
    server.shutdown();
}

/// The serving hot loop: each connection PREPAREs the entangled booking
/// and the two non-collapsing reads once, then streams BIND+RUN pairs.
/// Partners sit on different connections, so the entanglement crosses the
/// wire; the parser is entered once per PREPARE and never per statement,
/// and the read path never clones the database.
#[test]
fn prepared_hot_loop_over_the_wire_parses_once_per_prepare_and_coordinates() {
    use qdb_workload::runner::BOOKING_SQL;
    use qdb_workload::{arrange, coordination_stats, make_pairs, ArrivalOrder, FlightsConfig};

    const PEEK_SQL: &str = "SELECT PEEK @f, @s FROM Bookings(?, @f, @s)";
    const POSSIBLE_SQL: &str = "SELECT POSSIBLE @f, @s FROM Bookings(?, @f, @s) LIMIT 32";

    const CONNECTIONS: usize = 3;
    let flights = FlightsConfig {
        flights: 1,
        rows_per_flight: 4,
    };
    let qdb = QuantumDb::new(QuantumDbConfig::default())
        .unwrap()
        .into_shared();
    qdb_workload::flights::install(&qdb, &flights).unwrap();
    let server = Server::spawn_with_db("127.0.0.1:0", 4, qdb.clone()).unwrap();
    let pairs = make_pairs(&flights, 6);
    let requests = arrange(&pairs, ArrivalOrder::Random { seed: 0xC1DE });

    let possibles: u64 = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|i| {
                let (addr, requests) = (server.addr(), &requests);
                scope.spawn(move || {
                    let mut conn = Connection::connect(addr).unwrap();
                    let book = conn.prepare(BOOKING_SQL).unwrap();
                    let peek = conn.prepare(PEEK_SQL).unwrap();
                    let possible = conn.prepare(POSSIBLE_SQL).unwrap();
                    let mut possibles = 0;
                    // Round-robin split: connection i takes requests
                    // i, i+C, i+2C, …
                    for (n, r) in requests.iter().skip(i).step_by(CONNECTIONS).enumerate() {
                        let (flight, user) = (Value::from(r.flight), Value::from(r.user.as_str()));
                        let params = [
                            flight.clone(),
                            Value::from(r.partner.as_str()),
                            flight.clone(),
                            flight.clone(),
                            user.clone(),
                            flight,
                        ];
                        let booked = conn.bind_run(&book, &params).unwrap();
                        assert!(matches!(booked, Response::Committed(_)), "{booked:?}");
                        let seen = conn.bind_run(&peek, std::slice::from_ref(&user)).unwrap();
                        assert!(matches!(seen, Response::Rows(_)), "{seen:?}");
                        if n % 2 == 1 {
                            let worlds = conn.bind_run(&possible, &[user]).unwrap();
                            assert!(matches!(worlds, Response::Worlds(_)), "{worlds:?}");
                            possibles += 1;
                        }
                    }
                    possibles
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });

    let mut admin = Connection::connect(server.addr()).unwrap();
    admin.execute("GROUND ALL").unwrap();
    let (engine, stats) = admin.server_stats().unwrap();
    // Three PREPAREs per connection, plus GROUND ALL and SHOW METRICS on
    // the admin connection. The 12 bookings and their reads never touch
    // the parser.
    assert_eq!(engine.parses, (3 * CONNECTIONS + 2) as u64);
    assert_eq!(engine.aborted, 0);
    assert_eq!(engine.db_clones, 0, "read path must stay clone-free");
    assert_eq!(stats.connections, (CONNECTIONS + 1) as u64);
    assert_eq!(stats.class("SELECT … CHOOSE 1"), Some(12));
    assert_eq!(stats.class("SELECT"), Some(12 + possibles));
    assert!(possibles >= CONNECTIONS as u64);
    // 1 PREPARE×3 per connection + (BIND+RUN) per statement, at minimum.
    assert!(stats.frames_decoded >= (3 * CONNECTIONS) as u64 + 2 * (24 + possibles));
    // Four rows seat at most four adjacent pairs; the engine finds them
    // although no connection ever saw both partners.
    let coord = qdb.with_database(|db| coordination_stats(db, &pairs, flights.rows_per_flight));
    assert_eq!(coord.max_possible, 8);
    assert_eq!(coord.coordinated_users, 8);
    server.shutdown();
}
