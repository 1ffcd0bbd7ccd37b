//! The serving path moves a pipelined call's bytes in a few socket calls,
//! not one per statement — without delaying a lone request, reordering
//! replies, or holding a finished reply hostage to a slow statement
//! queued behind it.

use std::io::{ErrorKind, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use qdb_client::Connection;
use qdb_core::wire::{self, Request};
use qdb_core::Response;
use qdb_server::{Server, ServerConfig, ServerHandle};

fn spawn() -> ServerHandle {
    Server::spawn(&ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    })
    .expect("loopback server")
}

fn execute_frame(id: u32, sql: &str) -> Vec<u8> {
    wire::encode_request(
        id,
        &Request::Execute {
            sql: sql.to_string(),
        },
    )
}

/// Socket calls the server made while `f` ran, as `(reads, writes)`.
fn socket_calls_during(server: &ServerHandle, f: impl FnOnce()) -> (u64, u64) {
    let (reads, writes) = server.socket_calls();
    f();
    let (reads_after, writes_after) = server.socket_calls();
    (reads_after - reads, writes_after - writes)
}

#[test]
fn pipelined_call_costs_a_few_socket_calls_and_a_lone_request_exactly_one_each() {
    const DEPTH: usize = 16;
    const CALLS: usize = 21;
    let server = spawn();
    let mut conn = Connection::connect(server.addr()).unwrap();
    conn.execute("CREATE TABLE T (n INT)").unwrap();

    // Depth 1: one read finds the frame, one write carries the reply —
    // coalescing costs a lone request nothing.
    for _ in 0..5 {
        let calls = socket_calls_during(&server, || {
            conn.execute("SHOW PENDING").unwrap();
        });
        assert_eq!(calls, (1, 1), "depth-1 execute");
    }
    let calls = socket_calls_during(&server, || {
        let insert = conn.prepare("INSERT INTO T VALUES (?)").unwrap();
        conn.bind_run(&insert, &[0.into()]).unwrap();
    });
    assert_eq!(calls, (2, 2), "PREPARE, then BIND+RUN in one write");

    // Depth 16. A write per reply made this 16+ of each. The age rule may
    // add a write when the executor thread loses its CPU mid-batch, so
    // judge the typical call, and bound every call by the old cost.
    let sqls: Vec<String> = (0..DEPTH)
        .map(|i| format!("INSERT INTO T VALUES ({i})"))
        .collect();
    let refs: Vec<&str> = sqls.iter().map(String::as_str).collect();
    let mut reads = Vec::new();
    let mut writes = Vec::new();
    for _ in 0..CALLS {
        let (r, w) = socket_calls_during(&server, || {
            for reply in conn.pipeline(&refs).unwrap() {
                assert_eq!(reply.unwrap(), Response::Written(true));
            }
        });
        assert!(r >= 1 && w >= 1);
        assert!(w < DEPTH as u64, "{w} writes for {DEPTH} replies");
        reads.push(r);
        writes.push(w);
    }
    reads.sort_unstable();
    writes.sort_unstable();
    assert!(reads[CALLS / 2] <= 4, "median reads per call: {reads:?}");
    assert!(writes[CALLS / 2] <= 4, "median writes per call: {writes:?}");
    server.shutdown();
}

#[test]
fn fast_reply_is_on_the_wire_before_the_slow_statement_behind_it_finishes() {
    let server = spawn();
    let mut setup = Connection::connect(server.addr()).unwrap();
    setup
        .execute("CREATE TABLE Available (flight INT, seat TEXT)")
        .unwrap();
    setup
        .execute("CREATE TABLE Bookings (name TEXT, flight INT, seat TEXT)")
        .unwrap();
    let seats: Vec<String> = (0..40).map(|i| format!("(1, 's{i:02}')")).collect();
    setup
        .execute(&format!(
            "INSERT INTO Available VALUES {}",
            seats.join(", ")
        ))
        .unwrap();
    for user in 0..6 {
        let booked = setup
            .execute(&format!(
                "SELECT @s FROM Available(1, @s) CHOOSE 1 FOLLOWED BY \
                 (DELETE (1, @s) FROM Available; INSERT ('u{user}', 1, @s) INTO Bookings)"
            ))
            .unwrap();
        assert!(matches!(booked, Response::Committed(_)));
    }
    // Six undetermined bookings over forty seats: enumerating worlds up
    // to the limit is long work for one statement.
    let slow = "SELECT POSSIBLE @n, @s FROM Bookings(@n, 1, @s) LIMIT 4000";
    let t0 = Instant::now();
    let worlds = setup.execute(slow).unwrap();
    let slow_took = t0.elapsed();
    assert!(worlds.worlds().unwrap().len() > 1);
    assert!(
        slow_took >= Duration::from_millis(20),
        "the slow statement must dwarf the flush age, took {slow_took:?}"
    );

    // One segment: a fast statement, then the slow one right behind it.
    let mut raw = TcpStream::connect(server.addr()).unwrap();
    raw.set_nodelay(true).unwrap();
    let mut batch = execute_frame(1, "SHOW PENDING");
    batch.extend_from_slice(&execute_frame(2, slow));
    raw.write_all(&batch).unwrap();

    let first = wire::read_frame(&mut raw).unwrap().expect("fast reply");
    assert_eq!(first.request_id, 1);
    assert_eq!(first.kind, wire::resp::PENDING);
    // The slow statement is still executing: nothing more to read yet.
    raw.set_nonblocking(true).unwrap();
    let mut probe = [0u8; 1];
    match raw.peek(&mut probe) {
        Err(e) if e.kind() == ErrorKind::WouldBlock => {}
        other => panic!("fast reply waited for the slow statement ({other:?})"),
    }
    raw.set_nonblocking(false).unwrap();
    let second = wire::read_frame(&mut raw).unwrap().expect("slow reply");
    assert_eq!(second.request_id, 2);
    assert_eq!(second.kind, wire::resp::WORLDS);
    server.shutdown();
}

#[test]
fn replies_stay_in_request_order_on_two_interleaved_connections() {
    const ROUNDS: u32 = 40;
    const DEPTH: u32 = 24;
    let server = spawn();
    Connection::connect(server.addr())
        .unwrap()
        .execute("CREATE TABLE T (conn INT, n INT)")
        .unwrap();
    let mut conns: Vec<TcpStream> = (0..2)
        .map(|_| {
            let stream = TcpStream::connect(server.addr()).unwrap();
            stream.set_nodelay(true).unwrap();
            stream
        })
        .collect();
    for round in 0..ROUNDS {
        // Both batches are in flight before either reply is read, so the
        // two drainers run side by side.
        for (c, stream) in conns.iter_mut().enumerate() {
            let mut batch = Vec::new();
            for i in 0..DEPTH {
                let id = round * DEPTH + i;
                let sql = if i % 3 == 0 {
                    format!("SELECT PEEK @n FROM T({c}, @n)")
                } else {
                    format!("INSERT INTO T VALUES ({c}, {id})")
                };
                batch.extend_from_slice(&execute_frame(id, &sql));
            }
            stream.write_all(&batch).unwrap();
        }
        for stream in &mut conns {
            for i in 0..DEPTH {
                let frame = wire::read_frame(stream).unwrap().expect("reply");
                assert_eq!(frame.request_id, round * DEPTH + i, "reply out of order");
                let expected = if i % 3 == 0 {
                    wire::resp::ROWS
                } else {
                    wire::resp::WRITTEN
                };
                assert_eq!(frame.kind, expected);
            }
        }
    }
    server.shutdown();
}

/// Wait (bounded) until the server has made another socket read: the
/// bytes just written have been consumed, so the next write starts a
/// new read on the server side.
fn await_server_read(server: &ServerHandle, reads_before: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.socket_calls().0 == reads_before {
        assert!(Instant::now() < deadline, "server never read the piece");
        std::thread::yield_now();
    }
}

#[test]
fn frame_split_across_three_writes_then_two_whole_frames_decodes_each_once() {
    let server = spawn();
    let mut raw = TcpStream::connect(server.addr()).unwrap();
    raw.set_nodelay(true).unwrap();
    let split = execute_frame(
        10,
        "SELECT PEEK @n FROM Nowhere(@n, 'padding so the frame is long')",
    );
    let mut tail = execute_frame(11, "SHOW PENDING");
    tail.extend_from_slice(&execute_frame(12, "SHOW PENDING"));

    // Every pair of cut points, including inside the length prefix and
    // inside the header: the held tail is whatever did not frame yet.
    let cuts = [1, 3, 4, 8, 9, 10, split.len() / 2, split.len() - 1];
    let mut expected_frames = server.stats().frames_decoded;
    for (n, &a) in cuts.iter().enumerate() {
        for &b in &cuts[n + 1..] {
            let reads = server.socket_calls().0;
            raw.write_all(&split[..a]).unwrap();
            await_server_read(&server, reads);
            let reads = server.socket_calls().0;
            raw.write_all(&split[a..b]).unwrap();
            await_server_read(&server, reads);
            // The last piece and two whole frames travel in one segment.
            let mut last = split[b..].to_vec();
            last.extend_from_slice(&tail);
            raw.write_all(&last).unwrap();
            for id in [10, 11, 12] {
                let frame = wire::read_frame(&mut raw).unwrap().expect("reply");
                assert_eq!(frame.request_id, id, "cuts {a}/{b}");
                let kind = if id == 10 {
                    wire::resp::ERROR // no such table: still exactly one reply
                } else {
                    wire::resp::PENDING
                };
                assert_eq!(frame.kind, kind, "cuts {a}/{b}");
            }
            expected_frames += 3;
            assert_eq!(
                server.stats().frames_decoded,
                expected_frames,
                "cuts {a}/{b}"
            );
        }
    }
    // Nothing extra was decoded or answered.
    raw.set_nonblocking(true).unwrap();
    let mut probe = [0u8; 1];
    assert!(matches!(raw.peek(&mut probe), Err(e) if e.kind() == ErrorKind::WouldBlock));
    server.shutdown();
}
