//! Slow-client robustness: one misbehaving connection must never stall
//! the reactor for everyone else.
//!
//! Three classic abuse shapes from the 10k-connection literature:
//!
//! - **byte dribble** — a client trickles a valid frame one byte at a
//!   time. A thread-per-connection server with blocking reads tolerates
//!   this by burning a thread; a readiness loop must tolerate it by
//!   buffering partial frames and moving on.
//! - **slowloris** — clients connect, send little or nothing, and hold
//!   the socket open forever. The idle-timeout wheel must reap them while
//!   connections with live traffic keep their seats.
//! - **idle flood** — hundreds of connections open and never speak. Each
//!   must be admitted and cost only its connection state (no buffer is
//!   held for a socket with nothing in flight), and a live connection
//!   must keep round-tripping beside them.

use std::io::{BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use qdb_client::Connection;
use qdb_core::wire::{self, Request};
use qdb_server::{Server, ServerConfig, ServerHandle};

fn spawn(cfg: ServerConfig) -> ServerHandle {
    Server::spawn(&cfg).expect("loopback server")
}

#[test]
fn byte_dribbled_frame_does_not_block_other_connections() {
    let server = spawn(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    });
    let addr = server.addr();

    // The dribbler: a valid EXECUTE frame, delivered one byte at a time.
    let mut dribbler = TcpStream::connect(addr).unwrap();
    dribbler.set_nodelay(true).unwrap();
    let frame = wire::encode_request(
        7,
        &Request::Execute {
            sql: "SHOW PENDING".to_string(),
        },
    );

    // A well-behaved neighbour completes many full round trips while the
    // dribble is still in flight.
    let neighbour = std::thread::spawn({
        let addr = addr.to_string();
        move || {
            let mut conn = Connection::connect(addr.as_str()).unwrap();
            for _ in 0..20 {
                conn.execute("SHOW PENDING").unwrap();
            }
        }
    });

    for byte in &frame {
        dribbler.write_all(std::slice::from_ref(byte)).unwrap();
        std::thread::sleep(Duration::from_millis(2));
    }

    neighbour.join().expect("neighbour round trips");

    // The dribbled frame was buffered, not dropped: its reply arrives once
    // the last byte lands.
    let mut reader = BufReader::new(dribbler);
    let reply = wire::read_frame(&mut reader)
        .unwrap()
        .expect("reply to the dribbled frame");
    assert_eq!(reply.request_id, 7);
    assert_eq!(reply.kind, wire::resp::PENDING);
}

#[test]
fn slowloris_half_open_connections_are_reaped_while_active_traffic_survives() {
    let server = spawn(ServerConfig {
        workers: 2,
        idle_timeout: Some(Duration::from_millis(300)),
        ..ServerConfig::default()
    });
    let addr = server.addr();

    // Slowloris pack: connect, send at most a partial frame header, then
    // go silent while holding the socket open.
    let mut loris: Vec<TcpStream> = (0..4)
        .map(|i| {
            let mut s = TcpStream::connect(addr).unwrap();
            if i % 2 == 0 {
                s.write_all(&[0x11, 0x00]).unwrap(); // 2 bytes of a length prefix
            }
            s
        })
        .collect();

    // One connection with a real pulse: round trips well inside the idle
    // window, the whole time the wheel is reaping its neighbours.
    let mut active = Connection::connect(addr).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        active.execute("SHOW PENDING").unwrap();
        let stats = server.stats();
        if stats.conns_idle_closed >= 4 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "slowloris connections not reaped: {stats}"
        );
        std::thread::sleep(Duration::from_millis(30));
    }

    // The reaped sockets observe the close as EOF (or a reset).
    for s in &mut loris {
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut buf = [0u8; 16];
        match s.read(&mut buf) {
            Ok(0) | Err(_) => {}
            Ok(n) => panic!("reaped connection produced {n} bytes"),
        }
    }

    // The connection with live traffic kept its seat.
    active.execute("SHOW PENDING").unwrap();
    let stats = server.stats();
    assert_eq!(stats.conns_idle_closed, 4);
    assert!(stats.conns_open >= 1, "active connection survived: {stats}");
    server.shutdown();
}

#[test]
fn idle_flood_is_admitted_holds_no_buffers_and_leaves_live_traffic_serving() {
    // Both socket ends live in this process: 2 × 256 fds stays under the
    // common 1 024 soft limit.
    const FLOOD: usize = 256;
    let server = spawn(ServerConfig {
        workers: 2,
        // Provisioned above the flood, so zero refusals is a real check.
        max_connections: FLOOD + 16,
        // Present, so the timer wheel tracks every parked connection, and
        // long enough that none is reaped mid-test.
        idle_timeout: Some(Duration::from_secs(600)),
        ..ServerConfig::default()
    });
    let addr = server.addr();

    let before = server.conn_memory();
    let flood: Vec<TcpStream> = (0..FLOOD)
        .map(|_| TcpStream::connect(addr).unwrap())
        .collect();
    // The reactor accepts asynchronously: wait until it holds the flood.
    let deadline = Instant::now() + Duration::from_secs(30);
    while server.stats().conns_open < FLOOD as u64 {
        assert!(
            Instant::now() < deadline,
            "flood not fully accepted: {}",
            server.stats()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let after = server.conn_memory();
    assert_eq!(after.conns - before.conns, FLOOD);
    let per_conn = (after.bytes - before.bytes) as f64 / FLOOD as f64;
    assert!(
        per_conn > 0.0 && per_conn < 512.0,
        "{per_conn:.0} bytes per idle connection"
    );

    // A live connection keeps its round trips while the flood is parked.
    let mut live = Connection::connect(addr).unwrap();
    for _ in 0..50 {
        live.execute("SHOW PENDING").unwrap();
    }
    let stats = server.stats();
    assert_eq!(stats.conns_refused, 0, "{stats}");
    assert_eq!(stats.conns_idle_closed, 0, "{stats}");

    // Dropping the flood gives its seats back.
    drop(flood);
    let deadline = Instant::now() + Duration::from_secs(30);
    while server.stats().conns_open > 1 {
        assert!(
            Instant::now() < deadline,
            "flood not released: {}",
            server.stats()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    live.execute("SHOW PENDING").unwrap();
    server.shutdown();
}
