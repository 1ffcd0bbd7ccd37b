//! Regression: deep pipelines must not strand a connection behind the
//! reactor's per-connection frame-queue cap.
//!
//! A `Connection::pipeline` call deeper than `MAX_QUEUED_FRAMES` (256)
//! makes the reactor pause reading the socket until the executor drains
//! the queue. The pause used to be decided from a queue length read
//! *before* the pause flag was published: an executor that emptied the
//! queue in between saw "not paused", never kicked the reactor, and the
//! rest of the call sat unread forever (two connections at depth 300 or
//! 2 000 hung within a few dozen calls). The decision now happens under
//! the queue lock and a resumed connection re-reads what it was holding,
//! so every call completes.

use std::sync::mpsc;
use std::time::Duration;

use qdb_client::Connection;
use qdb_core::Response;
use qdb_server::{Server, ServerConfig};

const CONNECTIONS: usize = 2;
const CALLS: usize = 40;

fn run_depth(depth: usize) {
    let server = Server::spawn(&ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    })
    .expect("loopback server");
    let addr = server.addr();
    Connection::connect(addr)
        .unwrap()
        .execute("CREATE TABLE T (conn INT, n INT)")
        .unwrap();

    // The watchdog: callers report completion over a channel, and the
    // test fails on silence instead of hanging the suite.
    let (done_tx, done_rx) = mpsc::channel();
    let callers: Vec<_> = (0..CONNECTIONS)
        .map(|c| {
            let done_tx = done_tx.clone();
            std::thread::spawn(move || {
                let mut conn = Connection::connect(addr).unwrap();
                for call in 0..CALLS {
                    let sqls: Vec<String> = (0..depth)
                        .map(|i| format!("INSERT INTO T VALUES ({c}, {})", call * depth + i))
                        .collect();
                    let refs: Vec<&str> = sqls.iter().map(String::as_str).collect();
                    let replies = conn.pipeline(&refs).unwrap();
                    assert_eq!(replies.len(), depth);
                    for reply in replies {
                        assert_eq!(reply.unwrap(), Response::Written(true));
                    }
                }
                done_tx.send(c).unwrap();
            })
        })
        .collect();
    for _ in 0..CONNECTIONS {
        done_rx
            .recv_timeout(Duration::from_secs(120))
            .unwrap_or_else(|_| {
                panic!(
                    "pipeline depth {depth} stopped making progress: {}",
                    server.stats()
                )
            });
    }
    for caller in callers {
        caller.join().unwrap();
    }
    let rows = Connection::connect(addr)
        .unwrap()
        .execute("SELECT * FROM T(@c, @n)")
        .unwrap();
    assert_eq!(rows.rows().unwrap().len(), CONNECTIONS * CALLS * depth);
    server.shutdown();
}

#[test]
fn two_connections_at_pipeline_depth_300_finish() {
    run_depth(300);
}

#[test]
fn two_connections_at_pipeline_depth_2000_finish() {
    run_depth(2_000);
}

/// One `pipeline` call far larger than the socket buffers and the
/// server's outbox together. Written in one piece before any reply is
/// read, the client blocks in `write` (the server, its outbox full of
/// replies nobody collects, has stopped reading) while the server waits
/// for the client to read: the call travels in windows instead, each
/// answered before the next is sent.
#[test]
fn one_call_of_200_000_statements_finishes_with_replies_in_order() {
    const STATEMENTS: usize = 200_000;
    let server = Server::spawn(&ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    })
    .expect("loopback server");
    let addr = server.addr();
    let (done_tx, done_rx) = mpsc::channel();
    let caller = std::thread::spawn(move || {
        let mut conn = Connection::connect(addr).unwrap();
        conn.execute("CREATE TABLE Big (n INT)").unwrap();
        conn.execute("CREATE TABLE Wide (t TEXT)").unwrap();
        let rows: Vec<String> = (0..10)
            .map(|i| format!("('{i}{}')", "x".repeat(100)))
            .collect();
        conn.execute(&format!("INSERT INTO Wide VALUES {}", rows.join(", ")))
            .unwrap();
        // Small `INSERT`s alone do not fill the reply direction (10-byte
        // replies: 200 000 of them fit in the kernel's socket buffers), so
        // three statements in seven read ~1.2 KiB back; every seventh
        // fails, so a reply out of place shows.
        let sqls: Vec<String> = (0..STATEMENTS)
            .map(|i| match i % 7 {
                0 => format!("INSERT INTO Missing VALUES ({i})"),
                1..=3 => "SELECT PEEK @t FROM Wide(@t)".to_string(),
                _ => format!("INSERT INTO Big VALUES ({i})"),
            })
            .collect();
        let refs: Vec<&str> = sqls.iter().map(String::as_str).collect();
        let replies = conn.pipeline(&refs).unwrap();
        assert_eq!(replies.len(), STATEMENTS);
        for (i, reply) in replies.into_iter().enumerate() {
            match i % 7 {
                0 => assert!(reply.is_err(), "statement {i}"),
                1..=3 => assert_eq!(reply.unwrap().rows().unwrap().len(), 10),
                _ => assert_eq!(reply.unwrap(), Response::Written(true), "statement {i}"),
            }
        }
        done_tx.send(()).unwrap();
    });
    done_rx
        .recv_timeout(Duration::from_secs(120))
        .unwrap_or_else(|_| panic!("the call stopped making progress: {}", server.stats()));
    caller.join().unwrap();
    server.shutdown();
}
