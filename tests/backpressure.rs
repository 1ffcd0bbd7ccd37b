//! Backpressure end-to-end: a pipelining client that stops reading must
//! stall *bounded* — the server parks the connection's work instead of
//! buffering replies without limit — and must resume cleanly, in order,
//! once the client drains.

use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use qdb_server::{Server, ServerConfig};
use qdb_wire::{self as wire, Frame, Request};

fn execute_frame(id: u32, sql: &str) -> Vec<u8> {
    wire::encode_request(
        id,
        &Request::Execute {
            sql: sql.to_string(),
        },
    )
}

fn roundtrip(
    stream: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    id: u32,
    sql: &str,
) -> Frame {
    stream.write_all(&execute_frame(id, sql)).unwrap();
    let frame = wire::read_frame(reader).unwrap().expect("setup reply");
    assert_eq!(frame.request_id, id);
    assert_ne!(frame.kind, wire::resp::ERROR, "setup statement failed");
    frame
}

#[test]
fn non_reading_pipeliner_stalls_bounded_then_resumes_in_order() {
    // A deliberately tiny outbox, and enough fat replies to dwarf what the
    // kernel's socket buffers can absorb on their own (~17 MiB of rows
    // against a few MiB of autotuned loopback buffering).
    const OUTBOX_LIMIT: usize = 2048;
    const REQUESTS: u32 = 2000;
    const ROWS: usize = 40;
    const ROW_BYTES: usize = 200;

    let server = Server::spawn(&ServerConfig {
        workers: 2,
        outbox_limit: OUTBOX_LIMIT,
        ..ServerConfig::default()
    })
    .expect("loopback server");

    let stream = TcpStream::connect(server.addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut stream = stream;

    // Seed a relation whose full scan is ~8 KiB per reply.
    roundtrip(&mut stream, &mut reader, 1, "CREATE TABLE Blob (t TEXT)");
    let values: Vec<String> = (0..ROWS)
        .map(|i| format!("('{}{}')", i, "x".repeat(ROW_BYTES)))
        .collect();
    roundtrip(
        &mut stream,
        &mut reader,
        2,
        &format!("INSERT INTO Blob VALUES {}", values.join(", ")),
    );

    // Pipeline every request up front and read nothing back. The requests
    // themselves are tiny (tens of KiB total), so this write cannot block
    // even after the server pauses reading our socket.
    let mut batch = Vec::new();
    for id in 1..=REQUESTS {
        batch.extend_from_slice(&execute_frame(1000 + id, "SELECT @t FROM Blob(@t)"));
    }
    stream.write_all(&batch).unwrap();

    // The executor must hit the full outbox and park the connection.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let stats = server.stats();
        if stats.outbox_full_stalls >= 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "no outbox stall recorded: {stats}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // Stalled means bounded: per-connection state is outbox-limit plus
    // read-buffer sized, not proportional to the number of unread replies
    // (2000 × ~8 KiB would be ~16 MiB if the server buffered them all).
    let mem = server.conn_memory();
    assert!(mem.conns >= 1);
    assert!(
        mem.bytes < 256 * 1024,
        "per-connection state should stay bounded while stalled, got {} bytes \
         across {} connections",
        mem.bytes,
        mem.conns
    );

    // Drain: every reply arrives, in pipeline order, with nothing dropped
    // or duplicated across the stall/resume cycles.
    for expect in 1..=REQUESTS {
        let reply = wire::read_frame(&mut reader)
            .unwrap()
            .unwrap_or_else(|| panic!("connection closed before reply {expect}"));
        assert_eq!(
            reply.request_id,
            1000 + expect,
            "replies must stay in order"
        );
        assert_eq!(reply.kind, wire::resp::ROWS);
    }

    let stats = server.stats();
    assert!(stats.outbox_full_stalls >= 1);
    assert!(stats.frames_decoded >= REQUESTS as u64);
    server.shutdown();
}
