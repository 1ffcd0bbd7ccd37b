//! The `qdb-server` binary: serve a quantum database over TCP.
//!
//! ```text
//! qdb-server [--addr HOST:PORT] [--workers N] [--k N]
//!            [--prepared-cache N] [--slow-log MICROS] [--trace-out PATH]
//!            [--max-conns N] [--idle-timeout-ms MS] [--outbox-limit BYTES]
//! ```
//!
//! Defaults: `--addr 127.0.0.1:5433`, `--workers 4`, `--prepared-cache
//! 128` (per-connection prepared-statement LRU entries; `0` disables
//! statement caching), engine defaults (k = 61). `--slow-log N` promotes any operation over N microseconds
//! into the engine's slow-op log; `--trace-out PATH` appends every
//! finished operation to PATH as JSONL (see `docs/OBSERVABILITY.md`).
//! Serving knobs: `--max-conns` is the admission limit (default 16384;
//! further connections are refused and counted), `--idle-timeout-ms`
//! reaps connections with no inbound traffic for that long (default
//! 30000; `0` disables), `--outbox-limit` bounds the per-connection
//! reply buffer in bytes (default 262144). The
//! process serves until killed; state is in-memory (a WAL-backed mode
//! rides on the embedding API — see `Server::spawn_with_db`).

use qdb_core::QuantumDbConfig;
use qdb_server::{Server, ServerConfig};

fn usage() -> ! {
    eprintln!(
        "usage: qdb-server [--addr HOST:PORT] [--workers N] [--k N] \
         [--prepared-cache N] [--slow-log MICROS] [--trace-out PATH] \
         [--max-conns N] [--idle-timeout-ms MS] [--outbox-limit BYTES] \
         [--replicate-from HOST:PORT] [--replica-id NAME] \
         [--repl-poll-ms MS] [--promote-after-ms MS]"
    );
    std::process::exit(2);
}

fn parse_args() -> ServerConfig {
    let mut cfg = ServerConfig {
        addr: "127.0.0.1:5433".to_string(),
        engine: QuantumDbConfig::default(),
        // A standing network service defends itself against slowloris
        // clients by default; embedders opt in via ServerConfig.
        idle_timeout: Some(std::time::Duration::from_millis(30_000)),
        ..ServerConfig::default()
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let value = |i: usize| args.get(i + 1).cloned().unwrap_or_else(|| usage());
        match args[i].as_str() {
            "--addr" => {
                cfg.addr = value(i);
                i += 1;
            }
            "--workers" => {
                cfg.workers = value(i).parse().unwrap_or_else(|_| usage());
                i += 1;
            }
            "--k" => {
                cfg.engine.k = value(i).parse().unwrap_or_else(|_| usage());
                i += 1;
            }
            "--prepared-cache" => {
                cfg.prepared_cache = value(i).parse().unwrap_or_else(|_| usage());
                i += 1;
            }
            "--slow-log" => {
                cfg.engine.slow_op_threshold_us = value(i).parse().unwrap_or_else(|_| usage());
                i += 1;
            }
            "--trace-out" => {
                cfg.trace_out = Some(value(i));
                i += 1;
            }
            "--max-conns" => {
                cfg.max_connections = value(i).parse().unwrap_or_else(|_| usage());
                i += 1;
            }
            "--idle-timeout-ms" => {
                let ms: u64 = value(i).parse().unwrap_or_else(|_| usage());
                cfg.idle_timeout = (ms > 0).then(|| std::time::Duration::from_millis(ms));
                i += 1;
            }
            "--outbox-limit" => {
                cfg.outbox_limit = value(i).parse().unwrap_or_else(|_| usage());
                i += 1;
            }
            "--replicate-from" => {
                cfg.replicate_from = Some(value(i));
                i += 1;
            }
            "--replica-id" => {
                cfg.replica_id = value(i);
                i += 1;
            }
            "--repl-poll-ms" => {
                let ms: u64 = value(i).parse().unwrap_or_else(|_| usage());
                cfg.repl_poll_interval = std::time::Duration::from_millis(ms.max(1));
                i += 1;
            }
            "--promote-after-ms" => {
                let ms: u64 = value(i).parse().unwrap_or_else(|_| usage());
                cfg.auto_promote_after = (ms > 0).then(|| std::time::Duration::from_millis(ms));
                i += 1;
            }
            "--help" | "-h" => usage(),
            _ => usage(),
        }
        i += 1;
    }
    cfg
}

fn main() {
    let cfg = parse_args();
    let workers = cfg.workers;
    let handle = match Server::spawn(&cfg) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("qdb-server: cannot serve on {}: {e}", cfg.addr);
            std::process::exit(1);
        }
    };
    match &cfg.replicate_from {
        Some(source) => println!(
            "qdb-server replica '{}' of {} listening on {} ({} workers, read-only until promoted)",
            cfg.replica_id,
            source,
            handle.addr(),
            workers
        ),
        None => println!(
            "qdb-server listening on {} ({} workers, k={}, max {} conns)",
            handle.addr(),
            workers,
            cfg.engine.k,
            cfg.max_connections
        ),
    }
    handle.wait();
}
