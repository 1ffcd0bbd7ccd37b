//! The hand-driven request path and its cut-point trace.
//!
//! The traced run replays a workload's statement stream single-threaded
//! through the layers' public functions, in the order a request crosses
//! them in production — `encode_request` → `try_frame` + `decode_request`
//! → `parse_statement` → `ParsedStatement::bind` →
//! `SharedQuantumDb::execute_stmt` → `encode_reply` → `try_frame` +
//! `decode_reply` (embedded workloads start at `bind`) — and records one
//! span around each call. Spans live in memory and are written out once,
//! after the replay. A layer's self time is its span minus its children;
//! the root span of a request has every stage as a child, so its self time
//! is what the trace failed to attribute.
//!
//! No sockets, threads or queues are on this path: what the real serving
//! path costs beyond it is reported as `server.transport_cpu_ns_per_op`.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use qdb_core::wire::{self, Reply, Request};
use qdb_core::SharedQuantumDb;
use qdb_logic::ParsedStatement;

use crate::exec::{render, Executor, Outcome, Stmt, SQL};

/// Span names, indexed by [`Span::name`].
pub const NAMES: [&str; 8] = [
    "request",
    "client.encode",
    "wire.request_decode",
    "logic.parse",
    "logic.bind",
    "engine.execute",
    "wire.reply_encode",
    "client.decode",
];
const ROOT: u8 = 0;
const CLIENT_ENCODE: u8 = 1;
const REQUEST_DECODE: u8 = 2;
const PARSE: u8 = 3;
const BIND: u8 = 4;
const EXECUTE: u8 = 5;
const REPLY_ENCODE: u8 = 6;
const CLIENT_DECODE: u8 = 7;

/// The trace file holds the spans of this many requests (all requests
/// still feed the per-layer sums).
pub const TRACE_FILE_REQUESTS: u32 = 20_000;

/// One timed call. A span's id within its request is its name's index:
/// each stage occurs once per request, and every stage's parent is the
/// root (id 0).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Request the span belongs to.
    pub req: u32,
    /// Index into [`NAMES`].
    pub name: u8,
    /// Start, ns since the trace began.
    pub start_ns: u64,
    /// End, ns since the trace began.
    pub end_ns: u64,
}

/// In-memory span log of one replay.
#[derive(Debug)]
pub struct TraceLog {
    epoch: Instant,
    /// Recorded spans, in completion order.
    pub spans: Vec<Span>,
    /// Requests traced.
    pub requests: u32,
    /// Request frame bytes the traced requests produced.
    pub request_bytes: u64,
    /// Reply frame bytes the traced requests produced.
    pub reply_bytes: u64,
}

impl TraceLog {
    fn new() -> TraceLog {
        TraceLog {
            epoch: Instant::now(),
            spans: Vec::new(),
            requests: 0,
            request_bytes: 0,
            reply_bytes: 0,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Total ns per span name; the root's entry is its *self* time (span
    /// minus children). Returns `(per name, root total)`.
    pub fn self_times(&self) -> ([u64; NAMES.len()], u64) {
        let mut by_name = [0u64; NAMES.len()];
        for s in &self.spans {
            by_name[s.name as usize] += s.end_ns - s.start_ns;
        }
        let root_total = by_name[ROOT as usize];
        let children: u64 = by_name[1..].iter().sum();
        by_name[ROOT as usize] = root_total.saturating_sub(children);
        (by_name, root_total)
    }

    /// Append the first [`TRACE_FILE_REQUESTS`] requests' spans as JSONL.
    pub fn write_jsonl(&self, out: &mut impl Write, stream: usize) -> std::io::Result<()> {
        let spans = self
            .spans
            .iter()
            .take_while(|s| s.req < TRACE_FILE_REQUESTS);
        for s in spans {
            writeln!(
                out,
                "{{\"stream\":{stream},\"req\":{},\"span\":{},\"parent\":{ROOT},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.req, s.name, NAMES[s.name as usize], s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

/// Write the streams' trace logs to `path`, one JSON object per span.
pub fn write_trace_file(path: &Path, logs: &[TraceLog]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (stream, log) in logs.iter().enumerate() {
        log.write_jsonl(&mut out, stream)?;
    }
    out.flush()
}

/// Executor that walks each statement along the hand-driven path. Until
/// [`Executor::start_trace`] it reads no clock per stage — the baseline for
/// `trace.overhead_pct`.
pub struct HandDriven {
    db: SharedQuantumDb,
    /// Remote shape: SQL text through the client, wire and parse stages.
    /// Otherwise the embedded shape: prepared templates, bind, execute.
    remote: bool,
    templates: Vec<ParsedStatement>,
    log: Option<TraceLog>,
    next_id: u32,
}

impl HandDriven {
    /// A hand-driven path into `db`.
    pub fn new(db: SharedQuantumDb, remote: bool) -> Result<HandDriven, String> {
        let templates = SQL
            .iter()
            .map(|sql| qdb_logic::parse_statement(sql).map_err(|e| format!("prepare: {e}")))
            .collect::<Result<_, _>>()?;
        Ok(HandDriven {
            db,
            remote,
            templates,
            log: None,
            next_id: 0,
        })
    }

    /// Time `work` as span `name` of the current request when recording.
    fn span<R>(&mut self, name: u8, work: impl FnOnce(&mut HandDriven) -> R) -> R {
        let Some(start_ns) = self.log.as_ref().map(TraceLog::now) else {
            return work(self);
        };
        let result = work(self);
        let log = self.log.as_mut().expect("recording");
        let end_ns = log.now();
        log.spans.push(Span {
            req: log.requests,
            name,
            start_ns,
            end_ns,
        });
        result
    }

    fn remote_request(&mut self, stmt: &Stmt) -> Outcome {
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        let frame_bytes = self.span(CLIENT_ENCODE, |_| {
            wire::encode_request(id, &Request::Execute { sql: render(stmt) })
        });
        let request = self.span(REQUEST_DECODE, |_| -> Result<Request, String> {
            let (frame, _) = wire::try_frame(&frame_bytes)
                .map_err(|e| e.to_string())?
                .ok_or("partial request frame")?;
            wire::decode_request(&frame).map_err(|e| e.to_string())
        })?;
        let Request::Execute { sql } = request else {
            return Err("request decoded to another kind".into());
        };
        let parsed = self
            .span(PARSE, |_| qdb_logic::parse_statement(&sql))
            .map_err(|e| e.to_string())?;
        let statement = self
            .span(BIND, |_| parsed.bind(&[]))
            .map_err(|e| e.to_string())?;
        let reply = match self.span(EXECUTE, |me| me.db.execute_stmt(statement)) {
            Ok(response) => Reply::Engine(response),
            Err(e) => Reply::Error {
                code: wire::code_for(&e),
                message: e.to_string(),
            },
        };
        let reply_bytes = self.span(REPLY_ENCODE, |_| wire::encode_reply(id, &reply));
        if let Some(log) = self.log.as_mut() {
            log.request_bytes += frame_bytes.len() as u64;
            log.reply_bytes += reply_bytes.len() as u64;
        }
        let decoded = self.span(CLIENT_DECODE, |_| -> Result<Reply, String> {
            let (frame, _) = wire::try_frame(&reply_bytes)
                .map_err(|e| e.to_string())?
                .ok_or("partial reply frame")?;
            wire::decode_reply(&frame).map_err(|e| e.to_string())
        })?;
        match decoded {
            Reply::Engine(response) => Ok(response),
            Reply::Error { message, .. } => Err(message),
            other => Err(format!("unexpected reply {other:?}")),
        }
    }

    fn embedded_request(&mut self, stmt: &Stmt) -> Outcome {
        let (tmpl, params) = stmt;
        let statement = self
            .span(BIND, |me| me.templates[*tmpl as usize].bind(params))
            .map_err(|e| e.to_string())?;
        self.span(EXECUTE, |me| me.db.execute_stmt(statement))
            .map_err(|e| e.to_string())
    }
}

impl Executor for HandDriven {
    fn call(&mut self, stmts: &[Stmt], out: &mut Vec<Outcome>) -> u64 {
        let t0 = Instant::now();
        for stmt in stmts {
            let outcome = self.span(ROOT, |me| {
                if me.remote {
                    me.remote_request(stmt)
                } else {
                    me.embedded_request(stmt)
                }
            });
            if let Some(log) = self.log.as_mut() {
                log.requests += 1;
            }
            out.push(outcome);
        }
        t0.elapsed().as_nanos() as u64
    }

    fn start_trace(&mut self) {
        self.log = Some(TraceLog::new());
    }

    fn take_trace(&mut self) -> Option<TraceLog> {
        self.log.take()
    }
}
