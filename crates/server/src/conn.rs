//! Per-connection state and request handling.
//!
//! Each accepted socket gets one [`Conn`]: its own statement-template
//! cache ([`StmtCache`]), its prepared/bound id maps, a queue of decoded
//! frames, and a bounded outbox of encoded reply bytes. Every request of
//! every node role goes through [`Conn::handle_request`], against the
//! node's one engine. The reactor thread owns the socket's
//! readiness and its read buffer; executors drain the frame queue.
//!
//! Two disciplines keep the PR 2 contracts intact under the event loop:
//!
//! * **Ordering** — the `scheduled` flag enqueues a connection on the
//!   executor pool at most once at a time, and the worker that picks it
//!   up drains its frames sequentially, appending each reply to the
//!   outbox in completion order. The outbox is flushed front-first, so
//!   responses leave in request order per connection.
//! * **Backpressure** — a drainer whose flush leaves the outbox at or
//!   above [`Conn::outbox_limit`] sets `stalled` and returns *without*
//!   clearing `scheduled`. Ownership of rescheduling passes to the
//!   reactor, which re-enqueues the connection once a flush brings the
//!   outbox under the low watermark. Both transitions happen under the
//!   outbox mutex, so a wakeup can never be missed.
//! * **Coalescing** — replies are encoded straight into the outbox and
//!   leave in as few socket writes as the flush rule allows: the drainer
//!   writes when the frame queue is empty (a lone request is never
//!   delayed), when [`FLUSH_BYTES`] are waiting, or when the oldest
//!   waiting reply is [`FLUSH_AGE`] old. It looks between statements, so
//!   the reactor sweeps the connections it handed a batch to: a reply
//!   held through two sweeps (it sits behind a long statement) is
//!   written from there.

use std::collections::{BTreeMap, VecDeque};
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use qdb_core::Lead;
use qdb_core::StmtCache;
use qdb_logic::{ParsedStatement, Statement};
use qdb_wire::{self as wire, Frame, Reply, Request, Response};

use crate::metrics::ServerMetrics;
use crate::reactor::Notifier;
use crate::repl::Node;
use crate::{lock, MAX_QUEUED_FRAMES};

/// A drainer with more frames queued lets replies accumulate up to this
/// many bytes before writing the socket.
const FLUSH_BYTES: usize = 16 * 1024;
/// …and no longer than this: the client of a long batch starts decoding
/// while the server is still executing.
const FLUSH_AGE: Duration = Duration::from_micros(200);

/// Frames waiting to be executed, plus the scheduling flag that keeps one
/// worker at a time draining them (per-connection order).
#[derive(Default)]
struct FrameQueue {
    frames: VecDeque<Frame>,
    scheduled: bool,
    /// The reactor deregistered `EPOLLIN` (queue or outbox saturated);
    /// drainers kick once pressure drops so reading resumes. Lives under
    /// the queue mutex so that the reactor decides it against the very
    /// queue length the drainers change: a drainer that pops after the
    /// decision sees the flag, one that emptied the queue before it made
    /// the decision come out "not paused" — no wake-up falls in between.
    read_paused: bool,
}

/// Encoded reply bytes not yet accepted by the socket. `head` is the
/// flush cursor into `buf`; compaction happens when the cursor clears
/// the buffer or grows large.
#[derive(Default)]
struct Outbox {
    buf: Vec<u8>,
    head: usize,
    /// `0`: every reply has been offered to the socket. Otherwise the
    /// drainer is holding replies back for the flush rule, and this is 1 +
    /// the reactor sweeps the oldest of them has sat through.
    held_sweeps: u8,
    /// A drainer stopped because the outbox hit the limit; the reactor
    /// owns rescheduling (set/cleared only under this mutex).
    stalled: bool,
    /// The transport is gone: discard writes instead of buffering them.
    closed: bool,
}

impl Outbox {
    fn len(&self) -> usize {
        self.buf.len() - self.head
    }

    fn compact(&mut self) {
        if self.head == self.buf.len() {
            self.buf.clear();
            self.head = 0;
        } else if self.head > 64 * 1024 {
            self.buf.drain(..self.head);
            self.head = 0;
        }
    }
}

/// What [`Conn::enqueue_from`] did with a buffer.
pub(crate) struct Enqueued {
    /// Bytes framed off the front of the buffer.
    pub consumed: usize,
    /// Stopped for lack of queue room: the rest of the buffer may hold
    /// further whole frames.
    pub full: bool,
    /// The connection was idle and must now go to the executor pool.
    pub schedule: bool,
    /// More than one frame is queued, so the drainer may hold replies
    /// back for the flush rule.
    pub pipelined: bool,
}

/// Statement state of one connection: its template cache plus the
/// client-id maps. Parsed statements name no engine, so they outlive a
/// promotion.
struct StmtState {
    cache: StmtCache,
    prepared: BTreeMap<u32, ParsedStatement>,
    bound: BTreeMap<u32, Statement>,
}

/// One client connection.
pub(crate) struct Conn {
    stream: TcpStream,
    token: u64,
    queue: Mutex<FrameQueue>,
    outbox: Mutex<Outbox>,
    stmts: Mutex<StmtState>,
    node: Arc<Node>,
    metrics: Arc<ServerMetrics>,
    notifier: Arc<Notifier>,
    outbox_limit: usize,
    /// Transport failed (read/write error or protocol-level corruption);
    /// the reactor closes the connection at the next opportunity.
    dead: AtomicBool,
    /// Peer half-closed its write side; finish in-flight work, flush,
    /// then close.
    peer_eof: AtomicBool,
    /// Reactor-side dedup so a burst of kicks queues one entry.
    kicked: AtomicBool,
    /// Idle clock: reactor tick of the last inbound read.
    last_active_tick: AtomicU64,
    /// Capacity of the reactor-owned read buffer (memory accounting).
    rbuf_bytes: AtomicUsize,
    /// Capacity of the outbox buffer (memory accounting).
    outbox_bytes: AtomicUsize,
}

impl Conn {
    pub(crate) fn new(
        stream: TcpStream,
        token: u64,
        node: Arc<Node>,
        metrics: Arc<ServerMetrics>,
        notifier: Arc<Notifier>,
        outbox_limit: usize,
    ) -> Self {
        Conn {
            stream,
            token,
            queue: Mutex::new(FrameQueue::default()),
            outbox: Mutex::new(Outbox::default()),
            stmts: Mutex::new(StmtState {
                cache: StmtCache::new(qdb_core::Session::DEFAULT_STMT_CACHE),
                prepared: BTreeMap::new(),
                bound: BTreeMap::new(),
            }),
            node,
            metrics,
            notifier,
            outbox_limit,
            dead: AtomicBool::new(false),
            peer_eof: AtomicBool::new(false),
            kicked: AtomicBool::new(false),
            last_active_tick: AtomicU64::new(0),
            rbuf_bytes: AtomicUsize::new(0),
            outbox_bytes: AtomicUsize::new(0),
        }
    }

    pub(crate) fn stream(&self) -> &TcpStream {
        &self.stream
    }

    pub(crate) fn token(&self) -> u64 {
        self.token
    }

    /// Ask the reactor to look at this connection (flush, interest
    /// update, close check). Deduplicated until the reactor services it.
    pub(crate) fn kick(&self) {
        if !self.kicked.swap(true, Ordering::AcqRel) {
            self.notifier.kick(self.token);
        }
    }

    /// Reactor: about to service a kick — accept new ones from here on.
    pub(crate) fn begin_kick(&self) {
        self.kicked.store(false, Ordering::Release);
    }

    pub(crate) fn mark_dead(&self) {
        self.dead.store(true, Ordering::Release);
    }

    pub(crate) fn dead(&self) -> bool {
        self.dead.load(Ordering::Acquire)
    }

    pub(crate) fn set_peer_eof(&self) {
        self.peer_eof.store(true, Ordering::Release);
    }

    pub(crate) fn peer_eof(&self) -> bool {
        self.peer_eof.load(Ordering::Acquire)
    }

    /// Reactor: decide, under the queue lock, whether reading this socket
    /// pauses — the queue is at its cap or the outbox at its limit — and
    /// publish the decision to the drainers in the same critical section.
    /// Returns the decision and the outbox length it was made with.
    pub(crate) fn decide_read_paused(&self) -> (bool, usize) {
        let outbox_len = lock(&self.outbox).len();
        let mut q = lock(&self.queue);
        q.read_paused = outbox_len >= self.outbox_limit || q.frames.len() >= MAX_QUEUED_FRAMES;
        (q.read_paused, outbox_len)
    }

    pub(crate) fn touch(&self, tick: u64) {
        self.last_active_tick.store(tick, Ordering::Relaxed);
    }

    pub(crate) fn last_active(&self) -> u64 {
        self.last_active_tick.load(Ordering::Relaxed)
    }

    pub(crate) fn set_rbuf_bytes(&self, n: usize) {
        self.rbuf_bytes.store(n, Ordering::Relaxed);
    }

    /// Estimated user-space bytes of state held for this connection:
    /// struct (queue/outbox/session headers inline) plus the two live
    /// buffers. Excludes kernel socket buffers and session-cache heap.
    pub(crate) fn mem_bytes(&self) -> u64 {
        (std::mem::size_of::<Conn>()
            + self.rbuf_bytes.load(Ordering::Relaxed)
            + self.outbox_bytes.load(Ordering::Relaxed)) as u64
    }

    /// Tear the connection down: wake the peer's blocked I/O, discard
    /// queued work, and release buffered memory. Safe against a worker
    /// mid-drain — the `closed` flag makes its writes no-ops and its
    /// next pop observes the emptied queue.
    pub(crate) fn close(&self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
        {
            let mut ob = lock(&self.outbox);
            ob.closed = true;
            ob.stalled = false;
            ob.buf = Vec::new();
            ob.head = 0;
        }
        self.outbox_bytes.store(0, Ordering::Relaxed);
        lock(&self.queue).frames.clear();
    }

    /// Reactor: frame whole requests off the front of `bytes` into the
    /// queue — as many as it has room for, under one lock.
    pub(crate) fn enqueue_from(&self, bytes: &[u8]) -> Result<Enqueued, wire::WireError> {
        let mut q = lock(&self.queue);
        let mut consumed = 0;
        let mut full = false;
        loop {
            if q.frames.len() >= MAX_QUEUED_FRAMES {
                full = true;
                break;
            }
            let Some((frame, used)) = wire::try_frame(&bytes[consumed..])? else {
                break;
            };
            consumed += used;
            self.metrics.frame_in(frame.wire_len());
            q.frames.push_back(frame);
        }
        let schedule = consumed > 0 && !q.scheduled;
        q.scheduled |= schedule;
        Ok(Enqueued {
            consumed,
            full,
            schedule,
            pipelined: q.frames.len() > 1,
        })
    }

    /// Outbox bytes not yet accepted by the socket (the reactor stops
    /// reading a connection whose replies nobody collects).
    pub(crate) fn outbox_len(&self) -> usize {
        lock(&self.outbox).len()
    }

    /// Reactor sweep: count the sweep against replies the drainer is
    /// holding back and say whether they have now sat through two — a
    /// drainer looks at the flush rule between statements, so it must be
    /// inside a long one — and whether a drainer is at work at all. (One
    /// that returns has flushed, and a stalled one is woken by the reactor
    /// itself, so neither needs further watching.)
    pub(crate) fn sweep(&self) -> (bool, bool) {
        let (stale, stalled) = {
            let mut ob = lock(&self.outbox);
            let stale = ob.held_sweeps >= 2;
            if ob.held_sweeps == 1 {
                ob.held_sweeps = 2;
            }
            (stale, ob.stalled)
        };
        (stale, !stalled && lock(&self.queue).scheduled)
    }

    /// All work done and flushed: safe to close after peer EOF.
    pub(crate) fn finished(&self) -> bool {
        {
            let q = lock(&self.queue);
            if !q.frames.is_empty() || q.scheduled {
                return false;
            }
        }
        lock(&self.outbox).len() == 0
    }

    /// Reactor: write as much of the outbox as the socket accepts.
    /// Returns `true` when a stalled drainer crossed back under the low
    /// watermark and must be re-enqueued on the executor pool.
    pub(crate) fn flush(&self) -> bool {
        let mut ob = lock(&self.outbox);
        self.flush_locked(&mut ob);
        // Low watermark at half the limit: resuming the drainer only
        // after real room opens up avoids a stall/unstall flutter at the
        // boundary.
        let resched = ob.stalled && ob.len() < (self.outbox_limit / 2).max(1);
        if resched {
            ob.stalled = false;
        }
        resched
    }

    /// Write `buf[head..]` until done or `WouldBlock`. Any other error
    /// marks the connection dead and empties the outbox. Called with the
    /// outbox mutex held — every socket write goes through here, which
    /// is what keeps reactor and executor writes from interleaving.
    fn flush_locked(&self, ob: &mut Outbox) {
        ob.held_sweeps = 0;
        if ob.closed {
            return;
        }
        let mut stream = &self.stream;
        while ob.head < ob.buf.len() {
            // Counted before the write and corrected after it: a client
            // that has read these bytes finds them in a stats snapshot
            // even if this thread loses the CPU as the syscall returns.
            let attempt = ob.buf.len() - ob.head;
            self.metrics.socket_write();
            self.metrics.bytes_out(attempt as u64);
            let result = stream.write(&ob.buf[ob.head..]);
            let written = *result.as_ref().unwrap_or(&0);
            ob.head += written;
            if written < attempt {
                self.metrics.bytes_out_undo((attempt - written) as u64);
            }
            match result {
                Ok(0) => {
                    self.mark_dead();
                    break;
                }
                Ok(_) => {}
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.mark_dead();
                    break;
                }
            }
        }
        if self.dead() {
            ob.closed = true;
            ob.buf = Vec::new();
            ob.head = 0;
        } else {
            ob.compact();
        }
        self.outbox_bytes
            .store(ob.buf.capacity(), Ordering::Relaxed);
    }

    /// Encode one reply into the outbox and write the socket if the flush
    /// rule says so (`more`: further frames are queued behind this one;
    /// `held_since`: when this drain first held a reply back), so an
    /// unsaturated connection never waits for the reactor to write. Kicks
    /// the reactor when bytes are left over (it must arm `EPOLLOUT`).
    /// Returns `false` when the outbox is at its limit even after the
    /// write: the drainer stalls.
    fn push_reply(
        &self,
        request_id: u32,
        reply: &Reply,
        more: bool,
        held_since: &mut Option<Instant>,
    ) -> bool {
        let (remaining, stalled) = {
            let mut ob = lock(&self.outbox);
            if ob.closed {
                return true; // `close` emptied the queue too: the next pop ends the drain
            }
            // Bounded by the encoder: an oversized result degrades into a
            // typed error frame instead of a transport failure at the client.
            wire::encode_reply_into(&mut ob.buf, request_id, reply);
            if more && ob.len() < FLUSH_BYTES.min(self.outbox_limit) {
                let now = Instant::now();
                if now - *held_since.get_or_insert(now) < FLUSH_AGE {
                    ob.held_sweeps = ob.held_sweeps.max(1);
                    return true;
                }
            }
            *held_since = None;
            self.flush_locked(&mut ob);
            let stalled = !ob.closed && ob.len() >= self.outbox_limit;
            ob.stalled = stalled;
            (ob.len(), stalled)
        };
        if stalled {
            self.metrics.outbox_full_stall();
        }
        if remaining > 0 || self.dead() {
            self.kick();
        }
        !stalled
    }

    /// Drain the frame queue, executing each request in arrival order.
    /// Runs on an executor thread; returns when the queue is empty (the
    /// reactor reschedules on the next frame) or when the outbox is full
    /// (still `scheduled`: the reactor reschedules after draining it —
    /// see the module doc). Either way every reply encoded so far has
    /// been handed to the socket or to the reactor.
    pub(crate) fn drain(self: &Arc<Self>) {
        let mut held_since = None;
        loop {
            let (frame, more, resume) = {
                let mut q = lock(&self.queue);
                match q.frames.pop_front() {
                    Some(frame) => {
                        let left = q.frames.len();
                        // Unpause reads early once the queue has real room again.
                        let resume = q.read_paused && left < MAX_QUEUED_FRAMES / 2;
                        (frame, left > 0, resume)
                    }
                    None => {
                        q.scheduled = false;
                        let read_paused = q.read_paused;
                        drop(q);
                        // The reactor may now need to unpause reads or
                        // close out a half-closed connection.
                        if read_paused || self.peer_eof() || self.dead() {
                            self.kick();
                        }
                        return;
                    }
                }
            };
            if resume {
                self.kick();
            }
            let reply = self.handle_frame(&frame);
            if !self.push_reply(frame.request_id, &reply, more, &mut held_since) {
                return;
            }
        }
    }

    fn handle_frame(&self, frame: &Frame) -> Reply {
        match wire::decode_request(frame) {
            Ok(request) => self.handle_request(request),
            Err(e) => Reply::Error {
                code: wire::code::PROTOCOL,
                message: e.to_string(),
            },
        }
    }

    /// The one dispatcher, for every node role: the node supplies its
    /// engine and, while it follows a primary, the rule that limits what
    /// it serves.
    fn handle_request(&self, request: Request) -> Reply {
        let (db, following) = match self.node.serving() {
            Ok(serving) => serving,
            Err(refusal) => return refusal,
        };
        if let Some(replica) = following {
            if !matches!(request, Request::Execute { .. }) {
                return replica
                    .follow(None)
                    .expect_err("a following replica serves EXECUTE only");
            }
        }
        let mut stmts = lock(&self.stmts);
        // A text's op starts at its parse (`lead`); a bound statement's at
        // its execution.
        let (stmt, lead) = match request {
            // The statement cache binds a text's literals into the
            // template of its shape: no parse after the shape's first text.
            Request::Execute { sql } => match executable(stmts.cache.parse_led(db, &sql)) {
                Ok((stmt, lead)) => (stmt, Some(lead)),
                Err(refusal) => return refusal,
            },
            Request::Prepare { stmt, sql } => {
                return match stmts.cache.parse(db, &sql) {
                    Ok(parsed) => {
                        let params = parsed.param_count() as u32;
                        // Client-assigned ids: re-preparing under the same
                        // id replaces the old statement (like SQL `PREPARE`).
                        stmts.prepared.insert(stmt, parsed);
                        Reply::Prepared { stmt, params }
                    }
                    Err(e) => engine_error(e),
                };
            }
            Request::Bind {
                stmt,
                bound,
                params,
            } => {
                let Some(prepared) = stmts.prepared.get(&stmt) else {
                    return unknown_id("statement", stmt);
                };
                return match prepared.bind(&params) {
                    Ok(b) => {
                        stmts.bound.insert(bound, b);
                        Reply::Bound { bound }
                    }
                    Err(e) => engine_error(e.into()),
                };
            }
            Request::Run { bound } => match stmts.bound.remove(&bound) {
                Some(stmt) => (stmt, None),
                None => return unknown_id("bound statement", bound),
            },
            Request::Replicate {
                replica_id,
                from_offset,
            } => return self.node.poll(&replica_id, from_offset),
            Request::ReplAck {
                replica_id,
                applied_offset,
                horizon,
            } => return self.node.ack(&replica_id, applied_offset, horizon),
        };
        drop(stmts);
        self.metrics.statement(stmt.class());
        let stmt = match following {
            Some(replica) => match replica.follow(Some(stmt)) {
                Ok(read) => read,
                Err(refusal) => return refusal,
            },
            None => stmt,
        };
        let result = match stmt {
            Statement::Promote => self.node.promote(),
            Statement::ShowReplication => Ok(self.node.replication()),
            stmt => match lead {
                Some(lead) => db.execute_led(stmt, lead),
                None => db.execute_stmt(stmt),
            },
        };
        match result {
            // `SHOW METRICS` carries the server's counters too.
            Ok(Response::Metrics(engine)) => Reply::Stats {
                engine,
                server: self.metrics.snapshot(),
            },
            Ok(r) => Reply::Engine(r),
            Err(e) => engine_error(e),
        }
    }
}

pub(crate) fn engine_error(e: qdb_core::EngineError) -> Reply {
    Reply::Error {
        code: e.code(),
        message: e.to_string(),
    }
}

/// What an `EXECUTE` runs, from its text's parse: the statement, or the
/// reply refusing it — the parse error, or `PARAMS` for a text with `?`
/// placeholders, which EXECUTE has no values for.
pub(crate) fn executable(
    parsed: qdb_core::Result<(ParsedStatement, Lead)>,
) -> Result<(Statement, Lead), Reply> {
    let (parsed, lead) = parsed.map_err(engine_error)?;
    let placeholders = parsed.param_count();
    let stmt = parsed.into_statement().map_err(|_| Reply::Error {
        code: wire::code::PARAMS,
        message: format!(
            "EXECUTE carries no parameters but the statement has {placeholders} placeholder(s); use PREPARE/BIND/RUN"
        ),
    })?;
    Ok((stmt, lead))
}

fn unknown_id(what: &str, id: u32) -> Reply {
    Reply::Error {
        code: wire::code::UNKNOWN_ID,
        message: format!("no {what} with id {id} on this connection"),
    }
}
