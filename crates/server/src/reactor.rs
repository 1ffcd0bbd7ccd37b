//! The event loop: one thread owning every socket's readiness.
//!
//! The reactor accepts, reads, decodes, flushes, reaps, and *never*
//! executes a statement — decoded frames are handed to the executor pool
//! (see `crate::worker_loop`) so solver work cannot stall I/O. All
//! `epoll_ctl` calls happen on this thread; executors communicate
//! interest changes through [`Notifier::kick`] (a token queue plus a
//! one-byte pipe write), which sidesteps the classic fd-reuse race of
//! multi-threaded epoll registration.
//!
//! Connection slots live in a slab indexed by the epoll token's low
//! bits; the high bits carry a generation counter so a late event or
//! timer entry for a recycled slot is recognized and dropped.
//!
//! Idle connections sit on a lazy timer wheel: one entry per connection,
//! re-examined only when its deadline fires. Activity just stamps
//! [`Conn::last_active`]; a fired entry whose connection has been active
//! re-inserts itself at the new deadline, so 10k idle connections cost
//! zero per-request work and O(1) per wheel tick.

use std::io::{self, Read};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Mutex, Weak};
use std::time::{Duration, Instant};

use qdb_core::SharedQuantumDb;

use crate::conn::Conn;
use crate::metrics::ServerMetrics;
use crate::repl::ConnRole;
use crate::sys::{Event, Poller};
use crate::{DrainSignal, Job};

/// Epoll token of the accept socket.
const TOKEN_LISTENER: u64 = 0;
/// Epoll token of the waker pipe's read end.
const TOKEN_WAKER: u64 = 1;
/// Connection tokens: `(generation << 32) | slot_index`, generation ≥ 1.
fn conn_token(idx: usize, gen: u32) -> u64 {
    ((gen as u64) << 32) | idx as u64
}

fn token_parts(token: u64) -> (usize, u32) {
    ((token & 0xffff_ffff) as usize, (token >> 32) as u32)
}

/// How executor threads (and the shutdown path) get the reactor's
/// attention: queue a token, poke the pipe.
pub(crate) struct Notifier {
    kicks: Mutex<Vec<u64>>,
    wake_tx: UnixStream,
}

impl Notifier {
    /// Returns the notifier plus the read end the reactor registers.
    pub(crate) fn new() -> io::Result<(Notifier, UnixStream)> {
        let (wake_tx, wake_rx) = UnixStream::pair()?;
        wake_tx.set_nonblocking(true)?;
        wake_rx.set_nonblocking(true)?;
        Ok((
            Notifier {
                kicks: Mutex::new(Vec::new()),
                wake_tx,
            },
            wake_rx,
        ))
    }

    pub(crate) fn kick(&self, token: u64) {
        let first = {
            let mut kicks = crate::lock(&self.kicks);
            kicks.push(token);
            kicks.len() == 1
        };
        if first {
            self.wake();
        }
    }

    /// Wake the reactor without a target (shutdown notice). A full pipe
    /// is fine — the reactor is already due to wake.
    pub(crate) fn wake(&self) {
        use std::io::Write;
        let _ = (&self.wake_tx).write(&[1]);
    }

    fn drain(&self) -> Vec<u64> {
        std::mem::take(&mut crate::lock(&self.kicks))
    }
}

/// Reactor-side knobs, split off [`crate::ServerConfig`].
pub(crate) struct ReactorConfig {
    pub prepared_cache: usize,
    pub max_connections: usize,
    pub outbox_limit: usize,
    pub idle_timeout: Option<Duration>,
}

/// Size of the reactor's one read buffer, shared by every connection.
const SCRATCH_BYTES: usize = 64 * 1024;
/// How often connections with a batch in progress are checked for replies
/// their drainer is holding back (`epoll_wait` counts in milliseconds).
const LINGER_SWEEP: Duration = Duration::from_millis(1);

/// Reactor-private per-connection state (shared state lives in [`Conn`]).
struct Slot {
    conn: Arc<Conn>,
    gen: u32,
    /// The tail of the input that did not frame yet: a partial frame, or
    /// whole frames the queue had no room for. Empty (and unallocated)
    /// whenever a read ended on a frame boundary.
    rbuf: Vec<u8>,
    /// The last read stopped on saturation, so `rbuf` (and the socket)
    /// may hold input that no future readable event will announce.
    read_cut_short: bool,
    read_on: bool,
    write_on: bool,
    /// Listed in [`Reactor::lingering`].
    lingering: bool,
}

impl Slot {
    /// List the connection (once) for [`Reactor::sweep_lingering`].
    fn watch(&mut self, lingering: &mut Vec<u64>) {
        if !self.lingering {
            self.lingering = true;
            lingering.push(self.conn.token());
        }
    }
}

/// Lazy hashed timer wheel over slot indices.
struct Wheel {
    /// `buckets[tick % len]` holds `(idx, gen)` entries due at `tick`.
    buckets: Vec<Vec<(usize, u32)>>,
    granularity_ms: u64,
    timeout_ticks: u64,
    tick: u64,
}

impl Wheel {
    fn new(timeout: Duration) -> Wheel {
        let timeout_ms = (timeout.as_millis() as u64).max(1);
        let granularity_ms = (timeout_ms / 8).clamp(5, 500);
        let timeout_ticks = timeout_ms.div_ceil(granularity_ms).max(1);
        Wheel {
            buckets: vec![Vec::new(); timeout_ticks as usize + 2],
            granularity_ms,
            timeout_ticks,
            tick: 0,
        }
    }

    /// Park an entry to fire at `due` (clamped into the wheel's span).
    fn schedule(&mut self, idx: usize, gen: u32, due: u64) {
        let len = self.buckets.len() as u64;
        let due = due.clamp(self.tick + 1, self.tick + len - 1);
        self.buckets[(due % len) as usize].push((idx, gen));
    }
}

/// The event loop state. Constructed on the spawning thread (so bind
/// errors surface synchronously), then moved onto the reactor thread.
pub(crate) struct Reactor {
    poller: Poller,
    listener: TcpListener,
    wake_rx: UnixStream,
    db: SharedQuantumDb,
    cfg: ReactorConfig,
    metrics: Arc<ServerMetrics>,
    notifier: Arc<Notifier>,
    shutdown: Arc<AtomicBool>,
    drain: Arc<DrainSignal>,
    job_tx: Sender<Job>,
    registry: Arc<Mutex<Vec<Weak<Conn>>>>,
    role: ConnRole,
    slots: Vec<Option<Slot>>,
    free: Vec<usize>,
    open: usize,
    next_gen: u32,
    wheel: Option<Wheel>,
    started: Instant,
    /// Where every socket read lands. The reactor is one thread and
    /// frames a read before the next, so connections share it and an idle
    /// one owns no buffer; only an unframed tail is copied out, into its
    /// slot's `rbuf`.
    scratch: Box<[u8]>,
    /// Tokens of connections handed more than one frame whose drainer
    /// has not been seen to finish: it may be holding replies back.
    lingering: Vec<u64>,
    last_linger_sweep: Instant,
}

#[allow(clippy::too_many_arguments)] // internal plumbing, one call site
pub(crate) fn new_reactor(
    listener: TcpListener,
    db: SharedQuantumDb,
    cfg: ReactorConfig,
    metrics: Arc<ServerMetrics>,
    notifier: Arc<Notifier>,
    wake_rx: UnixStream,
    shutdown: Arc<AtomicBool>,
    drain: Arc<DrainSignal>,
    job_tx: Sender<Job>,
    registry: Arc<Mutex<Vec<Weak<Conn>>>>,
    role: ConnRole,
) -> io::Result<Reactor> {
    listener.set_nonblocking(true)?;
    let poller = Poller::new()?;
    poller.add(listener.as_raw_fd(), TOKEN_LISTENER, true, false)?;
    poller.add(wake_rx.as_raw_fd(), TOKEN_WAKER, true, false)?;
    let wheel = cfg.idle_timeout.map(Wheel::new);
    Ok(Reactor {
        poller,
        listener,
        wake_rx,
        db,
        cfg,
        metrics,
        notifier,
        shutdown,
        drain,
        job_tx,
        registry,
        role,
        slots: Vec::new(),
        free: Vec::new(),
        open: 0,
        next_gen: 1,
        wheel,
        started: Instant::now(),
        scratch: vec![0; SCRATCH_BYTES].into_boxed_slice(),
        lingering: Vec::new(),
        last_linger_sweep: Instant::now(),
    })
}

impl Reactor {
    /// Current time in wheel ticks (0 when idle reaping is disabled).
    fn now_tick(&self) -> u64 {
        match &self.wheel {
            Some(w) => self.started.elapsed().as_millis() as u64 / w.granularity_ms,
            None => 0,
        }
    }

    pub(crate) fn run(mut self) {
        let mut events: Vec<Event> = Vec::new();
        // Graceful drain: after the signal, the listener is withdrawn
        // and the loop keeps serving until two consecutive passes see no
        // connection activity with every connection finished (queued
        // frames executed, outboxes flushed). Epoll is level-triggered,
        // so bytes already in a socket buffer surface as an event in the
        // intervening wait — quiescence cannot be declared over them.
        let mut draining = false;
        let mut quiescent = 0u32;
        loop {
            if self.shutdown.load(Ordering::SeqCst) {
                break;
            }
            if !draining && self.drain.active() {
                draining = true;
                let _ = self.poller.delete(self.listener.as_raw_fd());
            }
            let timeout_ms = if !self.lingering.is_empty() {
                LINGER_SWEEP.as_millis() as i32
            } else if draining {
                10
            } else {
                match &self.wheel {
                    Some(w) => w.granularity_ms.min(500) as i32,
                    None => 500,
                }
            };
            events.clear();
            if self.poller.wait(&mut events, timeout_ms).is_err() {
                break; // unrecoverable (EBADF etc.); teardown below
            }
            if self.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let mut conn_activity = false;
            for ev in &events {
                match ev.token {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKER => self.drain_waker(),
                    token => {
                        conn_activity = true;
                        self.conn_event(token, ev.readable, ev.writable, ev.hangup);
                    }
                }
            }
            // Kicks are drained every pass, not only on waker events:
            // an executor may have kicked while we were already awake.
            conn_activity |= self.process_kicks();
            self.sweep_lingering();
            self.advance_wheel();
            if draining {
                if self.drain.expired() {
                    break;
                }
                if !conn_activity && self.all_finished() {
                    quiescent += 1;
                    if quiescent >= 2 {
                        break;
                    }
                } else {
                    quiescent = 0;
                }
            }
        }
        self.teardown();
    }

    /// Every live connection has executed its queued frames and flushed
    /// its outbox (idle clients count as finished).
    fn all_finished(&self) -> bool {
        self.slots.iter().flatten().all(|slot| slot.conn.finished())
    }

    // -- accept --------------------------------------------------------

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if self.open >= self.cfg.max_connections {
                        // Admission control: accept-then-close is the only
                        // refusal a TCP listener can express; the client
                        // observes an immediate reset/EOF.
                        self.metrics.connection_refused();
                        drop(stream);
                        continue;
                    }
                    if self.install(stream).is_err() {
                        continue;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                // Transient per-connection failures (ECONNABORTED) and fd
                // exhaustion both land here: stop this round, retry on
                // the next readiness event.
                Err(_) => break,
            }
        }
    }

    fn install(&mut self, stream: TcpStream) -> io::Result<()> {
        stream.set_nonblocking(true)?;
        let _ = stream.set_nodelay(true);
        let idx = match self.free.pop() {
            Some(idx) => idx,
            None => {
                self.slots.push(None);
                self.slots.len() - 1
            }
        };
        let gen = self.next_gen;
        self.next_gen = self.next_gen.wrapping_add(1).max(1);
        let token = conn_token(idx, gen);
        let fd = stream.as_raw_fd();
        let conn = Arc::new(Conn::new(
            stream,
            token,
            qdb_core::Session::with_stmt_cache(self.db.clone(), self.cfg.prepared_cache),
            self.role.clone(),
            Arc::clone(&self.metrics),
            Arc::clone(&self.notifier),
            self.cfg.outbox_limit,
        ));
        if let Err(e) = self.poller.add(fd, token, true, false) {
            self.free.push(idx);
            return Err(e);
        }
        let now = self.now_tick();
        conn.touch(now);
        {
            let mut list = crate::lock(&self.registry);
            list.retain(|w| w.strong_count() > 0); // collect dead entries
            list.push(Arc::downgrade(&conn));
        }
        if let Some(wheel) = &mut self.wheel {
            wheel.schedule(idx, gen, now + wheel.timeout_ticks);
        }
        self.slots[idx] = Some(Slot {
            conn,
            gen,
            rbuf: Vec::new(),
            read_cut_short: false,
            read_on: true,
            write_on: false,
            lingering: false,
        });
        self.open += 1;
        self.metrics.connection();
        Ok(())
    }

    // -- wakeups -------------------------------------------------------

    fn drain_waker(&mut self) {
        let mut sink = [0u8; 64];
        let mut rx = &self.wake_rx;
        while matches!(rx.read(&mut sink), Ok(n) if n > 0) {}
    }

    fn process_kicks(&mut self) -> bool {
        let mut any = false;
        for token in self.notifier.drain() {
            let (idx, gen) = token_parts(token);
            let Some(Some(slot)) = self.slots.get(idx) else {
                continue;
            };
            if slot.gen != gen {
                continue;
            }
            any = true;
            slot.conn.begin_kick();
            self.flush_conn(idx);
            // A resumed read may have buffered frames waiting to decode.
            self.read_conn(idx);
            self.finish_conn_pass(idx);
        }
        any
    }

    // -- per-connection events -----------------------------------------

    fn conn_event(&mut self, token: u64, readable: bool, writable: bool, hangup: bool) {
        let (idx, gen) = token_parts(token);
        match self.slots.get(idx) {
            Some(Some(slot)) if slot.gen == gen => {}
            _ => return, // late event for a recycled slot
        }
        if writable {
            self.flush_conn(idx);
        }
        if readable || hangup {
            self.read_conn(idx);
        }
        self.finish_conn_pass(idx);
    }

    /// Drive the socket's read side: frame what an earlier pass left
    /// buffered, then read and frame, until saturation, a drained socket,
    /// EOF, or error. One read into the shared scratch buffer, one queue
    /// lock and one executor wake-up per pass over a non-saturated
    /// connection, however many frames the read carried.
    fn read_conn(&mut self, idx: usize) {
        let now = self.now_tick();
        let Some(Some(slot)) = self.slots.get_mut(idx) else {
            return;
        };
        let conn = Arc::clone(&slot.conn);
        slot.read_cut_short = false;
        // `0`: nothing read yet, only `rbuf` to frame (the resume path
        // after a pause: no readable event replays bytes already held).
        let mut fresh = 0;
        loop {
            // 1. Frame straight out of the scratch buffer when nothing
            //    older is held; otherwise behind the held tail.
            if fresh > 0 || !slot.rbuf.is_empty() {
                let held = !slot.rbuf.is_empty();
                let framed = if held {
                    slot.rbuf.extend_from_slice(&self.scratch[..fresh]);
                    conn.enqueue_from(&slot.rbuf)
                } else {
                    conn.enqueue_from(&self.scratch[..fresh])
                };
                let Ok(framed) = framed else {
                    // A corrupt length prefix is unrecoverable: no resync
                    // point exists in the stream.
                    conn.mark_dead();
                    break;
                };
                if held {
                    slot.rbuf.drain(..framed.consumed);
                } else {
                    slot.rbuf
                        .extend_from_slice(&self.scratch[framed.consumed..fresh]);
                }
                if framed.schedule {
                    let _ = self.job_tx.send(Job::Conn(Arc::clone(&conn)));
                }
                if framed.pipelined {
                    slot.watch(&mut self.lingering);
                }
                if framed.full {
                    slot.read_cut_short = true;
                    break;
                }
            }
            // 2. Saturated? Stop reading; `finish_conn_pass` drops the
            //    read interest (explicit backpressure) — or comes straight
            //    back here if the pressure is gone by the time it looks.
            //    (A full queue shows above, one read late: the frames it
            //    had no room for wait in `rbuf`.)
            if conn.outbox_len() >= self.cfg.outbox_limit {
                slot.read_cut_short = true;
                break;
            }
            // 3. A read that did not fill the buffer drained the socket:
            //    level-triggered epoll announces whatever arrives later,
            //    so no second read is spent on learning `WouldBlock`.
            if fresh > 0 && fresh < self.scratch.len() {
                break;
            }
            self.metrics.socket_read();
            let mut stream = conn.stream();
            fresh = match stream.read(&mut self.scratch) {
                Ok(0) => {
                    conn.set_peer_eof();
                    break;
                }
                Ok(n) => {
                    conn.touch(now);
                    n
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => 0,
                Err(_) => {
                    conn.mark_dead();
                    break;
                }
            };
        }
        // A connection whose input ended on a frame boundary holds no
        // read buffer at all.
        if slot.rbuf.is_empty() && slot.rbuf.capacity() > 0 {
            slot.rbuf = Vec::new();
        }
        conn.set_rbuf_bytes(slot.rbuf.capacity());
    }

    /// Write out replies a drainer has held through two sweeps: it applies
    /// the flush rule between statements, so a reply encoded just before a
    /// long statement would otherwise wait for it.
    fn sweep_lingering(&mut self) {
        if self.lingering.is_empty() || self.last_linger_sweep.elapsed() < LINGER_SWEEP {
            return;
        }
        self.last_linger_sweep = Instant::now();
        let mut i = 0;
        while i < self.lingering.len() {
            let (idx, gen) = token_parts(self.lingering[i]);
            let (stale, draining) = match self.slots.get(idx) {
                Some(Some(slot)) if slot.gen == gen => slot.conn.sweep(),
                _ => (false, false), // connection already gone
            };
            if stale {
                self.flush_conn(idx);
                self.finish_conn_pass(idx);
            }
            if draining {
                i += 1;
                continue;
            }
            self.lingering.swap_remove(i);
            if let Some(Some(slot)) = self.slots.get_mut(idx) {
                if slot.gen == gen {
                    slot.lingering = false;
                }
            }
        }
    }

    fn flush_conn(&mut self, idx: usize) {
        let Some(Some(slot)) = self.slots.get_mut(idx) else {
            return;
        };
        let conn = Arc::clone(&slot.conn);
        if conn.flush() {
            // The drainer resumes over whatever queued up meanwhile.
            slot.watch(&mut self.lingering);
            let _ = self.job_tx.send(Job::Conn(conn));
        }
    }

    /// Close-or-retune epilogue run after any activity on a slot.
    ///
    /// Pausing reads hands the wake-up to the drainers: they kick when
    /// they see the pause flag and a queue with room. So the pause is
    /// decided under the queue lock ([`Conn::decide_read_paused`]), and a
    /// connection found *not* saturated after its read was cut short is
    /// read again on the spot — the drainers that relieved it saw no flag
    /// and will not kick, and level-triggered epoll stays silent about
    /// bytes already sitting in `rbuf`.
    fn finish_conn_pass(&mut self, idx: usize) {
        loop {
            let Some(Some(slot)) = self.slots.get_mut(idx) else {
                return;
            };
            let conn = Arc::clone(&slot.conn);
            if conn.dead() || (conn.peer_eof() && conn.finished()) {
                self.close_conn(idx, false);
                return;
            }
            let (paused, outbox_len) = conn.decide_read_paused();
            let want_read = !paused && !conn.peer_eof();
            if want_read && slot.read_cut_short {
                self.read_conn(idx);
                continue;
            }
            let want_write = outbox_len > 0;
            if slot.read_on != want_read || slot.write_on != want_write {
                slot.read_on = want_read;
                slot.write_on = want_write;
                let (fd, token) = (conn.stream().as_raw_fd(), conn.token());
                if self
                    .poller
                    .modify(fd, token, want_read, want_write)
                    .is_err()
                {
                    conn.mark_dead();
                    self.close_conn(idx, false);
                }
            }
            return;
        }
    }

    fn close_conn(&mut self, idx: usize, idle: bool) {
        let Some(entry) = self.slots.get_mut(idx) else {
            return;
        };
        let Some(slot) = entry.take() else {
            return;
        };
        let _ = self.poller.delete(slot.conn.stream().as_raw_fd());
        slot.conn.close();
        self.free.push(idx);
        self.open -= 1;
        self.metrics.connection_closed();
        if idle {
            self.metrics.connection_idle_closed();
        }
        // The fd itself closes when the last Arc<Conn> drops (a worker
        // may still hold one mid-drain; its writes are discarded).
    }

    // -- idle reaping --------------------------------------------------

    fn advance_wheel(&mut self) {
        let Some(mut wheel) = self.wheel.take() else {
            return;
        };
        let now = self.started.elapsed().as_millis() as u64 / wheel.granularity_ms;
        let len = wheel.buckets.len() as u64;
        while wheel.tick < now {
            wheel.tick += 1;
            let bucket = std::mem::take(&mut wheel.buckets[(wheel.tick % len) as usize]);
            for (idx, gen) in bucket {
                match self.slots.get(idx) {
                    Some(Some(slot)) if slot.gen == gen => {}
                    _ => continue, // connection already gone
                }
                let conn = Arc::clone(&self.slots[idx].as_ref().unwrap().conn);
                let due = conn.last_active() + wheel.timeout_ticks;
                if due <= wheel.tick {
                    self.close_conn(idx, true);
                } else {
                    wheel.schedule(idx, gen, due);
                }
            }
        }
        self.wheel = Some(wheel);
    }

    // -- shutdown ------------------------------------------------------

    fn teardown(&mut self) {
        for entry in &mut self.slots {
            if let Some(slot) = entry.take() {
                let _ = self.poller.delete(slot.conn.stream().as_raw_fd());
                slot.conn.close();
                self.metrics.connection_closed();
            }
        }
        self.open = 0;
    }
}
