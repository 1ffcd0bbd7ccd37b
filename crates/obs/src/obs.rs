//! The shared observability handle the engine records through.
//!
//! One [`Obs`] lives behind an `Arc` inside `QuantumDb` and moves into
//! `Core` on `into_shared()`, so the engine (and the WAL and solver
//! beneath it) all record into the same histograms and the same flight
//! recorder.
//!
//! Operations are bracketed by [`Obs::begin_op`] / [`Obs::finish_op`]
//! (the `execute_stmt` chokepoint). A statement parsed from text opens
//! its op at the parse's start instead ([`Obs::begin_op_led`]), so the
//! parse — timed before the statement's class is known — is the first
//! span of its tree. Between the brackets, every phase
//! ended with [`Obs::span`] appends an event to a thread-local collector,
//! so a finished operation carries its full span tree: the statement root
//! plus each timed phase with its start offset. `finish_op` publishes the
//! tree to the flight recorder as one run, and the JSONL trace sink, when
//! installed, exports it as one line.
//!
//! A statement's price is fixed: one [`Stamp`] per phase boundary (one
//! `rdtsc` on a CPU with an invariant TSC; `src/clock.rs`), relaxed
//! histogram adds and one ring claim — no mutex, no allocation (the
//! collector's buffer is reused), no `SeqCst` store. A lock found free
//! ([`Obs::wait`]) reads no stamp; a disabled handle reads none.

use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, PoisonError};

use crate::clock::{Clock, Stamp, StampSource};
use crate::histogram::{HistSummary, Histogram};
use crate::ring::{EventRing, SpanEvent};
use crate::{kind_name, Outcome, Phase, PHASES, PHASE_COUNT, STMT_CLASSES, STMT_CODE_BASE};

/// Per-class and per-phase latency summaries — the payload of
/// `SHOW PROFILE` and the wire PROFILE frame.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ProfileReport {
    /// Per-statement-class summaries, sorted by class name.
    pub classes: Vec<(String, HistSummary)>,
    /// Per-engine-phase summaries (only phases with observations).
    pub phases: Vec<(String, HistSummary)>,
}

impl std::fmt::Display for ProfileReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{:<24} {:>10} {:>12} {:>12} {:>12} {:>12} {:>12}",
            "class", "count", "p50_us", "p90_us", "p99_us", "p999_us", "max_us"
        )?;
        let row = |f: &mut std::fmt::Formatter<'_>, name: &str, s: &HistSummary| {
            writeln!(
                f,
                "{:<24} {:>10} {:>12.1} {:>12.1} {:>12.1} {:>12.1} {:>12.1}",
                name,
                s.count,
                HistSummary::us(s.p50_ns),
                HistSummary::us(s.p90_ns),
                HistSummary::us(s.p99_ns),
                HistSummary::us(s.p999_ns),
                HistSummary::us(s.max_ns),
            )
        };
        for (name, s) in &self.classes {
            row(f, name, s)?;
        }
        writeln!(f, "{:<24} --", "phase")?;
        for (name, s) in &self.phases {
            row(f, name, s)?;
        }
        Ok(())
    }
}

/// Token returned by [`Obs::begin_op`]; hand it back to
/// [`Obs::finish_op`] when the operation completes.
#[derive(Debug)]
pub struct OpToken {
    /// Index into [`STMT_CLASSES`].
    class: usize,
    /// The op's start; empty when recording was off at begin time.
    start: Stamp,
    /// Owns the thread's span collector (false when nested in another op).
    collecting: bool,
}

/// A phase timed before the op it belongs to: a statement's parse, which
/// ends before the statement's class is known. [`Obs::lead`] ends it into
/// its histogram; [`Obs::begin_op_led`] then opens the op at the phase's
/// start, with the phase as its first span.
#[derive(Debug, Clone, Copy)]
pub struct Lead {
    phase: Phase,
    start: Stamp,
    end: Stamp,
}

thread_local! {
    /// The collector for the op executing on this thread. Its buffer is
    /// kept across ops, so a warm thread allocates nothing to record one.
    static OP: std::cell::RefCell<OpCtx> = const {
        std::cell::RefCell::new(OpCtx { active: false, events: Vec::new() })
    };
}

/// Whether a collected op runs on this thread, and its phase events.
struct OpCtx {
    active: bool,
    events: Vec<SpanEvent>,
}

/// The observability layer: per-class and per-phase histograms, the
/// flight-recorder ring and the optional JSONL trace sink, all behind one
/// lock-free-on-the-hot-path handle.
pub struct Obs {
    enabled: AtomicBool,
    clock: Clock,
    phases: [Histogram; PHASE_COUNT],
    /// Indexed like [`STMT_CLASSES`].
    classes: [Histogram; STMT_CLASSES.len()],
    ring: EventRing,
    /// `trace` holds a sink; read per op instead of the mutex.
    traced: AtomicBool,
    trace: Mutex<Option<Box<dyn Write + Send>>>,
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs")
            .field("enabled", &self.enabled.load(Ordering::Relaxed))
            .field("stamps", &self.clock.source())
            .field("ring_pushed", &self.ring.pushed())
            .field("traced", &self.traced.load(Ordering::Relaxed))
            .finish()
    }
}

impl Default for Obs {
    fn default() -> Self {
        Obs::new()
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Obs {
    /// A fresh, enabled handle with the default flight-recorder depth,
    /// stamping with the CPU's clock (`src/clock.rs`). The process's
    /// first handle calibrates that clock and fixes the trace epoch.
    pub fn new() -> Obs {
        Obs::with_clock(Clock::detect())
    }

    /// A handle stamping with `source` whatever the CPU offers, or `None`
    /// where it does not exist (the TSC off x86-64). Test support: it holds
    /// both sources to one contract; the engine's handle is [`Obs::new`].
    pub fn with_stamp_source(source: StampSource) -> Option<Obs> {
        Clock::of(source).map(Obs::with_clock)
    }

    fn with_clock(clock: Clock) -> Obs {
        Obs {
            enabled: AtomicBool::new(true),
            clock,
            phases: std::array::from_fn(|_| Histogram::new()),
            classes: std::array::from_fn(|_| Histogram::new()),
            ring: EventRing::new(EventRing::DEFAULT_CAPACITY),
            traced: AtomicBool::new(false),
            trace: Mutex::new(None),
        }
    }

    /// Turn recording on or off (off: every record call is one relaxed
    /// load and no stamp read). Used by the bench overhead A/B.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether recording is on.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Install (or clear) the JSONL trace sink; every finished operation
    /// is written as one line (see `docs/OBSERVABILITY.md`).
    pub fn set_trace(&self, sink: Option<Box<dyn Write + Send>>) {
        self.traced.store(sink.is_some(), Ordering::Relaxed);
        *lock(&self.trace) = sink;
    }

    // ---- recording ------------------------------------------------------

    /// Begin an operation of statement class `class`, an index into
    /// [`STMT_CLASSES`] (`Statement::class()`): one stamp, and the
    /// thread-local span collector armed. Reads nothing when disabled.
    pub fn begin_op(&self, class: usize) -> OpToken {
        let start = self.start();
        let collecting = start.0.is_some()
            && OP.with(|cell| !std::mem::replace(&mut cell.borrow_mut().active, true));
        OpToken {
            class,
            start,
            collecting,
        }
    }

    /// [`Obs::begin_op`] for an op whose first phase, `lead`, ran before
    /// it: the op starts at the lead's start, and the lead is its first
    /// span. Reads no stamp; an op whose lead was timed with recording off
    /// is not recorded.
    pub fn begin_op_led(&self, class: usize, lead: Lead) -> OpToken {
        let collecting = match (lead.start.0, lead.end.0) {
            (Some(t0), Some(t1)) => {
                let (ts_ns, end_ns) = (self.clock.ns(t0), self.clock.ns(t1));
                let event = SpanEvent {
                    ts_ns,
                    txn_id: SpanEvent::NONE,
                    partition_id: SpanEvent::NONE,
                    kind: lead.phase as u8,
                    outcome: Outcome::Ok,
                    dur_ns: end_ns.saturating_sub(ts_ns),
                };
                OP.with(|cell| {
                    let ctx = &mut *cell.borrow_mut();
                    let collecting = !std::mem::replace(&mut ctx.active, true);
                    ctx.events.push(event);
                    collecting
                })
            }
            _ => false,
        };
        OpToken {
            class,
            start: lead.start,
            collecting,
        }
    }

    /// Finish an operation: records the class histogram, publishes the
    /// phase events and the root to the flight recorder as one run, and
    /// writes the JSONL trace line when a sink is installed.
    pub fn finish_op(&self, token: OpToken, outcome: Outcome, txn_id: Option<u64>) {
        let Some((ts_ns, dur_ns)) = self.elapsed(token.start) else {
            return;
        };
        self.classes[token.class].record(dur_ns);
        let traced = self.traced.load(Ordering::Relaxed);
        let root = SpanEvent {
            ts_ns,
            txn_id: txn_id.unwrap_or(SpanEvent::NONE),
            partition_id: SpanEvent::NONE,
            kind: STMT_CODE_BASE + token.class as u8,
            outcome,
            dur_ns,
        };
        let line = if token.collecting {
            OP.with(|cell| {
                let ctx = &mut *cell.borrow_mut();
                ctx.active = false;
                ctx.events.push(root);
                self.ring.push(&ctx.events);
                let line = traced.then(|| trace_line(&ctx.events));
                ctx.events.clear();
                ctx.events.shrink_to(self.ring.capacity()); // after a giant op
                line
            })
        } else {
            self.ring.push(&[root]);
            traced.then(|| trace_line(&[root]))
        };
        if let Some(line) = line {
            if let Some(sink) = lock(&self.trace).as_mut() {
                let _ = sink.write_all(line.as_bytes());
                let _ = sink.flush();
            }
        }
    }

    /// Start a phase: a stamp, read only when recording is on. End it
    /// with [`Obs::span`] or [`Obs::observe`].
    #[inline]
    pub fn start(&self) -> Stamp {
        Stamp(self.enabled().then(|| self.clock.read()))
    }

    /// `start`'s offset from the epoch and the nanoseconds since it, off
    /// one more stamp; `None` for the empty stamp of a disabled handle.
    #[inline]
    fn elapsed(&self, start: Stamp) -> Option<(u64, u64)> {
        let t0 = self.clock.ns(start.0?);
        let t1 = self.clock.ns(self.clock.read());
        Some((t0, t1.saturating_sub(t0)))
    }

    /// End a phase begun at `start`: one stamp feeds the phase histogram
    /// and, inside a collected op, the op's span tree and its
    /// flight-recorder run.
    pub fn span(&self, phase: Phase, start: Stamp) {
        let Some((ts_ns, dur_ns)) = self.elapsed(start) else {
            return;
        };
        self.phases[phase as usize].record(dur_ns);
        OP.with(|cell| {
            let ctx = &mut *cell.borrow_mut();
            if ctx.active {
                ctx.events.push(SpanEvent {
                    ts_ns,
                    txn_id: SpanEvent::NONE,
                    partition_id: SpanEvent::NONE,
                    kind: phase as u8,
                    outcome: Outcome::Ok,
                    dur_ns,
                });
            }
        });
    }

    /// End a phase that runs before the op it belongs to into its
    /// histogram, and keep its stamps for [`Obs::begin_op_led`]. One stamp,
    /// none for the empty stamp of a disabled handle.
    pub fn lead(&self, phase: Phase, start: Stamp) -> Lead {
        let end = Stamp(start.0.map(|_| self.clock.read()));
        if let (Some(t0), Some(t1)) = (start.0, end.0) {
            let dur_ns = self.clock.ns(t1).saturating_sub(self.clock.ns(t0));
            self.phases[phase as usize].record(dur_ns);
        }
        Lead { phase, start, end }
    }

    /// End a phase begun at `start` into its histogram only — no span, no
    /// event — for phases that nest inside others or repeat per statement.
    pub fn observe(&self, phase: Phase, start: Stamp) {
        if let Some((_, dur_ns)) = self.elapsed(start) {
            self.phases[phase as usize].record(dur_ns);
        }
    }

    /// Take a lock, recording the wait as `phase`: `try_take` first, and
    /// only when it fails the timed `take`. A lock found free is a zero
    /// observation with no stamp, span or event.
    pub fn wait<G>(
        &self,
        phase: Phase,
        try_take: impl FnOnce() -> Option<G>,
        take: impl FnOnce() -> G,
    ) -> G {
        if let Some(guard) = try_take() {
            if self.enabled() {
                self.phases[phase as usize].record(0);
            }
            return guard;
        }
        let t0 = self.start();
        let guard = take();
        self.span(phase, t0);
        guard
    }

    // ---- reading --------------------------------------------------------

    /// The histogram for a statement class, by name.
    ///
    /// # Panics
    ///
    /// If `class` is not one of [`STMT_CLASSES`].
    pub fn class_histogram(&self, class: &str) -> &Histogram {
        let i = crate::stmt_class(class).unwrap_or_else(|| panic!("no statement class {class:?}"));
        &self.classes[i]
    }

    /// The histogram for an engine phase.
    pub fn phase_histogram(&self, phase: Phase) -> &Histogram {
        &self.phases[phase as usize]
    }

    /// Per-class and per-phase summaries. Classes are sorted by name,
    /// phases appear in `repr` order; either is listed only once it has an
    /// observation.
    pub fn profile(&self) -> ProfileReport {
        let seen = |name: &str, s: HistSummary| (s.count > 0).then(|| (name.to_string(), s));
        let mut classes: Vec<_> = (STMT_CLASSES.iter().zip(&self.classes))
            .filter_map(|(name, h)| seen(name, h.summary()))
            .collect();
        classes.sort_by(|a, b| a.0.cmp(&b.0));
        let phases = PHASES
            .iter()
            .filter_map(|p| seen(p.name(), self.phases[*p as usize].summary()))
            .collect();
        ProfileReport { classes, phases }
    }

    /// The most recent `limit` flight-recorder events, oldest first.
    pub fn events(&self, limit: usize) -> Vec<SpanEvent> {
        self.ring.recent(limit)
    }

    /// Clear the histograms — used by `reset_metrics` so profiles restart
    /// alongside counters. The flight recorder is history, not a tally: it
    /// survives a reset, so `SHOW EVENTS` still returns pre-reset events.
    pub fn reset(&self) {
        for h in self.phases.iter().chain(&self.classes) {
            h.reset();
        }
    }
}

/// Minimal JSON string escaping (quotes, backslash, control bytes).
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render one operation as a JSONL trace line (newline-terminated) from
/// its collected events: the phase spans in order, then the root.
fn trace_line(events: &[SpanEvent]) -> String {
    let (root, spans) = events
        .split_last()
        .expect("an op's events end with its root");
    let mut line = format!(
        "{{\"ts_ns\":{},\"class\":\"{}\",\"txn\":{},\"outcome\":\"{}\",\"dur_ns\":{},\"spans\":[",
        root.ts_ns,
        escape_json(kind_name(root.kind)),
        if root.txn_id == SpanEvent::NONE {
            -1i64
        } else {
            root.txn_id as i64
        },
        root.outcome.name(),
        root.dur_ns,
    );
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        line.push_str(&format!(
            "{{\"phase\":\"{}\",\"start_ns\":{},\"dur_ns\":{}}}",
            kind_name(s.kind),
            s.ts_ns.saturating_sub(root.ts_ns),
            s.dur_ns
        ));
    }
    line.push_str("]}\n");
    line
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stmt_code;
    use std::sync::Arc;

    fn class(name: &str) -> usize {
        crate::stmt_class(name).unwrap()
    }

    /// A `Write` sink tests can inspect.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            lock(&self.0).extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn op_bracketing_records_class_and_phase_histograms() {
        let obs = Obs::new();
        let token = obs.begin_op(class("SELECT"));
        obs.span(Phase::Parse, obs.start());
        obs.span(Phase::WorldEnum, obs.start());
        obs.finish_op(token, Outcome::Ok, None);
        let report = obs.profile();
        assert_eq!(report.classes.len(), 1);
        assert_eq!(report.classes[0].0, "SELECT");
        assert_eq!(report.classes[0].1.count, 1);
        let phases: Vec<&str> = report.phases.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(phases, vec!["parse", "world_enum"]);
        // Root + two phase events in the flight recorder.
        let events = obs.events(10);
        assert_eq!(events.len(), 3);
        assert_eq!(events[2].kind, stmt_code("SELECT"));
        assert_eq!(events[0].kind, Phase::Parse as u8);
    }

    #[test]
    fn disabled_handle_records_nothing() {
        let obs = Obs::new();
        obs.set_enabled(false);
        let token = obs.begin_op(class("INSERT"));
        obs.span(Phase::Apply, obs.start());
        obs.finish_op(token, Outcome::Ok, None);
        assert!(obs.profile().classes.is_empty());
        assert!(obs.profile().phases.is_empty());
        assert!(obs.events(10).is_empty());
    }

    /// Install a trace sink and return what it received so far.
    fn traced(obs: &Obs) -> impl Fn() -> String {
        let buf = SharedBuf::default();
        obs.set_trace(Some(Box::new(buf.clone())));
        move || String::from_utf8(lock(&buf.0).clone()).unwrap()
    }

    #[test]
    fn trace_sink_receives_each_op_with_its_span_tree() {
        let obs = Obs::new();
        let text = traced(&obs);
        let token = obs.begin_op(class("SELECT … CHOOSE 1"));
        obs.span(Phase::Solve, obs.start());
        obs.finish_op(token, Outcome::Ok, Some(42));
        let line = text();
        assert!(line.contains("\"class\":\"SELECT … CHOOSE 1\""), "{line}");
        assert!(line.contains("\"txn\":42,"), "{line}");
        assert_eq!(line.matches("\"phase\":").count(), 1, "{line}");
        assert!(line.contains("\"spans\":[{\"phase\":\"solve\",\"start_ns\":"));
        let start: u64 = (line.split("\"start_ns\":").nth(1))
            .and_then(|rest| rest.split(',').next()?.parse().ok())
            .expect("a start offset");
        let total: u64 = (line.split("\"dur_ns\":").nth(1))
            .and_then(|rest| rest.split(',').next()?.parse().ok())
            .expect("the op's duration");
        assert!(start <= total, "the phase starts inside its op: {line}");
    }

    #[test]
    fn each_op_is_one_newline_terminated_trace_line() {
        let obs = Obs::new();
        let text = traced(&obs);
        for _ in 0..2 {
            let token = obs.begin_op(class("GROUND ALL"));
            obs.span(Phase::Apply, obs.start());
            obs.finish_op(token, Outcome::Ok, None);
        }
        let text = text();
        assert!(text.ends_with("]}\n"), "JSONL line is newline-terminated");
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("\"class\":\"GROUND ALL\",\"txn\":-1,"));
        assert!(text.contains("\"phase\":\"apply\""));
        assert!(text.contains("\"start_ns\":"));
    }

    #[test]
    fn profile_display_renders_a_table() {
        let obs = Obs::new();
        let token = obs.begin_op(class("SELECT"));
        obs.span(Phase::Parse, obs.start());
        obs.finish_op(token, Outcome::Ok, None);
        let text = obs.profile().to_string();
        assert!(text.contains("class"));
        assert!(text.contains("SELECT"));
        assert!(text.contains("parse"));
        assert!(text.contains("p999_us"));
    }

    #[test]
    fn reset_clears_histograms_and_keeps_the_flight_recorder() {
        let obs = Obs::new();
        let token = obs.begin_op(class("DELETE"));
        obs.span(Phase::Apply, obs.start());
        obs.finish_op(token, Outcome::Ok, None);
        obs.reset();
        let report = obs.profile();
        assert!(report.phases.is_empty());
        assert!(report.classes.is_empty(), "a zeroed class is not listed");
        let events = obs.events(10);
        assert_eq!(events.len(), 2, "the flight recorder survives a reset");
        assert_eq!(events[1].kind, stmt_code("DELETE"));
    }

    #[test]
    fn escape_json_handles_quotes_and_control_bytes() {
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
        assert_eq!(escape_json("SELECT … CHOOSE 1"), "SELECT … CHOOSE 1");
    }
}
