//! The shared observability handle both engines record through.
//!
//! One [`Obs`] lives behind an `Arc` inside `QuantumDb` and moves into
//! `Core` on `into_shared()`, so the single-threaded and sharded engines
//! (and the WAL and solver beneath them) all record into the same
//! histograms and the same flight recorder. Recording is designed to cost
//! almost nothing when idle: a disabled handle is one relaxed load per
//! call, and an enabled one is a handful of atomic adds.
//!
//! Operations are bracketed by [`Obs::begin_op`] / [`Obs::finish_op`]
//! (the `execute_stmt` chokepoint in both engines). Between the brackets,
//! every [`Obs::phase`] call appends a child span to a thread-local
//! collector, so a finished operation carries its full span tree: the
//! statement root plus each timed phase with its start offset. The tree
//! is what the slow-op log retains and the JSONL trace sink exports.

use std::collections::{BTreeMap, VecDeque};
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

use crate::histogram::{HistSummary, Histogram};
use crate::ring::{EventRing, SpanEvent};
use crate::{now_ns, stmt_code, Outcome, Phase, PHASES, PHASE_COUNT};

/// How many slow operations the slow-op log retains (oldest evicted).
pub const SLOW_LOG_CAPACITY: usize = 64;

/// One timed phase inside an operation's span tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanNode {
    /// Which phase ran.
    pub phase: Phase,
    /// Start offset from the operation's start, nanoseconds.
    pub start_ns: u64,
    /// Phase duration, nanoseconds.
    pub dur_ns: u64,
}

/// A retained over-threshold operation: the root span plus its phase
/// children — a full (depth-2) span tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlowOp {
    /// Statement class (`Statement::kind()`).
    pub class: &'static str,
    /// Monotonic start timestamp ([`now_ns`]).
    pub ts_ns: u64,
    /// Transaction id, if the op produced/affected one (`u64::MAX` none).
    pub txn_id: u64,
    /// Total operation duration, nanoseconds.
    pub total_ns: u64,
    /// How the operation ended.
    pub outcome: Outcome,
    /// Timed phases in execution order.
    pub spans: Vec<SpanNode>,
}

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
    class: &'static str,
    start: Instant,
    ts_ns: u64,
    /// Recording was enabled at begin time.
    active: bool,
    /// This token owns the thread-local span collector (false when the op
    /// is nested inside another collected op).
    collecting: bool,
}

thread_local! {
    /// Span collector for the operation currently executing on this
    /// thread; `None` when no collected op is active.
    static OP_SPANS: std::cell::RefCell<Option<OpCtx>> = const { std::cell::RefCell::new(None) };
}

/// Thread-local per-op context: start anchor and collected child spans.
#[derive(Debug)]
struct OpCtx {
    start_ns: u64,
    txn_id: u64,
    spans: Vec<SpanNode>,
}

/// The observability layer: per-class and per-phase histograms, the
/// flight-recorder ring, the slow-op log and the optional JSONL trace
/// sink, all behind one lock-free-on-the-hot-path handle.
pub struct Obs {
    enabled: AtomicBool,
    phases: [Histogram; PHASE_COUNT],
    classes: Mutex<BTreeMap<&'static str, std::sync::Arc<Histogram>>>,
    ring: EventRing,
    slow_threshold_ns: AtomicU64,
    slow: Mutex<VecDeque<SlowOp>>,
    trace: Mutex<Option<Box<dyn Write + Send>>>,
    /// Test hook: artificial delay appended to every operation, so tests
    /// can force an op over the slow threshold deterministically.
    test_delay_ns: AtomicU64,
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs")
            .field("enabled", &self.enabled.load(Ordering::Relaxed))
            .field("ring_pushed", &self.ring.pushed())
            .field(
                "slow_threshold_ns",
                &self.slow_threshold_ns.load(Ordering::Relaxed),
            )
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
    /// A fresh, enabled handle with the default flight-recorder depth.
    pub fn new() -> Obs {
        Obs::with_ring_capacity(EventRing::DEFAULT_CAPACITY)
    }

    /// A fresh, enabled handle with an explicit ring capacity.
    pub fn with_ring_capacity(capacity: usize) -> Obs {
        Obs {
            enabled: AtomicBool::new(true),
            phases: std::array::from_fn(|_| Histogram::new()),
            classes: Mutex::new(BTreeMap::new()),
            ring: EventRing::new(capacity),
            slow_threshold_ns: AtomicU64::new(0),
            slow: Mutex::new(VecDeque::new()),
            trace: Mutex::new(None),
            test_delay_ns: AtomicU64::new(0),
        }
    }

    /// Turn recording on or off (off: every record call is one relaxed
    /// load). Used by the bench overhead A/B.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether recording is on.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Set the slow-op threshold (0 disables the slow-op log).
    pub fn set_slow_threshold_us(&self, us: u64) {
        self.slow_threshold_ns
            .store(us.saturating_mul(1_000), Ordering::Relaxed);
    }

    /// Install (or clear) the JSONL trace sink; every finished operation
    /// is written as one line (see `docs/OBSERVABILITY.md`).
    pub fn set_trace(&self, sink: Option<Box<dyn Write + Send>>) {
        *lock(&self.trace) = sink;
    }

    /// Test hook: sleep this long at the end of every operation, forcing
    /// it over the slow threshold.
    pub fn set_test_delay_us(&self, us: u64) {
        self.test_delay_ns
            .store(us.saturating_mul(1_000), Ordering::Relaxed);
    }

    // ---- recording ------------------------------------------------------

    /// Begin an operation of the given statement class. Cheap when
    /// disabled; otherwise arms the thread-local span collector.
    pub fn begin_op(&self, class: &'static str) -> OpToken {
        let active = self.enabled();
        let ts_ns = if active { now_ns() } else { 0 };
        let mut collecting = false;
        if active {
            OP_SPANS.with(|cell| {
                let mut slot = cell.borrow_mut();
                if slot.is_none() {
                    *slot = Some(OpCtx {
                        start_ns: ts_ns,
                        txn_id: SpanEvent::NONE,
                        spans: Vec::with_capacity(8),
                    });
                    collecting = true;
                }
            });
        }
        OpToken {
            class,
            start: Instant::now(),
            ts_ns,
            active,
            collecting,
        }
    }

    /// Finish an operation: records the class histogram, pushes the root
    /// span into the flight recorder, promotes the span tree to the
    /// slow-op log when over threshold, and writes the JSONL trace line
    /// when a sink is installed.
    pub fn finish_op(&self, token: OpToken, outcome: Outcome, txn_id: Option<u64>) {
        let delay = self.test_delay_ns.load(Ordering::Relaxed);
        if delay > 0 {
            std::thread::sleep(Duration::from_nanos(delay));
        }
        if !token.active {
            return;
        }
        let dur_ns = u64::try_from(token.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let ctx = if token.collecting {
            OP_SPANS.with(|cell| cell.borrow_mut().take())
        } else {
            None
        };
        let txn = txn_id
            .or_else(|| {
                ctx.as_ref()
                    .map(|c| c.txn_id)
                    .filter(|t| *t != SpanEvent::NONE)
            })
            .unwrap_or(SpanEvent::NONE);
        self.class_histogram(token.class).record(dur_ns);
        self.ring.push(SpanEvent {
            ts_ns: token.ts_ns,
            txn_id: txn,
            partition_id: SpanEvent::NONE,
            kind: stmt_code(token.class),
            outcome,
            dur_ns,
        });
        let spans = ctx.map(|c| c.spans).unwrap_or_default();
        let threshold = self.slow_threshold_ns.load(Ordering::Relaxed);
        let slow = threshold > 0 && dur_ns >= threshold;
        let traced = {
            // Cheap peek: only render JSON when a sink is installed.
            lock(&self.trace).is_some()
        };
        if !slow && !traced {
            return;
        }
        let op = SlowOp {
            class: token.class,
            ts_ns: token.ts_ns,
            txn_id: txn,
            total_ns: dur_ns,
            outcome,
            spans,
        };
        if traced {
            let line = trace_line(&op);
            if let Some(sink) = lock(&self.trace).as_mut() {
                let _ = sink.write_all(line.as_bytes());
                let _ = sink.flush();
            }
        }
        if slow {
            let mut log = lock(&self.slow);
            if log.len() >= SLOW_LOG_CAPACITY {
                log.pop_front();
            }
            log.push_back(op);
        }
    }

    /// Record a timed engine phase. Always feeds the phase histogram;
    /// when an operation is being collected on this thread, also appends
    /// a child span and a flight-recorder event.
    pub fn phase(&self, phase: Phase, dur: Duration) {
        self.phase_at(phase, dur, SpanEvent::NONE);
    }

    /// [`Obs::phase`] with a partition id attached to the ring event.
    pub fn phase_at(&self, phase: Phase, dur: Duration, partition_id: u64) {
        if !self.enabled() {
            return;
        }
        let dur_ns = u64::try_from(dur.as_nanos()).unwrap_or(u64::MAX);
        self.phases[phase as usize].record(dur_ns);
        OP_SPANS.with(|cell| {
            if let Some(ctx) = cell.borrow_mut().as_mut() {
                let end = now_ns();
                let start_ns = end.saturating_sub(dur_ns).saturating_sub(ctx.start_ns);
                ctx.spans.push(SpanNode {
                    phase,
                    start_ns,
                    dur_ns,
                });
                self.ring.push(SpanEvent {
                    ts_ns: end.saturating_sub(dur_ns),
                    txn_id: ctx.txn_id,
                    partition_id,
                    kind: phase as u8,
                    outcome: Outcome::Ok,
                    dur_ns,
                });
            }
        });
    }

    /// Run `f` and record its wall time as `phase`.
    pub fn time<R>(&self, phase: Phase, f: impl FnOnce() -> R) -> R {
        if !self.enabled() {
            return f();
        }
        let t0 = Instant::now();
        let r = f();
        self.phase(phase, t0.elapsed());
        r
    }

    /// Tag the operation currently collected on this thread with a
    /// transaction id (picked up by subsequent ring events and the root).
    pub fn set_txn(&self, txn_id: u64) {
        if !self.enabled() {
            return;
        }
        OP_SPANS.with(|cell| {
            if let Some(ctx) = cell.borrow_mut().as_mut() {
                ctx.txn_id = txn_id;
            }
        });
    }

    // ---- reading --------------------------------------------------------

    /// The shared histogram for a statement class (created on first use).
    pub fn class_histogram(&self, class: &'static str) -> std::sync::Arc<Histogram> {
        let mut map = lock(&self.classes);
        map.entry(class).or_default().clone()
    }

    /// The histogram for an engine phase.
    pub fn phase_histogram(&self, phase: Phase) -> &Histogram {
        &self.phases[phase as usize]
    }

    /// Per-class and per-phase summaries. Classes are sorted by name,
    /// phases appear in `repr` order; either is listed only once it has an
    /// observation (`finish_op` creates a class's histogram a moment before
    /// recording into it, and `reset` zeroes without removing).
    pub fn profile(&self) -> ProfileReport {
        let seen = |name: &str, s: HistSummary| (s.count > 0).then(|| (name.to_string(), s));
        let classes = lock(&self.classes)
            .iter()
            .filter_map(|(name, h)| seen(name, h.summary()))
            .collect();
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

    /// Flight-recorder capacity.
    pub fn ring_capacity(&self) -> usize {
        self.ring.capacity()
    }

    /// Retained slow operations, oldest first.
    pub fn slow_ops(&self) -> Vec<SlowOp> {
        lock(&self.slow).iter().cloned().collect()
    }

    /// Clear histograms, the slow-op log and (logically) the ring — used
    /// by `reset_metrics` so profiles restart alongside counters.
    pub fn reset(&self) {
        for h in &self.phases {
            h.reset();
        }
        for h in lock(&self.classes).values() {
            h.reset();
        }
        lock(&self.slow).clear();
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

/// Render one operation as a JSONL trace line (newline-terminated).
fn trace_line(op: &SlowOp) -> String {
    let mut line = format!(
        "{{\"ts_ns\":{},\"class\":\"{}\",\"txn\":{},\"outcome\":\"{}\",\"dur_ns\":{},\"spans\":[",
        op.ts_ns,
        escape_json(op.class),
        if op.txn_id == SpanEvent::NONE {
            -1i64
        } else {
            op.txn_id as i64
        },
        op.outcome.name(),
        op.total_ns,
    );
    for (i, s) in op.spans.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        line.push_str(&format!(
            "{{\"phase\":\"{}\",\"start_ns\":{},\"dur_ns\":{}}}",
            s.phase.name(),
            s.start_ns,
            s.dur_ns
        ));
    }
    line.push_str("]}\n");
    line
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

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
        let token = obs.begin_op("SELECT");
        obs.phase(Phase::Parse, Duration::from_micros(3));
        obs.phase(Phase::WorldEnum, Duration::from_micros(7));
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
        let token = obs.begin_op("INSERT");
        obs.phase(Phase::Apply, Duration::from_micros(5));
        obs.finish_op(token, Outcome::Ok, None);
        assert!(obs.profile().classes.is_empty());
        assert!(obs.profile().phases.is_empty());
        assert!(obs.events(10).is_empty());
    }

    #[test]
    fn slow_ops_promote_their_span_tree() {
        let obs = Obs::new();
        obs.set_slow_threshold_us(1); // 1 µs — everything is slow
        obs.set_test_delay_us(5); // a hot op can finish in <1 µs of wall clock
        let token = obs.begin_op("SELECT … CHOOSE 1");
        obs.set_txn(42);
        obs.phase(Phase::Solve, Duration::from_micros(10));
        obs.finish_op(token, Outcome::Ok, Some(42));
        let slow = obs.slow_ops();
        assert_eq!(slow.len(), 1);
        assert_eq!(slow[0].class, "SELECT … CHOOSE 1");
        assert_eq!(slow[0].txn_id, 42);
        assert_eq!(slow[0].spans.len(), 1);
        assert_eq!(slow[0].spans[0].phase, Phase::Solve);
        assert!(slow[0].total_ns >= 1_000);
    }

    #[test]
    fn slow_log_capacity_evicts_oldest() {
        let obs = Obs::new();
        obs.set_slow_threshold_us(1);
        obs.set_test_delay_us(5); // ensure every op clears the threshold
        for i in 0..(SLOW_LOG_CAPACITY + 5) {
            let token = obs.begin_op("INSERT");
            obs.finish_op(token, Outcome::Ok, Some(i as u64));
        }
        let slow = obs.slow_ops();
        assert_eq!(slow.len(), SLOW_LOG_CAPACITY);
        assert_eq!(slow[0].txn_id, 5, "oldest five evicted");
    }

    #[test]
    fn test_delay_hook_forces_an_op_over_threshold_and_into_the_trace() {
        let obs = Obs::new();
        let buf = SharedBuf::default();
        obs.set_trace(Some(Box::new(buf.clone())));
        obs.set_slow_threshold_us(500);
        obs.set_test_delay_us(1_000); // 1 ms — far over the 500 µs threshold
        let token = obs.begin_op("GROUND ALL");
        obs.phase(Phase::Apply, Duration::from_micros(2));
        obs.finish_op(token, Outcome::Ok, None);
        let slow = obs.slow_ops();
        assert_eq!(slow.len(), 1, "delayed op promoted to the slow log");
        assert!(slow[0].total_ns >= 1_000_000);
        let text = String::from_utf8(lock(&buf.0).clone()).unwrap();
        assert!(text.ends_with("]}\n"), "JSONL line is newline-terminated");
        assert!(text.contains("\"class\":\"GROUND ALL\""));
        assert!(text.contains("\"phase\":\"apply\""));
        assert!(text.contains("\"start_ns\":"));
    }

    #[test]
    fn profile_display_renders_a_table() {
        let obs = Obs::new();
        let token = obs.begin_op("SELECT");
        obs.phase(Phase::Parse, Duration::from_micros(3));
        obs.finish_op(token, Outcome::Ok, None);
        let text = obs.profile().to_string();
        assert!(text.contains("class"));
        assert!(text.contains("SELECT"));
        assert!(text.contains("parse"));
        assert!(text.contains("p999_us"));
    }

    #[test]
    fn reset_clears_histograms_and_slow_log() {
        let obs = Obs::new();
        obs.set_slow_threshold_us(1);
        let token = obs.begin_op("DELETE");
        obs.phase(Phase::Apply, Duration::from_micros(9));
        obs.finish_op(token, Outcome::Ok, None);
        obs.reset();
        let report = obs.profile();
        assert!(report.phases.is_empty());
        assert!(report.classes.is_empty(), "a zeroed class is not listed");
        assert!(obs.slow_ops().is_empty());
    }

    #[test]
    fn escape_json_handles_quotes_and_control_bytes() {
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
        assert_eq!(escape_json("SELECT … CHOOSE 1"), "SELECT … CHOOSE 1");
    }
}
