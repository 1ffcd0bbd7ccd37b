//! Zero-dependency observability for the quantum database.
//!
//! The engine's [`Metrics`](../qdb_wire) counters say *how many* events
//! happened; this crate says *how long they took* and *what an operation
//! actually did*. It is built in the workspace's offline-shim idiom —
//! `std` only, no `tracing`, no `hdrhistogram` — and consists of three
//! pieces threaded through every layer from the solver to the wire:
//!
//! 1. [`Histogram`]: atomic log-bucketed latency histograms (power-of-two
//!    buckets over nanoseconds, lock-free `record`, mergeable
//!    [`HistSnapshot`]s with p50/p90/p99/p999/max), recorded per statement
//!    class and per engine [`Phase`].
//! 2. A flight recorder — [`EventRing`], a fixed-capacity lock-free ring
//!    of structured [`SpanEvent`]s (monotonic timestamp, txn id, partition
//!    id, phase, duration, outcome) capturing the most recent operations,
//!    each with its full span tree, at near-zero steady-state cost.
//! 3. [`Obs`], the shared handle the engine records through, surfaced by
//!    the `SHOW PROFILE` / `SHOW EVENTS` statements, the wire protocol's
//!    PROFILE/EVENTS frames, and the optional JSONL trace sink (the
//!    server's `--trace-out`), which writes every operation's span tree as
//!    one line.
//!
//! Every phase is timed off [`Stamp`]s: one unfenced `rdtsc` on an
//! x86-64 CPU with an invariant TSC, calibrated once per process against
//! `Instant`; an `Instant` read on any other CPU (`src/clock.rs`).
//!
//! See `docs/OBSERVABILITY.md` for the bucket scheme, ring overwrite
//! policy, the stamp's calibration, and how to read the reports.

mod clock;
mod histogram;
mod obs;
mod ring;

pub use clock::{Stamp, StampSource};
pub use histogram::{bucket_index, bucket_upper_bound, HistSnapshot, HistSummary, Histogram};
pub use obs::{escape_json, Lead, Obs, OpToken, ProfileReport};
pub use ring::{EventRing, SpanEvent};

/// Timed engine phases. Each phase owns one [`Histogram`] inside [`Obs`]
/// and names the span events the flight recorder captures.
///
/// A lock-wait phase records a lock found free as a zero observation with
/// no span or event ([`Obs::wait`]); profile reports include only phases
/// with a non-zero count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Phase {
    /// SQL text → [`Statement`](../qdb_logic) parse.
    Parse = 0,
    /// Admission planning: candidate merge, overlay setup, solve, verify.
    Plan = 1,
    /// Solver search proper (`solve` / `solve_in` / `verify`).
    Solve = 2,
    /// State mutation: partition install, grounding apply, blind writes.
    Apply = 3,
    /// WAL record append (buffering plus any group-commit drain it forces).
    WalAppend = 4,
    /// WAL group-commit drain / flush to the sink.
    WalFlush = 5,
    /// Waiting to acquire the sharded engine's base lock.
    BaseLockWait = 6,
    /// Waiting to acquire a per-partition slot lock.
    PartitionLockWait = 7,
    /// Possible-world enumeration for `SELECT POSSIBLE`.
    WorldEnum = 8,
    /// A partition-registry critical section: lock wait plus the claim,
    /// publish or overlap selection made under it.
    Registry = 9,
    /// One grounding — partner, read, k-bound or explicit `GROUND id`:
    /// partner expansion, planning and commit, strict fallback included.
    Ground = 10,
    /// Read-mode evaluation of a read's atoms: a collapse read's or a
    /// PEEK's, or all of a `SELECT POSSIBLE`'s worlds as one observation.
    Read = 11,
    /// Waiting to acquire the sharded engine's WAL mutex.
    WalLockWait = 12,
}

/// Number of [`Phase`] variants (histogram array length).
pub const PHASE_COUNT: usize = 13;

/// All phases in `repr` order.
pub const PHASES: [Phase; PHASE_COUNT] = [
    Phase::Parse,
    Phase::Plan,
    Phase::Solve,
    Phase::Apply,
    Phase::WalAppend,
    Phase::WalFlush,
    Phase::BaseLockWait,
    Phase::PartitionLockWait,
    Phase::WorldEnum,
    Phase::Registry,
    Phase::Ground,
    Phase::Read,
    Phase::WalLockWait,
];

impl Phase {
    /// Stable display name (also the JSONL / report key).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Parse => "parse",
            Phase::Plan => "plan",
            Phase::Solve => "solve",
            Phase::Apply => "apply",
            Phase::WalAppend => "wal_append",
            Phase::WalFlush => "wal_flush",
            Phase::BaseLockWait => "base_lock_wait",
            Phase::PartitionLockWait => "partition_lock_wait",
            Phase::WorldEnum => "world_enum",
            Phase::Registry => "registry",
            Phase::Ground => "ground",
            Phase::Read => "read",
            Phase::WalLockWait => "wal_lock_wait",
        }
    }
}

/// How an operation (or span) ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[repr(u8)]
pub enum Outcome {
    /// Completed normally.
    #[default]
    Ok = 0,
    /// The engine refused admission (`Response::Aborted`).
    Aborted = 1,
    /// The statement returned an error.
    Error = 2,
}

impl Outcome {
    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            Outcome::Ok => "ok",
            Outcome::Aborted => "aborted",
            Outcome::Error => "error",
        }
    }

    /// Decode a wire byte (unknown bytes coerce to [`Outcome::Error`]).
    pub fn from_u8(b: u8) -> Outcome {
        match b {
            0 => Outcome::Ok,
            1 => Outcome::Aborted,
            _ => Outcome::Error,
        }
    }
}

/// Statement classes, in wire-code order: `Statement::class()` indexes this
/// table, and `Statement::kind()` reads its name from it.
pub const STMT_CLASSES: [&str; 15] = [
    "CREATE TABLE",
    "CREATE INDEX",
    "INSERT",
    "DELETE",
    "SELECT",
    "SELECT … CHOOSE 1",
    "GROUND",
    "GROUND ALL",
    "CHECKPOINT",
    "SHOW METRICS",
    "SHOW PENDING",
    "SHOW PROFILE",
    "SHOW EVENTS",
    "SHOW REPLICATION",
    "PROMOTE",
];

/// First kind code used for statement classes (codes `0..PHASE_COUNT` are
/// phases).
pub const STMT_CODE_BASE: u8 = 32;

/// Index of a class name in [`STMT_CLASSES`] (`Statement::class()` is free).
pub fn stmt_class(name: &str) -> Option<usize> {
    STMT_CLASSES.iter().position(|c| *c == name)
}

/// Kind code for a statement class (`255` for classes outside
/// [`STMT_CLASSES`]).
pub fn stmt_code(class: &str) -> u8 {
    stmt_class(class).map_or(u8::MAX, |i| STMT_CODE_BASE + i as u8)
}

/// Display name for any event kind code: phase names below
/// [`STMT_CODE_BASE`], statement classes above, `"?"` otherwise.
pub fn kind_name(code: u8) -> &'static str {
    if (code as usize) < PHASE_COUNT {
        PHASES[code as usize].name()
    } else if code >= STMT_CODE_BASE && ((code - STMT_CODE_BASE) as usize) < STMT_CLASSES.len() {
        STMT_CLASSES[(code - STMT_CODE_BASE) as usize]
    } else {
        "?"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_codes_roundtrip_phases_and_classes() {
        for (i, p) in PHASES.iter().enumerate() {
            assert_eq!(*p as usize, i);
            assert_eq!(kind_name(*p as u8), p.name());
        }
        for class in STMT_CLASSES {
            let code = stmt_code(class);
            assert!(code >= STMT_CODE_BASE);
            assert_eq!(kind_name(code), class);
        }
        assert_eq!(stmt_code("NO SUCH CLASS"), u8::MAX);
        assert_eq!(kind_name(200), "?");
        assert_eq!(kind_name(u8::MAX), "?");
    }

    #[test]
    fn outcome_bytes_roundtrip() {
        for o in [Outcome::Ok, Outcome::Aborted, Outcome::Error] {
            assert_eq!(Outcome::from_u8(o as u8), o);
        }
        assert_eq!(Outcome::from_u8(77), Outcome::Error);
    }
}
