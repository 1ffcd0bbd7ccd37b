//! Run histories in dbcop shape: `(T, so, wr)`.
//!
//! * **T** — the events themselves: CHOOSE submissions, grounds, reads in
//!   all three modes, blind writes, checkpoints and injected crashes.
//! * **so** — session order: events are stored per client session, in the
//!   order that client issued them; the global interleaving the scheduler
//!   actually chose is kept separately as a list of `(session, index)`
//!   sites.
//! * **wr** — writes-read: every collapse read that observed rows for a
//!   user carries the site of the submission that created that user, so
//!   phantom reads (rows with no committed writer) are detectable from
//!   the history alone.
//!
//! Recording is allocation-light — an enum push per statement — so stress
//! runs can keep full histories without distorting the throughput the
//! simulator reports.

use std::fmt;

/// Which of the §3.2.2 read options an event used.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadKind {
    /// Option 3: ground what the read touches, then answer concretely.
    Collapse,
    /// Option 2: answer from one possible world, grounding nothing.
    Peek,
    /// Option 1: answer with every possible world's result.
    Possible,
}

impl fmt::Display for ReadKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadKind::Collapse => write!(f, "READ"),
            ReadKind::Peek => write!(f, "PEEK"),
            ReadKind::Possible => write!(f, "POSSIBLE"),
        }
    }
}

/// The site of an event: `(session, index within session)`.
pub type Site = (usize, usize);

/// One recorded event.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A CHOOSE submission; `id` is `Some` iff it committed.
    Submit {
        /// Chosen user name.
        user: String,
        /// Flight number.
        flight: i64,
        /// Entangled (§5.1) rather than solo?
        entangled: bool,
        /// Engine-assigned id when committed.
        id: Option<u64>,
    },
    /// Explicit GROUND of one pending transaction.
    Ground {
        /// Target id.
        id: u64,
        /// Was it still pending (and hence collapsed)?
        collapsed: bool,
    },
    /// GROUND ALL.
    GroundAll,
    /// A read; `wr` is the submission site of the observed user's writer
    /// when rows came back (the history's writes-read edge).
    Read {
        /// Read mode.
        kind: ReadKind,
        /// Target user.
        user: String,
        /// How many answers (for POSSIBLE: distinct answer sets).
        answers: usize,
        /// Writer site, when `answers > 0` and the writer is known.
        wr: Option<Site>,
    },
    /// A blind extensional write.
    Write {
        /// Human-readable op description.
        desc: String,
        /// Did admission accept and apply it?
        applied: bool,
    },
    /// CHECKPOINT.
    Checkpoint,
    /// An injected crash: the WAL was cut at `cut` of `wal_len` bytes and
    /// the engine restarted from the prefix.
    Crash {
        /// Cut offset in bytes.
        cut: usize,
        /// WAL image length at the cut.
        wal_len: usize,
        /// Pending transactions that survived the cut.
        survivors: usize,
    },
    /// An op whose positional target had no live population.
    Noop {
        /// Which op degraded.
        op: String,
    },
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Event::Submit {
                user,
                flight,
                entangled,
                id,
            } => {
                let kind = if *entangled { "CHOOSE-ENT" } else { "CHOOSE" };
                match id {
                    Some(id) => write!(f, "{kind} {user} flight={flight} -> T{id}"),
                    None => write!(f, "{kind} {user} flight={flight} -> ABORT"),
                }
            }
            Event::Ground { id, collapsed } => {
                write!(
                    f,
                    "GROUND T{id} -> {}",
                    if *collapsed { "collapsed" } else { "gone" }
                )
            }
            Event::GroundAll => write!(f, "GROUND ALL"),
            Event::Read {
                kind,
                user,
                answers,
                wr,
            } => match wr {
                Some((s, i)) => write!(f, "{kind} {user} -> {answers} (wr {s}:{i})"),
                None => write!(f, "{kind} {user} -> {answers}"),
            },
            Event::Write { desc, applied } => {
                write!(
                    f,
                    "WRITE {desc} -> {}",
                    if *applied { "applied" } else { "rejected" }
                )
            }
            Event::Checkpoint => write!(f, "CHECKPOINT"),
            Event::Crash {
                cut,
                wal_len,
                survivors,
            } => write!(f, "CRASH cut={cut}/{wal_len} survivors={survivors}"),
            Event::Noop { op } => write!(f, "NOOP {op}"),
        }
    }
}

/// A full run history: per-session event lists (`so`) plus the global
/// interleaving actually scheduled.
#[derive(Debug, Clone, Default)]
pub struct History {
    sessions: Vec<Vec<Event>>,
    order: Vec<Site>,
}

impl History {
    /// A history for `clients` sessions (session `clients` is reserved
    /// for driver-injected events such as crashes).
    pub fn new(clients: usize) -> Self {
        History {
            sessions: vec![Vec::new(); clients + 1],
            order: Vec::new(),
        }
    }

    /// Record `event` on `session`, returning its site.
    pub fn record(&mut self, session: usize, event: Event) -> Site {
        let site = (session, self.sessions[session].len());
        self.sessions[session].push(event);
        self.order.push(site);
        site
    }

    /// Total recorded events.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// No events yet?
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// The per-session event lists (session order).
    pub fn sessions(&self) -> &[Vec<Event>] {
        &self.sessions
    }

    /// The globally scheduled interleaving, as sites into [`History::sessions`].
    pub fn order(&self) -> &[Site] {
        &self.order
    }

    /// The event at a site.
    pub fn at(&self, site: Site) -> &Event {
        &self.sessions[site.0][site.1]
    }

    /// The last `n` events of the global order, rendered one per line —
    /// the failing-history slice embedded in failure artifacts.
    pub fn tail_lines(&self, n: usize) -> Vec<String> {
        let start = self.order.len().saturating_sub(n);
        self.order[start..]
            .iter()
            .map(|&(s, i)| format!("{s}:{i} {}", self.sessions[s][i]))
            .collect()
    }

    /// A stable 64-bit digest of the whole history (splitmix-style fold
    /// over the rendered events) — what the determinism tests compare.
    pub fn digest(&self) -> u64 {
        self.fold(|e| format!("{e}"))
    }

    /// [`History::digest`] restricted to the engine-independent
    /// projection of each event: a POSSIBLE read is reduced to its
    /// target, because the set of distinct answer sets (and with it the
    /// writes-read edge) legitimately depends on the engine's
    /// world-enumeration strategy once the world bound truncates. Every
    /// other event — submits, grounds, collapse/peek reads, writes,
    /// crashes — must be bit-identical across `sharded` and `wire`; the
    /// cross-engine parity test compares this digest.
    pub fn parity_digest(&self) -> u64 {
        self.fold(|e| match e {
            Event::Read {
                kind: ReadKind::Possible,
                user,
                ..
            } => format!("POSSIBLE {user}"),
            other => format!("{other}"),
        })
    }

    fn fold(&self, render: impl Fn(&Event) -> String) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &(s, i) in &self.order {
            let line = format!("{s}:{i}:{}", render(&self.sessions[s][i]));
            for b in line.as_bytes() {
                h ^= u64::from(*b);
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sessions_keep_order_and_digest_is_stable() {
        let mut h = History::new(2);
        h.record(0, Event::GroundAll);
        h.record(1, Event::Checkpoint);
        h.record(
            0,
            Event::Read {
                kind: ReadKind::Peek,
                user: "u0".into(),
                answers: 1,
                wr: Some((1, 0)),
            },
        );
        assert_eq!(h.len(), 3);
        assert_eq!(h.sessions()[0].len(), 2);
        assert_eq!(h.order(), &[(0, 0), (1, 0), (0, 1)]);
        assert_eq!(h.tail_lines(2).len(), 2);
        let d1 = h.digest();
        assert_eq!(d1, h.clone().digest());
        h.record(2, Event::GroundAll);
        assert_ne!(d1, h.digest());
    }
}
