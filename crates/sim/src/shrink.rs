//! Delta-debugging shrinker for violating schedules.
//!
//! A failing seed's recorded trace is typically hundreds of entries of
//! which a handful matter. [`shrink`] reduces it to a locally-minimal
//! repro by re-executing candidate sub-traces through the driver's
//! trace-replay mode ([`crate::driver::run_trace`]) and keeping any
//! candidate that still produces a violation of the same *kind*:
//!
//! 1. **Drop whole clients** — remove every op one logical client
//!    issued; a race usually needs two or three participants.
//! 2. **ddmin** — remove contiguous chunks, halving the chunk size down
//!    to single entries, repeated to a fixpoint.
//!
//! Crash entries carry their WAL cut and injected fault inline, so a
//! sub-trace replays the *same* crash against whatever (shorter) log the
//! surviving ops produced — the oracle is exact, not probabilistic, and
//! the whole procedure is deterministic: no randomness, candidate order
//! fixed by construction.

use crate::checker::Violation;
use crate::driver::{run_trace, SimConfig, TraceEntry};

/// Result of a shrink pass.
#[derive(Debug, Clone)]
pub struct ShrinkOutcome {
    /// The locally-minimal trace (the input trace if nothing could go).
    pub trace: Vec<TraceEntry>,
    /// Length of the input trace.
    pub original_len: usize,
    /// Driver re-executions spent.
    pub runs: usize,
    /// The violation the minimal trace produces — `None` only when the
    /// input trace itself did not reproduce (then `trace` is the input,
    /// untouched).
    pub violation: Option<Violation>,
}

impl ShrinkOutcome {
    /// Did the input reproduce at all (and hence shrinking apply)?
    pub fn reproduced(&self) -> bool {
        self.violation.is_some()
    }
}

struct Oracle<'a> {
    seed: u64,
    cfg: &'a SimConfig,
    kind: &'a str,
    runs: usize,
    max_runs: usize,
}

impl Oracle<'_> {
    /// Does `candidate` still produce a violation of the target kind?
    /// Returns the violation so the caller can report the minimal one.
    fn check(&mut self, candidate: &[TraceEntry]) -> Option<Violation> {
        if self.runs >= self.max_runs {
            return None;
        }
        self.runs += 1;
        run_trace(self.seed, self.cfg, candidate)
            .violation
            .filter(|v| v.kind == self.kind)
    }
}

/// Shrink `trace` (recorded under `seed`/`cfg`, violating with kind
/// `kind`) to a locally-minimal reproducing sub-trace, spending at most
/// `max_runs` re-executions. A trace that does not reproduce — e.g. from
/// a passing seed — comes back unchanged with `violation: None`.
pub fn shrink(
    seed: u64,
    cfg: &SimConfig,
    trace: &[TraceEntry],
    kind: &str,
    max_runs: usize,
) -> ShrinkOutcome {
    let mut oracle = Oracle {
        seed,
        cfg,
        kind,
        runs: 0,
        max_runs,
    };
    let mut best: Vec<TraceEntry> = trace.to_vec();
    let Some(mut violation) = oracle.check(&best) else {
        return ShrinkOutcome {
            trace: best,
            original_len: trace.len(),
            runs: oracle.runs,
            violation: None,
        };
    };

    // Phase 1: drop whole clients, highest first so renumbering never
    // matters (client ids are positions in the config, not the trace).
    let mut clients: Vec<usize> = best
        .iter()
        .filter_map(|e| match e {
            TraceEntry::Op { client, .. } => Some(*client),
            TraceEntry::Crash { .. } => None,
        })
        .collect();
    clients.sort_unstable();
    clients.dedup();
    for c in clients.into_iter().rev() {
        let candidate: Vec<TraceEntry> = best
            .iter()
            .filter(|e| !matches!(e, TraceEntry::Op { client, .. } if *client == c))
            .cloned()
            .collect();
        if candidate.len() < best.len() {
            if let Some(v) = oracle.check(&candidate) {
                best = candidate;
                violation = v;
            }
        }
    }

    // Phase 2: ddmin over entries — remove contiguous chunks, halving
    // the chunk size, to a fixpoint.
    let mut improved = true;
    while improved {
        improved = false;
        let mut chunk = (best.len() / 2).max(1);
        loop {
            let mut start = 0;
            while start < best.len() && best.len() > 1 {
                let end = (start + chunk).min(best.len());
                let mut candidate = best.clone();
                candidate.drain(start..end);
                match oracle.check(&candidate) {
                    Some(v) if !candidate.is_empty() => {
                        best = candidate;
                        violation = v;
                        improved = true;
                        // The next chunk now occupies `start` — retry it.
                    }
                    _ => start = end,
                }
            }
            if chunk == 1 {
                break;
            }
            chunk /= 2;
        }
    }

    ShrinkOutcome {
        trace: best,
        original_len: trace.len(),
        runs: oracle.runs,
        violation: Some(violation),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{run_seed, EngineKind, Mutation, SimConfig};

    fn tiny(mutation: Option<Mutation>) -> SimConfig {
        SimConfig {
            clients: 3,
            ops_per_client: 60,
            crash_count: 1,
            ser_interval: 40,
            mutation,
            ..SimConfig::smoke(EngineKind::Sharded)
        }
    }

    /// First seed in `1..=20` whose run violates, with its result.
    fn violating_run(cfg: &SimConfig) -> (u64, crate::driver::RunResult) {
        (1..=20)
            .map(|seed| (seed, run_seed(seed, cfg)))
            .find(|(_, r)| r.violation.is_some())
            .expect("a mutation-armed run must violate within 20 seeds")
    }

    #[test]
    fn shrunk_trace_reproduces_the_same_violation_class() {
        let cfg = tiny(Some(Mutation::CorruptWalByte));
        let (seed, r) = violating_run(&cfg);
        let kind = r.violation.as_ref().unwrap().kind.clone();
        let out = shrink(seed, &cfg, &r.trace, &kind, 400);
        assert!(out.reproduced());
        assert!(out.trace.len() <= r.trace.len());
        let replay = run_trace(seed, &cfg, &out.trace);
        assert_eq!(replay.violation.expect("minimal trace violates").kind, kind);
    }

    #[test]
    fn shrinking_a_passing_seed_is_a_noop() {
        let cfg = tiny(None);
        let r = run_seed(3, &cfg);
        assert!(r.violation.is_none(), "seed 3 must pass: {:?}", r.violation);
        let out = shrink(3, &cfg, &r.trace, "conservation", 400);
        assert!(!out.reproduced());
        assert_eq!(out.trace, r.trace, "passing trace must come back intact");
        assert_eq!(out.runs, 1, "one oracle call decides a passing trace");
    }

    #[test]
    fn shrink_is_deterministic() {
        let cfg = tiny(Some(Mutation::DropGroupFlush));
        let (seed, r) = violating_run(&cfg);
        let kind = r.violation.as_ref().unwrap().kind.clone();
        let a = shrink(seed, &cfg, &r.trace, &kind, 400);
        let b = shrink(seed, &cfg, &r.trace, &kind, 400);
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.runs, b.runs);
    }

    /// Acceptance pin: a mutation-induced failure shrinks by ≥10×. The
    /// seed is fixed so the ratio is a regression gate, not a lottery
    /// (seed 2 here shrinks ~350 entries to a single-digit repro).
    #[test]
    fn pinned_mutation_failure_shrinks_ten_fold() {
        let cfg = SimConfig {
            ops_per_client: 120,
            ..tiny(Some(Mutation::CorruptWalByte))
        };
        let seed = 2;
        let r = run_seed(seed, &cfg);
        let v = r.violation.as_ref().expect("pinned seed must violate");
        assert_eq!(v.kind, "recovery_divergence");
        let out = shrink(seed, &cfg, &r.trace, &v.kind, 600);
        assert!(out.reproduced());
        assert!(
            out.trace.len() * 10 <= out.original_len,
            "shrink only reached {} of {} entries",
            out.trace.len(),
            out.original_len
        );
    }
}
