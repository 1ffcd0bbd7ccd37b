//! The counters `SHOW METRICS` reports. The engine's (commits,
//! coordination, grounding causes, solver work: what the experiment runner
//! reads) are declared once by the `counters!` list below, which also
//! declares the server's traffic counters, [`crate::ServerStats`].

/// Stamps out every copy of one counter list: the plain struct (one
/// `pub u64` per counter, documented where it is listed, then any extra
/// fields the invocation gives), its wire-order accessors and names, a
/// one-line `name=value` `Display` of every counter, and the lock-free
/// atomic mirror (one `AtomicU64` per counter; a caller that guards the
/// cells wraps them) with its seed, read and zero paths. Invoked twice:
/// for [`Metrics`] below and for the server's [`crate::ServerStats`].
macro_rules! counters {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident { $($extra:tt)* }
        $(#[$atomic_meta:meta])*
        $avis:vis struct $atomic:ident {}
        $($(#[$doc:meta])* $field:ident,)*
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $($(#[$doc])* pub $field: u64,)*
            $($extra)*
        }

        impl $name {
            /// How many counters the list declares.
            pub(crate) const COUNTERS: usize = [$(stringify!($field)),*].len();

            /// Every counter's name, in declaration order.
            pub(crate) const NAMES: [&'static str; Self::COUNTERS] = [$(stringify!($field)),*];

            /// Every counter, in declaration order — the wire order of the
            /// METRICS frame.
            pub(crate) fn counters(&self) -> [u64; Self::COUNTERS] {
                [$(self.$field),*]
            }

            /// The counters, writable in the same order (the METRICS
            /// decoder).
            pub(crate) fn counters_mut(&mut self) -> [&mut u64; Self::COUNTERS] {
                [$(&mut self.$field),*]
            }
        }

        /// Every counter as `name=value`, in declaration order, on one line.
        impl std::fmt::Display for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                for (i, (name, value)) in Self::NAMES.iter().zip(self.counters()).enumerate() {
                    let sep = if i == 0 { "" } else { " " };
                    write!(f, "{sep}{name}={value}")?;
                }
                Ok(())
            }
        }

        $(#[$atomic_meta])*
        $avis struct $atomic {
            $($(#[$doc])* $avis $field: ::std::sync::atomic::AtomicU64,)*
        }

        impl $atomic {
            /// A mirror seeded with `values`.
            $avis fn from_counters(values: &$name) -> Self {
                Self { $($field: values.$field.into(),)* }
            }

            /// Every counter, one Relaxed load each: a caller that needs
            /// them consistent with each other brings its own protocol.
            $avis fn read_counters(&self) -> $name {
                let mut m = <$name>::default();
                $(m.$field = self.$field.load(::std::sync::atomic::Ordering::Relaxed);)*
                m
            }

            /// Zero every counter.
            $avis fn zero_counters(&self) {
                $(self.$field.store(0, ::std::sync::atomic::Ordering::Relaxed);)*
            }
        }
    };
}
pub(crate) use counters;

counters! {
    /// Cumulative counters.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct Metrics {}

    /// One `AtomicU64` per [`Metrics`] counter: the cells the engine's
    /// seqlock-guarded mirror updates on its hot path.
    #[derive(Debug, Default)]
    pub struct MetricsCells {}

    /// Resource transactions submitted.
    submitted,
    /// Resource transactions committed.
    committed,
    /// Resource transactions aborted at admission.
    aborted,
    /// Reads served with collapse semantics (§3.2.2 option 3).
    reads,
    /// Reads served with peek semantics (§3.2.2 option 2) — answered
    /// against one possible world, read in place, never grounding.
    reads_peek,
    /// Reads served with all-possible-values semantics (§3.2.2 option 1).
    reads_possible,
    /// World forks created by the possible-worlds enumerator.
    worlds_enumerated,
    /// Forked worlds discarded as duplicates by delta fingerprinting.
    world_dedup_hits,
    /// `Database` clones observed on the engine's database family
    /// (sourced live from [`qdb_storage::Database::clone_count`] at
    /// snapshot time; the delta-view read paths keep this at zero).
    db_clones,
    /// Blind writes applied.
    writes_applied,
    /// Blind writes rejected.
    writes_rejected,
    /// Groundings by reason.
    grounded_by_read,
    /// Groundings forced by the `k` bound.
    grounded_by_k,
    /// Groundings triggered by coordination-partner arrival (§5.1).
    grounded_by_partner,
    /// Explicit groundings requested by the application.
    grounded_explicit,
    /// Admissions resolved by extending the cached solution.
    cache_extensions,
    /// Always 0. It counted admissions rescued by an alternative cached
    /// solution, a path the engine no longer has; it keeps its slot so the
    /// METRICS frame layout and the tools that read it stay unchanged.
    cache_extra_hits,
    /// Admissions that needed a full re-solve.
    cache_full_resolves,
    /// Times an admission, grounding or PEEK had to build a partition's
    /// pending world from the cached valuations (kept and rolled forward,
    /// it is never rebuilt).
    overlay_rebuilds,
    /// Groundings that replaced the residue's cached valuations — the
    /// group ++ residue joint solve (or a sampling policy's / replayed
    /// grounding's residue re-solve).
    ground_joint_resolves,
    /// Partition merges.
    partition_merges,
    /// SQL parser entries: `SharedQuantumDb::execute` on text, and the
    /// statement-cache misses of `Session::execute` / `Session::prepare` /
    /// a server's EXECUTE. A text of a cached template, or a prepared
    /// statement re-executed via `bind(…).run()`, does not parse, so a hot
    /// loop over a few statement shapes holds this constant.
    parses,
    /// Pending transactions high-water mark (Table 1's measure).
    max_pending,
    /// Optional atoms satisfied at grounding time, summed.
    optionals_satisfied,
    /// Optional atoms present on grounded transactions, summed.
    optionals_total,
    /// Solver search nodes expanded (candidate tuples tried).
    solver_nodes,
    /// Candidate rows pulled through the solver's streaming cursors.
    solver_candidates_streamed,
    /// Solver hot-path lookups answered by a secondary index (or an index
    /// bucket length).
    solver_index_lookups,
    /// Solver hot-path lookups that fell back to a table scan.
    solver_scan_lookups,
    /// Candidate vectors materialized by the solver: always 0 (candidates
    /// stream); the field keeps its slot in the METRICS frame.
    solver_candidate_vecs,
    /// Secondary indexes created by the access-pattern tracker (a column
    /// with 64 bound-column scans and no index is promoted).
    indexes_auto_created,
}

impl Metrics {
    /// Total groundings.
    pub fn grounded_total(&self) -> u64 {
        self.grounded_by_read
            + self.grounded_by_k
            + self.grounded_by_partner
            + self.grounded_explicit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_single_line() {
        assert!(!Metrics::default().to_string().contains('\n'));
    }
}
