//! Mixed read/resource workloads (§5.3 "Mixed Workload").
//!
//! *"The non-resource transactions are read queries by users who had
//! earlier issued a resource transaction."* A mixed workload of `n` total
//! operations with read percentage `p` contains `n·p/100` reads
//! interleaved into a Random-order stream of resource transactions; each
//! read targets a user drawn uniformly from those who already booked.

use crate::entangled::Pair;
use crate::orders::{arrange, ArrivalOrder, Request};
use crate::rng::{SliceRandom, StdRng};

/// One operation of a mixed workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Submit an entangled resource transaction.
    Book(Request),
    /// Read the named user's booking (collapses their pending state).
    Read {
        /// The reading user (booked earlier in the stream).
        user: String,
    },
    /// Peek at the named user's booking (§3.2.2 option 2): answered from
    /// one possible world, read in place, never grounding anything.
    Peek {
        /// The peeking user (booked earlier in the stream).
        user: String,
    },
    /// All possible bookings of the named user (§3.2.2 option 1):
    /// bounded possible-worlds enumeration, never grounding anything.
    Possible {
        /// The queried user (booked earlier in the stream).
        user: String,
    },
    /// Scan the whole `Bookings` table — a read whose key range overlaps
    /// *every* partition, collapsing all pending state (the general read
    /// §3.2.2 warns causes many groundings).
    Scan,
}

impl Op {
    /// Is this a read (point, peek, possible or scan)?
    pub fn is_read(&self) -> bool {
        matches!(
            self,
            Op::Read { .. } | Op::Peek { .. } | Op::Possible { .. } | Op::Scan
        )
    }
}

/// Read-shape knobs of the mixed workload: what fraction of the reads are
/// collapsing point reads vs scans vs non-collapsing PEEK/POSSIBLE.
///
/// Percentages partition the read stream: each read rolls once for its
/// flavor — scan first (`scan_percent`), then the §3.2.2 mode
/// (`possible_percent`, then `peek_percent`, remainder = collapsing point
/// read). The default profile (all zeros) reproduces the classic
/// all-collapsing workload bit-for-bit per seed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MixedProfile {
    /// Percentage of reads that are whole-table scans (overlapping every
    /// partition) instead of per-user point reads.
    pub scan_percent: usize,
    /// Percentage of non-scan reads served with PEEK semantics.
    pub peek_percent: usize,
    /// Percentage of non-scan reads served as `SELECT POSSIBLE`
    /// (sampled sparsely in realistic profiles: world enumeration is the
    /// expensive read).
    pub possible_percent: usize,
}

impl MixedProfile {
    /// A read-mostly profile: most reads peek (no grounding), a thin
    /// slice samples the possible-worlds answer, a few still collapse.
    pub fn read_heavy() -> Self {
        MixedProfile {
            scan_percent: 0,
            peek_percent: 80,
            possible_percent: 5,
        }
    }
}

/// Build a mixed workload over `pairs` with `n_reads` read operations.
///
/// The resource stream is `Random`-ordered with `seed`; reads are placed
/// at uniform positions (never before the first booking) and each targets
/// a uniformly random earlier booker.
pub fn build_mixed_workload(pairs: &[Pair], n_reads: usize, seed: u64) -> Vec<Op> {
    build_mixed_workload_profiled(pairs, n_reads, seed, 0)
}

/// [`build_mixed_workload`] with a contention knob: `scan_percent` of the
/// reads become whole-table [`Op::Scan`]s instead of point reads.
///
/// A point read targets one user's booking — its key range overlaps (at
/// most) that user's partition, so disjoint point reads ground disjoint
/// partitions and parallelize. A scan's range overlaps every partition:
/// it serializes against all pending state. Sweeping `scan_percent` from
/// 0 to 100 moves the workload from disjoint to fully overlapping key
/// ranges.
pub fn build_mixed_workload_profiled(
    pairs: &[Pair],
    n_reads: usize,
    seed: u64,
    scan_percent: usize,
) -> Vec<Op> {
    build_mixed_workload_with(
        pairs,
        n_reads,
        seed,
        MixedProfile {
            scan_percent,
            ..MixedProfile::default()
        },
    )
}

/// [`build_mixed_workload_profiled`] with the full read-shape profile:
/// scans, collapsing point reads, and the non-collapsing PEEK/POSSIBLE
/// modes of §3.2.2.
pub fn build_mixed_workload_with(
    pairs: &[Pair],
    n_reads: usize,
    seed: u64,
    profile: MixedProfile,
) -> Vec<Op> {
    let MixedProfile {
        scan_percent,
        peek_percent,
        possible_percent,
    } = profile;
    let mut rng = StdRng::seed_from_u64(seed);
    let bookings = arrange(
        pairs,
        ArrivalOrder::Random {
            seed: seed ^ 0xB00C,
        },
    );
    let total = bookings.len() + n_reads;
    // Choose which slots are reads: a shuffled boolean mask whose first
    // slot is always a booking.
    let mut mask: Vec<bool> = std::iter::repeat_n(true, bookings.len())
        .chain(std::iter::repeat_n(false, n_reads))
        .collect();
    mask.shuffle(&mut rng);
    if let Some(first_book) = mask.iter().position(|&b| b) {
        mask.swap(0, first_book);
    }
    let mut ops = Vec::with_capacity(total);
    let mut booked: Vec<&str> = Vec::with_capacity(bookings.len());
    let mut next_booking = bookings.iter();
    for is_book in mask {
        if is_book {
            let r = next_booking.next().expect("mask has booking slots");
            booked.push(r.user.as_str());
            ops.push(Op::Book(r.clone()));
        } else if scan_percent > 0 && rng.gen_range(0..100) < scan_percent {
            // NOTE: each percent roll consumes an RNG draw, so profiled
            // workloads with non-zero knobs select different read targets
            // than the unprofiled stream. Zero knobs skip their rolls
            // entirely — build_mixed_workload's seeded sequences are
            // bit-identical to the pre-profile behavior.
            ops.push(Op::Scan);
        } else {
            // Safe: slot 0 is always a booking.
            let user = booked[rng.gen_range(0..booked.len())].to_string();
            let flavor = if peek_percent + possible_percent > 0 {
                rng.gen_range(0..100)
            } else {
                100 // zero knobs: no roll, always a collapsing read
            };
            if flavor < possible_percent {
                ops.push(Op::Possible { user });
            } else if flavor < possible_percent + peek_percent {
                ops.push(Op::Peek { user });
            } else {
                ops.push(Op::Read { user });
            }
        }
    }
    ops
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entangled::make_pairs;
    use crate::flights::FlightsConfig;

    fn pairs() -> Vec<Pair> {
        make_pairs(
            &FlightsConfig {
                flights: 2,
                rows_per_flight: 10,
            },
            5,
        )
    }

    #[test]
    fn counts_and_first_slot() {
        let ops = build_mixed_workload(&pairs(), 7, 42);
        assert_eq!(ops.len(), 20 + 7);
        assert_eq!(ops.iter().filter(|o| o.is_read()).count(), 7);
        assert!(!ops[0].is_read());
    }

    #[test]
    fn reads_target_earlier_bookers() {
        let ops = build_mixed_workload(&pairs(), 10, 7);
        let mut seen: std::collections::HashSet<&str> = std::collections::HashSet::new();
        for op in &ops {
            match op {
                Op::Book(r) => {
                    seen.insert(r.user.as_str());
                }
                Op::Read { user } | Op::Peek { user } | Op::Possible { user } => {
                    assert!(seen.contains(user.as_str()), "read before booking");
                }
                Op::Scan => unreachable!("default profile has no scans"),
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(
            build_mixed_workload(&pairs(), 5, 1),
            build_mixed_workload(&pairs(), 5, 1)
        );
        assert_ne!(
            build_mixed_workload(&pairs(), 5, 1),
            build_mixed_workload(&pairs(), 5, 2)
        );
    }

    #[test]
    fn scan_percent_moves_reads_from_point_to_scan() {
        let all_point = build_mixed_workload_profiled(&pairs(), 10, 9, 0);
        assert!(all_point.iter().all(|o| !matches!(o, Op::Scan)));
        let all_scan = build_mixed_workload_profiled(&pairs(), 10, 9, 100);
        assert_eq!(
            all_scan.iter().filter(|o| matches!(o, Op::Scan)).count(),
            10
        );
        // Same seed, same slot placement: only the read flavor changes.
        assert_eq!(
            all_point.iter().filter(|o| o.is_read()).count(),
            all_scan.iter().filter(|o| o.is_read()).count(),
        );
    }

    #[test]
    fn read_heavy_profile_mixes_peek_and_possible() {
        let profile = MixedProfile::read_heavy();
        let ops = build_mixed_workload_with(&pairs(), 40, 11, profile);
        let peeks = ops.iter().filter(|o| matches!(o, Op::Peek { .. })).count();
        let possibles = ops
            .iter()
            .filter(|o| matches!(o, Op::Possible { .. }))
            .count();
        let collapsing = ops.iter().filter(|o| matches!(o, Op::Read { .. })).count();
        assert_eq!(ops.iter().filter(|o| o.is_read()).count(), 40);
        // 80% peek / 5% possible: peeks dominate, both flavors present.
        assert!(
            peeks > collapsing,
            "peeks {peeks} vs collapsing {collapsing}"
        );
        assert!(peeks >= 20);
        assert!(possibles >= 1);
        // PEEK/POSSIBLE targets are still earlier bookers.
        let mut seen: std::collections::HashSet<&str> = std::collections::HashSet::new();
        for op in &ops {
            match op {
                Op::Book(r) => {
                    seen.insert(r.user.as_str());
                }
                Op::Read { user } | Op::Peek { user } | Op::Possible { user } => {
                    assert!(seen.contains(user.as_str()));
                }
                Op::Scan => unreachable!("read_heavy has no scans"),
            }
        }
    }

    #[test]
    fn zero_profile_is_bit_identical_to_the_classic_stream() {
        assert_eq!(
            build_mixed_workload_with(&pairs(), 9, 4, MixedProfile::default()),
            build_mixed_workload(&pairs(), 9, 4),
        );
    }

    #[test]
    fn zero_reads_is_pure_random_order() {
        let ops = build_mixed_workload(&pairs(), 0, 3);
        assert_eq!(ops.len(), 20);
        assert!(ops.iter().all(|o| !o.is_read()));
    }
}
