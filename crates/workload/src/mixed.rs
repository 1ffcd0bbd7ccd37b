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
}

impl Op {
    /// Is this a read?
    pub fn is_read(&self) -> bool {
        matches!(self, Op::Read { .. })
    }
}

/// Build a mixed workload over `pairs` with `n_reads` read operations.
///
/// The resource stream is `Random`-ordered with `seed`; reads are placed
/// at uniform positions (never before the first booking) and each targets
/// a uniformly random earlier booker.
pub fn build_mixed_workload(pairs: &[Pair], n_reads: usize, seed: u64) -> Vec<Op> {
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
        } else {
            // Safe: slot 0 is always a booking.
            let user = booked[rng.gen_range(0..booked.len())].to_string();
            ops.push(Op::Read { user });
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
                Op::Read { user } => {
                    assert!(seen.contains(user.as_str()), "read before booking");
                }
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
    fn zero_reads_is_pure_random_order() {
        let ops = build_mixed_workload(&pairs(), 0, 3);
        assert_eq!(ops.len(), 20);
        assert!(ops.iter().all(|o| !o.is_read()));
    }
}
