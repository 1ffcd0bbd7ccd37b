//! Per-client statement streams covering the full statement surface —
//! the reusable op generators behind the deterministic simulator
//! (`qdb-sim`).
//!
//! [`build_client_streams`] deals each logical client a seeded stream of
//! [`SimOp`]s: CHOOSE bookings (solo and entangled), the three read modes
//! of §3.2.2 (collapse / PEEK / POSSIBLE), explicit GROUND and GROUND
//! ALL, CHECKPOINT, and blind INSERT/DELETE writes. Generation is a pure
//! function of `(config, seed)`: ops reference *positions* ("the n-th
//! earlier booker", "the n-th pending transaction") rather than concrete
//! ids, so the generator never needs to know how a run actually unfolds —
//! the driver resolves positions against live state, keeping the whole
//! run replayable from the seed alone.

use crate::flights::FlightsConfig;
use crate::rng::StdRng;

/// One statement of a simulated client session. Position-valued fields
/// (`target`, `nth`) are resolved by the driver modulo the live
/// population at execution time; when that population is empty the op
/// degrades to a recorded no-op, so every stream is executable against
/// every interleaving.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimOp {
    /// Submit a solo CHOOSE booking on the flight with this index.
    Book {
        /// Index into [`FlightsConfig::flight_numbers`].
        flight: usize,
    },
    /// Submit an entangled CHOOSE booking (§5.1): sit next to the
    /// `partner`-th earlier booker of the same flight (falls back to a
    /// solo booking when that flight has no earlier booker).
    BookEntangled {
        /// Index into [`FlightsConfig::flight_numbers`].
        flight: usize,
        /// Position among the flight's earlier bookers.
        partner: usize,
    },
    /// Collapse-read the `target`-th booked user's rows (§3.2.2 option 3).
    Read {
        /// Position among users who booked earlier in the run.
        target: usize,
    },
    /// PEEK at the `target`-th booked user (§3.2.2 option 2).
    Peek {
        /// Position among users who booked earlier in the run.
        target: usize,
    },
    /// SELECT POSSIBLE for the `target`-th booked user (§3.2.2 option 1).
    Possible {
        /// Position among users who booked earlier in the run.
        target: usize,
    },
    /// Explicitly GROUND the `nth` currently-pending transaction.
    Ground {
        /// Position in the sorted pending-id list.
        nth: usize,
    },
    /// GROUND ALL.
    GroundAll,
    /// CHECKPOINT (appends a marker and drains the group-commit buffer).
    Checkpoint,
    /// Blind INSERT of a fresh audit row (tag chosen by the driver).
    AuditInsert,
    /// Blind DELETE of the `nth` live audit row.
    AuditDelete {
        /// Position in the live audit-tag list.
        nth: usize,
    },
    /// Blind INSERT of a brand-new seat on this flight (grows capacity).
    SeatAdd {
        /// Index into [`FlightsConfig::flight_numbers`].
        flight: usize,
    },
    /// Blind DELETE of the `nth` currently-available seat of this flight
    /// (write admission may reject it to protect pending state).
    SeatRemove {
        /// Index into [`FlightsConfig::flight_numbers`].
        flight: usize,
        /// Position in the flight's available-seat list.
        nth: usize,
    },
}

/// Statement mix, in percent of the stream. `book + read + peek +
/// possible + ground + ground_all + checkpoint + audit_insert +
/// audit_delete + seat_add + seat_remove` must be ≤ 100; any remainder
/// falls through to PEEK (the cheapest read).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamProfile {
    /// CHOOSE bookings (solo or entangled).
    pub book: usize,
    /// Of the bookings, how many percent are entangled (§5.1).
    pub entangled_percent: usize,
    /// Collapsing point reads.
    pub read: usize,
    /// PEEK reads.
    pub peek: usize,
    /// SELECT POSSIBLE reads.
    pub possible: usize,
    /// Explicit per-transaction GROUND.
    pub ground: usize,
    /// GROUND ALL.
    pub ground_all: usize,
    /// CHECKPOINT.
    pub checkpoint: usize,
    /// Blind audit inserts.
    pub audit_insert: usize,
    /// Blind audit deletes.
    pub audit_delete: usize,
    /// Blind seat additions.
    pub seat_add: usize,
    /// Blind seat removals.
    pub seat_remove: usize,
}

impl Default for StreamProfile {
    fn default() -> Self {
        StreamProfile {
            book: 30,
            entangled_percent: 50,
            read: 8,
            peek: 14,
            possible: 8,
            ground: 10,
            ground_all: 4,
            checkpoint: 3,
            audit_insert: 8,
            audit_delete: 5,
            seat_add: 4,
            seat_remove: 3,
        }
    }
}

/// Deal `clients` seeded per-client streams of `ops_per_client` ops each.
/// The first op of client 0 is always a booking, so position-valued reads
/// have a target as soon as any interleaving starts. Streams are a pure
/// function of the arguments — same inputs, same streams, bit for bit.
pub fn build_client_streams(
    cfg: &FlightsConfig,
    clients: usize,
    ops_per_client: usize,
    seed: u64,
    profile: &StreamProfile,
) -> Vec<Vec<SimOp>> {
    let p = *profile;
    let cum = |upto: usize| -> usize {
        [
            p.book,
            p.read,
            p.possible,
            p.ground,
            p.ground_all,
            p.checkpoint,
            p.audit_insert,
            p.audit_delete,
            p.seat_add,
            p.seat_remove,
        ]
        .iter()
        .take(upto)
        .sum()
    };
    (0..clients)
        .map(|c| {
            // Decorrelate client streams with a splitmix-style stride.
            let mut rng =
                StdRng::seed_from_u64(seed ^ (c as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            (0..ops_per_client)
                .map(|i| {
                    if c == 0 && i == 0 {
                        return SimOp::Book { flight: 0 };
                    }
                    let flight = rng.gen_range(0..cfg.flights.max(1));
                    let pos = rng.gen_range(0..4096);
                    let roll = rng.gen_range(0..100);
                    if roll < cum(1) {
                        if rng.gen_range(0..100) < p.entangled_percent {
                            SimOp::BookEntangled {
                                flight,
                                partner: pos,
                            }
                        } else {
                            SimOp::Book { flight }
                        }
                    } else if roll < cum(2) {
                        SimOp::Read { target: pos }
                    } else if roll < cum(3) {
                        SimOp::Possible { target: pos }
                    } else if roll < cum(4) {
                        SimOp::Ground { nth: pos }
                    } else if roll < cum(5) {
                        SimOp::GroundAll
                    } else if roll < cum(6) {
                        SimOp::Checkpoint
                    } else if roll < cum(7) {
                        SimOp::AuditInsert
                    } else if roll < cum(8) {
                        SimOp::AuditDelete { nth: pos }
                    } else if roll < cum(9) {
                        SimOp::SeatAdd { flight }
                    } else if roll < cum(10) {
                        SimOp::SeatRemove { flight, nth: pos }
                    } else if roll < cum(10) + p.peek {
                        SimOp::Peek { target: pos }
                    } else {
                        // Remainder falls through to the cheapest read.
                        SimOp::Peek { target: pos }
                    }
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> FlightsConfig {
        FlightsConfig {
            flights: 2,
            rows_per_flight: 4,
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = build_client_streams(&cfg(), 4, 50, 7, &StreamProfile::default());
        let b = build_client_streams(&cfg(), 4, 50, 7, &StreamProfile::default());
        assert_eq!(a, b);
        let c = build_client_streams(&cfg(), 4, 50, 8, &StreamProfile::default());
        assert_ne!(a, c);
    }

    #[test]
    fn shapes_and_first_op() {
        let streams = build_client_streams(&cfg(), 3, 40, 42, &StreamProfile::default());
        assert_eq!(streams.len(), 3);
        assert!(streams.iter().all(|s| s.len() == 40));
        assert_eq!(streams[0][0], SimOp::Book { flight: 0 });
    }

    #[test]
    fn default_profile_covers_the_full_statement_surface() {
        let streams = build_client_streams(&cfg(), 8, 400, 1, &StreamProfile::default());
        let all: Vec<&SimOp> = streams.iter().flatten().collect();
        let has = |f: fn(&SimOp) -> bool| all.iter().any(|op| f(op));
        assert!(has(|o| matches!(o, SimOp::Book { .. })));
        assert!(has(|o| matches!(o, SimOp::BookEntangled { .. })));
        assert!(has(|o| matches!(o, SimOp::Read { .. })));
        assert!(has(|o| matches!(o, SimOp::Peek { .. })));
        assert!(has(|o| matches!(o, SimOp::Possible { .. })));
        assert!(has(|o| matches!(o, SimOp::Ground { .. })));
        assert!(has(|o| matches!(o, SimOp::GroundAll)));
        assert!(has(|o| matches!(o, SimOp::Checkpoint)));
        assert!(has(|o| matches!(o, SimOp::AuditInsert)));
        assert!(has(|o| matches!(o, SimOp::AuditDelete { .. })));
        assert!(has(|o| matches!(o, SimOp::SeatAdd { .. })));
        assert!(has(|o| matches!(o, SimOp::SeatRemove { .. })));
    }

    #[test]
    fn flight_indexes_stay_in_range() {
        let streams = build_client_streams(&cfg(), 4, 200, 3, &StreamProfile::default());
        for op in streams.iter().flatten() {
            match op {
                SimOp::Book { flight }
                | SimOp::BookEntangled { flight, .. }
                | SimOp::SeatAdd { flight }
                | SimOp::SeatRemove { flight, .. } => assert!(*flight < 2),
                _ => {}
            }
        }
    }
}
