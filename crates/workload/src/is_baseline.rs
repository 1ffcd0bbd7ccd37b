//! The "intelligent social" (IS) baseline (§5.2).
//!
//! *"Such a user first issues a query to check whether his/her friend has
//! an existing reservation. If so, he books the adjacent seat, and if not
//! he books a seat with a free adjacent seat. The IS workload simulates
//! the kind of coordination that is achievable without using a quantum
//! database."* Every choice is made eagerly against the current database;
//! there is no deferral and nothing ever moves again.

use qdb_storage::{tuple, Database};

use crate::pattern::{ConjunctiveQuery, PatTerm, Pattern};

/// An eager booking client over a plain relational database.
pub struct IsClient {
    db: Database,
}

/// Outcome of one IS booking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IsOutcome {
    /// The seat booked, if any seat was left.
    pub seat: Option<String>,
    /// Whether the booking landed adjacent to the partner's existing
    /// booking (coordination visible *at booking time*; final coordination
    /// is measured on the full bookings table).
    pub next_to_partner: bool,
}

impl IsClient {
    /// Wrap a database (typically [`crate::flights::build_database`]).
    pub fn new(db: Database) -> Self {
        IsClient { db }
    }

    /// The underlying database (for measurement).
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Book a seat for `user` on `flight`, trying to sit next to
    /// `partner`.
    pub fn book(&mut self, user: &str, partner: &str, flight: i64) -> IsOutcome {
        // 1. Does the partner already hold a seat on this flight? If so,
        //    is any seat adjacent to it still free?
        if let Some(seat) = self.adjacent_to_partner(partner, flight) {
            self.take(user, flight, &seat);
            return IsOutcome {
                seat: Some(seat),
                next_to_partner: true,
            };
        }
        // 2. Otherwise pick a seat that still has a free neighbour, so the
        //    partner can later join.
        if let Some(seat) = self.seat_with_free_neighbour(flight) {
            self.take(user, flight, &seat);
            return IsOutcome {
                seat: Some(seat),
                next_to_partner: false,
            };
        }
        // 3. Otherwise any seat at all.
        if let Some(seat) = self.any_seat(flight) {
            self.take(user, flight, &seat);
            return IsOutcome {
                seat: Some(seat),
                next_to_partner: false,
            };
        }
        IsOutcome {
            seat: None,
            next_to_partner: false,
        }
    }

    /// Read a user's booking (the IS analogue of the mixed workload's
    /// read transactions; a plain query, no side effects).
    pub fn read_booking(&self, user: &str) -> Option<(i64, String)> {
        let q = ConjunctiveQuery::new(vec![Pattern::new(
            "Bookings",
            vec![PatTerm::val(user), PatTerm::Var(0), PatTerm::Var(1)],
        )])
        .with_limit(1);
        let out = q.eval(&self.db).expect("schema installed");
        out.bindings.first().map(|b| {
            (
                b[&0].as_int().expect("flight is int"),
                b[&1].as_str().expect("seat is str").to_string(),
            )
        })
    }

    fn adjacent_to_partner(&self, partner: &str, flight: i64) -> Option<String> {
        // Bookings(partner, F, s2) ⋈ Adjacent(s, s2) ⋈ Available(F, s)
        let (s, s2) = (0, 1);
        let q = ConjunctiveQuery::new(vec![
            Pattern::new(
                "Bookings",
                vec![
                    PatTerm::val(partner),
                    PatTerm::val(flight),
                    PatTerm::Var(s2),
                ],
            ),
            Pattern::new("Adjacent", vec![PatTerm::Var(s), PatTerm::Var(s2)]),
            Pattern::new("Available", vec![PatTerm::val(flight), PatTerm::Var(s)]),
        ])
        .with_limit(1);
        let out = q.eval(&self.db).expect("schema installed");
        out.bindings
            .first()
            .map(|b| b[&s].as_str().expect("seat").to_string())
    }

    fn seat_with_free_neighbour(&self, flight: i64) -> Option<String> {
        let (s, s2) = (0, 1);
        let q = ConjunctiveQuery::new(vec![
            Pattern::new("Available", vec![PatTerm::val(flight), PatTerm::Var(s)]),
            Pattern::new("Adjacent", vec![PatTerm::Var(s), PatTerm::Var(s2)]),
            Pattern::new("Available", vec![PatTerm::val(flight), PatTerm::Var(s2)]),
        ])
        .with_limit(1);
        let out = q.eval(&self.db).expect("schema installed");
        out.bindings
            .first()
            .map(|b| b[&s].as_str().expect("seat").to_string())
    }

    fn any_seat(&self, flight: i64) -> Option<String> {
        let q = ConjunctiveQuery::new(vec![Pattern::new(
            "Available",
            vec![PatTerm::val(flight), PatTerm::Var(0)],
        )])
        .with_limit(1);
        let out = q.eval(&self.db).expect("schema installed");
        out.bindings
            .first()
            .map(|b| b[&0].as_str().expect("seat").to_string())
    }

    fn take(&mut self, user: &str, flight: i64, seat: &str) {
        let removed = self
            .db
            .delete("Available", &tuple![flight, seat])
            .expect("seat was just found");
        debug_assert!(removed);
        self.db
            .insert("Bookings", tuple![user, flight, seat])
            .expect("no duplicate users");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flights::{build_database, FlightsConfig};

    fn client(rows: usize) -> IsClient {
        IsClient::new(build_database(&FlightsConfig {
            flights: 1,
            rows_per_flight: rows,
        }))
    }

    #[test]
    fn first_user_leaves_room_for_partner() {
        let mut c = client(2);
        let out = c.book("A", "B", 1);
        let seat = out.seat.unwrap();
        assert!(!out.next_to_partner);
        // The chosen seat has a free neighbour.
        let partner = c.book("B", "A", 1);
        assert!(partner.next_to_partner, "B joins A at {seat}");
    }

    #[test]
    fn fills_up_gracefully() {
        let mut c = client(1); // 3 seats
        assert!(c.book("A", "X", 1).seat.is_some());
        assert!(c.book("B", "Y", 1).seat.is_some());
        assert!(c.book("C", "Z", 1).seat.is_some());
        let out = c.book("D", "W", 1);
        assert!(out.seat.is_none(), "flight is full");
    }

    #[test]
    fn fragmentation_breaks_coordination() {
        // The IS weakness the paper measures: interleaved strangers take
        // each other's "reserved" neighbour seats. Row = A,B,C. U1 books
        // with free neighbour (gets 1A, neighbour 1B free). V1 (different
        // pair) also books seat-with-free-neighbour → 1B! Now U2 cannot
        // sit next to U1.
        let mut c = client(1);
        c.book("U1", "U2", 1);
        c.book("V1", "V2", 1);
        let u2 = c.book("U2", "U1", 1);
        assert!(!u2.next_to_partner, "fragmented row defeats IS");
    }

    #[test]
    fn read_booking_round_trips() {
        let mut c = client(2);
        assert_eq!(c.read_booking("A"), None);
        let out = c.book("A", "B", 1);
        let (f, s) = c.read_booking("A").unwrap();
        assert_eq!(f, 1);
        assert_eq!(Some(s), out.seat);
    }
}
