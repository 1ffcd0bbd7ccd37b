//! The flights database generator (§5.2).
//!
//! *"Each flight in our database is represented as a set of seats arranged
//! in rows of three. Each row has four possible adjacent pairs, only two
//! of which can be booked simultaneously."* Seat labels are shared across
//! flights (row `r`, column `A`–`C`), so a single `Adjacent` relation
//! covers all flights, exactly as in the paper's `Adj(s1, s2)` atoms.

use qdb_core::SharedQuantumDb;
use qdb_storage::{Database, Schema, Tuple, Value, ValueType};

/// Flight database shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightsConfig {
    /// Number of flights.
    pub flights: usize,
    /// Rows per flight; each row has 3 seats.
    pub rows_per_flight: usize,
}

impl FlightsConfig {
    /// §5.3 "Order of arrival": 1 flight × 34 rows = 102 seats.
    pub fn order_of_arrival() -> Self {
        FlightsConfig {
            flights: 1,
            rows_per_flight: 34,
        }
    }

    /// §5.3 "Scalability": n flights × 50 rows = 150 seats each.
    pub fn scalability(flights: usize) -> Self {
        FlightsConfig {
            flights,
            rows_per_flight: 50,
        }
    }

    /// §5.3 "Mixed workload": 40 flights × 150 seats.
    pub fn mixed_workload() -> Self {
        FlightsConfig {
            flights: 40,
            rows_per_flight: 50,
        }
    }

    /// Seats per flight.
    pub fn seats_per_flight(&self) -> usize {
        self.rows_per_flight * 3
    }

    /// Total seats.
    pub fn total_seats(&self) -> usize {
        self.flights * self.seats_per_flight()
    }

    /// Flight numbers, 1-based.
    pub fn flight_numbers(&self) -> impl Iterator<Item = i64> + '_ {
        1..=self.flights as i64
    }

    /// Maximum users that can be seated in adjacent pairs on one flight
    /// (one pair per row — the paper's "maximum of twenty coordination
    /// requests" for ten rows).
    pub fn max_coordinated_per_flight(&self) -> usize {
        2 * self.rows_per_flight
    }
}

/// The seat label for row `row` (1-based) and position `pos` (0..3).
pub fn seat_label(row: usize, pos: usize) -> String {
    debug_assert!(pos < 3);
    format!("{row}{}", (b'A' + pos as u8) as char)
}

/// Schema of `Available(flight, seat)`.
pub fn available_schema() -> Schema {
    Schema::new(
        "Available",
        vec![("flight", ValueType::Int), ("seat", ValueType::Str)],
    )
}

/// Schema of `Bookings(name, flight, seat)`.
pub fn bookings_schema() -> Schema {
    Schema::new(
        "Bookings",
        vec![
            ("name", ValueType::Str),
            ("flight", ValueType::Int),
            ("seat", ValueType::Str),
        ],
    )
}

/// Schema of `Adjacent(s1, s2)`.
pub fn adjacent_schema() -> Schema {
    Schema::new(
        "Adjacent",
        vec![("s1", ValueType::Str), ("s2", ValueType::Str)],
    )
}

fn adjacent_tuples(rows: usize) -> Vec<Tuple> {
    let mut out = Vec::with_capacity(rows * 4);
    for row in 1..=rows {
        let a = seat_label(row, 0);
        let b = seat_label(row, 1);
        let c = seat_label(row, 2);
        for (x, y) in [(&a, &b), (&b, &a), (&b, &c), (&c, &b)] {
            out.push(Tuple::from(vec![
                Value::str(x.as_str()),
                Value::str(y.as_str()),
            ]));
        }
    }
    out
}

fn available_tuples(cfg: &FlightsConfig) -> Vec<Tuple> {
    let mut out = Vec::with_capacity(cfg.total_seats());
    for f in cfg.flight_numbers() {
        for row in 1..=cfg.rows_per_flight {
            for pos in 0..3 {
                out.push(Tuple::from(vec![
                    Value::Int(f),
                    Value::str(seat_label(row, pos)),
                ]));
            }
        }
    }
    out
}

/// Build a plain storage database (for the IS baseline and for world
/// enumeration oracles).
pub fn build_database(cfg: &FlightsConfig) -> Database {
    let mut db = Database::new();
    db.create_table(available_schema()).unwrap();
    db.create_table(bookings_schema()).unwrap();
    db.create_table(adjacent_schema()).unwrap();
    let _ = db.table_mut("Available").unwrap().create_index(0);
    let _ = db.table_mut("Available").unwrap().create_index(1);
    let _ = db.table_mut("Bookings").unwrap().create_index(0);
    let _ = db.table_mut("Adjacent").unwrap().create_index(0);
    for t in available_tuples(cfg) {
        db.insert("Available", t).unwrap();
    }
    for t in adjacent_tuples(cfg.rows_per_flight) {
        db.insert("Adjacent", t).unwrap();
    }
    db
}

/// Install the flight schema and data into a quantum database engine
/// ("appropriate indices are defined for each relation", §5.2).
pub fn install(qdb: &SharedQuantumDb, cfg: &FlightsConfig) -> qdb_core::Result<()> {
    qdb.create_table(available_schema())?;
    qdb.create_table(bookings_schema())?;
    qdb.create_table(adjacent_schema())?;
    qdb.create_index("Available", 0)?;
    qdb.create_index("Available", 1)?;
    qdb.create_index("Bookings", 0)?;
    qdb.create_index("Adjacent", 0)?;
    qdb.bulk_insert("Available", available_tuples(cfg))?;
    qdb.bulk_insert("Adjacent", adjacent_tuples(cfg.rows_per_flight))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configurations() {
        let c = FlightsConfig::order_of_arrival();
        assert_eq!(c.total_seats(), 102);
        assert_eq!(c.max_coordinated_per_flight(), 68);
        let c = FlightsConfig::scalability(10);
        assert_eq!(c.seats_per_flight(), 150);
        assert_eq!(c.total_seats(), 1500);
        let c = FlightsConfig::mixed_workload();
        assert_eq!(c.total_seats(), 6000);
    }

    #[test]
    fn seat_labels() {
        assert_eq!(seat_label(1, 0), "1A");
        assert_eq!(seat_label(34, 2), "34C");
    }

    #[test]
    fn database_shape() {
        let cfg = FlightsConfig {
            flights: 2,
            rows_per_flight: 3,
        };
        let db = build_database(&cfg);
        assert_eq!(db.table("Available").unwrap().len(), 18);
        // 4 ordered adjacent pairs per row (§5.2).
        assert_eq!(db.table("Adjacent").unwrap().len(), 12);
        assert_eq!(db.table("Bookings").unwrap().len(), 0);
        // Adjacency is intra-row only.
        assert!(db.contains("Adjacent", &qdb_storage::tuple!["1A", "1B"]));
        assert!(!db.contains("Adjacent", &qdb_storage::tuple!["1C", "2A"]));
    }

    #[test]
    fn install_into_engine() {
        let qdb = qdb_core::QuantumDb::new(qdb_core::QuantumDbConfig::default())
            .unwrap()
            .into_shared();
        let cfg = FlightsConfig {
            flights: 1,
            rows_per_flight: 2,
        };
        install(&qdb, &cfg).unwrap();
        assert_eq!(
            qdb.with_database(|db| db.table("Available").unwrap().len()),
            6
        );
        assert_eq!(
            qdb.with_database(|db| db.table("Adjacent").unwrap().len()),
            8
        );
    }
}
