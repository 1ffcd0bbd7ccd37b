//! Calendar management workload (§1's second motivating scenario).
//!
//! Meetings are resources: a meeting consumes a `(room, slot)` pair.
//! Deferring the slot assignment until the day before lets high-priority
//! short-notice meetings (the CEO's Friday-afternoon call) claim specific
//! slots without the rescheduling cascade the paper describes.

use qdb_core::SharedQuantumDb;
use qdb_logic::{parse_transaction, ResourceTransaction};
use qdb_storage::{Schema, Tuple, Value, ValueType};

/// Calendar shape: `rooms × slots` capacity.
#[derive(Debug, Clone, Copy)]
pub struct CalendarConfig {
    /// Number of rooms.
    pub rooms: usize,
    /// Number of time slots (e.g. hours across a week).
    pub slots: usize,
}

/// Schema of `Free(room, slot)`.
pub fn free_schema() -> Schema {
    Schema::new(
        "Free",
        vec![("room", ValueType::Int), ("slot", ValueType::Int)],
    )
}

/// Schema of `Meetings(name, room, slot)`.
pub fn meetings_schema() -> Schema {
    Schema::new(
        "Meetings",
        vec![
            ("name", ValueType::Str),
            ("room", ValueType::Int),
            ("slot", ValueType::Int),
        ],
    )
}

/// Schema of `Prefers(name, slot)` — soft slot preferences.
pub fn prefers_schema() -> Schema {
    Schema::new(
        "Prefers",
        vec![("name", ValueType::Str), ("slot", ValueType::Int)],
    )
}

/// Install the calendar schema and a fully free calendar.
pub fn install_calendar(qdb: &SharedQuantumDb, cfg: &CalendarConfig) -> qdb_core::Result<()> {
    qdb.create_table(free_schema())?;
    qdb.create_table(meetings_schema())?;
    qdb.create_table(prefers_schema())?;
    qdb.create_index("Free", 1)?;
    qdb.create_index("Meetings", 0)?;
    let mut rows = Vec::with_capacity(cfg.rooms * cfg.slots);
    for room in 1..=cfg.rooms as i64 {
        for slot in 1..=cfg.slots as i64 {
            rows.push(Tuple::from(vec![Value::Int(room), Value::Int(slot)]));
        }
    }
    qdb.bulk_insert("Free", rows)?;
    Ok(())
}

/// Schedule `name` into any free (room, slot), with an optional preference
/// for the slots listed in `Prefers`.
pub fn schedule_meeting(name: &str) -> ResourceTransaction {
    parse_transaction(&format!(
        "-Free(r, t), +Meetings('{name}', r, t) :-1 Free(r, t), Prefers('{name}', t)?"
    ))
    .expect("well-formed")
}

/// Schedule a high-priority meeting pinned to a specific slot (any room).
pub fn schedule_pinned(name: &str, slot: i64) -> ResourceTransaction {
    parse_transaction(&format!(
        "-Free(r, {slot}), +Meetings('{name}', r, {slot}) :-1 Free(r, {slot})"
    ))
    .expect("well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdb_core::{QuantumDb, QuantumDbConfig};
    use qdb_storage::tuple;

    #[test]
    fn offsite_rescheduling_scenario() {
        // Mickey's team offsite: scheduled weeks ahead but not pinned to a
        // slot. Later, a CEO meeting demands the exact slot the offsite
        // would naively have taken — with deferral, no rescheduling
        // cascade happens.
        let qdb = QuantumDb::new(QuantumDbConfig::default())
            .unwrap()
            .into_shared();
        install_calendar(&qdb, &CalendarConfig { rooms: 1, slots: 2 }).unwrap();
        // Offsite prefers slot 1 (Friday afternoon).
        qdb.bulk_insert("Prefers", vec![tuple!["offsite", 1]])
            .unwrap();
        assert!(qdb
            .submit(&schedule_meeting("offsite"))
            .unwrap()
            .is_committed());
        // CEO meeting pins slot 1 — with only 1 room this forces the
        // offsite out of its preferred slot, NO rescheduling needed.
        assert!(qdb
            .submit(&schedule_pinned("ceo", 1))
            .unwrap()
            .is_committed());
        qdb.ground_all().unwrap();
        let rows = qdb.query("Meetings('ceo', r, t)").unwrap();
        assert_eq!(rows.len(), 1);
        let offsite = qdb.query("Meetings('offsite', r, t)").unwrap();
        assert_eq!(offsite.len(), 1, "offsite still has a slot");
        // They occupy different slots of the single room.
        assert_eq!(qdb.with_database(|db| db.table("Free").unwrap().len()), 0);
    }

    #[test]
    fn preference_honored_when_uncontended() {
        let qdb = QuantumDb::new(QuantumDbConfig::default())
            .unwrap()
            .into_shared();
        install_calendar(&qdb, &CalendarConfig { rooms: 2, slots: 3 }).unwrap();
        qdb.bulk_insert("Prefers", vec![tuple!["standup", 2]])
            .unwrap();
        qdb.submit(&schedule_meeting("standup")).unwrap();
        qdb.ground_all().unwrap();
        let q = qdb_logic::parse_query("Meetings('standup', r, t)").unwrap();
        let rows = qdb.read(&q.atoms, None).unwrap();
        let t = rows[0].get(q.var("t").unwrap()).unwrap().as_int().unwrap();
        assert_eq!(t, 2, "optional preference satisfied when possible");
    }

    #[test]
    fn full_calendar_rejects_new_meetings() {
        let qdb = QuantumDb::new(QuantumDbConfig::default())
            .unwrap()
            .into_shared();
        install_calendar(&qdb, &CalendarConfig { rooms: 1, slots: 1 }).unwrap();
        assert!(qdb.submit(&schedule_meeting("a")).unwrap().is_committed());
        assert!(!qdb.submit(&schedule_meeting("b")).unwrap().is_committed());
    }
}
