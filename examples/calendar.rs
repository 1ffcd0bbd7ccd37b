//! The §1 calendar scenario: Mickey's team offsite vs the CEO's
//! short-notice meeting.
//!
//! With a quantum database the offsite is *committed* weeks in advance but
//! its concrete slot stays unassigned; when the CEO meeting pins the
//! Friday-afternoon slot, the offsite silently shifts — no rescheduling
//! cascade, no stressed assistant.
//!
//! ```text
//! cargo run --example calendar
//! ```

use qdb_workload::calendar::{install_calendar, schedule_meeting, schedule_pinned, CalendarConfig};
use quantum_db::core::{QuantumDb, QuantumDbConfig};
use quantum_db::logic::parse_query;
use quantum_db::storage::tuple;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let qdb = QuantumDb::new(QuantumDbConfig::default())?.into_shared();
    // One meeting room, five time slots (Mon..Fri afternoon = slot 5).
    install_calendar(&qdb, &CalendarConfig { rooms: 1, slots: 5 })?;

    // The team prefers Friday afternoon (slot 5) for the offsite.
    qdb.bulk_insert("Prefers", vec![tuple!["offsite", 5]])?;

    // Two months out: the offsite is committed — but no slot is fixed.
    let out = qdb.submit(&schedule_meeting("offsite"))?;
    println!(
        "offsite scheduled: {out:?}; pending = {}",
        qdb.pending_count()
    );

    // Team members book other meetings through the weeks.
    for (i, name) in ["standup", "review", "retro"].iter().enumerate() {
        let _ = i;
        let out = qdb.submit(&schedule_meeting(name))?;
        println!("{name} scheduled: {out:?}");
    }

    // Wednesday before: the CEO needs Friday afternoon, specifically.
    let out = qdb.submit(&schedule_pinned("ceo", 5))?;
    println!("CEO pins slot 5: {out:?}");

    // Check-in: everyone reads their slot; the schedule collapses.
    qdb.ground_all()?;
    let q = parse_query("Meetings(name, room, slot)")?;
    let rows = qdb.read(&q.atoms, None)?;
    println!("\nfinal schedule:");
    let mut lines: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "  slot {}: {} (room {})",
                r.get(q.var("slot").unwrap()).unwrap(),
                r.get(q.var("name").unwrap()).unwrap(),
                r.get(q.var("room").unwrap()).unwrap(),
            )
        })
        .collect();
    lines.sort();
    for l in lines {
        println!("{l}");
    }

    // The CEO meeting holds slot 5; the offsite ended up elsewhere —
    // without any explicit rescheduling step.
    let ceo = qdb.query("Meetings('ceo', r, t)")?;
    assert_eq!(ceo.len(), 1);
    println!("\nno rescheduling was needed: deferred assignment absorbed the conflict");
    Ok(())
}
