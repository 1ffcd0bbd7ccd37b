//! The paper's running example, end to end: Mickey, Goofy, Donald, Minnie
//! and Pluto book seats on flight 123 — with entangled coordination,
//! possible-worlds inspection (Figure 2) and a hard-constraint conflict
//! (§2's Pluto scenario). Driven through the unified statement API.
//!
//! ```text
//! cargo run --example travel_booking
//! ```

use quantum_db::core::enumerate_worlds;
use quantum_db::logic::{parse_query, parse_transaction};
use quantum_db::solver::ReadSpec;
use quantum_db::storage::tuple;
use quantum_db::{QuantumDb, QuantumDbConfig, Session, Value};

/// Figure 1's entangled booking as a prepared-statement template:
/// `?1` = the booking user, `?2` = the partner they want to sit next to.
const BOOKING_NEXT_TO: &str = "\
    SELECT @f, @s \
    FROM Available(@f, @s), \
         OPTIONAL Bookings(?, @f, @s2), \
         OPTIONAL Adjacent(@s, @s2) \
    CHOOSE 1 \
    FOLLOWED BY ( \
        DELETE (@f, @s) FROM Available; \
        INSERT (?, @f, @s) INTO Bookings; \
    )";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let qdb = QuantumDb::new(QuantumDbConfig::default())?.into_shared();
    qdb.execute("CREATE TABLE Available (flight INT, seat TEXT)")?;
    qdb.execute("CREATE TABLE Bookings (name TEXT, flight INT, seat TEXT)")?;
    qdb.execute("CREATE TABLE Adjacent (s1 TEXT, s2 TEXT)")?;
    // Flight 123, one row of three seats (Figure 2's setup).
    qdb.execute("INSERT INTO Available VALUES (123, '1A'), (123, '1B'), (123, '1C')")?;
    qdb.execute(
        "INSERT INTO Adjacent VALUES ('1A', '1B'), ('1B', '1A'), ('1B', '1C'), ('1C', '1B')",
    )?;

    // --- Figure 2: possible-world evolution -----------------------------
    println!("--- Figure 2: explicit possible worlds ---");
    let booking = |user: &str| {
        parse_transaction(&format!(
            "-Available(f, s), +Bookings('{user}', f, s) :-1 Available(f, s)"
        ))
        .expect("well-formed")
    };
    let mickey = booking("Mickey");
    let donald = booking("Donald");
    let base = qdb.with_database(|db| db.clone());
    let w1 = enumerate_worlds(&base, &[&mickey], 100)?;
    // Each world is an overlay on the one base: read Mickey's seat in it.
    let query = parse_query("Bookings('Mickey', f, s)")?;
    let read = ReadSpec::compile(&base, &query.atoms)?;
    let seats: Vec<String> = (read.rows(&base, &w1.worlds).iter())
        .map(|answers| answers[0][1].to_string())
        .collect();
    println!(
        "after Mickey's transaction: {} possible worlds, Mickey in {}",
        w1.len(),
        seats.join(" / ")
    );
    let w2 = enumerate_worlds(&base, &[&mickey, &donald], 100)?;
    println!("after Donald's transaction: {} possible worlds", w2.len());
    // Minnie wants to sit next to Mickey (hard, for the world count).
    let minnie = parse_transaction(
        "-Available(f, s), +Bookings('Minnie', f, s) :-1 \
         Available(f, s), Bookings('Mickey', f, s2), Adjacent(s, s2)",
    )?;
    let w3 = enumerate_worlds(&base, &[&mickey, &donald, &minnie], 100)?;
    println!(
        "after Minnie's transaction: {} possible worlds (worlds where \
         Minnie cannot sit next to Mickey are eliminated)",
        w3.len()
    );

    // --- Entangled coordination (§5.1) -----------------------------------
    println!("\n--- Entangled resource transactions ---");
    let session: Session = qdb.session();
    let book = session.prepare(BOOKING_NEXT_TO)?;
    // Mickey books first, wanting to sit next to Goofy — who is not in the
    // system yet. The request commits; the coordination constraint stays
    // open as a forward constraint.
    book.bind(&[Value::from("Goofy"), Value::from("Mickey")])?
        .run()?;
    let pending = session.shared().pending_count();
    println!("Mickey committed; pending = {pending} (seat not fixed, waiting for Goofy)");
    // Goofy arrives: the pair is grounded immediately, adjacent.
    book.bind(&[Value::from("Mickey"), Value::from("Goofy")])?
        .run()?;
    let rows = session.execute("SELECT * FROM Bookings(@n, @f, @s)")?;
    println!("bookings after Goofy's arrival:");
    let seat_of = |who: &str| -> String {
        rows.rows()
            .unwrap()
            .iter()
            .find_map(|r| {
                let mut name = None;
                let mut seat = None;
                for (var, val) in r.iter() {
                    match var.name() {
                        "n" => name = val.as_str(),
                        "s" => seat = val.as_str(),
                        _ => {}
                    }
                }
                (name == Some(who)).then(|| seat.unwrap().to_string())
            })
            .expect("booked")
    };
    for who in ["Mickey", "Goofy"] {
        println!("  {who} -> {}", seat_of(who));
    }
    let (m, g) = (seat_of("Mickey"), seat_of("Goofy"));
    session.shared().with_database(|db| {
        assert!(db.contains("Adjacent", &tuple![m.as_str(), g.as_str()]));
    });
    println!("Mickey ({m}) and Goofy ({g}) sit together.");

    // --- §2: Pluto's hard constraint vs a soft preference ---------------
    println!("\n--- Hard constraints win over soft preferences ---");
    let last = session.execute("SELECT @f, @s FROM Available(@f, @s)")?;
    println!("seats left: {}", last.rows().unwrap().len());
    // Pluto demands the exact remaining seat — a hard constraint. It
    // commits: nobody pending holds a hard claim on it.
    let out = session.execute(
        "SELECT @s FROM Available(123, @s) WHERE @s = '1C' CHOOSE 1 \
         FOLLOWED BY (DELETE (123, @s) FROM Available; \
                      INSERT ('Pluto', 123, @s) INTO Bookings)",
    )?;
    println!("Pluto requests 1C: {out}");
    session.execute("GROUND ALL")?;
    let taken = session.execute("SELECT * FROM Bookings(@n, @f, @s)")?;
    println!(
        "final bookings: {} of 3 seats taken",
        taken.rows().unwrap().len()
    );
    Ok(())
}
