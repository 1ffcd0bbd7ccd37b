//! The observability acceptance run: drive a mixed statement stream
//! through the engine, then read `SHOW PROFILE`'s payload back and check
//! that every statement class the driver issued has a histogram whose
//! count equals the driver's own statement counter (off by one fails),
//! that percentiles are ordered and non-zero, that the `parse` / `solve`
//! / `apply` / `ground` / `read` phases were recorded (`read` once per
//! read statement), and that the JSONL trace sink received exactly one
//! well-formed line per statement, each span inside its root and each
//! opening with the statement's `parse` span.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::{Arc, Mutex};

use quantum_db::{QuantumDb, QuantumDbConfig};

const FLIGHTS: usize = 2;
const PAIRS: usize = 3;
const READS: usize = 12;

/// A trace sink the test can read back after the engine is done with it.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(bytes);
        Ok(bytes.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// The workload as (class, SQL) pairs — the class strings are the
/// engine's own `Statement::kind()` names, so the driver's counter and
/// the histogram key line up exactly.
fn statements() -> Vec<(&'static str, String)> {
    let mut stmts: Vec<(&'static str, String)> = vec![
        (
            "CREATE TABLE",
            "CREATE TABLE Available (flight INT, seat TEXT)".into(),
        ),
        (
            "CREATE TABLE",
            "CREATE TABLE Bookings (name TEXT, flight INT, seat TEXT)".into(),
        ),
    ];
    for f in 1..=FLIGHTS {
        for s in 0..PAIRS {
            stmts.push((
                "INSERT",
                format!("INSERT INTO Available VALUES ({f}, 's{s:03}')"),
            ));
        }
    }
    for f in 1..=FLIGHTS {
        for i in 0..PAIRS {
            stmts.push((
                "SELECT … CHOOSE 1",
                format!(
                    "SELECT @s FROM Available({f}, @s) CHOOSE 1 FOLLOWED BY \
                     (DELETE ({f}, @s) FROM Available; \
                      INSERT ('u{f}_{i}', {f}, @s) INTO Bookings)"
                ),
            ));
        }
    }
    for i in 0..READS {
        // PEEK and POSSIBLE leave the pending set alone (no collapse), so
        // the solve/world-enumeration phases keep firing all the way.
        stmts.push((
            "SELECT",
            if i % 2 == 0 {
                format!("SELECT PEEK * FROM Bookings('u1_{}', @f, @s)", i % PAIRS)
            } else {
                "SELECT POSSIBLE @s FROM Available(1, @s)".into()
            },
        ));
    }
    // A collapsing read grounds the booking it names.
    stmts.push((
        "SELECT",
        "SELECT @f, @s FROM Bookings('u1_0', @f, @s)".into(),
    ));
    stmts.push(("SHOW PENDING", "SHOW PENDING".into()));
    stmts.push(("GROUND ALL", "GROUND ALL".into()));
    stmts.push(("SELECT", "SELECT * FROM Bookings(@n, @f, @s)".into()));
    stmts
}

#[test]
fn profile_counts_match_the_drivers_and_the_trace_has_one_line_per_statement() {
    let stmts = statements();
    let mut expected: BTreeMap<&str, u64> = BTreeMap::new();
    for (class, _) in &stmts {
        *expected.entry(class).or_insert(0) += 1;
    }

    let shared = QuantumDb::new(QuantumDbConfig::default())
        .unwrap()
        .into_shared();
    let trace = SharedBuf::default();
    shared.obs().set_trace(Some(Box::new(trace.clone())));
    let session = shared.session();
    for (_, sql) in &stmts {
        session
            .execute(sql)
            .unwrap_or_else(|e| panic!("{sql}: {e}"));
    }
    let profile = shared.profile();
    shared.obs().set_trace(None);

    let by_class: BTreeMap<&str, u64> = profile
        .classes
        .iter()
        .map(|(name, s)| (name.as_str(), s.count))
        .collect();
    assert_eq!(
        by_class, expected,
        "class histogram counts vs driver counters"
    );
    for (name, s) in profile.classes.iter().chain(profile.phases.iter()) {
        assert!(s.p50_ns > 0, "{name}: p50 must be non-zero");
        assert!(s.p99_ns >= s.p50_ns, "{name}: p99 < p50");
        assert!(s.p999_ns >= s.p99_ns, "{name}: p999 < p99");
        assert!(s.max_ns >= s.p999_ns, "{name}: max < p999");
    }
    for need in ["parse", "solve", "apply", "ground", "read"] {
        assert!(
            profile.phases.iter().any(|(name, _)| name == need),
            "phase {need} never recorded"
        );
    }
    // Histogram-only: one observation per collapse read, PEEK and
    // POSSIBLE, and never a span in the trace.
    let reads = profile.phases.iter().find(|(name, _)| name == "read");
    assert_eq!(reads.map(|(_, s)| s.count), Some(expected["SELECT"]));

    // One JSONL line per statement, in statement order, each carrying its
    // class and a balanced span list.
    let text = String::from_utf8(trace.0.lock().unwrap().clone()).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), stmts.len(), "one trace line per statement");
    let mut spans_seen = 0;
    for (line, (class, sql)) in lines.iter().zip(&stmts) {
        assert!(line.starts_with("{\"ts_ns\":"), "{sql}: {line}");
        assert!(line.ends_with("]}"), "{sql}: {line}");
        assert!(
            line.contains(&format!("\"class\":\"{class}\",\"txn\":")),
            "{sql}: {line}"
        );
        assert!(
            line.contains("\"outcome\":\"ok\",\"dur_ns\":"),
            "{sql}: {line}"
        );
        assert!(line.contains(",\"spans\":["), "{sql}: {line}");
        assert!(!line.contains("\"phase\":\"read\""), "{sql}: {line}");
        let count = |c: char| line.matches(c).count();
        assert_eq!(count('{'), count('}'), "{sql}: {line}");
        assert_eq!(count('['), count(']'), "{sql}: {line}");
        // Every span lies inside its root: offsets from the root's start,
        // ends no later than the root's.
        let (root, spans) = line.split_once(",\"spans\":[").unwrap();
        let root_dur = field(root, "dur_ns");
        // A text's op starts at its parse: the `parse` span opens the tree.
        assert!(
            spans.starts_with("{\"phase\":\"parse\",\"start_ns\":0,"),
            "{sql}: no parse span at the root's start: {line}"
        );
        for span in spans.split("{\"phase\":").skip(1) {
            let end = field(span, "start_ns") + field(span, "dur_ns");
            assert!(end <= root_dur, "{sql}: a span outlasts its root: {line}");
            spans_seen += 1;
        }
    }
    assert!(spans_seen > stmts.len(), "{spans_seen} spans traced");
}

/// The number after `"key":` in a trace-line fragment.
fn field(text: &str, key: &str) -> u64 {
    let rest =
        (text.split(&format!("\"{key}\":")).nth(1)).unwrap_or_else(|| panic!("no {key} in {text}"));
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().unwrap_or_else(|_| panic!("{key} in {text}"))
}
