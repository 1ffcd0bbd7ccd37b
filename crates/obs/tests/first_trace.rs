//! The process's first statement is traced where it ran. The trace epoch
//! is fixed when the first handle is made, before any stamp exists, so no
//! phase of the first op is read before it and clipped to 0. This binary
//! holds one test, so that test owns the process's first op.

use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use qdb_obs::{stmt_class, Obs, Outcome, Phase};

#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn spin(d: Duration) {
    let t = Instant::now();
    while t.elapsed() < d {}
}

/// The number after `"key":` in `text`.
fn field(text: &str, key: &str) -> u64 {
    let rest = text
        .split(&format!("\"{key}\":"))
        .nth(1)
        .unwrap_or_else(|| panic!("no {key} in {text}"));
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().unwrap_or_else(|_| panic!("{key} in {text}"))
}

#[test]
fn the_first_ops_spans_sit_where_their_phases_ran() {
    let obs = Obs::new();
    let buf = SharedBuf::default();
    obs.set_trace(Some(Box::new(buf.clone())));
    let gap = Duration::from_micros(50);

    let at_root = Instant::now();
    let token = obs.begin_op(stmt_class("SELECT").unwrap());
    spin(gap);
    let at_parse = Instant::now();
    let t = obs.start();
    spin(gap);
    obs.span(Phase::Parse, t);
    spin(2 * gap);
    let at_solve = Instant::now();
    let t = obs.start();
    spin(gap);
    obs.span(Phase::Solve, t);
    let at_end = at_root.elapsed();
    obs.finish_op(token, Outcome::Ok, None);

    let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
    let line = text.lines().next().expect("one trace line");
    assert!(
        field(line, "ts_ns") > 0,
        "the op starts after the epoch: {line}"
    );
    let root_dur = field(line, "dur_ns");
    let spans: Vec<(u64, u64)> = (line.split("{\"phase\":").skip(1))
        .map(|s| (field(s, "start_ns"), field(s, "dur_ns")))
        .collect();
    assert!(line.contains("\"spans\":[{\"phase\":\"parse\""), "{line}");
    assert!(line.contains("},{\"phase\":\"solve\""), "{line}");
    assert_eq!(spans.len(), 2, "{line}");
    let [(parse, parse_dur), (solve, solve_dur)] = spans[..] else {
        unreachable!()
    };

    // Each phase starts where `Instant` saw it start, within 2 % and the
    // few clock reads between them, and the phases keep their order.
    let near = |got: u64, want: Duration| {
        let want = want.as_nanos() as u64;
        got.abs_diff(want) <= want / 50 + 2_000
    };
    assert!(near(parse, at_parse - at_root), "parse at {parse}: {line}");
    assert!(near(solve, at_solve - at_root), "solve at {solve}: {line}");
    assert!(parse_dur >= gap.as_nanos() as u64, "{line}");
    assert!(
        parse + parse_dur + 2 * gap.as_nanos() as u64 <= solve,
        "{line}"
    );
    assert!(solve + solve_dur <= root_dur, "{line}");
    assert!(near(root_dur, at_end), "root lasts {root_dur}: {line}");
}
