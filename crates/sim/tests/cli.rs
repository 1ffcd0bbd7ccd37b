//! The `sim` binary refuses what it does not understand: each command
//! line below exits 2 with the usage text before running anything.

use std::process::Command;

fn refused(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_sim"))
        .args(args)
        .output()
        .expect("run sim");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} ran something");
    stderr
}

#[test]
fn unknown_flags_and_bad_values_print_the_usage_and_exit_2() {
    let cases: [(&[&str], &str); 12] = [
        (&["run", "--seedz", "3"], "unknown argument \"--seedz\""),
        (&["run", "--seeds", "x"], "--seeds takes a number"),
        (&["run", "--seeds"], "--seeds needs a value"),
        (&["run", "--seeds", "1", "--seeds", "2"], "given twice"),
        (&["run", "--ops", "-1"], "--ops takes a number"),
        (&["run", "--engine", "single"], "was removed"),
        (&["run", "--crash", "maybe"], "unknown --crash value"),
        (&["run", "--mutate", "nope"], "unknown mutation"),
        (&["repl", "--replicas", "two"], "--replicas takes a number"),
        (
            &["repl", "--engine", "wire"],
            "unknown argument \"--engine\"",
        ),
        (&["replay"], "replay takes"),
        (&["sweep"], "unknown command"),
    ];
    for (args, why) in cases {
        let stderr = refused(args);
        assert!(stderr.contains(why), "{args:?}: {stderr}");
    }
}

#[test]
fn the_run_record_echoes_its_engine_and_seeds() {
    let out = Command::new(env!("CARGO_BIN_EXE_sim"))
        .args(["run", "--engine", "sharded", "--seeds", "1", "--ops", "5"])
        .args(["--crash", "off", "--json"])
        .output()
        .expect("run sim");
    assert!(out.status.success());
    let record = String::from_utf8_lossy(&out.stdout);
    assert!(
        record.starts_with(r#"{"experiment":"sim","engine":"sharded","seeds":1,"#),
        "{record}"
    );
}
