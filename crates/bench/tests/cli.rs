//! The `reproduce` binary refuses what it does not understand: each
//! command line below exits 2 with the usage text before running any
//! experiment.

use std::process::Command;

#[test]
fn unknown_arguments_and_bad_scales_print_the_usage_and_exit_2() {
    let cases: [(&[&str], &str); 6] = [
        (
            &["--scale", "smok", "table1"],
            "--scale takes full or smoke",
        ),
        (&["table1", "--scale"], "--scale needs a value"),
        (&["--scale", "smoke", "--scale", "full"], "given twice"),
        (&["--bogus"], "unknown argument \"--bogus\""),
        (&["table3"], "unknown argument \"table3\""),
        (&["replication"], "unknown argument \"replication\""),
    ];
    for (args, why) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
            .args(args)
            .output()
            .expect("run reproduce");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
        assert!(stderr.contains(why), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} ran an experiment");
    }
}
