//! The `sweep` binary's argument contract: every network, accelerator,
//! profile and seed is validated before the CSV header, and a bad one
//! exits 2 with a one-line message and nothing on stdout.

use std::process::{Command, Output};

fn sweep(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sweep"))
        .args(args)
        .output()
        .expect("spawn sweep")
}

#[test]
fn bad_arguments_exit_2_before_any_output() {
    for (args, culprit) in [
        (&["--seeds", "x"][..], "\"x\""),
        (&["--seeds", "1,,2"][..], "\"\""),
        (&["--accelerators", "mocha,bogus"][..], "\"bogus\""),
        (&["--networks", "tiny,bogus"][..], "\"bogus\""),
        (&["--profiles", "dense,bogus"][..], "\"bogus\""),
    ] {
        let out = sweep(&[&["--quick"][..], args].concat());
        let err = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(out.stdout.is_empty(), "{args:?} printed before failing");
        assert_eq!(err.lines().count(), 1, "{args:?}: {err}");
        assert!(err.contains(culprit), "{args:?}: {err}");
    }
}

#[test]
fn a_valid_sweep_prints_one_row_per_cell() {
    let out = sweep(&[
        "--networks",
        "tiny",
        "--accelerators",
        "mocha,tiling",
        "--profiles",
        "sparse",
        "--seeds",
        "1,2",
    ]);
    assert!(out.status.success());
    let csv = String::from_utf8(out.stdout).unwrap();
    let lines: Vec<&str> = csv.lines().collect();
    assert!(lines[0].starts_with("network,accelerator,profile,seed,"));
    assert_eq!(lines.len(), 1 + 2 * 2, "{csv}");
    assert!(lines[1].starts_with("tiny,mocha,sparse,1,"));
    assert!(lines[4].starts_with("tiny,tiling,sparse,2,"));
}
