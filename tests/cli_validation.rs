//! The `albatross` CLI rejects non-positive scenario flags with a usage
//! error and a non-zero exit instead of panicking inside the simulator.

use std::process::{Command, Output};

fn albatross(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_albatross"))
        .args(args)
        .output()
        .expect("albatross binary runs")
}

#[test]
fn non_positive_flags_are_usage_errors_not_panics() {
    for (flag, value) in [
        ("--cores", "0"),
        ("--flows", "0"),
        ("--pps", "0"),
        ("--ratelimit", "0"),
        ("--acl-drop-mod", "0"),
        ("--ratelimit", "-5"),
        ("--ratelimit", "NaN"),
    ] {
        let out = albatross(&["run", flag, value]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{flag} {value}: {stderr}");
        assert!(!stderr.contains("panicked"), "{flag} {value}: {stderr}");
        assert!(
            stderr.contains(&format!("error: {flag} must be positive")),
            "{flag} {value}: {stderr}"
        );
        assert!(
            stderr.contains("usage: albatross"),
            "{flag} {value}: {stderr}"
        );
        assert!(
            out.stdout.is_empty(),
            "{flag} {value} must not run a scenario"
        );
    }
}

#[test]
fn smallest_valid_scenario_still_runs() {
    let out = albatross(&[
        "run", "--cores", "1", "--flows", "1", "--pps", "1000", "--millis", "1",
    ]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("offered"), "{stdout}");
}
