//! The `ig-lint` binary's command line: help, usage errors and exit codes.

use std::process::{Command, Output};

fn ig_lint(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ig-lint"))
        .args(args)
        .output()
        .expect("run ig-lint")
}

#[test]
fn help_prints_usage_on_stdout_and_exits_zero() {
    for args in [
        &["--help"][..],
        &["-h"],
        &["check", "--help"],
        &["rules", "-h"],
    ] {
        let out = ig_lint(args);
        assert_eq!(out.status.code(), Some(0), "{args:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.starts_with("usage: ig-lint check"),
            "{args:?}: {stdout}"
        );
        assert!(out.stderr.is_empty(), "{args:?}");
    }
}

#[test]
fn unknown_commands_and_flags_exit_two() {
    for args in [
        &["--bogus"][..],
        &["fix"],
        &["check", "--bogus"],
        &["threads", "--root"],
        &[],
    ] {
        let out = ig_lint(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("usage: ig-lint check"),
            "{args:?}: {stderr}"
        );
    }
}
