//! The `tables` command line: help and a static table exit 0; a stray
//! argument, an unknown flag, a flag missing its value and the retired
//! commands exit 2 with the usage text instead of running something else.

use std::process::{Command, Output};

fn tables(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tables")).args(args).output().expect("tables runs")
}

#[test]
fn help_and_static_tables_exit_zero() {
    for args in [&["--help"][..], &["table5_1"]] {
        let out = tables(args);
        assert_eq!(out.status.code(), Some(0), "tables {args:?}: {out:?}");
        assert!(!out.stdout.is_empty(), "tables {args:?} printed nothing");
    }
}

#[test]
fn stray_arguments_and_retired_commands_exit_two_with_usage() {
    for args in [
        &["fastpath", "extra"][..],
        &["table5_1", "--json", "bench.json"],
        &["table5_1", "--iters"],
        &["load"],
        &["scale"],
        &["contention"],
        &["checkbench", "bench.json"],
        &["paper"],
    ] {
        let out = tables(args);
        assert_eq!(out.status.code(), Some(2), "tables {args:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("Usage: tables"), "tables {args:?} stderr: {stderr}");
    }
}
