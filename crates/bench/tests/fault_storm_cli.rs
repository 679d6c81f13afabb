//! The `fault_storm` command line: its output per family is pinned to a
//! golden, and command lines it cannot honour are rejected with exit 2.

use std::process::{
    Command,
    Output,
};

fn fault_storm(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fault_storm"))
        .args(args)
        .env_remove("MIRAGE_FAULT_TRACE")
        .output()
        .expect("run fault_storm")
}

/// Every family's sweep summary (and the verbose single-seed reports)
/// must match the golden byte for byte: each `$ fault_storm ARGS` line
/// is followed by that command's stdout and `exit N`. Regenerate with a
/// loop over the golden's command lines, appending each one's stdout
/// and exit code.
#[test]
fn families_match_golden() {
    let golden = include_str!("golden/fault_storm_families.txt");
    let mut out = String::new();
    for line in golden.lines() {
        let Some(args) = line.strip_prefix("$ fault_storm ") else { continue };
        let run = fault_storm(&args.split_whitespace().collect::<Vec<_>>());
        out.push_str(&format!("{line}\n{}", String::from_utf8_lossy(&run.stdout)));
        out.push_str(&format!("exit {}\n", run.status.code().expect("exit code")));
    }
    assert_eq!(out, golden);
}

#[test]
fn bad_command_lines_exit_2_with_usage() {
    for args in [
        &["--seeds"][..],
        &["--seeds", "x"],
        &["--sites"],
        &["--migrate", "--delta"],
        &["--migrate", "--protocol", "li"],
        &["--openloop", "--large"],
        &["--matrix", "--delta"],
        &["--sites", "70", "--migrate"],
    ] {
        let run = fault_storm(args);
        assert_eq!(run.status.code(), Some(2), "fault_storm {args:?}");
        assert!(run.stdout.is_empty(), "fault_storm {args:?} printed to stdout");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert!(stderr.contains("usage: fault_storm"), "fault_storm {args:?}: {stderr}");
    }
}

/// `--sites N` shapes a sweep too, and agrees with `--large`.
#[test]
fn pinned_site_count_shapes_sweeps() {
    let large = fault_storm(&["--seeds", "2", "--large"]);
    let pinned = fault_storm(&["--seeds", "2", "--sites", "70"]);
    let both = fault_storm(&["--seeds", "2", "--large", "--sites", "70"]);
    assert!(large.status.success() && pinned.status.success());
    assert_ne!(large.stdout, pinned.stdout, "--sites 70 ran the random-size generator");
    assert_eq!(pinned.stdout, both.stdout);
}
