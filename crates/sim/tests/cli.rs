//! The `clash-sim` front door, driven as a process: what it prints, which
//! experiments it lists, and its exit codes (0 ok, 1 a failed run, 2 a
//! command line it cannot read). Every case here is cheap — nothing runs
//! a full-scale experiment.

use std::collections::BTreeSet;
use std::process::{Command, Output};

use clash_sim::experiments::demos;

fn clash_sim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_clash-sim"))
        .args(args)
        .output()
        .expect("spawn clash-sim")
}

fn stdout(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).expect("utf-8 stdout")
}

fn stderr(out: &Output) -> String {
    String::from_utf8(out.stderr.clone()).expect("utf-8 stderr")
}

#[test]
fn fig1_prints_exactly_the_figure() {
    let out = clash_sim(&["fig1_tree_demo"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert_eq!(stdout(&out), demos::figure1());
}

/// `--help` lists one entry per documented subcommand plus
/// `all_experiments`, and the crate docs map every `experiments` module
/// to at least one of them.
#[test]
fn help_lists_one_entry_per_experiment_module() {
    let out = clash_sim(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    let help = stdout(&out);
    let listed: Vec<&str> = help
        .lines()
        .filter_map(|l| l.strip_prefix("  "))
        .filter(|l| !l.starts_with(' '))
        .filter_map(|l| l.split_whitespace().next())
        .collect();

    // `| … | `subcommand` | [`experiments::module`] |` rows of lib.rs.
    let mut documented = BTreeSet::new();
    let mut covered = BTreeSet::new();
    for row in include_str!("../src/lib.rs").lines() {
        let Some((_, module)) = row.split_once("[`experiments::") else {
            continue;
        };
        let subcommand = row.split('`').nth(1).expect("a `subcommand` cell");
        documented.insert(subcommand.to_owned());
        covered.insert(module.split('`').next().unwrap().to_owned());
    }
    documented.insert("all_experiments".to_owned());
    let unique: BTreeSet<String> = listed.iter().map(|s| (*s).to_owned()).collect();
    assert_eq!(unique.len(), listed.len(), "duplicate entries: {listed:?}");
    assert_eq!(unique, documented, "--help vs the lib.rs table");

    let modules: BTreeSet<String> = include_str!("../src/experiments/mod.rs")
        .lines()
        .filter_map(|l| l.strip_prefix("pub mod "))
        .map(|m| m.trim_end_matches(';').to_owned())
        .collect();
    assert_eq!(
        covered, modules,
        "every experiments module has a subcommand"
    );
}

#[test]
fn unreadable_command_lines_exit_2_before_running() {
    for args in [
        &["no_such_experiment"][..],
        &[],
        &["chaos", "--campaign", "8"],
        &["fig4_load", "--scale", "abc"],
        &["fig4_load", "--scale", "2"],
        &["churn", "--seed"],
        &["fig1_tree_demo", "--out", "x"],
    ] {
        let out = clash_sim(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {}", stderr(&out));
        assert!(stdout(&out).is_empty(), "{args:?} printed a table");
        assert!(stderr(&out).contains("usage: clash-sim"), "{args:?}");
    }
}

#[test]
fn unwritable_output_exits_1() {
    let file = std::env::temp_dir().join(format!("clash-sim-cli-{}", std::process::id()));
    std::fs::write(&file, "a regular file, not a directory").unwrap();
    let out = clash_sim(&[
        "fig3_workloads",
        "--sources",
        "1000",
        "--out",
        file.to_str().unwrap(),
    ]);
    std::fs::remove_file(&file).ok();
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(stderr(&out).starts_with("clash-sim fig3_workloads: "));
    assert!(!stderr(&out).contains("usage:"));
}
