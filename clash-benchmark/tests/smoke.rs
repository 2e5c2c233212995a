//! Runs the real binary at `--smoke` scale: every workload, both passes,
//! every declared metric present with a number, every output check green.

use std::process::Command;

use clash_benchmark::contract::{self, MetricDecl};
use clash_benchmark::workloads::WorkloadId;

const BIN: &str = env!("CARGO_BIN_EXE_clash-benchmark");

/// Runs the binary and returns (exit ok, last stdout line, stderr).
fn run(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(BIN)
        .args(args)
        .output()
        .expect("spawn clash-benchmark");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let last = stdout.lines().last().unwrap_or_default().to_owned();
    (
        out.status.success(),
        last,
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// The result line must carry exactly the declared metrics, each with a
/// numeric value and its declared unit.
fn assert_result_line(line: &str, declared: &[MetricDecl], context: &str) {
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": ")
            && line.contains("\"failed\": 0, \"metrics\": {"),
        "{context}: unexpected result line: {line}"
    );
    for d in declared {
        let needle = format!("\"{}\": {{\"value\": ", d.name);
        let at = line
            .find(&needle)
            .unwrap_or_else(|| panic!("{context}: metric {} missing from {line}", d.name));
        let rest = &line[at + needle.len()..];
        let (value, unit) = rest
            .split_once(", \"unit\": \"")
            .expect("unit follows value");
        assert!(
            value.parse::<f64>().is_ok_and(f64::is_finite),
            "{context}: {} has value {value:?}",
            d.name
        );
        assert!(
            unit.starts_with(&format!("{}\"}}", d.unit)),
            "{context}: {} unit",
            d.name
        );
    }
    assert_eq!(
        line.matches("{\"value\": ").count(),
        declared.len(),
        "{context}: undeclared metrics in {line}"
    );
}

#[test]
fn every_workload_reports_every_declared_metric() {
    for w in WorkloadId::ALL {
        let (ok, line, err) = run(&["--workload", w.name(), "--smoke", "--trace", "0"]);
        assert!(ok, "{} end-to-end failed:\n{err}", w.name());
        assert_result_line(&line, &contract::end_to_end(), w.name());
        assert!(!err.contains("FAILED"), "{}:\n{err}", w.name());

        let (ok, line, err) = run(&["--workload", w.name(), "--smoke", "--trace", "1"]);
        assert!(ok, "{} traced failed:\n{err}", w.name());
        assert_result_line(&line, &contract::per_layer(), w.name());
        assert!(
            err.contains("check replay_reproduces_run"),
            "{}:\n{err}",
            w.name()
        );
        assert!(!err.contains("FAILED"), "{}:\n{err}", w.name());
    }
}

#[test]
fn sharded_run_is_checked_against_the_sequential_one() {
    let (ok, _, err) = run(&["--workload", "churn_wan_sharded", "--smoke"]);
    assert!(ok, "{err}");
    assert!(
        err.lines().any(|l| l
            .split_whitespace()
            .eq(["check", "sharded_equals_sequential", "ok"])),
        "{err}"
    );
}

#[test]
fn same_seed_same_virtual_metrics_other_seed_other_inputs() {
    let value = |line: &str, name: &str| {
        let needle = format!("\"{name}\": {{\"value\": ");
        let rest = &line[line.find(&needle).expect("metric present") + needle.len()..];
        rest.split_once(',').expect("unit follows").0.to_owned()
    };
    let run_seed = |seed: &str| run(&["--workload", "storm_lossy", "--smoke", "--seed", seed]).1;
    let (a, b, c) = (run_seed("7"), run_seed("7"), run_seed("8"));
    for name in ["sim_msgs_per_event", "sim_active_server_ratio"] {
        assert_eq!(
            value(&a, name),
            value(&b, name),
            "{name} must repeat exactly"
        );
    }
    assert_ne!(
        value(&a, "sim_msgs_per_event"),
        value(&c, "sim_msgs_per_event"),
        "another seed must generate other inputs"
    );
}

#[test]
fn all_runs_each_workload_and_merges_the_reports() {
    // Cargo's per-package scratch directory, inside the target directory.
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("all-smoke");
    std::fs::create_dir_all(&dir).unwrap();
    let out = dir.join("report.json");
    let spans = dir.join("spans.json");
    let (ok, line, err) = run(&[
        "--workload",
        "all",
        "--smoke",
        "--traced",
        "--out",
        out.to_str().unwrap(),
        "--spans",
        spans.to_str().unwrap(),
    ]);
    assert!(ok, "{err}");
    assert!(line.starts_with("{\"ok\": true"), "{line}");
    let report = std::fs::read_to_string(&out).unwrap();
    assert!(report.starts_with("{\"ok\": true, \"workloads\": {"));
    for w in WorkloadId::ALL {
        assert!(
            report.contains(&format!("\"{}\": {{", w.name())),
            "{} missing",
            w.name()
        );
        let trace = std::fs::read_to_string(format!("{}.{}", spans.display(), w.name())).unwrap();
        assert!(trace.contains("\"name\": \"core.run_load_check\", \"ph\": \"X\""));
    }
    for key in [
        "\"host\": {",
        "\"cores\": ",
        "\"cpu_model\": ",
        "\"rustc\": ",
        "\"commit\": ",
    ] {
        assert!(report.contains(key), "report lacks {key}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn bad_usage_exits_2_without_a_result_line() {
    for args in [
        &["--workload", "nope"][..],
        &["--seed", "1"],
        &["--workload", "fig4_static", "--seconds", "0"],
        &["--workload", "fig4_static", "--trace", "2"],
        &["--workload", "fig4_static", "--traced", "--check-repeat"],
    ] {
        let out = Command::new(BIN).args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}

/// Debug builds are not measurements: without `--smoke` the harness
/// refuses. (Under `cargo test --release` there is nothing to refuse.)
#[test]
fn debug_builds_refuse_to_measure() {
    if cfg!(debug_assertions) {
        let out = Command::new(BIN)
            .args(["--workload", "fig4_static", "--reps", "1"])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2));
        assert!(out.stdout.is_empty());
        assert!(String::from_utf8_lossy(&out.stderr).contains("refusing to measure a debug build"));
    }
}
