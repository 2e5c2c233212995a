//! Argument parsing, the two passes, and everything that is printed.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::process::{Command, ExitCode};
use std::time::Instant;

use crate::contract::{self, Clock, MetricDecl};
use crate::e2e::{self, Budget, Samples, Verdict};
use crate::json::Json;
use crate::spans::{self, Recorder, SpanKind};
use crate::workloads::{Scenario, WorkloadId};
use crate::{host, micro, replay, stats};

/// Default root seed (the `scale` experiment's).
const DEFAULT_SEED: u64 = 0xC1A5_5CA1;

/// Repetitions when neither `--seconds` nor `--reps` is given.
const DEFAULT_REPS: usize = 5;

/// `--smoke`: every population at this share of its committed size, two
/// repetitions — the whole harness in seconds, for tests. Not a
/// measurement.
const SMOKE_SCALE: f64 = 0.02;
const SMOKE_REPS: usize = 2;

/// Fewest measure cycles of a traced pass under a time budget.
const MIN_TRACE_CYCLES: usize = 2;

const USAGE: &str = "usage: clash-benchmark --workload <fig4_static|churn_wan_seq|churn_wan_sharded|storm_lossy|all>
         [--seed S] [--seconds F | --reps N] [--trace 0|1 | --traced]
         [--check-repeat] [--smoke] [--out FILE] [--spans FILE]
       clash-benchmark --print-contract";

#[derive(Debug)]
struct Options {
    workload: String,
    seed: u64,
    budget: Option<Budget>,
    traced: bool,
    check_repeat: bool,
    smoke: bool,
    out: Option<String>,
    spans: Option<String>,
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(&hex.replace('_', ""), 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: String::new(),
        seed: DEFAULT_SEED,
        budget: None,
        traced: false,
        check_repeat: false,
        smoke: false,
        out: None,
        spans: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => o.workload = value()?.to_owned(),
            "--seed" => {
                let v = value()?;
                o.seed = parse_u64(v).ok_or_else(|| format!("--seed: not an integer: {v:?}"))?;
            }
            "--seconds" => {
                let v = value()?;
                let s: f64 = v
                    .parse()
                    .map_err(|_| format!("--seconds: not a number: {v:?}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {v}"));
                }
                o.budget = Some(Budget::Seconds(s));
            }
            "--reps" => {
                let v = value()?;
                let n: usize = v
                    .parse()
                    .map_err(|_| format!("--reps: not a count: {v:?}"))?;
                if n == 0 {
                    return Err("--reps must be at least 1".to_owned());
                }
                o.budget = Some(Budget::Reps(n));
            }
            "--trace" => {
                o.traced = match value()? {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got {v:?}")),
                }
            }
            "--traced" => o.traced = true,
            "--check-repeat" => o.check_repeat = true,
            "--smoke" => o.smoke = true,
            "--out" => o.out = Some(value()?.to_owned()),
            "--spans" => o.spans = Some(value()?.to_owned()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if o.workload.is_empty() {
        return Err("--workload is required".to_owned());
    }
    if o.traced && o.check_repeat {
        return Err("--check-repeat compares end-to-end passes; drop --traced".to_owned());
    }
    Ok(o)
}

/// One declared metric with the samples a run gathered for it. The
/// reported value is the median of the samples.
struct Row {
    decl: MetricDecl,
    values: Vec<f64>,
}

impl Row {
    fn value(&self) -> Option<f64> {
        stats::median(&self.values).filter(|v| v.is_finite())
    }
}

/// Pairs every declared metric with its samples; a declared metric with
/// no finite value, or a gathered one nobody declared, fails the run.
fn rows(decls: Vec<MetricDecl>, mut samples: Samples, verdict: &mut Verdict) -> Vec<Row> {
    let rows: Vec<Row> = decls
        .into_iter()
        .map(|decl| Row {
            values: samples.remove(&decl.name).unwrap_or_default(),
            decl,
        })
        .collect();
    let missing: Vec<&str> = rows
        .iter()
        .filter(|r| r.value().is_none())
        .map(|r| r.decl.name.as_str())
        .collect();
    let undeclared: Vec<&String> = samples.keys().collect();
    verdict.check(
        "metrics_match_contract",
        missing.is_empty() && undeclared.is_empty(),
        format!("missing or non-finite: {missing:?}; undeclared: {undeclared:?}"),
    );
    rows
}

/// Runs the untraced pass (twice with `--check-repeat`).
fn end_to_end_pass(
    scn: &Scenario,
    opts: &Options,
    budget: Budget,
    verdict: &mut Verdict,
) -> Result<(Vec<Row>, Json), String> {
    let reference = e2e::warm_up(scn, verdict)?;
    let first = e2e::measure(scn, budget, reference, verdict)?;
    let mut extra = vec![
        ("reps", Json::Int(first.reps as i64)),
        ("fingerprint", Json::str(format!("{reference:016x}"))),
    ];
    let rows_first = rows(contract::end_to_end(), first.samples, verdict);
    if opts.check_repeat {
        let second = e2e::measure(scn, budget, reference, verdict)?;
        extra.push((
            "repeat",
            check_repeat(&rows_first, &second.samples, verdict),
        ));
    }
    Ok((rows_first, Json::obj(extra)))
}

/// `--check-repeat`: two back-to-back passes of the same code must agree
/// — host-time medians within the metric's bound, virtual-time metrics
/// exactly, sample for sample.
fn check_repeat(rows_first: &[Row], second: &Samples, verdict: &mut Verdict) -> Json {
    let mut table = Vec::new();
    eprintln!("\n  repeat check (two passes, same code, same seed)");
    eprintln!(
        "  {:<26} {:>14} {:>14} {:>9} {:>7}  verdict",
        "metric", "first", "second", "delta", "bound"
    );
    for row in rows_first {
        let name = &row.decl.name;
        let again = second.get(name).map_or(&[][..], Vec::as_slice);
        let a = row.value().unwrap_or(f64::NAN);
        let b = stats::median(again).unwrap_or(f64::NAN);
        let bound = row.decl.bound.unwrap_or(0.0);
        let delta = (a - b).abs() / a.abs().min(b.abs());
        let ok = match row.decl.clock {
            Clock::Host => delta <= bound,
            // Passes under a time budget may differ in length; every
            // sample of both must be the one value the seed determines.
            Clock::Virtual => {
                !again.is_empty() && row.values.iter().chain(again).all(|v| *v == row.values[0])
            }
        };
        verdict.check(
            format!("repeat.{name}"),
            ok,
            format!("first {a}, second {b}, bound {bound}"),
        );
        eprintln!(
            "  {:<26} {:>14.6} {:>14.6} {:>8.2}% {:>7}  {}",
            name,
            a,
            b,
            delta * 100.0,
            match row.decl.clock {
                Clock::Host => format!("{bound}"),
                Clock::Virtual => "exact".to_owned(),
            },
            if ok { "ok" } else { "DISAGREE" }
        );
        table.push(Json::obj([
            ("name", Json::str(name.clone())),
            ("first", Json::Num(a)),
            ("second", Json::Num(b)),
            ("second_values", Json::nums(again)),
            ("relative_delta", Json::Num(delta)),
            ("ok", Json::Bool(ok)),
        ]));
    }
    Json::Arr(table)
}

/// Runs the traced pass: untraced repetitions for the numbers the
/// program itself reports, the traced replay for where `core` spends
/// the wall, and the micro-timings for the layers below it.
fn traced_pass(
    scn: &Scenario,
    opts: &Options,
    budget: Budget,
    verdict: &mut Verdict,
) -> Result<(Vec<Row>, Json), String> {
    let reference = e2e::warm_up(scn, verdict)?;
    let mut samples = Samples::new();
    let push = e2e::push;
    let (mut run_default, mut run_null) = (Vec::new(), Vec::new());
    let (mut wall_on, mut wall_off) = (Vec::new(), Vec::new());
    let mut last_traced: Option<Recorder> = None;
    let started = Instant::now();
    let mut cycles = 0usize;
    loop {
        let done = match budget {
            Budget::Reps(n) => cycles >= n,
            Budget::Seconds(s) => {
                cycles >= MIN_TRACE_CYCLES && started.elapsed().as_secs_f64() >= s
            }
        };
        if done {
            break;
        }
        // Untraced, default profiler: the program's own counts, virtual
        // statistics and phase profile.
        let mut rep = e2e::run_rep(scn, false)?;
        for (name, v) in e2e::layer_reads(&rep) {
            push(&mut samples, &name, v);
        }
        if cycles == 0 {
            for (name, v) in micro::layer_timings(scn, &rep.cluster) {
                push(&mut samples, name, v);
            }
        }
        let (events, messages, run_s) = (rep.result.events, rep.result.final_messages, rep.run_s);
        e2e::verify_rep(scn, &mut rep, reference, verdict);
        drop(rep);
        run_default.push(run_s);

        // Untraced, null profiler: what the always-on phase profiler costs.
        let mut rep = e2e::run_rep(scn, true)?;
        run_null.push(rep.run_s);
        e2e::verify_rep(scn, &mut rep, reference, verdict);
        drop(rep);

        // The replay, spans on then off: where `core` spends the run's
        // wall, and what recording the spans costs.
        let traced = replay::replay(scn, cycles as u32, true)?;
        verdict.check(
            "replay_reproduces_run",
            traced.events == events && traced.messages == messages,
            format!(
                "replay scheduled {} events, the run {}; message counters {}",
                traced.events,
                events,
                if traced.messages == messages {
                    "equal"
                } else {
                    "differ"
                }
            ),
        );
        let derived = replay::metrics(&traced);
        for (name, v) in derived.values {
            push(&mut samples, name, v);
        }
        push(
            &mut samples,
            "sim.residual_ratio",
            (run_s - derived.covered_s) / run_s,
        );
        wall_on.push(traced.wall_s);
        last_traced = Some(traced.recorder);
        wall_off.push(replay::replay(scn, cycles as u32, false)?.wall_s);
        cycles += 1;
    }
    let overhead = |with: &[f64], without: &[f64]| {
        let (a, b) = (stats::median(with)?, stats::median(without)?);
        Some((a - b) / b)
    };
    if let Some(v) = overhead(&run_default, &run_null) {
        push(&mut samples, "obs.profiler_overhead_ratio", v);
    }
    if let Some(v) = overhead(&wall_on, &wall_off) {
        push(&mut samples, "trace.overhead_ratio", v);
    }

    let recorder = last_traced.ok_or("traced pass made no cycle")?;
    // Every span's self time is in exactly one named share: the calls
    // into `core`, or the loop around them (the driver's own work).
    let shares: f64 = samples
        .iter()
        .filter(|(name, _)| name.starts_with("core.share.") || *name == "sim.replay_loop_share")
        .filter_map(|(_, v)| stats::median(v))
        .sum();
    eprintln!("  named shares (core.share.* + sim.replay_loop_share) sum to {shares:.3} of the replay wall");
    verdict.check(
        "shares_cover_replay_wall",
        shares >= 0.95,
        format!("named shares cover only {shares:.3} of the replay wall"),
    );
    if let Some(path) = &opts.spans {
        let file = File::create(path).map_err(|e| format!("{path}: {e}"))?;
        let mut out = BufWriter::new(file);
        spans::write_chrome_trace(&mut out, &recorder)
            .and_then(|()| out.flush())
            .map_err(|e| format!("{path}: {e}"))?;
        eprintln!("  wrote {} spans to {path}", recorder.spans().len());
    }
    let extra = Json::obj([
        ("cycles", Json::Int(cycles as i64)),
        ("fingerprint", Json::str(format!("{reference:016x}"))),
        ("named_share_sum", Json::Num(shares)),
        ("spans", span_summary(&recorder)),
    ]);
    Ok((rows(contract::per_layer(), samples, verdict), extra))
}

/// Per-call-kind timing summary of the last traced replay: median and
/// the highest percentile with at least ten samples beyond it.
fn span_summary(rec: &Recorder) -> Json {
    Json::obj(SpanKind::OPS.map(|kind| {
        let sorted = stats::sorted(&rec.durations_ns(kind));
        let mut fields = vec![
            ("samples", Json::Int(sorted.len() as i64)),
            (
                "p50_us",
                stats::percentile_sorted(&sorted, 0.5).map_or(Json::Null, |ns| Json::Num(ns / 1e3)),
            ),
        ];
        if let Some((p, ns)) = stats::tail_percentile(&sorted) {
            fields.push(("tail_percentile", Json::Num(p * 100.0)));
            fields.push(("tail_us", Json::Num(ns / 1e3)));
        }
        (kind.name(), Json::obj(fields))
    }))
}

fn print_table(title: &str, rows: &[Row]) {
    eprintln!("\n  {title}");
    eprintln!(
        "  {:<40} {:>6} {:>8} {:>14} {:>14} {:>14} {:>8} {:>4}",
        "metric", "unit", "clock", "median", "q1", "q3", "spread", "n"
    );
    for row in rows {
        let show = |v: Option<f64>| v.map_or("-".to_owned(), |v| format!("{v:.6}"));
        let quartiles = stats::quartiles(&row.values);
        eprintln!(
            "  {:<40} {:>6} {:>8} {:>14} {:>14} {:>14} {:>8} {:>4}",
            row.decl.name,
            row.decl.unit,
            row.decl.clock.as_str(),
            show(row.value()),
            show(quartiles.map(|q| q.0)),
            show(quartiles.map(|q| q.1)),
            stats::relative_spread(&row.values)
                .map_or("-".to_owned(), |s| format!("{:.2}%", s * 100.0)),
            row.values.len()
        );
    }
}

fn report_json(
    scn: &Scenario,
    opts: &Options,
    rows: &[Row],
    verdict: &Verdict,
    extra: Json,
) -> Json {
    let metrics = Json::obj(rows.iter().map(|row| {
        let q = stats::quartiles(&row.values);
        let mut fields = vec![
            ("unit", Json::str(row.decl.unit)),
            ("better", Json::str(row.decl.better.as_str())),
            ("clock", Json::str(row.decl.clock.as_str())),
        ];
        if let Some(bound) = row.decl.bound {
            fields.push(("bound", Json::Num(bound)));
        }
        fields.extend([
            ("median", row.value().map_or(Json::Null, Json::Num)),
            ("q1", q.map_or(Json::Null, |q| Json::Num(q.0))),
            ("q3", q.map_or(Json::Null, |q| Json::Num(q.1))),
            ("samples", Json::Int(row.values.len() as i64)),
            ("values", Json::nums(&row.values)),
        ]);
        (row.decl.name.clone(), Json::obj(fields))
    }));
    Json::obj([
        ("ok", Json::Bool(verdict.ok())),
        ("workload", Json::str(scn.id.name())),
        ("why", Json::str(scn.id.why())),
        (
            "mode",
            Json::str(if opts.traced { "traced" } else { "end_to_end" }),
        ),
        ("seed", Json::Int(scn.spec.seed as i64)),
        ("smoke", Json::Bool(opts.smoke)),
        ("servers", Json::Int(scn.spec.servers as i64)),
        ("sources", Json::Int(scn.spec.sources as i64)),
        ("host", host::host_block()),
        ("attempted", Json::Int(verdict.attempted as i64)),
        ("failed", Json::Int(verdict.failed as i64)),
        (
            "checks",
            Json::Arr(
                verdict
                    .checks
                    .iter()
                    .map(|c| {
                        Json::obj([
                            ("name", Json::str(c.name.clone())),
                            ("ok", Json::Bool(c.ok)),
                            (
                                "detail",
                                if c.ok {
                                    Json::Null
                                } else {
                                    Json::str(c.detail.clone())
                                },
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("run", extra),
        ("metrics", metrics),
    ])
}

/// Runs one workload in this process and prints its result line.
fn run_one(id: WorkloadId, opts: &Options) -> Result<bool, String> {
    if cfg!(debug_assertions) && !opts.smoke {
        return Err(
            "refusing to measure a debug build: run with `cargo run --release` (or --smoke)"
                .to_owned(),
        );
    }
    let scale = if opts.smoke { SMOKE_SCALE } else { 1.0 };
    let scn = id.scenario(opts.seed, scale);
    let budget = opts.budget.unwrap_or(Budget::Reps(if opts.smoke {
        SMOKE_REPS
    } else {
        DEFAULT_REPS
    }));
    eprintln!(
        "clash-benchmark: {} seed={:#x} servers={} sources={} {}{}",
        id.name(),
        opts.seed,
        scn.spec.servers,
        scn.spec.sources,
        if opts.traced { "traced" } else { "end-to-end" },
        if opts.smoke {
            " (smoke: not a measurement)"
        } else {
            ""
        }
    );
    let mut verdict = Verdict::default();
    let (rows, extra) = if opts.traced {
        traced_pass(&scn, opts, budget, &mut verdict)?
    } else {
        end_to_end_pass(&scn, opts, budget, &mut verdict)?
    };
    print_table(
        if opts.traced {
            "per-layer metrics (median over cycles)"
        } else {
            "end-to-end metrics (median over repetitions)"
        },
        &rows,
    );
    eprintln!();
    for c in &verdict.checks {
        eprintln!(
            "  check {:<32} {}",
            c.name,
            if c.ok {
                "ok".to_owned()
            } else {
                format!("FAILED: {}", c.detail)
            }
        );
    }
    if let Some(path) = &opts.out {
        std::fs::write(
            path,
            report_json(&scn, opts, &rows, &verdict, extra).pretty(),
        )
        .map_err(|e| format!("{path}: {e}"))?;
    }
    let line = Json::obj([
        ("correct", Json::Bool(verdict.ok())),
        ("attempted", Json::Int(verdict.attempted.max(1) as i64)),
        ("failed", Json::Int(verdict.failed as i64)),
        (
            "metrics",
            Json::obj(rows.iter().map(|row| {
                (
                    row.decl.name.clone(),
                    Json::obj([
                        ("value", row.value().map_or(Json::Null, Json::Num)),
                        ("unit", Json::str(row.decl.unit)),
                    ]),
                )
            })),
        ),
    ]);
    println!("{line}");
    Ok(verdict.ok())
}

/// `--workload all`: one child process per workload, so `peak_rss_mb`
/// belongs to that workload alone. Children inherit stdout/stderr; their
/// `--out` reports are merged into one file.
fn run_all(opts: &Options, args: &[String]) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut ok = BTreeMap::new();
    let mut reports = Vec::new();
    for id in WorkloadId::ALL {
        let mut child_args = Vec::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--workload" => {
                    it.next();
                }
                "--out" | "--spans" => {
                    let path = it.next().expect("validated by parse_args");
                    child_args.extend([arg.clone(), format!("{path}.{}", id.name())]);
                }
                _ => child_args.push(arg.clone()),
            }
        }
        let status = Command::new(&exe)
            .args(["--workload", id.name()])
            .args(&child_args)
            .status()
            .map_err(|e| format!("spawning {}: {e}", exe.display()))?;
        ok.insert(id.name(), status.success());
        if let Some(out) = &opts.out {
            let part = format!("{out}.{}", id.name());
            if let Ok(text) = std::fs::read_to_string(&part) {
                reports.push(format!("\"{}\": {}", id.name(), text.trim_end()));
                let _ = std::fs::remove_file(&part);
            }
        }
    }
    let all_ok = ok.values().all(|&v| v);
    if let Some(out) = &opts.out {
        let merged = format!(
            "{{\"ok\": {all_ok}, \"workloads\": {{\n{}\n}}}}\n",
            reports.join(",\n")
        );
        std::fs::write(out, merged).map_err(|e| format!("{out}: {e}"))?;
    }
    println!(
        "{}",
        Json::obj([
            ("ok", Json::Bool(all_ok)),
            (
                "workloads",
                Json::obj(ok.iter().map(|(name, &v)| (*name, Json::Bool(v)))),
            ),
        ])
    );
    Ok(all_ok)
}

/// The binary's whole `main`: parses `args` (without the program name),
/// runs, prints, and returns the process exit code — 0 when every check
/// passed, 1 when one failed, 2 for usage errors and refusals.
pub fn main(args: &[String]) -> ExitCode {
    if args.iter().any(|a| a == "--print-contract") {
        print!("{}", contract::benchmark_json().pretty());
        return ExitCode::SUCCESS;
    }
    let opts = match parse_args(args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = if opts.workload == "all" {
        run_all(&opts, args)
    } else {
        match WorkloadId::from_name(&opts.workload) {
            Some(id) => run_one(id, &opts),
            None => {
                eprintln!("error: unknown workload {:?}\n{USAGE}", opts.workload);
                return ExitCode::from(2);
            }
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_parse_as_decimal_or_hex() {
        assert_eq!(parse_u64("42"), Some(42));
        assert_eq!(parse_u64("0xC1A55CA1"), Some(0xC1A5_5CA1));
        assert_eq!(parse_u64("0xc1a5_5ca1"), Some(0xC1A5_5CA1));
        assert_eq!(parse_u64("-1"), None);
        assert_eq!(parse_u64("seed"), None);
    }

    #[test]
    fn driver_arguments_parse() {
        let args: Vec<String> = "--workload storm_lossy --seed 7 --seconds 15 --trace 1"
            .split(' ')
            .map(str::to_owned)
            .collect();
        let o = parse_args(&args).unwrap();
        assert_eq!(
            (o.workload.as_str(), o.seed, o.traced),
            ("storm_lossy", 7, true)
        );
        assert!(matches!(o.budget, Some(Budget::Seconds(s)) if s == 15.0));
    }

    fn samples(pairs: &[(&str, &[f64])]) -> Samples {
        pairs
            .iter()
            .map(|(k, v)| ((*k).to_owned(), v.to_vec()))
            .collect()
    }

    /// Host-time medians may differ by the bound; virtual-time samples
    /// must be equal one for one.
    #[test]
    fn repeat_check_bounds_host_time_and_pins_virtual_time() {
        let decls: Vec<MetricDecl> = contract::end_to_end()
            .into_iter()
            .filter(|d| d.name == "run_s" || d.name == "sim_msgs_per_event")
            .collect();
        let first = samples(&[
            ("run_s", &[2.0, 2.2, 2.1]),
            ("sim_msgs_per_event", &[12.5, 12.5]),
        ]);
        let table = |second: &Samples| {
            let mut verdict = Verdict::default();
            let rows = rows(decls.clone(), first.clone(), &mut verdict);
            check_repeat(&rows, second, &mut verdict);
            verdict
        };
        let close = samples(&[
            ("run_s", &[2.4, 2.5, 2.6]),
            ("sim_msgs_per_event", &[12.5, 12.5]),
        ]);
        assert!(table(&close).ok(), "19 % apart is inside the 25 % bound");
        let far = samples(&[
            ("run_s", &[2.9, 3.0, 3.1]),
            ("sim_msgs_per_event", &[12.5, 12.5]),
        ]);
        let v = table(&far);
        assert!(v.checks.iter().any(|c| c.name == "repeat.run_s" && !c.ok));
        let drifted = samples(&[
            ("run_s", &[2.0, 2.2, 2.1]),
            ("sim_msgs_per_event", &[12.5, 12.6]),
        ]);
        let v = table(&drifted);
        assert!(v
            .checks
            .iter()
            .any(|c| c.name == "repeat.sim_msgs_per_event" && !c.ok));
        assert!(v.checks.iter().any(|c| c.name == "repeat.run_s" && c.ok));
    }

    #[test]
    fn missing_and_undeclared_metrics_fail_the_run() {
        let decls = contract::end_to_end();
        let mut all = Samples::new();
        for d in &decls {
            all.insert(d.name.clone(), vec![1.0]);
        }
        let mut verdict = Verdict::default();
        rows(decls.clone(), all.clone(), &mut verdict);
        assert!(verdict.ok());

        let mut missing = all.clone();
        missing.remove("run_s");
        let mut verdict = Verdict::default();
        rows(decls.clone(), missing, &mut verdict);
        assert!(!verdict.ok());

        let mut extra = all.clone();
        extra.insert("made_up".to_owned(), vec![1.0]);
        let mut verdict = Verdict::default();
        rows(decls.clone(), extra, &mut verdict);
        assert!(!verdict.ok());

        let mut nan = all;
        nan.insert("run_s".to_owned(), vec![f64::NAN]);
        let mut verdict = Verdict::default();
        rows(decls, nan, &mut verdict);
        assert!(!verdict.ok());
    }
}
