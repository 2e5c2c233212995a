//! `clash-sim <experiment> [flags]`: one front door to every experiment —
//! the paper's figures and claims plus the churn, netfault, availability,
//! scale and chaos extensions; `--help` lists them with their flags.
//! Tables go to stdout, progress and `wrote …` notices to stderr. A command
//! line that cannot be read exits 2 with usage; a failed run exits 1.

use std::process::ExitCode;
use std::time::Instant;

use clash_obs::TraceMode;
use clash_sim::experiments::{
    ablation, availability, chaos, churn, demos, depth_conv, fig3, fig4, fig5, netfault,
    range_queries, scale, servers_saved,
};
use clash_sim::report::{self, Args, Failure};

type Outcome = Result<(), Failure>;

/// One experiment command. `flags` is what `--help` shows, and its
/// `[--flag VALUE]` entries are exactly the flags the command accepts.
struct Command {
    name: &'static str,
    flags: &'static str,
    about: &'static str,
    run: fn(&Args) -> Outcome,
}

#[rustfmt::skip]
const COMMANDS: &[Command] = &[
    Command { name: "fig1_tree_demo", flags: "",
        about: "Figure 1: the binary-splitting tree of key group 011*",
        run: |_| { print!("{}", demos::figure1()); Ok(()) } },
    Command { name: "fig2_server_table", flags: "",
        about: "Figure 2: the work table of s25 and the three ACCEPT_OBJECT cases",
        run: |_| { print!("{}", demos::figure2()); Ok(()) } },
    Command { name: "fig3_workloads", flags: "[--sources N] [--out DIR]",
        about: "Figure 3: workload A/B/C key distributions over the 8-bit base",
        run: fig3_step },
    Command { name: "fig4_load", flags: "[--scale F] [--seed S] [--out DIR]",
        about: "Figure 4: load, utilization, depth and active servers, CLASH vs DHT",
        run: |a| fig4_step(a).map(drop) },
    Command { name: "fig5_overhead", flags: "[--scale F] [--seed S] [--out DIR]",
        about: "Figure 5: messages/s/server by workload, Ld and query clients",
        run: fig5_step },
    Command { name: "depth_convergence",
        flags: "[--servers N] [--sources N] [--lookups N] [--seed S]",
        about: "§5 claim: depth searches converge well below ⌈log₂ N⌉ probes",
        run: depth_step },
    Command { name: "servers_saved", flags: "[--scale F] [--seed S]",
        about: "§7 claim: CLASH uses up to ~80% fewer servers than basic DHT",
        run: |a| {
            let (scale, seed) = (a.scale()?, a.seed()?);
            eprintln!("running Figure 4 scenario at scale {scale} to derive savings...");
            print!("{}", servers_saved::render(&servers_saved::run(scale, seed)?));
            Ok(())
        } },
    Command { name: "range_queries", flags: "[--scale F] [--queries N] [--seed S]",
        about: "§7 extension: servers touched per prefix range, CLASH vs DHT",
        run: |a| {
            let (scale, queries) = (a.scale()?, a.number("--queries")?.unwrap_or(200));
            eprintln!("running range-query comparison at scale {scale}...");
            let out = range_queries::run(scale, queries, a.seed()?)?;
            print!("{}", range_queries::render(&out));
            Ok(())
        } },
    Command { name: "ablation", flags: "[--scale F] [--seed S]",
        about: "split policy, initial depth, merge headroom and virtual servers",
        run: |a| ablation_step(a.scale()?, a.seed()?) },
    Command { name: "churn", flags: "[--scale F] [--seed S] [--out DIR] [--trace PATH]",
        about: "live joins, drains and crashes under load, plus a flash crowd",
        run: churn_step },
    Command { name: "netfault", flags: "[--scale F] [--seed S] [--out DIR] [--trace PATH]",
        about: "locate latency by link model, lossy links, partition and heal",
        run: netfault_step },
    Command { name: "availability", flags: "[--scale F] [--seed S] [--out DIR]",
        about: "crash recovery by replication factor r = 0..3",
        run: availability_step },
    Command { name: "scale",
        flags: "[--scale F] [--seed S] [--cells NAMES] [--out DIR] [--bench-out PATH] \
                [--min-events-per-sec F] [--min-churn-events-per-sec F]",
        about: "protocol-core cost from the paper's 1000-server cell to ~10x it",
        run: scale_cmd },
    Command { name: "chaos", flags: "[--scale F] [--campaigns N] [--seed S] [--out DIR]",
        about: "seeded fault-injection campaign with invariant checks and shrunk repros",
        run: |a| chaos_step(a, a.number("--campaigns")?.unwrap_or(64)) },
    Command { name: "all_experiments", flags: "[--scale F] [--seed S] [--out DIR]",
        about: "every experiment above in sequence, writing all CSVs",
        run: all_experiments },
];

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let name = argv.first().map_or("", String::as_str);
    if name == "--help" {
        print!("{}", usage());
        return ExitCode::SUCCESS;
    }
    let Some(cmd) = COMMANDS.iter().find(|c| c.name == name) else {
        if !name.is_empty() {
            eprint!("clash-sim: no experiment named {name:?}\n\n");
        }
        eprint!("{}", usage());
        return ExitCode::from(2);
    };
    match Args::parse(&argv[1..], cmd.flags).and_then(|args| (cmd.run)(&args)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(Failure::Usage(e)) => {
            eprintln!("clash-sim {name}: {e}");
            eprintln!("usage: clash-sim {name} {}", cmd.flags);
            ExitCode::from(2)
        }
        Err(Failure::Run(e)) => {
            eprintln!("clash-sim {name}: {e}");
            ExitCode::FAILURE
        }
    }
}

fn usage() -> String {
    let mut s = String::from("usage: clash-sim <experiment> [flags]\n\nexperiments:\n");
    for c in COMMANDS {
        s.push_str(format!("  {} {}", c.name, c.flags).trim_end());
        s.push_str(&format!("\n      {}\n", c.about));
    }
    s
}

/// The paper's evaluation in one run. Steps read this command's flags and
/// default the rest (Figure 3 at 100 000 sources, the depth-convergence
/// defaults, no traces); ablation and chaos take their own sizes.
fn all_experiments(a: &Args) -> Outcome {
    let (scale, seed, started) = (a.scale()?, a.seed()?, Instant::now());
    println!("{}\n{}", demos::figure1(), demos::figure2());
    fig3_step(a)?;
    let f4 = fig4_step(a)?;
    println!("{}", servers_saved::render(&servers_saved::from_fig4(&f4)));
    fig5_step(a)?;
    depth_step(a)?;
    ablation_step(scale.min(0.1), seed)?;
    churn_step(a)?;
    netfault_step(a)?;
    availability_step(a)?;
    // 64 schedules at full scale, a handful in smoke runs.
    chaos_step(a, ((64.0 * scale).ceil() as u64).max(4))?;
    let (secs, out) = (started.elapsed().as_secs_f64(), a.out_dir());
    eprintln!("all experiments done in {secs:.1}s; CSVs in {out}/");
    Ok(())
}

fn fig3_step(a: &Args) -> Outcome {
    let (sources, out) = (a.number("--sources")?.unwrap_or(100_000), a.out_dir());
    let f3 = fig3::run(sources);
    println!("{}", fig3::render(&f3));
    fig3::write_csvs(&f3, &out)?;
    eprintln!("wrote {out}/fig3_workloads.csv");
    Ok(())
}

fn fig4_step(a: &Args) -> Result<fig4::Fig4Output, Failure> {
    let (scale, seed, out) = (a.scale()?, a.seed()?, a.out_dir());
    eprintln!("running Figure 4 at scale {scale} (4 variants in parallel)...");
    let f4 = fig4::run(scale, seed)?;
    println!("{}", fig4::render(&f4));
    fig4::write_csvs(&f4, &out)?;
    eprintln!("wrote {out}/fig4_timeseries.csv and fig4_phases.csv");
    Ok(f4)
}

fn fig5_step(a: &Args) -> Outcome {
    let (scale, seed, out) = (a.scale()?, a.seed()?, a.out_dir());
    eprintln!("running Figure 5 at scale {scale} (12 bars in parallel)...");
    let f5 = fig5::run(scale, seed)?;
    println!("{}", fig5::render(&f5));
    fig5::write_csvs(&f5, &out)?;
    eprintln!("wrote {out}/fig5_overhead.csv");
    Ok(())
}

fn depth_step(a: &Args) -> Outcome {
    let servers = a.number("--servers")?.unwrap_or(200);
    let sources = a.number("--sources")?.unwrap_or(20_000);
    let (lookups, seed) = (a.number("--lookups")?.unwrap_or(5_000), a.seed()?);
    eprintln!("running depth convergence over {servers} servers...");
    let dc = depth_conv::run(servers, sources, lookups, seed)?;
    println!("{}", depth_conv::render(&dc));
    Ok(())
}

fn ablation_step(scale: f64, seed: Option<u64>) -> Outcome {
    eprintln!("running ablation sweeps at scale {scale}...");
    println!("{}", ablation::render(&ablation::run(scale, seed)?));
    Ok(())
}

/// `--trace PATH`: where the Chrome trace goes, and the flight-recorder
/// mode that implies.
fn trace_arg(a: &Args) -> (Option<&str>, TraceMode) {
    let path = a.get("--trace");
    (path, path.map_or(TraceMode::Off, |_| TraceMode::Full))
}

fn churn_step(a: &Args) -> Outcome {
    let (scale, seed, out) = (a.scale()?, a.seed()?, a.out_dir());
    let (trace, mode) = trace_arg(a);
    eprintln!("running churn at scale {scale}...");
    let ch = churn::run(scale, seed, mode)?;
    println!("{}", churn::render(&ch));
    churn::write_csvs(&ch, &out)?;
    if let Some(path) = trace {
        report::write_trace(path, &ch.sustained.trace)?;
    }
    Ok(())
}

fn netfault_step(a: &Args) -> Outcome {
    let (scale, seed, out) = (a.scale()?, a.seed()?, a.out_dir());
    let (trace, mode) = trace_arg(a);
    eprintln!("running netfault at scale {scale}...");
    let nf = netfault::run(scale, seed, mode)?;
    println!("{}", netfault::render(&nf));
    netfault::write_csvs(&nf, &out)?;
    if let Some(path) = trace {
        report::write_trace(path, &nf.partition_trace)?;
    }
    Ok(())
}

fn availability_step(a: &Args) -> Outcome {
    let (scale, seed, out) = (a.scale()?, a.seed()?, a.out_dir());
    eprintln!("running availability at scale {scale}...");
    let av = availability::run(scale, seed)?;
    println!("{}", availability::render(&av));
    Ok(availability::write_csvs(&av, &out)?)
}

/// A chaos campaign of `schedules` schedules: any invariant violation
/// fails the command, after the repro files are written.
fn chaos_step(a: &Args, schedules: u64) -> Outcome {
    let (scale, seed, out) = (a.scale()?, a.seed()?, a.out_dir());
    eprintln!("running chaos campaign of {schedules} schedules at scale {scale}...");
    let cc = chaos::run(scale, schedules, seed);
    println!("{}", chaos::render(&cc));
    chaos::write_outputs(&cc, &out)?;
    match cc.report.failures.len() {
        0 => Ok(()),
        n => Err(Failure::Run(format!(
            "{n} chaos invariant violation(s); repro files written to {out}/"
        ))),
    }
}

/// The scale sweep and its `--bench-out` trajectory. With a perf floor
/// the command fails when the slowest cell of that kind runs below it.
fn scale_cmd(a: &Args) -> Outcome {
    let (factor, seed, out) = (a.scale()?, a.seed()?, a.out_dir());
    let bench_out = a.get("--bench-out").unwrap_or("BENCH_scale.json");
    let floor = |flag| a.number::<f64>(flag);
    let floors = [
        (scale::CellKind::LoadCheck, floor("--min-events-per-sec")?),
        (scale::CellKind::Churn, floor("--min-churn-events-per-sec")?),
    ];
    let sweep = scale::run(factor, seed, a.get("--cells"))?;
    println!("{}", scale::render(&sweep));
    scale::write_csvs(&sweep, &out)?;
    scale::write_bench_json(&sweep, bench_out)?;
    eprintln!("wrote {bench_out} and {out}/scale.csv");
    for (kind, floor) in floors {
        let Some(floor) = floor else { continue };
        let measured = sweep.min_events_per_sec(kind).unwrap_or(0.0);
        if measured < floor {
            return Err(Failure::Run(format!(
                "PERF REGRESSION: slowest {kind:?} cell ran at {measured:.1} events/s, \
                 below the floor of {floor:.1}"
            )));
        }
        eprintln!("{kind:?} perf floor ok: {measured:.1} events/s >= {floor:.1}");
    }
    Ok(())
}
