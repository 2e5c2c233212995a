//! Scale experiment binary: mechanical cost of the protocol core from
//! the paper's 1000-server cell up to ~10× it, under churn + WAN.
//!
//! Usage: `scale [--scale F] [--seed S] [--cells NAMES]
//!               [--out DIR] [--bench-out PATH] [--min-events-per-sec F]
//!               [--min-churn-events-per-sec F]`
//!
//! `--cells NAMES` runs only the comma-separated, exactly-named cells
//! (canonical unscaled names, e.g. `--cells churn_1000000` or
//! `--cells churn_1000,loadcheck_4000`) — cells are independent, so a
//! filtered cell is bit-identical to the full sweep's. Matching is
//! exact because the churn names are prefixes of one another.
//!
//! Writes `scale.csv` into `--out` (default `results/`) and the
//! machine-readable trajectory into `--bench-out` (default
//! `BENCH_scale.json` — the repo-root perf trajectory CI uploads).
//! With `--min-events-per-sec F` the binary exits non-zero when the
//! slowest load-check cell drops below `F` events per wall-second —
//! the CI perf-smoke regression gate; `--min-churn-events-per-sec F`
//! is the same gate over the churn cells (used by the filtered
//! `churn_1000000` smoke).

use clash_sim::experiments::scale;
use clash_sim::report;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale_factor = report::scale_arg(&args);
    let seed = report::seed_arg(&args);
    let out_dir = report::out_dir_arg(&args);
    let bench_out =
        report::flag_value(&args, "--bench-out").unwrap_or_else(|| "BENCH_scale.json".to_owned());
    let floor: Option<f64> = report::flag_value(&args, "--min-events-per-sec").map(|s| {
        s.parse()
            .unwrap_or_else(|_| panic!("--min-events-per-sec must be a float, got {s:?}"))
    });
    let churn_floor: Option<f64> =
        report::flag_value(&args, "--min-churn-events-per-sec").map(|s| {
            s.parse()
                .unwrap_or_else(|_| panic!("--min-churn-events-per-sec must be a float, got {s:?}"))
        });
    let cells = report::flag_value(&args, "--cells");

    let out =
        scale::run_filtered(scale_factor, seed, cells.as_deref()).expect("scale experiment failed");
    println!("{}", scale::render(&out));
    scale::write_csvs(&out, &out_dir).expect("write scale csv");
    scale::write_bench_json(&out, &bench_out).expect("write bench json");
    eprintln!("wrote {bench_out} and {out_dir}/scale.csv");

    if let Some(floor) = floor {
        let measured = out.min_loadcheck_events_per_sec().unwrap_or(0.0);
        if measured < floor {
            eprintln!(
                "PERF REGRESSION: slowest load-check cell ran at {measured:.1} \
                 events/s, below the floor of {floor:.1}"
            );
            std::process::exit(1);
        }
        eprintln!("perf floor ok: {measured:.1} events/s >= {floor:.1}");
    }
    if let Some(floor) = churn_floor {
        let measured = out.min_churn_events_per_sec().unwrap_or(0.0);
        if measured < floor {
            eprintln!(
                "PERF REGRESSION: slowest churn cell ran at {measured:.1} \
                 events/s, below the floor of {floor:.1}"
            );
            std::process::exit(1);
        }
        eprintln!("churn perf floor ok: {measured:.1} events/s >= {floor:.1}");
    }
}
