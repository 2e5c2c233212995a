//! Figure 4: server load, utilization, depth variation and active servers
//! for CLASH vs the fixed-depth DHT baselines, over the 6-hour
//! A→B→C scenario.

use clash_core::error::ClashError;
use clash_workload::scenario::ScenarioSpec;
use clash_workload::skew::WorkloadKind;

use crate::catalogue::{figure4_variants, paper_spec};
use crate::driver::RunResult;
use crate::experiments::run_variants;
use crate::report;

/// The regenerated Figure 4 data: one run per variant.
#[derive(Debug, Clone)]
pub struct Fig4Output {
    /// Runs in the order CLASH, DHT(6), DHT(12), DHT(24).
    pub runs: Vec<RunResult>,
    /// The scenario that was played.
    pub spec: ScenarioSpec,
}

/// Runs the four variants (in parallel) over the paper scenario scaled by
/// `scale`. `seed` overrides the scenario's root seed (`None` keeps the
/// hard-coded one, reproducing historical outputs exactly).
///
/// # Errors
///
/// Propagates scenario errors.
pub fn run(scale: f64, seed: Option<u64>) -> Result<Fig4Output, ClashError> {
    let spec = paper_spec(scale, seed);
    let variants = figure4_variants()
        .into_iter()
        .map(|(config, label)| (config, spec.clone(), label))
        .collect();
    let runs = run_variants(variants)?;
    Ok(Fig4Output { runs, spec })
}

fn series_panel(
    out: &Fig4Output,
    title: &str,
    value: impl Fn(&crate::driver::SampleRow) -> String,
) -> String {
    let mut headers = vec!["t (h)".to_owned(), "workload".to_owned()];
    headers.extend(out.runs.iter().map(|r| r.label.clone()));
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let n = out.runs.iter().map(|r| r.samples.len()).min().unwrap_or(0);
    let mut rows = Vec::with_capacity(n);
    for i in 0..n {
        let base = &out.runs[0].samples[i];
        let mut row = vec![report::f2(base.time_hours), base.workload.to_string()];
        for r in &out.runs {
            row.push(value(&r.samples[i]));
        }
        rows.push(row);
    }
    format!("{title}\n{}", report::ascii_table(&header_refs, &rows))
}

/// Renders all four panels as ASCII tables, with a line chart of the
/// max-load panel (the paper's most prominent plot).
pub fn render(out: &Fig4Output) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "Figure 4 — {} servers, {} sources, phases A/B/C\n\n",
        out.spec.servers, out.spec.sources
    ));
    let max_series: Vec<(&str, Vec<f64>)> = out
        .runs
        .iter()
        .map(|r| {
            (
                r.label.as_str(),
                r.samples.iter().map(|s| s.max_load_pct).collect(),
            )
        })
        .collect();
    let borrowed: Vec<(&str, &[f64])> =
        max_series.iter().map(|(n, v)| (*n, v.as_slice())).collect();
    s.push_str("Maximum server load (% of capacity) over the 6 hours:\n");
    s.push_str(&report::ascii_chart(&borrowed, 14));
    s.push('\n');
    s.push_str(&series_panel(
        out,
        "Panel: Maximum server load (% of capacity)",
        |r| report::f1(r.max_load_pct),
    ));
    s.push('\n');
    s.push_str(&series_panel(
        out,
        "Panel: Average load over active servers (% of capacity)",
        |r| report::f1(r.avg_active_load_pct),
    ));
    s.push('\n');
    s.push_str(&series_panel(out, "Panel: Active servers", |r| {
        r.active_servers.to_string()
    }));
    s.push('\n');
    // Depth panel is CLASH-only in the paper.
    let clash = &out.runs[0];
    let rows: Vec<Vec<String>> = clash
        .samples
        .iter()
        .map(|r| {
            vec![
                report::f2(r.time_hours),
                r.workload.to_string(),
                r.depth_min.to_string(),
                report::f2(r.depth_avg),
                r.depth_max.to_string(),
            ]
        })
        .collect();
    s.push_str("Panel: Depth variation (CLASH, starting depth 6)\n");
    s.push_str(&report::ascii_table(
        &["t (h)", "workload", "min", "avg", "max"],
        &rows,
    ));
    s.push('\n');
    s.push_str(&render_phase_summary(out));
    s
}

/// The per-phase summary table (the numbers quoted in §6.2).
pub fn render_phase_summary(out: &Fig4Output) -> String {
    let mut rows = Vec::new();
    for kind in WorkloadKind::ALL {
        for run in &out.runs {
            if let Some(p) = run.phase(kind) {
                rows.push(vec![
                    kind.to_string(),
                    run.label.clone(),
                    report::f1(p.peak_load_pct),
                    report::f1(p.mean_max_load_pct),
                    report::f1(p.mean_avg_load_pct),
                    report::f1(p.mean_active_servers),
                    p.max_depth.to_string(),
                ]);
            }
        }
    }
    format!(
        "Per-phase summary\n{}",
        report::ascii_table(
            &[
                "workload",
                "variant",
                "peak load %",
                "mean max load %",
                "mean avg load %",
                "active servers",
                "max depth",
            ],
            &rows,
        )
    )
}

/// Writes `fig4_timeseries.csv` and `fig4_phases.csv`.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_csvs(out: &Fig4Output, dir: &str) -> std::io::Result<()> {
    let mut rows = Vec::new();
    for run in &out.runs {
        for r in &run.samples {
            rows.push(vec![
                run.label.clone(),
                report::f2(r.time_hours),
                r.workload.to_string(),
                report::f2(r.max_load_pct),
                report::f2(r.avg_active_load_pct),
                r.active_servers.to_string(),
                r.depth_min.to_string(),
                report::f2(r.depth_avg),
                r.depth_max.to_string(),
            ]);
        }
    }
    report::write_csv(
        format!("{dir}/fig4_timeseries.csv"),
        &[
            "variant",
            "time_hours",
            "workload",
            "max_load_pct",
            "avg_active_load_pct",
            "active_servers",
            "depth_min",
            "depth_avg",
            "depth_max",
        ],
        &rows,
    )?;
    let mut rows = Vec::new();
    for run in &out.runs {
        for p in &run.phases {
            rows.push(vec![
                run.label.clone(),
                p.workload.to_string(),
                report::f2(p.peak_load_pct),
                report::f2(p.mean_max_load_pct),
                report::f2(p.mean_avg_load_pct),
                report::f2(p.mean_active_servers),
                p.max_depth.to_string(),
            ]);
        }
    }
    report::write_csv(
        format!("{dir}/fig4_phases.csv"),
        &[
            "variant",
            "workload",
            "peak_load_pct",
            "mean_max_load_pct",
            "mean_avg_load_pct",
            "mean_active_servers",
            "max_depth",
        ],
        &rows,
    )
}

/// A small scenario with genuine load pressure for fast tests.
///
/// Downscaling servers below the 64 bootstrap groups removes the paper's
/// relative pressure (64 groups blanket 24 servers), so tests restore it
/// by lowering the capacity: 3000 sources × 2 pkt/s under workload C put
/// the hottest depth-6 group at ~4.5× a 400-unit capacity.
#[cfg(test)]
pub(crate) fn pressured_test_variants(
) -> (ScenarioSpec, Vec<(clash_core::config::ClashConfig, String)>) {
    use clash_core::config::ClashConfig;
    use clash_simkernel::time::SimDuration;
    let spec = ScenarioSpec {
        servers: 24,
        sources: 3000,
        ..paper_spec(1.0, None).with_phase_duration(SimDuration::from_mins(15))
    };
    let variants = figure4_variants()
        .into_iter()
        .map(|(config, label)| {
            (
                ClashConfig {
                    capacity: 400.0,
                    ..config
                },
                label,
            )
        })
        .collect();
    (spec, variants)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fast, small-scale figure-4 run still shows the paper's
    /// qualitative result: CLASH bounds max load where DHT(6) explodes,
    /// and CLASH uses fewer servers than DHT(24).
    #[test]
    fn small_scale_fig4_shape() {
        let (spec, variants) = pressured_test_variants();
        let runs = run_variants(
            variants
                .into_iter()
                .map(|(c, l)| (c, spec.clone(), l))
                .collect(),
        )
        .unwrap();
        let out = Fig4Output { runs, spec };
        assert_eq!(out.runs.len(), 4);
        let clash = &out.runs[0];
        let dht6 = &out.runs[1];
        let dht24 = &out.runs[3];

        let c_phase = clash.phase(WorkloadKind::C).unwrap();
        let d6_c = dht6.phase(WorkloadKind::C).unwrap();
        // Under the heavy skew, the non-adaptive DHT(6) sustains a max
        // load a multiple of CLASH's (which sheds after the transient).
        assert!(
            d6_c.mean_max_load_pct > 2.0 * c_phase.mean_max_load_pct,
            "DHT(6) mean max {:.0}% vs CLASH {:.0}%",
            d6_c.mean_max_load_pct,
            c_phase.mean_max_load_pct
        );
        // CLASH uses fewer active servers than DHT(24).
        let d24_c = dht24.phase(WorkloadKind::C).unwrap();
        assert!(
            c_phase.mean_active_servers < d24_c.mean_active_servers,
            "CLASH {} vs DHT(24) {}",
            c_phase.mean_active_servers,
            d24_c.mean_active_servers
        );
        let rendered = render(&out);
        assert!(rendered.contains("Panel: Maximum server load"));
        assert!(rendered.contains("DHT(24)"));
    }
}
