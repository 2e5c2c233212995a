//! Chaos campaign experiment: seed-derived fault-injection schedules
//! with invariant checking and automatic repro shrinking.
//!
//! This is the driver face of ROADMAP item 5 (adversarial scenario
//! matrix): `clash-chaos` composes crash bursts, ring-correlated
//! failures, partition storms, link flapping, gray degradation, churn
//! avalanches, and flash crowds into random schedules; every schedule
//! is replayed against a fresh cluster with the full invariant suite.
//! A failing schedule is delta-debugged to a 1-minimal repro and
//! written as `chaos_repro_<index>.json` in the output directory.

use std::fs;
use std::io;
use std::path::Path;

use clash_chaos::{render_repro, run_campaign, CampaignReport, ChaosOptions};
use clash_workload::FaultKind;

use crate::report;

/// Campaign seed used when `--seed` is absent (fixed, like every other
/// experiment's historical default, so CI runs are reproducible).
pub const DEFAULT_CAMPAIGN_SEED: u64 = 0xC1A5_4CA0;

/// Everything a chaos run produced: the campaign report plus rendered
/// repro documents for any failures.
#[derive(Debug, Clone)]
pub struct ChaosOutput {
    /// The cell options the campaign ran under.
    pub options: ChaosOptions,
    /// Aggregated campaign results.
    pub report: CampaignReport,
    /// `(file name, contents)` of one repro document per failure.
    pub repro_files: Vec<(String, String)>,
}

/// Runs a campaign of `schedules` schedules against a cell scaled by
/// `scale` (1.0 = the default 16-server/96-source cell).
#[must_use]
pub fn run(scale: f64, schedules: u64, seed: Option<u64>) -> ChaosOutput {
    let options = ChaosOptions::scaled(scale);
    let campaign_seed = seed.unwrap_or(DEFAULT_CAMPAIGN_SEED);
    let report = run_campaign(&options, campaign_seed, schedules);
    let repro_files = report
        .failures
        .iter()
        .map(|failure| {
            (
                format!("chaos_repro_{}.json", failure.schedule_index),
                render_repro(&options, campaign_seed, failure),
            )
        })
        .collect();
    ChaosOutput {
        options,
        report,
        repro_files,
    }
}

/// The campaign report table: totals, per-class fault accounting, and
/// one line per (shrunk) failure.
#[must_use]
pub fn render(out: &ChaosOutput) -> String {
    let r = &out.report;
    let mut s = format!(
        "chaos campaign (seed {:#x}, {} servers, {} sources, r = {}):\n",
        r.campaign_seed, out.options.servers, out.options.sources, out.options.replication
    );
    let summary_rows = vec![
        vec!["schedules run".to_owned(), r.schedules_run.to_string()],
        vec!["faults injected".to_owned(), r.faults_injected.to_string()],
        vec![
            "invariant checks passed".to_owned(),
            r.invariant_checks.to_string(),
        ],
        vec![
            "worst convergence (load checks)".to_owned(),
            r.worst_convergence_checks.to_string(),
        ],
        vec![
            "invariant violations".to_owned(),
            r.failures.len().to_string(),
        ],
    ];
    s.push_str(&report::ascii_table(&["metric", "value"], &summary_rows));
    s.push('\n');
    let class_rows: Vec<Vec<String>> = FaultKind::CLASS_LABELS
        .iter()
        .zip(r.faults_by_class)
        .map(|(label, n)| vec![(*label).to_owned(), n.to_string()])
        .collect();
    s.push_str(&report::ascii_table(
        &["fault class", "events"],
        &class_rows,
    ));
    for failure in &r.failures {
        s.push_str(&format!(
            "\nVIOLATION schedule {}: {} — {} (shrunk {} -> {} events in {} replays)\n",
            failure.schedule_index,
            failure.violation.invariant,
            failure.violation.detail,
            failure.schedule.events.len(),
            failure.minimal.events.len(),
            failure.shrink_replays,
        ));
    }
    s
}

/// Writes the campaign CSVs and any repro documents into `dir`.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_outputs(out: &ChaosOutput, dir: &str) -> io::Result<()> {
    let r = &out.report;
    let summary_rows = vec![vec![
        format!("{:#x}", r.campaign_seed),
        r.schedules_run.to_string(),
        r.faults_injected.to_string(),
        r.invariant_checks.to_string(),
        r.worst_convergence_checks.to_string(),
        r.failures.len().to_string(),
    ]];
    report::write_csv(
        Path::new(dir).join("chaos_summary.csv"),
        &[
            "campaign_seed",
            "schedules_run",
            "faults_injected",
            "invariant_checks",
            "worst_convergence_checks",
            "violations",
        ],
        &summary_rows,
    )?;
    let class_rows: Vec<Vec<String>> = FaultKind::CLASS_LABELS
        .iter()
        .zip(r.faults_by_class)
        .map(|(label, n)| vec![(*label).to_owned(), n.to_string()])
        .collect();
    report::write_csv(
        Path::new(dir).join("chaos_faults_by_class.csv"),
        &["fault_class", "events"],
        &class_rows,
    )?;
    for (name, contents) in &out.repro_files {
        fs::write(Path::new(dir).join(name), contents)?;
    }
    Ok(())
}
