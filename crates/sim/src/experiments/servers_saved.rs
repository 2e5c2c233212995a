//! The §7 claim: "intelligent workload allocation by CLASH can reduce the
//! number of physical servers utilized by as much as 80%, compared to
//! basic DHT."
//!
//! Derived directly from the Figure 4 runs: per phase, compare CLASH's
//! active-server count against each baseline's.

use clash_core::error::ClashError;
use clash_workload::skew::WorkloadKind;

use crate::experiments::fig4::{self, Fig4Output};
use crate::report;

/// The savings table.
#[derive(Debug, Clone)]
pub struct SaversOutput {
    /// `(workload, baseline label, clash servers, baseline servers,
    /// savings %)`.
    pub rows: Vec<(WorkloadKind, String, f64, f64, f64)>,
}

/// Computes the savings from an existing Figure 4 run.
pub fn from_fig4(out: &Fig4Output) -> SaversOutput {
    let clash = &out.runs[0];
    let mut rows = Vec::new();
    for kind in WorkloadKind::ALL {
        let Some(cp) = clash.phase(kind) else {
            continue;
        };
        for baseline in &out.runs[1..] {
            let Some(bp) = baseline.phase(kind) else {
                continue;
            };
            let savings = if bp.mean_active_servers > 0.0 {
                100.0 * (1.0 - cp.mean_active_servers / bp.mean_active_servers)
            } else {
                0.0
            };
            rows.push((
                kind,
                baseline.label.clone(),
                cp.mean_active_servers,
                bp.mean_active_servers,
                savings,
            ));
        }
    }
    SaversOutput { rows }
}

/// Runs Figure 4 at `scale` and derives the savings table (`seed: None`
/// keeps the paper scenario's hard-coded seed).
///
/// # Errors
///
/// Propagates scenario errors.
pub fn run(scale: f64, seed: Option<u64>) -> Result<SaversOutput, ClashError> {
    Ok(from_fig4(&fig4::run(scale, seed)?))
}

/// Renders the savings table.
pub fn render(out: &SaversOutput) -> String {
    let rows: Vec<Vec<String>> = out
        .rows
        .iter()
        .map(|(kind, label, clash, baseline, savings)| {
            vec![
                kind.to_string(),
                label.clone(),
                report::f1(*clash),
                report::f1(*baseline),
                report::f1(*savings),
            ]
        })
        .collect();
    format!(
        "Servers saved by CLASH vs basic DHT (§7 claim: up to ~80%)\n{}",
        report::ascii_table(
            &[
                "workload",
                "baseline",
                "CLASH servers",
                "baseline servers",
                "savings %"
            ],
            &rows,
        )
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::fig4::pressured_test_variants;
    use crate::experiments::run_variants;

    #[test]
    fn clash_saves_servers_vs_fine_grained_dht() {
        // At 24 servers the ceiling is low (the full 80% claim needs the
        // paper's 1000-server scale, checked by the `servers_saved`
        // subcommand); here we assert savings exist and point the right way.
        let (spec, variants) = pressured_test_variants();
        let runs = run_variants(
            variants
                .into_iter()
                .map(|(c, l)| (c, spec.clone(), l))
                .collect(),
        )
        .unwrap();
        let fig4_out = fig4::Fig4Output { runs, spec };
        let savings = from_fig4(&fig4_out);
        let vs24: Vec<f64> = savings
            .rows
            .iter()
            .filter(|(_, label, _, _, _)| label == "DHT(24)")
            .map(|&(_, _, _, _, s)| s)
            .collect();
        assert!(!vs24.is_empty());
        assert!(
            vs24.iter().copied().fold(f64::MIN, f64::max) > 5.0,
            "expected positive savings vs DHT(24): {vs24:?}"
        );
        assert!(render(&savings).contains("savings %"));
    }
}
