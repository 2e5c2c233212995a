//! Experiment drivers, one per figure/claim of the paper's evaluation.
//!
//! Each submodule exposes one entry point, `run(...) -> …Output`, plus
//! `render` (ASCII tables mirroring the figure) and `write_csvs` where
//! applicable; the `clash-sim` binary makes each a subcommand.

pub mod ablation;
pub mod availability;
pub mod chaos;
pub mod churn;
pub mod demos;
pub mod depth_conv;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod netfault;
pub mod range_queries;
pub mod scale;
pub mod servers_saved;

use clash_core::config::ClashConfig;
use clash_core::error::ClashError;
use clash_workload::scenario::ScenarioSpec;

use crate::driver::{RunResult, SimDriver};

/// Runs several `(config, spec, label)` scenarios on parallel threads and
/// returns their results in order.
///
/// # Errors
///
/// Propagates the first scenario error.
///
/// # Panics
///
/// Panics if a worker thread panics.
pub fn run_variants(
    variants: Vec<(ClashConfig, ScenarioSpec, String)>,
) -> Result<Vec<RunResult>, ClashError> {
    let mut results: Vec<Result<RunResult, ClashError>> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = variants
            .into_iter()
            .map(|(config, spec, label)| {
                scope.spawn(move || SimDriver::with_label(config, spec, label)?.run())
            })
            .collect();
        results = handles
            .into_iter()
            .map(|h| h.join().expect("scenario thread panicked"))
            .collect();
    });
    results.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalogue::{figure4_variants, paper_spec};
    use clash_simkernel::time::SimDuration;

    #[test]
    fn run_variants_parallel_matches_serial() {
        let spec = ScenarioSpec {
            servers: 8,
            sources: 100,
            ..paper_spec(1.0, None).with_phase_duration(SimDuration::from_mins(2))
        };
        let cfg = ClashConfig {
            capacity: 50.0,
            ..ClashConfig::paper()
        };
        let parallel = run_variants(vec![
            (cfg, spec.clone(), "x".to_owned()),
            (cfg, spec.clone(), "y".to_owned()),
        ])
        .unwrap();
        let serial = SimDriver::with_label(cfg, spec, "x".to_owned())
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(parallel[0].samples, serial.samples);
        assert_eq!(parallel[0].samples, parallel[1].samples);
        assert_eq!(parallel[1].label, "y");
    }

    #[test]
    fn figure4_variant_labels() {
        let labels: Vec<String> = figure4_variants().into_iter().map(|(_, l)| l).collect();
        assert_eq!(labels, vec!["CLASH", "DHT(6)", "DHT(12)", "DHT(24)"]);
    }
}
