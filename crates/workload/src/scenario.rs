//! End-to-end scenario descriptions for the figure experiments.

use clash_simkernel::time::SimDuration;

use crate::churn::ChurnSpec;
use crate::skew::WorkloadKind;

/// One phase of a scenario: a workload played for a duration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Phase {
    /// The workload in force.
    pub workload: WorkloadKind,
    /// How long it runs.
    pub duration: SimDuration,
}

/// A complete experiment scenario (§6.1 of the paper).
///
/// # Example
///
/// ```
/// use clash_workload::scenario::ScenarioSpec;
///
/// let paper = ScenarioSpec::paper();
/// assert_eq!(paper.servers, 1000);
/// assert_eq!(paper.sources, 100_000);
/// assert_eq!(paper.phases.len(), 3);
///
/// // Tests run a scaled-down copy with the same shape.
/// let small = paper.scaled(0.01);
/// assert_eq!(small.servers, 10);
/// assert_eq!(small.sources, 1000);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Number of servers in the ring (paper: 1000).
    pub servers: usize,
    /// Number of streaming sources (paper: 100,000 client nodes).
    pub sources: usize,
    /// Number of query clients (paper: 0 in case A of Figure 5, 50,000 in
    /// case B).
    pub query_clients: usize,
    /// The workload phases in order (paper: A, B, C × 2 hours each).
    pub phases: Vec<Phase>,
    /// Mean virtual-stream length in packets (`Ld`, paper: 1000).
    pub mean_stream_packets: f64,
    /// Mean query-client lifetime (`Lq`, paper: 30 min).
    pub mean_query_lifetime: SimDuration,
    /// Load check period (paper: 5 min).
    pub load_check_period: SimDuration,
    /// Metric sampling period for the Figure 4 time series.
    pub sample_period: SimDuration,
    /// Root random seed.
    pub seed: u64,
    /// Optional membership churn layered over the run (paper: none —
    /// membership is fixed during the evaluation).
    pub churn: Option<ChurnSpec>,
}

impl ScenarioSpec {
    /// The paper's full-scale 6-hour scenario (§6.1).
    pub fn paper() -> Self {
        let two_hours = SimDuration::from_hours(2);
        ScenarioSpec {
            servers: 1000,
            sources: 100_000,
            query_clients: 0,
            phases: vec![
                Phase {
                    workload: WorkloadKind::A,
                    duration: two_hours,
                },
                Phase {
                    workload: WorkloadKind::B,
                    duration: two_hours,
                },
                Phase {
                    workload: WorkloadKind::C,
                    duration: two_hours,
                },
            ],
            mean_stream_packets: 1000.0,
            mean_query_lifetime: SimDuration::from_mins(30),
            load_check_period: SimDuration::from_mins(5),
            sample_period: SimDuration::from_mins(5),
            seed: 0xC1A5_2004,
            churn: None,
        }
    }

    /// A copy with client and server populations scaled by `factor`
    /// (phases and time constants unchanged). Populations are kept at
    /// least 1.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not in `(0, 1]`.
    pub fn scaled(&self, factor: f64) -> Self {
        assert!(
            factor > 0.0 && factor <= 1.0,
            "scale factor must be in (0,1], got {factor}"
        );
        let scale = |n: usize| ((n as f64 * factor).round() as usize).max(1);
        ScenarioSpec {
            servers: scale(self.servers),
            sources: scale(self.sources),
            query_clients: if self.query_clients == 0 {
                0
            } else {
                scale(self.query_clients)
            },
            ..self.clone()
        }
    }

    /// A copy with every phase shortened to `duration` (for fast tests).
    pub fn with_phase_duration(&self, duration: SimDuration) -> Self {
        ScenarioSpec {
            phases: self
                .phases
                .iter()
                .map(|p| Phase {
                    workload: p.workload,
                    duration,
                })
                .collect(),
            ..self.clone()
        }
    }

    /// A copy with `n` query clients (Figure 5 case B uses 50,000).
    pub fn with_query_clients(&self, n: usize) -> Self {
        ScenarioSpec {
            query_clients: n,
            ..self.clone()
        }
    }

    /// A copy with a membership-churn schedule layered over the run.
    pub fn with_churn(&self, churn: ChurnSpec) -> Self {
        ScenarioSpec {
            churn: Some(churn),
            ..self.clone()
        }
    }

    /// Total scenario duration.
    pub fn total_duration(&self) -> SimDuration {
        self.phases
            .iter()
            .fold(SimDuration::ZERO, |acc, p| acc + p.duration)
    }

    /// The workload in force at `elapsed` time into the scenario (the
    /// last phase persists past the nominal end).
    pub fn workload_at(&self, elapsed: SimDuration) -> WorkloadKind {
        let mut t = SimDuration::ZERO;
        for phase in &self.phases {
            t += phase.duration;
            if elapsed < t {
                return phase.workload;
            }
        }
        self.phases
            .last()
            .map(|p| p.workload)
            .unwrap_or(WorkloadKind::A)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scenario_shape() {
        let s = ScenarioSpec::paper();
        assert_eq!(s.total_duration(), SimDuration::from_hours(6));
        assert_eq!(s.workload_at(SimDuration::from_mins(30)), WorkloadKind::A);
        assert_eq!(s.workload_at(SimDuration::from_hours(3)), WorkloadKind::B);
        assert_eq!(s.workload_at(SimDuration::from_hours(5)), WorkloadKind::C);
        // Past the end: last phase persists.
        assert_eq!(s.workload_at(SimDuration::from_hours(9)), WorkloadKind::C);
    }

    #[test]
    fn scaling_preserves_shape() {
        let s = ScenarioSpec::paper().with_query_clients(50_000).scaled(0.1);
        assert_eq!(s.servers, 100);
        assert_eq!(s.sources, 10_000);
        assert_eq!(s.query_clients, 5_000);
        assert_eq!(s.phases.len(), 3);
        assert_eq!(s.mean_stream_packets, 1000.0);
    }

    #[test]
    fn zero_query_clients_stay_zero_under_scaling() {
        let s = ScenarioSpec::paper().scaled(0.001);
        assert_eq!(s.query_clients, 0);
        assert_eq!(s.servers, 1);
    }

    #[test]
    fn phase_duration_override() {
        let s = ScenarioSpec::paper().with_phase_duration(SimDuration::from_mins(10));
        assert_eq!(s.total_duration(), SimDuration::from_mins(30));
    }

    #[test]
    #[should_panic(expected = "scale factor")]
    fn bad_scale_rejected() {
        ScenarioSpec::paper().scaled(0.0);
    }

    #[test]
    fn churn_rides_through_scaling() {
        let churn = ChurnSpec::sustained(
            SimDuration::from_mins(10),
            SimDuration::from_mins(12),
            4,
            64,
        );
        let s = ScenarioSpec::paper().with_churn(churn).scaled(0.1);
        assert_eq!(s.churn, Some(churn));
        assert_eq!(ScenarioSpec::paper().churn, None);
    }
}
