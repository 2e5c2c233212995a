//! The event-driven scenario runner.
//!
//! Per-packet work is aggregated analytically: a source contributes its
//! rate to its current key group between key changes, which is exact for
//! the paper's constant-rate sources. The discrete events are therefore
//! only:
//!
//! * **key changes** (end of a virtual stream, mean every `Ld` packets),
//! * **query client deaths** (with immediate renewal, keeping the
//!   population constant),
//! * **load checks** (every 5 minutes, §6.1) and metric samples,
//! * under a [`ChurnSpec`], its four sustained membership processes —
//!   joins, graceful leaves, crashes and correlated crash bursts — each
//!   a Poisson process that re-arms itself,
//! * and its flash-crowd ramp joins, which fire once each.
//!
//! This reduces a 6-hour, 100k-client, 200k-pkt/s run from billions of
//! packet events to a few million — while producing the identical load
//! series a per-packet simulation would sample.
//!
//! A run is `start`, a loop of `step` over the events due before its
//! end, and `finish`; sampling and the per-phase summaries live in `sample`.

mod sample;

use sample::Sampler;
pub use sample::{PhaseSummary, SampleRow};

use clash_core::cluster::{ClashCluster, FailureReport, MessageStats};
use clash_core::config::ClashConfig;
use clash_core::error::ClashError;
use clash_core::ServerId;
use clash_obs::{PhaseProfile, Telemetry, WallProfiler};
use clash_simkernel::dist::Exponential;
use clash_simkernel::event::EventQueue;
use clash_simkernel::rng::DetRng;
use clash_simkernel::time::{SimDuration, SimTime};
use clash_transport::Transport;
use clash_workload::churn::ChurnSpec;
use clash_workload::scenario::ScenarioSpec;
use clash_workload::skew::{Workload, WorkloadKind};
use clash_workload::source::{QueryClientModel, SourceModel};

/// Crash-recovery aggregates over a run, accumulated from every
/// [`FailureReport`] the membership events produced.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryTotals {
    /// Single-server crash events.
    pub single_crashes: u64,
    /// Correlated crash-burst events (each kills several servers at once).
    pub burst_crashes: u64,
    /// Groups recovered with full ledger state (replica promotion, or the
    /// oracle crutch when the replication factor is 0).
    pub groups_recovered: u64,
    /// Groups genuinely lost (owner and all replicas died) and re-rooted
    /// empty.
    pub groups_lost: u64,
    /// Recoveries deferred behind a partition at crash time.
    pub groups_deferred: u64,
    /// Groups lost by *single* crashes specifically — with `r ≥ 1` this
    /// must be 0 (the availability experiment's acceptance gate).
    pub single_crash_groups_lost: u64,
    /// Stream sources lost with unrecoverable groups.
    pub sources_lost: u64,
    /// Continuous queries lost with unrecoverable groups.
    pub queries_lost: u64,
}

impl RecoveryTotals {
    fn absorb(&mut self, report: &FailureReport, burst: bool) {
        if burst {
            self.burst_crashes += 1;
        } else {
            self.single_crashes += 1;
            self.single_crash_groups_lost += report.groups_lost as u64;
        }
        self.groups_recovered += report.groups_recovered as u64;
        self.groups_lost += report.groups_lost as u64;
        self.groups_deferred += report.groups_deferred as u64;
        self.sources_lost += report.sources_lost as u64;
        self.queries_lost += report.queries_lost as u64;
    }

    /// Fraction of crash-affected groups fully recovered (1.0 when no
    /// crash touched any group).
    pub fn recovery_success_rate(&self) -> f64 {
        let total = self.groups_recovered + self.groups_lost;
        if total == 0 {
            1.0
        } else {
            self.groups_recovered as f64 / total as f64
        }
    }
}

/// The outcome of one scenario run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Human-readable configuration label (e.g. `CLASH`, `DHT(12)`).
    pub label: String,
    /// The sampled time series.
    pub samples: Vec<SampleRow>,
    /// Per-phase aggregates, in phase order.
    pub phases: Vec<PhaseSummary>,
    /// Cumulative message statistics over the whole run.
    pub final_messages: MessageStats,
    /// Discrete events scheduled over the run, pending ones included.
    pub events: u64,
    /// Splits performed over the run.
    pub splits: u64,
    /// Merges performed over the run.
    pub merges: u64,
    /// Servers that joined during the run (churn scenarios only).
    pub joins: u64,
    /// Servers that gracefully left during the run.
    pub leaves: u64,
    /// Servers that crashed during the run (burst victims included).
    pub crashes: u64,
    /// Crash-recovery aggregates (what was recovered, deferred, lost).
    pub recovery: RecoveryTotals,
    /// Load-check periods that elapsed during the run.
    pub load_checks: u64,
    /// Real (wall-clock) milliseconds spent inside
    /// [`ClashCluster::run_load_check`] over the whole run, measured
    /// after the batch flush so deferred locate work is never billed to
    /// the checks. Wall time is inherently non-deterministic; it is
    /// excluded from [`RunResult::deterministic_fingerprint`].
    pub check_wall_ms: f64,
    /// Worst single load check over the run, wall-clock milliseconds
    /// (tail latency to `check_wall_ms`'s total). Non-deterministic;
    /// excluded from the fingerprint.
    pub max_check_ms: f64,
    /// Where the check time went: per-[`clash_obs::CheckPhase`]
    /// wall-clock milliseconds accumulated by the cluster's
    /// [`WallProfiler`]. Non-deterministic; excluded from the
    /// fingerprint.
    pub phase_profile: PhaseProfile,
}

impl RunResult {
    /// The phase summary for a workload, if that phase ran.
    pub fn phase(&self, workload: WorkloadKind) -> Option<&PhaseSummary> {
        self.phases.iter().find(|p| p.workload == workload)
    }

    /// A digest of every deterministic field of the result — everything
    /// except `check_wall_ms` (wall time). Two runs of the same scenario
    /// must produce equal fingerprints whatever the locate path or
    /// machine; the window-equivalence suite compares these directly so a
    /// divergence prints both complete states.
    pub fn deterministic_fingerprint(&self) -> String {
        format!(
            "{}|{:?}|{:?}|{:?}|{}|{}|{}|{}|{}|{}|{:?}|{}",
            self.label,
            self.samples,
            self.phases,
            self.final_messages,
            self.events,
            self.splits,
            self.merges,
            self.joins,
            self.leaves,
            self.crashes,
            self.recovery,
            self.load_checks,
        )
    }

    /// The run's metrics as one unified [`Telemetry`] registry: the
    /// cluster's protocol counters/latencies under `cluster.*`, driver
    /// aggregates (events, checks, recovery totals) under `driver.*`,
    /// and the wall-clock phase profile under `driver.check_phase.*`.
    #[must_use]
    pub fn telemetry(&self, cluster: &ClashCluster) -> Telemetry {
        let mut t = Telemetry::new();
        let r = &self.recovery;
        for (name, value) in [
            ("events", self.events),
            ("load_checks", self.load_checks),
            ("splits", self.splits),
            ("merges", self.merges),
            ("joins", self.joins),
            ("leaves", self.leaves),
            ("crashes", self.crashes),
            ("recovery.groups_recovered", r.groups_recovered),
            ("recovery.groups_lost", r.groups_lost),
            ("recovery.groups_deferred", r.groups_deferred),
            ("recovery.sources_lost", r.sources_lost),
            ("recovery.queries_lost", r.queries_lost),
        ] {
            t.counter(&format!("driver.{name}"), value);
        }
        t.gauge("driver.check_wall_ms", self.check_wall_ms);
        t.gauge("driver.max_check_ms", self.max_check_ms);
        for phase in clash_obs::CheckPhase::ALL {
            let name = format!("driver.check_phase.{}_ms", phase.name());
            t.gauge(&name, self.phase_profile.get(phase));
        }
        t.absorb("cluster", &cluster.telemetry());
        t
    }
}

/// A discrete event. The queue holds one per source and query client,
/// so the enum stays two words.
#[derive(Debug, Clone, Copy)]
enum Ev {
    /// Source `.0`'s virtual stream ends: it re-keys.
    KeyChange(u64),
    /// Query client `.0` dies and is renewed.
    QueryDeath(u64),
    LoadCheck,
    Sample,
    /// A sustained membership process fires, then re-arms itself.
    Churn(Churn),
    /// A flash-crowd ramp join: fires once, never re-arms.
    RampJoin,
}

/// The sustained membership processes of a [`ChurnSpec`], in the order
/// the run arms them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Churn {
    Join,
    Leave,
    Crash,
    /// A server and its ring successors crash at once: the correlated
    /// rack failure replication is measured against.
    Burst,
}

impl Churn {
    const ALL: [Churn; 4] = [Churn::Join, Churn::Leave, Churn::Crash, Churn::Burst];

    /// The process's mean interval; `None` when `spec` disables it.
    fn mean(self, spec: &ChurnSpec) -> Option<SimDuration> {
        match self {
            Churn::Join => spec.mean_join_interval,
            Churn::Leave => spec.mean_leave_interval,
            Churn::Crash => spec.mean_crash_interval,
            Churn::Burst => spec.mean_burst_interval,
        }
    }
}

/// Drives a [`ClashCluster`] through a [`ScenarioSpec`] under simulated
/// time. See the module docs for the event model.
pub struct SimDriver {
    config: ClashConfig,
    spec: ScenarioSpec,
    cluster: ClashCluster,
    queue: EventQueue<Ev>,
    rng: DetRng,
    /// Dedicated substream for membership churn, so enabling churn never
    /// perturbs the workload's own draws.
    churn_rng: DetRng,
    /// The three workloads, indexed by `WorkloadKind as usize`.
    workloads: [Workload; 3],
    next_query_id: u64,
    crashes: u64,
    recovery: RecoveryTotals,
    load_checks: u64,
    check_wall_ms: f64,
    max_check_ms: f64,
    label: String,
}

impl SimDriver {
    /// Builds the cluster and initial population for a scenario.
    ///
    /// # Errors
    ///
    /// Propagates configuration and placement errors.
    pub fn new(config: ClashConfig, spec: ScenarioSpec) -> Result<Self, ClashError> {
        let label = if config.splitting_enabled {
            "CLASH".to_owned()
        } else {
            format!("DHT({})", config.initial_depth)
        };
        Self::with_label(config, spec, label)
    }

    /// [`SimDriver::new`] with an explicit label (for ablation variants).
    ///
    /// # Errors
    ///
    /// Propagates configuration and placement errors.
    pub fn with_label(
        config: ClashConfig,
        spec: ScenarioSpec,
        label: String,
    ) -> Result<Self, ClashError> {
        let cluster = ClashCluster::new(config, spec.servers, spec.seed)?;
        Self::from_cluster(config, spec, label, cluster)
    }

    /// [`SimDriver::with_label`] over an explicit message transport: the
    /// cluster charges every protocol message latency (and loss/partition
    /// behavior) through it, and the driver samples windowed locate
    /// latency percentiles into the [`SampleRow`]s.
    ///
    /// # Errors
    ///
    /// Propagates configuration and placement errors.
    pub fn with_transport(
        config: ClashConfig,
        spec: ScenarioSpec,
        label: String,
        transport: Box<dyn Transport>,
    ) -> Result<Self, ClashError> {
        let cluster = ClashCluster::with_transport(config, spec.servers, spec.seed, transport)?;
        Self::from_cluster(config, spec, label, cluster)
    }

    fn from_cluster(
        config: ClashConfig,
        spec: ScenarioSpec,
        label: String,
        mut cluster: ClashCluster,
    ) -> Result<Self, ClashError> {
        // Always profile: the phase timers live outside the protocol's
        // deterministic state, so they are free to stay on. (Tracing, by
        // contrast, is opt-in via `cluster_mut().set_trace`.)
        cluster.set_profiler(Box::new(WallProfiler::default()));
        Ok(SimDriver {
            config,
            cluster,
            queue: EventQueue::new(),
            rng: DetRng::new(spec.seed).substream("driver"),
            churn_rng: DetRng::new(spec.seed).substream("churn"),
            spec,
            workloads: WorkloadKind::ALL.map(Workload::paper),
            next_query_id: 0,
            crashes: 0,
            recovery: RecoveryTotals::default(),
            load_checks: 0,
            check_wall_ms: 0.0,
            max_check_ms: 0.0,
            label,
        })
    }

    fn current_workload(&self) -> WorkloadKind {
        self.spec
            .workload_at(self.queue.now().saturating_duration_since(SimTime::ZERO))
    }

    /// Runs the scenario to completion.
    ///
    /// # Errors
    ///
    /// Propagates protocol errors (which indicate bugs, not runtime
    /// conditions — the experiments treat any error as fatal).
    pub fn run(self) -> Result<RunResult, ClashError> {
        self.run_with_cluster().map(|(result, _)| result)
    }

    /// [`SimDriver::run`], also returning the final cluster for post-run
    /// inspection (oracle sweeps, consistency checks).
    ///
    /// # Errors
    ///
    /// See [`SimDriver::run`].
    pub fn run_with_cluster(mut self) -> Result<(RunResult, ClashCluster), ClashError> {
        let end = SimTime::ZERO + self.spec.total_duration();
        let mut sampler = self.start()?;
        while let Some((at, ev)) = self.queue.pop_before(end) {
            self.step(at, ev, &mut sampler)?;
        }
        self.finish(end, sampler)
    }

    /// Attaches the population and arms every recurring event, then
    /// baselines the sampler.
    fn start(&mut self) -> Result<Sampler, ClashError> {
        self.populate()?;
        self.queue
            .schedule(SimTime::ZERO + self.spec.load_check_period, Ev::LoadCheck);
        self.queue
            .schedule(SimTime::ZERO + self.spec.sample_period, Ev::Sample);
        for churn in Churn::ALL {
            self.arm(SimTime::ZERO, churn);
        }
        if let Some(flash) = self.spec.churn.and_then(|spec| spec.flash_crowd) {
            for i in 0..flash.joins {
                let offset = SimDuration::from_micros(flash.spacing.as_micros() * i as u64);
                self.queue
                    .schedule(SimTime::ZERO + flash.at + offset, Ev::RampJoin);
            }
        }
        // Close the populate batch window before baselining the message
        // counters for the first sample diff.
        self.cluster.flush_batch()?;
        Ok(Sampler::new(&self.cluster))
    }

    /// Dispatches one event at its virtual time `at`.
    fn step(&mut self, at: SimTime, ev: Ev, sampler: &mut Sampler) -> Result<(), ClashError> {
        // Keep the cluster's trace clock on the event being dispatched, so
        // every emitted TraceEvent carries the virtual time of the event
        // that caused it.
        self.cluster.set_now(at);
        match ev {
            Ev::KeyChange(source) => {
                let kind = self.current_workload();
                let model = SourceModel::new(kind.source_rate(), self.spec.mean_stream_packets);
                let moved = self.cluster.rekey_source(source, Some(model.rate()), || {
                    self.workloads[kind as usize].sample_key(self.config.key_width, &mut self.rng)
                })?;
                // A source whose group was lost in an unrecoverable crash
                // has no client any more: its stream ends.
                if moved.is_some() {
                    let next = model.sample_stream_duration(&mut self.rng);
                    self.queue.schedule(at + next, Ev::KeyChange(source));
                }
            }
            Ev::QueryDeath(query) => {
                // A query that died with a lost group is already gone;
                // renewal keeps the population constant either way.
                self.cluster.detach_query(query)?;
                self.spawn_query(at)?;
            }
            Ev::LoadCheck => {
                // Flush *before* starting the timer: the batch holds
                // deferred locate work from the whole period, which must
                // not be billed as load-check time.
                self.cluster.flush_batch()?;
                let check_started = std::time::Instant::now();
                let check = self.cluster.run_load_check()?;
                let check_ms = check_started.elapsed().as_secs_f64() * 1e3;
                self.check_wall_ms += check_ms;
                self.max_check_ms = self.max_check_ms.max(check_ms);
                self.load_checks += 1;
                // A partition-deferred recovery resolves at some later load
                // check; fold its outcome into the totals so the success
                // rate (and the single-crash loss gate) counts every
                // crash-affected group and client.
                self.recovery.groups_recovered += check.recoveries_completed;
                self.recovery.groups_lost += check.recoveries_lost;
                self.recovery.single_crash_groups_lost += check.recoveries_lost_single;
                self.recovery.sources_lost += check.recovery_sources_lost;
                self.recovery.queries_lost += check.recovery_queries_lost;
                self.queue
                    .schedule(at + self.spec.load_check_period, Ev::LoadCheck);
            }
            Ev::Sample => {
                // Samples read message/latency/load state: barrier.
                self.cluster.flush_batch()?;
                sampler.record(at, &self.spec, &self.cluster);
                self.queue
                    .schedule(at + self.spec.sample_period, Ev::Sample);
            }
            Ev::Churn(churn) => {
                self.membership(churn)?;
                self.arm(at, churn);
            }
            // Ramp joins are one-shot, so layering a flash crowd on a
            // sustained schedule never multiplies the join rate.
            Ev::RampJoin => self.membership(Churn::Join)?,
        }
        Ok(())
    }

    /// Takes the final sample at `end` and assembles the result.
    fn finish(
        mut self,
        end: SimTime,
        mut sampler: Sampler,
    ) -> Result<(RunResult, ClashCluster), ClashError> {
        self.cluster.flush_batch()?;
        sampler.record(end, &self.spec, &self.cluster);
        let (samples, phases) = sampler.finish(&self.spec.phases);
        let stats = self.cluster.message_stats();
        let result = RunResult {
            label: self.label,
            samples,
            phases,
            final_messages: stats,
            events: self.queue.scheduled_total(),
            splits: stats.splits,
            merges: stats.merges,
            joins: stats.joins,
            leaves: stats.leaves,
            crashes: self.crashes,
            recovery: self.recovery,
            load_checks: self.load_checks,
            check_wall_ms: self.check_wall_ms,
            max_check_ms: self.max_check_ms,
            phase_profile: self.cluster.phase_profile(),
        };
        Ok((result, self.cluster))
    }

    /// Schedules `churn`'s next event an exponential interval after `at`,
    /// if the run's schedule enables that process. The only code that
    /// draws a churn interval.
    fn arm(&mut self, at: SimTime, churn: Churn) {
        let Some(mean) = self.spec.churn.as_ref().and_then(|spec| churn.mean(spec)) else {
            return;
        };
        let secs = Exponential::with_mean(mean.as_secs_f64()).sample(&mut self.churn_rng);
        let next = SimDuration::from_secs_f64(secs.max(1.0));
        self.queue.schedule(at + next, Ev::Churn(churn));
    }

    /// One `churn` action, skipped without a draw where it would cross
    /// the schedule's server bounds. Leaves and crashes take a uniform
    /// victim; a burst also takes its ring successors.
    fn membership(&mut self, churn: Churn) -> Result<(), ClashError> {
        let Some(spec) = self.spec.churn else {
            return Ok(());
        };
        let servers = self.cluster.server_count();
        if churn == Churn::Join {
            if servers >= spec.max_servers {
                return Ok(());
            }
            loop {
                let id = ServerId::new(self.churn_rng.next_u64(), self.config.hash_space);
                if self.cluster.net().node(id).is_none() {
                    self.cluster.join_server(id)?;
                    return Ok(());
                }
            }
        }
        let burst = churn == Churn::Burst;
        let size = if burst { spec.burst_size.max(1) } else { 1 };
        if servers < spec.min_servers.max(1) + size {
            return Ok(());
        }
        let ids = self.cluster.server_ids();
        let victim = ids[self.churn_rng.uniform_index(ids.len())];
        if churn == Churn::Leave {
            self.cluster.leave_server(victim)?;
            return Ok(());
        }
        // A single crash builds no victim list: an allocation per crash
        // moves the heap layout that later set-ups are timed in.
        let report = if burst {
            let mut victims = vec![victim];
            victims.extend(self.cluster.net().alive_successors(victim, size - 1));
            self.cluster.fail_servers(&victims)?
        } else {
            self.cluster.fail_server(victim)?
        };
        self.crashes += report.servers_failed as u64;
        self.recovery.absorb(&report, burst);
        Ok(())
    }

    /// Attaches the initial source and query populations at t = 0.
    fn populate(&mut self) -> Result<(), ClashError> {
        let kind = self.current_workload();
        let model = SourceModel::new(kind.source_rate(), self.spec.mean_stream_packets);
        for source in 0..self.spec.sources as u64 {
            let key =
                self.workloads[kind as usize].sample_key(self.config.key_width, &mut self.rng);
            self.cluster.attach_source(source, key, model.rate())?;
            let next = model.sample_stream_duration(&mut self.rng);
            self.queue
                .schedule(SimTime::ZERO + next, Ev::KeyChange(source));
        }
        for _ in 0..self.spec.query_clients {
            self.spawn_query(SimTime::ZERO)?;
        }
        Ok(())
    }

    fn spawn_query(&mut self, at: SimTime) -> Result<(), ClashError> {
        let kind = self.current_workload();
        let id = self.next_query_id;
        self.next_query_id += 1;
        let key = self.workloads[kind as usize].sample_key(self.config.key_width, &mut self.rng);
        self.cluster.attach_query(id, key)?;
        let lifetime =
            QueryClientModel::new(self.spec.mean_query_lifetime).sample_lifetime(&mut self.rng);
        self.queue.schedule(at + lifetime, Ev::QueryDeath(id));
        Ok(())
    }

    /// Read access to the cluster (post-run inspection in tests).
    pub fn cluster(&self) -> &ClashCluster {
        &self.cluster
    }

    /// Mutable access to the cluster *before* the run starts — used to
    /// install a flight recorder or a profiler, and by the equivalence suites
    /// to set up the reference twin of an otherwise identical scenario.
    pub fn cluster_mut(&mut self) -> &mut ClashCluster {
        &mut self.cluster
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalogue::{dht8, fig4, link, Scenario};

    /// A driver over `scenario`, on the instant transport.
    fn driver(scenario: Scenario) -> SimDriver {
        SimDriver::new(scenario.config, scenario.spec).unwrap()
    }

    #[test]
    fn clash_run_produces_samples_and_bounds_load() {
        let result = driver(fig4()).run().unwrap();
        assert_eq!(result.label, "CLASH");
        // 15 minutes, sampled each minute (+ final boundary sample).
        assert!(
            result.samples.len() >= 14,
            "{} samples",
            result.samples.len()
        );
        assert!(result.splits > 0, "skewed workloads must split");
        // After the transient, CLASH caps load near the overload threshold.
        let late_max = result
            .samples
            .iter()
            .skip(3)
            .map(|r| r.max_load_pct)
            .fold(0.0, f64::max);
        assert!(late_max < 250.0, "late max load {late_max}%");
        assert_eq!(result.phases.len(), 3);
    }

    #[test]
    fn dht_baseline_run_never_splits() {
        let result = driver(dht8()).run().unwrap();
        assert_eq!(result.label, "DHT(8)");
        assert_eq!(result.splits, 0);
        assert_eq!(result.merges, 0);
        // Depth is pinned at 8.
        assert!(result
            .samples
            .iter()
            .all(|r| r.depth_min == 8 && r.depth_max == 8));
    }

    #[test]
    fn depth_grows_with_skew_phases() {
        let result = driver(fig4()).run().unwrap();
        let a = result.phase(WorkloadKind::A).unwrap();
        let c = result.phase(WorkloadKind::C).unwrap();
        assert!(
            c.max_depth >= a.max_depth,
            "skew C should deepen the tree: {} vs {}",
            c.max_depth,
            a.max_depth
        );
    }

    #[test]
    fn query_population_stays_constant() {
        let mut scenario = fig4();
        scenario.spec.query_clients = 50;
        scenario.spec.mean_query_lifetime = SimDuration::from_secs(90);
        let result_cluster = driver(scenario).run().unwrap();
        assert!(result_cluster.final_messages.state_transfer_messages < u64::MAX);
        // Renewal means deaths occurred and were replaced: total query
        // locates strictly exceed the initial population.
        assert!(result_cluster.final_messages.locates > 50);
    }

    #[test]
    fn runs_are_deterministic() {
        let r1 = driver(fig4()).run().unwrap();
        let r2 = driver(fig4()).run().unwrap();
        assert_eq!(r1.samples.len(), r2.samples.len());
        for (a, b) in r1.samples.iter().zip(&r2.samples) {
            assert_eq!(a, b);
        }
        assert_eq!(r1.final_messages, r2.final_messages);
    }

    #[test]
    fn membership_churn_runs_end_to_end() {
        let churn =
            ChurnSpec::sustained(SimDuration::from_mins(2), SimDuration::from_mins(3), 8, 64)
                .with_crashes(SimDuration::from_mins(6));
        let mut scenario = fig4();
        scenario.spec.churn = Some(churn);
        let (result, cluster) = driver(scenario).run_with_cluster().unwrap();
        assert!(result.joins > 0, "sustained churn must join servers");
        assert!(result.leaves > 0, "sustained churn must drain servers");
        assert!(result.final_messages.handoff_messages > 0);
        assert!(
            result.samples.iter().any(|r| r.server_count != 16),
            "membership changes must show in the samples"
        );
        cluster.verify_consistency();
        assert!(cluster.global_cover().is_partition());
    }

    #[test]
    fn churn_runs_are_deterministic() {
        let churn =
            ChurnSpec::sustained(SimDuration::from_mins(2), SimDuration::from_mins(3), 8, 64);
        let mut scenario = fig4();
        scenario.spec.churn = Some(churn);
        let r1 = driver(scenario.clone()).run().unwrap();
        let r2 = driver(scenario).run().unwrap();
        assert_eq!(r1.samples, r2.samples);
        assert_eq!(r1.final_messages, r2.final_messages);
        assert_eq!((r1.joins, r1.leaves), (r2.joins, r2.leaves));
    }

    #[test]
    fn flash_crowd_ramps_capacity() {
        let churn =
            ChurnSpec::flash_crowd(SimDuration::from_mins(5), 6, SimDuration::from_secs(30));
        let mut scenario = fig4();
        scenario.spec.churn = Some(churn);
        let (result, cluster) = driver(scenario).run_with_cluster().unwrap();
        assert_eq!(result.joins, 6);
        assert_eq!(result.leaves, 0);
        assert_eq!(cluster.server_count(), 22);
        let final_servers = result.samples.last().unwrap().server_count;
        assert_eq!(final_servers, 22, "ramp must persist to the end");
        cluster.verify_consistency();
    }

    #[test]
    fn flash_crowd_on_sustained_schedule_does_not_multiply_joins() {
        // Regression: ramp joins must be one-shot. Before the fix, every
        // flash Ev::Join re-armed the sustained Poisson process, so a
        // combined schedule spawned joins/leaves at (ramp+1)x the
        // configured rate and pinned the fleet at max_servers.
        let churn = ChurnSpec {
            flash_crowd: Some(clash_workload::churn::FlashCrowd {
                at: SimDuration::from_mins(2),
                joins: 4,
                spacing: SimDuration::from_secs(30),
            }),
            ..ChurnSpec::sustained(SimDuration::from_mins(5), SimDuration::from_mins(60), 8, 64)
        };
        let mut scenario = fig4();
        scenario.spec.churn = Some(churn);
        let result = driver(scenario).run().unwrap();
        // 15 virtual minutes: 4 ramp joins + ~3 sustained joins. A
        // multiplied process would run away toward max_servers (48 joins).
        assert!(result.joins >= 4, "ramp joins must fire: {}", result.joins);
        assert!(
            result.joins <= 12,
            "flash crowd multiplied the sustained join rate: {} joins",
            result.joins
        );
    }

    #[test]
    fn crash_bursts_with_replication_run_end_to_end() {
        // Sustained churn plus correlated bursts over a replicated
        // cluster: the driver must absorb lost sources/queries (their key
        // changes stop, query clients renew) and the recovery totals must
        // account every crash-affected group.
        let churn =
            ChurnSpec::sustained(SimDuration::from_mins(4), SimDuration::from_mins(60), 8, 64)
                .with_crashes(SimDuration::from_mins(4))
                .with_crash_bursts(SimDuration::from_mins(5), 3);
        let mut scenario = fig4();
        scenario.spec.churn = Some(churn);
        scenario.config = scenario.config.with_replication(2);
        let (result, cluster) = driver(scenario).run_with_cluster().unwrap();
        assert!(result.crashes > 0, "crashes must fire");
        let r = &result.recovery;
        assert_eq!(
            r.single_crashes + r.burst_crashes,
            result.crashes - (r.burst_crashes * 2),
            "burst victims counted: 3 servers per burst event"
        );
        assert_eq!(
            r.single_crash_groups_lost, 0,
            "single crashes with r = 2 never lose groups"
        );
        assert!(
            r.groups_recovered > 0,
            "crashes over a loaded cluster must recover groups"
        );
        assert_eq!(cluster.recovery_oracle_reads(), 0);
        cluster.verify_consistency();
        assert!(cluster.global_cover().is_partition());
    }

    /// A schedule with only the process `churn` enabled, built by field.
    fn only(churn: Churn) -> ChurnSpec {
        let every = |c: Churn| (c == churn).then_some(SimDuration::from_mins(2));
        ChurnSpec {
            mean_join_interval: every(Churn::Join),
            mean_leave_interval: every(Churn::Leave),
            mean_crash_interval: every(Churn::Crash),
            mean_burst_interval: every(Churn::Burst),
            burst_size: 2,
            flash_crowd: None,
            min_servers: 8,
            max_servers: 64,
        }
    }

    #[test]
    fn a_lone_churn_process_fires_alone_and_deterministically() {
        for churn in [Churn::Crash, Churn::Leave] {
            let mut scenario = fig4();
            scenario.spec.churn = Some(only(churn));
            let r1 = driver(scenario.clone()).run().unwrap();
            let r2 = driver(scenario).run().unwrap();
            assert_eq!(
                r1.deterministic_fingerprint(),
                r2.deterministic_fingerprint()
            );
            let fired = (r1.joins, r1.leaves, r1.crashes);
            match churn {
                Churn::Crash => {
                    assert!(fired.0 == 0 && fired.1 == 0 && fired.2 > 0, "{fired:?}");
                    assert_eq!(r1.recovery.single_crashes, r1.crashes);
                    assert_eq!(r1.recovery.burst_crashes, 0);
                }
                _ => assert!(fired.0 == 0 && fired.1 > 0 && fired.2 == 0, "{fired:?}"),
            }
        }
    }

    #[test]
    fn an_event_is_two_words() {
        // The queue holds one event per source and query client.
        assert_eq!(std::mem::size_of::<Ev>(), 16);
    }

    #[test]
    fn wan_transport_changes_latency_not_protocol() {
        let instant = driver(fig4()).run().unwrap();
        let Scenario { config, spec } = fig4();
        let transport = link("wan", spec.seed);
        let wan = SimDriver::with_transport(config, spec, "CLASH/wan".to_owned(), transport)
            .unwrap()
            .run()
            .unwrap();
        // Identical protocol decisions and message accounting...
        assert_eq!(instant.final_messages, wan.final_messages);
        assert_eq!(instant.splits, wan.splits);
        for (a, b) in instant.samples.iter().zip(&wan.samples) {
            assert_eq!(a.max_load_pct, b.max_load_pct);
            assert_eq!(a.depth_max, b.depth_max);
            // ...but only the WAN run reports real latency percentiles.
            assert_eq!(a.locate_p50_ms, 0.0);
        }
        let p95_seen = wan
            .samples
            .iter()
            .map(|r| r.locate_p95_ms)
            .fold(0.0, f64::max);
        assert!(
            p95_seen > 20.0,
            "WAN locates must cost tens of ms: {p95_seen}"
        );
        let monotone = wan
            .samples
            .iter()
            .all(|r| r.locate_p50_ms <= r.locate_p95_ms && r.locate_p95_ms <= r.locate_p99_ms);
        assert!(monotone, "percentiles must be ordered");
    }

    #[test]
    fn message_rates_are_positive_under_churn() {
        let result = driver(fig4()).run().unwrap();
        let any_ctrl = result
            .samples
            .iter()
            .any(|r| r.ctrl_msgs_per_sec_per_server > 0.0);
        assert!(any_ctrl, "key churn must generate control messages");
    }
}
