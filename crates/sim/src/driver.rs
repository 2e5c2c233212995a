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
//! * **load checks** (every 5 minutes, §6.1) and metric samples.
//!
//! This reduces a 6-hour, 100k-client, 200k-pkt/s run from billions of
//! packet events to a few million — while producing the identical load
//! series a per-packet simulation would sample.

use clash_core::cluster::{ClashCluster, FailureReport, MessageStats};
use clash_core::config::ClashConfig;
use clash_core::error::ClashError;
use clash_core::ServerId;
use clash_obs::{PhaseProfile, Telemetry, WallProfiler};
use clash_simkernel::dist::Exponential;
use clash_simkernel::event::EventQueue;
use clash_simkernel::metrics::Histogram;
use clash_simkernel::rng::DetRng;
use clash_simkernel::time::{SimDuration, SimTime};
use clash_transport::Transport;
use clash_workload::churn::ChurnSpec;
use clash_workload::scenario::ScenarioSpec;
use clash_workload::skew::{Workload, WorkloadKind};
use clash_workload::source::{QueryClientModel, SourceModel};

/// One metric sample (a row of the Figure 4 panels).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleRow {
    /// Sample time in hours (the paper's x-axis).
    pub time_hours: f64,
    /// Workload in force.
    pub workload: WorkloadKind,
    /// Maximum server load, % of capacity.
    pub max_load_pct: f64,
    /// Mean load over *active* servers, % of capacity.
    pub avg_active_load_pct: f64,
    /// Servers with load ≥ 1% of capacity.
    pub active_servers: usize,
    /// Minimum active-group depth.
    pub depth_min: u32,
    /// Mean active-group depth.
    pub depth_avg: f64,
    /// Maximum active-group depth.
    pub depth_max: u32,
    /// Control messages/sec/server in the last window (Figure 5 case A),
    /// charging full DHT routing cost per probe.
    pub ctrl_msgs_per_sec_per_server: f64,
    /// Protocol-only control messages/sec/server (DHT routing treated as
    /// substrate cost — the paper's most plausible accounting).
    pub proto_msgs_per_sec_per_server: f64,
    /// All messages/sec/server including state transfer (case B).
    pub total_msgs_per_sec_per_server: f64,
    /// Servers in the ring at sample time (varies only under churn).
    pub server_count: usize,
    /// Membership handoff messages/sec/server in the last window (0
    /// without churn).
    pub handoff_msgs_per_sec_per_server: f64,
    /// Median end-to-end locate latency in the last window, virtual ms
    /// (0 with the instant transport or when the window had no locates).
    pub locate_p50_ms: f64,
    /// 95th-percentile locate latency in the last window, virtual ms.
    pub locate_p95_ms: f64,
    /// 99th-percentile locate latency in the last window, virtual ms.
    pub locate_p99_ms: f64,
}

/// Per-phase aggregates (the paper reports per-workload numbers).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseSummary {
    /// The workload.
    pub workload: WorkloadKind,
    /// Peak of the max-load series in this phase, % of capacity.
    pub peak_load_pct: f64,
    /// Mean of the max-load series in this phase.
    pub mean_max_load_pct: f64,
    /// Mean of the avg-active-load series.
    pub mean_avg_load_pct: f64,
    /// Mean active servers.
    pub mean_active_servers: f64,
    /// Mean control messages/sec/server.
    pub mean_ctrl_msgs: f64,
    /// Mean protocol-only control messages/sec/server.
    pub mean_proto_msgs: f64,
    /// Mean total messages/sec/server.
    pub mean_total_msgs: f64,
    /// Maximum group depth observed in the phase.
    pub max_depth: u32,
}

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
    /// Total discrete events processed.
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
    /// machine; the shard-equivalence suite compares these directly so a
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
        t.counter("driver.events", self.events);
        t.counter("driver.load_checks", self.load_checks);
        t.counter("driver.splits", self.splits);
        t.counter("driver.merges", self.merges);
        t.counter("driver.joins", self.joins);
        t.counter("driver.leaves", self.leaves);
        t.counter("driver.crashes", self.crashes);
        t.counter(
            "driver.recovery.groups_recovered",
            self.recovery.groups_recovered,
        );
        t.counter("driver.recovery.groups_lost", self.recovery.groups_lost);
        t.counter(
            "driver.recovery.groups_deferred",
            self.recovery.groups_deferred,
        );
        t.counter("driver.recovery.sources_lost", self.recovery.sources_lost);
        t.counter("driver.recovery.queries_lost", self.recovery.queries_lost);
        t.gauge("driver.check_wall_ms", self.check_wall_ms);
        t.gauge("driver.max_check_ms", self.max_check_ms);
        for phase in clash_obs::CheckPhase::ALL {
            t.gauge(
                &format!("driver.check_phase.{}_ms", phase.name()),
                self.phase_profile.get(phase),
            );
        }
        t.absorb("cluster", &cluster.telemetry());
        t
    }
}

#[derive(Debug, Clone, Copy)]
enum Ev {
    KeyChange {
        source: u64,
    },
    QueryDeath {
        query: u64,
    },
    LoadCheck,
    Sample,
    /// A server joins. `sustained` joins re-arm the Poisson process;
    /// flash-crowd ramp joins fire once.
    Join {
        sustained: bool,
    },
    /// A server drains gracefully.
    Leave,
    /// A server crashes.
    Crash,
    /// A correlated burst: a server and its ring successors crash at
    /// once.
    CrashBurst,
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
        // contrast, is opt-in via `cluster_mut().set_trace_sink`.)
        cluster.set_profiler(Box::new(WallProfiler::default()));
        let rng = DetRng::new(spec.seed).substream("driver");
        let churn_rng = DetRng::new(spec.seed).substream("churn");
        let workloads = [
            Workload::paper(WorkloadKind::A),
            Workload::paper(WorkloadKind::B),
            Workload::paper(WorkloadKind::C),
        ];
        Ok(SimDriver {
            config,
            spec,
            cluster,
            queue: EventQueue::new(),
            rng,
            churn_rng,
            workloads,
            next_query_id: 0,
            crashes: 0,
            recovery: RecoveryTotals::default(),
            load_checks: 0,
            check_wall_ms: 0.0,
            max_check_ms: 0.0,
            label,
        })
    }

    fn workload_index(kind: WorkloadKind) -> usize {
        match kind {
            WorkloadKind::A => 0,
            WorkloadKind::B => 1,
            WorkloadKind::C => 2,
        }
    }

    fn current_workload(&self) -> WorkloadKind {
        self.spec
            .workload_at(self.queue.now().saturating_duration_since(SimTime::ZERO))
    }

    fn source_model(&self, kind: WorkloadKind) -> SourceModel {
        SourceModel::new(kind.source_rate(), self.spec.mean_stream_packets)
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
        self.populate()?;
        // Periodic machinery.
        self.queue
            .schedule(SimTime::ZERO + self.spec.load_check_period, Ev::LoadCheck);
        self.queue
            .schedule(SimTime::ZERO + self.spec.sample_period, Ev::Sample);
        let churn = self.spec.churn;
        if let Some(churn) = &churn {
            if let Some(mean) = churn.mean_join_interval {
                let at = SimTime::ZERO + self.churn_interval(mean);
                self.queue.schedule(at, Ev::Join { sustained: true });
            }
            if let Some(mean) = churn.mean_leave_interval {
                let at = SimTime::ZERO + self.churn_interval(mean);
                self.queue.schedule(at, Ev::Leave);
            }
            if let Some(mean) = churn.mean_crash_interval {
                let at = SimTime::ZERO + self.churn_interval(mean);
                self.queue.schedule(at, Ev::Crash);
            }
            if let Some(mean) = churn.mean_burst_interval {
                let at = SimTime::ZERO + self.churn_interval(mean);
                self.queue.schedule(at, Ev::CrashBurst);
            }
            if let Some(flash) = churn.flash_crowd {
                for i in 0..flash.joins {
                    let offset = SimDuration::from_micros(flash.spacing.as_micros() * i as u64);
                    self.queue.schedule(
                        SimTime::ZERO + flash.at + offset,
                        Ev::Join { sustained: false },
                    );
                }
            }
        }

        // Close the populate batch window before baselining the message
        // counters for the first sample diff.
        self.cluster.flush_batch()?;
        let mut samples: Vec<SampleRow> = Vec::new();
        let mut last_msgs = self.cluster.message_stats();
        let mut last_sample_time = SimTime::ZERO;
        let mut last_servers = self.cluster.server_count();
        let mut last_locate = self.cluster.latency_metrics().locate.clone();

        while let Some((at, ev)) = self.queue.pop_before(end) {
            // Keep the cluster's trace clock on the event being
            // dispatched, so every emitted TraceEvent carries the
            // virtual time of the event that caused it.
            self.cluster.set_now(at);
            match ev {
                Ev::KeyChange { source } => {
                    let kind = self.current_workload();
                    let model = self.source_model(kind);
                    let moved = self.cluster.rekey_source(source, Some(model.rate()), || {
                        self.workloads[Self::workload_index(kind)]
                            .sample_key(self.config.key_width, &mut self.rng)
                    })?;
                    if moved.is_none() {
                        // The source's group was lost in an unrecoverable
                        // crash: its client is gone and its stream ends.
                        continue;
                    }
                    let next = model.sample_stream_duration(&mut self.rng);
                    self.queue.schedule(at + next, Ev::KeyChange { source });
                }
                Ev::QueryDeath { query } => {
                    // A query that died with a lost group is already gone;
                    // renewal keeps the population constant either way.
                    self.cluster.detach_query(query)?;
                    self.spawn_query(at)?;
                }
                Ev::LoadCheck => {
                    // Flush *before* starting the timer: the batch holds
                    // deferred locate work from the whole period, which
                    // must not be billed as load-check time.
                    self.cluster.flush_batch()?;
                    let check_started = std::time::Instant::now();
                    let check = self.cluster.run_load_check()?;
                    let check_ms = check_started.elapsed().as_secs_f64() * 1e3;
                    self.check_wall_ms += check_ms;
                    self.max_check_ms = self.max_check_ms.max(check_ms);
                    self.load_checks += 1;
                    // A partition-deferred recovery resolves at some later
                    // load check; fold its outcome into the totals so the
                    // success rate (and the single-crash loss gate) counts
                    // every crash-affected group and client.
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
                    let window = at.duration_since(last_sample_time);
                    samples.push(self.sample(
                        at,
                        window,
                        &mut last_msgs,
                        &mut last_servers,
                        &mut last_locate,
                    ));
                    last_sample_time = at;
                    self.queue
                        .schedule(at + self.spec.sample_period, Ev::Sample);
                }
                Ev::Join { sustained } => {
                    let churn = churn.as_ref().expect("join events require churn");
                    self.membership_join(churn)?;
                    // Only the sustained Poisson process re-arms; ramp
                    // joins are one-shot, so layering a flash crowd on a
                    // sustained schedule never multiplies the join rate.
                    if sustained {
                        if let Some(mean) = churn.mean_join_interval {
                            let next = self.churn_interval(mean);
                            self.queue.schedule(at + next, Ev::Join { sustained: true });
                        }
                    }
                }
                Ev::Leave => {
                    let churn = churn.as_ref().expect("leave events require churn");
                    self.membership_leave(churn)?;
                    if let Some(mean) = churn.mean_leave_interval {
                        let next = self.churn_interval(mean);
                        self.queue.schedule(at + next, Ev::Leave);
                    }
                }
                Ev::Crash => {
                    let churn = churn.as_ref().expect("crash events require churn");
                    self.membership_crash(churn)?;
                    if let Some(mean) = churn.mean_crash_interval {
                        let next = self.churn_interval(mean);
                        self.queue.schedule(at + next, Ev::Crash);
                    }
                }
                Ev::CrashBurst => {
                    let churn = churn.as_ref().expect("burst events require churn");
                    self.membership_crash_burst(churn)?;
                    if let Some(mean) = churn.mean_burst_interval {
                        let next = self.churn_interval(mean);
                        self.queue.schedule(at + next, Ev::CrashBurst);
                    }
                }
            }
        }
        // Final sample at the end boundary.
        self.cluster.flush_batch()?;
        let window = end.saturating_duration_since(last_sample_time);
        if !window.is_zero() {
            samples.push(self.sample(
                end,
                window,
                &mut last_msgs,
                &mut last_servers,
                &mut last_locate,
            ));
        }

        let phases = self.summarize(&samples);
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

    /// Draws the next exponential inter-event time for a churn process.
    fn churn_interval(&mut self, mean: SimDuration) -> SimDuration {
        let secs = Exponential::with_mean(mean.as_secs_f64()).sample(&mut self.churn_rng);
        SimDuration::from_secs_f64(secs.max(1.0))
    }

    /// Joins a fresh server (sustained churn or flash-crowd ramp), unless
    /// the cluster is already at the schedule's ceiling.
    fn membership_join(&mut self, churn: &ChurnSpec) -> Result<(), ClashError> {
        if self.cluster.server_count() >= churn.max_servers {
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

    /// Gracefully drains a random server, respecting the schedule floor.
    fn membership_leave(&mut self, churn: &ChurnSpec) -> Result<(), ClashError> {
        if self.cluster.server_count() <= churn.min_servers.max(1) {
            return Ok(());
        }
        let ids = self.cluster.server_ids();
        let victim = ids[self.churn_rng.uniform_index(ids.len())];
        self.cluster.leave_server(victim)?;
        Ok(())
    }

    /// Crashes a random server, respecting the schedule floor.
    fn membership_crash(&mut self, churn: &ChurnSpec) -> Result<(), ClashError> {
        if self.cluster.server_count() <= churn.min_servers.max(1) {
            return Ok(());
        }
        let ids = self.cluster.server_ids();
        let victim = ids[self.churn_rng.uniform_index(ids.len())];
        let report = self.cluster.fail_server(victim)?;
        self.crashes += 1;
        self.recovery.absorb(&report, false);
        Ok(())
    }

    /// Crashes a random server *and* its ring successors simultaneously —
    /// the correlated rack-failure case replication is measured against.
    /// Skipped when the burst would breach the schedule floor.
    fn membership_crash_burst(&mut self, churn: &ChurnSpec) -> Result<(), ClashError> {
        let size = churn.burst_size.max(1);
        let floor = churn.min_servers.max(1);
        if self.cluster.server_count() < floor + size {
            return Ok(());
        }
        let ids = self.cluster.server_ids();
        let start = ids[self.churn_rng.uniform_index(ids.len())];
        let mut victims = vec![start];
        victims.extend(self.cluster.net().alive_successors(start, size - 1));
        let report = self.cluster.fail_servers(&victims)?;
        self.crashes += victims.len() as u64;
        self.recovery.absorb(&report, true);
        Ok(())
    }

    /// Attaches the initial source and query populations at t = 0.
    fn populate(&mut self) -> Result<(), ClashError> {
        let kind = self.spec.workload_at(SimDuration::ZERO);
        let model = self.source_model(kind);
        for source in 0..self.spec.sources as u64 {
            let key = self.workloads[Self::workload_index(kind)]
                .sample_key(self.config.key_width, &mut self.rng);
            self.cluster.attach_source(source, key, model.rate())?;
            let next = model.sample_stream_duration(&mut self.rng);
            self.queue
                .schedule(SimTime::ZERO + next, Ev::KeyChange { source });
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
        let key = self.workloads[Self::workload_index(kind)]
            .sample_key(self.config.key_width, &mut self.rng);
        self.cluster.attach_query(id, key)?;
        let lifetime =
            QueryClientModel::new(self.spec.mean_query_lifetime).sample_lifetime(&mut self.rng);
        self.queue
            .schedule(at + lifetime, Ev::QueryDeath { query: id });
        Ok(())
    }

    fn sample(
        &self,
        at: SimTime,
        window: SimDuration,
        last_msgs: &mut MessageStats,
        last_servers: &mut usize,
        last_locate: &mut Histogram,
    ) -> SampleRow {
        let capacity = self.config.capacity;
        let active_eps = capacity * 0.01;
        let mut max_load = 0.0f64;
        let mut active = 0usize;
        let mut active_sum = 0.0f64;
        for (_, load) in self.cluster.server_loads() {
            max_load = max_load.max(load);
            if load >= active_eps {
                active += 1;
                active_sum += load;
            }
        }
        let (depth_min, depth_avg, depth_max) = self.cluster.depth_stats().unwrap_or((0, 0.0, 0));
        let msgs = self.cluster.message_stats();
        let secs = window.as_secs_f64().max(1e-9);
        let server_count = self.cluster.server_count();
        // Under churn the fleet size varies mid-window; normalizing
        // per-server rates by the window-average count keeps them honest
        // across a ramp (exact when membership is fixed).
        let servers = (server_count + *last_servers) as f64 / 2.0;
        *last_servers = server_count;
        let ctrl = (msgs.control_messages() - last_msgs.control_messages()) as f64;
        let proto =
            (msgs.protocol_control_messages() - last_msgs.protocol_control_messages()) as f64;
        let total = (msgs.total_messages() - last_msgs.total_messages()) as f64;
        let handoff = (msgs.handoff_messages - last_msgs.handoff_messages) as f64;
        *last_msgs = msgs;
        // Windowed locate latency percentiles: quantiles over only the
        // locates completed since the previous sample (one bucket diff
        // for all three). The instant transport's observations are all
        // exactly zero, so skip the histogram clone/diff entirely there.
        let (locate_p50_ms, locate_p95_ms, locate_p99_ms) = if self.cluster.transport_is_instant() {
            (0.0, 0.0, 0.0)
        } else {
            let locate_hist = &self.cluster.latency_metrics().locate;
            let quantiles = locate_hist.quantiles_since(last_locate, &[0.50, 0.95, 0.99]);
            let (p50, p95, p99) = (
                quantiles[0].unwrap_or(0.0),
                quantiles[1].unwrap_or(0.0),
                quantiles[2].unwrap_or(0.0),
            );
            *last_locate = locate_hist.clone();
            (p50, p95, p99)
        };
        SampleRow {
            time_hours: at.as_hours_f64(),
            workload: self
                .spec
                .workload_at(at.saturating_duration_since(SimTime::ZERO)),
            max_load_pct: 100.0 * max_load / capacity,
            avg_active_load_pct: if active > 0 {
                100.0 * active_sum / active as f64 / capacity
            } else {
                0.0
            },
            active_servers: active,
            depth_min,
            depth_avg,
            depth_max,
            ctrl_msgs_per_sec_per_server: ctrl / secs / servers,
            proto_msgs_per_sec_per_server: proto / secs / servers,
            total_msgs_per_sec_per_server: total / secs / servers,
            server_count,
            handoff_msgs_per_sec_per_server: handoff / secs / servers,
            locate_p50_ms,
            locate_p95_ms,
            locate_p99_ms,
        }
    }

    fn summarize(&self, samples: &[SampleRow]) -> Vec<PhaseSummary> {
        let mut out = Vec::new();
        for phase in &self.spec.phases {
            let rows: Vec<&SampleRow> = samples
                .iter()
                .filter(|r| r.workload == phase.workload)
                .collect();
            if rows.is_empty() {
                continue;
            }
            if out
                .iter()
                .any(|p: &PhaseSummary| p.workload == phase.workload)
            {
                continue; // phases with repeated workloads fold together
            }
            let n = rows.len() as f64;
            out.push(PhaseSummary {
                workload: phase.workload,
                peak_load_pct: rows.iter().map(|r| r.max_load_pct).fold(0.0, f64::max),
                mean_max_load_pct: rows.iter().map(|r| r.max_load_pct).sum::<f64>() / n,
                mean_avg_load_pct: rows.iter().map(|r| r.avg_active_load_pct).sum::<f64>() / n,
                mean_active_servers: rows.iter().map(|r| r.active_servers as f64).sum::<f64>() / n,
                mean_ctrl_msgs: rows
                    .iter()
                    .map(|r| r.ctrl_msgs_per_sec_per_server)
                    .sum::<f64>()
                    / n,
                mean_proto_msgs: rows
                    .iter()
                    .map(|r| r.proto_msgs_per_sec_per_server)
                    .sum::<f64>()
                    / n,
                mean_total_msgs: rows
                    .iter()
                    .map(|r| r.total_msgs_per_sec_per_server)
                    .sum::<f64>()
                    / n,
                max_depth: rows.iter().map(|r| r.depth_max).max().unwrap_or(0),
            });
        }
        out
    }

    /// Read access to the cluster (post-run inspection in tests).
    pub fn cluster(&self) -> &ClashCluster {
        &self.cluster
    }

    /// Mutable access to the cluster *before* the run starts — used to
    /// attach a trace sink or a profiler, and by the equivalence suites
    /// to set up the reference twin of an otherwise identical scenario.
    pub fn cluster_mut(&mut self) -> &mut ClashCluster {
        &mut self.cluster
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> ScenarioSpec {
        ScenarioSpec {
            servers: 16,
            sources: 300,
            query_clients: 0,
            load_check_period: SimDuration::from_secs(60),
            sample_period: SimDuration::from_secs(60),
            ..ScenarioSpec::paper().with_phase_duration(SimDuration::from_mins(5))
        }
    }

    fn tiny_config() -> ClashConfig {
        // Capacity scaled so 300 sources over ~12 active servers bite:
        // 300–600 pkt/s total → capacity 60 means splits will happen.
        ClashConfig {
            capacity: 60.0,
            ..ClashConfig::paper()
        }
    }

    #[test]
    fn clash_run_produces_samples_and_bounds_load() {
        let result = SimDriver::new(tiny_config(), tiny_spec())
            .unwrap()
            .run()
            .unwrap();
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
        let config = ClashConfig {
            capacity: 60.0,
            ..ClashConfig::dht_baseline(6)
        };
        let result = SimDriver::new(config, tiny_spec()).unwrap().run().unwrap();
        assert_eq!(result.label, "DHT(6)");
        assert_eq!(result.splits, 0);
        assert_eq!(result.merges, 0);
        // Depth is pinned at 6.
        assert!(result
            .samples
            .iter()
            .all(|r| r.depth_min == 6 && r.depth_max == 6));
    }

    #[test]
    fn depth_grows_with_skew_phases() {
        let result = SimDriver::new(tiny_config(), tiny_spec())
            .unwrap()
            .run()
            .unwrap();
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
        let spec = ScenarioSpec {
            query_clients: 50,
            mean_query_lifetime: SimDuration::from_secs(90),
            ..tiny_spec()
        };
        let driver = SimDriver::new(tiny_config(), spec).unwrap();
        // run() consumes; rebuild to inspect after.
        let result_cluster = driver.run().unwrap();
        assert!(result_cluster.final_messages.state_transfer_messages < u64::MAX);
        // Renewal means deaths occurred and were replaced: total query
        // locates strictly exceed the initial population.
        assert!(result_cluster.final_messages.locates > 50);
    }

    #[test]
    fn runs_are_deterministic() {
        let r1 = SimDriver::new(tiny_config(), tiny_spec())
            .unwrap()
            .run()
            .unwrap();
        let r2 = SimDriver::new(tiny_config(), tiny_spec())
            .unwrap()
            .run()
            .unwrap();
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
        let spec = ScenarioSpec {
            churn: Some(churn),
            ..tiny_spec()
        };
        let (result, cluster) = SimDriver::new(tiny_config(), spec)
            .unwrap()
            .run_with_cluster()
            .unwrap();
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
        let spec = ScenarioSpec {
            churn: Some(churn),
            ..tiny_spec()
        };
        let r1 = SimDriver::new(tiny_config(), spec.clone())
            .unwrap()
            .run()
            .unwrap();
        let r2 = SimDriver::new(tiny_config(), spec).unwrap().run().unwrap();
        assert_eq!(r1.samples, r2.samples);
        assert_eq!(r1.final_messages, r2.final_messages);
        assert_eq!((r1.joins, r1.leaves), (r2.joins, r2.leaves));
    }

    #[test]
    fn flash_crowd_ramps_capacity() {
        let churn =
            ChurnSpec::flash_crowd(SimDuration::from_mins(5), 6, SimDuration::from_secs(30));
        let spec = ScenarioSpec {
            churn: Some(churn),
            ..tiny_spec()
        };
        let (result, cluster) = SimDriver::new(tiny_config(), spec)
            .unwrap()
            .run_with_cluster()
            .unwrap();
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
        let spec = ScenarioSpec {
            churn: Some(churn),
            ..tiny_spec()
        };
        let result = SimDriver::new(tiny_config(), spec).unwrap().run().unwrap();
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
        let spec = ScenarioSpec {
            churn: Some(churn),
            query_clients: 20,
            ..tiny_spec()
        };
        let config = ClashConfig {
            replication_factor: 2,
            ..tiny_config()
        };
        let (result, cluster) = SimDriver::new(config, spec)
            .unwrap()
            .run_with_cluster()
            .unwrap();
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

    #[test]
    fn wan_transport_changes_latency_not_protocol() {
        use clash_transport::{LinkPolicy, LinkTransport};
        let instant = SimDriver::new(tiny_config(), tiny_spec())
            .unwrap()
            .run()
            .unwrap();
        let spec = tiny_spec();
        let transport = Box::new(LinkTransport::new(LinkPolicy::wan(), spec.seed));
        let wan = SimDriver::with_transport(tiny_config(), spec, "CLASH/wan".to_owned(), transport)
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
        let result = SimDriver::new(tiny_config(), tiny_spec())
            .unwrap()
            .run()
            .unwrap();
        let any_ctrl = result
            .samples
            .iter()
            .any(|r| r.ctrl_msgs_per_sec_per_server > 0.0);
        assert!(any_ctrl, "key churn must generate control messages");
    }
}
