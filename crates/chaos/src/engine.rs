//! The campaign engine: builds a cluster per schedule, injects events,
//! checks the invariant suite, and shrinks failures.
//!
//! Every run is a pure function of `(options, schedule)`: the schedule
//! seed drives the cluster under test, the transport, the workload keys,
//! and every injector choice. That is what makes delta debugging sound —
//! [`crate::shrink::ddmin`] replays candidate subsets and trusts the
//! outcome.
//!
//! # The invariant suite
//!
//! After every injected event the engine checks, in order:
//!
//! 1. **Structural consistency** — [`ClashCluster::verify_consistency`]:
//!    the global index, active tables, replica registries, the
//!    active-cover ∪ pending-recovery partition of the key space. Its
//!    panics are caught and reported as violations.
//! 2. **Retry conservation** — every deferred-recovery retry either
//!    stays blocked, completes, or abandons:
//!    `retries == retries_blocked + Σ completed + Σ lost`.
//! 3. **Deferral ledger** — fresh deferrals minus resolutions equals the
//!    live `pending_recovery` population.
//! 4. **Recovery conservation** (per crash) — groups owned by the
//!    victims are exactly accounted:
//!    `recovered + lost + deferred == owned`.
//! 5. **Oracle agreement** (quiet network only) — `locate` and
//!    `oracle_locate` agree on a sampled key set.
//! 6. **Replica placement** (quiescence) — no group silently
//!    under-replicated outside the dirty/pending sets
//!    ([`ClashCluster::replica_placement_deficit`]).
//! 7. **Bounded convergence** — after the last fault and a heal, the
//!    cluster reaches a stable, fully-agreeing, fully-replicated state
//!    within [`CONVERGENCE_CHECKS`] load checks.

use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Once;

use clash_core::cluster::ClashCluster;
use clash_core::config::ClashConfig;
use clash_core::error::ClashError;
use clash_keyspace::key::Key;
use clash_obs::{MetricValue, Telemetry, TraceEvent, TraceMode};
use clash_simkernel::rng::DetRng;
use clash_transport::{LatencyModel, LinkPolicy, LinkTransport};
use clash_workload::{FaultKind, Workload, WorkloadKind};

use crate::schedule::ChaosSchedule;
use crate::shrink::ddmin;

type ServerId = clash_chord::id::ChordId;

/// Per-source data rate of flash-crowd sources. Hot enough that a full
/// crowd concentrated under one prefix overloads its group and splits
/// the subtree (the default cell's capacity is 100 with baseline groups
/// near 25), so crowd-then-exodus schedules genuinely exercise the
/// split → merge → re-replicate surface.
const FLASH_CROWD_RATE: f64 = 2.5;

/// Load checks the cluster gets to converge after the last fault and a
/// heal (invariant 7's bound `K`).
pub const CONVERGENCE_CHECKS: u32 = 8;

/// Keys sampled per oracle-agreement check.
const SAMPLE_KEYS: usize = 32;

/// Crash/leave events never drop the cell below this population.
const MIN_SERVERS: usize = 5;

/// Flight-recorder ring capacity: the repro's trace tail.
const RING_CAPACITY: usize = 256;

/// Cluster cell sizing for one campaign. The invariant suite's bounds
/// are constants ([`CONVERGENCE_CHECKS`] among them).
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosOptions {
    /// Servers in the cell at schedule start.
    pub servers: usize,
    /// Streaming sources attached before the first fault.
    pub sources: usize,
    /// Successor-list replication factor.
    pub replication: usize,
    /// Test-only: skip replica re-seeding after merges (the seeded bug
    /// the campaign must catch; see
    /// [`ClashCluster::set_chaos_skip_merge_reseed`]).
    pub inject_merge_reseed_bug: bool,
}

impl Default for ChaosOptions {
    fn default() -> Self {
        ChaosOptions {
            servers: 16,
            sources: 96,
            replication: 2,
            inject_merge_reseed_bug: false,
        }
    }
}

impl ChaosOptions {
    /// Options scaled relative to the default cell: `scale = 1.0` is the
    /// default 16-server/96-source cell, smaller values shrink it (never
    /// below 8 servers / 48 sources so every fault class stays
    /// injectable).
    #[must_use]
    pub fn scaled(scale: f64) -> Self {
        let d = ChaosOptions::default();
        ChaosOptions {
            servers: ((d.servers as f64 * scale).round() as usize).max(8),
            sources: ((d.sources as f64 * scale).round() as usize).max(48),
            ..d
        }
    }
}

/// One invariant violation: which invariant, what it saw, and the index
/// of the schedule event after which it fired (`None` for the
/// quiescence/convergence phase).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Stable invariant name (e.g. `verify_consistency`,
    /// `replica_placement`, `convergence`).
    pub invariant: String,
    /// Human-readable description of the observed state.
    pub detail: String,
    /// Index into `schedule.events`, or `None` at quiescence.
    pub event_index: Option<usize>,
}

/// The outcome of replaying one schedule.
#[derive(Debug, Clone)]
pub struct ScheduleOutcome {
    /// Events executed, bucketed by [`FaultKind::class_index`].
    pub events_by_class: [u64; FaultKind::CLASS_LABELS.len()],
    /// Events executed for which [`FaultKind::is_fault`] holds.
    pub faults_injected: u64,
    /// Individual invariant evaluations performed.
    pub invariant_checks: u64,
    /// Load checks the cluster needed to converge after the last fault
    /// (`None` when the run failed before or during convergence).
    pub convergence_checks_used: Option<u32>,
    /// The first violation, if any (the run stops at the first).
    pub violation: Option<Violation>,
    /// The flight-recorder ring tail at the end of the run.
    pub trace_tail: Vec<TraceEvent>,
    /// The cluster's telemetry at the end of the run (empty when the
    /// cluster could not be built or its last window would not close).
    pub telemetry: Telemetry,
}

/// One failing schedule: the original, its delta-debugged minimal form,
/// and the violation the minimal form reproduces.
#[derive(Debug, Clone)]
pub struct CampaignFailure {
    /// Index of the schedule within the campaign.
    pub schedule_index: u64,
    /// The schedule as generated.
    pub schedule: ChaosSchedule,
    /// The 1-minimal failing subsequence (same seed).
    pub minimal: ChaosSchedule,
    /// The violation the minimal schedule reproduces.
    pub violation: Violation,
    /// Replays spent shrinking.
    pub shrink_replays: u32,
    /// Flight-recorder tail from the minimal schedule's failing replay.
    pub trace_tail: Vec<TraceEvent>,
}

/// Aggregate results of a campaign of seed-derived schedules.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// The campaign seed the schedules derive from.
    pub campaign_seed: u64,
    /// Schedules executed.
    pub schedules_run: u64,
    /// Total fault events injected (breathing steps excluded).
    pub faults_injected: u64,
    /// Events executed per class, [`FaultKind::CLASS_LABELS`] order.
    pub faults_by_class: [u64; FaultKind::CLASS_LABELS.len()],
    /// Individual invariant evaluations across all schedules.
    pub invariant_checks: u64,
    /// The slowest post-fault convergence seen (load checks).
    pub worst_convergence_checks: u32,
    /// Failing schedules, shrunk. Empty means all invariants held.
    pub failures: Vec<CampaignFailure>,
    /// Every cluster counter summed over the schedules (`locate.flushes`
    /// against `messages.probes` says which rule closed the windows).
    pub telemetry: Telemetry,
}

/// Runs a whole campaign: `n_schedules` seed-derived schedules, each
/// checked against the invariant suite; every failure is delta-debugged
/// to a minimal repro.
#[must_use]
pub fn run_campaign(
    options: &ChaosOptions,
    campaign_seed: u64,
    n_schedules: u64,
) -> CampaignReport {
    let mut report = CampaignReport {
        campaign_seed,
        schedules_run: 0,
        faults_injected: 0,
        faults_by_class: [0; FaultKind::CLASS_LABELS.len()],
        invariant_checks: 0,
        worst_convergence_checks: 0,
        failures: Vec::new(),
        telemetry: Telemetry::new(),
    };
    for index in 0..n_schedules {
        let schedule = ChaosSchedule::generate(campaign_seed, index);
        let outcome = run_schedule(options, &schedule);
        report.schedules_run += 1;
        report.faults_injected += outcome.faults_injected;
        for (total, n) in report
            .faults_by_class
            .iter_mut()
            .zip(outcome.events_by_class)
        {
            *total += n;
        }
        report.invariant_checks += outcome.invariant_checks;
        for (name, value) in outcome.telemetry.iter() {
            if let MetricValue::Counter(n) = value {
                report.telemetry.add(name, *n);
            }
        }
        if let Some(k) = outcome.convergence_checks_used {
            report.worst_convergence_checks = report.worst_convergence_checks.max(k);
        }
        if let Some(violation) = outcome.violation {
            report
                .failures
                .push(shrink_failure(options, index, schedule, violation));
        }
    }
    report
}

/// Delta-debugs a failing schedule to a 1-minimal repro (same seed).
#[must_use]
pub fn shrink_failure(
    options: &ChaosOptions,
    schedule_index: u64,
    schedule: ChaosSchedule,
    original_violation: Violation,
) -> CampaignFailure {
    let mut replays = 0u32;
    let minimal_events = ddmin(&schedule.events, |subset| {
        replays += 1;
        let candidate = ChaosSchedule {
            seed: schedule.seed,
            events: subset.to_vec(),
        };
        run_schedule(options, &candidate).violation.is_some()
    });
    let minimal = ChaosSchedule {
        seed: schedule.seed,
        events: minimal_events,
    };
    let final_outcome = run_schedule(options, &minimal);
    CampaignFailure {
        schedule_index,
        schedule,
        violation: final_outcome.violation.unwrap_or(original_violation),
        trace_tail: final_outcome.trace_tail,
        shrink_replays: replays,
        minimal,
    }
}

/// Replays one schedule from scratch and checks every invariant.
/// Deterministic in `(options, schedule)`.
#[must_use]
pub fn run_schedule(options: &ChaosOptions, schedule: &ChaosSchedule) -> ScheduleOutcome {
    let mut run = match Run::build(options, schedule) {
        Ok(run) => run,
        Err(violation) => {
            return ScheduleOutcome {
                events_by_class: [0; FaultKind::CLASS_LABELS.len()],
                faults_injected: 0,
                invariant_checks: 0,
                convergence_checks_used: None,
                violation: Some(violation),
                trace_tail: Vec::new(),
                telemetry: Telemetry::new(),
            }
        }
    };
    let violation = run.execute(schedule).err();
    let trace_tail = run.cluster.take_trace_events();
    let telemetry = match run.cluster.flush_batch() {
        Ok(()) => run.cluster.telemetry(),
        Err(_) => Telemetry::new(),
    };
    ScheduleOutcome {
        events_by_class: run.events_by_class,
        faults_injected: run.faults_injected,
        invariant_checks: run.invariant_checks,
        convergence_checks_used: run.convergence_checks_used,
        violation,
        trace_tail,
        telemetry,
    }
}

/// Mutable state of one schedule replay.
struct Run {
    /// The schedule seed (also the cluster's protocol seed).
    seed: u64,
    cluster: ClashCluster,
    /// Injector randomness: resolves budgets (which victims, islands,
    /// keys) deterministically from the schedule seed.
    rng: DetRng,
    workload: Workload,
    workload_rng: DetRng,
    /// Source ids this run attached and has not detached.
    attached: Vec<u64>,
    next_source: u64,
    /// Conservation ledgers (invariants 2 and 3).
    sum_completed: u64,
    sum_lost: u64,
    deferred_outstanding: u64,
    /// True while a gray degrade is in force.
    gray_active: bool,
    /// Counter of oracle-agreement sampling rounds (substream index).
    sample_rounds: u64,
    events_by_class: [u64; FaultKind::CLASS_LABELS.len()],
    faults_injected: u64,
    invariant_checks: u64,
    convergence_checks_used: Option<u32>,
}

impl Run {
    fn build(options: &ChaosOptions, schedule: &ChaosSchedule) -> Result<Run, Violation> {
        let config = ClashConfig::small_test().with_replication(options.replication);
        let root = DetRng::new(schedule.seed);
        let transport = LinkTransport::new(
            LinkPolicy::lan(),
            root.substream("chaos-transport").next_u64(),
        );
        let mut cluster = ClashCluster::with_transport(
            config,
            options.servers,
            schedule.seed,
            Box::new(transport),
        )
        .map_err(|e| Violation {
            invariant: "harness".to_string(),
            detail: format!("cluster construction failed: {e:?}"),
            event_index: None,
        })?;
        cluster.set_trace(TraceMode::Ring(RING_CAPACITY));
        if options.inject_merge_reseed_bug {
            cluster.set_chaos_skip_merge_reseed(true);
        }
        let mut run = Run {
            seed: schedule.seed,
            cluster,
            rng: root.substream("chaos-inject"),
            workload: Workload::paper(WorkloadKind::B),
            workload_rng: root.substream("chaos-workload"),
            attached: Vec::new(),
            next_source: 0,
            sum_completed: 0,
            sum_lost: 0,
            deferred_outstanding: 0,
            gray_active: false,
            sample_rounds: 0,
            events_by_class: [0; FaultKind::CLASS_LABELS.len()],
            faults_injected: 0,
            invariant_checks: 0,
            convergence_checks_used: None,
        };
        // Seed the workload and let the cover settle before the first
        // fault, so schedules attack a warm cluster.
        for _ in 0..options.sources {
            let id = run.next_source;
            run.next_source += 1;
            let key = run
                .workload
                .sample_key(run.cluster.config().key_width, &mut run.workload_rng);
            run.guard("attach_source", None, |c| {
                c.attach_source(id, key, 1.0).map(|_| ())
            })?;
            run.attached.push(id);
        }
        for _ in 0..2 {
            run.load_check(None)?;
        }
        Ok(run)
    }

    fn execute(&mut self, schedule: &ChaosSchedule) -> Result<(), Violation> {
        for (index, &event) in schedule.events.iter().enumerate() {
            self.inject(index, event)?;
            self.check_invariants(Some(index))?;
        }
        self.quiesce()
    }

    /// Quiescence: heal everything, then require convergence — a stable,
    /// fully-agreeing, fully-replicated state — within the bounded
    /// number of load checks (invariant 7).
    fn quiesce(&mut self) -> Result<(), Violation> {
        if self.gray_active {
            self.guard("gray_recover", None, |c| {
                c.set_link_policy(LinkPolicy::lan());
                Ok(())
            })?;
            self.gray_active = false;
        }
        self.guard("heal", None, |c| {
            c.heal_partition();
            Ok(())
        })?;
        for k in 1..=CONVERGENCE_CHECKS {
            self.load_check(None)?;
            self.check_invariants(None)?;
            if self.converged(None)? {
                self.convergence_checks_used = Some(k);
                return Ok(());
            }
        }
        let deficit = self.cluster.replica_placement_deficit();
        Err(Violation {
            invariant: "convergence".to_string(),
            detail: format!(
                "not converged after {} load checks: {} pending recoveries, {} under-replicated groups (first: {:?})",
                CONVERGENCE_CHECKS,
                self.cluster.pending_recoveries(),
                deficit.len(),
                deficit.first(),
            ),
            event_index: None,
        })
    }

    /// The quiescence convergence test: no pending recovery, no replica
    /// placement deficit, and sampled oracle agreement.
    fn converged(&mut self, at: Option<usize>) -> Result<bool, Violation> {
        if self.cluster.pending_recoveries() > 0 {
            return Ok(false);
        }
        self.invariant_checks += 1;
        let deficit = self.cluster.replica_placement_deficit();
        if !deficit.is_empty() {
            // Unreachable in practice — `load_check` already treats a
            // post-check deficit as a violation — but convergence is
            // defined independently of how the checks are scheduled.
            return Ok(false);
        }
        self.check_sampled_agreement(at)?;
        Ok(true)
    }

    fn inject(&mut self, index: usize, event: FaultKind) -> Result<(), Violation> {
        self.events_by_class[event.class_index()] += 1;
        if event.is_fault() {
            self.faults_injected += 1;
        }
        match event {
            FaultKind::CrashBurst { victims } => {
                let chosen = self.pick_random_victims(victims as usize);
                self.crash(index, &chosen)
            }
            FaultKind::RingCorrelatedCrash { span } => {
                let chosen = self.pick_ring_victims(span as usize);
                self.crash(index, &chosen)
            }
            FaultKind::PartitionStorm { islands } => {
                let islands = self.random_islands(islands as usize);
                if islands.len() >= 2 {
                    self.guard("partition", Some(index), |c| {
                        c.partition_network(&islands);
                        Ok(())
                    })?;
                }
                Ok(())
            }
            FaultKind::LinkFlap { cycles } => {
                for _ in 0..cycles {
                    let islands = self.random_islands(2);
                    if islands.len() < 2 {
                        break;
                    }
                    self.guard("partition", Some(index), |c| {
                        c.partition_network(&islands);
                        Ok(())
                    })?;
                    // Race the retry/deferral machinery inside the cut,
                    // then heal before the next cycle.
                    self.load_check(Some(index))?;
                    self.guard("heal", Some(index), |c| {
                        c.heal_partition();
                        Ok(())
                    })?;
                }
                Ok(())
            }
            FaultKind::GrayDegrade {
                drop_permille,
                extra_latency_ms,
            } => {
                let policy = gray_policy(drop_permille, extra_latency_ms);
                self.guard("gray_degrade", Some(index), |c| {
                    c.set_link_policy(policy);
                    Ok(())
                })?;
                self.gray_active = true;
                Ok(())
            }
            FaultKind::GrayRecover => {
                self.guard("gray_recover", Some(index), |c| {
                    c.set_link_policy(LinkPolicy::lan());
                    Ok(())
                })?;
                self.gray_active = false;
                Ok(())
            }
            FaultKind::ChurnAvalanche { joins, leaves } => {
                if self.cluster.network_is_partitioned() {
                    // Membership changes cannot complete across a cut;
                    // breathe instead so the schedule keeps moving.
                    return self.load_check(Some(index));
                }
                for step in 0..(joins + leaves) {
                    if step % 2 == 0 && step / 2 < joins {
                        self.guard("join", Some(index), |c| c.join_random_server().map(|_| ()))?;
                    } else {
                        let alive = self.cluster.server_ids();
                        if alive.len() <= MIN_SERVERS {
                            continue;
                        }
                        let victim = alive[self.rng.uniform_index(alive.len())];
                        self.guard("leave", Some(index), |c| c.leave_server(victim).map(|_| ()))?;
                    }
                }
                Ok(())
            }
            FaultKind::FlashCrowd {
                prefix_bits,
                prefix_depth,
                sources,
            } => {
                if self.cluster.network_is_partitioned() {
                    return self.load_check(Some(index));
                }
                let width = self.cluster.config().key_width;
                let depth = prefix_depth.clamp(1, width.get());
                let base = (prefix_bits >> (64 - depth)) << (width.get() - depth);
                for _ in 0..sources {
                    let low = if width.get() == depth {
                        0
                    } else {
                        self.rng.uniform_u64(1 << (width.get() - depth))
                    };
                    let key = Key::from_bits_truncated(base | low, width);
                    let id = self.next_source;
                    self.next_source += 1;
                    self.guard("attach_source", Some(index), |c| {
                        c.attach_source(id, key, FLASH_CROWD_RATE).map(|_| ())
                    })?;
                    self.attached.push(id);
                }
                Ok(())
            }
            FaultKind::SourceExodus { sources } => {
                if self.cluster.network_is_partitioned() {
                    return self.load_check(Some(index));
                }
                for _ in 0..sources {
                    // Last attached, first to leave: an exodus is the
                    // most recent crowd dissipating, which is what
                    // actually collapses a split subtree back into
                    // merges (a uniform exodus rarely drops any single
                    // group below the merge threshold).
                    let Some(id) = self.attached.pop() else { break };
                    // Sources die with unrecoverable groups; only detach
                    // the ones still alive.
                    if self.cluster.has_source(id) {
                        self.guard("detach_source", Some(index), |c| c.detach_source(id))?;
                    }
                }
                Ok(())
            }
            FaultKind::Heal => self.guard("heal", Some(index), |c| {
                c.heal_partition();
                Ok(())
            }),
            FaultKind::LoadChecks { count } => {
                for _ in 0..count {
                    self.load_check(Some(index))?;
                }
                Ok(())
            }
        }
    }

    /// Crashes `victims` together and checks recovery conservation
    /// (invariant 4): every group the victims owned is recovered, lost,
    /// or deferred — none vanish, none are double-counted.
    fn crash(&mut self, index: usize, victims: &[ServerId]) -> Result<(), Violation> {
        if victims.is_empty() {
            return Ok(());
        }
        let owned: usize = victims
            .iter()
            .map(|&v| {
                self.cluster
                    .server(v)
                    .map_or(0, |s| s.table().active_count())
            })
            .sum();
        let report = self.guard("fail_servers", Some(index), |c| c.fail_servers(victims))?;
        self.invariant_checks += 1;
        let accounted = report.groups_recovered + report.groups_lost + report.groups_deferred;
        if accounted != owned {
            return Err(Violation {
                invariant: "recovery_conservation".to_string(),
                detail: format!(
                    "victims owned {owned} groups but the failure report accounts for {accounted} \
                     (recovered {}, lost {}, deferred {})",
                    report.groups_recovered, report.groups_lost, report.groups_deferred
                ),
                event_index: Some(index),
            });
        }
        self.deferred_outstanding += report.groups_deferred as u64;
        Ok(())
    }

    /// `n` distinct random victims, capped so the cell keeps
    /// [`MIN_SERVERS`] alive.
    fn pick_random_victims(&mut self, n: usize) -> Vec<ServerId> {
        let mut alive = self.cluster.server_ids();
        let spare = alive.len().saturating_sub(MIN_SERVERS);
        let n = n.min(spare);
        shuffle(&mut alive, &mut self.rng);
        alive.truncate(n);
        alive
    }

    /// A random victim plus its ring successors — the correlated crash
    /// that lands on the victim's own replica set.
    fn pick_ring_victims(&mut self, span: usize) -> Vec<ServerId> {
        let alive = self.cluster.server_ids();
        let spare = alive.len().saturating_sub(MIN_SERVERS);
        let span = span.min(spare);
        if span == 0 {
            return Vec::new();
        }
        let victim = alive[self.rng.uniform_index(alive.len())];
        let mut chosen = vec![victim];
        chosen.extend(self.cluster.net().alive_successors(victim, span - 1));
        chosen.truncate(span);
        chosen
    }

    /// Splits the live membership into `k` random nonempty islands
    /// (fewer when the cell is small). The result feeds
    /// [`ClashCluster::partition_network`], which replaces any existing
    /// cut — consecutive storms roll the partition around the ring.
    fn random_islands(&mut self, k: usize) -> Vec<Vec<ServerId>> {
        let mut alive = self.cluster.server_ids();
        let k = k.min(alive.len());
        if k < 2 {
            return Vec::new();
        }
        shuffle(&mut alive, &mut self.rng);
        let mut islands: Vec<Vec<ServerId>> = vec![Vec::new(); k];
        // Deal one server to each island first so all are nonempty, then
        // scatter the rest.
        for (i, id) in alive.iter().enumerate() {
            if i < k {
                islands[i].push(*id);
            } else {
                let slot = self.rng.uniform_index(k);
                islands[slot].push(*id);
            }
        }
        islands
    }

    /// One load check plus the per-check bookkeeping feeding the
    /// conservation invariants.
    fn load_check(&mut self, at: Option<usize>) -> Result<(), Violation> {
        let report = self.guard("load_check", at, |c| c.run_load_check())?;
        self.sum_completed += report.recoveries_completed;
        self.sum_lost += report.recoveries_lost;
        self.deferred_outstanding = self
            .deferred_outstanding
            .saturating_sub(report.recoveries_completed + report.recoveries_lost);
        // Invariant 6, checked at every load check: a load check both
        // syncs replica placement and performs splits/merges, so on its
        // return no group may be silently under-replicated — anything
        // legitimately in flight sits in the dirty or pending sets,
        // which the deficit excludes. This is the window where a merge
        // that skipped re-seeding is caught *before* the next
        // membership change's full sync quietly repairs it.
        self.invariant_checks += 1;
        let deficit = self.cluster.replica_placement_deficit();
        if let Some(first) = deficit.first() {
            return Err(Violation {
                invariant: "replica_placement".to_string(),
                detail: format!(
                    "{} groups under-replicated outside the dirty/pending sets after a load \
                     check; first: group {:?} has {} of {} replicas",
                    deficit.len(),
                    first.0,
                    first.1,
                    first.2
                ),
                event_index: at,
            });
        }
        Ok(())
    }

    /// Invariants 1–3 (plus 5 on a quiet network), checked after every
    /// event.
    fn check_invariants(&mut self, at: Option<usize>) -> Result<(), Violation> {
        // The invariants read loads and replica ledgers: close the
        // event's locate window first.
        self.guard("flush_batch", at, |c| c.flush_batch())?;
        // 1. Structural consistency. `verify_consistency` panics with a
        // descriptive message on violation; the quiet catch turns that
        // into a first-class finding.
        self.invariant_checks += 1;
        {
            let cluster = &self.cluster;
            catch_violation(|| cluster.verify_consistency()).map_err(|msg| Violation {
                invariant: "verify_consistency".to_string(),
                detail: msg,
                event_index: at,
            })?;
        }
        // 2. Retry conservation.
        self.invariant_checks += 1;
        let (retries, blocked) = self.cluster.recovery_retry_counters();
        if retries != blocked + self.sum_completed + self.sum_lost {
            return Err(Violation {
                invariant: "retry_conservation".to_string(),
                detail: format!(
                    "{retries} retries != {blocked} blocked + {} completed + {} lost",
                    self.sum_completed, self.sum_lost
                ),
                event_index: at,
            });
        }
        // 3. Deferral ledger.
        self.invariant_checks += 1;
        let pending = self.cluster.pending_recoveries() as u64;
        if pending != self.deferred_outstanding {
            return Err(Violation {
                invariant: "deferral_ledger".to_string(),
                detail: format!(
                    "{pending} pending recoveries but ledger says {}",
                    self.deferred_outstanding
                ),
                event_index: at,
            });
        }
        // 5. Oracle agreement — only when the network is quiet enough
        // that locate must succeed and every group is in the cover.
        if !self.cluster.network_is_partitioned() && pending == 0 && !self.gray_active {
            self.check_sampled_agreement(at)?;
        }
        Ok(())
    }

    /// Invariant 5: `locate` and `oracle_locate` agree on a sampled key
    /// set. Caller guarantees a connected network and empty pending set.
    fn check_sampled_agreement(&mut self, at: Option<usize>) -> Result<(), Violation> {
        self.invariant_checks += 1;
        let mut sample_rng =
            DetRng::new(self.seed).substream_indexed("chaos-sample", self.sample_rounds);
        self.sample_rounds += 1;
        let width = self.cluster.config().key_width;
        for _ in 0..SAMPLE_KEYS {
            let key = Key::from_bits_truncated(sample_rng.next_u64(), width);
            let oracle = self.cluster.oracle_locate(key);
            let located = self.guard("locate", at, |c| c.locate(key))?;
            let agreed =
                oracle.is_some_and(|(srv, grp)| located.server == srv && located.group == grp);
            if !agreed {
                return Err(Violation {
                    invariant: "oracle_agreement".to_string(),
                    detail: format!(
                        "locate({key:?}) -> ({:?}, {:?}) but oracle says {oracle:?}",
                        located.server, located.group
                    ),
                    event_index: at,
                });
            }
        }
        Ok(())
    }

    /// Runs one cluster operation, converting both `Err` returns and
    /// panics (debug-build consistency sweeps fire inside load checks)
    /// into violations.
    fn guard<R>(
        &mut self,
        op: &'static str,
        at: Option<usize>,
        f: impl FnOnce(&mut ClashCluster) -> Result<R, ClashError>,
    ) -> Result<R, Violation> {
        let cluster = &mut self.cluster;
        match catch_violation(AssertUnwindSafe(|| f(cluster))) {
            Ok(Ok(value)) => Ok(value),
            Ok(Err(e)) => Err(Violation {
                invariant: "op_error".to_string(),
                detail: format!("{op} failed: {e:?}"),
                event_index: at,
            }),
            Err(msg) => Err(Violation {
                invariant: "verify_consistency".to_string(),
                detail: format!("panic during {op}: {msg}"),
                event_index: at,
            }),
        }
    }
}

/// The degraded link policy for a gray failure: the LAN baseline plus
/// added loss (capped at 30%) and constant extra latency. Retries are
/// raised so degraded links stay semantically reachable — a gray link is
/// slow and lossy, not severed.
fn gray_policy(drop_permille: u32, extra_latency_ms: u32) -> LinkPolicy {
    let extra = u64::from(extra_latency_ms) * 1000;
    LinkPolicy {
        latency: LatencyModel::Uniform {
            lo: clash_simkernel::time::SimDuration::from_micros(200 + extra),
            hi: clash_simkernel::time::SimDuration::from_micros(2_000 + extra),
        },
        drop_probability: f64::from(drop_permille.min(300)) / 1000.0,
        retry_timeout: clash_simkernel::time::SimDuration::from_micros(20_000),
        max_retries: 12,
    }
}

/// Fisher–Yates with the injector's deterministic RNG.
fn shuffle<T>(items: &mut [T], rng: &mut DetRng) {
    for i in (1..items.len()).rev() {
        let j = rng.uniform_index(i + 1);
        items.swap(i, j);
    }
}

static HOOK_INIT: Once = Once::new();
thread_local! {
    static SUPPRESS_PANIC_REPORT: Cell<bool> = const { Cell::new(false) };
}

/// Catches a panic and returns its message, without the default hook
/// spraying "thread panicked at ..." over the campaign output. The
/// replacement hook delegates to the previous one for every panic that
/// is not inside a `catch_violation` call on this thread, so unrelated
/// panics keep their normal reporting.
fn catch_violation<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    HOOK_INIT.call_once(|| {
        let previous = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !SUPPRESS_PANIC_REPORT.with(Cell::get) {
                previous(info);
            }
        }));
    });
    SUPPRESS_PANIC_REPORT.with(|s| s.set(true));
    let outcome = panic::catch_unwind(AssertUnwindSafe(f));
    SUPPRESS_PANIC_REPORT.with(|s| s.set(false));
    outcome.map_err(|payload| {
        payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string())
    })
}
