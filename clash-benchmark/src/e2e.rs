//! The untraced end-to-end pass: the program's real entry point, timed
//! from outside, with its outputs checked after every repetition.
//!
//! One repetition = `SimDriver::with_transport(..)` (timed as set-up)
//! then `SimDriver::run_with_cluster()` (timed as the run) on a fresh
//! driver with the same seed. Work per repetition is fixed; `--seconds`
//! only decides how many repetitions a run makes.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use clash_core::cluster::ClashCluster;
use clash_keyspace::key::Key;
use clash_obs::NullProfiler;
use clash_sim::driver::{RunResult, SimDriver};
use clash_simkernel::rng::DetRng;
use clash_workload::skew::{Workload, WorkloadKind};

use crate::host;
use crate::workloads::{Scenario, WorkloadId};

/// Keys in the post-run `locate` vs `oracle_locate` sweep.
pub const SWEEP_KEYS: usize = 2048;

/// Stand-alone set-ups timed before the repetitions, so `setup_s` is a
/// median over many samples even when a run makes few repetitions.
const EXTRA_SETUPS: usize = 15;

/// How many repetitions a pass makes.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Exactly this many.
    Reps(usize),
    /// As many as start within this many seconds of measuring, and never
    /// fewer than [`MIN_REPS`].
    Seconds(f64),
}

/// Fewest repetitions a time budget may yield: a median needs three.
pub const MIN_REPS: usize = 3;

/// One named output check.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

/// Accumulated correctness state of a run.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Operations whose outputs were checked (events + sweep keys).
    pub attempted: u64,
    /// Operations whose output was wrong (oracle mismatches, locate errors).
    pub failed: u64,
    pub checks: Vec<Check>,
}

impl Verdict {
    pub fn ok(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.ok)
    }

    pub fn check(&mut self, name: impl Into<String>, ok: bool, detail: impl Into<String>) {
        // One line per distinct check: later repetitions only ever turn
        // an existing check red.
        let name = name.into();
        match self.checks.iter_mut().find(|c| c.name == name) {
            Some(existing) if existing.ok && !ok => {
                existing.ok = false;
                existing.detail = detail.into();
            }
            Some(_) => {}
            None => self.checks.push(Check {
                name,
                ok,
                detail: detail.into(),
            }),
        }
    }
}

/// One finished repetition, cluster still alive for inspection.
pub struct Rep {
    pub setup_s: f64,
    pub run_s: f64,
    pub cpu_s: f64,
    pub result: RunResult,
    pub cluster: ClashCluster,
}

/// `SimDriver::with_transport` for `scn`, with the wall seconds it took.
fn timed_setup(scn: &Scenario) -> Result<(SimDriver, f64), String> {
    let t0 = Instant::now();
    let driver =
        SimDriver::with_transport(scn.config, scn.spec.clone(), scn.label(), scn.transport())
            .map_err(|e| format!("set-up failed: {e}"))?;
    Ok((driver, t0.elapsed().as_secs_f64()))
}

/// Builds a fresh driver and runs it to completion, timing both halves.
/// `null_profiler` swaps the driver's default `WallProfiler` for
/// `NullProfiler` (the profiler-overhead probe).
pub fn run_rep(scn: &Scenario, null_profiler: bool) -> Result<Rep, String> {
    let (mut driver, setup_s) = timed_setup(scn)?;
    if null_profiler {
        driver.cluster_mut().set_profiler(Box::new(NullProfiler));
    }
    let cpu0 = host::cpu_seconds()?;
    let t1 = Instant::now();
    let (result, cluster) = driver
        .run_with_cluster()
        .map_err(|e| format!("run failed: {e}"))?;
    let run_s = t1.elapsed().as_secs_f64();
    let cpu_s = host::cpu_seconds()? - cpu0;
    Ok(Rep {
        setup_s,
        run_s,
        cpu_s,
        result,
        cluster,
    })
}

/// FNV-1a over the run's deterministic fingerprint (the string itself
/// holds every sample row; the digest is what gets compared and printed).
pub fn fingerprint(result: &RunResult) -> u64 {
    result
        .deterministic_fingerprint()
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// Checks one repetition's outputs: cluster consistency, the fingerprint
/// against the run's reference, the locate-vs-oracle sweep, and that
/// recovery never read the oracle.
pub fn verify_rep(scn: &Scenario, rep: &mut Rep, reference: u64, verdict: &mut Verdict) {
    let cluster = &mut rep.cluster;
    let consistent = catch_unwind(AssertUnwindSafe(|| cluster.verify_consistency())).is_ok();
    verdict.check(
        "verify_consistency",
        consistent,
        "oracle, server tables and ledgers disagree (see panic above)",
    );
    let print = fingerprint(&rep.result);
    verdict.check(
        "fingerprint_repeats",
        print == reference,
        format!("repetition printed {print:016x}, reference {reference:016x}"),
    );
    verdict.check(
        "recovery_oracle_reads_zero",
        cluster.recovery_oracle_reads() == 0,
        format!(
            "{} oracle reads during recovery",
            cluster.recovery_oracle_reads()
        ),
    );

    // Post-run sweep: the client protocol must find what the oracle
    // says, for hot (workload C) and uniform keys alike.
    let width = scn.config.key_width;
    let hot = Workload::paper(WorkloadKind::C);
    let mut rng = DetRng::new(scn.spec.seed).substream("benchmark-sweep");
    let mut wrong = 0u64;
    for i in 0..SWEEP_KEYS {
        let key = if i % 2 == 0 {
            hot.sample_key(width, &mut rng)
        } else {
            Key::from_bits_truncated(rng.next_u64(), width)
        };
        let truth = cluster.oracle_locate(key);
        match cluster.locate(key) {
            Ok(found) if truth == Some((found.server, found.group)) => {}
            _ => wrong += 1,
        }
    }
    let flushed = cluster.flush_batch().is_ok();
    verdict.check("sweep_flush", flushed, "flush_batch failed after the sweep");
    verdict.check(
        "sweep_locate_matches_oracle",
        wrong == 0,
        format!("{wrong} of {SWEEP_KEYS} keys located differently from the oracle"),
    );
    verdict.attempted += rep.result.events + SWEEP_KEYS as u64;
    verdict.failed += wrong;
}

/// Mean of `active_servers / server_count` over the run's samples.
pub fn active_server_ratio(result: &RunResult) -> f64 {
    let rows = &result.samples;
    rows.iter()
        .map(|r| r.active_servers as f64 / r.server_count.max(1) as f64)
        .sum::<f64>()
        / rows.len().max(1) as f64
}

/// Per-metric samples of one end-to-end pass (one value per repetition;
/// `setup_s` also holds the stand-alone set-ups, `peak_rss_mb` one value).
pub type Samples = BTreeMap<String, Vec<f64>>;

/// Appends one sample of `name`.
pub fn push(samples: &mut Samples, name: &str, v: f64) {
    samples.entry(name.to_owned()).or_default().push(v);
}

/// The result of one end-to-end pass.
pub struct Pass {
    pub samples: Samples,
    pub reps: usize,
}

/// Everything a run does before its first measured repetition: the
/// sibling reference for `churn_wan_sharded`, then one discarded warm-up
/// repetition (first-touch page faults and allocator growth are paid
/// once per process, not once per simulation). Returns the reference
/// fingerprint every later repetition must reproduce.
pub fn warm_up(scn: &Scenario, verdict: &mut Verdict) -> Result<u64, String> {
    let mut reference = None;
    if scn.id == WorkloadId::ChurnWanSharded {
        // Same scenario, seed and label on the sequential path: the
        // batched pipeline must reproduce it bit for bit.
        let seq = Scenario {
            config: scn.config.with_shards(0),
            ..scn.clone()
        };
        let rep = run_rep(&seq, false)?;
        reference = Some(fingerprint(&rep.result));
    }
    let mut rep = run_rep(scn, false)?;
    let own = fingerprint(&rep.result);
    if let Some(seq) = reference {
        verdict.check(
            "sharded_equals_sequential",
            own == seq,
            format!("shards=2 printed {own:016x}, shards=0 printed {seq:016x}"),
        );
    }
    verify_rep(scn, &mut rep, own, verdict);
    // The warm-up's events are checked but not part of the measurement.
    Ok(own)
}

/// Runs one measured pass: stand-alone set-ups, then repetitions until
/// the budget is spent, checking every repetition.
pub fn measure(
    scn: &Scenario,
    budget: Budget,
    reference: u64,
    verdict: &mut Verdict,
) -> Result<Pass, String> {
    let mut samples = Samples::new();
    for _ in 0..EXTRA_SETUPS {
        push(&mut samples, "setup_s", timed_setup(scn)?.1);
    }
    let started = Instant::now();
    let mut reps = 0usize;
    loop {
        let done = match budget {
            Budget::Reps(n) => reps >= n,
            Budget::Seconds(s) => reps >= MIN_REPS && started.elapsed().as_secs_f64() >= s,
        };
        if done {
            break;
        }
        let mut rep = run_rep(scn, false)?;
        let events = rep.result.events as f64;
        let mut push = |name, v| push(&mut samples, name, v);
        push("setup_s", rep.setup_s);
        push("run_s", rep.run_s);
        push("events_per_s", events / rep.run_s);
        push("cpu_s_per_mevent", rep.cpu_s / (events / 1e6));
        push(
            "sim_msgs_per_event",
            rep.result.final_messages.total_messages() as f64 / events,
        );
        push("sim_active_server_ratio", active_server_ratio(&rep.result));
        verify_rep(scn, &mut rep, reference, verdict);
        reps += 1;
    }
    samples.insert("peak_rss_mb".to_owned(), vec![host::peak_rss_mb()?]);
    Ok(Pass { samples, reps })
}

/// The per-layer metrics that are *read* from an untraced repetition's
/// public results (counts, virtual-time statistics, the program's own
/// phase profile) rather than timed by the benchmark.
pub fn layer_reads(rep: &Rep) -> Vec<(String, f64)> {
    let r = &rep.result;
    let c = &rep.cluster;
    let events = r.events as f64;
    let msgs = r.final_messages;
    let locate = &c.latency_metrics().locate;
    let transport = c.transport_stats();
    let cover = c.global_cover();
    let (_, depth_mean, depth_max) = cover.depth_stats().unwrap_or((0, 0.0, 0));
    let peak_load = r.samples.iter().map(|s| s.max_load_pct).fold(0.0, f64::max);
    let mut out: Vec<(String, f64)> = [
        ("sim.events", events),
        (
            "sim.membership_events",
            (r.joins + r.leaves + r.crashes) as f64,
        ),
        ("sim.load_checks", r.load_checks as f64),
        ("sim.locate_p50_ms", locate.quantile(0.50).unwrap_or(0.0)),
        ("sim.locate_p95_ms", locate.quantile(0.95).unwrap_or(0.0)),
        ("sim.locate_samples", locate.summary().count() as f64),
        ("sim.max_load_ratio", peak_load / 100.0),
        (
            "sim.recovery_success_ratio",
            r.recovery.recovery_success_rate(),
        ),
        ("sim.sources_lost", r.recovery.sources_lost as f64),
        ("keyspace.groups", cover.len() as f64),
        ("keyspace.depth_mean", depth_mean),
        ("keyspace.depth_max", f64::from(depth_max)),
        ("chord.lookups", c.net().stats().lookups as f64),
        ("transport.messages", transport.messages as f64),
        ("transport.retries_per_msg", transport.retry_overhead()),
        ("transport.mean_latency_ms", transport.mean_latency_ms()),
        (
            "core.check_mean_ms",
            r.check_wall_ms / r.load_checks.max(1) as f64,
        ),
        ("core.splits", r.splits as f64),
        ("core.merges", r.merges as f64),
        ("core.self_mapped_retries", msgs.self_mapped_retries as f64),
        (
            "replication.msgs_per_event",
            msgs.replication_messages as f64 / events,
        ),
        (
            "replication.groups_recovered",
            r.recovery.groups_recovered as f64,
        ),
        ("replication.groups_lost", r.recovery.groups_lost as f64),
        ("replication.oracle_reads", c.recovery_oracle_reads() as f64),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_owned(), v))
    .collect();
    for phase in clash_obs::CheckPhase::ALL {
        out.push((
            format!("core.phase.{}_ms", phase.name()),
            r.phase_profile.get(phase),
        ));
    }
    out
}
