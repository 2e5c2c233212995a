//! The traced replay: a benchmark-owned closed loop over
//! `ClashCluster`'s public API that issues, call for call, what
//! `SimDriver::run_with_cluster` issues for the same scenario — same
//! RNG substreams, same event model, same barriers — with one span
//! around every call into the cluster.
//!
//! Because the loop draws exactly what the driver draws, the cluster
//! ends in the same state (checked: event count and `MessageStats` must
//! equal the untraced run's), so the span times attribute the *real*
//! run's wall: what the spans do not cover is the driver's own share
//! (event queue, key sampling, metric sampling, summarising).
//!
//! The loop is the benchmark's model of `crates/sim/src/driver.rs`. A
//! change to the driver's event semantics changes every pinned
//! fingerprint too; when that happens this file follows in a
//! benchmark-only change.

use std::time::Instant;

use clash_core::cluster::{ClashCluster, MessageStats};
use clash_core::ServerId;
use clash_obs::WallProfiler;
use clash_simkernel::dist::Exponential;
use clash_simkernel::event::EventQueue;
use clash_simkernel::rng::DetRng;
use clash_simkernel::time::{SimDuration, SimTime};
use clash_workload::skew::{Workload, WorkloadKind};
use clash_workload::source::SourceModel;

use crate::spans::{Recorder, SpanKind};
use crate::stats;
use crate::workloads::Scenario;

#[derive(Debug, Clone, Copy)]
enum Ev {
    KeyChange { source: u64 },
    LoadCheck,
    Sample,
    Join { sustained: bool },
    Leave,
    Crash,
    CrashBurst,
}

/// One finished replay.
pub struct Replay {
    /// Wall seconds of the loop (set-up excluded, as for `run_s`).
    pub wall_s: f64,
    pub recorder: Recorder,
    /// Discrete events scheduled — must equal `RunResult.events`.
    pub events: u64,
    /// Final message counters — must equal `RunResult.final_messages`.
    pub messages: MessageStats,
}

fn workload_index(kind: WorkloadKind) -> usize {
    match kind {
        WorkloadKind::A => 0,
        WorkloadKind::B => 1,
        WorkloadKind::C => 2,
    }
}

fn churn_interval(mean: SimDuration, churn_rng: &mut DetRng) -> SimDuration {
    let secs = Exponential::with_mean(mean.as_secs_f64()).sample(churn_rng);
    SimDuration::from_secs_f64(secs.max(1.0))
}

/// Replays `scn`; with `traced` every cluster call gets a span.
pub fn replay(scn: &Scenario, run_id: u32, traced: bool) -> Result<Replay, String> {
    let spec = &scn.spec;
    let config = scn.config;
    if spec.query_clients != 0 {
        return Err("the replay models source-only scenarios".to_owned());
    }
    let err = |e: clash_core::ClashError| format!("replay: {e}");
    let mut cluster =
        ClashCluster::with_transport(config, spec.servers, spec.seed, scn.transport())
            .map_err(err)?;
    // The driver always installs the wall profiler; so does its model.
    cluster.set_profiler(Box::new(WallProfiler::default()));
    let mut rng = DetRng::new(spec.seed).substream("driver");
    let mut churn_rng = DetRng::new(spec.seed).substream("churn");
    let workloads = [
        Workload::paper(WorkloadKind::A),
        Workload::paper(WorkloadKind::B),
        Workload::paper(WorkloadKind::C),
    ];
    let source_model =
        |kind: WorkloadKind| SourceModel::new(kind.source_rate(), spec.mean_stream_packets);
    let mut queue: EventQueue<Ev> = EventQueue::new();
    let end = SimTime::ZERO + spec.total_duration();
    let churn = spec.churn;

    let mut rec = Recorder::new(run_id, traced);
    let started = Instant::now();
    let root = rec.open(SpanKind::Replay, None);
    let mut period = rec.open(SpanKind::Period, root);

    // populate()
    let kind = spec.workload_at(SimDuration::ZERO);
    let model = source_model(kind);
    for source in 0..spec.sources as u64 {
        let key = workloads[workload_index(kind)].sample_key(config.key_width, &mut rng);
        rec.leaf(SpanKind::Attach, period, || {
            cluster.attach_source(source, key, model.rate())
        })
        .map_err(err)?;
        let next = model.sample_stream_duration(&mut rng);
        queue.schedule(SimTime::ZERO + next, Ev::KeyChange { source });
    }
    // Periodic machinery, in the driver's scheduling order (ties in the
    // queue break by insertion).
    queue.schedule(SimTime::ZERO + spec.load_check_period, Ev::LoadCheck);
    queue.schedule(SimTime::ZERO + spec.sample_period, Ev::Sample);
    if let Some(churn) = &churn {
        if let Some(mean) = churn.mean_join_interval {
            let at = SimTime::ZERO + churn_interval(mean, &mut churn_rng);
            queue.schedule(at, Ev::Join { sustained: true });
        }
        if let Some(mean) = churn.mean_leave_interval {
            let at = SimTime::ZERO + churn_interval(mean, &mut churn_rng);
            queue.schedule(at, Ev::Leave);
        }
        if let Some(mean) = churn.mean_crash_interval {
            let at = SimTime::ZERO + churn_interval(mean, &mut churn_rng);
            queue.schedule(at, Ev::Crash);
        }
        if let Some(mean) = churn.mean_burst_interval {
            let at = SimTime::ZERO + churn_interval(mean, &mut churn_rng);
            queue.schedule(at, Ev::CrashBurst);
        }
        if let Some(flash) = churn.flash_crowd {
            for i in 0..flash.joins {
                let offset = SimDuration::from_micros(flash.spacing.as_micros() * i as u64);
                queue.schedule(
                    SimTime::ZERO + flash.at + offset,
                    Ev::Join { sustained: false },
                );
            }
        }
    }
    rec.leaf(SpanKind::Flush, period, || cluster.flush_batch())
        .map_err(err)?;

    while let Some((at, ev)) = queue.pop_before(end) {
        cluster.set_now(at);
        match ev {
            Ev::KeyChange { source } => {
                if !cluster.has_source(source) {
                    continue;
                }
                let kind = spec.workload_at(queue.now().saturating_duration_since(SimTime::ZERO));
                let key = workloads[workload_index(kind)].sample_key(config.key_width, &mut rng);
                let model = source_model(kind);
                rec.leaf(SpanKind::Move, period, || {
                    cluster.move_source_with_rate(source, key, Some(model.rate()))
                })
                .map_err(err)?;
                let next = model.sample_stream_duration(&mut rng);
                queue.schedule(at + next, Ev::KeyChange { source });
            }
            Ev::LoadCheck => {
                rec.leaf(SpanKind::Flush, period, || cluster.flush_batch())
                    .map_err(err)?;
                rec.leaf(SpanKind::LoadCheck, period, || cluster.run_load_check())
                    .map_err(err)?;
                queue.schedule(at + spec.load_check_period, Ev::LoadCheck);
                rec.close(period);
                period = rec.open(SpanKind::Period, root);
            }
            Ev::Sample => {
                // The driver's sample reads state behind this barrier;
                // the reads themselves are driver time, not cluster time.
                rec.leaf(SpanKind::Flush, period, || cluster.flush_batch())
                    .map_err(err)?;
                queue.schedule(at + spec.sample_period, Ev::Sample);
            }
            Ev::Join { sustained } => {
                let churn = churn.as_ref().expect("join events require churn");
                if cluster.server_count() < churn.max_servers {
                    loop {
                        let id = ServerId::new(churn_rng.next_u64(), config.hash_space);
                        if cluster.net().node(id).is_none() {
                            rec.leaf(SpanKind::Join, period, || cluster.join_server(id))
                                .map_err(err)?;
                            break;
                        }
                    }
                }
                if let (true, Some(mean)) = (sustained, churn.mean_join_interval) {
                    let next = churn_interval(mean, &mut churn_rng);
                    queue.schedule(at + next, Ev::Join { sustained: true });
                }
            }
            Ev::Leave => {
                let churn = churn.as_ref().expect("leave events require churn");
                if cluster.server_count() > churn.min_servers.max(1) {
                    let ids = cluster.server_ids();
                    let victim = ids[churn_rng.uniform_index(ids.len())];
                    rec.leaf(SpanKind::Leave, period, || cluster.leave_server(victim))
                        .map_err(err)?;
                }
                if let Some(mean) = churn.mean_leave_interval {
                    let next = churn_interval(mean, &mut churn_rng);
                    queue.schedule(at + next, Ev::Leave);
                }
            }
            Ev::Crash => {
                let churn = churn.as_ref().expect("crash events require churn");
                if cluster.server_count() > churn.min_servers.max(1) {
                    let ids = cluster.server_ids();
                    let victim = ids[churn_rng.uniform_index(ids.len())];
                    rec.leaf(SpanKind::Fail, period, || cluster.fail_server(victim))
                        .map_err(err)?;
                }
                if let Some(mean) = churn.mean_crash_interval {
                    let next = churn_interval(mean, &mut churn_rng);
                    queue.schedule(at + next, Ev::Crash);
                }
            }
            Ev::CrashBurst => {
                let churn = churn.as_ref().expect("burst events require churn");
                let size = churn.burst_size.max(1);
                if cluster.server_count() >= churn.min_servers.max(1) + size {
                    let ids = cluster.server_ids();
                    let start = ids[churn_rng.uniform_index(ids.len())];
                    let mut victims = vec![start];
                    victims.extend(cluster.net().alive_successors(start, size - 1));
                    rec.leaf(SpanKind::Fail, period, || cluster.fail_servers(&victims))
                        .map_err(err)?;
                }
                if let Some(mean) = churn.mean_burst_interval {
                    let next = churn_interval(mean, &mut churn_rng);
                    queue.schedule(at + next, Ev::CrashBurst);
                }
            }
        }
    }
    rec.leaf(SpanKind::Flush, period, || cluster.flush_batch())
        .map_err(err)?;
    rec.close(period);
    rec.close(root);
    let wall_s = started.elapsed().as_secs_f64();
    Ok(Replay {
        wall_s,
        recorder: rec,
        events: queue.scheduled_total(),
        messages: cluster.message_stats(),
    })
}

/// The `core.*` / `trace.*` metrics one traced replay yields, plus the
/// total time its cluster-call spans cover (for `sim.residual_ratio`).
pub struct ReplayMetrics {
    pub values: Vec<(&'static str, f64)>,
    pub covered_s: f64,
}

/// Derives the per-layer numbers from a traced replay's spans. A kind
/// the workload never calls (membership on `fig4_static`) reports 0.
pub fn metrics(replay: &Replay) -> ReplayMetrics {
    let rec = &replay.recorder;
    // Sorted durations per call kind, extracted once.
    let by_kind = SpanKind::OPS.map(|kind| stats::sorted(&rec.durations_ns(kind)));
    let sorted = |kind| {
        let at = SpanKind::OPS.iter().position(|&k| k == kind);
        &by_kind[at.expect("a call kind")]
    };
    let p50 = |kind, unit_ns: f64| {
        stats::percentile_sorted(sorted(kind), 0.5).map_or(0.0, |ns| ns / unit_ns)
    };
    let total_ns = |kind| sorted(kind).iter().sum::<f64>();
    let wall_ns = rec
        .spans()
        .first()
        .map_or(replay.wall_s * 1e9, |root| root.duration_ns() as f64);
    let share = |kinds: &[SpanKind]| {
        kinds
            .iter()
            .map(|&k| rec.self_time_ns(k) as f64)
            .sum::<f64>()
            / wall_ns
    };
    let moves = sorted(SpanKind::Move);
    let checks = sorted(SpanKind::LoadCheck);
    let values = vec![
        ("core.attach_source_us_p50", p50(SpanKind::Attach, 1e3)),
        ("core.move_us_p50", p50(SpanKind::Move, 1e3)),
        (
            "core.move_us_p99",
            stats::percentile_or_supported(moves, 0.99).map_or(0.0, |ns| ns / 1e3),
        ),
        (
            "core.locate_us_per_move",
            (total_ns(SpanKind::Move) + total_ns(SpanKind::Flush))
                / 1e3
                / moves.len().max(1) as f64,
        ),
        ("core.flush_batch_ms_total", total_ns(SpanKind::Flush) / 1e6),
        ("core.load_check_ms_p50", p50(SpanKind::LoadCheck, 1e6)),
        (
            "core.load_check_ms_max",
            checks.last().map_or(0.0, |ns| ns / 1e6),
        ),
        ("core.join_ms_p50", p50(SpanKind::Join, 1e6)),
        ("core.leave_ms_p50", p50(SpanKind::Leave, 1e6)),
        ("core.fail_ms_p50", p50(SpanKind::Fail, 1e6)),
        ("core.share.attach", share(&[SpanKind::Attach])),
        ("core.share.move", share(&[SpanKind::Move])),
        ("core.share.flush", share(&[SpanKind::Flush])),
        ("core.share.load_check", share(&[SpanKind::LoadCheck])),
        (
            "core.share.membership",
            share(&[SpanKind::Join, SpanKind::Leave, SpanKind::Fail]),
        ),
        (
            "sim.replay_loop_share",
            share(&[SpanKind::Period, SpanKind::Replay]),
        ),
    ];
    ReplayMetrics {
        values,
        covered_s: SpanKind::OPS.iter().map(|&k| total_ns(k)).sum::<f64>() / 1e9,
    }
}
