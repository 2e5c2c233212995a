//! Per-layer micro-timings for the traced pass: the benchmark times
//! calls into each layer's public functions, at the sizes and on the
//! final state of the workload's own run, so a layer's number moves for
//! the same reasons its share of the end-to-end wall moves.
//!
//! Every timing is the median over [`BATCHES`] batches of a fixed number
//! of calls; inputs are generated before the clock starts and results go
//! through `black_box`.

use std::hint::black_box;
use std::time::Instant;

use clash_chord::{ChordId, SimNet};
use clash_core::cluster::ClashCluster;
use clash_keyspace::hash::{KeyHasher, SplitMixHasher};
use clash_keyspace::key::Key;
use clash_keyspace::prefix::Prefix;
use clash_simkernel::event::EventQueue;
use clash_simkernel::rng::DetRng;
use clash_simkernel::time::{SimDuration, SimTime};
use clash_transport::{Delivery, MessageClass, SendSpec};
use clash_workload::skew::{Workload, WorkloadKind};

use crate::stats;
use crate::workloads::Scenario;

const BATCHES: usize = 5;

/// Calls per batch for nanosecond-scale operations.
const FAST_OPS: usize = 20_000;

/// Median over batches of `ns per call`, where `batch(i)` performs
/// `ops` calls and is timed whole.
fn ns_per_op(ops: usize, mut batch: impl FnMut(usize)) -> f64 {
    let samples: Vec<f64> = (0..BATCHES)
        .map(|i| {
            let t0 = Instant::now();
            batch(i);
            t0.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    stats::median(&samples).expect("BATCHES > 0")
}

/// Median over batches of one call's milliseconds.
fn ms_per_call(mut call: impl FnMut()) -> f64 {
    ns_per_op(1, |_| call()) / 1e6
}

/// Times every layer below `core` for `scn`, against `cluster` — the
/// final state of the workload's untraced run.
pub fn layer_timings(scn: &Scenario, cluster: &ClashCluster) -> Vec<(&'static str, f64)> {
    let config = scn.config;
    let width = config.key_width;
    let mut rng = DetRng::new(scn.spec.seed).substream("benchmark-micro");
    let hot = Workload::paper(WorkloadKind::C);
    let keys: Vec<Key> = (0..FAST_OPS)
        .map(|_| hot.sample_key(width, &mut rng))
        .collect();
    let mut out = Vec::new();

    // simkernel: pop the earliest event and schedule its successor, with
    // the queue as deep as the run keeps it (one event per source).
    {
        let mut queue: EventQueue<u64> = EventQueue::new();
        for source in 0..scn.spec.sources as u64 {
            let at = SimTime::ZERO + SimDuration::from_micros(rng.uniform_u64(600_000_000));
            queue.schedule(at, source);
        }
        let gaps: Vec<SimDuration> = (0..FAST_OPS)
            .map(|_| SimDuration::from_micros(1 + rng.uniform_u64(600_000_000)))
            .collect();
        let horizon = SimTime::ZERO + SimDuration::from_hours(24 * 365);
        out.push((
            "simkernel.event_queue_ns_per_event",
            ns_per_op(FAST_OPS, |_| {
                for gap in &gaps {
                    let (at, source) = queue.pop_before(horizon).expect("queue stays full");
                    queue.schedule(at + *gap, black_box(source));
                }
            }),
        ));
    }

    // workload: one key draw.
    out.push((
        "workload.sample_key_ns",
        ns_per_op(FAST_OPS, |_| {
            for _ in 0..FAST_OPS {
                black_box(hot.sample_key(width, &mut rng));
            }
        }),
    ));

    // keyspace: what one depth-search probe computes (prefix → virtual
    // key → hash), and a lookup in the run's final cover.
    let cover = cluster.global_cover();
    let (_, depth_mean, _) = cover.depth_stats().unwrap_or((0, 0.0, 0));
    let probe_depth = (depth_mean.round() as u32).clamp(1, width.get());
    let hasher = SplitMixHasher::new(config.hash_space, config.hash_seed);
    out.push((
        "keyspace.hash_prefix_ns",
        ns_per_op(FAST_OPS, |_| {
            for &key in &keys {
                black_box(hasher.hash_key(Prefix::of_key(key, probe_depth).virtual_key()));
            }
        }),
    ));
    out.push((
        "keyspace.cover_locate_ns",
        ns_per_op(FAST_OPS, |_| {
            for &key in &keys {
                black_box(cover.group_of(key));
            }
        }),
    ));

    // chord: routing on the run's final ring, live and from a snapshot.
    let net = cluster.net();
    let ids = net.node_ids();
    let mask = config.hash_space.mask();
    let lookups: Vec<(ChordId, u64)> = (0..FAST_OPS)
        .map(|_| (ids[rng.uniform_index(ids.len())], rng.next_u64() & mask))
        .collect();
    let mut hops = 0u64;
    out.push((
        "chord.route_ns_per_lookup",
        ns_per_op(FAST_OPS, |batch| {
            for &(start, h) in &lookups {
                let r = black_box(net.route(start, h));
                if batch == 0 {
                    hops += u64::from(r.hops);
                }
            }
        }),
    ));
    out.push(("chord.hops_per_lookup", hops as f64 / FAST_OPS as f64));
    out.push((
        "chord.snapshot_build_ms",
        ms_per_call(|| {
            black_box(net.snapshot());
        }),
    ));
    let snapshot = net.snapshot();
    out.push((
        "chord.snapshot_route_ns_per_lookup",
        ns_per_op(FAST_OPS, |_| {
            for &(start, h) in &lookups {
                black_box(snapshot.route_with_path(start, h));
            }
        }),
    ));

    // chord: one join into a fresh, stable ring of the workload's size,
    // re-stabilized the way the cluster's membership path does it.
    {
        let mut ring_rng = DetRng::new(scn.spec.seed).substream("benchmark-ring");
        let mut ring =
            SimNet::with_random_nodes(config.hash_space, scn.spec.servers, &mut ring_rng);
        ring.set_stabilize_workers(config.shards.max(1) as usize);
        ring.build_stable();
        out.push((
            "chord.join_ms",
            ms_per_call(|| {
                let bootstrap = ring.random_alive(&mut ring_rng);
                let id = loop {
                    let id = ChordId::new(ring_rng.next_u64(), config.hash_space);
                    if ring.node(id).is_none() {
                        break id;
                    }
                };
                black_box(ring.join(id, bootstrap));
                black_box(ring.stabilize_direct());
            }),
        ));
    }

    // transport: a fresh transport with the workload's policy, charged
    // one message at a time and as one plan-ordered batch.
    let sends: Vec<SendSpec> = (0..FAST_OPS)
        .map(|_| SendSpec {
            src: ids[rng.uniform_index(ids.len())].value(),
            dst: ids[rng.uniform_index(ids.len())].value(),
            class: MessageClass::Probe,
        })
        .collect();
    let mut transport = scn.transport();
    transport.set_batch_workers(config.shards.max(1) as usize);
    out.push((
        "transport.send_ns_per_msg",
        ns_per_op(FAST_OPS, |_| {
            for s in &sends {
                black_box(transport.send(s.src, s.dst, s.class));
            }
        }),
    ));
    let mut deliveries: Vec<Delivery> = Vec::with_capacity(FAST_OPS);
    out.push((
        "transport.send_batch_ns_per_msg",
        ns_per_op(FAST_OPS, |_| {
            transport.send_batch(&sends, &mut deliveries);
            black_box(&deliveries);
        }),
    ));
    out
}
