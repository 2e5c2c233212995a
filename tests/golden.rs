//! The golden table: one committed line per scenario, so a change that
//! moves any run *across versions* shows up as a diff of
//! `tests/golden/fingerprints.txt`.
//!
//! Every row runs a small (≤ 32 servers) configuration to completion and
//! prints two halves, split by `|`:
//!
//! * **protocol** — a 16-hex FNV digest of everything the run decided
//!   with every latency reading zeroed, then the paper-level numbers:
//!   mean probes per locate, mean hops per routed lookup, the deepest
//!   group, active servers at the end and control messages per second
//!   per server (Figure 5, case A);
//! * **latency** — the FNV digest of the whole run (the digest
//!   `clash-benchmark` prints), retransmissions, the summed delivered
//!   latency in µs and the worst sampled locate p95.
//!
//! A change to how messages are priced may move only the latency half;
//! a change to what the protocol does moves the protocol half too.
//!
//! On a mismatch the test prints the whole replacement table. Paste it
//! into `tests/golden/fingerprints.txt` and name every moved row, and
//! why, in the change log.

use clash_chord::virtual_nodes::VirtualRing;
use clash_core::cluster::ClashCluster;
use clash_core::config::ClashConfig;
use clash_core::error::ClashError;
use clash_keyspace::hash::HashSpace;
use clash_keyspace::key::Key;
use clash_sim::driver::{RunResult, SimDriver};
use clash_simkernel::rng::DetRng;
use clash_simkernel::stats;
use clash_simkernel::time::SimDuration;
use clash_transport::{InstantTransport, LinkPolicy, LinkTransport, Transport};
use clash_workload::churn::ChurnSpec;
use clash_workload::scenario::ScenarioSpec;

/// The committed table.
const GOLDEN: &str = include_str!("golden/fingerprints.txt");

/// FNV-1a over a string: the digest `clash-benchmark` prints for a run.
fn fnv(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The four transports every scenario runs over.
const TRANSPORTS: [&str; 4] = ["instant", "lan", "wan", "lossy"];

fn transport(name: &str, seed: u64) -> Box<dyn Transport> {
    let policy = match name {
        "instant" => return Box::new(InstantTransport::new()),
        "lan" => LinkPolicy::lan(),
        "wan" => LinkPolicy::wan(),
        "lossy" => LinkPolicy::lossy_wan(0.05),
        other => unreachable!("no transport {other}"),
    };
    Box::new(LinkTransport::new(policy, seed))
}

/// The Figure-4 pin: 16 servers, three 5-minute workload phases, no
/// churn (the scenario `transport_faults.rs` pins).
fn fig4() -> ScenarioSpec {
    ScenarioSpec {
        servers: 16,
        sources: 300,
        query_clients: 20,
        load_check_period: SimDuration::from_secs(60),
        sample_period: SimDuration::from_secs(60),
        ..ScenarioSpec::paper().with_phase_duration(SimDuration::from_mins(5))
    }
}

/// Sustained joins and drains plus single crashes, 8–32 servers.
fn churn() -> ScenarioSpec {
    fig4().with_churn(
        ChurnSpec::sustained(SimDuration::from_mins(2), SimDuration::from_mins(3), 8, 32)
            .with_crashes(SimDuration::from_mins(4)),
    )
}

/// The churn with correlated 3-server crash bursts instead of single
/// crashes.
fn burst() -> ScenarioSpec {
    fig4().with_churn(
        ChurnSpec::sustained(SimDuration::from_mins(2), SimDuration::from_mins(3), 8, 32)
            .with_crash_bursts(SimDuration::from_mins(6), 3),
    )
}

/// A flash crowd: 16 joins 10 s apart from minute 3, 16 → 32 servers.
fn flash() -> ScenarioSpec {
    fig4().with_churn(ChurnSpec::flash_crowd(
        SimDuration::from_mins(3),
        16,
        SimDuration::from_secs(10),
    ))
}

/// A membership storm: a join, drain, crash or burst every few seconds.
fn storm() -> ScenarioSpec {
    fig4()
        .with_phase_duration(SimDuration::from_mins(2))
        .with_churn(
            ChurnSpec::sustained(SimDuration::from_secs(4), SimDuration::from_secs(10), 8, 32)
                .with_crashes(SimDuration::from_secs(12))
                .with_crash_bursts(SimDuration::from_secs(45), 3),
        )
}

fn capacity_60(config: ClashConfig) -> ClashConfig {
    ClashConfig {
        capacity: 60.0,
        ..config
    }
}

/// One line of the table.
struct Row {
    name: String,
    proto: u64,
    paper: String,
    digest: u64,
    latency: String,
}

impl Row {
    fn line(&self) -> String {
        format!(
            "{:<24} {:016x} {} | {:016x} {}",
            self.name, self.proto, self.paper, self.digest, self.latency
        )
    }
}

/// A driver run over `transport`, as a row.
fn driver_row(name: String, config: ClashConfig, spec: ScenarioSpec, transport: &str) -> Row {
    let seed = spec.seed;
    let driver = SimDriver::with_transport(
        config,
        spec,
        "golden".to_owned(),
        self::transport(transport, seed),
    )
    .unwrap();
    let (result, cluster) = driver.run_with_cluster().unwrap();
    cluster.verify_consistency();
    let mut protocol = result.clone();
    for row in &mut protocol.samples {
        row.locate_p50_ms = 0.0;
        row.locate_p95_ms = 0.0;
        row.locate_p99_ms = 0.0;
    }
    let m = &result.final_messages;
    let n = result.samples.len().max(1) as f64;
    let ctrl = result
        .samples
        .iter()
        .map(|s| s.ctrl_msgs_per_sec_per_server)
        .sum::<f64>()
        / n;
    let depth = result.samples.iter().map(|s| s.depth_max).max();
    let active = result.samples.last().map_or(0, |s| s.active_servers);
    let p95 = result
        .samples
        .iter()
        .map(|s| s.locate_p95_ms)
        .fold(0.0, f64::max);
    let t = cluster.transport_stats();
    Row {
        name,
        proto: fnv(&protocol.deterministic_fingerprint()),
        paper: format!(
            "{:>6.3} {:>6.3} {:>2} {:>2} {:>8.4}",
            ratio(m.probes, m.locates),
            cluster.net().stats().mean_hops(),
            depth.unwrap_or(0),
            active,
            ctrl
        ),
        digest: fingerprint(&result),
        latency: format!(
            "{:>6} {:>12} {:>9.3}",
            t.retransmissions, t.total_latency_us, p95
        ),
    }
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

fn fingerprint(result: &RunResult) -> u64 {
    fnv(&result.deterministic_fingerprint())
}

/// Partition and heal, driven through the cluster API: 16 servers heat
/// up, the ring is cut in two, attaches and load checks run across the
/// cut, a server crashes on one side, the cut heals, and sources move.
fn partition_row(r: usize, transport: &str) -> Row {
    let seed = 17;
    let config = ClashConfig::small_test().with_replication(r);
    let key = |bits: u64| Key::from_bits_truncated(bits, config.key_width);
    let mut c =
        ClashCluster::with_transport(config, 16, seed, self::transport(transport, seed)).unwrap();
    for i in 0..160u64 {
        c.attach_source(i, key((i * 7) % 256), 1.5).unwrap();
    }
    for _ in 0..2 {
        c.run_load_check().unwrap();
    }
    let ids = c.server_ids();
    let (left, right) = ids.split_at(ids.len() / 2);
    c.partition_network(&[left.to_vec(), right.to_vec()]);
    let mut refused = 0u64;
    for i in 160..260u64 {
        match c.attach_source(i, key((i * 11) % 256), 0.5) {
            Ok(_) => {}
            Err(ClashError::NetworkUnreachable { .. }) => refused += 1,
            Err(e) => panic!("unexpected error under partition: {e}"),
        }
    }
    c.run_load_check().unwrap();
    let crashed = c.fail_server(left[0]).unwrap();
    c.run_load_check().unwrap();
    c.heal_partition();
    for _ in 0..2 {
        c.run_load_check().unwrap();
    }
    for i in 0..60u64 {
        if c.has_source(i) {
            c.move_source(i, key((i * 13 + 5) % 256)).unwrap();
        }
    }
    c.run_load_check().unwrap();
    let name = format!("partition/{transport}/r{r}");
    cluster_row(name, &mut c, &format!("{refused}|{crashed:?}"))
}

/// A split cut after a committed self-mapped retry: four servers over
/// a LAN at r = 2, one server cut off from the rest, so the hot server
/// keeps its last right child locally when the partition refuses the
/// next placement. That child must be replicated like any other; the
/// cut heals and sources move on.
fn split_cut_row() -> Row {
    let seed = 19;
    let config = ClashConfig::small_test().with_replication(2);
    let key = |bits: u64| Key::from_bits_truncated(bits, config.key_width);
    let mut c =
        ClashCluster::with_transport(config, 4, seed, self::transport("lan", seed)).unwrap();
    for i in 0..100u64 {
        c.attach_source(i, key(i % 64), 2.0).unwrap();
    }
    let ids = c.server_ids();
    c.partition_network(&[vec![], vec![ids[2]]]);
    let cut = c.run_load_check().unwrap();
    c.verify_consistency();
    c.heal_partition();
    for _ in 0..2 {
        c.run_load_check().unwrap();
    }
    for i in 0..40u64 {
        c.move_source(i, key((i * 13 + 5) % 256)).unwrap();
    }
    c.run_load_check().unwrap();
    let splits: Vec<_> = cut
        .splits
        .iter()
        .map(|s| (s.server, s.right_child_server))
        .collect();
    cluster_row("splitcut/lan/r2".to_owned(), &mut c, &format!("{splits:?}"))
}

/// A cluster-API run's row: `head` and the cluster's counters, owners
/// and latency, read on a closed window.
fn cluster_row(name: String, c: &mut ClashCluster, head: &str) -> Row {
    c.flush_batch().unwrap();
    c.verify_consistency();
    let m = c.message_stats();
    let t = c.transport_stats();
    let owners: Vec<(u64, Vec<String>)> = c
        .server_ids()
        .into_iter()
        .map(|id| {
            let groups = c.server(id).unwrap().table().active_groups();
            (id.value(), groups.map(|e| e.group.to_string()).collect())
        })
        .collect();
    let protocol = format!(
        "{head}|{m:?}|{:?}|{}|{}|{owners:?}|{}|{:?}|{}",
        c.net().stats(),
        c.source_count(),
        c.rng_draws(),
        t.messages,
        t.per_class,
        t.unreachable,
    );
    let l = c.latency_metrics();
    let latency = format!(
        "{:?}|{:?}|{:?}|{:?}|{:?}",
        l.locate.summary().snapshot(),
        l.report.summary().snapshot(),
        l.split.summary().snapshot(),
        l.replication.summary().snapshot(),
        t,
    );
    let depth = c.global_cover().depth_stats().map_or(0, |(_, _, max)| max);
    let active = owners
        .iter()
        .filter(|(_, groups)| !groups.is_empty())
        .count();
    let p95 = l.locate.quantile(0.95).unwrap_or(0.0);
    Row {
        name,
        proto: fnv(&protocol),
        paper: format!(
            "{:>6.3} {:>6.3} {:>2} {:>2} {:>8}",
            ratio(m.probes, m.locates),
            c.net().stats().mean_hops(),
            depth,
            active,
            "-"
        ),
        digest: fnv(&format!("{protocol}|{latency}")),
        latency: format!(
            "{:>6} {:>12} {:>9.3}",
            t.retransmissions, t.total_latency_us, p95
        ),
    }
}

/// The virtual-server ring: 32 physical servers, `vnodes` ring ids
/// each. Its digest covers every server's ownership fraction; the
/// paper column is their standard deviation.
fn vring_row(vnodes: usize) -> Row {
    let mut rng = DetRng::new(99);
    let ring = VirtualRing::new(HashSpace::PAPER, 32, vnodes, &mut rng);
    let shares = ring.ownership_fractions();
    let digest = fnv(&format!("{shares:?}"));
    Row {
        name: format!("vring/v{vnodes}"),
        proto: digest,
        paper: format!(
            "{:>6} {:>6} {:>2} {:>2} {:>8.4}",
            "-",
            "-",
            "-",
            32,
            stats::stddev(&shares)
        ),
        digest,
        latency: format!("{:>6} {:>12} {:>9}", "-", "-", "-"),
    }
}

fn table() -> String {
    type SpecFn = fn() -> ScenarioSpec;
    let scenarios: [(&str, SpecFn); 5] = [
        ("fig4", fig4),
        ("churn", churn),
        ("burst", burst),
        ("flash", flash),
        ("storm", storm),
    ];
    let mut rows = Vec::new();
    for (scenario, spec) in scenarios {
        for transport in TRANSPORTS {
            for r in [0, 2] {
                let config = capacity_60(ClashConfig::paper()).with_replication(r);
                let name = format!("{scenario}/{transport}/r{r}");
                rows.push(driver_row(name, config, spec(), transport));
            }
        }
    }
    for transport in TRANSPORTS {
        for r in [0, 2] {
            rows.push(partition_row(r, transport));
        }
    }
    rows.push(split_cut_row());
    for transport in TRANSPORTS {
        let config = capacity_60(ClashConfig::dht_baseline(8));
        rows.push(driver_row(
            format!("dht8/{transport}/r0"),
            config,
            fig4(),
            transport,
        ));
    }
    for vnodes in [1, 4, 16] {
        rows.push(vring_row(vnodes));
    }
    let mut out = String::from(
        "# row                    protocol         probes  hops   dp ac ctrl/s/s | digest           retx   latency_us   loc_p95\n",
    );
    for row in rows {
        out.push_str(&row.line());
        out.push('\n');
    }
    out
}

#[test]
fn golden_fingerprints_are_unchanged() {
    let got = table();
    if got != GOLDEN {
        let want: Vec<&str> = GOLDEN.lines().collect();
        let moved: Vec<&str> = got
            .lines()
            .filter(|line| !want.contains(line))
            .map(|line| line.split_whitespace().next().unwrap_or(""))
            .collect();
        panic!(
            "golden table moved ({} rows: {}); the replacement for tests/golden/fingerprints.txt:\n{got}",
            moved.len(),
            moved.join(", ")
        );
    }
}
