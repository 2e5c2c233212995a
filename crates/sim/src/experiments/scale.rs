//! Scale experiment (beyond the paper's evaluation): mechanical cost of
//! the protocol core as the ring grows past the paper's largest cell.
//!
//! The paper's headline claim is *internet scale*, yet its evaluation
//! stops at 1000 servers (Figure 4). This experiment sweeps ring sizes
//! from the paper's cell up through ~10× it, under churn and a WAN
//! transport, and reports the *simulator-mechanical* cost — wall-clock,
//! events per wall-second, and the cost of one cluster-wide load check —
//! so every future PR has a perf trajectory to answer to
//! (`BENCH_scale.json` at the repo root).
//!
//! Two cell families:
//!
//! * **churn cells** — the full driver loop: workload C over
//!   `N ∈ {1000, 4000, 10000}` servers for 30 virtual minutes, plus a
//!   100 000-server cell at reduced source density and duration (all
//!   scaled by `--scale`), with sustained joins/drains/crashes,
//!   replication r = 2, WAN links. Wall-clock here mixes locates, key
//!   churn, membership and load checks — the end-to-end number.
//! * **load-check cells** — the isolated hot path this repo's perf work
//!   targets: a mostly idle ring (sources ≪ servers, nothing ever
//!   overloads) where a fixed budget of `run_load_check` calls, with a
//!   trickle of source moves between them, dominates the wall-clock.
//!   Before the dirty-tracking optimization each check swept every
//!   server and every replica group (O(cluster)); after it the cost
//!   scales with what actually changed.
//!
//! All cells are deterministic for a fixed `--seed`; only the wall-clock
//! fields vary between runs of the same build.

use std::time::Instant;

use clash_core::cluster::ClashCluster;
use clash_core::config::ClashConfig;
use clash_core::error::ClashError;
use clash_obs::{CheckPhase, PhaseProfile, WallProfiler};
use clash_simkernel::rng::DetRng;
use clash_simkernel::time::SimDuration;
use clash_transport::{LinkPolicy, LinkTransport};
use clash_workload::churn::ChurnSpec;
use clash_workload::scenario::{Phase, ScenarioSpec};
use clash_workload::skew::{Workload, WorkloadKind};

use crate::catalogue::paper_spec;
use crate::driver::SimDriver;
use crate::report;

/// Which mechanical regime a cell measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellKind {
    /// Full driver run under churn: locates + key churn + membership +
    /// load checks.
    Churn,
    /// Isolated load-check loop on a mostly idle ring: the
    /// O(cluster)-vs-O(changed) cell.
    LoadCheck,
}

impl CellKind {
    fn name(self) -> &'static str {
        match self {
            CellKind::Churn => "churn",
            CellKind::LoadCheck => "loadcheck",
        }
    }
}

/// One measured cell of the sweep.
#[derive(Debug, Clone)]
pub struct ScaleCell {
    /// `churn_<servers>` or `loadcheck_<servers>`.
    pub name: String,
    /// The regime measured.
    pub kind: CellKind,
    /// Ring size at the start of the run.
    pub servers: usize,
    /// Streaming sources attached.
    pub sources: usize,
    /// Work units: driver events for churn cells; load checks + source
    /// moves for load-check cells.
    pub events: u64,
    /// Wall-clock of the measured section, milliseconds.
    pub wall_ms: f64,
    /// `events / wall seconds` — the headline throughput number.
    pub events_per_sec: f64,
    /// Cluster-wide load checks performed in the measured section.
    pub load_checks: u64,
    /// Mean wall-clock cost of one load check, milliseconds, timed
    /// around the `run_load_check` calls alone — after the batch flush,
    /// so deferred locate routing is never billed to the checks. For
    /// churn cells the driver measures this inside the event loop; for
    /// load-check cells it is timed directly.
    pub mean_check_ms: f64,
    /// Worst single load check in the cell, wall-clock milliseconds —
    /// the tail the mean hides (a split storm or recovery burst lands in
    /// one check).
    pub max_check_ms: f64,
    /// Where the measured wall-clock went, per named phase of the check
    /// and flush pipeline.
    pub phase_ms: PhaseProfile,
    /// Splits performed.
    pub splits: u64,
    /// Merges performed.
    pub merges: u64,
    /// Membership events (joins + leaves + crashes; churn cells only).
    pub membership_events: u64,
    /// 95th-percentile locate latency over the whole run, virtual ms.
    pub locate_p95_ms: f64,
}

/// The scale experiment's output.
#[derive(Debug, Clone)]
pub struct ScaleOutput {
    /// All cells, churn sweep first, then load-check cells.
    pub cells: Vec<ScaleCell>,
    /// Scale factor applied to the ring sizes.
    pub scale: f64,
    /// Root seed in force.
    pub seed: u64,
}

impl ScaleOutput {
    /// The smallest `events_per_sec` across the cells of `kind` — the
    /// number a CI perf floor is checked against: the load-check cells
    /// (the regime this repo's perf work targets, and the least noisy: no
    /// population build-up in the measured section) and the churn smoke
    /// (a single filtered cell, e.g. `churn_1000000` at `--scale 0.02`).
    pub fn min_events_per_sec(&self, kind: CellKind) -> Option<f64> {
        self.cells
            .iter()
            .filter(|c| c.kind == kind)
            .map(|c| c.events_per_sec)
            .min_by(f64::total_cmp)
    }
}

/// Default root seed (overridable with `--seed`).
pub const DEFAULT_SEED: u64 = 0xC1A5_5CA1;

/// The churn sweep at `--scale 1.0` as `(servers, sources_per_server,
/// virtual minutes)`: the paper's Figure-4 cell, up to ~10× it at the
/// paper-regime density, a 100k-server cell, and a 1M-server cell, the
/// last two at reduced density and duration (the density and duration
/// shrink so the cells measure ring mechanics at two and three orders
/// of magnitude past the paper's evaluation without the population cost
/// swamping the sweep). Check cadence and churn rate scale with each
/// cell's minutes (see `churn_cell`), so every cell observes a
/// comparable number of checks and membership events per run.
pub const CHURN_CELLS: [(usize, usize, u64); 5] = [
    (1000, 10, 30),
    (4000, 10, 30),
    (10_000, 10, 30),
    (100_000, 2, 10),
    (1_000_000, 1, 5),
];

/// Ring sizes of the load-check cells at `--scale 1.0`.
pub const LOADCHECK_RING_SIZES: [usize; 2] = [4000, 10_000];

/// Load checks timed per load-check cell.
pub const LOADCHECK_CHECKS: u64 = 200;

/// Source moves between consecutive timed load checks (keeps a trickle
/// of real dirt flowing, as any live system would have).
pub const LOADCHECK_MOVES_PER_CHECK: u64 = 2;

fn scaled(n: usize, scale: f64, floor: usize) -> usize {
    ((n as f64 * scale).round() as usize).max(floor)
}

/// Per-check mean from the driver's counted totals. The zero-check case
/// is explicit: a cell whose run fired no load checks reports 0.0, not
/// the whole `check_wall_ms` masquerading as a single check's cost
/// (dividing by `load_checks.max(1)` used to do exactly that).
fn mean_check_ms(check_wall_ms: f64, load_checks: u64) -> f64 {
    if load_checks == 0 {
        0.0
    } else {
        check_wall_ms / load_checks as f64
    }
}

/// One full-driver churn cell: `servers` ring, `sources_per_server`
/// streams each, workload C for `mins` virtual minutes with sustained
/// churn, r = 2, WAN.
fn churn_cell(
    servers: usize,
    sources_per_server: usize,
    mins: u64,
    seed: u64,
) -> Result<ScaleCell, ClashError> {
    let sources = servers * sources_per_server;
    // The paper's density is 100 sources/server; scale the capacity with
    // the cell's density so split/merge dynamics match the paper's
    // regime at every ring size.
    let config = ClashConfig {
        capacity: ClashConfig::paper().capacity * sources_per_server as f64 / 100.0,
        ..ClashConfig::paper()
    }
    .with_replication(2);
    // Scale every period with the cell's virtual minutes so each cell
    // observes a comparable number of checks (~30) and membership
    // events (~7 expected) regardless of duration: before this, the
    // short 100k cell ran 9 checks and 2 membership events against
    // 29/11 for the 30-minute cells, so its phase profile and
    // membership costs weren't comparable across the column. All base
    // periods are multiples of 30 s, so `secs * mins / 30` is exact —
    // 30-minute cells keep bit-identical schedules.
    let cadence = |secs: u64| SimDuration::from_secs((secs * mins / 30).max(1));
    let spec = ScenarioSpec {
        servers,
        sources,
        query_clients: 0,
        phases: vec![Phase {
            workload: WorkloadKind::C,
            duration: SimDuration::from_mins(mins),
        }],
        load_check_period: cadence(60),
        sample_period: cadence(5 * 60),
        seed,
        churn: Some(
            ChurnSpec::sustained(
                cadence(10 * 60),
                cadence(12 * 60),
                (servers / 2).max(2),
                servers * 2,
            )
            .with_crashes(cadence(20 * 60)),
        ),
        ..paper_spec(1.0, None)
    };
    let transport = Box::new(LinkTransport::new(LinkPolicy::wan(), seed));
    let label = format!("scale/churn_{servers}");
    let t0 = Instant::now();
    let (result, cluster) =
        SimDriver::with_transport(config, spec, label, transport)?.run_with_cluster()?;
    let wall = t0.elapsed();
    cluster.verify_consistency();
    let wall_ms = wall.as_secs_f64() * 1e3;
    Ok(ScaleCell {
        name: format!("churn_{servers}"),
        kind: CellKind::Churn,
        servers,
        sources,
        events: result.events,
        wall_ms,
        events_per_sec: result.events as f64 / wall.as_secs_f64().max(1e-9),
        // Measured by the driver, not derived from the spec: the driver
        // counts the checks that actually fired and times them after
        // the batch flush (a derived count once masked this column
        // reporting 0.0 for every churn cell).
        load_checks: result.load_checks,
        mean_check_ms: mean_check_ms(result.check_wall_ms, result.load_checks),
        max_check_ms: result.max_check_ms,
        phase_ms: result.phase_profile,
        splits: result.splits,
        merges: result.merges,
        membership_events: result.joins + result.leaves + result.crashes,
        locate_p95_ms: cluster
            .latency_metrics()
            .locate
            .quantile(0.95)
            .unwrap_or(0.0),
    })
}

/// One load-check cell: a `servers` ring with `servers / 2` sources —
/// nothing ever overloads — timing [`LOADCHECK_CHECKS`] cluster-wide
/// checks with [`LOADCHECK_MOVES_PER_CHECK`] source moves between each.
fn loadcheck_cell(servers: usize, seed: u64) -> Result<ScaleCell, ClashError> {
    let sources = (servers / 2).max(8);
    let config = ClashConfig::paper().with_replication(2);
    let transport = Box::new(LinkTransport::new(LinkPolicy::wan(), seed ^ 0x10AD));
    let mut cluster = ClashCluster::with_transport(config, servers, seed, transport)?;
    let workload = Workload::paper(WorkloadKind::C);
    let mut rng = DetRng::new(seed ^ 0x5CA1_E0AD);
    for i in 0..sources as u64 {
        let key = workload.sample_key(config.key_width, &mut rng);
        cluster.attach_source(i, key, 2.0)?;
    }
    // Settle: reports flow, replicas seed, candidate state converges.
    for _ in 0..3 {
        cluster.run_load_check()?;
    }
    // Attach the phase profiler only now, so the phase columns cover the
    // measured section alone (the settle checks stay unprofiled).
    cluster.set_profiler(Box::new(WallProfiler::default()));

    let t0 = Instant::now();
    let mut moves = 0u64;
    // `mean_check_ms` accumulates around the checks *only*: the source
    // moves between checks keep realistic dirt flowing but their WAN
    // locate cost must not be attributed to the load-check hot path.
    let mut check_wall = std::time::Duration::ZERO;
    let mut max_check = std::time::Duration::ZERO;
    for _ in 0..LOADCHECK_CHECKS {
        for _ in 0..LOADCHECK_MOVES_PER_CHECK {
            let source = rng.next_u64() % sources as u64;
            let draw_key = || workload.sample_key(config.key_width, &mut rng);
            if cluster.rekey_source(source, None, draw_key)?.is_some() {
                moves += 1;
            }
        }
        // Route and charge the moves' locate work outside the check
        // timer — it is move cost, not check cost.
        cluster.flush_batch()?;
        let c0 = Instant::now();
        cluster.run_load_check()?;
        let this_check = c0.elapsed();
        check_wall += this_check;
        max_check = max_check.max(this_check);
    }
    let wall = t0.elapsed();
    cluster.verify_consistency();
    let stats = cluster.message_stats();
    Ok(ScaleCell {
        name: format!("loadcheck_{servers}"),
        kind: CellKind::LoadCheck,
        servers,
        sources,
        events: LOADCHECK_CHECKS + moves,
        wall_ms: wall.as_secs_f64() * 1e3,
        events_per_sec: (LOADCHECK_CHECKS + moves) as f64 / wall.as_secs_f64().max(1e-9),
        load_checks: LOADCHECK_CHECKS,
        mean_check_ms: check_wall.as_secs_f64() * 1e3 / LOADCHECK_CHECKS as f64,
        max_check_ms: max_check.as_secs_f64() * 1e3,
        phase_ms: cluster.phase_profile(),
        splits: stats.splits,
        merges: stats.merges,
        membership_events: 0,
        locate_p95_ms: cluster
            .latency_metrics()
            .locate
            .quantile(0.95)
            .unwrap_or(0.0),
    })
}

/// Runs the sweep at `scale` (`seed` overrides the default root seed),
/// restricted to `filter`, a comma-separated list of exact cell names
/// (e.g. `churn_1000000` or `churn_1000,loadcheck_4000`). `None` runs
/// the full sweep. Matching is exact, not substring — the churn
/// column's names are prefixes of each other (`churn_1000` …
/// `churn_1000000`), so a substring filter would silently drag the
/// 100k/1M cells into what looks like a quick small-cell run. Names are
/// the canonical unscaled ones whatever `--scale` says. Each cell is
/// independent — a filtered run's cells are bit-identical to the same
/// cells of the full sweep.
///
/// # Errors
///
/// Propagates scenario errors.
pub fn run(scale: f64, seed: Option<u64>, filter: Option<&str>) -> Result<ScaleOutput, ClashError> {
    let seed = seed.unwrap_or(DEFAULT_SEED);
    let wanted = |name: &str| filter.is_none_or(|f| f.split(',').any(|tok| tok.trim() == name));
    let mut cells = Vec::new();
    for &(n, density, mins) in &CHURN_CELLS {
        if !wanted(&format!("churn_{n}")) {
            continue;
        }
        let servers = scaled(n, scale, 16);
        eprintln!("[scale] churn cell: {servers} servers...");
        cells.push(churn_cell(servers, density, mins, seed)?);
    }
    for &n in &LOADCHECK_RING_SIZES {
        if !wanted(&format!("loadcheck_{n}")) {
            continue;
        }
        let servers = scaled(n, scale, 32);
        eprintln!("[scale] load-check cell: {servers} servers...");
        cells.push(loadcheck_cell(servers, seed)?);
    }
    Ok(ScaleOutput { cells, scale, seed })
}

/// Renders the sweep as an ASCII table.
pub fn render(out: &ScaleOutput) -> String {
    let mut s = format!(
        "Scale — mechanical cost up to 100x the paper's Figure-4 cell \
         (scale {}, seed {:#x}):\n",
        out.scale, out.seed
    );
    let rows: Vec<Vec<String>> = out
        .cells
        .iter()
        .map(|c| {
            vec![
                c.name.clone(),
                c.servers.to_string(),
                c.sources.to_string(),
                c.events.to_string(),
                report::f1(c.wall_ms),
                report::f1(c.events_per_sec),
                c.load_checks.to_string(),
                format!("{:.3}", c.mean_check_ms),
                format!("{:.3}", c.max_check_ms),
                c.splits.to_string(),
                c.merges.to_string(),
                c.membership_events.to_string(),
                report::f1(c.locate_p95_ms),
            ]
        })
        .collect();
    s.push_str(&report::ascii_table(
        &[
            "cell",
            "servers",
            "sources",
            "events",
            "wall ms",
            "events/s",
            "checks",
            "ms/check",
            "max ms/check",
            "splits",
            "merges",
            "membership",
            "locate p95 ms",
        ],
        &rows,
    ));
    // Per-phase breakdown of where the check/flush wall-clock went: one
    // line per cell, phases ≥ 1% of the cell's profiled total.
    s.push_str("\nphase breakdown (share of profiled check+flush time):\n");
    for c in &out.cells {
        let total = c.phase_ms.total();
        s.push_str(&format!("  {:<18} ", c.name));
        if total <= 0.0 {
            s.push_str("(nothing profiled)\n");
            continue;
        }
        let mut first = true;
        for phase in CheckPhase::ALL {
            let share = c.phase_ms.share(phase);
            if share < 0.01 {
                continue;
            }
            if !first {
                s.push_str(", ");
            }
            s.push_str(&format!("{} {:.0}%", phase.name(), share * 100.0));
            first = false;
        }
        s.push('\n');
    }
    s
}

/// Writes `scale.csv` (one row per cell).
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_csvs(out: &ScaleOutput, dir: &str) -> std::io::Result<()> {
    let rows: Vec<Vec<String>> = out
        .cells
        .iter()
        .map(|c| {
            let mut row = vec![
                c.name.clone(),
                c.kind.name().to_owned(),
                c.servers.to_string(),
                c.sources.to_string(),
                c.events.to_string(),
                format!("{:.3}", c.wall_ms),
                format!("{:.1}", c.events_per_sec),
                c.load_checks.to_string(),
                format!("{:.4}", c.mean_check_ms),
                format!("{:.4}", c.max_check_ms),
                c.splits.to_string(),
                c.merges.to_string(),
                c.membership_events.to_string(),
                format!("{:.2}", c.locate_p95_ms),
            ];
            for phase in CheckPhase::ALL {
                row.push(format!("{:.4}", c.phase_ms.get(phase)));
            }
            row
        })
        .collect();
    let mut header: Vec<String> = [
        "cell",
        "kind",
        "servers",
        "sources",
        "events",
        "wall_ms",
        "events_per_sec",
        "load_checks",
        "mean_check_ms",
        "max_check_ms",
        "splits",
        "merges",
        "membership_events",
        "locate_p95_ms",
    ]
    .iter()
    .map(|s| (*s).to_owned())
    .collect();
    for phase in CheckPhase::ALL {
        header.push(format!("phase_{}_ms", phase.name()));
    }
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    report::write_csv(format!("{dir}/scale.csv"), &header_refs, &rows)
}

/// Serializes the sweep as the `BENCH_scale.json` trajectory format:
/// one JSON object with a `cells` array. Wall-clock fields are the only
/// machine-dependent values; everything else is deterministic for a
/// fixed seed.
pub fn to_bench_json(out: &ScaleOutput) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"bench\": \"scale\",\n");
    s.push_str(&format!("  \"scale\": {},\n", out.scale));
    s.push_str(&format!("  \"seed\": {},\n", out.seed));
    s.push_str(&format!(
        "  \"min_loadcheck_events_per_sec\": {:.1},\n",
        out.min_events_per_sec(CellKind::LoadCheck).unwrap_or(0.0)
    ));
    s.push_str("  \"cells\": [\n");
    for (i, c) in out.cells.iter().enumerate() {
        s.push_str("    {");
        s.push_str(&format!("\"name\": \"{}\", ", c.name));
        s.push_str(&format!("\"kind\": \"{}\", ", c.kind.name()));
        s.push_str(&format!("\"servers\": {}, ", c.servers));
        s.push_str(&format!("\"sources\": {}, ", c.sources));
        s.push_str(&format!("\"events\": {}, ", c.events));
        s.push_str(&format!("\"wall_ms\": {:.3}, ", c.wall_ms));
        s.push_str(&format!("\"events_per_sec\": {:.1}, ", c.events_per_sec));
        s.push_str(&format!("\"load_checks\": {}, ", c.load_checks));
        s.push_str(&format!("\"mean_check_ms\": {:.4}, ", c.mean_check_ms));
        s.push_str(&format!("\"max_check_ms\": {:.4}, ", c.max_check_ms));
        for phase in CheckPhase::ALL {
            s.push_str(&format!(
                "\"phase_{}_ms\": {:.4}, ",
                phase.name(),
                c.phase_ms.get(phase)
            ));
        }
        s.push_str(&format!("\"splits\": {}, ", c.splits));
        s.push_str(&format!("\"merges\": {}, ", c.merges));
        s.push_str(&format!("\"membership_events\": {}, ", c.membership_events));
        s.push_str(&format!("\"locate_p95_ms\": {:.2}", c.locate_p95_ms));
        s.push('}');
        if i + 1 < out.cells.len() {
            s.push(',');
        }
        s.push('\n');
    }
    s.push_str("  ]\n}\n");
    s
}

/// Writes [`to_bench_json`] to `path`.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_bench_json(out: &ScaleOutput, path: &str) -> std::io::Result<()> {
    std::fs::write(path, to_bench_json(out))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance gate at test scale: every cell completes, reports
    /// sane throughput, and the JSON trajectory round-trips the headline
    /// floor number.
    #[test]
    fn scale_smoke_end_to_end() {
        let out = run(0.005, Some(7), None).unwrap();
        assert_eq!(
            out.cells.len(),
            CHURN_CELLS.len() + LOADCHECK_RING_SIZES.len()
        );
        for c in &out.cells {
            assert!(c.events > 0, "{}: no events", c.name);
            assert!(c.events_per_sec > 0.0, "{}: zero throughput", c.name);
            assert!(c.wall_ms > 0.0);
        }
        let churn = &out.cells[0];
        assert_eq!(churn.kind, CellKind::Churn);
        assert!(churn.locate_p95_ms > 0.0, "WAN locates must cost time");
        let lc = out
            .cells
            .iter()
            .find(|c| c.kind == CellKind::LoadCheck)
            .unwrap();
        assert_eq!(lc.load_checks, LOADCHECK_CHECKS);
        assert!(lc.mean_check_ms > 0.0);
        let floor = out.min_events_per_sec(CellKind::LoadCheck).unwrap();
        let json = to_bench_json(&out);
        assert!(json.contains("\"bench\": \"scale\""));
        assert!(json.contains(&format!("{floor:.1}")));
        let rendered = render(&out);
        assert!(rendered.contains("loadcheck_"));
        assert!(rendered.contains("churn_"));
    }

    /// Same seed ⇒ identical deterministic fields (only wall-clock may
    /// differ between runs of the same build).
    #[test]
    fn scale_cells_are_deterministic_for_a_seed() {
        let a = run(0.005, Some(11), None).unwrap();
        let b = run(0.005, Some(11), None).unwrap();
        for (x, y) in a.cells.iter().zip(&b.cells) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.events, y.events);
            assert_eq!((x.splits, x.merges), (y.splits, y.merges));
            assert_eq!(x.membership_events, y.membership_events);
            assert_eq!(x.locate_p95_ms, y.locate_p95_ms);
            assert_eq!(x.load_checks, y.load_checks);
        }
    }

    /// Regression for the churn cells' timing columns: the committed
    /// trajectory once reported `mean_check_ms: 0.0000` for every churn
    /// cell (the value was hardcoded and `load_checks` was derived from
    /// the spec instead of counted). Every emitted cell, of both kinds,
    /// must now carry non-degenerate timing fields.
    #[test]
    fn every_cell_reports_nondegenerate_timing() {
        let out = run(0.002, Some(13), None).unwrap();
        for c in &out.cells {
            assert!(c.wall_ms > 0.0, "{}: zero wall_ms", c.name);
            assert!(c.events_per_sec > 0.0, "{}: zero throughput", c.name);
            assert!(c.load_checks > 0, "{}: no load checks counted", c.name);
            assert!(
                c.mean_check_ms > 0.0,
                "{}: degenerate mean_check_ms",
                c.name
            );
            // The worst check bounds the mean from above; a cell whose
            // max equals 0 while checks ran means the column regressed
            // to a hardcoded value again.
            assert!(
                c.max_check_ms >= c.mean_check_ms && c.max_check_ms > 0.0,
                "{}: degenerate max_check_ms {} (mean {})",
                c.name,
                c.max_check_ms,
                c.mean_check_ms
            );
            assert!(
                c.phase_ms.total() > 0.0,
                "{}: phase profile recorded nothing",
                c.name
            );
        }
        let json = to_bench_json(&out);
        assert!(
            !json.contains("\"mean_check_ms\": 0.0000"),
            "trajectory must not regress to zeroed check timings"
        );
        assert!(
            !json.contains("\"max_check_ms\": 0.0000"),
            "trajectory must not regress to zeroed max-check timings"
        );
        assert!(json.contains("\"phase_flush_route_ms\""));
        // The zero-check case is explicit: 0.0, never the whole
        // check_wall_ms masquerading as one check's mean (which is what
        // `check_wall_ms / load_checks.max(1)` reported).
        assert_eq!(mean_check_ms(1234.5, 0), 0.0);
        assert_eq!(mean_check_ms(100.0, 4), 25.0);
    }

    /// `--cells` runs exactly the matching cells, and a filtered cell is
    /// bit-identical to the same cell of the full sweep (cells are
    /// independent).
    #[test]
    fn cell_filter_selects_and_matches_full_sweep() {
        let full = run(0.005, Some(11), None).unwrap();
        let only = run(0.005, Some(11), Some("churn_4000")).unwrap();
        assert_eq!(only.cells.len(), 1);
        let a = &only.cells[0];
        let b = full.cells.iter().find(|c| c.name == a.name).unwrap();
        assert_eq!(a.events, b.events);
        assert_eq!((a.splits, a.merges), (b.splits, b.merges));
        assert_eq!(a.membership_events, b.membership_events);
        assert_eq!(a.locate_p95_ms, b.locate_p95_ms);
        let none = run(0.005, Some(11), Some("no_such_cell")).unwrap();
        assert!(none.cells.is_empty());
        assert!(none.min_events_per_sec(CellKind::Churn).is_none());
        assert!(only.min_events_per_sec(CellKind::Churn).is_some());
        // Exact matching: the canonical churn names are prefixes of each
        // other, so `churn_1000` must select exactly the 1000-server
        // cell and never drag the 10k/100k/1M cells along. (Reported
        // names carry the scaled server count; only the count and kind
        // identify the cell here.)
        let prefix = run(0.005, Some(11), Some("churn_1000")).unwrap();
        assert_eq!(prefix.cells.len(), 1);
        assert_eq!(prefix.cells[0].servers, 16, "scaled churn_1000 cell");
        // Comma lists select each named cell once.
        let pair = run(0.005, Some(11), Some("churn_4000, loadcheck_4000")).unwrap();
        assert_eq!(pair.cells.len(), 2);
        assert_eq!(pair.cells[0].kind, CellKind::Churn);
        assert_eq!(pair.cells[1].kind, CellKind::LoadCheck);
    }

    /// Check cadence and churn periods scale with cell minutes: every
    /// churn cell must observe a comparable number of load checks and a
    /// comparable expected number of membership events, or the phase
    /// profile columns aren't comparable across the sweep (the 10-minute
    /// 100k cell used to run 9 checks / 2 membership events vs 29/11 for
    /// the 30-minute cells).
    #[test]
    fn churn_cells_observe_comparable_checks_and_events() {
        let out = run(0.005, Some(19), None).unwrap();
        let churn: Vec<_> = out
            .cells
            .iter()
            .filter(|c| c.kind == CellKind::Churn)
            .collect();
        assert!(churn.len() >= 4);
        let checks: Vec<u64> = churn.iter().map(|c| c.load_checks).collect();
        let (lo, hi) = (*checks.iter().min().unwrap(), *checks.iter().max().unwrap());
        assert!(
            hi <= lo + 3,
            "check counts must be comparable across cells, got {checks:?}"
        );
        for c in &churn {
            assert!(
                c.membership_events >= 4,
                "{}: churn cadence must yield a comparable event count, got {}",
                c.name,
                c.membership_events
            );
        }
    }
}
