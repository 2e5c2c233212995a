//! Per-phase wall-clock profiling of the load check and the locate flush.
//!
//! The protocol crates are bound by the `no-wall-clock` lint policy:
//! they may *name* phases but never read a clock. The split here keeps
//! both sides honest — `clash-core` calls [`PhaseProfiler::begin`] /
//! [`PhaseProfiler::end`] with a [`CheckPhase`], and the one type that
//! actually touches `std::time::Instant` ([`WallProfiler`]) lives in
//! this crate, which the lint registers as a wall-clock crate.
//!
//! Profiling measures *where real milliseconds go*; it never feeds back
//! into protocol decisions, so it cannot perturb the bit-for-bit
//! determinism contract.

use std::time::Instant;

/// The named phases of a load check and of a locate-window flush.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckPhase {
    /// Re-promotion attempts for recoveries deferred at crash time.
    Recovery,
    /// Dirty-set sweep refreshing overloaded/mergeable candidates.
    CandidateRefresh,
    /// LOAD_REPORT delivery to parent-group owners.
    Reports,
    /// Never entered: nothing runs between report delivery and the split
    /// cursor walk, which refreshes the candidates itself. (The variant
    /// stays because `clash-benchmark` iterates [`CheckPhase::ALL`] and
    /// declares `core.phase.split_speculate_ms`.)
    SplitSpeculate,
    /// The split cursor walk (hot groups, one binary level each).
    Splits,
    /// The merge cursor walk (cold siblings back to parents).
    Merges,
    /// Replica synchronisation (dirty and full syncs).
    ReplicaSync,
    /// Never entered: probes are planned at the op, so the flush has no
    /// planning step. (The variant stays because `clash-benchmark`
    /// iterates [`CheckPhase::ALL`] and declares
    /// `core.phase.flush_plan_ms`.)
    FlushPlan,
    /// Flush: routing the window's probes against the live ring, in plan
    /// order.
    FlushRoute,
    /// Flush: sending the routed probes' messages and replaying their
    /// accounting, in plan order.
    FlushMerge,
}

impl CheckPhase {
    /// Every phase, in report order.
    pub const ALL: [CheckPhase; 10] = [
        CheckPhase::Recovery,
        CheckPhase::CandidateRefresh,
        CheckPhase::Reports,
        CheckPhase::SplitSpeculate,
        CheckPhase::Splits,
        CheckPhase::Merges,
        CheckPhase::ReplicaSync,
        CheckPhase::FlushPlan,
        CheckPhase::FlushRoute,
        CheckPhase::FlushMerge,
    ];

    /// Stable snake_case name, used as the CSV/JSON column suffix.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            CheckPhase::Recovery => "recovery",
            CheckPhase::CandidateRefresh => "candidate_refresh",
            CheckPhase::Reports => "reports",
            CheckPhase::SplitSpeculate => "split_speculate",
            CheckPhase::Splits => "splits",
            CheckPhase::Merges => "merges",
            CheckPhase::ReplicaSync => "replica_sync",
            CheckPhase::FlushPlan => "flush_plan",
            CheckPhase::FlushRoute => "flush_route",
            CheckPhase::FlushMerge => "flush_merge",
        }
    }

    /// This phase's slot in [`PhaseProfile::ms`].
    #[must_use]
    pub fn index(self) -> usize {
        CheckPhase::ALL
            .iter()
            .position(|p| *p == self)
            .expect("ALL lists every phase")
    }
}

/// Accumulated wall milliseconds per phase over a run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseProfile {
    /// Milliseconds spent in each phase, indexed by [`CheckPhase::index`].
    pub ms: [f64; 10],
}

impl PhaseProfile {
    /// Milliseconds accumulated in `phase`.
    #[must_use]
    pub fn get(&self, phase: CheckPhase) -> f64 {
        self.ms[phase.index()]
    }

    /// Total milliseconds across all phases.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.ms.iter().sum()
    }

    /// `phase`'s fraction of the total (0 when nothing was measured).
    #[must_use]
    pub fn share(&self, phase: CheckPhase) -> f64 {
        let total = self.total();
        if total > 0.0 {
            self.get(phase) / total
        } else {
            0.0
        }
    }
}

/// Phase-timing hooks the protocol layer calls. Implementations must
/// not affect protocol behaviour in any way.
pub trait PhaseProfiler {
    /// Enter `phase`. Phases may nest; time is charged to each open span.
    fn begin(&mut self, phase: CheckPhase);
    /// Leave `phase` (the innermost open span must match).
    fn end(&mut self, phase: CheckPhase);
    /// Everything accumulated so far.
    fn profile(&self) -> PhaseProfile;
}

/// The no-op profiler: measures nothing, costs nothing.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullProfiler;

impl PhaseProfiler for NullProfiler {
    fn begin(&mut self, _phase: CheckPhase) {}
    fn end(&mut self, _phase: CheckPhase) {}
    fn profile(&self) -> PhaseProfile {
        PhaseProfile::default()
    }
}

/// Wall-clock profiler. The only clock reader in the observability
/// stack; lives here because `crates/obs` is a registered wall-clock
/// crate under the `no-wall-clock` lint policy.
#[derive(Debug, Default)]
pub struct WallProfiler {
    acc: PhaseProfile,
    open: Vec<(CheckPhase, Instant)>,
}

impl WallProfiler {
    /// A fresh profiler with all accumulators at zero.
    #[must_use]
    pub fn new() -> Self {
        WallProfiler::default()
    }
}

impl PhaseProfiler for WallProfiler {
    fn begin(&mut self, phase: CheckPhase) {
        self.open.push((phase, Instant::now()));
    }

    fn end(&mut self, phase: CheckPhase) {
        let Some((opened, started)) = self.open.pop() else {
            debug_assert!(false, "end({phase:?}) with no open span");
            return;
        };
        debug_assert_eq!(opened, phase, "phase spans must nest properly");
        self.acc.ms[opened.index()] += started.elapsed().as_secs_f64() * 1e3;
    }

    fn profile(&self) -> PhaseProfile {
        self.acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_indices_are_dense_and_names_unique() {
        let mut names = std::collections::BTreeSet::new();
        for (i, p) in CheckPhase::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
            assert!(names.insert(p.name()));
        }
        assert_eq!(names.len(), CheckPhase::ALL.len());
    }

    #[test]
    fn profile_accumulates_and_shares_sum_to_one() {
        let mut p = PhaseProfile::default();
        p.ms[CheckPhase::Splits.index()] = 30.0;
        p.ms[CheckPhase::FlushRoute.index()] = 70.0;
        assert!((p.total() - 100.0).abs() < 1e-9);
        assert!((p.share(CheckPhase::Splits) - 0.3).abs() < 1e-9);
        assert_eq!(p.get(CheckPhase::Splits), 30.0);
        assert_eq!(PhaseProfile::default().share(CheckPhase::Splits), 0.0);
    }

    #[test]
    fn wall_profiler_charges_time_to_the_named_phase() {
        let mut prof = WallProfiler::new();
        prof.begin(CheckPhase::Splits);
        // Busy loop long enough to register on any clock resolution.
        let mut x = 0_u64;
        for i in 0..200_000 {
            x = x.wrapping_add(i);
        }
        assert!(x > 0);
        prof.end(CheckPhase::Splits);
        let p = prof.profile();
        assert!(p.get(CheckPhase::Splits) >= 0.0);
        assert_eq!(p.get(CheckPhase::Merges), 0.0);
        // A second, shorter span of the same phase adds to the first (a
        // reset would read less).
        prof.begin(CheckPhase::Splits);
        prof.end(CheckPhase::Splits);
        assert!(prof.profile().get(CheckPhase::Splits) >= p.get(CheckPhase::Splits));
    }

    #[test]
    fn null_profiler_reports_nothing() {
        let mut prof = NullProfiler;
        prof.begin(CheckPhase::Reports);
        prof.end(CheckPhase::Reports);
        assert_eq!(prof.profile().total(), 0.0);
    }
}
