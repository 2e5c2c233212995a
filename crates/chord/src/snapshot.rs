//! An immutable, flat snapshot of the ring's routing state.
//!
//! The batched locate path routes a whole window of probes at once.
//! `SimNet` routes by chasing per-node `BTreeMap` entries and `RefCell`
//! memo caches; [`crate::net::SimNet::snapshot`] flattens every alive
//! node's routing state — first alive successor, finger table,
//! successor list, each entry pre-resolved to "usable" (present *and*
//! alive) — into dense arrays, which is where the batched path's
//! routing speed-up comes from. [`RouteSnapshot::route_with_path`]
//! then replays the exact `route_visit` algorithm over the flat arrays:
//! same hop sequence, same owner, same path, same hop-limit panic, pinned
//! by the differential tests below. Between membership events the routing
//! state is static, so one snapshot serves every probe of a batch.

use clash_keyspace::hash::HashSpace;

use crate::id::ChordId;
use crate::net::LookupResult;

/// A frozen copy of every alive node's routing state, indexed by ring
/// position (`&self` routing only).
#[derive(Debug, Clone)]
pub struct RouteSnapshot {
    pub(crate) space: HashSpace,
    /// `4 * bits + total node count (incl. corpses) + 8`, mirroring
    /// `route_visit`'s cycle guard exactly.
    pub(crate) hop_limit: u32,
    /// Alive node values in ring order; binary-searched to map a value to
    /// its row in the arrays below.
    pub(crate) values: Vec<u64>,
    /// Per node: first *alive* entry of its successor list (itself when
    /// none) — the memoized `first_alive_successor`.
    pub(crate) first_succ: Vec<u64>,
    /// Flattened finger tables, `bits` entries per node, each entry the
    /// raw finger value plus whether that node is present and alive.
    pub(crate) fingers: Vec<(u64, bool)>,
    /// Flattened successor lists (variable length per node).
    pub(crate) succs: Vec<(u64, bool)>,
    /// `succs` row boundaries: node `i` owns `succs[offsets[i]..offsets[i+1]]`.
    pub(crate) succ_offsets: Vec<u32>,
}

/// Wrapping ring distance from `a` to `x` (the `ChordId::distance_to`
/// arithmetic on raw values).
#[inline]
fn dist(a: u64, x: u64, mask: u64) -> u64 {
    x.wrapping_sub(a) & mask
}

/// `x ∈ (a, b)` on the ring; `a == b` means "everything but `a`".
#[inline]
fn in_open(x: u64, a: u64, b: u64, mask: u64) -> bool {
    if a == b {
        return x != a;
    }
    let d_self = dist(a, x, mask);
    d_self > 0 && d_self < dist(a, b, mask)
}

/// `x ∈ (a, b]` on the ring; `a == b` means the whole ring.
#[inline]
fn in_half_open(x: u64, a: u64, b: u64, mask: u64) -> bool {
    if a == b {
        return true;
    }
    let d_self = dist(a, x, mask);
    d_self > 0 && d_self <= dist(a, b, mask)
}

impl RouteSnapshot {
    /// The hash space the snapshot was taken over.
    pub fn space(&self) -> HashSpace {
        self.space
    }

    /// Number of alive nodes captured.
    pub fn alive_count(&self) -> usize {
        self.values.len()
    }

    fn index_of(&self, value: u64) -> Option<usize> {
        self.values.binary_search(&value).ok()
    }

    /// The row index of the alive node owning hash `h` (its ring
    /// successor) — ground truth over the frozen membership.
    fn owner_index_of(&self, h: u64) -> usize {
        debug_assert!(!self.values.is_empty());
        let h = h & self.space.mask();
        match self.values.binary_search(&h) {
            Ok(i) => i,
            Err(i) => i % self.values.len(),
        }
    }

    /// Ground truth over the frozen membership: the alive node owning
    /// hash `h`. Mirrors `SimNet::owner_of` (always `Some` here — a
    /// snapshot of an empty ring routes nothing).
    pub fn owner_of(&self, h: u64) -> Option<ChordId> {
        if self.values.is_empty() {
            return None;
        }
        Some(ChordId::new(
            self.values[self.owner_index_of(h)],
            self.space,
        ))
    }

    /// `closest_preceding` over the flat arrays: farthest usable finger in
    /// `(current, target)`, else farthest such successor-list entry, else
    /// the first usable successor-list entry, else `current`.
    fn closest_preceding(&self, idx: usize, current: u64, target: u64) -> u64 {
        let mask = self.space.mask();
        let m = self.space.bits() as usize;
        for &(f, usable) in self.fingers[idx * m..(idx + 1) * m].iter().rev() {
            if in_open(f, current, target, mask) && usable {
                return f;
            }
        }
        let row = &self.succs[self.succ_offsets[idx] as usize..self.succ_offsets[idx + 1] as usize];
        for &(s, usable) in row.iter().rev() {
            if in_open(s, current, target, mask) && usable {
                return s;
            }
        }
        row.iter()
            .copied()
            .find_map(|(s, usable)| usable.then_some(s))
            .unwrap_or(current)
    }

    /// The routed lookup, bit-for-bit identical to
    /// [`crate::net::SimNet::route_with_path`] on the network the snapshot
    /// was taken from: same owner, same hop count, same per-hop path.
    ///
    /// # Panics
    ///
    /// Panics if `start` is not an alive node of the snapshot, or if
    /// routing exceeds the hop limit (same cycle guard as the live net).
    pub fn route_with_path(
        &self,
        start: ChordId,
        h: u64,
    ) -> (LookupResult, Vec<(ChordId, ChordId)>) {
        let mask = self.space.mask();
        let target = h & mask;
        let mut idx = self
            .index_of(start.value())
            .expect("lookup must start at an alive node");
        let mut hops = 0u32;
        let mut path: Vec<(ChordId, ChordId)> = Vec::new();
        let id = |v: u64| ChordId::new(v, self.space);
        loop {
            let current = self.values[idx];
            if target == current {
                return (
                    LookupResult {
                        owner: id(current),
                        hops,
                    },
                    path,
                );
            }
            let succ = self.first_succ[idx];
            if succ == current {
                // Solitary (or fully isolated) node owns everything.
                return (
                    LookupResult {
                        owner: id(current),
                        hops,
                    },
                    path,
                );
            }
            if in_half_open(target, current, succ, mask) {
                path.push((id(current), id(succ)));
                return (
                    LookupResult {
                        owner: id(succ),
                        hops: hops + 1,
                    },
                    path,
                );
            }
            let next = self.closest_preceding(idx, current, target);
            let next = if next == current { succ } else { next };
            path.push((id(current), id(next)));
            idx = self
                .index_of(next)
                .expect("routing only visits alive nodes");
            hops += 1;
            assert!(
                hops <= self.hop_limit,
                "routing cycle: {start:?} -> {h:#x} exceeded {} hops",
                self.hop_limit
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::SimNet;
    use clash_simkernel::rng::DetRng;

    fn space() -> HashSpace {
        HashSpace::new(16).unwrap()
    }

    fn assert_snapshot_matches(net: &SimNet, label: &str) {
        let snap = net.snapshot();
        assert_eq!(snap.alive_count(), net.alive_count(), "{label}");
        let starts = net.node_ids();
        let mut rng = DetRng::new(0xD1FF);
        for _ in 0..400 {
            let h = rng.next_u64() & space().mask();
            let start = starts[rng.uniform_index(starts.len())];
            let (live, live_path) = net.route_with_path(start, h);
            let (snapped, snap_path) = snap.route_with_path(start, h);
            assert_eq!(live, snapped, "{label}: owner/hops diverged for {h:#x}");
            assert_eq!(live_path, snap_path, "{label}: path diverged for {h:#x}");
            assert_eq!(snap.owner_of(h), net.owner_of(h), "{label}: ground truth");
        }
    }

    #[test]
    fn snapshot_routes_match_live_net_on_stable_ring() {
        for (n, seed) in [(3usize, 1u64), (32, 2), (200, 3)] {
            let mut rng = DetRng::new(seed);
            let mut net = SimNet::with_random_nodes(space(), n, &mut rng);
            net.build_stable();
            assert_snapshot_matches(&net, &format!("stable n={n}"));
        }
    }

    #[test]
    fn snapshot_routes_match_live_net_with_unstabilized_failures() {
        // Kill nodes and do NOT run maintenance: successor lists carry
        // corpses, fingers name dead nodes — the snapshot's usable flags
        // must reproduce the live net's skipping behaviour exactly.
        let mut rng = DetRng::new(7);
        let mut net = SimNet::with_random_nodes(space(), 96, &mut rng);
        net.build_stable();
        let ids = net.node_ids();
        for &id in ids.iter().step_by(5).take(12) {
            net.fail(id);
        }
        assert_snapshot_matches(&net, "failed, pre-maintenance");
        // Then partially stabilize and re-check.
        net.stabilize_round();
        assert_snapshot_matches(&net, "failed, one round");
        net.stabilize_until_converged(64);
        assert_snapshot_matches(&net, "failed, converged");
    }

    #[test]
    fn snapshot_routes_match_after_joins_and_departures() {
        let mut rng = DetRng::new(11);
        let mut net = SimNet::with_random_nodes(space(), 40, &mut rng);
        net.build_stable();
        let bootstrap = net.node_ids()[0];
        for _ in 0..6 {
            let id = ChordId::new(rng.next_u64(), space());
            net.join(id, bootstrap);
        }
        let leaver = net.node_ids()[9];
        net.remove_node(leaver);
        // Transient state: fresh joins unstabilized, one node vanished
        // (fingers still name it — "usable" must be false for a removed
        // node, not just a dead one).
        assert_snapshot_matches(&net, "post-join/departure transient");
    }

    #[test]
    fn snapshot_single_node_ring() {
        let mut net = SimNet::new(space());
        let id = ChordId::new(42, space());
        net.add_node(id);
        net.build_stable();
        let snap = net.snapshot();
        let (r, path) = snap.route_with_path(id, 9999);
        assert_eq!(r.owner, id);
        assert_eq!(r.hops, 0);
        assert!(path.is_empty());
    }

    #[test]
    fn snapshot_is_sync() {
        fn assert_sync<T: Sync + Send>() {}
        assert_sync::<RouteSnapshot>();
    }
}
