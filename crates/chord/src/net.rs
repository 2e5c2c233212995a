//! The in-process Chord network: every node's routing tables are a
//! function of the sorted alive ids, so the ring is the routing table.

use std::fmt;

use clash_keyspace::hash::HashSpace;
use clash_simkernel::collections::DetHashSet;
use clash_simkernel::rng::DetRng;

use crate::id::ChordId;
use crate::node::ChordNode;
use crate::snapshot::RouteSnapshot;

/// Successor-list length of every node — Chord's fault-tolerance depth
/// (`⌈log₂ S⌉` is typical). Lists are shorter only on rings of at most
/// this many nodes, where they hold every other node.
pub const SUCCESSOR_LIST_LEN: usize = 8;

/// Result of one `find_successor` lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LookupResult {
    /// The node owning the target hash.
    pub owner: ChordId,
    /// Inter-node messages used to resolve the lookup (0 when the start
    /// node already owns the target).
    pub hops: u32,
}

/// Aggregate lookup statistics (feeds the O(log S) validation and the
/// Figure 5 message accounting).
#[derive(Debug, Clone, Copy, Default)]
pub struct NetStats {
    /// Number of lookups performed.
    pub lookups: u64,
    /// Total hops across all lookups.
    pub total_hops: u64,
    /// Largest single-lookup hop count.
    pub max_hops: u32,
}

impl NetStats {
    /// Mean hops per lookup (0 when no lookups were made).
    pub fn mean_hops(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.total_hops as f64 / self.lookups as f64
        }
    }
}

/// Wrapping ring distance from `a` to `x` (the `ChordId::distance_to`
/// arithmetic on raw values).
#[inline]
fn dist(a: u64, x: u64, mask: u64) -> u64 {
    x.wrapping_sub(a) & mask
}

/// A simulated Chord ring.
///
/// All nodes live in one process; "messages" are method calls with hop
/// counting. Every alive node holds the state Chord's maintenance
/// protocol (stabilize + fix fingers) converges to: successor list,
/// predecessor and finger `k` are the alive nodes after, before and at
/// or after `id + 2^k`. That state is a function of the sorted alive
/// ids, so the ring stores nothing else: [`SimNet::join`],
/// [`SimNet::fail`] and [`SimNet::remove_node`] edit `ring`, and every
/// table entry a lookup or a [`ChordNode`] view reads is computed from
/// it. The round-based protocol itself lives on as the independent
/// model in this crate's tests that the computed tables and routes are
/// pinned against. A crashed node keeps only its id, which a join may
/// not take; it has no tables and nothing routes through it.
///
/// Layout. `ring` lists the alive ids in order. A directory splits the
/// ring into `2^b` equal arcs by the ids' top `b` bits, `b` the bit
/// length of the alive count (clamped to `1..=M`): `dir[j]` is the
/// first ring position in arc `j`, `dir[2^b]` is the ring's length. An
/// owner search reads two directory slots and binary-searches one arc,
/// which holds one or two ids on average for hashed ids. A membership
/// call moves the arcs after the changed id by one position, or, when
/// the alive count's bit length changes, rebuilds the directory in one
/// sweep.
pub struct SimNet {
    space: HashSpace,
    stats: NetStats,
    /// Alive ids in ring order.
    ring: Vec<u64>,
    /// `2^b + 1` ring positions; arc `j` is `ring[dir[j]..dir[j + 1]]`.
    dir: Vec<u32>,
    /// `M − b`: an id's arc is `id >> shift`.
    shift: u32,
    /// Crashed ids, sorted.
    crashed: Vec<u64>,
}

// The route phase of a locate flush routes through `&SimNet` and must
// stay pure: no interior mutability (clippy.toml bans `RefCell`/`Cell`
// in this crate), so the borrow checker sees every write.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SimNet>();
};

impl SimNet {
    /// No-op: the ring is single-threaded. Kept only because
    /// `clash-benchmark/src/micro.rs` calls it; the next
    /// `benchmark`-archetype PR drops the call and this method.
    pub fn set_stabilize_workers(&mut self, _workers: usize) {}

    /// Creates a ring with `n` distinct random node identifiers.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds the hash-space size.
    pub fn with_random_nodes(space: HashSpace, n: usize, rng: &mut DetRng) -> Self {
        assert!(
            (n as u128) <= space.size(),
            "cannot place {n} nodes in a {space} hash space"
        );
        let mut seen = DetHashSet::default();
        while seen.len() < n {
            seen.insert(ChordId::new(rng.next_u64(), space).value());
        }
        SimNet::from_ids(space, seen.into_iter().collect())
    }

    /// A ring of the distinct identifiers `ids`, in any order.
    pub(crate) fn from_ids(space: HashSpace, mut ids: Vec<u64>) -> Self {
        ids.sort_unstable();
        debug_assert!(ids.windows(2).all(|w| w[0] < w[1]), "ids must be distinct");
        debug_assert!(ids.last().is_none_or(|&id| id <= space.mask()));
        let mut net = SimNet {
            space,
            stats: NetStats::default(),
            ring: ids,
            dir: Vec::new(),
            shift: 0,
            crashed: Vec::new(),
        };
        net.reindex();
        net
    }

    /// The ring's hash space.
    pub fn space(&self) -> HashSpace {
        self.space
    }

    pub(crate) fn id(&self, value: u64) -> ChordId {
        ChordId::new(value, self.space)
    }

    /// The directory's `b` for the current alive count.
    fn dir_bits(&self) -> u32 {
        let n = self.ring.len();
        (usize::BITS - n.leading_zeros()).clamp(1, self.space.bits())
    }

    /// Rebuilds the directory over `ring` in one sweep.
    fn reindex(&mut self) {
        let n = self.ring.len();
        let len = u32::try_from(n).expect("a ring holds fewer than 2^32 nodes");
        let b = self.dir_bits();
        self.shift = self.space.bits() - b;
        self.dir.clear();
        self.dir.reserve_exact((1 << b) + 1);
        let mut at = 0;
        for arc in 0..1u64 << b {
            let first = arc << self.shift;
            while at < n && self.ring[at] < first {
                at += 1;
            }
            self.dir.push(at as u32);
        }
        self.dir.push(len);
    }

    /// Brings the directory up to date after `id` entered or left `ring`:
    /// every arc after `id`'s now starts one position later or earlier.
    /// When the alive count's bit length changed, the directory is
    /// resized and rebuilt instead.
    fn reindex_after(&mut self, id: u64, entered: bool) {
        if self.space.bits() - self.shift != self.dir_bits() {
            return self.reindex();
        }
        let arc = (id >> self.shift) as usize;
        for first in &mut self.dir[arc + 1..] {
            if entered {
                *first += 1;
            } else {
                *first -= 1;
            }
        }
    }

    /// The ring position owning the in-space hash `h`: the first alive
    /// id at or after it, wrapping. The ring must be non-empty.
    #[inline]
    fn owner_pos(&self, h: u64) -> usize {
        let arc = (h >> self.shift) as usize;
        let (lo, hi) = (self.dir[arc] as usize, self.dir[arc + 1] as usize);
        let pos = lo + self.ring[lo..hi].partition_point(|&id| id < h);
        if pos == self.ring.len() {
            0
        } else {
            pos
        }
    }

    /// The ring position before `pos`, wrapping.
    #[inline]
    fn prev(&self, pos: usize) -> usize {
        if pos == 0 {
            self.ring.len() - 1
        } else {
            pos - 1
        }
    }

    /// `id`'s ring position, if it names an alive node.
    pub(crate) fn alive_pos(&self, id: u64) -> Option<usize> {
        if self.ring.is_empty() {
            return None;
        }
        let pos = self.owner_pos(id & self.space.mask());
        (self.ring[pos] == id).then_some(pos)
    }

    /// The `len` alive ids after ring position `pos`, nearest first,
    /// wrapping.
    fn ids_after(&self, pos: usize, len: usize) -> Vec<ChordId> {
        let n = self.ring.len();
        let ids = (1..=len).map(|k| self.ring[(pos + k) % n]);
        ids.map(|id| self.id(id)).collect()
    }

    /// The successor list of the alive node at ring position `pos`: the
    /// next [`SUCCESSOR_LIST_LEN`] alive nodes, never reaching the node
    /// itself, except `[self]` on a one-node ring.
    pub(crate) fn successor_list_at(&self, pos: usize) -> Vec<ChordId> {
        let len = SUCCESSOR_LIST_LEN.min(self.ring.len() - 1).max(1);
        self.ids_after(pos, len)
    }

    /// The predecessor of the alive node at ring position `pos` (none on
    /// a one-node ring).
    pub(crate) fn predecessor_at(&self, pos: usize) -> Option<ChordId> {
        (self.ring.len() > 1).then(|| self.id(self.ring[self.prev(pos)]))
    }

    /// Number of alive nodes.
    pub fn alive_count(&self) -> usize {
        self.ring.len()
    }

    /// Identifiers of all alive nodes, in ring order.
    pub fn node_ids(&self) -> Vec<ChordId> {
        self.ring.iter().map(|&id| self.id(id)).collect()
    }

    /// A view of a node's state (alive or crashed).
    pub fn node(&self, id: ChordId) -> Option<ChordNode<'_>> {
        let value = id.value();
        let known = self.alive_pos(value).is_some() || self.crashed.binary_search(&value).is_ok();
        known.then(|| ChordNode::new(self, value))
    }

    /// True if `id` names an alive node.
    pub fn is_alive(&self, id: ChordId) -> bool {
        self.alive_pos(id.value()).is_some()
    }

    /// A uniformly random alive node (for client entry points).
    ///
    /// # Panics
    ///
    /// Panics if the ring has no alive nodes.
    pub fn random_alive(&self, rng: &mut DetRng) -> ChordId {
        self.random_alive_pos(rng).0
    }

    /// [`SimNet::random_alive`], with the node's ring position: the same
    /// draw, and a start [`SimNet::route_each_from`] can route from.
    ///
    /// # Panics
    ///
    /// Panics if the ring has no alive nodes.
    pub fn random_alive_pos(&self, rng: &mut DetRng) -> (ChordId, u32) {
        assert!(!self.ring.is_empty(), "ring has no alive nodes");
        let pos = rng.uniform_index(self.ring.len());
        (self.id(self.ring[pos]), pos as u32)
    }

    /// Ground truth: the alive node owning hash `h` (its ring successor),
    /// or `None` on an empty ring. A directory search; used for bootstrap
    /// and validation, not by the routed protocol.
    pub fn owner_of(&self, h: u64) -> Option<ChordId> {
        self.owner_of_pos(h).map(|(owner, _)| owner)
    }

    /// [`SimNet::owner_of`], with the owner's ring position: the owner
    /// [`SimNet::route_each_from`] routes a lookup for `h` to.
    pub fn owner_of_pos(&self, h: u64) -> Option<(ChordId, u32)> {
        (!self.ring.is_empty()).then(|| {
            let pos = self.owner_pos(h & self.space.mask());
            (self.id(self.ring[pos]), pos as u32)
        })
    }

    /// Ground truth: the alive node strictly preceding `h` on the ring.
    pub fn predecessor_of(&self, h: u64) -> Option<ChordId> {
        (!self.ring.is_empty()).then(|| {
            let owner = self.owner_pos(h & self.space.mask());
            self.id(self.ring[self.prev(owner)])
        })
    }

    /// No-op: the tables are always converged. Kept only because
    /// `clash-benchmark/src/micro.rs` calls it; the next
    /// `benchmark`-archetype PR drops the call and this method.
    pub fn build_stable(&mut self) {}

    /// No-op returning 1, the maintenance round count it used to report:
    /// the tables are always converged. Kept only because
    /// `clash-benchmark/src/micro.rs` calls it; the next
    /// `benchmark`-archetype PR drops the call and this method.
    pub fn stabilize_direct(&mut self) -> usize {
        1
    }

    /// Pure routed lookup: resolves the successor of `h` starting at
    /// `start` using only per-node state, counting hops. Does not touch
    /// statistics; see [`SimNet::find_successor`].
    ///
    /// # Panics
    ///
    /// Panics if `start` is not an alive node, or if routing exceeds its
    /// hop limit (a safety check: converged tables need at most `M + 1`
    /// hops).
    pub fn route(&self, start: ChordId, h: u64) -> LookupResult {
        self.route_each(start, h, |_, _| ())
    }

    /// [`SimNet::route`], additionally writing the per-hop path into
    /// `path` (cleared first) as `(from, to)` pairs — one pair per
    /// inter-node message. `path.len()` always equals the returned hop
    /// count.
    pub fn route_path(
        &self,
        start: ChordId,
        h: u64,
        path: &mut Vec<(ChordId, ChordId)>,
    ) -> LookupResult {
        path.clear();
        let result = self.route_each(start, h, |from, to| path.push((self.id(from), self.id(to))));
        debug_assert_eq!(path.len(), result.hops as usize);
        result
    }

    /// [`SimNet::route`], calling `visit(from, to)` with the raw ids of
    /// each inter-node hop, in order — so a caller can charge each hop
    /// its own link cost (latency, loss) through a transport without
    /// collecting a path. Does not touch statistics; replay them with
    /// [`SimNet::record_routed_lookup`].
    ///
    /// Finds `start`'s and the owner's ring positions, then walks
    /// [`SimNet::route_each_from`]. A caller that already holds both
    /// positions (the locate window keeps them from the plan's draw and
    /// owner search) calls that directly and saves the two searches.
    ///
    /// # Panics
    ///
    /// As [`SimNet::route`].
    pub fn route_each<F: FnMut(u64, u64)>(&self, start: ChordId, h: u64, visit: F) -> LookupResult {
        let Some(at) = self.alive_pos(start.value()) else {
            panic!("lookup must start at an alive node, not {start:?}");
        };
        let owner = self.owner_pos(h & self.space.mask());
        self.route_each_from(at as u32, h, owner as u32, visit)
    }

    /// The routing engine — the only hop loop there is: routes a lookup
    /// for `h` from the node at ring position `at`, whose owner sits at
    /// ring position `owner`, calling `visit(from, to)` per hop like
    /// [`SimNet::route_each`]. Both positions must be of the ring as it
    /// stands — `at` from [`SimNet::random_alive_pos`] and `owner` from
    /// [`SimNet::owner_of_pos`]`(h)`, with no membership call between
    /// (debug-asserted).
    ///
    /// Each hop is Chord's: to the successor if it owns the target, else
    /// to the farthest finger strictly between here and the target.
    /// With `before` the last alive id strictly before the target and
    /// `d = dist(current, before) ≥ 1`, that finger is finger
    /// `⌊log₂ d⌋`, the owner of `current + 2^⌊log₂ d⌋`: its start lies in
    /// `(current, before]`, so its owner does too, while every higher
    /// finger starts past `before`, where no alive id precedes the
    /// target, and so lands at or past the target or wraps to `current`.
    /// Each finger hop leaves `d < 2^⌊log₂ d⌋`, so a lookup takes at most
    /// `M` finger hops and one successor hop.
    ///
    /// # Panics
    ///
    /// Panics if `at` or `owner` is not a ring position, or if routing
    /// exceeds its hop limit (a safety check: converged tables need at
    /// most `M + 1` hops).
    pub fn route_each_from<F: FnMut(u64, u64)>(
        &self,
        at: u32,
        h: u64,
        owner: u32,
        mut visit: F,
    ) -> LookupResult {
        let mask = self.space.mask();
        let target = h & mask;
        let n = self.ring.len();
        let (mut at, owner) = (at as usize, owner as usize);
        assert!(at < n && owner < n, "ring positions {at}, {owner} of {n}");
        debug_assert_eq!(owner, self.owner_pos(target), "owner position of {h:#x}");
        let start = self.ring[at];
        let hop_limit = self.space.bits();
        let before = self.ring[self.prev(owner)];
        let mut hops = 0u32;
        loop {
            let current = self.ring[at];
            // At the target — or alone on the ring, owning everything.
            if target == current || n == 1 {
                return LookupResult {
                    owner: self.id(current),
                    hops,
                };
            }
            let succ = if at + 1 == n { 0 } else { at + 1 };
            if succ == owner {
                visit(current, self.ring[succ]);
                return LookupResult {
                    owner: self.id(self.ring[succ]),
                    hops: hops + 1,
                };
            }
            let k = dist(current, before, mask).ilog2();
            at = self.owner_pos(current.wrapping_add(1 << k) & mask);
            visit(current, self.ring[at]);
            hops += 1;
            assert!(
                hops <= hop_limit,
                "routing cycle: {start:#x} -> {h:#x} exceeded {hop_limit} finger hops"
            );
        }
    }

    /// The first `r` ring successors of the alive node `id`, nearest
    /// first: its successor list — the replica set CLASH's
    /// successor-list replication places key-group state on. Returns at
    /// most [`SUCCESSOR_LIST_LEN`] ids, fewer on rings of at most that
    /// many nodes, and nothing for `r = 0` or an id that is not alive.
    pub fn alive_successors(&self, id: ChordId, r: usize) -> Vec<ChordId> {
        let Some(pos) = self.alive_pos(id.value()) else {
            return Vec::new();
        };
        self.ids_after(pos, r.min(SUCCESSOR_LIST_LEN).min(self.ring.len() - 1))
    }

    /// Routed lookup with statistics recording — the `Map()` operation
    /// CLASH builds on (§4 of the paper).
    pub fn find_successor(&mut self, start: ChordId, h: u64) -> LookupResult {
        let result = self.route(start, h);
        self.record_routed_lookup(result.hops);
        result
    }

    /// Records the statistics of one lookup routed purely — by
    /// [`SimNet::route_each`] or [`SimNet::route_path`] — so callers that
    /// route first and account later (the locate flush replays its
    /// probes' accounting in plan order) leave [`SimNet::stats`]
    /// bit-for-bit what a [`SimNet::find_successor`] call per lookup
    /// would have left.
    pub fn record_routed_lookup(&mut self, hops: u32) {
        self.stats.lookups += 1;
        self.stats.total_hops += u64::from(hops);
        self.stats.max_hops = self.stats.max_hops.max(hops);
    }

    /// Lookup statistics accumulated by [`SimNet::find_successor`].
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// Joins a new node through `bootstrap`. The join protocol's lookups
    /// are routed on the ring as it stands: one for the new identifier
    /// from `bootstrap`, which finds its successor, then one per finger
    /// `new_id + 2^k`, routed from that successor, to seed its finger
    /// table. The node then takes its place in the ring, and with it
    /// every table entry its arrival changed.
    ///
    /// Returns the total inter-node messages those lookups spent, or
    /// `None` if the identifier is already taken (by an alive or a
    /// crashed node).
    ///
    /// # Panics
    ///
    /// Panics if `bootstrap` is not alive, or if `new_id` is from another
    /// hash space.
    pub fn join(&mut self, new_id: ChordId, bootstrap: ChordId) -> Option<u32> {
        assert!(self.is_alive(bootstrap), "bootstrap node must be alive");
        assert_eq!(
            new_id.space(),
            self.space,
            "joining id is from another hash space"
        );
        if self.node(new_id).is_some() {
            return None;
        }
        let value = new_id.value();
        let lookup = self.route(bootstrap, value);
        let mut messages = lookup.hops;
        for k in 0..self.space.bits() {
            let target = new_id.add_power_of_two(k).value();
            messages = messages.saturating_add(self.route(lookup.owner, target).hops);
        }
        let pos = self.ring.partition_point(|&id| id < value);
        self.ring.insert(pos, value);
        self.reindex_after(value, true);
        Some(messages)
    }

    /// Marks a node failed (crash model: no goodbye messages). It leaves
    /// the ring, and with it every table entry that named it; its id
    /// stays taken.
    ///
    /// Returns false if the node was missing or already dead.
    pub fn fail(&mut self, id: ChordId) -> bool {
        let Some(pos) = self.alive_pos(id.value()) else {
            return false;
        };
        let value = self.ring.remove(pos);
        self.reindex_after(value, false);
        let at = self.crashed.partition_point(|&c| c < value);
        self.crashed.insert(at, value);
        true
    }

    /// Removes a node's state entirely — the graceful-departure model: the
    /// node announced, handed its keys off, and left, so no corpse remains
    /// (contrast with [`SimNet::fail`]). Removing a crashed node collects
    /// its corpse, freeing its id. Returns false if the id is unknown.
    pub fn remove_node(&mut self, id: ChordId) -> bool {
        let value = id.value();
        if let Some(pos) = self.alive_pos(value) {
            self.ring.remove(pos);
            self.reindex_after(value, false);
        } else if let Ok(at) = self.crashed.binary_search(&value) {
            self.crashed.remove(at);
        } else {
            return false;
        }
        true
    }

    /// Heap bytes the ring holds: the alive ids, the directory and the
    /// crashed ids, counted from their capacities.
    pub fn heap_bytes(&self) -> u64 {
        let ids = self.ring.capacity() + self.crashed.capacity();
        (ids * size_of::<u64>() + self.dir.capacity() * size_of::<u32>()) as u64
    }

    /// The live ring behind [`RouteSnapshot`]'s old interface. Kept only
    /// because `clash-benchmark/src/micro.rs` calls it; the next
    /// `benchmark`-archetype PR drops the call and this method.
    pub fn snapshot(&self) -> RouteSnapshot<'_> {
        RouteSnapshot { net: self }
    }
}

impl fmt::Debug for SimNet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimNet")
            .field("space", &self.space)
            .field("nodes", &(self.ring.len() + self.crashed.len()))
            .field("alive", &self.alive_count())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> HashSpace {
        HashSpace::new(16).unwrap()
    }

    fn stable_net(n: usize, seed: u64) -> SimNet {
        let mut rng = DetRng::new(seed);
        SimNet::with_random_nodes(space(), n, &mut rng)
    }

    /// Asserts the directory's owner and predecessor searches agree
    /// with a plain `partition_point` over the sorted ids, at 0, the
    /// mask, every alive id and the points either side of it, and at
    /// `probes`.
    fn assert_directory_matches(net: &SimNet, probes: impl IntoIterator<Item = u64>) {
        let mask = net.space.mask();
        let n = net.ring.len();
        let around = net
            .ring
            .iter()
            .flat_map(|&id| [id, id.wrapping_sub(1) & mask, id.wrapping_add(1) & mask]);
        for h in [0, mask].into_iter().chain(around).chain(probes) {
            let i = net.ring.partition_point(|&id| id < h);
            let owner = (n > 0).then(|| net.ring[i % n]);
            let pred = (n > 0).then(|| net.ring[(i + n - 1) % n]);
            assert_eq!(
                net.owner_of(h).map(ChordId::value),
                owner,
                "owner of {h:#x}"
            );
            let before = net.predecessor_of(h).map(ChordId::value);
            assert_eq!(before, pred, "predecessor of {h:#x}");
        }
    }

    /// The directory on the rings that stress its sizing: one node,
    /// every id of an 8-bit space (`b` clamped to `M`), every id in one
    /// arc, ids at both ends of the space, and a 64-bit space.
    #[test]
    fn owner_of_matches_sorted_order() {
        let net = SimNet::from_ids(space(), vec![300, 100, 200]);
        assert_eq!(net.owner_of(150).unwrap().value(), 200);
        assert_eq!(net.owner_of(200).unwrap().value(), 200);
        assert_eq!(net.owner_of(301).unwrap().value(), 100); // wraps
        assert_eq!(net.owner_of(50).unwrap().value(), 100);
        assert_directory_matches(&net, 0..=space().mask());

        let eight = HashSpace::new(8).unwrap();
        let every = 0..=eight.mask();
        assert_directory_matches(&SimNet::from_ids(eight, vec![5]), every.clone());
        let full = SimNet::from_ids(eight, every.clone().collect());
        assert_eq!(full.dir.len(), 257, "b is clamped to M");
        assert_directory_matches(&full, every.clone());
        assert_directory_matches(&SimNet::from_ids(eight, vec![0, 255]), every);

        let bunched = SimNet::from_ids(space(), (0x8000..0x8010).collect());
        let arc = (0x8000 >> bunched.shift) as usize;
        let width = bunched.dir[arc + 1] - bunched.dir[arc];
        assert_eq!(width, 16, "one arc holds every id");
        assert_directory_matches(&bunched, 0x7ff0..0x8020);

        let wide = HashSpace::new(64).unwrap();
        let mut rng = DetRng::new(41);
        let mut ids: Vec<u64> = (0..200).map(|_| rng.next_u64()).collect();
        ids.extend([0, u64::MAX]);
        ids.sort_unstable();
        ids.dedup();
        let probes: Vec<u64> = (0..2000).map(|_| rng.next_u64()).collect();
        assert_directory_matches(&SimNet::from_ids(wide, ids), probes);
    }

    /// The directory follows the ring through every membership call:
    /// rebuilt after each join, crash and departure, across the alive
    /// counts where its size changes.
    #[test]
    fn predecessor_of_matches_sorted_order() {
        let net = SimNet::from_ids(space(), vec![100, 200, 300]);
        assert_eq!(net.predecessor_of(150).unwrap().value(), 100);
        assert_eq!(net.predecessor_of(100).unwrap().value(), 300); // wraps

        let mut rng = DetRng::new(42);
        let probes: Vec<u64> = (0..500).map(|_| rng.next_u64() & space().mask()).collect();
        let mut net = stable_net(6, 43);
        for step in 0..60u64 {
            let ids = net.node_ids();
            let pick = ids[rng.uniform_index(ids.len())];
            match step % 4 {
                0 | 1 => {
                    net.join(ChordId::new(rng.next_u64(), space()), pick);
                }
                2 if ids.len() > 1 => assert!(net.fail(pick)),
                _ if ids.len() > 1 => assert!(net.remove_node(pick)),
                _ => {}
            }
            assert_directory_matches(&net, probes.iter().copied());
        }
    }

    #[test]
    fn empty_ring_owner_is_none() {
        let net = SimNet::from_ids(space(), Vec::new());
        assert_eq!(net.owner_of(1), None);
    }

    #[test]
    fn lookups_agree_with_ground_truth() {
        let mut net = stable_net(100, 1);
        let starts = net.node_ids();
        let mut rng = DetRng::new(2);
        for _ in 0..500 {
            let h = rng.next_u64() & space().mask();
            let start = starts[rng.uniform_index(starts.len())];
            let result = net.find_successor(start, h);
            assert_eq!(Some(result.owner), net.owner_of(h), "h={h:#x}");
        }
    }

    #[test]
    fn lookup_hops_are_logarithmic() {
        let mut net = stable_net(256, 3);
        let starts = net.node_ids();
        let mut rng = DetRng::new(4);
        for _ in 0..2000 {
            let h = rng.next_u64() & space().mask();
            let start = starts[rng.uniform_index(starts.len())];
            net.find_successor(start, h);
        }
        let stats = net.stats();
        // Chord: mean ~ (1/2)·log2(S) = 4; max ~ log2(S) + slack.
        assert!(stats.mean_hops() < 6.0, "mean hops {}", stats.mean_hops());
        assert!(stats.max_hops <= 16, "max hops {}", stats.max_hops);
    }

    #[test]
    fn lookup_scaling_with_ring_size() {
        // Mean hops must grow roughly logarithmically, not linearly.
        let mut means = Vec::new();
        for &n in &[32usize, 256] {
            let mut net = stable_net(n, 5);
            let starts = net.node_ids();
            let mut rng = DetRng::new(6);
            for _ in 0..1000 {
                let h = rng.next_u64() & space().mask();
                let start = starts[rng.uniform_index(starts.len())];
                net.find_successor(start, h);
            }
            means.push(net.stats().mean_hops());
        }
        // 8× more nodes → ~3 extra hops (log2 8), definitely < 3× increase.
        assert!(
            means[1] < means[0] * 3.0,
            "hops scaled super-logarithmically: {means:?}"
        );
        assert!(means[1] > means[0], "more nodes should cost more hops");
    }

    #[test]
    fn single_node_owns_everything() {
        let id = ChordId::new(42, space());
        let mut net = SimNet::from_ids(space(), vec![42]);
        let r = net.find_successor(id, 9999);
        assert_eq!(r.owner, id);
        assert_eq!(r.hops, 0);
    }

    #[test]
    fn lookup_of_own_id_is_free() {
        let mut net = stable_net(50, 7);
        let id = net.node_ids()[10];
        let r = net.find_successor(id, id.value());
        assert_eq!(r.owner, id);
        assert_eq!(r.hops, 0);
    }

    /// A crashed node keeps its id: joining it again is rejected like an
    /// alive node's, until the corpse is removed.
    #[test]
    fn duplicate_add_rejected() {
        let mut net = stable_net(5, 31);
        let ids = net.node_ids();
        net.fail(ids[1]);
        assert_eq!(net.join(ids[1], ids[0]), None);
        assert!(net.remove_node(ids[1]));
        assert!(net.join(ids[1], ids[0]).is_some());
        assert!(net.is_alive(ids[1]));
    }

    #[test]
    fn join_then_stabilize_converges() {
        let mut net = stable_net(20, 8);
        let bootstrap = net.node_ids()[0];
        let mut rng = DetRng::new(9);
        for _ in 0..10 {
            let id = ChordId::new(rng.next_u64(), space());
            net.join(id, bootstrap);
        }
        assert_eq!(net.alive_count(), 30);
    }

    #[test]
    fn joins_route_correctly_after_convergence() {
        let mut net = stable_net(20, 10);
        let bootstrap = net.node_ids()[0];
        net.join(ChordId::new(0xBEEF, space()), bootstrap);
        let start = net.node_ids()[3];
        let r = net.find_successor(start, 0xBEEF);
        assert_eq!(r.owner.value(), 0xBEEF);
    }

    #[test]
    fn failures_are_routed_around() {
        let mut net = stable_net(64, 11);
        let ids = net.node_ids();
        // Fail 10 spread-out nodes.
        for &id in ids.iter().step_by(6).take(10) {
            net.fail(id);
        }
        let starts = net.node_ids();
        let mut rng = DetRng::new(12);
        for _ in 0..300 {
            let h = rng.next_u64() & space().mask();
            let start = starts[rng.uniform_index(starts.len())];
            let r = net.find_successor(start, h);
            assert_eq!(Some(r.owner), net.owner_of(h));
            assert!(net.is_alive(r.owner));
        }
    }

    #[test]
    fn mass_failure_recovery() {
        let mut net = stable_net(40, 15);
        let ids = net.node_ids();
        for &id in ids.iter().take(20) {
            net.fail(id);
        }
        assert_eq!(net.alive_count(), 20);
        // Corpses keep their ids, but no tables.
        assert!(ids.iter().take(20).all(|&id| net.node(id).is_some()));
        assert!(net.node(ids[0]).unwrap().fingers().is_empty());
    }

    #[test]
    fn join_seeds_fingers_from_successor() {
        // A freshly joined node routes at full Chord efficiency: no
        // lookup from it degenerates into a successor walk around the
        // 256-node ring.
        let mut net = stable_net(256, 20);
        let bootstrap = net.node_ids()[0];
        let new_id = ChordId::new(0xF00D, space());
        let messages = net.join(new_id, bootstrap).expect("id free");
        assert!(messages > 0, "join lookup and finger seeding cost messages");
        let fingers = net.node(new_id).unwrap().fingers();
        assert!(
            fingers.iter().any(|&f| f != new_id),
            "fingers must be seeded, not left pointing at self"
        );
        let mut rng = DetRng::new(21);
        let mut max_hops = 0;
        for _ in 0..300 {
            let h = rng.next_u64() & space().mask();
            let r = net.route(new_id, h);
            max_hops = max_hops.max(r.hops);
        }
        // Chord bound: ~log2(257) + slack. A successor walk would need
        // O(256) hops for far targets.
        assert!(max_hops <= 16, "post-join max hops {max_hops}");
    }

    #[test]
    fn join_rejects_taken_id() {
        let mut net = stable_net(8, 22);
        let existing = net.node_ids()[3];
        let bootstrap = net.node_ids()[0];
        assert_eq!(net.join(existing, bootstrap), None);
    }

    #[test]
    fn remove_node_departs_cleanly() {
        let mut net = stable_net(30, 23);
        let leaver = net.node_ids()[7];
        assert!(net.remove_node(leaver));
        assert!(!net.remove_node(leaver), "already gone");
        assert!(net.node(leaver).is_none());
        assert_eq!(net.alive_count(), 29);
        // Lookups route around the departed node.
        let starts = net.node_ids();
        let mut rng = DetRng::new(24);
        for _ in 0..200 {
            let h = rng.next_u64() & space().mask();
            let start = starts[rng.uniform_index(starts.len())];
            let r = net.find_successor(start, h);
            assert_eq!(Some(r.owner), net.owner_of(h));
            assert_ne!(r.owner, leaver);
        }
    }

    #[test]
    fn alive_successors_follow_ring_order_and_skip_corpses() {
        let mut net = stable_net(12, 29);
        let ids = net.node_ids();
        let id = ids[4];
        let list = net.alive_successors(id, 3);
        assert_eq!(list, vec![ids[5], ids[6], ids[7]]);
        // Kill the immediate successor: it drops out, the list extends.
        net.fail(ids[5]);
        let list = net.alive_successors(id, 3);
        assert_eq!(list, vec![ids[6], ids[7], ids[8]]);
        // A corpse has no successors to offer.
        assert!(net.alive_successors(ids[5], 3).is_empty());
        // r = 0 asks for nothing and gets nothing.
        assert!(net.alive_successors(id, 0).is_empty());
        // Small rings cap the list; unknown nodes get nothing.
        let mut tiny = stable_net(2, 30);
        let a = tiny.node_ids()[0];
        assert_eq!(tiny.alive_successors(a, 4).len(), 1);
        tiny.fail(tiny.node_ids()[1]);
        assert!(tiny.alive_successors(a, 4).is_empty());
    }

    /// Asserts both nets hold identical per-node routing state (fingers,
    /// successor lists, predecessors) for every alive node.
    fn assert_same_routing_state(a: &SimNet, b: &SimNet, label: &str) {
        let ids_a = a.node_ids();
        assert_eq!(ids_a, b.node_ids(), "{label}: membership diverged");
        for id in ids_a {
            let na = a.node(id).unwrap();
            let nb = b.node(id).unwrap();
            assert_eq!(na.fingers(), nb.fingers(), "{label}: fingers of {id}");
            assert_eq!(
                na.successor_list(),
                nb.successor_list(),
                "{label}: successor list of {id}"
            );
            assert_eq!(
                na.predecessor(),
                nb.predecessor(),
                "{label}: predecessor of {id}"
            );
        }
    }

    /// A ring grown one join at a time from a single node ends in
    /// exactly the tables of the ring built from all its ids at once.
    #[test]
    fn build_stable_matches_maintenance_protocol() {
        let mut rng = DetRng::new(17);
        let built = SimNet::with_random_nodes(space(), 24, &mut rng);
        let ids = built.node_ids();
        let mut grown = SimNet::from_ids(space(), vec![ids[0].value()]);
        for &id in &ids[1..] {
            grown.join(id, ids[0]);
        }
        assert_same_routing_state(&built, &grown, "grown by joins");
    }

    #[test]
    fn route_with_path_matches_route() {
        let net = stable_net(128, 25);
        let starts = net.node_ids();
        let mut rng = DetRng::new(26);
        let mut path = Vec::new();
        for _ in 0..500 {
            let h = rng.next_u64() & space().mask();
            let start = starts[rng.uniform_index(starts.len())];
            let plain = net.route(start, h);
            let routed = net.route_path(start, h, &mut path);
            assert_eq!(plain, routed);
            assert_eq!(path.len(), routed.hops as usize);
            // The path is a connected chain from start to the owner.
            let mut at = start;
            for &(from, to) in &path {
                assert_eq!(from, at, "hops must chain");
                assert!(net.is_alive(to), "hops only touch alive nodes");
                at = to;
            }
            assert_eq!(at, routed.owner, "path ends at the owner");
        }
    }

    #[test]
    fn route_each_visits_the_path_and_records_nothing() {
        let mut net = stable_net(32, 27);
        let starts = net.node_ids();
        let mut rng = DetRng::new(28);
        let mut path = Vec::new();
        let mut hops = 0;
        for _ in 0..200 {
            let h = rng.next_u64() & space().mask();
            let start = starts[rng.uniform_index(starts.len())];
            let mut visited = Vec::new();
            let r = net.route_each(start, h, |from, to| visited.push((from, to)));
            assert_eq!(r, net.route_path(start, h, &mut path));
            let want: Vec<(u64, u64)> = path.iter().map(|(f, t)| (f.value(), t.value())).collect();
            assert_eq!(visited, want);
            hops += u64::from(r.hops);
        }
        assert_eq!(net.stats().lookups, 0, "routing is pure");
        net.record_routed_lookup(3);
        assert_eq!((net.stats().lookups, net.stats().total_hops), (1, 3));
        assert!(hops > 0);
    }

    #[test]
    fn stats_accumulate_and_reset() {
        let mut net = stable_net(32, 18);
        let start = net.node_ids()[0];
        net.find_successor(start, 1);
        net.find_successor(start, 2);
        assert_eq!(net.stats().lookups, 2);
    }

    #[test]
    #[should_panic(expected = "alive node")]
    fn lookup_from_dead_node_panics() {
        let mut net = stable_net(5, 19);
        let id = net.node_ids()[0];
        net.fail(id);
        net.route(id, 1);
    }

    #[test]
    fn stabilize_direct_reports_one_round_and_routes_correctly() {
        let mut net = stable_net(30, 60);
        let bootstrap = net.node_ids()[0];
        net.join(ChordId::new(0xABCD, space()), bootstrap);
        assert_eq!(net.stabilize_direct(), 1);
        let starts = net.node_ids();
        let mut rng = DetRng::new(61);
        for _ in 0..200 {
            let h = rng.next_u64() & space().mask();
            let start = starts[rng.uniform_index(starts.len())];
            assert_eq!(Some(net.route(start, h).owner), net.owner_of(h));
        }
    }
}
