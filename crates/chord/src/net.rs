//! The in-process Chord network: routing, membership and maintenance.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Bound::{Excluded, Included, Unbounded};

use clash_keyspace::hash::HashSpace;
use clash_simkernel::rng::DetRng;

use crate::id::ChordId;
use crate::node::ChordNode;
use crate::snapshot::RouteSnapshot;

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

/// A simulated Chord ring.
///
/// All nodes live in one process; "messages" are method calls with hop
/// counting. Failed nodes keep their (stale) state but are invisible to
/// routing, exactly as a crashed host would be; [`SimNet::stabilize_round`]
/// and [`SimNet::fix_fingers_round`] implement the Chord maintenance
/// protocol that repairs pointers around failures and joins.
pub struct SimNet {
    space: HashSpace,
    nodes: BTreeMap<u64, ChordNode>,
    succ_list_len: usize,
    stats: NetStats,
    /// Memoized first *alive* successor per node. Routing consults this
    /// once per hop of every lookup; between membership/maintenance
    /// events successor lists and liveness are static, so the walk down
    /// the successor list is paid once per node instead of once per hop.
    /// Any mutation that can change the answer (join, fail, removal,
    /// stabilization, `build_stable`) clears the whole cache — those
    /// events are rare next to lookups.
    succ_cache: RefCell<BTreeMap<u64, ChordId>>,
    /// Memoized alive node ids in ring order — what
    /// [`SimNet::random_alive`] indexes into. Rebuilding this vector per
    /// client entry-point draw was an O(ring) cost on *every* probe;
    /// the cache is invalidated together with `succ_cache`, and the
    /// indexing (same sorted order, same single `uniform_index` draw)
    /// picks bit-for-bit the same node the rebuild would have.
    alive_cache: RefCell<Option<Vec<ChordId>>>,
    /// Number of alive nodes (the O(1) answer to
    /// [`SimNet::alive_count`]).
    alive: usize,
    /// True while every alive node's tables are the maintenance fixpoint
    /// [`SimNet::stabilize_direct`] last installed, except for what
    /// `joined` / `removed` record — the precondition of its incremental
    /// repair. Anything else that writes tables (construction,
    /// `add_node`, the round-based protocol, `build_stable`, a
    /// successor-list length change) clears it.
    fixpoint: bool,
    /// Ids [`SimNet::join`] added since the fixpoint.
    joined: Vec<ChordId>,
    /// Ids [`SimNet::fail`] / [`SimNet::remove_node`] took out of the
    /// alive set since the fixpoint.
    removed: Vec<ChordId>,
}

impl SimNet {
    /// Creates an empty ring over the given hash space with the Chord
    /// default successor-list length (`⌈log₂ expected-nodes⌉` is typical;
    /// we default to 8).
    pub fn new(space: HashSpace) -> Self {
        SimNet {
            space,
            nodes: BTreeMap::new(),
            succ_list_len: 8,
            stats: NetStats::default(),
            succ_cache: RefCell::new(BTreeMap::new()),
            alive_cache: RefCell::new(None),
            alive: 0,
            fixpoint: false,
            joined: Vec::new(),
            removed: Vec::new(),
        }
    }

    /// The tables are no longer a known fixpoint plus a recorded delta:
    /// the next [`SimNet::stabilize_direct`] recomputes the whole ring.
    fn forget_fixpoint(&mut self) {
        self.fixpoint = false;
        self.joined.clear();
        self.removed.clear();
    }

    /// Drops every memoized first-alive-successor entry and the alive-id
    /// vector. Called by every mutation that can change liveness or a
    /// successor list.
    fn invalidate_succ_cache(&self) {
        self.succ_cache.borrow_mut().clear();
        *self.alive_cache.borrow_mut() = None;
    }

    /// Sets the successor-list length (fault-tolerance depth).
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    pub fn set_successor_list_len(&mut self, len: usize) {
        assert!(len > 0, "successor list length must be positive");
        self.succ_list_len = len;
        self.forget_fixpoint();
    }

    /// No-op: stabilization is single-threaded. Kept only because
    /// `clash-benchmark/src/micro.rs` calls it; the next
    /// `benchmark`-archetype PR drops the call and this method.
    pub fn set_stabilize_workers(&mut self, _workers: usize) {}

    /// Creates a ring with `n` distinct random node identifiers (not yet
    /// stabilized — call [`SimNet::build_stable`] or run the maintenance
    /// protocol).
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds the hash-space size.
    pub fn with_random_nodes(space: HashSpace, n: usize, rng: &mut DetRng) -> Self {
        assert!(
            (n as u128) <= space.size(),
            "cannot place {n} nodes in a {space} hash space"
        );
        let mut net = SimNet::new(space);
        while net.nodes.len() < n {
            let id = ChordId::new(rng.next_u64(), space);
            net.add_node(id);
        }
        net
    }

    /// The ring's hash space.
    pub fn space(&self) -> HashSpace {
        self.space
    }

    /// Adds a solitary (unwired) node. Returns false if the identifier is
    /// already taken.
    pub fn add_node(&mut self, id: ChordId) -> bool {
        let added = self.insert_solitary(id);
        if added {
            self.forget_fixpoint();
        }
        added
    }

    fn insert_solitary(&mut self, id: ChordId) -> bool {
        debug_assert_eq!(id.space(), self.space);
        if self.nodes.contains_key(&id.value()) {
            return false;
        }
        self.nodes.insert(id.value(), ChordNode::solitary(id));
        self.alive += 1;
        self.invalidate_succ_cache();
        true
    }

    /// Number of alive nodes.
    pub fn alive_count(&self) -> usize {
        self.alive
    }

    /// Identifiers of all alive nodes, in ring order.
    pub fn node_ids(&self) -> Vec<ChordId> {
        self.nodes
            .values()
            .filter(|n| n.is_alive())
            .map(|n| n.id())
            .collect()
    }

    /// Immutable access to a node's state.
    pub fn node(&self, id: ChordId) -> Option<&ChordNode> {
        self.nodes.get(&id.value())
    }

    /// True if `id` names an alive node.
    pub fn is_alive(&self, id: ChordId) -> bool {
        self.nodes.get(&id.value()).is_some_and(|n| n.is_alive())
    }

    /// A uniformly random alive node (for client entry points).
    ///
    /// # Panics
    ///
    /// Panics if the ring has no alive nodes.
    pub fn random_alive(&self, rng: &mut DetRng) -> ChordId {
        let mut cache = self.alive_cache.borrow_mut();
        let ids = cache.get_or_insert_with(|| self.node_ids());
        assert!(!ids.is_empty(), "ring has no alive nodes");
        ids[rng.uniform_index(ids.len())]
    }

    /// Alive ids at or after `h`, in ring order, wrapping once around.
    fn alive_from(&self, h: u64) -> impl Iterator<Item = ChordId> + '_ {
        self.nodes
            .range(h..)
            .chain(self.nodes.range(..h))
            .filter(|(_, n)| n.is_alive())
            .map(|(_, n)| n.id())
    }

    /// Alive ids strictly before `h`, nearest first, wrapping once
    /// around (so `h` itself, if alive, comes last).
    fn alive_before(&self, h: u64) -> impl Iterator<Item = ChordId> + '_ {
        self.nodes
            .range(..h)
            .rev()
            .chain(self.nodes.range(h..).rev())
            .filter(|(_, n)| n.is_alive())
            .map(|(_, n)| n.id())
    }

    /// Ground truth: the alive node owning hash `h` (its ring successor),
    /// or `None` on an empty ring. O(log S) on the in-memory map; used for
    /// bootstrap and validation, not by the routed protocol.
    pub fn owner_of(&self, h: u64) -> Option<ChordId> {
        self.alive_from(h & self.space.mask()).next()
    }

    /// Ground truth: the alive node strictly preceding `h` on the ring.
    pub fn predecessor_of(&self, h: u64) -> Option<ChordId> {
        self.alive_before(h & self.space.mask()).next()
    }

    /// Installs exact routing state on every alive node: perfect fingers,
    /// successor lists and predecessors. Equivalent to running the
    /// maintenance protocol to convergence, in O(S·M·log S) time.
    pub fn build_stable(&mut self) {
        let ids: Vec<ChordId> = self.node_ids();
        if ids.is_empty() {
            return;
        }
        let r = self.succ_list_len.min(ids.len());
        self.install_tables(&ids, r);
        // Rings no larger than the successor-list length get lists
        // padded with `self` here, which the maintenance fixpoint never
        // holds.
        self.forget_fixpoint();
    }

    /// Owner of `h` among the sorted alive ids — binary search plus
    /// wrap-around. Identical to [`SimNet::owner_of`] whenever `ids`
    /// holds exactly the alive nodes in ring order (the stabilization
    /// paths' precondition), without the per-query tree walk over dead
    /// nodes' corpses.
    fn owner_in(ids: &[ChordId], h: u64) -> ChordId {
        let i = ids.partition_point(|id| id.value() < h);
        ids[if i == ids.len() { 0 } else { i }]
    }

    /// The ground-truth routing tables of the node at ring position
    /// `pos`: successor list of length `r` (`[self]` on a one-node
    /// ring), predecessor, and all `m` fingers. A pure function of the
    /// sorted alive-id slice.
    fn tables_for(
        ids: &[ChordId],
        pos: usize,
        r: usize,
        m: usize,
    ) -> (Vec<ChordId>, Option<ChordId>, Vec<ChordId>) {
        let n = ids.len();
        let id = ids[pos];
        let succ_list: Vec<ChordId> = if n == 1 {
            vec![id]
        } else {
            (1..=r).map(|k| ids[(pos + k) % n]).collect()
        };
        let pred = (n > 1).then(|| ids[(pos + n - 1) % n]);
        let fingers = (0..m)
            .map(|k| Self::owner_in(ids, id.add_power_of_two(k as u32).value()))
            .collect();
        (succ_list, pred, fingers)
    }

    /// Computes and installs every alive node's ground-truth tables, in
    /// ring order.
    fn install_tables(&mut self, ids: &[ChordId], r: usize) {
        let m = self.space.bits() as usize;
        for pos in 0..ids.len() {
            let (succ_list, pred, fingers) = Self::tables_for(ids, pos, r, m);
            let node = self
                .nodes
                .get_mut(&ids[pos].value())
                .expect("id from node_ids");
            node.set_successor_list(succ_list);
            node.set_predecessor(pred);
            for (k, f) in fingers.into_iter().enumerate() {
                node.set_finger(k, f);
            }
        }
        self.invalidate_succ_cache();
    }

    /// Pure routed lookup: resolves the successor of `h` starting at
    /// `start` using only per-node state, counting hops. Does not touch
    /// statistics; see [`SimNet::find_successor`].
    ///
    /// # Panics
    ///
    /// Panics if `start` is not an alive node, or if routing degenerates
    /// into a cycle (only possible when maintenance has never run after
    /// severe membership changes).
    pub fn route(&self, start: ChordId, h: u64) -> LookupResult {
        self.route_visit(start, h, |_, _| ())
    }

    /// [`SimNet::route`], additionally returning the per-hop path as
    /// `(from, to)` pairs — one pair per inter-node message — so callers
    /// can charge each hop its own link cost (latency, loss) through a
    /// transport. `path.len()` always equals the returned hop count.
    pub fn route_with_path(
        &self,
        start: ChordId,
        h: u64,
    ) -> (LookupResult, Vec<(ChordId, ChordId)>) {
        let mut path = Vec::new();
        let result = self.route_visit(start, h, |from, to| path.push((from, to)));
        debug_assert_eq!(path.len(), result.hops as usize);
        (result, path)
    }

    /// The routing engine: `visit(from, to)` fires once per inter-node
    /// hop, in order. Monomorphized with a no-op visitor this is exactly
    /// the old allocation-free `route`.
    fn route_visit<F: FnMut(ChordId, ChordId)>(
        &self,
        start: ChordId,
        h: u64,
        mut visit: F,
    ) -> LookupResult {
        assert!(self.is_alive(start), "lookup must start at an alive node");
        let target = ChordId::new(h, self.space);
        let mut current = start;
        let mut hops = 0u32;
        let hop_limit = 4 * self.space.bits() + self.nodes.len() as u32 + 8;
        loop {
            if target.value() == current.value() {
                return LookupResult {
                    owner: current,
                    hops,
                };
            }
            let node = &self.nodes[&current.value()];
            let succ = self.first_alive_successor(node);
            if succ == current {
                // Solitary (or fully isolated) node owns everything.
                return LookupResult {
                    owner: current,
                    hops,
                };
            }
            if target.in_half_open_interval(current, succ) {
                visit(current, succ);
                return LookupResult {
                    owner: succ,
                    hops: hops + 1,
                };
            }
            let next = node.closest_preceding(target, |c| self.is_alive(c));
            let next = if next == current { succ } else { next };
            visit(current, next);
            current = next;
            hops += 1;
            assert!(
                hops <= hop_limit,
                "routing cycle: {start:?} -> {h:#x} exceeded {hop_limit} hops"
            );
        }
    }

    fn first_alive_successor(&self, node: &ChordNode) -> ChordId {
        if let Some(&cached) = self.succ_cache.borrow().get(&node.id().value()) {
            return cached;
        }
        let succ = node
            .successor_list()
            .iter()
            .copied()
            .find(|&s| self.is_alive(s))
            .unwrap_or_else(|| node.id());
        self.succ_cache.borrow_mut().insert(node.id().value(), succ);
        succ
    }

    /// The first `r` distinct *alive* ring successors of `id`, in
    /// successor-list order (nearest first), excluding `id` itself. This
    /// is the node's own routing state — the replica set CLASH's
    /// successor-list replication places key-group state on — so it can
    /// lag ground truth between maintenance rounds, exactly as a real
    /// deployment's would. Returns fewer than `r` entries on small rings
    /// and an empty vector for unknown nodes.
    pub fn alive_successors(&self, id: ChordId, r: usize) -> Vec<ChordId> {
        if r == 0 {
            return Vec::new();
        }
        let Some(node) = self.nodes.get(&id.value()) else {
            return Vec::new();
        };
        let mut out: Vec<ChordId> = Vec::with_capacity(r);
        for &s in node.successor_list() {
            if s != id && self.is_alive(s) && !out.contains(&s) {
                out.push(s);
                if out.len() == r {
                    break;
                }
            }
        }
        out
    }

    /// Routed lookup with statistics recording — the `Map()` operation
    /// CLASH builds on (§4 of the paper).
    pub fn find_successor(&mut self, start: ChordId, h: u64) -> LookupResult {
        let result = self.route(start, h);
        self.record_lookup(result);
        result
    }

    /// [`SimNet::find_successor`] returning the per-hop path (see
    /// [`SimNet::route_with_path`]). Statistics are recorded identically.
    pub fn find_successor_path(
        &mut self,
        start: ChordId,
        h: u64,
    ) -> (LookupResult, Vec<(ChordId, ChordId)>) {
        let (result, path) = self.route_with_path(start, h);
        self.record_lookup(result);
        (result, path)
    }

    fn record_lookup(&mut self, result: LookupResult) {
        self.record_routed_lookup(result.hops);
    }

    /// Records the statistics of one lookup that was already routed
    /// elsewhere — the batched locate path resolves probes against a
    /// [`RouteSnapshot`] and replays the accounting here in plan order,
    /// so [`SimNet::stats`] stays bit-for-bit what
    /// the sequential [`SimNet::find_successor_path`] calls would have
    /// produced.
    pub fn record_routed_lookup(&mut self, hops: u32) {
        self.stats.lookups += 1;
        self.stats.total_hops += u64::from(hops);
        self.stats.max_hops = self.stats.max_hops.max(hops);
    }

    /// Lookup statistics accumulated by [`SimNet::find_successor`].
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// Clears lookup statistics.
    pub fn reset_stats(&mut self) {
        self.stats = NetStats::default();
    }

    /// Joins a new node through `bootstrap`: routes a lookup for its own
    /// identifier to find its successor, then seeds the new node's routing
    /// state *from that successor* — its successor list is inherited and
    /// every finger is resolved by routing from the successor — so that
    /// lookups starting at the freshly joined node are O(log S)
    /// immediately instead of successor-walking until the first
    /// [`SimNet::fix_fingers_round`]. Fingers covering the arc the new
    /// node takes over still name the old owner until stabilization runs,
    /// which is exactly Chord's transient.
    ///
    /// Returns the total inter-node messages spent (the join lookup plus
    /// the finger-seeding lookups), or `None` if the identifier is already
    /// taken.
    ///
    /// # Panics
    ///
    /// Panics if `bootstrap` is not alive.
    pub fn join(&mut self, new_id: ChordId, bootstrap: ChordId) -> Option<u32> {
        assert!(self.is_alive(bootstrap), "bootstrap node must be alive");
        if !self.insert_solitary(new_id) {
            return None;
        }
        self.joined.push(new_id);
        let lookup = self.route(bootstrap, new_id.value());
        let succ = lookup.owner;
        let mut messages = lookup.hops;
        let m = self.space.bits() as usize;
        let mut fingers = Vec::with_capacity(m);
        for k in 0..m {
            let target = new_id.add_power_of_two(k as u32);
            let r = self.route(succ, target.value());
            fingers.push(r.owner);
            messages = messages.saturating_add(r.hops);
        }
        let mut succ_list = vec![succ];
        succ_list.extend(
            self.nodes[&succ.value()]
                .successor_list()
                .iter()
                .copied()
                .filter(|&s| s != new_id && s != succ && self.is_alive_raw(s)),
        );
        succ_list.truncate(self.succ_list_len);
        let node = self
            .nodes
            .get_mut(&new_id.value())
            .expect("node just added");
        node.set_successor_list(succ_list);
        node.set_predecessor(None);
        for (k, f) in fingers.into_iter().enumerate() {
            node.set_finger(k, f);
        }
        self.invalidate_succ_cache();
        Some(messages)
    }

    /// Marks a node failed (crash model: no goodbye messages).
    ///
    /// Returns false if the node was missing or already dead.
    pub fn fail(&mut self, id: ChordId) -> bool {
        match self.nodes.get_mut(&id.value()) {
            Some(n) if n.is_alive() => {
                n.mark_failed();
                self.alive -= 1;
                self.removed.push(id);
                self.invalidate_succ_cache();
                true
            }
            _ => false,
        }
    }

    /// Removes failed nodes' state entirely (garbage collection).
    pub fn remove_failed(&mut self) {
        self.nodes.retain(|_, n| n.is_alive());
        self.invalidate_succ_cache();
    }

    /// Removes a node's state entirely — the graceful-departure model: the
    /// node announced, handed its keys off, and left, so no corpse remains
    /// (contrast with [`SimNet::fail`], which leaves stale state behind the
    /// way a crashed host would). Survivors' pointers to it are repaired by
    /// the maintenance protocol. Returns false if the id is unknown.
    pub fn remove_node(&mut self, id: ChordId) -> bool {
        let Some(node) = self.nodes.remove(&id.value()) else {
            return false;
        };
        if node.is_alive() {
            self.alive -= 1;
            self.removed.push(id);
        }
        self.invalidate_succ_cache();
        true
    }

    /// One round of Chord stabilization over every alive node (in ring
    /// order): repair successor pointers, notify successors, refresh
    /// successor lists. Returns true if any state changed.
    pub fn stabilize_round(&mut self) -> bool {
        let ids = self.node_ids();
        debug_assert_eq!(ids.len(), self.alive, "alive counter drifted");
        self.forget_fixpoint();
        let mut changed = false;
        for id in ids {
            changed |= self.stabilize_one(id);
        }
        changed
    }

    fn stabilize_one(&mut self, id: ChordId) -> bool {
        if !self.is_alive(id) {
            return false;
        }
        let mut changed = false;
        let node = &self.nodes[&id.value()];
        let mut succ = self.first_alive_successor(node);
        if succ == id && self.alive_count() > 1 {
            // Lost all successors: re-discover via ground truth (models
            // out-of-band rejoin, needed only after catastrophic failures).
            succ = self
                .owner_of(id.value().wrapping_add(1) & self.space.mask())
                .expect("ring has alive nodes");
        }
        // successor's predecessor may be a closer successor for us.
        if succ != id {
            if let Some(x) = self.nodes[&succ.value()].predecessor() {
                if self.is_alive(x) && x.in_open_interval(id, succ) {
                    succ = x;
                }
            }
        }
        // Refresh our successor list from succ's list.
        let mut list = vec![succ];
        if succ != id {
            let succ_node = &self.nodes[&succ.value()];
            list.extend(
                succ_node
                    .successor_list()
                    .iter()
                    .copied()
                    .filter(|&s| self.is_alive(s) && s != id),
            );
        }
        list.dedup();
        list.truncate(self.succ_list_len);
        let list_changed = {
            let node = self.nodes.get_mut(&id.value()).expect("alive node");
            if node.successor_list() != list.as_slice() {
                node.set_successor_list(list);
                true
            } else {
                false
            }
        };
        if list_changed {
            self.invalidate_succ_cache();
            changed = true;
        }
        // Drop a dead predecessor.
        if let Some(p) = self.nodes[&id.value()].predecessor() {
            if !self.nodes.get(&p.value()).is_some_and(|n| n.is_alive()) {
                self.nodes
                    .get_mut(&id.value())
                    .expect("alive node")
                    .set_predecessor(None);
                changed = true;
            }
        }
        // Notify: tell succ about us.
        if succ != id {
            let current_pred = self.nodes[&succ.value()].predecessor();
            let adopt = match current_pred {
                None => true,
                Some(p) => !self.is_alive_raw(p) || id.in_open_interval(p, succ),
            };
            if adopt && current_pred != Some(id) {
                self.nodes
                    .get_mut(&succ.value())
                    .expect("alive succ")
                    .set_predecessor(Some(id));
                changed = true;
            }
        }
        changed
    }

    fn is_alive_raw(&self, id: ChordId) -> bool {
        self.nodes.get(&id.value()).is_some_and(|n| n.is_alive())
    }

    /// One round of finger repair on every alive node: recompute each
    /// finger by routing from the node itself. Returns true if any finger
    /// changed.
    pub fn fix_fingers_round(&mut self) -> bool {
        let ids = self.node_ids();
        self.forget_fixpoint();
        let m = self.space.bits() as usize;
        let mut changed = false;
        for id in ids {
            for k in 0..m {
                let target = id.add_power_of_two(k as u32);
                let owner = self.route(id, target.value()).owner;
                let node = self.nodes.get_mut(&id.value()).expect("alive node");
                if node.fingers()[k] != owner {
                    node.set_finger(k, owner);
                    changed = true;
                }
            }
        }
        changed
    }

    /// Runs stabilization and finger repair until quiescent or the round
    /// budget is exhausted. Returns the number of rounds used.
    pub fn stabilize_until_converged(&mut self, max_rounds: usize) -> usize {
        for round in 1..=max_rounds {
            let a = self.stabilize_round();
            let b = self.fix_fingers_round();
            if !a && !b {
                return round;
            }
        }
        max_rounds
    }

    /// Installs the maintenance protocol's convergence fixpoint directly:
    /// every alive node gets the successor list, predecessor and fingers
    /// that iterating [`SimNet::stabilize_round`] +
    /// [`SimNet::fix_fingers_round`] to quiescence produces (pinned
    /// state-for-state by the `stabilize_direct_*` differential tests and
    /// the `stabilize_direct_repair_matches_whole_ring` proptest). Dead
    /// nodes keep their stale state untouched, exactly as the round-based
    /// protocol leaves them. Returns the round count to report (always 1
    /// — one logical maintenance round).
    ///
    /// Cost. When the tables were this fixpoint at the previous call and
    /// only [`SimNet::join`]s, or only [`SimNet::fail`] /
    /// [`SimNet::remove_node`]s, happened since, only what names a
    /// changed arc is rewritten ([`SimNet::repair_around`]):
    /// O((M + r)·log S) map steps per changed node plus the ≈ M fingers
    /// that move. Otherwise — the state is not a known fixpoint, the
    /// delta mixes joins with removals, or fewer than `r + 2` nodes are
    /// alive — every alive node's tables are recomputed by binary search
    /// over the sorted alive ids: O(S·M·log S), three `Vec`s per node.
    ///
    /// The fixpoint differs from [`SimNet::build_stable`] only on rings
    /// smaller than the successor-list length: stabilization's list
    /// refresh excludes the node itself, so lists hold
    /// `min(r, S − 1)` entries (`[self]` on a one-node ring), while
    /// `build_stable` pads with `self` — which is why the membership path
    /// must use this method, not `build_stable`.
    pub fn stabilize_direct(&mut self) -> usize {
        if self.alive == 0 {
            return 1;
        }
        let joined = std::mem::take(&mut self.joined);
        let removed = std::mem::take(&mut self.removed);
        if self.fixpoint
            && self.alive >= self.succ_list_len + 2
            && (joined.is_empty() || removed.is_empty())
        {
            for &id in &joined {
                self.repair_around(id, true);
            }
            for &id in &removed {
                self.repair_around(id, false);
            }
            self.invalidate_succ_cache();
            debug_assert!(
                self.tables_are_fixpoint(),
                "incremental repair diverged from the whole-ring fixpoint"
            );
        } else {
            let ids = self.node_ids();
            debug_assert_eq!(ids.len(), self.alive, "alive counter drifted");
            let r = self.succ_list_len.min(ids.len() - 1);
            self.install_tables(&ids, r);
        }
        self.fixpoint = true;
        1
    }

    /// Repairs the fixpoint around one changed ring position: `at`
    /// joined (and is alive), or stopped being alive. With `p` the alive
    /// predecessor of `at` and `o` the alive owner of `at`'s position
    /// (`at` itself after a join, its successor after a removal), the
    /// only table entries whose ground truth moved are
    ///
    /// * the successor lists of the `r` alive predecessors of `at` (and
    ///   all of `at`'s own tables after a join),
    /// * the predecessor pointer of the first alive node after `at`,
    /// * finger `k` of every alive node in `(p − 2^k, at − 2^k]`: its
    ///   target lies in `(p, at]`, which `o` now owns.
    ///
    /// Requires at least `r + 2` alive nodes (full-length successor
    /// lists that never reach their own node) and every alive node not
    /// named above to hold fixpoint tables already.
    fn repair_around(&mut self, at: ChordId, joined: bool) {
        let r = self.succ_list_len;
        let h = at.value();
        // r alive predecessors (ring order), then the r + 1 alive nodes
        // from `at` on: every node whose list changes, followed by every
        // node those lists can name.
        let mut window: Vec<ChordId> = self.alive_before(h).take(r).collect();
        window.reverse();
        window.extend(self.alive_from(h).take(r + 1));
        debug_assert_eq!(window.len(), 2 * r + 1);
        let pred = window[r - 1];
        let owner = window[r];
        debug_assert_eq!(owner == at, joined);
        let rewritten = if joined { r + 1 } else { r };
        for j in 0..rewritten {
            let list = window[j + 1..=j + r].to_vec();
            self.node_mut(window[j]).set_successor_list(list);
        }
        if joined {
            self.node_mut(window[r + 1]).set_predecessor(Some(at));
        }
        self.node_mut(owner).set_predecessor(Some(pred));
        let mask = self.space.mask();
        for k in 0..self.space.bits() {
            if joined {
                let target = at.add_power_of_two(k).value();
                let finger = self.owner_of(target).expect("ring is non-empty");
                self.node_mut(at).set_finger(k as usize, finger);
            }
            let step = 1u64 << k;
            let lo = pred.value().wrapping_sub(step) & mask;
            let hi = h.wrapping_sub(step) & mask;
            // (lo, hi] on the ring: one map range, or two across 0.
            let arcs = if lo < hi {
                [Some((Excluded(lo), Included(hi))), None]
            } else {
                [
                    Some((Excluded(lo), Unbounded)),
                    Some((Unbounded, Included(hi))),
                ]
            };
            for arc in arcs.into_iter().flatten() {
                for (_, node) in self.nodes.range_mut(arc) {
                    if node.is_alive() {
                        node.set_finger(k as usize, owner);
                    }
                }
            }
        }
    }

    fn node_mut(&mut self, id: ChordId) -> &mut ChordNode {
        self.nodes.get_mut(&id.value()).expect("id names a node")
    }

    /// True if every alive node holds exactly [`SimNet::tables_for`] —
    /// the whole-ring reference the incremental repair is checked
    /// against in debug builds.
    fn tables_are_fixpoint(&self) -> bool {
        let ids = self.node_ids();
        let r = self.succ_list_len.min(ids.len() - 1);
        let m = self.space.bits() as usize;
        ids.len() == self.alive
            && ids.iter().enumerate().all(|(pos, id)| {
                let (succ_list, pred, fingers) = Self::tables_for(&ids, pos, r, m);
                let node = &self.nodes[&id.value()];
                node.successor_list() == succ_list.as_slice()
                    && node.predecessor() == pred
                    && node.fingers() == fingers.as_slice()
            })
    }

    /// Freezes the current routing state into a flat
    /// [`RouteSnapshot`] whose `route_with_path` is bit-for-bit
    /// [`SimNet::route_with_path`] — for routing batched lookups
    /// between membership events.
    pub fn snapshot(&self) -> RouteSnapshot {
        let m = self.space.bits() as usize;
        let hop_limit = 4 * self.space.bits() + self.nodes.len() as u32 + 8;
        let alive: Vec<&ChordNode> = self.nodes.values().filter(|n| n.is_alive()).collect();
        let mut values = Vec::with_capacity(alive.len());
        let mut first_succ = Vec::with_capacity(alive.len());
        let mut fingers = Vec::with_capacity(alive.len() * m);
        let mut succs = Vec::new();
        let mut succ_offsets = Vec::with_capacity(alive.len() + 1);
        succ_offsets.push(0u32);
        for node in alive {
            values.push(node.id().value());
            first_succ.push(self.first_alive_successor(node).value());
            fingers.extend(
                node.fingers()
                    .iter()
                    .map(|&f| (f.value(), self.is_alive_raw(f))),
            );
            succs.extend(
                node.successor_list()
                    .iter()
                    .map(|&s| (s.value(), self.is_alive_raw(s))),
            );
            succ_offsets.push(succs.len() as u32);
        }
        RouteSnapshot {
            space: self.space,
            hop_limit,
            values,
            first_succ,
            fingers,
            succs,
            succ_offsets,
        }
    }

    /// True if every alive node's successor, predecessor and fingers match
    /// ground truth — the post-condition of successful maintenance.
    pub fn is_fully_stabilized(&self) -> bool {
        let ids = self.node_ids();
        if ids.is_empty() {
            return true;
        }
        for (pos, &id) in ids.iter().enumerate() {
            let node = &self.nodes[&id.value()];
            let true_succ = ids[(pos + 1) % ids.len()];
            if ids.len() > 1 && self.first_alive_successor(node) != true_succ {
                return false;
            }
            let true_pred = ids[(pos + ids.len() - 1) % ids.len()];
            if ids.len() > 1 && node.predecessor() != Some(true_pred) {
                return false;
            }
            for k in 0..self.space.bits() as usize {
                let target = id.add_power_of_two(k as u32);
                let owner = self.owner_of(target.value()).expect("non-empty");
                if node.fingers()[k] != owner {
                    return false;
                }
            }
        }
        true
    }
}

impl fmt::Debug for SimNet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimNet")
            .field("space", &self.space)
            .field("nodes", &self.nodes.len())
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
        let mut net = SimNet::with_random_nodes(space(), n, &mut rng);
        net.build_stable();
        net
    }

    #[test]
    fn owner_of_matches_sorted_order() {
        let mut net = SimNet::new(space());
        for v in [100u64, 200, 300] {
            net.add_node(ChordId::new(v, space()));
        }
        assert_eq!(net.owner_of(150).unwrap().value(), 200);
        assert_eq!(net.owner_of(200).unwrap().value(), 200);
        assert_eq!(net.owner_of(301).unwrap().value(), 100); // wraps
        assert_eq!(net.owner_of(50).unwrap().value(), 100);
    }

    #[test]
    fn predecessor_of_matches_sorted_order() {
        let mut net = SimNet::new(space());
        for v in [100u64, 200, 300] {
            net.add_node(ChordId::new(v, space()));
        }
        assert_eq!(net.predecessor_of(150).unwrap().value(), 100);
        assert_eq!(net.predecessor_of(100).unwrap().value(), 300); // wraps
    }

    #[test]
    fn empty_ring_owner_is_none() {
        let net = SimNet::new(space());
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
        let mut net = SimNet::new(space());
        let id = ChordId::new(42, space());
        net.add_node(id);
        net.build_stable();
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

    #[test]
    fn duplicate_add_rejected() {
        let mut net = SimNet::new(space());
        let id = ChordId::new(1, space());
        assert!(net.add_node(id));
        assert!(!net.add_node(id));
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
        let rounds = net.stabilize_until_converged(64);
        assert!(rounds < 64, "did not converge");
        assert!(net.is_fully_stabilized());
        assert_eq!(net.alive_count(), 30);
    }

    #[test]
    fn joins_route_correctly_after_convergence() {
        let mut net = stable_net(20, 10);
        let bootstrap = net.node_ids()[0];
        net.join(ChordId::new(0xBEEF, space()), bootstrap);
        net.stabilize_until_converged(64);
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
        net.stabilize_until_converged(64);
        assert!(net.is_fully_stabilized());
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
    fn routing_survives_failures_even_before_stabilization() {
        // Successor lists give immediate fault tolerance: kill nodes and
        // look up *without* running maintenance; owners must still be
        // alive nodes (possibly not the exact ground-truth successor for
        // keys owned by the dead node's range — but never a dead one).
        let mut net = stable_net(64, 13);
        let ids = net.node_ids();
        for &id in ids.iter().take(5) {
            net.fail(id);
        }
        let starts = net.node_ids();
        let mut rng = DetRng::new(14);
        for _ in 0..200 {
            let h = rng.next_u64() & space().mask();
            let start = starts[rng.uniform_index(starts.len())];
            let r = net.find_successor(start, h);
            assert!(net.is_alive(r.owner), "routed to a dead node");
        }
    }

    #[test]
    fn mass_failure_recovery() {
        let mut net = stable_net(40, 15);
        let ids = net.node_ids();
        for &id in ids.iter().take(20) {
            net.fail(id);
        }
        net.stabilize_until_converged(128);
        assert!(net.is_fully_stabilized());
        assert_eq!(net.alive_count(), 20);
    }

    #[test]
    fn join_seeds_fingers_from_successor() {
        // A freshly joined node must route at full Chord efficiency
        // *before* any fix_fingers_round: its fingers were seeded from its
        // successor at join time, so no lookup degenerates into a
        // successor walk around the 256-node ring.
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
        net.stabilize_until_converged(64);
        assert!(net.is_fully_stabilized());
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
        let succs = net.alive_successors(id, 3);
        assert_eq!(succs, vec![ids[5], ids[6], ids[7]]);
        // Kill the immediate successor: it drops out, the list extends.
        net.fail(ids[5]);
        let succs = net.alive_successors(id, 3);
        assert_eq!(succs, vec![ids[6], ids[7], ids[8]]);
        // r = 0 asks for nothing and gets nothing.
        assert!(net.alive_successors(id, 0).is_empty());
        // Small rings cap the list; unknown nodes get nothing.
        let mut tiny = stable_net(2, 30);
        let a = tiny.node_ids()[0];
        assert_eq!(tiny.alive_successors(a, 4).len(), 1);
        tiny.fail(tiny.node_ids()[1]);
        assert!(tiny.alive_successors(a, 4).is_empty());
    }

    #[test]
    fn remove_failed_garbage_collects() {
        let mut net = stable_net(10, 16);
        let victim = net.node_ids()[0];
        net.fail(victim);
        net.remove_failed();
        assert_eq!(net.alive_count(), 9);
        assert!(net.node(victim).is_none());
    }

    #[test]
    fn build_stable_matches_maintenance_protocol() {
        // Starting from solitary nodes, pure maintenance must reach the
        // same state build_stable computes directly.
        let mut rng = DetRng::new(17);
        let net = SimNet::with_random_nodes(space(), 12, &mut rng);
        let ids = net.node_ids();
        // Build a second ring by joining everyone through ids[0].
        let mut net2 = SimNet::new(space());
        net2.add_node(ids[0]);
        for &id in &ids[1..] {
            net2.join(id, ids[0]);
            net2.stabilize_until_converged(32);
        }
        assert!(net2.is_fully_stabilized());
    }

    #[test]
    fn route_with_path_matches_route() {
        let net = stable_net(128, 25);
        let starts = net.node_ids();
        let mut rng = DetRng::new(26);
        for _ in 0..500 {
            let h = rng.next_u64() & space().mask();
            let start = starts[rng.uniform_index(starts.len())];
            let plain = net.route(start, h);
            let (routed, path) = net.route_with_path(start, h);
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
    fn find_successor_path_records_stats() {
        let mut net = stable_net(32, 27);
        let start = net.node_ids()[0];
        let (r, path) = net.find_successor_path(start, 0x1234);
        assert_eq!(net.stats().lookups, 1);
        assert_eq!(net.stats().total_hops, u64::from(r.hops));
        assert_eq!(path.len(), r.hops as usize);
    }

    #[test]
    fn stats_accumulate_and_reset() {
        let mut net = stable_net(32, 18);
        let start = net.node_ids()[0];
        net.find_successor(start, 1);
        net.find_successor(start, 2);
        assert_eq!(net.stats().lookups, 2);
        net.reset_stats();
        assert_eq!(net.stats().lookups, 0);
        assert_eq!(net.stats().mean_hops(), 0.0);
    }

    #[test]
    #[should_panic(expected = "alive node")]
    fn lookup_from_dead_node_panics() {
        let mut net = stable_net(5, 19);
        let id = net.node_ids()[0];
        net.fail(id);
        net.route(id, 1);
    }

    /// Asserts both nets hold identical per-node routing state (fingers,
    /// successor lists, predecessors) for every node, alive or dead.
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

    /// `stabilize_direct` must land on exactly the state the round-based
    /// maintenance protocol converges to — across ring sizes, fresh
    /// joins, graceful departures and unrepaired failures.
    #[test]
    fn stabilize_direct_matches_converged_protocol() {
        for (n, seed) in [(1usize, 40u64), (2, 41), (3, 42), (9, 43), (64, 44)] {
            let mut rng = DetRng::new(seed);
            let proto = SimNet::with_random_nodes(space(), n, &mut rng);
            let mut direct = SimNet::new(space());
            for id in proto.node_ids() {
                direct.add_node(id);
            }
            let mut proto = proto;
            // Perturb both identically: joins, a departure, failures.
            let bootstrap_pool = proto.node_ids();
            let bootstrap = bootstrap_pool[0];
            proto.build_stable();
            direct.build_stable();
            for j in 0..3u64 {
                let id = ChordId::new(rng.next_u64().wrapping_add(j), space());
                proto.join(id, bootstrap);
                direct.join(id, bootstrap);
            }
            if n > 4 {
                let leaver = proto.node_ids()[2];
                proto.remove_node(leaver);
                direct.remove_node(leaver);
                let victim = proto.node_ids()[4];
                proto.fail(victim);
                direct.fail(victim);
            }
            let rounds = proto.stabilize_until_converged(256);
            assert!(rounds < 256, "protocol did not converge");
            direct.stabilize_direct();
            assert_same_routing_state(&proto, &direct, &format!("n={n}"));
            assert!(direct.is_fully_stabilized());
        }
    }

    #[test]
    fn stabilize_direct_matches_protocol_after_mass_failure() {
        let mut rng = DetRng::new(55);
        let mut proto = SimNet::with_random_nodes(space(), 40, &mut rng);
        proto.build_stable();
        let mut direct = SimNet::new(space());
        for id in proto.node_ids() {
            direct.add_node(id);
        }
        direct.build_stable();
        let ids = proto.node_ids();
        for &id in ids.iter().take(20) {
            proto.fail(id);
            direct.fail(id);
        }
        proto.stabilize_until_converged(256);
        direct.stabilize_direct();
        assert_same_routing_state(&proto, &direct, "mass failure");
        // Dead nodes keep stale state in both worlds.
        for &id in ids.iter().take(20) {
            assert!(proto.node(id).is_some() && direct.node(id).is_some());
        }
    }

    #[test]
    fn stabilize_direct_reports_one_round_and_routes_correctly() {
        let mut net = stable_net(30, 60);
        let bootstrap = net.node_ids()[0];
        net.join(ChordId::new(0xABCD, space()), bootstrap);
        assert_eq!(net.stabilize_direct(), 1);
        assert!(net.is_fully_stabilized());
        let starts = net.node_ids();
        let mut rng = DetRng::new(61);
        for _ in 0..200 {
            let h = rng.next_u64() & space().mask();
            let start = starts[rng.uniform_index(starts.len())];
            assert_eq!(Some(net.route(start, h).owner), net.owner_of(h));
        }
    }
}
