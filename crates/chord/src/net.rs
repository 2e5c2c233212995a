//! The in-process Chord network: routing over tables that every
//! membership call leaves at the maintenance fixpoint.

use std::collections::BTreeMap;
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

/// One table entry — a finger, a successor-list slot, a ring position:
/// the id it names and the arena row holding that id. Alive rows only
/// ever name alive nodes, so the row makes a hop an array index.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Entry {
    pub(crate) id: u64,
    pub(crate) row: u32,
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

/// A simulated Chord ring.
///
/// All nodes live in one process; "messages" are method calls with hop
/// counting. Between any two public calls every alive node holds the
/// state Chord's maintenance protocol (stabilize + fix fingers)
/// converges to: construction installs it, and [`SimNet::join`],
/// [`SimNet::fail`] and [`SimNet::remove_node`] each repair the
/// neighbourhood they changed before returning
/// ([`SimNet::is_converged`]). The round-based protocol itself lives on
/// as the independent model in this crate's tests that the fixpoint is
/// pinned against. A crashed node keeps its last tables for inspection;
/// nothing routes through them.
///
/// Layout. Every node's tables are one row of a dense arena: `M` finger
/// entries in `fingers`, [`SUCCESSOR_LIST_LEN`] successor slots in
/// `succs`, its id and predecessor in `ids` / `preds`. A crash moves the
/// row from `ring` to `corpses`, a departure returns it to `free`, and a
/// join takes a row from there. `ring` lists the alive nodes in id
/// order; ground truth ([`SimNet::owner_of`], [`SimNet::random_alive`],
/// the fixpoint itself) is an index or a binary search into it.
pub struct SimNet {
    space: HashSpace,
    stats: NetStats,
    /// Alive nodes in ring order, each with its row.
    ring: Vec<Entry>,
    /// Crashed nodes (id → row): the row keeps the corpse's last tables.
    corpses: BTreeMap<u64, u32>,
    /// Rows of removed nodes, reused last-freed-first.
    free: Vec<u32>,
    ids: Vec<u64>,
    preds: Vec<Option<u64>>,
    /// `space.bits()` entries per row; entry `k` routes toward `id + 2^k`.
    fingers: Vec<Entry>,
    /// [`SUCCESSOR_LIST_LEN`] slots per row, the first `succ_lens[row]`
    /// in use.
    succs: Vec<Entry>,
    succ_lens: Vec<u32>,
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

    /// Creates a ring with `n` distinct random node identifiers, every
    /// node's tables at the maintenance fixpoint.
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

    /// A converged ring of the distinct identifiers `ids`, in any order;
    /// row `i` holds the `i`-th smallest.
    pub(crate) fn from_ids(space: HashSpace, mut ids: Vec<u64>) -> Self {
        ids.sort_unstable();
        debug_assert!(ids.windows(2).all(|w| w[0] < w[1]), "ids must be distinct");
        debug_assert!(ids.last().is_none_or(|&id| id <= space.mask()));
        let n = ids.len();
        let ring = ids
            .iter()
            .enumerate()
            .map(|(row, &id)| Entry {
                id,
                row: row as u32,
            })
            .collect();
        let mut net = SimNet {
            space,
            stats: NetStats::default(),
            ring,
            corpses: BTreeMap::new(),
            free: Vec::new(),
            ids,
            preds: vec![None; n],
            fingers: vec![Entry::default(); n * space.bits() as usize],
            succs: vec![Entry::default(); n * SUCCESSOR_LIST_LEN],
            succ_lens: vec![0; n],
        };
        net.install_tables();
        net
    }

    /// The ring's hash space.
    pub fn space(&self) -> HashSpace {
        self.space
    }

    fn bits(&self) -> usize {
        self.space.bits() as usize
    }

    pub(crate) fn id(&self, value: u64) -> ChordId {
        ChordId::new(value, self.space)
    }

    /// `id`'s position in `ring`, or where it would be inserted.
    fn ring_pos(&self, id: u64) -> Result<usize, usize> {
        self.ring.binary_search_by_key(&id, |e| e.id)
    }

    /// The row holding `id`'s tables, alive or crashed.
    fn row_of(&self, id: u64) -> Option<usize> {
        match self.ring_pos(id) {
            Ok(pos) => Some(self.ring[pos].row as usize),
            Err(_) => self.corpses.get(&id).map(|&row| row as usize),
        }
    }

    pub(crate) fn fingers_of(&self, row: usize) -> &[Entry] {
        let m = self.bits();
        &self.fingers[row * m..(row + 1) * m]
    }

    pub(crate) fn succs_of(&self, row: usize) -> &[Entry] {
        &self.succs[row * SUCCESSOR_LIST_LEN..][..self.succ_lens[row] as usize]
    }

    /// Replaces a row's successor list.
    ///
    /// # Panics
    ///
    /// Panics if `list` is empty — a node always knows at least one
    /// successor (possibly itself).
    pub(crate) fn set_succs(&mut self, row: usize, list: &[Entry]) {
        assert!(!list.is_empty(), "successor list must be non-empty");
        self.succs[row * SUCCESSOR_LIST_LEN..][..list.len()].copy_from_slice(list);
        self.succ_lens[row] = list.len() as u32;
    }

    pub(crate) fn row_id(&self, row: usize) -> ChordId {
        self.id(self.ids[row])
    }

    pub(crate) fn row_pred(&self, row: usize) -> Option<ChordId> {
        self.preds[row].map(|p| self.id(p))
    }

    /// Number of alive nodes.
    pub fn alive_count(&self) -> usize {
        self.ring.len()
    }

    /// Identifiers of all alive nodes, in ring order.
    pub fn node_ids(&self) -> Vec<ChordId> {
        self.ring.iter().map(|e| self.id(e.id)).collect()
    }

    /// A view of a node's state (alive or crashed).
    pub fn node(&self, id: ChordId) -> Option<ChordNode<'_>> {
        self.row_of(id.value()).map(|row| ChordNode::new(self, row))
    }

    /// True if `id` names an alive node.
    pub fn is_alive(&self, id: ChordId) -> bool {
        self.ring_pos(id.value()).is_ok()
    }

    /// A uniformly random alive node (for client entry points).
    ///
    /// # Panics
    ///
    /// Panics if the ring has no alive nodes.
    pub fn random_alive(&self, rng: &mut DetRng) -> ChordId {
        assert!(!self.ring.is_empty(), "ring has no alive nodes");
        self.id(self.ring[rng.uniform_index(self.ring.len())].id)
    }

    /// The ring entry owning `h`: the first alive id at or after it,
    /// wrapping.
    fn owner_entry(&self, h: u64) -> Entry {
        let i = self.ring.partition_point(|e| e.id < h);
        self.ring[if i == self.ring.len() { 0 } else { i }]
    }

    /// Ground truth: the alive node owning hash `h` (its ring successor),
    /// or `None` on an empty ring. A binary search; used for bootstrap
    /// and validation, not by the routed protocol.
    pub fn owner_of(&self, h: u64) -> Option<ChordId> {
        (!self.ring.is_empty()).then(|| self.id(self.owner_entry(h & self.space.mask()).id))
    }

    /// Ground truth: the alive node strictly preceding `h` on the ring.
    pub fn predecessor_of(&self, h: u64) -> Option<ChordId> {
        let h = h & self.space.mask();
        let n = self.ring.len();
        let i = self.ring.partition_point(|e| e.id < h);
        (n > 0).then(|| self.id(self.ring[(i + n - 1) % n].id))
    }

    /// No-op: the tables are always converged. Kept only because
    /// `clash-benchmark/src/micro.rs` calls it; the next
    /// `benchmark`-archetype PR drops the call and this method.
    pub fn build_stable(&mut self) {}

    /// No-op returning 1, the maintenance round count it used to report:
    /// every membership call repairs its own neighbourhood. Kept only
    /// because `clash-benchmark/src/micro.rs` calls it; the next
    /// `benchmark`-archetype PR drops the call and this method.
    pub fn stabilize_direct(&mut self) -> usize {
        1
    }

    /// Ground truth for the node at ring position `pos`: entry `k` of
    /// its successor list.
    fn true_succ(&self, pos: usize, k: usize) -> Entry {
        self.ring[(pos + 1 + k) % self.ring.len()]
    }

    /// Ground truth for the node at ring position `pos`: its predecessor
    /// (none on a one-node ring).
    fn true_pred(&self, pos: usize) -> Option<u64> {
        let n = self.ring.len();
        (n > 1).then(|| self.ring[(pos + n - 1) % n].id)
    }

    /// Ground truth for the node at ring position `pos`: finger `k`.
    fn true_finger(&self, pos: usize, k: usize) -> Entry {
        let start = self.ring[pos].id.wrapping_add(1u64 << k) & self.space.mask();
        self.owner_entry(start)
    }

    /// Writes the first `r` ground-truth successors of the node at ring
    /// position `pos` as its successor list.
    fn set_true_succs(&mut self, pos: usize, r: usize) {
        let list: [Entry; SUCCESSOR_LIST_LEN] = std::array::from_fn(|k| self.true_succ(pos, k));
        self.set_succs(self.ring[pos].row as usize, &list[..r]);
    }

    /// Successor-list length at the maintenance fixpoint: the list never
    /// reaches its own node, except `[self]` on a one-node ring.
    fn fixpoint_list_len(&self) -> usize {
        SUCCESSOR_LIST_LEN
            .min(self.ring.len().saturating_sub(1))
            .max(1)
    }

    /// Writes every alive node's fixpoint tables into its row, in O(S·M)
    /// time.
    ///
    /// Finger `k`'s owner is found by a cursor swept along `ring` rather
    /// than a search per entry ([`SimNet::true_finger`]): the targets
    /// `id + 2^k` rise with the node's ring position and wrap past zero
    /// at most once, where the cursor restarts from the first node. Each
    /// cursor is `ring`'s first position at or after its current target,
    /// `ring.len()` standing for the wrap to position 0.
    fn install_tables(&mut self) {
        let r = self.fixpoint_list_len();
        let (m, n, mask) = (self.bits(), self.ring.len(), self.space.mask());
        let mut cursors = vec![(0usize, false); m];
        for pos in 0..n {
            let Entry { id, row } = self.ring[pos];
            let row = row as usize;
            self.set_true_succs(pos, r);
            self.preds[row] = self.true_pred(pos);
            for (k, (at, wrapped)) in cursors.iter_mut().enumerate() {
                let start = id.wrapping_add(1u64 << k) & mask;
                if start < id && !*wrapped {
                    *wrapped = true;
                    *at = 0;
                }
                while *at < n && self.ring[*at].id < start {
                    *at += 1;
                }
                self.fingers[row * m + k] = self.ring[if *at == n { 0 } else { *at }];
            }
        }
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
        self.route_visit(start, h, |_, _| ())
    }

    /// [`SimNet::route`], additionally writing the per-hop path into
    /// `path` (cleared first) as `(from, to)` pairs — one pair per
    /// inter-node message — so callers can charge each hop its own link
    /// cost (latency, loss) through a transport without a `Vec` per
    /// lookup. `path.len()` always equals the returned hop count.
    pub fn route_path(
        &self,
        start: ChordId,
        h: u64,
        path: &mut Vec<(ChordId, ChordId)>,
    ) -> LookupResult {
        path.clear();
        let result = self.route_visit(start, h, |from, to| path.push((from, to)));
        debug_assert_eq!(path.len(), result.hops as usize);
        result
    }

    /// The routing engine — the only hop loop there is: `visit(from, to)`
    /// fires once per inter-node hop, in order.
    fn route_visit<F: FnMut(ChordId, ChordId)>(
        &self,
        start: ChordId,
        h: u64,
        mut visit: F,
    ) -> LookupResult {
        let Ok(start_pos) = self.ring_pos(start.value()) else {
            panic!("lookup must start at an alive node, not {start:?}");
        };
        let mask = self.space.mask();
        let target = h & mask;
        let hop_limit = 4 * self.space.bits() + self.ring.len() as u32 + 8;
        let done = |owner: Entry, hops: u32| LookupResult {
            owner: self.id(owner.id),
            hops,
        };
        let mut current = self.ring[start_pos];
        let mut hops = 0u32;
        loop {
            let row = current.row as usize;
            let succ = self.succs[row * SUCCESSOR_LIST_LEN];
            // At the target — or alone on the ring, owning everything.
            if target == current.id || succ.id == current.id {
                return done(current, hops);
            }
            if in_half_open(target, current.id, succ.id, mask) {
                visit(self.id(current.id), self.id(succ.id));
                return done(succ, hops + 1);
            }
            // Closest preceding node: the farthest finger strictly
            // between here and the target. One always exists — finger 0
            // is the successor, which precedes the target.
            let next = *self
                .fingers_of(row)
                .iter()
                .rev()
                .find(|f| in_open(f.id, current.id, target, mask))
                .expect("finger 0 is the successor");
            visit(self.id(current.id), self.id(next.id));
            current = next;
            hops += 1;
            assert!(
                hops <= hop_limit,
                "routing cycle: {start:?} -> {h:#x} exceeded {hop_limit} hops"
            );
        }
    }

    /// The first `r` ring successors of the alive node `id`, nearest
    /// first: its successor list — the replica set CLASH's
    /// successor-list replication places key-group state on. Returns at
    /// most [`SUCCESSOR_LIST_LEN`] ids, fewer on rings of at most that
    /// many nodes, and nothing for `r = 0` or an id that is not alive.
    pub fn alive_successors(&self, id: ChordId, r: usize) -> Vec<ChordId> {
        let Ok(pos) = self.ring_pos(id.value()) else {
            return Vec::new();
        };
        let list = self.succs_of(self.ring[pos].row as usize);
        // A one-node ring's list is the node itself.
        let others = list.iter().filter(|s| s.id != id.value());
        others.take(r).map(|s| self.id(s.id)).collect()
    }

    /// Routed lookup with statistics recording — the `Map()` operation
    /// CLASH builds on (§4 of the paper).
    pub fn find_successor(&mut self, start: ChordId, h: u64) -> LookupResult {
        let result = self.route(start, h);
        self.record_routed_lookup(result.hops);
        result
    }

    /// [`SimNet::find_successor`] writing the per-hop path into `path`
    /// (see [`SimNet::route_path`]). Statistics are recorded identically.
    pub fn find_successor_path(
        &mut self,
        start: ChordId,
        h: u64,
        path: &mut Vec<(ChordId, ChordId)>,
    ) -> LookupResult {
        let result = self.route_path(start, h, path);
        self.record_routed_lookup(result.hops);
        result
    }

    /// Records the statistics of one lookup that was already routed by
    /// [`SimNet::route_path`] — the locate flush routes its probes
    /// purely and replays the accounting here in plan order, so
    /// [`SimNet::stats`] is bit-for-bit what a
    /// [`SimNet::find_successor_path`] call per probe would have left.
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

    /// Joins a new node through `bootstrap`. The join protocol's lookups
    /// are routed on the ring as it stands: one for the new identifier
    /// from `bootstrap`, which finds its successor, then one per finger
    /// `new_id + 2^k`, routed from that successor, to seed its finger
    /// table. The new node's tables, and every entry its arrival
    /// changed, are then repaired to the fixpoint.
    ///
    /// Returns the total inter-node messages those lookups spent, or
    /// `None` if the identifier is already taken (by an alive or a
    /// crashed node).
    ///
    /// # Panics
    ///
    /// Panics if `bootstrap` is not alive.
    pub fn join(&mut self, new_id: ChordId, bootstrap: ChordId) -> Option<u32> {
        assert!(self.is_alive(bootstrap), "bootstrap node must be alive");
        debug_assert_eq!(new_id.space(), self.space);
        let value = new_id.value();
        if self.row_of(value).is_some() {
            return None;
        }
        let lookup = self.route(bootstrap, value);
        let mut messages = lookup.hops;
        for k in 0..self.space.bits() {
            let target = new_id.add_power_of_two(k).value();
            messages = messages.saturating_add(self.route(lookup.owner, target).hops);
        }
        let row = self.free.pop().unwrap_or_else(|| {
            self.ids.push(0);
            self.preds.push(None);
            self.succ_lens.push(0);
            let m = self.bits();
            self.fingers
                .resize(self.fingers.len() + m, Entry::default());
            self.succs
                .resize(self.succs.len() + SUCCESSOR_LIST_LEN, Entry::default());
            (self.ids.len() - 1) as u32
        });
        self.ids[row as usize] = value;
        let pos = self.ring_pos(value).expect_err("id checked free");
        self.ring.insert(pos, Entry { id: value, row });
        self.repair(value, true);
        Some(messages)
    }

    /// Marks a node failed (crash model: no goodbye messages). Its row
    /// keeps its last tables; every alive entry that named it is
    /// repaired.
    ///
    /// Returns false if the node was missing or already dead.
    pub fn fail(&mut self, id: ChordId) -> bool {
        let Ok(pos) = self.ring_pos(id.value()) else {
            return false;
        };
        let e = self.ring.remove(pos);
        self.corpses.insert(e.id, e.row);
        self.repair(e.id, false);
        true
    }

    /// Removes a node's state entirely — the graceful-departure model: the
    /// node announced, handed its keys off, and left, so no corpse remains
    /// (contrast with [`SimNet::fail`]); every alive entry that named it
    /// is repaired. Removing a crashed node collects its corpse. Returns
    /// false if the id is unknown.
    pub fn remove_node(&mut self, id: ChordId) -> bool {
        let value = id.value();
        let row = match self.ring_pos(value) {
            Ok(pos) => {
                let row = self.ring.remove(pos).row;
                self.repair(value, false);
                row
            }
            Err(_) => match self.corpses.remove(&value) {
                Some(row) => row,
                None => return false,
            },
        };
        self.free.push(row);
        true
    }

    /// Restores the fixpoint after `at` joined, or stopped being alive:
    /// [`SimNet::repair_around`] when at least `r + 2` nodes are alive,
    /// else the whole-ring install (successor lists shorter than `r`, or
    /// long enough to reach their own node).
    fn repair(&mut self, at: u64, joined: bool) {
        if self.ring.len() >= SUCCESSOR_LIST_LEN + 2 {
            self.repair_around(at, joined);
        } else {
            self.install_tables();
        }
        debug_assert!(self.is_converged(), "membership repair left stale tables");
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
    /// named above to hold fixpoint tables already. O(M·log S) search
    /// steps plus the `r²` successor slots and ≈ M fingers that move.
    fn repair_around(&mut self, at: u64, joined: bool) {
        let r = SUCCESSOR_LIST_LEN;
        let (m, n, mask) = (self.bits(), self.ring.len(), self.space.mask());
        // r alive predecessors (ring order), then the r + 1 alive nodes
        // from `at` on: every node whose list changes, followed by every
        // node those lists can name.
        let at_pos = self.ring.partition_point(|e| e.id < at);
        let first = at_pos + n - r;
        let window = |j: usize| (first + j) % n;
        let pred = self.ring[window(r - 1)];
        let owner = self.ring[window(r)];
        debug_assert_eq!(owner.id == at, joined);
        let rewritten = if joined { r + 1 } else { r };
        for j in 0..rewritten {
            self.set_true_succs(window(j), r);
        }
        if joined {
            self.preds[self.ring[window(r + 1)].row as usize] = Some(at);
        }
        self.preds[owner.row as usize] = Some(pred.id);
        for k in 0..m {
            if joined {
                self.fingers[owner.row as usize * m + k] = self.true_finger(window(r), k);
            }
            let step = 1u64 << k;
            let lo = pred.id.wrapping_sub(step) & mask;
            let hi = at.wrapping_sub(step) & mask;
            // (lo, hi] on the ring: one run of `ring`, or two across 0.
            let after_lo = self.ring.partition_point(|e| e.id <= lo);
            let after_hi = self.ring.partition_point(|e| e.id <= hi);
            let arcs = if lo < hi {
                [after_lo..after_hi, 0..0]
            } else {
                [after_lo..n, 0..after_hi]
            };
            for e in arcs.into_iter().flat_map(|arc| &self.ring[arc]) {
                self.fingers[e.row as usize * m + k] = owner;
            }
        }
    }

    /// True if every alive node's successor list, predecessor and
    /// fingers are the maintenance fixpoint, checked entry by entry
    /// against the sorted alive ids. Holds between any two public calls;
    /// debug builds assert it after every membership call.
    pub fn is_converged(&self) -> bool {
        let r = self.fixpoint_list_len();
        (0..self.ring.len()).all(|pos| {
            let row = self.ring[pos].row as usize;
            self.succs_of(row)
                .iter()
                .copied()
                .eq((0..r).map(|k| self.true_succ(pos, k)))
                && self.preds[row] == self.true_pred(pos)
                && self
                    .fingers_of(row)
                    .iter()
                    .enumerate()
                    .all(|(k, &f)| f == self.true_finger(pos, k))
        })
    }

    /// The live rows behind [`RouteSnapshot`]'s old interface. Kept only
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
            .field("nodes", &(self.ring.len() + self.corpses.len()))
            .field("alive", &self.alive_count())
            .field("stats", &self.stats)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    fn space() -> HashSpace {
        HashSpace::new(16).unwrap()
    }

    fn stable_net(n: usize, seed: u64) -> SimNet {
        let mut rng = DetRng::new(seed);
        SimNet::with_random_nodes(space(), n, &mut rng)
    }

    /// Asserts every alive row's fingers are what a binary search per
    /// finger ([`SimNet::true_finger`]) gives.
    fn assert_fingers_are_ground_truth(net: &SimNet) {
        for (pos, e) in net.ring.iter().enumerate() {
            for (k, &f) in net.fingers_of(e.row as usize).iter().enumerate() {
                assert_eq!(f, net.true_finger(pos, k), "node {} finger {k}", e.id);
            }
        }
    }

    proptest! {
        /// The finger sweep of `install_tables` against a search per
        /// finger, on random rings of 1–300 nodes (up to all 256 ids of
        /// the 8-bit space). Each ring's upper nodes have fingers that
        /// wrap past zero.
        #[test]
        fn finger_sweep_matches_true_finger(
            wide in any::<bool>(),
            n in 1usize..=300,
            seed in any::<u64>(),
        ) {
            let space = HashSpace::new(if wide { 24 } else { 8 }).unwrap();
            let n = n.min(space.size() as usize);
            let net = SimNet::with_random_nodes(space, n, &mut DetRng::new(seed));
            assert_fingers_are_ground_truth(&net);
        }
    }

    #[test]
    fn finger_sweep_covers_edge_rings() {
        let eight = HashSpace::new(8).unwrap();
        let ring = |space: HashSpace, ids: &[u64]| {
            let net = SimNet::from_ids(space, ids.to_vec());
            assert_fingers_are_ground_truth(&net);
            net
        };
        // One node: every finger names itself.
        for space in [eight, HashSpace::new(24).unwrap()] {
            let net = ring(space, &[5]);
            assert!(net.fingers_of(0).iter().all(|f| f.id == 5));
        }
        // Every id taken: finger k of `id` is `id + 2^k`, wrapping.
        let all: Vec<u64> = (0..256).collect();
        let net = ring(eight, &all);
        for (pos, e) in net.ring.iter().enumerate() {
            for (k, f) in net.fingers_of(e.row as usize).iter().enumerate() {
                assert_eq!(f.id, (pos as u64 + (1 << k)) % 256);
            }
        }
        // Nodes bunched at the top of the space, one past zero.
        let net = ring(eight, &[250, 253, 255, 3]);
        let top = net.ring_pos(253).unwrap();
        let fingers: Vec<u64> = net
            .fingers_of(net.ring[top].row as usize)
            .iter()
            .map(|f| f.id)
            .collect();
        assert_eq!(fingers, [255, 255, 3, 250, 250, 250, 250, 250]);
    }

    #[test]
    fn owner_of_matches_sorted_order() {
        let net = SimNet::from_ids(space(), vec![300, 100, 200]);
        assert_eq!(net.owner_of(150).unwrap().value(), 200);
        assert_eq!(net.owner_of(200).unwrap().value(), 200);
        assert_eq!(net.owner_of(301).unwrap().value(), 100); // wraps
        assert_eq!(net.owner_of(50).unwrap().value(), 100);
    }

    #[test]
    fn predecessor_of_matches_sorted_order() {
        let net = SimNet::from_ids(space(), vec![100, 200, 300]);
        assert_eq!(net.predecessor_of(150).unwrap().value(), 100);
        assert_eq!(net.predecessor_of(100).unwrap().value(), 300); // wraps
    }

    #[test]
    fn empty_ring_owner_is_none() {
        let net = SimNet::from_ids(space(), Vec::new());
        assert_eq!(net.owner_of(1), None);
        assert!(net.is_converged());
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
            assert!(net.is_converged());
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
        assert!(net.is_converged());
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
        assert!(net.is_converged());
        assert_eq!(net.alive_count(), 20);
        // Corpses keep their last tables for inspection.
        assert!(ids.iter().take(20).all(|&id| net.node(id).is_some()));
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
        assert!(net.is_converged());
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

    /// A ring grown one join at a time from a single node — whole-ring
    /// installs while it is small, neighbourhood repairs once it holds
    /// `r + 2` nodes — ends in exactly the tables construction installs.
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

    /// `is_converged` is a real check, not a constant: one stale finger
    /// breaks it.
    #[test]
    fn is_converged_detects_a_stale_finger() {
        let mut net = stable_net(16, 32);
        assert!(net.is_converged());
        let m = net.bits();
        // On a ring of more than one node no finger names its own node.
        let me = net.ring[3];
        net.fingers[me.row as usize * m + m - 1] = me;
        assert!(!net.is_converged());
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
    fn find_successor_path_records_stats() {
        let mut net = stable_net(32, 27);
        let start = net.node_ids()[0];
        let mut path = Vec::new();
        let r = net.find_successor_path(start, 0x1234, &mut path);
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

    #[test]
    fn stabilize_direct_reports_one_round_and_routes_correctly() {
        let mut net = stable_net(30, 60);
        let bootstrap = net.node_ids()[0];
        net.join(ChordId::new(0xABCD, space()), bootstrap);
        assert_eq!(net.stabilize_direct(), 1);
        assert!(net.is_converged());
        let starts = net.node_ids();
        let mut rng = DetRng::new(61);
        for _ in 0..200 {
            let h = rng.next_u64() & space().mask();
            let start = starts[rng.uniform_index(starts.len())];
            assert_eq!(Some(net.route(start, h).owner), net.owner_of(h));
        }
    }
}
