//! The in-process Chord network: routing, membership and maintenance.

use std::collections::BTreeMap;
use std::fmt;

use clash_keyspace::hash::HashSpace;
use clash_simkernel::collections::DetHashSet;
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

/// One table entry — a finger, a successor-list slot, a ring position:
/// the id it names and the arena row that held that id when the entry
/// was written. The row makes a hop an array index instead of a search;
/// [`SimNet::live`] is the check that it still holds that id.
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
/// counting. Failed nodes keep their (stale) state but are invisible to
/// routing, exactly as a crashed host would be; [`SimNet::stabilize_round`]
/// and [`SimNet::fix_fingers_round`] implement the Chord maintenance
/// protocol that repairs pointers around failures and joins.
///
/// Layout. Every node's tables are one row of a dense arena: `M` finger
/// entries in `fingers`, up to `succ_stride` successor entries in
/// `succs`, its id, liveness byte and predecessor in `ids` / `alive` /
/// `preds`. Membership and maintenance write those rows in place, so
/// routing never consults anything that could be out of date: a crash
/// flips `alive[row]`, a departure also returns the row to `free`, and a
/// join takes a row from there. A stale entry naming a departed id whose
/// row has since been reused fails the usability test's id comparison
/// and is resolved by id instead — unusable unless that id re-joined.
/// `ring` lists the alive nodes in id order; ground truth
/// ([`SimNet::owner_of`], [`SimNet::random_alive`], the fixpoint
/// installer) is an index or a binary search into it.
pub struct SimNet {
    space: HashSpace,
    succ_list_len: usize,
    stats: NetStats,
    /// Alive nodes in ring order, each with its row.
    ring: Vec<Entry>,
    /// Crashed nodes (id → row): the row keeps the corpse's stale tables.
    corpses: BTreeMap<u64, u32>,
    /// Rows of removed nodes, reused last-freed-first.
    free: Vec<u32>,
    ids: Vec<u64>,
    alive: Vec<bool>,
    preds: Vec<Option<u64>>,
    /// `space.bits()` entries per row; entry `k` routes toward `id + 2^k`.
    fingers: Vec<Entry>,
    /// `succ_stride` slots per row, the first `succ_lens[row]` in use.
    succs: Vec<Entry>,
    succ_lens: Vec<u32>,
    /// Only grows: a shorter `succ_list_len` leaves existing lists their
    /// length until maintenance rewrites them.
    succ_stride: usize,
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

// The route phase of a locate flush routes through `&SimNet` and must
// stay pure: no interior mutability (clippy.toml bans `RefCell`/`Cell`
// in this crate), so the borrow checker sees every write.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SimNet>();
};

impl SimNet {
    /// Creates an empty ring over the given hash space with the Chord
    /// default successor-list length (`⌈log₂ expected-nodes⌉` is typical;
    /// we default to 8).
    pub fn new(space: HashSpace) -> Self {
        SimNet {
            space,
            succ_list_len: 8,
            stats: NetStats::default(),
            ring: Vec::new(),
            corpses: BTreeMap::new(),
            free: Vec::new(),
            ids: Vec::new(),
            alive: Vec::new(),
            preds: Vec::new(),
            fingers: Vec::new(),
            succs: Vec::new(),
            succ_lens: Vec::new(),
            succ_stride: 8,
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

    /// Sets the successor-list length (fault-tolerance depth).
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    pub fn set_successor_list_len(&mut self, len: usize) {
        assert!(len > 0, "successor list length must be positive");
        self.succ_list_len = len;
        if len > self.succ_stride {
            let mut succs = vec![Entry::default(); self.ids.len() * len];
            for row in 0..self.ids.len() {
                let list = self.succs_of(row);
                succs[row * len..][..list.len()].copy_from_slice(list);
            }
            self.succs = succs;
            self.succ_stride = len;
        }
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
        let mut seen = DetHashSet::default();
        while seen.len() < n {
            seen.insert(ChordId::new(rng.next_u64(), space).value());
        }
        let mut ids: Vec<u64> = seen.into_iter().collect();
        ids.sort_unstable();
        let mut net = SimNet::new(space);
        net.ring.reserve_exact(n);
        net.ids.reserve_exact(n);
        net.alive.reserve_exact(n);
        net.preds.reserve_exact(n);
        net.succ_lens.reserve_exact(n);
        net.fingers.reserve_exact(n * space.bits() as usize);
        net.succs.reserve_exact(n * net.succ_stride);
        // Ascending ids append to `ring`: no insertion shifts anything.
        for id in ids {
            net.insert_solitary(ChordId::new(id, space));
        }
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

    /// The ring entry of an alive node.
    fn entry_of(&self, id: ChordId) -> Entry {
        let pos = self.ring_pos(id.value()).expect("id names an alive node");
        self.ring[pos]
    }

    pub(crate) fn fingers_of(&self, row: usize) -> &[Entry] {
        let m = self.bits();
        &self.fingers[row * m..(row + 1) * m]
    }

    pub(crate) fn succs_of(&self, row: usize) -> &[Entry] {
        &self.succs[row * self.succ_stride..][..self.succ_lens[row] as usize]
    }

    /// Replaces a row's successor list.
    ///
    /// # Panics
    ///
    /// Panics if `list` is empty — a node always knows at least one
    /// successor (possibly itself).
    pub(crate) fn set_succs(&mut self, row: usize, list: &[Entry]) {
        assert!(!list.is_empty(), "successor list must be non-empty");
        self.succs[row * self.succ_stride..][..list.len()].copy_from_slice(list);
        self.succ_lens[row] = list.len() as u32;
    }

    pub(crate) fn row_id(&self, row: usize) -> ChordId {
        self.id(self.ids[row])
    }

    pub(crate) fn row_alive(&self, row: usize) -> bool {
        self.alive[row]
    }

    pub(crate) fn row_pred(&self, row: usize) -> Option<ChordId> {
        self.preds[row].map(|p| self.id(p))
    }

    /// `e` with its current row if the node it names is alive — the
    /// "usable" test of routing. The row an entry carries still holds
    /// its id unless that node departed and the row was reused; only
    /// then (or for a dead id) is the id searched for.
    #[inline]
    fn live(&self, e: Entry) -> Option<Entry> {
        let row = e.row as usize;
        if self.alive[row] && self.ids[row] == e.id {
            Some(e)
        } else {
            self.ring_pos(e.id).ok().map(|pos| self.ring[pos])
        }
    }

    /// Adds a solitary (unwired) node. Returns false if the identifier is
    /// already taken.
    pub fn add_node(&mut self, id: ChordId) -> bool {
        let added = self.insert_solitary(id).is_some();
        if added {
            self.forget_fixpoint();
        }
        added
    }

    /// Gives `id` a row whose every pointer names `id` itself; `None` if
    /// the identifier is taken, by an alive node or a corpse.
    fn insert_solitary(&mut self, id: ChordId) -> Option<Entry> {
        debug_assert_eq!(id.space(), self.space);
        let value = id.value();
        let pos = self.ring_pos(value).err()?;
        if self.corpses.contains_key(&value) {
            return None;
        }
        let m = self.bits();
        let row = self.free.pop().unwrap_or_else(|| {
            self.ids.push(0);
            self.alive.push(false);
            self.preds.push(None);
            self.succ_lens.push(0);
            self.fingers
                .resize(self.fingers.len() + m, Entry::default());
            self.succs
                .resize(self.succs.len() + self.succ_stride, Entry::default());
            (self.ids.len() - 1) as u32
        });
        let me = Entry { id: value, row };
        let row = row as usize;
        self.ids[row] = value;
        self.alive[row] = true;
        self.preds[row] = None;
        self.fingers[row * m..(row + 1) * m].fill(me);
        self.set_succs(row, &[me]);
        self.ring.insert(pos, me);
        Some(me)
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

    /// Installs exact routing state on every alive node: perfect fingers,
    /// successor lists and predecessors. Equivalent to running the
    /// maintenance protocol to convergence, in O(S·M) time.
    pub fn build_stable(&mut self) {
        self.install_tables(self.succ_list_len.min(self.ring.len()));
        // Rings no larger than the successor-list length get lists
        // padded with `self` here, which the maintenance fixpoint never
        // holds.
        self.forget_fixpoint();
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

    /// Writes every alive node's ground-truth tables, successor lists of
    /// length `r`, into its row, in O(S·M) time.
    ///
    /// Finger `k`'s owner is found by a cursor swept along `ring` rather
    /// than a search per entry ([`SimNet::true_finger`]): the targets
    /// `id + 2^k` rise with the node's ring position and wrap past zero
    /// at most once, where the cursor restarts from the first node. Each
    /// cursor is `ring`'s first position at or after its current target,
    /// `ring.len()` standing for the wrap to position 0.
    fn install_tables(&mut self, r: usize) {
        let (m, n, mask) = (self.bits(), self.ring.len(), self.space.mask());
        let mut cursors = vec![(0usize, false); m];
        for pos in 0..n {
            let Entry { id, row } = self.ring[pos];
            let row = row as usize;
            for k in 0..r {
                self.succs[row * self.succ_stride + k] = self.true_succ(pos, k);
            }
            self.succ_lens[row] = r as u32;
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
    /// Panics if `start` is not an alive node, or if routing degenerates
    /// into a cycle (only possible when maintenance has never run after
    /// severe membership changes).
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
        let hop_limit = 4 * self.space.bits() + (self.ring.len() + self.corpses.len()) as u32 + 8;
        let done = |owner: Entry, hops: u32| LookupResult {
            owner: self.id(owner.id),
            hops,
        };
        let mut current = self.ring[start_pos];
        let mut hops = 0u32;
        loop {
            let row = current.row as usize;
            let succ = self.first_alive_successor(row);
            // At the target — or a solitary (fully isolated) node, which
            // owns everything.
            if target == current.id || succ.id == current.id {
                return done(current, hops);
            }
            if in_half_open(target, current.id, succ.id, mask) {
                visit(self.id(current.id), self.id(succ.id));
                return done(succ, hops + 1);
            }
            // Closest preceding node: the farthest usable finger strictly
            // between here and the target, else the farthest such
            // successor-list entry (closer than any usable finger after
            // failures), else the first alive successor.
            let preceding = |e: &Entry| {
                in_open(e.id, current.id, target, mask)
                    .then(|| self.live(*e))
                    .flatten()
            };
            let next = self
                .fingers_of(row)
                .iter()
                .rev()
                .find_map(preceding)
                .or_else(|| self.succs_of(row).iter().rev().find_map(preceding))
                .unwrap_or(succ);
            visit(self.id(current.id), self.id(next.id));
            current = next;
            hops += 1;
            assert!(
                hops <= hop_limit,
                "routing cycle: {start:?} -> {h:#x} exceeded {hop_limit} hops"
            );
        }
    }

    /// The first alive entry of `row`'s successor list (the node itself
    /// when none is).
    fn first_alive_successor(&self, row: usize) -> Entry {
        self.succs_of(row)
            .iter()
            .find_map(|&s| self.live(s))
            .unwrap_or(Entry {
                id: self.ids[row],
                row: row as u32,
            })
    }

    /// The first `r` distinct *alive* ring successors of `id`, in
    /// successor-list order (nearest first), excluding `id` itself. This
    /// is the node's own routing state — the replica set CLASH's
    /// successor-list replication places key-group state on — so it can
    /// lag ground truth between maintenance rounds, exactly as a real
    /// deployment's would. Returns fewer than `r` entries on small rings
    /// and an empty vector for unknown nodes.
    pub fn alive_successors(&self, id: ChordId, r: usize) -> Vec<ChordId> {
        let Some(row) = self.row_of(id.value()).filter(|_| r > 0) else {
            return Vec::new();
        };
        let mut out: Vec<ChordId> = Vec::with_capacity(r);
        for &s in self.succs_of(row) {
            let alive = self.live(s).is_some();
            let s = self.id(s.id);
            if s != id && alive && !out.contains(&s) {
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
        let row = self.insert_solitary(new_id)?.row as usize;
        self.joined.push(new_id);
        let lookup = self.route(bootstrap, new_id.value());
        let succ = self.entry_of(lookup.owner);
        let mut messages = lookup.hops;
        // Seeded while the new row is still solitary, written after.
        let mut fingers = Vec::with_capacity(self.bits());
        for k in 0..self.space.bits() {
            let target = new_id.add_power_of_two(k);
            let r = self.route(lookup.owner, target.value());
            fingers.push(self.entry_of(r.owner));
            messages = messages.saturating_add(r.hops);
        }
        let mut succ_list = vec![succ];
        succ_list.extend(
            self.succs_of(succ.row as usize)
                .iter()
                .filter(|s| s.id != new_id.value() && s.id != succ.id)
                .filter_map(|&s| self.live(s)),
        );
        succ_list.truncate(self.succ_list_len);
        let m = self.bits();
        self.set_succs(row, &succ_list);
        self.preds[row] = None;
        self.fingers[row * m..(row + 1) * m].copy_from_slice(&fingers);
        Some(messages)
    }

    /// Takes `ring[pos]` out of the alive set.
    fn unlist(&mut self, pos: usize) -> Entry {
        let e = self.ring.remove(pos);
        self.alive[e.row as usize] = false;
        self.removed.push(self.id(e.id));
        e
    }

    /// Marks a node failed (crash model: no goodbye messages).
    ///
    /// Returns false if the node was missing or already dead.
    pub fn fail(&mut self, id: ChordId) -> bool {
        let Ok(pos) = self.ring_pos(id.value()) else {
            return false;
        };
        let e = self.unlist(pos);
        self.corpses.insert(e.id, e.row);
        true
    }

    /// Removes failed nodes' state entirely (garbage collection).
    pub fn remove_failed(&mut self) {
        self.free.extend(self.corpses.values());
        self.corpses.clear();
    }

    /// Removes a node's state entirely — the graceful-departure model: the
    /// node announced, handed its keys off, and left, so no corpse remains
    /// (contrast with [`SimNet::fail`], which leaves stale state behind the
    /// way a crashed host would). Survivors' pointers to it are repaired by
    /// the maintenance protocol. Returns false if the id is unknown.
    pub fn remove_node(&mut self, id: ChordId) -> bool {
        let row = match self.ring_pos(id.value()) {
            Ok(pos) => self.unlist(pos).row,
            Err(_) => match self.corpses.remove(&id.value()) {
                Some(row) => row,
                None => return false,
            },
        };
        self.free.push(row);
        true
    }

    /// One round of Chord stabilization over every alive node (in ring
    /// order): repair successor pointers, notify successors, refresh
    /// successor lists. Returns true if any state changed.
    pub fn stabilize_round(&mut self) -> bool {
        self.forget_fixpoint();
        let mut changed = false;
        for pos in 0..self.ring.len() {
            changed |= self.stabilize_one(pos);
        }
        changed
    }

    /// Stabilizes the node at ring position `pos` (no step of it moves a
    /// ring position).
    fn stabilize_one(&mut self, pos: usize) -> bool {
        let mask = self.space.mask();
        let me = self.ring[pos];
        let (id, row) = (me.id, me.row as usize);
        let mut changed = false;
        let mut succ = self.first_alive_successor(row);
        if succ == me && self.alive_count() > 1 {
            // Lost all successors: re-discover via ground truth (models
            // out-of-band rejoin, needed only after catastrophic failures).
            succ = self.owner_entry(id.wrapping_add(1) & mask);
        }
        // successor's predecessor may be a closer successor for us.
        if succ != me {
            if let Some(Ok(x)) = self.preds[succ.row as usize].map(|x| self.ring_pos(x)) {
                if in_open(self.ring[x].id, id, succ.id, mask) {
                    succ = self.ring[x];
                }
            }
        }
        // Refresh our successor list from succ's list.
        let mut list = vec![succ];
        if succ != me {
            list.extend(
                self.succs_of(succ.row as usize)
                    .iter()
                    .filter_map(|&s| self.live(s))
                    .filter(|&s| s != me),
            );
        }
        list.dedup();
        list.truncate(self.succ_list_len);
        changed |= !self
            .succs_of(row)
            .iter()
            .map(|s| s.id)
            .eq(list.iter().map(|s| s.id));
        self.set_succs(row, &list);
        // Drop a dead predecessor.
        if self.preds[row].is_some_and(|p| self.ring_pos(p).is_err()) {
            self.preds[row] = None;
            changed = true;
        }
        // Notify: tell succ about us.
        if succ != me {
            let current_pred = self.preds[succ.row as usize];
            let adopt = match current_pred {
                None => true,
                Some(p) => self.ring_pos(p).is_err() || in_open(id, p, succ.id, mask),
            };
            if adopt && current_pred != Some(id) {
                self.preds[succ.row as usize] = Some(id);
                changed = true;
            }
        }
        changed
    }

    /// One round of finger repair on every alive node: recompute each
    /// finger by routing from the node itself. Returns true if any finger
    /// changed.
    pub fn fix_fingers_round(&mut self) -> bool {
        self.forget_fixpoint();
        let m = self.bits();
        let mut changed = false;
        for pos in 0..self.ring.len() {
            let id = self.id(self.ring[pos].id);
            let row = self.ring[pos].row as usize;
            for k in 0..m {
                let target = id.add_power_of_two(k as u32);
                let owner = self.entry_of(self.route(id, target.value()).owner);
                changed |= self.fingers[row * m + k].id != owner.id;
                self.fingers[row * m + k] = owner;
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
    /// O(M·log S) search steps per changed node plus the `r²` successor
    /// slots and ≈ M fingers that move. Otherwise — the state is not a
    /// known fixpoint, the delta mixes joins with removals, or fewer
    /// than `r + 2` nodes are alive — every alive row is rewritten by
    /// one sweep over `ring` per finger index: O(S·M).
    ///
    /// The fixpoint differs from [`SimNet::build_stable`] only on rings
    /// smaller than the successor-list length: stabilization's list
    /// refresh excludes the node itself, so lists hold
    /// `min(r, S − 1)` entries (`[self]` on a one-node ring), while
    /// `build_stable` pads with `self` — which is why the membership path
    /// must use this method, not `build_stable`.
    pub fn stabilize_direct(&mut self) -> usize {
        if self.ring.is_empty() {
            return 1;
        }
        let joined = std::mem::take(&mut self.joined);
        let removed = std::mem::take(&mut self.removed);
        if self.fixpoint
            && self.ring.len() >= self.succ_list_len + 2
            && (joined.is_empty() || removed.is_empty())
        {
            for &id in &joined {
                self.repair_around(id.value(), true);
            }
            for &id in &removed {
                self.repair_around(id.value(), false);
            }
            debug_assert!(
                self.tables_are_fixpoint(),
                "incremental repair diverged from the whole-ring fixpoint"
            );
        } else {
            self.install_tables(self.fixpoint_list_len());
        }
        self.fixpoint = true;
        1
    }

    /// Successor-list length at the maintenance fixpoint: the list never
    /// reaches its own node, except `[self]` on a one-node ring.
    fn fixpoint_list_len(&self) -> usize {
        self.succ_list_len.min(self.ring.len() - 1).max(1)
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
    fn repair_around(&mut self, at: u64, joined: bool) {
        let r = self.succ_list_len;
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
            let row = self.ring[window(j)].row as usize;
            for k in 0..r {
                self.succs[row * self.succ_stride + k] = self.true_succ(window(j), k);
            }
            self.succ_lens[row] = r as u32;
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

    /// True if every alive row holds exactly the ground truth
    /// [`SimNet::install_tables`] writes — the whole-ring reference the
    /// incremental repair is checked against in debug builds.
    fn tables_are_fixpoint(&self) -> bool {
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

    /// True if every alive node's successor, predecessor and fingers match
    /// ground truth — the post-condition of successful maintenance.
    pub fn is_fully_stabilized(&self) -> bool {
        let n = self.ring.len();
        (0..n).all(|pos| {
            let row = self.ring[pos].row as usize;
            (n == 1
                || (self.first_alive_successor(row) == self.true_succ(pos, 0)
                    && self.preds[row] == self.true_pred(pos)))
                && self
                    .fingers_of(row)
                    .iter()
                    .enumerate()
                    .all(|(k, f)| f.id == self.true_finger(pos, k).id)
        })
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
        let mut net = SimNet::with_random_nodes(space(), n, &mut rng);
        net.build_stable();
        net
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
            let mut net = SimNet::with_random_nodes(space, n, &mut DetRng::new(seed));
            net.build_stable();
            assert_fingers_are_ground_truth(&net);
        }
    }

    #[test]
    fn finger_sweep_covers_edge_rings() {
        let eight = HashSpace::new(8).unwrap();
        let ring = |space: HashSpace, ids: &[u64]| {
            let mut net = SimNet::new(space);
            for &id in ids {
                net.add_node(ChordId::new(id, space));
            }
            net.build_stable();
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
