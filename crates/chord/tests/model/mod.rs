//! [`ChordModel`]: the round-based Chord maintenance protocol (Stoica et
//! al., SIGCOMM 2001, §4) over per-node tables of its own — the
//! independent reference `SimNet`'s always-converged tables are pinned
//! against.
//!
//! `SimNet` computes the maintenance fixpoint directly and keeps every
//! alive node at it. This model reaches it the way a deployment does: a
//! join seeds the new node from its successor, a crash or departure
//! leaves entries naming it behind, and rounds of `stabilize` and
//! `fix_fingers` repair them until nothing changes. Routing is a
//! per-node table walk whose every usability test is a by-id liveness
//! lookup. Nothing here reads `SimNet`.

use std::collections::BTreeMap;

use clash_chord::id::ChordId;
use clash_keyspace::hash::HashSpace;

/// One node's protocol state.
#[derive(Debug, Clone)]
pub struct ModelNode {
    /// Successor list, nearest first.
    pub succs: Vec<ChordId>,
    pub pred: Option<ChordId>,
    /// Entry `k` is the node this one believes succeeds `id + 2^k`.
    pub fingers: Vec<ChordId>,
    pub alive: bool,
}

/// A Chord ring maintained by the round-based protocol.
#[derive(Debug, Clone)]
pub struct ChordModel {
    space: HashSpace,
    succ_list_len: usize,
    /// Every node, alive or crashed, in ring order.
    nodes: BTreeMap<u64, ModelNode>,
}

impl ChordModel {
    /// The ring of `ids`, every node starting solitary, after the
    /// protocol ran to quiescence.
    pub fn converged(space: HashSpace, succ_list_len: usize, ids: &[ChordId]) -> Self {
        let mut model = ChordModel {
            space,
            succ_list_len,
            nodes: BTreeMap::new(),
        };
        for &id in ids {
            assert!(model.insert_solitary(id), "duplicate id {id}");
        }
        assert!(model.stabilize_until_converged(512) < 512, "no quiescence");
        model
    }

    /// Alive ids in ring order.
    pub fn alive_ids(&self) -> Vec<ChordId> {
        let alive = self.nodes.iter().filter(|(_, n)| n.alive);
        alive.map(|(&v, _)| self.id(v)).collect()
    }

    /// A node's state, alive or crashed.
    pub fn node(&self, id: ChordId) -> Option<&ModelNode> {
        self.nodes.get(&id.value())
    }

    fn id(&self, value: u64) -> ChordId {
        ChordId::new(value, self.space)
    }

    fn is_alive(&self, id: ChordId) -> bool {
        self.node(id).is_some_and(|n| n.alive)
    }

    fn alive_count(&self) -> usize {
        self.nodes.values().filter(|n| n.alive).count()
    }

    /// Ground truth: the first alive id at or after `h`, wrapping.
    fn owner_of(&self, h: u64) -> ChordId {
        let alive = |(&v, n): (&u64, &ModelNode)| n.alive.then_some(v);
        let after = self.nodes.range(h..).find_map(alive);
        self.id(after
            .or_else(|| self.nodes.iter().find_map(alive))
            .expect("alive node"))
    }

    /// The first alive entry of `id`'s successor list (`id` itself when
    /// none is).
    fn first_alive_successor(&self, id: ChordId) -> ChordId {
        let succs = &self.nodes[&id.value()].succs;
        succs
            .iter()
            .copied()
            .find(|&s| self.is_alive(s))
            .unwrap_or(id)
    }

    /// A new node whose every pointer names itself; false if the id is
    /// taken by an alive node or a corpse.
    fn insert_solitary(&mut self, id: ChordId) -> bool {
        if self.nodes.contains_key(&id.value()) {
            return false;
        }
        let bits = self.space.bits() as usize;
        let node = ModelNode {
            succs: vec![id],
            pred: None,
            fingers: vec![id; bits],
            alive: true,
        };
        self.nodes.insert(id.value(), node);
        true
    }

    /// Routes a lookup of `h` from the alive node `start`: the owner and
    /// the `(from, to)` hop sequence. First alive successor → half-open
    /// ownership test → farthest alive finger in `(current, target)` →
    /// farthest alive successor-list entry there → the first alive
    /// successor.
    pub fn route(&self, start: ChordId, h: u64) -> (ChordId, Vec<(ChordId, ChordId)>) {
        assert!(self.is_alive(start), "lookup must start at an alive node");
        let target = self.id(h);
        let mut current = start;
        let mut path = Vec::new();
        loop {
            assert!(path.len() <= self.nodes.len(), "every hop moves closer");
            if target == current {
                return (current, path);
            }
            // A solitary (or fully isolated) node owns everything.
            let succ = self.first_alive_successor(current);
            if succ == current {
                return (current, path);
            }
            if target.in_half_open_interval(current, succ) {
                path.push((current, succ));
                return (succ, path);
            }
            let node = &self.nodes[&current.value()];
            let preceding = |c: &ChordId| c.in_open_interval(current, target) && self.is_alive(*c);
            let next = (node.fingers.iter().rev().copied().find(preceding))
                .or_else(|| node.succs.iter().rev().copied().find(preceding))
                .unwrap_or(succ);
            path.push((current, next));
            current = next;
        }
    }

    /// Joins `new_id` through `bootstrap`: a lookup of its own id finds
    /// its successor, whose successor list it inherits, and one lookup
    /// per finger routed from that successor seeds its finger table.
    /// Returns the messages spent, or `None` if the id is taken.
    pub fn join(&mut self, new_id: ChordId, bootstrap: ChordId) -> Option<u32> {
        assert!(self.is_alive(bootstrap), "bootstrap node must be alive");
        if !self.insert_solitary(new_id) {
            return None;
        }
        let (succ, path) = self.route(bootstrap, new_id.value());
        let mut messages = path.len() as u32;
        let mut fingers = Vec::new();
        for k in 0..self.space.bits() {
            let (owner, path) = self.route(succ, new_id.add_power_of_two(k).value());
            fingers.push(owner);
            messages = messages.saturating_add(path.len() as u32);
        }
        let mut succs = vec![succ];
        let inherited = self.nodes[&succ.value()].succs.iter().copied();
        succs.extend(inherited.filter(|&s| s != new_id && s != succ && self.is_alive(s)));
        succs.truncate(self.succ_list_len);
        let node = self.nodes.get_mut(&new_id.value()).expect("inserted");
        node.succs = succs;
        node.fingers = fingers;
        Some(messages)
    }

    /// Crashes a node: its state stays behind, and so do other nodes'
    /// entries naming it. False if it is missing or already dead.
    pub fn fail(&mut self, id: ChordId) -> bool {
        match self.nodes.get_mut(&id.value()) {
            Some(node) if node.alive => {
                node.alive = false;
                true
            }
            _ => false,
        }
    }

    /// Removes a node's state entirely (a graceful departure, or a
    /// corpse collected); other nodes' entries naming it stay behind.
    pub fn remove_node(&mut self, id: ChordId) -> bool {
        self.nodes.remove(&id.value()).is_some()
    }

    /// One round of stabilization over every alive node, in ring order.
    /// Returns true if any state changed.
    pub fn stabilize_round(&mut self) -> bool {
        let mut changed = false;
        for id in self.alive_ids() {
            changed |= self.stabilize_one(id);
        }
        changed
    }

    /// Repairs `id`'s successor, adopts its successor's predecessor when
    /// that is closer, refreshes its successor list from its successor's,
    /// drops a dead predecessor and notifies its successor.
    fn stabilize_one(&mut self, id: ChordId) -> bool {
        let mut changed = false;
        let mut succ = self.first_alive_successor(id);
        if succ == id && self.alive_count() > 1 {
            // Lost all successors: re-discover via ground truth (an
            // out-of-band rejoin, needed only after catastrophic
            // failures and for solitary starts).
            succ = self.owner_of(id.add_power_of_two(0).value());
        }
        if succ != id {
            let closer = self.nodes[&succ.value()].pred;
            if let Some(x) = closer.filter(|&x| self.is_alive(x) && x.in_open_interval(id, succ)) {
                succ = x;
            }
        }
        let mut list = vec![succ];
        if succ != id {
            let inherited = self.nodes[&succ.value()].succs.iter().copied();
            list.extend(inherited.filter(|&s| self.is_alive(s) && s != id));
        }
        list.dedup();
        list.truncate(self.succ_list_len);
        let pred_dead = self.nodes[&id.value()]
            .pred
            .is_some_and(|p| !self.is_alive(p));
        let me = self.nodes.get_mut(&id.value()).expect("alive node");
        changed |= me.succs != list;
        me.succs = list;
        if pred_dead {
            me.pred = None;
            changed = true;
        }
        if succ != id {
            let current = self.nodes[&succ.value()].pred;
            let adopt = match current {
                None => true,
                Some(p) => !self.is_alive(p) || id.in_open_interval(p, succ),
            };
            if adopt && current != Some(id) {
                self.nodes.get_mut(&succ.value()).expect("alive").pred = Some(id);
                changed = true;
            }
        }
        changed
    }

    /// One round of finger repair on every alive node, in ring order:
    /// each finger is re-resolved by routing from the node itself, over
    /// the tables as this round has left them so far. Returns true if any
    /// finger changed.
    pub fn fix_fingers_round(&mut self) -> bool {
        let mut changed = false;
        for id in self.alive_ids() {
            for k in 0..self.space.bits() {
                let (owner, _) = self.route(id, id.add_power_of_two(k).value());
                let finger =
                    &mut self.nodes.get_mut(&id.value()).expect("alive").fingers[k as usize];
                changed |= *finger != owner;
                *finger = owner;
            }
        }
        changed
    }

    /// Runs stabilization and finger repair until a round changes
    /// nothing or `max_rounds` ran. Returns the rounds used.
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
}
