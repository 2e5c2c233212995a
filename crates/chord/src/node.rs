//! Per-node Chord state.

use std::fmt;

use crate::id::ChordId;
use crate::net::SimNet;

/// A read-only view of the state one Chord node maintains: its successor
/// list, predecessor and finger table (Stoica et al., SIGCOMM 2001, §4),
/// sized exactly as in the Chord paper — M fingers and an r-entry
/// successor list.
///
/// [`SimNet`] stores no per-node rows: an alive node's state is the
/// maintenance fixpoint, a function of the sorted alive ids, and this
/// view computes what is asked for from them. A crashed node has no
/// tables: its lists are empty and it knows no predecessor.
#[derive(Clone, Copy)]
pub struct ChordNode<'a> {
    net: &'a SimNet,
    id: u64,
}

impl<'a> ChordNode<'a> {
    pub(crate) fn new(net: &'a SimNet, id: u64) -> Self {
        ChordNode { net, id }
    }

    /// This node's ring identifier.
    pub fn id(&self) -> ChordId {
        self.net.id(self.id)
    }

    /// The immediate successor (the node itself on a one-node ring, or
    /// when it has no tables).
    pub fn successor(&self) -> ChordId {
        self.successor_list().first().copied().unwrap_or(self.id())
    }

    /// The successor list, nearest first.
    pub fn successor_list(&self) -> Vec<ChordId> {
        let pos = self.net.alive_pos(self.id);
        pos.map_or_else(Vec::new, |pos| self.net.successor_list_at(pos))
    }

    /// The predecessor, if known.
    pub fn predecessor(&self) -> Option<ChordId> {
        let pos = self.net.alive_pos(self.id)?;
        self.net.predecessor_at(pos)
    }

    /// The finger table; entry `k` is the node that succeeds `id + 2^k`.
    pub fn fingers(&self) -> Vec<ChordId> {
        if !self.is_alive() {
            return Vec::new();
        }
        let bits = self.net.space().bits();
        let starts = (0..bits).map(|k| self.id().add_power_of_two(k).value());
        starts
            .filter_map(|start| self.net.owner_of(start))
            .collect()
    }

    /// Whether the node is alive (a failed node's id stays known, but it
    /// has no tables and nothing routes through it).
    pub fn is_alive(&self) -> bool {
        self.net.alive_pos(self.id).is_some()
    }
}

impl fmt::Debug for ChordNode<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ChordNode")
            .field("id", &self.id())
            .field("successor", &self.successor_list().first())
            .field("predecessor", &self.predecessor())
            .field("alive", &self.is_alive())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clash_keyspace::hash::HashSpace;

    fn id(v: u64) -> ChordId {
        ChordId::new(v, HashSpace::new(8).unwrap())
    }

    fn stable_ring(ids: &[u64]) -> SimNet {
        SimNet::from_ids(HashSpace::new(8).unwrap(), ids.to_vec())
    }

    /// The node a lookup from `from` toward `target` is forwarded to
    /// first — the engine's closest-preceding choice.
    fn first_hop(net: &SimNet, from: u64, target: u64) -> ChordId {
        let mut path = Vec::new();
        net.route_path(id(from), target, &mut path);
        path[0].1
    }

    #[test]
    fn solitary_points_to_self() {
        let net = stable_ring(&[42]);
        let n = net.node(id(42)).unwrap();
        assert_eq!(n.successor(), id(42));
        assert_eq!(n.fingers().len(), 8);
        assert!(n.fingers().iter().all(|&f| f == id(42)));
        assert_eq!(n.predecessor(), None);
        assert!(n.is_alive());
    }

    #[test]
    fn closest_preceding_picks_farthest_usable_finger() {
        let net = stable_ring(&[0, 1, 8, 64, 128]);
        // Routing toward 100: finger 64 is the closest preceding.
        assert_eq!(first_hop(&net, 0, 100), id(64));
        // Routing toward 200: finger 128 precedes it.
        assert_eq!(first_hop(&net, 0, 200), id(128));
    }

    #[test]
    fn closest_preceding_skips_unusable() {
        let mut net = stable_ring(&[0, 1, 8, 64, 128]);
        net.fail(id(128));
        assert_eq!(first_hop(&net, 0, 200), id(64));
    }

    #[test]
    fn closest_preceding_falls_back_to_successor() {
        // Target just after self; no finger strictly inside (10, 12).
        let net = stable_ring(&[10, 20]);
        assert_eq!(first_hop(&net, 10, 12), id(20));
    }

    /// A crashed node's view reports no tables, and neither it nor its
    /// `Debug` panics.
    #[test]
    fn mark_failed() {
        let mut net = stable_ring(&[1, 2]);
        net.fail(id(1));
        let corpse = net.node(id(1)).unwrap();
        assert!(!corpse.is_alive());
        assert!(corpse.successor_list().is_empty());
        assert!(corpse.fingers().is_empty());
        assert_eq!(corpse.predecessor(), None);
        assert_eq!(corpse.successor(), id(1));
        assert!(format!("{corpse:?}").contains("alive: false"));
    }
}
