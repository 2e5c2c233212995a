//! Per-node Chord state.

use std::fmt;

use crate::id::ChordId;
use crate::net::SimNet;

/// A read-only view of the state one Chord node maintains: its successor
/// list, predecessor and finger table (Stoica et al., SIGCOMM 2001, §4),
/// sized exactly as in the Chord paper — M fingers and an r-entry
/// successor list.
///
/// The state itself is one row of [`SimNet`]'s table arena, which drives
/// the protocol and writes it in place; this view names the row and
/// copies out what is asked for.
#[derive(Clone, Copy)]
pub struct ChordNode<'a> {
    net: &'a SimNet,
    row: usize,
}

impl<'a> ChordNode<'a> {
    pub(crate) fn new(net: &'a SimNet, row: usize) -> Self {
        ChordNode { net, row }
    }

    /// This node's ring identifier.
    pub fn id(&self) -> ChordId {
        self.net.row_id(self.row)
    }

    /// The immediate successor (first live entry of the successor list
    /// falls to [`SimNet`]; this returns the raw head).
    pub fn successor(&self) -> ChordId {
        self.successor_list()[0]
    }

    /// The successor list, nearest first.
    pub fn successor_list(&self) -> Vec<ChordId> {
        let list = self.net.succs_of(self.row);
        list.iter().map(|s| self.net.id(s.id)).collect()
    }

    /// The predecessor, if known.
    pub fn predecessor(&self) -> Option<ChordId> {
        self.net.row_pred(self.row)
    }

    /// The finger table; entry `k` is the node this one believes succeeds
    /// `id + 2^k`.
    pub fn fingers(&self) -> Vec<ChordId> {
        let fingers = self.net.fingers_of(self.row);
        fingers.iter().map(|f| self.net.id(f.id)).collect()
    }

    /// Whether the node is alive (failed nodes keep their state for
    /// post-mortem inspection but are skipped by routing).
    pub fn is_alive(&self) -> bool {
        self.net.row_alive(self.row)
    }
}

impl fmt::Debug for ChordNode<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ChordNode")
            .field("id", &self.id())
            .field("successor", &self.successor())
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
        let mut net = SimNet::new(HashSpace::new(8).unwrap());
        for &v in ids {
            net.add_node(id(v));
        }
        net.build_stable();
        net
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
        let mut net = SimNet::new(HashSpace::new(8).unwrap());
        net.add_node(id(42));
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

    #[test]
    fn mark_failed() {
        let mut net = stable_ring(&[1, 2]);
        net.fail(id(1));
        assert!(!net.node(id(1)).unwrap().is_alive());
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_successor_list_rejected() {
        let mut net = stable_ring(&[1]);
        net.set_succs(0, &[]);
    }
}
