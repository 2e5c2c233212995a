//! A slot arena for the cluster's servers.
//!
//! The servers sit in a dense `Vec` of slots (freed slots are recycled,
//! keeping the vector dense under churn) behind one hashed `u64 → slot`
//! index that answers every per-id access — one probe plus one slot;
//! every client probe looks its responder up here. The arena keeps no
//! order: a walk whose order matters reads the ring's alive ids
//! (`SimNet::node_ids`, ascending), which name exactly the arena's
//! servers, and looks each up here.

use clash_simkernel::collections::DetHashMap;

use crate::server::ClashServer;

/// Dense storage for the cluster's servers, indexed by ring id (see the
/// module docs).
#[derive(Debug)]
pub struct ServerArena {
    slots: Vec<Option<ClashServer>>,
    free: Vec<usize>,
    slot_of: DetHashMap<u64, usize>,
}

impl ServerArena {
    /// An empty arena.
    pub fn new() -> Self {
        ServerArena {
            slots: Vec::new(),
            free: Vec::new(),
            slot_of: DetHashMap::default(),
        }
    }

    /// An empty arena with room for `n` servers: a cluster's servers
    /// land in one allocation instead of a chain of doublings, each
    /// copied and freed. The slots are rounded up to the power of two
    /// those doublings end at, so the joins that fit before still fit.
    pub(crate) fn with_capacity(n: usize) -> Self {
        ServerArena {
            slots: Vec::with_capacity(n.next_power_of_two()),
            free: Vec::new(),
            slot_of: DetHashMap::with_capacity_and_hasher(n, Default::default()),
        }
    }

    /// Number of live servers.
    pub fn len(&self) -> usize {
        self.slot_of.len()
    }

    /// True if no servers are stored.
    pub fn is_empty(&self) -> bool {
        self.slot_of.is_empty()
    }

    /// True if `sid` names a live server.
    pub fn contains(&self, sid: u64) -> bool {
        self.slot_of.contains_key(&sid)
    }

    /// The server with ring id `sid`.
    #[inline]
    pub fn get(&self, sid: u64) -> Option<&ClashServer> {
        self.slot_of
            .get(&sid)
            .map(|&slot| self.slots[slot].as_ref().expect("indexed slot is live"))
    }

    /// Mutable access to the server with ring id `sid`.
    #[inline]
    pub fn get_mut(&mut self, sid: u64) -> Option<&mut ClashServer> {
        let slot = *self.slot_of.get(&sid)?;
        Some(self.slots[slot].as_mut().expect("indexed slot is live"))
    }

    /// The server of ring member `sid`. The cluster keeps exactly one
    /// server per alive ring node, so a miss is a broken invariant and
    /// panics.
    #[inline]
    pub(crate) fn live(&self, sid: u64) -> &ClashServer {
        self.get(sid)
            .unwrap_or_else(|| panic!("ring member {sid:#x} has no server"))
    }

    /// Mutable [`ServerArena::live`].
    #[inline]
    pub(crate) fn live_mut(&mut self, sid: u64) -> &mut ClashServer {
        self.get_mut(sid)
            .unwrap_or_else(|| panic!("ring member {sid:#x} has no server"))
    }

    /// Inserts a server under its own ring id. Returns false (leaving the
    /// arena unchanged) if the id is already present.
    pub fn insert(&mut self, server: ClashServer) -> bool {
        let sid = server.id().value();
        if self.contains(sid) {
            return false;
        }
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot] = Some(server);
                slot
            }
            None => {
                self.slots.push(Some(server));
                self.slots.len() - 1
            }
        };
        self.slot_of.insert(sid, slot);
        true
    }

    /// Removes and returns the server with ring id `sid`, recycling its
    /// slot.
    pub fn remove(&mut self, sid: u64) -> Option<ClashServer> {
        let slot = self.slot_of.remove(&sid)?;
        self.free.push(slot);
        self.slots[slot].take()
    }

    /// Live servers in slot order — for passes whose per-server work is
    /// independent of every other server's.
    pub(crate) fn iter_mut(&mut self) -> impl Iterator<Item = &mut ClashServer> + '_ {
        self.slots.iter_mut().flatten()
    }

    /// Shared [`ServerArena::iter_mut`]: live servers in slot order, for
    /// scans whose result does not depend on visiting order.
    pub(crate) fn iter_slots(&self) -> impl Iterator<Item = &ClashServer> + '_ {
        self.slots.iter().flatten()
    }
}

impl Default for ServerArena {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClashConfig;
    use crate::ServerId;

    fn server(v: u64) -> ClashServer {
        let cfg = ClashConfig::small_test();
        ClashServer::new(ServerId::new(v, cfg.hash_space), cfg.key_width)
    }

    #[test]
    fn server_records_keep_their_size() {
        // A slot holds the server's own state (table, replicas, one
        // counter), not a copy of the cluster's settings or a second id.
        #[cfg(target_pointer_width = "64")]
        assert_eq!(std::mem::size_of::<ClashServer>(), 120);
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut a = ServerArena::new();
        assert!(a.is_empty());
        assert!(a.insert(server(5)));
        assert!(a.insert(server(3)));
        assert!(!a.insert(server(5)), "duplicate ids are rejected");
        assert_eq!(a.len(), 2);
        assert!(a.contains(3));
        assert_eq!(a.get(5).unwrap().id().value(), 5);
        assert!(a.get(99).is_none());
        assert!(a.get_mut(3).is_some());
        let removed = a.remove(5).unwrap();
        assert_eq!(removed.id().value(), 5);
        assert!(a.remove(5).is_none());
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn freed_slots_are_recycled() {
        let mut a = ServerArena::new();
        for v in [9u64, 1, 7, 4] {
            a.insert(server(v));
        }
        let slots: Vec<u64> = a.iter_slots().map(|s| s.id().value()).collect();
        assert_eq!(slots, vec![9, 1, 7, 4]);
        a.remove(7);
        a.insert(server(2));
        // 2 took the slot 7 left: no growth.
        assert_eq!(a.slots.len(), 4);
        let slots: Vec<u64> = a.iter_slots().map(|s| s.id().value()).collect();
        assert_eq!(slots, vec![9, 1, 2, 4]);
    }
}
