//! [`RouteSnapshot`]: the routing interface of the frozen table copy
//! this crate used to build for batched lookups.
//!
//! [`SimNet`]'s live tables are the dense rows that copy flattened them
//! into, so there is nothing left to freeze: this is a borrow of the
//! ring, routed by the ring's one engine. It exists only because
//! `clash-benchmark/src/micro.rs` times `snapshot()` and
//! `route_with_path`; the next `benchmark`-archetype PR drops those
//! calls and this module.

use crate::id::ChordId;
use crate::net::{LookupResult, SimNet};

/// A borrow of the ring's live routing state (`&self` routing only).
#[derive(Debug, Clone, Copy)]
pub struct RouteSnapshot<'a> {
    pub(crate) net: &'a SimNet,
}

impl RouteSnapshot<'_> {
    /// [`SimNet::route_path`] with a path vector of its own.
    ///
    /// # Panics
    ///
    /// Panics if `start` is not an alive node, or if routing exceeds the
    /// hop limit.
    pub fn route_with_path(
        &self,
        start: ChordId,
        h: u64,
    ) -> (LookupResult, Vec<(ChordId, ChordId)>) {
        let mut path = Vec::new();
        let result = self.net.route_path(start, h, &mut path);
        (result, path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clash_keyspace::hash::HashSpace;

    #[test]
    fn snapshot_single_node_ring() {
        let space = HashSpace::new(16).unwrap();
        let net = SimNet::from_ids(space, vec![42]);
        let id = ChordId::new(42, space);
        let snap = net.snapshot();
        let (r, path) = snap.route_with_path(id, 9999);
        assert_eq!(r.owner, id);
        assert_eq!(r.hops, 0);
        assert!(path.is_empty());
    }

    #[test]
    fn snapshot_is_sync() {
        fn assert_sync<T: Sync + Send>() {}
        assert_sync::<RouteSnapshot<'static>>();
    }
}
