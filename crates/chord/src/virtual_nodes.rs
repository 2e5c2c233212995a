//! CFS-style virtual servers: multiple ring identifiers per physical node.
//!
//! The related-work baselines in the paper (§2): Chord "proposes the use of
//! log(S) virtual servers per physical server node … to significantly
//! reduce the probability of non-uniform address allocation", and CFS
//! "allocates the number of virtual servers in proportion to the actual
//! processing capacity". This module provides that layer for the ablation
//! experiments, mapping virtual ring identifiers back to physical servers.

use std::collections::BTreeMap;

use clash_keyspace::hash::HashSpace;
use clash_simkernel::rng::DetRng;

use crate::id::ChordId;
use crate::net::SimNet;

/// Identifier of a physical server hosting one or more virtual nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PhysicalId(pub usize);

/// A Chord ring whose nodes are virtual servers owned by physical servers.
///
/// # Example
///
/// ```
/// use clash_chord::virtual_nodes::VirtualRing;
/// use clash_keyspace::hash::HashSpace;
/// use clash_simkernel::rng::DetRng;
///
/// let mut rng = DetRng::new(1);
/// // 10 physical servers × 4 virtual nodes each.
/// let ring = VirtualRing::new(HashSpace::PAPER, 10, 4, &mut rng);
/// let phys = ring.physical_owner_of(0x42).unwrap();
/// assert!(phys.0 < 10);
/// ```
#[derive(Debug)]
pub struct VirtualRing {
    net: SimNet,
    virt_to_phys: BTreeMap<u64, PhysicalId>,
    physical_count: usize,
}

impl VirtualRing {
    /// Creates a stabilized ring of `physical × vnodes_per` virtual nodes.
    ///
    /// # Panics
    ///
    /// Panics if `physical == 0` or `vnodes_per == 0`.
    pub fn new(space: HashSpace, physical: usize, vnodes_per: usize, rng: &mut DetRng) -> Self {
        assert!(physical > 0, "need at least one physical server");
        assert!(vnodes_per > 0, "need at least one virtual node each");
        let mut net = SimNet::new(space);
        let mut virt_to_phys = BTreeMap::new();
        for p in 0..physical {
            let mut placed = 0;
            while placed < vnodes_per {
                let id = ChordId::new(rng.next_u64(), space);
                if net.add_node(id) {
                    virt_to_phys.insert(id.value(), PhysicalId(p));
                    placed += 1;
                }
            }
        }
        net.build_stable();
        VirtualRing {
            net,
            virt_to_phys,
            physical_count: physical,
        }
    }

    /// Number of physical servers.
    pub fn physical_count(&self) -> usize {
        self.physical_count
    }

    /// The underlying virtual-node ring.
    pub fn net(&self) -> &SimNet {
        &self.net
    }

    /// The physical server owning a virtual node identifier.
    pub fn physical_of(&self, virt: ChordId) -> Option<PhysicalId> {
        self.virt_to_phys.get(&virt.value()).copied()
    }

    /// Ground-truth physical owner of hash `h`.
    pub fn physical_owner_of(&self, h: u64) -> Option<PhysicalId> {
        self.net.owner_of(h).and_then(|virt| self.physical_of(virt))
    }

    /// Fraction of the hash space owned by each physical server — the
    /// balance metric the virtual-server technique improves.
    pub fn ownership_fractions(&self) -> Vec<f64> {
        let ids = self.net.node_ids();
        let mut owned = vec![0u128; self.physical_count];
        if ids.is_empty() {
            return vec![0.0; self.physical_count];
        }
        for (pos, &id) in ids.iter().enumerate() {
            let pred = ids[(pos + ids.len() - 1) % ids.len()];
            let arc = pred.distance_to(id);
            let arc = if ids.len() == 1 {
                self.net.space().size()
            } else {
                arc as u128
            };
            if let Some(p) = self.physical_of(id) {
                owned[p.0] += arc;
            }
        }
        let total = self.net.space().size();
        owned.iter().map(|&a| a as f64 / total as f64).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clash_simkernel::stats;

    fn ring(physical: usize, vnodes: usize, seed: u64) -> VirtualRing {
        let mut rng = DetRng::new(seed);
        VirtualRing::new(HashSpace::new(24).unwrap(), physical, vnodes, &mut rng)
    }

    #[test]
    fn every_hash_has_a_physical_owner() {
        let r = ring(8, 4, 1);
        let mut rng = DetRng::new(2);
        for _ in 0..200 {
            let h = rng.next_u64() & 0xFF_FFFF;
            let p = r.physical_owner_of(h).unwrap();
            assert!(p.0 < 8);
        }
    }

    #[test]
    fn more_vnodes_balance_ownership() {
        // Variance of per-physical ownership must drop with vnode count.
        let few = ring(16, 1, 5).ownership_fractions();
        let many = ring(16, 16, 5).ownership_fractions();
        assert!((few.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!((many.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(
            stats::stddev(&many) < stats::stddev(&few),
            "vnodes should reduce imbalance: {} vs {}",
            stats::stddev(&many),
            stats::stddev(&few)
        );
    }

    #[test]
    #[should_panic(expected = "at least one physical")]
    fn zero_physical_rejected() {
        let mut rng = DetRng::new(0);
        VirtualRing::new(HashSpace::new(8).unwrap(), 0, 1, &mut rng);
    }
}
