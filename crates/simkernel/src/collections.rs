//! Hashed maps and sets over the deterministic hasher
//! ([`DetBuildHasher`]).
//!
//! For point lookups on hot paths — the cluster's client registry and
//! group ledgers, the ring builder's id dedup — where an ordered map's
//! tree walk is the cost and its order buys nothing.

use std::collections::{HashMap, HashSet};

use crate::rng::DetBuildHasher;

/// A `HashMap` over [`DetBuildHasher`].
pub type DetHashMap<K, V> = HashMap<K, V, DetBuildHasher>;

/// A `HashSet` over [`DetBuildHasher`].
pub type DetHashSet<K> = HashSet<K, DetBuildHasher>;

/// Sub-maps per [`ShardedMap`] (a power of two: the pick is a mask).
const SHARDS: usize = 32;

/// A [`DetHashMap`] split into a fixed number of sub-maps by key bits
/// the caller supplies. The split bounds the rehash peak: a growing map
/// briefly holds its old and new tables, so one map of every source
/// record puts a whole second table on top of the resident set
/// (measured: one map of `fig4_static`'s 50 000 source records, +13 %
/// `peak_rss_mb` in a prototype), while a sub-map doubles at 1/32 of
/// that. Which sub-map holds a key is invisible to lookups, so the bits
/// only have to be a pure function of the key.
#[derive(Debug)]
pub struct ShardedMap<K, V> {
    shards: Box<[DetHashMap<K, V>]>,
}

impl<K, V> ShardedMap<K, V> {
    /// An empty map.
    pub fn new() -> Self {
        ShardedMap {
            shards: (0..SHARDS).map(|_| HashMap::default()).collect(),
        }
    }

    /// The sub-map holding keys whose shard bits are `bits`.
    pub fn shard(&self, bits: u64) -> &DetHashMap<K, V> {
        &self.shards[bits as usize & (SHARDS - 1)]
    }

    /// Mutable [`ShardedMap::shard`].
    pub fn shard_mut(&mut self, bits: u64) -> &mut DetHashMap<K, V> {
        &mut self.shards[bits as usize & (SHARDS - 1)]
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.shards.iter().map(HashMap::len).sum()
    }

    /// True if the map holds no entry.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(HashMap::is_empty)
    }

    /// Every entry, in an order that is deterministic but meaningless:
    /// callers whose result depends on it must sort.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> + '_ {
        self.shards.iter().flatten()
    }
}

/// Maps keyed by an id shard by the id's own low bits (ids are dense
/// counters in practice, so the sub-maps fill evenly).
impl<V> ShardedMap<u64, V> {
    /// The value under `id`.
    pub fn get(&self, id: u64) -> Option<&V> {
        self.shard(id).get(&id)
    }

    /// Mutable [`ShardedMap::get`].
    pub fn get_mut(&mut self, id: u64) -> Option<&mut V> {
        self.shard_mut(id).get_mut(&id)
    }

    /// True if `id` is present.
    pub fn contains_key(&self, id: u64) -> bool {
        self.shard(id).contains_key(&id)
    }

    /// Inserts `value` under `id`, returning the value it replaced.
    pub fn insert(&mut self, id: u64, value: V) -> Option<V> {
        self.shard_mut(id).insert(id, value)
    }

    /// Removes and returns the value under `id`.
    pub fn remove(&mut self, id: u64) -> Option<V> {
        self.shard_mut(id).remove(&id)
    }
}

impl<K, V> Default for ShardedMap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use std::hash::BuildHasher;

    use super::*;

    #[test]
    fn id_map_roundtrip_and_len() {
        let mut m: ShardedMap<u64, &str> = ShardedMap::new();
        assert!(m.is_empty());
        for id in 0..100 {
            assert_eq!(m.insert(id, "v"), None);
        }
        assert_eq!(m.insert(7, "w"), Some("v"));
        assert_eq!(m.len(), 100);
        assert_eq!(m.get(7), Some(&"w"));
        assert!(m.contains_key(99) && !m.contains_key(100));
        *m.get_mut(3).unwrap() = "x";
        assert_eq!(m.remove(3), Some("x"));
        assert_eq!(m.remove(3), None);
        assert_eq!(m.iter().count(), 99);
        // Dense ids spread over every sub-map.
        assert!(m.shards.iter().all(|s| !s.is_empty()));
    }

    #[test]
    fn shard_pick_is_a_mask_of_the_bits() {
        let mut m: ShardedMap<(u64, u64), u32> = ShardedMap::new();
        m.shard_mut(5).insert((1, 2), 9);
        assert_eq!(m.shard(5 + SHARDS as u64).get(&(1, 2)), Some(&9));
        assert_eq!(m.shard(6).get(&(1, 2)), None);
    }

    #[test]
    fn hasher_is_a_pure_function_of_the_key() {
        let a = DetBuildHasher.hash_one((3u64, 4u32));
        let b = DetBuildHasher.hash_one((3u64, 4u32));
        assert_eq!(a, b);
        assert_ne!(a, DetBuildHasher.hash_one((4u64, 3u32)));
    }
}
