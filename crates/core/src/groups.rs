//! Per-server maps keyed by key group, as one sorted flat vector.
//!
//! Every per-server structure — the [`crate::table::ServerTable`] and both
//! maps of a [`crate::replication::ReplicaStore`] — stores its groups in a
//! [`SortedGroups`]: one `Vec<(Prefix, V)>` kept sorted by [`Prefix`]'s
//! `Ord`. That is binary-string order, exactly a pre-order walk of the
//! binary trie, so iteration visits groups in the order a
//! `clash_keyspace::cover::PrefixMap` would. A server holds a few to a few
//! hundred groups, so a lookup is a binary search over contiguous entries
//! instead of one dependent heap load per key bit, and the shifts an
//! insert or remove costs stay small.
//!
//! The two prefix queries a table answers are binary searches too (see
//! [`SortedGroups::longest_match`] and
//! [`SortedGroups::max_common_prefix_len`]). Maps that hold *every* group
//! of a run — the cluster oracle and `PrefixCover` — stay on the trie,
//! where an insert or remove is not an O(n) shift.

use clash_keyspace::key::{Key, KeyWidth};
use clash_keyspace::prefix::Prefix;

/// Groups of one key width mapped to `V`, as a vector sorted by group.
#[derive(Debug, Clone)]
pub(crate) struct SortedGroups<V> {
    width: KeyWidth,
    entries: Vec<(Prefix, V)>,
}

impl<V> SortedGroups<V> {
    pub(crate) fn new(width: KeyWidth) -> Self {
        SortedGroups {
            width,
            entries: Vec::new(),
        }
    }

    pub(crate) fn width(&self) -> KeyWidth {
        self.width
    }

    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Where `group` sits: `Ok` at its entry, `Err` where it would go.
    fn find(&self, group: Prefix) -> Result<usize, usize> {
        assert_eq!(group.width(), self.width, "prefix width mismatch");
        self.entries.binary_search_by(|(g, _)| g.cmp(&group))
    }

    pub(crate) fn get(&self, group: Prefix) -> Option<&V> {
        self.find(group).ok().map(|at| &self.entries[at].1)
    }

    pub(crate) fn get_mut(&mut self, group: Prefix) -> Option<&mut V> {
        self.find(group).ok().map(|at| &mut self.entries[at].1)
    }

    pub(crate) fn contains(&self, group: Prefix) -> bool {
        self.find(group).is_ok()
    }

    /// Inserts or overwrites the value at `group`.
    pub(crate) fn insert(&mut self, group: Prefix, value: V) {
        match self.find(group) {
            Ok(at) => self.entries[at].1 = value,
            Err(at) => self.entries.insert(at, (group, value)),
        }
    }

    pub(crate) fn remove(&mut self, group: Prefix) -> Option<V> {
        self.find(group).ok().map(|at| self.entries.remove(at).1)
    }

    /// `(group, value)` pairs in binary-string order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (Prefix, &V)> + '_ {
        self.entries.iter().map(|(g, v)| (*g, v))
    }

    /// [`SortedGroups::iter`] with mutable values.
    pub(crate) fn iter_mut(&mut self) -> impl Iterator<Item = (Prefix, &mut V)> + '_ {
        self.entries.iter_mut().map(|(g, v)| (*g, v))
    }

    /// The values in binary-string order.
    pub(crate) fn values(&self) -> impl Iterator<Item = &V> + '_ {
        self.entries.iter().map(|(_, v)| v)
    }

    /// Keeps the entries for which `keep` holds, in order.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(Prefix, &V) -> bool) {
        self.entries.retain(|(g, v)| keep(*g, v));
    }

    /// Index of the deepest entry whose group contains `key`.
    ///
    /// Take the last entry at or before `key`'s full-depth group. Every
    /// group containing the key precedes that group, and nothing but a
    /// deeper container can sit between a container and it, so if that
    /// entry contains the key it is the deepest that does. If it does
    /// not, it shares some `c` bits with the key and every container is
    /// at most `c` deep: search again, below it, for the key's depth-`c`
    /// group. Each retry lowers `c`, so the loop ends.
    fn longest_match_at(&self, key: Key) -> Option<usize> {
        assert_eq!(key.width(), self.width, "key width mismatch");
        let mut depth = self.width.get();
        let mut end = self.entries.len();
        loop {
            let probe = Prefix::of_key(key, depth);
            let at = match self.entries[..end].binary_search_by(|(g, _)| g.cmp(&probe)) {
                Ok(at) => return Some(at),
                Err(0) => return None,
                Err(after) => after - 1,
            };
            let group = self.entries[at].0;
            let common = group.common_prefix_len_with_key(key);
            if common == group.depth() {
                return Some(at);
            }
            depth = common;
            end = at;
        }
    }

    /// The value of the deepest entry whose group contains `key`.
    ///
    /// # Panics
    ///
    /// Panics if the key width differs from the map width.
    pub(crate) fn longest_match(&self, key: Key) -> Option<&V> {
        self.longest_match_at(key).map(|at| &self.entries[at].1)
    }

    /// [`SortedGroups::longest_match`], mutably.
    pub(crate) fn longest_match_mut(&mut self, key: Key) -> Option<&mut V> {
        self.longest_match_at(key).map(|at| &mut self.entries[at].1)
    }

    /// The paper's `d_min`: the longest common prefix between `key` and
    /// *any* entry (0 if the map is empty). The entry achieving it need
    /// not contain the key (entry `01011*` and key `0101010` share 4
    /// bits).
    ///
    /// In sorted order the entry sharing the most bits with the key is a
    /// neighbour of the key's full-depth group: for `a ≤ b ≤ c`,
    /// `lcp(a, c) = min(lcp(a, b), lcp(b, c))`.
    ///
    /// # Panics
    ///
    /// Panics if the key width differs from the map width.
    pub(crate) fn max_common_prefix_len(&self, key: Key) -> u32 {
        assert_eq!(key.width(), self.width, "key width mismatch");
        let at = match self.find(Prefix::of_key(key, self.width.get())) {
            Ok(_) => return self.width.get(),
            Err(at) => at,
        };
        let shared = |i: usize| self.entries[i].0.common_prefix_len_with_key(key);
        let before = at.checked_sub(1).map_or(0, shared);
        let after = if at < self.entries.len() {
            shared(at)
        } else {
            0
        };
        before.max(after)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(n: u32) -> KeyWidth {
        KeyWidth::new(n).unwrap()
    }

    fn p(s: &str) -> Prefix {
        Prefix::parse(s, 7).unwrap()
    }

    fn k(s: &str) -> Key {
        Key::parse(s, 7).unwrap()
    }

    /// Each group mapped to itself.
    fn map_of(groups: &[&str]) -> SortedGroups<Prefix> {
        let mut m = SortedGroups::new(w(7));
        for s in groups {
            m.insert(p(s), p(s));
        }
        m
    }

    #[test]
    fn dmin_matches_paper_figure2_example() {
        // Figure 2's server table for s25: entries 011*, 01011*, 010110*,
        // 0110*, 01100*. Client sends "0101010": longest match is 4.
        let m = map_of(&["011*", "01011*", "010110*", "0110*", "01100*"]);
        assert_eq!(m.max_common_prefix_len(k("0101010")), 4);
        // A key inside an entry: match equals that entry's depth (6).
        assert_eq!(m.max_common_prefix_len(k("0101100")), 6);
        // Entirely outside: shares just the leading 0 with the 01... entries.
        assert_eq!(m.max_common_prefix_len(k("1000000")), 0);
    }

    #[test]
    fn dmin_on_empty_map_is_zero() {
        let m: SortedGroups<Prefix> = SortedGroups::new(w(7));
        assert_eq!(m.max_common_prefix_len(k("0101010")), 0);
        assert!(m.longest_match(k("0101010")).is_none());
    }

    #[test]
    fn dmin_exceeds_lpm_depth_when_entry_diverges_late() {
        let m = map_of(&["01011*"]);
        // Key 0101010 is NOT contained in 01011*, so lpm is None, but dmin=4.
        assert!(m.longest_match(k("0101010")).is_none());
        assert_eq!(m.max_common_prefix_len(k("0101010")), 4);
    }

    #[test]
    fn removal_leaves_no_phantom_dmin() {
        let mut m = map_of(&["0101010"]);
        assert_eq!(m.max_common_prefix_len(k("0101011")), 6);
        assert_eq!(m.max_common_prefix_len(k("0101010")), 7);
        m.remove(p("0101010"));
        assert_eq!(m.max_common_prefix_len(k("0101011")), 0);
    }

    #[test]
    fn longest_match_retries_past_a_predecessor_that_is_not_an_ancestor() {
        // Key 0111000's predecessor in order is 01101*, which does not
        // contain it; the retry from their shared 3 bits finds 011*.
        let m = map_of(&["0*", "011*", "0110*", "01101*", "1*"]);
        assert_eq!(m.longest_match(k("0111000")), Some(&p("011*")));
        // Two retries: 01011* shares 2 bits, then 0011* shares 1.
        let m = map_of(&["0*", "00*", "0011*", "01011*"]);
        assert_eq!(m.longest_match(k("0110000")), Some(&p("0*")));
        assert!(map_of(&["01*", "001*"])
            .longest_match(k("0000000"))
            .is_none());
        // A full-depth entry is an exact hit.
        let m = map_of(&["0*", "0101010"]);
        assert_eq!(m.longest_match(k("0101010")), Some(&p("0101010")));
        assert_eq!(m.longest_match(k("0101011")), Some(&p("0*")));
    }

    #[test]
    fn iteration_is_binary_string_ordered() {
        let m = map_of(&["1*", "0110*", "011*", "00*", "0111111"]);
        let order: Vec<String> = m.iter().map(|(g, _)| g.to_string()).collect();
        assert_eq!(order, vec!["00*", "011*", "0110*", "0111111", "1*"]);
    }
}
