//! Prefix-keyed maps and prefix-free covers of the key space.
//!
//! * [`PrefixMap`] — [`Prefix`]es mapped to values, as one vector kept
//!   sorted by [`Prefix`]'s `Ord`. Entries may be nested (an entry at
//!   `011*` can coexist with one at `0110*`). Binary-string order is a
//!   pre-order walk of the logical binary tree, so a group's subtree is
//!   the run of entries right after it, and every prefix query is a
//!   binary search: longest-prefix match, the paper's `d_min`, the walk
//!   over every entry containing a key, and range intersection. It backs
//!   every CLASH `ServerTable` and replica store, [`PrefixCover`] and
//!   the continuous-query subscriptions of `clash-streamquery`. Each of
//!   those holds a few to a few hundred groups or is built once, so the
//!   shift an insert or remove costs stays small.
//! * [`PrefixCover`] — a *prefix-free* set of groups with split/merge
//!   operations, used as the global oracle in tests and for client-side
//!   caching: the set of all active key groups in a CLASH system always
//!   forms a prefix-free cover.

use std::fmt;

use crate::error::KeyError;
use crate::key::{Key, KeyWidth};
use crate::prefix::Prefix;

/// [`Prefix`]es mapped to values, kept in binary-string order; nested
/// entries are allowed.
///
/// The map stores no key width: a lookup reads it off the key or prefix
/// it is given, and every prefix and key passed to one map must share a
/// width (a deployment has exactly one).
///
/// # Example
///
/// ```
/// use clash_keyspace::cover::PrefixMap;
/// use clash_keyspace::key::Key;
/// use clash_keyspace::prefix::Prefix;
///
/// let mut table: PrefixMap<&str> = PrefixMap::new();
/// table.insert(Prefix::parse("011*", 7)?, "inactive root");
/// table.insert(Prefix::parse("0110*", 7)?, "active leaf");
///
/// let key = Key::parse("0110101", 7)?;
/// let (prefix, value) = table.longest_prefix_match(key).unwrap();
/// assert_eq!(prefix.to_string(), "0110*");
/// assert_eq!(*value, "active leaf");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone)]
pub struct PrefixMap<V> {
    entries: Vec<(Prefix, V)>,
}

impl<V> Default for PrefixMap<V> {
    fn default() -> Self {
        PrefixMap::new()
    }
}

impl<V> PrefixMap<V> {
    /// Creates an empty map.
    pub const fn new() -> Self {
        PrefixMap {
            entries: Vec::new(),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the map has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Where `prefix` sits: `Ok` at its entry, `Err` where it would go.
    fn find(&self, prefix: Prefix) -> Result<usize, usize> {
        self.entries.binary_search_by(|(p, _)| p.cmp(&prefix))
    }

    /// Inserts `value` at `prefix`, returning the previous value if any.
    pub fn insert(&mut self, prefix: Prefix, value: V) -> Option<V> {
        match self.find(prefix) {
            Ok(at) => Some(std::mem::replace(&mut self.entries[at].1, value)),
            Err(at) => {
                self.entries.insert(at, (prefix, value));
                None
            }
        }
    }

    /// Returns the value stored exactly at `prefix`.
    pub fn get(&self, prefix: Prefix) -> Option<&V> {
        self.find(prefix).ok().map(|at| &self.entries[at].1)
    }

    /// Mutable access to the value stored exactly at `prefix`.
    pub fn get_mut(&mut self, prefix: Prefix) -> Option<&mut V> {
        self.find(prefix).ok().map(|at| &mut self.entries[at].1)
    }

    /// True if an entry exists exactly at `prefix`.
    pub fn contains(&self, prefix: Prefix) -> bool {
        self.find(prefix).is_ok()
    }

    /// Removes and returns the value at `prefix`.
    pub fn remove(&mut self, prefix: Prefix) -> Option<V> {
        self.find(prefix).ok().map(|at| self.entries.remove(at).1)
    }

    /// Keeps the entries for which `keep` holds, in order.
    pub fn retain(&mut self, mut keep: impl FnMut(Prefix, &V) -> bool) {
        self.entries.retain(|(p, v)| keep(*p, v));
    }

    /// Iterates over `(prefix, value)` pairs in binary-string order
    /// (parents before children).
    pub fn iter(&self) -> impl Iterator<Item = (Prefix, &V)> + '_ {
        self.entries.iter().map(|(p, v)| (*p, v))
    }

    /// [`PrefixMap::iter`] with mutable values.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (Prefix, &mut V)> + '_ {
        self.entries.iter_mut().map(|(p, v)| (*p, v))
    }

    /// Iterates over the stored prefixes in binary-string order.
    pub fn prefixes(&self) -> impl Iterator<Item = Prefix> + '_ {
        self.entries.iter().map(|(p, _)| *p)
    }

    /// Iterates over the values in binary-string order.
    pub fn values(&self) -> impl Iterator<Item = &V> + '_ {
        self.entries.iter().map(|(_, v)| v)
    }

    /// Index of the deepest entry in `entries[..end]` that contains `key`
    /// and is at most `depth` deep, given that every such entry lies
    /// before `end`.
    ///
    /// Take the last entry at or before `key`'s depth-`depth` group.
    /// Every group containing the key at that depth or above precedes that
    /// group, and nothing but a deeper container can sit between a
    /// container and it, so if that entry contains the key it is the
    /// deepest that does. If it does not, it shares some `c < depth` bits
    /// with the key and every container is at most `c` deep: search
    /// again, below it, for the key's depth-`c` group. Each retry lowers
    /// the depth, so the loop ends.
    fn deepest_container(&self, key: Key, mut depth: u32, mut end: usize) -> Option<usize> {
        loop {
            let probe = Prefix::of_key(key, depth);
            let at = match self.entries[..end].binary_search_by(|(p, _)| p.cmp(&probe)) {
                Ok(at) => return Some(at),
                Err(0) => return None,
                Err(after) => after - 1,
            };
            let prefix = self.entries[at].0;
            let common = prefix.common_prefix_len_with_key(key);
            if common == prefix.depth() {
                return Some(at);
            }
            depth = common;
            end = at;
        }
    }

    /// Calls `f` with the index of every entry in `entries[..end]` that
    /// contains `key` and is at most `depth` deep, deepest first: each
    /// container's ancestors precede it, so the search repeats below the
    /// last hit.
    fn containers(&self, key: Key, mut depth: u32, mut end: usize, mut f: impl FnMut(usize)) {
        while let Some(at) = self.deepest_container(key, depth, end) {
            f(at);
            match self.entries[at].0.depth().checked_sub(1) {
                Some(above) => (depth, end) = (above, at),
                None => return,
            }
        }
    }

    fn longest_match_at(&self, key: Key) -> Option<usize> {
        self.deepest_container(key, key.width().get(), self.entries.len())
    }

    /// Finds the deepest entry whose prefix contains `key`.
    pub fn longest_prefix_match(&self, key: Key) -> Option<(Prefix, &V)> {
        let at = self.longest_match_at(key)?;
        let (prefix, value) = &self.entries[at];
        Some((*prefix, value))
    }

    /// [`PrefixMap::longest_prefix_match`] with a mutable value.
    pub fn longest_prefix_match_mut(&mut self, key: Key) -> Option<(Prefix, &mut V)> {
        let at = self.longest_match_at(key)?;
        let (prefix, value) = &mut self.entries[at];
        Some((*prefix, value))
    }

    /// Visits every entry whose prefix contains `key`, root to leaf.
    pub fn for_each_containing<'a>(&'a self, key: Key, mut f: impl FnMut(Prefix, &'a V)) {
        // At most one container per depth, 0 to 64.
        let mut hits = [0usize; 65];
        let mut n = 0;
        self.containers(key, key.width().get(), self.entries.len(), |at| {
            hits[n] = at;
            n += 1;
        });
        for &at in hits[..n].iter().rev() {
            let (prefix, value) = &self.entries[at];
            f(*prefix, value);
        }
    }

    /// The paper's `d_min`: the longest common prefix between `key` and
    /// *any* entry (0 if the map is empty). The entry achieving it need
    /// not contain the key (entry `01011*` and key `0101010` share 4
    /// bits).
    ///
    /// In sorted order the entry sharing the most bits with the key is a
    /// neighbour of the key's full-depth group: for `a ≤ b ≤ c`,
    /// `lcp(a, c) = min(lcp(a, b), lcp(b, c))`.
    pub fn max_common_prefix_len(&self, key: Key) -> u32 {
        let width = key.width().get();
        let at = match self.find(Prefix::of_key(key, width)) {
            Ok(_) => return width,
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

    /// All entries whose prefix *intersects* `range`: the ancestors
    /// containing it plus the whole subtree below it, in binary-string
    /// order. In a prefix-free cover this is exactly the set of groups a
    /// range query over `range` must visit (the paper's §7 range-query
    /// extension).
    pub fn intersecting(&self, range: Prefix) -> Vec<(Prefix, &V)> {
        let start = self.find(range).unwrap_or_else(|at| at);
        let mut out = Vec::new();
        if let Some(above) = range.depth().checked_sub(1) {
            self.containers(range.min_key(), above, start, |at| {
                let (prefix, value) = &self.entries[at];
                out.push((*prefix, value));
            });
            out.reverse();
        }
        let subtree = self.entries[start..]
            .iter()
            .take_while(|(p, _)| range.is_prefix_of(*p));
        out.extend(subtree.map(|(p, v)| (*p, v)));
        out
    }

    /// True if no entry's prefix strictly contains another entry's prefix.
    /// An entry's subtree starts right after it, so only neighbours need
    /// comparing.
    pub fn is_prefix_free(&self) -> bool {
        self.entries
            .windows(2)
            .all(|pair| !pair[0].0.is_prefix_of(pair[1].0))
    }
}

impl<V: fmt::Debug> fmt::Debug for PrefixMap<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// Depth statistics `(min, mean, max)` over `groups`; `None` if there are
/// none. This feeds the Figure 4 "depth variation" panel.
pub fn depth_stats(groups: impl IntoIterator<Item = Prefix>) -> Option<(u32, f64, u32)> {
    let mut min = u32::MAX;
    let mut max = 0u32;
    let mut sum = 0u64;
    let mut n = 0u64;
    for p in groups {
        min = min.min(p.depth());
        max = max.max(p.depth());
        sum += u64::from(p.depth());
        n += 1;
    }
    (n > 0).then(|| (min, sum as f64 / n as f64, max))
}

/// A prefix-free set of key groups with split/merge operations.
///
/// Invariant: no member is a prefix of another. Starting from a set that
/// partitions the key space (e.g. [`PrefixCover::uniform`]), splits and
/// merges preserve the partition — the global shape of a CLASH system's
/// active groups.
///
/// # Example
///
/// ```
/// use clash_keyspace::cover::PrefixCover;
/// use clash_keyspace::key::Key;
///
/// let mut cover = PrefixCover::uniform(7.try_into()?, 2)?; // 00*,01*,10*,11*
/// assert_eq!(cover.len(), 4);
/// let g = cover.group_of(Key::parse("0110101", 7)?).unwrap();
/// assert_eq!(g.to_string(), "01*");
/// cover.split(g)?;
/// assert_eq!(cover.len(), 5);
/// assert!(cover.is_partition());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct PrefixCover {
    /// Kept beside the groups: an empty cover must still know the key
    /// space it fails to cover.
    width: KeyWidth,
    map: PrefixMap<()>,
}

impl PrefixCover {
    /// Creates an empty cover (no groups) of the `width`-bit key space.
    pub fn new(width: KeyWidth) -> Self {
        PrefixCover {
            width,
            map: PrefixMap::new(),
        }
    }

    /// Creates the uniform cover of all `2^depth` groups at `depth` — the
    /// initial state of a CLASH system (the paper starts at depth 6).
    ///
    /// # Errors
    ///
    /// Returns [`KeyError::DepthOutOfRange`] if `depth > width` and
    /// [`KeyError::InvalidWidth`] if `depth > 32` (the uniform cover would
    /// not fit in memory).
    pub fn uniform(width: KeyWidth, depth: u32) -> Result<Self, KeyError> {
        if depth > width.get() {
            return Err(KeyError::DepthOutOfRange {
                depth,
                width: width.get(),
            });
        }
        if depth > 32 {
            return Err(KeyError::InvalidWidth { width: depth });
        }
        let mut cover = PrefixCover::new(width);
        for pattern in 0..(1u64 << depth) {
            let p = Prefix::new(pattern, depth, width).expect("pattern bounded by depth");
            cover.map.insert(p, ());
        }
        Ok(cover)
    }

    /// The key width.
    pub fn width(&self) -> KeyWidth {
        self.width
    }

    /// Number of groups.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if the cover has no groups.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// True if `group` is a member.
    pub fn contains(&self, group: Prefix) -> bool {
        self.map.contains(group)
    }

    /// The unique group containing `key`, if any.
    pub fn group_of(&self, key: Key) -> Option<Prefix> {
        self.map.longest_prefix_match(key).map(|(p, _)| p)
    }

    /// Inserts a group.
    ///
    /// # Errors
    ///
    /// Returns [`KeyError::DepthOutOfRange`] if the group overlaps an
    /// existing member (would break prefix-freeness).
    pub fn insert(&mut self, group: Prefix) -> Result<(), KeyError> {
        if !self.map.intersecting(group).is_empty() {
            return Err(KeyError::DepthOutOfRange {
                depth: group.depth(),
                width: group.width().get(),
            });
        }
        self.map.insert(group, ());
        Ok(())
    }

    /// Replaces `group` with its two children; returns them.
    ///
    /// # Errors
    ///
    /// Returns [`KeyError::DepthOutOfRange`] if `group` is not a member or
    /// is at full depth.
    pub fn split(&mut self, group: Prefix) -> Result<(Prefix, Prefix), KeyError> {
        if !self.map.contains(group) {
            return Err(KeyError::DepthOutOfRange {
                depth: group.depth(),
                width: group.width().get(),
            });
        }
        let (l, r) = group.split()?;
        self.map.remove(group);
        self.map.insert(l, ());
        self.map.insert(r, ());
        Ok((l, r))
    }

    /// Replaces the two children of `parent` with `parent`; the inverse of
    /// [`PrefixCover::split`].
    ///
    /// # Errors
    ///
    /// Returns [`KeyError::DepthOutOfRange`] unless *both* children are
    /// current members.
    pub fn merge(&mut self, parent: Prefix) -> Result<(), KeyError> {
        let (l, r) = parent.split()?;
        if !self.map.contains(l) || !self.map.contains(r) {
            return Err(KeyError::DepthOutOfRange {
                depth: parent.depth(),
                width: parent.width().get(),
            });
        }
        self.map.remove(l);
        self.map.remove(r);
        self.map.insert(parent, ());
        Ok(())
    }

    /// Iterates over the groups in binary-string order.
    pub fn iter(&self) -> impl Iterator<Item = Prefix> + '_ {
        self.map.prefixes()
    }

    /// True if the groups are prefix-free *and* jointly cover the entire
    /// key space — i.e. they form a partition.
    pub fn is_partition(&self) -> bool {
        if !self.map.is_prefix_free() {
            return false;
        }
        // Sum of 2^(N-d) over groups must equal 2^N. Work in units of the
        // deepest group to stay in integer arithmetic.
        let width = self.width.get();
        let mut total: u128 = 0;
        for p in self.map.prefixes() {
            total += 1u128 << (width - p.depth());
        }
        total == 1u128 << width
    }

    /// Depth statistics over the groups: `(min, mean, max)`. `None` if
    /// empty. This feeds the Figure 4 "depth variation" panel.
    pub fn depth_stats(&self) -> Option<(u32, f64, u32)> {
        depth_stats(self.map.prefixes())
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

    #[test]
    fn insert_get_remove() {
        let mut m: PrefixMap<u32> = PrefixMap::new();
        assert_eq!(m.insert(p("011*"), 1), None);
        assert_eq!(m.insert(p("011*"), 2), Some(1));
        assert_eq!(m.get(p("011*")), Some(&2));
        assert_eq!(m.len(), 1);
        assert_eq!(m.remove(p("011*")), Some(2));
        assert!(m.is_empty());
        assert_eq!(m.remove(p("011*")), None);
    }

    #[test]
    fn nested_entries_coexist() {
        let mut m: PrefixMap<&str> = PrefixMap::new();
        m.insert(p("011*"), "ancestor");
        m.insert(p("0110*"), "leaf");
        assert_eq!(m.len(), 2);
        assert!(!m.is_prefix_free());
        m.remove(p("011*"));
        assert!(m.is_prefix_free());
    }

    #[test]
    fn longest_prefix_match_picks_deepest() {
        let mut m: PrefixMap<&str> = PrefixMap::new();
        m.insert(p("011*"), "shallow");
        m.insert(p("0110*"), "deep");
        let (g, v) = m.longest_prefix_match(k("0110101")).unwrap();
        assert_eq!(g, p("0110*"));
        assert_eq!(*v, "deep");
        // A key only covered by the shallow entry.
        let (g, v) = m.longest_prefix_match(k("0111000")).unwrap();
        assert_eq!(g, p("011*"));
        assert_eq!(*v, "shallow");
        assert!(m.longest_prefix_match(k("1111111")).is_none());
    }

    #[test]
    fn lpm_includes_root_entry() {
        let mut m: PrefixMap<&str> = PrefixMap::new();
        m.insert(Prefix::root(w(7)), "root");
        let (g, v) = m.longest_prefix_match(k("1010101")).unwrap();
        assert_eq!(g.depth(), 0);
        assert_eq!(*v, "root");
    }

    #[test]
    fn iteration_is_binary_string_ordered() {
        let mut m: PrefixMap<u32> = PrefixMap::new();
        for s in ["1*", "0110*", "011*", "00*", "0111111"] {
            m.insert(p(s), 0);
        }
        let order: Vec<String> = m.prefixes().map(|g| g.to_string()).collect();
        assert_eq!(order, vec!["00*", "011*", "0110*", "0111111", "1*"]);
    }

    #[test]
    fn intersecting_collects_ancestors_and_subtree() {
        let mut m: PrefixMap<u32> = PrefixMap::new();
        for (i, s) in ["0*", "01*", "0110*", "0111*", "010*", "1*"]
            .iter()
            .enumerate()
        {
            m.insert(p(s), i as u32);
        }
        // Range 011*: ancestors 0*, 01* plus subtree 0110*, 0111*.
        let hits: Vec<String> = m
            .intersecting(p("011*"))
            .iter()
            .map(|(g, _)| g.to_string())
            .collect();
        assert_eq!(hits, vec!["0*", "01*", "0110*", "0111*"]);
        // A range wholly inside one entry returns just the ancestors.
        let hits: Vec<String> = m
            .intersecting(p("01101*"))
            .iter()
            .map(|(g, _)| g.to_string())
            .collect();
        assert_eq!(hits, vec!["0*", "01*", "0110*"]);
        // A range matching nothing below but one ancestor.
        let hits = m.intersecting(p("100*"));
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].0, p("1*"));
    }

    #[test]
    fn intersecting_on_exact_entry_includes_it() {
        let mut m: PrefixMap<u32> = PrefixMap::new();
        m.insert(p("011*"), 1);
        let hits = m.intersecting(p("011*"));
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].0, p("011*"));
    }

    /// Each group mapped to itself.
    fn map_of(groups: &[&str]) -> PrefixMap<Prefix> {
        let mut m = PrefixMap::new();
        for s in groups {
            m.insert(p(s), p(s));
        }
        m
    }

    /// The deepest group of `m` containing `key`.
    fn deepest(m: &PrefixMap<Prefix>, key: &str) -> Option<Prefix> {
        m.longest_prefix_match(k(key)).map(|(g, _)| g)
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
        let m: PrefixMap<Prefix> = PrefixMap::new();
        assert_eq!(m.max_common_prefix_len(k("0101010")), 0);
        assert!(deepest(&m, "0101010").is_none());
    }

    #[test]
    fn dmin_exceeds_lpm_depth_when_entry_diverges_late() {
        let m = map_of(&["01011*"]);
        // Key 0101010 is NOT contained in 01011*, so lpm is None, but dmin=4.
        assert!(deepest(&m, "0101010").is_none());
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
        assert_eq!(deepest(&m, "0111000"), Some(p("011*")));
        // Two retries: 01011* shares 2 bits, then 0011* shares 1.
        let m = map_of(&["0*", "00*", "0011*", "01011*"]);
        assert_eq!(deepest(&m, "0110000"), Some(p("0*")));
        assert!(deepest(&map_of(&["01*", "001*"]), "0000000").is_none());
        // A full-depth entry is an exact hit.
        let m = map_of(&["0*", "0101010"]);
        assert_eq!(deepest(&m, "0101010"), Some(p("0101010")));
        assert_eq!(deepest(&m, "0101011"), Some(p("0*")));
    }

    #[test]
    fn uniform_cover_is_partition() {
        let c = PrefixCover::uniform(w(7), 3).unwrap();
        assert_eq!(c.len(), 8);
        assert!(c.is_partition());
        assert_eq!(c.depth_stats(), Some((3, 3.0, 3)));
    }

    #[test]
    fn uniform_depth_zero_is_single_root() {
        let c = PrefixCover::uniform(w(7), 0).unwrap();
        assert_eq!(c.len(), 1);
        assert!(c.is_partition());
    }

    #[test]
    fn uniform_rejects_depth_beyond_width() {
        assert!(PrefixCover::uniform(w(7), 8).is_err());
    }

    #[test]
    fn split_and_merge_preserve_partition() {
        let mut c = PrefixCover::uniform(w(7), 2).unwrap();
        let g = c.group_of(k("0110101")).unwrap();
        let (l, r) = c.split(g).unwrap();
        assert!(c.is_partition());
        assert!(c.contains(l) && c.contains(r));
        assert!(!c.contains(g));
        c.merge(g).unwrap();
        assert!(c.is_partition());
        assert!(c.contains(g));
    }

    #[test]
    fn merge_requires_both_children() {
        let mut c = PrefixCover::uniform(w(7), 2).unwrap();
        let g = c.group_of(k("0110101")).unwrap();
        c.split(g).unwrap();
        let (l, _r) = g.split().unwrap();
        c.split(l).unwrap(); // left child is now itself split
        assert!(c.merge(g).is_err(), "grandchildren present, cannot merge");
    }

    #[test]
    fn group_of_is_unique_in_partition() {
        let mut c = PrefixCover::uniform(w(7), 2).unwrap();
        for _ in 0..10 {
            let g = c.group_of(k("0110101")).unwrap();
            if g.depth() == 7 {
                break;
            }
            c.split(g).unwrap();
        }
        // Every key still has exactly one group.
        for bits in 0..128u64 {
            let key = Key::from_bits_truncated(bits, w(7));
            assert!(c.group_of(key).is_some(), "key {key} lost its group");
        }
    }

    #[test]
    fn insert_rejects_overlap() {
        let mut c = PrefixCover::new(w(7));
        c.insert(p("01*")).unwrap();
        assert!(c.insert(p("011*")).is_err(), "descendant must be rejected");
        assert!(c.insert(p("0*")).is_err(), "ancestor must be rejected");
        c.insert(p("10*")).unwrap();
        assert_eq!(c.len(), 2);
        // Above a member that is deeper than a child, on the side
        // `min_key()` does not walk into.
        c.insert(p("11011*")).unwrap();
        assert!(
            c.insert(p("11*")).is_err(),
            "grand-ancestor must be rejected"
        );
        assert!(c.insert(p("1*")).is_err());
        c.insert(p("111*")).unwrap();
        assert_eq!(c.len(), 4);
    }

    #[test]
    fn split_of_nonmember_fails() {
        let mut c = PrefixCover::uniform(w(7), 2).unwrap();
        assert!(c.split(p("0110*")).is_err());
    }
}
