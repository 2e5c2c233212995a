//! Prefix-keyed tries for maps that hold every group of a run.
//!
//! * [`PrefixMap`] — a binary trie mapping [`Prefix`]es to values. Entries
//!   may be nested (an entry at `011*` can coexist with one at `0110*`).
//!   Supports longest-prefix match, the walk over every entry containing
//!   a key, and range intersection. It backs the cluster-wide group
//!   index, [`PrefixCover`] and the continuous-query subscriptions of
//!   `clash-streamquery`: with tens of thousands
//!   of groups changing per run, an insert or remove is a walk down one
//!   path, not a shift of a sorted array. A server's own table holds only
//!   its few groups, so `clash-core` keeps those in a sorted vector and
//!   answers the paper's `d_min` there.
//! * [`PrefixCover`] — a *prefix-free* set of groups with split/merge
//!   operations, used as the global oracle in tests and for client-side
//!   caching: the set of all active key groups in a CLASH system always
//!   forms a prefix-free cover.

use std::fmt;

use crate::error::KeyError;
use crate::key::{Key, KeyWidth};
use crate::prefix::Prefix;

#[derive(Debug, Clone)]
struct Node<V> {
    value: Option<V>,
    children: [Option<Box<Node<V>>>; 2],
}

impl<V> Node<V> {
    fn new() -> Self {
        Node {
            value: None,
            children: [None, None],
        }
    }

    fn is_leaf_shell(&self) -> bool {
        self.value.is_none() && self.children[0].is_none() && self.children[1].is_none()
    }
}

/// A binary trie keyed by [`Prefix`], allowing nested entries.
///
/// # Example
///
/// ```
/// use clash_keyspace::cover::PrefixMap;
/// use clash_keyspace::key::Key;
/// use clash_keyspace::prefix::Prefix;
///
/// let mut table: PrefixMap<&str> = PrefixMap::new(7.try_into()?);
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
    root: Node<V>,
    width: KeyWidth,
    len: usize,
}

impl<V> PrefixMap<V> {
    /// Creates an empty map over keys of the given width.
    pub fn new(width: KeyWidth) -> Self {
        PrefixMap {
            root: Node::new(),
            width,
            len: 0,
        }
    }

    /// The key width this map covers.
    pub fn width(&self) -> KeyWidth {
        self.width
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the map has no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn node_for(&self, prefix: Prefix) -> Option<&Node<V>> {
        let mut node = &self.root;
        for i in 0..prefix.depth() {
            let bit = ((prefix.pattern() >> (prefix.depth() - 1 - i)) & 1) as usize;
            node = node.children[bit].as_deref()?;
        }
        Some(node)
    }

    /// Inserts `value` at `prefix`, returning the previous value if any.
    ///
    /// # Panics
    ///
    /// Panics if the prefix width differs from the map width.
    pub fn insert(&mut self, prefix: Prefix, value: V) -> Option<V> {
        assert_eq!(prefix.width(), self.width, "prefix width mismatch");
        let mut node = &mut self.root;
        for i in 0..prefix.depth() {
            let bit = ((prefix.pattern() >> (prefix.depth() - 1 - i)) & 1) as usize;
            node = node.children[bit].get_or_insert_with(|| Box::new(Node::new()));
        }
        let old = node.value.replace(value);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Returns the value stored exactly at `prefix`.
    pub fn get(&self, prefix: Prefix) -> Option<&V> {
        assert_eq!(prefix.width(), self.width, "prefix width mismatch");
        self.node_for(prefix)?.value.as_ref()
    }

    /// Mutable access to the value stored exactly at `prefix`.
    pub fn get_mut(&mut self, prefix: Prefix) -> Option<&mut V> {
        assert_eq!(prefix.width(), self.width, "prefix width mismatch");
        let mut node = &mut self.root;
        for i in 0..prefix.depth() {
            let bit = ((prefix.pattern() >> (prefix.depth() - 1 - i)) & 1) as usize;
            node = node.children[bit].as_deref_mut()?;
        }
        node.value.as_mut()
    }

    /// True if an entry exists exactly at `prefix`.
    pub fn contains(&self, prefix: Prefix) -> bool {
        self.get(prefix).is_some()
    }

    /// Removes and returns the value at `prefix`, pruning empty trie nodes.
    pub fn remove(&mut self, prefix: Prefix) -> Option<V> {
        assert_eq!(prefix.width(), self.width, "prefix width mismatch");
        fn rec<V>(node: &mut Node<V>, prefix: Prefix, i: u32) -> Option<V> {
            if i == prefix.depth() {
                return node.value.take();
            }
            let bit = ((prefix.pattern() >> (prefix.depth() - 1 - i)) & 1) as usize;
            let child = node.children[bit].as_deref_mut()?;
            let out = rec(child, prefix, i + 1);
            if out.is_some() && child.is_leaf_shell() {
                node.children[bit] = None;
            }
            out
        }
        let out = rec(&mut self.root, prefix, 0);
        if out.is_some() {
            self.len -= 1;
        }
        out
    }

    /// Finds the deepest entry whose prefix contains `key`.
    ///
    /// # Panics
    ///
    /// Panics if the key width differs from the map width.
    pub fn longest_prefix_match(&self, key: Key) -> Option<(Prefix, &V)> {
        let mut deepest = None;
        self.for_each_containing(key, |prefix, value| deepest = Some((prefix, value)));
        deepest
    }

    /// Visits every entry whose prefix contains `key`, root to leaf: one
    /// descent along the key's bits.
    ///
    /// # Panics
    ///
    /// Panics if the key width differs from the map width.
    pub fn for_each_containing<'a>(&'a self, key: Key, mut f: impl FnMut(Prefix, &'a V)) {
        assert_eq!(key.width(), self.width, "key width mismatch");
        let mut node = &self.root;
        let mut depth = 0;
        loop {
            if let Some(v) = node.value.as_ref() {
                f(Prefix::of_key(key, depth), v);
            }
            if depth == self.width.get() {
                return;
            }
            match node.children[key.bit(depth) as usize].as_deref() {
                Some(child) => node = child,
                None => return,
            }
            depth += 1;
        }
    }

    /// Iterates over `(prefix, value)` pairs in binary-string order
    /// (parents before children).
    pub fn iter(&self) -> Iter<'_, V> {
        Iter {
            stack: vec![(&self.root, Prefix::root(self.width))],
        }
    }

    /// All entries whose prefix *intersects* `range`: the ancestors
    /// containing it plus the whole subtree below it, in binary-string
    /// order. In a prefix-free cover this is exactly the set of groups a
    /// range query over `range` must visit (the paper's §7 range-query
    /// extension).
    pub fn intersecting(&self, range: Prefix) -> Vec<(Prefix, &V)> {
        assert_eq!(range.width(), self.width, "range width mismatch");
        let mut out = Vec::new();
        let mut node = &self.root;
        // Walk down the range's own bit path, collecting ancestors.
        if let Some(v) = node.value.as_ref() {
            out.push((Prefix::root(self.width), v));
        }
        for i in 0..range.depth() {
            let bit = ((range.pattern() >> (range.depth() - 1 - i)) & 1) as usize;
            match node.children[bit].as_deref() {
                Some(child) => {
                    node = child;
                    if let Some(v) = child.value.as_ref() {
                        let p = Prefix::new(
                            range.pattern() >> (range.depth() - 1 - i),
                            i + 1,
                            self.width,
                        )
                        .expect("trie path is a valid prefix");
                        out.push((p, v));
                    }
                }
                None => return out,
            }
        }
        // Collect the entire subtree at the range node (excluding the
        // range entry itself, already collected above).
        let mut stack: Vec<(&Node<V>, Prefix)> = Vec::new();
        for bit in [1u8, 0u8] {
            if let Some(child) = node.children[bit as usize].as_deref() {
                stack.push((child, range.child(bit).expect("below range depth")));
            }
        }
        while let Some((n, p)) = stack.pop() {
            for bit in [1u8, 0u8] {
                if let Some(child) = n.children[bit as usize].as_deref() {
                    stack.push((child, p.child(bit).expect("trie depth bounded")));
                }
            }
            if let Some(v) = n.value.as_ref() {
                out.push((p, v));
            }
        }
        out
    }

    /// Iterates over the stored prefixes in binary-string order.
    pub fn prefixes(&self) -> impl Iterator<Item = Prefix> + '_ {
        self.iter().map(|(p, _)| p)
    }

    /// True if no entry's prefix strictly contains another entry's prefix.
    pub fn is_prefix_free(&self) -> bool {
        fn rec<V>(node: &Node<V>, seen_value_above: bool) -> bool {
            if seen_value_above && node.value.is_some() {
                return false;
            }
            let seen = seen_value_above || node.value.is_some();
            node.children.iter().flatten().all(|child| rec(child, seen))
        }
        rec(&self.root, false)
    }

    /// Removes all entries.
    pub fn clear(&mut self) {
        self.root = Node::new();
        self.len = 0;
    }
}

/// Iterator over `(Prefix, &V)` pairs of a [`PrefixMap`] in binary-string
/// order.
pub struct Iter<'a, V> {
    stack: Vec<(&'a Node<V>, Prefix)>,
}

impl<'a, V> Iterator for Iter<'a, V> {
    type Item = (Prefix, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        while let Some((node, prefix)) = self.stack.pop() {
            // Push right first so left pops first (binary-string order).
            for bit in [1u8, 0u8] {
                if let Some(child) = node.children[bit as usize].as_deref() {
                    let child_prefix = prefix.child(bit).expect("trie depth bounded by width");
                    self.stack.push((child, child_prefix));
                }
            }
            if let Some(v) = node.value.as_ref() {
                return Some((prefix, v));
            }
        }
        None
    }
}

impl<V: fmt::Debug> fmt::Debug for PrefixMap<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<V> Extend<(Prefix, V)> for PrefixMap<V> {
    fn extend<T: IntoIterator<Item = (Prefix, V)>>(&mut self, iter: T) {
        for (p, v) in iter {
            self.insert(p, v);
        }
    }
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
    map: PrefixMap<()>,
}

impl PrefixCover {
    /// Creates an empty cover (no groups).
    pub fn new(width: KeyWidth) -> Self {
        PrefixCover {
            map: PrefixMap::new(width),
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
        self.map.width()
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
        let overlaps = self
            .map
            .longest_prefix_match(group.min_key())
            .map(|(p, _)| p.is_prefix_of(group) || group.is_prefix_of(p))
            .unwrap_or(false)
            || self.any_descendant(group);
        if overlaps {
            return Err(KeyError::DepthOutOfRange {
                depth: group.depth(),
                width: group.width().get(),
            });
        }
        self.map.insert(group, ());
        Ok(())
    }

    /// True if a member lies strictly below `group`. Removal prunes
    /// empty trie nodes, so one does iff `group`'s node has a child.
    fn any_descendant(&self, group: Prefix) -> bool {
        self.map
            .node_for(group)
            .is_some_and(|n| n.children.iter().any(Option::is_some))
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
        let width = self.map.width().get();
        let mut total: u128 = 0;
        for p in self.map.prefixes() {
            total += 1u128 << (width - p.depth());
        }
        total == 1u128 << width
    }

    /// Depth statistics over the groups: `(min, mean, max)`. `None` if
    /// empty. This feeds the Figure 4 "depth variation" panel.
    pub fn depth_stats(&self) -> Option<(u32, f64, u32)> {
        let mut min = u32::MAX;
        let mut max = 0u32;
        let mut sum = 0u64;
        let mut n = 0u64;
        for p in self.map.prefixes() {
            min = min.min(p.depth());
            max = max.max(p.depth());
            sum += u64::from(p.depth());
            n += 1;
        }
        (n > 0).then(|| (min, sum as f64 / n as f64, max))
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
        let mut m: PrefixMap<u32> = PrefixMap::new(w(7));
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
        let mut m: PrefixMap<&str> = PrefixMap::new(w(7));
        m.insert(p("011*"), "ancestor");
        m.insert(p("0110*"), "leaf");
        assert_eq!(m.len(), 2);
        assert!(!m.is_prefix_free());
        m.remove(p("011*"));
        assert!(m.is_prefix_free());
    }

    #[test]
    fn longest_prefix_match_picks_deepest() {
        let mut m: PrefixMap<&str> = PrefixMap::new(w(7));
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
        let mut m: PrefixMap<&str> = PrefixMap::new(w(7));
        m.insert(Prefix::root(w(7)), "root");
        let (g, v) = m.longest_prefix_match(k("1010101")).unwrap();
        assert_eq!(g.depth(), 0);
        assert_eq!(*v, "root");
    }

    #[test]
    fn iteration_is_binary_string_ordered() {
        let mut m: PrefixMap<u32> = PrefixMap::new(w(7));
        for s in ["1*", "0110*", "011*", "00*", "0111111"] {
            m.insert(p(s), 0);
        }
        let order: Vec<String> = m.prefixes().map(|g| g.to_string()).collect();
        assert_eq!(order, vec!["00*", "011*", "0110*", "0111111", "1*"]);
    }

    #[test]
    fn intersecting_collects_ancestors_and_subtree() {
        let mut m: PrefixMap<u32> = PrefixMap::new(w(7));
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
        let mut m: PrefixMap<u32> = PrefixMap::new(w(7));
        m.insert(p("011*"), 1);
        let hits = m.intersecting(p("011*"));
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].0, p("011*"));
    }

    #[test]
    fn extend_collects_pairs() {
        let mut m: PrefixMap<u32> = PrefixMap::new(w(7));
        m.extend([(p("0*"), 1), (p("1*"), 2)]);
        assert_eq!(m.len(), 2);
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
