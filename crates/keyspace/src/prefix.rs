//! Key groups: `(virtual key, depth)` pairs in the paper's wildcard notation.
//!
//! A [`Prefix`] of depth `d` over an N-bit key space names the group of all
//! `2^(N-d)` keys sharing its first `d` bits (§3–4 of the paper). The
//! **virtual key** of the group is the prefix zero-padded to N bits — the
//! value that actually gets hashed and routed through the DHT.
//!
//! The central trick of CLASH lives here: a group's **left child** (appended
//! `0`) has the *same* virtual key, hence the same hash, hence the same
//! server; only the **right child** (appended `1`) moves.

use std::cmp::Ordering;
use std::fmt;

use crate::error::KeyError;
use crate::key::{shl64, shr64, Key, KeyWidth};

/// A key group: all keys of a fixed width sharing a `depth`-bit prefix.
///
/// # Example (the paper's §4 walk-through)
///
/// ```
/// use clash_keyspace::prefix::Prefix;
///
/// // Splitting "0110*" (depth 4, 7-bit space) yields "01100*" and "01101*".
/// let g = Prefix::parse("0110*", 7)?;
/// let (left, right) = g.split()?;
/// assert_eq!(left.to_string(), "01100*");
/// assert_eq!(right.to_string(), "01101*");
///
/// // The left child expands to the same 7-bit virtual key (decimal 48)...
/// assert_eq!(left.virtual_key(), g.virtual_key());
/// assert_eq!(g.virtual_key().bits(), 48);
/// // ...while the right child expands to a different one (decimal 52).
/// assert_eq!(right.virtual_key().bits(), 52);
/// # Ok::<(), clash_keyspace::error::KeyError>(())
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Prefix {
    /// The first `depth` bits, right-aligned.
    pattern: u64,
    depth: u32,
    width: KeyWidth,
}

impl Prefix {
    /// The root prefix (depth 0): the group of *all* keys of this width.
    pub fn root(width: KeyWidth) -> Self {
        Prefix {
            pattern: 0,
            depth: 0,
            width,
        }
    }

    /// Creates a prefix from a right-aligned pattern and a depth.
    ///
    /// # Errors
    ///
    /// Returns [`KeyError::DepthOutOfRange`] if `depth > width`, or
    /// [`KeyError::BitsOutOfRange`] if `pattern` has bits above `depth`.
    pub fn new(pattern: u64, depth: u32, width: KeyWidth) -> Result<Self, KeyError> {
        if depth > width.get() {
            return Err(KeyError::DepthOutOfRange {
                depth,
                width: width.get(),
            });
        }
        let mask = if depth == 64 {
            u64::MAX
        } else {
            (1u64 << depth) - 1
        };
        if pattern & !mask != 0 {
            return Err(KeyError::BitsOutOfRange {
                bits: pattern,
                width: depth,
            });
        }
        Ok(Prefix {
            pattern,
            depth,
            width,
        })
    }

    /// The group containing `key` at the given depth — the paper's
    /// `Shape(k, d)` restricted to its group identity.
    ///
    /// # Panics
    ///
    /// Panics if `depth > key.width()`.
    #[inline]
    pub fn of_key(key: Key, depth: u32) -> Self {
        Prefix {
            pattern: key.top_bits(depth),
            depth,
            width: key.width(),
        }
    }

    /// Parses wildcard notation: `"0110*"` (group) or a full-width string
    /// such as `"0110101"` (a singleton group at depth = width).
    ///
    /// # Errors
    ///
    /// Returns [`KeyError::ParseError`] for malformed input and
    /// [`KeyError::DepthOutOfRange`] if the prefix is longer than the width.
    pub fn parse(s: &str, width: u32) -> Result<Self, KeyError> {
        let width = KeyWidth::new(width)?;
        let (body, is_group) = match s.strip_suffix('*') {
            Some(b) => (b, true),
            None => (s, false),
        };
        if !is_group && body.len() != width.get() as usize {
            return Err(KeyError::ParseError {
                input: s.to_owned(),
                reason: "full key must match the width (or end with '*')",
            });
        }
        if body.len() > width.get() as usize {
            return Err(KeyError::DepthOutOfRange {
                depth: body.len() as u32,
                width: width.get(),
            });
        }
        let mut pattern = 0u64;
        for c in body.chars() {
            pattern = (pattern << 1)
                | match c {
                    '0' => 0,
                    '1' => 1,
                    _ => {
                        return Err(KeyError::ParseError {
                            input: s.to_owned(),
                            reason: "prefixes may contain only '0', '1' and a trailing '*'",
                        })
                    }
                };
        }
        Prefix::new(pattern, body.len() as u32, width)
    }

    /// The group's depth (`d` in the paper).
    pub const fn depth(self) -> u32 {
        self.depth
    }

    /// The key width (`N` in the paper).
    pub const fn width(self) -> KeyWidth {
        self.width
    }

    /// The first `depth` bits, right-aligned.
    pub const fn pattern(self) -> u64 {
        self.pattern
    }

    /// The virtual key: the prefix zero-padded to the full width (§4).
    /// This is the value that gets hashed and routed through the DHT.
    pub fn virtual_key(self) -> Key {
        let bits = shl64(self.pattern, self.width.get() - self.depth);
        Key::from_bits_truncated(bits, self.width)
    }

    /// Number of distinct keys in this group (`2^(N-d)`), saturating at
    /// `u64::MAX`.
    pub fn key_count(self) -> u64 {
        let free = self.width.get() - self.depth;
        if free >= 64 {
            u64::MAX
        } else {
            1u64 << free
        }
    }

    /// True if `key` belongs to this group.
    ///
    /// # Panics
    ///
    /// Panics if the key width differs from the prefix width.
    pub fn contains(self, key: Key) -> bool {
        assert_eq!(
            key.width(),
            self.width,
            "key width {} does not match prefix width {}",
            key.width(),
            self.width
        );
        key.top_bits(self.depth) == self.pattern
    }

    /// True if this prefix is a (non-strict) ancestor of `other`, i.e. every
    /// key in `other` is also in `self`.
    pub fn is_prefix_of(self, other: Prefix) -> bool {
        self.width == other.width
            && self.depth <= other.depth
            && shr64(other.pattern, other.depth - self.depth) == self.pattern
    }

    /// Length of the common prefix between this group's pattern and `key`
    /// (at most `depth`). This is the per-entry quantity behind the paper's
    /// `d_min` in the `INCORRECT_DEPTH` response.
    #[inline]
    pub fn common_prefix_len_with_key(self, key: Key) -> u32 {
        debug_assert_eq!(key.width(), self.width);
        let key_top = key.top_bits(self.depth);
        let diff = key_top ^ self.pattern;
        if diff == 0 {
            self.depth
        } else {
            let significant = 64 - diff.leading_zeros();
            self.depth - significant
        }
    }

    /// The child group extending this prefix with `bit` (0 = left,
    /// 1 = right).
    ///
    /// # Errors
    ///
    /// Returns [`KeyError::DepthOutOfRange`] if the prefix is already at
    /// full depth.
    pub fn child(self, bit: u8) -> Result<Prefix, KeyError> {
        debug_assert!(bit <= 1);
        if self.depth == self.width.get() {
            return Err(KeyError::DepthOutOfRange {
                depth: self.depth + 1,
                width: self.width.get(),
            });
        }
        Ok(Prefix {
            pattern: (self.pattern << 1) | u64::from(bit),
            depth: self.depth + 1,
            width: self.width,
        })
    }

    /// Splits this group into its two depth+1 children `(left, right)` —
    /// the paper's binary splitting step. The left child shares this
    /// group's virtual key; the right child does not.
    ///
    /// # Errors
    ///
    /// Returns [`KeyError::DepthOutOfRange`] at full depth.
    pub fn split(self) -> Result<(Prefix, Prefix), KeyError> {
        Ok((self.child(0)?, self.child(1)?))
    }

    /// The parent group (one bit shorter), or `None` at the root.
    pub fn parent(self) -> Option<Prefix> {
        if self.depth == 0 {
            return None;
        }
        Some(Prefix {
            pattern: self.pattern >> 1,
            depth: self.depth - 1,
            width: self.width,
        })
    }

    /// The sibling group (same parent, last bit flipped), or `None` at the
    /// root.
    pub fn sibling(self) -> Option<Prefix> {
        if self.depth == 0 {
            return None;
        }
        Some(Prefix {
            pattern: self.pattern ^ 1,
            depth: self.depth,
            width: self.width,
        })
    }

    /// The last bit of the pattern: 0 if this is a left child, 1 if right.
    /// Returns `None` at the root.
    pub fn last_bit(self) -> Option<u8> {
        if self.depth == 0 {
            None
        } else {
            Some((self.pattern & 1) as u8)
        }
    }

    /// An arbitrary representative key in this group (the virtual key
    /// itself).
    pub fn min_key(self) -> Key {
        self.virtual_key()
    }

    /// The largest key in this group (prefix followed by all ones).
    pub fn max_key(self) -> Key {
        let free = self.width.get() - self.depth;
        let ones = if free >= 64 {
            u64::MAX
        } else {
            (1u64 << free) - 1
        };
        Key::from_bits_truncated(self.virtual_key().bits() | ones, self.width)
    }
}

impl fmt::Display for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.depth {
            let bit = (self.pattern >> (self.depth - 1 - i)) & 1;
            write!(f, "{bit}")?;
        }
        if self.depth < self.width.get() {
            write!(f, "*")?;
        }
        Ok(())
    }
}

impl fmt::Debug for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Prefix({self}/{})", self.width)
    }
}

impl PartialOrd for Prefix {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Prefixes order like their binary strings ("0" < "00" < "01" < "1"),
/// which matches a pre-order walk of the logical binary tree.
impl Ord for Prefix {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        let common = self.depth.min(other.depth);
        let a = shr64(self.pattern, self.depth - common);
        let b = shr64(other.pattern, other.depth - common);
        a.cmp(&b)
            .then_with(|| self.depth.cmp(&other.depth))
            .then_with(|| self.width.cmp(&other.width))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str, w: u32) -> Prefix {
        Prefix::parse(s, w).unwrap()
    }

    fn k(s: &str, w: u32) -> Key {
        Key::parse(s, w).unwrap()
    }

    #[test]
    fn paper_group_membership_example() {
        // §4: "0110*" includes "0110101" and "0110111"; virtual key is
        // "0110000" with depth 4.
        let g = p("0110*", 7);
        assert_eq!(g.depth(), 4);
        assert!(g.contains(k("0110101", 7)));
        assert!(g.contains(k("0110111", 7)));
        assert!(!g.contains(k("0111111", 7)));
        assert_eq!(g.virtual_key(), k("0110000", 7));
    }

    #[test]
    fn paper_split_example_decimal_values() {
        // §4: expanding "0110*" gives "01100*" (= "0110000", decimal 48)
        // and "01101*" (= "0110100", decimal 52).
        let g = p("0110*", 7);
        let (l, r) = g.split().unwrap();
        assert_eq!(l.virtual_key().bits(), 48);
        assert_eq!(r.virtual_key().bits(), 52);
        assert_eq!(l.virtual_key(), g.virtual_key());
        assert_ne!(r.virtual_key(), g.virtual_key());
    }

    #[test]
    fn display_uses_wildcard_notation() {
        assert_eq!(p("0110*", 7).to_string(), "0110*");
        assert_eq!(p("0110101", 7).to_string(), "0110101");
        assert_eq!(Prefix::root(KeyWidth::new(7).unwrap()).to_string(), "*");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Prefix::parse("01x*", 7).is_err());
        assert!(Prefix::parse("01101010", 7).is_err()); // longer than width
        assert!(Prefix::parse("011", 7).is_err()); // not full width, no '*'
    }

    #[test]
    fn full_depth_prefix_is_singleton() {
        let g = p("0110101", 7);
        assert_eq!(g.key_count(), 1);
        assert!(g.contains(k("0110101", 7)));
        assert!(g.split().is_err());
    }

    #[test]
    fn key_count_scales_with_depth() {
        assert_eq!(p("0110*", 7).key_count(), 8);
        assert_eq!(p("*", 7).key_count(), 128);
    }

    #[test]
    fn root_contains_everything() {
        let root = Prefix::root(KeyWidth::new(7).unwrap());
        assert!(root.contains(k("0000000", 7)));
        assert!(root.contains(k("1111111", 7)));
        assert_eq!(root.key_count(), 128);
    }

    #[test]
    fn parent_child_roundtrip() {
        let g = p("0110*", 7);
        let (l, r) = g.split().unwrap();
        assert_eq!(l.parent(), Some(g));
        assert_eq!(r.parent(), Some(g));
        assert_eq!(l.sibling(), Some(r));
        assert_eq!(r.sibling(), Some(l));
        assert_eq!(l.last_bit(), Some(0));
        assert_eq!(r.last_bit(), Some(1));
    }

    #[test]
    fn root_has_no_parent_or_sibling() {
        let root = Prefix::root(KeyWidth::new(7).unwrap());
        assert_eq!(root.parent(), None);
        assert_eq!(root.sibling(), None);
        assert_eq!(root.last_bit(), None);
    }

    #[test]
    fn is_prefix_of_relation() {
        let a = p("011*", 7);
        let b = p("0110*", 7);
        let c = p("0111*", 7);
        assert!(a.is_prefix_of(b));
        assert!(a.is_prefix_of(c));
        assert!(a.is_prefix_of(a));
        assert!(!b.is_prefix_of(a));
        assert!(!b.is_prefix_of(c));
    }

    #[test]
    fn common_prefix_len_with_key_matches_paper_dmin_example() {
        // §5 case (c): client sent "0101010"; entry "01011*" shares "0101"
        // → longest match 4.
        let entry = p("01011*", 7);
        assert_eq!(entry.common_prefix_len_with_key(k("0101010", 7)), 4);
        // Full match is capped at the entry depth.
        assert_eq!(entry.common_prefix_len_with_key(k("0101111", 7)), 5);
        // No match at all.
        assert_eq!(entry.common_prefix_len_with_key(k("1101111", 7)), 0);
    }

    #[test]
    fn of_key_matches_manual_prefix() {
        let key = k("0110101", 7);
        assert_eq!(Prefix::of_key(key, 4), p("0110*", 7));
        assert_eq!(Prefix::of_key(key, 0), Prefix::root(key.width()));
        assert_eq!(Prefix::of_key(key, 7), p("0110101", 7));
    }

    #[test]
    fn min_max_keys_bound_group() {
        let g = p("0110*", 7);
        assert_eq!(g.min_key(), k("0110000", 7));
        assert_eq!(g.max_key(), k("0110111", 7));
    }

    #[test]
    fn ordering_is_binary_string_order() {
        let mut groups = [p("1*", 3), p("01*", 3), p("0*", 3), p("010", 3)];
        groups.sort();
        let strs: Vec<String> = groups.iter().map(|g| g.to_string()).collect();
        assert_eq!(strs, vec!["0*", "01*", "010", "1*"]);
    }

    #[test]
    fn new_validates_pattern_and_depth() {
        let w = KeyWidth::new(7).unwrap();
        assert!(Prefix::new(0b11, 2, w).is_ok());
        assert!(Prefix::new(0b111, 2, w).is_err());
        assert!(Prefix::new(0, 8, w).is_err());
    }

    #[test]
    fn width64_prefixes_work() {
        let w = KeyWidth::new(64).unwrap();
        let root = Prefix::root(w);
        assert_eq!(root.key_count(), u64::MAX);
        let key = Key::from_bits_truncated(u64::MAX, w);
        assert!(root.contains(key));
        let deep = Prefix::of_key(key, 64);
        assert_eq!(deep.key_count(), 1);
        assert_eq!(deep.virtual_key(), key);
    }
}
