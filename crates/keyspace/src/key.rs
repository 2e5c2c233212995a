//! N-bit identifier keys.

use std::fmt;

use crate::error::KeyError;

/// A validated key width: the `N` in the paper's N-bit identifier keys
/// (1 ≤ N ≤ 64). The paper's experiments use N = 24.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct KeyWidth(u32);

impl KeyWidth {
    /// The width used throughout the paper's evaluation (§6.1).
    pub const PAPER: KeyWidth = KeyWidth(24);

    /// Creates a width, validating `1 ≤ width ≤ 64`.
    ///
    /// # Errors
    ///
    /// Returns [`KeyError::InvalidWidth`] outside that range.
    pub const fn new(width: u32) -> Result<Self, KeyError> {
        if width == 0 || width > 64 {
            Err(KeyError::InvalidWidth { width })
        } else {
            Ok(KeyWidth(width))
        }
    }

    /// The width in bits.
    pub const fn get(self) -> u32 {
        self.0
    }

    /// Number of distinct keys of this width, saturating at `u64::MAX`
    /// for width 64.
    pub const fn key_count(self) -> u64 {
        if self.0 == 64 {
            u64::MAX
        } else {
            1u64 << self.0
        }
    }

    /// Bit mask with the low `width` bits set.
    pub const fn mask(self) -> u64 {
        if self.0 == 64 {
            u64::MAX
        } else {
            (1u64 << self.0) - 1
        }
    }
}

impl fmt::Display for KeyWidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl TryFrom<u32> for KeyWidth {
    type Error = KeyError;
    fn try_from(width: u32) -> Result<Self, KeyError> {
        KeyWidth::new(width)
    }
}

impl From<KeyWidth> for u32 {
    fn from(w: KeyWidth) -> u32 {
        w.get()
    }
}

/// Shifts `bits` right by `n`, defined for `n == 64` (returns 0).
#[inline]
pub(crate) const fn shr64(bits: u64, n: u32) -> u64 {
    if n >= 64 {
        0
    } else {
        bits >> n
    }
}

/// Shifts `bits` left by `n`, defined for `n == 64` (returns 0).
#[inline]
pub(crate) const fn shl64(bits: u64, n: u32) -> u64 {
    if n >= 64 {
        0
    } else {
        bits << n
    }
}

/// An N-bit identifier key.
///
/// The most significant bit of the key is bit index 0 (matching the paper's
/// reading order: "the first d bits of k"). Internally the pattern is stored
/// right-aligned in a `u64`.
///
/// # Example
///
/// ```
/// use clash_keyspace::key::Key;
///
/// let k = Key::parse("0110101", 7)?;
/// assert_eq!(k.bit(0), 0);
/// assert_eq!(k.bit(1), 1);
/// assert_eq!(k.to_string(), "0110101");
/// assert_eq!(k.bits(), 0b0110101);
/// # Ok::<(), clash_keyspace::error::KeyError>(())
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Key {
    bits: u64,
    width: KeyWidth,
}

impl Key {
    /// Creates a key from a right-aligned bit pattern and a width.
    ///
    /// # Errors
    ///
    /// Returns [`KeyError::BitsOutOfRange`] if `bits` has set bits above
    /// the width.
    pub fn new(bits: u64, width: KeyWidth) -> Result<Self, KeyError> {
        if bits & !width.mask() != 0 {
            return Err(KeyError::BitsOutOfRange {
                bits,
                width: width.get(),
            });
        }
        Ok(Key { bits, width })
    }

    /// Creates a key of the given width, masking away any excess high bits.
    /// Useful when deriving keys from hashes or random draws.
    pub fn from_bits_truncated(bits: u64, width: KeyWidth) -> Self {
        Key {
            bits: bits & width.mask(),
            width,
        }
    }

    /// Parses a binary string such as `"0110101"`.
    ///
    /// # Errors
    ///
    /// Returns [`KeyError::ParseError`] if the string length differs from
    /// `width` or contains characters other than `0`/`1`, and
    /// [`KeyError::InvalidWidth`] for an invalid width.
    pub fn parse(s: &str, width: u32) -> Result<Self, KeyError> {
        let width = KeyWidth::new(width)?;
        if s.len() != width.get() as usize {
            return Err(KeyError::ParseError {
                input: s.to_owned(),
                reason: "length does not match key width",
            });
        }
        let mut bits = 0u64;
        for c in s.chars() {
            bits = (bits << 1)
                | match c {
                    '0' => 0,
                    '1' => 1,
                    _ => {
                        return Err(KeyError::ParseError {
                            input: s.to_owned(),
                            reason: "keys may contain only '0' and '1'",
                        })
                    }
                };
        }
        Ok(Key { bits, width })
    }

    /// The right-aligned bit pattern.
    pub const fn bits(self) -> u64 {
        self.bits
    }

    /// The key width.
    pub const fn width(self) -> KeyWidth {
        self.width
    }

    /// The `i`-th bit counting from the most significant (0-indexed).
    ///
    /// # Panics
    ///
    /// Panics if `i >= width`.
    pub fn bit(self, i: u32) -> u8 {
        assert!(i < self.width.get(), "bit index {i} out of range");
        ((self.bits >> (self.width.get() - 1 - i)) & 1) as u8
    }

    /// The first `d` bits of the key, right-aligned (`k_d` in the paper).
    ///
    /// # Panics
    ///
    /// Panics if `d > width`.
    #[inline]
    pub fn top_bits(self, d: u32) -> u64 {
        assert!(d <= self.width.get(), "depth {d} exceeds width");
        shr64(self.bits, self.width.get() - d)
    }

    /// Length of the common prefix with `other`.
    ///
    /// # Errors
    ///
    /// Returns [`KeyError::WidthMismatch`] if the widths differ.
    pub fn common_prefix_len(self, other: Key) -> Result<u32, KeyError> {
        if self.width != other.width {
            return Err(KeyError::WidthMismatch {
                left: self.width.get(),
                right: other.width.get(),
            });
        }
        let w = self.width.get();
        let diff = self.bits ^ other.bits;
        if diff == 0 {
            return Ok(w);
        }
        // The highest differing bit, counted from the key's MSB.
        Ok(w - (64 - diff.leading_zeros()))
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.width.get() {
            write!(f, "{}", self.bit(i))?;
        }
        Ok(())
    }
}

impl fmt::Debug for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Key({self})")
    }
}

impl fmt::Binary for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(n: u32) -> KeyWidth {
        KeyWidth::new(n).unwrap()
    }

    #[test]
    fn width_validation() {
        assert!(KeyWidth::new(0).is_err());
        assert!(KeyWidth::new(65).is_err());
        assert_eq!(KeyWidth::new(24).unwrap().get(), 24);
        assert_eq!(KeyWidth::PAPER.get(), 24);
    }

    #[test]
    fn width_key_count_and_mask() {
        assert_eq!(w(3).key_count(), 8);
        assert_eq!(w(3).mask(), 0b111);
        assert_eq!(w(64).mask(), u64::MAX);
        assert_eq!(w(64).key_count(), u64::MAX);
    }

    #[test]
    fn key_construction_validates_bits() {
        assert!(Key::new(0b111, w(3)).is_ok());
        assert!(Key::new(0b1000, w(3)).is_err());
        assert_eq!(Key::from_bits_truncated(0b1010, w(3)).bits(), 0b010);
    }

    #[test]
    fn parse_and_display_roundtrip() {
        let k = Key::parse("0110101", 7).unwrap();
        assert_eq!(k.to_string(), "0110101");
        assert_eq!(format!("{k:b}"), "0110101");
        assert_eq!(format!("{k:?}"), "Key(0110101)");
    }

    #[test]
    fn parse_rejects_bad_input() {
        assert!(Key::parse("012", 3).is_err());
        assert!(Key::parse("01", 3).is_err());
        assert!(Key::parse("0101", 3).is_err());
    }

    #[test]
    fn bit_indexing_is_msb_first() {
        let k = Key::parse("1000001", 7).unwrap();
        assert_eq!(k.bit(0), 1);
        assert_eq!(k.bit(5), 0);
        assert_eq!(k.bit(6), 1);
    }

    #[test]
    fn top_bits_extracts_prefix() {
        let k = Key::parse("0110101", 7).unwrap();
        assert_eq!(k.top_bits(0), 0);
        assert_eq!(k.top_bits(4), 0b0110);
        assert_eq!(k.top_bits(7), 0b0110101);
    }

    #[test]
    fn top_bits_full_width_64() {
        let k = Key::from_bits_truncated(u64::MAX, w(64));
        assert_eq!(k.top_bits(64), u64::MAX);
        assert_eq!(k.top_bits(0), 0);
    }

    #[test]
    fn common_prefix_len_cases() {
        let a = Key::parse("0110101", 7).unwrap();
        let b = Key::parse("0110111", 7).unwrap();
        assert_eq!(a.common_prefix_len(b).unwrap(), 5);
        assert_eq!(a.common_prefix_len(a).unwrap(), 7);
        let c = Key::parse("1110101", 7).unwrap();
        assert_eq!(a.common_prefix_len(c).unwrap(), 0);
    }

    #[test]
    fn common_prefix_len_rejects_width_mismatch() {
        let a = Key::parse("01", 2).unwrap();
        let b = Key::parse("011", 3).unwrap();
        assert!(matches!(
            a.common_prefix_len(b),
            Err(KeyError::WidthMismatch { .. })
        ));
    }

    #[test]
    fn shift_helpers_handle_64() {
        assert_eq!(shr64(u64::MAX, 64), 0);
        assert_eq!(shl64(u64::MAX, 64), 0);
        assert_eq!(shr64(0b100, 2), 1);
        assert_eq!(shl64(1, 2), 0b100);
    }

    #[test]
    fn key_ordering_is_numeric_within_width() {
        let a = Key::parse("001", 3).unwrap();
        let b = Key::parse("010", 3).unwrap();
        assert!(a < b);
    }
}
