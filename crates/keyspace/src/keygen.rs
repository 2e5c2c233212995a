//! `KeyGen()` implementations: encoding application semantics into
//! hierarchical identifier keys (§3 of the paper).
//!
//! "In CLASH, identifier keys encode hierarchical clustering relationships
//! about objects." The paper's running example is a quad-tree encoding of a
//! geographic area: each recursive 4-way split of a rectangle contributes a
//! 2-bit label. [`QuadTreeEncoder`] implements exactly that; keys of nearby
//! grid cells share long prefixes, which is what lets CLASH cluster
//! "similar" objects on one server.
//!
//! [`PathEncoder`] covers the other motivating applications (corporate
//! messaging topics, game shards): fixed-fanout category paths.

use crate::error::KeyError;
use crate::key::{Key, KeyWidth};

/// A function producing identifier keys from application inputs — the
/// paper's `KeyGen()`.
pub trait KeyGen {
    /// The application-level input this encoder understands.
    type Input;

    /// Width of the produced keys.
    fn key_width(&self) -> KeyWidth;

    /// Encodes an input into an identifier key.
    ///
    /// # Errors
    ///
    /// Implementations return [`KeyError`] when the input lies outside the
    /// encoder's domain (e.g. a coordinate outside the grid).
    fn encode(&self, input: &Self::Input) -> Result<Key, KeyError>;
}

/// A point on a square 2-D grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GridPoint {
    /// Column index, `0 ≤ x < 2^levels`.
    pub x: u64,
    /// Row index, `0 ≤ y < 2^levels`.
    pub y: u64,
}

impl GridPoint {
    /// Creates a grid point.
    pub fn new(x: u64, y: u64) -> Self {
        GridPoint { x, y }
    }
}

/// Quad-tree encoder over a `2^levels × 2^levels` grid, producing
/// `2·levels`-bit keys (§3: "a geographic area can be encoded in a
/// hierarchical N-bit identifier key adopting a quad-tree formulation").
///
/// Each level contributes 2 bits: the y bit (north/south half) followed by
/// the x bit (west/east half). Spatially adjacent cells therefore share
/// long key prefixes at coarse levels.
///
/// # Example
///
/// ```
/// use clash_keyspace::keygen::{GridPoint, KeyGen, QuadTreeEncoder};
///
/// let enc = QuadTreeEncoder::new(12)?; // 4096×4096 grid, 24-bit keys
/// assert_eq!(enc.key_width().get(), 24);
/// let k = enc.encode(&GridPoint::new(17, 1029))?;
/// assert_eq!(enc.decode(k), GridPoint::new(17, 1029));
/// # Ok::<(), clash_keyspace::error::KeyError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuadTreeEncoder {
    levels: u32,
    width: KeyWidth,
}

impl QuadTreeEncoder {
    /// Creates an encoder with the given number of quad-tree levels
    /// (1 ≤ levels ≤ 32; the key width is `2·levels`).
    ///
    /// # Errors
    ///
    /// Returns [`KeyError::InvalidWidth`] outside that range.
    pub fn new(levels: u32) -> Result<Self, KeyError> {
        let width = KeyWidth::new(levels.saturating_mul(2))?;
        Ok(QuadTreeEncoder { levels, width })
    }

    /// Number of quad-tree levels.
    pub fn levels(&self) -> u32 {
        self.levels
    }

    /// Grid side length (`2^levels`).
    pub fn grid_size(&self) -> u64 {
        1u64 << self.levels
    }

    /// Decodes a key back to its grid cell.
    ///
    /// # Panics
    ///
    /// Panics if the key width differs from the encoder width.
    pub fn decode(&self, key: Key) -> GridPoint {
        assert_eq!(key.width(), self.width, "key width mismatch");
        let mut x = 0u64;
        let mut y = 0u64;
        for level in 0..self.levels {
            let y_bit = u64::from(key.bit(2 * level));
            let x_bit = u64::from(key.bit(2 * level + 1));
            y = (y << 1) | y_bit;
            x = (x << 1) | x_bit;
        }
        GridPoint { x, y }
    }
}

impl KeyGen for QuadTreeEncoder {
    type Input = GridPoint;

    fn key_width(&self) -> KeyWidth {
        self.width
    }

    fn encode(&self, input: &GridPoint) -> Result<Key, KeyError> {
        let size = self.grid_size();
        if input.x >= size {
            return Err(KeyError::CoordinateOutOfRange {
                value: input.x,
                bound: size,
            });
        }
        if input.y >= size {
            return Err(KeyError::CoordinateOutOfRange {
                value: input.y,
                bound: size,
            });
        }
        let mut bits = 0u64;
        for level in (0..self.levels).rev() {
            let y_bit = (input.y >> level) & 1;
            let x_bit = (input.x >> level) & 1;
            bits = (bits << 2) | (y_bit << 1) | x_bit;
        }
        Key::new(bits, self.width)
    }
}

/// Encoder for fixed-fanout hierarchical category paths (topic trees,
/// organizational hierarchies, game-world shards).
///
/// Each path component consumes `bits_per_level` bits; shorter paths are
/// padded with zeros, so a parent category's key is a prefix-extension of
/// its own truncated path — sibling leaves share the parent prefix.
///
/// # Example
///
/// ```
/// use clash_keyspace::keygen::{KeyGen, PathEncoder};
///
/// // 4 levels × 3 bits: up to 8 children per node, 12-bit keys.
/// let enc = PathEncoder::new(4, 3)?;
/// let k = enc.encode(&vec![2, 5, 1, 7])?;
/// assert_eq!(k.to_string(), "010101001111");
/// # Ok::<(), clash_keyspace::error::KeyError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathEncoder {
    levels: u32,
    bits_per_level: u32,
    width: KeyWidth,
}

impl PathEncoder {
    /// Creates an encoder with `levels` path components of
    /// `bits_per_level` bits each.
    ///
    /// # Errors
    ///
    /// Returns [`KeyError::InvalidWidth`] if the total width is 0 or
    /// exceeds 64 bits.
    pub fn new(levels: u32, bits_per_level: u32) -> Result<Self, KeyError> {
        let width = KeyWidth::new(levels.saturating_mul(bits_per_level))?;
        Ok(PathEncoder {
            levels,
            bits_per_level,
            width,
        })
    }

    /// Maximum fan-out per node (`2^bits_per_level`).
    pub fn fanout(&self) -> u64 {
        1u64 << self.bits_per_level
    }

    /// Number of levels.
    pub fn levels(&self) -> u32 {
        self.levels
    }
}

impl KeyGen for PathEncoder {
    type Input = Vec<u64>;

    fn key_width(&self) -> KeyWidth {
        self.width
    }

    fn encode(&self, path: &Vec<u64>) -> Result<Key, KeyError> {
        if path.len() > self.levels as usize {
            return Err(KeyError::CoordinateOutOfRange {
                value: path.len() as u64,
                bound: u64::from(self.levels),
            });
        }
        let mut bits = 0u64;
        for level in 0..self.levels as usize {
            let component = path.get(level).copied().unwrap_or(0);
            if component >= self.fanout() {
                return Err(KeyError::CoordinateOutOfRange {
                    value: component,
                    bound: self.fanout(),
                });
            }
            bits = (bits << self.bits_per_level) | component;
        }
        Key::new(bits, self.width)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quadtree_roundtrip_exhaustive_small() {
        let enc = QuadTreeEncoder::new(3).unwrap(); // 8×8 grid
        for x in 0..8 {
            for y in 0..8 {
                let p = GridPoint::new(x, y);
                let k = enc.encode(&p).unwrap();
                assert_eq!(enc.decode(k), p, "roundtrip failed at ({x},{y})");
            }
        }
    }

    #[test]
    fn quadtree_rejects_out_of_range() {
        let enc = QuadTreeEncoder::new(3).unwrap();
        assert!(enc.encode(&GridPoint::new(8, 0)).is_err());
        assert!(enc.encode(&GridPoint::new(0, 8)).is_err());
    }

    #[test]
    fn quadtree_first_two_bits_are_quadrant() {
        let enc = QuadTreeEncoder::new(4).unwrap(); // 16×16
                                                    // North-west quadrant (low x, low y) → prefix 00.
        let k = enc.encode(&GridPoint::new(3, 2)).unwrap();
        assert_eq!(k.bit(0), 0);
        assert_eq!(k.bit(1), 0);
        // South-east quadrant (high x, high y) → prefix 11.
        let k = enc.encode(&GridPoint::new(12, 13)).unwrap();
        assert_eq!(k.bit(0), 1);
        assert_eq!(k.bit(1), 1);
    }

    #[test]
    fn quadtree_nearby_cells_share_prefixes() {
        let enc = QuadTreeEncoder::new(8).unwrap();
        let a = enc.encode(&GridPoint::new(100, 100)).unwrap();
        let b = enc.encode(&GridPoint::new(101, 101)).unwrap();
        let far = enc.encode(&GridPoint::new(200, 30)).unwrap();
        let near_cpl = a.common_prefix_len(b).unwrap();
        let far_cpl = a.common_prefix_len(far).unwrap();
        assert!(
            near_cpl > far_cpl,
            "near cpl {near_cpl} should exceed far cpl {far_cpl}"
        );
    }

    #[test]
    fn quadtree_paper_scale() {
        // 24-bit keys as in §6.1 = 12 levels.
        let enc = QuadTreeEncoder::new(12).unwrap();
        assert_eq!(enc.key_width(), KeyWidth::PAPER);
        assert_eq!(enc.grid_size(), 4096);
    }

    #[test]
    fn quadtree_invalid_levels() {
        assert!(QuadTreeEncoder::new(0).is_err());
        assert!(QuadTreeEncoder::new(33).is_err());
        assert!(QuadTreeEncoder::new(32).is_ok());
    }

    #[test]
    fn path_encoder_basic() {
        let enc = PathEncoder::new(4, 3).unwrap();
        assert_eq!(enc.key_width().get(), 12);
        assert_eq!(enc.fanout(), 8);
        let k = enc.encode(&vec![2, 5, 1, 7]).unwrap();
        assert_eq!(k.to_string(), "010101001111");
    }

    #[test]
    fn path_encoder_pads_short_paths() {
        let enc = PathEncoder::new(3, 2).unwrap();
        let parent = enc.encode(&vec![1, 2]).unwrap();
        let child = enc.encode(&vec![1, 2, 3]).unwrap();
        // Parent key is the child's prefix with zero padding.
        assert_eq!(parent.common_prefix_len(child).unwrap(), 4);
    }

    #[test]
    fn path_encoder_rejects_bad_input() {
        let enc = PathEncoder::new(3, 2).unwrap();
        assert!(enc.encode(&vec![4]).is_err(), "component beyond fanout");
        assert!(enc.encode(&vec![0, 0, 0, 0]).is_err(), "path too long");
    }

    #[test]
    fn siblings_share_parent_prefix() {
        let enc = PathEncoder::new(3, 2).unwrap();
        let a = enc.encode(&vec![1, 2, 0]).unwrap();
        let b = enc.encode(&vec![1, 2, 3]).unwrap();
        let other = enc.encode(&vec![3, 0, 0]).unwrap();
        assert!(a.common_prefix_len(b).unwrap() >= 4);
        assert_eq!(a.common_prefix_len(other).unwrap(), 0);
    }
}
