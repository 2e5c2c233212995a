//! CLASH protocol configuration.

use clash_chord::SUCCESSOR_LIST_LEN;
use clash_keyspace::hash::HashSpace;
use clash_keyspace::key::KeyWidth;

use crate::error::ClashError;

/// Overload threshold as a fraction of capacity (paper §6.1: 90 %).
pub const OVERLOAD_FRACTION: f64 = 0.90;

/// Underload threshold as a fraction of capacity (paper §6.1: 54 %).
pub const UNDERLOAD_FRACTION: f64 = 0.54;

/// Which active group an overloaded server sheds first.
///
/// The paper's simulations split the *hottest* group (§6); the
/// alternatives exist for the ablation experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SplitPolicy {
    /// Split the group with the highest load (the paper's choice).
    #[default]
    Hottest,
    /// Split the first loaded group in binary-string order (a naive
    /// baseline showing why load-awareness matters).
    FirstLoaded,
}

/// Configuration of a CLASH deployment.
///
/// The defaults reproduce the paper's simulation parameters (§6.1):
/// 24-bit keys, 24-bit hash space, initial depth 6. The overload and
/// underload thresholds are fixed at §6.1's 90 % and 54 % of
/// [`ClashConfig::capacity`] ([`OVERLOAD_FRACTION`],
/// [`UNDERLOAD_FRACTION`]), and the load model's weights are constants
/// too ([`QUERY_WEIGHT`](crate::load::QUERY_WEIGHT)). A group splits one
/// bit at a time down to a single key, so [`ClashConfig::key_width`] is
/// also the depth cap (§4).
///
/// # Example
///
/// ```
/// use clash_core::config::ClashConfig;
///
/// let cfg = ClashConfig::paper();
/// assert_eq!(cfg.key_width.get(), 24);
/// assert_eq!(cfg.initial_depth, 6);
///
/// // The non-adaptive baseline DHT(12) of Figure 4:
/// let dht = ClashConfig::dht_baseline(12);
/// assert!(!dht.splitting_enabled);
/// assert_eq!(dht.initial_depth, 12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClashConfig {
    /// Identifier key width N, and so the deepest a group can split to.
    pub key_width: KeyWidth,
    /// Hash space M for the underlying DHT.
    pub hash_space: HashSpace,
    /// Depth of the initial uniform key groups (paper: 6). These groups
    /// are *roots* (`ParentID = -1`): consolidation never collapses above
    /// them.
    pub initial_depth: u32,
    /// Server capacity in load units.
    pub capacity: f64,
    /// A merge only proceeds if the combined child load stays below this
    /// fraction of capacity (hysteresis against split/merge thrash).
    pub merge_headroom_fraction: f64,
    /// Whether binary splitting/merging is enabled. Disabled = the
    /// paper's non-adaptive `DHT(x)` baseline with fixed depth
    /// `initial_depth`.
    pub splitting_enabled: bool,
    /// Seed for the key → hash-space function `f()`.
    pub hash_seed: u64,
    /// Which group an overloaded server splits first.
    pub split_policy: SplitPolicy,
    /// Successor-list replication factor `r`: each active key-group entry
    /// (with its ledger) is replicated on its owner's first `r` alive ring
    /// successors, and crash recovery promotes the first live replica
    /// instead of reading the simulation oracle. `0` (the default, and the
    /// paper's implicit setting — it delegates fault handling to the DHT)
    /// disables replication entirely and preserves the pre-replication
    /// behavior bit for bit. At most [`SUCCESSOR_LIST_LEN`].
    pub replication_factor: usize,
    /// Inert: read by nothing in this workspace (one locate path; CI
    /// greps for readers). Kept, with [`ClashConfig::with_shards`], only
    /// for `clash-benchmark`'s `workloads.rs:143`, `e2e.rs:228` and
    /// `micro.rs:160,188`; the next `[benchmark]` PR drops all of it.
    pub shards: u32,
}

impl ClashConfig {
    /// The paper's simulation configuration (§6.1), with this
    /// reproduction's capacity calibration.
    pub fn paper() -> Self {
        ClashConfig {
            key_width: KeyWidth::PAPER,
            hash_space: HashSpace::PAPER,
            initial_depth: 6,
            capacity: 2500.0,
            merge_headroom_fraction: 0.54,
            splitting_enabled: true,
            hash_seed: 0xC1A5_4001,
            split_policy: SplitPolicy::Hottest,
            replication_factor: 0,
            shards: 0,
        }
    }

    /// The non-adaptive baseline `DHT(x)`: identifier keys truncated to a
    /// fixed length `x`, no splitting, no merging (§6.1: "we also simulated
    /// the base Chord protocol, where … the length of the identifier key N
    /// is always fixed").
    pub fn dht_baseline(fixed_depth: u32) -> Self {
        ClashConfig {
            initial_depth: fixed_depth,
            splitting_enabled: false,
            ..ClashConfig::paper()
        }
    }

    /// A small configuration for unit tests and examples: 8-bit keys,
    /// 16-bit hash space, initial depth 2, capacity 100.
    pub fn small_test() -> Self {
        ClashConfig {
            key_width: KeyWidth::new(8).expect("8 is a valid width"),
            hash_space: HashSpace::new(16).expect("16 is a valid space"),
            initial_depth: 2,
            capacity: 100.0,
            merge_headroom_fraction: 0.54,
            splitting_enabled: true,
            hash_seed: 7,
            split_policy: SplitPolicy::Hottest,
            replication_factor: 0,
            shards: 0,
        }
    }

    /// A copy with the given successor-list replication factor.
    pub fn with_replication(self, replication_factor: usize) -> Self {
        ClashConfig {
            replication_factor,
            ..self
        }
    }

    /// A copy with the inert [`ClashConfig::shards`] field set.
    pub fn with_shards(self, shards: u32) -> Self {
        ClashConfig { shards, ..self }
    }

    /// Overload threshold in absolute load units.
    pub fn overload_threshold(&self) -> f64 {
        self.capacity * OVERLOAD_FRACTION
    }

    /// Underload threshold in absolute load units.
    pub fn underload_threshold(&self) -> f64 {
        self.capacity * UNDERLOAD_FRACTION
    }

    /// Merge headroom in absolute load units.
    pub fn merge_headroom(&self) -> f64 {
        self.capacity * self.merge_headroom_fraction
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`ClashError::InvalidConfig`] when depths exceed the key
    /// width, the capacity is not positive, the merge headroom is not a
    /// positive finite fraction, or the replication factor exceeds the
    /// successor-list length its replicas are placed along.
    pub fn validate(&self) -> Result<(), ClashError> {
        if self.initial_depth > self.key_width.get() {
            return Err(ClashError::InvalidConfig {
                reason: "initial depth exceeds key width",
            });
        }
        if self.initial_depth > 24 {
            return Err(ClashError::InvalidConfig {
                reason: "initial depth above 24 would allocate 2^d bootstrap groups",
            });
        }
        if self.capacity <= 0.0 || self.capacity.is_nan() {
            return Err(ClashError::InvalidConfig {
                reason: "capacity must be positive",
            });
        }
        let headroom = self.merge_headroom_fraction;
        if !headroom.is_finite() || headroom <= 0.0 {
            return Err(ClashError::InvalidConfig {
                reason: "merge headroom fraction must be positive and finite",
            });
        }
        if self.replication_factor > SUCCESSOR_LIST_LEN {
            return Err(ClashError::InvalidConfig {
                reason: "replication factor exceeds the Chord successor-list length",
            });
        }
        Ok(())
    }
}

impl Default for ClashConfig {
    fn default() -> Self {
        ClashConfig::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_is_valid() {
        let cfg = ClashConfig::paper();
        cfg.validate().unwrap();
        assert_eq!(cfg.overload_threshold(), 2250.0);
        assert_eq!(cfg.underload_threshold(), 1350.0);
    }

    #[test]
    fn dht_baseline_disables_splitting() {
        for x in [2u32, 6, 12, 24] {
            let cfg = ClashConfig::dht_baseline(x);
            cfg.validate().unwrap();
            assert!(!cfg.splitting_enabled);
            assert_eq!(cfg.initial_depth, x);
        }
    }

    #[test]
    fn small_test_config_is_valid() {
        ClashConfig::small_test().validate().unwrap();
    }

    #[test]
    fn validation_catches_bad_depths() {
        let mut cfg = ClashConfig::small_test();
        cfg.initial_depth = 9;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn validation_catches_bad_thresholds() {
        let mut cfg = ClashConfig::small_test();
        cfg.capacity = 0.0;
        assert!(cfg.validate().is_err());

        let mut cfg = ClashConfig::small_test();
        cfg.merge_headroom_fraction = f64::NAN;
        assert!(cfg.validate().is_err());

        let mut cfg = ClashConfig::small_test();
        cfg.merge_headroom_fraction = 0.0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn default_is_paper() {
        assert_eq!(ClashConfig::default(), ClashConfig::paper());
    }

    #[test]
    fn replication_defaults_off_and_builder_sets_it() {
        assert_eq!(ClashConfig::paper().replication_factor, 0);
        assert_eq!(ClashConfig::small_test().replication_factor, 0);
        let cfg = ClashConfig::small_test().with_replication(3);
        assert_eq!(cfg.replication_factor, 3);
        cfg.validate().unwrap();
    }

    /// Replicas sit on the owner's successor list, so a factor beyond
    /// its length could never be placed.
    #[test]
    fn replication_is_capped_at_the_successor_list_length() {
        let cfg = ClashConfig::small_test();
        cfg.with_replication(SUCCESSOR_LIST_LEN).validate().unwrap();
        assert_eq!(SUCCESSOR_LIST_LEN, 8);
        assert!(matches!(
            cfg.with_replication(9).validate(),
            Err(ClashError::InvalidConfig { .. })
        ));
    }
}
