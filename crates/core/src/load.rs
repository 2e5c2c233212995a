//! Server load model and thresholds.
//!
//! The paper (§6): "each server periodically computes a load value, based on
//! the number of queries it currently stores and the cumulative data rate it
//! currently handles. For query-processing applications, this load is
//! usually linear in the data rate, and logarithmic in the number of
//! queries. Overload and underload conditions are detected by comparing
//! this load value to pre-defined thresholds."
//!
//! Both are constants here: the weights ([`QUERY_WEIGHT`]) and the
//! thresholds ([`crate::config::OVERLOAD_FRACTION`],
//! [`crate::config::UNDERLOAD_FRACTION`]) are one fixed calibration.

use std::fmt;

/// Load contributed by one key group: data rate plus resident query count.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct GroupLoad {
    /// Cumulative data rate currently directed at the group (packets/sec).
    pub data_rate: f64,
    /// Number of continuous queries stored for the group.
    pub queries: u64,
}

impl GroupLoad {
    /// A zero load.
    pub fn zero() -> Self {
        GroupLoad::default()
    }

    /// Component-wise sum.
    pub fn combined(self, other: GroupLoad) -> GroupLoad {
        GroupLoad {
            data_rate: self.data_rate + other.data_rate,
            queries: self.queries + other.queries,
        }
    }
}

/// Load units per doubling of a group's resident queries. A group's
/// load value is `data_rate + QUERY_WEIGHT · log₂(1 + queries)`: one
/// unit per packet/sec of data rate, logarithmic in the query count.
///
/// The paper reports only relative loads (% of capacity), so the weights
/// are this reproduction's one calibration, fixed like §6.1's thresholds
/// ([`OVERLOAD_FRACTION`](crate::config::OVERLOAD_FRACTION)).
pub const QUERY_WEIGHT: f64 = 10.0;

impl GroupLoad {
    /// The group's load value (see [`QUERY_WEIGHT`]).
    pub fn value(self) -> f64 {
        self.data_rate + QUERY_WEIGHT * (1.0 + self.queries as f64).log2()
    }
}

/// Total server load across its active groups.
pub fn server_load<I: IntoIterator<Item = GroupLoad>>(groups: I) -> f64 {
    groups.into_iter().map(GroupLoad::value).sum()
}

/// A server's position relative to the configured thresholds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadLevel {
    /// Below the underload threshold: a consolidation candidate.
    Underloaded,
    /// Between the thresholds: no action.
    Nominal,
    /// Above the overload threshold: must shed load.
    Overloaded,
}

impl LoadLevel {
    /// Classifies a load value against thresholds expressed in absolute
    /// load units.
    ///
    /// # Panics
    ///
    /// Panics if `underload > overload`.
    pub fn classify(load: f64, underload: f64, overload: f64) -> LoadLevel {
        assert!(
            underload <= overload,
            "underload threshold {underload} exceeds overload threshold {overload}"
        );
        if load > overload {
            LoadLevel::Overloaded
        } else if load < underload {
            LoadLevel::Underloaded
        } else {
            LoadLevel::Nominal
        }
    }
}

impl fmt::Display for LoadLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            LoadLevel::Underloaded => "underloaded",
            LoadLevel::Nominal => "nominal",
            LoadLevel::Overloaded => "overloaded",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_load_is_linear_in_rate() {
        let base = GroupLoad {
            data_rate: 100.0,
            queries: 0,
        }
        .value();
        let double = GroupLoad {
            data_rate: 200.0,
            queries: 0,
        }
        .value();
        assert!((double - 2.0 * base).abs() < 1e-9);
    }

    #[test]
    fn group_load_is_logarithmic_in_queries() {
        let one = GroupLoad {
            data_rate: 0.0,
            queries: 1,
        }
        .value();
        let big = GroupLoad {
            data_rate: 0.0,
            queries: 1023,
        }
        .value();
        // 1→2 queries is one doubling; 1023 queries is ten doublings.
        assert!((one - 10.0).abs() < 1e-9);
        assert!((big - 100.0).abs() < 0.1);
    }

    #[test]
    fn server_load_sums_groups() {
        let groups = vec![
            GroupLoad {
                data_rate: 10.0,
                queries: 0,
            },
            GroupLoad {
                data_rate: 5.0,
                queries: 0,
            },
        ];
        assert!((server_load(groups) - 15.0).abs() < 1e-9);
    }

    #[test]
    fn combined_adds_componentwise() {
        let a = GroupLoad {
            data_rate: 1.0,
            queries: 2,
        };
        let b = GroupLoad {
            data_rate: 3.0,
            queries: 4,
        };
        let c = a.combined(b);
        assert_eq!(c.data_rate, 4.0);
        assert_eq!(c.queries, 6);
    }

    #[test]
    fn classify_levels() {
        assert_eq!(
            LoadLevel::classify(10.0, 54.0, 90.0),
            LoadLevel::Underloaded
        );
        assert_eq!(LoadLevel::classify(70.0, 54.0, 90.0), LoadLevel::Nominal);
        assert_eq!(LoadLevel::classify(95.0, 54.0, 90.0), LoadLevel::Overloaded);
        // Boundaries are inclusive-nominal.
        assert_eq!(LoadLevel::classify(54.0, 54.0, 90.0), LoadLevel::Nominal);
        assert_eq!(LoadLevel::classify(90.0, 54.0, 90.0), LoadLevel::Nominal);
    }

    #[test]
    #[should_panic(expected = "exceeds overload")]
    fn classify_rejects_inverted_thresholds() {
        LoadLevel::classify(1.0, 90.0, 54.0);
    }

    #[test]
    fn display_names() {
        assert_eq!(LoadLevel::Overloaded.to_string(), "overloaded");
    }
}
