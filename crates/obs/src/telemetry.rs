//! The unified telemetry registry.
//!
//! Before this crate, each experiment hand-picked struct fields:
//! message totals from `MessageStats`, latency quantiles from
//! `LatencyMetrics`, recovery totals from driver-private counters. The
//! [`Telemetry`] registry gives all of them one namespace of labeled
//! metrics with snapshot semantics, so a status surface (ROADMAP
//! item 2) or a cost ledger (item 5) can enumerate what exists instead
//! of knowing where each number lives.
//!
//! Keys are dotted paths (`messages.accept_object`,
//! `latency.locate.mean_ms`, `recovery.groups_recovered`). Storage is a
//! `BTreeMap`, so iteration order — and any rendering built on it — is
//! deterministic.

use std::collections::BTreeMap;

use clash_simkernel::metrics::SummarySnapshot;

/// One registered metric's value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MetricValue {
    /// Monotone count (messages sent, splits performed).
    Counter(u64),
    /// Instantaneous level (current servers, load fraction).
    Gauge(f64),
    /// Distribution summary (latencies, check durations).
    Summary(SummarySnapshot),
}

/// A labeled bag of metrics with snapshot support.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Telemetry {
    metrics: BTreeMap<String, MetricValue>,
}

impl Telemetry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Telemetry::default()
    }

    /// Set counter `name` to `value` (registering it if new).
    pub fn counter(&mut self, name: &str, value: u64) {
        self.metrics
            .insert(name.to_owned(), MetricValue::Counter(value));
    }

    /// Add `delta` to counter `name` (registering it at `delta` if new).
    ///
    /// # Panics
    ///
    /// Panics if `name` is registered as a non-counter.
    pub fn add(&mut self, name: &str, delta: u64) {
        match self
            .metrics
            .entry(name.to_owned())
            .or_insert(MetricValue::Counter(0))
        {
            MetricValue::Counter(v) => *v += delta,
            other => panic!("{name} is not a counter: {other:?}"),
        }
    }

    /// Set gauge `name` to `value`.
    pub fn gauge(&mut self, name: &str, value: f64) {
        self.metrics
            .insert(name.to_owned(), MetricValue::Gauge(value));
    }

    /// Set summary `name` to `snap`.
    pub fn summary(&mut self, name: &str, snap: SummarySnapshot) {
        self.metrics
            .insert(name.to_owned(), MetricValue::Summary(snap));
    }

    /// Look up one metric.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.metrics.get(name)
    }

    /// A counter's value, if `name` is a registered counter.
    #[must_use]
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        match self.metrics.get(name) {
            Some(MetricValue::Counter(v)) => Some(*v),
            _ => None,
        }
    }

    /// All metrics in deterministic (lexicographic) order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &MetricValue)> {
        self.metrics.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of registered metrics.
    #[must_use]
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// Whether nothing is registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// Fold `other`'s metrics into this registry under a `prefix.`
    /// namespace (e.g. merging driver counters into a cluster snapshot).
    pub fn absorb(&mut self, prefix: &str, other: &Telemetry) {
        for (k, v) in other.iter() {
            self.metrics.insert(format!("{prefix}.{k}"), *v);
        }
    }

    /// A point-in-time copy of the registry.
    #[must_use]
    pub fn snapshot(&self) -> Telemetry {
        self.clone()
    }

    /// Render as aligned `name value` lines, one metric per line, in
    /// deterministic order — the quick-look format for status output.
    #[must_use]
    pub fn render(&self) -> String {
        let mut s = String::new();
        for (k, v) in self.iter() {
            match v {
                MetricValue::Counter(c) => s.push_str(&format!("{k} = {c}\n")),
                MetricValue::Gauge(g) => s.push_str(&format!("{k} = {g:.4}\n")),
                MetricValue::Summary(snap) => s.push_str(&format!(
                    "{k} = n={} mean={:.4} sd={:.4} min={:.4} max={:.4}\n",
                    snap.count, snap.mean, snap.stddev, snap.min, snap.max
                )),
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_delta() {
        let mut t = Telemetry::new();
        t.add("messages.accept_object", 10);
        t.add("messages.accept_object", 5);
        t.counter("splits", 3);
        let before = t.snapshot();
        t.add("messages.accept_object", 7);
        t.add("merges", 1);
        let delta = |k: &str| t.counter_value(k).unwrap() - before.counter_value(k).unwrap_or(0);
        assert_eq!(t.counter_value("messages.accept_object"), Some(22));
        assert_eq!(delta("merges"), 1);
        assert_eq!(delta("messages.accept_object"), 7);
        assert_eq!(delta("splits"), 0);
    }

    #[test]
    fn gauges_and_summaries_register_and_render() {
        let mut t = Telemetry::new();
        t.gauge("servers.active", 42.0);
        t.summary(
            "latency.locate_ms",
            SummarySnapshot {
                count: 100,
                mean: 1.5,
                stddev: 0.2,
                min: 0.9,
                max: 3.1,
            },
        );
        t.counter("z.last", 1);
        let rendered = t.render();
        let lines: Vec<&str> = rendered.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("latency.locate_ms = n=100"));
        assert!(lines[1].starts_with("servers.active = 42.0000"));
        assert_eq!(lines[2], "z.last = 1");
    }

    #[test]
    fn absorb_namespaces_foreign_metrics() {
        let mut cluster = Telemetry::new();
        cluster.counter("messages.total", 9);
        let mut driver = Telemetry::new();
        driver.counter("load_checks", 4);
        cluster.absorb("driver", &driver);
        assert_eq!(cluster.counter_value("driver.load_checks"), Some(4));
        assert_eq!(cluster.len(), 2);
    }

    #[test]
    #[should_panic(expected = "is not a counter")]
    fn add_to_gauge_panics() {
        let mut t = Telemetry::new();
        t.gauge("g", 1.0);
        t.add("g", 1);
    }
}
