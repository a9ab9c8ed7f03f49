//! The hierarchical statistics registry and its snapshots.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::{Histogram, Json, MetricSink, Metrics};

/// One registered metric value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A monotonic event count.
    Counter(u64),
    /// An instantaneous measurement.
    Gauge(f64),
    /// A distribution of samples. Boxed so the mostly-counter registry
    /// map doesn't pay the histogram's 65-bucket footprint per entry.
    Histogram(Box<Histogram>),
}

/// A hierarchical metric namespace.
///
/// Paths are `/`-separated strings (`core0/l1/hits`,
/// `engine/counters/resets`), giving per-core, per-channel, and
/// per-scheme scoping without any type machinery. Components report via
/// [`StatsRegistry::collect`], which prefixes everything a [`Metrics`]
/// implementation records with the caller's scope; ad-hoc values can be
/// set directly by path.
///
/// Storage is a `BTreeMap`, so iteration — and therefore every rendered
/// artifact — is deterministically sorted.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StatsRegistry {
    values: BTreeMap<String, Value>,
}

impl StatsRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Collects every metric of `metrics` under `scope`.
    ///
    /// Re-collecting the same scope overwrites the previous values, so a
    /// component can be collected once per measurement point.
    pub fn collect(&mut self, scope: &str, metrics: &dyn Metrics) {
        let mut sink = ScopedSink {
            registry: self,
            prefix: scope,
        };
        metrics.record(&mut sink);
    }

    /// Sets a counter at `path`, replacing any previous value.
    pub fn set_counter(&mut self, path: &str, value: u64) {
        self.values.insert(path.to_string(), Value::Counter(value));
    }

    /// Adds to the counter at `path`, creating it at zero if absent.
    ///
    /// # Panics
    ///
    /// Panics if `path` holds a gauge or histogram.
    pub fn add_counter(&mut self, path: &str, delta: u64) {
        let entry = self
            .values
            .entry(path.to_string())
            .or_insert(Value::Counter(0));
        match entry {
            Value::Counter(v) => *v = v.saturating_add(delta),
            _ => panic!("add_counter on non-counter metric {path}"),
        }
    }

    /// Sets a gauge at `path`, replacing any previous value.
    pub fn set_gauge(&mut self, path: &str, value: f64) {
        self.values.insert(path.to_string(), Value::Gauge(value));
    }

    /// Stores a copy of `hist` at `path`, replacing any previous value.
    pub fn record_histogram(&mut self, path: &str, hist: &Histogram) {
        self.values
            .insert(path.to_string(), Value::Histogram(Box::new(hist.clone())));
    }

    /// Records one sample into the histogram at `path`, creating it if
    /// absent.
    ///
    /// # Panics
    ///
    /// Panics if `path` holds a counter or gauge.
    pub fn observe(&mut self, path: &str, sample: u64) {
        let entry = self
            .values
            .entry(path.to_string())
            .or_insert_with(|| Value::Histogram(Box::default()));
        match entry {
            Value::Histogram(h) => h.record(sample),
            _ => panic!("observe on non-histogram metric {path}"),
        }
    }

    /// The counter at `path`, if present.
    #[must_use]
    pub fn counter(&self, path: &str) -> Option<u64> {
        match self.values.get(path) {
            Some(Value::Counter(v)) => Some(*v),
            _ => None,
        }
    }

    /// The gauge at `path`, if present.
    #[must_use]
    pub fn gauge(&self, path: &str) -> Option<f64> {
        match self.values.get(path) {
            Some(Value::Gauge(v)) => Some(*v),
            _ => None,
        }
    }

    /// The histogram at `path`, if present.
    #[must_use]
    pub fn histogram(&self, path: &str) -> Option<&Histogram> {
        match self.values.get(path) {
            Some(Value::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// Sum of all counters whose path starts with `prefix`.
    #[must_use]
    pub fn counter_sum(&self, prefix: &str) -> u64 {
        self.values
            .iter()
            .filter(|(path, _)| path.starts_with(prefix))
            .filter_map(|(_, v)| match v {
                Value::Counter(c) => Some(*c),
                _ => None,
            })
            .sum()
    }

    /// Iterates all `(path, value)` pairs in sorted path order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.values.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of registered metrics in the registry.
    #[must_use]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` if nothing has been registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Removes every metric.
    pub fn clear(&mut self) {
        self.values.clear();
    }

    /// An immutable copy of the current state.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        self.clone()
    }

    /// The change from `earlier` to `self`.
    ///
    /// Counters subtract (saturating), histograms diff bucket-wise, and
    /// gauges keep the later reading — an instantaneous measurement has
    /// no meaningful difference. Metrics present only in `self` pass
    /// through unchanged; metrics only in `earlier` are dropped.
    #[must_use]
    pub fn delta(&self, earlier: &Self) -> Self {
        let mut values = BTreeMap::new();
        for (path, value) in &self.values {
            let diffed = match (value, earlier.values.get(path)) {
                (Value::Counter(now), Some(Value::Counter(then))) => {
                    Value::Counter(now.saturating_sub(*then))
                }
                (Value::Histogram(now), Some(Value::Histogram(then))) => {
                    Value::Histogram(Box::new(now.delta(then)))
                }
                (other, _) => other.clone(),
            };
            values.insert(path.clone(), diffed);
        }
        Self { values }
    }

    /// The registry as a [`Json`] object (the `"metrics"` section of the
    /// `results/*.json` schema).
    ///
    /// Counters render as integers, gauges as numbers (`null` if
    /// non-finite), histograms as objects with `count`/`sum`/`min`/`max`/
    /// `mean`/`p50`/`p95`/`p99` and a `buckets` array of
    /// `[bit_length, count]` pairs.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut obj = Json::object();
        for (path, value) in &self.values {
            obj.push(path, value_json(value));
        }
        obj
    }

    /// The registry as an aligned two-column text table.
    #[must_use]
    pub fn to_table(&self) -> String {
        let width = self
            .values
            .keys()
            .map(String::len)
            .max()
            .unwrap_or(6)
            .max("metric".len());
        let mut out = String::new();
        let _ = writeln!(out, "{:<width$}  value", "metric");
        for (path, value) in &self.values {
            let rendered = match value {
                Value::Counter(v) => format!("{v}"),
                Value::Gauge(v) => format!("{v:.4}"),
                Value::Histogram(h) => format!(
                    "count={} mean={:.1} p50={} p99={} max={}",
                    h.count(),
                    h.mean(),
                    h.quantile(0.50),
                    h.quantile(0.99),
                    h.max()
                ),
            };
            let _ = writeln!(out, "{path:<width$}  {rendered}");
        }
        out
    }
}

/// Sink that prefixes every reported name with a scope path.
struct ScopedSink<'a> {
    registry: &'a mut StatsRegistry,
    prefix: &'a str,
}

impl ScopedSink<'_> {
    fn path(&self, name: &str) -> String {
        if self.prefix.is_empty() {
            name.to_string()
        } else {
            format!("{}/{name}", self.prefix)
        }
    }
}

impl MetricSink for ScopedSink<'_> {
    fn counter(&mut self, name: &str, value: u64) {
        self.registry.set_counter(&self.path(name), value);
    }

    fn gauge(&mut self, name: &str, value: f64) {
        self.registry.set_gauge(&self.path(name), value);
    }

    fn histogram(&mut self, name: &str, hist: &Histogram) {
        self.registry.record_histogram(&self.path(name), hist);
    }
}

/// An immutable copy of a [`StatsRegistry`] at one measurement point,
/// from [`StatsRegistry::snapshot`].
///
/// Two snapshots of the same registry diff via
/// [`StatsRegistry::delta`], which is how warmup-vs-measurement windows
/// and per-phase attributions are expressed, and render as JSON (the
/// `results/*.json` schema) and as an aligned text table.
pub type Snapshot = StatsRegistry;

fn value_json(value: &Value) -> Json {
    match value {
        Value::Counter(v) => Json::U64(*v),
        Value::Gauge(v) => Json::F64(*v),
        Value::Histogram(h) => {
            let mut obj = Json::object();
            obj.push("count", Json::U64(h.count()));
            obj.push("sum", Json::U64(h.sum()));
            obj.push("min", Json::U64(h.min()));
            obj.push("max", Json::U64(h.max()));
            obj.push("mean", Json::F64(h.mean()));
            obj.push("p50", Json::U64(h.quantile(0.50)));
            obj.push("p95", Json::U64(h.quantile(0.95)));
            obj.push("p99", Json::U64(h.quantile(0.99)));
            obj.push(
                "buckets",
                Json::Arr(
                    h.buckets()
                        .into_iter()
                        .map(|(bits, count)| {
                            Json::Arr(vec![Json::U64(bits as u64), Json::U64(count)])
                        })
                        .collect(),
                ),
            );
            obj
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MetricSink;

    struct Fake {
        hits: u64,
    }

    impl Metrics for Fake {
        fn record(&self, sink: &mut dyn MetricSink) {
            sink.counter("hits", self.hits);
            sink.gauge("rate", self.hits as f64 / 100.0);
            let mut h = Histogram::new();
            h.record(self.hits);
            sink.histogram("dist", &h);
        }
    }

    #[test]
    fn scoped_collection() {
        let mut reg = StatsRegistry::new();
        reg.collect("core0/l1", &Fake { hits: 7 });
        reg.collect("core1/l1", &Fake { hits: 9 });
        assert_eq!(reg.counter("core0/l1/hits"), Some(7));
        assert_eq!(reg.counter("core1/l1/hits"), Some(9));
        assert_eq!(reg.gauge("core1/l1/rate"), Some(0.09));
        assert_eq!(reg.histogram("core0/l1/dist").unwrap().count(), 1);
        assert_eq!(reg.counter_sum("core"), 16);
        // Re-collecting a scope overwrites it.
        reg.collect("core0/l1", &Fake { hits: 8 });
        assert_eq!(reg.counter("core0/l1/hits"), Some(8));
        assert_eq!(reg.len(), 6);
    }

    #[test]
    fn empty_scope_collects_at_root() {
        let mut reg = StatsRegistry::new();
        reg.collect("", &Fake { hits: 1 });
        assert_eq!(reg.counter("hits"), Some(1));
    }

    #[test]
    fn direct_mutation() {
        let mut reg = StatsRegistry::new();
        reg.add_counter("x", 3);
        reg.add_counter("x", 4);
        assert_eq!(reg.counter("x"), Some(7));
        reg.observe("lat", 10);
        reg.observe("lat", 20);
        assert_eq!(reg.histogram("lat").unwrap().count(), 2);
        reg.set_gauge("g", 2.5);
        assert_eq!(reg.gauge("g"), Some(2.5));
        assert_eq!(reg.counter("g"), None);
        reg.clear();
        assert!(reg.is_empty());
    }

    #[test]
    fn snapshot_delta_windows() {
        let mut reg = StatsRegistry::new();
        reg.add_counter("reads", 100);
        reg.observe("lat", 50);
        reg.set_gauge("ipc", 0.5);
        let warmup = reg.snapshot();
        reg.add_counter("reads", 25);
        reg.observe("lat", 60);
        reg.observe("lat", 70);
        reg.set_gauge("ipc", 0.8);
        let end = reg.snapshot();
        let window = end.delta(&warmup);
        assert_eq!(window.counter("reads"), Some(25));
        assert_eq!(window.histogram("lat").unwrap().count(), 2);
        assert_eq!(window.gauge("ipc"), Some(0.8));
        // delta(a, a) zeroes every counter and histogram.
        let zero = end.delta(&end);
        assert_eq!(zero.counter("reads"), Some(0));
        assert!(zero.histogram("lat").unwrap().is_empty());
    }

    #[test]
    fn snapshot_renders_json_and_table() {
        let mut reg = StatsRegistry::new();
        reg.set_counter("dram/reads", 12);
        reg.set_gauge("sim/ipc", 1.5);
        reg.observe("engine/lat", 40);
        let snap = reg.snapshot();
        let json = snap.to_json().render();
        assert!(json.contains("\"dram/reads\": 12"));
        assert!(json.contains("\"sim/ipc\": 1.5"));
        assert!(json.contains("\"p99\": 40"));
        let table = snap.to_table();
        assert!(table.contains("dram/reads"));
        assert!(table.contains("1.5000"));
    }
}
