//! Unified telemetry for the authenticated-memory-encryption workspace.
//!
//! Every layer of the simulator — caches, DRAM timing, counter schemes,
//! the integrity tree, the encryption engine, the multicore model — keeps
//! statistics. Before this crate each layer invented its own struct and
//! `ame-bench` re-aggregated the fields by hand for every figure. This
//! crate gives them one vocabulary:
//!
//! * [`Histogram`] — log₂-bucketed distributions for latencies and
//!   occupancies, with exact count/sum/min/max and mergeable buckets.
//! * [`StatsRegistry`] — a hierarchical, `/`-scoped namespace that stat
//!   structs report into via the [`Metrics`] visitor trait.
//! * [`Snapshot`] — an immutable copy of a registry; two of them diff
//!   with [`StatsRegistry::delta`], so warmup-vs-measurement windows are
//!   a diff rather than bespoke reset logic.
//! * [`Json`] — a hand-rolled JSON writer (no serde; the workspace has a
//!   no-external-dependency policy) plus an aligned text-table writer, so
//!   experiments emit both human artifacts and machine-diffable
//!   `results/*.json`.
//!
//! # Reporting stats
//!
//! A component implements [`Metrics`] once and any registry can collect
//! it under any scope:
//!
//! ```
//! use ame_telemetry::{Metrics, MetricSink, StatsRegistry};
//!
//! struct CacheStats { hits: u64, misses: u64 }
//!
//! impl Metrics for CacheStats {
//!     fn record(&self, sink: &mut dyn MetricSink) {
//!         sink.counter("hits", self.hits);
//!         sink.counter("misses", self.misses);
//!         sink.gauge("hit_rate", self.hits as f64 / (self.hits + self.misses) as f64);
//!     }
//! }
//!
//! let mut reg = StatsRegistry::new();
//! reg.collect("core0/l1", &CacheStats { hits: 90, misses: 10 });
//! assert_eq!(reg.counter("core0/l1/hits"), Some(90));
//! assert_eq!(reg.gauge("core0/l1/hit_rate"), Some(0.9));
//! ```
//!
//! # Windows as diffs
//!
//! ```
//! use ame_telemetry::StatsRegistry;
//!
//! let mut reg = StatsRegistry::new();
//! reg.add_counter("dram/reads", 100);
//! let warmup = reg.snapshot();
//! reg.add_counter("dram/reads", 40);
//! let end = reg.snapshot();
//! assert_eq!(end.delta(&warmup).counter("dram/reads"), Some(40));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod histogram;
mod json;
mod registry;

pub use histogram::Histogram;
pub use json::Json;
pub use registry::{Snapshot, StatsRegistry, Value};

/// Receives the metrics a component reports.
///
/// Implemented by [`StatsRegistry`] scopes; component code only ever
/// talks to this trait, so stats structs stay decoupled from the
/// registry's storage.
pub trait MetricSink {
    /// Reports a monotonic counter.
    fn counter(&mut self, name: &str, value: u64);
    /// Reports an instantaneous gauge.
    fn gauge(&mut self, name: &str, value: f64);
    /// Reports a distribution.
    fn histogram(&mut self, name: &str, hist: &Histogram);
}

/// A component that can report its statistics into a [`MetricSink`].
///
/// The registry calls this through [`StatsRegistry::collect`], prefixing
/// every reported name with the caller's scope.
pub trait Metrics {
    /// Reports every metric this component tracks.
    fn record(&self, sink: &mut dyn MetricSink);
}

impl<T: Metrics + ?Sized> Metrics for &T {
    fn record(&self, sink: &mut dyn MetricSink) {
        (**self).record(sink);
    }
}
