//! Write-endurance (wear) tracking for non-volatile main memory.
//!
//! Section 2.2 of the paper: "Encrypting data in an NVMM can result in
//! faster storage media wear out [DEUCE, ASPLOS'15]. Frequent
//! re-encryption of memory blocks that result from overflowing counters
//! will exacerbate this problem. The delta encoding scheme we present in
//! this work will reduce potential storage media wear out that can
//! result from more frequent re-encryptions induced by other compact
//! counter storage schemes."
//!
//! [`WearTracker`] records physical writes per block — both application
//! write-backs and the whole-group rewrites triggered by counter
//! overflows — and reports the metrics endurance studies care about:
//! total write volume, **wear amplification** (physical/logical write
//! ratio), the maximum per-cell wear, and the hottest blocks.

use ame_persist::IndexMap;

/// Per-block physical write counter for endurance accounting.
#[derive(Debug, Clone, Default)]
pub struct WearTracker {
    writes: IndexMap<u64>,
    logical: u64,
    physical: u64,
}

impl WearTracker {
    /// Creates an empty tracker.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an application (logical) write to `block`, which is also
    /// one physical write.
    pub fn record_app_write(&mut self, block: u64) {
        self.logical += 1;
        self.physical += 1;
        *self.writes.entry(block).or_insert(0) += 1;
    }

    /// Records an *overhead* physical write to `block` (re-encryption
    /// sweeps, wear-levelling moves) that serves no application store.
    pub fn record_overhead_write(&mut self, block: u64) {
        self.physical += 1;
        *self.writes.entry(block).or_insert(0) += 1;
    }

    /// Total logical (application) writes.
    #[must_use]
    pub fn logical_writes(&self) -> u64 {
        self.logical
    }

    /// Total physical writes (logical + overhead).
    #[must_use]
    pub fn physical_writes(&self) -> u64 {
        self.physical
    }

    /// Physical / logical write ratio; 1.0 is the ideal.
    ///
    /// # Example
    ///
    /// ```
    /// use ame_dram::wear::WearTracker;
    ///
    /// let mut w = WearTracker::new();
    /// w.record_app_write(1);
    /// w.record_overhead_write(2);
    /// assert_eq!(w.wear_amplification(), 2.0);
    /// ```
    #[must_use]
    pub fn wear_amplification(&self) -> f64 {
        if self.logical == 0 {
            if self.physical == 0 {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            self.physical as f64 / self.logical as f64
        }
    }

    /// Highest per-block write count (the first cell to wear out).
    #[must_use]
    pub fn max_wear(&self) -> u64 {
        self.writes.values().copied().max().unwrap_or(0)
    }

    /// Mean write count over blocks that were written at least once.
    #[must_use]
    pub fn mean_wear(&self) -> f64 {
        if self.writes.is_empty() {
            0.0
        } else {
            self.physical as f64 / self.writes.len() as f64
        }
    }

    /// Number of distinct blocks ever written.
    #[must_use]
    pub fn touched_blocks(&self) -> usize {
        self.writes.len()
    }

    /// The `n` most-written blocks, hottest first.
    #[must_use]
    pub fn hottest(&self, n: usize) -> Vec<(u64, u64)> {
        let mut v: Vec<(u64, u64)> = self.writes.iter().map(|(&b, &c)| (b, c)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v.truncate(n);
        v
    }

    /// Remaining lifetime fraction of the worst cell given a per-cell
    /// endurance budget (e.g. 10^8 writes for PCM-class NVMM).
    #[must_use]
    pub fn lifetime_consumed(&self, endurance: u64) -> f64 {
        if endurance == 0 {
            return 1.0;
        }
        (self.max_wear() as f64 / endurance as f64).min(1.0)
    }
}

impl ame_telemetry::Metrics for WearTracker {
    fn record(&self, sink: &mut dyn ame_telemetry::MetricSink) {
        sink.counter("logical_writes", self.logical);
        sink.counter("physical_writes", self.physical);
        sink.counter("max_wear", self.max_wear());
        sink.counter("touched_blocks", self.writes.len() as u64);
        sink.gauge("wear_amplification", self.wear_amplification());
        sink.gauge("mean_wear", self.mean_wear());
        let mut dist = ame_telemetry::Histogram::new();
        for &count in self.writes.values() {
            dist.record(count);
        }
        sink.histogram("per_block_writes", &dist);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn amplification_math() {
        let mut w = WearTracker::new();
        for _ in 0..10 {
            w.record_app_write(0);
        }
        assert_eq!(w.wear_amplification(), 1.0);
        for b in 0..5 {
            w.record_overhead_write(b);
        }
        assert_eq!(w.physical_writes(), 15);
        assert_eq!(w.logical_writes(), 10);
        assert!((w.wear_amplification() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn empty_tracker_is_neutral() {
        let w = WearTracker::new();
        assert_eq!(w.wear_amplification(), 1.0);
        assert_eq!(w.max_wear(), 0);
        assert_eq!(w.mean_wear(), 0.0);
        assert!(w.hottest(3).is_empty());
    }

    #[test]
    fn overhead_only_is_infinite_amplification() {
        let mut w = WearTracker::new();
        w.record_overhead_write(9);
        assert!(w.wear_amplification().is_infinite());
    }

    #[test]
    fn hottest_ordering() {
        let mut w = WearTracker::new();
        for _ in 0..3 {
            w.record_app_write(10);
        }
        w.record_app_write(20);
        for _ in 0..2 {
            w.record_app_write(30);
        }
        assert_eq!(w.hottest(2), vec![(10, 3), (30, 2)]);
        assert_eq!(w.max_wear(), 3);
        assert_eq!(w.touched_blocks(), 3);
    }

    #[test]
    fn lifetime_consumption() {
        let mut w = WearTracker::new();
        for _ in 0..50 {
            w.record_app_write(0);
        }
        assert!((w.lifetime_consumed(100) - 0.5).abs() < 1e-12);
        assert_eq!(w.lifetime_consumed(10), 1.0, "clamped at end of life");
    }
}
