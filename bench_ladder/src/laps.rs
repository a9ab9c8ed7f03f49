//! Lap cutting: the measured phase is a sequence of laps of a fixed op
//! count, and throughput is a median lap rate.
//!
//! A lap ends at the completion that brings its op count to `lap_ops`.
//! A host stall lands in one lap and moves a median of laps by nothing,
//! where it would move a whole-run mean by its full length. A cost that
//! recurs (a WAL rotation, a checkpoint) must land in most laps to be
//! counted, so laps are sized to hold one.
//!
//! An untraced run drives one lap at a time until `--seconds` seconds
//! have passed, so a slow host gives fewer laps and not a longer run.

use std::sync::OnceLock;
use std::time::Instant;

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the first call in this process (monotonic).
#[must_use]
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Cuts a stream of completions into laps of `lap_ops` operations.
#[derive(Debug, Clone)]
pub struct Laps {
    lap_ops: u64,
    target: usize,
    in_lap: u64,
    lap_start: u64,
    first_start: u64,
    durations: Vec<u64>,
}

impl Laps {
    /// `target` laps of `lap_ops` operations, the first starting at
    /// `start_ns`.
    #[must_use]
    pub fn new(lap_ops: u64, target: usize, start_ns: u64) -> Self {
        assert!(lap_ops > 0 && target > 0, "laps need ops and a count");
        Self {
            lap_ops,
            target,
            in_lap: 0,
            lap_start: start_ns,
            first_start: start_ns,
            durations: Vec::with_capacity(target),
        }
    }

    /// Accounts `n` operations completed at `now`. Returns `true` when
    /// that closed a lap.
    pub fn tick(&mut self, now: u64, n: u64) -> bool {
        self.in_lap += n;
        if self.in_lap < self.lap_ops || self.done() {
            return false;
        }
        self.in_lap -= self.lap_ops;
        self.durations.push(now - self.lap_start);
        self.lap_start = now;
        true
    }

    /// `true` once every lap is cut.
    #[must_use]
    pub fn done(&self) -> bool {
        self.durations.len() >= self.target
    }

    /// Operations the whole set of laps covers.
    #[must_use]
    pub fn total_ops(&self) -> u64 {
        self.lap_ops * self.target as u64
    }

    /// Start of the first lap.
    #[must_use]
    pub fn first_start(&self) -> u64 {
        self.first_start
    }

    /// End of the last cut lap.
    #[must_use]
    pub fn last_end(&self) -> u64 {
        self.lap_start
    }

    /// Wall time of each cut lap, nanoseconds.
    #[must_use]
    pub fn durations(&self) -> &[u64] {
        &self.durations
    }
}

/// Per-lap rates (ops/s) of several threads that each cut their own
/// laps concurrently: lap `i`'s rate is the sum of the threads' rates.
#[must_use]
pub fn lap_rates(threads: &[&Laps]) -> Vec<f64> {
    let laps = threads.iter().map(|l| l.durations.len()).min().unwrap_or(0);
    (0..laps)
        .map(|i| {
            threads
                .iter()
                .map(|l| l.lap_ops as f64 * 1e9 / l.durations[i].max(1) as f64)
                .sum()
        })
        .collect()
}

/// Median of `values` (mean of the middle two for an even count); 0 when
/// empty.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile by the "exclusive" method Python's
/// `statistics.quantiles(values, n=4)` uses, so spreads computed here
/// match the ones the benchmark contract is judged by.
#[must_use]
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let at = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    (at(1), at(3))
}
