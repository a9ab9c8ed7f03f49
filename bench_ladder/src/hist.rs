//! Fixed-size log-linear latency histogram.
//!
//! Values below 128 are counted exactly; above that every power-of-two
//! octave is cut into 128 equal sub-buckets, so a bucket is at most
//! 1/128 = 0.78 % wide and a quantile (reported at the bucket midpoint)
//! is within 0.4 % of the exact order statistic. The table is 7 424
//! counters (58 KiB) whatever the sample count, which is what keeps the
//! harness's own memory out of `peak_rss_mb`.

const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
/// Octaves 7..=63 above the exact range, plus the exact range itself.
const BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) * SUB as usize;

/// Log-linear histogram of `u64` samples (nanoseconds, in this harness).
#[derive(Clone)]
pub struct LogLinHist {
    counts: Box<[u64]>,
    count: u64,
    min: u64,
    max: u64,
}

impl std::fmt::Debug for LogLinHist {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LogLinHist")
            .field("count", &self.count)
            .field("min", &self.min)
            .field("max", &self.max)
            .finish_non_exhaustive()
    }
}

impl Default for LogLinHist {
    fn default() -> Self {
        Self::new()
    }
}

impl LogLinHist {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self {
            counts: vec![0u64; BUCKETS].into_boxed_slice(),
            count: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn bucket_of(v: u64) -> usize {
        if v < SUB {
            return v as usize;
        }
        let e = 63 - v.leading_zeros();
        let sub = (v >> (e - SUB_BITS)) & (SUB - 1);
        ((e - SUB_BITS + 1) as usize) * SUB as usize + sub as usize
    }

    /// `(lowest value, width)` of bucket `i`.
    fn bucket_range(i: usize) -> (u64, u64) {
        let octave = (i / SUB as usize) as u32;
        let sub = (i % SUB as usize) as u64;
        if octave == 0 {
            (sub, 1)
        } else {
            let shift = octave - 1;
            ((SUB + sub) << shift, 1 << shift)
        }
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.counts[Self::bucket_of(v)] += 1;
        self.count += 1;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Adds every sample of `other`.
    pub fn merge(&mut self, other: &LogLinHist) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The value at rank `ceil(q * count)`, reported as the midpoint of
    /// its bucket and clamped to the exact extremes; 0 when empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let (low, width) = Self::bucket_range(i);
                let mid = low as f64 + (width - 1) as f64 / 2.0;
                return mid.clamp(self.min as f64, self.max as f64);
            }
        }
        self.max as f64
    }

    /// Samples strictly above the bucket holding quantile `q` — the
    /// "how many samples lie beyond it" count printed next to a tail
    /// percentile.
    #[must_use]
    pub fn samples_beyond(&self, q: f64) -> u64 {
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        self.count.saturating_sub(rank)
    }
}
