//! What one drive of one rung leaves behind: laps, a latency histogram,
//! failure counts and (traced runs) spans. All of it is fixed-size or
//! reserved up front; nothing grows per operation.

use crate::hist::LogLinHist;
use crate::laps::{lap_rates, median, now_ns, Laps};
use crate::spans::{Layer, Span, Tracer};

/// Tracing context handed to a drive: the rung span to hang lap spans
/// under, and a base that keeps span ids of concurrent threads disjoint.
#[derive(Debug, Clone, Copy)]
pub struct TraceCtx {
    /// Id of the rung span.
    pub rung_span: u32,
    /// First id this drive may use (each thread adds its own offset).
    pub id_base: u32,
}

/// Span ids reserved per thread of a drive.
pub const IDS_PER_THREAD: u32 = 1 << 24;

/// Per-thread recorder of completions.
#[derive(Debug)]
pub struct Recorder {
    layer: Layer,
    laps: Laps,
    hist: LogLinHist,
    /// Latency sums and call counts, `[reads, writes]`.
    dir_ns: [u64; 2],
    dir_calls: [u64; 2],
    /// Operations that returned an error or were refused.
    pub failed: u64,
    /// Reads that returned bytes the model did not expect.
    pub mismatches: u64,
    /// Send lag of an open-loop generator (actual - due), if any.
    pub lag: LogLinHist,
    tracer: Option<Tracer>,
    rung_span: u32,
    lap_span: u32,
}

impl Recorder {
    /// A recorder for `laps` laps of `lap_ops` operations starting now.
    /// `calls` is how many submission units that is (span capacity).
    #[must_use]
    pub fn start(
        layer: Layer,
        lap_ops: u64,
        laps: usize,
        calls: u64,
        trace: Option<TraceCtx>,
    ) -> Self {
        let mut tracer = trace.map(|t| Tracer::new(t.id_base, calls as usize + laps + 1));
        let rung_span = trace.map_or(0, |t| t.rung_span);
        let start = now_ns();
        let lap_span = tracer
            .as_mut()
            .map_or(0, |t| t.open(Layer::Harness, 0, rung_span, start));
        Self {
            layer,
            laps: Laps::new(lap_ops, laps, start),
            hist: LogLinHist::new(),
            dir_ns: [0; 2],
            dir_calls: [0; 2],
            failed: 0,
            mismatches: 0,
            lag: LogLinHist::new(),
            tracer,
            rung_span,
            lap_span,
        }
    }

    /// One submission unit covering `n` operations completed: its
    /// latency runs from `t0` to `t1`, and `t1` advances the laps.
    pub fn complete(&mut self, op_index: u64, write: bool, t0: u64, t1: u64, n: u64) {
        let ns = t1.saturating_sub(t0);
        self.hist.record(ns);
        self.dir_ns[usize::from(write)] += ns;
        self.dir_calls[usize::from(write)] += 1;
        if let Some(tracer) = &mut self.tracer {
            tracer.record(self.layer, op_index as u32, self.lap_span, t0, t1);
        }
        self.advance(t1, n);
    }

    /// A write call and the read call that follows it, as one submission
    /// unit covering `n` operations: its latency is the two calls'
    /// together (the streaming schedule alternates them one for one, and
    /// the median of the two kinds mixed would sit on the edge between
    /// two modes).
    pub fn complete_pair(&mut self, op_index: u64, write: (u64, u64), read: (u64, u64), n: u64) {
        let ns = [
            read.1.saturating_sub(read.0),
            write.1.saturating_sub(write.0),
        ];
        self.hist.record(ns[0] + ns[1]);
        for (d, ns) in ns.into_iter().enumerate() {
            self.dir_ns[d] += ns;
            self.dir_calls[d] += 1;
        }
        if let Some(tracer) = &mut self.tracer {
            tracer.record(self.layer, op_index as u32, self.lap_span, write.0, write.1);
            tracer.record(
                self.layer,
                op_index as u32 + 1,
                self.lap_span,
                read.0,
                read.1,
            );
        }
        self.advance(read.1, n);
    }

    /// An operation that was refused at `now`: it counts toward the lap
    /// (and as failed, by the caller) but has no latency sample.
    pub fn complete_unsampled(&mut self, now: u64) {
        self.advance(now, 1);
    }

    fn advance(&mut self, now: u64, n: u64) {
        if self.laps.tick(now, n) {
            if let Some(tracer) = &mut self.tracer {
                tracer.finish(self.lap_span, now);
                if !self.laps.done() {
                    let lap = self.laps.durations().len() as u32;
                    self.lap_span = tracer.open(Layer::Harness, lap, self.rung_span, now);
                }
            }
        }
    }

    /// `true` once every lap is cut.
    #[must_use]
    pub fn done(&self) -> bool {
        self.laps.done()
    }
}

/// The merged outcome of one drive (all threads).
#[derive(Debug)]
pub struct Driven {
    /// Rate of each lap, ops/s (threads' rates summed).
    rates: Vec<f64>,
    /// Wall time covered, first lap start to last lap end, summed over
    /// absorbed drives.
    wall_ns: u64,
    /// Latency of one submission unit, nanoseconds.
    pub hist: LogLinHist,
    dir_ns: [u64; 2],
    dir_calls: [u64; 2],
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that returned an error or were refused.
    pub failed: u64,
    /// Reads that returned unexpected bytes.
    pub mismatches: u64,
    /// Send lag (open loop only; empty otherwise).
    pub lag: LogLinHist,
    /// Spans of a traced drive.
    pub spans: Vec<Span>,
}

impl Driven {
    /// Merges the recorders of a drive's threads.
    #[must_use]
    pub fn merge(recorders: Vec<Recorder>) -> Self {
        let laps: Vec<&Laps> = recorders.iter().map(|r| &r.laps).collect();
        let start = laps.iter().map(|l| l.first_start()).min().unwrap_or(0);
        let end = laps.iter().map(|l| l.last_end()).max().unwrap_or(0);
        let mut out = Driven {
            rates: lap_rates(&laps),
            wall_ns: end.saturating_sub(start),
            hist: LogLinHist::new(),
            dir_ns: [0; 2],
            dir_calls: [0; 2],
            attempted: 0,
            failed: 0,
            mismatches: 0,
            lag: LogLinHist::new(),
            spans: Vec::new(),
        };
        for r in recorders {
            out.hist.merge(&r.hist);
            out.lag.merge(&r.lag);
            for d in 0..2 {
                out.dir_ns[d] += r.dir_ns[d];
                out.dir_calls[d] += r.dir_calls[d];
            }
            out.attempted += r.laps.total_ops();
            out.failed += r.failed;
            out.mismatches += r.mismatches;
            if let Some(tracer) = r.tracer {
                out.spans.extend(tracer.into_spans());
            }
        }
        out
    }

    /// Appends a later drive of the same rung: its laps follow this
    /// one's.
    pub fn absorb(&mut self, mut later: Driven) {
        self.rates.append(&mut later.rates);
        self.wall_ns += later.wall_ns;
        self.hist.merge(&later.hist);
        self.lag.merge(&later.lag);
        for d in 0..2 {
            self.dir_ns[d] += later.dir_ns[d];
            self.dir_calls[d] += later.dir_calls[d];
        }
        self.attempted += later.attempted;
        self.failed += later.failed;
        self.mismatches += later.mismatches;
        self.spans.append(&mut later.spans);
    }

    /// Throughput: the median lap rate, ops/s.
    #[must_use]
    pub fn ops_per_s(&self) -> f64 {
        median(&self.rates)
    }

    /// Whole-run mean rate, ops/s (printed beside the median, never the
    /// metric).
    #[must_use]
    pub fn mean_ops_per_s(&self) -> f64 {
        self.attempted as f64 * 1e9 / self.wall_ns.max(1) as f64
    }

    /// Wall nanoseconds per operation at [`Driven::ops_per_s`].
    #[must_use]
    pub fn ns_per_op(&self) -> f64 {
        1e9 / self.ops_per_s().max(f64::MIN_POSITIVE)
    }

    /// Mean latency of read (`false`) or write (`true`) submission
    /// units, nanoseconds.
    #[must_use]
    pub fn mean_call_ns(&self, write: bool) -> f64 {
        let d = usize::from(write);
        if self.dir_calls[d] == 0 {
            0.0
        } else {
            self.dir_ns[d] as f64 / self.dir_calls[d] as f64
        }
    }
}
