//! Synthetic PARSEC-like memory-trace generators.
//!
//! The paper evaluates on 11 of the 13 PARSEC 2.1 applications (sim-med
//! inputs, 4 threads). Those binaries and a cycle-accurate x86 simulator
//! are not available here, so each application is replaced by a synthetic
//! address-stream generator parameterized on the first-order memory
//! characteristics that drive the paper's results:
//!
//! * **memory intensity** (memory ops per instruction), **working-set
//!   size** and **pointer-chasing dependence** — determine LLC miss rates
//!   and how much miss latency the core can overlap, i.e. how exposed the
//!   app is to encryption overheads (Figure 8);
//! * **write fraction** and **write locality structure** — determine
//!   counter-overflow behaviour (Table 2). The structure is expressed by
//!   a [`HotMode`] plus sequential-sweep parameters:
//!   - *sequential write sweeps* give near-uniform per-block counts, so
//!     the delta reset/re-encode optimizations absorb overflows (dedup,
//!     fluidanimate, freqmine, raytrace);
//!   - [`HotMode::UniformPage`] keeps whole pages warm, so the minimum
//!     delta stays positive and re-encoding fires (ferret);
//!   - [`HotMode::SingleBlock`] hammers isolated blocks: neither reset
//!     nor re-encode helps (min delta stays 0), but the dual-length
//!     overflow bits absorb the hot block (vips, canneal, dedup);
//!   - [`HotMode::PartialSweep`] writes short bursts at random offsets
//!     inside hot pages: all four delta-groups of a group grow
//!     concurrently, defeating the single shared expansion — the facesim
//!     pathology where dual-length does *worse* than flat 7-bit deltas.
//!
//! All generation is deterministic from a seed.
//!
//! # Example
//!
//! ```
//! use ame_workloads::{ParsecApp, TraceGenerator};
//!
//! let mut gen = TraceGenerator::new(ParsecApp::Dedup.profile(), 42, 0);
//! let ops = gen.take_ops(1000);
//! assert_eq!(ops.len(), 1000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use ame_prng::StdRng;

/// One record of a memory trace: `compute` non-memory instructions, then
/// one memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceOp {
    /// Non-memory instructions executed before this access.
    pub compute: u32,
    /// Byte address of the access (block-aligned).
    pub addr: u64,
    /// `true` for stores.
    pub write: bool,
    /// `true` if this access's address depends on the previous load's
    /// value (pointer chasing): the core cannot overlap it with the
    /// previous load, no matter how large its out-of-order window is.
    pub dependent: bool,
}

/// How writes to the hot set are distributed within hot pages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HotMode {
    /// Hammer one designated block per hot page. Minimum delta in the
    /// group stays zero (reset and re-encode never fire); the dual-length
    /// expansion absorbs it.
    SingleBlock,
    /// Write a short sequential burst at a random offset inside the hot
    /// page. All delta-groups of the page grow concurrently with noisy
    /// skew — the facesim pathology for dual-length encoding.
    PartialSweep {
        /// Min/max burst length in blocks.
        run: (u32, u32),
    },
    /// Near-round-robin coverage of the hot page (occasional random
    /// jitter): every block's counter grows, so the minimum delta stays
    /// positive and re-encoding keeps rescuing the group.
    UniformPage,
}

/// Tunable memory-behaviour profile of one application.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadProfile {
    /// Application name (Table 2 row label).
    pub name: &'static str,
    /// Memory operations per instruction (0.0 - 1.0).
    pub mem_fraction: f64,
    /// Fraction of memory ops that are stores.
    pub write_fraction: f64,
    /// Total working-set size in bytes.
    pub working_set_bytes: u64,
    /// Size of the *written* footprint in bytes (reads roam the full
    /// working set; writes concentrate here — hash tables, meshes,
    /// accumulators). Must be `<= working_set_bytes`.
    pub write_region_bytes: u64,
    /// Size of the cache-resident hot *read* set in bytes. Real
    /// applications serve most loads from a small reused region; without
    /// this, every load would miss the LLC and the memory system would be
    /// implausibly over-stressed.
    pub resident_bytes: u64,
    /// Probability that a plain (non-sequential) read targets the
    /// resident set rather than the full working set.
    pub read_reuse_prob: f64,
    /// Probability that a plain random read is *pointer-chasing*: its
    /// address came from the previous load, so it cannot issue until that
    /// load returns (canneal's defining behaviour).
    pub dependent_read_prob: f64,
    /// Probability that a non-hot access starts a sequential run.
    pub seq_prob: f64,
    /// Min/max sequential-run length in blocks.
    pub seq_run: (u32, u32),
    /// If `true`, sequential runs are uniformly read-runs or write-runs
    /// (write *sweeps*, which give uniform per-block write counts);
    /// otherwise each op rolls independently.
    pub sweep_writes: bool,
    /// Probability that a *write* targets the hot set.
    pub hot_write_prob: f64,
    /// Number of hot 4 KB pages.
    pub hot_pages: u64,
    /// Distribution of writes within hot pages.
    pub hot_mode: HotMode,
}

impl WorkloadProfile {
    /// Returns a proportionally scaled-down copy: working set, write
    /// region and hot-page count divided by `factor`. Profiles whose
    /// working set already fits a last-level cache (<= 8 MB) are returned
    /// unchanged — their writes coalesce on-chip at any scale.
    ///
    /// Counter overflows need >127 DRAM write-backs of the same block; at
    /// full scale that takes billions of trace records. The Table 2
    /// harness therefore scales footprints *and* its LLC filter down by
    /// the same factor, preserving cache-pressure ratios while making
    /// overflow events observable in tractable traces (absolute rates are
    /// correspondingly higher than the paper's; orderings are preserved).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is zero.
    #[must_use]
    pub fn scaled(mut self, factor: u64) -> Self {
        assert!(factor > 0, "scale factor must be positive");
        if self.working_set_bytes <= 8 << 20 {
            return self;
        }
        self.working_set_bytes = (self.working_set_bytes / factor).max(64 * 64);
        self.write_region_bytes =
            (self.write_region_bytes / factor).clamp(4096, self.working_set_bytes);
        self.resident_bytes = (self.resident_bytes / factor).clamp(4096, self.working_set_bytes);
        self.hot_pages = (self.hot_pages / factor).max(1);
        self
    }
}

/// The 11 PARSEC 2.1 applications the paper runs (Table 2 order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ParsecApp {
    /// facesim — physics simulation; very write-intensive, bursty writes
    /// spread across whole hot pages.
    Facesim,
    /// dedup — pipeline compression; heavy sequential write sweeps plus
    /// isolated hot blocks.
    Dedup,
    /// canneal — simulated annealing; scattered single-block writes over
    /// a huge working set.
    Canneal,
    /// vips — image processing; streaming reads with isolated hot blocks.
    Vips,
    /// ferret — similarity search; writes cover whole warm pages.
    Ferret,
    /// fluidanimate — particle simulation; sweep-dominated writes.
    Fluidanimate,
    /// freqmine — frequent itemset mining; mostly-read with rare sweeps.
    Freqmine,
    /// raytrace — rendering; read-dominated.
    Raytrace,
    /// swaptions — tiny working set, compute-bound.
    Swaptions,
    /// blackscholes — tiny working set, compute-bound.
    Blackscholes,
    /// bodytrack — small working set, compute-bound.
    Bodytrack,
}

impl ParsecApp {
    /// All 11 applications in Table 2 order.
    #[must_use]
    pub fn all() -> [ParsecApp; 11] {
        [
            ParsecApp::Facesim,
            ParsecApp::Dedup,
            ParsecApp::Canneal,
            ParsecApp::Vips,
            ParsecApp::Ferret,
            ParsecApp::Fluidanimate,
            ParsecApp::Freqmine,
            ParsecApp::Raytrace,
            ParsecApp::Swaptions,
            ParsecApp::Blackscholes,
            ParsecApp::Bodytrack,
        ]
    }

    /// The seven applications Figure 8 shows (the other four see no
    /// measurable impact from authenticated encryption).
    #[must_use]
    pub fn memory_sensitive() -> [ParsecApp; 7] {
        [
            ParsecApp::Facesim,
            ParsecApp::Dedup,
            ParsecApp::Canneal,
            ParsecApp::Vips,
            ParsecApp::Ferret,
            ParsecApp::Fluidanimate,
            ParsecApp::Freqmine,
        ]
    }

    /// The synthetic profile standing in for this application.
    #[must_use]
    pub fn profile(self) -> WorkloadProfile {
        match self {
            ParsecApp::Facesim => WorkloadProfile {
                name: "facesim",
                mem_fraction: 0.38,
                write_fraction: 0.42,
                working_set_bytes: 96 << 20,
                write_region_bytes: 8 << 20,
                resident_bytes: 4 << 20,
                read_reuse_prob: 0.88,
                dependent_read_prob: 0.05,
                seq_prob: 0.20,
                seq_run: (4, 24),
                sweep_writes: true,
                hot_write_prob: 0.50,
                hot_pages: 256,
                hot_mode: HotMode::PartialSweep { run: (4, 16) },
            },
            ParsecApp::Dedup => WorkloadProfile {
                name: "dedup",
                mem_fraction: 0.36,
                write_fraction: 0.38,
                working_set_bytes: 128 << 20,
                write_region_bytes: 4 << 20,
                resident_bytes: 4 << 20,
                read_reuse_prob: 0.92,
                dependent_read_prob: 0.05,
                seq_prob: 0.55,
                seq_run: (16, 64),
                sweep_writes: true,
                hot_write_prob: 0.12,
                hot_pages: 4096,
                hot_mode: HotMode::SingleBlock,
            },
            ParsecApp::Canneal => WorkloadProfile {
                name: "canneal",
                mem_fraction: 0.33,
                write_fraction: 0.25,
                working_set_bytes: 192 << 20,
                write_region_bytes: 8 << 20,
                resident_bytes: 2 << 20,
                read_reuse_prob: 0.955,
                dependent_read_prob: 0.7,
                seq_prob: 0.02,
                seq_run: (2, 4),
                sweep_writes: false,
                hot_write_prob: 0.50,
                hot_pages: 4096,
                hot_mode: HotMode::SingleBlock,
            },
            ParsecApp::Vips => WorkloadProfile {
                name: "vips",
                mem_fraction: 0.30,
                write_fraction: 0.33,
                working_set_bytes: 64 << 20,
                write_region_bytes: 4 << 20,
                resident_bytes: 4 << 20,
                read_reuse_prob: 0.93,
                dependent_read_prob: 0.05,
                seq_prob: 0.40,
                seq_run: (8, 32),
                sweep_writes: false, // streaming reads; writes hit hot blocks
                hot_write_prob: 0.45,
                hot_pages: 4096,
                hot_mode: HotMode::SingleBlock,
            },
            ParsecApp::Ferret => WorkloadProfile {
                name: "ferret",
                mem_fraction: 0.28,
                write_fraction: 0.22,
                working_set_bytes: 64 << 20,
                write_region_bytes: 4 << 20,
                resident_bytes: 4 << 20,
                read_reuse_prob: 0.93,
                dependent_read_prob: 0.15,
                seq_prob: 0.20,
                seq_run: (4, 16),
                sweep_writes: true,
                hot_write_prob: 0.40,
                hot_pages: 128,
                hot_mode: HotMode::UniformPage,
            },
            ParsecApp::Fluidanimate => WorkloadProfile {
                name: "fluidanimate",
                mem_fraction: 0.27,
                write_fraction: 0.35,
                working_set_bytes: 48 << 20,
                write_region_bytes: 8 << 20,
                resident_bytes: 4 << 20,
                read_reuse_prob: 0.93,
                dependent_read_prob: 0.05,
                seq_prob: 0.70,
                seq_run: (32, 64),
                sweep_writes: true,
                hot_write_prob: 0.02,
                hot_pages: 64,
                hot_mode: HotMode::UniformPage,
            },
            ParsecApp::Freqmine => WorkloadProfile {
                name: "freqmine",
                mem_fraction: 0.30,
                write_fraction: 0.12,
                working_set_bytes: 64 << 20,
                write_region_bytes: 16 << 20,
                resident_bytes: 4 << 20,
                read_reuse_prob: 0.92,
                dependent_read_prob: 0.2,
                seq_prob: 0.50,
                seq_run: (16, 48),
                sweep_writes: true,
                hot_write_prob: 0.02,
                hot_pages: 64,
                hot_mode: HotMode::UniformPage,
            },
            ParsecApp::Raytrace => WorkloadProfile {
                name: "raytrace",
                mem_fraction: 0.24,
                write_fraction: 0.06,
                working_set_bytes: 96 << 20,
                write_region_bytes: 16 << 20,
                resident_bytes: 4 << 20,
                read_reuse_prob: 0.93,
                dependent_read_prob: 0.15,
                seq_prob: 0.35,
                seq_run: (8, 24),
                sweep_writes: true,
                hot_write_prob: 0.05,
                hot_pages: 64,
                hot_mode: HotMode::SingleBlock,
            },
            ParsecApp::Swaptions => WorkloadProfile {
                name: "swaptions",
                mem_fraction: 0.12,
                write_fraction: 0.20,
                working_set_bytes: 1 << 20, // fits in the L3
                write_region_bytes: 1 << 20,
                resident_bytes: 1 << 20,
                read_reuse_prob: 0.98,
                dependent_read_prob: 0.0,
                seq_prob: 0.30,
                seq_run: (4, 8),
                sweep_writes: true,
                hot_write_prob: 0.05,
                hot_pages: 4,
                hot_mode: HotMode::UniformPage,
            },
            ParsecApp::Blackscholes => WorkloadProfile {
                name: "blackscholes",
                mem_fraction: 0.10,
                write_fraction: 0.15,
                working_set_bytes: 1 << 20,
                write_region_bytes: 1 << 20,
                resident_bytes: 1 << 20,
                read_reuse_prob: 0.98,
                dependent_read_prob: 0.0,
                seq_prob: 0.50,
                seq_run: (8, 16),
                sweep_writes: true,
                hot_write_prob: 0.05,
                hot_pages: 2,
                hot_mode: HotMode::UniformPage,
            },
            ParsecApp::Bodytrack => WorkloadProfile {
                name: "bodytrack",
                mem_fraction: 0.16,
                write_fraction: 0.18,
                working_set_bytes: 2 << 20,
                write_region_bytes: 2 << 20,
                resident_bytes: 1 << 20,
                read_reuse_prob: 0.97,
                dependent_read_prob: 0.05,
                seq_prob: 0.30,
                seq_run: (4, 12),
                sweep_writes: true,
                hot_write_prob: 0.05,
                hot_pages: 4,
                hot_mode: HotMode::UniformPage,
            },
        }
    }
}

/// Blocks per 4 KB page.
const PAGE_BLOCKS: u64 = 64;

/// Streaming trace generator for one thread of one application.
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    profile: WorkloadProfile,
    rng: StdRng,
    /// Remaining blocks of the active sequential run.
    run_left: u32,
    /// Current offset of the run within its region.
    run_off: u64,
    /// First block of the run's wrap region.
    run_base: u64,
    /// Size of the run's wrap region in blocks.
    run_span: u64,
    run_write: bool,
    /// Base block of each hot page (derived from the seed, shared by all
    /// threads of the same seed).
    hot_page_blocks: Vec<u64>,
    /// Round-robin cursor for [`HotMode::UniformPage`].
    hot_cursor: u64,
}

impl TraceGenerator {
    /// Creates a generator for `thread` of an application run seeded with
    /// `seed`. All threads of the same seed share the hot-page layout
    /// (threads of one process share a heap).
    #[must_use]
    pub fn new(profile: WorkloadProfile, seed: u64, thread: u64) -> Self {
        let write_pages = (profile.write_region_bytes / 4096).max(1);
        // Hot-page layout comes from the seed only, not the thread id, and
        // hot pages live inside the written footprint.
        let mut layout_rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9);
        let hot_page_blocks = (0..profile.hot_pages)
            .map(|_| layout_rng.gen_range(0..write_pages) * PAGE_BLOCKS)
            .collect();
        Self {
            profile,
            rng: StdRng::seed_from_u64(seed.wrapping_mul(0x1000_0001).wrapping_add(thread)),
            run_left: 0,
            run_off: 0,
            run_base: 0,
            run_span: 1,
            run_write: false,
            hot_page_blocks,
            hot_cursor: 0,
        }
    }

    /// The profile driving this generator.
    #[must_use]
    pub fn profile(&self) -> &WorkloadProfile {
        &self.profile
    }

    fn ws_blocks(&self) -> u64 {
        (self.profile.working_set_bytes / 64).max(1)
    }

    fn write_blocks(&self) -> u64 {
        (self.profile.write_region_bytes / 64).max(1)
    }

    /// Mean compute gap between memory ops, in instructions.
    fn mean_gap(&self) -> f64 {
        (1.0 - self.profile.mem_fraction) / self.profile.mem_fraction
    }

    fn start_run(&mut self, base: u64, span: u64, len: u32, write: bool) -> u64 {
        self.run_base = base;
        self.run_span = span.max(1);
        self.run_off = self.rng.gen_range(0..self.run_span);
        self.run_left = len.saturating_sub(1);
        self.run_write = write;
        self.run_base + self.run_off
    }

    /// Generates the next trace record.
    pub fn next_op(&mut self) -> TraceOp {
        let p = self.profile;
        // Compute gap ~ Uniform[0, 2*mean] (mean preserved, cheap to draw).
        let compute = self.rng.gen_range(0.0..=2.0 * self.mean_gap()).round() as u32;

        // Continue an active sequential run.
        if self.run_left > 0 {
            self.run_left -= 1;
            self.run_off = (self.run_off + 1) % self.run_span;
            let write = if p.sweep_writes {
                self.run_write
            } else {
                self.rng.gen_bool(p.write_fraction)
            };
            return TraceOp {
                compute,
                addr: (self.run_base + self.run_off) * 64,
                write,
                dependent: false,
            };
        }

        let is_write = self.rng.gen_bool(p.write_fraction);

        // Hot-set writes.
        if is_write && !self.hot_page_blocks.is_empty() && self.rng.gen_bool(p.hot_write_prob) {
            let pick = self.rng.gen_range(0..self.hot_page_blocks.len());
            let page = self.hot_page_blocks[pick];
            let block = match p.hot_mode {
                HotMode::SingleBlock => page, // the designated block
                HotMode::PartialSweep { run } => {
                    if self.rng.gen_bool(0.3) {
                        // Skew: three lead elements — one in each of three
                        // different 16-block delta-groups — are hammered on
                        // top of the bursts. Per-block counts diverge (so
                        // re-encoding cannot always rescue the group), and
                        // the single dual-length expansion can cover only
                        // one of the three fast-growing delta-groups.
                        page + 16 * self.rng.gen_range(0..3u64)
                    } else {
                        let len = self.rng.gen_range(run.0..=run.1);
                        self.start_run(page, PAGE_BLOCKS, len, true)
                    }
                }
                HotMode::UniformPage => {
                    // Mostly round-robin (keeps every delta growing), with
                    // a little jitter so counts are not perfectly equal.
                    if self.rng.gen_bool(0.15) {
                        page + self.rng.gen_range(0..PAGE_BLOCKS)
                    } else {
                        self.hot_cursor = (self.hot_cursor + 1) % PAGE_BLOCKS;
                        page + self.hot_cursor
                    }
                }
            };
            return TraceOp {
                compute,
                addr: block * 64,
                write: true,
                dependent: false,
            };
        }

        // Start a sequential run? Write sweeps stay inside the written
        // footprint; read streams mostly revisit the resident set and
        // occasionally stream through the whole working set.
        if self.rng.gen_bool(p.seq_prob) {
            let len = self.rng.gen_range(p.seq_run.0..=p.seq_run.1);
            let write = if p.sweep_writes { is_write } else { false };
            let span = if p.sweep_writes && write {
                self.write_blocks()
            } else if self.rng.gen_bool(p.read_reuse_prob) {
                (p.resident_bytes / 64).max(1)
            } else {
                self.ws_blocks()
            };
            let first = self.start_run(0, span, len, write);
            let op_write = if p.sweep_writes { write } else { is_write };
            return TraceOp {
                compute,
                addr: first * 64,
                write: op_write,
                dependent: false,
            };
        }

        // Plain random access: writes land in the written footprint;
        // reads mostly hit the cache-resident reuse set, occasionally the
        // full working set.
        let bound = if is_write {
            self.write_blocks()
        } else if self.rng.gen_bool(p.read_reuse_prob) {
            (p.resident_bytes / 64).max(1)
        } else {
            self.ws_blocks()
        };
        let block = self.rng.gen_range(0..bound);
        let dependent = !is_write && self.rng.gen_bool(p.dependent_read_prob);
        TraceOp {
            compute,
            addr: block * 64,
            write: is_write,
            dependent,
        }
    }

    /// Generates `n` trace records.
    pub fn take_ops(&mut self, n: usize) -> Vec<TraceOp> {
        (0..n).map(|_| self.next_op()).collect()
    }

    /// Total instructions represented by a slice of trace records
    /// (compute gaps + one instruction per memory op).
    #[must_use]
    pub fn instructions(ops: &[TraceOp]) -> u64 {
        ops.iter().map(|o| u64::from(o.compute) + 1).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_from_seed() {
        let mut a = TraceGenerator::new(ParsecApp::Dedup.profile(), 7, 0);
        let mut b = TraceGenerator::new(ParsecApp::Dedup.profile(), 7, 0);
        assert_eq!(a.take_ops(500), b.take_ops(500));
    }

    #[test]
    fn different_threads_different_streams() {
        let mut a = TraceGenerator::new(ParsecApp::Dedup.profile(), 7, 0);
        let mut b = TraceGenerator::new(ParsecApp::Dedup.profile(), 7, 1);
        assert_ne!(a.take_ops(100), b.take_ops(100));
    }

    #[test]
    fn threads_share_hot_layout() {
        let a = TraceGenerator::new(ParsecApp::Facesim.profile(), 7, 0);
        let b = TraceGenerator::new(ParsecApp::Facesim.profile(), 7, 3);
        assert_eq!(a.hot_page_blocks, b.hot_page_blocks);
    }

    #[test]
    fn addresses_block_aligned_and_in_range() {
        for app in ParsecApp::all() {
            let p = app.profile();
            let mut g = TraceGenerator::new(p, 3, 0);
            for op in g.take_ops(2000) {
                assert_eq!(op.addr % 64, 0);
                assert!(op.addr < p.working_set_bytes, "{}", p.name);
            }
        }
    }

    #[test]
    fn sweep_writes_stay_in_write_region() {
        // Apps with sweep_writes confine every store to the written
        // footprint (non-sweep apps may also store during streaming
        // read-modify-write runs anywhere in the working set).
        for app in [ParsecApp::Dedup, ParsecApp::Facesim] {
            let p = app.profile();
            let mut g = TraceGenerator::new(p, 3, 0);
            for op in g.take_ops(5000) {
                if op.write {
                    // Hot partial sweeps may spill a page past the region
                    // edge; allow one page of slack.
                    assert!(
                        op.addr < p.write_region_bytes + 4096,
                        "{}: write at {:#x}",
                        p.name,
                        op.addr
                    );
                }
            }
        }
    }

    #[test]
    fn write_fraction_roughly_respected() {
        for app in [ParsecApp::Canneal, ParsecApp::Dedup, ParsecApp::Raytrace] {
            let p = app.profile();
            let mut g = TraceGenerator::new(p, 11, 0);
            let ops = g.take_ops(50_000);
            let wf = ops.iter().filter(|o| o.write).count() as f64 / ops.len() as f64;
            assert!(
                (wf - p.write_fraction).abs() < 0.15,
                "{}: measured {wf:.2} vs configured {:.2}",
                p.name,
                p.write_fraction
            );
        }
    }

    #[test]
    fn mem_intensity_reflected_in_compute_gaps() {
        let compute_heavy = ParsecApp::Blackscholes.profile();
        let mem_heavy = ParsecApp::Facesim.profile();
        let mut a = TraceGenerator::new(compute_heavy, 5, 0);
        let mut b = TraceGenerator::new(mem_heavy, 5, 0);
        let ia = TraceGenerator::instructions(&a.take_ops(10_000));
        let ib = TraceGenerator::instructions(&b.take_ops(10_000));
        assert!(
            ia > 2 * ib,
            "blackscholes must be far less memory-intensive"
        );
    }

    #[test]
    fn sequential_runs_present() {
        let mut g = TraceGenerator::new(ParsecApp::Fluidanimate.profile(), 9, 0);
        let ops = g.take_ops(5000);
        let seq_pairs = ops
            .windows(2)
            .filter(|w| w[1].addr == w[0].addr + 64)
            .count();
        assert!(
            seq_pairs > ops.len() / 4,
            "sweep workload must be mostly sequential"
        );
    }

    #[test]
    fn scaling_shrinks_large_footprints_only() {
        let big = ParsecApp::Dedup.profile();
        let scaled = big.scaled(64);
        assert_eq!(scaled.working_set_bytes, big.working_set_bytes / 64);
        assert_eq!(scaled.write_region_bytes, big.write_region_bytes / 64);
        assert_eq!(scaled.hot_pages, big.hot_pages / 64);

        let small = ParsecApp::Swaptions.profile();
        assert_eq!(
            small.scaled(64),
            small,
            "LLC-resident profiles stay unscaled"
        );
    }

    #[test]
    fn scaling_floors_protect_tiny_values() {
        // An absurd factor cannot shrink footprints below the floors.
        let p = ParsecApp::Canneal.profile().scaled(1 << 40);
        assert!(p.working_set_bytes >= 64 * 64);
        assert!(p.write_region_bytes >= 4096);
        assert!(p.write_region_bytes <= p.working_set_bytes);
        assert!(p.hot_pages >= 1);
        // Generation still works at the floor.
        let mut g = TraceGenerator::new(p, 1, 0);
        assert_eq!(g.take_ops(100).len(), 100);
    }

    #[test]
    fn scaled_one_is_identity_for_large_profiles() {
        let p = ParsecApp::Canneal.profile();
        assert_eq!(p.scaled(1), p);
    }

    #[test]
    fn all_apps_have_distinct_names() {
        let mut names: Vec<_> = ParsecApp::all().iter().map(|a| a.profile().name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 11);
    }
}
