//! Experiment harness: one module per table/figure of the paper, shared by
//! the `fig*`/`table*`/`ablation*` binaries and the integration tests.
//!
//! | Module | Paper artifact |
//! |--------|----------------|
//! | [`fig1`] | Figure 1 — metadata storage overhead breakdown |
//! | [`fig3`] | Figure 3 — SEC-DED vs MAC-based ECC fault coverage |
//! | [`fig8`] | Figure 8 — normalized IPC of protection configurations |
//! | [`table2`] | Table 2 — re-encryptions per 10^9 cycles per scheme |
//! | [`ablation`] | extra sensitivity studies called out in DESIGN.md |
//! | [`nvmm`] | Section 2.2 extension — NVMM wear amplification |
//! | [`reliability`] | Section 3.4 extension — Monte-Carlo fault-rate study |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod chart;
pub mod fig1;
pub mod fig3;
pub mod fig8;
pub mod micro;
pub mod nvmm;
pub mod reliability;
pub mod results;
pub mod table2;

use ame_cache::{AccessKind, Cache, CacheConfig};
use ame_counters::CounterScheme;
use ame_sim::{SimConfig, SimResult, Simulator};
use ame_workloads::{ParsecApp, TraceGenerator, TraceOp};

/// Generates the per-core traces for one application run (4 threads, as in
/// the paper's `sim-med` runs).
#[must_use]
pub fn app_traces(
    app: ParsecApp,
    seed: u64,
    ops_per_core: usize,
    cores: usize,
) -> Vec<Vec<TraceOp>> {
    (0..cores as u64)
        .map(|t| TraceGenerator::new(app.profile(), seed, t).take_ops(ops_per_core))
        .collect()
}

/// Runs the full multicore simulation of `app` under `config`.
#[must_use]
pub fn run_sim(app: ParsecApp, config: SimConfig, seed: u64, ops_per_core: usize) -> SimResult {
    let traces = app_traces(app, seed, ops_per_core, config.cores);
    Simulator::new(config).run(&traces)
}

/// Like [`run_sim`], but discards the statistics of the first quarter of
/// each trace (cache/DRAM/metadata warmup) — the methodology used for the
/// Figure 8 numbers, matching the paper's full-execution runs where
/// cold-start effects are negligible.
#[must_use]
pub fn run_sim_warm(
    app: ParsecApp,
    config: SimConfig,
    seed: u64,
    ops_per_core: usize,
) -> SimResult {
    let traces = app_traces(app, seed, ops_per_core, config.cores);
    Simulator::new(config).run_with_warmup(&traces, ops_per_core / 4)
}

/// Scale factor of the Table 2 methodology: footprints and the LLC filter
/// are shrunk together so counter overflows (which need >127 write-backs
/// of one block) become observable in tractable trace lengths. Orderings
/// between schemes are preserved; absolute rates are higher than the
/// paper's full-execution numbers.
pub const TABLE2_SCALE: u64 = 64;

/// LLC filter used by the scaled write-back methodology. Smaller than
/// `8 MB / TABLE2_SCALE`: under 4-thread contention most LLC capacity is
/// occupied by the read-dominated streaming footprint, so the share that
/// coalesces *writes* is a small fraction of the cache.
#[must_use]
pub fn table2_filter() -> CacheConfig {
    CacheConfig::new(16 * 1024, 16, 64)
}

/// Replays a workload's *write-back stream* into a counter scheme:
/// `cores` interleaved threads filtered through a write-back `filter`
/// cache (the paper's engine sits below the LLC, so only evicted dirty
/// lines bump counters). Returns total instructions represented.
pub fn drive_writeback_stream_with(
    profile: ame_workloads::WorkloadProfile,
    filter: CacheConfig,
    seed: u64,
    ops_per_core: usize,
    cores: usize,
    scheme: &mut dyn CounterScheme,
) -> u64 {
    let mut llc = Cache::new(filter);
    let mut gens: Vec<_> = (0..cores as u64)
        .map(|t| TraceGenerator::new(profile, seed, t))
        .collect();
    let mut instructions = 0u64;
    for _ in 0..ops_per_core {
        for gen in &mut gens {
            let op = gen.next_op();
            instructions += u64::from(op.compute) + 1;
            let kind = if op.write {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            let res = llc.access(op.addr, kind);
            if let Some(victim) = res.writeback() {
                scheme.record_write(victim / 64);
            }
        }
    }
    instructions
}

/// The scaled Table 2 methodology for one application (see
/// [`TABLE2_SCALE`]).
pub fn drive_writeback_stream(
    app: ParsecApp,
    seed: u64,
    ops_per_core: usize,
    cores: usize,
    scheme: &mut dyn CounterScheme,
) -> u64 {
    drive_writeback_stream_with(
        app.profile().scaled(TABLE2_SCALE),
        table2_filter(),
        seed,
        ops_per_core,
        cores,
        scheme,
    )
}

/// Nominal per-core IPC used to convert instruction counts into cycles for
/// Table 2's "per 10^9 cycles" normalization (the paper's cores sustain
/// roughly one instruction per cycle on memory-heavy codes).
pub const NOMINAL_IPC_PER_CORE: f64 = 1.0;

/// Converts an instruction count (all cores combined) to estimated cycles.
#[must_use]
pub fn estimate_cycles(total_instructions: u64, cores: usize) -> f64 {
    total_instructions as f64 / (NOMINAL_IPC_PER_CORE * cores as f64)
}

/// Parses a CLI argument, exiting with a usage-style error (status 2)
/// instead of panicking on malformed input.
#[must_use]
pub fn parse_arg<T: std::str::FromStr>(value: Option<String>, name: &str, default: T) -> T {
    match value {
        None => default,
        Some(v) => v.parse().unwrap_or_else(|_| {
            eprintln!("error: expected a number for {name}, got {v:?}");
            std::process::exit(2);
        }),
    }
}

/// Scales an event count to events per 10^9 cycles.
#[must_use]
pub fn per_billion_cycles(events: u64, cycles: f64) -> f64 {
    if cycles == 0.0 {
        0.0
    } else {
        events as f64 * 1e9 / cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ame_counters::split::SplitCounters;

    #[test]
    fn writeback_stream_reaches_scheme() {
        let mut scheme = SplitCounters::default();
        let instr = drive_writeback_stream(ParsecApp::Canneal, 3, 4_000, 4, &mut scheme);
        assert!(instr > 0);
        assert!(scheme.stats().writes > 0, "canneal must evict dirty lines");
    }

    #[test]
    fn cycle_normalization() {
        assert_eq!(estimate_cycles(4_000_000, 4), 1_000_000.0);
        assert_eq!(per_billion_cycles(5, 1e9), 5.0);
        assert_eq!(per_billion_cycles(5, 0.0), 0.0);
    }
}
