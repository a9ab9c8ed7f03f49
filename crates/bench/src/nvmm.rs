//! NVMM wear experiment (extension of Section 2.2).
//!
//! The paper motivates delta encoding partly by non-volatile-memory
//! endurance: every counter-overflow re-encryption rewrites a whole 4 KB
//! block-group, multiplying physical writes. This experiment quantifies
//! that: the same write-back stream drives each counter scheme, a
//! [`WearTracker`] counts application writes and re-encryption-induced
//! rewrites, and the schemes are compared on **wear amplification**
//! (physical / logical writes) and worst-cell wear.

use crate::{table2_filter, TABLE2_SCALE};
use ame_cache::{AccessKind, Cache};
use ame_counters::delta::DeltaCounters;
use ame_counters::dual::DualLengthDeltaCounters;
use ame_counters::monolithic::MonolithicCounters;
use ame_counters::split::SplitCounters;
use ame_counters::{CounterScheme, WriteOutcome};
use ame_dram::wear::WearTracker;
use ame_workloads::{ParsecApp, TraceGenerator};

/// Wear metrics for one (application, scheme) pair.
#[derive(Debug, Clone)]
pub struct WearRow {
    /// Scheme name.
    pub scheme: &'static str,
    /// Application write-backs reaching NVMM.
    pub logical_writes: u64,
    /// Total physical writes (incl. re-encryption sweeps).
    pub physical_writes: u64,
    /// Physical / logical ratio (1.0 = no overhead).
    pub amplification: f64,
    /// Worst per-block write count.
    pub max_wear: u64,
    /// Re-encryption events.
    pub reencryptions: u64,
}

/// Replays `app`'s scaled write-back stream into `scheme`, tracking wear.
pub fn measure_scheme(
    app: ParsecApp,
    scheme: &mut dyn CounterScheme,
    seed: u64,
    ops_per_core: usize,
) -> WearRow {
    let cores = 4;
    let mut llc = Cache::new(table2_filter());
    let mut wear = WearTracker::new();
    let mut gens: Vec<_> = (0..cores as u64)
        .map(|t| TraceGenerator::new(app.profile().scaled(TABLE2_SCALE), seed, t))
        .collect();
    let bpg = scheme.blocks_per_group() as u64;
    for _ in 0..ops_per_core {
        for gen in &mut gens {
            let op = gen.next_op();
            let kind = if op.write {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            if let Some(victim) = llc.access(op.addr, kind).writeback() {
                let block = victim / 64;
                wear.record_app_write(block);
                if let WriteOutcome::Reencrypted {
                    group,
                    old_counters,
                    ..
                } = scheme.record_write(block)
                {
                    // The sweep rewrites every block of the group; the
                    // triggering block's own rewrite replaces its pending
                    // write, so count group_size - 1 overhead writes.
                    for i in 0..old_counters.len() as u64 {
                        let b = group * bpg + i;
                        if b != block {
                            wear.record_overhead_write(b);
                        }
                    }
                }
            }
        }
    }
    WearRow {
        scheme: scheme.name(),
        logical_writes: wear.logical_writes(),
        physical_writes: wear.physical_writes(),
        amplification: wear.wear_amplification(),
        max_wear: wear.max_wear(),
        reencryptions: scheme.stats().reencryptions,
    }
}

/// Measures all four schemes on one application.
#[must_use]
pub fn measure(app: ParsecApp, seed: u64, ops_per_core: usize) -> Vec<WearRow> {
    let mut rows = Vec::new();
    let mut mono = MonolithicCounters::default();
    rows.push(measure_scheme(app, &mut mono, seed, ops_per_core));
    let mut split = SplitCounters::default();
    rows.push(measure_scheme(app, &mut split, seed, ops_per_core));
    let mut delta = DeltaCounters::default();
    rows.push(measure_scheme(app, &mut delta, seed, ops_per_core));
    let mut dual = DualLengthDeltaCounters::default();
    rows.push(measure_scheme(app, &mut dual, seed, ops_per_core));
    rows
}

/// The write-heavy applications the experiment reports on.
#[must_use]
pub fn apps() -> [ParsecApp; 4] {
    [
        ParsecApp::Facesim,
        ParsecApp::Dedup,
        ParsecApp::Canneal,
        ParsecApp::Vips,
    ]
}

/// Measures every scheme on every write-heavy application.
#[must_use]
pub fn compute(seed: u64, ops_per_core: usize) -> Vec<(ParsecApp, Vec<WearRow>)> {
    apps()
        .into_iter()
        .map(|app| (app, measure(app, seed, ops_per_core)))
        .collect()
}

/// Serialises the comparison for `results/nvmm_wear.json`.
#[must_use]
pub fn to_json(
    seed: u64,
    ops_per_core: usize,
    rows: &[(ParsecApp, Vec<WearRow>)],
) -> ame_telemetry::Json {
    use ame_telemetry::Json;
    let mut params = Json::object();
    params.push("seed", seed);
    params.push("ops_per_core", ops_per_core as u64);
    let mut out = Vec::new();
    for (app, schemes) in rows {
        for row in schemes {
            let mut obj = Json::object();
            obj.push("app", app.profile().name);
            obj.push("scheme", row.scheme);
            obj.push("logical_writes", row.logical_writes);
            obj.push("physical_writes", row.physical_writes);
            obj.push("wear_amplification", row.amplification);
            obj.push("max_wear", row.max_wear);
            obj.push("reencryptions", row.reencryptions);
            out.push(obj);
        }
    }
    crate::results::envelope("nvmm_wear", params, Json::Arr(out))
}

/// The one-line metric `repro_all` quotes for this experiment.
#[must_use]
pub fn key_metric(rows: &[(ParsecApp, Vec<WearRow>)]) -> String {
    let worst = rows
        .iter()
        .flat_map(|(app, schemes)| schemes.iter().map(move |r| (app, r)))
        .max_by(|a, b| a.1.amplification.total_cmp(&b.1.amplification))
        .expect("at least one row");
    format!(
        "worst amplification {:.3} ({} on {})",
        worst.1.amplification,
        worst.1.scheme,
        worst.0.profile().name
    )
}

/// Prints the wear comparison for the write-heavy applications.
pub fn print(seed: u64, ops_per_core: usize) {
    print_rows(&compute(seed, ops_per_core));
}

/// Like [`print()`], from precomputed rows.
pub fn print_rows(rows: &[(ParsecApp, Vec<WearRow>)]) {
    println!("=== NVMM wear: physical write amplification per counter scheme ===");
    for (app, schemes) in rows {
        println!("\n{}:", app.profile().name);
        println!(
            "{:<20} {:>12} {:>12} {:>8} {:>9} {:>8}",
            "scheme", "logical", "physical", "amp", "max wear", "re-enc"
        );
        for row in schemes {
            println!(
                "{:<20} {:>12} {:>12} {:>8.3} {:>9} {:>8}",
                row.scheme,
                row.logical_writes,
                row.physical_writes,
                row.amplification,
                row.max_wear,
                row.reencryptions
            );
        }
    }
    println!(
        "\nthe paper's Section 2.2 claim: delta encoding 'will reduce potential\n\
         storage media wear out' caused by compact-counter re-encryptions —\n\
         visible here as split counters' amplification exceeding delta's."
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    const OPS: usize = 200_000;

    #[test]
    fn monolithic_never_amplifies() {
        let rows = measure(ParsecApp::Dedup, 3, OPS);
        let mono = &rows[0];
        assert_eq!(mono.scheme, "monolithic");
        assert!((mono.amplification - 1.0).abs() < 1e-9);
        assert_eq!(mono.reencryptions, 0);
    }

    #[test]
    fn delta_wears_less_than_split_on_sweep_workloads() {
        for app in [ParsecApp::Dedup, ParsecApp::Facesim] {
            let rows = measure(app, 3, OPS);
            let (split, delta) = (&rows[1], &rows[2]);
            assert!(
                split.amplification > delta.amplification,
                "{}: split amp {} must exceed delta amp {}",
                app.profile().name,
                split.amplification,
                delta.amplification
            );
        }
    }

    #[test]
    fn amplification_consistent_with_reencryptions() {
        let rows = measure(ParsecApp::Dedup, 3, OPS);
        for row in &rows {
            assert!(row.amplification >= 1.0, "{}", row.scheme);
            assert!(row.physical_writes >= row.logical_writes, "{}", row.scheme);
            if row.reencryptions == 0 {
                assert_eq!(row.physical_writes, row.logical_writes, "{}", row.scheme);
            }
        }
    }
}
