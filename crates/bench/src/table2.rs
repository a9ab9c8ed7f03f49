//! Table 2: average number of block-group re-encryptions per 10^9 cycles
//! for split counters vs 7-bit delta vs dual-length delta, across the 11
//! PARSEC applications.
//!
//! Methodology: each application's 4-thread synthetic trace is filtered
//! through an LLC-sized write-back cache (counters only see dirty-line
//! evictions, as in the real engine), the write-back stream drives each
//! counter scheme, and re-encryption counts are normalized to 10^9 cycles
//! using the nominal-IPC cycle estimate. Absolute numbers depend on the
//! synthetic traces; the paper's qualitative structure is what the tests
//! pin down:
//!
//! * split counters re-encrypt most; 7-bit deltas fewer (reset/re-encode);
//! * dual-length fewest overall, but *worse than flat deltas on facesim*
//!   (concurrent delta-group overflows compete for the single expansion);
//! * compute-bound apps (swaptions, blackscholes, bodytrack) re-encrypt
//!   never or almost never.

use crate::{drive_writeback_stream, estimate_cycles, per_billion_cycles};
use ame_counters::delta::DeltaCounters;
use ame_counters::dual::DualLengthDeltaCounters;
use ame_counters::split::SplitCounters;
use ame_counters::CounterScheme;
use ame_workloads::ParsecApp;

/// Paper-reported Table 2 values (re-encryptions per 10^9 cycles), for
/// side-by-side comparison in the printed output.
#[must_use]
pub fn paper_reference(app: ParsecApp) -> (f64, f64, f64) {
    match app {
        ParsecApp::Facesim => (880.0, 113.0, 176.0),
        ParsecApp::Dedup => (725.0, 51.0, 14.0),
        ParsecApp::Canneal => (167.0, 167.0, 128.0),
        ParsecApp::Vips => (77.0, 77.0, 24.0),
        ParsecApp::Ferret => (33.0, 23.0, 5.0),
        ParsecApp::Fluidanimate => (4.0, 4.0, 0.0),
        ParsecApp::Freqmine => (3.0, 0.0, 0.0),
        ParsecApp::Raytrace => (2.0, 2.0, 0.0),
        ParsecApp::Swaptions | ParsecApp::Blackscholes | ParsecApp::Bodytrack => (0.0, 0.0, 0.0),
    }
}

/// One measured row of Table 2.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Application name.
    pub app: ParsecApp,
    /// Re-encryptions per 10^9 cycles: split counters.
    pub split: f64,
    /// Re-encryptions per 10^9 cycles: flat 7-bit delta.
    pub delta: f64,
    /// Re-encryptions per 10^9 cycles: dual-length delta.
    pub dual: f64,
}

/// Measures one application under all three schemes.
#[must_use]
pub fn measure(app: ParsecApp, seed: u64, ops_per_core: usize) -> Table2Row {
    let cores = 4;
    let mut split = SplitCounters::default();
    let instr = drive_writeback_stream(app, seed, ops_per_core, cores, &mut split);
    let mut delta = DeltaCounters::default();
    drive_writeback_stream(app, seed, ops_per_core, cores, &mut delta);
    let mut dual = DualLengthDeltaCounters::default();
    drive_writeback_stream(app, seed, ops_per_core, cores, &mut dual);

    let cycles = estimate_cycles(instr, cores);
    Table2Row {
        app,
        split: per_billion_cycles(split.stats().reencryptions, cycles),
        delta: per_billion_cycles(delta.stats().reencryptions, cycles),
        dual: per_billion_cycles(dual.stats().reencryptions, cycles),
    }
}

/// Measures one application averaged over several seeds — Table 2's
/// caption: "Average across three full executions to account for
/// variations in multithreaded execution."
#[must_use]
pub fn measure_averaged(app: ParsecApp, seeds: &[u64], ops_per_core: usize) -> Table2Row {
    assert!(!seeds.is_empty(), "need at least one seed");
    let rows: Vec<Table2Row> = seeds
        .iter()
        .map(|&s| measure(app, s, ops_per_core))
        .collect();
    let n = rows.len() as f64;
    Table2Row {
        app,
        split: rows.iter().map(|r| r.split).sum::<f64>() / n,
        delta: rows.iter().map(|r| r.delta).sum::<f64>() / n,
        dual: rows.iter().map(|r| r.dual).sum::<f64>() / n,
    }
}

/// Measures all 11 applications, each averaged over three runs seeded
/// from `seed` (as the paper does).
#[must_use]
pub fn compute(seed: u64, ops_per_core: usize) -> Vec<Table2Row> {
    let seeds = [seed, seed.wrapping_add(1), seed.wrapping_add(2)];
    ParsecApp::all()
        .iter()
        .map(|&app| measure_averaged(app, &seeds, ops_per_core))
        .collect()
}

/// Serialises the table for `results/table2.json` (measured values with
/// the paper's reference numbers alongside).
#[must_use]
pub fn to_json(seed: u64, ops_per_core: usize, rows: &[Table2Row]) -> ame_telemetry::Json {
    use ame_telemetry::Json;
    let mut params = Json::object();
    params.push("seed", seed);
    params.push("ops_per_core", ops_per_core as u64);
    params.push("seeds_averaged", 3u64);
    let mut out = Vec::new();
    for row in rows {
        let (ps, pd, pl) = paper_reference(row.app);
        let mut obj = Json::object();
        obj.push("app", row.app.profile().name);
        obj.push("split_per_gcycle", row.split);
        obj.push("delta_per_gcycle", row.delta);
        obj.push("dual_per_gcycle", row.dual);
        obj.push("paper_split", ps);
        obj.push("paper_delta", pd);
        obj.push("paper_dual", pl);
        out.push(obj);
    }
    crate::results::envelope("table2", params, Json::Arr(out))
}

/// The one-line metric `repro_all` quotes for this experiment.
#[must_use]
pub fn key_metric(rows: &[Table2Row]) -> String {
    let worst = rows
        .iter()
        .max_by(|a, b| a.split.total_cmp(&b.split))
        .expect("at least one row");
    format!(
        "worst split {:.0}/Gcycle ({}), delta {:.0}",
        worst.split,
        worst.app.profile().name,
        worst.delta
    )
}

/// Prints [`compute`]'s table with the paper's values alongside.
pub fn print_rows(rows: &[Table2Row]) {
    println!("=== Table 2: re-encryptions per 10^9 cycles (measured | paper) ===");
    println!(
        "{:<14} {:>9} {:>9} | {:>9} {:>9} | {:>9} {:>9}",
        "program", "split", "(paper)", "7b delta", "(paper)", "dual-len", "(paper)"
    );
    for row in rows {
        let (ps, pd, pl) = paper_reference(row.app);
        println!(
            "{:<14} {:>9.0} {:>9.0} | {:>9.0} {:>9.0} | {:>9.0} {:>9.0}",
            row.app.profile().name,
            row.split,
            ps,
            row.delta,
            pd,
            row.dual,
            pl
        );
    }
    println!(
        "\naveraged over three seeded runs, as in the paper's caption.\n\
         shape checks: split >= delta everywhere; dual < delta except facesim;\n\
         compute-bound apps ~0. Absolute values depend on synthetic traces."
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    // Small op counts keep this fast; shape (not magnitude) is asserted.
    const OPS: usize = 200_000;

    #[test]
    fn split_never_beats_delta() {
        for app in [ParsecApp::Dedup, ParsecApp::Facesim, ParsecApp::Ferret] {
            let row = measure(app, 7, OPS);
            assert!(
                row.split >= row.delta,
                "{}: split {} < delta {}",
                row.app.profile().name,
                row.split,
                row.delta
            );
        }
    }

    #[test]
    fn sweep_workloads_show_big_delta_advantage() {
        // dedup: the paper's 725 -> 51 (14x); require at least 2x here.
        let row = measure(ParsecApp::Dedup, 7, OPS);
        assert!(
            row.split > 0.0,
            "dedup must re-encrypt under split counters"
        );
        assert!(
            row.split >= 2.0 * row.delta.max(1.0),
            "dedup: split {} vs delta {}",
            row.split,
            row.delta
        );
    }

    #[test]
    fn canneal_shows_no_delta_advantage() {
        // Scattered random writes: 167 vs 167 in the paper.
        let row = measure(ParsecApp::Canneal, 7, OPS);
        assert!(row.split > 0.0);
        let ratio = row.delta / row.split;
        assert!(
            (0.6..=1.2).contains(&ratio),
            "canneal delta/split ratio {ratio} should be ~1"
        );
    }

    #[test]
    fn facesim_dual_worse_than_flat_delta() {
        let row = measure(ParsecApp::Facesim, 7, OPS);
        assert!(
            row.dual > row.delta && row.dual > 0.0,
            "facesim pathology: dual {} must exceed flat delta {}",
            row.dual,
            row.delta
        );
        assert!(row.split > row.delta, "split must still be worst");
    }

    #[test]
    fn averaging_smooths_seed_variation() {
        let seeds = [7u64, 8, 9];
        let avg = measure_averaged(ParsecApp::Dedup, &seeds, OPS);
        let singles: Vec<f64> = seeds
            .iter()
            .map(|&s| measure(ParsecApp::Dedup, s, OPS).split)
            .collect();
        let mean = singles.iter().sum::<f64>() / 3.0;
        assert!((avg.split - mean).abs() < 1e-6, "{} vs {mean}", avg.split);
        // The averaged value sits within the per-seed envelope.
        let lo = singles.iter().cloned().fold(f64::MAX, f64::min);
        let hi = singles.iter().cloned().fold(f64::MIN, f64::max);
        assert!(avg.split >= lo && avg.split <= hi);
    }

    #[test]
    fn compute_bound_apps_rarely_reencrypt() {
        for app in [
            ParsecApp::Swaptions,
            ParsecApp::Blackscholes,
            ParsecApp::Bodytrack,
        ] {
            let row = measure(app, 7, OPS);
            assert!(
                row.split < 20.0 && row.delta < 20.0 && row.dual < 20.0,
                "{}: unexpectedly high re-encryption ({}, {}, {})",
                row.app.profile().name,
                row.split,
                row.delta,
                row.dual
            );
        }
    }
}
