//! Figure 8: performance impact of authenticated memory encryption, as
//! normalized IPC relative to an unprotected system.
//!
//! Four configurations per application:
//!
//! 1. **unprotected** — no encryption (the normalization baseline);
//! 2. **BMT** — the Bonsai-Merkle-Tree baseline: monolithic counters,
//!    separate MACs, 5-level tree;
//! 3. **+MAC-in-ECC** — MACs moved to the ECC side-band (~3% avg, up to
//!    ~15% IPC gain over BMT in the paper);
//! 4. **+MAC-in-ECC +delta** — the full system: 4-level tree, denser
//!    counter leaves (1%-28% gain over BMT in the paper).

use crate::run_sim_warm;
use ame_engine::timing::{Protection, TimingConfig};
use ame_engine::{CounterSchemeKind, MacPlacement};
use ame_sim::SimConfig;
use ame_workloads::ParsecApp;

/// The four Figure 8 configurations in presentation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Config {
    /// No protection (baseline for normalization).
    Unprotected,
    /// Bonsai Merkle Tree baseline.
    Bmt,
    /// BMT + MAC-in-ECC.
    MacEcc,
    /// BMT + MAC-in-ECC + delta-encoded counters (the full paper system).
    MacEccDelta,
}

impl Config {
    /// All configurations in order.
    #[must_use]
    pub fn all() -> [Config; 4] {
        [
            Config::Unprotected,
            Config::Bmt,
            Config::MacEcc,
            Config::MacEccDelta,
        ]
    }

    /// Display label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Config::Unprotected => "unprotected",
            Config::Bmt => "BMT baseline",
            Config::MacEcc => "+MAC-in-ECC",
            Config::MacEccDelta => "+MAC-in-ECC+delta",
        }
    }

    /// The protection setting this configuration uses.
    #[must_use]
    pub fn protection(self) -> Protection {
        match self {
            Config::Unprotected => Protection::Unprotected,
            Config::Bmt => Protection::Bmt {
                mac: MacPlacement::SeparateMac,
                counters: CounterSchemeKind::Monolithic,
            },
            Config::MacEcc => Protection::Bmt {
                mac: MacPlacement::MacInEcc,
                counters: CounterSchemeKind::Monolithic,
            },
            Config::MacEccDelta => Protection::Bmt {
                mac: MacPlacement::MacInEcc,
                counters: CounterSchemeKind::Delta,
            },
        }
    }

    /// Full simulator configuration (Table 1 defaults + this protection).
    #[must_use]
    pub fn sim_config(self) -> SimConfig {
        SimConfig {
            engine: TimingConfig {
                protection: self.protection(),
                ..TimingConfig::default()
            },
            ..SimConfig::default()
        }
    }
}

/// Measured IPC of every configuration for one application.
///
/// All fields are read off the run's [`ame_sim::SimResult::telemetry`]
/// snapshot rather than individual accessors, so this struct documents
/// the registry paths the experiment depends on.
#[derive(Debug, Clone)]
pub struct Fig8Row {
    /// Application.
    pub app: ParsecApp,
    /// Absolute IPC per configuration (Config::all() order).
    pub ipc: [f64; 4],
    /// Metadata-cache hit rates (0 for unprotected).
    pub metadata_hit_rate: [f64; 4],
    /// Integrity-tree-walk + counter DRAM reads
    /// (`engine/meta_dram_reads`), 0 when unprotected.
    pub meta_dram_reads: [u64; 4],
    /// Total DRAM transactions the engine issued
    /// (`engine/dram_transactions`).
    pub dram_transactions: [u64; 4],
}

impl Fig8Row {
    /// IPC normalized to the unprotected configuration.
    #[must_use]
    pub fn normalized(&self) -> [f64; 4] {
        let base = self.ipc[0];
        [
            1.0,
            self.ipc[1] / base,
            self.ipc[2] / base,
            self.ipc[3] / base,
        ]
    }

    /// Relative IPC gain of the full system over the BMT baseline.
    #[must_use]
    pub fn gain_over_bmt(&self) -> f64 {
        self.ipc[3] / self.ipc[1] - 1.0
    }
}

/// Simulates one application under all four configurations.
#[must_use]
pub fn measure(app: ParsecApp, seed: u64, ops_per_core: usize) -> Fig8Row {
    let mut ipc = [0.0; 4];
    let mut mhr = [0.0; 4];
    let mut meta = [0u64; 4];
    let mut dram = [0u64; 4];
    for (i, cfg) in Config::all().into_iter().enumerate() {
        let result = run_sim_warm(app, cfg.sim_config(), seed, ops_per_core);
        let t = &result.telemetry;
        ipc[i] = t.gauge("sim/ipc").unwrap_or(0.0);
        mhr[i] = t.gauge("engine/metadata_cache/hit_rate").unwrap_or(0.0);
        meta[i] = t.counter("engine/meta_dram_reads").unwrap_or(0);
        dram[i] = t.counter("engine/dram_transactions").unwrap_or(0);
    }
    Fig8Row {
        app,
        ipc,
        metadata_hit_rate: mhr,
        meta_dram_reads: meta,
        dram_transactions: dram,
    }
}

/// Measures one application across several seeds, returning the mean row
/// and the per-seed standard deviation of the full system's gain over
/// BMT (variation from multithreaded interleaving, as the paper's Table 2
/// caption discusses).
#[must_use]
pub fn measure_averaged(app: ParsecApp, seeds: &[u64], ops_per_core: usize) -> (Fig8Row, f64) {
    assert!(!seeds.is_empty(), "need at least one seed");
    let rows: Vec<Fig8Row> = seeds
        .iter()
        .map(|&s| measure(app, s, ops_per_core))
        .collect();
    let n = rows.len() as f64;
    let mut ipc = [0.0f64; 4];
    let mut mhr = [0.0f64; 4];
    let mut meta = [0u64; 4];
    let mut dram = [0u64; 4];
    for row in &rows {
        for i in 0..4 {
            ipc[i] += row.ipc[i] / n;
            mhr[i] += row.metadata_hit_rate[i] / n;
            meta[i] += row.meta_dram_reads[i];
            dram[i] += row.dram_transactions[i];
        }
    }
    for i in 0..4 {
        meta[i] /= rows.len() as u64;
        dram[i] /= rows.len() as u64;
    }
    let gains: Vec<f64> = rows.iter().map(Fig8Row::gain_over_bmt).collect();
    let mean_gain = gains.iter().sum::<f64>() / n;
    let var = gains.iter().map(|g| (g - mean_gain).powi(2)).sum::<f64>() / n;
    (
        Fig8Row {
            app,
            ipc,
            metadata_hit_rate: mhr,
            meta_dram_reads: meta,
            dram_transactions: dram,
        },
        var.sqrt(),
    )
}

/// Simulates the memory-sensitive applications (the set Figure 8 plots).
#[must_use]
pub fn compute(seed: u64, ops_per_core: usize) -> Vec<Fig8Row> {
    ParsecApp::memory_sensitive()
        .iter()
        .map(|&app| measure(app, seed, ops_per_core))
        .collect()
}

/// Simulates all 11 applications (including the compute-bound ones the
/// paper omits from the figure because "authenticated encryption has no
/// measurable impact" on them).
#[must_use]
pub fn compute_all(seed: u64, ops_per_core: usize) -> Vec<Fig8Row> {
    ParsecApp::all()
        .iter()
        .map(|&app| measure(app, seed, ops_per_core))
        .collect()
}

/// Serialises the series for `results/fig8.json`.
#[must_use]
pub fn to_json(seed: u64, ops_per_core: usize, rows: &[Fig8Row]) -> ame_telemetry::Json {
    use ame_telemetry::Json;
    let mut params = Json::object();
    params.push("seed", seed);
    params.push("ops_per_core", ops_per_core as u64);
    params.push(
        "configurations",
        Json::Arr(
            Config::all()
                .iter()
                .map(|c| Json::from(c.label()))
                .collect(),
        ),
    );
    let mut out = Vec::new();
    for row in rows {
        let n = row.normalized();
        let mut obj = Json::object();
        obj.push("app", row.app.profile().name);
        obj.push(
            "ipc",
            Json::Arr(row.ipc.iter().map(|&v| Json::from(v)).collect()),
        );
        obj.push(
            "normalized_ipc",
            Json::Arr(n.iter().map(|&v| Json::from(v)).collect()),
        );
        obj.push(
            "metadata_hit_rate",
            Json::Arr(
                row.metadata_hit_rate
                    .iter()
                    .map(|&v| Json::from(v))
                    .collect(),
            ),
        );
        obj.push(
            "meta_dram_reads",
            Json::Arr(row.meta_dram_reads.iter().map(|&v| Json::from(v)).collect()),
        );
        obj.push(
            "dram_transactions",
            Json::Arr(
                row.dram_transactions
                    .iter()
                    .map(|&v| Json::from(v))
                    .collect(),
            ),
        );
        obj.push("gain_over_bmt", row.gain_over_bmt());
        out.push(obj);
    }
    crate::results::envelope("fig8", params, Json::Arr(out))
}

/// The one-line metric `repro_all` quotes for this experiment.
#[must_use]
pub fn key_metric(rows: &[Fig8Row]) -> String {
    let gains: Vec<f64> = rows.iter().map(Fig8Row::gain_over_bmt).collect();
    let avg = gains.iter().sum::<f64>() / gains.len() as f64;
    let max = gains.iter().cloned().fold(f64::MIN, f64::max);
    format!(
        "avg gain over BMT {:.1}%, max {:.1}%",
        avg * 100.0,
        max * 100.0
    )
}

/// Prints Table 1 and the Figure 8 series from precomputed rows.
pub fn print_rows(rows: &[Fig8Row]) {
    println!("=== Table 1: simulated system ===");
    let cfg = SimConfig::default();
    println!(
        "CPU: {} cores, issue width {}, MLP window {}\n\
         L1 {} KB {}-way | L2 {} KB {}-way | L3 {} MB {}-way (paper: 10 MB)\n\
         DRAM: {} channels, DDR3-1600 timing\n\
         Encryption: 32 KB 8-way counter/MAC cache, 512 MB protected region",
        cfg.cores,
        cfg.issue_width,
        cfg.mlp,
        cfg.l1.size_bytes / 1024,
        cfg.l1.ways,
        cfg.l2.size_bytes / 1024,
        cfg.l2.ways,
        cfg.l3.size_bytes / (1024 * 1024),
        cfg.l3.ways,
        cfg.dram.channels,
    );

    println!("\n=== Figure 8: IPC normalized to unprotected ===");
    println!(
        "{:<14} {:>12} {:>12} {:>12} {:>14} {:>10}",
        "program", "unprotected", "BMT", "+MAC-ECC", "+MAC-ECC+delta", "gain/BMT"
    );
    let mut gains = Vec::new();
    for row in rows {
        let n = row.normalized();
        gains.push(row.gain_over_bmt());
        println!(
            "{:<14} {:>12.3} {:>12.3} {:>12.3} {:>14.3} {:>9.1}%",
            row.app.profile().name,
            n[0],
            n[1],
            n[2],
            n[3],
            row.gain_over_bmt() * 100.0
        );
    }
    let avg = gains.iter().sum::<f64>() / gains.len() as f64;
    let max = gains.iter().cloned().fold(f64::MIN, f64::max);
    println!(
        "\naverage gain over BMT: {:.1}% (paper: ~5%), max: {:.1}% (paper: up to 28%)",
        avg * 100.0,
        max * 100.0
    );

    // The figure itself, as a bar chart (IPC normalized to unprotected).
    println!();
    let chart_rows: Vec<(String, Vec<f64>)> = rows
        .iter()
        .map(|row| {
            let n = row.normalized();
            (row.app.profile().name.to_string(), vec![n[1], n[2], n[3]])
        })
        .collect();
    print!(
        "{}",
        crate::chart::grouped_bars(&["BMT", "+MAC-ECC", "+MAC-ECC+delta"], &chart_rows, 44)
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    // Modest trace length keeps the debug-mode test quick; the binary
    // uses much longer traces in release mode.
    const OPS: usize = 12_000;

    #[test]
    fn canneal_ordering_matches_paper() {
        let row = measure(ParsecApp::Canneal, 9, OPS);
        let n = row.normalized();
        // Protection costs something; each optimization claws some back.
        assert!(n[1] < 1.0, "BMT must cost IPC (normalized {})", n[1]);
        assert!(n[3] >= n[1], "full system must beat BMT");
        assert!(row.gain_over_bmt() >= 0.0);
    }

    #[test]
    fn compute_bound_app_sees_little_impact() {
        let row = measure(ParsecApp::Swaptions, 9, 100_000);
        let n = row.normalized();
        assert!(
            n[1] > 0.9,
            "swaptions BMT impact should be small, got {}",
            n[1]
        );
    }

    #[test]
    fn averaging_is_a_mean_of_runs() {
        let seeds = [9u64, 10];
        let (avg, stddev) = measure_averaged(ParsecApp::Vips, &seeds, 10_000);
        let a = measure(ParsecApp::Vips, 9, 10_000);
        let b = measure(ParsecApp::Vips, 10, 10_000);
        for i in 0..4 {
            let mean = (a.ipc[i] + b.ipc[i]) / 2.0;
            assert!((avg.ipc[i] - mean).abs() < 1e-12, "cfg {i}");
        }
        assert!(stddev >= 0.0);
    }

    #[test]
    fn config_labels_unique() {
        let mut labels: Vec<_> = Config::all().iter().map(|c| c.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 4);
    }
}
