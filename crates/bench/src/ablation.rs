//! Ablation studies for the design choices DESIGN.md calls out (not in
//! the paper, but implied by its design discussion):
//!
//! * how much each delta optimization (reset, re-encode) contributes;
//! * delta width vs re-encryption rate vs storage;
//! * block-group size;
//! * metadata-cache capacity sensitivity of the full system.

use crate::{drive_writeback_stream, estimate_cycles, per_billion_cycles, run_sim};
use ame_cache::{CacheConfig, ReplacementPolicy};
use ame_counters::delta::{DeltaConfig, DeltaCounters};
use ame_counters::CounterScheme;
use ame_engine::timing::{Protection, TimingConfig};
use ame_engine::{CounterSchemeKind, MacPlacement};
use ame_sim::SimConfig;
use ame_workloads::ParsecApp;

/// Result of one delta-configuration ablation point.
#[derive(Debug, Clone)]
pub struct DeltaAblationPoint {
    /// Description of the variant.
    pub label: String,
    /// Re-encryptions per 10^9 cycles.
    pub reencryptions: f64,
    /// Resets per 10^9 cycles.
    pub resets: f64,
    /// Re-encodes per 10^9 cycles.
    pub reencodes: f64,
    /// Counter storage in bits per data block.
    pub bits_per_block: f64,
}

fn run_delta(app: ParsecApp, config: DeltaConfig, label: String, ops: usize) -> DeltaAblationPoint {
    let cores = 4;
    let mut scheme = DeltaCounters::new(config);
    let instr = drive_writeback_stream(app, 21, ops, cores, &mut scheme);
    let cycles = estimate_cycles(instr, cores);
    let stats = scheme.stats();
    DeltaAblationPoint {
        label,
        reencryptions: per_billion_cycles(stats.reencryptions, cycles),
        resets: per_billion_cycles(stats.resets, cycles),
        reencodes: per_billion_cycles(stats.reencodes, cycles),
        bits_per_block: scheme.bits_per_block(),
    }
}

/// Ablation 1: turn the reset / re-encode optimizations on and off.
#[must_use]
pub fn optimization_ablation(app: ParsecApp, ops: usize) -> Vec<DeltaAblationPoint> {
    [(true, true), (true, false), (false, true), (false, false)]
        .into_iter()
        .map(|(reset, reencode)| {
            let cfg = DeltaConfig {
                reset_enabled: reset,
                reencode_enabled: reencode,
                ..DeltaConfig::default()
            };
            run_delta(
                app,
                cfg,
                format!(
                    "reset={} re-encode={}",
                    if reset { "on " } else { "off" },
                    if reencode { "on" } else { "off" }
                ),
                ops,
            )
        })
        .collect()
}

/// Ablation 2: delta width sweep (group size fixed at 64 blocks).
#[must_use]
pub fn width_ablation(app: ParsecApp, ops: usize) -> Vec<DeltaAblationPoint> {
    [5u32, 6, 7]
        .into_iter()
        .map(|bits| {
            let cfg = DeltaConfig {
                delta_bits: bits,
                ..DeltaConfig::default()
            };
            run_delta(app, cfg, format!("{bits}-bit deltas"), ops)
        })
        .collect()
}

/// Ablation 3: block-group size sweep (delta width adjusted to keep the
/// group metadata within one 64-byte block).
#[must_use]
pub fn group_ablation(app: ParsecApp, ops: usize) -> Vec<DeltaAblationPoint> {
    [(16usize, 7u32), (32, 7), (64, 7)]
        .into_iter()
        .map(|(blocks, bits)| {
            let cfg = DeltaConfig {
                blocks_per_group: blocks,
                delta_bits: bits,
                ..DeltaConfig::default()
            };
            run_delta(app, cfg, format!("{blocks}-block groups"), ops)
        })
        .collect()
}

/// One metadata-cache sweep point.
#[derive(Debug, Clone)]
pub struct CacheSweepPoint {
    /// Metadata cache capacity in bytes.
    pub capacity: usize,
    /// Aggregate IPC.
    pub ipc: f64,
    /// Metadata-cache hit rate.
    pub hit_rate: f64,
}

/// Ablation 4: metadata-cache capacity sensitivity of the full system.
#[must_use]
pub fn metadata_cache_sweep(app: ParsecApp, ops: usize) -> Vec<CacheSweepPoint> {
    [8usize, 16, 32, 64, 128]
        .into_iter()
        .map(|kb| {
            let config = SimConfig {
                engine: TimingConfig {
                    protection: Protection::Bmt {
                        mac: MacPlacement::MacInEcc,
                        counters: CounterSchemeKind::Delta,
                    },
                    metadata_cache: CacheConfig::new(kb * 1024, 8, 64),
                    ..TimingConfig::default()
                },
                ..SimConfig::default()
            };
            let result = run_sim(app, config, 31, ops);
            CacheSweepPoint {
                capacity: kb * 1024,
                ipc: result.ipc(),
                hit_rate: result.metadata_hit_rate,
            }
        })
        .collect()
}

/// Ablation 5: dual-length configuration sweep — how the split between
/// base width and shared overflow bits changes the re-encryption rate.
/// Every point fits the 512-bit metadata line; with 64-block groups,
/// 6-bit base deltas are the widest that leave room for the overflow
/// bits.
#[must_use]
pub fn dual_config_ablation(app: ParsecApp, ops: usize) -> Vec<DeltaAblationPoint> {
    use ame_counters::dual::{DualLengthConfig, DualLengthDeltaCounters};
    [(4u32, 6u32), (5, 5), (6, 4)]
        .into_iter()
        .map(|(base, extra)| {
            let cfg = DualLengthConfig {
                base_bits: base,
                extra_bits: extra,
                ..Default::default()
            };
            let cores = 4;
            let mut scheme = DualLengthDeltaCounters::new(cfg);
            let instr = drive_writeback_stream(app, 21, ops, cores, &mut scheme);
            let cycles = estimate_cycles(instr, cores);
            let stats = scheme.stats();
            DeltaAblationPoint {
                label: format!("{base}+{extra}-bit dual"),
                reencryptions: per_billion_cycles(stats.reencryptions, cycles),
                resets: per_billion_cycles(stats.resets, cycles),
                reencodes: per_billion_cycles(stats.reencodes, cycles),
                bits_per_block: scheme.bits_per_block(),
            }
        })
        .collect()
}

/// One point of the verification-mode / MLP performance ablations.
#[derive(Debug, Clone)]
pub struct PerfPoint {
    /// Variant label.
    pub label: String,
    /// Aggregate IPC.
    pub ipc: f64,
}

/// Ablation 6: speculative vs blocking tree-walk verification, for both
/// the BMT baseline and the full system.
#[must_use]
pub fn verification_ablation(app: ParsecApp, ops: usize) -> Vec<PerfPoint> {
    let mut out = Vec::new();
    for (name, mac, counters) in [
        (
            "BMT",
            MacPlacement::SeparateMac,
            CounterSchemeKind::Monolithic,
        ),
        ("full", MacPlacement::MacInEcc, CounterSchemeKind::Delta),
    ] {
        for speculative in [true, false] {
            let config = SimConfig {
                engine: TimingConfig {
                    protection: Protection::Bmt { mac, counters },
                    speculative_verification: speculative,
                    ..TimingConfig::default()
                },
                ..SimConfig::default()
            };
            let r = run_sim(app, config, 41, ops);
            out.push(PerfPoint {
                label: format!(
                    "{name}, {} verification",
                    if speculative {
                        "speculative"
                    } else {
                        "blocking"
                    }
                ),
                ipc: r.ipc(),
            });
        }
    }
    out
}

/// Ablation 7: memory-level-parallelism window sweep — how much of the
/// verification latency the out-of-order window hides.
#[must_use]
pub fn mlp_sweep(app: ParsecApp, ops: usize) -> Vec<PerfPoint> {
    [1usize, 2, 4, 8, 16]
        .into_iter()
        .map(|mlp| {
            let config = SimConfig {
                mlp,
                ..SimConfig::default()
            };
            let r = run_sim(app, config, 43, ops);
            PerfPoint {
                label: format!("MLP window {mlp}"),
                ipc: r.ipc(),
            }
        })
        .collect()
}

/// Ablation 8: metadata-cache replacement policy.
#[must_use]
pub fn policy_ablation(app: ParsecApp, ops: usize) -> Vec<CacheSweepPoint> {
    [
        ReplacementPolicy::Lru,
        ReplacementPolicy::Fifo,
        ReplacementPolicy::Random,
    ]
    .into_iter()
    .map(|policy| {
        let config = SimConfig {
            engine: TimingConfig {
                protection: Protection::Bmt {
                    mac: MacPlacement::MacInEcc,
                    counters: CounterSchemeKind::Delta,
                },
                metadata_cache: CacheConfig::new(32 * 1024, 8, 64).with_policy(policy),
                ..TimingConfig::default()
            },
            ..SimConfig::default()
        };
        let result = run_sim(app, config, 31, ops);
        CacheSweepPoint {
            capacity: policy as usize, // reused field: policy ordinal
            ipc: result.ipc(),
            hit_rate: result.metadata_hit_rate,
        }
    })
    .collect()
}

/// All counter-scheme (delta design) ablations, computed once so print
/// and JSON emission share the measurements.
#[derive(Debug, Clone)]
pub struct DeltaReport {
    /// Reset/re-encode on-off grid, per app: `(app name, points)`.
    pub optimizations: Vec<(&'static str, Vec<DeltaAblationPoint>)>,
    /// Delta-width sweep on dedup.
    pub width: Vec<DeltaAblationPoint>,
    /// Block-group-size sweep on dedup.
    pub group: Vec<DeltaAblationPoint>,
    /// Dual-length base/overflow split sweep on facesim.
    pub dual: Vec<DeltaAblationPoint>,
}

/// Runs every delta-design ablation.
#[must_use]
pub fn delta_report(ops: usize) -> DeltaReport {
    DeltaReport {
        optimizations: vec![
            ("facesim", optimization_ablation(ParsecApp::Facesim, ops)),
            ("dedup", optimization_ablation(ParsecApp::Dedup, ops)),
        ],
        width: width_ablation(ParsecApp::Dedup, ops),
        group: group_ablation(ParsecApp::Dedup, ops),
        dual: dual_config_ablation(ParsecApp::Facesim, ops),
    }
}

/// All engine-configuration ablations (full simulations; slower).
#[derive(Debug, Clone)]
pub struct EngineReport {
    /// Metadata-cache capacity sweep on canneal.
    pub cache_sweep: Vec<CacheSweepPoint>,
    /// Speculative-vs-blocking verification on canneal.
    pub verification: Vec<PerfPoint>,
    /// MLP window sweep on canneal.
    pub mlp: Vec<PerfPoint>,
    /// Metadata-cache replacement-policy comparison on canneal.
    pub policy: Vec<CacheSweepPoint>,
}

/// Runs every engine-configuration ablation.
#[must_use]
pub fn engine_report(ops: usize) -> EngineReport {
    EngineReport {
        cache_sweep: metadata_cache_sweep(ParsecApp::Canneal, ops),
        verification: verification_ablation(ParsecApp::Canneal, ops),
        mlp: mlp_sweep(ParsecApp::Canneal, ops),
        policy: policy_ablation(ParsecApp::Canneal, ops),
    }
}

fn delta_points_json(points: &[DeltaAblationPoint]) -> ame_telemetry::Json {
    use ame_telemetry::Json;
    Json::Arr(
        points
            .iter()
            .map(|p| {
                let mut obj = Json::object();
                obj.push("variant", p.label.as_str());
                obj.push("reencryptions_per_gcycle", p.reencryptions);
                obj.push("resets_per_gcycle", p.resets);
                obj.push("reencodes_per_gcycle", p.reencodes);
                obj.push("bits_per_block", p.bits_per_block);
                obj
            })
            .collect(),
    )
}

/// Serialises the delta ablations for `results/ablation_delta.json`.
#[must_use]
pub fn delta_to_json(ops: usize, report: &DeltaReport) -> ame_telemetry::Json {
    use ame_telemetry::Json;
    let mut params = Json::object();
    params.push("ops_per_core", ops as u64);
    let mut rows = Vec::new();
    for (app, points) in &report.optimizations {
        let mut obj = Json::object();
        obj.push("sweep", "optimizations");
        obj.push("app", *app);
        obj.push("points", delta_points_json(points));
        rows.push(obj);
    }
    for (sweep, app, points) in [
        ("delta_width", "dedup", &report.width),
        ("group_size", "dedup", &report.group),
        ("dual_length_split", "facesim", &report.dual),
    ] {
        let mut obj = Json::object();
        obj.push("sweep", sweep);
        obj.push("app", app);
        obj.push("points", delta_points_json(points));
        rows.push(obj);
    }
    crate::results::envelope("ablation_delta", params, Json::Arr(rows))
}

/// The one-line metric `repro_all` quotes for the delta ablations.
#[must_use]
pub fn delta_key_metric(report: &DeltaReport) -> String {
    let dedup = &report.optimizations[1].1;
    format!(
        "dedup re-enc/Gcycle {:.0} (opts on) vs {:.0} (off)",
        dedup[0].reencryptions, dedup[3].reencryptions
    )
}

/// Serialises the engine ablations for `results/ablation_engine.json`.
#[must_use]
pub fn engine_to_json(ops: usize, report: &EngineReport) -> ame_telemetry::Json {
    use ame_telemetry::Json;
    let mut params = Json::object();
    params.push("ops_per_core", ops as u64);
    params.push("app", "canneal");
    let mut rows = Vec::new();
    for p in &report.cache_sweep {
        let mut obj = Json::object();
        obj.push("sweep", "metadata_cache_capacity");
        obj.push("capacity_bytes", p.capacity as u64);
        obj.push("ipc", p.ipc);
        obj.push("metadata_hit_rate", p.hit_rate);
        rows.push(obj);
    }
    for (sweep, points) in [
        ("verification_mode", &report.verification),
        ("mlp_window", &report.mlp),
    ] {
        for p in points {
            let mut obj = Json::object();
            obj.push("sweep", sweep);
            obj.push("variant", p.label.as_str());
            obj.push("ipc", p.ipc);
            rows.push(obj);
        }
    }
    for (name, p) in ["LRU", "FIFO", "random"].iter().zip(&report.policy) {
        let mut obj = Json::object();
        obj.push("sweep", "replacement_policy");
        obj.push("variant", *name);
        obj.push("ipc", p.ipc);
        obj.push("metadata_hit_rate", p.hit_rate);
        rows.push(obj);
    }
    crate::results::envelope("ablation_engine", params, Json::Arr(rows))
}

/// The one-line metric `repro_all` quotes for the engine ablations.
#[must_use]
pub fn engine_key_metric(report: &EngineReport) -> String {
    let best = report
        .cache_sweep
        .iter()
        .max_by(|a, b| a.ipc.total_cmp(&b.ipc))
        .expect("sweep non-empty");
    format!(
        "best IPC {:.3} at {} KB metadata cache",
        best.ipc,
        best.capacity / 1024
    )
}

/// Prints the delta-design ablations from a precomputed report.
pub fn print_delta(report: &DeltaReport) {
    for (name, points) in &report.optimizations {
        println!("=== Ablation: delta optimizations on {name} (per 10^9 cycles) ===");
        println!(
            "{:<28} {:>10} {:>10} {:>10}",
            "variant", "re-enc", "resets", "re-encodes"
        );
        for p in points {
            println!(
                "{:<28} {:>10.0} {:>10.0} {:>10.0}",
                p.label, p.reencryptions, p.resets, p.reencodes
            );
        }
        println!();
    }

    println!("=== Ablation: delta width on dedup ===");
    println!("{:<28} {:>10} {:>12}", "variant", "re-enc", "bits/block");
    for p in &report.width {
        println!(
            "{:<28} {:>10.0} {:>12.3}",
            p.label, p.reencryptions, p.bits_per_block
        );
    }

    println!("\n=== Ablation: block-group size on dedup ===");
    println!("{:<28} {:>10} {:>12}", "variant", "re-enc", "bits/block");
    for p in &report.group {
        println!(
            "{:<28} {:>10.0} {:>12.3}",
            p.label, p.reencryptions, p.bits_per_block
        );
    }

    println!("\n=== Ablation: dual-length base/overflow split on facesim ===");
    println!("{:<28} {:>10} {:>12}", "variant", "re-enc", "bits/block");
    for p in &report.dual {
        println!(
            "{:<28} {:>10.0} {:>12.3}",
            p.label, p.reencryptions, p.bits_per_block
        );
    }
}

/// Prints the verification/MLP/policy ablations from a precomputed
/// report.
pub fn print_engine_perf(report: &EngineReport) {
    println!("=== Ablation: verification mode on canneal ===");
    println!("{:<36} {:>8}", "variant", "IPC");
    for p in &report.verification {
        println!("{:<36} {:>8.3}", p.label, p.ipc);
    }

    println!("\n=== Ablation: MLP window on canneal (full system) ===");
    println!("{:<36} {:>8}", "variant", "IPC");
    for p in &report.mlp {
        println!("{:<36} {:>8.3}", p.label, p.ipc);
    }

    println!("\n=== Ablation: metadata-cache replacement policy on canneal ===");
    println!("{:<12} {:>8} {:>10}", "policy", "IPC", "hit rate");
    for (name, p) in ["LRU", "FIFO", "random"].iter().zip(&report.policy) {
        println!("{:<12} {:>8.3} {:>9.1}%", name, p.ipc, p.hit_rate * 100.0);
    }
}

/// Prints the metadata-cache sweep from a precomputed report.
pub fn print_engine_cache_sweep(report: &EngineReport) {
    println!("=== Ablation: metadata-cache capacity on canneal ===");
    println!("{:<12} {:>8} {:>10}", "capacity", "IPC", "hit rate");
    for p in &report.cache_sweep {
        println!(
            "{:<12} {:>8.3} {:>9.1}%",
            format!("{} KB", p.capacity / 1024),
            p.ipc,
            p.hit_rate * 100.0
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const OPS: usize = 200_000;

    #[test]
    fn optimizations_reduce_reencryptions() {
        let points = optimization_ablation(ParsecApp::Dedup, OPS);
        let both = points[0].reencryptions;
        let neither = points[3].reencryptions;
        assert!(
            neither > both,
            "disabling both optimizations must raise re-encryptions ({neither} vs {both})"
        );
    }

    #[test]
    fn narrower_deltas_overflow_more() {
        let points = width_ablation(ParsecApp::Dedup, OPS);
        assert!(
            points[0].reencryptions >= points[2].reencryptions,
            "5-bit deltas must re-encrypt at least as much as 7-bit"
        );
        assert!(points[0].bits_per_block < points[2].bits_per_block);
    }

    #[test]
    fn smaller_groups_cost_more_storage() {
        let points = group_ablation(ParsecApp::Dedup, OPS);
        assert!(points[0].bits_per_block > points[2].bits_per_block);
    }

    #[test]
    fn verification_modes_within_expected_band() {
        // Speculative verification must never lose more than scheduling
        // noise to blocking mode (second-order DRAM-contention effects can
        // make either marginally faster on short traces).
        let points = verification_ablation(ParsecApp::Canneal, 8_000);
        assert!(points[0].ipc >= points[1].ipc * 0.97, "BMT: {points:?}");
        assert!(points[2].ipc >= points[3].ipc * 0.97, "full: {points:?}");
        // The full system beats BMT in both verification modes.
        assert!(points[2].ipc > points[0].ipc, "{points:?}");
        assert!(points[3].ipc > points[1].ipc, "{points:?}");
    }

    #[test]
    fn more_mlp_is_never_slower() {
        let points = mlp_sweep(ParsecApp::Canneal, 8_000);
        for w in points.windows(2) {
            assert!(
                w[1].ipc >= w[0].ipc * 0.98,
                "IPC should be non-decreasing in MLP: {} then {}",
                w[0].ipc,
                w[1].ipc
            );
        }
    }

    #[test]
    fn lru_metadata_cache_is_at_least_as_good_as_random() {
        let points = policy_ablation(ParsecApp::Canneal, 10_000);
        let (lru, random) = (&points[0], &points[2]);
        assert!(
            lru.hit_rate >= random.hit_rate * 0.95,
            "LRU {:.3} vs random {:.3}",
            lru.hit_rate,
            random.hit_rate
        );
    }

    #[test]
    fn dual_config_points_are_well_formed() {
        let points = dual_config_ablation(ParsecApp::Facesim, OPS);
        assert_eq!(points.len(), 3);
        for p in &points {
            assert!(
                p.bits_per_block > 0.0 && p.bits_per_block < 9.0,
                "{}",
                p.label
            );
        }
    }
}
