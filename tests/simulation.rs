//! Cross-crate simulation tests: determinism, configuration orderings and
//! tree-geometry invariants of the full performance model.

use ame::engine::timing::{Protection, TimingConfig};
use ame::engine::{CounterSchemeKind, MacPlacement};
use ame::sim::{SimConfig, Simulator};
use ame::tree::TreeGeometry;
use ame::workloads::{ParsecApp, TraceGenerator, TraceOp};

fn traces(app: ParsecApp, seed: u64, ops: usize, cores: usize) -> Vec<Vec<TraceOp>> {
    (0..cores as u64)
        .map(|t| TraceGenerator::new(app.profile(), seed, t).take_ops(ops))
        .collect()
}

fn config(protection: Protection) -> SimConfig {
    SimConfig {
        engine: TimingConfig {
            protection,
            ..TimingConfig::default()
        },
        ..SimConfig::default()
    }
}

#[test]
fn simulation_is_deterministic() {
    let cfg = SimConfig::default();
    let t = traces(ParsecApp::Ferret, 5, 5_000, cfg.cores);
    let a = Simulator::new(cfg).run(&t);
    let b = Simulator::new(cfg).run(&t);
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.instructions, b.instructions);
    assert_eq!(a.engine, b.engine);
    assert_eq!(a.dram, b.dram);
}

#[test]
fn figure8_configuration_ordering() {
    // On a memory-sensitive app: unprotected >= full system >= MAC-ECC
    // only >= BMT baseline (IPC).
    let t = traces(ParsecApp::Canneal, 8, 25_000, 4);
    let unprot = Simulator::new(config(Protection::Unprotected))
        .run(&t)
        .ipc();
    let bmt = Simulator::new(config(Protection::Bmt {
        mac: MacPlacement::SeparateMac,
        counters: CounterSchemeKind::Monolithic,
    }))
    .run(&t)
    .ipc();
    let mac_ecc = Simulator::new(config(Protection::Bmt {
        mac: MacPlacement::MacInEcc,
        counters: CounterSchemeKind::Monolithic,
    }))
    .run(&t)
    .ipc();
    let full = Simulator::new(config(Protection::Bmt {
        mac: MacPlacement::MacInEcc,
        counters: CounterSchemeKind::Delta,
    }))
    .run(&t)
    .ipc();

    assert!(unprot >= full, "unprotected {unprot} vs full {full}");
    assert!(full >= mac_ecc, "full {full} vs mac-ecc {mac_ecc}");
    assert!(mac_ecc >= bmt, "mac-ecc {mac_ecc} vs bmt {bmt}");
}

#[test]
fn mac_in_ecc_eliminates_mac_traffic() {
    let t = traces(ParsecApp::Canneal, 9, 10_000, 4);
    let sep = Simulator::new(config(Protection::Bmt {
        mac: MacPlacement::SeparateMac,
        counters: CounterSchemeKind::Monolithic,
    }))
    .run(&t);
    let mie = Simulator::new(config(Protection::Bmt {
        mac: MacPlacement::MacInEcc,
        counters: CounterSchemeKind::Monolithic,
    }))
    .run(&t);
    assert!(sep.engine.mac_dram_reads > 0);
    assert_eq!(mie.engine.mac_dram_reads, 0);
    assert!(mie.engine.dram_transactions() < sep.engine.dram_transactions());
}

#[test]
fn delta_reduces_metadata_traffic_and_tree_depth() {
    let t = traces(ParsecApp::Canneal, 10, 10_000, 4);
    let mono = Simulator::new(config(Protection::Bmt {
        mac: MacPlacement::MacInEcc,
        counters: CounterSchemeKind::Monolithic,
    }))
    .run(&t);
    let delta = Simulator::new(config(Protection::Bmt {
        mac: MacPlacement::MacInEcc,
        counters: CounterSchemeKind::Delta,
    }))
    .run(&t);
    assert_eq!(mono.tree_levels, 5);
    assert_eq!(delta.tree_levels, 4);
    assert!(delta.engine.meta_dram_reads < mono.engine.meta_dram_reads);
    assert!(delta.metadata_hit_rate >= mono.metadata_hit_rate);
}

#[test]
fn geometry_monotone_in_region_size() {
    let mut last_levels = 0;
    for shift in [24u32, 26, 28, 29, 30, 32] {
        let g = TreeGeometry::for_region(1u64 << shift, 64.0);
        assert!(
            g.off_chip_levels() >= last_levels,
            "levels must grow with region"
        );
        last_levels = g.off_chip_levels();
        // Total metadata is a sane fraction of the region.
        assert!(g.total_metadata_bytes() < (1u64 << shift) / 4);
    }
}

#[test]
fn geometry_scales_down_with_denser_counters() {
    for shift in [28u32, 29, 30] {
        let mono = TreeGeometry::for_region(1u64 << shift, 64.0);
        let delta = TreeGeometry::for_region(1u64 << shift, 8.0);
        assert!(delta.counter_bytes() < mono.counter_bytes());
        assert!(delta.off_chip_levels() <= mono.off_chip_levels());
        assert!(delta.total_metadata_bytes() < mono.total_metadata_bytes());
    }
}

#[test]
fn reencryption_queue_serializes_sweeps() {
    use ame::dram::timing::{DramConfig, DramTiming};
    use ame::engine::timing::TimingEngine;
    let mut e = TimingEngine::new(TimingConfig {
        protection: Protection::Bmt {
            mac: MacPlacement::MacInEcc,
            counters: CounterSchemeKind::Split,
        },
        ..TimingConfig::default()
    });
    let mut d = DramTiming::new(DramConfig::default());
    // Overflow two different groups at (nearly) the same instant: the
    // second sweep must queue behind the first.
    for _ in 0..127 {
        e.write_back(0x0, 0, &mut d);
        e.write_back(0x10000, 0, &mut d); // a different 4 KB group
    }
    e.write_back(0x0, 1_000, &mut d); // overflow #1
    e.write_back(0x10000, 1_001, &mut d); // overflow #2, queued
    assert_eq!(e.stats().reencryptions, 2);
    assert!(
        e.stats().reencryption_queue_cycles > 0,
        "second sweep must wait in the overflow buffer"
    );
}

#[test]
fn ipc_bounded_by_issue_width() {
    let cfg = SimConfig::default();
    let r = Simulator::new(cfg).run(&traces(ParsecApp::Blackscholes, 11, 20_000, cfg.cores));
    let bound = (cfg.issue_width as usize * cfg.cores) as f64;
    assert!(
        r.ipc() > 0.0 && r.ipc() <= bound,
        "ipc {} vs bound {bound}",
        r.ipc()
    );
}
