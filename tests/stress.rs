//! Long-running randomized stress campaigns. The default versions run in
//! a few seconds; the `#[ignore]`d heavy variants are for nightly runs
//! (`cargo test --release -- --ignored`).

use ame::engine::region::SecureRegion;
use ame::engine::scrub::{ScrubMode, Scrubber};
use ame::engine::{CounterSchemeKind, EngineConfig, MacPlacement, MemoryEncryptionEngine};
use ame_prng::StdRng;
use std::collections::HashMap;

/// Mixed workload: reads, writes, faults and scrubs, all interleaved,
/// against a reference model.
fn chaos(ops: usize, seed: u64) {
    let mut engine = MemoryEncryptionEngine::new(EngineConfig {
        mac_placement: MacPlacement::MacInEcc,
        counter_scheme: CounterSchemeKind::Delta,
        ..EngineConfig::default()
    });
    let mut scrubber = Scrubber::new(ScrubMode::MacInEcc);
    let mut reference: HashMap<u64, [u8; 64]> = HashMap::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let pages = 4u64; // 256 blocks
    let blocks = pages * 64;
    // Outstanding injected flips per block: the flip-and-check budget is
    // two, so the harness (like a real scrub policy) never lets more
    // accumulate before a heal.
    let mut outstanding: HashMap<u64, u32> = HashMap::new();

    for step in 0..ops {
        match rng.gen_range(0..100) {
            // Write.
            0..=44 => {
                let block = rng.gen_range(0..blocks);
                let addr = block * 64;
                let mut data = [0u8; 64];
                rng.fill(&mut data[..]);
                engine.write_block(addr, &data);
                reference.insert(addr, data);
                outstanding.remove(&addr);
            }
            // Read + verify against the model.
            45..=84 | 94..=99 => {
                let block = rng.gen_range(0..blocks);
                let addr = block * 64;
                let expected = reference.get(&addr).copied().unwrap_or([0u8; 64]);
                let got = engine.read_block(addr).unwrap_or_else(|e| {
                    panic!("step {step}: read failed: {e}");
                });
                assert_eq!(got, expected, "step {step} addr {addr:#x}");
                outstanding.remove(&addr); // verified reads scrub the block
            }
            // Transient single-bit fault. Stay within the two-flip
            // correction budget per block between heals.
            85..=89 => {
                let block = rng.gen_range(0..blocks);
                let addr = block * 64;
                let count = outstanding.entry(addr).or_insert(0);
                if *count < 2 {
                    engine.tamper_data_bit(addr, rng.gen_range(0..512));
                    *count += 1;
                }
            }
            // Scrub a random page (90..=93).
            _ => {
                let page = rng.gen_range(0..pages);
                let report =
                    scrubber.sweep(engine.storage_mut(), (0..64).map(|i| page * 4096 + i * 64));
                for addr in report.needs_mac_correction {
                    let expected = reference.get(&addr).copied().unwrap_or([0u8; 64]);
                    assert_eq!(engine.read_block(addr).unwrap(), expected);
                    outstanding.remove(&addr);
                }
                assert!(report.uncorrectable.is_empty(), "single faults only");
            }
        }
    }
    // Full verification sweep.
    for block in 0..blocks {
        let addr = block * 64;
        let expected = reference.get(&addr).copied().unwrap_or([0u8; 64]);
        assert_eq!(
            engine.read_block(addr).unwrap(),
            expected,
            "final sweep {addr:#x}"
        );
    }
}

#[test]
fn chaos_campaign_quick() {
    chaos(2_000, 1);
}

#[test]
#[ignore = "nightly-scale stress run"]
fn chaos_campaign_heavy() {
    for seed in 0..4 {
        chaos(50_000, seed);
    }
}

#[test]
fn region_fuzz_against_reference_buffer() {
    let size = 8192u64;
    let mut region = SecureRegion::new(EngineConfig::default(), size);
    let mut model = vec![0u8; size as usize];
    let mut rng = StdRng::seed_from_u64(3);
    for step in 0..1_500 {
        let len = rng.gen_range(0..200usize);
        let addr = rng.gen_range(0..size - len as u64);
        if rng.gen_bool(0.5) {
            let mut data = vec![0u8; len];
            rng.fill(&mut data[..]);
            region.write_bytes(addr, &data).unwrap();
            model[addr as usize..addr as usize + len].copy_from_slice(&data);
        } else {
            let mut buf = vec![0u8; len];
            region.read_bytes(addr, &mut buf).unwrap();
            assert_eq!(
                buf,
                &model[addr as usize..addr as usize + len],
                "step {step} addr {addr} len {len}"
            );
        }
    }
}

#[test]
#[ignore = "nightly-scale stress run"]
fn region_fuzz_heavy() {
    let size = 1 << 20;
    let mut region = SecureRegion::new(EngineConfig::default(), size);
    let mut model = vec![0u8; size as usize];
    let mut rng = StdRng::seed_from_u64(4);
    for _ in 0..50_000 {
        let len = rng.gen_range(0..512usize);
        let addr = rng.gen_range(0..size - len as u64);
        if rng.gen_bool(0.5) {
            let mut data = vec![0u8; len];
            rng.fill(&mut data[..]);
            region.write_bytes(addr, &data).unwrap();
            model[addr as usize..addr as usize + len].copy_from_slice(&data);
        } else {
            let mut buf = vec![0u8; len];
            region.read_bytes(addr, &mut buf).unwrap();
            assert_eq!(buf, &model[addr as usize..addr as usize + len]);
        }
    }
}
