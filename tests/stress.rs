//! Long-running randomized stress campaigns. The default versions run in
//! a few seconds; the `#[ignore]`d heavy variants are for nightly runs
//! (`cargo test --release -- --ignored`).

use ame::engine::scrub::{ScrubMode, Scrubber};
use ame::engine::{CounterSchemeKind, EngineConfig, MacPlacement, MemoryEncryptionEngine};
use ame::store::{SecureStore, StoreConfig};
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

/// `data` stored at byte offset `addr` through the store's one verified
/// sub-block path: each partly covered block is a read-modify-write (its
/// old contents verified before the patched block is sealed), each whole
/// one a plain write.
fn store_span(store: &SecureStore, addr: u64, data: &[u8]) {
    let mut done = 0;
    while done < data.len() {
        let pos = addr + done as u64;
        let (base, offset) = (pos & !63, (pos % 64) as usize);
        let take = (64 - offset).min(data.len() - done);
        let chunk = data[done..done + take].to_vec();
        if take == 64 {
            store.write(base, &chunk.try_into().unwrap()).unwrap();
        } else {
            store
                .read_modify_write(base, move |block| {
                    block[offset..offset + take].copy_from_slice(&chunk);
                })
                .unwrap();
        }
        done += take;
    }
}

/// The `len` bytes at byte offset `addr`, every touched block verified.
fn load_span(store: &SecureStore, addr: u64, len: usize) -> Vec<u8> {
    let end = addr + len as u64;
    let mut out = Vec::with_capacity(len);
    let mut base = addr & !63;
    while base < end {
        let block = store.read(base).unwrap();
        let from = addr.saturating_sub(base) as usize;
        let to = (end - base).min(64) as usize;
        out.extend_from_slice(&block[from..to]);
        base += 64;
    }
    out
}

/// Random byte ranges — straddling blocks, partial, empty — written and
/// read against a reference buffer: sub-block writes preserve their
/// neighbours and every range reads back what the model holds.
#[test]
fn region_fuzz_against_reference_buffer() {
    let size = 8192u64;
    let store = SecureStore::new(StoreConfig {
        shards: 2,
        shard_bytes: size / 2,
        ..StoreConfig::default()
    });
    let mut model = vec![0u8; size as usize];
    let mut rng = StdRng::seed_from_u64(3);
    for step in 0..1_500 {
        let len = rng.gen_range(0..200usize);
        let addr = rng.gen_range(0..size - len as u64);
        let range = addr as usize..addr as usize + len;
        if rng.gen_bool(0.5) {
            let mut data = vec![0u8; len];
            rng.fill(&mut data[..]);
            store_span(&store, addr, &data);
            model[range].copy_from_slice(&data);
        } else {
            assert_eq!(
                load_span(&store, addr, len),
                model[range],
                "step {step} addr {addr} len {len}"
            );
        }
    }
    assert!(store.shutdown().all_resealed());
}
