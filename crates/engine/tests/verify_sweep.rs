//! `verify_all`, the sweep recovery runs before a thawed engine serves:
//! address-ordered runs through `read_blocks` that pay one verified
//! counter fetch per metadata block, and that correct and fail exactly
//! where a block-by-block sweep of `read_block` would.

use ame_engine::{EngineConfig, MacPlacement, MemoryEncryptionEngine, ReadError};

const BLOCKS: u64 = 300;

fn addr(block: u64) -> u64 {
    block * 64
}

fn value(block: u64) -> [u8; 64] {
    [block as u8 ^ 0x5a; 64]
}

/// `BLOCKS` resident blocks: four full delta groups and part of a fifth.
fn written(config: EngineConfig) -> MemoryEncryptionEngine {
    let mut engine = MemoryEncryptionEngine::new(config);
    let items: Vec<_> = (0..BLOCKS).map(|b| (addr(b), value(b))).collect();
    engine.write_blocks(&items);
    engine
}

fn configs() -> Vec<EngineConfig> {
    [MacPlacement::MacInEcc, MacPlacement::SeparateMac]
        .into_iter()
        .flat_map(|mac_placement| {
            [false, true].map(|prefetch_counters| EngineConfig {
                mac_placement,
                prefetch_counters,
                ..EngineConfig::default()
            })
        })
        .collect()
}

/// The sweep `verify_all` replaced: `read_block` per resident block in
/// address order, stopping at the first error.
fn per_block_sweep(engine: &mut MemoryEncryptionEngine) -> Result<u64, ReadError> {
    for b in 0..BLOCKS {
        engine.read_block(addr(b))?;
    }
    Ok(BLOCKS)
}

#[test]
fn a_clean_sweep_fetches_each_metadata_block_once() {
    for config in configs() {
        let mut engine = written(EngineConfig {
            counter_cache_blocks: 8,
            ..config
        });
        let before = engine.counter_cache_stats().unwrap();
        assert_eq!(engine.verify_all(), Ok(BLOCKS));
        let after = engine.counter_cache_stats().unwrap();
        let fetches = after.hits + after.misses - before.hits - before.misses;
        assert_eq!(fetches, BLOCKS.div_ceil(64), "{config:?}");
    }
}

#[test]
fn verify_all_corrects_a_single_bit_flip() {
    for config in configs() {
        let mut engine = written(config);
        engine.tamper_data_bit(addr(130), 77);
        assert_eq!(engine.verify_all(), Ok(BLOCKS), "{config:?}");
        let corrected = engine.stats();
        assert_eq!(corrected.failed_reads, 0);
        // The correction was written back: a second sweep is clean.
        assert_eq!(engine.verify_all(), Ok(BLOCKS));
        let again = engine.stats();
        assert_eq!(
            (
                again.data_corrections,
                again.mac_corrections,
                again.flip_checks
            ),
            (
                corrected.data_corrections,
                corrected.mac_corrections,
                corrected.flip_checks
            ),
            "{config:?}"
        );
        assert_eq!(engine.read_block(addr(130)).unwrap(), value(130));
    }
}

#[test]
fn a_mac_breaking_tamper_fails_where_the_per_block_sweep_fails() {
    type Tamper = fn(&mut MemoryEncryptionEngine);
    let tampers: [(&str, Tamper); 4] = [
        ("four flips in one word", |e| {
            for bit in [3, 4, 5, 6] {
                e.tamper_data_bit(addr(200), bit);
            }
        }),
        ("two side-band flips", |e| {
            e.tamper_sideband_bit(addr(140), 1);
            e.tamper_sideband_bit(addr(140), 9);
        }),
        ("a counter leaf", |e| {
            e.tree_mut().tamper_counter_block(3, |leaf| leaf[0] ^= 1)
        }),
        ("a spliced block", |e| {
            let snapshot = e.snapshot_block(addr(7)).relocated(addr(170));
            e.replay_block(&snapshot);
        }),
    ];
    for config in configs() {
        for (what, tamper) in tampers {
            // A correctable flip below the break, and a second break
            // above it: the sweep corrects the first and stops at the
            // lowest break.
            let build = || {
                let mut engine = written(config);
                engine.tamper_data_bit(addr(20), 5);
                tamper(&mut engine);
                for bit in [64, 65, 66, 67] {
                    engine.tamper_data_bit(addr(290), bit);
                }
                engine
            };
            let (mut swept, mut by_block) = (build(), build());
            let got = swept.verify_all();
            let want = per_block_sweep(&mut by_block);
            assert!(want.is_err(), "{what}: the tamper breaks a block");
            assert_eq!(got, want, "{what}, {config:?}");
            assert_eq!(swept.stats(), by_block.stats(), "{what}, {config:?}");
        }
    }
}
