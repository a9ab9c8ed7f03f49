//! A frozen engine image whose header was forged and its checksum
//! recomputed must be refused at thaw with `InvalidData` — before
//! anything is sized from the forged field — not abort the process on a
//! huge allocation, now or at the next re-key.

use ame_engine::{EngineConfig, MemoryEncryptionEngine};
use ame_persist::ByteReader;
use std::io::ErrorKind;

/// Offsets inside the engine section: the 20-byte section header, then
/// seed (8), MAC placement (1), counter scheme (1), max flips (4), tree
/// levels (8), counter-cache blocks (8), prefetch flag (1).
const TREE_LEVELS: usize = 20 + 14;
const CACHE_BLOCKS: usize = 20 + 22;
const PREFETCH: usize = 20 + 30;

fn image() -> Vec<u8> {
    let mut engine = MemoryEncryptionEngine::new(EngineConfig {
        counter_cache_blocks: 8,
        ..EngineConfig::default()
    });
    for i in 0..16u64 {
        engine.write_block(i * 64, &[i as u8; 64]);
    }
    let mut out = Vec::new();
    engine.freeze_into(&mut out);
    out
}

/// `image` with `bytes` written at `at` and the trailing CRC recomputed.
fn forged(mut image: Vec<u8>, at: usize, bytes: &[u8]) -> Vec<u8> {
    image[at..at + bytes.len()].copy_from_slice(bytes);
    let body = image.len() - 8;
    let crc = ame_persist::crc64(&image[..body]);
    image[body..].copy_from_slice(&crc.to_le_bytes());
    image
}

fn thaw(image: &[u8]) -> std::io::Result<MemoryEncryptionEngine> {
    MemoryEncryptionEngine::thaw_from(&mut ByteReader::new(image))
}

fn refused(image: &[u8]) -> bool {
    thaw(image).is_err_and(|e| e.kind() == ErrorKind::InvalidData)
}

#[test]
fn a_forged_counter_cache_size_is_refused_at_thaw() {
    let image = image();
    assert!(thaw(&image).is_ok());
    // 2^40 lines would be an 88 TB allocation.
    assert!(refused(&forged(
        image.clone(),
        CACHE_BLOCKS,
        &(1u64 << 40).to_le_bytes()
    )));
    let ceiling = ame_tree::cache::MAX_CAPACITY as u64;
    assert!(refused(&forged(
        image.clone(),
        CACHE_BLOCKS,
        &(ceiling + 1).to_le_bytes()
    )));
    let at_ceiling = thaw(&forged(image, CACHE_BLOCKS, &ceiling.to_le_bytes())).unwrap();
    assert_eq!(at_ceiling.config().counter_cache_blocks, 1 << 16);
}

#[test]
fn a_forged_tree_depth_is_refused_at_thaw() {
    let image = image();
    let mut engine = thaw(&image).unwrap();
    assert_eq!(engine.config().tree_levels, 2);
    assert!(engine.rekey(9).is_ok());
    // A depth the tree section does not have — absurd (the next re-key
    // would size a 2^40-level tree) or merely off by one — is refused.
    for levels in [1u64 << 40, 3, 1, 0] {
        assert!(
            refused(&forged(image.clone(), TREE_LEVELS, &levels.to_le_bytes())),
            "{levels} levels"
        );
    }
}

#[test]
fn a_non_canonical_prefetch_flag_is_refused_at_thaw() {
    let image = image();
    for flag in [0u8, 1] {
        let engine = thaw(&forged(image.clone(), PREFETCH, &[flag])).unwrap();
        assert_eq!(engine.config().prefetch_counters, flag == 1);
    }
    for flag in [2u8, 0x80, 0xff] {
        assert!(
            refused(&forged(image.clone(), PREFETCH, &[flag])),
            "flag {flag}"
        );
    }
}
