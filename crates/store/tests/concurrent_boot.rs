//! Shards boot side by side: every worker is spawned before any boot
//! result is awaited. What each shard's recovery decides — quarantine,
//! or failing the whole open — must not depend on its siblings.

use ame_engine::{CounterSchemeKind, EngineConfig};
use ame_store::{SecureStore, StoreConfig, StoreError};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

const BLOCK: u64 = 64;

fn temp_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "ame_concurrent_boot_{tag}_{}_{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn config() -> StoreConfig {
    StoreConfig {
        shards: 3,
        shard_bytes: 1 << 14,
        ..StoreConfig::default()
    }
}

/// A store with one write per block 0..30 (ten per shard), shut down
/// cleanly so every shard has a snapshot.
fn populated(tag: &str) -> PathBuf {
    let dir = temp_dir(tag);
    let store = SecureStore::open(&dir, config()).expect("open fresh");
    for i in 0..30u64 {
        store.write(i * BLOCK, &[i as u8 + 1; 64]).expect("write");
    }
    assert!(store.shutdown().all_resealed());
    dir
}

#[test]
fn a_corrupt_snapshot_quarantines_only_its_own_shard() {
    let dir = populated("corrupt");
    let path = dir.join("shard1").join("snapshot.bin");
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x04;
    std::fs::write(&path, &bytes).unwrap();

    let store = SecureStore::open(&dir, config()).expect("corruption quarantines, not errors");
    for i in 0..30u64 {
        match (i % 3, store.read(i * BLOCK)) {
            (1, Err(StoreError::ShardPoisoned { shard: 1, .. })) => {}
            (0 | 2, Ok(block)) => assert_eq!(block, [i as u8 + 1; 64], "block {i}"),
            (shard, other) => panic!("block {i} on shard {shard}: {other:?}"),
        }
    }
    let snap = store.telemetry();
    for (shard, poisoned) in [(0, 0.0), (1, 1.0), (2, 0.0)] {
        assert_eq!(
            snap.gauge(&format!("store/shard{shard}/poisoned")),
            Some(poisoned),
            "shard {shard}"
        );
    }
    assert_eq!(std::fs::read(&path).unwrap(), bytes, "evidence preserved");
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Where the engine section of a `snapshot.bin` starts: generation (8),
/// region section header (20), region size (8).
const ENGINE: usize = 8 + 20 + 8;

/// Recomputes the CRC of the section starting at `at`: header (magic,
/// version, payload length) and payload, then the CRC.
fn reseal_section(snapshot: &mut [u8], at: usize) {
    let len = u64::from_le_bytes(snapshot[at + 12..at + 20].try_into().unwrap()) as usize;
    let end = at + 20 + len;
    let crc = ame_persist::crc64(&snapshot[at..end]);
    snapshot[end..end + 8].copy_from_slice(&crc.to_le_bytes());
}

/// Rewrites the engine-header field at `field` (bytes into the engine
/// payload) of a `snapshot.bin` and recomputes the engine section's CRC,
/// then the region section's, so only the header's meaning is wrong.
fn forge_engine_header(snapshot: &mut [u8], field: usize, bytes: &[u8]) {
    let at = ENGINE + 20 + field;
    snapshot[at..at + bytes.len()].copy_from_slice(bytes);
    reseal_section(snapshot, ENGINE);
    reseal_section(snapshot, 8);
}

/// Rewrites the counter-layout field at `field` (bytes past the scheme
/// name) of a `snapshot.bin` and recomputes the counter, engine and
/// region CRCs. The counter section follows the DRAM section, which
/// follows the engine's 87-byte header fields.
fn forge_counter_layout(snapshot: &mut [u8], field: usize, bytes: &[u8]) {
    const DRAM: usize = ENGINE + 20 + 87;
    let section_len =
        |at: usize| u64::from_le_bytes(snapshot[at + 12..at + 20].try_into().unwrap()) as usize;
    let counters = DRAM + 20 + section_len(DRAM) + 8;
    let at = counters + 20 + 1 + usize::from(snapshot[counters + 20]) + field;
    snapshot[at..at + bytes.len()].copy_from_slice(bytes);
    for section in [counters, ENGINE, 8] {
        reseal_section(snapshot, section);
    }
}

/// Rewrites `bytes` at a field offset of a `snapshot.bin` and reseals.
type Forge = fn(&mut [u8], usize, &[u8]);

#[test]
fn a_forged_engine_header_quarantines_only_its_own_shard() {
    use CounterSchemeKind::{Delta, DualLength, Split};
    // Each row forges one configuration field of shard 1's snapshot
    // under valid checksums. Thaw must refuse the image, so the shard
    // quarantines at open, instead of the process aborting on a huge
    // allocation, the open failing on a boot panic, a later write
    // killing the worker, or the shard silently running the forged
    // configuration.
    let huge = (1u64 << 40).to_le_bytes();
    let rows: [(&str, CounterSchemeKind, Forge, usize, &[u8]); 5] = [
        // A 2^40-level tree, sized at boot or at shutdown's re-key.
        ("tree levels", Delta, forge_engine_header, 14, &huge),
        // A 2^40-line counter cache, an 88 TB allocation.
        ("cache blocks", Delta, forge_engine_header, 22, &huge),
        // Flip-and-check switched off: 2 -> 0.
        (
            "max flips",
            Delta,
            forge_engine_header,
            10,
            &0u32.to_le_bytes(),
        ),
        // 6 -> 7: a Fig. 6 group that no longer fits one metadata block.
        (
            "dual base_bits",
            DualLength,
            forge_counter_layout,
            0,
            &7u32.to_le_bytes(),
        ),
        // 7 -> 8: 64 + 64 x 8 bits do not fit one metadata block.
        (
            "split minor_bits",
            Split,
            forge_counter_layout,
            0,
            &8u32.to_le_bytes(),
        ),
    ];
    for (what, counter_scheme, forge, field, bytes) in rows {
        let config = StoreConfig {
            shards: 2,
            shard_bytes: 1 << 14,
            engine: EngineConfig {
                counter_scheme,
                ..EngineConfig::default()
            },
            ..StoreConfig::default()
        };
        let dir = temp_dir("forged");
        let store = SecureStore::open(&dir, config.clone()).expect("open fresh");
        for i in 0..20u64 {
            store.write(i * BLOCK, &[i as u8 + 1; 64]).expect("write");
        }
        assert!(store.shutdown().all_resealed());
        let path = dir.join("shard1").join("snapshot.bin");
        let mut bytes_on_disk = std::fs::read(&path).unwrap();
        let before = bytes_on_disk.clone();
        forge(&mut bytes_on_disk, field, bytes);
        assert_ne!(
            bytes_on_disk, before,
            "{what}: the forgery changes the file"
        );
        std::fs::write(&path, &bytes_on_disk).unwrap();

        let store = SecureStore::open(&dir, config.clone()).expect("a forgery quarantines");
        for i in 0..20u64 {
            match (i % 2, store.read(i * BLOCK)) {
                (1, Err(StoreError::ShardPoisoned { shard: 1, .. })) => {}
                (0, Ok(block)) => assert_eq!(block, [i as u8 + 1; 64], "block {i}"),
                (shard, other) => panic!("{what}: block {i} on shard {shard}: {other:?}"),
            }
        }
        let resealed: Vec<bool> = store.shutdown().shards.iter().map(|s| s.resealed).collect();
        assert_eq!(resealed, [true, false], "{what}: only shard 1 quarantined");
        assert_eq!(
            std::fs::read(&path).unwrap(),
            bytes_on_disk,
            "{what}: evidence preserved"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Rewrites the address of the last resident block of a `snapshot.bin`
/// to `addr` and recomputes the DRAM, engine and region CRCs. The DRAM
/// section follows the engine's 87-byte header fields; its payload is a
/// block count, then 80-byte entries that each start with the address.
fn forge_last_block_address(snapshot: &mut [u8], addr: u64) {
    const DRAM: usize = ENGINE + 20 + 87;
    let count = u64::from_le_bytes(snapshot[DRAM + 20..DRAM + 28].try_into().unwrap());
    let at = DRAM + 28 + (count as usize - 1) * 80;
    snapshot[at..at + 8].copy_from_slice(&addr.to_le_bytes());
    for section in [DRAM, ENGINE, 8] {
        reseal_section(snapshot, section);
    }
}

#[test]
fn a_forged_block_address_quarantines_only_its_own_shard() {
    // A resident block at the cipher's 48-bit limit, under valid
    // checksums: thaw must refuse the image (the block is outside the
    // shard's region), so shard 1 quarantines instead of its worker
    // dying on the engine's address assert during the boot sweep.
    let dir = populated("forged_addr");
    let path = dir.join("shard1").join("snapshot.bin");
    let mut bytes = std::fs::read(&path).unwrap();
    forge_last_block_address(&mut bytes, 1 << 48);
    std::fs::write(&path, &bytes).unwrap();

    let store = SecureStore::open(&dir, config()).expect("a forgery quarantines");
    for i in 0..30u64 {
        match (i % 3, store.read(i * BLOCK)) {
            (1, Err(StoreError::ShardPoisoned { shard: 1, .. })) => {}
            (0 | 2, Ok(block)) => assert_eq!(block, [i as u8 + 1; 64], "block {i}"),
            (shard, other) => panic!("block {i} on shard {shard}: {other:?}"),
        }
    }
    let resealed: Vec<bool> = store.shutdown().shards.iter().map(|s| s.resealed).collect();
    assert_eq!(resealed, [true, false, true], "only shard 1 quarantined");
    assert_eq!(std::fs::read(&path).unwrap(), bytes, "evidence preserved");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_io_error_on_shard_0_fails_the_open_with_that_error() {
    // shard 0: the snapshot path is a directory, so reading it fails;
    // shard 1: corrupt (would quarantine); shard 2: its directory is a
    // file, a different I/O error. The lowest shard's error is reported.
    let dir = populated("ioerror");
    let snapshot0 = dir.join("shard0").join("snapshot.bin");
    std::fs::remove_file(&snapshot0).unwrap();
    std::fs::create_dir(&snapshot0).unwrap();
    let expected = std::fs::read(&snapshot0).expect_err("reading a directory");
    std::fs::write(dir.join("shard1").join("snapshot.bin"), b"garbage").unwrap();
    std::fs::remove_dir_all(dir.join("shard2")).unwrap();
    std::fs::write(dir.join("shard2"), b"not a directory").unwrap();
    let other = std::fs::create_dir_all(dir.join("shard2")).expect_err("a file is in the way");
    assert_ne!(expected.kind(), other.kind(), "the two failures differ");

    let err = SecureStore::open(&dir, config()).expect_err("shard 0 cannot boot");
    assert_eq!(err.kind(), expected.kind(), "{err}");
    assert_eq!(err.raw_os_error(), expected.raw_os_error(), "{err}");

    // With shard 0 repaired, shard 2's error is the one that surfaces.
    std::fs::remove_dir(&snapshot0).unwrap();
    let err = SecureStore::open(&dir, config()).expect_err("shard 2 cannot boot");
    assert_eq!(err.kind(), other.kind(), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}
