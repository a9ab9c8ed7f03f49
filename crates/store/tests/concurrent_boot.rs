//! Shards boot side by side: every worker is spawned before any boot
//! result is awaited. What each shard's recovery decides — quarantine,
//! or failing the whole open — must not depend on its siblings.

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
