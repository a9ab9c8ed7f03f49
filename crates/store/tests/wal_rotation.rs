//! When a durable shard's write-intent log rotates into a snapshot: once
//! the log holds as many bytes as the image the last checkpoint wrote
//! (the boot checkpoint included), and at once after a group
//! re-encryption however short the log is.

use ame_store::{SecureStore, StoreConfig, StoreOp};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

fn temp_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "ame_wal_rotation_{tag}_{}_{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// One 16 KiB shard: 256 blocks, four delta groups.
fn config() -> StoreConfig {
    StoreConfig {
        shards: 1,
        shard_bytes: 256 * 64,
        ..StoreConfig::default()
    }
}

fn file_len(dir: &Path, name: &str) -> u64 {
    std::fs::metadata(dir.join("shard0").join(name))
        .expect("shard file")
        .len()
}

/// The image the last checkpoint wrote: `snapshot.bin` minus its 8-byte
/// generation prefix.
fn image_bytes(dir: &Path) -> u64 {
    file_len(dir, "snapshot.bin") - 8
}

fn counter(store: &SecureStore, name: &str) -> u64 {
    store
        .telemetry()
        .counter(&format!("store/shard0/{name}"))
        .unwrap_or(0)
}

fn value(block: u64) -> [u8; 64] {
    [block as u8 + 1; 64]
}

#[test]
fn the_log_rotates_once_it_holds_as_many_bytes_as_the_last_image() {
    let dir = temp_dir("size");
    let store = SecureStore::open(&dir, config()).expect("open fresh");
    let boot_image = image_bytes(&dir);
    let mut block = 0;
    loop {
        let log = file_len(&dir, "wal.bin");
        store.write(block * 64, &value(block)).expect("write");
        block += 1;
        let rotations = counter(&store, "checkpoints");
        if log < boot_image {
            assert_eq!(
                rotations, 0,
                "rotated with a {log} byte log, image {boot_image}"
            );
            continue;
        }
        // The first write after the log reached the image rotates
        // instead of appending, and the fresh log holds only its header.
        assert_eq!(rotations, 1, "{log} byte log, image {boot_image}");
        assert!(file_len(&dir, "wal.bin") < log);
        break;
    }
    assert!(block > 1, "the boot image held at least one record");
    // The next rotation waits for the new image, which holds the writes.
    let image = image_bytes(&dir);
    assert!(image > boot_image);
    while file_len(&dir, "wal.bin") < image {
        assert_eq!(counter(&store, "checkpoints"), 1);
        store.write(block * 64, &value(block)).expect("write");
        block += 1;
    }
    store.write(block * 64, &value(block)).expect("write");
    assert_eq!(counter(&store, "checkpoints"), 2);
    assert_eq!(
        counter(&store, "snapshot_bytes"),
        image + image_bytes(&dir),
        "each rotation wrote one image"
    );
    store.simulate_crash();
    let store = SecureStore::open(&dir, config()).expect("reopen");
    for b in 0..=block {
        assert_eq!(store.read(b * 64).unwrap(), value(b), "block {b}");
    }
    store.simulate_crash();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_group_reencryption_rotates_at_once_far_below_the_image() {
    let dir = temp_dir("reencrypt");
    let store = SecureStore::open(&dir, config()).expect("open fresh");
    // Make every block resident, then rotate: the image now dwarfs the
    // 130 single-write records below.
    let fill: Vec<StoreOp> = (0..256u64)
        .map(|b| StoreOp::Write {
            addr: b * 64,
            data: [9; 64],
        })
        .collect();
    assert!(store.submit_batch(&fill).iter().all(Result::is_ok));
    while counter(&store, "checkpoints") == 0 {
        store.write(0, &[9; 64]).expect("write");
    }
    let image = image_bytes(&dir);
    let mut rotated_at = None;
    for i in 0..130u64 {
        let (log, rotations, reencryptions) = (
            file_len(&dir, "wal.bin"),
            counter(&store, "checkpoints"),
            counter(&store, "engine/counters/reencryptions"),
        );
        assert!(log < image, "{log} byte log, image {image}");
        store.write(5 * 64, &[i as u8; 64]).expect("write");
        let reencrypted = counter(&store, "engine/counters/reencryptions") > reencryptions;
        let rotated = counter(&store, "checkpoints") > rotations;
        assert_eq!(rotated, reencrypted, "write {i}");
        if rotated {
            rotated_at = Some(i);
        }
    }
    assert!(
        rotated_at.is_some(),
        "130 writes of one block overflow its 7-bit delta"
    );
    assert_eq!(store.read(5 * 64).unwrap(), [129; 64]);
    store.simulate_crash();
    let _ = std::fs::remove_dir_all(&dir);
}
