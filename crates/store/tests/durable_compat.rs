//! The durable plane against the one it replaced: files written by the
//! parent commit reopen here with every acknowledged write present, and
//! what this code writes back is what the parent's encoder would have.

use ame_store::{SecureStore, StoreConfig};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// `shard0/snapshot.bin` and `shard0/wal.bin` exactly as the parent
/// commit left them after [`written_by_the_parent`] and a simulated
/// power cut: the snapshot of the second rotation plus the intent
/// records acknowledged since.
const SNAPSHOT_HEX: &str = include_str!("fixtures/snapshot_v1.hex");
const WAL_HEX: &str = include_str!("fixtures/wal_v1.hex");

fn unhex(hex: &str) -> Vec<u8> {
    let hex: Vec<u8> = hex.bytes().filter(|b| !b.is_ascii_whitespace()).collect();
    hex.chunks(2)
        .map(|pair| u8::from_str_radix(std::str::from_utf8(pair).unwrap(), 16).unwrap())
        .collect()
}

fn temp_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "ame_durable_compat_{tag}_{}_{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// One 4 KiB shard whose log rotates every 2 KiB, so 50 scalar writes
/// cross two rotations.
fn config() -> StoreConfig {
    StoreConfig {
        shards: 1,
        shard_bytes: 4096,
        wal_rotate_bytes: 2048,
        ..StoreConfig::default()
    }
}

/// The schedule the parent commit ran before its power cut: write `i`
/// stores `[i + 1; 64]` to block `i % 24`.
fn written_by_the_parent(store: &SecureStore) {
    for i in 0..50u64 {
        store.write((i % 24) * 64, &[i as u8 + 1; 64]).unwrap();
    }
}

/// The last value the schedule left in `block`.
fn last_written(block: u64) -> [u8; 64] {
    let i = (0..50u64).rev().find(|i| i % 24 == block).unwrap();
    [i as u8 + 1; 64]
}

fn shard_file(dir: &Path, name: &str) -> PathBuf {
    dir.join("shard0").join(name)
}

#[test]
fn files_written_by_the_parent_commit_reopen_with_every_acked_write() {
    let dir = temp_dir("reopen");
    std::fs::create_dir_all(dir.join("shard0")).unwrap();
    std::fs::write(shard_file(&dir, "snapshot.bin"), unhex(SNAPSHOT_HEX)).unwrap();
    std::fs::write(shard_file(&dir, "wal.bin"), unhex(WAL_HEX)).unwrap();
    let store = SecureStore::open(&dir, config()).expect("reopen the parent's files");
    for block in 0..24u64 {
        assert_eq!(
            store.read(block * 64).expect("recovered read"),
            last_written(block),
            "acked write to block {block} lost"
        );
    }
    for block in 24..64u64 {
        assert_eq!(store.read(block * 64).unwrap(), [0; 64], "block {block}");
    }
    let snap = store.telemetry();
    assert_eq!(snap.gauge("store/shard0/poisoned"), Some(0.0));
    assert!(snap.gauge("store/shard0/recovery_ns").unwrap() > 0.0);
    store.simulate_crash();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn the_same_schedule_run_here_leaves_the_parent_commits_bytes() {
    let dir = temp_dir("rewrite");
    let store = SecureStore::open(&dir, config()).expect("open fresh");
    written_by_the_parent(&store);
    let snap = store.telemetry();
    store.simulate_crash();
    let snapshot = std::fs::read(shard_file(&dir, "snapshot.bin")).unwrap();
    assert_eq!(snapshot, unhex(SNAPSHOT_HEX), "snapshot.bin bytes changed");
    assert_eq!(
        std::fs::read(shard_file(&dir, "wal.bin")).unwrap(),
        unhex(WAL_HEX),
        "wal.bin bytes changed"
    );
    // A rotation's cost is readable from telemetry: one timing sample
    // and the image's bytes per rotation.
    let rotations = snap.counter("store/shard0/checkpoints").unwrap();
    assert!(rotations >= 2, "the schedule crosses two rotations");
    let timings = snap.histogram("store/shard0/checkpoint_ns").unwrap();
    assert_eq!(timings.count(), rotations);
    assert!(timings.min() > 0);
    // The image only grows as blocks become resident, so the last one
    // (the file minus its generation prefix) is the largest.
    let last_image = snapshot.len() as u64 - 8;
    let image_bytes = snap.counter("store/shard0/snapshot_bytes").unwrap();
    assert!(
        (last_image..=rotations * last_image).contains(&image_bytes),
        "{image_bytes} bytes over {rotations} rotations"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_volatile_store_reports_no_recovery_and_no_rotations() {
    let store = SecureStore::new(config());
    written_by_the_parent(&store);
    let snap = store.telemetry();
    assert_eq!(snap.gauge("store/shard0/recovery_ns"), Some(0.0));
    assert_eq!(snap.counter("store/shard0/snapshot_bytes"), Some(0));
    assert_eq!(
        snap.histogram("store/shard0/checkpoint_ns")
            .unwrap()
            .count(),
        0
    );
}
