//! Durability tests for the persistent store on the real file system:
//! a graceful shutdown keeps every write, and any corrupt durable
//! artifact — a flipped bit, a forged record, a retired record tag —
//! quarantines its shard instead of serving silently, leaving the files
//! as evidence. Crashes and I/O faults are enumerated in the crate's
//! `crash_check` module.

use ame_store::{SecureStore, StoreConfig, StoreError, StoreValue};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

const BLOCK: usize = 64;

fn temp_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "ame_store_recovery_{tag}_{}_{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn small_config() -> StoreConfig {
    StoreConfig {
        shards: 2,
        shard_bytes: 1 << 14,
        ..StoreConfig::default()
    }
}

fn block(v: u8) -> [u8; BLOCK] {
    [v; BLOCK]
}

/// With two shards, even blocks land on shard 0 and odd blocks on
/// shard 1 (block-interleaved placement).
fn addr(block_index: u64) -> u64 {
    block_index * BLOCK as u64
}

#[test]
fn graceful_shutdown_then_reopen_serves_all_writes() {
    let dir = temp_dir("graceful");
    let config = small_config();
    {
        let store = SecureStore::open(&dir, config.clone()).expect("open fresh");
        for i in 0..16u64 {
            store.write(addr(i), &block(i as u8 + 1)).expect("write");
        }
        assert!(store.shutdown().all_resealed());
    }
    let store = SecureStore::open(&dir, config.clone()).expect("reopen");
    for i in 0..16u64 {
        assert_eq!(store.read(addr(i)).expect("read"), block(i as u8 + 1));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn snapshot_bit_flip_quarantines_only_that_shard() {
    let dir = temp_dir("snapflip");
    let config = small_config();
    {
        let store = SecureStore::open(&dir, config.clone()).expect("open fresh");
        store.write(addr(0), &block(1)).expect("shard0 write");
        store.write(addr(1), &block(2)).expect("shard1 write");
        // Graceful shutdown rotates everything into the snapshots.
        assert!(store.shutdown().all_resealed());
    }
    let snap = dir.join("shard0").join("snapshot.bin");
    let mut bytes = std::fs::read(&snap).expect("read snapshot");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&snap, &bytes).expect("write tampered snapshot");

    let store = SecureStore::open(&dir, config.clone()).expect("open tolerates quarantine");
    match store.read(addr(0)) {
        Err(StoreError::ShardPoisoned { shard: 0, .. }) => {}
        other => panic!("tampered shard served: {other:?}"),
    }
    // The sibling shard is unaffected.
    assert_eq!(store.read(addr(1)).expect("sibling read"), block(2));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wal_bit_flip_quarantines_shard() {
    let dir = temp_dir("walflip");
    let config = small_config();
    {
        let store = SecureStore::open(&dir, config.clone()).expect("open fresh");
        for i in 0..8u64 {
            store.write(addr(i), &block(3)).expect("write");
        }
        // A crash leaves the intent log populated (a graceful shutdown
        // would have rotated it away).
        store.simulate_crash();
    }
    let wal = dir.join("shard0").join("wal.bin");
    let mut bytes = std::fs::read(&wal).expect("read wal");
    assert!(!bytes.is_empty(), "crash should leave intent records");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&wal, &bytes).expect("write tampered wal");

    let store = SecureStore::open(&dir, config.clone()).expect("open tolerates quarantine");
    match store.read(addr(0)) {
        Err(StoreError::ShardPoisoned { shard: 0, .. }) => {}
        other => panic!("tampered shard served: {other:?}"),
    }
    assert_eq!(store.read(addr(1)).expect("sibling read"), block(3));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Leaves shard 0's log holding exactly its generation header and one
/// write record (block 0 = `[1; 64]`), shard 1's block 1 = `[2; 64]`,
/// and returns the two record payloads.
fn crash_after_one_write_per_shard(dir: &std::path::Path) -> (Vec<u8>, Vec<u8>) {
    let store = SecureStore::open(dir, small_config()).expect("open fresh");
    store.write(addr(0), &block(1)).expect("shard0 write");
    store.write(addr(1), &block(2)).expect("shard1 write");
    store.simulate_crash();
    let bytes = std::fs::read(dir.join("shard0").join("wal.bin")).expect("read wal");
    let records: Vec<&[u8]> = ame_persist::wal_records(&bytes)
        .collect::<Result<_, _>>()
        .expect("scan wal");
    let [header, writes] = records[..].try_into().expect("header + one record");
    (header.to_vec(), writes.to_vec())
}

/// Rewrites shard 0's log as its header followed by `record` (framed
/// with a correct CRC), reopens, and checks that shard 0 is quarantined
/// while shard 1 still serves.
fn forged_record_quarantines_shard0(tag: &str, forge: impl FnOnce(&mut Vec<u8>)) {
    let dir = temp_dir(tag);
    let (header, mut record) = crash_after_one_write_per_shard(&dir);
    forge(&mut record);
    let mut wal = ame_persist::frame_record(&header);
    wal.extend_from_slice(&ame_persist::frame_record(&record));
    std::fs::write(dir.join("shard0").join("wal.bin"), &wal).expect("write forged wal");

    let store = SecureStore::open(&dir, small_config()).expect("open tolerates quarantine");
    match store.read(addr(0)) {
        Err(StoreError::ShardPoisoned { shard: 0, .. }) => {}
        other => panic!("{tag}: a forged record replayed: {other:?}"),
    }
    assert_eq!(store.read(addr(1)).expect("sibling read"), block(2));
    store.simulate_crash();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Offset of the MAC flag in a one-entry write record: tag, count,
/// address, counter.
const MAC_FLAG: usize = 1 + 4 + 8 + 8;

#[test]
fn a_write_record_announcing_u32_max_entries_quarantines() {
    forged_record_quarantines_shard0("huge_count", |record| {
        record.truncate(1);
        record.extend_from_slice(&u32::MAX.to_le_bytes());
    });
}

#[test]
fn a_write_record_whose_count_is_off_by_one_quarantines() {
    forged_record_quarantines_shard0("count_plus_one", |record| {
        record[1..5].copy_from_slice(&2u32.to_le_bytes());
    });
    forged_record_quarantines_shard0("count_minus_one", |record| {
        record[1..5].copy_from_slice(&0u32.to_le_bytes());
    });
}

#[test]
fn a_mac_flag_other_than_zero_or_one_quarantines() {
    forged_record_quarantines_shard0("mac_flag_two", |record| {
        assert_eq!(record[MAC_FLAG], 0, "MAC-in-ECC exports no separate tag");
        record[MAC_FLAG] = 2;
    });
}

#[test]
fn a_tag_behind_an_absent_mac_flag_quarantines() {
    forged_record_quarantines_shard0("tag_without_mac", |record| {
        assert_eq!(record[MAC_FLAG], 0, "MAC-in-ECC exports no separate tag");
        record[MAC_FLAG + 1] = 0x5a;
    });
}

/// A record that decodes, its CRC recomputed over forged ciphertext:
/// replay installs it, and the MAC refuses it in the post-replay sweep.
/// Eight flipped bits in one word are past what flip-and-check repairs.
#[test]
fn a_record_of_forged_ciphertext_with_a_recomputed_crc_quarantines() {
    forged_record_quarantines_shard0("forged_ciphertext", |record| {
        let ciphertext = MAC_FLAG + 1 + 8;
        record[ciphertext] ^= 0xff;
    });
}

/// The retired two-phase-commit layout of a prepare record: `[2][u64
/// txn][u32 count]`, then per entry the address and a (pre, post) pair
/// of sealed states — here the sealed state a real write logged, twice.
fn retired_prepare(writes: &[u8]) -> Vec<u8> {
    let (entry, state) = writes[5..].split_at(8);
    let mut prepare = vec![2u8];
    prepare.extend_from_slice(&1u64.to_le_bytes());
    prepare.extend_from_slice(&1u32.to_le_bytes());
    prepare.extend_from_slice(entry);
    prepare.extend_from_slice(state);
    prepare.extend_from_slice(state);
    prepare
}

#[test]
fn a_log_holding_a_retired_prepare_record_quarantines_and_stays_untouched() {
    // Record tags 2-4 were the two-phase-commit records (prepare,
    // commit, abort) of a deleted API, and `txns.log` its decision log.
    // A log holding one is not a log this code wrote: the shard is
    // quarantined, and its files stay byte-identical as evidence.
    let dir = temp_dir("retired_tag");
    let (header, writes) = crash_after_one_write_per_shard(&dir);
    let mut wal = ame_persist::frame_record(&header);
    wal.extend_from_slice(&ame_persist::frame_record(&retired_prepare(&writes)));
    let shard0 = dir.join("shard0");
    std::fs::write(shard0.join("wal.bin"), &wal).expect("write wal");
    // The decision log that committed transaction 1.
    std::fs::write(
        dir.join("txns.log"),
        ame_persist::frame_record(&1u64.to_le_bytes()),
    )
    .expect("write decision log");
    let files = [
        shard0.join("wal.bin"),
        shard0.join("snapshot.bin"),
        dir.join("txns.log"),
    ];
    let before: Vec<Vec<u8>> = files.iter().map(|f| std::fs::read(f).unwrap()).collect();

    let store = SecureStore::open(&dir, small_config()).expect("open tolerates quarantine");
    match store.read(addr(0)) {
        Err(StoreError::ShardPoisoned { shard: 0, .. }) => {}
        other => panic!("a retired record replayed: {other:?}"),
    }
    assert_eq!(store.read(addr(1)).expect("sibling read"), block(2));
    assert!(!store.shutdown().shards[0].resealed);
    for (file, bytes) in files.iter().zip(&before) {
        assert_eq!(&std::fs::read(file).unwrap(), bytes, "{}", file.display());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_torn_tail_behind_a_retired_record_quarantines_and_leaves_the_log_untouched() {
    // Recovery reads the log without writing it: the torn tail a crash
    // left behind a record this code did not write is evidence too.
    let dir = temp_dir("retired_torn");
    let (header, writes) = crash_after_one_write_per_shard(&dir);
    let mut wal = ame_persist::frame_record(&header);
    wal.extend_from_slice(&ame_persist::frame_record(&retired_prepare(&writes)));
    let torn = ame_persist::frame_record(&writes);
    wal.extend_from_slice(&torn[..torn.len() / 2]);
    let path = dir.join("shard0").join("wal.bin");
    std::fs::write(&path, &wal).expect("write wal");

    let store = SecureStore::open(&dir, small_config()).expect("open tolerates quarantine");
    match store.read(addr(0)) {
        Err(StoreError::ShardPoisoned { shard: 0, .. }) => {}
        other => panic!("a retired record replayed: {other:?}"),
    }
    assert_eq!(store.read(addr(1)).expect("sibling read"), block(2));
    drop(store.shutdown());
    assert_eq!(std::fs::read(&path).unwrap(), wal, "wal.bin changed");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wait_timeout_expires_then_ticket_still_completes() {
    let store = SecureStore::new(small_config());
    store.write(addr(0), &block(5)).expect("seed");
    let mut session = store.session();
    let ticket = session
        .submit_rmw(addr(0), |data| {
            std::thread::sleep(Duration::from_millis(300));
            data[0] ^= 0xFF;
        })
        .expect("submit rmw");
    // The worker is busy sleeping inside the RMW: the short wait must
    // time out without consuming the ticket...
    assert_eq!(
        session.wait_timeout(ticket, Duration::from_millis(20)),
        Err(StoreError::Timeout)
    );
    // ...and a later wait still reaps the completion.
    match session.wait(ticket).expect("rmw completes") {
        StoreValue::Modified(pre) => assert_eq!(pre, block(5)),
        other => panic!("unexpected completion: {other:?}"),
    }
}
