//! The durable storage plane: per-shard write-intent logs, snapshots,
//! and crash recovery.
//!
//! Each shard persists under `dir/shard<N>/` as two artifacts:
//!
//! * **`snapshot.bin`** — an 8-byte checkpoint *generation* followed by
//!   a [`SecureRegion::freeze`] image: the whole sealed region
//!   (ciphertext, counters, tree, MAC side-band) in one checksummed
//!   section. Written atomically (temp file, `fsync`, rename, directory
//!   `fsync`), so a crash mid-snapshot leaves the previous snapshot
//!   intact and a renamed snapshot is durable, not merely staged in the
//!   page cache.
//! * **`wal.bin`** — an append-only write-intent log of
//!   framed ([`frame_record_into`]) [`WalRecord`]s. A record is appended *and
//!   `fdatasync`ed* before the write it describes is acknowledged, so
//!   every acknowledged write is either in the snapshot or in the log —
//!   across a power cut, not just a process kill. The log's first
//!   record names the checkpoint generation it extends; recovery
//!   replays the log only when that generation matches the snapshot's,
//!   and discards a log *older* than the snapshot (every record it
//!   holds is already inside the newer image — replaying stale values
//!   over it would regress acknowledged writes). A log *newer* than the
//!   snapshot is impossible without corruption (checkpoints make the
//!   snapshot durable before the rotated log's first byte), so it
//!   quarantines.
//!
//! Records carry **sealed post-images** ([`SealedBlockState`]): the
//! ciphertext, MAC, and counter *value* the engine produced — never
//! plaintext. Replay restores the counter value and lets the scheme
//! re-derive its compressed representation; the data MAC binds
//! (address, counter, ciphertext), so a forged record installs state
//! that fails the post-replay verification sweep instead of serving
//! silently.
//!
//! The log is value-based, so it must rotate into a fresh snapshot
//! whenever replay-by-value could stop being representable: after any
//! group re-encryption (counters rebased), and whenever the log exceeds
//! [`StoreConfig::wal_rotate_bytes`](crate::StoreConfig::wal_rotate_bytes)
//! (bounding replay time).
//!
//! Two-phase-commit intents ride the same log: a [`WalRecord::Prepare`]
//! carries both pre- and post-images, so recovery can finish the
//! transaction either way — forward if the coordinator's commit log
//! (`dir/txns.log`) says it committed, backward otherwise (presumed
//! abort: an unresolved prepare was never acknowledged to the client).
//!
//! Failure taxonomy on recovery:
//!
//! * a **torn tail** (record cut short by the crash) is truncated — by
//!   construction it was never acknowledged;
//! * a **corrupt** snapshot, record, or replayed state (checksum or
//!   decode failure) quarantines the shard exactly like a live
//!   verification failure — siblings keep serving;
//! * a clean replay still ends with a full [`SecureRegion::verify_all`]
//!   sweep before the shard serves anything: MAC or tree failure there
//!   quarantines too.

use ame_engine::region::SecureRegion;
use ame_engine::{ReadError, SealedBlockState};
use ame_persist::{frame_record_into, invalid_data, put_u32, put_u64, scan_wal, ByteReader};
use std::collections::{BTreeMap, HashSet};
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use crate::StoreConfig;

/// Record tags (first payload byte) of the write-intent log.
const TAG_WRITES: u8 = 1;
const TAG_PREPARE: u8 = 2;
const TAG_COMMIT: u8 = 3;
const TAG_ABORT: u8 = 4;
/// Tag of the mandatory first record of every log: the checkpoint
/// generation this log extends.
const TAG_GENERATION: u8 = 5;

/// Encodes the generation header record payload.
fn encode_generation(out: &mut Vec<u8>, generation: u64) {
    out.push(TAG_GENERATION);
    put_u64(out, generation);
}

/// Decodes a generation header record payload; `None` if the record is
/// anything else.
fn decode_generation(payload: &[u8]) -> Option<u64> {
    if payload.len() == 9 && payload[0] == TAG_GENERATION {
        Some(u64::from_le_bytes(
            payload[1..9].try_into().expect("8 bytes"),
        ))
    } else {
        None
    }
}

/// Accumulates consecutive-address sealed write entries across WAL
/// records and applies each maximal run through
/// [`SecureRegion::apply_sealed_run`] — the recovery-side analogue of
/// the engine's batched write path. Sequential workloads checkpointed
/// mid-stream produce long runs of adjacent addresses split across many
/// `Writes` records; fusing them lets replay dedupe integrity-tree
/// re-syncs per metadata block instead of paying one per record entry.
///
/// Correctness: a run only ever holds *strictly ascending consecutive*
/// addresses (each exactly one block past the last), so no address
/// repeats within a run and apply order inside it is immaterial. Any
/// entry that breaks consecutiveness — including a rewrite of an
/// address already buffered — flushes first, preserving the log's
/// last-write-wins semantics exactly.
#[derive(Default)]
struct SealedRunBuffer {
    run: Vec<(u64, SealedBlockState)>,
}

impl SealedRunBuffer {
    /// Bounds a fused run so replay memory stays proportional to one
    /// batch, not to the log.
    const MAX_RUN: usize = 1024;

    /// Buffers one sealed entry, flushing the pending run first if this
    /// entry does not extend it.
    fn push(
        &mut self,
        region: &mut SecureRegion,
        local: u64,
        state: SealedBlockState,
    ) -> io::Result<()> {
        let extends = self
            .run
            .last()
            .is_some_and(|&(last, _)| local == last + ame_engine::BLOCK_BYTES as u64);
        if (!self.run.is_empty() && !extends) || self.run.len() >= Self::MAX_RUN {
            self.flush(region)?;
        }
        self.run.push((local, state));
        Ok(())
    }

    /// Applies and clears the pending run (no-op when empty). Must be
    /// called before any non-`Writes` mutation of the region so replay
    /// order is preserved.
    fn flush(&mut self, region: &mut SecureRegion) -> io::Result<()> {
        if self.run.is_empty() {
            return Ok(());
        }
        let run = std::mem::take(&mut self.run);
        region.apply_sealed_run(&run)
    }
}

/// Fsyncs a directory so renames and file creations inside it are
/// durable across a power cut.
fn sync_dir(dir: &Path) -> io::Result<()> {
    File::open(dir)?.sync_all()
}

/// One write-intent log record.
#[derive(Debug)]
pub(crate) enum WalRecord {
    /// A run of acknowledged writes: sealed post-images, in effect order.
    Writes(Vec<(u64, SealedBlockState)>),
    /// A two-phase-commit intent: each entry is
    /// `(local, pre-image, post-image)`; the post-images are applied at
    /// prepare time, the pre-images roll them back on abort.
    Prepare {
        txn: u64,
        entries: Vec<PrepareEntry>,
    },
    /// Transaction `txn`'s prepared writes are final.
    Commit { txn: u64 },
    /// Transaction `txn` was rolled back (pre-images restored).
    Abort { txn: u64 },
}

/// One `(local, pre-image, post-image)` entry of a prepare intent.
pub(crate) type PrepareEntry = (u64, SealedBlockState, SealedBlockState);

impl WalRecord {
    /// Appends the head of a `Writes` payload announcing `count`
    /// entries; each follows through [`Self::put_write`]. The worker
    /// encodes a run straight from the region this way, without
    /// building the record first.
    pub(crate) fn put_writes_head(out: &mut Vec<u8>, count: usize) {
        out.push(TAG_WRITES);
        put_u32(out, count as u32);
    }

    /// Appends one entry of a `Writes` payload.
    pub(crate) fn put_write(out: &mut Vec<u8>, local: u64, state: &SealedBlockState) {
        put_u64(out, local);
        state.encode(out);
    }

    /// Appends a `Prepare` payload.
    pub(crate) fn put_prepare(out: &mut Vec<u8>, txn: u64, entries: &[PrepareEntry]) {
        out.push(TAG_PREPARE);
        put_u64(out, txn);
        put_u32(out, entries.len() as u32);
        for (local, pre, post) in entries {
            put_u64(out, *local);
            pre.encode(out);
            post.encode(out);
        }
    }

    /// Appends this record's payload to `out`.
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            WalRecord::Writes(entries) => {
                Self::put_writes_head(out, entries.len());
                for (local, state) in entries {
                    Self::put_write(out, *local, state);
                }
            }
            WalRecord::Prepare { txn, entries } => Self::put_prepare(out, *txn, entries),
            WalRecord::Commit { txn } => {
                out.push(TAG_COMMIT);
                put_u64(out, *txn);
            }
            WalRecord::Abort { txn } => {
                out.push(TAG_ABORT);
                put_u64(out, *txn);
            }
        }
    }

    pub(crate) fn decode(payload: &[u8]) -> io::Result<Self> {
        let mut r = ByteReader::new(payload);
        let record = match r.u8()? {
            TAG_WRITES => {
                let count = r.u32()? as usize;
                let mut entries = Vec::with_capacity(count.min(1 << 16));
                for _ in 0..count {
                    let local = r.u64()?;
                    entries.push((local, SealedBlockState::decode(&mut r)?));
                }
                WalRecord::Writes(entries)
            }
            TAG_PREPARE => {
                let txn = r.u64()?;
                let count = r.u32()? as usize;
                let mut entries = Vec::with_capacity(count.min(1 << 16));
                for _ in 0..count {
                    let local = r.u64()?;
                    let pre = SealedBlockState::decode(&mut r)?;
                    let post = SealedBlockState::decode(&mut r)?;
                    entries.push((local, pre, post));
                }
                WalRecord::Prepare { txn, entries }
            }
            TAG_COMMIT => WalRecord::Commit { txn: r.u64()? },
            TAG_ABORT => WalRecord::Abort { txn: r.u64()? },
            tag => return Err(invalid_data(format!("unknown write-intent tag {tag}"))),
        };
        if !r.is_empty() {
            return Err(invalid_data("trailing bytes in write-intent record"));
        }
        Ok(record)
    }
}

/// An open, append-only write-intent log.
///
/// Appends are encoded and framed in place ([`frame_record_into`]) in
/// one reusable buffer, written whole, and `fdatasync`ed before the
/// caller acknowledges anything — a power cut can tear at most the
/// final, unacknowledged record.
pub(crate) struct ShardWal {
    file: File,
    len: u64,
    /// The record being appended: payload and frame, reused per append.
    record: Vec<u8>,
}

impl ShardWal {
    /// Creates a fresh log at `path` whose first record binds it to
    /// checkpoint `generation`.
    ///
    /// The new log is written to a temp sibling, synced, and atomically
    /// renamed over the old one (directory fsynced), so the previous
    /// log is replaced whole: a power cut never resurrects old records
    /// behind a new header, and a durable log implies its generation's
    /// snapshot is durable too (the caller snapshots first).
    pub(crate) fn create(path: &Path, generation: u64) -> io::Result<Self> {
        let tmp = path.with_extension("tmp");
        let mut file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp)?;
        let mut record = Vec::new();
        frame_record_into(&mut record, |out| encode_generation(out, generation));
        file.write_all(&record)?;
        file.sync_data()?;
        fs::rename(&tmp, path)?;
        sync_dir(path.parent().expect("log path has a parent"))?;
        Ok(Self {
            file,
            len: record.len() as u64,
            record,
        })
    }

    /// Appends the record whose payload `encode` writes and makes it
    /// durable (`fdatasync`).
    pub(crate) fn append(&mut self, encode: impl FnOnce(&mut Vec<u8>)) -> io::Result<u64> {
        let written = self.append_unsynced(encode)?;
        self.sync()?;
        Ok(written)
    }

    /// Appends the record whose payload `encode` writes into the OS page
    /// cache without syncing, returning its framed length. The record is
    /// NOT durable until [`sync`](Self::sync)
    /// returns — callers must not acknowledge it before then. This is
    /// the group-commit half: a shard worker appends every run that
    /// arrived in one wakeup unsynced, then pays a single `fdatasync`
    /// for all of them.
    pub(crate) fn append_unsynced(&mut self, encode: impl FnOnce(&mut Vec<u8>)) -> io::Result<u64> {
        self.record.clear();
        frame_record_into(&mut self.record, encode);
        self.file.write_all(&self.record)?;
        let written = self.record.len() as u64;
        self.len += written;
        Ok(written)
    }

    /// Makes every previously appended record durable (`fdatasync`).
    pub(crate) fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()
    }

    /// Current log length in bytes.
    pub(crate) fn size(&self) -> u64 {
        self.len
    }
}

/// Atomically and durably replaces `dir/snapshot.bin` with `image`
/// under checkpoint `generation`: temp file, `fsync`, rename, directory
/// `fsync`. Returns only once the new snapshot would survive a power
/// cut, so the caller may rotate the write-intent log afterwards.
pub(crate) fn write_snapshot(dir: &Path, generation: u64, image: &[u8]) -> io::Result<()> {
    let tmp = dir.join("snapshot.tmp");
    let mut file = File::create(&tmp)?;
    file.write_all(&generation.to_le_bytes())?;
    file.write_all(image)?;
    file.sync_data()?;
    drop(file);
    fs::rename(&tmp, dir.join("snapshot.bin"))?;
    sync_dir(dir)
}

/// A shard worker's handle on its persistence state.
pub(crate) struct ShardPersist {
    /// The shard's directory (`<store dir>/shard<N>`).
    pub dir: PathBuf,
    /// The live write-intent log.
    pub wal: ShardWal,
    /// Checkpoint generation of the current snapshot/log pair;
    /// incremented by every rotation.
    pub generation: u64,
    /// Rotate into a snapshot once the log reaches this many bytes.
    pub rotate_bytes: u64,
    /// Engine re-encryption count at the last snapshot; any change
    /// forces a rotation (rebased counters make value-replay onto the
    /// old snapshot unrepresentable).
    pub last_reencryptions: u64,
}

/// What recovering (or freshly creating) one shard's durable state
/// produced.
pub(crate) struct ShardBoot {
    pub region: SecureRegion,
    /// A verification failure caught by the post-replay sweep.
    pub poisoned: Option<ReadError>,
    /// Quarantined without a `ReadError`: corrupt snapshot, corrupt log
    /// record, or an unrepresentable replay.
    pub dead: bool,
    /// Live persistence handle; `None` for quarantined shards (their
    /// on-disk state is preserved as evidence, never overwritten).
    pub persist: Option<ShardPersist>,
}

/// Rebuilds one shard from `dir/shard<s>/`: snapshot, then write-intent
/// replay, then a full verification sweep, then a fresh checkpoint.
///
/// Corruption anywhere — snapshot checksum, record checksum, record
/// decode, replay representability, or the final MAC/tree sweep —
/// quarantines the shard (boot-poisoned) instead of serving doubtful
/// state; the store's other shards are unaffected. A torn log tail is
/// truncated silently: the record it held was never acknowledged.
pub(crate) fn recover_shard(
    config: &StoreConfig,
    s: usize,
    dir: &Path,
    committed: &HashSet<u64>,
) -> io::Result<ShardBoot> {
    let sdir = dir.join(format!("shard{s}"));
    fs::create_dir_all(&sdir)?;
    let snap_path = sdir.join("snapshot.bin");
    let wal_path = sdir.join("wal.bin");
    let quarantine = |region: SecureRegion| ShardBoot {
        region,
        poisoned: None,
        dead: true,
        persist: None,
    };

    let (snap_generation, mut region) = if snap_path.exists() {
        let bytes = fs::read(&snap_path)?;
        let corrupt = || {
            Ok(quarantine(SecureRegion::new(
                config.engine.for_tenant(config.tenant, s),
                config.shard_bytes,
            )))
        };
        let Some((generation, image)) = bytes.split_at_checked(8) else {
            return corrupt();
        };
        let generation = u64::from_le_bytes(generation.try_into().expect("8 bytes"));
        match SecureRegion::thaw(image) {
            Ok(r) if r.size() == config.shard_bytes => (generation, r),
            // Corrupt snapshot (or one frozen under a different
            // geometry): quarantine over a fresh region.
            _ => return corrupt(),
        }
    } else {
        (
            0,
            SecureRegion::new(
                config.engine.for_tenant(config.tenant, s),
                config.shard_bytes,
            ),
        )
    };

    // Replay the intent log in append order, tracking unresolved
    // prepares.
    let mut pending: BTreeMap<u64, Vec<PrepareEntry>> = BTreeMap::new();
    if wal_path.exists() {
        let bytes = fs::read(&wal_path)?;
        let scan = match scan_wal(&bytes) {
            Ok(scan) => scan,
            Err(_) => return Ok(quarantine(region)),
        };
        if scan.torn {
            OpenOptions::new()
                .write(true)
                .open(&wal_path)?
                .set_len(scan.valid_len)?;
        }
        // The generation gate. An empty log (or one whose header record
        // was torn away) replays nothing, which is safe: the header is
        // synced before any intent is, so a missing header proves no
        // intent in this log was ever acknowledged.
        let replay = match scan.records.first().map(|p| decode_generation(p)) {
            None => &scan.records[..],
            // Non-header first record: not a log this code wrote.
            Some(None) => return Ok(quarantine(region)),
            Some(Some(g)) if g == snap_generation => &scan.records[1..],
            // Pre-checkpoint log: every record is already inside the
            // (newer) snapshot; replaying stale values would regress
            // acknowledged writes.
            Some(Some(g)) if g < snap_generation => &[],
            // A log newer than the snapshot means the snapshot
            // regressed — impossible without corruption, since the
            // snapshot is made durable before its log exists.
            Some(Some(_)) => return Ok(quarantine(region)),
        };
        // Consecutive-address `Writes` entries — within one record and
        // across adjacent records — fuse into runs applied through the
        // batched sealed-apply path; any record that mutates the region
        // out of band flushes the pending run first.
        let mut runs = SealedRunBuffer::default();
        for payload in replay {
            let record = match WalRecord::decode(payload) {
                Ok(record) => record,
                Err(_) => return Ok(quarantine(region)),
            };
            let applied = match record {
                WalRecord::Writes(entries) => entries
                    .into_iter()
                    .try_for_each(|(local, state)| runs.push(&mut region, local, state)),
                WalRecord::Prepare { txn, entries } => {
                    let result = runs.flush(&mut region).and_then(|()| {
                        entries
                            .iter()
                            .try_for_each(|(local, _pre, post)| region.apply_sealed(*local, post))
                    });
                    pending.insert(txn, entries);
                    result
                }
                WalRecord::Commit { txn } => {
                    pending.remove(&txn);
                    Ok(())
                }
                WalRecord::Abort { txn } => {
                    runs.flush(&mut region)
                        .and_then(|()| match pending.remove(&txn) {
                            Some(entries) => entries.iter().try_for_each(|(local, pre, _post)| {
                                region.apply_sealed(*local, pre)
                            }),
                            None => Ok(()),
                        })
                }
            };
            if applied.is_err() {
                return Ok(quarantine(region));
            }
        }
        if runs.flush(&mut region).is_err() {
            return Ok(quarantine(region));
        }
    }
    // Unresolved prepares: forward if the coordinator durably committed,
    // otherwise presumed abort (the client was never acknowledged).
    for (txn, entries) in pending {
        if committed.contains(&txn) {
            continue; // post-images already applied
        }
        for (local, pre, _post) in &entries {
            if region.apply_sealed(*local, pre).is_err() {
                return Ok(quarantine(region));
            }
        }
    }

    // Full MAC + tree sweep before the shard serves anything: replayed
    // state gets exactly the scrutiny live state would.
    if let Err(e) = region.verify_all() {
        return Ok(ShardBoot {
            region,
            poisoned: Some(e),
            dead: false,
            persist: None,
        });
    }

    // Fresh checkpoint so the next open never repeats this replay.
    let generation = snap_generation + 1;
    write_snapshot(&sdir, generation, &region.freeze())?;
    let wal = ShardWal::create(&wal_path, generation)?;
    let last_reencryptions = region.engine().counter_stats().reencryptions;
    Ok(ShardBoot {
        region,
        poisoned: None,
        dead: false,
        persist: Some(ShardPersist {
            dir: sdir,
            wal,
            generation,
            rotate_bytes: config.wal_rotate_bytes,
            last_reencryptions,
        }),
    })
}

/// The coordinator's commit-decision log (`dir/txns.log`): one framed
/// 8-byte record per durably committed transaction id.
pub(crate) fn read_committed_txns(path: &Path) -> HashSet<u64> {
    let mut committed = HashSet::new();
    let Ok(bytes) = fs::read(path) else {
        return committed;
    };
    // A torn or corrupt commit log degrades to presumed abort for the
    // missing entries, which is safe: an un-logged commit was never
    // acknowledged to any client.
    let records = match scan_wal(&bytes) {
        Ok(scan) => scan.records,
        Err(_) => return committed,
    };
    for record in records {
        if record.len() == 8 {
            committed.insert(u64::from_le_bytes(record.try_into().expect("8 bytes")));
        }
    }
    committed
}

#[cfg(test)]
mod tests {
    use super::*;
    use ame_engine::region::SecureRegion;
    use ame_engine::{EngineConfig, BLOCK_BYTES};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "ame-wal-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn encoded(record: &WalRecord) -> Vec<u8> {
        let mut out = Vec::new();
        record.encode_into(&mut out);
        out
    }

    fn sealed_pair() -> (SealedBlockState, SealedBlockState) {
        let mut region = SecureRegion::new(EngineConfig::default(), 1 << 12);
        region.write_bytes(0, &[7u8; BLOCK_BYTES]).unwrap();
        let pre = region.export_sealed(0).unwrap();
        region.write_bytes(0, &[9u8; BLOCK_BYTES]).unwrap();
        let post = region.export_sealed(0).unwrap();
        (pre, post)
    }

    #[test]
    fn record_roundtrip_all_variants() {
        let (pre, post) = sealed_pair();
        let records = [
            WalRecord::Writes(vec![(0, pre.clone()), (128, post.clone())]),
            WalRecord::Prepare {
                txn: 42,
                entries: vec![(64, pre.clone(), post.clone())],
            },
            WalRecord::Commit { txn: 42 },
            WalRecord::Abort { txn: 43 },
        ];
        for record in &records {
            let bytes = encoded(record);
            let back = WalRecord::decode(&bytes).unwrap();
            assert_eq!(bytes, encoded(&back), "decode/encode is the identity");
        }
    }

    #[test]
    fn a_record_appended_in_place_is_the_framed_copy_of_its_payload() {
        // What `append` used to write: the payload encoded into its own
        // vector, then copied behind `len | crc64(payload)`.
        let (pre, post) = sealed_pair();
        let records = [
            WalRecord::Writes(vec![(0, pre.clone()), (128, post.clone())]),
            WalRecord::Writes(vec![]),
            WalRecord::Prepare {
                txn: 42,
                entries: vec![(64, pre, post)],
            },
            WalRecord::Commit { txn: 42 },
            WalRecord::Abort { txn: 43 },
        ];
        let dir = temp_dir("inplace");
        let path = dir.join("wal.bin");
        let mut wal = ShardWal::create(&path, 7).unwrap();
        let mut expected = Vec::new();
        for record in std::iter::once(None).chain(records.iter().map(Some)) {
            let payload = match record {
                Some(record) => {
                    wal.append(|out| record.encode_into(out)).unwrap();
                    encoded(record)
                }
                None => {
                    let mut header = vec![TAG_GENERATION];
                    header.extend_from_slice(&7u64.to_le_bytes());
                    header
                }
            };
            expected.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            expected.extend_from_slice(&ame_persist::crc64(&payload).to_le_bytes());
            expected.extend_from_slice(&payload);
        }
        assert_eq!(fs::read(&path).unwrap(), expected);
        assert_eq!(wal.size(), expected.len() as u64);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn record_rejects_unknown_tag_and_trailing_bytes() {
        assert_eq!(
            WalRecord::decode(&[9]).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
        let mut bytes = encoded(&WalRecord::Commit { txn: 1 });
        bytes.push(0);
        assert_eq!(
            WalRecord::decode(&bytes).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
    }

    #[test]
    fn wal_starts_with_generation_header_and_rotation_replaces_whole_file() {
        let dir = temp_dir("log");
        let path = dir.join("wal.bin");
        let mut wal = ShardWal::create(&path, 3).unwrap();
        wal.append(|out| WalRecord::Commit { txn: 1 }.encode_into(out))
            .unwrap();
        wal.append(|out| WalRecord::Abort { txn: 2 }.encode_into(out))
            .unwrap();
        let scan = scan_wal(&fs::read(&path).unwrap()).unwrap();
        assert_eq!(scan.records.len(), 3);
        assert!(!scan.torn);
        assert_eq!(decode_generation(&scan.records[0]), Some(3));
        assert_eq!(decode_generation(&scan.records[1]), None);
        // A rotation creates a fresh log: old records gone, new header.
        let wal = ShardWal::create(&path, 4).unwrap();
        let scan = scan_wal(&fs::read(&path).unwrap()).unwrap();
        assert_eq!(scan.records.len(), 1);
        assert_eq!(decode_generation(&scan.records[0]), Some(4));
        assert_eq!(wal.size(), fs::read(&path).unwrap().len() as u64);
        assert!(!path.with_extension("tmp").exists(), "temp renamed away");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_write_is_atomic_rename_with_generation_prefix() {
        let dir = temp_dir("snap");
        write_snapshot(&dir, 1, b"image-1").unwrap();
        let on_disk = fs::read(dir.join("snapshot.bin")).unwrap();
        assert_eq!(&on_disk[..8], &1u64.to_le_bytes());
        assert_eq!(&on_disk[8..], b"image-1");
        write_snapshot(&dir, 2, b"image-2").unwrap();
        let on_disk = fs::read(dir.join("snapshot.bin")).unwrap();
        assert_eq!(&on_disk[..8], &2u64.to_le_bytes());
        assert_eq!(&on_disk[8..], b"image-2");
        assert!(!dir.join("snapshot.tmp").exists(), "temp file renamed away");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn committed_txns_tolerate_garbage() {
        let dir = temp_dir("txns");
        let path = dir.join("txns.log");
        let mut log = Vec::new();
        log.extend_from_slice(&ame_persist::frame_record(&5u64.to_le_bytes()));
        log.extend_from_slice(&ame_persist::frame_record(&9u64.to_le_bytes()));
        fs::write(&path, &log).unwrap();
        let committed = read_committed_txns(&path);
        assert!(committed.contains(&5) && committed.contains(&9));
        // Corruption degrades to presumed abort, not a panic.
        let mut bad = log.clone();
        bad[13] ^= 1;
        fs::write(&path, &bad).unwrap();
        assert!(read_committed_txns(&path).is_empty());
        assert!(read_committed_txns(&dir.join("missing.log")).is_empty());
        let _ = fs::remove_dir_all(&dir);
    }
}
