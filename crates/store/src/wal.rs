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
//! Every record after the header is one [`WalRecord`]: the sealed
//! post-images of one served run. Record tags 2–4 belonged to a retired
//! two-phase-commit plane and are never reused: a log holding one is not
//! a log this code wrote, so its shard quarantines like any corrupt log.
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
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::ops::RangeInclusive;
use std::path::{Path, PathBuf};

use crate::StoreConfig;

/// Record tags (first payload byte) of the write-intent log.
const TAG_WRITES: u8 = 1;
/// Tags of the retired two-phase-commit records (prepare, commit,
/// abort). Never reuse them: an old log holding one must keep failing
/// to decode rather than replay as something else.
const RETIRED_TAGS: RangeInclusive<u8> = 2..=4;
/// Tag of the mandatory first record of every log: the checkpoint
/// generation this log extends.
const TAG_GENERATION: u8 = 5;
/// Encoded length of one `Writes` entry: its address and sealed state.
const WRITE_ENTRY_LEN: usize = 8 + SealedBlockState::ENCODED_LEN;

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

    /// Applies and clears the pending run (no-op when empty).
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

/// The one write-intent log record after the header: a served run's
/// acknowledged writes as `(local, sealed post-image)`, in effect order.
#[derive(Debug)]
pub(crate) struct WalRecord(pub Vec<(u64, SealedBlockState)>);

impl WalRecord {
    /// Appends the head of a record announcing `count` entries; each
    /// follows through [`Self::put_write`]. The worker encodes a run
    /// straight from the region this way, without building the record
    /// first.
    pub(crate) fn put_writes_head(out: &mut Vec<u8>, count: usize) {
        out.push(TAG_WRITES);
        put_u32(out, count as u32);
    }

    /// Appends one entry of a record.
    pub(crate) fn put_write(out: &mut Vec<u8>, local: u64, state: &SealedBlockState) {
        put_u64(out, local);
        state.encode(out);
    }

    /// Decodes one record payload. Only what [`Self::put_writes_head`]
    /// and [`Self::put_write`] produce is accepted: the entry count must
    /// account for the payload exactly before anything is sized from it,
    /// and each entry's sealed state must be canonical.
    ///
    /// # Errors
    ///
    /// `InvalidData` for any other tag (retired ones included), a count
    /// that disagrees with the payload length, or a non-canonical entry.
    pub(crate) fn decode(payload: &[u8]) -> io::Result<Self> {
        let mut r = ByteReader::new(payload);
        match r.u8()? {
            TAG_WRITES => {}
            tag if RETIRED_TAGS.contains(&tag) => {
                return Err(invalid_data(format!("retired write-intent tag {tag}")))
            }
            tag => return Err(invalid_data(format!("unknown write-intent tag {tag}"))),
        }
        let count = r.u32()? as usize;
        if count.checked_mul(WRITE_ENTRY_LEN) != Some(r.remaining()) {
            return Err(invalid_data(format!(
                "write-intent record announces {count} entries in {} bytes",
                r.remaining()
            )));
        }
        let mut entries = Vec::with_capacity(count);
        for _ in 0..count {
            let local = r.u64()?;
            entries.push((local, SealedBlockState::decode(&mut r)?));
        }
        Ok(Self(entries))
    }
}

/// An open, append-only write-intent log.
///
/// Appends are encoded and framed in place ([`frame_record_into`]) in
/// one reusable buffer and written whole; the worker syncs them once per
/// wakeup (group commit) before it acknowledges anything they cover — a
/// power cut can tear only records nobody was acknowledged for.
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
pub(crate) fn recover_shard(config: &StoreConfig, s: usize, dir: &Path) -> io::Result<ShardBoot> {
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

    // Replay the intent log in append order.
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
        // Consecutive-address entries — within one record and across
        // adjacent records — fuse into runs applied through the batched
        // sealed-apply path.
        let mut runs = SealedRunBuffer::default();
        for payload in replay {
            let applied = WalRecord::decode(payload).and_then(|WalRecord(entries)| {
                entries
                    .into_iter()
                    .try_for_each(|(local, state)| runs.push(&mut region, local, state))
            });
            if applied.is_err() {
                return Ok(quarantine(region));
            }
        }
        if runs.flush(&mut region).is_err() {
            return Ok(quarantine(region));
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

    fn encoded(entries: &[(u64, SealedBlockState)]) -> Vec<u8> {
        let mut out = Vec::new();
        WalRecord::put_writes_head(&mut out, entries.len());
        for (local, state) in entries {
            WalRecord::put_write(&mut out, *local, state);
        }
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

    fn assert_invalid(payload: &[u8], why: &str) {
        let err = WalRecord::decode(payload).expect_err(why);
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{why}: {err}");
    }

    #[test]
    fn record_roundtrip_all_variants() {
        let (pre, post) = sealed_pair();
        for entries in [vec![], vec![(64, pre.clone())], vec![(0, pre), (128, post)]] {
            let bytes = encoded(&entries);
            assert_eq!(bytes.len(), 5 + entries.len() * WRITE_ENTRY_LEN);
            let WalRecord(back) = WalRecord::decode(&bytes).unwrap();
            assert_eq!(back, entries, "decode/encode is the identity");
        }
    }

    #[test]
    fn a_record_appended_in_place_is_the_framed_copy_of_its_payload() {
        // The payload encoded into its own vector, then copied behind
        // `len | crc64(payload)`.
        let (pre, post) = sealed_pair();
        let records = [
            vec![(0, pre.clone()), (128, post.clone())],
            vec![],
            vec![(64, post)],
        ];
        let dir = temp_dir("inplace");
        let path = dir.join("wal.bin");
        let mut wal = ShardWal::create(&path, 7).unwrap();
        let mut expected = Vec::new();
        for record in std::iter::once(None).chain(records.iter().map(Some)) {
            let payload = match record {
                Some(entries) => {
                    let payload = encoded(entries);
                    wal.append_unsynced(|out| out.extend_from_slice(&payload))
                        .unwrap();
                    payload
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
        wal.sync().unwrap();
        assert_eq!(fs::read(&path).unwrap(), expected);
        assert_eq!(wal.size(), expected.len() as u64);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn record_rejects_unknown_tag_and_trailing_bytes() {
        assert_invalid(&[9], "unknown tag");
        // The generation header is a record of its own, never a payload.
        assert_invalid(&[TAG_GENERATION, 0, 0, 0, 0], "header tag");
        let mut bytes = encoded(&[(0, sealed_pair().0)]);
        bytes.push(0);
        assert_invalid(&bytes, "trailing byte");
    }

    #[test]
    fn retired_tags_never_decode() {
        // The shapes the two-phase-commit records had: [tag][u64 id]
        // for a decision, [tag][u64 id][u32 count]... for an intent.
        for tag in RETIRED_TAGS {
            let mut payload = vec![tag];
            payload.extend_from_slice(&1u64.to_le_bytes());
            assert_invalid(&payload, "retired tag, decision shape");
            payload.extend_from_slice(&0u32.to_le_bytes());
            assert_invalid(&payload, "retired tag, intent shape");
        }
    }

    #[test]
    fn forged_counts_and_non_canonical_entries_are_refused() {
        let (pre, post) = sealed_pair();
        let good = encoded(&[(0, pre), (64, post)]);
        // A 5-byte record announcing u32::MAX entries sizes nothing.
        let mut huge = vec![TAG_WRITES];
        huge.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_invalid(&huge, "huge count");
        for count in [1u32, 3] {
            let mut off_by_one = good.clone();
            off_by_one[1..5].copy_from_slice(&count.to_le_bytes());
            assert_invalid(&off_by_one, "count off by one");
        }
        // Entry 0's sealed state starts at 5 + 8: counter, then the MAC
        // flag, then the tag.
        let flag = 5 + 8 + 8;
        let mut flag_two = good.clone();
        flag_two[flag] = 2;
        assert_invalid(&flag_two, "MAC flag 2");
        let mut tag_without_mac = good.clone();
        assert_eq!(
            tag_without_mac[flag], 0,
            "MAC-in-ECC exports no separate tag"
        );
        tag_without_mac[flag + 1] = 0x5a;
        assert_invalid(&tag_without_mac, "tag behind an absent-MAC flag");
        WalRecord::decode(&good).expect("the unforged record decodes");
    }

    #[test]
    fn wal_starts_with_generation_header_and_rotation_replaces_whole_file() {
        let dir = temp_dir("log");
        let path = dir.join("wal.bin");
        let mut wal = ShardWal::create(&path, 3).unwrap();
        let (pre, post) = sealed_pair();
        for payload in [encoded(&[(0, pre)]), encoded(&[(64, post)])] {
            wal.append_unsynced(|out| out.extend_from_slice(&payload))
                .unwrap();
        }
        wal.sync().unwrap();
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
}
