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
//!   framed ([`frame_record_into`]) records. A record is appended *and
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
//! plaintext. Replay reads each record where it lies in the log image
//! ([`wal_records`]) and installs every entry in log order through one
//! [`SealedReplay`](ame_engine::SealedReplay): the counter value (the
//! scheme re-derives its compressed representation and refuses one it
//! cannot hold), then the MAC, then the ciphertext. The integrity tree is re-synced once per
//! distinct counter metadata block at the end of the log, so replay
//! holds nothing beyond the log bytes but the set of dirty metadata
//! blocks. The data MAC binds (address, counter, ciphertext), so a
//! forged record installs state that fails the post-replay verification
//! sweep instead of serving silently.
//!
//! The log is value-based, so it must rotate into a fresh snapshot
//! whenever replay-by-value could stop being representable: after any
//! group re-encryption (counters rebased). It also rotates once it holds
//! as many bytes as the image the last checkpoint wrote (the boot
//! checkpoint included): from there on a snapshot is cheaper to write
//! than the log is to replay. The cadence sizes itself — a small region
//! rotates often and cheaply, a fully resident 8 MiB shard every
//! ~11.75 MB of log — and crash replay reads at most one image's worth
//! of log, plus the one record that crossed it.
//!
//! Every record after the header is one write record
//! ([`put_writes_head`], [`put_write`]): the sealed post-images of one
//! served run. Record tags 2–4 belonged to a retired two-phase-commit
//! plane and are never reused: a log holding one is not a log this code
//! wrote, so its shard quarantines like any corrupt log.
//!
//! Failure taxonomy on recovery:
//!
//! * a **torn tail** (record cut short by the crash) is not replayed —
//!   by construction it was never acknowledged — and is left in place:
//!   recovery's fresh checkpoint replaces the whole log;
//! * a **corrupt** snapshot, record, or replayed state (checksum or
//!   decode failure) quarantines the shard exactly like a live
//!   verification failure — siblings keep serving;
//! * a clean replay still ends with a full [`SecureRegion::verify_all`]
//!   sweep before the shard serves anything (address-ordered runs, one
//!   verified counter fetch per metadata block): MAC or tree failure
//!   there quarantines too.

use ame_engine::region::SecureRegion;
use ame_engine::{ReadError, SealedBlockState};
use ame_persist::{
    frame_record_into, invalid_data, put_u32, put_u64, wal_records, ByteReader, WalRecords,
};
use std::fs::{self, File};
use std::io::{self, Write};
use std::ops::RangeInclusive;
use std::path::{Path, PathBuf};
use std::sync::Arc;

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

/// Every durable file operation of the storage plane, and nothing else.
/// [`RealFs`] is the file system; the crash enumerator substitutes an
/// in-memory model that records each operation and can crash or fail
/// at any of them.
pub(crate) trait DurableFs: Send + Sync {
    /// Creates the directory `dir`, whose parent must exist; `Ok` too if
    /// a directory is already there. A new entry is durable only once
    /// the parent is synced.
    fn create_dir(&self, dir: &Path) -> io::Result<()>;
    /// Reads a whole file; `None` if it does not exist.
    fn read(&self, path: &Path) -> io::Result<Option<Vec<u8>>>;
    /// Creates (or truncates) `path`, writes `parts` in order and syncs
    /// the data, returning the file for appends. Its entry is durable
    /// only once the directory is synced.
    fn create_synced(&self, path: &Path, parts: &[&[u8]]) -> io::Result<Box<dyn LogFile>>;
    /// Renames `from` over `to`.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Syncs a directory, making its creations and renames durable.
    fn sync_dir(&self, dir: &Path) -> io::Result<()>;

    /// Creates `dir` and any missing ancestors and syncs the parent of
    /// every directory on the path, existing ones included: an earlier
    /// open may have created one and failed, or died, before its entry
    /// was durable. Afterwards the whole path survives a power cut.
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        let parent = parent_of(dir);
        if parent == dir {
            return self.create_dir(dir);
        }
        self.create_dir_all(parent)?;
        self.create_dir(dir)?;
        self.sync_dir(parent)
    }
}

/// The live write-intent log as [`DurableFs::create_synced`] returns it.
pub(crate) trait LogFile: Send {
    /// Writes `bytes` at the end of the file, not yet durable.
    fn append(&mut self, bytes: &[u8]) -> io::Result<()>;
    /// Makes every append so far durable (`fdatasync`).
    fn sync(&mut self) -> io::Result<()>;
}

/// The file system.
pub(crate) struct RealFs;

impl DurableFs for RealFs {
    fn create_dir(&self, dir: &Path) -> io::Result<()> {
        match fs::create_dir(dir) {
            Err(_) if dir.is_dir() => Ok(()),
            created => created,
        }
    }

    fn read(&self, path: &Path) -> io::Result<Option<Vec<u8>>> {
        match fs::read(path) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    fn create_synced(&self, path: &Path, parts: &[&[u8]]) -> io::Result<Box<dyn LogFile>> {
        let mut file = File::create(path)?;
        for part in parts {
            file.write_all(part)?;
        }
        file.sync_data()?;
        Ok(Box::new(file))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        fs::rename(from, to)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        File::open(dir)?.sync_all()
    }
}

impl LogFile for File {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.write_all(bytes)
    }

    fn sync(&mut self) -> io::Result<()> {
        self.sync_data()
    }
}

/// The directory holding `path`: `.` for a bare relative name, the
/// root for the root.
fn parent_of(path: &Path) -> &Path {
    match path.parent() {
        Some(parent) if parent.as_os_str().is_empty() => Path::new("."),
        Some(parent) => parent,
        None => path,
    }
}

/// Appends the head of a write record announcing `count` entries; each
/// follows through [`put_write`]. A write record holds a served run's
/// acknowledged writes as `(local, sealed post-image)`, in effect order.
/// The worker encodes a run straight from the region this way, without
/// building the record first.
pub(crate) fn put_writes_head(out: &mut Vec<u8>, count: usize) {
    out.push(TAG_WRITES);
    put_u32(out, count as u32);
}

/// Appends one entry of a write record.
pub(crate) fn put_write(out: &mut Vec<u8>, local: u64, state: &SealedBlockState) {
    put_u64(out, local);
    state.encode(out);
}

/// Decodes one write record payload, handing its entries to `each` in
/// order as they are read: nothing is collected. Only what
/// [`put_writes_head`] and [`put_write`] produce is accepted: the entry
/// count must account for the payload exactly before any entry is read,
/// and each entry's sealed state must be canonical.
///
/// # Errors
///
/// `InvalidData` for any other tag (retired ones included), a count
/// that disagrees with the payload length, or a non-canonical entry;
/// otherwise the first error `each` returns. Entries before a
/// non-canonical one have been handed over.
pub(crate) fn decode_writes(
    payload: &[u8],
    mut each: impl FnMut(u64, SealedBlockState) -> io::Result<()>,
) -> io::Result<()> {
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
    for _ in 0..count {
        let local = r.u64()?;
        each(local, SealedBlockState::decode(&mut r)?)?;
    }
    Ok(())
}

/// Replays the write records of a log, after its header, into `region`
/// in log order through one [`SealedReplay`](ame_engine::SealedReplay),
/// which re-syncs the tree once per dirty metadata block when it ends.
///
/// # Errors
///
/// `InvalidData` for a corrupt record or an entry the region refuses;
/// the shard must quarantine.
fn replay(region: &mut SecureRegion, records: WalRecords<'_>) -> io::Result<()> {
    let mut replay = region.replay_sealed();
    for payload in records {
        decode_writes(payload?, |local, state| replay.install(local, &state))?;
    }
    replay.finish();
    Ok(())
}

/// An open, append-only write-intent log.
///
/// Appends are encoded and framed in place ([`frame_record_into`]) in
/// one reusable buffer and written whole; the worker syncs them once per
/// wakeup (group commit) before it acknowledges anything they cover — a
/// power cut can tear only records nobody was acknowledged for.
pub(crate) struct ShardWal {
    file: Box<dyn LogFile>,
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
    pub(crate) fn create(fs: &dyn DurableFs, path: &Path, generation: u64) -> io::Result<Self> {
        let tmp = path.with_extension("tmp");
        let mut record = Vec::new();
        frame_record_into(&mut record, |out| encode_generation(out, generation));
        let file = fs.create_synced(&tmp, &[&record])?;
        fs.rename(&tmp, path)?;
        fs.sync_dir(parent_of(path))?;
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
        self.file.append(&self.record)?;
        let written = self.record.len() as u64;
        self.len += written;
        Ok(written)
    }

    /// Makes every previously appended record durable (`fdatasync`).
    pub(crate) fn sync(&mut self) -> io::Result<()> {
        self.file.sync()
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
pub(crate) fn write_snapshot(
    fs: &dyn DurableFs,
    dir: &Path,
    generation: u64,
    image: &[u8],
) -> io::Result<()> {
    let tmp = dir.join("snapshot.tmp");
    fs.create_synced(&tmp, &[&generation.to_le_bytes(), image])?;
    fs.rename(&tmp, &dir.join("snapshot.bin"))?;
    fs.sync_dir(dir)
}

/// A shard worker's handle on its persistence state.
pub(crate) struct ShardPersist {
    /// The file system the shard persists through.
    pub fs: Arc<dyn DurableFs>,
    /// The shard's directory (`<store dir>/shard<N>`).
    pub dir: PathBuf,
    /// The live write-intent log.
    pub wal: ShardWal,
    /// Checkpoint generation of the current snapshot/log pair;
    /// incremented by every rotation.
    pub generation: u64,
    /// Bytes of the image the last checkpoint wrote: the log rotates
    /// once it holds as many.
    pub image_bytes: u64,
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
/// not replayed: the record it held was never acknowledged.
pub(crate) fn recover_shard(
    config: &StoreConfig,
    s: usize,
    fs: &Arc<dyn DurableFs>,
    dir: &Path,
) -> io::Result<ShardBoot> {
    // The store directory is durable already (the store's open made it
    // so); this shard's entry in it is made durable here.
    let sdir = dir.join(format!("shard{s}"));
    fs.create_dir(&sdir)?;
    fs.sync_dir(dir)?;
    let snap_path = sdir.join("snapshot.bin");
    let wal_path = sdir.join("wal.bin");
    let quarantine = |region: SecureRegion| ShardBoot {
        region,
        poisoned: None,
        dead: true,
        persist: None,
    };

    let (snap_generation, mut region) = if let Some(bytes) = fs.read(&snap_path)? {
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

    // Replay the intent log in append order, reading each record where
    // it lies in the log image.
    if let Some(bytes) = fs.read(&wal_path)? {
        // Replay stops at a torn tail; the tail stays on disk until the
        // fresh checkpoint below replaces the log, and a shard that
        // quarantines keeps it as evidence.
        let mut records = wal_records(&bytes);
        // The generation gate. An empty log (or one whose header record
        // was torn away) replays nothing, which is safe: the header is
        // synced before any intent is, so a missing header proves no
        // intent in this log was ever acknowledged.
        let current = match records.next().map(|header| header.map(decode_generation)) {
            None => false,
            // Non-header first record: not a log this code wrote.
            Some(Err(_) | Ok(None)) => return Ok(quarantine(region)),
            Some(Ok(Some(g))) if g == snap_generation => true,
            // Pre-checkpoint log: every record is already inside the
            // (newer) snapshot; replaying stale values would regress
            // acknowledged writes. Its checksums are still checked.
            Some(Ok(Some(g))) if g < snap_generation => false,
            // A log newer than the snapshot means the snapshot
            // regressed — impossible without corruption, since the
            // snapshot is made durable before its log exists.
            Some(Ok(Some(_))) => return Ok(quarantine(region)),
        };
        let read = if current {
            replay(&mut region, records)
        } else {
            records.try_for_each(|record| record.map(drop))
        };
        if read.is_err() {
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
    let image = region.freeze();
    write_snapshot(&**fs, &sdir, generation, &image)?;
    let wal = ShardWal::create(&**fs, &wal_path, generation)?;
    let last_reencryptions = region.engine().counter_stats().reencryptions;
    Ok(ShardBoot {
        region,
        poisoned: None,
        dead: false,
        persist: Some(ShardPersist {
            fs: Arc::clone(fs),
            dir: sdir,
            wal,
            generation,
            image_bytes: image.len() as u64,
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
        put_writes_head(&mut out, entries.len());
        for (local, state) in entries {
            put_write(&mut out, *local, state);
        }
        out
    }

    fn decoded(payload: &[u8]) -> io::Result<Vec<(u64, SealedBlockState)>> {
        let mut entries = Vec::new();
        decode_writes(payload, |local, state| {
            entries.push((local, state));
            Ok(())
        })?;
        Ok(entries)
    }

    fn unhex(hex: &str) -> Vec<u8> {
        let hex: Vec<u8> = hex.bytes().filter(|b| !b.is_ascii_whitespace()).collect();
        hex.chunks(2)
            .map(|pair| u8::from_str_radix(std::str::from_utf8(pair).unwrap(), 16).unwrap())
            .collect()
    }

    /// The parent commit's `snapshot.bin` and `wal.bin` (the fixtures of
    /// `tests/durable_compat.rs`) decode and re-encode to the same bytes:
    /// rotation points may move, the encoders may not.
    #[test]
    fn the_parent_commits_files_re_encode_byte_identical() {
        let snapshot = unhex(include_str!("../tests/fixtures/snapshot_v1.hex"));
        let (generation, image) = snapshot.split_at(8);
        let region = SecureRegion::thaw(image).expect("the parent's image thaws");
        let mut refrozen = generation.to_vec();
        refrozen.extend_from_slice(&region.freeze());
        assert!(refrozen == snapshot, "snapshot.bin re-freezes differently");

        let log = unhex(include_str!("../tests/fixtures/wal_v1.hex"));
        let mut records = wal_records(&log);
        let header = records.next().unwrap().unwrap();
        let mut rewritten = Vec::new();
        frame_record_into(&mut rewritten, |out| {
            encode_generation(out, decode_generation(header).unwrap())
        });
        let mut writes = 0;
        for payload in records {
            let entries = decoded(payload.unwrap()).unwrap();
            writes += entries.len();
            frame_record_into(&mut rewritten, |out| {
                out.extend_from_slice(&encoded(&entries))
            });
        }
        assert!(writes > 0, "the fixture logs writes");
        assert!(rewritten == log, "wal.bin re-encodes differently");
    }

    fn tree_state(region: &mut SecureRegion) -> Vec<u8> {
        let mut state = Vec::new();
        region.engine_mut().tree_mut().encode_state(&mut state);
        state
    }

    fn leaf(region: &mut SecureRegion, meta: u64) -> [u8; 64] {
        region
            .engine_mut()
            .tree_mut()
            .read_counter_block(meta)
            .unwrap()
    }

    /// A log that rewrites one block many times and touches every block
    /// of one counter group replays last-write-wins, verifies, and leaves
    /// the tree a sync per entry would have: the sync at the end of the
    /// log rewrites every leaf whose counters the log changed.
    #[test]
    fn replay_is_last_write_wins_and_syncs_every_dirty_leaf() {
        let mut live = SecureRegion::new(EngineConfig::default(), 256 * BLOCK_BYTES as u64);
        live.write_bytes(200 * 64, &[1; BLOCK_BYTES]).unwrap();
        let image = live.freeze();
        let mut payloads = Vec::new();
        let mut log_writes = |live: &mut SecureRegion, blocks: &[u64], value: u8| {
            let items: Vec<_> = blocks.iter().map(|&b| (b * 64, [value; 64])).collect();
            live.write_blocks(&items).unwrap();
            let entries: Vec<_> = items
                .iter()
                .map(|&(l, _)| (l, live.export_sealed(l).unwrap()))
                .collect();
            payloads.push(encoded(&entries));
        };
        // Every block of group 1, then block 70 a hundred times between
        // writes of blocks of groups 0 to 2, then group 1 again backwards.
        log_writes(&mut live, &(64..128).collect::<Vec<_>>(), 2);
        for i in 0..100u8 {
            log_writes(&mut live, &[70, u64::from(i % 3) * 64], i);
        }
        log_writes(&mut live, &(64..128).rev().collect::<Vec<_>>(), 3);
        log_writes(&mut live, &[70], 4);
        assert_eq!(live.engine().counter_stats().reencryptions, 0);

        let mut back = SecureRegion::thaw(&image).unwrap();
        let mut log = Vec::new();
        frame_record_into(&mut log, |out| encode_generation(out, 1));
        for payload in &payloads {
            frame_record_into(&mut log, |out| out.extend_from_slice(payload));
        }
        let mut records = wal_records(&log);
        records.next();
        replay(&mut back, records).expect("an honest log replays");
        assert_eq!(back.verify_all(), live.verify_all());
        for block in 0..256u64 {
            let (mut got, mut want) = ([0; BLOCK_BYTES], [0; BLOCK_BYTES]);
            back.read_bytes(block * 64, &mut got).unwrap();
            live.read_bytes(block * 64, &mut want).unwrap();
            assert_eq!(got, want, "block {block}");
            let (got, want) = (back.engine(), live.engine());
            assert_eq!(got.counter_of(block * 64), want.counter_of(block * 64));
        }

        // One sync per entry, for reference.
        let mut per_entry = SecureRegion::thaw(&image).unwrap();
        for payload in &payloads {
            for (local, state) in decoded(payload).unwrap() {
                let mut one = per_entry.replay_sealed();
                one.install(local, &state).unwrap();
                assert_eq!(one.finish(), 1);
            }
        }
        assert!(tree_state(&mut back) == tree_state(&mut per_entry));
        let mut before = SecureRegion::thaw(&image).unwrap();
        for meta in 0..3 {
            assert_ne!(
                leaf(&mut back, meta),
                leaf(&mut before, meta),
                "leaf {meta}"
            );
        }
        assert_eq!(
            leaf(&mut back, 3),
            leaf(&mut before, 3),
            "group 3 untouched"
        );
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
        let err = decoded(payload).expect_err(why);
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{why}: {err}");
    }

    #[test]
    fn record_roundtrip_all_variants() {
        let (pre, post) = sealed_pair();
        for entries in [vec![], vec![(64, pre.clone())], vec![(0, pre), (128, post)]] {
            let bytes = encoded(&entries);
            assert_eq!(bytes.len(), 5 + entries.len() * WRITE_ENTRY_LEN);
            let back = decoded(&bytes).unwrap();
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
        let mut wal = ShardWal::create(&RealFs, &path, 7).unwrap();
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
        decoded(&good).expect("the unforged record decodes");
    }

    #[test]
    fn wal_starts_with_generation_header_and_rotation_replaces_whole_file() {
        let dir = temp_dir("log");
        let path = dir.join("wal.bin");
        let mut wal = ShardWal::create(&RealFs, &path, 3).unwrap();
        let (pre, post) = sealed_pair();
        for payload in [encoded(&[(0, pre)]), encoded(&[(64, post)])] {
            wal.append_unsynced(|out| out.extend_from_slice(&payload))
                .unwrap();
        }
        wal.sync().unwrap();
        let log = fs::read(&path).unwrap();
        let records: Vec<_> = wal_records(&log).map(Result::unwrap).collect();
        assert_eq!(records.len(), 3);
        assert_eq!(decode_generation(records[0]), Some(3));
        assert_eq!(decode_generation(records[1]), None);
        // A rotation creates a fresh log: old records gone, new header.
        let wal = ShardWal::create(&RealFs, &path, 4).unwrap();
        let log = fs::read(&path).unwrap();
        let records: Vec<_> = wal_records(&log).map(Result::unwrap).collect();
        assert_eq!(records.len(), 1);
        assert_eq!(decode_generation(records[0]), Some(4));
        assert_eq!(wal.size(), fs::read(&path).unwrap().len() as u64);
        assert!(!path.with_extension("tmp").exists(), "temp renamed away");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_write_is_atomic_rename_with_generation_prefix() {
        let dir = temp_dir("snap");
        write_snapshot(&RealFs, &dir, 1, b"image-1").unwrap();
        let on_disk = fs::read(dir.join("snapshot.bin")).unwrap();
        assert_eq!(&on_disk[..8], &1u64.to_le_bytes());
        assert_eq!(&on_disk[8..], b"image-1");
        write_snapshot(&RealFs, &dir, 2, b"image-2").unwrap();
        let on_disk = fs::read(dir.join("snapshot.bin")).unwrap();
        assert_eq!(&on_disk[..8], &2u64.to_le_bytes());
        assert_eq!(&on_disk[8..], b"image-2");
        assert!(!dir.join("snapshot.tmp").exists(), "temp file renamed away");
        let _ = fs::remove_dir_all(&dir);
    }
}
