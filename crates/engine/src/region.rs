//! The engine's durable format: the `AMEREGN` envelope (a frozen engine
//! together with the size of the region it protects), the `AMEENGIN`
//! section inside it ([`MemoryEncryptionEngine::freeze_into`]), and the
//! per-block sealed state a write-intent log records
//! ([`SealedBlockState`], exported by
//! [`MemoryEncryptionEngine::export_sealed`] and installed through
//! [`SealedReplay`]). Section framing, the version gate and the
//! key-sorted table codec are `ame_persist`'s.
//!
//! An engine serves any block-aligned address below
//! [`ame_crypto::ctr::ADDR_LIMIT`]; a store shard protects a fixed region
//! `[0, size)` of that space and keeps the bound itself.
//! [`freeze`] records the bound beside the engine's sealed image.
//! [`thaw`] is the one way back: the caller's configuration is the only
//! source of configuration, and the image supplies data only. The stored
//! size must be the configured size, every configuration field the image
//! holds must be the configured engine's, and a resident block at or
//! past the size is refused, so a forged image cannot hand the engine a
//! layout or a later sweep an address it asserts on.
//!
//! # Example
//!
//! ```
//! use ame_engine::{region, EngineConfig, MemoryEncryptionEngine};
//!
//! let config = EngineConfig::default();
//! let mut engine = MemoryEncryptionEngine::new(config);
//! engine.write_block(0x40, &[7; 64]);
//! let image = region::freeze(&engine, 4096);
//! let mut back = region::thaw(&image, &config, 4096).unwrap();
//! assert_eq!(back.verify_all().unwrap(), 1);
//! assert_eq!(back.read_block(0x40).unwrap(), [7; 64]);
//! // Under another configuration, or another size, the image is refused.
//! let split = EngineConfig { counter_scheme: ame_engine::CounterSchemeKind::Split, ..config };
//! assert!(region::thaw(&image, &split, 4096).is_err());
//! assert!(region::thaw(&image, &config, 8192).is_err());
//! ```

use crate::{
    CounterSchemeKind, EngineConfig, EngineStats, MacPlacement, MemoryEncryptionEngine, BLOCK_BYTES,
};
use ame_crypto::ctr::ADDR_LIMIT;
use ame_dram::storage::{DramStorage, StoredBlock};
use ame_persist::{
    invalid_data, put_sorted_table, put_u32, put_u64, read_index_table, read_section, ByteReader,
    IndexMap, SectionWriter,
};
use std::io;

/// Section magic of a frozen region image.
const MAGIC: &[u8; 8] = b"AMEREGN\0";
/// Section version of a frozen region image.
const VERSION: u32 = 1;

/// Captures `engine`'s complete sealed image (ciphertext, counters,
/// tree, MACs; never plaintext) with the region size `size` as one
/// checksummed byte vector. Every nested section is appended in place
/// into that one vector, reserved to the image's exact length, and each
/// byte is checksummed once.
///
/// The image embeds the key-derivation seed and is therefore **not
/// confidential** against a reader of the image itself; see
/// [`MemoryEncryptionEngine::freeze_into`] for the threat-model caveat.
#[must_use]
pub fn freeze(engine: &MemoryEncryptionEngine, size: u64) -> Vec<u8> {
    let len = ame_persist::SECTION_OVERHEAD + 8 + engine.frozen_len();
    let mut out = Vec::with_capacity(len);
    let mut payload = SectionWriter::begin(&mut out, MAGIC, VERSION);
    put_u64(&mut payload, size);
    payload.nested(|out| engine.freeze_into(out));
    payload.finish();
    debug_assert_eq!(out.len(), len);
    out
}

/// Rebuilds the engine `config` describes, over a `size`-byte region,
/// from an image produced by [`freeze`]. Keys are re-derived from the
/// image's seed (after a clean shutdown it is the reseal seed); every
/// other parameter is `config`'s, and the image must agree with it.
/// Callers run [`MemoryEncryptionEngine::verify_all`] before trusting
/// the result.
///
/// # Errors
///
/// `InvalidData` on any framing/checksum failure in the image, a stored
/// size other than `size`, a configuration field (engine header,
/// counter layout, tree layout) other than `config`'s, a byte after the
/// last field of the image or of any section in it, or a resident block
/// at or past the size.
pub fn thaw(image: &[u8], config: &EngineConfig, size: u64) -> io::Result<MemoryEncryptionEngine> {
    let mut r = ByteReader::new(image);
    let mut payload = read_section(&mut r, MAGIC, VERSION)?;
    let stored = payload.u64()?;
    if stored != size {
        return Err(invalid_data(format!(
            "image of a {stored}-byte region, configured {size} bytes"
        )));
    }
    let engine = MemoryEncryptionEngine::thaw_from(&mut payload, config)?;
    payload.end()?;
    r.end()?;
    if let Some(addr) = engine.storage.addrs().last().filter(|&a| a >= size) {
        return Err(invalid_data(format!(
            "resident block {addr:#x} outside the {size}-byte region"
        )));
    }
    Ok(engine)
}

/// Bytes of configuration in a v1 engine image header, after the seed
/// (what [`MemoryEncryptionEngine::put_config`] writes).
const CONFIG_BYTES: usize = 1 + 1 + 4 + 8 + 8 + 1;

impl MemoryEncryptionEngine {
    /// Section magic of the frozen engine image.
    const MAGIC: &'static [u8; 8] = b"AMEENGIN";
    /// Section version of the frozen engine image.
    const VERSION: u32 = 1;

    /// Exports a block's complete *sealed* state — ciphertext, side-band,
    /// counter, and (in separate-MAC mode) its MAC-region tag. This is
    /// what a write-intent log records: no plaintext, nothing an attacker
    /// reading the log learns beyond what DRAM already exposes.
    pub fn export_sealed(&mut self, addr: u64) -> SealedBlockState {
        self.ensure_initialized(addr);
        let block = Self::block_index(addr);
        SealedBlockState {
            stored: self.storage.read(addr),
            counter: self.counters.counter(block),
            mac: self.mac_region.get(&block).copied(),
        }
    }

    /// Starts a write-intent log replay into this engine ([`SealedReplay`]):
    /// the one way sealed state enters an engine. Any block-aligned
    /// address below `limit` (the caller's region size; never past
    /// [`ADDR_LIMIT`]) may be installed.
    pub fn replay_sealed(&mut self, limit: u64) -> SealedReplay<'_> {
        SealedReplay {
            engine: self,
            limit: limit.min(ADDR_LIMIT),
            dirty: IndexMap::default(),
        }
    }

    /// Serializes the engine's complete sealed state — configuration,
    /// statistics, storage, counters, integrity tree, and MAC region —
    /// into one checksummed section appended to `out`. Only ciphertext
    /// and authentication metadata are captured; no plaintext leaves the
    /// engine. The cipher itself is not serialized: keys are re-derived
    /// from the seed at thaw.
    ///
    /// The v1 format still writes the configuration (header fields, the
    /// counter scheme's layout, the tree's arity and depth), but thaw
    /// reads none of it as configuration: [`thaw`] rebuilds the
    /// engine its caller configures and refuses an image whose fields
    /// differ, so only the seed and the data come from the image.
    ///
    /// **The image is not confidential at rest.** The key-derivation
    /// seed (`config.seed`) is embedded in cleartext so thaw can
    /// re-derive the cipher, which means anyone who can read the frozen
    /// image can decrypt every block in it. Freezing preserves the
    /// *integrity* contract (tampered images fail the checksum, MAC, or
    /// tree re-verification) but secrecy of the image itself is the
    /// caller's problem — file permissions, disk encryption, or an
    /// external key store. This matches the simulator's threat model,
    /// where the seed stands in for an on-die key that real hardware
    /// would never export.
    pub fn freeze_into(&self, out: &mut Vec<u8>) {
        let start = out.len();
        let mut payload = SectionWriter::begin(out, Self::MAGIC, Self::VERSION);
        put_u64(&mut payload, self.config.seed);
        Self::put_config(&self.config, &mut payload);
        put_u64(&mut payload, self.stats.reads);
        put_u64(&mut payload, self.stats.writes);
        put_u64(&mut payload, self.stats.reencrypted_blocks);
        put_u64(&mut payload, self.stats.mac_corrections);
        put_u64(&mut payload, self.stats.data_corrections);
        put_u64(&mut payload, self.stats.flip_checks);
        put_u64(&mut payload, self.stats.failed_reads);
        payload.nested(|out| self.storage.encode(out));
        payload.nested(|out| self.counters.encode_state(out));
        payload.nested(|out| self.tree.tree().encode_state(out));
        put_sorted_table(
            &mut payload,
            self.mac_region.keys().copied(),
            |out, block| {
                put_u64(out, self.mac_region[&block]);
            },
        );
        payload.finish();
        debug_assert_eq!(out.len() - start, self.frozen_len());
    }

    /// Appends the v1 header's configuration fields, which follow the
    /// seed: MAC placement, counter scheme, flip budget, tree levels,
    /// counter-cache blocks and the prefetch flag.
    fn put_config(config: &EngineConfig, out: &mut Vec<u8>) {
        out.push(match config.mac_placement {
            MacPlacement::SeparateMac => 0,
            MacPlacement::MacInEcc => 1,
        });
        out.push(match config.counter_scheme {
            CounterSchemeKind::Monolithic => 0,
            CounterSchemeKind::Split => 1,
            CounterSchemeKind::Delta => 2,
            CounterSchemeKind::DualLength => 3,
        });
        put_u32(out, config.max_correctable_flips);
        put_u64(out, config.tree_levels as u64);
        put_u64(out, config.counter_cache_blocks as u64);
        out.push(u8::from(config.prefetch_counters));
    }

    /// Exact length in bytes of what [`Self::freeze_into`] appends, so
    /// the image's buffer is reserved once and never regrown.
    #[must_use]
    pub fn frozen_len(&self) -> usize {
        // seed, the configuration fields, seven statistics; the
        // MAC-region count.
        ame_persist::SECTION_OVERHEAD
            + (8 + CONFIG_BYTES + 7 * 8 + 8)
            + self.storage.encoded_len()
            + self.counters.encoded_state_len()
            + self.tree.tree().encoded_state_len()
            + self.mac_region.len() * 16
    }

    /// Rebuilds the engine `config` describes from a section produced by
    /// [`Self::freeze_into`], advancing the reader past it; the one
    /// caller is [`thaw`]. The seed is the image's; every other
    /// configuration field the image holds must equal `config`'s, byte
    /// for byte, and the counters and tree decode into the scheme and
    /// tree `config` builds, each refusing a layout other than its own.
    /// Nothing is sized from the image's configuration. The counter
    /// cache (if any) comes back cold. The thawed engine is *not* yet
    /// trusted — callers run [`Self::verify_all`] before serving.
    ///
    /// # Errors
    ///
    /// `InvalidData` on a framing/checksum failure anywhere in the image,
    /// configuration other than `config`'s, or internally inconsistent
    /// decoded state.
    fn thaw_from(r: &mut ByteReader<'_>, config: &EngineConfig) -> io::Result<Self> {
        let mut payload = read_section(r, Self::MAGIC, Self::VERSION)?;
        let config = EngineConfig {
            seed: payload.u64()?,
            ..*config
        };
        let mut configured = Vec::with_capacity(CONFIG_BYTES);
        Self::put_config(&config, &mut configured);
        let stored = payload.take(CONFIG_BYTES)?;
        if stored != configured {
            return Err(invalid_data(format!(
                "engine image configuration {stored:02x?} is not the configured \
                 {config:?} ({configured:02x?})"
            )));
        }
        let mut engine = Self::new(config);
        engine.stats = EngineStats {
            reads: payload.u64()?,
            writes: payload.u64()?,
            reencrypted_blocks: payload.u64()?,
            mac_corrections: payload.u64()?,
            data_corrections: payload.u64()?,
            flip_checks: payload.u64()?,
            failed_reads: payload.u64()?,
        };
        engine.storage = DramStorage::decode(&mut payload)?;
        engine.counters.decode_state(&mut payload)?;
        engine.tree.tree_mut().decode_state(&mut payload)?;
        engine.mac_region = read_index_table(&mut payload, 16, ByteReader::u64)?;
        Ok(engine)
    }
}

/// A write-intent log replay in progress, from
/// [`MemoryEncryptionEngine::replay_sealed`].
///
/// [`install`](Self::install) restores one logged post-image, in log
/// order: its counter *value* first (so the scheme checks that the value
/// is representable, exactly as for a live write), then its MAC-region
/// tag, then its stored bits. The integrity tree is re-synced when the
/// replay ends ([`finish`](Self::finish), or drop), once per distinct
/// metadata block the log touched: a leaf image is a pure function of
/// the final counter state, so one sync per block at the end leaves the
/// tree a sync per entry would have. Until then the replay holds only
/// the set of dirty metadata blocks.
///
/// A replayed block is not trusted by fiat: its MAC binds (address,
/// counter, ciphertext), so a forged entry fails the next verified read
/// ([`MemoryEncryptionEngine::verify_all`]).
#[derive(Debug)]
pub struct SealedReplay<'a> {
    engine: &'a mut MemoryEncryptionEngine,
    /// Exclusive upper bound of the addresses the replay accepts.
    limit: u64,
    /// Metadata blocks whose counters were installed since the last sync.
    dirty: IndexMap<()>,
}

impl SealedReplay<'_> {
    /// Installs the logged post-image of the block at `addr`.
    ///
    /// # Errors
    ///
    /// `InvalidData` for an unaligned address or one past the replay's
    /// limit, or a counter value the scheme cannot represent: either way
    /// the log is corrupt. Entries installed before stay installed.
    pub fn install(&mut self, addr: u64, state: &SealedBlockState) -> io::Result<()> {
        if !addr.is_multiple_of(BLOCK_BYTES as u64) || addr >= self.limit {
            return Err(invalid_data("replayed address outside the region"));
        }
        let engine = &mut *self.engine;
        let block = MemoryEncryptionEngine::block_index(addr);
        self.dirty.insert(engine.meta_of(block), ());
        engine.counters.force_counter(block, state.counter)?;
        if let Some(tag) = state.mac {
            engine.mac_region.insert(block, tag);
        }
        engine.storage.write(addr, state.stored);
        Ok(())
    }

    /// Ends the replay: re-syncs each dirty metadata block into the
    /// integrity tree once and returns how many there were.
    pub fn finish(mut self) -> usize {
        self.sync()
    }

    /// Syncs the dirty metadata blocks, in ascending order.
    fn sync(&mut self) -> usize {
        let mut dirty: Vec<u64> = self.dirty.drain().map(|(meta, ())| meta).collect();
        dirty.sort_unstable();
        for &meta in &dirty {
            self.engine.sync_meta(meta);
        }
        dirty.len()
    }
}

/// A replay that ends early (a corrupt entry) still leaves the engine's
/// tree consistent with its counters.
impl Drop for SealedReplay<'_> {
    fn drop(&mut self) {
        self.sync();
    }
}

/// A single block's sealed state as captured by
/// [`MemoryEncryptionEngine::export_sealed`]: ciphertext + side-band, the
/// counter it was sealed under, and the separate-MAC tag if the engine
/// stores MACs in a dedicated region. This is the unit a write-intent log
/// records — everything needed to restore the block, nothing plaintext.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SealedBlockState {
    stored: StoredBlock,
    counter: u64,
    mac: Option<u64>,
}

impl SealedBlockState {
    /// The counter this block was sealed under.
    #[must_use]
    pub fn counter(&self) -> u64 {
        self.counter
    }

    /// Serializes the state (fixed [`Self::ENCODED_LEN`]-byte layout, no
    /// framing — callers wrap records in their own checksummed framing).
    pub fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.counter);
        match self.mac {
            Some(tag) => {
                out.push(1);
                put_u64(out, tag);
            }
            None => {
                out.push(0);
                put_u64(out, 0);
            }
        }
        out.extend_from_slice(&self.stored.data);
        out.extend_from_slice(&self.stored.sideband);
    }

    /// Length in bytes of every [`Self::encode`] output.
    pub const ENCODED_LEN: usize = 8 + 1 + 8 + BLOCK_BYTES + 8;

    /// Decodes a state written by [`Self::encode`], advancing the reader.
    /// Only the canonical form is accepted: the MAC flag is 0 or 1, and
    /// an absent MAC's tag field is zero.
    ///
    /// # Errors
    ///
    /// `InvalidData` on truncation or a non-canonical MAC field.
    pub fn decode(r: &mut ByteReader<'_>) -> io::Result<Self> {
        let counter = r.u64()?;
        let has_mac = r.u8()?;
        let tag = r.u64()?;
        let mac = match (has_mac, tag) {
            (0, 0) => None,
            (1, tag) => Some(tag),
            (0, _) => return Err(invalid_data("tag present behind an absent-MAC flag")),
            (flag, _) => return Err(invalid_data(format!("MAC flag {flag} is not 0 or 1"))),
        };
        let data: [u8; BLOCK_BYTES] = r.array()?;
        let sideband: [u8; 8] = r.array()?;
        Ok(Self {
            stored: StoredBlock { data, sideband },
            counter,
            mac,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::{all_configs, engine as engine_with};

    fn config() -> EngineConfig {
        EngineConfig::default()
    }

    fn engine() -> MemoryEncryptionEngine {
        MemoryEncryptionEngine::new(config())
    }

    #[test]
    fn freeze_thaw_roundtrip() {
        let mut e = engine();
        e.write_block(64, &[0x5a; 64]);
        let image = freeze(&e, 4096);
        let mut back = thaw(&image, &config(), 4096).unwrap();
        assert!(
            freeze(&back, 4096) == image,
            "thaw + freeze is the identity"
        );
        assert_eq!(back.verify_all(), Ok(1));
        assert_eq!(back.read_block(64).unwrap(), [0x5a; 64]);
    }

    /// The seed is the one field the image supplies: a re-keyed engine
    /// thaws under its new keys whatever seed the configuration names.
    #[test]
    fn thaw_keeps_the_image_seed() {
        let mut e = engine();
        e.write_block(64, &[0x5a; 64]);
        e.rekey(0xfeed).unwrap();
        let mut back = thaw(&freeze(&e, 4096), &config(), 4096).unwrap();
        assert_eq!(back.config().seed, 0xfeed);
        assert_eq!(back.read_block(64).unwrap(), [0x5a; 64]);
    }

    #[test]
    fn thaw_rejects_corrupt_image() {
        let mut e = engine();
        e.write_block(0, &[7; 64]);
        let mut image = freeze(&e, 4096);
        let mid = image.len() / 2;
        image[mid] ^= 0x02;
        assert!(thaw(&image, &config(), 4096).is_err());
    }

    /// An in-range engine address past the recorded size, under valid
    /// checksums, is refused: the size bounds everything the image holds.
    #[test]
    fn thaw_refuses_a_resident_block_past_the_size() {
        let mut e = engine();
        e.write_block(4096 - 64, &[1; 64]);
        assert!(
            thaw(&freeze(&e, 4096), &config(), 4096).is_ok(),
            "the last block fits"
        );
        e.write_block(4096, &[2; 64]);
        let err = thaw(&freeze(&e, 4096), &config(), 4096).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert!(
            thaw(&freeze(&e, 8192), &config(), 8192).is_ok(),
            "a larger region holds it"
        );
    }

    /// The size a region image thaws with is the bound its write-intent
    /// replay takes: exported state installs inside it, never past it
    /// or unaligned.
    #[test]
    fn sealed_export_bounds_checked() {
        let mut e = engine();
        e.write_block(64, &[3; 64]);
        let mut back = thaw(&freeze(&e, 4096), &config(), 4096).unwrap();
        let sealed = e.export_sealed(64);
        let mut replay = back.replay_sealed(4096);
        assert!(
            replay.install(4096, &sealed).is_err(),
            "replay out of range"
        );
        assert!(replay.install(65, &sealed).is_err(), "replay unaligned");
        assert!(replay.install(64, &sealed).is_ok());
    }

    #[test]
    fn freeze_thaw_roundtrip_preserves_everything() {
        for mut e in all_configs() {
            for b in 0..20u64 {
                e.write_block(b * 64, &[b as u8 + 1; 64]);
            }
            for _ in 0..140 {
                e.write_block(0, &[0xCC; 64]); // through overflows
            }
            let mut img = Vec::new();
            e.freeze_into(&mut img);
            let mut back =
                MemoryEncryptionEngine::thaw_from(&mut ByteReader::new(&img), e.config())
                    .unwrap_or_else(|err| panic!("{:?}: {err}", e.config()));
            assert_eq!(back.config(), e.config());
            assert_eq!(back.counter_stats(), e.counter_stats());
            let verified = back.verify_all().unwrap();
            assert_eq!(verified, 20, "{:?}", e.config());
            assert_eq!(back.read_block(0).unwrap(), [0xCC; 64]);
            for b in 1..20u64 {
                assert_eq!(back.read_block(b * 64).unwrap(), [b as u8 + 1; 64]);
            }
        }
    }

    #[test]
    fn thaw_rejects_flipped_bit_anywhere() {
        // Enumerated, not sampled: every bit of a small region image.
        let mut e = MemoryEncryptionEngine::new(EngineConfig::default());
        for b in 0..4u64 {
            e.write_block(b * 64, &[b as u8; 64]);
        }
        let img = freeze(&e, 4096);
        assert!(img.len() <= 4096, "small enough to enumerate");
        assert!(thaw(&img, e.config(), 4096).is_ok());
        for bit in 0..img.len() * 8 {
            let mut bad = img.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            let err =
                thaw(&bad, e.config(), 4096).expect_err("a flipped image bit must be detected");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "bit {bit}");
        }
    }

    #[test]
    fn thaw_refuses_forged_mac_region_tables() {
        // The MAC-region table ends the image. Forge it behind a
        // recomputed CRC: a huge count over no entries, a repeated block,
        // two blocks out of order.
        let mut e = engine_with(MacPlacement::SeparateMac, CounterSchemeKind::Delta);
        e.write_block(0, &[1; 64]);
        e.write_block(64, &[2; 64]);
        let mut img = Vec::new();
        e.freeze_into(&mut img);
        let payload = &img[ame_persist::SECTION_OVERHEAD - 8..img.len() - 8];
        let (kept, table) = payload.split_at(payload.len() - 8 - 2 * 16);
        let (first, second) = (&table[8..24], &table[24..40]);
        let reseal = |parts: &[&[u8]]| {
            let mut out = Vec::new();
            let mut section = SectionWriter::begin(
                &mut out,
                MemoryEncryptionEngine::MAGIC,
                MemoryEncryptionEngine::VERSION,
            );
            section.extend_from_slice(kept);
            for part in parts {
                section.extend_from_slice(part);
            }
            section.finish();
            out
        };
        assert_eq!(reseal(&[table]), img, "the table ends the image");
        let (huge, two) = ((1u64 << 40).to_le_bytes(), 2u64.to_le_bytes());
        for forged in [
            reseal(&[&huge]),
            reseal(&[&two, first, first]),
            reseal(&[&two, second, first]),
        ] {
            let err = MemoryEncryptionEngine::thaw_from(&mut ByteReader::new(&forged), e.config())
                .expect_err("a forged MAC-region table must be refused");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        }
    }

    #[test]
    fn export_apply_sealed_replays_a_write() {
        for placement in [MacPlacement::MacInEcc, MacPlacement::SeparateMac] {
            // "Crash" an engine after a write by freezing *before* it,
            // then replay the exported sealed state onto the thawed image.
            let mut e = engine_with(placement, CounterSchemeKind::Delta);
            e.write_block(0, &[1; 64]);
            e.write_block(64, &[2; 64]);
            let mut img = Vec::new();
            e.freeze_into(&mut img);
            e.write_block(64, &[9; 64]); // the logged post-image
            let sealed = e.export_sealed(64);
            let mut enc = Vec::new();
            sealed.encode(&mut enc);
            let decoded = SealedBlockState::decode(&mut ByteReader::new(&enc)).unwrap();
            assert_eq!(decoded, sealed, "sealed state round-trips");

            let mut back =
                MemoryEncryptionEngine::thaw_from(&mut ByteReader::new(&img), e.config()).unwrap();
            let mut replay = back.replay_sealed(ADDR_LIMIT);
            replay.install(64, &decoded).unwrap();
            assert_eq!(replay.finish(), 1, "one metadata block re-synced");
            back.verify_all().unwrap();
            assert_eq!(back.read_block(64).unwrap(), [9; 64], "{placement:?}");
            assert_eq!(back.read_block(0).unwrap(), [1; 64]);
            assert_eq!(back.counter_of(64), e.counter_of(64));
        }
    }

    #[test]
    fn apply_sealed_forged_record_fails_verification() {
        // A log record with a flipped ciphertext bit installs fine (the
        // engine can't know yet) but the MAC catches it on verify.
        let mut e = MemoryEncryptionEngine::new(EngineConfig {
            max_correctable_flips: 0,
            ..EngineConfig::default()
        });
        e.write_block(0, &[7; 64]);
        let sealed = e.export_sealed(0);
        let mut enc = Vec::new();
        sealed.encode(&mut enc);
        enc[30] ^= 0x80; // inside the ciphertext
        let forged = SealedBlockState::decode(&mut ByteReader::new(&enc)).unwrap();
        let mut fresh = MemoryEncryptionEngine::new(EngineConfig {
            max_correctable_flips: 0,
            ..EngineConfig::default()
        });
        fresh.replay_sealed(4096).install(0, &forged).unwrap();
        assert!(fresh.verify_all().is_err(), "forged bits must not verify");
    }
}
