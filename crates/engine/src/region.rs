//! The `AMEREGN` envelope: a frozen engine together with the size of
//! the region it protects.
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

use crate::{EngineConfig, MemoryEncryptionEngine};
use ame_persist::{invalid_data, put_u64, read_section, ByteReader, SectionWriter};
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
/// counter layout, tree layout) other than `config`'s, or a resident
/// block at or past the size.
pub fn thaw(image: &[u8], config: &EngineConfig, size: u64) -> io::Result<MemoryEncryptionEngine> {
    let mut r = ByteReader::new(image);
    let (version, mut payload) = read_section(&mut r, MAGIC)?;
    if version != VERSION {
        return Err(invalid_data(format!(
            "unsupported region image version {version}"
        )));
    }
    let stored = payload.u64()?;
    if stored != size {
        return Err(invalid_data(format!(
            "image of a {stored}-byte region, configured {size} bytes"
        )));
    }
    let engine = MemoryEncryptionEngine::thaw_from(&mut payload, config)?;
    if let Some(addr) = engine.storage.addrs().last().filter(|&a| a >= size) {
        return Err(invalid_data(format!(
            "resident block {addr:#x} outside the {size}-byte region"
        )));
    }
    Ok(engine)
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
