//! The `AMEREGN` envelope: a frozen engine together with the size of
//! the region it protects.
//!
//! An engine serves any block-aligned address below [`ADDR_LIMIT`]; a
//! store shard protects a fixed region `[0, size)` of that space and
//! keeps the bound itself.
//! [`freeze`] records the bound beside the engine's sealed image, and
//! [`thaw`] checks it against everything the image holds before anyone
//! serves from it: a resident block at or past the size is refused, so a
//! forged image cannot hand a later sweep an address the engine asserts
//! on.
//!
//! # Example
//!
//! ```
//! use ame_engine::{region, EngineConfig, MemoryEncryptionEngine};
//!
//! let mut engine = MemoryEncryptionEngine::new(EngineConfig::default());
//! engine.write_block(0x40, &[7; 64]);
//! let image = region::freeze(&engine, 4096);
//! let (mut back, size) = region::thaw(&image).unwrap();
//! assert_eq!(size, 4096);
//! assert_eq!(back.verify_all().unwrap(), 1);
//! assert_eq!(back.read_block(0x40).unwrap(), [7; 64]);
//! ```

use crate::{MemoryEncryptionEngine, BLOCK_BYTES};
use ame_crypto::ctr::ADDR_LIMIT;
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

/// Rebuilds an engine and its region size from an image produced by
/// [`freeze`]. Keys are re-derived from the stored seed; callers run
/// [`MemoryEncryptionEngine::verify_all`] before trusting the result.
///
/// # Errors
///
/// `InvalidData` on any framing/checksum failure in the image, a size
/// that is not whole blocks or is past [`ADDR_LIMIT`], or a resident
/// block at or past the size.
pub fn thaw(image: &[u8]) -> io::Result<(MemoryEncryptionEngine, u64)> {
    let mut r = ByteReader::new(image);
    let (version, mut payload) = read_section(&mut r, MAGIC)?;
    if version != VERSION {
        return Err(invalid_data(format!(
            "unsupported region image version {version}"
        )));
    }
    let size = payload.u64()?;
    if size == 0 || !size.is_multiple_of(BLOCK_BYTES as u64) {
        return Err(invalid_data("region size must be whole blocks"));
    }
    if size > ADDR_LIMIT {
        return Err(invalid_data("region size past the 48-bit address limit"));
    }
    let engine = MemoryEncryptionEngine::thaw_from(&mut payload)?;
    if let Some(addr) = engine.storage.addrs().last().filter(|&a| a >= size) {
        return Err(invalid_data(format!(
            "resident block {addr:#x} outside the {size}-byte region"
        )));
    }
    Ok((engine, size))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EngineConfig;

    fn engine() -> MemoryEncryptionEngine {
        MemoryEncryptionEngine::new(EngineConfig::default())
    }

    #[test]
    fn freeze_thaw_roundtrip() {
        let mut e = engine();
        e.write_block(64, &[0x5a; 64]);
        let image = freeze(&e, 4096);
        let (mut back, size) = thaw(&image).unwrap();
        assert_eq!(size, 4096);
        assert!(
            freeze(&back, size) == image,
            "thaw + freeze is the identity"
        );
        assert_eq!(back.verify_all(), Ok(1));
        assert_eq!(back.read_block(64).unwrap(), [0x5a; 64]);
    }

    #[test]
    fn thaw_rejects_corrupt_image() {
        let mut e = engine();
        e.write_block(0, &[7; 64]);
        let mut image = freeze(&e, 4096);
        let mid = image.len() / 2;
        image[mid] ^= 0x02;
        assert!(thaw(&image).is_err());
    }

    /// An in-range engine address past the recorded size, under valid
    /// checksums, is refused: the size bounds everything the image holds.
    #[test]
    fn thaw_refuses_a_resident_block_past_the_size() {
        let mut e = engine();
        e.write_block(4096 - 64, &[1; 64]);
        assert!(thaw(&freeze(&e, 4096)).is_ok(), "the last block fits");
        e.write_block(4096, &[2; 64]);
        let err = thaw(&freeze(&e, 4096)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert!(thaw(&freeze(&e, 8192)).is_ok(), "a larger region holds it");
    }

    /// The size a region image thaws with is the bound its write-intent
    /// replay takes: exported state installs inside it, never past it
    /// or unaligned.
    #[test]
    fn sealed_export_bounds_checked() {
        let mut e = engine();
        e.write_block(64, &[3; 64]);
        let (mut back, size) = thaw(&freeze(&e, 4096)).unwrap();
        let sealed = e.export_sealed(64);
        let mut replay = back.replay_sealed(size);
        assert!(
            replay.install(size, &sealed).is_err(),
            "replay out of range"
        );
        assert!(replay.install(65, &sealed).is_err(), "replay unaligned");
        assert!(replay.install(64, &sealed).is_ok());
    }
}
