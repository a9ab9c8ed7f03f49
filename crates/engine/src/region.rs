//! Byte-granular access on top of the block engine.
//!
//! The engine's native unit is the 64-byte block (one cache line / one
//! MAC / one counter). Real software reads and writes arbitrary byte
//! ranges, which means sub-block writes are **read-modify-write**
//! operations: the enclosing block must be fetched and verified before
//! the modified block is re-encrypted under a fresh counter — a partial
//! write can never bypass verification, or an attacker could use it to
//! launder a tampered block back to validity.
//!
//! [`SecureRegion`] provides that layer, plus the bounds discipline of a
//! fixed-size protected region.

use crate::{
    MemoryEncryptionEngine, ReadError, ReadRun, SealedBlockState, SealedReplay, BLOCK_BYTES,
};
use ame_crypto::ctr::ADDR_LIMIT;
use ame_persist::{invalid_data, put_u64, read_section, ByteReader, SectionWriter};
use std::io;

/// Errors from byte-granular region access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegionError {
    /// The range `[addr, addr + len)` does not fit the region.
    OutOfBounds {
        /// Requested start offset.
        addr: u64,
        /// Requested length.
        len: usize,
    },
    /// A block on the path failed verification.
    Read(ReadError),
}

impl std::fmt::Display for RegionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegionError::OutOfBounds { addr, len } => {
                write!(f, "range [{addr:#x}, +{len}) outside the protected region")
            }
            RegionError::Read(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for RegionError {}

impl From<ReadError> for RegionError {
    fn from(e: ReadError) -> Self {
        RegionError::Read(e)
    }
}

/// A fixed-size protected region with byte-granular reads and writes.
///
/// # Example
///
/// ```
/// use ame_engine::region::SecureRegion;
/// use ame_engine::EngineConfig;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut region = SecureRegion::new(EngineConfig::default(), 1 << 20);
/// region.write_bytes(100, b"hello across a block boundary?")?;
/// let mut buf = [0u8; 5];
/// region.read_bytes(100, &mut buf)?;
/// assert_eq!(&buf, b"hello");
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct SecureRegion {
    engine: MemoryEncryptionEngine,
    size: u64,
}

impl SecureRegion {
    /// Creates a zeroed protected region of `size` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero, not a multiple of the 64-byte block, or
    /// past [`ADDR_LIMIT`].
    #[must_use]
    pub fn new(config: crate::EngineConfig, size: u64) -> Self {
        assert!(
            size > 0 && size.is_multiple_of(BLOCK_BYTES as u64),
            "size must be whole blocks"
        );
        assert!(size <= ADDR_LIMIT, "size is past the 48-bit address limit");
        Self {
            engine: MemoryEncryptionEngine::new(config),
            size,
        }
    }

    /// Region capacity in bytes.
    #[must_use]
    pub fn size(&self) -> u64 {
        self.size
    }

    /// The engine underneath (statistics, tamper surface for tests).
    pub fn engine_mut(&mut self) -> &mut MemoryEncryptionEngine {
        &mut self.engine
    }

    /// Read-only view of the engine underneath (telemetry collection).
    #[must_use]
    pub fn engine(&self) -> &MemoryEncryptionEngine {
        &self.engine
    }

    fn check(&self, addr: u64, len: usize) -> Result<(), RegionError> {
        if addr
            .checked_add(len as u64)
            .is_none_or(|end| end > self.size)
        {
            return Err(RegionError::OutOfBounds { addr, len });
        }
        Ok(())
    }

    /// The check of every whole-block entry point: `addr` names one
    /// block-aligned block inside the region.
    fn check_block(&self, addr: u64) -> Result<(), RegionError> {
        self.check(addr, BLOCK_BYTES)?;
        if !addr.is_multiple_of(BLOCK_BYTES as u64) {
            return Err(RegionError::OutOfBounds {
                addr,
                len: BLOCK_BYTES,
            });
        }
        Ok(())
    }

    /// Reads `buf.len()` bytes starting at byte offset `addr`. Every
    /// touched block is verified.
    ///
    /// # Errors
    ///
    /// [`RegionError::OutOfBounds`] for a bad range;
    /// [`RegionError::Read`] if any block fails verification.
    pub fn read_bytes(&mut self, addr: u64, buf: &mut [u8]) -> Result<(), RegionError> {
        self.check(addr, buf.len())?;
        let mut filled = 0usize;
        while filled < buf.len() {
            let pos = addr + filled as u64;
            let block_base = pos & !(BLOCK_BYTES as u64 - 1);
            let offset = (pos - block_base) as usize;
            let take = (BLOCK_BYTES - offset).min(buf.len() - filled);
            let block = self.engine.read_block(block_base)?;
            buf[filled..filled + take].copy_from_slice(&block[offset..offset + take]);
            filled += take;
        }
        Ok(())
    }

    /// Writes a batch of block-aligned full-block stores through the
    /// engine's batched seal path (one pipelined keystream batch per
    /// overflow-free run). Equivalent to writing each block in order;
    /// the whole batch is bounds-checked before anything is written.
    ///
    /// # Errors
    ///
    /// [`RegionError::OutOfBounds`] if any address is unaligned or out
    /// of range — in that case no block of the batch is written.
    pub fn write_blocks(&mut self, items: &[(u64, [u8; BLOCK_BYTES])]) -> Result<(), RegionError> {
        for &(addr, _) in items {
            self.check_block(addr)?;
        }
        self.engine.write_blocks(items);
        Ok(())
    }

    /// Reads and verifies a run of block-aligned full-block loads through
    /// the engine's batched read path (one verified counter fetch per
    /// distinct metadata block, one pipelined keystream batch), with
    /// per-block sequential fallback on any anomaly. The whole run is
    /// bounds-checked before anything is read.
    ///
    /// # Errors
    ///
    /// [`RegionError::OutOfBounds`] if any address is unaligned or out of
    /// range — in that case no block of the run is read. Verification
    /// failures are reported *inside* the returned [`ReadRun`] so callers
    /// keep the successfully released prefix.
    pub fn read_blocks(&mut self, addrs: &[u64]) -> Result<ReadRun, RegionError> {
        for &addr in addrs {
            self.check_block(addr)?;
        }
        Ok(self.engine.read_blocks(addrs))
    }

    /// Writes `data` starting at byte offset `addr`. Partially covered
    /// blocks are read-modify-written: the old contents are verified
    /// before the merged block is sealed under a fresh counter.
    ///
    /// # Errors
    ///
    /// [`RegionError::OutOfBounds`] for a bad range;
    /// [`RegionError::Read`] if a partially covered block fails
    /// verification (nothing is written in that case for that block
    /// onward).
    pub fn write_bytes(&mut self, addr: u64, data: &[u8]) -> Result<(), RegionError> {
        self.check(addr, data.len())?;
        let mut written = 0usize;
        while written < data.len() {
            let pos = addr + written as u64;
            let block_base = pos & !(BLOCK_BYTES as u64 - 1);
            let offset = (pos - block_base) as usize;
            let take = (BLOCK_BYTES - offset).min(data.len() - written);
            let mut block = if take == BLOCK_BYTES {
                // Full-block store: no RMW needed.
                [0u8; BLOCK_BYTES]
            } else {
                self.engine.read_block(block_base)?
            };
            block[offset..offset + take].copy_from_slice(&data[written..written + take]);
            self.engine.write_block(block_base, &block);
            written += take;
        }
        Ok(())
    }

    // ---- durable storage plane ----

    /// Section magic of a frozen region image.
    const MAGIC: &'static [u8; 8] = b"AMEREGN\0";
    /// Section version of a frozen region image.
    const VERSION: u32 = 1;

    /// Captures a consistent snapshot of the whole region — size plus the
    /// engine's complete sealed image (ciphertext, counters, tree, MACs;
    /// never plaintext) — as one checksummed byte vector. Every nested
    /// section is appended in place into that one vector, reserved to
    /// the image's exact length, and each byte is checksummed once.
    ///
    /// The image embeds the key-derivation seed and is therefore **not
    /// confidential** against a reader of the image itself; see
    /// [`MemoryEncryptionEngine::freeze_into`] for the threat-model
    /// caveat.
    #[must_use]
    pub fn freeze(&self) -> Vec<u8> {
        let len = ame_persist::SECTION_OVERHEAD + 8 + self.engine.frozen_len();
        let mut out = Vec::with_capacity(len);
        let mut payload = SectionWriter::begin(&mut out, Self::MAGIC, Self::VERSION);
        put_u64(&mut payload, self.size);
        payload.nested(|out| self.engine.freeze_into(out));
        payload.finish();
        debug_assert_eq!(out.len(), len);
        out
    }

    /// Rebuilds a region from an image produced by [`Self::freeze`]. Keys
    /// are re-derived from the stored seed; callers run
    /// [`Self::verify_all`] before trusting the result.
    ///
    /// # Errors
    ///
    /// `InvalidData` on any framing/checksum failure in the image, or a
    /// size past [`ADDR_LIMIT`].
    pub fn thaw(image: &[u8]) -> io::Result<Self> {
        let mut r = ByteReader::new(image);
        let (version, mut payload) = read_section(&mut r, Self::MAGIC)?;
        if version != Self::VERSION {
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
        Ok(Self { engine, size })
    }

    /// Exports one block's sealed state (write-intent logging).
    ///
    /// # Errors
    ///
    /// [`RegionError::OutOfBounds`] for a bad or unaligned address.
    pub fn export_sealed(&mut self, addr: u64) -> Result<SealedBlockState, RegionError> {
        self.check_block(addr)?;
        Ok(self.engine.export_sealed(addr))
    }

    /// Starts a write-intent log replay ([`SealedReplay`]) that refuses
    /// any address outside the region as corrupt.
    pub fn replay_sealed(&mut self) -> SealedReplay<'_> {
        SealedReplay::new(&mut self.engine, self.size)
    }

    /// Verifies every resident block (tree + MAC), returning the count.
    ///
    /// # Errors
    ///
    /// The first [`ReadError`] encountered — the region must then be
    /// quarantined, not served.
    pub fn verify_all(&mut self) -> Result<u64, ReadError> {
        self.engine.verify_all()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EngineConfig;

    fn region() -> SecureRegion {
        SecureRegion::new(EngineConfig::default(), 4096)
    }

    #[test]
    fn unaligned_roundtrip_across_blocks() {
        let mut r = region();
        let msg = b"the quick brown fox jumps over sixty-four byte boundaries easily";
        r.write_bytes(40, msg).unwrap(); // spans blocks 0 and 1
        let mut buf = vec![0u8; msg.len()];
        r.read_bytes(40, &mut buf).unwrap();
        assert_eq!(&buf, msg);
        // Untouched bytes around the write are still zero.
        let mut pre = [0u8; 40];
        r.read_bytes(0, &mut pre).unwrap();
        assert_eq!(pre, [0u8; 40]);
    }

    #[test]
    fn partial_write_preserves_neighbours() {
        let mut r = region();
        r.write_bytes(0, &[0xAA; 128]).unwrap();
        r.write_bytes(60, &[0xBB; 8]).unwrap(); // straddles the block edge
        let mut buf = [0u8; 128];
        r.read_bytes(0, &mut buf).unwrap();
        assert_eq!(&buf[..60], &[0xAA; 60][..]);
        assert_eq!(&buf[60..68], &[0xBB; 8][..]);
        assert_eq!(&buf[68..], &[0xAA; 60][..]);
    }

    #[test]
    fn full_block_write_skips_rmw_read() {
        let mut r = region();
        let reads_before = r.engine_mut().stats().reads;
        r.write_bytes(64, &[1; 64]).unwrap();
        assert_eq!(
            r.engine_mut().stats().reads,
            reads_before,
            "aligned store needs no read"
        );
        let reads_before = r.engine_mut().stats().reads;
        r.write_bytes(64, &[2; 32]).unwrap();
        assert!(
            r.engine_mut().stats().reads > reads_before,
            "partial store is RMW"
        );
    }

    #[test]
    fn bounds_are_enforced() {
        let mut r = region();
        assert!(matches!(
            r.write_bytes(4090, &[0; 10]),
            Err(RegionError::OutOfBounds { .. })
        ));
        let mut buf = [0u8; 8];
        assert!(matches!(
            r.read_bytes(u64::MAX - 3, &mut buf),
            Err(RegionError::OutOfBounds { .. })
        ));
        // Exactly-at-the-end is fine.
        assert!(r.write_bytes(4088, &[1; 8]).is_ok());
    }

    #[test]
    fn partial_write_cannot_launder_tampered_block() {
        // An attacker corrupts a block beyond repair; a later sub-block
        // write to it must fail instead of re-sealing attacker bits.
        let mut r = SecureRegion::new(
            EngineConfig {
                max_correctable_flips: 0,
                ..EngineConfig::default()
            },
            4096,
        );
        r.write_bytes(0, &[7; 64]).unwrap();
        r.engine_mut().tamper_data_bit(0, 13);
        assert!(matches!(
            r.write_bytes(10, &[9; 4]),
            Err(RegionError::Read(_))
        ));
        // A full-block overwrite is allowed (it replaces everything).
        assert!(r.write_bytes(0, &[9; 64]).is_ok());
        let mut buf = [0u8; 64];
        r.read_bytes(0, &mut buf).unwrap();
        assert_eq!(buf, [9; 64]);
    }

    #[test]
    fn empty_operations_are_noops() {
        let mut r = region();
        r.write_bytes(100, &[]).unwrap();
        let mut empty: [u8; 0] = [];
        r.read_bytes(100, &mut empty).unwrap();
    }

    #[test]
    fn freeze_thaw_roundtrip() {
        let mut r = region();
        r.write_bytes(40, b"durable across the freeze boundary")
            .unwrap();
        let image = r.freeze();
        let mut back = SecureRegion::thaw(&image).unwrap();
        assert_eq!(back.size(), r.size());
        assert!(back.verify_all().is_ok());
        let mut buf = [0u8; 34];
        back.read_bytes(40, &mut buf).unwrap();
        assert_eq!(&buf[..], b"durable across the freeze boundary");
    }

    #[test]
    fn thaw_rejects_corrupt_image() {
        let mut r = region();
        r.write_bytes(0, &[7; 64]).unwrap();
        let mut image = r.freeze();
        let mid = image.len() / 2;
        image[mid] ^= 0x02;
        assert!(SecureRegion::thaw(&image).is_err());
    }

    #[test]
    fn sealed_export_bounds_checked() {
        let mut r = region();
        assert!(r.export_sealed(4096).is_err(), "past the end");
        assert!(r.export_sealed(33).is_err(), "unaligned");
        let sealed = r.export_sealed(64).unwrap();
        let mut replay = r.replay_sealed();
        assert!(
            replay.install(4096, &sealed).is_err(),
            "replay out of range"
        );
        assert!(replay.install(65, &sealed).is_err(), "replay unaligned");
        assert!(replay.install(64, &sealed).is_ok());
    }
}
