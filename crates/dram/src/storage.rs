//! Functional storage array: 64-byte data blocks plus the 8-byte ECC
//! side-band each block carries on an ECC DIMM.
//!
//! The timing model ([`crate::timing`]) answers *when* a request completes;
//! this module answers *what bits* come back, including the side-band the
//! paper repurposes for MACs.

use ame_persist::{invalid_data, put_u64, read_section, write_section, ByteReader};
use std::collections::HashMap;
use std::io;

/// Size of one data block in bytes.
pub const BLOCK_BYTES: usize = 64;

/// Size of the per-block ECC side-band in bytes.
pub const SIDEBAND_BYTES: usize = 8;

/// One stored block: data + side-band, as an ECC DIMM holds them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoredBlock {
    /// The 64 data bytes (ciphertext, in an encrypted system).
    pub data: [u8; BLOCK_BYTES],
    /// The 8 side-band bytes (Hamming check bytes, or MAC + parity).
    pub sideband: [u8; SIDEBAND_BYTES],
}

impl Default for StoredBlock {
    fn default() -> Self {
        Self {
            data: [0; BLOCK_BYTES],
            sideband: [0; SIDEBAND_BYTES],
        }
    }
}

/// A sparse functional memory keyed by block-aligned physical address.
///
/// # Example
///
/// ```
/// use ame_dram::storage::{DramStorage, StoredBlock};
///
/// let mut mem = DramStorage::new();
/// mem.write(0x1000, StoredBlock { data: [9; 64], sideband: [1; 8] });
/// assert_eq!(mem.read(0x1000).data, [9; 64]);
/// assert_eq!(mem.read(0x2000), StoredBlock::default(), "untouched = zeros");
/// ```
#[derive(Debug, Clone, Default)]
pub struct DramStorage {
    blocks: HashMap<u64, StoredBlock>,
}

impl DramStorage {
    /// Creates an empty (all-zero) memory.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of blocks ever written (for footprint accounting).
    #[must_use]
    pub fn resident_blocks(&self) -> usize {
        self.blocks.len()
    }

    fn align(addr: u64) -> u64 {
        addr & !(BLOCK_BYTES as u64 - 1)
    }

    /// Iterates over the block-aligned addresses of all resident blocks
    /// (in arbitrary order).
    pub fn addrs(&self) -> impl Iterator<Item = u64> + '_ {
        self.blocks.keys().copied()
    }

    /// Returns `true` if the block containing `addr` was ever written.
    #[must_use]
    pub fn contains(&self, addr: u64) -> bool {
        self.blocks.contains_key(&Self::align(addr))
    }

    /// The block containing `addr`, or `None` if it was never written.
    #[must_use]
    pub fn get(&self, addr: u64) -> Option<StoredBlock> {
        self.blocks.get(&Self::align(addr)).copied()
    }

    /// Reads the block containing `addr` (zeros if never written).
    #[must_use]
    pub fn read(&self, addr: u64) -> StoredBlock {
        self.get(addr).unwrap_or_default()
    }

    /// Writes the block containing `addr`.
    pub fn write(&mut self, addr: u64, block: StoredBlock) {
        self.blocks.insert(Self::align(addr), block);
    }

    /// Serializes every resident block into a checksummed section
    /// (sorted by address, so the encoding is deterministic).
    pub fn encode(&self, out: &mut Vec<u8>) {
        let mut addrs: Vec<u64> = self.blocks.keys().copied().collect();
        addrs.sort_unstable();
        let mut payload = Vec::with_capacity(8 + addrs.len() * (8 + BLOCK_BYTES + SIDEBAND_BYTES));
        put_u64(&mut payload, addrs.len() as u64);
        for addr in addrs {
            let block = &self.blocks[&addr];
            put_u64(&mut payload, addr);
            payload.extend_from_slice(&block.data);
            payload.extend_from_slice(&block.sideband);
        }
        write_section(out, Self::MAGIC, Self::VERSION, &payload);
    }

    /// Decodes a section produced by [`DramStorage::encode`], advancing
    /// the reader past it.
    ///
    /// # Errors
    ///
    /// `InvalidData` on a bad magic, unsupported version, checksum
    /// mismatch, truncation, or an unaligned stored address.
    pub fn decode(r: &mut ByteReader<'_>) -> io::Result<Self> {
        let (version, mut payload) = read_section(r, Self::MAGIC)?;
        if version != Self::VERSION {
            return Err(invalid_data(format!(
                "unsupported dram storage version {version}"
            )));
        }
        let count = payload.u64()? as usize;
        let mut blocks = HashMap::with_capacity(count.min(1 << 24));
        for _ in 0..count {
            let addr = payload.u64()?;
            if addr != Self::align(addr) {
                return Err(invalid_data("unaligned stored block address"));
            }
            let data: [u8; BLOCK_BYTES] = payload.array()?;
            let sideband: [u8; SIDEBAND_BYTES] = payload.array()?;
            blocks.insert(addr, StoredBlock { data, sideband });
        }
        Ok(Self { blocks })
    }

    /// Section magic of the serialized form.
    const MAGIC: &'static [u8; 8] = b"AMEDRAM\0";
    /// Section version of the serialized form.
    const VERSION: u32 = 1;

    /// Flips one bit of the stored *data* at `addr` (fault injection).
    /// `bit` is a global bit index in `0..512`.
    ///
    /// # Panics
    ///
    /// Panics if `bit >= 512`.
    pub fn flip_data_bit(&mut self, addr: u64, bit: u32) {
        assert!(bit < 512, "data bit out of range");
        let entry = self.blocks.entry(Self::align(addr)).or_default();
        entry.data[(bit / 8) as usize] ^= 1 << (bit % 8);
    }

    /// Flips one bit of the stored *side-band* at `addr` (fault injection).
    /// `bit` is an index in `0..64`.
    ///
    /// # Panics
    ///
    /// Panics if `bit >= 64`.
    pub fn flip_sideband_bit(&mut self, addr: u64, bit: u32) {
        assert!(bit < 64, "side-band bit out of range");
        let entry = self.blocks.entry(Self::align(addr)).or_default();
        entry.sideband[(bit / 8) as usize] ^= 1 << (bit % 8);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aligned_access() {
        let mut m = DramStorage::new();
        m.write(
            0x1008,
            StoredBlock {
                data: [3; 64],
                sideband: [0; 8],
            },
        );
        // Any address within the block reads the same storage.
        assert_eq!(m.read(0x1000).data, [3; 64]);
        assert_eq!(m.read(0x103f).data, [3; 64]);
        assert_eq!(m.resident_blocks(), 1);
    }

    #[test]
    fn default_is_zero() {
        let m = DramStorage::new();
        assert_eq!(m.read(0x0dea_d000), StoredBlock::default());
    }

    #[test]
    fn data_bit_flip() {
        let mut m = DramStorage::new();
        m.write(
            0,
            StoredBlock {
                data: [0; 64],
                sideband: [0; 8],
            },
        );
        m.flip_data_bit(0, 9); // byte 1, bit 1
        assert_eq!(m.read(0).data[1], 0b10);
        m.flip_data_bit(0, 9);
        assert_eq!(m.read(0).data[1], 0);
    }

    #[test]
    fn sideband_bit_flip() {
        let mut m = DramStorage::new();
        m.flip_sideband_bit(64, 63);
        assert_eq!(m.read(64).sideband[7], 0x80);
        assert_eq!(m.read(64).data, [0; 64], "data untouched");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn flip_out_of_range_panics() {
        DramStorage::new().flip_data_bit(0, 512);
    }

    #[test]
    fn encode_decode_roundtrip_is_bit_identical() {
        let mut m = DramStorage::new();
        for i in 0..20u64 {
            m.write(
                i * 64,
                StoredBlock {
                    data: [i as u8; 64],
                    sideband: [(i * 3) as u8; 8],
                },
            );
        }
        let mut a = Vec::new();
        m.encode(&mut a);
        let back = DramStorage::decode(&mut ByteReader::new(&a)).unwrap();
        assert_eq!(back.resident_blocks(), 20);
        for i in 0..20u64 {
            assert_eq!(back.read(i * 64), m.read(i * 64));
        }
        let mut b = Vec::new();
        back.encode(&mut b);
        assert_eq!(a, b, "re-encoding is deterministic and bit-identical");
    }

    #[test]
    fn decode_rejects_flipped_bit() {
        let mut m = DramStorage::new();
        m.write(64, StoredBlock::default());
        let mut buf = Vec::new();
        m.encode(&mut buf);
        let mid = buf.len() / 2;
        buf[mid] ^= 0x40;
        let err = DramStorage::decode(&mut ByteReader::new(&buf)).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }
}
