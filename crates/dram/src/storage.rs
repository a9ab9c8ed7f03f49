//! Functional storage array: 64-byte data blocks plus the 8-byte ECC
//! side-band each block carries on an ECC DIMM.
//!
//! The timing model ([`crate::timing`]) answers *when* a request completes;
//! this module answers *what bits* come back, including the side-band the
//! paper repurposes for MACs.

use ame_persist::{invalid_data, put_u64, read_section, ByteReader, IndexMap, SectionWriter};
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

/// Blocks per page: the 64 blocks of one 4 KiB group.
const PAGE_BLOCKS: usize = 64;

/// `addr >> PAGE_SHIFT` is the page number of the block holding `addr`.
const PAGE_SHIFT: u32 = (BLOCK_BYTES * PAGE_BLOCKS).trailing_zeros();

/// Bytes of one block in the serialized form: `addr | data | sideband`.
const ENTRY_BYTES: usize = 8 + BLOCK_BYTES + SIDEBAND_BYTES;

/// The blocks of one 4 KiB group, stored contiguously. Bit `i` of
/// `present` says block `i` was ever written: residency is the mask,
/// never the block's contents (a resident block may be all zeros).
#[derive(Debug, Clone)]
struct Page {
    present: u64,
    blocks: [StoredBlock; PAGE_BLOCKS],
}

impl Page {
    fn empty() -> Box<Self> {
        Box::new(Self {
            present: 0,
            blocks: [StoredBlock::default(); PAGE_BLOCKS],
        })
    }
}

/// A sparse functional memory keyed by block-aligned physical address:
/// a directory of dense 64-block pages, allocated on first touch and
/// found through an [`IndexMap`] keyed by page number. Any `u64` address
/// is legal and memory is proportional to the touched pages; an access
/// is a shift, one page lookup and an index, and a whole-image scan
/// orders the pages (one key per 64 blocks), never the blocks.
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
    pages: IndexMap<Box<Page>>,
    resident: usize,
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
        self.resident
    }

    /// `(page number, slot within the page)` of the block holding `addr`.
    fn locate(addr: u64) -> (u64, usize) {
        let block = addr / BLOCK_BYTES as u64;
        (addr >> PAGE_SHIFT, block as usize % PAGE_BLOCKS)
    }

    /// Every resident block with its address, in ascending address
    /// order: the pages are ordered (one key per 64 blocks), then
    /// scanned.
    fn resident(&self) -> impl Iterator<Item = (u64, &StoredBlock)> {
        let mut pages: Vec<(u64, &Page)> = self.pages.iter().map(|(&n, p)| (n, &**p)).collect();
        pages.sort_unstable_by_key(|&(n, _)| n);
        pages.into_iter().flat_map(|(page, p)| {
            let slots = (0..PAGE_BLOCKS).filter(move |slot| p.present >> slot & 1 == 1);
            slots.map(move |slot| {
                let addr = page << PAGE_SHIFT | (slot * BLOCK_BYTES) as u64;
                (addr, &p.blocks[slot])
            })
        })
    }

    /// Iterates over the block-aligned addresses of all resident blocks,
    /// in ascending order.
    pub fn addrs(&self) -> impl Iterator<Item = u64> + '_ {
        self.resident().map(|(addr, _)| addr)
    }

    /// Returns `true` if the block containing `addr` was ever written.
    #[must_use]
    pub fn contains(&self, addr: u64) -> bool {
        self.get(addr).is_some()
    }

    /// The block containing `addr`, or `None` if it was never written.
    #[must_use]
    pub fn get(&self, addr: u64) -> Option<StoredBlock> {
        let (page, slot) = Self::locate(addr);
        let p = self.pages.get(&page)?;
        (p.present >> slot & 1 == 1).then(|| p.blocks[slot])
    }

    /// Reads the block containing `addr` (zeros if never written).
    #[must_use]
    pub fn read(&self, addr: u64) -> StoredBlock {
        self.get(addr).unwrap_or_default()
    }

    /// The block containing `addr`, made resident (as zeros) if it was
    /// never written.
    fn resident_mut(&mut self, addr: u64) -> &mut StoredBlock {
        let (page, slot) = Self::locate(addr);
        let p = self.pages.entry(page).or_insert_with(Page::empty);
        self.resident += usize::from(p.present >> slot & 1 == 0);
        p.present |= 1 << slot;
        &mut p.blocks[slot]
    }

    /// Writes the block containing `addr`.
    pub fn write(&mut self, addr: u64, block: StoredBlock) {
        *self.resident_mut(addr) = block;
    }

    /// Exact length in bytes of what [`DramStorage::encode`] appends.
    #[must_use]
    pub fn encoded_len(&self) -> usize {
        ame_persist::SECTION_OVERHEAD + 8 + self.resident * ENTRY_BYTES
    }

    /// Serializes every resident block into a checksummed section, in
    /// ascending address order: one linear scan of the pages.
    pub fn encode(&self, out: &mut Vec<u8>) {
        let mut payload = SectionWriter::begin(out, Self::MAGIC, Self::VERSION);
        put_u64(&mut payload, self.resident as u64);
        for (addr, block) in self.resident() {
            put_u64(&mut payload, addr);
            payload.extend_from_slice(&block.data);
            payload.extend_from_slice(&block.sideband);
        }
        payload.finish();
    }

    /// Decodes a section produced by [`DramStorage::encode`], advancing
    /// the reader past it. Only the canonical form is accepted: the
    /// count matches the payload exactly and addresses are block-aligned
    /// and strictly ascending — what `encode` has always produced.
    ///
    /// # Errors
    ///
    /// `InvalidData` on a bad magic, unsupported version, checksum
    /// mismatch, truncated or over-long payload, or a stored address
    /// that is unaligned, repeated or out of order.
    pub fn decode(r: &mut ByteReader<'_>) -> io::Result<Self> {
        let (version, mut payload) = read_section(r, Self::MAGIC)?;
        if version != Self::VERSION {
            return Err(invalid_data(format!(
                "unsupported dram storage version {version}"
            )));
        }
        let count = payload.u64()?;
        // The count is checked against the bytes that are actually
        // there before anything is sized by it.
        if u64::try_from(payload.remaining()).ok() != count.checked_mul(ENTRY_BYTES as u64) {
            return Err(invalid_data("block count disagrees with payload length"));
        }
        let mut pages: Vec<(u64, Box<Page>)> = Vec::new();
        let mut previous = None;
        for _ in 0..count {
            let addr = payload.u64()?;
            if !addr.is_multiple_of(BLOCK_BYTES as u64) {
                return Err(invalid_data("unaligned stored block address"));
            }
            if previous.is_some_and(|p| addr <= p) {
                return Err(invalid_data("stored block addresses not ascending"));
            }
            previous = Some(addr);
            let (page, slot) = Self::locate(addr);
            if pages.last().is_none_or(|&(last, _)| last != page) {
                pages.push((page, Page::empty()));
            }
            let p = &mut pages.last_mut().expect("just pushed").1;
            p.present |= 1 << slot;
            p.blocks[slot] = StoredBlock {
                data: payload.array()?,
                sideband: payload.array()?,
            };
        }
        Ok(Self {
            pages: pages.into_iter().collect(),
            resident: count as usize,
        })
    }

    /// Section magic of the serialized form.
    const MAGIC: &'static [u8; 8] = b"AMEDRAM\0";
    /// Section version of the serialized form.
    const VERSION: u32 = 1;

    /// Flips one bit of the stored *data* at `addr` (fault injection).
    /// `bit` is a global bit index in `0..512`. An absent block becomes
    /// resident (zeros, then the flip).
    ///
    /// # Panics
    ///
    /// Panics if `bit >= 512`.
    pub fn flip_data_bit(&mut self, addr: u64, bit: u32) {
        assert!(bit < 512, "data bit out of range");
        self.resident_mut(addr).data[(bit / 8) as usize] ^= 1 << (bit % 8);
    }

    /// Flips one bit of the stored *side-band* at `addr` (fault injection).
    /// `bit` is an index in `0..64`. An absent block becomes resident.
    ///
    /// # Panics
    ///
    /// Panics if `bit >= 64`.
    pub fn flip_sideband_bit(&mut self, addr: u64, bit: u32) {
        assert!(bit < 64, "side-band bit out of range");
        self.resident_mut(addr).sideband[(bit / 8) as usize] ^= 1 << (bit % 8);
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

    /// The per-block hash map `DramStorage` used to be, with its
    /// collect-and-sort encoder: the model the paged storage must match.
    #[derive(Default)]
    struct Model(std::collections::HashMap<u64, StoredBlock>);

    impl Model {
        fn sorted_addrs(&self) -> Vec<u64> {
            let mut addrs: Vec<u64> = self.0.keys().copied().collect();
            addrs.sort_unstable();
            addrs
        }

        fn encode(&self) -> Vec<u8> {
            let mut out = b"AMEDRAM\0".to_vec();
            out.extend_from_slice(&1u32.to_le_bytes());
            let payload_len = 8 + self.0.len() * ENTRY_BYTES;
            out.extend_from_slice(&(payload_len as u64).to_le_bytes());
            out.extend_from_slice(&(self.0.len() as u64).to_le_bytes());
            for addr in self.sorted_addrs() {
                out.extend_from_slice(&addr.to_le_bytes());
                out.extend_from_slice(&self.0[&addr].data);
                out.extend_from_slice(&self.0[&addr].sideband);
            }
            let crc = ame_persist::crc64(&out);
            out.extend_from_slice(&crc.to_le_bytes());
            out
        }
    }

    #[test]
    fn random_schedule_matches_the_hash_map_model() {
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        // A few pages near zero, one far away, one at the very top, so
        // pages fill, neighbours collide and high bits matter.
        let bases = [0u64, 0x1000, 0x5000, (1 << 44) + 0x3000, !0xfff];
        let mut mem = DramStorage::new();
        let mut model = Model::default();
        for step in 0..20_000 {
            let r = next();
            let addr = bases[(r % 5) as usize] + (r >> 8) % 4096;
            let aligned = addr & !63;
            match (r >> 32) % 8 {
                0..=2 => {
                    let block = StoredBlock {
                        data: [r as u8; 64],
                        sideband: [(r >> 16) as u8; 8],
                    };
                    mem.write(addr, block);
                    model.0.insert(aligned, block);
                }
                3 => {
                    let bit = (r >> 40) as u32 % 512;
                    mem.flip_data_bit(addr, bit);
                    model.0.entry(aligned).or_default().data[(bit / 8) as usize] ^= 1 << (bit % 8);
                }
                4 => {
                    let bit = (r >> 40) as u32 % 64;
                    mem.flip_sideband_bit(addr, bit);
                    model.0.entry(aligned).or_default().sideband[(bit / 8) as usize] ^=
                        1 << (bit % 8);
                }
                _ => {}
            }
            let expected = model.0.get(&aligned).copied();
            assert_eq!(mem.get(addr), expected, "step {step} {addr:#x}");
            assert_eq!(mem.read(addr), expected.unwrap_or_default());
            assert_eq!(mem.contains(addr), expected.is_some());
            assert_eq!(mem.resident_blocks(), model.0.len());
            if step % 1000 == 0 {
                assert_eq!(mem.addrs().collect::<Vec<_>>(), model.sorted_addrs());
            }
        }
        assert_eq!(mem.addrs().collect::<Vec<_>>(), model.sorted_addrs());
        let mut encoded = Vec::new();
        mem.encode(&mut encoded);
        assert_eq!(encoded.len(), mem.encoded_len());
        assert_eq!(encoded, model.encode());
        let back = DramStorage::decode(&mut ByteReader::new(&encoded)).unwrap();
        assert_eq!(back.resident_blocks(), model.0.len());
        let mut again = Vec::new();
        back.encode(&mut again);
        assert_eq!(again, encoded);
    }

    #[test]
    fn a_flip_on_an_absent_block_makes_it_resident_even_when_it_ends_all_zero() {
        let mut m = DramStorage::new();
        m.flip_data_bit(0x1040, 3);
        m.flip_data_bit(0x1040, 3);
        assert_eq!(m.get(0x1040), Some(StoredBlock::default()));
        assert!(!m.contains(0x1000), "its page neighbours stay absent");
        assert_eq!(m.resident_blocks(), 1);
        assert_eq!(m.addrs().collect::<Vec<_>>(), [0x1040]);
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
