//! The two competing uses of the 64-bit ECC side-band per 64-byte block.
//!
//! A standard ECC DIMM stores one SEC-DED check byte per 8-byte word
//! ([`StandardSideband`]). The paper instead packs a 56-bit MAC tag, a 7-bit
//! SEC-DED check over the tag, and a single parity bit over the ciphertext
//! into the same 64 bits ([`MacSideband`], Figure 2), so integrity metadata
//! travels on the ECC bus in parallel with the data.

use crate::secded::{DecodeOutcome, Secded63, Secded72};
use crate::{BLOCK_BYTES, WORDS_PER_BLOCK};

/// Splits a 64-byte block into its eight little-endian 64-bit words.
#[must_use]
pub fn block_words(block: &[u8; BLOCK_BYTES]) -> [u64; WORDS_PER_BLOCK] {
    let mut words = [0u64; WORDS_PER_BLOCK];
    for (i, w) in words.iter_mut().enumerate() {
        let mut bytes = [0u8; 8];
        bytes.copy_from_slice(&block[i * 8..(i + 1) * 8]);
        *w = u64::from_le_bytes(bytes);
    }
    words
}

/// Reassembles a 64-byte block from eight little-endian 64-bit words.
#[must_use]
pub fn words_to_block(words: &[u64; WORDS_PER_BLOCK]) -> [u8; BLOCK_BYTES] {
    let mut block = [0u8; BLOCK_BYTES];
    for (i, w) in words.iter().enumerate() {
        block[i * 8..(i + 1) * 8].copy_from_slice(&w.to_le_bytes());
    }
    block
}

/// Even parity over a full 64-byte block (0 or 1).
#[must_use]
pub fn block_parity(block: &[u8; BLOCK_BYTES]) -> u8 {
    let folded = block_words(block).iter().fold(0u64, |acc, w| acc ^ w);
    (folded.count_ones() & 1) as u8
}

/// Standard ECC side-band: one SEC-DED(72,64) check byte per 8-byte word.
///
/// # Example
///
/// ```
/// use ame_ecc::layout::StandardSideband;
///
/// let block = [0xabu8; 64];
/// let sb = StandardSideband::encode(&block);
/// let mut stored = block;
/// stored[10] ^= 0x04; // single-bit fault in word 1
/// let decoded = sb.decode(&stored);
/// assert_eq!(decoded.corrected_block(), Some(block));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StandardSideband {
    check: [u8; WORDS_PER_BLOCK],
}

/// Per-block outcome of decoding under standard ECC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StandardDecode {
    /// Per-word decode outcomes.
    pub words: [DecodeOutcome; WORDS_PER_BLOCK],
}

impl StandardDecode {
    /// Returns the fully corrected block if every word decoded successfully.
    #[must_use]
    pub fn corrected_block(&self) -> Option<[u8; BLOCK_BYTES]> {
        let mut words = [0u64; WORDS_PER_BLOCK];
        for (i, outcome) in self.words.iter().enumerate() {
            words[i] = outcome.corrected_word()?;
        }
        Some(words_to_block(&words))
    }

    /// Returns `true` if any word reported an error (corrected or not).
    #[must_use]
    pub fn any_error(&self) -> bool {
        self.words.iter().any(DecodeOutcome::is_error)
    }

    /// Returns `true` if any word had a detected-but-uncorrectable error.
    #[must_use]
    pub fn any_uncorrectable(&self) -> bool {
        self.words
            .iter()
            .any(|w| matches!(w, DecodeOutcome::DoubleError | DecodeOutcome::Uncorrectable))
    }
}

impl StandardSideband {
    /// Encodes the SEC-DED check bytes for all eight words of `block`.
    #[must_use]
    pub fn encode(block: &[u8; BLOCK_BYTES]) -> Self {
        let words = block_words(block);
        let mut check = [0u8; WORDS_PER_BLOCK];
        for (c, w) in check.iter_mut().zip(words.iter()) {
            *c = Secded72::encode(*w);
        }
        Self { check }
    }

    /// Decodes a stored block against this side-band, word by word.
    #[must_use]
    pub fn decode(&self, block: &[u8; BLOCK_BYTES]) -> StandardDecode {
        let words = block_words(block);
        let mut out = [DecodeOutcome::Clean { word: 0 }; WORDS_PER_BLOCK];
        for i in 0..WORDS_PER_BLOCK {
            out[i] = Secded72::decode(words[i], self.check[i]);
        }
        StandardDecode { words: out }
    }

    /// Raw side-band bytes as they would sit in the ECC chips.
    #[must_use]
    pub fn to_bytes(&self) -> [u8; 8] {
        self.check
    }

    /// Reconstructs a side-band from raw ECC-chip bytes.
    #[must_use]
    pub fn from_bytes(bytes: [u8; 8]) -> Self {
        Self { check: bytes }
    }
}

/// The paper's merged side-band (Figure 2): 56-bit MAC + 7-bit SEC-DED check
/// over the MAC + 1 parity bit over the ciphertext block.
///
/// Bit layout of the packed 64-bit side-band word, LSB first:
/// `[0..56) = MAC tag`, `[56..63) = MAC check bits`, `[63] = ciphertext
/// parity`.
///
/// # Example
///
/// ```
/// use ame_ecc::layout::MacSideband;
///
/// let ciphertext = [0x3cu8; 64];
/// let tag = 0x00aa_bb11_22cc_dd33 & MacSideband::TAG_MASK;
/// let sb = MacSideband::new(tag, &ciphertext);
/// assert_eq!(sb.recover_tag().corrected_word(), Some(tag));
/// assert_eq!(sb.ciphertext_parity(), MacSideband::parity_of(&ciphertext));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MacSideband {
    packed: u64,
}

impl MacSideband {
    /// Mask selecting the 56-bit MAC tag.
    pub const TAG_MASK: u64 = (1u64 << 56) - 1;

    /// Builds the side-band for a MAC `tag` over the given `ciphertext`
    /// block. The tag must fit in 56 bits (higher bits are ignored).
    #[must_use]
    pub fn new(tag: u64, ciphertext: &[u8; BLOCK_BYTES]) -> Self {
        let tag = tag & Self::TAG_MASK;
        let check = u64::from(Secded63::encode(tag));
        let parity = u64::from(block_parity(ciphertext));
        Self {
            packed: tag | (check << 56) | (parity << 63),
        }
    }

    /// Even parity of a ciphertext block, as stored in the scrub bit.
    #[must_use]
    pub fn parity_of(ciphertext: &[u8; BLOCK_BYTES]) -> u8 {
        block_parity(ciphertext)
    }

    /// The stored (possibly corrupted) 56-bit MAC tag, uncorrected.
    #[must_use]
    pub fn raw_tag(&self) -> u64 {
        self.packed & Self::TAG_MASK
    }

    /// The stored 7-bit SEC-DED check over the MAC.
    #[must_use]
    pub fn mac_check(&self) -> u8 {
        (self.packed >> 56 & 0x7f) as u8
    }

    /// The stored ciphertext parity bit used for efficient scrubbing.
    #[must_use]
    pub fn ciphertext_parity(&self) -> u8 {
        (self.packed >> 63) as u8
    }

    /// Runs SEC-DED over the stored MAC tag, correcting a single flipped
    /// bit inside the MAC or its check bits (Section 3.3: "detect and
    /// correct bit-flips in the MACs themselves ... without having to scan
    /// multiple layers of the integrity tree").
    #[must_use]
    pub fn recover_tag(&self) -> DecodeOutcome {
        Secded63::decode(self.raw_tag(), self.mac_check())
    }

    /// Quick scrub check: does the stored parity bit match `ciphertext`?
    /// A mismatch means an odd number of bit flips somewhere in the block.
    #[must_use]
    pub fn scrub_matches(&self, ciphertext: &[u8; BLOCK_BYTES]) -> bool {
        self.ciphertext_parity() == block_parity(ciphertext)
    }

    /// Raw side-band bytes as they would sit in the ECC chips.
    #[must_use]
    pub fn to_bytes(&self) -> [u8; 8] {
        self.packed.to_le_bytes()
    }

    /// Reconstructs a side-band from raw ECC-chip bytes.
    #[must_use]
    pub fn from_bytes(bytes: [u8; 8]) -> Self {
        Self {
            packed: u64::from_le_bytes(bytes),
        }
    }

    /// Returns a copy with the given side-band bit (0..64) flipped, for
    /// fault injection.
    #[must_use]
    pub fn with_bit_flipped(&self, bit: u32) -> Self {
        Self {
            packed: self.packed ^ (1u64 << bit),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_block() -> [u8; BLOCK_BYTES] {
        let mut b = [0u8; BLOCK_BYTES];
        for (i, byte) in b.iter_mut().enumerate() {
            *byte = (i as u8).wrapping_mul(37).wrapping_add(11);
        }
        b
    }

    #[test]
    fn block_parity_matches_the_per_bit_count() {
        let mut block = sample_block();
        for bit in 0..512 {
            block[bit / 8] ^= 1 << (bit % 8);
            let ones: u32 = block.iter().map(|b| b.count_ones()).sum();
            assert_eq!(block_parity(&block), (ones & 1) as u8, "after bit {bit}");
        }
        assert_eq!(block_parity(&[0; BLOCK_BYTES]), 0);
        assert_eq!(block_parity(&[0xff; BLOCK_BYTES]), 0);
    }

    #[test]
    fn words_roundtrip() {
        let block = sample_block();
        assert_eq!(words_to_block(&block_words(&block)), block);
    }

    #[test]
    fn standard_clean() {
        let block = sample_block();
        let sb = StandardSideband::encode(&block);
        let decoded = sb.decode(&block);
        assert!(!decoded.any_error());
        assert_eq!(decoded.corrected_block(), Some(block));
    }

    #[test]
    fn standard_corrects_one_bit_per_word() {
        let block = sample_block();
        let sb = StandardSideband::encode(&block);
        let mut bad = block;
        // One single-bit flip in each of the 8 words: all correctable.
        for w in 0..WORDS_PER_BLOCK {
            bad[w * 8 + 3] ^= 0x10;
        }
        let decoded = sb.decode(&bad);
        assert!(decoded.any_error());
        assert!(!decoded.any_uncorrectable());
        assert_eq!(decoded.corrected_block(), Some(block));
    }

    #[test]
    fn standard_detects_double_in_word() {
        let block = sample_block();
        let sb = StandardSideband::encode(&block);
        let mut bad = block;
        bad[0] ^= 0x03; // two flips inside word 0
        let decoded = sb.decode(&bad);
        assert!(decoded.any_uncorrectable());
        assert_eq!(decoded.corrected_block(), None);
    }

    #[test]
    fn standard_sideband_bytes_roundtrip() {
        let block = sample_block();
        let sb = StandardSideband::encode(&block);
        assert_eq!(StandardSideband::from_bytes(sb.to_bytes()), sb);
    }

    #[test]
    fn mac_sideband_fields() {
        let ct = sample_block();
        let tag = 0x00ff_eedd_ccbb_aa99u64 & MacSideband::TAG_MASK;
        let sb = MacSideband::new(tag, &ct);
        assert_eq!(sb.raw_tag(), tag);
        assert!(sb.scrub_matches(&ct));
        assert!(sb.recover_tag().is_clean());
    }

    #[test]
    fn mac_sideband_corrects_tag_bit() {
        let ct = sample_block();
        let tag = 0x0012_3456_789a_bcdeu64 & MacSideband::TAG_MASK;
        let sb = MacSideband::new(tag, &ct);
        for bit in 0..56 {
            let faulty = sb.with_bit_flipped(bit);
            assert_eq!(
                faulty.recover_tag().corrected_word(),
                Some(tag),
                "bit {bit}"
            );
        }
    }

    #[test]
    fn mac_sideband_corrects_check_bit() {
        let ct = sample_block();
        let tag = 7u64;
        let sb = MacSideband::new(tag, &ct);
        for bit in 56..63 {
            let faulty = sb.with_bit_flipped(bit);
            assert_eq!(
                faulty.recover_tag().corrected_word(),
                Some(tag),
                "bit {bit}"
            );
        }
    }

    #[test]
    fn mac_sideband_detects_double_tag_flip() {
        let ct = sample_block();
        let tag = 0x00aa_aaaa_5555_5555u64 & MacSideband::TAG_MASK;
        let sb = MacSideband::new(tag, &ct)
            .with_bit_flipped(2)
            .with_bit_flipped(40);
        assert_eq!(sb.recover_tag().corrected_word(), None);
    }

    #[test]
    fn scrub_detects_odd_flips() {
        let ct = sample_block();
        let sb = MacSideband::new(1, &ct);
        let mut bad = ct;
        bad[5] ^= 0x01;
        assert!(!sb.scrub_matches(&bad));
        bad[6] ^= 0x01; // second flip makes parity match again (even flips)
        assert!(sb.scrub_matches(&bad));
    }

    #[test]
    fn mac_sideband_bytes_roundtrip() {
        let ct = sample_block();
        let sb = MacSideband::new(0x00de_adbe_ef00_1122 & MacSideband::TAG_MASK, &ct);
        assert_eq!(MacSideband::from_bytes(sb.to_bytes()), sb);
    }
}
