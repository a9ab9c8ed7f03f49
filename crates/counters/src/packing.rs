//! Bit-exact packing of delta-encoded counter groups into 64-byte metadata
//! blocks, plus the decode operation the paper's hardware Decode Unit
//! performs (Section 4.4 / Figure 7).
//!
//! The paper stresses that "the decryption pipeline will perform better if
//! both the reference value and the associated deltas are stored in the
//! same memory block". These layouts make that constraint concrete:
//!
//! * **Flat 7-bit layout**: 56-bit reference + 64 x 7-bit deltas =
//!   504 bits <= 512.
//! * **Dual-length layout** (Figure 6): 56-bit reference + 1 valid bit +
//!   2 group-index bits + 64 x 6-bit deltas + 16 x 4-bit overflow
//!   extensions = 507 bits <= 512.
//!
//! Decoding a counter is a bit extraction plus one addition — the logic the
//! paper synthesized to 2 cycles at 4 GHz. [`DECODE_LATENCY_CYCLES`]
//! carries that number into the performance model.

/// Decode-unit latency in CPU cycles, from the paper's 45 nm synthesis
/// result (Section 5.3): "the decoding logic is able to complete within 2
/// cycles for frequencies up to 4GHz".
pub const DECODE_LATENCY_CYCLES: u64 = 2;

/// Blocks per group in both packed layouts.
pub const GROUP_BLOCKS: usize = 64;

const REF_BITS: u32 = 56;
const FLAT_DELTA_BITS: u32 = 7;
const DUAL_BASE_BITS: u32 = 6;
const DUAL_EXTRA_BITS: u32 = 4;
const DUAL_GROUPS: usize = 4;
const DUAL_BLOCKS_PER_DG: usize = GROUP_BLOCKS / DUAL_GROUPS;

/// Little-endian 64-bit word `index` of `block`.
fn word(block: &[u8; 64], index: usize) -> u64 {
    let mut bytes = [0u8; 8];
    bytes.copy_from_slice(&block[index * 8..index * 8 + 8]);
    u64::from_le_bytes(bytes)
}

/// Mask selecting the low `width` bits.
fn low_mask(width: u32) -> u64 {
    if width == 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

/// Reads `width` bits (LSB-first) starting at bit `offset` of `block`:
/// one shifted word, plus the spill from the next word when the field
/// straddles a 64-bit boundary.
#[must_use]
pub fn read_bits(block: &[u8; 64], offset: u32, width: u32) -> u64 {
    debug_assert!(width <= 64 && offset + width <= 512);
    if width == 0 {
        return 0;
    }
    let (index, shift) = ((offset / 64) as usize, offset % 64);
    let mut value = word(block, index) >> shift;
    if shift + width > 64 {
        value |= word(block, index + 1) << (64 - shift);
    }
    value & low_mask(width)
}

/// Writes `width` bits of `value` (LSB-first) at bit `offset` of `block`.
pub fn write_bits(block: &mut [u8; 64], offset: u32, width: u32, value: u64) {
    debug_assert!(width <= 64 && offset + width <= 512);
    debug_assert!(
        width == 64 || value < (1u64 << width),
        "value exceeds field width"
    );
    if width == 0 {
        return;
    }
    let (index, shift) = ((offset / 64) as usize, offset % 64);
    let (mask, value) = (low_mask(width), value & low_mask(width));
    let mut merge = |index: usize, mask: u64, bits: u64| {
        let merged = word(block, index) & !mask | bits;
        block[index * 8..index * 8 + 8].copy_from_slice(&merged.to_le_bytes());
    };
    merge(index, mask << shift, value << shift);
    if shift + width > 64 {
        merge(index + 1, mask >> (64 - shift), value >> (64 - shift));
    }
}

/// A flat-layout counter group: 56-bit reference + 64 x 7-bit deltas.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlatGroup {
    /// Shared 56-bit reference counter.
    pub reference: u64,
    /// The 64 per-block deltas, each `< 128`.
    pub deltas: [u64; GROUP_BLOCKS],
}

impl FlatGroup {
    /// Packs the group into one 64-byte metadata block.
    ///
    /// # Panics
    ///
    /// Panics if the reference exceeds 56 bits or any delta exceeds 7 bits.
    #[must_use]
    pub fn pack(&self) -> [u8; 64] {
        assert!(
            self.reference < 1u64 << REF_BITS,
            "reference exceeds 56 bits"
        );
        let mut block = [0u8; 64];
        write_bits(&mut block, 0, REF_BITS, self.reference);
        for (i, &d) in self.deltas.iter().enumerate() {
            assert!(d < 1u64 << FLAT_DELTA_BITS, "delta {i} exceeds 7 bits");
            write_bits(
                &mut block,
                REF_BITS + FLAT_DELTA_BITS * i as u32,
                FLAT_DELTA_BITS,
                d,
            );
        }
        block
    }

    /// Unpacks a metadata block into its reference and deltas.
    #[must_use]
    pub fn unpack(block: &[u8; 64]) -> Self {
        let reference = read_bits(block, 0, REF_BITS);
        let mut deltas = [0u64; GROUP_BLOCKS];
        for (i, d) in deltas.iter_mut().enumerate() {
            *d = read_bits(
                block,
                REF_BITS + FLAT_DELTA_BITS * i as u32,
                FLAT_DELTA_BITS,
            );
        }
        Self { reference, deltas }
    }

    /// The Decode Unit operation: extract one delta and add the reference
    /// (a bit extraction and an add — 2 hardware cycles).
    ///
    /// # Panics
    ///
    /// Panics if `index >= 64`.
    #[must_use]
    pub fn decode_counter(block: &[u8; 64], index: usize) -> u64 {
        assert!(index < GROUP_BLOCKS, "block index out of group");
        let reference = read_bits(block, 0, REF_BITS);
        let delta = read_bits(
            block,
            REF_BITS + FLAT_DELTA_BITS * index as u32,
            FLAT_DELTA_BITS,
        );
        reference + delta
    }
}

/// A dual-length-layout counter group (Figure 6): 56-bit reference, four
/// delta-groups of sixteen 6-bit deltas, and 64 shared overflow bits that
/// widen one delta-group's deltas to 10 bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DualGroup {
    /// Shared 56-bit reference counter.
    pub reference: u64,
    /// The 64 per-block deltas. Deltas in the expanded delta-group may use
    /// 10 bits; all others must fit 6 bits.
    pub deltas: [u64; GROUP_BLOCKS],
    /// Which delta-group (0..4) holds the overflow bits, if any.
    pub expanded: Option<usize>,
}

// Dual layout bit offsets.
const DUAL_VALID_OFF: u32 = REF_BITS; // 1 bit: expansion valid
const DUAL_INDEX_OFF: u32 = DUAL_VALID_OFF + 1; // 2 bits: expanded group
const DUAL_BASE_OFF: u32 = DUAL_INDEX_OFF + 2; // 64 x 6-bit base deltas
const DUAL_EXT_OFF: u32 = DUAL_BASE_OFF + DUAL_BASE_BITS * GROUP_BLOCKS as u32; // 16 x 4

impl DualGroup {
    /// Total bits used by the layout (507 for the paper's parameters).
    pub const USED_BITS: u32 = DUAL_EXT_OFF + DUAL_EXTRA_BITS * DUAL_BLOCKS_PER_DG as u32;

    /// Packs the group into one 64-byte metadata block.
    ///
    /// # Panics
    ///
    /// Panics if the reference exceeds 56 bits, a delta exceeds its
    /// capacity (6 bits, or 10 bits inside the expanded delta-group), or
    /// `expanded` is not in `0..4`.
    #[must_use]
    pub fn pack(&self) -> [u8; 64] {
        assert!(
            self.reference < 1u64 << REF_BITS,
            "reference exceeds 56 bits"
        );
        if let Some(g) = self.expanded {
            assert!(g < DUAL_GROUPS, "expanded group out of range");
        }
        let mut block = [0u8; 64];
        write_bits(&mut block, 0, REF_BITS, self.reference);
        write_bits(
            &mut block,
            DUAL_VALID_OFF,
            1,
            u64::from(self.expanded.is_some()),
        );
        write_bits(
            &mut block,
            DUAL_INDEX_OFF,
            2,
            self.expanded.unwrap_or(0) as u64,
        );
        for (i, &d) in self.deltas.iter().enumerate() {
            let dg = i / DUAL_BLOCKS_PER_DG;
            if self.expanded == Some(dg) {
                assert!(
                    d < 1u64 << (DUAL_BASE_BITS + DUAL_EXTRA_BITS),
                    "delta {i} exceeds 10 bits"
                );
                write_bits(
                    &mut block,
                    DUAL_BASE_OFF + DUAL_BASE_BITS * i as u32,
                    DUAL_BASE_BITS,
                    d & ((1 << DUAL_BASE_BITS) - 1),
                );
                write_bits(
                    &mut block,
                    DUAL_EXT_OFF + DUAL_EXTRA_BITS * (i % DUAL_BLOCKS_PER_DG) as u32,
                    DUAL_EXTRA_BITS,
                    d >> DUAL_BASE_BITS,
                );
            } else {
                assert!(d < 1u64 << DUAL_BASE_BITS, "delta {i} exceeds 6 bits");
                write_bits(
                    &mut block,
                    DUAL_BASE_OFF + DUAL_BASE_BITS * i as u32,
                    DUAL_BASE_BITS,
                    d,
                );
            }
        }
        block
    }

    /// Unpacks a metadata block into its reference, deltas and expansion
    /// state.
    #[must_use]
    pub fn unpack(block: &[u8; 64]) -> Self {
        let reference = read_bits(block, 0, REF_BITS);
        let valid = read_bits(block, DUAL_VALID_OFF, 1) == 1;
        let index = read_bits(block, DUAL_INDEX_OFF, 2) as usize;
        let expanded = valid.then_some(index);
        let mut deltas = [0u64; GROUP_BLOCKS];
        for (i, d) in deltas.iter_mut().enumerate() {
            *d = read_bits(
                block,
                DUAL_BASE_OFF + DUAL_BASE_BITS * i as u32,
                DUAL_BASE_BITS,
            );
            if expanded == Some(i / DUAL_BLOCKS_PER_DG) {
                let ext = read_bits(
                    block,
                    DUAL_EXT_OFF + DUAL_EXTRA_BITS * (i % DUAL_BLOCKS_PER_DG) as u32,
                    DUAL_EXTRA_BITS,
                );
                *d |= ext << DUAL_BASE_BITS;
            }
        }
        Self {
            reference,
            deltas,
            expanded,
        }
    }

    /// The Decode Unit operation for the dual layout: concatenate the base
    /// delta with its overflow bits (or zeros) and add the reference.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 64`.
    #[must_use]
    pub fn decode_counter(block: &[u8; 64], index: usize) -> u64 {
        assert!(index < GROUP_BLOCKS, "block index out of group");
        let reference = read_bits(block, 0, REF_BITS);
        let mut delta = read_bits(
            block,
            DUAL_BASE_OFF + DUAL_BASE_BITS * index as u32,
            DUAL_BASE_BITS,
        );
        let valid = read_bits(block, DUAL_VALID_OFF, 1) == 1;
        let expanded = read_bits(block, DUAL_INDEX_OFF, 2) as usize;
        if valid && expanded == index / DUAL_BLOCKS_PER_DG {
            let ext = read_bits(
                block,
                DUAL_EXT_OFF + DUAL_EXTRA_BITS * (index % DUAL_BLOCKS_PER_DG) as u32,
                DUAL_EXTRA_BITS,
            );
            delta |= ext << DUAL_BASE_BITS;
        }
        reference + delta
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_io_roundtrip() {
        let mut block = [0u8; 64];
        write_bits(&mut block, 3, 13, 0x1abc & 0x1fff);
        assert_eq!(read_bits(&block, 3, 13), 0x1abc & 0x1fff);
        // Neighbouring bits untouched.
        assert_eq!(read_bits(&block, 0, 3), 0);
        write_bits(&mut block, 3, 13, 0);
        assert_eq!(block, [0u8; 64]);
    }

    /// The per-bit loops the word accesses replaced.
    fn read_bits_oracle(block: &[u8; 64], offset: u32, width: u32) -> u64 {
        (0..width).fold(0, |value, i| {
            let bit = offset + i;
            value | u64::from(block[(bit / 8) as usize] >> (bit % 8) & 1) << i
        })
    }

    fn write_bits_oracle(block: &mut [u8; 64], offset: u32, width: u32, value: u64) {
        for i in 0..width {
            let bit = offset + i;
            let mask = 1u8 << (bit % 8);
            if value >> i & 1 == 1 {
                block[(bit / 8) as usize] |= mask;
            } else {
                block[(bit / 8) as usize] &= !mask;
            }
        }
    }

    #[test]
    fn bit_io_matches_the_per_bit_oracle_at_every_offset_and_width() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut background = [0u8; 64];
        for chunk in background.chunks_exact_mut(8) {
            chunk.copy_from_slice(&next().to_le_bytes());
        }
        // Every field, including the ones straddling 8- and 16-byte
        // boundaries and the full-width `width == 64`.
        for width in 0..=64u32 {
            for offset in 0..=512 - width {
                assert_eq!(
                    read_bits(&background, offset, width),
                    read_bits_oracle(&background, offset, width),
                    "read {offset}+{width}"
                );
                let value = next() & low_mask(width);
                let (mut fast, mut slow) = (background, background);
                write_bits(&mut fast, offset, width, value);
                write_bits_oracle(&mut slow, offset, width, value);
                assert_eq!(fast, slow, "write {offset}+{width}");
                assert_eq!(read_bits(&fast, offset, width), value);
            }
        }
    }

    #[test]
    fn flat_roundtrip() {
        let mut deltas = [0u64; 64];
        for (i, d) in deltas.iter_mut().enumerate() {
            *d = (i as u64 * 37) % 128;
        }
        let grp = FlatGroup {
            reference: 0x00ab_cdef_0123_4567 & ((1 << 56) - 1),
            deltas,
        };
        let packed = grp.pack();
        assert_eq!(FlatGroup::unpack(&packed), grp);
    }

    #[test]
    fn flat_decode_matches_unpack() {
        let mut deltas = [0u64; 64];
        deltas[0] = 127;
        deltas[63] = 1;
        deltas[17] = 99;
        let grp = FlatGroup {
            reference: 1000,
            deltas,
        };
        let packed = grp.pack();
        for (i, &d) in deltas.iter().enumerate() {
            assert_eq!(FlatGroup::decode_counter(&packed, i), 1000 + d);
        }
    }

    #[test]
    #[should_panic(expected = "exceeds 7 bits")]
    fn flat_rejects_wide_delta() {
        let mut deltas = [0u64; 64];
        deltas[5] = 128;
        let _ = FlatGroup {
            reference: 0,
            deltas,
        }
        .pack();
    }

    #[test]
    fn flat_layout_fits_512_bits() {
        let used = REF_BITS + FLAT_DELTA_BITS * 64;
        assert_eq!(used, 504);
    }

    #[test]
    fn dual_layout_fits_512_bits() {
        assert_eq!(DualGroup::USED_BITS, 507);
    }

    #[test]
    fn dual_roundtrip_no_expansion() {
        let mut deltas = [0u64; 64];
        for (i, d) in deltas.iter_mut().enumerate() {
            *d = (i as u64 * 11) % 64;
        }
        let grp = DualGroup {
            reference: 42,
            deltas,
            expanded: None,
        };
        assert_eq!(DualGroup::unpack(&grp.pack()), grp);
    }

    #[test]
    fn dual_roundtrip_with_expansion() {
        let mut deltas = [0u64; 64];
        for (i, d) in deltas.iter_mut().enumerate() {
            *d = (i as u64 * 7) % 64;
        }
        // Delta-group 2 (blocks 32..48) holds wide deltas.
        for d in deltas.iter_mut().skip(32).take(16) {
            *d += 512;
        }
        let grp = DualGroup {
            reference: 123_456,
            deltas,
            expanded: Some(2),
        };
        let packed = grp.pack();
        assert_eq!(DualGroup::unpack(&packed), grp);
        for (i, &d) in deltas.iter().enumerate() {
            assert_eq!(
                DualGroup::decode_counter(&packed, i),
                123_456 + d,
                "block {i}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "exceeds 6 bits")]
    fn dual_rejects_wide_delta_outside_expanded_group() {
        let mut deltas = [0u64; 64];
        deltas[0] = 64; // delta-group 0, but group 1 is expanded
        let _ = DualGroup {
            reference: 0,
            deltas,
            expanded: Some(1),
        }
        .pack();
    }

    #[test]
    #[should_panic(expected = "exceeds 10 bits")]
    fn dual_rejects_delta_beyond_expanded_capacity() {
        let mut deltas = [0u64; 64];
        deltas[0] = 1024;
        let _ = DualGroup {
            reference: 0,
            deltas,
            expanded: Some(0),
        }
        .pack();
    }

    #[test]
    fn decode_latency_constant_matches_paper() {
        assert_eq!(DECODE_LATENCY_CYCLES, 2);
    }
}
