//! Bit-exact packing of delta-encoded counter groups into 64-byte metadata
//! blocks, plus the decode operation the paper's hardware Decode Unit
//! performs (Section 4.4 / Figure 7).
//!
//! The paper stresses that "the decryption pipeline will perform better if
//! both the reference value and the associated deltas are stored in the
//! same memory block". These layouts make that constraint concrete:
//!
//! * **Flat 7-bit layout** (Figure 5): 56-bit reference + 64 x 7-bit
//!   deltas = 504 bits <= 512.
//! * **Dual-length layout** (Figure 6): 56-bit reference + 1 valid bit +
//!   2 group-index bits + 64 x 6-bit deltas + 16 x 4-bit overflow
//!   extensions = 507 bits <= 512.
//!
//! A delta group's state of record is its packed line (`Line`), laid
//! out by `FlatLayout` or `DualLayout` from the scheme's
//! configuration, which must fit 512 bits when the scheme is built. A
//! counter read is the Decode Unit on the line — a bit extraction plus
//! one addition, the logic the paper synthesized to 2 cycles at 4 GHz
//! ([`DECODE_LATENCY_CYCLES`] carries that number into the performance
//! model) — and a write rewrites only the fields it changes.

/// Decode-unit latency in CPU cycles, from the paper's 45 nm synthesis
/// result (Section 5.3): "the decoding logic is able to complete within 2
/// cycles for frequencies up to 4GHz".
pub const DECODE_LATENCY_CYCLES: u64 = 2;

/// Bits in one 64-byte metadata line.
pub(crate) const LINE_BITS: u32 = 512;

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

/// The line, its two layouts and the trait the delta scheme reads them
/// through. The scheme's configuration trait names them, so they are
/// `pub` in this private module: the crate can name them, other crates
/// cannot.
mod layouts {
    use super::low_mask;
    use std::fmt;

    /// One 64-byte metadata line held as eight little-endian words: bit
    /// `o` of the line is bit `o % 64` of word `o / 64`, the order
    /// [`read_bits`](super::read_bits) and
    /// [`write_bits`](super::write_bits) use on the byte image. A field
    /// access is one or two shifts and masks, and the image is the
    /// words' bytes.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct Line(pub(super) [u64; 8]);

    /// Where the fields of a flat delta group sit in its line (Figure 5):
    /// `reference || delta 0 || delta 1 || ...`, zero-padded to 512 bits.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct FlatLayout {
        pub(super) reference_bits: u32,
        pub(super) delta_bits: u32,
        pub(super) blocks: usize,
    }

    /// Where the fields of a dual-length group sit in its line (Figure
    /// 6): `reference || valid || expanded index || base deltas ||
    /// extensions`, zero-padded to 512 bits. The extension slots belong
    /// to the expanded delta-group and are all zero while no group is
    /// expanded.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct DualLayout {
        pub(super) reference_bits: u32,
        pub(super) index_bits: u32,
        pub(super) base_bits: u32,
        pub(super) extra_bits: u32,
        pub(super) blocks: usize,
        pub(super) per_delta_group: usize,
    }

    /// How a delta group's fields sit in its line: the one interface the
    /// delta scheme reads and rewrites a line through, whichever figure
    /// laid it out. A flat line is one delta-group that never expands.
    pub trait LineLayout: Copy + fmt::Debug + Send {
        /// Width of the reference field at bit 0.
        fn reference_bits(&self) -> u32;

        /// Which delta-group holds the extension slots.
        fn expanded(&self, line: &Line) -> Option<usize>;

        /// The delta-group of block `i`.
        fn delta_group(&self, i: usize) -> usize;

        /// Delta `i`: its base field, and its extension slot above it
        /// when its delta-group is `widened` (the one expanded).
        fn delta(&self, line: &Line, i: usize, widened: bool) -> u64;

        /// Rewrites delta `i` and nothing else: its base field and, when
        /// its delta-group is `widened`, its extension slot.
        fn set_delta(&self, line: &mut Line, i: usize, d: u64, widened: bool);

        /// Hands the extension slots to block `i`'s delta-group and
        /// rewrites delta `i` at the widened width.
        fn expand(&self, line: &mut Line, i: usize, d: u64);

        /// Packs a whole group.
        ///
        /// # Panics
        ///
        /// Panics if the reference exceeds its field, `expanded` is not
        /// a delta-group, or a delta exceeds its capacity (base width,
        /// or base plus extension width inside the expanded
        /// delta-group).
        fn pack(&self, reference: u64, expanded: Option<usize>, deltas: &[u64]) -> Line;

        /// Unpacks a whole group: the deltas into `deltas`, and the
        /// reference and expanded delta-group returned.
        fn unpack(&self, line: &Line, deltas: &mut [u64]) -> (u64, Option<usize>);

        /// The largest reference the line holds.
        fn reference_max(&self) -> u64 {
            low_mask(self.reference_bits())
        }

        /// The shared reference counter.
        #[inline]
        fn reference(&self, line: &Line) -> u64 {
            line.get(0, self.reference_bits())
        }

        /// Whether block `i`'s delta is widened while `expanded` holds
        /// the extension slots; no division while nothing is expanded.
        #[inline]
        fn widened(&self, expanded: Option<usize>, i: usize) -> bool {
            expanded.is_some_and(|dg| dg == self.delta_group(i))
        }

        /// The Decode Unit: block `i`'s counter — its delta, with the
        /// extension concatenated when its delta-group is the expanded
        /// one, plus the reference.
        #[inline]
        fn counter(&self, line: &Line, i: usize) -> u64 {
            let widened = self.widened(self.expanded(line), i);
            self.reference(line) + self.delta(line, i, widened)
        }

        /// A line holding `reference`, all-zero deltas and no expansion.
        /// A counter must never wrap, so a reference past its field is a
        /// panic, never a truncation.
        fn zeroed(&self, reference: u64) -> Line {
            let bits = self.reference_bits();
            assert!(
                reference <= low_mask(bits),
                "reference {reference} exceeds {bits} bits"
            );
            let mut line = Line::default();
            line.set(0, bits, reference);
            line
        }
    }
}

pub(crate) use layouts::{DualLayout, FlatLayout, Line, LineLayout};

impl Line {
    /// Reads `width` bits (LSB-first) starting at bit `offset`.
    #[inline]
    pub(crate) fn get(&self, offset: u32, width: u32) -> u64 {
        debug_assert!(width > 0 && width <= 64 && offset + width <= LINE_BITS);
        let (index, shift) = ((offset / 64) as usize, offset % 64);
        let mut value = self.0[index] >> shift;
        if shift + width > 64 {
            value |= self.0[index + 1] << (64 - shift);
        }
        value & low_mask(width)
    }

    /// Writes the `width`-bit `value` (LSB-first) at bit `offset`.
    #[inline]
    pub(crate) fn set(&mut self, offset: u32, width: u32, value: u64) {
        debug_assert!(width > 0 && width <= 64 && offset + width <= LINE_BITS);
        debug_assert!(value <= low_mask(width), "value exceeds field width");
        let (index, shift) = ((offset / 64) as usize, offset % 64);
        let mask = low_mask(width);
        self.0[index] = self.0[index] & !(mask << shift) | value << shift;
        if shift + width > 64 {
            let spill = 64 - shift;
            self.0[index + 1] = self.0[index + 1] & !(mask >> spill) | value >> spill;
        }
    }

    /// ORs `fields`, each `width` bits wide, in back to back from bit
    /// `offset` of a line whose bits there are zero: a whole group's
    /// deltas in one pass, each word touched once per field.
    ///
    /// # Panics
    ///
    /// Panics if a field exceeds `width` bits.
    pub(crate) fn put_fields(
        &mut self,
        offset: u32,
        width: u32,
        fields: impl IntoIterator<Item = u64>,
    ) {
        let mut bit = offset;
        for (i, value) in fields.into_iter().enumerate() {
            assert!(value <= low_mask(width), "delta {i} exceeds {width} bits");
            let (index, shift) = ((bit / 64) as usize, bit % 64);
            self.0[index] |= value << shift;
            if shift + width > 64 {
                self.0[index + 1] |= value >> (64 - shift);
            }
            bit += width;
        }
    }

    /// The 64-byte image: the words in little-endian byte order.
    #[inline]
    pub(crate) fn bytes(&self) -> [u8; 64] {
        let mut image = [0u8; 64];
        for (bytes, word) in image.chunks_exact_mut(8).zip(self.0) {
            bytes.copy_from_slice(&word.to_le_bytes());
        }
        image
    }
}

/// Checks at construction that a layout of `bits` bits fits one line.
fn assert_fits(bits: u64, what: &str) {
    assert!(
        bits <= u64::from(LINE_BITS),
        "{what} group does not fit one metadata block ({bits} bits)"
    );
}

impl FlatLayout {
    /// The layout of `blocks` deltas of `delta_bits` after a
    /// `reference_bits` reference.
    ///
    /// # Panics
    ///
    /// Panics if it does not fit one 64-byte line.
    pub(crate) fn new(reference_bits: u32, delta_bits: u32, blocks: usize) -> Self {
        let layout = Self {
            reference_bits,
            delta_bits,
            blocks,
        };
        assert_fits(layout.used_bits(), "delta");
        layout
    }

    /// Bits the layout occupies (504 for the paper's parameters).
    pub(crate) fn used_bits(&self) -> u64 {
        u64::from(self.reference_bits)
            .saturating_add(u64::from(self.delta_bits).saturating_mul(self.blocks as u64))
    }

    #[inline]
    fn delta_offset(&self, i: usize) -> u32 {
        self.reference_bits + self.delta_bits * i as u32
    }
}

impl LineLayout for FlatLayout {
    #[inline]
    fn reference_bits(&self) -> u32 {
        self.reference_bits
    }

    #[inline]
    fn expanded(&self, _line: &Line) -> Option<usize> {
        None
    }

    #[inline]
    fn delta_group(&self, _i: usize) -> usize {
        0
    }

    #[inline]
    fn delta(&self, line: &Line, i: usize, _widened: bool) -> u64 {
        line.get(self.delta_offset(i), self.delta_bits)
    }

    #[inline]
    fn set_delta(&self, line: &mut Line, i: usize, d: u64, _widened: bool) {
        line.set(self.delta_offset(i), self.delta_bits, d);
    }

    fn expand(&self, _line: &mut Line, _i: usize, _d: u64) {
        unreachable!("a flat line has no extension slots")
    }

    fn pack(&self, reference: u64, expanded: Option<usize>, deltas: &[u64]) -> Line {
        assert_eq!(expanded, None, "a flat line has no extension slots");
        assert_eq!(deltas.len(), self.blocks, "one delta per block");
        let mut line = self.zeroed(reference);
        line.put_fields(
            self.delta_offset(0),
            self.delta_bits,
            deltas.iter().copied(),
        );
        line
    }

    fn unpack(&self, line: &Line, deltas: &mut [u64]) -> (u64, Option<usize>) {
        for (i, d) in deltas[..self.blocks].iter_mut().enumerate() {
            *d = self.delta(line, i, false);
        }
        (self.reference(line), None)
    }
}

impl DualLayout {
    /// The layout of `blocks` deltas in `delta_groups` delta-groups,
    /// `base_bits` wide, one delta-group widened by `extra_bits`.
    ///
    /// # Panics
    ///
    /// Panics if it does not fit one 64-byte line.
    pub(crate) fn new(
        reference_bits: u32,
        base_bits: u32,
        extra_bits: u32,
        delta_groups: usize,
        blocks: usize,
    ) -> Self {
        let layout = Self {
            reference_bits,
            index_bits: (usize::BITS - (delta_groups - 1).leading_zeros()).max(1),
            base_bits,
            extra_bits,
            blocks,
            per_delta_group: blocks / delta_groups,
        };
        assert_fits(layout.used_bits(), "dual-length");
        layout
    }

    /// Bits the layout occupies (507 for the paper's parameters).
    pub(crate) fn used_bits(&self) -> u64 {
        let fields = |bits: u32, n: usize| u64::from(bits).saturating_mul(n as u64);
        u64::from(self.reference_bits + 1 + self.index_bits)
            .saturating_add(fields(self.base_bits, self.blocks))
            .saturating_add(fields(self.extra_bits, self.per_delta_group))
    }

    fn set_expanded(&self, line: &mut Line, expanded: Option<usize>) {
        let flag = expanded.map_or(0, |dg| (dg as u64) << 1 | 1);
        line.set(self.reference_bits, 1 + self.index_bits, flag);
    }

    #[inline]
    fn base_offset(&self, i: usize) -> u32 {
        self.reference_bits + 1 + self.index_bits + self.base_bits * i as u32
    }

    #[inline]
    fn extension_offset(&self, i: usize) -> u32 {
        self.base_offset(self.blocks) + self.extra_bits * (i % self.per_delta_group) as u32
    }
}

impl LineLayout for DualLayout {
    #[inline]
    fn reference_bits(&self) -> u32 {
        self.reference_bits
    }

    /// The valid bit and the index, read as one field.
    #[inline]
    fn expanded(&self, line: &Line) -> Option<usize> {
        let flag = line.get(self.reference_bits, 1 + self.index_bits);
        (flag & 1 == 1).then_some((flag >> 1) as usize)
    }

    #[inline]
    fn delta_group(&self, i: usize) -> usize {
        i / self.per_delta_group
    }

    #[inline]
    fn delta(&self, line: &Line, i: usize, widened: bool) -> u64 {
        let base = line.get(self.base_offset(i), self.base_bits);
        if widened {
            base | line.get(self.extension_offset(i), self.extra_bits) << self.base_bits
        } else {
            base
        }
    }

    #[inline]
    fn set_delta(&self, line: &mut Line, i: usize, d: u64, widened: bool) {
        line.set(
            self.base_offset(i),
            self.base_bits,
            d & low_mask(self.base_bits),
        );
        if widened {
            line.set(
                self.extension_offset(i),
                self.extra_bits,
                d >> self.base_bits,
            );
        }
    }

    fn expand(&self, line: &mut Line, i: usize, d: u64) {
        debug_assert_eq!(self.expanded(line), None, "extension slots already taken");
        self.set_expanded(line, Some(self.delta_group(i)));
        self.set_delta(line, i, d, true);
    }

    fn pack(&self, reference: u64, expanded: Option<usize>, deltas: &[u64]) -> Line {
        assert_eq!(deltas.len(), self.blocks, "one delta per block");
        if let Some(dg) = expanded {
            assert!(
                dg < self.blocks / self.per_delta_group,
                "expanded group out of range"
            );
        }
        let mut line = self.zeroed(reference);
        self.set_expanded(&mut line, expanded);
        // The expanded delta-group's deltas: their low bits among the
        // base fields, their high bits in the extension slots.
        let per = self.per_delta_group;
        let wide = expanded.map_or(0..0, |dg| dg * per..dg * per + per);
        let bits = self.base_bits + self.extra_bits;
        for (i, &d) in deltas.iter().enumerate().take(wide.end).skip(wide.start) {
            assert!(d <= low_mask(bits), "delta {i} exceeds {bits} bits");
        }
        let base = deltas.iter().enumerate().map(|(i, &d)| {
            if wide.contains(&i) {
                d & low_mask(self.base_bits)
            } else {
                d
            }
        });
        line.put_fields(self.base_offset(0), self.base_bits, base);
        let high = deltas[wide].iter().map(|d| d >> self.base_bits);
        line.put_fields(self.base_offset(self.blocks), self.extra_bits, high);
        line
    }

    fn unpack(&self, line: &Line, deltas: &mut [u64]) -> (u64, Option<usize>) {
        let expanded = self.expanded(line);
        for (i, d) in deltas[..self.blocks].iter_mut().enumerate() {
            *d = self.delta(line, i, self.widened(expanded, i));
        }
        (self.reference(line), expanded)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The flat layout's calls as the Figure 5 tests write them: a flat
    /// line has no expansion to pass or to return.
    impl FlatLayout {
        pub(crate) fn pack(&self, reference: u64, deltas: &[u64]) -> Line {
            LineLayout::pack(self, reference, None, deltas)
        }

        pub(crate) fn unpack(&self, line: &Line, deltas: &mut [u64]) -> u64 {
            LineLayout::unpack(self, line, deltas).0
        }

        pub(crate) fn set_delta(&self, line: &mut Line, i: usize, d: u64) {
            LineLayout::set_delta(self, line, i, d, false);
        }
    }

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
                // The word-held line reads and writes the same bits (it
                // has no empty fields).
                if width == 0 {
                    continue;
                }
                let mut line = words(&background);
                assert_eq!(
                    line.get(offset, width),
                    read_bits(&background, offset, width)
                );
                line.set(offset, width, value);
                assert_eq!(line.bytes(), fast, "line write {offset}+{width}");
            }
        }
    }

    fn words(block: &[u8; 64]) -> Line {
        Line(std::array::from_fn(|i| word(block, i)))
    }

    /// The paper's Figure 5 and Figure 6 layouts.
    fn flat() -> FlatLayout {
        FlatLayout::new(56, 7, 64)
    }

    fn dual() -> DualLayout {
        DualLayout::new(56, 6, 4, 4, 64)
    }

    #[test]
    fn flat_roundtrip() {
        let mut deltas = [0u64; 64];
        for (i, d) in deltas.iter_mut().enumerate() {
            *d = (i as u64 * 37) % 128;
        }
        let reference = 0x00ab_cdef_0123_4567 & ((1 << 56) - 1);
        let line = flat().pack(reference, &deltas);
        let mut back = [0u64; 64];
        assert_eq!(flat().unpack(&line, &mut back), reference);
        assert_eq!(back, deltas);
        // The image is the fields at their Figure 5 offsets.
        let image = line.bytes();
        assert_eq!(read_bits(&image, 0, 56), reference);
        for (i, &d) in deltas.iter().enumerate() {
            assert_eq!(read_bits(&image, 56 + 7 * i as u32, 7), d, "delta {i}");
        }
    }

    #[test]
    fn flat_decode_matches_unpack() {
        let mut deltas = [0u64; 64];
        deltas[0] = 127;
        deltas[63] = 1;
        deltas[17] = 99;
        let mut line = flat().pack(1000, &deltas);
        for (i, &d) in deltas.iter().enumerate() {
            assert_eq!(flat().counter(&line, i), 1000 + d);
        }
        // Rewriting one delta in place touches that field only.
        flat().set_delta(&mut line, 17, 100);
        deltas[17] = 100;
        assert_eq!(line, flat().pack(1000, &deltas));
    }

    #[test]
    #[should_panic(expected = "exceeds 7 bits")]
    fn flat_rejects_wide_delta() {
        let mut deltas = [0u64; 64];
        deltas[5] = 128;
        let _ = flat().pack(0, &deltas);
    }

    #[test]
    fn flat_layout_fits_512_bits() {
        assert_eq!(flat().used_bits(), 504);
    }

    #[test]
    fn dual_layout_fits_512_bits() {
        assert_eq!(dual().used_bits(), 507);
    }

    /// Packs, unpacks and decodes a dual-length group, and checks the
    /// image against the Figure 6 offsets field by field.
    fn dual_roundtrip(reference: u64, expanded: Option<usize>, deltas: &[u64; 64]) {
        let line = dual().pack(reference, expanded, deltas);
        let mut back = [0u64; 64];
        assert_eq!(dual().unpack(&line, &mut back), (reference, expanded));
        assert_eq!(&back, deltas);
        let image = line.bytes();
        assert_eq!(read_bits(&image, 0, 56), reference);
        assert_eq!(read_bits(&image, 56, 1), u64::from(expanded.is_some()));
        assert_eq!(read_bits(&image, 57, 2), expanded.unwrap_or(0) as u64);
        for (i, &d) in deltas.iter().enumerate() {
            assert_eq!(dual().counter(&line, i), reference + d, "block {i}");
            assert_eq!(read_bits(&image, 59 + 6 * i as u32, 6), d & 63, "base {i}");
            let extension = read_bits(&image, 443 + 4 * (i % 16) as u32, 4);
            if expanded == Some(i / 16) {
                assert_eq!(extension, d >> 6, "extension {i}");
            }
        }
        if expanded.is_none() {
            assert_eq!(
                read_bits(&image, 443, 64),
                0,
                "no extension without expansion"
            );
        }
        assert_eq!(read_bits(&image, 507, 5), 0, "padding");
    }

    #[test]
    fn dual_roundtrip_no_expansion() {
        let mut deltas = [0u64; 64];
        for (i, d) in deltas.iter_mut().enumerate() {
            *d = (i as u64 * 11) % 64;
        }
        dual_roundtrip(42, None, &deltas);
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
        dual_roundtrip(123_456, Some(2), &deltas);
    }

    #[test]
    #[should_panic(expected = "exceeds 6 bits")]
    fn dual_rejects_wide_delta_outside_expanded_group() {
        let mut deltas = [0u64; 64];
        deltas[0] = 64; // delta-group 0, but group 1 is expanded
        let _ = dual().pack(0, Some(1), &deltas);
    }

    #[test]
    #[should_panic(expected = "exceeds 10 bits")]
    fn dual_rejects_delta_beyond_expanded_capacity() {
        let mut deltas = [0u64; 64];
        deltas[0] = 1024;
        let _ = dual().pack(0, Some(0), &deltas);
    }

    #[test]
    #[should_panic(expected = "reference 72057594037927936 exceeds 56 bits")]
    fn a_reference_past_its_field_is_refused_not_wrapped() {
        let _ = flat().zeroed(1 << 56);
    }

    #[test]
    fn decode_latency_constant_matches_paper() {
        assert_eq!(DECODE_LATENCY_CYCLES, 2);
    }
}
