//! Hamming SEC-DED codes.
//!
//! Two codes are provided:
//!
//! * [`Secded72`] — the extended Hamming (72,64) code of mainstream ECC
//!   DIMMs: 64 data bits, 7 Hamming parity bits and one overall parity bit.
//!   Corrects any single-bit error and detects any double-bit error within
//!   an 8-byte word.
//! * [`Secded63`] — a shortened (63,56) extended Hamming code: 56 data bits,
//!   6 Hamming parity bits and one overall parity bit. This is the "7 parity
//!   bits over the MAC tag" code of Section 3.3 of the paper, used so that
//!   bit flips in the MAC itself can be told apart from (and corrected
//!   independently of) flips in the data.
//!
//! Both codes use the classic positional construction: codeword positions
//! are numbered from 1, parity bits sit at power-of-two positions, and the
//! syndrome directly names the flipped position. An extra overall parity bit
//! (position 0 in our storage layout) upgrades SEC to SEC-DED.

/// Result of decoding a SEC-DED protected word.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DecodeOutcome {
    /// No error was detected; the stored word is returned unchanged.
    Clean {
        /// The error-free data word.
        word: u64,
    },
    /// A single-bit error in the *data* bits was corrected.
    CorrectedData {
        /// The corrected data word.
        word: u64,
        /// Index (0-based, LSB first) of the data bit that was flipped.
        bit: u8,
    },
    /// A single-bit error in the *check* bits was corrected; the data word
    /// itself was intact.
    CorrectedCheck {
        /// The (already correct) data word.
        word: u64,
    },
    /// A double-bit error was detected. The word cannot be recovered.
    DoubleError,
    /// The syndrome is inconsistent with any single- or double-bit error
    /// (three or more flips, or flips in unused shortened positions).
    Uncorrectable,
}

impl DecodeOutcome {
    /// Returns the recovered data word if decoding succeeded (clean or
    /// corrected), `None` for detected-but-uncorrectable errors.
    #[must_use]
    pub fn corrected_word(&self) -> Option<u64> {
        match *self {
            DecodeOutcome::Clean { word }
            | DecodeOutcome::CorrectedData { word, .. }
            | DecodeOutcome::CorrectedCheck { word } => Some(word),
            DecodeOutcome::DoubleError | DecodeOutcome::Uncorrectable => None,
        }
    }

    /// Returns `true` if the stored word had no error at all.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        matches!(self, DecodeOutcome::Clean { .. })
    }

    /// Returns `true` if an error was detected (whether or not it was
    /// correctable).
    #[must_use]
    pub fn is_error(&self) -> bool {
        !self.is_clean()
    }
}

/// Builds the list of codeword positions that hold data bits: all positions
/// in `1..` that are not powers of two, in increasing order.
const fn data_positions<const N: usize>() -> [u32; N] {
    let mut out = [0u32; N];
    let mut pos = 1u32;
    let mut i = 0;
    while i < N {
        if pos & (pos - 1) != 0 {
            out[i] = pos;
            i += 1;
        }
        pos += 1;
    }
    out
}

/// Inverse of [`data_positions`]: maps a codeword position to the index of
/// the data bit stored there, or `u32::MAX` for parity/unused positions.
const fn position_to_data<const N: usize, const MAXPOS: usize>(
    positions: &[u32; N],
) -> [u32; MAXPOS] {
    let mut out = [u32::MAX; MAXPOS];
    let mut i = 0;
    while i < N {
        out[positions[i] as usize] = i as u32;
        i += 1;
    }
    out
}

/// Per-check-bit parity masks: bit `i` of mask `k` is set when data bit
/// `i` sits at a codeword position with bit `k` set, so Hamming parity
/// bit `k` is the parity of `data & masks[k]`.
const fn parity_masks<const N: usize, const HPAR: usize>(positions: &[u32; N]) -> [u64; HPAR] {
    let mut masks = [0u64; HPAR];
    let mut k = 0;
    while k < HPAR {
        let mut i = 0;
        while i < N {
            if positions[i] >> k & 1 == 1 {
                masks[k] |= 1u64 << i;
            }
            i += 1;
        }
        k += 1;
    }
    masks
}

/// Generic positional extended-Hamming engine shared by both code widths.
///
/// `DATA` is the number of data bits, `HPAR` the number of Hamming parity
/// bits, and `MAXPOS` must be one greater than the largest used codeword
/// position (so position arrays can be indexed directly).
struct Engine<const DATA: usize, const HPAR: usize, const MAXPOS: usize>;

impl<const DATA: usize, const HPAR: usize, const MAXPOS: usize> Engine<DATA, HPAR, MAXPOS> {
    /// Hamming parity bits for `data`, packed LSB-first (bit k of the result
    /// is the parity bit at codeword position `2^k`): one masked popcount
    /// per check bit.
    fn hamming_parity(data: u64, masks: &[u64; HPAR]) -> u8 {
        let mut par = 0u8;
        for (k, &mask) in masks.iter().enumerate() {
            par |= ((data & mask).count_ones() as u8 & 1) << k;
        }
        par
    }

    fn encode(data: u64, masks: &[u64; HPAR]) -> u8 {
        let hpar = Self::hamming_parity(data, masks);
        // Overall parity over data bits + hamming parity bits, stored so the
        // full codeword (incl. the overall bit) has even parity.
        let overall = (data.count_ones() + hpar.count_ones()) & 1;
        hpar | ((overall as u8) << HPAR)
    }

    fn decode(
        data: u64,
        check: u8,
        masks: &[u64; HPAR],
        pos_to_data: &[u32; MAXPOS],
    ) -> DecodeOutcome {
        let data = if DATA < 64 {
            data & ((1u64 << DATA) - 1)
        } else {
            data
        };
        let stored_hpar = check & ((1u8 << HPAR) - 1);
        let stored_overall = check >> HPAR & 1;
        let computed_hpar = Self::hamming_parity(data, masks);
        let syndrome = (stored_hpar ^ computed_hpar) as u32;
        let computed_overall = ((data.count_ones() + stored_hpar.count_ones()) & 1) as u8;
        let overall_mismatch = stored_overall != computed_overall;

        match (syndrome, overall_mismatch) {
            (0, false) => DecodeOutcome::Clean { word: data },
            (0, true) => {
                // Error in the overall parity bit itself.
                DecodeOutcome::CorrectedCheck { word: data }
            }
            (s, true) => {
                // Odd number of flips; assume a single flip at position `s`.
                if s.is_power_of_two() && s < MAXPOS as u32 {
                    DecodeOutcome::CorrectedCheck { word: data }
                } else if (s as usize) < MAXPOS && pos_to_data[s as usize] != u32::MAX {
                    let bit = pos_to_data[s as usize];
                    DecodeOutcome::CorrectedData {
                        word: data ^ (1u64 << bit),
                        bit: bit as u8,
                    }
                } else {
                    // Syndrome points at an unused (shortened) position:
                    // cannot be a single-bit error.
                    DecodeOutcome::Uncorrectable
                }
            }
            (_, false) => DecodeOutcome::DoubleError,
        }
    }
}

// (72,64): 64 data bits over positions 1..=71, parity at 1,2,4,8,16,32,64.
const POS72: [u32; 64] = data_positions::<64>();
const P2D72: [u32; 72] = position_to_data::<64, 72>(&POS72);
const MASKS72: [u64; 7] = parity_masks::<64, 7>(&POS72);

// (63,56): 56 data bits over the first 56 non-power positions of 1..=62,
// parity at 1,2,4,8,16,32. Position 63 is left unused (shortened).
const POS63: [u32; 56] = data_positions::<56>();
const P2D63: [u32; 64] = position_to_data::<56, 64>(&POS63);
const MASKS63: [u64; 6] = parity_masks::<56, 6>(&POS63);

/// Extended Hamming (72,64) SEC-DED code: protects one 8-byte word with an
/// 8-bit check byte, exactly as mainstream ECC DIMMs do.
///
/// # Example
///
/// ```
/// use ame_ecc::secded::{DecodeOutcome, Secded72};
///
/// let word = 42u64;
/// let check = Secded72::encode(word);
/// assert_eq!(Secded72::decode(word, check), DecodeOutcome::Clean { word });
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Secded72;

impl Secded72 {
    /// Number of data bits protected by one check byte.
    pub const DATA_BITS: u32 = 64;
    /// Number of check bits (7 Hamming + 1 overall parity).
    pub const CHECK_BITS: u32 = 8;

    /// Computes the 8-bit check byte for a 64-bit data word.
    #[must_use]
    pub fn encode(word: u64) -> u8 {
        Engine::<64, 7, 72>::encode(word, &MASKS72)
    }

    /// Decodes a stored (word, check) pair, correcting a single-bit error
    /// anywhere in the 72 stored bits and detecting double-bit errors.
    #[must_use]
    pub fn decode(word: u64, check: u8) -> DecodeOutcome {
        Engine::<64, 7, 72>::decode(word, check, &MASKS72, &P2D72)
    }
}

/// Shortened extended Hamming (63,56) SEC-DED code protecting a 56-bit MAC
/// tag with 7 check bits (Section 3.3 of the paper).
///
/// The 56-bit tag occupies the low bits of the `u64` argument; the top 8
/// bits are ignored.
///
/// # Example
///
/// ```
/// use ame_ecc::secded::{DecodeOutcome, Secded63};
///
/// let tag = 0x00ab_cdef_0123_4567_u64 & Secded63::TAG_MASK;
/// let check = Secded63::encode(tag);
/// let outcome = Secded63::decode(tag ^ (1 << 3), check);
/// assert_eq!(outcome.corrected_word(), Some(tag));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Secded63;

impl Secded63 {
    /// Number of data bits protected by one check value.
    pub const DATA_BITS: u32 = 56;
    /// Number of check bits (6 Hamming + 1 overall parity).
    pub const CHECK_BITS: u32 = 7;
    /// Mask selecting the 56 protected tag bits.
    pub const TAG_MASK: u64 = (1u64 << 56) - 1;

    /// Computes the 7-bit check value for a 56-bit tag (low bits of `tag`).
    #[must_use]
    pub fn encode(tag: u64) -> u8 {
        Engine::<56, 6, 64>::encode(tag & Self::TAG_MASK, &MASKS63)
    }

    /// Decodes a stored (tag, check) pair, correcting single-bit errors and
    /// detecting double-bit errors across the 63 stored bits.
    #[must_use]
    pub fn decode(tag: u64, check: u8) -> DecodeOutcome {
        Engine::<56, 6, 64>::decode(tag & Self::TAG_MASK, check, &MASKS63, &P2D63)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The per-bit-loop parity the masked popcount replaced, kept as the
    /// oracle the codes are checked against.
    fn oracle_parity(data: u64, positions: &[u32], hpar: u32) -> u8 {
        let mut par = 0u8;
        for k in 0..hpar {
            let mut p = 0u64;
            for (i, &pos) in positions.iter().enumerate() {
                if pos >> k & 1 == 1 {
                    p ^= data >> i & 1;
                }
            }
            par |= (p as u8) << k;
        }
        par
    }

    fn oracle_encode(data: u64, positions: &[u32], hpar: u32) -> u8 {
        let par = oracle_parity(data, positions, hpar);
        par | ((((data.count_ones() + par.count_ones()) & 1) as u8) << hpar)
    }

    fn oracle_decode(data: u64, check: u8, positions: &[u32], hpar: u32) -> DecodeOutcome {
        let data = data & (u64::MAX >> (64 - positions.len()));
        let stored_hpar = check & ((1u8 << hpar) - 1);
        let syndrome = u32::from(stored_hpar ^ oracle_parity(data, positions, hpar));
        let overall = ((data.count_ones() + stored_hpar.count_ones()) & 1) as u8;
        match (syndrome, check >> hpar & 1 != overall) {
            (0, false) => DecodeOutcome::Clean { word: data },
            (0, true) => DecodeOutcome::CorrectedCheck { word: data },
            // Every power of two an `hpar`-bit syndrome can hold is a
            // parity position of the code.
            (s, true) if s.is_power_of_two() => DecodeOutcome::CorrectedCheck { word: data },
            (s, true) => match positions.iter().position(|&pos| pos == s) {
                Some(bit) => DecodeOutcome::CorrectedData {
                    word: data ^ (1u64 << bit),
                    bit: bit as u8,
                },
                None => DecodeOutcome::Uncorrectable,
            },
            (_, false) => DecodeOutcome::DoubleError,
        }
    }

    /// Every single and double flip over the `data_bits + check_bits`
    /// stored bits of 1 000 seeded words decodes exactly as the oracle.
    fn equivalent_on_all_flips(
        positions: &[u32],
        hpar: u32,
        encode: fn(u64) -> u8,
        decode: fn(u64, u8) -> DecodeOutcome,
    ) {
        let data_bits = positions.len() as u32;
        let stored_bits = data_bits + hpar + 1;
        let flip = |word: u64, check: u8, bit: u32| {
            if bit < data_bits {
                (word ^ (1u64 << bit), check)
            } else {
                (word, check ^ (1u8 << (bit - data_bits)))
            }
        };
        let mut rng = ame_prng::StdRng::seed_from_u64(0x5ec_ded0 + u64::from(data_bits));
        for _ in 0..1_000 {
            let word = rng.next_u64() & (u64::MAX >> (64 - data_bits));
            let check = encode(word);
            assert_eq!(check, oracle_encode(word, positions, hpar), "{word:#x}");
            assert_eq!(decode(word, check), DecodeOutcome::Clean { word });
            for a in 0..stored_bits {
                let (w1, c1) = flip(word, check, a);
                assert_eq!(
                    decode(w1, c1),
                    oracle_decode(w1, c1, positions, hpar),
                    "{word:#x} flip {a}"
                );
                assert_eq!(decode(w1, c1).corrected_word(), Some(word));
                for b in a + 1..stored_bits {
                    let (w2, c2) = flip(w1, c1, b);
                    assert_eq!(
                        decode(w2, c2),
                        oracle_decode(w2, c2, positions, hpar),
                        "{word:#x} flips {a},{b}"
                    );
                    assert_eq!(decode(w2, c2), DecodeOutcome::DoubleError);
                }
            }
        }
    }

    #[test]
    fn secded72_matches_the_per_bit_oracle_on_all_single_and_double_flips() {
        equivalent_on_all_flips(&POS72, 7, Secded72::encode, Secded72::decode);
    }

    #[test]
    fn secded63_matches_the_per_bit_oracle_on_all_single_and_double_flips() {
        equivalent_on_all_flips(&POS63, 6, Secded63::encode, Secded63::decode);
    }

    #[test]
    fn shortened_position_syndrome_is_uncorrectable_63() {
        // Three flips whose positions XOR to 63, the one position the
        // shortened code leaves unused: odd weight, but no single stored
        // bit explains the syndrome.
        let tag = 0x00c0_ffee_1234_5678u64 & Secded63::TAG_MASK;
        let check = Secded63::encode(tag);
        let (a, b, c) = (P2D63[3], P2D63[12], P2D63[48]);
        assert_eq!(3 ^ 12 ^ 48, 63);
        let bad = tag ^ (1u64 << a) ^ (1u64 << b) ^ (1u64 << c);
        assert_eq!(Secded63::decode(bad, check), DecodeOutcome::Uncorrectable);
        assert_eq!(
            oracle_decode(bad, check, &POS63, 6),
            DecodeOutcome::Uncorrectable
        );
    }

    #[test]
    fn positions_are_non_powers_in_order() {
        assert_eq!(&POS72[..6], &[3, 5, 6, 7, 9, 10]);
        assert_eq!(POS72[63], 71);
        assert_eq!(POS63[55], 62);
        for w in POS72.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn clean_roundtrip_72() {
        for word in [0u64, u64::MAX, 0x0123_4567_89ab_cdef, 1, 1 << 63] {
            let check = Secded72::encode(word);
            assert_eq!(Secded72::decode(word, check), DecodeOutcome::Clean { word });
        }
    }

    #[test]
    fn corrects_every_single_data_bit_72() {
        let word = 0x5a5a_a5a5_3cc3_0ff0u64;
        let check = Secded72::encode(word);
        for bit in 0..64 {
            let outcome = Secded72::decode(word ^ (1u64 << bit), check);
            assert_eq!(
                outcome,
                DecodeOutcome::CorrectedData { word, bit },
                "bit {bit}"
            );
        }
    }

    #[test]
    fn corrects_every_single_check_bit_72() {
        let word = 0x0102_0304_0506_0708u64;
        let check = Secded72::encode(word);
        for bit in 0..8 {
            let outcome = Secded72::decode(word, check ^ (1u8 << bit));
            assert_eq!(outcome, DecodeOutcome::CorrectedCheck { word }, "bit {bit}");
        }
    }

    #[test]
    fn detects_double_bit_errors_72() {
        let word = 0xffee_ddcc_bbaa_9988u64;
        let check = Secded72::encode(word);
        // data+data flips
        for (a, b) in [(0u32, 1u32), (5, 63), (17, 42), (30, 31)] {
            let bad = word ^ (1u64 << a) ^ (1u64 << b);
            assert_eq!(Secded72::decode(bad, check), DecodeOutcome::DoubleError);
        }
        // data+check flips
        for (a, b) in [(0u32, 0u32), (63, 7), (12, 3)] {
            let outcome = Secded72::decode(word ^ (1u64 << a), check ^ (1u8 << b));
            assert_eq!(outcome, DecodeOutcome::DoubleError, "data {a} check {b}");
        }
    }

    #[test]
    fn exhaustive_double_data_bit_detection_72() {
        let word = 0x0f0f_f0f0_1234_5678u64;
        let check = Secded72::encode(word);
        for a in 0..64u32 {
            for b in (a + 1)..64 {
                let bad = word ^ (1u64 << a) ^ (1u64 << b);
                assert_eq!(
                    Secded72::decode(bad, check),
                    DecodeOutcome::DoubleError,
                    "bits {a},{b}"
                );
            }
        }
    }

    #[test]
    fn clean_roundtrip_63() {
        for tag in [
            0u64,
            Secded63::TAG_MASK,
            0x00aa_5500_ff11_2233 & Secded63::TAG_MASK,
        ] {
            let check = Secded63::encode(tag);
            assert_eq!(
                Secded63::decode(tag, check),
                DecodeOutcome::Clean { word: tag }
            );
        }
    }

    #[test]
    fn corrects_every_single_tag_bit_63() {
        let tag = 0x00a5_c3e1_7b2d_9f04u64 & Secded63::TAG_MASK;
        let check = Secded63::encode(tag);
        for bit in 0..56 {
            let outcome = Secded63::decode(tag ^ (1u64 << bit), check);
            assert_eq!(
                outcome,
                DecodeOutcome::CorrectedData { word: tag, bit },
                "bit {bit}"
            );
        }
    }

    #[test]
    fn corrects_every_single_check_bit_63() {
        let tag = 0x0011_2233_4455_6677u64 & Secded63::TAG_MASK;
        let check = Secded63::encode(tag);
        for bit in 0..7 {
            let outcome = Secded63::decode(tag, check ^ (1u8 << bit));
            assert_eq!(
                outcome,
                DecodeOutcome::CorrectedCheck { word: tag },
                "bit {bit}"
            );
        }
    }

    #[test]
    fn detects_double_bit_errors_63() {
        let tag = 0x00de_adbe_efca_fe01u64 & Secded63::TAG_MASK;
        let check = Secded63::encode(tag);
        for a in 0..56u32 {
            for b in (a + 1)..56 {
                let bad = tag ^ (1u64 << a) ^ (1u64 << b);
                assert_eq!(
                    Secded63::decode(bad, check),
                    DecodeOutcome::DoubleError,
                    "bits {a},{b}"
                );
            }
        }
    }

    #[test]
    fn ignores_high_tag_bits_63() {
        let tag = 0x1234_5678_9abc_def0u64;
        let check = Secded63::encode(tag);
        assert_eq!(check, Secded63::encode(tag & Secded63::TAG_MASK));
        let outcome = Secded63::decode(tag, check);
        assert_eq!(
            outcome,
            DecodeOutcome::Clean {
                word: tag & Secded63::TAG_MASK
            }
        );
    }

    #[test]
    fn outcome_helpers() {
        let clean = DecodeOutcome::Clean { word: 9 };
        assert!(clean.is_clean());
        assert!(!clean.is_error());
        assert_eq!(clean.corrected_word(), Some(9));
        assert_eq!(DecodeOutcome::DoubleError.corrected_word(), None);
        assert!(DecodeOutcome::DoubleError.is_error());
        assert_eq!(
            DecodeOutcome::CorrectedData { word: 5, bit: 1 }.corrected_word(),
            Some(5)
        );
    }
}
