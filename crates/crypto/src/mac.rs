//! Carter-Wegman message authentication over GF(2^64).
//!
//! The paper (Section 3.2) relies on SGX's 56-bit Carter-Wegman MACs, which
//! are "essentially composed Galois field multiplications \[that\] can be
//! computed within a single cycle in hardware". We implement the same
//! structure in software:
//!
//! 1. A polynomial-evaluation universal hash over GF(2^64): the 64-byte
//!    message is split into eight 64-bit words `m0..m7` and hashed as
//!    `(((m0·H + m1)·H + m2)·H + ...)·H` with a secret hash key `H`.
//! 2. The hash is masked (one-time-pad style) by AES applied to the
//!    (address, counter) nonce, making tags unforgeable and unlinkable.
//! 3. The result is truncated to 56 bits for data blocks (SGX width), or
//!    kept at 64 bits for integrity-tree nodes.
//!
//! GF(2^64) is realized modulo the primitive polynomial
//! `x^64 + x^4 + x^3 + x + 1`.
//!
//! Tags are made only by [`crate::MemoryCipher`], from crate-private
//! kernels run on the tier it chose at key derivation: `pads_with`
//! produces every mask (one nonce or many, no heap allocation),
//! `poly_hash_powers_with` hashes one message from the key's word
//! multipliers `[H⁸ … H]`, and `tags_with` tags a run in the caller's
//! buffer; a tag is the hash XOR its mask. The one
//! public item here is [`MacProbe`], the flip-and-check state
//! [`crate::MemoryCipher::mac_probe`] returns.
//!
//! # Example
//!
//! ```
//! use ame_crypto::MemoryCipher;
//!
//! let cipher = MemoryCipher::from_seed(2);
//! let block = [0xaau8; 64];
//! let tag = cipher.mac_block(0x40, 1, &block);
//! // The tag binds the block's address and counter as well as its bits.
//! assert_ne!(tag, cipher.mac_block(0x80, 1, &block));
//! assert_ne!(tag, cipher.mac_block(0x40, 2, &block));
//! // A flip-and-check probe predicts the tag of any one-bit flip.
//! let mut flipped = block;
//! flipped[3] ^= 0x10;
//! let probe = cipher.mac_probe(0x40, 1, &block);
//! assert_eq!(probe.base_tag(), tag);
//! assert_eq!(probe.tag_with_flip(3 * 8 + 4), cipher.mac_block(0x40, 1, &flipped));
//! ```

use crate::aes::Aes128;
use crate::backend::{self, Backend};
use crate::ctr::mac_nonce_block;
use crate::{BLOCK_BYTES, TAG_MASK};
use std::sync::Arc;

/// Low 64 bits of the reduction polynomial `x^64 + x^4 + x^3 + x + 1`.
const POLY: u64 = 0x1b;

/// Carry-less multiplication of two 64-bit values, returning the 128-bit
/// product as `(high, low)`, on `backend` (one PCLMULQDQ instruction on
/// the hardware tiers; a 64-iteration bit loop otherwise).
#[must_use]
pub(crate) fn clmul_with(backend: Backend, a: u64, b: u64) -> (u64, u64) {
    #[cfg(target_arch = "x86_64")]
    if backend.is_accelerated() && backend::accel_available() {
        return crate::accel::clmul(a, b);
    }
    let _ = backend;
    clmul_portable(a, b)
}

/// The byte-oriented reference carry-less multiply (the cross-check
/// baseline for the PCLMULQDQ path).
fn clmul_portable(a: u64, b: u64) -> (u64, u64) {
    let mut lo = 0u64;
    let mut hi = 0u64;
    for i in 0..64 {
        if b >> i & 1 == 1 {
            lo ^= a << i;
            if i != 0 {
                hi ^= a >> (64 - i);
            }
        }
    }
    (hi, lo)
}

/// Multiplication in GF(2^64) modulo `x^64 + x^4 + x^3 + x + 1`, on
/// `backend`.
#[must_use]
pub(crate) fn gf64_mul_with(backend: Backend, a: u64, b: u64) -> u64 {
    #[cfg(target_arch = "x86_64")]
    if backend.is_accelerated() && backend::accel_available() {
        return crate::accel::gf64_mul(a, b);
    }
    let _ = backend;
    let (mut hi, mut lo) = clmul_portable(a, b);
    // Reduce the high 64 bits twice: folding hi multiplies it by x^64 ≡ POLY.
    for _ in 0..2 {
        if hi == 0 {
            break;
        }
        let (h2, l2) = clmul_portable(hi, POLY);
        hi = h2;
        lo ^= l2;
    }
    lo
}

/// Polynomial-evaluation hash of a 64-byte block under hash key `h`, by
/// Horner's rule on `backend` (the backend is resolved once for all
/// eight word multiplies). The reference every other hash kernel is
/// checked against.
#[must_use]
pub(crate) fn poly_hash_with(backend: Backend, h: u64, block: &[u8; BLOCK_BYTES]) -> u64 {
    let mut acc = 0u64;
    for chunk in block.chunks_exact(8) {
        let mut w = [0u8; 8];
        w.copy_from_slice(chunk);
        acc = gf64_mul_with(backend, acc ^ u64::from_le_bytes(w), h);
    }
    acc
}

/// The multiplier each message word takes in [`poly_hash_with`] under
/// hash key `h`: entry `w` is `H^(8-w)`, so the hash is
/// `Σ m_w · powers[w]` — `[H⁸, H⁷, …, H]`. Derived once per key (seven
/// GF multiplies) by [`crate::MemoryCipher`], on the portable reference
/// so that the backend self-test can use it while the backend is still
/// being chosen.
#[must_use]
pub(crate) fn hash_powers(h: u64) -> [u64; 8] {
    let mut powers = [h; 8];
    for w in (0..7).rev() {
        powers[w] = gf64_mul_with(Backend::Portable, powers[w + 1], h);
    }
    powers
}

/// The hash of a single message: [`poly_hash_with`] from the hash key's
/// word multipliers ([`hash_powers`]), on `backend`. The hardware tiers
/// form the eight products independently and reduce once; the portable
/// tier keeps the Horner evaluation as the reference. The result is
/// bit-identical either way.
#[must_use]
pub(crate) fn poly_hash_powers_with(
    backend: Backend,
    powers: &[u64; 8],
    block: &[u8; BLOCK_BYTES],
) -> u64 {
    #[cfg(target_arch = "x86_64")]
    if backend.is_accelerated() && backend::accel_available() {
        return crate::accel::poly_hash_powers(powers, block);
    }
    poly_hash_with(backend, powers[7], block)
}

/// Writes the full-width tag of each message of a run into `tags`:
/// its hash under the word multipliers `powers` XOR the pad of its
/// nonce, bit-identical to one [`poly_hash_powers_with`] and one
/// [`pads_with`] per message. A run of `wide::MIN_RUN` or more on the
/// wide tier hashes and pads its whole register groups in the same wide
/// registers; the last few messages of such a run, shorter runs and the
/// other tiers hash each message in powers form and XOR the pads in from
/// [`pads_with`].
///
/// # Panics
///
/// Panics unless `nonces`, `blocks` and `tags` have one length.
pub(crate) fn tags_with(
    backend: Backend,
    mac_key: &Aes128,
    powers: &[u64; 8],
    nonces: &[(u64, u64)],
    blocks: &[[u8; BLOCK_BYTES]],
    tags: &mut [u64],
) {
    assert!(
        nonces.len() == blocks.len() && nonces.len() == tags.len(),
        "one nonce and one tag per message"
    );
    let mut done = 0;
    #[cfg(target_arch = "x86_64")]
    if backend.is_wide() && nonces.len() >= crate::wide::MIN_RUN && backend::wide_available() {
        let (shape, keys) = (crate::wide::Shape::host(), mac_key.round_keys());
        done = crate::wide::tags(shape, keys, powers, nonces, blocks, tags);
    }
    let (nonces, tags) = (&nonces[done..], &mut tags[done..]);
    for (tag, block) in tags.iter_mut().zip(&blocks[done..]) {
        *tag = poly_hash_powers_with(backend, powers, block);
    }
    pads_with(backend, mac_key, nonces, tags);
}

/// XORs the tag mask of each `(addr, counter)` nonce in `nonces` into
/// the matching slot of `pads`, on `backend` and without heap
/// allocation — the one producer of MAC pads. Slots holding zeros come
/// out as the masks (a tree walk's prefetch, a data tag's pad); slots
/// holding the messages' hashes come out as their tags (a batch). A
/// single nonce is one AES block; more run through pipelined AES passes
/// over a stack buffer. A mask does not depend on the message, so a
/// caller whose messages depend on each other's tags (an integrity-tree
/// path update) can fetch every mask up front and finish each tag as
/// its message becomes known: the tag is the message's
/// [`poly_hash_powers_with`] XOR its mask ([`crate::NodeMacs`]).
///
/// Inlined so that a data tag's one-nonce call folds to its single AES
/// block: out of line, the slice plumbing cost a data tag about 10 %.
///
/// # Panics
///
/// Panics if `nonces` and `pads` have different lengths.
#[inline]
pub(crate) fn pads_with(
    backend: Backend,
    mac_key: &Aes128,
    nonces: &[(u64, u64)],
    pads: &mut [u64],
) {
    assert_eq!(nonces.len(), pads.len(), "pads_with: one pad per nonce");
    // A data tag's one nonce is one AES block: no buffer to clear and no
    // batch kernel to enter. A walk's few nonces take a small buffer (a
    // 64-slot one costs a 7-level walk ~20 ns to clear); a batch's take
    // one the wide kernel fills four groups from per call.
    match nonces {
        &[(addr, counter)] => {
            let block = mac_key.encrypt_block_with(backend, &mac_nonce_block(addr, counter));
            pads[0] ^= pad_word(&block);
        }
        _ if nonces.len() <= 16 => xor_pads::<16>(backend, mac_key, nonces, pads),
        _ => xor_pads::<64>(backend, mac_key, nonces, pads),
    }
}

/// [`pads_with`] through a stack buffer of `CHUNK` AES blocks.
#[inline]
fn xor_pads<const CHUNK: usize>(
    backend: Backend,
    mac_key: &Aes128,
    nonces: &[(u64, u64)],
    pads: &mut [u64],
) {
    let mut blocks = [[0u8; 16]; CHUNK];
    for (nonces, pads) in nonces.chunks(CHUNK).zip(pads.chunks_mut(CHUNK)) {
        let blocks = &mut blocks[..nonces.len()];
        for (block, &(addr, counter)) in blocks.iter_mut().zip(nonces) {
            *block = mac_nonce_block(addr, counter);
        }
        mac_key.encrypt_blocks_with(backend, blocks);
        for (pad, block) in pads.iter_mut().zip(blocks.iter()) {
            *pad ^= pad_word(block);
        }
    }
}

/// The 64 mask bits a tag takes from its 16-byte AES pad.
fn pad_word(pad: &[u8; 16]) -> u64 {
    let mut p8 = [0u8; 8];
    p8.copy_from_slice(&pad[..8]);
    u64::from_le_bytes(p8)
}

/// Precomputes the 512 per-bit tag contributions of hash key `h` on
/// `backend`: entry `word * 64 + bit` is the XOR a flip of that message
/// bit applies to the tag. The table depends **only on the hash key**,
/// so [`crate::MemoryCipher`] builds it once per key and shares it with
/// every [`MacProbe`] it returns.
#[must_use]
pub(crate) fn probe_contributions(backend: Backend, h: u64) -> Arc<[u64; 512]> {
    let h_pow = hash_powers(h);
    let mut contributions = Arc::new([0u64; 512]);
    let table = Arc::get_mut(&mut contributions).expect("freshly created");
    for word in 0..8 {
        for bit in 0..64 {
            table[word * 64 + bit] = gf64_mul_with(backend, 1u64 << bit, h_pow[word]);
        }
    }
    contributions
}

/// Precomputed state for *flip-and-check* error correction (Section 3.4),
/// built by [`crate::MemoryCipher::mac_probe`].
///
/// The polynomial hash is GF(2^64)-linear in the message, so the tag of a
/// block with bit `b` of word `w` flipped differs from the original tag by
/// a fixed XOR `contribution = (1 << b) * H^(8-w)`. Precomputing all 512
/// contributions turns each flip-and-check hypothesis into a single XOR
/// and compare — the software analogue of the paper's observation that
/// hardware GF multipliers make brute-force correction feasible "within
/// 100s of nanoseconds".
#[derive(Debug, Clone)]
pub struct MacProbe {
    /// The full-width tag of the unmodified block.
    pub(crate) base_tag_full: u64,
    /// The cipher's per-key table from [`probe_contributions`].
    pub(crate) contributions: Arc<[u64; 512]>,
}

impl MacProbe {
    /// The 56-bit tag of the unmodified block.
    #[must_use]
    pub fn base_tag(&self) -> u64 {
        self.base_tag_full & TAG_MASK
    }

    /// The 56-bit tag the block would have with global data bit `bit`
    /// (`0..512`) flipped.
    ///
    /// # Panics
    ///
    /// Panics if `bit >= 512`.
    #[must_use]
    pub fn tag_with_flip(&self, bit: u32) -> u64 {
        (self.base_tag_full ^ self.contributions[bit as usize]) & TAG_MASK
    }

    /// The 56-bit tag with two distinct data bits flipped.
    ///
    /// # Panics
    ///
    /// Panics if either bit is `>= 512`.
    #[must_use]
    pub fn tag_with_flips(&self, bit_a: u32, bit_b: u32) -> u64 {
        (self.base_tag_full
            ^ self.contributions[bit_a as usize]
            ^ self.contributions[bit_b as usize])
            & TAG_MASK
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemoryCipher;
    use ame_prng::StdRng;

    fn clmul(a: u64, b: u64) -> (u64, u64) {
        clmul_with(backend::active(), a, b)
    }

    fn gf64_mul(a: u64, b: u64) -> u64 {
        gf64_mul_with(backend::active(), a, b)
    }

    fn poly_hash(h: u64, block: &[u8; BLOCK_BYTES]) -> u64 {
        poly_hash_with(backend::active(), h, block)
    }

    #[test]
    fn clmul_basics() {
        assert_eq!(clmul(0, 123), (0, 0));
        assert_eq!(clmul(1, 123), (0, 123));
        assert_eq!(clmul(2, 3), (0, 6)); // x * (x+1) = x^2 + x
                                         // (x^63) * x = x^64 -> high word bit 0
        assert_eq!(clmul(1 << 63, 2), (1, 0));
    }

    #[test]
    fn clmul_matches_gf_reduction_identity() {
        let mut rng = StdRng::seed_from_u64(0xAE_03);
        for _ in 0..256 {
            let a = rng.next_u64();
            // clmul by 1 is the identity with no high part.
            assert_eq!(clmul(a, 1), (0, a));
            assert_eq!(gf64_mul(a, 1), a);
        }
    }

    #[test]
    fn clmul_commutes() {
        let mut rng = StdRng::seed_from_u64(0xAE_04);
        for _ in 0..256 {
            let a = rng.next_u64();
            let b = rng.next_u64();
            assert_eq!(clmul(a, b), clmul(b, a));
        }
    }

    #[test]
    fn gf64_identity_and_zero() {
        let mut rng = StdRng::seed_from_u64(0x6F_04);
        let random = (0..256).map(|_| rng.next_u64());
        for v in [0u64, 1, 0xdead_beef, u64::MAX].into_iter().chain(random) {
            assert_eq!(gf64_mul(v, 1), v);
            assert_eq!(gf64_mul(1, v), v);
            assert_eq!(gf64_mul(v, 0), 0);
        }
    }

    #[test]
    fn gf64_commutative_associative_distributive() {
        let samples = [
            1u64,
            2,
            3,
            0x1234_5678_9abc_def0,
            u64::MAX,
            0x8000_0000_0000_0001,
        ];
        for &a in &samples {
            for &b in &samples {
                assert_eq!(gf64_mul(a, b), gf64_mul(b, a));
                for &c in &samples {
                    assert_eq!(gf64_mul(gf64_mul(a, b), c), gf64_mul(a, gf64_mul(b, c)));
                    assert_eq!(gf64_mul(a, b ^ c), gf64_mul(a, b) ^ gf64_mul(a, c));
                }
            }
        }
    }

    #[test]
    fn gf64_commutative() {
        let mut rng = StdRng::seed_from_u64(0x6F_01);
        for _ in 0..256 {
            let (a, b) = (rng.next_u64(), rng.next_u64());
            assert_eq!(gf64_mul(a, b), gf64_mul(b, a));
        }
    }

    #[test]
    fn gf64_associative() {
        let mut rng = StdRng::seed_from_u64(0x6F_02);
        for _ in 0..256 {
            let (a, b, c) = (rng.next_u64(), rng.next_u64(), rng.next_u64());
            assert_eq!(gf64_mul(gf64_mul(a, b), c), gf64_mul(a, gf64_mul(b, c)));
        }
    }

    #[test]
    fn gf64_distributive() {
        let mut rng = StdRng::seed_from_u64(0x6F_03);
        for _ in 0..256 {
            let (a, b, c) = (rng.next_u64(), rng.next_u64(), rng.next_u64());
            assert_eq!(gf64_mul(a, b ^ c), gf64_mul(a, b) ^ gf64_mul(a, c));
        }
    }

    #[test]
    fn hash_depends_on_every_word() {
        let h = 0x0123_4567_89ab_cdef | 1;
        let base = [0x11u8; 64];
        let h0 = poly_hash(h, &base);
        for word in 0..8 {
            let mut b = base;
            b[word * 8] ^= 1;
            assert_ne!(poly_hash(h, &b), h0, "word {word}");
        }
    }

    #[test]
    fn hash_position_sensitive() {
        // Swapping two different words must change the hash (a sum-based
        // hash would not notice).
        let h = 0x9e37_79b9_7f4a_7c15;
        let mut a = [0u8; 64];
        a[0] = 1;
        a[8] = 2;
        let mut b = [0u8; 64];
        b[0] = 2;
        b[8] = 1;
        assert_ne!(poly_hash(h, &a), poly_hash(h, &b));
    }

    #[test]
    fn probe_matches_recomputation_single() {
        let c = MemoryCipher::from_seed(3);
        let block: [u8; 64] = core::array::from_fn(|i| (i as u8).wrapping_mul(13));
        let probe = c.mac_probe(0x40, 7, &block);
        assert_eq!(probe.base_tag(), c.mac_block(0x40, 7, &block));
        for bit in (0..512u32).step_by(11) {
            let mut flipped = block;
            flipped[(bit / 8) as usize] ^= 1 << (bit % 8);
            assert_eq!(
                probe.tag_with_flip(bit),
                c.mac_block(0x40, 7, &flipped),
                "bit {bit}"
            );
        }
    }

    #[test]
    fn probe_matches_recomputation_double() {
        let c = MemoryCipher::from_seed(8);
        let block = [0x3cu8; 64];
        let probe = c.mac_probe(0, 1, &block);
        for (a, b) in [(0u32, 1u32), (5, 300), (63, 64), (500, 511)] {
            let mut flipped = block;
            flipped[(a / 8) as usize] ^= 1 << (a % 8);
            flipped[(b / 8) as usize] ^= 1 << (b % 8);
            assert_eq!(
                probe.tag_with_flips(a, b),
                c.mac_block(0, 1, &flipped),
                "{a},{b}"
            );
        }
    }

    #[test]
    fn cached_contribution_table_matches_fresh_probe() {
        // Every probe shares the table the cipher derived once, and that
        // table is the one a fresh portable derivation gives.
        let c = MemoryCipher::from_seed(5);
        let block = [0x7eu8; 64];
        let a = c.mac_probe(0x80, 3, &block);
        let b = c.mac_probe(0xc0, 4, &block);
        assert!(Arc::ptr_eq(&a.contributions, &b.contributions));
        let fresh = probe_contributions(Backend::Portable, c.hash_powers[7]);
        assert_eq!(a.contributions[..], fresh[..]);
    }

    #[test]
    fn backends_agree_on_gf_arithmetic() {
        // Trivially true on portable-only hosts; pins the dispatch seam
        // on AES-NI/PCLMULQDQ hosts.
        for (a, b) in [
            (0u64, 0u64),
            (1, u64::MAX),
            (0xdead_beef_cafe_f00d, 0x0123_4567_89ab_cdef),
            (1 << 63, 1 << 63),
        ] {
            for backend in Backend::ALL {
                assert_eq!(
                    clmul_with(backend, a, b),
                    clmul_with(Backend::Portable, a, b)
                );
                assert_eq!(
                    gf64_mul_with(backend, a, b),
                    gf64_mul_with(Backend::Portable, a, b)
                );
            }
        }
    }

    #[test]
    fn batched_tags_match_serial_on_every_backend() {
        let nonces: Vec<(u64, u64)> = (0..21).map(|i| (i * 64, i ^ 3)).collect();
        let blocks: Vec<[u8; 64]> = (0..21u64)
            .map(|i| core::array::from_fn(|j| (i as usize * 41 + j * 7) as u8))
            .collect();
        for backend in Backend::ALL {
            let c = MemoryCipher::on(backend, 0x6c);
            let tags = c.mac_batch(&nonces, &blocks);
            for (i, (&(addr, ctr), block)) in nonces.iter().zip(&blocks).enumerate() {
                assert_eq!(
                    tags[i],
                    c.mac_block(addr, ctr, block),
                    "{backend} message {i}"
                );
            }
            assert!(c.mac_batch(&[], &[]).is_empty());

            // Full-width node MACs: the pad-prefetched chain equals the
            // per-node tag.
            let mut pads = [0u64; 21];
            c.mac_node_pads(&nonces, &mut pads);
            let mut macs = c.node_macs();
            for (i, (&(addr, ctr), block)) in nonces.iter().zip(&blocks).enumerate() {
                assert_eq!(
                    macs.mac(pads[i], block),
                    c.mac_node(addr, ctr, block),
                    "{backend} padded node {i}"
                );
            }
        }
    }

    #[test]
    fn tags_are_nonce_bound() {
        let c = MemoryCipher::from_seed(7);
        let block = [9u8; 64];
        let t = c.mac_block(64, 1, &block);
        assert_ne!(t, c.mac_block(128, 1, &block));
        assert_ne!(t, c.mac_block(64, 2, &block));
        assert_eq!(t, c.mac_block(64, 1, &block));
        assert_eq!(t & !TAG_MASK, 0);
    }
}
