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

use crate::aes::Aes128;
use crate::backend::{self, Backend};
use crate::ctr::{mac_pad_with, mac_pads_batch_with};
use crate::{BLOCK_BYTES, TAG_MASK};
use std::sync::Arc;

/// Low 64 bits of the reduction polynomial `x^64 + x^4 + x^3 + x + 1`.
const POLY: u64 = 0x1b;

/// Carry-less multiplication of two 64-bit values, returning the 128-bit
/// product as `(high, low)`, on the process-wide active backend (one
/// PCLMULQDQ instruction when available; a 64-iteration bit loop
/// otherwise).
#[must_use]
pub fn clmul(a: u64, b: u64) -> (u64, u64) {
    clmul_with(backend::active(), a, b)
}

/// [`clmul`] on an explicitly chosen backend.
#[must_use]
pub fn clmul_with(backend: Backend, a: u64, b: u64) -> (u64, u64) {
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

/// Multiplication in GF(2^64) modulo `x^64 + x^4 + x^3 + x + 1`, on the
/// process-wide active backend.
///
/// # Example
///
/// ```
/// use ame_crypto::mac::gf64_mul;
///
/// // 1 is the multiplicative identity.
/// assert_eq!(gf64_mul(0xdead_beef, 1), 0xdead_beef);
/// // Multiplication is commutative.
/// assert_eq!(gf64_mul(3, 7), gf64_mul(7, 3));
/// ```
#[must_use]
pub fn gf64_mul(a: u64, b: u64) -> u64 {
    gf64_mul_with(backend::active(), a, b)
}

/// [`gf64_mul`] on an explicitly chosen backend.
#[must_use]
pub fn gf64_mul_with(backend: Backend, a: u64, b: u64) -> u64 {
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

/// Polynomial-evaluation hash of a 64-byte block under hash key `h`.
#[must_use]
pub fn poly_hash(h: u64, block: &[u8; BLOCK_BYTES]) -> u64 {
    poly_hash_with(backend::active(), h, block)
}

/// [`poly_hash`] on an explicitly chosen backend (the backend is
/// resolved once for all eight word multiplies).
#[must_use]
pub fn poly_hash_with(backend: Backend, h: u64, block: &[u8; BLOCK_BYTES]) -> u64 {
    let mut acc = 0u64;
    for chunk in block.chunks_exact(8) {
        let mut w = [0u8; 8];
        w.copy_from_slice(chunk);
        acc = gf64_mul_with(backend, acc ^ u64::from_le_bytes(w), h);
    }
    acc
}

/// Polynomial hashes of many independent 64-byte messages under one
/// hash key — bit-identical to calling [`poly_hash_with`] per message.
///
/// On the wide tier this runs the multi-message VPCLMULQDQ kernel
/// (several Horner chains in flight per register group, `H⁴` lane
/// constants squared once per batch); on the accelerated tier,
/// [`crate::accel::MAC_LANES`] interleaved PCLMULQDQ chains; on
/// portable, a plain loop.
#[must_use]
pub fn poly_hash_batch_with(backend: Backend, h: u64, blocks: &[[u8; BLOCK_BYTES]]) -> Vec<u64> {
    #[cfg(target_arch = "x86_64")]
    if backend.is_wide() && backend::wide_available() {
        return crate::wide::poly_hash_batch(h, blocks);
    }
    #[cfg(target_arch = "x86_64")]
    if backend.is_accelerated() && backend::accel_available() {
        return crate::accel::poly_hash_batch(h, blocks);
    }
    blocks
        .iter()
        .map(|block| poly_hash_with(backend, h, block))
        .collect()
}

/// Batched 56-bit Carter-Wegman tags: one tag per `(addr, counter)`
/// nonce in `nonces` over the corresponding message in `blocks` —
/// bit-identical to calling [`tag`] per message, computed as one
/// multi-message hash pass plus one pipelined AES pass for the pads.
///
/// # Panics
///
/// Panics if `nonces` and `blocks` have different lengths.
///
/// # Example
///
/// ```
/// use ame_crypto::aes::Aes128;
/// use ame_crypto::mac::{tag, tags_batch};
///
/// let k = Aes128::new(&[2u8; 16]);
/// let h = 0x1234_5678_9abc_def1;
/// let nonces = [(0x00, 1), (0x40, 1), (0x80, 9)];
/// let blocks = [[0xaau8; 64], [0xbbu8; 64], [0xccu8; 64]];
/// let tags = tags_batch(&k, h, &nonces, &blocks);
/// for i in 0..3 {
///     assert_eq!(tags[i], tag(&k, h, nonces[i].0, nonces[i].1, &blocks[i]));
/// }
/// ```
#[must_use]
pub fn tags_batch(
    mac_key: &Aes128,
    hash_key: u64,
    nonces: &[(u64, u64)],
    blocks: &[[u8; BLOCK_BYTES]],
) -> Vec<u64> {
    tags_batch_with(backend::active(), mac_key, hash_key, nonces, blocks)
}

/// [`tags_batch`] on an explicitly chosen backend.
#[must_use]
pub fn tags_batch_with(
    backend: Backend,
    mac_key: &Aes128,
    hash_key: u64,
    nonces: &[(u64, u64)],
    blocks: &[[u8; BLOCK_BYTES]],
) -> Vec<u64> {
    let mut tags = tags_full_batch_with(backend, mac_key, hash_key, nonces, blocks);
    for tag in &mut tags {
        *tag &= TAG_MASK;
    }
    tags
}

/// Batched full 64-bit tags (the untruncated analogue of
/// [`tags_batch_with`], used for tree-node widths and batched probe
/// construction).
#[must_use]
pub fn tags_full_batch_with(
    backend: Backend,
    mac_key: &Aes128,
    hash_key: u64,
    nonces: &[(u64, u64)],
    blocks: &[[u8; BLOCK_BYTES]],
) -> Vec<u64> {
    assert_eq!(
        nonces.len(),
        blocks.len(),
        "tags_batch: one nonce per message"
    );
    let mut tags = poly_hash_batch_with(backend, hash_key, blocks);
    let pads = mac_pads_batch_with(backend, mac_key, nonces);
    backend::count_mac_batch(backend, nonces.len() as u64);
    for (tag, pad) in tags.iter_mut().zip(&pads) {
        *tag ^= pad_word(pad);
    }
    tags
}

/// The 64 mask bits a tag takes from its 16-byte AES pad.
fn pad_word(pad: &[u8; 16]) -> u64 {
    let mut p8 = [0u8; 8];
    p8.copy_from_slice(&pad[..8]);
    u64::from_le_bytes(p8)
}

/// The tag masks of many `(addr, counter)` nonces from one pipelined AES
/// pass. A mask does not depend on the message, so a caller whose
/// messages depend on each other's tags (an integrity-tree path update)
/// can fetch every mask up front and finish each tag with
/// [`tag_full_padded_with`] as its message becomes known.
#[must_use]
pub fn pads_batch_with(backend: Backend, mac_key: &Aes128, nonces: &[(u64, u64)]) -> Vec<u64> {
    mac_pads_batch_with(backend, mac_key, nonces)
        .iter()
        .map(pad_word)
        .collect()
}

/// Full 64-bit tag of `block` under a mask prefetched by
/// [`pads_batch_with`] — bit-identical to [`tag_full_with`] on the
/// mask's nonce.
#[must_use]
pub fn tag_full_padded_with(
    backend: Backend,
    hash_key: u64,
    pad: u64,
    block: &[u8; BLOCK_BYTES],
) -> u64 {
    backend::count_mac(backend);
    poly_hash_with(backend, hash_key, block) ^ pad
}

/// Full 64-bit Carter-Wegman tag over `block`, bound to `(addr, counter)`.
#[must_use]
pub fn tag_full(
    mac_key: &Aes128,
    hash_key: u64,
    addr: u64,
    counter: u64,
    block: &[u8; BLOCK_BYTES],
) -> u64 {
    tag_full_with(backend::active(), mac_key, hash_key, addr, counter, block)
}

/// [`tag_full`] on an explicitly chosen backend.
#[must_use]
pub fn tag_full_with(
    backend: Backend,
    mac_key: &Aes128,
    hash_key: u64,
    addr: u64,
    counter: u64,
    block: &[u8; BLOCK_BYTES],
) -> u64 {
    let pad = pad_word(&mac_pad_with(backend, mac_key, addr, counter));
    tag_full_padded_with(backend, hash_key, pad, block)
}

/// 56-bit truncated tag (the SGX data-block width used throughout the
/// paper).
#[must_use]
pub fn tag(
    mac_key: &Aes128,
    hash_key: u64,
    addr: u64,
    counter: u64,
    block: &[u8; BLOCK_BYTES],
) -> u64 {
    tag_full(mac_key, hash_key, addr, counter, block) & TAG_MASK
}

/// [`tag`] on an explicitly chosen backend.
#[must_use]
pub fn tag_with(
    backend: Backend,
    mac_key: &Aes128,
    hash_key: u64,
    addr: u64,
    counter: u64,
    block: &[u8; BLOCK_BYTES],
) -> u64 {
    tag_full_with(backend, mac_key, hash_key, addr, counter, block) & TAG_MASK
}

/// Precomputes the 512 per-bit tag contributions of hash key `h`:
/// entry `word * 64 + bit` is the XOR a flip of that message bit applies
/// to the tag. The table depends **only on the hash key**, so callers
/// that probe many blocks under one key (the engine's flip-and-check
/// corrector) should build it once — [`crate::MemoryCipher`] caches it
/// per key instead of rebuilding it on every probe.
#[must_use]
pub fn probe_contributions(h: u64) -> Arc<[u64; 512]> {
    // h_pow[w] = H^(8-w): the multiplier applied to word w by the
    // Horner evaluation in `poly_hash`.
    let mut h_pow = [0u64; 8];
    h_pow[7] = h;
    for w in (0..7).rev() {
        h_pow[w] = gf64_mul(h_pow[w + 1], h);
    }
    let mut contributions = Arc::new([0u64; 512]);
    let table = Arc::get_mut(&mut contributions).expect("freshly created");
    for word in 0..8 {
        for bit in 0..64 {
            table[word * 64 + bit] = gf64_mul(1u64 << bit, h_pow[word]);
        }
    }
    contributions
}

/// Precomputed state for *flip-and-check* error correction (Section 3.4).
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
    base_tag_full: u64,
    contributions: Arc<[u64; 512]>,
}

impl MacProbe {
    /// Builds a probe for ciphertext `block` under nonce `(addr, counter)`,
    /// computing the contribution table from scratch. Callers probing
    /// many blocks under one key should precompute the table once with
    /// [`probe_contributions`] and use [`MacProbe::with_contributions`]
    /// (which is what [`crate::MemoryCipher::mac_probe`] does).
    #[must_use]
    pub fn new(
        mac_key: &Aes128,
        hash_key: u64,
        addr: u64,
        counter: u64,
        block: &[u8; BLOCK_BYTES],
    ) -> Self {
        Self::with_contributions(
            mac_key,
            hash_key,
            addr,
            counter,
            block,
            probe_contributions(hash_key),
        )
    }

    /// Builds a probe reusing a per-key contribution table from
    /// [`probe_contributions`] — only the base tag (one MAC) is computed
    /// per block, instead of 512 GF multiplies per probe.
    #[must_use]
    pub fn with_contributions(
        mac_key: &Aes128,
        hash_key: u64,
        addr: u64,
        counter: u64,
        block: &[u8; BLOCK_BYTES],
        contributions: Arc<[u64; 512]>,
    ) -> Self {
        Self {
            base_tag_full: tag_full(mac_key, hash_key, addr, counter, block),
            contributions,
        }
    }

    /// Batched probe construction for a whole run of blocks under one
    /// key: one multi-message tag pass ([`tags_full_batch_with`] on the
    /// active backend) computes every probe's base tag, and all probes
    /// share the per-key contribution table. Equivalent to calling
    /// [`MacProbe::with_contributions`] per block, minus the per-block
    /// MAC latency.
    ///
    /// # Panics
    ///
    /// Panics if `nonces` and `blocks` have different lengths.
    #[must_use]
    pub fn tags_batch(
        mac_key: &Aes128,
        hash_key: u64,
        nonces: &[(u64, u64)],
        blocks: &[[u8; BLOCK_BYTES]],
        contributions: Arc<[u64; 512]>,
    ) -> Vec<Self> {
        tags_full_batch_with(backend::active(), mac_key, hash_key, nonces, blocks)
            .into_iter()
            .map(|base_tag_full| Self {
                base_tag_full,
                contributions: Arc::clone(&contributions),
            })
            .collect()
    }

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

    #[test]
    fn clmul_basics() {
        assert_eq!(clmul(0, 123), (0, 0));
        assert_eq!(clmul(1, 123), (0, 123));
        assert_eq!(clmul(2, 3), (0, 6)); // x * (x+1) = x^2 + x
                                         // (x^63) * x = x^64 -> high word bit 0
        assert_eq!(clmul(1 << 63, 2), (1, 0));
    }

    #[test]
    fn gf64_identity_and_zero() {
        for v in [0u64, 1, 0xdead_beef, u64::MAX] {
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
        let k = Aes128::new(&[3u8; 16]);
        let h = 0x0102_0304_0506_0709;
        let mut block = [0u8; 64];
        for (i, b) in block.iter_mut().enumerate() {
            *b = (i as u8).wrapping_mul(13);
        }
        let probe = MacProbe::new(&k, h, 0x40, 7, &block);
        assert_eq!(probe.base_tag(), tag(&k, h, 0x40, 7, &block));
        for bit in (0..512u32).step_by(11) {
            let mut flipped = block;
            flipped[(bit / 8) as usize] ^= 1 << (bit % 8);
            assert_eq!(
                probe.tag_with_flip(bit),
                tag(&k, h, 0x40, 7, &flipped),
                "bit {bit}"
            );
        }
    }

    #[test]
    fn probe_matches_recomputation_double() {
        let k = Aes128::new(&[8u8; 16]);
        let h = 0xfeed_f00d_1234_5679;
        let block = [0x3cu8; 64];
        let probe = MacProbe::new(&k, h, 0, 1, &block);
        for (a, b) in [(0u32, 1u32), (5, 300), (63, 64), (500, 511)] {
            let mut flipped = block;
            flipped[(a / 8) as usize] ^= 1 << (a % 8);
            flipped[(b / 8) as usize] ^= 1 << (b % 8);
            assert_eq!(
                probe.tag_with_flips(a, b),
                tag(&k, h, 0, 1, &flipped),
                "{a},{b}"
            );
        }
    }

    #[test]
    fn cached_contribution_table_matches_fresh_probe() {
        let k = Aes128::new(&[5u8; 16]);
        let h = 0x1357_9bdf_2468_ace1;
        let table = probe_contributions(h);
        let block = [0x7eu8; 64];
        let fresh = MacProbe::new(&k, h, 0x80, 3, &block);
        let cached = MacProbe::with_contributions(&k, h, 0x80, 3, &block, Arc::clone(&table));
        assert_eq!(fresh.base_tag(), cached.base_tag());
        for bit in (0..512).step_by(37) {
            assert_eq!(fresh.tag_with_flip(bit), cached.tag_with_flip(bit));
        }
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
        let k = Aes128::new(&[0x6cu8; 16]);
        let h = 0xc3a5_c85c_97cb_3127;
        let nonces: Vec<(u64, u64)> = (0..21).map(|i| (i * 64, i ^ 3)).collect();
        let blocks: Vec<[u8; 64]> = (0..21u64)
            .map(|i| core::array::from_fn(|j| (i as usize * 41 + j * 7) as u8))
            .collect();
        for backend in Backend::ALL {
            let tags = tags_batch_with(backend, &k, h, &nonces, &blocks);
            for (i, (&(addr, ctr), block)) in nonces.iter().zip(&blocks).enumerate() {
                assert_eq!(
                    tags[i],
                    tag_with(backend, &k, h, addr, ctr, block),
                    "{backend} message {i}"
                );
            }
            assert!(tags_batch_with(backend, &k, h, &[], &[]).is_empty());

            // Full-width node MACs: the batch and the pad-prefetched
            // chain both equal the per-node tag.
            let full = tags_full_batch_with(backend, &k, h, &nonces, &blocks);
            let pads = pads_batch_with(backend, &k, &nonces);
            for (i, (&(addr, ctr), block)) in nonces.iter().zip(&blocks).enumerate() {
                let serial = tag_full_with(backend, &k, h, addr, ctr, block);
                assert_eq!(full[i], serial, "{backend} node {i}");
                assert_eq!(
                    tag_full_padded_with(backend, h, pads[i], block),
                    serial,
                    "{backend} padded node {i}"
                );
            }
        }
    }

    #[test]
    fn batched_probes_match_fresh_probes() {
        let k = Aes128::new(&[0x2fu8; 16]);
        let h = 0x8b5f_19a3_d671_0c45;
        let table = probe_contributions(h);
        let nonces: Vec<(u64, u64)> = (0..5).map(|i| (i * 64, 2 * i + 1)).collect();
        let blocks: Vec<[u8; 64]> = (0..5u64)
            .map(|i| [(i as u8).wrapping_mul(29); 64])
            .collect();
        let probes = MacProbe::tags_batch(&k, h, &nonces, &blocks, Arc::clone(&table));
        assert_eq!(probes.len(), 5);
        for (i, probe) in probes.iter().enumerate() {
            let fresh = MacProbe::new(&k, h, nonces[i].0, nonces[i].1, &blocks[i]);
            assert_eq!(probe.base_tag(), fresh.base_tag(), "probe {i}");
            for bit in (0..512).step_by(53) {
                assert_eq!(probe.tag_with_flip(bit), fresh.tag_with_flip(bit));
            }
        }
    }

    #[test]
    fn tags_are_nonce_bound() {
        let k = Aes128::new(&[7u8; 16]);
        let h = 0x5555_aaaa_3333_cccd;
        let block = [9u8; 64];
        let t = tag(&k, h, 64, 1, &block);
        assert_ne!(t, tag(&k, h, 128, 1, &block));
        assert_ne!(t, tag(&k, h, 64, 2, &block));
        assert_eq!(t, tag(&k, h, 64, 1, &block));
        assert_eq!(t & !TAG_MASK, 0);
    }
}
