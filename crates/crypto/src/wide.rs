//! VAES + VPCLMULQDQ implementations of the run kernels — the
//! `Backend::Wide` tier.
//!
//! **This module is one of the crate's two `unsafe` surfaces** (the
//! other is [`crate::accel`]). Every function here is a safe wrapper
//! around a `#[target_feature]` inner function; the wrappers document
//! the invariant that makes the call sound: callers reach this module
//! only through [`crate::backend::Backend`] dispatch, and
//! [`crate::backend::active`] never selects
//! [`Backend::Wide`](crate::backend::Backend::Wide) unless
//! `is_x86_feature_detected!` confirmed `vaes`, `vpclmulqdq` and `avx2`
//! (plus the `aes`/`pclmulqdq` baseline the tail paths delegate to).
//! Each wrapper additionally `debug_assert!`s that capability, and
//! asserts `avx512f` before it runs the zmm [`Shape`].
//!
//! Two register shapes, chosen per process by CPU probe ([`Shape::host`]):
//! zmm (AVX-512F), where one register holds four AES blocks — one 64-byte
//! memory block, or four messages' MAC pads — and ymm (AVX2), two. Three
//! kernels, each over a caller's buffers:
//!
//! * [`encrypt_blocks`]: 16-byte blocks in place, sixteen per iteration
//!   (the MAC pads of a tree walk); the tail runs on [`crate::accel`].
//! * [`xor_keystream`]: each block's four chunk nonces built in one
//!   register from its `(addr, counter)` — a broadcast and an OR — and
//!   the AES output XORed into the block as it leaves the last round.
//! * [`tags`]: Carter-Wegman tags in powers form. A message's hash is
//!   `Σ m_w · H^(8-w)`, so one load of it against one of `[H⁸ … H]` and
//!   two carry-less multiplies (selectors `0x00`, `0x11`) give its eight
//!   products in four 128-bit lanes. Two shuffle-and-XOR steps fold four
//!   messages' lanes into one register, one reduction serves all four,
//!   and their pads, encrypted in one register beside them, are XORed on:
//!   no serial chain and no scalar gather.
//!
//! Runs shorter than [`MIN_RUN`] and every single block stay on the
//! AES-NI tier: a zmm prologue costs a short run more than it saves, and
//! slows the scalar code after it.
#![allow(unsafe_code)]

use core::arch::x86_64::{
    __m256i, __m512i, _mm256_aesenc_epi128, _mm256_aesenclast_epi128, _mm256_broadcastsi128_si256,
    _mm256_castsi256_si128, _mm256_clmulepi64_epi128, _mm256_loadu_si256, _mm256_or_si256,
    _mm256_permute2x128_si256, _mm256_permute4x64_epi64, _mm256_set1_epi64x, _mm256_set_epi64x,
    _mm256_setzero_si256, _mm256_storeu_si256, _mm256_xor_si256, _mm512_aesenc_epi128,
    _mm512_aesenclast_epi128, _mm512_broadcast_i32x4, _mm512_castsi512_si256,
    _mm512_clmulepi64_epi128, _mm512_loadu_si512, _mm512_or_si512, _mm512_permutexvar_epi64,
    _mm512_set1_epi64, _mm512_set_epi64, _mm512_setzero_si512, _mm512_shuffle_i64x2,
    _mm512_storeu_si512, _mm512_xor_si512, _mm_loadu_si128, _mm_set_epi64x, _mm_storeu_si128,
};

use crate::ctr::{nonce_high, DOMAIN_KEYSTREAM, DOMAIN_MAC};
use crate::BLOCK_BYTES;

/// Blocks advanced by one [`encrypt_blocks`] inner-loop iteration (both
/// shapes).
pub const GROUP_BLOCKS: usize = 16;

/// The shortest run the run kernels take on this tier; shorter runs of
/// keystreams or tags go to the AES-NI kernels.
pub const MIN_RUN: usize = 8;

/// Low 64 bits of the GF(2^64) reduction polynomial
/// `x^64 + x^4 + x^3 + x + 1` (kept in sync with [`crate::mac`]).
const POLY: u64 = 0x1b;

/// The register shape a wide kernel runs in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Shape {
    /// 512-bit registers (needs AVX-512F).
    Zmm,
    /// 256-bit registers (the AVX2 baseline of the tier).
    Ymm,
}

impl Shape {
    /// The widest shape this host runs. The detection macro caches.
    pub(crate) fn host() -> Self {
        if std::arch::is_x86_feature_detected!("avx512f") {
            Shape::Zmm
        } else {
            Shape::Ymm
        }
    }

    /// Checks the tier's capability, and AVX-512F for zmm: what makes
    /// every `unsafe` call below sound.
    fn check(self) {
        debug_assert!(
            crate::backend::wide_available(),
            "wide entered without vaes+vpclmulqdq+avx2 (backend dispatch bug)"
        );
        assert!(
            self == Shape::Ymm || Self::host() == Shape::Zmm,
            "zmm kernel entered without avx512f"
        );
    }
}

/// Encrypts every 16-byte block in `blocks` in place in `shape`, sixteen
/// blocks per inner-loop iteration. The tail (fewer than
/// [`GROUP_BLOCKS`] blocks) runs on the AES-NI path.
pub(crate) fn encrypt_blocks(shape: Shape, round_keys: &[[u8; 16]; 11], blocks: &mut [[u8; 16]]) {
    shape.check();
    let tail_start = blocks.len() - blocks.len() % GROUP_BLOCKS;
    let (groups, tail) = blocks.split_at_mut(tail_start);
    // SAFETY: `check` confirmed the tier's features, and `avx512f` for
    // zmm.
    match shape {
        Shape::Zmm => unsafe { encrypt_groups_512(round_keys, groups) },
        Shape::Ymm => unsafe { encrypt_groups_256(round_keys, groups) },
    }
    if !tail.is_empty() {
        crate::accel::encrypt_blocks(round_keys, tail);
    }
}

/// XORs the keystream of `nonces[k]` into `blocks[k]` in place, in
/// `shape`. The caller checked the lengths match.
pub(crate) fn xor_keystream(
    shape: Shape,
    round_keys: &[[u8; 16]; 11],
    nonces: &[(u64, u64)],
    blocks: &mut [[u8; BLOCK_BYTES]],
) {
    shape.check();
    // SAFETY: as for `encrypt_blocks`.
    match shape {
        Shape::Zmm => unsafe { xor_keystream_512(round_keys, nonces, blocks) },
        Shape::Ymm => unsafe { xor_keystream_256(round_keys, nonces, blocks) },
    }
}

/// Writes the full-width tag of each message of the run's whole groups
/// (four in zmm, two in ymm) — its hash under the word multipliers
/// `powers` ([`crate::mac::hash_powers`]) XOR its pad under `round_keys`
/// — into `tags`, in `shape`, and returns how many it wrote: the last
/// few messages are the caller's. The caller checked the lengths match.
pub(crate) fn tags(
    shape: Shape,
    round_keys: &[[u8; 16]; 11],
    powers: &[u64; 8],
    nonces: &[(u64, u64)],
    blocks: &[[u8; BLOCK_BYTES]],
    tags: &mut [u64],
) -> usize {
    shape.check();
    // SAFETY: as for `encrypt_blocks`.
    match shape {
        Shape::Zmm => unsafe { tags_512(round_keys, powers, nonces, blocks, tags) },
        Shape::Ymm => unsafe { tags_256(round_keys, powers, nonces, blocks, tags) },
    }
}

// ---- inner implementations ----
//
// `#[target_feature]` makes these callable only when the named features
// are known present; the safe wrappers above carry the proof.

#[inline]
#[target_feature(enable = "avx512f")]
unsafe fn round_keys_512(round_keys: &[[u8; 16]; 11]) -> [__m512i; 11] {
    // Each round key broadcast to all four 128-bit lanes, once per call.
    let mut rk = [_mm512_setzero_si512(); 11];
    for (k, key) in rk.iter_mut().zip(round_keys) {
        *k = _mm512_broadcast_i32x4(_mm_loadu_si128(key.as_ptr().cast()));
    }
    rk
}

/// Runs `N` independent zmm registers through every round, interleaved
/// so the VAES units stay busy instead of stalling on `aesenc` latency.
#[inline]
#[target_feature(enable = "avx512f", enable = "vaes")]
unsafe fn encrypt_512<const N: usize>(rk: &[__m512i; 11], s: &mut [__m512i; N]) {
    for lane in s.iter_mut() {
        *lane = _mm512_xor_si512(*lane, rk[0]);
    }
    for key in &rk[1..10] {
        for lane in s.iter_mut() {
            *lane = _mm512_aesenc_epi128(*lane, *key);
        }
    }
    for lane in s.iter_mut() {
        *lane = _mm512_aesenclast_epi128(*lane, rk[10]);
    }
}

#[target_feature(enable = "avx512f", enable = "vaes")]
unsafe fn encrypt_groups_512(round_keys: &[[u8; 16]; 11], blocks: &mut [[u8; 16]]) {
    let rk = round_keys_512(round_keys);
    for group in blocks.chunks_exact_mut(GROUP_BLOCKS) {
        let base = group.as_mut_ptr().cast::<u8>();
        let mut s = [_mm512_setzero_si512(); 4];
        for (i, lane) in s.iter_mut().enumerate() {
            *lane = _mm512_loadu_si512(base.add(i * 64).cast());
        }
        encrypt_512(&rk, &mut s);
        for (i, lane) in s.into_iter().enumerate() {
            _mm512_storeu_si512(base.add(i * 64).cast(), lane);
        }
    }
}

#[target_feature(enable = "avx512f", enable = "vaes")]
unsafe fn xor_keystream_512(
    round_keys: &[[u8; 16]; 11],
    nonces: &[(u64, u64)],
    blocks: &mut [[u8; BLOCK_BYTES]],
) {
    let rk = round_keys_512(round_keys);
    // Chunk `c` of a block sits in lane `c`: its nonce carries `c << 48`.
    let chunks = _mm512_set_epi64(3 << 48, 0, 2 << 48, 0, 1 << 48, 0, 0, 0);
    // Four blocks (sixteen AES streams) per iteration; the last
    // iteration's missing blocks run on zeros and are not stored.
    for (quad, nonces) in blocks.chunks_mut(4).zip(nonces.chunks(4)) {
        let mut s = [_mm512_setzero_si512(); 4];
        for (lane, &(addr, counter)) in s.iter_mut().zip(nonces) {
            let nonce = _mm_set_epi64x(nonce_high(addr, DOMAIN_KEYSTREAM) as i64, counter as i64);
            *lane = _mm512_or_si512(_mm512_broadcast_i32x4(nonce), chunks);
        }
        encrypt_512(&rk, &mut s);
        for (block, ks) in quad.iter_mut().zip(s) {
            let at = block.as_mut_ptr().cast();
            _mm512_storeu_si512(at, _mm512_xor_si512(_mm512_loadu_si512(at), ks));
        }
    }
}

/// Tags of whole groups of four messages, one zmm lane per message
/// after the fold.
#[target_feature(enable = "avx512f", enable = "vaes", enable = "vpclmulqdq")]
unsafe fn tags_512(
    round_keys: &[[u8; 16]; 11],
    powers: &[u64; 8],
    nonces: &[(u64, u64)],
    blocks: &[[u8; BLOCK_BYTES]],
    tags: &mut [u64],
) -> usize {
    let rk = round_keys_512(round_keys);
    let p = _mm512_loadu_si512(powers.as_ptr().cast());
    let poly = _mm512_set1_epi64(POLY as i64);
    // Lane `j`'s low word to word `j`: the four tags side by side.
    let low_words = _mm512_set_epi64(0, 0, 0, 0, 6, 4, 2, 0);
    let groups = nonces.chunks_exact(4).zip(blocks.chunks_exact(4));
    for ((nonces, blocks), tags) in groups.zip(tags.chunks_exact_mut(4)) {
        // Words 2k and 2k+1 of a message sit in lane k, as do their
        // multipliers: two products give all eight, unreduced.
        let mut x = [_mm512_setzero_si512(); 4];
        for (x, block) in x.iter_mut().zip(blocks) {
            let m = _mm512_loadu_si512(block.as_ptr().cast());
            *x = _mm512_xor_si512(
                _mm512_clmulepi64_epi128::<0x00>(m, p),
                _mm512_clmulepi64_epi128::<0x11>(m, p),
            );
        }
        // Fold: lane j of `sums` is the XOR of message j's four lanes.
        let a = _mm512_xor_si512(
            _mm512_shuffle_i64x2::<0x44>(x[0], x[1]),
            _mm512_shuffle_i64x2::<0xee>(x[0], x[1]),
        );
        let b = _mm512_xor_si512(
            _mm512_shuffle_i64x2::<0x44>(x[2], x[3]),
            _mm512_shuffle_i64x2::<0xee>(x[2], x[3]),
        );
        let sums = _mm512_xor_si512(
            _mm512_shuffle_i64x2::<0x88>(a, b),
            _mm512_shuffle_i64x2::<0xdd>(a, b),
        );
        // One deferred reduction per message, all four at once: fold
        // each lane's high word twice by POLY.
        let f1 = _mm512_clmulepi64_epi128::<0x01>(sums, poly);
        let f2 = _mm512_clmulepi64_epi128::<0x01>(f1, poly);
        let hashes = _mm512_xor_si512(_mm512_xor_si512(sums, f1), f2);
        let n = |j: usize| {
            (
                nonce_high(nonces[j].0, DOMAIN_MAC) as i64,
                nonces[j].1 as i64,
            )
        };
        let [(h0, c0), (h1, c1), (h2, c2), (h3, c3)] = [n(0), n(1), n(2), n(3)];
        let mut pads = [_mm512_set_epi64(h3, c3, h2, c2, h1, c1, h0, c0)];
        encrypt_512(&rk, &mut pads);
        let full = _mm512_permutexvar_epi64(low_words, _mm512_xor_si512(hashes, pads[0]));
        _mm256_storeu_si256(tags.as_mut_ptr().cast(), _mm512_castsi512_si256(full));
    }
    nonces.len() / 4 * 4
}

#[inline]
#[target_feature(enable = "avx2")]
unsafe fn round_keys_256(round_keys: &[[u8; 16]; 11]) -> [__m256i; 11] {
    let mut rk = [_mm256_setzero_si256(); 11];
    for (k, key) in rk.iter_mut().zip(round_keys) {
        *k = _mm256_broadcastsi128_si256(_mm_loadu_si128(key.as_ptr().cast()));
    }
    rk
}

/// [`encrypt_512`] over ymm registers, two AES blocks each.
#[inline]
#[target_feature(enable = "avx2", enable = "vaes")]
unsafe fn encrypt_256<const N: usize>(rk: &[__m256i; 11], s: &mut [__m256i; N]) {
    for lane in s.iter_mut() {
        *lane = _mm256_xor_si256(*lane, rk[0]);
    }
    for key in &rk[1..10] {
        for lane in s.iter_mut() {
            *lane = _mm256_aesenc_epi128(*lane, *key);
        }
    }
    for lane in s.iter_mut() {
        *lane = _mm256_aesenclast_epi128(*lane, rk[10]);
    }
}

#[target_feature(enable = "avx2", enable = "vaes")]
unsafe fn encrypt_groups_256(round_keys: &[[u8; 16]; 11], blocks: &mut [[u8; 16]]) {
    let rk = round_keys_256(round_keys);
    for group in blocks.chunks_exact_mut(GROUP_BLOCKS) {
        let base = group.as_mut_ptr().cast::<u8>();
        let mut s = [_mm256_setzero_si256(); 8];
        for (i, lane) in s.iter_mut().enumerate() {
            *lane = _mm256_loadu_si256(base.add(i * 32).cast());
        }
        encrypt_256(&rk, &mut s);
        for (i, lane) in s.into_iter().enumerate() {
            _mm256_storeu_si256(base.add(i * 32).cast(), lane);
        }
    }
}

#[target_feature(enable = "avx2", enable = "vaes")]
unsafe fn xor_keystream_256(
    round_keys: &[[u8; 16]; 11],
    nonces: &[(u64, u64)],
    blocks: &mut [[u8; BLOCK_BYTES]],
) {
    let rk = round_keys_256(round_keys);
    // Chunks 0 and 1 of a block in one register, 2 and 3 in the next.
    let chunks = [
        _mm256_set_epi64x(1 << 48, 0, 0, 0),
        _mm256_set_epi64x(3 << 48, 0, 2 << 48, 0),
    ];
    for (quad, nonces) in blocks.chunks_mut(4).zip(nonces.chunks(4)) {
        let mut s = [_mm256_setzero_si256(); 8];
        for (lanes, &(addr, counter)) in s.chunks_exact_mut(2).zip(nonces) {
            let nonce = _mm_set_epi64x(nonce_high(addr, DOMAIN_KEYSTREAM) as i64, counter as i64);
            for (lane, chunks) in lanes.iter_mut().zip(chunks) {
                *lane = _mm256_or_si256(_mm256_broadcastsi128_si256(nonce), chunks);
            }
        }
        encrypt_256(&rk, &mut s);
        for (block, ks) in quad.iter_mut().zip(s.chunks_exact(2)) {
            for (half, k) in ks.iter().enumerate() {
                let at = block.as_mut_ptr().add(half * 32).cast();
                _mm256_storeu_si256(at, _mm256_xor_si256(_mm256_loadu_si256(at), *k));
            }
        }
    }
}

/// [`tags_512`] in ymm registers: whole pairs of messages, one lane per
/// message after the fold.
#[target_feature(enable = "avx2", enable = "vaes", enable = "vpclmulqdq")]
unsafe fn tags_256(
    round_keys: &[[u8; 16]; 11],
    powers: &[u64; 8],
    nonces: &[(u64, u64)],
    blocks: &[[u8; BLOCK_BYTES]],
    tags: &mut [u64],
) -> usize {
    let rk = round_keys_256(round_keys);
    let p = [
        _mm256_loadu_si256(powers.as_ptr().cast()),
        _mm256_loadu_si256(powers.as_ptr().add(4).cast()),
    ];
    let poly = _mm256_set1_epi64x(POLY as i64);
    let groups = nonces.chunks_exact(2).zip(blocks.chunks_exact(2));
    for ((nonces, blocks), tags) in groups.zip(tags.chunks_exact_mut(2)) {
        let mut x = [_mm256_setzero_si256(); 2];
        for (x, block) in x.iter_mut().zip(blocks) {
            for (half, p) in p.iter().enumerate() {
                let m = _mm256_loadu_si256(block.as_ptr().add(half * 32).cast());
                *x = _mm256_xor_si256(*x, _mm256_clmulepi64_epi128::<0x00>(m, *p));
                *x = _mm256_xor_si256(*x, _mm256_clmulepi64_epi128::<0x11>(m, *p));
            }
        }
        let sums = _mm256_xor_si256(
            _mm256_permute2x128_si256::<0x20>(x[0], x[1]),
            _mm256_permute2x128_si256::<0x31>(x[0], x[1]),
        );
        let f1 = _mm256_clmulepi64_epi128::<0x01>(sums, poly);
        let f2 = _mm256_clmulepi64_epi128::<0x01>(f1, poly);
        let hashes = _mm256_xor_si256(_mm256_xor_si256(sums, f1), f2);
        let mut pads = [_mm256_set_epi64x(
            nonce_high(nonces[1].0, DOMAIN_MAC) as i64,
            nonces[1].1 as i64,
            nonce_high(nonces[0].0, DOMAIN_MAC) as i64,
            nonces[0].1 as i64,
        )];
        encrypt_256(&rk, &mut pads);
        let full = _mm256_permute4x64_epi64::<0b1000>(_mm256_xor_si256(hashes, pads[0]));
        _mm_storeu_si128(tags.as_mut_ptr().cast(), _mm256_castsi256_si128(full));
    }
    nonces.len() / 2 * 2
}

#[cfg(test)]
mod tests {
    //! Direct unit tests of the wide intrinsic paths, in every shape the
    //! host runs (the broader randomized tier-pair equivalence lives in
    //! `crosscheck`).
    use super::*;
    use crate::aes::Aes128;
    use crate::backend::Backend;

    fn capable() -> bool {
        crate::backend::wide_available()
    }

    #[test]
    fn wide_batch_matches_portable_across_remainders() {
        if !capable() {
            return;
        }
        let aes = Aes128::new(&[0x77; 16]);
        // Lengths straddling the 16-block group width exercise both the
        // wide main loop and the AES-NI tail.
        for shape in crate::crosscheck::shapes() {
            for n in [0usize, 1, 15, 16, 17, 31, 32, 33, 48, 100] {
                let mut batch: Vec<[u8; 16]> = (0..n)
                    .map(|i| core::array::from_fn(|j| (i * 37 + j * 5) as u8))
                    .collect();
                let expected: Vec<[u8; 16]> = batch
                    .iter()
                    .map(|b| aes.encrypt_block_with(Backend::Portable, b))
                    .collect();
                encrypt_blocks(shape, aes.round_keys(), &mut batch);
                assert_eq!(batch, expected, "{shape:?} n={n}");
            }
        }
    }

    #[test]
    fn wide_poly_hash_batch_matches_portable_across_remainders() {
        if !capable() {
            return;
        }
        // The powers-form run tags of every whole register group: with
        // the pads XORed back off, each is the serial Horner hash, at
        // lengths straddling both group widths (2 for ymm, 4 for zmm).
        let aes = Aes128::new(&[0x2d; 16]);
        let h = 0x0123_4567_89ab_cdefu64 | 1;
        for shape in crate::crosscheck::shapes() {
            for n in [0usize, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 33, 64] {
                let blocks: Vec<[u8; 64]> = (0..n)
                    .map(|i| core::array::from_fn(|j| (i * 73 + j * 29 + 1) as u8))
                    .collect();
                let nonces: Vec<(u64, u64)> = (0..n as u64).map(|i| (i << 20, !i)).collect();
                let mut got = vec![0; n];
                let powers = crate::mac::hash_powers(h);
                let done = tags(shape, aes.round_keys(), &powers, &nonces, &blocks, &mut got);
                assert_eq!(done, n - n % if shape == Shape::Zmm { 4 } else { 2 });
                let mut pads = vec![0; n];
                crate::mac::pads_with(Backend::Portable, &aes, &nonces, &mut pads);
                for (k, block) in blocks.iter().enumerate().take(done) {
                    let horner = crate::mac::poly_hash_with(Backend::Portable, h, block);
                    assert_eq!(got[k] ^ pads[k], horner, "{shape:?} n={n} k={k}");
                }
            }
        }
    }

    #[test]
    fn shape_is_reported() {
        if !capable() {
            return;
        }
        let shape = crate::backend::wide_shape();
        assert!(shape == "vaes512" || shape == "vaes256", "{shape}");
        assert_eq!(shape == "vaes512", Shape::host() == Shape::Zmm);
    }
}
