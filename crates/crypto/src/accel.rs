//! AES-NI and PCLMULQDQ implementations of the hot primitives.
//!
//! **This module is one of the crate's two `unsafe` surfaces** (the
//! other is the VAES/VPCLMULQDQ tier in [`crate::wide`], which
//! delegates its scalar work and batch tails here). Every function
//! here is a safe wrapper around a `#[target_feature]` inner function;
//! the wrappers document the invariant that makes the call sound:
//! callers reach this module only through [`crate::backend::Backend`]
//! dispatch, and [`crate::backend::active`] never selects
//! [`Backend::Accelerated`](crate::backend::Backend::Accelerated)
//! unless `is_x86_feature_detected!` confirmed `aes` **and**
//! `pclmulqdq` (plus their SSE2 baseline, implied on x86_64). Each
//! wrapper additionally `debug_assert!`s that capability.
//!
//! The accelerated cipher consumes the *portable* key schedule
//! ([`Aes128::round_keys`](crate::aes::Aes128)) unchanged — AES-NI's
//! `aesenc` round uses the standard FIPS-197 round keys, so the two
//! backends are bit-identical by construction and the cross-check
//! tests (the crate's `crosscheck` module) enforce it.
//!
//! Pipelining: `aesenc` has multi-cycle latency but single-cycle
//! throughput on every AES-NI core, so [`encrypt_blocks`] and
//! [`xor_keystream`] keep eight independent AES streams in flight (eight
//! pads, or the four chunks of two memory blocks).
#![allow(unsafe_code)]

use core::arch::x86_64::{
    __m128i, _mm_aesenc_si128, _mm_aesenclast_si128, _mm_clmulepi64_si128, _mm_cvtsi128_si64,
    _mm_loadu_si128, _mm_set_epi64x, _mm_setzero_si128, _mm_storeu_si128, _mm_unpackhi_epi64,
    _mm_xor_si128,
};

/// How many independent AES streams we keep in flight per inner-loop
/// iteration (matches the `aesenc` latency/throughput ratio of modern
/// cores; more gains nothing, fewer leaves the pipeline idle).
pub const PIPELINE_WIDTH: usize = 8;

/// Low 64 bits of the GF(2^64) reduction polynomial
/// `x^64 + x^4 + x^3 + x + 1` (kept in sync with [`crate::mac`]).
const POLY: u64 = 0x1b;

#[inline]
fn assert_capable() {
    debug_assert!(
        crate::backend::accel_available(),
        "accel entered without aes+pclmulqdq (backend dispatch bug)"
    );
}

/// Encrypts one 16-byte block with AES-NI using the standard FIPS-197
/// round keys.
#[must_use]
pub(crate) fn encrypt_block(round_keys: &[[u8; 16]; 11], plain: &[u8; 16]) -> [u8; 16] {
    assert_capable();
    // SAFETY: reached only via `Backend::Accelerated` dispatch (or the
    // backend self-test), both gated on `is_x86_feature_detected!("aes")`.
    unsafe { encrypt_block_impl(round_keys, plain) }
}

/// Encrypts every 16-byte block in `blocks` in place, eight pipelined
/// streams at a time. The key is scheduled (loaded into registers) once
/// for the whole batch.
pub(crate) fn encrypt_blocks(round_keys: &[[u8; 16]; 11], blocks: &mut [[u8; 16]]) {
    assert_capable();
    // SAFETY: as for `encrypt_block` — feature availability is
    // guaranteed by backend dispatch.
    unsafe { encrypt_blocks_impl(round_keys, blocks) }
}

/// XORs the keystream of `nonces[k]` into `blocks[k]` in place: each
/// block's four chunk nonces are built in registers, two blocks (eight
/// AES streams) at a time, and the AES output is XORed into the block as
/// it leaves the last round. The caller checked the lengths match.
pub(crate) fn xor_keystream(
    round_keys: &[[u8; 16]; 11],
    nonces: &[(u64, u64)],
    blocks: &mut [[u8; crate::BLOCK_BYTES]],
) {
    assert_capable();
    // SAFETY: as for `encrypt_block`.
    unsafe { xor_keystream_impl(round_keys, nonces, blocks) }
}

/// Carry-less 64×64→128 multiply via PCLMULQDQ; returns `(high, low)`.
#[must_use]
pub(crate) fn clmul(a: u64, b: u64) -> (u64, u64) {
    assert_capable();
    // SAFETY: reached only via `Backend::Accelerated` dispatch, gated on
    // `is_x86_feature_detected!("pclmulqdq")`.
    unsafe { clmul_impl(a, b) }
}

/// Multiplication in GF(2^64) modulo `x^64 + x^4 + x^3 + x + 1`: one
/// product plus two reduction folds, all in PCLMULQDQ.
#[must_use]
pub(crate) fn gf64_mul(a: u64, b: u64) -> u64 {
    assert_capable();
    // SAFETY: as for `clmul`.
    unsafe { gf64_mul_impl(a, b) }
}

/// Polynomial hash of one 64-byte message from its hash key's word
/// multipliers `powers[w] = H^(8-w)` ([`crate::mac::hash_powers`]): eight
/// independent PCLMULQDQ products, XORed unreduced and folded once —
/// bit-identical to the Horner evaluation of [`crate::mac::poly_hash_with`],
/// which reduces after every word.
#[must_use]
pub(crate) fn poly_hash_powers(powers: &[u64; 8], block: &[u8; crate::BLOCK_BYTES]) -> u64 {
    assert_capable();
    // SAFETY: as for `clmul`.
    unsafe { poly_hash_powers_impl(powers, block) }
}

// ---- inner implementations ----
//
// `#[target_feature]` makes these callable only when the named features
// are known present; the safe wrappers above carry the proof.

#[inline]
#[target_feature(enable = "sse2")]
unsafe fn load_round_keys(round_keys: &[[u8; 16]; 11]) -> [__m128i; 11] {
    core::array::from_fn(|i| _mm_loadu_si128(round_keys[i].as_ptr().cast()))
}

#[target_feature(enable = "aes", enable = "sse2")]
unsafe fn encrypt_block_impl(round_keys: &[[u8; 16]; 11], plain: &[u8; 16]) -> [u8; 16] {
    let mut s = [_mm_loadu_si128(plain.as_ptr().cast())];
    encrypt_lanes(&load_round_keys(round_keys), &mut s);
    let mut out = [0u8; 16];
    _mm_storeu_si128(out.as_mut_ptr().cast(), s[0]);
    out
}

/// Four keystream streams of one block: chunk `c`'s AES input is the
/// counter in the low word and the block's high nonce word plus `c << 48`.
#[inline]
#[target_feature(enable = "sse2")]
unsafe fn keystream_nonces(&(addr, counter): &(u64, u64)) -> [__m128i; 4] {
    let high = crate::ctr::nonce_high(addr, crate::ctr::DOMAIN_KEYSTREAM);
    core::array::from_fn(|c| _mm_set_epi64x((high | (c as u64) << 48) as i64, counter as i64))
}

/// Runs `N` independent streams through every round, interleaved.
#[inline]
#[target_feature(enable = "aes", enable = "sse2")]
unsafe fn encrypt_lanes<const N: usize>(rk: &[__m128i; 11], s: &mut [__m128i; N]) {
    for lane in s.iter_mut() {
        *lane = _mm_xor_si128(*lane, rk[0]);
    }
    for key in &rk[1..10] {
        for lane in s.iter_mut() {
            *lane = _mm_aesenc_si128(*lane, *key);
        }
    }
    for lane in s.iter_mut() {
        *lane = _mm_aesenclast_si128(*lane, rk[10]);
    }
}

/// XORs `N` keystream chunks into the 16-byte chunks at `out`.
#[inline]
#[target_feature(enable = "sse2")]
unsafe fn xor_into<const N: usize>(s: &[__m128i; N], out: *mut u8) {
    for (i, lane) in s.iter().enumerate() {
        let at = out.add(i * 16).cast();
        _mm_storeu_si128(at, _mm_xor_si128(_mm_loadu_si128(at), *lane));
    }
}

#[target_feature(enable = "aes", enable = "sse2")]
unsafe fn xor_keystream_impl(
    round_keys: &[[u8; 16]; 11],
    nonces: &[(u64, u64)],
    blocks: &mut [[u8; crate::BLOCK_BYTES]],
) {
    let rk = load_round_keys(round_keys);
    let mut pairs = blocks.chunks_exact_mut(2);
    for (pair, nonces) in (&mut pairs).zip(nonces.chunks_exact(2)) {
        let [a, b] = [keystream_nonces(&nonces[0]), keystream_nonces(&nonces[1])];
        let mut s = [a[0], a[1], a[2], a[3], b[0], b[1], b[2], b[3]];
        encrypt_lanes(&rk, &mut s);
        xor_into(&s, pair.as_mut_ptr().cast());
    }
    if let [block] = pairs.into_remainder() {
        let mut s = keystream_nonces(&nonces[nonces.len() - 1]);
        encrypt_lanes(&rk, &mut s);
        xor_into(&s, block.as_mut_ptr());
    }
}

#[target_feature(enable = "aes", enable = "sse2")]
unsafe fn encrypt_blocks_impl(round_keys: &[[u8; 16]; 11], blocks: &mut [[u8; 16]]) {
    let rk = load_round_keys(round_keys);
    let mut groups = blocks.chunks_exact_mut(PIPELINE_WIDTH);
    for group in &mut groups {
        // Eight independent streams: interleave every round so the
        // `aesenc` units stay saturated instead of stalling on latency.
        let mut s: [__m128i; PIPELINE_WIDTH] =
            core::array::from_fn(|i| _mm_loadu_si128(group[i].as_ptr().cast()));
        encrypt_lanes(&rk, &mut s);
        for (block, lane) in group.iter_mut().zip(s) {
            _mm_storeu_si128(block.as_mut_ptr().cast(), lane);
        }
    }
    for block in groups.into_remainder() {
        let mut s = [_mm_loadu_si128(block.as_ptr().cast())];
        encrypt_lanes(&rk, &mut s);
        _mm_storeu_si128(block.as_mut_ptr().cast(), s[0]);
    }
}

#[inline]
#[target_feature(enable = "pclmulqdq", enable = "sse2")]
unsafe fn clmul_raw(a: u64, b: u64) -> (u64, u64) {
    let x = _mm_set_epi64x(0, a as i64);
    let y = _mm_set_epi64x(0, b as i64);
    let p = _mm_clmulepi64_si128::<0x00>(x, y);
    // SSE2-only high-half extraction (no SSE4.1 requirement).
    let lo = _mm_cvtsi128_si64(p) as u64;
    let hi = _mm_cvtsi128_si64(_mm_unpackhi_epi64(p, p)) as u64;
    (hi, lo)
}

#[target_feature(enable = "pclmulqdq", enable = "sse2")]
unsafe fn clmul_impl(a: u64, b: u64) -> (u64, u64) {
    clmul_raw(a, b)
}

#[target_feature(enable = "pclmulqdq", enable = "sse2")]
unsafe fn gf64_mul_impl(a: u64, b: u64) -> u64 {
    let (hi, mut lo) = clmul_raw(a, b);
    // Fold the high half twice: x^64 ≡ POLY. POLY has degree 4, so the
    // first fold's high part has at most 4 bits and the second fold's
    // high part is zero — identical to the portable reduction.
    let (h2, l2) = clmul_raw(hi, POLY);
    lo ^= l2;
    let (_, l3) = clmul_raw(h2, POLY);
    lo ^ l3
}

/// Finishes one deferred reduction: folds the high qword of `combined`
/// twice by POLY and returns the reduced low qword. `combined` is an
/// unreduced 128-bit GF(2) sum of products; reduction is GF(2)-linear,
/// so reducing the sum once equals reducing each term and XORing.
///
/// # Safety
///
/// The caller must run on a CPU with `pclmulqdq` (and SSE2).
#[inline]
#[target_feature(enable = "pclmulqdq", enable = "sse2")]
pub(crate) unsafe fn reduce_deferred(combined: __m128i, poly: __m128i) -> u64 {
    let f1 = _mm_clmulepi64_si128::<0x01>(combined, poly);
    let f2 = _mm_clmulepi64_si128::<0x01>(f1, poly);
    _mm_cvtsi128_si64(_mm_xor_si128(_mm_xor_si128(combined, f1), f2)) as u64
}

#[target_feature(enable = "pclmulqdq", enable = "sse2")]
unsafe fn poly_hash_powers_impl(powers: &[u64; 8], block: &[u8; crate::BLOCK_BYTES]) -> u64 {
    // Words 2i and 2i+1 share one 16-byte load, and so do their
    // multipliers; selectors 0x00 and 0x11 multiply the low and the high
    // qwords. The two accumulators keep the XOR chain short.
    let words = block.as_ptr().cast::<__m128i>();
    let keys = powers.as_ptr().cast::<__m128i>();
    let mut even = _mm_setzero_si128();
    let mut odd = _mm_setzero_si128();
    for pair in 0..4 {
        let m = _mm_loadu_si128(words.add(pair));
        let k = _mm_loadu_si128(keys.add(pair));
        even = _mm_xor_si128(even, _mm_clmulepi64_si128::<0x00>(m, k));
        odd = _mm_xor_si128(odd, _mm_clmulepi64_si128::<0x11>(m, k));
    }
    reduce_deferred(_mm_xor_si128(even, odd), _mm_set_epi64x(0, POLY as i64))
}

#[cfg(test)]
mod tests {
    //! Direct unit tests of the intrinsic paths (the broader randomized
    //! portable-vs-accelerated equivalence lives in
    //! `crosscheck`).
    use super::*;
    use crate::aes::Aes128;

    fn capable() -> bool {
        crate::backend::accel_available()
    }

    #[test]
    fn aesni_matches_fips197_c1() {
        if !capable() {
            return;
        }
        let key: [u8; 16] = core::array::from_fn(|i| i as u8);
        let plain: [u8; 16] = core::array::from_fn(|i| (i as u8) * 0x11);
        let expected = [
            0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4,
            0xc5, 0x5a,
        ];
        let aes = Aes128::new(&key);
        assert_eq!(encrypt_block(aes.round_keys(), &plain), expected);
    }

    #[test]
    fn batch_matches_single_across_remainders() {
        if !capable() {
            return;
        }
        let aes = Aes128::new(&[0x5a; 16]);
        // Lengths straddling the pipeline width exercise both the
        // unrolled groups and the remainder loop.
        for n in [0usize, 1, 7, 8, 9, 16, 23] {
            let mut batch: Vec<[u8; 16]> = (0..n)
                .map(|i| core::array::from_fn(|j| (i * 31 + j) as u8))
                .collect();
            let expected: Vec<[u8; 16]> = batch
                .iter()
                .map(|b| encrypt_block(aes.round_keys(), b))
                .collect();
            encrypt_blocks(aes.round_keys(), &mut batch);
            assert_eq!(batch, expected, "n={n}");
        }
    }

    #[test]
    fn batched_poly_hash_matches_serial_across_remainders() {
        if !capable() {
            return;
        }
        // The accelerated run tags: powers-form hashes under the AES-NI
        // pads, at lengths straddling the eight-pad pipeline, equal the
        // serial Horner hash XOR the portable pad.
        use crate::backend::Backend;
        let aes = Aes128::new(&[0x3c; 16]);
        let h = 0x9e37_79b9_7f4a_7c15u64;
        for n in [0usize, 1, 7, 8, 9, 16, 23] {
            let blocks: Vec<[u8; crate::BLOCK_BYTES]> = (0..n)
                .map(|i| core::array::from_fn(|j| (i * 67 + j * 13) as u8))
                .collect();
            let nonces: Vec<(u64, u64)> = (0..n as u64).map(|i| (i * 64, i * 3)).collect();
            let mut tags = vec![0; n];
            let powers = crate::mac::hash_powers(h);
            crate::mac::tags_with(
                Backend::Accelerated,
                &aes,
                &powers,
                &nonces,
                &blocks,
                &mut tags,
            );
            for (k, (&(addr, counter), block)) in nonces.iter().zip(&blocks).enumerate() {
                let nonce = crate::ctr::mac_nonce_block(addr, counter);
                let pad = aes.encrypt_block_with(Backend::Portable, &nonce);
                let expected = crate::mac::poly_hash_with(Backend::Portable, h, block)
                    ^ u64::from_le_bytes(pad[..8].try_into().unwrap());
                assert_eq!(tags[k], expected, "n={n} k={k}");
            }
        }
    }

    #[test]
    fn pclmul_matches_portable_identities() {
        if !capable() {
            return;
        }
        assert_eq!(clmul(0, 123), (0, 0));
        assert_eq!(clmul(1, 123), (0, 123));
        assert_eq!(clmul(2, 3), (0, 6));
        assert_eq!(clmul(1 << 63, 2), (1, 0));
        assert_eq!(gf64_mul(0xdead_beef, 1), 0xdead_beef);
    }
}
