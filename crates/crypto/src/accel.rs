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
//! property tests (`tests/backend_crosscheck.rs`) enforce it.
//!
//! Pipelining: `aesenc` has multi-cycle latency but single-cycle
//! throughput on every AES-NI core, so [`encrypt_blocks`] walks the
//! input eight blocks at a time with eight independent dependency
//! chains — that is where the batched-keystream speedup comes from.
#![allow(unsafe_code)]

use core::arch::x86_64::{
    __m128i, _mm_aesdec_si128, _mm_aesdeclast_si128, _mm_aesenc_si128, _mm_aesenclast_si128,
    _mm_aesimc_si128, _mm_clmulepi64_si128, _mm_cvtsi128_si64, _mm_loadl_epi64, _mm_loadu_si128,
    _mm_set_epi64x, _mm_setzero_si128, _mm_storeu_si128, _mm_unpackhi_epi64, _mm_xor_si128,
};

/// How many independent AES streams we keep in flight per inner-loop
/// iteration (matches the `aesenc` latency/throughput ratio of modern
/// cores; more gains nothing, fewer leaves the pipeline idle).
pub const PIPELINE_WIDTH: usize = 8;

/// How many independent MAC Horner chains the batched tag kernel keeps
/// in flight per inner-loop iteration. Each Horner step is three
/// serially dependent PCLMULQDQ ops (product + two reduction folds), so
/// a single chain leaves the carry-less multiplier idle for most of its
/// latency; eight interleaved messages fill those bubbles the same way
/// [`PIPELINE_WIDTH`] does for `aesenc`.
pub const MAC_LANES: usize = 8;

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

/// [`encrypt_blocks`] over 64-byte memory blocks in place: each block's
/// four 16-byte chunks are encrypted where they lie, with no scratch
/// buffer or copy-out — the zero-copy spine of the batched keystream.
pub(crate) fn encrypt_blocks64(
    round_keys: &[[u8; 16]; 11],
    blocks: &mut [[u8; crate::BLOCK_BYTES]],
) {
    // SAFETY: `[u8; 64]` is exactly four contiguous `[u8; 16]` chunks —
    // same alignment (1), no padding, identical bit layout — so the
    // reinterpreted slice covers precisely the same memory with a valid
    // element type.
    let chunks = unsafe {
        core::slice::from_raw_parts_mut(
            blocks.as_mut_ptr().cast::<[u8; 16]>(),
            blocks.len() * (crate::BLOCK_BYTES / 16),
        )
    };
    encrypt_blocks(round_keys, chunks);
}

/// Decrypts one 16-byte block with AES-NI (equivalent inverse cipher:
/// `aesimc`-transformed round keys in reverse order).
#[must_use]
pub(crate) fn decrypt_block(round_keys: &[[u8; 16]; 11], ct: &[u8; 16]) -> [u8; 16] {
    assert_capable();
    // SAFETY: as for `encrypt_block`.
    unsafe { decrypt_block_impl(round_keys, ct) }
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

/// Polynomial hashes of many independent 64-byte messages under one
/// hash key, [`MAC_LANES`] interleaved Horner chains at a time —
/// bit-identical to evaluating [`crate::mac::poly_hash`] per message.
#[must_use]
pub(crate) fn poly_hash_batch(h: u64, blocks: &[[u8; crate::BLOCK_BYTES]]) -> Vec<u64> {
    assert_capable();
    // SAFETY: as for `clmul`.
    unsafe { poly_hash_batch_impl(h, blocks) }
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

#[inline]
#[target_feature(enable = "aes", enable = "sse2")]
unsafe fn encrypt_loaded(rk: &[__m128i; 11], mut s: __m128i) -> __m128i {
    s = _mm_xor_si128(s, rk[0]);
    for key in &rk[1..10] {
        s = _mm_aesenc_si128(s, *key);
    }
    _mm_aesenclast_si128(s, rk[10])
}

#[target_feature(enable = "aes", enable = "sse2")]
unsafe fn encrypt_block_impl(round_keys: &[[u8; 16]; 11], plain: &[u8; 16]) -> [u8; 16] {
    let rk = load_round_keys(round_keys);
    let s = encrypt_loaded(&rk, _mm_loadu_si128(plain.as_ptr().cast()));
    let mut out = [0u8; 16];
    _mm_storeu_si128(out.as_mut_ptr().cast(), s);
    out
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
        for lane in &mut s {
            *lane = _mm_xor_si128(*lane, rk[0]);
        }
        for key in &rk[1..10] {
            for lane in &mut s {
                *lane = _mm_aesenc_si128(*lane, *key);
            }
        }
        for (i, lane) in s.iter().enumerate() {
            let last = _mm_aesenclast_si128(*lane, rk[10]);
            _mm_storeu_si128(group[i].as_mut_ptr().cast(), last);
        }
    }
    for block in groups.into_remainder() {
        let s = encrypt_loaded(&rk, _mm_loadu_si128(block.as_ptr().cast()));
        _mm_storeu_si128(block.as_mut_ptr().cast(), s);
    }
}

#[target_feature(enable = "aes", enable = "sse2")]
unsafe fn decrypt_block_impl(round_keys: &[[u8; 16]; 11], ct: &[u8; 16]) -> [u8; 16] {
    let rk = load_round_keys(round_keys);
    // Equivalent inverse cipher (FIPS-197 §5.3.5): reverse the round-key
    // order and push rounds 1..=9 through InvMixColumns (`aesimc`).
    let mut s = _mm_xor_si128(_mm_loadu_si128(ct.as_ptr().cast()), rk[10]);
    for round in (1..10).rev() {
        s = _mm_aesdec_si128(s, _mm_aesimc_si128(rk[round]));
    }
    s = _mm_aesdeclast_si128(s, rk[0]);
    let mut out = [0u8; 16];
    _mm_storeu_si128(out.as_mut_ptr().cast(), s);
    out
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

/// One fully reduced Horner step in xmm registers: `(acc ^ m) * H mod P`.
/// Live values ride in the low qwords; the high qwords carry fold
/// garbage that the next step's selector-0x00 multiply never reads.
#[inline]
#[target_feature(enable = "pclmulqdq", enable = "sse2")]
unsafe fn horner_step128(acc: __m128i, m: __m128i, h: __m128i, poly: __m128i) -> __m128i {
    let t = _mm_xor_si128(acc, m);
    let p = _mm_clmulepi64_si128::<0x00>(t, h);
    let f1 = _mm_clmulepi64_si128::<0x01>(p, poly);
    let f2 = _mm_clmulepi64_si128::<0x01>(f1, poly);
    _mm_xor_si128(_mm_xor_si128(p, f1), f2)
}

#[target_feature(enable = "pclmulqdq", enable = "sse2")]
unsafe fn poly_hash_batch_impl(h: u64, blocks: &[[u8; crate::BLOCK_BYTES]]) -> Vec<u64> {
    let hv = _mm_set_epi64x(0, h as i64);
    let poly = _mm_set_epi64x(0, POLY as i64);
    let mut out = Vec::with_capacity(blocks.len());
    for group in blocks.chunks(MAC_LANES) {
        // Up to eight independent Horner chains: step every chain through
        // word `w` before any chain touches word `w + 1`, so the
        // three-deep CLMUL dependency of one chain executes under the
        // latency of the others. A short last group (a tree path's seven
        // nodes) interleaves the same way with fewer lanes.
        let mut acc = [_mm_setzero_si128(); MAC_LANES];
        for word in 0..8 {
            for (lane, block) in acc.iter_mut().zip(group.iter()) {
                // Unaligned 8-byte load of little-endian word `word`;
                // the high qword is zeroed, as `horner_step128` needs.
                let m = _mm_loadl_epi64(block.as_ptr().add(word * 8).cast());
                *lane = horner_step128(*lane, m, hv, poly);
            }
        }
        for lane in &acc[..group.len()] {
            out.push(_mm_cvtsi128_si64(*lane) as u64);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    //! Direct unit tests of the intrinsic paths (the broader randomized
    //! portable-vs-accelerated equivalence lives in
    //! `tests/backend_crosscheck.rs`).
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
        assert_eq!(decrypt_block(aes.round_keys(), &expected), plain);
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
        let h = 0x9e37_79b9_7f4a_7c15u64;
        // Lengths straddling MAC_LANES exercise full and short
        // interleaved groups.
        for n in [0usize, 1, 7, 8, 9, 16, 23] {
            let blocks: Vec<[u8; crate::BLOCK_BYTES]> = (0..n)
                .map(|i| core::array::from_fn(|j| (i * 67 + j * 13) as u8))
                .collect();
            let expected: Vec<u64> = blocks
                .iter()
                .map(|b| crate::mac::poly_hash_with(crate::backend::Backend::Portable, h, b))
                .collect();
            assert_eq!(poly_hash_batch(h, &blocks), expected, "n={n}");
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
