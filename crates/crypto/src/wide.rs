//! VAES + VPCLMULQDQ implementations of the batched hot primitives —
//! the `Backend::Wide` tier.
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
//! Each wrapper additionally `debug_assert!`s that capability.
//!
//! Two register shapes, chosen per process by CPU probe:
//!
//! * **vaes512** (AVX-512F): round keys broadcast into zmm registers
//!   with `_mm512_broadcast_i32x4`; each `_mm512_aesenc_epi128`
//!   advances **four** AES blocks one round. Four zmm accumulators stay
//!   in flight, so one inner-loop iteration carries 16 blocks.
//! * **vaes256** (AVX2 fallback): the same structure over ymm registers
//!   (`_mm256_aesenc_epi128`, two blocks per instruction), eight
//!   accumulators in flight — still 16 blocks per iteration, matching
//!   the `aesenc` latency/throughput ratio.
//!
//! Batch tails (fewer than 16 blocks remaining) and all single-block
//! work go through [`crate::accel`] — `wide_available()` implies
//! `accel_available()`, making the wide tier a strict superset.
//!
//! The Carter-Wegman polynomial hash is GF(2^64) Horner evaluation,
//! which is serial in the message words. [`poly_hash_batch`] splits a
//! message's eight-word chain into two four-word chains run in the two
//! 128-bit lanes of one lane pair (`_mm256_clmulepi64_epi128` multiplies
//! both lanes per instruction) and recombines as `A·H⁴ ^ B` — halving
//! the serial carry-less-multiply depth per block. The recombination
//! itself stays in the vector domain: one selector-`0x00` multiply
//! against the `[H⁴, 1]` lane constants produces `A·H⁴` and `B` side by
//! side, their 128-bit products are XORed while still unreduced, and a
//! single deferred reduction finishes the tag — no scalar GF multiply
//! on the path.
//!
//! It runs N independent messages at once: each
//! accumulator register carries whole messages per 128-bit lane pair
//! (four in-flight messages in the ymm shape, eight in the zmm shape),
//! so the three-deep CLMUL dependency of one message's Horner step
//! executes under the latency of its neighbours'. The `H⁴` lane
//! constants are squared once per batch and shared by every
//! recombination. A message without neighbours has nothing to hide that
//! latency under and pays the recombination besides, so single messages
//! — and the last `len % 4` of a batch — run on the AES-NI tier's chain.
#![allow(unsafe_code)]

use core::arch::x86_64::{
    __m128i, __m256i, __m512i, _mm256_aesenc_epi128, _mm256_aesenclast_epi128,
    _mm256_broadcastsi128_si256, _mm256_clmulepi64_epi128, _mm256_extracti128_si256,
    _mm256_loadu_si256, _mm256_set_epi64x, _mm256_setzero_si256, _mm256_storeu_si256,
    _mm256_xor_si256, _mm512_aesenc_epi128, _mm512_aesenclast_epi128, _mm512_broadcast_i32x4,
    _mm512_clmulepi64_epi128, _mm512_extracti32x4_epi32, _mm512_loadu_si512, _mm512_set_epi64,
    _mm512_setzero_si512, _mm512_storeu_si512, _mm512_xor_si512, _mm_clmulepi64_si128,
    _mm_cvtsi128_si64, _mm_loadu_si128, _mm_set_epi64x, _mm_xor_si128,
};

/// Blocks advanced by one wide inner-loop iteration (both shapes).
pub const GROUP_BLOCKS: usize = 16;

/// Messages advanced per batched-MAC inner-loop iteration in the ymm
/// shape: four independent two-lane Horner chains in flight.
pub const MAC_GROUP_256: usize = 4;

/// Messages advanced per batched-MAC inner-loop iteration in the zmm
/// shape: four zmm accumulators × two messages each.
pub const MAC_GROUP_512: usize = 8;

/// Low 64 bits of the GF(2^64) reduction polynomial
/// `x^64 + x^4 + x^3 + x + 1` (kept in sync with [`crate::mac`]).
const POLY: u64 = 0x1b;

#[inline]
fn assert_capable() {
    debug_assert!(
        crate::backend::wide_available(),
        "wide entered without vaes+vpclmulqdq+avx2 (backend dispatch bug)"
    );
}

/// `true` when the 512-bit shape is usable (AVX-512F on top of the
/// wide baseline). Probed per call site; the detection macro caches.
#[inline]
fn shape_512() -> bool {
    std::arch::is_x86_feature_detected!("avx512f")
}

/// Encrypts every 16-byte block in `blocks` in place, four blocks per
/// AES instruction, sixteen blocks per inner-loop iteration. The tail
/// (fewer than [`GROUP_BLOCKS`] blocks) runs on the AES-NI path.
pub(crate) fn encrypt_blocks(round_keys: &[[u8; 16]; 11], blocks: &mut [[u8; 16]]) {
    assert_capable();
    let tail_start = blocks.len() - blocks.len() % GROUP_BLOCKS;
    let (groups, tail) = blocks.split_at_mut(tail_start);
    if !groups.is_empty() {
        if shape_512() {
            // SAFETY: reached only via `Backend::Wide` dispatch (or the
            // backend self-test), both gated on `wide_available()`, and
            // `shape_512` just confirmed `avx512f`.
            unsafe { encrypt_groups_512(round_keys, groups) }
        } else {
            // SAFETY: as above — `wide_available()` guarantees
            // `vaes`+`avx2`.
            unsafe { encrypt_groups_256(round_keys, groups) }
        }
    }
    if !tail.is_empty() {
        crate::accel::encrypt_blocks(round_keys, tail);
    }
}

/// [`encrypt_blocks`] over 64-byte memory blocks in place — the wide
/// tier's zero-copy batched-keystream entry point. Each 64-byte block
/// is four 16-byte AES chunks laid out contiguously, so a batch of `n`
/// memory blocks is one `4n`-chunk run for the VAES kernel: no scratch
/// buffer, no copy-out.
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

/// Polynomial hashes of many independent 64-byte messages under one
/// hash key — bit-identical to evaluating
/// [`crate::mac::poly_hash_with`] per message on the portable backend.
///
/// The `H²`/`H⁴` squarings run once per call and the lane constants are
/// shared by every message's recombination, so their cost vanishes as
/// the batch grows; the Horner chains themselves run [`MAC_GROUP_512`]
/// (zmm, where available) and then [`MAC_GROUP_256`] (ymm) messages at a
/// time, and the last `len % 4` messages run on the AES-NI tier.
#[must_use]
pub(crate) fn poly_hash_batch(h: u64, blocks: &[[u8; crate::BLOCK_BYTES]]) -> Vec<u64> {
    assert_capable();
    let mut out = Vec::with_capacity(blocks.len());
    // Precompute the H⁴ lane constant by two squarings, amortized over
    // the whole batch.
    let h2 = crate::accel::gf64_mul(h, h);
    let h4 = crate::accel::gf64_mul(h2, h2);
    // Widest kernel first, then the ymm kernel over what is left (a run
    // shorter than a zmm group — a tree path's seven nodes — still gets
    // four chains in flight), then the AES-NI tier. A kernel is entered
    // only when it has a group to run: its prologue alone executes wide
    // vector instructions, and a zmm one taxes the scalar code after it.
    let mut rest = blocks;
    if shape_512() && rest.len() >= MAC_GROUP_512 {
        let (groups, tail) = rest.split_at(rest.len() - rest.len() % MAC_GROUP_512);
        // SAFETY: reached only via `Backend::Wide` dispatch (or the
        // backend self-test), both gated on `wide_available()`, and
        // `shape_512` just confirmed `avx512f`.
        unsafe { poly_hash_groups_512(h, h4, groups, &mut out) }
        rest = tail;
    }
    let (groups, tail) = rest.split_at(rest.len() - rest.len() % MAC_GROUP_256);
    if !groups.is_empty() {
        // SAFETY: as above — `wide_available()` guarantees
        // `vpclmulqdq`+`avx2` plus the `pclmulqdq` baseline.
        unsafe { poly_hash_groups_256(h, h4, groups, &mut out) }
    }
    out.extend(crate::accel::poly_hash_batch(h, tail));
    out
}

// ---- inner implementations ----
//
// `#[target_feature]` makes these callable only when the named features
// are known present; the safe wrappers above carry the proof.

#[target_feature(enable = "avx512f", enable = "vaes")]
unsafe fn encrypt_groups_512(round_keys: &[[u8; 16]; 11], blocks: &mut [[u8; 16]]) {
    debug_assert_eq!(blocks.len() % GROUP_BLOCKS, 0);
    // Each round key broadcast to all four 128-bit lanes, once per batch.
    let rk = core::array::from_fn::<_, 11, _>(|i| {
        _mm512_broadcast_i32x4(_mm_loadu_si128(round_keys[i].as_ptr().cast()))
    });
    for group in blocks.chunks_exact_mut(GROUP_BLOCKS) {
        // Four zmm accumulators = 16 independent AES streams: interleave
        // every round so the VAES units stay saturated instead of
        // stalling on `aesenc` latency.
        let base = group.as_mut_ptr().cast::<u8>();
        let mut s =
            core::array::from_fn::<_, 4, _>(|i| _mm512_loadu_si512(base.add(i * 64).cast()));
        for lane in &mut s {
            *lane = _mm512_xor_si512(*lane, rk[0]);
        }
        for key in &rk[1..10] {
            for lane in &mut s {
                *lane = _mm512_aesenc_epi128(*lane, *key);
            }
        }
        for (i, lane) in s.iter().enumerate() {
            let last = _mm512_aesenclast_epi128(*lane, rk[10]);
            _mm512_storeu_si512(base.add(i * 64).cast(), last);
        }
    }
}

#[target_feature(enable = "avx2", enable = "vaes")]
unsafe fn encrypt_groups_256(round_keys: &[[u8; 16]; 11], blocks: &mut [[u8; 16]]) {
    debug_assert_eq!(blocks.len() % GROUP_BLOCKS, 0);
    let rk = core::array::from_fn::<_, 11, _>(|i| {
        _mm256_broadcastsi128_si256(_mm_loadu_si128(round_keys[i].as_ptr().cast()))
    });
    for group in blocks.chunks_exact_mut(GROUP_BLOCKS) {
        // Eight ymm accumulators = 16 independent AES streams, two per
        // instruction.
        let base = group.as_mut_ptr().cast::<u8>();
        let mut s =
            core::array::from_fn::<_, 8, _>(|i| _mm256_loadu_si256(base.add(i * 32).cast()));
        for lane in &mut s {
            *lane = _mm256_xor_si256(*lane, rk[0]);
        }
        for key in &rk[1..10] {
            for lane in &mut s {
                *lane = _mm256_aesenc_epi128(*lane, *key);
            }
        }
        for (i, lane) in s.iter().enumerate() {
            let last = _mm256_aesenclast_epi128(*lane, rk[10]);
            _mm256_storeu_si256(base.add(i * 32).cast(), last);
        }
    }
}

/// One two-lane Horner step: `acc ← reduce((acc ^ m) · H)` in both
/// 128-bit lanes at once. Only the low qword of each lane is
/// meaningful; the high qwords carry fold garbage that the next step's
/// selector-`0x00` multiply never reads.
#[inline]
#[target_feature(enable = "avx2", enable = "vpclmulqdq")]
unsafe fn horner_step(acc: __m256i, m: __m256i, h: __m256i, poly: __m256i) -> __m256i {
    let t = _mm256_xor_si256(acc, m);
    // Per-lane 64×64→128 product of the low qwords.
    let p = _mm256_clmulepi64_epi128::<0x00>(t, h);
    // Reduce modulo x^64 + x^4 + x^3 + x + 1: fold the high qword twice
    // (selector 0x01 multiplies each lane's *high* qword by POLY). The
    // first fold's high part has at most 4 bits, so the second fold's
    // high part is zero — identical to the portable reduction.
    let f1 = _mm256_clmulepi64_epi128::<0x01>(p, poly);
    let f2 = _mm256_clmulepi64_epi128::<0x01>(f1, poly);
    _mm256_xor_si256(_mm256_xor_si256(p, f1), f2)
}

/// Finishes one deferred reduction: folds the high qword of `combined`
/// twice by POLY and returns the reduced low qword. `combined` is an
/// unreduced 128-bit GF(2) sum (here `clmul(A, H⁴) ^ B`); reduction is
/// GF(2)-linear, so reducing the sum once equals reducing each term —
/// bit-identical to `gf64_mul(A, H⁴) ^ B`.
#[inline]
#[target_feature(enable = "pclmulqdq", enable = "sse2")]
unsafe fn reduce_deferred(combined: __m128i, poly: __m128i) -> u64 {
    let f1 = _mm_clmulepi64_si128::<0x01>(combined, poly);
    let f2 = _mm_clmulepi64_si128::<0x01>(f1, poly);
    _mm_cvtsi128_si64(_mm_xor_si128(_mm_xor_si128(combined, f1), f2)) as u64
}

/// Recombines one finished two-lane accumulator `[A, B]` into the full
/// hash `A·H⁴ ^ B`, entirely in the vector domain: one selector-`0x00`
/// multiply against the `[H⁴, 1]` lane constants (`A·H⁴` lands in lane
/// 0 as an unreduced 128-bit product, `B·1 = B` in lane 1), an XOR of
/// the two lanes while still unreduced, and one deferred reduction.
#[inline]
#[target_feature(
    enable = "avx2",
    enable = "vpclmulqdq",
    enable = "pclmulqdq",
    enable = "sse2"
)]
unsafe fn recombine_256(acc: __m256i, h4v: __m256i, poly128: __m128i) -> u64 {
    let p = _mm256_clmulepi64_epi128::<0x00>(acc, h4v);
    let combined = _mm_xor_si128(
        _mm256_extracti128_si256::<0>(p),
        _mm256_extracti128_si256::<1>(p),
    );
    reduce_deferred(combined, poly128)
}

/// Batched ymm kernel: [`MAC_GROUP_256`] messages per iteration, one
/// two-lane accumulator each, stepped in lockstep so the four Horner
/// chains hide each other's CLMUL latency.
#[target_feature(
    enable = "avx2",
    enable = "vpclmulqdq",
    enable = "pclmulqdq",
    enable = "sse2"
)]
unsafe fn poly_hash_groups_256(h: u64, h4: u64, blocks: &[[u8; 64]], out: &mut Vec<u64>) {
    debug_assert_eq!(blocks.len() % MAC_GROUP_256, 0);
    let h_v = _mm256_set_epi64x(0, h as i64, 0, h as i64);
    let poly = _mm256_set_epi64x(0, POLY as i64, 0, POLY as i64);
    let h4v = _mm256_set_epi64x(0, 1, 0, h4 as i64);
    let poly128 = _mm_set_epi64x(0, POLY as i64);
    for group in blocks.chunks_exact(MAC_GROUP_256) {
        let mut acc = [_mm256_setzero_si256(); MAC_GROUP_256];
        // The sequential Horner result is Σ mᵢ·H^(8-i). Split at word 4:
        //   A = Horner(m0..m3), B = Horner(m4..m7), full = A·H⁴ ^ B
        // Lane 0 runs the A chain, lane 1 the B chain — four serial steps
        // instead of eight.
        for step in 0..4 {
            for (lane, block) in acc.iter_mut().zip(group.iter()) {
                let lo = u64::from_le_bytes(block[step * 8..step * 8 + 8].try_into().unwrap());
                let hi =
                    u64::from_le_bytes(block[32 + step * 8..40 + step * 8].try_into().unwrap());
                let m = _mm256_set_epi64x(0, hi as i64, 0, lo as i64);
                *lane = horner_step(*lane, m, h_v, poly);
            }
        }
        for lane in acc {
            out.push(recombine_256(lane, h4v, poly128));
        }
    }
}

/// One fully reduced Horner step across all four 128-bit lanes of a zmm
/// register — two messages' A/B chains per register. Same algebra as
/// [`horner_step`], twice as wide.
#[inline]
#[target_feature(enable = "avx512f", enable = "vpclmulqdq")]
unsafe fn horner_step_512(acc: __m512i, m: __m512i, h: __m512i, poly: __m512i) -> __m512i {
    let t = _mm512_xor_si512(acc, m);
    let p = _mm512_clmulepi64_epi128::<0x00>(t, h);
    let f1 = _mm512_clmulepi64_epi128::<0x01>(p, poly);
    let f2 = _mm512_clmulepi64_epi128::<0x01>(f1, poly);
    _mm512_xor_si512(_mm512_xor_si512(p, f1), f2)
}

/// Batched zmm kernel: [`MAC_GROUP_512`] messages per iteration. Each
/// zmm accumulator carries two messages as lanes `[A₀, B₀, A₁, B₁]`;
/// four accumulators keep eight messages in flight. The recombination
/// multiplies against `[H⁴, 1, H⁴, 1]` lane constants, XORs each
/// message's lane pair unreduced, and defers to one reduction per
/// message.
#[target_feature(
    enable = "avx512f",
    enable = "vpclmulqdq",
    enable = "pclmulqdq",
    enable = "sse2"
)]
unsafe fn poly_hash_groups_512(h: u64, h4: u64, blocks: &[[u8; 64]], out: &mut Vec<u64>) {
    debug_assert_eq!(blocks.len() % MAC_GROUP_512, 0);
    let h_v = _mm512_set_epi64(0, h as i64, 0, h as i64, 0, h as i64, 0, h as i64);
    let poly = _mm512_set_epi64(
        0,
        POLY as i64,
        0,
        POLY as i64,
        0,
        POLY as i64,
        0,
        POLY as i64,
    );
    let h4v = _mm512_set_epi64(0, 1, 0, h4 as i64, 0, 1, 0, h4 as i64);
    let poly128 = _mm_set_epi64x(0, POLY as i64);
    for group in blocks.chunks_exact(MAC_GROUP_512) {
        let mut acc = [_mm512_setzero_si512(); MAC_GROUP_512 / 2];
        for step in 0..4 {
            for (reg, pair) in acc.iter_mut().zip(group.chunks_exact(2)) {
                let lo0 = u64::from_le_bytes(pair[0][step * 8..step * 8 + 8].try_into().unwrap());
                let hi0 =
                    u64::from_le_bytes(pair[0][32 + step * 8..40 + step * 8].try_into().unwrap());
                let lo1 = u64::from_le_bytes(pair[1][step * 8..step * 8 + 8].try_into().unwrap());
                let hi1 =
                    u64::from_le_bytes(pair[1][32 + step * 8..40 + step * 8].try_into().unwrap());
                let m =
                    _mm512_set_epi64(0, hi1 as i64, 0, lo1 as i64, 0, hi0 as i64, 0, lo0 as i64);
                *reg = horner_step_512(*reg, m, h_v, poly);
            }
        }
        for reg in acc {
            let p = _mm512_clmulepi64_epi128::<0x00>(reg, h4v);
            let m0 = _mm_xor_si128(
                _mm512_extracti32x4_epi32::<0>(p),
                _mm512_extracti32x4_epi32::<1>(p),
            );
            let m1 = _mm_xor_si128(
                _mm512_extracti32x4_epi32::<2>(p),
                _mm512_extracti32x4_epi32::<3>(p),
            );
            out.push(reduce_deferred(m0, poly128));
            out.push(reduce_deferred(m1, poly128));
        }
    }
}

#[cfg(test)]
mod tests {
    //! Direct unit tests of the wide intrinsic paths (the broader
    //! randomized tier-pair equivalence lives in
    //! `tests/backend_crosscheck.rs`).
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
        for n in [0usize, 1, 15, 16, 17, 31, 32, 33, 48, 100] {
            let mut batch: Vec<[u8; 16]> = (0..n)
                .map(|i| core::array::from_fn(|j| (i * 37 + j * 5) as u8))
                .collect();
            let expected: Vec<[u8; 16]> = batch
                .iter()
                .map(|b| aes.encrypt_block_with(Backend::Portable, b))
                .collect();
            encrypt_blocks(aes.round_keys(), &mut batch);
            assert_eq!(batch, expected, "n={n}");
        }
    }

    #[test]
    fn wide_poly_hash_batch_matches_portable_across_remainders() {
        if !capable() {
            return;
        }
        let h = 0x0123_4567_89ab_cdefu64 | 1;
        // Lengths straddling both group widths (4 for ymm, 8 for zmm)
        // exercise the packed kernels and the AES-NI tail.
        for n in [0usize, 1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 33, 64] {
            let blocks: Vec<[u8; 64]> = (0..n)
                .map(|i| core::array::from_fn(|j| (i * 73 + j * 29 + 1) as u8))
                .collect();
            let expected: Vec<u64> = blocks
                .iter()
                .map(|b| crate::mac::poly_hash_with(Backend::Portable, h, b))
                .collect();
            assert_eq!(poly_hash_batch(h, &blocks), expected, "n={n}");
        }
    }

    #[test]
    fn shape_is_reported() {
        if !capable() {
            return;
        }
        let shape = crate::backend::wide_shape();
        assert!(shape == "vaes512" || shape == "vaes256", "{shape}");
    }
}
