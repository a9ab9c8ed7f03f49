//! Counter-mode keystream generation for 64-byte memory blocks.
//!
//! As in the paper (Section 2.1): "To generate a keystream for a memory
//! block, we encrypt the memory block's counter ... the counter is
//! concatenated with the physical address of the memory block being
//! encrypted before being fed to the block cipher." One 64-byte block needs
//! four AES blocks of keystream, distinguished by a chunk index inside the
//! AES input; a MAC pad is one more AES block of the same nonce in a
//! separate domain.
//!
//! One crate-private kernel makes every keystream, on the tier the
//! [`crate::MemoryCipher`] chose: `xor_keystream_with` XORs the keystreams
//! of a run of nonces into the caller's blocks where they lie. The
//! hardware tiers build each block's four chunk nonces in registers and
//! XOR the AES output straight into the block, so no nonce array, no
//! keystream buffer and no second XOR pass sit between the cipher and
//! the caller. The public entry points are `MemoryCipher::{encrypt_block,
//! decrypt_block, xor_keystream, keystream_batch}`.
//!
//! # Example
//!
//! ```
//! use ame_crypto::MemoryCipher;
//!
//! let cipher = MemoryCipher::from_seed(1);
//! let zero = [0u8; 64];
//! // Encrypting zeros exposes the keystream: bumping the counter
//! // changes it, and the batched kernel makes the same bytes.
//! let a = cipher.encrypt_block(0x1000, 1, &zero);
//! let b = cipher.encrypt_block(0x1000, 2, &zero);
//! assert_ne!(a, b);
//! assert_eq!(cipher.keystream_batch(&[(0x1000, 1), (0x1000, 2)]), vec![a, b]);
//! ```

use crate::aes::Aes128;
use crate::backend::{self, Backend};
use crate::BLOCK_BYTES;

/// Domain-separation tag placed in the AES input for data keystreams, so
/// keystream inputs can never collide with MAC-mask inputs.
pub(crate) const DOMAIN_KEYSTREAM: u8 = 0x4b; // 'K'

/// Domain-separation tag for MAC masks (chunk index fixed at 0).
pub(crate) const DOMAIN_MAC: u8 = 0x4d; // 'M'

/// Exclusive upper bound on a data block address: `nonce_block` keeps
/// only the low 48 address bits, so blocks `A` and `A + ADDR_LIMIT`
/// would share a keystream and a MAC pad. 256 TiB, far beyond the
/// 512 MB protected region the paper evaluates; every entry point that
/// accepts a data address or a region size checks against it.
pub const ADDR_LIMIT: u64 = 1 << 48;

/// The high half of the AES input of `(addr, domain)`'s chunk 0, as a
/// little-endian word: the low 48 address bits, chunk index 0 and the
/// domain byte. Chunk `c` adds `c << 48`; the low half is the counter.
/// The hardware kernels build their nonces in registers from it.
#[inline]
pub(crate) fn nonce_high(addr: u64, domain: u8) -> u64 {
    addr & (ADDR_LIMIT - 1) | u64::from(domain) << 56
}

/// Builds the 16-byte AES input for one keystream chunk:
/// `counter (8 bytes LE) || address (6 low bytes LE) || chunk || domain`.
///
/// Addresses are block-aligned physical addresses below [`ADDR_LIMIT`].
#[must_use]
fn nonce_block(addr: u64, counter: u64, chunk: u8, domain: u8) -> [u8; 16] {
    let high = nonce_high(addr, domain) | u64::from(chunk) << 48;
    let mut inp = [0u8; 16];
    inp[..8].copy_from_slice(&counter.to_le_bytes());
    inp[8..].copy_from_slice(&high.to_le_bytes());
    inp
}

/// XORs the keystream of `nonces[k]` into `blocks[k]`, in place, on
/// `backend`: encrypts and decrypts (counter mode is an involution). A
/// run of `wide::MIN_RUN` blocks or more takes the wide kernels
/// on the wide tier; shorter runs and single blocks take the AES-NI one,
/// so a scalar call never enters zmm code. The caller counts the work.
///
/// # Panics
///
/// Panics if `nonces` and `blocks` have different lengths.
pub(crate) fn xor_keystream_with(
    backend: Backend,
    aes: &Aes128,
    nonces: &[(u64, u64)],
    blocks: &mut [[u8; BLOCK_BYTES]],
) {
    assert_eq!(nonces.len(), blocks.len(), "one nonce per block");
    #[cfg(target_arch = "x86_64")]
    {
        if backend.is_wide() && nonces.len() >= crate::wide::MIN_RUN && backend::wide_available() {
            let shape = crate::wide::Shape::host();
            return crate::wide::xor_keystream(shape, aes.round_keys(), nonces, blocks);
        }
        if backend.is_accelerated() && backend::accel_available() {
            return crate::accel::xor_keystream(aes.round_keys(), nonces, blocks);
        }
    }
    for (block, &(addr, counter)) in blocks.iter_mut().zip(nonces) {
        for (chunk, bytes) in block.chunks_exact_mut(16).enumerate() {
            let nonce = nonce_block(addr, counter, chunk as u8, DOMAIN_KEYSTREAM);
            let pad = aes.encrypt_block_with(Backend::Portable, &nonce);
            bytes.iter_mut().zip(pad).for_each(|(b, k)| *b ^= k);
        }
    }
}

/// The AES input whose encryption is the MAC pad of `(addr, counter)`
/// (see [`crate::mac::pads_with`]).
pub(crate) fn mac_nonce_block(addr: u64, counter: u64) -> [u8; 16] {
    nonce_block(addr, counter, 0, DOMAIN_MAC)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn aes() -> Aes128 {
        Aes128::new(&[0x42; 16])
    }

    /// The keystream of one block on `backend`: its XOR into zeros.
    fn keystream_with(backend: Backend, aes: &Aes128, addr: u64, counter: u64) -> [u8; 64] {
        let mut out = [0u8; BLOCK_BYTES];
        xor_keystream_with(
            backend,
            aes,
            &[(addr, counter)],
            core::slice::from_mut(&mut out),
        );
        out
    }

    fn keystream(aes: &Aes128, addr: u64, counter: u64) -> [u8; BLOCK_BYTES] {
        keystream_with(backend::active(), aes, addr, counter)
    }

    #[test]
    fn keystream_is_deterministic() {
        assert_eq!(keystream(&aes(), 64, 9), keystream(&aes(), 64, 9));
    }

    #[test]
    fn keystream_chunks_differ() {
        let ks = keystream(&aes(), 64, 9);
        for i in 0..4 {
            for j in (i + 1)..4 {
                assert_ne!(ks[i * 16..(i + 1) * 16], ks[j * 16..(j + 1) * 16]);
            }
        }
    }

    #[test]
    fn keystream_varies_with_address_and_counter() {
        let base = keystream(&aes(), 0x100, 1);
        assert_ne!(base, keystream(&aes(), 0x140, 1));
        assert_ne!(base, keystream(&aes(), 0x100, 2));
    }

    #[test]
    fn batch_matches_per_block_calls() {
        let aes = aes();
        let nonces: Vec<(u64, u64)> = (0..13).map(|i| (i * 64, i ^ 5)).collect();
        let blocks: Vec<[u8; 64]> = (0..13).map(|i| [i as u8; 64]).collect();
        let mut batch = blocks.clone();
        xor_keystream_with(backend::active(), &aes, &nonces, &mut batch);
        for (i, &(addr, ctr)) in nonces.iter().enumerate() {
            let mut expected = keystream(&aes, addr, ctr);
            expected.iter_mut().for_each(|k| *k ^= i as u8);
            assert_eq!(batch[i], expected, "nonce {i}");
        }
        xor_keystream_with(backend::active(), &aes, &[], &mut []);
    }

    #[test]
    fn batched_pads_match_per_tag_calls() {
        // `pads_with` takes a one-nonce fast path and a chunked path for
        // more (here a full 16-nonce chunk and a short one): both give
        // the portable single-block pad on every tier.
        let aes = aes();
        let nonces: Vec<(u64, u64)> = (0..17u64)
            .map(|i| (i * 64, i.wrapping_mul(3) ^ 9))
            .collect();
        for backend in Backend::ALL {
            let mut pads = [0u64; 17];
            crate::mac::pads_with(backend, &aes, &nonces, &mut pads);
            for (i, &(addr, ctr)) in nonces.iter().enumerate() {
                let mut single = [0];
                crate::mac::pads_with(backend, &aes, &[(addr, ctr)], &mut single);
                let block = aes.encrypt_block_with(Backend::Portable, &mac_nonce_block(addr, ctr));
                let reference = u64::from_le_bytes(block[..8].try_into().unwrap());
                assert_eq!(pads[i], reference, "{backend} nonce {i}");
                assert_eq!(single[0], reference, "{backend} single {i}");
            }
            crate::mac::pads_with(backend, &aes, &[], &mut []);
        }
    }

    #[test]
    fn mac_pad_domain_separated_from_keystream() {
        let ks = keystream(&aes(), 0x100, 1);
        let pad = aes().encrypt_block_with(backend::active(), &mac_nonce_block(0x100, 1));
        assert_ne!(&ks[..16], &pad[..]);
    }

    #[test]
    fn backends_agree_on_keystreams() {
        // On hosts without AES-NI both arms run portable code and the
        // assertion is trivially true; on capable hosts this pins the
        // dispatch seam inside this module.
        let aes = aes();
        for backend in Backend::ALL {
            assert_eq!(
                keystream_with(backend, &aes, 0x1000, 3),
                keystream_with(Backend::Portable, &aes, 0x1000, 3),
                "{backend}"
            );
        }
    }

    #[test]
    fn nonce_layout_uses_low_48_address_bits() {
        // Addresses differing only above bit 47 alias — documented limit.
        let a = keystream(&aes(), 0x0000_1000, 1);
        let b = keystream(&aes(), 0x0001_0000_0000_1000, 1);
        assert_eq!(a, b);
    }
}
