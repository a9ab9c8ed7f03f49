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
//! Two crate-private kernels make every keystream, on the tier the
//! [`crate::MemoryCipher`] chose: `keystream_with` for one block and
//! `keystream_batch_with` for a run. Both lay the four chunk nonces of
//! a block directly in the output and encrypt them in place, so no
//! scratch array or copy-out sits between the cipher and the caller; a
//! run's `4×N` chunks flow through the pipelined AES kernels back to
//! back. The public entry points are `MemoryCipher::{encrypt_block,
//! decrypt_block, keystream_batch}`.
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

/// Number of 16-byte AES blocks of keystream per memory block.
const CHUNKS: usize = BLOCK_BYTES / 16;

/// Domain-separation tag placed in the AES input for data keystreams, so
/// keystream inputs can never collide with MAC-mask inputs.
const DOMAIN_KEYSTREAM: u8 = 0x4b; // 'K'

/// Domain-separation tag for MAC masks (chunk index fixed at 0).
const DOMAIN_MAC: u8 = 0x4d; // 'M'

/// Exclusive upper bound on a data block address: `nonce_block` keeps
/// only the low 48 address bits, so blocks `A` and `A + ADDR_LIMIT`
/// would share a keystream and a MAC pad. 256 TiB, far beyond the
/// 512 MB protected region the paper evaluates; every entry point that
/// accepts a data address or a region size checks against it.
pub const ADDR_LIMIT: u64 = 1 << 48;

/// Builds the 16-byte AES input for one keystream chunk:
/// `counter (8 bytes LE) || address (6 low bytes LE) || chunk || domain`.
///
/// Addresses are block-aligned physical addresses below [`ADDR_LIMIT`].
#[must_use]
fn nonce_block(addr: u64, counter: u64, chunk: u8, domain: u8) -> [u8; 16] {
    let mut inp = [0u8; 16];
    inp[..8].copy_from_slice(&counter.to_le_bytes());
    inp[8..14].copy_from_slice(&addr.to_le_bytes()[..6]);
    inp[14] = chunk;
    inp[15] = domain;
    inp
}

/// Lays the four keystream chunk inputs of `(addr, counter)` into
/// `block`, where the AES kernels encrypt them in place.
fn lay_nonces(block: &mut [u8; BLOCK_BYTES], addr: u64, counter: u64) {
    for chunk in 0..CHUNKS {
        block[chunk * 16..(chunk + 1) * 16].copy_from_slice(&nonce_block(
            addr,
            counter,
            chunk as u8,
            DOMAIN_KEYSTREAM,
        ));
    }
}

/// The 64-byte keystream of the block at `addr` with write counter
/// `counter`, on `backend`.
#[must_use]
pub(crate) fn keystream_with(
    backend: Backend,
    aes: &Aes128,
    addr: u64,
    counter: u64,
) -> [u8; BLOCK_BYTES] {
    let mut out = [0u8; BLOCK_BYTES];
    lay_nonces(&mut out, addr, counter);
    aes.encrypt_blocks64_with(backend, core::slice::from_mut(&mut out));
    backend::count_keystream(backend, 1, CHUNKS as u64);
    out
}

/// The keystreams of many `(addr, counter)` nonces in one pipelined pass
/// on `backend`: the key is scheduled once and all `4×N` AES blocks flow
/// through the cipher back to back, encrypted where they lie in the
/// output vector ([`Aes128::encrypt_blocks64_with`]). This is the fast
/// path for bulk work — group re-encryption, shard batch drains.
#[must_use]
pub(crate) fn keystream_batch_with(
    backend: Backend,
    aes: &Aes128,
    nonces: &[(u64, u64)],
) -> Vec<[u8; BLOCK_BYTES]> {
    let mut out = vec![[0u8; BLOCK_BYTES]; nonces.len()];
    for (block, &(addr, counter)) in out.iter_mut().zip(nonces) {
        lay_nonces(block, addr, counter);
    }
    aes.encrypt_blocks64_with(backend, &mut out);
    backend::count_keystream(backend, nonces.len() as u64, (nonces.len() * CHUNKS) as u64);
    backend::count_batch(backend);
    out
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
        for i in 0..CHUNKS {
            for j in (i + 1)..CHUNKS {
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
        let batch = keystream_batch_with(backend::active(), &aes, &nonces);
        assert_eq!(batch.len(), nonces.len());
        for (i, &(addr, ctr)) in nonces.iter().enumerate() {
            assert_eq!(batch[i], keystream(&aes, addr, ctr), "nonce {i}");
        }
        assert!(keystream_batch_with(backend::active(), &aes, &[]).is_empty());
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
