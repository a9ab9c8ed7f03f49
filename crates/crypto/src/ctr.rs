//! Counter-mode keystream generation for 64-byte memory blocks.
//!
//! As in the paper (Section 2.1): "To generate a keystream for a memory
//! block, we encrypt the memory block's counter ... the counter is
//! concatenated with the physical address of the memory block being
//! encrypted before being fed to the block cipher." One 64-byte block needs
//! four AES blocks of keystream, distinguished by a chunk index inside the
//! AES input.
//!
//! The four chunks of one block — and the `4×N` chunks of a
//! [`keystream_batch`] over many blocks — are independent, so they are
//! pushed through [`Aes128::encrypt_blocks`] as one pipelined batch: the
//! key is scheduled once and, on AES-NI hosts, eight AES streams stay in
//! flight at a time. Bulk paths (group re-encryption, shard batches)
//! should prefer [`keystream_batch`] over per-block calls.

use crate::aes::Aes128;
use crate::backend::{self, Backend};
use crate::BLOCK_BYTES;

/// Number of 16-byte AES blocks of keystream per memory block.
pub const CHUNKS: usize = BLOCK_BYTES / 16;

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

/// Writes the four keystream chunk inputs for `(addr, counter)` into
/// `out`.
fn fill_nonces(addr: u64, counter: u64, out: &mut [[u8; 16]]) {
    debug_assert_eq!(out.len(), CHUNKS);
    for (chunk, slot) in out.iter_mut().enumerate() {
        *slot = nonce_block(addr, counter, chunk as u8, DOMAIN_KEYSTREAM);
    }
}

/// Generates the 64-byte keystream for the block at `addr` with write
/// counter `counter`, on the process-wide active backend.
///
/// # Example
///
/// ```
/// use ame_crypto::aes::Aes128;
/// use ame_crypto::ctr::keystream;
///
/// let aes = Aes128::new(&[1u8; 16]);
/// let a = keystream(&aes, 0x1000, 1);
/// let b = keystream(&aes, 0x1000, 2);
/// assert_ne!(a, b, "bumping the counter changes the whole keystream");
/// ```
#[must_use]
pub fn keystream(aes: &Aes128, addr: u64, counter: u64) -> [u8; BLOCK_BYTES] {
    keystream_with(backend::active(), aes, addr, counter)
}

/// [`keystream`] on an explicitly chosen backend.
#[must_use]
pub fn keystream_with(
    backend: Backend,
    aes: &Aes128,
    addr: u64,
    counter: u64,
) -> [u8; BLOCK_BYTES] {
    let mut chunks = [[0u8; 16]; CHUNKS];
    fill_nonces(addr, counter, &mut chunks);
    aes.encrypt_blocks_with(backend, &mut chunks);
    backend::count_keystream(backend, 1, CHUNKS as u64);
    let mut out = [0u8; BLOCK_BYTES];
    for (chunk, ks) in chunks.iter().enumerate() {
        out[chunk * 16..(chunk + 1) * 16].copy_from_slice(ks);
    }
    out
}

/// Generates the keystreams for many `(addr, counter)` nonces in one
/// pipelined pass: the key is scheduled once and all `4×N` AES blocks
/// flow through the cipher back to back. This is the fast path for bulk
/// work — group re-encryption, shard batch drains.
///
/// # Example
///
/// ```
/// use ame_crypto::aes::Aes128;
/// use ame_crypto::ctr::{keystream, keystream_batch};
///
/// let aes = Aes128::new(&[1u8; 16]);
/// let nonces = [(0x0, 1), (0x40, 1), (0x80, 7)];
/// let batch = keystream_batch(&aes, &nonces);
/// for (i, &(addr, ctr)) in nonces.iter().enumerate() {
///     assert_eq!(batch[i], keystream(&aes, addr, ctr));
/// }
/// ```
#[must_use]
pub fn keystream_batch(aes: &Aes128, nonces: &[(u64, u64)]) -> Vec<[u8; BLOCK_BYTES]> {
    keystream_batch_with(backend::active(), aes, nonces)
}

/// [`keystream_batch`] on an explicitly chosen backend.
///
/// The AES inputs are laid directly into the output vector (each
/// 64-byte slot holds its four 16-byte chunk nonces) and encrypted in
/// place via [`Aes128::encrypt_blocks64_with`] — no scratch block array
/// and no copy-out reshape, which is what lets the wide tier's raw
/// throughput reach the caller.
#[must_use]
pub fn keystream_batch_with(
    backend: Backend,
    aes: &Aes128,
    nonces: &[(u64, u64)],
) -> Vec<[u8; BLOCK_BYTES]> {
    let mut out = vec![[0u8; BLOCK_BYTES]; nonces.len()];
    for (block, &(addr, counter)) in out.iter_mut().zip(nonces) {
        for chunk in 0..CHUNKS {
            block[chunk * 16..(chunk + 1) * 16].copy_from_slice(&nonce_block(
                addr,
                counter,
                chunk as u8,
                DOMAIN_KEYSTREAM,
            ));
        }
    }
    aes.encrypt_blocks64_with(backend, &mut out);
    backend::count_keystream(backend, nonces.len() as u64, (nonces.len() * CHUNKS) as u64);
    backend::count_batch(backend);
    out
}

/// Generates a 16-byte pad for MAC masking, bound to the same
/// (address, counter) nonce but in a separate cipher domain.
#[must_use]
pub fn mac_pad(aes: &Aes128, addr: u64, counter: u64) -> [u8; 16] {
    mac_pad_with(backend::active(), aes, addr, counter)
}

/// [`mac_pad`] on an explicitly chosen backend.
#[must_use]
pub fn mac_pad_with(backend: Backend, aes: &Aes128, addr: u64, counter: u64) -> [u8; 16] {
    aes.encrypt_block_with(backend, &nonce_block(addr, counter, 0, DOMAIN_MAC))
}

/// Generates the MAC pads for many `(addr, counter)` nonces in one
/// pipelined pass — the MAC-side analogue of [`keystream_batch`]. Each
/// tag needs one AES block of mask; computing them one `encrypt_block`
/// at a time leaves the AES units idle between tags, so the batched tag
/// path feeds all N nonce blocks through [`Aes128::encrypt_blocks_with`]
/// and lets the pipelined/VAES tiers keep their lanes full.
#[must_use]
pub fn mac_pads_batch_with(backend: Backend, aes: &Aes128, nonces: &[(u64, u64)]) -> Vec<[u8; 16]> {
    let mut pads: Vec<[u8; 16]> = nonces
        .iter()
        .map(|&(addr, counter)| nonce_block(addr, counter, 0, DOMAIN_MAC))
        .collect();
    aes.encrypt_blocks_with(backend, &mut pads);
    pads
}

#[cfg(test)]
mod tests {
    use super::*;

    fn aes() -> Aes128 {
        Aes128::new(&[0x42; 16])
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
        let batch = keystream_batch(&aes, &nonces);
        assert_eq!(batch.len(), nonces.len());
        for (i, &(addr, ctr)) in nonces.iter().enumerate() {
            assert_eq!(batch[i], keystream(&aes, addr, ctr), "nonce {i}");
        }
        assert!(keystream_batch(&aes, &[]).is_empty());
    }

    #[test]
    fn batched_pads_match_per_tag_calls() {
        let aes = aes();
        let nonces: Vec<(u64, u64)> = (0..17u64)
            .map(|i| (i * 64, i.wrapping_mul(3) ^ 9))
            .collect();
        for backend in crate::backend::Backend::ALL {
            let pads = mac_pads_batch_with(backend, &aes, &nonces);
            assert_eq!(pads.len(), nonces.len());
            for (i, &(addr, ctr)) in nonces.iter().enumerate() {
                assert_eq!(pads[i], mac_pad(&aes, addr, ctr), "{backend} nonce {i}");
            }
            assert!(mac_pads_batch_with(backend, &aes, &[]).is_empty());
        }
    }

    #[test]
    fn mac_pad_domain_separated_from_keystream() {
        let ks = keystream(&aes(), 0x100, 1);
        let pad = mac_pad(&aes(), 0x100, 1);
        assert_ne!(&ks[..16], &pad[..]);
    }

    #[test]
    fn backends_agree_on_keystreams() {
        // On hosts without AES-NI both arms run portable code and the
        // assertion is trivially true; on capable hosts this pins the
        // dispatch seam inside this module.
        let aes = aes();
        for backend in crate::backend::Backend::ALL {
            assert_eq!(
                keystream_with(backend, &aes, 0x1000, 3),
                keystream_with(crate::backend::Backend::Portable, &aes, 0x1000, 3),
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
