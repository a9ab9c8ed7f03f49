//! Cryptographic primitives for counter-mode authenticated memory
//! encryption, implemented from scratch (no external crypto crates).
//!
//! The construction mirrors the SGX-style memory encryption engine the
//! paper builds on (Gueron, *Memory Encryption for General-Purpose
//! Processors*, and Section 3.2 of the DAC'18 paper):
//!
//! * [`aes`] — AES-128, validated against the FIPS-197 test vectors.
//! * [`ctr`] — counter-mode keystream generation for 64-byte memory
//!   blocks; the keystream is derived from the block's *physical address*
//!   and its *write counter*, so every (address, counter) pair yields a
//!   unique pad.
//! * [`mac`] — a Carter-Wegman MAC: a polynomial hash over GF(2^64)
//!   (single-cycle Galois-field multiply hardware in the paper), masked by
//!   an AES-generated pad bound to the same (address, counter) nonce, and
//!   truncated to **56 bits** as in Intel SGX.
//!
//! # Example
//!
//! ```
//! use ame_crypto::MemoryCipher;
//!
//! let cipher = MemoryCipher::from_seed(42);
//! let plain = [7u8; 64];
//! let (addr, ctr) = (0x8000, 3);
//! let ct = cipher.encrypt_block(addr, ctr, &plain);
//! let tag = cipher.mac_block(addr, ctr, &ct);
//! assert_eq!(cipher.decrypt_block(addr, ctr, &ct), plain);
//! assert!(cipher.verify_block(addr, ctr, &ct, tag));
//! ```

// The crate is `unsafe`-free except for the audited intrinsics in
// [`accel`] and [`wide`], which opt back in with
// `#![allow(unsafe_code)]` and keep every unsafe block behind a
// documented safety invariant.
#![deny(unsafe_code)]
#![warn(missing_docs)]

#[cfg(target_arch = "x86_64")]
pub(crate) mod accel;
pub mod aes;
pub mod backend;
pub mod ctr;
pub mod mac;
#[cfg(target_arch = "x86_64")]
pub(crate) mod wide;

use aes::Aes128;
use std::sync::Arc;

/// Size of a protected memory block in bytes.
pub const BLOCK_BYTES: usize = 64;

/// Width of a MAC tag in bits (matches Intel SGX).
pub const TAG_BITS: u32 = 56;

/// Mask selecting the 56 tag bits of a packed `u64`.
pub const TAG_MASK: u64 = (1u64 << TAG_BITS) - 1;

/// The complete per-boot cryptographic state of the memory encryption
/// engine: an AES-128 data key, an AES-128 MAC-masking key and a GF(2^64)
/// hash key.
///
/// All keys are derived deterministically from a seed so simulations are
/// reproducible; a real engine would draw them from a hardware RNG at boot.
#[derive(Debug, Clone)]
pub struct MemoryCipher {
    data_key: Aes128,
    mac_key: Aes128,
    hash_key: u64,
    /// Per-hash-key flip-and-check contribution table, computed once at
    /// key derivation and shared by every [`mac::MacProbe`] this cipher
    /// builds (512 GF multiplies saved per probe).
    probe_table: Arc<[u64; 512]>,
}

impl MemoryCipher {
    /// Derives all keys from a 64-bit seed using AES itself as a PRF.
    #[must_use]
    pub fn from_seed(seed: u64) -> Self {
        let mut root = [0u8; 16];
        root[..8].copy_from_slice(&seed.to_le_bytes());
        root[8..].copy_from_slice(&seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).to_le_bytes());
        let kdf = Aes128::new(&root);
        let expand = |label: u8| {
            let inp = [label; 16];
            kdf.encrypt_block(&inp)
        };
        let data_key = Aes128::new(&expand(1));
        let mac_key = Aes128::new(&expand(2));
        let hk_bytes = expand(3);
        let mut hk8 = [0u8; 8];
        hk8.copy_from_slice(&hk_bytes[..8]);
        // A zero hash key would make the hash ignore all but the last word.
        let hash_key = u64::from_le_bytes(hk8) | 1;
        Self {
            data_key,
            mac_key,
            hash_key,
            probe_table: mac::probe_contributions(hash_key),
        }
    }

    /// Encrypts one 64-byte block in counter mode under nonce
    /// `(addr, counter)`.
    #[must_use]
    pub fn encrypt_block(
        &self,
        addr: u64,
        counter: u64,
        plain: &[u8; BLOCK_BYTES],
    ) -> [u8; BLOCK_BYTES] {
        let ks = ctr::keystream(&self.data_key, addr, counter);
        let mut out = *plain;
        for (o, k) in out.iter_mut().zip(ks.iter()) {
            *o ^= k;
        }
        out
    }

    /// Decrypts one 64-byte block (counter mode is an involution).
    #[must_use]
    pub fn decrypt_block(
        &self,
        addr: u64,
        counter: u64,
        ct: &[u8; BLOCK_BYTES],
    ) -> [u8; BLOCK_BYTES] {
        self.encrypt_block(addr, counter, ct)
    }

    /// Generates the keystreams for many `(addr, counter)` nonces in one
    /// pipelined pass — the bulk-path primitive for group re-encryption
    /// and batched shard drains. XOR-ing a block with its keystream
    /// encrypts *and* decrypts (counter mode is an involution).
    ///
    /// # Example
    ///
    /// ```
    /// use ame_crypto::MemoryCipher;
    ///
    /// let cipher = MemoryCipher::from_seed(7);
    /// let nonces = [(0x0, 1), (0x40, 2)];
    /// let ks = cipher.keystream_batch(&nonces);
    /// let mut block = [0x5au8; 64];
    /// for (b, k) in block.iter_mut().zip(ks[1].iter()) {
    ///     *b ^= k;
    /// }
    /// assert_eq!(block, cipher.encrypt_block(0x40, 2, &[0x5au8; 64]));
    /// ```
    #[must_use]
    pub fn keystream_batch(&self, nonces: &[(u64, u64)]) -> Vec<[u8; BLOCK_BYTES]> {
        ctr::keystream_batch(&self.data_key, nonces)
    }

    /// Computes the 56-bit Carter-Wegman MAC tag over a ciphertext block,
    /// bound to its address and counter (Bonsai-Merkle-Tree style: the
    /// counter is an input to the MAC, so counter integrity implies data
    /// integrity).
    #[must_use]
    pub fn mac_block(&self, addr: u64, counter: u64, ct: &[u8; BLOCK_BYTES]) -> u64 {
        mac::tag(&self.mac_key, self.hash_key, addr, counter, ct)
    }

    /// Computes the 56-bit Carter-Wegman tags of many independent
    /// ciphertext blocks in one multi-message pass — bit-identical to
    /// calling [`MemoryCipher::mac_block`] per block, but the polynomial
    /// hashes run as interleaved Horner chains and the AES pads as one
    /// pipelined batch. This is the bulk-path tag primitive that pairs
    /// with [`MemoryCipher::keystream_batch`] on fused reads and writes.
    ///
    /// # Panics
    ///
    /// Panics if `nonces` and `blocks` have different lengths.
    ///
    /// # Example
    ///
    /// ```
    /// use ame_crypto::MemoryCipher;
    ///
    /// let cipher = MemoryCipher::from_seed(7);
    /// let nonces = [(0x0, 1), (0x40, 2)];
    /// let blocks = [[0x5au8; 64], [0xa5u8; 64]];
    /// let tags = cipher.mac_batch(&nonces, &blocks);
    /// assert_eq!(tags[0], cipher.mac_block(0x0, 1, &blocks[0]));
    /// assert_eq!(tags[1], cipher.mac_block(0x40, 2, &blocks[1]));
    /// ```
    #[must_use]
    pub fn mac_batch(&self, nonces: &[(u64, u64)], blocks: &[[u8; BLOCK_BYTES]]) -> Vec<u64> {
        mac::tags_batch(&self.mac_key, self.hash_key, nonces, blocks)
    }

    /// Verifies a 56-bit tag over a ciphertext block.
    #[must_use]
    pub fn verify_block(&self, addr: u64, counter: u64, ct: &[u8; BLOCK_BYTES], tag: u64) -> bool {
        self.mac_block(addr, counter, ct) == tag & TAG_MASK
    }

    /// Computes a full-width 64-bit MAC over a 64-byte node, used for
    /// integrity-tree levels where the storage format has room for the
    /// whole tag.
    #[must_use]
    pub fn mac_node(&self, addr: u64, counter: u64, node: &[u8; BLOCK_BYTES]) -> u64 {
        mac::tag_full(&self.mac_key, self.hash_key, addr, counter, node)
    }

    /// Full-width MACs of many nodes in one multi-message pass —
    /// bit-identical to calling [`MemoryCipher::mac_node`] per node. This
    /// is how an integrity-tree walk verifies a whole leaf-to-root path
    /// at once.
    ///
    /// # Panics
    ///
    /// Panics if `nonces` and `nodes` have different lengths.
    #[must_use]
    pub fn mac_node_batch(&self, nonces: &[(u64, u64)], nodes: &[[u8; BLOCK_BYTES]]) -> Vec<u64> {
        mac::tags_full_batch_with(
            backend::active(),
            &self.mac_key,
            self.hash_key,
            nonces,
            nodes,
        )
    }

    /// The AES masks of the node MACs at `nonces`, from one pipelined
    /// pass. An integrity-tree path update needs each node's MAC before
    /// it can form the parent's content, so only the hashes are serial:
    /// the masks are fetched here and each MAC finished with
    /// [`MemoryCipher::mac_node_padded`].
    #[must_use]
    pub fn mac_node_pads(&self, nonces: &[(u64, u64)]) -> Vec<u64> {
        mac::pads_batch_with(backend::active(), &self.mac_key, nonces)
    }

    /// [`MemoryCipher::mac_node`] under a mask from
    /// [`MemoryCipher::mac_node_pads`].
    #[must_use]
    pub fn mac_node_padded(&self, pad: u64, node: &[u8; BLOCK_BYTES]) -> u64 {
        mac::tag_full_padded_with(backend::active(), self.hash_key, pad, node)
    }

    /// Builds a [`mac::MacProbe`] for fast flip-and-check error correction
    /// over `ct` under nonce `(addr, counter)`.
    #[must_use]
    pub fn mac_probe(&self, addr: u64, counter: u64, ct: &[u8; BLOCK_BYTES]) -> mac::MacProbe {
        mac::MacProbe::with_contributions(
            &self.mac_key,
            self.hash_key,
            addr,
            counter,
            ct,
            Arc::clone(&self.probe_table),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let c = MemoryCipher::from_seed(7);
        let p = [0xabu8; 64];
        let ct = c.encrypt_block(100, 5, &p);
        assert_ne!(ct, p);
        assert_eq!(c.decrypt_block(100, 5, &ct), p);
    }

    #[test]
    fn different_nonce_different_keystream() {
        let c = MemoryCipher::from_seed(7);
        let p = [0u8; 64];
        let a = c.encrypt_block(100, 5, &p);
        let b = c.encrypt_block(100, 6, &p);
        let d = c.encrypt_block(164, 5, &p);
        assert_ne!(a, b);
        assert_ne!(a, d);
        assert_ne!(b, d);
    }

    #[test]
    fn tag_is_56_bits() {
        let c = MemoryCipher::from_seed(1);
        let tag = c.mac_block(0, 0, &[0u8; 64]);
        assert_eq!(tag & !TAG_MASK, 0);
    }

    #[test]
    fn verify_detects_any_single_bit_flip() {
        let c = MemoryCipher::from_seed(3);
        let ct = c.encrypt_block(0x40, 1, &[0x5au8; 64]);
        let tag = c.mac_block(0x40, 1, &ct);
        for byte in 0..64 {
            for bit in 0..8 {
                let mut bad = ct;
                bad[byte] ^= 1 << bit;
                assert!(!c.verify_block(0x40, 1, &bad, tag), "byte {byte} bit {bit}");
            }
        }
    }

    #[test]
    fn verify_binds_address_and_counter() {
        let c = MemoryCipher::from_seed(3);
        let ct = c.encrypt_block(0x40, 1, &[1u8; 64]);
        let tag = c.mac_block(0x40, 1, &ct);
        assert!(c.verify_block(0x40, 1, &ct, tag));
        assert!(!c.verify_block(0x80, 1, &ct, tag), "address must be bound");
        assert!(!c.verify_block(0x40, 2, &ct, tag), "counter must be bound");
    }

    #[test]
    fn batched_and_padded_node_macs_equal_mac_node() {
        let c = MemoryCipher::from_seed(11);
        let nonces: Vec<(u64, u64)> = (0..7u64)
            .map(|l| (((l + 1) << 48) ^ (900 >> l), 0))
            .collect();
        let nodes: Vec<[u8; 64]> = (0..7usize)
            .map(|l| core::array::from_fn(|j| (l * 37 + j * 5) as u8))
            .collect();
        let batch = c.mac_node_batch(&nonces, &nodes);
        let pads = c.mac_node_pads(&nonces);
        for (i, (&(addr, ctr), node)) in nonces.iter().zip(&nodes).enumerate() {
            assert_eq!(batch[i], c.mac_node(addr, ctr, node), "node {i}");
            assert_eq!(
                c.mac_node_padded(pads[i], node),
                batch[i],
                "padded node {i}"
            );
        }
    }

    #[test]
    fn seeds_give_distinct_keys() {
        let a = MemoryCipher::from_seed(1);
        let b = MemoryCipher::from_seed(2);
        assert_ne!(
            a.encrypt_block(0, 0, &[0u8; 64]),
            b.encrypt_block(0, 0, &[0u8; 64])
        );
    }
}
