//! Cryptographic primitives for counter-mode authenticated memory
//! encryption, implemented from scratch (no external crypto crates).
//!
//! The construction mirrors the SGX-style memory encryption engine the
//! paper builds on (Gueron, *Memory Encryption for General-Purpose
//! Processors*, and Section 3.2 of the DAC'18 paper):
//!
//! * `aes` — AES-128, forward direction only (counter mode never runs
//!   the inverse cipher), validated against the FIPS-197 test vectors.
//! * [`ctr`] — counter-mode keystream generation for 64-byte memory
//!   blocks; the keystream is derived from the block's *physical address*
//!   and its *write counter*, so every (address, counter) pair yields a
//!   unique pad.
//! * [`mac`] — a Carter-Wegman MAC: a polynomial hash over GF(2^64)
//!   (single-cycle Galois-field multiply hardware in the paper), masked by
//!   an AES-generated pad bound to the same (address, counter) nonce, and
//!   truncated to **56 bits** as in Intel SGX.
//! * [`backend`] — which implementation tier (portable, AES-NI, VAES)
//!   serves the process, and each tier's operation totals, summed over
//!   its ciphers.
//!
//! [`MemoryCipher`] is the one door into all of it: it derives the keys,
//! reads the tier once, makes every keystream, MAC pad and tag through
//! one crate-private kernel per job on that tier, and counts the work
//! it did ([`MemoryCipher::ops`]).
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
pub(crate) mod aes;
pub mod backend;
#[cfg(test)]
mod crosscheck;
pub mod ctr;
pub mod mac;
#[cfg(target_arch = "x86_64")]
pub(crate) mod wide;

use aes::Aes128;
use backend::{Backend, CipherCounts, OpsSnapshot};
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;

/// Size of a protected memory block in bytes.
pub const BLOCK_BYTES: usize = 64;

/// Width of a MAC tag in bits (matches Intel SGX).
pub const TAG_BITS: u32 = 56;

/// Mask selecting the 56 tag bits of a packed `u64`.
pub const TAG_MASK: u64 = (1u64 << TAG_BITS) - 1;

/// The complete per-boot cryptographic state of the memory encryption
/// engine: an AES-128 data key, an AES-128 MAC-masking key and a GF(2^64)
/// hash key `H` (held as its powers), and the crypto tier every operation
/// runs on.
///
/// All keys are derived deterministically from a seed so simulations are
/// reproducible; a real engine would draw them from a hardware RNG at boot.
/// The tier is [`backend::active`], read once when the keys are derived:
/// no method dispatches on the process-wide selection again.
///
/// The cipher counts its own keystreams and tags ([`Self::ops`]); a clone
/// shares its cipher's counts.
#[derive(Debug, Clone)]
pub struct MemoryCipher {
    backend: Backend,
    data_key: Aes128,
    mac_key: Aes128,
    /// The hash key's word multipliers `[H⁸, …, H]`, derived once so
    /// every tag, single or in a run, is eight independent products and
    /// one reduction.
    hash_powers: [u64; 8],
    /// Per-hash-key flip-and-check contribution table, computed once at
    /// key derivation and shared by every [`mac::MacProbe`] this cipher
    /// builds (512 GF multiplies saved per probe).
    probe_table: Arc<[u64; 512]>,
    counts: Arc<CipherCounts>,
}

impl MemoryCipher {
    /// Derives all keys from a 64-bit seed using AES itself as a PRF, on
    /// the process's crypto tier ([`backend::active`]).
    #[must_use]
    pub fn from_seed(seed: u64) -> Self {
        Self::on(backend::active(), seed)
    }

    /// [`Self::from_seed`] on a named tier: the crate's tier cross-checks
    /// build one cipher per tier from it.
    pub(crate) fn on(backend: Backend, seed: u64) -> Self {
        let mut root = [0u8; 16];
        root[..8].copy_from_slice(&seed.to_le_bytes());
        root[8..].copy_from_slice(&seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).to_le_bytes());
        let kdf = Aes128::new(&root);
        let expand = |label: u8| kdf.encrypt_block_with(backend, &[label; 16]);
        let data_key = Aes128::new(&expand(1));
        let mac_key = Aes128::new(&expand(2));
        let hk_bytes = expand(3);
        let mut hk8 = [0u8; 8];
        hk8.copy_from_slice(&hk_bytes[..8]);
        // A zero hash key would make the hash ignore all but the last word.
        let hash_key = u64::from_le_bytes(hk8) | 1;
        Self {
            backend,
            data_key,
            mac_key,
            hash_powers: mac::hash_powers(hash_key),
            probe_table: mac::probe_contributions(backend, hash_key),
            counts: CipherCounts::register(backend),
        }
    }

    /// The keystreams and tags this cipher and its clones have made.
    #[must_use]
    pub fn ops(&self) -> OpsSnapshot {
        self.counts.snapshot()
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
        let mut out = *plain;
        let run = core::slice::from_mut(&mut out);
        ctr::xor_keystream_with(self.backend, &self.data_key, &[(addr, counter)], run);
        self.counts.keystream_calls.fetch_add(1, Relaxed);
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

    /// XORs the keystream of each `(addr, counter)` nonce into the
    /// matching block, in place: encrypts a run of plaintexts, or
    /// decrypts a run of ciphertexts (counter mode is an involution),
    /// in the caller's buffer. This is the run kernel behind batched
    /// seals and opens: each block's AES inputs are built in registers
    /// and its keystream is XORed in as it leaves the cipher, so there is
    /// no keystream buffer and no second pass.
    ///
    /// # Panics
    ///
    /// Panics if `nonces` and `blocks` have different lengths.
    pub fn xor_keystream(&self, nonces: &[(u64, u64)], blocks: &mut [[u8; BLOCK_BYTES]]) {
        ctr::xor_keystream_with(self.backend, &self.data_key, nonces, blocks);
        self.counts
            .keystream_calls
            .fetch_add(nonces.len() as u64, Relaxed);
    }

    /// The keystreams of many `(addr, counter)` nonces, as a vector:
    /// [`MemoryCipher::xor_keystream`] into zeros. XOR-ing a block with
    /// its keystream encrypts *and* decrypts.
    ///
    /// # Example
    ///
    /// ```
    /// use ame_crypto::MemoryCipher;
    ///
    /// let cipher = MemoryCipher::from_seed(7);
    /// let nonces = [(0x0, 1), (0x40, 2)];
    /// let ks = cipher.keystream_batch(&nonces);
    /// let mut run = [[0x5au8; 64]; 2];
    /// cipher.xor_keystream(&nonces, &mut run);
    /// assert_eq!(run[1], cipher.encrypt_block(0x40, 2, &[0x5au8; 64]));
    /// assert_eq!(run[1].map(|b| b ^ 0x5a), ks[1]);
    /// ```
    #[must_use]
    pub fn keystream_batch(&self, nonces: &[(u64, u64)]) -> Vec<[u8; BLOCK_BYTES]> {
        let mut out = vec![[0u8; BLOCK_BYTES]; nonces.len()];
        self.xor_keystream(nonces, &mut out);
        out
    }

    /// Computes the 56-bit Carter-Wegman MAC tag over a ciphertext block,
    /// bound to its address and counter (Bonsai-Merkle-Tree style: the
    /// counter is an input to the MAC, so counter integrity implies data
    /// integrity).
    #[must_use]
    pub fn mac_block(&self, addr: u64, counter: u64, ct: &[u8; BLOCK_BYTES]) -> u64 {
        self.mac_node(addr, counter, ct) & TAG_MASK
    }

    /// Writes the 56-bit Carter-Wegman tag of each ciphertext block under
    /// its nonce into `tags` — bit-identical to [`MemoryCipher::mac_block`]
    /// per block. This is the run kernel behind batched seals and
    /// verifies: each message is hashed in powers form against the
    /// cipher's `[H⁸ … H]` (eight independent carry-less products and one
    /// reduction, no serial chain), and its AES pad XORed on.
    ///
    /// # Panics
    ///
    /// Panics unless `nonces`, `blocks` and `tags` have one length.
    pub fn tags_into(&self, nonces: &[(u64, u64)], blocks: &[[u8; BLOCK_BYTES]], tags: &mut [u64]) {
        let (backend, powers) = (self.backend, &self.hash_powers);
        mac::tags_with(backend, &self.mac_key, powers, nonces, blocks, tags);
        for tag in tags.iter_mut() {
            *tag &= TAG_MASK;
        }
        self.counts
            .batch_tags
            .fetch_add(nonces.len() as u64, Relaxed);
    }

    /// The 56-bit tags of many ciphertext blocks, as a vector:
    /// [`MemoryCipher::tags_into`] into a fresh one.
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
    /// let mut into = [0; 2];
    /// cipher.tags_into(&nonces, &blocks, &mut into);
    /// assert_eq!(into[..], tags[..]);
    /// ```
    #[must_use]
    pub fn mac_batch(&self, nonces: &[(u64, u64)], blocks: &[[u8; BLOCK_BYTES]]) -> Vec<u64> {
        let mut tags = vec![0; nonces.len()];
        self.tags_into(nonces, blocks, &mut tags);
        tags
    }

    /// Verifies a 56-bit tag over a ciphertext block.
    #[must_use]
    pub fn verify_block(&self, addr: u64, counter: u64, ct: &[u8; BLOCK_BYTES], tag: u64) -> bool {
        self.mac_block(addr, counter, ct) == tag & TAG_MASK
    }

    /// Computes a full-width 64-bit MAC over a 64-byte node, used for
    /// integrity-tree levels where the storage format has room for the
    /// whole tag. Every single-message tag — [`Self::mac_block`],
    /// [`Self::verify_block`], a probe's base tag — is this one.
    #[must_use]
    pub fn mac_node(&self, addr: u64, counter: u64, node: &[u8; BLOCK_BYTES]) -> u64 {
        let mut pad = [0];
        mac::pads_with(self.backend, &self.mac_key, &[(addr, counter)], &mut pad);
        self.node_macs().mac(pad[0], node)
    }

    /// Writes the AES masks of the node MACs at `nonces` into `pads`, from
    /// pipelined passes and without heap allocation. An integrity-tree
    /// walk needs each node's MAC before it can form (or check) the
    /// parent's content, so only the hashes are serial: the masks are
    /// fetched here and each MAC finished with [`NodeMacs::mac`].
    ///
    /// # Panics
    ///
    /// Panics if `nonces` and `pads` have different lengths.
    pub fn mac_node_pads(&self, nonces: &[(u64, u64)], pads: &mut [u64]) {
        pads.fill(0);
        mac::pads_with(self.backend, &self.mac_key, nonces, pads);
    }

    /// Starts a walk's node MACs under masks from
    /// [`MemoryCipher::mac_node_pads`] (see [`NodeMacs`]).
    #[must_use]
    pub fn node_macs(&self) -> NodeMacs<'_> {
        NodeMacs {
            cipher: self,
            tags: 0,
        }
    }

    /// Builds a [`mac::MacProbe`] for fast flip-and-check error correction
    /// over `ct` under nonce `(addr, counter)`: its base tag is
    /// [`Self::mac_node`], its contribution table the cipher's own.
    #[must_use]
    pub fn mac_probe(&self, addr: u64, counter: u64, ct: &[u8; BLOCK_BYTES]) -> mac::MacProbe {
        mac::MacProbe {
            base_tag_full: self.mac_node(addr, counter, ct),
            contributions: Arc::clone(&self.probe_table),
        }
    }
}

/// The node MACs of one integrity-tree walk, each finished under a mask
/// from [`MemoryCipher::mac_node_pads`], on the cipher's tier. The walk's
/// tags are counted into the cipher once, when it is dropped, so a tag
/// costs its hash kernel and one XOR — no per-tag dispatch and no
/// per-tag atomic.
#[derive(Debug)]
pub struct NodeMacs<'a> {
    cipher: &'a MemoryCipher,
    tags: u64,
}

impl NodeMacs<'_> {
    /// [`MemoryCipher::mac_node`] of `node` under `pad`, the mask of its
    /// nonce — bit-identical to it.
    #[must_use]
    pub fn mac(&mut self, pad: u64, node: &[u8; BLOCK_BYTES]) -> u64 {
        self.tags += 1;
        mac::poly_hash_powers_with(self.cipher.backend, &self.cipher.hash_powers, node) ^ pad
    }
}

impl Drop for NodeMacs<'_> {
    fn drop(&mut self) {
        self.cipher.counts.single_tags.fetch_add(self.tags, Relaxed);
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
    fn node_macs_equal_the_reference_tag() {
        let c = MemoryCipher::from_seed(11);
        // 21 nonces: a full 16-pad chunk plus a short one.
        let nonces: Vec<(u64, u64)> = (0..21u64)
            .map(|l| (((l + 1) << 48) ^ (900 >> (l % 10)), l / 7))
            .collect();
        let nodes: Vec<[u8; 64]> = (0..21usize)
            .map(|l| core::array::from_fn(|j| (l * 37 + j * 5) as u8))
            .collect();
        let mut pads = [0u64; 21];
        c.mac_node_pads(&nonces, &mut pads);
        let mut macs = c.node_macs();
        for (i, (&(addr, ctr), node)) in nonces.iter().zip(&nodes).enumerate() {
            // The definition: the Horner hash under the hash key, XOR the
            // AES encryption of the MAC nonce block under the MAC key.
            let pad = c
                .mac_key
                .encrypt_block_with(Backend::Portable, &ctr::mac_nonce_block(addr, ctr));
            let reference = mac::poly_hash_with(Backend::Portable, c.hash_powers[7], node)
                ^ u64::from_le_bytes(pad[..8].try_into().unwrap());
            assert_eq!(c.mac_node(addr, ctr, node), reference, "node {i}");
            assert_eq!(macs.mac(pads[i], node), reference, "padded {i}");
            assert_eq!(
                c.mac_block(addr, ctr, node),
                reference & TAG_MASK,
                "block {i}"
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
