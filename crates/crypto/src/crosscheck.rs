//! Bit-identity cross-checks between the portable, accelerated and
//! wide tiers, driven by seeded `ame-prng` randomized loops (the
//! workspace builds offline, so there is no proptest).
//!
//! Every test sweeps [`Backend::ALL`] against [`Backend::Portable`]: on
//! hosts without the hardware features the hardware arms run the same
//! code as the reference and the assertions are trivially true; on
//! capable hosts they pin all implementations to identical outputs for
//! every primitive the engine relies on. The checks live inside the
//! crate because they drive the crate-private kernels directly and build
//! one [`MemoryCipher`] per tier ([`MemoryCipher::on`]); what only needs
//! the public door stays in `tests/backend_crosscheck.rs`.

use crate::aes::Aes128;
use crate::backend::Backend;
#[cfg(target_arch = "x86_64")]
use crate::wide::{self, Shape};
use crate::{ctr, mac, MemoryCipher, TAG_MASK};
use ame_prng::StdRng;

fn bytes<const N: usize>(rng: &mut StdRng) -> [u8; N] {
    let mut buf = [0u8; N];
    rng.fill(&mut buf);
    buf
}

fn nonces(rng: &mut StdRng, n: usize) -> Vec<(u64, u64)> {
    (0..n)
        .map(|_| (rng.next_u64() & !63, rng.next_u64()))
        .collect()
}

/// The keystream of each nonce on `backend`: its XOR into zeros.
fn keystreams(backend: Backend, aes: &Aes128, nonces: &[(u64, u64)]) -> Vec<[u8; 64]> {
    let mut out = vec![[0u8; 64]; nonces.len()];
    ctr::xor_keystream_with(backend, aes, nonces, &mut out);
    out
}

/// The full-width tag by its definition, on the portable reference: the
/// Horner hash under `h`, XOR the low 64 bits of the AES encryption of
/// the nonce's MAC input block under `mac_key`.
fn reference_tag(mac_key: &Aes128, h: u64, addr: u64, counter: u64, block: &[u8; 64]) -> u64 {
    let pad = mac_key.encrypt_block_with(Backend::Portable, &ctr::mac_nonce_block(addr, counter));
    mac::poly_hash_with(Backend::Portable, h, block)
        ^ u64::from_le_bytes(pad[..8].try_into().expect("8 bytes"))
}

#[test]
fn fips197_c1_on_every_backend() {
    // FIPS-197 Appendix C.1: the one key/plaintext/ciphertext triple
    // everybody agrees on.
    let key: [u8; 16] = core::array::from_fn(|i| i as u8);
    let plain: [u8; 16] = core::array::from_fn(|i| (i as u8) * 0x11);
    let expected = [
        0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4, 0xc5,
        0x5a,
    ];
    let aes = Aes128::new(&key);
    for b in Backend::ALL {
        assert_eq!(aes.encrypt_block_with(b, &plain), expected, "{b}");
    }
}

#[test]
fn random_aes_blocks_agree() {
    let mut rng = StdRng::seed_from_u64(0xBC_01);
    for _ in 0..256 {
        let key: [u8; 16] = bytes(&mut rng);
        let block: [u8; 16] = bytes(&mut rng);
        let aes = Aes128::new(&key);
        let reference = aes.encrypt_block_with(Backend::Portable, &block);
        for b in Backend::ALL {
            assert_eq!(aes.encrypt_block_with(b, &block), reference, "{b}");
        }
    }
}

#[test]
fn batched_aes_agrees_across_backends_and_lengths() {
    let mut rng = StdRng::seed_from_u64(0xBC_02);
    let aes = Aes128::new(&bytes(&mut rng));
    // Lengths straddling the accelerated pipeline width (8) exercise
    // both the unrolled groups and the remainder loop.
    for n in [0usize, 1, 3, 7, 8, 9, 15, 16, 17, 64, 100] {
        let blocks: Vec<[u8; 16]> = (0..n).map(|_| bytes(&mut rng)).collect();
        let mut reference = blocks.clone();
        aes.encrypt_blocks_with(Backend::Portable, &mut reference);
        for b in Backend::ALL {
            let mut got = blocks.clone();
            aes.encrypt_blocks_with(b, &mut got);
            assert_eq!(got, reference, "{b} n={n}");
        }
    }
}

#[test]
fn random_clmul_and_gf64_agree() {
    let mut rng = StdRng::seed_from_u64(0xBC_03);
    for _ in 0..512 {
        let a = rng.next_u64();
        let b = rng.next_u64();
        let clmul_ref = mac::clmul_with(Backend::Portable, a, b);
        let gf_ref = mac::gf64_mul_with(Backend::Portable, a, b);
        for backend in Backend::ALL {
            assert_eq!(mac::clmul_with(backend, a, b), clmul_ref, "{backend}");
            assert_eq!(mac::gf64_mul_with(backend, a, b), gf_ref, "{backend}");
        }
    }
}

#[test]
fn keystreams_and_batches_agree() {
    let mut rng = StdRng::seed_from_u64(0xBC_04);
    let aes = Aes128::new(&bytes(&mut rng));
    let nonces = nonces(&mut rng, 37);
    let reference: Vec<_> = nonces
        .iter()
        .map(|&nonce| keystreams(Backend::Portable, &aes, &[nonce])[0])
        .collect();
    for b in Backend::ALL {
        for (i, &nonce) in nonces.iter().enumerate() {
            assert_eq!(keystreams(b, &aes, &[nonce])[0], reference[i], "{b} single");
        }
        assert_eq!(keystreams(b, &aes, &nonces), reference, "{b} batch");
    }
}

#[test]
fn mac_tags_agree() {
    // 16 key sets x 8 messages: every tier's data tag and node MAC equal
    // the portable tier's.
    let mut rng = StdRng::seed_from_u64(0xBC_05);
    for _ in 0..16 {
        let seed = rng.next_u64();
        let ciphers = Backend::ALL.map(|b| MemoryCipher::on(b, seed));
        for _ in 0..8 {
            let addr = rng.next_u64() & !63;
            let counter = rng.next_u64();
            let block: [u8; 64] = bytes(&mut rng);
            let [portable, ..] = &ciphers;
            let tag_ref = portable.mac_block(addr, counter, &block);
            let full_ref = portable.mac_node(addr, counter, &block);
            for c in &ciphers {
                assert_eq!(c.mac_block(addr, counter, &block), tag_ref, "{}", c.backend);
                assert_eq!(c.mac_node(addr, counter, &block), full_ref, "{}", c.backend);
            }
        }
    }
}

#[test]
fn the_powers_kernel_matches_portable_horner() {
    // Keys: random, the identity (h = 1), all-ones; blocks: random,
    // all-ones words (every product at full width) and one all-ones
    // word at each position.
    let mut rng = StdRng::seed_from_u64(0xBC_08);
    let mut keys: Vec<u64> = (0..64).map(|_| rng.next_u64()).collect();
    keys.extend([1, u64::MAX, 1 << 63]);
    let mut blocks: Vec<[u8; 64]> = (0..32).map(|_| bytes(&mut rng)).collect();
    blocks.push([0xff; 64]);
    blocks.push([0; 64]);
    for word in 0..8 {
        let mut block = [0u8; 64];
        block[word * 8..word * 8 + 8].fill(0xff);
        blocks.push(block);
    }
    let mac_key = Aes128::new(&bytes(&mut rng));
    for &h in &keys {
        let powers = mac::hash_powers(h);
        assert_eq!(powers[7], h);
        for block in &blocks {
            let horner = mac::poly_hash_with(Backend::Portable, h, block);
            let full = reference_tag(&mac_key, h, 0x40, 7, block);
            for b in Backend::ALL {
                let mut pad = [0];
                mac::pads_with(b, &mac_key, &[(0x40, 7)], &mut pad);
                assert_eq!(
                    mac::poly_hash_powers_with(b, &powers, block),
                    horner,
                    "{b} h={h:#x}"
                );
                assert_eq!(
                    mac::poly_hash_powers_with(b, &powers, block) ^ pad[0],
                    full,
                    "{b} h={h:#x}"
                );
            }
        }
    }
}

#[test]
fn every_memory_cipher_tag_path_matches_the_reference_tag() {
    // On every tier: mac_block, verify_block, mac_node, mac_node_pads +
    // node_macs, mac_batch and mac_probe against the tag's definition.
    let mut rng = StdRng::seed_from_u64(0xBC_09);
    for seed in [0, 1, 0x5eed, rng.next_u64(), rng.next_u64()] {
        for backend in Backend::ALL {
            let cipher = MemoryCipher::on(backend, seed);
            let portable = MemoryCipher::on(Backend::Portable, seed);
            assert_eq!(
                cipher.encrypt_block(0x80, 3, &[0; 64]),
                portable.encrypt_block(0x80, 3, &[0; 64]),
                "{backend}: the key derivation is the portable tier's"
            );
            for n in [1usize, 7, 8, 9, 16, 17, 33] {
                let nonces = nonces(&mut rng, n);
                let blocks: Vec<[u8; 64]> = (0..n).map(|_| bytes(&mut rng)).collect();
                let mut pads = vec![0; n];
                cipher.mac_node_pads(&nonces, &mut pads);
                let batch = cipher.mac_batch(&nonces, &blocks);
                let mut macs = cipher.node_macs();
                for (i, (&(addr, counter), block)) in nonces.iter().zip(&blocks).enumerate() {
                    let full =
                        reference_tag(&cipher.mac_key, cipher.hash_powers[7], addr, counter, block);
                    let tag = full & TAG_MASK;
                    assert_eq!(
                        cipher.mac_block(addr, counter, block),
                        tag,
                        "{backend} {seed}"
                    );
                    assert!(cipher.verify_block(addr, counter, block, tag));
                    assert!(!cipher.verify_block(addr, counter, block, tag ^ 1));
                    assert_eq!(cipher.mac_node(addr, counter, block), full);
                    assert_eq!(macs.mac(pads[i], block), full, "{backend} n={n} i={i}");
                    assert_eq!(batch[i], tag);
                    assert_eq!(cipher.mac_probe(addr, counter, block).base_tag(), tag);
                }
            }
        }
    }
}

#[test]
fn tail_and_misalignment_bit_identity_across_tier_pairs() {
    // The wide tier's tail handling: every backend pair must agree at
    // batch lengths straddling both the AES-NI pipeline width (8) and
    // the wide group width (16), with the batch starting at misaligned
    // offsets inside a larger allocation so no kernel can rely on
    // 32/64-byte pointer alignment.
    let mut rng = StdRng::seed_from_u64(0xBC_06);
    let aes = Aes128::new(&bytes(&mut rng));
    for n in [0usize, 1, 7, 8, 9, 31, 32, 33] {
        for offset in [0usize, 1, 3] {
            let buffer: Vec<[u8; 16]> = (0..offset + n).map(|_| bytes(&mut rng)).collect();
            let encrypted_with = |backend: Backend| {
                let mut copy = buffer.clone();
                aes.encrypt_blocks_with(backend, &mut copy[offset..]);
                copy
            };
            let per_backend: Vec<_> = Backend::ALL.map(encrypted_with).into();
            for (i, a) in per_backend.iter().enumerate() {
                for (j, b) in per_backend.iter().enumerate() {
                    assert_eq!(
                        a,
                        b,
                        "{} vs {} n={n} offset={offset}",
                        Backend::ALL[i],
                        Backend::ALL[j]
                    );
                }
            }
        }
        // The same lengths through the batched keystream kernel (nonce
        // count = batch length; 4 AES blocks per nonce) and the pad
        // producer (one AES block per nonce).
        let nonces = nonces(&mut rng, n);
        let streams: Vec<_> = Backend::ALL.map(|b| keystreams(b, &aes, &nonces)).into();
        for pair in streams.windows(2) {
            assert_eq!(pair[0], pair[1], "keystream_batch n={n}");
        }
        let pads: Vec<_> = Backend::ALL
            .map(|b| {
                let mut pads = vec![0; n];
                mac::pads_with(b, &aes, &nonces, &mut pads);
                pads
            })
            .into();
        for pair in pads.windows(2) {
            assert_eq!(pair[0], pair[1], "pads_with n={n}");
        }
    }
    // MAC probes ride the same poly-hash seam: tags computed under any
    // tier must validate flip hypotheses computed under any other.
    let seed = rng.next_u64();
    let block: [u8; 64] = bytes(&mut rng);
    let tags: Vec<_> = Backend::ALL
        .map(|b| MemoryCipher::on(b, seed).mac_node(0x1c0, 9, &block))
        .into();
    for pair in tags.windows(2) {
        assert_eq!(pair[0], pair[1], "mac_node tier pair");
    }
}

#[test]
fn batched_mac_tags_bit_identical_across_tier_pairs() {
    // The multi-message tag pipeline must agree with itself across
    // every tier pair — not merely with the portable reference — at
    // batch lengths straddling the accelerated lane count (8) and the
    // wide per-call message groups (4/8), including the empty batch and
    // a large one exercising both main loops and tails. Each tier's
    // batch must also match that tier's own serial tags, so the fused
    // verify path can fall back to scalar re-checks without ever
    // disagreeing with itself.
    let mut rng = StdRng::seed_from_u64(0xBC_07);
    for n in [0usize, 1, 7, 8, 9, 63, 64, 65] {
        let seed = rng.next_u64();
        let nonces = nonces(&mut rng, n);
        let blocks: Vec<[u8; 64]> = (0..n).map(|_| bytes(&mut rng)).collect();
        let ciphers = Backend::ALL.map(|b| MemoryCipher::on(b, seed));
        let per_tier: Vec<_> = ciphers
            .iter()
            .map(|c| c.mac_batch(&nonces, &blocks))
            .collect();
        for (i, a) in per_tier.iter().enumerate() {
            assert_eq!(a.len(), n, "{} n={n}", Backend::ALL[i]);
            for (j, b) in per_tier.iter().enumerate() {
                assert_eq!(a, b, "{} vs {} n={n}", Backend::ALL[i], Backend::ALL[j]);
            }
        }
        for (cipher, batch) in ciphers.iter().zip(&per_tier) {
            for (k, (&(addr, counter), block)) in nonces.iter().zip(&blocks).enumerate() {
                assert_eq!(
                    batch[k],
                    cipher.mac_block(addr, counter, block),
                    "{} n={n} msg={k}",
                    cipher.backend
                );
            }
        }
    }
}

/// Every wide register shape this host runs: both on an AVX-512 host, so
/// the ymm kernels are checked there too.
#[cfg(target_arch = "x86_64")]
pub(crate) fn shapes() -> Vec<Shape> {
    match Shape::host() {
        Shape::Zmm => vec![Shape::Zmm, Shape::Ymm],
        Shape::Ymm => vec![Shape::Ymm],
    }
}

/// The `n` 64-byte blocks `offset` bytes into `buffer`.
fn run_at(buffer: &mut [u8], offset: usize, n: usize) -> &mut [[u8; 64]] {
    buffer[offset..offset + n * 64].as_chunks_mut::<64>().0
}

#[test]
fn run_kernels_match_the_reference_at_every_length_tier_and_shape() {
    // Every run length 0..=70 (both sides of the wide tier's MIN_RUN and
    // of every kernel's group width) on every tier through the cipher's
    // run kernels, and in every wide shape this host runs by direct call
    // (so the ymm kernels are checked on AVX-512 hosts too), with the run
    // starting 0, 1 or 3 bytes into its buffer so that no kernel can rely
    // on alignment. The reference is the portable per-block seal and the
    // tag's definition.
    let mut rng = StdRng::seed_from_u64(0xBC_0A);
    let seed = rng.next_u64();
    let ciphers = Backend::ALL.map(|b| MemoryCipher::on(b, seed));
    let portable = &ciphers[0];
    for n in 0..=70usize {
        let nonces = nonces(&mut rng, n);
        let plain: Vec<[u8; 64]> = (0..n).map(|_| bytes(&mut rng)).collect();
        let sealed: Vec<[u8; 64]> = plain
            .iter()
            .zip(&nonces)
            .map(|(block, &(addr, counter))| portable.encrypt_block(addr, counter, block))
            .collect();
        let (keys, powers) = (portable.mac_key.round_keys(), &portable.hash_powers);
        let full: Vec<u64> = sealed
            .iter()
            .zip(&nonces)
            .map(|(block, &(addr, counter))| {
                reference_tag(&portable.mac_key, powers[7], addr, counter, block)
            })
            .collect();
        let tags: Vec<u64> = full.iter().map(|tag| tag & TAG_MASK).collect();
        for offset in [0usize, 1, 3] {
            // The run's bytes `offset` bytes into a buffer.
            let mut buffer = vec![0xee; offset + n * 64 + 3];
            let placed = |buffer: &mut Vec<u8>, blocks: &[[u8; 64]]| {
                buffer[offset..offset + n * 64].copy_from_slice(blocks.as_flattened());
            };
            for c in &ciphers {
                let b = c.backend;
                placed(&mut buffer, &plain);
                c.xor_keystream(&nonces, run_at(&mut buffer, offset, n));
                assert_eq!(
                    run_at(&mut buffer, offset, n),
                    &sealed[..],
                    "{b} n={n} offset={offset}"
                );
                let mut got = vec![0; n + 1];
                c.tags_into(&nonces, run_at(&mut buffer, offset, n), &mut got[1..]);
                assert_eq!(got[1..], tags[..], "{b} n={n} offset={offset}");
                c.xor_keystream(&nonces, run_at(&mut buffer, offset, n));
                assert_eq!(
                    run_at(&mut buffer, offset, n),
                    &plain[..],
                    "{b} n={n} offset={offset}"
                );
            }
            #[cfg(target_arch = "x86_64")]
            if crate::backend::wide_available() {
                for shape in shapes() {
                    placed(&mut buffer, &plain);
                    let data_keys = portable.data_key.round_keys();
                    wide::xor_keystream(shape, data_keys, &nonces, run_at(&mut buffer, offset, n));
                    assert_eq!(
                        run_at(&mut buffer, offset, n),
                        &sealed[..],
                        "{shape:?} n={n}"
                    );
                    // Whole register groups: four messages in zmm, two in ymm.
                    let mut got = vec![0; n];
                    let blocks = run_at(&mut buffer, offset, n);
                    let done = wide::tags(shape, keys, powers, &nonces, blocks, &mut got);
                    assert_eq!(done, n - n % if shape == Shape::Zmm { 4 } else { 2 });
                    assert_eq!(got[..done], full[..done], "{shape:?} n={n} offset={offset}");
                    // The 16-byte kernel over the same misaligned bytes.
                    let mut expected = run_at(&mut buffer, offset, n).as_flattened().to_vec();
                    let chunks = expected.as_chunks_mut::<16>().0;
                    portable
                        .mac_key
                        .encrypt_blocks_with(Backend::Portable, chunks);
                    let chunks = run_at(&mut buffer, offset, n)
                        .as_flattened_mut()
                        .as_chunks_mut::<16>()
                        .0;
                    wide::encrypt_blocks(shape, keys, chunks);
                    assert_eq!(
                        run_at(&mut buffer, offset, n).as_flattened(),
                        &expected[..],
                        "{shape:?}"
                    );
                }
            }
        }
    }
}
