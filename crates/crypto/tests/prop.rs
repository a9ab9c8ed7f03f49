//! Property tests for the crypto substrate, driven by seeded `ame-prng`
//! randomized loops (the workspace builds offline, so there is no
//! proptest).

use ame_crypto::mac::MacProbe;
use ame_crypto::{MemoryCipher, TAG_MASK};
use ame_prng::StdRng;

fn bytes<const N: usize>(rng: &mut StdRng) -> [u8; N] {
    let mut buf = [0u8; N];
    rng.fill(&mut buf);
    buf
}

#[test]
fn cipher_roundtrip_and_tag_width() {
    let mut rng = StdRng::seed_from_u64(0xAE_05);
    for _ in 0..64 {
        let seed = rng.next_u64();
        let block = rng.gen_range(0u64..(1u64 << 34));
        let data: [u8; 64] = bytes(&mut rng);
        let ctr = rng.next_u64();
        let cipher = MemoryCipher::from_seed(seed);
        let addr = block * 64;
        let ct = cipher.encrypt_block(addr, ctr, &data);
        assert_eq!(cipher.decrypt_block(addr, ctr, &ct), data);
        let tag = cipher.mac_block(addr, ctr, &ct);
        assert_eq!(tag & !TAG_MASK, 0);
        assert!(cipher.verify_block(addr, ctr, &ct, tag));
    }
}

#[test]
fn keystreams_differ_across_counters() {
    let mut rng = StdRng::seed_from_u64(0xAE_06);
    for _ in 0..64 {
        let seed = rng.next_u64();
        let addr = rng.gen_range(0u64..(1u64 << 30)) & !63;
        let c1 = rng.next_u64();
        let c2 = rng.next_u64();
        if c1 == c2 {
            continue;
        }
        let cipher = MemoryCipher::from_seed(seed);
        let zero = [0u8; 64];
        assert_ne!(
            cipher.encrypt_block(addr, c1, &zero),
            cipher.encrypt_block(addr, c2, &zero)
        );
    }
}

#[test]
fn probe_equals_recomputation() {
    let mut rng = StdRng::seed_from_u64(0xAE_07);
    for _ in 0..128 {
        let data: [u8; 64] = bytes(&mut rng);
        let bit = rng.gen_range(0u32..512);
        let ctr = rng.next_u64();
        let cipher = MemoryCipher::from_seed(42);
        let ct = cipher.encrypt_block(0x80, ctr, &data);
        let probe: MacProbe = cipher.mac_probe(0x80, ctr, &ct);
        let mut flipped = ct;
        flipped[(bit / 8) as usize] ^= 1 << (bit % 8);
        assert_eq!(
            probe.tag_with_flip(bit),
            cipher.mac_block(0x80, ctr, &flipped)
        );
    }
}

#[test]
fn probe_double_equals_recomputation() {
    let mut rng = StdRng::seed_from_u64(0xAE_08);
    for _ in 0..128 {
        let data: [u8; 64] = bytes(&mut rng);
        let a = rng.gen_range(0u32..512);
        let b = rng.gen_range(0u32..512);
        if a == b {
            continue;
        }
        let cipher = MemoryCipher::from_seed(43);
        let ct = cipher.encrypt_block(0x40, 9, &data);
        let probe = cipher.mac_probe(0x40, 9, &ct);
        let mut flipped = ct;
        flipped[(a / 8) as usize] ^= 1 << (a % 8);
        flipped[(b / 8) as usize] ^= 1 << (b % 8);
        assert_eq!(
            probe.tag_with_flips(a, b),
            cipher.mac_block(0x40, 9, &flipped)
        );
    }
}
