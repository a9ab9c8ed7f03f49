//! Property-based tests over the core data structures and the system's
//! crypto-critical invariants, driven by seeded `ame-prng` randomized
//! loops (the workspace builds offline, so there is no proptest).

use ame::cache::{AccessKind, Cache, CacheConfig};
use ame::counters::delta::{DeltaConfig, DeltaCounters};
use ame::counters::dual::{DualLengthConfig, DualLengthDeltaCounters};
use ame::counters::packing::{DualGroup, FlatGroup};
use ame::counters::split::SplitCounters;
use ame::counters::{CounterScheme, WriteOutcome};
use ame::crypto::MemoryCipher;
use ame::ecc::secded::{Secded63, Secded72};
use ame_prng::StdRng;

// ---- SEC-DED codes ----

#[test]
fn secded72_corrects_any_single_flip() {
    let mut rng = StdRng::seed_from_u64(0x6F_05);
    for _ in 0..256 {
        let word = rng.next_u64();
        let bit = rng.gen_range(0u32..64);
        let check = Secded72::encode(word);
        let outcome = Secded72::decode(word ^ (1u64 << bit), check);
        assert_eq!(outcome.corrected_word(), Some(word));
    }
}

#[test]
fn secded72_detects_any_double_flip() {
    let mut rng = StdRng::seed_from_u64(0x6F_06);
    for _ in 0..256 {
        let word = rng.next_u64();
        let a = rng.gen_range(0u32..64);
        let b = rng.gen_range(0u32..64);
        if a == b {
            continue;
        }
        let check = Secded72::encode(word);
        let outcome = Secded72::decode(word ^ (1u64 << a) ^ (1u64 << b), check);
        assert_eq!(outcome.corrected_word(), None);
    }
}

#[test]
fn secded63_corrects_any_single_flip() {
    let mut rng = StdRng::seed_from_u64(0x6F_07);
    for _ in 0..256 {
        let tag = rng.gen_range(0u64..(1 << 56));
        let bit = rng.gen_range(0u32..56);
        let check = Secded63::encode(tag);
        let outcome = Secded63::decode(tag ^ (1u64 << bit), check);
        assert_eq!(outcome.corrected_word(), Some(tag));
    }
}

// ---- encryption ----

#[test]
fn encryption_roundtrips() {
    let mut rng = StdRng::seed_from_u64(0x6F_08);
    for _ in 0..64 {
        let seed = rng.next_u64();
        let addr = rng.gen_range(0u64..(1 << 40));
        let ctr = rng.next_u64();
        let mut data = [0u8; 64];
        rng.fill(&mut data);
        let cipher = MemoryCipher::from_seed(seed);
        let aligned = addr & !63;
        let ct = cipher.encrypt_block(aligned, ctr, &data);
        assert_eq!(cipher.decrypt_block(aligned, ctr, &ct), data);
        let tag = cipher.mac_block(aligned, ctr, &ct);
        assert!(cipher.verify_block(aligned, ctr, &ct, tag));
    }
}

#[test]
fn mac_rejects_any_corruption() {
    let mut rng = StdRng::seed_from_u64(0x6F_09);
    for _ in 0..128 {
        let mut data = [0u8; 64];
        rng.fill(&mut data);
        let byte = rng.gen_range(0usize..64);
        let mask = rng.gen_range(1u8..=255);
        let cipher = MemoryCipher::from_seed(7);
        let ct = cipher.encrypt_block(0x40, 1, &data);
        let tag = cipher.mac_block(0x40, 1, &ct);
        let mut bad = ct;
        bad[byte] ^= mask;
        assert!(!cipher.verify_block(0x40, 1, &bad, tag));
    }
}

// ---- packed counter layouts ----

#[test]
fn flat_group_roundtrips() {
    let mut rng = StdRng::seed_from_u64(0x6F_0A);
    for _ in 0..128 {
        let reference = rng.gen_range(0u64..(1 << 56));
        let seed = rng.next_u64();
        let mut deltas = [0u64; 64];
        let mut state = seed;
        for d in deltas.iter_mut() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            *d = state >> 57; // 7 bits
        }
        let grp = FlatGroup { reference, deltas };
        let packed = grp.pack();
        assert_eq!(FlatGroup::unpack(&packed), grp);
        for (i, &d) in deltas.iter().enumerate() {
            assert_eq!(FlatGroup::decode_counter(&packed, i), reference + d);
        }
    }
}

#[test]
fn dual_group_roundtrips() {
    let mut rng = StdRng::seed_from_u64(0x6F_0B);
    for _ in 0..128 {
        let reference = rng.gen_range(0u64..(1 << 56));
        let seed = rng.next_u64();
        let expanded = rng.gen_range(0usize..4);
        let mut deltas = [0u64; 64];
        let mut state = seed;
        for (i, d) in deltas.iter_mut().enumerate() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            *d = if i / 16 == expanded {
                state >> 54
            } else {
                state >> 58
            };
        }
        let grp = DualGroup {
            reference,
            deltas,
            expanded: Some(expanded),
        };
        let packed = grp.pack();
        assert_eq!(DualGroup::unpack(&packed), grp);
        for (i, &d) in deltas.iter().enumerate() {
            assert_eq!(DualGroup::decode_counter(&packed, i), reference + d);
        }
    }
}

// ---- counter schemes: the crypto-critical invariants ----
//
// 1. a written block's counter strictly increases (nonce freshness);
// 2. no block's counter ever decreases;
// 3. a group re-encryption's fresh counter exceeds every old counter
//    in the group (so re-encrypted blocks also get fresh nonces).

fn write_stream(rng: &mut StdRng, blocks: u64, max_len: usize) -> Vec<u64> {
    let len = rng.gen_range(1..max_len);
    (0..len).map(|_| rng.gen_range(0..blocks)).collect()
}

#[test]
fn delta_counters_nonce_safety() {
    let mut rng = StdRng::seed_from_u64(0x6F_0C);
    for _ in 0..64 {
        let writes = write_stream(&mut rng, 12, 300);
        let cfg = DeltaConfig {
            delta_bits: 3,
            blocks_per_group: 4,
            ..DeltaConfig::default()
        };
        nonce_safety(DeltaCounters::new(cfg), &writes, 12);
    }
}

#[test]
fn dual_counters_nonce_safety() {
    let mut rng = StdRng::seed_from_u64(0x6F_0D);
    for _ in 0..64 {
        let writes = write_stream(&mut rng, 12, 300);
        let cfg = DualLengthConfig {
            base_bits: 2,
            extra_bits: 2,
            delta_groups: 2,
            blocks_per_group: 4,
            ..DualLengthConfig::default()
        };
        nonce_safety(DualLengthDeltaCounters::new(cfg), &writes, 12);
    }
}

#[test]
fn split_counters_nonce_safety() {
    let mut rng = StdRng::seed_from_u64(0x6F_0E);
    for _ in 0..64 {
        let writes = write_stream(&mut rng, 12, 300);
        nonce_safety(SplitCounters::new(2, 4), &writes, 12);
    }
}

// ---- cache model vs reference LRU ----

#[test]
fn cache_matches_reference_lru() {
    let mut rng = StdRng::seed_from_u64(0x6F_0F);
    for _ in 0..128 {
        let len = rng.gen_range(1..200usize);
        let accesses: Vec<(u64, bool)> = (0..len)
            .map(|_| (rng.gen_range(0u64..32), rng.gen_bool(0.5)))
            .collect();
        // 2 sets x 2 ways, 64-byte lines.
        let mut cache = Cache::new(CacheConfig::new(256, 2, 64));
        let mut reference: Vec<Vec<u64>> = vec![Vec::new(); 2]; // MRU-first line lists

        for &(line, write) in &accesses {
            let addr = line * 64;
            let set = (line % 2) as usize;
            let kind = if write {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            let result = cache.access(addr, kind);

            let lru = &mut reference[set];
            let hit = lru.iter().position(|&l| l == line);
            match hit {
                Some(pos) => {
                    assert!(!result.is_miss(), "line {line} should hit");
                    let l = lru.remove(pos);
                    lru.insert(0, l);
                }
                None => {
                    assert!(result.is_miss(), "line {line} should miss");
                    lru.insert(0, line);
                    if lru.len() > 2 {
                        lru.pop();
                    }
                }
            }
        }
    }
}

/// Shared nonce-safety driver for any counter scheme.
fn nonce_safety<S: CounterScheme>(mut scheme: S, writes: &[u64], blocks: u64) {
    let mut last: Vec<u64> = (0..blocks).map(|b| scheme.counter(b)).collect();
    for &block in writes {
        let before = scheme.counter(block);
        let outcome = scheme.record_write(block);
        if let WriteOutcome::Reencrypted {
            old_counters,
            new_counter,
            ..
        } = &outcome
        {
            for &old in old_counters {
                assert!(
                    *new_counter > old,
                    "fresh counter {new_counter} must exceed old {old}"
                );
            }
        }
        let after = scheme.counter(block);
        assert!(
            after > before,
            "write must advance the counter ({before} -> {after})"
        );
        for b in 0..blocks {
            let now = scheme.counter(b);
            assert!(now >= last[b as usize], "counter of block {b} decreased");
            last[b as usize] = now;
        }
    }
}
