//! The maps on the engine datapath iterate in an unspecified order, and
//! no encoder may depend on it: the same keys inserted in two orders
//! give byte-identical `encode` / `encode_state` / `freeze_into` images
//! and identical lookups. Checked for every map owner — the DRAM image,
//! the four counter schemes and a separate-MAC engine — over keys strided
//! by 2^12, 2^24 and 2^36 bytes and crowding the top of the address
//! space, so the tables hold keys that differ only in their high bits.

use ame_crypto::ctr::ADDR_LIMIT;
use ame_dram::storage::{DramStorage, StoredBlock};
use ame_engine::{CounterSchemeKind, EngineConfig, MacPlacement, MemoryEncryptionEngine};
use ame_prng::StdRng;

/// A few hundred distinct block-aligned addresses below [`ADDR_LIMIT`]:
/// one full 4 KiB group, three strides, and the top of the space.
fn addrs() -> Vec<u64> {
    let mut v: Vec<u64> = (0..64).map(|i| 0x40_0000 + 64 * i).collect();
    for i in 1..97u64 {
        v.extend([i << 12, i << 24, i << 36, ADDR_LIMIT - 64 * i]);
    }
    v.sort_unstable();
    v.dedup();
    v
}

/// Ascending, and a seeded shuffle of the same addresses.
fn two_orders() -> (Vec<u64>, Vec<u64>) {
    let ascending = addrs();
    let mut shuffled = ascending.clone();
    let mut rng = StdRng::seed_from_u64(0x0de5);
    for i in (1..shuffled.len()).rev() {
        shuffled.swap(i, rng.gen_range(0..=i));
    }
    assert_ne!(ascending, shuffled);
    (ascending, shuffled)
}

fn payload(addr: u64) -> [u8; 64] {
    let mut block = [0u8; 64];
    for (i, chunk) in block.chunks_exact_mut(8).enumerate() {
        chunk.copy_from_slice(&(addr ^ i as u64).to_le_bytes());
    }
    block
}

#[test]
fn dram_image_is_independent_of_insertion_order() {
    let (ascending, shuffled) = two_orders();
    let build = |order: &[u64]| {
        let mut mem = DramStorage::new();
        for &addr in order {
            let sideband = (addr >> 6).to_le_bytes();
            mem.write(
                addr,
                StoredBlock {
                    data: payload(addr),
                    sideband,
                },
            );
        }
        mem
    };
    let (a, b) = (build(&ascending), build(&shuffled));
    let (mut image_a, mut image_b) = (Vec::new(), Vec::new());
    a.encode(&mut image_a);
    b.encode(&mut image_b);
    assert_eq!(image_a, image_b);
    assert_eq!(a.addrs().collect::<Vec<_>>(), ascending);
    assert_eq!(b.addrs().collect::<Vec<_>>(), ascending);
    for &addr in &ascending {
        assert_eq!(a.get(addr), b.get(addr), "{addr:#x}");
        assert_eq!(a.get(addr ^ 64), b.get(addr ^ 64), "{:#x}", addr ^ 64);
    }
}

#[test]
fn counter_state_is_independent_of_insertion_order() {
    let (ascending, shuffled) = two_orders();
    for kind in [
        CounterSchemeKind::Monolithic,
        CounterSchemeKind::Split,
        CounterSchemeKind::Delta,
        CounterSchemeKind::DualLength,
    ] {
        // Every block is written once, so the final state (a full group
        // resetting included) does not depend on the order either.
        let build = |order: &[u64]| {
            let mut scheme = kind.build();
            for &addr in order {
                scheme.record_write(addr / 64);
            }
            scheme
        };
        let (a, b) = (build(&ascending), build(&shuffled));
        let (mut image_a, mut image_b) = (Vec::new(), Vec::new());
        a.encode_state(&mut image_a);
        b.encode_state(&mut image_b);
        assert_eq!(image_a, image_b, "{kind:?}");
        assert_eq!(a.stats(), b.stats(), "{kind:?}");
        for &addr in &ascending {
            let block = addr / 64;
            assert_eq!(a.counter(block), b.counter(block), "{kind:?} {addr:#x}");
            assert_eq!(a.counter(block ^ 1), b.counter(block ^ 1), "{kind:?}");
            let meta = a.metadata_block_of(block);
            assert_eq!(
                a.metadata_block_image(meta),
                b.metadata_block_image(meta),
                "{kind:?} {addr:#x}"
            );
        }
    }
}

#[test]
fn separate_mac_engine_image_is_independent_of_insertion_order() {
    let (ascending, shuffled) = two_orders();
    let build = |order: &[u64]| {
        let mut engine = MemoryEncryptionEngine::new(EngineConfig {
            mac_placement: MacPlacement::SeparateMac,
            ..EngineConfig::default()
        });
        for &addr in order {
            engine.write_block(addr, &payload(addr));
        }
        engine
    };
    let (mut a, mut b) = (build(&ascending), build(&shuffled));
    let (mut image_a, mut image_b) = (Vec::new(), Vec::new());
    a.freeze_into(&mut image_a);
    b.freeze_into(&mut image_b);
    assert_eq!(image_a, image_b);
    for &addr in &ascending {
        assert_eq!(a.read_block(addr).unwrap(), payload(addr), "{addr:#x}");
        assert_eq!(b.read_block(addr).unwrap(), payload(addr), "{addr:#x}");
        assert_eq!(a.export_sealed(addr), b.export_sealed(addr), "{addr:#x}");
    }
}
