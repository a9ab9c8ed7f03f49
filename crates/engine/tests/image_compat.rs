//! The in-place, checksum-once image writer against the staged encoder
//! it replaced: the durable bytes of a frozen region — `AMEREGN` ⊃
//! `AMEENGIN` ⊃ `AMEDRAM` / `AMECTRS` / `AMETREE`, all v1 — for every
//! counter scheme and MAC placement.

use ame_engine::{region, CounterSchemeKind, EngineConfig, MacPlacement, MemoryEncryptionEngine};

/// One line per configuration, `scheme placement hex`: the region image
/// the staged encoder froze of exactly the engine [`golden_region`]
/// rebuilds, over 8 KiB.
const GOLDEN: &str = include_str!("ameregn_v1.hex");

const STRADDLING: &[u8] = b"golden image: a write that straddles a block boundary";
/// `STRADDLING` is stored at byte 40: its first 24 bytes end block 0,
/// the rest begin block 1.
const HEAD: usize = 64 - 40;

/// The text at byte 40, read back as its two blocks.
fn straddling(e: &mut MemoryEncryptionEngine) -> Vec<u8> {
    let (first, second) = (e.read_block(0).unwrap(), e.read_block(64).unwrap());
    [&first[40..], &second[..STRADDLING.len() - HEAD]].concat()
}

fn golden_images() -> Vec<(CounterSchemeKind, MacPlacement, Vec<u8>)> {
    GOLDEN
        .lines()
        .map(|line| {
            let mut fields = line.split(' ');
            let scheme = match fields.next().unwrap() {
                "monolithic" => CounterSchemeKind::Monolithic,
                "split" => CounterSchemeKind::Split,
                "delta" => CounterSchemeKind::Delta,
                "dual" => CounterSchemeKind::DualLength,
                other => panic!("unknown scheme {other}"),
            };
            let placement = match fields.next().unwrap() {
                "separate" => MacPlacement::SeparateMac,
                "in_ecc" => MacPlacement::MacInEcc,
                other => panic!("unknown placement {other}"),
            };
            let image = fields
                .next()
                .unwrap()
                .as_bytes()
                .chunks(2)
                .map(|pair| u8::from_str_radix(std::str::from_utf8(pair).unwrap(), 16).unwrap())
                .collect();
            (scheme, placement, image)
        })
        .collect()
}

/// Four resident blocks over both pages of an 8 KiB region, one of them
/// rewritten 200 times (through the narrow schemes' overflow handling),
/// and one read so the statistics are not all write-side. The text
/// straddling blocks 0 and 1 is a read-modify-write of each.
fn golden_region(scheme: CounterSchemeKind, placement: MacPlacement) -> MemoryEncryptionEngine {
    let mut e = MemoryEncryptionEngine::new(EngineConfig {
        counter_scheme: scheme,
        mac_placement: placement,
        ..EngineConfig::default()
    });
    let (head, tail) = STRADDLING.split_at(HEAD);
    let mut block = e.read_block(0).unwrap();
    block[40..].copy_from_slice(head);
    e.write_block(0, &block);
    let mut block = e.read_block(64).unwrap();
    block[..tail.len()].copy_from_slice(tail);
    e.write_block(64, &block);
    for round in 0..200u32 {
        e.write_block(0x1040, &[round as u8; 64]);
    }
    e.write_block(8192 - 64, &[0xEE; 64]);
    e.read_block(0).unwrap();
    e
}

#[test]
fn v1_images_from_the_staged_encoder_thaw_verify_and_refreeze_identically() {
    let images = golden_images();
    assert_eq!(images.len(), 8, "every scheme x placement");
    for (scheme, placement, golden) in images {
        let what = format!("{scheme:?}/{placement:?}");
        let config = EngineConfig {
            counter_scheme: scheme,
            mac_placement: placement,
            ..EngineConfig::default()
        };
        let mut engine =
            region::thaw(&golden, &config, 8192).unwrap_or_else(|e| panic!("{what}: {e}"));
        assert_eq!(
            region::freeze(&engine, 8192),
            golden,
            "{what}: image bytes changed across thaw + freeze"
        );
        assert_eq!(engine.verify_all().expect(&what), 4, "{what}");
        assert_eq!(straddling(&mut engine), STRADDLING, "{what}");
        assert_eq!(engine.read_block(0x1040).unwrap(), [199; 64], "{what}");
    }
}

#[test]
fn the_same_regions_built_here_freeze_to_the_golden_bytes() {
    for (scheme, placement, golden) in golden_images() {
        assert_eq!(
            region::freeze(&golden_region(scheme, placement), 8192),
            golden,
            "{scheme:?}/{placement:?}"
        );
    }
}
