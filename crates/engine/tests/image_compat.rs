//! The in-place, checksum-once image writer against the staged encoder
//! it replaced: the durable bytes of a frozen `SecureRegion` — `AMEREGN`
//! ⊃ `AMEENGIN` ⊃ `AMEDRAM` / `AMECTRS` / `AMETREE`, all v1 — for every
//! counter scheme and MAC placement.

use ame_engine::region::SecureRegion;
use ame_engine::{CounterSchemeKind, EngineConfig, MacPlacement};

/// One line per configuration, `scheme placement hex`: `freeze()` at the
/// parent commit of exactly the region [`golden_region`] rebuilds.
const GOLDEN: &str = include_str!("ameregn_v1.hex");

const STRADDLING: &[u8] = b"golden image: a write that straddles a block boundary";

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
/// and one read so the statistics are not all write-side.
fn golden_region(scheme: CounterSchemeKind, placement: MacPlacement) -> SecureRegion {
    let mut r = SecureRegion::new(
        EngineConfig {
            counter_scheme: scheme,
            mac_placement: placement,
            ..EngineConfig::default()
        },
        8192,
    );
    r.write_bytes(40, STRADDLING).unwrap();
    for round in 0..200u32 {
        r.write_bytes(0x1040, &[round as u8; 64]).unwrap();
    }
    r.write_bytes(8192 - 64, &[0xEE; 64]).unwrap();
    let mut buf = [0u8; 8];
    r.read_bytes(44, &mut buf).unwrap();
    r
}

#[test]
fn v1_images_from_the_staged_encoder_thaw_verify_and_refreeze_identically() {
    let images = golden_images();
    assert_eq!(images.len(), 8, "every scheme x placement");
    for (scheme, placement, golden) in images {
        let what = format!("{scheme:?}/{placement:?}");
        let mut region = SecureRegion::thaw(&golden).unwrap_or_else(|e| panic!("{what}: {e}"));
        assert_eq!(region.size(), 8192, "{what}");
        assert_eq!(
            region.freeze(),
            golden,
            "{what}: image bytes changed across thaw + freeze"
        );
        assert_eq!(region.verify_all().expect(&what), 4, "{what}");
        let mut text = vec![0u8; STRADDLING.len()];
        region.read_bytes(40, &mut text).unwrap();
        assert_eq!(text, STRADDLING, "{what}");
        let mut block = [0u8; 64];
        region.read_bytes(0x1040, &mut block).unwrap();
        assert_eq!(block, [199; 64], "{what}");
    }
}

#[test]
fn the_same_regions_built_here_freeze_to_the_golden_bytes() {
    for (scheme, placement, golden) in golden_images() {
        assert_eq!(
            golden_region(scheme, placement).freeze(),
            golden,
            "{scheme:?}/{placement:?}"
        );
    }
}
