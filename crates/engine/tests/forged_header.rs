//! Configuration is not data. Every configuration field a frozen region
//! image holds — the region size, the engine header, the counter
//! scheme's layout and the tree's — set to its stored value ± 1, to 0 and
//! to all-ones, with every enclosing checksum recomputed, must be refused
//! by `region::thaw` with `InvalidData`: for each counter scheme and MAC
//! placement, and without a panic. Thaw builds the configured engine and
//! sizes nothing from the image, so no such forgery gets in. Every
//! section's version, set to 0, 2 or all-ones, is refused the same way.

use ame_engine::{region, CounterSchemeKind, EngineConfig, MacPlacement};
use std::io::ErrorKind;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// One line per configuration, `scheme placement hex`, each an 8 KiB
/// region (see `image_compat.rs`).
const GOLDEN: &str = include_str!("ameregn_v1.hex");
const SIZE: u64 = 8192;

/// A section is its magic (8), version (4) and payload length (8), the
/// payload, then its CRC (8).
const HEADER: usize = 20;
/// The engine payload's seed, the configuration fields after it, and
/// its seven statistics, before the nested sections.
const ENGINE_FIELDS: usize = 8 + 23 + 7 * 8;

fn golden_images() -> Vec<(EngineConfig, Vec<u8>)> {
    GOLDEN
        .lines()
        .map(|line| {
            let mut fields = line.split(' ');
            let counter_scheme = match fields.next().unwrap() {
                "monolithic" => CounterSchemeKind::Monolithic,
                "split" => CounterSchemeKind::Split,
                "delta" => CounterSchemeKind::Delta,
                "dual" => CounterSchemeKind::DualLength,
                other => panic!("unknown scheme {other}"),
            };
            let mac_placement = match fields.next().unwrap() {
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
            let config = EngineConfig {
                counter_scheme,
                mac_placement,
                ..EngineConfig::default()
            };
            (config, image)
        })
        .collect()
}

/// The payload length of the section at `at`.
fn payload_len(image: &[u8], at: usize) -> usize {
    u64::from_le_bytes(image[at + 12..at + HEADER].try_into().unwrap()) as usize
}

/// The offset just past the section at `at`.
fn section_end(image: &[u8], at: usize) -> usize {
    at + HEADER + payload_len(image, at) + 8
}

/// One configuration field: its name, offset and width in bytes, and
/// the sections whose CRCs cover it, innermost first.
struct Field {
    name: &'static str,
    at: usize,
    width: usize,
    sections: Vec<usize>,
}

/// The layout fields of each counter scheme's state, in order.
fn counter_layout(scheme: CounterSchemeKind) -> &'static [(&'static str, usize)] {
    match scheme {
        CounterSchemeKind::Monolithic => &[("bits", 4)],
        CounterSchemeKind::Split => &[("minor_bits", 4), ("blocks_per_group", 8)],
        CounterSchemeKind::Delta => &[
            ("delta_bits", 4),
            ("blocks_per_group", 8),
            ("reference_bits", 4),
            ("reset_enabled", 1),
            ("reencode_enabled", 1),
        ],
        CounterSchemeKind::DualLength => &[
            ("base_bits", 4),
            ("extra_bits", 4),
            ("delta_groups", 8),
            ("blocks_per_group", 8),
            ("reference_bits", 4),
            ("reset_enabled", 1),
            ("reencode_enabled", 1),
        ],
    }
}

/// The offset of each section of `image`: `AMEREGN` ⊃ `AMEENGIN` ⊃
/// `AMEDRAM`, `AMECTRS`, `AMETREE`, in that order.
fn sections(image: &[u8]) -> [usize; 5] {
    let engine = HEADER + 8;
    let dram = engine + HEADER + ENGINE_FIELDS;
    let counters = section_end(image, dram);
    [0, engine, dram, counters, section_end(image, counters)]
}

/// Every configuration field of `image`.
fn fields(image: &[u8], scheme: CounterSchemeKind) -> Vec<Field> {
    let [region, engine, _, counters, tree] = sections(image);
    let mut fields = vec![Field {
        name: "region size",
        at: HEADER,
        width: 8,
        sections: vec![region],
    }];
    let header = [
        ("mac_placement", 1),
        ("counter_scheme", 1),
        ("max_correctable_flips", 4),
        ("tree_levels", 8),
        ("counter_cache_blocks", 8),
        ("prefetch_counters", 1),
    ];
    let name_len = usize::from(image[counters + HEADER]);
    for (first, layout, sections) in [
        (engine + HEADER + 8, &header[..], vec![engine, region]),
        (
            counters + HEADER + 1 + name_len,
            counter_layout(scheme),
            vec![counters, engine, region],
        ),
        (
            tree + HEADER,
            &[("tree arity", 8), ("tree levels", 8)][..],
            vec![tree, engine, region],
        ),
    ] {
        let mut at = first;
        for &(name, width) in layout {
            fields.push(Field {
                name,
                at,
                width,
                sections: sections.clone(),
            });
            at += width;
        }
    }
    fields
}

/// `image` with `field` set to `value` and each enclosing CRC recomputed.
fn forged(image: &[u8], field: &Field, value: u64) -> Vec<u8> {
    let mut image = image.to_vec();
    image[field.at..field.at + field.width].copy_from_slice(&value.to_le_bytes()[..field.width]);
    for &at in &field.sections {
        let end = at + HEADER + payload_len(&image, at);
        let crc = ame_persist::crc64(&image[at..end]);
        image[end..end + 8].copy_from_slice(&crc.to_le_bytes());
    }
    image
}

/// The stored value ± 1, 0 and all-ones, each unless it is the stored
/// value itself.
fn forgeries(image: &[u8], field: &Field) -> Vec<u64> {
    let mut bytes = [0u8; 8];
    bytes[..field.width].copy_from_slice(&image[field.at..field.at + field.width]);
    let stored = u64::from_le_bytes(bytes);
    let ones = u64::MAX >> (64 - 8 * field.width);
    let mut values = vec![
        stored.wrapping_add(1) & ones,
        stored.wrapping_sub(1) & ones,
        0,
        ones,
    ];
    values.sort_unstable();
    values.dedup();
    values.retain(|&v| v != stored);
    values
}

#[test]
fn every_configuration_field_forged_under_valid_checksums_is_refused() {
    let images = golden_images();
    assert_eq!(images.len(), 8, "every scheme x placement");
    let mut swept = 0;
    for (config, image) in images {
        let what = format!("{:?}/{:?}", config.counter_scheme, config.mac_placement);
        assert!(region::thaw(&image, &config, SIZE).is_ok(), "{what}");
        for field in fields(&image, config.counter_scheme) {
            swept += 1;
            for value in forgeries(&image, &field) {
                let forged = forged(&image, &field, value);
                let case = format!("{what}: {} = {value:#x}", field.name);
                assert_refused_without_panic(&forged, &config, &case);
            }
        }
    }
    // Size, 6 header and 2 tree fields per image, plus 1, 2, 5 and 7
    // layout fields for the four schemes; each under both placements.
    assert_eq!(swept, 2 * (4 * 9 + 15));
}

/// Thaws `forged` under `config` and fails the test, naming `case`,
/// unless thaw refuses it with `InvalidData` and does not panic.
fn assert_refused_without_panic(forged: &[u8], config: &EngineConfig, case: &str) {
    match catch_unwind(AssertUnwindSafe(|| region::thaw(forged, config, SIZE))) {
        Ok(Err(e)) if e.kind() == ErrorKind::InvalidData => {}
        Ok(Err(e)) => panic!("{case}: {e}"),
        Ok(Ok(_)) => panic!("{case} accepted"),
        Err(_) => panic!("{case} panicked"),
    }
}

/// The version field of every section of `image`, with the sections
/// whose CRCs cover it: its own and each enclosing one.
fn version_fields(image: &[u8]) -> Vec<Field> {
    let [region, engine, dram, counters, tree] = sections(image);
    [
        ("AMEREGN version", vec![region]),
        ("AMEENGIN version", vec![engine, region]),
        ("AMEDRAM version", vec![dram, engine, region]),
        ("AMECTRS version", vec![counters, engine, region]),
        ("AMETREE version", vec![tree, engine, region]),
    ]
    .into_iter()
    .map(|(name, sections)| Field {
        name,
        at: sections[0] + 8,
        width: 4,
        sections,
    })
    .collect()
}

/// A section of another version is refused under valid checksums, at
/// every depth of the image: the version gate in `ame_persist` is the
/// one every decoder goes through.
#[test]
fn every_section_version_forged_under_valid_checksums_is_refused() {
    let mut swept = 0;
    for (config, image) in golden_images() {
        let what = format!("{:?}/{:?}", config.counter_scheme, config.mac_placement);
        for field in version_fields(&image) {
            assert_eq!(stored(&image, &field), 1, "{what}: {}", field.name);
            let values = forgeries(&image, &field);
            assert_eq!(
                values,
                [0, 2, u64::from(u32::MAX)],
                "{what}: {}",
                field.name
            );
            for value in values {
                let case = format!("{what}: {} = {value:#x}", field.name);
                assert_refused_without_panic(&forged(&image, &field, value), &config, &case);
                swept += 1;
            }
        }
    }
    assert_eq!(swept, 8 * 5 * 3, "every image, section and forged version");
}

/// A counter cache at the ceiling `new` accepts is no longer adopted
/// from an image that names it: the configured cache is the one built.
#[test]
fn a_counter_cache_the_configuration_does_not_name_is_refused() {
    let (config, image) = golden_images().swap_remove(0);
    let field = fields(&image, config.counter_scheme)
        .into_iter()
        .find(|f| f.name == "counter_cache_blocks")
        .unwrap();
    let ceiling = ame_tree::cache::MAX_CAPACITY as u64;
    let err = region::thaw(&forged(&image, &field, ceiling), &config, SIZE).unwrap_err();
    assert_eq!(err.kind(), ErrorKind::InvalidData, "{err}");
    let configured = EngineConfig {
        counter_cache_blocks: ame_tree::cache::MAX_CAPACITY,
        ..config
    };
    let err = region::thaw(&image, &configured, SIZE).unwrap_err();
    assert!(
        err.to_string().contains("counter_cache_blocks: 65536"),
        "{err}"
    );
}

/// The stored value of `field` in `image`.
fn stored(image: &[u8], field: &Field) -> u64 {
    let mut bytes = [0u8; 8];
    bytes[..field.width].copy_from_slice(&image[field.at..field.at + field.width]);
    u64::from_le_bytes(bytes)
}

fn refused(image: &[u8], config: &EngineConfig) -> bool {
    region::thaw(image, config, SIZE).is_err_and(|e| e.kind() == ErrorKind::InvalidData)
}

#[test]
fn a_forged_tree_depth_is_refused_at_thaw() {
    for (config, image) in golden_images() {
        let what = format!("{:?}/{:?}", config.counter_scheme, config.mac_placement);
        let mut engine = region::thaw(&image, &config, SIZE).unwrap();
        assert!(engine.rekey(9).is_ok(), "{what}");
        let fields = fields(&image, config.counter_scheme);
        // A depth the configuration does not name — absurd (a re-key
        // would size a 2^40-level tree) or merely off by one — is
        // refused, in the engine header and in the tree section alike.
        for name in ["tree_levels", "tree levels"] {
            let field = fields.iter().find(|f| f.name == name).unwrap();
            let levels = stored(&image, field);
            assert_eq!(levels, engine.config().tree_levels as u64, "{what}");
            for forged_levels in [1u64 << 40, levels + 1, levels - 1, 0] {
                assert!(
                    refused(&forged(&image, field, forged_levels), &config),
                    "{what}: {name} = {forged_levels}"
                );
            }
        }
    }
}

#[test]
fn a_non_canonical_prefetch_flag_is_refused_at_thaw() {
    for (config, image) in golden_images() {
        let what = format!("{:?}/{:?}", config.counter_scheme, config.mac_placement);
        let field = fields(&image, config.counter_scheme)
            .into_iter()
            .find(|f| f.name == "prefetch_counters")
            .unwrap();
        let canonical = u64::from(config.prefetch_counters);
        assert_eq!(stored(&image, &field), canonical, "{what}");
        let engine = region::thaw(&forged(&image, &field, canonical), &config, SIZE).unwrap();
        assert_eq!(engine.config().prefetch_counters, config.prefetch_counters);
        // The other canonical value contradicts the configuration; the
        // rest are not a flag at all.
        for flag in [1 - canonical, 2, 0x80, 0xff] {
            assert!(
                refused(&forged(&image, &field, flag), &config),
                "{what}: flag {flag}"
            );
        }
    }
}

/// `image` with `extra` appended to the payload of the innermost of
/// `enclosing` (section offsets, innermost first), and the length and
/// CRC of each of those sections recomputed.
fn appended(image: &[u8], enclosing: &[usize], extra: &[u8]) -> Vec<u8> {
    let mut image = image.to_vec();
    let at = enclosing[0] + HEADER + payload_len(&image, enclosing[0]);
    image.splice(at..at, extra.iter().copied());
    for &section in enclosing {
        let len = payload_len(&image, section) + extra.len();
        image[section + 12..section + HEADER].copy_from_slice(&(len as u64).to_le_bytes());
        let end = section + HEADER + len;
        let crc = ame_persist::crc64(&image[section..end]);
        image[end..end + 8].copy_from_slice(&crc.to_le_bytes());
    }
    image
}

/// The decoders are canonical: a byte after the last field of the image,
/// or of any section in it, is refused under valid checksums rather than
/// dropped at the next freeze.
#[test]
fn bytes_after_the_last_field_of_any_section_are_refused() {
    let extra = [0xa5; 8];
    for (config, image) in golden_images() {
        let what = format!("{:?}/{:?}", config.counter_scheme, config.mac_placement);
        assert!(region::thaw(&image, &config, SIZE).is_ok(), "{what}");
        let [region, engine, dram, counters, tree] = sections(&image);
        let mut after = image.clone();
        after.extend_from_slice(&extra);
        let mut forgeries = vec![("image", after)];
        for (name, enclosing) in [
            ("region payload", vec![region]),
            ("engine payload", vec![engine, region]),
            ("dram payload", vec![dram, engine, region]),
            ("counter payload", vec![counters, engine, region]),
            ("tree payload", vec![tree, engine, region]),
        ] {
            forgeries.push((name, appended(&image, &enclosing, &extra)));
        }
        for (name, forged) in forgeries {
            match region::thaw(&forged, &config, SIZE) {
                Err(e) => assert_eq!(e.kind(), ErrorKind::InvalidData, "{what}: {name}: {e}"),
                Ok(_) => panic!("{what}: 8 bytes appended to the {name} accepted"),
            }
        }
        // The helper only lengthens: appending nothing is the identity.
        assert_eq!(appended(&image, &[counters, engine, region], &[]), image);
    }
}
