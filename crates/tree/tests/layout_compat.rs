//! The node-image layout against the per-child layout it replaced: the
//! durable `AMETREE` v1 bytes, and the `VerifyError` a broken path yields.

use ame_crypto::MemoryCipher;
use ame_persist::ByteReader;
use ame_tree::{BonsaiTree, VerifyError};

/// A state blob written by the per-child-map encoder (3 off-chip levels,
/// arity 8, cipher seed 99; leaves 0, 1, 9, 64, 70, 513 written, leaf 17
/// lazily zero-initialised by a read, leaf 1 rewritten).
const GOLDEN_HEX: &str = include_str!("ametree_v1.hex");
const GOLDEN_LEAVES: [u64; 7] = [0, 1, 9, 17, 64, 70, 513];

fn golden_bytes() -> Vec<u8> {
    let hex: Vec<u8> = GOLDEN_HEX
        .bytes()
        .filter(|b| !b.is_ascii_whitespace())
        .collect();
    hex.chunks(2)
        .map(|pair| u8::from_str_radix(std::str::from_utf8(pair).unwrap(), 16).unwrap())
        .collect()
}

#[test]
fn v1_state_from_the_per_child_encoder_decodes_verifies_and_reencodes_identically() {
    let golden = golden_bytes();
    let mut tree =
        BonsaiTree::decode_state(MemoryCipher::from_seed(99), &mut ByteReader::new(&golden))
            .expect("the golden blob decodes");
    for leaf in GOLDEN_LEAVES {
        tree.read_counter_block(leaf)
            .unwrap_or_else(|e| panic!("leaf {leaf}: {e}"));
    }
    assert_eq!(tree.read_counter_block(1).unwrap(), [0xa5; 64]);
    assert_eq!(tree.read_counter_block(17).unwrap(), [0; 64]);
    let mut again = Vec::new();
    tree.encode_state(&mut again);
    assert_eq!(again, golden, "AMETREE v1 bytes changed");
}

#[test]
fn a_tampered_but_unwritten_sibling_slot_is_serialized_as_present() {
    // Presence is "ever written", not "non-zero": a MAC forged to 0 over a
    // never-written slot must survive a round trip as a present entry.
    let mut tree = BonsaiTree::new(MemoryCipher::from_seed(99), 2, 8);
    tree.write_counter_block(8, [1; 64]);
    let mut before = Vec::new();
    tree.encode_state(&mut before);
    tree.tamper_stored_mac(0, 9, 0);
    let mut after = Vec::new();
    tree.encode_state(&mut after);
    assert_eq!(after.len(), before.len() + 16, "one more (child, mac) pair");
    let mut back =
        BonsaiTree::decode_state(MemoryCipher::from_seed(99), &mut ByteReader::new(&after))
            .unwrap();
    let mut again = Vec::new();
    back.encode_state(&mut again);
    assert_eq!(again, after);
    assert!(
        back.read_counter_block(8).is_ok(),
        "a zero MAC over an absent slot changes nothing"
    );
}

const LEVELS: usize = 6;
const LEAF: u64 = 1234;
/// The path of `LEAF`, bottom up: its node index at levels 0..=6.
const PATH: [u64; LEVELS + 1] = [1234, 154, 19, 2, 0, 0, 0];

fn six_level_tree() -> BonsaiTree {
    let mut tree = BonsaiTree::new(MemoryCipher::from_seed(7), LEVELS, 8);
    for leaf in [LEAF - 1, LEAF, LEAF + 1, 8, 70_000] {
        tree.write_counter_block(leaf, [leaf as u8; 64]);
    }
    tree
}

/// What the sequential level-by-level walk reported for each attack; the
/// batched walk must attribute the failure to the same (lowest) level.
#[test]
fn the_batched_walk_attributes_failures_like_the_sequential_walk() {
    type Attack = fn(&mut BonsaiTree);
    let table: [(&str, Attack, VerifyError, Option<VerifyError>); 11] = [
        (
            "leaf bit flip",
            |t| t.tamper_counter_block(LEAF, |b| b[10] ^= 0x40),
            VerifyError {
                level: 0,
                node: 1234,
            },
            None,
        ),
        (
            "stored_macs[0] of the leaf",
            |t| t.tamper_stored_mac(0, PATH[0], 0xdead_beef),
            VerifyError {
                level: 0,
                node: 1234,
            },
            None,
        ),
        (
            "stored_macs[0] of a sibling leaf",
            |t| t.tamper_stored_mac(0, LEAF + 1, 0xdead_beef),
            VerifyError {
                level: 1,
                node: 154,
            },
            None,
        ),
        (
            "stored_macs[1]",
            |t| t.tamper_stored_mac(1, PATH[1], 1),
            VerifyError {
                level: 1,
                node: 154,
            },
            None,
        ),
        (
            "stored_macs[2]",
            |t| t.tamper_stored_mac(2, PATH[2], 2),
            VerifyError { level: 2, node: 19 },
            None,
        ),
        (
            "stored_macs[3]",
            |t| t.tamper_stored_mac(3, PATH[3], 3),
            VerifyError { level: 3, node: 2 },
            Some(VerifyError { level: 4, node: 0 }),
        ),
        (
            "stored_macs[4]",
            |t| t.tamper_stored_mac(4, PATH[4], 4),
            VerifyError { level: 4, node: 0 },
            Some(VerifyError { level: 4, node: 0 }),
        ),
        (
            "stored_macs[5]",
            |t| t.tamper_stored_mac(5, PATH[5], 5),
            VerifyError { level: 5, node: 0 },
            Some(VerifyError { level: 5, node: 0 }),
        ),
        (
            "stale leaf replayed",
            |t| {
                let old = t.snapshot_leaf(LEAF);
                t.write_counter_block(LEAF, [0x77; 64]);
                t.replay_leaf(LEAF, old);
            },
            VerifyError {
                level: 1,
                node: 154,
            },
            None,
        ),
        (
            "leaf and stored_macs[3] together: the lower level is reported",
            |t| {
                t.tamper_stored_mac(3, PATH[3], 3);
                t.tamper_counter_block(LEAF, |b| b[0] ^= 1);
            },
            VerifyError {
                level: 0,
                node: 1234,
            },
            Some(VerifyError { level: 4, node: 0 }),
        ),
        (
            "stored_macs[2] and stored_macs[4] together: the lower level is reported",
            |t| {
                t.tamper_stored_mac(4, PATH[4], 4);
                t.tamper_stored_mac(2, PATH[2], 2);
            },
            VerifyError { level: 2, node: 19 },
            Some(VerifyError { level: 4, node: 0 }),
        ),
    ];
    for (name, attack, expected, expected_far) in table {
        let mut tree = six_level_tree();
        assert!(
            tree.read_counter_block(LEAF).is_ok(),
            "{name}: clean before"
        );
        attack(&mut tree);
        assert_eq!(tree.read_counter_block(LEAF), Err(expected), "{name}");
        // Leaf 8 shares only levels 4.. of the path (8, 1, 0, 0, 0, 0, 0).
        assert_eq!(
            tree.read_counter_block(8).err(),
            expected_far,
            "{name}: leaf 8"
        );
    }
}

#[test]
fn nothing_is_released_unless_every_level_matches() {
    // Break each level in turn: the walk never returns the leaf.
    for (level, &node) in PATH.iter().enumerate().take(LEVELS) {
        let mut tree = six_level_tree();
        tree.tamper_stored_mac(level, node, 0x5151);
        assert!(tree.read_counter_block(LEAF).is_err(), "level {level}");
    }
}
