//! Cross-crate security test suite: every attack in the paper's threat
//! model (Section 2: bus snooping, cold-boot extraction, tampering,
//! splicing, replay) must be defeated in every engine configuration.

use ame::engine::{
    CounterSchemeKind, EngineConfig, MacPlacement, MemoryEncryptionEngine, ReadError,
};

fn engines() -> Vec<MemoryEncryptionEngine> {
    let mut v = Vec::new();
    for placement in [MacPlacement::MacInEcc, MacPlacement::SeparateMac] {
        for scheme in [
            CounterSchemeKind::Monolithic,
            CounterSchemeKind::Split,
            CounterSchemeKind::Delta,
            CounterSchemeKind::DualLength,
        ] {
            v.push(MemoryEncryptionEngine::new(EngineConfig {
                mac_placement: placement,
                counter_scheme: scheme,
                ..EngineConfig::default()
            }));
        }
    }
    v
}

#[test]
fn confidentiality_ciphertext_unrelated_to_plaintext() {
    for mut e in engines() {
        let plain = [0u8; 64]; // worst case: all zeros
        e.write_block(0x1000, &plain);
        let ct = e.snapshot_block(0x1000).stored_data();
        assert_ne!(ct, plain, "{:?}", e.config());
        // Zero plaintext must still give high-entropy-looking ciphertext.
        let zero_bytes = ct.iter().filter(|&&b| b == 0).count();
        assert!(zero_bytes < 8, "{:?}: {zero_bytes} zero bytes", e.config());
    }
}

#[test]
fn equal_plaintexts_give_distinct_ciphertexts() {
    // Same data at two addresses, and same data rewritten at one address:
    // all ciphertexts must differ (address + counter in the nonce).
    for mut e in engines() {
        e.write_block(0x0, &[9; 64]);
        e.write_block(0x40, &[9; 64]);
        let a = e.snapshot_block(0x0).stored_data();
        let b = e.snapshot_block(0x40).stored_data();
        e.write_block(0x0, &[9; 64]);
        let a2 = e.snapshot_block(0x0).stored_data();
        assert_ne!(a, b, "{:?}", e.config());
        assert_ne!(a, a2, "{:?}", e.config());
    }
}

#[test]
fn large_forgeries_always_detected() {
    for mut e in engines() {
        e.write_block(0x80, &[1; 64]);
        for bit in [0u32, 64, 128, 192, 256, 320, 384, 448, 511] {
            e.tamper_data_bit(0x80, bit);
        }
        assert!(e.read_block(0x80).is_err(), "{:?}", e.config());
    }
}

#[test]
fn splicing_detected_in_all_configs() {
    for mut e in engines() {
        e.write_block(0x0, &[7; 64]);
        e.write_block(0x40, &[8; 64]);
        let snap = e.snapshot_block(0x0);
        e.replay_block(&snap.relocated(0x40));
        assert!(e.read_block(0x40).is_err(), "{:?}", e.config());
    }
}

#[test]
fn replay_detected_in_all_configs() {
    for mut e in engines() {
        e.write_block(0x100, &[1; 64]);
        let old = e.snapshot_block(0x100);
        e.write_block(0x100, &[2; 64]);
        e.replay_block(&old);
        let err = e.read_block(0x100).unwrap_err();
        assert!(
            matches!(err, ReadError::Tree(_)),
            "{:?}: {err:?}",
            e.config()
        );
    }
}

#[test]
fn replay_across_group_reencryption_detected() {
    // Snapshot, force the whole group to re-encrypt (counter jump), then
    // replay: the stale snapshot must still be rejected.
    let mut e = MemoryEncryptionEngine::new(EngineConfig {
        counter_scheme: CounterSchemeKind::Split,
        ..EngineConfig::default()
    });
    e.write_block(0x40, &[5; 64]);
    let old = e.snapshot_block(0x40);
    for _ in 0..200 {
        e.write_block(0x0, &[9; 64]); // overflows the group's minor counter
    }
    e.replay_block(&old);
    assert!(e.read_block(0x40).is_err());
}

#[test]
fn counter_tree_tampering_detected() {
    let mut e = MemoryEncryptionEngine::new(EngineConfig::default());
    e.write_block(0x0, &[3; 64]);
    // Attacker edits counter storage (the packed delta group) directly.
    e.tree_mut().tamper_counter_block(0, |img| img[0] ^= 1);
    let err = e.read_block(0x0).unwrap_err();
    assert!(matches!(err, ReadError::Tree(_)), "{err:?}");
}

#[test]
fn tree_interior_mac_tampering_detected() {
    let mut e = MemoryEncryptionEngine::new(EngineConfig::default());
    e.write_block(0x0, &[3; 64]);
    e.tree_mut().tamper_stored_mac(1, 0, 0xdead);
    assert!(matches!(e.read_block(0x0), Err(ReadError::Tree(_))));
}

#[test]
fn a_sibling_counter_write_does_not_launder_a_replayed_counter_leaf() {
    // Counter leaves 0 and 1 (blocks 0 and 64 of the 64-block delta
    // groups) share their level-1 tree node.
    let sibling = 64 * 64;
    let mut e = MemoryEncryptionEngine::new(EngineConfig::default());
    e.write_block(0x0, &[1; 64]);
    e.write_block(sibling, &[2; 64]);
    let stale = e.tree_mut().snapshot_leaf(0);
    e.write_block(0x0, &[3; 64]);
    e.tree_mut().replay_leaf(0, stale);
    assert!(matches!(e.read_block(0x0), Err(ReadError::Tree(_))));
    // The sibling's path update re-MACs the shared node over the
    // replayed slot; the stale leaf must still fail in the tree.
    e.write_block(sibling, &[4; 64]);
    let err = e.read_block(0x0).unwrap_err();
    assert!(matches!(err, ReadError::Tree(_)), "{err:?}");
}

#[test]
fn sideband_mac_forgery_detected() {
    // Forging many MAC bits (beyond the 1-bit parity budget) must fail
    // the read, not silently "correct" into acceptance.
    let mut e = MemoryEncryptionEngine::new(EngineConfig::default());
    e.write_block(0x0, &[4; 64]);
    for bit in [1u32, 13, 29, 44, 55] {
        e.tamper_sideband_bit(0x0, bit);
    }
    assert!(e.read_block(0x0).is_err());
}

#[test]
fn detection_is_sticky_until_rewrite() {
    // A detected-corrupt block keeps failing until the owner rewrites it.
    let mut e = MemoryEncryptionEngine::new(EngineConfig {
        max_correctable_flips: 0,
        ..EngineConfig::default()
    });
    e.write_block(0x0, &[6; 64]);
    e.tamper_data_bit(0x0, 17);
    assert!(e.read_block(0x0).is_err());
    assert!(e.read_block(0x0).is_err());
    e.write_block(0x0, &[7; 64]);
    assert_eq!(e.read_block(0x0).unwrap(), [7; 64]);
}
