//! Group re-encryption (Section 4.2) opens every resident block of the
//! overflowed group the way a read does — MAC-verified, and corrected
//! when a fault is within the budget — before sealing it under the
//! group's fresh counter. A block that does not open is left as stored,
//! so its tag keeps failing and every later read reports it; nothing a
//! fault or an attacker left behind is re-MACed into valid state.
//!
//! Every case runs over {Split, Delta, DualLength} × {MacInEcc,
//! SeparateMac}: the three schemes that re-encrypt groups, under both
//! MAC placements.

use ame_engine::{
    CounterSchemeKind, EngineConfig, EngineStats, MacPlacement, MemoryEncryptionEngine,
};

const BLOCK: u64 = 64;
/// The block every case tampers with.
const TARGET: u64 = 0;
/// Resident blocks of the target's group, the target included.
const RESIDENT: [u64; 4] = [0, 1, 2, 3];
/// The neighbour written until the group re-encrypts.
const HAMMERED: u64 = 2;

fn cells() -> Vec<EngineConfig> {
    let mut cells = Vec::new();
    for counter_scheme in [
        CounterSchemeKind::Split,
        CounterSchemeKind::Delta,
        CounterSchemeKind::DualLength,
    ] {
        for mac_placement in [MacPlacement::MacInEcc, MacPlacement::SeparateMac] {
            cells.push(EngineConfig {
                counter_scheme,
                mac_placement,
                ..EngineConfig::default()
            });
        }
    }
    cells
}

/// Block `b`'s contents: the target holds byte 5.
fn value(b: u64) -> [u8; 64] {
    [b as u8 + 5; 64]
}

fn populated(config: EngineConfig) -> MemoryEncryptionEngine {
    let mut engine = MemoryEncryptionEngine::new(config);
    for b in RESIDENT {
        engine.write_block(b * BLOCK, &value(b));
    }
    engine
}

/// Writes the hammered neighbour until the group's counters overflow
/// once, and returns the engine stats just before and just after the
/// write that re-encrypted the group.
fn force_reencryption(engine: &mut MemoryEncryptionEngine) -> (EngineStats, EngineStats) {
    let reencryptions = engine.counter_stats().reencryptions;
    for _ in 0..10_000 {
        let before = engine.stats();
        engine.write_block(HAMMERED * BLOCK, &value(HAMMERED));
        if engine.counter_stats().reencryptions > reencryptions {
            return (before, engine.stats());
        }
    }
    panic!(
        "{:?}: no re-encryption after 10 000 writes",
        engine.config()
    );
}

fn assert_neighbours_intact(engine: &mut MemoryEncryptionEngine) {
    for b in RESIDENT.into_iter().filter(|&b| b != TARGET) {
        assert_eq!(
            engine.read_block(b * BLOCK),
            Ok(value(b)),
            "{:?}: neighbour {b}",
            engine.config()
        );
    }
}

/// Three flipped bits in one byte are past the correction budget of
/// both placements. A re-encryption that moved the stored ciphertext
/// from the old keystream to the new one and re-MACed it unchecked
/// would serve the flipped plaintext (`5 ^ 0b111 = 2`) as verified.
#[test]
fn an_uncorrectable_block_stays_detected_across_re_encryption() {
    for config in cells() {
        let mut engine = populated(config);
        for bit in 0..3 {
            engine.tamper_data_bit(TARGET * BLOCK, bit);
        }
        force_reencryption(&mut engine);
        let read = engine.read_block(TARGET * BLOCK);
        assert!(read.is_err(), "{config:?}: tampered block read {read:?}");
        assert_neighbours_intact(&mut engine);
    }
}

/// A single flipped bit is what a read corrects (flip-and-check under
/// MAC-in-ECC, SEC-DED under separate MACs). Re-encryption corrects it
/// the same way before re-sealing, instead of sealing the fault into
/// the block (`5 ^ 0b10 = 7`).
#[test]
fn a_correctable_fault_is_corrected_by_re_encryption() {
    for config in cells() {
        let mut engine = populated(config);
        engine.tamper_data_bit(TARGET * BLOCK, 1);
        let corrections = engine.stats().data_corrections;
        force_reencryption(&mut engine);
        assert_eq!(
            engine.stats().data_corrections,
            corrections + 1,
            "{config:?}: the re-encryption corrects the fault"
        );
        assert_eq!(
            engine.read_block(TARGET * BLOCK),
            Ok(value(TARGET)),
            "{config:?}"
        );
        assert_neighbours_intact(&mut engine);
    }
}

/// A data-only stale replay: the block's version-1 ciphertext (and, with
/// separate MACs, its version-1 tag) put back over version 2, counters
/// untouched. Its tag binds the old counter, so it does not open, and
/// re-encryption must not give it a fresh one.
#[test]
fn a_stale_replay_stays_detected_across_re_encryption() {
    for config in cells() {
        let mut engine = populated(config);
        let snap = engine.snapshot_block(TARGET * BLOCK);
        engine.write_block(TARGET * BLOCK, &[0xa5; 64]);
        engine.replay_block(&snap.relocated(TARGET * BLOCK));
        force_reencryption(&mut engine);
        let read = engine.read_block(TARGET * BLOCK);
        assert!(read.is_err(), "{config:?}: replayed block read {read:?}");
        assert_neighbours_intact(&mut engine);
    }
}

/// A re-encryption touches only `reencrypted_blocks`, and counts there
/// only the blocks it re-sealed: a clean group re-seals every resident
/// block, a group holding an uncorrectable block re-seals all but that
/// one. Opening a block to re-seal it is not a served read, so neither
/// `reads` nor `failed_reads` moves; a block that fails to open pays
/// only the correction attempts a read would.
#[test]
fn re_encryption_counts_only_the_blocks_it_re_sealed() {
    for config in cells() {
        for tampered in [false, true] {
            let mut engine = populated(config);
            if tampered {
                for bit in 0..3 {
                    engine.tamper_data_bit(TARGET * BLOCK, bit);
                }
            }
            let (before, after) = force_reencryption(&mut engine);
            let resealed = RESIDENT.len() as u64 - u64::from(tampered);
            let clean = EngineStats {
                writes: before.writes + 1,
                reencrypted_blocks: before.reencrypted_blocks + resealed,
                ..before
            };
            // The failed open pays the checks a read would pay.
            let expected = if tampered {
                EngineStats {
                    data_corrections: after.data_corrections,
                    flip_checks: after.flip_checks,
                    ..clean
                }
            } else {
                clean
            };
            assert_eq!(after, expected, "{config:?}, tampered: {tampered}");
            assert_neighbours_intact(&mut engine);
        }
    }
}
