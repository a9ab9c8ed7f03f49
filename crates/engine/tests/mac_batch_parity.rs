//! Fault-injection parity between the batched and scalar verify paths.
//!
//! The fused read path ([`MemoryEncryptionEngine::read_blocks`]) checks a
//! run's tags with one multi-message `tags_into` call and promises to be
//! *behaviourally identical* to a loop of sequential
//! [`MemoryEncryptionEngine::read_block`] calls: same released plaintext
//! prefix, same error attribution, same flip-and-check corrections, same
//! scrubbing, same statistics. This suite proves that promise under
//! fault injection: for **every single-bit position of a fused run** —
//! all 512 data bits and all 64 side-band bits of each block — two
//! identically-seeded engines take the identical flip, one verifies the
//! run batched and the other scalar, and every observable (plaintext,
//! failure cause and index, correction/quarantine statistics, and the
//! post-read sealed state) must match bit-for-bit.

use ame_engine::{
    CounterSchemeKind, EngineConfig, MacPlacement, MemoryEncryptionEngine, ReadError,
};

const BLOCK: usize = 64;
/// Blocks in the fused run under test.
const RUN: usize = 4;
/// Base address of the run.
const BASE: u64 = 0x1000;

fn engine(placement: MacPlacement) -> MemoryEncryptionEngine {
    MemoryEncryptionEngine::new(EngineConfig {
        mac_placement: placement,
        counter_scheme: CounterSchemeKind::Delta,
        ..EngineConfig::default()
    })
}

/// Seeds two identical engines with the same fused-run write.
fn seeded_pair(placement: MacPlacement) -> (MemoryEncryptionEngine, MemoryEncryptionEngine) {
    let items: Vec<(u64, [u8; BLOCK])> = (0..RUN as u64)
        .map(|i| {
            let mut pat = [0u8; BLOCK];
            for (j, b) in pat.iter_mut().enumerate() {
                *b = (i as u8).wrapping_mul(31) ^ j as u8;
            }
            (BASE + i * BLOCK as u64, pat)
        })
        .collect();
    let mut batched = engine(placement);
    let mut scalar = engine(placement);
    batched.write_blocks(&items);
    scalar.write_blocks(&items);
    (batched, scalar)
}

fn run_addrs() -> Vec<u64> {
    (0..RUN as u64).map(|i| BASE + i * BLOCK as u64).collect()
}

/// Reads the run through sequential scalar verification with the same
/// prefix-release contract as [`MemoryEncryptionEngine::read_blocks`].
fn read_run_scalar(
    e: &mut MemoryEncryptionEngine,
    addrs: &[u64],
) -> (Vec<[u8; BLOCK]>, Option<(usize, ReadError)>) {
    let mut blocks = Vec::with_capacity(addrs.len());
    for (i, &addr) in addrs.iter().enumerate() {
        match e.read_block(addr) {
            Ok(plain) => blocks.push(plain),
            Err(err) => return (blocks, Some((i, err))),
        }
    }
    (blocks, None)
}

/// Injects the same flip into both engines, verifies the run batched in
/// one and scalar in the other, and asserts every observable matches.
fn assert_parity(
    batched: &mut MemoryEncryptionEngine,
    scalar: &mut MemoryEncryptionEngine,
    flip: impl Fn(&mut MemoryEncryptionEngine),
    what: &str,
) {
    flip(batched);
    flip(scalar);
    let addrs = run_addrs();
    let run = batched.read_blocks(&addrs);
    let (want_blocks, want_failed) = read_run_scalar(scalar, &addrs);
    assert_eq!(run.blocks, want_blocks, "{what}: released prefix");
    assert_eq!(run.failed, want_failed, "{what}: attribution");
    // Identical statistics: reads, corrections (flip-and-check and MAC
    // parity), hypothesis counts, and quarantines must agree exactly.
    assert_eq!(batched.stats(), scalar.stats(), "{what}: stats");
    // Identical post-read sealed state: scrubbing (or the absence of
    // it) must leave both engines holding the same bits.
    for &addr in &addrs {
        assert_eq!(
            batched.snapshot_block(addr),
            scalar.snapshot_block(addr),
            "{what}: sealed state @{addr:#x}"
        );
    }
}

#[test]
fn every_data_bit_flip_is_parity_identical_mac_in_ecc() {
    let (mut batched, mut scalar) = seeded_pair(MacPlacement::MacInEcc);
    for block in 0..RUN as u64 {
        let addr = BASE + block * BLOCK as u64;
        for bit in 0..(BLOCK as u32 * 8) {
            assert_parity(
                &mut batched,
                &mut scalar,
                |e| e.tamper_data_bit(addr, bit),
                &format!("MacInEcc data block {block} bit {bit}"),
            );
        }
    }
    // Every single data flip is corrected by flip-and-check on both
    // paths; nothing may be quarantined.
    assert_eq!(batched.stats().failed_reads, 0);
    assert!(batched.stats().data_corrections > 0);
}

#[test]
fn every_sideband_bit_flip_is_parity_identical_mac_in_ecc() {
    let (mut batched, mut scalar) = seeded_pair(MacPlacement::MacInEcc);
    for block in 0..RUN as u64 {
        let addr = BASE + block * BLOCK as u64;
        for bit in 0..64 {
            assert_parity(
                &mut batched,
                &mut scalar,
                |e| e.tamper_sideband_bit(addr, bit),
                &format!("MacInEcc sideband block {block} bit {bit}"),
            );
        }
    }
    assert_eq!(batched.stats().failed_reads, 0);
    assert!(batched.stats().mac_corrections > 0);
}

#[test]
fn every_data_bit_flip_is_parity_identical_separate_mac() {
    let (mut batched, mut scalar) = seeded_pair(MacPlacement::SeparateMac);
    for block in 0..RUN as u64 {
        let addr = BASE + block * BLOCK as u64;
        for bit in 0..(BLOCK as u32 * 8) {
            assert_parity(
                &mut batched,
                &mut scalar,
                |e| e.tamper_data_bit(addr, bit),
                &format!("SeparateMac data block {block} bit {bit}"),
            );
        }
    }
    assert_eq!(batched.stats().failed_reads, 0);
    assert!(batched.stats().data_corrections > 0);
}

#[test]
fn every_sideband_bit_flip_is_parity_identical_separate_mac() {
    let (mut batched, mut scalar) = seeded_pair(MacPlacement::SeparateMac);
    for block in 0..RUN as u64 {
        let addr = BASE + block * BLOCK as u64;
        for bit in 0..64 {
            assert_parity(
                &mut batched,
                &mut scalar,
                |e| e.tamper_sideband_bit(addr, bit),
                &format!("SeparateMac sideband block {block} bit {bit}"),
            );
        }
    }
    assert_eq!(batched.stats().failed_reads, 0);
}

#[test]
fn uncorrectable_double_flip_quarantines_identically() {
    // Two flips in one SEC-DED word are uncorrectable under
    // SeparateMac: both paths must attribute the failure to the same
    // run index with the same cause and release the same prefix.
    for victim in 0..RUN as u64 {
        let (mut batched, mut scalar) = seeded_pair(MacPlacement::SeparateMac);
        let addr = BASE + victim * BLOCK as u64;
        assert_parity(
            &mut batched,
            &mut scalar,
            |e| {
                e.tamper_data_bit(addr, 8);
                e.tamper_data_bit(addr, 9);
            },
            &format!("SeparateMac double flip block {victim}"),
        );
        assert_eq!(batched.stats().failed_reads, 1);
        let run = batched.read_blocks(&run_addrs());
        assert_eq!(
            run.failed.map(|(i, _)| i),
            Some(victim as usize),
            "stays quarantined at the victim"
        );
    }
}
