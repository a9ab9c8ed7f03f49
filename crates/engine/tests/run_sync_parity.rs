//! The batched datapath against the scalar one.
//!
//! `write_blocks` (and the first touches of a `read_blocks` run) sync the
//! integrity tree once per distinct metadata block of a run, visit each
//! counter group and each DRAM page once per stretch of blocks sharing
//! it, and seal and open through the batch kernels; scalar `write_block`
//! / `read_block` do all of it per block. The two must leave the engine
//! in the same state down to the last byte: for every counter scheme and
//! MAC placement, random schedules — ascending, descending and scattered
//! runs, runs straddling a DRAM page and a counter group, runs holding a
//! fault — driven through the run entry points and through the scalar
//! ones freeze to identical images, count the same engine and counter
//! statistics, release the same blocks, fail at the same one, and both
//! verify.

use ame_engine::{CounterSchemeKind, EngineConfig, MacPlacement, MemoryEncryptionEngine};
use ame_prng::StdRng;

const BLOCK: u64 = 64;

enum Step {
    Write(Vec<(u64, [u8; 64])>),
    Read(Vec<u64>),
}

fn payload(rng: &mut StdRng) -> [u8; 64] {
    let mut data = [0u8; 64];
    rng.fill(&mut data);
    data
}

/// Write runs of 1..=160 blocks from a random start inside the first
/// five delta groups (so runs span one to three 64-block metadata
/// blocks, eight to twenty monolithic ones), a third of their items
/// replaced by repeats of earlier ones; read runs that reach into
/// never-written groups (first touches); and one run that hammers a
/// single block `hot_writes` times between other stores, overflowing its
/// group mid-run under every scheme that can overflow.
fn schedule(seed: u64, hot_writes: usize) -> Vec<Step> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut steps = Vec::new();
    for round in 0..24 {
        let first = rng.gen_range(0u64..320);
        let len = rng.gen_range(1u64..=160);
        if round % 4 == 3 {
            // Groups 8.. are only ever reached by these reads.
            let first = 512 + rng.gen_range(0u64..192);
            steps.push(Step::Read(
                (first..first + len).map(|b| b * BLOCK).collect(),
            ));
            continue;
        }
        let mut items: Vec<(u64, [u8; 64])> = (first..first + len)
            .map(|b| (b * BLOCK, payload(&mut rng)))
            .collect();
        for _ in 0..len / 3 {
            let (from, to) = (rng.gen_range(0..items.len()), rng.gen_range(0..items.len()));
            items[to].0 = items[from].0;
        }
        steps.push(Step::Write(items));
        if round == 10 {
            let hot = 70 * BLOCK;
            let mut items = vec![
                (69 * BLOCK, payload(&mut rng)),
                (130 * BLOCK, payload(&mut rng)),
            ];
            items.extend((0..hot_writes).map(|_| (hot, payload(&mut rng))));
            items.extend((60..75).map(|b| (b * BLOCK, payload(&mut rng))));
            steps.push(Step::Write(items));
        }
    }
    steps
}

/// Write and read runs in the other orders a store's fused runs take:
/// scattered over the first five delta groups, descending, and
/// straddling the DRAM page and counter group boundary at block 64
/// (and, for the monolithic scheme, several of its 8-block metadata
/// blocks); read runs reach past the last written block.
fn shaped_schedule(seed: u64) -> Vec<Step> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut steps = Vec::new();
    for round in 0..36 {
        let len = rng.gen_range(1u64..=96);
        let blocks: Vec<u64> = match round % 4 {
            0 => (0..len).map(|_| rng.gen_range(0u64..320)).collect(),
            1 => {
                let last = rng.gen_range(len..=320);
                (last - len..last).rev().collect()
            }
            _ => {
                let first = 64 - rng.gen_range(1..=len.min(63));
                (first..first + len).collect()
            }
        };
        let addrs = blocks.iter().map(|b| b * BLOCK);
        if round % 3 == 2 {
            steps.push(Step::Read(addrs.map(|a| a + 256 * BLOCK).collect()));
        } else {
            steps.push(Step::Write(addrs.map(|a| (a, payload(&mut rng))).collect()));
        }
    }
    steps
}

const SCHEMES: [(CounterSchemeKind, usize); 4] = [
    // (scheme, writes to one block that overflow its group)
    (CounterSchemeKind::Monolithic, 140),
    (CounterSchemeKind::Split, 140),
    (CounterSchemeKind::Delta, 140),
    (CounterSchemeKind::DualLength, 1100),
];

const PLACEMENTS: [MacPlacement; 2] = [MacPlacement::MacInEcc, MacPlacement::SeparateMac];

/// Drives `steps` through the run entry points of `by_run` and the
/// scalar ones of `by_block`, asserting after each step that both
/// freeze to the same image and count the same statistics.
fn drive(
    what: &str,
    by_run: &mut MemoryEncryptionEngine,
    by_block: &mut MemoryEncryptionEngine,
    steps: Vec<Step>,
) {
    for step in steps {
        match step {
            Step::Write(items) => {
                by_run.write_blocks(&items);
                for (addr, data) in &items {
                    by_block.write_block(*addr, data);
                }
            }
            Step::Read(addrs) => {
                let run = by_run.read_blocks(&addrs);
                assert!(run.failed.is_none(), "{what}: {:?}", run.failed);
                for (addr, got) in addrs.iter().zip(&run.blocks) {
                    assert_eq!(by_block.read_block(*addr).as_ref(), Ok(got), "{what}");
                }
            }
        }
        assert_same(what, by_run, by_block);
    }
}

/// Both engines freeze to one image and count the same statistics.
fn assert_same(what: &str, by_run: &MemoryEncryptionEngine, by_block: &MemoryEncryptionEngine) {
    assert_eq!(by_run.stats(), by_block.stats(), "{what}: engine stats");
    assert_eq!(
        by_run.counter_stats(),
        by_block.counter_stats(),
        "{what}: counter stats"
    );
    assert_eq!(frozen(by_run), frozen(by_block), "{what}: image");
}

fn engine(
    scheme: CounterSchemeKind,
    placement: MacPlacement,
    cache: usize,
) -> MemoryEncryptionEngine {
    MemoryEncryptionEngine::new(EngineConfig {
        counter_scheme: scheme,
        mac_placement: placement,
        tree_levels: 4,
        counter_cache_blocks: cache,
        ..EngineConfig::default()
    })
}

/// The counter cache's hits, misses and evictions so far.
fn cached(engine: &MemoryEncryptionEngine) -> [u64; 3] {
    let stats = engine.counter_cache_stats().expect("cache enabled");
    [stats.hits, stats.misses, stats.evictions]
}

fn frozen(engine: &MemoryEncryptionEngine) -> Vec<u8> {
    let mut image = Vec::new();
    engine.freeze_into(&mut image);
    image
}

#[test]
fn runs_and_scalar_calls_freeze_to_identical_images() {
    for (scheme, hot_writes) in SCHEMES {
        for placement in PLACEMENTS {
            for cache in [0, 2] {
                let what = format!("{scheme:?} {placement:?} cache={cache}");
                let mut by_run = engine(scheme, placement, cache);
                let mut by_block = engine(scheme, placement, cache);
                let steps = schedule(0xb10c + hot_writes as u64, hot_writes);
                drive(&what, &mut by_run, &mut by_block, steps);
                if scheme != CounterSchemeKind::Monolithic {
                    assert!(
                        by_run.counter_stats().reencryptions > 0,
                        "{what}: the schedule must overflow a group mid-run"
                    );
                }
                let resident = by_block.verify_all().expect("scalar engine verifies");
                assert_eq!(by_run.verify_all(), Ok(resident), "{what}");
            }
        }
    }
}

#[test]
fn scattered_descending_and_straddling_runs_match_scalar_calls() {
    for (scheme, _) in SCHEMES {
        for placement in PLACEMENTS {
            let what = format!("{scheme:?} {placement:?}");
            let mut by_run = engine(scheme, placement, 2);
            let mut by_block = engine(scheme, placement, 2);
            drive(&what, &mut by_run, &mut by_block, shaped_schedule(0x5ca7));
            let resident = by_block.verify_all().expect("scalar engine verifies");
            assert_eq!(by_run.verify_all(), Ok(resident), "{what}");
        }
    }
}

/// A fault a read run can meet.
#[derive(Debug, Clone, Copy)]
enum Fault {
    /// One side-band bit: corrected by the MAC's parity (MAC-in-ECC) or
    /// by SEC-DED (separate MAC).
    SidebandFlip,
    /// One ciphertext bit: corrected by flip-and-check or by SEC-DED.
    DataFlip,
    /// Two bits of the stored MAC (MAC-in-ECC) or of one word's check
    /// byte (separate MAC): detected, not corrected — the read fails.
    DoubleMacFlip,
    /// A block never written: its first touch seals zeros.
    Absent,
}

/// Read runs of blocks 56..72 — across the DRAM page and counter group
/// boundary at block 64 — holding one fault at the run's first, middle
/// or last block: the batched opener must give up on the run and the
/// per-block fallback must release, correct, scrub and fail exactly as
/// scalar reads stopping at their first error do, with the same
/// statistics and the same image; a fault found in storage costs the
/// run no counter fetch.
#[test]
fn faulted_read_runs_fall_back_to_the_scalar_outcome() {
    let faults = [
        Fault::SidebandFlip,
        Fault::DataFlip,
        Fault::DoubleMacFlip,
        Fault::Absent,
    ];
    for (scheme, _) in SCHEMES {
        for placement in PLACEMENTS {
            let mut by_run = engine(scheme, placement, 2);
            let mut by_block = engine(scheme, placement, 2);
            let mut rng = StdRng::seed_from_u64(0xfa17);
            let fill: Vec<(u64, [u8; 64])> =
                (0..128).map(|b| (b * BLOCK, payload(&mut rng))).collect();
            drive("fill", &mut by_run, &mut by_block, vec![Step::Write(fill)]);
            for (round, fault) in faults.into_iter().enumerate() {
                for (k, at) in [56u64, 63, 71].into_iter().enumerate() {
                    let what = format!("{scheme:?} {placement:?} {fault:?} at {at}");
                    // An absent block is one of a fresh group's.
                    let base = match fault {
                        Fault::Absent => (128 + 64 * (3 * round + k) as u64) * BLOCK,
                        _ => 0,
                    };
                    let addrs: Vec<u64> = (56..72).map(|b| base + b * BLOCK).collect();
                    let target = base + at * BLOCK;
                    if let Fault::Absent = fault {
                        let present: Vec<(u64, [u8; 64])> = addrs
                            .iter()
                            .filter(|&&a| a != target)
                            .map(|&a| (a, payload(&mut rng)))
                            .collect();
                        drive(
                            &what,
                            &mut by_run,
                            &mut by_block,
                            vec![Step::Write(present)],
                        );
                    }
                    for e in [&mut by_run, &mut by_block] {
                        match fault {
                            Fault::SidebandFlip => e.tamper_sideband_bit(target, 5),
                            Fault::DataFlip => e.tamper_data_bit(target, 100),
                            Fault::DoubleMacFlip => {
                                e.tamper_sideband_bit(target, 0);
                                e.tamper_sideband_bit(target, 1);
                            }
                            Fault::Absent => {}
                        }
                    }
                    let before = by_run.stats();
                    let cached_before = [cached(&by_run), cached(&by_block)];
                    let run = by_run.read_blocks(&addrs);
                    let mut blocks = Vec::new();
                    let mut failed = None;
                    for (i, &addr) in addrs.iter().enumerate() {
                        match by_block.read_block(addr) {
                            Ok(plain) => blocks.push(plain),
                            Err(e) => {
                                failed = Some((i, e));
                                break;
                            }
                        }
                    }
                    assert_eq!(run.blocks, blocks, "{what}: released blocks");
                    assert_eq!(run.failed, failed, "{what}: failure");
                    // The fallback fetches once per block it attempted.
                    let attempted = blocks.len() + usize::from(failed.is_some());
                    assert_eq!(run.counter_fetches, attempted as u64, "{what}: fallback");
                    assert_eq!(
                        run.failed.is_some(),
                        matches!(fault, Fault::DoubleMacFlip),
                        "{what}"
                    );
                    let after = by_run.stats();
                    let corrected = after.mac_corrections + after.data_corrections
                        - before.mac_corrections
                        - before.data_corrections;
                    let expect_correction = matches!(fault, Fault::SidebandFlip | Fault::DataFlip);
                    assert_eq!(corrected > 0, expect_correction, "{what}: {after}");
                    // Only a data flip under MAC-in-ECC decodes clean from
                    // storage; every other fault is refused by the run's
                    // load, before any counter fetch, so the metadata
                    // cache moves exactly as under the scalar reads.
                    if !matches!(
                        (fault, placement),
                        (Fault::DataFlip, MacPlacement::MacInEcc)
                    ) {
                        let moved = |now: [u64; 3], then: [u64; 3]| {
                            [now[0] - then[0], now[1] - then[1], now[2] - then[2]]
                        };
                        assert_eq!(
                            moved(cached(&by_run), cached_before[0]),
                            moved(cached(&by_block), cached_before[1]),
                            "{what}: counter cache hits, misses, evictions"
                        );
                    }
                    assert_same(&what, &by_run, &by_block);
                    // Heal the block so the next round starts clean.
                    let heal = vec![(target, payload(&mut rng))];
                    drive(&what, &mut by_run, &mut by_block, vec![Step::Write(heal)]);
                }
            }
            let resident = by_block.verify_all().expect("scalar engine verifies");
            assert_eq!(by_run.verify_all(), Ok(resident));
        }
    }
}
