//! Per-run tree sync against per-block tree sync.
//!
//! `write_blocks` (and the first touches of a `read_blocks` run) sync the
//! integrity tree once per distinct metadata block of a run; scalar
//! `write_block` / `read_block` sync once per data block. The two must
//! leave the engine in the same state down to the last byte: for every
//! counter scheme and MAC placement, a random schedule driven through the
//! run entry points and through the scalar ones freezes to identical
//! images, and both verify.

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

fn frozen(engine: &MemoryEncryptionEngine) -> Vec<u8> {
    let mut image = Vec::new();
    engine.freeze_into(&mut image);
    image
}

#[test]
fn runs_and_scalar_calls_freeze_to_identical_images() {
    let schemes = [
        // (scheme, writes to one block that overflow its group)
        (CounterSchemeKind::Monolithic, 140),
        (CounterSchemeKind::Split, 140),
        (CounterSchemeKind::Delta, 140),
        (CounterSchemeKind::DualLength, 1100),
    ];
    for (scheme, hot_writes) in schemes {
        for placement in [MacPlacement::MacInEcc, MacPlacement::SeparateMac] {
            for cache in [0, 2] {
                let what = format!("{scheme:?} {placement:?} cache={cache}");
                let mut by_run = engine(scheme, placement, cache);
                let mut by_block = engine(scheme, placement, cache);
                for step in schedule(0xb10c + hot_writes as u64, hot_writes) {
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
                    assert_eq!(frozen(&by_run), frozen(&by_block), "{what}");
                }
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
