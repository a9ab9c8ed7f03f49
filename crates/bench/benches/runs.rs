//! Microbenchmark of the engine's batched datapath against its scalar
//! one: nanoseconds per block for `write_block` / `read_block` and for
//! `write_blocks` / `read_blocks` runs of 1, 2 and 64 blocks, on a 4 MiB
//! engine (the `bench_ladder` engine configuration: MAC-in-ECC, delta
//! counters, a 6-level tree behind a 64-line counter cache) at random
//! places. Runs of 64 are aligned delta groups, runs of 2 adjacent
//! blocks; a store fuses about two operations per run, so the short
//! runs are the ones it pays for.
//!
//! The last line is JSON, `{"write": {"scalar": .., "run1": ..,
//! "run2": .., "run64": ..}, "read": {..}}` in ns per block, for a
//! check to read.

use ame_bench::micro::bench;
use ame_engine::{CounterSchemeKind, EngineConfig, MacPlacement, MemoryEncryptionEngine};
use ame_prng::StdRng;
use std::hint::black_box;

/// Blocks of the footprint: 4 MiB.
const BLOCKS: u64 = 1 << 16;

/// Random runs each case cycles through.
const POOL: usize = 256;

fn engine() -> MemoryEncryptionEngine {
    let mut engine = MemoryEncryptionEngine::new(EngineConfig {
        mac_placement: MacPlacement::MacInEcc,
        counter_scheme: CounterSchemeKind::Delta,
        tree_levels: 6,
        counter_cache_blocks: 64,
        prefetch_counters: true,
        ..EngineConfig::default()
    });
    for first in (0..BLOCKS).step_by(64) {
        let items: Vec<(u64, [u8; 64])> = (first..first + 64)
            .map(|b| (b * 64, [b as u8; 64]))
            .collect();
        engine.write_blocks(&items);
    }
    engine
}

/// `POOL` runs of `len` block addresses at random places: aligned groups
/// for 64, adjacent blocks otherwise.
fn runs(rng: &mut StdRng, len: u64) -> Vec<Vec<u64>> {
    (0..POOL)
        .map(|_| {
            let first = rng.gen_range(0..BLOCKS / len) * len;
            (first..first + len).map(|b| b * 64).collect()
        })
        .collect()
}

fn main() {
    let mut engine = engine();
    let mut rng = StdRng::seed_from_u64(40);
    let mut cycle = 0usize;
    let mut next = move || {
        cycle = (cycle + 1) % POOL;
        cycle
    };
    let singles = runs(&mut rng, 1);
    let write_scalar = bench("runs/write_block", || {
        engine.write_block(singles[next()][0], &[7; 64]);
    });
    let read_scalar = bench("runs/read_block", || {
        black_box(engine.read_block(singles[next()][0]).is_ok())
    });
    let mut write = vec![("scalar", write_scalar)];
    let mut read = vec![("scalar", read_scalar)];
    for (name, len) in [("run1", 1), ("run2", 2), ("run64", 64)] {
        let addrs = runs(&mut rng, len);
        let items: Vec<Vec<(u64, [u8; 64])>> = addrs
            .iter()
            .map(|run| run.iter().map(|&addr| (addr, [9; 64])).collect())
            .collect();
        let ns = bench(&format!("runs/write_blocks/{len}"), || {
            engine.write_blocks(&items[next()]);
        });
        write.push((name, ns / len as f64));
        let ns = bench(&format!("runs/read_blocks/{len}"), || {
            black_box(engine.read_blocks(&addrs[next()]).failed.is_none())
        });
        read.push((name, ns / len as f64));
    }
    assert_eq!(engine.stats().failed_reads, 0, "every read verified");
    let json = |cases: &[(&str, f64)]| {
        let fields: Vec<String> = cases
            .iter()
            .map(|(name, ns)| format!("\"{name}\": {ns:.1}"))
            .collect();
        format!("{{{}}}", fields.join(", "))
    };
    println!("{{\"write\": {}, \"read\": {}}}", json(&write), json(&read));
}
