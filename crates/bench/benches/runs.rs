//! Microbenchmark of the engine's batched datapath against its scalar
//! one: nanoseconds per block for `write_block` / `read_block` and for
//! `write_blocks` / `read_blocks` runs of 1, 2 and 64 blocks, on a 4 MiB
//! engine (the `bench_ladder` engine configuration: MAC-in-ECC, delta
//! counters, a 6-level tree behind a 64-line counter cache) at random
//! places. Runs of 64 are aligned delta groups, runs of 2 adjacent
//! blocks; a store fuses about two operations per run, so the short
//! runs are the ones it pays for.
//!
//! Beneath the engine it prices the two layers a run pays per block:
//! the crypto of a seal (`xor_keystream` + `tags_into` in the run's own
//! buffer) and of an open (`tags_into`, the tag compare, `xor_keystream`)
//! at run lengths 1, 2, 8 and 64, next to the 64-block seal through the
//! allocating wrappers (`keystream_batch`, an XOR pass, `mac_batch`);
//! and `record_writes` over one whole 64-block group, for the delta and
//! the dual-length scheme. The wide tier's shortest zmm run
//! (`wide::MIN_RUN`) and the delta schemes' shortest unpacked stretch
//! are read off these numbers.
//!
//! Last, it runs a one-block seal on one thread and on two threads at
//! once, each thread with a cipher of its own: a cipher's counts are its
//! own, so the second thread must not slow the first.
//!
//! The last line is JSON, `{"write": {"scalar": .., "run1": ..,
//! "run2": .., "run64": ..}, "read": {..}, "seal": {"run1": .., "run2":
//! .., "run8": .., "run64": .., "wrappers64": ..}, "open": {"run1": ..,
//! ..}, "record_writes": {"delta64": .., "dual64": ..}, "threads":
//! {"one": .., "two": ..}}` in ns per block (per iteration of each
//! thread for `threads`), for a check to read.

use ame_bench::micro::bench;
use ame_counters::{delta::DeltaCounters, dual::DualLengthDeltaCounters, CounterScheme};
use ame_crypto::MemoryCipher;
use ame_engine::{CounterSchemeKind, EngineConfig, MacPlacement, MemoryEncryptionEngine};
use ame_prng::StdRng;
use std::hint::black_box;
use std::sync::Barrier;
use std::time::Instant;

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
    let (seal, open) = crypto_legs();
    let record_writes = vec![
        (
            "delta64",
            record_writes_leg("delta", DeltaCounters::default()),
        ),
        (
            "dual64",
            record_writes_leg("dual", DualLengthDeltaCounters::default()),
        ),
    ];
    let threads = vec![("one", seal_threads(1)), ("two", seal_threads(2))];
    let json = |cases: &[(&str, f64)]| {
        let fields: Vec<String> = cases
            .iter()
            .map(|(name, ns)| format!("\"{name}\": {ns:.1}"))
            .collect();
        format!("{{{}}}", fields.join(", "))
    };
    println!(
        "{{\"write\": {}, \"read\": {}, \"seal\": {}, \"open\": {}, \"record_writes\": {}, \
         \"threads\": {}}}",
        json(&write),
        json(&read),
        json(&seal),
        json(&open),
        json(&record_writes),
        json(&threads)
    );
}

/// Named ns-per-block results.
type Legs = Vec<(&'static str, f64)>;

/// ns per block of the seal and the open crypto of a run, in the run's
/// own buffer, at each run length; and of the 64-block seal through the
/// allocating wrappers.
fn crypto_legs() -> (Legs, Legs) {
    let cipher = MemoryCipher::from_seed(40);
    let (mut seal, mut open) = (Vec::new(), Vec::new());
    let mut counter = 0u64;
    for (name, len) in [("run1", 1), ("run2", 2), ("run8", 8), ("run64", 64)] {
        let plains: Vec<[u8; 64]> = (0..len).map(|b| [b as u8; 64]).collect();
        let mut nonces: Vec<(u64, u64)> = (0..len as u64).map(|b| (b * 64, 0)).collect();
        let mut tags = vec![0; len];
        let ns = bench(&format!("runs/seal_crypto/{len}"), || {
            counter += 1;
            nonces.iter_mut().for_each(|nonce| nonce.1 = counter);
            let mut blocks = plains.clone();
            cipher.xor_keystream(&nonces, &mut blocks);
            cipher.tags_into(&nonces, &blocks, &mut tags);
            black_box((blocks, &tags));
        });
        seal.push((name, ns / len as f64));
        let mut sealed = plains.clone();
        cipher.xor_keystream(&nonces, &mut sealed);
        let stored = cipher.mac_batch(&nonces, &sealed);
        let ns = bench(&format!("runs/open_crypto/{len}"), || {
            let mut blocks = sealed.clone();
            cipher.tags_into(&nonces, &blocks, &mut tags);
            assert_eq!(tags, stored, "every tag verified");
            cipher.xor_keystream(&nonces, &mut blocks);
            black_box(blocks);
        });
        open.push((name, ns / len as f64));
        if len == 64 {
            let ns = bench("runs/seal_crypto/64/wrappers", || {
                counter += 1;
                nonces.iter_mut().for_each(|nonce| nonce.1 = counter);
                let mut blocks = cipher.keystream_batch(&nonces);
                for (block, plain) in blocks.iter_mut().zip(&plains) {
                    block.iter_mut().zip(plain).for_each(|(c, p)| *c ^= p);
                }
                black_box(cipher.mac_batch(&nonces, &blocks));
            });
            seal.push(("wrappers64", ns / len as f64));
        }
    }
    (seal, open)
}

/// ns per block of `record_writes` over one whole 64-block group: a
/// sequential sweep of a group, as `engine_stream` writes, cycling
/// through 64 groups so the sweeps meet resets and re-encodes as a
/// stream does.
fn record_writes_leg(name: &str, mut scheme: impl CounterScheme) -> f64 {
    let sweeps: Vec<Vec<u64>> = (0..64u64)
        .map(|g| (g * 64..g * 64 + 64).collect())
        .collect();
    let mut counters = [0u64; 64];
    let mut g = 0;
    let ns = bench(&format!("runs/record_writes/{name}/64"), || {
        g = (g + 1) % sweeps.len();
        let mut done = 0;
        while done < 64 {
            done += scheme
                .record_writes(&sweeps[g][done..], &mut counters[done..])
                .0;
        }
        black_box(&counters);
    });
    ns / 64.0
}

/// ns per iteration of a one-block seal (`xor_keystream` + `tags_into`)
/// on each of `threads` threads at once, each with a cipher of its own:
/// the slowest thread's, best of five rounds.
fn seal_threads(threads: u64) -> f64 {
    const ITERS: u64 = 500_000;
    let best = (0..5)
        .map(|_| {
            let start = Barrier::new(threads as usize);
            std::thread::scope(|s| {
                let workers: Vec<_> = (0..threads)
                    .map(|t| {
                        let start = &start;
                        s.spawn(move || {
                            let cipher = MemoryCipher::from_seed(41 + t);
                            let (mut block, mut tag) = ([[t as u8; 64]], [0]);
                            start.wait();
                            let began = Instant::now();
                            for counter in 0..ITERS {
                                let nonce = [(t * 64, counter)];
                                cipher.xor_keystream(&nonce, &mut block);
                                cipher.tags_into(&nonce, &block, &mut tag);
                                black_box(tag);
                            }
                            began.elapsed().as_nanos() as f64 / ITERS as f64
                        })
                    })
                    .collect();
                workers
                    .into_iter()
                    .map(|w| w.join().unwrap())
                    .fold(0.0, f64::max)
            })
        })
        .fold(f64::INFINITY, f64::min);
    println!(
        "{:<44} {best:>14.1} ns/iter   (each of {threads})",
        format!("runs/seal_threads/{threads}")
    );
    best
}
