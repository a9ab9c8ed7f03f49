//! The parts of the traced run that are not a rung of their own:
//! stand-alone component timings driven with the schedule's addresses,
//! protocol framing on memory buffers, and the reading of the layers'
//! public telemetry surfaces.

use crate::laps::{median, now_ns};
use crate::schedule::{payload, Op, Stream, BLOCK, CHUNK};
use crate::spec::{engine_config, Sizing, Workload};
use crate::workloads::engine::partitions;
use ame_crypto::MemoryCipher;
use ame_dram::storage::{DramStorage, StoredBlock};
use ame_ecc::layout::MacSideband;
use ame_server::protocol::{op, read_frame, write_frame, DEFAULT_MAX_FRAME};
use ame_telemetry::{Snapshot, Value};
use ame_tree::cache::CachedTree;
use ame_tree::merkle::BonsaiTree;
use std::hint::black_box;

/// Operations each component timing covers.
const COMPONENT_OPS: usize = 100_000;
/// Repetitions of each component timing; the median is reported.
const REPEATS: usize = 3;

/// The first [`COMPONENT_OPS`] single-block operations of the workload's
/// schedule (a streaming call is its 64 blocks).
#[must_use]
pub fn schedule_prefix(workload: Workload, seed: u64, sizing: &Sizing) -> Vec<Op> {
    let n = COMPONENT_OPS.min((sizing.lap_ops * sizing.traced_laps as u64) as usize);
    if workload == Workload::EngineStream {
        let mut stream = Stream::new(seed, sizing.footprint_blocks);
        let mut ops = Vec::with_capacity(n + CHUNK as usize);
        while ops.len() < n {
            let call = stream.next_op();
            ops.extend((0..CHUNK).map(|k| Op {
                block: call.first_block + k,
                write: call.write,
            }));
        }
        ops.truncate(n);
        return ops;
    }
    let mut parts = partitions(workload, seed, sizing);
    let count = parts.len();
    (0..n).map(|i| parts[i % count].next_op()).collect()
}

/// Nanoseconds per item of `body` run over `ops`, median of
/// [`REPEATS`] timings.
fn per_op_ns<T>(ops: &[T], mut body: impl FnMut(&T)) -> f64 {
    let samples: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let t0 = now_ns();
            for item in ops {
                body(item);
            }
            (now_ns() - t0) as f64 / ops.len().max(1) as f64
        })
        .collect();
    median(&samples)
}

/// Stand-alone timings of the engine's components.
#[derive(Debug, Clone, Copy, Default)]
pub struct Components {
    /// `MacSideband` encode + decode of one block's side-band.
    pub ecc_sideband_ns: f64,
    /// `CounterScheme::record_write` (delta scheme) of one block.
    pub counters_record_write_ns: f64,
    /// One `DramStorage` read or write on a prefilled image.
    pub dram_access_ns: f64,
    /// `CachedTree::read_counter_block` served from the counter cache.
    pub tree_read_hit_ns: f64,
    /// The same call missing the cache: a full verified walk.
    pub tree_read_miss_ns: f64,
    /// `(miss - hit) / tree_levels`.
    pub tree_walk_ns_per_level: f64,
}

/// Times `MacSideband`, the delta `CounterScheme`, `DramStorage` and
/// `CachedTree` on their own, at the addresses of `ops`.
#[must_use]
pub fn components(ops: &[Op], seed: u64, sizing: &Sizing) -> Components {
    let config = engine_config();

    let ecc_sideband_ns = per_op_ns(ops, |o| {
        let ct = payload(seed, o.block, 1);
        let bytes = MacSideband::new(o.block.wrapping_mul(0x9e37_79b9), &ct).to_bytes();
        black_box(MacSideband::from_bytes(black_box(bytes)).recover_tag());
    });

    let mut counters = config.counter_scheme.build();
    let counters_record_write_ns = per_op_ns(ops, |o| {
        black_box(counters.record_write(o.block));
    });

    let mut dram = DramStorage::new();
    for block in 0..sizing.footprint_blocks {
        dram.write(block * BLOCK, StoredBlock::default());
    }
    let dram_access_ns = per_op_ns(ops, |o| {
        if o.write {
            dram.write(o.block * BLOCK, StoredBlock::default());
        } else {
            black_box(dram.read(o.block * BLOCK));
        }
    });
    drop(dram);

    // Twice the cache's capacity of leaves, read round-robin: with LRU
    // replacement every read misses. The hit leg re-reads one leaf.
    let leaves = 2 * config.counter_cache_blocks as u64;
    let mut tree = CachedTree::new(
        BonsaiTree::new(
            MemoryCipher::from_seed(config.seed ^ 0x7ee),
            config.tree_levels,
            8,
        ),
        config.counter_cache_blocks,
    );
    for leaf in 0..leaves {
        tree.write_counter_block(leaf, [leaf as u8; 64]);
    }
    let order: Vec<u64> = (0..ops.len() as u64).map(|i| i % leaves).collect();
    let tree_read_miss_ns = per_op_ns(&order, |&leaf| {
        black_box(tree.read_counter_block(leaf).is_ok());
    });
    let tree_read_hit_ns = per_op_ns(&order, |_| {
        black_box(tree.read_counter_block(0).is_ok());
    });

    Components {
        ecc_sideband_ns,
        counters_record_write_ns,
        dram_access_ns,
        tree_read_hit_ns,
        tree_read_miss_ns,
        tree_walk_ns_per_level: (tree_read_miss_ns - tree_read_hit_ns)
            / config.tree_levels.max(1) as f64,
    }
}

/// `(encode ns, parse ns)` per frame: the requests of `ops` through
/// `write_frame` into a memory buffer and back through `read_frame`.
#[must_use]
pub fn protocol_framing(ops: &[Op], seed: u64) -> (f64, f64) {
    let numbered: Vec<(usize, Op)> = ops.iter().copied().enumerate().collect();
    let mut wire = Vec::with_capacity(ops.len() * 90);
    let encode_ns = per_op_ns(&numbered, |&(i, o)| {
        if i == 0 {
            wire.clear();
        }
        let mut request = [0u8; 72];
        request[..8].copy_from_slice(&(o.block * BLOCK).to_le_bytes());
        let (opcode, len) = if o.write {
            request[8..].copy_from_slice(&payload(seed, o.block, 2));
            (op::WRITE, 72)
        } else {
            (op::READ, 8)
        };
        write_frame(&mut wire, opcode, i as u64, &request[..len]).expect("writing to memory");
    });
    let mut cursor = wire.as_slice();
    let parse_ns = per_op_ns(&numbered, |&(i, _)| {
        if i == 0 {
            cursor = wire.as_slice();
        }
        black_box(read_frame(&mut cursor, DEFAULT_MAX_FRAME).expect("own frames"));
    });
    (encode_ns, parse_ns)
}

/// `name` of every shard in a store or server snapshot: the values at
/// `…/shard<N>/<name>`.
fn shard_values<'a>(snap: &'a Snapshot, name: &'a str) -> impl Iterator<Item = &'a Value> {
    snap.iter().filter_map(move |(path, value)| {
        let tail = &path[path.rfind("/shard")? + "/shard".len()..];
        let (index, rest) = tail.split_once('/')?;
        (index.bytes().all(|b| b.is_ascii_digit()) && rest == name).then_some(value)
    })
}

/// Sum over shards of counter `name`.
#[must_use]
pub fn shard_counter(snap: &Snapshot, name: &str) -> u64 {
    shard_values(snap, name)
        .map(|v| match v {
            Value::Counter(c) => *c,
            _ => 0,
        })
        .sum()
}

/// Mean over all shards' samples of histogram `name` (0 when empty).
#[must_use]
pub fn shard_hist_mean(snap: &Snapshot, name: &str) -> f64 {
    let (sum, count) = shard_values(snap, name).fold((0u64, 0u64), |(s, c), v| match v {
        Value::Histogram(h) => (s + h.sum(), c + h.count()),
        _ => (s, c),
    });
    if count == 0 {
        0.0
    } else {
        sum as f64 / count as f64
    }
}

/// The counter whose path ends in `/<name>` (first match), or 0.
#[must_use]
pub fn counter_named(snap: &Snapshot, name: &str) -> u64 {
    snap.iter()
        .find_map(|(path, value)| match value {
            Value::Counter(c) if path.rsplit('/').next() == Some(name) => Some(*c),
            _ => None,
        })
        .unwrap_or(0)
}
