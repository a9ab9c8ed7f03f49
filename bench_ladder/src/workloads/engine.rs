//! The `crypto` and `engine` rungs: the schedule driven straight at the
//! `ame-crypto` kernels and at `MemoryEncryptionEngine`, scalar
//! (random workloads) and 64-block batched (streaming workload).

use crate::laps::now_ns;
use crate::record::{Driven, Recorder, TraceCtx};
use crate::schedule::{Partition, Stream, BLOCK, CHUNK};
use crate::spans::Layer;
use crate::spec::{engine_config, Sizing, Workload};
use ame_crypto::MemoryCipher;
use ame_engine::MemoryEncryptionEngine;
use std::hint::black_box;

/// The workload's partitions, fresh (every block at version 1).
#[must_use]
pub fn partitions(workload: Workload, seed: u64, sizing: &Sizing) -> Vec<Partition> {
    let n = workload.partitions();
    (0..n)
        .map(|i| {
            Partition::new(
                seed,
                i,
                n,
                sizing.footprint_blocks,
                workload.write_percent(),
            )
        })
        .collect()
}

/// Drives the random schedule at the crypto kernels one block at a time:
/// a write is `encrypt_block` + `mac_block`, a read `verify_block` +
/// `decrypt_block` — the crypto an engine must do for the op, and
/// nothing else.
///
/// With `kernels` off the same loop runs without the calls: what the
/// harness itself (schedule, payloads, two clock reads and a histogram
/// update per op) costs, which every rung's ns/op includes.
#[must_use]
pub fn drive_crypto_scalar(
    workload: Workload,
    seed: u64,
    sizing: &Sizing,
    laps: usize,
    kernels: bool,
    trace: Option<TraceCtx>,
) -> Driven {
    let cipher = MemoryCipher::from_seed(engine_config().seed);
    let mut parts = partitions(workload, seed, sizing);
    let stored = [0x5au8; 64];
    let total = sizing.lap_ops * laps as u64;
    let mut rec = Recorder::start(Layer::Crypto, sizing.lap_ops, laps, total, trace);
    let mut i = 0u64;
    while !rec.done() {
        let turn = (i % parts.len() as u64) as usize;
        let part = &mut parts[turn];
        let op = part.next_op();
        let addr = op.block * BLOCK;
        if op.write {
            let plain = part.model.write_payload(op.block);
            let t0 = now_ns();
            if kernels {
                let ct = cipher.encrypt_block(addr, i, &plain);
                black_box(cipher.mac_block(addr, i, &ct));
            }
            rec.complete(i, true, t0, now_ns(), 1);
            black_box(plain);
        } else {
            let t0 = now_ns();
            if kernels {
                black_box(cipher.verify_block(addr, i, &stored, i));
                black_box(cipher.decrypt_block(addr, i, &stored));
            }
            rec.complete(i, false, t0, now_ns(), 1);
        }
        i += 1;
    }
    Driven::merge(vec![rec])
}

/// Drives the streaming schedule at the batched kernels: one
/// `keystream_batch` + XOR + `mac_batch` per 64-block call, which is the
/// crypto of both `write_blocks` and `read_blocks`. `kernels` off: the
/// harness floor, as for [`drive_crypto_scalar`].
#[must_use]
pub fn drive_crypto_batch(
    seed: u64,
    sizing: &Sizing,
    laps: usize,
    kernels: bool,
    trace: Option<TraceCtx>,
) -> Driven {
    let cipher = MemoryCipher::from_seed(engine_config().seed);
    let mut stream = Stream::new(seed, sizing.footprint_blocks);
    let calls = sizing.lap_ops * laps as u64 / CHUNK;
    let mut rec = Recorder::start(Layer::Crypto, sizing.lap_ops, laps, calls, trace);
    let mut blocks = vec![[0x5au8; 64]; CHUNK as usize];
    let mut i = 0u64;
    while !rec.done() {
        let op = stream.next_op();
        let nonces: Vec<(u64, u64)> = (0..CHUNK)
            .map(|k| ((op.first_block + k) * BLOCK, i))
            .collect();
        if op.write {
            for (k, block) in blocks.iter_mut().enumerate() {
                *block = stream.model.write_payload(op.first_block + k as u64);
            }
        }
        let t0 = now_ns();
        if kernels {
            let keystreams = cipher.keystream_batch(&nonces);
            for (block, ks) in blocks.iter_mut().zip(&keystreams) {
                for (b, k) in block.iter_mut().zip(ks.iter()) {
                    *b ^= k;
                }
            }
            black_box(cipher.mac_batch(&nonces, &blocks));
        }
        rec.complete(i, op.write, t0, now_ns(), CHUNK);
        black_box(&blocks);
        i += 1;
    }
    Driven::merge(vec![rec])
}

/// What the correctness gate's fault injections need from a system
/// under test, addressed by global block index.
pub trait FaultTarget {
    /// Flips one stored ciphertext bit of `block`.
    ///
    /// # Errors
    ///
    /// The injection itself failed.
    fn flip_data_bit(&mut self, block: u64, bit: u32) -> Result<(), String>;
    /// Flips one ECC side-band (MAC) bit of `block`.
    ///
    /// # Errors
    ///
    /// The injection itself failed.
    fn flip_sideband_bit(&mut self, block: u64, bit: u32) -> Result<(), String>;
    /// A verified read of `block`.
    ///
    /// # Errors
    ///
    /// The read was refused.
    fn read(&mut self, block: u64) -> Result<[u8; 64], String>;
}

/// Both fault checks every run makes: one flipped data bit in `block_a`
/// must be corrected (the read returns `expect_a`), and a MAC with two
/// flipped bits on `block_b` must be refused. Leaves `block_b` (and, in
/// a store, its shard) unreadable: call it last.
///
/// # Errors
///
/// What was not corrected or not refused.
pub fn fault_gate(
    target: &mut dyn FaultTarget,
    block_a: u64,
    expect_a: [u8; 64],
    block_b: u64,
) -> Result<(), String> {
    target.flip_data_bit(block_a, 137)?;
    match target.read(block_a) {
        Ok(bytes) if bytes == expect_a => {}
        Ok(_) => return Err("flipped data bit: the read returned wrong bytes".into()),
        Err(e) => return Err(format!("flipped data bit was not corrected: {e}")),
    }
    target.flip_sideband_bit(block_b, 2)?;
    target.flip_sideband_bit(block_b, 40)?;
    match target.read(block_b) {
        Err(_) => Ok(()),
        Ok(_) => Err("tampered MAC: the read was not refused".into()),
    }
}

/// One or more engines addressed like a store's shards (block `b` is
/// local block `b / n` of engine `b % n`), with the model they are
/// checked against. One engine and one partition for `engine_random`;
/// the store and wire workloads' engine rung uses their shard count and
/// partitions.
pub struct EngineSut {
    engines: Vec<MemoryEncryptionEngine>,
    /// The op streams and models, one per partition.
    pub parts: Vec<Partition>,
}

impl EngineSut {
    fn locate(&self, block: u64) -> (usize, u64) {
        let n = self.engines.len() as u64;
        ((block % n) as usize, block / n * BLOCK)
    }

    /// Builds the engines, prefills every block through `write_block`
    /// and reads it all back through `read_block`.
    ///
    /// # Errors
    ///
    /// A description of the first block that read back wrong.
    pub fn build(
        workload: Workload,
        seed: u64,
        sizing: &Sizing,
        shards: u64,
    ) -> Result<Self, String> {
        let mut sut = Self {
            engines: (0..shards)
                .map(|s| MemoryEncryptionEngine::new(engine_config().for_shard(s as usize)))
                .collect(),
            parts: partitions(workload, seed, sizing),
        };
        for p in 0..sut.parts.len() {
            let (base, blocks) = (sut.parts[p].base(), sut.parts[p].blocks());
            for block in base..base + blocks {
                let data = sut.parts[p].model.initial(block);
                let (e, local) = sut.locate(block);
                sut.engines[e].write_block(local, &data);
            }
        }
        match sut.read_back() {
            0 => Ok(sut),
            n => Err(format!("set-up read-back: {n} blocks differ")),
        }
    }

    /// Reads every block through `read_block`; returns how many failed
    /// or differ from the model.
    pub fn read_back(&mut self) -> u64 {
        let mut bad = 0;
        for p in 0..self.parts.len() {
            let (base, blocks) = (self.parts[p].base(), self.parts[p].blocks());
            for block in base..base + blocks {
                let (e, local) = self.locate(block);
                if self.engines[e].read_block(local) != Ok(self.parts[p].model.expected(block)) {
                    bad += 1;
                }
            }
        }
        bad
    }

    /// Drives the random schedule through scalar `read_block` /
    /// `write_block` calls, partitions taking turns.
    pub fn drive(&mut self, sizing: &Sizing, laps: usize, trace: Option<TraceCtx>) -> Driven {
        let total = sizing.lap_ops * laps as u64;
        let mut rec = Recorder::start(Layer::Engine, sizing.lap_ops, laps, total, trace);
        let mut i = 0u64;
        while !rec.done() {
            let turn = (i % self.parts.len() as u64) as usize;
            let op = self.parts[turn].next_op();
            let (e, local) = self.locate(op.block);
            if op.write {
                let data = self.parts[turn].model.write_payload(op.block);
                let t0 = now_ns();
                self.engines[e].write_block(local, &data);
                rec.complete(i, true, t0, now_ns(), 1);
            } else {
                let t0 = now_ns();
                let got = self.engines[e].read_block(local);
                rec.complete(i, false, t0, now_ns(), 1);
                match got {
                    Ok(data) if data == self.parts[turn].model.expected(op.block) => {}
                    Ok(_) => rec.mismatches += 1,
                    Err(_) => rec.failed += 1,
                }
            }
            i += 1;
        }
        Driven::merge(vec![rec])
    }

    /// The correctness gate's fault injections (call last).
    ///
    /// # Errors
    ///
    /// What was not corrected or not refused.
    pub fn fault_gate(&mut self) -> Result<(), String> {
        let base = self.parts[0].base();
        let expect = self.parts[0].model.expected(base);
        fault_gate(self, base, expect, base + 1)
    }

    /// The engines (telemetry: `stats`, `counter_stats`,
    /// `counter_cache_stats`, `mac_batch_distribution`).
    #[must_use]
    pub fn engines(&self) -> &[MemoryEncryptionEngine] {
        &self.engines
    }
}

impl FaultTarget for EngineSut {
    fn flip_data_bit(&mut self, block: u64, bit: u32) -> Result<(), String> {
        let (e, local) = self.locate(block);
        self.engines[e].tamper_data_bit(local, bit);
        Ok(())
    }

    fn flip_sideband_bit(&mut self, block: u64, bit: u32) -> Result<(), String> {
        let (e, local) = self.locate(block);
        self.engines[e].tamper_sideband_bit(local, bit);
        Ok(())
    }

    fn read(&mut self, block: u64) -> Result<[u8; 64], String> {
        let (e, local) = self.locate(block);
        self.engines[e].read_block(local).map_err(|e| e.to_string())
    }
}

/// One engine under the streaming schedule.
pub struct StreamSut {
    engine: MemoryEncryptionEngine,
    /// The schedule and model.
    pub stream: Stream,
}

impl StreamSut {
    /// Builds the engine, prefills the footprint through `write_blocks`
    /// and reads it back through `read_blocks`.
    ///
    /// # Errors
    ///
    /// How many blocks read back wrong.
    pub fn build(seed: u64, sizing: &Sizing) -> Result<Self, String> {
        let mut sut = Self {
            engine: MemoryEncryptionEngine::new(engine_config()),
            stream: Stream::new(seed, sizing.footprint_blocks),
        };
        for first in (0..sut.stream.blocks()).step_by(CHUNK as usize) {
            let items: Vec<(u64, [u8; 64])> = (first..first + CHUNK)
                .map(|b| (b * BLOCK, sut.stream.model.initial(b)))
                .collect();
            sut.engine.write_blocks(&items);
        }
        match sut.read_back() {
            0 => Ok(sut),
            n => Err(format!("set-up read-back: {n} blocks differ")),
        }
    }

    fn read_chunk(&mut self, first: u64) -> u64 {
        let addrs: Vec<u64> = (first..first + CHUNK).map(|b| b * BLOCK).collect();
        let run = self.engine.read_blocks(&addrs);
        let wrong = run
            .blocks
            .iter()
            .zip(first..)
            .filter(|(got, b)| **got != self.stream.model.expected(*b))
            .count() as u64;
        wrong + (CHUNK - run.blocks.len() as u64)
    }

    /// Reads every chunk through `read_blocks`; returns how many blocks
    /// failed or differ from the model.
    pub fn read_back(&mut self) -> u64 {
        (0..self.stream.blocks())
            .step_by(CHUNK as usize)
            .map(|first| self.read_chunk(first))
            .sum()
    }

    /// Drives the streaming schedule through `write_blocks` /
    /// `read_blocks` calls of 64 blocks. A chunk's write and the read
    /// that follows it are one submission unit.
    pub fn drive(&mut self, sizing: &Sizing, laps: usize, trace: Option<TraceCtx>) -> Driven {
        let calls = sizing.lap_ops * laps as u64 / CHUNK;
        let mut rec = Recorder::start(Layer::Engine, sizing.lap_ops, laps, calls, trace);
        let mut i = 0u64;
        while !rec.done() {
            let op = self.stream.next_op();
            debug_assert!(op.write, "the stream writes a chunk before reading it");
            let items: Vec<(u64, [u8; 64])> = (op.first_block..op.first_block + CHUNK)
                .map(|b| (b * BLOCK, self.stream.model.write_payload(b)))
                .collect();
            let w0 = now_ns();
            self.engine.write_blocks(&items);
            let w1 = now_ns();

            let op = self.stream.next_op();
            let addrs: Vec<u64> = (op.first_block..op.first_block + CHUNK)
                .map(|b| b * BLOCK)
                .collect();
            let r0 = now_ns();
            let run = self.engine.read_blocks(&addrs);
            let r1 = now_ns();
            rec.complete_pair(i, (w0, w1), (r0, r1), 2 * CHUNK);
            rec.failed += CHUNK - run.blocks.len() as u64;
            rec.mismatches += run
                .blocks
                .iter()
                .zip(op.first_block..)
                .filter(|(got, b)| **got != self.stream.model.expected(*b))
                .count() as u64;
            i += 2;
        }
        Driven::merge(vec![rec])
    }

    /// The correctness gate's fault injections (call last).
    ///
    /// # Errors
    ///
    /// What was not corrected or not refused.
    pub fn fault_gate(&mut self) -> Result<(), String> {
        let expect = self.stream.model.expected(0);
        fault_gate(self, 0, expect, 1)
    }

    /// The engine (telemetry).
    #[must_use]
    pub fn engine(&self) -> &MemoryEncryptionEngine {
        &self.engine
    }
}

impl FaultTarget for StreamSut {
    fn flip_data_bit(&mut self, block: u64, bit: u32) -> Result<(), String> {
        self.engine.tamper_data_bit(block * BLOCK, bit);
        Ok(())
    }

    fn flip_sideband_bit(&mut self, block: u64, bit: u32) -> Result<(), String> {
        self.engine.tamper_sideband_bit(block * BLOCK, bit);
        Ok(())
    }

    fn read(&mut self, block: u64) -> Result<[u8; 64], String> {
        self.engine
            .read_block(block * BLOCK)
            .map_err(|e| e.to_string())
    }
}
