//! The `store` and `session` rungs: the schedule driven at a
//! `SecureStore` through its blocking API (one op at a time) and through
//! one pipelined `Session` whose per-shard windows are kept full.

use super::engine::{fault_gate, partitions, FaultTarget};
use crate::laps::now_ns;
use crate::record::{Driven, Recorder, TraceCtx};
use crate::schedule::{Partition, BLOCK};
use crate::spans::Layer;
use crate::spec::{engine_config, Sizing, Workload, SESSION_WINDOW, SHARDS};
use ame_store::{
    SecureStore, Session, SessionConfig, SessionStats, StoreConfig, StoreError, StoreOp,
    StoreValue, Ticket,
};
use ame_telemetry::Snapshot;
use std::collections::HashMap;
use std::path::{Path, PathBuf};

/// Blocks per `submit_batch` call of the prefill and read-back passes
/// (512 per shard, each one queue slot).
const PASS_BATCH: u64 = 1024;

/// The store shape of the store and wire workloads.
#[must_use]
pub fn store_config(sizing: &Sizing) -> StoreConfig {
    StoreConfig {
        shards: SHARDS as usize,
        shard_bytes: sizing.footprint_blocks / SHARDS * BLOCK,
        engine: engine_config(),
        ..StoreConfig::default()
    }
}

/// A store (volatile, or durable under `dir`) with its model.
pub struct StoreSut {
    store: Option<SecureStore>,
    config: StoreConfig,
    dir: Option<PathBuf>,
    /// The op streams and models, one per partition.
    pub parts: Vec<Partition>,
}

/// One operation in flight on the session rung.
struct InFlight {
    op_index: u64,
    t0: u64,
    shard: usize,
    /// `Some(expected bytes)` for a read.
    expect: Option<[u8; 64]>,
}

impl StoreSut {
    /// Opens the store (durable in `dir` when given, which must not
    /// exist yet), prefills every block through `submit_batch` writes —
    /// the store's fused write path, one WAL record and one `fdatasync`
    /// per shard batch on a durable store — and reads it all back.
    ///
    /// # Errors
    ///
    /// I/O failure, a failed write, or a block that read back wrong.
    pub fn build(
        workload: Workload,
        seed: u64,
        sizing: &Sizing,
        dir: Option<&Path>,
    ) -> Result<Self, String> {
        let config = store_config(sizing);
        let store = match dir {
            Some(dir) => SecureStore::open(dir, config.clone()).map_err(|e| e.to_string())?,
            None => SecureStore::new(config.clone()),
        };
        let mut sut = Self {
            store: Some(store),
            config,
            dir: dir.map(Path::to_path_buf),
            parts: partitions(workload, seed, sizing),
        };
        for part in &sut.parts {
            let range = part.base()..part.base() + part.blocks();
            for first in range.clone().step_by(PASS_BATCH as usize) {
                let ops: Vec<StoreOp> = (first..(first + PASS_BATCH).min(range.end))
                    .map(|b| StoreOp::Write {
                        addr: b * BLOCK,
                        data: part.model.initial(b),
                    })
                    .collect();
                if let Some(Err(e)) = sut
                    .store()
                    .submit_batch(&ops)
                    .into_iter()
                    .find(Result::is_err)
                {
                    return Err(format!("set-up write failed: {e}"));
                }
            }
        }
        match sut.read_back() {
            0 => Ok(sut),
            n => Err(format!("set-up read-back: {n} blocks differ")),
        }
    }

    fn store(&self) -> &SecureStore {
        self.store.as_ref().expect("store is open")
    }

    /// Reads every block through `submit_batch`; returns how many failed
    /// or differ from the model.
    pub fn read_back(&mut self) -> u64 {
        let mut bad = 0;
        for part in &self.parts {
            let range = part.base()..part.base() + part.blocks();
            for first in range.clone().step_by(PASS_BATCH as usize) {
                let blocks = first..(first + PASS_BATCH).min(range.end);
                let ops: Vec<StoreOp> = blocks
                    .clone()
                    .map(|b| StoreOp::Read { addr: b * BLOCK })
                    .collect();
                for (b, got) in blocks.zip(self.store().submit_batch(&ops)) {
                    if got != Ok(StoreValue::Data(part.model.expected(b))) {
                        bad += 1;
                    }
                }
            }
        }
        bad
    }

    /// Drives the schedule one blocking `read`/`write` at a time.
    pub fn drive_blocking(
        &mut self,
        sizing: &Sizing,
        laps: usize,
        trace: Option<TraceCtx>,
    ) -> Driven {
        let total = sizing.lap_ops * laps as u64;
        let mut rec = Recorder::start(Layer::Store, sizing.lap_ops, laps, total, trace);
        let store = self.store.as_ref().expect("store is open");
        let mut i = 0u64;
        while !rec.done() {
            let turn = (i % self.parts.len() as u64) as usize;
            let part = &mut self.parts[turn];
            let op = part.next_op();
            if op.write {
                let data = part.model.write_payload(op.block);
                let t0 = now_ns();
                let done = store.write(op.block * BLOCK, &data);
                rec.complete(i, true, t0, now_ns(), 1);
                rec.failed += u64::from(done.is_err());
            } else {
                let t0 = now_ns();
                let got = store.read(op.block * BLOCK);
                rec.complete(i, false, t0, now_ns(), 1);
                match got {
                    Ok(data) if data == part.model.expected(op.block) => {}
                    Ok(_) => rec.mismatches += 1,
                    Err(_) => rec.failed += 1,
                }
            }
            i += 1;
        }
        Driven::merge(vec![rec])
    }

    /// Drives the schedule through one `Session`: every shard's window
    /// of [`SESSION_WINDOW`] is kept full, and an op's latency runs from
    /// its `submit` to the `wait_any` that reaps it. Returns the
    /// session's own statistics alongside.
    pub fn drive_session(
        &mut self,
        sizing: &Sizing,
        laps: usize,
        trace: Option<TraceCtx>,
    ) -> (Driven, SessionStats) {
        let total = sizing.lap_ops * laps as u64;
        let store = self.store.as_ref().expect("store is open");
        let mut session = store.session_with(SessionConfig {
            in_flight_window: SESSION_WINDOW,
        });
        let shards = self.config.shards;
        let mut in_flight = vec![0usize; shards];
        let mut pending: HashMap<Ticket, InFlight> =
            HashMap::with_capacity(shards * SESSION_WINDOW);
        let mut rec = Recorder::start(Layer::Session, sizing.lap_ops, laps, total, trace);

        fn reap(
            done: (Ticket, Result<StoreValue, StoreError>),
            pending: &mut HashMap<Ticket, InFlight>,
            in_flight: &mut [usize],
            rec: &mut Recorder,
        ) {
            let (ticket, result) = done;
            let Some(op) = pending.remove(&ticket) else {
                rec.failed += 1;
                return;
            };
            in_flight[op.shard] -= 1;
            rec.complete(op.op_index, op.expect.is_none(), op.t0, now_ns(), 1);
            match (result, op.expect) {
                (Ok(StoreValue::Written), None) => {}
                (Ok(StoreValue::Data(data)), Some(expect)) if data == expect => {}
                (Ok(_), _) => rec.mismatches += 1,
                (Err(_), _) => rec.failed += 1,
            }
        }
        fn reap_one(
            session: &mut Session<'_>,
            pending: &mut HashMap<Ticket, InFlight>,
            in_flight: &mut [usize],
            rec: &mut Recorder,
        ) {
            if let Some(done) = session.wait_any() {
                reap(done, pending, in_flight, rec);
            }
        }

        for i in 0..total {
            let turn = (i % self.parts.len() as u64) as usize;
            let part = &mut self.parts[turn];
            let op = part.next_op();
            let shard = (op.block % shards as u64) as usize;
            let (store_op, expect) = if op.write {
                let data = part.model.write_payload(op.block);
                (
                    StoreOp::Write {
                        addr: op.block * BLOCK,
                        data,
                    },
                    None,
                )
            } else {
                (
                    StoreOp::Read {
                        addr: op.block * BLOCK,
                    },
                    Some(part.model.expected(op.block)),
                )
            };
            while in_flight[shard] >= SESSION_WINDOW {
                reap_one(&mut session, &mut pending, &mut in_flight, &mut rec);
            }
            loop {
                let t0 = now_ns();
                match session.submit(store_op) {
                    Ok(ticket) => {
                        in_flight[shard] += 1;
                        pending.insert(
                            ticket,
                            InFlight {
                                op_index: i,
                                t0,
                                shard,
                                expect,
                            },
                        );
                        break;
                    }
                    // The shard's request queue is full: wait for any
                    // completion and offer the same op again.
                    Err(StoreError::Overloaded { .. }) if session.in_flight() > 0 => {
                        reap_one(&mut session, &mut pending, &mut in_flight, &mut rec);
                    }
                    Err(_) => {
                        // Refused outright: counted, no latency sample.
                        rec.failed += 1;
                        let now = now_ns();
                        rec.complete_unsampled(now);
                        break;
                    }
                }
            }
            // Take what has already completed without blocking.
            while session.completions_ready() > 0 {
                reap_one(&mut session, &mut pending, &mut in_flight, &mut rec);
            }
        }
        while let Some(done) = session.wait_any() {
            reap(done, &mut pending, &mut in_flight, &mut rec);
        }
        let stats = session.stats().clone();
        drop(session);
        (Driven::merge(vec![rec]), stats)
    }

    /// The store's telemetry snapshot (`store/shard<N>/…`).
    #[must_use]
    pub fn telemetry(&self) -> Snapshot {
        self.store().telemetry()
    }

    /// Kills the durable store as a power cut would, reopens it from
    /// disk and returns the reopen (recovery + re-verification) time in
    /// milliseconds.
    ///
    /// # Errors
    ///
    /// The store is volatile, or the reopen failed.
    pub fn crash_and_reopen(&mut self) -> Result<f64, String> {
        let dir = self
            .dir
            .clone()
            .ok_or("crash + reopen needs a durable store")?;
        self.store.take().expect("store is open").simulate_crash();
        let t0 = now_ns();
        let store = SecureStore::open(&dir, self.config.clone()).map_err(|e| e.to_string())?;
        // The open returns once the workers are spawned; a first read
        // per shard waits for recovery and re-verification to finish.
        for shard in 0..SHARDS {
            store
                .read(shard * BLOCK)
                .map_err(|e| format!("shard {shard} after reopen: {e}"))?;
        }
        let ms = (now_ns() - t0) as f64 / 1e6;
        self.store = Some(store);
        Ok(ms)
    }

    /// The correctness gate's fault injections (poisons a shard: call
    /// last).
    ///
    /// # Errors
    ///
    /// What was not corrected or not refused.
    pub fn fault_gate(&mut self) -> Result<(), String> {
        let base = self.parts[0].base();
        let expect = self.parts[0].model.expected(base);
        fault_gate(self, base, expect, base + 1)
    }

    /// Shuts the store down (drain, re-seal, final checkpoint) and
    /// removes a durable store's directory.
    pub fn teardown(mut self) {
        if let Some(store) = self.store.take() {
            let _ = store.shutdown();
        }
        if let Some(dir) = &self.dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

impl FaultTarget for StoreSut {
    fn flip_data_bit(&mut self, block: u64, bit: u32) -> Result<(), String> {
        self.store()
            .tamper_data_bit(block * BLOCK, bit)
            .map_err(|e| e.to_string())
    }

    fn flip_sideband_bit(&mut self, block: u64, bit: u32) -> Result<(), String> {
        self.store()
            .tamper_sideband_bit(block * BLOCK, bit)
            .map_err(|e| e.to_string())
    }

    fn read(&mut self, block: u64) -> Result<[u8; 64], String> {
        self.store().read(block * BLOCK).map_err(|e| e.to_string())
    }
}
