//! A sharded, concurrent secure memory service over the AME engine.
//!
//! The rest of the workspace drives one
//! [`MemoryEncryptionEngine`](ame_engine::MemoryEncryptionEngine) from a
//! single-threaded trace loop. This crate turns that engine into a
//! *service*: a [`SecureStore`] partitions a flat protected address space
//! across `N` shards, each shard owning a whole independently-keyed
//! engine (its own AES keys, counters, Bonsai tree, DRAM image) behind a
//! dedicated worker thread and a bounded `mpsc` request queue.
//!
//! The design follows the scalability arguments of SecDDR (cheap
//! per-access verification at datacenter scale) and Secure Scattered
//! Memory (protected state distributed across independent units):
//!
//! * **Address-interleaved sharding** — block `b` lives on shard
//!   `b mod N`, so sequential traffic stripes across all shards and each
//!   shard's engine (and its fixed-size on-chip counter cache) covers
//!   only `1/N` of the metadata working set. More shards therefore mean
//!   both more service threads *and* more aggregate verified-metadata
//!   cache.
//! * **Batching** — workers drain up to `max_batch` queued requests per
//!   wakeup, and [`SecureStore::submit_batch`] coalesces same-shard
//!   operations into one queue slot, amortizing channel and scheduling
//!   costs.
//! * **Backpressure** — queues are bounded: the blocking API waits for a
//!   slot, a [`Session`] fast-fails with [`StoreError::Overloaded`].
//! * **Fault isolation** — a MAC/tree verification failure quarantines
//!   only the affected shard ([`StoreError::ShardPoisoned`]); the other
//!   shards keep serving.
//! * **Telemetry** — every shard reports queue-depth, batch-size and
//!   service-latency distributions plus operation counters under
//!   `store/shard<N>/...` in the workspace-wide
//!   [`StatsRegistry`](ame_telemetry::StatsRegistry) vocabulary.
//!
//! # Example
//!
//! ```
//! use ame_store::{SecureStore, StoreConfig};
//!
//! let store = SecureStore::new(StoreConfig {
//!     shards: 4,
//!     ..StoreConfig::default()
//! });
//! store.write(0x40, &[7u8; 64]).unwrap();
//! assert_eq!(store.read(0x40).unwrap(), [7u8; 64]);
//! let old = store
//!     .read_modify_write(0x40, |block| block[0] = 9)
//!     .unwrap();
//! assert_eq!(old[0], 7);
//! let report = store.shutdown();
//! assert!(report.shards.iter().all(|s| s.resealed));
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod session;
mod shard;
mod wake;
mod wal;

pub use session::{Session, SessionConfig, SessionReaper, SessionStats, SessionSubmitter, Ticket};
pub use shard::{SealReport, ShardStats};
pub use wake::WakeFd;

use ame_engine::region::SecureRegion;
pub use ame_engine::BLOCK_BYTES;

use ame_engine::{EngineConfig, ReadError};
use ame_telemetry::{Snapshot, StatsRegistry, Value};
use shard::{Op, OpOutput, Request, ShardShared, ShardWorker};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;
use wal::{recover_shard, ShardBoot};

/// Configuration of a [`SecureStore`].
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Number of shards (worker threads / independent engines).
    pub shards: usize,
    /// Protected capacity **per shard** in bytes (whole 64-byte blocks);
    /// the store's total capacity is `shards * shard_bytes`.
    pub shard_bytes: u64,
    /// Bounded request-queue capacity per shard, in queue slots (a
    /// batch submission occupies one slot regardless of its size).
    pub queue_depth: usize,
    /// Maximum operations a worker coalesces into one service interval.
    pub max_batch: usize,
    /// Size threshold (bytes) at which a persistent shard's write-intent
    /// log rotates into a fresh snapshot. Only consulted by stores
    /// opened with [`SecureStore::open`]; a rotation also triggers
    /// unconditionally after any counter-group re-encryption.
    pub wal_rotate_bytes: u64,
    /// Tenant namespace this store serves. Each shard derives its key
    /// seed via [`EngineConfig::for_tenant`]`(tenant, shard)`, so two
    /// stores built from the same engine template but different tenants
    /// share **no** key material: their address spaces are
    /// independently sealed namespaces. Tenant 0 (the default) is
    /// bit-compatible with every pre-tenant deployment.
    pub tenant: usize,
    /// Engine configuration template; each shard derives an independent
    /// key seed from it via [`EngineConfig::for_tenant`].
    pub engine: EngineConfig,
}

impl Default for StoreConfig {
    fn default() -> Self {
        Self {
            shards: 4,
            shard_bytes: 1 << 20,
            queue_depth: 128,
            max_batch: 64,
            wal_rotate_bytes: 1 << 20,
            tenant: 0,
            engine: EngineConfig::default(),
        }
    }
}

/// Why a store operation failed.
///
/// Which variants an API path can produce:
///
/// | Variant | blocking `read`/`write`/`read_modify_write` | [`Session::submit`] | `submit_batch` |
/// |---|---|---|---|
/// | [`OutOfRange`](StoreError::OutOfRange) / [`Unaligned`](StoreError::Unaligned) | yes | yes | yes (inline per op) |
/// | [`Overloaded`](StoreError::Overloaded) | never (waits) | yes, queue **or** in-flight window full | never (waits) |
/// | [`ShardPoisoned`](StoreError::ShardPoisoned) | yes | yes (fast-fail at submit, or on a completion) | yes |
/// | [`Disconnected`](StoreError::Disconnected) | yes | yes | yes |
///
/// Every session fast-fail rejection — queue full, window full, or the
/// poisoned-shard early return — also increments the shard's
/// `overloads` counter ([`SecureStore::overloads`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreError {
    /// The address range falls outside the store's capacity.
    OutOfRange {
        /// Offending start address.
        addr: u64,
        /// Requested length in bytes.
        len: u64,
    },
    /// The address is not 64-byte block-aligned.
    Unaligned {
        /// Offending address.
        addr: u64,
    },
    /// The shard's bounded queue or the session's in-flight window is
    /// full (session submissions only; the blocking API waits instead).
    Overloaded {
        /// The saturated shard.
        shard: usize,
    },
    /// The shard is quarantined after a verification failure. The
    /// operation that *detected* the failure carries the underlying
    /// [`ReadError`] in `cause`; operations rejected later carry `None`.
    ShardPoisoned {
        /// The quarantined shard.
        shard: usize,
        /// The detecting failure, on the first report.
        cause: Option<ReadError>,
    },
    /// The shard's worker is gone (store shut down or worker panicked).
    Disconnected {
        /// The unreachable shard.
        shard: usize,
    },
    /// [`Session::wait_timeout`] gave up before the operation
    /// completed. The ticket is still outstanding: the operation will
    /// still execute, and a later wait can still reap it.
    Timeout,
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::OutOfRange { addr, len } => {
                write!(f, "range [{addr:#x}, +{len}) outside the store")
            }
            StoreError::Unaligned { addr } => {
                write!(f, "address {addr:#x} is not 64-byte aligned")
            }
            StoreError::Overloaded { shard } => {
                write!(f, "shard {shard} queue is full")
            }
            StoreError::ShardPoisoned {
                shard,
                cause: Some(e),
            } => write!(f, "shard {shard} quarantined: {e}"),
            StoreError::ShardPoisoned { shard, cause: None } => {
                write!(f, "shard {shard} is quarantined")
            }
            StoreError::Disconnected { shard } => {
                write!(f, "shard {shard} worker is gone")
            }
            StoreError::Timeout => write!(f, "timed out waiting for a completion"),
        }
    }
}

impl std::error::Error for StoreError {}

/// One operation of a [`SecureStore::submit_batch`] submission.
#[derive(Debug, Clone, Copy)]
pub enum StoreOp {
    /// Verified read of the block at `addr`.
    Read {
        /// Block-aligned byte address.
        addr: u64,
    },
    /// Write of the block at `addr`.
    Write {
        /// Block-aligned byte address.
        addr: u64,
        /// Block contents.
        data: [u8; BLOCK_BYTES],
    },
}

/// Successful result of one batched [`StoreOp`] or session submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreValue {
    /// The verified contents a `Read` returned.
    Data([u8; BLOCK_BYTES]),
    /// A `Write` was sealed and acknowledged.
    Written,
    /// A [`Session::submit_rmw`] completed; carries the pre-image.
    Modified([u8; BLOCK_BYTES]),
}

/// What each shard reported while shutting down.
#[derive(Debug)]
pub struct ShutdownReport {
    /// One report per shard, in shard order.
    pub shards: Vec<SealReport>,
}

impl ShutdownReport {
    /// `true` if every shard drained and re-sealed cleanly.
    #[must_use]
    pub fn all_resealed(&self) -> bool {
        self.shards.iter().all(|s| s.resealed)
    }
}

/// A sharded, concurrent secure memory service.
///
/// All operation methods take `&self` and are safe to call from many
/// threads concurrently (the store is `Sync`); each blocks its calling
/// thread until the owning shard acknowledges, which is what makes a
/// write *acknowledged*: once `write` returns `Ok`, a later `read` of
/// the same address observes it (per-shard queues are FIFO).
pub struct SecureStore {
    config: StoreConfig,
    senders: Vec<SyncSender<Request>>,
    shared: Vec<Arc<ShardShared>>,
    workers: Vec<JoinHandle<SealReport>>,
    /// The durable directory this store was opened on, if any.
    persist_dir: Option<PathBuf>,
}

impl std::fmt::Debug for SecureStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SecureStore")
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl SecureStore {
    /// Spawns the shard workers and opens the store.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero, `shard_bytes` is not a positive
    /// multiple of 64 or is past [`ame_crypto::ctr::ADDR_LIMIT`], or
    /// `queue_depth`/`max_batch` are zero.
    #[must_use]
    pub fn new(config: StoreConfig) -> Self {
        Self::boot(config, None).expect("in-memory boot performs no I/O")
    }

    /// Opens (or creates) a **durable** store rooted at `dir`.
    ///
    /// Each shard persists under `dir/shard<N>/` as a checksummed
    /// snapshot plus a write-intent log. On open, every shard is rebuilt
    /// from its snapshot, the intent log is replayed (a torn tail —
    /// a record cut short by a crash — is truncated: it was never
    /// acknowledged), and the rebuilt image is **fully re-verified**
    /// (every MAC and tree path) before the shard serves anything. Corruption anywhere — a
    /// flipped bit in the snapshot or log, or a replay that fails
    /// verification — quarantines that shard exactly like a live
    /// verification failure; healthy siblings serve normally.
    ///
    /// Every acknowledged write is durable as of its acknowledgement —
    /// against power loss, not just a process kill: the worker appends
    /// each served run's sealed post-images to the intent log as one
    /// record *and* `fdatasync`s it before the acknowledgements leave
    /// the shard, and snapshots are synced and atomically renamed
    /// (directory fsynced) before the log rotates. The price is one
    /// `fdatasync` per worker wakeup that wrote (group commit).
    ///
    /// # Errors
    ///
    /// Propagates environment-level I/O failures (directory creation,
    /// file reads). Per-shard corruption does **not** error — it
    /// quarantines the shard and the open succeeds.
    ///
    /// # Panics
    ///
    /// As [`SecureStore::new`] for invalid configuration.
    pub fn open(dir: impl AsRef<Path>, config: StoreConfig) -> io::Result<Self> {
        Self::boot(config, Some(dir.as_ref().to_path_buf()))
    }

    fn boot(config: StoreConfig, persist: Option<PathBuf>) -> io::Result<Self> {
        assert!(config.shards > 0, "need at least one shard");
        assert!(
            config.shard_bytes > 0 && config.shard_bytes.is_multiple_of(BLOCK_BYTES as u64),
            "shard capacity must be whole blocks"
        );
        assert!(
            config.shard_bytes <= ame_crypto::ctr::ADDR_LIMIT,
            "shard capacity is past the 48-bit address limit"
        );
        assert!(config.queue_depth > 0, "queues must hold at least one slot");
        assert!(config.max_batch > 0, "service batches need at least one op");
        let mut senders = Vec::with_capacity(config.shards);
        let mut shared = Vec::with_capacity(config.shards);
        let mut workers = Vec::with_capacity(config.shards);
        let mut booting = Vec::with_capacity(config.shards);
        for s in 0..config.shards {
            let (tx, rx): (SyncSender<Request>, Receiver<Request>) =
                sync_channel(config.queue_depth);
            let sh = Arc::new(ShardShared::default());
            // The reseal seed is derived past the live shard range, so it
            // is deterministic but never equal to any shard's boot seed.
            let reseal_seed = config
                .engine
                .for_tenant(config.tenant, s + config.shards)
                .seed;
            // The shard image is built on the worker thread. Every worker
            // is spawned before any boot result is awaited, so the shards
            // recover side by side and reopening costs the slowest shard,
            // not their sum; boot I/O errors come back over a one-shot
            // channel each.
            let boot_config = config.clone();
            let boot_persist = persist.clone();
            let worker_shared = Arc::clone(&sh);
            let (booted_tx, booted_rx) = sync_channel::<io::Result<()>>(1);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("ame-shard{s}"))
                    .spawn(move || {
                        let started = Instant::now();
                        let boot = match &boot_persist {
                            // A missing shard directory recovers to a
                            // fresh region with an empty log — creation
                            // and recovery are the same path, so they
                            // cannot drift apart.
                            Some(dir) => match recover_shard(&boot_config, s, dir) {
                                Ok(boot) => boot,
                                Err(e) => {
                                    let _ = booted_tx.send(Err(e));
                                    return SealReport {
                                        shard: s,
                                        resealed: false,
                                        poisoned: None,
                                    };
                                }
                            },
                            None => ShardBoot {
                                region: SecureRegion::new(
                                    boot_config.engine.for_tenant(boot_config.tenant, s),
                                    boot_config.shard_bytes,
                                ),
                                poisoned: None,
                                dead: false,
                                persist: None,
                            },
                        };
                        let recovery_ns = boot_persist
                            .as_ref()
                            .map_or(0, |_| started.elapsed().as_nanos() as u64);
                        let worker = ShardWorker::new(
                            s,
                            boot.region,
                            reseal_seed,
                            boot_config.max_batch,
                            worker_shared,
                        )
                        .with_persist(boot.persist, recovery_ns)
                        .with_boot_failure(boot.poisoned, boot.dead);
                        let _ = booted_tx.send(Ok(()));
                        worker.run(&rx)
                    })
                    .expect("spawn shard worker"),
            );
            booting.push(booted_rx);
            senders.push(tx);
            shared.push(sh);
        }
        // Collected in shard order, so of several failures the
        // lowest-indexed shard's error is the one reported.
        let failed = booting.into_iter().enumerate().find_map(|(s, booted)| {
            let died = || io::Error::other(format!("shard {s} worker died during boot"));
            booted.recv().unwrap_or_else(|_| Err(died())).err()
        });
        if let Some(e) = failed {
            // Tear the store down: closing the queues lets the workers
            // that did boot drain and exit before the error propagates.
            drop(senders);
            for worker in workers {
                let _ = worker.join();
            }
            return Err(e);
        }
        Ok(Self {
            config,
            senders,
            shared,
            workers,
            persist_dir: persist,
        })
    }

    /// The directory this store persists under, if it was opened with
    /// [`SecureStore::open`].
    #[must_use]
    pub fn persist_dir(&self) -> Option<&Path> {
        self.persist_dir.as_deref()
    }

    /// The store configuration.
    #[must_use]
    pub fn config(&self) -> &StoreConfig {
        &self.config
    }

    /// Number of shards.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.config.shards
    }

    /// Total protected capacity in bytes across all shards.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.config.shard_bytes * self.config.shards as u64
    }

    /// Maps a global block-aligned address to `(shard, local address)`.
    ///
    /// Blocks interleave round-robin: global block `b` is local block
    /// `b / N` of shard `b % N`, so hot sequential ranges stripe across
    /// every shard.
    fn locate(&self, addr: u64) -> Result<(usize, u64), StoreError> {
        if !addr.is_multiple_of(BLOCK_BYTES as u64) {
            return Err(StoreError::Unaligned { addr });
        }
        if addr >= self.total_bytes() {
            return Err(StoreError::OutOfRange {
                addr,
                len: BLOCK_BYTES as u64,
            });
        }
        let block = addr / BLOCK_BYTES as u64;
        let shard = (block % self.config.shards as u64) as usize;
        let local = (block / self.config.shards as u64) * BLOCK_BYTES as u64;
        Ok((shard, local))
    }

    /// Maps one public operation to its shard and shard-local [`Op`].
    fn route(&self, op: StoreOp) -> Result<(usize, Op), StoreError> {
        let (StoreOp::Read { addr } | StoreOp::Write { addr, .. }) = op;
        let (shard, local) = self.locate(addr)?;
        let op = match op {
            StoreOp::Read { .. } => Op::Read { local },
            StoreOp::Write { data, .. } => Op::Write { local, data },
        };
        Ok((shard, op))
    }

    /// [`route`](Self::route) for a read-modify-write of the block at `addr`.
    fn route_rmw(
        &self,
        addr: u64,
        f: impl FnOnce(&mut [u8; BLOCK_BYTES]) + Send + 'static,
    ) -> Result<(usize, Op), StoreError> {
        let (shard, local) = self.locate(addr)?;
        let f = Box::new(f);
        Ok((shard, Op::Rmw { local, f }))
    }

    /// Sends one operation to its shard and waits for its completion —
    /// the blocking API is literally a one-shot submit+wait over the
    /// same completion machinery [`Session`] pipelines: the request
    /// carries a single-slot completion channel and the caller parks on
    /// it, after waiting for a queue slot if the shard is saturated. The
    /// depth counter is incremented only after a successful send, so a
    /// non-zero [`SecureStore::queue_depth`] reading proves an operation
    /// really occupies a queue slot.
    fn roundtrip(&self, shard: usize, op: Op) -> Result<OpOutput, StoreError> {
        let (reply, response) = sync_channel(1);
        let request = Request::Op {
            op,
            seq: 0,
            enqueued: Instant::now(),
            reply,
            wake: None,
        };
        self.senders[shard]
            .send(request)
            .map_err(|_| StoreError::Disconnected { shard })?;
        self.shared[shard].depth.fetch_add(1, Ordering::Relaxed);
        response
            .recv()
            .map_err(|_| StoreError::Disconnected { shard })?
            .result
    }

    /// Instantaneous queue depth of one shard, in operations enqueued
    /// but not yet dequeued by its worker.
    ///
    /// # Panics
    ///
    /// Panics if `shard >= self.shards()`.
    #[must_use]
    pub fn queue_depth(&self, shard: usize) -> u64 {
        self.shared[shard].depth_now()
    }

    /// How many submissions shard `shard` has fast-failed without
    /// queueing: [`Session::submit`] rejections (queue full, in-flight
    /// window full, or the poisoned-shard early return).
    ///
    /// # Panics
    ///
    /// Panics if `shard >= self.shards()`.
    #[must_use]
    pub fn overloads(&self, shard: usize) -> u64 {
        self.shared[shard].overloads.load(Ordering::Relaxed)
    }

    /// Reads and verifies the 64-byte block at `addr`, waiting for queue
    /// space if the shard is saturated.
    ///
    /// # Errors
    ///
    /// [`StoreError::Unaligned`]/[`StoreError::OutOfRange`] for a bad
    /// address, [`StoreError::ShardPoisoned`] if verification fails or
    /// the shard is quarantined.
    pub fn read(&self, addr: u64) -> Result<[u8; BLOCK_BYTES], StoreError> {
        let (shard, local) = self.locate(addr)?;
        match self.roundtrip(shard, Op::Read { local })? {
            OpOutput::Read(data) => Ok(data),
            _ => unreachable!("read op replies with data"),
        }
    }

    /// Opens a pipelined completion [`Session`] with the default
    /// [`SessionConfig`]. Any number of sessions (and blocking callers)
    /// can drive the store concurrently; each session is a
    /// single-threaded handle with its own completion queue.
    #[must_use]
    pub fn session(&self) -> Session<'_> {
        self.session_with(SessionConfig::default())
    }

    /// Opens a pipelined completion [`Session`] with an explicit
    /// per-shard in-flight window.
    ///
    /// # Panics
    ///
    /// Panics if `config.in_flight_window` is zero.
    #[must_use]
    pub fn session_with(&self, config: SessionConfig) -> Session<'_> {
        Session::new(self, config)
    }

    /// Writes the 64-byte block at `addr`, waiting for queue space if
    /// the shard is saturated. Returns once the shard has sealed the
    /// block (the write is then *acknowledged*).
    ///
    /// # Errors
    ///
    /// As [`SecureStore::read`] (a quarantined shard rejects writes too:
    /// no new data is entrusted to it).
    pub fn write(&self, addr: u64, data: &[u8; BLOCK_BYTES]) -> Result<(), StoreError> {
        let (shard, local) = self.locate(addr)?;
        self.roundtrip(shard, Op::Write { local, data: *data })
            .map(|_| ())
    }

    /// Atomically (with respect to all other store operations on the
    /// block) reads, verifies, modifies, and re-seals the block at
    /// `addr`. Returns the pre-modification contents. The closure runs
    /// on the shard's worker thread, so every read-modify-write to a
    /// block is serialized by its owning shard — no torn updates.
    ///
    /// # Errors
    ///
    /// As [`SecureStore::read`].
    pub fn read_modify_write(
        &self,
        addr: u64,
        f: impl FnOnce(&mut [u8; BLOCK_BYTES]) + Send + 'static,
    ) -> Result<[u8; BLOCK_BYTES], StoreError> {
        let (shard, op) = self.route_rmw(addr, f)?;
        match self.roundtrip(shard, op)? {
            OpOutput::Modified { old } => Ok(old),
            _ => unreachable!("rmw op replies with the pre-image"),
        }
    }

    /// Submits a batch of reads and writes, coalescing same-shard
    /// operations into a single queue slot per shard, and returns one
    /// result per operation in submission order.
    ///
    /// Waits for queue space per shard (batches are the throughput path;
    /// use a [`Session`] for latency-sensitive fast-fail traffic). Operations
    /// on different shards execute concurrently; operations on the same
    /// shard execute in submission order.
    #[must_use]
    pub fn submit_batch(&self, ops: &[StoreOp]) -> Vec<Result<StoreValue, StoreError>> {
        let mut results: Vec<Option<Result<StoreValue, StoreError>>> = vec![None; ops.len()];
        let mut shard_ops: Vec<Vec<Op>> = (0..self.config.shards).map(|_| Vec::new()).collect();
        let mut shard_idx: Vec<Vec<usize>> = (0..self.config.shards).map(|_| Vec::new()).collect();
        for (i, &op) in ops.iter().enumerate() {
            match self.route(op) {
                Err(e) => results[i] = Some(Err(e)),
                Ok((shard, op)) => {
                    shard_ops[shard].push(op);
                    shard_idx[shard].push(i);
                }
            }
        }
        // Send every shard its sub-batch first, then collect replies, so
        // the shards service their portions concurrently.
        let mut pending = Vec::new();
        for (shard, ops) in shard_ops.into_iter().enumerate() {
            if ops.is_empty() {
                continue;
            }
            let indices = std::mem::take(&mut shard_idx[shard]);
            let (reply, response) = sync_channel(1);
            let count = ops.len() as i64;
            if self.senders[shard]
                .send(Request::Batch {
                    ops,
                    enqueued: Instant::now(),
                    reply,
                })
                .is_err()
            {
                for i in indices {
                    results[i] = Some(Err(StoreError::Disconnected { shard }));
                }
                continue;
            }
            self.shared[shard].depth.fetch_add(count, Ordering::Relaxed);
            pending.push((shard, indices, response));
        }
        for (shard, indices, response) in pending {
            match response.recv() {
                Ok(replies) => {
                    for (i, reply) in indices.into_iter().zip(replies) {
                        results[i] = Some(reply.map(session::to_value));
                    }
                }
                Err(_) => {
                    for i in indices {
                        results[i] = Some(Err(StoreError::Disconnected { shard }));
                    }
                }
            }
        }
        results
            .into_iter()
            .map(|r| r.expect("every op resolved"))
            .collect()
    }

    /// Test surface: kills every shard worker as a power cut would — no
    /// drain, no re-seal, no final checkpoint. The durable directory is
    /// left exactly as the last acknowledged operation put it, so a
    /// following [`SecureStore::open`] exercises real crash recovery
    /// in-process.
    pub fn simulate_crash(self) {
        for tx in &self.senders {
            let (ack, done) = sync_channel(1);
            if tx.send(Request::Crash { ack }).is_ok() {
                let _ = done.recv();
            }
        }
        drop(self.senders);
        for worker in self.workers {
            let _ = worker.join();
        }
    }

    /// Flips one stored ciphertext bit of the block at `addr` — the
    /// attack/fault-injection surface, routed through the owning shard's
    /// queue so it is ordered with respect to surrounding operations.
    ///
    /// # Errors
    ///
    /// Address validation errors, or [`StoreError::Disconnected`].
    pub fn tamper_data_bit(&self, addr: u64, bit: u32) -> Result<(), StoreError> {
        self.tamper(addr, bit, false)
    }

    /// Flips one stored ECC side-band bit (`0..64`) of the block at
    /// `addr` — corrupting the in-band MAC / parity metadata instead of
    /// the ciphertext. Same ordering guarantees as
    /// [`tamper_data_bit`](Self::tamper_data_bit).
    ///
    /// # Errors
    ///
    /// Address validation errors, or [`StoreError::Disconnected`].
    pub fn tamper_sideband_bit(&self, addr: u64, bit: u32) -> Result<(), StoreError> {
        self.tamper(addr, bit, true)
    }

    fn tamper(&self, addr: u64, bit: u32, sideband: bool) -> Result<(), StoreError> {
        let (shard, local) = self.locate(addr)?;
        let (ack, done) = sync_channel(1);
        self.senders[shard]
            .send(Request::Tamper {
                local,
                bit,
                sideband,
                ack,
            })
            .map_err(|_| StoreError::Disconnected { shard })?;
        done.recv().map_err(|_| StoreError::Disconnected { shard })
    }

    /// Collects every shard's telemetry into `registry` under
    /// `<scope>/shard<N>/...`: operation counters, `poisoned` gauge,
    /// `batch_size`/`service_latency_ns`/`queue_wait_ns`/`fused_writes`/
    /// `fused_reads`/`counter_fetch_amortization`/
    /// `queue_depth_seen` histograms, the instantaneous `queue_depth`
    /// gauge, the `overloads` and `wake_rings` counters, and the shard
    /// engine's own metrics under
    /// `<scope>/shard<N>/engine/...`.
    ///
    /// Process-wide crypto-backend state (which implementation is
    /// serving, per-backend operation counts) is recorded once under
    /// `<scope>/crypto/...` — the counters are global across shards, so
    /// per-shard attribution would double-count them.
    pub fn collect(&self, registry: &mut StatsRegistry, scope: &str) {
        registry.set_gauge(
            &format!("{scope}/crypto/backend_accelerated"),
            u64::from(ame_crypto::backend::active().is_accelerated()) as f64,
        );
        // Tier index contract: 0 = portable, 1 = accelerated, 2 = wide.
        registry.set_gauge(
            &format!("{scope}/crypto/backend_tier"),
            ame_crypto::backend::active().index() as f64,
        );
        for backend in ame_crypto::backend::Backend::ALL {
            let ops = ame_crypto::backend::ops(backend);
            let prefix = format!("{scope}/crypto/{backend}");
            registry.set_counter(&format!("{prefix}/keystream_calls"), ops.keystream_calls);
            registry.set_counter(&format!("{prefix}/keystream_blocks"), ops.keystream_blocks);
            registry.set_counter(&format!("{prefix}/batched_calls"), ops.batched_calls);
            registry.set_counter(&format!("{prefix}/mac_tags"), ops.mac_tags);
            registry.set_counter(&format!("{prefix}/mac_batch_calls"), ops.mac_batch_calls);
            registry.set_counter(&format!("{prefix}/mac_batch_tags"), ops.mac_batch_tags);
        }
        for shard in 0..self.config.shards {
            let (reply, response) = sync_channel(1);
            if self.senders[shard]
                .send(Request::Collect { reply })
                .is_err()
            {
                continue;
            }
            let Ok(report) = response.recv() else {
                continue;
            };
            let prefix = format!("{scope}/shard{shard}");
            registry.collect(&prefix, &report.stats);
            registry.set_gauge(
                &format!("{prefix}/queue_depth"),
                self.shared[shard].depth_now() as f64,
            );
            registry.set_counter(
                &format!("{prefix}/overloads"),
                self.shared[shard].overloads.load(Ordering::Relaxed),
            );
            registry.set_counter(
                &format!("{prefix}/wake_rings"),
                self.shared[shard].wake_rings.load(Ordering::Relaxed),
            );
            for (path, value) in report.engine.iter() {
                let full = format!("{prefix}/engine/{path}");
                match value {
                    Value::Counter(v) => registry.set_counter(&full, *v),
                    Value::Gauge(v) => registry.set_gauge(&full, *v),
                    Value::Histogram(h) => registry.record_histogram(&full, h),
                }
            }
        }
    }

    /// A snapshot of all shard telemetry under the `store/` scope.
    #[must_use]
    pub fn telemetry(&self) -> Snapshot {
        let mut registry = StatsRegistry::new();
        self.collect(&mut registry, "store");
        registry.snapshot()
    }

    /// Gracefully shuts the store down: closes every queue, lets each
    /// worker drain its remaining requests, re-seals (re-keys) every
    /// healthy shard, and reports per-shard outcomes. Poisoned shards
    /// are *not* re-sealed — quarantined state must not be laundered
    /// under fresh keys.
    #[must_use]
    pub fn shutdown(self) -> ShutdownReport {
        drop(self.senders);
        let shards = self
            .workers
            .into_iter()
            .map(|w| w.join().expect("shard worker panicked"))
            .collect();
        ShutdownReport { shards }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ame_prng::StdRng;

    fn small_store(shards: usize) -> SecureStore {
        SecureStore::new(StoreConfig {
            shards,
            shard_bytes: 1 << 16,
            queue_depth: 8,
            max_batch: 8,
            ..StoreConfig::default()
        })
    }

    #[test]
    fn roundtrip_across_shards() {
        let store = small_store(4);
        // Consecutive blocks land on different shards; all read back.
        for b in 0..64u64 {
            store.write(b * 64, &[b as u8; 64]).unwrap();
        }
        for b in 0..64u64 {
            assert_eq!(store.read(b * 64).unwrap(), [b as u8; 64], "block {b}");
        }
        // Unwritten blocks read zero.
        assert_eq!(store.read(64 * 128).unwrap(), [0u8; 64]);
        let report = store.shutdown();
        assert_eq!(report.shards.len(), 4);
        assert!(report.all_resealed());
    }

    #[test]
    fn address_validation() {
        let store = small_store(2);
        assert_eq!(store.read(7), Err(StoreError::Unaligned { addr: 7 }));
        let end = store.total_bytes();
        assert!(matches!(
            store.write(end, &[0; 64]),
            Err(StoreError::OutOfRange { .. })
        ));
        // The last block is in range.
        assert!(store.write(end - 64, &[1; 64]).is_ok());
    }

    #[test]
    fn rmw_returns_preimage_and_applies() {
        let store = small_store(2);
        store.write(0, &[5; 64]).unwrap();
        let old = store
            .read_modify_write(0, |block| {
                block[0] = block[0].wrapping_add(1);
            })
            .unwrap();
        assert_eq!(old, [5; 64]);
        let now = store.read(0).unwrap();
        assert_eq!(now[0], 6);
        assert_eq!(&now[1..], &[5; 63][..]);
    }

    #[test]
    fn batch_scatters_and_gathers_in_order() {
        let store = small_store(4);
        let mut rng = StdRng::seed_from_u64(11);
        let mut expected = Vec::new();
        let mut ops = Vec::new();
        for i in 0..40u64 {
            let addr = rng.gen_range(0..256u64) * 64;
            if i % 3 == 0 {
                let data = [i as u8; 64];
                ops.push(StoreOp::Write { addr, data });
                expected.push((addr, None));
            } else {
                ops.push(StoreOp::Read { addr });
                expected.push((addr, Some(())));
            }
        }
        let results = store.submit_batch(&ops);
        assert_eq!(results.len(), ops.len());
        for (result, (_, is_read)) in results.iter().zip(&expected) {
            match (result, is_read) {
                (Ok(StoreValue::Written), None) | (Ok(StoreValue::Data(_)), Some(())) => {}
                other => panic!("mismatched batch result: {other:?}"),
            }
        }
        // Batched writes are acknowledged: direct reads observe them.
        let mut last_write: std::collections::HashMap<u64, u8> = std::collections::HashMap::new();
        for op in &ops {
            if let StoreOp::Write { addr, data } = op {
                last_write.insert(*addr, data[0]);
            }
        }
        for (addr, byte) in last_write {
            assert_eq!(store.read(addr).unwrap()[0], byte);
        }
    }

    #[test]
    fn batch_reports_bad_addresses_inline() {
        let store = small_store(2);
        let results = store.submit_batch(&[
            StoreOp::Read { addr: 3 },
            StoreOp::Write {
                addr: 0,
                data: [1; 64],
            },
            StoreOp::Read {
                addr: store.total_bytes(),
            },
        ]);
        assert_eq!(results[0], Err(StoreError::Unaligned { addr: 3 }));
        assert_eq!(results[1], Ok(StoreValue::Written));
        assert!(matches!(results[2], Err(StoreError::OutOfRange { .. })));
    }

    #[test]
    fn poisoned_shard_rejects_and_reports_cause() {
        let store = small_store(1);
        store.write(0, &[1; 64]).unwrap();
        // Three flips across words defeat the 2-flip correction budget.
        for bit in [0u32, 70, 140] {
            store.tamper_data_bit(0, bit).unwrap();
        }
        let err = store.read(0).unwrap_err();
        assert!(
            matches!(
                err,
                StoreError::ShardPoisoned {
                    shard: 0,
                    cause: Some(_)
                }
            ),
            "detecting op carries the cause, got {err:?}"
        );
        // Later operations (reads *and* writes) are rejected without a cause.
        assert_eq!(
            store.read(64),
            Err(StoreError::ShardPoisoned {
                shard: 0,
                cause: None
            })
        );
        assert_eq!(
            store.write(128, &[2; 64]),
            Err(StoreError::ShardPoisoned {
                shard: 0,
                cause: None
            })
        );
        let report = store.shutdown();
        assert!(report.shards[0].poisoned.is_some());
        assert!(!report.shards[0].resealed, "poisoned shards stay sealed");
    }

    #[test]
    fn try_write_fast_fails_when_queue_full() {
        use std::sync::mpsc;
        let store = Arc::new(SecureStore::new(StoreConfig {
            shards: 1,
            shard_bytes: 1 << 16,
            queue_depth: 1,
            max_batch: 1,
            ..StoreConfig::default()
        }));
        // Jam the worker inside an RMW closure so the queue backs up. The
        // closure signals once the worker is inside it, so the sequencing
        // below is deterministic, not timing-dependent.
        let (started_tx, started_rx) = mpsc::sync_channel::<()>(1);
        let (gate_tx, gate_rx) = mpsc::sync_channel::<()>(1);
        let jammed = Arc::clone(&store);
        let jam = std::thread::spawn(move || {
            jammed
                .read_modify_write(0, move |_| {
                    let _ = started_tx.send(());
                    let _ = gate_rx.recv();
                })
                .unwrap();
        });
        started_rx.recv().unwrap(); // worker is jammed, queue is empty
                                    // Fill the single queue slot with a blocking writer, then wait for
                                    // its send to land (depth is incremented only after a successful
                                    // send, and the jammed worker cannot dequeue it).
        let filler_store = Arc::clone(&store);
        let filler = std::thread::spawn(move || {
            filler_store.write(64, &[1; 64]).unwrap();
        });
        while store.queue_depth(0) < 1 {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        // The queue is provably full: the fast-fail path must reject —
        // as a queue bounce, not a window bounce (the window is open).
        let mut session = store.session_with(SessionConfig {
            in_flight_window: 2,
        });
        let data = [2; 64];
        assert_eq!(
            session.submit(StoreOp::Write { addr: 128, data }),
            Err(StoreError::Overloaded { shard: 0 })
        );
        assert_eq!(session.stats().window_rejections, 0);
        assert_eq!(store.overloads(0), 1);
        drop(session);
        gate_tx.send(()).unwrap();
        jam.join().unwrap();
        filler.join().unwrap();
        let snap = Arc::try_unwrap(store)
            .map(|s| {
                let snap = s.telemetry();
                let _ = s.shutdown();
                snap
            })
            .unwrap_or_else(|_| panic!("store still shared"));
        assert!(
            snap.counter("store/shard0/overloads").unwrap_or(0) >= 1,
            "overloads are counted"
        );
    }

    #[test]
    fn telemetry_reports_per_shard_scopes() {
        let store = small_store(2);
        for b in 0..32u64 {
            store.write(b * 64, &[1; 64]).unwrap();
        }
        for b in 0..32u64 {
            let _ = store.read(b * 64).unwrap();
        }
        let _ = store
            .read_modify_write(0, |block| {
                block[1] = 1;
            })
            .unwrap();
        let snap = store.telemetry();
        // Both shards served half the interleaved traffic.
        assert_eq!(snap.counter("store/shard0/reads"), Some(16));
        assert_eq!(snap.counter("store/shard1/reads"), Some(16));
        assert_eq!(snap.counter("store/shard0/rmws"), Some(1));
        assert_eq!(snap.counter("store/shard1/rmws"), Some(0));
        for shard in 0..2 {
            let p = |name: &str| format!("store/shard{shard}/{name}");
            assert!(snap.histogram(&p("service_latency_ns")).unwrap().count() > 0);
            assert!(snap.histogram(&p("batch_size")).unwrap().count() > 0);
            assert!(snap.histogram(&p("queue_depth_seen")).is_some());
            assert!(snap.gauge(&p("queue_depth")).is_some());
            assert_eq!(snap.gauge(&p("poisoned")), Some(0.0));
            // The shard's engine telemetry is nested underneath.
            assert!(snap.counter(&p("engine/reads")).unwrap() >= 16);
        }
        // Process-wide crypto-backend telemetry appears once, not per
        // shard, and the active backend has served this test's traffic.
        assert!(snap.gauge("store/crypto/backend_accelerated").is_some());
        let active = ame_crypto::backend::active();
        // The backend tier gauge mirrors the process-wide active tier.
        assert_eq!(
            snap.gauge("store/crypto/backend_tier"),
            Some(active.index() as f64)
        );
        assert!(
            snap.counter(&format!("store/crypto/{active}/keystream_calls"))
                .unwrap()
                > 0
        );
        assert!(
            snap.counter(&format!("store/crypto/{active}/mac_tags"))
                .unwrap()
                > 0
        );
        // The fused read/write paths issue multi-message MAC batches;
        // the per-backend batched-tag counters must surface them.
        assert!(
            snap.counter(&format!("store/crypto/{active}/mac_batch_calls"))
                .unwrap()
                > 0
        );
        assert!(
            snap.counter(&format!("store/crypto/{active}/mac_batch_tags"))
                .unwrap()
                > 0
        );
        let _ = store.shutdown();
    }

    #[test]
    fn store_is_sync_and_send() {
        fn assert_sync<T: Sync + Send>() {}
        assert_sync::<SecureStore>();
    }

    #[test]
    fn shards_are_independently_keyed() {
        // Same plaintext at the same *local* offset of two shards must
        // produce different ciphertext (independent keys). Observe via
        // the public surface: tampering identical bits poisons only the
        // tampered shard.
        let store = small_store(2);
        store.write(0, &[9; 64]).unwrap(); // shard 0, local 0
        store.write(64, &[9; 64]).unwrap(); // shard 1, local 0
        for bit in [1u32, 77, 200] {
            store.tamper_data_bit(0, bit).unwrap();
        }
        assert!(store.read(0).is_err());
        assert_eq!(store.read(64).unwrap(), [9; 64], "shard 1 unaffected");
        let _ = store.shutdown();
    }
}
