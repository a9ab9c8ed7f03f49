//! The per-shard worker: one thread, one engine, one request queue.
//!
//! A shard owns a [`SecureRegion`] (and therefore a whole
//! [`MemoryEncryptionEngine`](ame_engine::MemoryEncryptionEngine) with its
//! own keys, counters, and integrity tree) and services requests from a
//! bounded `mpsc` queue. The worker drains up to `max_batch` queued
//! requests per wakeup and serves them as one *service batch*: runs of
//! consecutive full-block writes — regardless of whether they arrived as
//! individual submissions or [`submit_batch`] slots — are fused into a
//! single engine-level [`write_blocks`] call, so their seal keystreams
//! come from one pipelined `keystream_batch` and channel/scheduling costs
//! amortize over the whole wakeup. Reads (and the read half of RMWs) fuse
//! symmetrically into one engine-level [`read_blocks`] call: the run pays
//! one verified counter fetch per distinct metadata block instead of one
//! per block, and decrypts from one pipelined keystream batch, with the
//! engine falling back to per-block reads on any anomaly so failure
//! semantics stay bit-identical to sequential service. That is the one
//! way a data operation is served — a lone operation is a run of one —
//! and outside a run the worker only ever *rejects*: an operation on a
//! quarantined shard or an address outside the region. At most one fusion
//! buffer is ever non-empty — parking a write flushes pending reads and
//! vice versa — and a read parking behind a pending RMW to the *same*
//! block flushes first, so fusion never changes what any operation
//! observes. Every operation records its queue wait (enqueue → dequeue)
//! and its service latency individually (a fused run charges each op its
//! `elapsed/n` share), so deep pipelined windows show up in the
//! histograms as queue time, not inflated service time.
//!
//! Every request carries a completion route: the blocking front-end
//! waits on a one-shot channel, a [`Session`](crate::Session) points many
//! submissions at its shared completion queue. The worker does not care
//! which — it executes in FIFO order and emits completions in execution
//! order, which is what gives sessions their per-shard ordering
//! guarantee.
//!
//! A verification failure (MAC, SEC-DED, or tree) **poisons** the shard:
//! the failing operation reports the underlying [`ReadError`] and every
//! later operation fast-fails with
//! [`StoreError::ShardPoisoned`](crate::StoreError::ShardPoisoned) —
//! writes included, so no new data is entrusted to a compromised shard.
//! Other shards are unaffected.
//!
//! [`submit_batch`]: crate::SecureStore::submit_batch
//! [`write_blocks`]: ame_engine::region::SecureRegion::write_blocks
//! [`read_blocks`]: ame_engine::region::SecureRegion::read_blocks

use ame_engine::region::SecureRegion;
use ame_engine::{ReadError, BLOCK_BYTES};
use ame_telemetry::{Histogram, MetricSink, Metrics, Snapshot, StatsRegistry};
use std::io;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::Arc;
use std::time::Instant;

use crate::wake::WakeFd;
use crate::wal::{put_write, put_writes_head, write_snapshot, ShardPersist, ShardWal};
use crate::StoreError;

/// The mutator a read-modify-write runs on the shard worker's thread.
pub(crate) type RmwFn = Box<dyn FnOnce(&mut [u8; BLOCK_BYTES]) + Send>;

/// One operation, addressed by *local* shard byte offset.
pub(crate) enum Op {
    /// Verified block read.
    Read { local: u64 },
    /// Block write (full-block seal, no read needed).
    Write { local: u64, data: [u8; BLOCK_BYTES] },
    /// Verified read-modify-write; replies with the pre-image.
    Rmw { local: u64, f: RmwFn },
}

/// Successful result of an [`Op`].
pub(crate) enum OpOutput {
    Read([u8; BLOCK_BYTES]),
    Written,
    Modified { old: [u8; BLOCK_BYTES] },
}

pub(crate) type OpReply = Result<OpOutput, StoreError>;

/// One in-progress `submit_batch` reply: the route back to the caller
/// and the per-op results, filled in as the wakeup executes (writes may
/// complete out of request order via fusion, never out of effect order).
type BatchSlot = (SyncSender<Vec<OpReply>>, Vec<Option<OpReply>>);

/// What a worker sends back when one submitted operation finishes.
///
/// The blocking front-end receives exactly one of these on a one-shot
/// channel; a [`Session`](crate::Session) receives them interleaved on
/// its completion queue and uses `seq` to resolve tickets. The worker
/// emits completions in execution order, which (FIFO queue) is per-shard
/// submission order.
pub(crate) struct Completion {
    /// The submitter's sequence number (0 for one-shot roundtrips).
    pub seq: u64,
    /// The shard that served the operation.
    pub shard: usize,
    /// The operation's outcome.
    pub result: OpReply,
    /// Time the request spent enqueued before the worker dequeued it.
    pub queue_ns: u64,
    /// Time the worker spent actually serving the operation (a fused
    /// write reports its share of the fused engine call).
    pub service_ns: u64,
}

/// A message on a shard's request queue.
pub(crate) enum Request {
    Op {
        op: Op,
        /// Submitter-chosen completion tag (ticket id; 0 for one-shots).
        seq: u64,
        /// When the request was enqueued, for queue-wait accounting.
        enqueued: Instant,
        reply: SyncSender<Completion>,
        /// Kernel-visible wakeup rung once the wakeup that served the
        /// request has sent all its completions, so an event-driven
        /// reaper blocked in `epoll_wait` learns the in-memory completion
        /// queue went non-empty. `None` for blocking submitters (they
        /// wait on the channel itself).
        wake: Option<Arc<WakeFd>>,
    },
    Batch {
        ops: Vec<Op>,
        /// When the batch was enqueued (one timestamp, charged per op).
        enqueued: Instant,
        reply: SyncSender<Vec<OpReply>>,
    },
    Collect {
        reply: SyncSender<ShardReport>,
    },
    /// Test/attack surface: flip one stored ciphertext bit (or one ECC
    /// side-band bit when `sideband` is set).
    Tamper {
        local: u64,
        bit: u32,
        sideband: bool,
        ack: SyncSender<()>,
    },
    /// Test surface: die like a power cut — no drain, no re-seal, no
    /// checkpoint; the on-disk snapshot + log are left exactly as the
    /// last acknowledged operation put them.
    Crash {
        ack: SyncSender<()>,
    },
}

/// State shared between the front-end and one worker without going
/// through the queue: the instantaneous queue depth (in operations), the
/// count of fast-fail rejections, and the quarantine flag (so fast-fail
/// paths can reject without burning a queue slot).
///
/// The depth is signed: the front-end increments *after* a successful
/// send (so a non-zero reading proves an operation really is enqueued)
/// while the worker decrements at dequeue, and the two can interleave
/// such that the worker transiently wins the race. Readers clamp at 0.
#[derive(Debug, Default)]
pub(crate) struct ShardShared {
    /// Operations enqueued but not yet dequeued by the worker.
    pub depth: AtomicI64,
    /// Fast-fail rejections: session submissions bounced with
    /// `Overloaded` or the poisoned-shard early return.
    pub overloads: AtomicU64,
    /// Set (never cleared) by the worker when the shard is quarantined.
    pub poisoned: AtomicBool,
    /// Session eventfd rings: one per wake-enabled session per service
    /// wakeup that sent it at least one completion.
    pub wake_rings: AtomicU64,
}

impl ShardShared {
    /// Current queue depth in operations, clamped at zero.
    pub fn depth_now(&self) -> u64 {
        self.depth.load(Ordering::Relaxed).max(0) as u64
    }
}

/// Per-shard service statistics, reported under `store/shard<N>/`.
#[derive(Debug, Clone, Default)]
pub struct ShardStats {
    /// Verified block reads served.
    pub reads: u64,
    /// Block writes served.
    pub writes: u64,
    /// Read-modify-writes served.
    pub rmws: u64,
    /// Service intervals (wakeups that served at least one operation).
    pub batches: u64,
    /// Verification failures that poisoned the shard.
    pub integrity_failures: u64,
    /// Operations rejected because the shard was already poisoned.
    pub rejected_poisoned: u64,
    /// Injected tamper events (test surface).
    pub tampers: u64,
    /// Whether the shard is quarantined.
    pub poisoned: bool,
    /// Write-intent records appended to the shard's log.
    pub wal_records: u64,
    /// Bytes appended to the shard's write-intent log.
    pub wal_bytes: u64,
    /// Snapshot rotations (log truncated into a fresh snapshot).
    pub checkpoints: u64,
    /// Bytes of sealed image written by those rotations.
    pub snapshot_bytes: u64,
    /// Wall time of each rotation in nanoseconds — freeze, durable
    /// snapshot write and log replacement — all of it on the worker,
    /// with the shard's queue waiting.
    pub checkpoint_ns: Histogram,
    /// Wall time of this shard's recovery at boot in nanoseconds: thaw,
    /// log replay, verification sweep and the fresh checkpoint.
    pub recovery_ns: u64,
    /// Explicit `fdatasync` calls on the write-intent log (group-commit
    /// flushes; rotations sync separately).
    pub wal_syncs: u64,
    /// Group commits: syncs that made two or more independently
    /// acknowledged intent records durable at once — the fsyncs the
    /// coalescing saved are `wal_records - wal_syncs`.
    pub wal_group_commits: u64,
    /// Operations coalesced per service interval (log₂ buckets).
    pub batch_size: Histogram,
    /// Per-operation service latency in nanoseconds (log₂ buckets). A
    /// fused write run is charged per op as its share of the engine
    /// call, so batch depth shows up as queue wait, not service time.
    pub service_latency_ns: Histogram,
    /// Per-operation queue wait (enqueue → dequeue) in nanoseconds; each
    /// op of a batch slot records the slot's wait individually.
    pub queue_wait_ns: Histogram,
    /// Consecutive writes fused into each engine `write_blocks` call.
    pub fused_writes: Histogram,
    /// Reads (and RMW read halves) fused into each engine `read_blocks`
    /// call.
    pub fused_reads: Histogram,
    /// Blocks verified per counter fetch in each successful fused read
    /// run (`run length / distinct metadata blocks fetched`) — the
    /// amortization the batch bought; 1 means no sharing.
    pub counter_fetch_amortization: Histogram,
    /// Queue depth observed at each service interval (log₂ buckets).
    pub queue_depth_seen: Histogram,
}

impl Metrics for ShardStats {
    fn record(&self, sink: &mut dyn MetricSink) {
        sink.counter("reads", self.reads);
        sink.counter("writes", self.writes);
        sink.counter("rmws", self.rmws);
        sink.counter("batches", self.batches);
        sink.counter("integrity_failures", self.integrity_failures);
        sink.counter("rejected_poisoned", self.rejected_poisoned);
        sink.counter("tampers", self.tampers);
        sink.gauge("poisoned", if self.poisoned { 1.0 } else { 0.0 });
        sink.counter("wal_records", self.wal_records);
        sink.counter("wal_bytes", self.wal_bytes);
        sink.counter("checkpoints", self.checkpoints);
        sink.counter("snapshot_bytes", self.snapshot_bytes);
        sink.histogram("checkpoint_ns", &self.checkpoint_ns);
        sink.gauge("recovery_ns", self.recovery_ns as f64);
        sink.counter("wal_syncs", self.wal_syncs);
        sink.counter("wal_group_commits", self.wal_group_commits);
        sink.histogram("batch_size", &self.batch_size);
        sink.histogram("service_latency_ns", &self.service_latency_ns);
        sink.histogram("queue_wait_ns", &self.queue_wait_ns);
        sink.histogram("fused_writes", &self.fused_writes);
        sink.histogram("fused_reads", &self.fused_reads);
        sink.histogram(
            "counter_fetch_amortization",
            &self.counter_fetch_amortization,
        );
        sink.histogram("queue_depth_seen", &self.queue_depth_seen);
    }
}

/// A shard's reply to a telemetry collection request.
pub(crate) struct ShardReport {
    pub stats: ShardStats,
    /// The shard engine's own telemetry, scoped for `<shard>/engine/`.
    pub engine: Snapshot,
}

/// What a shard reports when the store shuts down.
#[derive(Debug)]
pub struct SealReport {
    /// Shard index.
    pub shard: usize,
    /// `true` if the drained shard was re-sealed (re-keyed) cleanly.
    pub resealed: bool,
    /// The verification failure that quarantined the shard, if any.
    pub poisoned: Option<ReadError>,
}

/// Where a fused operation's result goes once the engine batch lands.
enum Dest {
    /// An individual submission: completion sent directly (volatile
    /// shards) or parked in the group-commit buffer until the covering
    /// log sync lands (persistent shards).
    Single {
        seq: u64,
        reply: SyncSender<Completion>,
        wake: Option<Arc<WakeFd>>,
    },
    /// Slot `index` of wakeup-batch reply accumulator `slot`.
    Batch { slot: usize, index: usize },
}

/// A completion the worker has computed but must not release yet: its
/// write-intent record sits in the OS page cache awaiting the wakeup's
/// shared `fdatasync`. Acks only leave the worker once the sync covers
/// them (group commit); a sync failure converts the held `Ok`s to the
/// quarantine error instead of acknowledging undurable state.
struct DeferredCompletion {
    reply: SyncSender<Completion>,
    completion: Completion,
    wake: Option<Arc<WakeFd>>,
}

/// One write parked in the fusion buffer awaiting the batched seal.
struct PendingWrite {
    local: u64,
    data: [u8; BLOCK_BYTES],
    queue_ns: u64,
    dest: Dest,
}

/// One read (or the read half of an RMW) parked in the fusion buffer
/// awaiting the batched verify.
struct PendingRead {
    local: u64,
    queue_ns: u64,
    dest: Dest,
    /// `Some` for an RMW: applied to the verified pre-image, and the
    /// result written back when the run flushes.
    rmw: Option<RmwFn>,
}

/// The error of a shard-local block address outside the region.
fn out_of_range(local: u64) -> StoreError {
    StoreError::OutOfRange {
        addr: local,
        len: BLOCK_BYTES as u64,
    }
}

pub(crate) struct ShardWorker {
    shard: usize,
    region: SecureRegion,
    /// Seed the shard re-keys to on graceful shutdown.
    reseal_seed: u64,
    max_batch: usize,
    shared: Arc<ShardShared>,
    poisoned: Option<ReadError>,
    /// Quarantined without a verification error: corrupt durable state
    /// at boot, or a live persistence I/O failure (a write whose intent
    /// cannot be logged must not be acknowledged).
    persist_dead: bool,
    /// Simulated power cut: stop without draining or checkpointing.
    crashed: bool,
    /// Durable storage plane, when the store was opened on a directory.
    persist: Option<ShardPersist>,
    /// Completions held back for the group commit: computed, their
    /// intent appended (unsynced), awaiting the shared `fdatasync`.
    /// Released in FIFO order by [`flush_deferred`](Self::flush_deferred)
    /// — reads defer too on persistent shards, preserving the per-shard
    /// completion-order guarantee sessions rely on.
    deferred: Vec<DeferredCompletion>,
    /// Intent records appended since the last sync. Non-zero means the
    /// log's tail is not yet durable.
    wal_unsynced: u64,
    /// Session wakeups owed for completions sent during the current
    /// service wakeup, one entry per eventfd; rung by
    /// [`ring_wakes`](Self::ring_wakes) once the wakeup is served.
    wakes: Vec<Arc<WakeFd>>,
    stats: ShardStats,
}

impl ShardWorker {
    pub(crate) fn new(
        shard: usize,
        region: SecureRegion,
        reseal_seed: u64,
        max_batch: usize,
        shared: Arc<ShardShared>,
    ) -> Self {
        Self {
            shard,
            region,
            reseal_seed,
            max_batch,
            shared,
            poisoned: None,
            persist_dead: false,
            crashed: false,
            persist: None,
            deferred: Vec::new(),
            wal_unsynced: 0,
            wakes: Vec::new(),
            stats: ShardStats::default(),
        }
    }

    /// Attaches the durable storage plane (recovered or fresh) and
    /// records how long recovering it took.
    pub(crate) fn with_persist(mut self, persist: Option<ShardPersist>, recovery_ns: u64) -> Self {
        self.persist = persist;
        self.stats.recovery_ns = recovery_ns;
        self
    }

    /// Boots the worker already quarantined (recovery found corrupt
    /// state, or the replayed image failed its verification sweep).
    pub(crate) fn with_boot_failure(mut self, poisoned: Option<ReadError>, dead: bool) -> Self {
        if poisoned.is_some() || dead {
            self.shared.poisoned.store(true, Ordering::Relaxed);
        }
        if poisoned.is_some() {
            self.stats.integrity_failures += 1;
        }
        self.poisoned = poisoned;
        self.persist_dead = dead;
        self
    }

    /// `false` once the shard is quarantined for any reason.
    fn healthy(&self) -> bool {
        self.poisoned.is_none() && !self.persist_dead
    }

    /// The worker loop: runs until every sender is dropped, then drains
    /// what is left in the queue and re-seals the shard.
    pub(crate) fn run(mut self, rx: &Receiver<Request>) -> SealReport {
        loop {
            // Block for the first request, then opportunistically drain
            // up to `max_batch` more that arrived in the meantime — this
            // is where same-shard coalescing happens.
            let Ok(first) = rx.recv() else { break };
            let mut requests = vec![first];
            while requests.len() < self.max_batch {
                match rx.try_recv() {
                    Ok(r) => requests.push(r),
                    Err(_) => break,
                }
            }
            self.service_wakeup(requests);
            // After every send of the wakeup, on every exit path: the
            // completions a `Crash` let out still wake their reactor.
            self.ring_wakes();
            if self.crashed {
                // Simulated power cut: abandon everything, leave the
                // durable artifacts exactly as the last acknowledged
                // operation left them.
                return SealReport {
                    shard: self.shard,
                    resealed: false,
                    poisoned: self.poisoned,
                };
            }
        }
        // Graceful shutdown: the channel is closed *and* drained (recv
        // only errors once the buffer is empty). Re-seal the shard so its
        // at-rest state is under fresh keys, then checkpoint the resealed
        // image; a poisoned shard must not launder corrupted blocks, so
        // it is left quarantined and its durable state untouched.
        let resealed = self.healthy()
            && self.region.engine_mut().rekey(self.reseal_seed).is_ok()
            && (self.persist.is_none() || self.checkpoint().is_ok());
        SealReport {
            shard: self.shard,
            resealed,
            poisoned: self.poisoned,
        }
    }

    /// Serves one wakeup's drained requests as a single service batch.
    ///
    /// Requests are processed strictly in arrival order; runs of
    /// consecutive full-block writes and runs of consecutive verified
    /// reads (plain reads and RMW read halves, across request boundaries)
    /// are parked in fusion buffers and committed through one engine
    /// `write_blocks` / `read_blocks` call when the run breaks — a
    /// different op kind, a control request, a same-block RMW hazard, or
    /// the end of the wakeup. Parking a write flushes pending reads and
    /// vice versa, so at most one buffer is ever non-empty and fusion
    /// never reorders anything an operation could observe.
    fn service_wakeup(&mut self, requests: Vec<Request>) {
        self.stats.queue_depth_seen.record(self.shared.depth_now());
        let mut ops = 0u64;
        let mut writes: Vec<PendingWrite> = Vec::new();
        let mut reads: Vec<PendingRead> = Vec::new();
        // (reply channel, accumulated per-op results) per Batch request.
        let mut slots: Vec<BatchSlot> = Vec::new();
        for request in requests {
            match request {
                Request::Op {
                    op,
                    seq,
                    enqueued,
                    reply,
                    wake,
                } => {
                    self.shared.depth.fetch_sub(1, Ordering::Relaxed);
                    let queue_ns = enqueued.elapsed().as_nanos() as u64;
                    self.stats.queue_wait_ns.record(queue_ns);
                    ops += 1;
                    let dest = Dest::Single { seq, reply, wake };
                    self.handle_op(op, queue_ns, dest, &mut writes, &mut reads, &mut slots);
                }
                Request::Batch {
                    ops: batch_ops,
                    enqueued,
                    reply,
                } => {
                    let n = batch_ops.len();
                    self.shared.depth.fetch_sub(n as i64, Ordering::Relaxed);
                    let queue_ns = enqueued.elapsed().as_nanos() as u64;
                    // Per-op queue wait: every op of the slot waited the
                    // same time, and each records it individually.
                    self.stats.queue_wait_ns.record_n(queue_ns, n as u64);
                    ops += n as u64;
                    let slot = slots.len();
                    slots.push((reply, (0..n).map(|_| None).collect()));
                    for (index, op) in batch_ops.into_iter().enumerate() {
                        let dest = Dest::Batch { slot, index };
                        self.handle_op(op, queue_ns, dest, &mut writes, &mut reads, &mut slots);
                    }
                }
                Request::Collect { reply } => {
                    self.flush_fused(&mut writes, &mut slots);
                    self.flush_fused_reads(&mut reads, &mut slots);
                    self.flush_deferred(&mut slots);
                    let _ = reply.send(self.report());
                }
                Request::Tamper {
                    local,
                    bit,
                    sideband,
                    ack,
                } => {
                    // Tampering must stay ordered with surrounding ops.
                    self.flush_fused(&mut writes, &mut slots);
                    self.flush_fused_reads(&mut reads, &mut slots);
                    self.flush_deferred(&mut slots);
                    if sideband {
                        self.region.engine_mut().tamper_sideband_bit(local, bit);
                    } else {
                        self.region.engine_mut().tamper_data_bit(local, bit);
                    }
                    self.stats.tampers += 1;
                    let _ = ack.send(());
                }
                Request::Crash { ack } => {
                    self.crashed = true;
                    let _ = ack.send(());
                    break;
                }
            }
        }
        if self.crashed {
            // Power cut: unflushed fused ops were never persisted and
            // never acknowledged — dropping their reply channels reports
            // them Disconnected, exactly what a real kill produces. Held
            // group-commit completions die with them: their intent
            // records were never synced, so they were never acked.
            self.deferred.clear();
            return;
        }
        self.flush_fused(&mut writes, &mut slots);
        self.flush_fused_reads(&mut reads, &mut slots);
        // The wakeup's single shared fdatasync: every intent record the
        // wakeup appended becomes durable here, then every held ack is
        // released in FIFO order. This is the group commit — N
        // acknowledged runs, one sync.
        self.flush_deferred(&mut slots);
        for (reply, results) in slots {
            let results: Vec<OpReply> = results
                .into_iter()
                .map(|r| r.expect("every batch op resolved"))
                .collect();
            let _ = reply.send(results);
        }
        if ops > 0 {
            self.stats.batches += 1;
            self.stats.batch_size.record(ops);
        }
    }

    /// Parks a data operation in the matching run buffer — the only way
    /// one is ever served — or, when it cannot join a run, flushes both
    /// buffers (so order is preserved) and rejects it: as poisoned on a
    /// quarantined shard, else as outside the region.
    ///
    /// A read or RMW may not park behind a pending RMW to the *same*
    /// block: the later op must observe the earlier RMW's write, while a
    /// fused run verifies one snapshot — so the hazard flushes the run
    /// first. Parking behind a pending *plain* read is always safe (both
    /// observe the same snapshot, exactly as sequential service would).
    fn handle_op(
        &mut self,
        op: Op,
        queue_ns: u64,
        dest: Dest,
        writes: &mut Vec<PendingWrite>,
        reads: &mut Vec<PendingRead>,
        slots: &mut [BatchSlot],
    ) {
        let (Op::Read { local } | Op::Write { local, .. } | Op::Rmw { local, .. }) = op;
        let in_bounds = local + BLOCK_BYTES as u64 <= self.region.size();
        if self.healthy() && in_bounds {
            match op {
                // Pending reads arrived first and must observe the
                // pre-write snapshot.
                Op::Write { .. } => self.flush_fused_reads(reads, slots),
                Op::Read { .. } | Op::Rmw { .. } => {
                    self.flush_fused(writes, slots);
                    if reads.iter().any(|r| r.rmw.is_some() && r.local == local) {
                        self.flush_fused_reads(reads, slots);
                    }
                }
            }
            // A flush can itself quarantine the shard (a read run that
            // fails verification, an intent that cannot be logged): the
            // op is then rejected below instead of parking behind the
            // failure.
            if self.healthy() {
                match op {
                    Op::Write { local, data } => writes.push(PendingWrite {
                        local,
                        data,
                        queue_ns,
                        dest,
                    }),
                    Op::Read { local } => reads.push(PendingRead {
                        local,
                        queue_ns,
                        dest,
                        rmw: None,
                    }),
                    Op::Rmw { local, f } => reads.push(PendingRead {
                        local,
                        queue_ns,
                        dest,
                        rmw: Some(f),
                    }),
                }
                return;
            }
        }
        self.flush_fused(writes, slots);
        self.flush_fused_reads(reads, slots);
        let start = Instant::now();
        let result = Err(if self.healthy() {
            out_of_range(local)
        } else {
            self.reject_poisoned()
        });
        let service_ns = start.elapsed().as_nanos() as u64;
        self.stats.service_latency_ns.record(service_ns);
        self.deliver(dest, result, queue_ns, service_ns, slots);
    }

    /// Routes one finished operation's result to its submitter.
    ///
    /// On a volatile shard a `Single` completion is sent immediately; on
    /// a persistent shard it is parked in the group-commit buffer until
    /// [`flush_deferred`](Self::flush_deferred) syncs the log — *every*
    /// completion parks (reads included, though they need no sync)
    /// because sessions rely on per-shard FIFO completion order, and a
    /// read overtaking a held write ack would break it.
    fn deliver(
        &mut self,
        dest: Dest,
        result: OpReply,
        queue_ns: u64,
        service_ns: u64,
        slots: &mut [BatchSlot],
    ) {
        match dest {
            Dest::Single { seq, reply, wake } => {
                let completion = Completion {
                    seq,
                    shard: self.shard,
                    result,
                    queue_ns,
                    service_ns,
                };
                // `deferred` non-empty guards FIFO across a mid-wakeup
                // quarantine (poison_io drops `persist` but earlier held
                // completions must still not be overtaken).
                if self.persist.is_some() || !self.deferred.is_empty() {
                    self.deferred.push(DeferredCompletion {
                        reply,
                        completion,
                        wake,
                    });
                } else {
                    Self::send_completion(&mut self.wakes, &reply, completion, wake);
                }
            }
            Dest::Batch { slot, index } => slots[slot].1[index] = Some(result),
        }
    }

    /// Sends one completion and records that the submitter's wakeup, if
    /// any, is owed a ring — once per wakeup however many completions it
    /// gets, and only after they are all sent, so the reaper's
    /// drain-then-reap finds every one of them.
    fn send_completion(
        wakes: &mut Vec<Arc<WakeFd>>,
        reply: &SyncSender<Completion>,
        completion: Completion,
        wake: Option<Arc<WakeFd>>,
    ) {
        let _ = reply.send(completion);
        if let Some(w) = wake {
            if !wakes.iter().any(|owed| Arc::ptr_eq(owed, &w)) {
                wakes.push(w);
            }
        }
    }

    /// Rings every wakeup the last service wakeup owes, once each.
    fn ring_wakes(&mut self) {
        if self.wakes.is_empty() {
            return;
        }
        self.shared
            .wake_rings
            .fetch_add(self.wakes.len() as u64, Ordering::Relaxed);
        for wake in self.wakes.drain(..) {
            wake.signal();
        }
    }

    /// The group commit: makes every unsynced intent record durable with
    /// one `fdatasync`, then releases the held completions in FIFO
    /// order. A sync failure quarantines the shard and converts every
    /// held (and still-unsent batch-slot) write/RMW `Ok` into the
    /// quarantine error — an ack never leaves the worker for state the
    /// log does not durably cover.
    fn flush_deferred(&mut self, slots: &mut [BatchSlot]) {
        if self.wal_unsynced > 0 {
            let records = self.wal_unsynced;
            self.wal_unsynced = 0;
            let outcome = match self.persist.as_mut() {
                Some(p) => p.wal.sync(),
                None => Ok(()), // quarantined mid-wakeup; acks already converted
            };
            match outcome {
                Ok(()) => {
                    self.stats.wal_syncs += 1;
                    if records >= 2 {
                        self.stats.wal_group_commits += 1;
                    }
                }
                Err(_) => {
                    let err = self.poison_io();
                    let undurable = |r: &OpReply| {
                        matches!(r, Ok(OpOutput::Written) | Ok(OpOutput::Modified { .. }))
                    };
                    for d in &mut self.deferred {
                        if undurable(&d.completion.result) {
                            d.completion.result = Err(err);
                        }
                    }
                    for (_, results) in slots.iter_mut() {
                        for r in results.iter_mut().flatten() {
                            if undurable(r) {
                                *r = Err(err);
                            }
                        }
                    }
                }
            }
        }
        for d in self.deferred.drain(..) {
            Self::send_completion(&mut self.wakes, &d.reply, d.completion, d.wake);
        }
    }

    /// Commits the write-fusion buffer through one engine `write_blocks`
    /// call and delivers each write's completion, charging every op its
    /// share of the fused service time.
    fn flush_fused(&mut self, fused: &mut Vec<PendingWrite>, slots: &mut [BatchSlot]) {
        if fused.is_empty() {
            return;
        }
        let n = fused.len() as u64;
        let start = Instant::now();
        let items: Vec<(u64, [u8; BLOCK_BYTES])> =
            fused.iter().map(|w| (w.local, w.data)).collect();
        if self.region.write_blocks(&items).is_err() {
            // Unreachable in practice (bounds-checked at park time,
            // alignment guaranteed by `locate`): nothing was written,
            // every op of the run fails.
            for w in fused.drain(..) {
                self.deliver(w.dest, Err(out_of_range(w.local)), w.queue_ns, 0, slots);
            }
            return;
        }
        self.stats.writes += n;
        // The whole run is logged as ONE intent record before any
        // delivery: no acknowledgement leaves the worker before its write
        // is durable, and a run whose intent never reached the log
        // acknowledges nothing.
        let locals: Vec<u64> = items.iter().map(|&(local, _)| local).collect();
        let logged = self.persist_writes(&locals);
        let elapsed_ns = start.elapsed().as_nanos() as u64;
        let share_ns = elapsed_ns / n;
        self.stats.fused_writes.record(n);
        self.stats.service_latency_ns.record_n(share_ns, n);
        for w in fused.drain(..) {
            let result = logged.map(|()| OpOutput::Written);
            self.deliver(w.dest, result, w.queue_ns, share_ns, slots);
        }
    }

    /// Commits the read-fusion buffer through one engine `read_blocks`
    /// call: the run pays one verified counter fetch per distinct
    /// metadata block, verifies every tag before releasing any plaintext,
    /// and decrypts from one pipelined keystream batch. RMW entries apply
    /// their mutator to the verified pre-image and the resulting writes
    /// are committed as one batched seal before any failure is reported —
    /// exactly the effects sequential service would have produced.
    ///
    /// On a verification failure the engine already fell back to
    /// per-block reads, so the released prefix, the failing index, and
    /// the error are bit-identical to sequential service: the prefix
    /// completes, the failing op poisons the shard, every later op in the
    /// run is rejected as poisoned.
    fn flush_fused_reads(&mut self, fused: &mut Vec<PendingRead>, slots: &mut [BatchSlot]) {
        if fused.is_empty() {
            return;
        }
        let n = fused.len() as u64;
        let start = Instant::now();
        let addrs: Vec<u64> = fused.iter().map(|r| r.local).collect();
        let Ok(run) = self.region.read_blocks(&addrs) else {
            // Unreachable in practice (bounds-checked at park time,
            // alignment guaranteed by `locate`, verification failures
            // reported inside the run): nothing was read, every op of the
            // run fails.
            for r in fused.drain(..) {
                self.deliver(r.dest, Err(out_of_range(r.local)), r.queue_ns, 0, slots);
            }
            return;
        };

        // Apply RMW mutators to the verified prefix and stage their
        // write-backs (hazard flushing keeps RMW addresses distinct, so
        // one batched seal is order-equivalent to sequential writes).
        let released = run.blocks.len();
        let mut results: Vec<OpReply> = Vec::with_capacity(fused.len());
        let mut write_backs: Vec<(u64, [u8; BLOCK_BYTES])> = Vec::new();
        for (r, block) in fused.iter_mut().zip(run.blocks) {
            results.push(match r.rmw.take() {
                None => {
                    self.stats.reads += 1;
                    Ok(OpOutput::Read(block))
                }
                Some(f) => {
                    let mut new = block;
                    f(&mut new);
                    write_backs.push((r.local, new));
                    self.stats.rmws += 1;
                    Ok(OpOutput::Modified { old: block })
                }
            });
        }
        if !write_backs.is_empty() {
            // Commit before reporting any failure: sequential service
            // completes every op preceding the failing one in full.
            let committed = self.region.write_blocks(&write_backs).is_ok();
            debug_assert!(committed, "staged RMW write-backs cannot fail");
            // One intent record covers the run's write-backs; if it
            // cannot be logged, the RMWs must not be acknowledged (their
            // plain-read neighbours carry no new state and still may).
            let locals: Vec<u64> = write_backs.iter().map(|&(local, _)| local).collect();
            if let Err(e) = self.persist_writes(&locals) {
                for r in &mut results {
                    if matches!(r, Ok(OpOutput::Modified { .. })) {
                        *r = Err(e);
                    }
                }
            }
        }
        if let Some((index, error)) = run.failed {
            debug_assert_eq!(index, released);
            results.push(Err(self.poison(error)));
            for _ in index + 1..fused.len() {
                results.push(Err(self.reject_poisoned()));
            }
        }

        let elapsed_ns = start.elapsed().as_nanos() as u64;
        let share_ns = elapsed_ns / n;
        self.stats.fused_reads.record(n);
        if run.failed.is_none() {
            // Blocks verified per counter fetch: >1 only when the batch
            // actually shared metadata fetches (the per-block fallback
            // reports one fetch per block).
            self.stats
                .counter_fetch_amortization
                .record((n / run.counter_fetches.max(1)).max(1));
        }
        self.stats.service_latency_ns.record_n(share_ns, n);
        for (r, result) in fused.drain(..).zip(results) {
            self.deliver(r.dest, result, r.queue_ns, share_ns, slots);
        }
    }

    /// Counts and reports one operation bounced off the quarantine.
    fn reject_poisoned(&mut self) -> StoreError {
        self.stats.rejected_poisoned += 1;
        StoreError::ShardPoisoned {
            shard: self.shard,
            cause: None,
        }
    }

    /// Quarantines the shard and reports the detecting failure.
    fn poison(&mut self, error: ReadError) -> StoreError {
        self.stats.integrity_failures += 1;
        self.poisoned = Some(error);
        self.shared.poisoned.store(true, Ordering::Relaxed);
        StoreError::ShardPoisoned {
            shard: self.shard,
            cause: Some(error),
        }
    }

    /// Quarantines the shard after a persistence failure: a write whose
    /// intent cannot be logged must not be acknowledged, and a shard
    /// that cannot guarantee durability must stop accepting state.
    fn poison_io(&mut self) -> StoreError {
        self.persist_dead = true;
        self.persist = None; // stop touching the files
        self.shared.poisoned.store(true, Ordering::Relaxed);
        StoreError::ShardPoisoned {
            shard: self.shard,
            cause: None,
        }
    }

    /// Does the intent log need to rotate into a fresh snapshot before
    /// the next record?
    ///
    /// Two triggers: a group re-encryption (counters were rebased, so
    /// replay-by-value onto the old snapshot may no longer be
    /// representable), and a log that holds as many bytes as the image
    /// the last checkpoint wrote (a snapshot is then cheaper to write
    /// than the log is to replay).
    fn rotation_due(&self) -> bool {
        match &self.persist {
            None => false,
            Some(p) => {
                p.last_reencryptions != self.region.engine().counter_stats().reencryptions
                    || p.wal.size() >= p.image_bytes
            }
        }
    }

    /// Makes the sealed post-images of `locals` durable *before* their
    /// acknowledgements leave the worker: one intent record for the
    /// whole run, or a full snapshot rotation when one is due (the
    /// snapshot subsumes the record).
    ///
    /// # Errors
    ///
    /// A persistence I/O failure quarantines the shard; the caller must
    /// fail (not acknowledge) the writes it covers.
    fn persist_writes(&mut self, locals: &[u64]) -> Result<(), StoreError> {
        if self.persist.is_none() || locals.is_empty() {
            return Ok(());
        }
        let outcome = if self.rotation_due() {
            self.checkpoint()
        } else {
            let region = &mut self.region;
            let p = self.persist.as_mut().expect("checked above");
            // Unsynced append: the record reaches the page cache now and
            // becomes durable at the wakeup's shared sync
            // ([`flush_deferred`](Self::flush_deferred)); the covered
            // acks are held until then.
            let appended = p.wal.append_unsynced(|out| {
                put_writes_head(out, locals.len());
                for &local in locals {
                    let state = region
                        .export_sealed(local)
                        .expect("fused locals are bounds-checked and aligned");
                    put_write(out, local, &state);
                }
            });
            appended.map(|bytes| {
                self.wal_unsynced += 1;
                self.stats.wal_records += 1;
                self.stats.wal_bytes += bytes;
            })
        };
        outcome.map_err(|_| self.poison_io())
    }

    /// Rotates the durable state: freezes the region into a fresh
    /// atomic snapshot under the next checkpoint generation and replaces
    /// the intent log with one bound to that generation. The snapshot is
    /// durable before the new log's first byte exists, which is what
    /// lets recovery discard a stale log instead of regressing.
    fn checkpoint(&mut self) -> io::Result<()> {
        let started = Instant::now();
        let image = self.region.freeze();
        let reencryptions = self.region.engine().counter_stats().reencryptions;
        let Some(p) = self.persist.as_mut() else {
            return Ok(());
        };
        let generation = p.generation + 1;
        write_snapshot(&*p.fs, &p.dir, generation, &image)?;
        p.wal = ShardWal::create(&*p.fs, &p.dir.join("wal.bin"), generation)?;
        p.generation = generation;
        p.image_bytes = image.len() as u64;
        p.last_reencryptions = reencryptions;
        // The durable snapshot subsumes every record of the replaced
        // log, synced or not: the tail is clean again.
        self.wal_unsynced = 0;
        self.stats.checkpoints += 1;
        self.stats.snapshot_bytes += image.len() as u64;
        self.stats
            .checkpoint_ns
            .record(started.elapsed().as_nanos() as u64);
        Ok(())
    }

    fn report(&self) -> ShardReport {
        let mut stats = self.stats.clone();
        stats.poisoned = !self.healthy();
        let mut registry = StatsRegistry::new();
        registry.collect("", self.region.engine());
        ShardReport {
            stats,
            engine: registry.snapshot(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ame_engine::EngineConfig;
    use std::sync::mpsc::sync_channel;

    /// A wakeup that ends in a power cut still rings for the completions
    /// it already sent: their reaper must not sleep through them.
    #[cfg(target_os = "linux")]
    #[test]
    fn a_crash_still_rings_for_the_completions_its_wakeup_sent() {
        let shared = Arc::new(ShardShared::default());
        let region = SecureRegion::new(EngineConfig::default(), 1 << 16);
        let worker = ShardWorker::new(0, region, 1, 8, Arc::clone(&shared));
        let (tx, rx) = sync_channel(8);
        let (reply, completions) = sync_channel(8);
        let (collect, _report) = sync_channel(1);
        let (ack, _acked) = sync_channel(1);
        let wake = Arc::new(WakeFd::new().expect("linux hosts have eventfd"));
        // One wakeup: the collect flushes the write's run (a volatile
        // shard sends its completion right away), then the crash.
        tx.send(Request::Op {
            op: Op::Write {
                local: 0,
                data: [1; BLOCK_BYTES],
            },
            seq: 1,
            enqueued: Instant::now(),
            reply,
            wake: Some(wake),
        })
        .unwrap();
        tx.send(Request::Collect { reply: collect }).unwrap();
        tx.send(Request::Crash { ack }).unwrap();
        assert!(!worker.run(&rx).resealed);
        assert_eq!(completions.try_iter().count(), 1);
        assert_eq!(shared.wake_rings.load(Ordering::Relaxed), 1);
    }
}
