//! The per-shard worker: one thread, one engine, one request queue.
//!
//! A shard owns a whole [`MemoryEncryptionEngine`] (its own keys,
//! counters, and integrity tree) over the region `[0, shard_bytes)` and
//! services requests from a bounded `mpsc` queue. The worker drains up
//! to `max_batch` queued requests per wakeup and serves them as one
//! *service batch*: runs of
//! consecutive full-block writes — regardless of whether they arrived as
//! individual submissions or [`submit_batch`] operations — are fused into a
//! single engine-level [`write_blocks`] call, so the run is sealed in
//! its own buffer by one `xor_keystream` and one `tags_into`, and channel/scheduling costs
//! amortize over the whole wakeup. Reads (and the read half of RMWs) fuse
//! symmetrically into one engine-level [`read_blocks`] call: the run pays
//! one verified counter fetch per distinct metadata block instead of one
//! per block, and verifies and decrypts the run in place, with the
//! engine falling back to per-block reads on any anomaly so failure
//! semantics stay bit-identical to sequential service. That is the one
//! way a data operation is served — a lone operation is a run of one —
//! and outside a run the worker only ever *rejects*: an operation on a
//! quarantined shard or an address outside the region. That park-time
//! check is the shard's one bounds check: the front end already checked
//! alignment and the store's range, and the engine asserts only its own
//! 48-bit address limit. At most one fusion buffer is ever non-empty —
//! parking a write flushes pending reads and vice versa — and a read
//! parking behind a pending RMW to the *same* block flushes first, so
//! fusion never changes what any operation observes. Every operation records its queue wait (enqueue → dequeue)
//! and its service latency individually (a fused run charges each op its
//! `elapsed/n` share), so deep pipelined windows show up in the
//! histograms as queue time, not inflated service time.
//!
//! Every request carries its submitter's [`Route`]: a blocking call's
//! one-shot channel, a [`submit_batch`] call's, or a
//! [`Session`](crate::Session)'s completion queue with its optional
//! eventfd. The worker does not care which. Every result of a wakeup
//! goes into its route's *outbox*, in execution order (which, the queue
//! being FIFO, is per-shard submission order — the sessions' ordering
//! guarantee). The outboxes are released at the end of the wakeup, and
//! before a `Collect` or `Tamper` is served: first the group-commit
//! `fdatasync` on a durable shard, then one message per route — all of
//! its completions as one `Vec` — and one ring of its eventfd. So a
//! batch pays one send per shard, a session one per wakeup, however
//! many operations they had in it; and no ack leaves before the log
//! covers it.
//!
//! A verification failure (MAC, SEC-DED, or tree) **poisons** the shard:
//! the failing operation reports the underlying [`ReadError`] and every
//! later operation fast-fails with
//! [`StoreError::ShardPoisoned`](crate::StoreError::ShardPoisoned) —
//! writes included, so no new data is entrusted to a compromised shard.
//! Other shards are unaffected.
//!
//! [`submit_batch`]: crate::SecureStore::submit_batch
//! [`write_blocks`]: MemoryEncryptionEngine::write_blocks
//! [`read_blocks`]: MemoryEncryptionEngine::read_blocks

use ame_engine::{region, MemoryEncryptionEngine, ReadError, BLOCK_BYTES};
use ame_telemetry::{Histogram, MetricSink, Metrics, Snapshot, StatsRegistry};
use std::io;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
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

/// What a worker reports when one submitted operation finishes; a
/// route receives them in messages of one wakeup's worth, in execution
/// order, and uses `seq` to tell them apart.
pub(crate) struct Completion {
    /// The submitter's tag: a session's ticket, a batch op's index, 0
    /// for a blocking call.
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

/// Where one submitter's results go.
pub(crate) struct Route {
    /// The submitter's completion queue, one message per release.
    tx: SyncSender<Vec<Completion>>,
    /// Kernel-visible wakeup rung after each message, so an event-driven
    /// reaper blocked in `epoll_wait` learns the in-memory queue went
    /// non-empty. `None` for submitters that block on the queue itself.
    wake: Option<Arc<WakeFd>>,
}

impl Route {
    /// A route and the receiving end of its queue, which holds
    /// `capacity` messages.
    pub(crate) fn channel(
        capacity: usize,
        wake: Option<Arc<WakeFd>>,
    ) -> (Arc<Self>, Receiver<Vec<Completion>>) {
        let (tx, rx) = sync_channel(capacity);
        (Arc::new(Self { tx, wake }), rx)
    }
}

/// A message on a shard's request queue.
pub(crate) enum Request {
    Op {
        op: Op,
        /// Submitter-chosen completion tag.
        seq: u64,
        /// When the request was enqueued, for queue-wait accounting.
        enqueued: Instant,
        route: Arc<Route>,
    },
    Batch {
        /// Each operation with its completion tag.
        ops: Vec<(u64, Op)>,
        /// When the batch was enqueued (one timestamp, charged per op).
        enqueued: Instant,
        route: Arc<Route>,
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
    /// Set (never cleared, with `Release`) when the worker stops — shut
    /// down, crashed, or unwound by a panicking mutator — after every
    /// send it made, so a reader that sees it (with `Acquire`) and then
    /// drains its queue has everything the worker will ever send.
    pub gone: AtomicBool,
    /// Session eventfd rings: one per wake-enabled route per release
    /// that sent it completions (a release ends every wakeup; a
    /// `Collect` or `Tamper` adds one).
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
    /// op of a batch records the batch's wait individually.
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

/// The completions one route is owed since the last release.
struct Outbox {
    route: Arc<Route>,
    completions: Vec<Completion>,
}

/// Where an operation's result goes: tagged `seq`, into outbox `outbox`.
struct Dest {
    outbox: usize,
    seq: u64,
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

pub(crate) struct ShardWorker {
    shard: usize,
    engine: MemoryEncryptionEngine,
    /// The region's size: every local address is below it.
    shard_bytes: u64,
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
    /// Intent records appended since the last sync. Non-zero means the
    /// log's tail is not yet durable.
    wal_unsynced: u64,
    /// The write run awaiting its batched seal, as the engine and the
    /// intent record take it.
    writes: Vec<(u64, [u8; BLOCK_BYTES])>,
    /// Each parked write's destination and queue wait, in run order.
    write_dests: Vec<(Dest, u64)>,
    /// The read run (plain reads and RMW read halves) awaiting its
    /// batched verify. At most one of the two runs is non-empty.
    reads: Vec<PendingRead>,
    /// One per route served since the last [`release`](Self::release),
    /// in order of first appearance.
    outboxes: Vec<Outbox>,
    stats: ShardStats,
}

impl ShardWorker {
    pub(crate) fn new(
        shard: usize,
        engine: MemoryEncryptionEngine,
        shard_bytes: u64,
        reseal_seed: u64,
        max_batch: usize,
        shared: Arc<ShardShared>,
    ) -> Self {
        Self {
            shard,
            engine,
            shard_bytes,
            reseal_seed,
            max_batch,
            shared,
            poisoned: None,
            persist_dead: false,
            crashed: false,
            persist: None,
            wal_unsynced: 0,
            writes: Vec::new(),
            write_dests: Vec::new(),
            reads: Vec::new(),
            outboxes: Vec::new(),
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
            && self.engine.rekey(self.reseal_seed).is_ok()
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
    /// are parked and committed through one engine `write_blocks` /
    /// `read_blocks` call when the run breaks — a different op kind, a
    /// control request, a same-block RMW hazard, or the end of the
    /// wakeup. Parking a write flushes pending reads and vice versa, so
    /// at most one run is ever open and fusion never reorders anything
    /// an operation could observe.
    fn service_wakeup(&mut self, requests: Vec<Request>) {
        self.stats.queue_depth_seen.record(self.shared.depth_now());
        let mut ops = 0u64;
        let count = requests.len();
        for (i, request) in requests.into_iter().enumerate() {
            match request {
                Request::Op {
                    op,
                    seq,
                    enqueued,
                    route,
                } => {
                    self.shared.depth.fetch_sub(1, Ordering::Relaxed);
                    let queue_ns = enqueued.elapsed().as_nanos() as u64;
                    self.stats.queue_wait_ns.record(queue_ns);
                    ops += 1;
                    // Room for one completion per request left in the
                    // wakeup, all a single-op route can be owed: its
                    // message is one allocation, never a regrowth.
                    let outbox = self.outbox(route, count - i);
                    self.handle_op(op, queue_ns, Dest { outbox, seq });
                }
                Request::Batch {
                    ops: batch,
                    enqueued,
                    route,
                } => {
                    let n = batch.len();
                    self.shared.depth.fetch_sub(n as i64, Ordering::Relaxed);
                    let queue_ns = enqueued.elapsed().as_nanos() as u64;
                    // Per-op queue wait: every op of the batch waited the
                    // same time, and each records it individually.
                    self.stats.queue_wait_ns.record_n(queue_ns, n as u64);
                    ops += n as u64;
                    let outbox = self.outbox(route, n);
                    for (seq, op) in batch {
                        self.handle_op(op, queue_ns, Dest { outbox, seq });
                    }
                }
                Request::Collect { reply } => {
                    self.flush_runs();
                    self.release();
                    let _ = reply.send(self.report());
                }
                Request::Tamper {
                    local,
                    bit,
                    sideband,
                    ack,
                } => {
                    // Tampering must stay ordered with surrounding ops.
                    self.flush_runs();
                    self.release();
                    if sideband {
                        self.engine.tamper_sideband_bit(local, bit);
                    } else {
                        self.engine.tamper_data_bit(local, bit);
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
            // Power cut: open runs were never persisted and unreleased
            // results never acknowledged. They die with the worker, and
            // their dropped routes report them Disconnected, exactly what
            // a real kill produces.
            return;
        }
        self.flush_runs();
        self.release();
        if ops > 0 {
            self.stats.batches += 1;
            self.stats.batch_size.record(ops);
        }
    }

    /// The index of `route`'s outbox, opened (with room for `ops`
    /// completions) if this is the route's first request since the last
    /// release.
    fn outbox(&mut self, route: Arc<Route>, ops: usize) -> usize {
        if let Some(i) = self
            .outboxes
            .iter()
            .position(|o| Arc::ptr_eq(&o.route, &route))
        {
            return i;
        }
        self.outboxes.push(Outbox {
            route,
            completions: Vec::with_capacity(ops),
        });
        self.outboxes.len() - 1
    }

    /// Parks a data operation in the matching run — the only way one is
    /// ever served — or, when it cannot join a run, flushes both runs
    /// (so order is preserved) and rejects it: as poisoned on a
    /// quarantined shard, else as outside the region.
    ///
    /// A read or RMW may not park behind a pending RMW to the *same*
    /// block: the later op must observe the earlier RMW's write, while a
    /// fused run verifies one snapshot — so the hazard flushes the run
    /// first. Parking behind a pending *plain* read is always safe (both
    /// observe the same snapshot, exactly as sequential service would).
    fn handle_op(&mut self, op: Op, queue_ns: u64, dest: Dest) {
        let (Op::Read { local } | Op::Write { local, .. } | Op::Rmw { local, .. }) = op;
        let in_bounds = local + BLOCK_BYTES as u64 <= self.shard_bytes;
        if self.healthy() && in_bounds {
            match op {
                // Pending reads arrived first and must observe the
                // pre-write snapshot.
                Op::Write { .. } => self.flush_fused_reads(),
                Op::Read { .. } | Op::Rmw { .. } => {
                    self.flush_fused();
                    if self
                        .reads
                        .iter()
                        .any(|r| r.rmw.is_some() && r.local == local)
                    {
                        self.flush_fused_reads();
                    }
                }
            }
            // A flush can itself quarantine the shard (a read run that
            // fails verification, an intent that cannot be logged): the
            // op is then rejected below instead of parking behind the
            // failure.
            if self.healthy() {
                match op {
                    Op::Write { local, data } => {
                        self.writes.push((local, data));
                        self.write_dests.push((dest, queue_ns));
                    }
                    Op::Read { local } => self.reads.push(PendingRead {
                        local,
                        queue_ns,
                        dest,
                        rmw: None,
                    }),
                    Op::Rmw { local, f } => self.reads.push(PendingRead {
                        local,
                        queue_ns,
                        dest,
                        rmw: Some(f),
                    }),
                }
                return;
            }
        }
        self.flush_runs();
        let start = Instant::now();
        let result = Err(if self.healthy() {
            StoreError::OutOfRange {
                addr: local,
                len: BLOCK_BYTES as u64,
            }
        } else {
            self.reject_poisoned()
        });
        let service_ns = start.elapsed().as_nanos() as u64;
        self.stats.service_latency_ns.record(service_ns);
        self.deliver(dest, result, queue_ns, service_ns);
    }

    /// Puts one finished operation's result into its route's outbox.
    fn deliver(&mut self, dest: Dest, result: OpReply, queue_ns: u64, service_ns: u64) {
        self.outboxes[dest.outbox].completions.push(Completion {
            seq: dest.seq,
            shard: self.shard,
            result,
            queue_ns,
            service_ns,
        });
    }

    /// Releases the outboxes. On a durable shard this is the group
    /// commit: one `fdatasync` makes every intent record appended since
    /// the last release durable first — N acknowledged runs, one sync. A
    /// sync that fails (or a log already lost to a quarantine) turns
    /// every write and RMW `Ok` held here into the quarantine error: an
    /// ack never leaves the worker for state the log does not durably
    /// cover. Then each route gets its completions as one message and
    /// one ring of its eventfd, so its reaper's drain-then-reap finds
    /// every one of them.
    fn release(&mut self) {
        if self.wal_unsynced > 0 {
            let records = std::mem::take(&mut self.wal_unsynced);
            if self.persist.as_mut().is_some_and(|p| p.wal.sync().is_ok()) {
                self.stats.wal_syncs += 1;
                if records >= 2 {
                    self.stats.wal_group_commits += 1;
                }
            } else {
                let err = self.poison_io();
                for c in self.outboxes.iter_mut().flat_map(|o| &mut o.completions) {
                    if matches!(c.result, Ok(OpOutput::Written | OpOutput::Modified { .. })) {
                        c.result = Err(err);
                    }
                }
            }
        }
        let mut rings = 0;
        for Outbox { route, completions } in self.outboxes.drain(..) {
            let _ = route.tx.send(completions);
            if let Some(wake) = &route.wake {
                wake.signal();
                rings += 1;
            }
        }
        if rings > 0 {
            self.shared.wake_rings.fetch_add(rings, Ordering::Relaxed);
        }
    }

    /// Commits both runs (at most one is open).
    fn flush_runs(&mut self) {
        self.flush_fused();
        self.flush_fused_reads();
    }

    /// Commits the write run through one engine `write_blocks` call and
    /// delivers each write's result, charging every op its share of the
    /// fused service time.
    fn flush_fused(&mut self) {
        if self.writes.is_empty() {
            return;
        }
        let mut items = std::mem::take(&mut self.writes);
        let n = items.len() as u64;
        let start = Instant::now();
        self.engine.write_blocks(&items);
        self.stats.writes += n;
        // The whole run is logged as ONE intent record before any
        // delivery: no acknowledgement leaves the worker before its write
        // is durable, and a run whose intent never reached the log
        // acknowledges nothing.
        let logged = self.persist_writes(&items);
        let elapsed_ns = start.elapsed().as_nanos() as u64;
        let share_ns = elapsed_ns / n;
        self.stats.fused_writes.record(n);
        self.stats.service_latency_ns.record_n(share_ns, n);
        let mut dests = std::mem::take(&mut self.write_dests);
        for (dest, queue_ns) in dests.drain(..) {
            let result = logged.map(|()| OpOutput::Written);
            self.deliver(dest, result, queue_ns, share_ns);
        }
        items.clear();
        self.writes = items;
        self.write_dests = dests;
    }

    /// Commits the read run through one engine `read_blocks` call: the
    /// run pays one verified counter fetch per distinct metadata block,
    /// verifies every tag before releasing any plaintext, and decrypts
    /// from one pipelined keystream batch. RMW entries apply their
    /// mutator to the verified pre-image and the resulting writes are
    /// committed as one batched seal before any failure is reported —
    /// exactly the effects sequential service would have produced.
    ///
    /// On a verification failure the engine already fell back to
    /// per-block reads, so the released prefix, the failing index, and
    /// the error are bit-identical to sequential service: the prefix
    /// completes, the failing op poisons the shard, every later op in the
    /// run is rejected as poisoned.
    fn flush_fused_reads(&mut self) {
        if self.reads.is_empty() {
            return;
        }
        let mut fused = std::mem::take(&mut self.reads);
        let n = fused.len() as u64;
        let start = Instant::now();
        let addrs: Vec<u64> = fused.iter().map(|r| r.local).collect();
        let run = self.engine.read_blocks(&addrs);

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
            self.engine.write_blocks(&write_backs);
            // One intent record covers the run's write-backs; if it
            // cannot be logged, the RMWs must not be acknowledged (their
            // plain-read neighbours carry no new state and still may).
            if let Err(e) = self.persist_writes(&write_backs) {
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
            self.deliver(r.dest, result, r.queue_ns, share_ns);
        }
        self.reads = fused;
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
                p.last_reencryptions != self.engine.counter_stats().reencryptions
                    || p.wal.size() >= p.image_bytes
            }
        }
    }

    /// Makes the sealed post-images of the run `items` just wrote durable
    /// *before* their acknowledgements leave the worker: one intent
    /// record for the whole run, or a full snapshot rotation when one is
    /// due (the snapshot subsumes the record).
    ///
    /// # Errors
    ///
    /// A persistence I/O failure quarantines the shard; the caller must
    /// fail (not acknowledge) the writes it covers.
    fn persist_writes(&mut self, items: &[(u64, [u8; BLOCK_BYTES])]) -> Result<(), StoreError> {
        if self.persist.is_none() || items.is_empty() {
            return Ok(());
        }
        let outcome = if self.rotation_due() {
            self.checkpoint()
        } else {
            let engine = &mut self.engine;
            let p = self.persist.as_mut().expect("checked above");
            // Unsynced append: the record reaches the page cache now and
            // becomes durable at the shared sync of the next
            // [`release`](Self::release), which holds the covered acks
            // until then.
            let appended = p.wal.append_unsynced(|out| {
                put_writes_head(out, items.len());
                for &(local, _) in items {
                    put_write(out, local, &engine.export_sealed(local));
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

    /// Rotates the durable state: freezes the engine and the region size
    /// ([`region::freeze`]) into a fresh atomic snapshot under the next
    /// checkpoint generation and replaces the intent log with one bound
    /// to that generation. The snapshot is durable before the new log's
    /// first byte exists, which is what lets recovery discard a stale log
    /// instead of regressing.
    fn checkpoint(&mut self) -> io::Result<()> {
        let started = Instant::now();
        let image = region::freeze(&self.engine, self.shard_bytes);
        let reencryptions = self.engine.counter_stats().reencryptions;
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
        registry.collect("", &self.engine);
        ShardReport {
            stats,
            engine: registry.snapshot(),
        }
    }
}

impl Drop for ShardWorker {
    /// Runs when [`run`](Self::run) returns or unwinds.
    fn drop(&mut self) {
        self.shared.gone.store(true, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memfs::{self, Fault, MemFs, State};
    use crate::session::to_value;
    use crate::wal::{recover_shard, DurableFs};
    use crate::{StoreConfig, StoreValue};
    use ame_engine::EngineConfig;
    use std::path::Path;

    /// What one route received: each completion's tag and result.
    type Received = Vec<(u64, Result<StoreValue, StoreError>)>;

    /// Serves one wakeup to four routes — two sessions with eventfds, a
    /// batch and a blocking one-shot — and returns what each received,
    /// asserting that each got exactly one message and each eventfd
    /// exactly one ring.
    #[cfg(target_os = "linux")]
    fn serve_four_routes(worker: &mut ShardWorker) -> [Received; 4] {
        let wakes = [(); 2].map(|()| Arc::new(WakeFd::new().expect("linux hosts have eventfd")));
        let (a, a_rx) = Route::channel(8, Some(Arc::clone(&wakes[0])));
        let (b, b_rx) = Route::channel(8, Some(Arc::clone(&wakes[1])));
        let (batch, batch_rx) = Route::channel(1, None);
        let (one_shot, one_shot_rx) = Route::channel(1, None);
        let request = |op, seq, route: &Arc<Route>| Request::Op {
            op,
            seq,
            enqueued: Instant::now(),
            route: Arc::clone(route),
        };
        let write = |block: u64| Op::Write {
            local: block * 64,
            data: [block as u8 + 1; BLOCK_BYTES],
        };
        let read = |block: u64| Op::Read { local: block * 64 };
        let bump: RmwFn = Box::new(|block| block[0] = 9);
        // Runs: [a.w0] [b.r1 a.rmw2] [batch.w3] [batch.r0] [one.w4 b.w5].
        worker.service_wakeup(vec![
            request(write(0), 1, &a),
            request(read(1), 1, &b),
            request(
                Op::Rmw {
                    local: 128,
                    f: bump,
                },
                2,
                &a,
            ),
            Request::Batch {
                ops: vec![(0, write(3)), (1, read(0))],
                enqueued: Instant::now(),
                route: batch,
            },
            request(write(4), 0, &one_shot),
            request(write(5), 2, &b),
        ]);
        for wake in &wakes {
            assert_eq!(wake.take_signals(), 1, "one ring per route per wakeup");
        }
        [a_rx, b_rx, batch_rx, one_shot_rx].map(|rx| {
            let messages: Vec<Vec<Completion>> = rx.try_iter().collect();
            assert_eq!(messages.len(), 1, "one message per route per wakeup");
            let completions = messages.into_iter().flatten();
            completions
                .map(|c| (c.seq, c.result.map(to_value)))
                .collect()
        })
    }

    /// Every route of a wakeup gets its completions as one message, in
    /// the order the worker executed them, and one ring of its eventfd.
    #[cfg(target_os = "linux")]
    #[test]
    fn every_route_gets_one_message_and_one_ring_per_wakeup() {
        let shared = Arc::new(ShardShared::default());
        let engine = MemoryEncryptionEngine::new(EngineConfig::default());
        let mut worker = ShardWorker::new(0, engine, 1 << 16, 1, 64, Arc::clone(&shared));
        let [a, b, batch, one_shot] = serve_four_routes(&mut worker);
        let zeros = [0; BLOCK_BYTES];
        assert_eq!(
            a,
            [
                (1, Ok(StoreValue::Written)),
                (2, Ok(StoreValue::Modified(zeros)))
            ]
        );
        assert_eq!(
            b,
            [
                (1, Ok(StoreValue::Data(zeros))),
                (2, Ok(StoreValue::Written))
            ]
        );
        assert_eq!(
            batch,
            [
                (0, Ok(StoreValue::Written)),
                (1, Ok(StoreValue::Data([1; 64])))
            ]
        );
        assert_eq!(one_shot, [(0, Ok(StoreValue::Written))]);
        assert_eq!(shared.wake_rings.load(Ordering::Relaxed), 2);
        assert_eq!(worker.stats.batches, 1);
        assert_eq!(worker.stats.fused_writes.count(), 3);
        assert_eq!(worker.stats.fused_reads.count(), 2);
    }

    /// A durable one-shard worker on the model file system `mem`.
    #[cfg(target_os = "linux")]
    fn durable_worker(mem: &MemFs) -> ShardWorker {
        let fs: Arc<dyn DurableFs> = Arc::new(mem.clone());
        let dir = Path::new("/ame/store");
        fs.create_dir_all(dir).unwrap();
        let config = StoreConfig {
            shards: 1,
            shard_bytes: 1 << 16,
            ..StoreConfig::default()
        };
        let boot = recover_shard(&config, 0, &fs, dir).unwrap();
        let shared = Arc::new(ShardShared::default());
        ShardWorker::new(0, boot.engine, config.shard_bytes, 1, 64, shared)
            .with_persist(boot.persist, 0)
    }

    /// When the group commit's `fdatasync` fails, no route of the
    /// wakeup is told a write or RMW succeeded; the plain reads, which
    /// carry no new state, still return their data.
    #[cfg(target_os = "linux")]
    #[test]
    fn a_failed_group_commit_fails_every_held_write_and_rmw() {
        // A clean run finds the wakeup's one sync.
        let mem = MemFs::new(State::new());
        let mut worker = durable_worker(&mem);
        let booted = mem.mark();
        let clean = serve_four_routes(&mut worker);
        let syncs: Vec<memfs::OpId> = mem.log()[booted..]
            .iter()
            .filter(|r| matches!(r.op, memfs::Op::Sync(_)))
            .map(|r| r.id)
            .collect();
        assert_eq!(syncs.len(), 1, "one group commit covers the wakeup");
        assert!(clean.iter().flatten().all(|(_, r)| r.is_ok()));

        let mem = MemFs::new(State::new());
        let mut worker = durable_worker(&mem);
        mem.arm(syncs[0], Fault::SyncError { kept: false });
        let [a, b, batch, one_shot] = serve_four_routes(&mut worker);
        assert!(mem.fired());
        let quarantined = Err(StoreError::ShardPoisoned {
            shard: 0,
            cause: None,
        });
        let zeros = [0; BLOCK_BYTES];
        assert_eq!(a, [(1, quarantined), (2, quarantined)]);
        assert_eq!(b, [(1, Ok(StoreValue::Data(zeros))), (2, quarantined)]);
        assert_eq!(
            batch,
            [(0, quarantined), (1, Ok(StoreValue::Data([1; 64])))]
        );
        assert_eq!(one_shot, [(0, quarantined)]);
        assert!(!worker.healthy());
        assert_eq!(worker.stats.wal_syncs, 0);
    }

    /// A wakeup that ends in a power cut still rings for the completions
    /// it already sent: their reaper must not sleep through them.
    #[cfg(target_os = "linux")]
    #[test]
    fn a_crash_still_rings_for_the_completions_its_wakeup_sent() {
        let shared = Arc::new(ShardShared::default());
        let engine = MemoryEncryptionEngine::new(EngineConfig::default());
        let worker = ShardWorker::new(0, engine, 1 << 16, 1, 8, Arc::clone(&shared));
        let (tx, rx) = sync_channel(8);
        let wake = Arc::new(WakeFd::new().expect("linux hosts have eventfd"));
        let (route, completions) = Route::channel(8, Some(wake));
        let (collect, _report) = sync_channel(1);
        let (ack, _acked) = sync_channel(1);
        // One wakeup: the collect releases the write's completion, then
        // the crash.
        tx.send(Request::Op {
            op: Op::Write {
                local: 0,
                data: [1; BLOCK_BYTES],
            },
            seq: 1,
            enqueued: Instant::now(),
            route,
        })
        .unwrap();
        tx.send(Request::Collect { reply: collect }).unwrap();
        tx.send(Request::Crash { ack }).unwrap();
        assert!(!worker.run(&rx).resealed);
        assert_eq!(completions.try_iter().count(), 1);
        assert_eq!(shared.wake_rings.load(Ordering::Relaxed), 1);
    }
}
