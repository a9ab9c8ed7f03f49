//! Non-blocking completion front-end: pipelined submissions over the
//! shard worker queues.
//!
//! The blocking [`SecureStore`] API parks one OS thread per in-flight
//! operation, so a client must burn a thread per outstanding request and
//! the shard workers rarely see queues deep enough to feed the batched
//! crypto path. A [`Session`] removes that coupling: one client thread
//! `submit`s many operations — each returns a [`Ticket`] immediately —
//! and reaps results from the session's completion queue with
//! [`poll`](Session::poll), [`wait`](Session::wait),
//! [`wait_any`](Session::wait_any), or [`wait_all`](Session::wait_all).
//!
//! # Queue lifecycle
//!
//! A submission travels: session window check → shard request queue
//! (bounded, one slot per submission) → worker dequeue (queue wait ends,
//! service begins) → execution as part of a run (with neighbouring
//! writes in one batched seal — or, for reads and RMW read halves, in
//! one batch-verified `read_blocks` call; alone, a run of one) → the
//! session's outbox on that worker → at the end of the worker's wakeup
//! (after the group commit on a durable shard), one message carrying
//! every completion the wakeup owes the session → client reap. A
//! completion therefore leaves when its wakeup ends, not when its run
//! does, on volatile and durable shards alike.
//! The completion queue is sized in messages, `shards ×
//! in_flight_window` of them; every message carries at least one
//! outstanding completion, so the window accounting makes that an upper
//! bound on undrained messages — the worker's send therefore never
//! blocks, so a slow client can never stall a shard that other clients
//! share. Both session kinds reap through the same inbox, which also
//! frees the window slots.
//!
//! # Backpressure rule
//!
//! At most [`SessionConfig::in_flight_window`] operations may be
//! outstanding (submitted and not yet reaped) *per shard*. A submit past
//! the window — or into a full shard queue — fast-fails with
//! [`StoreError::Overloaded`] instead of parking the thread; the client
//! reaps a completion and retries. This turns queue pressure into a
//! visible, countable event (the shard `overloads` counter) rather than
//! an invisible stall. Both session kinds — the single-owner [`Session`]
//! and the split [`SessionSubmitter`]/[`SessionReaper`] pair — submit
//! through the same code: a [`Session`] owns a [`SessionSubmitter`] and
//! adds ticket bookkeeping and statistics around it.
//!
//! # Ordering contract
//!
//! Completions of operations on the **same shard** arrive in submission
//! order (the shard queue is FIFO, the worker executes in order and
//! fills the outbox in execution order, and the session's queue
//! preserves each worker's send order). Across shards there is no
//! ordering. A read submitted after a write to the same address
//! (same shard by construction) therefore observes that write.

use crate::shard::{Completion, Op, OpOutput, Request, Route};
use crate::wake::WakeFd;
use crate::{SecureStore, StoreError, StoreOp, StoreValue};
use ame_engine::BLOCK_BYTES;
use ame_telemetry::{Histogram, MetricSink, Metrics, Snapshot, StatsRegistry};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, TryRecvError, TrySendError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Configuration of a [`Session`].
#[derive(Debug, Clone, Copy)]
pub struct SessionConfig {
    /// Maximum operations outstanding (submitted, not yet reaped) per
    /// shard before [`Session::submit`] fast-fails with
    /// [`StoreError::Overloaded`].
    pub in_flight_window: usize,
}

impl Default for SessionConfig {
    fn default() -> Self {
        Self {
            in_flight_window: 16,
        }
    }
}

/// Handle to one in-flight (or completed, not yet reaped) submission.
///
/// Tickets are session-scoped sequence numbers: they are issued in
/// submission order and never reused within a session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ticket(u64);

/// Counters and distributions of one session's pipeline, reported under
/// `store/session/` by [`Session::collect`]:
///
/// * `submitted`/`completed` — operations through the pipeline.
/// * `window_rejections` — submits bounced by the in-flight window (the
///   session-side backpressure events; queue-full bounces are counted in
///   the shard's `overloads` only).
/// * `in_flight_depth` — total outstanding ops observed at each submit.
/// * `completion_batch` — completions reaped per drain burst (how many
///   results each wakeup of the client harvested).
/// * `queue_wait_ns` vs `service_ns` — the time-in-queue vs
///   time-in-service split, measured by the worker per operation.
#[derive(Debug, Clone, Default)]
pub struct SessionStats {
    /// Operations accepted by [`Session::submit`]/[`Session::submit_rmw`].
    pub submitted: u64,
    /// Completions absorbed from the workers.
    pub completed: u64,
    /// Submits rejected because the per-shard window was full.
    pub window_rejections: u64,
    /// Total in-flight depth sampled at each successful submit.
    pub in_flight_depth: Histogram,
    /// Completions harvested per non-empty drain burst.
    pub completion_batch: Histogram,
    /// Per-op time spent in the shard queue (enqueue → dequeue).
    pub queue_wait_ns: Histogram,
    /// Per-op time spent in service (a fused write's or read's share).
    pub service_ns: Histogram,
}

impl Metrics for SessionStats {
    fn record(&self, sink: &mut dyn MetricSink) {
        sink.counter("submitted", self.submitted);
        sink.counter("completed", self.completed);
        sink.counter("window_rejections", self.window_rejections);
        sink.histogram("in_flight_depth", &self.in_flight_depth);
        sink.histogram("completion_batch", &self.completion_batch);
        sink.histogram("queue_wait_ns", &self.queue_wait_ns);
        sink.histogram("service_ns", &self.service_ns);
    }
}

/// A pipelined, completion-based client handle to a [`SecureStore`].
///
/// Created by [`SecureStore::session`]. A session is single-threaded
/// (methods take `&mut self`) and `Send`; open one session per client
/// thread — sessions are cheap, and any number coexist with each other
/// and with blocking callers.
///
/// Dropping a session with operations still in flight is safe: the
/// workers' completion sends fail harmlessly once the queue is gone.
///
/// # Example
///
/// ```
/// use ame_store::{SecureStore, SessionConfig, StoreConfig, StoreOp, StoreValue};
///
/// let store = SecureStore::new(StoreConfig::default());
/// let mut session = store.session_with(SessionConfig { in_flight_window: 8 });
/// let w = session.submit(StoreOp::Write { addr: 0, data: [7; 64] }).unwrap();
/// let r = session.submit(StoreOp::Read { addr: 0 }).unwrap();
/// // Same shard => FIFO: the read observes the write.
/// assert_eq!(session.wait(w), Ok(StoreValue::Written));
/// assert_eq!(session.wait(r), Ok(StoreValue::Data([7; 64])));
/// let _ = store.shutdown();
/// ```
pub struct Session<'a> {
    /// The one submit path, shared with split sessions (no wake: this
    /// session blocks on its inbox itself).
    submitter: SessionSubmitter<'a>,
    inbox: Inbox,
    /// Outstanding tickets and the shard serving each.
    pending: HashMap<u64, usize>,
    /// Completed-but-unreaped results in arrival order.
    done: VecDeque<(Ticket, Result<StoreValue, StoreError>)>,
    stats: SessionStats,
}

impl std::fmt::Debug for Session<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("window", &self.submitter.window)
            .field("in_flight", &self.pending.len())
            .field("unreaped", &self.done.len())
            .finish_non_exhaustive()
    }
}

pub(crate) fn to_value(output: OpOutput) -> StoreValue {
    match output {
        OpOutput::Read(data) => StoreValue::Data(data),
        OpOutput::Written => StoreValue::Written,
        OpOutput::Modified { old } => StoreValue::Modified(old),
    }
}

/// How long a blocked [`Session`] waits for a completion before it
/// checks whether the workers it waits on are still alive.
const LIVENESS_POLL: Duration = Duration::from_millis(20);

impl<'a> Session<'a> {
    pub(crate) fn new(store: &'a SecureStore, config: SessionConfig) -> Self {
        let (submitter, inbox) = store.open_pipeline(config, None);
        Self {
            submitter,
            inbox,
            pending: HashMap::new(),
            done: VecDeque::new(),
            stats: SessionStats::default(),
        }
    }

    /// The per-shard in-flight window.
    #[must_use]
    pub fn window(&self) -> usize {
        self.submitter.window
    }

    /// Operations submitted and not yet reaped, across all shards.
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// Completed results waiting to be reaped (after an internal drain).
    #[must_use]
    pub fn completions_ready(&mut self) -> usize {
        self.reap(Duration::ZERO);
        self.done.len()
    }

    /// This session's pipeline statistics so far.
    #[must_use]
    pub fn stats(&self) -> &SessionStats {
        &self.stats
    }

    /// Records the session statistics into `registry` under `<scope>/`
    /// (conventionally `store/session`).
    pub fn collect(&self, registry: &mut StatsRegistry, scope: &str) {
        registry.collect(scope, &self.stats);
    }

    /// A snapshot of the session telemetry under `store/session/`.
    #[must_use]
    pub fn telemetry(&self) -> Snapshot {
        let mut registry = StatsRegistry::new();
        self.collect(&mut registry, "store/session");
        registry.snapshot()
    }

    /// Submits one read or write without waiting for it; the returned
    /// [`Ticket`] resolves through [`poll`](Session::poll)/
    /// [`wait`](Session::wait)/[`wait_any`](Session::wait_any).
    ///
    /// # Errors
    ///
    /// [`StoreError::Unaligned`]/[`StoreError::OutOfRange`] for a bad
    /// address; [`StoreError::Overloaded`] when the target shard's
    /// in-flight window or request queue is full (reap a completion and
    /// retry); [`StoreError::ShardPoisoned`] (without consuming a window
    /// slot) when the shard is already quarantined;
    /// [`StoreError::Disconnected`] if the shard worker is gone.
    pub fn submit(&mut self, op: StoreOp) -> Result<Ticket, StoreError> {
        let (shard, op) = self.submitter.store.route(op)?;
        self.submit_op(shard, op)
    }

    /// Submits a read-modify-write; its completion carries the
    /// pre-image as [`StoreValue::Modified`]. The closure runs on the
    /// shard worker, serialized with every other operation on the block.
    ///
    /// # Errors
    ///
    /// As [`Session::submit`].
    pub fn submit_rmw(
        &mut self,
        addr: u64,
        f: impl FnOnce(&mut [u8; BLOCK_BYTES]) + Send + 'static,
    ) -> Result<Ticket, StoreError> {
        let (shard, op) = self.submitter.store.route_rmw(addr, f)?;
        self.submit_op(shard, op)
    }

    /// Submits through the one [`SessionSubmitter`] path and keeps this
    /// session's ticket bookkeeping and statistics.
    fn submit_op(&mut self, shard: usize, op: Op) -> Result<Ticket, StoreError> {
        // Opportunistically absorb finished work first: a steady-state
        // submit loop never has to call a wait method just to free its
        // window.
        self.reap(Duration::ZERO);
        let outcome = self.submitter.submit_op(shard, op);
        match outcome {
            Ok(Ticket(seq)) => {
                self.pending.insert(seq, shard);
                self.stats.submitted += 1;
                self.stats.in_flight_depth.record(self.pending.len() as u64);
            }
            // A queue-full bounce leaves the window open, so an
            // `Overloaded` with the window full was the window's.
            Err(StoreError::Overloaded { .. }) if self.submitter.window_full(shard) => {
                self.stats.window_rejections += 1;
            }
            Err(_) => {}
        }
        outcome
    }

    /// Non-blocking check of one ticket: `Some(result)` exactly once,
    /// when the operation has completed; `None` while it is still in
    /// flight (and for tickets already reaped).
    pub fn poll(&mut self, ticket: Ticket) -> Option<Result<StoreValue, StoreError>> {
        self.reap(Duration::ZERO);
        self.take_done(ticket)
    }

    /// Blocks until `ticket` completes and returns its result.
    ///
    /// # Errors
    ///
    /// The operation's own failure, or [`StoreError::Disconnected`] if
    /// the serving shard's worker died mid-flight (noticed within a
    /// bounded poll).
    ///
    /// # Panics
    ///
    /// Panics if the ticket was already reaped (or belongs to another
    /// session) — waiting on it would otherwise hang forever.
    pub fn wait(&mut self, ticket: Ticket) -> Result<StoreValue, StoreError> {
        self.wait_until(ticket, None)
    }

    /// Like [`Session::wait`], but gives up with
    /// [`StoreError::Timeout`] once `timeout` has elapsed without the
    /// ticket completing.
    ///
    /// A timeout does **not** cancel the operation: the ticket stays
    /// outstanding, the shard will still execute and complete it, and a
    /// later [`wait`](Session::wait)/[`poll`](Session::poll) can still
    /// reap it. Use this to bound client-side latency on a store whose
    /// shard might be wedged (e.g. a jammed RMW closure) without
    /// leaking the ticket.
    ///
    /// # Errors
    ///
    /// As [`Session::wait`], plus [`StoreError::Timeout`].
    ///
    /// # Panics
    ///
    /// As [`Session::wait`]: panics if the ticket was already reaped or
    /// belongs to another session.
    pub fn wait_timeout(
        &mut self,
        ticket: Ticket,
        timeout: Duration,
    ) -> Result<StoreValue, StoreError> {
        self.wait_until(ticket, Some(Instant::now() + timeout))
    }

    fn wait_until(
        &mut self,
        ticket: Ticket,
        deadline: Option<Instant>,
    ) -> Result<StoreValue, StoreError> {
        let mut patience = Duration::ZERO;
        loop {
            self.reap(patience);
            if let Some(result) = self.take_done(ticket) {
                return result;
            }
            assert!(
                self.pending.contains_key(&ticket.0),
                "ticket {ticket:?} is not outstanding in this session"
            );
            patience = match deadline {
                None => LIVENESS_POLL,
                Some(deadline) => {
                    let remaining = deadline.saturating_duration_since(Instant::now());
                    if remaining.is_zero() {
                        return Err(StoreError::Timeout);
                    }
                    remaining.min(LIVENESS_POLL)
                }
            };
        }
    }

    /// Blocks until *some* completion is available and returns the
    /// oldest unreaped one, or `None` if nothing is in flight or
    /// unreaped. Completions of same-shard operations are returned in
    /// submission order.
    pub fn wait_any(&mut self) -> Option<(Ticket, Result<StoreValue, StoreError>)> {
        self.reap(Duration::ZERO);
        while self.done.is_empty() && !self.pending.is_empty() {
            self.reap(LIVENESS_POLL);
        }
        self.done.pop_front()
    }

    /// Drains the pipeline: blocks until every outstanding operation has
    /// completed and returns all unreaped results in completion order.
    pub fn wait_all(&mut self) -> Vec<(Ticket, Result<StoreValue, StoreError>)> {
        let mut results = Vec::with_capacity(self.done.len() + self.pending.len());
        while let Some(entry) = self.wait_any() {
            results.push(entry);
        }
        results
    }

    /// Absorbs every completion that has arrived, after waiting up to
    /// `patience` for the first. A wait that ends empty-handed resolves
    /// the tickets no live worker will ever answer.
    fn reap(&mut self, patience: Duration) {
        let burst = self.inbox.reap(patience);
        if burst.is_empty() {
            if !patience.is_zero() {
                self.resolve_orphans();
            }
            return;
        }
        self.stats.completion_batch.record(burst.len() as u64);
        for completion in burst {
            self.pending.remove(&completion.seq);
            self.stats.completed += 1;
            self.stats.queue_wait_ns.record(completion.queue_ns);
            self.stats.service_ns.record(completion.service_ns);
            let result = completion.result.map(to_value);
            self.done.push_back((Ticket(completion.seq), result));
        }
    }

    /// Resolves every pending ticket of a shard whose worker has exited
    /// (a panicking mutator; shutdown and crashes need the store, which
    /// this session borrows) as [`StoreError::Disconnected`], in ticket
    /// order for determinism — after absorbing whatever the worker sent
    /// before it died.
    fn resolve_orphans(&mut self) {
        let store = self.submitter.store;
        let gone = |shard: usize| store.shared[shard].gone.load(Ordering::Acquire);
        if !self.pending.values().any(|&shard| gone(shard)) {
            return;
        }
        self.reap(Duration::ZERO);
        let mut orphans: Vec<(u64, usize)> = self
            .pending
            .iter()
            .map(|(&seq, &shard)| (seq, shard))
            .filter(|&(_, shard)| gone(shard))
            .collect();
        orphans.sort_unstable();
        for (seq, shard) in orphans {
            self.pending.remove(&seq);
            self.inbox.windows.release(shard);
            self.done
                .push_back((Ticket(seq), Err(StoreError::Disconnected { shard })));
        }
    }

    fn take_done(&mut self, ticket: Ticket) -> Option<Result<StoreValue, StoreError>> {
        let pos = self.done.iter().position(|(t, _)| *t == ticket)?;
        self.done.remove(pos).map(|(_, result)| result)
    }
}

/// Per-shard in-flight counts — the backpressure windows — shared by
/// the submitting and the reaping side of a pipeline (the two halves of
/// a split session, or one [`Session`] playing both): only the submit
/// path increments, only reaping decrements, so the window check can
/// never race itself — a concurrent reap only ever makes *more* room.
#[derive(Debug)]
struct Windows {
    per_shard: Vec<AtomicUsize>,
}

impl Windows {
    /// One operation of `shard` was reaped: its window slot is free.
    fn release(&self, shard: usize) {
        self.per_shard[shard].fetch_sub(1, Ordering::Relaxed);
    }
}

/// The receiving end of a pipeline, the one reap path of both session
/// kinds: the completion queue — one message per shard wakeup that
/// served the pipeline — and the window slots its completions free.
///
/// It holds no route (no sender): once the submitter and every request
/// it sent are gone, the queue reports disconnection, which is what
/// [`SessionReaper::pipeline_closed`] latches.
struct Inbox {
    rx: Receiver<Vec<Completion>>,
    windows: Arc<Windows>,
    /// Latched once the queue is disconnected and drained.
    closed: bool,
}

impl Inbox {
    /// Every completion queued, in arrival (per-shard FIFO) order, after
    /// waiting up to `patience` for the first; each frees its window
    /// slot.
    fn reap(&mut self, patience: Duration) -> Vec<Completion> {
        let first = if patience.is_zero() {
            self.rx
                .try_recv()
                .map_err(|e| e == TryRecvError::Disconnected)
        } else {
            self.rx
                .recv_timeout(patience)
                .map_err(|e| e == RecvTimeoutError::Disconnected)
        };
        let mut burst = match first {
            Ok(burst) => burst,
            Err(disconnected) => {
                self.closed |= disconnected;
                return Vec::new();
            }
        };
        loop {
            match self.rx.try_recv() {
                Ok(more) => burst.extend(more),
                Err(e) => {
                    self.closed |= e == TryRecvError::Disconnected;
                    break;
                }
            }
        }
        for completion in &burst {
            self.windows.release(completion.shard);
        }
        burst
    }
}

/// The submitting half of a split session (see
/// [`SecureStore::split_session_with_wake`]): submissions without
/// reaping. Every pipelined submission goes through this type — a
/// [`Session`] owns one — so the fast-fail rules live in one place.
///
/// Dropping the submitter closes the pipeline: once the in-flight
/// operations drain, the paired [`SessionReaper`] reports
/// [`pipeline_closed`](SessionReaper::pipeline_closed).
pub struct SessionSubmitter<'a> {
    store: &'a SecureStore,
    window: usize,
    next_seq: u64,
    /// Where every submission's result goes: this pipeline's completion
    /// queue and, for an event-driven reaper, the eventfd a worker rings
    /// after each message. The only sender of the queue outside the
    /// requests in flight.
    route: Arc<Route>,
    windows: Arc<Windows>,
}

impl std::fmt::Debug for SessionSubmitter<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionSubmitter")
            .field("window", &self.window)
            .finish_non_exhaustive()
    }
}

/// The reaping half of a split session: completions without submitting.
pub struct SessionReaper<'a> {
    _store: &'a SecureStore,
    inbox: Inbox,
    /// The kernel-visible readiness signal paired with the completion
    /// queue (wake-enabled sessions only).
    wake: Option<Arc<WakeFd>>,
}

impl std::fmt::Debug for SessionReaper<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionReaper").finish_non_exhaustive()
    }
}

impl<'a> SessionSubmitter<'a> {
    /// The per-shard in-flight window.
    #[must_use]
    pub fn window(&self) -> usize {
        self.window
    }

    /// Operations currently in flight (submitted, not yet reaped by the
    /// paired [`SessionReaper`]), across all shards.
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.windows
            .per_shard
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }

    /// Submits one read or write without waiting; the completion arrives
    /// on the paired reaper, tagged with the returned [`Ticket`].
    ///
    /// # Errors
    ///
    /// As [`Session::submit`]: address validation inline,
    /// [`StoreError::Overloaded`] when the shard's in-flight window or
    /// request queue is full, [`StoreError::ShardPoisoned`] fast-fail,
    /// [`StoreError::Disconnected`] for a vanished worker.
    pub fn submit(&mut self, op: StoreOp) -> Result<Ticket, StoreError> {
        let (shard, op) = self.store.route(op)?;
        self.submit_op(shard, op)
    }

    /// Submits a read-modify-write; its completion carries the pre-image
    /// as [`StoreValue::Modified`].
    ///
    /// # Errors
    ///
    /// As [`SessionSubmitter::submit`].
    pub fn submit_rmw(
        &mut self,
        addr: u64,
        f: impl FnOnce(&mut [u8; BLOCK_BYTES]) + Send + 'static,
    ) -> Result<Ticket, StoreError> {
        let (shard, op) = self.store.route_rmw(addr, f)?;
        self.submit_op(shard, op)
    }

    /// `true` when `shard`'s in-flight window is full.
    fn window_full(&self, shard: usize) -> bool {
        self.windows.per_shard[shard].load(Ordering::Relaxed) >= self.window
    }

    /// The one pipelined submit path. Nothing here waits: a quarantined
    /// shard, a full window and a full queue each bounce the operation
    /// (counted in the shard's `overloads`) without holding a slot.
    fn submit_op(&mut self, shard: usize, op: Op) -> Result<Ticket, StoreError> {
        let sh = &self.store.shared[shard];
        if sh.poisoned.load(Ordering::Relaxed) {
            // Don't burn a queue slot on an operation the worker would
            // only bounce.
            sh.overloads.fetch_add(1, Ordering::Relaxed);
            return Err(StoreError::ShardPoisoned { shard, cause: None });
        }
        if self.window_full(shard) {
            sh.overloads.fetch_add(1, Ordering::Relaxed);
            return Err(StoreError::Overloaded { shard });
        }
        let in_flight = &self.windows.per_shard[shard];
        let seq = self.next_seq;
        let request = Request::Op {
            op,
            seq,
            enqueued: Instant::now(),
            route: Arc::clone(&self.route),
        };
        // Count the slot *before* the send: the completion (and the
        // reaper's decrement) can race an increment placed after it.
        in_flight.fetch_add(1, Ordering::Relaxed);
        match self.store.senders[shard].try_send(request) {
            Ok(()) => {}
            Err(TrySendError::Full(_)) => {
                self.windows.release(shard);
                sh.overloads.fetch_add(1, Ordering::Relaxed);
                return Err(StoreError::Overloaded { shard });
            }
            Err(TrySendError::Disconnected(_)) => {
                self.windows.release(shard);
                return Err(StoreError::Disconnected { shard });
            }
        }
        sh.depth.fetch_add(1, Ordering::Relaxed);
        self.next_seq += 1;
        Ok(Ticket(seq))
    }
}

impl<'a> SessionReaper<'a> {
    /// Drains every completion available right now without blocking, in
    /// arrival (per-shard FIFO) order. The event-driven reap: a reactor
    /// woken by this session's [`wake_fd`](Self::wake_fd) calls
    /// [`drain_wake`](Self::drain_wake) then this, and the drain-first
    /// order guarantees no completion is ever stranded (one that lands
    /// between the two re-rings the wakeup).
    pub fn try_recv_all(&mut self) -> Vec<(Ticket, Result<StoreValue, StoreError>)> {
        self.inbox
            .reap(Duration::ZERO)
            .into_iter()
            .map(|c| (Ticket(c.seq), c.result.map(to_value)))
            .collect()
    }

    /// `true` once the paired submitter is gone **and** every completion
    /// has been drained (observed by
    /// [`try_recv_all`](Self::try_recv_all)): the pipeline will never
    /// yield again.
    #[must_use]
    pub fn pipeline_closed(&self) -> bool {
        self.inbox.closed
    }

    /// The raw wake descriptor to register in an `epoll(7)` interest
    /// set, for sessions opened with
    /// [`SecureStore::split_session_with_wake`]; `None` on hosts without
    /// eventfd.
    #[must_use]
    pub fn wake_fd(&self) -> Option<i32> {
        self.wake.as_ref().map(|w| w.raw_fd())
    }

    /// Clears the wake descriptor's pending-signal counter. Call on
    /// wakeup *before* [`try_recv_all`](Self::try_recv_all).
    pub fn drain_wake(&self) {
        if let Some(w) = &self.wake {
            w.drain();
        }
    }
}

impl SecureStore {
    /// Opens a **split** pipelined session: a [`SessionSubmitter`] and a
    /// [`SessionReaper`] that are separate values, unlike the
    /// single-owner [`Session`], with the completion queue paired to a
    /// kernel-visible [`WakeFd`]: a shard worker rings it once per
    /// message it sends the session — at most once per service wakeup —
    /// after the send, and the reaper exposes it via
    /// [`SessionReaper::wake_fd`] for registration in an `epoll(7)`
    /// interest set. This is what lets one event-loop thread block in
    /// `epoll_wait` over many sessions *and* their sockets at once —
    /// the reactor's completion path. When the host has no eventfd,
    /// `wake_fd()` is `None` and the caller must refuse the session or
    /// poll [`SessionReaper::try_recv_all`]; there is no silent
    /// half-working state.
    ///
    /// Window semantics are identical to [`Session`]: at most
    /// `config.in_flight_window` operations in flight per shard, then
    /// [`StoreError::Overloaded`]. Dropping the submitter ends the
    /// pipeline; the reaper drains the stragglers.
    ///
    /// # Panics
    ///
    /// Panics if `config.in_flight_window` is zero.
    #[must_use]
    pub fn split_session_with_wake(
        &self,
        config: SessionConfig,
    ) -> (SessionSubmitter<'_>, SessionReaper<'_>) {
        let wake = WakeFd::new().map(Arc::new);
        let (submitter, inbox) = self.open_pipeline(config, wake.clone());
        let reaper = SessionReaper {
            _store: self,
            inbox,
            wake,
        };
        (submitter, reaper)
    }

    /// Opens one submission pipeline: the submitter and the inbox its
    /// operations report to.
    fn open_pipeline(
        &self,
        config: SessionConfig,
        wake: Option<Arc<WakeFd>>,
    ) -> (SessionSubmitter<'_>, Inbox) {
        assert!(
            config.in_flight_window > 0,
            "the in-flight window must admit at least one operation"
        );
        let shards = self.config.shards;
        // Every message carries at least one outstanding completion, so
        // this many always fit: workers never block on a send, no matter
        // how lazily the client reaps.
        let (route, rx) = Route::channel(shards * config.in_flight_window, wake);
        let windows = Arc::new(Windows {
            per_shard: (0..shards).map(|_| AtomicUsize::new(0)).collect(),
        });
        let submitter = SessionSubmitter {
            store: self,
            window: config.in_flight_window,
            next_seq: 1,
            route,
            windows: Arc::clone(&windows),
        };
        let inbox = Inbox {
            rx,
            windows,
            closed: false,
        };
        (submitter, inbox)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StoreConfig;

    fn store(shards: usize) -> SecureStore {
        SecureStore::new(StoreConfig {
            shards,
            shard_bytes: 1 << 16,
            queue_depth: 64,
            max_batch: 32,
            ..StoreConfig::default()
        })
    }

    #[test]
    fn submit_wait_roundtrip_and_fifo_readback() {
        let store = store(2);
        let mut session = store.session_with(SessionConfig {
            in_flight_window: 8,
        });
        let mut tickets = Vec::new();
        for b in 0..8u64 {
            tickets.push(
                session
                    .submit(StoreOp::Write {
                        addr: b * 64,
                        data: [b as u8 + 1; 64],
                    })
                    .unwrap(),
            );
        }
        // Reads submitted behind the writes (same shards) see the data.
        let mut reads = Vec::new();
        for b in 0..8u64 {
            reads.push(session.submit(StoreOp::Read { addr: b * 64 }).unwrap());
        }
        for t in tickets {
            assert_eq!(session.wait(t), Ok(StoreValue::Written));
        }
        for (b, t) in reads.into_iter().enumerate() {
            assert_eq!(session.wait(t), Ok(StoreValue::Data([b as u8 + 1; 64])));
        }
        assert_eq!(session.in_flight(), 0);
        drop(session);
        let _ = store.shutdown();
    }

    #[test]
    fn window_backpressure_fast_fails() {
        let store = store(1);
        let mut session = store.session_with(SessionConfig {
            in_flight_window: 4,
        });
        // Jam the worker so nothing completes while we fill the window.
        let (gate_tx, gate_rx) = std::sync::mpsc::sync_channel::<()>(1);
        let (in_tx, in_rx) = std::sync::mpsc::sync_channel::<()>(1);
        let jam = session
            .submit_rmw(0, move |_| {
                let _ = in_tx.send(());
                let _ = gate_rx.recv();
            })
            .unwrap();
        in_rx.recv().unwrap();
        for b in 1..4u64 {
            session
                .submit(StoreOp::Write {
                    addr: b * 64,
                    data: [1; 64],
                })
                .unwrap();
        }
        assert_eq!(session.in_flight(), 4);
        assert_eq!(
            session.submit(StoreOp::Read { addr: 0 }),
            Err(StoreError::Overloaded { shard: 0 })
        );
        assert_eq!(session.stats().window_rejections, 1);
        assert!(store.overloads(0) >= 1, "window bounce counts as overload");
        gate_tx.send(()).unwrap();
        assert!(matches!(session.wait(jam), Ok(StoreValue::Modified(_))));
        let drained = session.wait_all();
        assert_eq!(drained.len(), 3);
        // The window has space again.
        assert!(session.submit(StoreOp::Read { addr: 0 }).is_ok());
        assert_eq!(session.wait_all().len(), 1);
        drop(session);
        let _ = store.shutdown();
    }

    #[test]
    fn poll_resolves_exactly_once() {
        let store = store(1);
        let mut session = store.session();
        let t = session
            .submit(StoreOp::Write {
                addr: 0,
                data: [9; 64],
            })
            .unwrap();
        // Spin until the completion lands.
        let result = loop {
            if let Some(r) = session.poll(t) {
                break r;
            }
            std::thread::yield_now();
        };
        assert_eq!(result, Ok(StoreValue::Written));
        assert_eq!(session.poll(t), None, "a ticket resolves only once");
        drop(session);
        let _ = store.shutdown();
    }

    #[test]
    fn session_telemetry_reports_pipeline_stats() {
        let store = store(2);
        let mut session = store.session_with(SessionConfig {
            in_flight_window: 8,
        });
        for b in 0..32u64 {
            loop {
                match session.submit(StoreOp::Write {
                    addr: (b % 16) * 64,
                    data: [b as u8; 64],
                }) {
                    Ok(_) => break,
                    Err(StoreError::Overloaded { .. }) => {
                        let _ = session.wait_any();
                    }
                    Err(e) => panic!("unexpected submit failure: {e}"),
                }
            }
        }
        let _ = session.wait_all();
        let snap = session.telemetry();
        assert_eq!(snap.counter("store/session/submitted"), Some(32));
        assert_eq!(snap.counter("store/session/completed"), Some(32));
        let depth = snap.histogram("store/session/in_flight_depth").unwrap();
        assert_eq!(depth.count(), 32);
        assert!(depth.max() > 1, "pipelining reached depth > 1");
        assert!(
            snap.histogram("store/session/queue_wait_ns")
                .unwrap()
                .count()
                == 32
                && snap.histogram("store/session/service_ns").unwrap().count() == 32,
            "every op splits into queue wait + service time"
        );
        assert!(
            snap.histogram("store/session/completion_batch")
                .unwrap()
                .count()
                > 0
        );
        drop(session);
        let _ = store.shutdown();
    }

    /// A mutator that panics kills its shard's worker. The session
    /// learns it within a bounded poll: that shard's tickets read
    /// `Disconnected`, the other shard's still complete, and shutdown
    /// reports the dead shard instead of panicking.
    #[test]
    fn a_dead_worker_resolves_its_tickets_as_disconnected() {
        let store = store(2);
        let mut session = store.session();
        let write = |addr| StoreOp::Write {
            addr,
            data: [3; 64],
        };
        // Shard 1 is jammed until shard 0 is dead, so both tickets are
        // in flight when the worker dies.
        let (gate_tx, gate_rx) = std::sync::mpsc::sync_channel::<()>(1);
        let jam = session
            .submit_rmw(64, move |_| {
                let _ = gate_rx.recv();
            })
            .unwrap();
        let doomed = session.submit_rmw(0, |_| panic!("mutator panics")).unwrap();
        let behind = session.submit(write(128)).unwrap();
        // Queued behind the panic (or sent after it): returns once the
        // worker is gone.
        assert_eq!(store.read(0), Err(StoreError::Disconnected { shard: 0 }));
        gate_tx.send(()).unwrap();
        let limit = Duration::from_secs(5);
        assert_eq!(
            session.wait_timeout(doomed, limit),
            Err(StoreError::Disconnected { shard: 0 })
        );
        assert_eq!(
            session.wait_timeout(behind, limit),
            Err(StoreError::Disconnected { shard: 0 })
        );
        assert!(matches!(
            session.wait_timeout(jam, limit),
            Ok(StoreValue::Modified(_))
        ));
        assert_eq!(session.in_flight(), 0);
        assert_eq!(
            session.submit(write(0)),
            Err(StoreError::Disconnected { shard: 0 })
        );
        let t = session.submit(write(64)).unwrap();
        assert_eq!(session.wait(t), Ok(StoreValue::Written));
        drop(session);
        let report = store.shutdown();
        assert!(!report.shards[0].resealed);
        assert!(report.shards[1].resealed);
    }

    #[test]
    fn session_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Session<'_>>();
    }
}
