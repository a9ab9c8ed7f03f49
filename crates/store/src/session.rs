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
//! [`wait_any`](Session::wait_any), or [`wait_all`](Session::wait_all) —
//! or, from an event loop, with [`try_recv_all`](Session::try_recv_all)
//! once the session's eventfd fires (see
//! [`SecureStore::session_with_wake`]).
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
//! share.
//!
//! # Backpressure rule
//!
//! At most [`SessionConfig::in_flight_window`] operations may be
//! outstanding (submitted and not yet reaped) *per shard*. A submit past
//! the window — or into a full shard queue — fast-fails with
//! [`StoreError::Overloaded`] instead of parking the thread; the client
//! reaps a completion and retries. This turns queue pressure into a
//! visible, countable event (the shard `overloads` counter) rather than
//! an invisible stall.
//!
//! # Dead workers
//!
//! A worker unwound by a panicking mutator never answers the operations
//! it still holds, and rings no eventfd. So whenever a reap finds the
//! completion queue empty — blocking or not — the session checks each
//! shard it has tickets outstanding on, and resolves every ticket of a
//! shard whose worker has exited as [`StoreError::Disconnected`], in
//! ticket order, after absorbing whatever that worker sent before it
//! died. Every ticket ends with a result; none hangs.
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
use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{Receiver, TrySendError};
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
/// Created by [`SecureStore::session`] for a client that blocks on its
/// completions, or by [`SecureStore::session_with_wake`] for an event
/// loop that waits on the session's eventfd. A session is
/// single-threaded (methods take `&mut self`) and `Send`; open one
/// session per client thread — sessions are cheap, and any number
/// coexist with each other and with blocking callers.
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
    store: &'a SecureStore,
    window: usize,
    next_seq: u64,
    /// Where every submission's result goes: this session's completion
    /// queue and, for an event loop, the eventfd a worker rings after
    /// each message.
    route: Arc<Route>,
    rx: Receiver<Vec<Completion>>,
    /// The kernel-visible readiness signal the route rings
    /// ([`SecureStore::session_with_wake`] sessions only).
    wake: Option<Arc<WakeFd>>,
    /// Per shard, the tickets submitted and not yet received back, in
    /// submission order: the in-flight window, and the tickets to
    /// resolve should that shard's worker die.
    in_flight: Vec<VecDeque<u64>>,
    /// Completed-but-unreaped results in arrival order.
    done: VecDeque<(Ticket, Result<StoreValue, StoreError>)>,
    stats: SessionStats,
}

impl std::fmt::Debug for Session<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("window", &self.window)
            .field("in_flight", &self.in_flight())
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
    /// Opens a session on `store`; a worker rings `wake`, when given,
    /// after each message it sends the session.
    ///
    /// # Panics
    ///
    /// Panics if `config.in_flight_window` is zero.
    pub(crate) fn new(
        store: &'a SecureStore,
        config: SessionConfig,
        wake: Option<Arc<WakeFd>>,
    ) -> Self {
        assert!(
            config.in_flight_window > 0,
            "the in-flight window must admit at least one operation"
        );
        let shards = store.config.shards;
        // Every message carries at least one outstanding completion, so
        // this many always fit: workers never block on a send, no matter
        // how lazily the client reaps.
        let (route, rx) = Route::channel(shards * config.in_flight_window, wake.clone());
        Self {
            store,
            window: config.in_flight_window,
            next_seq: 1,
            route,
            rx,
            wake,
            in_flight: vec![VecDeque::new(); shards],
            done: VecDeque::new(),
            stats: SessionStats::default(),
        }
    }

    /// The per-shard in-flight window.
    #[must_use]
    pub fn window(&self) -> usize {
        self.window
    }

    /// Operations submitted and not yet reaped, across all shards.
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.in_flight.iter().map(VecDeque::len).sum()
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
    /// [`wait`](Session::wait)/[`wait_any`](Session::wait_any)/
    /// [`try_recv_all`](Session::try_recv_all).
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
        let (shard, op) = self.store.route(op)?;
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
        let (shard, op) = self.store.route_rmw(addr, f)?;
        self.submit_op(shard, op)
    }

    /// The one pipelined submit path. Nothing here waits: a quarantined
    /// shard, a full window and a full queue each bounce the operation
    /// (counted in the shard's `overloads`) without holding a slot.
    fn submit_op(&mut self, shard: usize, op: Op) -> Result<Ticket, StoreError> {
        // Opportunistically absorb finished work first: a steady-state
        // submit loop never has to call a wait method just to free its
        // window.
        self.reap(Duration::ZERO);
        let sh = &self.store.shared[shard];
        if sh.poisoned.load(Ordering::Relaxed) {
            // Don't burn a queue slot on an operation the worker would
            // only bounce.
            sh.overloads.fetch_add(1, Ordering::Relaxed);
            return Err(StoreError::ShardPoisoned { shard, cause: None });
        }
        if self.in_flight[shard].len() >= self.window {
            sh.overloads.fetch_add(1, Ordering::Relaxed);
            self.stats.window_rejections += 1;
            return Err(StoreError::Overloaded { shard });
        }
        let seq = self.next_seq;
        let request = Request::Op {
            op,
            seq,
            enqueued: Instant::now(),
            route: Arc::clone(&self.route),
        };
        match self.store.senders[shard].try_send(request) {
            Ok(()) => {}
            Err(TrySendError::Full(_)) => {
                sh.overloads.fetch_add(1, Ordering::Relaxed);
                return Err(StoreError::Overloaded { shard });
            }
            Err(TrySendError::Disconnected(_)) => {
                return Err(StoreError::Disconnected { shard });
            }
        }
        sh.depth.fetch_add(1, Ordering::Relaxed);
        self.next_seq += 1;
        self.in_flight[shard].push_back(seq);
        self.stats.submitted += 1;
        self.stats.in_flight_depth.record(self.in_flight() as u64);
        Ok(Ticket(seq))
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
                self.in_flight
                    .iter()
                    .any(|tickets| tickets.contains(&ticket.0)),
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
        while self.done.is_empty() && self.in_flight() > 0 {
            self.reap(LIVENESS_POLL);
        }
        self.done.pop_front()
    }

    /// Drains the pipeline: blocks until every outstanding operation has
    /// completed and returns all unreaped results in completion order.
    pub fn wait_all(&mut self) -> Vec<(Ticket, Result<StoreValue, StoreError>)> {
        let mut results = Vec::with_capacity(self.done.len() + self.in_flight());
        while let Some(entry) = self.wait_any() {
            results.push(entry);
        }
        results
    }

    /// Returns every completion available right now without blocking,
    /// in arrival (per-shard FIFO) order. The event-driven reap: a loop
    /// woken by this session's [`wake_fd`](Self::wake_fd) calls
    /// [`drain_wake`](Self::drain_wake) then this, and the drain-first
    /// order guarantees no completion is ever stranded (one that lands
    /// between the two re-rings the wakeup). A dead worker rings
    /// nothing, so a loop with tickets in flight also calls this now
    /// and then without a wakeup: that is how it learns of them.
    pub fn try_recv_all(&mut self) -> Vec<(Ticket, Result<StoreValue, StoreError>)> {
        self.reap(Duration::ZERO);
        self.done.drain(..).collect()
    }

    /// The raw wake descriptor to register in an `epoll(7)` interest
    /// set, for sessions opened with
    /// [`SecureStore::session_with_wake`]; `None` otherwise, and on
    /// hosts without eventfd.
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

    /// Absorbs every completion that has arrived, after waiting up to
    /// `patience` for the first. A reap that finds nothing resolves the
    /// tickets no live worker will ever answer.
    fn reap(&mut self, patience: Duration) {
        let first = if patience.is_zero() {
            self.rx.try_recv().ok()
        } else {
            self.rx.recv_timeout(patience).ok()
        };
        match first {
            Some(burst) => self.absorb(burst),
            None => self.resolve_orphans(),
        }
    }

    /// Takes in `burst` and every message queued behind it as one drain
    /// burst, each completion leaving its shard's in-flight queue.
    fn absorb(&mut self, mut burst: Vec<Completion>) {
        while let Ok(more) = self.rx.try_recv() {
            burst.extend(more);
        }
        self.stats.completion_batch.record(burst.len() as u64);
        for completion in burst {
            // Per-shard FIFO makes this the front, but position keeps
            // the bookkeeping honest whatever the order.
            let tickets = &mut self.in_flight[completion.shard];
            if let Some(pos) = tickets.iter().position(|&seq| seq == completion.seq) {
                tickets.remove(pos);
            }
            self.stats.completed += 1;
            self.stats.queue_wait_ns.record(completion.queue_ns);
            self.stats.service_ns.record(completion.service_ns);
            let result = completion.result.map(to_value);
            self.done.push_back((Ticket(completion.seq), result));
        }
    }

    /// Resolves every in-flight ticket of a shard whose worker has
    /// exited (a panicking mutator; shutdown and crashes need the store,
    /// which this session borrows) as [`StoreError::Disconnected`], in
    /// ticket order — after absorbing whatever the worker sent before
    /// it died.
    fn resolve_orphans(&mut self) {
        for shard in 0..self.in_flight.len() {
            if self.in_flight[shard].is_empty()
                || !self.store.shared[shard].gone.load(Ordering::Acquire)
            {
                continue;
            }
            // The worker set `gone` after its last send: all it ever sent
            // is queued now.
            if let Ok(burst) = self.rx.try_recv() {
                self.absorb(burst);
            }
            let disconnected = Err(StoreError::Disconnected { shard });
            let orphans = self.in_flight[shard].drain(..);
            self.done
                .extend(orphans.map(|seq| (Ticket(seq), disconnected)));
        }
    }

    fn take_done(&mut self, ticket: Ticket) -> Option<Result<StoreValue, StoreError>> {
        let pos = self.done.iter().position(|(t, _)| *t == ticket)?;
        self.done.remove(pos).map(|(_, result)| result)
    }
}

impl SecureStore {
    /// Opens a pipelined [`Session`] for an event loop: its completion
    /// queue is paired with a kernel-visible [`WakeFd`] that a shard
    /// worker rings once per message it sends the session — at most
    /// once per service wakeup — after the send, exposed by
    /// [`Session::wake_fd`] for registration in an `epoll(7)` interest
    /// set. This is what lets one event-loop thread block in
    /// `epoll_wait` over many sessions *and* their sockets at once —
    /// the reactor's completion path; it reaps with
    /// [`Session::drain_wake`] then [`Session::try_recv_all`]. When the
    /// host has no eventfd, `wake_fd()` is `None` and the caller must
    /// refuse the session or poll; there is no silent half-working
    /// state.
    ///
    /// # Panics
    ///
    /// Panics if `config.in_flight_window` is zero.
    #[must_use]
    pub fn session_with_wake(&self, config: SessionConfig) -> Session<'_> {
        Session::new(self, config, WakeFd::new().map(Arc::new))
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
        let store = store(2);
        let mut session = store.session_with(SessionConfig {
            in_flight_window: 4,
        });
        // Jam shard 0 so nothing of it completes while we fill its window.
        let (gate_tx, gate_rx) = std::sync::mpsc::sync_channel::<()>(1);
        let (in_tx, in_rx) = std::sync::mpsc::sync_channel::<()>(1);
        let jam = session
            .submit_rmw(0, move |_| {
                let _ = in_tx.send(());
                let _ = gate_rx.recv();
            })
            .unwrap();
        in_rx.recv().unwrap();
        // Even blocks live on shard 0.
        for b in 1..4u64 {
            session
                .submit(StoreOp::Write {
                    addr: b * 128,
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
        // The full window is shard 0's alone: shard 1 still admits, and
        // its completion frees none of shard 0's slots.
        let other = session.submit(StoreOp::Read { addr: 64 }).unwrap();
        assert_eq!(session.wait(other), Ok(StoreValue::Data([0; 64])));
        assert_eq!(
            session.submit(StoreOp::Read { addr: 0 }),
            Err(StoreError::Overloaded { shard: 0 })
        );
        assert_eq!(session.stats().window_rejections, 2);
        assert_eq!(store.overloads(1), 0);
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

    /// Submits an RMW of `addr` whose mutator holds its shard's worker
    /// until the returned gate is opened, and returns once the worker is
    /// inside it: whatever is submitted to that shard meanwhile is
    /// served in a later wakeup, after the held RMW's reply is released.
    fn hold(session: &mut Session<'_>, addr: u64) -> (Ticket, std::sync::mpsc::SyncSender<()>) {
        let (entered_tx, entered_rx) = std::sync::mpsc::sync_channel::<()>(1);
        let (gate_tx, gate_rx) = std::sync::mpsc::sync_channel::<()>(1);
        let ticket = session
            .submit_rmw(addr, move |_| {
                entered_tx.send(()).unwrap();
                let _ = gate_rx.recv();
            })
            .unwrap();
        entered_rx.recv().unwrap();
        (ticket, gate_tx)
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
        // Shard 0's worker is held inside a gated RMW while the doomed
        // RMW and the write behind it are queued, so neither submit can
        // find the worker already dead.
        let (jam, gate) = hold(&mut session, 256);
        let doomed = session.submit_rmw(0, |_| panic!("mutator panics")).unwrap();
        let behind = session.submit(write(128)).unwrap();
        gate.send(()).unwrap();
        // Queued behind the panic (or sent after it): returns once the
        // worker is gone.
        assert_eq!(store.read(0), Err(StoreError::Disconnected { shard: 0 }));
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

    /// The event-loop reap alone — `drain_wake` then `try_recv_all`,
    /// never a blocking wait — resolves a dead worker's tickets: the
    /// worker rings no eventfd for them, so the non-blocking reap must
    /// find them itself.
    #[test]
    fn a_dead_worker_resolves_without_a_blocking_wait() {
        let store = store(2);
        let mut session = store.session_with_wake(SessionConfig::default());
        let write = |addr| StoreOp::Write {
            addr,
            data: [3; 64],
        };
        let (held, gate) = hold(&mut session, 256);
        let doomed = session.submit_rmw(0, |_| panic!("mutator panics")).unwrap();
        let behind = session.submit(write(128)).unwrap();
        let healthy = session.submit(write(64)).unwrap();
        gate.send(()).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut reaped = Vec::new();
        while reaped.len() < 4 && Instant::now() < deadline {
            session.drain_wake();
            reaped.extend(session.try_recv_all());
            std::thread::sleep(Duration::from_millis(1));
        }
        reaped.sort_unstable_by_key(|&(ticket, _)| ticket);
        let (ticket, result) = reaped.remove(0);
        assert_eq!(ticket, held);
        assert!(matches!(result, Ok(StoreValue::Modified(_))), "{result:?}");
        assert_eq!(
            reaped,
            vec![
                (doomed, Err(StoreError::Disconnected { shard: 0 })),
                (behind, Err(StoreError::Disconnected { shard: 0 })),
                (healthy, Ok(StoreValue::Written)),
            ]
        );
        assert_eq!(session.in_flight(), 0);
        drop(session);
        let report = store.shutdown();
        assert!(!report.shards[0].resealed);
    }

    #[test]
    fn session_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Session<'_>>();
    }
}
