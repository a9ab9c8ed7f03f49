//! Event-driven connection serving: a fixed pool of epoll loops.
//!
//! A thread per connection stops scaling past a few hundred clients:
//! the scheduler, stacks, and context switches dominate. This module
//! serves the wire protocol from a **fixed** pool of event-loop threads:
//! every connection is a nonblocking state machine owned by exactly one
//! loop, and the loop
//! blocks in a single `epoll_wait` over all of its sockets *plus* one
//! eventfd per open session (see
//! [`SecureStore::session_with_wake`](ame_store::SecureStore::session_with_wake))
//! so shard workers can rouse it the moment a completion lands. No
//! thread ever blocks on a socket or a channel.
//!
//! # Connection state machine
//!
//! ```text
//!            frame ≠ HELLO / refusal
//! Handshake ────────────────────────────► Flush ──► closed
//!     │ HELLO granted                       ▲
//!     ▼                                     │ nothing in flight
//!   Open (session) ─────────────────────────┘
//!     GOODBYE/EOF/shutdown: stop submitting, drain in-flight
//! ```
//!
//! Reads land straight in a per-connection buffer (partial frames are
//! normal — a frame may arrive one byte at a time); every complete frame
//! in it is parsed in place and the consumed prefix dropped once per
//! pass. Responses accumulate into a write buffer flushed until
//! `EWOULDBLOCK`, with `EPOLLOUT` interest registered only while that
//! buffer is non-empty. A loop pass handles every ready event first and
//! then advances each connection it touched once, so a connection whose
//! socket and session both fired pays one flush for all of it. Both buffers
//! are bounded: once the write buffer passes [`WBUF_STALL`] the
//! connection stops parsing (and stops reading — `EPOLLIN` interest
//! drops, so TCP pushes back) until the peer drains its responses. A
//! stalled or hostile peer therefore costs its own *bounded* buffers,
//! never a thread and never unbounded server memory.
//!
//! Store saturation (`StoreError::Overloaded`, from the shared shard
//! queue or the session window) is **backpressure, not an error**: the
//! refused op is parked, `EPOLLIN` interest drops so TCP pushes back on
//! the peer, and every loop tick retries parked ops until the store
//! breathes — a valid operation is never bounced.
//!
//! # Wakeup path
//!
//! A shard worker rings a session's eventfd once per service wakeup,
//! *after* sending the session one message holding every completion of
//! that wakeup.
//! The loop handles a wake event by draining the eventfd
//! **first** and then reaping everything
//! ([`Session::try_recv_all`](ame_store::Session::try_recv_all)):
//! a completion that lands between the reap and the next `epoll_wait`
//! re-rings the fd, so nothing is ever stranded. A worker that dies
//! rings nothing, so at most once per poll interval the loop also reaps
//! every session with operations in flight: the reap answers a dead
//! shard's operations with a typed `Disconnected`, and no connection
//! waits forever on them.
//!
//! Admission (HELLO policy), frame parsing, and operation decode live
//! in [`crate::server`] next to the tenant state they consult.

use crate::protocol::{
    self, code, encode_frame, encode_server_error, encode_store_error, op, try_parse_frame,
    write_frame, Frame, FrameRef, WireError,
};
use crate::server::{
    evaluate_hello, exec_tamper, submit_op, ConnEnd, ConnectionSlot, HelloDecision, Shared,
    Submitted, Tenant,
};
use crate::sys::{
    read_append, Epoll, EpollEvent, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP,
};
use ame_store::{Session, SessionConfig, StoreError, StoreValue, Ticket, WakeFd};
use std::collections::{HashMap, HashSet};
use std::io::{ErrorKind, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Token for the loop's own injection eventfd. Connection tokens are
/// `id << 1 | {0 socket, 1 session wake}` with ids counting from zero,
/// so the all-ones token can never collide.
const INJECT_TOKEN: u64 = u64::MAX;

/// Readiness events fetched per `epoll_wait` call.
const EVENT_BATCH: usize = 256;

/// Socket read granularity.
const READ_CHUNK: usize = 4096;

/// Fairness bound: chunks read per readiness event before yielding to
/// other connections (level-triggered epoll re-reports the remainder).
const MAX_CHUNKS_PER_EVENT: usize = 16;

/// Write-buffer occupancy past which a connection stops admitting input:
/// parsing pauses and `EPOLLIN` interest drops until the peer reads its
/// responses down. Without this a peer that streams frames (each earning
/// a response) but never reads its socket grows `wbuf` without limit:
/// nonblocking writes give no natural backpressure, so the reactor
/// imposes the bound explicitly. A single oversized
/// response may overshoot the threshold; the stall then holds until the
/// flush brings it back under.
const WBUF_STALL: usize = 256 * 1024;

/// How long a draining reactor waits for peers to read their final
/// responses before force-closing them. Without a deadline, one peer
/// that never reads (write buffer full, socket alive) keeps its
/// connection — and therefore `Server::close` — hanging forever.
const DRAIN_GRACE: Duration = Duration::from_secs(5);

/// The accept thread's handle on the reactor: one injector per loop.
pub(crate) struct ReactorPool {
    injectors: Vec<Injector>,
    next: AtomicUsize,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

struct Injector {
    tx: Sender<TcpStream>,
    wake: Arc<WakeFd>,
}

/// Everything one event-loop thread owns, built before the thread
/// spawns so a host without epoll/eventfd fails `Server::bind` up
/// front instead of half-starting.
pub(crate) struct ReactorSeed {
    rx: Receiver<TcpStream>,
    wake: Arc<WakeFd>,
    epoll: Epoll,
}

/// Builds the pool plus one seed per loop. `None` means the host cannot
/// run a reactor (no epoll or no eventfd) — `Server::bind` reports it
/// as `Unsupported`.
pub(crate) fn prepare(threads: usize) -> Option<(ReactorPool, Vec<ReactorSeed>)> {
    let mut injectors = Vec::with_capacity(threads);
    let mut seeds = Vec::with_capacity(threads);
    for _ in 0..threads {
        let epoll = Epoll::new()?;
        let wake = Arc::new(WakeFd::new()?);
        if !epoll.add(wake.raw_fd(), EPOLLIN, INJECT_TOKEN) {
            return None;
        }
        let (tx, rx) = channel();
        injectors.push(Injector {
            tx,
            wake: Arc::clone(&wake),
        });
        seeds.push(ReactorSeed { rx, wake, epoll });
    }
    Some((
        ReactorPool {
            injectors,
            next: AtomicUsize::new(0),
            handles: Mutex::new(Vec::new()),
        },
        seeds,
    ))
}

impl ReactorPool {
    /// Event-loop thread count.
    pub(crate) fn threads(&self) -> usize {
        self.injectors.len()
    }

    pub(crate) fn push_handle(&self, handle: JoinHandle<()>) {
        self.handles.lock().unwrap().push(handle);
    }

    pub(crate) fn take_handles(&self) -> Vec<JoinHandle<()>> {
        std::mem::take(&mut *self.handles.lock().unwrap())
    }

    /// Hands an accepted connection to the next loop, round-robin.
    pub(crate) fn dispatch(&self, stream: TcpStream) {
        let i = self.next.fetch_add(1, Ordering::Relaxed) % self.injectors.len();
        let injector = &self.injectors[i];
        if injector.tx.send(stream).is_ok() {
            injector.wake.signal();
        }
    }

    /// Rouses every loop (shutdown: they re-check the flag on wake).
    pub(crate) fn wake_all(&self) {
        for injector in &self.injectors {
            injector.wake.signal();
        }
    }
}

/// Entry point of one `ame-server-reactor` thread.
pub(crate) fn reactor_thread(shared: &Arc<Shared>, seed: ReactorSeed) {
    let ReactorSeed { rx, wake, epoll } = seed;
    reactor_loop(shared, &rx, &wake, &epoll);
}

/// An open session: the store-facing half of one granted connection.
struct Pipe<'a> {
    /// The session's share of the tenant's connection quota, handed back
    /// when the pipe is dropped.
    _slot: ConnectionSlot<'a>,
    session: Session<'a>,
    /// The request id each in-flight ticket answers.
    by_ticket: HashMap<Ticket, u64>,
    ids: HashSet<u64>,
    /// The session eventfd registered in the loop's interest set.
    wake_fd: i32,
}

// `Open` is the state a connection spends its life in, so sizing every
// `Conn` for it wastes nothing; boxing the pipe would add an allocation
// per session and a pointer chase to every operation on the hot path.
#[allow(clippy::large_enum_variant)]
enum State<'a> {
    /// Waiting for a well-formed HELLO.
    Handshake,
    /// Granted: streaming operations through a session.
    Open(Pipe<'a>),
    /// Session over (or never granted): write buffer drains, then close.
    Flush,
}

/// One connection owned by one event loop. No locks: a connection is
/// only ever touched by its owning thread.
struct Conn<'a> {
    stream: TcpStream,
    id: u64,
    /// The tenant granted at HELLO; its counters take this connection's
    /// operations and socket calls.
    tenant: Option<&'a Tenant>,
    /// Set while the connection waits in this loop pass's advance list.
    touched: bool,
    /// Accumulated unparsed input (partial frames live here).
    rbuf: Vec<u8>,
    /// Responses not yet accepted by the socket.
    wbuf: Vec<u8>,
    /// The interest mask currently registered for the socket.
    mask: u32,
    state: State<'a>,
    /// A dup-checked operation the store refused with `Overloaded`.
    /// Backpressure, not an error: parsing and `EPOLLIN` interest stop
    /// (TCP pushes back on the peer) until a retry lands it.
    stalled: Option<Frame>,
    /// `Some` once the connection stopped admitting frames; the variant
    /// decides the closing notice (only `Shutdown` sends one).
    end: Option<ConnEnd>,
    eof: bool,
    peer_gone: bool,
    closed: bool,
}

#[cfg(unix)]
fn raw_fd(stream: &TcpStream) -> i32 {
    use std::os::fd::AsRawFd;
    stream.as_raw_fd()
}

#[cfg(not(unix))]
fn raw_fd(_stream: &TcpStream) -> i32 {
    // Unreachable in practice: `prepare` already failed on non-unix
    // hosts, so no reactor loop ever runs.
    -1
}

fn reactor_loop<'a>(
    shared: &'a Shared,
    rx: &Receiver<TcpStream>,
    inject_wake: &WakeFd,
    epoll: &Epoll,
) {
    let mut conns: HashMap<u64, Conn<'a>> = HashMap::new();
    let mut next_id: u64 = 0;
    let mut events = vec![EpollEvent::default(); EVENT_BATCH];
    let mut touched: Vec<u64> = Vec::new();
    let mut draining = false;
    let mut drain_deadline: Option<Instant> = None;
    let mut next_sweep = Instant::now() + shared.poll_interval;
    loop {
        let n = match epoll.wait(&mut events, timeout_ms(shared.poll_interval)) {
            Ok(n) => n,
            Err(errno) => {
                // A fatal wait error (EBADF, EINVAL, …) never clears on
                // retry: no readiness would ever be observed again, so
                // every connection this loop owns is already dead in all
                // but name. Fail loudly — dropped streams reset, which a
                // client can detect; a silent poll-interval spin it
                // cannot. Dropping `conns` closes every socket and
                // releases every session (safe mid-flight).
                eprintln!(
                    "ame-server: reactor epoll_wait failed (errno {errno}); \
                     dropping {} connections and exiting the loop",
                    conns.len()
                );
                return;
            }
        };
        let ready = &events[..n];

        if ready.iter().any(|e| e.token() == INJECT_TOKEN) {
            inject_wake.drain();
        }
        // Drain the injection queue every iteration (wake signals
        // coalesce, so one event may cover many handoffs).
        while let Ok(stream) = rx.try_recv() {
            if shared.shutdown.load(Ordering::SeqCst) {
                let _ = write_frame(&mut &stream, code::SHUTTING_DOWN, 0, &[]);
                continue;
            }
            admit(epoll, &mut conns, &mut next_id, stream);
        }

        if shared.shutdown.load(Ordering::SeqCst) && !draining {
            draining = true;
            drain_deadline = Some(Instant::now() + DRAIN_GRACE);
            for conn in conns.values_mut() {
                begin_shutdown(conn, shared.max_frame);
                // Idle connections get no further events; push them
                // through notice + flush + close right now.
                advance(conn, shared, epoll);
            }
        }

        for event in ready {
            let token = event.token();
            if token == INJECT_TOKEN {
                continue;
            }
            let id = token >> 1;
            let Some(conn) = conns.get_mut(&id) else {
                // Stale event for a connection closed in an earlier pass
                // (tokens are ids, never reused).
                continue;
            };
            if conn.closed {
                continue;
            }
            if token & 1 == 1 {
                reap_session(conn);
            } else {
                on_socket(conn, event.events(), shared, epoll);
            }
            if !conn.touched {
                conn.touched = true;
                touched.push(id);
            }
        }
        // Every event of the pass is in: one advance — so one flush — per
        // connection, however many of its events (socket and session
        // wake) the pass handled.
        for id in touched.drain(..) {
            if let Some(conn) = conns.get_mut(&id) {
                conn.touched = false;
                advance(conn, shared, epoll);
            }
        }

        // Backpressure retry: a stall caused by *other* sessions
        // saturating a shard queue never rings this connection's
        // eventfd, so parked ops are retried every tick (the loop always
        // returns within `poll_interval`, and runs hot under the very
        // load that causes stalls).
        for conn in conns.values_mut() {
            if conn.closed || conn.stalled.is_none() {
                continue;
            }
            retry_stalled(conn, shared, epoll);
            advance(conn, shared, epoll);
        }

        // A worker that dies rings no eventfd: at most once per poll
        // interval, reap every session with operations in flight, which
        // answers a dead shard's operations with a typed error.
        let now = Instant::now();
        if now >= next_sweep {
            next_sweep = now + shared.poll_interval;
            for conn in conns.values_mut() {
                let in_flight =
                    matches!(&conn.state, State::Open(pipe) if pipe.session.in_flight() > 0);
                if in_flight && !conn.closed {
                    reap_session(conn);
                    advance(conn, shared, epoll);
                }
            }
        }

        // Drain deadline: past the grace period, peers that still have
        // not read their final responses (or whose in-flight completions
        // somehow have not landed) are force-closed so shutdown cannot
        // hang on one unread socket. Everything acked *and readable* was
        // already delivered; what remains is undeliverable by the peer's
        // own choice.
        if draining && drain_deadline.is_some_and(|d| Instant::now() >= d) {
            for conn in conns.values_mut() {
                force_close(conn, epoll);
            }
        }

        conns.retain(|_, conn| !conn.closed);

        if draining && conns.is_empty() {
            // Late handoffs raced the shutdown flag: refuse them.
            while let Ok(stream) = rx.try_recv() {
                let _ = write_frame(&mut &stream, code::SHUTTING_DOWN, 0, &[]);
            }
            return;
        }
    }
}

fn timeout_ms(poll_interval: Duration) -> i32 {
    poll_interval.as_millis().clamp(1, i32::MAX as u128) as i32
}

fn admit<'a>(
    epoll: &Epoll,
    conns: &mut HashMap<u64, Conn<'a>>,
    next_id: &mut u64,
    stream: TcpStream,
) {
    let _ = stream.set_nodelay(true);
    if stream.set_nonblocking(true).is_err() {
        return;
    }
    let id = *next_id;
    *next_id += 1;
    if !epoll.add(raw_fd(&stream), EPOLLIN | EPOLLRDHUP, id << 1) {
        return; // dropping the stream closes it
    }
    conns.insert(
        id,
        Conn {
            stream,
            id,
            tenant: None,
            touched: false,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            mask: EPOLLIN | EPOLLRDHUP,
            state: State::Handshake,
            stalled: None,
            end: None,
            eof: false,
            peer_gone: false,
            closed: false,
        },
    );
}

fn queue_wire_err(wbuf: &mut Vec<u8>, req_id: u64, e: &WireError) {
    let (tag, payload) = encode_server_error(e);
    encode_frame(wbuf, tag, req_id, &payload);
}

fn on_socket<'a>(conn: &mut Conn<'a>, evs: u32, shared: &'a Shared, epoll: &Epoll) {
    if evs & (EPOLLERR | EPOLLHUP) != 0 {
        conn.peer_gone = true;
    }
    if evs & (EPOLLIN | EPOLLRDHUP) != 0 {
        read_some(conn);
        if conn.end.is_none() {
            process_frames(conn, shared, epoll);
        } else {
            // Draining: bytes are read only to notice EOF.
            conn.rbuf.clear();
        }
    }
    // `EPOLLOUT` needs no work here: the pass's `advance` flushes.
}

fn read_some(conn: &mut Conn<'_>) {
    for _ in 0..MAX_CHUNKS_PER_EVENT {
        let read = read_append(raw_fd(&conn.stream), &mut conn.rbuf, READ_CHUNK);
        if let Some(tenant) = conn.tenant {
            tenant.counters.socket_reads.fetch_add(1, Ordering::Relaxed);
        }
        match read {
            Ok(0) => {
                conn.eof = true;
                return;
            }
            Ok(n) => {
                if n < READ_CHUNK {
                    return;
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => {
                conn.eof = true;
                conn.peer_gone = true;
                return;
            }
        }
    }
}

fn flush_wbuf(conn: &mut Conn<'_>) {
    while !conn.wbuf.is_empty() {
        let written = conn.stream.write(&conn.wbuf);
        if let Some(tenant) = conn.tenant {
            tenant
                .counters
                .socket_writes
                .fetch_add(1, Ordering::Relaxed);
        }
        match written {
            Ok(0) => {
                conn.peer_gone = true;
                break;
            }
            Ok(n) => {
                conn.wbuf.drain(..n);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => {
                conn.peer_gone = true;
                break;
            }
        }
    }
    if conn.peer_gone {
        // Nothing queued can ever be delivered.
        conn.wbuf.clear();
    }
}

/// Handles every complete frame buffered in `rbuf`, parsed in place by
/// offset; the consumed prefix is dropped once, at the end.
fn process_frames<'a>(conn: &mut Conn<'a>, shared: &'a Shared, epoll: &Epoll) {
    // The handlers borrow the connection mutably while frames borrow the
    // input, so the input is held outside the connection for the pass.
    let rbuf = std::mem::take(&mut conn.rbuf);
    let mut parsed = 0;
    // The `wbuf` bound is backpressure on a peer that sends but never
    // reads: parsing pauses here and `advance` drops `EPOLLIN` interest;
    // once a flush brings the buffer back under the threshold, `advance`
    // resumes parsing whatever input accumulated behind the stall.
    while conn.end.is_none() && conn.stalled.is_none() && conn.wbuf.len() < WBUF_STALL {
        let frame = match try_parse_frame(&rbuf[parsed..], shared.max_frame) {
            Ok(Some(frame)) => frame,
            Ok(None) => break,
            Err(_) => {
                match conn.tenant {
                    Some(tenant) => {
                        tenant.counters.bad_frames.fetch_add(1, Ordering::Relaxed);
                    }
                    None => {
                        shared
                            .counters
                            .pre_hello_failures
                            .fetch_add(1, Ordering::Relaxed);
                    }
                }
                queue_wire_err(&mut conn.wbuf, 0, &WireError::BadFrame);
                begin_drain(conn, ConnEnd::Malformed);
                break;
            }
        };
        parsed += frame.wire_len();
        if let Some(why) = handle_frame(conn, frame, shared, epoll) {
            begin_drain(conn, why);
        }
    }
    conn.rbuf = rbuf;
    if conn.end.is_some() {
        // The drain began this pass: buffered input is never admitted.
        conn.rbuf.clear();
    } else {
        conn.rbuf.drain(..parsed);
    }
}

/// Dispatches one well-formed frame. `Some(end)` asks the caller to
/// stop admitting and begin the drain.
fn handle_frame<'a>(
    conn: &mut Conn<'a>,
    frame: FrameRef<'_>,
    shared: &'a Shared,
    epoll: &Epoll,
) -> Option<ConnEnd> {
    match &conn.state {
        State::Handshake => handle_hello(conn, frame, shared, epoll),
        State::Open(_) => handle_op(conn, frame),
        State::Flush => None,
    }
}

fn handle_hello<'a>(
    conn: &mut Conn<'a>,
    frame: FrameRef<'_>,
    shared: &'a Shared,
    epoll: &Epoll,
) -> Option<ConnEnd> {
    match evaluate_hello(shared, frame) {
        HelloDecision::Grant {
            tenant,
            slot,
            window,
            reply,
        } => {
            let session = tenant.store.session_with_wake(SessionConfig {
                in_flight_window: window,
            });
            let Some(wake_fd) = session.wake_fd() else {
                // No eventfd for this session (fd exhaustion): the loop
                // would never learn about completions, so refuse rather
                // than serve a half-working connection.
                tenant
                    .counters
                    .quota_rejections
                    .fetch_add(1, Ordering::Relaxed);
                queue_wire_err(&mut conn.wbuf, frame.req_id, &WireError::QuotaExceeded);
                return Some(ConnEnd::Goodbye);
            };
            if !epoll.add(wake_fd, EPOLLIN, (conn.id << 1) | 1) {
                tenant
                    .counters
                    .quota_rejections
                    .fetch_add(1, Ordering::Relaxed);
                queue_wire_err(&mut conn.wbuf, frame.req_id, &WireError::QuotaExceeded);
                return Some(ConnEnd::Goodbye);
            }
            tenant
                .counters
                .connections_accepted
                .fetch_add(1, Ordering::Relaxed);
            encode_frame(&mut conn.wbuf, protocol::STATUS_OK, frame.req_id, &reply);
            conn.tenant = Some(tenant);
            conn.state = State::Open(Pipe {
                _slot: slot,
                session,
                by_ticket: HashMap::new(),
                ids: HashSet::new(),
                wake_fd,
            });
            None
        }
        HelloDecision::Refuse(e) => {
            queue_wire_err(&mut conn.wbuf, frame.req_id, &e);
            Some(ConnEnd::Goodbye)
        }
    }
}

/// Dispatches one frame on an open session: opcodes, counters and
/// duplicate-id rules; rejections and synchronous replies land in the
/// write buffer.
fn handle_op(conn: &mut Conn<'_>, frame: FrameRef<'_>) -> Option<ConnEnd> {
    let Conn {
        ref mut wbuf,
        ref mut state,
        ref mut stalled,
        tenant,
        ..
    } = *conn;
    let (State::Open(pipe), Some(tenant)) = (state, tenant) else {
        return None;
    };
    match frame.tag {
        op::GOODBYE => {
            encode_frame(wbuf, protocol::STATUS_OK, frame.req_id, &[]);
            Some(ConnEnd::Goodbye)
        }
        op::READ | op::WRITE | op::CAS => {
            if !pipe.ids.insert(frame.req_id) {
                tenant
                    .counters
                    .duplicate_request_ids
                    .fetch_add(1, Ordering::Relaxed);
                queue_wire_err(wbuf, frame.req_id, &WireError::DuplicateRequestId);
                return None;
            }
            if submit_checked(pipe, tenant, wbuf, frame) {
                // The only frame that outlives the read buffer.
                *stalled = Some(frame.to_frame());
            }
            None
        }
        op::TAMPER => {
            if pipe.ids.contains(&frame.req_id) {
                tenant
                    .counters
                    .duplicate_request_ids
                    .fetch_add(1, Ordering::Relaxed);
                queue_wire_err(wbuf, frame.req_id, &WireError::DuplicateRequestId);
            } else {
                let (tag, payload) = exec_tamper(tenant, frame);
                encode_frame(wbuf, tag, frame.req_id, &payload);
            }
            None
        }
        op::HELLO => {
            tenant.counters.bad_frames.fetch_add(1, Ordering::Relaxed);
            queue_wire_err(wbuf, frame.req_id, &WireError::BadFrame);
            None
        }
        other => {
            tenant
                .counters
                .unknown_opcodes
                .fetch_add(1, Ordering::Relaxed);
            queue_wire_err(wbuf, frame.req_id, &WireError::UnknownOpcode(other));
            None
        }
    }
}

/// Submits one already-dup-checked operation frame. `true` when the
/// store is saturated ([`StoreError::Overloaded`] covers both the shared
/// shard queue and the session window): the caller parks the frame,
/// stops reading the connection, and retries on the next loop tick —
/// backpressure instead of bouncing a valid op.
fn submit_checked(
    pipe: &mut Pipe<'_>,
    tenant: &Tenant,
    wbuf: &mut Vec<u8>,
    frame: FrameRef<'_>,
) -> bool {
    match submit_op(&mut pipe.session, frame) {
        Submitted::Ticket(ticket) => {
            pipe.by_ticket.insert(ticket, frame.req_id);
            false
        }
        Submitted::Rejected(StoreError::Overloaded { .. }) => {
            tenant
                .counters
                .overload_stalls
                .fetch_add(1, Ordering::Relaxed);
            true
        }
        Submitted::Rejected(e) => {
            pipe.ids.remove(&frame.req_id);
            tenant.counters.ops_err.fetch_add(1, Ordering::Relaxed);
            let (tag, payload) = encode_store_error(&e);
            encode_frame(wbuf, tag, frame.req_id, &payload);
            false
        }
        Submitted::Malformed => {
            pipe.ids.remove(&frame.req_id);
            tenant.counters.bad_frames.fetch_add(1, Ordering::Relaxed);
            queue_wire_err(wbuf, frame.req_id, &WireError::BadFrame);
            false
        }
    }
}

/// Retries a parked operation; on success, resumes parsing whatever
/// buffered input accumulated behind it.
fn retry_stalled<'a>(conn: &mut Conn<'a>, shared: &'a Shared, epoll: &Epoll) {
    let Some(frame) = conn.stalled.take() else {
        return;
    };
    {
        let Conn {
            ref mut wbuf,
            ref mut state,
            ref mut stalled,
            tenant,
            ..
        } = *conn;
        if let (State::Open(pipe), Some(tenant)) = (state, tenant) {
            if submit_checked(pipe, tenant, wbuf, frame.borrowed()) {
                *stalled = Some(frame);
            }
        }
        // Any other state: the connection began draining; the parked op
        // was never submitted or acked, and its peer is past caring.
    }
    if conn.stalled.is_none() && conn.end.is_none() {
        process_frames(conn, shared, epoll);
    }
}

/// Session eventfd fired (or the sweep came round): drain it *first*,
/// then reap everything. A completion that lands after the reap re-rings
/// the fd, so the drain-then-reap order can never strand a response.
fn reap_session(conn: &mut Conn<'_>) {
    let Conn {
        ref mut wbuf,
        ref mut state,
        tenant,
        ..
    } = *conn;
    let (State::Open(pipe), Some(tenant)) = (state, tenant) else {
        return;
    };
    pipe.session.drain_wake();
    for (ticket, result) in pipe.session.try_recv_all() {
        let req_id = pipe.by_ticket.remove(&ticket);
        if let Some(id) = req_id {
            pipe.ids.remove(&id);
        }
        // An unknown ticket cannot happen (every submitted ticket is
        // registered before the next event is handled), but a
        // best-effort id of 0 beats losing a response silently.
        let req_id = req_id.unwrap_or(0);
        match result {
            Ok(value) => {
                tenant.counters.ops_ok.fetch_add(1, Ordering::Relaxed);
                let payload: &[u8] = match &value {
                    StoreValue::Data(b) | StoreValue::Modified(b) => b,
                    StoreValue::Written => &[],
                };
                encode_frame(wbuf, protocol::STATUS_OK, req_id, payload);
            }
            Err(e) => {
                tenant.counters.ops_err.fetch_add(1, Ordering::Relaxed);
                let (tag, payload) = encode_store_error(&e);
                encode_frame(wbuf, tag, req_id, &payload);
            }
        }
    }
}

/// Stops admitting frames; in-flight operations still complete (acked
/// work is never dropped) and their responses still flush.
fn begin_drain(conn: &mut Conn<'_>, why: ConnEnd) {
    if conn.end.is_none() {
        conn.end = Some(why);
    }
    conn.rbuf.clear();
    // A parked op was never submitted and never acked; the drain
    // contract ("acked work is never dropped") does not cover it.
    conn.stalled = None;
    if matches!(conn.state, State::Handshake) {
        conn.state = State::Flush;
    }
}

/// The shutdown contract: buffered frames get typed rejections (never
/// silence), nothing new is admitted, in-flight completions drain, and
/// the connection ends with a shutting-down notice.
fn begin_shutdown(conn: &mut Conn<'_>, max_frame: u32) {
    if conn.end.is_some() {
        // Already ending for another reason; that drain continues.
        return;
    }
    let Conn {
        ref mut rbuf,
        ref mut wbuf,
        ref mut state,
        ref mut end,
        ref mut stalled,
        tenant,
        ..
    } = *conn;
    match state {
        State::Handshake => {
            queue_wire_err(wbuf, 0, &WireError::ShuttingDown);
            *end = Some(ConnEnd::Goodbye);
            *state = State::Flush;
        }
        State::Open(_) => {
            let mut reject = |req_id| {
                if let Some(tenant) = tenant {
                    tenant
                        .counters
                        .shutdown_rejections
                        .fetch_add(1, Ordering::Relaxed);
                }
                queue_wire_err(wbuf, req_id, &WireError::ShuttingDown);
            };
            // A parked op is a buffered frame like any other: typed
            // rejection, never silence.
            if let Some(frame) = stalled.take() {
                reject(frame.req_id);
            }
            let mut parsed = 0;
            while let Ok(Some(frame)) = try_parse_frame(&rbuf[parsed..], max_frame) {
                parsed += frame.wire_len();
                reject(frame.req_id);
            }
            *end = Some(ConnEnd::Shutdown);
        }
        State::Flush => {}
    }
    rbuf.clear();
}

/// Runs the connection's state transitions once its events of a pass
/// are handled: pipe-drain completion, write flushing, `EPOLLOUT`
/// interest, and final close.
fn advance<'a>(conn: &mut Conn<'a>, shared: &'a Shared, epoll: &Epoll) {
    // A half-closed peer may still be reading: give a parked op its
    // retries before draining. A gone peer can't receive the response
    // anyway, so its stall is dropped with the connection.
    if (conn.eof || conn.peer_gone) && conn.end.is_none() {
        if conn.peer_gone {
            conn.stalled = None;
        }
        if conn.stalled.is_none() {
            begin_drain(conn, ConnEnd::Eof);
        }
    }
    // A wbuf-bounded stall ends when the peer reads responses down:
    // flush first, then resume parsing the input that accumulated behind
    // it. (Only a stalled connection pays this second flush.)
    if conn.wbuf.len() >= WBUF_STALL {
        flush_wbuf(conn);
    }
    if conn.end.is_none()
        && conn.stalled.is_none()
        && conn.wbuf.len() < WBUF_STALL
        && !conn.rbuf.is_empty()
    {
        process_frames(conn, shared, epoll);
    }
    // An open pipe that stopped submitting and has nothing in flight has
    // delivered everything it ever acked: retire the session.
    let finished =
        conn.end.is_some() && matches!(&conn.state, State::Open(pipe) if pipe.by_ticket.is_empty());
    if finished {
        if matches!(conn.end, Some(ConnEnd::Shutdown)) {
            encode_frame(&mut conn.wbuf, code::SHUTTING_DOWN, 0, &[]);
        }
        if let State::Open(pipe) = std::mem::replace(&mut conn.state, State::Flush) {
            epoll.del(pipe.wake_fd);
            // `pipe` drops here: the quota slot is handed back, and the
            // session is released and (with the last Arc) closes the
            // eventfd.
        }
    }
    flush_wbuf(conn);
    if matches!(conn.state, State::Flush)
        && conn.end.is_some()
        && (conn.wbuf.is_empty() || conn.peer_gone)
    {
        epoll.del(raw_fd(&conn.stream));
        conn.closed = true;
        return;
    }
    // Interest tracks state: `EPOLLOUT` only while responses wait,
    // `EPOLLIN` only while neither a parked op nor a full write buffer
    // is stalling intake (either way the kernel buffer fills and TCP
    // pushes back on the peer; `EPOLLRDHUP` still reports a vanishing
    // one).
    let intake_open = conn.stalled.is_none() && conn.wbuf.len() < WBUF_STALL;
    let want = EPOLLRDHUP
        | if intake_open { EPOLLIN } else { 0 }
        | if conn.wbuf.is_empty() { 0 } else { EPOLLOUT };
    if want != conn.mask && epoll.modify(raw_fd(&conn.stream), want, conn.id << 1) {
        conn.mask = want;
    }
}

/// Drain-deadline enforcement: unconditionally ends a connection whose
/// peer has not drained its responses within the shutdown grace period.
/// Undelivered bytes are dropped — by this point they are undeliverable
/// by the peer's own refusal to read — and the session (if still open)
/// is released, which is safe even with completions in flight.
fn force_close(conn: &mut Conn<'_>, epoll: &Epoll) {
    if conn.closed {
        return;
    }
    conn.stalled = None;
    conn.wbuf.clear();
    if let State::Open(pipe) = std::mem::replace(&mut conn.state, State::Flush) {
        epoll.del(pipe.wake_fd);
    }
    if conn.end.is_none() {
        conn.end = Some(ConnEnd::Shutdown);
    }
    epoll.del(raw_fd(&conn.stream));
    conn.closed = true;
}
