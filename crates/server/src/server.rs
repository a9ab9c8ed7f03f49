//! The serving loop: a TCP listener, per-tenant stores with quotas and
//! telemetry, and two interchangeable connection-serving planes.
//!
//! # Threading model
//!
//! One accept thread, plus one of two serving modes ([`ServerMode`],
//! identical wire behaviour, no async runtime):
//!
//! * **Reactor** (the default): a small fixed pool of epoll event-loop
//!   threads (see [`crate::reactor`]); each connection is a nonblocking
//!   state machine owned by one loop, and shard workers rouse the loop
//!   through per-session eventfd wakeups when completions land. Thread
//!   count is constant no matter how many clients connect. On hosts
//!   without epoll the server falls back to threaded mode with a
//!   recorded telemetry gauge — never a silent behaviour change.
//! * **Threaded** (the PR 7 model): **two** threads per connection. The
//!   connection's *reader* thread parses frames and submits operations
//!   through a [`SessionSubmitter`]; a scoped *writer* thread blocks on
//!   the paired [`SessionReaper`] and streams completions back as they
//!   finish (out of order across shards, FIFO within one — the store's
//!   ordering contract travels the wire unchanged). Rejections that
//!   never reach the store (malformed frames, duplicate request ids,
//!   window overload) are answered inline by the reader through a
//!   shared write-half mutex.
//!
//! # Tenancy
//!
//! Every tenant is an independently keyed [`SecureStore`] (see
//! [`EngineConfig::for_tenant`](ame_engine::EngineConfig::for_tenant)):
//! a client authenticates its namespace in `Hello` and can never name
//! another tenant's blocks, and a poisoned shard in one tenant's store
//! never rejects another tenant's traffic. Per-tenant connection and
//! window quotas bound what one tenant can demand of the process, and
//! each tenant's metrics live under `server/tenant<T>/…`.
//!
//! # Shutdown
//!
//! [`Server::shutdown`] flips a flag, wakes the accept loop, and lets
//! every connection drain: readers stop admitting operations (answering
//! [`code::SHUTTING_DOWN`](crate::protocol::code::SHUTTING_DOWN)),
//! writers flush every already-submitted completion — no acked response
//! is lost — and each connection ends with a typed shutting-down notice
//! (request id 0). Only then are the stores shut down through their
//! durable checkpoint path.

use crate::protocol::{
    self, code, encode_server_error, encode_store_error, op, write_frame, Frame, FrameError,
    WireError, DEFAULT_MAX_FRAME, HEADER_BYTES, PROTOCOL_VERSION,
};
use ame_store::{
    Reaped, SecureStore, SessionConfig, SessionSubmitter, ShutdownReport, StoreConfig, StoreError,
    StoreOp, StoreValue, Ticket, BLOCK_BYTES,
};
use ame_telemetry::{Snapshot, StatsRegistry};
use std::collections::{HashMap, HashSet};
use std::io::{self, ErrorKind, Read};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// One tenant hosted by a [`Server`]: an isolated key namespace with
/// its own store and quotas.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Tenant id — the namespace clients name in `Hello`, and the
    /// `tenant` term of the per-shard key derivation.
    pub id: usize,
    /// Store shape for this tenant. The `tenant` field is overwritten
    /// with `id` at bind time, so two specs sharing a template config
    /// still get disjoint keys.
    pub config: StoreConfig,
    /// Durable root for this tenant's snapshots and logs; `None` for a
    /// volatile in-memory store.
    pub persist_dir: Option<PathBuf>,
    /// Connection quota: further `Hello`s are answered
    /// [`code::QUOTA_EXCEEDED`](crate::protocol::code::QUOTA_EXCEEDED).
    pub max_connections: usize,
    /// Ceiling on the per-shard in-flight window a connection may
    /// request; `Hello` grants `min(requested, max_window)`.
    pub max_window: usize,
}

impl TenantSpec {
    /// A tenant with default quotas (64 connections, window ≤ 64).
    #[must_use]
    pub fn new(id: usize, config: StoreConfig) -> Self {
        Self {
            id,
            config,
            persist_dir: None,
            max_connections: 64,
            max_window: 64,
        }
    }
}

/// How connections are served after `accept`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerMode {
    /// Two OS threads per connection. Simple, but thread count grows
    /// with the client population.
    Threaded,
    /// A fixed pool of epoll event-loop threads; each connection is a
    /// nonblocking state machine. Thread count stays constant no matter
    /// how many clients connect. Requires epoll + eventfd; on other
    /// hosts the server falls back to [`ServerMode::Threaded`] and
    /// records the fallback in telemetry.
    Reactor {
        /// Event-loop thread count (clamped to at least 1).
        threads: usize,
    },
}

impl ServerMode {
    /// The default reactor shape: `min(4, cores)` event-loop threads.
    #[must_use]
    pub fn reactor() -> Self {
        Self::Reactor {
            threads: default_reactor_threads(),
        }
    }

    /// `"threaded"` or `"reactor"` — the provenance string benches
    /// record next to their numbers.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Self::Threaded => "threaded",
            Self::Reactor { .. } => "reactor",
        }
    }
}

/// `min(4, available cores)`: a handful of event loops saturates the
/// store long before core count matters, and a small pool keeps the
/// constant-thread-count claim honest on big machines.
#[must_use]
pub fn default_reactor_threads() -> usize {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    cores.clamp(1, 4)
}

/// Server-wide knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// The hosted tenants. Ids must be unique.
    pub tenants: Vec<TenantSpec>,
    /// Ceiling on the frame length prefix; larger prefixes are hostile
    /// and close the connection.
    pub max_frame: u32,
    /// How often blocked reads and reaps wake to check the shutdown
    /// flag. Latency of shutdown, not of requests.
    pub poll_interval: Duration,
    /// Connection-serving plane. Defaults to the reactor.
    pub mode: ServerMode,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            tenants: Vec::new(),
            max_frame: DEFAULT_MAX_FRAME,
            poll_interval: Duration::from_millis(50),
            mode: ServerMode::reactor(),
        }
    }
}

/// Per-tenant counters, reported under `server/tenant<T>/…`.
#[derive(Debug, Default)]
pub(crate) struct TenantCounters {
    pub(crate) connections_accepted: AtomicU64,
    pub(crate) quota_rejections: AtomicU64,
    pub(crate) ops_ok: AtomicU64,
    pub(crate) ops_err: AtomicU64,
    pub(crate) bad_frames: AtomicU64,
    pub(crate) duplicate_request_ids: AtomicU64,
    pub(crate) unknown_opcodes: AtomicU64,
    pub(crate) shutdown_rejections: AtomicU64,
    /// Times a serving plane paused reading a connection because the
    /// store reported [`StoreError::Overloaded`] — backpressure applied
    /// instead of bouncing a valid operation back to the client.
    pub(crate) overload_stalls: AtomicU64,
}

pub(crate) struct Tenant {
    pub(crate) id: usize,
    pub(crate) store: SecureStore,
    pub(crate) connections: AtomicUsize,
    pub(crate) max_connections: usize,
    pub(crate) max_window: usize,
    pub(crate) counters: TenantCounters,
}

/// Server-level counters (events before a connection has a tenant).
#[derive(Debug, Default)]
pub(crate) struct ServerCounters {
    pub(crate) connections_accepted: AtomicU64,
    pub(crate) bad_version: AtomicU64,
    pub(crate) unknown_tenant: AtomicU64,
    pub(crate) pre_hello_failures: AtomicU64,
}

pub(crate) struct Shared {
    pub(crate) tenants: Vec<Tenant>,
    pub(crate) counters: ServerCounters,
    pub(crate) shutdown: AtomicBool,
    pub(crate) max_frame: u32,
    pub(crate) poll_interval: Duration,
    pub(crate) conn_handles: Mutex<Vec<JoinHandle<()>>>,
    /// `Some` when serving in reactor mode.
    pub(crate) reactor: Option<crate::reactor::ReactorPool>,
    /// True when a reactor was requested but the host has no epoll, so
    /// the server is running threaded instead.
    pub(crate) reactor_fallback: bool,
}

impl Shared {
    pub(crate) fn tenant(&self, id: usize) -> Option<&Tenant> {
        self.tenants.iter().find(|t| t.id == id)
    }
}

/// A running server. Dropping it without calling [`Server::shutdown`]
/// leaks the listener thread; call `shutdown` for an orderly drain and
/// durable checkpoint.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_handle: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server").field("addr", &self.addr).finish()
    }
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port), boots
    /// every tenant's store, and starts accepting connections.
    ///
    /// # Errors
    ///
    /// Propagates bind failures and durable-store open failures.
    ///
    /// # Panics
    ///
    /// Panics if `config.tenants` is empty or contains duplicate ids.
    pub fn bind(addr: impl ToSocketAddrs, config: ServerConfig) -> io::Result<Self> {
        assert!(
            !config.tenants.is_empty(),
            "a server needs at least one tenant"
        );
        {
            let mut ids: Vec<usize> = config.tenants.iter().map(|t| t.id).collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), config.tenants.len(), "tenant ids must be unique");
        }
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let mut tenants = Vec::with_capacity(config.tenants.len());
        for spec in config.tenants {
            let mut store_config = spec.config;
            store_config.tenant = spec.id;
            let store = match &spec.persist_dir {
                Some(dir) => SecureStore::open(dir, store_config)?,
                None => SecureStore::new(store_config),
            };
            tenants.push(Tenant {
                id: spec.id,
                store,
                connections: AtomicUsize::new(0),
                max_connections: spec.max_connections,
                max_window: spec.max_window.max(1),
                counters: TenantCounters::default(),
            });
        }
        // Resolve the serving mode up front: if the host cannot build
        // the epoll/eventfd plumbing, fall back to threaded serving and
        // say so in telemetry — never a silent half-working reactor.
        let (pool, seeds) = match config.mode {
            ServerMode::Threaded => (None, Vec::new()),
            ServerMode::Reactor { threads } => match crate::reactor::prepare(threads.max(1)) {
                Some((pool, seeds)) => (Some(pool), seeds),
                None => (None, Vec::new()),
            },
        };
        let reactor_fallback = matches!(config.mode, ServerMode::Reactor { .. }) && pool.is_none();
        let shared = Arc::new(Shared {
            tenants,
            counters: ServerCounters::default(),
            shutdown: AtomicBool::new(false),
            max_frame: config.max_frame,
            poll_interval: config.poll_interval,
            conn_handles: Mutex::new(Vec::new()),
            reactor: pool,
            reactor_fallback,
        });
        for seed in seeds {
            let reactor_shared = Arc::clone(&shared);
            let handle = thread::Builder::new()
                .name("ame-server-reactor".into())
                .spawn(move || crate::reactor::reactor_thread(&reactor_shared, seed))
                .expect("spawn reactor thread");
            shared
                .reactor
                .as_ref()
                .expect("seeds imply a pool")
                .push_handle(handle);
        }
        let accept_shared = Arc::clone(&shared);
        let accept_handle = thread::Builder::new()
            .name("ame-server-accept".into())
            .spawn(move || accept_loop(&listener, &accept_shared))
            .expect("spawn accept thread");
        Ok(Self {
            addr: local,
            shared,
            accept_handle: Some(accept_handle),
        })
    }

    /// The bound address (resolves ephemeral ports).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The serving mode actually running — `"reactor"` or `"threaded"`.
    /// Reports the post-fallback truth, not what was requested.
    #[must_use]
    pub fn mode_name(&self) -> &'static str {
        if self.shared.reactor.is_some() {
            "reactor"
        } else {
            "threaded"
        }
    }

    /// Event-loop thread count (0 when serving threaded).
    #[must_use]
    pub fn reactor_threads(&self) -> usize {
        self.shared.reactor.as_ref().map_or(0, |p| p.threads())
    }

    /// Snapshot of the full metric tree: per-tenant store metrics under
    /// `server/tenant<T>/store/…` plus serving counters under
    /// `server/tenant<T>/…` and `server/…`.
    #[must_use]
    pub fn telemetry(&self) -> Snapshot {
        let mut reg = StatsRegistry::new();
        let c = &self.shared.counters;
        reg.set_counter(
            "server/connections_accepted",
            c.connections_accepted.load(Ordering::Relaxed),
        );
        reg.set_counter("server/bad_version", c.bad_version.load(Ordering::Relaxed));
        reg.set_counter(
            "server/unknown_tenant",
            c.unknown_tenant.load(Ordering::Relaxed),
        );
        reg.set_counter(
            "server/pre_hello_failures",
            c.pre_hello_failures.load(Ordering::Relaxed),
        );
        reg.set_gauge("server/reactor_threads", self.reactor_threads() as f64);
        reg.set_gauge(
            "server/reactor_fallback",
            f64::from(u8::from(self.shared.reactor_fallback)),
        );
        for t in &self.shared.tenants {
            let scope = format!("server/tenant{}", t.id);
            t.store.collect(&mut reg, &format!("{scope}/store"));
            reg.set_gauge(
                &format!("{scope}/connections"),
                t.connections.load(Ordering::Relaxed) as f64,
            );
            let tc = &t.counters;
            for (name, v) in [
                ("connections_accepted", &tc.connections_accepted),
                ("quota_rejections", &tc.quota_rejections),
                ("ops_ok", &tc.ops_ok),
                ("ops_err", &tc.ops_err),
                ("bad_frames", &tc.bad_frames),
                ("duplicate_request_ids", &tc.duplicate_request_ids),
                ("unknown_opcodes", &tc.unknown_opcodes),
                ("shutdown_rejections", &tc.shutdown_rejections),
                ("overload_stalls", &tc.overload_stalls),
            ] {
                reg.set_counter(&format!("{scope}/{name}"), v.load(Ordering::Relaxed));
            }
        }
        reg.snapshot()
    }

    /// Orderly shutdown: stop accepting, drain every connection's
    /// in-flight window (every submitted operation's response is still
    /// delivered), close connections with a typed shutting-down notice,
    /// then run each tenant store's durable checkpoint.
    ///
    /// Returns `(tenant id, report)` per tenant, in spec order.
    ///
    /// # Panics
    ///
    /// Panics if a serving thread panicked.
    #[must_use]
    pub fn shutdown(mut self) -> Vec<(usize, ShutdownReport)> {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // The accept thread blocks in accept(); a throwaway connection
        // wakes it so it can observe the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept_handle.take() {
            handle.join().expect("accept thread panicked");
        }
        if let Some(pool) = &self.shared.reactor {
            pool.wake_all();
            for handle in pool.take_handles() {
                handle.join().expect("reactor thread panicked");
            }
        }
        let handles = std::mem::take(&mut *self.shared.conn_handles.lock().unwrap());
        for handle in handles {
            handle.join().expect("connection thread panicked");
        }
        let shared = Arc::try_unwrap(self.shared)
            .unwrap_or_else(|_| panic!("serving threads still hold the server state"));
        shared
            .tenants
            .into_iter()
            .map(|t| (t.id, t.store.shutdown()))
            .collect()
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            // The wake-up connection (or a late client): refuse.
            let _ = write_frame(&mut &stream, code::SHUTTING_DOWN, 0, &[]);
            return;
        }
        shared
            .counters
            .connections_accepted
            .fetch_add(1, Ordering::Relaxed);
        if let Some(pool) = &shared.reactor {
            pool.dispatch(stream);
            continue;
        }
        let conn_shared = Arc::clone(shared);
        let handle = thread::Builder::new()
            .name("ame-server-conn".into())
            .spawn(move || serve_connection(&conn_shared, stream))
            .expect("spawn connection thread");
        shared.conn_handles.lock().unwrap().push(handle);
    }
}

/// Incremental frame reader: accumulates bytes across read timeouts so
/// a poll deadline in the middle of a frame never desynchronises the
/// stream.
struct ConnReader {
    stream: TcpStream,
    buf: Vec<u8>,
    max_frame: u32,
}

enum Polled {
    Frame(Frame),
    /// Read timeout with no complete frame buffered.
    Idle,
    /// Peer closed (or the transport failed).
    Eof,
    /// Unrecoverable framing violation.
    Malformed,
}

impl ConnReader {
    fn poll(&mut self) -> Polled {
        loop {
            match self.try_parse() {
                Ok(Some(frame)) => return Polled::Frame(frame),
                Ok(None) => {}
                Err(_) => return Polled::Malformed,
            }
            let mut chunk = [0u8; 4096];
            match self.stream.read(&mut chunk) {
                Ok(0) => return Polled::Eof,
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    return Polled::Idle
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return Polled::Eof,
            }
        }
    }

    fn try_parse(&mut self) -> Result<Option<Frame>, FrameError> {
        try_parse_frame(&mut self.buf, self.max_frame)
    }
}

/// Pops one complete frame off the front of `buf`, if one is buffered.
/// `Ok(None)` means "keep reading"; an error is a framing violation that
/// desynchronises the stream (the connection must close). Shared by the
/// threaded reader and the reactor's per-connection state machine.
pub(crate) fn try_parse_frame(
    buf: &mut Vec<u8>,
    max_frame: u32,
) -> Result<Option<Frame>, FrameError> {
    if buf.len() < 4 {
        return Ok(None);
    }
    let len = u32::from_le_bytes(buf[..4].try_into().unwrap());
    if len > max_frame {
        return Err(FrameError::Oversized {
            len,
            max: max_frame,
        });
    }
    if (len as usize) < HEADER_BYTES {
        return Err(FrameError::TooShort { len });
    }
    let total = 4 + len as usize;
    if buf.len() < total {
        return Ok(None);
    }
    let tag = buf[4];
    let req_id = u64::from_le_bytes(buf[5..13].try_into().unwrap());
    let payload = buf[13..total].to_vec();
    buf.drain(..total);
    Ok(Some(Frame {
        tag,
        req_id,
        payload,
    }))
}

/// Reader/writer shared bookkeeping for one connection: which request
/// id each in-flight ticket answers.
#[derive(Default)]
struct InFlight {
    by_ticket: HashMap<Ticket, u64>,
    ids: HashSet<u64>,
}

type WriteHalf = Arc<Mutex<TcpStream>>;

fn respond(wr: &WriteHalf, tag: u8, req_id: u64, payload: &[u8]) -> io::Result<()> {
    let mut stream = wr.lock().unwrap();
    write_frame(&mut *stream, tag, req_id, payload)
}

fn respond_err(wr: &WriteHalf, req_id: u64, e: &WireError) -> io::Result<()> {
    let (tag, payload) = encode_server_error(e);
    respond(wr, tag, req_id, &payload)
}

/// Why a connection's serving loop ended, deciding the closing notice.
pub(crate) enum ConnEnd {
    Goodbye,
    Eof,
    Shutdown,
    Malformed,
}

/// One connection's share of a tenant's `max_connections`, reserved by
/// [`evaluate_hello`] before any reply is written and handed back when
/// dropped — whether the reply never made it out, the session could not
/// be set up, or the connection has ended.
pub(crate) struct ConnectionSlot<'a>(&'a Tenant);

impl<'a> ConnectionSlot<'a> {
    /// Takes a slot unless the tenant is at its quota. One atomic
    /// update, so concurrent hellos (connection threads, or reactor
    /// loops) can never be granted past `max_connections` between a
    /// check and a later increment.
    fn reserve(tenant: &'a Tenant) -> Option<Self> {
        tenant
            .connections
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |held| {
                (held < tenant.max_connections).then_some(held + 1)
            })
            .ok()
            .map(|_| Self(tenant))
    }
}

impl Drop for ConnectionSlot<'_> {
    fn drop(&mut self) {
        self.0.connections.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Outcome of evaluating a `Hello` frame against server state. Counter
/// updates and the quota reservation happen inside [`evaluate_hello`];
/// the session split stays with the caller.
pub(crate) enum HelloDecision<'a> {
    /// Admit: reply with `reply` (tagged `STATUS_OK`), then serve
    /// `tenant` with a per-shard window of `window`, holding `slot` for
    /// as long as the connection lives.
    Grant {
        tenant: &'a Tenant,
        slot: ConnectionSlot<'a>,
        window: usize,
        reply: Vec<u8>,
    },
    /// Refuse with this typed error, then close.
    Refuse(WireError),
}

/// Shared `Hello` policy: frame shape, protocol version, tenant lookup,
/// connection quota, window clamp. Both serving planes route their
/// handshake through here so admission rules can never drift apart.
pub(crate) fn evaluate_hello<'a>(shared: &'a Shared, frame: &Frame) -> HelloDecision<'a> {
    if frame.tag != op::HELLO || frame.payload.len() != 12 {
        shared
            .counters
            .pre_hello_failures
            .fetch_add(1, Ordering::Relaxed);
        return HelloDecision::Refuse(WireError::BadFrame);
    }
    let version = u32::from_le_bytes(frame.payload[0..4].try_into().unwrap());
    let tenant_id = u32::from_le_bytes(frame.payload[4..8].try_into().unwrap());
    let requested = u32::from_le_bytes(frame.payload[8..12].try_into().unwrap());
    if version != PROTOCOL_VERSION {
        shared.counters.bad_version.fetch_add(1, Ordering::Relaxed);
        return HelloDecision::Refuse(WireError::BadVersion(PROTOCOL_VERSION));
    }
    let Some(tenant) = shared.tenant(tenant_id as usize) else {
        shared
            .counters
            .unknown_tenant
            .fetch_add(1, Ordering::Relaxed);
        return HelloDecision::Refuse(WireError::UnknownTenant(tenant_id));
    };
    let Some(slot) = ConnectionSlot::reserve(tenant) else {
        tenant
            .counters
            .quota_rejections
            .fetch_add(1, Ordering::Relaxed);
        return HelloDecision::Refuse(WireError::QuotaExceeded);
    };
    let granted = (requested.max(1) as usize).min(tenant.max_window);
    let mut reply = Vec::with_capacity(8);
    reply.extend_from_slice(&(granted as u32).to_le_bytes());
    reply.extend_from_slice(&(tenant.store.shards() as u32).to_le_bytes());
    HelloDecision::Grant {
        tenant,
        slot,
        window: granted,
        reply,
    }
}

fn serve_connection(shared: &Arc<Shared>, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(shared.poll_interval));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = ConnReader {
        stream: read_half,
        buf: Vec::new(),
        max_frame: shared.max_frame,
    };
    let wr: WriteHalf = Arc::new(Mutex::new(stream));

    // `_slot` is this connection's share of the tenant's quota until the
    // function returns.
    let Some((tenant, _slot, window)) = handshake(shared, &mut reader, &wr) else {
        return;
    };
    tenant
        .counters
        .connections_accepted
        .fetch_add(1, Ordering::Relaxed);

    let (submitter, reaper) = tenant.store.split_session_with(SessionConfig {
        in_flight_window: window,
    });
    let in_flight = Mutex::new(InFlight::default());
    let end = thread::scope(|s| {
        let writer = s.spawn(|| writer_loop(reaper, &in_flight, &wr, tenant, shared.poll_interval));
        let end = reader_loop(shared, tenant, &mut reader, submitter, &in_flight, &wr);
        // `submitter` died with reader_loop; the writer drains the
        // stragglers (acked work is never dropped) and sees Closed.
        writer.join().expect("connection writer panicked");
        end
    });
    if matches!(end, ConnEnd::Shutdown) {
        let _ = respond(&wr, code::SHUTTING_DOWN, 0, &[]);
    }
}

/// Runs the `Hello` exchange. `None` means the connection was refused
/// (a typed response was already sent where possible).
fn handshake<'a>(
    shared: &'a Arc<Shared>,
    reader: &mut ConnReader,
    wr: &WriteHalf,
) -> Option<(&'a Tenant, ConnectionSlot<'a>, usize)> {
    let frame = loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            let _ = respond_err(wr, 0, &WireError::ShuttingDown);
            return None;
        }
        match reader.poll() {
            Polled::Frame(frame) => break frame,
            Polled::Idle => {}
            Polled::Eof => return None,
            Polled::Malformed => {
                shared
                    .counters
                    .pre_hello_failures
                    .fetch_add(1, Ordering::Relaxed);
                let _ = respond_err(wr, 0, &WireError::BadFrame);
                return None;
            }
        }
    };
    match evaluate_hello(shared, &frame) {
        HelloDecision::Grant {
            tenant,
            slot,
            window,
            reply,
        } => {
            if respond(wr, protocol::STATUS_OK, frame.req_id, &reply).is_err() {
                return None;
            }
            Some((tenant, slot, window))
        }
        HelloDecision::Refuse(e) => {
            let _ = respond_err(wr, frame.req_id, &e);
            None
        }
    }
}

fn reader_loop(
    shared: &Arc<Shared>,
    tenant: &Tenant,
    reader: &mut ConnReader,
    mut submitter: SessionSubmitter<'_>,
    in_flight: &Mutex<InFlight>,
    wr: &WriteHalf,
) -> ConnEnd {
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            // Already-buffered requests get a typed rejection instead of
            // silence; nothing new is admitted to the store.
            while let Ok(Some(frame)) = reader.try_parse() {
                tenant
                    .counters
                    .shutdown_rejections
                    .fetch_add(1, Ordering::Relaxed);
                let _ = respond_err(wr, frame.req_id, &WireError::ShuttingDown);
            }
            return ConnEnd::Shutdown;
        }
        let frame = match reader.poll() {
            Polled::Frame(frame) => frame,
            Polled::Idle => continue,
            Polled::Eof => return ConnEnd::Eof,
            Polled::Malformed => {
                tenant.counters.bad_frames.fetch_add(1, Ordering::Relaxed);
                let _ = respond_err(wr, 0, &WireError::BadFrame);
                return ConnEnd::Malformed;
            }
        };
        match frame.tag {
            op::GOODBYE => {
                let _ = respond(wr, protocol::STATUS_OK, frame.req_id, &[]);
                return ConnEnd::Goodbye;
            }
            op::READ | op::WRITE | op::CAS => {
                // The state lock is held across submit → map insert so
                // the writer (which takes the same lock before looking a
                // completion up) can never observe a ticket whose
                // request id is not yet recorded.
                let mut state = in_flight.lock().unwrap();
                if !state.ids.insert(frame.req_id) {
                    drop(state);
                    reject_duplicate(tenant, wr, frame.req_id);
                    continue;
                }
                loop {
                    match submit_op(&mut submitter, &frame) {
                        Submitted::Ticket(ticket) => {
                            state.by_ticket.insert(ticket, frame.req_id);
                            break;
                        }
                        Submitted::Rejected(StoreError::Overloaded { .. }) => {
                            // Saturation is backpressure, not an error:
                            // stop reading this connection (the lock is
                            // released so the writer keeps draining) and
                            // retry once the store has breathed.
                            drop(state);
                            tenant
                                .counters
                                .overload_stalls
                                .fetch_add(1, Ordering::Relaxed);
                            thread::sleep(Duration::from_micros(200));
                            if shared.shutdown.load(Ordering::SeqCst) {
                                tenant
                                    .counters
                                    .shutdown_rejections
                                    .fetch_add(1, Ordering::Relaxed);
                                let _ = respond_err(wr, frame.req_id, &WireError::ShuttingDown);
                                return ConnEnd::Shutdown;
                            }
                            state = in_flight.lock().unwrap();
                        }
                        Submitted::Rejected(e) => {
                            state.ids.remove(&frame.req_id);
                            drop(state);
                            tenant.counters.ops_err.fetch_add(1, Ordering::Relaxed);
                            let (tag, payload) = encode_store_error(&e);
                            let _ = respond(wr, tag, frame.req_id, &payload);
                            break;
                        }
                        Submitted::Malformed => {
                            state.ids.remove(&frame.req_id);
                            drop(state);
                            tenant.counters.bad_frames.fetch_add(1, Ordering::Relaxed);
                            let _ = respond_err(wr, frame.req_id, &WireError::BadFrame);
                            break;
                        }
                    }
                }
            }
            op::TAMPER => {
                if !in_flight.lock().unwrap().ids.contains(&frame.req_id) {
                    handle_tamper(tenant, wr, &frame);
                } else {
                    reject_duplicate(tenant, wr, frame.req_id);
                }
            }
            op::HELLO => {
                tenant.counters.bad_frames.fetch_add(1, Ordering::Relaxed);
                let _ = respond_err(wr, frame.req_id, &WireError::BadFrame);
            }
            other => {
                tenant
                    .counters
                    .unknown_opcodes
                    .fetch_add(1, Ordering::Relaxed);
                let _ = respond_err(wr, frame.req_id, &WireError::UnknownOpcode(other));
            }
        }
    }
}

fn reject_duplicate(tenant: &Tenant, wr: &WriteHalf, req_id: u64) {
    tenant
        .counters
        .duplicate_request_ids
        .fetch_add(1, Ordering::Relaxed);
    let _ = respond_err(wr, req_id, &WireError::DuplicateRequestId);
}

pub(crate) enum Submitted {
    Ticket(Ticket),
    Rejected(StoreError),
    Malformed,
}

pub(crate) fn submit_op(submitter: &mut SessionSubmitter<'_>, frame: &Frame) -> Submitted {
    let p = &frame.payload;
    let result = match frame.tag {
        op::READ if p.len() == 8 => {
            let addr = u64::from_le_bytes(p[..8].try_into().unwrap());
            submitter.submit(StoreOp::Read { addr })
        }
        op::WRITE if p.len() == 8 + BLOCK_BYTES => {
            let addr = u64::from_le_bytes(p[..8].try_into().unwrap());
            let data: [u8; BLOCK_BYTES] = p[8..].try_into().unwrap();
            submitter.submit(StoreOp::Write { addr, data })
        }
        op::CAS if p.len() == 8 + 2 * BLOCK_BYTES => {
            let addr = u64::from_le_bytes(p[..8].try_into().unwrap());
            let expected: [u8; BLOCK_BYTES] = p[8..8 + BLOCK_BYTES].try_into().unwrap();
            let new: [u8; BLOCK_BYTES] = p[8 + BLOCK_BYTES..].try_into().unwrap();
            submitter.submit_rmw(addr, move |block| {
                if *block == expected {
                    *block = new;
                }
            })
        }
        _ => return Submitted::Malformed,
    };
    match result {
        Ok(ticket) => Submitted::Ticket(ticket),
        Err(e) => Submitted::Rejected(e),
    }
}

fn handle_tamper(tenant: &Tenant, wr: &WriteHalf, frame: &Frame) {
    let (tag, payload) = exec_tamper(tenant, frame);
    let _ = respond(wr, tag, frame.req_id, &payload);
}

/// Executes a tamper-injection frame synchronously (it bypasses the
/// session pipeline by design) and returns the reply's tag + payload.
/// Counter updates happen here; shared by both serving planes.
pub(crate) fn exec_tamper(tenant: &Tenant, frame: &Frame) -> (u8, Vec<u8>) {
    let p = &frame.payload;
    let bad_frame = |tenant: &Tenant| {
        tenant.counters.bad_frames.fetch_add(1, Ordering::Relaxed);
        encode_server_error(&WireError::BadFrame)
    };
    if p.len() != 13 {
        return bad_frame(tenant);
    }
    let addr = u64::from_le_bytes(p[..8].try_into().unwrap());
    let bit = u32::from_le_bytes(p[8..12].try_into().unwrap());
    let result = match p[12] {
        0 => tenant.store.tamper_data_bit(addr, bit),
        1 => tenant.store.tamper_sideband_bit(addr, bit),
        _ => return bad_frame(tenant),
    };
    match result {
        Ok(()) => {
            tenant.counters.ops_ok.fetch_add(1, Ordering::Relaxed);
            (protocol::STATUS_OK, Vec::new())
        }
        Err(e) => {
            tenant.counters.ops_err.fetch_add(1, Ordering::Relaxed);
            encode_store_error(&e)
        }
    }
}

fn writer_loop(
    mut reaper: ame_store::SessionReaper<'_>,
    in_flight: &Mutex<InFlight>,
    wr: &WriteHalf,
    tenant: &Tenant,
    poll: Duration,
) {
    loop {
        match reaper.recv_timeout(poll) {
            Reaped::Completion(ticket, result) => {
                let req_id = {
                    let mut state = in_flight.lock().unwrap();
                    let req_id = state.by_ticket.remove(&ticket);
                    if let Some(id) = req_id {
                        state.ids.remove(&id);
                    }
                    req_id
                };
                // A ticket with no request id cannot happen (every
                // submitted ticket is registered before the reader moves
                // on), but losing a response silently would be worse
                // than a best-effort id of 0.
                let req_id = req_id.unwrap_or(0);
                match result {
                    Ok(value) => {
                        tenant.counters.ops_ok.fetch_add(1, Ordering::Relaxed);
                        let payload: &[u8] = match &value {
                            StoreValue::Data(b) | StoreValue::Modified(b) => b,
                            StoreValue::Written => &[],
                        };
                        let _ = respond(wr, protocol::STATUS_OK, req_id, payload);
                    }
                    Err(e) => {
                        tenant.counters.ops_err.fetch_add(1, Ordering::Relaxed);
                        let (tag, payload) = encode_store_error(&e);
                        let _ = respond(wr, tag, req_id, &payload);
                    }
                }
            }
            Reaped::TimedOut => {}
            Reaped::Closed => return,
        }
    }
}
