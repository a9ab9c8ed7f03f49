//! The serving loop: a TCP listener, per-tenant stores with quotas and
//! telemetry, and the admission and decode rules the reactor applies to
//! every connection.
//!
//! # Threading model
//!
//! One accept thread plus a small fixed pool of epoll event-loop threads
//! (see the `reactor` module; no async runtime): each connection is a
//! nonblocking state machine owned by one loop, and shard workers rouse
//! the loop through per-session eventfd wakeups when completions land.
//! Thread count is constant no matter how many clients connect. The
//! pool needs epoll + eventfd, so the wire server is Linux-only:
//! elsewhere [`Server::bind`] fails with
//! [`ErrorKind::Unsupported`].
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
//! every connection drain: the loops stop admitting operations
//! (answering
//! [`code::SHUTTING_DOWN`]),
//! flush every already-submitted completion — no acked response is
//! lost — and end each connection with a typed shutting-down notice
//! (request id 0). Only then are the stores shut down through their
//! durable checkpoint path.

use crate::protocol::{
    self, code, encode_server_error, encode_store_error, op, write_frame, FrameRef, WireError,
    DEFAULT_MAX_FRAME, PROTOCOL_VERSION,
};
use ame_store::{
    SecureStore, Session, ShutdownReport, StoreConfig, StoreError, StoreOp, Ticket, BLOCK_BYTES,
};
use ame_telemetry::{Snapshot, StatsRegistry};
use std::io::{self, ErrorKind};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
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
    /// [`code::QUOTA_EXCEEDED`].
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
// One variant: kept an enum (and `ServerConfig::mode` its name) only
// because `bench_ladder/src/workloads/wire.rs` constructs it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerMode {
    /// A fixed pool of epoll event-loop threads; each connection is a
    /// nonblocking state machine. Thread count stays constant no matter
    /// how many clients connect. Requires epoll + eventfd (see
    /// [`Server::bind`]).
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
    /// Ceiling on how long an idle event loop sleeps in `epoll_wait`
    /// before it re-checks the shutdown flag and retries parked
    /// operations. Latency of shutdown, not of requests.
    pub poll_interval: Duration,
    /// Event-loop pool shape. Defaults to [`ServerMode::reactor`].
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
    /// Times the reactor paused reading a connection because the
    /// store reported [`StoreError::Overloaded`] — backpressure applied
    /// instead of bouncing a valid operation back to the client.
    pub(crate) overload_stalls: AtomicU64,
    /// `read(2)` calls on the tenant's granted connections.
    pub(crate) socket_reads: AtomicU64,
    /// `write(2)` calls on the tenant's granted connections.
    pub(crate) socket_writes: AtomicU64,
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
    /// Failed `accept()` calls (descriptor exhaustion and the like),
    /// each followed by one [`ACCEPT_BACKOFF`] sleep.
    pub(crate) accept_errors: AtomicU64,
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
    pub(crate) reactor: crate::reactor::ReactorPool,
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
    /// The wire server requires epoll + eventfd — Linux, the only
    /// platform CI builds, `bench_ladder` measures or any committed
    /// artifact comes from. The engine, store, simulator and figure
    /// crates stay portable.
    ///
    /// # Errors
    ///
    /// [`ErrorKind::Unsupported`] on a host without epoll + eventfd,
    /// returned before any tenant store is opened. Otherwise propagates
    /// bind failures and durable-store open failures.
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
        let ServerMode::Reactor { threads } = config.mode;
        let (pool, seeds) = crate::reactor::prepare(threads.max(1)).ok_or_else(|| {
            io::Error::new(
                ErrorKind::Unsupported,
                "ame-server needs epoll + eventfd (Linux)",
            )
        })?;
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
        let shared = Arc::new(Shared {
            tenants,
            counters: ServerCounters::default(),
            shutdown: AtomicBool::new(false),
            max_frame: config.max_frame,
            poll_interval: config.poll_interval,
            reactor: pool,
        });
        for seed in seeds {
            let reactor_shared = Arc::clone(&shared);
            let handle = thread::Builder::new()
                .name("ame-server-reactor".into())
                .spawn(move || crate::reactor::reactor_thread(&reactor_shared, seed))
                .expect("spawn reactor thread");
            shared.reactor.push_handle(handle);
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

    /// Event-loop thread count.
    #[must_use]
    pub fn reactor_threads(&self) -> usize {
        self.shared.reactor.threads()
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
        reg.set_counter(
            "server/accept_errors",
            c.accept_errors.load(Ordering::Relaxed),
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
                ("socket_reads", &tc.socket_reads),
                ("socket_writes", &tc.socket_writes),
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
        self.shared.reactor.wake_all();
        for handle in self.shared.reactor.take_handles() {
            handle.join().expect("reactor thread panicked");
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

/// How long the accept thread sleeps after a failed `accept()` before
/// retrying. A persistent failure (`EMFILE`/`ENFILE` until a descriptor
/// frees) then costs a hundred wake-ups a second instead of a core.
pub const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                shared
                    .counters
                    .accept_errors
                    .fetch_add(1, Ordering::Relaxed);
                thread::sleep(ACCEPT_BACKOFF);
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
        shared.reactor.dispatch(stream);
    }
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
    /// update, so concurrent hellos (on different reactor loops) can
    /// never be granted past `max_connections` between a
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

/// `Hello` policy: frame shape, protocol version, tenant lookup,
/// connection quota, window clamp.
pub(crate) fn evaluate_hello<'a>(shared: &'a Shared, frame: FrameRef<'_>) -> HelloDecision<'a> {
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

pub(crate) enum Submitted {
    Ticket(Ticket),
    Rejected(StoreError),
    Malformed,
}

pub(crate) fn submit_op(session: &mut Session<'_>, frame: FrameRef<'_>) -> Submitted {
    let p = frame.payload;
    let result = match frame.tag {
        op::READ if p.len() == 8 => {
            let addr = u64::from_le_bytes(p[..8].try_into().unwrap());
            session.submit(StoreOp::Read { addr })
        }
        op::WRITE if p.len() == 8 + BLOCK_BYTES => {
            let addr = u64::from_le_bytes(p[..8].try_into().unwrap());
            let data: [u8; BLOCK_BYTES] = p[8..].try_into().unwrap();
            session.submit(StoreOp::Write { addr, data })
        }
        op::CAS if p.len() == 8 + 2 * BLOCK_BYTES => {
            let addr = u64::from_le_bytes(p[..8].try_into().unwrap());
            let expected: [u8; BLOCK_BYTES] = p[8..8 + BLOCK_BYTES].try_into().unwrap();
            let new: [u8; BLOCK_BYTES] = p[8 + BLOCK_BYTES..].try_into().unwrap();
            session.submit_rmw(addr, move |block| {
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

/// Executes a tamper-injection frame synchronously (it bypasses the
/// session pipeline by design) and returns the reply's tag + payload.
/// Counter updates happen here.
pub(crate) fn exec_tamper(tenant: &Tenant, frame: FrameRef<'_>) -> (u8, Vec<u8>) {
    let p = frame.payload;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{read_frame, try_parse_frame, Frame, FrameError, HEADER_BYTES};
    use ame_prng::StdRng;

    /// One-shot parse of a whole byte string with the blocking reader
    /// `read_frame`: the frames, then either the unparsed tail or the
    /// framing violation at that boundary.
    fn reference_parse(mut rest: &[u8], max_frame: u32) -> (Vec<Frame>, Result<&[u8], FrameError>) {
        let mut frames = Vec::new();
        loop {
            let boundary = rest;
            match read_frame(&mut rest, max_frame) {
                Ok(frame) => frames.push(frame),
                Err(FrameError::Io(_)) => return (frames, Ok(boundary)),
                Err(violation) => return (frames, Err(violation)),
            }
        }
    }

    fn push_frame(bytes: &mut Vec<u8>, rng: &mut StdRng, max_frame: u32) {
        let room = max_frame as usize - HEADER_BYTES;
        let payload = match rng.gen_range(0..4u32) {
            0 => 0,
            1 => room,
            _ => rng.gen_range(0..=room),
        };
        let mut body = vec![0u8; HEADER_BYTES + payload];
        rng.fill(&mut body);
        bytes.extend_from_slice(&(body.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&body);
    }

    /// Random streams — well-formed frames ending cleanly, in a
    /// truncation, or in an oversized or undersized length prefix —
    /// fed in random chunks down to one byte: the incremental parser
    /// must agree with the one-shot reference on every frame, on the
    /// bytes left over, and on whether and why the stream is refused.
    #[test]
    fn try_parse_frame_matches_one_shot_reference_under_any_chunking() {
        let mut rng = StdRng::seed_from_u64(0x19_f2a3);
        let mut endings = [0usize; 4];
        for case in 0..2000 {
            let max_frame = if case % 8 == 0 {
                DEFAULT_MAX_FRAME
            } else {
                rng.gen_range(HEADER_BYTES as u32..=96)
            };
            let mut bytes = Vec::new();
            let whole = rng.gen_range(0..6usize);
            for _ in 0..whole {
                push_frame(&mut bytes, &mut rng, max_frame);
            }
            let ending = rng.gen_range(0..4usize);
            endings[ending] += 1;
            let bad_len = match ending {
                0 => None,
                1 => {
                    let start = bytes.len();
                    push_frame(&mut bytes, &mut rng, max_frame);
                    bytes.truncate(rng.gen_range(start + 1..bytes.len()));
                    None
                }
                2 => Some(match rng.gen_range(0..3u32) {
                    0 => max_frame + 1,
                    1 => u32::MAX,
                    _ => rng.gen_range(max_frame + 1..=u32::MAX),
                }),
                _ => Some(rng.gen_range(0..HEADER_BYTES as u32)),
            };
            if let Some(len) = bad_len {
                bytes.extend_from_slice(&len.to_le_bytes());
                let mut garbage = vec![0u8; rng.gen_range(0..24usize)];
                rng.fill(&mut garbage);
                bytes.extend_from_slice(&garbage);
            }

            let (want, want_tail) = reference_parse(&bytes, max_frame);
            assert_eq!(want.len(), whole, "case {case}: reference frame count");
            assert_eq!(want_tail.is_err(), bad_len.is_some(), "case {case}");

            let max_chunk = [1usize, 3, 17, 4096][rng.gen_range(0..4usize)];
            let (mut buf, mut got) = (Vec::new(), Vec::new());
            let (mut fed, mut consumed) = (0usize, 0usize);
            let mut refused = None;
            'feed: while fed < bytes.len() {
                let n = rng.gen_range(1..=max_chunk).min(bytes.len() - fed);
                buf.extend_from_slice(&bytes[fed..fed + n]);
                fed += n;
                // Parse by offset, then drop the consumed prefix once, as
                // the reactor does per pass.
                let mut pos = 0;
                loop {
                    match try_parse_frame(&buf[pos..], max_frame) {
                        Ok(Some(frame)) => {
                            assert!(HEADER_BYTES + frame.payload.len() <= max_frame as usize);
                            consumed += 4 + HEADER_BYTES + frame.payload.len();
                            pos += frame.wire_len();
                            got.push(frame.to_frame());
                        }
                        Ok(None) => break,
                        Err(violation) => {
                            refused = Some(violation);
                            buf.drain(..pos);
                            break 'feed;
                        }
                    }
                }
                buf.drain(..pos);
                assert_eq!(consumed + buf.len(), fed, "case {case}");
            }
            assert_eq!(consumed + buf.len(), fed, "case {case}");
            assert_eq!(got, want, "case {case}: frames");
            match (refused, want_tail) {
                (None, Ok(tail)) => assert_eq!(buf, tail, "case {case}: leftover"),
                (
                    Some(FrameError::Oversized { len, max }),
                    Err(FrameError::Oversized { len: want_len, .. }),
                ) => assert_eq!((len, max), (want_len, max_frame), "case {case}"),
                (
                    Some(FrameError::TooShort { len }),
                    Err(FrameError::TooShort { len: want_len }),
                ) => assert_eq!(len, want_len, "case {case}"),
                (got, want) => panic!("case {case}: parser {got:?}, reference {want:?}"),
            }
        }
        assert!(endings.iter().all(|&n| n > 100), "{endings:?}");
    }

    /// A shard worker that dies with a wire read queued behind it still
    /// answers that read, with a typed `Disconnected`, and the other
    /// shard keeps serving the same connection.
    #[test]
    fn a_dead_shard_worker_answers_its_wire_ops_with_a_typed_error() {
        use crate::client::{PipelinedClient, PipelinedValue};
        use std::sync::mpsc::{channel, sync_channel};
        use std::time::Instant;

        let store_config = StoreConfig {
            shards: 2,
            shard_bytes: 1 << 14,
            ..StoreConfig::default()
        };
        let server = Server::bind(
            "127.0.0.1:0",
            ServerConfig {
                tenants: vec![TenantSpec::new(0, store_config)],
                mode: ServerMode::Reactor { threads: 1 },
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let store = &server.shared.tenants[0].store;
        let mut session = store.session();
        // Jam shard 0 with a mutator that panics once released.
        let (gate_tx, gate_rx) = sync_channel::<()>(1);
        let (in_tx, in_rx) = sync_channel::<()>(1);
        session
            .submit_rmw(0, move |_| {
                let _ = in_tx.send(());
                let _ = gate_rx.recv();
                panic!("mutator panics");
            })
            .unwrap();
        in_rx.recv().unwrap();

        let mut client = PipelinedClient::connect(server.addr(), 0, 4).unwrap();
        let doomed = client.submit_read(0).unwrap();
        let healthy = client.submit_read(64).unwrap();
        client.flush().unwrap();
        let start = Instant::now();
        while store.queue_depth(0) == 0 {
            assert!(
                start.elapsed() < Duration::from_secs(5),
                "the wire read never queued"
            );
            thread::sleep(Duration::from_millis(1));
        }
        gate_tx.send(()).unwrap();

        // The client blocks in `recv`; a hang must fail the test, not wedge it.
        let (tx, rx) = channel();
        let reaper = thread::spawn(move || {
            for _ in 0..2 {
                let _ = tx.send(client.recv().unwrap());
            }
            client
        });
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut answers = Vec::new();
        while answers.len() < 2 {
            let left = deadline.saturating_duration_since(Instant::now());
            match rx.recv_timeout(left) {
                Ok(answer) => answers.push(answer),
                Err(_) => panic!("unanswered after 5 s; got {answers:?}"),
            }
        }
        answers.sort_unstable_by_key(|&(id, _)| id);
        assert_eq!(
            answers,
            vec![
                (
                    doomed,
                    Err(WireError::Store(StoreError::Disconnected { shard: 0 }))
                ),
                (healthy, Ok(PipelinedValue::Data([0; BLOCK_BYTES]))),
            ]
        );
        reaper.join().unwrap().goodbye().unwrap();
        drop(session);
        let reports = server.shutdown();
        assert!(!reports[0].1.shards[0].resealed);
        assert!(reports[0].1.shards[1].resealed);
    }
}
