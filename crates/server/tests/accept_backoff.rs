//! Satellite: a failing `accept()` backs off instead of spinning. With
//! the process out of descriptors and a connection waiting in the
//! backlog, every `accept()` fails with `EMFILE` until a descriptor
//! frees; the accept thread must retry at `ACCEPT_BACKOFF` pace, count
//! each failure, and serve normally once descriptors return.
//!
//! One test in its own file: `RLIMIT_NOFILE` is process-wide, and every
//! integration file is its own process.

#![cfg(target_os = "linux")]

use ame_server::server::ACCEPT_BACKOFF;
use ame_server::{Client, Server, ServerConfig, TenantSpec};
use ame_store::StoreConfig;
use std::fs::File;
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Quarantined `getrlimit(2)`/`setrlimit(2)` binding, in the style of
/// the server's `sys` module: the workspace links no libc crate, so the
/// two calls are declared by hand behind a safe wrapper.
mod nofile {
    /// The kernel's `struct rlimit` on 64-bit Linux.
    #[repr(C)]
    #[derive(Clone, Copy, Default)]
    pub struct RLimit {
        pub soft: u64,
        pub hard: u64,
    }

    /// `RLIMIT_NOFILE` in the generic Linux ABI (x86, ARM, RISC-V).
    const RLIMIT_NOFILE: i32 = 7;

    extern "C" {
        fn getrlimit(resource: i32, rlim: *mut RLimit) -> i32;
        fn setrlimit(resource: i32, rlim: *const RLimit) -> i32;
    }

    pub fn get() -> RLimit {
        let mut limit = RLimit::default();
        // SAFETY: `limit` is a live, writable `struct rlimit` of the
        // kernel's layout; the call writes nothing else.
        let rc = unsafe { getrlimit(RLIMIT_NOFILE, &mut limit) };
        assert_eq!(rc, 0, "getrlimit(RLIMIT_NOFILE)");
        limit
    }

    pub fn set(limit: RLimit) {
        // SAFETY: `limit` is a live `struct rlimit` the call only reads.
        let rc = unsafe { setrlimit(RLIMIT_NOFILE, &limit) };
        assert_eq!(rc, 0, "setrlimit(RLIMIT_NOFILE)");
    }
}

const EMFILE: i32 = 24;

fn counter(server: &Server, path: &str) -> u64 {
    server.telemetry().counter(path).unwrap()
}

#[test]
fn failing_accept_backs_off_and_recovers() {
    let mut spec = TenantSpec::new(0, StoreConfig::default());
    spec.max_connections = 64;
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            tenants: vec![spec],
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = server.addr();

    // Leave room for a handful of connections (two descriptors each, the
    // client's and the server's, both in this process), and hold one
    // descriptor in reserve.
    let mut spare = Some(File::open("/dev/null").expect("spare descriptor"));
    let open = std::fs::read_dir("/proc/self/fd")
        .expect("fd table")
        .count() as u64;
    let original = nofile::get();
    nofile::set(nofile::RLimit {
        soft: open + 8,
        ..original
    });

    // Connect one client at a time, each accepted before the next, until
    // the table is full. Either the server's `accept()` hits the limit
    // first (the client took the last slot), or the client's `socket()`
    // does — then every connection so far is accepted and the backlog is
    // empty, so the freed spare can only go to one more client, whose
    // connection the server cannot accept.
    let mut clients = Vec::new();
    while counter(&server, "server/accept_errors") == 0 {
        clients.push(TcpStream::connect(addr).unwrap_or_else(|e| {
            assert_eq!(e.raw_os_error(), Some(EMFILE), "connect: {e}");
            drop(spare.take().expect("the spare is spent once"));
            TcpStream::connect(addr).expect("connect on the freed slot")
        }));
        let deadline = Instant::now() + Duration::from_secs(10);
        while counter(&server, "server/connections_accepted") < clients.len() as u64
            && counter(&server, "server/accept_errors") == 0
        {
            assert!(Instant::now() < deadline, "neither accepted nor refused");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    // The backlog holds a connection the server cannot accept: failures
    // keep coming, at the back-off's pace and not a core's.
    let started = Instant::now();
    let before = counter(&server, "server/accept_errors");
    std::thread::sleep(Duration::from_millis(300));
    let after = counter(&server, "server/accept_errors");
    let elapsed = started.elapsed();
    let grown = after - before;
    let ceiling = 2 * (elapsed.as_millis() / ACCEPT_BACKOFF.as_millis()) as u64 + 2;
    assert!(grown >= 1, "accept() must keep retrying");
    assert!(
        grown <= ceiling,
        "{grown} failed accepts in {elapsed:?}: the loop is not backing off (ceiling {ceiling})"
    );

    // Descriptors return: the server serves again.
    nofile::set(original);
    drop(clients);
    let mut client = Client::connect(addr, 0).expect("connect after recovery");
    client.write(0x40, &[7; 64]).expect("write");
    assert_eq!(client.read(0x40).expect("read"), [7; 64]);
    client.goodbye().expect("goodbye");
    let _ = server.shutdown();
}
