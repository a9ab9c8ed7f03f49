//! Standalone `ame-server`: hosts N in-memory (or durable) tenants on
//! `AME_SERVER_ADDR` until SIGTERM/ctrl-c, then drains and checkpoints.
//!
//! ```text
//! ame_server [--addr HOST:PORT] [--tenants N] [--persist DIR]
//!            [--shards N] [--shard-kib N] [--max-conns N] [--max-window N]
//!            [--reactor-threads N]
//! ```
//!
//! Environment: `AME_SERVER_ADDR` is the default listen address
//! (flag overrides it; built-in default `127.0.0.1:4075`),
//! `AME_SERVER_MAX_CONNS` / `AME_SERVER_MAX_WINDOW` are the default
//! per-tenant quotas (`--max-conns` / `--max-window` override them),
//! and `AME_SERVER_REACTOR_THREADS` is the default event-loop thread
//! count (`--reactor-threads` overrides it; built-in default
//! `min(4, cores)`). Needs epoll + eventfd (Linux); elsewhere `bind`
//! fails with `Unsupported`.

#![deny(unsafe_code)]

use ame_server::{default_reactor_threads, Server, ServerConfig, ServerMode, TenantSpec};
use ame_store::StoreConfig;
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::time::Duration;

/// Minimal POSIX signal hook — the only unsafe in the crate, quarantined
/// here the same way `ame-crypto` quarantines its intrinsics: a raw
/// `signal(2)` binding that flips an atomic the main loop polls. No libc
/// crate, no handler logic beyond the flag store.
#[cfg(unix)]
mod sig {
    #![allow(unsafe_code)]

    use std::sync::atomic::{AtomicBool, Ordering};

    pub static STOP: AtomicBool = AtomicBool::new(false);

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_signal(_signum: i32) {
        STOP.store(true, Ordering::SeqCst);
    }

    pub fn install() {
        unsafe {
            signal(SIGINT, on_signal as *const () as usize);
            signal(SIGTERM, on_signal as *const () as usize);
        }
    }
}

#[cfg(not(unix))]
mod sig {
    use std::sync::atomic::AtomicBool;

    pub static STOP: AtomicBool = AtomicBool::new(false);

    pub fn install() {}
}

struct Args {
    addr: String,
    tenants: usize,
    persist: Option<PathBuf>,
    shards: usize,
    shard_kib: u64,
    max_conns: usize,
    max_window: usize,
    mode: ServerMode,
}

fn env_usize(name: &str, default: usize) -> usize {
    match std::env::var(name) {
        Ok(v) => v
            .parse()
            .unwrap_or_else(|_| panic!("{name} must be a number, got {v:?}")),
        Err(_) => default,
    }
}

fn parse_args() -> Args {
    let mut args = Args {
        addr: std::env::var("AME_SERVER_ADDR").unwrap_or_else(|_| "127.0.0.1:4075".into()),
        tenants: 2,
        persist: None,
        shards: 4,
        shard_kib: 256,
        max_conns: env_usize("AME_SERVER_MAX_CONNS", 64),
        max_window: env_usize("AME_SERVER_MAX_WINDOW", 64),
        mode: ServerMode::Reactor {
            threads: env_usize("AME_SERVER_REACTOR_THREADS", default_reactor_threads()),
        },
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| panic!("{name} expects a value"))
        };
        match flag.as_str() {
            "--addr" => args.addr = value("--addr"),
            "--tenants" => args.tenants = value("--tenants").parse().expect("--tenants"),
            "--persist" => args.persist = Some(PathBuf::from(value("--persist"))),
            "--shards" => args.shards = value("--shards").parse().expect("--shards"),
            "--shard-kib" => args.shard_kib = value("--shard-kib").parse().expect("--shard-kib"),
            "--max-conns" => args.max_conns = value("--max-conns").parse().expect("--max-conns"),
            "--max-window" => {
                args.max_window = value("--max-window").parse().expect("--max-window");
            }
            "--reactor-threads" => {
                let threads: usize = value("--reactor-threads")
                    .parse()
                    .expect("--reactor-threads");
                args.mode = ServerMode::Reactor { threads };
            }
            other => panic!("unknown flag {other}"),
        }
    }
    args
}

fn main() {
    let args = parse_args();
    sig::install();

    let template = StoreConfig {
        shards: args.shards,
        shard_bytes: args
            .shard_kib
            .checked_mul(1024)
            .expect("--shard-kib overflows a byte count"),
        ..StoreConfig::default()
    };
    let tenants = (0..args.tenants)
        .map(|id| {
            let mut spec = TenantSpec::new(id, template.clone());
            spec.max_connections = args.max_conns;
            spec.max_window = args.max_window;
            spec.persist_dir = args.persist.as_ref().map(|d| d.join(format!("tenant{id}")));
            spec
        })
        .collect();

    let server = Server::bind(
        args.addr.as_str(),
        ServerConfig {
            tenants,
            mode: args.mode,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    println!(
        "ame-server listening on {} ({} tenants, {} shards x {} KiB each, {} reactor threads)",
        server.addr(),
        args.tenants,
        args.shards,
        args.shard_kib,
        server.reactor_threads(),
    );

    while !sig::STOP.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(100));
    }

    println!("draining…");
    let reports = server.shutdown();
    for (tenant, report) in reports {
        println!(
            "tenant{tenant}: {} shards, all resealed: {}",
            report.shards.len(),
            report.all_resealed()
        );
    }
}
