//! End-to-end coverage of the wire server: blocking and pipelined
//! clients against a live loopback server, handshake policy (tenants,
//! quotas, window clamping), and the per-tenant telemetry subtree.

use ame_server::{
    Client, ClientError, PipelinedClient, Server, ServerConfig, TenantSpec, WireError,
};
use ame_store::{StoreConfig, StoreError, BLOCK_BYTES};

fn small_store() -> StoreConfig {
    StoreConfig {
        shards: 2,
        shard_bytes: 64 * 1024,
        ..StoreConfig::default()
    }
}

fn two_tenant_server() -> Server {
    Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            tenants: vec![
                TenantSpec::new(0, small_store()),
                TenantSpec::new(1, small_store()),
            ],
            ..ServerConfig::default()
        },
    )
    .expect("bind")
}

fn block(fill: u8) -> [u8; BLOCK_BYTES] {
    [fill; BLOCK_BYTES]
}

#[test]
fn blocking_client_read_write_cas_reactor() {
    let server = two_tenant_server();
    let mut client = Client::connect(server.addr(), 0).unwrap();

    client.write(0, &block(0xa1)).unwrap();
    client.write(64, &block(0xa2)).unwrap();
    assert_eq!(client.read(0).unwrap(), block(0xa1));
    assert_eq!(client.read(64).unwrap(), block(0xa2));

    // CAS semantics: pre-image returned; swap takes iff it matched.
    let pre = client.cas(0, &block(0xa1), &block(0xb1)).unwrap();
    assert_eq!(pre, block(0xa1), "matched CAS reports the old value");
    assert_eq!(client.read(0).unwrap(), block(0xb1), "matched CAS wrote");
    let pre = client.cas(0, &block(0xa1), &block(0xc1)).unwrap();
    assert_eq!(pre, block(0xb1), "failed CAS reports the current value");
    assert_eq!(client.read(0).unwrap(), block(0xb1), "failed CAS left it");

    // Store errors travel typed: unaligned and out-of-range.
    match client.read(3) {
        Err(ClientError::Wire(WireError::Store(StoreError::Unaligned { addr: 3 }))) => {}
        other => panic!("expected typed Unaligned, got {other:?}"),
    }
    match client.write(1 << 40, &block(0)) {
        Err(ClientError::Wire(WireError::Store(StoreError::OutOfRange { .. }))) => {}
        other => panic!("expected typed OutOfRange, got {other:?}"),
    }

    client.goodbye().unwrap();
    let _ = server.shutdown();
}

#[test]
fn pipelined_window_and_out_of_order_completions_reactor() {
    let server = two_tenant_server();
    let mut client = PipelinedClient::connect(server.addr(), 1, 8).unwrap();
    assert_eq!(client.window(), 8);
    assert_eq!(client.shards(), 2);

    // Fill the window with writes across both shards.
    let mut expected = Vec::new();
    for i in 0..8u64 {
        let id = client.submit_write(i * 64, &block(i as u8 + 1)).unwrap();
        expected.push(id);
    }
    assert!(matches!(
        client.submit_write(0, &block(0)),
        Err(ClientError::WindowFull)
    ));
    let acks = client.drain().unwrap();
    assert_eq!(acks.len(), 8);
    for (id, outcome) in &acks {
        assert!(expected.contains(id));
        assert!(outcome.is_ok(), "write {id} failed: {outcome:?}");
    }

    // Reads come back tagged with our ids even when shards complete
    // out of submission order.
    for i in 0..8u64 {
        client.submit_read(i * 64).unwrap();
    }
    let mut seen = 0;
    while client.in_flight() > 0 {
        let (id, outcome) = client.recv().unwrap();
        // Request ids continue from the write batch (9..=16 after
        // hello=1, writes=2..=9... exact values are client-internal);
        // what matters is each answers a known read with the right data.
        let i = id - 10; // hello=1, 8 writes, 1 bounced (no id), reads start at 10
        match outcome {
            Ok(ame_server::PipelinedValue::Data(b)) => assert_eq!(b, block(i as u8 + 1)),
            other => panic!("read {id} failed: {other:?}"),
        }
        seen += 1;
    }
    assert_eq!(seen, 8);

    client.goodbye().unwrap();
    let _ = server.shutdown();
}

/// A window's burst of requests crosses the socket as a burst: the
/// client writes it in one go and the server reads it in far fewer
/// `read` calls than it has frames.
#[test]
fn pipelined_burst_reaches_the_server_in_fewer_reads_than_frames_reactor() {
    let server = two_tenant_server();
    let mut client = PipelinedClient::connect(server.addr(), 1, 32).unwrap();
    assert_eq!(client.window(), 32);
    let mut expect = std::collections::HashMap::new();
    for i in 0..16u64 {
        let id = client.submit_write(i * 64, &block(i as u8 + 7)).unwrap();
        expect.insert(id, ame_server::PipelinedValue::Written);
    }
    for i in 0..16u64 {
        let id = client.submit_read(i * 64).unwrap();
        expect.insert(id, ame_server::PipelinedValue::Data(block(i as u8 + 7)));
    }
    let responses = client.drain().unwrap();
    assert_eq!(responses.len(), 32);
    for (id, outcome) in responses {
        assert_eq!(outcome, Ok(expect.remove(&id).unwrap()), "request {id}");
    }

    let snap = server.telemetry();
    let reads = snap.counter("server/tenant1/socket_reads").unwrap();
    assert!(reads < 32, "{reads} socket reads for 32 pipelined requests");
    assert!(snap.counter("server/tenant1/socket_writes").unwrap() >= 1);
    client.goodbye().unwrap();
    let _ = server.shutdown();
}

#[test]
fn handshake_policy_unknown_tenant_quota_and_window_clamp_reactor() {
    let mut tight = TenantSpec::new(3, small_store());
    tight.max_connections = 1;
    tight.max_window = 4;
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            tenants: vec![tight],
            ..ServerConfig::default()
        },
    )
    .unwrap();

    // Unknown tenant: typed rejection.
    match Client::connect(server.addr(), 9) {
        Err(ClientError::Wire(WireError::UnknownTenant(9))) => {}
        other => panic!("expected UnknownTenant, got {other:?}"),
    }

    // Window request above the tenant ceiling is clamped, not refused.
    let first = PipelinedClient::connect(server.addr(), 3, 999).unwrap();
    assert_eq!(first.window(), 4);

    // Connection quota: the second concurrent connection is refused.
    match Client::connect(server.addr(), 3) {
        Err(ClientError::Wire(WireError::QuotaExceeded)) => {}
        other => panic!("expected QuotaExceeded, got {other:?}"),
    }

    // Releasing the first connection frees the slot.
    first.goodbye().unwrap();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    loop {
        match Client::connect(server.addr(), 3) {
            Ok(c) => {
                c.goodbye().unwrap();
                break;
            }
            Err(ClientError::Wire(WireError::QuotaExceeded))
                if std::time::Instant::now() < deadline =>
            {
                // The server-side connection teardown is asynchronous.
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
            other => panic!("expected the quota slot back, got {other:?}"),
        }
    }
    let _ = server.shutdown();
}

/// Sixteen connections, already accepted, say `Hello` to a tenant with
/// `max_connections = 1` at the same instant, and every one of them
/// stays open until all sixteen have their answer: exactly one may be
/// granted, whichever serving thread evaluates which hello when.
#[test]
fn concurrent_hellos_never_exceed_the_quota_reactor() {
    use ame_server::protocol::{self, op, read_frame, write_frame, DEFAULT_MAX_FRAME};
    use std::sync::Barrier;

    const PEERS: usize = 16;
    for round in 0..8 {
        let mut tight = TenantSpec::new(3, small_store());
        tight.max_connections = 1;
        let server = Server::bind(
            "127.0.0.1:0",
            ServerConfig {
                tenants: vec![tight],
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let (start, answered) = (Barrier::new(PEERS), Barrier::new(PEERS));
        let granted: usize = std::thread::scope(|s| {
            let peers: Vec<_> = (0..PEERS)
                .map(|_| {
                    s.spawn(|| {
                        let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();
                        let mut hello = Vec::new();
                        hello.extend_from_slice(&ame_server::PROTOCOL_VERSION.to_le_bytes());
                        hello.extend_from_slice(&3u32.to_le_bytes());
                        hello.extend_from_slice(&4u32.to_le_bytes());
                        start.wait();
                        write_frame(&mut stream, op::HELLO, 1, &hello).unwrap();
                        let reply = read_frame(&mut stream, DEFAULT_MAX_FRAME).unwrap();
                        // Hold the connection (and, if granted, its slot)
                        // until nobody is still waiting for an answer.
                        answered.wait();
                        if reply.tag == protocol::STATUS_OK {
                            return 1;
                        }
                        assert_eq!(
                            protocol::decode_error(reply.tag, &reply.payload),
                            WireError::QuotaExceeded
                        );
                        0
                    })
                })
                .collect();
            peers.into_iter().map(|p| p.join().unwrap()).sum()
        });
        assert_eq!(granted, 1, "round {round}: max_connections = 1");
        let _ = server.shutdown();
    }
}

/// A store sized to choke (single shard, one queue slot, one op per
/// batch) under a 16-deep pipelined client: saturation must surface as
/// *backpressure* — every operation still completes, none is bounced
/// with `Overloaded` — and the stall counter proves the path ran.
#[test]
fn saturated_store_applies_backpressure_reactor() {
    let store = StoreConfig {
        shards: 1,
        shard_bytes: 64 * 1024,
        queue_depth: 1,
        max_batch: 1,
        ..StoreConfig::default()
    };
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            tenants: vec![TenantSpec::new(0, store)],
            ..ServerConfig::default()
        },
    )
    .expect("bind");

    let mut client = PipelinedClient::connect(server.addr(), 0, 16).unwrap();
    let mut completed = 0usize;
    for i in 0..256u64 {
        let (_, reaped) = client
            .submit_write_wait((i % 64) * 64, &block(i as u8))
            .unwrap();
        assert!(
            reaped.iter().all(|(_, r)| r.is_ok()),
            "saturation bounced a valid op: {reaped:?}"
        );
        completed += reaped.len();
    }
    let tail = client.drain().unwrap();
    assert!(tail.iter().all(|(_, r)| r.is_ok()), "tail: {tail:?}");
    completed += tail.len();
    assert_eq!(completed, 256, "every submitted op must complete");
    client.goodbye().unwrap();

    let snap = server.telemetry();
    assert!(
        snap.counter("server/tenant0/overload_stalls").unwrap() >= 1,
        "a one-slot queue under a 16-deep pipeline must have stalled"
    );
    assert_eq!(snap.counter("server/tenant0/ops_err"), Some(0));
    let _ = server.shutdown();
}

#[test]
fn telemetry_has_per_tenant_subtrees_reactor() {
    let server = two_tenant_server();
    let mut c0 = Client::connect(server.addr(), 0).unwrap();
    c0.write(0, &block(1)).unwrap();
    assert_eq!(c0.read(0).unwrap(), block(1));
    c0.goodbye().unwrap();

    let snap = server.telemetry();
    assert!(snap.gauge("server/reactor_threads").unwrap() >= 1.0);
    assert!(snap.counter("server/connections_accepted").unwrap() >= 1);
    assert_eq!(snap.counter("server/tenant0/connections_accepted"), Some(1));
    assert!(snap.counter("server/tenant0/ops_ok").unwrap() >= 2);
    assert_eq!(snap.counter("server/tenant1/ops_ok"), Some(0));
    // The tenant's store metrics hang under its subtree.
    assert!(
        snap.iter()
            .any(|(path, _)| path.starts_with("server/tenant0/store/")),
        "tenant store subtree missing: {:?}",
        snap.iter().map(|(p, _)| p.to_string()).collect::<Vec<_>>()
    );
    let _ = server.shutdown();
}
