//! Satellite: malformed and hostile frames are rejected per-connection
//! — typed codes where the stream is still coherent, a close where it
//! is not — and never disturb another tenant's live session.

use ame_server::protocol::{
    self, code, op, read_frame, write_frame, DEFAULT_MAX_FRAME, PROTOCOL_VERSION,
};
use ame_server::{Client, Server, ServerConfig, TenantSpec};
use ame_store::{StoreConfig, BLOCK_BYTES};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

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

/// Raw handshake as tenant 0, bypassing the client library so the test
/// can then speak garbage.
fn raw_hello(addr: std::net::SocketAddr) -> TcpStream {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut payload = Vec::new();
    payload.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
    payload.extend_from_slice(&0u32.to_le_bytes());
    payload.extend_from_slice(&64u32.to_le_bytes());
    write_frame(&mut stream, op::HELLO, 1, &payload).unwrap();
    let resp = read_frame(&mut stream, DEFAULT_MAX_FRAME).unwrap();
    assert_eq!(resp.tag, protocol::STATUS_OK, "hello refused");
    stream
}

/// The victim's health check: a full write/read sweep on tenant 1 must
/// succeed while tenant 0's connection is being hostile.
fn assert_other_tenant_healthy(server: &Server, fill: u8) {
    let mut bystander = Client::connect(server.addr(), 1).unwrap();
    for i in 0..16u64 {
        bystander.write(i * 64, &[fill; BLOCK_BYTES]).unwrap();
    }
    for i in 0..16u64 {
        assert_eq!(bystander.read(i * 64).unwrap(), [fill; BLOCK_BYTES]);
    }
    bystander.goodbye().unwrap();
}

#[test]
fn oversized_length_prefix_gets_bad_frame_and_close_reactor() {
    let server = two_tenant_server();
    let mut attacker = raw_hello(server.addr());

    // A 4 GiB length prefix: the server must answer BAD_FRAME without
    // ever trying to buffer 4 GiB, then drop the connection.
    attacker.write_all(&u32::MAX.to_le_bytes()).unwrap();
    attacker.write_all(&[0u8; 32]).unwrap();
    let resp = read_frame(&mut attacker, DEFAULT_MAX_FRAME).unwrap();
    assert_eq!(resp.tag, code::BAD_FRAME);
    // Connection is closed: the next read reaches EOF — or a reset, if
    // the server tore down while our garbage tail sat unread in its
    // receive buffer. Either way the transport is dead.
    let mut scratch = [0u8; 16];
    loop {
        match attacker.read(&mut scratch) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if e.kind() == ErrorKind::ConnectionReset => break,
            Err(e) => panic!("expected close after BAD_FRAME, got {e}"),
        }
    }

    assert_other_tenant_healthy(&server, 0x11);
    let _ = server.shutdown();
}

#[test]
fn truncated_frame_closes_without_poisoning_the_server_reactor() {
    let server = two_tenant_server();
    let mut attacker = raw_hello(server.addr());

    // Claim 80 bytes, deliver 10, walk away: the server can never
    // complete the frame and must just drop the connection at EOF.
    attacker.write_all(&80u32.to_le_bytes()).unwrap();
    attacker.write_all(&[op::WRITE; 10]).unwrap();
    attacker.shutdown(std::net::Shutdown::Write).unwrap();
    let mut rest = Vec::new();
    let _ = attacker.read_to_end(&mut rest); // whatever arrives, then EOF

    assert_other_tenant_healthy(&server, 0x22);
    let _ = server.shutdown();
}

#[test]
fn unknown_opcode_is_typed_and_survivable_reactor() {
    let server = two_tenant_server();
    let mut attacker = raw_hello(server.addr());

    write_frame(&mut attacker, 0x7e, 9, &[1, 2, 3]).unwrap();
    let resp = read_frame(&mut attacker, DEFAULT_MAX_FRAME).unwrap();
    assert_eq!(resp.tag, code::UNKNOWN_OPCODE);
    assert_eq!(resp.req_id, 9);
    assert_eq!(resp.payload, vec![0x7e]);

    // The connection itself is still coherent: a valid write succeeds.
    let mut payload = Vec::new();
    payload.extend_from_slice(&0u64.to_le_bytes());
    payload.extend_from_slice(&[0x5a; BLOCK_BYTES]);
    write_frame(&mut attacker, op::WRITE, 10, &payload).unwrap();
    let resp = read_frame(&mut attacker, DEFAULT_MAX_FRAME).unwrap();
    assert_eq!((resp.tag, resp.req_id), (protocol::STATUS_OK, 10));

    assert_other_tenant_healthy(&server, 0x33);
    let _ = server.shutdown();
}

#[test]
fn replayed_request_id_within_window_is_rejected_reactor() {
    let server = two_tenant_server();
    let mut attacker = raw_hello(server.addr());

    // Pairs of back-to-back reads sharing a request id, written in one
    // burst so the duplicate lands while the original is in flight.
    // (If a completion slips in between a pair, that duplicate is
    // legitimately a fresh id — so the contract asserted is: every
    // response is OK or DUPLICATE_REQUEST_ID, and at least one
    // duplicate is caught across the burst.)
    const PAIRS: u64 = 16;
    let mut burst = Vec::new();
    for i in 0..PAIRS {
        let req_id = 100 + i;
        for _ in 0..2 {
            write_frame(&mut burst, op::READ, req_id, &0u64.to_le_bytes()).unwrap();
        }
    }
    attacker.write_all(&burst).unwrap();

    let mut ok = 0;
    let mut duplicates = 0;
    for _ in 0..2 * PAIRS {
        let resp = read_frame(&mut attacker, DEFAULT_MAX_FRAME).unwrap();
        match resp.tag {
            protocol::STATUS_OK => ok += 1,
            code::DUPLICATE_REQUEST_ID => duplicates += 1,
            other => panic!("unexpected status {other:#04x}"),
        }
    }
    assert_eq!(ok + duplicates, 2 * PAIRS);
    assert!(ok >= PAIRS, "originals must still complete");
    assert!(
        duplicates >= 1,
        "at least one replayed id must be caught in flight"
    );

    // Rejection did not corrupt the window bookkeeping: the ids are
    // reusable once their originals completed.
    write_frame(&mut attacker, op::READ, 100, &0u64.to_le_bytes()).unwrap();
    let resp = read_frame(&mut attacker, DEFAULT_MAX_FRAME).unwrap();
    assert_eq!((resp.tag, resp.req_id), (protocol::STATUS_OK, 100));

    assert_other_tenant_healthy(&server, 0x44);
    let _ = server.shutdown();
}

/// A peer that streams response-earning frames while refusing to read
/// must be throttled by backpressure (bounded server memory), and every
/// buffered response must still arrive, in order, once it starts
/// reading again.
#[test]
fn send_without_reading_gets_bounded_backpressure_reactor() {
    const FRAMES: u64 = 200_000;
    let server = two_tenant_server();
    let attacker = raw_hello(server.addr());

    // ~2.8 MiB of unknown-opcode frames in one burst — far past the
    // reactor's write-buffer stall threshold plus any kernel buffering,
    // so the server must stop reading (blocking this writer thread)
    // rather than queue ~2.8 MiB of rejections in memory.
    let mut burst = Vec::new();
    for i in 0..FRAMES {
        write_frame(&mut burst, 0x7e, i, &[]).unwrap();
    }
    let mut write_half = attacker.try_clone().unwrap();
    let writer = std::thread::spawn(move || write_half.write_all(&burst));

    // Let the pipeline wedge: server stalled on its full write buffer,
    // writer blocked on the closed TCP window.
    std::thread::sleep(Duration::from_millis(300));

    // Start draining: every frame gets its typed rejection, in order.
    let mut read_half = std::io::BufReader::new(attacker);
    for i in 0..FRAMES {
        let resp = read_frame(&mut read_half, DEFAULT_MAX_FRAME).unwrap();
        assert_eq!(
            (resp.tag, resp.req_id),
            (code::UNKNOWN_OPCODE, i),
            "response {i} lost or reordered across the backpressure stall"
        );
    }
    writer
        .join()
        .expect("writer thread panicked")
        .expect("burst write failed");

    assert_other_tenant_healthy(&server, 0x66);
    let _ = server.shutdown();
}

#[test]
fn shutdown_is_not_hostage_to_a_peer_that_never_reads_reactor() {
    let server = two_tenant_server();
    let attacker = raw_hello(server.addr());

    // Keep streaming response-earning frames without ever reading, so
    // the connection sits wedged (full write buffer, closed TCP window)
    // when shutdown begins. The writer unblocks only when the server
    // force-closes the socket — which is exactly what the drain
    // deadline must do.
    let mut write_half = attacker.try_clone().unwrap();
    let writer = std::thread::spawn(move || {
        let mut chunk = Vec::new();
        for i in 0..10_000u64 {
            write_frame(&mut chunk, 0x7e, i, &[]).unwrap();
        }
        while write_half.write_all(&chunk).is_ok() {}
    });
    std::thread::sleep(Duration::from_millis(300));

    let start = std::time::Instant::now();
    let _ = server.shutdown();
    assert!(
        start.elapsed() < Duration::from_secs(30),
        "shutdown hung on an unread connection"
    );
    writer.join().expect("writer thread panicked");
    drop(attacker);
}

#[test]
fn operation_before_hello_is_refused_reactor() {
    let server = two_tenant_server();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write_frame(&mut stream, op::READ, 1, &0u64.to_le_bytes()).unwrap();
    let resp = read_frame(&mut stream, DEFAULT_MAX_FRAME).unwrap();
    assert_eq!(resp.tag, code::BAD_FRAME);
    assert_other_tenant_healthy(&server, 0x55);
    let _ = server.shutdown();
}
