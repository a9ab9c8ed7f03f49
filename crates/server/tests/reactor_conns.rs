//! Satellite: connection shapes an event loop must handle with buffers
//! alone — partial frames arriving a byte at a time (slow-loris),
//! frames split across multiple writes, and a horde of idle connections
//! holding fds while one client streams.

use ame_server::protocol::{
    self, op, read_frame, write_frame, DEFAULT_MAX_FRAME, PROTOCOL_VERSION,
};
use ame_server::{PipelinedClient, Server, ServerConfig, TenantSpec};
use ame_store::{StoreConfig, BLOCK_BYTES};
use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

fn small_store() -> StoreConfig {
    StoreConfig {
        shards: 2,
        shard_bytes: 64 * 1024,
        ..StoreConfig::default()
    }
}

fn reactor_server(max_connections: usize) -> Server {
    let mut spec = TenantSpec::new(0, small_store());
    spec.max_connections = max_connections;
    Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            tenants: vec![spec],
            ..ServerConfig::default()
        },
    )
    .expect("bind")
}

fn hello_frame() -> Vec<u8> {
    let mut payload = Vec::new();
    payload.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
    payload.extend_from_slice(&0u32.to_le_bytes());
    payload.extend_from_slice(&4u32.to_le_bytes());
    let mut frame = Vec::new();
    write_frame(&mut frame, op::HELLO, 1, &payload).unwrap();
    frame
}

fn write_op_frame(req_id: u64, addr: u64, fill: u8) -> Vec<u8> {
    let mut payload = Vec::with_capacity(8 + BLOCK_BYTES);
    payload.extend_from_slice(&addr.to_le_bytes());
    payload.extend_from_slice(&[fill; BLOCK_BYTES]);
    let mut frame = Vec::new();
    write_frame(&mut frame, op::WRITE, req_id, &payload).unwrap();
    frame
}

/// A HELLO dribbled in one byte at a time must still complete the
/// handshake — a partial frame is a buffered state, not an error, and
/// it must not block the loop (a second, fast client gets served while
/// the loris dribbles).
#[test]
fn slow_loris_hello_completes_and_blocks_nobody() {
    let server = reactor_server(8);

    let mut loris = TcpStream::connect(server.addr()).unwrap();
    loris.set_nodelay(true).unwrap();
    loris
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let frame = hello_frame();
    let (head, tail) = frame.split_at(frame.len() - 1);
    for &byte in head {
        loris.write_all(&[byte]).unwrap();
        loris.flush().unwrap();
        std::thread::sleep(Duration::from_millis(1));
    }

    // Mid-dribble, a well-behaved client connects and does real work on
    // the same event loops.
    let mut fast = PipelinedClient::connect(server.addr(), 0, 4).unwrap();
    fast.submit_write(0, &[0xfa; BLOCK_BYTES]).unwrap();
    let acks = fast.drain().unwrap();
    assert!(acks.iter().all(|(_, r)| r.is_ok()));
    fast.goodbye().unwrap();

    // The last byte completes the loris's handshake.
    loris.write_all(tail).unwrap();
    let resp = read_frame(&mut loris, DEFAULT_MAX_FRAME).unwrap();
    assert_eq!((resp.tag, resp.req_id), (protocol::STATUS_OK, 1));

    let _ = server.shutdown();
}

/// One WRITE frame delivered in three separate writes (header split
/// mid-length-prefix, payload split mid-block) is reassembled exactly.
#[test]
fn frame_split_across_three_writes_is_reassembled() {
    let server = reactor_server(8);

    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(&hello_frame()).unwrap();
    let resp = read_frame(&mut stream, DEFAULT_MAX_FRAME).unwrap();
    assert_eq!(resp.tag, protocol::STATUS_OK, "hello refused");

    let frame = write_op_frame(2, 64, 0x3b);
    // Split points chosen to land inside the length prefix and inside
    // the block payload.
    for chunk in [&frame[..2], &frame[2..20], &frame[20..]] {
        stream.write_all(chunk).unwrap();
        stream.flush().unwrap();
        std::thread::sleep(Duration::from_millis(5));
    }
    let resp = read_frame(&mut stream, DEFAULT_MAX_FRAME).unwrap();
    assert_eq!((resp.tag, resp.req_id), (protocol::STATUS_OK, 2));

    // The write landed: read it back through a normal client.
    let mut reader = ame_server::Client::connect(server.addr(), 0).unwrap();
    assert_eq!(reader.read(64).unwrap(), [0x3b; BLOCK_BYTES]);
    reader.goodbye().unwrap();

    let _ = server.shutdown();
}

/// 500 granted-but-idle connections hold fds and sessions while one
/// client streams a full workload — and the server never grows beyond
/// its fixed reactor thread count.
#[test]
fn idle_horde_holds_fds_while_one_client_streams() {
    const HORDE: usize = 500;
    let server = reactor_server(HORDE + 2);
    let fixed_threads = server.reactor_threads();
    assert!(fixed_threads >= 1);

    let mut horde = Vec::with_capacity(HORDE);
    for _ in 0..HORDE {
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.set_nodelay(true).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream.write_all(&hello_frame()).unwrap();
        let resp = read_frame(&mut stream, DEFAULT_MAX_FRAME).unwrap();
        assert_eq!(resp.tag, protocol::STATUS_OK, "horde hello refused");
        horde.push(stream);
    }

    // With 500 sessions parked, one client pushes a real pipelined
    // workload through the same fixed thread pool.
    let mut streamer = PipelinedClient::connect(server.addr(), 0, 16).unwrap();
    let mut completed = 0usize;
    for i in 0..200u64 {
        let addr = (i % 64) * 64;
        let (_, reaped) = streamer
            .submit_write_wait(addr, &[(i % 251) as u8; BLOCK_BYTES])
            .unwrap();
        completed += reaped.iter().filter(|(_, r)| r.is_ok()).count();
        assert!(reaped.iter().all(|(_, r)| r.is_ok()));
    }
    let tail = streamer.drain().unwrap();
    assert!(tail.iter().all(|(_, r)| r.is_ok()));
    completed += tail.len();
    assert_eq!(completed, 200, "every streamed op must complete");
    streamer.goodbye().unwrap();

    assert_eq!(
        server.reactor_threads(),
        fixed_threads,
        "the pool must not grow with connections"
    );
    let snap = server.telemetry();
    assert!(snap.counter("server/connections_accepted").unwrap() > HORDE as u64);

    drop(horde);
    let _ = server.shutdown();
}
