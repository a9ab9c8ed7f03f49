//! Client side of the wire protocol: a blocking one-at-a-time
//! [`Client`] and a windowed [`PipelinedClient`] that keeps many
//! requests in flight.
//!
//! Both frame through buffers, so a burst pays one syscall each way:
//! requests are encoded into a write buffer that goes out in one `write`
//! when the connection next has to wait for a response, and responses
//! come in up to `READ_BUF` bytes per `read`, every complete frame
//! parsed in place.

use crate::protocol::{
    block_payload, decode_error, encode_frame, op, try_parse_frame, FrameError, FrameRef,
    WireError, DEFAULT_MAX_FRAME, PROTOCOL_VERSION, STATUS_OK,
};
use ame_store::BLOCK_BYTES;
use std::collections::HashMap;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// Read buffer size: the most one blocking `read` brings in. A full
/// 64-deep window of block responses is under 6 KiB.
const READ_BUF: usize = 64 * 1024;

// The unparsed remainder a `read` starts behind is less than one frame,
// so there is always room to read into.
const _: () = assert!(4 + (DEFAULT_MAX_FRAME as usize) < READ_BUF);

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// The transport failed (or the server closed the connection).
    Io(io::Error),
    /// The byte stream stopped being a frame stream.
    Frame(FrameError),
    /// The server answered with a typed error.
    Wire(WireError),
    /// The response was well-framed but its payload made no sense for
    /// the request (a server bug or a version skew).
    Protocol(&'static str),
    /// The pipelined window is full; reap a response first.
    WindowFull,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport: {e}"),
            ClientError::Frame(e) => write!(f, "framing: {e}"),
            ClientError::Wire(e) => write!(f, "server: {e}"),
            ClientError::Protocol(what) => write!(f, "protocol violation: {what}"),
            ClientError::WindowFull => write!(f, "pipeline window full"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        ClientError::Frame(e)
    }
}

/// Shared connection state: socket, framing buffers, request-id
/// allocator, handshake grants.
struct Conn {
    stream: TcpStream,
    /// Encoded requests not yet written.
    wbuf: Vec<u8>,
    /// Fixed-size read buffer: `rbuf[rpos..rend]` is input not yet
    /// parsed, never more than one partial frame when a `read` starts.
    rbuf: Box<[u8]>,
    rpos: usize,
    rend: usize,
    next_id: u64,
    granted_window: usize,
    shards: usize,
}

impl Conn {
    fn connect(addr: impl ToSocketAddrs, tenant: u32, window: u32) -> Result<Self, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut payload = Vec::with_capacity(12);
        payload.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
        payload.extend_from_slice(&tenant.to_le_bytes());
        payload.extend_from_slice(&window.to_le_bytes());
        let mut conn = Self {
            stream,
            wbuf: Vec::new(),
            rbuf: vec![0; READ_BUF].into_boxed_slice(),
            rpos: 0,
            rend: 0,
            next_id: 1,
            granted_window: 0,
            shards: 0,
        };
        let req_id = conn.send(op::HELLO, &payload);
        let frame = conn.recv()?;
        if frame.tag != STATUS_OK {
            return Err(ClientError::Wire(decode_error(frame.tag, frame.payload)));
        }
        let grant: [u8; 8] = match frame.payload.try_into() {
            Ok(grant) if frame.req_id == req_id => grant,
            _ => return Err(ClientError::Protocol("hello response shape")),
        };
        conn.granted_window = u32::from_le_bytes(grant[0..4].try_into().unwrap()) as usize;
        conn.shards = u32::from_le_bytes(grant[4..8].try_into().unwrap()) as usize;
        Ok(conn)
    }

    /// Encodes one request into the write buffer; it reaches the wire
    /// with the next [`flush`](Self::flush).
    fn send(&mut self, opcode: u8, payload: &[u8]) -> u64 {
        let req_id = self.next_id;
        self.next_id += 1;
        encode_frame(&mut self.wbuf, opcode, req_id, payload);
        req_id
    }

    /// Writes every buffered request in one `write_all`. After a failed
    /// write the connection can deliver none of them, so they are
    /// dropped either way.
    fn flush(&mut self) -> io::Result<()> {
        if self.wbuf.is_empty() {
            return Ok(());
        }
        let written = self.stream.write_all(&self.wbuf);
        self.wbuf.clear();
        written
    }

    /// The next response, borrowed from the read buffer. A frame already
    /// buffered costs no syscall. Otherwise the buffered requests are
    /// flushed first — the connection never waits on the server with
    /// requests it has not sent — and one `read` brings in whatever the
    /// socket holds. A failed flush does not hide responses already on
    /// the socket (a shutdown notice, say): they are still read and
    /// returned, and the flush error surfaces only when nothing is.
    fn recv(&mut self) -> Result<FrameRef<'_>, ClientError> {
        let mut flushed = Ok(());
        while try_parse_frame(&self.rbuf[self.rpos..self.rend], DEFAULT_MAX_FRAME)?.is_none() {
            if let Err(e) = self.flush() {
                flushed = Err(e);
            }
            if let Err(e) = self.fill() {
                return Err(match flushed {
                    Err(write) => ClientError::Io(write),
                    Ok(()) => ClientError::Frame(FrameError::Io(e)),
                });
            }
        }
        let frame = try_parse_frame(&self.rbuf[self.rpos..self.rend], DEFAULT_MAX_FRAME)?
            .expect("the loop above stops only once a whole frame is buffered");
        self.rpos += frame.wire_len();
        Ok(frame)
    }

    /// One blocking `read` into the free tail of the read buffer, after
    /// moving the unparsed remainder to the front. The length prefix of
    /// that remainder was already checked, so it is less than one frame
    /// and the free tail is never empty.
    fn fill(&mut self) -> io::Result<()> {
        self.rbuf.copy_within(self.rpos..self.rend, 0);
        self.rend -= self.rpos;
        self.rpos = 0;
        loop {
            match self.stream.read(&mut self.rbuf[self.rend..]) {
                Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
                Ok(n) => {
                    self.rend += n;
                    return Ok(());
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

fn addr_payload(addr: u64) -> [u8; 8] {
    addr.to_le_bytes()
}

/// Blocking client: one request outstanding at a time, so every call is
/// send-then-receive. The simplest correct consumer of the protocol —
/// and the reference for what the pipelined client must agree with.
pub struct Client {
    conn: Conn,
}

impl std::fmt::Debug for Client {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Client").finish_non_exhaustive()
    }
}

impl Client {
    /// Connects and performs the `Hello` handshake as `tenant`.
    ///
    /// # Errors
    ///
    /// Transport failures, or a typed rejection (unknown tenant, quota,
    /// version mismatch, shutdown).
    pub fn connect(addr: impl ToSocketAddrs, tenant: u32) -> Result<Self, ClientError> {
        Ok(Self {
            conn: Conn::connect(addr, tenant, 1)?,
        })
    }

    /// Shard count of the tenant's store (from the handshake).
    #[must_use]
    pub fn shards(&self) -> usize {
        self.conn.shards
    }

    /// One round trip; checks the response answers this request.
    fn call(&mut self, opcode: u8, payload: &[u8]) -> Result<Vec<u8>, ClientError> {
        let req_id = self.conn.send(opcode, payload);
        let frame = self.conn.recv()?;
        let ok = frame.tag == STATUS_OK;
        // A shutdown notice (request id 0) can arrive instead of the
        // answer; surface it as the call's failure.
        if frame.req_id != req_id && (ok || frame.req_id != 0) {
            return Err(ClientError::Protocol("response for a different request"));
        }
        if ok {
            Ok(frame.payload.to_vec())
        } else {
            Err(ClientError::Wire(decode_error(frame.tag, frame.payload)))
        }
    }

    /// Verified read of the block at `addr`.
    ///
    /// # Errors
    ///
    /// [`ClientError::Wire`] carries the store's own error for this
    /// address (poisoned shard, out of range, …).
    pub fn read(&mut self, addr: u64) -> Result<[u8; BLOCK_BYTES], ClientError> {
        let payload = self.call(op::READ, &addr_payload(addr))?;
        block_payload(&payload).ok_or(ClientError::Protocol("read payload size"))
    }

    /// Writes the block at `addr`.
    ///
    /// # Errors
    ///
    /// As [`Client::read`].
    pub fn write(&mut self, addr: u64, data: &[u8; BLOCK_BYTES]) -> Result<(), ClientError> {
        let mut payload = Vec::with_capacity(8 + BLOCK_BYTES);
        payload.extend_from_slice(&addr_payload(addr));
        payload.extend_from_slice(data);
        let out = self.call(op::WRITE, &payload)?;
        if out.is_empty() {
            Ok(())
        } else {
            Err(ClientError::Protocol("write payload size"))
        }
    }

    /// Atomic compare-and-swap: installs `new` iff the block currently
    /// equals `expected`. Returns the pre-image — the swap took exactly
    /// when the pre-image equals `expected`.
    ///
    /// # Errors
    ///
    /// As [`Client::read`].
    pub fn cas(
        &mut self,
        addr: u64,
        expected: &[u8; BLOCK_BYTES],
        new: &[u8; BLOCK_BYTES],
    ) -> Result<[u8; BLOCK_BYTES], ClientError> {
        let mut payload = Vec::with_capacity(8 + 2 * BLOCK_BYTES);
        payload.extend_from_slice(&addr_payload(addr));
        payload.extend_from_slice(expected);
        payload.extend_from_slice(new);
        let out = self.call(op::CAS, &payload)?;
        block_payload(&out).ok_or(ClientError::Protocol("cas payload size"))
    }

    fn tamper(&mut self, addr: u64, bit: u32, kind: u8) -> Result<(), ClientError> {
        let mut payload = Vec::with_capacity(13);
        payload.extend_from_slice(&addr_payload(addr));
        payload.extend_from_slice(&bit.to_le_bytes());
        payload.push(kind);
        self.call(op::TAMPER, &payload).map(|_| ())
    }

    /// Flips one data bit in the tenant's sealed memory (fault/attack
    /// injection — the wire twin of the in-process tamper API).
    ///
    /// # Errors
    ///
    /// As [`Client::read`].
    pub fn tamper_data_bit(&mut self, addr: u64, bit: u32) -> Result<(), ClientError> {
        self.tamper(addr, bit, 0)
    }

    /// Flips one ECC side-band bit.
    ///
    /// # Errors
    ///
    /// As [`Client::read`].
    pub fn tamper_sideband_bit(&mut self, addr: u64, bit: u32) -> Result<(), ClientError> {
        self.tamper(addr, bit, 1)
    }

    /// Orderly close: the server acks and closes the connection.
    ///
    /// # Errors
    ///
    /// Transport failures only.
    pub fn goodbye(mut self) -> Result<(), ClientError> {
        self.call(op::GOODBYE, &[]).map(|_| ())
    }
}

/// A successfully completed pipelined operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PipelinedValue {
    /// A read's verified block.
    Data([u8; BLOCK_BYTES]),
    /// A write was sealed and acknowledged.
    Written,
}

/// One reaped pipelined response: the request id it answers and the
/// operation's outcome.
pub type PipelinedResponse = (u64, Result<PipelinedValue, WireError>);

/// Windowed client: up to `window` requests in flight, responses reaped
/// in whatever order the server finishes them.
///
/// Submissions are buffered, so a window's worth of requests costs one
/// `write`: a submitted request reaches the wire no later than the next
/// call that waits for the server — [`recv`](Self::recv) with no
/// response already buffered, [`drain`](Self::drain),
/// [`goodbye`](Self::goodbye), a `_wait` submit on a full window — or
/// the next [`flush`](Self::flush). Requests still buffered when the
/// client is dropped are never sent. An ack is still only a response:
/// a flushed request has reached the socket, not the store.
///
/// The window is the handshake's granted per-shard window, applied here
/// to the *whole* connection — conservative, so a well-behaved pipeline
/// never sees [`StoreError::Overloaded`](ame_store::StoreError), which
/// keeps closed-loop load generators honest (every submitted operation
/// completes).
pub struct PipelinedClient {
    conn: Conn,
    /// Opcode per in-flight request id — needed to decode the payload.
    pending: HashMap<u64, u8>,
}

impl std::fmt::Debug for PipelinedClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PipelinedClient")
            .field("in_flight", &self.pending.len())
            .finish_non_exhaustive()
    }
}

impl PipelinedClient {
    /// Connects as `tenant`, requesting an in-flight window of
    /// `window` (the server may grant less — see
    /// [`PipelinedClient::window`]).
    ///
    /// # Errors
    ///
    /// As [`Client::connect`].
    pub fn connect(
        addr: impl ToSocketAddrs,
        tenant: u32,
        window: u32,
    ) -> Result<Self, ClientError> {
        Ok(Self {
            conn: Conn::connect(addr, tenant, window)?,
            pending: HashMap::new(),
        })
    }

    /// The granted window: the submit ceiling.
    #[must_use]
    pub fn window(&self) -> usize {
        self.conn.granted_window
    }

    /// Requests currently in flight.
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// Shard count of the tenant's store (from the handshake).
    #[must_use]
    pub fn shards(&self) -> usize {
        self.conn.shards
    }

    fn submit(&mut self, opcode: u8, payload: &[u8]) -> Result<u64, ClientError> {
        if self.pending.len() >= self.conn.granted_window {
            return Err(ClientError::WindowFull);
        }
        let req_id = self.conn.send(opcode, payload);
        self.pending.insert(req_id, opcode);
        Ok(req_id)
    }

    /// Writes every submitted request not yet on the wire, without
    /// waiting for any response (see the buffering contract on
    /// [`PipelinedClient`]).
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] when the transport failed; the unsent
    /// requests are dropped, and responses the server already sent can
    /// still be reaped with [`recv`](Self::recv).
    pub fn flush(&mut self) -> Result<(), ClientError> {
        self.conn.flush().map_err(ClientError::Io)
    }

    /// Submits a read; returns its request id immediately.
    ///
    /// # Errors
    ///
    /// [`ClientError::WindowFull`] when the window is exhausted —
    /// [`PipelinedClient::recv`] first.
    pub fn submit_read(&mut self, addr: u64) -> Result<u64, ClientError> {
        self.submit(op::READ, &addr_payload(addr))
    }

    /// Submits a write; returns its request id immediately.
    ///
    /// # Errors
    ///
    /// As [`PipelinedClient::submit_read`].
    pub fn submit_write(
        &mut self,
        addr: u64,
        data: &[u8; BLOCK_BYTES],
    ) -> Result<u64, ClientError> {
        let mut payload = [0u8; 8 + BLOCK_BYTES];
        payload[..8].copy_from_slice(&addr_payload(addr));
        payload[8..].copy_from_slice(data);
        self.submit(op::WRITE, &payload)
    }

    /// Like [`PipelinedClient::submit_read`], but when the window is
    /// full it **blocks** reaping responses until a slot frees instead
    /// of failing with [`ClientError::WindowFull`]. Returns the new
    /// request's id plus every response reaped while waiting (possibly
    /// empty) so callers keep full latency/outcome bookkeeping —
    /// nothing is discarded.
    ///
    /// This is what closed-loop load generators should call: the
    /// fast-fail `submit_read` turns a full window into a busy-retry
    /// spin at high connection counts, burning the CPU the server
    /// needs.
    ///
    /// # Errors
    ///
    /// As [`PipelinedClient::recv`].
    pub fn submit_read_wait(
        &mut self,
        addr: u64,
    ) -> Result<(u64, Vec<PipelinedResponse>), ClientError> {
        let reaped = self.wait_for_slot()?;
        let req_id = self.submit_read(addr)?;
        Ok((req_id, reaped))
    }

    /// Blocking-window twin of [`PipelinedClient::submit_write`]; see
    /// [`PipelinedClient::submit_read_wait`].
    ///
    /// # Errors
    ///
    /// As [`PipelinedClient::recv`].
    pub fn submit_write_wait(
        &mut self,
        addr: u64,
        data: &[u8; BLOCK_BYTES],
    ) -> Result<(u64, Vec<PipelinedResponse>), ClientError> {
        let reaped = self.wait_for_slot()?;
        let req_id = self.submit_write(addr, data)?;
        Ok((req_id, reaped))
    }

    /// Reaps (blocking) until the window has a free slot.
    fn wait_for_slot(&mut self) -> Result<Vec<PipelinedResponse>, ClientError> {
        let mut reaped = Vec::new();
        while self.pending.len() >= self.conn.granted_window {
            reaped.push(self.recv()?);
        }
        Ok(reaped)
    }

    /// Blocks for the next response, in server completion order.
    /// Returns the request id it answers and the operation's outcome.
    ///
    /// # Errors
    ///
    /// Transport/framing failures, a shutdown notice
    /// ([`ClientError::Wire`] with
    /// [`WireError::ShuttingDown`]) when the server drains under us, or
    /// [`ClientError::Protocol`] for a response to nothing we sent.
    pub fn recv(&mut self) -> Result<PipelinedResponse, ClientError> {
        let frame = self.conn.recv()?;
        let ok = frame.tag == STATUS_OK;
        let Some(opcode) = self.pending.remove(&frame.req_id) else {
            if frame.req_id == 0 && !ok {
                // Connection-level notice (shutdown drain complete).
                return Err(ClientError::Wire(decode_error(frame.tag, frame.payload)));
            }
            return Err(ClientError::Protocol("response for unknown request id"));
        };
        let outcome = if ok {
            match opcode {
                op::READ => match block_payload(frame.payload) {
                    Some(block) => Ok(PipelinedValue::Data(block)),
                    None => return Err(ClientError::Protocol("read payload size")),
                },
                op::WRITE if frame.payload.is_empty() => Ok(PipelinedValue::Written),
                _ => return Err(ClientError::Protocol("unexpected success payload")),
            }
        } else {
            Err(decode_error(frame.tag, frame.payload))
        };
        Ok((frame.req_id, outcome))
    }

    /// Reaps until nothing is in flight, discarding payloads; errors in
    /// any response surface as that operation's [`WireError`] in the
    /// returned vector.
    ///
    /// # Errors
    ///
    /// Transport failures abort the drain.
    pub fn drain(&mut self) -> Result<Vec<PipelinedResponse>, ClientError> {
        let mut out = Vec::with_capacity(self.pending.len());
        while !self.pending.is_empty() {
            out.push(self.recv()?);
        }
        Ok(out)
    }

    /// Orderly close (drains the window first).
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn goodbye(mut self) -> Result<(), ClientError> {
        let _ = self.drain()?;
        let req_id = self.conn.send(op::GOODBYE, &[]);
        let frame = self.conn.recv()?;
        if frame.tag != STATUS_OK {
            return Err(ClientError::Wire(decode_error(frame.tag, frame.payload)));
        }
        if frame.req_id != req_id {
            return Err(ClientError::Protocol("goodbye response id"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{code, read_frame, write_frame, HEADER_BYTES};
    use crate::server::{Server, ServerConfig, TenantSpec};
    use ame_store::StoreConfig;
    use std::net::{SocketAddr, TcpListener};
    use std::sync::mpsc::channel;
    use std::thread::{self, JoinHandle};
    use std::time::{Duration, Instant};

    /// A test-local listener playing the server: it grants the HELLO
    /// (window 64, one shard), then hands the socket to `script`.
    fn fake_server(
        script: impl FnOnce(TcpStream) + Send + 'static,
    ) -> (SocketAddr, JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let hello = read_frame(&mut stream, DEFAULT_MAX_FRAME).unwrap();
            assert_eq!(hello.tag, op::HELLO);
            let mut grant = 64u32.to_le_bytes().to_vec();
            grant.extend_from_slice(&1u32.to_le_bytes());
            write_frame(&mut stream, STATUS_OK, hello.req_id, &grant).unwrap();
            script(stream);
        });
        (addr, handle)
    }

    fn ok_response(out: &mut Vec<u8>, req_id: u64, payload: &[u8]) {
        encode_frame(out, STATUS_OK, req_id, payload);
    }

    #[test]
    fn hostile_length_prefix_is_refused_within_the_bounded_read_buffer() {
        let (addr, server) = fake_server(|mut stream| {
            let _ = read_frame(&mut stream, DEFAULT_MAX_FRAME);
            let mut hostile = u32::MAX.to_le_bytes().to_vec();
            hostile.resize(1 << 20, 0xab);
            // The client hangs up mid-stream; that is the point.
            let _ = stream.write_all(&hostile);
        });
        let mut client = PipelinedClient::connect(addr, 0, 8).unwrap();
        client.submit_read(0).unwrap();
        match client.recv() {
            Err(ClientError::Frame(FrameError::Oversized { len, max })) => {
                assert_eq!((len, max), (u32::MAX, DEFAULT_MAX_FRAME));
            }
            other => panic!("expected Oversized, got {other:?}"),
        }
        assert!(client.conn.rbuf.len() <= DEFAULT_MAX_FRAME as usize + 64 * 1024);
        drop(client);
        server.join().unwrap();
    }

    #[test]
    fn responses_dribbled_one_byte_per_write_parse_correctly() {
        let (addr, server) = fake_server(|mut stream| {
            stream.set_nodelay(true).unwrap();
            let read = read_frame(&mut stream, DEFAULT_MAX_FRAME).unwrap();
            let write = read_frame(&mut stream, DEFAULT_MAX_FRAME).unwrap();
            let mut bytes = Vec::new();
            ok_response(&mut bytes, write.req_id, &[]);
            ok_response(&mut bytes, read.req_id, &[0x5a; BLOCK_BYTES]);
            for byte in bytes {
                stream.write_all(&[byte]).unwrap();
                thread::sleep(Duration::from_micros(200));
            }
        });
        let mut client = PipelinedClient::connect(addr, 0, 8).unwrap();
        let read = client.submit_read(64).unwrap();
        let write = client.submit_write(0, &[1; BLOCK_BYTES]).unwrap();
        assert_eq!(client.recv().unwrap(), (write, Ok(PipelinedValue::Written)));
        assert_eq!(
            client.recv().unwrap(),
            (read, Ok(PipelinedValue::Data([0x5a; BLOCK_BYTES])))
        );
        server.join().unwrap();
    }

    #[test]
    fn two_responses_in_one_segment_come_from_one_read() {
        let (release, released) = channel::<()>();
        let (addr, server) = fake_server(move |mut stream| {
            let a = read_frame(&mut stream, DEFAULT_MAX_FRAME).unwrap();
            let b = read_frame(&mut stream, DEFAULT_MAX_FRAME).unwrap();
            let mut both = Vec::new();
            ok_response(&mut both, a.req_id, &[]);
            ok_response(&mut both, b.req_id, &[]);
            stream.write_all(&both).unwrap();
            // Silent from here on: a second `read` would block.
            let _ = released.recv();
        });
        let mut client = PipelinedClient::connect(addr, 0, 8).unwrap();
        let a = client.submit_write(0, &[1; BLOCK_BYTES]).unwrap();
        let b = client.submit_write(64, &[2; BLOCK_BYTES]).unwrap();
        client
            .conn
            .stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(client.recv().unwrap(), (a, Ok(PipelinedValue::Written)));
        assert_eq!(
            client.conn.rend - client.conn.rpos,
            4 + HEADER_BYTES,
            "the second response came in with the first"
        );
        assert_eq!(client.recv().unwrap(), (b, Ok(PipelinedValue::Written)));
        release.send(()).unwrap();
        drop(client);
        server.join().unwrap();
    }

    #[test]
    fn flush_transmits_without_any_recv() {
        let server = Server::bind(
            "127.0.0.1:0",
            ServerConfig {
                tenants: vec![TenantSpec::new(
                    0,
                    StoreConfig {
                        shards: 1,
                        shard_bytes: 1 << 16,
                        ..StoreConfig::default()
                    },
                )],
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let mut writer = PipelinedClient::connect(server.addr(), 0, 8).unwrap();
        writer.submit_write(64, &[0x3c; BLOCK_BYTES]).unwrap();
        writer.flush().unwrap();
        let mut reader = Client::connect(server.addr(), 0).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while reader.read(64).unwrap() != [0x3c; BLOCK_BYTES] {
            assert!(Instant::now() < deadline, "the flushed write never landed");
            thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(writer.drain().unwrap().len(), 1);
        writer.goodbye().unwrap();
        reader.goodbye().unwrap();
        let _ = server.shutdown();
    }

    #[test]
    fn a_failed_flush_does_not_hide_the_shutdown_notice() {
        let (handshaken, go) = channel::<()>();
        let (closed, server_gone) = channel::<()>();
        let (addr, server) = fake_server(move |mut stream| {
            // The notice must not ride in on the handshake's own `read`.
            go.recv().unwrap();
            write_frame(&mut stream, code::SHUTTING_DOWN, 0, &[]).unwrap();
            drop(stream);
            closed.send(()).unwrap();
        });
        let mut client = PipelinedClient::connect(addr, 0, 8).unwrap();
        handshaken.send(()).unwrap();
        server_gone.recv().unwrap();
        // Writes to the closed peer fail once its reset has landed.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            client.submit_read(0).unwrap();
            match client.flush() {
                Err(ClientError::Io(_)) => break,
                Ok(()) => assert!(Instant::now() < deadline, "writes never failed"),
                Err(other) => panic!("unexpected flush error {other:?}"),
            }
            thread::sleep(Duration::from_millis(5));
        }
        // Unflushed requests again: `recv`'s own flush fails, and the
        // notice already on the socket is what the caller sees.
        client.submit_read(64).unwrap();
        match client.recv() {
            Err(ClientError::Wire(WireError::ShuttingDown)) => {}
            other => panic!("expected the shutdown notice, got {other:?}"),
        }
        server.join().unwrap();
    }
}
