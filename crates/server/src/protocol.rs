//! The wire protocol: length-prefixed binary frames and the exhaustive
//! [`StoreError`]↔code table.
//!
//! # Frame layout
//!
//! Requests and responses share one shape (all integers little-endian):
//!
//! ```text
//! [u32 len] [u8 tag] [u64 req_id] [payload: len - 9 bytes]
//! ```
//!
//! `len` counts everything after itself (tag + request id + payload).
//! In a request the tag is an opcode ([`op`]); in a response it is a
//! status: [`STATUS_OK`] or an error code ([`code`]). Request ids are
//! client-chosen; within one connection's in-flight window they must be
//! unique, and responses may arrive in any order (the store completes
//! per-shard FIFO, but shards race each other).
//!
//! # Error codes
//!
//! Codes `0x10..=0x15` are the six [`StoreError`] variants, each with
//! a payload carrying the variant's fields, so a client round-trips the
//! exact error the store raised; `0x16` and `0x17` are retired. Codes `0x20..=0x26` are server-side
//! rejections that never touch the store (bad framing, quota, version,
//! shutdown). [`encode_store_error`] matches every variant with no
//! wildcard arm: adding a `StoreError` variant fails compilation here
//! until a code is assigned. Decoding is future-proof in the other
//! direction — a code this client does not know becomes
//! [`WireError::Unknown`] instead of a parse failure.

use ame_engine::ReadError;
use ame_store::{StoreError, BLOCK_BYTES};
use ame_tree::merkle::VerifyError;
use std::io::{self, Read, Write};

/// Protocol version spoken by this crate (checked in the `Hello`
/// handshake).
pub const PROTOCOL_VERSION: u32 = 1;

/// Frame header bytes after the length prefix: tag (1) + request id (8).
pub const HEADER_BYTES: usize = 9;

/// Default upper bound on `len` (the largest legitimate frame is a
/// `Cas` request: header + addr + two blocks ≈ 145 bytes, so 4 KiB is
/// generous; anything larger is hostile or garbage).
pub const DEFAULT_MAX_FRAME: u32 = 4096;

/// Response status tag for success.
pub const STATUS_OK: u8 = 0x00;

/// Request opcodes.
pub mod op {
    /// Handshake; payload `[u32 version][u32 tenant][u32 window]`.
    /// Response payload `[u32 granted_window][u32 shards]`.
    pub const HELLO: u8 = 0x01;
    /// Verified read; payload `[u64 addr]`, response payload one block.
    pub const READ: u8 = 0x02;
    /// Write; payload `[u64 addr][block]`, empty response payload.
    pub const WRITE: u8 = 0x03;
    /// Compare-and-swap; payload `[u64 addr][expected block][new block]`,
    /// response payload the pre-image (caller compares to learn whether
    /// the swap took).
    pub const CAS: u8 = 0x04;
    /// Fault injection (test/attack surface, mirroring the in-process
    /// tamper API); payload `[u64 addr][u32 bit][u8 kind]` with kind 0 =
    /// data, 1 = ECC side-band. Empty response payload.
    pub const TAMPER: u8 = 0x05;
    /// Orderly goodbye; empty payload, empty response, then the server
    /// closes the connection.
    pub const GOODBYE: u8 = 0x06;
}

/// Wire error codes (response status tags other than [`STATUS_OK`]).
pub mod code {
    /// [`StoreError::OutOfRange`](ame_store::StoreError::OutOfRange); payload `[u64 addr][u64 len]`.
    pub const OUT_OF_RANGE: u8 = 0x10;
    /// [`StoreError::Unaligned`](ame_store::StoreError::Unaligned); payload `[u64 addr]`.
    pub const UNALIGNED: u8 = 0x11;
    /// [`StoreError::Overloaded`](ame_store::StoreError::Overloaded); payload `[u32 shard]`.
    pub const OVERLOADED: u8 = 0x12;
    /// [`StoreError::ShardPoisoned`](ame_store::StoreError::ShardPoisoned); payload `[u32 shard][u8 has_cause]`
    /// then, if `has_cause`, a cause tag (0 = tree with
    /// `[u32 level][u64 node]`, 1 = MAC uncorrectable, 2 = ECC
    /// uncorrectable, 3 = integrity violation).
    pub const SHARD_POISONED: u8 = 0x13;
    /// [`StoreError::Disconnected`](ame_store::StoreError::Disconnected); payload `[u32 shard]`.
    pub const DISCONNECTED: u8 = 0x14;
    /// [`StoreError::Timeout`](ame_store::StoreError::Timeout); empty payload.
    pub const TIMEOUT: u8 = 0x15;
    // 0x16 and 0x17 are retired: they named the errors of a deleted
    // two-phase-commit API. Never reuse them — a client that still knows
    // the old table must not read a new error as one of those.

    /// Server is draining for shutdown; no new operations admitted.
    pub const SHUTTING_DOWN: u8 = 0x20;
    /// Malformed frame (oversized length prefix, short header, bad
    /// payload shape, or an operation before `Hello`).
    pub const BAD_FRAME: u8 = 0x21;
    /// Opcode the server does not recognise; payload `[u8 opcode]`.
    pub const UNKNOWN_OPCODE: u8 = 0x22;
    /// Request id already in flight on this connection.
    pub const DUPLICATE_REQUEST_ID: u8 = 0x23;
    /// `Hello` named a tenant the server does not host; payload
    /// `[u32 tenant]`.
    pub const UNKNOWN_TENANT: u8 = 0x24;
    /// Tenant connection quota exhausted.
    pub const QUOTA_EXCEEDED: u8 = 0x25;
    /// Client protocol version unsupported; payload `[u32 server_version]`.
    pub const BAD_VERSION: u8 = 0x26;
}

/// One decoded frame (request or response — the tag disambiguates).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Opcode (request) or status (response).
    pub tag: u8,
    /// Client-chosen request id the response echoes.
    pub req_id: u64,
    /// Everything after the header.
    pub payload: Vec<u8>,
}

impl Frame {
    /// The frame as a borrowed [`FrameRef`].
    pub(crate) fn borrowed(&self) -> FrameRef<'_> {
        FrameRef {
            tag: self.tag,
            req_id: self.req_id,
            payload: &self.payload,
        }
    }
}

/// One frame parsed in place: the payload borrows the buffer it was
/// parsed from, so taking a frame off a read buffer copies nothing.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FrameRef<'a> {
    pub(crate) tag: u8,
    pub(crate) req_id: u64,
    pub(crate) payload: &'a [u8],
}

impl FrameRef<'_> {
    /// Bytes the frame occupies on the wire, length prefix included.
    pub(crate) fn wire_len(&self) -> usize {
        4 + HEADER_BYTES + self.payload.len()
    }

    /// An owned copy, for a frame that must outlive its buffer.
    pub(crate) fn to_frame(self) -> Frame {
        Frame {
            tag: self.tag,
            req_id: self.req_id,
            payload: self.payload.to_vec(),
        }
    }
}

/// Parses the complete frame at the front of `buf`, if one is buffered,
/// without copying it out. `Ok(None)` means "keep reading"; an error is
/// a framing violation that desynchronises the stream (the connection
/// must close). The length prefix is checked against `max_frame` as soon
/// as its four bytes are present, so a hostile prefix is refused before
/// any of its body needs buffering.
pub(crate) fn try_parse_frame(
    buf: &[u8],
    max_frame: u32,
) -> Result<Option<FrameRef<'_>>, FrameError> {
    let Some(prefix) = buf.first_chunk::<4>() else {
        return Ok(None);
    };
    let len = u32::from_le_bytes(*prefix);
    if len > max_frame {
        return Err(FrameError::Oversized {
            len,
            max: max_frame,
        });
    }
    if (len as usize) < HEADER_BYTES {
        return Err(FrameError::TooShort { len });
    }
    let Some(body) = buf.get(4..4 + len as usize) else {
        return Ok(None);
    };
    Ok(Some(FrameRef {
        tag: body[0],
        req_id: u64::from_le_bytes(body[1..HEADER_BYTES].try_into().unwrap()),
        payload: &body[HEADER_BYTES..],
    }))
}

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// The transport failed (includes clean EOF between frames as
    /// `UnexpectedEof`).
    Io(io::Error),
    /// The length prefix exceeds the negotiated maximum — hostile or
    /// desynchronised; the connection cannot be resynchronised.
    Oversized {
        /// Claimed frame length.
        len: u32,
        /// The enforced ceiling.
        max: u32,
    },
    /// The length prefix is too small to hold the tag + request id.
    TooShort {
        /// Claimed frame length.
        len: u32,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame transport: {e}"),
            FrameError::Oversized { len, max } => {
                write!(f, "frame length {len} exceeds the {max}-byte ceiling")
            }
            FrameError::TooShort { len } => {
                write!(
                    f,
                    "frame length {len} cannot hold the {HEADER_BYTES}-byte header"
                )
            }
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Reads one frame, enforcing `max_len` on the length prefix *before*
/// allocating or reading the body, so a hostile 4 GiB prefix costs
/// nothing.
///
/// # Errors
///
/// [`FrameError::Io`] on transport failure or EOF,
/// [`FrameError::Oversized`] / [`FrameError::TooShort`] on a length
/// prefix outside `HEADER_BYTES..=max_len`.
pub fn read_frame(r: &mut impl Read, max_len: u32) -> Result<Frame, FrameError> {
    let mut prefix = [0u8; 4];
    r.read_exact(&mut prefix)?;
    let len = u32::from_le_bytes(prefix);
    if len > max_len {
        return Err(FrameError::Oversized { len, max: max_len });
    }
    if (len as usize) < HEADER_BYTES {
        return Err(FrameError::TooShort { len });
    }
    let mut body = vec![0u8; len as usize];
    r.read_exact(&mut body)?;
    let tag = body[0];
    let req_id = u64::from_le_bytes(body[1..9].try_into().unwrap());
    body.drain(..HEADER_BYTES);
    Ok(Frame {
        tag,
        req_id,
        payload: body,
    })
}

/// Writes one frame and flushes it.
///
/// # Errors
///
/// Propagates transport errors.
pub fn write_frame(w: &mut impl Write, tag: u8, req_id: u64, payload: &[u8]) -> io::Result<()> {
    let mut buf = Vec::with_capacity(4 + HEADER_BYTES + payload.len());
    encode_frame(&mut buf, tag, req_id, payload);
    w.write_all(&buf)?;
    w.flush()
}

/// Appends one encoded frame to `out`.
pub(crate) fn encode_frame(out: &mut Vec<u8>, tag: u8, req_id: u64, payload: &[u8]) {
    let len = (HEADER_BYTES + payload.len()) as u32;
    out.extend_from_slice(&len.to_le_bytes());
    out.push(tag);
    out.extend_from_slice(&req_id.to_le_bytes());
    out.extend_from_slice(payload);
}

/// An error as decoded off the wire: either a faithful [`StoreError`]
/// or a server-side rejection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The store raised this exact error on the server.
    Store(StoreError),
    /// Server draining for shutdown.
    ShuttingDown,
    /// The server rejected the frame as malformed.
    BadFrame,
    /// The server did not recognise the opcode.
    UnknownOpcode(u8),
    /// The request id was already in flight on the connection.
    DuplicateRequestId,
    /// The tenant named in `Hello` is not hosted.
    UnknownTenant(u32),
    /// The tenant's connection quota is exhausted.
    QuotaExceeded,
    /// Protocol version mismatch; carries the server's version.
    BadVersion(u32),
    /// A code this client build does not know — a newer server. The
    /// request failed; the code is preserved for diagnostics.
    Unknown(u8),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Store(e) => write!(f, "store: {e}"),
            WireError::ShuttingDown => write!(f, "server shutting down"),
            WireError::BadFrame => write!(f, "server rejected the frame as malformed"),
            WireError::UnknownOpcode(opcode) => {
                write!(f, "server does not recognise opcode {opcode:#04x}")
            }
            WireError::DuplicateRequestId => write!(f, "request id already in flight"),
            WireError::UnknownTenant(t) => write!(f, "tenant {t} is not hosted"),
            WireError::QuotaExceeded => write!(f, "tenant connection quota exhausted"),
            WireError::BadVersion(v) => {
                write!(f, "protocol version mismatch (server speaks {v})")
            }
            WireError::Unknown(c) => write!(f, "unknown wire error code {c:#04x}"),
        }
    }
}

impl std::error::Error for WireError {}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Encodes a [`StoreError`] as `(code, payload)`.
///
/// The match is exhaustive **without a wildcard arm** on purpose:
/// adding a `StoreError` variant must fail compilation here until the
/// new variant gets a wire code and payload.
#[must_use]
pub fn encode_store_error(e: &StoreError) -> (u8, Vec<u8>) {
    let mut p = Vec::new();
    let code = match e {
        StoreError::OutOfRange { addr, len } => {
            put_u64(&mut p, *addr);
            put_u64(&mut p, *len);
            code::OUT_OF_RANGE
        }
        StoreError::Unaligned { addr } => {
            put_u64(&mut p, *addr);
            code::UNALIGNED
        }
        StoreError::Overloaded { shard } => {
            put_u32(&mut p, *shard as u32);
            code::OVERLOADED
        }
        StoreError::ShardPoisoned { shard, cause } => {
            put_u32(&mut p, *shard as u32);
            match cause {
                None => p.push(0),
                Some(cause) => {
                    p.push(1);
                    match cause {
                        ReadError::Tree(VerifyError { level, node }) => {
                            p.push(0);
                            put_u32(&mut p, *level as u32);
                            put_u64(&mut p, *node);
                        }
                        ReadError::MacUncorrectable => p.push(1),
                        ReadError::EccUncorrectable => p.push(2),
                        ReadError::IntegrityViolation => p.push(3),
                    }
                }
            }
            code::SHARD_POISONED
        }
        StoreError::Disconnected { shard } => {
            put_u32(&mut p, *shard as u32);
            code::DISCONNECTED
        }
        StoreError::Timeout => code::TIMEOUT,
    };
    (code, p)
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn u8(&mut self) -> Option<u8> {
        let v = *self.buf.get(self.pos)?;
        self.pos += 1;
        Some(v)
    }

    fn u32(&mut self) -> Option<u32> {
        let bytes = self.buf.get(self.pos..self.pos + 4)?;
        self.pos += 4;
        Some(u32::from_le_bytes(bytes.try_into().unwrap()))
    }

    fn u64(&mut self) -> Option<u64> {
        let bytes = self.buf.get(self.pos..self.pos + 8)?;
        self.pos += 8;
        Some(u64::from_le_bytes(bytes.try_into().unwrap()))
    }
}

fn decode_store_error(code: u8, payload: &[u8]) -> Option<WireError> {
    let mut c = Cursor {
        buf: payload,
        pos: 0,
    };
    let e = match code {
        code::OUT_OF_RANGE => StoreError::OutOfRange {
            addr: c.u64()?,
            len: c.u64()?,
        },
        code::UNALIGNED => StoreError::Unaligned { addr: c.u64()? },
        code::OVERLOADED => StoreError::Overloaded {
            shard: c.u32()? as usize,
        },
        code::SHARD_POISONED => {
            let shard = c.u32()? as usize;
            let cause = match c.u8()? {
                0 => None,
                _ => Some(match c.u8()? {
                    0 => ReadError::Tree(VerifyError {
                        level: c.u32()? as usize,
                        node: c.u64()?,
                    }),
                    1 => ReadError::MacUncorrectable,
                    2 => ReadError::EccUncorrectable,
                    3 => ReadError::IntegrityViolation,
                    _ => return None,
                }),
            };
            StoreError::ShardPoisoned { shard, cause }
        }
        code::DISCONNECTED => StoreError::Disconnected {
            shard: c.u32()? as usize,
        },
        code::TIMEOUT => StoreError::Timeout,
        _ => return None,
    };
    Some(WireError::Store(e))
}

/// Decodes a non-OK response status into a [`WireError`].
///
/// Codes outside the table decode as [`WireError::Unknown`] — a newer
/// server remains talkable-to, its novel errors merely opaque.
#[must_use]
pub fn decode_error(code: u8, payload: &[u8]) -> WireError {
    if let Some(e) = decode_store_error(code, payload) {
        return e;
    }
    let mut c = Cursor {
        buf: payload,
        pos: 0,
    };
    match code {
        code::SHUTTING_DOWN => WireError::ShuttingDown,
        code::BAD_FRAME => WireError::BadFrame,
        code::UNKNOWN_OPCODE => match c.u8() {
            Some(opcode) => WireError::UnknownOpcode(opcode),
            None => WireError::BadFrame,
        },
        code::DUPLICATE_REQUEST_ID => WireError::DuplicateRequestId,
        code::UNKNOWN_TENANT => match c.u32() {
            Some(t) => WireError::UnknownTenant(t),
            None => WireError::BadFrame,
        },
        code::QUOTA_EXCEEDED => WireError::QuotaExceeded,
        code::BAD_VERSION => match c.u32() {
            Some(v) => WireError::BadVersion(v),
            None => WireError::BadFrame,
        },
        other => WireError::Unknown(other),
    }
}

/// Encodes a non-store server rejection as `(code, payload)`.
#[must_use]
pub fn encode_server_error(e: &WireError) -> (u8, Vec<u8>) {
    let mut p = Vec::new();
    let code = match e {
        WireError::Store(se) => return encode_store_error(se),
        WireError::ShuttingDown => code::SHUTTING_DOWN,
        WireError::BadFrame => code::BAD_FRAME,
        WireError::UnknownOpcode(opcode) => {
            p.push(*opcode);
            code::UNKNOWN_OPCODE
        }
        WireError::DuplicateRequestId => code::DUPLICATE_REQUEST_ID,
        WireError::UnknownTenant(t) => {
            put_u32(&mut p, *t);
            code::UNKNOWN_TENANT
        }
        WireError::QuotaExceeded => code::QUOTA_EXCEEDED,
        WireError::BadVersion(v) => {
            put_u32(&mut p, *v);
            code::BAD_VERSION
        }
        WireError::Unknown(c) => *c,
    };
    (code, p)
}

/// Splits a payload expected to be exactly one block.
#[must_use]
pub fn block_payload(payload: &[u8]) -> Option<[u8; BLOCK_BYTES]> {
    payload.try_into().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, op::READ, 42, &7u64.to_le_bytes()).unwrap();
        let frame = read_frame(&mut buf.as_slice(), DEFAULT_MAX_FRAME).unwrap();
        assert_eq!(frame.tag, op::READ);
        assert_eq!(frame.req_id, 42);
        assert_eq!(frame.payload, 7u64.to_le_bytes());
    }

    #[test]
    fn oversized_prefix_rejected_before_reading_body() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        match read_frame(&mut buf.as_slice(), DEFAULT_MAX_FRAME) {
            Err(FrameError::Oversized { len, max }) => {
                assert_eq!(len, u32::MAX);
                assert_eq!(max, DEFAULT_MAX_FRAME);
            }
            other => panic!("expected Oversized, got {other:?}"),
        }
    }

    #[test]
    fn short_prefix_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&3u32.to_le_bytes());
        buf.extend_from_slice(&[0, 0, 0]);
        assert!(matches!(
            read_frame(&mut buf.as_slice(), DEFAULT_MAX_FRAME),
            Err(FrameError::TooShort { len: 3 })
        ));
    }

    #[test]
    fn truncated_body_is_io_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, op::WRITE, 1, &[0u8; 72]).unwrap();
        buf.truncate(buf.len() - 10);
        assert!(matches!(
            read_frame(&mut buf.as_slice(), DEFAULT_MAX_FRAME),
            Err(FrameError::Io(_))
        ));
    }
}
