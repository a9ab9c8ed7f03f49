//! Checksummed binary framing for the durable storage plane.
//!
//! Every persistent artifact of the store is built from two primitives,
//! both with the same conventions (8-byte magic, little-endian integers,
//! `InvalidData` on anything malformed):
//!
//! * **Sections** — a self-describing envelope for whole-state snapshots:
//!   `magic(8) | version(u32) | len(u64) | payload | crc64`, where the
//!   CRC covers everything before it. A flipped bit anywhere in the file
//!   fails the checksum instead of being silently "corrected" downstream.
//! * **Log records** — the unit of a write-intent log:
//!   `len(u32) | crc64(payload) | payload`. [`wal_records`] distinguishes a
//!   *torn* tail (a record cut short by a crash — by definition never
//!   acknowledged, so it is not replayed) from a *corrupt* record (complete
//!   but failing its CRC — evidence of tampering or media failure, which
//!   must quarantine the shard).
//!
//! The CRC is CRC-64/XZ (ECMA-182 polynomial, reflected), computed
//! sixteen bytes per step (slice-by-16). Sections are written in place
//! ([`SectionWriter`]): an image of nested sections is appended into one
//! buffer and every byte of it is checksummed once.
//!
//! The crate also holds [`IndexMap`], the integer-keyed hash map that
//! the dram, counters, tree and engine crates share for their per-block
//! lookups, and [`read_index_table`], the one canonical-form decoder for
//! the sorted tables they serialize from it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod index;

pub use index::{IndexHasher, IndexMap};

use std::io;
use std::ops::{Deref, DerefMut};

/// Reflected ECMA-182 polynomial (CRC-64/XZ).
const CRC64_POLY: u64 = 0xC96C_5795_D787_0F42;

/// One bit-step of the reflected CRC register: multiplication by `x`.
const fn crc_step(crc: u64) -> u64 {
    (crc >> 1) ^ (CRC64_POLY & (crc & 1).wrapping_neg())
}

/// Slice-by-16 tables: `CRC_TABLES[k][b]` is the register after byte `b`
/// and then `k` zero bytes, so sixteen input bytes fold into the state
/// with sixteen independent lookups.
static CRC_TABLES: [[u64; 256]; 16] = {
    let mut tables = [[0u64; 256]; 16];
    let mut n = 0;
    while n < 16 * 256 {
        let (k, byte) = (n / 256, n % 256);
        let mut crc = byte as u64;
        let mut bit = 0;
        while bit < 8 * (k + 1) {
            crc = crc_step(crc);
            bit += 1;
        }
        tables[k][byte] = crc;
        n += 1;
    }
    tables
};

/// Advances the raw (un-inverted) CRC state over `bytes`, sixteen bytes
/// per step.
fn crc64_update(mut crc: u64, bytes: &[u8]) -> u64 {
    let mut chunks = bytes.chunks_exact(16);
    for chunk in &mut chunks {
        let chunk = u128::from_le_bytes(chunk.try_into().expect("16 bytes"));
        let mixed = (chunk ^ u128::from(crc)).to_le_bytes();
        crc = 0;
        for (byte, table) in mixed.iter().zip(CRC_TABLES.iter().rev()) {
            crc ^= table[usize::from(*byte)];
        }
    }
    for &b in chunks.remainder() {
        crc = CRC_TABLES[0][((crc ^ u64::from(b)) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc
}

/// CRC-64/XZ of `bytes`.
#[must_use]
pub fn crc64(bytes: &[u8]) -> u64 {
    !crc64_update(!0, bytes)
}

/// `a * b mod P` in the CRC's reflected bit order (bit 63 is `x^0`).
fn mul_mod(a: u64, mut b: u64) -> u64 {
    let mut product = 0;
    for bit in (0..64).rev() {
        product ^= b & (a >> bit & 1).wrapping_neg();
        b = crc_step(b);
    }
    product
}

/// `crc64(a || b)` from `crc64(a)`, `crc64(b)` and `b`'s length: the
/// checksum is linear over GF(2), so appending `len_b` bytes multiplies
/// `a`'s checksum by `x^(8 * len_b) mod P` (square-and-multiply, ~`log2
/// len_b` steps) instead of walking `b` again.
fn crc64_concat(crc_a: u64, crc_b: u64, len_b: usize) -> u64 {
    let mut shift = 1 << 63; // x^0
    let mut power = 1 << 55; // x^8: one byte
    let mut n = len_b;
    while n != 0 {
        if n & 1 == 1 {
            shift = mul_mod(shift, power);
        }
        power = mul_mod(power, power);
        n >>= 1;
    }
    mul_mod(shift, crc_a) ^ crc_b
}

/// Builds an `InvalidData` error with `msg`.
#[must_use]
pub fn invalid_data(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Appends a little-endian `u32`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// A cursor over a byte slice with checked little-endian accessors.
///
/// Every accessor returns `UnexpectedEof` when the slice runs out, so
/// decoders bubble truncation up as an I/O error instead of panicking.
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Wraps `buf` with the cursor at the start.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes left to read.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// `true` once the cursor has consumed the whole slice.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Takes the next `n` bytes.
    ///
    /// # Errors
    ///
    /// `UnexpectedEof` if fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "truncated input",
            ));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// `UnexpectedEof` at the end of the slice.
    pub fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// `UnexpectedEof` if fewer than 4 bytes remain.
    pub fn u32(&mut self) -> io::Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// `UnexpectedEof` if fewer than 8 bytes remain.
    pub fn u64(&mut self) -> io::Result<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// Reads a fixed-size byte array.
    ///
    /// # Errors
    ///
    /// `UnexpectedEof` if fewer than `N` bytes remain.
    pub fn array<const N: usize>(&mut self) -> io::Result<[u8; N]> {
        let b = self.take(N)?;
        Ok(b.try_into().expect("N bytes"))
    }

    /// Ends a decode: succeeds only if the cursor has consumed the whole
    /// slice, so a canonical decoder refuses bytes after its last field
    /// instead of silently dropping them.
    ///
    /// # Errors
    ///
    /// `InvalidData` if any byte is left unread.
    pub fn end(&self) -> io::Result<()> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(invalid_data(format!("{n} bytes after the last field"))),
        }
    }
}

/// Bytes of a section header: `magic(8) | version(u32) | len(u64)`.
const SECTION_HEADER: usize = 20;

/// Bytes a section adds around its payload: the header plus the
/// trailing CRC.
pub const SECTION_OVERHEAD: usize = SECTION_HEADER + 8;

/// `crc64` of any finished section taken over *all* its bytes, trailer
/// included: appending a CRC-64/XZ to the bytes it covers always leaves
/// this residue, whatever the bytes were.
const SECTION_RESIDUE: u64 = 0xB66A_7365_4282_CAC0;

/// Writes one checksummed section — `magic | version | len | payload |
/// crc64`, the CRC covering everything before it — in place at the end
/// of a buffer: [`begin`](Self::begin) appends the header, the writer
/// dereferences to the buffer so the payload is appended straight into
/// it, and [`finish`](Self::finish) back-patches `len` and appends the
/// CRC. Nothing is staged in a second buffer.
#[derive(Debug)]
pub struct SectionWriter<'a> {
    out: &'a mut Vec<u8>,
    start: usize,
    /// Raw CRC state over the payload bytes before `summed`.
    state: u64,
    summed: usize,
}

impl<'a> SectionWriter<'a> {
    /// Opens a section at the end of `out`.
    pub fn begin(out: &'a mut Vec<u8>, magic: &[u8; 8], version: u32) -> Self {
        let start = out.len();
        out.extend_from_slice(magic);
        put_u32(out, version);
        put_u64(out, 0); // len, patched by `finish`
        Self {
            out,
            start,
            state: !0,
            summed: start + SECTION_HEADER,
        }
    }

    /// Walks the payload bytes not yet in the running checksum.
    fn absorb(&mut self) {
        self.state = crc64_update(self.state, &self.out[self.summed..]);
        self.summed = self.out.len();
    }

    /// Lets `write` append **exactly one finished section** as the next
    /// part of this payload. Its bytes were walked when it computed its
    /// own CRC and their checksum is `SECTION_RESIDUE` by
    /// construction, so they enter this section's checksum by
    /// arithmetic on its length: every byte of a nested image is walked
    /// once, however deep it sits. (A nested section written without
    /// this call is still checksummed correctly — it is just walked
    /// again.)
    pub fn nested(&mut self, write: impl FnOnce(&mut Vec<u8>)) {
        self.absorb();
        write(self.out);
        let child = &self.out[self.summed..];
        debug_assert_eq!(crc64(child), SECTION_RESIDUE, "not one finished section");
        self.state = !crc64_concat(!self.state, SECTION_RESIDUE, child.len());
        self.summed = self.out.len();
    }

    /// Closes the section: patches the payload length into the header
    /// and appends the CRC of header and payload.
    pub fn finish(mut self) {
        self.absorb();
        let payload = self.start + SECTION_HEADER;
        let len = self.out.len() - payload;
        self.out[payload - 8..payload].copy_from_slice(&(len as u64).to_le_bytes());
        let header = crc64(&self.out[self.start..payload]);
        let crc = crc64_concat(header, !self.state, len);
        put_u64(self.out, crc);
    }
}

impl Deref for SectionWriter<'_> {
    type Target = Vec<u8>;
    fn deref(&self) -> &Vec<u8> {
        self.out
    }
}

impl DerefMut for SectionWriter<'_> {
    fn deref_mut(&mut self) -> &mut Vec<u8> {
        self.out
    }
}

/// Reads one section, verifying magic and checksum; the cursor advances
/// past the section. Returns the stored version and a sub-reader over the
/// payload — version checking is the caller's (per-format) business.
///
/// # Errors
///
/// `InvalidData` for a wrong magic, truncated body, or checksum mismatch.
pub fn read_section<'a>(
    r: &mut ByteReader<'a>,
    magic: &[u8; 8],
) -> io::Result<(u32, ByteReader<'a>)> {
    let start = r.pos;
    let found: [u8; 8] = r
        .array()
        .map_err(|_| invalid_data("truncated section header"))?;
    if &found != magic {
        return Err(invalid_data(format!(
            "bad section magic: expected {magic:?}, found {found:?}"
        )));
    }
    let version = r.u32().map_err(|_| invalid_data("truncated section"))?;
    let len = r.u64().map_err(|_| invalid_data("truncated section"))? as usize;
    let payload = r.take(len).map_err(|_| invalid_data("truncated section"))?;
    let covered = &r.buf[start..r.pos];
    let stored = r.u64().map_err(|_| invalid_data("truncated section"))?;
    if crc64(covered) != stored {
        return Err(invalid_data("section checksum mismatch"));
    }
    Ok((version, ByteReader::new(payload)))
}

/// Reads a table of index-keyed entries that fills the rest of `r`: a
/// `u64` count, then per entry a `u64` key followed by the value
/// `read_value` decodes, `entry_bytes` in all. Only the canonical form a
/// key-sorting encoder writes is accepted: the count must match the
/// bytes actually there — checked before anything is sized by it — and
/// the keys must be strictly ascending, so no duplicate can silently
/// overwrite an earlier entry.
///
/// # Errors
///
/// `InvalidData` for a count that disagrees with the remaining bytes or
/// a repeated or out-of-order key; whatever `read_value` returns.
pub fn read_index_table<'a, V>(
    r: &mut ByteReader<'a>,
    entry_bytes: usize,
    mut read_value: impl FnMut(&mut ByteReader<'a>) -> io::Result<V>,
) -> io::Result<IndexMap<V>> {
    let count = r.u64()?;
    if u64::try_from(r.remaining()).ok() != count.checked_mul(entry_bytes as u64) {
        return Err(invalid_data("table count disagrees with payload length"));
    }
    let mut table = IndexMap::with_capacity_and_hasher(count as usize, Default::default());
    let mut previous = None;
    for _ in 0..count {
        let key = r.u64()?;
        if previous.is_some_and(|p| key <= p) {
            return Err(invalid_data("table keys not strictly ascending"));
        }
        previous = Some(key);
        table.insert(key, read_value(r)?);
    }
    debug_assert!(r.is_empty(), "entries shorter than entry_bytes");
    Ok(table)
}

/// Bytes of a log record's header: `len(u32) | crc64(payload)`.
const RECORD_HEADER: usize = 12;

/// Appends one framed write-intent log record — `len(u32) |
/// crc64(payload) | payload` — to `out`, the payload written in place by
/// `encode` and the header back-patched once its length is known.
pub fn frame_record_into(out: &mut Vec<u8>, encode: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    out.extend_from_slice(&[0; RECORD_HEADER]);
    encode(out);
    let payload = start + RECORD_HEADER;
    let len = (out.len() - payload) as u32;
    let crc = crc64(&out[payload..]);
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
    out[start + 4..payload].copy_from_slice(&crc.to_le_bytes());
}

/// Frames `payload` as one write-intent log record.
#[must_use]
pub fn frame_record(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(RECORD_HEADER + payload.len());
    frame_record_into(&mut out, |out| out.extend_from_slice(payload));
    out
}

/// The payloads of a write-intent log image's intact records, in append
/// order, borrowed from the image: a replay reads each record where it
/// lies and holds no copy of the log.
///
/// A record cut short by the end of the file (partial header or declared
/// length past EOF) is a **torn tail**: the records end there. A record
/// that is complete but fails its CRC is **corruption**: it yields
/// `InvalidData` and nothing follows it — the caller must quarantine,
/// never serve, that state.
pub fn wal_records(bytes: &[u8]) -> WalRecords<'_> {
    WalRecords { rest: bytes }
}

/// The iterator [`wal_records`] returns.
#[derive(Debug, Clone)]
pub struct WalRecords<'a> {
    /// The bytes after the last record yielded.
    rest: &'a [u8],
}

impl<'a> Iterator for WalRecords<'a> {
    type Item = io::Result<&'a [u8]>;

    fn next(&mut self) -> Option<Self::Item> {
        let (header, body) = self.rest.split_at_checked(RECORD_HEADER)?;
        let len = u32::from_le_bytes(header[..4].try_into().expect("4 bytes")) as usize;
        let stored = u64::from_le_bytes(header[4..].try_into().expect("8 bytes"));
        let Some((payload, next)) = body.split_at_checked(len) else {
            self.rest = &[];
            return None;
        };
        if crc64(payload) != stored {
            self.rest = &[];
            return Some(Err(invalid_data(
                "write-intent log record checksum mismatch",
            )));
        }
        self.rest = next;
        Some(Ok(payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(bytes: &[u8]) -> io::Result<Vec<&[u8]>> {
        wal_records(bytes).collect()
    }

    /// The byte-at-a-time table loop `crc64` replaced: the oracle.
    fn crc64_bytewise(bytes: &[u8]) -> u64 {
        let mut crc = !0u64;
        for &b in bytes {
            crc = CRC_TABLES[0][((crc ^ u64::from(b)) & 0xFF) as usize] ^ (crc >> 8);
        }
        !crc
    }

    /// The copy-the-payload section encoder [`SectionWriter`] replaced,
    /// over the bytewise CRC: the oracle for section bytes.
    fn write_section(out: &mut Vec<u8>, magic: &[u8; 8], version: u32, payload: &[u8]) {
        let start = out.len();
        out.extend_from_slice(magic);
        put_u32(out, version);
        put_u64(out, payload.len() as u64);
        out.extend_from_slice(payload);
        let crc = crc64_bytewise(&out[start..]);
        put_u64(out, crc);
    }

    fn noise(len: usize, seed: u64) -> Vec<u8> {
        let mut x = seed | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32) as u8
            })
            .collect()
    }

    #[test]
    fn crc64_check_value() {
        // The CRC-64/XZ reference check value.
        assert_eq!(crc64(b"123456789"), 0x995D_C9BB_DF19_39FA);
        assert_eq!(crc64(b""), 0);
    }

    #[test]
    fn crc64_matches_the_bytewise_oracle_at_every_length_and_alignment() {
        let data = noise(16 + 257, 7);
        for start in 0..16 {
            for len in 0..=257 {
                let slice = &data[start..start + len];
                assert_eq!(
                    crc64(slice),
                    crc64_bytewise(slice),
                    "start {start} len {len}"
                );
            }
        }
        for (len, seed) in [(3 << 20, 1), ((5 << 20) + 7, 2), ((2 << 20) - 3, 3)] {
            let big = noise(len, seed);
            assert_eq!(crc64(&big), crc64_bytewise(&big), "len {len}");
            assert_eq!(crc64(&big[5..]), crc64_bytewise(&big[5..]), "len {len} + 5");
        }
    }

    #[test]
    fn crc64_concat_equals_checksumming_the_concatenation() {
        let data = noise(5000, 11);
        for split in [0, 1, 7, 16, 255, 2500, 4999, 5000] {
            let (a, b) = data.split_at(split);
            assert_eq!(
                crc64_concat(crc64(a), crc64(b), b.len()),
                crc64(&data),
                "split {split}"
            );
        }
    }

    #[test]
    fn crc64_detects_single_bit_flips() {
        let mut data = vec![0u8; 256];
        for (i, b) in data.iter_mut().enumerate() {
            *b = i as u8;
        }
        let clean = crc64(&data);
        for bit in [0usize, 7, 100, 2047] {
            let mut flipped = data.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(crc64(&flipped), clean, "bit {bit}");
        }
    }

    #[test]
    fn every_finished_section_leaves_the_residue() {
        for len in [0, 1, 15, 16, 17, 300] {
            let mut buf = Vec::new();
            write_section(&mut buf, b"AMETEST\0", len as u32, &noise(len, 5));
            assert_eq!(crc64_bytewise(&buf), SECTION_RESIDUE, "len {len}");
        }
    }

    #[test]
    fn section_writer_bytes_equal_the_copying_encoder() {
        // Three levels deep, with plain bytes before, between and after
        // the nested sections, written with and without `nested`.
        let (a, b, c, d) = (noise(33, 1), noise(700, 2), noise(5, 3), noise(64, 4));
        let mut inner = Vec::new();
        write_section(&mut inner, b"AMEINNER", 1, &b);
        let mut empty = Vec::new();
        write_section(&mut empty, b"AMEEMPTY", 9, &[]);
        let mut mid_payload = a.clone();
        mid_payload.extend_from_slice(&inner);
        mid_payload.extend_from_slice(&empty);
        mid_payload.extend_from_slice(&c);
        let mut mid = Vec::new();
        write_section(&mut mid, b"AMEMIDDL", 2, &mid_payload);
        let mut outer_payload = d.clone();
        outer_payload.extend_from_slice(&mid);
        let mut expected = vec![0xEE; 3]; // the section need not start the buffer
        write_section(&mut expected, b"AMEOUTER", 3, &outer_payload);

        for use_nested in [true, false] {
            let write_inner = |out: &mut Vec<u8>| {
                let mut s = SectionWriter::begin(out, b"AMEINNER", 1);
                s.extend_from_slice(&b);
                s.finish();
            };
            let write_empty =
                |out: &mut Vec<u8>| SectionWriter::begin(out, b"AMEEMPTY", 9).finish();
            let write_mid = |out: &mut Vec<u8>| {
                let mut s = SectionWriter::begin(out, b"AMEMIDDL", 2);
                s.extend_from_slice(&a);
                if use_nested {
                    s.nested(write_inner);
                    s.nested(write_empty);
                } else {
                    write_inner(&mut s);
                    write_empty(&mut s);
                }
                s.extend_from_slice(&c);
                s.finish();
            };
            let mut got = vec![0xEE; 3];
            let mut s = SectionWriter::begin(&mut got, b"AMEOUTER", 3);
            s.extend_from_slice(&d);
            if use_nested {
                s.nested(write_mid);
            } else {
                write_mid(&mut s);
            }
            s.finish();
            assert_eq!(got, expected, "nested={use_nested}");
        }
    }

    #[test]
    fn in_place_framing_equals_len_crc_payload() {
        for len in [0, 1, 82, 1000] {
            let payload = noise(len, 9);
            let mut expected = vec![1, 2, 3];
            put_u32(&mut expected, len as u32);
            put_u64(&mut expected, crc64_bytewise(&payload));
            expected.extend_from_slice(&payload);
            let mut got = vec![1, 2, 3];
            frame_record_into(&mut got, |out| out.extend_from_slice(&payload));
            assert_eq!(got, expected);
            assert_eq!(frame_record(&payload), expected[3..]);
        }
    }

    #[test]
    fn reader_reads_and_reports_eof() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 7);
        put_u64(&mut buf, 9);
        buf.push(3);
        let mut r = ByteReader::new(&buf);
        assert_eq!(r.u32().unwrap(), 7);
        assert_eq!(r.u64().unwrap(), 9);
        assert_eq!(r.end().unwrap_err().kind(), io::ErrorKind::InvalidData);
        assert_eq!(r.u8().unwrap(), 3);
        assert!(r.is_empty());
        r.end().unwrap();
        assert_eq!(r.u8().unwrap_err().kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn section_roundtrip() {
        let mut buf = Vec::new();
        write_section(&mut buf, b"AMETEST\0", 3, b"hello");
        put_u64(&mut buf, 42); // trailing data after the section
        let mut r = ByteReader::new(&buf);
        let (version, mut payload) = read_section(&mut r, b"AMETEST\0").unwrap();
        assert_eq!(version, 3);
        assert_eq!(payload.take(5).unwrap(), b"hello");
        assert!(payload.is_empty());
        assert_eq!(r.u64().unwrap(), 42, "cursor sits after the section");
    }

    #[test]
    fn section_rejects_wrong_magic() {
        let mut buf = Vec::new();
        write_section(&mut buf, b"AMETEST\0", 1, b"x");
        let err = read_section(&mut ByteReader::new(&buf), b"AMEOTHER").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn section_rejects_any_flipped_bit() {
        let mut buf = Vec::new();
        write_section(&mut buf, b"AMETEST\0", 1, &[0xAB; 32]);
        // Flip one bit at every byte position (skipping the magic, whose
        // corruption is reported as a magic mismatch — also InvalidData).
        for i in 8..buf.len() {
            let mut bad = buf.clone();
            bad[i] ^= 0x10;
            let err = read_section(&mut ByteReader::new(&bad), b"AMETEST\0").unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "byte {i}");
        }
    }

    #[test]
    fn section_rejects_truncation() {
        let mut buf = Vec::new();
        write_section(&mut buf, b"AMETEST\0", 1, &[7; 16]);
        for cut in [buf.len() - 1, buf.len() - 9, 10, 3] {
            let err = read_section(&mut ByteReader::new(&buf[..cut]), b"AMETEST\0").unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "cut {cut}");
        }
    }

    #[test]
    fn wal_scan_clean() {
        let mut log = Vec::new();
        log.extend_from_slice(&frame_record(b"first"));
        log.extend_from_slice(&frame_record(b""));
        log.extend_from_slice(&frame_record(&[9; 100]));
        let records = scan(&log).unwrap();
        assert_eq!(records.len(), 3);
        assert_eq!(records[0], b"first");
        assert_eq!(records[1], b"");
        assert_eq!(records[2], vec![9; 100]);
    }

    #[test]
    fn wal_scan_empty() {
        assert!(scan(&[]).unwrap().is_empty());
    }

    #[test]
    fn wal_torn_tail_is_discarded_not_an_error() {
        let mut log = Vec::new();
        log.extend_from_slice(&frame_record(b"kept"));
        let keep = log.len();
        log.extend_from_slice(&frame_record(b"torn-away"));
        for cut in [keep + 3, keep + 12, log.len() - 1] {
            assert_eq!(scan(&log[..cut]).unwrap(), [b"kept"], "cut {cut}");
        }
    }

    #[test]
    fn wal_corrupt_record_is_an_error() {
        let mut log = Vec::new();
        log.extend_from_slice(&frame_record(b"target"));
        log.extend_from_slice(&frame_record(b"after"));
        let mut bad = log.clone();
        bad[13] ^= 1; // flip a payload bit of the first (complete) record
        let err = scan(&bad).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // Streamed, the corrupt record is the last item: nothing after
        // it is read, intact or not.
        let mut records = wal_records(&bad);
        assert!(records.next().unwrap().is_err());
        assert!(records.next().is_none());
        let mut second_bad = log.clone();
        second_bad[log.len() - 1] ^= 1;
        let mut records = wal_records(&second_bad);
        assert_eq!(records.next().unwrap().unwrap(), b"target");
        assert!(records.next().unwrap().is_err());
        assert!(records.next().is_none());
    }
}
