//! The paged `DramStorage` against the hash-map storage it replaced: the
//! durable `AMEDRAM` v1 bytes, and the canonical form `decode` accepts.

use ame_dram::storage::{DramStorage, StoredBlock};
use ame_persist::ByteReader;
use std::io::ErrorKind;

/// A section written by the hash-map encoder at the parent commit from
/// exactly the state [`golden_storage`] rebuilds.
const GOLDEN_HEX: &str = include_str!("amedram_v1.hex");

/// Sparse on purpose: both ends of page 0, the first block of page 1, two
/// addresses above 2^32 and 2^40, and the last block of the address space.
const ADDRS: [u64; 7] = [
    0x0,
    0x40,
    0xfc0,
    0x1000,
    0x7_0000_1040,
    (1 << 40) + 0x2000_0080,
    !63,
];

fn golden_bytes() -> Vec<u8> {
    let hex: Vec<u8> = GOLDEN_HEX
        .bytes()
        .filter(|b| !b.is_ascii_whitespace())
        .collect();
    hex.chunks(2)
        .map(|pair| u8::from_str_radix(std::str::from_utf8(pair).unwrap(), 16).unwrap())
        .collect()
}

fn golden_block(i: usize) -> StoredBlock {
    let fill = (i as u8 + 1) * 0x11;
    StoredBlock {
        data: std::array::from_fn(|j| fill ^ j as u8),
        sideband: [!fill; 8],
    }
}

fn golden_storage() -> DramStorage {
    let mut m = DramStorage::new();
    for (i, &addr) in ADDRS.iter().enumerate() {
        m.write(addr, golden_block(i));
    }
    // Flipped there and back: resident, and all zeros.
    m.flip_data_bit(0x2000, 9);
    m.flip_data_bit(0x2000, 9);
    // Made resident by a side-band flip alone.
    m.flip_sideband_bit(0x3040, 63);
    m
}

fn encoded(m: &DramStorage) -> Vec<u8> {
    let mut out = Vec::new();
    m.encode(&mut out);
    assert_eq!(out.len(), m.encoded_len());
    out
}

#[test]
fn v1_section_from_the_hash_map_encoder_decodes_and_reencodes_identically() {
    let golden = golden_bytes();
    let m = DramStorage::decode(&mut ByteReader::new(&golden)).expect("the golden blob decodes");
    assert_eq!(m.resident_blocks(), ADDRS.len() + 2);
    for (i, &addr) in ADDRS.iter().enumerate() {
        assert_eq!(m.get(addr), Some(golden_block(i)), "{addr:#x}");
    }
    assert_eq!(m.get(0x2000), Some(StoredBlock::default()), "resident zero");
    assert_eq!(m.read(0x3040).sideband[7], 0x80);
    assert!(
        !m.contains(0x80),
        "a neighbour in a resident page is absent"
    );
    assert_eq!(encoded(&m), golden, "AMEDRAM v1 bytes changed");
}

#[test]
fn the_same_state_built_here_encodes_to_the_golden_bytes() {
    assert_eq!(encoded(&golden_storage()), golden_bytes());
}

/// A CRC-valid `AMEDRAM` v1 section over hand-built entries: what a
/// buggy or hostile writer could produce.
fn section(count: u64, entries: &[(u64, u8)]) -> Vec<u8> {
    let mut payload = count.to_le_bytes().to_vec();
    for &(addr, fill) in entries {
        payload.extend_from_slice(&addr.to_le_bytes());
        payload.extend_from_slice(&[fill; 72]);
    }
    let mut out = b"AMEDRAM\0".to_vec();
    out.extend_from_slice(&1u32.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&payload);
    let crc = ame_persist::crc64(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

#[test]
fn decode_accepts_only_the_canonical_form() {
    let ok = section(2, &[(0x40, 1), (0x1000, 2)]);
    let m = DramStorage::decode(&mut ByteReader::new(&ok)).expect("canonical");
    assert_eq!(m.read(0x1000).data, [2; 64]);
    assert_eq!(encoded(&m), ok);

    let rejected = [
        ("repeated address", section(2, &[(0x40, 1), (0x40, 2)])),
        (
            "descending addresses",
            section(2, &[(0x1000, 1), (0x40, 2)]),
        ),
        (
            "descending within a page",
            section(2, &[(0x80, 1), (0x40, 2)]),
        ),
        ("unaligned address", section(1, &[(0x41, 1)])),
        (
            "count below the entries",
            section(1, &[(0x40, 1), (0x80, 2)]),
        ),
        (
            "count above the entries",
            section(3, &[(0x40, 1), (0x80, 2)]),
        ),
        ("a count no payload could hold", section(u64::MAX, &[])),
        ("a count whose byte length overflows", section(1 << 61, &[])),
    ];
    for (what, bytes) in rejected {
        let err = DramStorage::decode(&mut ByteReader::new(&bytes)).expect_err(what);
        assert_eq!(err.kind(), ErrorKind::InvalidData, "{what}");
    }
}
