//! Satellite: every `StoreError` variant maps to a distinct wire code
//! and decodes back to the exact error, and codes this build does not
//! know stay talkable-to via `WireError::Unknown`.
//!
//! The encode side (`protocol::encode_store_error`) is a `match` with
//! no wildcard arm, so *adding* a `StoreError` variant breaks the build
//! until it gets a code; this test pins the *runtime* contract for the
//! variants that exist today.

use ame_engine::ReadError;
use ame_server::protocol::{
    code, decode_error, encode_server_error, encode_store_error, WireError,
};
use ame_store::StoreError;
use ame_tree::merkle::VerifyError;
use std::collections::HashSet;

/// One value per `StoreError` variant, with every `ShardPoisoned`
/// cause shape, and field values chosen so truncated or shuffled
/// payload decoding cannot accidentally pass.
fn specimens() -> Vec<StoreError> {
    vec![
        StoreError::OutOfRange {
            addr: 0xdead_beef_0040,
            len: 0x1_0000_0001,
        },
        StoreError::Unaligned { addr: 0x3f },
        StoreError::Overloaded { shard: 7 },
        StoreError::ShardPoisoned {
            shard: 1,
            cause: None,
        },
        StoreError::ShardPoisoned {
            shard: 2,
            cause: Some(ReadError::Tree(VerifyError {
                level: 3,
                node: 0x1234_5678_9abc,
            })),
        },
        StoreError::ShardPoisoned {
            shard: 3,
            cause: Some(ReadError::MacUncorrectable),
        },
        StoreError::ShardPoisoned {
            shard: 4,
            cause: Some(ReadError::EccUncorrectable),
        },
        StoreError::ShardPoisoned {
            shard: 5,
            cause: Some(ReadError::IntegrityViolation),
        },
        StoreError::Disconnected { shard: 6 },
        StoreError::Timeout,
    ]
}

#[test]
fn every_store_error_roundtrips_exactly() {
    for e in specimens() {
        let (code, payload) = encode_store_error(&e);
        let decoded = decode_error(code, &payload);
        assert_eq!(decoded, WireError::Store(e), "code {code:#04x}");
    }
}

#[test]
fn store_error_codes_are_distinct_per_variant() {
    // One code per *variant* — the five ShardPoisoned cause shapes
    // intentionally share SHARD_POISONED and differ in payload.
    let codes: HashSet<u8> = specimens()
        .iter()
        .map(|e| encode_store_error(e).0)
        .collect();
    assert_eq!(codes.len(), 6, "six variants, six codes: {codes:?}");
    // And the exact table is part of the wire contract: renumbering
    // breaks deployed clients, so pin it.
    let expected: HashSet<u8> = [
        code::OUT_OF_RANGE,
        code::UNALIGNED,
        code::OVERLOADED,
        code::SHARD_POISONED,
        code::DISCONNECTED,
        code::TIMEOUT,
    ]
    .into();
    assert_eq!(codes, expected);
}

#[test]
fn retired_store_error_codes_decode_as_unknown() {
    // 0x16 and 0x17 named the errors of a deleted two-phase-commit API.
    // They stay out of the table, so they decode like any code this
    // build does not know — whatever payload they carry.
    for code in [0x16u8, 0x17] {
        for payload in [&[][..], &0x80c0u64.to_le_bytes()[..]] {
            assert_eq!(decode_error(code, payload), WireError::Unknown(code));
        }
    }
}

#[test]
fn server_rejections_roundtrip() {
    for e in [
        WireError::ShuttingDown,
        WireError::BadFrame,
        WireError::UnknownOpcode(0x99),
        WireError::DuplicateRequestId,
        WireError::UnknownTenant(42),
        WireError::QuotaExceeded,
        WireError::BadVersion(7),
    ] {
        let (code, payload) = encode_server_error(&e);
        assert_eq!(decode_error(code, &payload), e, "code {code:#04x}");
    }
}

#[test]
fn unknown_codes_decode_future_proof() {
    // A newer server may answer with codes this build has never heard
    // of; they must decode (to Unknown), not crash or alias a known
    // error.
    for code in [0x08u8, 0x18, 0x1f, 0x27, 0x7f, 0xff] {
        assert_eq!(
            decode_error(code, &[1, 2, 3]),
            WireError::Unknown(code),
            "code {code:#04x} must not alias a known error"
        );
    }
    // And Unknown re-encodes to the same code, so a proxy can pass it
    // through unchanged.
    let (c, p) = encode_server_error(&WireError::Unknown(0x7f));
    assert_eq!((c, p.as_slice()), (0x7f, &[][..]));
}

#[test]
fn truncated_error_payloads_do_not_panic() {
    // Hostile/buggy payloads for every known code: decoding must stay
    // total. Store-error codes with short payloads fall back to
    // Unknown (the code was recognised but the payload lied).
    for e in specimens() {
        let (code, payload) = encode_store_error(&e);
        for cut in 0..payload.len() {
            let _ = decode_error(code, &payload[..cut]);
        }
    }
}
