//! The cipher binds a data address into its keystream and MAC through
//! the address's low 48 bits only, so block `A` and block
//! `A + ADDR_LIMIT` under equal counters would share a keystream (a
//! two-time pad) and a MAC pad (a splice that verifies). The bound is
//! therefore checked, not assumed: every engine block entry point
//! refuses anything past it, and a thawed region image holds nothing
//! past its size, which must be the configured one.

use ame_crypto::ctr::ADDR_LIMIT;
use ame_crypto::MemoryCipher;
use ame_engine::{region, EngineConfig, MemoryEncryptionEngine};
use std::panic::{catch_unwind, AssertUnwindSafe};

fn refused<T>(f: impl FnOnce() -> T) -> bool {
    catch_unwind(AssertUnwindSafe(f)).is_err()
}

#[test]
fn addresses_past_the_48_bit_limit_are_refused() {
    assert_eq!(
        ADDR_LIMIT,
        1 << 48,
        "the nonce layout carries 6 address bytes"
    );

    // Why the bound exists: at the cipher, the two addresses alias.
    let cipher = MemoryCipher::from_seed(7);
    let alias = 0x40 + ADDR_LIMIT;
    let ct = cipher.encrypt_block(0x40, 1, &[0xA5; 64]);
    assert_eq!(cipher.encrypt_block(alias, 1, &[0xA5; 64]), ct);
    assert_eq!(
        cipher.mac_block(alias, 1, &ct),
        cipher.mac_block(0x40, 1, &ct)
    );

    // Every engine block entry point refuses the alias...
    let mut engine = MemoryEncryptionEngine::new(EngineConfig::default());
    engine.write_block(0x40, &[1; 64]);
    assert!(refused(|| engine.write_block(alias, &[2; 64])));
    assert!(refused(|| engine.write_blocks(&[(alias, [2; 64])])));
    assert!(refused(|| engine.read_block(alias)));
    assert!(refused(|| engine.read_blocks(&[0x40, alias])));
    // ...including a splice of 0x40's stored bits to the alias, which
    // would otherwise read back 0x40's plaintext as verified.
    let spliced = engine.snapshot_block(0x40).relocated(alias);
    engine.replay_block(&spliced);
    assert!(refused(|| engine.read_block(alias)));
    // The last block below the limit is served, and nothing above
    // disturbed the engine.
    let last = ADDR_LIMIT - 64;
    engine.write_block(last, &[3; 64]);
    assert_eq!(engine.read_block(last).unwrap(), [3; 64]);
    assert_eq!(engine.read_block(0x40).unwrap(), [1; 64]);

    // A region image may span the whole bound (pages are lazy), and
    // holds nothing at or past its size: the engine above still holds
    // the spliced alias, so its image is refused at thaw.
    let config = EngineConfig::default();
    let err = region::thaw(&region::freeze(&engine, ADDR_LIMIT), &config, ADDR_LIMIT).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    let mut fresh = MemoryEncryptionEngine::new(config);
    fresh.write_block(last, &[4; 64]);
    let mut back = region::thaw(&region::freeze(&fresh, ADDR_LIMIT), &config, ADDR_LIMIT).unwrap();
    assert_eq!(back.read_block(last).unwrap(), [4; 64]);

    // A checksum-valid image claiming an oversized region is refused at
    // thaw: its size is not the configured one. The size is the
    // payload's first u64, after the 20-byte section header; the
    // trailing CRC covers everything before it.
    let mut image = region::freeze(&MemoryEncryptionEngine::new(config), 4096);
    assert!(region::thaw(&image, &config, 4096).is_ok());
    image[20..28].copy_from_slice(&(ADDR_LIMIT + 4096).to_le_bytes());
    let body = image.len() - 8;
    let crc = ame_persist::crc64(&image[..body]);
    image[body..].copy_from_slice(&crc.to_le_bytes());
    let err = region::thaw(&image, &config, 4096).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
}
