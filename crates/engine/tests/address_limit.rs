//! The cipher binds a data address into its keystream and MAC through
//! the address's low 48 bits only, so block `A` and block
//! `A + ADDR_LIMIT` under equal counters would share a keystream (a
//! two-time pad) and a MAC pad (a splice that verifies). The bound is
//! therefore checked, not assumed: every engine block entry point, a
//! region's size and a thawed region image refuse anything past it.

use ame_crypto::ctr::ADDR_LIMIT;
use ame_crypto::MemoryCipher;
use ame_engine::region::SecureRegion;
use ame_engine::{EngineConfig, MemoryEncryptionEngine};
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

    // A region may span the whole bound (pages are lazy), not past it.
    let config = EngineConfig::default();
    assert!(refused(|| SecureRegion::new(config, ADDR_LIMIT + 4096)));
    let mut region = SecureRegion::new(config, ADDR_LIMIT);
    region.write_bytes(last, &[4; 64]).unwrap();
    let mut buf = [0u8; 64];
    region.read_bytes(last, &mut buf).unwrap();
    assert_eq!(buf, [4; 64]);

    // A checksum-valid image claiming an oversized region is refused at
    // thaw. The size is the payload's first u64, after the 20-byte
    // section header; the trailing CRC covers everything before it.
    let mut image = SecureRegion::new(config, 4096).freeze();
    assert!(SecureRegion::thaw(&image).is_ok());
    image[20..28].copy_from_slice(&(ADDR_LIMIT + 4096).to_le_bytes());
    let body = image.len() - 8;
    let crc = ame_persist::crc64(&image[..body]);
    image[body..].copy_from_slice(&crc.to_le_bytes());
    let err = SecureRegion::thaw(&image).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
}
