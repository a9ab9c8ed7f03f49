//! Each shard reports the crypto work of its own engine: with two stores
//! in one process and traffic to one of them, the idle store's shards
//! read no keystreams and no tags, and the busy store's shards account
//! for every one the process made. A binary of its own, so that no other
//! test's ciphers move the process totals it compares against.

use ame_crypto::backend;
use ame_store::{SecureStore, StoreConfig};

const SHARDS: usize = 2;

const METRICS: [&str; 3] = ["data/keystream_calls", "data/mac_tags", "tree/mac_tags"];

fn store() -> SecureStore {
    SecureStore::new(StoreConfig {
        shards: SHARDS,
        shard_bytes: 1 << 16,
        ..StoreConfig::default()
    })
}

#[test]
fn an_idle_store_reports_none_of_its_neighbours_crypto() {
    let active = backend::active();
    let (busy, idle) = (store(), store());
    let busy_before = busy.telemetry();
    let ops_before = backend::ops(active);
    for b in 0..256u64 {
        busy.write(b * 64, &[b as u8; 64]).unwrap();
    }
    for b in (0..256u64).rev() {
        assert_eq!(busy.read(b * 64).unwrap(), [b as u8; 64]);
    }
    busy.read_modify_write(64, |block| block[0] ^= 1).unwrap();
    let busy_work = busy.telemetry().delta(&busy_before);
    let ops = backend::ops(active);

    let idle_now = idle.telemetry();
    for shard in 0..SHARDS {
        for metric in METRICS {
            let path = format!("store/shard{shard}/engine/crypto/{metric}");
            assert_eq!(idle_now.counter(&path), Some(0), "{path}");
        }
    }
    let sum = |metric: &str| -> u64 {
        (0..SHARDS)
            .map(|shard| {
                let path = format!("store/shard{shard}/engine/crypto/{metric}");
                busy_work.counter(&path).unwrap_or_else(|| panic!("{path}"))
            })
            .sum()
    };
    assert_eq!(
        sum("data/keystream_calls"),
        ops.keystream_calls - ops_before.keystream_calls
    );
    assert_eq!(
        sum("data/mac_tags") + sum("tree/mac_tags"),
        ops.mac_tags - ops_before.mac_tags
    );
    // Every block was sealed and opened, and the tree tagged its
    // counter blocks.
    assert!(sum("data/keystream_calls") >= 2 * 256);
    assert!(sum("tree/mac_tags") > 0);
    let _ = (busy.shutdown(), idle.shutdown());
}
