//! One way to serve a block: every data operation, from every front
//! door, is served as part of a run (a run of one when nothing else is
//! queued) — and what the engine's own read-modify-write used to be
//! tested for holds for the store's: it survives a counter overflow, and
//! it never launders a tampered block into a fresh seal.

use ame_prng::StdRng;
use ame_store::{SecureStore, SessionConfig, SessionReaper, StoreConfig, StoreError, StoreOp};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const BLOCK: u64 = 64;

fn single_shard() -> SecureStore {
    SecureStore::new(StoreConfig {
        shards: 1,
        shard_bytes: 1 << 14,
        ..StoreConfig::default()
    })
}

/// Hammering one block of a populated delta group with RMWs past the
/// 7-bit delta's wrap point forces a group re-encryption mid-stream:
/// every pre-image must still chain and every neighbour must survive.
#[test]
fn rmw_survives_counter_overflow() {
    let store = single_shard();
    // One whole 64-block delta group, so the re-encryption has resident
    // neighbours to carry across.
    for b in 0..64u64 {
        store.write(b * BLOCK, &[b as u8 + 1; 64]).unwrap();
    }
    for round in 0..200u64 {
        let old = store
            .read_modify_write(0, move |block| block[0] = round as u8)
            .unwrap();
        let expected = if round == 0 { 1 } else { (round - 1) as u8 };
        assert_eq!(old[0], expected, "round {round} pre-image");
    }
    assert_eq!(store.read(0).unwrap()[0], 199);
    for b in 1..64u64 {
        assert_eq!(store.read(b * BLOCK).unwrap(), [b as u8 + 1; 64], "{b}");
    }
    let snap = store.telemetry();
    assert!(
        snap.counter("store/shard0/engine/counters/reencryptions")
            .unwrap()
            >= 1,
        "200 RMWs on one block must overflow its delta"
    );
    assert_eq!(snap.counter("store/shard0/rmws"), Some(200));
    assert!(store.shutdown().all_resealed());
}

/// An RMW whose verified read fails must not run its mutator, must not
/// count as served, and must quarantine the shard like any other
/// detecting read.
#[test]
fn rmw_refuses_tampered_block() {
    let store = single_shard();
    store.write(0, &[7; 64]).unwrap();
    store.read_modify_write(0, |block| block[1] = 8).unwrap();
    // Three flips across words defeat the 2-flip correction budget.
    for bit in [0u32, 70, 140] {
        store.tamper_data_bit(0, bit).unwrap();
    }
    let ran = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&ran);
    let err = store
        .read_modify_write(0, move |block| {
            flag.store(true, Ordering::SeqCst);
            block[0] = 9;
        })
        .unwrap_err();
    assert!(
        matches!(
            err,
            StoreError::ShardPoisoned {
                shard: 0,
                cause: Some(_)
            }
        ),
        "the detecting RMW carries the cause, got {err:?}"
    );
    assert!(!ran.load(Ordering::SeqCst), "no pre-image, no mutation");
    let snap = store.telemetry();
    assert_eq!(snap.counter("store/shard0/rmws"), Some(1));
    assert_eq!(snap.counter("store/shard0/integrity_failures"), Some(1));
    assert_eq!(snap.gauge("store/shard0/poisoned"), Some(1.0));
    assert!(store.shutdown().shards[0].poisoned.is_some());
}

fn reap_split(reaper: &mut SessionReaper<'_>) {
    for (_, result) in reaper.try_recv_all() {
        result.unwrap();
    }
    std::thread::yield_now();
}

/// A seeded random mix of reads, writes and RMWs through every front
/// door ends with every served operation accounted to a run: per shard,
/// the run-length histograms sum to the operation counters. No front
/// door bypasses the run path.
#[test]
fn every_served_op_is_accounted_to_a_run() {
    let config = StoreConfig {
        shards: 2,
        shard_bytes: 1 << 14,
        ..StoreConfig::default()
    };
    let blocks = 2 * config.shard_bytes / BLOCK;
    let dir = std::env::temp_dir().join(format!("ame_store_one_path_{}", std::process::id()));
    for durable in [false, true] {
        let store = if durable {
            SecureStore::open(&dir, config.clone()).expect("open fresh")
        } else {
            SecureStore::new(config.clone())
        };
        let window = SessionConfig {
            in_flight_window: 8,
        };
        let mut session = store.session_with(window);
        let (mut submitter, mut reaper) = store.split_session_with_wake(window);
        let mut rng = StdRng::seed_from_u64(20);
        let bump = |block: &mut [u8; 64]| block[0] = block[0].wrapping_add(1);
        for i in 0..800u64 {
            let addr = rng.gen_range(0..blocks) * BLOCK;
            let data = [i as u8; 64];
            // 0 reads, 1 writes, 2 is an RMW where the front door has one
            // (a batch has none and writes instead).
            let kind = rng.gen_range(0..3u32);
            let op = if kind == 0 {
                StoreOp::Read { addr }
            } else {
                StoreOp::Write { addr, data }
            };
            match (rng.gen_range(0..4u32), kind) {
                (0, 0) => drop(store.read(addr).unwrap()),
                (0, 1) => store.write(addr, &data).unwrap(),
                (0, _) => drop(store.read_modify_write(addr, bump).unwrap()),
                (1, _) => {
                    for result in store.submit_batch(&vec![op; rng.gen_range(1..8usize)]) {
                        result.unwrap();
                    }
                }
                (2, _) => loop {
                    let submitted = if kind == 2 {
                        session.submit_rmw(addr, bump)
                    } else {
                        session.submit(op)
                    };
                    match submitted {
                        Ok(_) => break,
                        Err(StoreError::Overloaded { .. }) => {
                            session.wait_any().unwrap().1.unwrap();
                        }
                        Err(e) => panic!("session submit: {e}"),
                    }
                },
                _ => loop {
                    let submitted = if kind == 2 {
                        submitter.submit_rmw(addr, bump)
                    } else {
                        submitter.submit(op)
                    };
                    match submitted {
                        Ok(_) => break,
                        Err(StoreError::Overloaded { .. }) => reap_split(&mut reaper),
                        Err(e) => panic!("split submit: {e}"),
                    }
                },
            }
        }
        for (_, result) in session.wait_all() {
            result.unwrap();
        }
        while submitter.in_flight() > 0 {
            reap_split(&mut reaper);
        }
        drop((session, submitter, reaper));

        let snap = store.telemetry();
        for shard in 0..2 {
            let counter = |name: &str| snap.counter(&format!("store/shard{shard}/{name}")).unwrap();
            let run_sum = |name: &str| {
                snap.histogram(&format!("store/shard{shard}/{name}"))
                    .map_or(0, |h| h.sum())
            };
            assert!(counter("reads") > 0 && counter("writes") > 0 && counter("rmws") > 0);
            assert_eq!(
                run_sum("fused_reads"),
                counter("reads") + counter("rmws"),
                "durable={durable} shard {shard}: a read or RMW was served outside a run"
            );
            assert_eq!(
                run_sum("fused_writes"),
                counter("writes"),
                "durable={durable} shard {shard}: a write was served outside a run"
            );
        }
        assert!(store.shutdown().all_resealed());
    }
    let _ = std::fs::remove_dir_all(&dir);
}
