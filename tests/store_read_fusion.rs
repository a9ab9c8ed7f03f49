//! Fused-read equivalence and fault-injection tests of the batched
//! verified read path: the shard worker's read fusion must be
//! observationally identical to scalar per-block service — same
//! plaintext, same error attribution, same single-bit correction, same
//! poisoned-shard quarantine — while actually amortizing counter fetches
//! (asserted through the `fused_reads` / `counter_fetch_amortization`
//! telemetry). The scalar reference is the same store driven one
//! blocking `read` per block: every wakeup is then a run of one, which
//! the engine serves through its sequential per-block path.

use ame::store::{SecureStore, SessionConfig, StoreConfig, StoreError, StoreOp, StoreValue};
use std::sync::Arc;

const BLOCK: u64 = 64;

/// A single-shard store (deterministic wakeup contents) over `blocks`
/// blocks.
fn store(blocks: u64) -> SecureStore {
    SecureStore::new(StoreConfig {
        shards: 1,
        shard_bytes: blocks * BLOCK,
        ..StoreConfig::default()
    })
}

/// Deterministic per-block test pattern.
fn pattern(b: u64) -> [u8; 64] {
    [(b as u8).wrapping_mul(31).wrapping_add(7); 64]
}

fn populate(s: &SecureStore, blocks: u64) {
    let ops: Vec<StoreOp> = (0..blocks)
        .map(|b| StoreOp::Write {
            addr: b * BLOCK,
            data: pattern(b),
        })
        .collect();
    for r in s.submit_batch(&ops) {
        r.unwrap();
    }
}

/// Submits one batch of `n` consecutive reads from block `base` and
/// returns the per-op results.
fn read_run(s: &SecureStore, base: u64, n: u64) -> Vec<Result<StoreValue, StoreError>> {
    let ops: Vec<StoreOp> = (base..base + n)
        .map(|b| StoreOp::Read { addr: b * BLOCK })
        .collect();
    s.submit_batch(&ops)
}

/// The scalar reference: one blocking read per block (runs of one).
fn read_scalar(s: &SecureStore, base: u64, n: u64) -> Vec<Result<StoreValue, StoreError>> {
    (base..base + n)
        .map(|b| s.read(b * BLOCK).map(StoreValue::Data))
        .collect()
}

#[test]
fn fused_reads_bit_identical_to_scalar() {
    let blocks = 256u64;
    let fused = store(blocks);
    let scalar = store(blocks);
    populate(&fused, blocks);
    populate(&scalar, blocks);

    for base in [0u64, 17, 120, blocks - 32] {
        let a = read_run(&fused, base, 32);
        let b = read_scalar(&scalar, base, 32);
        for (i, (x, y)) in a.iter().zip(&b).enumerate() {
            assert_eq!(x, y, "base {base} op {i}");
            assert_eq!(
                *x,
                Ok(StoreValue::Data(pattern(base + i as u64))),
                "base {base} op {i}"
            );
        }
    }

    // The fused store actually fused (and amortized counter fetches);
    // the scalar store never did.
    let snap = fused.telemetry();
    let runs = snap.histogram("store/shard0/fused_reads").unwrap();
    assert!(runs.count() > 0, "fused store must record read runs");
    let amort = snap
        .histogram("store/shard0/counter_fetch_amortization")
        .unwrap();
    assert!(
        amort.mean() > 1.5,
        "consecutive runs must share counter fetches, mean {}",
        amort.mean()
    );
    let snap = scalar.telemetry();
    let amort = snap
        .histogram("store/shard0/counter_fetch_amortization")
        .unwrap();
    assert_eq!(amort.mean(), 1.0, "scalar store must not fuse");
}

/// Tampering with any block of a fused run — ciphertext or side-band
/// MAC — must be detected at exactly the tampered op, carry the cause,
/// poison the shard, and reject exactly the ops behind it, just as
/// sequential per-block reads would.
#[test]
fn tamper_anywhere_in_fused_run_matches_sequential() {
    let blocks = 16u64;
    let run = 8u64;
    for sideband in [false, true] {
        for victim in 0..run {
            let mut outcomes = Vec::new();
            for fuse in [true, false] {
                let s = store(blocks);
                populate(&s, blocks);
                if sideband {
                    // Two side-band flips defeat the MAC's own SEC-DED.
                    s.tamper_sideband_bit(victim * BLOCK, 5).unwrap();
                    s.tamper_sideband_bit(victim * BLOCK, 40).unwrap();
                } else {
                    // Three scattered ciphertext flips exceed the
                    // flip-and-check correction budget.
                    for bit in [3u32, 80, 200] {
                        s.tamper_data_bit(victim * BLOCK, bit).unwrap();
                    }
                }
                let read = if fuse { read_run } else { read_scalar };
                let results = read(&s, 0, run);
                for (i, r) in results.iter().enumerate() {
                    let i = i as u64;
                    if i < victim {
                        assert_eq!(
                            *r,
                            Ok(StoreValue::Data(pattern(i))),
                            "fuse={fuse} sideband={sideband} victim={victim}: \
                             prefix op {i} must be released"
                        );
                    } else if i == victim {
                        assert!(
                            matches!(
                                r,
                                Err(StoreError::ShardPoisoned {
                                    shard: 0,
                                    cause: Some(_),
                                })
                            ),
                            "fuse={fuse} sideband={sideband}: victim {victim} got {r:?}"
                        );
                    } else {
                        assert!(
                            matches!(
                                r,
                                Err(StoreError::ShardPoisoned {
                                    shard: 0,
                                    cause: None,
                                })
                            ),
                            "fuse={fuse} sideband={sideband} victim={victim}: \
                             trailing op {i} got {r:?}"
                        );
                    }
                }
                let snap = s.telemetry();
                assert_eq!(snap.counter("store/shard0/integrity_failures"), Some(1));
                assert_eq!(snap.gauge("store/shard0/poisoned"), Some(1.0));
                outcomes.push((
                    snap.counter("store/shard0/reads"),
                    snap.counter("store/shard0/rejected_poisoned"),
                ));
                let report = s.shutdown();
                assert!(
                    report.shards[0].poisoned.is_some(),
                    "poisoned shard must not reseal"
                );
            }
            assert_eq!(
                outcomes[0], outcomes[1],
                "fused and scalar accounting must agree \
                 (sideband={sideband} victim={victim})"
            );
        }
    }
}

/// A fused run spanning two 4 KB counter groups (two metadata leaves)
/// verifies correctly and still amortizes: two fetches for the run, not
/// one per block.
#[test]
fn fused_run_spans_counter_group_boundary() {
    // 64 blocks per 4 KB group with the default delta scheme; read a run
    // straddling the first boundary.
    let blocks = 192u64;
    let s = store(blocks);
    populate(&s, blocks);
    let base = 56u64; // blocks 56..72 cross the 64-block group boundary
    let results = read_run(&s, base, 16);
    for (i, r) in results.iter().enumerate() {
        assert_eq!(*r, Ok(StoreValue::Data(pattern(base + i as u64))), "op {i}");
    }
    let snap = s.telemetry();
    let amort = snap
        .histogram("store/shard0/counter_fetch_amortization")
        .unwrap();
    // 16 blocks over 2 metadata fetches = 8 blocks/fetch; log₂ buckets
    // make the recorded mean approximate, so just require real sharing.
    assert!(
        amort.mean() > 1.5,
        "boundary run must still share fetches, mean {}",
        amort.mean()
    );
}

/// A single-bit DRAM fault inside a fused run is corrected (and the
/// block scrubbed) through the per-block fallback — identical data, no
/// poisoning — exactly as sequential reads behave.
#[test]
fn single_bit_fault_corrected_identically_fused_and_scalar() {
    let blocks = 16u64;
    for fuse in [true, false] {
        let s = store(blocks);
        populate(&s, blocks);
        s.tamper_data_bit(3 * BLOCK, 217).unwrap();
        let read = if fuse { read_run } else { read_scalar };
        let results = read(&s, 0, 8);
        for (i, r) in results.iter().enumerate() {
            assert_eq!(
                *r,
                Ok(StoreValue::Data(pattern(i as u64))),
                "fuse={fuse}: single-bit fault must be corrected at op {i}"
            );
        }
        let snap = s.telemetry();
        assert_eq!(
            snap.counter("store/shard0/engine/data_corrections"),
            Some(1),
            "fuse={fuse}"
        );
        assert_eq!(snap.counter("store/shard0/integrity_failures"), Some(0));
        assert_eq!(snap.gauge("store/shard0/poisoned"), Some(0.0));
        // The scrub repaired memory: re-reading is clean either way.
        for r in read(&s, 0, 8) {
            assert!(matches!(r, Ok(StoreValue::Data(_))));
        }
        assert!(s.shutdown().all_resealed(), "fuse={fuse}");
    }
}

/// Concurrent read-modify-writes (whose read halves fuse, with the
/// same-block hazard forcing flushes) never lose an update: the final
/// value equals the number of acknowledged increments.
#[test]
fn concurrent_rmws_fuse_without_losing_updates() {
    let blocks = 8u64;
    let s = Arc::new(SecureStore::new(StoreConfig {
        shards: 1,
        shard_bytes: blocks * BLOCK,
        ..StoreConfig::default()
    }));
    let threads = 4;
    let per_thread = 64u64;
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let s = Arc::clone(&s);
            std::thread::spawn(move || {
                for i in 0..per_thread {
                    // Everyone hammers block 0 (same-block hazard) and a
                    // rotating sibling (fusable runs).
                    let target = if i % 2 == 0 {
                        0
                    } else {
                        1 + ((t + i) % (blocks - 1))
                    };
                    s.read_modify_write(target * BLOCK, |b| {
                        let v = u64::from_le_bytes(b[..8].try_into().unwrap());
                        b[..8].copy_from_slice(&(v + 1).to_le_bytes());
                    })
                    .unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let mut total = 0u64;
    for b in 0..blocks {
        let data = s.read(b * BLOCK).unwrap();
        total += u64::from_le_bytes(data[..8].try_into().unwrap());
    }
    assert_eq!(total, threads * per_thread, "no update may be lost");
    let snap = s.telemetry();
    assert_eq!(
        snap.counter("store/shard0/rmws"),
        Some(threads * per_thread)
    );
    assert_eq!(snap.counter("store/shard0/integrity_failures"), Some(0));
}

/// A pipelined session keeps consecutive reads in flight; the worker
/// fuses them across submission boundaries and every completion carries
/// the right block.
#[test]
fn pipelined_session_reads_fuse_and_verify() {
    let blocks = 128u64;
    let s = store(blocks);
    populate(&s, blocks);
    let mut session = s.session_with(SessionConfig {
        in_flight_window: 32,
    });
    let mut expected = Vec::new();
    for b in 0..32u64 {
        let ticket = session.submit(StoreOp::Read { addr: b * BLOCK }).unwrap();
        expected.push((ticket, pattern(b)));
    }
    let mut results = session.wait_all();
    assert_eq!(results.len(), 32);
    results.sort_by_key(|(t, _)| *t); // completion order → ticket order
    for ((ticket, result), (want_ticket, want)) in results.into_iter().zip(expected) {
        assert_eq!(ticket, want_ticket);
        assert_eq!(result.unwrap(), StoreValue::Data(want));
    }
    drop(session);
    let snap = s.telemetry();
    let runs = snap.histogram("store/shard0/fused_reads").unwrap();
    assert!(
        runs.count() > 0,
        "windowed session reads must fuse at the worker"
    );
    assert!(s.shutdown().all_resealed());
}
