//! `backend::ops(tier)` is exact: it is the sum of the counts of every
//! cipher built on `tier`, live or dropped, and of no other. A binary of
//! its own, so that no other test's ciphers move the totals it reads.
//!
//! Two threads each work a cipher of their own with a known mix of
//! scalar and run calls; one cipher is dropped before the totals are
//! read and one is worked through a clone. The test then reruns itself
//! in a child process forced onto another tier, where the same counts
//! must land in that tier alone.

use ame_crypto::backend::{self, Backend, OpsSnapshot};
use ame_crypto::MemoryCipher;
use std::process::Command;

/// Set in the child process the test reruns itself in.
const CHILD: &str = "OPS_EXACT_CHILD";

/// The run lengths of the mix: scalar-sized, short, and past the wide
/// tier's shortest zmm run.
const RUNS: [usize; 4] = [1, 3, 8, 64];

/// Works `cipher` through `rounds` rounds of the mix, and returns what
/// it must have counted.
fn mix(cipher: &MemoryCipher, rounds: u64) -> OpsSnapshot {
    let mut expected = OpsSnapshot::default();
    for round in 0..rounds {
        // Scalar: a seal (1 keystream, 1 tag), a verify and open (1 tag,
        // 1 keystream), a node MAC and a probe's base tag (1 tag each).
        let ct = cipher.encrypt_block(round * 64, round, &[round as u8; 64]);
        let tag = cipher.mac_block(round * 64, round, &ct);
        assert!(cipher.verify_block(round * 64, round, &ct, tag));
        let _ = cipher.decrypt_block(round * 64, round, &ct);
        let _ = cipher.mac_node(round, 0, &ct);
        let _ = cipher.mac_probe(round * 64, round, &ct);
        expected.keystream_calls += 2;
        expected.mac_tags += 4;
        // A walk of three node MACs, counted once when it ends.
        let mut pads = [0; 3];
        cipher.mac_node_pads(&[(1, round), (2, round), (3, round)], &mut pads);
        let mut walk = cipher.node_macs();
        for pad in pads {
            let _ = walk.mac(pad, &ct);
        }
        drop(walk);
        expected.mac_tags += 3;
        // Runs: seal in place, then the allocating wrappers.
        for len in RUNS {
            let nonces: Vec<(u64, u64)> = (0..len as u64).map(|b| (b * 64, round)).collect();
            let mut blocks = vec![[7u8; 64]; len];
            cipher.xor_keystream(&nonces, &mut blocks);
            let mut tags = vec![0; len];
            cipher.tags_into(&nonces, &blocks, &mut tags);
            assert_eq!(cipher.mac_batch(&nonces, &blocks), tags);
            let _ = cipher.keystream_batch(&nonces);
            let len = len as u64;
            expected.keystream_calls += 2 * len;
            expected.mac_tags += 2 * len;
            expected.mac_batch_tags += 2 * len;
        }
    }
    expected
}

fn delta(after: OpsSnapshot, before: OpsSnapshot) -> OpsSnapshot {
    OpsSnapshot {
        keystream_calls: after.keystream_calls - before.keystream_calls,
        mac_tags: after.mac_tags - before.mac_tags,
        mac_batch_tags: after.mac_batch_tags - before.mac_batch_tags,
    }
}

#[test]
fn ops_are_exact_per_tier() {
    let active = backend::active();
    let before = Backend::ALL.map(backend::ops);

    // Thread one builds, works and drops its cipher; thread two works a
    // clone of a cipher that stays live.
    let kept = MemoryCipher::from_seed(2);
    let clone = kept.clone();
    let (dropped, cloned) = std::thread::scope(|s| {
        let one = s.spawn(|| mix(&MemoryCipher::from_seed(1), 40));
        let two = s.spawn(move || mix(&clone, 25));
        (one.join().unwrap(), two.join().unwrap())
    });
    assert_eq!(kept.ops(), cloned, "a clone counts into its cipher");
    let mut expected = dropped;
    expected += cloned;
    for tier in Backend::ALL {
        let moved = delta(backend::ops(tier), before[tier.index()]);
        if tier == active {
            assert_eq!(moved, expected, "{tier}: live and dropped ciphers");
        } else {
            assert_eq!(moved, OpsSnapshot::default(), "{tier} is not {active}");
        }
    }
    drop(kept);
    let moved = delta(backend::ops(active), before[active.index()]);
    assert_eq!(moved, expected, "{active}: every cipher dropped");

    if std::env::var_os(CHILD).is_none() {
        rerun_on_another_tier(active);
    }
}

/// Reruns this test in a child process forced onto a tier other than
/// `active` (portable, or AES-NI when `active` is portable).
fn rerun_on_another_tier(active: Backend) {
    let other = match active {
        Backend::Portable if backend::accel_available() => "accel",
        Backend::Portable => {
            eprintln!("no second tier on this host: the child run is skipped");
            return;
        }
        _ => "portable",
    };
    let status = Command::new(std::env::current_exe().unwrap())
        .args(["--exact", "ops_are_exact_per_tier", "--test-threads=1"])
        .env("AME_CRYPTO_BACKEND", other)
        .env(CHILD, "1")
        .status()
        .unwrap();
    assert!(status.success(), "the run on {other}: {status}");
}
