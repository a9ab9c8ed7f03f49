//! The delta-counter state machine of Section 4, enumerated rather than
//! sampled: a breadth-first search over every group state each delta
//! layout can reach at a small configuration, with every edge out of
//! every state checked.
//!
//! A state is the group's packed line with its reference field cleared
//! (the reference only ever grows, so without this the set would be
//! infinite); the tally every scheme derives from the line is not state.
//! From each state the explorer applies
//! - every single write, and holds it to the nonce rule: the written
//!   block's counter rises by one, no other block's counter moves, and a
//!   re-encryption moves every counter above every counter the group
//!   has used;
//! - every run of up to three writes in the group, and one same-group
//!   stretch of `UNPACK_MIN` writes (long enough that `record_writes`
//!   bumps an unpacked copy of the group), through `record_writes`
//!   against the scalar writes on a twin, call for call;
//! - an `encode_state` / `decode_state` round trip, which must be the
//!   identity.
//!
//! Still open: a re-encryption-minimality oracle on the plain counter
//! vector, and a sweep proving every other encoding of a state refused.
//!
//! `cargo test -p ame-counters --test explore -- --nocapture` prints the
//! census of each layout.

use ame_counters::delta::{DeltaConfig, DeltaCounters};
use ame_counters::dual::{DualLengthConfig, DualLengthDeltaCounters};
use ame_counters::packing::write_bits;
use ame_counters::{CounterScheme, WriteOutcome};
use ame_persist::ByteReader;
use std::collections::{HashSet, VecDeque};
use std::time::Instant;

/// The reference width of every explored layout.
const REFERENCE_BITS: u32 = 56;

/// The stretch length from which `record_writes` bumps an unpacked copy
/// of the group instead of its packed line.
const UNPACK_MIN: usize = 32;

/// Group 0's state: its line with the reference cleared.
fn state(scheme: &impl CounterScheme) -> [u8; 64] {
    let mut line = scheme.metadata_block_image(0);
    write_bits(&mut line, 0, REFERENCE_BITS, 0);
    line
}

/// Group 0's counters.
fn counters(scheme: &impl CounterScheme) -> Vec<u64> {
    (0..scheme.blocks_per_group() as u64)
        .map(|b| scheme.counter(b))
        .collect()
}

/// What one layout's search reached.
#[derive(Debug, Default, PartialEq, Eq)]
struct Census {
    states: usize,
    /// Single-write edges by outcome: incremented, reset, re-encoded,
    /// expanded, re-encrypted.
    edges: [usize; 5],
}

/// Holds one write of `block` to the nonce rule, from `before` to
/// `after`. No counter ever falls, so the largest counter before a
/// write is the largest the group has used.
fn check_write(before: &[u64], after: &[u64], block: usize, outcome: &WriteOutcome) {
    let what = format!("write {block} from {before:?} gave {after:?}: {outcome:?}");
    match outcome {
        WriteOutcome::Reencrypted {
            group,
            old_counters,
            new_counter,
        } => {
            assert_eq!((*group, &old_counters[..]), (0, before), "{what}");
            let used = before.iter().copied().max().unwrap();
            assert!(*new_counter > used, "{what}: not above {used}");
            assert!(after.iter().all(|c| c == new_counter), "{what}");
        }
        _ => {
            for (j, (&b, &a)) in before.iter().zip(after).enumerate() {
                let want = if j == block { b + 1 } else { b };
                assert_eq!(a, want, "{what}: block {j}");
            }
        }
    }
}

/// `run` through `record_writes` on one copy of `from` and through
/// `record_write` on another: each call records the same writes, stops
/// at the same re-encryption with the same outcome, hands back each
/// write's counter and leaves the same line and statistics.
fn check_run<S: CounterScheme + Clone>(from: &S, run: &[u64]) {
    let (mut by_run, mut by_block) = (from.clone(), from.clone());
    let (mut got, mut want) = (vec![0; run.len()], vec![0; run.len()]);
    let mut k = 0;
    while k < run.len() {
        let what = format!("run {run:?} from write {k}");
        let (recorded, outcome) = by_run.record_writes(&run[k..], &mut got[k..]);
        let mut expected = (run.len() - k, None);
        for j in k..run.len() {
            let o = by_block.record_write(run[j]);
            want[j] = by_block.counter(run[j]);
            if o.is_reencryption() {
                expected = (j + 1 - k, Some(o));
                break;
            }
        }
        assert_eq!((recorded, outcome), expected, "{what}");
        assert_eq!(got[k..k + recorded], want[k..k + recorded], "{what}");
        assert_eq!(state(&by_run), state(&by_block), "{what}: line");
        assert_eq!(counters(&by_run), counters(&by_block), "{what}");
        assert_eq!(by_run.stats(), by_block.stats(), "{what}: stats");
        k += recorded;
    }
}

/// Encoding `scheme` and decoding it into `fresh` gives it back.
fn check_codec<S: CounterScheme>(scheme: &S, fresh: S) {
    let mut image = Vec::new();
    scheme.encode_state(&mut image);
    let mut back = fresh;
    back.decode_state(&mut ByteReader::new(&image)).unwrap();
    assert_eq!(back.metadata_block_image(0), scheme.metadata_block_image(0));
    assert_eq!(back.stats(), scheme.stats());
    let mut again = Vec::new();
    back.encode_state(&mut again);
    assert_eq!(again, image, "re-encoded");
}

/// Every state `make()` reaches by writes to group 0, every edge out of
/// each checked.
fn explore<S: CounterScheme + Clone>(make: impl Fn() -> S) -> Census {
    let start = make();
    let n = start.blocks_per_group() as u64;
    // Every run of one to three writes in the group, and a stretch that
    // cycles through the group with every third write on block 0.
    let mut runs: Vec<Vec<u64>> = (0..n).map(|b| vec![b]).collect();
    for len in 2..=3 {
        let longer: Vec<Vec<u64>> = runs
            .iter()
            .filter(|run| run.len() == len - 1)
            .flat_map(|run| (0..n).map(move |b| [&run[..], &[b]].concat()))
            .collect();
        runs.extend(longer);
    }
    runs.push(
        (0..UNPACK_MIN as u64)
            .map(|k| if k % 3 == 0 { 0 } else { k % n })
            .collect(),
    );
    let mut census = Census::default();
    let mut seen = HashSet::from([state(&start)]);
    let mut queue = VecDeque::from([start]);
    while let Some(scheme) = queue.pop_front() {
        census.states += 1;
        check_codec(&scheme, make());
        let before = counters(&scheme);
        for block in 0..n {
            let mut next = scheme.clone();
            let outcome = next.record_write(block);
            check_write(&before, &counters(&next), block as usize, &outcome);
            census.edges[match outcome {
                WriteOutcome::Incremented => 0,
                WriteOutcome::Reset => 1,
                WriteOutcome::Reencoded => 2,
                WriteOutcome::Expanded => 3,
                WriteOutcome::Reencrypted { .. } => 4,
            }] += 1;
            if seen.insert(state(&next)) {
                queue.push_back(next);
            }
        }
        for run in &runs {
            check_run(&scheme, run);
        }
    }
    census
}

/// Flat: 4 blocks of 2-bit deltas. Dual: 2 delta-groups of 2 blocks,
/// 2-bit base deltas and 1 extension bit. Each with reset and re-encode
/// both on and both off. The state counts are pinned: a change to the
/// rules that reaches another set of states fails here by name.
#[test]
fn every_reachable_delta_state_keeps_the_rules() {
    let started = Instant::now();
    for optimized in [true, false] {
        let flat = DeltaConfig {
            delta_bits: 2,
            blocks_per_group: 4,
            reference_bits: REFERENCE_BITS,
            reset_enabled: optimized,
            reencode_enabled: optimized,
        };
        let dual = DualLengthConfig {
            base_bits: 2,
            extra_bits: 1,
            delta_groups: 2,
            blocks_per_group: 4,
            reference_bits: REFERENCE_BITS,
            reset_enabled: optimized,
            reencode_enabled: optimized,
        };
        let pinned = |states, edges| Census { states, edges };
        for (name, census, want) in [
            (
                "flat",
                explore(|| DeltaCounters::new(flat)),
                if optimized {
                    pinned(253, [748, 12, 104, 0, 148])
                } else {
                    pinned(256, [768, 0, 0, 0, 256])
                },
            ),
            (
                "dual",
                explore(|| DualLengthDeltaCounters::new(dual)),
                if optimized {
                    pinned(2257, [7208, 36, 836, 252, 696])
                } else {
                    pinned(1792, [5632, 0, 0, 256, 1280])
                },
            ),
        ] {
            println!("{name} optimized={optimized}: {census:?}");
            assert_eq!(census, want, "{name} optimized={optimized}");
        }
    }
    println!("explored in {:?}", started.elapsed());
}
