//! One delta group's state: its packed line, and the tally that answers
//! Figure 5b's "have they all converged?" in O(1).
//!
//! The hardware checks convergence on the one packed line it just
//! updated; scanning all 64 deltas after every write is the software
//! cost the tally removes. It tracks the largest delta and how many
//! deltas equal it: the group has converged exactly when that count is
//! the group size. A single increment, or log replay setting one delta,
//! updates the tally in O(1); the rare whole-group rewrites (reset,
//! re-encode, re-encryption, a replayed minimum moving, decode) recount.
//! The tally is derived from the line and is never serialized.
//!
//! [`write_run`] and [`read_run`] are the run forms both delta schemes
//! share: a run visits each group once per stretch of consecutive blocks
//! in it, as the hardware fetches one line for all of them.

use crate::packing::Line;
use crate::{split_block, CounterStats, WriteOutcome};
use ame_persist::IndexMap;

/// A delta group: the line is the state of record, the tally is derived
/// from the deltas it holds.
#[derive(Debug, Clone)]
pub(crate) struct Group {
    pub(crate) line: Line,
    pub(crate) tally: Tally,
}

impl Group {
    /// A never-written group of `n` blocks: the all-zero line.
    pub(crate) fn new(n: usize) -> Self {
        Self::zeroed(Line::default(), n)
    }

    /// A group whose `n` deltas are all zero in `line`.
    pub(crate) fn zeroed(line: Line, n: usize) -> Self {
        Self {
            line,
            tally: Tally { top: 0, at_top: n },
        }
    }

    /// A group packed whole from `deltas`.
    pub(crate) fn packed(line: Line, deltas: &[u64]) -> Self {
        Self {
            line,
            tally: Tally::of(deltas.iter().copied()),
        }
    }
}

/// [`crate::CounterScheme::record_writes`] over `groups` of `n` blocks:
/// one group lookup per stretch of consecutive same-group `blocks`, then
/// `write(group index, group, index within it)` per block — the scheme's
/// one increment, shared with its scalar `record_write` — which returns
/// the outcome and the block's new counter.
pub(crate) fn write_run(
    groups: &mut IndexMap<Group>,
    n: usize,
    stats: &mut CounterStats,
    blocks: &[u64],
    counters: &mut [u64],
    mut write: impl FnMut(u64, &mut Group, usize) -> (WriteOutcome, u64),
) -> (usize, Option<WriteOutcome>) {
    let counters = &mut counters[..blocks.len()];
    let mut k = 0;
    while let Some(&first) = blocks.get(k) {
        let (g, _) = split_block(first, n);
        let grp = groups.entry(g).or_insert_with(|| Group::new(n));
        while let Some(i) = index_in(blocks.get(k), g, n) {
            let (outcome, counter) = write(g, grp, i);
            stats.record(&outcome);
            counters[k] = counter;
            k += 1;
            if outcome.is_reencryption() {
                return (k, Some(outcome));
            }
        }
    }
    (k, None)
}

/// [`crate::CounterScheme::counters`] over `groups` of `n` blocks: one
/// group lookup per stretch of consecutive same-group `blocks`, then
/// `counter(line, index within it)` per block; a never-written group's
/// counters are zero.
pub(crate) fn read_run(
    groups: &IndexMap<Group>,
    n: usize,
    blocks: &[u64],
    counters: &mut [u64],
    counter: impl Fn(&Line, usize) -> u64,
) {
    let counters = &mut counters[..blocks.len()];
    let mut k = 0;
    while let Some(&first) = blocks.get(k) {
        let (g, _) = split_block(first, n);
        let line = groups.get(&g).map(|grp| &grp.line);
        while let Some(i) = index_in(blocks.get(k), g, n) {
            counters[k] = line.map_or(0, |line| counter(line, i));
            k += 1;
        }
    }
}

/// The index of `block` within group `g` of `n` blocks, if it is there:
/// a subtraction and a compare, so a stretch pays one division.
fn index_in(block: Option<&u64>, g: u64, n: usize) -> Option<usize> {
    let i = block?.wrapping_sub(g * n as u64);
    (i < n as u64).then_some(i as usize)
}

/// The (largest delta, how many deltas equal it) tally of a group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Tally {
    top: u64,
    at_top: usize,
}

impl Tally {
    /// The tally of `deltas`, by one pass: the whole-group recount.
    pub(crate) fn of(deltas: impl IntoIterator<Item = u64>) -> Self {
        deltas.into_iter().fold(
            Self { top: 0, at_top: 0 },
            |Self { top, at_top }, d| match d.cmp(&top) {
                std::cmp::Ordering::Greater => Self { top: d, at_top: 1 },
                std::cmp::Ordering::Equal => Self {
                    top,
                    at_top: at_top + 1,
                },
                std::cmp::Ordering::Less => Self { top, at_top },
            },
        )
    }

    /// A delta was incremented to `d`, in O(1): it either passed the old
    /// largest value (and is now its only holder), reached it, or stays
    /// below it.
    pub(crate) fn bumped(&mut self, d: u64) {
        if d > self.top {
            self.top = d;
            self.at_top = 1;
        } else if d == self.top {
            self.at_top += 1;
        }
    }

    /// A delta was set from `old` to `new`, in O(1) unless it was the
    /// last delta at the largest value and fell below it: then the
    /// group is recounted.
    pub(crate) fn replaced(&mut self, old: u64, new: u64, recount: impl FnOnce() -> Self) {
        if new > self.top {
            self.top = new;
            self.at_top = 1;
        } else if new == self.top {
            self.at_top += usize::from(old != new);
        } else if old == self.top {
            self.at_top -= 1;
            if self.at_top == 0 {
                *self = recount();
            }
        }
    }

    /// The common value if all `n` deltas equal it and it is positive —
    /// Figure 5b's reset condition.
    pub(crate) fn converged(&self, n: usize) -> Option<u64> {
        (self.top > 0 && self.at_top == n).then_some(self.top)
    }

    /// The largest delta.
    pub(crate) fn max(&self) -> u64 {
        self.top
    }
}

#[cfg(test)]
impl Tally {
    /// The tally as tracked, for tests that hold it to [`tally_of`].
    pub(crate) fn pair(&self) -> (u64, usize) {
        (self.top, self.at_top)
    }
}

/// `(largest delta, how many deltas equal it)` by two scans: what the
/// tracked tally must always equal.
#[cfg(test)]
pub(crate) fn tally_of(deltas: &[u64]) -> (u64, usize) {
    let top = deltas.iter().copied().max().unwrap_or(0);
    (top, deltas.iter().filter(|&&d| d == top).count())
}

/// The scan `record_write` ran before the tally, kept as the oracle: the
/// common value if every delta equals the first and it is positive.
#[cfg(test)]
pub(crate) fn converged_by_scan(deltas: &[u64]) -> Option<u64> {
    let first = deltas[0];
    (first > 0 && deltas.iter().all(|&d| d == first)).then_some(first)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_matches_a_recount_under_random_bumps_and_rewrites() {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for n in [1usize, 2, 4, 64] {
            let mut d = vec![0u64; n];
            let mut tally = Group::new(n).tally;
            for step in 0..20_000 {
                let r = next();
                let i = (r >> 8) as usize % n;
                match r % 16 {
                    0 => d.fill(0),
                    1 => {
                        let min = d.iter().copied().min().unwrap();
                        d.iter_mut().for_each(|v| *v -= min);
                    }
                    2 => d
                        .iter_mut()
                        .enumerate()
                        .for_each(|(j, v)| *v = (r >> (8 + j % 32)) % 5),
                    3..=5 => {
                        // One delta set, as log replay does.
                        let new = (r >> 16) % 6;
                        let old = std::mem::replace(&mut d[i], new);
                        tally.replaced(old, new, || Tally::of(d.iter().copied()));
                    }
                    _ => {
                        d[i] += 1;
                        tally.bumped(d[i]);
                    }
                }
                if r % 16 < 3 {
                    tally = Group::packed(Line::default(), &d).tally;
                }
                assert_eq!(tally.pair(), tally_of(&d), "n {n} step {step}");
                assert_eq!(
                    tally.converged(n),
                    converged_by_scan(&d),
                    "n {n} step {step}"
                );
            }
        }
    }
}
