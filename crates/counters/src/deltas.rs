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
//! in it, as the hardware fetches one line for all of them. A write
//! stretch of [`UNPACK_MIN`] blocks or more is unpacked once into an
//! [`Unpacked`] copy on the stack, bumped there and packed once at its
//! end; a shorter one, and a scalar write, bump the packed line in
//! place. Each scheme writes its increment rules once, against
//! [`Deltas`], and both forms run that one copy ([`Rules`]).

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

/// The shortest stretch of same-group writes [`write_run`] unpacks.
/// Below it the stretch bumps the packed line in place, because the
/// unpack and the re-pack of the whole group cost more than the
/// stretch's bumps save. Per block against in-place bumps, the unpacked
/// form measured ×1.0–1.2 at 16 blocks, ×0.8–1.0 at 32 and ×0.6 at 64
/// (2-vCPU AVX-512 host; the 64-block stretch is
/// `crates/bench/benches/runs.rs`'s `record_writes` leg).
pub(crate) const UNPACK_MIN: usize = 32;

/// The largest group [`write_run`] unpacks: the paper's 64 blocks, so
/// the copy is one 512-byte stack array. Larger groups always bump in
/// place.
pub(crate) const UNPACK_MAX: usize = 64;

/// A delta group as a scheme's increment rules read and rewrite it: its
/// packed line (a scheme's own wrapper around [`Group`]), or an
/// [`Unpacked`] copy. `widened` says the block's delta-group holds the
/// extension slots; flat groups never do.
pub(crate) trait Deltas {
    /// The reference counter.
    fn reference(&self) -> u64;
    /// Which delta-group holds the extension slots (`None` for flat).
    fn expanded(&self) -> Option<usize>;
    /// Delta `i`.
    fn delta(&self, i: usize, widened: bool) -> u64;
    /// Raises delta `i` to `d` and tallies it.
    fn raise(&mut self, i: usize, d: u64, widened: bool);
    /// Hands the extension slots to block `i`'s delta-group and raises
    /// delta `i` to `d` at the widened width (dual-length only).
    fn expand(&mut self, i: usize, d: u64);
    /// The tally of the deltas.
    fn tally(&self) -> &Tally;
    /// All deltas zero under `reference`, with no expansion.
    fn reset(&mut self, reference: u64);
    /// The deltas into `deltas`, and the reference returned.
    fn unpack(&self, deltas: &mut [u64]) -> u64;
    /// Rewrites the whole group from `reference` and `deltas`, keeping
    /// its expansion, and recounts the tally.
    fn repack(&mut self, reference: u64, deltas: &[u64]);
    /// Block `i`'s counter: the Decode Unit.
    fn counter(&self, i: usize) -> u64;
}

/// A scheme's increment rules, and the two forms they run on.
pub(crate) trait Rules {
    /// Figure 5's (or 6's) increment of block `i` of group `g`, held in
    /// `d`: the scheme's one copy of its rules.
    fn bump(&self, g: u64, d: &mut impl Deltas, i: usize) -> WriteOutcome;
    /// `grp` in its packed form.
    fn packed<'a>(&'a self, grp: &'a mut Group) -> impl Deltas + 'a;
    /// `grp` unpacked.
    fn unpack(&self, grp: &Group) -> Unpacked;
    /// `u` packed back into its line.
    fn repack(&self, u: &Unpacked) -> Group;
}

/// A delta group unpacked for a long stretch of writes: its reference,
/// one `u64` per delta, its expansion and its tally, so a bump is an
/// array store and a compare.
#[derive(Debug)]
pub(crate) struct Unpacked {
    pub(crate) reference: u64,
    pub(crate) expanded: Option<usize>,
    deltas: [u64; UNPACK_MAX],
    pub(crate) tally: Tally,
    /// Blocks in the group, and per delta-group.
    n: usize,
    per_delta_group: usize,
}

impl Unpacked {
    /// Group `grp` of `n` blocks in delta-groups of `per_delta_group`,
    /// unpacked by `unpack`, which fills the deltas and returns the
    /// reference and the expansion.
    pub(crate) fn of(
        grp: &Group,
        n: usize,
        per_delta_group: usize,
        unpack: impl FnOnce(&Line, &mut [u64]) -> (u64, Option<usize>),
    ) -> Self {
        let mut deltas = [0; UNPACK_MAX];
        let (reference, expanded) = unpack(&grp.line, &mut deltas[..n]);
        Self {
            reference,
            expanded,
            deltas,
            tally: grp.tally,
            n,
            per_delta_group,
        }
    }

    /// The deltas.
    pub(crate) fn deltas(&self) -> &[u64] {
        &self.deltas[..self.n]
    }
}

impl Deltas for Unpacked {
    #[inline]
    fn reference(&self) -> u64 {
        self.reference
    }

    #[inline]
    fn expanded(&self) -> Option<usize> {
        self.expanded
    }

    #[inline]
    fn delta(&self, i: usize, _widened: bool) -> u64 {
        self.deltas[i]
    }

    #[inline]
    fn raise(&mut self, i: usize, d: u64, _widened: bool) {
        self.deltas[i] = d;
        self.tally.bumped(d);
    }

    #[inline]
    fn expand(&mut self, i: usize, d: u64) {
        self.expanded = Some(i / self.per_delta_group);
        self.raise(i, d, true);
    }

    #[inline]
    fn tally(&self) -> &Tally {
        &self.tally
    }

    #[inline]
    fn reset(&mut self, reference: u64) {
        self.reference = reference;
        self.expanded = None;
        self.deltas[..self.n].fill(0);
        self.tally = Group::new(self.n).tally;
    }

    fn unpack(&self, deltas: &mut [u64]) -> u64 {
        deltas.copy_from_slice(self.deltas());
        self.reference
    }

    fn repack(&mut self, reference: u64, deltas: &[u64]) {
        self.reference = reference;
        self.deltas[..self.n].copy_from_slice(deltas);
        self.tally = Tally::of(deltas.iter().copied());
    }

    #[inline]
    fn counter(&self, i: usize) -> u64 {
        self.reference + self.deltas[i]
    }
}

/// [`crate::CounterScheme::record_writes`] over `groups` of `n` blocks:
/// one group lookup per stretch of consecutive same-group `blocks`, each
/// block bumped by `rules` — in the packed line, or, for a stretch of
/// [`UNPACK_MIN`] or more in a group of at most [`UNPACK_MAX`] blocks,
/// in one [`Unpacked`] copy packed back once when the stretch ends or
/// stops at a re-encryption.
pub(crate) fn write_run(
    groups: &mut IndexMap<Group>,
    n: usize,
    stats: &mut CounterStats,
    blocks: &[u64],
    counters: &mut [u64],
    rules: &impl Rules,
) -> (usize, Option<WriteOutcome>) {
    let counters = &mut counters[..blocks.len()];
    let mut k = 0;
    while let Some(&first) = blocks.get(k) {
        let (g, _) = split_block(first, n);
        let grp = groups.entry(g).or_insert_with(|| Group::new(n));
        let len = blocks[k..]
            .iter()
            .take_while(|&block| index_in(Some(block), g, n).is_some())
            .count();
        let (blocks, counters) = (&blocks[k..k + len], &mut counters[k..k + len]);
        let (done, stop) = if len >= UNPACK_MIN && n <= UNPACK_MAX {
            let mut unpacked = rules.unpack(grp);
            let done = write_stretch(rules, g, n, &mut unpacked, stats, blocks, counters);
            *grp = rules.repack(&unpacked);
            done
        } else {
            write_stretch(rules, g, n, &mut rules.packed(grp), stats, blocks, counters)
        };
        k += done;
        if stop.is_some() {
            return (k, stop);
        }
    }
    (k, None)
}

/// The writes of one stretch of `blocks` in group `g`, bumped in `d`,
/// up to and including the first that re-encrypts: how many were
/// recorded, and that re-encryption.
fn write_stretch(
    rules: &impl Rules,
    g: u64,
    n: usize,
    d: &mut impl Deltas,
    stats: &mut CounterStats,
    blocks: &[u64],
    counters: &mut [u64],
) -> (usize, Option<WriteOutcome>) {
    for (k, (&block, counter)) in blocks.iter().zip(counters).enumerate() {
        let i = (block - g * n as u64) as usize;
        let outcome = rules.bump(g, d, i);
        stats.record(&outcome);
        *counter = d.counter(i);
        if outcome.is_reencryption() {
            return (k + 1, Some(outcome));
        }
    }
    (blocks.len(), None)
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
