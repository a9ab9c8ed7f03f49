//! The deltas of one block-group, with the tally that answers Figure 5b's
//! "have they all converged?" in O(1).
//!
//! The hardware checks convergence on the one packed line it just
//! updated; scanning all 64 deltas after every write is the software
//! cost the tally removes. It tracks the largest delta and how many
//! deltas equal it: the group has converged exactly when that count is
//! the group size. A single increment updates the tally in O(1); the
//! rare whole-group rewrites (reset, re-encode, re-encryption, log
//! replay, decode) recount. The tally is derived state and is never
//! serialized.

use std::ops::Deref;

/// A group's deltas plus their (largest value, how many equal it) tally.
/// Reads go through `Deref<Target = [u64]>`; every write goes through a
/// method that keeps the tally exact.
#[derive(Debug, Clone)]
pub(crate) struct Deltas {
    values: Vec<u64>,
    top: u64,
    at_top: usize,
}

impl Deltas {
    /// `n` zero deltas: a never-written group.
    pub(crate) fn zeros(n: usize) -> Self {
        Self {
            values: vec![0; n],
            top: 0,
            at_top: n,
        }
    }

    /// Deltas restored from a serialized group.
    pub(crate) fn from_values(values: Vec<u64>) -> Self {
        let (top, at_top) = tally_of(&values);
        Self {
            values,
            top,
            at_top,
        }
    }

    /// Increments delta `i` and updates the tally in O(1): the bumped
    /// delta either passes the old largest value (and is now its only
    /// holder), reaches it, or stays below it.
    pub(crate) fn bump(&mut self, i: usize) {
        self.values[i] += 1;
        let d = self.values[i];
        if d > self.top {
            self.top = d;
            self.at_top = 1;
        } else if d == self.top {
            self.at_top += 1;
        }
    }

    /// The common value if every delta equals it and it is positive —
    /// Figure 5b's reset condition.
    pub(crate) fn converged(&self) -> Option<u64> {
        (self.top > 0 && self.at_top == self.values.len()).then_some(self.top)
    }

    /// The largest delta.
    pub(crate) fn max(&self) -> u64 {
        self.top
    }

    /// Rewrites every delta (`f(index, &mut delta)`) and recounts: the
    /// whole-group paths, which are rare and O(n) anyway.
    pub(crate) fn rewrite(&mut self, mut f: impl FnMut(usize, &mut u64)) {
        for (i, d) in self.values.iter_mut().enumerate() {
            f(i, d);
        }
        self.recount();
    }

    fn recount(&mut self) {
        (self.top, self.at_top) = tally_of(&self.values);
    }
}

impl Deref for Deltas {
    type Target = [u64];

    fn deref(&self) -> &[u64] {
        &self.values
    }
}

/// `(largest delta, how many deltas equal it)` by one pass: the
/// whole-group recount, and what the tracked tally must always equal.
pub(crate) fn tally_of(deltas: &[u64]) -> (u64, usize) {
    let top = deltas.iter().copied().max().unwrap_or(0);
    (top, deltas.iter().filter(|&&d| d == top).count())
}

#[cfg(test)]
impl Deltas {
    /// The tally as tracked, for tests that hold it to a recount.
    pub(crate) fn tally(&self) -> (u64, usize) {
        (self.top, self.at_top)
    }
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
            let mut d = Deltas::zeros(n);
            for step in 0..20_000 {
                let r = next();
                match r % 16 {
                    0 => d.rewrite(|_, v| *v = 0),
                    1 => {
                        let min = d.iter().copied().min().unwrap();
                        d.rewrite(|_, v| *v -= min);
                    }
                    2 => d.rewrite(|i, v| *v = (r >> (8 + i % 32)) % 5),
                    _ => d.bump((r >> 8) as usize % n),
                }
                assert_eq!(d.tally(), tally_of(&d), "n {n} step {step}");
                assert_eq!(d.converged(), converged_by_scan(&d), "n {n} step {step}");
            }
        }
    }
}
