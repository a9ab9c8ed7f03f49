//! A functional counter cache over the Bonsai Merkle tree.
//!
//! Section 2.2 of the paper: "Gassend et al. integrated a dedicated cache
//! for the integrity tree to reduce the latency for reading MACs and
//! counters. Intel's SGX implementation has a dedicated cache for MACs
//! and counters." The timing model charges the cache's *latency* effects;
//! this module provides the *functional* semantics:
//!
//! * a cached counter block is an **on-chip, already verified** copy —
//!   reads served from it perform no off-chip access and no tree walk;
//! * writes go through the cache and update the off-chip tree
//!   immediately (write-through, as counter updates must be durable for
//!   crash consistency in NVMM settings);
//! * off-chip tampering of a cached block is invisible while the copy is
//!   cached (the engine never looks at the tampered bits) and detected as
//!   soon as the block is re-fetched — the same observable behaviour as
//!   real metadata caches.

use crate::merkle::{BonsaiTree, VerifyError, NODE_BYTES};
use ame_persist::IndexMap;

/// Counter-cache statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CounterCacheStats {
    /// Reads served from the on-chip copy (no walk).
    pub hits: u64,
    /// Reads that required a verified off-chip fetch.
    pub misses: u64,
    /// Cached blocks displaced by fills.
    pub evictions: u64,
}

impl CounterCacheStats {
    /// Hit rate in `[0, 1]`.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl ame_telemetry::Metrics for CounterCacheStats {
    fn record(&self, sink: &mut dyn ame_telemetry::MetricSink) {
        sink.counter("hits", self.hits);
        sink.counter("misses", self.misses);
        sink.counter("evictions", self.evictions);
        sink.gauge("hit_rate", self.hit_rate());
    }
}

/// A Bonsai Merkle tree fronted by an LRU cache of verified counter
/// blocks.
///
/// # Example
///
/// ```
/// use ame_crypto::MemoryCipher;
/// use ame_tree::cache::CachedTree;
/// use ame_tree::merkle::BonsaiTree;
///
/// let tree = BonsaiTree::new(MemoryCipher::from_seed(1), 2, 8);
/// let mut cached = CachedTree::new(tree, 16);
/// cached.write_counter_block(3, [9; 64]);
/// assert_eq!(cached.read_counter_block(3).unwrap(), [9; 64]); // hit
/// assert_eq!(cached.stats().hits, 1);
/// ```
#[derive(Debug)]
pub struct CachedTree {
    tree: BonsaiTree,
    capacity: usize,
    /// On-chip verified copies.
    contents: IndexMap<[u8; NODE_BYTES]>,
    /// LRU order, most recent last.
    order: Vec<u64>,
    stats: CounterCacheStats,
}

impl CachedTree {
    /// Wraps `tree` with a cache of `capacity` counter blocks.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(tree: BonsaiTree, capacity: usize) -> Self {
        assert!(capacity > 0, "cache must hold at least one block");
        Self {
            tree,
            capacity,
            contents: IndexMap::default(),
            order: Vec::new(),
            stats: CounterCacheStats::default(),
        }
    }

    /// Cache statistics.
    #[must_use]
    pub fn stats(&self) -> CounterCacheStats {
        self.stats
    }

    /// The wrapped tree (e.g. for tampering experiments).
    pub fn tree_mut(&mut self) -> &mut BonsaiTree {
        &mut self.tree
    }

    /// Shared view of the wrapped tree (e.g. for serialization).
    #[must_use]
    pub fn tree(&self) -> &BonsaiTree {
        &self.tree
    }

    fn touch(&mut self, idx: u64) {
        // Consecutive data blocks share a counter block, so the common
        // touch is of the entry that is already most recent.
        if self.order.last() == Some(&idx) {
            return;
        }
        if let Some(pos) = self.order.iter().position(|&i| i == idx) {
            self.order.remove(pos);
        }
        self.order.push(idx);
    }

    fn insert(&mut self, idx: u64, content: [u8; NODE_BYTES]) {
        if !self.contents.contains_key(&idx) && self.contents.len() == self.capacity {
            // Evict the least recently used (write-through: nothing to
            // flush).
            if let Some(pos) = self.order.first().copied() {
                self.order.remove(0);
                self.contents.remove(&pos);
                self.stats.evictions += 1;
            }
        }
        self.contents.insert(idx, content);
        self.touch(idx);
    }

    /// Reads a counter block: from the on-chip copy if cached, otherwise
    /// via a full verified tree walk (then cached).
    ///
    /// # Errors
    ///
    /// Propagates [`VerifyError`] from the underlying tree on a miss.
    pub fn read_counter_block(&mut self, idx: u64) -> Result<[u8; NODE_BYTES], VerifyError> {
        if let Some(&content) = self.contents.get(&idx) {
            self.stats.hits += 1;
            self.touch(idx);
            return Ok(content);
        }
        self.stats.misses += 1;
        let content = self.tree.read_counter_block(idx)?;
        self.insert(idx, content);
        Ok(content)
    }

    /// Writes a counter block through the cache into the tree.
    pub fn write_counter_block(&mut self, idx: u64, content: [u8; NODE_BYTES]) {
        self.tree.write_counter_block(idx, content);
        self.insert(idx, content);
    }

    /// Drops every on-chip copy (e.g. on a power transition), forcing
    /// re-verification on the next access.
    pub fn flush(&mut self) {
        self.contents.clear();
        self.order.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ame_crypto::MemoryCipher;

    fn cached(cap: usize) -> CachedTree {
        CachedTree::new(BonsaiTree::new(MemoryCipher::from_seed(3), 2, 8), cap)
    }

    #[test]
    fn hits_skip_the_walk() {
        let mut c = cached(4);
        c.write_counter_block(1, [5; 64]);
        for _ in 0..10 {
            assert_eq!(c.read_counter_block(1).unwrap(), [5; 64]);
        }
        assert_eq!(c.stats().hits, 10);
        assert_eq!(c.stats().misses, 0);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = cached(2);
        c.write_counter_block(1, [1; 64]);
        c.write_counter_block(2, [2; 64]);
        let _ = c.read_counter_block(1); // 1 is now MRU
        c.write_counter_block(3, [3; 64]); // evicts the LRU, block 2
        assert_eq!(c.stats().evictions, 1);
        let _ = c.read_counter_block(1); // still cached
        assert_eq!(c.stats().misses, 0, "1 must have survived the eviction");
        let _ = c.read_counter_block(2); // miss: was evicted
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn cached_copy_shields_off_chip_tampering_until_eviction() {
        let mut c = cached(1);
        c.write_counter_block(7, [9; 64]);
        // Attacker corrupts the off-chip block while a verified copy is
        // on-chip: the engine keeps using the good copy.
        c.tree_mut().tamper_counter_block(7, |b| b[0] ^= 1);
        assert_eq!(c.read_counter_block(7).unwrap(), [9; 64]);
        // Evict it; the next read re-fetches off-chip and catches the
        // tampering.
        c.write_counter_block(8, [1; 64]);
        assert!(c.read_counter_block(7).is_err());
    }

    #[test]
    fn flush_forces_reverification() {
        let mut c = cached(4);
        c.write_counter_block(7, [9; 64]);
        c.tree_mut().tamper_counter_block(7, |b| b[0] ^= 1);
        assert!(c.read_counter_block(7).is_ok(), "still cached");
        c.flush();
        assert!(c.read_counter_block(7).is_err(), "re-verified after flush");
    }

    #[test]
    fn write_through_survives_eviction() {
        let mut c = cached(1);
        c.write_counter_block(1, [1; 64]);
        c.write_counter_block(2, [2; 64]); // evicts 1 (write-through: safe)
        assert_eq!(c.read_counter_block(1).unwrap(), [1; 64]);
    }

    #[test]
    fn hit_rate_math() {
        let mut c = cached(4);
        c.write_counter_block(0, [0; 64]);
        let _ = c.read_counter_block(0);
        let _ = c.read_counter_block(9); // miss (lazy zero block)
        assert!((c.stats().hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one block")]
    fn zero_capacity_panics() {
        let _ = cached(0);
    }
}
