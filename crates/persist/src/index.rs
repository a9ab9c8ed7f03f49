//! The one hash map the engine datapath keys by integer index.
//!
//! DRAM pages, counter groups, per-block counters, separate-MAC tags,
//! tree nodes and cached counter blocks are all found by a block, group,
//! page or node index that the engine computes from an address it has
//! already bounded to the protected region. Those keys are dense
//! integers, never attacker-sized strings, so SipHash's flooding
//! resistance buys nothing here and costs more than the lookup it guards.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative hasher for maps keyed by an integer index. The fold
/// keeps keys that differ only in their high bits apart in the table's
/// low (bucket) bits.
#[derive(Debug, Default, Clone, Copy)]
pub struct IndexHasher(u64);

impl Hasher for IndexHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }

    fn write_u64(&mut self, key: u64) {
        let h = (self.0 ^ key).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = h ^ (h >> 32);
    }
}

/// A map keyed by block, group, page or node index behind
/// [`IndexHasher`]. Iteration order is unspecified, so every encoder
/// that walks one sorts its keys first.
pub type IndexMap<V> = HashMap<u64, V, BuildHasherDefault<IndexHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_differing_only_in_high_bits_stay_apart_in_the_low_bits() {
        // The table indexes with the hash's low bits: keys 2^12, 2^24
        // and 2^36 apart (dense below them) must not collide there.
        for shift in [0, 12, 24, 36] {
            let mut low = std::collections::BTreeSet::new();
            for i in 0..4096u64 {
                let mut h = IndexHasher::default();
                h.write_u64(i << shift);
                low.insert(h.finish() as u32);
            }
            assert_eq!(low.len(), 4096, "shift {shift}");
        }
    }

    #[test]
    fn map_behaves_as_a_map() {
        let mut m: IndexMap<u64> = IndexMap::default();
        for i in 0..1000u64 {
            m.insert(i << 24, i);
        }
        assert_eq!(m.len(), 1000);
        assert!((0..1000u64).all(|i| m[&(i << 24)] == i));
        assert!(!m.contains_key(&1));
    }
}
