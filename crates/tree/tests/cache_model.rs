//! The counter cache against two models: every read returns what a bare
//! `BonsaiTree` fed the same stream returns, and — while the cache is one
//! fully associative set (capacity at most 8) — its hits, misses and
//! evictions are a reference LRU's.

use ame_crypto::MemoryCipher;
use ame_prng::StdRng;
use ame_tree::cache::CounterCacheStats;
use ame_tree::{BonsaiTree, CachedTree};

fn tree() -> BonsaiTree {
    BonsaiTree::new(MemoryCipher::from_seed(21), 2, 8)
}

/// A least-recently-used list of leaves, most recent last.
struct ReferenceLru {
    capacity: usize,
    order: Vec<u64>,
    stats: CounterCacheStats,
}

impl ReferenceLru {
    /// Uses `leaf`; `true` if it was cached.
    fn touch(&mut self, leaf: u64) -> bool {
        let cached = self.order.iter().position(|&l| l == leaf);
        match cached {
            Some(at) => {
                self.order.remove(at);
            }
            None if self.order.len() == self.capacity => {
                self.order.remove(0);
                self.stats.evictions += 1;
            }
            None => {}
        }
        self.order.push(leaf);
        cached.is_some()
    }

    fn read(&mut self, leaf: u64) {
        if self.touch(leaf) {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
        }
    }
}

#[test]
fn the_counter_cache_matches_a_bare_tree_and_a_reference_lru() {
    for capacity in [1usize, 2, 5, 8, 64] {
        let mut rng = StdRng::seed_from_u64(0xCA_C4E + capacity as u64);
        let leaves = 4 * capacity as u64;
        let mut bare = tree();
        let mut cached = CachedTree::new(tree(), capacity);
        let mut lru = ReferenceLru {
            capacity,
            order: Vec::new(),
            stats: CounterCacheStats::default(),
        };
        for step in 0..4000 {
            let leaf = rng.gen_range(0..leaves);
            match rng.gen_range(0u32..100) {
                0..=59 => {
                    let want = bare.read_counter_block(leaf).expect("untampered");
                    let got = cached.read_counter_block(leaf).expect("untampered");
                    assert_eq!(got, want, "capacity {capacity} step {step} leaf {leaf}");
                    lru.read(leaf);
                }
                60..=97 => {
                    let mut content = [0u8; 64];
                    rng.fill(&mut content);
                    bare.write_counter_block(leaf, content);
                    cached.write_counter_block(leaf, content);
                    lru.touch(leaf);
                }
                _ => {
                    cached.flush();
                    lru.order.clear();
                }
            }
            if capacity <= 8 {
                assert_eq!(cached.stats(), lru.stats, "capacity {capacity} step {step}");
            }
        }
        let stats = cached.stats();
        assert!(
            stats.hits > 0 && stats.misses > 0 && stats.evictions > 0,
            "capacity {capacity}: {stats:?}"
        );
    }
}
