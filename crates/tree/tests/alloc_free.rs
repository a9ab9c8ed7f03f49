//! The counter fetch allocates nothing once warm: a verified tree walk,
//! a path update of an existing leaf, a counter-cache hit, miss and
//! eviction, and a walk through a zero-capacity cache are counted by a
//! counting global allocator, not timed.

use ame_crypto::MemoryCipher;
use ame_tree::{BonsaiTree, CachedTree};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    /// Allocations made by this thread (tests run on parallel threads).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees hold; the counter is a
// thread-local `Cell` with no destructor and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: forwarded unchanged (see the impl).
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: forwarded unchanged (see the impl).
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: forwarded unchanged (see the impl).
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged (see the impl).
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// Six off-chip levels, as the benchmark's engine uses, with `leaves`
/// leaves written.
fn tree(leaves: u64) -> BonsaiTree {
    let mut tree = BonsaiTree::new(MemoryCipher::from_seed(5), 6, 8);
    for leaf in 0..leaves {
        tree.write_counter_block(leaf * 37, [leaf as u8; 64]);
    }
    tree
}

#[test]
fn a_warm_tree_walk_and_a_path_update_do_not_allocate() {
    let mut tree = tree(200);
    let leaf = 37 * 150;
    assert!(tree.read_counter_block(leaf).is_ok());
    let read = allocations(|| {
        assert!(tree.read_counter_block(leaf).is_ok());
    });
    let write = allocations(|| tree.write_counter_block(leaf, [0xaa; 64]));
    assert_eq!((read, write), (0, 0), "(read miss, rewrite) allocations");
    assert_eq!(tree.read_counter_block(leaf).unwrap(), [0xaa; 64]);
}

#[test]
fn counter_cache_hits_misses_and_evictions_do_not_allocate() {
    // 8 lines: one fully used 8-way set; 64 lines: eight sets.
    for capacity in [8, 64] {
        let leaves = 2 * capacity as u64;
        let mut cached = CachedTree::new(tree(leaves), capacity);
        for leaf in 0..leaves {
            assert!(cached.read_counter_block(leaf * 37).is_ok());
        }
        let before = cached.stats();
        let last = (leaves - 1) * 37;
        let hit = allocations(|| {
            assert!(cached.read_counter_block(last).is_ok());
        });
        let eviction = allocations(|| {
            assert!(cached.read_counter_block(0).is_ok());
        });
        cached.flush();
        let miss = allocations(|| {
            assert!(cached.read_counter_block(0).is_ok());
        });
        let after = cached.stats();
        assert_eq!(
            (after.hits - before.hits, after.misses - before.misses),
            (1, 2),
            "capacity {capacity}: one hit, two misses"
        );
        assert_eq!(after.evictions - before.evictions, 1, "capacity {capacity}");
        assert_eq!(
            (hit, miss, eviction),
            (0, 0, 0),
            "capacity {capacity}: (hit, miss, eviction) allocations"
        );
    }
}

#[test]
fn a_zero_capacity_cache_walks_and_updates_without_allocating() {
    // No lines: every read is a verified walk and every write a path
    // update, straight through to the tree.
    let mut cached = CachedTree::new(tree(200), 0);
    let leaf = 37 * 150;
    assert!(cached.read_counter_block(leaf).is_ok());
    let read = allocations(|| {
        assert!(cached.read_counter_block(leaf).is_ok());
    });
    let write = allocations(|| cached.write_counter_block(leaf, [0xaa; 64]));
    assert_eq!((read, write), (0, 0), "(walk, path update) allocations");
    assert_eq!(cached.read_counter_block(leaf).unwrap(), [0xaa; 64]);
    assert_eq!(
        cached.stats(),
        Default::default(),
        "a pass-through counts nothing"
    );
}
