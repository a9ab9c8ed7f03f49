//! The authenticated memory encryption engine — the component the paper
//! adds between the last-level cache and DRAM.
//!
//! Two complementary models live here:
//!
//! * [`MemoryEncryptionEngine`] (this module) — the *functional* engine:
//!   real AES-CTR encryption, real 56-bit Carter-Wegman MACs, a real
//!   Bonsai Merkle tree over real packed counter blocks, and the
//!   MAC-in-ECC side-band layout of Figure 2. It detects tampering and
//!   replay, and corrects DRAM faults with the brute-force
//!   *flip-and-check* procedure of Section 3.4 ([`correction`]).
//! * [`timing::TimingEngine`] — the *performance* model: counts and times
//!   the DRAM transactions each protected access generates (counter-tree
//!   walks through the metadata cache, separate MAC fetches vs the free
//!   ECC side-band, re-encryption sweeps) for the Figure 8 experiments.
//!
//! # Example
//!
//! ```
//! use ame_engine::{EngineConfig, MemoryEncryptionEngine};
//!
//! let mut engine = MemoryEncryptionEngine::new(EngineConfig::default());
//! engine.write_block(0x4000, &[7u8; 64]);
//! assert_eq!(engine.read_block(0x4000).unwrap(), [7u8; 64]);
//!
//! // A cold-boot attacker flips ciphertext bits: a single flip is both
//! // detected and corrected...
//! engine.tamper_data_bit(0x4000, 100);
//! assert_eq!(engine.read_block(0x4000).unwrap(), [7u8; 64]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod correction;
pub mod region;
pub mod scrub;
pub mod timing;

use ame_counters::delta::{DeltaConfig, DeltaCounters};
use ame_counters::dual::{DualLengthConfig, DualLengthDeltaCounters};
use ame_counters::monolithic::MonolithicCounters;
use ame_counters::split::SplitCounters;
use ame_counters::{CounterScheme, CounterStats, WriteOutcome};
use ame_crypto::ctr::ADDR_LIMIT;
use ame_crypto::MemoryCipher;
use ame_dram::storage::{DramStorage, StoredBlock};
use ame_ecc::layout::{MacSideband, StandardSideband};
use ame_ecc::secded::DecodeOutcome;
use ame_persist::{
    invalid_data, put_u32, put_u64, read_index_table, read_section, ByteReader, IndexMap,
    SectionWriter,
};
use ame_tree::cache::CachedTree;
use ame_tree::merkle::{BonsaiTree, VerifyError};
use std::io;

/// Size of a protected memory block in bytes.
pub const BLOCK_BYTES: usize = 64;

/// Where MAC tags are stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MacPlacement {
    /// Baseline: MACs in a dedicated DRAM region (extra transaction per
    /// verified read); the ECC side-band holds standard SEC-DED codes.
    SeparateMac,
    /// The paper's scheme (Figure 2): the 56-bit MAC + 7-bit MAC parity +
    /// 1 ciphertext-parity bit ride in the ECC side-band.
    #[default]
    MacInEcc,
}

/// Which counter representation the engine uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CounterSchemeKind {
    /// Full 56-bit counter per block (SGX baseline).
    Monolithic,
    /// Split counters (7-bit minors, 64-block groups).
    Split,
    /// Flat 7-bit frame-of-reference deltas (the paper's scheme).
    #[default]
    Delta,
    /// Dual-length 6+4-bit deltas (Figure 6).
    DualLength,
}

impl CounterSchemeKind {
    /// Instantiates the corresponding scheme with the paper's parameters.
    #[must_use]
    pub fn build(self) -> Box<dyn CounterScheme> {
        match self {
            CounterSchemeKind::Monolithic => Box::new(MonolithicCounters::default()),
            CounterSchemeKind::Split => Box::new(SplitCounters::default()),
            CounterSchemeKind::Delta => Box::new(DeltaCounters::new(DeltaConfig::default())),
            CounterSchemeKind::DualLength => {
                Box::new(DualLengthDeltaCounters::new(DualLengthConfig::default()))
            }
        }
    }
}

/// Configuration of the functional engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Key-derivation seed (per-boot key material).
    pub seed: u64,
    /// MAC storage placement.
    pub mac_placement: MacPlacement,
    /// Counter representation.
    pub counter_scheme: CounterSchemeKind,
    /// Maximum bit flips the flip-and-check corrector attempts (0 disables
    /// correction, 1 = single-bit, 2 = double-bit as in Section 3.4).
    pub max_correctable_flips: u32,
    /// Off-chip MAC levels of the Bonsai Merkle tree.
    pub tree_levels: usize,
    /// On-chip counter-cache capacity in 64-byte metadata blocks
    /// (Section 2.2's Gassend/SGX counter cache). 0 disables the cache:
    /// every counter fetch walks the tree. With a cache, reads served
    /// from the verified on-chip copy skip the walk — and off-chip
    /// tampering of a cached block is only caught once the copy is
    /// evicted, exactly like real hardware.
    pub counter_cache_blocks: usize,
    /// Prefetch counter blocks at 4 KB group boundaries on fused read
    /// runs: the batched read path collects the *distinct* metadata
    /// blocks a run touches and issues all verified fetches up-front,
    /// before the first data block is checked — overlapping the tree
    /// walks instead of discovering each boundary mid-run. Functionally
    /// identical either way; this only changes fetch scheduling.
    pub prefetch_counters: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            seed: 0x5eed,
            mac_placement: MacPlacement::MacInEcc,
            counter_scheme: CounterSchemeKind::Delta,
            max_correctable_flips: 2,
            tree_levels: 2,
            counter_cache_blocks: 0,
            prefetch_counters: true,
        }
    }
}

impl EngineConfig {
    /// Derives the configuration for one shard of a sharded deployment:
    /// identical parameters, but an independent per-shard key seed, so no
    /// two shards share key material and a compromise of one shard's
    /// counters/MACs says nothing about its siblings.
    ///
    /// Equivalent to [`EngineConfig::for_tenant`] with tenant 0 — the
    /// single-tenant derivation every pre-tenant deployment used, so
    /// stores persisted before tenancy existed re-derive their keys
    /// unchanged.
    #[must_use]
    pub fn for_shard(self, shard: usize) -> Self {
        self.for_tenant(0, shard)
    }

    /// Derives the configuration for one `(tenant, shard)` cell of a
    /// multi-tenant sharded deployment: identical parameters, but a key
    /// seed independent across *both* axes, so every tenant's address
    /// space is sealed under its own per-shard key material — one
    /// tenant's compromised counters/MACs say nothing about any shard
    /// of any other tenant.
    ///
    /// The derivation is deterministic (SplitMix64-style mix of the
    /// base seed, the tenant index, and the shard index), so a store
    /// rebuilt with the same base seed re-derives the same keys.
    /// Tenant 0 reduces to the historical [`EngineConfig::for_shard`]
    /// derivation exactly.
    #[must_use]
    pub fn for_tenant(mut self, tenant: usize, shard: usize) -> Self {
        let mut z = self
            .seed
            .wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(shard as u64 + 1))
            .wrapping_add(0xd1b5_4a32_d192_ed03u64.wrapping_mul(tenant as u64));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        self.seed = z ^ (z >> 31);
        self
    }
}

/// Why a protected read failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadError {
    /// The counter integrity tree detected tampering or replay.
    Tree(VerifyError),
    /// The MAC tag stored in the ECC side-band had an uncorrectable
    /// (double-bit) error.
    MacUncorrectable,
    /// Standard SEC-DED reported an uncorrectable data error
    /// (separate-MAC mode only).
    EccUncorrectable,
    /// The MAC check failed and flip-and-check could not repair the block:
    /// either an attack or a fault beyond the correction budget.
    IntegrityViolation,
}

impl std::fmt::Display for ReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadError::Tree(e) => write!(f, "counter tree: {e}"),
            ReadError::MacUncorrectable => write!(f, "uncorrectable error in stored MAC"),
            ReadError::EccUncorrectable => write!(f, "uncorrectable SEC-DED data error"),
            ReadError::IntegrityViolation => write!(f, "MAC verification failed"),
        }
    }
}

impl std::error::Error for ReadError {}

impl From<VerifyError> for ReadError {
    fn from(e: VerifyError) -> Self {
        ReadError::Tree(e)
    }
}

/// Outcome of a batched verified read ([`MemoryEncryptionEngine::read_blocks`]).
///
/// The run's plaintext is released as a prefix: all blocks on success,
/// exactly the blocks preceding the first failure otherwise — the same
/// prefix a loop of sequential [`read_block`](MemoryEncryptionEngine::read_block)
/// calls stopping at the first error would have produced.
#[derive(Debug)]
pub struct ReadRun {
    /// Verified plaintext of the released prefix (every block when
    /// `failed` is `None`, the first `failed.0` blocks otherwise).
    pub blocks: Vec<[u8; BLOCK_BYTES]>,
    /// The first failure, as `(index into the run, cause)`. The index
    /// always equals `blocks.len()`.
    pub failed: Option<(usize, ReadError)>,
    /// Verified counter-block fetches the run cost. On the batched fast
    /// path this is the number of *distinct* metadata blocks the run
    /// touched (the amortization the batch bought); on the per-block
    /// fallback it is one fetch per attempted block.
    pub counter_fetches: u64,
}

/// Functional-engine statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Verified block reads.
    pub reads: u64,
    /// Block writes.
    pub writes: u64,
    /// Blocks re-encrypted due to counter-group overflow.
    pub reencrypted_blocks: u64,
    /// Single-bit MAC corruptions repaired by the 7-bit MAC parity.
    pub mac_corrections: u64,
    /// Data blocks repaired by flip-and-check.
    pub data_corrections: u64,
    /// Total MAC-check hypotheses evaluated by flip-and-check.
    pub flip_checks: u64,
    /// Reads that failed verification.
    pub failed_reads: u64,
}

impl std::fmt::Display for EngineStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "reads={} writes={} corrected[data={} mac={}] reencrypted={} failed={}",
            self.reads,
            self.writes,
            self.data_corrections,
            self.mac_corrections,
            self.reencrypted_blocks,
            self.failed_reads
        )
    }
}

impl ame_telemetry::Metrics for EngineStats {
    fn record(&self, sink: &mut dyn ame_telemetry::MetricSink) {
        sink.counter("reads", self.reads);
        sink.counter("writes", self.writes);
        sink.counter("reencrypted_blocks", self.reencrypted_blocks);
        sink.counter("mac_corrections", self.mac_corrections);
        sink.counter("data_corrections", self.data_corrections);
        sink.counter("flip_checks", self.flip_checks);
        sink.counter("failed_reads", self.failed_reads);
    }
}

/// Snapshot of all off-chip state for one block, as a replay attacker
/// would capture it: stored data + side-band, plus the counter metadata
/// block and its stored leaf MAC.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockSnapshot {
    addr: u64,
    stored: StoredBlock,
    /// Counter metadata leaf (image + stored MAC); `None` for relocated
    /// snapshots, which splice only the data block.
    meta_leaf: Option<([u8; 64], u64)>,
    mac_entry: Option<u64>,
}

impl BlockSnapshot {
    /// The block-aligned address this snapshot was captured at.
    #[must_use]
    pub fn addr(&self) -> u64 {
        self.addr
    }

    /// The raw stored data bytes (ciphertext) — what a cold-boot attacker
    /// reads out of the DRAM chips.
    #[must_use]
    pub fn stored_data(&self) -> [u8; 64] {
        self.stored.data
    }

    /// The raw stored side-band bytes (MAC + parity, or ECC check bytes).
    #[must_use]
    pub fn stored_sideband(&self) -> [u8; 8] {
        self.stored.sideband
    }

    /// A *splicing* variant: the same stored bits retargeted at a
    /// different address. Counter metadata is not carried along (the
    /// attacker leaves the target's counters untouched), so replaying it
    /// tests the MAC's address binding.
    #[must_use]
    pub fn relocated(&self, addr: u64) -> BlockSnapshot {
        BlockSnapshot {
            addr,
            stored: self.stored,
            meta_leaf: None,
            mac_entry: self.mac_entry,
        }
    }
}

/// The integrity-tree frontend: direct walks, or fronted by the on-chip
/// counter cache.
#[derive(Debug)]
enum TreeFrontend {
    Plain(BonsaiTree),
    Cached(CachedTree),
}

impl TreeFrontend {
    fn read_counter_block(&mut self, idx: u64) -> Result<[u8; 64], VerifyError> {
        match self {
            TreeFrontend::Plain(t) => t.read_counter_block(idx),
            TreeFrontend::Cached(t) => t.read_counter_block(idx),
        }
    }

    fn write_counter_block(&mut self, idx: u64, content: [u8; 64]) {
        match self {
            TreeFrontend::Plain(t) => t.write_counter_block(idx, content),
            TreeFrontend::Cached(t) => t.write_counter_block(idx, content),
        }
    }

    fn inner_mut(&mut self) -> &mut BonsaiTree {
        match self {
            TreeFrontend::Plain(t) => t,
            TreeFrontend::Cached(t) => t.tree_mut(),
        }
    }

    fn inner(&self) -> &BonsaiTree {
        match self {
            TreeFrontend::Plain(t) => t,
            TreeFrontend::Cached(t) => t.tree(),
        }
    }
}

/// The whole functional engine reports as one scope: its own event
/// counters at the root, the counter scheme under `counters/`, the
/// metadata cache (when configured) under `metadata_cache/`, and the
/// flip-and-check cost distribution as `flip_check_distribution`.
impl ame_telemetry::Metrics for MemoryEncryptionEngine {
    fn record(&self, sink: &mut dyn ame_telemetry::MetricSink) {
        ame_telemetry::Metrics::record(&self.stats, sink);
        let counters = self.counter_stats();
        sink.counter("counters/writes", counters.writes);
        sink.counter("counters/resets", counters.resets);
        sink.counter("counters/reencodes", counters.reencodes);
        sink.counter("counters/expansions", counters.expansions);
        sink.counter("counters/reencryptions", counters.reencryptions);
        if let Some(cache) = self.counter_cache_stats() {
            sink.counter("metadata_cache/hits", cache.hits);
            sink.counter("metadata_cache/misses", cache.misses);
            sink.counter("metadata_cache/evictions", cache.evictions);
            sink.gauge("metadata_cache/hit_rate", cache.hit_rate());
        }
        sink.histogram("flip_check_distribution", &self.flip_check_dist);
        sink.histogram("mac_batch_size", &self.mac_batch_dist);
    }
}

/// The functional authenticated memory encryption engine.
pub struct MemoryEncryptionEngine {
    config: EngineConfig,
    cipher: MemoryCipher,
    counters: Box<dyn CounterScheme>,
    tree: TreeFrontend,
    storage: DramStorage,
    /// Separate-MAC mode: per-block 56-bit tags in a dedicated region.
    mac_region: IndexMap<u64>,
    stats: EngineStats,
    /// Distribution of MAC hypotheses evaluated per flip-and-check
    /// correction attempt (Section 3.4's cost argument).
    flip_check_dist: ame_telemetry::Histogram,
    /// Distribution of multi-message MAC batch sizes issued by the
    /// fused read-verify and write-seal paths.
    mac_batch_dist: ame_telemetry::Histogram,
}

impl std::fmt::Debug for MemoryEncryptionEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoryEncryptionEngine")
            .field("config", &self.config)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl MemoryEncryptionEngine {
    /// Creates an engine over an all-zero memory.
    #[must_use]
    pub fn new(config: EngineConfig) -> Self {
        let cipher = MemoryCipher::from_seed(config.seed);
        let bonsai = BonsaiTree::new(
            MemoryCipher::from_seed(config.seed ^ 0x7ee),
            config.tree_levels,
            8,
        );
        let tree = if config.counter_cache_blocks > 0 {
            TreeFrontend::Cached(CachedTree::new(bonsai, config.counter_cache_blocks))
        } else {
            TreeFrontend::Plain(bonsai)
        };
        Self {
            config,
            cipher,
            counters: config.counter_scheme.build(),
            tree,
            storage: DramStorage::new(),
            mac_region: IndexMap::default(),
            stats: EngineStats::default(),
            flip_check_dist: ame_telemetry::Histogram::new(),
            mac_batch_dist: ame_telemetry::Histogram::new(),
        }
    }

    /// The engine configuration.
    #[must_use]
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Functional statistics so far.
    #[must_use]
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Counter-scheme statistics (resets, re-encodes, re-encryptions).
    #[must_use]
    pub fn counter_stats(&self) -> CounterStats {
        self.counters.stats()
    }

    /// Distribution of MAC hypotheses per flip-and-check attempt.
    #[must_use]
    pub fn flip_check_distribution(&self) -> &ame_telemetry::Histogram {
        &self.flip_check_dist
    }

    /// Distribution of multi-message MAC batch sizes issued by the
    /// fused read-verify and write-seal paths.
    #[must_use]
    pub fn mac_batch_distribution(&self) -> &ame_telemetry::Histogram {
        &self.mac_batch_dist
    }

    fn block_index(addr: u64) -> u64 {
        addr / BLOCK_BYTES as u64
    }

    /// The check of every public block entry point: `addr` is
    /// block-aligned and below [`ADDR_LIMIT`], the range the cipher
    /// binds in full.
    fn check_addr(addr: u64) {
        assert_eq!(
            addr % BLOCK_BYTES as u64,
            0,
            "address must be block-aligned"
        );
        assert!(
            addr < ADDR_LIMIT,
            "address {addr:#x} is past the 48-bit address limit"
        );
    }

    fn block_addr(block: u64) -> u64 {
        block * BLOCK_BYTES as u64
    }

    /// Encrypt + MAC + store one plaintext block under `counter`.
    fn seal(&mut self, addr: u64, counter: u64, plain: &[u8; BLOCK_BYTES]) {
        let ct = self.cipher.encrypt_block(addr, counter, plain);
        self.seal_ciphertext(addr, counter, ct);
    }

    /// MAC + store an already-encrypted block under `counter` — the tail
    /// of [`Self::seal`], split out so bulk paths that produce ciphertext
    /// from batched keystreams can skip the per-block encrypt call.
    fn seal_ciphertext(&mut self, addr: u64, counter: u64, ct: [u8; BLOCK_BYTES]) {
        let tag = self.cipher.mac_block(addr, counter, &ct);
        self.seal_ciphertext_with_tag(addr, ct, tag);
    }

    /// Stores an already-encrypted block whose tag was precomputed — the
    /// tail of [`Self::seal_ciphertext`], split out so bulk paths can
    /// produce a whole run's tags with one [`MemoryCipher::mac_batch`]
    /// call instead of a per-block MAC.
    fn seal_ciphertext_with_tag(&mut self, addr: u64, ct: [u8; BLOCK_BYTES], tag: u64) {
        let sideband = match self.config.mac_placement {
            MacPlacement::MacInEcc => MacSideband::new(tag, &ct).to_bytes(),
            MacPlacement::SeparateMac => {
                self.mac_region.insert(Self::block_index(addr), tag);
                StandardSideband::encode(&ct).to_bytes()
            }
        };
        self.storage.write(addr, StoredBlock { data: ct, sideband });
    }

    /// Ensures a block has valid ciphertext/MAC state (memory is zero at
    /// boot; the first touch seals zeros under the current counter).
    fn ensure_initialized(&mut self, addr: u64) {
        self.stored_or_first_touch(addr, &mut Vec::new());
    }

    /// The stored bits of the block at `addr`, sealing zeros under its
    /// current counter first if it was never touched. A first touch
    /// syncs the block's metadata block into the tree unless `synced`
    /// says this run already did: reads bump no counter, so a second
    /// sync inside one run would rewrite the same leaf and re-derive the
    /// same path.
    fn stored_or_first_touch(&mut self, addr: u64, synced: &mut Vec<u64>) -> StoredBlock {
        if let Some(stored) = self.storage.get(addr) {
            return stored;
        }
        let block = Self::block_index(addr);
        self.seal(addr, self.counters.counter(block), &[0u8; BLOCK_BYTES]);
        let meta = self.counters.metadata_block_of(block);
        if !synced.contains(&meta) {
            synced.push(meta);
            self.sync_meta(meta);
        }
        self.storage.read(addr)
    }

    /// Mirrors the (updated) packed counter block into the integrity tree.
    fn sync_tree(&mut self, block: u64) {
        self.sync_meta(self.counters.metadata_block_of(block));
    }

    fn sync_meta(&mut self, meta: u64) {
        let image = self.counters.metadata_block_image(meta);
        self.tree.write_counter_block(meta, image);
    }

    /// Mirrors each distinct metadata block of `metas` into the
    /// integrity tree, once. A leaf image is a pure function of the
    /// current counter state and a path update a pure function of the
    /// stored images, so once every counter of a run has been bumped,
    /// one sync per metadata block leaves the tree bit-identical to one
    /// sync per data block — at one leaf-to-root re-MAC instead of (for a
    /// delta group) sixty-four.
    fn sync_tree_metas(&mut self, mut metas: Vec<u64>) {
        metas.sort_unstable();
        metas.dedup();
        for meta in metas {
            self.sync_meta(meta);
        }
    }

    /// Re-encrypts every *resident* block of an overflowed group under the
    /// fresh counter (Section 4.2: sequential read-decrypt-encrypt-write).
    ///
    /// Counter mode lets the decrypt and re-encrypt collapse into one XOR
    /// with the combined old⊕new keystream, and both keystream sets for
    /// the whole group are generated as pipelined batches rather than one
    /// AES call per block — re-encryption is the engine's worst-case
    /// latency event, so it gets the full batched path.
    fn reencrypt_group(&mut self, group: u64, old_counters: &[u64], new_counter: u64) {
        let bpg = self.counters.blocks_per_group() as u64;
        // Never-touched blocks stay zero; they will be sealed under the
        // new counter on first use.
        let resident: Vec<(u64, u64)> = old_counters
            .iter()
            .enumerate()
            .filter_map(|(i, &old_ctr)| {
                let addr = Self::block_addr(group * bpg + i as u64);
                self.storage.contains(addr).then_some((addr, old_ctr))
            })
            .collect();
        if resident.is_empty() {
            return;
        }
        let old_ks = self.cipher.keystream_batch(&resident);
        let new_nonces: Vec<(u64, u64)> = resident
            .iter()
            .map(|&(addr, _)| (addr, new_counter))
            .collect();
        let new_ks = self.cipher.keystream_batch(&new_nonces);
        let ciphertexts: Vec<[u8; BLOCK_BYTES]> = resident
            .iter()
            .zip(&old_ks)
            .zip(&new_ks)
            .map(|((&(addr, _), old), new)| {
                let mut ct = self.storage.read(addr).data;
                for ((c, o), n) in ct.iter_mut().zip(old.iter()).zip(new.iter()) {
                    *c ^= o ^ n;
                }
                ct
            })
            .collect();
        // One multi-message pass tags the whole re-encrypted group.
        let tags = self.cipher.mac_batch(&new_nonces, &ciphertexts);
        self.mac_batch_dist.record(ciphertexts.len() as u64);
        for ((&(addr, _), ct), tag) in resident.iter().zip(ciphertexts).zip(tags) {
            self.seal_ciphertext_with_tag(addr, ct, tag);
            self.stats.reencrypted_blocks += 1;
        }
    }

    /// Writes one 64-byte block at a block-aligned address.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not 64-byte aligned or not below
    /// [`ADDR_LIMIT`].
    pub fn write_block(&mut self, addr: u64, plain: &[u8; BLOCK_BYTES]) {
        Self::check_addr(addr);
        let block = Self::block_index(addr);
        if let WriteOutcome::Reencrypted {
            group,
            old_counters,
            new_counter,
        } = self.counters.record_write(block)
        {
            self.reencrypt_group(group, &old_counters, new_counter);
        }
        let counter = self.counters.counter(block);
        self.seal(addr, counter, plain);
        self.sync_tree(block);
        self.stats.writes += 1;
    }

    /// Writes a batch of block-aligned full-block stores, behaviourally
    /// identical to calling [`Self::write_block`] once per item in order
    /// (duplicate addresses included: each store bumps the counter, the
    /// last one survives), but generating the seal keystreams of every
    /// overflow-free run with one pipelined [`MemoryCipher::keystream_batch`]
    /// call instead of a per-block AES invocation.
    ///
    /// A group-counter overflow inside the batch forces the pending run
    /// to seal per-block first (its captured counters must hit storage
    /// before the group re-encryption rewrites those blocks), so the
    /// batched fast path covers exactly the overflow-free stretches —
    /// which is all of them outside the rare counter-wrap events.
    ///
    /// # Panics
    ///
    /// Panics if any address is not 64-byte aligned or not below
    /// [`ADDR_LIMIT`].
    pub fn write_blocks(&mut self, items: &[(u64, [u8; BLOCK_BYTES])]) {
        // Phase 1: bump counters in order, accumulating `(item, counter)`
        // runs that are safe to seal from one batched keystream.
        let mut run: Vec<(usize, u64)> = Vec::with_capacity(items.len());
        for (i, &(addr, _)) in items.iter().enumerate() {
            Self::check_addr(addr);
            let block = Self::block_index(addr);
            let outcome = self.counters.record_write(block);
            if let WriteOutcome::Reencrypted {
                group,
                old_counters,
                new_counter,
            } = outcome
            {
                // The overflow already reset the group's counters, and the
                // upcoming re-encryption reads storage assuming every
                // resident block is sealed under `old_counters`. Pending
                // items may be in that group, so commit them under their
                // captured counters *now* (those captured values are the
                // `old_counters` the re-encryption will use).
                self.flush_write_run(items, &run);
                run.clear();
                self.reencrypt_group(group, &old_counters, new_counter);
            }
            run.push((i, self.counters.counter(block)));
        }
        // Phase 2: one keystream batch encrypts the overflow-free tail
        // and one multi-message MAC batch seals it.
        if run.is_empty() {
            return;
        }
        let nonces: Vec<(u64, u64)> = run.iter().map(|&(i, ctr)| (items[i].0, ctr)).collect();
        let keystreams = self.cipher.keystream_batch(&nonces);
        let ciphertexts: Vec<[u8; BLOCK_BYTES]> = run
            .iter()
            .zip(&keystreams)
            .map(|(&(i, _), ks)| {
                let mut ct = items[i].1;
                for (c, k) in ct.iter_mut().zip(ks.iter()) {
                    *c ^= k;
                }
                ct
            })
            .collect();
        let tags = self.cipher.mac_batch(&nonces, &ciphertexts);
        self.mac_batch_dist.record(ciphertexts.len() as u64);
        for ((&(i, _), ct), tag) in run.iter().zip(ciphertexts).zip(tags) {
            self.seal_ciphertext_with_tag(items[i].0, ct, tag);
        }
        self.finish_write_run(items, &run);
    }

    /// Seals a pending `(item index, counter)` run per-block — the slow
    /// path [`Self::write_blocks`] takes when a counter overflow lands
    /// mid-batch.
    fn flush_write_run(&mut self, items: &[(u64, [u8; BLOCK_BYTES])], run: &[(usize, u64)]) {
        for &(i, counter) in run {
            let (addr, plain) = items[i];
            self.seal(addr, counter, &plain);
        }
        self.finish_write_run(items, run);
    }

    /// Accounts a sealed write run and syncs the tree once per metadata
    /// block it touched: every counter of the run was bumped before the
    /// first seal, so per-block syncs would all write the same images.
    fn finish_write_run(&mut self, items: &[(u64, [u8; BLOCK_BYTES])], run: &[(usize, u64)]) {
        self.stats.writes += run.len() as u64;
        let metas = run
            .iter()
            .map(|&(i, _)| {
                self.counters
                    .metadata_block_of(Self::block_index(items[i].0))
            })
            .collect();
        self.sync_tree_metas(metas);
    }

    /// Reads and verifies one 64-byte block at a block-aligned address.
    ///
    /// # Errors
    ///
    /// Returns a [`ReadError`] if the counter tree, the MAC parity, the
    /// SEC-DED code, or the MAC check detect unrecoverable tampering or
    /// faults.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not 64-byte aligned or not below
    /// [`ADDR_LIMIT`].
    pub fn read_block(&mut self, addr: u64) -> Result<[u8; BLOCK_BYTES], ReadError> {
        self.read_block_in_run(addr, &mut Vec::new())
    }

    /// [`Self::read_block`] as one step of a sequential run: `synced`
    /// carries the metadata blocks the run's first touches already
    /// synced (empty for a read on its own).
    fn read_block_in_run(
        &mut self,
        addr: u64,
        synced: &mut Vec<u64>,
    ) -> Result<[u8; BLOCK_BYTES], ReadError> {
        Self::check_addr(addr);
        let stored = self.stored_or_first_touch(addr, synced);
        let block = Self::block_index(addr);

        // 1. Fetch + verify the counter through the Bonsai Merkle tree.
        let meta = self.counters.metadata_block_of(block);
        let verified_image = match self.tree.read_counter_block(meta) {
            Ok(img) => img,
            Err(e) => {
                self.stats.failed_reads += 1;
                return Err(ReadError::Tree(e));
            }
        };
        // The engine's counter state must match the verified off-chip
        // image (it always does unless this code is buggy).
        debug_assert_eq!(verified_image, self.counters.metadata_block_image(meta));
        let counter = self.counters.counter(block);

        match self.config.mac_placement {
            MacPlacement::MacInEcc => self.read_mac_in_ecc(addr, counter, stored),
            MacPlacement::SeparateMac => self.read_separate_mac(addr, counter, stored),
        }
    }

    /// Reads and verifies a run of block-aligned addresses as one unit,
    /// behaviourally identical to calling [`Self::read_block`] once per
    /// address in order and stopping at the first error — but on the fast
    /// path the run costs one verified counter-block fetch per *distinct*
    /// metadata block it touches (instead of one per block) and one
    /// pipelined [`MemoryCipher::keystream_batch`] call for all decrypts.
    ///
    /// Verify-before-release: the fast path checks every block's MAC (and
    /// side-band parity/SEC-DED) before decrypting anything. Any anomaly —
    /// a tag mismatch, a correctable or uncorrectable side-band condition,
    /// an uninitialized block, a tree failure — abandons the batch without
    /// having mutated stats or storage and re-runs the whole run through
    /// sequential [`Self::read_block`] calls, so error attribution,
    /// flip-and-check correction, scrubbing, and failure statistics are
    /// bit-identical to the scalar path.
    ///
    /// # Panics
    ///
    /// Panics if any address is not 64-byte aligned or not below
    /// [`ADDR_LIMIT`].
    pub fn read_blocks(&mut self, addrs: &[u64]) -> ReadRun {
        for &addr in addrs {
            Self::check_addr(addr);
        }
        if addrs.len() > 1 {
            if let Some(run) = self.try_read_blocks_fast(addrs) {
                return run;
            }
        }
        self.read_blocks_sequential(addrs)
    }

    /// The batched fast path of [`Self::read_blocks`]. Returns `None` on
    /// any anomaly, *before* mutating stats or storage, so the sequential
    /// fallback replays the run from scratch.
    fn try_read_blocks_fast(&mut self, addrs: &[u64]) -> Option<ReadRun> {
        // Every block must already be sealed. Initializing a missing
        // block here would sync its (shared) counter leaf back to the
        // tree — and that must not happen before neighbouring blocks are
        // verified, or it could launder a tampered off-chip leaf that the
        // sequential path would have caught. One lookup per block: the
        // stored bits gathered here are the ones verified below.
        let stored: Vec<StoredBlock> = addrs
            .iter()
            .map(|&a| self.storage.get(a))
            .collect::<Option<_>>()?;

        // One verified tree fetch per distinct metadata block in the run.
        let mut fetched: Vec<u64> = Vec::new();
        let mut counters: Vec<u64> = Vec::with_capacity(addrs.len());
        if self.config.prefetch_counters {
            // Prefetch: resolve the run's 4 KB group boundaries up-front
            // and issue every verified counter fetch before the first
            // data block is touched, instead of discovering each
            // boundary as the run walks into it.
            let mut metas: Vec<u64> = addrs
                .iter()
                .map(|&addr| self.counters.metadata_block_of(Self::block_index(addr)))
                .collect();
            metas.sort_unstable();
            metas.dedup();
            for &meta in &metas {
                let verified_image = self.tree.read_counter_block(meta).ok()?;
                debug_assert_eq!(verified_image, self.counters.metadata_block_image(meta));
            }
            fetched = metas;
            for &addr in addrs {
                counters.push(self.counters.counter(Self::block_index(addr)));
            }
        } else {
            for &addr in addrs {
                let block = Self::block_index(addr);
                let meta = self.counters.metadata_block_of(block);
                if !fetched.contains(&meta) {
                    let verified_image = self.tree.read_counter_block(meta).ok()?;
                    debug_assert_eq!(verified_image, self.counters.metadata_block_image(meta));
                    fetched.push(meta);
                }
                counters.push(self.counters.counter(block));
            }
        }

        // Gather every block's decoded ciphertext and stored tag. Any
        // side-band anomaly (a correctable or uncorrectable ECC
        // condition, a parity fault) drops to the sequential path before
        // any MAC work — that path owns correction, scrubbing, and
        // failure accounting.
        let mut ciphertexts: Vec<[u8; BLOCK_BYTES]> = Vec::with_capacity(addrs.len());
        let mut stored_tags: Vec<u64> = Vec::with_capacity(addrs.len());
        for (&addr, stored) in addrs.iter().zip(stored) {
            let (ct, tag) = match self.config.mac_placement {
                MacPlacement::MacInEcc => {
                    let sideband = MacSideband::from_bytes(stored.sideband);
                    let DecodeOutcome::Clean { word: tag } = sideband.recover_tag() else {
                        return None;
                    };
                    (stored.data, tag)
                }
                MacPlacement::SeparateMac => {
                    let sideband = StandardSideband::from_bytes(stored.sideband);
                    let decoded = sideband.decode(&stored.data);
                    if decoded.any_error() {
                        return None;
                    }
                    let ct = decoded.corrected_block()?;
                    let block = Self::block_index(addr);
                    (ct, self.mac_region.get(&block).copied().unwrap_or(0))
                }
            };
            ciphertexts.push(ct);
            stored_tags.push(tag);
        }

        // Verify-before-release, one multi-message MAC pass for the
        // whole run. Any mismatch abandons the batch with nothing
        // mutated, so the sequential fallback re-derives attribution,
        // flip-and-check correction, and quarantine bit-identically.
        let nonces: Vec<(u64, u64)> = addrs.iter().copied().zip(counters).collect();
        let computed = self.cipher.mac_batch(&nonces, &ciphertexts);
        self.mac_batch_dist.record(computed.len() as u64);
        if computed
            .iter()
            .zip(&stored_tags)
            .any(|(&got, &stored)| got != stored & ame_crypto::TAG_MASK)
        {
            return None;
        }

        // All tags checked: decrypt the whole run from one pipelined
        // keystream batch.
        let keystreams = self.cipher.keystream_batch(&nonces);
        for (ct, ks) in ciphertexts.iter_mut().zip(&keystreams) {
            for (c, k) in ct.iter_mut().zip(ks.iter()) {
                *c ^= k;
            }
        }
        self.stats.reads += addrs.len() as u64;
        Some(ReadRun {
            blocks: ciphertexts,
            failed: None,
            counter_fetches: fetched.len() as u64,
        })
    }

    /// The per-block fallback of [`Self::read_blocks`]: sequential
    /// [`Self::read_block`]s, stopping at the first failure; the first
    /// touches of the run sync each metadata block once.
    fn read_blocks_sequential(&mut self, addrs: &[u64]) -> ReadRun {
        let mut blocks = Vec::with_capacity(addrs.len());
        let mut counter_fetches = 0u64;
        let mut synced = Vec::new();
        for (i, &addr) in addrs.iter().enumerate() {
            counter_fetches += 1;
            match self.read_block_in_run(addr, &mut synced) {
                Ok(plain) => blocks.push(plain),
                Err(e) => {
                    return ReadRun {
                        blocks,
                        failed: Some((i, e)),
                        counter_fetches,
                    };
                }
            }
        }
        ReadRun {
            blocks,
            failed: None,
            counter_fetches,
        }
    }

    fn read_mac_in_ecc(
        &mut self,
        addr: u64,
        counter: u64,
        stored: StoredBlock,
    ) -> Result<[u8; BLOCK_BYTES], ReadError> {
        let sideband = MacSideband::from_bytes(stored.sideband);
        // Recover the MAC through its own 7-bit SEC-DED first (Section
        // 3.3): a flipped MAC bit must not masquerade as a data error.
        let (tag, corrected_sideband) = match sideband.recover_tag() {
            DecodeOutcome::Clean { word } => (word, false),
            DecodeOutcome::CorrectedData { word, .. } | DecodeOutcome::CorrectedCheck { word } => {
                self.stats.mac_corrections += 1;
                (word, true)
            }
            DecodeOutcome::DoubleError | DecodeOutcome::Uncorrectable => {
                self.stats.failed_reads += 1;
                return Err(ReadError::MacUncorrectable);
            }
        };

        if self.cipher.verify_block(addr, counter, &stored.data, tag) {
            if corrected_sideband {
                // Scrub the corrected side-band back, exactly as corrected
                // data is scrubbed below: a correctable MAC flip left in
                // place would accumulate with the next one into an
                // uncorrectable double error (Section 3.3's scrubbing
                // argument applies to the MAC's own bits too).
                self.storage.write(
                    addr,
                    StoredBlock {
                        data: stored.data,
                        sideband: MacSideband::new(tag, &stored.data).to_bytes(),
                    },
                );
            }
            self.stats.reads += 1;
            return Ok(self.cipher.decrypt_block(addr, counter, &stored.data));
        }

        // MAC mismatch: attempt flip-and-check error correction.
        let outcome = correction::flip_and_check(
            &self.cipher,
            addr,
            counter,
            &stored.data,
            tag,
            self.config.max_correctable_flips,
        );
        self.stats.flip_checks += outcome.checks;
        self.flip_check_dist.record(outcome.checks);
        if let Some(fixed) = outcome.corrected {
            // Scrub the repaired block back to memory.
            let sb = MacSideband::new(tag, &fixed).to_bytes();
            self.storage.write(
                addr,
                StoredBlock {
                    data: fixed,
                    sideband: sb,
                },
            );
            self.stats.data_corrections += 1;
            self.stats.reads += 1;
            return Ok(self.cipher.decrypt_block(addr, counter, &fixed));
        }
        self.stats.failed_reads += 1;
        Err(ReadError::IntegrityViolation)
    }

    fn read_separate_mac(
        &mut self,
        addr: u64,
        counter: u64,
        stored: StoredBlock,
    ) -> Result<[u8; BLOCK_BYTES], ReadError> {
        let sideband = StandardSideband::from_bytes(stored.sideband);
        let decoded = sideband.decode(&stored.data);
        let Some(ct) = decoded.corrected_block() else {
            self.stats.failed_reads += 1;
            return Err(ReadError::EccUncorrectable);
        };
        if decoded.any_error() {
            self.stats.data_corrections += 1;
            // Scrub the corrected data back.
            let sb = StandardSideband::encode(&ct).to_bytes();
            self.storage.write(
                addr,
                StoredBlock {
                    data: ct,
                    sideband: sb,
                },
            );
        }
        let block = Self::block_index(addr);
        let tag = self.mac_region.get(&block).copied().unwrap_or(0);
        if self.cipher.verify_block(addr, counter, &ct, tag) {
            self.stats.reads += 1;
            Ok(self.cipher.decrypt_block(addr, counter, &ct))
        } else {
            self.stats.failed_reads += 1;
            Err(ReadError::IntegrityViolation)
        }
    }

    // ---- attacker / fault-injection surface ----

    /// Flips one stored ciphertext bit (`0..512`), as a DRAM fault or a
    /// physical attacker would.
    pub fn tamper_data_bit(&mut self, addr: u64, bit: u32) {
        self.ensure_initialized(addr);
        self.storage.flip_data_bit(addr, bit);
    }

    /// Flips one stored ECC side-band bit (`0..64`).
    pub fn tamper_sideband_bit(&mut self, addr: u64, bit: u32) {
        self.ensure_initialized(addr);
        self.storage.flip_sideband_bit(addr, bit);
    }

    /// Captures all off-chip state of a block for a later replay.
    #[must_use]
    pub fn snapshot_block(&mut self, addr: u64) -> BlockSnapshot {
        self.ensure_initialized(addr);
        let block = Self::block_index(addr);
        let meta = self.counters.metadata_block_of(block);
        BlockSnapshot {
            addr,
            stored: self.storage.read(addr),
            meta_leaf: Some(self.tree.inner_mut().snapshot_leaf(meta)),
            mac_entry: self.mac_region.get(&block).copied(),
        }
    }

    /// Replays a snapshot: restores the stored block, the separate MAC (if
    /// any), the counter metadata block and its stored leaf MAC — every
    /// bit an attacker with physical DRAM access can restore. The on-chip
    /// tree root is out of reach, so a stale replay is detected.
    pub fn replay_block(&mut self, snapshot: &BlockSnapshot) {
        let block = Self::block_index(snapshot.addr);
        let meta = self.counters.metadata_block_of(block);
        self.storage.write(snapshot.addr, snapshot.stored);
        if let Some(tag) = snapshot.mac_entry {
            self.mac_region.insert(block, tag);
        }
        if let Some(leaf) = snapshot.meta_leaf {
            self.tree.inner_mut().replay_leaf(meta, leaf);
        }
    }

    /// Direct access to the integrity tree (for tampering experiments).
    pub fn tree_mut(&mut self) -> &mut BonsaiTree {
        self.tree.inner_mut()
    }

    /// Counter-cache hit/miss statistics, if the cache is enabled.
    #[must_use]
    pub fn counter_cache_stats(&self) -> Option<ame_tree::cache::CounterCacheStats> {
        match &self.tree {
            TreeFrontend::Plain(_) => None,
            TreeFrontend::Cached(t) => Some(t.stats()),
        }
    }

    /// Direct access to the functional DRAM array (for scrubbing and
    /// fault-injection experiments).
    pub fn storage_mut(&mut self) -> &mut DramStorage {
        &mut self.storage
    }

    /// Current counter value of the block at `addr`.
    #[must_use]
    pub fn counter_of(&self, addr: u64) -> u64 {
        self.counters.counter(Self::block_index(addr))
    }

    /// How many data blocks share one packed counter/metadata block under
    /// the configured scheme — the upper bound on what a single verified
    /// fetch can amortize across a fused read run.
    #[must_use]
    pub fn blocks_per_metadata_block(&self) -> usize {
        self.counters.blocks_per_metadata_block()
    }

    /// Re-keys the engine: derives fresh keys from `new_seed`, re-encrypts
    /// every resident block under the new keys (and fresh counters), and
    /// rebuilds the integrity tree.
    ///
    /// A real engine performs this when its keys must rotate — e.g. if the
    /// 56-bit reference counter ever approached exhaustion, or on a policy
    /// schedule. All previously captured off-chip snapshots become useless
    /// to an attacker: they neither decrypt nor verify under the new keys.
    ///
    /// # Errors
    ///
    /// Returns the first [`ReadError`] encountered while verifying the old
    /// contents; the engine is left unchanged in that case (re-keying
    /// must not launder corrupted state into fresh MACs).
    pub fn rekey(&mut self, new_seed: u64) -> Result<(), ReadError> {
        // 1. Read and verify everything under the current keys.
        let addrs: Vec<u64> = self.resident_addrs();
        let mut plain = Vec::with_capacity(addrs.len());
        for &addr in &addrs {
            plain.push((addr, self.read_block(addr)?));
        }
        // 2. Swap in fresh key material and empty metadata.
        self.config.seed = new_seed;
        self.cipher = MemoryCipher::from_seed(new_seed);
        let bonsai = BonsaiTree::new(
            MemoryCipher::from_seed(new_seed ^ 0x7ee),
            self.config.tree_levels,
            8,
        );
        self.tree = if self.config.counter_cache_blocks > 0 {
            TreeFrontend::Cached(CachedTree::new(bonsai, self.config.counter_cache_blocks))
        } else {
            TreeFrontend::Plain(bonsai)
        };
        self.counters = self.config.counter_scheme.build();
        self.storage = DramStorage::new();
        self.mac_region.clear();
        // 3. Seal the contents back under the new keys.
        for (addr, data) in plain {
            self.write_block(addr, &data);
        }
        Ok(())
    }

    /// Block-aligned addresses currently resident in storage, ascending.
    fn resident_addrs(&self) -> Vec<u64> {
        self.storage.addrs().collect()
    }

    // ---- durable storage plane ----

    /// Section magic of the frozen engine image.
    const MAGIC: &'static [u8; 8] = b"AMEENGIN";
    /// Section version of the frozen engine image.
    const VERSION: u32 = 1;

    /// Exports a block's complete *sealed* state — ciphertext, side-band,
    /// counter, and (in separate-MAC mode) its MAC-region tag. This is
    /// what a write-intent log records: no plaintext, nothing an attacker
    /// reading the log learns beyond what DRAM already exposes.
    pub fn export_sealed(&mut self, addr: u64) -> SealedBlockState {
        self.ensure_initialized(addr);
        let block = Self::block_index(addr);
        SealedBlockState {
            stored: self.storage.read(addr),
            counter: self.counters.counter(block),
            mac: self.mac_region.get(&block).copied(),
        }
    }

    /// Re-installs a *run* of sealed block states captured by
    /// [`Self::export_sealed`] (write-intent log replay) — the recovery
    /// analogue of the batched write path, and the one way sealed state
    /// enters an engine. Each entry restores its counter *value*, stored
    /// bits and MAC-region tag; the integrity-tree re-sync is then done
    /// once per *distinct metadata block* the run touched: the tree leaf
    /// image is a pure function of the final counter state, so syncing
    /// once after all counters in a leaf are restored yields the same
    /// tree as a per-entry sync. A replayed block is not trusted by fiat
    /// — its MAC binds (address, counter, ciphertext), so a forged record
    /// fails the next verified read.
    ///
    /// # Errors
    ///
    /// `InvalidData` from the first entry whose counter value cannot be
    /// represented (corrupt or forged log). Entries before the failure
    /// are applied and their metadata blocks synced, so the engine is
    /// left tree-consistent even on error; the caller abandons recovery
    /// anyway.
    pub fn apply_sealed_run(&mut self, entries: &[(u64, SealedBlockState)]) -> io::Result<()> {
        let mut metas: Vec<u64> = Vec::with_capacity(entries.len());
        let result = entries.iter().try_for_each(|(addr, state)| {
            let block = Self::block_index(*addr);
            self.counters.force_counter(block, state.counter)?;
            if let Some(tag) = state.mac {
                self.mac_region.insert(block, tag);
            }
            self.storage.write(*addr, state.stored);
            metas.push(self.counters.metadata_block_of(block));
            Ok(())
        });
        self.sync_tree_metas(metas);
        result
    }

    /// Reads and verifies every resident block (tree walk + MAC check),
    /// returning how many blocks were verified. Recovery calls this
    /// before a thawed engine serves a single request.
    ///
    /// # Errors
    ///
    /// The first [`ReadError`] encountered; the caller must treat the
    /// engine as compromised (quarantine, not serve).
    pub fn verify_all(&mut self) -> Result<u64, ReadError> {
        let addrs = self.resident_addrs();
        for &addr in &addrs {
            self.read_block(addr)?;
        }
        Ok(addrs.len() as u64)
    }

    /// Serializes the engine's complete sealed state — configuration,
    /// statistics, storage, counters, integrity tree, and MAC region —
    /// into one checksummed section appended to `out`. Only ciphertext
    /// and authentication metadata are captured; no plaintext leaves the
    /// engine. The cipher itself is not serialized: keys are re-derived
    /// from the seed at thaw.
    ///
    /// **The image is not confidential at rest.** The key-derivation
    /// seed (`config.seed`) is embedded in cleartext so thaw can
    /// re-derive the cipher, which means anyone who can read the frozen
    /// image can decrypt every block in it. Freezing preserves the
    /// *integrity* contract (tampered images fail the checksum, MAC, or
    /// tree re-verification) but secrecy of the image itself is the
    /// caller's problem — file permissions, disk encryption, or an
    /// external key store. This matches the simulator's threat model,
    /// where the seed stands in for an on-die key that real hardware
    /// would never export.
    pub fn freeze_into(&self, out: &mut Vec<u8>) {
        let start = out.len();
        let mut payload = SectionWriter::begin(out, Self::MAGIC, Self::VERSION);
        put_u64(&mut payload, self.config.seed);
        payload.push(match self.config.mac_placement {
            MacPlacement::SeparateMac => 0,
            MacPlacement::MacInEcc => 1,
        });
        payload.push(match self.config.counter_scheme {
            CounterSchemeKind::Monolithic => 0,
            CounterSchemeKind::Split => 1,
            CounterSchemeKind::Delta => 2,
            CounterSchemeKind::DualLength => 3,
        });
        put_u32(&mut payload, self.config.max_correctable_flips);
        put_u64(&mut payload, self.config.tree_levels as u64);
        put_u64(&mut payload, self.config.counter_cache_blocks as u64);
        payload.push(u8::from(self.config.prefetch_counters));
        put_u64(&mut payload, self.stats.reads);
        put_u64(&mut payload, self.stats.writes);
        put_u64(&mut payload, self.stats.reencrypted_blocks);
        put_u64(&mut payload, self.stats.mac_corrections);
        put_u64(&mut payload, self.stats.data_corrections);
        put_u64(&mut payload, self.stats.flip_checks);
        put_u64(&mut payload, self.stats.failed_reads);
        payload.nested(|out| self.storage.encode(out));
        payload.nested(|out| self.counters.encode_state(out));
        payload.nested(|out| self.tree.inner().encode_state(out));
        let mut blocks: Vec<u64> = self.mac_region.keys().copied().collect();
        blocks.sort_unstable();
        put_u64(&mut payload, blocks.len() as u64);
        for block in blocks {
            put_u64(&mut payload, block);
            put_u64(&mut payload, self.mac_region[&block]);
        }
        payload.finish();
        debug_assert_eq!(out.len() - start, self.frozen_len());
    }

    /// Exact length in bytes of what [`Self::freeze_into`] appends, so
    /// the image's buffer is reserved once and never regrown.
    #[must_use]
    pub fn frozen_len(&self) -> usize {
        // seed, placement, scheme, flips, levels, cache blocks, prefetch;
        // seven statistics; the MAC-region count.
        ame_persist::SECTION_OVERHEAD
            + (8 + 1 + 1 + 4 + 8 + 8 + 1 + 7 * 8 + 8)
            + self.storage.encoded_len()
            + self.counters.encoded_state_len()
            + self.tree.inner().encoded_state_len()
            + self.mac_region.len() * 16
    }

    /// Rebuilds an engine from a section produced by
    /// [`Self::freeze_into`], advancing the reader past it. Keys are
    /// re-derived from the stored seed; the counter cache (if any) comes
    /// back cold. The thawed engine is *not* yet trusted — callers run
    /// [`Self::verify_all`] before serving.
    ///
    /// # Errors
    ///
    /// `InvalidData` on a framing/checksum failure anywhere in the image
    /// or internally inconsistent decoded state.
    pub fn thaw_from(r: &mut ByteReader<'_>) -> io::Result<Self> {
        let (version, mut payload) = read_section(r, Self::MAGIC)?;
        if version != Self::VERSION {
            return Err(invalid_data(format!(
                "unsupported engine image version {version}"
            )));
        }
        let seed = payload.u64()?;
        let mac_placement = match payload.u8()? {
            0 => MacPlacement::SeparateMac,
            1 => MacPlacement::MacInEcc,
            other => return Err(invalid_data(format!("unknown MAC placement {other}"))),
        };
        let counter_scheme = match payload.u8()? {
            0 => CounterSchemeKind::Monolithic,
            1 => CounterSchemeKind::Split,
            2 => CounterSchemeKind::Delta,
            3 => CounterSchemeKind::DualLength,
            other => return Err(invalid_data(format!("unknown counter scheme {other}"))),
        };
        let config = EngineConfig {
            seed,
            mac_placement,
            counter_scheme,
            max_correctable_flips: payload.u32()?,
            tree_levels: payload.u64()? as usize,
            counter_cache_blocks: payload.u64()? as usize,
            prefetch_counters: payload.u8()? != 0,
        };
        let stats = EngineStats {
            reads: payload.u64()?,
            writes: payload.u64()?,
            reencrypted_blocks: payload.u64()?,
            mac_corrections: payload.u64()?,
            data_corrections: payload.u64()?,
            flip_checks: payload.u64()?,
            failed_reads: payload.u64()?,
        };
        let storage = DramStorage::decode(&mut payload)?;
        let mut counters = counter_scheme.build();
        counters.decode_state(&mut payload)?;
        let bonsai = BonsaiTree::decode_state(MemoryCipher::from_seed(seed ^ 0x7ee), &mut payload)?;
        let tree = if config.counter_cache_blocks > 0 {
            TreeFrontend::Cached(CachedTree::new(bonsai, config.counter_cache_blocks))
        } else {
            TreeFrontend::Plain(bonsai)
        };
        let mac_region = read_index_table(&mut payload, 16, ByteReader::u64)?;
        Ok(Self {
            config,
            cipher: MemoryCipher::from_seed(seed),
            counters,
            tree,
            storage,
            mac_region,
            stats,
            flip_check_dist: ame_telemetry::Histogram::new(),
            mac_batch_dist: ame_telemetry::Histogram::new(),
        })
    }
}

/// A single block's sealed state as captured by
/// [`MemoryEncryptionEngine::export_sealed`]: ciphertext + side-band, the
/// counter it was sealed under, and the separate-MAC tag if the engine
/// stores MACs in a dedicated region. This is the unit a write-intent log
/// records — everything needed to restore the block, nothing plaintext.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SealedBlockState {
    stored: StoredBlock,
    counter: u64,
    mac: Option<u64>,
}

impl SealedBlockState {
    /// The counter this block was sealed under.
    #[must_use]
    pub fn counter(&self) -> u64 {
        self.counter
    }

    /// Serializes the state (fixed [`Self::ENCODED_LEN`]-byte layout, no
    /// framing — callers wrap records in their own checksummed framing).
    pub fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.counter);
        match self.mac {
            Some(tag) => {
                out.push(1);
                put_u64(out, tag);
            }
            None => {
                out.push(0);
                put_u64(out, 0);
            }
        }
        out.extend_from_slice(&self.stored.data);
        out.extend_from_slice(&self.stored.sideband);
    }

    /// Length in bytes of every [`Self::encode`] output.
    pub const ENCODED_LEN: usize = 8 + 1 + 8 + BLOCK_BYTES + 8;

    /// Decodes a state written by [`Self::encode`], advancing the reader.
    /// Only the canonical form is accepted: the MAC flag is 0 or 1, and
    /// an absent MAC's tag field is zero.
    ///
    /// # Errors
    ///
    /// `InvalidData` on truncation or a non-canonical MAC field.
    pub fn decode(r: &mut ByteReader<'_>) -> io::Result<Self> {
        let counter = r.u64()?;
        let has_mac = r.u8()?;
        let tag = r.u64()?;
        let mac = match (has_mac, tag) {
            (0, 0) => None,
            (1, tag) => Some(tag),
            (0, _) => return Err(invalid_data("tag present behind an absent-MAC flag")),
            (flag, _) => return Err(invalid_data(format!("MAC flag {flag} is not 0 or 1"))),
        };
        let data: [u8; BLOCK_BYTES] = r.array()?;
        let sideband: [u8; 8] = r.array()?;
        Ok(Self {
            stored: StoredBlock { data, sideband },
            counter,
            mac,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine(placement: MacPlacement, scheme: CounterSchemeKind) -> MemoryEncryptionEngine {
        MemoryEncryptionEngine::new(EngineConfig {
            mac_placement: placement,
            counter_scheme: scheme,
            ..EngineConfig::default()
        })
    }

    fn all_configs() -> Vec<MemoryEncryptionEngine> {
        let mut v = Vec::new();
        for p in [MacPlacement::MacInEcc, MacPlacement::SeparateMac] {
            for s in [
                CounterSchemeKind::Monolithic,
                CounterSchemeKind::Split,
                CounterSchemeKind::Delta,
                CounterSchemeKind::DualLength,
            ] {
                v.push(engine(p, s));
            }
        }
        v
    }

    #[test]
    fn roundtrip_all_configs() {
        for mut e in all_configs() {
            let mut pat = [0u8; 64];
            for (i, b) in pat.iter_mut().enumerate() {
                *b = i as u8;
            }
            e.write_block(0x1000, &pat);
            e.write_block(0x1040, &[9; 64]);
            assert_eq!(e.read_block(0x1000).unwrap(), pat, "{:?}", e.config());
            assert_eq!(e.read_block(0x1040).unwrap(), [9; 64]);
        }
    }

    #[test]
    fn unwritten_blocks_read_zero() {
        for mut e in all_configs() {
            assert_eq!(e.read_block(0x8000).unwrap(), [0u8; 64], "{:?}", e.config());
        }
    }

    #[test]
    fn overwrite_bumps_counter_and_changes_ciphertext() {
        let mut e = engine(MacPlacement::MacInEcc, CounterSchemeKind::Delta);
        e.write_block(0, &[1; 64]);
        let c1 = e.counter_of(0);
        let ct1 = e.snapshot_block(0).stored.data;
        e.write_block(0, &[1; 64]);
        let c2 = e.counter_of(0);
        let ct2 = e.snapshot_block(0).stored.data;
        assert!(c2 > c1);
        assert_ne!(
            ct1, ct2,
            "same plaintext, fresh counter => fresh ciphertext"
        );
        assert_eq!(e.read_block(0).unwrap(), [1; 64]);
    }

    #[test]
    fn single_data_flip_corrected_mac_in_ecc() {
        let mut e = engine(MacPlacement::MacInEcc, CounterSchemeKind::Delta);
        e.write_block(0x40, &[0xab; 64]);
        e.tamper_data_bit(0x40, 313);
        assert_eq!(e.read_block(0x40).unwrap(), [0xab; 64]);
        assert_eq!(e.stats().data_corrections, 1);
        // The block was scrubbed: the next read is clean.
        assert_eq!(e.read_block(0x40).unwrap(), [0xab; 64]);
        assert_eq!(e.stats().data_corrections, 1);
    }

    #[test]
    fn double_data_flip_same_word_corrected_mac_in_ecc() {
        // The case standard SEC-DED cannot handle (Figure 3).
        let mut e = engine(MacPlacement::MacInEcc, CounterSchemeKind::Delta);
        e.write_block(0x40, &[0x5a; 64]);
        e.tamper_data_bit(0x40, 8);
        e.tamper_data_bit(0x40, 9);
        assert_eq!(e.read_block(0x40).unwrap(), [0x5a; 64]);
        assert_eq!(e.stats().data_corrections, 1);
        assert!(e.stats().flip_checks > 512, "needed the double-flip search");
    }

    #[test]
    fn double_flip_same_word_uncorrectable_with_separate_mac() {
        let mut e = engine(MacPlacement::SeparateMac, CounterSchemeKind::Delta);
        e.write_block(0x40, &[0x5a; 64]);
        e.tamper_data_bit(0x40, 8);
        e.tamper_data_bit(0x40, 9);
        assert_eq!(e.read_block(0x40), Err(ReadError::EccUncorrectable));
    }

    #[test]
    fn scattered_flips_corrected_by_standard_ecc_not_by_mac() {
        // One flip in each of 3 words: standard ECC corrects all three;
        // MAC-based flip-and-check (budget 2) cannot.
        let mut sep = engine(MacPlacement::SeparateMac, CounterSchemeKind::Delta);
        sep.write_block(0, &[3; 64]);
        for w in 0..3 {
            sep.tamper_data_bit(0, w * 64 + 5);
        }
        assert_eq!(sep.read_block(0).unwrap(), [3; 64]);

        let mut mie = engine(MacPlacement::MacInEcc, CounterSchemeKind::Delta);
        mie.write_block(0, &[3; 64]);
        for w in 0..3 {
            mie.tamper_data_bit(0, w * 64 + 5);
        }
        assert_eq!(mie.read_block(0), Err(ReadError::IntegrityViolation));
    }

    #[test]
    fn mac_bit_flip_corrected_by_mac_parity() {
        let mut e = engine(MacPlacement::MacInEcc, CounterSchemeKind::Delta);
        e.write_block(0, &[1; 64]);
        e.tamper_sideband_bit(0, 20); // inside the 56-bit MAC field
        assert_eq!(e.read_block(0).unwrap(), [1; 64]);
        assert_eq!(e.stats().mac_corrections, 1);
        assert_eq!(e.stats().data_corrections, 0, "no bogus data correction");
    }

    #[test]
    fn double_mac_flip_detected() {
        let mut e = engine(MacPlacement::MacInEcc, CounterSchemeKind::Delta);
        e.write_block(0, &[1; 64]);
        e.tamper_sideband_bit(0, 20);
        e.tamper_sideband_bit(0, 41);
        assert_eq!(e.read_block(0), Err(ReadError::MacUncorrectable));
    }

    #[test]
    fn replay_attack_detected() {
        for scheme in [CounterSchemeKind::Delta, CounterSchemeKind::Monolithic] {
            let mut e = engine(MacPlacement::MacInEcc, scheme);
            e.write_block(0x100, &[1; 64]);
            let snap = e.snapshot_block(0x100);
            e.write_block(0x100, &[2; 64]);
            e.replay_block(&snap);
            let err = e.read_block(0x100).unwrap_err();
            assert!(matches!(err, ReadError::Tree(_)), "{scheme:?}: got {err:?}");
        }
    }

    #[test]
    fn spliced_block_rejected() {
        // Moving valid ciphertext to a different address fails its MAC
        // (address-bound tags).
        let mut e = engine(MacPlacement::MacInEcc, CounterSchemeKind::Delta);
        e.write_block(0x000, &[7; 64]);
        e.write_block(0x040, &[8; 64]);
        let a = e.snapshot_block(0x000);
        // Write block A's stored bits at address B. Counters of both
        // blocks are equal (1), so only the address binding can catch it.
        e.storage.write(0x040, a.stored);
        assert_eq!(e.read_block(0x040), Err(ReadError::IntegrityViolation));
    }

    #[test]
    fn group_reencryption_preserves_contents() {
        // 7-bit deltas overflow after 128 writes to one block; the whole
        // 64-block group re-encrypts and every resident block survives.
        let mut e = engine(MacPlacement::MacInEcc, CounterSchemeKind::Delta);
        for b in 0..10u64 {
            e.write_block(b * 64, &[b as u8 + 1; 64]);
        }
        for _ in 0..200 {
            e.write_block(0, &[0xEE; 64]);
        }
        assert!(e.counter_stats().reencryptions >= 1);
        assert!(e.stats().reencrypted_blocks >= 9);
        assert_eq!(e.read_block(0).unwrap(), [0xEE; 64]);
        for b in 1..10u64 {
            assert_eq!(
                e.read_block(b * 64).unwrap(),
                [b as u8 + 1; 64],
                "block {b}"
            );
        }
    }

    #[test]
    fn split_counter_reencryption_preserves_contents() {
        let mut e = engine(MacPlacement::MacInEcc, CounterSchemeKind::Split);
        e.write_block(64, &[0x11; 64]);
        for _ in 0..130 {
            e.write_block(0, &[0x22; 64]);
        }
        assert!(e.counter_stats().reencryptions >= 1);
        assert_eq!(e.read_block(64).unwrap(), [0x11; 64]);
        assert_eq!(e.read_block(0).unwrap(), [0x22; 64]);
    }

    #[test]
    fn correction_disabled_reports_violation() {
        let mut e = MemoryEncryptionEngine::new(EngineConfig {
            max_correctable_flips: 0,
            ..EngineConfig::default()
        });
        e.write_block(0, &[1; 64]);
        e.tamper_data_bit(0, 0);
        assert_eq!(e.read_block(0), Err(ReadError::IntegrityViolation));
        assert_eq!(e.stats().flip_checks, 0);
    }

    #[test]
    fn rekey_preserves_contents_and_invalidates_snapshots() {
        let mut e = engine(MacPlacement::MacInEcc, CounterSchemeKind::Delta);
        for b in 0..8u64 {
            e.write_block(b * 64, &[b as u8 + 1; 64]);
        }
        let old_ct = e.snapshot_block(0);
        e.rekey(0xfeed).unwrap();
        // Contents survive under the new keys.
        for b in 0..8u64 {
            assert_eq!(
                e.read_block(b * 64).unwrap(),
                [b as u8 + 1; 64],
                "block {b}"
            );
        }
        // Ciphertext changed (fresh keys), and replaying pre-rekey state
        // is rejected.
        assert_ne!(e.snapshot_block(0).stored_data(), old_ct.stored_data());
        e.replay_block(&old_ct);
        assert!(e.read_block(0).is_err());
    }

    #[test]
    fn rekey_refuses_corrupted_state() {
        let mut e = MemoryEncryptionEngine::new(EngineConfig {
            max_correctable_flips: 0,
            ..EngineConfig::default()
        });
        e.write_block(0, &[1; 64]);
        e.write_block(64, &[2; 64]);
        for bit in [0u32, 9, 100] {
            e.tamper_data_bit(64, bit);
        }
        assert!(
            e.rekey(0x1234).is_err(),
            "must not launder corrupted blocks"
        );
    }

    #[test]
    fn rekey_works_across_schemes() {
        for scheme in [CounterSchemeKind::Split, CounterSchemeKind::DualLength] {
            let mut e = engine(MacPlacement::SeparateMac, scheme);
            for _ in 0..150 {
                e.write_block(0, &[7; 64]); // through overflows
            }
            e.rekey(42).unwrap();
            assert_eq!(e.read_block(0).unwrap(), [7; 64], "{scheme:?}");
            assert_eq!(e.counter_of(0), 1, "fresh counters after rekey");
        }
    }

    #[test]
    fn counter_cache_serves_hot_counters() {
        let mut e = MemoryEncryptionEngine::new(EngineConfig {
            counter_cache_blocks: 8,
            ..EngineConfig::default()
        });
        e.write_block(0, &[1; 64]);
        for _ in 0..20 {
            let _ = e.read_block(0).unwrap();
        }
        let stats = e.counter_cache_stats().expect("cache enabled");
        assert!(stats.hits >= 20, "hot counter block must hit ({stats:?})");
        assert!(stats.hit_rate() > 0.9);
    }

    #[test]
    fn counter_cache_preserves_functional_behaviour() {
        // Same traffic with and without the cache: identical plaintext
        // results and identical counters.
        let plain_cfg = EngineConfig {
            counter_cache_blocks: 0,
            ..EngineConfig::default()
        };
        let cached_cfg = EngineConfig {
            counter_cache_blocks: 4,
            ..EngineConfig::default()
        };
        let mut a = MemoryEncryptionEngine::new(plain_cfg);
        let mut b = MemoryEncryptionEngine::new(cached_cfg);
        for i in 0..300u64 {
            let addr = (i % 20) * 64;
            let data = [(i % 255) as u8; 64];
            a.write_block(addr, &data);
            b.write_block(addr, &data);
            assert_eq!(a.read_block(addr).unwrap(), b.read_block(addr).unwrap());
            assert_eq!(a.counter_of(addr), b.counter_of(addr));
        }
    }

    #[test]
    fn counter_cache_shields_tampering_until_eviction() {
        // Cached counter metadata behaves like real hardware: an off-chip
        // tamper is invisible while the verified copy is on-chip.
        let mut e = MemoryEncryptionEngine::new(EngineConfig {
            counter_cache_blocks: 1,
            ..EngineConfig::default()
        });
        e.write_block(0, &[1; 64]);
        e.tree_mut().tamper_counter_block(0, |img| img[0] ^= 1);
        assert!(e.read_block(0).is_ok(), "cached copy still serves");
        // Touch a different counter group to evict the cached block
        // (group size 64 blocks -> block 64 is group 1).
        e.write_block(64 * 64, &[2; 64]);
        assert!(e.read_block(0).is_err(), "re-fetch catches the tamper");
    }

    #[test]
    fn engine_is_send() {
        // Shards hand whole engines (and the regions wrapping them) to
        // dedicated worker threads; a non-Send field sneaking in must
        // fail compilation, not a downstream crate.
        fn assert_send<T: Send>() {}
        assert_send::<MemoryEncryptionEngine>();
        assert_send::<crate::region::SecureRegion>();
        assert_send::<EngineConfig>();
    }

    #[test]
    fn shard_seeds_are_distinct_and_deterministic() {
        let base = EngineConfig::default();
        let mut seeds: Vec<u64> = (0..16).map(|s| base.for_shard(s).seed).collect();
        assert_eq!(base.for_shard(3).seed, seeds[3], "derivation is stable");
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 16, "no two shards share a seed");
        assert!(
            !seeds.contains(&base.seed),
            "shard seeds differ from the base"
        );
    }

    #[test]
    fn tenant_seeds_are_distinct_and_backward_compatible() {
        let base = EngineConfig::default();
        // Tenant 0 is bit-identical to the historical single-tenant
        // derivation: stores persisted before tenancy re-derive keys.
        for s in 0..8 {
            assert_eq!(base.for_tenant(0, s).seed, base.for_shard(s).seed);
        }
        // Every (tenant, shard) cell of a 8×8 grid gets its own seed.
        let mut seeds: Vec<u64> = (0..8)
            .flat_map(|t| (0..8).map(move |s| (t, s)))
            .map(|(t, s)| base.for_tenant(t, s).seed)
            .collect();
        assert_eq!(base.for_tenant(5, 3).seed, seeds[5 * 8 + 3], "stable");
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 64, "no two (tenant, shard) cells share a seed");
        assert!(!seeds.contains(&base.seed), "all differ from the base");
    }

    #[test]
    fn stats_accumulate() {
        let mut e = engine(MacPlacement::MacInEcc, CounterSchemeKind::Delta);
        e.write_block(0, &[1; 64]);
        let _ = e.read_block(0);
        let _ = e.read_block(64);
        assert_eq!(e.stats().writes, 1);
        assert_eq!(e.stats().reads, 2);
        assert_eq!(e.stats().failed_reads, 0);
    }

    #[test]
    fn write_blocks_matches_sequential_writes() {
        // The batched seal path must be behaviourally identical to one
        // write_block call per item — same counters, same readback — for
        // a batch with duplicate addresses and interleaved blocks.
        let mut batched = engine(MacPlacement::MacInEcc, CounterSchemeKind::Delta);
        let mut sequential = engine(MacPlacement::MacInEcc, CounterSchemeKind::Delta);
        let items: Vec<(u64, [u8; 64])> = (0..48u64)
            .map(|i| ((i % 12) * 64, [(i as u8).wrapping_mul(7); 64]))
            .collect();
        batched.write_blocks(&items);
        for &(addr, ref data) in &items {
            sequential.write_block(addr, data);
        }
        assert_eq!(batched.stats().writes, sequential.stats().writes);
        for b in 0..12u64 {
            let addr = b * 64;
            assert_eq!(batched.counter_of(addr), sequential.counter_of(addr));
            assert_eq!(
                batched.read_block(addr).unwrap(),
                sequential.read_block(addr).unwrap(),
                "block {b}"
            );
        }
    }

    #[test]
    fn write_blocks_survives_counter_overflow_mid_batch() {
        // Hammering a small set of same-group blocks far past the counter
        // wrap point forces group re-encryptions to land *inside* batches
        // with pending (not yet sealed) writes. Every block must still
        // verify afterwards — a stale-counter seal would poison the read.
        for scheme in [CounterSchemeKind::Delta, CounterSchemeKind::Split] {
            let mut e = engine(MacPlacement::MacInEcc, scheme);
            let mut last = std::collections::HashMap::new();
            for round in 0..200u64 {
                let items: Vec<(u64, [u8; 64])> = (0..16u64)
                    .map(|i| {
                        let addr = (i % 4) * 64;
                        let data = [(round as u8).wrapping_add(i as u8); 64];
                        last.insert(addr, data);
                        (addr, data)
                    })
                    .collect();
                e.write_blocks(&items);
            }
            assert!(
                e.counter_stats().reencryptions > 0,
                "{scheme:?}: the campaign must cross at least one overflow"
            );
            for (&addr, &data) in &last {
                assert_eq!(e.read_block(addr).unwrap(), data, "{scheme:?} addr {addr}");
            }
        }
    }

    #[test]
    fn read_blocks_matches_sequential_reads() {
        // The batched fast path must release the exact plaintext and
        // statistics a loop of read_block calls would — for every MAC
        // placement and counter scheme, including duplicate addresses.
        for mut e in all_configs() {
            let addrs: Vec<u64> = (0..24u64).map(|i| (i % 10) * 64).collect();
            for (i, &addr) in addrs.iter().enumerate() {
                e.write_block(addr, &[(i as u8).wrapping_mul(13); 64]);
            }
            let mut sequential = Vec::new();
            let mut scalar = engine(e.config().mac_placement, e.config().counter_scheme);
            for (i, &addr) in addrs.iter().enumerate() {
                scalar.write_block(addr, &[(i as u8).wrapping_mul(13); 64]);
            }
            for &addr in &addrs {
                sequential.push(scalar.read_block(addr).unwrap());
            }
            let run = e.read_blocks(&addrs);
            assert!(run.failed.is_none(), "{:?}", e.config());
            assert_eq!(run.blocks, sequential, "{:?}", e.config());
            assert_eq!(e.stats().reads, scalar.stats().reads);
            assert_eq!(e.stats().failed_reads, 0);
        }
    }

    #[test]
    fn read_blocks_amortizes_counter_fetches() {
        // A consecutive run inside one packed counter block costs exactly
        // one verified fetch; a run crossing the boundary costs two.
        for mut e in all_configs() {
            let per_meta = e.blocks_per_metadata_block() as u64;
            let within: Vec<u64> = (0..per_meta.min(8)).map(|b| b * 64).collect();
            for &addr in &within {
                e.write_block(addr, &[3; 64]);
            }
            let run = e.read_blocks(&within);
            assert!(run.failed.is_none());
            assert_eq!(run.counter_fetches, 1, "{:?}", e.config());

            // Two blocks straddling the metadata boundary.
            let straddle = [(per_meta - 1) * 64, per_meta * 64];
            for &addr in &straddle {
                e.write_block(addr, &[4; 64]);
            }
            let run = e.read_blocks(&straddle);
            assert!(run.failed.is_none());
            assert_eq!(run.counter_fetches, 2, "{:?}", e.config());
        }
    }

    #[test]
    fn read_blocks_with_uninitialized_block_falls_back() {
        // An untouched block mid-run must not be initialized ahead of its
        // neighbours' verification; the run falls back to the sequential
        // path and still reads zeros for it.
        let mut e = engine(MacPlacement::MacInEcc, CounterSchemeKind::Delta);
        e.write_block(0, &[1; 64]);
        e.write_block(128, &[2; 64]);
        let run = e.read_blocks(&[0, 64, 128]);
        assert!(run.failed.is_none());
        assert_eq!(run.blocks, vec![[1; 64], [0; 64], [2; 64]]);
        assert_eq!(run.counter_fetches, 3, "fallback fetches per block");
    }

    #[test]
    fn read_blocks_survives_group_reencryption() {
        // After counter-overflow re-encryptions the fused path must still
        // verify and decrypt the run correctly.
        let mut e = engine(MacPlacement::MacInEcc, CounterSchemeKind::Delta);
        for round in 0..200u64 {
            for b in 0..4u64 {
                e.write_block(b * 64, &[(round as u8).wrapping_add(b as u8); 64]);
            }
        }
        assert!(e.counter_stats().reencryptions > 0);
        let addrs: Vec<u64> = (0..4u64).map(|b| b * 64).collect();
        let run = e.read_blocks(&addrs);
        assert!(run.failed.is_none());
        assert_eq!(run.counter_fetches, 1);
        for (b, blk) in run.blocks.iter().enumerate() {
            assert_eq!(blk, &[199u8.wrapping_add(b as u8); 64]);
        }
    }

    #[test]
    fn read_blocks_tamper_attribution_matches_sequential() {
        // An unrecoverable corruption mid-run must fail at the same index
        // with the same error and stats as sequential reads, releasing
        // exactly the clean prefix.
        for bit_target in ["data", "sideband"] {
            let mk = || {
                let mut e = MemoryEncryptionEngine::new(EngineConfig {
                    max_correctable_flips: 0,
                    ..EngineConfig::default()
                });
                for b in 0..6u64 {
                    e.write_block(b * 64, &[b as u8 + 1; 64]);
                }
                match bit_target {
                    "data" => e.tamper_data_bit(3 * 64, 100),
                    _ => {
                        // Two side-band flips defeat the MAC's SEC-DED.
                        e.tamper_sideband_bit(3 * 64, 5);
                        e.tamper_sideband_bit(3 * 64, 40);
                    }
                }
                e
            };
            let addrs: Vec<u64> = (0..6u64).map(|b| b * 64).collect();
            let mut fused = mk();
            let run = fused.read_blocks(&addrs);
            let (idx, err) = run.failed.expect("tamper must be detected");
            assert_eq!(idx, 3, "{bit_target}");
            assert_eq!(run.blocks.len(), 3);

            let mut seq = mk();
            let mut seq_err = None;
            let mut seq_prefix = 0;
            for &addr in &addrs {
                match seq.read_block(addr) {
                    Ok(_) => seq_prefix += 1,
                    Err(e) => {
                        seq_err = Some(e);
                        break;
                    }
                }
            }
            assert_eq!(seq_prefix, 3, "{bit_target}");
            assert_eq!(format!("{err:?}"), format!("{:?}", seq_err.unwrap()));
            assert_eq!(fused.stats().reads, seq.stats().reads);
            assert_eq!(fused.stats().failed_reads, seq.stats().failed_reads);
        }
    }

    #[test]
    fn read_blocks_single_flip_corrected_via_fallback() {
        // A single-bit fault inside a fused run is corrected (and the
        // block scrubbed) exactly as a sequential read would — the batch
        // drops to the per-block path, which owns flip-and-check.
        let mut e = engine(MacPlacement::MacInEcc, CounterSchemeKind::Delta);
        for b in 0..4u64 {
            e.write_block(b * 64, &[0x5a; 64]);
        }
        e.tamper_data_bit(128, 77);
        let run = e.read_blocks(&[0, 64, 128, 192]);
        assert!(run.failed.is_none(), "single flip must be corrected");
        assert_eq!(run.blocks, vec![[0x5a; 64]; 4]);
        assert_eq!(e.stats().data_corrections, 1);
        // The scrub repaired storage: the next fused read is clean again.
        let run = e.read_blocks(&[0, 64, 128, 192]);
        assert!(run.failed.is_none());
        assert_eq!(run.counter_fetches, 1, "post-scrub run takes the fast path");
    }

    #[test]
    fn prefetch_on_off_is_functionally_identical() {
        // The prefetching fast path only reschedules counter fetches; the
        // released plaintext, stats, and fetch counts must be identical.
        for prefetch in [false, true] {
            let mut e = MemoryEncryptionEngine::new(EngineConfig {
                prefetch_counters: prefetch,
                ..EngineConfig::default()
            });
            let addrs: Vec<u64> = (0..96u64).map(|i| (i % 80) * 64).collect();
            for (i, &addr) in addrs.iter().enumerate() {
                e.write_block(addr, &[(i as u8).wrapping_mul(11); 64]);
            }
            let run = e.read_blocks(&addrs);
            assert!(run.failed.is_none(), "prefetch={prefetch}");
            // 80 distinct blocks span two 64-block metadata groups.
            assert_eq!(run.counter_fetches, 2, "prefetch={prefetch}");
            let again = e.read_blocks(&addrs);
            assert_eq!(run.blocks, again.blocks);
        }
    }

    #[test]
    fn freeze_thaw_roundtrip_preserves_everything() {
        for mut e in all_configs() {
            for b in 0..20u64 {
                e.write_block(b * 64, &[b as u8 + 1; 64]);
            }
            for _ in 0..140 {
                e.write_block(0, &[0xCC; 64]); // through overflows
            }
            let mut img = Vec::new();
            e.freeze_into(&mut img);
            let mut back = MemoryEncryptionEngine::thaw_from(&mut ByteReader::new(&img))
                .unwrap_or_else(|err| panic!("{:?}: {err}", e.config()));
            assert_eq!(back.config(), e.config());
            assert_eq!(back.counter_stats(), e.counter_stats());
            let verified = back.verify_all().unwrap();
            assert_eq!(verified, 20, "{:?}", e.config());
            assert_eq!(back.read_block(0).unwrap(), [0xCC; 64]);
            for b in 1..20u64 {
                assert_eq!(back.read_block(b * 64).unwrap(), [b as u8 + 1; 64]);
            }
        }
    }

    #[test]
    fn thaw_rejects_flipped_bit_anywhere() {
        // Enumerated, not sampled: every bit of a small region image.
        let mut region = crate::region::SecureRegion::new(EngineConfig::default(), 4096);
        for b in 0..4u64 {
            region.write_bytes(b * 64, &[b as u8; 64]).unwrap();
        }
        let img = region.freeze();
        assert!(img.len() <= 4096, "small enough to enumerate");
        assert!(crate::region::SecureRegion::thaw(&img).is_ok());
        for bit in 0..img.len() * 8 {
            let mut bad = img.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            let err = crate::region::SecureRegion::thaw(&bad)
                .expect_err("a flipped image bit must be detected");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "bit {bit}");
        }
    }

    #[test]
    fn thaw_refuses_forged_mac_region_tables() {
        // The MAC-region table ends the image. Forge it behind a
        // recomputed CRC: a huge count over no entries, a repeated block,
        // two blocks out of order.
        let mut e = engine(MacPlacement::SeparateMac, CounterSchemeKind::Delta);
        e.write_block(0, &[1; 64]);
        e.write_block(64, &[2; 64]);
        let mut img = Vec::new();
        e.freeze_into(&mut img);
        let payload = &img[ame_persist::SECTION_OVERHEAD - 8..img.len() - 8];
        let (kept, table) = payload.split_at(payload.len() - 8 - 2 * 16);
        let (first, second) = (&table[8..24], &table[24..40]);
        let reseal = |parts: &[&[u8]]| {
            let mut out = Vec::new();
            let mut section = SectionWriter::begin(
                &mut out,
                MemoryEncryptionEngine::MAGIC,
                MemoryEncryptionEngine::VERSION,
            );
            section.extend_from_slice(kept);
            for part in parts {
                section.extend_from_slice(part);
            }
            section.finish();
            out
        };
        assert_eq!(reseal(&[table]), img, "the table ends the image");
        let (huge, two) = ((1u64 << 40).to_le_bytes(), 2u64.to_le_bytes());
        for forged in [
            reseal(&[&huge]),
            reseal(&[&two, first, first]),
            reseal(&[&two, second, first]),
        ] {
            let err = MemoryEncryptionEngine::thaw_from(&mut ByteReader::new(&forged))
                .expect_err("a forged MAC-region table must be refused");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        }
    }

    #[test]
    fn export_apply_sealed_replays_a_write() {
        for placement in [MacPlacement::MacInEcc, MacPlacement::SeparateMac] {
            // "Crash" an engine after a write by freezing *before* it,
            // then replay the exported sealed state onto the thawed image.
            let mut e = engine(placement, CounterSchemeKind::Delta);
            e.write_block(0, &[1; 64]);
            e.write_block(64, &[2; 64]);
            let mut img = Vec::new();
            e.freeze_into(&mut img);
            e.write_block(64, &[9; 64]); // the logged post-image
            let sealed = e.export_sealed(64);
            let mut enc = Vec::new();
            sealed.encode(&mut enc);
            let decoded = SealedBlockState::decode(&mut ByteReader::new(&enc)).unwrap();
            assert_eq!(decoded, sealed, "sealed state round-trips");

            let mut back = MemoryEncryptionEngine::thaw_from(&mut ByteReader::new(&img)).unwrap();
            back.apply_sealed_run(&[(64, decoded)]).unwrap();
            back.verify_all().unwrap();
            assert_eq!(back.read_block(64).unwrap(), [9; 64], "{placement:?}");
            assert_eq!(back.read_block(0).unwrap(), [1; 64]);
            assert_eq!(back.counter_of(64), e.counter_of(64));
        }
    }

    #[test]
    fn apply_sealed_forged_record_fails_verification() {
        // A log record with a flipped ciphertext bit installs fine (the
        // engine can't know yet) but the MAC catches it on verify.
        let mut e = MemoryEncryptionEngine::new(EngineConfig {
            max_correctable_flips: 0,
            ..EngineConfig::default()
        });
        e.write_block(0, &[7; 64]);
        let sealed = e.export_sealed(0);
        let mut enc = Vec::new();
        sealed.encode(&mut enc);
        enc[30] ^= 0x80; // inside the ciphertext
        let forged = SealedBlockState::decode(&mut ByteReader::new(&enc)).unwrap();
        let mut fresh = MemoryEncryptionEngine::new(EngineConfig {
            max_correctable_flips: 0,
            ..EngineConfig::default()
        });
        fresh.apply_sealed_run(&[(0, forged)]).unwrap();
        assert!(fresh.verify_all().is_err(), "forged bits must not verify");
    }
}
