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
//!   *flip-and-check* procedure of Section 3.4 ([`correction`]). It is
//!   the one door to protected memory, in 64-byte blocks only: a store
//!   shard drives it directly, keeps its region's bound itself, and
//!   makes sub-block stores verified read-modify-writes. [`region`] is
//!   the engine's durable format: the `AMEREGN` image of an engine
//!   together with that bound, and the sealed block state a write-intent
//!   log records.
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

pub use region::{SealedBlockState, SealedReplay};

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
use ame_persist::IndexMap;
use ame_tree::cache::CachedTree;
use ame_tree::merkle::{BonsaiTree, VerifyError};

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
    /// every counter fetch walks the tree. A multiple of 8 is organised
    /// 8-way set-associative (Table 1), any other capacity as one fully
    /// associative set; LRU within a set. With a cache, reads served
    /// from the verified on-chip copy skip the walk — and off-chip
    /// tampering of a cached block is only caught once the copy is
    /// evicted, exactly like real hardware.
    ///
    /// At most [`ame_tree::cache::MAX_CAPACITY`] (65 536 blocks, 128× the
    /// paper's 512-line cache): [`MemoryEncryptionEngine::new`] asserts
    /// it. A frozen image never sizes the cache: thaw builds the
    /// configured one and refuses an image that names any other.
    pub counter_cache_blocks: usize,
    /// Fetch a fused read run's counter blocks in ascending order. The
    /// batched read path always collects the *distinct* metadata blocks
    /// a run touches and issues every verified fetch before the first
    /// MAC check, whatever this flag says; with it set, those fetches
    /// are sorted by metadata block, without it they go in the order the
    /// run first touches each block. Functionally identical either way.
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
    /// Verified block reads served. A group re-encryption opening a
    /// block to re-seal it is not a read.
    pub reads: u64,
    /// Block writes.
    pub writes: u64,
    /// Blocks re-sealed under a fresh counter by a counter-group
    /// overflow's re-encryption. Each was first opened — verified, and
    /// corrected if need be — under its old counter; a block that did
    /// not open is left as stored and not counted.
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

/// The whole functional engine reports as one scope: its own event
/// counters at the root, the counter scheme under `counters/`, its two
/// ciphers' work under `crypto/data/` (keystreams and tags) and
/// `crypto/tree/` (tags), the metadata cache (when configured) under
/// `metadata_cache/`, and the flip-and-check cost distribution as
/// `flip_check_distribution`. Re-keying starts the `counters/` and the
/// `crypto/` counts over: both belong to the state it replaces.
impl ame_telemetry::Metrics for MemoryEncryptionEngine {
    fn record(&self, sink: &mut dyn ame_telemetry::MetricSink) {
        ame_telemetry::Metrics::record(&self.stats, sink);
        let counters = self.counter_stats();
        sink.counter("counters/writes", counters.writes);
        sink.counter("counters/resets", counters.resets);
        sink.counter("counters/reencodes", counters.reencodes);
        sink.counter("counters/expansions", counters.expansions);
        sink.counter("counters/reencryptions", counters.reencryptions);
        let (data, tree) = (self.cipher.ops(), self.tree.tree().cipher().ops());
        sink.counter("crypto/data/keystream_calls", data.keystream_calls);
        sink.counter("crypto/data/mac_tags", data.mac_tags);
        sink.counter("crypto/tree/mac_tags", tree.mac_tags);
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
    /// The integrity tree behind the on-chip counter cache (a
    /// zero-capacity cache when `counter_cache_blocks` is 0).
    tree: CachedTree,
    storage: DramStorage,
    /// Data blocks per packed counter block, read off the scheme once:
    /// the metadata block of data block `b` is `b / blocks_per_meta`.
    blocks_per_meta: u64,
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

/// The stored blocks of a run, read and side-band-decoded by
/// [`MemoryEncryptionEngine::load_run`], index-aligned with its
/// addresses.
struct LoadedRun {
    /// Ciphertext of each block.
    blocks: Vec<[u8; BLOCK_BYTES]>,
    /// Stored tag of each block.
    tags: Vec<u64>,
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
    ///
    /// # Panics
    ///
    /// Panics if `config.counter_cache_blocks` exceeds
    /// [`ame_tree::cache::MAX_CAPACITY`].
    #[must_use]
    pub fn new(config: EngineConfig) -> Self {
        let counters = config.counter_scheme.build();
        Self {
            config,
            cipher: MemoryCipher::from_seed(config.seed),
            blocks_per_meta: counters.blocks_per_metadata_block() as u64,
            counters,
            tree: Self::empty_tree(&config),
            storage: DramStorage::new(),
            mac_region: IndexMap::default(),
            stats: EngineStats::default(),
            flip_check_dist: ame_telemetry::Histogram::new(),
            mac_batch_dist: ame_telemetry::Histogram::new(),
        }
    }

    /// The integrity tree's own cipher: keyed from the engine seed, but
    /// never sharing the data cipher's keys.
    fn tree_cipher(seed: u64) -> MemoryCipher {
        MemoryCipher::from_seed(seed ^ 0x7ee)
    }

    /// The empty integrity tree `config` describes, behind its counter
    /// cache: what [`Self::new`] and [`Self::rekey`] start from
    /// ([`Self::thaw_from`] decodes the image's tree into one).
    fn empty_tree(config: &EngineConfig) -> CachedTree {
        CachedTree::new(
            BonsaiTree::new(Self::tree_cipher(config.seed), config.tree_levels, 8),
            config.counter_cache_blocks,
        )
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

    /// The metadata block holding data block `block`'s counter.
    fn meta_of(&self, block: u64) -> u64 {
        block / self.blocks_per_meta
    }

    /// Encrypt + MAC + store one plaintext block under `counter`: the
    /// scalar seal of a single-block write or a first touch.
    fn seal(&mut self, addr: u64, counter: u64, plain: &[u8; BLOCK_BYTES]) {
        let ct = self.cipher.encrypt_block(addr, counter, plain);
        let tag = self.cipher.mac_block(addr, counter, &ct);
        self.store_sealed([(addr, ct, tag)]);
    }

    /// The one encoder of sealed bits: stores each `(addr, ciphertext,
    /// tag)` with its tag in the configured placement — in the ECC
    /// side-band (Figure 2), or in the MAC region beside a standard
    /// SEC-DED side-band — encoding each side-band in the same pass that
    /// writes its DRAM page, and visiting each page once per stretch of
    /// consecutive same-page blocks. Seals, run seals and scrub-backs of
    /// corrected blocks all store through it.
    fn store_sealed(&mut self, sealed: impl IntoIterator<Item = (u64, [u8; BLOCK_BYTES], u64)>) {
        let (placement, mac_region) = (self.config.mac_placement, &mut self.mac_region);
        self.storage
            .write_run(sealed.into_iter().map(|(addr, ct, tag)| {
                let sideband = match placement {
                    MacPlacement::MacInEcc => MacSideband::new(tag, &ct).to_bytes(),
                    MacPlacement::SeparateMac => {
                        mac_region.insert(Self::block_index(addr), tag);
                        StandardSideband::encode(&ct).to_bytes()
                    }
                };
                (addr, StoredBlock { data: ct, sideband })
            }));
    }

    /// The batched sealer: encrypts the plaintext `blocks` under
    /// `nonces` in place with one [`MemoryCipher::xor_keystream`], tags
    /// the run with one [`MemoryCipher::tags_into`] and stores it through
    /// [`Self::store_sealed`]. Stats and tree syncs are the caller's.
    fn seal_run(&mut self, nonces: &[(u64, u64)], mut blocks: Vec<[u8; BLOCK_BYTES]>) {
        if nonces.is_empty() {
            return;
        }
        self.cipher.xor_keystream(nonces, &mut blocks);
        let mut tags = vec![0; blocks.len()];
        self.cipher.tags_into(nonces, &blocks, &mut tags);
        self.mac_batch_dist.record(blocks.len() as u64);
        self.store_sealed(
            nonces
                .iter()
                .zip(blocks)
                .zip(tags)
                .map(|((&(addr, _), ct), tag)| (addr, ct, tag)),
        );
    }

    /// Reads the stored blocks at `addrs` for [`Self::open_run`],
    /// decoding each side-band in the same pass (one page visit per
    /// stretch of same-page blocks): each block's ciphertext and stored
    /// tag, or `None` if a block was never written or its side-band does
    /// not decode clean. It reads storage only, so a read run meets such
    /// a block before it fetches a counter.
    fn load_run(&self, addrs: impl ExactSizeIterator<Item = u64>) -> Option<LoadedRun> {
        let mut blocks = Vec::with_capacity(addrs.len());
        let mut tags = Vec::with_capacity(addrs.len());
        let (placement, mac_region) = (self.config.mac_placement, &self.mac_region);
        self.storage.visit_run(addrs, |addr, stored| {
            let stored = stored?;
            let (ct, tag) = match placement {
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
                    let block = Self::block_index(addr);
                    let tag = mac_region.get(&block).copied().unwrap_or(0);
                    (decoded.corrected_block()?, tag)
                }
            };
            blocks.push(ct);
            tags.push(tag);
            Some(())
        })?;
        Some(LoadedRun { blocks, tags })
    }

    /// The batched verified opener: checks every block of a
    /// [`Self::load_run`] against its `(addr, counter)` nonce with one
    /// [`MemoryCipher::tags_into`], then decrypts the run in its own
    /// buffer with one [`MemoryCipher::xor_keystream`].
    ///
    /// Verify-before-release: only blocks whose side-band decoded clean
    /// were loaded, and every tag is checked before anything is
    /// decrypted. On any anomaly — a block never written, a correctable
    /// or uncorrectable side-band condition (both refused by the load),
    /// a tag mismatch — no [`EngineStats`] and no storage are mutated
    /// (the MAC batch-size histogram still records a tagged attempt);
    /// the caller then opens block by block through [`Self::open_block`],
    /// which owns correction, scrubbing and failure attribution.
    fn open_run(
        &mut self,
        nonces: &[(u64, u64)],
        run: LoadedRun,
    ) -> Option<Vec<[u8; BLOCK_BYTES]>> {
        let LoadedRun { mut blocks, tags } = run;
        let mut computed = vec![0; blocks.len()];
        self.cipher.tags_into(nonces, &blocks, &mut computed);
        self.mac_batch_dist.record(computed.len() as u64);
        if computed
            .iter()
            .zip(&tags)
            .any(|(&got, &tag)| got != tag & ame_crypto::TAG_MASK)
        {
            return None;
        }
        self.cipher.xor_keystream(nonces, &mut blocks);
        Some(blocks)
    }

    /// The per-block verified opener, and the fallback of
    /// [`Self::open_run`]: verifies the block under `counter`, corrects
    /// what the placement can correct (MAC parity and flip-and-check, or
    /// SEC-DED) and scrubs the corrected bits back. It counts
    /// corrections and flip checks; whether the open was a served read
    /// is the caller's to count.
    fn open_block(
        &mut self,
        addr: u64,
        counter: u64,
        stored: StoredBlock,
    ) -> Result<[u8; BLOCK_BYTES], ReadError> {
        match self.config.mac_placement {
            MacPlacement::MacInEcc => self.read_mac_in_ecc(addr, counter, stored),
            MacPlacement::SeparateMac => self.read_separate_mac(addr, counter, stored),
        }
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
        let meta = self.meta_of(block);
        if !synced.contains(&meta) {
            synced.push(meta);
            self.sync_meta(meta);
        }
        self.storage.read(addr)
    }

    /// Mirrors the (updated) packed counter block `meta` into the
    /// integrity tree.
    fn sync_meta(&mut self, meta: u64) {
        let image = self.counters.metadata_block_image(meta);
        self.tree.write_counter_block(meta, image);
    }

    /// Mirrors each distinct metadata block of `blocks` into the
    /// integrity tree, once, in ascending order. A leaf image is a pure
    /// function of the current counter state and a path update a pure
    /// function of the stored images, so once every counter of a run has
    /// been bumped, one sync per metadata block leaves the tree
    /// bit-identical to one sync per data block — at one leaf-to-root
    /// re-MAC instead of (for a delta group) sixty-four.
    fn sync_tree_metas(&mut self, blocks: &[u64]) {
        let mut metas = self.distinct_metas(blocks);
        metas.sort_unstable();
        for meta in metas {
            self.sync_meta(meta);
        }
    }

    /// The distinct metadata blocks of `blocks`, each where it first
    /// appears.
    fn distinct_metas(&self, blocks: &[u64]) -> Vec<u64> {
        let mut metas = Vec::new();
        for &block in blocks {
            let meta = self.meta_of(block);
            if !metas.contains(&meta) {
                metas.push(meta);
            }
        }
        metas
    }

    /// Re-encrypts every *resident* block of an overflowed group under the
    /// fresh counter (Section 4.2: read-decrypt-encrypt-write).
    ///
    /// The group's blocks are opened under their old counters the way a
    /// read opens them: one [`Self::open_run`] over the group, or, on any
    /// anomaly, [`Self::open_block`] per block, so a fault within the
    /// budget is corrected as on a read. Every block that opened is
    /// sealed under `new_counter` in one [`Self::seal_run`]. A block that
    /// does not open is left as stored: its tag fails under the new
    /// counter too, so every later read reports it.
    fn reencrypt_group(&mut self, group: u64, old_counters: &[u64], new_counter: u64) {
        let bpg = self.counters.blocks_per_group() as u64;
        // Never-touched blocks stay zero; they will be sealed under the
        // new counter on first use.
        let nonces: Vec<(u64, u64)> = old_counters
            .iter()
            .enumerate()
            .map(|(i, &old)| (Self::block_addr(group * bpg + i as u64), old))
            .filter(|&(addr, _)| self.storage.contains(addr))
            .collect();
        if nonces.is_empty() {
            return;
        }
        let opened = self
            .load_run(nonces.iter().map(|&(addr, _)| addr))
            .and_then(|run| self.open_run(&nonces, run));
        let (resealed, plains): (Vec<(u64, u64)>, Vec<[u8; BLOCK_BYTES]>) = match opened {
            Some(plains) => (
                nonces
                    .iter()
                    .map(|&(addr, _)| (addr, new_counter))
                    .collect(),
                plains,
            ),
            None => nonces
                .iter()
                .filter_map(|&(addr, old)| {
                    let stored = self.storage.read(addr);
                    let plain = self.open_block(addr, old, stored).ok()?;
                    Some(((addr, new_counter), plain))
                })
                .unzip(),
        };
        self.seal_run(&resealed, plains);
        self.stats.reencrypted_blocks += resealed.len() as u64;
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
        let mut counter = [0];
        if let (
            _,
            Some(WriteOutcome::Reencrypted {
                group,
                old_counters,
                new_counter,
            }),
        ) = self.counters.record_writes(&[block], &mut counter)
        {
            self.reencrypt_group(group, &old_counters, new_counter);
        }
        self.seal(addr, counter[0], plain);
        self.sync_meta(self.meta_of(block));
        self.stats.writes += 1;
    }

    /// Writes a batch of block-aligned full-block stores, behaviourally
    /// identical to calling [`Self::write_block`] once per item in order
    /// (duplicate addresses included: each store bumps the counter, the
    /// last one survives), but sealing every overflow-free run in its own
    /// buffer with one [`MemoryCipher::xor_keystream`] and one
    /// [`MemoryCipher::tags_into`] call instead of a per-block AES
    /// invocation and tag. A batch of one item is [`Self::write_block`].
    ///
    /// The counters are bumped through the scheme's run form, which
    /// visits each counter group once per stretch of consecutive
    /// same-group items and hands back each item's new counter; the seal
    /// visits each DRAM page once per stretch of same-page items. A
    /// group-counter overflow inside the batch seals the pending run
    /// first (its captured counters must hit storage before the group
    /// re-encryption rewrites those blocks), through the same batched
    /// seal as the rest of the batch.
    ///
    /// # Panics
    ///
    /// Panics if any address is not 64-byte aligned or not below
    /// [`ADDR_LIMIT`]; it then changes nothing.
    pub fn write_blocks(&mut self, items: &[(u64, [u8; BLOCK_BYTES])]) {
        // A run of one is the scalar write, as a read run of one is the
        // scalar read: on one block the batch plumbing costs more than
        // it saves.
        if let [(addr, plain)] = items {
            return self.write_block(*addr, plain);
        }
        let blocks: Vec<u64> = items
            .iter()
            .map(|&(addr, _)| {
                Self::check_addr(addr);
                Self::block_index(addr)
            })
            .collect();
        let mut counters = vec![0; items.len()];
        // Items `start..next` are bumped and wait to be sealed.
        let (mut start, mut next) = (0, 0);
        while next < items.len() {
            let (recorded, overflow) = self
                .counters
                .record_writes(&blocks[next..], &mut counters[next..]);
            next += recorded;
            if let Some(WriteOutcome::Reencrypted {
                group,
                old_counters,
                new_counter,
            }) = overflow
            {
                // Item `next - 1` overflowed its group, which reset the
                // group's counters, and the upcoming re-encryption opens
                // storage assuming every resident block is sealed under
                // `old_counters`. Pending items may be in that group, so
                // commit them under their captured counters *now* (those
                // captured values are the `old_counters` the
                // re-encryption will use); the overflowing item, already
                // under the fresh counter, starts the next run.
                self.seal_write_run(items, &blocks, &counters, start..next - 1);
                start = next - 1;
                self.reencrypt_group(group, &old_counters, new_counter);
            }
        }
        self.seal_write_run(items, &blocks, &counters, start..items.len());
    }

    /// Seals `items[range]` of [`Self::write_blocks`] under their bumped
    /// `counters` through [`Self::seal_run`], and syncs the tree once per
    /// metadata block of their `blocks`: every counter of the run was
    /// bumped before the first seal, so per-block syncs would all write
    /// the same images.
    fn seal_write_run(
        &mut self,
        items: &[(u64, [u8; BLOCK_BYTES])],
        blocks: &[u64],
        counters: &[u64],
        range: std::ops::Range<usize>,
    ) {
        let items = &items[range.clone()];
        let nonces: Vec<(u64, u64)> = items
            .iter()
            .zip(&counters[range.clone()])
            .map(|(&(addr, _), &counter)| (addr, counter))
            .collect();
        self.seal_run(&nonces, items.iter().map(|&(_, plain)| plain).collect());
        self.stats.writes += items.len() as u64;
        self.sync_tree_metas(&blocks[range]);
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

        // 1. Fetch + verify the counter through the Bonsai Merkle tree,
        // 2. then open the block under it.
        let meta = self.meta_of(block);
        let opened = match self.tree.read_counter_block(meta) {
            Ok(verified_image) => {
                // The engine's counter state must match the verified
                // off-chip image (it always does unless this code is
                // buggy).
                debug_assert_eq!(verified_image, self.counters.metadata_block_image(meta));
                self.open_block(addr, self.counters.counter(block), stored)
            }
            Err(e) => Err(ReadError::Tree(e)),
        };
        if opened.is_ok() {
            self.stats.reads += 1;
        } else {
            self.stats.failed_reads += 1;
        }
        opened
    }

    /// Reads and verifies a run of block-aligned addresses as one unit,
    /// behaviourally identical to calling [`Self::read_block`] once per
    /// address in order and stopping at the first error — but on the fast
    /// path the run costs one verified counter-block fetch per *distinct*
    /// metadata block it touches (instead of one per block), one counter
    /// group visit and one DRAM page visit per stretch of consecutive
    /// blocks sharing them, one [`MemoryCipher::tags_into`] for all
    /// verifies and one in-place [`MemoryCipher::xor_keystream`] for all
    /// decrypts.
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
        // Every block must already be sealed: the load refuses a missing
        // one rather than initializing it, since a first touch syncs its
        // (shared) counter leaf back to the tree — and that must not
        // happen before neighbouring blocks are verified, or it could
        // launder a tampered off-chip leaf that the sequential path would
        // have caught. The load reads storage only, so a run it refuses
        // (a missing block, a side-band error) costs no counter fetch.
        let loaded = self.load_run(addrs.iter().copied())?;
        let blocks: Vec<u64> = addrs.iter().map(|&addr| Self::block_index(addr)).collect();

        // One verified tree fetch per distinct metadata block in the run.
        let mut metas = self.distinct_metas(&blocks);
        if self.config.prefetch_counters {
            // Both settings fetch every distinct metadata block here,
            // before the first MAC check; the flag only sorts the
            // fetches into address order.
            metas.sort_unstable();
        }
        for &meta in &metas {
            let verified_image = self.tree.read_counter_block(meta).ok()?;
            debug_assert_eq!(verified_image, self.counters.metadata_block_image(meta));
        }
        let mut counters = vec![0; addrs.len()];
        self.counters.counters(&blocks, &mut counters);
        let nonces: Vec<(u64, u64)> = addrs.iter().copied().zip(counters).collect();

        // Any anomaly abandons the batch with nothing mutated, so the
        // sequential fallback re-derives attribution, flip-and-check
        // correction, and quarantine bit-identically.
        let plains = self.open_run(&nonces, loaded)?;
        self.stats.reads += addrs.len() as u64;
        Some(ReadRun {
            blocks: plains,
            failed: None,
            counter_fetches: metas.len() as u64,
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
                self.store_sealed([(addr, stored.data, tag)]);
            }
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
            self.store_sealed([(addr, fixed, tag)]);
            self.stats.data_corrections += 1;
            return Ok(self.cipher.decrypt_block(addr, counter, &fixed));
        }
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
            return Err(ReadError::EccUncorrectable);
        };
        let block = Self::block_index(addr);
        let tag = self.mac_region.get(&block).copied().unwrap_or(0);
        if decoded.any_error() {
            self.stats.data_corrections += 1;
            // Scrub the corrected data back.
            self.store_sealed([(addr, ct, tag)]);
        }
        if self.cipher.verify_block(addr, counter, &ct, tag) {
            Ok(self.cipher.decrypt_block(addr, counter, &ct))
        } else {
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
        let meta = self.meta_of(block);
        BlockSnapshot {
            addr,
            stored: self.storage.read(addr),
            meta_leaf: Some(self.tree.tree_mut().snapshot_leaf(meta)),
            mac_entry: self.mac_region.get(&block).copied(),
        }
    }

    /// Replays a snapshot: restores the stored block, the separate MAC (if
    /// any), the counter metadata block and its stored leaf MAC — every
    /// bit an attacker with physical DRAM access can restore. The on-chip
    /// tree root is out of reach, so a stale replay is detected.
    pub fn replay_block(&mut self, snapshot: &BlockSnapshot) {
        let block = Self::block_index(snapshot.addr);
        let meta = self.meta_of(block);
        self.storage.write(snapshot.addr, snapshot.stored);
        if let Some(tag) = snapshot.mac_entry {
            self.mac_region.insert(block, tag);
        }
        if let Some(leaf) = snapshot.meta_leaf {
            self.tree.tree_mut().replay_leaf(meta, leaf);
        }
    }

    /// Direct access to the integrity tree (for tampering experiments).
    pub fn tree_mut(&mut self) -> &mut BonsaiTree {
        self.tree.tree_mut()
    }

    /// Counter-cache hit/miss statistics, if the cache is enabled.
    #[must_use]
    pub fn counter_cache_stats(&self) -> Option<ame_tree::cache::CounterCacheStats> {
        (self.config.counter_cache_blocks > 0).then(|| self.tree.stats())
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
    /// It is [`Self::read_blocks`] followed by [`Self::write_blocks`]:
    /// every resident block is read and verified first, in address-order
    /// runs of 64 (a faulty run falls back to per-block reads, so
    /// correctable faults are corrected), and only then are the keys
    /// swapped and the plaintext written back, a run at a time.
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
        // 1. Read and verify everything under the current keys, a run
        // at a time.
        let addrs = self.resident_addrs();
        let mut plain = Vec::with_capacity(addrs.len());
        for run in addrs.chunks(Self::VERIFY_RUN) {
            let ReadRun { blocks, failed, .. } = self.read_blocks(run);
            if let Some((_, e)) = failed {
                return Err(e);
            }
            plain.extend(run.iter().copied().zip(blocks));
        }
        // 2. Swap in fresh key material and empty metadata.
        self.config.seed = new_seed;
        self.cipher = MemoryCipher::from_seed(new_seed);
        self.tree = Self::empty_tree(&self.config);
        self.counters = self.config.counter_scheme.build();
        self.storage = DramStorage::new();
        self.mac_region.clear();
        // 3. Seal the contents back under the new keys, a run at a time.
        for run in plain.chunks(Self::VERIFY_RUN) {
            self.write_blocks(run);
        }
        Ok(())
    }

    /// Block-aligned addresses currently resident in storage, ascending.
    fn resident_addrs(&self) -> Vec<u64> {
        self.storage.addrs().collect()
    }

    // ---- durable storage plane (its codec is in `region.rs`) ----

    /// Reads and verifies every resident block (tree walk + MAC check),
    /// returning how many blocks were verified. Recovery calls this
    /// before a thawed engine serves a single request.
    ///
    /// The sweep reads the resident blocks in address order, in runs of
    /// 64 (one delta group) through [`Self::read_blocks`]: a clean run
    /// costs one verified counter fetch per metadata block and one MAC
    /// batch. A run with any anomaly falls back to per-block reads, so a
    /// correctable fault is corrected and the first error is the one a
    /// block-by-block sweep would have met, at the same lowest address.
    ///
    /// # Errors
    ///
    /// The first [`ReadError`] encountered; the caller must treat the
    /// engine as compromised (quarantine, not serve).
    pub fn verify_all(&mut self) -> Result<u64, ReadError> {
        let addrs = self.resident_addrs();
        for run in addrs.chunks(Self::VERIFY_RUN) {
            if let Some((_, e)) = self.read_blocks(run).failed {
                return Err(e);
            }
        }
        Ok(addrs.len() as u64)
    }

    /// Resident blocks [`Self::verify_all`] reads per run.
    const VERIFY_RUN: usize = 64;
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn engine(
        placement: MacPlacement,
        scheme: CounterSchemeKind,
    ) -> MemoryEncryptionEngine {
        MemoryEncryptionEngine::new(EngineConfig {
            mac_placement: placement,
            counter_scheme: scheme,
            ..EngineConfig::default()
        })
    }

    pub(crate) fn all_configs() -> Vec<MemoryEncryptionEngine> {
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
        // The crypto counts start over with the keys: the new data
        // cipher has sealed the eight blocks once each.
        assert_eq!(e.cipher.ops().keystream_calls, 8);
        assert_eq!(e.cipher.ops().mac_tags, 8);
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

        // 100 resident blocks, the uncorrectable one in the second
        // 64-block read run: the first run verified clean, yet nothing
        // is re-keyed and every other block still reads back.
        let mut e = engine(MacPlacement::MacInEcc, CounterSchemeKind::Delta);
        for b in 0..100u64 {
            e.write_block(b * 64, &[b as u8; 64]);
        }
        for bit in [0u32, 70, 140] {
            e.tamper_data_bit(80 * 64, bit);
        }
        let seed = e.config().seed;
        assert_eq!(e.rekey(0x1234), Err(ReadError::IntegrityViolation));
        assert_eq!(e.config().seed, seed, "the keys are unchanged");
        for b in (0..100u64).filter(|&b| b != 80) {
            assert_eq!(e.read_block(b * 64).unwrap(), [b as u8; 64], "block {b}");
        }
        assert!(e.read_block(80 * 64).is_err());

        // A correctable fault is corrected on the way through: the
        // block's contents survive under the new keys.
        let mut e = engine(MacPlacement::MacInEcc, CounterSchemeKind::Delta);
        for b in 0..100u64 {
            e.write_block(b * 64, &[b as u8; 64]);
        }
        e.tamper_data_bit(80 * 64, 9);
        assert_eq!(e.rekey(0x1234), Ok(()));
        assert_eq!(e.config().seed, 0x1234);
        assert_eq!(e.stats().data_corrections, 1);
        for b in 0..100u64 {
            assert_eq!(e.read_block(b * 64).unwrap(), [b as u8; 64], "block {b}");
        }
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
        // Shards hand whole engines to dedicated worker threads; a
        // non-Send field sneaking in must fail compilation, not a
        // downstream crate.
        fn assert_send<T: Send>() {}
        assert_send::<MemoryEncryptionEngine>();
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
}
