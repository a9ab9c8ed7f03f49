//! Seeded inputs: the op schedule, the payload function and the model
//! the outputs are checked against.
//!
//! Everything here is a pure function of `--seed`; the program under
//! test only ever sees the generated addresses and payloads. The PRNG is
//! the harness's own (SplitMix64) so a change to `ame-prng` can never
//! change the workloads.

/// Bytes per protected block.
pub const BLOCK: u64 = 64;
/// Blocks per batched engine call on the streaming workload.
pub const CHUNK: u64 = 64;

/// SplitMix64.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The 64 bytes version `version` of block `block` holds under `seed`.
/// Version 0 is never written: set-up prefills every block at version 1.
#[must_use]
pub fn payload(seed: u64, block: u64, version: u32) -> [u8; 64] {
    let mut rng = Rng(seed ^ mix(block ^ (u64::from(version) << 40)));
    let mut out = [0u8; 64];
    for word in out.chunks_exact_mut(8) {
        word.copy_from_slice(&rng.next_u64().to_le_bytes());
    }
    out
}

/// What the program's outputs are checked against: one `u32` version per
/// block of a contiguous range, every block starting at version 1.
#[derive(Debug, Clone)]
pub struct Model {
    seed: u64,
    base: u64,
    versions: Vec<u32>,
}

impl Model {
    fn new(seed: u64, base: u64, blocks: u64) -> Self {
        Self {
            seed,
            base,
            versions: vec![1; blocks as usize],
        }
    }

    /// Bumps `block`'s version and returns the payload to write.
    pub fn write_payload(&mut self, block: u64) -> [u8; 64] {
        let v = &mut self.versions[(block - self.base) as usize];
        *v = v.wrapping_add(1);
        payload(self.seed, block, *v)
    }

    /// The payload a read of `block` submitted now must return.
    #[must_use]
    pub fn expected(&self, block: u64) -> [u8; 64] {
        payload(
            self.seed,
            block,
            self.versions[(block - self.base) as usize],
        )
    }

    /// The payload set-up writes into `block` (version 1).
    #[must_use]
    pub fn initial(&self, block: u64) -> [u8; 64] {
        payload(self.seed, block, 1)
    }

    /// Test hook behind `--corrupt-model`: bumps one version so the next
    /// full read-back must report a mismatch.
    pub fn corrupt_one(&mut self) {
        self.versions[0] = self.versions[0].wrapping_add(1);
    }
}

/// One scheduled operation on a single block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    /// Global block index.
    pub block: u64,
    /// `true` for a write, `false` for a verified read.
    pub write: bool,
}

/// One connection's (or the single thread's) share of a workload: a
/// contiguous range of blocks, the uniform-random op stream over it and
/// the [`Model`] reads are checked against.
///
/// Ranges of different partitions are disjoint, so the expected value of
/// every read is known at submit time even when several connections run
/// concurrently: operations of one connection on one block reach the
/// same shard queue in submission order.
#[derive(Debug, Clone)]
pub struct Partition {
    rng: Rng,
    base: u64,
    blocks: u64,
    /// A write is drawn when the low 16 random bits are below this.
    write_threshold: u64,
    /// Expected contents of the range.
    pub model: Model,
}

impl Partition {
    /// Partition `index` of `of` equal parts of a `footprint_blocks`
    /// footprint, drawing `write_percent` % writes.
    #[must_use]
    pub fn new(seed: u64, index: u64, of: u64, footprint_blocks: u64, write_percent: u64) -> Self {
        let blocks = footprint_blocks / of;
        Self {
            rng: Rng::new(mix(seed ^ (index + 1).wrapping_mul(0xd1b5_4a32_d192_ed03))),
            base: index * blocks,
            blocks,
            write_threshold: write_percent * 65_536 / 100,
            model: Model::new(seed, index * blocks, blocks),
        }
    }

    /// First block of the range.
    #[must_use]
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Blocks in the range.
    #[must_use]
    pub fn blocks(&self) -> u64 {
        self.blocks
    }

    /// The next scheduled op.
    pub fn next_op(&mut self) -> Op {
        let r = self.rng.next_u64();
        Op {
            block: self.base + (((r >> 32) * self.blocks) >> 32),
            write: (r & 0xffff) < self.write_threshold,
        }
    }
}

/// The streaming schedule: chunks of [`CHUNK`] consecutive blocks,
/// visited in address order from a seed-chosen start, each written and
/// then read back before moving on.
#[derive(Debug, Clone)]
pub struct Stream {
    chunks: u64,
    cursor: u64,
    read_next: bool,
    /// Expected contents of the footprint.
    pub model: Model,
}

/// One batched call of the streaming schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkOp {
    /// First block of the chunk.
    pub first_block: u64,
    /// `true` for `write_blocks`, `false` for `read_blocks`.
    pub write: bool,
}

impl Stream {
    /// A stream over `footprint_blocks` (a multiple of [`CHUNK`]).
    #[must_use]
    pub fn new(seed: u64, footprint_blocks: u64) -> Self {
        let chunks = footprint_blocks / CHUNK;
        Self {
            chunks,
            cursor: mix(seed) % chunks,
            read_next: false,
            model: Model::new(seed, 0, footprint_blocks),
        }
    }

    /// Blocks in the footprint.
    #[must_use]
    pub fn blocks(&self) -> u64 {
        self.chunks * CHUNK
    }

    /// The next scheduled call.
    pub fn next_op(&mut self) -> ChunkOp {
        let op = ChunkOp {
            first_block: self.cursor * CHUNK,
            write: !self.read_next,
        };
        if self.read_next {
            self.cursor = (self.cursor + 1) % self.chunks;
        }
        self.read_next = !self.read_next;
        op
    }
}
