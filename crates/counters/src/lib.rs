//! Per-block encryption-counter schemes (the heart of Section 4 of the
//! paper).
//!
//! Counter-mode memory encryption needs a monotonically increasing write
//! counter per 64-byte block. How those counters are *stored* determines
//! both the metadata footprint and how often whole block-groups must be
//! re-encrypted:
//!
//! * [`monolithic::MonolithicCounters`] — a full 56-bit counter per block
//!   (the SGX baseline): ~11% storage overhead, never re-encrypts.
//! * [`split::SplitCounters`] — Yan et al.'s split counters: a shared
//!   64-bit major counter per block-group plus a 7-bit minor per block.
//!   Compact, but every minor overflow forces a group re-encryption.
//! * [`delta::DeltaCounters`] — the paper's frame-of-reference delta
//!   encoding: a 56-bit reference per group plus a small delta per block,
//!   with two overflow-avoidance tricks — *delta reset* (Figure 5b) and
//!   *re-encoding by minimum subtraction* (Figure 5c).
//! * [`dual::DualLengthDeltaCounters`] — the constrained variable-length
//!   variant (Figure 6): 6-bit deltas in four delta-groups, with 72 shared
//!   overflow bits that can widen exactly one group's deltas by 4 bits.
//!
//! The two delta schemes are one scheme over two line layouts: the same
//! increment, run forms, state codec and log replay, configured by
//! [`delta::DeltaConfig`] or [`dual::DualLengthConfig`].
//!
//! All schemes implement [`CounterScheme`], so the encryption engine and
//! the Table 2 experiment swap them freely.
//!
//! # Example
//!
//! ```
//! use ame_counters::{CounterScheme, delta::DeltaCounters};
//!
//! let mut ctrs = DeltaCounters::default();
//! assert_eq!(ctrs.counter(17), 0);
//! ctrs.record_write(17);
//! assert_eq!(ctrs.counter(17), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod delta;
mod deltas;
pub mod dual;
pub mod monolithic;
pub mod packing;
pub mod split;
pub mod storage;

use std::fmt;
use std::io;

/// Shared framing for serialized counter-scheme state: one checksummed
/// section whose payload starts with the scheme name and its layout (its
/// configuration, as the scheme encodes it), so thawing with another
/// scheme or another layout configured fails loudly instead of misparsing.
pub(crate) mod codec {
    use super::CounterStats;
    use ame_persist::{invalid_data, put_u64, read_section, ByteReader, SectionWriter};
    use std::io;

    pub(crate) const MAGIC: &[u8; 8] = b"AMECTRS\0";
    pub(crate) const VERSION: u32 = 1;

    /// Opens the state section at the end of `out` with the scheme's
    /// name and `layout`; the scheme appends its body through the
    /// returned writer and `finish`es it.
    pub(crate) fn begin_state<'a>(
        out: &'a mut Vec<u8>,
        name: &str,
        layout: &[u8],
    ) -> SectionWriter<'a> {
        let mut payload = SectionWriter::begin(out, MAGIC, VERSION);
        payload.push(name.len() as u8);
        payload.extend_from_slice(name.as_bytes());
        payload.extend_from_slice(layout);
        payload
    }

    /// Length of a state section whose scheme-specific body (layout
    /// included) is `body` bytes besides the statistics.
    pub(crate) fn state_len(name: &str, body: usize) -> usize {
        ame_persist::SECTION_OVERHEAD + 1 + name.len() + 5 * 8 + body
    }

    /// Opens a section [`begin_state`] wrote, positioned after the
    /// layout: its scheme name and its layout must be the reader's own,
    /// byte for byte, so nothing is sized from a layout in the image.
    pub(crate) fn read_state<'a>(
        r: &mut ByteReader<'a>,
        name: &str,
        layout: &[u8],
    ) -> io::Result<ByteReader<'a>> {
        let mut payload = read_section(r, MAGIC, VERSION)?;
        let n = payload.u8()? as usize;
        let found = payload.take(n)?;
        if found != name.as_bytes() {
            return Err(invalid_data(format!(
                "counter scheme mismatch: state is '{}', configured '{name}'",
                String::from_utf8_lossy(found)
            )));
        }
        let stored = payload.take(layout.len())?;
        if stored != layout {
            return Err(invalid_data(format!(
                "{name} counter layout {stored:02x?} is not the configured {layout:02x?}"
            )));
        }
        Ok(payload)
    }

    pub(crate) fn put_stats(out: &mut Vec<u8>, stats: &CounterStats) {
        put_u64(out, stats.writes);
        put_u64(out, stats.resets);
        put_u64(out, stats.reencodes);
        put_u64(out, stats.expansions);
        put_u64(out, stats.reencryptions);
    }

    pub(crate) fn read_stats(r: &mut ByteReader<'_>) -> io::Result<CounterStats> {
        Ok(CounterStats {
            writes: r.u64()?,
            resets: r.u64()?,
            reencodes: r.u64()?,
            expansions: r.u64()?,
            reencryptions: r.u64()?,
        })
    }
}

/// What a counter increment did to the block-group holding the counter.
///
/// The engine uses this to account for re-encryption traffic; `Reencrypted`
/// carries everything needed to re-encrypt the group's data blocks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WriteOutcome {
    /// The delta/counter was bumped in place; nothing else happened.
    Incremented,
    /// All deltas in the group had converged to one value and were folded
    /// into the reference (Figure 5b). Counter *values* are unchanged — no
    /// re-encryption.
    Reset,
    /// The group's deltas were re-encoded by subtracting the minimum delta
    /// (Figure 5c). Counter *values* are unchanged — no re-encryption.
    Reencoded,
    /// (Dual-length only.) The overflowing delta-group was widened using
    /// the reserved overflow bits (Figure 6). No re-encryption.
    Expanded,
    /// The whole block-group overflowed and must be re-encrypted with the
    /// new reference counter.
    Reencrypted {
        /// Index of the affected block-group.
        group: u64,
        /// Counter value of every block *before* the re-encryption, in
        /// block order within the group (needed to decrypt old contents).
        old_counters: Vec<u64>,
        /// The single fresh counter value now shared by every block in the
        /// group (the largest counter in the group, per Section 4.2).
        new_counter: u64,
    },
}

impl WriteOutcome {
    /// Returns `true` if this write forced a block-group re-encryption.
    #[must_use]
    pub fn is_reencryption(&self) -> bool {
        matches!(self, WriteOutcome::Reencrypted { .. })
    }
}

/// Running statistics for one counter scheme instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CounterStats {
    /// Total counter increments (block writes).
    pub writes: u64,
    /// Delta resets performed (Figure 5b).
    pub resets: u64,
    /// Re-encodings performed (Figure 5c).
    pub reencodes: u64,
    /// Delta-group expansions performed (dual-length only, Figure 6).
    pub expansions: u64,
    /// Block-group re-encryptions forced by counter overflow.
    pub reencryptions: u64,
}

impl CounterStats {
    /// Records an outcome into the statistics.
    pub fn record(&mut self, outcome: &WriteOutcome) {
        self.writes += 1;
        match outcome {
            WriteOutcome::Incremented => {}
            WriteOutcome::Reset => self.resets += 1,
            WriteOutcome::Reencoded => self.reencodes += 1,
            WriteOutcome::Expanded => self.expansions += 1,
            WriteOutcome::Reencrypted { .. } => self.reencryptions += 1,
        }
    }
}

impl fmt::Display for CounterStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "writes={} resets={} reencodes={} expansions={} reencryptions={}",
            self.writes, self.resets, self.reencodes, self.expansions, self.reencryptions
        )
    }
}

impl ame_telemetry::Metrics for CounterStats {
    fn record(&self, sink: &mut dyn ame_telemetry::MetricSink) {
        sink.counter("writes", self.writes);
        sink.counter("resets", self.resets);
        sink.counter("reencodes", self.reencodes);
        sink.counter("expansions", self.expansions);
        sink.counter("reencryptions", self.reencryptions);
    }
}

/// A per-block write-counter storage scheme.
///
/// Blocks are identified by a global block index (`physical address /
/// 64`). Groups are allocated lazily, so a scheme can stand in for an
/// arbitrarily large protected region.
pub trait CounterScheme: Send {
    /// Current counter value of `block` (zero if never written).
    fn counter(&self, block: u64) -> u64;

    /// Records a write to `block`: increments its counter, applying the
    /// scheme's overflow-avoidance machinery. Returns what happened.
    fn record_write(&mut self, block: u64) -> WriteOutcome;

    /// The run form of [`CounterScheme::record_write`]: records writes to
    /// `blocks` in order, exactly as one `record_write` per block would,
    /// and stores each written block's new counter at the same index of
    /// `counters`. It stops after the first write that re-encrypts its
    /// group (that write's counter is stored too, the group's fresh one)
    /// and returns how many writes it recorded with that re-encryption,
    /// or `blocks.len()` and `None`.
    ///
    /// The delta schemes look a group up once per stretch of consecutive
    /// blocks in it; the default is the per-block loop.
    ///
    /// # Panics
    ///
    /// Panics if `counters` is shorter than `blocks`.
    fn record_writes(
        &mut self,
        blocks: &[u64],
        counters: &mut [u64],
    ) -> (usize, Option<WriteOutcome>) {
        let counters = &mut counters[..blocks.len()];
        for (k, &block) in blocks.iter().enumerate() {
            let outcome = self.record_write(block);
            counters[k] = self.counter(block);
            if outcome.is_reencryption() {
                return (k + 1, Some(outcome));
            }
        }
        (blocks.len(), None)
    }

    /// The run form of [`CounterScheme::counter`]: stores the counter of
    /// each of `blocks` at the same index of `counters`.
    ///
    /// # Panics
    ///
    /// Panics if `counters` is shorter than `blocks`.
    fn counters(&self, blocks: &[u64], counters: &mut [u64]) {
        for (counter, &block) in counters[..blocks.len()].iter_mut().zip(blocks) {
            *counter = self.counter(block);
        }
    }

    /// Counter storage cost in bits per 64-byte data block (amortized).
    fn bits_per_block(&self) -> f64;

    /// Number of data blocks sharing one counter group (1 for monolithic).
    fn blocks_per_group(&self) -> usize;

    /// Accumulated statistics.
    fn stats(&self) -> CounterStats;

    /// Short human-readable scheme name for experiment tables.
    fn name(&self) -> &'static str;

    /// Number of data blocks whose counters are packed into one 64-byte
    /// *metadata block* (the unit fetched from DRAM and authenticated by
    /// the integrity tree).
    fn blocks_per_metadata_block(&self) -> usize;

    /// The packed 64-byte image of metadata block `meta_block` (counters
    /// for data blocks `meta_block * blocks_per_metadata_block ..`).
    /// This is exactly what sits in off-chip counter storage.
    fn metadata_block_image(&self, meta_block: u64) -> [u8; 64];

    /// Metadata block index covering data block `block`.
    fn metadata_block_of(&self, block: u64) -> u64 {
        block / self.blocks_per_metadata_block() as u64
    }

    /// Serializes the scheme's complete internal state (configuration,
    /// statistics, every lazily allocated group) into a checksummed
    /// section appended to `out`.
    fn encode_state(&self, out: &mut Vec<u8>);

    /// Exact length in bytes of what [`CounterScheme::encode_state`]
    /// appends, so a caller can reserve an image's buffer once.
    fn encoded_state_len(&self) -> usize;

    /// Restores state captured by [`CounterScheme::encode_state`],
    /// replacing this instance's state and advancing the reader past the
    /// section. The configuration stays this instance's: the section's
    /// layout must be the one this instance would write.
    ///
    /// # Errors
    ///
    /// `InvalidData` on a framing/checksum failure, a scheme-name or
    /// layout mismatch, or internally inconsistent decoded state.
    fn decode_state(&mut self, r: &mut ame_persist::ByteReader<'_>) -> io::Result<()>;

    /// Forces `block`'s counter to `value` (write-intent log replay).
    ///
    /// Counter *values* are restored exactly; the representation (e.g. a
    /// delta group's reference) is re-derived canonically, which is sound
    /// because data MACs bind counter values, not their encoding. Because
    /// the log rotates into a snapshot at every group re-encryption, any
    /// value a log records was representable alongside its group when it
    /// was written — so a representability failure here is evidence of a
    /// corrupt or forged log.
    ///
    /// # Errors
    ///
    /// `InvalidData` if `value` cannot be represented in the group's
    /// current state.
    fn force_counter(&mut self, block: u64, value: u64) -> io::Result<()>;
}

/// Divides a global block index into (group index, index within group).
#[must_use]
pub fn split_block(block: u64, blocks_per_group: usize) -> (u64, usize) {
    let bpg = blocks_per_group as u64;
    (block / bpg, (block % bpg) as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ame_persist::{ByteReader, SectionWriter};

    /// Re-seals a counter-state `image` with its trailing table (`count`
    /// entries of `entry` bytes, `count >= 2`) replaced by forgeries the
    /// CRC cannot catch — a huge count over no entries, the first entry
    /// twice, the first two swapped — and checks that `decode` refuses
    /// each with `InvalidData`.
    pub(crate) fn assert_forged_tables_refused(
        image: &[u8],
        count: usize,
        entry: usize,
        decode: impl Fn(&mut ByteReader<'_>) -> io::Result<()>,
    ) {
        let payload = &image[ame_persist::SECTION_OVERHEAD - 8..image.len() - 8];
        let (kept, table) = payload.split_at(payload.len() - 8 - count * entry);
        let (first, second) = (&table[8..8 + entry], &table[8 + entry..8 + 2 * entry]);
        let reseal = |parts: &[&[u8]]| {
            let mut out = Vec::new();
            let mut section = SectionWriter::begin(&mut out, codec::MAGIC, codec::VERSION);
            section.extend_from_slice(kept);
            for part in parts {
                section.extend_from_slice(part);
            }
            section.finish();
            out
        };
        assert_eq!(reseal(&[table]), image, "the table ends the section");
        let (huge, two) = ((1u64 << 40).to_le_bytes(), 2u64.to_le_bytes());
        for forged in [
            reseal(&[&huge]),
            reseal(&[&two, first, first]),
            reseal(&[&two, second, first]),
        ] {
            let err = decode(&mut ByteReader::new(&forged)).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        }
    }

    #[test]
    fn stats_record_all_variants() {
        let mut s = CounterStats::default();
        s.record(&WriteOutcome::Incremented);
        s.record(&WriteOutcome::Reset);
        s.record(&WriteOutcome::Reencoded);
        s.record(&WriteOutcome::Expanded);
        s.record(&WriteOutcome::Reencrypted {
            group: 0,
            old_counters: vec![],
            new_counter: 1,
        });
        assert_eq!(s.writes, 5);
        assert_eq!(s.resets, 1);
        assert_eq!(s.reencodes, 1);
        assert_eq!(s.expansions, 1);
        assert_eq!(s.reencryptions, 1);
    }

    #[test]
    fn split_block_math() {
        assert_eq!(split_block(0, 64), (0, 0));
        assert_eq!(split_block(63, 64), (0, 63));
        assert_eq!(split_block(64, 64), (1, 0));
        assert_eq!(split_block(130, 64), (2, 2));
    }

    #[test]
    fn display_stats() {
        let s = CounterStats {
            writes: 3,
            ..Default::default()
        };
        assert!(s.to_string().contains("writes=3"));
    }
}
