//! The baseline: one full-width counter per 64-byte block (Intel SGX uses
//! 56-bit counters, incurring ~11% storage overhead — Section 2.1).

use crate::{codec, CounterScheme, CounterStats, WriteOutcome};
use ame_persist::{
    invalid_data, put_sorted_table, put_u64, read_index_table, ByteReader, IndexMap,
};
use std::io;

/// Full-width per-block counters. Never re-encrypts: a 56-bit counter
/// would take millennia to overflow at realistic write rates.
///
/// # Example
///
/// ```
/// use ame_counters::{CounterScheme, monolithic::MonolithicCounters};
///
/// let mut ctrs = MonolithicCounters::new(56);
/// for _ in 0..1000 {
///     ctrs.record_write(3);
/// }
/// assert_eq!(ctrs.counter(3), 1000);
/// assert_eq!(ctrs.stats().reencryptions, 0);
/// ```
#[derive(Debug, Clone)]
pub struct MonolithicCounters {
    counters: IndexMap<u64>,
    bits: u32,
    stats: CounterStats,
}

impl MonolithicCounters {
    /// Creates a scheme with `bits`-wide counters (56 or 64 in practice).
    ///
    /// # Panics
    ///
    /// Panics if `bits` is zero or greater than 64.
    #[must_use]
    pub fn new(bits: u32) -> Self {
        assert!(bits > 0 && bits <= 64, "counter width must be 1..=64 bits");
        Self {
            counters: IndexMap::default(),
            bits,
            stats: CounterStats::default(),
        }
    }

    /// Width of each counter in bits.
    #[must_use]
    pub fn bits(&self) -> u32 {
        self.bits
    }

    fn max(&self) -> u64 {
        if self.bits == 64 {
            u64::MAX
        } else {
            (1u64 << self.bits) - 1
        }
    }
}

impl Default for MonolithicCounters {
    /// The SGX configuration: 56-bit counters.
    fn default() -> Self {
        Self::new(56)
    }
}

impl CounterScheme for MonolithicCounters {
    fn counter(&self, block: u64) -> u64 {
        self.counters.get(&block).copied().unwrap_or(0)
    }

    fn record_write(&mut self, block: u64) -> WriteOutcome {
        let max = self.max();
        let ctr = self.counters.entry(block).or_insert(0);
        let outcome = if *ctr == max {
            // A real machine would re-key; model it as a single-block
            // re-encryption. Unreachable in any realistic simulation.
            let old = *ctr;
            *ctr = 0;
            WriteOutcome::Reencrypted {
                group: block,
                old_counters: vec![old],
                new_counter: 0,
            }
        } else {
            *ctr += 1;
            WriteOutcome::Incremented
        };
        self.stats.record(&outcome);
        outcome
    }

    fn bits_per_block(&self) -> f64 {
        f64::from(self.bits)
    }

    fn blocks_per_group(&self) -> usize {
        1
    }

    fn stats(&self) -> CounterStats {
        self.stats
    }

    fn name(&self) -> &'static str {
        "monolithic"
    }

    fn blocks_per_metadata_block(&self) -> usize {
        // Eight 8-byte counter slots per 64-byte metadata block.
        8
    }

    fn metadata_block_image(&self, meta_block: u64) -> [u8; 64] {
        let mut image = [0u8; 64];
        for slot in 0..8u64 {
            let ctr = self.counter(meta_block * 8 + slot);
            image[(slot as usize) * 8..(slot as usize + 1) * 8].copy_from_slice(&ctr.to_le_bytes());
        }
        image
    }

    fn encode_state(&self, out: &mut Vec<u8>) {
        let mut body = codec::begin_state(out, self.name(), &self.bits.to_le_bytes());
        codec::put_stats(&mut body, &self.stats);
        put_sorted_table(&mut body, self.counters.keys().copied(), |body, block| {
            put_u64(body, self.counters[&block]);
        });
        body.finish();
    }

    fn encoded_state_len(&self) -> usize {
        codec::state_len(self.name(), 4 + 8 + self.counters.len() * 16)
    }

    fn decode_state(&mut self, r: &mut ByteReader<'_>) -> io::Result<()> {
        let mut body = codec::read_state(r, self.name(), &self.bits.to_le_bytes())?;
        let stats = codec::read_stats(&mut body)?;
        let max = self.max();
        let counters = read_index_table(&mut body, 16, |body| {
            let ctr = body.u64()?;
            if ctr > max {
                return Err(invalid_data("counter exceeds configured width"));
            }
            Ok(ctr)
        })?;
        self.stats = stats;
        self.counters = counters;
        Ok(())
    }

    fn force_counter(&mut self, block: u64, value: u64) -> io::Result<()> {
        if value > self.max() {
            return Err(invalid_data("replayed counter exceeds counter width"));
        }
        self.counters.insert(block, value);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_independently_per_block() {
        let mut c = MonolithicCounters::default();
        c.record_write(0);
        c.record_write(0);
        c.record_write(1);
        assert_eq!(c.counter(0), 2);
        assert_eq!(c.counter(1), 1);
        assert_eq!(c.counter(2), 0);
    }

    #[test]
    fn storage_cost() {
        assert_eq!(MonolithicCounters::new(56).bits_per_block(), 56.0);
        assert_eq!(MonolithicCounters::new(64).bits_per_block(), 64.0);
    }

    #[test]
    fn tiny_counter_wraps_with_reencryption() {
        let mut c = MonolithicCounters::new(2);
        for _ in 0..3 {
            assert_eq!(c.record_write(5), WriteOutcome::Incremented);
        }
        let outcome = c.record_write(5);
        assert!(outcome.is_reencryption());
        assert_eq!(c.counter(5), 0);
        assert_eq!(c.stats().reencryptions, 1);
    }

    #[test]
    #[should_panic(expected = "counter width")]
    fn zero_width_panics() {
        let _ = MonolithicCounters::new(0);
    }

    #[test]
    fn name_and_group() {
        let c = MonolithicCounters::default();
        assert_eq!(c.name(), "monolithic");
        assert_eq!(c.blocks_per_group(), 1);
    }

    #[test]
    fn decode_refuses_forged_counter_tables() {
        let mut c = MonolithicCounters::default();
        c.record_write(1);
        c.record_write(6);
        let mut image = Vec::new();
        c.encode_state(&mut image);
        crate::tests::assert_forged_tables_refused(&image, 2, 16, |r| {
            MonolithicCounters::default().decode_state(r)
        });
    }

    #[test]
    fn state_roundtrip_and_force() {
        let mut c = MonolithicCounters::new(16);
        for b in 0..10u64 {
            for _ in 0..=b {
                c.record_write(b);
            }
        }
        let mut buf = Vec::new();
        c.encode_state(&mut buf);
        assert_eq!(buf.len(), c.encoded_state_len());
        let err = MonolithicCounters::default()
            .decode_state(&mut ByteReader::new(&buf))
            .unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "another width");
        let mut back = MonolithicCounters::new(16);
        back.decode_state(&mut ByteReader::new(&buf)).unwrap();
        assert_eq!(back.stats(), c.stats());
        for b in 0..12u64 {
            assert_eq!(back.counter(b), c.counter(b));
        }
        back.force_counter(3, 777).unwrap();
        assert_eq!(back.counter(3), 777);
        assert!(back.force_counter(3, 1 << 20).is_err(), "exceeds 16 bits");
    }
}
