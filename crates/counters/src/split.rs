//! Split counters (Yan et al., ISCA 2006) — the prior compact scheme the
//! paper compares against in Table 2.
//!
//! Each block-group shares a 64-bit *major* counter `M`; each block keeps a
//! small *minor* counter `m` (typically 7 bits). A block's full counter is
//! the concatenation `M || m`. When any minor counter overflows, the whole
//! group is re-encrypted under `M + 1` and all minors reset to zero.
//!
//! Unlike delta encoding, the minor counters are positional digits rather
//! than offsets, so neither the *reset* nor the *re-encode* optimization is
//! applicable — that structural difference is exactly what Table 2
//! measures.

use crate::{codec, split_block, CounterScheme, CounterStats, WriteOutcome};
use ame_persist::{invalid_data, put_u32, put_u64, read_index_table, ByteReader, IndexMap};
use std::collections::hash_map::Entry;
use std::io;

/// Per-group split-counter state.
#[derive(Debug, Clone)]
struct Group {
    major: u64,
    minors: Vec<u64>,
}

/// Split-counter scheme: shared major counter + per-block minor counters.
///
/// # Example
///
/// ```
/// use ame_counters::{CounterScheme, split::SplitCounters};
///
/// let mut ctrs = SplitCounters::default(); // 7-bit minors, 64-block groups
/// for _ in 0..128 {
///     ctrs.record_write(0);
/// }
/// // The 128th write overflows the 7-bit minor: group re-encrypted.
/// assert_eq!(ctrs.stats().reencryptions, 1);
/// ```
#[derive(Debug, Clone)]
pub struct SplitCounters {
    groups: IndexMap<Group>,
    minor_bits: u32,
    blocks_per_group: usize,
    stats: CounterStats,
}

impl SplitCounters {
    /// Creates a split-counter scheme.
    ///
    /// # Panics
    ///
    /// Panics if `minor_bits` is 0 or >= 32, `blocks_per_group` is 0, or
    /// the 64-bit major and the minors do not fit one 64-byte metadata
    /// block.
    #[must_use]
    pub fn new(minor_bits: u32, blocks_per_group: usize) -> Self {
        assert!(
            minor_bits > 0 && minor_bits < 32,
            "minor width must be 1..32 bits"
        );
        assert!(blocks_per_group > 0, "group must hold at least one block");
        let bits = 64 + u64::from(minor_bits).saturating_mul(blocks_per_group as u64);
        assert!(
            bits <= 512,
            "split-counter group does not fit one metadata block ({bits} bits)"
        );
        Self {
            groups: IndexMap::default(),
            minor_bits,
            blocks_per_group,
            stats: CounterStats::default(),
        }
    }

    /// The configuration as a state section records it.
    fn layout(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_u32(&mut out, self.minor_bits);
        put_u64(&mut out, self.blocks_per_group as u64);
        out
    }

    fn minor_max(&self) -> u64 {
        (1u64 << self.minor_bits) - 1
    }

    fn full_counter(&self, major: u64, minor: u64) -> u64 {
        (major << self.minor_bits) | minor
    }
}

impl Default for SplitCounters {
    /// The configuration evaluated in the paper: 7-bit minors, 4 KB
    /// (64-block) groups.
    fn default() -> Self {
        Self::new(7, 64)
    }
}

impl CounterScheme for SplitCounters {
    fn counter(&self, block: u64) -> u64 {
        let (g, i) = split_block(block, self.blocks_per_group);
        match self.groups.get(&g) {
            Some(grp) => self.full_counter(grp.major, grp.minors[i]),
            None => 0,
        }
    }

    fn record_write(&mut self, block: u64) -> WriteOutcome {
        let (g, i) = split_block(block, self.blocks_per_group);
        let bpg = self.blocks_per_group;
        let minor_max = self.minor_max();
        let minor_bits = self.minor_bits;
        let grp = self.groups.entry(g).or_insert_with(|| Group {
            major: 0,
            minors: vec![0; bpg],
        });

        let outcome = if grp.minors[i] == minor_max {
            // Minor overflow: re-encrypt the group under major + 1.
            let old_counters: Vec<u64> = grp
                .minors
                .iter()
                .map(|&m| (grp.major << minor_bits) | m)
                .collect();
            grp.major += 1;
            grp.minors.iter_mut().for_each(|m| *m = 0);
            let new_counter = grp.major << minor_bits;
            WriteOutcome::Reencrypted {
                group: g,
                old_counters,
                new_counter,
            }
        } else {
            grp.minors[i] += 1;
            WriteOutcome::Incremented
        };
        self.stats.record(&outcome);
        outcome
    }

    fn bits_per_block(&self) -> f64 {
        f64::from(self.minor_bits) + 64.0 / self.blocks_per_group as f64
    }

    fn blocks_per_group(&self) -> usize {
        self.blocks_per_group
    }

    fn stats(&self) -> CounterStats {
        self.stats
    }

    fn name(&self) -> &'static str {
        "split"
    }

    fn blocks_per_metadata_block(&self) -> usize {
        self.blocks_per_group
    }

    /// Packs `major (64 bits) || minors (minor_bits each)` — exactly 512
    /// bits for the paper's 7-bit/64-block configuration.
    fn metadata_block_image(&self, meta_block: u64) -> [u8; 64] {
        let mut image = [0u8; 64];
        // A never-written group is all zeros, which is the empty image.
        let Some(grp) = self.groups.get(&meta_block) else {
            return image;
        };
        crate::packing::write_bits(&mut image, 0, 64, grp.major);
        for (i, &m) in grp.minors.iter().enumerate() {
            crate::packing::write_bits(
                &mut image,
                64 + self.minor_bits * i as u32,
                self.minor_bits,
                m,
            );
        }
        image
    }

    fn encode_state(&self, out: &mut Vec<u8>) {
        let mut body = codec::begin_state(out, self.name(), &self.layout());
        codec::put_stats(&mut body, &self.stats);
        let mut indices: Vec<u64> = self.groups.keys().copied().collect();
        indices.sort_unstable();
        put_u64(&mut body, indices.len() as u64);
        for idx in indices {
            let grp = &self.groups[&idx];
            put_u64(&mut body, idx);
            put_u64(&mut body, grp.major);
            for &m in &grp.minors {
                put_u64(&mut body, m);
            }
        }
        body.finish();
    }

    fn encoded_state_len(&self) -> usize {
        let group = 16 + 8 * self.blocks_per_group;
        codec::state_len(self.name(), 4 + 8 + 8 + self.groups.len() * group)
    }

    fn decode_state(&mut self, r: &mut ByteReader<'_>) -> io::Result<()> {
        let mut body = codec::read_state(r, self.name(), &self.layout())?;
        let stats = codec::read_stats(&mut body)?;
        let (bpg, minor_max) = (self.blocks_per_group, self.minor_max());
        let groups = read_index_table(&mut body, 16 + 8 * bpg, |body| {
            let major = body.u64()?;
            let mut minors = Vec::with_capacity(bpg);
            for _ in 0..bpg {
                let m = body.u64()?;
                if m > minor_max {
                    return Err(invalid_data("minor counter exceeds its width"));
                }
                minors.push(m);
            }
            Ok(Group { major, minors })
        })?;
        self.stats = stats;
        self.groups = groups;
        Ok(())
    }

    /// Restores a counter *value*. The major counter only changes at a
    /// group re-encryption, and the write-intent log rotates into a
    /// snapshot whenever one happens, so every replayed value must carry
    /// the group's current major — anything else is a corrupt log.
    fn force_counter(&mut self, block: u64, value: u64) -> io::Result<()> {
        let (g, i) = split_block(block, self.blocks_per_group);
        let minor_max = self.minor_max();
        let major = value >> self.minor_bits;
        let minor = value & minor_max;
        match self.groups.entry(g) {
            Entry::Occupied(mut e) => {
                let grp = e.get_mut();
                if grp.major != major {
                    return Err(invalid_data(
                        "replayed split counter disagrees with group major",
                    ));
                }
                grp.minors[i] = minor;
            }
            Entry::Vacant(e) => {
                if major != 0 {
                    return Err(invalid_data(
                        "replayed split counter implies an unrecorded re-encryption",
                    ));
                }
                let bpg = self.blocks_per_group;
                let grp = e.insert(Group {
                    major: 0,
                    minors: vec![0; bpg],
                });
                grp.minors[i] = minor;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_monotone_across_overflow() {
        let mut c = SplitCounters::new(3, 4); // minors overflow after 7 writes
        let mut last = 0;
        for _ in 0..40 {
            c.record_write(1);
            let now = c.counter(1);
            assert!(
                now > last,
                "counter must strictly increase ({last} -> {now})"
            );
            last = now;
        }
    }

    #[test]
    fn overflow_reencrypts_and_resets_group() {
        let mut c = SplitCounters::new(2, 4); // max minor = 3
        for _ in 0..3 {
            c.record_write(0);
        }
        c.record_write(1); // block 1 minor = 1
        let outcome = c.record_write(0); // block 0 overflows
        match outcome {
            WriteOutcome::Reencrypted {
                group,
                old_counters,
                new_counter,
            } => {
                assert_eq!(group, 0);
                assert_eq!(old_counters, vec![3, 1, 0, 0]);
                assert_eq!(new_counter, 1 << 2);
            }
            other => panic!("expected re-encryption, got {other:?}"),
        }
        // All blocks now share the new counter.
        for b in 0..4 {
            assert_eq!(c.counter(b), 1 << 2);
        }
    }

    #[test]
    fn no_reset_or_reencode_possible() {
        // Even perfectly uniform writes cause periodic re-encryptions: the
        // structural weakness delta encoding removes.
        let mut c = SplitCounters::new(2, 4);
        for _ in 0..4 {
            for b in 0..4 {
                c.record_write(b);
            }
        }
        assert_eq!(c.stats().resets, 0);
        assert_eq!(c.stats().reencodes, 0);
        assert!(c.stats().reencryptions > 0);
    }

    #[test]
    fn storage_cost_matches_paper() {
        // 7-bit minors + 64-bit major over 64 blocks = 8 bits/block:
        // the "8x smaller than 64-bit counters" claim of Section 2.2.
        let c = SplitCounters::default();
        assert_eq!(c.bits_per_block(), 8.0);
    }

    #[test]
    fn groups_are_independent() {
        let mut c = SplitCounters::new(2, 4);
        for _ in 0..4 {
            c.record_write(0); // group 0
        }
        assert_eq!(c.counter(4), 0, "group 1 untouched");
        assert_eq!(c.stats().reencryptions, 1);
    }

    #[test]
    fn decode_refuses_forged_group_tables() {
        let mut c = SplitCounters::new(3, 4);
        c.record_write(1);
        c.record_write(6);
        let mut image = Vec::new();
        c.encode_state(&mut image);
        crate::tests::assert_forged_tables_refused(&image, 2, 16 + 8 * 4, |r| {
            SplitCounters::new(3, 4).decode_state(r)
        });
    }

    #[test]
    fn state_roundtrip_and_force() {
        let mut c = SplitCounters::new(3, 4);
        for _ in 0..20 {
            c.record_write(1); // crosses one re-encryption
        }
        c.record_write(6);
        let mut buf = Vec::new();
        c.encode_state(&mut buf);
        assert_eq!(buf.len(), c.encoded_state_len());
        let err = SplitCounters::default()
            .decode_state(&mut ByteReader::new(&buf))
            .unwrap_err();
        assert_eq!(
            err.kind(),
            std::io::ErrorKind::InvalidData,
            "another layout"
        );
        let mut back = SplitCounters::new(3, 4);
        back.decode_state(&mut ByteReader::new(&buf)).unwrap();
        assert_eq!(back.stats(), c.stats());
        for b in 0..8u64 {
            assert_eq!(back.counter(b), c.counter(b), "block {b}");
        }
        // Replay a value under the current major: fine.
        let next = c.counter(0) + 1;
        back.force_counter(0, next).unwrap();
        assert_eq!(back.counter(0), next);
        // A value implying a different major is a corrupt log.
        let foreign = back.counter(1) + (2 << 3);
        assert!(back.force_counter(1, foreign).is_err());
        // An untouched group accepts only major-zero values.
        back.force_counter(100, 5).unwrap();
        assert_eq!(back.counter(100), 5);
        assert!(back.force_counter(104, 1 << 7).is_err());
    }

    #[test]
    fn the_paper_layout_fills_its_line_exactly() {
        let c = SplitCounters::default();
        assert_eq!(64 + c.minor_bits * c.blocks_per_group as u32, 512);
        assert_eq!(c.metadata_block_image(0), [0; 64]);
    }

    #[test]
    #[should_panic(expected = "split-counter group does not fit one metadata block (576 bits)")]
    fn a_layout_wider_than_its_line_is_refused_at_construction() {
        let _ = SplitCounters::new(8, 64);
    }
}
