//! Frame-of-reference delta encoding of counters (Section 4 of the paper).
//!
//! Each block-group stores one 56-bit **reference** counter plus one small
//! **delta** per block; a block's counter is `reference + delta`. Because
//! deltas are *offsets* (not positional digits like split-counter minors),
//! two representation changes can absorb write traffic without touching
//! the encrypted data:
//!
//! * **Delta reset** (Figure 5b): when every delta in a group converges to
//!   the same value `d`, fold it into the reference (`ref += d`, deltas to
//!   zero). Counter values are unchanged.
//! * **Re-encoding** (Figure 5c): on overflow, subtract the minimum delta
//!   from all deltas and add it to the reference. Effective whenever
//!   `min(delta) > 0`.
//!
//! Only when both fail does the group get re-encrypted under a fresh
//! counter (Figure 5a).

use crate::deltas::Deltas;
use crate::{codec, split_block, CounterScheme, CounterStats, WriteOutcome};
use ame_persist::{invalid_data, put_u32, put_u64, read_index_table, ByteReader, IndexMap};
use std::io;

/// Configuration of a flat (single-width) delta-encoding scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeltaConfig {
    /// Width of each delta in bits (the paper evaluates 7).
    pub delta_bits: u32,
    /// Blocks per group (the paper uses 64 => 4 KB groups).
    pub blocks_per_group: usize,
    /// Width of the shared reference counter in bits (56, as in SGX).
    pub reference_bits: u32,
    /// Enables the convergence-reset optimization (Figure 5b).
    pub reset_enabled: bool,
    /// Enables the min-subtraction re-encoding optimization (Figure 5c).
    pub reencode_enabled: bool,
}

impl Default for DeltaConfig {
    /// The paper's configuration: 7-bit deltas, 64-block groups, 56-bit
    /// reference, both optimizations on.
    fn default() -> Self {
        Self {
            delta_bits: 7,
            blocks_per_group: 64,
            reference_bits: 56,
            reset_enabled: true,
            reencode_enabled: true,
        }
    }
}

impl DeltaConfig {
    /// Largest representable delta.
    #[must_use]
    pub fn delta_max(&self) -> u64 {
        (1u64 << self.delta_bits) - 1
    }

    /// Validates invariants; called by [`DeltaCounters::new`].
    fn validate(&self) {
        assert!(
            self.delta_bits > 0 && self.delta_bits < 32,
            "delta width must be 1..32"
        );
        assert!(
            self.blocks_per_group > 0,
            "group must hold at least one block"
        );
        assert!(
            self.reference_bits > 0 && self.reference_bits <= 64,
            "reference width must be 1..=64"
        );
    }
}

#[derive(Debug, Clone)]
struct Group {
    reference: u64,
    deltas: Deltas,
}

impl Group {
    fn new(blocks_per_group: usize) -> Self {
        Self {
            reference: 0,
            deltas: Deltas::zeros(blocks_per_group),
        }
    }

    fn counters(&self) -> Vec<u64> {
        self.deltas.iter().map(|d| self.reference + d).collect()
    }
}

/// Flat delta-encoded counters with reset and re-encode optimizations.
///
/// # Example
///
/// ```
/// use ame_counters::{CounterScheme, delta::DeltaCounters};
///
/// let mut ctrs = DeltaCounters::default();
/// // A sequential sweep writes every block in the group once...
/// for block in 0..64 {
///     ctrs.record_write(block);
/// }
/// // ...so all deltas converged to 1 and were folded into the reference.
/// assert_eq!(ctrs.stats().resets, 1);
/// assert_eq!(ctrs.counter(0), 1);
/// ```
#[derive(Debug, Clone)]
pub struct DeltaCounters {
    groups: IndexMap<Group>,
    config: DeltaConfig,
    stats: CounterStats,
}

impl DeltaCounters {
    /// Creates a delta-counter scheme from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (zero-size group, delta
    /// width outside `1..32`, reference width outside `1..=64`).
    #[must_use]
    pub fn new(config: DeltaConfig) -> Self {
        config.validate();
        Self {
            groups: IndexMap::default(),
            config,
            stats: CounterStats::default(),
        }
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &DeltaConfig {
        &self.config
    }

    /// Current delta of `block` (for inspection/ablation experiments).
    #[must_use]
    pub fn delta(&self, block: u64) -> u64 {
        let (g, i) = split_block(block, self.config.blocks_per_group);
        self.groups.get(&g).map_or(0, |grp| grp.deltas[i])
    }

    /// Current reference value of the group containing `block`.
    #[must_use]
    pub fn reference(&self, block: u64) -> u64 {
        let (g, _) = split_block(block, self.config.blocks_per_group);
        self.groups.get(&g).map_or(0, |grp| grp.reference)
    }
}

impl Default for DeltaCounters {
    fn default() -> Self {
        Self::new(DeltaConfig::default())
    }
}

impl CounterScheme for DeltaCounters {
    fn counter(&self, block: u64) -> u64 {
        let (g, i) = split_block(block, self.config.blocks_per_group);
        self.groups
            .get(&g)
            .map_or(0, |grp| grp.reference + grp.deltas[i])
    }

    fn record_write(&mut self, block: u64) -> WriteOutcome {
        let (g, i) = split_block(block, self.config.blocks_per_group);
        let cfg = self.config;
        let grp = self
            .groups
            .entry(g)
            .or_insert_with(|| Group::new(cfg.blocks_per_group));

        let outcome = if grp.deltas[i] < cfg.delta_max() {
            grp.deltas.bump(i);
            // Figure 5b: fold converged deltas into the reference.
            match grp.deltas.converged() {
                Some(common) if cfg.reset_enabled => {
                    grp.reference += common;
                    grp.deltas.rewrite(|_, d| *d = 0);
                    WriteOutcome::Reset
                }
                _ => WriteOutcome::Incremented,
            }
        } else {
            // Overflow. Figure 5c: re-encode with a larger reference if
            // every delta is positive.
            let min = grp.deltas.iter().copied().min().unwrap_or(0);
            if cfg.reencode_enabled && min > 0 {
                grp.reference += min;
                grp.deltas.rewrite(|_, d| *d -= min);
                grp.deltas.bump(i);
                WriteOutcome::Reencoded
            } else {
                // Figure 5a: re-encrypt the group under the largest
                // counter (the overflowing one, incremented).
                let old_counters = grp.counters();
                let new_counter = grp.reference + cfg.delta_max() + 1;
                grp.reference = new_counter;
                grp.deltas.rewrite(|_, d| *d = 0);
                WriteOutcome::Reencrypted {
                    group: g,
                    old_counters,
                    new_counter,
                }
            }
        };
        self.stats.record(&outcome);
        outcome
    }

    fn bits_per_block(&self) -> f64 {
        f64::from(self.config.delta_bits)
            + f64::from(self.config.reference_bits) / self.config.blocks_per_group as f64
    }

    fn blocks_per_group(&self) -> usize {
        self.config.blocks_per_group
    }

    fn stats(&self) -> CounterStats {
        self.stats
    }

    fn name(&self) -> &'static str {
        "delta"
    }

    fn blocks_per_metadata_block(&self) -> usize {
        self.config.blocks_per_group
    }

    /// Packs `reference (reference_bits) || deltas (delta_bits each)` —
    /// 504 bits for the paper's 7-bit/64-block configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configured layout exceeds one 64-byte block.
    fn metadata_block_image(&self, meta_block: u64) -> [u8; 64] {
        let cfg = &self.config;
        let bits = cfg.reference_bits + cfg.delta_bits * cfg.blocks_per_group as u32;
        assert!(bits <= 512, "delta group does not fit one metadata block");
        let mut image = [0u8; 64];
        // A never-written group is all zeros, which is the empty image.
        let Some(grp) = self.groups.get(&meta_block) else {
            return image;
        };
        crate::packing::write_bits(&mut image, 0, cfg.reference_bits, grp.reference);
        for (i, &d) in grp.deltas.iter().enumerate() {
            crate::packing::write_bits(
                &mut image,
                cfg.reference_bits + cfg.delta_bits * i as u32,
                cfg.delta_bits,
                d,
            );
        }
        image
    }

    fn encode_state(&self, out: &mut Vec<u8>) {
        let cfg = &self.config;
        let mut body = codec::begin_state(out, self.name());
        put_u32(&mut body, cfg.delta_bits);
        put_u64(&mut body, cfg.blocks_per_group as u64);
        put_u32(&mut body, cfg.reference_bits);
        body.push(u8::from(cfg.reset_enabled));
        body.push(u8::from(cfg.reencode_enabled));
        codec::put_stats(&mut body, &self.stats);
        let mut indices: Vec<u64> = self.groups.keys().copied().collect();
        indices.sort_unstable();
        put_u64(&mut body, indices.len() as u64);
        for idx in indices {
            let grp = &self.groups[&idx];
            put_u64(&mut body, idx);
            put_u64(&mut body, grp.reference);
            for &d in grp.deltas.iter() {
                put_u64(&mut body, d);
            }
        }
        body.finish();
    }

    fn encoded_state_len(&self) -> usize {
        let group = 16 + 8 * self.config.blocks_per_group;
        codec::state_len(self.name(), 4 + 8 + 4 + 2 + 8 + self.groups.len() * group)
    }

    fn decode_state(&mut self, r: &mut ByteReader<'_>) -> io::Result<()> {
        let mut body = codec::read_state(r, self.name())?;
        let config = DeltaConfig {
            delta_bits: body.u32()?,
            blocks_per_group: body.u64()? as usize,
            reference_bits: body.u32()?,
            reset_enabled: body.u8()? != 0,
            reencode_enabled: body.u8()? != 0,
        };
        if config.delta_bits == 0
            || config.delta_bits >= 32
            || config.blocks_per_group == 0
            || config.reference_bits == 0
            || config.reference_bits > 64
        {
            return Err(invalid_data("inconsistent delta configuration"));
        }
        let stats = codec::read_stats(&mut body)?;
        let entry = codec::group_entry_bytes(8, config.blocks_per_group)?;
        let groups = read_index_table(&mut body, entry, |body| {
            let reference = body.u64()?;
            let mut deltas = Vec::with_capacity(config.blocks_per_group);
            for _ in 0..config.blocks_per_group {
                let d = body.u64()?;
                if d > config.delta_max() {
                    return Err(invalid_data("delta exceeds its width"));
                }
                deltas.push(d);
            }
            let deltas = Deltas::from_values(deltas);
            Ok(Group { reference, deltas })
        })?;
        self.config = config;
        self.stats = stats;
        self.groups = groups;
        Ok(())
    }

    /// Restores a counter *value* by re-deriving the group encoding: the
    /// reference becomes the group's minimum counter and every delta the
    /// offset above it. Fails only when the resulting spread exceeds the
    /// delta width — impossible for an honest log, which rotates into a
    /// snapshot at every re-encryption.
    fn force_counter(&mut self, block: u64, value: u64) -> io::Result<()> {
        let (g, i) = split_block(block, self.config.blocks_per_group);
        let cfg = self.config;
        let grp = self
            .groups
            .entry(g)
            .or_insert_with(|| Group::new(cfg.blocks_per_group));
        let mut counters = grp.counters();
        counters[i] = value;
        let min = counters.iter().copied().min().expect("non-empty group");
        let max = counters.iter().copied().max().expect("non-empty group");
        if max - min > cfg.delta_max() {
            return Err(invalid_data(
                "replayed counter not representable in its delta group",
            ));
        }
        grp.reference = min;
        grp.deltas.rewrite(|j, d| *d = counters[j] - min);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deltas::{converged_by_scan, tally_of};
    use crate::split::SplitCounters as SplitScheme;
    use ame_prng::StdRng;

    /// `record_write` as it was before the tally — the convergence check
    /// is the full scan — applied to one group's plain state: the oracle
    /// the tallied scheme must match outcome for outcome.
    fn scan_write(
        cfg: &DeltaConfig,
        g: u64,
        i: usize,
        reference: &mut u64,
        deltas: &mut [u64],
    ) -> WriteOutcome {
        if deltas[i] < cfg.delta_max() {
            deltas[i] += 1;
            match converged_by_scan(deltas) {
                Some(first) if cfg.reset_enabled => {
                    *reference += first;
                    deltas.fill(0);
                    WriteOutcome::Reset
                }
                _ => WriteOutcome::Incremented,
            }
        } else {
            let min = deltas.iter().copied().min().unwrap_or(0);
            if cfg.reencode_enabled && min > 0 {
                *reference += min;
                deltas.iter_mut().for_each(|d| *d -= min);
                deltas[i] += 1;
                WriteOutcome::Reencoded
            } else {
                let old_counters = deltas.iter().map(|d| *reference + d).collect();
                let new_counter = *reference + cfg.delta_max() + 1;
                *reference = new_counter;
                deltas.fill(0);
                WriteOutcome::Reencrypted {
                    group: g,
                    old_counters,
                    new_counter,
                }
            }
        }
    }

    #[test]
    fn write_outcomes_match_the_scan_oracle() {
        let mut rng = StdRng::seed_from_u64(0x5ca7);
        for (reset_enabled, reencode_enabled) in
            [(true, true), (true, false), (false, true), (false, false)]
        {
            let cfg = DeltaConfig {
                delta_bits: 3,
                blocks_per_group: 8,
                reference_bits: 56,
                reset_enabled,
                reencode_enabled,
            };
            let bpg = cfg.blocks_per_group as u64;
            let mut c = DeltaCounters::new(cfg);
            let (mut forced, mut thawed) = (0, 0);
            for step in 0..30_000u64 {
                let r = rng.next_u64();
                // Phases of sequential sweeps (resets), uniform writes
                // over three groups (re-encodes) and a hot block
                // (re-encryptions).
                let block = match step / 1000 % 3 {
                    0 => step % (2 * bpg),
                    1 => r % (3 * bpg),
                    _ if r.is_multiple_of(4) => r % bpg,
                    _ => 5,
                };
                match r >> 56 {
                    0 => {
                        let mut image = Vec::new();
                        c.encode_state(&mut image);
                        c = DeltaCounters::default();
                        c.decode_state(&mut ByteReader::new(&image)).unwrap();
                        thawed += 1;
                    }
                    1 => {
                        let value = c.counter(block) + (r >> 8) % 3;
                        forced += usize::from(c.force_counter(block, value).is_ok());
                    }
                    _ => {
                        let (g, i) = split_block(block, cfg.blocks_per_group);
                        let (mut reference, mut deltas) = c.groups.get(&g).map_or_else(
                            || (0, vec![0; cfg.blocks_per_group]),
                            |grp| (grp.reference, grp.deltas.to_vec()),
                        );
                        let expected = scan_write(&cfg, g, i, &mut reference, &mut deltas);
                        assert_eq!(c.record_write(block), expected, "step {step}");
                        let grp = &c.groups[&g];
                        assert_eq!((grp.reference, &*grp.deltas), (reference, &deltas[..]));
                    }
                }
                for grp in c.groups.values() {
                    assert_eq!(grp.deltas.tally(), tally_of(&grp.deltas), "step {step}");
                }
            }
            let stats = c.stats();
            assert!(forced > 0 && thawed > 0, "{forced} forced, {thawed} thawed");
            assert_eq!(stats.resets > 0, reset_enabled, "{stats}");
            assert_eq!(stats.reencodes > 0, reencode_enabled, "{stats}");
            assert!(stats.reencryptions > 0, "{stats}");
        }
    }

    fn small() -> DeltaCounters {
        DeltaCounters::new(DeltaConfig {
            delta_bits: 3, // max delta 7
            blocks_per_group: 4,
            reference_bits: 56,
            reset_enabled: true,
            reencode_enabled: true,
        })
    }

    #[test]
    fn counters_strictly_increase_per_block() {
        let mut c = small();
        let mut last = [0u64; 4];
        for round in 0..100 {
            let b = (round % 4) as u64;
            c.record_write(b);
            let now = c.counter(b);
            assert!(now > last[b as usize], "round {round}");
            // Counters of other blocks must never decrease either.
            for o in 0..4u64 {
                assert!(c.counter(o) >= last[o as usize]);
                last[o as usize] = c.counter(o);
            }
        }
    }

    #[test]
    fn paper_figure_5a_reencryption() {
        // Hammer one block; reset and re-encode can't help (min delta 0).
        let mut c = small();
        for _ in 0..7 {
            assert!(!c.record_write(0).is_reencryption());
        }
        let outcome = c.record_write(0);
        match outcome {
            WriteOutcome::Reencrypted {
                group,
                old_counters,
                new_counter,
            } => {
                assert_eq!(group, 0);
                assert_eq!(old_counters, vec![7, 0, 0, 0]);
                assert_eq!(new_counter, 8);
            }
            other => panic!("expected re-encryption, got {other:?}"),
        }
        // All counters jump to the fresh value.
        for b in 0..4 {
            assert_eq!(c.counter(b), 8);
        }
    }

    #[test]
    fn paper_figure_5b_reset() {
        // Uniform sweeps converge all deltas; no re-encryption ever.
        let mut c = small();
        for sweep in 1..=50u64 {
            for b in 0..4 {
                let out = c.record_write(b);
                if b == 3 {
                    assert_eq!(out, WriteOutcome::Reset, "sweep {sweep}");
                } else {
                    assert_eq!(out, WriteOutcome::Incremented);
                }
            }
            // After each full sweep the deltas fold into the reference.
            assert_eq!(c.reference(0), sweep);
            for b in 0..4 {
                assert_eq!(c.counter(b), sweep);
                assert_eq!(c.delta(b), 0);
            }
        }
        assert_eq!(c.stats().resets, 50);
        assert_eq!(c.stats().reencryptions, 0);
    }

    #[test]
    fn paper_figure_5c_reencode() {
        // Figure 5c: deltas [11,12,12,127] with 7-bit storage; the write
        // to the last block would overflow, but min subtraction saves it.
        let mut c = DeltaCounters::default();
        let write_n = |c: &mut DeltaCounters, b: u64, n: u64| {
            for _ in 0..n {
                c.record_write(b);
            }
        };
        write_n(&mut c, 0, 11);
        write_n(&mut c, 1, 12);
        write_n(&mut c, 2, 12);
        write_n(&mut c, 3, 127);
        // Remaining 60 blocks of the group also need positive deltas for
        // re-encoding to fire.
        for b in 4..64 {
            write_n(&mut c, b, 11);
        }
        let before: Vec<u64> = (0..64).map(|b| c.counter(b)).collect();
        let out = c.record_write(3);
        assert_eq!(out, WriteOutcome::Reencoded);
        assert_eq!(c.reference(0), 11, "reference grew by the minimum delta");
        assert_eq!(c.counter(3), before[3] + 1);
        for b in 0..3u64 {
            assert_eq!(c.counter(b), before[b as usize], "other counters unchanged");
        }
        assert_eq!(c.stats().reencryptions, 0);
    }

    #[test]
    fn reencode_disabled_falls_back_to_reencryption() {
        let mut cfg = DeltaConfig {
            delta_bits: 3,
            blocks_per_group: 2,
            ..Default::default()
        };
        cfg.reencode_enabled = false;
        cfg.reset_enabled = false;
        let mut c = DeltaCounters::new(cfg);
        for _ in 0..7 {
            c.record_write(0);
        }
        c.record_write(1); // min delta now 1, but re-encode is off
        assert!(c.record_write(0).is_reencryption());
    }

    #[test]
    fn reset_disabled_never_resets() {
        let mut cfg = DeltaConfig {
            delta_bits: 3,
            blocks_per_group: 2,
            ..Default::default()
        };
        cfg.reset_enabled = false;
        let mut c = DeltaCounters::new(cfg);
        for _ in 0..3 {
            c.record_write(0);
            c.record_write(1);
        }
        assert_eq!(c.stats().resets, 0);
        assert_eq!(c.delta(0), 3);
    }

    #[test]
    fn storage_cost_matches_paper() {
        // 7-bit deltas + 56-bit reference / 64 blocks = 7.875 bits/block,
        // vs 56 for monolithic: the paper's "6x smaller" (Section 4.2 says
        // a 56-bit reference and 64 deltas fit one 64-byte block).
        let c = DeltaCounters::default();
        assert!((c.bits_per_block() - 7.875).abs() < 1e-9);
        assert!(56.0 / c.bits_per_block() > 6.0);
    }

    #[test]
    fn groups_do_not_interfere() {
        let mut c = small();
        for _ in 0..8 {
            c.record_write(0); // group 0 re-encrypts
        }
        assert_eq!(c.counter(4), 0, "group 1 untouched");
        assert_eq!(c.reference(4), 0);
    }

    #[test]
    fn metadata_image_matches_flat_packing() {
        use crate::packing::FlatGroup;
        let mut c = DeltaCounters::default();
        for b in 0..10 {
            for _ in 0..=b {
                c.record_write(b);
            }
        }
        let image = c.metadata_block_image(0);
        let unpacked = FlatGroup::unpack(&image);
        assert_eq!(unpacked.reference, c.reference(0));
        for b in 0..64u64 {
            assert_eq!(unpacked.deltas[b as usize], c.delta(b), "block {b}");
            assert_eq!(FlatGroup::decode_counter(&image, b as usize), c.counter(b));
        }
        // Unallocated group images are all zero.
        assert_eq!(c.metadata_block_image(99), [0u8; 64]);
    }

    #[test]
    fn lazy_groups_default_to_zero() {
        let c = DeltaCounters::default();
        assert_eq!(c.counter(123_456), 0);
        assert_eq!(c.delta(123_456), 0);
        assert_eq!(c.reference(123_456), 0);
    }

    #[test]
    fn state_roundtrip_and_force() {
        let mut c = small();
        for b in 0..4u64 {
            for _ in 0..=b {
                c.record_write(b);
            }
        }
        c.record_write(5); // second group
        let mut buf = Vec::new();
        c.encode_state(&mut buf);
        assert_eq!(buf.len(), c.encoded_state_len());
        let mut back = DeltaCounters::default();
        back.decode_state(&mut ByteReader::new(&buf)).unwrap();
        assert_eq!(back.config(), c.config(), "configuration is adopted");
        assert_eq!(back.stats(), c.stats());
        for b in 0..8u64 {
            assert_eq!(back.counter(b), c.counter(b), "block {b}");
        }
        // Forcing a nearby value re-derives the encoding around it.
        let next = c.counter(3) + 1;
        back.force_counter(3, next).unwrap();
        assert_eq!(back.counter(3), next);
        for b in 0..3u64 {
            assert_eq!(back.counter(b), c.counter(b), "other counters intact");
        }
        // A value too far from the group's spread is unrepresentable.
        assert!(back.force_counter(0, next + 100).is_err());
        // Forcing into an untouched group works from the zero state.
        back.force_counter(100, 6).unwrap();
        assert_eq!(back.counter(100), 6);
    }

    #[test]
    fn decode_refuses_forged_group_tables() {
        let mut c = small();
        c.record_write(1);
        c.record_write(6);
        let mut image = Vec::new();
        c.encode_state(&mut image);
        crate::tests::assert_forged_tables_refused(&image, 2, 16 + 8 * 4, |r| {
            DeltaCounters::default().decode_state(r)
        });
    }

    #[test]
    fn decode_rejects_wrong_scheme() {
        let c = SplitScheme::default();
        let mut buf = Vec::new();
        c.encode_state(&mut buf);
        let mut d = DeltaCounters::default();
        let err = d.decode_state(&mut ByteReader::new(&buf)).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("scheme mismatch"));
    }
}
