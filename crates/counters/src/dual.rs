//! Dual-length delta encoding (Figure 6 of the paper).
//!
//! A constrained form of variable-length integer encoding designed for
//! 2-cycle hardware decode: the 64 deltas of a block-group are divided
//! into four **delta-groups** of 16. Each delta is 6 bits by default,
//! leaving 72 unused bits in the group's metadata block. When a delta
//! overflows its 6 bits, those reserve bits are assigned to its
//! delta-group, widening each of that group's deltas by 4 bits (to 10).
//! Only one delta-group can hold the reserve at a time; if a second group
//! overflows (or the widened group overflows again), the scheme falls back
//! to re-encode / re-encrypt.
//!
//! On facesim-like workloads several delta-groups grow concurrently, which
//! is why Table 2 shows dual-length doing *worse* than flat 7-bit deltas
//! there — this implementation reproduces that behaviour.

use crate::deltas::Deltas;
use crate::{codec, split_block, CounterScheme, CounterStats, WriteOutcome};
use ame_persist::{invalid_data, put_u32, put_u64, read_index_table, ByteReader, IndexMap};
use std::io;

/// Configuration of the dual-length delta scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DualLengthConfig {
    /// Default delta width in bits (paper: 6).
    pub base_bits: u32,
    /// Extra bits granted to the expanded delta-group (paper: 4).
    pub extra_bits: u32,
    /// Number of delta-groups per block-group (paper: 4).
    pub delta_groups: usize,
    /// Blocks per block-group (paper: 64 => 16 deltas per delta-group).
    pub blocks_per_group: usize,
    /// Width of the shared reference counter in bits.
    pub reference_bits: u32,
    /// Enables the convergence-reset optimization.
    pub reset_enabled: bool,
    /// Enables the min-subtraction re-encoding optimization.
    pub reencode_enabled: bool,
}

impl Default for DualLengthConfig {
    /// The paper's configuration: 6+4-bit deltas, 4 delta-groups of 16.
    fn default() -> Self {
        Self {
            base_bits: 6,
            extra_bits: 4,
            delta_groups: 4,
            blocks_per_group: 64,
            reference_bits: 56,
            reset_enabled: true,
            reencode_enabled: true,
        }
    }
}

impl DualLengthConfig {
    /// Largest delta representable at base width.
    #[must_use]
    pub fn base_max(&self) -> u64 {
        (1u64 << self.base_bits) - 1
    }

    /// Largest delta representable in the expanded delta-group.
    #[must_use]
    pub fn expanded_max(&self) -> u64 {
        (1u64 << (self.base_bits + self.extra_bits)) - 1
    }

    /// Blocks per delta-group.
    #[must_use]
    pub fn blocks_per_delta_group(&self) -> usize {
        self.blocks_per_group / self.delta_groups
    }

    fn validate(&self) {
        assert!(
            self.base_bits > 0 && self.base_bits < 32,
            "base width must be 1..32"
        );
        assert!(self.extra_bits > 0 && self.base_bits + self.extra_bits < 32);
        assert!(
            self.delta_groups > 0 && self.blocks_per_group.is_multiple_of(self.delta_groups),
            "delta-groups must evenly divide the block-group"
        );
        assert!(self.reference_bits > 0 && self.reference_bits <= 64);
    }
}

#[derive(Debug, Clone)]
struct Group {
    reference: u64,
    deltas: Deltas,
    /// Which delta-group currently holds the shared overflow bits.
    expanded: Option<usize>,
}

impl Group {
    fn new(blocks_per_group: usize) -> Self {
        Self {
            reference: 0,
            deltas: Deltas::zeros(blocks_per_group),
            expanded: None,
        }
    }

    fn counters(&self) -> Vec<u64> {
        self.deltas.iter().map(|d| self.reference + d).collect()
    }
}

/// Dual-length delta-encoded counters.
///
/// # Example
///
/// ```
/// use ame_counters::{CounterScheme, dual::DualLengthDeltaCounters};
///
/// let mut ctrs = DualLengthDeltaCounters::default();
/// // 64 writes to one block overflow its 6-bit delta; the overflow bits
/// // absorb it with no re-encryption.
/// for _ in 0..70 {
///     ctrs.record_write(5);
/// }
/// assert_eq!(ctrs.stats().expansions, 1);
/// assert_eq!(ctrs.stats().reencryptions, 0);
/// assert_eq!(ctrs.counter(5), 70);
/// ```
#[derive(Debug, Clone)]
pub struct DualLengthDeltaCounters {
    groups: IndexMap<Group>,
    config: DualLengthConfig,
    stats: CounterStats,
}

impl DualLengthDeltaCounters {
    /// Creates a dual-length delta scheme from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (see
    /// [`DualLengthConfig`] field docs).
    #[must_use]
    pub fn new(config: DualLengthConfig) -> Self {
        config.validate();
        Self {
            groups: IndexMap::default(),
            config,
            stats: CounterStats::default(),
        }
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &DualLengthConfig {
        &self.config
    }

    /// The delta-group index of `block` within its block-group.
    #[must_use]
    pub fn delta_group_of(&self, block: u64) -> usize {
        let (_, i) = split_block(block, self.config.blocks_per_group);
        i / self.config.blocks_per_delta_group()
    }

    /// Which delta-group of `block`'s block-group holds the overflow bits.
    #[must_use]
    pub fn expanded_group(&self, block: u64) -> Option<usize> {
        let (g, _) = split_block(block, self.config.blocks_per_group);
        self.groups.get(&g).and_then(|grp| grp.expanded)
    }
}

impl Default for DualLengthDeltaCounters {
    fn default() -> Self {
        Self::new(DualLengthConfig::default())
    }
}

impl CounterScheme for DualLengthDeltaCounters {
    fn counter(&self, block: u64) -> u64 {
        let (g, i) = split_block(block, self.config.blocks_per_group);
        self.groups
            .get(&g)
            .map_or(0, |grp| grp.reference + grp.deltas[i])
    }

    fn record_write(&mut self, block: u64) -> WriteOutcome {
        let (g, i) = split_block(block, self.config.blocks_per_group);
        let cfg = self.config;
        let dg = i / cfg.blocks_per_delta_group();
        let grp = self
            .groups
            .entry(g)
            .or_insert_with(|| Group::new(cfg.blocks_per_group));

        let cap = if grp.expanded == Some(dg) {
            cfg.expanded_max()
        } else {
            cfg.base_max()
        };
        let outcome = if grp.deltas[i] < cap {
            grp.deltas.bump(i);
            match grp.deltas.converged() {
                Some(common) if cfg.reset_enabled => {
                    grp.reference += common;
                    grp.deltas.rewrite(|_, d| *d = 0);
                    grp.expanded = None; // all deltas fit base width again
                    WriteOutcome::Reset
                }
                _ => WriteOutcome::Incremented,
            }
        } else if grp.expanded.is_none() {
            // Assign the shared overflow bits to this delta-group.
            grp.expanded = Some(dg);
            grp.deltas.bump(i);
            WriteOutcome::Expanded
        } else {
            // Overflow bits already taken (possibly by this very group at
            // its widened capacity): try re-encoding, then re-encrypt.
            let min = grp.deltas.iter().copied().min().unwrap_or(0);
            if cfg.reencode_enabled && min > 0 {
                grp.reference += min;
                grp.deltas.rewrite(|_, d| *d -= min);
                grp.deltas.bump(i);
                WriteOutcome::Reencoded
            } else {
                let old_counters = grp.counters();
                // Every block must jump strictly above its old counter;
                // with a widened group the largest delta may exceed the
                // overflowing one, so take the true maximum.
                let new_counter = grp.reference + grp.deltas.max() + 1;
                grp.reference = new_counter;
                grp.deltas.rewrite(|_, d| *d = 0);
                grp.expanded = None;
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
        // Reference + base-width deltas + shared overflow bits + 2 group
        // index bits, amortized over the group (507 bits for the paper's
        // parameters — fits one 64-byte metadata block).
        let cfg = &self.config;
        let overflow_bits = cfg.blocks_per_delta_group() as f64 * f64::from(cfg.extra_bits);
        let index_bits = (cfg.delta_groups as f64).log2().ceil();
        f64::from(cfg.base_bits)
            + (f64::from(cfg.reference_bits) + overflow_bits + index_bits)
                / cfg.blocks_per_group as f64
    }

    fn blocks_per_group(&self) -> usize {
        self.config.blocks_per_group
    }

    fn stats(&self) -> CounterStats {
        self.stats
    }

    fn name(&self) -> &'static str {
        "dual-length delta"
    }

    fn blocks_per_metadata_block(&self) -> usize {
        self.config.blocks_per_group
    }

    /// Packs the Figure 6 layout: `reference || valid || group-index ||
    /// base deltas || overflow bits` — 507 bits for the paper's
    /// configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configured layout exceeds one 64-byte block.
    fn metadata_block_image(&self, meta_block: u64) -> [u8; 64] {
        let cfg = &self.config;
        let index_bits = (usize::BITS - (cfg.delta_groups - 1).leading_zeros()).max(1);
        let ext_slots = cfg.blocks_per_delta_group() as u32;
        let bits = cfg.reference_bits
            + 1
            + index_bits
            + cfg.base_bits * cfg.blocks_per_group as u32
            + cfg.extra_bits * ext_slots;
        assert!(
            bits <= 512,
            "dual-length group does not fit one metadata block"
        );

        let mut image = [0u8; 64];
        // A never-written group is all zeros, which is the empty image.
        let Some(grp) = self.groups.get(&meta_block) else {
            return image;
        };
        let (reference, deltas, expanded) = (grp.reference, &*grp.deltas, grp.expanded);
        let mut off = 0;
        crate::packing::write_bits(&mut image, off, cfg.reference_bits, reference);
        off += cfg.reference_bits;
        crate::packing::write_bits(&mut image, off, 1, u64::from(expanded.is_some()));
        off += 1;
        crate::packing::write_bits(&mut image, off, index_bits, expanded.unwrap_or(0) as u64);
        off += index_bits;
        let base_off = off;
        let ext_off = base_off + cfg.base_bits * cfg.blocks_per_group as u32;
        for (i, &d) in deltas.iter().enumerate() {
            let dg = i / cfg.blocks_per_delta_group();
            crate::packing::write_bits(
                &mut image,
                base_off + cfg.base_bits * i as u32,
                cfg.base_bits,
                d & ((1 << cfg.base_bits) - 1),
            );
            if expanded == Some(dg) {
                crate::packing::write_bits(
                    &mut image,
                    ext_off + cfg.extra_bits * (i % cfg.blocks_per_delta_group()) as u32,
                    cfg.extra_bits,
                    d >> cfg.base_bits,
                );
            }
        }
        image
    }

    fn encode_state(&self, out: &mut Vec<u8>) {
        let cfg = &self.config;
        let mut body = codec::begin_state(out, self.name());
        put_u32(&mut body, cfg.base_bits);
        put_u32(&mut body, cfg.extra_bits);
        put_u64(&mut body, cfg.delta_groups as u64);
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
            match grp.expanded {
                Some(dg) => {
                    body.push(1);
                    put_u64(&mut body, dg as u64);
                }
                None => {
                    body.push(0);
                    put_u64(&mut body, 0);
                }
            }
            for &d in grp.deltas.iter() {
                put_u64(&mut body, d);
            }
        }
        body.finish();
    }

    fn encoded_state_len(&self) -> usize {
        let group = 16 + 9 + 8 * self.config.blocks_per_group;
        codec::state_len(
            self.name(),
            4 + 4 + 8 + 8 + 4 + 2 + 8 + self.groups.len() * group,
        )
    }

    fn decode_state(&mut self, r: &mut ByteReader<'_>) -> io::Result<()> {
        let mut body = codec::read_state(r, self.name())?;
        let config = DualLengthConfig {
            base_bits: body.u32()?,
            extra_bits: body.u32()?,
            delta_groups: body.u64()? as usize,
            blocks_per_group: body.u64()? as usize,
            reference_bits: body.u32()?,
            reset_enabled: body.u8()? != 0,
            reencode_enabled: body.u8()? != 0,
        };
        let consistent = config.base_bits > 0
            && config.base_bits < 32
            && config.extra_bits > 0
            && config.base_bits + config.extra_bits < 32
            && config.delta_groups > 0
            && config.blocks_per_group > 0
            && config.blocks_per_group.is_multiple_of(config.delta_groups)
            && config.reference_bits > 0
            && config.reference_bits <= 64;
        if !consistent {
            return Err(invalid_data("inconsistent dual-length configuration"));
        }
        let stats = codec::read_stats(&mut body)?;
        let entry = codec::group_entry_bytes(8 + 1 + 8, config.blocks_per_group)?;
        let groups = read_index_table(&mut body, entry, |body| {
            let reference = body.u64()?;
            let has_expanded = body.u8()? != 0;
            let expanded_idx = body.u64()? as usize;
            let expanded = if has_expanded {
                if expanded_idx >= config.delta_groups {
                    return Err(invalid_data("expanded delta-group out of range"));
                }
                Some(expanded_idx)
            } else {
                None
            };
            let mut deltas = Vec::with_capacity(config.blocks_per_group);
            for i in 0..config.blocks_per_group {
                let d = body.u64()?;
                let cap = if expanded == Some(i / config.blocks_per_delta_group()) {
                    config.expanded_max()
                } else {
                    config.base_max()
                };
                if d > cap {
                    return Err(invalid_data("delta exceeds its width"));
                }
                deltas.push(d);
            }
            let deltas = Deltas::from_values(deltas);
            Ok(Group {
                reference,
                deltas,
                expanded,
            })
        })?;
        self.config = config;
        self.stats = stats;
        self.groups = groups;
        Ok(())
    }

    /// Restores a counter *value* by re-deriving the group encoding: the
    /// reference becomes the group's minimum counter, and the shared
    /// overflow bits are re-assigned to whichever single delta-group needs
    /// widening afterwards. Two delta-groups needing the bits at once (or
    /// a delta beyond even the widened cap) is unrepresentable — evidence
    /// of a corrupt log, since the log rotates into a snapshot at every
    /// re-encryption.
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
        let bpdg = cfg.blocks_per_delta_group();
        let mut need: Vec<usize> = Vec::new();
        for (j, &c) in counters.iter().enumerate() {
            let d = c - min;
            if d > cfg.expanded_max() {
                return Err(invalid_data(
                    "replayed counter not representable in its delta group",
                ));
            }
            if d > cfg.base_max() && !need.contains(&(j / bpdg)) {
                need.push(j / bpdg);
            }
        }
        if need.len() > 1 {
            return Err(invalid_data(
                "replayed counter needs overflow bits in two delta-groups",
            ));
        }
        grp.reference = min;
        grp.deltas.rewrite(|j, d| *d = counters[j] - min);
        grp.expanded = need.first().copied();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deltas::{converged_by_scan, tally_of};
    use ame_prng::StdRng;

    /// One group's plain state: `(reference, deltas, expanded)`.
    type Plain = (u64, Vec<u64>, Option<usize>);

    /// `record_write` as it was before the tally — the convergence check
    /// is the full scan — applied to one group's plain state: the oracle
    /// the tallied scheme must match outcome for outcome.
    fn scan_write(cfg: &DualLengthConfig, g: u64, i: usize, state: &mut Plain) -> WriteOutcome {
        let (reference, deltas, expanded) = state;
        let dg = i / cfg.blocks_per_delta_group();
        let cap = if *expanded == Some(dg) {
            cfg.expanded_max()
        } else {
            cfg.base_max()
        };
        if deltas[i] < cap {
            deltas[i] += 1;
            match converged_by_scan(deltas) {
                Some(first) if cfg.reset_enabled => {
                    *reference += first;
                    deltas.fill(0);
                    *expanded = None;
                    WriteOutcome::Reset
                }
                _ => WriteOutcome::Incremented,
            }
        } else if expanded.is_none() {
            *expanded = Some(dg);
            deltas[i] += 1;
            WriteOutcome::Expanded
        } else {
            let min = deltas.iter().copied().min().unwrap_or(0);
            if cfg.reencode_enabled && min > 0 {
                *reference += min;
                deltas.iter_mut().for_each(|d| *d -= min);
                deltas[i] += 1;
                WriteOutcome::Reencoded
            } else {
                let old_counters = deltas.iter().map(|d| *reference + d).collect();
                let max_delta = deltas.iter().copied().max().unwrap_or(0);
                let new_counter = *reference + max_delta + 1;
                *reference = new_counter;
                deltas.fill(0);
                *expanded = None;
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
        let mut rng = StdRng::seed_from_u64(0xd0a1);
        for (reset_enabled, reencode_enabled) in
            [(true, true), (true, false), (false, true), (false, false)]
        {
            let cfg = DualLengthConfig {
                base_bits: 3,
                extra_bits: 2,
                delta_groups: 2,
                blocks_per_group: 8,
                reference_bits: 56,
                reset_enabled,
                reencode_enabled,
            };
            let bpg = cfg.blocks_per_group as u64;
            let mut c = DualLengthDeltaCounters::new(cfg);
            let (mut forced, mut thawed) = (0, 0);
            for step in 0..30_000u64 {
                let r = rng.next_u64();
                // Phases of sequential sweeps (resets), uniform writes
                // over three groups (re-encodes) and a hot block in each
                // delta-group (expansions, then re-encryptions).
                let block = match step / 1000 % 3 {
                    0 => step % (2 * bpg),
                    1 => r % (3 * bpg),
                    _ if r.is_multiple_of(4) => r % bpg,
                    _ => [1, 6][(r >> 8) as usize % 2],
                };
                match r >> 56 {
                    0 => {
                        let mut image = Vec::new();
                        c.encode_state(&mut image);
                        c = DualLengthDeltaCounters::default();
                        c.decode_state(&mut ByteReader::new(&image)).unwrap();
                        thawed += 1;
                    }
                    1 => {
                        let value = c.counter(block) + (r >> 8) % 3;
                        forced += usize::from(c.force_counter(block, value).is_ok());
                    }
                    _ => {
                        let (g, i) = split_block(block, cfg.blocks_per_group);
                        let mut state = c.groups.get(&g).map_or_else(
                            || (0, vec![0; cfg.blocks_per_group], None),
                            |grp| (grp.reference, grp.deltas.to_vec(), grp.expanded),
                        );
                        let expected = scan_write(&cfg, g, i, &mut state);
                        assert_eq!(c.record_write(block), expected, "step {step}");
                        let grp = &c.groups[&g];
                        let got = (grp.reference, grp.deltas.to_vec(), grp.expanded);
                        assert_eq!(got, state, "step {step}");
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
            assert!(stats.expansions > 0 && stats.reencryptions > 0, "{stats}");
        }
    }

    fn tiny() -> DualLengthDeltaCounters {
        DualLengthDeltaCounters::new(DualLengthConfig {
            base_bits: 2,  // base max 3
            extra_bits: 2, // expanded max 15
            delta_groups: 2,
            blocks_per_group: 4, // delta-groups {0,1} and {2,3}
            reference_bits: 56,
            reset_enabled: true,
            reencode_enabled: true,
        })
    }

    #[test]
    fn expansion_absorbs_first_overflow() {
        let mut c = tiny();
        for _ in 0..3 {
            assert_eq!(c.record_write(0), WriteOutcome::Incremented);
        }
        assert_eq!(c.record_write(0), WriteOutcome::Expanded);
        assert_eq!(c.expanded_group(0), Some(0));
        assert_eq!(c.counter(0), 4);
        // The widened group keeps absorbing writes up to 15.
        for _ in 4..15 {
            assert_eq!(c.record_write(0), WriteOutcome::Incremented);
        }
        assert_eq!(c.counter(0), 15);
        assert_eq!(c.stats().reencryptions, 0);
    }

    #[test]
    fn second_group_overflow_forces_reencryption() {
        // The facesim failure mode: two delta-groups overflow; only one can
        // be extended.
        let mut c = tiny();
        for _ in 0..4 {
            c.record_write(0); // group 0 takes the overflow bits
        }
        for _ in 0..3 {
            c.record_write(2); // delta-group 1 fills its 2-bit delta
        }
        // Block 2 overflows; min delta is 0 (blocks 1 and 3 unwritten) so
        // re-encode fails too.
        let out = c.record_write(2);
        assert!(out.is_reencryption());
        match out {
            WriteOutcome::Reencrypted {
                old_counters,
                new_counter,
                ..
            } => {
                assert_eq!(old_counters, vec![4, 0, 3, 0]);
                // Largest delta (4, in the *expanded* group) rules.
                assert_eq!(new_counter, 5);
            }
            _ => unreachable!(),
        }
        assert_eq!(c.expanded_group(0), None, "overflow bits reclaimed");
    }

    #[test]
    fn reencode_rescues_second_overflow_when_min_positive() {
        let mut c = tiny();
        // Block 0 takes the overflow bits on its 4th write (base max 3).
        for _ in 0..4 {
            c.record_write(0);
        }
        assert_eq!(c.expanded_group(0), Some(0));
        // Every block gets a positive delta; block 2 reaches base max.
        c.record_write(1);
        c.record_write(3);
        for _ in 0..3 {
            c.record_write(2);
        }
        // deltas now: b0=4 (expanded cap 15), b1=1, b2=3 (base max), b3=1
        let before: Vec<u64> = (0..4).map(|b| c.counter(b)).collect();
        let out = c.record_write(2); // would overflow; min=1 > 0
        assert_eq!(out, WriteOutcome::Reencoded);
        assert_eq!(c.counter(2), before[2] + 1);
        assert_eq!(c.counter(0), before[0]);
        assert_eq!(c.stats().reencryptions, 0);
    }

    #[test]
    fn reset_reclaims_expansion() {
        let mut c = tiny();
        for _ in 0..4 {
            c.record_write(0); // 4th write takes the overflow bits
        }
        assert_eq!(c.expanded_group(0), Some(0));
        // Bring the rest of the group toward convergence. Block 2's fourth
        // write overflows its (unexpanded) delta-group but re-encodes.
        for _ in 0..4 {
            c.record_write(1);
        }
        for _ in 0..3 {
            c.record_write(3);
        }
        for _ in 0..4 {
            c.record_write(2);
        }
        assert_eq!(c.stats().reencodes, 1);
        // Final write converges all deltas -> reset reclaims the expansion.
        c.record_write(3);
        assert_eq!(c.expanded_group(0), None);
        assert!(c.stats().resets >= 1);
        assert_eq!(c.stats().reencryptions, 0);
        for b in 0..4 {
            assert_eq!(c.counter(b), 4);
        }
    }

    #[test]
    fn counters_strictly_increase() {
        let mut c = tiny();
        let mut last = [0u64; 4];
        // Skewed pattern exercising expansion, re-encode and re-encryption.
        let pattern = [0u64, 0, 1, 0, 2, 0, 0, 3, 0, 0, 0, 2];
        for round in 0..200 {
            let b = pattern[round % pattern.len()];
            c.record_write(b);
            for (o, l) in last.iter().enumerate() {
                assert!(c.counter(o as u64) >= *l, "round {round} block {o}");
            }
            assert!(c.counter(b) > last[b as usize]);
            for (o, l) in last.iter_mut().enumerate() {
                *l = c.counter(o as u64);
            }
        }
        assert!(
            c.stats().reencryptions > 0,
            "pattern should force re-encryptions"
        );
    }

    #[test]
    fn paper_storage_cost_fits_one_block() {
        // 56 + 64*6 + 64 + 2 = 506 bits <= 512: the Figure 6 layout fits a
        // 64-byte metadata block.
        let c = DualLengthDeltaCounters::default();
        let total_bits = c.bits_per_block() * 64.0;
        assert!(
            total_bits <= 512.0,
            "group metadata must fit one block, got {total_bits}"
        );
    }

    #[test]
    fn delta_group_mapping() {
        let c = DualLengthDeltaCounters::default();
        assert_eq!(c.delta_group_of(0), 0);
        assert_eq!(c.delta_group_of(15), 0);
        assert_eq!(c.delta_group_of(16), 1);
        assert_eq!(c.delta_group_of(63), 3);
        assert_eq!(c.delta_group_of(64), 0); // next block-group
    }

    #[test]
    fn metadata_image_matches_dual_packing() {
        use crate::packing::DualGroup;
        let mut c = DualLengthDeltaCounters::default();
        // Push block 3 past 6 bits so delta-group 0 expands.
        for _ in 0..70 {
            c.record_write(3);
        }
        for b in 20..30 {
            c.record_write(b);
        }
        assert_eq!(c.expanded_group(0), Some(0));
        let image = c.metadata_block_image(0);
        let unpacked = DualGroup::unpack(&image);
        assert_eq!(unpacked.expanded, Some(0));
        for b in 0..64u64 {
            assert_eq!(
                DualGroup::decode_counter(&image, b as usize),
                c.counter(b),
                "block {b}"
            );
        }
    }

    #[test]
    fn state_roundtrip_and_force() {
        let mut c = tiny();
        for _ in 0..4 {
            c.record_write(0); // 4th write expands delta-group 0
        }
        c.record_write(2);
        c.record_write(5); // second block-group
        assert_eq!(c.expanded_group(0), Some(0));
        let mut buf = Vec::new();
        c.encode_state(&mut buf);
        assert_eq!(buf.len(), c.encoded_state_len());
        let mut back = DualLengthDeltaCounters::default();
        back.decode_state(&mut ByteReader::new(&buf)).unwrap();
        assert_eq!(back.config(), c.config(), "configuration is adopted");
        assert_eq!(back.stats(), c.stats());
        assert_eq!(back.expanded_group(0), Some(0));
        for b in 0..8u64 {
            assert_eq!(back.counter(b), c.counter(b), "block {b}");
        }
        // Forcing the next value for the expanded block stays expanded.
        let next = c.counter(0) + 1;
        back.force_counter(0, next).unwrap();
        assert_eq!(back.counter(0), next);
        assert_eq!(back.expanded_group(0), Some(0));
        // A value pushing a *second* delta-group past base width needs the
        // already-taken overflow bits: unrepresentable.
        assert!(back.force_counter(2, back.counter(0)).is_err());
        // Raising the laggards lets the encoding re-base; the expansion is
        // reclaimed once no delta exceeds base width.
        back.force_counter(2, 3).unwrap();
        back.force_counter(3, 3).unwrap();
        back.force_counter(1, 2).unwrap();
        assert_eq!(back.expanded_group(0), None);
        assert_eq!(back.counter(0), next, "values preserved across re-base");
        // Beyond even the widened cap is always an error.
        assert!(back.force_counter(0, next + 100).is_err());
    }

    #[test]
    fn decode_refuses_forged_group_tables() {
        let mut c = tiny();
        c.record_write(1);
        c.record_write(6);
        let mut image = Vec::new();
        c.encode_state(&mut image);
        crate::tests::assert_forged_tables_refused(&image, 2, 25 + 8 * 4, |r| {
            DualLengthDeltaCounters::default().decode_state(r)
        });
    }

    #[test]
    #[should_panic(expected = "delta-groups must evenly divide")]
    fn invalid_config_panics() {
        let cfg = DualLengthConfig {
            delta_groups: 3,
            blocks_per_group: 64,
            ..Default::default()
        };
        let _ = DualLengthDeltaCounters::new(cfg);
    }
}
