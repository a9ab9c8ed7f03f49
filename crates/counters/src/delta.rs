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
//!
//! This module holds the flat layout's configuration; the rules run in
//! the one delta scheme the dual-length layout shares (`deltas.rs`).

// The crate root's items, for this module's tests as much as its code.
use crate::deltas::{Config, DeltaScheme};
use crate::packing::{FlatLayout, LineLayout};
use crate::*;
use ame_persist::{put_u32, put_u64, ByteReader};
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
}

impl Config for DeltaConfig {
    const NAME: &'static str = "delta";
    const EXPANDS: bool = false;
    const EXPANSION_BYTES: usize = 0;
    type Layout = FlatLayout;

    fn layout(&self) -> FlatLayout {
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
        FlatLayout::new(self.reference_bits, self.delta_bits, self.blocks_per_group)
    }

    fn blocks_per_group(&self) -> usize {
        self.blocks_per_group
    }

    fn cap(&self, _widened: bool) -> u64 {
        self.delta_max()
    }

    fn reset_enabled(&self) -> bool {
        self.reset_enabled
    }

    fn reencode_enabled(&self) -> bool {
        self.reencode_enabled
    }

    fn layout_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_u32(&mut out, self.delta_bits);
        put_u64(&mut out, self.blocks_per_group as u64);
        put_u32(&mut out, self.reference_bits);
        out.push(u8::from(self.reset_enabled));
        out.push(u8::from(self.reencode_enabled));
        out
    }

    fn bits_per_block(&self) -> f64 {
        f64::from(self.delta_bits) + f64::from(self.reference_bits) / self.blocks_per_group as f64
    }

    /// A flat group has no expansion, and its entry no field for one.
    fn put_expansion(_out: &mut Vec<u8>, _expanded: Option<usize>) {}

    fn read_expansion(&self, _r: &mut ByteReader<'_>) -> io::Result<Option<usize>> {
        Ok(None)
    }
}

/// Flat delta-encoded counters with reset and re-encode optimizations.
///
/// Each group is held as its packed Figure 5 line: a counter read is one
/// field extraction and an add, a write rewrites one field, and
/// [`CounterScheme::metadata_block_image`] returns the line as it is.
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
pub type DeltaCounters = DeltaScheme<DeltaConfig>;

impl DeltaCounters {
    /// Current delta of `block` (for inspection/ablation experiments).
    #[must_use]
    pub fn delta(&self, block: u64) -> u64 {
        let (g, i) = split_block(block, self.blocks_per_group());
        self.groups
            .get(&g)
            .map_or(0, |grp| self.layout.delta(&grp.line, i, false))
    }

    /// Current reference value of the group containing `block`.
    #[must_use]
    pub fn reference(&self, block: u64) -> u64 {
        let (g, _) = split_block(block, self.blocks_per_group());
        self.groups
            .get(&g)
            .map_or(0, |grp| self.layout.reference(&grp.line))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deltas::{converged_by_scan, tally_of};
    use crate::packing::read_bits;
    use crate::split::SplitCounters as SplitScheme;
    use ame_prng::StdRng;

    impl DeltaCounters {
        /// Group `g`'s reference and deltas, unpacked from its line.
        fn plain(&self, g: u64) -> (u64, Vec<u64>) {
            let mut deltas = vec![0; self.config.blocks_per_group];
            let reference = self
                .groups
                .get(&g)
                .map_or(0, |grp| self.layout.unpack(&grp.line, &mut deltas));
            (reference, deltas)
        }
    }

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
                        c = DeltaCounters::new(cfg);
                        c.decode_state(&mut ByteReader::new(&image)).unwrap();
                        thawed += 1;
                    }
                    1 => {
                        // The definition: the group's counters with this
                        // one replaced, re-encoded around their minimum.
                        let value = c.counter(block) + (r >> 8) % 3;
                        let (g, i) = split_block(block, cfg.blocks_per_group);
                        let mut counters: Vec<u64> =
                            (0..bpg).map(|j| c.counter(g * bpg + j)).collect();
                        counters[i] = value;
                        let min = *counters.iter().min().unwrap();
                        let max = *counters.iter().max().unwrap();
                        let ok = c.force_counter(block, value).is_ok();
                        assert_eq!(ok, max - min <= cfg.delta_max(), "step {step}");
                        if ok {
                            let deltas: Vec<u64> = counters.iter().map(|&c| c - min).collect();
                            assert_eq!(c.plain(g), (min, deltas));
                        }
                        forced += usize::from(ok);
                    }
                    _ => {
                        let (g, i) = split_block(block, cfg.blocks_per_group);
                        let (mut reference, mut deltas) = c.plain(g);
                        let expected = scan_write(&cfg, g, i, &mut reference, &mut deltas);
                        assert_eq!(c.record_write(block), expected, "step {step}");
                        assert_eq!(c.plain(g), (reference, deltas));
                    }
                }
                for (&g, grp) in &c.groups {
                    let (_, deltas) = c.plain(g);
                    assert_eq!(grp.tally.pair(), tally_of(&deltas), "step {step}");
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
        let mut c = DeltaCounters::default();
        for b in 0..10 {
            for _ in 0..=b {
                c.record_write(b);
            }
        }
        // The image holds the Figure 5 fields at their offsets.
        let image = c.metadata_block_image(0);
        assert_eq!(read_bits(&image, 0, 56), c.reference(0));
        for b in 0..64u64 {
            let delta = read_bits(&image, 56 + 7 * b as u32, 7);
            assert_eq!(delta, c.delta(b), "block {b}");
            assert_eq!(read_bits(&image, 0, 56) + delta, c.counter(b));
        }
        assert_eq!(read_bits(&image, 504, 8), 0, "padding");
        // Unallocated group images are all zero.
        assert_eq!(c.metadata_block_image(99), [0u8; 64]);
    }

    #[test]
    fn the_paper_layout_and_a_full_line_construct() {
        assert_eq!(DeltaCounters::default().layout.used_bits(), 504);
        let full = DeltaConfig {
            reference_bits: 64,
            ..DeltaConfig::default()
        };
        assert_eq!(DeltaCounters::new(full).layout.used_bits(), 512);
    }

    #[test]
    #[should_panic(expected = "delta group does not fit one metadata block (568 bits)")]
    fn a_layout_wider_than_its_line_is_refused_at_construction() {
        let _ = DeltaCounters::new(DeltaConfig {
            delta_bits: 8,
            ..DeltaConfig::default()
        });
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
        let err = DeltaCounters::default()
            .decode_state(&mut ByteReader::new(&buf))
            .unwrap_err();
        assert_eq!(
            err.kind(),
            std::io::ErrorKind::InvalidData,
            "another layout"
        );
        let mut back = small();
        back.decode_state(&mut ByteReader::new(&buf)).unwrap();
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
            small().decode_state(r)
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
