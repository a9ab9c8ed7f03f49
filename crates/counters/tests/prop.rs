//! Property tests for the counter schemes: cross-checks between the
//! in-memory scheme state and the packed metadata images (what would
//! actually sit in DRAM), plus structural invariants.
//!
//! The delta schemes hold each group as its packed line; the model test
//! holds that line to a field-by-field oracle.
//!
//! Driven by seeded `ame-prng` randomized loops (the workspace builds
//! offline, so there is no proptest); each test explores a few hundred
//! random cases deterministically.

use ame_counters::delta::{DeltaConfig, DeltaCounters};
use ame_counters::dual::{DualLengthConfig, DualLengthDeltaCounters};
use ame_counters::monolithic::MonolithicCounters;
use ame_counters::packing::{read_bits, write_bits};
use ame_counters::split::SplitCounters;
use ame_counters::{split_block, CounterScheme, WriteOutcome};
use ame_persist::ByteReader;
use ame_prng::StdRng;
use std::collections::BTreeMap;

/// A random write stream over `blocks` block indices.
fn write_stream(rng: &mut StdRng, blocks: u64, max_len: usize) -> Vec<u64> {
    let len = rng.gen_range(1..max_len);
    (0..len).map(|_| rng.gen_range(0..blocks)).collect()
}

/// The hardware Decode Unit on a Figure 5 image: the 7-bit delta at its
/// offset plus the 56-bit reference.
fn decode_flat(image: &[u8; 64], i: usize) -> u64 {
    read_bits(image, 0, 56) + read_bits(image, 56 + 7 * i as u32, 7)
}

/// The Decode Unit on a Figure 6 image: the 6-bit base delta, with its
/// 4 overflow bits above it when its delta-group is the expanded one,
/// plus the reference.
fn decode_dual(image: &[u8; 64], i: usize) -> u64 {
    let mut delta = read_bits(image, 59 + 6 * i as u32, 6);
    if read_bits(image, 56, 1) == 1 && read_bits(image, 57, 2) as usize == i / 16 {
        delta |= read_bits(image, 443 + 4 * (i % 16) as u32, 4) << 6;
    }
    read_bits(image, 0, 56) + delta
}

/// The packed image decoded by the hardware Decode Unit must agree
/// with the scheme's own counter values, through resets, re-encodes
/// and re-encryptions.
#[test]
fn delta_image_decodes_to_scheme_counters() {
    let mut rng = StdRng::seed_from_u64(0xC0_01);
    for _ in 0..128 {
        let writes = write_stream(&mut rng, 64, 600);
        let mut scheme = DeltaCounters::default();
        for &b in &writes {
            scheme.record_write(b);
        }
        let image = scheme.metadata_block_image(0);
        for b in 0..64u64 {
            assert_eq!(
                decode_flat(&image, b as usize),
                scheme.counter(b),
                "block {b}"
            );
        }
    }
}

#[test]
fn dual_image_decodes_to_scheme_counters() {
    let mut rng = StdRng::seed_from_u64(0xC0_02);
    for _ in 0..128 {
        let writes = write_stream(&mut rng, 64, 600);
        let mut scheme = DualLengthDeltaCounters::default();
        for &b in &writes {
            scheme.record_write(b);
        }
        let image = scheme.metadata_block_image(0);
        for b in 0..64u64 {
            assert_eq!(
                decode_dual(&image, b as usize),
                scheme.counter(b),
                "block {b}"
            );
        }
    }
}

/// A delta scheme's configuration, as the model reads it.
#[derive(Debug, Clone, Copy)]
enum Layout {
    Flat(DeltaConfig),
    Dual(DualLengthConfig),
}

impl Layout {
    fn scheme(self) -> Box<dyn CounterScheme> {
        match self {
            Layout::Flat(cfg) => Box::new(DeltaCounters::new(cfg)),
            Layout::Dual(cfg) => Box::new(DualLengthDeltaCounters::new(cfg)),
        }
    }

    fn blocks(self) -> usize {
        match self {
            Layout::Flat(cfg) => cfg.blocks_per_group,
            Layout::Dual(cfg) => cfg.blocks_per_group,
        }
    }

    fn reset_enabled(self) -> bool {
        match self {
            Layout::Flat(cfg) => cfg.reset_enabled,
            Layout::Dual(cfg) => cfg.reset_enabled,
        }
    }

    fn reencode_enabled(self) -> bool {
        match self {
            Layout::Flat(cfg) => cfg.reencode_enabled,
            Layout::Dual(cfg) => cfg.reencode_enabled,
        }
    }

    /// The delta-group of block `i` (flat groups have one).
    fn delta_group(self, i: usize) -> usize {
        match self {
            Layout::Flat(_) => 0,
            Layout::Dual(cfg) => i / cfg.blocks_per_delta_group(),
        }
    }

    /// The largest delta block `i` holds while `expanded` holds the
    /// overflow bits.
    fn cap(self, expanded: Option<usize>, i: usize) -> u64 {
        match self {
            Layout::Flat(cfg) => cfg.delta_max(),
            Layout::Dual(cfg) if expanded == Some(self.delta_group(i)) => cfg.expanded_max(),
            Layout::Dual(cfg) => cfg.base_max(),
        }
    }
}

/// One group as plain fields.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Plain {
    reference: u64,
    deltas: Vec<u64>,
    expanded: Option<usize>,
}

/// The oracle the packed line is held to: every group as plain fields
/// (a reference, one `u64` per delta, the expanded delta-group), written
/// and forced by the schemes' definitions, and imaged by a per-field
/// `write_bits` packer independent of the schemes' layout code.
struct Model {
    layout: Layout,
    groups: BTreeMap<u64, Plain>,
}

impl Model {
    fn new(layout: Layout) -> Self {
        Self {
            layout,
            groups: BTreeMap::new(),
        }
    }

    fn group(&mut self, g: u64) -> &mut Plain {
        let n = self.layout.blocks();
        self.groups.entry(g).or_insert_with(|| Plain {
            reference: 0,
            deltas: vec![0; n],
            expanded: None,
        })
    }

    fn counter(&self, block: u64) -> u64 {
        let (g, i) = split_block(block, self.layout.blocks());
        self.groups
            .get(&g)
            .map_or(0, |grp| grp.reference + grp.deltas[i])
    }

    fn record_write(&mut self, block: u64) -> WriteOutcome {
        let layout = self.layout;
        let (g, i) = split_block(block, layout.blocks());
        let grp = self.group(g);
        let cap = layout.cap(grp.expanded, i);
        if grp.deltas[i] < cap {
            grp.deltas[i] += 1;
            let first = grp.deltas[0];
            if layout.reset_enabled() && first > 0 && grp.deltas.iter().all(|&d| d == first) {
                grp.reference += first;
                grp.deltas.fill(0);
                grp.expanded = None;
                WriteOutcome::Reset
            } else {
                WriteOutcome::Incremented
            }
        } else if matches!(layout, Layout::Dual(_)) && grp.expanded.is_none() {
            grp.expanded = Some(layout.delta_group(i));
            grp.deltas[i] += 1;
            WriteOutcome::Expanded
        } else {
            let min = *grp.deltas.iter().min().unwrap();
            if layout.reencode_enabled() && min > 0 {
                grp.reference += min;
                grp.deltas.iter_mut().for_each(|d| *d -= min);
                grp.deltas[i] += 1;
                WriteOutcome::Reencoded
            } else {
                let old_counters = grp.deltas.iter().map(|d| grp.reference + d).collect();
                let new_counter = grp.reference + grp.deltas.iter().max().unwrap() + 1;
                grp.reference = new_counter;
                grp.deltas.fill(0);
                grp.expanded = None;
                WriteOutcome::Reencrypted {
                    group: g,
                    old_counters,
                    new_counter,
                }
            }
        }
    }

    /// The group's counters with `block`'s replaced by `value`,
    /// re-encoded around their minimum; `false` if that encoding does
    /// not exist.
    fn force_counter(&mut self, block: u64, value: u64) -> bool {
        let layout = self.layout;
        let (g, i) = split_block(block, layout.blocks());
        let grp = self.group(g);
        let mut counters: Vec<u64> = grp.deltas.iter().map(|d| grp.reference + d).collect();
        counters[i] = value;
        let min = *counters.iter().min().unwrap();
        let deltas: Vec<u64> = counters.iter().map(|c| c - min).collect();
        let mut wide: Vec<usize> = (0..deltas.len())
            .filter(|&j| deltas[j] > layout.cap(None, j))
            .map(|j| layout.delta_group(j))
            .collect();
        wide.dedup();
        let expanded = match (layout, &wide[..]) {
            (_, []) => None,
            (Layout::Dual(_), &[dg]) => Some(dg),
            _ => return false,
        };
        if (0..deltas.len()).any(|j| deltas[j] > layout.cap(expanded, j)) {
            return false;
        }
        *grp = Plain {
            reference: min,
            deltas,
            expanded,
        };
        true
    }

    /// Group `g`'s image, packed field by field.
    fn image(&self, g: u64) -> [u8; 64] {
        let mut image = [0u8; 64];
        let Some(grp) = self.groups.get(&g) else {
            return image;
        };
        match self.layout {
            Layout::Flat(cfg) => {
                write_bits(&mut image, 0, cfg.reference_bits, grp.reference);
                for (i, &d) in grp.deltas.iter().enumerate() {
                    let at = cfg.reference_bits + cfg.delta_bits * i as u32;
                    write_bits(&mut image, at, cfg.delta_bits, d);
                }
            }
            Layout::Dual(cfg) => {
                let index_bits = (usize::BITS - (cfg.delta_groups - 1).leading_zeros()).max(1);
                let mut at = cfg.reference_bits;
                write_bits(&mut image, 0, at, grp.reference);
                write_bits(&mut image, at, 1, u64::from(grp.expanded.is_some()));
                at += 1;
                write_bits(&mut image, at, index_bits, grp.expanded.unwrap_or(0) as u64);
                at += index_bits;
                let ext = at + cfg.base_bits * cfg.blocks_per_group as u32;
                for (i, &d) in grp.deltas.iter().enumerate() {
                    let base = d & ((1 << cfg.base_bits) - 1);
                    write_bits(
                        &mut image,
                        at + cfg.base_bits * i as u32,
                        cfg.base_bits,
                        base,
                    );
                    if grp.expanded == Some(self.layout.delta_group(i)) {
                        let slot = (i % cfg.blocks_per_delta_group()) as u32;
                        let high = d >> cfg.base_bits;
                        write_bits(
                            &mut image,
                            ext + cfg.extra_bits * slot,
                            cfg.extra_bits,
                            high,
                        );
                    }
                }
            }
        }
        image
    }
}

/// Seeded sequences of writes, forced counters and state round trips on
/// both delta schemes, held after every step to the model: the image,
/// every counter of the touched group and each write's outcome must be
/// the model's. The narrow layouts make overflow, expansion, re-encoding
/// and re-encryption frequent.
#[test]
fn the_packed_line_matches_the_field_by_field_model() {
    let flat = DeltaConfig::default();
    let dual = DualLengthConfig::default();
    let mut layouts = vec![Layout::Flat(flat), Layout::Dual(dual)];
    for (reset_enabled, reencode_enabled) in [(true, true), (false, true), (true, false)] {
        for delta_bits in [2, 3] {
            layouts.push(Layout::Flat(DeltaConfig {
                delta_bits,
                blocks_per_group: 8,
                reset_enabled,
                reencode_enabled,
                ..flat
            }));
        }
        for (base_bits, extra_bits, delta_groups) in [(2, 2, 2), (2, 3, 4), (3, 2, 8)] {
            layouts.push(Layout::Dual(DualLengthConfig {
                base_bits,
                extra_bits,
                delta_groups,
                blocks_per_group: 8,
                reset_enabled,
                reencode_enabled,
                ..dual
            }));
        }
    }
    let mut seen = [0u64; 6];
    for (n, &layout) in layouts.iter().enumerate() {
        let bpg = layout.blocks() as u64;
        let mut rng = StdRng::seed_from_u64(0x11e5 + n as u64);
        let mut scheme = layout.scheme();
        let mut model = Model::new(layout);
        for step in 0..6_000u64 {
            let r = rng.next_u64();
            // Sweeps (resets), uniform writes over three groups
            // (re-encodes) and hot blocks (expansions, re-encryptions).
            let block = match step / 500 % 3 {
                0 => step % (2 * bpg),
                1 => r % (3 * bpg),
                _ if r.is_multiple_of(4) => r % bpg,
                _ => [1, bpg - 2][(r >> 8) as usize % 2],
            };
            let what = format!("{layout:?} step {step} block {block}");
            match r >> 58 {
                0 => {
                    let mut bytes = Vec::new();
                    scheme.encode_state(&mut bytes);
                    scheme = layout.scheme();
                    scheme.decode_state(&mut ByteReader::new(&bytes)).unwrap();
                    let mut again = Vec::new();
                    scheme.encode_state(&mut again);
                    assert_eq!(again, bytes, "{what}: round trip");
                    seen[0] += 1;
                }
                1..=3 => {
                    let value = model.counter(block) + (r >> 8) % (2 * bpg);
                    let ok = model.force_counter(block, value);
                    assert_eq!(
                        scheme.force_counter(block, value).is_ok(),
                        ok,
                        "{what}: force"
                    );
                    seen[1] += u64::from(ok);
                }
                _ => {
                    let outcome = model.record_write(block);
                    assert_eq!(scheme.record_write(block), outcome, "{what}: outcome");
                    match outcome {
                        WriteOutcome::Incremented => {}
                        WriteOutcome::Reset => seen[2] += 1,
                        WriteOutcome::Reencoded => seen[3] += 1,
                        WriteOutcome::Expanded => seen[4] += 1,
                        WriteOutcome::Reencrypted { .. } => seen[5] += 1,
                    }
                }
            }
            let g = block / bpg;
            assert_eq!(
                scheme.metadata_block_image(g),
                model.image(g),
                "{what}: image"
            );
            for b in g * bpg..(g + 1) * bpg {
                assert_eq!(scheme.counter(b), model.counter(b), "{what}: counter {b}");
            }
        }
        for g in 0..4 {
            assert_eq!(scheme.metadata_block_image(g), model.image(g), "{layout:?}");
        }
    }
    // Round trips, successful forces, resets, re-encodes, expansions and
    // re-encryptions all happened.
    assert!(seen.iter().all(|&n| n > 0), "{seen:?}");
}

/// Monolithic counters are exact write counts (they never jump).
#[test]
fn monolithic_counts_exactly() {
    let mut rng = StdRng::seed_from_u64(0xC0_03);
    for _ in 0..128 {
        let writes = write_stream(&mut rng, 16, 300);
        let mut scheme = MonolithicCounters::default();
        let mut expected = [0u64; 16];
        for &b in &writes {
            scheme.record_write(b);
            expected[b as usize] += 1;
        }
        for b in 0..16u64 {
            assert_eq!(scheme.counter(b), expected[b as usize]);
        }
    }
}

/// Every compact scheme's counter is always >= the true write count
/// (representation changes may only skip counters forward, never
/// reuse one) — the nonce-freshness direction of safety.
#[test]
fn compact_counters_never_lag_write_counts() {
    let mut rng = StdRng::seed_from_u64(0xC0_04);
    for _ in 0..128 {
        let writes = write_stream(&mut rng, 8, 500);
        let mut split = SplitCounters::new(3, 8);
        let mut delta = DeltaCounters::default();
        let mut dual = DualLengthDeltaCounters::default();
        let mut expected = [0u64; 8];
        for &b in &writes {
            split.record_write(b);
            delta.record_write(b);
            dual.record_write(b);
            expected[b as usize] += 1;
        }
        for b in 0..8u64 {
            assert!(split.counter(b) >= expected[b as usize], "split block {b}");
            assert!(delta.counter(b) >= expected[b as usize], "delta block {b}");
            assert!(dual.counter(b) >= expected[b as usize], "dual block {b}");
        }
    }
}

/// Identical write streams must produce identical scheme state
/// (schemes are deterministic).
#[test]
fn schemes_are_deterministic() {
    let mut rng = StdRng::seed_from_u64(0xC0_05);
    for _ in 0..128 {
        let writes = write_stream(&mut rng, 64, 200);
        let mut a = DeltaCounters::default();
        let mut b = DeltaCounters::default();
        for &blk in &writes {
            assert_eq!(a.record_write(blk), b.record_write(blk));
        }
        assert_eq!(a.metadata_block_image(0), b.metadata_block_image(0));
        assert_eq!(a.stats(), b.stats());
    }
}

/// Split counters: every block of a group shares the same major
/// counter (that is what makes the scheme compact — and what forces
/// whole-group re-encryption on overflow).
#[test]
fn split_counters_share_one_major_per_group() {
    let mut rng = StdRng::seed_from_u64(0xC0_06);
    for _ in 0..128 {
        let writes = write_stream(&mut rng, 8, 400);
        let mut s = SplitCounters::new(3, 8);
        for &b in &writes {
            s.record_write(b);
        }
        let major = s.counter(0) >> 3;
        for b in 1..8u64 {
            assert_eq!(s.counter(b) >> 3, major, "block {b} major differs");
        }
    }
}

/// A run of writes in one of the shapes a fused run takes: an ascending
/// or descending stretch across group boundaries, blocks scattered over
/// three groups, or a hot block between its neighbours (overflowing its
/// group mid-run).
fn shaped_run(rng: &mut StdRng, bpg: u64) -> Vec<u64> {
    let len = rng.gen_range(1u64..=3 * bpg);
    let first = rng.gen_range(0..4 * bpg);
    match rng.gen_range(0..4) {
        0 => (first..first + len).collect(),
        1 => (first..first + len).rev().collect(),
        2 => (0..len).map(|_| rng.gen_range(0..3 * bpg)).collect(),
        _ => (0..len)
            .map(|k| if k % 3 == 0 { first + k } else { bpg + 1 })
            .collect(),
    }
}

/// The run forms — `record_writes` and `counters` — against per-block
/// `record_write` and `counter` on a twin instance, for every scheme at
/// its paper layout and at a narrow one that overflows often: each
/// call records the same writes, stops after the same re-encryption
/// with the same outcome, hands back each write's new counter, and
/// leaves the same statistics and images.
#[test]
fn run_forms_match_per_block_writes_and_reads() {
    let narrow_flat = DeltaConfig {
        delta_bits: 2,
        blocks_per_group: 8,
        ..DeltaConfig::default()
    };
    let narrow_dual = DualLengthConfig {
        base_bits: 2,
        extra_bits: 2,
        delta_groups: 2,
        blocks_per_group: 8,
        ..DualLengthConfig::default()
    };
    type Build<'a> = &'a dyn Fn() -> Box<dyn CounterScheme>;
    let schemes: [(&str, Build, bool); 8] = [
        ("delta", &|| Box::new(DeltaCounters::default()), false),
        (
            "delta 2-bit",
            &|| Box::new(DeltaCounters::new(narrow_flat)),
            true,
        ),
        (
            "dual",
            &|| Box::new(DualLengthDeltaCounters::default()),
            false,
        ),
        (
            "dual 2+2",
            &|| Box::new(DualLengthDeltaCounters::new(narrow_dual)),
            true,
        ),
        ("split", &|| Box::new(SplitCounters::default()), false),
        ("split 2-bit", &|| Box::new(SplitCounters::new(2, 8)), true),
        (
            "monolithic",
            &|| Box::new(MonolithicCounters::default()),
            false,
        ),
        (
            "monolithic 3-bit",
            &|| Box::new(MonolithicCounters::new(3)),
            true,
        ),
    ];
    for (n, (name, build, narrow)) in schemes.into_iter().enumerate() {
        let (mut by_run, mut by_block) = (build(), build());
        let bpg = by_run.blocks_per_group().max(8) as u64;
        let mut rng = StdRng::seed_from_u64(0x40_00 + n as u64);
        let mut stopped_mid_run = 0;
        for round in 0..2_000 {
            let run = shaped_run(&mut rng, bpg);
            let what = format!("{name} round {round} run {run:?}");
            let (mut got, mut want) = (vec![0; run.len()], vec![0; run.len()]);
            let mut k = 0;
            while k < run.len() {
                let (recorded, outcome) = by_run.record_writes(&run[k..], &mut got[k..]);
                let mut expected = (run.len() - k, None);
                for j in k..run.len() {
                    let o = by_block.record_write(run[j]);
                    want[j] = by_block.counter(run[j]);
                    if o.is_reencryption() {
                        expected = (j + 1 - k, Some(o));
                        break;
                    }
                }
                assert_eq!((recorded, outcome), expected, "{what} from {k}");
                k += recorded;
                stopped_mid_run += u64::from(k < run.len());
            }
            assert_eq!(got, want, "{what}: counters");
            assert_eq!(by_run.stats(), by_block.stats(), "{what}: stats");
            let probe: Vec<u64> = (0..bpg)
                .map(|_| rng.gen_range(0..8 * bpg))
                .chain(run.iter().copied())
                .collect();
            let mut counters = vec![0; probe.len()];
            by_run.counters(&probe, &mut counters);
            let scalar: Vec<u64> = probe.iter().map(|&b| by_block.counter(b)).collect();
            assert_eq!(counters, scalar, "{what}: counter reads");
        }
        let meta = by_run.blocks_per_metadata_block() as u64;
        for m in 0..8 * bpg / meta {
            assert_eq!(
                by_run.metadata_block_image(m),
                by_block.metadata_block_image(m),
                "{name}: image {m}"
            );
        }
        let stats = by_run.stats();
        if narrow {
            assert!(stopped_mid_run > 0, "{name}: no run stopped early");
            assert!(stats.reencryptions > 0, "{name}: {stats}");
        }
        if name.starts_with("delta") || name.starts_with("dual") {
            assert!(stats.resets > 0, "{name}: {stats}");
        }
        if narrow && (name.starts_with("delta") || name.starts_with("dual")) {
            assert!(stats.reencodes > 0, "{name}: {stats}");
        }
        if name.starts_with("dual") {
            assert!(stats.expansions > 0, "{name}: {stats}");
        }
    }
}

/// A caller's counters slice shorter than its blocks is a bug, not a
/// truncation.
#[test]
#[should_panic]
fn a_short_counters_slice_is_refused() {
    DeltaCounters::default().record_writes(&[1, 2], &mut [0]);
}
