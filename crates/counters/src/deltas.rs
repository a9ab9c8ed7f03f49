//! The one delta-counter scheme of Section 4, over the two line layouts
//! the paper draws: Figure 5's flat line and Figure 6's dual-length line.
//!
//! [`DeltaScheme`] holds each group as its packed line ([`Group`]) and
//! runs the frame-of-reference state machine on it: increment, delta
//! reset (Figure 5b), re-encode by the minimum (Figure 5c) and group
//! re-encryption (Figure 5a). The dual-length line adds one step, the
//! grant of the shared overflow bits to one delta-group (Figure 6). A
//! layout's configuration supplies what differs through [`Config`]:
//! the cap at each width, whether a delta-group can expand (a `const`,
//! so the flat path compiles the expansion out), the name, the layout
//! bytes and the per-group expansion field of the state section. Those
//! configurations are `delta::DeltaConfig` and `dual::DualLengthConfig`,
//! and the schemes they select are the `DeltaCounters` and
//! `DualLengthDeltaCounters` aliases.
//!
//! The increment rules are written once ([`bump`]), against
//! [`Deltas`], and run on a group in two forms. A scalar write, and a
//! run's stretch of consecutive same-group blocks shorter than
//! [`UNPACK_MIN`], bump the packed line in place. A longer stretch is
//! unpacked once into an [`Unpacked`] copy on the stack, bumped there
//! and packed once at its end. A run visits each group once per
//! stretch, as the hardware fetches one line for all of them.
//!
//! A group's tally answers Figure 5b's "have they all converged?" in
//! O(1). The hardware checks convergence on the one packed line it just
//! updated; scanning all 64 deltas after every write is the software
//! cost the tally removes. It tracks the largest delta and how many
//! deltas equal it: the group has converged exactly when that count is
//! the group size. A single increment, or log replay setting one delta,
//! updates the tally in O(1); the rare whole-group rewrites (reset,
//! re-encode, re-encryption, a replayed minimum or expansion moving,
//! decode) recount.
//! The tally is derived from the line and is never serialized.

use crate::packing::{Line, LineLayout, LINE_BITS};
use crate::{codec, split_block, CounterScheme, CounterStats, WriteOutcome};
use ame_persist::{
    invalid_data, put_sorted_table, put_u64, read_index_table, ByteReader, IndexMap,
};
use std::{fmt, io};

/// A delta group: the line is the state of record, the tally is derived
/// from the deltas it holds.
#[derive(Debug, Clone)]
pub(crate) struct Group {
    pub(crate) line: Line,
    pub(crate) tally: Tally,
}

impl Group {
    /// A never-written group of `n` blocks: the all-zero line.
    pub(crate) fn new(n: usize) -> Self {
        Self::zeroed(Line::default(), n)
    }

    /// A group whose `n` deltas are all zero in `line`.
    pub(crate) fn zeroed(line: Line, n: usize) -> Self {
        Self {
            line,
            tally: Tally { top: 0, at_top: n },
        }
    }

    /// A group packed whole from `deltas`.
    pub(crate) fn packed(line: Line, deltas: &[u64]) -> Self {
        Self {
            line,
            tally: Tally::of(deltas.iter().copied()),
        }
    }
}

/// The shortest stretch of same-group writes a run unpacks. Below it
/// the stretch bumps the packed line in place, because the unpack and
/// the re-pack of the whole group cost more than the stretch's bumps
/// save. Per block against in-place bumps, the unpacked form measured
/// ×1.0–1.2 at 16 blocks, ×0.8–1.0 at 32 and ×0.6 at 64 (2-vCPU AVX-512
/// host; the 64-block stretch is `crates/bench/benches/runs.rs`'s
/// `record_writes` leg).
pub(crate) const UNPACK_MIN: usize = 32;

/// The largest group a run unpacks: the paper's 64 blocks, so the copy
/// is one 512-byte stack array. Larger groups always bump in place.
pub(crate) const UNPACK_MAX: usize = 64;

/// What a delta layout's configuration tells [`DeltaScheme`]. It is
/// `pub` in this private module so that the public scheme aliases can
/// name it; only this crate implements it.
pub trait Config: Copy + fmt::Debug + Send {
    /// The scheme's name in state sections and experiment tables.
    const NAME: &'static str;

    /// Whether a delta-group can take the shared overflow bits (Figure
    /// 6). `false` compiles the expansion out of the flat path.
    const EXPANDS: bool;

    /// Bytes each group's expansion field takes in a state section.
    const EXPANSION_BYTES: usize;

    /// Where the group's fields sit in its line.
    type Layout: LineLayout;

    /// Validates the configuration and lays the group out in its line.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent or its line does not
    /// fit one 64-byte metadata block.
    fn layout(&self) -> Self::Layout;

    /// Blocks per group.
    fn blocks_per_group(&self) -> usize;

    /// The largest delta, at the widened width when `widened`.
    fn cap(&self, widened: bool) -> u64;

    /// Whether converged deltas fold into the reference (Figure 5b).
    fn reset_enabled(&self) -> bool;

    /// Whether an overflow re-encodes by the minimum (Figure 5c).
    fn reencode_enabled(&self) -> bool;

    /// The configuration as a state section records it.
    fn layout_bytes(&self) -> Vec<u8>;

    /// Counter storage cost in bits per data block (amortized).
    fn bits_per_block(&self) -> f64;

    /// Appends a group's expansion field to a state section.
    fn put_expansion(out: &mut Vec<u8>, expanded: Option<usize>);

    /// Reads a group's expansion field, refusing every encoding
    /// [`Config::put_expansion`] does not write.
    ///
    /// # Errors
    ///
    /// `InvalidData` on a short read or a non-canonical field.
    fn read_expansion(&self, r: &mut ByteReader<'_>) -> io::Result<Option<usize>>;
}

/// Delta-encoded counters over the line layout `C` selects.
///
/// Each group is held as its packed line: a counter read is the Decode
/// Unit on that line, a write rewrites the block's field(s), and
/// [`CounterScheme::metadata_block_image`] returns the line as it is.
#[derive(Debug, Clone)]
pub struct DeltaScheme<C: Config> {
    pub(crate) groups: IndexMap<Group>,
    pub(crate) config: C,
    pub(crate) layout: C::Layout,
    stats: CounterStats,
}

impl<C: Config> DeltaScheme<C> {
    /// Creates the scheme from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (see its field docs)
    /// or its line does not fit one 64-byte metadata block.
    #[must_use]
    pub fn new(config: C) -> Self {
        Self {
            groups: IndexMap::default(),
            layout: config.layout(),
            config,
            stats: CounterStats::default(),
        }
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &C {
        &self.config
    }

    /// Bytes of one group's entry in a state section: its index, its
    /// reference, its expansion field and its deltas.
    fn entry_len(&self) -> usize {
        16 + C::EXPANSION_BYTES + 8 * self.config.blocks_per_group()
    }
}

impl<C: Config + Default> Default for DeltaScheme<C> {
    fn default() -> Self {
        Self::new(C::default())
    }
}

impl<C: Config> CounterScheme for DeltaScheme<C> {
    fn counter(&self, block: u64) -> u64 {
        let (g, i) = split_block(block, self.config.blocks_per_group());
        self.groups
            .get(&g)
            .map_or(0, |grp| self.layout.counter(&grp.line, i))
    }

    fn record_write(&mut self, block: u64) -> WriteOutcome {
        let n = self.config.blocks_per_group();
        let (g, i) = split_block(block, n);
        let layout = &self.layout;
        let grp = self.groups.entry(g).or_insert_with(|| Group::new(n));
        let outcome = bump(&self.config, g, &mut Packed { layout, n, grp }, i);
        self.stats.record(&outcome);
        outcome
    }

    /// One group lookup per stretch of consecutive same-group `blocks`,
    /// each block bumped in the packed line or, for a stretch of
    /// `UNPACK_MIN` or more in a group of at most `UNPACK_MAX` blocks,
    /// in one unpacked copy packed back once when the stretch ends or
    /// stops at a re-encryption.
    fn record_writes(
        &mut self,
        blocks: &[u64],
        counters: &mut [u64],
    ) -> (usize, Option<WriteOutcome>) {
        let (cfg, layout) = (&self.config, &self.layout);
        let n = cfg.blocks_per_group();
        let counters = &mut counters[..blocks.len()];
        let mut k = 0;
        while let Some(&first) = blocks.get(k) {
            let (g, _) = split_block(first, n);
            let grp = self.groups.entry(g).or_insert_with(|| Group::new(n));
            let len = blocks[k..]
                .iter()
                .take_while(|&block| index_in(Some(block), g, n).is_some())
                .count();
            let (blocks, counters) = (&blocks[k..k + len], &mut counters[k..k + len]);
            let stats = &mut self.stats;
            let (done, stop) = if len >= UNPACK_MIN && n <= UNPACK_MAX {
                let mut unpacked = Unpacked::of(layout, grp, n);
                let done = write_stretch(cfg, g, &mut unpacked, stats, blocks, counters);
                *grp = unpacked.group();
                done
            } else {
                let packed = &mut Packed { layout, n, grp };
                write_stretch(cfg, g, packed, stats, blocks, counters)
            };
            k += done;
            if stop.is_some() {
                return (k, stop);
            }
        }
        (k, None)
    }

    /// One group lookup per stretch of consecutive same-group `blocks`;
    /// a never-written group's counters are zero.
    fn counters(&self, blocks: &[u64], counters: &mut [u64]) {
        let n = self.config.blocks_per_group();
        let counters = &mut counters[..blocks.len()];
        let mut k = 0;
        while let Some(&first) = blocks.get(k) {
            let (g, _) = split_block(first, n);
            let line = self.groups.get(&g).map(|grp| &grp.line);
            while let Some(i) = index_in(blocks.get(k), g, n) {
                counters[k] = line.map_or(0, |line| self.layout.counter(line, i));
                k += 1;
            }
        }
    }

    fn bits_per_block(&self) -> f64 {
        self.config.bits_per_block()
    }

    fn blocks_per_group(&self) -> usize {
        self.config.blocks_per_group()
    }

    fn stats(&self) -> CounterStats {
        self.stats
    }

    fn name(&self) -> &'static str {
        C::NAME
    }

    fn blocks_per_metadata_block(&self) -> usize {
        self.config.blocks_per_group()
    }

    /// The group's line as it is held: Figure 5's `reference ||
    /// deltas` (504 bits for the paper's 7-bit/64-block configuration),
    /// or Figure 6's `reference || valid || group-index || base deltas
    /// || overflow bits` (507 bits for the paper's).
    fn metadata_block_image(&self, meta_block: u64) -> [u8; 64] {
        // A never-written group is all zeros, which is the empty image.
        self.groups
            .get(&meta_block)
            .map_or([0; 64], |grp| grp.line.bytes())
    }

    fn encode_state(&self, out: &mut Vec<u8>) {
        let mut body = codec::begin_state(out, C::NAME, &self.config.layout_bytes());
        codec::put_stats(&mut body, &self.stats);
        let mut deltas = [0u64; LINE_BITS as usize];
        let deltas = &mut deltas[..self.config.blocks_per_group()];
        put_sorted_table(&mut body, self.groups.keys().copied(), |body, idx| {
            let (reference, expanded) = self.layout.unpack(&self.groups[&idx].line, deltas);
            put_u64(body, reference);
            C::put_expansion(body, expanded);
            for &d in deltas.iter() {
                put_u64(body, d);
            }
        });
        body.finish();
    }

    fn encoded_state_len(&self) -> usize {
        let table = 8 + self.groups.len() * self.entry_len();
        codec::state_len(C::NAME, self.config.layout_bytes().len() + table)
    }

    fn decode_state(&mut self, r: &mut ByteReader<'_>) -> io::Result<()> {
        let mut body = codec::read_state(r, C::NAME, &self.config.layout_bytes())?;
        let (cfg, layout) = (&self.config, &self.layout);
        let stats = codec::read_stats(&mut body)?;
        let groups = read_index_table(&mut body, self.entry_len(), |body| {
            let reference = body.u64()?;
            if reference > layout.reference_max() {
                return Err(invalid_data("reference exceeds its width"));
            }
            let expanded = cfg.read_expansion(body)?;
            let mut deltas = [0u64; LINE_BITS as usize];
            let deltas = &mut deltas[..cfg.blocks_per_group()];
            for (i, d) in deltas.iter_mut().enumerate() {
                *d = body.u64()?;
                if *d > cfg.cap(layout.widened(expanded, i)) {
                    return Err(invalid_data("delta exceeds its width"));
                }
            }
            Ok(Group::packed(
                layout.pack(reference, expanded, deltas),
                deltas,
            ))
        })?;
        self.stats = stats;
        self.groups = groups;
        Ok(())
    }

    /// Restores a counter *value* by re-deriving the group encoding: the
    /// reference becomes the group's minimum counter, every delta the
    /// offset above it, and on a dual-length line the shared overflow
    /// bits go to whichever single delta-group needs widening
    /// afterwards (an expansion no delta still needs is dropped). Fails
    /// when a delta exceeds even the widened cap, when two delta-groups
    /// need the overflow bits at once, or when the minimum exceeds the
    /// reference width — impossible for an honest log, which rotates
    /// into a snapshot at every re-encryption.
    ///
    /// Replay forces one counter per logged write, so when the
    /// reference and the expansion stay, delta `i` is rewritten in
    /// place; the group is re-packed only when the minimum or the
    /// expansion moves.
    fn force_counter(&mut self, block: u64, value: u64) -> io::Result<()> {
        let (cfg, layout) = (&self.config, &self.layout);
        let n = cfg.blocks_per_group();
        let (g, i) = split_block(block, n);
        let grp = self.groups.entry(g).or_insert_with(|| Group::new(n));
        let mut deltas = [0u64; LINE_BITS as usize];
        let deltas = &mut deltas[..n];
        let (reference, expanded) = layout.unpack(&grp.line, deltas);
        let old = deltas[i];
        let counter = |j: usize, d: u64| if j == i { value } else { reference + d };
        let min = (0..n)
            .map(|j| counter(j, deltas[j]))
            .min()
            .expect("non-empty group");
        if min > layout.reference_max() {
            return Err(invalid_data(
                "replayed counter not representable in its delta group",
            ));
        }
        let mut need = None;
        for (j, d) in deltas.iter_mut().enumerate() {
            *d = counter(j, *d) - min;
            if *d > cfg.cap(true) {
                return Err(invalid_data(
                    "replayed counter not representable in its delta group",
                ));
            }
            if *d > cfg.cap(false) {
                let dg = layout.delta_group(j);
                if need.is_some_and(|taken| taken != dg) {
                    return Err(invalid_data(
                        "replayed counter needs overflow bits in two delta-groups",
                    ));
                }
                need = Some(dg);
            }
        }
        if min == reference && need == expanded {
            // The other deltas already sit on this minimum.
            layout.set_delta(&mut grp.line, i, deltas[i], layout.widened(need, i));
            grp.tally
                .replaced(old, deltas[i], || Tally::of(deltas.iter().copied()));
        } else {
            *grp = Group::packed(layout.pack(min, need, deltas), deltas);
        }
        Ok(())
    }
}

/// A delta group as the increment rules read and rewrite it: its packed
/// line ([`Packed`]), or an [`Unpacked`] copy. `widened` says the
/// block's delta-group holds the extension slots; a flat line's never
/// does.
pub(crate) trait Deltas {
    /// The reference counter.
    fn reference(&self) -> u64;
    /// Which delta-group holds the extension slots.
    fn expanded(&self) -> Option<usize>;
    /// Whether block `i`'s delta is widened while `expanded` holds the
    /// extension slots.
    fn widened(&self, expanded: Option<usize>, i: usize) -> bool;
    /// Delta `i`.
    fn delta(&self, i: usize, widened: bool) -> u64;
    /// Raises delta `i` to `d` and tallies it.
    fn raise(&mut self, i: usize, d: u64, widened: bool);
    /// Hands the extension slots to block `i`'s delta-group and raises
    /// delta `i` to `d` at the widened width (dual-length only).
    fn expand(&mut self, i: usize, d: u64);
    /// The tally of the deltas.
    fn tally(&self) -> &Tally;
    /// All deltas zero under `reference`, with no expansion.
    fn reset(&mut self, reference: u64);
    /// The deltas into `deltas`, and the reference returned.
    fn unpack(&self, deltas: &mut [u64]) -> u64;
    /// Rewrites the whole group from `reference` and `deltas`, keeping
    /// its expansion, and recounts the tally.
    fn repack(&mut self, reference: u64, deltas: &[u64]);
    /// Block `i`'s counter: the Decode Unit.
    fn counter(&self, i: usize) -> u64;
}

/// Figure 5's increment, with Figure 6's expansion where the layout
/// has one: the one copy of the delta, reset, expansion, re-encode and
/// overflow rules, behind [`CounterScheme::record_write`] and both forms
/// of its run, for block `i` of group `g` held in `d`. It is generic, so
/// it is compiled in the crate that names a scheme, beside its callers;
/// `always` keeps it inline there at both of the packed form's call
/// sites.
#[inline(always)]
fn bump<C: Config>(cfg: &C, g: u64, d: &mut impl Deltas, i: usize) -> WriteOutcome {
    let expanded = if C::EXPANDS { d.expanded() } else { None };
    let widened = d.widened(expanded, i);
    let delta = d.delta(i, widened);
    if delta < cfg.cap(widened) {
        d.raise(i, delta + 1, widened);
        // Figure 5b: fold converged deltas into the reference; they all
        // fit the base width again, so the expansion goes.
        match d.tally().converged(cfg.blocks_per_group()) {
            Some(common) if cfg.reset_enabled() => {
                d.reset(d.reference() + common);
                WriteOutcome::Reset
            }
            _ => WriteOutcome::Incremented,
        }
    } else if C::EXPANDS && expanded.is_none() {
        // Figure 6: assign the shared overflow bits to this delta-group.
        d.expand(i, delta + 1);
        WriteOutcome::Expanded
    } else {
        overflow(cfg, g, d, i)
    }
}

/// The rare half of [`bump`], out of its way: delta `i` is at its
/// capacity and no overflow bits are free (a dual-length line's may be
/// held by its own delta-group at the widened capacity): re-encode, or
/// else re-encrypt. The whole group is unpacked once and rewritten.
#[cold]
#[inline(never)]
fn overflow<C: Config>(cfg: &C, g: u64, d: &mut impl Deltas, i: usize) -> WriteOutcome {
    let mut deltas = [0u64; LINE_BITS as usize];
    let deltas = &mut deltas[..cfg.blocks_per_group()];
    let reference = d.unpack(deltas);
    // Figure 5c: re-encode with a larger reference if every delta is
    // positive.
    let min = deltas.iter().copied().min().unwrap_or(0);
    if cfg.reencode_enabled() && min > 0 {
        deltas.iter_mut().for_each(|d| *d -= min);
        deltas[i] += 1;
        d.repack(reference + min, deltas);
        WriteOutcome::Reencoded
    } else {
        // Figure 5a: re-encrypt the group under a counter above every
        // block's old one. With a widened delta-group the largest delta
        // may exceed the overflowing one, so take the true maximum.
        let old_counters = deltas.iter().map(|d| reference + d).collect();
        let new_counter = reference + d.tally().max() + 1;
        d.reset(new_counter);
        WriteOutcome::Reencrypted {
            group: g,
            old_counters,
            new_counter,
        }
    }
}

/// The writes of one stretch of `blocks` in group `g`, bumped in `d`,
/// up to and including the first that re-encrypts: how many were
/// recorded, and that re-encryption.
fn write_stretch<C: Config>(
    cfg: &C,
    g: u64,
    d: &mut impl Deltas,
    stats: &mut CounterStats,
    blocks: &[u64],
    counters: &mut [u64],
) -> (usize, Option<WriteOutcome>) {
    let first = g * cfg.blocks_per_group() as u64;
    for (k, (&block, counter)) in blocks.iter().zip(counters).enumerate() {
        let i = (block - first) as usize;
        let outcome = bump(cfg, g, d, i);
        stats.record(&outcome);
        *counter = d.counter(i);
        if outcome.is_reencryption() {
            return (k + 1, Some(outcome));
        }
    }
    (blocks.len(), None)
}

/// The index of `block` within group `g` of `n` blocks, if it is there:
/// a subtraction and a compare, so a stretch pays one division.
fn index_in(block: Option<&u64>, g: u64, n: usize) -> Option<usize> {
    let i = block?.wrapping_sub(g * n as u64);
    (i < n as u64).then_some(i as usize)
}

/// A group in its packed line, bumped in place.
struct Packed<'a, L> {
    layout: &'a L,
    n: usize,
    grp: &'a mut Group,
}

impl<L: LineLayout> Deltas for Packed<'_, L> {
    #[inline]
    fn reference(&self) -> u64 {
        self.layout.reference(&self.grp.line)
    }

    #[inline]
    fn expanded(&self) -> Option<usize> {
        self.layout.expanded(&self.grp.line)
    }

    #[inline]
    fn widened(&self, expanded: Option<usize>, i: usize) -> bool {
        self.layout.widened(expanded, i)
    }

    #[inline]
    fn delta(&self, i: usize, widened: bool) -> u64 {
        self.layout.delta(&self.grp.line, i, widened)
    }

    #[inline]
    fn raise(&mut self, i: usize, d: u64, widened: bool) {
        self.layout.set_delta(&mut self.grp.line, i, d, widened);
        self.grp.tally.bumped(d);
    }

    #[inline]
    fn expand(&mut self, i: usize, d: u64) {
        self.layout.expand(&mut self.grp.line, i, d);
        self.grp.tally.bumped(d);
    }

    #[inline]
    fn tally(&self) -> &Tally {
        &self.grp.tally
    }

    #[inline]
    fn reset(&mut self, reference: u64) {
        *self.grp = Group::zeroed(self.layout.zeroed(reference), self.n);
    }

    fn unpack(&self, deltas: &mut [u64]) -> u64 {
        self.layout.unpack(&self.grp.line, deltas).0
    }

    fn repack(&mut self, reference: u64, deltas: &[u64]) {
        let line = self.layout.pack(reference, self.expanded(), deltas);
        *self.grp = Group::packed(line, deltas);
    }

    #[inline]
    fn counter(&self, i: usize) -> u64 {
        self.layout.counter(&self.grp.line, i)
    }
}

/// A group unpacked for a long stretch of writes: its reference, one
/// `u64` per delta, its expansion and its tally, so a bump is an array
/// store and a compare.
#[derive(Debug)]
struct Unpacked<'a, L> {
    layout: &'a L,
    reference: u64,
    expanded: Option<usize>,
    deltas: [u64; UNPACK_MAX],
    tally: Tally,
    /// Blocks in the group.
    n: usize,
}

impl<'a, L: LineLayout> Unpacked<'a, L> {
    /// Group `grp` of `n` blocks, laid out by `layout`, unpacked.
    fn of(layout: &'a L, grp: &Group, n: usize) -> Self {
        let mut deltas = [0; UNPACK_MAX];
        let (reference, expanded) = layout.unpack(&grp.line, &mut deltas[..n]);
        Self {
            layout,
            reference,
            expanded,
            deltas,
            tally: grp.tally,
            n,
        }
    }

    /// The group packed back into its line.
    fn group(&self) -> Group {
        let line = self
            .layout
            .pack(self.reference, self.expanded, &self.deltas[..self.n]);
        Group {
            line,
            tally: self.tally,
        }
    }
}

impl<L: LineLayout> Deltas for Unpacked<'_, L> {
    #[inline]
    fn reference(&self) -> u64 {
        self.reference
    }

    #[inline]
    fn expanded(&self) -> Option<usize> {
        self.expanded
    }

    #[inline]
    fn widened(&self, expanded: Option<usize>, i: usize) -> bool {
        self.layout.widened(expanded, i)
    }

    #[inline]
    fn delta(&self, i: usize, _widened: bool) -> u64 {
        self.deltas[i]
    }

    #[inline]
    fn raise(&mut self, i: usize, d: u64, _widened: bool) {
        self.deltas[i] = d;
        self.tally.bumped(d);
    }

    #[inline]
    fn expand(&mut self, i: usize, d: u64) {
        self.expanded = Some(self.layout.delta_group(i));
        self.raise(i, d, true);
    }

    #[inline]
    fn tally(&self) -> &Tally {
        &self.tally
    }

    #[inline]
    fn reset(&mut self, reference: u64) {
        self.reference = reference;
        self.expanded = None;
        self.deltas[..self.n].fill(0);
        self.tally = Group::new(self.n).tally;
    }

    fn unpack(&self, deltas: &mut [u64]) -> u64 {
        deltas.copy_from_slice(&self.deltas[..self.n]);
        self.reference
    }

    fn repack(&mut self, reference: u64, deltas: &[u64]) {
        self.reference = reference;
        self.deltas[..self.n].copy_from_slice(deltas);
        self.tally = Tally::of(deltas.iter().copied());
    }

    #[inline]
    fn counter(&self, i: usize) -> u64 {
        self.reference + self.deltas[i]
    }
}

/// The (largest delta, how many deltas equal it) tally of a group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Tally {
    top: u64,
    at_top: usize,
}

impl Tally {
    /// The tally of `deltas`, by one pass: the whole-group recount.
    pub(crate) fn of(deltas: impl IntoIterator<Item = u64>) -> Self {
        deltas.into_iter().fold(
            Self { top: 0, at_top: 0 },
            |Self { top, at_top }, d| match d.cmp(&top) {
                std::cmp::Ordering::Greater => Self { top: d, at_top: 1 },
                std::cmp::Ordering::Equal => Self {
                    top,
                    at_top: at_top + 1,
                },
                std::cmp::Ordering::Less => Self { top, at_top },
            },
        )
    }

    /// A delta was incremented to `d`, in O(1): it either passed the old
    /// largest value (and is now its only holder), reached it, or stays
    /// below it.
    pub(crate) fn bumped(&mut self, d: u64) {
        if d > self.top {
            self.top = d;
            self.at_top = 1;
        } else if d == self.top {
            self.at_top += 1;
        }
    }

    /// A delta was set from `old` to `new`, in O(1) unless it was the
    /// last delta at the largest value and fell below it: then the
    /// group is recounted.
    pub(crate) fn replaced(&mut self, old: u64, new: u64, recount: impl FnOnce() -> Self) {
        if new > self.top {
            self.top = new;
            self.at_top = 1;
        } else if new == self.top {
            self.at_top += usize::from(old != new);
        } else if old == self.top {
            self.at_top -= 1;
            if self.at_top == 0 {
                *self = recount();
            }
        }
    }

    /// The common value if all `n` deltas equal it and it is positive —
    /// Figure 5b's reset condition.
    pub(crate) fn converged(&self, n: usize) -> Option<u64> {
        (self.top > 0 && self.at_top == n).then_some(self.top)
    }

    /// The largest delta.
    pub(crate) fn max(&self) -> u64 {
        self.top
    }
}

#[cfg(test)]
impl Tally {
    /// The tally as tracked, for tests that hold it to [`tally_of`].
    pub(crate) fn pair(&self) -> (u64, usize) {
        (self.top, self.at_top)
    }
}

/// `(largest delta, how many deltas equal it)` by two scans: what the
/// tracked tally must always equal.
#[cfg(test)]
pub(crate) fn tally_of(deltas: &[u64]) -> (u64, usize) {
    let top = deltas.iter().copied().max().unwrap_or(0);
    (top, deltas.iter().filter(|&&d| d == top).count())
}

/// The scan `record_write` ran before the tally, kept as the oracle: the
/// common value if every delta equals the first and it is positive.
#[cfg(test)]
pub(crate) fn converged_by_scan(deltas: &[u64]) -> Option<u64> {
    let first = deltas[0];
    (first > 0 && deltas.iter().all(|&d| d == first)).then_some(first)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dual::{DualLengthConfig, DualLengthDeltaCounters};
    use ame_persist::{SectionWriter, SECTION_OVERHEAD};

    /// A dual-length group's expansion field has two encodings: flag 0
    /// with index 0, and flag 1 with a delta-group's index. Every other
    /// flag, and a flag of 0 with any other index, is refused under a
    /// valid checksum, so no two images decode to one state.
    #[test]
    fn decode_refuses_non_canonical_expansion_fields() {
        let tiny = || {
            DualLengthDeltaCounters::new(DualLengthConfig {
                base_bits: 2,
                extra_bits: 2,
                delta_groups: 2,
                blocks_per_group: 4,
                ..DualLengthConfig::default()
            })
        };
        let mut c = tiny();
        c.record_write(1);
        let mut image = Vec::new();
        c.encode_state(&mut image);
        // The one group's flag byte, before its index and four deltas.
        let payload = &image[SECTION_OVERHEAD - 8..image.len() - 8];
        let flag = payload.len() - 4 * 8 - 9;
        let reseal = |flag_byte: u8, index: u64| {
            let mut forged = payload.to_vec();
            forged[flag] = flag_byte;
            forged[flag + 1..flag + 9].copy_from_slice(&index.to_le_bytes());
            let mut out = Vec::new();
            let mut section = SectionWriter::begin(&mut out, codec::MAGIC, codec::VERSION);
            section.extend_from_slice(&forged);
            section.finish();
            out
        };
        let decode = |image: &[u8]| tiny().decode_state(&mut ByteReader::new(image));
        assert_eq!(reseal(0, 0), image, "the field as written");
        decode(&reseal(1, 1)).expect("delta-group 1 expanded is a state");
        for (flag_byte, index) in [(2, 0), (0xff, 1), (0, 1), (1, 2)] {
            let err = decode(&reseal(flag_byte, index)).unwrap_err();
            assert_eq!(
                err.kind(),
                io::ErrorKind::InvalidData,
                "flag {flag_byte} index {index}: {err}"
            );
        }
    }

    #[test]
    fn tally_matches_a_recount_under_random_bumps_and_rewrites() {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for n in [1usize, 2, 4, 64] {
            let mut d = vec![0u64; n];
            let mut tally = Group::new(n).tally;
            for step in 0..20_000 {
                let r = next();
                let i = (r >> 8) as usize % n;
                match r % 16 {
                    0 => d.fill(0),
                    1 => {
                        let min = d.iter().copied().min().unwrap();
                        d.iter_mut().for_each(|v| *v -= min);
                    }
                    2 => d
                        .iter_mut()
                        .enumerate()
                        .for_each(|(j, v)| *v = (r >> (8 + j % 32)) % 5),
                    3..=5 => {
                        // One delta set, as log replay does.
                        let new = (r >> 16) % 6;
                        let old = std::mem::replace(&mut d[i], new);
                        tally.replaced(old, new, || Tally::of(d.iter().copied()));
                    }
                    _ => {
                        d[i] += 1;
                        tally.bumped(d[i]);
                    }
                }
                if r % 16 < 3 {
                    tally = Group::packed(Line::default(), &d).tally;
                }
                assert_eq!(tally.pair(), tally_of(&d), "n {n} step {step}");
                assert_eq!(
                    tally.converged(n),
                    converged_by_scan(&d),
                    "n {n} step {step}"
                );
            }
        }
    }
}
