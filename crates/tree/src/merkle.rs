//! A functional Bonsai Merkle tree: authenticated storage for counter
//! blocks with tamper and replay detection.
//!
//! The leaf level holds 64-byte *counter blocks* (packed delta groups or
//! monolithic counters). Every counter block's 64-bit MAC is stored in an
//! off-chip parent node; parent nodes are themselves MAC'd into grandparent
//! nodes, and the MACs of the top level live in on-chip SRAM, which the
//! attacker cannot touch. Resetting any off-chip state to an older value
//! (a replay) breaks the MAC chain somewhere below the on-chip root and is
//! detected.

use ame_crypto::MemoryCipher;
use ame_persist::{
    invalid_data, put_sorted_table, put_u64, read_section, read_sorted_table, ByteReader, IndexMap,
    SectionWriter,
};
use std::io;

/// Size of a counter block / tree node in bytes.
pub const NODE_BYTES: usize = 64;

/// Path levels whose MAC masks one pipelined AES pass fetches: a walk
/// holds this many masks on the stack and refills them every
/// `PAD_CHUNK` levels, so a tree of up to seven off-chip levels needs
/// one pass per walk.
const PAD_CHUNK: usize = 8;

/// Verification failure: the MAC chain broke at `level` (0 = the counter
/// block itself) on node `node`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerifyError {
    /// Level at which the mismatch was found (0 = leaf/counter level).
    pub level: usize,
    /// Node index within that level.
    pub node: u64,
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "integrity violation at tree level {} node {}",
            self.level, self.node
        )
    }
}

impl std::error::Error for VerifyError {}

/// One off-chip tree node: the 64-bit MACs of its (up to eight)
/// children, plus which child slots were ever written — an absent child
/// reads as MAC 0, but only written ones are part of the serialized state.
#[derive(Debug, Clone, Copy, Default)]
struct Node {
    child_macs: [u64; 8],
    present: u8,
}

impl Node {
    /// The node as it sits in node storage and as it is MAC'd: the child
    /// MACs packed little-endian.
    fn image(&self) -> [u8; NODE_BYTES] {
        let mut image = [0u8; NODE_BYTES];
        for (bytes, mac) in image.chunks_exact_mut(8).zip(self.child_macs) {
            bytes.copy_from_slice(&mac.to_le_bytes());
        }
        image
    }

    fn set_child_mac(&mut self, slot: usize, mac: u64) {
        self.child_macs[slot] = mac;
        self.present |= 1 << slot;
    }
}

/// A functional Bonsai Merkle tree over counter blocks.
///
/// # Example
///
/// ```
/// use ame_crypto::MemoryCipher;
/// use ame_tree::BonsaiTree;
///
/// let mut tree = BonsaiTree::new(MemoryCipher::from_seed(1), 2, 8);
/// tree.write_counter_block(5, [0xab; 64]);
/// assert_eq!(tree.read_counter_block(5).unwrap(), [0xab; 64]);
///
/// // Off-chip tampering is detected:
/// tree.tamper_counter_block(5, |b| b[0] ^= 1);
/// assert!(tree.read_counter_block(5).is_err());
/// ```
#[derive(Debug)]
pub struct BonsaiTree {
    cipher: MemoryCipher,
    arity: usize,
    /// Number of *off-chip* MAC levels. MACs of level-`l` nodes (level 0
    /// = leaf counter blocks) live in the level-`l + 1` node above them;
    /// the MACs of level `off_chip_levels` are the on-chip root map.
    off_chip_levels: usize,
    counter_blocks: IndexMap<[u8; NODE_BYTES]>,
    /// `nodes[l][p]` = off-chip node `p` of level `l + 1`: the image of
    /// its children's MACs, i.e. of nodes `p * arity ..` of level `l`.
    nodes: Vec<IndexMap<Node>>,
    /// On-chip (tamper-proof) MACs of the top off-chip level.
    root_macs: IndexMap<u64>,
}

impl BonsaiTree {
    /// Creates a tree with `off_chip_levels` MAC levels below the on-chip
    /// root and the given node `arity`.
    ///
    /// # Panics
    ///
    /// Panics if `arity` is not in `2..=8` (a 64-byte node holds at most
    /// eight 64-bit MACs).
    #[must_use]
    pub fn new(cipher: MemoryCipher, off_chip_levels: usize, arity: usize) -> Self {
        assert!(
            (2..=8).contains(&arity),
            "a 64-byte node holds 2..=8 64-bit MACs"
        );
        Self {
            cipher,
            arity,
            off_chip_levels,
            counter_blocks: IndexMap::default(),
            nodes: vec![IndexMap::default(); off_chip_levels],
            root_macs: IndexMap::default(),
        }
    }

    /// Number of off-chip MAC levels.
    #[must_use]
    pub fn off_chip_levels(&self) -> usize {
        self.off_chip_levels
    }

    /// The cipher that makes the tree's MACs (its counts are the tree's
    /// tags).
    #[must_use]
    pub fn cipher(&self) -> &MemoryCipher {
        &self.cipher
    }

    /// The `(address, counter)` nonce of a node's MAC: (level, index) in
    /// the address input so identical content at different tree
    /// positions yields different MACs.
    fn node_nonce(level: usize, idx: u64) -> (u64, u64) {
        (((level as u64 + 1) << 48) ^ idx, 0)
    }

    /// `(parent index, slot within the parent)` of node `idx`.
    fn parent_of(&self, idx: u64) -> (u64, usize) {
        let arity = self.arity as u64;
        (idx / arity, (idx % arity) as usize)
    }

    /// The stored MAC of node `idx` of off-chip level `level` (0 if
    /// never written).
    fn stored_mac(&self, level: usize, idx: u64) -> u64 {
        let (parent, slot) = self.parent_of(idx);
        self.nodes[level]
            .get(&parent)
            .map_or(0, |node| node.child_macs[slot])
    }

    fn set_stored_mac(&mut self, level: usize, idx: u64, mac: u64) {
        let (parent, slot) = self.parent_of(idx);
        self.nodes[level]
            .entry(parent)
            .or_default()
            .set_child_mac(slot, mac);
    }

    /// The MAC mask of the path node `node` at `level`. Masks do not
    /// depend on content, so every [`PAD_CHUNK`]-th level fetches the
    /// masks of the next `PAD_CHUNK` path levels into `pads` in one
    /// pipelined AES pass; a walk calls this once per level, bottom up.
    fn pad_at(&self, pads: &mut [u64; PAD_CHUNK], level: usize, node: u64) -> u64 {
        let at = level % PAD_CHUNK;
        if at == 0 {
            let len = (self.off_chip_levels + 1 - level).min(PAD_CHUNK);
            let mut nonces = [(0, 0); PAD_CHUNK];
            let mut node = node;
            for (offset, nonce) in nonces[..len].iter_mut().enumerate() {
                *nonce = Self::node_nonce(level + offset, node);
                node /= self.arity as u64;
            }
            self.cipher.mac_node_pads(&nonces[..len], &mut pads[..len]);
        }
        pads[at]
    }

    /// Re-MACs the path from leaf `idx` to the root after a change. Each
    /// node's MAC feeds its parent's image, so the hashes are serial; the
    /// AES masks are fetched for the whole path up front.
    ///
    /// The sibling MACs a parent's new image is built from are off-chip
    /// and unverified, so each path node's *old* image is checked against
    /// the MAC its parent holds for it before the new MAC replaces that
    /// one (same nonce, so no extra AES). Propagation stops at the lowest
    /// node that fails: it takes its child's new MAC but keeps the
    /// mismatch with its parent, so every read through it still fails —
    /// a replayed or forged sibling is never laundered into a valid path.
    /// A never-written node (no child ever set, and no MAC in its parent)
    /// is the trusted boot state and needs no check. The leaf itself is
    /// replaced wholesale, so its old content is not checked.
    fn update_path(&mut self, idx: u64) {
        let mut pads = [0; PAD_CHUNK];
        let mut macs = self.cipher.node_macs();
        let leaf_pad = self.pad_at(&mut pads, 0, idx);
        let leaf = self.counter_blocks.get(&idx).unwrap_or(&[0; NODE_BYTES]);
        let mut mac = macs.mac(leaf_pad, leaf);
        // The MAC the path node below had before this write, and whether
        // it was never written (`None` below level 1: the leaf).
        let mut old_below: Option<(u64, bool)> = None;
        let mut node = idx;
        for level in 0..self.off_chip_levels {
            let (parent, slot) = self.parent_of(node);
            let pad = self.pad_at(&mut pads, level + 1, parent);
            let above = self.nodes[level].entry(parent).or_default();
            if let Some((old_mac, fresh)) = old_below {
                let slot_written = above.present >> slot & 1 == 1;
                if (slot_written || !fresh) && above.child_macs[slot] != old_mac {
                    return;
                }
            }
            // An all-zero image hashes to zero: a fresh node's MAC is its pad.
            let fresh = above.present == 0;
            let old_mac = if fresh {
                pad
            } else {
                macs.mac(pad, &above.image())
            };
            above.set_child_mac(slot, mac);
            mac = macs.mac(pad, &above.image());
            old_below = Some((old_mac, fresh));
            node = parent;
        }
        if let Some((old_mac, fresh)) = old_below {
            let root = self.root_macs.get(&node);
            if (root.is_some() || !fresh) && root.copied().unwrap_or(0) != old_mac {
                return;
            }
        }
        self.root_macs.insert(node, mac);
    }

    /// Writes a counter block and updates the MAC path to the root.
    pub fn write_counter_block(&mut self, idx: u64, content: [u8; NODE_BYTES]) {
        self.counter_blocks.insert(idx, content);
        self.update_path(idx);
    }

    /// Reads and verifies a counter block. Never-written blocks are
    /// lazily initialized to zeros (trusted boot state).
    ///
    /// The walk fetches the path's AES masks up front, then checks one
    /// padded tag per level, bottom up; the leaf is returned only if
    /// every one of the `off_chip_levels + 1` MACs matched.
    ///
    /// # Errors
    ///
    /// Returns [`VerifyError`] naming the lowest level where the MAC
    /// chain broke if any node on the path was tampered with or replayed.
    pub fn read_counter_block(&mut self, idx: u64) -> Result<[u8; NODE_BYTES], VerifyError> {
        let leaf = match self.counter_blocks.get(&idx) {
            Some(&leaf) => leaf,
            None => {
                self.write_counter_block(idx, [0; NODE_BYTES]);
                [0; NODE_BYTES]
            }
        };
        let mut pads = [0; PAD_CHUNK];
        let mut macs = self.cipher.node_macs();
        // `image` is the path's node at `level`; its parent (or the
        // on-chip root) holds the MAC it must have.
        let mut image = leaf;
        let mut node = idx;
        for level in 0..=self.off_chip_levels {
            let pad = self.pad_at(&mut pads, level, node);
            let (parent, slot) = self.parent_of(node);
            let (expected, above) = match self.nodes.get(level) {
                Some(nodes) => {
                    let above = nodes.get(&parent).copied().unwrap_or_default();
                    (above.child_macs[slot], above.image())
                }
                None => (self.root_macs.get(&node).copied().unwrap_or(0), image),
            };
            if macs.mac(pad, &image) != expected {
                return Err(VerifyError { level, node });
            }
            image = above;
            node = parent;
        }
        Ok(leaf)
    }

    /// Simulates an attacker mutating off-chip counter storage directly.
    pub fn tamper_counter_block(&mut self, idx: u64, f: impl FnOnce(&mut [u8; NODE_BYTES])) {
        let entry = self.counter_blocks.entry(idx).or_insert([0; NODE_BYTES]);
        f(entry);
        // No MAC update: that is the point of tampering.
    }

    /// Simulates an attacker overwriting a stored off-chip MAC.
    ///
    /// # Panics
    ///
    /// Panics if `level` is not a valid off-chip MAC level.
    pub fn tamper_stored_mac(&mut self, level: usize, idx: u64, mac: u64) {
        assert!(
            level < self.off_chip_levels,
            "level {level} is not off-chip"
        );
        self.set_stored_mac(level, idx, mac);
    }

    /// Snapshot of all off-chip state for one leaf (counter block + its
    /// stored leaf MAC) — the ingredients of a replay attack.
    #[must_use]
    pub fn snapshot_leaf(&self, idx: u64) -> ([u8; NODE_BYTES], u64) {
        let block = self
            .counter_blocks
            .get(&idx)
            .copied()
            .unwrap_or([0; NODE_BYTES]);
        let mac = if self.off_chip_levels == 0 {
            self.root_macs.get(&idx).copied().unwrap_or(0)
        } else {
            self.stored_mac(0, idx)
        };
        (block, mac)
    }

    /// Replays a previously snapshotted leaf: restores both the counter
    /// block *and* its stored MAC, exactly what a physical attacker with
    /// full DRAM access can do. Detected at level 1 unless the snapshot is
    /// current.
    pub fn replay_leaf(&mut self, idx: u64, snapshot: ([u8; NODE_BYTES], u64)) {
        self.counter_blocks.insert(idx, snapshot.0);
        if self.off_chip_levels == 0 {
            // With no off-chip MAC levels the "stored MAC" is on-chip and
            // the attacker cannot restore it; only the block reverts.
        } else {
            self.set_stored_mac(0, idx, snapshot.1);
        }
    }

    /// Section magic of the serialized form.
    const MAGIC: &'static [u8; 8] = b"AMETREE\0";
    /// Section version of the serialized form.
    const VERSION: u32 = 1;

    /// Serializes the tree's complete state — counter blocks, every
    /// off-chip MAC level, and the on-chip root MACs — into a checksummed
    /// section (sorted, so the encoding is deterministic). The cipher is
    /// *not* serialized: it is key material the caller re-derives.
    pub fn encode_state(&self, out: &mut Vec<u8>) {
        let mut payload = SectionWriter::begin(out, Self::MAGIC, Self::VERSION);
        put_u64(&mut payload, self.arity as u64);
        put_u64(&mut payload, self.off_chip_levels as u64);
        put_sorted_table(
            &mut payload,
            self.counter_blocks.keys().copied(),
            |out, idx| {
                out.extend_from_slice(&self.counter_blocks[&idx]);
            },
        );
        // The v1 layout is per-child: every level lists the `(child
        // index, MAC)` pairs ever written, not node images.
        let arity = self.arity as u64;
        for level in &self.nodes {
            let children = level.iter().flat_map(|(&parent, node)| {
                (0..arity)
                    .filter(|&slot| node.present >> slot & 1 == 1)
                    .map(move |slot| parent * arity + slot)
            });
            put_sorted_table(&mut payload, children, |out, child| {
                put_u64(
                    out,
                    level[&(child / arity)].child_macs[(child % arity) as usize],
                );
            });
        }
        put_sorted_table(&mut payload, self.root_macs.keys().copied(), |out, node| {
            put_u64(out, self.root_macs[&node]);
        });
        payload.finish();
    }

    /// Exact length in bytes of what [`BonsaiTree::encode_state`]
    /// appends, so a caller can reserve an image's buffer once.
    #[must_use]
    pub fn encoded_state_len(&self) -> usize {
        let levels = self.nodes.iter().flatten();
        let macs = levels.map(|(_, node)| node.present.count_ones() as usize);
        ame_persist::SECTION_OVERHEAD
            + 8 * (3 + self.nodes.len() + 1)
            + self.counter_blocks.len() * (8 + NODE_BYTES)
            + (macs.sum::<usize>() + self.root_macs.len()) * 16
    }

    /// Replaces this tree's state with a section produced by
    /// [`BonsaiTree::encode_state`], advancing the reader past it. The
    /// tree keeps its own cipher (key material the caller re-derived)
    /// and its own layout: a section whose arity or depth differs is
    /// refused, so nothing is sized from the section's layout. A wrong
    /// cipher yields a structurally valid tree that fails verification
    /// on first read, exactly like tampered storage.
    ///
    /// # Errors
    ///
    /// `InvalidData` on a bad magic, unsupported version, checksum
    /// mismatch, truncation, a layout other than this tree's, a count
    /// larger than its payload holds, keys that are not strictly
    /// ascending, or bytes after the last table. The tree is unchanged
    /// on error.
    pub fn decode_state(&mut self, r: &mut ByteReader<'_>) -> io::Result<()> {
        let mut payload = read_section(r, Self::MAGIC, Self::VERSION)?;
        let layout = [self.arity as u64, self.off_chip_levels as u64];
        let stored = [payload.u64()?, payload.u64()?];
        if stored != layout {
            return Err(invalid_data(format!(
                "tree (arity, levels) {stored:?} is not the configured {layout:?}"
            )));
        }
        let mut tree = Self::new(self.cipher.clone(), self.off_chip_levels, self.arity);
        read_sorted_table(&mut payload, 8 + NODE_BYTES, |idx, payload| {
            tree.counter_blocks.insert(idx, payload.array()?);
            Ok(())
        })?;
        for level in 0..self.off_chip_levels {
            read_sorted_table(&mut payload, 16, |child, payload| {
                tree.set_stored_mac(level, child, payload.u64()?);
                Ok(())
            })?;
        }
        read_sorted_table(&mut payload, 16, |node, payload| {
            tree.root_macs.insert(node, payload.u64()?);
            Ok(())
        })?;
        payload.end()?;
        *self = tree;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree(levels: usize) -> BonsaiTree {
        BonsaiTree::new(MemoryCipher::from_seed(99), levels, 8)
    }

    #[test]
    fn write_read_roundtrip() {
        let mut t = tree(3);
        for i in 0..32u64 {
            let mut b = [0u8; 64];
            b[0] = i as u8;
            t.write_counter_block(i, b);
        }
        for i in 0..32u64 {
            assert_eq!(t.read_counter_block(i).unwrap()[0], i as u8);
        }
    }

    #[test]
    fn unwritten_blocks_read_as_zero() {
        let mut t = tree(2);
        assert_eq!(t.read_counter_block(77).unwrap(), [0; 64]);
        // And remain verifiable afterwards.
        assert!(t.read_counter_block(77).is_ok());
    }

    #[test]
    fn leaf_tamper_detected_at_level_0() {
        let mut t = tree(2);
        t.write_counter_block(3, [1; 64]);
        t.tamper_counter_block(3, |b| b[10] ^= 0x40);
        assert_eq!(
            t.read_counter_block(3),
            Err(VerifyError { level: 0, node: 3 })
        );
    }

    #[test]
    fn mac_tamper_detected_at_parent_level() {
        let mut t = tree(2);
        t.write_counter_block(3, [1; 64]);
        // Forge the leaf MAC: level 0 then disagrees with its parent node.
        t.tamper_stored_mac(0, 3, 0xdead_beef);
        let err = t.read_counter_block(3).unwrap_err();
        assert_eq!(err.level, 0, "forged MAC no longer matches the block");
        // Tamper an interior MAC instead.
        let mut t = tree(2);
        t.write_counter_block(3, [1; 64]);
        t.tamper_stored_mac(1, 0, 0x1234);
        let err = t.read_counter_block(3).unwrap_err();
        assert_eq!(err.level, 1);
    }

    #[test]
    fn replay_attack_detected() {
        let mut t = tree(2);
        t.write_counter_block(9, [1; 64]);
        let old = t.snapshot_leaf(9);
        // Victim updates the counter block (e.g. a counter increments).
        t.write_counter_block(9, [2; 64]);
        // Attacker restores block + MAC to the stale snapshot.
        t.replay_leaf(9, old);
        let err = t.read_counter_block(9).unwrap_err();
        // Block and leaf MAC are self-consistent, so the break surfaces at
        // the parent (level 1) whose stored child MAC moved on.
        assert_eq!(err.level, 1);
    }

    #[test]
    fn a_sibling_write_does_not_launder_a_replayed_leaf() {
        let mut t = tree(2);
        t.write_counter_block(8, [1; 64]);
        t.write_counter_block(9, [1; 64]);
        let old = t.snapshot_leaf(9);
        t.write_counter_block(9, [2; 64]);
        t.replay_leaf(9, old);
        let at_parent = Err(VerifyError { level: 1, node: 1 });
        assert_eq!(t.read_counter_block(9), at_parent);
        // Leaf 8 shares the parent: re-MACing it over the replayed slot
        // would make the stale leaf verify.
        t.write_counter_block(8, [3; 64]);
        assert_eq!(t.read_counter_block(9), at_parent, "stale leaf laundered");
        assert_eq!(
            t.read_counter_block(8),
            at_parent,
            "the parent stays broken"
        );
    }

    #[test]
    fn a_sibling_write_does_not_launder_a_forged_sibling_mac() {
        // (level, node, forged MAC) of a sibling slot on the path of leaf
        // 0, and the lowest level a read of leaf 0 must then fail at.
        for (level, node, broken) in [(0, 1, 1), (0, 7, 1), (1, 1, 2)] {
            let mut t = tree(2);
            for leaf in [0, 1, 7, 8] {
                t.write_counter_block(leaf, [leaf as u8; 64]);
            }
            t.tamper_stored_mac(level, node, 0x5151);
            t.write_counter_block(0, [0xee; 64]);
            let err = t.read_counter_block(0).unwrap_err();
            assert_eq!(err.level, broken, "forged slot {level}/{node} laundered");
            // The forged node itself never verifies again either.
            assert!(t.read_counter_block(node * 8u64.pow(level as u32)).is_err());
        }
    }

    #[test]
    fn writes_into_never_written_paths_and_after_a_stop_keep_verifying_elsewhere() {
        // A fresh path is the trusted boot state, and a write stopped by
        // a broken node leaves the tree's other paths intact.
        let mut t = tree(3);
        t.write_counter_block(500, [1; 64]);
        t.write_counter_block(0, [2; 64]);
        t.tamper_stored_mac(0, 1, 0x77);
        t.write_counter_block(0, [3; 64]);
        assert!(t.read_counter_block(0).is_err());
        assert_eq!(t.read_counter_block(500).unwrap(), [1; 64]);
        t.write_counter_block(4095, [4; 64]);
        assert_eq!(t.read_counter_block(4095).unwrap(), [4; 64]);
    }

    #[test]
    fn replay_of_current_state_is_undetectable_noop() {
        let mut t = tree(2);
        t.write_counter_block(9, [1; 64]);
        let snap = t.snapshot_leaf(9);
        t.replay_leaf(9, snap);
        assert_eq!(t.read_counter_block(9).unwrap(), [1; 64]);
    }

    #[test]
    fn sibling_updates_do_not_break_neighbours() {
        let mut t = tree(3);
        t.write_counter_block(0, [1; 64]);
        t.write_counter_block(1, [2; 64]);
        t.write_counter_block(8, [3; 64]); // different level-1 parent
        assert!(t.read_counter_block(0).is_ok());
        assert!(t.read_counter_block(1).is_ok());
        assert!(t.read_counter_block(8).is_ok());
    }

    #[test]
    fn zero_off_chip_levels_means_on_chip_macs() {
        // Tiny regions: leaf MACs are on-chip; leaf tampering is caught,
        // and replay cannot restore the MAC at all.
        let mut t = tree(0);
        t.write_counter_block(4, [7; 64]);
        let old = t.snapshot_leaf(4);
        t.write_counter_block(4, [8; 64]);
        t.replay_leaf(4, old);
        let err = t.read_counter_block(4).unwrap_err();
        assert_eq!(err.level, 0);
    }

    #[test]
    fn position_bound_macs() {
        // The same content at two leaves must produce different MACs.
        let mut t = tree(1);
        t.write_counter_block(0, [5; 64]);
        t.write_counter_block(1, [5; 64]);
        let (_, m0) = t.snapshot_leaf(0);
        let (_, m1) = t.snapshot_leaf(1);
        assert_ne!(m0, m1);
    }

    #[test]
    #[should_panic(expected = "64-byte node holds")]
    fn wide_arity_rejected() {
        let _ = BonsaiTree::new(MemoryCipher::from_seed(1), 1, 16);
    }

    #[test]
    fn state_roundtrip_verifies() {
        let mut t = tree(3);
        for i in 0..32u64 {
            let mut b = [0u8; 64];
            b[0] = i as u8;
            t.write_counter_block(i, b);
        }
        let mut a = Vec::new();
        t.encode_state(&mut a);
        assert_eq!(a.len(), t.encoded_state_len());
        let mut back = tree(3);
        back.decode_state(&mut ByteReader::new(&a)).unwrap();
        for i in 0..32u64 {
            assert_eq!(back.read_counter_block(i).unwrap()[0], i as u8);
        }
        let mut b = Vec::new();
        back.encode_state(&mut b);
        assert_eq!(a, b, "re-encoding is deterministic and bit-identical");
    }

    #[test]
    fn state_decoded_with_wrong_cipher_fails_verification() {
        let mut t = tree(2);
        t.write_counter_block(5, [1; 64]);
        let mut buf = Vec::new();
        t.encode_state(&mut buf);
        let mut back = BonsaiTree::new(MemoryCipher::from_seed(100), 2, 8);
        back.decode_state(&mut ByteReader::new(&buf)).unwrap();
        assert!(back.read_counter_block(5).is_err(), "wrong key, no service");
    }

    /// A state decodes only into a tree of its own arity and depth; the
    /// tree it was refused by is left as it was.
    #[test]
    fn state_refuses_another_layout() {
        let mut t = tree(2);
        t.write_counter_block(5, [1; 64]);
        let mut buf = Vec::new();
        t.encode_state(&mut buf);
        for mut other in [
            tree(1),
            tree(3),
            BonsaiTree::new(MemoryCipher::from_seed(99), 2, 4),
        ] {
            other.write_counter_block(7, [2; 64]);
            let err = other.decode_state(&mut ByteReader::new(&buf)).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
            assert_eq!(other.read_counter_block(7).unwrap(), [2; 64]);
        }
    }

    /// `payload` sealed as a v1 tree-state section with a valid CRC.
    fn section(payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        let mut w = SectionWriter::begin(&mut out, BonsaiTree::MAGIC, BonsaiTree::VERSION);
        w.extend_from_slice(payload);
        w.finish();
        out
    }

    #[test]
    fn state_rejects_duplicate_unordered_and_oversized_entries() {
        let mut t = tree(1);
        t.write_counter_block(3, [1; 64]);
        t.write_counter_block(5, [2; 64]);
        let mut buf = Vec::new();
        t.encode_state(&mut buf);
        let payload = &buf[20..buf.len() - 8];
        // arity, levels, 2 leaves of 8 + 64 bytes, then level 0's pairs.
        let leaves = 24;
        let pairs = leaves + 2 * 72;
        let decode = |payload: &[u8]| {
            let sealed = section(payload);
            tree(1).decode_state(&mut ByteReader::new(&sealed))
        };
        assert!(decode(payload).is_ok(), "the resealed original decodes");

        let mut duplicate = payload.to_vec();
        duplicate.copy_within(pairs + 8..pairs + 24, pairs + 24);
        let mut swapped = payload.to_vec();
        swapped[pairs + 8..pairs + 40].rotate_left(16);
        let mut swapped_leaves = payload.to_vec();
        swapped_leaves[leaves..leaves + 144].rotate_left(72);
        let mut oversized = payload.to_vec();
        oversized[pairs..pairs + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        for (name, bad) in [
            ("duplicate pair", duplicate),
            ("descending pairs", swapped),
            ("descending leaves", swapped_leaves),
            ("count beyond the payload", oversized),
        ] {
            let err = decode(&bad).expect_err(name);
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{name}");
        }
    }

    #[test]
    fn state_rejects_flipped_bit() {
        let mut t = tree(2);
        t.write_counter_block(5, [1; 64]);
        let mut buf = Vec::new();
        t.encode_state(&mut buf);
        let mid = buf.len() / 2;
        buf[mid] ^= 0x04;
        let err = tree(2)
            .decode_state(&mut ByteReader::new(&buf))
            .unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }
}
