//! The Counter-based Adaptive Tree (§IV) in the compact SRAM layout of
//! §IV-C: an array `I` of intermediate nodes (two tagged child pointers
//! each), an array `C` of counters, and — starting from a pre-split complete
//! tree of λ levels — direct indexing of the top `λ−1` address bits. Below
//! the roots, each intermediate node is left by the next address bit.

mod layout;
pub mod reference;
mod shape;

pub use layout::{INode, NodeRef};
pub use shape::{LeafInfo, TreeShape};

use crate::scheme::{HardwareProfile, MitigationScheme, Refreshes, SchemeKind};
use crate::state::{StateError, StateReader};
use crate::{CatConfig, RowId, RowRange, SchemeStats, SplitThresholds};

/// Where a node reference is stored — needed to replace a leaf reference
/// with a freshly allocated intermediate node when the leaf splits.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) enum ParentSlot {
    /// Entry of the direct-indexed root table.
    Root(u32),
    /// Left child slot of intermediate node `i`.
    Left(u16),
    /// Right child slot of intermediate node `i`.
    Right(u16),
}

#[derive(Copy, Clone, Debug, Default)]
pub(crate) struct Counter {
    pub value: u32,
    /// Split-threshold index `l_i` of Algorithm 1 (latched to `L−1` once
    /// every counter is active).
    pub tli: u8,
    /// Structural depth of the leaf in the tree.
    pub depth: u8,
    pub active: bool,
}

/// Result of recording one activation on the tree.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Activation {
    /// Range to refresh (group ± 1 victim row), if a counter reached `T`.
    pub refresh: Option<RowRange>,
    /// Index of the counter that absorbed the activation (after splits).
    pub counter: u16,
}

/// A Counter-based Adaptive Tree protecting one DRAM bank.
///
/// This type implements the bare CAT of §IV: the tree grows according to the
/// split thresholds and is never reset. The paper's deployable variants wrap
/// it: [`crate::Prcat`] rebuilds it at every auto-refresh epoch and
/// [`crate::Drcat`] adds weight-driven reconfiguration.
///
/// ```
/// use cat_core::{CatConfig, CatTree, MitigationScheme, RowId};
/// # fn main() -> Result<(), cat_core::ConfigError> {
/// let mut tree = CatTree::new(CatConfig::new(1024, 8, 6, 256)?);
/// // A heavily hammered row forces refreshes of its group ± 1 row.
/// let mut rows = 0;
/// for _ in 0..2048 {
///     rows += tree.on_activation(RowId(3)).total_rows();
/// }
/// assert!(rows > 0);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct CatTree {
    config: CatConfig,
    thresholds: SplitThresholds,
    pub(crate) roots: Vec<NodeRef>,
    pub(crate) inodes: Vec<INode>,
    pub(crate) counters: Vec<Counter>,
    free_counters: Vec<u16>,
    free_inodes: Vec<u16>,
    active_counters: usize,
    all_active: bool,
    stats: SchemeStats,
}

impl CatTree {
    /// Builds the initial pre-split tree: `2^{λ−1}` active counters at level
    /// `λ−1`, each covering `N / 2^{λ−1}` rows.
    pub fn new(config: CatConfig) -> Self {
        let thresholds = config.split_thresholds();
        let m = config.counters();
        let root_count = 1usize << (config.lambda() - 1);
        let mut counters = vec![Counter::default(); m];
        let mut roots = Vec::with_capacity(root_count);
        for (i, counter) in counters.iter_mut().enumerate().take(root_count) {
            *counter = Counter {
                value: 0,
                tli: (config.lambda() - 1) as u8,
                depth: (config.lambda() - 1) as u8,
                active: true,
            };
            roots.push(NodeRef::Leaf(i as u16));
        }
        // Free counters popped in ascending index order.
        let free_counters: Vec<u16> = (root_count..m).rev().map(|i| i as u16).collect();
        let all_active = root_count == m;
        let mut tree = CatTree {
            config,
            thresholds,
            roots,
            inodes: Vec::with_capacity(m.saturating_sub(1)),
            counters,
            free_counters,
            free_inodes: Vec::new(),
            active_counters: root_count,
            all_active,
            stats: SchemeStats::default(),
        };
        if all_active {
            tree.latch_all_thresholds();
        }
        tree
    }

    /// The configuration this tree was built from.
    pub fn config(&self) -> &CatConfig {
        &self.config
    }

    /// The split thresholds in use.
    pub fn thresholds(&self) -> &SplitThresholds {
        &self.thresholds
    }

    /// Resident heap bytes of the tree's slabs (`I`, `C`, roots and free
    /// lists). The slabs are deliberately dense: they hold at most `M`
    /// (≤ 64 in every paper configuration) entries — the tree itself is
    /// the compression, so bit-block storage would only add overhead.
    pub fn heap_bytes(&self) -> usize {
        self.roots.capacity() * std::mem::size_of::<NodeRef>()
            + self.inodes.capacity() * std::mem::size_of::<INode>()
            + self.counters.capacity() * std::mem::size_of::<Counter>()
            + self.free_counters.capacity() * std::mem::size_of::<u16>()
            + self.free_inodes.capacity() * std::mem::size_of::<u16>()
    }

    /// Number of currently active counters.
    pub fn active_counters(&self) -> usize {
        self.active_counters
    }

    /// `true` once every counter has been activated (Algorithm 1 then
    /// latches every split-threshold index to `L−1`).
    pub fn fully_grown(&self) -> bool {
        self.all_active
    }

    /// Bit of the row address that picks the root: the top `λ−1` bits
    /// index the root table directly (§IV-C), so a root at depth `λ−1`
    /// covers `2^root_bit` rows.
    fn root_bit(&self) -> u32 {
        self.config.rows().trailing_zeros() - (self.config.lambda() - 1)
    }

    /// The [`descend`] walk, also tracking the parent slot. Returns the
    /// counter index and its row range `[lo, hi]`, derived from the leaf's
    /// depth (`rows >> depth` rows, aligned on that span). Only refreshes
    /// and splits need the range and the slot.
    fn locate(&self, row: u32) -> (u16, u32, u32, ParentSlot) {
        let mut bit = self.root_bit();
        let g = row >> bit;
        let mut slot = ParentSlot::Root(g);
        let mut node = self.roots[g as usize];
        while let NodeRef::Inode(i) = node {
            bit -= 1;
            (node, slot) = child(&self.inodes, i, row, bit);
        }
        // `bit` is now `log2 rows − depth`: the leaf spans `rows >> depth`.
        let span = 1u32 << bit;
        let lo = row & !(span - 1);
        (node.index(), lo, lo + (span - 1), slot)
    }

    pub(crate) fn set_slot(&mut self, slot: ParentSlot, node: NodeRef) {
        match slot {
            ParentSlot::Root(g) => self.roots[g as usize] = node,
            ParentSlot::Left(i) => self.inodes[i as usize].left = node,
            ParentSlot::Right(i) => self.inodes[i as usize].right = node,
        }
    }

    fn alloc_inode(&mut self, inode: INode) -> u16 {
        if let Some(idx) = self.free_inodes.pop() {
            self.inodes[idx as usize] = inode;
            idx
        } else {
            let idx = self.inodes.len() as u16;
            self.inodes.push(inode);
            idx
        }
    }

    fn latch_all_thresholds(&mut self) {
        let top = (self.config.max_levels() - 1) as u8;
        for c in self.counters.iter_mut().filter(|c| c.active) {
            c.tli = top;
        }
        self.all_active = true;
    }

    /// Splits leaf `c` (covering `[lo, hi]`, stored in `slot`): the left
    /// half stays with `c`, the right half goes to a newly activated clone
    /// (Algorithm 1 lines 15–22). Returns `(new counter, new intermediate
    /// node)`, or `None` when no counter is free or the leaf is one row.
    pub(crate) fn split_leaf(
        &mut self,
        c: u16,
        lo: u32,
        hi: u32,
        slot: ParentSlot,
    ) -> Option<(u16, u16)> {
        if lo == hi {
            return None;
        }
        let nc = self.free_counters.pop()?;
        let parent = self.counters[c as usize];
        let child_tli = (parent.tli + 1).min((self.config.max_levels() - 1) as u8);
        self.counters[nc as usize] = Counter {
            value: parent.value,
            tli: child_tli,
            depth: parent.depth + 1,
            active: true,
        };
        self.counters[c as usize].tli = child_tli;
        self.counters[c as usize].depth = parent.depth + 1;
        let inode = self.alloc_inode(INode {
            left: NodeRef::Leaf(c),
            right: NodeRef::Leaf(nc),
        });
        self.set_slot(slot, NodeRef::Inode(inode));
        self.active_counters += 1;
        self.stats.splits += 1;
        self.stats.sram_writes += 2; // new intermediate node + cloned counter
        if self.active_counters == self.config.counters() {
            self.latch_all_thresholds();
        }
        Some((nc, inode))
    }

    /// Records one activation; the core of Algorithm 1's counter module plus
    /// the reconfiguration counter module's split handling. The one-row case
    /// of [`record_run`](Self::record_run).
    #[inline]
    pub fn record(&mut self, row: RowId) -> Activation {
        self.record_run(std::slice::from_ref(&row.0)).1
    }

    /// The run kernel: records the activations of `rows` in order and stops
    /// after the first row whose counter meets its level threshold, which is
    /// then refreshed or split exactly as by [`record`](Self::record).
    /// Returns the number of rows consumed and the [`Activation`] of the
    /// last of them; its `refresh` is `None` when the whole run stayed below
    /// every threshold. A caller replays a bank's run by calling again on
    /// the rows not yet consumed.
    ///
    /// The tree arrays and the threshold table are borrowed once per call,
    /// and the SRAM statistics are summed in locals and written back when
    /// the run ends or reaches a threshold, so the common path of a long
    /// run only walks the tree and bumps one counter per row. It is always
    /// inlined so that `record`'s one-row call folds down to a plain
    /// per-row path.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty or holds a row outside the bank.
    #[inline(always)]
    pub fn record_run(&mut self, rows: &[u32]) -> (usize, Activation) {
        assert!(!rows.is_empty(), "a run records at least one row");
        let bank_rows = self.config.rows();
        let root_bit = self.root_bit();
        let thresholds = self.thresholds.as_slice();
        let (roots, inodes, counters) = (&self.roots[..], &self.inodes[..], &mut self.counters[..]);
        let mut consumed = 0usize;
        let mut hit = false;
        let mut visits = 0u64;
        let mut max_depth = self.stats.max_depth_touched;
        let mut last = 0u16;
        for &row in rows {
            assert!(
                row < bank_rows,
                "row {row} out of range (bank has {bank_rows} rows)"
            );
            consumed += 1;
            let (c, v) = descend(roots, inodes, root_bit, row);
            visits += u64::from(v);
            let counter = &mut counters[c as usize];
            max_depth = max_depth.max(u64::from(counter.depth));
            counter.value += 1;
            last = c;
            if counter.value >= thresholds[usize::from(counter.tli)] {
                hit = true;
                break;
            }
        }
        // One read per traversed intermediate node plus the counter
        // read-modify-write, per row.
        let n = consumed as u64;
        self.stats.activations += n;
        self.stats.sram_reads += visits + n;
        self.stats.sram_writes += n;
        self.stats.max_depth_touched = max_depth;
        let activation = if hit {
            self.on_threshold(rows[consumed - 1])
        } else {
            Activation {
                refresh: None,
                counter: last,
            }
        };
        (consumed, activation)
    }

    /// The counter covering `row` reached its level threshold: refresh its
    /// group, or split it (cascading while the clone's inherited value
    /// meets the next threshold).
    #[cold]
    #[inline(never)]
    fn on_threshold(&mut self, row: u32) -> Activation {
        let rows = self.config.rows();
        let (mut c, mut lo, mut hi, mut slot) = self.locate(row);
        loop {
            let counter = self.counters[c as usize];
            let threshold = self.thresholds.threshold_for_level(u32::from(counter.tli));
            if counter.value < threshold {
                return Activation {
                    refresh: None,
                    counter: c,
                };
            }
            let top_level = counter.tli as u32 == self.config.max_levels() - 1;
            if top_level || threshold == self.thresholds.refresh_threshold() {
                // Refresh the group plus its two adjacent victim rows.
                self.counters[c as usize].value = 0;
                let range = RowRange::new(lo, hi).expand_victims(rows);
                self.stats.refresh_events += 1;
                self.stats.refreshed_rows += range.len();
                return Activation {
                    refresh: Some(range),
                    counter: c,
                };
            }
            // Split threshold reached below the maximum level: activate a
            // clone (RCM). If no counter is free the tree is fully grown and
            // thresholds were latched to T, so the loop terminates above.
            match self.split_leaf(c, lo, hi, slot) {
                Some((nc, inode)) => {
                    // Descend into the half containing the activated row;
                    // the clone kept the parent's value, so a larger split
                    // threshold may already be met (cascade).
                    let mid = lo + (hi - lo) / 2;
                    if row <= mid {
                        hi = mid;
                        slot = ParentSlot::Left(inode);
                    } else {
                        lo = mid + 1;
                        c = nc;
                        slot = ParentSlot::Right(inode);
                    }
                }
                None => {
                    // Cannot split further (single-row group): count up to T
                    // at this level instead.
                    self.counters[c as usize].tli = (self.config.max_levels() - 1) as u8;
                }
            }
        }
    }

    /// Depth-first search for an intermediate node whose two children are
    /// both leaves with zero weight — a pair of cold sibling counters that
    /// DRCAT may merge (§V-B step 1). The hot counter `exclude` is never
    /// eligible. Returns `(slot of the inode, inode index, left leaf,
    /// right leaf)`.
    pub(crate) fn find_cold_pair(
        &self,
        weights: &[u8],
        exclude: u16,
    ) -> Option<(ParentSlot, u16, u16, u16)> {
        let mut stack: Vec<(NodeRef, ParentSlot)> = self
            .roots
            .iter()
            .enumerate()
            .map(|(g, node)| (*node, ParentSlot::Root(g as u32)))
            .collect();
        while let Some((node, slot)) = stack.pop() {
            if let NodeRef::Inode(i) = node {
                let inode = self.inodes[i as usize];
                if let Some((l, r)) = inode.both_leaves() {
                    if l != exclude
                        && r != exclude
                        && weights[l as usize] == 0
                        && weights[r as usize] == 0
                    {
                        return Some((slot, i, l, r));
                    }
                } else {
                    stack.push((inode.left, ParentSlot::Left(i)));
                    stack.push((inode.right, ParentSlot::Right(i)));
                }
            }
        }
        None
    }

    /// Merges the two cold sibling leaves below intermediate node `inode`:
    /// the right leaf is promoted into the parent slot (as in Fig. 7, where
    /// C5 is promoted and C2 released) carrying the *maximum* of the two
    /// counter values — merging must never under-count any row in the
    /// combined group. Returns the released counter index.
    pub(crate) fn merge_pair(
        &mut self,
        slot: ParentSlot,
        inode: u16,
        left: u16,
        right: u16,
    ) -> u16 {
        debug_assert_eq!(
            self.inodes[inode as usize].both_leaves(),
            Some((left, right))
        );
        let lv = self.counters[left as usize].value;
        let rv = self.counters[right as usize].value;
        self.counters[right as usize].value = lv.max(rv);
        self.counters[right as usize].depth -= 1;
        self.counters[left as usize] = Counter::default();
        self.set_slot(slot, NodeRef::Leaf(right));
        self.free_inodes.push(inode);
        self.free_counters.push(left);
        self.active_counters -= 1;
        self.stats.merges += 1;
        self.stats.sram_writes += 2;
        left
    }

    /// Splits the (hot) leaf covering `row` using a previously released
    /// counter (§V-B step 2). Fails when the leaf is already at the maximum
    /// level, covers a single row, or no counter is free. Returns the new
    /// counter index.
    pub(crate) fn split_hot(&mut self, row: u32) -> Option<u16> {
        let (c, lo, hi, slot) = self.locate(row);
        if u32::from(self.counters[c as usize].depth) + 1 > self.config.max_levels() - 1 {
            return None;
        }
        let was_tli = self.counters[c as usize].tli;
        let (nc, _) = self.split_leaf(c, lo, hi, slot)?;
        // Reconfiguration happens on the fully grown tree: thresholds stay
        // latched at L−1 rather than following the depth.
        let tli = if self.all_active {
            (self.config.max_levels() - 1) as u8
        } else {
            was_tli
        };
        self.counters[c as usize].tli = tli;
        self.counters[nc as usize].tli = tli;
        Some(nc)
    }

    /// Resets the tree to its initial pre-split state (used by PRCAT at
    /// every auto-refresh epoch). Statistics are preserved.
    pub fn reset(&mut self) {
        let stats = self.stats;
        *self = CatTree::new(self.config.clone());
        self.stats = stats;
    }

    /// Zeroes every active counter value but keeps the tree structure
    /// (DRCAT's epoch behaviour: rows were just auto-refreshed, so counts
    /// restart, but the learned shape is retained).
    pub fn zero_counters(&mut self) {
        for c in self.counters.iter_mut().filter(|c| c.active) {
            c.value = 0;
        }
    }

    /// Current value of counter `c` (for tests and diagnostics).
    pub fn counter_value(&self, c: u16) -> Option<u32> {
        let counter = self.counters.get(c as usize)?;
        counter.active.then_some(counter.value)
    }

    /// Snapshot of the tree shape (leaf ranges and depths), ordered by row.
    pub fn shape(&self) -> TreeShape {
        shape::collect(self)
    }

    pub(crate) fn stats_mut(&mut self) -> &mut SchemeStats {
        &mut self.stats
    }

    /// Appends the tree's complete mutable state for checkpointing: stats,
    /// the node arrays `I` and `C`, the root table, both free lists (whose
    /// pop/push *order* determines future allocations, so they round-trip
    /// verbatim), and the growth latch.
    pub fn save_state(&self, out: &mut Vec<u64>) {
        self.stats.save_state(out);
        out.push(self.active_counters as u64);
        out.push(u64::from(self.all_active));
        out.push(self.roots.len() as u64);
        out.extend(self.roots.iter().map(|&n| pack_node(n)));
        out.push(self.inodes.len() as u64);
        for inode in &self.inodes {
            out.push(pack_node(inode.left));
            out.push(pack_node(inode.right));
        }
        out.push(self.counters.len() as u64);
        for c in &self.counters {
            out.push(
                u64::from(c.value)
                    | u64::from(c.tli) << 32
                    | u64::from(c.depth) << 40
                    | u64::from(c.active) << 48,
            );
        }
        out.push(self.free_counters.len() as u64);
        out.extend(self.free_counters.iter().map(|&i| u64::from(i)));
        out.push(self.free_inodes.len() as u64);
        out.extend(self.free_inodes.iter().map(|&i| u64::from(i)));
    }

    /// Restores state captured by [`CatTree::save_state`] onto a freshly
    /// built tree of the same configuration.
    ///
    /// Every structural invariant is revalidated: index bounds, the active
    /// count against the counter flags, the shape (one walk from the roots),
    /// free-list sizes against the active count, and entry distinctness —
    /// a corrupted stream cannot produce a silently inconsistent tree.
    ///
    /// # Errors
    ///
    /// Returns [`StateError`] on any malformed or inconsistent value; the
    /// tree is then partially restored and must be discarded.
    pub fn restore_state(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        let m = self.counters.len();
        let root_count = self.roots.len();
        let top = (self.config.max_levels() - 1) as u8;
        self.stats.restore_state(r)?;
        let active_counters = r.next_word()? as usize;
        if !(root_count..=m).contains(&active_counters) {
            return Err(StateError::Invalid("tree active counter count"));
        }
        let all_active = r.next_bool()?;
        // The latch is sticky: it fires when the tree first becomes fully
        // grown and survives later merges, so only the forward implication
        // can be checked.
        if active_counters == m && !all_active {
            return Err(StateError::Invalid("tree growth latch"));
        }
        if r.next_word()? != root_count as u64 {
            return Err(StateError::Invalid("tree root count"));
        }
        // The arrays are refilled in place: clear + push within the
        // capacities `new()` established keeps `heap_bytes` bit-equal with
        // a never-checkpointed tree. The inode count arrives after the
        // roots, so root references are bounded by the largest count first
        // and by the real one once it is read.
        self.roots.clear();
        for _ in 0..root_count {
            self.roots.push(unpack_node(r.next_word()?, m, m - 1)?);
        }
        let inode_len = r.next_word()? as usize;
        if inode_len > m - 1 {
            return Err(StateError::Invalid("tree inode count"));
        }
        if self
            .roots
            .iter()
            .any(|n| !n.is_leaf() && usize::from(n.index()) >= inode_len)
        {
            return Err(StateError::Invalid("tree inode index out of range"));
        }
        self.inodes.clear();
        for _ in 0..inode_len {
            let left = unpack_node(r.next_word()?, m, inode_len)?;
            let right = unpack_node(r.next_word()?, m, inode_len)?;
            self.inodes.push(INode { left, right });
        }
        if r.next_word()? != m as u64 {
            return Err(StateError::Invalid("tree counter count"));
        }
        let mut active_seen = 0usize;
        for counter in &mut self.counters {
            let w = r.next_word()?;
            if w >> 49 != 0 {
                return Err(StateError::Invalid("tree counter stray bits"));
            }
            *counter = Counter {
                value: w as u32,
                tli: (w >> 32) as u8,
                depth: (w >> 40) as u8,
                active: (w >> 48) & 1 == 1,
            };
            if counter.tli > top || counter.depth > top {
                return Err(StateError::Invalid("tree counter level out of range"));
            }
            active_seen += usize::from(counter.active);
        }
        if active_seen != active_counters {
            return Err(StateError::Invalid("tree active flags vs count"));
        }
        // One mark per counter, then one per inode. The shape walk marks
        // every node it reaches; each free-list entry must be unmarked.
        let mut seen = vec![false; m + inode_len];
        let root_depth = (self.config.lambda() - 1) as u8;
        let leaves = walk_shape(
            &self.roots,
            root_depth,
            top,
            &self.counters,
            &self.inodes,
            &mut seen,
        )?;
        if leaves != active_counters {
            return Err(StateError::Invalid("tree leaf count vs active"));
        }
        // The walk reached `active_counters` distinct active leaves, so the
        // unmarked counters are exactly the inactive ones. Each reached inode
        // adds one leaf to its root's, so `active − roots` inodes are live.
        let (seen_counters, seen_inodes) = seen.split_at_mut(m);
        read_free_list(
            r,
            m - active_counters,
            seen_counters,
            &mut self.free_counters,
        )?;
        let live_inodes = active_counters - root_count;
        read_free_list(
            r,
            inode_len - live_inodes,
            seen_inodes,
            &mut self.free_inodes,
        )?;
        self.active_counters = active_counters;
        self.all_active = all_active;
        Ok(())
    }

    fn profile(&self, kind: SchemeKind) -> HardwareProfile {
        HardwareProfile {
            kind,
            counters: self.config.counters(),
            counter_bits: self.config.counter_bits(),
            max_levels: self.config.max_levels(),
            prng_bits_per_activation: 0,
            refresh_threshold: self.config.refresh_threshold(),
        }
    }

    pub(crate) fn hardware_as(&self, kind: SchemeKind) -> HardwareProfile {
        self.profile(kind)
    }
}

/// One step of the §IV-C descent: from inode `i`, whose children each
/// cover `2^bit` rows, the child on `row`'s side of bit `bit` and the slot
/// it sits in.
#[inline(always)]
fn child(inodes: &[INode], i: u16, row: u32, bit: u32) -> (NodeRef, ParentSlot) {
    let inode = &inodes[i as usize];
    if row >> bit & 1 == 0 {
        (inode.left, ParentSlot::Left(i))
    } else {
        (inode.right, ParentSlot::Right(i))
    }
}

/// Counter-only walk to the leaf covering `row`: the root by the address
/// bits above `root_bit`, then one address bit per intermediate node.
/// Returns the counter index and the number of intermediate nodes read.
#[inline(always)]
fn descend(roots: &[NodeRef], inodes: &[INode], root_bit: u32, row: u32) -> (u16, u32) {
    let mut bit = root_bit;
    let mut node = roots[(row >> bit) as usize];
    let mut visits = 0u32;
    while let NodeRef::Inode(i) = node {
        visits += 1;
        bit -= 1;
        node = child(inodes, i, row, bit).0;
    }
    (node.index(), visits)
}

/// Packs a node reference as `tag << 16 | index` (tag 1 = leaf).
fn pack_node(n: NodeRef) -> u64 {
    u64::from(n.is_leaf()) << 16 | u64::from(n.index())
}

/// Unpacks and bounds-checks a node reference against the counter and
/// intermediate-node array sizes.
fn unpack_node(w: u64, counters: usize, inodes: usize) -> Result<NodeRef, StateError> {
    if w >> 17 != 0 {
        return Err(StateError::Invalid("tree node reference stray bits"));
    }
    let idx = (w & 0xffff) as u16;
    if w >> 16 == 1 {
        if (idx as usize) < counters {
            Ok(NodeRef::Leaf(idx))
        } else {
            Err(StateError::Invalid("tree leaf index out of range"))
        }
    } else if (idx as usize) < inodes {
        Ok(NodeRef::Inode(idx))
    } else {
        Err(StateError::Invalid("tree inode index out of range"))
    }
}

/// Walks the trees under `roots` (at depth `root_depth`), marking what it
/// reaches in `seen` (counters first, then inodes), and returns the leaf
/// count. Every inode must sit above depth `top` (L−1) and be reached
/// once, so cycles and shared subtrees are refused. Every leaf must be an
/// active counter, reached once, whose `depth` field is its depth in the
/// tree.
fn walk_shape(
    roots: &[NodeRef],
    root_depth: u8,
    top: u8,
    counters: &[Counter],
    inodes: &[INode],
    seen: &mut [bool],
) -> Result<usize, StateError> {
    // Right subtrees still to visit: one per inode on the current path,
    // which holds fewer than `top` ≤ 31 of them.
    let mut pending = [(NodeRef::Leaf(0), 0u8); 32];
    let mut leaves = 0;
    for &root in roots {
        let (mut node, mut depth) = (root, root_depth);
        let mut len = 0;
        loop {
            match node {
                NodeRef::Inode(i) => {
                    if depth >= top {
                        return Err(StateError::Invalid("tree inode at or below depth L-1"));
                    }
                    if std::mem::replace(&mut seen[counters.len() + i as usize], true) {
                        return Err(StateError::Invalid("tree inode reached twice"));
                    }
                    let inode = inodes[i as usize];
                    depth += 1;
                    pending[len] = (inode.right, depth);
                    len += 1;
                    node = inode.left;
                    continue;
                }
                NodeRef::Leaf(c) => {
                    let counter = counters[c as usize];
                    if !counter.active || counter.depth != depth {
                        return Err(StateError::Invalid(
                            "tree leaf inactive or at the wrong depth",
                        ));
                    }
                    if std::mem::replace(&mut seen[c as usize], true) {
                        return Err(StateError::Invalid("tree leaf reached twice"));
                    }
                    leaves += 1;
                }
            }
            if len == 0 {
                break;
            }
            len -= 1;
            (node, depth) = pending[len];
        }
    }
    Ok(leaves)
}

/// Reads a free list of exactly `expect` entries into `list`, each indexing
/// `seen` and unmarked there (not in the tree, not listed before); marks
/// every entry.
fn read_free_list(
    r: &mut StateReader<'_>,
    expect: usize,
    seen: &mut [bool],
    list: &mut Vec<u16>,
) -> Result<(), StateError> {
    if r.next_word()? != expect as u64 {
        return Err(StateError::Invalid("tree free-list length"));
    }
    list.clear();
    list.reserve(expect);
    for _ in 0..expect {
        let idx = r.next_u16()?;
        let Some(slot) = seen.get_mut(idx as usize) else {
            return Err(StateError::Invalid("tree free-list index out of range"));
        };
        if *slot {
            return Err(StateError::Invalid("tree free-list entry inconsistent"));
        }
        *slot = true;
        list.push(idx);
    }
    Ok(())
}

impl MitigationScheme for CatTree {
    fn on_activation(&mut self, row: RowId) -> Refreshes {
        match self.record(row).refresh {
            Some(range) => Refreshes::one(range),
            None => Refreshes::none(),
        }
    }

    fn on_run(&mut self, mut rows: &[u32]) {
        while !rows.is_empty() {
            rows = &rows[self.record_run(rows).0..];
        }
    }

    fn on_epoch_end(&mut self) {
        // The bare CAT keeps counting across epochs (conservative but safe:
        // counts only over-estimate activations since the last refresh).
    }

    fn stats(&self) -> &SchemeStats {
        &self.stats
    }

    fn hardware(&self) -> HardwareProfile {
        // Hardware-wise the bare CAT is PRCAT without the epoch reset.
        self.profile(SchemeKind::Prcat)
    }

    fn rows(&self) -> u32 {
        self.config.rows()
    }

    fn name(&self) -> String {
        format!("CAT_{}", self.config.counters())
    }
}

/// Drives the access sequence that sculpts Figure 5(a)'s tree shape on the
/// N = 32, M = 8, L = 6, T = 64, λ = 1, doubling-thresholds configuration:
/// leaf depths (ascending rows) 3,5,5,4,3,4,4,1 over row fractions
/// 4,1,1,2,4,2,2,16 (out of 32). Test helper shared with the DRCAT tests.
#[cfg(test)]
pub(crate) fn build_figure5<S: FnMut(RowId)>(mut access: S) {
    for _ in 0..32 {
        access(RowId(4)); // splits [0,32)→…→[4,5)/[5,6) chain
    }
    for _ in 0..12 {
        access(RowId(12)); // splits [8,16)→[8,12)+[12,16)→[12,14)+[14,16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ThresholdPolicy;

    fn small_cfg() -> CatConfig {
        CatConfig::new(1024, 8, 6, 256).unwrap()
    }

    /// The configuration used to reproduce Figure 5's tree: N = 32, M = 8,
    /// L = 6, T = 64, built from the root (λ = 1) with doubling thresholds
    /// (2, 4, 8, 16, 32).
    fn figure5_cfg() -> CatConfig {
        CatConfig::new(32, 8, 6, 64)
            .unwrap()
            .with_policy(ThresholdPolicy::Doubling)
            .with_lambda(1)
            .unwrap()
    }

    #[test]
    fn initial_shape_is_pre_split_partition() {
        let tree = CatTree::new(small_cfg());
        let shape = tree.shape();
        assert_eq!(shape.leaves().len(), 4); // λ = 3 ⇒ 2^{λ−1} = 4 leaves
        assert!(shape.is_partition(1024));
        assert_eq!(shape.depth_profile(), vec![2, 2, 2, 2]);
        assert_eq!(tree.active_counters(), 4);
        assert!(!tree.fully_grown());
    }

    #[test]
    fn figure5_shape_reproduced() {
        let mut tree = CatTree::new(figure5_cfg());
        build_figure5(|row| {
            tree.record(row);
        });
        let shape = tree.shape();
        assert!(shape.is_partition(32));
        assert_eq!(shape.depth_profile(), vec![3, 5, 5, 4, 3, 4, 4, 1]);
        let spans: Vec<u64> = shape.leaves().iter().map(|l| l.range.len()).collect();
        assert_eq!(spans, vec![4, 1, 1, 2, 4, 2, 2, 16]);
        assert!(tree.fully_grown());
        // All split-threshold indices latch to L−1 = 5 once fully grown.
        assert!(shape.leaves().iter().all(|l| l.tli == 5));
        assert_eq!(tree.stats().splits, 7);
    }

    #[test]
    fn uniform_accesses_grow_a_balanced_tree() {
        // Fig. 4(b): uniform row accesses distribute the counters uniformly
        // (the CAT "mimics SCA" at level log2 M). Rotate across the four
        // pre-split regions so the access rate is uniform in time.
        let mut tree = CatTree::new(small_cfg());
        let mut i = 0u32;
        while !tree.fully_grown() {
            let row = (i % 4) * 256 + (i * 61) % 256;
            tree.record(RowId(row));
            i += 1;
        }
        let shape = tree.shape();
        assert_eq!(shape.depth_profile(), vec![3; 8]);
        assert!(shape.is_partition(1024));
    }

    #[test]
    fn biased_accesses_grow_an_unbalanced_tree() {
        // Fig. 4(a): a hammered row drags counters to the deepest level
        // around itself while cold regions keep coarse counters.
        let mut tree = CatTree::new(small_cfg());
        for _ in 0..600 {
            tree.record(RowId(700));
        }
        let shape = tree.shape();
        assert!(shape.is_partition(1024));
        let hot = shape
            .leaves()
            .iter()
            .find(|l| l.range.contains(700))
            .unwrap();
        assert_eq!(u32::from(hot.depth), tree.config().max_levels() - 1);
        // Some other region must still be at the pre-split level.
        assert!(shape.leaves().iter().any(|l| l.depth == 2));
    }

    #[test]
    fn refresh_covers_group_plus_victims() {
        let cfg = small_cfg();
        let mut tree = CatTree::new(cfg);
        let mut refresh = None;
        for _ in 0..2048 {
            if let Some(r) = tree.record(RowId(512)).refresh {
                refresh = Some(r);
                break;
            }
        }
        let r = refresh.expect("hot row must trigger a refresh");
        // The group containing row 512 at max depth L−1 = 5 spans
        // 1024/2^5 = 32 rows, plus one victim on each side.
        assert_eq!(r.len(), 34);
        assert!(r.contains(512));
        assert_eq!(tree.stats().refresh_events, 1);
        assert_eq!(tree.stats().refreshed_rows, 34);
    }

    #[test]
    fn refresh_range_clamps_at_bank_edges() {
        let mut tree = CatTree::new(small_cfg());
        let mut seen = None;
        for _ in 0..2048 {
            if let Some(r) = tree.record(RowId(0)).refresh {
                seen = Some(r);
                break;
            }
        }
        let r = seen.unwrap();
        assert_eq!(r.lo(), 0, "no victim below row 0");
        assert_eq!(r.len(), 33);
    }

    #[test]
    fn uniform_policy_cascades_terminate() {
        let cfg = CatConfig::new(1024, 8, 6, 256)
            .unwrap()
            .with_policy(ThresholdPolicy::Uniform);
        let mut tree = CatTree::new(cfg);
        for i in 0..50_000u32 {
            tree.record(RowId((i * 613) % 1024));
        }
        assert!(tree.shape().is_partition(1024));
    }

    #[test]
    fn reset_restores_initial_shape_but_keeps_stats() {
        let mut tree = CatTree::new(small_cfg());
        for _ in 0..600 {
            tree.record(RowId(10));
        }
        let activations = tree.stats().activations;
        assert!(tree.shape().max_depth() > 2);
        tree.reset();
        assert_eq!(tree.shape().depth_profile(), vec![2, 2, 2, 2]);
        assert_eq!(tree.stats().activations, activations);
        assert_eq!(tree.active_counters(), 4);
    }

    #[test]
    fn zero_counters_keeps_structure() {
        let mut tree = CatTree::new(small_cfg());
        for _ in 0..600 {
            tree.record(RowId(10));
        }
        let before = tree.shape();
        tree.zero_counters();
        let after = tree.shape();
        assert_eq!(before.depth_profile(), after.depth_profile());
        assert!(after.leaves().iter().all(|l| l.value == 0));
    }

    #[test]
    fn merge_then_split_preserves_partition() {
        let mut tree = CatTree::new(figure5_cfg());
        tests_build_full(&mut tree);
        let weights = vec![0u8; 8];
        let (slot, inode, l, r) = tree
            .find_cold_pair(&weights, u16::MAX)
            .expect("a sibling leaf pair must exist in a full tree");
        let freed = tree.merge_pair(slot, inode, l, r);
        assert!(tree.shape().is_partition(32));
        assert_eq!(tree.active_counters(), 7);
        // The freed counter is reused by the next hot split.
        let hot = tree.shape().leaves()[0].range.lo();
        let nc = tree.split_hot(hot).expect("split must succeed after merge");
        assert_eq!(nc, freed);
        assert!(tree.shape().is_partition(32));
        assert_eq!(tree.active_counters(), 8);
        assert_eq!(tree.stats().merges, 1);
    }

    #[test]
    fn split_hot_respects_depth_limit() {
        let mut tree = CatTree::new(figure5_cfg());
        tests_build_full(&mut tree);
        // Find the deepest leaf (level 5 = L−1): cannot be split further.
        let deep = tree
            .shape()
            .leaves()
            .iter()
            .find(|l| l.depth == 5)
            .unwrap()
            .range
            .lo();
        assert_eq!(tree.split_hot(deep), None);
    }

    #[test]
    fn sram_traffic_is_bounded_by_tree_height() {
        let mut tree = CatTree::new(small_cfg());
        for i in 0..10_000u32 {
            tree.record(RowId((i * 997) % 1024));
        }
        let s = tree.stats();
        // ≤ (L − λ + 1) reads plus the counter access per activation.
        let max_reads_per_access = f64::from(tree.config().max_levels());
        assert!(s.sram_accesses_per_activation() <= max_reads_per_access + 1.0);
        assert!(s.sram_accesses_per_activation() >= 2.0);
    }

    #[test]
    fn activation_out_of_range_panics() {
        let mut tree = CatTree::new(small_cfg());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            tree.record(RowId(1024));
        }));
        assert!(result.is_err());
    }

    fn tests_build_full(tree: &mut CatTree) {
        build_figure5(|row| {
            tree.record(row);
        });
        assert!(tree.fully_grown());
    }

    #[test]
    fn state_round_trip_is_bit_exact() {
        // Sculpt a tree with splits, merges, and a reconfiguration-style
        // split so the free lists carry non-trivial order, then round-trip.
        let mut tree = CatTree::new(figure5_cfg());
        tests_build_full(&mut tree);
        let weights = vec![0u8; 8];
        let (slot, inode, l, rr) = tree.find_cold_pair(&weights, u16::MAX).unwrap();
        tree.merge_pair(slot, inode, l, rr);
        let mut words = Vec::new();
        tree.save_state(&mut words);
        let mut fresh = CatTree::new(figure5_cfg());
        let mut r = crate::state::StateReader::new(&words);
        fresh.restore_state(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(fresh.shape().leaves(), tree.shape().leaves());
        assert_eq!(fresh.stats(), tree.stats());
        assert_eq!(fresh.active_counters(), tree.active_counters());
        assert_eq!(fresh.heap_bytes(), tree.heap_bytes());
        // The free lists round-trip in order: subsequent growth allocates
        // the same counters in both trees.
        for i in 0..500u32 {
            assert_eq!(
                tree.record(RowId(i * 13 % 32)),
                fresh.record(RowId(i * 13 % 32))
            );
        }
        assert_eq!(fresh.shape().leaves(), tree.shape().leaves());
    }

    #[test]
    fn restore_rejects_inconsistent_state() {
        let mut tree = CatTree::new(small_cfg());
        for _ in 0..600 {
            tree.record(RowId(10));
        }
        let mut words = Vec::new();
        tree.save_state(&mut words);
        // Truncation at every prefix length must fail, never panic.
        for len in 0..words.len() {
            let mut fresh = CatTree::new(small_cfg());
            let mut r = crate::state::StateReader::new(&words[..len]);
            let outcome = fresh
                .restore_state(&mut r)
                .err()
                .map(|_| ())
                .or_else(|| r.finish().err().map(|_| ()));
            assert!(outcome.is_some(), "truncation to {len} words must error");
        }
        // Corrupting the active-counter count (word 12, right after the
        // stats block) breaks either the growth latch or the flag count
        // consistency check.
        for delta in [1u64, 7] {
            let mut bad = words.clone();
            bad[12] = bad[12].wrapping_add(delta);
            let mut fresh = CatTree::new(small_cfg());
            let mut r = crate::state::StateReader::new(&bad);
            assert!(fresh.restore_state(&mut r).is_err());
        }
    }

    #[test]
    fn restore_refuses_forged_shapes() {
        let mut tree = CatTree::new(small_cfg());
        for _ in 0..600 {
            tree.record(RowId(10));
        }
        let mut words = Vec::new();
        tree.save_state(&mut words);
        // Word layout: stats, active count, latch, root count, roots, inode
        // count, inode pairs, counter count, counters, free lists.
        let roots_at = SchemeStats::FIELDS.len() + 3;
        let inode0 = roots_at + tree.roots.len() + 1;
        let counters_at = inode0 + 2 * tree.inodes.len() + 1;
        assert!(!tree.inodes.is_empty() && !tree.roots[0].is_leaf());
        let refused = |forged: &[u64], why: &'static str| {
            let mut fresh = CatTree::new(small_cfg());
            let mut r = crate::state::StateReader::new(forged);
            assert_eq!(fresh.restore_state(&mut r), Err(StateError::Invalid(why)));
        };

        // A cycle: both children of inode 0 point back at inode 0. Every
        // count and free list still checks out.
        let mut cyclic = words.clone();
        cyclic[inode0] = pack_node(NodeRef::Inode(0));
        cyclic[inode0 + 1] = pack_node(NodeRef::Inode(0));
        refused(&cyclic, "tree inode reached twice");

        // A shared subtree: root 1 points at root 0's inode.
        let mut shared = words.clone();
        shared[roots_at + 1] = shared[roots_at];
        refused(&shared, "tree inode reached twice");

        // A leaf whose depth field disagrees with its place in the tree.
        let NodeRef::Leaf(c) = tree.roots[1] else {
            panic!("root 1 is an untouched pre-split leaf")
        };
        let mut deep = words.clone();
        deep[counters_at + c as usize] += 1 << 40;
        refused(&deep, "tree leaf inactive or at the wrong depth");

        let mut fresh = CatTree::new(small_cfg());
        fresh
            .restore_state(&mut crate::state::StateReader::new(&words))
            .unwrap();
    }

    /// Every row of trees grown over the differential grid's dimensions,
    /// including DRCAT trees reshaped by merges: the counter-only descent
    /// charges the `shape()` leaf covering the row after `depth − (λ−1)`
    /// inode reads, and `locate` derives that leaf's range and the slot
    /// holding it.
    #[test]
    fn descent_and_locate_agree_with_the_shape() {
        use cat_prng::rngs::StdRng;
        use cat_prng::{Rng, SeedableRng};
        let policies = [
            ThresholdPolicy::PaperCurve,
            ThresholdPolicy::Doubling,
            ThresholdPolicy::Uniform,
        ];
        let mut case = 0usize;
        let mut merges = 0;
        for rows in [256u32, 512, 1024] {
            for counters in [4usize, 8, 16] {
                for extra_levels in 2u32..=6 {
                    for lambda in 1u32..=3 {
                        let lambda = lambda.min(counters.trailing_zeros());
                        let Ok(cfg) = CatConfig::new(rows, counters, lambda + extra_levels, 64)
                            .and_then(|c| c.with_lambda(lambda))
                        else {
                            continue;
                        };
                        let cfg = cfg.with_policy(policies[case % 3]);
                        let mut rng = StdRng::seed_from_u64(case as u64);
                        case += 1;
                        let mut tree = CatTree::new(cfg.clone());
                        let mut drcat = crate::Drcat::new(cfg);
                        let hot = [rng.gen_range(0..rows), rng.gen_range(0..rows)];
                        for i in 0..6000u32 {
                            let row = if i % 4 == 0 {
                                rng.gen_range(0..rows)
                            } else {
                                hot[(i / 3000) as usize]
                            };
                            tree.record(RowId(row));
                            drcat.on_activation(RowId(row));
                        }
                        merges += drcat.stats().merges;
                        check_lookups(&tree);
                        check_lookups(drcat.tree());
                    }
                }
            }
        }
        assert!(merges > 0, "some DRCAT tree must have merged");
    }

    fn check_lookups(tree: &CatTree) {
        let root_depth = tree.config().lambda() - 1;
        for leaf in tree.shape().leaves() {
            for row in leaf.range.lo()..=leaf.range.hi() {
                let (c, visits) = descend(&tree.roots, &tree.inodes, tree.root_bit(), row);
                assert_eq!(c, leaf.counter, "row {row}");
                assert_eq!(visits + root_depth, u32::from(leaf.depth), "row {row}");
                let (c, lo, hi, slot) = tree.locate(row);
                assert_eq!(
                    (c, lo, hi),
                    (leaf.counter, leaf.range.lo(), leaf.range.hi()),
                    "row {row}"
                );
                let held = match slot {
                    ParentSlot::Root(g) => tree.roots[g as usize],
                    ParentSlot::Left(i) => tree.inodes[i as usize].left,
                    ParentSlot::Right(i) => tree.inodes[i as usize].right,
                };
                assert_eq!(held, NodeRef::Leaf(c), "row {row}");
            }
        }
    }
}
