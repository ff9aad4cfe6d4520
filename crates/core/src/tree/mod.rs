//! The Counter-based Adaptive Tree (§IV). The modelled hardware is the
//! compact SRAM layout of §IV-C: an array `I` of intermediate nodes (two
//! tagged child pointers each), an array `C` of counters, and — starting
//! from a pre-split complete tree of λ levels — direct indexing of the top
//! `λ−1` address bits, below which each intermediate node is left by the
//! next address bit. Software holds the same shape as a leaf table
//! (`table.rs`): a row's counter is found by a rank over a leaf-start
//! bitmap, and a split or merge sets or clears one bit.

pub mod reference;
mod shape;
mod table;

pub use shape::{LeafInfo, TreeShape};

use crate::scheme::{HardwareProfile, MitigationScheme, Refreshes, SchemeKind};
use crate::state::{StateError, StateReader};
use crate::{CatConfig, RowId, RowRange, SchemeStats, SplitThresholds};
use table::LeafTable;

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

/// Two sibling leaves that DRCAT may merge (§V-B step 1): positions `at`
/// and `at + 1` of the leaf table, the right one starting at finest cell
/// `cell`.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) struct ColdPair {
    pub at: usize,
    pub cell: u32,
    pub left: u16,
    pub right: u16,
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
    pub(crate) counters: Vec<Counter>,
    table: LeafTable,
    free_counters: Vec<u16>,
    all_active: bool,
    stats: SchemeStats,
}

impl CatTree {
    /// Builds the initial pre-split tree: `2^{λ−1}` active counters at level
    /// `λ−1`, each covering `N / 2^{λ−1}` rows.
    pub fn new(config: CatConfig) -> Self {
        let m = config.counters();
        let roots = 1usize << (config.lambda() - 1);
        let mut tree = CatTree {
            thresholds: config.split_thresholds(),
            counters: vec![Counter::default(); m],
            table: LeafTable::new(config.max_levels() - 1, m),
            free_counters: Vec::with_capacity(m - roots),
            all_active: false,
            stats: SchemeStats::default(),
            config,
        };
        tree.plant();
        tree
    }

    /// Plants the pre-split tree in the arrays `new` sized: the roots are
    /// counters `0..2^{λ−1}`, and the free counters pop in ascending order.
    fn plant(&mut self) {
        let root_depth = self.root_depth();
        let roots = 1usize << root_depth;
        let root_cells = 1u32 << (self.top() - u32::from(root_depth));
        self.counters.fill(Counter::default());
        self.counters[..roots].fill(Counter {
            value: 0,
            tli: root_depth,
            depth: root_depth,
            active: true,
        });
        self.table
            .fill((0..roots).map(|g| (g as u32 * root_cells, g as u16)));
        let m = self.counters.len();
        self.free_counters.clear();
        self.free_counters
            .extend((roots..m).rev().map(|i| i as u16));
        self.all_active = false;
        if roots == m {
            self.latch_all_thresholds();
        }
    }

    /// The configuration this tree was built from.
    pub fn config(&self) -> &CatConfig {
        &self.config
    }

    /// The split thresholds in use.
    pub fn thresholds(&self) -> &SplitThresholds {
        &self.thresholds
    }

    /// Resident heap bytes of the tree's arrays (counters, leaf table and
    /// free list). All of them are sized from the configuration when the
    /// tree is built and never grow: the counter array holds `M` (≤ 64 in
    /// every paper configuration) entries, and the leaf table's bitmap
    /// `2^(L−1)` bits.
    pub fn heap_bytes(&self) -> usize {
        self.counters.capacity() * std::mem::size_of::<Counter>()
            + self.table.heap_bytes()
            + self.free_counters.capacity() * std::mem::size_of::<u16>()
    }

    /// Number of currently active counters.
    pub fn active_counters(&self) -> usize {
        self.table.ids().len()
    }

    /// `true` once every counter has been activated (Algorithm 1 then
    /// latches every split-threshold index to `L−1`).
    pub fn fully_grown(&self) -> bool {
        self.all_active
    }

    /// The deepest level `L−1`. The leaf table's finest cells are the leaves
    /// a tree of this depth could have: `2^(L−1)` of them.
    fn top(&self) -> u32 {
        self.config.max_levels() - 1
    }

    /// Depth `λ−1` of the pre-split roots.
    fn root_depth(&self) -> u8 {
        (self.config.lambda() - 1) as u8
    }

    /// Row-address bits below a finest cell: cell = `row >> cell_shift`.
    fn cell_shift(&self) -> u32 {
        self.config.rows().trailing_zeros() - self.top()
    }

    /// The counter covering `row` (the [`record_run`](Self::record_run)
    /// lookup) with its position in the leaf table and its row range
    /// `[lo, hi]`, derived from the leaf's depth (`rows >> depth` rows,
    /// aligned on that span). Only refreshes and splits need the range.
    fn locate(&self, row: u32) -> (usize, u16, u32, u32) {
        let at = self.table.slot(row >> self.cell_shift());
        let c = self.table.ids()[at];
        let span = self.config.rows() >> self.counters[c as usize].depth;
        let lo = row & !(span - 1);
        (at, c, lo, lo + (span - 1))
    }

    fn latch_all_thresholds(&mut self) {
        let top = self.top() as u8;
        for c in self.counters.iter_mut().filter(|c| c.active) {
            c.tli = top;
        }
        self.all_active = true;
    }

    /// Splits leaf `c` (at table position `at`, covering `[lo, hi]`): the
    /// left half stays with `c`, the right half goes to a newly activated
    /// clone (Algorithm 1 lines 15–22), which the table places at `at + 1`.
    /// Returns the new counter, or `None` when no counter is free or the
    /// leaf is at depth `L−1` — it then spans one finest cell, and a
    /// one-row leaf is always there.
    fn split_leaf(&mut self, c: u16, at: usize, lo: u32, hi: u32) -> Option<u16> {
        let parent = self.counters[c as usize];
        if u32::from(parent.depth) >= self.top() {
            return None;
        }
        let nc = self.free_counters.pop()?;
        let child_tli = (parent.tli + 1).min(self.top() as u8);
        self.counters[nc as usize] = Counter {
            value: parent.value,
            tli: child_tli,
            depth: parent.depth + 1,
            active: true,
        };
        self.counters[c as usize].tli = child_tli;
        self.counters[c as usize].depth = parent.depth + 1;
        let mid = lo + (hi - lo) / 2;
        self.table.split(at, (mid + 1) >> self.cell_shift(), nc);
        self.stats.splits += 1;
        self.stats.sram_writes += 2; // new intermediate node + cloned counter
        if self.active_counters() == self.config.counters() {
            self.latch_all_thresholds();
        }
        Some(nc)
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
    /// Each row's counter is a rank over the leaf table, so every load of a
    /// lookup is addressed by the row alone and no lookup branches on the
    /// tree's shape. The arrays and the threshold table are borrowed once
    /// per call, and the SRAM statistics are summed in locals and written
    /// back when the run ends or reaches a threshold. It is always inlined
    /// so that `record`'s one-row call folds down to a plain per-row path.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty or holds a row outside the bank.
    #[inline(always)]
    pub fn record_run(&mut self, rows: &[u32]) -> (usize, Activation) {
        assert!(!rows.is_empty(), "a run records at least one row");
        let bank_rows = self.config.rows();
        let shift = self.cell_shift();
        let thresholds = self.thresholds.as_slice();
        let table = &self.table;
        let (ids, counters) = (table.ids(), &mut self.counters[..]);
        let mut consumed = 0usize;
        let mut hit = false;
        let mut depths = 0u64;
        let mut max_depth = self.stats.max_depth_touched;
        let mut last = 0u16;
        for &row in rows {
            assert!(
                row < bank_rows,
                "row {row} out of range (bank has {bank_rows} rows)"
            );
            consumed += 1;
            let c = ids[table.slot(row >> shift)];
            let counter = &mut counters[c as usize];
            depths += u64::from(counter.depth);
            max_depth = max_depth.max(u64::from(counter.depth));
            counter.value += 1;
            last = c;
            if counter.value >= thresholds[usize::from(counter.tli)] {
                hit = true;
                break;
            }
        }
        // Per row, one read per intermediate node the §IV-C walk traverses
        // (the leaf's depth below the roots, `depth − (λ−1)`) plus the
        // counter read-modify-write.
        let n = consumed as u64;
        self.stats.activations += n;
        self.stats.sram_reads += depths - n * u64::from(self.root_depth()) + n;
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
        let (mut at, mut c, mut lo, mut hi) = self.locate(row);
        loop {
            let counter = self.counters[c as usize];
            let threshold = self.thresholds.threshold_for_level(u32::from(counter.tli));
            if counter.value < threshold {
                return Activation {
                    refresh: None,
                    counter: c,
                };
            }
            let top_level = u32::from(counter.tli) == self.top();
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
            match self.split_leaf(c, at, lo, hi) {
                Some(nc) => {
                    // Descend into the half containing the activated row;
                    // the clone kept the parent's value, so a larger split
                    // threshold may already be met (cascade).
                    let mid = lo + (hi - lo) / 2;
                    if row <= mid {
                        hi = mid;
                    } else {
                        (at, c, lo) = (at + 1, nc, mid + 1);
                    }
                }
                None => {
                    // Cannot split further (depth L−1): count up to T at
                    // this level instead.
                    self.counters[c as usize].tli = self.top() as u8;
                }
            }
        }
    }

    /// Finds two sibling leaves with zero weight — a pair of cold counters
    /// that DRCAT may merge (§V-B step 1). The hot counter `exclude` is
    /// never eligible. Siblings are adjacent leaves of one depth below the
    /// roots whose left start is aligned to their parent's span; they are
    /// scanned from the highest rows down, the order in which a right-first
    /// depth-first search of the §IV-C tree meets them.
    pub(crate) fn find_cold_pair(&self, weights: &[u8], exclude: u16) -> Option<ColdPair> {
        let (top, root_depth) = (self.top(), self.root_depth());
        let ids = self.table.ids();
        let depth = |c: u16| self.counters[c as usize].depth;
        let span = |d: u8| 1u64 << (top - u32::from(d));
        // Where the leaf at `at + 1` starts, in finest cells.
        let mut start = (1u64 << top) - span(depth(*ids.last()?));
        for at in (0..ids.len() - 1).rev() {
            let (left, right) = (ids[at], ids[at + 1]);
            let d = depth(left);
            let lo = start - span(d);
            if d == depth(right)
                && d > root_depth
                && lo.is_multiple_of(2 * span(d))
                && left != exclude
                && right != exclude
                && weights[left as usize] == 0
                && weights[right as usize] == 0
            {
                return Some(ColdPair {
                    at,
                    cell: start as u32,
                    left,
                    right,
                });
            }
            start = lo;
        }
        None
    }

    /// Merges two cold sibling leaves: the right leaf takes over the parent
    /// (as in Fig. 7, where C5 is promoted and C2 released) carrying the
    /// *maximum* of the two counter values — merging must never under-count
    /// any row in the combined group. Returns the released (left) counter.
    pub(crate) fn merge_pair(&mut self, pair: ColdPair) -> u16 {
        let ColdPair {
            at,
            cell,
            left,
            right,
        } = pair;
        debug_assert_eq!(self.table.ids()[at..at + 2], [left, right]);
        let lv = self.counters[left as usize].value;
        let rv = self.counters[right as usize].value;
        self.counters[right as usize].value = lv.max(rv);
        self.counters[right as usize].depth -= 1;
        self.counters[left as usize] = Counter::default();
        self.table.merge(at, cell);
        self.free_counters.push(left);
        self.stats.merges += 1;
        self.stats.sram_writes += 2;
        left
    }

    /// Splits the (hot) leaf covering `row` using a previously released
    /// counter (§V-B step 2). Fails when the leaf is already at the maximum
    /// level or no counter is free. Returns the new counter index.
    pub(crate) fn split_hot(&mut self, row: u32) -> Option<u16> {
        let (at, c, lo, hi) = self.locate(row);
        let was_tli = self.counters[c as usize].tli;
        let nc = self.split_leaf(c, at, lo, hi)?;
        // Reconfiguration happens on the fully grown tree: thresholds stay
        // latched at L−1 rather than following the depth.
        let tli = if self.all_active {
            self.top() as u8
        } else {
            was_tli
        };
        self.counters[c as usize].tli = tli;
        self.counters[nc as usize].tli = tli;
        Some(nc)
    }

    /// Resets the tree to its initial pre-split state (used by PRCAT at
    /// every auto-refresh epoch), in place. Statistics are preserved.
    pub fn reset(&mut self) {
        self.plant();
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

    /// The counter that an activation of `row` counts on — the lookup of
    /// [`record_run`](Self::record_run), without recording anything.
    ///
    /// # Panics
    ///
    /// Panics if `row` is outside the bank.
    pub fn counter_of(&self, row: RowId) -> u16 {
        assert!(row.0 < self.config.rows(), "row {} out of range", row.0);
        self.locate(row.0).1
    }

    /// Snapshot of the tree shape (leaf ranges and depths), ordered by row.
    pub fn shape(&self) -> TreeShape {
        shape::collect(self)
    }

    pub(crate) fn stats_mut(&mut self) -> &mut SchemeStats {
        &mut self.stats
    }

    /// Appends the tree's complete mutable state for checkpointing: stats,
    /// the growth latch, the counter array `C`, the leaf-order counter ids,
    /// and the free list (whose pop *order* determines future allocations,
    /// so it round-trips verbatim). The leaf-start bitmap is not written:
    /// each leaf starts where the one before it ends, and spans
    /// `2^(L−1−depth)` cells.
    pub fn save_state(&self, out: &mut Vec<u64>) {
        self.stats.save_state(out);
        out.push(u64::from(self.all_active));
        out.push(self.counters.len() as u64);
        for c in &self.counters {
            out.push(
                u64::from(c.value)
                    | u64::from(c.tli) << 32
                    | u64::from(c.depth) << 40
                    | u64::from(c.active) << 48,
            );
        }
        let ids = self.table.ids();
        out.push(ids.len() as u64);
        out.extend(ids.iter().map(|&c| u64::from(c)));
        out.push(self.free_counters.len() as u64);
        out.extend(self.free_counters.iter().map(|&i| u64::from(i)));
    }

    /// Restores state captured by [`CatTree::save_state`] onto a freshly
    /// built tree of the same configuration.
    ///
    /// Every structural invariant is revalidated: index bounds, the leaf
    /// count against the active flags, the growth latch, the partition (the
    /// leaves, each an active counter listed once, tile the bank without a
    /// gap or an overrun, each starting on a multiple of its depth's span),
    /// and the free list (exactly the inactive counters, each once) — a
    /// corrupted stream cannot produce a silently inconsistent tree.
    ///
    /// # Errors
    ///
    /// Returns [`StateError`] on any malformed or inconsistent value; the
    /// tree is then partially restored and must be discarded.
    pub fn restore_state(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        let m = self.counters.len();
        let (top, root_depth) = (self.top(), self.root_depth());
        self.stats.restore_state(r)?;
        let all_active = r.next_bool()?;
        if r.next_word()? != m as u64 {
            return Err(StateError::Invalid("tree counter count"));
        }
        let mut active = 0usize;
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
            if u32::from(counter.tli) > top || u32::from(counter.depth) > top {
                return Err(StateError::Invalid("tree counter level out of range"));
            }
            active += usize::from(counter.active);
        }
        // The latch is sticky: it fires when the tree first becomes fully
        // grown and survives later merges, so only the forward implication
        // can be checked.
        if active == m && !all_active {
            return Err(StateError::Invalid("tree growth latch"));
        }
        if r.next_word()? != active as u64 {
            return Err(StateError::Invalid("tree leaf count vs active flags"));
        }
        // The partition, read straight into the table `new` sized. Each
        // leaf starts where the one before ends; listed ids are marked in
        // `seen`.
        let mut seen = vec![false; m];
        let total = 1u64 << top;
        let mut start = 0u64;
        let counters = &self.counters;
        let mut next_leaf = || {
            let c = r.next_u16()?;
            let Some(listed) = seen.get_mut(usize::from(c)) else {
                return Err(StateError::Invalid("tree leaf id out of range"));
            };
            if std::mem::replace(listed, true) {
                return Err(StateError::Invalid("tree leaf id listed twice"));
            }
            let counter = counters[usize::from(c)];
            if !counter.active {
                return Err(StateError::Invalid("tree leaf id inactive"));
            }
            if counter.depth < root_depth {
                return Err(StateError::Invalid("tree leaf above the pre-split roots"));
            }
            if start >= total {
                return Err(StateError::Invalid("tree leaves overrun the bank"));
            }
            let span = 1u64 << (top - u32::from(counter.depth));
            if !start.is_multiple_of(span) {
                return Err(StateError::Invalid(
                    "tree leaf start misaligned to its depth",
                ));
            }
            let cell = start as u32;
            start += span;
            Ok((cell, c))
        };
        let mut refused = Ok(());
        self.table
            .fill((0..active).map_while(|_| next_leaf().map_err(|e| refused = Err(e)).ok()));
        refused?;
        if start != total {
            return Err(StateError::Invalid("tree leaves leave a gap"));
        }
        // The listed ids are exactly the active counters, so each free-list
        // entry must be an unmarked (inactive) one.
        read_free_list(r, m - active, &mut seen, &mut self.free_counters)?;
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
        let pair = tree
            .find_cold_pair(&weights, u16::MAX)
            .expect("a sibling leaf pair must exist in a full tree");
        let freed = tree.merge_pair(pair);
        assert_eq!(freed, pair.left);
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
        let pair = tree.find_cold_pair(&weights, u16::MAX).unwrap();
        tree.merge_pair(pair);
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
        // Corrupting the leaf count (after the stats block, the growth
        // latch and the counters) breaks its match with the active flags.
        let leaf_count = SchemeStats::FIELDS.len() + 2 + tree.counters.len();
        for delta in [1u64, 7] {
            let mut bad = words.clone();
            bad[leaf_count] = bad[leaf_count].wrapping_add(delta);
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
        while !tree.fully_grown() {
            tree.record(RowId(1023));
        }
        // Row 10's splits carved up the first root and row 1023's one
        // split halved the last: roots 1 and 2 are untouched.
        assert_eq!(tree.shape().depth_profile(), vec![5, 5, 4, 3, 2, 2, 3, 3]);
        let mut words = Vec::new();
        tree.save_state(&mut words);
        // Word layout: stats, growth latch, counter count, counters (depth
        // in bits 40..48), leaf count, leaf ids, free list.
        let counters_at = SchemeStats::FIELDS.len() + 2;
        let depth_of = |c: u16| counters_at + usize::from(c);
        let count_at = counters_at + tree.counters.len();
        let ids_at = count_at + 1;
        let n = tree.active_counters();
        let ids = tree.table.ids().to_vec();
        let forge = |edit: &dyn Fn(&mut Vec<u64>)| {
            let mut forged = words.clone();
            edit(&mut forged);
            forged
        };
        let refused = |forged: Vec<u64>, why: &'static str| {
            let mut fresh = CatTree::new(small_cfg());
            let mut r = crate::state::StateReader::new(&forged);
            assert_eq!(fresh.restore_state(&mut r), Err(StateError::Invalid(why)));
        };
        let one_level = 1u64 << 40;

        // A gap: the last leaf one level deeper ends half its span short
        // of the bank end.
        refused(
            forge(&|w| w[depth_of(ids[n - 1])] += one_level),
            "tree leaves leave a gap",
        );
        // An overlap: the second-to-last leaf one level shallower also
        // covers the last leaf's rows, which then start past the bank.
        refused(
            forge(&|w| w[depth_of(ids[n - 2])] -= one_level),
            "tree leaves overrun the bank",
        );
        // A misaligned start: the last leaf listed first pushes the deep
        // leaves off their alignment.
        refused(
            forge(&|w| w.swap(ids_at, ids_at + n - 1)),
            "tree leaf start misaligned to its depth",
        );
        // A start that disagrees with the counter's depth: root 1 one
        // level deeper puts root 2's start in the middle of a root.
        refused(
            forge(&|w| w[depth_of(ids[4])] += one_level),
            "tree leaf start misaligned to its depth",
        );
        // A leaf above the pre-split roots would straddle two of them.
        refused(
            forge(&|w| w[depth_of(ids[0])] &= !(0xff << 40)),
            "tree leaf above the pre-split roots",
        );
        refused(
            forge(&|w| w[ids_at + 1] = w[ids_at]),
            "tree leaf id listed twice",
        );
        refused(forge(&|w| w[ids_at + 1] = 8), "tree leaf id out of range");
        // An inactive id: a released counter in place of a leaf.
        let mut merged = tree.clone();
        let pair = merged.find_cold_pair(&[0; 8], u16::MAX).unwrap();
        let released = merged.merge_pair(pair);
        let mut image = Vec::new();
        merged.save_state(&mut image);
        image[ids_at + 1] = u64::from(released);
        refused(image, "tree leaf id inactive");
        // One id fewer than there are active counters.
        refused(
            forge(&|w| {
                w.remove(ids_at + n - 1);
                w[count_at] -= 1;
            }),
            "tree leaf count vs active flags",
        );

        let mut fresh = CatTree::new(small_cfg());
        fresh
            .restore_state(&mut crate::state::StateReader::new(&words))
            .unwrap();
    }

    /// Every row of trees grown over the differential grid's dimensions,
    /// including DRCAT trees reshaped by merges: the table lookup charges
    /// the `shape()` leaf covering the row, and `locate` derives that
    /// leaf's range and its table position.
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
        let shape = tree.shape();
        assert!(shape.is_partition(tree.config().rows()));
        for (at, leaf) in shape.leaves().iter().enumerate() {
            for row in leaf.range.lo()..=leaf.range.hi() {
                assert_eq!(tree.counter_of(RowId(row)), leaf.counter, "row {row}");
                assert_eq!(
                    tree.locate(row),
                    (at, leaf.counter, leaf.range.lo(), leaf.range.hi()),
                    "row {row}"
                );
            }
        }
    }
}
