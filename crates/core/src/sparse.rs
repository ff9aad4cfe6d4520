//! Sparse bit-block slab — the storage primitive behind lazily
//! materialized per-bank state (`DESIGN.md §10`).
//!
//! A [`SparseSlab`] maps a fixed index space `0..capacity` to at most one
//! payload per index, organised as 64-entry *bit-blocks* in the style of
//! hierarchical sparse arrays: each block keeps a `u64` occupancy bitmask
//! plus a dense, rank-ordered payload vector. Lookup is O(1) — mask test,
//! then `count_ones` over the bits below the queried one selects the
//! payload slot. Absent entries cost zero payload bytes, and blocks past
//! the highest touched index are never allocated, so a slab over a
//! million mostly-cold banks stays a few kilobytes.
//!
//! Blocks whose occupancy crosses 3/4 of the block's span are *promoted*
//! to an uncompressed direct-indexed layout (one `Option<T>` slot per
//! index) so dense regions — e.g. a fully-hot 16-bank engine — pay no
//! rank arithmetic on the hot path; dropping back below 1/4 *demotes*
//! the block to the packed layout again (the gap between the two
//! thresholds is deliberate hysteresis).
//!
//! Determinism: the slab is purely index-addressed — no hashing, no
//! allocation-order dependence. Iteration is always in ascending index
//! order regardless of insertion order.

/// Occupancy numerator over [`PROMOTE_DEN`] at or above which a packed
/// block switches to the direct-indexed layout.
const PROMOTE_NUM: usize = 3;
/// Denominator of the promotion/demotion density thresholds.
const PROMOTE_DEN: usize = 4;

/// A fixed-capacity sparse map from `usize` indices to `T`, stored as
/// 64-entry bit-blocks (see the module docs for layout and complexity).
///
/// ```
/// use cat_core::SparseSlab;
/// let mut slab: SparseSlab<u64> = SparseSlab::new(1 << 20);
/// *slab.get_or_insert_with(1_000_000, u64::default) += 7;
/// assert_eq!(slab.get(1_000_000), Some(&7));
/// assert_eq!(slab.get(3), None);
/// assert_eq!(slab.occupied(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct SparseSlab<T> {
    capacity: usize,
    occupied: usize,
    /// Grown lazily up to the highest touched block only.
    blocks: Vec<Block<T>>,
}

#[derive(Clone, Debug)]
struct Block<T> {
    mask: u64,
    store: Store<T>,
}

#[derive(Clone, Debug)]
enum Store<T> {
    /// Rank-ordered dense payload: the entry for local bit `i` lives at
    /// `popcount(mask & ((1 << i) - 1))`.
    Packed(Vec<T>),
    /// Direct-indexed escape hatch for dense blocks: slot `i` holds the
    /// entry for local bit `i`.
    Direct(Vec<Option<T>>),
}

impl<T> Block<T> {
    fn empty() -> Self {
        Block {
            mask: 0,
            store: Store::Packed(Vec::new()),
        }
    }

    /// Packed → direct-indexed, preserving ascending order.
    fn promote(&mut self, span: usize) {
        if let Store::Packed(packed) = &mut self.store {
            let mut direct: Vec<Option<T>> = Vec::with_capacity(span);
            direct.resize_with(span, || None);
            let mut mask = self.mask;
            for value in packed.drain(..) {
                let i = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                direct[i] = Some(value);
            }
            self.store = Store::Direct(direct);
        }
    }

    /// Direct-indexed → packed; `drain` visits slots in ascending index
    /// order, which is exactly rank order.
    fn demote(&mut self) {
        if let Store::Direct(direct) = &mut self.store {
            let packed: Vec<T> = direct.drain(..).flatten().collect();
            self.store = Store::Packed(packed);
        }
    }
}

/// Ascending iterator over the set bits of a `u64`.
struct MaskBits(u64);

impl Iterator for MaskBits {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            return None;
        }
        let i = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1;
        Some(i)
    }
}

/// Two-variant iterator so both block layouts share one `flat_map`.
enum Either<A, B> {
    Packed(A),
    Direct(B),
}

impl<A: Iterator<Item = I>, B: Iterator<Item = I>, I> Iterator for Either<A, B> {
    type Item = I;

    fn next(&mut self) -> Option<I> {
        match self {
            Either::Packed(a) => a.next(),
            Either::Direct(b) => b.next(),
        }
    }
}

impl<T> SparseSlab<T> {
    /// An empty slab over the index space `0..capacity`. O(1): no block
    /// is allocated until an index is inserted.
    pub fn new(capacity: usize) -> Self {
        SparseSlab {
            capacity,
            occupied: 0,
            blocks: Vec::new(),
        }
    }

    /// The fixed index-space size this slab was created with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// How many indices currently hold an entry.
    pub fn occupied(&self) -> usize {
        self.occupied
    }

    /// Allocated capacity of the block directory, in blocks. Unlike the
    /// entry count this is touch-*order* dependent (the directory grows to
    /// cover the highest block seen so far), so checkpoints record it as a
    /// high-water mark and restore it via
    /// [`SparseSlab::reserve_block_capacity`] to keep
    /// [`SparseSlab::heap_bytes`] bit-equal across a save/restore cycle.
    pub fn block_capacity(&self) -> usize {
        self.blocks.capacity()
    }

    /// Grows the block directory's allocation to at least `cap` blocks
    /// without changing its contents. Exact (`reserve_exact`), so restoring
    /// a saved [`SparseSlab::block_capacity`] reproduces it precisely.
    pub fn reserve_block_capacity(&mut self, cap: usize) {
        self.blocks
            .reserve_exact(cap.saturating_sub(self.blocks.len()));
    }

    /// `true` when no index holds an entry.
    pub fn is_empty(&self) -> bool {
        self.occupied == 0
    }

    /// Number of valid local bits in block `b` (64 except for the tail
    /// block of a capacity that is not a multiple of 64).
    fn span(&self, b: usize) -> usize {
        (self.capacity - (b << 6)).min(64)
    }

    /// `true` when `idx` holds an entry.
    #[inline]
    pub fn contains(&self, idx: usize) -> bool {
        idx < self.capacity
            && self
                .blocks
                .get(idx >> 6)
                .is_some_and(|blk| blk.mask & (1 << (idx & 63)) != 0)
    }

    /// The entry at `idx`, if present. Out-of-capacity indices are `None`.
    #[inline]
    pub fn get(&self, idx: usize) -> Option<&T> {
        if idx >= self.capacity {
            return None;
        }
        let block = self.blocks.get(idx >> 6)?;
        let bit = 1u64 << (idx & 63);
        if block.mask & bit == 0 {
            return None;
        }
        match &block.store {
            Store::Packed(v) => v.get((block.mask & (bit - 1)).count_ones() as usize),
            Store::Direct(v) => v.get(idx & 63)?.as_ref(),
        }
    }

    /// Mutable access to the entry at `idx`, if present.
    #[inline]
    pub fn get_mut(&mut self, idx: usize) -> Option<&mut T> {
        if idx >= self.capacity {
            return None;
        }
        let block = self.blocks.get_mut(idx >> 6)?;
        let bit = 1u64 << (idx & 63);
        if block.mask & bit == 0 {
            return None;
        }
        match &mut block.store {
            Store::Packed(v) => v.get_mut((block.mask & (bit - 1)).count_ones() as usize),
            Store::Direct(v) => v.get_mut(idx & 63)?.as_mut(),
        }
    }

    /// Inserts `value` at `idx`, returning the previous entry if any.
    /// Crossing the density threshold promotes the block in place.
    ///
    /// # Panics
    ///
    /// Panics when `idx` is outside the slab's capacity — matching the
    /// bounds behaviour of the dense vectors this type replaces.
    pub fn insert(&mut self, idx: usize, value: T) -> Option<T> {
        assert!(
            idx < self.capacity,
            "index {idx} out of slab capacity {}",
            self.capacity
        );
        let b = idx >> 6;
        if self.blocks.len() <= b {
            self.blocks.resize_with(b + 1, Block::empty);
        }
        let span = self.span(b);
        let block = &mut self.blocks[b];
        let bit = 1u64 << (idx & 63);
        match &mut block.store {
            Store::Direct(v) => {
                let old = v[idx & 63].replace(value);
                if old.is_none() {
                    block.mask |= bit;
                    self.occupied += 1;
                }
                old
            }
            Store::Packed(v) => {
                let rank = (block.mask & (bit - 1)).count_ones() as usize;
                if block.mask & bit != 0 {
                    Some(std::mem::replace(&mut v[rank], value))
                } else {
                    // Grow exactly: a packed block's payload never holds
                    // a spare slot (a lone bank in its block costs one
                    // payload, not the four of `Vec`'s first growth).
                    // Cold path: it runs only when an index first fills.
                    v.reserve_exact(1);
                    v.insert(rank, value);
                    block.mask |= bit;
                    self.occupied += 1;
                    if block.mask.count_ones() as usize * PROMOTE_DEN >= span * PROMOTE_NUM {
                        block.promote(span);
                    }
                    None
                }
            }
        }
    }

    /// Removes and returns the entry at `idx`. An emptied block releases
    /// its payload allocation; a direct block falling below 1/4 density
    /// demotes back to the packed layout.
    pub fn remove(&mut self, idx: usize) -> Option<T> {
        if idx >= self.capacity {
            return None;
        }
        let b = idx >> 6;
        let span = self.span(b);
        let block = self.blocks.get_mut(b)?;
        let bit = 1u64 << (idx & 63);
        if block.mask & bit == 0 {
            return None;
        }
        block.mask &= !bit;
        self.occupied -= 1;
        let out = match &mut block.store {
            Store::Direct(v) => v[idx & 63].take(),
            Store::Packed(v) => {
                let rank = (block.mask & (bit - 1)).count_ones() as usize;
                Some(v.remove(rank))
            }
        };
        let occ = block.mask.count_ones() as usize;
        if occ == 0 {
            *block = Block::empty();
        } else if matches!(block.store, Store::Direct(_)) && occ * PROMOTE_DEN < span {
            block.demote();
        }
        out
    }

    /// The entry at `idx`, inserting `make()` first if absent.
    ///
    /// This is the engine's per-activation path, so the present case is a
    /// single pass: one occupancy-mask test, then one rank-select (or
    /// direct) payload index — never the `contains` + `insert` + `get_mut`
    /// triple walk of the naive composition.
    ///
    /// # Panics
    ///
    /// Panics when `idx` is outside the slab's capacity (like
    /// [`insert`](Self::insert)).
    #[inline]
    pub fn get_or_insert_with(&mut self, idx: usize, make: impl FnOnce() -> T) -> &mut T {
        let (b, bit) = (idx >> 6, 1u64 << (idx & 63));
        let present =
            idx < self.capacity && self.blocks.get(b).is_some_and(|blk| blk.mask & bit != 0);
        if !present {
            self.insert(idx, make());
        }
        let block = &mut self.blocks[b];
        match &mut block.store {
            Store::Packed(v) => &mut v[(block.mask & (bit - 1)).count_ones() as usize],
            Store::Direct(v) => v[idx & 63].as_mut().expect("entry present: checked above"),
        }
    }

    /// Entries in ascending index order, regardless of insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &T)> {
        self.blocks.iter().enumerate().flat_map(|(b, block)| {
            let base = b << 6;
            match &block.store {
                Store::Packed(v) => Either::Packed(
                    MaskBits(block.mask)
                        .zip(v.iter())
                        .map(move |(off, t)| (base + off, t)),
                ),
                Store::Direct(v) => Either::Direct(
                    v.iter()
                        .enumerate()
                        .filter_map(move |(off, o)| o.as_ref().map(|t| (base + off, t))),
                ),
            }
        })
    }

    /// Mutable entries in ascending index order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (usize, &mut T)> {
        self.blocks.iter_mut().enumerate().flat_map(|(b, block)| {
            let base = b << 6;
            match &mut block.store {
                Store::Packed(v) => Either::Packed(
                    MaskBits(block.mask)
                        .zip(v.iter_mut())
                        .map(move |(off, t)| (base + off, t)),
                ),
                Store::Direct(v) => Either::Direct(
                    v.iter_mut()
                        .enumerate()
                        .filter_map(move |(off, o)| o.as_mut().map(|t| (base + off, t))),
                ),
            }
        })
    }

    /// Drops every entry and releases all block storage, including the
    /// block directory itself; capacity is unchanged.
    pub fn clear(&mut self) {
        self.blocks = Vec::new();
        self.occupied = 0;
    }

    /// Resident heap bytes of the slab itself plus `per_item` bytes for
    /// each live entry (for entries that own further heap state).
    pub fn heap_bytes_with(&self, per_item: impl Fn(&T) -> usize) -> usize {
        let mut bytes = self.blocks.capacity() * std::mem::size_of::<Block<T>>();
        for block in &self.blocks {
            bytes += match &block.store {
                Store::Packed(v) => v.capacity() * std::mem::size_of::<T>(),
                Store::Direct(v) => v.capacity() * std::mem::size_of::<Option<T>>(),
            };
        }
        bytes + self.iter().map(|(_, t)| per_item(t)).sum::<usize>()
    }

    /// Resident heap bytes of the slab's own block storage.
    pub fn heap_bytes(&self) -> usize {
        self.heap_bytes_with(|_| 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn is_direct<T>(slab: &SparseSlab<T>, idx: usize) -> bool {
        matches!(
            slab.blocks.get(idx >> 6).map(|b| &b.store),
            Some(Store::Direct(_))
        )
    }

    #[test]
    fn empty_slab_allocates_nothing() {
        let slab: SparseSlab<u64> = SparseSlab::new(1 << 30);
        assert_eq!(slab.capacity(), 1 << 30);
        assert_eq!(slab.occupied(), 0);
        assert!(slab.is_empty());
        assert_eq!(slab.heap_bytes(), 0);
        assert_eq!(slab.get(12345), None);
    }

    #[test]
    fn insert_get_remove_round_trip() {
        let mut slab = SparseSlab::new(200);
        assert_eq!(slab.insert(7, "seven"), None);
        assert_eq!(slab.insert(130, "one-thirty"), None);
        assert_eq!(slab.get(7), Some(&"seven"));
        assert_eq!(slab.get(130), Some(&"one-thirty"));
        assert_eq!(slab.get(8), None);
        assert_eq!(slab.insert(7, "SEVEN"), Some("seven"));
        assert_eq!(slab.occupied(), 2);
        assert_eq!(slab.remove(7), Some("SEVEN"));
        assert_eq!(slab.remove(7), None);
        assert_eq!(slab.occupied(), 1);
        *slab.get_mut(130).unwrap() = "x";
        assert_eq!(slab.get(130), Some(&"x"));
    }

    #[test]
    #[should_panic(expected = "out of slab capacity")]
    fn insert_beyond_capacity_panics() {
        let mut slab = SparseSlab::new(10);
        slab.insert(10, 0u8);
    }

    #[test]
    fn rank_select_survives_out_of_order_inserts() {
        let mut slab = SparseSlab::new(64);
        for idx in [40usize, 3, 17, 62, 0, 41] {
            slab.insert(idx, idx * 10);
        }
        for idx in [0usize, 3, 17, 40, 41, 62] {
            assert_eq!(slab.get(idx), Some(&(idx * 10)), "idx {idx}");
        }
        let order: Vec<usize> = slab.iter().map(|(i, _)| i).collect();
        assert_eq!(order, vec![0, 3, 17, 40, 41, 62]);
    }

    #[test]
    fn promotion_at_three_quarters_density() {
        let mut slab = SparseSlab::new(128);
        for idx in 0..47 {
            slab.insert(idx, idx);
            assert!(!is_direct(&slab, 0), "packed through {idx}");
        }
        slab.insert(47, 47); // 48/64 = 3/4: promote
        assert!(is_direct(&slab, 0));
        // Contents and order survive the layout switch.
        let got: Vec<usize> = slab.iter().map(|(i, _)| i).collect();
        assert_eq!(got, (0..48).collect::<Vec<_>>());
        assert_eq!(slab.get(33), Some(&33));
    }

    #[test]
    fn demotion_below_one_quarter_with_hysteresis() {
        let mut slab = SparseSlab::new(64);
        for idx in 0..48 {
            slab.insert(idx, idx);
        }
        assert!(is_direct(&slab, 0));
        // Dropping to 16 (= 1/4) keeps the direct layout (hysteresis)…
        for idx in 16..48 {
            slab.remove(idx);
        }
        assert!(is_direct(&slab, 0));
        // …one below demotes.
        slab.remove(0);
        assert!(!is_direct(&slab, 0));
        let got: Vec<usize> = slab.iter().map(|(i, _)| i).collect();
        assert_eq!(got, (1..16).collect::<Vec<_>>());
    }

    #[test]
    fn tail_block_promotes_relative_to_its_span() {
        // Capacity 70: tail block spans 6 local bits; 5/6 ≥ 3/4 promotes.
        let mut slab = SparseSlab::new(70);
        for idx in 64..68 {
            slab.insert(idx, idx);
        }
        assert!(!is_direct(&slab, 64));
        slab.insert(68, 68);
        assert!(is_direct(&slab, 64));
        assert_eq!(slab.get(68), Some(&68));
        // A fully-hot tiny slab goes direct immediately.
        let mut tiny = SparseSlab::new(4);
        tiny.insert(0, 0);
        tiny.insert(1, 1);
        tiny.insert(2, 2);
        assert!(is_direct(&tiny, 0));
    }

    #[test]
    fn emptied_block_releases_storage() {
        let mut slab = SparseSlab::new(1 << 20);
        slab.insert(999_999, 1u64);
        let with_entry = slab.heap_bytes();
        slab.remove(999_999);
        let residual = slab.heap_bytes();
        assert!(slab.is_empty());
        // The payload is gone; only the block directory (one empty Block
        // per 64-index span up to the highest touched block) remains —
        // well under the 8 MiB a dense u64-per-index layout would hold.
        assert!(residual < with_entry);
        assert!(residual < (1 << 20) * std::mem::size_of::<u64>() / 10);
        assert_eq!(
            residual,
            slab.blocks.capacity() * std::mem::size_of::<Block<u64>>()
        );
    }

    #[test]
    fn clear_resets_and_releases() {
        let mut slab = SparseSlab::new(1000);
        for idx in 0..1000 {
            slab.insert(idx, idx);
        }
        slab.clear();
        assert!(slab.is_empty());
        assert_eq!(slab.heap_bytes(), 0);
        assert_eq!(slab.get(500), None);
        assert_eq!(slab.capacity(), 1000);
        slab.insert(500, 5);
        assert_eq!(slab.get(500), Some(&5));
    }

    #[test]
    fn iter_mut_visits_every_entry_once() {
        let mut slab = SparseSlab::new(256);
        for idx in (0..256).step_by(3) {
            slab.insert(idx, 0u32);
        }
        for (_, v) in slab.iter_mut() {
            *v += 1;
        }
        assert!(slab.iter().all(|(_, v)| *v == 1));
        assert_eq!(slab.iter().count(), slab.occupied());
    }

    #[test]
    fn heap_accounting_tracks_payload_and_per_item_bytes() {
        let mut slab: SparseSlab<Vec<u8>> = SparseSlab::new(64);
        slab.insert(5, vec![0u8; 1024]);
        let shallow = slab.heap_bytes();
        let deep = slab.heap_bytes_with(|v| v.capacity());
        assert_eq!(deep, shallow + 1024);
    }

    #[test]
    fn packed_payloads_grow_exactly() {
        // A lone entry in its block reserves one payload slot, not four;
        // every later insert grows the block by exactly one.
        let mut slab: SparseSlab<[u64; 40]> = SparseSlab::new(1 << 20);
        slab.insert(97 * 64, [0; 40]);
        let payload = |slab: &SparseSlab<[u64; 40]>, b: usize| match &slab.blocks[b].store {
            Store::Packed(v) => v.capacity(),
            Store::Direct(_) => panic!("block {b} promoted"),
        };
        assert_eq!(payload(&slab, 97), 1);
        for (n, idx) in [97 * 64 + 5, 97 * 64 + 1, 97 * 64 + 60]
            .into_iter()
            .enumerate()
        {
            slab.insert(idx, [0; 40]);
            assert_eq!(payload(&slab, 97), n + 2);
        }
    }

    #[test]
    fn block_capacity_round_trips_heap_bytes() {
        // Grow a slab with an out-of-order touch pattern (high block first,
        // then low), which leaves directory capacity above its length needs.
        let mut slab = SparseSlab::new(4096);
        slab.insert(4000, 1u64);
        slab.insert(3, 2);
        for idx in (0..2048).step_by(5) {
            slab.insert(idx, idx as u64);
        }
        // Rebuild by ascending reinsertion with the capacity pre-reserved,
        // the way checkpoint restore does.
        let mut rebuilt = SparseSlab::new(4096);
        rebuilt.reserve_block_capacity(slab.block_capacity());
        for (idx, v) in slab.iter() {
            rebuilt.insert(idx, *v);
        }
        assert_eq!(rebuilt.block_capacity(), slab.block_capacity());
        assert_eq!(rebuilt.heap_bytes(), slab.heap_bytes());
        assert_eq!(rebuilt.occupied(), slab.occupied());
    }
}
