//! The software form of a CAT's shape: a leaf table.
//!
//! A leaf at depth `d` covers an aligned block of `2^(L−1−d)` of the
//! `2^(L−1)` finest cells (cell = the top `L−1` row-address bits), so the
//! whole partition is the set of cells where a leaf starts. The table keeps
//! that set as a bitmap, the number of set bits below each bitmap word, and
//! the counter ids in leaf (ascending row) order. The leaf covering a cell
//! is then the rank of the cell in the bitmap: one word, one prefix count
//! and one popcount, every load addressed by the row alone.
//!
//! This is only the software representation. The modelled hardware keeps
//! the §IV-C intermediate-node array `I` and counter array `C`
//! ([`crate::HardwareProfile`]); the table holds the same shape.

/// The leaf-start bitmap, its per-word prefix counts and the leaf-order id
/// table, all sized from the configuration when the tree is built.
#[derive(Clone, Debug)]
pub(crate) struct LeafTable {
    /// Bit `c` is set iff a leaf starts at finest cell `c`.
    starts: Box<[u64]>,
    /// `below[w]`: the set bits of `starts[..w]`.
    below: Box<[u16]>,
    /// Counter ids in leaf order; the first `len` entries are live.
    ids: Box<[u16]>,
    len: usize,
}

impl LeafTable {
    /// An empty table over `2^cell_bits` cells for up to `capacity` leaves.
    pub(crate) fn new(cell_bits: u32, capacity: usize) -> Self {
        let words = (1usize << cell_bits).div_ceil(64);
        LeafTable {
            starts: vec![0; words].into_boxed_slice(),
            below: vec![0; words].into_boxed_slice(),
            ids: vec![0; capacity].into_boxed_slice(),
            len: 0,
        }
    }

    /// Heap bytes of the three arrays.
    pub(crate) fn heap_bytes(&self) -> usize {
        std::mem::size_of_val(&*self.starts)
            + std::mem::size_of_val(&*self.below)
            + std::mem::size_of_val(&*self.ids)
    }

    /// The live counter ids in leaf order.
    pub(crate) fn ids(&self) -> &[u16] {
        &self.ids[..self.len]
    }

    /// Replaces every leaf with `leaves`: (start cell, id) pairs in
    /// ascending cell order. One pass over the leaves and one over the
    /// bitmap words.
    pub(crate) fn fill(&mut self, leaves: impl IntoIterator<Item = (u32, u16)>) {
        self.starts.fill(0);
        self.len = 0;
        for (cell, id) in leaves {
            self.ids[self.len] = id;
            self.len += 1;
            self.starts[(cell >> 6) as usize] |= 1 << (cell & 63);
        }
        let mut below = 0;
        for (b, word) in self.below.iter_mut().zip(&self.starts) {
            *b = below;
            below += word.count_ones() as u16;
        }
    }

    /// Position in [`ids`](Self::ids) of the leaf covering `cell`: the
    /// number of leaf starts at or below `cell`, less one. Cell 0 always
    /// starts a leaf, so the rank is at least one.
    #[inline(always)]
    pub(crate) fn slot(&self, cell: u32) -> usize {
        let w = (cell >> 6) as usize;
        let at_or_below = self.starts[w] << (63 - (cell & 63));
        usize::from(self.below[w]) + at_or_below.count_ones() as usize - 1
    }

    /// The leaf at position `at` splits: `id` becomes the leaf after it,
    /// starting at `cell`.
    pub(crate) fn split(&mut self, at: usize, cell: u32, id: u16) {
        self.ids.copy_within(at + 1..self.len, at + 2);
        self.ids[at + 1] = id;
        self.len += 1;
        self.mark(cell, true);
    }

    /// The leaves at positions `at` and `at + 1` (the second starting at
    /// `cell`) become one, held by the second id; the first is dropped.
    pub(crate) fn merge(&mut self, at: usize, cell: u32) {
        self.ids.copy_within(at + 1..self.len, at);
        self.len -= 1;
        self.mark(cell, false);
    }

    /// Sets or clears the start bit of `cell` and moves the prefix counts
    /// of every later word by one.
    fn mark(&mut self, cell: u32, set: bool) {
        let w = (cell >> 6) as usize;
        let bit = 1u64 << (cell & 63);
        if set {
            self.starts[w] |= bit;
            self.below[w + 1..].iter_mut().for_each(|b| *b += 1);
        } else {
            self.starts[w] &= !bit;
            self.below[w + 1..].iter_mut().for_each(|b| *b -= 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_finds_the_covering_leaf_across_words() {
        // 256 cells: leaves start at 0, 64, 65 and 200.
        let mut t = LeafTable::new(8, 8);
        t.fill([(0, 7), (64, 3), (65, 5), (200, 1)]);
        let id_of = |t: &LeafTable, cell| t.ids()[t.slot(cell)];
        assert_eq!(
            [0, 63, 64, 65, 199, 200, 255].map(|c| id_of(&t, c)),
            [7, 7, 3, 5, 5, 1, 1]
        );
        t.split(2, 128, 6);
        assert_eq!(t.ids(), &[7, 3, 5, 6, 1]);
        assert_eq!([127, 128, 200].map(|c| id_of(&t, c)), [5, 6, 1]);
        t.merge(1, 65);
        assert_eq!(t.ids(), &[7, 5, 6, 1]);
        assert_eq!([64, 65, 128, 255].map(|c| id_of(&t, c)), [5, 5, 6, 1]);
        assert_eq!(t.heap_bytes(), 4 * 8 + 4 * 2 + 8 * 2);
    }

    #[test]
    fn tables_narrower_than_a_word_rank_within_it() {
        let mut t = LeafTable::new(2, 4);
        t.fill([(0, 0), (2, 1)]);
        assert_eq!([0, 1, 2, 3].map(|c| t.slot(c)), [0, 0, 1, 1]);
        t.fill([(0, 3)]);
        assert_eq!(t.ids(), &[3]);
        assert_eq!(t.slot(3), 0);
    }
}
