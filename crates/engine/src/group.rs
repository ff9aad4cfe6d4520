//! The flush grouping (`DESIGN.md §7`): every batch is grouped by bank
//! exactly once, per epoch segment, before any engine replays it.
//! Batches longer than [`CHUNK`] records are grouped and replayed a chunk
//! at a time, so the scratch is bounded whatever a caller passes.
//!
//! Each segment is sorted by its records' bank relative to a base (the
//! owned slice's first bank, or `0` for a flat engine) with a stable LSD
//! radix sort of at most [`MAX_DIGIT_BITS`]-bit digits: one pass for a
//! 16-bank system, two 10-bit passes for 1 Mi banks. The result is one
//! rows buffer in (segment, bank) order plus a table of *runs* — one per
//! touched bank per segment, in ascending bank order. Stability keeps
//! each bank's rows in stream order, so replaying a run is replaying that
//! bank's subsequence of the segment.
//!
//! Engine slices are contiguous, aligned bank ranges, so an engine's (or
//! a shard group's) runs in a segment are one contiguous sub-slice of the
//! table, found by binary search: routing costs one search per engine per
//! segment, not one per record. Every buffer is sized by the chunk (the
//! rows) or the segment (the sort scratch) — nothing is sized by the bank
//! count, so an engine over a million mostly cold banks pays nothing for
//! the cold ones.

use std::ops::Range;

/// Most records grouped at once: a catd flush is one chunk, and a longer
/// batch is replayed chunk by chunk, which the determinism contract makes
/// unobservable (it is a flush boundary, `DESIGN.md §7`).
pub(crate) const CHUNK: usize = 1 << 16;

/// Widest radix digit, in bits: a pass has at most 2048 buckets.
const MAX_DIGIT_BITS: u32 = 11;
/// Buckets per pass at the widest digit.
const RADIX: usize = 1 << MAX_DIGIT_BITS;

/// Walks a `len`-record batch in chunks of at most [`CHUNK`] records,
/// calling `f` with each chunk's record range and the cuts of `cuts`
/// (positions as in [`crate::epoch_cuts`], but duplicates and `0` are
/// allowed) that fall at or before its end and after the previous
/// chunk's. `f` runs at least once, so the cuts of an empty batch still
/// fire.
pub(crate) fn for_each_chunk(
    len: usize,
    cuts: &[usize],
    mut f: impl FnMut(Range<usize>, &[usize]),
) {
    let (mut start, mut taken) = (0, 0);
    loop {
        let end = len.min(start + CHUNK);
        let upto = taken + cuts[taken..].partition_point(|&cut| cut <= end);
        f(start..end, &cuts[taken..upto]);
        (start, taken) = (end, upto);
        if start >= len {
            break;
        }
    }
}

/// One bank's records within one segment: the rows from the previous
/// run's `end` (or `0`) up to this run's `end`.
#[derive(Copy, Clone, Debug)]
struct Run {
    /// Bank, relative to the grouping base.
    bank: u32,
    /// One past the run's last row in the rows buffer.
    end: u32,
}

/// One epoch segment of the grouped batch.
#[derive(Copy, Clone, Debug)]
struct Segment {
    /// One past the segment's last run in the run table.
    runs_end: usize,
    /// Whether an epoch boundary fires after the segment.
    boundary: bool,
}

/// A batch grouped by bank per epoch segment, plus the scratch that
/// groups it (see the module docs). Buffers keep their length at their
/// high-water mark between batches, so a flush zero-fills only genuine
/// growth, and their capacities are recorded in checkpoint images
/// (`DESIGN.md §11`).
#[derive(Clone, Debug, Default)]
pub(crate) struct Grouping {
    /// The chunk's rows in (segment, bank) order.
    rows: Vec<u32>,
    /// The runs, segment by segment, ascending bank within a segment.
    runs: Vec<Run>,
    /// The segments of the last grouped chunk, in stream order.
    segments: Vec<Segment>,
    /// Sort scratch: the relative bank of each row of the segment being
    /// sorted (multi-pass sorts only).
    keys: Vec<u32>,
    /// Sort scratch: `(relative bank, row)` pairs between passes
    /// (multi-pass sorts only).
    pairs: Vec<(u32, u32)>,
}

impl Grouping {
    /// Groups the records `chunk` of `batch` (at most [`CHUNK`] of them,
    /// as [`for_each_chunk`] hands them out) by bank within each segment
    /// delimited by the chunk's `cuts`. Banks must lie in
    /// `base..base + banks`.
    ///
    /// # Panics
    ///
    /// Panics if a record's bank is out of that range.
    pub(crate) fn group(
        &mut self,
        batch: &[(u32, u32)],
        chunk: Range<usize>,
        cuts: &[usize],
        base: u32,
        banks: u32,
    ) {
        self.runs.clear();
        self.segments.clear();
        if self.rows.len() < chunk.len() {
            self.rows.resize(chunk.len(), 0);
        }
        let bits = u32::BITS - banks.saturating_sub(1).leading_zeros();
        let passes = bits.div_ceil(MAX_DIGIT_BITS).max(1);
        let width = bits.div_ceil(passes);
        let mut segment = |range: Range<usize>, boundary: bool| {
            let (start, seg) = (range.start - chunk.start, &batch[range]);
            match passes {
                1 => self.sort::<1>(seg, start, base, banks, width),
                2 => self.sort::<2>(seg, start, base, banks, width),
                _ => self.sort::<3>(seg, start, base, banks, width),
            }
            self.segments.push(Segment {
                runs_end: self.runs.len(),
                boundary,
            });
        };
        let mut prev = chunk.start;
        for &cut in cuts {
            segment(prev..cut, true);
            prev = cut;
        }
        if prev < chunk.end {
            segment(prev..chunk.end, false);
        }
    }

    /// Sorts one segment (rows `start..start + seg.len()` of the chunk)
    /// in `P` stable passes of `width`-bit digits and appends its runs.
    fn sort<const P: usize>(
        &mut self,
        seg: &[(u32, u32)],
        start: usize,
        base: u32,
        banks: u32,
        width: u32,
    ) {
        let n = seg.len();
        if n == 0 {
            return;
        }
        let mask = (1u32 << width) - 1;
        // One read for every pass's histogram, plus the range check.
        let mut offsets = [[0u32; RADIX]; P];
        let mut max = 0u32;
        for &(bank, _) in seg {
            let key = bank.wrapping_sub(base);
            max = max.max(key);
            for (p, hist) in offsets.iter_mut().enumerate() {
                hist[((key >> (p as u32 * width)) & mask) as usize] += 1;
            }
        }
        assert!(
            max < banks,
            "bank {} out of range for {banks} banks from bank {base}",
            base.wrapping_add(max)
        );
        for hist in &mut offsets {
            let mut acc = 0u32;
            for slot in &mut hist[..=mask as usize] {
                let count = *slot;
                *slot = acc;
                acc += count;
            }
        }
        let rows = &mut self.rows[start..start + n];
        if P == 1 {
            // The digit is the whole key: the final bucket offsets are
            // the run ends, and no key needs storing.
            let ends = &mut offsets[0];
            for &(bank, row) in seg {
                let slot = &mut ends[bank.wrapping_sub(base) as usize];
                rows[*slot as usize] = row;
                *slot += 1;
            }
            let mut prev = 0u32;
            for (bank, &end) in ends[..=mask as usize].iter().enumerate() {
                if end > prev {
                    self.runs.push(Run {
                        bank: bank as u32,
                        end: (start + end as usize) as u32,
                    });
                    prev = end;
                }
            }
            return;
        }
        if self.keys.len() < n {
            self.keys.resize(n, 0);
            self.pairs.resize(n, (0, 0));
        }
        let keys = &mut self.keys[..n];
        let pairs = &mut self.pairs[..n];
        // Passes alternate between the pairs and the (keys, rows) form so
        // that the last one lands in the latter: with 3 passes the first
        // also writes (keys, rows), with 2 it writes pairs.
        for (p, next) in offsets.iter_mut().enumerate() {
            let shift = p as u32 * width;
            let digit = |key: u32| ((key >> shift) & mask) as usize;
            let to_rows = (P - 1 - p).is_multiple_of(2);
            if p == 0 {
                let src = seg
                    .iter()
                    .map(|&(bank, row)| (bank.wrapping_sub(base), row));
                if to_rows {
                    for (key, row) in src {
                        let at = take_slot(next, digit(key));
                        keys[at] = key;
                        rows[at] = row;
                    }
                } else {
                    for (key, row) in src {
                        pairs[take_slot(next, digit(key))] = (key, row);
                    }
                }
            } else if to_rows {
                for &(key, row) in pairs.iter() {
                    let at = take_slot(next, digit(key));
                    keys[at] = key;
                    rows[at] = row;
                }
            } else {
                for (&key, &row) in keys.iter().zip(rows.iter()) {
                    pairs[take_slot(next, digit(key))] = (key, row);
                }
            }
        }
        let mut i = 0;
        while i < n {
            let bank = keys[i];
            let mut j = i + 1;
            while j < n && keys[j] == bank {
                j += 1;
            }
            self.runs.push(Run {
                bank,
                end: (start + j) as u32,
            });
            i = j;
        }
    }

    /// Per segment of the last grouped chunk, in stream order: the run
    /// indices of the banks in `banks` (a contiguous sub-slice of the
    /// segment's runs) and whether an epoch boundary follows.
    pub(crate) fn segments(
        &self,
        banks: Range<u32>,
    ) -> impl Iterator<Item = (Range<usize>, bool)> + '_ {
        let mut first = 0;
        self.segments.iter().map(move |seg| {
            let runs = &self.runs[first..seg.runs_end];
            let lo = first + runs.partition_point(|r| r.bank < banks.start);
            let hi = first + runs.partition_point(|r| r.bank < banks.end);
            first = seg.runs_end;
            (lo..hi, seg.boundary)
        })
    }

    /// Whether replaying `banks` has anything to do: a run of theirs, or
    /// an epoch boundary (which every bank observes).
    pub(crate) fn touches(&self, banks: Range<u32>) -> bool {
        self.segments(banks)
            .any(|(runs, boundary)| boundary || !runs.is_empty())
    }

    /// Run `i`: its bank (relative to the grouping base) and its rows in
    /// stream order.
    pub(crate) fn run(&self, i: usize) -> (u32, &[u32]) {
        let start = match i {
            0 => 0,
            _ => self.runs[i - 1].end as usize,
        };
        let run = self.runs[i];
        (run.bank, &self.rows[start..run.end as usize])
    }

    /// Allocated capacities of the buffers, in elements: the high-water
    /// marks a checkpoint image records.
    pub(crate) fn capacities(&self) -> [usize; 5] {
        [
            self.rows.capacity(),
            self.runs.capacity(),
            self.segments.capacity(),
            self.keys.capacity(),
            self.pairs.capacity(),
        ]
    }

    /// Grows empty buffers to exactly `caps` (the order of
    /// [`capacities`](Self::capacities)), reproducing a saved footprint.
    pub(crate) fn reserve_exact(&mut self, caps: [usize; 5]) {
        let [rows, runs, segments, keys, pairs] = caps;
        self.rows
            .reserve_exact(rows.saturating_sub(self.rows.len()));
        self.runs
            .reserve_exact(runs.saturating_sub(self.runs.len()));
        self.segments
            .reserve_exact(segments.saturating_sub(self.segments.len()));
        self.keys
            .reserve_exact(keys.saturating_sub(self.keys.len()));
        self.pairs
            .reserve_exact(pairs.saturating_sub(self.pairs.len()));
    }

    /// Resident heap bytes of the buffers.
    pub(crate) fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.rows.capacity() * size_of::<u32>()
            + self.runs.capacity() * size_of::<Run>()
            + self.segments.capacity() * size_of::<Segment>()
            + self.keys.capacity() * size_of::<u32>()
            + self.pairs.capacity() * size_of::<(u32, u32)>()
    }
}

/// Returns bucket `digit`'s next slot and advances it.
#[inline(always)]
fn take_slot(offsets: &mut [u32; RADIX], digit: usize) -> usize {
    let at = offsets[digit];
    offsets[digit] = at + 1;
    at as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_take_the_cuts_at_or_before_their_end() {
        let len = 2 * CHUNK + 5;
        let cuts = [0, CHUNK, CHUNK, CHUNK + 1, len];
        let mut seen = Vec::new();
        for_each_chunk(len, &cuts, |chunk, cuts| seen.push((chunk, cuts.to_vec())));
        assert_eq!(
            seen,
            vec![
                (0..CHUNK, vec![0, CHUNK, CHUNK]),
                (CHUNK..2 * CHUNK, vec![CHUNK + 1]),
                (2 * CHUNK..len, vec![len]),
            ]
        );
        // An empty batch is still one chunk, so its cuts fire.
        let mut seen = Vec::new();
        for_each_chunk(0, &[0, 0], |chunk, cuts| seen.push((chunk, cuts.to_vec())));
        assert_eq!(seen, vec![(0..0, vec![0, 0])]);
    }

    /// `(bank, rows)` of every run of a segment.
    type Runs = Vec<(u32, Vec<u32>)>;

    /// The runs of `banks` per segment, with the segment's boundary flag.
    fn table(g: &Grouping, banks: Range<u32>) -> Vec<(Runs, bool)> {
        g.segments(banks)
            .map(|(runs, boundary)| {
                let runs = runs.map(|i| (g.run(i).0, g.run(i).1.to_vec())).collect();
                (runs, boundary)
            })
            .collect()
    }

    #[test]
    fn runs_ascend_by_bank_and_keep_stream_order() {
        // Banks 100..100 + 4096 (two radix passes), rows numbered in
        // stream order, two segments.
        let batch: Vec<(u32, u32)> = [4_195, 100, 3_000, 100, 4_195, 3_000, 101]
            .into_iter()
            .zip(0..)
            .collect();
        let mut g = Grouping::default();
        g.group(&batch, 0..batch.len(), &[5], 100, 4_096);
        let first = vec![(0, vec![1, 3]), (2_900, vec![2]), (4_095, vec![0, 4])];
        let second = vec![(1, vec![6]), (2_900, vec![5])];
        assert_eq!(
            table(&g, 0..4_096),
            vec![(first, true), (second.clone(), false)]
        );
        // A bank range selects its contiguous sub-slice of each segment.
        assert_eq!(
            table(&g, 1..2_901),
            vec![(vec![(2_900, vec![2])], true), (second, false)]
        );
        // Without a boundary, only banks with runs have work.
        g.group(&batch, 0..batch.len(), &[], 100, 4_096);
        assert!(!g.touches(3_000..4_000));
        assert!(g.touches(4_000..4_096));
    }

    #[test]
    #[should_panic(expected = "bank 4196 out of range for 4096 banks from bank 100")]
    fn out_of_range_banks_are_refused() {
        Grouping::default().group(&[(4_196, 0)], 0..1, &[], 100, 4_096);
    }
}
