//! The [`MitigationScheme`] trait and its small supporting types.

use crate::{RowRange, SchemeStats};

/// Which mitigation scheme a [`HardwareProfile`] describes.
///
/// The energy model (`cat-energy`) keys its Table-II constants on this.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum SchemeKind {
    /// Static counter assignment (uniform groups).
    Sca,
    /// Periodically reset CAT.
    Prcat,
    /// Dynamically reconfigured CAT.
    Drcat,
    /// Probabilistic row activation.
    Pra,
    /// Per-row counters in DRAM with an on-chip counter cache.
    CounterCache,
}

impl std::fmt::Display for SchemeKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            SchemeKind::Sca => "SCA",
            SchemeKind::Prcat => "PRCAT",
            SchemeKind::Drcat => "DRCAT",
            SchemeKind::Pra => "PRA",
            SchemeKind::CounterCache => "CounterCache",
        };
        f.write_str(s)
    }
}

/// Static description of the hardware a scheme would occupy, consumed by the
/// energy/area model.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct HardwareProfile {
    /// Scheme family.
    pub kind: SchemeKind,
    /// Number of on-chip counters per bank (0 for PRA).
    pub counters: usize,
    /// Width of each counter in bits (⌈log2 T⌉).
    pub counter_bits: u32,
    /// Maximum tree depth `L` (CAT family; 1 otherwise).
    pub max_levels: u32,
    /// PRNG bits drawn per activation (PRA only).
    pub prng_bits_per_activation: u32,
    /// Refresh threshold `T`.
    pub refresh_threshold: u32,
}

/// The (at most two) row ranges a scheme asks the controller to refresh in
/// response to one activation.
///
/// Returned by value to avoid per-activation heap allocation; iterate it to
/// drain the ranges.
///
/// ```
/// use cat_core::{Refreshes, RowRange};
/// let r = Refreshes::pair(RowRange::new(1, 1), RowRange::new(3, 3));
/// let v: Vec<RowRange> = r.into_iter().collect();
/// assert_eq!(v.len(), 2);
/// assert_eq!(Refreshes::none().into_iter().count(), 0);
/// ```
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct Refreshes {
    slots: [Option<RowRange>; 2],
}

impl Refreshes {
    /// No refresh required.
    pub fn none() -> Self {
        Refreshes {
            slots: [None, None],
        }
    }

    /// Refresh a single range.
    pub fn one(range: RowRange) -> Self {
        Refreshes {
            slots: [Some(range), None],
        }
    }

    /// Refresh two disjoint ranges (e.g. PRA's two victim rows).
    pub fn pair(a: RowRange, b: RowRange) -> Self {
        Refreshes {
            slots: [Some(a), Some(b)],
        }
    }

    /// `true` when no refresh was requested.
    pub fn is_empty(&self) -> bool {
        self.slots[0].is_none() && self.slots[1].is_none()
    }

    /// Total number of rows across the requested ranges.
    pub fn total_rows(&self) -> u64 {
        self.slots.iter().flatten().map(|range| range.len()).sum()
    }

    /// Number of requested ranges (0, 1 or 2).
    pub fn len(&self) -> usize {
        self.slots.iter().flatten().count()
    }
}

/// Iterator over the ranges of a [`Refreshes`].
#[derive(Debug)]
pub struct IntoIter {
    slots: [Option<RowRange>; 2],
    idx: usize,
}

impl Iterator for IntoIter {
    type Item = RowRange;

    fn next(&mut self) -> Option<RowRange> {
        while self.idx < 2 {
            let slot = self.slots[self.idx].take();
            self.idx += 1;
            if slot.is_some() {
                return slot;
            }
        }
        None
    }
}

impl IntoIterator for Refreshes {
    type Item = RowRange;
    type IntoIter = IntoIter;

    fn into_iter(self) -> IntoIter {
        IntoIter {
            slots: self.slots,
            idx: 0,
        }
    }
}

/// A wordline-crosstalk mitigation scheme attached to one DRAM bank.
///
/// The memory controller (or the simulator standing in for it) calls
/// [`on_activation`](MitigationScheme::on_activation) for every `ACT` to the
/// bank and issues refreshes for every returned range. At each auto-refresh
/// epoch boundary (64 ms, when the whole bank has been refreshed) it calls
/// [`on_epoch_end`](MitigationScheme::on_epoch_end).
pub trait MitigationScheme {
    /// Records the activation of `row` and returns the row ranges that must
    /// be refreshed *now* to protect potential victims.
    fn on_activation(&mut self, row: crate::RowId) -> Refreshes;

    /// Records a run of activations of the bank, in order, exactly as one
    /// [`on_activation`](MitigationScheme::on_activation) per row would.
    /// The refresh ranges are not returned; their counts land in
    /// [`stats`](MitigationScheme::stats). Batch callers that only need
    /// the counts use this; the CAT family overrides it with its run
    /// kernel ([`crate::CatTree::record_run`]).
    fn on_run(&mut self, rows: &[u32]) {
        for &row in rows {
            self.on_activation(crate::RowId(row));
        }
    }

    /// Signals that a full auto-refresh epoch elapsed (every row of the bank
    /// was refreshed by the regular refresh mechanism).
    fn on_epoch_end(&mut self);

    /// Event counts accumulated so far.
    fn stats(&self) -> &SchemeStats;

    /// Hardware footprint description for the energy/area model.
    fn hardware(&self) -> HardwareProfile;

    /// Number of rows in the protected bank.
    fn rows(&self) -> u32;

    /// Human-readable name, e.g. `"DRCAT_64"`.
    fn name(&self) -> String;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refreshes_iteration_orders_and_counts() {
        let a = RowRange::new(0, 1);
        let b = RowRange::new(5, 9);
        let r = Refreshes::pair(a, b);
        assert_eq!(r.len(), 2);
        assert_eq!(r.total_rows(), 2 + 5);
        let got: Vec<_> = r.into_iter().collect();
        assert_eq!(got, vec![a, b]);
    }

    #[test]
    fn none_is_empty() {
        assert!(Refreshes::none().is_empty());
        assert_eq!(Refreshes::none().total_rows(), 0);
        assert!(!Refreshes::one(RowRange::new(0, 0)).is_empty());
    }

    #[test]
    fn scheme_kind_display() {
        assert_eq!(SchemeKind::Drcat.to_string(), "DRCAT");
        assert_eq!(SchemeKind::Pra.to_string(), "PRA");
    }
}
