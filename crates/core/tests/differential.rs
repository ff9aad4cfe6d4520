//! Differential and property-style tests: the CAT, which holds §IV-C's
//! tree as a leaf table, must be observationally identical to the naive
//! Algorithm-1 implementation with explicit range registers, on many
//! access sequences and configurations; and core invariants must hold
//! throughout.
//!
//! Formerly `proptest`-based; the workspace builds offline with no external
//! crates, so the random exploration is now a *deterministic* sweep: a
//! fixed grid of configurations (every combination the old strategy could
//! emit) subsampled to the same case counts, with every access-pattern seed
//! derived from the documented [`BASE_SEED`] by case index. A failure
//! therefore always reproduces bit-for-bit — the panic message names the
//! config and seed of the failing case.

use cat_core::tree::reference::ReferenceCat;
use cat_core::tree::{LeafInfo, TreeShape};
use cat_core::{
    CatConfig, CatTree, Drcat, MitigationScheme, Prcat, RowId, StateError, StateReader,
    ThresholdPolicy,
};
use cat_prng::rngs::StdRng;
use cat_prng::{splitmix64, Rng, SeedableRng};

/// All randomized cases derive their seed as `splitmix64(BASE_SEED ^ index)`
/// — change nothing here without updating the docs above.
const BASE_SEED: u64 = 0xCA7_B1FF_D1FF_5EED;

/// Small configurations that exercise every interesting corner: different
/// λ, policies, thresholds, tree heights. This is the exact grid the old
/// `arb_config` proptest strategy drew from.
fn config_grid() -> Vec<CatConfig> {
    let policies = [
        ThresholdPolicy::PaperCurve,
        ThresholdPolicy::Doubling,
        ThresholdPolicy::Uniform,
    ];
    let mut out = Vec::new();
    for rows in [256u32, 512, 1024] {
        for counters in [4usize, 8, 16] {
            for extra_levels in 2u32..=6 {
                for t in [32u32, 64, 100, 256] {
                    for policy in policies {
                        for lambda in 1u32..=3 {
                            let lambda = lambda.min(counters.trailing_zeros());
                            let max_levels = lambda + extra_levels;
                            let cfg = CatConfig::new(rows, counters, max_levels, t)
                                .ok()
                                .map(|c| c.with_policy(policy))
                                .and_then(|c| c.with_lambda(lambda).ok());
                            if let Some(cfg) = cfg {
                                out.push(cfg);
                            }
                        }
                    }
                }
            }
        }
    }
    assert!(!out.is_empty(), "the grid must contain valid configs");
    out
}

/// Deterministically subsamples the grid down to ~`n` evenly spread cases.
fn sampled_configs(n: usize) -> Vec<CatConfig> {
    let grid = config_grid();
    let stride = (grid.len() / n).max(1);
    grid.into_iter().step_by(stride).collect()
}

fn case_seed(index: usize) -> u64 {
    splitmix64(BASE_SEED ^ index as u64)
}

fn leaf_tuples(tree: &CatTree) -> Vec<(u32, u32, u32, u8)> {
    tree.shape()
        .leaves()
        .iter()
        .map(|l| (l.range.lo(), l.range.hi(), l.value, l.tli))
        .collect()
}

fn reference_tuples(cat: &ReferenceCat) -> Vec<(u32, u32, u32, u8)> {
    cat.partition()
        .iter()
        .map(|m| (m.lo, m.hi, m.value, m.tli))
        .collect()
}

/// The tree and the reference implementation must agree on every
/// refresh decision and end in identical states.
#[test]
fn pointer_tree_equals_reference() {
    for (case, config) in sampled_configs(64).into_iter().enumerate() {
        let seed = case_seed(case);
        let mut rng = StdRng::seed_from_u64(seed);
        let rows = config.rows();
        let mut fast = CatTree::new(config.clone());
        let mut slow = ReferenceCat::new(config.clone());

        // A mix of hammering and background noise.
        let hot = rng.gen_range(0..rows);
        for i in 0..4000u32 {
            let row = if i % 3 != 0 {
                hot
            } else {
                rng.gen_range(0..rows)
            };
            let a = fast.record(RowId(row));
            let b = slow.record(RowId(row));
            assert_eq!(
                a.refresh, b,
                "diverged at access {i} (row {row}, case {case}, seed {seed:#x}, config {config:?})"
            );
        }
        assert_eq!(
            leaf_tuples(&fast),
            reference_tuples(&slow),
            "final states differ (case {case}, seed {seed:#x}, config {config:?})"
        );
    }
}

/// The leaves always partition the bank, depths never exceed L−1, and
/// counter values stay below their level thresholds.
#[test]
fn structural_invariants_hold() {
    for (case, config) in sampled_configs(64).into_iter().enumerate() {
        let seed = case_seed(0x1000 ^ case);
        let mut rng = StdRng::seed_from_u64(seed);
        let rows = config.rows();
        let max_level = config.max_levels() - 1;
        let t = config.refresh_threshold();
        let mut tree = CatTree::new(config.clone());
        for _ in 0..3000u32 {
            tree.record(RowId(rng.gen_range(0..rows)));
        }
        let shape = tree.shape();
        assert!(
            shape.is_partition(rows),
            "not a partition (case {case}, seed {seed:#x}, config {config:?})"
        );
        for leaf in shape.leaves() {
            assert!(
                u32::from(leaf.depth) <= max_level,
                "case {case}, seed {seed:#x}"
            );
            assert!(
                leaf.value < t,
                "counter must reset at T (case {case}, seed {seed:#x})"
            );
        }
    }
}

/// DRCAT reconfiguration (merges + splits) preserves the partition and the
/// counter budget on arbitrary two-phase workloads.
#[test]
fn drcat_invariants_across_phases() {
    for (case, config) in sampled_configs(64).into_iter().enumerate() {
        let seed = case_seed(0x2000 ^ case);
        let mut rng = StdRng::seed_from_u64(seed);
        let rows = config.rows();
        let m = config.counters();
        let mut d = Drcat::new(config.clone());
        let hot_a = rng.gen_range(0..rows);
        let hot_b = rng.gen_range(0..rows);
        for i in 0..6000u32 {
            let hot = if i < 3000 { hot_a } else { hot_b };
            let row = if i % 4 == 0 {
                rng.gen_range(0..rows)
            } else {
                hot
            };
            d.on_activation(RowId(row));
        }
        let shape = d.tree().shape();
        assert!(
            shape.is_partition(rows),
            "not a partition (case {case}, seed {seed:#x}, config {config:?})"
        );
        assert!(shape.leaves().len() <= m, "case {case}, seed {seed:#x}");
        // Weight registers stay within their 2-bit range.
        for &w in d.weights() {
            assert!(w <= 3, "case {case}, seed {seed:#x}");
        }
    }
}

/// The safety guarantee: per-aggressor exposure never exceeds T for any
/// deterministic scheme, on arbitrary access patterns.
#[test]
fn exposure_never_exceeds_threshold() {
    for (case, config) in sampled_configs(64).into_iter().enumerate() {
        let seed = case_seed(0x3000 ^ case);
        let mut rng = StdRng::seed_from_u64(seed);
        let rows = config.rows();
        let t = config.refresh_threshold();
        let hot = rng.gen_range(0..rows);
        let mut d = Drcat::new(config.clone());
        let mut oracle = cat_core::oracle::SafetyOracle::new(rows, t);
        for i in 0..5000u32 {
            let row = if i % 2 == 0 {
                hot
            } else {
                rng.gen_range(0..rows)
            };
            let refreshes = d.on_activation(RowId(row));
            oracle.on_activation(RowId(row), &refreshes);
        }
        assert_eq!(
            oracle.violations(),
            0,
            "case {case}, seed {seed:#x}, config {config:?}"
        );
        assert!(
            oracle.worst_exposure() <= u64::from(t),
            "case {case}, seed {seed:#x}"
        );
    }
}

/// Degeneracy: a CAT whose maximum height equals its pre-split depth
/// (L = λ) can never split, so it must be observationally identical to SCA
/// with 2^{λ−1} counters — "the CAT approach … mimics SCA".
#[test]
fn cat_with_no_headroom_equals_sca() {
    use cat_core::Sca;
    for case in 0..32usize {
        let seed = case_seed(0x4000 ^ case);
        let mut rng = StdRng::seed_from_u64(seed);
        let rows = 1024u32;
        let t = 128u32;
        // M = 16, λ = 4 → 8 active counters covering 128 rows each.
        let cfg = CatConfig::new(rows, 16, 4, t).unwrap();
        let mut cat = CatTree::new(cfg);
        let mut sca = Sca::new(rows, 8, t).unwrap();
        for _ in 0..5_000u32 {
            let row = rng.gen_range(0..rows);
            let a = cat.record(RowId(row)).refresh;
            let b: Vec<_> = sca.on_activation(RowId(row)).into_iter().collect();
            assert_eq!(
                a.into_iter().collect::<Vec<_>>(),
                b,
                "case {case}, seed {seed:#x}, row {row}"
            );
        }
    }
}

/// The Space-Saving extension honours the same exposure guarantee as the
/// deterministic schemes, on arbitrary hostile mixes.
#[test]
fn space_saving_exposure_never_exceeds_threshold() {
    use cat_core::SpaceSaving;
    for case in 0..32usize {
        let seed = case_seed(0x5000 ^ case);
        let mut rng = StdRng::seed_from_u64(seed);
        let rows = 512u32;
        let t = 64u32;
        let k = rng.gen_range(1usize..32);
        let hot = rng.gen_range(0..rows);
        let mut ss = SpaceSaving::new(rows, k, t).unwrap();
        let mut oracle = cat_core::oracle::SafetyOracle::new(rows, t);
        for i in 0..20_000u32 {
            let row = if i % 2 == 0 {
                hot
            } else {
                rng.gen_range(0..rows)
            };
            let refreshes = ss.on_activation(RowId(row));
            oracle.on_activation(RowId(row), &refreshes);
        }
        assert_eq!(oracle.violations(), 0, "case {case}, seed {seed:#x}, k {k}");
        assert!(
            oracle.worst_exposure() <= u64::from(t),
            "case {case}, seed {seed:#x}, k {k}"
        );
    }
}

/// Epoch behaviour differences: PRCAT forgets, DRCAT remembers.
#[test]
fn prcat_forgets_drcat_remembers() {
    let cfg = CatConfig::new(1024, 16, 8, 128).unwrap();
    let mut prcat = cat_core::Prcat::new(cfg.clone());
    let mut drcat = Drcat::new(cfg);
    for _ in 0..4000 {
        prcat.on_activation(RowId(333));
        drcat.on_activation(RowId(333));
    }
    let deep_before = drcat.tree().shape().max_depth();
    prcat.on_epoch_end();
    drcat.on_epoch_end();
    assert_eq!(
        prcat.tree().shape().max_depth(),
        prcat.tree().config().lambda() as u8 - 1,
        "PRCAT rebuilds the pre-split tree"
    );
    assert_eq!(
        drcat.tree().shape().max_depth(),
        deep_before,
        "DRCAT retains the learned shape"
    );
}

/// A persistent hot spot costs PRCAT re-learning refreshes every epoch,
/// while DRCAT's retained tree keeps refreshes narrow — the qualitative
/// claim behind Fig. 12's DRCAT < PRCAT ordering.
///
/// The scenario where PRCAT genuinely loses: early-epoch background noise
/// claims all spare counters (greedy first-come splitting), leaving the hot
/// row stuck in a coarse group whose every refresh covers ~1K rows — and the
/// periodic reset recreates that situation every single epoch. DRCAT's
/// weights instead migrate counters from the cold noise regions to the hot
/// row, so refreshes shrink to the deepest-level group.
#[test]
fn drcat_refreshes_fewer_rows_than_prcat_on_stable_patterns() {
    let cfg = CatConfig::new(65_536, 64, 11, 1024).unwrap();
    let mut prcat = cat_core::Prcat::new(cfg.clone());
    let mut drcat = Drcat::new(cfg);
    let mut rng = StdRng::seed_from_u64(9);
    for _epoch in 0..10 {
        for i in 0..30_000u32 {
            // Uniform noise first (eats the spare counters), then the
            // persistent hot row.
            let row = if i < 8_000 {
                rng.gen_range(0..65_536)
            } else {
                4_242
            };
            prcat.on_activation(RowId(row));
            drcat.on_activation(RowId(row));
        }
        prcat.on_epoch_end();
        drcat.on_epoch_end();
    }
    let p = prcat.stats().refreshed_rows;
    let d = drcat.stats().refreshed_rows;
    assert!(
        d * 2 < p,
        "DRCAT must refresh far fewer rows than PRCAT on a stable hot spot: {d} vs {p}"
    );
    assert!(drcat.stats().reconfigurations > 0);
}

/// Run lengths the run-kernel differential replays with; `usize::MAX` is
/// a whole epoch segment in one run.
const RUN_LENGTHS: [usize; 5] = [1, 2, 7, 64, usize::MAX];
/// Accesses per epoch in the run-kernel differential (a multiple of 64).
const RUN_EPOCH: usize = 1_536;

/// A seeded two-phase trace: two hot rows in turn (several splits and
/// refreshes deep), one access in four to a uniform row.
fn run_trace(rows: u32, seed: u64) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(seed);
    let hot = [rng.gen_range(0..rows), rng.gen_range(0..rows)];
    (0..6_000u32)
        .map(|i| {
            if i % 4 == 0 {
                rng.gen_range(0..rows)
            } else {
                hot[(i / 3_000) as usize]
            }
        })
        .collect()
}

/// One `on_activation` per row, `on_epoch_end` every [`RUN_EPOCH`] rows.
/// Calls `event(i, &scheme)` after row `i`.
fn replay_rows<S: MitigationScheme>(s: &mut S, trace: &[u32], mut event: impl FnMut(usize, &S)) {
    for (i, &row) in trace.iter().enumerate() {
        if i > 0 && i % RUN_EPOCH == 0 {
            s.on_epoch_end();
        }
        s.on_activation(RowId(row));
        event(i, s);
    }
}

/// The same replay as `on_run` calls of `run` rows, never across an epoch
/// boundary.
fn replay_runs<S: MitigationScheme>(s: &mut S, trace: &[u32], run: usize) {
    for (k, segment) in trace.chunks(RUN_EPOCH).enumerate() {
        if k > 0 {
            s.on_epoch_end();
        }
        for rows in segment.chunks(run) {
            s.on_run(rows);
        }
    }
}

/// Where row `i` falls in its run of `run` rows: (offset, run length).
fn run_offset(i: usize, len: usize, run: usize) -> (usize, usize) {
    let (segment, at) = (i / RUN_EPOCH * RUN_EPOCH, i % RUN_EPOCH);
    let segment_len = RUN_EPOCH.min(len - segment);
    let start = at / run * run;
    (at - start, run.min(segment_len - start))
}

/// `CatTree::record_run` and every CAT scheme's `on_run`, over the grid
/// and runs of 1, 2, 7, 64 rows and whole epoch segments, must equal one
/// `on_activation` per row: the same refresh ranges at the same rows, the
/// same full `SchemeStats` and the same `save_state` words. The sweep must
/// reach thresholds on a run's first and last row, on back-to-back rows,
/// cascading splits, DRCAT reconfigurations inside a run and PRCAT epoch
/// ends between runs.
#[test]
fn run_kernel_equals_per_row_activations() {
    let words = |save: &dyn Fn(&mut Vec<u64>)| {
        let mut out = Vec::new();
        save(&mut out);
        out
    };
    let (mut first, mut last, mut back_to_back, mut cascades) = (0, 0, 0, 0);
    let (mut inner_reconfigs, mut prcat_later_epochs) = (0, 0);
    for (case, config) in sampled_configs(64).into_iter().enumerate() {
        let seed = case_seed(0x6000 ^ case);
        let trace = run_trace(config.rows(), seed);
        let ctx = format!("case {case}, seed {seed:#x}, config {config:?}");

        // The bare tree: refresh ranges by row index, then state.
        let mut per_row = CatTree::new(config.clone());
        let mut want = Vec::new();
        for (i, &row) in trace.iter().enumerate() {
            let splits = per_row.stats().splits;
            if let Some(range) = per_row.record(RowId(row)).refresh {
                want.push((i, range));
            }
            cascades += usize::from(per_row.stats().splits >= splits + 2);
        }
        for window in want.windows(2) {
            back_to_back += usize::from(window[1].0 == window[0].0 + 1);
        }
        let want_words = words(&|out| per_row.save_state(out));
        for run in RUN_LENGTHS {
            let mut tree = CatTree::new(config.clone());
            let mut got = Vec::new();
            for (k, rows) in trace.chunks(run).enumerate() {
                let mut at = 0;
                while at < rows.len() {
                    let (n, activation) = tree.record_run(&rows[at..]);
                    at += n;
                    if let Some(range) = activation.refresh {
                        got.push((k * run.min(trace.len()) + at - 1, range));
                        if rows.len() > 1 {
                            first += usize::from(at == 1);
                            last += usize::from(at == rows.len());
                        }
                    }
                }
            }
            assert_eq!(got, want, "tree refreshes, runs of {run} ({ctx})");
            assert_eq!(
                tree.stats(),
                per_row.stats(),
                "tree stats, runs of {run} ({ctx})"
            );
            assert_eq!(
                words(&|out| tree.save_state(out)),
                want_words,
                "tree state, runs of {run} ({ctx})"
            );
        }

        // PRCAT: epoch ends between runs rebuild the tree.
        let mut per_row = Prcat::new(config.clone());
        let mut events = 0;
        replay_rows(&mut per_row, &trace, |i, p| {
            if i >= RUN_EPOCH && p.stats().refresh_events > events {
                prcat_later_epochs += 1;
            }
            events = p.stats().refresh_events;
        });
        let want_words = words(&|out| per_row.save_state(out));
        for run in RUN_LENGTHS {
            let mut prcat = Prcat::new(config.clone());
            replay_runs(&mut prcat, &trace, run);
            assert_eq!(
                prcat.stats(),
                per_row.stats(),
                "PRCAT stats, runs of {run} ({ctx})"
            );
            assert_eq!(
                words(&|out| prcat.save_state(out)),
                want_words,
                "PRCAT state, runs of {run} ({ctx})"
            );
        }

        // DRCAT: weight updates, merges and reconfigurations mid-run.
        let mut per_row = Drcat::new(config.clone());
        let mut reconfigured_at = Vec::new();
        let mut reconfigs = 0;
        replay_rows(&mut per_row, &trace, |i, d| {
            if d.stats().reconfigurations > reconfigs {
                reconfigs = d.stats().reconfigurations;
                reconfigured_at.push(i);
            }
        });
        inner_reconfigs += reconfigured_at
            .iter()
            .filter(|&&i| {
                let (offset, len) = run_offset(i, trace.len(), 64);
                0 < offset && offset + 1 < len
            })
            .count();
        let want_words = words(&|out| per_row.save_state(out));
        for run in RUN_LENGTHS {
            let mut drcat = Drcat::new(config.clone());
            replay_runs(&mut drcat, &trace, run);
            assert_eq!(
                drcat.stats(),
                per_row.stats(),
                "DRCAT stats, runs of {run} ({ctx})"
            );
            assert_eq!(
                words(&|out| drcat.save_state(out)),
                want_words,
                "DRCAT state, runs of {run} ({ctx})"
            );
        }
    }
    assert!(first > 0, "no threshold met on a run's first row");
    assert!(last > 0, "no threshold met on a run's last row");
    assert!(back_to_back > 0, "no refreshes on back-to-back rows");
    assert!(cascades > 0, "no cascading split");
    assert!(inner_reconfigs > 0, "no DRCAT reconfiguration inside a run");
    assert!(
        prcat_later_epochs > 0,
        "no PRCAT refresh after an epoch end"
    );
}

/// The differential grid at the paper's tree heights, L = 11 and L = 14:
/// banks whose finest cell is one row or four, 16 or 64 counters, trees
/// grown from the root or pre-split to `log2 M` levels, the three split
/// policies in turn.
fn tall_configs() -> Vec<CatConfig> {
    let policies = [
        ThresholdPolicy::PaperCurve,
        ThresholdPolicy::Doubling,
        ThresholdPolicy::Uniform,
    ];
    let mut out = Vec::new();
    for levels in [11u32, 14] {
        for rows in [1u32 << (levels - 1), 1 << (levels + 1)] {
            for counters in [16usize, 64] {
                for lambda in [1, counters.trailing_zeros()] {
                    let cfg = CatConfig::new(rows, counters, levels, 64)
                        .and_then(|c| c.with_lambda(lambda))
                        .expect("tall grid configs are valid");
                    out.push(cfg.with_policy(policies[out.len() % 3]));
                }
            }
        }
    }
    out
}

/// A leaf as the differential compares it: rows, value, split level.
type LeafTuple = (u32, u32, u32, u8);

/// Every row of the bank must look up, through the tree's leaf table, the
/// counter of the leaf `expect` (ascending, a partition of the bank) puts
/// it in; and the tree's `shape()` must be a partition.
fn check_table(tree: &CatTree, expect: &[LeafTuple], ctx: &str) {
    let shape = tree.shape();
    assert!(shape.is_partition(tree.config().rows()), "{ctx}");
    let mut by_id = vec![None; tree.config().counters()];
    for l in shape.leaves() {
        by_id[usize::from(l.counter)] = Some((l.range.lo(), l.range.hi(), l.value, l.tli));
    }
    for &leaf in expect {
        for row in leaf.0..=leaf.1 {
            let got = by_id[usize::from(tree.counter_of(RowId(row)))];
            assert_eq!(got, Some(leaf), "row {row} ({ctx})");
        }
    }
}

/// The pair DRCAT's §V-B step 1 merges, found as in the §IV-C pointer
/// tree: depth first from the last root, right child before left, the
/// first intermediate node whose children are two zero-weight leaves other
/// than `hot`. Returns the (left, right) leaves.
fn reference_cold_pair(
    shape: &TreeShape,
    lambda: u32,
    weights: &[u8],
    hot: u16,
) -> Option<(LeafInfo, LeafInfo)> {
    let leaf_at = |lo: u32, depth: u8| {
        shape
            .leaves()
            .iter()
            .find(|l| l.range.lo() == lo && l.depth == depth)
            .copied()
    };
    fn visit(
        leaf_at: &dyn Fn(u32, u8) -> Option<LeafInfo>,
        eligible: &dyn Fn(&LeafInfo) -> bool,
        lo: u32,
        span: u32,
        depth: u8,
    ) -> Option<(LeafInfo, LeafInfo)> {
        if leaf_at(lo, depth).is_some() {
            return None;
        }
        let half = span / 2;
        match (leaf_at(lo, depth + 1), leaf_at(lo + half, depth + 1)) {
            (Some(l), Some(r)) => (eligible(&l) && eligible(&r)).then_some((l, r)),
            _ => visit(leaf_at, eligible, lo + half, half, depth + 1)
                .or_else(|| visit(leaf_at, eligible, lo, half, depth + 1)),
        }
    }
    let eligible = |l: &LeafInfo| l.counter != hot && weights[usize::from(l.counter)] == 0;
    let rows: u32 = shape.leaves().iter().map(|l| l.range.len() as u32).sum();
    let span = rows >> (lambda - 1);
    (0..1u32 << (lambda - 1))
        .rev()
        .find_map(|g| visit(&leaf_at, &eligible, g * span, span, (lambda - 1) as u8))
}

/// The checkpoint hooks of the CAT schemes, for the round trips below.
trait Checkpointed {
    fn save(&self, out: &mut Vec<u64>);
    fn restore(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError>;
}

macro_rules! checkpointed {
    ($($scheme:ty),*) => {$(
        impl Checkpointed for $scheme {
            fn save(&self, out: &mut Vec<u64>) {
                self.save_state(out)
            }
            fn restore(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
                self.restore_state(r)
            }
        }
    )*};
}
checkpointed!(CatTree, Prcat, Drcat);

/// `scheme`'s state saved and restored onto `fresh`.
fn round_trip<S: Checkpointed>(scheme: &S, mut fresh: S) -> S {
    let mut words = Vec::new();
    scheme.save(&mut words);
    let mut r = StateReader::new(&words);
    fresh.restore(&mut r).expect("a saved state restores");
    r.finish().expect("a restore reads every word");
    fresh
}

/// The leaf table is the tree: over the tall grid, after every `on_run`
/// (so after every split and merge it holds), epoch end and save/restore
/// round trip, every row of the bank looks up the leaf the reference
/// holds — `ReferenceCat` for CAT and PRCAT, which never merge, and the
/// tree's own partition for DRCAT — and every DRCAT reconfiguration merges
/// the pair a depth-first search of the pointer tree picks.
#[test]
fn leaf_table_lookup_equals_reference() {
    const RUNS: [usize; 3] = [1, 7, 64];
    let (mut merges_checked, mut round_trips) = (0, 0);
    for (case, config) in tall_configs().into_iter().enumerate() {
        let seed = case_seed(0x7000 ^ case);
        let trace = run_trace(config.rows(), seed);
        let ctx = format!("case {case}, seed {seed:#x}, config {config:?}");

        // CAT and PRCAT in lockstep with the reference, which PRCAT's
        // epoch end rebuilds. Runs of 1, 7 and 64 rows in turn.
        let mut cat = CatTree::new(config.clone());
        let mut prcat = Prcat::new(config.clone());
        let mut reference = ReferenceCat::new(config.clone());
        let mut prcat_reference = ReferenceCat::new(config.clone());
        for (k, segment) in trace.chunks(RUN_EPOCH).enumerate() {
            if k > 0 {
                prcat.on_epoch_end();
                prcat_reference = ReferenceCat::new(config.clone());
                let at = format!("epoch {k} ({ctx})");
                check_table(prcat.tree(), &reference_tuples(&prcat_reference), &at);
                cat = round_trip(&cat, CatTree::new(config.clone()));
                prcat = round_trip(&prcat, Prcat::new(config.clone()));
                round_trips += 1;
                check_table(&cat, &reference_tuples(&reference), &at);
                check_table(prcat.tree(), &reference_tuples(&prcat_reference), &at);
            }
            let mut at = 0;
            for run in RUNS.iter().cycle() {
                if at == segment.len() {
                    break;
                }
                let rows = &segment[at..segment.len().min(at + run)];
                at += rows.len();
                cat.on_run(rows);
                prcat.on_run(rows);
                for &row in rows {
                    reference.record(RowId(row));
                    prcat_reference.record(RowId(row));
                }
                let at = format!("epoch {k}, row {at} ({ctx})");
                check_table(&cat, &reference_tuples(&reference), &at);
                check_table(prcat.tree(), &reference_tuples(&prcat_reference), &at);
            }
        }

        // DRCAT one row per `on_run`, so each reconfiguration can be
        // predicted from the state before its row: the tree after the
        // row's count (and any split), and the weights after the refresh
        // event's update. Every row is checked whenever the shape changed:
        // after a split, a merge, an epoch end and a round trip.
        let mut drcat = Drcat::new(config.clone());
        let top = config.max_levels() - 1;
        for (i, &row) in trace.iter().enumerate() {
            let at = format!("row {i} ({ctx})");
            if i > 0 && i % RUN_EPOCH == 0 {
                drcat.on_epoch_end();
                check_table(drcat.tree(), &leaf_tuples(drcat.tree()), &at);
                drcat = round_trip(&drcat, Drcat::new(config.clone()));
                round_trips += 1;
                check_table(drcat.tree(), &leaf_tuples(drcat.tree()), &at);
            }
            let mut counted = drcat.tree().clone();
            let activation = counted.record(RowId(row));
            let mut weights = drcat.weights().to_vec();
            let (merges, splits) = (drcat.stats().merges, drcat.stats().splits);
            drcat.on_run(&[row]);
            if activation.refresh.is_none() {
                assert_eq!(drcat.stats().merges, merges, "{at}");
                if drcat.stats().splits > splits {
                    check_table(drcat.tree(), &leaf_tuples(drcat.tree()), &at);
                }
                continue;
            }
            let hot = usize::from(activation.counter);
            for (c, w) in weights.iter_mut().enumerate() {
                *w = if c == hot {
                    (*w + 1).min(3)
                } else {
                    w.saturating_sub(1)
                };
            }
            let hot_depth = counted
                .shape()
                .leaves()
                .iter()
                .find(|l| usize::from(l.counter) == hot)
                .map(|l| u32::from(l.depth))
                .unwrap();
            let want = (weights[hot] == 3 && hot_depth < top)
                .then(|| {
                    reference_cold_pair(&counted.shape(), config.lambda(), &weights, hot as u16)
                })
                .flatten();
            assert_eq!(
                drcat.stats().merges - merges,
                u64::from(want.is_some()),
                "{at}"
            );
            if let Some((left, right)) = want {
                let merged = drcat
                    .tree()
                    .shape()
                    .leaves()
                    .iter()
                    .find(|l| l.counter == right.counter)
                    .map(|l| (l.range.lo(), l.range.hi(), l.depth));
                assert_eq!(
                    merged,
                    Some((left.range.lo(), right.range.hi(), right.depth - 1)),
                    "{at}"
                );
                merges_checked += 1;
                check_table(drcat.tree(), &leaf_tuples(drcat.tree()), &at);
            }
        }
    }
    assert!(merges_checked > 0, "no DRCAT merge was checked");
    assert!(round_trips > 0);
}
