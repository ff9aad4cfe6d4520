//! Golden pins of the CAT family's cost accounting.
//!
//! The differential tests compare refresh decisions and leaf tuples against
//! the reference CAT; they do not see the SRAM traffic counters
//! (`sram_reads`, `sram_writes`, `max_depth_touched`) that the CMRPO energy
//! model reads, nor which counter absorbed each activation. This file pins
//! the full [`SchemeStats`] and a hash of the per-access counter sequence
//! for `CatTree`, `Prcat` and `Drcat` on fixed seeded traces, so a rewrite
//! of the tree walk must reproduce them bit for bit.

use cat_core::{
    CatConfig, CatTree, Drcat, MitigationScheme, Prcat, RowId, SchemeStats, ThresholdPolicy,
};
use cat_prng::rngs::StdRng;
use cat_prng::{Rng, SeedableRng};

/// Accesses per trace.
const ACCESSES: u32 = 30_000;
/// Accesses per auto-refresh epoch (PRCAT rebuilds, DRCAT zeroes values).
const EPOCH: u32 = 5_000;

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// A seeded two-phase trace: one hot row for the first half, another for
/// the second, with uniform background noise on every third access.
fn trace(rows: u32, seed: u64) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(seed);
    let hot_a = rng.gen_range(0..rows);
    let hot_b = rng.gen_range(0..rows);
    (0..ACCESSES)
        .map(|i| {
            if i % 3 == 0 {
                rng.gen_range(0..rows)
            } else if i < ACCESSES / 2 {
                hot_a
            } else {
                hot_b
            }
        })
        .collect()
}

/// What a run leaves behind: stats, a hash of the counter charged (or
/// covering the row) at every access, and a hash of every refresh range.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    stats: SchemeStats,
    counters: u64,
    refreshes: u64,
}

fn hash_refreshes(h: &mut Fnv, access: usize, refreshes: cat_core::Refreshes) {
    for r in refreshes {
        h.word(access as u64);
        h.word(u64::from(r.lo()) << 32 | u64::from(r.hi()));
    }
}

fn run_cat(cfg: &CatConfig, rows: &[u32]) -> Golden {
    let mut tree = CatTree::new(cfg.clone());
    let (mut counters, mut refreshes) = (Fnv::new(), Fnv::new());
    for (i, &row) in rows.iter().enumerate() {
        let a = tree.record(RowId(row));
        counters.word(u64::from(a.counter));
        if let Some(r) = a.refresh {
            hash_refreshes(&mut refreshes, i, cat_core::Refreshes::one(r));
        }
    }
    Golden {
        stats: *tree.stats(),
        counters: counters.0,
        refreshes: refreshes.0,
    }
}

/// PRCAT is a `CatTree` reset at every epoch: a shadow tree driven that way
/// supplies the charged counters and must agree with PRCAT's stats.
fn run_prcat(cfg: &CatConfig, rows: &[u32]) -> Golden {
    let mut prcat = Prcat::new(cfg.clone());
    let mut shadow = CatTree::new(cfg.clone());
    let (mut counters, mut refreshes) = (Fnv::new(), Fnv::new());
    for (i, &row) in rows.iter().enumerate() {
        if i > 0 && i % EPOCH as usize == 0 {
            prcat.on_epoch_end();
            shadow.reset();
        }
        counters.word(u64::from(shadow.record(RowId(row)).counter));
        hash_refreshes(&mut refreshes, i, prcat.on_activation(RowId(row)));
    }
    assert_eq!(prcat.stats(), shadow.stats(), "PRCAT = CatTree + reset");
    Golden {
        stats: *prcat.stats(),
        counters: counters.0,
        refreshes: refreshes.0,
    }
}

/// DRCAT does not expose the charged counter, so the counter hash records
/// the counter whose leaf covers the row right after each access.
fn run_drcat(cfg: &CatConfig, rows: &[u32]) -> Golden {
    let mut drcat = Drcat::new(cfg.clone());
    let (mut counters, mut refreshes) = (Fnv::new(), Fnv::new());
    for (i, &row) in rows.iter().enumerate() {
        if i > 0 && i % EPOCH as usize == 0 {
            drcat.on_epoch_end();
        }
        hash_refreshes(&mut refreshes, i, drcat.on_activation(RowId(row)));
        let shape = drcat.tree().shape();
        let leaf = shape
            .leaves()
            .iter()
            .find(|l| l.range.contains(row))
            .expect("the leaves partition the bank");
        counters.word(u64::from(leaf.counter));
    }
    Golden {
        stats: *drcat.stats(),
        counters: counters.0,
        refreshes: refreshes.0,
    }
}

/// `SchemeStats` from the fields the CAT family moves (the rest stay 0).
#[allow(clippy::too_many_arguments)]
fn stats(
    activations: u64,
    refresh_events: u64,
    refreshed_rows: u64,
    sram_reads: u64,
    sram_writes: u64,
    splits: u64,
    merges: u64,
    reconfigurations: u64,
    max_depth_touched: u64,
) -> SchemeStats {
    SchemeStats {
        activations,
        refresh_events,
        refreshed_rows,
        sram_reads,
        sram_writes,
        splits,
        merges,
        reconfigurations,
        max_depth_touched,
        ..SchemeStats::default()
    }
}

fn check(name: &str, cfg: CatConfig, seed: u64, expected: [Golden; 3]) {
    let rows = trace(cfg.rows(), seed);
    let got = [
        run_cat(&cfg, &rows),
        run_prcat(&cfg, &rows),
        run_drcat(&cfg, &rows),
    ];
    for (scheme, (got, want)) in ["CAT", "PRCAT", "DRCAT"]
        .iter()
        .zip(got.iter().zip(&expected))
    {
        assert_eq!(got, want, "{name} {scheme}");
    }
}

/// λ = 1: Algorithm 1 from a single root counter.
#[test]
fn golden_lambda_one() {
    let cfg = CatConfig::new(1024, 16, 8, 128)
        .unwrap()
        .with_policy(ThresholdPolicy::Doubling)
        .with_lambda(1)
        .unwrap();
    check(
        "lambda-1",
        cfg,
        0x1a,
        [
            Golden {
                stats: stats(30000, 225, 7725, 207129, 30030, 15, 0, 0, 7),
                counters: 0x52d9_87bc_ac1e_98c0,
                refreshes: 0x3232_8f79_0bb5_80e9,
            },
            Golden {
                stats: stats(30000, 178, 4157, 206410, 30180, 90, 0, 0, 7),
                counters: 0x8801_72a4_6e7c_378f,
                refreshes: 0xf4bc_86e9_9937_9c1f,
            },
            Golden {
                stats: stats(30000, 175, 3959, 207129, 30030, 15, 0, 0, 7),
                counters: 0x52d9_87bc_ac1e_98c0,
                refreshes: 0x28cc_2d14_e3c6_3a55,
            },
        ],
    );
}

/// `L − 1 = log2 rows`: the hot rows drive leaves down to single rows,
/// where splitting stops and the counter counts up to `T` instead.
#[test]
fn golden_single_row_leaves() {
    let cfg = CatConfig::new(256, 16, 9, 64).unwrap();
    check(
        "single-row",
        cfg,
        0x256,
        [
            Golden {
                stats: stats(30000, 462, 9395, 86214, 30016, 8, 0, 0, 8),
                counters: 0xaebb_6e67_fc04_fdcc,
                refreshes: 0x5a46_30da_3eb6_5132,
            },
            Golden {
                stats: stats(30000, 425, 4011, 135417, 30096, 48, 0, 0, 8),
                counters: 0xa713_d635_4d6f_95c4,
                refreshes: 0x5487_8e8b_8e0f_c1a4,
            },
            Golden {
                stats: stats(30000, 422, 4105, 133962, 30036, 13, 5, 5, 8),
                counters: 0xf8ab_1d55_cf9f_24cc,
                refreshes: 0xb3b4_0245_8e7c_17d0,
            },
        ],
    );
}

/// The hot spot moves half way through, so DRCAT merges cold pairs and
/// reconfigures toward the new hot row.
#[test]
fn golden_drcat_reconfigures() {
    let cfg = CatConfig::new(1024, 16, 8, 128).unwrap();
    check(
        "reconfigure",
        cfg,
        0xd12c,
        [
            Golden {
                stats: stats(30000, 227, 12224, 87087, 30016, 8, 0, 0, 7),
                counters: 0xd797_8f71_0908_f520,
                refreshes: 0x0414_cd0d_82d0_9cfe,
            },
            Golden {
                stats: stats(30000, 181, 4356, 115958, 30096, 48, 0, 0, 7),
                counters: 0x759d_5bed_b5b0_ef27,
                refreshes: 0xb598_5b29_bf72_a5a8,
            },
            Golden {
                stats: stats(30000, 182, 5038, 114504, 30028, 11, 3, 3, 7),
                counters: 0xf456_c0fe_fb7d_4405,
                refreshes: 0x5b30_7275_e490_39d8,
            },
        ],
    );
}

/// The paper's bank geometry (N = 64K, M = 64, L = 11) at a low threshold.
#[test]
fn golden_paper_geometry() {
    let cfg = CatConfig::new(65_536, 64, 11, 1024).unwrap();
    check(
        "paper",
        cfg,
        0x64,
        [
            Golden {
                stats: stats(30000, 18, 1188, 131625, 30064, 32, 0, 0, 10),
                counters: 0xde0f_035e_aa76_0377,
                refreshes: 0x007b_33ca_ca73_1f02,
            },
            Golden {
                stats: stats(30000, 18, 1188, 120194, 30060, 30, 0, 0, 10),
                counters: 0x21c1_302b_31c7_12ac,
                refreshes: 0xeed0_5bb6_15a4_6677,
            },
            Golden {
                stats: stats(30000, 18, 1188, 127440, 30020, 10, 0, 0, 10),
                counters: 0x394b_4b9a_1589_8f37,
                refreshes: 0x6f44_379b_8101_a5f6,
            },
        ],
    );
}
