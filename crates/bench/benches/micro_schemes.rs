//! Micro-benchmarks: per-activation cost of each mitigation scheme (the
//! software analogue of §VII-A's latency table — SCA one SRAM access, CAT
//! 2‥L−log2(M)+2 pointer hops, DRCAT's extra weight work) and the cost of a
//! DRCAT reconfiguration. Each CAT-family row has a `run` twin that replays
//! 64-row runs through `on_run`, the per-bank call of the engine's batch
//! path. The `run swapt` rows replay real bank rows instead of the
//! synthetic pattern: the catalog `swapt` trace, decoded with the
//! dual-core two-channel mapping, one scheme per bank.
//!
//! Hand-rolled `std::time::Instant` harness (no criterion — the workspace
//! builds offline): each measurement warms up, then reports the mean
//! ns/iteration over the best of several timed batches. Set `REPRO_QUICK=1`
//! to shrink batch sizes for fast iteration.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// The whole point of a bench harness is to read the wall clock; the
// workspace-wide clippy.toml ban (DESIGN.md §9) is lifted here only.
#![allow(clippy::disallowed_methods)]

use std::hint::black_box;
use std::time::Instant;

use cat_bench::{banner, quick_factor};
use cat_core::{
    CatConfig, CatTree, CounterCache, CounterCacheConfig, Drcat, MitigationScheme, Pra, Prcat,
    RowId, Sca,
};
use cat_sim::{AddressMapping, SystemConfig};

const ROWS: u32 = 65_536;
const T: u32 = 32_768;

/// A deterministic hot/cold access pattern exercising the tree depths.
fn row(i: u64) -> RowId {
    if !i.is_multiple_of(3) {
        RowId(31_337)
    } else {
        RowId(((i as u32).wrapping_mul(2_654_435_761)) % ROWS)
    }
}

/// Times `iters` calls of `f(i)` and returns nanoseconds per call; reports
/// the best of `reps` batches (minimum is the standard noise rejector for
/// micro-measurements).
fn best_ns_per_iter<F: FnMut(u64)>(iters: u64, reps: u32, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    let mut i = 0u64;
    for _ in 0..reps {
        let start = Instant::now();
        for _ in 0..iters {
            i += 1;
            f(i);
        }
        let ns = start.elapsed().as_nanos() as f64 / iters as f64;
        if ns < best {
            best = ns;
        }
    }
    best
}

/// Measures one scheme, generically — monomorphized so `on_activation` can
/// inline exactly as it did under the old criterion macro (a `dyn` call
/// would add dispatch overhead comparable to the cheapest schemes' cost).
fn report<S: MitigationScheme>(name: &str, iters: u64, mut scheme: S) {
    // Pre-grow the structures so we measure steady state.
    for i in 0..200_000u64 {
        scheme.on_activation(row(i));
    }
    let ns = best_ns_per_iter(iters, 5, |i| {
        black_box(scheme.on_activation(row(i)));
    });
    println!("{name:>22}  {ns:>8.1} ns/op");
}

/// Rows per `on_run` call of the run rows: one bank's share of a batch.
const RUN: usize = 64;

/// Measures `on_run` over runs of [`RUN`] rows of the same pattern as
/// [`report`] (the engine's per-bank replay) and reports ns per row.
fn report_run<S: MitigationScheme>(name: &str, iters: u64, mut scheme: S) {
    let rows: Vec<u32> = (0..200_000u64).map(|i| row(i).0).collect();
    scheme.on_run(&rows);
    let runs = iters / RUN as u64;
    let mut at = 0usize;
    let ns = best_ns_per_iter(runs, 5, |_| {
        if at + RUN > rows.len() {
            at = 0;
        }
        scheme.on_run(black_box(&rows[at..at + RUN]));
        at += RUN;
    }) / RUN as f64;
    println!("{name:>22}  {ns:>8.1} ns/row");
}

/// Records of the `swapt` trace the `run swapt` rows replay.
const SWAPT_RECORDS: usize = 2_000_000;

/// The rows of each bank of the catalog `swapt` trace (seed 9091), decoded
/// as the loopback benchmark decodes it: the single-core-equivalent stream
/// of the dual-core two-channel system through its address mapping.
fn swapt_bank_rows() -> (u32, Vec<Vec<u32>>) {
    let cfg = SystemConfig::dual_core_two_channel();
    let spec = cat_workloads::catalog::by_name("swapt").expect("the catalog has swapt");
    let mapping = AddressMapping::new(&cfg);
    let mut banks = vec![Vec::new(); cfg.total_banks() as usize];
    let records = SWAPT_RECORDS / quick_factor() as usize;
    for access in cat_bench::system_stream(&spec, &cfg, 256, 9091).take(records) {
        let (bank, row) = mapping.decode_bank_row(access.addr);
        banks[bank as usize].push(row);
    }
    (cfg.rows_per_bank, banks)
}

/// Measures `on_run` over the `swapt` bank rows: one scheme per bank, the
/// banks visited in turn, [`RUN`] rows of a bank per call. After one
/// untimed pass over every row, reports ns per row.
fn report_run_swapt<S: MitigationScheme>(
    name: &str,
    iters: u64,
    banks: &[Vec<u32>],
    make: impl Fn() -> S,
) {
    let mut schemes: Vec<S> = banks.iter().map(|_| make()).collect();
    for (scheme, rows) in schemes.iter_mut().zip(banks) {
        scheme.on_run(rows);
    }
    // (bank, first row, end) of every run, bank by bank.
    let runs: Vec<(usize, usize, usize)> = banks
        .iter()
        .enumerate()
        .flat_map(|(bank, rows)| {
            (0..rows.len())
                .step_by(RUN)
                .map(move |at| (bank, at, rows.len().min(at + RUN)))
        })
        .collect();
    let mut next = 0usize;
    let calls = iters / RUN as u64;
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let start = Instant::now();
        let mut rows_done = 0usize;
        for _ in 0..calls {
            let (bank, at, end) = runs[next % runs.len()];
            next += 1;
            schemes[bank].on_run(black_box(&banks[bank][at..end]));
            rows_done += end - at;
        }
        let ns = start.elapsed().as_nanos() as f64 / rows_done as f64;
        best = best.min(ns);
    }
    println!("{name:>22}  {best:>8.1} ns/row");
}

fn bench_activation() {
    banner("micro: on_activation (ns/op, steady state, best of 5)");
    let iters = 2_000_000 / quick_factor();

    report("SCA_64", iters, Sca::new(ROWS, 64, T).unwrap());
    report("SCA_128", iters, Sca::new(ROWS, 128, T).unwrap());
    report("PRA_0.002", iters, Pra::new(ROWS, 0.002, 1).unwrap());
    let cat = |levels| CatConfig::new(ROWS, 64, levels, T).unwrap();
    report("CAT_64_L11", iters, CatTree::new(cat(11)));
    report_run("CAT_64_L11 run", iters, CatTree::new(cat(11)));
    report("PRCAT_64_L11", iters, Prcat::new(cat(11)));
    report_run("PRCAT_64_L11 run", iters, Prcat::new(cat(11)));
    report("DRCAT_64_L11", iters, Drcat::new(cat(11)));
    report_run("DRCAT_64_L11 run", iters, Drcat::new(cat(11)));
    report("DRCAT_64_L14", iters, Drcat::new(cat(14)));
    report_run("DRCAT_64_L14 run", iters, Drcat::new(cat(14)));
    let (rows, banks) = swapt_bank_rows();
    let bank_cat = |levels| CatConfig::new(rows, 64, levels, T).unwrap();
    report_run_swapt("CAT_64_L11 run swapt", iters, &banks, || {
        CatTree::new(bank_cat(11))
    });
    report_run_swapt("DRCAT_64_L11 run swapt", iters, &banks, || {
        Drcat::new(bank_cat(11))
    });
    report_run_swapt("DRCAT_64_L14 run swapt", iters, &banks, || {
        Drcat::new(bank_cat(14))
    });
    report(
        "CounterCache_1024",
        iters,
        CounterCache::new(ROWS, CounterCacheConfig::with_entries(1024, 8).unwrap(), T).unwrap(),
    );
}

fn bench_reconfiguration() {
    banner("micro: drcat_reconfigure (merge + split, ns/256-activation burst)");
    // A fully grown DRCAT with a saturated hot counter one refresh away
    // from reconfiguring; grown once, then cloned per timed burst so each
    // burst starts from identical state and triggers the reconfiguration.
    let prototype = {
        let mut d = Drcat::new(CatConfig::new(1024, 16, 8, 256).unwrap());
        for i in 0..20_000u64 {
            d.on_activation(RowId(((i as u32) * 37) % 1024));
        }
        let mut w = vec![0u8; 16];
        w[0] = 2; // next refresh event on a level-tracked counter saturates
        d.force_weights(&w);
        d
    };
    let batches = 2_000 / quick_factor();
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let mut pool: Vec<Drcat> = (0..batches).map(|_| prototype.clone()).collect();
        let start = Instant::now();
        for d in &mut pool {
            for _ in 0..256 {
                black_box(d.on_activation(RowId(5)));
            }
        }
        let ns = start.elapsed().as_nanos() as f64 / batches as f64;
        if ns < best {
            best = ns;
        }
    }
    println!("{:>22}  {best:>8.1} ns/burst", "merge_plus_split");
}

fn bench_tree_build() {
    banner("micro: prcat_epoch_reset (ns/op, best of 5)");
    let mut p = Prcat::new(CatConfig::new(ROWS, 64, 11, T).unwrap());
    for i in 0..100_000u64 {
        p.on_activation(row(i));
    }
    let iters = 200_000 / quick_factor();
    let ns = best_ns_per_iter(iters, 5, |_| {
        p.on_epoch_end();
        black_box(p.tree().active_counters());
    });
    println!("{:>22}  {ns:>8.1} ns/op", "prcat_epoch_reset");
}

fn main() {
    bench_activation();
    bench_reconfiguration();
    bench_tree_build();
}
