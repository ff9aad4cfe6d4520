//! `sparse_smoke` — the huge-geometry memory-ceiling smoke for the sparse
//! bank storage (`DESIGN.md §10`).
//!
//! Builds a 1Mi-bank memory system (4 channels × 4 ranks × 65 536 banks),
//! drives ~1% of the banks hot, and verifies that only the touched banks
//! ever materialize a scheme instance — the resident footprint must beat
//! the dense per-bank estimate by at least 10×. `scripts/tier1.sh` and CI
//! run this binary under a `ulimit -v` ceiling far below what eager dense
//! storage would allocate, so a regression to eager materialization fails
//! by running out of address space, not just by tripping the asserts.
//! The same trace is then replayed through a 2-shard system in
//! 8192-record flushes — the `catd` server's flush size — which must
//! match the flat run's stats and materialize the same banks, under the
//! same ceiling, and account at most 256 bytes per materialized bank plus
//! 32 bytes of batch scratch per staged record: dense per-bank scratch
//! or slack in the sparse blocks would exceed that budget many times.
//!
//! Run with: `cargo run --release --example sparse_smoke`

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Timing prints only (build time, Macts/s) — every assert is wall-clock-free.
// The same local opt-out the bench harnesses use (DESIGN.md §9).
#![allow(clippy::disallowed_methods)]

// cat-lint: allow(wall-clock) -- smoke prints build time and throughput; every assert is wall-clock-free
use std::time::Instant;

use catree::{MemGeometry, MemorySystem, SchemeSpec};

fn main() {
    let geometry = MemGeometry {
        channels: 4,
        ranks_per_channel: 4,
        banks_per_rank: 65_536,
        rows_per_bank: 4096,
        lines_per_row: 16,
        line_bytes: 64,
    };
    let total_banks = geometry.total_banks();
    assert_eq!(total_banks, 1 << 20);
    // A low threshold: with ~1% of 1Mi banks hot, each bank only sees a
    // few hundred of the 3M accesses — the smoke must still prove the
    // refresh path fires through lazily-built instances.
    let spec: SchemeSpec = "drcat:64:11:32".parse().expect("valid spec");

    // cat-lint: allow(wall-clock) -- timing print only, not an input to the datapath
    let built = Instant::now();
    let mut system = MemorySystem::new(geometry, spec).with_epoch_length(1_000_000);
    println!(
        "sparse_smoke: built {total_banks}-bank system in {:.3} ms",
        built.elapsed().as_secs_f64() * 1e3
    );

    // ~1% of the banks hot: every 97th global bank.
    let hot: Vec<u32> = (0..total_banks).step_by(97).collect();
    let accesses = 3_000_000usize;
    let batch: Vec<(u32, u32)> = (0..accesses)
        .map(|i| {
            let bank = hot[i % hot.len()];
            let row = if !i.is_multiple_of(4) {
                7
            } else {
                (i.wrapping_mul(2_654_435_761) % 4096) as u32
            };
            (bank, row)
        })
        .collect();
    // cat-lint: allow(wall-clock) -- timing print only, not an input to the datapath
    let run = Instant::now();
    let out = system.process(&batch);
    let secs = run.elapsed().as_secs_f64();

    let fp = system.footprint();
    assert_eq!(fp.banks, total_banks as usize);
    assert_eq!(
        fp.materialized_banks,
        hot.len(),
        "exactly the hot banks must materialize"
    );
    assert!(
        out.refresh_events > 0,
        "hammered rows must fire through the sparse storage"
    );
    let per_bank = fp.scheme_bytes / fp.materialized_banks;
    let dense_estimate = per_bank * fp.banks;
    assert!(
        fp.resident_bytes() * 10 <= dense_estimate,
        "resident {} bytes vs dense estimate {}: under the 10x win",
        fp.resident_bytes(),
        dense_estimate
    );
    println!(
        "sparse_smoke: {} hot banks ({:.2}%), {accesses} accesses at {:.1} Macts/s",
        hot.len(),
        100.0 * hot.len() as f64 / total_banks as f64,
        accesses as f64 / secs / 1e6
    );
    println!(
        "sparse_smoke: resident {} bytes ({per_bank} per hot bank) vs dense estimate {} — {:.0}x win",
        fp.resident_bytes(),
        dense_estimate,
        dense_estimate as f64 / fp.resident_bytes() as f64
    );

    // The sharded datapath: the same trace at 2 shards, flushed the way
    // the `catd` drain flushes it.
    let mut sharded = MemorySystem::new(geometry, spec)
        .with_epoch_length(1_000_000)
        .with_shards(2);
    // cat-lint: allow(wall-clock) -- timing print only, not an input to the datapath
    let run = Instant::now();
    for chunk in batch.chunks(MemorySystem::DEFAULT_STREAM_CAPACITY) {
        sharded.process(chunk);
    }
    let secs = run.elapsed().as_secs_f64();
    assert_eq!(sharded.stats(), system.stats(), "2 shards must match flat");
    let sharded_fp = sharded.footprint();
    assert_eq!(
        sharded_fp.materialized_banks, fp.materialized_banks,
        "2 shards must materialize exactly the flat run's banks"
    );
    let budget = 256 * sharded_fp.materialized_banks + 32 * MemorySystem::DEFAULT_STREAM_CAPACITY;
    assert!(
        sharded_fp.accounting_bytes <= budget,
        "{} accounting bytes over the {budget}-byte budget: state no longer follows the touched banks",
        sharded_fp.accounting_bytes
    );
    println!(
        "sparse_smoke: 2 shards, {}-record flushes at {:.1} Macts/s, identical stats, \
         {} accounting bytes (budget {budget})",
        MemorySystem::DEFAULT_STREAM_CAPACITY,
        accesses as f64 / secs / 1e6,
        sharded_fp.accounting_bytes
    );
    println!("sparse_smoke: OK");
}
