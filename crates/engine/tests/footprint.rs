//! Memory regression test for the sparse datapath (`DESIGN.md §10`):
//! tracker state follows the touched banks, never the banks that exist.
//! A 1 Mi-bank system hammered in bursts on every 97th bank must account
//! at most a fixed number of bytes per materialized bank plus batch
//! scratch sized by the stream capacity — so dense per-bank scratch, or
//! slack in the sparse blocks, fails here — and that footprint must not
//! depend on the shard count and must survive a checkpoint restore.

use cat_core::SchemeSpec;
use cat_engine::{MemGeometry, MemorySystem};

/// 4 channels × 4 ranks × 65 536 banks = 1 Mi banks.
const GEOMETRY: MemGeometry = MemGeometry {
    channels: 4,
    ranks_per_channel: 4,
    banks_per_rank: 65_536,
    rows_per_bank: 4096,
    lines_per_row: 16,
    line_bytes: 64,
};

/// Accounting bytes allowed per materialized bank: its share of the two
/// sparse block directories and its activation counter.
const BYTES_PER_BANK: usize = 256;

/// Grouping scratch allowed per staged record: rows, sort keys and
/// pairs, and at most one run per record with `Vec` growth slack.
const BYTES_PER_STAGED_RECORD: usize = 32;

/// One epoch, so the run ends on a cut a checkpoint can capture.
const RECORDS: usize = 1 << 20;

/// Every 97th bank is hot.
fn hot() -> Vec<u32> {
    (5..GEOMETRY.total_banks()).step_by(97).collect()
}

/// The hot banks, visited round-robin in bursts of 64 accesses — enough
/// of them to touch every hot bank.
fn hammer() -> Vec<(u32, u32)> {
    let hot = hot();
    assert!(RECORDS / 64 >= hot.len());
    (0..RECORDS)
        .map(|i| {
            let bank = hot[(i / 64) % hot.len()];
            let row = if i % 4 == 0 {
                (i as u32).wrapping_mul(2_654_435_761) % 4096
            } else {
                1_234
            };
            (bank, row)
        })
        .collect()
}

fn system(shards: usize) -> MemorySystem {
    let spec: SchemeSpec = "drcat:64:11:32".parse().unwrap();
    MemorySystem::new(GEOMETRY, spec)
        .with_epoch_length(RECORDS as u64)
        .with_shards(shards)
}

#[test]
fn accounting_follows_touched_banks_at_every_shard_count_and_after_restore() {
    let trace = hammer();
    let mut footprints = Vec::new();
    let mut image = Vec::new();
    for shards in [1usize, 2, 4] {
        let mut system = system(shards);
        for flush in trace.chunks(MemorySystem::DEFAULT_STREAM_CAPACITY) {
            system.process(flush);
        }
        let fp = system.footprint();
        assert_eq!(fp.materialized_banks, hot().len());
        let budget = BYTES_PER_BANK * fp.materialized_banks
            + BYTES_PER_STAGED_RECORD * MemorySystem::DEFAULT_STREAM_CAPACITY;
        assert!(
            fp.accounting_bytes <= budget,
            "{shards} shards: {} accounting bytes over the {budget}-byte budget",
            fp.accounting_bytes
        );
        footprints.push(fp);
        if shards == 1 {
            image = system.checkpoint().unwrap();
        }
    }
    assert!(
        footprints.iter().all(|fp| *fp == footprints[0]),
        "footprint depends on the shard count: {footprints:?}"
    );
    let mut restored = system(2);
    restored.restore(&image).unwrap();
    assert_eq!(restored.footprint(), footprints[0], "restore changed it");
}
