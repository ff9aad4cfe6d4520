//! Kill-and-resume differential suite for the checkpoint format
//! (`DESIGN.md §11`): for **every** scheme spec × shard count, checkpoint
//! a seeded workload at **every** epoch cut, restore the image into a
//! freshly built twin, run the rest of the trace on both — final
//! `SchemeStats` *and* `EngineFootprint` must be bit-identical. The
//! uninterrupted comparison run processes the trace with the same batch
//! split (`trace[..cut]`, then `trace[cut..]`), so the footprint
//! comparison pins high-water marks, slab directory capacities and lazy
//! materialization order, not just counter values.
//!
//! Covers both execution paths of the determinism contract (`DESIGN.md
//! §7`): the flat [`BankEngine::process`] path and the routed
//! [`MemorySystem`] path, per channel or per partition slice, on the
//! calling thread or on worker threads.

use cat_core::SchemeSpec;
use cat_engine::{BankEngine, MemGeometry, MemorySystem, Partition};

const BANKS: u32 = 16;
const ROWS: u32 = 4096;
const EPOCH: u64 = 1_500;
const TRACE: u64 = 9_000;

fn geometry() -> MemGeometry {
    MemGeometry {
        channels: 2,
        ranks_per_channel: 1,
        banks_per_rank: 8,
        rows_per_bank: ROWS,
        lines_per_row: 16,
        line_bytes: 64,
    }
}

/// Every scheme spec the engine can serve, including the no-mitigation
/// baseline — a checkpoint must round-trip all of them.
fn specs() -> Vec<SchemeSpec> {
    vec![
        SchemeSpec::None,
        SchemeSpec::pra(0.001),
        SchemeSpec::Sca {
            counters: 64,
            threshold: 512,
        },
        SchemeSpec::Prcat {
            counters: 64,
            levels: 11,
            threshold: 512,
        },
        SchemeSpec::Drcat {
            counters: 64,
            levels: 11,
            threshold: 512,
        },
        SchemeSpec::CounterCache {
            entries: 128,
            ways: 4,
            threshold: 512,
        },
        SchemeSpec::SpaceSaving {
            counters: 64,
            threshold: 512,
        },
    ]
}

/// Deterministic hammered-plus-background trace (splitmix-style mixing,
/// same shape as the ingest loopback suite) — hot rows drive refreshes
/// and tree growth, the background tail spreads across all banks.
fn trace() -> Vec<(u32, u32)> {
    (0..TRACE)
        .map(|i| {
            let mut z = i
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(0x6a09_e667);
            z ^= z >> 27;
            z = z.wrapping_mul(0x94d0_49bb_1331_11eb);
            let bank = (z % u64::from(BANKS)) as u32;
            let row = if i % 4 != 0 {
                1000 + bank
            } else {
                ((z >> 32) % u64::from(ROWS)) as u32
            };
            (bank, row)
        })
        .collect()
}

/// Every epoch cut of the trace, including its (aligned) end.
fn cuts() -> Vec<usize> {
    (1..=TRACE / EPOCH).map(|k| (k * EPOCH) as usize).collect()
}

fn fresh_system(spec: SchemeSpec, shards: usize) -> MemorySystem {
    MemorySystem::new(geometry(), spec)
        .with_epoch_length(EPOCH)
        .with_shards(shards)
}

#[test]
fn system_kill_and_resume_is_bit_identical_for_every_spec_and_shard_count() {
    let trace = trace();
    for spec in specs() {
        for shards in [1usize, 2, 4] {
            for cut in cuts() {
                // The "killed" session: run to the cut, publish an image.
                let mut original = fresh_system(spec, shards);
                original.process(&trace[..cut]);
                let image = original
                    .checkpoint()
                    .unwrap_or_else(|e| panic!("{spec} x{shards} cut {cut}: checkpoint: {e}"));

                // The resumed session: restore into a fresh twin.
                let mut resumed = fresh_system(spec, shards);
                resumed
                    .restore(&image)
                    .unwrap_or_else(|e| panic!("{spec} x{shards} cut {cut}: restore: {e}"));
                assert_eq!(resumed.accesses(), original.accesses());
                assert_eq!(resumed.epochs(), original.epochs());
                assert_eq!(
                    resumed.stats(),
                    original.stats(),
                    "{spec} x{shards} cut {cut}: stats diverge at the cut"
                );
                assert_eq!(
                    resumed.footprint(),
                    original.footprint(),
                    "{spec} x{shards} cut {cut}: footprint diverges at the cut"
                );

                // Both finish the trace with the same batch split; the
                // original doubles as the uninterrupted comparison run.
                if cut < trace.len() {
                    original.process(&trace[cut..]);
                    resumed.process(&trace[cut..]);
                }
                assert_eq!(
                    resumed.stats(),
                    original.stats(),
                    "{spec} x{shards} cut {cut}: stats diverge after resume"
                );
                assert_eq!(
                    resumed.footprint(),
                    original.footprint(),
                    "{spec} x{shards} cut {cut}: footprint diverges after resume"
                );
            }
        }
    }
}

#[test]
fn engine_kill_and_resume_is_bit_identical_on_flat_and_pooled_paths() {
    let trace = trace();
    let quarters = Partition::uniform(geometry(), 4).expect("4 slices of 4 banks");
    for spec in specs() {
        for cut in cuts() {
            // Flat arm: one engine over all 16 banks.
            let mut original = BankEngine::new(spec, BANKS, ROWS).with_epoch_length(EPOCH);
            original.process(&trace[..cut]);
            let image = original
                .checkpoint()
                .unwrap_or_else(|e| panic!("{spec} flat cut {cut}: checkpoint: {e}"));

            let mut resumed = BankEngine::new(spec, BANKS, ROWS).with_epoch_length(EPOCH);
            resumed
                .restore(&image)
                .unwrap_or_else(|e| panic!("{spec} flat cut {cut}: restore: {e}"));
            assert_eq!(resumed.stats(), original.stats());
            assert_eq!(resumed.footprint(), original.footprint());

            if cut < trace.len() {
                original.process(&trace[cut..]);
                resumed.process(&trace[cut..]);
            }
            assert_eq!(
                resumed.stats(),
                original.stats(),
                "{spec} flat cut {cut}: engine stats diverge after resume"
            );
            assert_eq!(
                resumed.footprint(),
                original.footprint(),
                "{spec} flat cut {cut}: engine footprint diverges after resume"
            );

            // Sharded arm: the same banks as four 4-bank engines on four
            // threads.
            let sharded = || {
                MemorySystem::partitioned(&quarters, spec)
                    .with_epoch_length(EPOCH)
                    .with_shards(4)
            };
            let mut original = sharded();
            original.process(&trace[..cut]);
            let image = original
                .checkpoint()
                .unwrap_or_else(|e| panic!("{spec} x4 cut {cut}: checkpoint: {e}"));

            let mut resumed = sharded();
            resumed
                .restore(&image)
                .unwrap_or_else(|e| panic!("{spec} x4 cut {cut}: restore: {e}"));
            assert_eq!(resumed.stats(), original.stats());
            assert_eq!(resumed.footprint(), original.footprint());

            if cut < trace.len() {
                original.process(&trace[cut..]);
                resumed.process(&trace[cut..]);
            }
            assert_eq!(
                resumed.stats(),
                original.stats(),
                "{spec} x4 cut {cut}: engine stats diverge after resume"
            );
            assert_eq!(
                resumed.footprint(),
                original.footprint(),
                "{spec} x4 cut {cut}: engine footprint diverges after resume"
            );
        }
    }
}

#[test]
fn images_and_footprints_do_not_depend_on_the_shard_count() {
    // Shards only change which thread replays an engine, never the calls
    // it gets: at every epoch cut, a 4-channel system at 1, 2 and 4
    // shards must checkpoint to the same bytes and report the same full
    // footprint, `accounting_bytes` included.
    let geometry = MemGeometry {
        channels: 4,
        ranks_per_channel: 1,
        banks_per_rank: BANKS / 4,
        rows_per_bank: ROWS,
        lines_per_row: 16,
        line_bytes: 64,
    };
    let trace = trace();
    for spec in specs() {
        let mut systems: Vec<MemorySystem> = [1usize, 2, 4]
            .into_iter()
            .map(|shards| {
                MemorySystem::new(geometry, spec)
                    .with_epoch_length(EPOCH)
                    .with_shards(shards)
            })
            .collect();
        let mut prev = 0;
        for cut in cuts() {
            for system in &mut systems {
                system.process(&trace[prev..cut]);
            }
            prev = cut;
            let image = systems[0].checkpoint().unwrap();
            for (system, shards) in systems.iter().zip([1, 2, 4]).skip(1) {
                assert_eq!(
                    system.checkpoint().unwrap(),
                    image,
                    "{spec} x{shards} cut {cut}: image differs from 1 shard"
                );
                assert_eq!(
                    system.footprint(),
                    systems[0].footprint(),
                    "{spec} x{shards} cut {cut}: footprint differs from 1 shard"
                );
            }
        }
    }
}

#[test]
fn images_restore_across_shard_counts() {
    // Shard count is an execution-strategy knob, not state (`DESIGN.md
    // §7`): an image taken from a 1-shard run must restore into a
    // 4-shard system (and vice versa) and still finish bit-identically.
    let trace = trace();
    let spec = SchemeSpec::Drcat {
        counters: 64,
        levels: 11,
        threshold: 512,
    };
    let cut = 4_500;
    let mut narrow = fresh_system(spec, 1);
    narrow.process(&trace[..cut]);
    let image = narrow.checkpoint().unwrap();

    let mut wide = fresh_system(spec, 4);
    wide.restore(&image).unwrap();
    narrow.process(&trace[cut..]);
    wide.process(&trace[cut..]);
    // Stats only: scratch high-water marks (and so `accounting_bytes`)
    // legitimately depend on the execution strategy, so footprint
    // equality holds within a shard count, not across them.
    assert_eq!(wide.stats(), narrow.stats());
    assert_eq!(wide.accesses(), narrow.accesses());
    assert_eq!(wide.epochs(), narrow.epochs());
}
