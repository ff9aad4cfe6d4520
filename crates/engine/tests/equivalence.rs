//! Differential test: for every `SchemeSpec` variant the batched engine
//! and the `MemorySystem` routing — per channel or per partition slice,
//! on the calling thread or on worker threads, batched or streaming —
//! must all produce exactly the same `SchemeStats` as the old sequential
//! boxed-dyn per-access loop, invariant under 1/2/4/8 shard threads,
//! arbitrary batch boundaries, streaming staging capacities, and epoch
//! lengths smaller than the batch (the cut-aware path's hard case). PRA is
//! included — per-bank PRNG seeding (with the engines' bank bases) makes
//! every engine split and shard count deterministic. The invariants being
//! exercised are spelled out in `DESIGN.md §7`.

use cat_core::{MitigationScheme, RowId, SchemeInstance, SchemeSpec, SchemeStats};
use cat_engine::{BankEngine, BatchOutcome, GeometrySlice, MemGeometry, MemorySystem, Partition};

const BANKS: u32 = 16;
const ROWS: u32 = 8192;
const EPOCH: u64 = 25_000;

/// The 16 banks arranged as the 2-channel geometry the `MemorySystem`
/// differential routes over (global bank order is channel-major, so flat
/// engine bank `b` is channel `b / 8`, local bank `b % 8`).
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

/// The 16 banks as `slices` equal engines replayed on `shards` threads —
/// the routed path at a finer engine split than one per channel, so every
/// shard count up to `slices` gets groups of its own.
fn sliced(spec: SchemeSpec, slices: u32, shards: usize) -> MemorySystem {
    let partition = Partition::uniform(geometry(), slices).expect("uniform split of 16 banks");
    MemorySystem::partitioned(&partition, spec).with_shards(shards)
}

/// Deterministic trace mixing a few hammered rows with a spread background,
/// across all banks (splitmix-style mixing, no RNG dependency).
fn trace(n: u64) -> Vec<(u32, u32)> {
    (0..n)
        .map(|i| {
            let mut z = i
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(0x6a09_e667);
            z ^= z >> 27;
            z = z.wrapping_mul(0x94d0_49bb_1331_11eb);
            let bank = (z % u64::from(BANKS)) as u32;
            let row = if !i.is_multiple_of(4) {
                // Hot rows, distinct per bank, hammered 75% of the time.
                1000 + bank
            } else {
                ((z >> 32) % u64::from(ROWS)) as u32
            };
            (bank, row)
        })
        .collect()
}

/// The loop every consumer used to hand-roll before `cat-engine` existed:
/// boxed trait objects, per-access virtual dispatch, modulo epoch rollover.
fn old_loop_with_epoch(
    spec: SchemeSpec,
    trace: &[(u32, u32)],
    epoch: u64,
) -> (SchemeStats, Vec<SchemeStats>) {
    let mut schemes: Vec<Option<Box<dyn MitigationScheme + Send>>> =
        (0..BANKS).map(|b| spec.build(ROWS, b)).collect();
    let mut accesses = 0u64;
    for &(bank, row) in trace {
        if let Some(s) = &mut schemes[bank as usize] {
            s.on_activation(RowId(row));
        }
        accesses += 1;
        if accesses.is_multiple_of(epoch) {
            for s in schemes.iter_mut().flatten() {
                s.on_epoch_end();
            }
        }
    }
    let mut total = SchemeStats::default();
    let mut per_bank = Vec::new();
    for s in schemes.iter().flatten() {
        per_bank.push(*s.stats());
        total.merge(s.stats());
    }
    (total, per_bank)
}

fn old_sequential_loop(spec: SchemeSpec, trace: &[(u32, u32)]) -> (SchemeStats, Vec<SchemeStats>) {
    old_loop_with_epoch(spec, trace, EPOCH)
}

fn all_specs() -> Vec<SchemeSpec> {
    vec![
        SchemeSpec::None,
        SchemeSpec::pra(0.002),
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
            entries: 256,
            ways: 4,
            threshold: 512,
        },
        SchemeSpec::SpaceSaving {
            counters: 64,
            threshold: 512,
        },
    ]
}

#[test]
fn engine_matches_old_loop_for_every_spec_and_shard_count() {
    let trace = trace(150_000);
    for spec in all_specs() {
        let (old_total, old_per_bank) = old_sequential_loop(spec, &trace);

        // Batched, unsharded.
        let mut engine = BankEngine::new(spec, BANKS, ROWS).with_epoch_length(EPOCH);
        engine.process(&trace);
        assert_eq!(engine.stats(), old_total, "{spec}: batched != old loop");
        assert_eq!(
            engine.per_bank_stats(),
            old_per_bank,
            "{spec}: per-bank mismatch"
        );
        assert_eq!(engine.epochs(), 150_000 / EPOCH);

        // Eight 2-bank engines on 1/2/4/8 threads.
        for shards in [1usize, 2, 4, 8] {
            let mut sharded = sliced(spec, 8, shards).with_epoch_length(EPOCH);
            sharded.process(&trace);
            assert_eq!(
                sharded.stats(),
                old_total,
                "{spec}: {shards}-shard stats != old loop"
            );
            assert_eq!(
                sharded.per_bank_stats(),
                old_per_bank,
                "{spec}: {shards}-shard per-bank mismatch"
            );
            assert_eq!(
                sharded.activations_per_bank(),
                engine.activations_per_bank()
            );
            assert_eq!(sharded.epochs(), engine.epochs());
        }

        // The comparison must not be vacuous: every real scheme fires.
        if spec != SchemeSpec::None {
            assert!(
                old_total.refresh_events > 0,
                "{spec}: trace too tame, no refreshes to compare"
            );
        }
    }
}

#[test]
fn memory_system_matches_old_loop_for_every_spec_and_shard_count() {
    // The per-channel routing front-end, on the calling thread and on
    // workers, must be bit-identical to the flat sequential engine (and so
    // to the old loop) — including across batch boundaries that straddle
    // epochs.
    let trace = trace(150_000);
    for spec in all_specs() {
        let (old_total, old_per_bank) = old_sequential_loop(spec, &trace);
        let mut flat = BankEngine::new(spec, BANKS, ROWS).with_epoch_length(EPOCH);
        flat.process(&trace);

        for shards in [1usize, 2, 4, 8] {
            let mut system = MemorySystem::new(geometry(), spec)
                .with_epoch_length(EPOCH)
                .with_shards(shards);
            for chunk in trace.chunks(13_337) {
                system.process(chunk);
            }
            assert_eq!(
                system.stats(),
                old_total,
                "{spec}: {shards}-shard system stats != old loop"
            );
            assert_eq!(
                system.per_bank_stats(),
                old_per_bank,
                "{spec}: {shards}-shard system per-bank mismatch"
            );
            assert_eq!(
                system.activations_per_bank(),
                flat.activations_per_bank(),
                "{spec}: {shards}-shard activations mismatch"
            );
            assert_eq!(system.epochs(), flat.epochs());
            assert_eq!(system.accesses(), 150_000);
        }
    }
}

#[test]
fn streaming_push_matches_old_loop_for_every_spec() {
    // The streaming front-end (push_decoded + automatic capacity flushes +
    // one final flush) must be bit-identical to the flat path for every
    // scheme, for staging capacities below, at, and above the epoch length
    // — including capacities that leave epoch boundaries mid-buffer.
    let trace = trace(120_000);
    for spec in all_specs() {
        let (old_total, old_per_bank) = old_loop_with_epoch(spec, &trace, EPOCH);
        for (capacity, shards) in [(257usize, 1usize), (8_192, 1), (8_192, 4), (60_000, 2)] {
            let mut system = MemorySystem::new(geometry(), spec)
                .with_epoch_length(EPOCH)
                .with_shards(shards)
                .with_stream_capacity(capacity);
            for &(bank, row) in &trace {
                system.push_decoded(bank, row);
            }
            let out = system.flush();
            assert_eq!(
                out.accesses,
                trace.len() as u64,
                "{spec}: stream cap {capacity} lost accesses"
            );
            assert_eq!(
                system.stats(),
                old_total,
                "{spec}: cap {capacity} × {shards} shards streamed stats != old loop"
            );
            assert_eq!(
                system.per_bank_stats(),
                old_per_bank,
                "{spec}: cap {capacity} × {shards} shards streamed per-bank mismatch"
            );
            assert_eq!(system.epochs(), trace.len() as u64 / EPOCH);
            assert_eq!(out.epochs, system.epochs());
        }
    }
}

#[test]
fn small_epochs_match_old_loop_for_every_spec_and_path() {
    // Epoch lengths far below the batch (and chunk) size: the cut-aware
    // batch path must fire hundreds of boundaries inside a single bank
    // engine call — including segments in which a whole channel sees no
    // access — and stay bit-identical on the flat path and the routed
    // path at every engine split and shard count.
    let trace = trace(60_000);
    for epoch in [61u64, 997] {
        for spec in all_specs() {
            let (old_total, old_per_bank) = old_loop_with_epoch(spec, &trace, epoch);

            let mut flat = BankEngine::new(spec, BANKS, ROWS).with_epoch_length(epoch);
            flat.process(&trace);
            assert_eq!(flat.stats(), old_total, "{spec}: flat != old loop @{epoch}");

            let mut sharded = sliced(spec, 4, 4).with_epoch_length(epoch);
            for chunk in trace.chunks(13_337) {
                sharded.process(chunk);
            }
            assert_eq!(
                sharded.stats(),
                old_total,
                "{spec}: sharded != old loop @{epoch}"
            );
            assert_eq!(sharded.per_bank_stats(), old_per_bank);

            for shards in [1usize, 2, 8] {
                let mut system = MemorySystem::new(geometry(), spec)
                    .with_epoch_length(epoch)
                    .with_shards(shards);
                for chunk in trace.chunks(13_337) {
                    system.process(chunk);
                }
                assert_eq!(
                    system.stats(),
                    old_total,
                    "{spec}: {shards}-shard system != old loop @{epoch}"
                );
                assert_eq!(
                    system.per_bank_stats(),
                    old_per_bank,
                    "{spec}: {shards}-shard system per-bank mismatch @{epoch}"
                );
                assert_eq!(system.epochs(), 60_000 / epoch);
            }
        }
    }
}

#[test]
fn external_cuts_match_internal_epoch_accounting() {
    // process_with_cuts — and a clockless sharded system told end_epoch at
    // the same places — with the cut positions with_epoch_length would
    // have computed must land on identical stats: the cut-list form is
    // the same epoch clock, just caller-owned.
    let spec = SchemeSpec::Drcat {
        counters: 64,
        levels: 11,
        threshold: 512,
    };
    let trace = trace(50_000);
    let epoch = 7_000u64;
    let mut internal = BankEngine::new(spec, BANKS, ROWS).with_epoch_length(epoch);
    internal.process(&trace);

    let cuts: Vec<usize> = (1..)
        .map(|k| (k * epoch) as usize)
        .take_while(|&c| c <= trace.len())
        .collect();
    let mut external = BankEngine::new(spec, BANKS, ROWS);
    let out = external.process_with_cuts(&trace, &cuts);
    assert_eq!(external.stats(), internal.stats());
    assert_eq!(external.per_bank_stats(), internal.per_bank_stats());
    assert_eq!(external.epochs(), internal.epochs());
    assert_eq!(out.epochs, cuts.len() as u64);

    let mut external_sharded = sliced(spec, 4, 4);
    let mut prev = 0;
    for &cut in &cuts {
        external_sharded.process(&trace[prev..cut]);
        external_sharded.end_epoch();
        prev = cut;
    }
    external_sharded.process(&trace[prev..]);
    assert_eq!(external_sharded.stats(), internal.stats());
    assert_eq!(external_sharded.per_bank_stats(), internal.per_bank_stats());
}

/// The old eager loop generalized over the bank count — the dense
/// reference for the sparse-storage differential below.
fn old_loop_over_banks(
    spec: SchemeSpec,
    trace: &[(u32, u32)],
    epoch: u64,
    banks: u32,
    rows: u32,
) -> (SchemeStats, Vec<SchemeStats>) {
    let mut schemes: Vec<Option<Box<dyn MitigationScheme + Send>>> =
        (0..banks).map(|b| spec.build(rows, b)).collect();
    let mut accesses = 0u64;
    for &(bank, row) in trace {
        if let Some(s) = &mut schemes[bank as usize] {
            s.on_activation(RowId(row));
        }
        accesses += 1;
        if accesses.is_multiple_of(epoch) {
            for s in schemes.iter_mut().flatten() {
                s.on_epoch_end();
            }
        }
    }
    let mut total = SchemeStats::default();
    let mut per_bank = Vec::new();
    for s in schemes.iter().flatten() {
        per_bank.push(*s.stats());
        total.merge(s.stats());
    }
    (total, per_bank)
}

#[test]
fn sparse_storage_matches_dense_reference_across_touch_patterns() {
    // The tentpole differential for the lazily-materialized bank storage:
    // whatever subset of banks a workload touches — a contiguous hot
    // range, a stride that leaves gaps, one single bank, or every bank —
    // the sparse engine must be bit-identical to the dense eagerly-built
    // reference on the flat path and on four 16-bank engines at 1/2/4
    // shards, and must have materialized exactly the touched banks, never
    // the cold ones.
    const SPARSE_BANKS: u32 = 64;
    let sparse_geometry = MemGeometry {
        channels: 1,
        ranks_per_channel: 1,
        banks_per_rank: SPARSE_BANKS,
        rows_per_bank: ROWS,
        lines_per_row: 16,
        line_bytes: 64,
    };
    let quarters = Partition::uniform(sparse_geometry, 4).expect("4 slices of 16 banks");
    const N: u64 = 60_000;
    let mix = |i: u64, bank: u32| {
        let mut z = i
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(0x6a09_e667);
        z ^= z >> 27;
        if !i.is_multiple_of(4) {
            1000 + bank
        } else {
            (z % u64::from(ROWS)) as u32
        }
    };
    let patterns: Vec<(&str, Vec<(u32, u32)>)> = vec![
        (
            "contiguous-hot",
            (0..N)
                .map(|i| {
                    let bank = (i % 4) as u32;
                    (bank, mix(i, bank))
                })
                .collect(),
        ),
        (
            "strided",
            (0..N)
                .map(|i| {
                    let bank = ((i % 8) * 8) as u32;
                    (bank, mix(i, bank))
                })
                .collect(),
        ),
        ("single-bank", (0..N).map(|i| (37, mix(i, 37))).collect()),
        (
            "all-banks",
            (0..N)
                .map(|i| {
                    let bank = (i % u64::from(SPARSE_BANKS)) as u32;
                    (bank, mix(i, bank))
                })
                .collect(),
        ),
    ];
    for (name, trace) in &patterns {
        let touched: std::collections::BTreeSet<u32> = trace.iter().map(|&(b, _)| b).collect();
        for spec in all_specs() {
            let (old_total, old_per_bank) =
                old_loop_over_banks(spec, trace, EPOCH, SPARSE_BANKS, ROWS);
            let mut flat = BankEngine::new(spec, SPARSE_BANKS, ROWS).with_epoch_length(EPOCH);
            flat.process(trace);
            assert_eq!(flat.stats(), old_total, "{spec} {name}: flat != dense");
            if spec != SchemeSpec::None {
                assert_eq!(
                    flat.per_bank_stats().len(),
                    SPARSE_BANKS as usize,
                    "{spec} {name}: cold banks must still report (zero) stats"
                );
                assert_eq!(
                    flat.per_bank_stats(),
                    old_per_bank,
                    "{spec} {name}: per-bank mismatch"
                );
                let fp = flat.footprint();
                assert_eq!(
                    fp.materialized_banks,
                    touched.len(),
                    "{spec} {name}: must materialize exactly the touched banks"
                );
                assert!(fp.scheme_bytes > 0, "{spec} {name}: footprint not wired");
            } else {
                assert_eq!(flat.footprint().materialized_banks, 0);
            }

            for shards in [1usize, 2, 4] {
                let mut sharded = MemorySystem::partitioned(&quarters, spec)
                    .with_epoch_length(EPOCH)
                    .with_shards(shards);
                sharded.process(trace);
                assert_eq!(
                    sharded.stats(),
                    old_total,
                    "{spec} {name}: {shards}-shard != dense"
                );
                assert_eq!(sharded.per_bank_stats(), flat.per_bank_stats());
                assert_eq!(sharded.activations_per_bank(), flat.activations_per_bank());
                if spec != SchemeSpec::None {
                    assert_eq!(
                        sharded.footprint().materialized_banks,
                        touched.len(),
                        "{spec} {name}: {shards}-shard replay over-materialized"
                    );
                }
            }
        }
    }
}

#[test]
fn cold_banks_never_materialize_at_big_geometry() {
    // Construction must be O(1) in the bank count and cold banks must
    // stay unbuilt: a 1Mi-bank engine touching 64 banks holds exactly 64
    // scheme instances, and its resident footprint is orders of magnitude
    // below the dense estimate.
    const BIG: u32 = 1 << 20;
    let spec = SchemeSpec::Drcat {
        counters: 64,
        levels: 11,
        threshold: 512,
    };
    let mut engine = BankEngine::new(spec, BIG, ROWS).with_epoch_length(1_000);
    let trace: Vec<(u32, u32)> = (0..10_000u64)
        .map(|i| ((i % 64 * 16_384) as u32, 1_000 + (i % 7) as u32))
        .collect();
    engine.process(&trace);
    let fp = engine.footprint();
    assert_eq!(fp.banks, BIG as usize);
    assert_eq!(fp.materialized_banks, 64);
    let per_instance = fp.scheme_bytes / 64;
    let dense_estimate = per_instance * BIG as usize;
    assert!(
        fp.resident_bytes() * 10 <= dense_estimate,
        "sparse {} vs dense estimate {}: under 10x win",
        fp.resident_bytes(),
        dense_estimate
    );
    // The same banks as a 4-channel system at 2 shards must stay lazy too
    // (engines materialize only on rows), and keep matching the flat run.
    let geometry = MemGeometry {
        channels: 4,
        ranks_per_channel: 1,
        banks_per_rank: BIG / 4,
        rows_per_bank: ROWS,
        lines_per_row: 16,
        line_bytes: 64,
    };
    let mut sharded = MemorySystem::new(geometry, spec)
        .with_epoch_length(1_000)
        .with_shards(2);
    sharded.process(&trace);
    assert_eq!(sharded.stats(), engine.stats());
    assert_eq!(sharded.footprint().banks, BIG as usize);
    assert_eq!(sharded.footprint().materialized_banks, 64);
}

#[test]
fn sharded_batches_compose_across_process_calls() {
    // Epoch state must carry across repeated sharded batches exactly as in
    // one big sequential run — and the persistent workers must keep
    // producing identical results when fed many small batches.
    let spec = SchemeSpec::Drcat {
        counters: 64,
        levels: 11,
        threshold: 512,
    };
    let trace = trace(90_000);
    let (old_total, _) = old_sequential_loop(spec, &trace);
    let mut system = sliced(spec, 4, 4).with_epoch_length(EPOCH);
    for chunk in trace.chunks(13_337) {
        system.process(chunk);
    }
    assert_eq!(system.stats(), old_total);
    assert_eq!(system.epochs(), 90_000 / EPOCH);
}

#[test]
fn batch_outcomes_sum_to_the_final_refresh_totals() {
    // A batch's refresh counts are summed over the banks it touched, not
    // read off every materialized bank. At the 1 Mi-bank geometry, at 1
    // and 2 shards, with epoch cuts inside batches and a first phase that
    // touches channel 0 only (the other engines sit idle, or see only
    // cuts), the summed outcomes must equal the final stats.
    const BIG: u32 = 1 << 20;
    let geometry = MemGeometry {
        channels: 4,
        ranks_per_channel: 1,
        banks_per_rank: BIG / 4,
        rows_per_bank: ROWS,
        lines_per_row: 16,
        line_bytes: 64,
    };
    // 8 hot banks per channel, every third access to a hashed row.
    let access = |i: u64, channels: u64| {
        let bank = (i % (8 * channels)) * (u64::from(BIG) / 4 / 8 + 97);
        let row = if i.is_multiple_of(3) {
            (i.wrapping_mul(2_654_435_761) % u64::from(ROWS)) as u32
        } else {
            1_000
        };
        ((bank % u64::from(BIG)) as u32, row)
    };
    let mut trace: Vec<(u32, u32)> = (0..40_000u64).map(|i| access(i, 1)).collect();
    trace.extend((0..60_000u64).map(|i| access(i, 4)));
    assert!(trace[..40_000].iter().all(|&(b, _)| b < BIG / 4));
    for spec in all_specs() {
        for shards in [1, 2] {
            let mut system = MemorySystem::new(geometry, spec)
                .with_epoch_length(12_000)
                .with_shards(shards);
            let mut sum = BatchOutcome::default();
            for chunk in trace.chunks(4_096) {
                sum.merge(&system.process(chunk));
            }
            let stats = system.stats();
            assert_eq!(
                (sum.accesses, sum.epochs),
                (trace.len() as u64, system.epochs()),
                "{spec:?} at {shards} shards"
            );
            assert_eq!(
                (sum.refresh_events, sum.refreshed_rows),
                (stats.refresh_events, stats.refreshed_rows),
                "{spec:?} at {shards} shards"
            );
            if spec != SchemeSpec::None {
                assert!(stats.refresh_events > 0, "{spec:?} must refresh");
            }
        }
    }
}

/// The grouped replay's reference: one `on_activation` per record in
/// stream order, banks built on first touch (sparse, so geometries of
/// millions of banks cost only what is touched), every cut firing
/// `on_epoch_end` on every built bank, and each batch's outcome read off
/// the stats around it.
struct PerRecord {
    spec: SchemeSpec,
    banks: std::collections::BTreeMap<u32, SchemeInstance>,
    activations: std::collections::BTreeMap<u32, u64>,
}

impl PerRecord {
    fn new(spec: SchemeSpec) -> Self {
        PerRecord {
            spec,
            banks: Default::default(),
            activations: Default::default(),
        }
    }

    fn refreshes(&self) -> (u64, u64) {
        self.banks.values().fold((0, 0), |(e, r), s| {
            (e + s.stats().refresh_events, r + s.stats().refreshed_rows)
        })
    }

    fn fire(&mut self) {
        for s in self.banks.values_mut() {
            s.on_epoch_end();
        }
    }

    /// Replays `batch` with `cuts` (positions as `process_with_cuts`
    /// takes them: nondecreasing, `0` and duplicates allowed).
    fn batch(&mut self, batch: &[(u32, u32)], cuts: &[usize]) -> BatchOutcome {
        let (events, rows) = self.refreshes();
        let mut next = 0;
        for (i, &(bank, row)) in batch.iter().enumerate() {
            while next < cuts.len() && cuts[next] == i {
                self.fire();
                next += 1;
            }
            *self.activations.entry(bank).or_default() += 1;
            if let Some(s) = self.spec.build_instance(ROWS, bank) {
                self.banks
                    .entry(bank)
                    .or_insert(s)
                    .on_activation(RowId(row));
            }
        }
        for _ in next..cuts.len() {
            self.fire();
        }
        let (events_after, rows_after) = self.refreshes();
        BatchOutcome {
            accesses: batch.len() as u64,
            refresh_events: events_after - events,
            refreshed_rows: rows_after - rows,
            epochs: cuts.len() as u64,
        }
    }

    /// Per-bank stats over `banks` banks, as the engines report them.
    fn per_bank_stats(&self, banks: u32) -> Vec<SchemeStats> {
        match self.spec {
            SchemeSpec::None => Vec::new(),
            _ => (0..banks)
                .map(|b| {
                    self.banks
                        .get(&b)
                        .map_or_else(SchemeStats::default, |s| *s.stats())
                })
                .collect(),
        }
    }

    /// Activations per bank over `banks` banks.
    fn activations(&self, banks: u32) -> Vec<u64> {
        (0..banks)
            .map(|b| self.activations.get(&b).copied().unwrap_or(0))
            .collect()
    }

    /// The `save_state` words of every built bank, in bank order.
    fn words(&self) -> Vec<Option<Vec<u64>>> {
        state_words(self.banks.values())
    }
}

fn state_words<'a>(schemes: impl Iterator<Item = &'a SchemeInstance>) -> Vec<Option<Vec<u64>>> {
    schemes
        .map(|s| {
            let mut words = Vec::new();
            s.save_state(&mut words).ok().map(|()| words)
        })
        .collect()
}

/// The epoch cuts a clocked batch of `len` records gets after `before`
/// records of the stream.
fn clock_cuts(before: u64, len: usize, epoch: u64) -> Vec<usize> {
    (1..=len)
        .filter(|&i| (before + i as u64).is_multiple_of(epoch))
        .collect()
}

#[test]
fn grouped_replay_matches_per_record_dispatch() {
    // The grouped replay (one radix grouping per segment, runs replayed
    // per bank, engines routed once per run range) must leave exactly
    // the state of one on_activation per record: full save_state words,
    // per-bank stats and every batch's outcome, on the flat engine with
    // caller cut lists and on a mixed-size partition at 1, 2 and 4 shards.
    let trace = trace(140_000);
    // Cut lists with 0, len and duplicates; a batch longer than one
    // grouping chunk (65 536 records) with cuts on and around its chunk
    // boundary; an empty batch whose cuts still fire.
    let flat_batches: Vec<(std::ops::Range<usize>, Vec<usize>)> = vec![
        (0..5_000, vec![0, 0, 1_200, 1_200, 5_000]),
        (5_000..5_000, vec![0, 0]),
        (5_000..9_000, vec![]),
        (9_000..13_000, vec![4_000]),
        (
            13_000..83_000,
            vec![0, 65_535, 65_536, 65_536, 65_537, 70_000],
        ),
        (83_000..140_000, vec![3, 57_000]),
    ];
    // Slices of 8, 4, 2, 1 and 1 banks: the uneven layout. At 2 shards
    // the groups meet at bank 12, at 4 shards at banks 8, 12 and 14.
    let mixed = Partition::from_slices(
        [(0, 8), (8, 4), (12, 2), (14, 1), (15, 1)]
            .into_iter()
            .map(|(start, banks)| GeometrySlice::new(geometry(), start, banks).unwrap())
            .collect(),
    )
    .unwrap();
    // A flush that touches only banks 11 and 12, interleaved, so its runs
    // straddle the 2-shard group boundary (and an engine boundary).
    let straddle: Vec<(u32, u32)> = (0..3_000u32)
        .map(|i| {
            (
                11 + i % 2,
                if i % 3 == 0 { 1_000 + i % 2 } else { i % ROWS },
            )
        })
        .collect();
    let epoch = EPOCH;
    for spec in all_specs() {
        let mut reference = PerRecord::new(spec);
        let mut flat = BankEngine::new(spec, BANKS, ROWS);
        for (range, cuts) in &flat_batches {
            let batch = &trace[range.clone()];
            assert_eq!(
                flat.process_with_cuts(batch, cuts),
                reference.batch(batch, cuts),
                "{spec}: flat outcome over {range:?} with cuts {cuts:?}"
            );
        }
        assert_eq!(
            flat.per_bank_stats(),
            reference.per_bank_stats(BANKS),
            "{spec}"
        );
        assert_eq!(flat.activations_per_bank(), reference.activations(BANKS));
        assert_eq!(state_words(flat.schemes()), reference.words(), "{spec}");

        let stream: Vec<(u32, u32)> = trace[..130_000]
            .iter()
            .chain(&straddle)
            .chain(&trace[130_000..140_000])
            .copied()
            .collect();
        // Batch sizes that end on, before and after an epoch boundary,
        // the straddling flush on its own, and one batch longer than a
        // grouping chunk.
        let mut sizes = vec![25_000, 1, 24_998, 1, 80_000, 3_000, 10_000];
        assert_eq!(sizes.iter().sum::<usize>(), stream.len());
        sizes.insert(0, 0);
        let mut reference = PerRecord::new(spec);
        let mut outcomes = Vec::new();
        let mut at = 0;
        for &n in &sizes[1..] {
            let batch = &stream[at..at + n];
            outcomes.push(reference.batch(batch, &clock_cuts(at as u64, n, epoch)));
            at += n;
        }
        for shards in [1usize, 2, 4] {
            let mut system = MemorySystem::partitioned(&mixed, spec)
                .with_epoch_length(epoch)
                .with_shards(shards);
            let mut at = 0;
            for (&n, want) in sizes[1..].iter().zip(&outcomes) {
                let got = system.process(&stream[at..at + n]);
                assert_eq!(got, *want, "{spec}: {shards} shards, batch at {at}");
                at += n;
            }
            assert_eq!(system.per_bank_stats(), reference.per_bank_stats(BANKS));
            assert_eq!(system.activations_per_bank(), reference.activations(BANKS));
            assert_eq!(
                state_words(system.schemes()),
                reference.words(),
                "{spec}: {shards}-shard state"
            );
        }
        if spec != SchemeSpec::None {
            let events: u64 = outcomes.iter().map(|o| o.refresh_events).sum();
            assert!(events > 0, "{spec}: nothing refreshed");
        }
    }
}

#[test]
fn multi_pass_grouping_matches_per_record_dispatch() {
    // Above 2048 banks the grouping sorts in more than one radix pass:
    // two passes for 4096 and 1 Mi banks, three for 8 Mi. Each must
    // still equal one on_activation per record — state words, total
    // stats and every outcome — flat with caller cut lists for every
    // spec, and for 1 Mi banks as a 4-channel DRCAT system at 1, 2 and 4
    // shards.
    // 32 hot banks spread over the whole bank range, so runs cross every
    // digit boundary. Each bank's hammered row moves every 30 000 records,
    // so a bank's state depends on the order of its rows, not only on
    // their counts.
    let spread = |banks: u32| -> Vec<(u32, u32)> {
        trace(90_000)
            .into_iter()
            .enumerate()
            .map(|(i, (_, row))| {
                let hot = (i as u64).wrapping_mul(0x9e37_79b9) % 32;
                let bank = (hot.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 20) % u64::from(banks);
                let phase = (i / 30_000) as u32;
                let row = if i % 4 == 0 {
                    row
                } else {
                    1_000 + hot as u32 + 64 * phase
                };
                (bank as u32, row)
            })
            .collect()
    };
    let cut_batches: [(std::ops::Range<usize>, Vec<usize>); 3] = [
        (0..20_000, vec![0, 7_000, 7_000, 20_000]),
        (20_000..90_000, vec![1, 65_536, 69_999]),
        (90_000..90_000, vec![0]),
    ];
    for banks in [1u32 << 12, 1 << 20, 1 << 23] {
        let trace = spread(banks);
        for spec in all_specs() {
            let mut reference = PerRecord::new(spec);
            let mut flat = BankEngine::new(spec, banks, ROWS);
            for (range, cuts) in &cut_batches {
                let batch = &trace[range.clone()];
                assert_eq!(
                    flat.process_with_cuts(batch, cuts),
                    reference.batch(batch, cuts),
                    "{spec}, {banks} banks: outcome over {range:?}"
                );
            }
            let words = state_words(flat.schemes());
            assert_eq!(words, reference.words(), "{spec}, {banks} banks");
            if spec != SchemeSpec::None {
                let events = flat.stats().refresh_events;
                assert!(events > 0, "{spec}, {banks} banks: nothing refreshed");
            }
        }
        if banks != 1 << 20 {
            continue;
        }
        let spec = SchemeSpec::Drcat {
            counters: 64,
            levels: 11,
            threshold: 512,
        };
        let geometry = MemGeometry {
            channels: 4,
            ranks_per_channel: 1,
            banks_per_rank: banks / 4,
            rows_per_bank: ROWS,
            lines_per_row: 16,
            line_bytes: 64,
        };
        for shards in [1usize, 2, 4] {
            let mut system = MemorySystem::new(geometry, spec)
                .with_epoch_length(EPOCH)
                .with_shards(shards);
            let mut reference = PerRecord::new(spec);
            for (at, chunk) in trace.chunks(8_192).enumerate() {
                let cuts = clock_cuts((at * 8_192) as u64, chunk.len(), EPOCH);
                assert_eq!(system.process(chunk), reference.batch(chunk, &cuts));
            }
            assert_eq!(
                state_words(system.schemes()),
                reference.words(),
                "{shards} shards"
            );
        }
    }
}
