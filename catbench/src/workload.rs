//! The benchmark's workloads: what each one serves, and the records it
//! sends, generated from the seed alone.

use catree::engine::wire::StatsSnapshot;
use catree::{AccessStream, AddressMapping, MemGeometry, MemorySystem, SchemeSpec, SystemConfig};

/// Records per `IngestClient::send` call.
pub const CHUNK: usize = 4096;

/// Where a workload's records come from.
#[derive(Clone, Copy, Debug)]
pub enum Source {
    /// The catalog `swapt` trace, decoded as `catd_loadgen` decodes it.
    Swapt,
    /// Bursty hammering over a sparse hot set of a 1 Mi-bank geometry.
    Hammer,
}

/// One named workload: the served configuration plus the trace recipe.
#[derive(Clone, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub source: Source,
    pub geometry: MemGeometry,
    pub spec: &'static str,
    pub epoch: u64,
    /// Records one session sends.
    pub records: usize,
    /// Client connections (= server producer lanes).
    pub producers: usize,
    pub shards: usize,
    /// Whether the server checkpoints every epoch and logs every batch.
    pub durable: bool,
}

/// 4 channels × 4 ranks × 65 536 banks = 1 Mi banks of 4096 rows.
const HAMMER_GEOMETRY: MemGeometry = MemGeometry {
    channels: 4,
    ranks_per_channel: 4,
    banks_per_rank: 65_536,
    rows_per_bank: 4096,
    lines_per_row: 16,
    line_bytes: 64,
};

/// Every `HOT_STRIDE`-th bank of the hammer geometry is hot.
const HOT_STRIDE: u32 = 97;
/// Consecutive accesses a hot bank receives before the next one is visited.
const BURST: usize = 64;

/// Every workload, in `BENCHMARK.json` order.
pub fn all() -> Vec<Workload> {
    let hammer = |name, records, producers, shards, durable| Workload {
        name,
        source: Source::Hammer,
        geometry: HAMMER_GEOMETRY,
        spec: "drcat:64:11:32",
        epoch: 1_000_000,
        records,
        producers,
        shards,
        durable,
    };
    vec![
        Workload {
            name: "swapt-2p",
            source: Source::Swapt,
            geometry: SystemConfig::dual_core_two_channel().geometry(),
            spec: "drcat:64:11:32768",
            epoch: 5_000_000,
            records: 10_000_000,
            producers: 2,
            shards: 1,
            durable: false,
        },
        hammer("hammer-1m-sharded", 2_000_000, 1, 2, false),
        // Ends half-way through the third epoch: recovery restores the
        // image taken at the second cut and replays a 500 000-record tail.
        hammer("hammer-1m-durable", 2_500_000, 1, 1, true),
    ]
}

/// The workload called `name`.
pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

impl Workload {
    pub fn spec(&self) -> SchemeSpec {
        self.spec.parse().expect("workload table holds valid specs")
    }

    /// A fresh system with this workload's served configuration.
    pub fn system(&self, shards: usize) -> MemorySystem {
        MemorySystem::new(self.geometry, self.spec())
            .with_epoch_length(self.epoch)
            .with_shards(shards)
    }

    /// The session's records, a pure function of `seed`.
    pub fn trace(&self, seed: u64) -> Result<Vec<(u32, u32)>, String> {
        match self.source {
            Source::Swapt => swapt_trace(self.records, seed),
            Source::Hammer => Ok(hammer_trace(&self.geometry, self.records, seed)),
        }
    }
}

fn swapt_trace(records: usize, seed: u64) -> Result<Vec<(u32, u32)>, String> {
    let cfg = SystemConfig::dual_core_two_channel();
    let spec = catree::workloads::by_name("swapt").ok_or("catalog has no swapt workload")?;
    // The single-core-equivalent stream `catd_loadgen` sends.
    let mut one = cfg.clone();
    one.cores = 1;
    let mapping = AddressMapping::new(&cfg);
    let trace: Vec<(u32, u32)> = AccessStream::new(&spec, &one, 0, 256, seed)
        .take(records)
        .map(|a| mapping.decode_bank_row(a.addr))
        .collect();
    if trace.len() != records {
        return Err(format!("swapt stream ended after {} records", trace.len()));
    }
    Ok(trace)
}

/// Every 97th bank is hot, starting at a seed-chosen offset; hot banks are
/// visited round-robin in bursts of 64 accesses. Three accesses in four go
/// to the trace's hammered row, the rest to hashed rows.
fn hammer_trace(geometry: &MemGeometry, records: usize, seed: u64) -> Vec<(u32, u32)> {
    let banks = geometry.channels * geometry.ranks_per_channel * geometry.banks_per_rank;
    let rows = u64::from(geometry.rows_per_bank);
    let mix = catree::prng::splitmix64;
    let offset = (mix(seed) % u64::from(HOT_STRIDE)) as u32;
    let hot: Vec<u32> = (offset..banks).step_by(HOT_STRIDE as usize).collect();
    let hammered = (mix(seed ^ 0x4a3d) % rows) as u32;
    (0..records)
        .map(|i| {
            let bank = hot[(i / BURST) % hot.len()];
            let row = if i % 4 == 0 {
                (mix(seed.wrapping_add(i as u64)) % rows) as u32
            } else {
                hammered
            };
            (bank, row)
        })
        .collect()
}

/// What a session must leave in the server: the snapshot of `system`.
pub fn snapshot_of(system: &MemorySystem) -> StatsSnapshot {
    let fp = system.footprint();
    StatsSnapshot {
        accesses: system.accesses(),
        epochs: system.epochs(),
        stats: system.stats(),
        banks: fp.banks as u64,
        materialized_banks: fp.materialized_banks as u64,
        scheme_bytes: fp.scheme_bytes as u64,
    }
}
