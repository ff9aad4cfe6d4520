//! Isolated layer replays for the traced run. Each layer is measured from
//! outside, by timing calls into its public functions on the workload's
//! own records; `pool` and `sparse` are private to the engine, so they
//! are measured through `MemorySystem` (`system.*`).

use std::hint::black_box;
use std::io::Cursor;

use catree::engine::ingest::{deal, IngestQueue};
use catree::engine::wire::{self, FrameHeader, StatsSnapshot};
use catree::MemorySystem;

use crate::spans::{Tracer, NO_SESSION};
use crate::workload::{snapshot_of, Workload, CHUNK};

/// Records per `MemorySystem::process` call: the server drain's flush size.
pub const FLUSH_RECORDS: usize = MemorySystem::DEFAULT_STREAM_CAPACITY;

/// What the layer replays measured; `*_ns` fields are ns per record.
pub struct LayerCosts {
    pub encode_ns: f64,
    pub decode_ns: f64,
    pub bytes_per_rec: f64,
    pub lane_write_ns: f64,
    pub merge_ns: f64,
    pub flush_ns: f64,
    pub flush_flat_ns: f64,
    pub resident_bytes: f64,
    pub accounting_bytes: f64,
    pub materialized_banks: f64,
    pub encode_ms: f64,
    pub image_bytes: f64,
    pub restore_ms: f64,
}

/// Runs every layer replay under one `layers` span.
pub fn measure(
    workload: &Workload,
    trace: &[(u32, u32)],
    expected: &StatsSnapshot,
    tracer: &mut Tracer,
) -> Result<LayerCosts, String> {
    let n = trace.len() as f64;
    let root_start = tracer.start();
    let mut spans: Vec<(&'static str, u64, u64)> = Vec::new();

    // wire: encode every 4096-record frame into one reused buffer, then
    // decode the concatenated stream from memory as a reader thread does.
    let mut frame = Vec::new();
    let start = tracer.start();
    for (seq, chunk) in trace.chunks(CHUNK).enumerate() {
        wire::encode_records(&mut frame, seq as u64, chunk).map_err(|e| e.to_string())?;
        black_box(&frame);
    }
    spans.push(("wire.encode", start, tracer.start()));
    let mut stream = Vec::with_capacity(trace.len() * wire::RECORD_BYTES + trace.len() / 256 + 64);
    for (seq, chunk) in trace.chunks(CHUNK).enumerate() {
        wire::encode_records(&mut frame, seq as u64, chunk).map_err(|e| e.to_string())?;
        stream.extend_from_slice(&frame);
    }
    let bytes_per_rec = stream.len() as f64 / n;
    let (mut buf, mut packed) = (Vec::new(), Vec::new());
    let mut cursor = Cursor::new(&stream[..]);
    let (mut decoded, mut sum) = (0usize, 0u64);
    let start = tracer.start();
    while (cursor.position() as usize) < stream.len() {
        match wire::read_frame_header(&mut cursor).map_err(|e| e.to_string())? {
            FrameHeader::Records { count, .. } => {
                wire::read_packed_records(&mut cursor, &mut buf, &mut packed, count as usize)
                    .map_err(|e| e.to_string())?;
                decoded += packed.len();
                sum = packed.iter().fold(sum, |s, &p| s.wrapping_add(p));
            }
            other => return Err(format!("decoded an unexpected {other:?} frame")),
        }
    }
    spans.push(("wire.decode", start, tracer.start()));
    let expected_sum = trace
        .iter()
        .fold(0u64, |s, &(b, r)| s.wrapping_add(wire::pack_record(b, r)));
    if decoded != trace.len() || sum != expected_sum {
        return Err("wire decode does not reproduce the encoded records".into());
    }

    // ingest: the SPSC lanes and the (seq, producer) merge at the
    // workload's producer count, on one thread and without a socket, so
    // lane writes and the merge are timed apart. Each round fills every
    // lane to the serve default capacity, then drains it.
    let capacity = 1 << 16;
    let per_round = capacity / CHUNK * workload.producers;
    let (mut producers, mut consumer) = IngestQueue::bounded(workload.producers, capacity);
    let lanes = deal(trace, workload.producers, CHUNK);
    let mut merged: Vec<(u32, u32)> = Vec::with_capacity(trace.len());
    let chunks = trace.len().div_ceil(CHUNK);
    for round in (0..chunks).step_by(per_round) {
        let start = tracer.start();
        for k in round..(round + per_round).min(chunks) {
            let (p, seq) = (k % workload.producers, k / workload.producers);
            producers[p]
                .send(lanes[p][seq])
                .map_err(|e| e.to_string())?;
        }
        let mid = tracer.start();
        let want = (trace.len()).min((round + per_round) * CHUNK);
        while merged.len() < want {
            if !consumer.next_batch_into(&mut merged) {
                return Err("ingest queue closed early".into());
            }
        }
        spans.push(("ingest.lane_write", start, mid));
        spans.push(("ingest.merge", mid, tracer.start()));
    }
    drop(producers);
    if consumer.next_batch_into(&mut merged) || merged != trace {
        return Err("ingest merge does not reproduce the dealt records".into());
    }

    // system: the drain's flush-sized process calls at the workload's
    // shard count, then at one shard for the same-run ratio.
    let flush = |shards: usize, name: &'static str, spans: &mut Vec<_>| {
        let mut system = workload.system(shards);
        let start = tracer.start();
        for batch in trace.chunks(FLUSH_RECORDS) {
            black_box(system.process(batch));
        }
        spans.push((name, start, tracer.start()));
        if snapshot_of(&system) != *expected {
            return Err(format!(
                "{name} at {shards} shard(s) differs from the reference"
            ));
        }
        Ok(system.footprint())
    };
    let footprint = flush(workload.shards, "system.flush", &mut spans)?;
    flush(1, "system.flush_flat", &mut spans)?;

    // checkpoint: encode the state at the last epoch cut (images are only
    // taken at cuts), restore it into a fresh system.
    let cut = trace.len() - trace.len() % workload.epoch as usize;
    let mut at_cut = workload.system(1);
    at_cut.process(&trace[..cut]);
    let start = tracer.start();
    let image = at_cut.checkpoint().map_err(|e| e.to_string())?;
    spans.push(("checkpoint.encode", start, tracer.start()));
    let mut restored = workload.system(1);
    let start = tracer.start();
    restored.restore(&image).map_err(|e| e.to_string())?;
    spans.push(("checkpoint.restore", start, tracer.start()));
    if snapshot_of(&restored) != snapshot_of(&at_cut) {
        return Err("checkpoint restore differs from the reference".into());
    }

    tracer.tree("layers", NO_SESSION, (root_start, tracer.start()), spans);
    let per_rec = |name| tracer.total_ns(name) as f64 / n;
    Ok(LayerCosts {
        encode_ns: per_rec("wire.encode"),
        decode_ns: per_rec("wire.decode"),
        bytes_per_rec,
        lane_write_ns: per_rec("ingest.lane_write"),
        merge_ns: per_rec("ingest.merge"),
        flush_ns: per_rec("system.flush"),
        flush_flat_ns: per_rec("system.flush_flat"),
        resident_bytes: footprint.resident_bytes() as f64,
        accounting_bytes: footprint.accounting_bytes as f64,
        materialized_banks: footprint.materialized_banks as f64,
        encode_ms: tracer.total_ns("checkpoint.encode") as f64 / 1e6,
        image_bytes: image.len() as f64,
        restore_ms: tracer.total_ns("checkpoint.restore") as f64 / 1e6,
    })
}
