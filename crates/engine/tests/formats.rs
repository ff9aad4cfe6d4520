//! Byte-exact golden test of every persisted and shipped format: the
//! `CATW` wire (hellos, control frames, a records frame, the stats
//! snapshot), the `CATC` checkpoint image and the `CATL` trace log
//! (`DESIGN.md §8`, `§11`). Every byte these formats write is pinned
//! field by field, or as length + FNV-1a for the checkpoint images, whose
//! scheme-state bodies are too long to spell out.

use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::time::Duration;

use cat_core::{SchemeSpec, SchemeStats};
use cat_engine::checkpoint::{resume_from_dir, CheckpointConfig, CHECKPOINT_FILE, TRACE_LOG_FILE};
use cat_engine::ingest::{serve, ServeOptions};
use cat_engine::wire::{self, Frame, ServerHello, StatsSnapshot};
use cat_engine::{MemGeometry, MemorySystem};

const GEOMETRY: MemGeometry = MemGeometry {
    channels: 2,
    ranks_per_channel: 1,
    banks_per_rank: 8,
    rows_per_bank: 4096,
    lines_per_row: 16,
    line_bytes: 64,
};

/// The encoded [`GEOMETRY`].
const GEOMETRY_HEX: &str = "02000000 01000000 08000000 00100000 10000000 40000000";

const SPEC: SchemeSpec = SchemeSpec::Drcat {
    counters: 64,
    levels: 11,
    threshold: 512,
};

/// Asserts that `bytes` are the hex string `spaced` (whitespace between
/// fields is ignored).
fn assert_hex(bytes: &[u8], spaced: &str) {
    let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
    assert_eq!(hex, spaced.split_whitespace().collect::<String>());
}

/// FNV-1a 64 — pins the long checkpoint images as length + hash.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("catree-formats-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn hello_bytes() {
    let mut buf = Vec::new();
    wire::write_client_hello(&mut buf, 7).unwrap();
    assert_hex(&buf, "43415457 0300 07000000");

    let hello = ServerHello {
        geometry: GEOMETRY,
        slice_start: 8,
        slice_banks: 8,
        spec: "drcat:64:11:2048".into(),
        epoch_len: Some(50_000),
        accesses: 110_000,
        epochs: 2,
    };
    let mut buf = Vec::new();
    wire::write_server_hello(&mut buf, &hello).unwrap();
    assert_hex(
        &buf,
        &format!(
            "43415457 0300 {GEOMETRY_HEX} 08000000 08000000
             1000 64726361743a36343a31313a32303438
             50c3000000000000 b0ad010000000000 0200000000000000"
        ),
    );
    assert_eq!(wire::read_server_hello(&mut buf.as_slice()).unwrap(), hello);
}

#[test]
fn frame_bytes() {
    for (frame, expected) in [
        (Frame::StatsRequest, "02"),
        (Frame::Finish, "03"),
        (Frame::EpochCut { seq: 17 }, "06 1100000000000000"),
    ] {
        let mut buf = Vec::new();
        wire::write_frame(&mut buf, &frame).unwrap();
        assert_hex(&buf, expected);
    }
    let mut buf = vec![0xAA; 5];
    wire::encode_records(&mut buf, 9, &[(3, 77), (15, 4095), (0, 0x0102_0304)]).unwrap();
    assert_hex(
        &buf,
        "01 0900000000000000 03000000 03000000 4d000000 0f000000 ff0f0000 00000000 04030201",
    );
}

#[test]
fn stats_snapshot_bytes() {
    assert_eq!(SchemeStats::FIELDS.len(), 12);
    let mut stats = SchemeStats::default();
    for (i, field) in SchemeStats::FIELDS.iter().enumerate() {
        (field.set)(&mut stats, 0x100 + i as u64);
    }
    let snap = StatsSnapshot {
        accesses: 1 << 40,
        epochs: 77,
        stats,
        banks: 16,
        materialized_banks: 13,
        scheme_bytes: 1 << 20,
    };
    let mut buf = Vec::new();
    wire::write_stats(&mut buf, &snap).unwrap();
    let words = [1 << 40, 77]
        .into_iter()
        .chain(0x100..0x10c)
        .chain([16, 13, 1 << 20]);
    let expected: Vec<u8> = words.flat_map(u64::to_le_bytes).collect();
    assert_eq!(buf, expected);
}

/// A 2-engine (one per channel) DRCAT system checkpointed at the epoch
/// cut after 2 000 accesses.
#[test]
fn system_checkpoint_bytes() {
    let mut system = MemorySystem::new(GEOMETRY, SPEC).with_epoch_length(1000);
    let row = |i: u32| {
        if i.is_multiple_of(3) {
            77
        } else {
            i.wrapping_mul(2_654_435_761) % 4096
        }
    };
    let trace: Vec<(u32, u32)> = (0..2000).map(|i| (i % 16, row(i))).collect();
    system.process(&trace);
    let image = system.checkpoint().unwrap();
    // Magic, version 5, system scope, then the geometry.
    assert_hex(&image[..31], &format!("43415443 0500 02 {GEOMETRY_HEX}"));
    assert_eq!((image.len(), fnv1a(&image)), (27768, 0xc455_2a52_2d5e_bf70));
}

/// Polls until `path` holds exactly `len` bytes (the drain appends and
/// syncs each log word before it applies it).
fn wait_for_len(path: &Path, len: u64) -> Vec<u8> {
    for _ in 0..2000 {
        if std::fs::metadata(path).map(|m| m.len()).unwrap_or(0) == len {
            return std::fs::read(path).unwrap();
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!("{} never reached {len} bytes", path.display());
}

/// A `catd` session with a checkpoint directory on a clockless system:
/// one record, then a wire-delivered epoch cut that is not a checkpoint
/// cut (`every_epochs = 2`), so the log holds its header, the record and
/// one cut marker. Session end is a cut, so the final checkpoint then
/// rotates the log. Both log states, the final image, and recovery from
/// each are pinned.
#[test]
fn trace_log_bytes_through_serve() {
    let dir = scratch_dir("serve");
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let mut system = MemorySystem::new(GEOMETRY, SPEC);
    let options = ServeOptions {
        checkpoint: Some(CheckpointConfig {
            dir: dir.clone(),
            every_epochs: 2,
        }),
        ..ServeOptions::default()
    };
    let log_path = dir.join(TRACE_LOG_FILE);
    let mid_session_log = std::thread::scope(|scope| {
        let server = scope.spawn(|| serve(&listener, &mut system, &options));
        let mut stream = TcpStream::connect(addr).unwrap();
        wire::write_client_hello(&mut stream, 0).unwrap();
        wire::read_server_hello(&mut stream).unwrap();
        let mut frame = Vec::new();
        wire::encode_records(&mut frame, 0, &[(3, 77)]).unwrap();
        stream.write_all(&frame).unwrap();
        wire::write_frame(&mut stream, &Frame::EpochCut { seq: 1 }).unwrap();
        let log = wait_for_len(&log_path, 22 + 8 + 8);
        wire::write_frame(&mut stream, &Frame::Finish).unwrap();
        let report = server.join().unwrap().unwrap();
        assert_eq!((report.snapshot.accesses, report.snapshot.epochs), (1, 1));
        log
    });
    assert_hex(
        &mid_session_log,
        "4341544c 0200 0000000000000000 0000000000000000 03000000 4d000000 ffffffff 00000000",
    );
    let rotated = std::fs::read(&log_path).unwrap();
    assert_hex(&rotated, "4341544c 0200 0100000000000000 0100000000000000");
    let image = std::fs::read(dir.join(CHECKPOINT_FILE)).unwrap();
    assert_eq!(&image[..7], b"CATC\x05\x00\x02");
    assert_eq!((image.len(), fnv1a(&image)), (2088, 0xa47d_a553_b240_1d13));

    // Recovery from the final image, and from the mid-session log alone
    // (a crash before the final image), which replays the record and the
    // cut marker.
    let crashed = scratch_dir("crashed");
    std::fs::write(crashed.join(TRACE_LOG_FILE), &mid_session_log).unwrap();
    for (from, from_image, replayed) in [(&dir, true, 0), (&crashed, false, 1)] {
        let mut resumed = MemorySystem::new(GEOMETRY, SPEC);
        let state = resume_from_dir(&mut resumed, from).unwrap();
        let position = (
            state.accesses,
            state.epochs,
            state.from_checkpoint,
            state.replayed,
        );
        assert_eq!(position, (1, 1, from_image, replayed), "{}", from.display());
        assert_eq!(resumed.stats(), system.stats());
    }
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&crashed).unwrap();
}
