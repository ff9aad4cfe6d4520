//! The versioned binary wire format of the socket/queue ingestion
//! front-end (`DESIGN.md §8`).
//!
//! Everything here is hand-rolled little-endian framing over
//! `std::io::{Read, Write}` — the workspace builds offline, so there is no
//! serde, no protobuf, no async runtime. The format is deliberately dumb:
//! fixed-width integers, one-byte frame tags, length-prefixed payloads with
//! hard caps, and an explicit version number in the handshake so the format
//! can evolve without silently misparsing old peers. Messages go through
//! the byte codec shared with [`crate::checkpoint`]: encoded into a buffer
//! sent with one `write_all`, fixed-size parts read with one `read_exact`.
//!
//! ## Session layout
//!
//! ```text
//! client                                server (catd or router)
//!   │  ClientHello {magic, version,        │
//!   │    producer id}                      │
//!   ├──────────────────────────────────────►
//!   │  ServerHello {magic, version,        │
//!   │    geometry, slice, spec, epoch_len, │
//!   │    accesses, epochs}                 │
//!   ◄──────────────────────────────────────┤
//!   │  Records {seq, (bank,row)*}          │  any number, seq = 0,1,2,…
//!   │  Frame::EpochCut {seq} (clockless    │  interleaved with Records,
//!   │    servers only)                     │  in the same seq space
//!   ├──────────────────────────────────────►
//!   │  Frame::StatsRequest  (optional)     │
//!   ├──────────────────────────────────────►
//!   │  Frame::Finish                       │
//!   ├──────────────────────────────────────►
//!   │  StatsSnapshot (iff requested;       │
//!   │    sent after ALL producers finish)  │
//!   ◄──────────────────────────────────────┤
//! ```
//!
//! Each producer numbers its records frames ([`encode_records`])
//! consecutively from zero; the server verifies the sequence and feeds the
//! frames to the deterministic merge in [`crate::ingest`]. Malformed input
//! is reported as [`std::io::Error`] with
//! [`std::io::ErrorKind::InvalidData`] — a protocol violation and a
//! truncated stream are both connection-fatal.
//!
//! Version 2 added a checkpoint request (tag `0x04`) and an inline
//! restore image (tag `0x05`). Both are gone and refused as unknown tags:
//! a checkpointing server publishes images only at its due epoch cuts,
//! and recovery happens at startup via `--resume`, never on a live
//! system (`DESIGN.md §11`). The version stays 3, as no current peer
//! sends either tag.
//!
//! Version 3 adds the partitioned datapath (`DESIGN.md §12`): the
//! [`ServerHello`] advertises the bank slice the backend owns
//! (`slice_start`/`slice_banks`, so a router or client can refuse a
//! misrouted connection before streaming) and the served system's stream
//! position (`accesses`/`epochs` — nonzero for a `--resume`d backend, so
//! a router can phase its epoch clock and keep accounting exact across
//! a fleet member's kill-and-resume), [`Frame::EpochCut`] carries a
//! router's epoch clock to clockless backends in the producer's sequence
//! space, and the [`StatsSnapshot`] carries the state-footprint counters
//! so a fleet's merged snapshot can be checked bit-identically against a
//! single-host run.

use std::io::{self, Read, Write};

use cat_core::SchemeStats;

use crate::codec::{
    bad, put_geometry, put_header, put_str, put_u32, put_u64, read_array, ByteReader,
};
use crate::MemGeometry;

/// Protocol magic, first bytes of both hello messages ("CAT wire").
pub const MAGIC: [u8; 4] = *b"CATW";

/// Wire format version. Bump on any incompatible change; peers with a
/// different version refuse the handshake instead of misparsing frames.
/// Version 2 added a checkpoint request and an inline restore frame (both
/// since dropped); version 3 added the [`ServerHello`] slice fields,
/// [`Frame::EpochCut`], and the [`StatsSnapshot`] footprint counters.
pub const VERSION: u16 = 3;

/// Hard cap on records per records frame ([`encode_records`]) — bounds
/// the allocation a malformed (or malicious) length prefix can force on
/// the receiver.
pub const MAX_RECORDS_PER_FRAME: u32 = 1 << 20;

/// Hard cap on the spec string length in a [`ServerHello`].
pub const MAX_SPEC_LEN: u16 = 1024;

/// Bytes of one `(bank, row)` record on the wire. A record's 8 wire bytes
/// read as one little-endian `u64` **are** its [`pack_record`] value —
/// the invariant behind the server's zero-copy decode path, which turns
/// payload bytes into ring slots with a single `u64::from_le_bytes` each.
pub const RECORD_BYTES: usize = 8;

/// Packs a record into its 8-byte little-endian wire layout: `bank` in
/// the low 32 bits, `row` in the high 32 (i.e. `bank` then `row`, each
/// u32 LE, on the wire). This is also the slot format of the ingestion
/// rings in [`crate::ingest`].
#[inline]
#[must_use]
pub fn pack_record(bank: u32, row: u32) -> u64 {
    u64::from(bank) | (u64::from(row) << 32)
}

/// Inverse of [`pack_record`].
#[inline]
#[must_use]
pub fn unpack_record(packed: u64) -> (u32, u32) {
    (packed as u32, (packed >> 32) as u32)
}

/// Writes the client's opening handshake: magic + version + the
/// **producer id** this connection claims (its tie-break rank in the
/// deterministic merge, `DESIGN.md §8`). The id is chosen by the client —
/// the side that dealt the trace — because TCP accept order is racy: lane
/// assignment must follow the deal, not connection timing. A session's
/// ids must form a permutation of `0..producers`; the server rejects
/// duplicates and out-of-range claims.
pub fn write_client_hello<W: Write>(w: &mut W, producer_id: u32) -> io::Result<()> {
    let mut buf = Vec::with_capacity(10);
    put_header(&mut buf, MAGIC, VERSION);
    put_u32(&mut buf, producer_id);
    w.write_all(&buf)
}

/// Reads and validates a client hello, returning the claimed producer id.
///
/// # Errors
///
/// [`io::ErrorKind::InvalidData`] on a magic or version mismatch; I/O
/// errors pass through.
pub fn read_client_hello<R: Read>(r: &mut R) -> io::Result<u32> {
    // Magic + version first: a peer speaking another version is refused
    // before its body is read.
    ByteReader::new(&read_array::<6, _>(r)?).header(MAGIC, VERSION, "client hello")?;
    let id: [u8; 4] = read_array(r)?;
    ByteReader::new(&id).u32("producer id")
}

/// The server's half of the handshake: what the [`crate::MemorySystem`]
/// behind the socket is configured as, so clients can verify they generate
/// traffic for the right machine (and reconstruct a local reference run).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServerHello {
    /// The served system's DRAM geometry — always the **full** union
    /// geometry, even when this backend owns only a slice of it.
    pub geometry: MemGeometry,
    /// First global bank this backend owns ([`crate::GeometrySlice`]).
    /// `0` with `slice_banks == geometry.total_banks()` is the
    /// unpartitioned single-host case.
    pub slice_start: u32,
    /// Global banks this backend owns, starting at `slice_start`.
    pub slice_banks: u32,
    /// The scheme spec in its canonical string form (`sca:64:32768`, …).
    pub spec: String,
    /// Accesses per epoch; `None` when the server fires no automatic
    /// epoch boundaries.
    pub epoch_len: Option<u64>,
    /// Accesses already inside the served system when the session opened —
    /// `0` for a fresh system, the recovered position for a `--resume`d
    /// backend. A fleet router reads this to phase its epoch clock and to
    /// do exact end-of-session accounting across resumed backends.
    pub accesses: u64,
    /// Epoch boundaries already processed when the session opened (the
    /// counterpart of `accesses` for the epoch counter).
    pub epochs: u64,
}

/// Writes the server's handshake reply.
///
/// # Errors
///
/// [`io::ErrorKind::InvalidData`] if the spec string exceeds
/// [`MAX_SPEC_LEN`]; I/O errors pass through.
pub fn write_server_hello<W: Write>(w: &mut W, hello: &ServerHello) -> io::Result<()> {
    let mut buf = Vec::new();
    put_header(&mut buf, MAGIC, VERSION);
    put_geometry(&mut buf, &hello.geometry);
    put_u32(&mut buf, hello.slice_start);
    put_u32(&mut buf, hello.slice_banks);
    put_str(&mut buf, &hello.spec, MAX_SPEC_LEN, "spec string")?;
    put_u64(&mut buf, hello.epoch_len.unwrap_or(0));
    put_u64(&mut buf, hello.accesses);
    put_u64(&mut buf, hello.epochs);
    w.write_all(&buf)
}

/// Reads and validates a server hello (an epoch length of `0` decodes as
/// `None` — no automatic epoch accounting).
///
/// # Errors
///
/// [`io::ErrorKind::InvalidData`] on magic/version mismatch or an
/// oversized or non-UTF-8 spec string; I/O errors pass through.
pub fn read_server_hello<R: Read>(r: &mut R) -> io::Result<ServerHello> {
    ByteReader::new(&read_array::<6, _>(r)?).header(MAGIC, VERSION, "server hello")?;
    // Geometry, slice and spec length; the spec length sizes the rest.
    let fixed: [u8; 6 * 4 + 4 + 4 + 2] = read_array(r)?;
    let mut head = ByteReader::new(&fixed);
    let geometry = head.geometry()?;
    let slice_start = head.u32("slice start")?;
    let slice_banks = head.u32("slice banks")?;
    let spec_len = head.str_len(MAX_SPEC_LEN, "spec string")?;
    let mut rest = vec![0u8; spec_len + 3 * 8];
    r.read_exact(&mut rest)?;
    let mut tail = ByteReader::new(&rest);
    let spec = tail.str_body(spec_len, "spec string")?.to_owned();
    let epoch_len = match tail.u64("epoch length")? {
        0 => None,
        n => Some(n),
    };
    Ok(ServerHello {
        geometry,
        slice_start,
        slice_banks,
        spec,
        epoch_len,
        accesses: tail.u64("accesses")?,
        epochs: tail.u64("epochs")?,
    })
}

/// One payload-free client → server control frame after the handshake.
/// Record batches go out through [`encode_records`] instead.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Frame {
    /// Ask the server to send a [`StatsSnapshot`] once ingestion completes
    /// (i.e. after *every* producer has finished).
    StatsRequest,
    /// This producer is done; no further frames follow on this connection.
    Finish,
    /// An epoch boundary in the producer's record stream (`DESIGN.md
    /// §12`): the router owns the fleet's epoch clock and delivers each
    /// cut to every backend at the exact stream position it fired, so
    /// clockless backends count epochs bit-identically to a single host.
    /// Shares the producer's sequence space with records frames so its
    /// position survives the deterministic merge. Servers that fire their
    /// own epoch boundaries refuse the frame (connection-fatal).
    EpochCut {
        /// Producer-local sequence number, shared with records frames.
        seq: u64,
    },
}

const TAG_RECORDS: u8 = 0x01;
const TAG_STATS_REQUEST: u8 = 0x02;
const TAG_FINISH: u8 = 0x03;
const TAG_EPOCH_CUT: u8 = 0x06;

/// Encodes a records frame into `buf` (cleared first): tag, sequence
/// number, record count, then the packed records. Clients that stream
/// many frames over one connection reuse `buf`: after the first call at
/// a given batch size, encoding allocates nothing.
///
/// # Errors
///
/// [`io::ErrorKind::InvalidData`] if `records` exceeds
/// [`MAX_RECORDS_PER_FRAME`].
pub fn encode_records(buf: &mut Vec<u8>, seq: u64, records: &[(u32, u32)]) -> io::Result<()> {
    if records.len() > MAX_RECORDS_PER_FRAME as usize {
        return Err(bad(format!("{}-record frame", records.len())));
    }
    buf.clear();
    buf.reserve(1 + 8 + 4 + records.len() * RECORD_BYTES);
    buf.push(TAG_RECORDS);
    buf.extend_from_slice(&seq.to_le_bytes());
    buf.extend_from_slice(&(records.len() as u32).to_le_bytes());
    for &(bank, row) in records {
        buf.extend_from_slice(&pack_record(bank, row).to_le_bytes());
    }
    Ok(())
}

/// Writes one control frame.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_frame<W: Write>(w: &mut W, frame: &Frame) -> io::Result<()> {
    let mut buf = Vec::with_capacity(1 + 8);
    match frame {
        Frame::StatsRequest => buf.push(TAG_STATS_REQUEST),
        Frame::Finish => buf.push(TAG_FINISH),
        Frame::EpochCut { seq } => {
            buf.push(TAG_EPOCH_CUT);
            put_u64(&mut buf, *seq);
        }
    }
    w.write_all(&buf)
}

/// The header of one post-handshake frame, with a records payload left
/// **unread** on the stream. This is the zero-copy server's entry point:
/// it reads the header, then pulls the payload in ring-sized chunks with
/// [`read_packed_records`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameHeader {
    /// A records frame header ([`encode_records`]); `count` records follow
    /// on the stream.
    Records {
        /// Producer-local sequence number: 0 for the first frame, then +1.
        seq: u64,
        /// Records in the unread payload (≤ [`MAX_RECORDS_PER_FRAME`]).
        count: u32,
    },
    /// A [`Frame::StatsRequest`] (no payload).
    StatsRequest,
    /// A [`Frame::Finish`] (no payload).
    Finish,
    /// A [`Frame::EpochCut`] (no payload beyond the sequence number).
    EpochCut {
        /// Producer-local sequence number, shared with records frames.
        seq: u64,
    },
}

/// Reads one frame header, validating the record count against
/// [`MAX_RECORDS_PER_FRAME`] **before** anything is allocated.
///
/// # Errors
///
/// [`io::ErrorKind::InvalidData`] on an unknown tag or an oversized record
/// count; I/O errors (including `UnexpectedEof` on truncation) pass
/// through.
pub fn read_frame_header<R: Read>(r: &mut R) -> io::Result<FrameHeader> {
    let [tag] = read_array(r)?;
    match tag {
        TAG_RECORDS => {
            let fixed: [u8; 8 + 4] = read_array(r)?;
            let mut h = ByteReader::new(&fixed);
            let seq = h.u64("sequence number")?;
            let count = h.u32("record count")?;
            if count > MAX_RECORDS_PER_FRAME {
                return Err(bad(format!("{count}-record frame")));
            }
            Ok(FrameHeader::Records { seq, count })
        }
        TAG_STATS_REQUEST => Ok(FrameHeader::StatsRequest),
        TAG_FINISH => Ok(FrameHeader::Finish),
        TAG_EPOCH_CUT => {
            let seq: [u8; 8] = read_array(r)?;
            let seq = ByteReader::new(&seq).u64("sequence number")?;
            Ok(FrameHeader::EpochCut { seq })
        }
        other => Err(bad(format!("unknown frame tag {other:#04x}"))),
    }
}

/// Reads exactly `count` records of a records payload into `packed`
/// (cleared first), going through the reusable byte buffer `buf`: one
/// `read_exact` into recycled storage, then one `u64::from_le_bytes` per
/// record — no per-record parsing and, after the first call at a given
/// chunk size, no allocation. Callers may split one frame's payload
/// across several calls (the server reads ring-sized chunks).
///
/// # Errors
///
/// I/O errors pass through (`UnexpectedEof` on a truncated payload).
pub fn read_packed_records<R: Read>(
    r: &mut R,
    buf: &mut Vec<u8>,
    packed: &mut Vec<u64>,
    count: usize,
) -> io::Result<()> {
    buf.resize(count * RECORD_BYTES, 0);
    r.read_exact(buf)?;
    packed.clear();
    packed.extend(buf.chunks_exact(RECORD_BYTES).map(|chunk| {
        let mut bytes = [0u8; RECORD_BYTES];
        bytes.copy_from_slice(chunk);
        u64::from_le_bytes(bytes)
    }));
    Ok(())
}

/// The server's reply to a [`Frame::StatsRequest`]: the system-wide state
/// after every producer finished and the staging buffer flushed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Accesses processed, system-wide.
    pub accesses: u64,
    /// Epoch boundaries fired, system-wide.
    pub epochs: u64,
    /// Scheme statistics aggregated across all banks.
    pub stats: SchemeStats,
    /// Banks the system owns ([`crate::EngineFootprint::banks`]).
    pub banks: u64,
    /// Banks with a materialized scheme instance
    /// ([`crate::EngineFootprint::materialized_banks`]).
    pub materialized_banks: u64,
    /// Bytes of materialized scheme state
    /// ([`crate::EngineFootprint::scheme_bytes`]). The drive-style-
    /// dependent accounting scratch is deliberately **not** on the wire:
    /// the state footprint is what the determinism contract makes
    /// bit-identical across partitionings.
    pub scheme_bytes: u64,
}

/// Bytes of an encoded [`StatsSnapshot`]: five u64 counters plus one per
/// [`SchemeStats`] field.
const STATS_BYTES: usize = (5 + SchemeStats::FIELDS.len()) * 8;

/// Writes a stats snapshot. The counters go out in
/// [`SchemeStats::FIELDS`] order — the same name-checked encode table the
/// checkpoint format uses, so a new `SchemeStats` field extends both wire
/// paths (and their tests) in one place instead of silently dropping off
/// a hand-maintained positional list.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_stats<W: Write>(w: &mut W, snap: &StatsSnapshot) -> io::Result<()> {
    let mut buf = Vec::with_capacity(STATS_BYTES);
    put_u64(&mut buf, snap.accesses);
    put_u64(&mut buf, snap.epochs);
    for field in SchemeStats::FIELDS {
        put_u64(&mut buf, (field.get)(&snap.stats));
    }
    put_u64(&mut buf, snap.banks);
    put_u64(&mut buf, snap.materialized_banks);
    put_u64(&mut buf, snap.scheme_bytes);
    w.write_all(&buf)
}

/// Reads a stats snapshot (see [`write_stats`] for the field order).
///
/// # Errors
///
/// Propagates I/O errors from the reader.
pub fn read_stats<R: Read>(r: &mut R) -> io::Result<StatsSnapshot> {
    let body: [u8; STATS_BYTES] = read_array(r)?;
    let mut b = ByteReader::new(&body);
    let accesses = b.u64("accesses")?;
    let epochs = b.u64("epochs")?;
    let mut stats = SchemeStats::default();
    for field in SchemeStats::FIELDS {
        (field.set)(&mut stats, b.u64(field.name)?);
    }
    Ok(StatsSnapshot {
        accesses,
        epochs,
        stats,
        banks: b.u64("banks")?,
        materialized_banks: b.u64("materialized banks")?,
        scheme_bytes: b.u64("scheme bytes")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hello() -> ServerHello {
        ServerHello {
            geometry: MemGeometry {
                channels: 2,
                ranks_per_channel: 1,
                banks_per_rank: 8,
                rows_per_bank: 4096,
                lines_per_row: 16,
                line_bytes: 64,
            },
            slice_start: 0,
            slice_banks: 16,
            spec: "drcat:64:11:32768".into(),
            epoch_len: None,
            accesses: 110_000,
            epochs: 2,
        }
    }

    #[test]
    fn hellos_round_trip() {
        let mut buf = Vec::new();
        write_client_hello(&mut buf, 7).unwrap();
        assert_eq!(read_client_hello(&mut buf.as_slice()).unwrap(), 7);

        for epoch_len in [None, Some(50_000)] {
            for (slice_start, slice_banks) in [(0, 16), (8, 8)] {
                let hello = ServerHello {
                    slice_start,
                    slice_banks,
                    epoch_len,
                    ..hello()
                };
                let mut buf = Vec::new();
                write_server_hello(&mut buf, &hello).unwrap();
                assert_eq!(read_server_hello(&mut buf.as_slice()).unwrap(), hello);
            }
        }
    }

    #[test]
    fn bad_magic_and_version_are_refused() {
        let err = read_client_hello(&mut b"NOPE\x01\x00".as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("bad magic"));

        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&(VERSION + 1).to_le_bytes());
        let err = read_client_hello(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("version"));
    }

    /// Reads one records payload of `count` records back as tuples.
    fn read_records(r: &mut &[u8], count: u32) -> Vec<(u32, u32)> {
        let (mut bytes, mut packed) = (Vec::new(), Vec::new());
        read_packed_records(r, &mut bytes, &mut packed, count as usize).unwrap();
        packed.iter().map(|&p| unpack_record(p)).collect()
    }

    #[test]
    fn frames_round_trip() {
        let batches = [
            (0, vec![(0, 1), (15, 4095), (u32::MAX, u32::MAX)]),
            (u64::MAX, Vec::new()),
        ];
        let frames = [
            (Frame::StatsRequest, FrameHeader::StatsRequest),
            (Frame::Finish, FrameHeader::Finish),
            (
                Frame::EpochCut { seq: 17 },
                FrameHeader::EpochCut { seq: 17 },
            ),
            (
                Frame::EpochCut { seq: u64::MAX },
                FrameHeader::EpochCut { seq: u64::MAX },
            ),
        ];
        let (mut buf, mut frame) = (Vec::new(), Vec::new());
        for (seq, records) in &batches {
            encode_records(&mut frame, *seq, records).unwrap();
            buf.extend_from_slice(&frame);
        }
        for (f, _) in &frames {
            write_frame(&mut buf, f).unwrap();
        }
        let mut r = buf.as_slice();
        for (seq, records) in &batches {
            let count = records.len() as u32;
            let header = FrameHeader::Records { seq: *seq, count };
            assert_eq!(read_frame_header(&mut r).unwrap(), header);
            assert_eq!(&read_records(&mut r, count), records);
        }
        for (_, header) in frames {
            assert_eq!(read_frame_header(&mut r).unwrap(), header);
        }
        assert!(r.is_empty());
    }

    #[test]
    fn oversized_and_unknown_frames_are_refused() {
        // A forged length prefix must not force a giant allocation.
        let mut buf = Vec::new();
        buf.push(0x01);
        buf.extend_from_slice(&0u64.to_le_bytes());
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        let err = read_frame_header(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        let err = read_frame_header(&mut [0x7f_u8].as_slice()).unwrap_err();
        assert!(err.to_string().contains("unknown frame tag"));

        let oversized = vec![(0u32, 0u32); MAX_RECORDS_PER_FRAME as usize + 1];
        assert!(encode_records(&mut Vec::new(), 0, &oversized).is_err());

        // No peer sends tag 0x04 (once a checkpoint request) or 0x05 (once
        // an inline restore image): both are refused as unknown before
        // anything that followed them is read.
        for tag in [0x04u8, 0x05] {
            let err = read_frame_header(&mut [tag, 0xff, 0xff, 0xff, 0xff].as_slice()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(
                err.to_string()
                    .contains(&format!("unknown frame tag {tag:#04x}")),
                "{err}"
            );
        }
    }

    #[test]
    fn version_one_peers_are_refused() {
        // A v1 hello, byte for byte — the frame kinds added in v2 make the
        // formats incompatible, so the handshake must refuse it.
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&1u16.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        let err = read_client_hello(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("version 1"));
    }

    #[test]
    fn packed_records_match_the_wire_byte_layout() {
        // pack_record IS the little-endian wire encoding of (bank, row) —
        // the invariant behind the server's zero-copy decode.
        let records = [(3u32, 0x1234_5678u32), (u32::MAX, 0)];
        let mut buf = Vec::new();
        encode_records(&mut buf, 9, &records).unwrap();
        let payload = &buf[1 + 8 + 4..];
        assert_eq!(payload.len(), records.len() * RECORD_BYTES);
        for (chunk, &(bank, row)) in payload.chunks(RECORD_BYTES).zip(&records) {
            let mut bytes = [0u8; RECORD_BYTES];
            bytes.copy_from_slice(chunk);
            assert_eq!(u64::from_le_bytes(bytes), pack_record(bank, row));
            assert_eq!(unpack_record(pack_record(bank, row)), (bank, row));
        }
    }

    #[test]
    fn header_then_chunked_payload_reads_equal_one_shot_read() {
        let mut buf = Vec::new();
        encode_records(&mut buf, 5, &[(1, 2), (3, 4), (5, 6)]).unwrap();
        write_frame(&mut buf, &Frame::Finish).unwrap();
        let header = FrameHeader::Records { seq: 5, count: 3 };
        let mut one_shot = buf.as_slice();
        assert_eq!(read_frame_header(&mut one_shot).unwrap(), header);
        assert_eq!(read_records(&mut one_shot, 3), [(1, 2), (3, 4), (5, 6)]);

        let mut r = buf.as_slice();
        assert_eq!(read_frame_header(&mut r).unwrap(), header);
        // Split the payload across two chunked reads, like the server does.
        let (mut bytes, mut packed) = (Vec::new(), Vec::new());
        read_packed_records(&mut r, &mut bytes, &mut packed, 2).unwrap();
        assert_eq!(packed, [pack_record(1, 2), pack_record(3, 4)]);
        read_packed_records(&mut r, &mut bytes, &mut packed, 1).unwrap();
        assert_eq!(packed, [pack_record(5, 6)]);
        assert_eq!(r, one_shot);
        assert_eq!(read_frame_header(&mut r).unwrap(), FrameHeader::Finish);
        assert!(r.is_empty());
    }

    /// The records frame written field by field: the reference layout
    /// [`encode_records`] must reproduce.
    fn write_records(buf: &mut Vec<u8>, seq: u64, records: &[(u32, u32)]) {
        buf.push(0x01);
        buf.extend_from_slice(&seq.to_le_bytes());
        buf.extend_from_slice(&(records.len() as u32).to_le_bytes());
        for &(bank, row) in records {
            buf.extend_from_slice(&bank.to_le_bytes());
            buf.extend_from_slice(&row.to_le_bytes());
        }
    }

    #[test]
    fn encode_records_matches_write_records() {
        let records: Vec<(u32, u32)> = (0..100u32).map(|i| (i, i * 31)).collect();
        let mut streamed = Vec::new();
        write_records(&mut streamed, 42, &records);
        let mut encoded = vec![0xFF; 3]; // stale content must be cleared
        encode_records(&mut encoded, 42, &records).unwrap();
        assert_eq!(encoded, streamed);

        let oversized = vec![(0u32, 0u32); MAX_RECORDS_PER_FRAME as usize + 1];
        assert!(encode_records(&mut encoded, 0, &oversized).is_err());
    }

    #[test]
    fn truncated_frames_report_eof() {
        fn eof<T: std::fmt::Debug>(result: io::Result<T>) {
            assert_eq!(result.unwrap_err().kind(), io::ErrorKind::UnexpectedEof);
        }
        let mut buf = Vec::new();
        encode_records(&mut buf, 3, &[(1, 2), (3, 4)]).unwrap();
        let mut r = &buf[..buf.len() - 1];
        let header = FrameHeader::Records { seq: 3, count: 2 };
        assert_eq!(read_frame_header(&mut r).unwrap(), header);
        eof(read_packed_records(
            &mut r,
            &mut Vec::new(),
            &mut Vec::new(),
            2,
        ));
        // Truncated fixed parts: a records header, an epoch cut, both
        // hellos and a stats snapshot.
        eof(read_frame_header(&mut &buf[..5]));
        eof(read_frame_header(&mut [TAG_EPOCH_CUT, 9, 0, 0].as_slice()));
        eof(read_client_hello(&mut &MAGIC[..]));
        let mut buf = Vec::new();
        write_server_hello(&mut buf, &hello()).unwrap();
        for len in [3, 20, buf.len() - 1] {
            eof(read_server_hello(&mut &buf[..len]));
        }
        eof(read_stats(&mut [0u8; 17].as_slice()));
    }

    #[test]
    fn snapshot_round_trip() {
        // Every SchemeStats field must survive the wire — the encode table
        // is SchemeStats::FIELDS, whose own coverage test pins it to the
        // struct definition, so a new field cannot silently drop off.
        let stats = SchemeStats {
            activations: 1,
            refresh_events: 2,
            refreshed_rows: 3,
            sram_reads: 4,
            sram_writes: 5,
            prng_bits: 6,
            splits: 7,
            merges: 8,
            reconfigurations: 9,
            cache_misses: 10,
            dram_counter_transfers: 11,
            max_depth_touched: 12,
        };
        let snap = StatsSnapshot {
            accesses: 1 << 40,
            epochs: 77,
            stats,
            banks: 16,
            materialized_banks: 13,
            scheme_bytes: 1 << 20,
        };
        let mut buf = Vec::new();
        write_stats(&mut buf, &snap).unwrap();
        assert_eq!(read_stats(&mut buf.as_slice()).unwrap(), snap);
        assert_eq!(buf.len(), (5 + SchemeStats::FIELDS.len()) * 8);
    }
}
