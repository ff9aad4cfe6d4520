//! The one ingestion session loop behind both TCP front-ends: `catd`
//! ([`crate::ingest::serve`]) and the fleet router
//! ([`crate::router::serve`]) (`DESIGN.md §8`).
//!
//! A session accepts `producers` connections and handshakes each, then
//! gives each one a reader thread that feeds its SPSC lane. It drains the
//! deterministic `(seq, producer)` merge into a [`Sink`], joins the
//! readers, and answers the stats requesters. Two seams keep the loop
//! free of any transport or drain:
//!
//! - a [`Connections`] source yields `Read + Write` streams with a peer
//!   label: a `TcpListener` in production, socket pairs in tests;
//! - a [`Sink`] drains the merge and then produces the served
//!   [`StatsSnapshot`]. `catd` drains into a `MemorySystem` (plain or
//!   checkpointing); the router scatters into its backends.
//!
//! What the readers admit follows from the [`ServerHello`] the session
//! advertises: records must fall inside the advertised bank slice, and
//! stream epoch cuts are admitted only when it advertises no epoch clock.
//!
//! Error precedence: a drain error closes the queue, joins the readers
//! and is returned. Otherwise the first reader error wins over a
//! sink-finish error, and either ends the session without a stats reply.

use std::io::{self, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};

use crate::codec::bad;
use crate::ingest::{IngestConsumer, IngestProducer, IngestQueue};
use crate::wire::{self, FrameHeader, ServerHello, StatsSnapshot};
use crate::GeometrySlice;

/// Where a session's producer connections come from.
pub(crate) trait Connections {
    /// One producer connection.
    type Stream: Read + Write + Send + 'static;

    /// Blocks for the next connection; returns it with a peer label for
    /// error messages.
    fn accept(&mut self) -> io::Result<(Self::Stream, String)>;
}

impl Connections for &TcpListener {
    type Stream = TcpStream;

    fn accept(&mut self) -> io::Result<(TcpStream, String)> {
        let (stream, peer) = TcpListener::accept(self)?;
        Ok((stream, peer.to_string()))
    }
}

/// What a session drains its merged stream into.
pub(crate) trait Sink {
    /// What the sink hands back at session end besides the snapshot.
    type Done;

    /// Drains the merge until every producer has finished.
    fn drain(&mut self, consumer: &mut IngestConsumer) -> io::Result<()>;

    /// Produces the snapshot served to stats requesters.
    fn finish(self) -> io::Result<(StatsSnapshot, Self::Done)>;
}

/// Records decoded per chunk by a reader thread: bounds each connection's
/// reusable frame buffers at 32 KiB and keeps a frame's payload streaming
/// through the lane instead of being materialised whole.
const READ_CHUNK_RECORDS: usize = 4096;

/// Serves one session: accepts and handshakes `producers` connections
/// from `connections`, streams their frames through an [`IngestQueue`] of
/// `queue_capacity`-record lanes into `sink`, and sends the sink's
/// snapshot to every connection that asked for it. Returns what the sink
/// finished with, the snapshot, and the number of stats replies sent.
///
/// # Errors
///
/// [`io::ErrorKind::InvalidInput`] for zero producers or a zero queue
/// capacity (before anything is accepted), the first accept or handshake
/// error, then errors in the precedence given in the [module docs](self).
pub(crate) fn run<C: Connections, S: Sink>(
    mut connections: C,
    hello: &ServerHello,
    producers: usize,
    queue_capacity: usize,
    mut sink: S,
) -> io::Result<(S::Done, StatsSnapshot, usize)> {
    if producers == 0 || queue_capacity == 0 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "a session needs producers and lane capacity, got {producers} and {queue_capacity}"
            ),
        ));
    }
    let owned = GeometrySlice::new(hello.geometry, hello.slice_start, hello.slice_banks)
        .map_err(|e| bad(e.to_string()))?;
    let cuts_allowed = hello.epoch_len.is_none();
    // Accept and handshake every connection before spawning any reader,
    // so a failed handshake aborts with no thread blocked on a queue
    // nobody will drain.
    let streams = accept_producers(&mut connections, producers, hello)?;

    let (lanes, mut consumer) = IngestQueue::bounded(producers, queue_capacity);
    let mut readers = Vec::with_capacity(producers);
    for (stream, producer) in streams.into_iter().zip(lanes) {
        // A failed spawn aborts the session; readers already spawned see
        // the queue close when `consumer` drops and error out.
        readers.push(
            std::thread::Builder::new()
                .name(format!("catd-reader-{}", producer.id()))
                .spawn(move || read_connection(stream, producer, owned, cuts_allowed))?,
        );
    }

    if let Err(e) = sink.drain(&mut consumer) {
        // A dead drain must not leave readers parked on full lanes: close
        // the queue, let them error out of their streams, and report the
        // drain's error.
        drop(consumer);
        for reader in readers {
            let _ = reader.join();
        }
        return Err(e);
    }

    let mut finished = Vec::with_capacity(producers);
    let mut first_error = None;
    for reader in readers {
        match reader.join() {
            Ok(Ok(done)) => finished.push(done),
            Ok(Err(e)) => first_error = first_error.or(Some(e)),
            // A panicking reader is a bug, but it must not take the
            // session (and every other connection's reply) down with it.
            Err(_panic) => {
                first_error = first_error.or(Some(io::Error::other("ingest reader panicked")));
            }
        }
    }
    let (snapshot, done) = match sink.finish() {
        Ok(finished) => finished,
        Err(e) => return Err(first_error.unwrap_or(e)),
    };
    let mut stats_served = 0;
    for (mut stream, wants_stats) in finished {
        if wants_stats {
            match wire::write_stats(&mut stream, &snapshot).and_then(|()| stream.flush()) {
                Ok(()) => stats_served += 1,
                Err(e) => first_error = first_error.or(Some(e)),
            }
        }
    }
    match first_error {
        Some(e) => Err(e),
        None => Ok((done, snapshot, stats_served)),
    }
}

/// Accepts and handshakes exactly `producers` connections, returning the
/// streams in producer-id order. Each client *claims* its producer id
/// (merge tie-break rank) in its hello — lane assignment must follow the
/// client-side deal, not the racy accept order — and a session's ids
/// must form a permutation of `0..producers`.
fn accept_producers<C: Connections>(
    connections: &mut C,
    producers: usize,
    hello: &ServerHello,
) -> io::Result<Vec<C::Stream>> {
    let mut streams: Vec<Option<C::Stream>> = (0..producers).map(|_| None).collect();
    for _ in 0..producers {
        let (mut stream, peer) = connections.accept()?;
        let id = wire::read_client_hello(&mut stream)? as usize;
        let slot = streams.get_mut(id).ok_or_else(|| {
            bad(format!(
                "{peer} claimed producer id {id}, session has {producers} producers"
            ))
        })?;
        if slot.is_some() {
            return Err(bad(format!("{peer} claimed producer id {id} twice")));
        }
        wire::write_server_hello(&mut stream, hello)?;
        *slot = Some(stream);
    }
    // Every slot is filled: exactly `producers` connections were accepted
    // and their ids form a permutation of `0..producers`.
    Ok(streams.into_iter().flatten().collect())
}

/// One connection's reader loop: frame headers → sequence check → chunked
/// zero-copy payload decode → bank/row validation against the served
/// slice → ring lane. Returns the stream (for the stats reply) and
/// whether the client requested stats. Dropping `producer` on any exit
/// finishes the lane, so the merge never waits on a dead connection (a
/// batch cut short by an error is delivered as its prefix — the session
/// is already failing). Out-of-slice banks and (when the server fires its
/// own epoch boundaries) stream epoch cuts are refused **here, at the
/// connection**: a misrouted client errors its own stream instead of
/// corrupting the shared drain.
fn read_connection<S: Read>(
    stream: S,
    mut producer: IngestProducer,
    owned: GeometrySlice,
    cuts_allowed: bool,
) -> io::Result<(S, bool)> {
    let peer = producer.id();
    let rows = owned.geometry().rows_per_bank;
    let mut reader = BufReader::new(stream);
    let mut expected_seq = 0u64;
    let mut wants_stats = false;
    // Reused across every frame of the connection: the raw payload bytes
    // and their packed-u64 view. The packed view IS the ring-slot layout,
    // so decode is `read_exact` + `from_le_bytes` and nothing else.
    let mut payload = Vec::new();
    let mut packed = Vec::new();
    let closed = |e| io::Error::new(io::ErrorKind::BrokenPipe, e);
    loop {
        let header = wire::read_frame_header(&mut reader)?;
        if let FrameHeader::Records { seq, .. } | FrameHeader::EpochCut { seq } = header {
            if seq != expected_seq {
                return Err(bad(format!(
                    "producer {peer}: sequence {seq}, expected {expected_seq}"
                )));
            }
            expected_seq += 1;
        }
        match header {
            FrameHeader::Records { count, .. } => {
                producer.begin_batch(count as usize).map_err(closed)?;
                let mut remaining = count as usize;
                while remaining > 0 {
                    let take = remaining.min(READ_CHUNK_RECORDS);
                    wire::read_packed_records(&mut reader, &mut payload, &mut packed, take)?;
                    // Both coordinates are checked here, at the connection:
                    // the schemes downstream assert on out-of-range rows
                    // (e.g. the counter-cache bounds check), and a panic on
                    // the shared drain thread would take the whole session
                    // down instead of just this stream.
                    if let Some(&offending) = packed.iter().find(|&&p| {
                        let (bank, row) = wire::unpack_record(p);
                        !owned.contains(bank) || row >= rows
                    }) {
                        let (bank, row) = wire::unpack_record(offending);
                        return Err(bad(format!(
                            "producer {peer}: record (bank {bank}, row {row}) out of range \
                             for a backend owning {owned} with {rows}-row banks"
                        )));
                    }
                    producer.write_packed(&packed).map_err(closed)?;
                    remaining -= take;
                }
            }
            FrameHeader::EpochCut { .. } => {
                if !cuts_allowed {
                    return Err(bad(format!(
                        "producer {peer}: stream epoch cut, but the server fires its \
                         own epoch boundaries"
                    )));
                }
                producer.send_cut().map_err(closed)?;
            }
            FrameHeader::StatsRequest => wants_stats = true,
            FrameHeader::Finish => return Ok((reader.into_inner(), wants_stats)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::os::unix::net::UnixStream;

    use cat_core::SchemeSpec;

    use crate::ingest::{deal, SystemSink};
    use crate::{MemGeometry, MemorySystem};

    const EPOCH: u64 = 3_000;

    fn geometry() -> MemGeometry {
        MemGeometry {
            channels: 2,
            ranks_per_channel: 1,
            banks_per_rank: 8,
            rows_per_bank: 1024,
            lines_per_row: 16,
            line_bytes: 64,
        }
    }

    fn system() -> MemorySystem {
        let spec: SchemeSpec = "drcat:64:11:64".parse().unwrap();
        MemorySystem::new(geometry(), spec).with_epoch_length(EPOCH)
    }

    fn hello(system: &MemorySystem) -> ServerHello {
        ServerHello {
            geometry: *system.geometry(),
            slice_start: system.slice().start_bank(),
            slice_banks: system.slice().banks(),
            spec: system.spec().to_string(),
            epoch_len: system.epoch_length(),
            accesses: system.accesses(),
            epochs: system.epochs(),
        }
    }

    /// Server ends of socket pairs, handed out last-first so accept order
    /// differs from the producer ids the clients claim.
    struct Pipes(Vec<UnixStream>);

    impl Connections for Pipes {
        type Stream = UnixStream;

        fn accept(&mut self) -> io::Result<(UnixStream, String)> {
            let stream = self
                .0
                .pop()
                .ok_or_else(|| io::Error::other("no more pipes"))?;
            Ok((stream, "pipe".into()))
        }
    }

    /// Socket pairs: the server ends as a [`Pipes`] source, and the client
    /// ends in producer order.
    fn pipes(n: usize) -> (Pipes, Vec<UnixStream>) {
        let (servers, clients) = (0..n).map(|_| UnixStream::pair().unwrap()).unzip();
        (Pipes(servers), clients)
    }

    #[test]
    fn a_piped_session_equals_a_flat_replay() {
        let trace: Vec<(u32, u32)> = (0..20_011u32)
            .map(|i| {
                let z = i.wrapping_mul(0x9e37_79b9).rotate_left(13);
                let bank = z % 16;
                let row = if i % 3 == 0 { z % 1024 } else { 100 + bank };
                (bank, row)
            })
            .collect();
        let (source, clients) = pipes(2);
        let lanes = deal(&trace, 2, 1_777);
        let served = std::thread::scope(|scope| {
            let server = scope.spawn(|| {
                let mut system = system();
                let hello = hello(&system);
                run(source, &hello, 2, 64, SystemSink::new(&mut system, None))
            });
            let clients: Vec<_> = clients
                .into_iter()
                .zip(&lanes)
                .enumerate()
                .map(|(id, (mut stream, lane))| {
                    scope.spawn(move || {
                        wire::write_client_hello(&mut stream, id as u32).unwrap();
                        let hello = wire::read_server_hello(&mut stream).unwrap();
                        assert_eq!(hello.epoch_len, Some(EPOCH));
                        let mut frame = Vec::new();
                        for (seq, batch) in lane.iter().enumerate() {
                            wire::encode_records(&mut frame, seq as u64, batch).unwrap();
                            stream.write_all(&frame).unwrap();
                        }
                        wire::write_frame(&mut stream, &wire::Frame::StatsRequest).unwrap();
                        wire::write_frame(&mut stream, &wire::Frame::Finish).unwrap();
                        wire::read_stats(&mut stream).unwrap()
                    })
                })
                .collect();
            let replies: Vec<StatsSnapshot> =
                clients.into_iter().map(|c| c.join().unwrap()).collect();
            (server.join().unwrap().unwrap(), replies)
        });
        let ((outcome, snapshot, stats_served), replies) = served;

        let mut flat = system();
        flat.process(&trace);
        let footprint = flat.footprint();
        let expected = StatsSnapshot {
            accesses: flat.accesses(),
            epochs: flat.epochs(),
            stats: flat.stats(),
            banks: footprint.banks as u64,
            materialized_banks: footprint.materialized_banks as u64,
            scheme_bytes: footprint.scheme_bytes as u64,
        };
        assert_eq!(snapshot, expected);
        assert_eq!(snapshot.epochs, trace.len() as u64 / EPOCH);
        assert!(snapshot.stats.refresh_events > 0, "the scheme must fire");
        assert_eq!(outcome.accesses, trace.len() as u64);
        assert_eq!(stats_served, 2);
        assert_eq!(replies, [snapshot, snapshot]);
    }

    #[test]
    fn an_out_of_range_producer_id_is_refused_at_the_handshake() {
        let (source, mut clients) = pipes(2);
        // The first accepted connection claims id 2 of a 2-producer session.
        wire::write_client_hello(&mut clients[1], 2).unwrap();
        let mut system = system();
        let hello = hello(&system);
        let err = run(source, &hello, 2, 64, SystemSink::new(&mut system, None)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("claimed producer id 2"), "{err}");
        assert_eq!(system.accesses(), 0);
    }
}
