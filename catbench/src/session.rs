//! One measured loopback session: the load generator's closed loop over at
//! most two connections (TCP backpressure paces it), and the bit-for-bit
//! check of what the server reports.

use std::io;

use catree::engine::ingest::{deal, IngestClient};
use catree::engine::wire::StatsSnapshot;

use crate::clock::Clock;
use crate::server::Server;
use crate::spans::Tracer;
use crate::workload::{Workload, CHUNK};

/// What one session measured.
pub struct Session {
    pub records: usize,
    /// First connect to last snapshot.
    pub wall_s: f64,
    /// Server CPU (user + system) over the session.
    pub cpu_s: f64,
}

/// A connection's spans, timed on its own thread: (name, start, end).
type ConnSpans = Vec<(&'static str, u64, u64)>;

/// Streams one producer's lane and collects the final snapshot.
fn stream_lane(
    addr: &str,
    producer: u32,
    lane: &[&[(u32, u32)]],
    clock: Option<Clock>,
) -> io::Result<(StatsSnapshot, ConnSpans)> {
    let mut spans = Vec::new();
    let now = || clock.map_or(0, |c| c.ns());
    let start = now();
    let mut client = IngestClient::connect_with_retry(addr, producer, 30)?;
    if clock.is_some() {
        spans.push(("client.connect", start, now()));
    }
    for batch in lane {
        let start = now();
        client.send(batch)?;
        if clock.is_some() {
            spans.push(("client.send", start, now()));
        }
    }
    let start = now();
    let snapshot = client.finish_with_stats()?;
    if clock.is_some() {
        spans.push(("client.finish", start, now()));
    }
    Ok((snapshot, spans))
}

/// Runs session `id`: sends `trace` to `server` and checks every
/// connection's snapshot against `expected`.
pub fn run(
    id: u32,
    workload: &Workload,
    server: &mut Server,
    trace: &[(u32, u32)],
    expected: &StatsSnapshot,
    tracer: &mut Tracer,
) -> Result<Session, String> {
    server.start_session().map_err(|e| format!("start: {e}"))?;
    let cpu_before = server.cpu_s().map_err(|e| format!("server cpu: {e}"))?;
    let lanes = deal(trace, workload.producers, CHUNK);
    let clock = tracer.on.then_some(tracer.clock);
    let addr = server.addr.as_str();

    let session_clock = Clock::new();
    let span_start = tracer.start();
    // Producer 0 streams on this thread, producer 1 (if any) on one more:
    // the load generator never runs more than two threads.
    let results: Vec<io::Result<(StatsSnapshot, ConnSpans)>> = std::thread::scope(|scope| {
        let mut lanes = lanes.iter().enumerate();
        let (_, first) = lanes.next().expect("at least one producer");
        let others: Vec<_> = lanes
            .map(|(p, lane)| scope.spawn(move || stream_lane(addr, p as u32, lane, clock)))
            .collect();
        let mut out = vec![stream_lane(addr, 0, first, clock)];
        out.extend(others.into_iter().map(|h| {
            h.join()
                .unwrap_or_else(|_| Err(io::Error::other("connection thread panicked")))
        }));
        out
    });
    let wall_s = session_clock.s();
    let span = (span_start, tracer.start());
    let mut children = Vec::new();

    let accesses = server.end_session().map_err(|e| format!("server: {e}"))?;
    let cpu_s = server.cpu_s().map_err(|e| format!("server cpu: {e}"))? - cpu_before;
    for (p, result) in results.into_iter().enumerate() {
        let (snapshot, spans) = result.map_err(|e| format!("connection {p}: {e}"))?;
        children.extend(spans);
        if snapshot != *expected {
            return Err(format!(
                "connection {p} snapshot differs from the reference replay:\n  \
                 server:    {snapshot:?}\n  reference: {expected:?}"
            ));
        }
    }
    tracer.tree("session", id, span, children);
    if accesses != trace.len() as u64 {
        return Err(format!(
            "server ingested {accesses} of {} records",
            trace.len()
        ));
    }
    Ok(Session {
        records: trace.len(),
        wall_s,
        cpu_s,
    })
}
