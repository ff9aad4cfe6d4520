//! Load generator for the `catd` example: streams a synthetic workload's
//! activation records to a running `catd` server over N producer
//! connections, then verifies the server's final stats snapshot
//! **bit-identically** against a local replay of the same trace — the
//! determinism contract of `DESIGN.md §7`/`§8`, checked end to end over a
//! real socket.
//!
//! Run with:
//! `cargo run --release --example catd_loadgen -- <addr> [workload] [accesses] [producers] [chunk] [skip] [send]`
//!
//! Defaults: workload `swapt`, 200 000 accesses, 2 producer connections,
//! 8 192 records per chunk. The trace is dealt round-robin by contiguous
//! chunk across the connections (chunk `k` → producer `k % P`), which the
//! server's `(seq, producer)` merge inverts — any producer count yields
//! the same merged stream, so the verification passes for every `P`.
//! Each connection reuses one frame buffer across sends
//! (`IngestClient::send` encodes in place), so the steady state
//! allocates nothing per chunk. Exits nonzero on any mismatch, making
//! this the client half of the loopback smoke in `scripts/tier1.sh`
//! (run there at 2 producers × 2 shards and 4 × 2).
//!
//! The `skip`/`send` positionals split the trace across *sessions* for
//! the kill-and-resume smoke (`DESIGN.md §11`): the full `accesses`-long
//! trace is still generated, but only `trace[skip .. skip + send]` is
//! streamed — `skip` records are assumed already inside the server, from
//! a `--resume`d checkpoint of an earlier partial session. The local
//! reference replays `trace[.. skip + send]`, so verification stays
//! bit-exact across the session boundary (the determinism contract makes
//! the session's chunking irrelevant). Defaults: `skip 0`, `send` =
//! everything after `skip`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use catree::engine::ingest::{deal, IngestClient};
use catree::{AccessStream, AddressMapping, MemorySystem, SchemeSpec, SystemConfig};

fn arg_or<T: std::str::FromStr>(n: usize, default: T) -> T
where
    T::Err: std::fmt::Debug,
{
    match std::env::args().nth(n) {
        Some(s) => s
            .parse()
            .unwrap_or_else(|e| panic!("argument {n} ({s:?}): {e:?}")),
        None => default,
    }
}

fn main() {
    let addr: String = std::env::args().nth(1).expect(
        "usage: catd_loadgen <addr> [workload] [accesses] [producers] [chunk] [skip] [send]",
    );
    let workload: String = arg_or(2, "swapt".to_string());
    let accesses: usize = arg_or(3, 200_000);
    let producers: usize = arg_or(4, 2);
    let chunk: usize = arg_or(5, 8_192);
    let skip: usize = arg_or(6, 0);
    let send: usize = arg_or(7, accesses.saturating_sub(skip));
    assert!(
        skip + send <= accesses,
        "skip {skip} + send {send} exceeds the {accesses}-access trace"
    );

    // Producer 0 connects first (with retry — the server of a freshly
    // spawned smoke may not have bound its listener yet) and learns the
    // served configuration from the handshake; everything — trace
    // geometry, the local reference run — follows what the *server*
    // announced, not local assumptions.
    let mut first = IngestClient::connect_with_retry(addr.as_str(), 0, 30)
        .unwrap_or_else(|e| panic!("connect {addr}: {e}"));
    let hello = first.server_hello().clone();
    let cfg = SystemConfig::dual_core_two_channel();
    assert_eq!(
        hello.geometry,
        cfg.geometry(),
        "catd serves a different geometry than this generator produces"
    );
    // The generator streams the whole bank space: a sliced fleet backend
    // (which would refuse most records) is not a valid target — point
    // this at `catd_router` (or an unsliced `catd`) instead.
    assert!(
        hello.slice_start == 0 && hello.slice_banks == cfg.total_banks(),
        "{addr} serves only {} of {} banks (a fleet backend?); aim at the router",
        hello.slice_banks,
        cfg.total_banks()
    );
    // The server's advertised stream position must equal the prefix this
    // invocation assumes was carried over from the checkpointed session.
    assert_eq!(
        hello.accesses, skip as u64,
        "{addr} holds {} accesses, this invocation skips {skip}",
        hello.accesses
    );
    let spec: SchemeSpec = hello
        .spec
        .parse()
        .unwrap_or_else(|e| panic!("server spec {:?}: {e}", hello.spec));
    println!(
        "loadgen: {addr} serves {spec} (epoch {:?}); streaming accesses {skip}..{} of a \
         {accesses}-access {workload} trace over {producers} connection(s), \
         {chunk}-record chunks",
        hello.epoch_len,
        skip + send
    );

    // Generate and decode the trace once (single-core-equivalent stream,
    // same shape the CMRPO benches replay).
    let wspec = catree::workloads::by_name(&workload)
        .unwrap_or_else(|| panic!("unknown workload {workload}"));
    let mut one = cfg.clone();
    one.cores = 1;
    let mapping = AddressMapping::new(&cfg);
    let trace: Vec<(u32, u32)> = AccessStream::new(&wspec, &one, 0, 64, 0xCA7D)
        .take(accesses)
        .map(|a| mapping.decode_bank_row(a.addr))
        .collect();
    assert_eq!(trace.len(), accesses, "workload stream exhausted early");

    // Local reference replay of everything the server will hold after
    // this session — the `skip` prefix (carried over from the earlier,
    // checkpointed session) plus what this session sends. The server must
    // report it bit for bit.
    let mut reference = MemorySystem::new(&cfg, spec);
    if let Some(epoch) = hello.epoch_len {
        reference = reference.with_epoch_length(epoch);
    }
    for &(bank, row) in &trace[..skip + send] {
        reference.push_decoded(bank, row);
    }
    reference.flush();

    // Deal this session's slice and stream it: producer 0 on this thread
    // (its connection already exists), the rest on their own threads.
    let lanes = deal(&trace[skip..skip + send], producers, chunk);
    let snapshots = std::thread::scope(|scope| {
        let mut lanes = lanes.into_iter().enumerate();
        let (_, first_lane) = lanes.next().expect("at least one producer");
        let rest: Vec<_> = lanes
            .map(|(id, lane)| {
                let addr = addr.as_str();
                scope.spawn(move || {
                    let mut client = IngestClient::connect_with_retry(addr, id as u32, 30)
                        .unwrap_or_else(|e| panic!("connect producer {id}: {e}"));
                    for batch in lane {
                        client.send(batch).expect("send records");
                    }
                    client.finish_with_stats().expect("stats snapshot")
                })
            })
            .collect();
        for batch in first_lane {
            first.send(batch).expect("send records");
        }
        let mut snapshots = vec![first.finish_with_stats().expect("stats snapshot")];
        snapshots.extend(rest.into_iter().map(|h| h.join().expect("producer thread")));
        snapshots
    });

    // Every connection saw the same snapshot, and it matches the local
    // replay exactly.
    let server = snapshots[0];
    for (id, snap) in snapshots.iter().enumerate() {
        assert_eq!(*snap, server, "producer {id} saw a different snapshot");
    }
    assert_eq!(
        server.accesses,
        (skip + send) as u64,
        "server lost accesses"
    );
    assert_eq!(server.epochs, reference.epochs(), "epoch count differs");
    if server.stats != reference.stats() {
        eprintln!(
            "loadgen: MISMATCH\n  server:    {:?}\n  reference: {:?}",
            server.stats,
            reference.stats()
        );
        std::process::exit(1);
    }
    // The footprint travels the wire too (summed across a fleet): the
    // server — or the merged fleet — must materialize exactly the banks
    // the reference run does.
    let fp = reference.footprint();
    let fp_expected = (
        fp.banks as u64,
        fp.materialized_banks as u64,
        fp.scheme_bytes as u64,
    );
    let fp_server = (server.banks, server.materialized_banks, server.scheme_bytes);
    if fp_server != fp_expected {
        eprintln!(
            "loadgen: FOOTPRINT MISMATCH (banks, materialized, scheme bytes)\n  \
             server:    {fp_server:?}\n  reference: {fp_expected:?}"
        );
        std::process::exit(1);
    }
    println!(
        "loadgen: verified bit-identical — {} accesses, {} epochs, {} refreshes over {} rows",
        server.accesses, server.epochs, server.stats.refresh_events, server.stats.refreshed_rows
    );
}
