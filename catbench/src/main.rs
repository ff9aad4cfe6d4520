//! `catbench` — the loopback `catd` benchmark.
//!
//! Runs one named workload as real TCP sessions against
//! `cat_engine::ingest::serve` in a separate server process (this binary,
//! re-executed in a server role), checks every session bit for bit
//! against a local flat replay, and prints the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics of a traced run (`--trace 1`).
//! The last line of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
//!
//! ```text
//! catbench --workload <swapt-2p|hammer-1m-sharded|hammer-1m-durable>
//!          [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! See `README.md` beside this crate for the metrics, the workloads and
//! the first baseline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clock;
mod layers;
mod server;
mod session;
mod spans;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use catree::engine::checkpoint::{resume_from_dir, CHECKPOINT_FILE, TRACE_LOG_FILE};
use catree::engine::wire::StatsSnapshot;

use clock::{timed, Clock};
use server::Server;
use spans::{Tracer, NO_SESSION};
use workload::{snapshot_of, Workload};

const USAGE: &str = "usage: catbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]";

/// Full set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

enum Mode {
    Bench(Args),
    Serve(Workload, Option<PathBuf>),
}

fn parse_args() -> Result<Mode, String> {
    let mut args = std::env::args().skip(1);
    let (mut name, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    let (mut serve, mut checkpoint_dir) = (None, None);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => name = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--serve" => serve = Some(value()?),
            "--checkpoint-dir" => checkpoint_dir = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let lookup = |n: &str| workload::by_name(n).ok_or(format!("unknown workload {n}"));
    if let Some(n) = serve {
        return Ok(Mode::Serve(lookup(&n)?, checkpoint_dir));
    }
    let workload = lookup(&name.ok_or("--workload is required")?)?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err(format!("--seconds must be positive, not {seconds}"));
    }
    Ok(Mode::Bench(Args {
        workload,
        seed,
        seconds,
        trace,
    }))
}

fn main() -> ExitCode {
    match parse_args() {
        Err(e) => {
            eprintln!("catbench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
        Ok(Mode::Serve(w, dir)) => match server::run(&w, dir) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("catbench server: {e}");
                ExitCode::FAILURE
            }
        },
        Ok(Mode::Bench(args)) => {
            let dir = run_root().join(std::process::id().to_string());
            let outcome = bench(&args, &dir);
            let _ = std::fs::remove_dir_all(&dir);
            match outcome {
                Ok(true) => ExitCode::SUCCESS,
                Ok(false) => ExitCode::FAILURE,
                Err(e) => {
                    eprintln!("catbench: {e}");
                    ExitCode::FAILURE
                }
            }
        }
    }
}

/// One set-up: the seeded records, the snapshot of their flat reference
/// replay, the directory a resume reads, and a bound server.
struct Setup {
    trace: Vec<(u32, u32)>,
    expected: StatsSnapshot,
    resume_dir: PathBuf,
    server: Server,
}

fn set_up(w: &Workload, seed: u64, dir: &Path, tracer: &mut Tracer) -> Result<Setup, String> {
    let root = tracer.start();
    let mut spans = Vec::new();
    let start = tracer.start();
    let trace = w.trace(seed)?;
    spans.push(("setup.gen", start, tracer.start()));
    let start = tracer.start();
    let mut reference = w.system(1);
    reference.process(&trace);
    spans.push(("setup.reference", start, tracer.start()));
    let expected = snapshot_of(&reference);

    let start = tracer.start();
    let resume_dir = dir.join(if w.durable { "checkpoint" } else { "image" });
    if !w.durable {
        // The server keeps no state of its own here, so `resume_ms`
        // restores an image of the verified final state instead.
        std::fs::create_dir_all(&resume_dir).map_err(|e| e.to_string())?;
        let image = reference.checkpoint().map_err(|e| e.to_string())?;
        std::fs::write(resume_dir.join(CHECKPOINT_FILE), image).map_err(|e| e.to_string())?;
    }
    spans.push(("setup.image", start, tracer.start()));
    let start = tracer.start();
    let server = Server::spawn(w, w.durable.then_some(resume_dir.as_path()))
        .map_err(|e| format!("spawn server: {e}"))?;
    spans.push(("setup.spawn", start, tracer.start()));
    tracer.tree("setup", NO_SESSION, (root, tracer.start()), spans);
    Ok(Setup {
        trace,
        expected,
        resume_dir,
        server,
    })
}

/// Everything the session phase measured.
#[derive(Default)]
struct Measured {
    attempted: u64,
    failed: u64,
    verified: u64,
    rates: Vec<f64>,
    records: usize,
    cpu_s: f64,
    resume_ms: Vec<f64>,
    /// Log records the last resume replayed, and the log's size.
    replayed: u64,
    wal_bytes: u64,
}

/// Resumes a fresh system from the directory the session left and checks
/// it holds exactly the reference state.
fn resume(w: &Workload, setup: &Setup, m: &mut Measured) -> Result<(), String> {
    let mut fresh = w.system(1);
    let (state, secs) = timed(|| resume_from_dir(&mut fresh, &setup.resume_dir));
    let state = state.map_err(|e| format!("resume: {e}"))?;
    if snapshot_of(&fresh) != setup.expected {
        return Err("resumed state differs from the reference replay".into());
    }
    m.resume_ms.push(secs * 1e3);
    m.replayed = state.replayed;
    m.wal_bytes = std::fs::metadata(setup.resume_dir.join(TRACE_LOG_FILE)).map_or(0, |md| md.len());
    Ok(())
}

/// Runs sessions (each followed by a resume) for `seconds`, at least one.
fn sessions(
    w: &Workload,
    setup: &mut Setup,
    seconds: f64,
    first_id: u32,
    tracer: &mut Tracer,
) -> Measured {
    let mut m = Measured::default();
    let clock = Clock::new();
    let mut id = first_id;
    while m.attempted == 0 || clock.s() < seconds {
        m.attempted += 2;
        match session::run(
            id,
            w,
            &mut setup.server,
            &setup.trace,
            &setup.expected,
            tracer,
        ) {
            Ok(s) => {
                println!(
                    "session {id}: {} records in {:.6} s, server cpu {:.2} s",
                    s.records, s.wall_s, s.cpu_s
                );
                m.verified += 1;
                m.rates.push(s.records as f64 / s.wall_s);
                m.records += s.records;
                m.cpu_s += s.cpu_s;
            }
            Err(e) => {
                eprintln!("catbench: session {id}: {e}");
                m.failed += 1;
            }
        }
        if let Err(e) = resume(w, setup, &mut m) {
            eprintln!("catbench: session {id}: {e}");
            m.failed += 1;
        }
        id += 1;
    }
    m
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The host and seed record printed with every run.
fn host_line(seed: u64) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".into(), |s| s.trim().to_string());
    format!(
        "host: {{\"nproc\": {nproc}, \"cpu\": {cpu:?}, \"rustc\": {rustc:?}, \
         \"kernel\": {kernel:?}, \"seed\": {seed}}}"
    )
}

/// A metric as printed: name, value, unit.
type Metric = (&'static str, f64, &'static str);

fn bench(args: &Args, dir: &Path) -> Result<bool, String> {
    let w = &args.workload;
    println!("{}", host_line(args.seed));
    println!(
        "workload: {} — {} records/session, {} connection(s), {} shard(s), {}, epoch {}, {}",
        w.name,
        w.records,
        w.producers,
        w.shards,
        w.spec,
        w.epoch,
        if w.durable {
            "durable"
        } else {
            "no durability"
        }
    );
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let mut tracer = Tracer::new(args.trace, Clock::new());

    let mut setup_s = Vec::new();
    let mut kept: Option<Setup> = None;
    for k in 0..SETUPS {
        // A directory of its own per set-up: rewriting one file in place
        // would charge the file system's truncation to the next set-up.
        let dir = dir.join(format!("setup-{k}"));
        let (setup, secs) = timed(|| set_up(w, args.seed, &dir, &mut tracer));
        let setup = setup?;
        setup_s.push(secs);
        if let Some(old) = kept.replace(setup) {
            if old.expected != kept.as_ref().expect("just set").expected {
                return Err("two set-ups from one seed disagree".into());
            }
            old.server.quit().map_err(|e| format!("stop server: {e}"))?;
        }
    }
    let mut setup = kept.expect("at least one set-up");

    let (metrics, m) = if args.trace {
        traced(args, &mut setup, &mut tracer)?
    } else {
        let m = sessions(w, &mut setup, args.seconds, 0, &mut tracer);
        let rss = setup.server.rss_peak_mb().map_err(|e| e.to_string())?;
        let metrics: Vec<Metric> = vec![
            ("records_per_s", median(&m.rates), "rec/s"),
            ("setup_s", median(&setup_s), "s"),
            ("server_rss_peak_mb", rss, "MiB"),
            (
                "server_cpu_s_per_mrec",
                m.cpu_s / m.records as f64 * 1e6,
                "s",
            ),
            ("resume_ms", median(&m.resume_ms), "ms"),
        ];
        (metrics, m)
    };
    setup
        .server
        .quit()
        .map_err(|e| format!("stop server: {e}"))?;

    let correct = m.failed == 0;
    println!(
        "sessions: {} verified of {} attempted, error_rate {} (ratio)",
        m.verified,
        m.attempted / 2,
        m.failed as f64 / m.attempted as f64
    );
    for (name, value, unit) in &metrics {
        println!("  {name:<32} {value:>16.6} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() {
                value.to_string()
            } else {
                "null".into()
            };
            format!("{name:?}: {{\"value\": {value}, \"unit\": {unit:?}}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        m.attempted,
        m.failed,
        body.join(", ")
    );
    Ok(correct)
}

/// The traced run: layer replays, then untraced and traced sessions for
/// half the time each (their ratio is the tracing overhead).
fn traced(
    args: &Args,
    setup: &mut Setup,
    tracer: &mut Tracer,
) -> Result<(Vec<Metric>, Measured), String> {
    let w = &args.workload;
    let n = setup.trace.len() as f64;
    let layers = layers::measure(w, &setup.trace, &setup.expected, tracer)?;

    let half = args.seconds / 2.0;
    tracer.on = false;
    let mut m = sessions(w, setup, half, 0, tracer);
    tracer.on = true;
    let untraced = median(&m.rates);
    let t = sessions(w, setup, half, (m.attempted / 2) as u32, tracer);
    let traced_rate = median(&t.rates);
    m.attempted += t.attempted;
    m.failed += t.failed;
    m.verified += t.verified;

    let spans_path = run_root().join(format!("spans-{}-seed{}.jsonl", w.name, args.seed));
    tracer.write(&spans_path).map_err(|e| e.to_string())?;
    println!(
        "spans: {} written to {}",
        tracer.len(),
        spans_path.display()
    );
    println!("self time by span name (ms):");
    for (name, ns) in tracer.self_times() {
        println!("  {name:<24} {:>12.3}", ns as f64 / 1e6);
    }

    let per_call_ms = |name| tracer.total_ns(name) as f64 / tracer.count(name) as f64 / 1e6;
    let sent = t.records as f64;
    let send_ns = tracer.total_ns("client.send") as f64;
    let gen_ns = tracer.total_ns("setup.gen") as f64 / tracer.count("setup.gen") as f64;
    let flat_ns =
        tracer.total_ns("setup.reference") as f64 / tracer.count("setup.reference") as f64;
    let stats = setup.expected.stats;
    // Images the durable session published: everything before the log
    // tail the resume replayed.
    let images = if w.durable {
        ((setup.expected.accesses - t.replayed) / w.epoch) as f64
    } else {
        0.0
    };
    // Stage costs grouped by the serve thread they run on: each
    // connection reader decodes and writes its lane (the readers share
    // the stream), the drain merges, flushes and checkpoints.
    let reader = (layers.decode_ns + layers.lane_write_ns) / w.producers as f64;
    let drain = layers.merge_ns + layers.flush_ns + layers.encode_ms * 1e6 * images / n;
    let bound = reader.max(drain);
    let e2e = 1e9 / untraced;
    let queue = layers.lane_write_ns + layers.merge_ns;
    let wait_share = 1.0 - layers.encode_ns * sent / send_ns;
    let flushes = (n / layers::FLUSH_RECORDS as f64).ceil();
    let sharded_vs_flat = layers.flush_ns / layers.flush_flat_ns;
    let refresh_per_mrec = stats.refresh_events as f64 / n * 1e6;
    let mut metrics = vec![
        ("workloads.gen_ns_per_rec", gen_ns / n, "ns/rec"),
        ("wire.encode_ns_per_rec", layers.encode_ns, "ns/rec"),
        ("wire.decode_ns_per_rec", layers.decode_ns, "ns/rec"),
        ("wire.bytes_per_rec", layers.bytes_per_rec, "B/rec"),
        ("ingest.queue_ns_per_rec", queue, "ns/rec"),
        (
            "ingest.client_connect_ms",
            per_call_ms("client.connect"),
            "ms",
        ),
        ("ingest.client_send_ns_per_rec", send_ns / sent, "ns/rec"),
        ("ingest.client_wait_share", wait_share, "ratio"),
        (
            "ingest.client_finish_ms",
            per_call_ms("client.finish"),
            "ms",
        ),
        ("system.flush_ns_per_rec", layers.flush_ns, "ns/rec"),
        ("system.flushes", flushes, "count"),
        ("system.sharded_vs_flat", sharded_vs_flat, "ratio"),
        ("system.resident_bytes", layers.resident_bytes, "B"),
        ("system.accounting_bytes", layers.accounting_bytes, "B"),
        (
            "system.materialized_banks",
            layers.materialized_banks,
            "count",
        ),
        ("engine.flat_ns_per_rec", flat_ns / n, "ns/rec"),
        ("engine.refresh_per_mrec", refresh_per_mrec, "count"),
        ("checkpoint.encode_ms", layers.encode_ms, "ms"),
        ("checkpoint.image_bytes", layers.image_bytes, "B"),
        ("checkpoint.restore_ms", layers.restore_ms, "ms"),
        ("pipeline.reader_ns_per_rec", reader, "ns/rec"),
        ("pipeline.drain_ns_per_rec", drain, "ns/rec"),
        ("pipeline.bound_ns_per_rec", bound, "ns/rec"),
        ("pipeline.e2e_ns_per_rec", e2e, "ns/rec"),
        ("pipeline.unexplained_share", 1.0 - bound / e2e, "ratio"),
        (
            "trace.overhead_share",
            1.0 - traced_rate / untraced,
            "ratio",
        ),
    ];
    // Only a durable session leaves a log and published images.
    if w.durable {
        let wal_per_rec = t.wal_bytes as f64 / t.replayed as f64;
        metrics.extend([
            ("checkpoint.images", images, "count"),
            ("checkpoint.wal_bytes_per_rec", wal_per_rec, "B/rec"),
            ("checkpoint.resume_replayed", t.replayed as f64, "count"),
        ]);
    }
    Ok((metrics, m))
}

/// The benchmark's scratch directory inside its own crate: per-run
/// checkpoint directories (removed at exit) and traced runs' span files.
fn run_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("run")
}
