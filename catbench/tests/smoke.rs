//! Smoke tests for the benchmark itself: a seconds-long run of every
//! workload named in `BENCHMARK.json`, untraced and traced, must verify
//! every session and print every metric the file names, with its unit.
//!
//! Run with `cargo test --release --manifest-path catbench/Cargo.toml`
//! (a debug build runs the same checks, only slower).

use std::process::Command;

/// `(section, name, unit)` for every named entry of `BENCHMARK.json`,
/// which holds one entry per line.
fn manifest() -> Vec<(String, String, Option<String>)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let field = |line: &str, key: &str| {
        let at = line.find(&format!("\"{key}\": \""))? + key.len() + 5;
        Some(line[at..].split('"').next()?.to_string())
    };
    let mut section = String::new();
    let mut out = Vec::new();
    for line in text.lines() {
        for key in ["workloads", "end_to_end", "per_layer"] {
            if line.contains(&format!("\"{key}\":")) {
                section = key.to_string();
            }
        }
        if let Some(name) = field(line, "name") {
            out.push((section.clone(), name, field(line, "unit")));
        }
    }
    out
}

fn names(section: &str) -> Vec<(String, Option<String>)> {
    manifest()
        .into_iter()
        .filter(|(s, _, _)| s == section)
        .map(|(_, n, u)| (n, u))
        .collect()
}

fn run(workload: &str, trace: u8) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_catbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", &trace.to_string()])
        .output()
        .expect("run catbench");
    (
        out.status.success(),
        String::from_utf8(out.stdout).expect("utf-8 output"),
    )
}

/// Runs `workload` untraced and traced; returns the traced run's output.
fn check(workload: &str) -> String {
    let mut traced = String::new();
    for (trace, section) in [(0, "end_to_end"), (1, "per_layer")] {
        let (ok, stdout) = run(workload, trace);
        assert!(ok, "{workload} --trace {trace} failed:\n{stdout}");
        let last = stdout.lines().last().expect("some output");
        assert!(
            last.starts_with("{\"correct\": true, "),
            "{workload}: {last}"
        );
        assert!(last.contains("\"failed\": 0, "), "{workload}: {last}");
        let metrics = names(section);
        assert!(
            !metrics.is_empty(),
            "BENCHMARK.json names no {section} metrics"
        );
        for (name, unit) in metrics {
            let unit = unit.expect("every metric has a unit");
            let key = format!("\"{name}\": {{\"value\": ");
            let at = last
                .find(&key)
                .unwrap_or_else(|| panic!("{workload}: no {name} in {last}"));
            let (value, tail) = last[at + key.len()..].split_once(',').expect("a value");
            let value: f64 = value
                .parse()
                .unwrap_or_else(|_| panic!("{workload}: {name} = {value} is not a number"));
            assert!(value.is_finite(), "{workload}: {name} = {value}");
            assert!(
                tail.starts_with(&format!(" \"unit\": \"{unit}\"}}")),
                "{workload}: {name} is not in {unit}: {last}"
            );
            assert!(
                stdout
                    .lines()
                    .any(|l| l.contains(&name) && l.ends_with(&format!(" {unit}"))),
                "{workload}: {name} is not printed with its unit"
            );
        }
        traced = stdout;
    }
    traced
}

#[test]
fn benchmark_names_the_steady_workloads() {
    let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
    assert_eq!(workloads, ["swapt-2p", "hammer-1m-sharded"]);
}

#[test]
fn swapt_2p_verifies_and_prints_every_metric() {
    check("swapt-2p");
}

#[test]
fn hammer_1m_sharded_verifies_and_prints_every_metric() {
    check("hammer-1m-sharded");
}

/// Runnable but not in `BENCHMARK.json` (see `README.md`): it must still
/// verify, print every listed metric, and add the durable session's.
#[test]
fn hammer_1m_durable_verifies_and_prints_every_metric() {
    let traced = check("hammer-1m-durable");
    let last = traced.lines().last().expect("some output");
    for name in [
        "checkpoint.images",
        "checkpoint.wal_bytes_per_rec",
        "checkpoint.resume_replayed",
    ] {
        assert!(
            last.contains(&format!("\"{name}\": {{\"value\": ")),
            "no {name} in {last}"
        );
    }
}

#[test]
fn unknown_workload_fails_without_a_result() {
    let (ok, stdout) = run("no-such-workload", 0);
    assert!(!ok);
    assert!(!stdout.contains("\"correct\""), "{stdout}");
}
